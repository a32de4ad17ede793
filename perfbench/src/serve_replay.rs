//! `serve_replay`: two replays of one long seeded Poisson trace on the
//! tuned serving layout (GPT-3, 4x4 replicas, S=4, batch cap 16, four
//! replicas): one nominal, one with chip deaths, failover routing and
//! load shedding armed.
//!
//! The fleet's event loop does almost all the work; the trace and the
//! cost tables are built in set-up and shared by `Arc`. The chaos replay
//! runs the failover, retry and shed paths beside the steady decode path.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use meshslice::llm::LlmConfig;
use meshslice::{MeshShape, SimConfig};
use meshslice_faults::FailureSpec;
use meshslice_recovery::RepairModel;
use meshslice_serving::{
    simulate_fleet_threads, simulate_fleet_traced, ArrivalSpec, ChaosSpec, CostProfile,
    CostTableCache, FleetReport, Request, RouterPolicy, ServingSpec, ShedPolicy,
};

use crate::{median, pins, Calls, Workload, THREADS};

/// Offered load, requests per second: near the knee where the nominal
/// TTFT p99 approaches the 500 ms SLO on this layout.
pub const QPS: f64 = 8.0;
/// Requests per replay.
pub const REQUESTS: usize = 300_000;
/// Replica count.
pub const REPLICAS: usize = 4;
/// Requested slice count per replica.
pub const SLICE_COUNT: usize = 4;
/// Decode batch cap.
pub const MAX_BATCH: usize = 16;
/// TTFT p99 target, milliseconds.
pub const SLO_MS: f64 = 500.0;
/// Expected chip deaths across the fleet over the trace.
pub const EXPECTED_DEATHS: f64 = 8.0;
/// Waiting-queue depth past which a replica sheds new arrivals.
pub const SHED_QUEUE_DEPTH: usize = 8;
/// Requests of the replay the tracing-overhead probe runs: full request
/// tracing keeps every event in memory.
pub const TELEMETRY_REQUESTS: usize = REQUESTS / 10;

/// The pinned fields of one [`FleetReport`]: offered, completed,
/// rejected, shed, timed out, retries, redistributed, failovers,
/// preemptions, generated tokens, and the TTFT p99 bits.
pub type ReplayOut = [u64; 11];

fn replay_out(r: &FleetReport) -> ReplayOut {
    [
        r.offered as u64,
        r.completed as u64,
        r.rejected as u64,
        r.shed as u64,
        r.timed_out as u64,
        r.retries as u64,
        r.redistributed as u64,
        r.failovers as u64,
        r.preemptions as u64,
        r.generated_tokens as u64,
        r.ttft.p99.to_bits(),
    ]
}

/// The workload's inputs.
pub struct ServeReplay {
    cfg: SimConfig,
    nominal: ServingSpec,
    chaos: ServingSpec,
    /// (builds, hits) of the cost-table cache after set-up.
    table_stats: (usize, usize),
}

impl ServeReplay {
    fn replay(
        &self,
        calls: &mut Calls,
        name: &'static str,
        spec: &ServingSpec,
    ) -> Option<FleetReport> {
        let report = calls.try_call(name, || simulate_fleet_threads(spec, &self.cfg, THREADS))?;
        calls.count("fleet.offered", report.offered);
        calls.count("fleet.completed", report.completed);
        Some(report)
    }
}

impl Workload for ServeReplay {
    type Output = [ReplayOut; 2];

    fn setup(seed: u64, calls: &mut Calls) -> Option<ServeReplay> {
        let cfg = SimConfig::tpu_v4();
        let model = LlmConfig::gpt3();
        let mesh = MeshShape::new(4, 4);
        let trace: Arc<[Request]> = calls.call("serving.trace_gen", || {
            Arc::from(ArrivalSpec::poisson(QPS).generate(REQUESTS, seed))
        })?;
        // Both replays ask the cache for their table: one build, one hit.
        let cache = CostTableCache::new(cfg.clone(), CostProfile::Full);
        let table = |calls: &mut Calls| {
            calls
                .call("serving.table_build", || {
                    cache.replica_costs(&model, mesh, SLICE_COUNT, MAX_BATCH)
                })
                .flatten()
        };
        let nominal_costs = table(calls)?;
        let chaos_costs = table(calls)?;
        let nominal = ServingSpec {
            slice_count: SLICE_COUNT,
            max_batch: MAX_BATCH,
            num_requests: REQUESTS,
            seed,
            slo_p99_ttft_ms: SLO_MS,
            shared_costs: Some(nominal_costs),
            shared_trace: Some(trace),
            ..ServingSpec::new(model.clone(), mesh, REPLICAS, QPS)
        };
        let span = REQUESTS as f64 / QPS;
        let fleet_chips = (mesh.num_chips() * REPLICAS) as f64;
        let chaos = ServingSpec {
            shared_costs: Some(chaos_costs),
            chaos: Some(
                ChaosSpec::new(
                    FailureSpec::chip_mtbf(span * fleet_chips / EXPECTED_DEATHS, span),
                    seed ^ 0x00c4_a05c_4a05_0001,
                )
                .with_repair(RepairModel::exponential(span / 16.0)),
            ),
            router: Some(RouterPolicy::for_slo(SLO_MS / 1e3)),
            shed: Some(
                ShedPolicy::for_queue_depth(SHED_QUEUE_DEPTH).with_degraded_cap(MAX_BATCH / 2),
            ),
            ..nominal.clone()
        };
        Some(ServeReplay {
            cfg,
            nominal,
            chaos,
            table_stats: (cache.builds(), cache.hits()),
        })
    }

    fn pass(&self, calls: &mut Calls) -> Option<[ReplayOut; 2]> {
        let nominal = self.replay(calls, "fleet.nominal", &self.nominal)?;
        let chaos = self.replay(calls, "fleet.chaos", &self.chaos)?;
        for (name, n) in [
            ("fleet.retries", chaos.retries),
            ("fleet.redistributed", chaos.redistributed),
            ("fleet.shed", chaos.shed),
            ("fleet.timed_out", chaos.timed_out),
            ("fleet.failovers", chaos.failovers),
        ] {
            calls.count(name, n);
        }
        Some([replay_out(&nominal), replay_out(&chaos)])
    }

    fn check(&self, seed: u64, out: &[ReplayOut; 2], calls: &mut Calls) {
        for (name, r) in ["nominal", "chaos"].iter().zip(out) {
            // The terminal-outcome partition.
            if r[1] + r[2] + r[3] + r[4] != r[0] || r[0] != REQUESTS as u64 {
                calls.mismatch(&format!(
                    "serve_replay {name}: outcomes do not partition: {r:?}"
                ));
            }
        }
        if out[0][7] != 0 {
            calls.mismatch("serve_replay: the nominal replay failed over");
        }
        if let Some(pin) = pins::SERVE_REPLAY.iter().find(|p| p.0 == seed) {
            if pin.1 != *out {
                calls.mismatch(&format!(
                    "serve_replay seed {seed}: {out:?} differs from pin {:?}",
                    pin.1
                ));
            }
        }
    }

    /// Set-up cache counters, and `telemetry.trace_overhead`: the first
    /// [`TELEMETRY_REQUESTS`] of the nominal replay with full request
    /// tracing against the same replay untraced, median of three
    /// alternating pairs.
    fn traced_extras(&self, calls: &mut Calls, metrics: &mut BTreeMap<String, f64>) {
        metrics.insert("serving.table_builds".into(), self.table_stats.0 as f64);
        metrics.insert("serving.table_hits".into(), self.table_stats.1 as f64);
        let probe = ServingSpec {
            num_requests: TELEMETRY_REQUESTS,
            ..self.nominal.clone()
        };
        let (mut ratios, mut events) = (Vec::new(), 0);
        for _ in 0..3 {
            let start = Instant::now();
            let plain = calls.try_call("telemetry.fleet_untraced", || {
                simulate_fleet_threads(&probe, &self.cfg, THREADS)
            });
            let plain_s = start.elapsed().as_secs_f64();
            let start = Instant::now();
            let traced = calls.try_call("telemetry.fleet_traced", || {
                simulate_fleet_traced(&probe, &self.cfg, THREADS)
            });
            let traced_s = start.elapsed().as_secs_f64();
            let (Some(plain), Some((traced, trace))) = (plain, traced) else {
                return;
            };
            if plain != traced {
                calls.mismatch("serve_replay: tracing changed the fleet report");
                return;
            }
            ratios.push(traced_s / plain_s);
            events = trace.len();
        }
        metrics.insert("telemetry.trace_overhead".into(), median(&ratios));
        metrics.insert("telemetry.trace_events".into(), events as f64);
    }
}
