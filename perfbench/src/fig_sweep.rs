//! `fig_sweep`: the inner calls of the paper's Figure 13 (mesh shapes)
//! and Figure 14 (slice counts) loops for the GPT-3 FC block on the
//! 256-chip cluster, without faults.
//!
//! Each point prices the block with the cost model, then schedules,
//! lowers and simulates its twelve FC GeMMs. GeMM scheduling, lowering
//! and the event loop do almost all the work. The outputs do not depend
//! on the seed; the seed only shuffles the order the points are visited.

use meshslice::autotuner::{choose_stationary, pass_problems, Autotuner};
use meshslice::llm::{LlmConfig, TrainingSetup};
use meshslice::{MeshShape, SimConfig, SimReport};
use meshslice_gemm::{DistributedGemm, GemmProblem, MeshSlice};
use meshslice_mesh::Torus2d;
use meshslice_sim::{Duration, Engine};

use crate::{pins, Calls, SplitMix64, Workload};

/// The paper's cluster size for Figures 13 and 14.
pub const CHIPS: usize = 256;

/// One point of either figure.
#[derive(Clone, Copy, Debug)]
pub enum Point {
    /// Figure 13: the tuned slice counts on this mesh shape.
    MeshShape(MeshShape),
    /// Figure 14: one requested slice count on a fixed mesh.
    SliceCount(MeshShape, usize),
}

impl Point {
    /// Stable label, the key of the pins.
    pub fn label(&self) -> String {
        match self {
            Point::MeshShape(m) => format!("fig13 {}x{}", m.rows(), m.cols()),
            Point::SliceCount(m, s) => format!("fig14 {}x{} S={s}", m.rows(), m.cols()),
        }
    }
}

/// The fixed work list: one Figure 13 mesh and three Figure 14 slice
/// counts, sized so one pass takes a few seconds on a 2-CPU host (the
/// full figures take 17 s and 27 s there).
pub fn points() -> Vec<Point> {
    let mut points = vec![Point::MeshShape(MeshShape::new(8, 32))];
    points.extend([1, 2, 4].map(|s| Point::SliceCount(MeshShape::new(32, 8), s)));
    points
}

/// What one point produces: the cost-model and simulated utilizations
/// (as `experiments::{mesh_shape_sweep, slice_count_sweep}` report them)
/// and the simulated makespan of the block, as f64 bit patterns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PointOut {
    /// [`Point::label`].
    pub label: String,
    /// Cost-model utilization.
    pub estimated_bits: u64,
    /// Simulated utilization.
    pub simulated_bits: u64,
    /// Simulated makespan of the twelve serially merged GeMMs, seconds.
    pub makespan_bits: u64,
}

/// The workload's inputs.
pub struct FigSweep {
    cfg: SimConfig,
    model: LlmConfig,
    setup: TrainingSetup,
    tuner: Autotuner,
    points: Vec<Point>,
}

impl FigSweep {
    /// Inputs for `points`, visited in the order given.
    pub fn new(points: Vec<Point>) -> FigSweep {
        let cfg = SimConfig::tpu_v4();
        FigSweep {
            tuner: Autotuner::new(cfg.clone()),
            cfg,
            model: LlmConfig::gpt3(),
            setup: TrainingSetup::weak_scaling(CHIPS),
            points,
        }
    }

    /// The ideal (all compute at peak) block time, as the experiments
    /// compute it.
    fn ideal(&self) -> Duration {
        let flops: u64 = self
            .model
            .fc_gemms(self.setup)
            .iter()
            .map(|g| g.shape.flops())
            .sum();
        Duration::from_secs(flops as f64 / (self.cfg.peak_flops * CHIPS as f64))
    }

    /// Block size of a pass: the tuner's, unless the slice count is not
    /// legal for the problem.
    fn block(&self, mesh: MeshShape, problem: GemmProblem, s: usize) -> usize {
        if self.tuner.legal_slice_counts(mesh, problem).contains(&s) {
            self.tuner.block()
        } else {
            1
        }
    }

    /// Prices the point with the cost model and lists its twelve
    /// (problem, slice count, block) GeMMs.
    #[allow(clippy::type_complexity)]
    fn estimate(
        &self,
        point: Point,
        calls: &mut Calls,
    ) -> Option<(Duration, Vec<(GemmProblem, usize, usize)>)> {
        let mut specs = Vec::with_capacity(12);
        match point {
            Point::MeshShape(mesh) => {
                let (est, layers) = calls.call("costmodel.estimate", || {
                    self.tuner.estimate_on_mesh(&self.model, self.setup, mesh)
                })??;
                calls.count("costmodel.calls", 1);
                for pass in layers.iter().flat_map(|l| l.passes) {
                    let block = self.block(mesh, pass.problem, pass.slice_count);
                    specs.push((pass.problem, pass.slice_count, block));
                }
                Some((est, specs))
            }
            Point::SliceCount(mesh, s) => {
                let tokens = self.setup.tokens();
                let mut est = Duration::ZERO;
                for layer in self.model.fc_layers() {
                    let stationary = choose_stationary(tokens, layer.input_dim, layer.output_dim);
                    for problem in
                        pass_problems(stationary, tokens, layer.input_dim, layer.output_dim)
                    {
                        let legal = self.tuner.legal_slice_counts(mesh, problem);
                        let actual = legal.iter().copied().filter(|&x| x <= s).max().unwrap_or(1);
                        est += calls.call("costmodel.estimate", || {
                            self.tuner.cost_model().meshslice_time(
                                mesh,
                                problem,
                                actual,
                                self.cfg.elem_bytes,
                            )
                        })?;
                        calls.count("costmodel.calls", 1);
                        specs.push((problem, actual, self.block(mesh, problem, actual)));
                    }
                }
                Some((est, specs))
            }
        }
    }

    fn run_point(&self, point: Point, calls: &mut Calls) -> Option<PointOut> {
        let (est, specs) = self.estimate(point, calls)?;
        let mesh_shape = match point {
            Point::MeshShape(m) | Point::SliceCount(m, _) => m,
        };
        let mesh = Torus2d::from_shape(mesh_shape);
        let engine = Engine::new(mesh.clone(), self.cfg.clone());
        let mut reports = Vec::with_capacity(specs.len());
        for (problem, s, block) in specs {
            let program = calls.try_call("gemm.schedule", || {
                MeshSlice::new(s, block).schedule(&mesh, problem, self.cfg.elem_bytes)
            })?;
            calls.count("gemm.programs", 1);
            calls.count("gemm.ops", program.len());
            let lowered = calls.call("sim.lower", || engine.lower_program(&program))?;
            calls.count("sim.nodes", lowered.num_nodes());
            reports.push(calls.call("sim.run", || engine.run_lowered(&lowered))?);
            calls.count("sim.runs", 1);
        }
        let merged = SimReport::merge_serial(&reports);
        Some(PointOut {
            label: point.label(),
            estimated_bits: (self.ideal().as_secs() / est.as_secs()).to_bits(),
            simulated_bits: merged.flop_utilization().to_bits(),
            makespan_bits: merged.makespan().as_secs().to_bits(),
        })
    }
}

impl Workload for FigSweep {
    type Output = Vec<PointOut>;

    fn setup(seed: u64, _calls: &mut Calls) -> Option<FigSweep> {
        // Fisher–Yates with the benchmark's own generator: the seed
        // changes the visiting order, never the work.
        let mut points = points();
        let mut rng = SplitMix64::new(seed);
        for i in (1..points.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            points.swap(i, j);
        }
        Some(FigSweep::new(points))
    }

    fn pass(&self, calls: &mut Calls) -> Option<Vec<PointOut>> {
        let mut out = Vec::with_capacity(self.points.len());
        for &point in &self.points {
            out.push(calls.group("point", |calls| self.run_point(point, calls))?);
        }
        out.sort_by(|a, b| a.label.cmp(&b.label));
        Some(out)
    }

    fn check(&self, _seed: u64, out: &Vec<PointOut>, calls: &mut Calls) {
        for p in out {
            match pins::FIG_SWEEP.iter().find(|pin| pin.0 == p.label) {
                Some(&(_, est, sim, makespan)) => {
                    if (p.estimated_bits, p.simulated_bits, p.makespan_bits) != (est, sim, makespan)
                    {
                        calls.mismatch(&format!("{}: {p:?} differs from its pin", p.label));
                    }
                }
                None => calls.mismatch(&format!("{}: no pin", p.label)),
            }
        }
        if out.len() != pins::FIG_SWEEP.len() {
            calls.mismatch("fig_sweep: point count differs from the pins");
        }
    }
}
