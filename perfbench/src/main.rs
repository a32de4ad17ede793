//! Runs one workload and prints its metrics; the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig_sweep|robust_tune|serve_replay \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run that gives the per-layer
//! metrics. The exit code is nonzero when any operation failed.

use std::collections::BTreeMap;
use std::time::Instant;

use perfbench::fig_sweep::FigSweep;
use perfbench::host::Calibrator;
use perfbench::robust_tune::RobustTune;
use perfbench::serve_replay::ServeReplay;
use perfbench::{
    host, median, Calls, Workload, DEFAULT_SEED, END_TO_END, LAYER_SPANS, PER_LAYER, THREADS,
};

const USAGE: &str = "usage: perfbench --workload fig_sweep|robust_tune|serve_replay \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Fewest timed passes per run, whatever `--seconds` says.
const MIN_PASSES: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad)?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Runs one pass under a `pass` span and checks its output: the first
/// output against the invariants and pins, every later one against the
/// first.
fn checked_pass<W: Workload>(
    w: &W,
    calls: &mut Calls,
    traced: bool,
    seed: u64,
    reference: &mut Option<W::Output>,
) {
    let failed_before = calls.failed;
    let out = calls.group("pass", |calls| {
        if traced {
            w.traced_pass(calls)
        } else {
            w.pass(calls)
        }
    });
    match (out, reference.as_ref()) {
        (None, _) if calls.failed == failed_before => calls.mismatch("pass produced no output"),
        (None, _) => {}
        (Some(out), None) => {
            w.check(seed, &out, calls);
            *reference = Some(out);
        }
        (Some(out), Some(first)) if out != *first => {
            calls.mismatch(&format!("pass output differs from the first pass: {out:?}"))
        }
        (Some(_), Some(_)) => {}
    }
}

/// Repeats `pass` until `seconds` have passed and at least
/// `MIN_PASSES` ran, timing the calibration kernel before each pass.
/// Returns the pass times and calibration times.
fn timed_loop(
    seconds: f64,
    calls: &mut Calls,
    mut pass: impl FnMut(&mut Calls),
) -> (Vec<f64>, Vec<f64>) {
    let mut calibrator = Calibrator::new();
    let start = Instant::now();
    let (mut times, mut calib) = (Vec::new(), Vec::new());
    while times.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        calib.push(calibrator.run());
        let t = Instant::now();
        pass(calls);
        times.push(t.elapsed().as_secs_f64());
        if calls.failed > 0 {
            break;
        }
    }
    (times, calib)
}

/// `--trace 0`: set up `SETUPS` times (each with one warm-up pass), then
/// time untraced passes.
fn measure<W: Workload>(args: &Args, calls: &mut Calls) -> BTreeMap<String, f64> {
    let mut metrics = BTreeMap::new();
    let mut reference = None;
    let mut setups = Vec::new();
    let mut workload = None;
    for _ in 0..SETUPS {
        drop(workload.take());
        let start = Instant::now();
        let Some(w) = W::setup(args.seed, calls) else {
            return metrics;
        };
        checked_pass(&w, calls, false, args.seed, &mut reference);
        setups.push(start.elapsed().as_secs_f64());
        workload = Some(w);
    }
    let w = workload.expect("SETUPS > 0");
    if calls.failed > 0 {
        return metrics;
    }
    // Every pass repeats the warm-up's work, so the peak is reached by
    // now; reading it before the calibration kernel first runs keeps the
    // kernel's own table out of it.
    metrics.insert("peak_rss_mb".into(), host::peak_rss_mb());
    let (times, calib) = timed_loop(args.seconds, calls, |calls| {
        checked_pass(&w, calls, false, args.seed, &mut reference)
    });
    let wall = median(&times);
    metrics.insert("setup_s".into(), median(&setups));
    metrics.insert("wall_rel".into(), wall / median(&calib));
    metrics.insert("host.calib_s".into(), median(&calib));
    println!("wall_s {wall}");
    println!("passes_s {}", fmt_list(&times));
    println!("calib_s {}", fmt_list(&calib));
    println!("setups_s {}", fmt_list(&setups));
    metrics
}

/// Per-pass metrics computed from a traced pass's self times and
/// counters.
fn derive(pass: &mut BTreeMap<String, f64>) {
    let get = |k: &str| pass.get(k).copied().unwrap_or(0.0);
    let layers: f64 = LAYER_SPANS.iter().map(|s| get(&format!("{s}_s"))).sum();
    let mut derived = vec![("bench.coverage", layers / get("bench.pass_s"))];
    if get("sim.nodes") > 0.0 {
        derived.push(("sim.ns_per_node", get("sim.run_s") * 1e9 / get("sim.nodes")));
    }
    if get("fleet.offered") > 0.0 {
        let replay_s = get("fleet.nominal_s") + get("fleet.chaos_s");
        derived.push(("fleet.requests_per_s", get("fleet.offered") / replay_s));
        derived.push((
            "fleet.completed_ratio",
            get("fleet.completed") / get("fleet.offered"),
        ));
    }
    for (k, v) in derived {
        pass.insert(k.to_string(), v);
    }
}

/// `--trace 1`: one traced set-up, then alternate untraced and traced
/// passes; per-layer numbers are medians over the traced passes.
fn trace<W: Workload>(args: &Args, calls: &mut Calls) -> BTreeMap<String, f64> {
    let mut metrics = BTreeMap::new();
    calls.set_tracing(true);
    let Some(w) = W::setup(args.seed, calls) else {
        return metrics;
    };
    metrics.extend(calls.self_times_since(0));
    calls.take_counts();
    calls.set_tracing(false);
    let mut reference = None;
    checked_pass(&w, calls, false, args.seed, &mut reference);
    if calls.failed > 0 {
        return metrics;
    }
    let mut untraced = Vec::new();
    let mut per_pass: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let (_, calib) = timed_loop(args.seconds, calls, |calls| {
        let t = Instant::now();
        checked_pass(&w, calls, false, args.seed, &mut reference);
        untraced.push(t.elapsed().as_secs_f64());
        calls.set_tracing(true);
        let mark = calls.mark();
        checked_pass(&w, calls, true, args.seed, &mut reference);
        calls.set_tracing(false);
        let mut pass = calls.self_times_since(mark);
        pass.extend(
            calls
                .take_counts()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v)),
        );
        pass.insert("bench.pass_s".into(), calls.total_secs_since(mark, "pass"));
        derive(&mut pass);
        for (k, v) in pass {
            per_pass.entry(k).or_default().push(v);
        }
    });
    for (k, v) in per_pass {
        metrics.insert(k, median(&v));
    }
    metrics.insert("bench.wall_s".into(), median(&untraced));
    metrics.insert(
        "bench.trace_overhead".into(),
        metrics["bench.pass_s"] / metrics["bench.wall_s"],
    );
    metrics.insert("host.calib_s".into(), median(&calib));
    calls.set_tracing(true);
    w.traced_extras(calls, &mut metrics);
    calls.set_tracing(false);
    let path = format!(".bench_out/spans-{}-seed{}.jsonl", args.workload, args.seed);
    let written = std::fs::create_dir_all(".bench_out")
        .and_then(|()| std::fs::write(&path, calls.spans_jsonl()));
    match written {
        Ok(()) => println!("spans written to {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
    metrics
}

/// A sample as a compact list, for the diagnostic lines before the
/// result.
fn fmt_list(v: &[f64]) -> String {
    let items: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
    format!("[{}]", items.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) if !a.workload.is_empty() => a,
        Ok(_) => {
            eprintln!("--workload is required\n{USAGE}");
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    meshslice::par::set_threads(THREADS);
    let steal_before = host::steal_secs();
    let mut calls = Calls::new(false);
    let run = match (args.workload.as_str(), args.trace) {
        ("fig_sweep", false) => measure::<FigSweep>,
        ("fig_sweep", true) => trace::<FigSweep>,
        ("robust_tune", false) => measure::<RobustTune>,
        ("robust_tune", true) => trace::<RobustTune>,
        ("serve_replay", false) => measure::<ServeReplay>,
        ("serve_replay", true) => trace::<ServeReplay>,
        (other, _) => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut metrics = run(&args, &mut calls);
    metrics.insert("host.steal_s".into(), host::steal_secs() - steal_before);
    metrics.insert("host.nproc".into(), host::nproc() as f64);
    metrics.insert("host.threads".into(), THREADS as f64);
    let get = |k: &str| metrics.get(k).copied().unwrap_or(0.0);
    println!(
        "host: calib_s {:.6} steal_s {:.2} nproc {} threads {} seed {}",
        get("host.calib_s"),
        get("host.steal_s"),
        get("host.nproc"),
        get("host.threads"),
        args.seed
    );
    let listed: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let correct = calls.failed == 0 && calls.attempted > 0;
    let fields: Vec<String> = listed
        .iter()
        .map(|(name, unit)| {
            let v = get(name);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        calls.attempted,
        calls.failed,
        fields.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
