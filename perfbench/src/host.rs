//! Host measurements: the calibration kernel, peak memory, CPU steal and
//! the CPU count. They explain a noisy run; none of them touches the
//! program under test.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

use crate::SplitMix64;

/// Entries of the calibration kernel's table: 64 MiB, far larger than
/// the host's caches, so every read goes to memory whatever the other
/// tenants of the host keep in the shared cache.
const CALIB_TABLE: usize = 1 << 23;
/// Random reads per kernel run.
const CALIB_READS: usize = 1 << 19;

/// The calibration kernel: fixed code doing random reads over a table
/// that does not fit in cache, with hash-map updates and small heap
/// allocations on the side.
///
/// Its buffers are made once and reused, so a run page-faults nothing.
/// The reads dominate its time on purpose: a variant whose table fit in
/// the shared cache swung 2.5x with the other tenants' cache use and
/// tracked the workloads worse than the workloads' own wall time.
/// The median pass time divided by its median is `wall_rel`.
pub struct Calibrator {
    table: Vec<u64>,
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
}

impl Calibrator {
    /// Builds the kernel's table and warms it up.
    pub fn new() -> Calibrator {
        let mut rng = SplitMix64::new(0x0ca1_1b7a_7e00_0001);
        let mut c = Calibrator {
            table: (0..CALIB_TABLE).map(|_| rng.next_u64()).collect(),
            map: HashMap::default(),
        };
        c.run_once();
        c
    }

    /// Runs the kernel three times and returns the fastest, in wall
    /// seconds: the host's current speed with short bursts filtered out.
    pub fn run(&mut self) -> f64 {
        (0..3)
            .map(|_| self.run_once())
            .fold(f64::INFINITY, f64::min)
    }

    fn run_once(&mut self) -> f64 {
        let start = Instant::now();
        let mut rng = SplitMix64::new(0x5eed);
        self.map.clear();
        let mut acc = 0u64;
        for i in 0..CALIB_READS {
            let v = self.table[(rng.next_u64() as usize) & (CALIB_TABLE - 1)];
            acc = acc.wrapping_add(v);
            if i % 64 == 0 {
                *self.map.entry(v & 0xfff).or_insert(0) += 1;
                acc ^= black_box(vec![v; 8])[3];
            }
        }
        black_box((acc, self.map.len()));
        start.elapsed().as_secs_f64()
    }
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cumulative steal time of all CPUs from `/proc/stat`, seconds
/// (assumes the kernel's usual 100 ticks per second).
pub fn steal_secs() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|cpu| cpu.split_whitespace().nth(8))
                .and_then(|t| t.parse::<f64>().ok())
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
