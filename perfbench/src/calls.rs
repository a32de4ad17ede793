//! The wrapper every public call of the program goes through: it counts
//! the call as one operation, turns a panic or an `Err` into a failed
//! operation, and, in a traced run, records a span around the call.
//!
//! Spans are taken from the benchmark's side of each call only; where a
//! layer is reachable only inside another public call, only the enclosing
//! call gets a span.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// One recorded interval: a public call, or a group of calls (a pass, a
/// sweep point) that gives the calls inside it their parent.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span name; call spans are named after the layer they time.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Operation counter, span recorder and per-pass counters.
pub struct Calls {
    /// Public calls made.
    pub attempted: u64,
    /// Calls that panicked, returned `Err`, or produced output that
    /// differs from the pin or from the reference pass.
    pub failed: u64,
    tracing: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
}

impl Calls {
    /// A recorder; spans are kept only when `tracing` is set.
    pub fn new(tracing: bool) -> Calls {
        Calls {
            attempted: 0,
            failed: 0,
            tracing,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Turns span recording on or off (untraced and traced passes
    /// alternate within one traced run).
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str) -> Option<usize> {
        if !self.tracing {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        Some(id)
    }

    fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
            self.stack.pop();
        }
    }

    /// Makes one public call. A panic counts as a failed operation and
    /// yields `None`.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> Option<T> {
        self.attempted += 1;
        let id = self.open(name);
        let out = catch_unwind(AssertUnwindSafe(f));
        self.close(id);
        if out.is_err() {
            self.failed += 1;
        }
        out.ok()
    }

    /// Makes one public call that returns a `Result`; `Err` and panics
    /// count as failed operations and yield `None`.
    pub fn try_call<T, E: Display>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Option<T> {
        match self.call(name, f)? {
            Ok(v) => Some(v),
            Err(e) => {
                eprintln!("error: {name}: {e}");
                self.failed += 1;
                None
            }
        }
    }

    /// Runs a group of calls under one parent span. The group is not an
    /// operation of its own.
    pub fn group<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Calls) -> T) -> T {
        let id = self.open(name);
        let out = f(self);
        self.close(id);
        out
    }

    /// Records an output that differs from its pin or reference.
    pub fn mismatch(&mut self, what: &str) {
        eprintln!("mismatch: {what}");
        self.failed += 1;
    }

    /// Adds to a deterministic per-pass counter (`sim.nodes`, ...);
    /// counters are kept only while tracing.
    pub fn count(&mut self, name: &'static str, n: usize) {
        if !self.tracing {
            return;
        }
        *self.counts.entry(name).or_insert(0.0) += n as f64;
    }

    /// Takes the counters accumulated since the last call.
    pub fn take_counts(&mut self) -> BTreeMap<&'static str, f64> {
        std::mem::take(&mut self.counts)
    }

    /// Index the next recorded span will get: spans from here on belong
    /// to whatever runs next.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name over the spans recorded since `mark`:
    /// each span's duration minus the part its direct children cover.
    /// The result is keyed `<name>_s`.
    pub fn self_times_since(&self, mark: usize) -> BTreeMap<String, f64> {
        let spans = &self.spans[mark..];
        let mut child_secs = vec![0.0; spans.len()];
        for s in spans {
            if let Some(p) = s.parent.filter(|&p| p >= mark) {
                child_secs[p - mark] += s.secs();
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in spans.iter().zip(child_secs) {
            *out.entry(format!("{}_s", s.name)).or_insert(0.0) += s.secs() - child;
        }
        out
    }

    /// Total duration of the spans named `name` since `mark`.
    pub fn total_secs_since(&self, mark: usize, name: &str) -> f64 {
        self.spans[mark..]
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Every recorded span, as one JSON object per line.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}\n",
                s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}
