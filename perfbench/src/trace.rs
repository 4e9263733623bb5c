//! The benchmark's own span recorder.
//!
//! Spans are recorded by the benchmark's code around its calls into the
//! workspace crates, kept in memory, and written out when the run ends.
//! The recorder is deliberately separate from `tango_obs`: enabling that
//! gate turns the simulator's launch memo off, so a run traced through
//! it would be a different program from the one the untraced run times.
//!
//! A span's layer is its name up to the first `.` (`sim.infer.GRU` is in
//! `sim`). Spans must be opened and closed on one thread, strictly
//! nested; [`Tracer::span`] guarantees that by taking the traced work as
//! a closure. Calls too frequent to keep one span each (cost-model
//! lookups inside an engine) are folded into per-name aggregates with
//! [`Tracer::leaf`], which still charge their time to the enclosing span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Time covered by direct children and leaves.
    child_ns: u64,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
    leaves: BTreeMap<&'static str, Totals>,
}

/// Count and times of every span (or leaf) of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the part covered by child spans.
    pub self_ns: u64,
}

impl Totals {
    /// Mean duration per span in `unit_ns` units (0 when none ran).
    pub fn mean(&self, unit_ns: f64) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / unit_ns
        }
    }
}

/// An in-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("tracer lock poisoned by a panicking span")
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = {
            let mut inner = self.lock();
            let id = inner.spans.len();
            let start_ns = self.now_ns();
            inner.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                child_ns: 0,
            });
            inner.open.push(id);
            id
        };
        let out = f();
        let mut inner = self.lock();
        let end_ns = self.now_ns();
        assert_eq!(inner.open.pop(), Some(id), "spans must close in the order they opened");
        let span = &mut inner.spans[id];
        span.end_ns = end_ns;
        let dur = end_ns - span.start_ns;
        if let Some(&parent) = inner.open.last() {
            inner.spans[parent].child_ns += dur;
        }
        out
    }

    /// Runs `f` and folds its duration into the `name` aggregate,
    /// charging it to the enclosing span.
    pub fn leaf<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed().as_nanos() as u64;
        let mut inner = self.lock();
        if let Some(&parent) = inner.open.last() {
            inner.spans[parent].child_ns += dur;
        }
        let t = inner.leaves.entry(name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur;
        out
    }

    /// Totals per span or leaf name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let inner = self.lock();
        assert!(inner.open.is_empty(), "totals read while a span is open");
        let mut out = inner.leaves.clone();
        for span in &inner.spans {
            let t = out.entry(span.name).or_default();
            let dur = span.end_ns - span.start_ns;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur - span.child_ns.min(dur);
        }
        out
    }

    /// Self time per layer (the name up to its first `.`).
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (name, t) in self.totals() {
            let layer = name.split('.').next().unwrap_or(name);
            *out.entry(layer).or_insert(0) += t.self_ns;
        }
        out
    }

    /// The recorded spans as Chrome trace-event JSON. Leaves have no
    /// timestamps of their own, so they are listed as totals under
    /// `leaves`.
    pub fn chrome_json(&self) -> String {
        let inner = self.lock();
        let mut out = String::from("{\"traceEvents\":[");
        for (i, span) in inner.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3
            );
        }
        out.push_str("],\"leaves\":{");
        for (i, (name, t)) in inner.leaves.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{{\"count\":{},\"total_ns\":{}}}", t.count, t.total_ns);
        }
        out.push_str("}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_exclude_children_and_sum_to_the_root() {
        let tr = Tracer::default();
        tr.span("bench.root", || {
            spin(200_000);
            tr.span("sim.infer", || spin(300_000));
            tr.span("harness.encode", || {
                spin(100_000);
                tr.leaf("serve.cost", || spin(100_000));
            });
        });
        let totals = tr.totals();
        let root = totals["bench.root"];
        let by_layer = tr.self_ns_by_layer();
        assert_eq!(by_layer.values().sum::<u64>(), root.total_ns);
        assert!(totals["sim.infer"].self_ns >= 300_000);
        assert!(totals["harness.encode"].total_ns >= totals["harness.encode"].self_ns + 100_000);
        assert_eq!(totals["serve.cost"].count, 1);
        assert!(tr.chrome_json().contains("\"name\":\"sim.infer\""));
    }
}
