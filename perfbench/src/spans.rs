//! Spans recorded by the benchmark around its own calls into each
//! layer's public functions. Nothing inside the program is
//! instrumented: a span covers exactly one call the harness makes.
//!
//! Spans are kept in memory and written once, at the end of a traced
//! pass, as Chrome-trace JSON (the Trace Event Format that `pm` already
//! emits). With tracing off, [`Tracer::span`] runs the wrapped call and
//! reads no clock, so the untraced and traced passes share one code
//! path and their difference is the tracing overhead.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::clock::{self, Instant};

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.operation`, e.g. `sim.launch`.
    pub name: &'static str,
    /// Start, in microseconds since the tracer's epoch.
    pub start_us: f64,
    /// End, in microseconds since the tracer's epoch.
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request (job, launch or benchmark) the span belongs to.
    pub request: u64,
    /// Harness thread that recorded the span.
    pub thread: u32,
}

impl Span {
    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in microseconds.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Per-thread span recorder. Fork one per harness thread and join them
/// back when the threads end.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A tracer that records spans and counts iff `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: clock::now(),
            thread: 0,
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// A recorder for another harness thread, sharing this one's epoch.
    pub fn fork(&self, thread: u32) -> Tracer {
        Tracer {
            on: self.on,
            epoch: self.epoch,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Appends a forked recorder's spans and counts.
    pub fn join(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (k, v) in other.counts {
            *self.counts.entry(k).or_insert(0.0) += v;
        }
    }

    /// Runs `f` inside a span named `name` for `request`. Spans opened
    /// inside `f` become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start = clock::now();
        self.spans.push(Span {
            name,
            start_us: clock::us_between(self.epoch, start),
            end_us: 0.0,
            parent,
            request,
            thread: self.thread,
        });
        self.open.push(idx);
        let out = f(self);
        let end = clock::now();
        self.open.pop();
        self.spans[idx].end_us = clock::us_between(self.epoch, end);
        out
    }

    /// Adds `v` to the count `name` (work done at a span boundary).
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.on {
            *self.counts.entry(name).or_insert(0.0) += v;
        }
    }

    /// Duration (µs) of the most recent span named `name` (0 if none).
    pub fn last_dur_us(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0.0, Span::dur_us)
    }

    /// Time (µs) the direct children of the most recent span named
    /// `name` cover (0 if none).
    pub fn last_covered_us(&self, name: &str) -> f64 {
        match self.spans.iter().rposition(|s| s.name == name) {
            Some(i) => self.spans[i].dur_us() - self_times(&self.spans)[i],
            None => 0.0,
        }
    }

    /// Every recorded span, in start order per thread.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A recorded count (0 if never counted).
    pub fn get_count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Σ self time (µs) of the spans named `name`.
    pub fn self_us(&self, name: &str) -> f64 {
        let own = self_times(&self.spans);
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .sum()
    }

    /// Number of spans named `name`.
    pub fn n_spans(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its direct children cover (overlapping children are
/// merged, so time is never subtracted twice).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start_us;
            for (a, b) in kids {
                let a = a.max(reach);
                let b = b.min(s.end_us);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.dur_us() - covered).max(0.0)
        })
        .collect()
}

/// Σ self time (µs) per layer.
pub fn layer_self_us(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer()).or_insert(0.0) += t;
    }
    out
}

/// The spans as Chrome-trace JSON (complete `"X"` events, one track per
/// harness thread; request and parent in `args`).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut events =
        vec![r#"{"name":"process_name","ph":"M","pid":1,"args":{"name":"perfbench"}}"#.to_string()];
    for (i, s) in spans.iter().enumerate() {
        let mut e = String::new();
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            e,
            r#"{{"name":"{}","cat":"{}","ph":"X","pid":1,"tid":{},"ts":{:.3},"dur":{:.3},"args":{{"span":{i},"parent":{parent},"request":{}}}}}"#,
            s.name,
            s.layer(),
            s.thread,
            s.start_us,
            s.dur_us(),
            s.request,
        );
        events.push(e);
    }
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_us: start,
            end_us: end,
            parent,
            request: 0,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100] ─┬─ a [10,30] ── a1 [12,20]
        //               └─ b [40,90]
        let spans = vec![
            span("bench.pass", 0.0, 100.0, None),
            span("sim.launch", 10.0, 30.0, Some(0)),
            span("power.evaluate", 12.0, 20.0, Some(1)),
            span("measure.measure", 40.0, 90.0, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30.0, 12.0, 8.0, 50.0]);
        let by_layer = layer_self_us(&spans);
        assert_eq!(by_layer["bench"], 30.0);
        assert_eq!(by_layer["sim"], 12.0);
        assert_eq!(by_layer["power"], 8.0);
        assert_eq!(by_layer["measure"], 50.0);
        // Self times partition the root's wall time.
        assert_eq!(self_times(&spans).iter().sum::<f64>(), 100.0);
    }

    #[test]
    fn overlapping_children_are_not_subtracted_twice() {
        // Two children from different threads overlap in [20,30] and one
        // sticks out past the parent's end.
        let spans = vec![
            span("serve.pass", 0.0, 50.0, None),
            span("serve.submit", 10.0, 30.0, Some(0)),
            span("serve.submit", 20.0, 60.0, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 10.0);
    }

    #[test]
    fn tracer_nests_and_joins_forks() {
        let mut tr = Tracer::new(true);
        tr.span("bench.pass", 7, |tr| {
            tr.span("sim.launch", 7, |tr| tr.count("sim.warp_instr", 5.0));
        });
        let mut other = tr.fork(1);
        other.span("serve.submit", 9, |tr| tr.count("sim.warp_instr", 2.0));
        tr.join(other);
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, None);
        assert_eq!(s[2].thread, 1);
        assert_eq!(tr.get_count("sim.warp_instr"), 7.0);
        assert!(chrome_json(s).contains(r#""name":"sim.launch","cat":"sim","ph":"X""#));
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let v = tr.span("sim.launch", 0, |tr| {
            tr.count("sim.warp_instr", 1.0);
            42
        });
        assert_eq!(v, 42);
        assert!(tr.spans().is_empty());
        assert_eq!(tr.get_count("sim.warp_instr"), 0.0);
    }
}
