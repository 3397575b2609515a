//! Spans the benchmark records around its own calls into each layer.
//! They stay in memory while the workload runs and are written out once
//! it ends; nothing inside the program under test is instrumented.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `[start, end)` in nanoseconds since the tracer's
/// epoch, the span that caused it, and the operation it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `core.exec`.
    pub name: &'static str,
    /// Start, in ns since the tracer's epoch.
    pub start: u64,
    /// End, in ns since the tracer's epoch (0 while open).
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Timed operation the span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Records spans when on; when off, every call is a no-op so the same
/// workload code serves the untraced and the traced run.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
}

/// Handle to an open span (or to nothing, when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// No parent: a root span.
    pub const NONE: SpanId = SpanId(None);
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            op: 0,
            spans: Vec::new(),
        }
    }

    /// Start attributing spans to operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Open a span under `parent`.
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        self.spans.push(Span {
            name,
            start: self.epoch.elapsed().as_nanos() as u64,
            end: 0,
            parent: parent.0,
            op: self.op,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    /// Close a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i].end = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, parent);
        let r = f();
        self.close(id);
        r
    }

    /// Per span name, the median over operations of the milliseconds each
    /// operation spent in spans of that name.
    pub fn median_ms_per_op(&self) -> BTreeMap<&'static str, f64> {
        let mut per_op: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
        for s in &self.spans {
            *per_op.entry((s.name, s.op)).or_default() += s.dur();
        }
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((name, _), ns) in per_op {
            by_name.entry(name).or_default().push(ns as f64 / 1e6);
        }
        by_name
            .into_iter()
            .map(|(name, v)| (name, crate::stats::hd_percentile(&v, 50.0)))
            .collect()
    }

    /// Per span name, the mean self time per operation in milliseconds:
    /// where the time went once each layer's callees are taken out.
    pub fn self_ms_per_op(&self) -> BTreeMap<&'static str, f64> {
        let selfs = self_times(&self.spans);
        let mut ops: Vec<u64> = self.spans.iter().map(|s| s.op).collect();
        ops.sort_unstable();
        ops.dedup();
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(selfs) {
            *out.entry(s.name).or_default() += ns as f64 / 1e6 / ops.len() as f64;
        }
        out
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.op, s.start, s.end
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover. Overlapping children count once, and a
/// child's time outside its parent's interval does not count.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let a = a.max(reach);
                let b = b.min(s.end);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "x",
            start,
            end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, 10, None),
            span(1, 3, Some(0)),
            span(2, 5, Some(0)),
            span(8, 12, Some(0)),
            span(2, 3, Some(2)),
        ];
        // Children of 0 cover [1, 5) and [8, 10): 6 of its 10 ns.
        assert_eq!(self_times(&spans), vec![4, 2, 2, 4, 1]);
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_times(&[span(5, 9, None)]), vec![4]);
    }

    #[test]
    fn an_untraced_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let root = t.open("op", SpanId::NONE);
        assert_eq!(t.time("inner", root, || 7), 7);
        t.close(root);
        assert!(t.to_jsonl().is_empty());
    }

    #[test]
    fn per_op_medians_sum_repeated_spans_within_an_op() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            Span {
                name: "a",
                start: 0,
                end: 1_000_000,
                parent: None,
                op: 0,
            },
            Span {
                name: "a",
                start: 0,
                end: 2_000_000,
                parent: None,
                op: 0,
            },
            Span {
                name: "a",
                start: 0,
                end: 5_000_000,
                parent: None,
                op: 1,
            },
            Span {
                name: "a",
                start: 0,
                end: 4_000_000,
                parent: None,
                op: 2,
            },
        ];
        assert!((t.median_ms_per_op()["a"] - 4.0).abs() < 1e-9);
    }
}
