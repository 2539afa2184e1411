//! In-memory span recorder for the traced run.
//!
//! A span is opened around each call the benchmark makes into a layer's
//! public functions. Spans carry a name, start and end (host seconds
//! since the tracer was created), the index of the enclosing span, and
//! the operation id of the round they belong to. They stay in memory
//! and are written out once, when the run ends.
//!
//! With tracing off, `enter`/`exit` record nothing, so the untraced run
//! pays only for the phase-level clock reads every run needs.

use std::collections::BTreeMap;
use std::fmt::Write as _;
// sgx-lint: allow(nondeterminism) host wall-clock is what this benchmark measures
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Metric-style name, e.g. `pht_build` or `setup.tpch`.
    pub name: String,
    /// Host seconds since the tracer's origin.
    pub start: f64,
    /// Host seconds since the tracer's origin.
    pub end: f64,
    /// Index of the enclosing span in the tracer's span list.
    pub parent: Option<usize>,
    /// Operation id: the round the span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

/// Span recorder. Cheap to carry when disabled.
pub struct Tracer {
    on: bool,
    // sgx-lint: allow(nondeterminism) span timestamps are host time by definition
    origin: Instant,
    op: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans only when `on`.
    pub fn new(on: bool) -> Tracer {
        // sgx-lint: allow(nondeterminism) span timestamps are host time by definition
        let origin = Instant::now();
        Tracer {
            on,
            origin,
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Turn recording on or off for the spans opened from now on.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Set the operation id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Open a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close a span opened by [`Tracer::enter`].
    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end = self.origin.elapsed().as_secs_f64();
        // Spans nest strictly: the one being closed is the innermost.
        debug_assert_eq!(
            self.stack.last(),
            Some(&idx),
            "spans must close innermost first"
        );
        self.stack.pop();
        self.spans[idx].end = end;
    }

    /// Spans as JSON lines: one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start, s.end, s.op
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (children never overlap, since one
/// thread opens them one after another).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut covered = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.secs();
        }
    }
    spans
        .iter()
        .zip(&covered)
        .map(|(s, c)| (s.secs() - c).max(0.0))
        .collect()
}

/// Self seconds per span name, summed over the spans of operation `op`.
pub fn self_by_name(spans: &[Span], op: u64) -> BTreeMap<String, f64> {
    let selfs = self_times(spans);
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(selfs) {
        if s.op == op {
            *out.entry(s.name.clone()).or_insert(0.0) += t;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>, op: u64) -> Span {
        Span {
            name: name.into(),
            start,
            end,
            parent,
            op,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("round", 0.0, 10.0, None, 0),
            span("timed", 1.0, 9.0, Some(0), 0),
            span("k1", 1.0, 4.0, Some(1), 0),
            span("k2", 5.0, 8.5, Some(1), 0),
        ];
        let s = self_times(&spans);
        assert_eq!(s, vec![2.0, 1.5, 3.0, 3.5]);
        // Self times partition the root span exactly.
        assert_eq!(s.iter().sum::<f64>(), spans[0].secs());
    }

    #[test]
    fn self_by_name_sums_repeats_within_one_op() {
        let spans = vec![
            span("timed", 0.0, 4.0, None, 7),
            span("k", 0.0, 1.0, Some(0), 7),
            span("k", 2.0, 3.0, Some(0), 7),
            span("k", 0.0, 5.0, None, 8),
        ];
        let by = self_by_name(&spans, 7);
        assert_eq!(by["k"], 2.0);
        assert_eq!(by["timed"], 2.0);
        assert_eq!(self_by_name(&spans, 8)["k"], 5.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let o = t.enter("x");
        t.exit(o);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_links_parents() {
        let mut t = Tracer::new(true);
        t.set_op(3);
        let a = t.enter("a");
        let b = t.enter("b");
        t.exit(b);
        t.exit(a);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        assert!(t.spans().iter().all(|s| s.op == 3 && s.end >= s.start));
    }
}
