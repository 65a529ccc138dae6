//! Minimal distributed tracing: spans linked by trace and parent ids.
//!
//! The paper's Figure 3 lists "metrics, traces, logs" among what envelopes
//! relay to the manager. Spans here are deliberately simple — enough to
//! reconstruct the component call tree of a request and attribute latency,
//! which is also what the call-graph-driven placement needs to validate its
//! decisions.

use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use weaver_macros::WeaverData;

/// A completed span: one component method execution within a trace.
#[derive(Debug, Clone, PartialEq, WeaverData)]
pub struct Span {
    /// Trace this span belongs to (assigned at ingress).
    pub trace_id: u64,
    /// This span's id.
    pub span_id: u64,
    /// Parent span id (0 = root).
    pub parent_id: u64,
    /// Component executing the method.
    pub component: String,
    /// Method name.
    pub method: String,
    /// Start offset from trace epoch, nanoseconds.
    pub start_nanos: u64,
    /// Duration, nanoseconds.
    pub duration_nanos: u64,
    /// Whether the call returned an error.
    pub error: bool,
}

/// A sink that buffers completed spans for export.
#[derive(Default)]
pub struct TraceSink {
    epoch: Option<Instant>,
    spans: Mutex<Vec<Span>>,
}

impl TraceSink {
    /// Creates a sink whose span timestamps are relative to `now`.
    pub fn new() -> Arc<Self> {
        Arc::new(TraceSink {
            epoch: Some(Instant::now()),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Records a completed span with explicit timing.
    pub fn record(&self, mut span: Span, started: Instant, duration_nanos: u64) {
        if let Some(epoch) = self.epoch {
            span.start_nanos = started.saturating_duration_since(epoch).as_nanos() as u64;
        }
        span.duration_nanos = duration_nanos;
        self.spans.lock().push(span);
    }

    /// Drains all buffered spans (export path).
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock())
    }

    /// Number of spans currently buffered.
    pub fn len(&self) -> usize {
        self.spans.lock().len()
    }

    /// True when no spans are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Reconstructs the call tree of one trace from a flat span list.
///
/// Returns `(span, depth)` pairs in depth-first order. Orphaned spans (their
/// parent was dropped or not yet exported) appear at depth 0.
pub fn call_tree(spans: &[Span], trace_id: u64) -> Vec<(Span, usize)> {
    let mut in_trace: Vec<&Span> = spans.iter().filter(|s| s.trace_id == trace_id).collect();
    in_trace.sort_by_key(|s| s.start_nanos);

    fn visit<'a>(span: &'a Span, all: &[&'a Span], depth: usize, out: &mut Vec<(Span, usize)>) {
        out.push((span.clone(), depth));
        for child in all.iter().filter(|s| s.parent_id == span.span_id) {
            visit(child, all, depth + 1, out);
        }
    }

    let mut out = Vec::new();
    let span_ids: std::collections::HashSet<u64> = in_trace.iter().map(|s| s.span_id).collect();
    for root in in_trace
        .iter()
        .filter(|s| s.parent_id == 0 || !span_ids.contains(&s.parent_id))
    {
        visit(root, &in_trace, 0, &mut out);
    }
    out
}

/// Finds the critical path of a trace: the chain of spans with the largest
/// cumulative duration (paper §5.1: "identify the critical path").
pub fn critical_path(spans: &[Span], trace_id: u64) -> Vec<Span> {
    let in_trace: Vec<&Span> = spans.iter().filter(|s| s.trace_id == trace_id).collect();

    fn best_chain<'a>(span: &'a Span, all: &[&'a Span]) -> (u64, Vec<Span>) {
        let children: Vec<&&Span> = all.iter().filter(|s| s.parent_id == span.span_id).collect();
        let mut best: (u64, Vec<Span>) = (0, Vec::new());
        for child in children {
            let (cost, chain) = best_chain(child, all);
            if cost > best.0 {
                best = (cost, chain);
            }
        }
        let mut chain = vec![span.clone()];
        chain.extend(best.1);
        (span.duration_nanos + best.0, chain)
    }

    let span_ids: std::collections::HashSet<u64> = in_trace.iter().map(|s| s.span_id).collect();
    let mut best: (u64, Vec<Span>) = (0, Vec::new());
    for root in in_trace
        .iter()
        .filter(|s| s.parent_id == 0 || !span_ids.contains(&s.parent_id))
    {
        let (cost, chain) = best_chain(root, &in_trace);
        if cost > best.0 {
            best = (cost, chain);
        }
    }
    best.1
}

#[cfg(test)]
mod tests {
    use super::*;
    use weaver_codec::prelude::*;

    fn span(trace: u64, id: u64, parent: u64, comp: &str, dur: u64) -> Span {
        Span {
            trace_id: trace,
            span_id: id,
            parent_id: parent,
            component: comp.into(),
            method: "m".into(),
            start_nanos: id * 10,
            duration_nanos: dur,
            error: false,
        }
    }

    #[test]
    fn sink_buffers_and_drains() {
        let sink = TraceSink::new();
        assert!(sink.is_empty());
        sink.record(span(1, 1, 0, "a", 0), Instant::now(), 500);
        assert_eq!(sink.len(), 1);
        let spans = sink.drain();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].duration_nanos, 500);
        assert!(sink.is_empty());
    }

    #[test]
    fn call_tree_depths() {
        let spans = vec![
            span(7, 1, 0, "frontend", 100),
            span(7, 2, 1, "checkout", 80),
            span(7, 3, 2, "payment", 30),
            span(7, 4, 1, "ads", 10),
            span(9, 5, 0, "other-trace", 1),
        ];
        let tree = call_tree(&spans, 7);
        assert_eq!(tree.len(), 4);
        assert_eq!(tree[0].0.component, "frontend");
        assert_eq!(tree[0].1, 0);
        let depths: std::collections::HashMap<String, usize> = tree
            .iter()
            .map(|(s, d)| (s.component.clone(), *d))
            .collect();
        assert_eq!(depths["checkout"], 1);
        assert_eq!(depths["payment"], 2);
        assert_eq!(depths["ads"], 1);
    }

    #[test]
    fn orphans_surface_at_root() {
        let spans = vec![span(1, 5, 99, "orphan", 10)];
        let tree = call_tree(&spans, 1);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree[0].1, 0);
    }

    #[test]
    fn critical_path_picks_longest_chain() {
        let spans = vec![
            span(1, 1, 0, "frontend", 10),
            span(1, 2, 1, "fast", 5),
            span(1, 3, 1, "slow", 50),
            span(1, 4, 3, "slowest", 100),
        ];
        let path = critical_path(&spans, 1);
        let names: Vec<&str> = path.iter().map(|s| s.component.as_str()).collect();
        assert_eq!(names, vec!["frontend", "slow", "slowest"]);
    }

    #[test]
    fn spans_serialize() {
        let s = span(3, 4, 1, "x", 9);
        let back: Span = decode_from_slice(&encode_to_vec(&s)).unwrap();
        assert_eq!(back, s);
    }
}
