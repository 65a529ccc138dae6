//! The fine-grained component call graph (paper §5.1).
//!
//! Every RPC the runtime executes records an edge sample here. The placement
//! optimizer (`weaver-placement`) consumes [`CallGraphSnapshot`]s to find
//! chatty component pairs worth co-locating, and the manager aggregates
//! snapshots from all proclets to get the deployment-wide picture.

use std::collections::HashMap;

use parking_lot::RwLock;

use weaver_macros::WeaverData;

use crate::histogram::{Histogram, HistogramSnapshot};

/// One directed edge in the component call graph.
#[derive(Debug, Clone, PartialEq, Eq, Hash, WeaverData)]
pub struct CallEdge {
    /// Calling component name ("" for external ingress).
    pub caller: String,
    /// Callee component name.
    pub callee: String,
    /// Method name on the callee.
    pub method: String,
}

/// Aggregated statistics for a call edge.
#[derive(Debug, Clone, Default, PartialEq, WeaverData)]
pub struct EdgeStats {
    /// Number of calls.
    pub calls: u64,
    /// Total request payload bytes.
    pub request_bytes: u64,
    /// Total response payload bytes.
    pub response_bytes: u64,
    /// Number of calls that returned an error.
    pub errors: u64,
    /// Latency distribution (nanoseconds).
    pub latency: HistogramSnapshot,
}

impl EdgeStats {
    /// Merges another edge's stats into this one.
    pub fn merge(&mut self, other: &EdgeStats) {
        self.calls += other.calls;
        self.request_bytes += other.request_bytes;
        self.response_bytes += other.response_bytes;
        self.errors += other.errors;
        self.latency.merge(&other.latency);
    }

    /// Total bytes moved in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.request_bytes + self.response_bytes
    }
}

/// The live accumulator behind one call edge.
///
/// A handle ([`CallGraph::handle`]) pins the cell so hot paths can record
/// repeatedly without re-hashing the string-keyed edge; every update is a
/// relaxed atomic.
pub struct EdgeCell {
    calls: std::sync::atomic::AtomicU64,
    request_bytes: std::sync::atomic::AtomicU64,
    response_bytes: std::sync::atomic::AtomicU64,
    errors: std::sync::atomic::AtomicU64,
    latency: Histogram,
}

impl EdgeCell {
    fn new() -> Self {
        EdgeCell {
            calls: std::sync::atomic::AtomicU64::new(0),
            request_bytes: std::sync::atomic::AtomicU64::new(0),
            response_bytes: std::sync::atomic::AtomicU64::new(0),
            errors: std::sync::atomic::AtomicU64::new(0),
            latency: Histogram::new(),
        }
    }

    /// Records one completed call against this edge.
    pub fn record(
        &self,
        request_bytes: usize,
        response_bytes: usize,
        latency_nanos: u64,
        is_error: bool,
    ) {
        use std::sync::atomic::Ordering::Relaxed;
        self.calls.fetch_add(1, Relaxed);
        self.request_bytes.fetch_add(request_bytes as u64, Relaxed);
        self.response_bytes
            .fetch_add(response_bytes as u64, Relaxed);
        if is_error {
            self.errors.fetch_add(1, Relaxed);
        }
        self.latency.record(latency_nanos);
    }
}

/// A concurrent recorder of call-graph edges.
///
/// Recording is on the RPC hot path: a read lock plus relaxed atomics per
/// call; the write lock is only taken the first time an edge appears.
#[derive(Default)]
pub struct CallGraph {
    edges: RwLock<HashMap<CallEdge, std::sync::Arc<EdgeCell>>>,
}

impl CallGraph {
    /// Creates an empty call graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pins the accumulator cell for an edge, creating it on first sight.
    ///
    /// Callers that record the same edge repeatedly should hold the handle
    /// (or use an [`EdgeHandleCache`]) instead of paying the string-keyed
    /// hash lookup per call.
    pub fn handle(&self, edge: &CallEdge) -> std::sync::Arc<EdgeCell> {
        let edges = self.edges.read();
        match edges.get(edge) {
            Some(cell) => std::sync::Arc::clone(cell),
            None => {
                drop(edges);
                std::sync::Arc::clone(
                    self.edges
                        .write()
                        .entry(edge.clone())
                        .or_insert_with(|| std::sync::Arc::new(EdgeCell::new())),
                )
            }
        }
    }

    /// Records one completed call.
    pub fn record(
        &self,
        edge: CallEdge,
        request_bytes: usize,
        response_bytes: usize,
        latency_nanos: u64,
        is_error: bool,
    ) {
        self.handle(&edge)
            .record(request_bytes, response_bytes, latency_nanos, is_error);
    }

    /// Takes a serializable snapshot of all edges.
    pub fn snapshot(&self) -> CallGraphSnapshot {
        use std::sync::atomic::Ordering::Relaxed;
        let edges = self.edges.read();
        let mut out: Vec<(CallEdge, EdgeStats)> = edges
            .iter()
            .map(|(edge, cell)| {
                (
                    edge.clone(),
                    EdgeStats {
                        calls: cell.calls.load(Relaxed),
                        request_bytes: cell.request_bytes.load(Relaxed),
                        response_bytes: cell.response_bytes.load(Relaxed),
                        errors: cell.errors.load(Relaxed),
                        latency: cell.latency.snapshot(),
                    },
                )
            })
            .collect();
        out.sort_by(|a, b| {
            (&a.0.caller, &a.0.callee, &a.0.method).cmp(&(&b.0.caller, &b.0.callee, &b.0.method))
        });
        CallGraphSnapshot { edges: out }
    }
}

/// Caches edge-cell handles per (caller, component id, method id), so a
/// caller that records the same edges repeatedly does so without
/// allocating three `String`s and hashing a string-keyed [`CallEdge`] on
/// every call. The runtime's routers do not use it: their recorder keeps
/// each call site's edge and latency histogram together in one table. The
/// benchmark's `metrics.callgraph_record_ns` probe still times this cache.
///
/// The hit path is one read lock, one `&str` hash and one `(u32, u32)`
/// hash; the string edge is built once per distinct triple.
#[derive(Default)]
pub struct EdgeHandleCache {
    cache: RwLock<HashMap<String, CallerEdgeCells>>,
}

/// One caller's cached edge cells, keyed by (component id, method id).
type CallerEdgeCells = HashMap<(u32, u32), std::sync::Arc<EdgeCell>>;

impl EdgeHandleCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the cell for the `caller → component.method` edge in `graph`,
    /// building the string-keyed edge only on first sight of the triple.
    ///
    /// `component_id`/`method_id` must uniquely identify the `component` and
    /// `method` strings (registry ids do).
    pub fn handle(
        &self,
        graph: &CallGraph,
        caller: &str,
        component_id: u32,
        component: &str,
        method_id: u32,
        method: &str,
    ) -> std::sync::Arc<EdgeCell> {
        {
            let cache = self.cache.read();
            if let Some(cell) = cache
                .get(caller)
                .and_then(|inner| inner.get(&(component_id, method_id)))
            {
                return std::sync::Arc::clone(cell);
            }
        }
        let cell = graph.handle(&CallEdge {
            caller: caller.to_string(),
            callee: component.to_string(),
            method: method.to_string(),
        });
        self.cache
            .write()
            .entry(caller.to_string())
            .or_default()
            .insert((component_id, method_id), std::sync::Arc::clone(&cell));
        cell
    }
}

/// A serializable call graph: the unit the manager aggregates.
#[derive(Debug, Clone, Default, PartialEq, WeaverData)]
pub struct CallGraphSnapshot {
    /// All edges with their aggregated statistics, deterministically ordered.
    pub edges: Vec<(CallEdge, EdgeStats)>,
}

impl CallGraphSnapshot {
    /// Merges another snapshot (e.g. from a different proclet) into this one.
    pub fn merge(&mut self, other: &CallGraphSnapshot) {
        for (edge, stats) in &other.edges {
            match self.edges.iter_mut().find(|(e, _)| e == edge) {
                Some((_, mine)) => mine.merge(stats),
                None => self.edges.push((edge.clone(), stats.clone())),
            }
        }
        self.edges.sort_by(|a, b| {
            (&a.0.caller, &a.0.callee, &a.0.method).cmp(&(&b.0.caller, &b.0.callee, &b.0.method))
        });
    }

    /// Total communication volume between two components (either direction),
    /// summed across methods. This is the "chattiness" signal the placement
    /// optimizer uses.
    pub fn traffic_between(&self, a: &str, b: &str) -> u64 {
        self.edges
            .iter()
            .filter(|(e, _)| (e.caller == a && e.callee == b) || (e.caller == b && e.callee == a))
            .map(|(_, s)| s.total_bytes() + s.calls * 64)
            .sum()
    }

    /// All distinct component names appearing in the graph.
    pub fn components(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .edges
            .iter()
            .flat_map(|(e, _)| [e.caller.clone(), e.callee.clone()])
            .filter(|n| !n.is_empty())
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// Calls per edge, aggregated over methods, as (caller, callee, calls).
    pub fn edge_call_counts(&self) -> Vec<(String, String, u64)> {
        let mut agg: HashMap<(String, String), u64> = HashMap::new();
        for (e, s) in &self.edges {
            *agg.entry((e.caller.clone(), e.callee.clone())).or_default() += s.calls;
        }
        let mut out: Vec<(String, String, u64)> =
            agg.into_iter().map(|((a, b), c)| (a, b, c)).collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weaver_codec::prelude::*;

    fn edge(caller: &str, callee: &str, method: &str) -> CallEdge {
        CallEdge {
            caller: caller.into(),
            callee: callee.into(),
            method: method.into(),
        }
    }

    #[test]
    fn record_and_snapshot() {
        let g = CallGraph::new();
        g.record(edge("frontend", "cart", "add_item"), 100, 20, 5_000, false);
        g.record(edge("frontend", "cart", "add_item"), 150, 30, 7_000, true);
        g.record(edge("cart", "catalog", "get"), 10, 500, 2_000, false);

        let snap = g.snapshot();
        assert_eq!(snap.edges.len(), 2);
        let (_, stats) = snap
            .edges
            .iter()
            .find(|(e, _)| e.method == "add_item")
            .unwrap();
        assert_eq!(stats.calls, 2);
        assert_eq!(stats.request_bytes, 250);
        assert_eq!(stats.response_bytes, 50);
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.latency.count, 2);
    }

    #[test]
    fn traffic_between_is_symmetric() {
        let g = CallGraph::new();
        g.record(edge("a", "b", "m"), 1000, 0, 1, false);
        g.record(edge("b", "a", "n"), 0, 500, 1, false);
        let snap = g.snapshot();
        assert_eq!(
            snap.traffic_between("a", "b"),
            snap.traffic_between("b", "a")
        );
        assert!(snap.traffic_between("a", "b") >= 1500);
        assert_eq!(snap.traffic_between("a", "zzz"), 0);
    }

    #[test]
    fn merge_combines_edges() {
        let g1 = CallGraph::new();
        g1.record(edge("a", "b", "m"), 10, 10, 100, false);
        let g2 = CallGraph::new();
        g2.record(edge("a", "b", "m"), 20, 20, 200, false);
        g2.record(edge("a", "c", "n"), 5, 5, 50, false);

        let mut snap = g1.snapshot();
        snap.merge(&g2.snapshot());
        assert_eq!(snap.edges.len(), 2);
        let (_, s) = snap.edges.iter().find(|(e, _)| e.callee == "b").unwrap();
        assert_eq!(s.calls, 2);
        assert_eq!(s.request_bytes, 30);
    }

    #[test]
    fn components_lists_unique_names() {
        let g = CallGraph::new();
        g.record(edge("", "frontend", "http"), 1, 1, 1, false);
        g.record(edge("frontend", "cart", "m"), 1, 1, 1, false);
        g.record(edge("frontend", "catalog", "m"), 1, 1, 1, false);
        let names = g.snapshot().components();
        assert_eq!(names, vec!["cart", "catalog", "frontend"]);
    }

    #[test]
    fn snapshot_is_deterministic_and_serializable() {
        let g = CallGraph::new();
        g.record(edge("z", "y", "m"), 1, 1, 1, false);
        g.record(edge("a", "b", "m"), 1, 1, 1, false);
        let s1 = g.snapshot();
        let s2 = g.snapshot();
        assert_eq!(s1, s2);
        let bytes = encode_to_vec(&s1);
        let back: CallGraphSnapshot = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, s1);
        // Deterministic order: "a" before "z".
        assert_eq!(s1.edges[0].0.caller, "a");
    }

    #[test]
    fn handle_pins_the_same_cell() {
        let g = CallGraph::new();
        let e = edge("x", "y", "z");
        let h1 = g.handle(&e);
        h1.record(5, 5, 100, false);
        let h2 = g.handle(&e);
        assert!(std::sync::Arc::ptr_eq(&h1, &h2));
        h2.record(5, 5, 100, false);
        let snap = g.snapshot();
        assert_eq!(snap.edges.len(), 1);
        assert_eq!(snap.edges[0].1.calls, 2);
    }

    #[test]
    fn handle_cache_reuses_cells_and_feeds_the_graph() {
        let g = CallGraph::new();
        let cache = EdgeHandleCache::new();
        let c1 = cache.handle(&g, "frontend", 3, "cart", 1, "add_item");
        let c2 = cache.handle(&g, "frontend", 3, "cart", 1, "add_item");
        assert!(std::sync::Arc::ptr_eq(&c1, &c2));
        c1.record(10, 10, 1_000, false);
        // A different caller to the same method is a different edge.
        let c3 = cache.handle(&g, "checkout", 3, "cart", 1, "add_item");
        assert!(!std::sync::Arc::ptr_eq(&c1, &c3));
        c3.record(10, 10, 2_000, false);
        let snap = g.snapshot();
        assert_eq!(snap.edges.len(), 2);
        assert_eq!(snap.edge_call_counts().len(), 2);
    }

    #[test]
    fn edge_call_counts_aggregates_methods() {
        let g = CallGraph::new();
        g.record(edge("a", "b", "m1"), 1, 1, 1, false);
        g.record(edge("a", "b", "m2"), 1, 1, 1, false);
        let counts = g.snapshot().edge_call_counts();
        assert_eq!(counts, vec![("a".to_string(), "b".to_string(), 2)]);
    }
}
