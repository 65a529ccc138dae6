//! The aggregated placement signal (paper §5.1).
//!
//! The live placement controller needs one number per call-graph edge:
//! how much latency is this edge paying *right now* for being remote.
//! [`PlacementSignalBuilder`] turns a stream of cumulative
//! [`CallGraphSnapshot`]s into that number — per-edge call rate times
//! per-edge mean latency, decayed over a sliding window so a burst five
//! minutes ago does not pin a component in place forever.
//!
//! The builder is deterministic: decay advances per *observation*, not
//! per wall-clock second, so feeding the same snapshot sequence always
//! produces the same [`PlacementSignal`] — which is what lets the
//! controller's decision logs replay bit for bit.

use std::collections::BTreeMap;

use weaver_macros::WeaverData;

use crate::callgraph::CallGraphSnapshot;

/// One (caller → callee) edge's decayed traffic profile, methods
/// aggregated (placement is a per-component decision).
///
/// Rates are fixed-point (`×1000`) so the signal stays wire-encodable
/// with the integer codec, like the reactor ratio gauges.
#[derive(Debug, Clone, PartialEq, Eq, WeaverData)]
pub struct EdgeSignal {
    /// Calling component ("" for external ingress).
    pub caller: String,
    /// Callee component.
    pub callee: String,
    /// Decayed calls per observation round, ×1000.
    pub rate_x1000: u64,
    /// Decayed mean call latency in nanoseconds.
    pub mean_latency_ns: u64,
}

impl EdgeSignal {
    /// Decayed calls per observation round.
    pub fn rate(&self) -> f64 {
        self.rate_x1000 as f64 / 1000.0
    }

    /// The edge's modeled RTT spend per round: rate × mean latency.
    pub fn cost_ns(&self) -> f64 {
        self.rate() * self.mean_latency_ns as f64
    }
}

/// A point-in-time placement signal: every observed edge with its decayed
/// rate and latency, deterministically ordered by (caller, callee).
#[derive(Debug, Clone, Default, PartialEq, Eq, WeaverData)]
pub struct PlacementSignal {
    /// All decayed edges, sorted by (caller, callee).
    pub edges: Vec<EdgeSignal>,
    /// Observation rounds folded into this signal.
    pub rounds: u64,
}

impl PlacementSignal {
    /// Total decayed inbound rate and rate-weighted mean latency for calls
    /// *into* `component` (the traffic a colocation would make local).
    pub fn inbound(&self, component: &str) -> (f64, f64) {
        let mut rate = 0.0;
        let mut cost = 0.0;
        for e in self.edges.iter().filter(|e| e.callee == component) {
            rate += e.rate();
            cost += e.cost_ns();
        }
        let mean = if rate > 0.0 { cost / rate } else { 0.0 };
        (rate, mean)
    }

    /// All distinct component names appearing as a callee.
    pub fn callees(&self) -> Vec<String> {
        let mut names: Vec<String> = self.edges.iter().map(|e| e.callee.clone()).collect();
        names.sort();
        names.dedup();
        names
    }
}

#[derive(Default, Clone, Copy)]
struct EdgeState {
    /// Cumulative calls at the previous observation.
    prev_calls: u64,
    /// Cumulative latency sum at the previous observation.
    prev_latency: u64,
    /// Decayed calls per round.
    rate: f64,
    /// Decayed mean latency (nanoseconds).
    latency: f64,
}

/// Folds successive cumulative [`CallGraphSnapshot`]s into a decayed
/// [`PlacementSignal`].
///
/// Each [`PlacementSignalBuilder::observe`] computes the per-edge delta
/// since the previous observation and exponentially decays it into the
/// running state: `rate ← α·Δcalls + (1−α)·rate`. Latency only updates
/// on rounds that saw calls (an idle edge keeps its last known latency
/// while its rate decays toward zero).
pub struct PlacementSignalBuilder {
    alpha: f64,
    state: BTreeMap<(String, String), EdgeState>,
    rounds: u64,
}

impl PlacementSignalBuilder {
    /// A builder whose newest observation carries weight `alpha`
    /// (clamped to (0, 1]; 1.0 = no memory, only the last round counts).
    pub fn new(alpha: f64) -> Self {
        PlacementSignalBuilder {
            alpha: alpha.clamp(f64::EPSILON, 1.0),
            state: BTreeMap::new(),
            rounds: 0,
        }
    }

    /// Default half-ish-life builder (α = 0.5).
    pub fn halving() -> Self {
        Self::new(0.5)
    }

    /// Folds one cumulative snapshot in. Snapshots must come from the same
    /// (monotonically recording) call graph; a counter that appears to go
    /// backwards is treated as a reset and re-observed from zero.
    pub fn observe(&mut self, snapshot: &CallGraphSnapshot) {
        self.rounds += 1;
        // Aggregate the snapshot per (caller, callee): methods collapse.
        let mut totals: BTreeMap<(String, String), (u64, u64)> = BTreeMap::new();
        for (edge, stats) in &snapshot.edges {
            let t = totals
                .entry((edge.caller.clone(), edge.callee.clone()))
                .or_default();
            t.0 += stats.calls;
            t.1 += stats.latency_nanos;
        }
        // Edges absent from this snapshot decay toward zero.
        for ((caller, callee), state) in self.state.iter_mut() {
            if !totals.contains_key(&(caller.clone(), callee.clone())) {
                state.rate *= 1.0 - self.alpha;
            }
        }
        for ((caller, callee), (calls, latency)) in totals {
            let state = self.state.entry((caller, callee)).or_default();
            let (delta_calls, delta_latency) = if calls < state.prev_calls {
                // Counter reset (fresh graph): start over from this round.
                (calls, latency)
            } else {
                (calls - state.prev_calls, latency - state.prev_latency)
            };
            state.prev_calls = calls;
            state.prev_latency = latency;
            state.rate = self.alpha * delta_calls as f64 + (1.0 - self.alpha) * state.rate;
            if delta_calls > 0 {
                let round_mean = delta_latency as f64 / delta_calls as f64;
                state.latency = if state.latency == 0.0 {
                    round_mean
                } else {
                    self.alpha * round_mean + (1.0 - self.alpha) * state.latency
                };
            }
        }
    }

    /// The current decayed signal. Edges whose rate decayed below 1/1000
    /// of a call per round are dropped.
    pub fn signal(&self) -> PlacementSignal {
        let mut edges: Vec<EdgeSignal> = self
            .state
            .iter()
            .filter_map(|((caller, callee), s)| {
                let rate_x1000 = (s.rate * 1000.0).round() as u64;
                (rate_x1000 > 0).then(|| EdgeSignal {
                    caller: caller.clone(),
                    callee: callee.clone(),
                    rate_x1000,
                    mean_latency_ns: s.latency.round() as u64,
                })
            })
            .collect();
        edges.sort_by(|a, b| (&a.caller, &a.callee).cmp(&(&b.caller, &b.callee)));
        PlacementSignal {
            edges,
            rounds: self.rounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::{CallEdge, CallGraph};

    fn graph_with(calls: u64, nanos: u64) -> CallGraph {
        let g = CallGraph::new();
        for _ in 0..calls {
            g.record(
                CallEdge {
                    caller: "frontend".into(),
                    callee: "cart".into(),
                    method: "add_item".into(),
                },
                100,
                10,
                nanos,
                false,
            );
        }
        g
    }

    #[test]
    fn observe_computes_deltas_not_totals() {
        let g = graph_with(10, 1_000);
        let mut b = PlacementSignalBuilder::new(1.0);
        b.observe(&g.snapshot());
        assert_eq!(b.signal().edges[0].rate(), 10.0);
        // No new traffic: the delta (and with α=1 the rate) is zero, so
        // the edge drops out of the signal entirely.
        b.observe(&g.snapshot());
        assert!(b.signal().edges.is_empty());
    }

    #[test]
    fn decay_blends_rounds() {
        let g = graph_with(8, 2_000);
        let mut b = PlacementSignalBuilder::new(0.5);
        b.observe(&g.snapshot());
        assert_eq!(b.signal().edges[0].rate(), 4.0); // 0.5 × 8
        b.observe(&g.snapshot()); // idle round
        assert_eq!(b.signal().edges[0].rate(), 2.0);
        // Latency survives idle rounds even as the rate decays.
        assert!(b.signal().edges[0].mean_latency_ns > 0);
    }

    #[test]
    fn builder_is_deterministic() {
        let g = graph_with(100, 5_000);
        let snap = g.snapshot();
        let run = || {
            let mut b = PlacementSignalBuilder::halving();
            b.observe(&snap);
            b.observe(&snap);
            b.signal()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn inbound_aggregates_callers() {
        let g = CallGraph::new();
        for (caller, nanos) in [("frontend", 10_000u64), ("checkout", 30_000)] {
            for _ in 0..10 {
                g.record(
                    CallEdge {
                        caller: caller.into(),
                        callee: "cart".into(),
                        method: "m".into(),
                    },
                    1,
                    1,
                    nanos,
                    false,
                );
            }
        }
        let mut b = PlacementSignalBuilder::new(1.0);
        b.observe(&g.snapshot());
        let (rate, mean) = b.signal().inbound("cart");
        assert_eq!(rate, 20.0);
        let expect = 20_000.0;
        assert!(
            (mean - expect).abs() / expect < 0.05,
            "mean {mean} vs {expect}"
        );
        assert_eq!(b.signal().callees(), vec!["cart".to_string()]);
    }

    #[test]
    fn counter_reset_reobserves_from_zero() {
        let g = graph_with(50, 1_000);
        let mut b = PlacementSignalBuilder::new(1.0);
        b.observe(&g.snapshot());
        // A fresh graph (e.g. after redeploy) has smaller totals; the
        // builder must not underflow.
        let fresh = graph_with(5, 1_000);
        b.observe(&fresh.snapshot());
        assert_eq!(b.signal().edges[0].rate(), 5.0);
    }
}
