//! The online placement controller (paper §5.1).
//!
//! `colocate()` answers the offline question — which components *would*
//! benefit from sharing a process. This module answers the live one: given
//! the deployment's decayed [`PlacementSignal`], which components should
//! move **now**, is the modeled RTT saving worth the migration, and in what
//! order. The controller is pure and deterministic — same signal + same
//! state → same plan — and every plan serializes to a line-based decision
//! log that [`apply_decisions`] replays bit for bit, mirroring the slice
//! rebalance controller's golden-log contract.
//!
//! The runtime half lives in weaver-runtime: `TcpProcess::migrate_component`
//! executes one decision (freeze → drain → re-register → epoch bump →
//! unfreeze), and `placement_round` runs a whole plan.

use std::collections::BTreeMap;
use std::str::SplitWhitespace;

use weaver_codec::linelog::{self, Record};
use weaver_macros::WeaverData;
use weaver_metrics::PlacementSignal;

/// Where one component's calls are dispatched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, WeaverData)]
pub enum ComponentPlacement {
    /// Calls cross the wire to a (possibly routed/replicated) remote pool.
    #[default]
    Routed,
    /// Calls dispatch into a local instance in the caller's process.
    Colocated,
}

/// The versioned placement of every managed component.
///
/// Versions bump once per applied decision, on both the planning and the
/// replay path, so a replayed log lands on an identical (version included)
/// state.
#[derive(Debug, Clone, PartialEq, Eq, WeaverData)]
pub struct PlacementState {
    /// Monotonic version; bumps once per applied decision.
    pub version: u64,
    /// Placement per component name, deterministically ordered.
    pub placements: BTreeMap<String, ComponentPlacement>,
}

impl PlacementState {
    /// The deliberately-bad starting point: every component routed.
    pub fn all_routed<I, S>(components: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        PlacementState {
            version: 1,
            placements: components
                .into_iter()
                .map(|c| (c.into(), ComponentPlacement::Routed))
                .collect(),
        }
    }

    /// The placement of `component`, if managed.
    pub fn placement_of(&self, component: &str) -> Option<ComponentPlacement> {
        self.placements.get(component).copied()
    }

    /// Number of components currently colocated.
    pub fn colocated_count(&self) -> usize {
        self.placements
            .values()
            .filter(|p| **p == ComponentPlacement::Colocated)
            .count()
    }
}

/// One planned placement move.
#[derive(Debug, Clone, PartialEq, Eq, WeaverData)]
pub enum PlacementDecision {
    /// Dispatch `component` locally in the caller's process.
    Colocate {
        /// Component name.
        component: String,
    },
    /// Send `component`'s calls back over the wire.
    Route {
        /// Component name.
        component: String,
    },
}

impl PlacementDecision {
    /// The component the decision moves.
    pub fn component(&self) -> &str {
        match self {
            PlacementDecision::Colocate { component } => component,
            PlacementDecision::Route { component } => component,
        }
    }

    /// The placement the decision moves it to.
    pub fn target(&self) -> ComponentPlacement {
        match self {
            PlacementDecision::Colocate { .. } => ComponentPlacement::Colocated,
            PlacementDecision::Route { .. } => ComponentPlacement::Routed,
        }
    }
}

/// Tuning knobs for [`PlacementController::plan`].
#[derive(Debug, Clone)]
pub struct PlacementOptions {
    /// Modeled latency of a local dispatch, in nanoseconds. A remote edge's
    /// saving is its observed mean latency minus this floor.
    pub local_latency_ns: f64,
    /// Modeled one-time cost of a migration, in round trips to the
    /// component being moved. A migration is made of the hops it removes —
    /// the calls it delays while frozen, the drain, one `export_keys` and
    /// one `import_keys` per replica, the epoch bump — so it is priced at
    /// `migration_cost_hops ×` the mean latency observed on the component's
    /// inbound edges, and follows the transport: when a hop gets cheaper,
    /// the saving and the cost shrink together, and the same traffic keeps
    /// earning the same decision. A colocation must save more than this per
    /// observation round to be worth planning.
    pub migration_cost_hops: f64,
    /// Colocated components whose decayed inbound rate falls below this
    /// (calls per round) are routed back out — the demotion hysteresis that
    /// keeps a cold component from squatting in every caller's process.
    pub min_rate: f64,
    /// Upper bound on moves per plan, so one round never freezes the whole
    /// deployment at once.
    pub max_moves: usize,
}

impl Default for PlacementOptions {
    fn default() -> Self {
        PlacementOptions {
            local_latency_ns: 1_000.0,
            // 1 ms at a 25 µs loopback hop.
            migration_cost_hops: 40.0,
            min_rate: 1.0,
            max_moves: 4,
        }
    }
}

/// A plan: the ordered decisions plus the state they produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementPlan {
    /// Decisions in execution order (largest modeled saving first).
    pub decisions: Vec<PlacementDecision>,
    /// The state after applying every decision to the input state.
    pub state: PlacementState,
}

impl PlacementPlan {
    /// True when the controller found nothing worth moving.
    pub fn is_noop(&self) -> bool {
        self.decisions.is_empty()
    }
}

/// The pure planner: scores candidate moves by modeled RTT savings minus
/// migration cost against the decayed signal.
#[derive(Debug, Clone, Default)]
pub struct PlacementController {
    /// Tuning knobs.
    pub options: PlacementOptions,
}

impl PlacementController {
    /// A controller with the given options.
    pub fn new(options: PlacementOptions) -> Self {
        PlacementController { options }
    }

    /// Plans the next round of moves.
    ///
    /// For every routed component, the modeled per-round saving of
    /// colocating it is `Σ_inbound rate × max(0, mean_latency −
    /// local_latency)`; components whose saving exceeds the migration cost
    /// (`migration_cost_hops × mean_latency`) are colocated, biggest saving
    /// first (name-ordered on ties), capped at `max_moves`. Colocated components whose decayed inbound rate has
    /// fallen below `min_rate` are demoted back to routed. Deterministic:
    /// the same `(signal, state)` always yields the same plan.
    pub fn plan(&self, signal: &PlacementSignal, state: &PlacementState) -> PlacementPlan {
        let mut promotions: Vec<(f64, &str)> = Vec::new();
        let mut demotions: Vec<&str> = Vec::new();
        for (component, placement) in &state.placements {
            let (rate, mean) = signal.inbound(component);
            match placement {
                ComponentPlacement::Routed => {
                    let saving = rate * (mean - self.options.local_latency_ns).max(0.0);
                    if saving > self.options.migration_cost_hops * mean {
                        promotions.push((saving, component));
                    }
                }
                ComponentPlacement::Colocated => {
                    if rate < self.options.min_rate {
                        demotions.push(component);
                    }
                }
            }
        }
        // Biggest saving first; ties break on name so the order is total.
        promotions.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.1.cmp(b.1))
        });
        let mut decisions: Vec<PlacementDecision> = promotions
            .into_iter()
            .map(|(_, c)| PlacementDecision::Colocate {
                component: c.to_string(),
            })
            .collect();
        decisions.extend(demotions.into_iter().map(|c| PlacementDecision::Route {
            component: c.to_string(),
        }));
        decisions.truncate(self.options.max_moves);

        let state = apply_decisions(state, &decisions)
            .expect("planned decisions must apply to the state they were planned against");
        PlacementPlan { decisions, state }
    }
}

/// Replays a decision list against `base` — the replay half of the
/// golden-log contract. Strict: a decision that does not change the state
/// (unknown component, or already at the target placement) is an error,
/// because the controller never plans one.
pub fn apply_decisions(
    base: &PlacementState,
    decisions: &[PlacementDecision],
) -> Result<PlacementState, String> {
    let mut current = base.clone();
    for d in decisions {
        let target = d.target();
        let name = d.component();
        match current.placements.get_mut(name) {
            None => return Err(format!("unknown component {name:?}")),
            Some(p) if *p == target => {
                return Err(format!("{name:?} is already {target:?}"));
            }
            Some(p) => *p = target,
        }
        current.version += 1;
    }
    Ok(current)
}

/// The line-log form ([`weaver_codec::linelog`]):
///
/// ```text
/// colocate boutique.CartService
/// route boutique.EmailService
/// ```
impl Record for PlacementDecision {
    fn to_line(&self) -> String {
        match self {
            PlacementDecision::Colocate { component } => format!("colocate {component}"),
            PlacementDecision::Route { component } => format!("route {component}"),
        }
    }

    fn from_line(verb: &str, fields: &mut SplitWhitespace<'_>) -> Result<Self, String> {
        let mut component = || linelog::field(fields, "component");
        match verb {
            "colocate" => Ok(PlacementDecision::Colocate {
                component: component()?,
            }),
            "route" => Ok(PlacementDecision::Route {
                component: component()?,
            }),
            other => Err(format!("unknown verb {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weaver_metrics::EdgeSignal;

    fn signal(edges: &[(&str, &str, f64, u64)]) -> PlacementSignal {
        PlacementSignal {
            edges: edges
                .iter()
                .map(|(caller, callee, rate, latency)| EdgeSignal {
                    caller: caller.to_string(),
                    callee: callee.to_string(),
                    rate_x1000: (rate * 1000.0).round() as u64,
                    mean_latency_ns: *latency,
                })
                .collect(),
            rounds: 1,
        }
    }

    #[test]
    fn hot_remote_component_gets_colocated() {
        let state = PlacementState::all_routed(["cart", "email"]);
        // cart: 100 calls/round × ~25 µs remote mean — way past the bar.
        // email: 0.1 calls/round — not worth moving.
        let sig = signal(&[
            ("frontend", "cart", 100.0, 25_000),
            ("checkout", "email", 0.1, 25_000),
        ]);
        let plan = PlacementController::default().plan(&sig, &state);
        assert_eq!(
            plan.decisions,
            vec![PlacementDecision::Colocate {
                component: "cart".into()
            }]
        );
        assert_eq!(
            plan.state.placement_of("cart"),
            Some(ComponentPlacement::Colocated)
        );
        assert_eq!(
            plan.state.placement_of("email"),
            Some(ComponentPlacement::Routed)
        );
        assert_eq!(plan.state.version, state.version + 1);
    }

    #[test]
    fn saving_below_migration_cost_is_a_noop() {
        let state = PlacementState::all_routed(["cart"]);
        // 10 calls/round × (25 µs − 1 µs) = 240 µs < 40 hops × 25 µs = 1 ms.
        let sig = signal(&[("frontend", "cart", 10.0, 25_000)]);
        let plan = PlacementController::default().plan(&sig, &state);
        assert!(plan.is_noop());
        assert_eq!(plan.state, state);
    }

    #[test]
    fn a_cheaper_hop_does_not_strand_the_same_traffic() {
        // The boutique convergence round: 45 decayed cart calls. Against a
        // cost fixed in nanoseconds a faster transport would leave the cart
        // routed; priced in hops the decision is the traffic's,
        // 45 × (1 − 1/hop_µs) against 40.
        let state = PlacementState::all_routed(["cart"]);
        let colocate = vec![PlacementDecision::Colocate {
            component: "cart".into(),
        }];
        for hop_ns in [100_000, 25_000, 16_000, 10_000] {
            let sig = signal(&[("frontend", "cart", 45.0, hop_ns)]);
            let plan = PlacementController::default().plan(&sig, &state);
            assert_eq!(plan.decisions, colocate, "hop {hop_ns} ns");
        }
        // Too little traffic stays put however dear the hop is ...
        for hop_ns in [100_000, 25_000, 10_000] {
            let sig = signal(&[("frontend", "cart", 30.0, hop_ns)]);
            assert!(PlacementController::default().plan(&sig, &state).is_noop());
        }
        // ... and so does any traffic on a hop that is nearly local already.
        let sig = signal(&[("frontend", "cart", 45.0, 5_000)]);
        assert!(PlacementController::default().plan(&sig, &state).is_noop());
    }

    #[test]
    fn local_latency_floor_zeroes_fast_edges() {
        let state = PlacementState::all_routed(["cart"]);
        // A huge rate on an already-local-speed edge saves nothing.
        let sig = signal(&[("frontend", "cart", 1_000_000.0, 900)]);
        let plan = PlacementController::default().plan(&sig, &state);
        assert!(plan.is_noop());
    }

    #[test]
    fn cold_colocated_component_is_demoted() {
        let mut state = PlacementState::all_routed(["cart"]);
        state
            .placements
            .insert("cart".into(), ComponentPlacement::Colocated);
        let plan = PlacementController::default().plan(&PlacementSignal::default(), &state);
        assert_eq!(
            plan.decisions,
            vec![PlacementDecision::Route {
                component: "cart".into()
            }]
        );
    }

    #[test]
    fn plan_orders_by_saving_and_respects_max_moves() {
        let state = PlacementState::all_routed(["a", "b", "c"]);
        let sig = signal(&[
            ("f", "a", 100.0, 25_000),
            ("f", "b", 300.0, 25_000),
            ("f", "c", 200.0, 25_000),
        ]);
        let controller = PlacementController::new(PlacementOptions {
            max_moves: 2,
            ..Default::default()
        });
        let plan = controller.plan(&sig, &state);
        assert_eq!(
            plan.decisions
                .iter()
                .map(|d| d.component())
                .collect::<Vec<_>>(),
            vec!["b", "c"]
        );
        // The third candidate waits for the next round.
        assert_eq!(
            plan.state.placement_of("a"),
            Some(ComponentPlacement::Routed)
        );
    }

    #[test]
    fn plan_is_deterministic_and_replays_bit_for_bit() {
        let state = PlacementState::all_routed(["a", "b", "c", "d"]);
        let sig = signal(&[
            ("f", "a", 150.0, 30_000),
            ("f", "b", 150.0, 30_000),
            ("g", "c", 90.0, 40_000),
        ]);
        let controller = PlacementController::default();
        let p1 = controller.plan(&sig, &state);
        let p2 = controller.plan(&sig, &state);
        assert_eq!(p1, p2);

        // Golden-log round trip: serialize → parse → apply ≡ planned state.
        let log = linelog::serialize(&p1.decisions);
        let parsed: Vec<PlacementDecision> = linelog::parse(&log).unwrap();
        assert_eq!(parsed, p1.decisions);
        let replayed = apply_decisions(&state, &parsed).unwrap();
        assert_eq!(replayed, p1.state);
    }

    #[test]
    fn parse_rejects_garbage() {
        let parse = linelog::parse::<PlacementDecision>;
        assert!(parse("colocate").is_err());
        assert!(parse("teleport cart").is_err());
        assert!(parse("colocate cart extra").is_err());
        assert_eq!(parse("# comment\n\ncolocate cart\n").unwrap().len(), 1);
    }

    #[test]
    fn apply_is_strict() {
        let state = PlacementState::all_routed(["cart"]);
        let err = apply_decisions(
            &state,
            &[PlacementDecision::Route {
                component: "cart".into(),
            }],
        );
        assert!(err.is_err(), "routing a routed component must not apply");
        let err = apply_decisions(
            &state,
            &[PlacementDecision::Colocate {
                component: "nope".into(),
            }],
        );
        assert!(err.is_err(), "unknown component must not apply");
    }

    #[test]
    fn artifact_writes_under_target() {
        let path =
            linelog::write_artifact("placement-logs", "controller-unit-test", "colocate cart\n")
                .unwrap();
        assert!(path.ends_with("target/placement-logs/controller-unit-test.log"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(linelog::parse::<PlacementDecision>(&text).unwrap().len(), 1);
    }
}
