//! Invariant checkers for chaos workloads.
//!
//! Chaos without invariants only finds crashes. These checkers give the
//! boutique workload and the rollout machinery something falsifiable to
//! assert *while* faults are being injected:
//!
//! * [`CartConsistency`] — a model-based checker for cart-shaped state:
//!   every item a deployment reports back must correspond to an add the
//!   test saw acknowledged for that same user. Crashes are allowed to
//!   *lose* state (a crashed cart component forgets), but may never invent
//!   items, inflate quantities, or leak one user's cart into another's.
//! * [`ExactlyOnceCheckout`] — a ledger-based checker for saga-shaped
//!   workflows: fed the audit trail of charges, refunds, orders, and cart
//!   movements (keyed by saga), it asserts money conservation — no key
//!   charged twice, every charge resolved by exactly one order or one
//!   refund, no cart emptied without its order or a restore.
//! * [`RolloutHarness`] — drives keyed requests through a blue/green
//!   [`Rollout`] across two live deployments and enforces the paper's §4.4
//!   invariant: a request pinned to a version by the traffic split is never
//!   answered by the other version, and a deliberately mis-stamped request
//!   is *always* rejected with `VersionMismatch` — even while chaos is
//!   crashing components of the new version.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use weaver_core::context::CallContext;
use weaver_core::error::WeaverError;
use weaver_core::registry::ComponentRegistry;
use weaver_rollout::{Rollout, RolloutConfig, RolloutPhase};
use weaver_runtime::{SingleMode, SingleProcess};

/// Model-based cart checker: observed state must be a subset of
/// acknowledged writes.
#[derive(Default)]
pub struct CartConsistency {
    /// user → item → total acknowledged quantity.
    acked: Mutex<HashMap<u64, HashMap<String, u64>>>,
}

impl CartConsistency {
    /// An empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an add the deployment acknowledged (call only on `Ok`).
    pub fn record_add(&self, user: u64, item: &str, quantity: u64) {
        *self
            .acked
            .lock()
            .entry(user)
            .or_default()
            .entry(item.to_string())
            .or_insert(0) += quantity;
    }

    /// Checks an observed cart against the model. Missing items are fine
    /// (chaos crashes lose state); phantom items, inflated quantities, and
    /// cross-user leakage are violations.
    pub fn check(&self, user: u64, observed: &[(String, u64)]) -> Result<(), String> {
        let acked = self.acked.lock();
        let mine = acked.get(&user);
        for (item, quantity) in observed {
            let limit = mine.and_then(|m| m.get(item)).copied().unwrap_or(0);
            if limit == 0 {
                // Distinguish leakage from pure phantoms in the message —
                // both are the same class of bug, but the former points at
                // routing, the latter at state corruption.
                let leaked = acked
                    .iter()
                    .any(|(u, items)| *u != user && items.contains_key(item));
                return Err(if leaked {
                    format!("user {user} observed item {item:?} acked only for another user")
                } else {
                    format!("user {user} observed phantom item {item:?} (never acked)")
                });
            }
            if *quantity > limit {
                return Err(format!(
                    "user {user} observed {quantity} of {item:?} but only {limit} were acked"
                ));
            }
        }
        Ok(())
    }

    /// Total acknowledged adds across all users (sanity for workloads).
    pub fn acked_adds(&self) -> u64 {
        self.acked.lock().values().flat_map(HashMap::values).sum()
    }
}

/// Exactly-once checker for saga-shaped checkouts.
///
/// The test feeds it the audit trail — every charge, refund, order, cart
/// emptying, and cart restore the side-effecting services recorded — all
/// keyed by the saga (order) that caused them. [`ExactlyOnceCheckout::check`]
/// then asserts the money-conservation invariant that must hold under any
/// amount of chaos, across any placement:
///
/// 1. no saga charged the card more than once (retries and replays
///    collapsed onto one gateway transaction);
/// 2. every charge is resolved by **exactly one** of an order or a refund
///    — never both (double resolution), never neither (stranded money);
/// 3. every order was paid for;
/// 4. every cart emptying is covered by exactly one of its order or a
///    restore — a user never loses cart contents without getting an order.
#[derive(Default)]
pub struct ExactlyOnceCheckout {
    state: Mutex<CheckoutTrail>,
}

#[derive(Default)]
struct CheckoutTrail {
    /// saga → number of `Charged` audit events.
    charges: HashMap<String, u64>,
    /// saga → number of `Refunded` audit events.
    refunds: HashMap<String, u64>,
    /// saga → number of `OrderPlaced` audit events.
    orders: HashMap<String, u64>,
    /// saga → number of `CartEmptied` audit events.
    cart_empties: HashMap<String, u64>,
    /// saga → number of `CartRestored` audit events.
    cart_restores: HashMap<String, u64>,
}

impl ExactlyOnceCheckout {
    /// An empty trail.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a gateway charge made on behalf of `saga`.
    pub fn record_charge(&self, saga: &str) {
        *self
            .state
            .lock()
            .charges
            .entry(saga.to_string())
            .or_insert(0) += 1;
    }

    /// Records a gateway refund made on behalf of `saga`.
    pub fn record_refund(&self, saga: &str) {
        *self
            .state
            .lock()
            .refunds
            .entry(saga.to_string())
            .or_insert(0) += 1;
    }

    /// Records `saga` reaching its confirmed-order terminal state.
    pub fn record_order(&self, saga: &str) {
        *self
            .state
            .lock()
            .orders
            .entry(saga.to_string())
            .or_insert(0) += 1;
    }

    /// Records a cart emptied on behalf of `saga`.
    pub fn record_cart_emptied(&self, saga: &str) {
        *self
            .state
            .lock()
            .cart_empties
            .entry(saga.to_string())
            .or_insert(0) += 1;
    }

    /// Records the cart emptied by `saga` being restored.
    pub fn record_cart_restored(&self, saga: &str) {
        *self
            .state
            .lock()
            .cart_restores
            .entry(saga.to_string())
            .or_insert(0) += 1;
    }

    /// Charges recorded so far (sanity: the workload did something).
    pub fn charges(&self) -> u64 {
        self.state.lock().charges.values().sum()
    }

    /// Orders recorded so far.
    pub fn orders(&self) -> u64 {
        self.state.lock().orders.values().sum()
    }

    /// Refunds recorded so far.
    pub fn refunds(&self) -> u64 {
        self.state.lock().refunds.values().sum()
    }

    /// Verifies the exactly-once invariant over the whole trail.
    pub fn check(&self) -> Result<(), String> {
        let state = self.state.lock();
        for (saga, &count) in &state.charges {
            if count > 1 {
                return Err(format!("saga {saga} charged the card {count} times"));
            }
            let orders = state.orders.get(saga).copied().unwrap_or(0);
            let refunds = state.refunds.get(saga).copied().unwrap_or(0);
            match (orders, refunds) {
                (1, 0) | (0, 1) => {}
                (0, 0) => {
                    return Err(format!(
                        "saga {saga} charged but produced neither order nor refund (stranded money)"
                    ))
                }
                (o, r) => {
                    return Err(format!(
                        "saga {saga} resolved its charge {o} times as order and {r} times as refund"
                    ))
                }
            }
        }
        for (saga, &count) in &state.orders {
            if count > 1 {
                return Err(format!("saga {saga} placed {count} orders"));
            }
            if state.charges.get(saga).copied().unwrap_or(0) == 0 {
                return Err(format!(
                    "saga {saga} placed an order that was never paid for"
                ));
            }
        }
        for (saga, &count) in &state.cart_empties {
            if count > 1 {
                return Err(format!("saga {saga} emptied the cart {count} times"));
            }
            let orders = state.orders.get(saga).copied().unwrap_or(0);
            let restores = state.cart_restores.get(saga).copied().unwrap_or(0);
            match (orders, restores) {
                (1, 0) | (0, 1) => {}
                (0, 0) => {
                    return Err(format!(
                        "saga {saga} emptied the cart without an order or a restore"
                    ))
                }
                (o, r) => {
                    return Err(format!(
                        "saga {saga} covered its cart emptying {o} times as order and {r} times as restore"
                    ))
                }
            }
        }
        for saga in state.cart_restores.keys() {
            if state.cart_empties.get(saga).copied().unwrap_or(0) == 0 {
                return Err(format!(
                    "saga {saga} restored a cart that was never emptied"
                ));
            }
        }
        Ok(())
    }
}

/// The A8 checker for routed components under live rebalancing (Slicer
/// v2): per-key sequence numbers must never regress — when a slice
/// migrates, its state must arrive at the new owner before traffic does —
/// and no key may ever be observed at two replicas concurrently — the
/// freeze/drain protocol means ownership is exclusive at every instant.
///
/// Workloads feed it from the outside: [`SliceMonotonicity::observe_start`]
/// / [`SliceMonotonicity::observe_end`] bracket each per-key call with the
/// replica resolved for it, and [`SliceMonotonicity::record_success`]
/// records the per-key sequence number a successful call returned. Failed
/// calls record nothing (chaos may kill a call at any point; gaps are
/// fine, regressions never are).
#[derive(Default)]
pub struct SliceMonotonicity {
    state: Mutex<SliceMonotonicityState>,
}

#[derive(Default)]
struct SliceMonotonicityState {
    /// key → highest sequence number a successful call returned.
    last_seq: HashMap<u64, u64>,
    /// key → (replica serving it, calls in flight there).
    active: HashMap<u64, (u32, usize)>,
    /// Successful observations recorded (workload sanity).
    recorded: u64,
    violations: Vec<String>,
}

impl SliceMonotonicity {
    /// An empty checker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks a call for `key` in flight at replica `owner`. A different
    /// replica already serving the key is a dual-ownership violation.
    pub fn observe_start(&self, key: u64, owner: u32) {
        let state = &mut *self.state.lock();
        match state.active.get_mut(&key) {
            Some((existing, depth)) => {
                if *existing != owner {
                    state.violations.push(format!(
                        "key {key:#x} observed at replica {owner} while replica {existing} is still serving it"
                    ));
                }
                *depth += 1;
            }
            None => {
                state.active.insert(key, (owner, 1));
            }
        }
    }

    /// Ends one in-flight observation for `key`.
    pub fn observe_end(&self, key: u64) {
        let mut state = self.state.lock();
        if let Some((_, depth)) = state.active.get_mut(&key) {
            *depth -= 1;
            if *depth == 0 {
                state.active.remove(&key);
            }
        }
    }

    /// Records the per-key sequence number a *successful* call returned.
    /// Sequence numbers must strictly increase per key: an equal or lower
    /// value means the key's state went backwards (lost in a handoff, or
    /// served by a replica that never had it).
    pub fn record_success(&self, key: u64, seq: u64) {
        let state = &mut *self.state.lock();
        state.recorded += 1;
        match state.last_seq.get_mut(&key) {
            Some(last) => {
                if seq <= *last {
                    state.violations.push(format!(
                        "key {key:#x} sequence regressed: observed {seq} after {last}"
                    ));
                } else {
                    *last = seq;
                }
            }
            None => {
                state.last_seq.insert(key, seq);
            }
        }
    }

    /// Successful observations recorded so far (sanity: the workload did
    /// something before the invariant is declared to have held).
    pub fn recorded(&self) -> u64 {
        self.state.lock().recorded
    }

    /// All violations seen so far, oldest first (empty = invariant held).
    pub fn check(&self) -> Result<(), String> {
        let state = self.state.lock();
        if state.violations.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "{} violation(s): {}",
                state.violations.len(),
                state.violations.join("; ")
            ))
        }
    }
}

/// Safety checker for **live placement migration** (the placement
/// controller's freeze/drain/colocate loop): while a component migrates
/// between `routed` and `colocated`, no call may be dropped, no call may
/// execute at two placements at once, and per-key sequences must never
/// regress.
///
/// Mechanically it is [`SliceMonotonicity`] plus call accounting: the
/// workload brackets every call with [`PlacementSafety::call_started`] /
/// [`PlacementSafety::call_ended`] (ended on success *and* on error — an
/// error ack is still an answer; a call that never concludes is a drop),
/// and feeds per-key observations through the same
/// `observe_start`/`record_success`/`observe_end` protocol. Encode the
/// *placement* in the owner id (e.g. replica index while routed, a
/// sentinel like `u32::MAX` once colocated) and the dual-ownership check
/// becomes "never executed at two placements concurrently".
#[derive(Default)]
pub struct PlacementSafety {
    inner: SliceMonotonicity,
    started: std::sync::atomic::AtomicU64,
    ended: std::sync::atomic::AtomicU64,
}

impl PlacementSafety {
    /// An empty checker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Owner id for observations made while a component is colocated
    /// (locally dispatched). Distinct from every replica index, so a call
    /// observed locally while a replica still serves the key trips the
    /// dual-placement check.
    pub const LOCAL_OWNER: u32 = u32::MAX;

    /// Marks one workload call issued.
    pub fn call_started(&self) {
        self.started
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Marks one workload call concluded — success or error, either is an
    /// answer. Calls that start and never end are dropped calls.
    pub fn call_ended(&self) {
        self.ended
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Marks a call for `key` in flight at `owner` (replica index, or
    /// [`PlacementSafety::LOCAL_OWNER`] when dispatched locally).
    pub fn observe_start(&self, key: u64, owner: u32) {
        self.inner.observe_start(key, owner);
    }

    /// Ends one in-flight observation for `key`.
    pub fn observe_end(&self, key: u64) {
        self.inner.observe_end(key);
    }

    /// Records the per-key sequence a *successful* call returned.
    pub fn record_success(&self, key: u64, seq: u64) {
        self.inner.record_success(key, seq);
    }

    /// Successful observations recorded so far.
    pub fn recorded(&self) -> u64 {
        self.inner.recorded()
    }

    /// The invariant: no sequence regression, no dual-placement execution,
    /// and every started call concluded.
    pub fn check(&self) -> Result<(), String> {
        self.inner.check()?;
        let started = self.started.load(std::sync::atomic::Ordering::Relaxed);
        let ended = self.ended.load(std::sync::atomic::Ordering::Relaxed);
        if started != ended {
            return Err(format!(
                "{} call(s) dropped during migration: {started} started, {ended} concluded",
                started - ended.min(started)
            ));
        }
        Ok(())
    }
}

/// What one [`RolloutHarness::run`] observed.
#[derive(Debug)]
pub struct RolloutReport {
    /// Terminal (or last) rollout phase.
    pub phase: RolloutPhase,
    /// Health ticks executed.
    pub ticks: usize,
    /// Total keyed requests issued.
    pub requests: usize,
    /// Correctly-routed requests that were answered with `VersionMismatch`
    /// anyway — §4.4 violations. Must be zero.
    pub mismatches_on_correct_route: usize,
    /// Deliberately mis-stamped probes that were **not** rejected with
    /// `VersionMismatch` — backstop leaks. Must be zero.
    pub probe_leaks: usize,
    /// Non-version errors observed on the new version (fed to the health
    /// gate; chaos makes these expected).
    pub new_version_errors: usize,
}

impl RolloutReport {
    /// Asserts the §4.4 invariant held throughout.
    ///
    /// # Panics
    ///
    /// Panics if any correctly-routed request saw `VersionMismatch` or any
    /// cross-version probe was not rejected.
    pub fn assert_invariant(&self) {
        assert_eq!(
            self.mismatches_on_correct_route, 0,
            "§4.4 violated: {} correctly-routed requests saw VersionMismatch",
            self.mismatches_on_correct_route
        );
        assert_eq!(
            self.probe_leaks, 0,
            "§4.4 backstop leaked: {} mis-stamped probes were not rejected",
            self.probe_leaks
        );
    }
}

/// Two live deployments (old and new version) under one blue/green
/// [`Rollout`], with an ingress that pins requests by key.
pub struct RolloutHarness {
    old: Arc<SingleProcess>,
    new: Arc<SingleProcess>,
    rollout: Rollout,
}

/// SplitMix64: spreads sequential request indices over the key space so
/// [`weaver_rollout::TrafficSplit::version_for`]'s uniform mapping sees
/// uniform keys.
fn spread(i: u64) -> u64 {
    let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl RolloutHarness {
    /// Version the old deployment runs.
    pub const OLD_VERSION: u64 = 1;
    /// Version the new deployment runs.
    pub const NEW_VERSION: u64 = 2;

    /// Deploys `registry` twice (marshaled, versions 1 and 2) and starts a
    /// rollout between them.
    pub fn new(registry: Arc<ComponentRegistry>, config: RolloutConfig) -> Self {
        let old = SingleProcess::deploy(
            Arc::clone(&registry),
            SingleMode::Marshaled,
            Self::OLD_VERSION,
        );
        let new = SingleProcess::deploy(registry, SingleMode::Marshaled, Self::NEW_VERSION);
        RolloutHarness {
            old,
            new,
            rollout: Rollout::new(Self::OLD_VERSION, Self::NEW_VERSION, config),
        }
    }

    /// The new-version deployment — the chaos target during a rollout
    /// (new code is what health gates are watching).
    pub fn new_deployment(&self) -> Arc<SingleProcess> {
        Arc::clone(&self.new)
    }

    /// Drives the rollout to a terminal phase (or `max_ticks`), issuing
    /// `requests_per_tick` keyed requests per health tick through
    /// `workload` and verifying the §4.4 invariant on every one.
    ///
    /// `workload` receives the deployment the split pinned the key to, a
    /// context stamped with that deployment's version, and the key. For
    /// every keyed request the harness additionally sends one mis-stamped
    /// probe (same call, other version's stamp) and requires the backstop
    /// to reject it.
    pub fn run<W>(
        mut self,
        max_ticks: usize,
        requests_per_tick: usize,
        mut workload: W,
    ) -> RolloutReport
    where
        W: FnMut(&Arc<SingleProcess>, &CallContext, u64) -> Result<(), WeaverError>,
    {
        let mut report = RolloutReport {
            phase: self.rollout.phase(),
            ticks: 0,
            requests: 0,
            mismatches_on_correct_route: 0,
            probe_leaks: 0,
            new_version_errors: 0,
        };
        let mut sequence = 0u64;
        for _ in 0..max_ticks {
            let split = self.rollout.split();
            let mut new_requests = 0usize;
            let mut new_errors = 0usize;
            for _ in 0..requests_per_tick {
                let key = spread(sequence);
                sequence += 1;
                let version = split.version_for(key);
                let (dep, other_version) = if version == Self::NEW_VERSION {
                    (&self.new, Self::OLD_VERSION)
                } else {
                    (&self.old, Self::NEW_VERSION)
                };

                // Correct route: stamped with the pinned deployment's
                // version; VersionMismatch here is a §4.4 violation.
                let ctx = dep.root_context();
                match workload(dep, &ctx, key) {
                    Ok(()) => {}
                    Err(WeaverError::VersionMismatch { .. }) => {
                        report.mismatches_on_correct_route += 1;
                    }
                    Err(_) => {
                        if version == Self::NEW_VERSION {
                            new_errors += 1;
                        }
                    }
                }
                report.requests += 1;
                if version == Self::NEW_VERSION {
                    new_requests += 1;
                }

                // Cross-version probe: same call, mis-stamped. The §4.4
                // backstop must reject it no matter what chaos is doing.
                let mut probe_ctx = dep.root_context();
                probe_ctx.version = other_version;
                match workload(dep, &probe_ctx, key) {
                    Err(WeaverError::VersionMismatch { .. }) => {}
                    _ => report.probe_leaks += 1,
                }
            }
            let error_rate = if new_requests == 0 {
                0.0
            } else {
                new_errors as f64 / new_requests as f64
            };
            report.new_version_errors += new_errors;
            report.phase = self.rollout.tick(error_rate);
            report.ticks += 1;
            if report.phase != RolloutPhase::Shifting {
                break;
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cart_model_accepts_subsets_rejects_phantoms() {
        let model = CartConsistency::new();
        model.record_add(1, "shirt", 2);
        model.record_add(1, "mug", 1);
        model.record_add(2, "hat", 1);

        // Exact and lossy observations are both fine.
        model
            .check(1, &[("shirt".into(), 2), ("mug".into(), 1)])
            .unwrap();
        model.check(1, &[("shirt".into(), 1)]).unwrap();
        model.check(1, &[]).unwrap();

        // Phantom item.
        let err = model.check(1, &[("car".into(), 1)]).unwrap_err();
        assert!(err.contains("phantom"), "{err}");
        // Inflated quantity.
        let err = model.check(1, &[("shirt".into(), 3)]).unwrap_err();
        assert!(err.contains("only 2"), "{err}");
        // Cross-user leakage.
        let err = model.check(1, &[("hat".into(), 1)]).unwrap_err();
        assert!(err.contains("another user"), "{err}");

        assert_eq!(model.acked_adds(), 4);
    }

    #[test]
    fn slice_monotonicity_accepts_increasing_sequences_with_gaps() {
        let inv = SliceMonotonicity::new();
        inv.observe_start(7, 0);
        inv.record_success(7, 1);
        inv.observe_end(7);
        // Migration to replica 2 between calls: fine, ownership is serial.
        inv.observe_start(7, 2);
        inv.record_success(7, 5); // gaps are fine (chaos ate some acks)
        inv.observe_end(7);
        assert_eq!(inv.recorded(), 2);
        inv.check().unwrap();
    }

    #[test]
    fn slice_monotonicity_rejects_sequence_regression() {
        let inv = SliceMonotonicity::new();
        inv.record_success(7, 5);
        inv.record_success(7, 5); // equal = regression: state did not advance
        let err = inv.check().unwrap_err();
        assert!(err.contains("regressed"), "{err}");
    }

    #[test]
    fn slice_monotonicity_rejects_dual_ownership() {
        let inv = SliceMonotonicity::new();
        inv.observe_start(9, 0);
        // A second call for the same key lands at another replica while
        // the first is still in flight: the freeze/drain protocol is broken.
        inv.observe_start(9, 1);
        inv.observe_end(9);
        inv.observe_end(9);
        let err = inv.check().unwrap_err();
        assert!(err.contains("replica 1"), "{err}");
        // Nested calls at the *same* replica are fine.
        let ok = SliceMonotonicity::new();
        ok.observe_start(9, 0);
        ok.observe_start(9, 0);
        ok.observe_end(9);
        ok.observe_end(9);
        ok.check().unwrap();
    }

    #[test]
    fn placement_safety_holds_across_a_clean_migration() {
        let inv = PlacementSafety::new();
        // Routed phase: key served by replica 1.
        inv.call_started();
        inv.observe_start(3, 1);
        inv.record_success(3, 1);
        inv.observe_end(3);
        inv.call_ended();
        // Migration happens (serially). Colocated phase: local owner.
        inv.call_started();
        inv.observe_start(3, PlacementSafety::LOCAL_OWNER);
        inv.record_success(3, 2);
        inv.observe_end(3);
        inv.call_ended();
        // A chaos-failed call concludes without recording a sequence.
        inv.call_started();
        inv.call_ended();
        assert_eq!(inv.recorded(), 2);
        inv.check().unwrap();
    }

    #[test]
    fn placement_safety_rejects_dual_placement_execution() {
        let inv = PlacementSafety::new();
        inv.call_started();
        inv.observe_start(3, 1);
        // Local dispatch while replica 1 still serves the key: the gate
        // did not drain before the switch.
        inv.observe_start(3, PlacementSafety::LOCAL_OWNER);
        inv.observe_end(3);
        inv.observe_end(3);
        inv.call_ended();
        let err = inv.check().unwrap_err();
        assert!(err.contains("still serving"), "{err}");
    }

    #[test]
    fn placement_safety_rejects_dropped_calls() {
        let inv = PlacementSafety::new();
        inv.call_started();
        inv.call_started();
        inv.call_ended();
        // One call never concluded: dropped in the migration window.
        let err = inv.check().unwrap_err();
        assert!(err.contains("dropped"), "{err}");
    }

    #[test]
    fn exactly_once_accepts_orders_and_refunds_rejects_everything_else() {
        let model = ExactlyOnceCheckout::new();
        // Completed saga: charge + order + cart emptied.
        model.record_charge("s1");
        model.record_order("s1");
        model.record_cart_emptied("s1");
        // Compensated saga: charge + refund, cart emptied then restored.
        model.record_charge("s2");
        model.record_refund("s2");
        model.record_cart_emptied("s2");
        model.record_cart_restored("s2");
        // Failed-before-side-effects saga: nothing recorded at all.
        model.check().unwrap();
        assert_eq!(model.charges(), 2);
        assert_eq!(model.orders(), 1);
        assert_eq!(model.refunds(), 1);
    }

    #[test]
    fn exactly_once_catches_each_violation_class() {
        // Double charge.
        let m = ExactlyOnceCheckout::new();
        m.record_charge("s");
        m.record_charge("s");
        assert!(m.check().unwrap_err().contains("2 times"));

        // Stranded money: charged, never resolved.
        let m = ExactlyOnceCheckout::new();
        m.record_charge("s");
        assert!(m.check().unwrap_err().contains("stranded"));

        // Double resolution: order AND refund.
        let m = ExactlyOnceCheckout::new();
        m.record_charge("s");
        m.record_order("s");
        m.record_refund("s");
        assert!(m.check().unwrap_err().contains("resolved"));

        // Unpaid order.
        let m = ExactlyOnceCheckout::new();
        m.record_order("s");
        assert!(m.check().unwrap_err().contains("never paid"));

        // Cart emptied with neither order nor restore.
        let m = ExactlyOnceCheckout::new();
        m.record_charge("s");
        m.record_refund("s");
        m.record_cart_emptied("s");
        assert!(m.check().unwrap_err().contains("without an order"));

        // Restore of a cart that was never emptied.
        let m = ExactlyOnceCheckout::new();
        m.record_cart_restored("s");
        assert!(m.check().unwrap_err().contains("never emptied"));
    }

    #[test]
    fn spread_covers_the_key_space() {
        // The split maps keys linearly onto [0,1); sequential indices must
        // not cluster or the 1% stage would see 0% or 100% of traffic.
        let low = (0..1000).filter(|&i| spread(i) < u64::MAX / 2).count();
        assert!((400..=600).contains(&low), "skewed spread: {low}/1000 low");
    }
}
