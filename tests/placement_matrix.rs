//! Live placement migration under the chaos matrix (A12).
//!
//! The tentpole claim: the placement controller can watch the running
//! deployment's call-graph signal and migrate a chatty component from
//! `routed` to `colocated` **while traffic is flowing and the wire is
//! hostile**, without dropping a call or regressing a key. The
//! [`PlacementSafety`] invariant makes that falsifiable: every call is
//! bracketed (started/concluded — a call that never concludes was dropped
//! in a freeze window), every successful per-key call reports a sequence
//! number (the cart quantity, which only grows), and ownership is observed
//! per placement (replica index while routed, a local sentinel once
//! colocated).
//!
//! Seeded via `WEAVER_CHAOS_SEED` (CI sweeps {1001, 2002, 3003}); every
//! controller round's decisions are written to `target/placement-logs/` as
//! a replayable artifact, and the concatenated log is replayed through
//! `apply_decisions` to confirm the executed state is exactly the planned
//! state.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use boutique::prelude::*;
use weaver_codec::linelog;
use weaver_metrics::PlacementSignalBuilder;
use weaver_placement::{
    apply_decisions, ComponentPlacement, PlacementController, PlacementDecision, PlacementOptions,
};
use weaver_testing::{
    eventually, run_matrix_with, seed_from_env, MatrixOptions, Placement, PlacementSafety,
};
use weaver_transport::FaultSpec;

const CART: &str = "boutique.CartService";
const WORKERS: usize = 3;
const USERS_PER_WORKER: usize = 6;
const OPS_PER_WORKER: usize = 400;
const CONTROLLER_ROUNDS: usize = 8;
/// Pause between controller rounds. Short enough that several rounds (and
/// so the colocate migration) land while the workers are still mid-loop —
/// the whole point is migrating *under* traffic.
const ROUND_PAUSE: Duration = Duration::from_millis(10);

#[test]
fn live_placement_migration_holds_safety_under_chaos() {
    let seed = seed_from_env(0x00AC_E517);
    let options = MatrixOptions {
        placements: vec![Placement::Tcp, Placement::Replicated],
        fault_spec: Some(FaultSpec {
            seed,
            sever: 0.001,
            duplicate: 0.002,
            delay: 0.02,
            ..Default::default()
        }),
        ..Default::default()
    };

    run_matrix_with(boutique::registry(), &options, |dep| {
        let label = dep.label();
        let tcp = dep.tcp().unwrap_or_else(|| panic!("[{label}] not tcp"));
        let cart_id = boutique::registry().id_of(CART).unwrap();
        let epoch_before = tcp.routing_table().epoch();
        let state_before = tcp.placement_state();

        let invariant = PlacementSafety::new();
        let finished = AtomicUsize::new(0);
        let mut rounds: Vec<(usize, weaver_runtime::PlacementRoundReport)> = Vec::new();

        // Aggressive options so a ~25ms observation round over loopback
        // traffic is already "hot": the point here is the live migration
        // machinery, not the default thresholds (those are exercised by
        // the convergence test).
        let controller = PlacementController::new(PlacementOptions {
            migration_cost_hops: 4.0,
            min_rate: 0.25,
            ..Default::default()
        });
        let mut builder = PlacementSignalBuilder::halving();

        std::thread::scope(|scope| {
            for w in 0..WORKERS {
                let invariant = &invariant;
                let finished = &finished;
                scope.spawn(move || {
                    let cart = dep.get::<dyn CartService>().unwrap();
                    let table = tcp.routing_table();
                    for op in 0..OPS_PER_WORKER {
                        // Skew: half the traffic hammers this worker's
                        // first user, keeping the cart edge hot.
                        let u = if op % 2 == 0 {
                            0
                        } else {
                            op % USERS_PER_WORKER
                        };
                        let user = format!("plc-{w}-{u}");
                        let key = weaver_core::routing_key(&user);
                        // Owner is the *placement*: the serving replica
                        // while routed, the local sentinel once migrated.
                        let owner = if tcp.is_colocated(CART) {
                            PlacementSafety::LOCAL_OWNER
                        } else {
                            table
                                .assignment_of(cart_id)
                                .and_then(|a| a.replica_for(key))
                                .unwrap_or(0)
                        };
                        let ctx = dep.root_context().with_timeout(Duration::from_secs(2));
                        invariant.call_started();
                        invariant.observe_start(key, owner);
                        let added = cart
                            .add_item(
                                &ctx,
                                user.clone(),
                                CartItem {
                                    product_id: "OLJCESPC7Z".into(),
                                    quantity: 1,
                                },
                            )
                            .is_ok();
                        // Only acknowledged writes feed the sequence
                        // check: chaos may kill a call at any point (gaps
                        // are fine), but an acked write must be visible
                        // and the quantity must have strictly grown —
                        // across the migration, not just within one
                        // placement.
                        if added {
                            if let Ok(items) = cart.get_cart(&ctx, user.clone()) {
                                let qty = items
                                    .iter()
                                    .find(|i| i.product_id == "OLJCESPC7Z")
                                    .map(|i| u64::from(i.quantity))
                                    .unwrap_or(0);
                                invariant.record_success(key, qty);
                            }
                        }
                        invariant.observe_end(key);
                        invariant.call_ended();
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                });
            }

            // The controller runs mid-traffic, from the main thread:
            // observe the decayed call-graph signal, plan, migrate.
            for round in 0..CONTROLLER_ROUNDS {
                std::thread::sleep(ROUND_PAUSE);
                builder.observe(&tcp.callgraph());
                let signal = builder.signal();
                let report = tcp
                    .placement_round(&controller, &signal)
                    .unwrap_or_else(|e| panic!("[{label}] placement round {round}: {e}"));
                rounds.push((round, report));
                if finished.load(Ordering::SeqCst) == WORKERS {
                    break;
                }
            }
        });

        // The invariant held across every migration: no regression, no
        // dual-placement execution, no dropped call.
        invariant
            .check()
            .unwrap_or_else(|e| panic!("[{label}] placement safety: {e}"));
        assert!(
            invariant.recorded() > 50,
            "[{label}] workload too thin: {} acked observations",
            invariant.recorded()
        );

        // The hot cart edge must have triggered an actual live migration
        // to colocated, and the commit must have bumped the epoch.
        let colocated_cart = rounds.iter().any(|(_, r)| {
            r.decisions.iter().any(
                |d| matches!(d, PlacementDecision::Colocate { component } if component == CART),
            )
        });
        assert!(colocated_cart, "[{label}] cart was never colocated");
        let moved: usize = rounds
            .iter()
            .map(|(_, r)| r.migrated.iter().filter(|m| m.changed).count())
            .sum();
        assert!(moved > 0, "[{label}] no live migration happened");
        let last_epoch = rounds.last().map(|(_, r)| r.epoch).unwrap_or(0);
        assert!(
            last_epoch > epoch_before,
            "[{label}] epoch never advanced ({epoch_before} → {last_epoch})"
        );

        // Every pending client call drained: nothing was dropped on the
        // floor by a freeze, and admit tokens were all released.
        eventually(Duration::from_secs(5), || {
            let n = dep.client_in_flight();
            if n == 0 {
                Ok(())
            } else {
                Err(format!("{n} calls still in flight"))
            }
        })
        .unwrap_or_else(|e| panic!("[{label}] wire did not drain: {e}"));

        // The executed placement is exactly the planned placement: replay
        // the concatenated decision log from the initial state and compare
        // bit for bit (version included — one bump per decision).
        let all_decisions: Vec<PlacementDecision> = rounds
            .iter()
            .flat_map(|(_, r)| r.decisions.iter().cloned())
            .collect();
        let replayed = apply_decisions(&state_before, &all_decisions)
            .unwrap_or_else(|e| panic!("[{label}] replay: {e}"));
        let live = tcp.placement_state();
        assert_eq!(replayed.version, live.version, "[{label}] version drift");
        assert_eq!(
            replayed.placements, live.placements,
            "[{label}] replayed placement differs from executed placement"
        );
        assert_eq!(
            live.placement_of(CART),
            Some(ComponentPlacement::Colocated),
            "[{label}] cart should end colocated"
        );

        // Replayable per-round decision log, one artifact per cell+seed.
        let mut log = String::new();
        for (round, report) in &rounds {
            log.push_str(&format!(
                "# round {round} epoch {} migrated {}\n",
                report.epoch,
                report.migrated.len()
            ));
            log.push_str(&linelog::serialize(&report.decisions));
        }
        let artifact = linelog::write_artifact(
            "placement-logs",
            &format!("placement-matrix-{label}-{seed:08x}"),
            &log,
        );
        assert!(
            artifact.is_some(),
            "[{label}] decision artifact not written"
        );
    });
}
