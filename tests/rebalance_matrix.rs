//! Live hot-slice rebalancing under the chaos matrix (Slicer v2, A8).
//!
//! The tentpole claim: the controller can split hot slices and migrate
//! their state to new owners **while traffic is flowing and the wire is
//! hostile**, without dropping or reordering a single per-key call. The
//! [`SliceMonotonicity`] invariant makes that falsifiable: every
//! successful per-key call reports a sequence number (here: the cart
//! quantity, which only grows), and the checker rejects any regression —
//! a regression means a migrated key's state did not follow its slice —
//! and any concurrent dual-replica observation — which means the
//! freeze/drain handoff leaked a call to the old owner.
//!
//! Seeded via `WEAVER_CHAOS_SEED` (CI sweeps {1001, 2002, 3003}); every
//! controller round's decisions are written to `target/rebalance-logs/` as
//! a replayable artifact.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use boutique::prelude::*;
use weaver_codec::linelog;
use weaver_placement::ComponentPlacement;
use weaver_routing::ControllerOptions;
use weaver_testing::{
    eventually, run_matrix_with, seed_from_env, MatrixOptions, Placement, SliceMonotonicity,
};
use weaver_transport::FaultSpec;

const CART: &str = "boutique.CartService";
const WORKERS: usize = 3;
const USERS_PER_WORKER: usize = 6;
const OPS_PER_WORKER: usize = 120;
const CONTROLLER_ROUNDS: usize = 6;

#[test]
fn live_rebalance_holds_per_key_monotonicity_under_chaos() {
    let seed = seed_from_env(0x0051_1CE2);
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
        let replicas = tcp.replica_count() as u32;
        let cart_id = boutique::registry().id_of(CART).unwrap();

        // The starting assignment: a colocation and back piles every slice
        // onto replica 0, so a replicated cell has load to move and a live
        // migration *must* happen; a single-replica cell keeps its uniform
        // multi-slice map, so the controller has slices to split.
        for to in [ComponentPlacement::Colocated, ComponentPlacement::Routed] {
            tcp.migrate_component(CART, to)
                .unwrap_or_else(|e| panic!("[{label}] skew: {e}"));
        }
        let epoch_before = tcp.routing_table().epoch();

        let invariant = SliceMonotonicity::new();
        let finished = AtomicUsize::new(0);
        let mut rounds: Vec<(usize, weaver_runtime::MigrationReport)> = Vec::new();

        std::thread::scope(|scope| {
            for w in 0..WORKERS {
                let invariant = &invariant;
                let finished = &finished;
                scope.spawn(move || {
                    let cart = dep.get::<dyn CartService>().unwrap();
                    let table = tcp.routing_table();
                    for op in 0..OPS_PER_WORKER {
                        // Skew: half the traffic hammers this worker's
                        // first user, heating that user's slice.
                        let u = if op % 2 == 0 {
                            0
                        } else {
                            op % USERS_PER_WORKER
                        };
                        let user = format!("reb-{w}-{u}");
                        let key = weaver_core::routing_key(&user);
                        let owner = table
                            .assignment_of(cart_id)
                            .and_then(|a| a.replica_for(key))
                            .unwrap_or(0);
                        let ctx = dep.root_context().with_timeout(Duration::from_secs(2));
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
                        // Only acknowledged writes feed the invariant:
                        // chaos may kill a call at any point (gaps are
                        // fine), but an acked write must be visible and
                        // the quantity must have strictly grown.
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
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                });
            }

            // The controller runs mid-traffic, from the main thread.
            for round in 0..CONTROLLER_ROUNDS {
                std::thread::sleep(Duration::from_millis(25));
                let report = tcp
                    .rebalance_routed(CART, &ControllerOptions::default())
                    .unwrap_or_else(|e| panic!("[{label}] rebalance round {round}: {e}"));
                rounds.push((round, report));
                if finished.load(Ordering::SeqCst) == WORKERS {
                    break;
                }
            }
        });

        // The invariant held across every migration.
        invariant
            .check()
            .unwrap_or_else(|e| panic!("[{label}] slice monotonicity: {e}"));
        assert!(
            invariant.recorded() > 50,
            "[{label}] workload too thin: {} acked observations",
            invariant.recorded()
        );

        // Replicated cells started with everything on replica 0: the
        // controller must have actually moved slices, live, with state.
        if replicas > 1 {
            let moved: usize = rounds.iter().map(|(_, r)| r.migrated.len()).sum();
            assert!(moved > 0, "[{label}] no live migration happened");
            let last_epoch = rounds.last().map(|(_, r)| r.epoch).unwrap_or(0);
            assert!(
                last_epoch > epoch_before,
                "[{label}] epoch never advanced ({epoch_before} → {last_epoch})"
            );
        }

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
            "rebalance-logs",
            &format!("rebalance-matrix-{label}-{seed:08x}"),
            &log,
        );
        assert!(
            artifact.is_some(),
            "[{label}] decision artifact not written"
        );
    });
}
