//! Two controllers, one component: slice rebalancing and placement rounds
//! racing on the cart under traffic.
//!
//! A rebalance plans from the assignment it read; a placement move rewrites
//! that assignment (everything onto replica 0) and consolidates the state
//! behind it. Interleaved, the stale rebalance plan would commit a spread
//! assignment over consolidated state and carts would vanish from the
//! replicas they now route to. Migrations therefore run one at a time per
//! deployment, plan included. This test makes that falsifiable: a slicer
//! thread and a placement thread (alternating a hot and a cold signal, so
//! the cart keeps flipping between colocated and routed) hammer the cart
//! while workers write to it, and per-key quantities must never regress,
//! no call may be dropped, epochs must only grow, and the gate must end
//! empty — without hanging.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use boutique::prelude::*;
use weaver_metrics::{EdgeSignal, PlacementSignal};
use weaver_placement::PlacementController;
use weaver_routing::ControllerOptions;
use weaver_runtime::router::Scope;
use weaver_testing::{
    eventually, run_matrix_with, MatrixOptions, Placement, PlacementSafety, SliceMonotonicity,
};

const CART: &str = "boutique.CartService";
const WORKERS: usize = 3;
const USERS_PER_WORKER: usize = 6;
/// Placement flips (colocate, route back, colocate, …) the run lasts for.
const PLACEMENT_MOVES: usize = 12;

#[test]
fn racing_slicer_and_placement_rounds_keep_cart_state() {
    let options = MatrixOptions {
        placements: vec![Placement::Replicated],
        ..Default::default()
    };
    run_matrix_with(boutique::registry(), &options, |dep| {
        let tcp = dep.tcp().expect("replicated cell is tcp");
        let table = tcp.routing_table();
        let cart_id = boutique::registry().id_of(CART).unwrap();

        let slices = SliceMonotonicity::new();
        let safety = PlacementSafety::new();
        let done = AtomicBool::new(false);

        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..WORKERS)
                .map(|w| {
                    let (slices, safety, done) = (&slices, &safety, &done);
                    scope.spawn(move || {
                        let cart = dep.get::<dyn CartService>().unwrap();
                        let mut last_epoch = 0;
                        for op in 0.. {
                            if done.load(Ordering::SeqCst) {
                                break;
                            }
                            let user = format!("race-{w}-{}", op % USERS_PER_WORKER);
                            let key = weaver_core::routing_key(&user);
                            let replica = table
                                .assignment_of(cart_id)
                                .and_then(|a| a.replica_for(key))
                                .unwrap_or(0);
                            let placement = if tcp.is_colocated(CART) {
                                PlacementSafety::LOCAL_OWNER
                            } else {
                                replica
                            };
                            let ctx = dep.root_context().with_timeout(Duration::from_secs(5));
                            safety.call_started();
                            safety.observe_start(key, placement);
                            slices.observe_start(key, replica);
                            let item = CartItem {
                                product_id: "OLJCESPC7Z".into(),
                                quantity: 1,
                            };
                            if cart.add_item(&ctx, user.clone(), item).is_ok() {
                                if let Ok(items) = cart.get_cart(&ctx, user) {
                                    let qty = items.iter().map(|i| u64::from(i.quantity)).sum();
                                    slices.record_success(key, qty);
                                    safety.record_success(key, qty);
                                }
                            }
                            slices.observe_end(key);
                            safety.observe_end(key);
                            safety.call_ended();
                            let epoch = table.epoch();
                            assert!(epoch >= last_epoch, "epoch went {last_epoch} → {epoch}");
                            last_epoch = epoch;
                        }
                    })
                })
                .collect();

            let slicer = scope.spawn(|| {
                let (mut rounds, mut moved) = (0, 0);
                while !done.load(Ordering::SeqCst) {
                    let report = tcp
                        .rebalance_routed(CART, &ControllerOptions::default())
                        .unwrap_or_else(|e| panic!("rebalance round {rounds}: {e}"));
                    rounds += 1;
                    moved += report.migrated.len();
                    std::thread::sleep(Duration::from_millis(2));
                }
                (rounds, moved)
            });
            let placer = scope.spawn(|| {
                let controller = PlacementController::default();
                // Hot enough that the modeled saving dwarfs the migration
                // cost; the empty signal demotes the cart again.
                let hot = PlacementSignal {
                    edges: vec![EdgeSignal {
                        caller: "client".into(),
                        callee: CART.into(),
                        rate_x1000: 100_000,
                        mean_latency_ns: 50_000,
                    }],
                    rounds: 3,
                };
                let mut moves = 0;
                while moves < PLACEMENT_MOVES {
                    let signal = if moves % 2 == 0 {
                        hot.clone()
                    } else {
                        PlacementSignal::default()
                    };
                    let report = tcp
                        .placement_round(&controller, &signal)
                        .unwrap_or_else(|e| panic!("placement move {moves}: {e}"));
                    moves += report.migrated.iter().filter(|m| m.changed).count();
                    // Long enough routed that the slicer sees load to respread.
                    std::thread::sleep(Duration::from_millis(7));
                }
            });

            placer.join().expect("placer");
            done.store(true, Ordering::SeqCst);
            for worker in workers {
                worker.join().expect("worker");
            }
            // The race actually happened: between colocations the slicer
            // respread the cart off replica 0.
            let (rounds, moved) = slicer.join().expect("slicer");
            assert!(moved > 0, "no range moved in {rounds} rebalance rounds");
        });

        slices
            .check()
            .unwrap_or_else(|e| panic!("slice monotonicity: {e}"));
        safety
            .check()
            .unwrap_or_else(|e| panic!("placement safety: {e}"));
        assert!(safety.recorded() > 200, "only {} acks", safety.recorded());

        // Nothing is left registered at the gate or on the wire.
        assert!(
            table.drain(cart_id, Scope::Component, Duration::from_secs(1)),
            "gate still holds cart calls"
        );
        eventually(Duration::from_secs(5), || match dep.client_in_flight() {
            0 => Ok(()),
            n => Err(format!("{n} calls still in flight")),
        })
        .unwrap_or_else(|e| panic!("wire did not drain: {e}"));
    });
}
