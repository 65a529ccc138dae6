//! Live placement convergence on the boutique (A12 tentpole validation).
//!
//! The adversarial start is the deployment default: **everything routed**
//! over loopback TCP — the paper's "microservices by default" worst case,
//! where a `get_product` that takes ~158ns colocated pays ~22.5µs of wire.
//! The controller only sees what the runtime gives it (the decayed
//! call-graph signal); it must rediscover the all-colocated optimum for
//! the hot components within a bounded number of rounds, migrating each
//! one live, and then go quiet (a no-op round = converged).
//!
//! Every round's decisions go into one golden, line-based log that
//! replays bit-for-bit: `linelog::parse` + `apply_decisions` over the
//! initial placement must land on exactly the placement the live
//! controller evolved — version included, one bump per decision. The log
//! is written to `target/placement-logs/` so a CI failure ships the
//! controller's full reasoning as an artifact.
//!
//! The p50 improvement assertion is gated on multi-core hosts: on a
//! 1-CPU runner the client and the server replicas timeshare one core and
//! loopback latency is scheduler noise, not placement signal.

use std::time::{Duration, Instant};

use boutique::prelude::*;
use weaver_codec::linelog;
use weaver_metrics::PlacementSignalBuilder;
use weaver_placement::{
    apply_decisions, ComponentPlacement, PlacementController, PlacementDecision,
};
use weaver_runtime::{TcpOptions, TcpProcess};

const CATALOG: &str = "boutique.ProductCatalog";
const CART: &str = "boutique.CartService";
const MAX_ROUNDS: usize = 8;
const OPS_PER_ROUND: usize = 300;

/// One round of browsing traffic: hammer the catalog (the chatty edge the
/// controller should colocate first) and keep the cart warm. Returns the
/// per-call `get_product` latencies.
fn drive_traffic(dep: &std::sync::Arc<TcpProcess>) -> Vec<u64> {
    let catalog = dep.get::<dyn ProductCatalog>().unwrap();
    let cart = dep.get::<dyn CartService>().unwrap();
    let mut latencies = Vec::with_capacity(OPS_PER_ROUND);
    for op in 0..OPS_PER_ROUND {
        let ctx = dep.root_context().with_timeout(Duration::from_secs(2));
        let started = Instant::now();
        catalog
            .get_product(&ctx, "OLJCESPC7Z".into())
            .expect("catalog stays up");
        latencies.push(started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
        if op % 10 == 0 {
            let user = format!("conv-{}", op % 7);
            cart.add_item(
                &ctx,
                user.clone(),
                CartItem {
                    product_id: "OLJCESPC7Z".into(),
                    quantity: 1,
                },
            )
            .expect("cart stays up");
            cart.get_cart(&ctx, user).expect("cart stays up");
        }
    }
    latencies
}

fn p50(latencies: &mut [u64]) -> u64 {
    latencies.sort_unstable();
    latencies[latencies.len() / 2]
}

#[test]
fn all_routed_boutique_converges_to_colocated_optimum() {
    let dep = TcpProcess::deploy(
        boutique::registry(),
        TcpOptions {
            replicas: 2,
            ..Default::default()
        },
        1,
    )
    .unwrap();

    // The deliberately bad initial placement is the default: all routed.
    let initial = dep.placement_state();
    assert_eq!(initial.colocated_count(), 0, "seed placement must be bad");
    assert!(!dep.is_colocated(CATALOG));

    let controller = PlacementController::default();
    let mut builder = PlacementSignalBuilder::halving();
    let mut log = String::new();
    let mut converged_at = None;
    let mut before_p50 = 0u64;

    for round in 0..MAX_ROUNDS {
        let mut latencies = drive_traffic(&dep);
        if round == 0 {
            before_p50 = p50(&mut latencies);
        }
        builder.observe(&dep.callgraph());
        let signal = builder.signal();
        let report = dep
            .placement_round(&controller, &signal)
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        log.push_str(&format!(
            "# round {round} epoch {} migrated {}\n",
            report.epoch,
            report.migrated.len()
        ));
        log.push_str(&linelog::serialize(&report.decisions));
        if round > 0 && report.is_noop() {
            converged_at = Some(round);
            break;
        }
    }

    let artifact =
        linelog::write_artifact("placement-logs", "placement-convergence-boutique", &log);
    assert!(artifact.is_some(), "golden log not written:\n{log}");

    // Converged in bounded rounds — the controller went quiet.
    let rounds =
        converged_at.unwrap_or_else(|| panic!("no convergence within {MAX_ROUNDS} rounds\n{log}"));
    assert!(rounds < MAX_ROUNDS, "took {rounds} rounds");

    // The hot components were rediscovered as colocation candidates: the
    // catalog (hammered directly) and the cart (routed, stateful — its
    // migration consolidated per-user state onto the local instance).
    let live = dep.placement_state();
    assert_eq!(
        live.placement_of(CATALOG),
        Some(ComponentPlacement::Colocated),
        "catalog should end colocated: {live:?}"
    );
    assert_eq!(
        live.placement_of(CART),
        Some(ComponentPlacement::Colocated),
        "cart should end colocated: {live:?}"
    );
    // Cold components were left alone: no gratuitous migrations.
    assert!(
        live.colocated_count() < live.placements.len(),
        "controller colocated everything, including cold components: {live:?}"
    );

    // State survived the cart's live migration: a user's cart keeps its
    // accumulated quantity after the consolidation.
    let cart = dep.get::<dyn CartService>().unwrap();
    let ctx = dep.root_context();
    let items = cart.get_cart(&ctx, "conv-0".into()).unwrap();
    assert!(
        items
            .iter()
            .any(|i| i.product_id == "OLJCESPC7Z" && i.quantity > 1),
        "cart state lost in migration: {items:?}"
    );

    // The golden log replays bit-for-bit: comments and all rounds parse as
    // one decision stream, and applying it to the initial placement
    // reproduces the live placement exactly — version included.
    let parsed: Vec<PlacementDecision> = linelog::parse(&log).expect("golden log parses");
    assert!(!parsed.is_empty(), "controller never decided anything");
    let replayed = apply_decisions(&initial, &parsed).expect("golden log replays");
    assert_eq!(replayed, live, "replay diverged from the live run");

    // The migrated call path got faster. Only asserted on multi-core
    // hosts: with one CPU, client and replicas timeshare a core and the
    // before/after numbers measure the scheduler.
    let mut after = drive_traffic(&dep);
    let after_p50 = p50(&mut after);
    let multi_core = std::thread::available_parallelism()
        .map(|n| n.get() > 1)
        .unwrap_or(false);
    if multi_core {
        assert!(
            after_p50 * 3 <= before_p50,
            "expected ≥3× p50 improvement on the migrated path: \
             before {before_p50}ns, after {after_p50}ns"
        );
    } else {
        eprintln!("1-CPU host: skipping latency gate (before {before_p50}ns, after {after_p50}ns)");
    }
}
