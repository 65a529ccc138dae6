//! The weavertest v2 capstone: chaos, the deployment matrix, and the
//! invariant checkers working together (paper §5.3 "automated fault
//! tolerance testing" + §4.4 atomic rollouts + §3 placement transparency).
//!
//! Seeds honor `WEAVER_CHAOS_SEED` so CI can sweep them; every run's action
//! log is replayable (`target/chaos-logs/`), so any failure this suite ever
//! finds becomes a deterministic regression test.

use std::time::Duration;

use boutique::components::*;
use boutique::types::CartItem;
use weaver_codec::linelog;
use weaver_rollout::{RolloutConfig, RolloutPhase};
use weaver_runtime::{SingleMode, SingleProcess, TcpOptions, TcpProcess};
use weaver_testing::{
    eventually, replay, run_matrix_with, seed_from_env, CartConsistency, ChaosAction, ChaosOptions,
    ChaosRunner, MatrixOptions, Placement, RolloutHarness,
};
use weaver_transport::FaultSpec;

const CART: &str = "boutique.CartService";
const CATALOG: &str = "boutique.ProductCatalog";
const PAYMENT: &str = "boutique.PaymentService";
const CURRENCY: &str = "boutique.CurrencyService";
const SHIPPING: &str = "boutique.Shipping";

/// Real catalog ids: checkout's fan-out looks every line up, so the cart
/// must hold products the catalog actually knows.
const PRODUCTS: &[&str] = &[
    "OLJCESPC7Z",
    "66VCHSJNUP",
    "1YMWWN1N4O",
    "L9ECAV7KIM",
    "2ZYFJ3GM2N",
];

fn order_request(user: &str) -> boutique::types::PlaceOrderRequest {
    boutique::types::PlaceOrderRequest {
        user_id: user.to_string(),
        user_currency: "EUR".into(),
        address: boutique::loadgen::test_address(),
        email: "chaos@example.com".into(),
        credit_card: boutique::logic::payment::test_card(),
    }
}

/// Cart consistency under chaos, under every placement where faults bite:
/// while components crash, go down, and lag, no observed cart may ever
/// contain an item that was not acknowledged for that exact user. (Losing
/// state is allowed — crashes forget; inventing it is not.)
#[test]
fn cart_consistency_survives_chaos_across_placements() {
    let options = MatrixOptions {
        placements: vec![Placement::Marshaled, Placement::Tcp, Placement::Replicated],
        replicas: 3,
        ..Default::default()
    };
    run_matrix_with(boutique::registry(), &options, |dep| {
        let label = dep.label();
        let ctx = dep.root_context();
        let cart = dep.get::<dyn CartService>().expect(label);
        let model = CartConsistency::new();

        let chaos = ChaosRunner::start(
            dep.fault_injectable(),
            ChaosOptions {
                seed: seed_from_env(0xCA_27),
                targets: vec![CART.into(), CATALOG.into()],
                interval: Duration::from_millis(1),
                heal_fraction: 0.5,
            },
        );

        for round in 0..40u64 {
            for user in 0..4u64 {
                let item = format!("SKU-{}", (round + user) % 3);
                if cart
                    .add_item(
                        &ctx,
                        format!("chaos-u{user}"),
                        CartItem {
                            product_id: item.clone(),
                            quantity: 1,
                        },
                    )
                    .is_ok()
                {
                    model.record_add(user, &item, 1);
                }
                if let Ok(items) = cart.get_cart(&ctx, format!("chaos-u{user}")) {
                    let observed: Vec<(String, u64)> = items
                        .iter()
                        .map(|i| (i.product_id.clone(), u64::from(i.quantity)))
                        .collect();
                    model
                        .check(user, &observed)
                        .unwrap_or_else(|e| panic!("[{label}] round {round}: {e}"));
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let actions = chaos.stop();
        assert!(
            actions.len() > 10,
            "[{label}] chaos barely ran: {} actions",
            actions.len()
        );
        assert!(model.acked_adds() > 0, "[{label}] no add ever succeeded");

        // Healed, the carts must still be model-consistent and servable.
        for user in 0..4u64 {
            let items = eventually(Duration::from_secs(5), || {
                cart.get_cart(&ctx, format!("chaos-u{user}"))
            })
            .unwrap_or_else(|e| panic!("[{label}] no recovery: {e}"));
            let observed: Vec<(String, u64)> = items
                .iter()
                .map(|i| (i.product_id.clone(), u64::from(i.quantity)))
                .collect();
            model
                .check(user, &observed)
                .unwrap_or_else(|e| panic!("[{label}] after heal: {e}"));
        }
    });
}

/// The §4.4 invariant under fire: drive a blue/green rollout all the way to
/// completion while chaos hammers the new version. No correctly-routed
/// request may see `VersionMismatch`, and every deliberately mis-stamped
/// probe must be rejected — even when its target component is down.
#[test]
fn rollout_version_invariant_holds_under_chaos() {
    let harness = RolloutHarness::new(
        boutique::registry(),
        RolloutConfig {
            ticks_per_stage: 2,
            // Tolerate chaos-induced errors so the rollout traverses every
            // stage; the version invariant is what's under test here, the
            // health gate has its own suite.
            max_error_rate: 1.0,
            ..Default::default()
        },
    );
    let chaos = ChaosRunner::start(
        harness.new_deployment(),
        ChaosOptions {
            seed: seed_from_env(0x44_44),
            targets: vec![CART.into(), CATALOG.into(), PAYMENT.into()],
            interval: Duration::from_millis(1),
            heal_fraction: 0.4,
        },
    );

    let report = harness.run(64, 25, |dep, ctx, key| {
        // Pace the workload so the chaos thread (1ms cadence) genuinely
        // interleaves with it instead of the rollout finishing in microseconds.
        std::thread::sleep(Duration::from_micros(200));
        let frontend = dep.get::<dyn Frontend>()?;
        frontend
            .home(ctx, format!("user-{key:016x}"), "USD".into())
            .map(|_| ())
    });
    let actions = chaos.stop();

    report.assert_invariant();
    assert_eq!(
        report.phase,
        RolloutPhase::Completed,
        "rollout did not finish: {report:?}"
    );
    assert!(report.requests >= 200, "thin workload: {report:?}");
    assert!(actions.len() > 10, "chaos barely ran: {}", actions.len());
}

/// The replay acceptance test: a recorded chaos run, serialized to text,
/// replays against a fresh deployment reproducing the exact action
/// sequence — byte for byte. This is what turns any chaos-found failure
/// into a deterministic regression test.
#[test]
fn recorded_chaos_log_replays_byte_for_byte() {
    let app = SingleProcess::deploy(boutique::registry(), SingleMode::Marshaled, 1);
    let frontend = app.get::<dyn Frontend>().unwrap();
    let ctx = app.root_context();
    let chaos = ChaosRunner::start(
        app.clone(),
        ChaosOptions {
            seed: seed_from_env(0x1D_0F),
            targets: vec![CART.into(), CATALOG.into()],
            interval: Duration::from_millis(1),
            heal_fraction: 0.4,
        },
    );
    // A live workload rides along so the log is recorded under real load,
    // errors and all.
    while chaos.actions_so_far() < 30 {
        let _ = frontend.home(&ctx, "replay-user".into(), "USD".into());
    }
    let log = chaos.stop();
    let text = linelog::serialize(&log);
    let artifact = linelog::write_artifact("chaos-logs", "chaos-matrix-acceptance", &text);
    assert!(artifact.is_some(), "could not write chaos log artifact");

    // Round-trip through the text format and replay on a fresh deployment.
    let fresh = SingleProcess::deploy(boutique::registry(), SingleMode::Marshaled, 1);
    let parsed: Vec<ChaosAction> = linelog::parse(&text).unwrap();
    let applied = replay(&*fresh, &parsed, Duration::ZERO);
    assert_eq!(
        linelog::serialize(&applied),
        text,
        "replay diverged from the recorded log"
    );

    // The replayed deployment ends in whatever fault state the log dictates;
    // heal it and it must serve.
    for target in [CART, CATALOG] {
        fresh.inject_fault(target, Default::default());
    }
    let frontend = fresh.get::<dyn Frontend>().unwrap();
    frontend
        .home(&fresh.root_context(), "post-replay".into(), "USD".into())
        .expect("deployment unusable after replayed chaos + heal");
}

/// Checkout's scatter-gather fan-out under component chaos, across every
/// placement. `place_order` launches the shipping quote and all per-line
/// product lookups as concurrent futures; while the fan-out callees go
/// down, lag, and crash, every gather must come back (errors are fine,
/// wedging is not), and the client data plane must end with zero pending
/// entries — an abandoned future that leaked its pending-map slot would
/// show up here as a counter that never drains.
#[test]
fn checkout_fanout_survives_chaos_across_placements() {
    let options = MatrixOptions::default(); // all four placements
    run_matrix_with(boutique::registry(), &options, |dep| {
        let label = dep.label();
        let frontend = dep.get::<dyn Frontend>().expect(label);
        let cart = dep.get::<dyn CartService>().expect(label);

        let chaos = ChaosRunner::start(
            dep.fault_injectable(),
            ChaosOptions {
                seed: seed_from_env(0xFA_09),
                // The components checkout's fan-out scatters to — never the
                // cart, so order attempts always reach the scatter itself.
                targets: vec![CATALOG.into(), CURRENCY.into(), SHIPPING.into()],
                interval: Duration::from_millis(1),
                heal_fraction: 0.5,
            },
        );

        let mut ok = 0usize;
        for round in 0..30u64 {
            for user in 0..4u64 {
                let uid = format!("fanout-u{user}");
                // Populate directly through the cart (chaos never targets
                // it), then drive the concurrent pricing fan-out. The
                // deadline bounds every gather: a hung future fails the
                // call here instead of wedging the test.
                let ctx = dep.root_context().with_timeout(Duration::from_secs(2));
                for line in 0..3u64 {
                    let _ = cart.add_item(
                        &ctx,
                        uid.clone(),
                        CartItem {
                            product_id: PRODUCTS[((round + line) % 5) as usize].to_string(),
                            quantity: 1,
                        },
                    );
                }
                if frontend.place_order(&ctx, order_request(&uid)).is_ok() {
                    ok += 1;
                }
            }
            // Let the chaos thread (1ms cadence) genuinely interleave: the
            // colocated cell would otherwise finish before it acts twice.
            std::thread::sleep(Duration::from_millis(1));
        }
        let actions = chaos.stop();
        assert!(
            actions.len() > 10,
            "[{label}] chaos barely ran: {} actions",
            actions.len()
        );

        // Healed, checkout must serve again...
        for target in [CATALOG, CURRENCY, SHIPPING] {
            dep.inject_fault(target, Default::default());
        }
        eventually(Duration::from_secs(5), || {
            let ctx = dep.root_context().with_timeout(Duration::from_secs(2));
            cart.add_item(
                &ctx,
                "fanout-heal".into(),
                CartItem {
                    product_id: PRODUCTS[0].to_string(),
                    quantity: 1,
                },
            )?;
            frontend.place_order(&ctx, order_request("fanout-heal"))
        })
        .unwrap_or_else(|e| panic!("[{label}] checkout never recovered: {e}"));
        // ...and chaos-era orders must have landed at all (the colocated
        // cell sees no injected faults, so there `ok` is the full count).
        assert!(ok > 0, "[{label}] no order ever succeeded under chaos");

        // The pool's pending-map accounting must balance: every future —
        // resolved, failed, or abandoned at deadline — gave its slot back.
        eventually(Duration::from_secs(5), || match dep.client_in_flight() {
            0 => Ok(()),
            n => Err(format!("{n} pending entries still outstanding")),
        })
        .unwrap_or_else(|e| panic!("[{label}] leaked pending-map entries: {e}"));
    });
}

/// Checkout's fan-out under *transport* faults: every socket randomly
/// severed, truncated, or duplicated while concurrent futures are in
/// flight on it. A severed connection must fail its outstanding futures
/// fast (the dead-flag path), never strand them until the deadline, and
/// the pending-map accounting must balance to zero afterwards.
#[test]
fn checkout_fanout_survives_transport_fault_storm() {
    let app = TcpProcess::deploy(
        boutique::registry(),
        TcpOptions {
            replicas: 2,
            workers: 16,
            fault_spec: Some(FaultSpec {
                seed: seed_from_env(0xFA_07),
                sever: 0.002,
                truncate: 0.002,
                duplicate: 0.002,
                delay: 0.02,
                ..Default::default()
            }),
        },
        1,
    )
    .expect("deploy under storm");
    let frontend = app.get::<dyn Frontend>().expect("frontend");
    let cart = app.get::<dyn CartService>().expect("cart");

    let mut ok = 0usize;
    for i in 0..150usize {
        let ctx = app.root_context().with_timeout(Duration::from_secs(2));
        for line in 0..3usize {
            let _ = cart.add_item(
                &ctx,
                format!("storm-u{i}"),
                CartItem {
                    product_id: PRODUCTS[(i + line) % 5].to_string(),
                    quantity: 1,
                },
            );
        }
        if frontend
            .place_order(&ctx, order_request(&format!("storm-u{i}")))
            .is_ok()
        {
            ok += 1;
        }
    }
    // Liveness, not perfection: the storm may fail orders, but a fan-out
    // that deadlocks or leaks would push this toward zero (or hang the
    // test outright).
    assert!(ok > 30, "storm killed checkout: {ok}/150 orders succeeded");

    let injected: usize = app.transport_fault_logs().iter().map(Vec::len).sum();
    assert!(injected > 0, "storm injected nothing — shim not wired?");

    // Zero leaked pending-map entries once the workload drains.
    eventually(Duration::from_secs(5), || match app.client_in_flight() {
        0 => Ok(()),
        n => Err(format!("{n} pending entries still outstanding")),
    })
    .expect("pending-map entries leaked after the storm");
}

/// Transport-level chaos: every socket under the deployment runs through a
/// low-probability fault storm (delays, duplicates, truncations, severs).
/// The app must stay live — errors are fine, wedging is not — and the
/// injectors must prove the storm actually happened.
///
/// Corruption is deliberately excluded here: a corrupted length prefix
/// stalls the victim connection until the caller's deadline rather than
/// killing it (no checksum in the framing, by design), which tests
/// patience, not liveness. The transport suite covers corruption's
/// contract — clean death, no leaks — directly.
#[test]
fn app_stays_live_through_transport_fault_storm() {
    let app = TcpProcess::deploy(
        boutique::registry(),
        TcpOptions {
            replicas: 2,
            workers: 8,
            fault_spec: Some(FaultSpec {
                seed: seed_from_env(0x57_02),
                sever: 0.002,
                truncate: 0.002,
                duplicate: 0.002,
                delay: 0.02,
                ..Default::default()
            }),
        },
        1,
    )
    .expect("deploy under storm");
    let frontend = app.get::<dyn Frontend>().expect("frontend");

    let mut ok = 0usize;
    for i in 0..300usize {
        // Per-call deadline: a corrupted length prefix can stall a
        // connection until the reader gives up; the call must come back.
        let ctx = app.root_context().with_timeout(Duration::from_secs(2));
        if frontend
            .browse_product(&ctx, format!("u{i}"), "OLJCESPC7Z".into(), "USD".into())
            .is_ok()
        {
            ok += 1;
        }
    }
    assert!(ok > 150, "storm killed liveness: {ok}/300 calls succeeded");

    let injected: usize = app.transport_fault_logs().iter().map(Vec::len).sum();
    assert!(injected > 0, "storm injected nothing — shim not wired?");
}
