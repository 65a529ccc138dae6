//! End-to-end tests as unit tests (paper §5.3, experiment A6's harness).
//!
//! Every test body runs under all four cells of the deployment matrix —
//! co-located, marshaled, loopback TCP and replicated TCP. Passing every
//! way proves the application depends only on component interfaces, never
//! on shared address space, the wire or a single replica.

use boutique::components::*;
use boutique::loadgen::test_address;
use boutique::logic::payment::test_card;
use boutique::types::{CartItem, PlaceOrderRequest};
use weaver_runtime::SingleProcess;
use weaver_testing::{run_matrix, Placement};

#[test]
fn full_shopping_session_under_every_placement() {
    run_matrix(boutique::registry(), |app| {
        let (placement, ctx) = (app.label(), app.root_context());
        let frontend = app.get::<dyn Frontend>().expect(placement);

        let home = frontend
            .home(&ctx, "wt-user".into(), "GBP".into())
            .expect(placement);
        assert!(home.products.len() >= 12, "{placement}: thin catalog");
        assert_eq!(home.currency, "GBP");

        frontend
            .add_to_cart(&ctx, "wt-user".into(), "1YMWWN1N4O".into(), 1)
            .expect(placement);
        let cart = frontend
            .view_cart(&ctx, "wt-user".into(), "USD".into())
            .expect(placement);
        assert_eq!(cart.items.len(), 1, "{placement}");
        assert!(
            cart.total.total_nanos() > 0,
            "{placement}: empty cart total"
        );

        let order = frontend
            .place_order(
                &ctx,
                PlaceOrderRequest {
                    user_id: "wt-user".into(),
                    user_currency: "USD".into(),
                    address: test_address(),
                    email: "wt@example.com".into(),
                    credit_card: test_card(),
                },
            )
            .expect(placement);
        assert_eq!(order.items.len(), 1, "{placement}");
    });
}

#[test]
fn component_interfaces_behave_identically() {
    // Poke each backend component directly under every placement and
    // demand byte-identical answers (determinism across placements).
    let mut answers: Vec<String> = Vec::new();
    run_matrix(boutique::registry(), |app| {
        let (placement, ctx) = (app.label(), app.root_context());
        let catalog = app.get::<dyn ProductCatalog>().expect(placement);
        let currency = app.get::<dyn CurrencyService>().expect(placement);
        let recs = app.get::<dyn RecommendationService>().expect(placement);
        let ads = app.get::<dyn AdService>().expect(placement);

        let product = catalog
            .get_product(&ctx, "L9ECAV7KIM".into())
            .expect(placement);
        let converted = currency
            .convert(&ctx, product.price.clone(), "JPY".into())
            .expect(placement);
        let recommendations = recs
            .list_recommendations(&ctx, "same-user".into(), vec!["L9ECAV7KIM".into()])
            .expect(placement);
        let ads = ads.get_ads(&ctx, vec!["footwear".into()]).expect(placement);

        answers.push(format!(
            "{}|{}|{:?}|{:?}",
            product.name,
            converted.total_nanos(),
            recommendations
                .iter()
                .map(|p| p.id.as_str())
                .collect::<Vec<_>>(),
            ads.iter().map(|a| a.text.as_str()).collect::<Vec<_>>()
        ));
    });
    assert_eq!(answers.len(), Placement::ALL.len());
    for (placement, answer) in Placement::ALL.iter().zip(&answers) {
        assert_eq!(
            answer,
            &answers[0],
            "{}: placements disagreed on pure component answers",
            placement.label()
        );
    }
}

#[test]
fn error_paths_survive_marshaling() {
    // Application errors must come back as the same typed error whether or
    // not they crossed a marshaling boundary, the wire or a replica hop.
    let mut errors: Vec<(String, String)> = Vec::new();
    run_matrix(boutique::registry(), |app| {
        let (placement, ctx) = (app.label(), app.root_context());
        let catalog = app.get::<dyn ProductCatalog>().expect(placement);
        let unknown = catalog
            .get_product(&ctx, "DOES-NOT-EXIST".into())
            .expect_err("unknown product must error");

        let payment = app.get::<dyn PaymentService>().expect(placement);
        let mut card = test_card();
        card.number = "0000".into();
        let declined = payment
            .charge(&ctx, boutique::types::Money::new("USD", 10, 0), card)
            .expect_err("bad card must error");
        errors.push((unknown.to_string(), declined.to_string()));
    });
    assert_eq!(errors.len(), Placement::ALL.len());
    for (placement, (unknown, declined)) in Placement::ALL.iter().zip(&errors) {
        let label = placement.label();
        assert_eq!(unknown, &errors[0].0, "{label}: catalog error changed");
        assert_eq!(declined, &errors[0].1, "{label}: payment error changed");
    }
}

#[test]
fn routed_methods_and_cart_isolation() {
    run_matrix(boutique::registry(), |app| {
        let (placement, ctx) = (app.label(), app.root_context());
        let cart = app.get::<dyn CartService>().expect(placement);
        for user in ["u1", "u2", "u3"] {
            cart.add_item(
                &ctx,
                user.into(),
                CartItem {
                    product_id: format!("P-{user}"),
                    quantity: 1,
                },
            )
            .expect(placement);
        }
        for user in ["u1", "u2", "u3"] {
            let items = cart.get_cart(&ctx, user.into()).expect(placement);
            assert_eq!(items.len(), 1, "{placement}: {user}");
            assert_eq!(items[0].product_id, format!("P-{user}"));
        }
        cart.empty_cart(&ctx, "u2".into()).expect(placement);
        assert!(cart
            .get_cart(&ctx, "u2".into())
            .expect(placement)
            .is_empty());
        assert_eq!(cart.get_cart(&ctx, "u1".into()).expect(placement).len(), 1);
    });
}

#[test]
fn marshaled_deployment_sees_the_call_graph_colocated_does_not() {
    use weaver_runtime::SingleMode;
    let colocated = SingleProcess::deploy(boutique::registry(), SingleMode::Colocated, 1);
    let marshaled = SingleProcess::deploy(boutique::registry(), SingleMode::Marshaled, 1);
    for app in [&colocated, &marshaled] {
        let ctx = app.root_context();
        let frontend = app.get::<dyn Frontend>().unwrap();
        frontend.home(&ctx, "cg".into(), "USD".into()).unwrap();
    }
    // Co-located calls are plain method calls — invisible, free.
    assert!(colocated.callgraph().edges.is_empty());
    // Marshaled calls record every edge for the placement optimizer.
    assert!(!marshaled.callgraph().edges.is_empty());
}
