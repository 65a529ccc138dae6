//! The Online Boutique, ported to components (paper §6.1).
//!
//! "To evaluate our prototype, we used a popular web application
//! representative of the kinds of microservice applications developers
//! write. The application has eleven microservices … We then ported the
//! application to our prototype, with each microservice rewritten as a
//! component."
//!
//! Layout:
//!
//! * [`types`] — the shared messages (`#[derive(WeaverData)]`, plus
//!   `TaggedData` for the baseline);
//! * [`logic`] — plain business logic with **no** runtime dependencies:
//!   catalog, currency table, carts, shipping, payments (Luhn and all),
//!   recommendations, ads, email;
//! * [`components`] — the eleven weaver components wrapping that logic;
//! * [`loadgen`] — the Locust-style workload driver.
//!
//! The `baseline` crate builds the *microservices* version of this same
//! application — identical `logic`, per-service processes, protobuf-shaped
//! encoding, HTTP/2-like transport — so every experiment compares the two
//! architectures on equal business logic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod components;
pub mod loadgen;
pub mod logic;
pub mod types;

pub use components::registry;

/// Modules of pure business logic.
pub mod prelude {
    pub use crate::components::*;
    pub use crate::loadgen::{run_load, LoadOptions, LoadReport, Mix, Zipf};
    pub use crate::types::*;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::*;
    use crate::loadgen::test_address;
    use crate::logic::payment::test_card;
    use crate::types::PlaceOrderRequest;
    use std::sync::Arc;
    use weaver_runtime::{SingleMode, SingleProcess};

    fn deploy(mode: SingleMode) -> Arc<SingleProcess> {
        SingleProcess::deploy(registry(), mode, 1)
    }

    fn place_order_flow(app: &Arc<SingleProcess>) {
        let ctx = app.root_context();
        let frontend = app.get::<dyn Frontend>().unwrap();

        // Browse.
        let home = frontend.home(&ctx, "alice".into(), "EUR".into()).unwrap();
        assert!(home.products.len() >= 12);
        assert_eq!(home.cart_size, 0);
        assert_eq!(home.products[0].price.currency_code, "EUR");

        let view = frontend
            .browse_product(&ctx, "alice".into(), "OLJCESPC7Z".into(), "USD".into())
            .unwrap();
        assert_eq!(view.product.id, "OLJCESPC7Z");
        assert_eq!(view.recommendations.len(), 4);
        assert!(view.recommendations.iter().all(|p| p.id != "OLJCESPC7Z"));

        // Fill the cart.
        frontend
            .add_to_cart(&ctx, "alice".into(), "OLJCESPC7Z".into(), 2)
            .unwrap();
        frontend
            .add_to_cart(&ctx, "alice".into(), "6E92ZMYYFZ".into(), 1)
            .unwrap();
        let cart = frontend
            .view_cart(&ctx, "alice".into(), "USD".into())
            .unwrap();
        assert_eq!(cart.items.len(), 2);
        // Total = items + shipping, all in USD.
        assert_eq!(cart.total.currency_code, "USD");
        assert!(cart.total.total_nanos() > cart.shipping_cost.total_nanos());

        // Checkout.
        let order = frontend
            .place_order(
                &ctx,
                PlaceOrderRequest {
                    user_id: "alice".into(),
                    user_currency: "USD".into(),
                    address: test_address(),
                    email: "alice@example.com".into(),
                    credit_card: test_card(),
                },
            )
            .unwrap();
        assert_eq!(order.items.len(), 2);
        assert!(order.order_id.starts_with("order-"));
        assert!(!order.shipping_tracking_id.is_empty());

        // The cart is emptied by checkout.
        let cart = frontend
            .view_cart(&ctx, "alice".into(), "USD".into())
            .unwrap();
        assert!(cart.items.is_empty());
    }

    #[test]
    fn end_to_end_colocated() {
        place_order_flow(&deploy(SingleMode::Colocated));
    }

    #[test]
    fn end_to_end_marshaled() {
        // Identical assertions through the full RPC path: the §5.3 claim
        // that end-to-end tests become unit tests.
        place_order_flow(&deploy(SingleMode::Marshaled));
    }

    #[test]
    fn checkout_with_empty_cart_fails_cleanly() {
        let app = deploy(SingleMode::Colocated);
        let ctx = app.root_context();
        let checkout = app.get::<dyn CheckoutService>().unwrap();
        let err = checkout
            .place_order(
                &ctx,
                PlaceOrderRequest {
                    user_id: "nobody".into(),
                    user_currency: "USD".into(),
                    address: test_address(),
                    email: "x@example.com".into(),
                    credit_card: test_card(),
                },
            )
            .unwrap_err();
        assert!(err.to_string().contains("empty"), "{err}");
    }

    #[test]
    fn declined_card_keeps_cart() {
        let app = deploy(SingleMode::Marshaled);
        let ctx = app.root_context();
        let frontend = app.get::<dyn Frontend>().unwrap();
        frontend
            .add_to_cart(&ctx, "bob".into(), "OLJCESPC7Z".into(), 1)
            .unwrap();
        let mut bad_card = test_card();
        bad_card.expiration_year = 2020;
        let err = frontend
            .place_order(
                &ctx,
                PlaceOrderRequest {
                    user_id: "bob".into(),
                    user_currency: "USD".into(),
                    address: test_address(),
                    email: "bob@example.com".into(),
                    credit_card: bad_card,
                },
            )
            .unwrap_err();
        assert!(err.to_string().contains("expired"), "{err}");
        // The charge failed before shipping: cart must be intact.
        let cart = frontend
            .view_cart(&ctx, "bob".into(), "USD".into())
            .unwrap();
        assert_eq!(cart.items.len(), 1);
    }

    #[test]
    fn unknown_product_rejected_at_frontend() {
        let app = deploy(SingleMode::Colocated);
        let ctx = app.root_context();
        let frontend = app.get::<dyn Frontend>().unwrap();
        assert!(frontend
            .add_to_cart(&ctx, "carol".into(), "NO-SUCH".into(), 1)
            .is_err());
        // Nothing got into the cart.
        let cart = frontend
            .view_cart(&ctx, "carol".into(), "USD".into())
            .unwrap();
        assert!(cart.items.is_empty());
    }

    #[test]
    fn marshaled_mode_records_call_graph() {
        let app = deploy(SingleMode::Marshaled);
        place_order_flow(&app);
        let graph = app.callgraph();
        let components = graph.components();
        // The flow touches every component except none.
        for expected in [
            "boutique.Frontend",
            "boutique.CheckoutService",
            "boutique.CartService",
            "boutique.ProductCatalog",
            "boutique.CurrencyService",
            "boutique.PaymentService",
            "boutique.Shipping",
            "boutique.EmailService",
            "boutique.RecommendationService",
            "boutique.AdService",
        ] {
            assert!(
                components.iter().any(|c| c == expected),
                "missing {expected} in {components:?}"
            );
        }
        // Checkout → CartService traffic exists (the chatty pair).
        assert!(graph.traffic_between("boutique.CheckoutService", "boutique.CartService") > 0);
    }

    #[test]
    fn loadgen_closed_loop_smoke() {
        let app = deploy(SingleMode::Colocated);
        let frontend = app.get::<dyn Frontend>().unwrap();
        let report = loadgen::run_load(
            frontend,
            &loadgen::LoadOptions {
                workers: 2,
                duration: std::time::Duration::from_millis(200),
                ..Default::default()
            },
        );
        assert!(report.requests > 10, "only {} requests", report.requests);
        assert_eq!(report.error_rate(), 0.0, "errors: {}", report.errors);
        assert!(report.median_ms() >= 0.0);
    }

    #[test]
    fn loadgen_open_loop_paces_arrivals() {
        let app = deploy(SingleMode::Colocated);
        let frontend = app.get::<dyn Frontend>().unwrap();
        let report = loadgen::run_load(
            frontend,
            &loadgen::LoadOptions {
                workers: 4,
                duration: std::time::Duration::from_millis(400),
                target_qps: Some(200.0),
                ..Default::default()
            },
        );
        // Achieved ≈ offered (within generous slack for CI machines).
        let qps = report.qps();
        assert!(qps > 80.0 && qps < 320.0, "qps {qps}");
    }

    #[test]
    fn cart_routing_key_stability() {
        // The routed method must hash identical users identically — the
        // §5.2 affinity property, checked at the core hashing layer.
        let a = weaver_core::routing_key("user-7");
        let b = weaver_core::routing_key("user-7");
        assert_eq!(a, b);
        // And the cart's routed flag survives code generation. The state
        // handoff pair is the deliberate exception: a migration addresses
        // a specific replica, not the key's current owner.
        use weaver_core::component::ComponentInterface;
        let methods = <dyn CartService as ComponentInterface>::METHODS;
        for m in methods {
            let handoff = m.name == "export_keys" || m.name == "import_keys";
            assert_eq!(m.routed, !handoff, "method {} routed flag", m.name);
        }
        let frontend_methods = <dyn Frontend as ComponentInterface>::METHODS;
        assert!(frontend_methods.iter().all(|m| !m.routed));
    }

    #[test]
    fn component_crash_recovers() {
        let app = deploy(SingleMode::Marshaled);
        let ctx = app.root_context();
        let frontend = app.get::<dyn Frontend>().unwrap();
        frontend
            .add_to_cart(&ctx, "dave".into(), "OLJCESPC7Z".into(), 3)
            .unwrap();
        // Crash the cart replica: state is lost (it is a cache), but the
        // service keeps answering.
        app.crash_component("boutique.CartService").unwrap();
        let cart = frontend
            .view_cart(&ctx, "dave".into(), "USD".into())
            .unwrap();
        assert!(cart.items.is_empty(), "fresh replica starts empty");
        frontend
            .add_to_cart(&ctx, "dave".into(), "OLJCESPC7Z".into(), 1)
            .unwrap();
        let cart = frontend
            .view_cart(&ctx, "dave".into(), "USD".into())
            .unwrap();
        assert_eq!(cart.items.len(), 1);
    }

    #[test]
    fn registry_contains_all_components() {
        let reg = registry();
        assert_eq!(reg.len(), 10);
        for name in COMPONENT_NAMES {
            assert!(reg.id_of(name).is_ok(), "missing {name}");
        }
    }
}
