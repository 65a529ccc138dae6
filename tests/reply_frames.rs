//! A TCP reply is a view of the pooled frame the socket filled, held until
//! the stub decodes it. This binary checks that holding it that long still
//! returns every frame to the pool: after warm-up, serial calls of every
//! reply shape take all their buffers from the shelves and miss none.
//!
//! One test in a binary of its own, because the pool's counters are
//! process-global.

use boutique::components::*;
use boutique::types::{CartItem, Money};
use weaver_core::fanout::join_all;
use weaver_runtime::{TcpOptions, TcpProcess};
use weaver_transport::BufferPool;

#[test]
fn held_replies_return_their_frames_to_the_pool() {
    let app = TcpProcess::deploy(
        boutique::registry(),
        TcpOptions {
            replicas: 2,
            ..Default::default()
        },
        1,
    )
    .expect("deploy");
    let ctx = app.root_context();
    let currency = app.get::<dyn CurrencyService>().expect("currency");
    let catalog = app.get::<dyn ProductCatalog>().expect("catalog");
    let cart = app.get::<dyn CartService>().expect("cart");
    let usd = Money::new("USD", 12, 500_000_000);

    let round = |i: usize| {
        let eur = currency
            .convert(&ctx, usd.clone(), "EUR".into())
            .expect("convert");
        assert_eq!(eur.currency_code, "EUR");
        assert!(!catalog.list_products(&ctx).expect("list").is_empty());
        let user = format!("frames-{}", i % 16);
        let item = CartItem {
            product_id: "OLJCESPC7Z".into(),
            quantity: 1,
        };
        cart.add_item(&ctx, user.clone(), item).expect("add");
        assert_eq!(cart.get_cart(&ctx, user).expect("cart").len(), 1);
        let pair = vec![
            currency.convert_start(&ctx, usd.clone(), "JPY".into()),
            currency.convert_start(&ctx, usd.clone(), "GBP".into()),
        ];
        assert_eq!(join_all(pair).expect("join").len(), 2);
    };

    for i in 0..1_000 {
        round(i);
    }
    let before = BufferPool::global().stats();
    for i in 0..3_000 {
        round(i);
    }
    let after = BufferPool::global().stats();
    assert!(after.hits > before.hits, "the calls took no pooled buffer");
    assert_eq!(
        after.misses - before.misses,
        0,
        "a reply kept its receive frame from the pool ({} hits)",
        after.hits - before.hits
    );
}
