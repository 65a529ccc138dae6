//! Exercises the data derives across the full shape space — named structs,
//! tuple structs, unit/tuple/struct enum variants, generics, nesting. Types
//! deriving `WeaverData` and `TaggedData` round-trip through both formats
//! over the full range of every field; a wire-only type needs neither
//! `Default` nor the tagged format.
//! Every derived `size_hint` is the exact encoded size, so an encode
//! allocates its buffer once.

use proptest::prelude::*;
use weaver_codec::prelude::*;
use weaver_codec::tagged;
use weaver_macros::{TaggedData, WeaverData};
use weaver_transport::Endpoint;

#[derive(Debug, Clone, Default, PartialEq, WeaverData, TaggedData)]
struct Named {
    id: u64,
    label: String,
    scores: Vec<i32>,
    maybe: Option<String>,
}

#[derive(Debug, Clone, Default, PartialEq, WeaverData, TaggedData)]
struct Pair(u32, String);

#[derive(Debug, Clone, PartialEq, WeaverData, TaggedData)]
enum Shape {
    Empty,
    Dot(u64),
    Line(u64, u64),
    Poly {
        points: Vec<(u32, u32)>,
        closed: bool,
    },
}

#[derive(Debug, Clone, PartialEq, WeaverData, TaggedData)]
struct Wrapper<T> {
    inner: T,
    tag: String,
}

#[derive(Debug, Clone, Default, PartialEq, WeaverData, TaggedData)]
struct Deep {
    named: Named,
    pair: Pair,
    shapes: Vec<Shape>,
}

fn roundtrip_everything<T>(value: &T)
where
    T: Encode + Decode + tagged::TaggedEncode + tagged::TaggedDecode + PartialEq + std::fmt::Debug,
{
    let wire: T = decode_from_slice(&encode_to_vec(value)).expect("wire decode");
    assert_eq!(&wire, value, "non-versioned roundtrip");

    let bytes = tagged::encode_message(value);
    let back: T = tagged::decode_message(&bytes).expect("tagged decode");
    assert_eq!(&back, value, "tagged roundtrip");
}

fn arbitrary_shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        Just(Shape::Empty),
        any::<u64>().prop_map(Shape::Dot),
        (any::<u64>(), any::<u64>()).prop_map(|(a, b)| Shape::Line(a, b)),
        (
            proptest::collection::vec((any::<u32>(), any::<u32>()), 0..6),
            any::<bool>()
        )
            .prop_map(|(points, closed)| Shape::Poly { points, closed }),
    ]
}

#[test]
fn fixed_cases() {
    roundtrip_everything(&Named {
        id: 42,
        label: "déjà vu 🎉".into(),
        scores: vec![-1, 0, i32::MAX],
        maybe: Some(String::new()),
    });
    roundtrip_everything(&Named::default());
    roundtrip_everything(&Pair(7, "seven".into()));
    roundtrip_everything(&Shape::Empty);
    roundtrip_everything(&Shape::Dot(u64::MAX));
    roundtrip_everything(&Shape::Line(1, 2));
    roundtrip_everything(&Shape::Poly {
        points: vec![(0, 0), (1, 1)],
        closed: true,
    });
    roundtrip_everything(&Wrapper {
        inner: 99u64,
        tag: "generic".into(),
    });
    roundtrip_everything(&Deep {
        named: Named {
            id: 1,
            label: "x".into(),
            scores: vec![],
            maybe: None,
        },
        pair: Pair(2, "y".into()),
        shapes: vec![Shape::Empty, Shape::Dot(3)],
    });
}

#[test]
fn tagged_skips_unknown_fields_on_derived_types() {
    // A "newer" writer appends field 99; the derived decoder must skip it.
    let mut bytes = tagged::encode_message(&Pair(5, "five".into()));
    tagged::write_key(&mut bytes, 99, tagged::WireType::Varint);
    weaver_codec::varint::write_uvarint(&mut bytes, 1234);
    let back: Pair = tagged::decode_message(&bytes).expect("skip unknown");
    assert_eq!(back, Pair(5, "five".into()));
}

#[test]
fn wire_enum_discriminants_are_declaration_order() {
    // The non-versioned contract: discriminant = variant index.
    assert_eq!(encode_to_vec(&Shape::Empty)[0], 0);
    assert_eq!(encode_to_vec(&Shape::Dot(0))[0], 1);
    assert_eq!(encode_to_vec(&Shape::Line(0, 0))[0], 2);
    let bad = [9u8];
    assert!(matches!(
        decode_from_slice::<Shape>(&bad),
        Err(weaver_codec::DecodeError::UnknownVariant { .. })
    ));
}

/// Wire only: an enum with no `Default`, and a struct holding an
/// `Endpoint`, which has the wire codec and no other.
#[derive(Debug, Clone, PartialEq, WeaverData)]
enum Route {
    Down,
    Up { weight: u32 },
    Via(Box<Hop>),
}

#[derive(Debug, Clone, PartialEq, WeaverData)]
struct Hop {
    at: Endpoint,
    route: Route,
}

#[test]
fn wire_only_types_roundtrip_without_default() {
    let tcp = Endpoint::Tcp("127.0.0.1:4000".parse().unwrap());
    let unix = Endpoint::unix("weaver-hop").unwrap();
    let hops = [
        Hop {
            at: tcp,
            route: Route::Down,
        },
        Hop {
            at: unix,
            route: Route::Up { weight: 3 },
        },
        Hop {
            at: tcp,
            route: Route::Via(Box::new(Hop {
                at: unix,
                route: Route::Down,
            })),
        },
    ];
    for hop in hops {
        let back: Hop = decode_from_slice(&encode_to_vec(&hop)).expect("wire decode");
        assert_eq!(back, hop);
    }
}

fn assert_exact_hint<T: Encode + std::fmt::Debug>(value: &T) {
    assert_eq!(
        value.size_hint(),
        encode_to_vec(value).len(),
        "size_hint of {value:?}"
    );
}

#[test]
fn wire_only_hints_are_exact() {
    let unix = Endpoint::unix("weaver-hop").unwrap();
    assert_exact_hint(&Hop {
        at: Endpoint::Tcp("[::1]:4000".parse().unwrap()),
        route: Route::Via(Box::new(Hop {
            at: unix,
            route: Route::Up { weight: 3 },
        })),
    });
    assert_exact_hint(&Wrapper {
        inner: vec![Shape::Empty; 200],
        tag: "t".repeat(300),
    });
}

/// A reply is encoded into a buffer of exactly its size: `encode_reply`
/// never grows it, for every boutique reply shape and every error.
#[test]
fn boutique_replies_never_grow_their_buffer() {
    use boutique::logic::ads::AdServer;
    use boutique::logic::catalog::CatalogStore;
    use boutique::types::*;
    use weaver_core::client::encode_reply;
    use weaver_core::error::WeaverError;

    fn check<T: Encode + std::fmt::Debug>(reply: Result<T, WeaverError>) {
        let hint = reply.size_hint();
        let bytes = encode_reply(&reply);
        assert_eq!(hint, bytes.len(), "size_hint of {reply:?}");
        assert_eq!(bytes.capacity(), hint.max(16), "buffer grew for {reply:?}");
    }

    let mut products = CatalogStore::seeded().list().to_vec();
    products[0].description = format!("{} {}", products[0].description, "long ".repeat(40));
    assert!(products[0].description.len() >= 128);
    let ad = AdServer::seeded().ads_for(&["accessories".into()], 1).pop();
    let items: Vec<OrderItem> = products
        .iter()
        .take(3)
        .map(|p| OrderItem {
            item: CartItem {
                product_id: p.id.clone(),
                quantity: 2,
            },
            cost: p.price.clone(),
        })
        .collect();
    let total = Money::new("EUR", 1_234, 500_000_000);

    check(Ok(products.clone()));
    check(Ok(HomeView {
        products: products.clone(),
        ad: ad.clone(),
        cart_size: 3,
        currency: "EUR".into(),
    }));
    check(Ok(ProductView {
        product: products[0].clone(),
        recommendations: products[1..5].to_vec(),
        ad,
    }));
    check(Ok(CartView {
        items: items.clone(),
        shipping_cost: Money::new("EUR", 8, 990_000_000),
        total: total.clone(),
        recommendations: products[5..].to_vec(),
    }));
    check(Ok(OrderResult {
        order_id: "3f1c9a62-ffb0-4a1e-9e5b-3c2d7e6f8a10".into(),
        shipping_tracking_id: "TRK-42".into(),
        shipping_cost: Money::new("EUR", 8, 990_000_000),
        shipping_address: Address {
            street_address: "1600 Amphitheatre Parkway".into(),
            city: "Mountain View".into(),
            state: "CA".into(),
            country: "US".into(),
            zip_code: 94043,
        },
        items,
        total,
    }));
    let detail = || "d".repeat(130);
    for err in [
        WeaverError::App {
            code: 7,
            message: detail(),
        },
        WeaverError::Unavailable { detail: detail() },
        WeaverError::DeadlineExceeded,
        WeaverError::Cancelled,
        WeaverError::Codec { detail: detail() },
        WeaverError::Network { detail: detail() },
        WeaverError::VersionMismatch {
            caller_version: 1,
            callee_version: u64::MAX,
        },
        WeaverError::UnknownComponent { name: detail() },
        WeaverError::UnknownMethod {
            component: detail(),
            method: 3,
        },
        WeaverError::InitCycle {
            component: detail(),
        },
        WeaverError::Internal { detail: detail() },
        WeaverError::Fenced { epoch: u64::MAX },
    ] {
        check::<HomeView>(Err(err));
    }
}

proptest! {
    #[test]
    fn named_struct_roundtrips(
        id in any::<u64>(),
        label in ".{0,24}",
        scores in proptest::collection::vec(any::<i32>(), 0..8),
        maybe in any::<Option<String>>(),
    ) {
        roundtrip_everything(&Named { id, label, scores, maybe });
    }

    #[test]
    fn enum_roundtrips(shape in arbitrary_shape()) {
        roundtrip_everything(&shape);
    }

    #[test]
    fn nested_roundtrips(
        shapes in proptest::collection::vec(arbitrary_shape(), 0..6),
        id in any::<u64>(),
    ) {
        roundtrip_everything(&Deep {
            named: Named { id, ..Default::default() },
            pair: Pair(id as u32, format!("{id}")),
            shapes,
        });
    }

    #[test]
    fn derived_size_hints_are_exact(
        shapes in proptest::collection::vec(arbitrary_shape(), 0..200),
        label in ".{0,200}",
        scores in proptest::collection::vec(any::<i32>(), 0..8),
        maybe in any::<Option<String>>(),
        id in any::<u64>(),
    ) {
        let named = Named { id, label, scores, maybe };
        for shape in &shapes {
            assert_exact_hint(shape);
        }
        assert_exact_hint(&named);
        assert_exact_hint(&Pair(id as u32, named.label.clone()));
        assert_exact_hint(&Wrapper { inner: named.clone(), tag: named.label.clone() });
        assert_exact_hint(&Deep { named, pair: Pair(1, String::new()), shapes });
    }

    #[test]
    fn derived_decode_never_panics_on_fuzz(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = decode_from_slice::<Deep>(&bytes);
        let _ = tagged::decode_message::<Deep>(&bytes);
        let _ = decode_from_slice::<Shape>(&bytes);
    }
}
