//! Exercises the data derives across the full shape space — named structs,
//! tuple structs, unit/tuple/struct enum variants, generics, nesting. Types
//! deriving `WeaverData`, `TaggedData` and `JsonData` round-trip through all
//! three formats; a wire-only type needs neither `Default` nor the other two.
//! Every derived `size_hint` is the exact encoded size, so an encode
//! allocates its buffer once.

use proptest::prelude::*;
use weaver_codec::json::{FromJson, ToJson};
use weaver_codec::prelude::*;
use weaver_codec::tagged;
use weaver_macros::{JsonData, TaggedData, WeaverData};
use weaver_transport::Endpoint;

#[derive(Debug, Clone, Default, PartialEq, WeaverData, TaggedData, JsonData)]
struct Named {
    id: u64,
    label: String,
    scores: Vec<i32>,
    maybe: Option<String>,
}

#[derive(Debug, Clone, Default, PartialEq, WeaverData, TaggedData, JsonData)]
struct Pair(u32, String);

#[derive(Debug, Clone, PartialEq, WeaverData, TaggedData, JsonData)]
enum Shape {
    Empty,
    Dot(u64),
    Line(u64, u64),
    Poly {
        points: Vec<(u32, u32)>,
        closed: bool,
    },
}

#[derive(Debug, Clone, PartialEq, WeaverData, TaggedData, JsonData)]
struct Wrapper<T> {
    inner: T,
    tag: String,
}

#[derive(Debug, Clone, Default, PartialEq, WeaverData, TaggedData, JsonData)]
struct Deep {
    named: Named,
    pair: Pair,
    shapes: Vec<Shape>,
}

fn roundtrip_everything<T>(value: &T)
where
    T: Encode
        + Decode
        + tagged::TaggedEncode
        + tagged::TaggedDecode
        + ToJson
        + FromJson
        + PartialEq
        + std::fmt::Debug,
{
    let wire: T = decode_from_slice(&encode_to_vec(value)).expect("wire decode");
    assert_eq!(&wire, value, "non-versioned roundtrip");

    let bytes = tagged::encode_message(value);
    let back: T = tagged::decode_message(&bytes).expect("tagged decode");
    assert_eq!(&back, value, "tagged roundtrip");

    let json = value.to_json_string();
    let back = T::from_json_str(&json).expect("json decode");
    assert_eq!(&back, value, "json roundtrip");
}

fn arbitrary_shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        Just(Shape::Empty),
        (0u64..JSON_SAFE).prop_map(Shape::Dot),
        ((0u64..JSON_SAFE), (0u64..JSON_SAFE)).prop_map(|(a, b)| Shape::Line(a, b)),
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
    roundtrip_everything(&Shape::Dot((1 << 53) - 1));
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
    ] {
        check::<HomeView>(Err(err));
    }
}

#[test]
fn json_enums_use_type_tags() {
    let json = Shape::Poly {
        points: vec![(1, 2)],
        closed: false,
    }
    .to_json_string();
    assert!(json.contains("\"$type\":\"Poly\""), "{json}");
    assert!(json.contains("\"points\""), "{json}");
    let unit = Shape::Empty.to_json_string();
    assert!(unit.contains("\"$type\":\"Empty\""), "{unit}");
}

/// JSON numbers are f64: integers above 2^53 are not representable. This
/// is a real cost of the textual baseline (documented in
/// `weaver_codec::json`), so the property tests bound ids accordingly and
/// this test pins the behaviour down explicitly.
#[test]
fn json_loses_u64_precision_binary_formats_do_not() {
    let big = Named {
        id: (1u64 << 53) + 1,
        ..Default::default()
    };
    let wire: Named = decode_from_slice(&encode_to_vec(&big)).unwrap();
    assert_eq!(wire.id, big.id, "binary formats are exact");
    let tagged_back: Named = tagged::decode_message(&tagged::encode_message(&big)).unwrap();
    assert_eq!(tagged_back.id, big.id);
    let json_back = Named::from_json_str(&big.to_json_string()).unwrap();
    assert_ne!(json_back.id, big.id, "JSON cannot represent 2^53 + 1");
}

/// Largest integer JSON roundtrips exactly.
const JSON_SAFE: u64 = (1 << 53) - 1;

proptest! {
    #[test]
    fn named_struct_roundtrips(
        id in 0u64..JSON_SAFE,
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
        id in 0u64..JSON_SAFE,
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
