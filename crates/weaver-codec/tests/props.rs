//! Property-based tests over both wire formats and `JsonValue`.

use std::collections::{BTreeMap, HashMap};

use proptest::prelude::*;
use weaver_codec::json::JsonValue;
use weaver_codec::prelude::*;
use weaver_codec::tagged::{self, read_key, skip_value, TaggedField};
use weaver_codec::varint::{read_ivarint, read_uvarint, uvarint_len, write_ivarint, write_uvarint};

fn roundtrip_wire<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: &T) {
    let bytes = encode_to_vec(v);
    let back: T = decode_from_slice(&bytes).unwrap();
    assert_eq!(&back, v);
}

proptest! {
    #[test]
    fn uvarint_roundtrip(v in any::<u64>()) {
        let mut buf = Vec::new();
        write_uvarint(&mut buf, v);
        prop_assert_eq!(buf.len(), uvarint_len(v));
        let mut r = Reader::new(&buf);
        prop_assert_eq!(read_uvarint(&mut r).unwrap(), v);
        prop_assert!(r.is_empty());
    }

    #[test]
    fn ivarint_roundtrip(v in any::<i64>()) {
        let mut buf = Vec::new();
        write_ivarint(&mut buf, v);
        let mut r = Reader::new(&buf);
        prop_assert_eq!(read_ivarint(&mut r).unwrap(), v);
    }

    #[test]
    fn varint_ordering_by_magnitude(a in any::<u64>(), b in any::<u64>()) {
        // Smaller values never take more bytes.
        if a <= b {
            prop_assert!(uvarint_len(a) <= uvarint_len(b));
        }
    }

    #[test]
    fn wire_scalar_roundtrips(
        a in any::<u64>(),
        b in any::<i64>(),
        c in any::<f64>(),
        d in any::<bool>(),
    ) {
        roundtrip_wire(&a);
        roundtrip_wire(&b);
        if !c.is_nan() {
            roundtrip_wire(&c);
        }
        roundtrip_wire(&d);
    }

    #[test]
    fn wire_string_roundtrip(s in ".*") {
        roundtrip_wire(&s);
    }

    #[test]
    fn wire_vec_roundtrip(v in proptest::collection::vec(any::<u32>(), 0..64)) {
        roundtrip_wire(&v);
    }

    #[test]
    fn wire_nested_roundtrip(
        v in proptest::collection::vec(
            proptest::collection::vec(".{0,8}", 0..4),
            0..8,
        )
    ) {
        roundtrip_wire(&v);
    }

    #[test]
    fn wire_map_roundtrip(m in proptest::collection::hash_map(".{0,8}", any::<u64>(), 0..16)) {
        roundtrip_wire(&m);
    }

    #[test]
    fn wire_option_tuple_roundtrip(v in any::<Option<(u8, i32)>>()) {
        roundtrip_wire(&v);
    }

    #[test]
    fn wire_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Fuzz: arbitrary input must produce Ok or Err, never a panic.
        let _ = decode_from_slice::<Vec<String>>(&bytes);
        let _ = decode_from_slice::<HashMap<String, Vec<u64>>>(&bytes);
        let _ = decode_from_slice::<(u64, String, Option<bool>)>(&bytes);
    }

    #[test]
    fn tagged_packed_vec_roundtrip(v in proptest::collection::vec(any::<u32>(), 0..64)) {
        let mut buf = Vec::new();
        v.emit(3, &mut buf);
        let mut out: Vec<u32> = Vec::new();
        let mut r = Reader::new(&buf);
        while !r.is_empty() {
            let key = read_key(&mut r).unwrap();
            prop_assert_eq!(key.field, 3);
            out.merge(key, &mut r).unwrap();
        }
        prop_assert_eq!(out, v);
    }

    #[test]
    fn tagged_string_vec_roundtrip(v in proptest::collection::vec(".{0,12}", 0..16)) {
        let mut buf = Vec::new();
        v.emit(7, &mut buf);
        let mut out: Vec<String> = Vec::new();
        let mut r = Reader::new(&buf);
        while !r.is_empty() {
            let key = read_key(&mut r).unwrap();
            out.merge(key, &mut r).unwrap();
        }
        prop_assert_eq!(out, v);
    }

    #[test]
    fn tagged_map_roundtrip(m in proptest::collection::btree_map(".{0,8}", any::<u64>(), 0..16)) {
        let mut buf = Vec::new();
        m.emit(1, &mut buf);
        let mut out: BTreeMap<String, u64> = BTreeMap::new();
        let mut r = Reader::new(&buf);
        while !r.is_empty() {
            let key = read_key(&mut r).unwrap();
            TaggedField::merge(&mut out, key, &mut r).unwrap();
        }
        prop_assert_eq!(out, m);
    }

    #[test]
    fn tagged_skip_any_valid_field(v in any::<u64>(), s in ".{0,32}") {
        // A decoder that knows nothing about the fields can still skip them.
        let mut buf = Vec::new();
        v.emit(1, &mut buf);
        s.emit(2, &mut buf);
        (v as f64).emit(3, &mut buf);
        let mut r = Reader::new(&buf);
        while !r.is_empty() {
            let key = read_key(&mut r).unwrap();
            skip_value(&mut r, key.wire_type).unwrap();
        }
        prop_assert!(r.is_empty());
    }

    #[test]
    fn tagged_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut r = Reader::new(&bytes);
        while !r.is_empty() {
            match read_key(&mut r) {
                Ok(key) => {
                    if skip_value(&mut r, key.wire_type).is_err() {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
    }

    #[test]
    fn json_string_roundtrip(s in ".*") {
        let v = JsonValue::String(s.clone());
        let text = v.to_string_compact();
        prop_assert_eq!(JsonValue::parse(&text).unwrap(), v);
    }

    #[test]
    fn json_structure_roundtrip(
        m in proptest::collection::btree_map(
            ".{0,8}",
            proptest::collection::vec(any::<i32>(), 0..8),
            0..8,
        )
    ) {
        let v = JsonValue::Object(
            m.into_iter()
                .map(|(k, xs)| {
                    let xs = xs.into_iter().map(|x| JsonValue::Number(f64::from(x)));
                    (k, JsonValue::Array(xs.collect()))
                })
                .collect(),
        );
        prop_assert_eq!(JsonValue::parse(&v.to_string_compact()).unwrap(), v);
    }

    #[test]
    fn json_parse_never_panics(s in ".{0,128}") {
        let _ = JsonValue::parse(&s);
    }

    #[test]
    fn json_numbers_roundtrip_exactly_when_integral(v in -1_000_000_000i64..1_000_000_000) {
        let text = JsonValue::Number(v as f64).to_string_compact();
        let back = JsonValue::parse(&text).unwrap();
        prop_assert_eq!(back.as_number().unwrap() as i64, v);
    }

    #[test]
    fn wire_beats_tagged_beats_json_on_size(
        id in 1u64..u64::MAX,
        name in "[a-z]{1,24}",
        qty in 1u32..10_000,
    ) {
        // The paper's claim, as a property: for typical messages, the
        // non-versioned format is no larger than the tagged format, which is
        // smaller than JSON.
        let mut wire = Vec::new();
        id.encode(&mut wire);
        name.encode(&mut wire);
        qty.encode(&mut wire);

        let mut tag = Vec::new();
        id.emit(1, &mut tag);
        name.emit(2, &mut tag);
        qty.emit(3, &mut tag);

        let mut obj = BTreeMap::new();
        obj.insert("id".to_string(), JsonValue::Number(id as f64));
        obj.insert("name".to_string(), JsonValue::String(name.clone()));
        obj.insert("qty".to_string(), JsonValue::Number(f64::from(qty)));
        let json = JsonValue::Object(obj).to_string_compact();

        // Fixed-width u64 (8B) can exceed a small varint, so compare against
        // a fairness margin rather than strictly: the tagged form always
        // carries 3 extra key bytes and varint length prefixes.
        prop_assert!(wire.len() <= tag.len() + 8);
        prop_assert!(tag.len() < json.len());
    }
}

#[test]
fn tagged_is_forward_compatible_wire_is_not() {
    // Demonstrates the trade the paper makes: the non-versioned format
    // cannot tolerate schema drift, which is exactly why atomic rollouts
    // are load-bearing for it.
    // Old schema: (u64). New schema: (u64, String).
    let old = encode_to_vec(&42u64);
    // Non-versioned decode with the new schema fails loudly.
    assert!(decode_from_slice::<(u64, String)>(&old).is_err());

    // Tagged decode with the new schema succeeds with a defaulted field.
    let mut tag = Vec::new();
    42u64.emit(1, &mut tag);
    let mut r = Reader::new(&tag);
    let mut id = 0u64;
    let mut name = String::new();
    while !r.is_empty() {
        let key = read_key(&mut r).unwrap();
        match key.field {
            1 => id.merge(key, &mut r).unwrap(),
            2 => name.merge(key, &mut r).unwrap(),
            _ => skip_value(&mut r, key.wire_type).unwrap(),
        }
    }
    assert_eq!(id, 42);
    assert_eq!(name, "");
    let _ = tagged::encode_message::<DummyMsg>(&DummyMsg);
}

struct DummyMsg;
impl tagged::TaggedEncode for DummyMsg {
    fn encode_tagged(&self, _buf: &mut Vec<u8>) {}
}
