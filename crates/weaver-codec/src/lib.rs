//! Serialization substrate for `weaver-rs`.
//!
//! This crate implements the three wire formats used throughout the
//! reproduction of *Towards Modern Development of Cloud Applications*
//! (HotOS '23):
//!
//! * [`Encode`]/[`Decode`] — the paper's **custom non-versioned format**
//!   (§5.5, §6.1). Because encoder and decoder are always compiled into the
//!   same binary and deployed atomically, the format carries *zero* per-field
//!   metadata: fields are written in declaration order, scalars are
//!   fixed-width little-endian, and lengths are LEB128 varints. This is the
//!   format whose efficiency Table 2 attributes most of the prototype's win
//!   to.
//! * [`tagged`] — a protobuf-shaped **versioned baseline**: every field is
//!   prefixed with a `(field_number << 3) | wire_type` key, unknown fields
//!   are skippable, and absent fields decode to defaults. This reproduces
//!   the encoding cost the paper ascribes to the status quo; the gRPC-like
//!   baseline speaks it.
//! * [`json`] — a textual baseline (self-describing field names), the most
//!   expensive format the paper's introduction mentions.
//!
//! All three are implemented from scratch so they compare like against
//! like (same allocator, same buffer discipline), isolating the cost of
//! versioning metadata itself.
//!
//! The runtime speaks only the first. An application type gets it from
//! `#[derive(WeaverData)]`; a type that a baseline or the codec ablation
//! encodes in one of the other two also derives `TaggedData` or `JsonData`
//! (see the `weaver-macros` crate).
//!
//! [`linelog`] is the odd one out: the human-readable, replayable
//! one-record-per-line text form the controllers' decision logs and the
//! chaos action log share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod json;
pub mod linelog;
pub mod persist;
pub mod reader;
pub mod tagged;
pub mod varint;
pub mod wire;

pub use error::DecodeError;
pub use reader::Reader;
pub use wire::{decode_from_slice, encode_into, encode_to_vec, Decode, Encode};

/// Convenience prelude for generated code and downstream crates.
pub mod prelude {
    pub use crate::error::DecodeError;
    pub use crate::json::{FromJson, JsonValue, ToJson};
    pub use crate::reader::Reader;
    pub use crate::tagged::{FieldKey, TaggedDecode, TaggedEncode, WireType};
    pub use crate::varint::{read_uvarint, write_uvarint};
    pub use crate::wire::{decode_from_slice, encode_into, encode_to_vec, Decode, Encode};
}
