//! Decode-side error type shared by both wire formats and the JSON parser.

use std::fmt;

/// An error produced while decoding a wire-format payload.
///
/// Encoding in either wire format is infallible (it only appends to a
/// `Vec<u8>`), so there is no corresponding encode error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the value was complete.
    UnexpectedEof {
        /// How many more bytes were needed.
        needed: usize,
        /// How many bytes remained.
        remaining: usize,
    },
    /// A varint ran past its maximum width (10 bytes for a `u64`).
    VarintOverflow,
    /// A length prefix exceeded the remaining input or a sanity bound.
    InvalidLength(u64),
    /// A byte sequence that must be UTF-8 was not.
    InvalidUtf8,
    /// An enum discriminant did not name a known variant.
    UnknownVariant {
        /// The type whose variant space was violated.
        type_name: &'static str,
        /// The offending discriminant.
        discriminant: u64,
    },
    /// A `bool` byte was neither 0 nor 1.
    InvalidBool(u8),
    /// A tagged-format wire type was not one of the four defined values.
    InvalidWireType(u8),
    /// A tagged-format field had the wrong wire type for its declared type.
    WireTypeMismatch {
        /// Field number in the message.
        field: u32,
        /// Wire type found on the wire.
        found: u8,
    },
    /// A character-level syntax error while parsing JSON.
    JsonSyntax {
        /// Byte offset of the error.
        offset: usize,
        /// Short description of what was expected.
        expected: &'static str,
    },
    /// A JSON value had the wrong shape for the target type.
    JsonType {
        /// What the decoder needed.
        expected: &'static str,
    },
    /// A required JSON object key was missing.
    JsonMissingKey(&'static str),
    /// Decoding finished but input bytes were left over.
    TrailingBytes(usize),
    /// Recursion depth limit exceeded (malicious or corrupt input).
    DepthLimitExceeded,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof { needed, remaining } => write!(
                f,
                "unexpected end of input: needed {needed} more bytes, {remaining} remaining"
            ),
            DecodeError::VarintOverflow => write!(f, "varint exceeds 64 bits"),
            DecodeError::InvalidLength(len) => write!(f, "invalid length prefix {len}"),
            DecodeError::InvalidUtf8 => write!(f, "byte sequence is not valid UTF-8"),
            DecodeError::UnknownVariant {
                type_name,
                discriminant,
            } => write!(f, "unknown variant {discriminant} for enum {type_name}"),
            DecodeError::InvalidBool(b) => write!(f, "invalid bool byte {b:#x}"),
            DecodeError::InvalidWireType(w) => write!(f, "invalid wire type {w}"),
            DecodeError::WireTypeMismatch { field, found } => {
                write!(f, "field {field} has unexpected wire type {found}")
            }
            DecodeError::JsonSyntax { offset, expected } => {
                write!(f, "JSON syntax error at byte {offset}: expected {expected}")
            }
            DecodeError::JsonType { expected } => {
                write!(f, "JSON value has wrong type: expected {expected}")
            }
            DecodeError::JsonMissingKey(key) => write!(f, "JSON object missing key {key:?}"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            DecodeError::DepthLimitExceeded => write!(f, "recursion depth limit exceeded"),
        }
    }
}

impl std::error::Error for DecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = DecodeError::UnexpectedEof {
            needed: 4,
            remaining: 1,
        };
        assert!(e.to_string().contains("needed 4"));
        assert!(e.to_string().contains("1 remaining"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&DecodeError::VarintOverflow);
    }

    #[test]
    fn equality() {
        assert_eq!(DecodeError::InvalidBool(3), DecodeError::InvalidBool(3));
        assert_ne!(DecodeError::InvalidBool(3), DecodeError::InvalidBool(2));
    }
}
