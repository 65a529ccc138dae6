//! State-transfer payloads for live slice migration (Slicer v2).
//!
//! When the rebalance controller moves a key range to a new replica, the
//! routed component's state for that range has to move with it — otherwise
//! the new owner starts from scratch and per-key history (A8 monotonicity)
//! breaks. The handoff rides the *existing* request/response framing: the
//! migration driver calls the component's `export_keys` method on the old
//! owner and `import_keys` on the new one, and a [`StateBlob`] is the
//! payload both ends agree on. Keeping it here (rather than in a component
//! crate) lets the runtime's migration driver and any routed component
//! share one wire shape without new frame kinds.

use weaver_codec::prelude::*;
use weaver_macros::WeaverData;

/// One routed entry being handed off: the 64-bit routing hash of its key
/// plus an opaque component-encoded payload (the component alone knows how
/// to rebuild its state from it).
#[derive(Debug, Clone, PartialEq, Eq, WeaverData)]
pub struct StateEntry {
    /// `routing_key` hash of the entry's key.
    pub key_hash: u64,
    /// Component-private encoding of the entry's state.
    pub payload: Vec<u8>,
}

/// A component's state for one key range, in transit from the old owner to
/// the new one.
#[derive(Debug, Clone, PartialEq, Eq, WeaverData)]
pub struct StateBlob {
    /// Component id the state belongs to.
    pub component: u32,
    /// First routing hash in the moving range.
    pub range_start: u64,
    /// One past the last hash (`u64::MAX` = inclusive, slice semantics).
    pub range_end: u64,
    /// The entries; every `key_hash` must fall inside the range.
    pub entries: Vec<StateEntry>,
}

/// Whether routing hash `hash` falls in the slice range `[start, end)`,
/// where `end == u64::MAX` is inclusive: the final slice ends the keyspace.
/// The one statement of slice semantics that migrations, gates and
/// exporting components share.
pub fn in_slice(start: u64, end: u64, hash: u64) -> bool {
    hash >= start && (hash < end || (end == u64::MAX && hash == u64::MAX))
}

impl StateBlob {
    /// Whether `hash` falls inside this blob's range ([`in_slice`]).
    pub fn contains(&self, hash: u64) -> bool {
        in_slice(self.range_start, self.range_end, hash)
    }

    /// Checks the blob's structural invariants: a non-empty range and every
    /// entry's hash inside it. An importer rejects invalid blobs rather
    /// than absorbing keys it does not own.
    pub fn validate(&self) -> Result<(), String> {
        if self.range_start >= self.range_end {
            return Err(format!(
                "empty range [{:#x}, {:#x})",
                self.range_start, self.range_end
            ));
        }
        for e in &self.entries {
            if !self.contains(e.key_hash) {
                return Err(format!(
                    "entry {:#x} outside range [{:#x}, {:#x})",
                    e.key_hash, self.range_start, self.range_end
                ));
            }
        }
        Ok(())
    }

    /// Encodes the blob for the wire.
    pub fn encode(&self) -> Vec<u8> {
        encode_to_vec(self)
    }

    /// Decodes and validates a blob received off the wire.
    pub fn decode(bytes: &[u8]) -> Result<StateBlob, String> {
        let blob: StateBlob =
            decode_from_slice(bytes).map_err(|e| format!("undecodable state blob: {e}"))?;
        blob.validate()?;
        Ok(blob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob() -> StateBlob {
        StateBlob {
            component: 3,
            range_start: 100,
            range_end: 200,
            entries: vec![
                StateEntry {
                    key_hash: 100,
                    payload: vec![1, 2, 3],
                },
                StateEntry {
                    key_hash: 199,
                    payload: vec![],
                },
            ],
        }
    }

    #[test]
    fn round_trips_on_the_wire() {
        let b = blob();
        let back = StateBlob::decode(&b.encode()).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn rejects_out_of_range_entries() {
        let mut b = blob();
        b.entries[0].key_hash = 99;
        assert!(b.validate().is_err());
        assert!(StateBlob::decode(&b.encode()).is_err());
    }

    #[test]
    fn rejects_empty_range() {
        let mut b = blob();
        b.range_end = b.range_start;
        assert!(b.validate().is_err());
    }

    #[test]
    fn max_end_is_inclusive() {
        let b = StateBlob {
            component: 0,
            range_start: 10,
            range_end: u64::MAX,
            entries: vec![StateEntry {
                key_hash: u64::MAX,
                payload: vec![9],
            }],
        };
        assert_eq!(b.validate(), Ok(()));
        assert!(b.contains(u64::MAX));
        assert!(!b.contains(9));
    }
}
