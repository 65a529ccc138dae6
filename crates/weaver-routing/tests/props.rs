//! Property tests for routing invariants.

use proptest::prelude::*;
use weaver_routing::SliceAssignment;

proptest! {
    #[test]
    fn uniform_assignments_always_valid(replicas in 1u32..32, per in 1u32..16) {
        let a = SliceAssignment::uniform(replicas, per);
        prop_assert_eq!(a.validate(), Ok(()));
    }

    #[test]
    fn every_key_has_an_owner(replicas in 1u32..16, key in any::<u64>()) {
        let a = SliceAssignment::uniform(replicas, 8);
        let owner = a.replica_for(key);
        prop_assert!(owner.is_some());
        prop_assert!(owner.unwrap() < replicas);
    }

    #[test]
    fn rebalance_preserves_validity(
        replicas in 1u32..8,
        per in 1u32..8,
        seed in any::<u64>(),
    ) {
        let a = SliceAssignment::uniform(replicas, per);
        // Pseudo-random load from the seed, deterministic per case.
        let load: Vec<u64> = (0..a.slices.len() as u64)
            .map(|i| {
                let mut x = seed.wrapping_add(i.wrapping_mul(0x9e3779b97f4a7c15));
                x ^= x >> 33;
                x = x.wrapping_mul(0xff51afd7ed558ccd);
                x % 10_000
            })
            .collect();
        let (b, _) = a.rebalance(&load);
        prop_assert_eq!(b.validate(), Ok(()));
        prop_assert_eq!(b.replica_count, replicas);
        prop_assert!(b.version > a.version);
    }

    #[test]
    fn rebalance_keeps_every_key_owned(
        replicas in 1u32..8,
        keys in proptest::collection::vec(any::<u64>(), 1..32),
    ) {
        let a = SliceAssignment::uniform(replicas, 4);
        let load: Vec<u64> = (0..a.slices.len()).map(|i| (i as u64 % 7) * 100).collect();
        let (b, _) = a.rebalance(&load);
        for key in keys {
            let owner = b.replica_for(key);
            prop_assert!(owner.is_some());
            prop_assert!(owner.unwrap() < replicas);
        }
    }

    #[test]
    fn resize_validity_and_range(from in 1u32..12, to in 0u32..12) {
        let a = SliceAssignment::uniform(from, 4);
        let b = a.resize(to);
        prop_assert_eq!(b.validate(), Ok(()));
        for s in &b.slices {
            prop_assert!(s.replica < to.max(1) || b.slices.is_empty());
        }
    }

    #[test]
    fn resize_shrink_preserves_low_replica_affinity(from in 3u32..10) {
        let to = from - 1;
        let a = SliceAssignment::uniform(from, 4);
        let b = a.resize(to);
        for (old, new) in a.slices.iter().zip(&b.slices) {
            if old.replica < to {
                prop_assert_eq!(old.replica, new.replica);
            }
        }
    }
}

/// Independent re-implementation of the structural invariants, used as the
/// oracle `validate()` is checked against: sorted starts, exact coverage of
/// `[0, u64::MAX]` with no gaps/overlaps, positive widths, replicas in
/// range. Deliberately written differently from `validate` (sort + scan
/// over a coverage cursor instead of `windows(2)`).
fn oracle(a: &weaver_routing::SliceAssignment) -> Result<(), String> {
    if a.slices.is_empty() {
        return if a.replica_count == 0 {
            Ok(())
        } else {
            Err("empty cover".into())
        };
    }
    let mut sorted: Vec<_> = a.slices.iter().collect();
    sorted.sort_by_key(|s| s.start);
    if sorted
        .iter()
        .zip(a.slices.iter())
        .any(|(x, y)| x.start != y.start)
    {
        return Err("slices out of order".into());
    }
    let mut cursor = 0u64;
    for s in &sorted {
        if s.start != cursor {
            return Err(format!("cover breaks at {:#x}", s.start));
        }
        if s.end <= s.start {
            return Err("non-positive width".into());
        }
        if s.replica >= a.replica_count {
            return Err("replica out of range".into());
        }
        cursor = s.end;
    }
    if cursor != u64::MAX {
        return Err(format!("cover ends at {cursor:#x}"));
    }
    Ok(())
}

/// Deterministic per-slice load derived from a seed (so rebalance steps in
/// the algebra sequence are reproducible per case).
fn seeded_load(n: usize, seed: u64) -> Vec<u64> {
    (0..n as u64)
        .map(|i| {
            let mut x = seed.wrapping_add(i.wrapping_mul(0x9e3779b97f4a7c15));
            x ^= x >> 33;
            x = x.wrapping_mul(0xff51afd7ed558ccd);
            x % 10_000
        })
        .collect()
}

proptest! {
    // The slice algebra: any sequence of split/move/rebalance/resize
    // keeps the keyspace fully covered with no overlaps, every key owned by
    // an in-range replica, and `validate()` in agreement with the oracle.
    #[test]
    fn algebra_sequences_preserve_coverage(
        replicas in 1u32..6,
        per in 1u32..5,
        ops in proptest::collection::vec((0u8..4, any::<u64>(), 1u32..6), 1..24),
        probe in any::<u64>(),
    ) {
        let mut a = SliceAssignment::uniform(replicas, per);
        for (op, key, aux) in ops {
            let next = match op {
                0 => a.split_at(key),
                1 => a.move_slice(key, aux % a.replica_count.max(1)),
                2 => Some(a.rebalance(&seeded_load(a.slices.len(), key)).0),
                _ => Some(a.resize(aux)),
            };
            // An inapplicable op (a too-narrow split) skips.
            if let Some(next) = next {
                prop_assert!(next.version > a.version);
                a = next;
            }
            prop_assert_eq!(a.validate(), Ok(()));
            prop_assert_eq!(oracle(&a), Ok(()));
            let owner = a.replica_for(probe);
            prop_assert!(owner.is_some());
            prop_assert!(owner.unwrap() < a.replica_count);
        }
    }

    // validate() ≡ oracle on corrupted assignments too: poke one field of
    // one slice and both checkers must agree on accept/reject.
    #[test]
    fn validate_agrees_with_oracle_under_corruption(
        replicas in 1u32..5,
        per in 1u32..5,
        which in any::<u64>(),
        field in 0u8..3,
        value in any::<u64>(),
    ) {
        let mut a = SliceAssignment::uniform(replicas, per);
        let i = which as usize % a.slices.len();
        match field {
            0 => a.slices[i].start = value,
            1 => a.slices[i].end = value,
            _ => a.slices[i].replica = (value % 8) as u32,
        }
        prop_assert_eq!(a.validate().is_ok(), oracle(&a).is_ok());
    }

    // Hinted rebalance never emits zero-width slices, wherever the median
    // hints land — including exactly on boundaries.
    #[test]
    fn hinted_rebalance_always_valid(
        replicas in 1u32..6,
        per in 1u32..5,
        seed in any::<u64>(),
        hint_seed in any::<u64>(),
    ) {
        let a = SliceAssignment::uniform(replicas, per);
        let load = seeded_load(a.slices.len(), seed);
        let hints: Vec<Option<u64>> = a.slices.iter().enumerate().map(|(i, s)| {
            let mut x = hint_seed.wrapping_add(i as u64);
            x ^= x >> 31;
            match x % 4 {
                0 => Some(s.start),          // boundary: must clamp
                1 => Some(s.end),            // boundary: must clamp
                2 => Some(s.start.wrapping_add(x)), // arbitrary
                _ => None,                   // midpoint fallback
            }
        }).collect();
        let (b, _) = a.rebalance_hinted(&load, &hints);
        prop_assert_eq!(b.validate(), Ok(()));
        prop_assert_eq!(oracle(&b), Ok(()));
    }
}
