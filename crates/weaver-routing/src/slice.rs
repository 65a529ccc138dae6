//! Slicer-style key-space slicing.
//!
//! The 64-bit hashed key space is covered by contiguous, non-overlapping
//! slices; each slice is assigned to one replica. Callers look keys up with
//! a binary search (O(log slices), no locks). The manager periodically
//! rebalances: hot slices are split and reassigned so every replica carries
//! roughly equal load, while keys keep mapping to a *stable* replica as long
//! as their slice is untouched — which is exactly the affinity property that
//! makes per-replica caches effective.

use weaver_macros::WeaverData;

/// One contiguous range of the key space: `[start, end)` assigned to a
/// replica. `end == u64::MAX` means inclusive of `u64::MAX` (the final
/// slice).
#[derive(Debug, Clone, PartialEq, Eq, WeaverData)]
pub struct Slice {
    /// First key in the slice.
    pub start: u64,
    /// One past the last key (saturating; the last slice ends at MAX).
    pub end: u64,
    /// Replica index the slice is assigned to.
    pub replica: u32,
}

/// A complete assignment of the key space to `replica_count` replicas.
#[derive(Debug, Clone, Default, PartialEq, Eq, WeaverData)]
pub struct SliceAssignment {
    /// Assignment generation, bumped on every rebalance.
    pub version: u64,
    /// Number of replicas assignments refer to.
    pub replica_count: u32,
    /// Sorted, contiguous slices covering `[0, u64::MAX]`.
    pub slices: Vec<Slice>,
}

impl SliceAssignment {
    /// Builds a uniform assignment: `slices_per_replica × replica_count`
    /// equal slices dealt round-robin, so adjacent slices land on different
    /// replicas (smoothing skew).
    ///
    /// Returns an empty assignment if `replica_count` is 0.
    pub fn uniform(replica_count: u32, slices_per_replica: u32) -> Self {
        if replica_count == 0 {
            return SliceAssignment::default();
        }
        let n = u64::from(replica_count) * u64::from(slices_per_replica.max(1));
        let width = u64::MAX / n;
        let slices = (0..n)
            .map(|i| Slice {
                start: i * width,
                end: if i == n - 1 {
                    u64::MAX
                } else {
                    (i + 1) * width
                },
                replica: (i % u64::from(replica_count)) as u32,
            })
            .collect();
        SliceAssignment {
            version: 1,
            replica_count,
            slices,
        }
    }

    /// Looks up the replica owning `key`.
    ///
    /// Returns `None` only for an empty assignment.
    pub fn replica_for(&self, key: u64) -> Option<u32> {
        self.slice_index_for(key).map(|i| self.slices[i].replica)
    }

    /// Index (into [`SliceAssignment::slices`]) of the slice owning `key`.
    ///
    /// The load accountant records per-slice counters under this index, so
    /// it must match exactly what [`SliceAssignment::replica_for`] resolves.
    pub fn slice_index_for(&self, key: u64) -> Option<usize> {
        if self.slices.is_empty() {
            return None;
        }
        let idx = match self.slices.binary_search_by(|s| s.start.cmp(&key)) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        };
        Some(idx)
    }

    /// Clamps a desired split point into the interior of `[start, end)`.
    ///
    /// A split at `start` (or anything at/under it) would leave a zero-width
    /// left piece; a split at/over `end` a zero-width right piece. Both arise
    /// in practice when the median observed key of a hot slice sits on a
    /// boundary — e.g. one key absorbing all traffic at the very start of
    /// its slice. Returns `None` when the slice is too narrow to split at
    /// all (width < 2: no interior point exists).
    pub fn clamp_split_point(start: u64, end: u64, desired: u64) -> Option<u64> {
        if end <= start || end - start < 2 {
            return None;
        }
        Some(desired.clamp(start + 1, end - 1))
    }

    /// Checks the structural invariants: sorted, contiguous from 0 to MAX,
    /// non-empty slices, replicas in range.
    pub fn validate(&self) -> Result<(), String> {
        if self.slices.is_empty() {
            return if self.replica_count == 0 {
                Ok(())
            } else {
                Err("no slices but replicas exist".into())
            };
        }
        if self.slices[0].start != 0 {
            return Err(format!("first slice starts at {}", self.slices[0].start));
        }
        for pair in self.slices.windows(2) {
            if pair[0].end != pair[1].start {
                return Err(format!(
                    "gap/overlap between {:#x} and {:#x}",
                    pair[0].end, pair[1].start
                ));
            }
            if pair[0].start >= pair[0].end {
                return Err("empty or inverted slice".into());
            }
        }
        let last = self.slices.last().expect("checked non-empty");
        if last.end != u64::MAX {
            return Err(format!("last slice ends at {:#x}", last.end));
        }
        // `windows(2)` only checks pair[0]: a zero-width *final* slice used
        // to slip through (and a single-slice assignment was never width-
        // checked at all).
        if last.start >= last.end {
            return Err("empty or inverted slice".into());
        }
        if let Some(s) = self.slices.iter().find(|s| s.replica >= self.replica_count) {
            return Err(format!(
                "slice assigned to replica {} of {}",
                s.replica, self.replica_count
            ));
        }
        Ok(())
    }

    /// Rebalances given observed per-slice load (same order as
    /// `self.slices`). Splits any slice carrying more than twice the mean
    /// load and greedily reassigns slices to equalize replica load. Keys in
    /// slices that stay whole keep their replica.
    ///
    /// Returns the new assignment (version bumped) and how many slice→replica
    /// mappings changed (the affinity churn the manager wants to minimize).
    pub fn rebalance(&self, load: &[u64]) -> (SliceAssignment, usize) {
        self.rebalance_hinted(load, &[])
    }

    /// [`SliceAssignment::rebalance`] with per-slice split hints: when a hot
    /// slice has a hint (the median *observed* key, from the load
    /// accountant), it splits there instead of at the geometric midpoint —
    /// so roughly half the observed traffic lands on each piece even when
    /// keys cluster. Hints are clamped into the slice interior
    /// ([`SliceAssignment::clamp_split_point`]); a hint on the boundary of a
    /// minimum-width slice used to produce a zero-width piece that
    /// `validate` then rejected.
    ///
    /// `hints` is indexed like `self.slices`; missing/`None` entries fall
    /// back to the midpoint. An empty hint vector means no hints at all.
    pub fn rebalance_hinted(
        &self,
        load: &[u64],
        hints: &[Option<u64>],
    ) -> (SliceAssignment, usize) {
        assert_eq!(
            load.len(),
            self.slices.len(),
            "load vector must match slice count"
        );
        if self.slices.is_empty() || self.replica_count == 0 {
            return (self.clone(), 0);
        }
        let total: u64 = load.iter().sum();
        let mean_per_slice = (total / self.slices.len() as u64).max(1);

        // Pass 1: split slices hotter than 2× the mean, at the hinted
        // median when one is available, else in half.
        let mut pieces: Vec<(Slice, u64)> = Vec::with_capacity(self.slices.len());
        for (i, (slice, &l)) in self.slices.iter().zip(load).enumerate() {
            let width = slice.end - slice.start;
            let split = (l > mean_per_slice * 2 && width >= 2).then(|| {
                let desired = hints
                    .get(i)
                    .copied()
                    .flatten()
                    .unwrap_or(slice.start + width / 2);
                Self::clamp_split_point(slice.start, slice.end, desired)
                    .expect("width >= 2 has an interior point")
            });
            if let Some(mid) = split {
                pieces.push((
                    Slice {
                        start: slice.start,
                        end: mid,
                        replica: slice.replica,
                    },
                    l / 2,
                ));
                pieces.push((
                    Slice {
                        start: mid,
                        end: slice.end,
                        replica: slice.replica,
                    },
                    l - l / 2,
                ));
            } else {
                pieces.push((slice.clone(), l));
            }
        }

        // Pass 2: greedy rebalancing. Process slices hottest-first; keep a
        // slice on its replica unless that replica is overloaded, else move
        // it to the least-loaded replica.
        let target = (total / u64::from(self.replica_count)).max(1);
        let mut replica_load = vec![0u64; self.replica_count as usize];
        let mut order: Vec<usize> = (0..pieces.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(pieces[i].1));
        let mut moved = 0usize;
        for i in order {
            let (slice, l) = &mut pieces[i];
            let home = slice.replica as usize;
            let keep = home < replica_load.len() && replica_load[home] + *l <= target + target / 4;
            let dest = if keep {
                home
            } else {
                // Least-loaded replica.
                let (best, _) = replica_load
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &v)| v)
                    .expect("replica_count > 0");
                best
            };
            if dest != home {
                moved += 1;
                slice.replica = dest as u32;
            }
            replica_load[dest] += *l;
        }

        pieces.sort_by_key(|(s, _)| s.start);
        let out = SliceAssignment {
            version: self.version + 1,
            replica_count: self.replica_count,
            slices: pieces.into_iter().map(|(s, _)| s).collect(),
        };
        debug_assert_eq!(out.validate(), Ok(()));
        (out, moved)
    }

    /// Splits the slice owning `at` into two at `at` (clamped into the
    /// slice interior), both pieces keeping the original replica — the
    /// controller's "split hot slice at the median observed key" primitive.
    ///
    /// Returns `None` when the owning slice is too narrow to split (or the
    /// assignment is empty). The version is bumped.
    pub fn split_at(&self, at: u64) -> Option<SliceAssignment> {
        let idx = self.slice_index_for(at)?;
        let slice = &self.slices[idx];
        let mid = Self::clamp_split_point(slice.start, slice.end, at)?;
        let mut slices = self.slices.clone();
        slices[idx].end = mid;
        slices.insert(
            idx + 1,
            Slice {
                start: mid,
                end: slice.end,
                replica: slice.replica,
            },
        );
        Some(SliceAssignment {
            version: self.version + 1,
            replica_count: self.replica_count,
            slices,
        })
    }

    /// Reassigns the slice owning `at` to `replica` — the controller's
    /// "move" primitive. Returns `None` for an empty assignment or an
    /// out-of-range replica. The version is bumped.
    pub fn move_slice(&self, at: u64, replica: u32) -> Option<SliceAssignment> {
        if replica >= self.replica_count {
            return None;
        }
        let idx = self.slice_index_for(at)?;
        let mut slices = self.slices.clone();
        slices[idx].replica = replica;
        Some(SliceAssignment {
            version: self.version + 1,
            replica_count: self.replica_count,
            slices,
        })
    }

    /// Resizes the assignment to a new replica count, preserving affinity
    /// for slices whose replica still exists and dealing orphaned slices
    /// round-robin over the new replicas.
    pub fn resize(&self, new_replica_count: u32) -> SliceAssignment {
        if new_replica_count == 0 {
            return SliceAssignment {
                version: self.version + 1,
                replica_count: 0,
                slices: Vec::new(),
            };
        }
        if self.slices.is_empty() {
            return SliceAssignment::uniform(new_replica_count, 8);
        }
        let mut next = 0u32;
        let slices = self
            .slices
            .iter()
            .map(|s| {
                let replica = if s.replica < new_replica_count {
                    s.replica
                } else {
                    let r = next % new_replica_count;
                    next += 1;
                    r
                };
                Slice {
                    start: s.start,
                    end: s.end,
                    replica,
                }
            })
            .collect();
        SliceAssignment {
            version: self.version + 1,
            replica_count: new_replica_count,
            slices,
        }
    }

    /// Fraction of the key space assigned to each replica.
    pub fn share_per_replica(&self) -> Vec<f64> {
        let mut shares = vec![0f64; self.replica_count as usize];
        for s in &self.slices {
            let width = (s.end - s.start) as f64;
            if let Some(v) = shares.get_mut(s.replica as usize) {
                *v += width / u64::MAX as f64;
            }
        }
        shares
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weaver_codec::prelude::*;

    #[test]
    fn uniform_is_valid_and_balanced() {
        for replicas in [1u32, 2, 3, 7, 16] {
            let a = SliceAssignment::uniform(replicas, 8);
            assert_eq!(a.validate(), Ok(()), "replicas={replicas}");
            let shares = a.share_per_replica();
            for share in shares {
                let ideal = 1.0 / f64::from(replicas);
                assert!(
                    (share - ideal).abs() < 0.05,
                    "share {share} vs ideal {ideal}"
                );
            }
        }
    }

    #[test]
    fn zero_replicas_is_empty() {
        let a = SliceAssignment::uniform(0, 8);
        assert!(a.slices.is_empty());
        assert_eq!(a.replica_for(42), None);
        assert_eq!(a.validate(), Ok(()));
    }

    #[test]
    fn lookup_covers_extremes() {
        let a = SliceAssignment::uniform(4, 4);
        assert!(a.replica_for(0).is_some());
        assert!(a.replica_for(u64::MAX).is_some());
        assert!(a.replica_for(u64::MAX / 2).is_some());
    }

    #[test]
    fn lookup_is_stable() {
        let a = SliceAssignment::uniform(5, 8);
        for key in [0u64, 1, 999_999, u64::MAX / 3, u64::MAX] {
            assert_eq!(a.replica_for(key), a.replica_for(key));
        }
    }

    #[test]
    fn rebalance_splits_hot_slice_and_stays_valid() {
        let a = SliceAssignment::uniform(4, 2);
        // One slice carries almost all the load.
        let mut load = vec![10u64; a.slices.len()];
        load[0] = 10_000;
        let (b, _moved) = a.rebalance(&load);
        assert_eq!(b.validate(), Ok(()));
        assert!(b.slices.len() > a.slices.len(), "hot slice was not split");
        assert_eq!(b.version, a.version + 1);
    }

    #[test]
    fn rebalance_with_uniform_load_moves_little() {
        let a = SliceAssignment::uniform(4, 8);
        let load = vec![100u64; a.slices.len()];
        let (b, moved) = a.rebalance(&load);
        assert_eq!(b.validate(), Ok(()));
        // Already balanced: affinity churn should be tiny.
        assert!(
            moved <= a.slices.len() / 4,
            "moved {moved} of {}",
            a.slices.len()
        );
    }

    #[test]
    fn rebalance_equalizes_replica_load() {
        let a = SliceAssignment::uniform(2, 4);
        // All load on replica 0's slices.
        let load: Vec<u64> = a
            .slices
            .iter()
            .map(|s| if s.replica == 0 { 1000 } else { 0 })
            .collect();
        let (b, _) = a.rebalance(&load);
        // Recompute load per replica under the new assignment, approximating
        // that load follows the slices.
        let mut per_replica = vec![0u64; 2];
        let mut li = 0;
        for s in &b.slices {
            // Map each new slice back to its share of old load by overlap.
            let mut l = 0u64;
            for (old, &ol) in a.slices.iter().zip(&load) {
                let start = s.start.max(old.start);
                let end = s.end.min(old.end);
                if start < end {
                    let frac = (end - start) as f64 / (old.end - old.start) as f64;
                    l += (ol as f64 * frac) as u64;
                }
            }
            per_replica[s.replica as usize] += l;
            li += 1;
        }
        let _ = li;
        let total: u64 = per_replica.iter().sum();
        assert!(total > 0);
        let max = *per_replica.iter().max().expect("two replicas");
        assert!(
            (max as f64) < total as f64 * 0.8,
            "load still concentrated: {per_replica:?}"
        );
    }

    #[test]
    fn resize_preserves_surviving_affinity() {
        let a = SliceAssignment::uniform(4, 4);
        let b = a.resize(6);
        assert_eq!(b.validate(), Ok(()));
        assert_eq!(b.replica_count, 6);
        // Slices previously on replicas 0..4 are untouched.
        for (old, new) in a.slices.iter().zip(&b.slices) {
            assert_eq!(old.replica, new.replica);
        }

        let c = a.resize(2);
        assert_eq!(c.validate(), Ok(()));
        // Keys owned by replicas 0 and 1 keep their owner.
        for (old, new) in a.slices.iter().zip(&c.slices) {
            if old.replica < 2 {
                assert_eq!(old.replica, new.replica);
            } else {
                assert!(new.replica < 2);
            }
        }
    }

    #[test]
    fn resize_to_zero_and_back() {
        let a = SliceAssignment::uniform(3, 4);
        let zero = a.resize(0);
        assert!(zero.slices.is_empty());
        let back = zero.resize(4);
        assert_eq!(back.validate(), Ok(()));
        assert_eq!(back.replica_count, 4);
    }

    #[test]
    fn assignment_serializes() {
        let a = SliceAssignment::uniform(3, 4);
        let back: SliceAssignment = decode_from_slice(&encode_to_vec(&a)).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn validate_rejects_zero_width_final_slice() {
        // Regression: windows(2) never width-checked the last slice, so a
        // boundary collision at the end of the keyspace passed validation.
        let a = SliceAssignment {
            version: 1,
            replica_count: 2,
            slices: vec![
                Slice {
                    start: 0,
                    end: u64::MAX,
                    replica: 0,
                },
                Slice {
                    start: u64::MAX,
                    end: u64::MAX,
                    replica: 1,
                },
            ],
        };
        assert!(a.validate().is_err(), "zero-width final slice accepted");
    }

    #[test]
    fn hinted_rebalance_clamps_boundary_medians() {
        // Regression for the zero-width split: the median observed key of a
        // hot slice sits exactly on its start (one key taking all traffic at
        // the boundary). An unclamped split there emits a zero-width left
        // piece; adjacent boundaries collide and validate() rejects it.
        let a = SliceAssignment::uniform(2, 4);
        let mut load = vec![10u64; a.slices.len()];
        load[3] = 100_000;
        let mut hints = vec![None; a.slices.len()];
        hints[3] = Some(a.slices[3].start); // median on the boundary
        let (b, _) = a.rebalance_hinted(&load, &hints);
        assert_eq!(b.validate(), Ok(()));
        assert!(b.slices.len() > a.slices.len(), "hot slice was not split");

        // Same at the far edge: median == end (just past the interior).
        let mut hints = vec![None; a.slices.len()];
        hints[3] = Some(a.slices[3].end);
        let (c, _) = a.rebalance_hinted(&load, &hints);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn clamp_split_point_bounds() {
        assert_eq!(SliceAssignment::clamp_split_point(10, 20, 10), Some(11));
        assert_eq!(SliceAssignment::clamp_split_point(10, 20, 25), Some(19));
        assert_eq!(SliceAssignment::clamp_split_point(10, 20, 15), Some(15));
        // Width-1 and degenerate slices have no interior point.
        assert_eq!(SliceAssignment::clamp_split_point(10, 11, 10), None);
        assert_eq!(SliceAssignment::clamp_split_point(10, 10, 10), None);
    }

    #[test]
    fn split_at_preserves_coverage_and_owner() {
        let a = SliceAssignment::uniform(3, 4);
        let key = u64::MAX / 3 + 17;
        let owner = a.replica_for(key).unwrap();
        let b = a.split_at(key).unwrap();
        assert_eq!(b.validate(), Ok(()));
        assert_eq!(b.slices.len(), a.slices.len() + 1);
        assert_eq!(b.replica_for(key), Some(owner));
        assert_eq!(b.version, a.version + 1);
    }

    #[test]
    fn move_slice_changes_exactly_one_owner() {
        let a = SliceAssignment::uniform(3, 4);
        let key = 42u64;
        let from = a.replica_for(key).unwrap();
        let to = (from + 1) % 3;
        let b = a.move_slice(key, to).unwrap();
        assert_eq!(b.validate(), Ok(()));
        assert_eq!(b.replica_for(key), Some(to));
        let changed = a
            .slices
            .iter()
            .zip(&b.slices)
            .filter(|(x, y)| x.replica != y.replica)
            .count();
        assert_eq!(changed, 1);
        // Out-of-range replica refused.
        assert!(a.move_slice(key, 3).is_none());
    }
}
