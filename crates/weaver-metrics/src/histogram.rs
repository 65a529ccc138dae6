//! Log-linear latency histograms.
//!
//! The bucket layout is HDR-style: values are grouped by their binary order
//! of magnitude, and each magnitude is split into [`SUBBUCKETS`] linear
//! sub-buckets. This gives a bounded relative error (≤ 1/SUBBUCKETS) across
//! the full `u64` range with a small memory footprint, which is what
//! lets every proclet keep one histogram per method and ship mergeable
//! snapshots to the manager.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use weaver_macros::WeaverData;

use crate::stripe::Striped;

/// Linear sub-buckets per power of two.
pub const SUBBUCKETS: usize = 32;
const SUB_BITS: u32 = 5; // log2(SUBBUCKETS)
/// Total bucket count: 64 magnitudes × SUBBUCKETS.
pub const BUCKETS: usize = 64 * SUBBUCKETS;

/// Maps a value to its bucket index.
#[inline]
fn bucket_index(value: u64) -> usize {
    if value < SUBBUCKETS as u64 {
        // Values below SUBBUCKETS are exact.
        return value as usize;
    }
    let magnitude = 63 - value.leading_zeros();
    let sub = (value >> (magnitude - SUB_BITS)) & (SUBBUCKETS as u64 - 1);
    ((magnitude - SUB_BITS + 1) as usize) * SUBBUCKETS + sub as usize
}

/// Returns a representative (midpoint) value for a bucket index.
#[inline]
fn bucket_value(index: usize) -> u64 {
    if index < SUBBUCKETS {
        return index as u64;
    }
    let magnitude = (index / SUBBUCKETS) as u32 + SUB_BITS - 1;
    let sub = (index % SUBBUCKETS) as u64;
    let base = (1u64 << magnitude) + (sub << (magnitude - SUB_BITS));
    // Midpoint of the bucket's range.
    base + (1u64 << (magnitude - SUB_BITS)) / 2
}

/// A concurrent log-linear histogram of `u64` samples (typically
/// nanoseconds).
///
/// Every thread records into its own stripe ([`crate::stripe`]), so two
/// threads recording at once write no common cache line. A stripe holds
/// its buckets as one lazily allocated chunk of [`SUBBUCKETS`] counters per
/// magnitude: about 1 KiB of chunk pointers plus 256 bytes per magnitude
/// the samples actually reach. [`Histogram::snapshot`] sums the stripes.
#[derive(Default)]
pub struct Histogram {
    stripes: Striped<HistogramStripe>,
}

/// One stripe's share of a [`Histogram`].
struct HistogramStripe {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    chunks: [OnceLock<Box<Chunk>>; BUCKETS / SUBBUCKETS],
}

impl Default for HistogramStripe {
    fn default() -> Self {
        HistogramStripe {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            chunks: std::array::from_fn(|_| OnceLock::new()),
        }
    }
}

/// The counters of one magnitude, on cache lines no other chunk shares.
#[derive(Default)]
#[repr(align(64))]
struct Chunk([AtomicU64; SUBBUCKETS]);

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        let stripe = self.stripes.local();
        let index = bucket_index(value);
        stripe.chunks[index / SUBBUCKETS]
            .get_or_init(Box::default)
            .0[index % SUBBUCKETS]
            .fetch_add(1, Ordering::Relaxed);
        stripe.count.fetch_add(1, Ordering::Relaxed);
        stripe.sum.fetch_add(value, Ordering::Relaxed);
        // Most samples do not raise the maximum: reading first keeps those
        // from writing it at all.
        if value > stripe.max.load(Ordering::Relaxed) {
            stripe.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.count.load(Ordering::Relaxed))
            .sum()
    }

    /// Sum of the recorded samples; it wraps as one atomic would.
    pub fn sum(&self) -> u64 {
        self.stripes
            .iter()
            .fold(0, |sum, s| sum.wrapping_add(s.sum.load(Ordering::Relaxed)))
    }

    /// Takes a snapshot of the current state: the sum of every stripe.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut snapshot = HistogramSnapshot::default();
        for stripe in self.stripes.iter() {
            snapshot.count += stripe.count.load(Ordering::Relaxed);
            // The sum wraps as one atomic would.
            snapshot.sum = snapshot
                .sum
                .wrapping_add(stripe.sum.load(Ordering::Relaxed));
            snapshot.max = snapshot.max.max(stripe.max.load(Ordering::Relaxed));
        }
        for c in 0..BUCKETS / SUBBUCKETS {
            let mut sums = [0u64; SUBBUCKETS];
            for chunk in self.stripes.iter().filter_map(|s| s.chunks[c].get()) {
                for (sum, b) in sums.iter_mut().zip(&chunk.0) {
                    *sum += b.load(Ordering::Relaxed);
                }
            }
            snapshot.buckets.extend(
                (0..SUBBUCKETS)
                    .filter(|&i| sums[i] != 0)
                    .map(|i| ((c * SUBBUCKETS + i) as u32, sums[i])),
            );
        }
        snapshot
    }
}

/// A point-in-time, mergeable, serializable view of a [`Histogram`].
///
/// Only non-empty buckets are carried (sparse encoding), so snapshots of
/// typical latency distributions are a few hundred bytes.
#[derive(Debug, Clone, Default, PartialEq, WeaverData)]
pub struct HistogramSnapshot {
    /// `(bucket_index, count)` pairs for non-empty buckets, ascending index.
    pub buckets: Vec<(u32, u64)>,
    /// Total sample count.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample seen.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Merges another snapshot into this one (manager-side aggregation).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        let mut merged: Vec<(u32, u64)> = Vec::with_capacity(self.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ai, ac)), Some(&&(bi, bc))) => {
                    if ai == bi {
                        merged.push((ai, ac + bc));
                        a.next();
                        b.next();
                    } else if ai < bi {
                        merged.push((ai, ac));
                        a.next();
                    } else {
                        merged.push((bi, bc));
                        b.next();
                    }
                }
                (Some(&&x), None) => {
                    merged.push(x);
                    a.next();
                }
                (None, Some(&&x)) => {
                    merged.push(x);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Estimates the `q`-quantile (0.0 ≤ q ≤ 1.0) of the recorded values.
    ///
    /// Returns 0 for an empty snapshot. The estimate's relative error is
    /// bounded by the bucket width (≈ 3% with 32 sub-buckets).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based.
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(index, c) in &self.buckets {
            seen += c;
            if seen >= target {
                return bucket_value(index as usize);
            }
        }
        self.max
    }

    /// Median convenience wrapper.
    pub fn median(&self) -> u64 {
        self.quantile(0.5)
    }

    /// Mean of the recorded values (exact, from the running sum).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weaver_codec::prelude::*;

    #[test]
    fn bucket_index_is_monotone() {
        let mut values: Vec<u64> = Vec::new();
        for shift in 0..63 {
            for off in [0u64, 1, 3] {
                values.push((1u64 << shift).saturating_add(off));
            }
        }
        values.sort_unstable();
        let mut last = 0;
        for v in values {
            let idx = bucket_index(v);
            assert!(idx >= last, "index regressed at {v}");
            last = idx;
        }
    }

    #[test]
    fn small_values_are_exact() {
        for v in 0..SUBBUCKETS as u64 {
            assert_eq!(bucket_value(bucket_index(v)), v);
        }
    }

    #[test]
    fn bucket_relative_error_bounded() {
        for v in [100u64, 999, 12_345, 1_000_000, u32::MAX as u64, 1 << 50] {
            let rep = bucket_value(bucket_index(v));
            let err = (rep as f64 - v as f64).abs() / v as f64;
            assert!(err < 0.04, "value {v}: representative {rep}, err {err}");
        }
    }

    #[test]
    fn record_and_median() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1000);
        let median = snap.median();
        let expect = 500_000f64;
        assert!(
            (median as f64 - expect).abs() / expect < 0.05,
            "median {median}"
        );
    }

    #[test]
    fn quantile_extremes() {
        let h = Histogram::new();
        h.record(10);
        h.record(1_000_000);
        let snap = h.snapshot();
        assert_eq!(snap.quantile(0.0), 10);
        let p100 = snap.quantile(1.0);
        assert!((p100 as f64 - 1_000_000.0).abs() / 1_000_000.0 < 0.04);
    }

    #[test]
    fn empty_snapshot_quantile_is_zero() {
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
        assert_eq!(HistogramSnapshot::default().mean(), 0.0);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let h1 = Histogram::new();
        let h2 = Histogram::new();
        let all = Histogram::new();
        for v in [5u64, 90, 90, 5000, 123_456] {
            h1.record(v);
            all.record(v);
        }
        for v in [7u64, 90, 800_000] {
            h2.record(v);
            all.record(v);
        }
        let mut merged = h1.snapshot();
        merged.merge(&h2.snapshot());
        assert_eq!(merged, all.snapshot());
    }

    #[test]
    fn snapshot_roundtrips_on_wire() {
        let h = Histogram::new();
        for v in [1u64, 1000, 1_000_000] {
            h.record(v);
        }
        let snap = h.snapshot();
        let bytes = encode_to_vec(&snap);
        let back: HistogramSnapshot = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn mean_is_exact() {
        let h = Histogram::new();
        h.record(10);
        h.record(20);
        h.record(30);
        assert_eq!(h.snapshot().mean(), 20.0);
    }
}
