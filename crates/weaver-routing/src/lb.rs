//! Load balancing for unrouted methods.
//!
//! When a method carries no routing key, any replica will do; the question
//! is only which. Power-of-two choices uses in-flight counts to avoid slow
//! replicas with almost no coordination cost. It is the one policy: every
//! remote router picks through it.

use std::sync::atomic::{AtomicU64, Ordering};

/// Power-of-two-choices over in-flight call counts.
///
/// Samples two distinct replicas pseudo-randomly and picks the one with
/// fewer calls in flight — within a constant factor of optimal balancing at
/// a fraction of the bookkeeping of least-loaded.
pub struct PowerOfTwo {
    inflight: Vec<AtomicU64>,
    seed: AtomicU64,
}

impl PowerOfTwo {
    /// Creates a balancer that tracks in-flight counts for the first
    /// `max_replicas` replicas. It still picks among any number of
    /// replicas; one past the table counts as idle.
    pub fn new(max_replicas: usize) -> Self {
        PowerOfTwo {
            inflight: (0..max_replicas.max(1))
                .map(|_| AtomicU64::new(0))
                .collect(),
            seed: AtomicU64::new(0x243f_6a88_85a3_08d3),
        }
    }

    fn next_rand(&self) -> u64 {
        // Xorshift over an atomic seed: racy updates are fine, randomness
        // quality only needs to be "spread the picks".
        let mut x = self.seed.load(Ordering::Relaxed);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.seed.store(x, Ordering::Relaxed);
        x
    }

    /// Current in-flight count per replica (0 for an untracked replica).
    pub fn inflight(&self, replica: usize) -> u64 {
        self.inflight
            .get(replica)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Picks a replica index in `0..n`. Returns `None` when `n == 0`.
    pub fn pick(&self, n: usize) -> Option<usize> {
        if n == 0 {
            return None;
        }
        if n == 1 {
            return Some(0);
        }
        let r = self.next_rand();
        let a = (r % n as u64) as usize;
        let mut b = ((r >> 32) % n as u64) as usize;
        if a == b {
            b = (b + 1) % n;
        }
        Some(if self.inflight(a) <= self.inflight(b) {
            a
        } else {
            b
        })
    }

    /// Notes that a call to `replica` started.
    pub fn on_start(&self, replica: usize) {
        if let Some(c) = self.inflight.get(replica) {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Notes that a call to `replica` finished.
    pub fn on_finish(&self, replica: usize) {
        if let Some(c) = self.inflight.get(replica) {
            // Saturating decrement: a finish without a start (replica set
            // shrank mid-call) must not wrap.
            let _ = c.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn zero_replicas_returns_none() {
        assert_eq!(PowerOfTwo::new(4).pick(0), None);
    }

    #[test]
    fn p2c_single_replica() {
        assert_eq!(PowerOfTwo::new(4).pick(1), Some(0));
    }

    #[test]
    fn p2c_picks_replicas_past_its_table() {
        let p2c = PowerOfTwo::new(2);
        assert!(
            (0..100).any(|_| p2c.pick(8).unwrap() >= 2),
            "replicas 2..8 never picked"
        );
    }

    #[test]
    fn p2c_avoids_loaded_replica() {
        let p2c = PowerOfTwo::new(3);
        // Replica 0 is saturated.
        for _ in 0..1000 {
            p2c.on_start(0);
        }
        let mut counts: HashMap<usize, usize> = HashMap::new();
        for _ in 0..300 {
            *counts.entry(p2c.pick(3).unwrap()).or_default() += 1;
        }
        let to_zero = counts.get(&0).copied().unwrap_or(0);
        // Replica 0 only wins when the two sampled choices are both 0-ish;
        // with two distinct choices it should essentially never be picked.
        assert!(to_zero < 30, "loaded replica picked {to_zero}/300 times");
    }

    #[test]
    fn p2c_inflight_tracking() {
        let p2c = PowerOfTwo::new(2);
        p2c.on_start(1);
        p2c.on_start(1);
        assert_eq!(p2c.inflight(1), 2);
        p2c.on_finish(1);
        assert_eq!(p2c.inflight(1), 1);
        // Saturating: no wraparound past zero.
        p2c.on_finish(1);
        p2c.on_finish(1);
        assert_eq!(p2c.inflight(1), 0);
    }

    #[test]
    fn p2c_spreads_under_equal_load() {
        let p2c = PowerOfTwo::new(4);
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            counts[p2c.pick(4).unwrap()] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 400, "replica {i} picked only {c}/4000 times");
        }
    }
}
