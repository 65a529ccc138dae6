//! Experiment A4: affinity routing (paper §5.2).
//!
//! "Consider an in-memory cache component backed by an underlying
//! disk-based storage system. The cache hit rate and overall performance
//! increase when requests for the same key are routed to the same cache
//! replica."
//!
//! This harness builds exactly that: N independent cache replicas (each an
//! LRU over a slow key-value "disk") and fires a Zipf-ish key stream at
//! them under two routing policies — slice-affinity (weaver's `#[routed]`
//! path) and round robin — reporting hit rate and mean lookup latency.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use weaver_core::routing_key;
use weaver_routing::SliceAssignment;

/// A tiny LRU cache replica over a simulated slow store.
struct CacheReplica {
    capacity: usize,
    entries: HashMap<u64, u64>,
    order: std::collections::VecDeque<u64>,
    hits: u64,
    misses: u64,
}

impl CacheReplica {
    fn new(capacity: usize) -> CacheReplica {
        CacheReplica {
            capacity,
            entries: HashMap::new(),
            order: std::collections::VecDeque::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Returns simulated latency in microseconds.
    fn lookup(&mut self, key: u64) -> u64 {
        if self.entries.contains_key(&key) {
            self.hits += 1;
            // Refresh recency.
            if let Some(pos) = self.order.iter().position(|&k| k == key) {
                self.order.remove(pos);
            }
            self.order.push_back(key);
            5 // cache hit: 5 µs
        } else {
            self.misses += 1;
            self.entries.insert(key, key);
            self.order.push_back(key);
            if self.entries.len() > self.capacity {
                if let Some(evicted) = self.order.pop_front() {
                    self.entries.remove(&evicted);
                }
            }
            2_000 // disk fetch: 2 ms
        }
    }
}

struct Outcome {
    hit_rate: f64,
    mean_latency_us: f64,
}

fn run_policy(
    replicas: usize,
    capacity_per_replica: usize,
    keys: &[u64],
    pick: &mut dyn FnMut(u64, usize) -> usize,
) -> Outcome {
    let mut caches: Vec<CacheReplica> = (0..replicas)
        .map(|_| CacheReplica::new(capacity_per_replica))
        .collect();
    let mut total_latency: u64 = 0;
    for &key in keys {
        let replica = pick(key, replicas);
        total_latency += caches[replica].lookup(key);
    }
    let hits: u64 = caches.iter().map(|c| c.hits).sum();
    let misses: u64 = caches.iter().map(|c| c.misses).sum();
    Outcome {
        hit_rate: hits as f64 / (hits + misses) as f64,
        mean_latency_us: total_latency as f64 / keys.len() as f64,
    }
}

/// Zipf-ish keyspace: 80% of traffic on the hottest 20% of keys, drawn from
/// a key universe larger than the combined cache capacity.
fn workload(seed: u64, requests: usize, universe: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..requests)
        .map(|_| {
            let user: u64 = if rng.gen_bool(0.8) {
                rng.gen_range(0..universe / 5)
            } else {
                rng.gen_range(universe / 5..universe)
            };
            user
        })
        .collect()
}

fn main() {
    let replicas = 4usize;
    let universe = 40_000u64;
    // Combined capacity = half the universe: misses are inevitable, and
    // *which* requests miss is decided by the routing policy.
    let capacity = universe as usize / 2 / replicas;
    let keys = workload(42, 200_000, universe);

    println!("A4: affinity routing — {replicas} cache replicas over a slow store");
    println!(
        "{:<22} {:>9} {:>17}",
        "routing policy", "hit rate", "mean latency (µs)"
    );

    // Slicer-style slice assignment on hashed keys (the #[routed] path).
    let assignment = SliceAssignment::uniform(replicas as u32, 8);
    let mut slice_pick = |key: u64, n: usize| {
        assignment
            .replica_for(routing_key(&key))
            .map(|r| r as usize % n)
            .unwrap_or(0)
    };
    let slices = run_policy(replicas, capacity, &keys, &mut slice_pick);
    println!(
        "{:<22} {:>8.1}% {:>17.1}",
        "slice affinity",
        slices.hit_rate * 100.0,
        slices.mean_latency_us
    );

    // Round robin (no affinity): every replica sees every key eventually.
    let mut rr = 0usize;
    let mut rr_pick = |_key: u64, n: usize| {
        rr = (rr + 1) % n;
        rr
    };
    let round_robin = run_policy(replicas, capacity, &keys, &mut rr_pick);
    println!(
        "{:<22} {:>8.1}% {:>17.1}",
        "round robin",
        round_robin.hit_rate * 100.0,
        round_robin.mean_latency_us
    );

    println!();
    println!(
        "affinity speedup over round robin: {:.1}x mean latency",
        round_robin.mean_latency_us / slices.mean_latency_us
    );
    assert!(
        slices.hit_rate > round_robin.hit_rate,
        "affinity must beat round robin"
    );
}
