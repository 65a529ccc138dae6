//! Controller convergence on a Zipfian workload (Slicer v2, satellite 3).
//!
//! The adversarial start: every slice on replica 0, traffic drawn
//! Zipf(s = 1.1) from a population of two million keys — rank 1 alone is
//! ≈ 13% of all requests. The controller only sees what the runtime's
//! [`weaver_metrics::SliceLoadTracker`] would give it (per-slice request
//! counts and median key hints); it must split the hot slices and walk
//! the load out to the other replicas within a bounded number of rounds.
//!
//! Every round's decisions go into one golden, line-based log that
//! replays bit-for-bit: `linelog::parse` + `apply_decisions` over the
//! starting assignment must land on exactly the assignment the live
//! controller evolved. The log is written to `target/rebalance-logs/` so
//! a CI failure ships the controller's full reasoning as an artifact.

use std::collections::HashMap;

use boutique::prelude::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;
use weaver_codec::linelog;
use weaver_routing::{
    apply_decisions, ControllerOptions, RebalanceController, RebalanceDecision, SliceAssignment,
};

const REPLICAS: u32 = 3;
const POPULATION: u64 = 2_000_000;
const SAMPLES_PER_ROUND: usize = 40_000;
const MAX_ROUNDS: usize = 16;

/// What one round of live traffic looks like to the controller: per-slice
/// request counts, per-slice median key hints (what the runtime's
/// reservoir would report), and the per-replica load it implies.
struct Observation {
    requests: Vec<u64>,
    medians: Vec<Option<u64>>,
    per_replica: Vec<u64>,
}

fn observe(
    assignment: &SliceAssignment,
    zipf: &Zipf,
    rng: &mut StdRng,
    key_cache: &mut HashMap<u64, u64>,
) -> Observation {
    let mut keys_per_slice: Vec<Vec<u64>> = vec![Vec::new(); assignment.slices.len()];
    for _ in 0..SAMPLES_PER_ROUND {
        let rank = zipf.sample(rng);
        let key = *key_cache
            .entry(rank)
            .or_insert_with(|| weaver_core::routing_key(&format!("user-{rank}")));
        let slice = assignment
            .slice_index_for(key)
            .expect("assignment covers the keyspace");
        keys_per_slice[slice].push(key);
    }
    let mut requests = Vec::with_capacity(keys_per_slice.len());
    let mut medians = Vec::with_capacity(keys_per_slice.len());
    let mut per_replica = vec![0u64; assignment.replica_count as usize];
    for (i, keys) in keys_per_slice.iter_mut().enumerate() {
        requests.push(keys.len() as u64);
        per_replica[assignment.slices[i].replica as usize] += keys.len() as u64;
        if keys.is_empty() {
            medians.push(None);
        } else {
            keys.sort_unstable();
            medians.push(Some(keys[keys.len() / 2]));
        }
    }
    Observation {
        requests,
        medians,
        per_replica,
    }
}

/// All slices piled onto replica 0 — the hot-replica worst case. Twelve
/// slices, so the Zipf head (rank 1 is ≈ 13% of all traffic, in one
/// unsplittable point of the hashed keyspace) lands its slice well above
/// the 2× hot threshold and the split path must fire, not just moves.
fn all_on_zero() -> SliceAssignment {
    let mut assignment = SliceAssignment::uniform(REPLICAS, 4);
    for slice in &mut assignment.slices {
        slice.replica = 0;
    }
    assignment
}

#[test]
fn zipfian_hot_start_converges_below_two_x_mean() {
    let zipf = Zipf::new(POPULATION, 1.1);
    let mut rng = StdRng::seed_from_u64(0x51_1CE5);
    let mut key_cache = HashMap::new();
    let controller = RebalanceController::new(ControllerOptions::default());

    let initial = all_on_zero();
    let mut current = initial.clone();
    let mut log = String::new();
    let mut converged_at = None;

    for round in 0..MAX_ROUNDS {
        let seen = observe(&current, &zipf, &mut rng, &mut key_cache);
        let plan = controller.plan(&current, &seen.requests, &seen.medians);
        log.push_str(&format!(
            "# round {round} load={:?} decisions={}\n",
            seen.per_replica,
            plan.decisions.len()
        ));
        log.push_str(&linelog::serialize(&plan.decisions));
        current = plan.assignment;

        // Converged = the *next* round's traffic lands below 2× the mean
        // on every replica, and keyspace shares are within 2× of each
        // other (no replica left owning a sliver).
        let seen = observe(&current, &zipf, &mut rng, &mut key_cache);
        let mean = SAMPLES_PER_ROUND as f64 / f64::from(REPLICAS);
        let max_load = seen.per_replica.iter().copied().max().unwrap_or(0) as f64;
        let shares = current.share_per_replica();
        let max_share = shares.iter().copied().fold(0.0f64, f64::max);
        let min_share = shares.iter().copied().fold(1.0f64, f64::min);
        if max_load < 2.0 * mean && min_share > 0.0 && max_share / min_share < 2.0 {
            converged_at = Some(round + 1);
            break;
        }
    }

    let artifact = linelog::write_artifact("rebalance-logs", "slicer-convergence-zipf", &log);
    assert!(artifact.is_some(), "golden log not written: \n{log}");

    let rounds = converged_at.unwrap_or_else(|| {
        panic!(
            "no convergence within {MAX_ROUNDS} rounds; shares {:?}\n{log}",
            current.share_per_replica()
        )
    });
    assert!(rounds <= MAX_ROUNDS, "took {rounds} rounds");

    // Every replica actually owns keyspace now.
    let shares = current.share_per_replica();
    assert_eq!(shares.len(), REPLICAS as usize);
    assert!(shares.iter().all(|s| *s > 0.0), "shares {shares:?}");

    // The golden log replays bit-for-bit: comments and all rounds parse
    // as one decision stream, and applying it to the starting assignment
    // reproduces the evolved assignment exactly.
    let parsed: Vec<RebalanceDecision> = linelog::parse(&log).expect("golden log parses");
    assert!(!parsed.is_empty(), "controller never decided anything");
    assert!(
        parsed
            .iter()
            .any(|d| matches!(d, RebalanceDecision::Split { .. })),
        "the hot slice was never split:\n{log}"
    );
    let replayed = apply_decisions(&initial, &parsed).expect("golden log replays");
    assert_eq!(replayed, current, "replay diverged from the live run");
}
