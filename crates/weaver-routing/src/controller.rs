//! The rebalance controller: observed load in, slice decisions out.
//!
//! Slicer's control loop (Adya et al.) is a pure function from observed
//! per-slice load to a small set of assignment edits: split the slices that
//! are hot, move slices off overloaded replicas. This module keeps that
//! purity — [`RebalanceController::plan`] touches no clocks, no sockets and
//! no shared state, so the same inputs always produce the same
//! [`RebalanceDecision`] list. Decisions serialize to a line-based text log
//! (a [`weaver_codec::linelog`] [`Record`]) and replay verbatim with
//! [`apply_decisions`], which makes every live rebalance a replayable
//! artifact: the convergence test checks its golden log in, and a failing
//! chaos run uploads the decision trail that led to the bad assignment.
//!
//! The *execution* of a plan (freeze, state handoff, epoch bump) lives in
//! the runtime; the controller only ever proposes.

use std::str::SplitWhitespace;

use weaver_codec::linelog::{self, Record};

use crate::slice::{Slice, SliceAssignment};

/// Controller tunables.
#[derive(Debug, Clone)]
pub struct ControllerOptions {
    /// A slice is "hot" when its load exceeds `hot_factor ×` the mean
    /// per-slice load. Slicer's production default is around 2.
    pub hot_factor: f64,
    /// Headroom a replica may carry over the even share before the greedy
    /// pass moves slices off it (fraction of the even share).
    pub headroom: f64,
    /// Cap on slices after splitting, to bound lookup depth and churn.
    pub max_slices: usize,
}

impl Default for ControllerOptions {
    fn default() -> Self {
        ControllerOptions {
            hot_factor: 2.0,
            headroom: 0.25,
            max_slices: 256,
        }
    }
}

/// One edit to a [`SliceAssignment`], keyed by a key the target slice owns
/// (not by index) so a decision list replays against the evolving
/// assignment regardless of how earlier decisions shifted indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RebalanceDecision {
    /// Split the slice owning `at` at `at` (pre-clamped into the interior).
    Split {
        /// The split point; also identifies the slice to split.
        at: u64,
    },
    /// Move the slice owning `key` to replica `to`.
    Move {
        /// Any key the slice owns; its start in practice.
        key: u64,
        /// Destination replica index.
        to: u32,
    },
}

/// What one controller round proposed.
#[derive(Debug, Clone)]
pub struct RebalancePlan {
    /// Edits, in application order (splits first, then moves).
    pub decisions: Vec<RebalanceDecision>,
    /// The assignment after applying every decision to the input.
    pub assignment: SliceAssignment,
    /// Slice→replica mappings that changed (affinity churn).
    pub moved: usize,
}

impl RebalancePlan {
    /// Whether the round proposed nothing (already balanced).
    pub fn is_noop(&self) -> bool {
        self.decisions.is_empty()
    }
}

/// Plans rebalances from per-slice load observations.
#[derive(Debug, Clone, Default)]
pub struct RebalanceController {
    options: ControllerOptions,
}

impl RebalanceController {
    /// A controller with explicit tunables.
    pub fn new(options: ControllerOptions) -> Self {
        RebalanceController { options }
    }

    /// One control round: given the current assignment, per-slice request
    /// counts, and per-slice median observed keys (all indexed like
    /// `assignment.slices`; medians may be `None` where no sample exists),
    /// produce the decisions that split hot slices at their median and
    /// re-spread load across replicas.
    ///
    /// Deterministic: no RNG, no clock. Returns a no-op plan when load is
    /// already within bounds.
    ///
    /// # Panics
    ///
    /// Panics if `load.len()` does not match the slice count — feeding a
    /// stale load vector to a newer assignment is a caller bug.
    pub fn plan(
        &self,
        assignment: &SliceAssignment,
        load: &[u64],
        medians: &[Option<u64>],
    ) -> RebalancePlan {
        assert_eq!(
            load.len(),
            assignment.slices.len(),
            "load vector must match slice count"
        );
        let noop = |a: &SliceAssignment| RebalancePlan {
            decisions: Vec::new(),
            assignment: a.clone(),
            moved: 0,
        };
        if assignment.slices.is_empty() || assignment.replica_count == 0 {
            return noop(assignment);
        }
        let total: u64 = load.iter().sum();
        if total == 0 {
            return noop(assignment);
        }
        let mut decisions = Vec::new();

        // Pass 1 — split hot slices at their median observed key. Loads
        // carry over: the median by construction puts ~half the observed
        // traffic on each side.
        let mean = (total / assignment.slices.len() as u64).max(1);
        let hot = (mean as f64 * self.options.hot_factor) as u64;
        let mut pieces: Vec<(Slice, u64)> = Vec::with_capacity(assignment.slices.len());
        for (i, (slice, &l)) in assignment.slices.iter().zip(load).enumerate() {
            let room = pieces.len() + (assignment.slices.len() - i) < self.options.max_slices;
            let split = (l > hot && room)
                .then(|| {
                    let desired = medians
                        .get(i)
                        .copied()
                        .flatten()
                        .unwrap_or(slice.start + (slice.end - slice.start) / 2);
                    SliceAssignment::clamp_split_point(slice.start, slice.end, desired)
                })
                .flatten();
            if let Some(at) = split {
                decisions.push(RebalanceDecision::Split { at });
                pieces.push((
                    Slice {
                        start: slice.start,
                        end: at,
                        replica: slice.replica,
                    },
                    l / 2,
                ));
                pieces.push((
                    Slice {
                        start: at,
                        end: slice.end,
                        replica: slice.replica,
                    },
                    l - l / 2,
                ));
            } else {
                pieces.push((slice.clone(), l));
            }
        }

        // Pass 2 — greedy spreading, hottest-first: keep a piece home while
        // home stays under the even share plus headroom, else send it to
        // the least-loaded replica.
        let even = (total / u64::from(assignment.replica_count)).max(1);
        let keep_below = even + (even as f64 * self.options.headroom) as u64;
        let mut replica_load = vec![0u64; assignment.replica_count as usize];
        let mut order: Vec<usize> = (0..pieces.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(pieces[i].1));
        let mut moved = 0usize;
        for i in order {
            let (slice, l) = &mut pieces[i];
            let home = slice.replica as usize;
            let keep = home < replica_load.len() && replica_load[home] + *l <= keep_below;
            let dest = if keep {
                home
            } else {
                replica_load
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &v)| v)
                    .map(|(r, _)| r)
                    .expect("replica_count > 0")
            };
            if dest != home {
                moved += 1;
                slice.replica = dest as u32;
                decisions.push(RebalanceDecision::Move {
                    key: slice.start,
                    to: dest as u32,
                });
            }
            replica_load[dest] += *l;
        }

        if decisions.is_empty() {
            return noop(assignment);
        }
        let planned = apply_decisions(assignment, &decisions)
            .expect("planned decisions must apply to the assignment they were planned against");
        debug_assert_eq!(planned.validate(), Ok(()));
        RebalancePlan {
            decisions,
            assignment: planned,
            moved,
        }
    }
}

/// Replays a decision list against `base`, returning the resulting
/// assignment — the replay half of the golden-log contract: applying a
/// parsed log to the assignment it was recorded against reproduces the
/// controller's output bit for bit (modulo nothing: versions bump once per
/// decision on both paths).
///
/// Returns `Err` with the offending decision when one cannot apply (split
/// point outside any splittable slice, move to an unknown replica).
pub fn apply_decisions(
    base: &SliceAssignment,
    decisions: &[RebalanceDecision],
) -> Result<SliceAssignment, String> {
    let mut current = base.clone();
    for d in decisions {
        current = match *d {
            RebalanceDecision::Split { at } => current
                .split_at(at)
                .ok_or_else(|| format!("split {at:#x} does not apply"))?,
            RebalanceDecision::Move { key, to } => current
                .move_slice(key, to)
                .ok_or_else(|| format!("move {key:#x} -> {to} does not apply"))?,
        };
    }
    Ok(current)
}

/// The line-log form ([`weaver_codec::linelog`]):
///
/// ```text
/// split 0x7fffffffffffffff
/// move 0x8000000000000000 2
/// ```
///
/// Keys are hex (the keyspace is hashed; decimal reads as noise), replicas
/// decimal.
impl Record for RebalanceDecision {
    fn to_line(&self) -> String {
        match self {
            RebalanceDecision::Split { at } => format!("split {at:#x}"),
            RebalanceDecision::Move { key, to } => format!("move {key:#x} {to}"),
        }
    }

    fn from_line(verb: &str, fields: &mut SplitWhitespace<'_>) -> Result<Self, String> {
        let mut key = || {
            let token = fields.next().ok_or("missing key")?;
            match token.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => token.parse(),
            }
            .map_err(|e| format!("bad key {token:?}: {e}"))
        };
        match verb {
            "split" => Ok(RebalanceDecision::Split { at: key()? }),
            "move" => Ok(RebalanceDecision::Move {
                key: key()?,
                to: linelog::field(fields, "replica")?,
            }),
            other => Err(format!("unknown verb {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hot_on_first(a: &SliceAssignment) -> (Vec<u64>, Vec<Option<u64>>) {
        let mut load = vec![10u64; a.slices.len()];
        load[0] = 100_000;
        let mid = a.slices[0].start + (a.slices[0].end - a.slices[0].start) / 3;
        let mut medians = vec![None; a.slices.len()];
        medians[0] = Some(mid);
        (load, medians)
    }

    #[test]
    fn plan_splits_hot_slice_at_median() {
        let a = SliceAssignment::uniform(3, 2);
        let (load, medians) = hot_on_first(&a);
        let controller = RebalanceController::default();
        let plan = controller.plan(&a, &load, &medians);
        assert!(!plan.is_noop());
        assert_eq!(plan.assignment.validate(), Ok(()));
        let at = medians[0].unwrap();
        assert!(
            plan.decisions.contains(&RebalanceDecision::Split { at }),
            "expected split at the median: {:?}",
            plan.decisions
        );
        // The split landed: `at` begins a slice in the new assignment.
        assert!(plan.assignment.slices.iter().any(|s| s.start == at));
    }

    #[test]
    fn plan_is_deterministic_and_noop_when_balanced() {
        let a = SliceAssignment::uniform(4, 8);
        let controller = RebalanceController::default();
        let load = vec![100u64; a.slices.len()];
        let medians = vec![None; a.slices.len()];
        let p1 = controller.plan(&a, &load, &medians);
        let p2 = controller.plan(&a, &load, &medians);
        assert_eq!(p1.decisions, p2.decisions);
        assert!(
            p1.is_noop(),
            "uniform load must not churn: {:?}",
            p1.decisions
        );
        // Zero traffic: nothing to plan from.
        assert!(controller
            .plan(&a, &vec![0; a.slices.len()], &medians)
            .is_noop());
    }

    #[test]
    fn decisions_round_trip_and_replay() {
        let a = SliceAssignment::uniform(3, 4);
        let (load, medians) = hot_on_first(&a);
        let plan = RebalanceController::default().plan(&a, &load, &medians);
        assert!(!plan.is_noop());

        let text = linelog::serialize(&plan.decisions);
        let parsed: Vec<RebalanceDecision> = linelog::parse(&text).unwrap();
        assert_eq!(parsed, plan.decisions);
        // Replaying the parsed log reproduces the planned assignment.
        let replayed = apply_decisions(&a, &parsed).unwrap();
        assert_eq!(replayed, plan.assignment);
    }

    #[test]
    fn parse_rejects_junk_and_skips_comments() {
        let parse = linelog::parse::<RebalanceDecision>;
        assert_eq!(
            parse("# round 1\n\nsplit 0x10\nmove 32 1\n").unwrap(),
            vec![
                RebalanceDecision::Split { at: 0x10 },
                RebalanceDecision::Move { key: 32, to: 1 },
            ]
        );
        let err = parse("# round 1\nexplode 0x10\n").unwrap_err();
        assert!(err.starts_with("line 2: unknown verb"), "{err}");
        assert!(parse("split\n").is_err());
        assert!(parse("move 0x10\n").is_err());
        assert!(parse("split 0x10 trailing\n").is_err());
        assert!(parse("split zz\n").is_err());
    }

    #[test]
    fn apply_reports_inapplicable_decisions() {
        let a = SliceAssignment::uniform(2, 4);
        let bad_move = vec![RebalanceDecision::Move { key: 0, to: 9 }];
        assert!(apply_decisions(&a, &bad_move).is_err());
    }

    #[test]
    fn max_slices_caps_splitting() {
        let a = SliceAssignment::uniform(2, 2);
        let controller = RebalanceController::new(ControllerOptions {
            max_slices: 4,
            ..Default::default()
        });
        // Every slice hot: without the cap all four would split to eight.
        let load = vec![1_000_000u64; a.slices.len()];
        let medians = vec![None; a.slices.len()];
        let plan = controller.plan(&a, &load, &medians);
        assert!(plan.assignment.slices.len() <= 4);
        assert_eq!(plan.assignment.validate(), Ok(()));
    }
}
