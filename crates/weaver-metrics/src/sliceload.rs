//! Per-slice load accounting for routed components (Slicer's "load map").
//!
//! The routed router resolves every keyed call through a slice assignment;
//! this module is where those resolutions are counted. A
//! [`SliceLoadTracker`] keeps, per component, one request counter *and* a
//! small reservoir of observed keys per slice — counters tell the rebalance
//! controller *which* slice is hot, reservoirs tell it *where* to split
//! (the median observed key, so ~half the traffic lands on each piece even
//! when keys cluster at one end of the slice).
//!
//! Accounting is version-aware: observations are tagged with the slice
//! assignment's version and the tracker discards its state whenever the
//! version moves, so a controller never reads counters that mix two
//! assignments' slice indices. The hot path (`observe`) is a read-locked
//! map hit plus one atomic increment; reservoir writes sample 1-in-1 only
//! until the reservoir fills, then overwrite round-robin (cheap, and the
//! median of a round-robin-overwritten window tracks the recent
//! distribution, which is what a rebalancer wants anyway).

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;

/// Keys kept per slice for median estimation.
const RESERVOIR_CAP: usize = 64;

/// One component's per-slice accounting, valid for a single assignment
/// version.
struct ComponentLoad {
    /// Assignment version these counters were recorded against.
    version: u64,
    /// Requests per slice, indexed like the assignment's slice vector;
    /// a slice's count also drives its reservoir's round-robin overwrite.
    requests: Vec<AtomicU64>,
    /// Observed-key reservoirs, one per slice.
    samples: Vec<Mutex<Vec<u64>>>,
}

impl ComponentLoad {
    fn new(version: u64, slices: usize) -> Self {
        ComponentLoad {
            version,
            requests: (0..slices).map(|_| AtomicU64::new(0)).collect(),
            samples: (0..slices)
                .map(|_| Mutex::new(Vec::with_capacity(RESERVOIR_CAP)))
                .collect(),
        }
    }
}

/// A point-in-time report of one component's per-slice load, aligned with
/// the slice assignment of `version`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceLoadReport {
    /// Assignment version the observations were recorded against.
    pub version: u64,
    /// Requests per slice (same order as the assignment's slices).
    pub requests: Vec<u64>,
    /// Median observed key per slice; `None` where nothing was sampled.
    pub medians: Vec<Option<u64>>,
}

impl SliceLoadReport {
    /// Total requests across all slices.
    pub fn total(&self) -> u64 {
        self.requests.iter().sum()
    }
}

/// Per-component, per-slice request accounting for routed calls.
#[derive(Default)]
pub struct SliceLoadTracker {
    components: RwLock<HashMap<u32, ComponentLoad>>,
}

impl SliceLoadTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one routed resolution: component `component` sent `key` to
    /// the slice at `slice_index` under assignment `version` (which has
    /// `slice_count` slices). Stale-version state is discarded on the spot.
    pub fn observe(
        &self,
        component: u32,
        version: u64,
        slice_count: usize,
        slice_index: usize,
        key: u64,
    ) {
        {
            let components = self.components.read();
            if let Some(load) = components.get(&component) {
                if load.version == version && slice_index < load.requests.len() {
                    Self::bump(load, slice_index, key);
                    return;
                }
            }
        }
        // New component or new assignment version: (re)build the entry.
        let mut components = self.components.write();
        let load = components
            .entry(component)
            .or_insert_with(|| ComponentLoad::new(version, slice_count));
        if load.version != version || load.requests.len() != slice_count {
            *load = ComponentLoad::new(version, slice_count);
        }
        if slice_index < load.requests.len() {
            Self::bump(load, slice_index, key);
        }
    }

    fn bump(load: &ComponentLoad, slice_index: usize, key: u64) {
        let n = load.requests[slice_index].fetch_add(1, Ordering::Relaxed);
        let mut reservoir = load.samples[slice_index].lock();
        if reservoir.len() < RESERVOIR_CAP {
            reservoir.push(key);
        } else {
            reservoir[(n % RESERVOIR_CAP as u64) as usize] = key;
        }
    }

    /// The component's current report, or `None` when nothing was recorded
    /// (or everything recorded belongs to a version other than `version`).
    pub fn report(&self, component: u32, version: u64) -> Option<SliceLoadReport> {
        let components = self.components.read();
        let load = components.get(&component)?;
        if load.version != version {
            return None;
        }
        let requests: Vec<u64> = load
            .requests
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let medians = load
            .samples
            .iter()
            .map(|m| {
                let mut keys = m.lock().clone();
                if keys.is_empty() {
                    return None;
                }
                keys.sort_unstable();
                Some(keys[keys.len() / 2])
            })
            .collect();
        Some(SliceLoadReport {
            version: load.version,
            requests,
            medians,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_medians_per_slice() {
        let t = SliceLoadTracker::new();
        for key in [10u64, 20, 30] {
            t.observe(7, 1, 4, 0, key);
        }
        t.observe(7, 1, 4, 2, 1000);
        let report = t.report(7, 1).unwrap();
        assert_eq!(report.requests, vec![3, 0, 1, 0]);
        assert_eq!(report.medians[0], Some(20));
        assert_eq!(report.medians[1], None);
        assert_eq!(report.medians[2], Some(1000));
        assert_eq!(report.total(), 4);
    }

    #[test]
    fn version_change_resets_counters() {
        let t = SliceLoadTracker::new();
        t.observe(1, 1, 2, 0, 5);
        t.observe(1, 1, 2, 0, 5);
        // New assignment version: old counters must not leak into it.
        t.observe(1, 2, 3, 1, 9);
        assert!(t.report(1, 1).is_none(), "stale version still readable");
        let report = t.report(1, 2).unwrap();
        assert_eq!(report.requests, vec![0, 1, 0]);
    }

    #[test]
    fn reservoir_overwrites_but_keeps_counting() {
        let t = SliceLoadTracker::new();
        for key in 0..10_000u64 {
            t.observe(3, 1, 1, 0, key);
        }
        let report = t.report(3, 1).unwrap();
        assert_eq!(report.requests, vec![10_000]);
        // The reservoir holds recent keys; its median is near the recent
        // window, not the ancient one.
        let median = report.medians[0].expect("sampled");
        assert!(median > 5_000, "median {median} stuck in the first window");
    }

    #[test]
    fn unknown_component_or_out_of_range_slice_is_safe() {
        let t = SliceLoadTracker::new();
        assert!(t.report(9, 1).is_none());
        // Out-of-range index is dropped, not panicking.
        t.observe(9, 1, 2, 5, 1);
        let report = t.report(9, 1).unwrap();
        assert_eq!(report.requests, vec![0, 0]);
    }
}
