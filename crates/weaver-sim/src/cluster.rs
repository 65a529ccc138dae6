//! Pods, service groups, and autoscaling.

use std::collections::VecDeque;

use weaver_placement::{Autoscaler, AutoscalerConfig};
use weaver_routing::SliceAssignment;

use crate::queue::SimTime;

/// One pod: a single-core FIFO server (the demo deploys 1-CPU pods).
///
/// The pod is *work-conserving*: work starts the moment the CPU is free,
/// and queued work is explicit — the engine drives it with start/finish
/// events rather than booking future reservations.
#[derive(Debug, Clone, Default)]
pub struct Pod {
    /// Whether a slice is currently executing.
    pub running: bool,
    /// Queued work: `(request id, cpu nanoseconds)`.
    pub queue: VecDeque<(u64, SimTime)>,
    /// Busy nanoseconds accumulated in the current sampling window.
    pub busy_in_window: SimTime,
    /// Lifetime busy nanoseconds.
    pub busy_total: SimTime,
}

impl Pod {
    /// Offers a slice to the pod at time `now`.
    ///
    /// Returns `Some(completion_time)` if the slice starts immediately (the
    /// caller must schedule its completion); `None` if it was queued behind
    /// running work.
    pub fn offer(&mut self, now: SimTime, request: u64, cpu: SimTime) -> Option<SimTime> {
        if self.running {
            self.queue.push_back((request, cpu));
            return None;
        }
        self.running = true;
        self.busy_in_window += cpu;
        self.busy_total += cpu;
        Some(now + cpu)
    }

    /// Completes the running slice; if queued work exists, starts the next
    /// slice and returns `(request, completion_time)` for the caller to
    /// schedule.
    pub fn finish(&mut self, now: SimTime) -> Option<(u64, SimTime)> {
        debug_assert!(self.running, "finish without running slice");
        match self.queue.pop_front() {
            Some((request, cpu)) => {
                self.busy_in_window += cpu;
                self.busy_total += cpu;
                Some((request, now + cpu))
            }
            None => {
                self.running = false;
                None
            }
        }
    }
}

/// How calls pick a pod within a group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupRouting {
    /// Round robin over pods.
    RoundRobin,
    /// Slicer-style affinity on the call's routing key.
    Affinity,
}

/// One co-location group (one proclet binary / one k8s deployment).
///
/// Scale-down never removes pods from the vector (events hold pod
/// indices); it shrinks `active`, and pods beyond it drain their queues and
/// go idle — like k8s pod termination grace.
#[derive(Debug)]
pub struct ServiceGroup {
    /// Group name (joined component names).
    pub name: String,
    /// All pods ever created; only `0..active` receive new work.
    pub pods: Vec<Pod>,
    /// Number of pods receiving new work.
    pub active: usize,
    /// Pod-time accumulated over the measurement window (cores metric).
    pub pod_time: u128,
    /// Routing policy.
    pub routing: GroupRouting,
    /// Slice assignment when routing == Affinity.
    pub assignment: SliceAssignment,
    rr_next: usize,
    autoscaler: Autoscaler,
}

impl ServiceGroup {
    /// Creates a group with `pods` initial pods.
    pub fn new(
        name: impl Into<String>,
        pods: u32,
        routing: GroupRouting,
        hpa: AutoscalerConfig,
    ) -> ServiceGroup {
        let pods = pods.max(1) as usize;
        ServiceGroup {
            name: name.into(),
            pods: vec![Pod::default(); pods],
            active: pods,
            pod_time: 0,
            routing,
            assignment: SliceAssignment::uniform(pods as u32, 8),
            rr_next: 0,
            autoscaler: Autoscaler::new(hpa),
        }
    }

    /// Picks a pod index for a call.
    pub fn pick(&mut self, routing_key: Option<u64>) -> usize {
        match (self.routing, routing_key) {
            (GroupRouting::Affinity, Some(key)) => self
                .assignment
                .replica_for(key)
                .map(|r| r as usize % self.active)
                .unwrap_or(0),
            _ => {
                let i = self.rr_next % self.active;
                self.rr_next = self.rr_next.wrapping_add(1);
                i
            }
        }
    }

    /// Mean utilization of active pods over `window` nanoseconds, then
    /// clears window accumulators.
    pub fn utilization(&mut self, window: SimTime) -> f64 {
        if window == 0 || self.active == 0 {
            return 0.0;
        }
        let busy: SimTime = self.pods.iter().map(|p| p.busy_in_window).sum();
        for p in &mut self.pods {
            p.busy_in_window = 0;
        }
        busy as f64 / (window as f64 * self.active as f64)
    }

    /// Runs one HPA evaluation and applies the result. Returns the new
    /// active pod count.
    pub fn autoscale(&mut self, utilization: f64) -> u32 {
        let current = self.active as u32;
        let desired = self.autoscaler.evaluate(current, utilization);
        match (desired as usize).cmp(&self.active) {
            std::cmp::Ordering::Greater => {
                while self.pods.len() < desired as usize {
                    self.pods.push(Pod::default());
                }
                self.active = desired as usize;
                self.assignment = self.assignment.resize(desired);
            }
            std::cmp::Ordering::Less => {
                self.active = desired as usize;
                self.assignment = self.assignment.resize(desired);
            }
            std::cmp::Ordering::Equal => {}
        }
        desired
    }

    /// Accumulates pod-time for the cores metric.
    pub fn account_pod_time(&mut self, window: SimTime) {
        self.pod_time += u128::from(window) * self.active as u128;
    }

    /// Mean allocated cores over `total` nanoseconds of measurement.
    pub fn mean_cores(&self, total: SimTime) -> f64 {
        if total == 0 {
            return 0.0;
        }
        self.pod_time as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::units::*;

    fn group(pods: u32, routing: GroupRouting) -> ServiceGroup {
        ServiceGroup::new("g", pods, routing, AutoscalerConfig::default())
    }

    #[test]
    fn pod_runs_immediately_when_idle() {
        let mut pod = Pod::default();
        assert_eq!(pod.offer(100, 1, 50), Some(150));
        assert!(pod.running);
        // Second offer queues.
        assert_eq!(pod.offer(120, 2, 30), None);
        assert_eq!(pod.queue.len(), 1);
        // Finish starts queued work.
        assert_eq!(pod.finish(150), Some((2, 180)));
        assert_eq!(pod.finish(180), None);
        assert!(!pod.running);
        assert_eq!(pod.busy_total, 80);
    }

    #[test]
    fn pod_is_work_conserving() {
        let mut pod = Pod::default();
        pod.offer(0, 1, 10);
        pod.finish(10);
        // Idle gap; next offer starts at its own arrival, not after a
        // phantom reservation.
        assert_eq!(pod.offer(1000, 2, 10), Some(1010));
    }

    #[test]
    fn round_robin_cycles() {
        let mut g = group(3, GroupRouting::RoundRobin);
        let picks: Vec<usize> = (0..6).map(|_| g.pick(None)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn affinity_is_sticky() {
        let mut g = group(4, GroupRouting::Affinity);
        let first = g.pick(Some(0x9e3779b97f4a7c15));
        for _ in 0..10 {
            assert_eq!(g.pick(Some(0x9e3779b97f4a7c15)), first);
        }
        let _ = g.pick(Some(123456789));
        assert_eq!(g.pick(Some(0x9e3779b97f4a7c15)), first);
    }

    #[test]
    fn utilization_window_resets() {
        let mut g = group(2, GroupRouting::RoundRobin);
        g.pods[0].offer(0, 1, 500 * MS);
        let u = g.utilization(S);
        assert!((u - 0.25).abs() < 1e-9, "{u}");
        assert_eq!(g.utilization(S), 0.0);
    }

    #[test]
    fn autoscale_up_and_down() {
        let mut g = ServiceGroup::new(
            "g",
            2,
            GroupRouting::RoundRobin,
            AutoscalerConfig {
                stabilization_ticks: 1,
                ..Default::default()
            },
        );
        let up = g.autoscale(1.4);
        assert_eq!(up, 4);
        assert_eq!(g.active, 4);
        assert_eq!(g.assignment.replica_count, 4);
        let mut down = up;
        for _ in 0..10 {
            down = g.autoscale(0.01);
        }
        assert!(down < 4, "never scaled down: {down}");
        // Pods are kept for draining; only `active` shrinks.
        assert_eq!(g.pods.len(), 4);
        assert_eq!(g.active, down as usize);
    }

    #[test]
    fn scale_down_keeps_picks_in_active_range() {
        let mut g = ServiceGroup::new(
            "g",
            8,
            GroupRouting::RoundRobin,
            AutoscalerConfig {
                stabilization_ticks: 1,
                ..Default::default()
            },
        );
        for _ in 0..10 {
            g.autoscale(0.01);
        }
        for _ in 0..20 {
            assert!(g.pick(None) < g.active);
        }
    }

    #[test]
    fn pod_time_accounting() {
        let mut g = group(3, GroupRouting::RoundRobin);
        g.account_pod_time(S);
        g.account_pod_time(S);
        assert!((g.mean_cores(2 * S) - 3.0).abs() < 1e-9);
    }
}
