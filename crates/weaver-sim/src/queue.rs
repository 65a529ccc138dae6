//! Virtual time and ordered event delivery.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulated time in nanoseconds from simulation start.
pub type SimTime = u64;

/// One nanosecond-per-unit helper constants.
pub mod units {
    use super::SimTime;
    /// One microsecond.
    pub const US: SimTime = 1_000;
    /// One millisecond.
    pub const MS: SimTime = 1_000_000;
    /// One second.
    pub const S: SimTime = 1_000_000_000;
}

/// A time-ordered event queue with deterministic FIFO tie-breaking.
///
/// Events at equal timestamps pop in push order — the property the engine
/// relies on for reproducibility (and that the property test pins down).
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<(SimTime, u64, EventBox<E>)>>,
    seq: u64,
}

/// Wrapper that exempts the payload from ordering.
struct EventBox<E>(E);

impl<E> PartialEq for EventBox<E> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl<E> Eq for EventBox<E> {}
impl<E> PartialOrd for EventBox<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for EventBox<E> {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        self.heap.push(Reverse((at, self.seq, EventBox(event))));
        self.seq += 1;
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|Reverse((at, _, e))| (at, e.0))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, "c");
        q.push(10, "a");
        q.push(20, "b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(5, i);
        }
        for i in 0..10 {
            assert_eq!(q.pop(), Some((5, i)));
        }
    }
}
