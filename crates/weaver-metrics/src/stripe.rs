//! Per-thread stripes for per-call bookkeeping.
//!
//! A counter that every calling thread adds to is one cache line that every
//! core keeps stealing from the others: two threads making marshaled calls
//! at once each paid more than twice a lone thread's cost per call, and the
//! difference was the runtime's own accounting, not the application. So a
//! value written on every call keeps one copy per stripe, each on a cache
//! line of its own; a thread writes only its own stripe's copy, and a
//! reader sums the copies.
//!
//! Threads are dealt stripes round-robin at their first use. The stripe
//! count is a constant, not a knob: it only has to exceed the number of
//! threads that call at once on a small host, and each extra stripe costs
//! every striped value one more (lazily allocated) copy.

use std::cell::Cell;
use std::ops::Deref;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// How many copies a striped value keeps.
pub const STRIPES: usize = 8;

/// The calling thread's stripe, in `0..STRIPES`.
#[inline]
pub fn stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    STRIPE.with(|s| match s.get() {
        usize::MAX => {
            let dealt = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
            s.set(dealt);
            dealt
        }
        dealt => dealt,
    })
}

/// A value on a cache line of its own: no neighbour's write invalidates it.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CacheLine<T>(pub T);

impl<T> Deref for CacheLine<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// One `T` per stripe, each on its own cache line and allocated the first
/// time a thread of that stripe asks for it.
pub struct Striped<T> {
    stripes: [OnceLock<Box<CacheLine<T>>>; STRIPES],
}

impl<T> Default for Striped<T> {
    fn default() -> Self {
        Striped {
            stripes: Default::default(),
        }
    }
}

impl<T: Default> Striped<T> {
    /// The calling thread's copy, created on first use.
    #[inline]
    pub fn local(&self) -> &T {
        self.stripes[stripe()].get_or_init(Box::default)
    }
}

impl<T> Striped<T> {
    /// Every copy created so far.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.stripes.iter().filter_map(|s| s.get().map(|b| &b.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn a_thread_keeps_its_stripe() {
        let mine = stripe();
        assert!(mine < STRIPES);
        assert_eq!(stripe(), mine);
    }

    #[test]
    fn threads_are_dealt_different_stripes() {
        let dealt: Vec<usize> = (0..STRIPES)
            .map(|_| std::thread::spawn(stripe).join().unwrap())
            .collect();
        // Round-robin: consecutive first uses land on consecutive stripes
        // (other tests' threads may interleave, so only require spread).
        let mut distinct = dealt.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(distinct.len() > 1, "{dealt:?}");
    }

    #[test]
    fn striped_creates_only_the_copies_in_use() {
        let s: Striped<AtomicU64> = Striped::default();
        assert_eq!(s.iter().count(), 0);
        s.local().fetch_add(3, Ordering::Relaxed);
        s.local().fetch_add(4, Ordering::Relaxed);
        assert_eq!(s.iter().count(), 1);
        assert_eq!(s.iter().map(|c| c.load(Ordering::Relaxed)).sum::<u64>(), 7);
    }
}
