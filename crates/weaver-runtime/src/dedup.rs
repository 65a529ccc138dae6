//! Server-side idempotency: a bounded dedup cache of completed responses.
//!
//! A retry after an *ambiguous* failure (the connection severed after the
//! request was written) may reach a callee that already executed the
//! request. When the request carried an idempotency key, the dispatcher
//! records the completed response under `(component, method, key)` and
//! replays it for any repeat of the same key instead of re-executing the
//! method — turning the client's at-least-once retry into exactly-once
//! execution as observed by application code.
//!
//! Scope and bounds:
//!
//! * Only **completed executions** are recorded (the dispatcher produced a
//!   reply payload, which includes application-level errors). Runtime
//!   failures — version mismatch, unknown component, injected faults —
//!   are never cached: the method did not run, so a retry must run it.
//! * The cache is bounded **per (component, method)**: each method keeps
//!   at most 1024 entries and evicts the oldest recorded key first
//!   (insertion-order FIFO). One chatty method cannot evict another
//!   method's in-flight retry window.
//! * Each server owns its cache; nothing shares one across replicas. That
//!   is enough because a retry that may replay goes back to the replica
//!   that may have run the first attempt (see `crate::router`).

use std::collections::{HashMap, VecDeque};

use parking_lot::Mutex;

use weaver_transport::{RequestHeader, ResponseBody};

/// Per-(component, method) entry bound. Sized for a retry window, not a
/// history: a key only needs to survive until the client's single retry
/// arrives.
const CAPACITY: usize = 1024;

/// One method's recorded responses plus FIFO eviction order.
#[derive(Default)]
struct MethodCache {
    /// key → the completed response, sharing the sent reply's storage.
    entries: HashMap<u64, ResponseBody>,
    /// Keys in insertion order; front is evicted first.
    order: VecDeque<u64>,
}

/// Bounded per-(component, method) cache of completed responses, keyed by
/// the request's idempotency key.
///
/// On a cache line of its own: a dispatcher holds it by value, and the lock
/// word, written by every keyed call, must not share a line with the
/// fields every call only reads.
#[derive(Default)]
#[repr(align(64))]
pub struct DedupCache {
    methods: Mutex<HashMap<(u32, u32), MethodCache>>,
}

impl DedupCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replays the recorded response for `header`'s idempotency key, if the
    /// exact (component, method, key) completed before.
    pub fn replay(&self, header: &RequestHeader) -> Option<ResponseBody> {
        let key = header.idempotency?;
        let methods = self.methods.lock();
        methods
            .get(&(header.component, header.method))?
            .entries
            .get(&key)
            .cloned()
    }

    /// Records a completed response under `header`'s idempotency key,
    /// evicting the oldest key of the same (component, method) at the
    /// bound. No-op for keyless requests.
    ///
    /// The entry shares `body`'s storage (a refcount bump, not a copy).
    /// The dispatcher's `Ok` bodies are unpooled `Vec`s, so no entry pins
    /// a pooled receive frame.
    pub fn record(&self, header: &RequestHeader, body: &ResponseBody) {
        let Some(key) = header.idempotency else {
            return;
        };
        let mut methods = self.methods.lock();
        let method = methods
            .entry((header.component, header.method))
            .or_default();
        if method.entries.insert(key, body.clone()).is_none() {
            method.order.push_back(key);
            while method.order.len() > CAPACITY {
                if let Some(oldest) = method.order.pop_front() {
                    method.entries.remove(&oldest);
                }
            }
        }
    }

    /// Total recorded entries across all methods.
    pub fn entries(&self) -> usize {
        self.methods.lock().values().map(|m| m.entries.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weaver_transport::{Status, WireBuf};

    fn header(component: u32, method: u32, key: Option<u64>) -> RequestHeader {
        RequestHeader {
            component,
            method,
            version: 1,
            idempotency: key,
            ..Default::default()
        }
    }

    fn ok_body(byte: u8) -> ResponseBody {
        ResponseBody {
            status: Status::Ok,
            payload: WireBuf::from_vec(vec![byte]),
        }
    }

    #[test]
    fn records_and_replays_by_key() {
        let cache = DedupCache::new();
        assert!(cache.replay(&header(0, 0, Some(7))).is_none());
        cache.record(&header(0, 0, Some(7)), &ok_body(42));
        let replayed = cache.replay(&header(0, 0, Some(7))).unwrap();
        assert_eq!(replayed.status, Status::Ok);
        assert_eq!(&replayed.payload[..], &[42]);
    }

    /// An entry is the sent reply itself: every replay shares its storage.
    #[test]
    fn replays_share_the_recorded_payload() {
        let cache = DedupCache::new();
        let sent = ok_body(42);
        cache.record(&header(0, 0, Some(7)), &sent);
        for _ in 0..2 {
            let replayed = cache.replay(&header(0, 0, Some(7))).unwrap();
            assert_eq!(replayed.payload.as_ptr(), sent.payload.as_ptr());
        }
    }

    #[test]
    fn keys_are_scoped_per_component_and_method() {
        let cache = DedupCache::new();
        cache.record(&header(1, 2, Some(7)), &ok_body(1));
        assert!(cache.replay(&header(1, 3, Some(7))).is_none());
        assert!(cache.replay(&header(2, 2, Some(7))).is_none());
        assert!(cache.replay(&header(1, 2, Some(8))).is_none());
        assert!(cache.replay(&header(1, 2, Some(7))).is_some());
    }

    #[test]
    fn keyless_requests_are_never_cached() {
        let cache = DedupCache::new();
        cache.record(&header(0, 0, None), &ok_body(1));
        assert_eq!(cache.entries(), 0);
        assert!(cache.replay(&header(0, 0, None)).is_none());
    }

    /// Records keys `from..from + n` of method (0, 0).
    fn fill(cache: &DedupCache, from: u64, n: usize) {
        for key in from..from + n as u64 {
            cache.record(&header(0, 0, Some(key)), &ok_body(key as u8));
        }
    }

    #[test]
    fn eviction_is_fifo_and_per_method() {
        let cache = DedupCache::new();
        fill(&cache, 1, CAPACITY + 1);
        // Oldest key of the full method evicted...
        assert!(cache.replay(&header(0, 0, Some(1))).is_none());
        assert!(cache.replay(&header(0, 0, Some(2))).is_some());
        assert!(cache
            .replay(&header(0, 0, Some(CAPACITY as u64 + 1)))
            .is_some());
        // ...but another method's entries are untouched by that pressure.
        cache.record(&header(0, 1, Some(9)), &ok_body(9));
        fill(&cache, CAPACITY as u64 + 2, 1);
        assert!(cache.replay(&header(0, 1, Some(9))).is_some());
    }

    #[test]
    fn re_recording_same_key_does_not_grow_order() {
        let cache = DedupCache::new();
        for _ in 0..10 {
            cache.record(&header(0, 0, Some(0)), &ok_body(0));
        }
        // Had each repeat taken a place in the order, filling the rest of
        // the bound would evict the key.
        fill(&cache, 1, CAPACITY - 1);
        assert!(cache.replay(&header(0, 0, Some(0))).is_some());
        assert!(cache
            .replay(&header(0, 0, Some(CAPACITY as u64 - 1)))
            .is_some());
        assert_eq!(cache.entries(), CAPACITY);
    }
}
