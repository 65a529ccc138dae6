//! Server-side dispatch: from transport request to component method.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use weaver_core::context::{CallContext, ComponentGetter};
use weaver_core::error::WeaverError;
use weaver_core::instance::LiveComponents;
use weaver_metrics::MetricsRegistry;
use weaver_transport::{BufferPool, RequestHeader, ResponseBody, RpcHandler, Status, WireBuf};

use crate::dedup::DedupCache;

/// A method runs on the reactor shard only while its recent handler time is
/// below this: the shard serves no other connection meanwhile, so the bound
/// is a few hand-offs' worth (one costs 10–20 µs), not a latency target.
const INLINE_BUDGET_NANOS: u64 = 50_000;

/// [`MethodStats::recent_nanos`] before any run has been measured.
const UNMEASURED: u64 = u64::MAX;

/// What the dispatcher keeps about one method of one component.
struct MethodStats {
    /// Server-side latency histogram, `component/method/handle_nanos`.
    handle_nanos: Arc<weaver_metrics::Histogram>,
    /// Recent handler time: a sample above the current value replaces it,
    /// a sample below pulls it down by an eighth of the gap. So one slow
    /// run takes a method off the reactor shard at once and a run of fast
    /// ones earns it back. [`UNMEASURED`] until a worker has run the method
    /// once.
    recent_nanos: AtomicU64,
}

impl MethodStats {
    /// Shard threads and workers record concurrently, and this value is
    /// what keeps a slow method off the shards, so the update is one
    /// read-modify-write: a fast sample racing a slow one decays the slow
    /// value, it can never overwrite it with a stale fast one.
    fn record(&self, nanos: u64) {
        self.handle_nanos.record(nanos);
        let _ = self
            .recent_nanos
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |before| {
                Some(if before == UNMEASURED || nanos >= before {
                    nanos
                } else {
                    before - (before - nanos) / 8
                })
            });
    }
}

/// The RPC handler a proclet installs on its data-plane server.
///
/// Responsibilities, in order: enforce the atomic-rollout version invariant
/// (§4.4), replay idempotent repeats from the dedup cache, ensure the
/// target component is started (Table 1: `StartComponent` semantics),
/// rebuild the [`CallContext`], dispatch, and record server-side latency.
pub struct ProcletDispatcher {
    live: Arc<LiveComponents>,
    getter: Arc<dyn ComponentGetter>,
    version: u64,
    /// Per (component, method) statistics, pre-registered so the hot path
    /// never formats names or takes the registry's write lock.
    methods: Vec<Vec<MethodStats>>,
    /// Busy-time accounting feeding the proclet's load reports (and thus
    /// the manager's autoscaler).
    busy: Arc<BusyTracker>,
    /// Completed keyed responses, replayed for retried requests instead of
    /// re-executing (shared across replicas of one process).
    dedup: Arc<DedupCache>,
    /// Recycled buffers for encoding error payloads without allocating.
    pool: BufferPool,
}

impl ProcletDispatcher {
    /// Builds a dispatcher for deployment `version` with its own dedup
    /// cache (single-replica processes).
    pub fn new(
        live: Arc<LiveComponents>,
        getter: Arc<dyn ComponentGetter>,
        version: u64,
        metrics: Arc<MetricsRegistry>,
    ) -> Self {
        Self::with_dedup(live, getter, version, metrics, Arc::new(DedupCache::new()))
    }

    /// Builds a dispatcher sharing `dedup` with sibling replicas, so an
    /// unrouted retry that lands on a different replica still finds the
    /// recorded response.
    pub fn with_dedup(
        live: Arc<LiveComponents>,
        getter: Arc<dyn ComponentGetter>,
        version: u64,
        metrics: Arc<MetricsRegistry>,
        dedup: Arc<DedupCache>,
    ) -> Self {
        let methods = live
            .registry()
            .iter()
            .map(|(_, registration)| {
                registration
                    .methods
                    .iter()
                    .map(|m| MethodStats {
                        handle_nanos: metrics
                            .histogram(&format!("{}/{}/handle_nanos", registration.name, m.name)),
                        recent_nanos: AtomicU64::new(UNMEASURED),
                    })
                    .collect()
            })
            .collect();
        ProcletDispatcher {
            live,
            getter,
            version,
            methods,
            busy: Arc::new(BusyTracker::new()),
            dedup,
            pool: BufferPool::global().clone(),
        }
    }

    /// The dedup cache this dispatcher consults (tests/observability).
    pub fn dedup_cache(&self) -> Arc<DedupCache> {
        Arc::clone(&self.dedup)
    }

    /// The dispatcher's busy tracker (shared with the proclet main loop).
    pub fn busy_tracker(&self) -> Arc<BusyTracker> {
        Arc::clone(&self.busy)
    }

    fn handle_inner(&self, header: &RequestHeader, args: &[u8]) -> Result<Vec<u8>, WeaverError> {
        if header.version != self.version {
            return Err(WeaverError::VersionMismatch {
                caller_version: header.version,
                callee_version: self.version,
            });
        }
        let registration = self.live.registry().get(header.component)?;
        let instance = self.live.get_or_start(header.component, &*self.getter)?;
        let ctx = CallContext {
            deadline: (header.deadline_nanos > 0)
                .then(|| Instant::now() + Duration::from_nanos(header.deadline_nanos)),
            trace_id: header.trace_id,
            span_id: header.span_id,
            version: self.version,
            // Outbound calls made while handling this request are attributed
            // to the component being dispatched.
            caller: registration.name,
        };
        (instance.dispatch)(header.method, &ctx, args)
    }

    fn method_stats(&self, header: &RequestHeader) -> Option<&MethodStats> {
        self.methods
            .get(header.component as usize)?
            .get(header.method as usize)
    }
}

impl RpcHandler for ProcletDispatcher {
    fn handle(&self, header: &RequestHeader, args: &[u8]) -> ResponseBody {
        // Replay completed keyed requests instead of re-executing. Strictly
        // after the version gate: a stale caller must still see
        // VersionMismatch, never a response recorded under the old version.
        if header.idempotency.is_some() && header.version == self.version {
            if let Some(replayed) = self.dedup.replay(header) {
                return replayed;
            }
        }
        let started = Instant::now();
        let outcome = self.handle_inner(header, args);
        let elapsed = started.elapsed();
        self.busy.record(elapsed);
        if let Some(stats) = self.method_stats(header) {
            stats.record(elapsed.as_nanos().min(u128::from(u64::MAX)) as u64);
        }
        match outcome {
            Ok(payload) => {
                let body = ResponseBody {
                    status: Status::Ok,
                    payload: WireBuf::from_vec(payload),
                };
                // Only completed executions are recorded (an Ok payload may
                // still carry an application-level error — that *is* the
                // method's answer and must replay identically). Runtime
                // errors below mean the method never ran: don't cache them.
                self.dedup.record(header, &body);
                body
            }
            Err(e) => {
                let mut buf = self.pool.get(64);
                weaver_codec::encode_into(&mut buf, &e);
                ResponseBody {
                    status: Status::Error,
                    payload: buf.freeze(),
                }
            }
        }
    }

    /// A request may run on the reactor shard when it cannot block there
    /// and will not hold it long, both judged from what the runtime has
    /// already seen — nothing is declared by the application:
    ///
    /// * the target is running and is a leaf: its `init` acquired no
    ///   component reference, so no method of it can make a nested call.
    ///   A component that is not started yet, or is awaiting re-init after
    ///   a restart, is constructed on a worker. (A restart landing between
    ///   this answer and `handle` re-runs a leaf's `init` on the shard
    ///   once; `init` of a leaf acquires nothing, so it cannot wait on the
    ///   network either.)
    /// * the method's recent handler time, first measured on a worker, is
    ///   under [`INLINE_BUDGET_NANOS`].
    fn inline_ok(&self, header: &RequestHeader) -> bool {
        self.method_stats(header)
            .is_some_and(|stats| stats.recent_nanos.load(Ordering::Relaxed) < INLINE_BUDGET_NANOS)
            && self.live.is_ready_leaf(header.component)
    }
}

/// Tracks the busy-time of request handling for utilization reporting.
///
/// `record` wraps each request; `utilization_since_reset` converts summed
/// busy time over wall time into the "mean busy cores" figure the
/// autoscaler consumes.
pub struct BusyTracker {
    busy_nanos: std::sync::atomic::AtomicU64,
    epoch: parking_lot::Mutex<Instant>,
}

impl Default for BusyTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl BusyTracker {
    /// Creates a tracker with the epoch at now.
    pub fn new() -> Self {
        BusyTracker {
            busy_nanos: std::sync::atomic::AtomicU64::new(0),
            epoch: parking_lot::Mutex::new(Instant::now()),
        }
    }

    /// Adds one handled request's busy time.
    pub fn record(&self, busy: Duration) {
        self.busy_nanos.fetch_add(
            busy.as_nanos().min(u128::from(u64::MAX)) as u64,
            std::sync::atomic::Ordering::Relaxed,
        );
    }

    /// Busy-cores since the last reset, then resets.
    pub fn utilization_since_reset(&self) -> f64 {
        let mut epoch = self.epoch.lock();
        let wall = epoch.elapsed();
        *epoch = Instant::now();
        let busy = self
            .busy_nanos
            .swap(0, std::sync::atomic::Ordering::Relaxed);
        if wall.is_zero() {
            return 0.0;
        }
        busy as f64 / wall.as_nanos() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weaver_core::context::Acquired;

    // Reuse the hand-rolled Echo component pattern for a dispatcher test.
    use std::sync::Arc;
    use weaver_core::client::ClientHandle;
    use weaver_core::component::{Component, ComponentInterface, MethodSpec};
    use weaver_core::context::InitContext;
    use weaver_core::registry::RegistryBuilder;

    trait Adder: Send + Sync + 'static {
        fn add(&self, ctx: &CallContext, a: u64, b: u64) -> Result<u64, WeaverError>;
    }

    struct AdderClient;
    impl Adder for AdderClient {
        fn add(&self, _: &CallContext, _: u64, _: u64) -> Result<u64, WeaverError> {
            unreachable!("not exercised")
        }
    }

    impl ComponentInterface for dyn Adder {
        const NAME: &'static str = "test.Adder";
        const METHODS: &'static [MethodSpec] = &[MethodSpec {
            name: "add",
            routed: false,
        }];
        fn client(_: ClientHandle) -> Arc<Self> {
            Arc::new(AdderClient)
        }
        fn dispatch(
            this: &Self,
            method: u32,
            ctx: &CallContext,
            args: &[u8],
        ) -> Result<Vec<u8>, WeaverError> {
            match method {
                0 => {
                    let (a, b): (u64, u64) = weaver_codec::decode_from_slice(args)?;
                    Ok(weaver_core::client::encode_reply(&this.add(ctx, a, b)))
                }
                m => Err(WeaverError::UnknownMethod {
                    component: Self::NAME.into(),
                    method: m,
                }),
            }
        }
    }

    struct AdderImpl;
    impl Adder for AdderImpl {
        fn add(&self, _: &CallContext, a: u64, b: u64) -> Result<u64, WeaverError> {
            Ok(a + b)
        }
    }
    impl Component for AdderImpl {
        type Interface = dyn Adder;
        fn init(_: &InitContext<'_>) -> Result<Self, WeaverError> {
            Ok(AdderImpl)
        }
        fn into_interface(self: Arc<Self>) -> Arc<dyn Adder> {
            self
        }
    }

    struct NoDeps;
    impl ComponentGetter for NoDeps {
        fn acquire(&self, name: &str) -> Result<Acquired, WeaverError> {
            Err(WeaverError::UnknownComponent { name: name.into() })
        }
    }

    fn dispatcher(version: u64) -> ProcletDispatcher {
        let registry = Arc::new(RegistryBuilder::new().register::<AdderImpl>().build());
        let live = Arc::new(LiveComponents::new(registry));
        ProcletDispatcher::new(
            live,
            Arc::new(NoDeps),
            version,
            Arc::new(MetricsRegistry::new()),
        )
    }

    fn header(version: u64, component: u32, method: u32) -> RequestHeader {
        RequestHeader {
            component,
            method,
            version,
            ..Default::default()
        }
    }

    #[test]
    fn dispatches_and_replies() {
        let d = dispatcher(1);
        let args = weaver_codec::encode_to_vec(&(2u64, 40u64));
        let resp = d.handle(&header(1, 0, 0), &args);
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(
            weaver_core::client::decode_reply::<u64>(&resp.payload).unwrap(),
            42
        );
    }

    #[test]
    fn version_mismatch_rejected() {
        let d = dispatcher(2);
        let args = weaver_codec::encode_to_vec(&(1u64, 1u64));
        let resp = d.handle(&header(1, 0, 0), &args);
        assert_eq!(resp.status, Status::Error);
        let e: WeaverError = weaver_codec::decode_from_slice(&resp.payload).unwrap();
        assert_eq!(
            e,
            WeaverError::VersionMismatch {
                caller_version: 1,
                callee_version: 2
            }
        );
    }

    #[test]
    fn unknown_component_and_method() {
        let d = dispatcher(1);
        let resp = d.handle(&header(1, 9, 0), &[]);
        assert_eq!(resp.status, Status::Error);
        let resp = d.handle(&header(1, 0, 9), &[]);
        assert_eq!(resp.status, Status::Error);
        let e: WeaverError = weaver_codec::decode_from_slice(&resp.payload).unwrap();
        assert!(matches!(e, WeaverError::UnknownMethod { .. }));
    }

    #[test]
    fn corrupt_args_are_codec_error_not_crash() {
        let d = dispatcher(1);
        let resp = d.handle(&header(1, 0, 0), &[0xff]);
        assert_eq!(resp.status, Status::Error);
        let e: WeaverError = weaver_codec::decode_from_slice(&resp.payload).unwrap();
        assert!(matches!(e, WeaverError::Codec { .. }));
    }

    #[test]
    fn keyed_repeat_replays_without_reexecuting() {
        let d = dispatcher(1);
        let mut h = header(1, 0, 0);
        h.idempotency = Some(99);
        let first = d.handle(&h, &weaver_codec::encode_to_vec(&(2u64, 40u64)));
        assert_eq!(first.status, Status::Ok);
        // Same key, *different* args: a replay must return the recorded
        // answer — proof the method did not run again.
        h.attempt = 1;
        let second = d.handle(&h, &weaver_codec::encode_to_vec(&(1u64, 1u64)));
        assert_eq!(
            weaver_core::client::decode_reply::<u64>(&second.payload).unwrap(),
            42
        );
        assert_eq!(d.dedup_cache().hits(), 1);
    }

    #[test]
    fn keyless_requests_always_execute() {
        let d = dispatcher(1);
        let h = header(1, 0, 0);
        let a = d.handle(&h, &weaver_codec::encode_to_vec(&(2u64, 40u64)));
        let b = d.handle(&h, &weaver_codec::encode_to_vec(&(1u64, 1u64)));
        assert_eq!(
            weaver_core::client::decode_reply::<u64>(&a.payload).unwrap(),
            42
        );
        assert_eq!(
            weaver_core::client::decode_reply::<u64>(&b.payload).unwrap(),
            2
        );
        assert_eq!(d.dedup_cache().entries(), 0);
    }

    #[test]
    fn version_mismatch_is_not_replayed_or_cached() {
        let d = dispatcher(2);
        let mut h = header(1, 0, 0);
        h.idempotency = Some(7);
        let resp = d.handle(&h, &weaver_codec::encode_to_vec(&(1u64, 1u64)));
        assert_eq!(resp.status, Status::Error);
        assert_eq!(d.dedup_cache().entries(), 0);
        // A correctly-stamped request with the same key must execute, not
        // replay the mismatch.
        h.version = 2;
        let resp = d.handle(&h, &weaver_codec::encode_to_vec(&(20u64, 1u64)));
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(
            weaver_core::client::decode_reply::<u64>(&resp.payload).unwrap(),
            21
        );
    }

    #[test]
    fn handle_latency_recorded() {
        let registry = Arc::new(RegistryBuilder::new().register::<AdderImpl>().build());
        let live = Arc::new(LiveComponents::new(registry));
        let metrics = Arc::new(MetricsRegistry::new());
        let d = ProcletDispatcher::new(live, Arc::new(NoDeps), 1, Arc::clone(&metrics));
        let args = weaver_codec::encode_to_vec(&(1u64, 2u64));
        d.handle(&header(1, 0, 0), &args);
        let snap = metrics.snapshot();
        assert!(snap.get("test.Adder/add/handle_nanos").is_some());
    }

    #[test]
    fn only_a_measured_cheap_method_of_a_running_leaf_is_inlined() {
        let d = dispatcher(1);
        let h = header(1, 0, 0);
        let args = weaver_codec::encode_to_vec(&(1u64, 2u64));
        assert!(!d.inline_ok(&h), "not started, never measured");
        d.handle(&h, &args);
        assert!(d.inline_ok(&h), "a leaf whose add took well under 50 µs");
        assert!(!d.inline_ok(&header(1, 0, 9)), "unknown method");
        assert!(!d.inline_ok(&header(1, 9, 0)), "unknown component");

        // One slow sample demotes at once; fast ones earn it back slowly.
        d.method_stats(&h).unwrap().record(5_000_000);
        assert!(!d.inline_ok(&h));
        d.handle(&h, &args);
        assert!(!d.inline_ok(&h), "one fast run does not undo a 5 ms one");
        for _ in 0..64 {
            d.handle(&h, &args);
        }
        assert!(d.inline_ok(&h), "64 fast runs do");

        // Awaiting re-init after a crash: construction stays on a worker.
        d.live.restart(0);
        assert!(!d.inline_ok(&h));
        d.handle(&h, &args);
        assert!(d.inline_ok(&h));
    }

    #[test]
    fn busy_tracker_math() {
        let t = BusyTracker::new();
        t.record(Duration::from_millis(10));
        t.record(Duration::from_millis(10));
        std::thread::sleep(Duration::from_millis(40));
        let u = t.utilization_since_reset();
        // 20ms busy over ≥40ms wall: utilization in (0, 1).
        assert!(u > 0.05 && u < 1.0, "utilization {u}");
        // Reset: immediately asking again is ~0.
        let u2 = t.utilization_since_reset();
        assert!(u2 < 0.2, "after reset {u2}");
    }
}
