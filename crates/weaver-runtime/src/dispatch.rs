//! Server-side dispatch: from request to component method.
//!
//! One path for every deployer: a server's [`ProcletDispatcher`] and the
//! marshaled single-process deployer both run `admit` then `invoke`. A
//! server also keeps the migration fence of the keys it owns.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::RwLock;

use weaver_core::context::{CallContext, ComponentGetter};
use weaver_core::error::WeaverError;
use weaver_core::instance::LiveComponents;
use weaver_metrics::MetricsRegistry;
use weaver_transport::{
    BufferPool, Endpoint, RequestHeader, ResponseBody, RpcHandler, Server, Status, ToEndpoint,
    TransportError, WeaverFraming, WireBuf,
};

use crate::dedup::DedupCache;
use crate::router::RoutingTable;
use crate::single::ComponentFault;

/// A method runs on the reactor poller only while its recent handler time is
/// below this: the poller serves no other connection meanwhile, so the bound
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
    /// run takes a method off the reactor poller at once and a run of fast
    /// ones earns it back. [`UNMEASURED`] until a worker has run the method
    /// once.
    recent_nanos: AtomicU64,
    /// Whether the method passes the migration fence: all but the state
    /// handoff pair, which the migration itself calls under the fence.
    fenced: bool,
}

impl MethodStats {
    /// The poller and workers record concurrently, and this value is
    /// what keeps a slow method off the poller, so the update is one
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

/// The faults installed on a deployment's components, by component name
/// (weavertest / chaos hooks, §5.3). Every dispatcher checks one on
/// admission; outside a chaos test it stays empty.
///
/// On a cache line of its own: calls only read it while nothing is
/// installed, and a neighbouring field that is written per call would make
/// every one of those reads a miss.
#[derive(Default)]
#[repr(align(64))]
pub struct FaultMap {
    /// How many entries `by_component` holds. Every call on every replica
    /// asks whether its target is faulted and, outside a chaos test, the
    /// answer is no: reading this first keeps those calls off the lock
    /// word, which every calling thread would otherwise write.
    installed: AtomicUsize,
    by_component: RwLock<HashMap<String, ComponentFault>>,
}

impl FaultMap {
    /// Installs `fault` on `component`; the default value clears it.
    pub(crate) fn install(&self, component: &str, fault: ComponentFault) {
        let mut faults = self.by_component.write();
        if fault.is_noop() {
            faults.remove(component);
        } else {
            faults.insert(component.to_string(), fault);
        }
        self.installed.store(faults.len(), Ordering::Release);
    }

    /// Whether a call to `component` would currently be failed or delayed.
    fn is_active(&self, component: &str) -> bool {
        self.installed.load(Ordering::Acquire) != 0
            && self
                .by_component
                .read()
                .get(component)
                .is_some_and(|f| !f.is_noop())
    }

    /// Applies the fault installed on `component`, if any: `down` beats
    /// everything, delays apply to successes and failures alike,
    /// `fail_next` decrements per call.
    ///
    /// Every call on every replica passes through here. With nothing
    /// installed it takes no lock at all; with a fault on some other
    /// component it takes the shared read lock only; the write lock is
    /// taken just to count down `fail_next`.
    fn check(&self, component: &str) -> Result<(), WeaverError> {
        if self.installed.load(Ordering::Acquire) == 0 {
            return Ok(());
        }
        let (down, delay, may_fail) = match self.by_component.read().get(component) {
            Some(fault) if !fault.is_noop() => (fault.down, fault.delay, fault.fail_next > 0),
            _ => return Ok(()),
        };
        // Re-read under the write lock: another call may have taken the
        // last failure, or the fault may have been cleared, in between.
        let fail = may_fail
            && match self.by_component.write().get_mut(component) {
                Some(fault) if fault.fail_next > 0 => {
                    fault.fail_next -= 1;
                    true
                }
                _ => false,
            };
        if down {
            return Err(WeaverError::Unavailable {
                detail: format!("{component} is down (injected)"),
            });
        }
        // Sleep outside the lock so a delayed component stalls neither
        // calls to other components nor the `inject_fault` that clears it.
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        if fail {
            return Err(WeaverError::Unavailable {
                detail: format!("{component} failed (injected)"),
            });
        }
        Ok(())
    }
}

/// Admission, the first step of every dispatch in every deployer: the §4.4
/// version backstop, then the fault injected on the target. In that order:
/// version admission is the deployment boundary and injected faults are
/// component failures inside it, so a mis-stamped request is rejected as
/// such even while chaos has the target down.
pub(crate) fn admit(
    faults: &FaultMap,
    version: u64,
    caller_version: u64,
    component: &str,
) -> Result<(), WeaverError> {
    if caller_version != version {
        return Err(WeaverError::VersionMismatch {
            caller_version,
            callee_version: version,
        });
    }
    faults.check(component)
}

/// Execution, the second step: fail a call whose deadline has passed,
/// start the target if it is not running (Table 1: `StartComponent`
/// semantics), attribute the calls it makes to it, and run the method.
pub(crate) fn invoke(
    live: &LiveComponents,
    getter: &dyn ComponentGetter,
    component: u32,
    method: u32,
    mut ctx: CallContext,
    args: &[u8],
) -> Result<Vec<u8>, WeaverError> {
    if ctx.expired() {
        return Err(WeaverError::DeadlineExceeded);
    }
    let registration = live.registry().get(component)?;
    let instance = live.get_or_start(component, getter)?;
    ctx.caller = registration.name;
    (instance.dispatch)(method, &ctx, args)
}

/// The RPC handler every server in the runtime installs: proclets, and
/// each replica of [`crate::tcp::TcpProcess`].
///
/// Responsibilities, in order: `admit` (version, then injected fault),
/// replay idempotent repeats from the dedup cache, the owner's fence,
/// `invoke`, and record server-side latency into the process's registry
/// as `component/method/handle_nanos`, the one measurement of a handled
/// call: [`ProcletDispatcher::busy_nanos`] sums those histograms.
pub struct ProcletDispatcher {
    live: Arc<LiveComponents>,
    getter: Arc<dyn ComponentGetter>,
    version: u64,
    /// Per (component, method) statistics, pre-registered so the hot path
    /// never formats names or takes the registry's write lock.
    methods: Vec<Vec<MethodStats>>,
    /// Completed keyed responses, replayed for retried requests instead of
    /// re-executing. This server's own: a retry that may replay comes back
    /// to the replica that may have run the first attempt.
    dedup: DedupCache,
    /// Injected faults, shared by every replica of a deployment; a proclet's
    /// stays empty.
    faults: Arc<FaultMap>,
    /// Recycled buffers for encoding error payloads without allocating.
    pool: BufferPool,
    /// The routing the process installs, and its migration fence.
    table: Arc<RoutingTable>,
    /// Where routed keys must resolve to run here: the server's endpoint.
    endpoint: OnceLock<Endpoint>,
}

impl ProcletDispatcher {
    /// Builds a dispatcher for deployment `version` over `faults`, with a
    /// dedup cache of its own, fencing calls by `table`.
    pub fn new(
        live: Arc<LiveComponents>,
        getter: Arc<dyn ComponentGetter>,
        version: u64,
        metrics: Arc<MetricsRegistry>,
        faults: Arc<FaultMap>,
        table: Arc<RoutingTable>,
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
                        fenced: !matches!(m.name, "export_keys" | "import_keys"),
                    })
                    .collect()
            })
            .collect();
        ProcletDispatcher {
            live,
            getter,
            version,
            methods,
            dedup: DedupCache::new(),
            faults,
            pool: BufferPool::global().clone(),
            table,
            endpoint: OnceLock::new(),
        }
    }

    /// Binds this dispatcher's server at `addr` with `workers` workers; the
    /// endpoint it bound is the one its routed keys must resolve to.
    pub fn serve(
        self: &Arc<Self>,
        addr: impl ToEndpoint,
        workers: usize,
    ) -> Result<Server<WeaverFraming>, TransportError> {
        let server = Server::bind(addr, workers, Arc::clone(self) as Arc<dyn RpcHandler>)?;
        let _ = self.endpoint.set(server.endpoint());
        Ok(server)
    }

    /// Handler time so far, in nanoseconds: the sum of every method's
    /// `handle_nanos`, wrapping as the histograms' sums do. A proclet turns
    /// its growth between load reports into the busy fraction the manager's
    /// autoscaler reads.
    pub fn busy_nanos(&self) -> u64 {
        self.methods
            .iter()
            .flatten()
            .fold(0, |sum, m| sum.wrapping_add(m.handle_nanos.sum()))
    }

    fn method_stats(&self, header: &RequestHeader) -> Option<&MethodStats> {
        self.methods
            .get(header.component as usize)?
            .get(header.method as usize)
    }

    fn component_name(&self, component: u32) -> &'static str {
        self.live.registry().get(component).map_or("?", |r| r.name)
    }

    /// The owner's fence (after replay: a replay runs nothing). Refuses at
    /// once when a frozen scope covers the call or the table routes its key
    /// to another endpoint; else the call is in flight until the guard drops.
    fn fence(&self, header: &RequestHeader) -> Result<Option<Admitted<'_>>, WeaverError> {
        if !self.method_stats(header).is_some_and(|m| m.fenced) {
            return Ok(None);
        }
        let (component, key) = (header.component, header.routing);
        self.table.admit(component, key, Instant::now())?;
        let admitted = Admitted(&self.table, component, key);
        if let (Some(key), Some(&endpoint)) = (key, self.endpoint.get()) {
            self.table.check_owner(component, key, endpoint)?;
        }
        Ok(Some(admitted))
    }

    fn error_body(&self, e: &WeaverError) -> ResponseBody {
        let mut buf = self.pool.get(64);
        weaver_codec::encode_into(&mut buf, e);
        ResponseBody {
            status: Status::Error,
            payload: buf.freeze(),
        }
    }
}

impl RpcHandler for ProcletDispatcher {
    fn handle(&self, header: &RequestHeader, args: &[u8]) -> ResponseBody {
        let name = self.component_name(header.component);
        if let Err(e) = admit(&self.faults, self.version, header.version, name) {
            return self.error_body(&e);
        }
        // Replay completed keyed requests instead of re-executing. Strictly
        // after admission: a stale caller must still see VersionMismatch
        // and a downed component Unavailable, never a recorded response.
        if let Some(replayed) = self.dedup.replay(header) {
            return replayed;
        }
        let _admitted = match self.fence(header) {
            Ok(admitted) => admitted,
            Err(e) => return self.error_body(&e),
        };
        let ctx = CallContext {
            deadline: (header.deadline_nanos > 0)
                .then(|| Instant::now() + Duration::from_nanos(header.deadline_nanos)),
            trace_id: header.trace_id,
            span_id: header.span_id,
            version: self.version,
            caller: "",
        };
        let started = Instant::now();
        let outcome = invoke(
            &self.live,
            &*self.getter,
            header.component,
            header.method,
            ctx,
            args,
        );
        if let Some(stats) = self.method_stats(header) {
            stats.record(started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
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
            Err(e) => self.error_body(&e),
        }
    }

    /// A request may run on the reactor poller when it cannot block there
    /// and will not hold it long, both judged from what the runtime has
    /// already seen — nothing is declared by the application:
    ///
    /// * the target is running and is a leaf: its `init` acquired no
    ///   component reference, so no method of it can make a nested call.
    ///   A component that is not started yet, or is awaiting re-init after
    ///   a restart, is constructed on a worker. (A restart landing between
    ///   this answer and `handle` re-runs a leaf's `init` on the poller
    ///   once; `init` of a leaf acquires nothing, so it cannot wait on the
    ///   network either.)
    /// * the method's recent handler time, first measured on a worker, is
    ///   under [`INLINE_BUDGET_NANOS`].
    /// * no fault is injected on the target: its `delay` sleeps. This and
    ///   `handle` read the fault map one after the other, so a `delay`
    ///   injected between the two reads sleeps on the poller once — the one
    ///   request the poller had already admitted; every later request sees
    ///   the fault here and goes to a worker.
    fn inline_ok(&self, header: &RequestHeader) -> bool {
        self.method_stats(header)
            .is_some_and(|stats| stats.recent_nanos.load(Ordering::Relaxed) < INLINE_BUDGET_NANOS)
            && self.live.is_ready_leaf(header.component)
            && !self.faults.is_active(self.component_name(header.component))
    }
}

/// A call admitted at its owner's fence; dropping it, unwinding too, releases it.
struct Admitted<'a>(&'a RoutingTable, u32, Option<u64>);

impl Drop for Admitted<'_> {
    fn drop(&mut self) {
        self.0.release(self.1, self.2);
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
    use weaver_core::registry::{ComponentRegistry, RegistryBuilder};

    use crate::router::body_to_outcome;
    use crate::single::{SingleMode, SingleProcess};

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

    fn registry() -> Arc<ComponentRegistry> {
        Arc::new(RegistryBuilder::new().register::<AdderImpl>().build())
    }

    fn dispatcher_with(version: u64, metrics: Arc<MetricsRegistry>) -> ProcletDispatcher {
        let live = Arc::new(LiveComponents::new(registry()));
        let table = RoutingTable::new();
        ProcletDispatcher::new(
            live,
            Arc::new(NoDeps),
            version,
            metrics,
            Arc::default(),
            table,
        )
    }

    fn dispatcher(version: u64) -> ProcletDispatcher {
        dispatcher_with(version, Arc::new(MetricsRegistry::new()))
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
        assert_eq!(d.dedup.entries(), 0);
    }

    #[test]
    fn version_mismatch_is_not_replayed_or_cached() {
        let d = dispatcher(2);
        let mut h = header(1, 0, 0);
        h.idempotency = Some(7);
        let resp = d.handle(&h, &weaver_codec::encode_to_vec(&(1u64, 1u64)));
        assert_eq!(resp.status, Status::Error);
        assert_eq!(d.dedup.entries(), 0);
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

    /// Which way a call came out, by error variant.
    fn kind(outcome: &Result<WireBuf, WeaverError>) -> &'static str {
        match outcome {
            Ok(_) => "Ok",
            Err(WeaverError::VersionMismatch { .. }) => "VersionMismatch",
            Err(WeaverError::Unavailable { .. }) => "Unavailable",
            Err(WeaverError::UnknownMethod { .. }) => "UnknownMethod",
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }

    #[test]
    fn wire_and_marshaled_entry_points_agree() {
        let down = ComponentFault {
            down: true,
            ..Default::default()
        };
        let fail_once = ComponentFault {
            fail_next: 1,
            ..Default::default()
        };
        let none = ComponentFault::default();
        // (row, fault on the target, caller's version, method, each call's
        // expected outcome); both deployments run version 1.
        let rows: [(&str, ComponentFault, u64, u32, &[&str]); 4] = [
            ("stale, down", down.clone(), 2, 0, &["VersionMismatch"]),
            ("down", down.clone(), 1, 0, &["Unavailable"]),
            ("fail_next 1", fail_once, 1, 0, &["Unavailable", "Ok"]),
            ("no such method", none, 1, 9, &["UnknownMethod"]),
        ];
        let args = weaver_codec::encode_to_vec(&(2u64, 40u64));
        for (row, fault, stamp, method, expected) in rows {
            let wire = dispatcher(1);
            wire.faults.install("test.Adder", fault.clone());
            let app = SingleProcess::deploy(registry(), SingleMode::Marshaled, 1);
            app.inject_fault("test.Adder", fault);
            let Ok(Acquired::Remote(marshaled)) = app.acquire("test.Adder") else {
                panic!("a marshaled reference is a client handle");
            };
            let ctx = CallContext {
                version: stamp,
                ..CallContext::test()
            };
            for &want in expected {
                let from_wire = body_to_outcome(wire.handle(&header(stamp, 0, method), &args));
                let from_marshaled = marshaled.call(&ctx, method, None, args.clone());
                assert_eq!(
                    (kind(&from_wire), kind(&from_marshaled)),
                    (want, want),
                    "{row}"
                );
            }
        }

        // Wire only (the marshaled path keeps no dedup cache): a keyed
        // repeat to a downed component is refused, not replayed.
        let wire = dispatcher(1);
        let mut h = header(1, 0, 0);
        h.idempotency = Some(5);
        assert_eq!(kind(&body_to_outcome(wire.handle(&h, &args))), "Ok");
        wire.faults.install("test.Adder", down);
        h.attempt = 1;
        assert_eq!(
            kind(&body_to_outcome(wire.handle(&h, &args))),
            "Unavailable"
        );
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

    /// 4 threads × 10k checks of `test.Fast`, true when all came back.
    fn checks_finish(faults: &Arc<FaultMap>) -> bool {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        for _ in 0..4 {
            let faults = Arc::clone(faults);
            let done = done_tx.clone();
            std::thread::spawn(move || {
                for _ in 0..10_000 {
                    faults.check("test.Fast").unwrap();
                }
                done.send(()).unwrap();
            });
        }
        (0..4).all(|_| done_rx.recv_timeout(Duration::from_secs(20)).is_ok())
    }

    #[test]
    fn fault_checks_share_the_lock_and_a_clear_removes_the_entry() {
        let faults = Arc::new(FaultMap::default());
        // Nothing installed: a check takes no lock, so not even a writer
        // holds it up.
        let held = faults.by_component.write();
        assert!(
            checks_finish(&faults),
            "checks on an empty map took the lock"
        );
        drop(held);
        // A fault on another component: a check reads the map, and shares
        // it — one that took the write lock would never get past the read
        // guard held here.
        let down = ComponentFault {
            down: true,
            ..Default::default()
        };
        faults.install("test.Slow", down);
        let held = faults.by_component.read();
        assert!(checks_finish(&faults), "checks blocked behind a reader");
        drop(held);
        faults.install("test.Slow", ComponentFault::default());

        let fault = ComponentFault {
            fail_next: 2,
            ..Default::default()
        };
        faults.install("test.Fast", fault);
        assert!(faults.is_active("test.Fast"));
        assert!(faults.check("test.Fast").is_err());
        assert!(faults.check("test.Fast").is_err());
        // Spent: the entry is a no-op now, and reads as one.
        assert!(faults.check("test.Fast").is_ok());
        assert!(!faults.is_active("test.Fast"));
        faults.install("test.Fast", ComponentFault::default());
        assert!(
            faults.by_component.read().is_empty(),
            "clearing left an entry behind"
        );
        assert_eq!(faults.installed.load(Ordering::Relaxed), 0);
    }

    /// A handled call's time lands in `handle_nanos` once, and busy time
    /// is that histogram's total.
    #[test]
    fn busy_nanos_is_the_handle_nanos_total() {
        let metrics = Arc::new(MetricsRegistry::new());
        let d = dispatcher_with(1, Arc::clone(&metrics));
        assert_eq!(d.busy_nanos(), 0, "nothing handled yet");
        let args = weaver_codec::encode_to_vec(&(1u64, 2u64));
        d.handle(&header(1, 0, 0), &args);
        d.handle(&header(1, 0, 0), &args);
        let Some(weaver_metrics::MetricFamily::Histogram(handled)) = metrics
            .snapshot()
            .get("test.Adder/add/handle_nanos")
            .cloned()
        else {
            panic!("no handle_nanos histogram");
        };
        assert_eq!(handled.count, 2);
        assert!(handled.sum > 0);
        assert_eq!(d.busy_nanos(), handled.sum);
    }
}
