//! Client-side routing: pick a replica, move the bytes, record the edge.
//!
//! A [`RoutingTable`] holds one [`RoutingState`], which only
//! [`RoutingTable::update`] replaces, newest epoch wins. Every state it
//! installs comes from the control plane ([`crate::control::ControlPlane`]),
//! the one writer of assignments and epochs; the table adds the per-slice
//! load accounting and the migration gate.
//!
//! Every router call is keyed: each request carries a fresh idempotency
//! key, and an unrouted call that fails retryably gets one retry. A request
//! that may have run is re-sent only where it may have run: after its bytes
//! hit the wire the retry goes back to the same replica, whose dedup cache
//! replays an attempt that already ran. One that cannot have run (it failed
//! before reaching the wire) goes to another replica whenever there is one.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, RwLock};

use weaver_core::client::{CallRouter, TargetInfo};
use weaver_core::context::CallContext;
use weaver_core::error::WeaverError;
use weaver_core::fanout::RouteFuture;
use weaver_macros::WeaverData;
use weaver_metrics::{
    CallEdge, CallGraph, EdgeCell, Histogram, MetricsRegistry, SliceLoadReport, SliceLoadTracker,
};
use weaver_routing::{PowerOfTwo, SliceAssignment};
use weaver_transport::{
    CallFuture, Endpoint, Pool, RequestHeader, ResponseBody, RpcHandler, Status, WeaverFraming,
};

/// Default per-call timeout when the caller set no deadline. Generous: the
/// point is to bound hangs, not to police slow handlers.
pub const DEFAULT_CALL_TIMEOUT: Duration = Duration::from_secs(30);

/// Mints a process-unique idempotency key: a per-process random base
/// (different clients of one deployment must not collide on the callee's
/// dedup cache) xor a SplitMix64-spread counter (keys from one process
/// never repeat and don't cluster).
pub fn next_idempotency_key() -> u64 {
    use std::hash::{BuildHasher, Hasher};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::OnceLock;
    static BASE: OnceLock<u64> = OnceLock::new();
    static NEXT: AtomicU64 = AtomicU64::new(1);
    let base = *BASE.get_or_init(|| {
        // RandomState is seeded per process; hashing a constant extracts
        // that seed as a stable per-process value.
        let mut h = std::collections::hash_map::RandomState::new().build_hasher();
        h.write_u64(0x57EA_4E6B);
        h.finish()
    });
    let mut z = NEXT
        .fetch_add(1, Ordering::Relaxed)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    base ^ z ^ (z >> 31)
}

/// The routing the control plane emits at an epoch: installed in a
/// deployer's own table, and sent to proclets as itself
/// (`EnvelopeMessage::RoutingInfo`).
#[derive(Debug, Clone, Default, PartialEq, WeaverData)]
pub struct RoutingState {
    /// Update epoch; stale `RoutingInfo` messages are discarded.
    pub epoch: u64,
    /// component id → replica endpoints, ordered by replica index.
    pub routes: HashMap<u32, Vec<Endpoint>>,
    /// component id → affinity slice assignment.
    pub assignments: HashMap<u32, SliceAssignment>,
}

/// What a migration freezes and drains: one key range of a routed
/// component (a slice rebalance) or every call to it (a placement move).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Routed calls whose key falls in `[start, end)` under slice semantics
    /// (`end == u64::MAX` is inclusive: the final slice ends the keyspace).
    /// Unrouted calls have no affinity to protect and pass.
    Keys(u64, u64),
    /// Every call to the component, routed or not.
    Component,
}

impl Scope {
    fn covers(self, key: Option<u64>) -> bool {
        match self {
            Scope::Component => true,
            Scope::Keys(start, end) => {
                key.is_some_and(|k| weaver_transport::in_slice(start, end, k))
            }
        }
    }
}

/// Migration gate state: which scopes are frozen (calls queue instead of
/// launching) and which calls are in flight (so a migration can drain the
/// old owner or placement before handing off).
#[derive(Default)]
struct FreezeState {
    /// Frozen scopes, one entry per [`RoutingTable::freeze`].
    frozen: Vec<(u32, Scope)>,
    /// (component, routing key; `None` for unrouted calls) → calls in flight.
    active: HashMap<(u32, Option<u64>), u32>,
}

/// Shared, updatable routing table.
#[derive(Default)]
pub struct RoutingTable {
    state: RwLock<RoutingState>,
    tracker: SliceLoadTracker,
    gate: Mutex<FreezeState>,
    gate_cond: Condvar,
}

impl RoutingTable {
    /// Creates an empty table.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Installs a new state if its epoch is newer. Returns whether it took.
    pub fn update(&self, new_state: RoutingState) -> bool {
        let mut state = self.state.write();
        if new_state.epoch <= state.epoch && state.epoch != 0 {
            return false;
        }
        *state = new_state;
        true
    }

    /// Resolves the endpoint for one call. An unrouted call never lands on
    /// replica `avoid` (the one its first attempt failed to reach) while
    /// there is another.
    fn pick(
        &self,
        component: u32,
        routing: Option<u64>,
        balancer: &PowerOfTwo,
        avoid: Option<usize>,
    ) -> Result<(Endpoint, usize), WeaverError> {
        let state = self.state.read();
        let replicas = state
            .routes
            .get(&component)
            .ok_or_else(|| WeaverError::Unavailable {
                detail: format!("no routes for component #{component}"),
            })?;
        if replicas.is_empty() {
            return Err(WeaverError::Unavailable {
                detail: format!("zero replicas for component #{component}"),
            });
        }
        let index = match routing {
            Some(key) => {
                // Affinity routing: the slice assignment owns the choice.
                // Every resolution is charged to its slice so the rebalance
                // controller sees where the traffic actually lands.
                match state
                    .assignments
                    .get(&component)
                    .and_then(|a| a.slice_index_for(key).map(|i| (a, i)))
                {
                    Some((a, i)) => {
                        self.tracker
                            .observe(component, a.version, a.slices.len(), i, key);
                        a.slices[i].replica as usize % replicas.len()
                    }
                    // No assignment yet: fall back to modulo, still sticky.
                    None => (key % replicas.len() as u64) as usize,
                }
            }
            None => match balancer.pick(replicas.len()).unwrap_or(0) {
                index if Some(index) == avoid => (index + 1) % replicas.len(),
                index => index,
            },
        };
        // Never index unchecked on the call path: a balancer or assignment
        // bug must surface as a routable error, not a proclet panic.
        let endpoint = replicas
            .get(index)
            .copied()
            .ok_or_else(|| WeaverError::Unavailable {
                detail: format!(
                    "replica index {index} out of range ({} replicas) for component #{component}",
                    replicas.len()
                ),
            })?;
        Ok((endpoint, index))
    }

    /// Current epoch.
    pub fn epoch(&self) -> u64 {
        self.state.read().epoch
    }

    /// The installed routing.
    pub fn routing(&self) -> RoutingState {
        self.state.read().clone()
    }

    /// The slice assignment currently installed for a component.
    pub fn assignment_of(&self, component: u32) -> Option<SliceAssignment> {
        self.state.read().assignments.get(&component).cloned()
    }

    /// Per-slice load observed under the component's *current* assignment,
    /// or `None` when no routed call resolved against it yet.
    pub fn slice_load(&self, component: u32) -> Option<SliceLoadReport> {
        let version = self.state.read().assignments.get(&component)?.version;
        self.tracker.report(component, version)
    }

    // --- migration gate -------------------------------------------------
    //
    // The freeze/drain/admit protocol every live migration runs under: the
    // migration freezes a [`Scope`] (new calls it covers queue in `admit`
    // instead of launching), drains the calls admitted before the freeze,
    // moves state and/or the dispatch target, commits (epoch bump), then
    // unfreezes — so no key is ever served by two replicas concurrently
    // (A8 per-key monotonicity) and no call executes at two placements.
    // Every call passes the gate, so a drain observes every in-flight call.

    /// Blocks while a frozen scope covers the call (`key` is its routing
    /// key, `None` for an unrouted call), then registers the call as in
    /// flight. Fails with `Unavailable` if the freeze outlasts `deadline`.
    /// Every successful admit must be paired with one
    /// [`RoutingTable::release`].
    pub fn admit(
        &self,
        component: u32,
        key: impl Into<Option<u64>>,
        deadline: Instant,
    ) -> Result<(), WeaverError> {
        let key = key.into();
        let mut gate = self.gate.lock();
        while gate
            .frozen
            .iter()
            .any(|&(c, scope)| c == component && scope.covers(key))
        {
            if self.gate_cond.wait_until(&mut gate, deadline).timed_out() {
                return Err(WeaverError::Unavailable {
                    detail: format!(
                        "component #{component} (key {key:x?}) frozen for migration past deadline"
                    ),
                });
            }
        }
        *gate.active.entry((component, key)).or_insert(0) += 1;
        Ok(())
    }

    /// Releases one in-flight registration made by [`RoutingTable::admit`].
    pub fn release(&self, component: u32, key: impl Into<Option<u64>>) {
        let entry = (component, key.into());
        let mut gate = self.gate.lock();
        if let Some(n) = gate.active.get_mut(&entry) {
            *n -= 1;
            if *n == 0 {
                gate.active.remove(&entry);
            }
        }
        self.gate_cond.notify_all();
    }

    /// Freezes a scope: subsequent calls it covers queue in
    /// [`RoutingTable::admit`] until [`RoutingTable::unfreeze`].
    pub fn freeze(&self, component: u32, scope: Scope) {
        self.gate.lock().frozen.push((component, scope));
    }

    /// Lifts one freeze placed by [`RoutingTable::freeze`] and wakes queued
    /// callers (who re-resolve against the *current* assignment and
    /// dispatch target — the new owner or placement if a migration
    /// committed in between).
    pub fn unfreeze(&self, component: u32, scope: Scope) {
        let mut gate = self.gate.lock();
        if let Some(i) = gate.frozen.iter().position(|&f| f == (component, scope)) {
            gate.frozen.remove(i);
        }
        self.gate_cond.notify_all();
    }

    /// Waits until no admitted call covered by `scope` remains in flight.
    /// Only meaningful after [`RoutingTable::freeze`] on the same scope
    /// (otherwise new calls keep arriving). Returns whether the scope
    /// drained before `timeout`.
    pub fn drain(&self, component: u32, scope: Scope, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut gate = self.gate.lock();
        while gate
            .active
            .keys()
            .any(|&(c, key)| c == component && scope.covers(key))
        {
            if self.gate_cond.wait_until(&mut gate, deadline).timed_out() {
                return false;
            }
        }
        true
    }
}

/// One call as the client side accounts for it: who called which method,
/// with how many bytes, since when.
pub(crate) struct CallSite {
    caller: &'static str,
    target: TargetInfo,
    method: u32,
    request_bytes: usize,
    pub(crate) started: Instant,
}

impl CallSite {
    pub(crate) fn new(ctx: &CallContext, target: &TargetInfo, method: u32, args: &[u8]) -> Self {
        CallSite {
            caller: ctx.caller,
            target: *target,
            method,
            request_bytes: args.len(),
            started: Instant::now(),
        }
    }

    pub(crate) fn method_name(&self) -> &'static str {
        self.target
            .methods
            .get(self.method as usize)
            .map_or("?", |m| m.name)
    }
}

/// The client-side recorder every deployer's calls resolve through: one
/// call-graph edge and one latency histogram per resolved call, recorded
/// whether the caller blocked or gathered a future.
///
/// Naming an edge or a histogram allocates and takes a write lock; at
/// marshaled-call speeds (~1µs) that is measurable. So each call site
/// resolves both once and keeps them in one table, keyed by integers and
/// the caller name's address: after the first call, recording is one read
/// lock, one multiply-rotate hash and relaxed atomics.
pub(crate) struct CallRecorder {
    callgraph: Arc<CallGraph>,
    metrics: Arc<MetricsRegistry>,
    /// Latency histograms are `component/method/placement/call_nanos`; a
    /// call that ran on a migrated-in local handler is labeled `colocated`
    /// instead, so before/after placement shows up in one snapshot.
    placement: &'static str,
    sites: RwLock<HashMap<SiteKey, Site, BuildHasherDefault<SiteHasher>>>,
}

/// A call site as the recorder keys it. The caller is a `&'static str`
/// compared by address and length, never by text: a site resolves its
/// edge and histogram by name, so equal names at different addresses are
/// two keys for the same cells.
#[derive(Clone, Copy, PartialEq, Eq)]
struct SiteKey {
    caller: (usize, usize),
    component: u32,
    method: u32,
    local: bool,
}

impl SiteKey {
    fn new(call: &CallSite, local: bool) -> Self {
        SiteKey {
            caller: (call.caller.as_ptr() as usize, call.caller.len()),
            component: call.target.component_id,
            method: call.method,
            local,
        }
    }
}

impl Hash for SiteKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // One word for the hasher's one multiply; equality still compares
        // every field, so overlapping bits only cost a probe.
        let (ptr, len) = self.caller;
        let ids = u64::from(self.component) << 40 | u64::from(self.method) << 8;
        state.write_u64(ptr as u64 ^ (len as u64).rotate_right(8) ^ ids ^ u64::from(self.local));
    }
}

/// Multiply-rotate (the Fx hash step): enough to spread one integer word
/// over a table's bucket and control bits, far cheaper than SipHash.
#[derive(Default)]
struct SiteHasher(u64);

impl Hasher for SiteHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word)
            .wrapping_mul(0x517c_c1b7_2722_0a95)
            .rotate_left(26);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// What one call site records into.
struct Site {
    edge: Arc<EdgeCell>,
    latency: Arc<Histogram>,
}

impl CallRecorder {
    pub(crate) fn new(
        callgraph: Arc<CallGraph>,
        metrics: Arc<MetricsRegistry>,
        placement: &'static str,
    ) -> Self {
        CallRecorder {
            callgraph,
            metrics,
            placement,
            sites: RwLock::default(),
        }
    }

    pub(crate) fn callgraph(&self) -> &Arc<CallGraph> {
        &self.callgraph
    }

    pub(crate) fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Records one resolved call (`local`: it ran on a migrated-in local
    /// handler) and returns whether it failed — a runtime error, or an
    /// application error riding inside a successful reply.
    pub(crate) fn record(
        &self,
        call: &CallSite,
        local: bool,
        outcome: &Result<Vec<u8>, WeaverError>,
    ) -> bool {
        let elapsed = call.started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let is_error = match outcome {
            Ok(reply) => weaver_core::client::reply_is_err(reply),
            Err(_) => true,
        };
        let response_bytes = outcome.as_ref().map_or(0, Vec::len);
        let record = |site: &Site| {
            site.edge
                .record(call.request_bytes, response_bytes, elapsed, is_error);
            site.latency.record(elapsed);
        };
        let key = SiteKey::new(call, local);
        if let Some(site) = self.sites.read().get(&key) {
            record(site);
            return is_error;
        }
        let (target, method) = (&call.target, call.method_name());
        let placement = if local { "colocated" } else { self.placement };
        let site = Site {
            edge: self.callgraph.handle(&CallEdge {
                caller: call.caller.to_string(),
                callee: target.name.to_string(),
                method: method.to_string(),
            }),
            latency: self
                .metrics
                .histogram(&format!("{}/{method}/{placement}/call_nanos", target.name)),
        };
        record(&site);
        self.sites.write().insert(key, site);
        is_error
    }
}

/// Refreshes the transport-plane gauges into `registry` so a metrics
/// snapshot carries the reactor's current readiness-loop state next to
/// the per-call latency histograms: open reactor connections, registered
/// epoll interests, poller shards, readiness events delivered per
/// `epoll_wait` return (×1000, so the gauge keeps three decimal places of
/// the ratio as an integer), requests answered on a shard thread without
/// a worker hand-off, and the RPC dispatch-queue depth (requests decoded
/// on the poller but not yet picked up by a worker).
///
/// Until the process opens its first connection or server the reactor has
/// not started, and only the dispatch-queue gauge is recorded.
pub(crate) fn record_transport_gauges(registry: &MetricsRegistry) {
    if let Some(r) = weaver_transport::reactor_snapshot() {
        registry
            .gauge("transport/reactor/connections")
            .set(r.connections as i64);
        registry
            .gauge("transport/reactor/interests")
            .set(r.interests as i64);
        registry
            .gauge("transport/reactor/shards")
            .set(r.shards as i64);
        let ratio_x1000 = r
            .ready_events
            .saturating_mul(1000)
            .checked_div(r.wakeups)
            .unwrap_or(0) as i64;
        registry
            .gauge("transport/reactor/ready_events_per_wakeup_x1000")
            .set(ratio_x1000);
        registry
            .gauge("transport/reactor/inline_dispatches")
            .set(r.inline_dispatches as i64);
    }
    registry
        .gauge("transport/dispatch_queue_depth")
        .set(weaver_transport::pool::dispatch_queue_depth() as i64);
}

/// The remote call path: resolve → call → record.
///
/// Internally `Arc`-shared so in-flight [`RemoteFuture`]s (returned by
/// [`CallRouter::route_begin`]) can outlive the borrow that started them:
/// a future pins the routing table, connection pool, and balancer it needs
/// to finish — and to retry once — no matter when the caller gathers it.
pub struct RemoteRouter {
    inner: Arc<RouterInner>,
}

struct RouterInner {
    table: Arc<RoutingTable>,
    pool: Pool<WeaverFraming>,
    balancer: PowerOfTwo,
    version: u64,
    recorder: CallRecorder,
    /// Components the placement controller migrated into this process:
    /// calls short-circuit to the handler instead of crossing the wire.
    /// The handler is the same dispatcher the component's server runs
    /// (version backstop, fault injection, dedup — everything but the
    /// socket).
    local: RwLock<HashMap<u32, Arc<dyn RpcHandler>>>,
}

impl RemoteRouter {
    /// Builds a router over `table` for deployment `version`.
    pub fn new(table: Arc<RoutingTable>, callgraph: Arc<CallGraph>, version: u64) -> Self {
        Self::with_metrics(
            table,
            callgraph,
            version,
            Pool::new(),
            Arc::new(MetricsRegistry::new()),
            "tcp",
        )
    }

    /// Full-control constructor: the deployer supplies the connection pool
    /// (so it can substitute a fault-injecting dialer, see
    /// [`weaver_transport::fault`]), the client-side metrics registry and
    /// its placement label, so per-call latency histograms land as
    /// `component/method/placement/call_nanos`.
    pub fn with_metrics(
        table: Arc<RoutingTable>,
        callgraph: Arc<CallGraph>,
        version: u64,
        pool: Pool<WeaverFraming>,
        metrics: Arc<MetricsRegistry>,
        placement: &'static str,
    ) -> Self {
        RemoteRouter {
            inner: Arc::new(RouterInner {
                table,
                pool,
                balancer: PowerOfTwo::new(64),
                version,
                recorder: CallRecorder::new(callgraph, metrics, placement),
                local: RwLock::new(HashMap::new()),
            }),
        }
    }

    /// Sets (`Some`) or clears (`None`) the local dispatch target for
    /// `component`: with one set, calls short-circuit to `handler` instead
    /// of crossing the wire. This is the re-registration step of a
    /// placement migration — call it only with [`Scope::Component`] frozen
    /// and drained, or in-flight remote calls race the switch.
    pub fn set_local(&self, component: u32, handler: Option<Arc<dyn RpcHandler>>) {
        let mut local = self.inner.local.write();
        match handler {
            Some(handler) => local.insert(component, handler),
            None => local.remove(&component),
        };
    }

    /// The call graph edges this router has recorded.
    pub fn callgraph(&self) -> &Arc<CallGraph> {
        self.inner.recorder.callgraph()
    }

    /// The client-side metrics registry (per-call latency histograms).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        self.inner.recorder.metrics()
    }

    /// Calls in flight right now across the router's connection pool
    /// (pending-map entries). Zero in steady state; chaos tests assert it
    /// returns to zero after fault storms.
    pub fn in_flight(&self) -> usize {
        self.inner.pool.total_in_flight()
    }
}

impl RouterInner {
    fn header_for(
        &self,
        target: &TargetInfo,
        ctx: &CallContext,
        method: u32,
        routing: Option<u64>,
    ) -> RequestHeader {
        RequestHeader {
            component: target.component_id,
            method,
            version: self.version,
            deadline_nanos: ctx
                .remaining()
                .map_or(0, |d| d.as_nanos().min(u128::from(u64::MAX)) as u64),
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            routing,
            idempotency: Some(next_idempotency_key()),
            attempt: 0,
        }
    }
}

/// Decodes a transport-level success into the call's outcome.
pub(crate) fn body_to_outcome(body: ResponseBody) -> Result<Vec<u8>, WeaverError> {
    match body.status {
        // One copy at the ownership boundary: CallRouter returns an owned
        // Vec (weaver-core is transport-agnostic), so the zero-copy WireBuf
        // materializes here and the receive buffer recycles immediately.
        Status::Ok => Ok(body.payload.to_vec()),
        Status::Error => {
            let e: WeaverError =
                weaver_codec::decode_from_slice(&body.payload).unwrap_or_else(|decode_err| {
                    WeaverError::Codec {
                        detail: format!("undecodable remote error: {decode_err}"),
                    }
                });
            Err(e)
        }
    }
}

enum RemoteState {
    /// The request is on the wire to this endpoint; the transport future
    /// resolves it.
    InFlight(CallFuture<WeaverFraming>, Endpoint),
    /// Resolved at begin time (pick failure, dead pool, unretryable dial
    /// error). Recorded when the caller gathers, like any other outcome.
    Ready(Result<Vec<u8>, WeaverError>),
    Done,
}

/// One remote call in flight: owns its transport future plus everything
/// needed to retry once, record the call-graph edge, and time the call at
/// resolution — so blocking and scatter-gather calls share one accounting
/// path.
struct RemoteFuture {
    inner: Arc<RouterInner>,
    header: RequestHeader,
    args: Vec<u8>,
    call: CallSite,
    component: u32,
    routing: Option<u64>,
    deadline: Instant,
    state: RemoteState,
    /// Replica index charged on the balancer, released exactly once.
    active_replica: Option<usize>,
    /// Whether the call holds an in-flight registration on the migration
    /// gate (under `component`/`routing`), released exactly once.
    admitted: bool,
    /// Whether the call dispatched to a migrated-in local instance (for
    /// latency labeling: `colocated` instead of the wire placement).
    local: bool,
    retried: bool,
}

impl RemoteFuture {
    fn start(
        inner: Arc<RouterInner>,
        target: &TargetInfo,
        ctx: &CallContext,
        method: u32,
        routing: Option<u64>,
        args: Vec<u8>,
    ) -> RemoteFuture {
        let call = CallSite::new(ctx, target, method, &args);
        let timeout = ctx.remaining().unwrap_or(DEFAULT_CALL_TIMEOUT);
        let header = inner.header_for(target, ctx, method, routing);
        let mut fut = RemoteFuture {
            inner,
            header,
            args,
            component: target.component_id,
            routing,
            deadline: call.started + timeout,
            call,
            state: RemoteState::Done,
            active_replica: None,
            admitted: false,
            local: false,
            retried: false,
        };
        // Every call passes the migration gate before resolving a target:
        // a frozen scope queues the call here (blocking the caller, not
        // dropping), and the in-flight registration lets a migration drain
        // every outstanding call before it moves state or the dispatch
        // target.
        match fut.inner.table.admit(fut.component, routing, fut.deadline) {
            Ok(()) => fut.admitted = true,
            Err(e) => {
                fut.state = RemoteState::Ready(Err(e));
                return fut;
            }
        }
        // A migrated-in component dispatches locally: same handler the
        // component's server runs, minus the socket. Synchronous — a local
        // dispatch is the thing we migrated to make fast.
        let local = fut.inner.local.read().get(&fut.component).cloned();
        if let Some(handler) = local {
            let body = handler.handle(&fut.header, &fut.args);
            fut.local = true;
            fut.state = RemoteState::Ready(body_to_outcome(body));
            return fut;
        }
        fut.launch(None);
        fut
    }

    /// Picks a replica other than `avoid` (while there is another) and puts
    /// the request in flight. A retryable begin-time failure relaunches
    /// once through [`RemoteFuture::may_retry`], avoiding the replica that
    /// failed: the request never reached the wire, so it may go anywhere.
    fn launch(&mut self, avoid: Option<usize>) {
        let (endpoint, replica) =
            match self
                .inner
                .table
                .pick(self.component, self.routing, &self.inner.balancer, avoid)
            {
                Ok(x) => x,
                Err(e) => {
                    self.state = RemoteState::Ready(Err(e));
                    return;
                }
            };
        self.inner.balancer.on_start(replica);
        self.active_replica = Some(replica);
        match self
            .inner
            .pool
            .call_begin(endpoint, &self.header, &self.args)
        {
            Ok(fut) => self.state = RemoteState::InFlight(fut, endpoint),
            Err(e) => {
                self.release_balancer();
                let e = WeaverError::from(e);
                if self.may_retry(&e) {
                    self.header.attempt += 1;
                    self.launch(Some(replica));
                } else {
                    self.state = RemoteState::Ready(Err(e));
                }
            }
        }
    }

    /// Whether `e` warrants the call's single retry. Routed calls are not
    /// retried — affinity means another replica is a cache miss at best.
    ///
    /// Every router call is keyed, so both failure points retry. A
    /// begin-time failure (the request never hit the wire) is plainly safe
    /// and may move. A post-write failure is *ambiguous* — the callee may
    /// have executed — so the retry goes back to that replica, whose dedup
    /// cache replays the keyed first attempt instead of re-executing: a
    /// non-idempotent method cannot run twice.
    fn may_retry(&mut self, e: &WeaverError) -> bool {
        if !e.is_retryable() || self.routing.is_some() || self.retried {
            return false;
        }
        self.retried = true;
        true
    }

    fn release_balancer(&mut self) {
        if let Some(replica) = self.active_replica.take() {
            self.inner.balancer.on_finish(replica);
        }
    }

    fn release_admission(&mut self) {
        if std::mem::take(&mut self.admitted) {
            self.inner.table.release(self.component, self.routing);
        }
    }

    fn remaining(&self) -> Duration {
        self.deadline.saturating_duration_since(Instant::now())
    }

    /// Turns the transport outcome of the attempt in flight to `endpoint`
    /// into the call's final outcome, re-sending if warranted, and records
    /// the edge + latency exactly once.
    ///
    /// The re-send is synchronous (by the time the caller gathers a failed
    /// future there is nothing left to overlap with) and goes to `endpoint`
    /// only, with the same key and a bumped attempt, so the replica that
    /// may have run the first attempt replays it. If that replica refuses
    /// the reconnect, the error surfaces; the retry does not move.
    fn conclude(
        &mut self,
        outcome: Result<ResponseBody, weaver_transport::TransportError>,
        endpoint: Endpoint,
    ) -> Result<Vec<u8>, WeaverError> {
        self.release_balancer();
        let outcome = match outcome.map_err(WeaverError::from) {
            Ok(body) => body_to_outcome(body),
            Err(e) if self.may_retry(&e) => {
                self.header.attempt += 1;
                self.inner
                    .pool
                    .call(endpoint, &self.header, &self.args, Some(self.remaining()))
                    .map_err(WeaverError::from)
                    .and_then(body_to_outcome)
            }
            Err(e) => Err(e),
        };
        self.release_admission();
        self.record(&outcome);
        outcome
    }

    fn record(&self, outcome: &Result<Vec<u8>, WeaverError>) {
        self.inner.recorder.record(&self.call, self.local, outcome);
    }
}

impl RouteFuture for RemoteFuture {
    fn wait(mut self: Box<Self>) -> Result<Vec<u8>, WeaverError> {
        match std::mem::replace(&mut self.state, RemoteState::Done) {
            RemoteState::Ready(outcome) => {
                self.release_admission();
                self.record(&outcome);
                outcome
            }
            RemoteState::InFlight(fut, endpoint) => {
                let timeout = self.remaining();
                self.conclude(fut.wait(Some(timeout)), endpoint)
            }
            RemoteState::Done => Err(WeaverError::Cancelled),
        }
    }
}

impl Drop for RemoteFuture {
    fn drop(&mut self) {
        // An abandoned future still releases its balancer charge and its
        // migration-gate registration; the transport future's own Drop
        // cancels the wire call.
        self.release_balancer();
        self.release_admission();
    }
}

impl CallRouter for RemoteRouter {
    fn route_call(
        &self,
        target: &TargetInfo,
        ctx: &CallContext,
        method: u32,
        routing: Option<u64>,
        args: Vec<u8>,
    ) -> Result<Vec<u8>, WeaverError> {
        // The blocking path is begin + immediate gather: one code path for
        // retries, call-graph edges, and latency histograms.
        Box::new(RemoteFuture::start(
            Arc::clone(&self.inner),
            target,
            ctx,
            method,
            routing,
            args,
        ))
        .wait()
    }

    fn route_begin(
        &self,
        target: &TargetInfo,
        ctx: &CallContext,
        method: u32,
        routing: Option<u64>,
        args: Vec<u8>,
    ) -> Box<dyn RouteFuture> {
        Box::new(RemoteFuture::start(
            Arc::clone(&self.inner),
            target,
            ctx,
            method,
            routing,
            args,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(port: u16) -> Endpoint {
        Endpoint::Tcp(([127, 0, 0, 1], port).into())
    }

    fn table_with(component: u32, ports: &[u16]) -> Arc<RoutingTable> {
        let table = RoutingTable::new();
        let mut routes = HashMap::new();
        routes.insert(component, ports.iter().map(|&p| addr(p)).collect());
        table.update(RoutingState {
            epoch: 1,
            routes,
            assignments: HashMap::new(),
        });
        table
    }

    #[test]
    fn epoch_ordering_enforced() {
        let table = RoutingTable::new();
        assert!(table.update(RoutingState {
            epoch: 3,
            ..Default::default()
        }));
        assert!(!table.update(RoutingState {
            epoch: 2,
            ..Default::default()
        }));
        assert!(table.update(RoutingState {
            epoch: 4,
            ..Default::default()
        }));
        assert_eq!(table.epoch(), 4);
    }

    #[test]
    fn pick_unrouted_spreads() {
        let table = table_with(0, &[1001, 1002, 1003]);
        let balancer = PowerOfTwo::new(8);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let (a, _) = table.pick(0, None, &balancer, None).unwrap();
            seen.insert(a);
        }
        assert!(seen.len() >= 2, "picks never spread: {seen:?}");
    }

    #[test]
    fn unrouted_pick_avoids_the_failed_replica_while_there_is_another() {
        let balancer = PowerOfTwo::new(8);
        let table = table_with(0, &[1001, 1002, 1003]);
        for _ in 0..100 {
            let (_, index) = table.pick(0, None, &balancer, Some(1)).unwrap();
            assert_ne!(index, 1);
        }
        let single = table_with(0, &[1001]);
        assert_eq!(single.pick(0, None, &balancer, Some(0)).unwrap().1, 0);
    }

    #[test]
    fn pick_routed_is_sticky() {
        let table = table_with(0, &[1001, 1002, 1003, 1004]);
        {
            let mut state = RoutingState {
                epoch: 2,
                routes: HashMap::new(),
                assignments: HashMap::new(),
            };
            state
                .routes
                .insert(0, vec![addr(1001), addr(1002), addr(1003), addr(1004)]);
            state.assignments.insert(0, SliceAssignment::uniform(4, 8));
            table.update(state);
        }
        let balancer = PowerOfTwo::new(8);
        for key in [1u64, 99, u64::MAX / 7] {
            let (first, _) = table.pick(0, Some(key), &balancer, None).unwrap();
            for _ in 0..10 {
                let (again, _) = table.pick(0, Some(key), &balancer, None).unwrap();
                assert_eq!(first, again, "routing key {key} moved");
            }
        }
    }

    #[test]
    fn pick_unknown_component_is_unavailable() {
        let table = table_with(0, &[1001]);
        let balancer = PowerOfTwo::new(8);
        assert!(matches!(
            table.pick(7, None, &balancer, None),
            Err(WeaverError::Unavailable { .. })
        ));
    }

    #[test]
    fn routed_pick_feeds_slice_load() {
        let table = table_with(0, &[1001, 1002]);
        {
            let mut state = RoutingState {
                epoch: 2,
                routes: HashMap::new(),
                assignments: HashMap::new(),
            };
            state.routes.insert(0, vec![addr(1001), addr(1002)]);
            state.assignments.insert(0, SliceAssignment::uniform(2, 4));
            table.update(state);
        }
        let balancer = PowerOfTwo::new(8);
        for _ in 0..5 {
            table.pick(0, Some(42), &balancer, None).unwrap();
        }
        let report = table.slice_load(0).expect("load recorded");
        assert_eq!(report.total(), 5);
        let idx = table.assignment_of(0).unwrap().slice_index_for(42).unwrap();
        assert_eq!(report.requests[idx], 5);
        assert_eq!(report.medians[idx], Some(42));
    }

    /// Both scopes over the whole keyspace, each with the call it gates
    /// (a keyed call for `Keys`, an unrouted one for `Component`).
    const GATED: [(Scope, Option<u64>); 2] = [
        (Scope::Keys(0, u64::MAX), Some(5)),
        (Scope::Component, None),
    ];

    #[test]
    fn freeze_queues_admit_until_unfrozen() {
        for (scope, key) in GATED {
            let table = table_with(0, &[1001]);
            table.freeze(0, scope);
            // Frozen: admit with an already-expired deadline fails Unavailable.
            assert!(
                matches!(
                    table.admit(0, key, Instant::now()),
                    Err(WeaverError::Unavailable { .. })
                ),
                "{scope:?}"
            );
            // Other components are unaffected by the freeze.
            let soon = Instant::now() + Duration::from_secs(1);
            table.admit(1, key, soon).unwrap();
            table.release(1, key);
            // A blocked admit wakes when the freeze lifts.
            let t2 = Arc::clone(&table);
            let waiter = std::thread::spawn(move || {
                t2.admit(0, key, Instant::now() + Duration::from_secs(5))
            });
            std::thread::sleep(Duration::from_millis(30));
            assert!(!waiter.is_finished(), "admit went through {scope:?}");
            table.unfreeze(0, scope);
            waiter.join().unwrap().expect("admit after unfreeze");
            table.release(0, key);
        }
    }

    #[test]
    fn drain_waits_for_releases() {
        for (scope, key) in GATED {
            let table = table_with(0, &[1001]);
            let far = Instant::now() + Duration::from_secs(5);
            table.admit(0, key, far).unwrap();
            table.admit(0, key, far).unwrap();
            table.freeze(0, scope);
            assert!(
                !table.drain(0, scope, Duration::from_millis(20)),
                "{scope:?} drained with calls in flight"
            );
            let t2 = Arc::clone(&table);
            let drainer = std::thread::spawn(move || t2.drain(0, scope, Duration::from_secs(5)));
            table.release(0, key);
            table.release(0, key);
            assert!(
                drainer.join().unwrap(),
                "{scope:?} drain missed the releases"
            );
            table.unfreeze(0, scope);
            // A scope with nothing in flight drains immediately.
            assert!(table.drain(0, scope, Duration::from_millis(1)));
        }
    }

    #[test]
    fn scopes_gate_exactly_the_calls_they_cover() {
        let table = table_with(0, &[1001]);
        let far = Instant::now() + Duration::from_secs(5);
        let blocked = |key: Option<u64>| table.admit(0, key, Instant::now()).is_err();
        // A partial key freeze: keys outside the range and unrouted calls
        // pass; neither holds up the range's drain.
        table.freeze(0, Scope::Keys(100, 200));
        assert!(blocked(Some(150)));
        table.admit(0, 99, far).unwrap();
        table.admit(0, None, far).unwrap();
        assert!(table.drain(0, Scope::Keys(100, 200), Duration::from_millis(1)));
        table.unfreeze(0, Scope::Keys(100, 200));
        // A component freeze blocks keyed and unrouted calls alike, and its
        // drain waits for both kinds.
        table.freeze(0, Scope::Component);
        assert!(blocked(Some(99)) && blocked(None));
        assert!(!table.drain(0, Scope::Component, Duration::from_millis(1)));
        table.release(0, 99);
        assert!(!table.drain(0, Scope::Component, Duration::from_millis(1)));
        table.release(0, None);
        assert!(table.drain(0, Scope::Component, Duration::from_millis(1)));
        table.unfreeze(0, Scope::Component);
        assert!(!blocked(Some(99)));
        table.release(0, 99);
    }

    #[test]
    fn idempotency_keys_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let key = next_idempotency_key();
            assert!(seen.insert(key), "duplicate idempotency key {key:#x}");
        }
    }

    #[weaver_macros::component(name = "test.Echo")]
    trait Echo {
        fn echo(&self, ctx: &CallContext, text: String) -> Result<String, WeaverError>;
        fn fail(&self, ctx: &CallContext, code: u32) -> Result<u32, WeaverError>;
    }

    struct EchoImpl;

    impl Echo for EchoImpl {
        fn echo(&self, _: &CallContext, text: String) -> Result<String, WeaverError> {
            Ok(text)
        }
        fn fail(&self, _: &CallContext, code: u32) -> Result<u32, WeaverError> {
            Err(WeaverError::App {
                code,
                message: "nope".into(),
            })
        }
    }

    impl weaver_core::component::Component for EchoImpl {
        type Interface = dyn Echo;
        fn init(_: &weaver_core::context::InitContext<'_>) -> Result<Self, WeaverError> {
            Ok(EchoImpl)
        }
        fn into_interface(self: Arc<Self>) -> Arc<dyn Echo> {
            self
        }
    }

    /// The recorder keys call sites by the caller name's address, but
    /// resolves a new site by its text: two callers whose names are equal
    /// strings at different addresses share one edge and one histogram,
    /// and a fixed call sequence records the same calls, bytes and errors
    /// as the string-keyed caches it replaced.
    #[test]
    fn equal_caller_names_share_one_edge_and_histogram() {
        use crate::single::{SingleMode, SingleProcess};
        use weaver_metrics::MetricFamily;

        const N: u64 = 50;
        let registry = weaver_core::registry::RegistryBuilder::new()
            .register::<EchoImpl>()
            .build();
        let app = SingleProcess::deploy(Arc::new(registry), SingleMode::Marshaled, 1);
        let echo = app.get::<dyn Echo>().unwrap();
        let name = |s: &str| -> &'static str { Box::leak(s.to_string().into_boxed_str()) };
        let (a, b) = (name("test.Caller"), name("test.Caller"));
        assert_ne!(a.as_ptr(), b.as_ptr());
        let from = |caller| CallContext {
            caller,
            ..CallContext::test()
        };
        for _ in 0..N {
            echo.echo(&from(a), "hello".into()).unwrap();
            echo.echo(&from(b), "hello".into()).unwrap();
        }
        echo.echo(&from(a), "x".repeat(200)).unwrap();
        for code in 0..3 {
            echo.fail(&from(b), code).unwrap_err();
        }
        echo.echo(&from(""), String::new()).unwrap();

        // (caller, method, calls, request bytes, response bytes, errors),
        // as the string-keyed caches recorded them.
        let edges: Vec<_> = app
            .callgraph()
            .edges
            .into_iter()
            .map(|(e, s)| {
                assert_eq!(e.callee, "test.Echo");
                assert_eq!(s.latency.count, s.calls);
                (
                    e.caller,
                    e.method,
                    s.calls,
                    s.request_bytes,
                    s.response_bytes,
                    s.errors,
                )
            })
            .collect();
        let expected: Vec<_> = [
            ("", "echo", 1, 1, 2, 0),
            ("test.Caller", "echo", 2 * N + 1, 802, 903, 0),
            ("test.Caller", "fail", 3, 12, 33, 3),
        ]
        .map(|(c, m, calls, req, resp, errs)| {
            (c.to_string(), m.to_string(), calls, req, resp, errs)
        })
        .into();
        assert_eq!(edges, expected);

        let histograms: Vec<(String, u64)> = app
            .metrics()
            .metrics
            .into_iter()
            .filter_map(|(name, family)| match family {
                MetricFamily::Histogram(h) if name.ends_with("/call_nanos") => {
                    Some((name, h.count))
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            histograms,
            vec![
                ("test.Echo/echo/marshaled/call_nanos".to_string(), 2 * N + 2),
                ("test.Echo/fail/marshaled/call_nanos".to_string(), 3),
            ]
        );
    }
}
