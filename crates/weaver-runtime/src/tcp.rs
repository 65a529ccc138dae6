//! The loopback-TCP deployer: real sockets, one OS process.
//!
//! [`TcpProcess`] places every component behind a real
//! [`weaver_transport::Server`] on `127.0.0.1`, optionally replicated, with
//! a shared [`RoutingTable`] carrying routed-key slice assignments — the
//! full multiprocess data plane (framing, coalescing writer, buffer-pool
//! recycling, replica routing) without spawning child processes. It is the
//! third and fourth column of the weavertest deployment matrix: the same
//! test body that runs colocated and marshaled also runs over sockets and
//! over multiple replicas with routed keys, which is how the paper's "the
//! same application binary runs under every placement" claim is enforced
//! rather than sampled.
//!
//! Every replica server runs the one [`ProcletDispatcher`], sharing one
//! fault map: [`ComponentFault`]s are admitted exactly as in
//! [`crate::SingleProcess`] (version backstop first, then the fault, then
//! dedup replay), and [`TcpProcess::crash_component`] restarts instances on
//! every replica. Each replica keeps its own dedup cache, as a proclet does,
//! and fences its keys by the one table, so this deployer is no stronger
//! than the one it stands in for. Every dialed client socket can be wrapped
//! in a [`weaver_transport::fault::FaultStream`] injecting seeded transport
//! faults (delay, corrupt, duplicate, truncate, sever).
//!
//! Its control decisions live in [`crate::control`]: the deployment keeps a
//! [`ControlPlane`], the one writer of its routing, plans [`Migration`]s
//! from the controllers and runs them through [`control::execute`] on the
//! [`ReplicaHost`] primitives: the table's fence, calls on a fault-free
//! pool, and the switch of a dispatch target and placement.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, MutexGuard};

use weaver_core::client::CallRouter;
use weaver_core::component::ComponentInterface;
use weaver_core::context::CallContext;
use weaver_core::error::WeaverError;
use weaver_core::instance::LiveComponents;
use weaver_core::registry::ComponentRegistry;
use weaver_metrics::{CallGraph, CallGraphSnapshot, MetricsRegistry, PlacementSignal};
use weaver_placement::{
    ComponentPlacement, PlacementController, PlacementDecision, PlacementState,
};
use weaver_routing::{ControllerOptions, RebalanceController, RebalanceDecision, SliceAssignment};
use weaver_transport::fault::{FaultInjector, FaultSpec, FaultStream};
use weaver_transport::{Connection, Pool, RequestHeader, RpcHandler, Server, WeaverFraming};

use crate::control::{self, Command, ControlPlane, Event, MigratedRange, Migration, ReplicaHost};
use crate::dispatch::{FaultMap, ProcletDispatcher};
use crate::proclet::ProcletGetter;
use crate::router::{body_to_outcome, next_idempotency_key, RemoteRouter, RoutingTable, Scope};
use crate::single::{ComponentFault, FaultInjectable};

/// Per-call timeout on the migration control plane (export/import calls).
const MIGRATION_CALL_TIMEOUT: Duration = Duration::from_secs(10);

/// Options for a [`TcpProcess`] deployment.
#[derive(Debug, Clone)]
pub struct TcpOptions {
    /// Replicas per component (each replica is a server hosting every
    /// component, like one proclet of an all-colocated multiprocess
    /// deployment).
    pub replicas: usize,
    /// Worker threads per replica server. Must exceed the deepest nested
    /// call chain times the concurrency, or nested calls can starve the
    /// pool.
    pub workers: usize,
    /// When set, every dialed client socket is wrapped in a
    /// [`FaultStream`] drawing from this spec; the *n*-th connection uses
    /// `seed + n` so connections have distinct but deterministic fault
    /// sequences.
    pub fault_spec: Option<FaultSpec>,
}

impl Default for TcpOptions {
    fn default() -> Self {
        TcpOptions {
            replicas: 1,
            workers: 16,
            fault_spec: None,
        }
    }
}

struct Replica {
    live: Arc<LiveComponents>,
    /// The server's handler. Replica 0's doubles as the local dispatch
    /// target when a component is migrated to `Colocated`: calls run the
    /// identical server-side path (version backstop, fault injection,
    /// dedup, nested calls) minus the socket, against the same live
    /// instance replica 0 serves remotely.
    handler: Arc<ProcletDispatcher>,
    /// Dropping it shuts the server down, severing live connections.
    server: Server<WeaverFraming>,
}

/// What one [`TcpProcess::rebalance_routed`] round did: the controller's
/// decisions, the ranges actually migrated, and the epoch the new
/// assignment committed at (unchanged epoch = no-op round).
#[derive(Debug, Clone)]
pub struct MigrationReport {
    /// The controller's decisions, in application order (replayable via
    /// [`weaver_codec::linelog`] + [`weaver_routing::apply_decisions`]).
    pub decisions: Vec<RebalanceDecision>,
    /// Ranges whose owner changed, with transfer counts.
    pub migrated: Vec<MigratedRange>,
    /// Routing-table epoch after the round.
    pub epoch: u64,
}

/// One placement move executed by [`TcpProcess::migrate_component`].
#[derive(Debug, Clone)]
pub struct ComponentMigration {
    /// Component name.
    pub component: String,
    /// The placement migrated to.
    pub to: ComponentPlacement,
    /// Routing-table epoch after the move (unchanged when `!changed`).
    pub epoch: u64,
    /// State entries consolidated onto the surviving instance during a
    /// colocation (0 for stateless or single-replica moves).
    pub consolidated_entries: u64,
    /// False when the component was already at the target placement.
    pub changed: bool,
}

/// What one [`TcpProcess::placement_round`] did: the placement controller's
/// decisions, the migrations that executed them, and the resulting state.
#[derive(Debug, Clone)]
pub struct PlacementRoundReport {
    /// The controller's decisions, in execution order (replayable via
    /// [`weaver_codec::linelog`] + [`weaver_placement::apply_decisions`]).
    pub decisions: Vec<PlacementDecision>,
    /// Executed migrations, one per decision.
    pub migrated: Vec<ComponentMigration>,
    /// The versioned placement state after the round.
    pub state: PlacementState,
    /// Routing-table epoch after the round.
    pub epoch: u64,
}

impl PlacementRoundReport {
    /// True when the controller found nothing worth moving.
    pub fn is_noop(&self) -> bool {
        self.decisions.is_empty()
    }
}

/// A deployment whose data plane is real TCP on loopback.
pub struct TcpProcess {
    registry: Arc<ComponentRegistry>,
    version: u64,
    router: Arc<RemoteRouter>,
    table: Arc<RoutingTable>,
    replicas: Vec<Replica>,
    /// Fault-free connections for the migration control plane: state
    /// handoffs must not be subject to the chaos the data plane is under
    /// (a failed handoff aborts the migration; it must not corrupt it).
    migration_pool: Pool<WeaverFraming>,
    /// Shared by every replica: a fault is injected on a component, not on
    /// a replica of it.
    faults: Arc<FaultMap>,
    /// One injector per dialed connection, in dial order (empty unless
    /// [`TcpOptions::fault_spec`] was set).
    injectors: Arc<Mutex<Vec<FaultInjector>>>,
    /// The live placement of every component, bumped once per executed
    /// migration — the runtime half of the weaver-placement decision log.
    placements: Mutex<PlacementState>,
    /// The one writer of `table`'s assignments and epoch.
    control: Mutex<ControlPlane>,
    /// Held from planning to unfreeze by every migration: one at a time
    /// per deployment, so a plan can never commit over state another
    /// migration moved after it was planned. Separate from `control`, so
    /// reads of the placement never wait on a drain.
    migrating: Mutex<()>,
}

impl TcpProcess {
    /// Deploys `registry` across `options.replicas` loopback TCP servers.
    pub fn deploy(
        registry: Arc<ComponentRegistry>,
        options: TcpOptions,
        version: u64,
    ) -> Result<Arc<Self>, WeaverError> {
        if options.replicas == 0 {
            return Err(WeaverError::internal(
                "a TCP deployment needs at least one replica",
            ));
        }
        let table = RoutingTable::new();
        let callgraph = Arc::new(CallGraph::new());
        let faults = Arc::new(FaultMap::default());
        let injectors: Arc<Mutex<Vec<FaultInjector>>> = Arc::new(Mutex::new(Vec::new()));

        let pool = match options.fault_spec.clone() {
            None => Pool::new(),
            Some(spec) => {
                let injectors = Arc::clone(&injectors);
                Pool::with_dialer(Arc::new(move |endpoint| {
                    let stream = endpoint.dial()?;
                    let mut held = injectors.lock();
                    let injector = FaultInjector::new(FaultSpec {
                        seed: spec.seed.wrapping_add(held.len() as u64),
                        ..spec.clone()
                    });
                    held.push(injector.clone());
                    drop(held);
                    Connection::from_duplex(FaultStream::new(stream, injector))
                }))
            }
        };
        let router = Arc::new(RemoteRouter::with_metrics(
            Arc::clone(&table),
            callgraph,
            version,
            pool,
            Arc::new(MetricsRegistry::new()),
            "tcp",
        ));

        // Every component is hosted on every replica: one co-location group
        // whose replicas are this process's servers. Its control plane
        // routes them, with a slice assignment for each routed component so
        // affine keys stick to one replica, as the manager's does.
        let mut control = ControlPlane::for_registry(
            &registry,
            vec![registry.iter().map(|(id, _)| id).collect()],
            None,
        );
        let mut replicas = Vec::with_capacity(options.replicas);
        let mut registered = Vec::with_capacity(options.replicas);
        let scale = Event::Scale {
            group: 0,
            replicas: options.replicas as u32,
        };
        for command in control.step(scale) {
            let Command::Spawn(incarnation) = command else {
                continue;
            };
            let live = Arc::new(LiveComponents::new(Arc::clone(&registry)));
            // A proclet's getter hosting nothing: server-side nested calls
            // (A calling B while handling a request) cross the data plane
            // too instead of short-circuiting in-process.
            let getter = ProcletGetter::new(Arc::clone(&live), Arc::clone(&router));
            getter.set_hosted(&[]);
            // The process has one registry, the router's: every replica
            // records its `handle_nanos` there, sharing histograms by name.
            let handler = Arc::new(ProcletDispatcher::new(
                Arc::clone(&live),
                getter,
                version,
                Arc::clone(router.metrics()),
                Arc::clone(&faults),
                Arc::clone(&table),
            ));
            let server = handler.serve("127.0.0.1:0", options.workers)?;
            registered.push((incarnation, server.endpoint()));
            replicas.push(Replica {
                live,
                handler,
                server,
            });
        }
        // Nothing calls before the deployment is returned: every server
        // registers at once, and the routing goes out once.
        table.update(control.register_all(registered));

        // Every component starts routed: all calls cross the wire until the
        // placement controller earns a colocation from the live signal.
        let placements =
            PlacementState::all_routed(registry.iter().map(|(_, registration)| registration.name));

        Ok(Arc::new(TcpProcess {
            registry,
            version,
            router,
            table,
            replicas,
            migration_pool: Pool::new(),
            faults,
            injectors,
            placements: Mutex::new(placements),
            control: Mutex::new(control),
            migrating: Mutex::new(()),
        }))
    }

    /// A root call context for driving requests into the deployment.
    pub fn root_context(&self) -> CallContext {
        CallContext::root(self.version)
    }

    /// Returns a client for interface `I`; every call crosses TCP.
    pub fn get<I: ComponentInterface + ?Sized>(&self) -> Result<Arc<I>, WeaverError> {
        let handle = self
            .registry
            .client_handle::<I>(Arc::clone(&self.router) as Arc<dyn CallRouter>)?;
        Ok(I::client(handle))
    }

    /// Number of replica servers.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Components running as leaves on some replica, in name order: started
    /// there, and their `init` acquired no component reference. These are
    /// the ones whose cheap methods the servers answer on the reactor poller.
    ///
    /// Test-only (`tests/inline_dispatch.rs`): boutique components do not
    /// report the thread they ran on, so the leaf set cannot be read off
    /// `inline_dispatches` and thread names. Not part of the supported API.
    #[doc(hidden)]
    pub fn leaf_components(&self) -> Vec<&'static str> {
        self.registry
            .iter()
            .filter(|&(id, _)| self.replicas.iter().any(|r| r.live.is_ready_leaf(id)))
            .map(|(_, registration)| registration.name)
            .collect()
    }

    /// Client-side call-graph snapshot (edges recorded by the router).
    pub fn callgraph(&self) -> CallGraphSnapshot {
        self.router.callgraph().snapshot()
    }

    /// The process's metrics snapshot: per-call latency histograms keyed
    /// `component/method/tcp/call_nanos` recorded at call resolution, the
    /// replicas' server-side `component/method/handle_nanos` (one histogram
    /// per method, shared by every replica), and the transport-plane gauges
    /// (reactor readiness-loop state and the RPC dispatch-queue depth)
    /// refreshed at snapshot time.
    pub fn client_metrics(&self) -> weaver_metrics::MetricsSnapshot {
        crate::router::record_transport_gauges(self.router.metrics());
        self.router.metrics().snapshot()
    }

    /// Calls in flight right now on the client data plane (pending-map
    /// entries across pooled connections). Chaos tests assert this drains
    /// to zero after fault storms — a steady nonzero value is a leak.
    pub fn client_in_flight(&self) -> usize {
        self.router.in_flight()
    }

    /// Transport-fault actions recorded so far, one log per dialed
    /// connection in dial order (empty without a fault spec).
    pub fn transport_fault_logs(&self) -> Vec<Vec<weaver_transport::FaultAction>> {
        self.injectors
            .lock()
            .iter()
            .map(FaultInjector::actions)
            .collect()
    }

    /// Installs (or clears, with the default value) a component fault,
    /// enforced server-side on every replica.
    pub fn inject_fault(&self, component: &str, fault: ComponentFault) {
        self.faults.install(component, fault);
    }

    /// Crashes a component on every replica: each next call per replica
    /// constructs a fresh instance, exercising restart paths under real
    /// sockets.
    pub fn crash_component(&self, component: &str) -> Result<(), WeaverError> {
        let id = self.registry.id_of(component)?;
        for replica in &self.replicas {
            replica.live.restart(id);
        }
        Ok(())
    }

    /// The shared routing table (assignments, epoch, per-slice load, and
    /// the replicas' migration fence) — tests and `wbench` read it to
    /// observe a rebalance from the outside.
    pub fn routing_table(&self) -> &Arc<RoutingTable> {
        &self.table
    }

    /// Runs one controller round for a routed component and migrates live:
    /// plan from observed per-slice load, then hand every range whose owner
    /// changes to its new replica as one migration (see DESIGN.md "Control
    /// plane"). Calls the old owners refuse meanwhile are re-sent to the new
    /// owner, which already holds the state (A8 per-key monotonicity).
    /// Components without `export_keys`/`import_keys` migrate statelessly
    /// (cache semantics). Any failure keeps the old assignment and state.
    pub fn rebalance_routed(
        &self,
        component: &str,
        options: &ControllerOptions,
    ) -> Result<MigrationReport, WeaverError> {
        let exclusive = self.migrating.lock();
        let id = self.registry.id_of(component)?;
        let current = self.table.assignment_of(id).ok_or_else(|| {
            WeaverError::app(format!("{component} has no slice assignment (not routed?)"))
        })?;
        let noop = |decisions| MigrationReport {
            decisions,
            migrated: Vec::new(),
            epoch: self.table.epoch(),
        };
        let Some(load) = self.table.slice_load(id) else {
            // No routed traffic observed yet: nothing to decide from.
            return Ok(noop(Vec::new()));
        };
        let plan =
            RebalanceController::new(options.clone()).plan(&current, &load.requests, &load.medians);
        if plan.is_noop() {
            return Ok(noop(plan.decisions));
        }
        let handoff = control::handoff_methods(&self.registry, id)?;
        let migration = Migration::rebalance(id, &current, plan.assignment, handoff)?;
        let (epoch, migrated) = control::execute(
            &MigrationHost {
                dep: self,
                _exclusive: &exclusive,
            },
            migration,
        )?;
        Ok(MigrationReport {
            decisions: plan.decisions,
            migrated,
            epoch,
        })
    }

    /// The live (versioned) placement of every component.
    pub fn placement_state(&self) -> PlacementState {
        self.placements.lock().clone()
    }

    /// Whether `component`'s calls currently dispatch locally.
    pub fn is_colocated(&self, component: &str) -> bool {
        self.placements.lock().placement_of(component) == Some(ComponentPlacement::Colocated)
    }

    /// Migrates one component between placements without dropping calls:
    /// one migration (see DESIGN.md "Control plane") that freezes the whole
    /// component (its servers refuse new calls, which are re-sent to the
    /// new placement), drains every in-flight call, moves the dispatch
    /// target and bumps the epoch.
    ///
    /// Migrating to [`ComponentPlacement::Colocated`] first consolidates the
    /// component's state onto replica 0 (the instance the local handler
    /// dispatches into) via the `export_keys`/`import_keys` pair, then
    /// short-circuits calls to replica 0's server handler in-process.
    /// Migrating back to [`ComponentPlacement::Routed`] clears the local
    /// target; routed keys keep resolving to replica 0 — where the state
    /// lives — until a slice rebalance respreads them with a proper
    /// handoff. Components without the handoff pair move with cache
    /// semantics (other replicas start fresh instances).
    ///
    /// Any failure rolls back: the old placement stays live with its state
    /// intact.
    pub fn migrate_component(
        &self,
        component: &str,
        to: ComponentPlacement,
    ) -> Result<ComponentMigration, WeaverError> {
        self.migrate_component_locked(&self.migrating.lock(), component, to)
    }

    fn migrate_component_locked(
        &self,
        exclusive: &MutexGuard<'_, ()>,
        component: &str,
        to: ComponentPlacement,
    ) -> Result<ComponentMigration, WeaverError> {
        let id = self.registry.id_of(component)?;
        if self.placements.lock().placement_of(component) == Some(to) {
            return Ok(ComponentMigration {
                component: component.to_string(),
                to,
                epoch: self.table.epoch(),
                consolidated_entries: 0,
                changed: false,
            });
        }
        let migration = Migration::placement_move(
            id,
            to,
            self.replicas.len() as u32,
            self.table.assignment_of(id),
            control::handoff_methods(&self.registry, id)?,
        );
        let (epoch, migrated) = control::execute(
            &MigrationHost {
                dep: self,
                _exclusive: exclusive,
            },
            migration,
        )?;
        Ok(ComponentMigration {
            component: component.to_string(),
            to,
            epoch,
            consolidated_entries: migrated.iter().map(|m| m.entries).sum(),
            changed: true,
        })
    }

    /// Runs one live placement round: plan against the decayed signal, then
    /// execute every decision as a component migration. The resulting state
    /// equals `weaver_placement::apply_decisions(state before, decisions)`
    /// — the report's decision list is the replayable log.
    pub fn placement_round(
        &self,
        controller: &PlacementController,
        signal: &PlacementSignal,
    ) -> Result<PlacementRoundReport, WeaverError> {
        let exclusive = self.migrating.lock();
        let plan = controller.plan(signal, &self.placement_state());
        let mut migrated = Vec::with_capacity(plan.decisions.len());
        for decision in &plan.decisions {
            migrated.push(self.migrate_component_locked(
                &exclusive,
                decision.component(),
                decision.target(),
            )?);
        }
        Ok(PlacementRoundReport {
            decisions: plan.decisions,
            migrated,
            state: self.placement_state(),
            epoch: self.table.epoch(),
        })
    }

    /// One call on the migration control plane — `method` of `component`
    /// on `replica`, over the fault-free pool — returning the decoded reply.
    fn migration_call<T: weaver_codec::Decode>(
        &self,
        replica: u32,
        component: u32,
        method: u32,
        args: Vec<u8>,
    ) -> Result<T, WeaverError> {
        let endpoint = self
            .replicas
            .get(replica as usize)
            .ok_or_else(|| WeaverError::Unavailable {
                detail: format!("replica {replica} out of range ({})", self.replicas.len()),
            })?
            .server
            .endpoint();
        let header = RequestHeader {
            component,
            method,
            version: self.version,
            deadline_nanos: MIGRATION_CALL_TIMEOUT.as_nanos() as u64,
            idempotency: Some(next_idempotency_key()),
            ..Default::default()
        };
        let reply = self
            .migration_pool
            .call(endpoint, &header, &args, Some(MIGRATION_CALL_TIMEOUT))
            .map_err(WeaverError::from)
            .and_then(body_to_outcome)?;
        weaver_core::client::decode_reply(&reply)
    }
}

/// The migration primitives over a [`TcpProcess`]'s replicas. Built only
/// under the deployment's migration lock, so a plan can never commit over
/// state another migration moved after it was planned.
struct MigrationHost<'a> {
    dep: &'a TcpProcess,
    _exclusive: &'a MutexGuard<'a, ()>,
}

impl ReplicaHost for MigrationHost<'_> {
    fn freeze(&self, component: u32, scope: Scope) {
        self.dep.table.freeze(component, scope);
    }

    fn unfreeze(&self, component: u32, scope: Scope) {
        self.dep.table.unfreeze(component, scope);
    }

    fn drain(&self, component: u32, scope: Scope, timeout: Duration) -> bool {
        self.dep.table.drain(component, scope, timeout)
    }

    fn export(
        &self,
        component: u32,
        method: u32,
        range: &MigratedRange,
    ) -> Result<Vec<u8>, WeaverError> {
        let mut args = Vec::new();
        weaver_codec::wire::Encode::encode(&range.start, &mut args);
        weaver_codec::wire::Encode::encode(&range.end, &mut args);
        self.dep.migration_call(range.from, component, method, args)
    }

    fn import(
        &self,
        component: u32,
        method: u32,
        replica: u32,
        blob: &[u8],
    ) -> Result<u64, WeaverError> {
        self.dep.migration_call(
            replica,
            component,
            method,
            weaver_codec::encode_to_vec(blob),
        )
    }

    fn commit(
        &self,
        component: u32,
        assignment: Option<SliceAssignment>,
        placement: Option<ComponentPlacement>,
    ) -> Result<u64, WeaverError> {
        let dep = self.dep;
        let name = dep.registry.get(component)?.name;
        if let Some(to) = placement {
            let local = match to {
                ComponentPlacement::Colocated => Some(dep.replicas.first().ok_or_else(|| {
                    WeaverError::internal("deployment has no replica 0 to colocate with")
                })?),
                ComponentPlacement::Routed => None,
            };
            dep.router.set_local(
                component,
                local.map(|replica| Arc::clone(&replica.handler) as Arc<dyn RpcHandler>),
            );
            // One version bump per executed decision — the same contract as
            // `weaver_placement::apply_decisions`, so a replayed decision
            // log reproduces this state bit for bit.
            let mut placements = dep.placements.lock();
            placements.placements.insert(name.to_string(), to);
            placements.version += 1;
        }
        let routing = dep.control.lock().commit(component, assignment);
        let epoch = routing.epoch;
        dep.table.update(routing);
        Ok(epoch)
    }
}

impl FaultInjectable for TcpProcess {
    fn inject_fault(&self, component: &str, fault: ComponentFault) {
        TcpProcess::inject_fault(self, component, fault);
    }

    fn crash_component(&self, component: &str) -> Result<(), WeaverError> {
        TcpProcess::crash_component(self, component)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use weaver_core::client::ClientHandle;
    use weaver_core::component::{Component, MethodSpec};
    use weaver_core::context::InitContext;
    use weaver_core::registry::RegistryBuilder;

    /// A stateful routed component: per-key bump counts live in whichever
    /// replica the key routes to, so affinity violations are observable as
    /// counts that fail to increment. Implements the state-handoff pair, so
    /// a live migration carries the counts to the new owner.
    trait Counter: Send + Sync + 'static {
        fn bump(&self, ctx: &CallContext, key: u64) -> Result<u64, WeaverError>;
        fn export_keys(
            &self,
            ctx: &CallContext,
            range_start: u64,
            range_end: u64,
        ) -> Result<Vec<u8>, WeaverError>;
        fn import_keys(&self, ctx: &CallContext, blob: Vec<u8>) -> Result<u64, WeaverError>;
    }

    struct CounterClient(ClientHandle);
    impl Counter for CounterClient {
        fn bump(&self, ctx: &CallContext, key: u64) -> Result<u64, WeaverError> {
            let reply = self
                .0
                .call(ctx, 0, Some(key), weaver_codec::encode_to_vec(&key))?;
            weaver_core::client::decode_reply(&reply)
        }
        fn export_keys(
            &self,
            ctx: &CallContext,
            range_start: u64,
            range_end: u64,
        ) -> Result<Vec<u8>, WeaverError> {
            let mut args = Vec::new();
            weaver_codec::wire::Encode::encode(&range_start, &mut args);
            weaver_codec::wire::Encode::encode(&range_end, &mut args);
            let reply = self.0.call(ctx, 1, None, args)?;
            weaver_core::client::decode_reply(&reply)
        }
        fn import_keys(&self, ctx: &CallContext, blob: Vec<u8>) -> Result<u64, WeaverError> {
            let reply = self
                .0
                .call(ctx, 2, None, weaver_codec::encode_to_vec(&blob))?;
            weaver_core::client::decode_reply(&reply)
        }
    }

    impl ComponentInterface for dyn Counter {
        const NAME: &'static str = "test.Counter";
        const METHODS: &'static [MethodSpec] = &[
            MethodSpec {
                name: "bump",
                routed: true,
            },
            MethodSpec {
                name: "export_keys",
                routed: false,
            },
            MethodSpec {
                name: "import_keys",
                routed: false,
            },
        ];
        fn client(handle: ClientHandle) -> Arc<Self> {
            Arc::new(CounterClient(handle))
        }
        fn dispatch(
            this: &Self,
            method: u32,
            ctx: &CallContext,
            args: &[u8],
        ) -> Result<Vec<u8>, WeaverError> {
            match method {
                0 => {
                    let key: u64 = weaver_codec::decode_from_slice(args)?;
                    Ok(weaver_core::client::encode_reply(&this.bump(ctx, key)))
                }
                1 => {
                    let mut r = weaver_codec::reader::Reader::new(args);
                    let start = <u64 as weaver_codec::wire::Decode>::decode(&mut r)
                        .map_err(WeaverError::from)?;
                    let end = <u64 as weaver_codec::wire::Decode>::decode(&mut r)
                        .map_err(WeaverError::from)?;
                    Ok(weaver_core::client::encode_reply(
                        &this.export_keys(ctx, start, end),
                    ))
                }
                2 => {
                    let blob: Vec<u8> = weaver_codec::decode_from_slice(args)?;
                    Ok(weaver_core::client::encode_reply(
                        &this.import_keys(ctx, blob),
                    ))
                }
                m => Err(WeaverError::UnknownMethod {
                    component: Self::NAME.into(),
                    method: m,
                }),
            }
        }
    }

    /// `FAIL_IMPORT_AT = n > 0` makes each instance's n-th `import_keys`
    /// call fail, for exercising handoff rollback.
    #[derive(Default)]
    struct CounterImpl<const FAIL_IMPORT_AT: u32 = 0> {
        counts: Mutex<HashMap<u64, u64>>,
        imports: std::sync::atomic::AtomicU32,
    }
    impl<const FAIL_IMPORT_AT: u32> Counter for CounterImpl<FAIL_IMPORT_AT> {
        fn bump(&self, _: &CallContext, key: u64) -> Result<u64, WeaverError> {
            let mut counts = self.counts.lock();
            let n = counts.entry(key).or_insert(0);
            *n += 1;
            Ok(*n)
        }
        fn export_keys(
            &self,
            _: &CallContext,
            range_start: u64,
            range_end: u64,
        ) -> Result<Vec<u8>, WeaverError> {
            if FAIL_IMPORT_AT != 0 {
                // A flaky handoff is a slow one too, so traffic meets its
                // fence.
                std::thread::sleep(Duration::from_millis(50));
            }
            let mut counts = self.counts.lock();
            let moving: Vec<u64> = counts
                .keys()
                .copied()
                .filter(|&k| weaver_transport::in_slice(range_start, range_end, k))
                .collect();
            let entries = moving
                .into_iter()
                .map(|k| weaver_transport::StateEntry {
                    key_hash: k,
                    payload: weaver_codec::encode_to_vec(
                        &counts.remove(&k).expect("key just listed"),
                    ),
                })
                .collect();
            Ok(weaver_transport::StateBlob {
                component: 0,
                range_start,
                range_end,
                entries,
            }
            .encode())
        }
        fn import_keys(&self, _: &CallContext, blob: Vec<u8>) -> Result<u64, WeaverError> {
            let call = 1 + self
                .imports
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            if call == FAIL_IMPORT_AT {
                return Err(WeaverError::app(format!(
                    "import #{call} failed (injected)"
                )));
            }
            let blob = weaver_transport::StateBlob::decode(&blob).map_err(WeaverError::app)?;
            let mut counts = self.counts.lock();
            let n = blob.entries.len() as u64;
            for e in &blob.entries {
                let count: u64 = weaver_codec::decode_from_slice(&e.payload)?;
                *counts.entry(e.key_hash).or_insert(0) += count;
            }
            Ok(n)
        }
    }
    impl<const FAIL_IMPORT_AT: u32> Component for CounterImpl<FAIL_IMPORT_AT> {
        type Interface = dyn Counter;
        fn init(_: &InitContext<'_>) -> Result<Self, WeaverError> {
            Ok(Self::default())
        }
        fn into_interface(self: Arc<Self>) -> Arc<dyn Counter> {
            self
        }
    }

    fn registry() -> Arc<ComponentRegistry> {
        Arc::new(RegistryBuilder::new().register::<CounterImpl>().build())
    }

    fn deploy_replicas(registry: Arc<ComponentRegistry>, replicas: usize) -> Arc<TcpProcess> {
        let options = TcpOptions {
            replicas,
            ..Default::default()
        };
        TcpProcess::deploy(registry, options, 1).unwrap()
    }

    #[test]
    fn failed_handoff_rolls_back_every_completed_transfer() {
        for scope in [Scope::Keys(0, u64::MAX), Scope::Component] {
            let flaky = RegistryBuilder::new().register::<CounterImpl<2>>().build();
            let dep = deploy_replicas(Arc::new(flaky), 3);
            let counter = dep.get::<dyn Counter>().unwrap();
            let ctx = dep.root_context();
            // One key per slice of the uniform assignment, so all three
            // replicas hold state.
            let keys: Vec<u64> = (0..24).map(|i| i * (u64::MAX / 24) + 7).collect();
            for _ in 0..2 {
                for &key in &keys {
                    counter.bump(&ctx, key).unwrap();
                }
            }
            // Replicas 1 and 2 hand everything to replica 0, whose second
            // import fails: the first transfer has completed by then.
            let handoff = control::handoff_methods(&dep.registry, 0).unwrap();
            let colocate =
                Migration::placement_move(0, ComponentPlacement::Colocated, 3, None, handoff);
            let epoch = dep.routing_table().epoch();
            let done = std::sync::atomic::AtomicBool::new(false);
            let result = std::thread::scope(|threads| {
                // Traffic in the frozen scope while the migration runs and
                // aborts: the owners refuse it, and the abort bumps no
                // epoch, yet every bump lands once and none waits out the
                // call timeout.
                let traffic = threads.spawn(|| {
                    let mut counts = HashMap::new();
                    while !done.load(std::sync::atomic::Ordering::SeqCst) {
                        for key in keys.iter().map(|k| k + 1) {
                            let started = std::time::Instant::now();
                            let n = counter.bump(&ctx, key).unwrap();
                            let took = started.elapsed();
                            assert!(took < Duration::from_secs(1), "{scope:?}: {took:?}");
                            let count = counts.entry(key).or_insert(0);
                            *count += 1;
                            assert_eq!(n, *count, "{scope:?} key {key:#x}");
                        }
                    }
                });
                let result = control::execute(
                    &MigrationHost {
                        dep: &dep,
                        _exclusive: &dep.migrating.lock(),
                    },
                    Migration {
                        freeze: vec![scope],
                        ..colocate
                    },
                );
                done.store(true, std::sync::atomic::Ordering::SeqCst);
                traffic.join().unwrap();
                result
            });
            assert!(result.is_err(), "{scope:?}: {result:?}");
            assert_eq!(dep.routing_table().epoch(), epoch, "{scope:?} committed");
            assert!(!dep.is_colocated("test.Counter"), "{scope:?} committed");
            // The unchanged assignment still finds every key's state where
            // it routes — including the completed transfer's — and the
            // freeze lifted: counts continue from 2.
            for &key in &keys {
                assert_eq!(
                    counter.bump(&ctx, key).unwrap(),
                    3,
                    "{scope:?} key {key:#x}"
                );
            }
        }
    }

    /// Each side of a call is measured once, into the one registry the
    /// process reports: the client's `call_nanos` and the servers'
    /// `handle_nanos`, whichever replica ran the call.
    #[test]
    fn client_metrics_carry_every_replicas_handler_time() {
        const N: u64 = 20;
        let dep = deploy_replicas(registry(), 2);
        let counter = dep.get::<dyn Counter>().unwrap();
        let ctx = dep.root_context();
        for key in 0..N {
            counter.bump(&ctx, key.wrapping_mul(u64::MAX / N)).unwrap();
        }
        let snapshot = dep.client_metrics();
        let count = |name: &str| match snapshot.get(name) {
            Some(weaver_metrics::MetricFamily::Histogram(h)) => h.count,
            other => panic!("{name}: {other:?}"),
        };
        assert_eq!(count("test.Counter/bump/tcp/call_nanos"), N);
        assert_eq!(count("test.Counter/bump/handle_nanos"), N);
    }

    #[test]
    fn zero_replicas_is_an_error() {
        let options = TcpOptions {
            replicas: 0,
            ..Default::default()
        };
        let result = TcpProcess::deploy(registry(), options, 1);
        assert!(matches!(result, Err(WeaverError::Internal { .. })));
    }

    #[test]
    fn roundtrip_and_crash_restart() {
        let dep = deploy_replicas(registry(), 1);
        let counter = dep.get::<dyn Counter>().unwrap();
        let ctx = dep.root_context();
        assert_eq!(counter.bump(&ctx, 5).unwrap(), 1);
        assert_eq!(counter.bump(&ctx, 5).unwrap(), 2);
        dep.crash_component("test.Counter").unwrap();
        // Fresh instance: state is gone, counting restarts.
        assert_eq!(counter.bump(&ctx, 5).unwrap(), 1);
    }

    #[test]
    fn routed_keys_stick_to_one_replica() {
        let dep = deploy_replicas(registry(), 3);
        assert_eq!(dep.replica_count(), 3);
        assert_eq!(dep.routing_table().epoch(), 1, "one install at deploy");
        let counter = dep.get::<dyn Counter>().unwrap();
        let ctx = dep.root_context();
        // If a key ever moved between replicas, its second bump would land
        // on a replica that never saw the first and return 1 again.
        for key in 0..24u64 {
            assert_eq!(counter.bump(&ctx, key).unwrap(), 1, "key {key}");
            assert_eq!(counter.bump(&ctx, key).unwrap(), 2, "key {key}");
        }
        // Each call was charged to its slice once, by the caller: the
        // owners' checks resolve on the same table and charge nothing.
        let load = dep.routing_table().slice_load(0).expect("load recorded");
        assert_eq!(load.total(), 48);
    }

    #[test]
    fn component_fault_enforced_server_side() {
        let dep = deploy_replicas(registry(), 1);
        let counter = dep.get::<dyn Counter>().unwrap();
        let ctx = dep.root_context();
        dep.inject_fault(
            "test.Counter",
            ComponentFault {
                down: true,
                ..Default::default()
            },
        );
        assert!(matches!(
            counter.bump(&ctx, 1),
            Err(WeaverError::Unavailable { .. })
        ));
        dep.inject_fault("test.Counter", ComponentFault::default());
        assert_eq!(counter.bump(&ctx, 1).unwrap(), 1);
    }

    #[test]
    fn live_rebalance_migrates_state_and_preserves_counts() {
        let dep = deploy_replicas(registry(), 2);
        // Start deliberately skewed: a colocation and back leaves every
        // slice on replica 0.
        for to in [ComponentPlacement::Colocated, ComponentPlacement::Routed] {
            dep.migrate_component("test.Counter", to).unwrap();
        }
        let width = u64::MAX / 4;

        let counter = dep.get::<dyn Counter>().unwrap();
        let ctx = dep.root_context();
        // One key per quarter of the keyspace (the Counter routes on the
        // raw key), bumped to a known count before the migration.
        let keys: Vec<u64> = (0..4).map(|i| i * width + width / 2).collect();
        for _ in 0..3 {
            for &key in &keys {
                counter.bump(&ctx, key).unwrap();
            }
        }

        let epoch_before = dep.routing_table().epoch();
        let report = dep
            .rebalance_routed("test.Counter", &ControllerOptions::default())
            .unwrap();
        assert!(
            !report.migrated.is_empty(),
            "all-on-one-replica load should trigger moves: {report:?}"
        );
        assert!(report.epoch > epoch_before, "epoch must bump on commit");
        assert!(
            report.migrated.iter().any(|m| m.entries > 0),
            "moved ranges should carry state: {report:?}"
        );
        // Both replicas now own part of the keyspace.
        let assignment = dep
            .routing_table()
            .assignment_of(
                // test.Counter is the only component: id 0.
                0,
            )
            .unwrap();
        let shares = assignment.share_per_replica();
        assert!(
            shares.iter().all(|&s| s > 0.0),
            "one replica still owns everything: {shares:?}"
        );
        // A8 across the rebalance: every key's count continues from 3 —
        // moved keys found their state on the new owner.
        for &key in &keys {
            assert_eq!(counter.bump(&ctx, key).unwrap(), 4, "key {key:#x}");
        }
    }

    #[test]
    fn rebalance_without_traffic_is_a_noop() {
        let dep = deploy_replicas(registry(), 2);
        let epoch = dep.routing_table().epoch();
        let report = dep
            .rebalance_routed("test.Counter", &ControllerOptions::default())
            .unwrap();
        assert!(report.decisions.is_empty());
        assert!(report.migrated.is_empty());
        assert_eq!(report.epoch, epoch);
    }

    #[test]
    fn transport_delays_preserve_correctness() {
        let dep = TcpProcess::deploy(
            registry(),
            TcpOptions {
                fault_spec: Some(FaultSpec {
                    delay: 1.0,
                    max_delay: Duration::from_micros(200),
                    ..FaultSpec::delays_only(42, 1.0)
                }),
                ..Default::default()
            },
            1,
        )
        .unwrap();
        let counter = dep.get::<dyn Counter>().unwrap();
        let ctx = dep.root_context();
        for i in 1..=10 {
            assert_eq!(counter.bump(&ctx, 7).unwrap(), i);
        }
        let logs = dep.transport_fault_logs();
        let total: usize = logs.iter().map(Vec::len).sum();
        assert!(total > 0, "delay faults should have been recorded");
    }

    #[test]
    fn colocate_consolidates_state_and_dispatches_locally() {
        let dep = deploy_replicas(registry(), 2);
        let counter = dep.get::<dyn Counter>().unwrap();
        let ctx = dep.root_context();
        // One key per slice of the uniform assignment (16 slices
        // alternating replicas), so both replicas hold state before the
        // migration.
        let keys: Vec<u64> = (0..8).map(|i| i * (u64::MAX / 16) + 7).collect();
        for _ in 0..2 {
            for &key in &keys {
                counter.bump(&ctx, key).unwrap();
            }
        }
        assert!(!dep.is_colocated("test.Counter"));
        let epoch_before = dep.routing_table().epoch();
        let migration = dep
            .migrate_component("test.Counter", ComponentPlacement::Colocated)
            .unwrap();
        assert!(migration.changed);
        assert!(migration.epoch > epoch_before, "epoch must bump on commit");
        assert!(
            migration.consolidated_entries > 0,
            "replica 1's keys should consolidate onto replica 0: {migration:?}"
        );
        assert!(dep.is_colocated("test.Counter"));
        // Every key continues from 2: nothing dropped, nothing doubled —
        // replica 1's state moved into the instance local calls now hit.
        for &key in &keys {
            assert_eq!(counter.bump(&ctx, key).unwrap(), 3, "key {key:#x}");
        }
        // Local dispatch records under the colocated placement label, so
        // before/after shows up side by side in one snapshot.
        let snapshot = dep.client_metrics();
        assert!(
            snapshot
                .get("test.Counter/bump/colocated/call_nanos")
                .is_some(),
            "local calls should be recorded under the colocated placement"
        );
    }

    #[test]
    fn migrate_to_current_placement_is_a_noop() {
        let dep = deploy_replicas(registry(), 1);
        let epoch = dep.routing_table().epoch();
        let version = dep.placement_state().version;
        let migration = dep
            .migrate_component("test.Counter", ComponentPlacement::Routed)
            .unwrap();
        assert!(!migration.changed);
        assert_eq!(migration.consolidated_entries, 0);
        assert_eq!(dep.routing_table().epoch(), epoch);
        assert_eq!(
            dep.placement_state().version,
            version,
            "no decision, no bump"
        );
    }

    #[test]
    fn route_back_keeps_state_reachable() {
        let dep = deploy_replicas(registry(), 2);
        let counter = dep.get::<dyn Counter>().unwrap();
        let ctx = dep.root_context();
        let keys: Vec<u64> = (0..6).map(|i| i * (u64::MAX / 6) + 3).collect();
        for &key in &keys {
            counter.bump(&ctx, key).unwrap();
        }
        dep.migrate_component("test.Counter", ComponentPlacement::Colocated)
            .unwrap();
        for &key in &keys {
            assert_eq!(counter.bump(&ctx, key).unwrap(), 2, "key {key:#x}");
        }
        let migration = dep
            .migrate_component("test.Counter", ComponentPlacement::Routed)
            .unwrap();
        assert!(migration.changed);
        assert!(!dep.is_colocated("test.Counter"));
        // The consolidated state lives with replica 0, and the committed
        // assignment resolves every key there — counts keep continuing.
        for &key in &keys {
            assert_eq!(counter.bump(&ctx, key).unwrap(), 3, "key {key:#x}");
        }
        assert_eq!(dep.placement_state().version, 3, "two decisions, two bumps");
    }

    #[test]
    fn placement_round_colocates_the_hot_component() {
        let dep = deploy_replicas(registry(), 2);
        let counter = dep.get::<dyn Counter>().unwrap();
        let ctx = dep.root_context();
        for key in 0..16u64 {
            counter.bump(&ctx, key).unwrap();
        }
        // A signal hot enough that modeled savings dwarf the migration
        // cost: 100 calls/round at 50µs against a 1µs local floor.
        let signal = weaver_metrics::PlacementSignal {
            edges: vec![weaver_metrics::EdgeSignal {
                caller: "client".into(),
                callee: "test.Counter".into(),
                rate_x1000: 100_000,
                mean_latency_ns: 50_000,
            }],
            rounds: 3,
        };
        let controller = PlacementController::default();
        let before = dep.placement_state();
        let report = dep.placement_round(&controller, &signal).unwrap();
        assert_eq!(report.decisions.len(), 1, "{report:?}");
        assert!(dep.is_colocated("test.Counter"));
        assert!(report.migrated[0].changed);
        // The executed round lands exactly where a log replay would: the
        // decision list *is* the state transition.
        let replayed = weaver_placement::apply_decisions(&before, &report.decisions).unwrap();
        assert_eq!(replayed.version, report.state.version);
        assert_eq!(replayed.placements, report.state.placements);
        for key in 0..16u64 {
            assert_eq!(counter.bump(&ctx, key).unwrap(), 2, "key {key}");
        }
        // A second round against the same signal is a no-op: converged.
        let second = dep.placement_round(&controller, &signal).unwrap();
        assert!(second.is_noop(), "{second:?}");
    }
}
