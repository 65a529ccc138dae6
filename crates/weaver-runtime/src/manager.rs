//! The global manager and the multiprocess deployer (paper Figure 3).
//!
//! "The manager launches envelopes and (indirectly) proclets across the set
//! of available resources. Throughout the lifetime of the application, the
//! manager interacts with the envelopes to collect health and load
//! information of the running components; to aggregate metrics, logs, and
//! traces exported by the components; and to handle requests to start new
//! components. … Note that the runtime implements the control plane but not
//! the data plane. Proclets communicate directly with one another."
//!
//! [`MultiProcess`] hosts a [`ControlPlane`], which decides membership:
//! what to spawn, restart, retire and route, and when the HPA scales. The
//! manager does the I/O those decisions need. It turns envelope events into
//! control-plane events, and carries each command out: it spawns envelopes,
//! writes to pipes and updates the ingress routing table. It also keeps the
//! metrics and call-graph reports, waits for registration, and exposes
//! typed component clients to the driving process.

use std::collections::{BTreeMap, HashMap};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

use weaver_core::component::ComponentInterface;
use weaver_core::context::CallContext;
use weaver_core::error::WeaverError;
use weaver_core::registry::ComponentRegistry;
use weaver_metrics::{CallGraph, CallGraphSnapshot, MetricsSnapshot};

use crate::config::DeploymentConfig;
use crate::control::{Command, ControlPlane, Event};
use crate::envelope::{Envelope, EnvelopeEvent, Incarnation, ReplicaId, SpawnSpec};
use crate::protocol::{EnvelopeMessage, ProcletMessage};
use crate::router::{RemoteRouter, RoutingState, RoutingTable};

/// How long `deploy` and `scale_group` wait for proclets to register.
const DEPLOY_TIMEOUT: Duration = Duration::from_secs(30);

struct ManagerState {
    control: ControlPlane,
    /// Live envelopes by incarnation: a retired incarnation keeps its
    /// envelope until its process exits, beside the one replacing it.
    envelopes: HashMap<Incarnation, Arc<Envelope>>,
    /// Latest load report per replica. Reports are cumulative snapshots,
    /// so the aggregate is their merge at read time, never a running sum.
    reports: BTreeMap<ReplicaId, (MetricsSnapshot, CallGraphSnapshot)>,
}

struct Shared {
    registry: Arc<ComponentRegistry>,
    config: DeploymentConfig,
    spawn: SpawnSpec,
    state: Mutex<ManagerState>,
    ready: Condvar,
    /// The manager's own (ingress) routing table.
    table: Arc<RoutingTable>,
    events_tx: Sender<EnvelopeEvent>,
}

impl Shared {
    /// Steps the control plane on `event` and carries out its commands.
    /// Every command runs; the first spawn failure is returned.
    fn step(&self, state: &mut ManagerState, event: Event) -> Result<(), WeaverError> {
        let mut result = Ok(());
        for command in state.control.step(event) {
            match command {
                Command::Spawn(incarnation) => match Envelope::spawn(
                    &self.spawn,
                    incarnation,
                    self.config.version,
                    self.config.server_workers,
                    self.events_tx.clone(),
                ) {
                    Ok(envelope) => {
                        state.envelopes.insert(incarnation, envelope);
                    }
                    Err(e) => {
                        result = result.and(Err(WeaverError::internal(format!(
                            "spawn proclet {incarnation}: {e}"
                        ))));
                    }
                },
                Command::Shutdown(incarnation) => {
                    if let Some(envelope) = state.envelopes.get(&incarnation) {
                        let _ = envelope.send(&EnvelopeMessage::Shutdown);
                    }
                }
                Command::HostComponents(incarnation, components) => {
                    if let Some(envelope) = state.envelopes.get(&incarnation) {
                        let _ = envelope.send(&EnvelopeMessage::HostComponents { components });
                    }
                }
                Command::Install(routing) => {
                    let msg = EnvelopeMessage::RoutingInfo(routing.clone());
                    for envelope in state.envelopes.values() {
                        let _ = envelope.send(&msg);
                    }
                    self.table.update(routing);
                }
            }
        }
        let (registered, desired) = state.control.registration();
        if registered == desired as usize {
            self.ready.notify_all();
        }
        result
    }

    fn handle_event(&self, event: EnvelopeEvent) -> Result<(), WeaverError> {
        let mut state = self.state.lock();
        let event = match event {
            EnvelopeEvent::Exited(incarnation) => {
                state.envelopes.remove(&incarnation);
                Event::Exited(incarnation)
            }
            EnvelopeEvent::Message(incarnation, msg) => match msg {
                ProcletMessage::RegisterReplica { addr, .. } => {
                    Event::Registered(incarnation, addr)
                }
                ProcletMessage::ComponentsToHost => Event::HostQuery(incarnation),
                ProcletMessage::LoadReport {
                    utilization,
                    metrics,
                    callgraph,
                } => {
                    // A retired incarnation answers health checks until it
                    // exits; its snapshot must not replace its successor's.
                    if state.control.incarnation(incarnation.id) == Some(incarnation) {
                        state.reports.insert(incarnation.id, (metrics, callgraph));
                    }
                    Event::Load(incarnation, utilization)
                }
                ProcletMessage::Log { level, message } => {
                    eprintln!("[proclet {} l{level}] {message}", incarnation.id);
                    return Ok(());
                }
                // All components are pre-assigned to groups; a request to
                // start one that is already assigned is satisfied by
                // construction. (Kept for Table 1 API completeness.)
                ProcletMessage::StartComponent { .. } | ProcletMessage::ShuttingDown => {
                    return Ok(())
                }
            },
        };
        self.step(&mut state, event)
    }

    /// Blocks until every desired replica registered or `DEPLOY_TIMEOUT`
    /// passed.
    fn wait_registered(
        &self,
        state: &mut MutexGuard<'_, ManagerState>,
        what: &str,
    ) -> Result<(), WeaverError> {
        let deadline = Instant::now() + DEPLOY_TIMEOUT;
        loop {
            let (registered, desired) = state.control.registration();
            if registered == desired as usize {
                return Ok(());
            }
            let timeout = deadline.saturating_duration_since(Instant::now());
            if timeout.is_zero() {
                return Err(WeaverError::Unavailable {
                    detail: format!("{what} timed out: {registered}/{desired} proclets registered"),
                });
            }
            self.ready.wait_for(state, timeout);
        }
    }
}

/// A running multiprocess deployment.
pub struct MultiProcess {
    shared: Arc<Shared>,
    router: Arc<RemoteRouter>,
    callgraph: Arc<CallGraph>,
    event_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    health_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl MultiProcess {
    /// Spawns the deployment described by `config` and blocks until every
    /// proclet has registered.
    ///
    /// `groups` maps co-location groups to component *names*; components
    /// not mentioned get singleton groups. The proclet processes are
    /// re-executions of `spawn.exe` — normally the current binary, whose
    /// `main` must call [`crate::proclet::maybe_proclet`] first.
    pub fn deploy(
        registry: Arc<ComponentRegistry>,
        config: DeploymentConfig,
        spawn: SpawnSpec,
    ) -> Result<Arc<MultiProcess>, WeaverError> {
        // Resolve group names to ids and complete the partition.
        let mut groups: Vec<Vec<u32>> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for group in &config.colocate {
            let mut ids = Vec::new();
            for name in group {
                let id = registry.id_of(name)?;
                if !seen.insert(id) {
                    return Err(WeaverError::internal(format!(
                        "component {name} appears in two co-location groups"
                    )));
                }
                ids.push(id);
            }
            if !ids.is_empty() {
                groups.push(ids);
            }
        }
        for (id, _) in registry.iter() {
            if !seen.contains(&id) {
                groups.push(vec![id]);
            }
        }

        let autoscale = config
            .autoscale
            .then(|| weaver_placement::AutoscalerConfig {
                target_utilization: config.target_utilization,
                min_replicas: config.min_replicas.max(1),
                max_replicas: config.max_replicas.max(1),
                // One-second ticks: keep k8s-ish 5-tick stabilization.
                ..Default::default()
            });
        let group_count = groups.len() as u32;
        let (events_tx, events_rx) = channel();
        let replicas = config.replicas.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(ManagerState {
                control: ControlPlane::for_registry(&registry, groups, autoscale),
                envelopes: HashMap::new(),
                reports: BTreeMap::new(),
            }),
            registry,
            config,
            spawn,
            ready: Condvar::new(),
            table: RoutingTable::new(),
            events_tx,
        });

        // Spawn all proclets.
        {
            let mut state = shared.state.lock();
            for group in 0..group_count {
                shared.step(&mut state, Event::Scale { group, replicas })?;
            }
        }

        // Event loop.
        let event_thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("weaver-manager".into())
                .spawn(move || {
                    let handle = |event| {
                        if let Err(e) = shared.handle_event(event) {
                            eprintln!("manager: {e}");
                        }
                    };
                    loop {
                        match events_rx.recv_timeout(Duration::from_millis(200)) {
                            Ok(event) => handle(event),
                            Err(RecvTimeoutError::Timeout) => {
                                if shared.state.lock().control.shutting_down() {
                                    // Drain whatever is left, then stop.
                                    while let Ok(event) = events_rx.try_recv() {
                                        handle(event);
                                    }
                                    break;
                                }
                            }
                            Err(RecvTimeoutError::Disconnected) => break,
                        }
                    }
                })
                .map_err(|e| WeaverError::internal(e.to_string()))?
        };

        // Periodic health checks drive load reports (Figure 3 aggregation)
        // and, when enabled, the HPA control loop over them.
        let health_thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("weaver-health".into())
                .spawn(move || {
                    let mut tick = 0u64;
                    loop {
                        std::thread::sleep(Duration::from_millis(250));
                        tick += 1;
                        let mut state = shared.state.lock();
                        if state.control.shutting_down() {
                            break;
                        }
                        for envelope in state.envelopes.values() {
                            let _ = envelope.send(&EnvelopeMessage::HealthCheck);
                        }
                        // HPA evaluation once per second, on the reports
                        // collected since the last one.
                        if tick.is_multiple_of(4) {
                            if let Err(e) = shared.step(&mut state, Event::Tick) {
                                eprintln!("manager: autoscale: {e}");
                            }
                        }
                    }
                })
                .map_err(|e| WeaverError::internal(e.to_string()))?
        };

        shared.wait_registered(&mut shared.state.lock(), "deploy")?;

        let callgraph = Arc::new(CallGraph::new());
        let router = Arc::new(RemoteRouter::new(
            Arc::clone(&shared.table),
            Arc::clone(&callgraph),
            shared.config.version,
            "unix",
        ));
        Ok(Arc::new(MultiProcess {
            shared,
            router,
            callgraph,
            event_thread: Mutex::new(Some(event_thread)),
            health_thread: Mutex::new(Some(health_thread)),
        }))
    }

    /// Returns a typed client for component `I` (the paper's `Get[T]`),
    /// calling into the deployment from the manager process.
    pub fn get<I: ComponentInterface + ?Sized>(&self) -> Result<Arc<I>, WeaverError> {
        let handle = self.shared.registry.client_handle::<I>(
            Arc::clone(&self.router) as Arc<dyn weaver_core::client::CallRouter>
        )?;
        Ok(I::client(handle))
    }

    /// A root context for driving requests.
    pub fn root_context(&self) -> CallContext {
        CallContext::root(self.shared.config.version)
    }

    /// The co-location groups in force, as component names.
    pub fn groups(&self) -> Vec<Vec<&'static str>> {
        self.shared
            .state
            .lock()
            .control
            .groups()
            .iter()
            .map(|ids| {
                ids.iter()
                    .filter_map(|&id| self.shared.registry.get(id).ok().map(|r| r.name))
                    .collect()
            })
            .collect()
    }

    /// Aggregated metrics from all proclets, as of each one's last health
    /// check, plus the ingress calls' `call_nanos`.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snapshot = self.router.metrics().snapshot();
        for (metrics, _) in self.shared.state.lock().reports.values() {
            snapshot.merge(metrics);
        }
        snapshot
    }

    /// Aggregated call graph from all proclets, as of each one's last
    /// health check, plus ingress calls.
    pub fn callgraph(&self) -> CallGraphSnapshot {
        let mut snapshot = self.callgraph.snapshot();
        for (_, callgraph) in self.shared.state.lock().reports.values() {
            snapshot.merge(callgraph);
        }
        snapshot
    }

    /// Kills one proclet replica without warning (fault-injection hook).
    /// The manager will restart it and heal routing.
    pub fn kill_replica(&self, group: u32, replica: u32) {
        let state = self.shared.state.lock();
        let incarnation = state.control.incarnation(ReplicaId { group, replica });
        if let Some(envelope) = incarnation.and_then(|i| state.envelopes.get(&i)) {
            envelope.close_pipe();
            envelope.reap(Duration::ZERO);
        }
    }

    /// Changes the desired replica count of one group (the manual HPA
    /// lever; `autoscale` closes the loop). Blocks until new replicas
    /// registered or `DEPLOY_TIMEOUT` passed.
    pub fn scale_group(&self, group: u32, replicas: u32) -> Result<(), WeaverError> {
        let mut state = self.shared.state.lock();
        let Some(old) = state.control.desired(group) else {
            return Err(WeaverError::internal(format!("no group {group}")));
        };
        self.shared
            .step(&mut state, Event::Scale { group, replicas })?;
        if replicas > old {
            self.shared.wait_registered(&mut state, "scale-up")?;
        }
        Ok(())
    }

    /// The routing the manager installed last, as its ingress holds it:
    /// each component's replica endpoints, at the plane's epoch.
    pub fn routing(&self) -> RoutingState {
        self.shared.table.routing()
    }

    /// Replica count currently registered for a group.
    pub fn registered_replicas(&self, group: u32) -> usize {
        self.shared.state.lock().control.registered(group)
    }

    /// Shuts the deployment down: every proclet is asked to exit, then
    /// reaped.
    pub fn shutdown(&self) {
        let envelopes: Vec<Arc<Envelope>> = {
            let mut state = self.shared.state.lock();
            if state.control.shutting_down() {
                return;
            }
            // Shutdown commands only: spawning is over.
            let _ = self.shared.step(&mut state, Event::ShuttingDown);
            state.envelopes.values().cloned().collect()
        };
        for envelope in &envelopes {
            envelope.reap(Duration::from_secs(2));
        }
        if let Some(t) = self.health_thread.lock().take() {
            let _ = t.join();
        }
        if let Some(t) = self.event_thread.lock().take() {
            let _ = t.join();
        }
    }
}

impl Drop for MultiProcess {
    fn drop(&mut self) {
        self.shutdown();
    }
}
