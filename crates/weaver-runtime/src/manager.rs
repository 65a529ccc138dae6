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
//! [`MultiProcess::deploy`] spawns one proclet subprocess per (co-location
//! group × replica), waits for every replica to register, distributes the
//! hosting assignment and routing tables, restarts crashed proclets, and
//! exposes typed component clients to the driving process.

use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};

use weaver_core::component::ComponentInterface;
use weaver_core::context::CallContext;
use weaver_core::error::WeaverError;
use weaver_core::registry::ComponentRegistry;
use weaver_metrics::{CallGraph, CallGraphSnapshot, MetricsSnapshot};
use weaver_routing::SliceAssignment;

use crate::config::DeploymentConfig;
use crate::envelope::{Envelope, EnvelopeEvent, ReplicaId, SpawnSpec};
use crate::protocol::{EnvelopeMessage, ProcletMessage};
use crate::router::{RemoteRouter, RoutingState, RoutingTable};

/// How long `deploy` waits for every proclet to register.
const DEPLOY_TIMEOUT: Duration = Duration::from_secs(30);
/// Restarts allowed per replica before the manager gives up on it.
const RESTART_LIMIT: u32 = 5;

#[derive(Default)]
struct ManagerState {
    envelopes: HashMap<ReplicaId, Arc<Envelope>>,
    addrs: HashMap<ReplicaId, SocketAddr>,
    /// Desired replica count per group.
    desired: Vec<u32>,
    epoch: u64,
    shutting_down: bool,
    restarts: HashMap<ReplicaId, u32>,
    /// Latest load report per replica. Reports are cumulative snapshots,
    /// so the aggregate is their merge at read time, never a running sum.
    reports: BTreeMap<ReplicaId, (MetricsSnapshot, CallGraphSnapshot)>,
    /// Latest reported busy fraction per replica (HPA input).
    utilization: HashMap<ReplicaId, f64>,
    /// One HPA state machine per group (populated when autoscaling).
    autoscalers: Vec<weaver_placement::Autoscaler>,
}

impl ManagerState {
    /// Forgets a replica that stops serving: it leaves routing, and its last
    /// busy fraction leaves its group's HPA mean. With `shutdown`, its
    /// proclet is also asked to exit.
    fn retire(&mut self, id: ReplicaId, shutdown: bool) {
        self.addrs.remove(&id);
        self.utilization.remove(&id);
        if shutdown {
            if let Some(envelope) = self.envelopes.get(&id) {
                let _ = envelope.send(&EnvelopeMessage::Shutdown);
            }
        }
    }
}

struct Shared {
    registry: Arc<ComponentRegistry>,
    config: DeploymentConfig,
    /// Component ids per group.
    groups: Vec<Vec<u32>>,
    spawn: SpawnSpec,
    state: Mutex<ManagerState>,
    ready: Condvar,
    /// The manager's own (ingress) routing table.
    table: Arc<RoutingTable>,
    events_tx: Sender<EnvelopeEvent>,
}

impl Shared {
    /// True when every desired replica has registered an address.
    fn all_registered(state: &ManagerState) -> bool {
        let desired_total: u32 = state.desired.iter().sum();
        state.addrs.len() == desired_total as usize
    }

    fn spawn_replica(&self, state: &mut ManagerState, id: ReplicaId) -> Result<(), WeaverError> {
        let envelope = Envelope::spawn(
            &self.spawn,
            id,
            self.config.version,
            self.config.server_workers,
            self.events_tx.clone(),
        )
        .map_err(|e| WeaverError::internal(format!("spawn proclet {id}: {e}")))?;
        state.envelopes.insert(id, envelope);
        Ok(())
    }

    /// Recomputes routing from registered addresses and pushes it to every
    /// proclet and to the manager's own table.
    fn broadcast_routing(&self, state: &mut ManagerState) {
        state.epoch += 1;
        let mut routes: Vec<(u32, Vec<String>)> = Vec::new();
        let mut parsed_routes: HashMap<u32, Vec<SocketAddr>> = HashMap::new();
        for (group_idx, components) in self.groups.iter().enumerate() {
            // Addresses of this group's registered replicas, replica order.
            let mut replicas: Vec<(u32, SocketAddr)> = state
                .addrs
                .iter()
                .filter(|(id, _)| id.group == group_idx as u32)
                .map(|(id, addr)| (id.replica, *addr))
                .collect();
            replicas.sort_by_key(|(r, _)| *r);
            let addrs: Vec<SocketAddr> = replicas.into_iter().map(|(_, a)| a).collect();
            for &component in components {
                routes.push((component, addrs.iter().map(|a| a.to_string()).collect()));
                parsed_routes.insert(component, addrs.clone());
            }
        }

        // Slice assignments for components with routed methods.
        let mut assignments: Vec<(u32, SliceAssignment)> = Vec::new();
        for (id, registration) in self.registry.iter() {
            if registration.methods.iter().any(|m| m.routed) {
                let replica_count = parsed_routes.get(&id).map_or(0, Vec::len) as u32;
                if replica_count > 0 {
                    assignments.push((id, SliceAssignment::uniform(replica_count, 8)));
                }
            }
        }

        let msg = EnvelopeMessage::RoutingInfo {
            epoch: state.epoch,
            routes: routes.clone(),
            assignments: assignments.clone(),
        };
        for envelope in state.envelopes.values() {
            let _ = envelope.send(&msg);
        }
        self.table.update(RoutingState {
            epoch: state.epoch,
            routes: parsed_routes,
            assignments: assignments.into_iter().collect(),
        });
    }

    /// One HPA evaluation over the latest load reports: the same control
    /// law the paper's prototype delegates to Horizontal Pod Autoscalers.
    fn autoscale_tick(&self, state: &mut ManagerState) {
        if state.autoscalers.is_empty() {
            let hpa = weaver_placement::AutoscalerConfig {
                target_utilization: self.config.target_utilization,
                min_replicas: self.config.min_replicas.max(1),
                max_replicas: self.config.max_replicas.max(1),
                // One-second ticks: keep k8s-ish 5-tick stabilization.
                ..Default::default()
            };
            state.autoscalers = (0..self.groups.len())
                .map(|_| weaver_placement::Autoscaler::new(hpa.clone()))
                .collect();
        }
        let mut any_change = false;
        for group in 0..self.groups.len() as u32 {
            let replicas: Vec<f64> = state
                .utilization
                .iter()
                .filter(|(id, _)| id.group == group)
                .map(|(_, &u)| u)
                .collect();
            if replicas.is_empty() {
                continue;
            }
            let mean = replicas.iter().sum::<f64>() / replicas.len() as f64;
            let current = state.desired[group as usize];
            let desired = state.autoscalers[group as usize].evaluate(current, mean);
            if desired == current {
                continue;
            }
            any_change = true;
            state.desired[group as usize] = desired;
            if desired > current {
                for replica in current..desired {
                    let id = ReplicaId { group, replica };
                    if let Err(e) = self.spawn_replica(state, id) {
                        eprintln!("manager: autoscale spawn {id} failed: {e}");
                    }
                }
                // Routing picks the new replicas up when they register.
            } else {
                for replica in desired..current {
                    state.retire(ReplicaId { group, replica }, true);
                }
            }
        }
        if any_change {
            self.broadcast_routing(state);
        }
    }

    fn handle_event(&self, event: EnvelopeEvent) {
        match event {
            EnvelopeEvent::Message(id, msg) => self.handle_message(id, msg),
            EnvelopeEvent::Exited(id) => self.handle_exit(id),
        }
    }

    fn handle_message(&self, id: ReplicaId, msg: ProcletMessage) {
        let mut state = self.state.lock();
        match msg {
            ProcletMessage::RegisterReplica { addr, .. } => {
                if let Ok(parsed) = addr.parse::<SocketAddr>() {
                    state.addrs.insert(id, parsed);
                    self.broadcast_routing(&mut state);
                    if Shared::all_registered(&state) {
                        self.ready.notify_all();
                    }
                }
            }
            ProcletMessage::ComponentsToHost => {
                let components = self
                    .groups
                    .get(id.group as usize)
                    .cloned()
                    .unwrap_or_default();
                if let Some(envelope) = state.envelopes.get(&id) {
                    let _ = envelope.send(&EnvelopeMessage::HostComponents { components });
                }
            }
            ProcletMessage::StartComponent { component } => {
                // All components are pre-assigned to groups; a request to
                // start one that is already assigned is satisfied by
                // construction. (Kept for Table 1 API completeness.)
                let _ = component;
            }
            ProcletMessage::LoadReport {
                utilization,
                metrics,
                callgraph,
            } => {
                state.utilization.insert(id, utilization);
                state.reports.insert(id, (metrics, callgraph));
            }
            ProcletMessage::Log { level, message } => {
                eprintln!("[proclet {id} l{level}] {message}");
            }
            ProcletMessage::ShuttingDown => {}
        }
    }

    fn handle_exit(&self, id: ReplicaId) {
        let mut state = self.state.lock();
        state.retire(id, false);
        state.envelopes.remove(&id);
        if state.shutting_down {
            return;
        }
        // Still desired? Restart (the paper's "restarting components when
        // they fail" at proclet granularity), unless it is crash-looping.
        let desired = state.desired.get(id.group as usize).copied().unwrap_or(0);
        let restarts = state.restarts.entry(id).or_insert(0);
        if id.replica < desired && *restarts < RESTART_LIMIT {
            *restarts += 1;
            eprintln!("manager: proclet {id} exited; restarting (attempt {restarts})");
            if let Err(e) = self.spawn_replica(&mut state, id) {
                eprintln!("manager: restart of {id} failed: {e}");
            }
        }
        self.broadcast_routing(&mut state);
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

        let (events_tx, events_rx): (Sender<EnvelopeEvent>, Receiver<EnvelopeEvent>) = unbounded();
        let replicas = config.replicas.max(1);
        let shared = Arc::new(Shared {
            registry,
            config,
            groups,
            spawn,
            state: Mutex::new(ManagerState::default()),
            ready: Condvar::new(),
            table: RoutingTable::new(),
            events_tx,
        });

        // Spawn all proclets.
        {
            let mut state = shared.state.lock();
            state.desired = vec![replicas; shared.groups.len()];
            for group in 0..shared.groups.len() as u32 {
                for replica in 0..replicas {
                    shared.spawn_replica(&mut state, ReplicaId { group, replica })?;
                }
            }
        }

        // Event loop.
        let event_thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("weaver-manager".into())
                .spawn(move || {
                    loop {
                        match events_rx.recv_timeout(Duration::from_millis(200)) {
                            Ok(event) => shared.handle_event(event),
                            Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                                if shared.state.lock().shutting_down {
                                    // Drain whatever is left, then stop.
                                    while let Ok(event) = events_rx.try_recv() {
                                        shared.handle_event(event);
                                    }
                                    break;
                                }
                            }
                            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
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
                        if state.shutting_down {
                            break;
                        }
                        for envelope in state.envelopes.values() {
                            let _ = envelope.send(&EnvelopeMessage::HealthCheck);
                        }
                        // HPA evaluation once per second, on the reports
                        // collected since the last one.
                        if shared.config.autoscale && tick.is_multiple_of(4) {
                            shared.autoscale_tick(&mut state);
                        }
                    }
                })
                .map_err(|e| WeaverError::internal(e.to_string()))?
        };

        // Wait until every replica registered.
        {
            let mut state = shared.state.lock();
            let deadline = Instant::now() + DEPLOY_TIMEOUT;
            while !Shared::all_registered(&state) {
                let timeout = deadline.saturating_duration_since(Instant::now());
                if timeout.is_zero() {
                    return Err(WeaverError::Unavailable {
                        detail: format!(
                            "deploy timed out: {}/{} proclets registered",
                            state.addrs.len(),
                            state.desired.iter().sum::<u32>()
                        ),
                    });
                }
                shared.ready.wait_for(&mut state, timeout);
            }
        }

        let callgraph = Arc::new(CallGraph::new());
        let router = Arc::new(RemoteRouter::new(
            Arc::clone(&shared.table),
            Arc::clone(&callgraph),
            shared.config.version,
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
            .groups
            .iter()
            .map(|ids| {
                ids.iter()
                    .filter_map(|&id| self.shared.registry.get(id).ok().map(|r| r.name))
                    .collect()
            })
            .collect()
    }

    /// Aggregated metrics from all proclets, as of each one's last health
    /// check.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snapshot = MetricsSnapshot::default();
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

    /// What the placement optimizer would co-locate, given the traffic this
    /// deployment has actually observed (paper §5.1: use the fine-grained
    /// call graph to make smarter co-location decisions). Feed the result
    /// back into the next deployment's `[placement] colocate` config.
    pub fn proposed_colocation(
        &self,
        config: &weaver_placement::ColocationConfig,
    ) -> Vec<Vec<String>> {
        weaver_placement::colocate(&self.callgraph(), config)
    }

    /// Kills one proclet replica without warning (fault-injection hook).
    /// The manager will restart it and heal routing.
    pub fn kill_replica(&self, group: u32, replica: u32) {
        let state = self.shared.state.lock();
        if let Some(envelope) = state.envelopes.get(&ReplicaId { group, replica }) {
            envelope.close_pipe();
            envelope.reap(Duration::ZERO);
        }
    }

    /// Changes the desired replica count of one group (manual HPA lever;
    /// the simulator drives the closed-loop version). Blocks until new
    /// replicas registered or `DEPLOY_TIMEOUT` passed.
    pub fn scale_group(&self, group: u32, replicas: u32) -> Result<(), WeaverError> {
        let replicas = replicas.max(1);
        let mut state = self.shared.state.lock();
        let Some(desired) = state.desired.get_mut(group as usize) else {
            return Err(WeaverError::internal(format!("no group {group}")));
        };
        let old = *desired;
        *desired = replicas;
        if replicas > old {
            for replica in old..replicas {
                self.shared
                    .spawn_replica(&mut state, ReplicaId { group, replica })?;
            }
            let deadline = Instant::now() + DEPLOY_TIMEOUT;
            while !Shared::all_registered(&state) {
                let timeout = deadline.saturating_duration_since(Instant::now());
                if timeout.is_zero() {
                    return Err(WeaverError::Unavailable {
                        detail: "scale-up timed out".into(),
                    });
                }
                self.shared.ready.wait_for(&mut state, timeout);
            }
        } else {
            for replica in replicas..old {
                state.retire(ReplicaId { group, replica }, true);
            }
            self.shared.broadcast_routing(&mut state);
        }
        Ok(())
    }

    /// Replica count currently registered for a group.
    pub fn registered_replicas(&self, group: u32) -> usize {
        self.shared
            .state
            .lock()
            .addrs
            .keys()
            .filter(|id| id.group == group)
            .count()
    }

    /// Shuts the deployment down: every proclet is asked to exit, then
    /// reaped.
    pub fn shutdown(&self) {
        let envelopes: Vec<Arc<Envelope>> = {
            let mut state = self.shared.state.lock();
            if state.shutting_down {
                return;
            }
            state.shutting_down = true;
            state.envelopes.values().cloned().collect()
        };
        for envelope in &envelopes {
            let _ = envelope.send(&EnvelopeMessage::Shutdown);
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_retired_replica_neither_routes_nor_counts_toward_the_hpa_mean() {
        let gone = ReplicaId {
            group: 0,
            replica: 1,
        };
        let kept = ReplicaId {
            group: 0,
            replica: 0,
        };
        let mut state = ManagerState::default();
        for (id, busy) in [(kept, 0.2), (gone, 0.9)] {
            state.addrs.insert(id, "127.0.0.1:1".parse().unwrap());
            state.utilization.insert(id, busy);
        }
        state.retire(gone, false);
        assert_eq!(state.addrs.keys().collect::<Vec<_>>(), [&kept]);
        assert_eq!(state.utilization.keys().collect::<Vec<_>>(), [&kept]);
    }
}
