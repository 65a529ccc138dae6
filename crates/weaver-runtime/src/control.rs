//! The control plane: membership, routing and the migration executor, with
//! no I/O (paper §5.3: a single binary makes distributed behaviour testable
//! as unit tests).
//!
//! Two halves, both hosted by the deployers:
//!
//! * [`ControlPlane`] owns membership and routing: the only writer of a
//!   slice assignment or an epoch. It consumes [`Event`]s (a replica
//!   registered, exited or reported load; a tick; a scale request; shutdown)
//!   and returns [`Command`]s (spawn, shutdown, install routing at an epoch,
//!   reply with the components to host), and [`ControlPlane::commit`]s a
//!   migration's new assignment at the next epoch. It reads no clock and
//!   touches no process, pipe or socket: the multiprocess manager carries
//!   its commands out over envelopes, and the loopback-TCP deployer installs
//!   what it emits in its routing table.
//! * A [`Migration`] is planned here too: [`Migration::rebalance`] and
//!   [`Migration::placement_move`] build the two shapes, and [`execute`] is
//!   the one migration transaction — freeze → drain → state handoff →
//!   commit → unfreeze — written once over the [`ReplicaHost`] primitives.
//!   The loopback-TCP deployer implements them with its routing table and a
//!   fault-free control-plane pool; `weaver-testing` implements them in
//!   memory.
//!
//! Every replica process is an [`Incarnation`]: the replica plus a number
//! minted at its spawn. Events from an incarnation that is no longer current
//! (a retired proclet's late exit, say) are ignored, so they cannot tear
//! down the replica that took its place.

use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

use weaver_core::error::WeaverError;
use weaver_core::registry::ComponentRegistry;
use weaver_placement::{Autoscaler, AutoscalerConfig, ComponentPlacement};
use weaver_routing::SliceAssignment;
use weaver_transport::Endpoint;

use crate::envelope::{Incarnation, ReplicaId};
use crate::router::{RoutingState, Scope};

/// Restarts allowed per replica before the control plane gives up on it.
const RESTART_LIMIT: u32 = 5;

/// How long a migration waits for in-flight calls on the frozen scopes to
/// finish before aborting (and unfreezing with the old assignment intact).
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// What the control plane learns from the outside.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// The incarnation's data plane is up at the endpoint.
    Registered(Incarnation, Endpoint),
    /// The incarnation asked which components it hosts.
    HostQuery(Incarnation),
    /// The incarnation's busy fraction since its previous report (1.0 = one
    /// busy core): the autoscaler's input.
    Load(Incarnation, f64),
    /// The incarnation's process exited (cleanly, crashed or killed).
    Exited(Incarnation),
    /// One autoscaler evaluation period passed.
    Tick,
    /// Run `replicas` (at least one) replicas of `group`.
    Scale {
        /// Co-location group index.
        group: u32,
        /// Desired replica count.
        replicas: u32,
    },
    /// The deployment is shutting down: stop every replica, restart none.
    ShuttingDown,
}

/// What the control plane asks its host to do.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Start a replica process; its events must carry this incarnation.
    Spawn(Incarnation),
    /// Ask the incarnation to exit.
    Shutdown(Incarnation),
    /// Install this routing at its epoch on every replica and the ingress.
    Install(RoutingState),
    /// Reply to a [`Event::HostQuery`]: the component ids it hosts.
    HostComponents(Incarnation, Vec<u32>),
}

/// One spawned replica incarnation, until it exits or is retired.
#[derive(Debug, Clone, Copy)]
struct Member {
    n: u64,
    /// Set once it registered.
    endpoint: Option<Endpoint>,
    /// Its latest reported busy fraction.
    utilization: Option<f64>,
}

/// Membership and routing for a deployment of co-location groups.
#[derive(Debug)]
pub struct ControlPlane {
    /// Component ids per group.
    groups: Vec<Vec<u32>>,
    /// Components with routed methods: each gets a slice assignment.
    routed: Vec<u32>,
    /// Desired replica count per group.
    desired: Vec<u32>,
    /// The current incarnation of every desired replica that has been
    /// spawned and has not exited.
    members: BTreeMap<ReplicaId, Member>,
    /// Incarnations minted so far (the last one's number).
    incarnations: u64,
    /// Bumped by every routing this plane emits.
    epoch: u64,
    /// Each routed component's current slice assignment.
    assignments: HashMap<u32, SliceAssignment>,
    /// One HPA per group; empty unless autoscaling.
    autoscalers: Vec<Autoscaler>,
    restarts: BTreeMap<ReplicaId, u32>,
    shutting_down: bool,
}

impl ControlPlane {
    /// A control plane for `groups` (component ids per co-location group)
    /// with no replicas yet; `routed` components get slice assignments, and
    /// `autoscale` runs one HPA per group on [`Event::Tick`].
    pub fn new(
        groups: Vec<Vec<u32>>,
        routed: Vec<u32>,
        autoscale: Option<AutoscalerConfig>,
    ) -> Self {
        let autoscalers = match autoscale {
            Some(config) => groups
                .iter()
                .map(|_| Autoscaler::new(config.clone()))
                .collect(),
            None => Vec::new(),
        };
        ControlPlane {
            desired: vec![0; groups.len()],
            groups,
            routed,
            members: BTreeMap::new(),
            incarnations: 0,
            epoch: 0,
            assignments: HashMap::new(),
            autoscalers,
            restarts: BTreeMap::new(),
            shutting_down: false,
        }
    }

    /// [`ControlPlane::new`] with `registry`'s routed components.
    pub fn for_registry(
        registry: &ComponentRegistry,
        groups: Vec<Vec<u32>>,
        autoscale: Option<AutoscalerConfig>,
    ) -> Self {
        let routed = registry
            .iter()
            .filter(|(_, registration)| registration.methods.iter().any(|m| m.routed))
            .map(|(id, _)| id)
            .collect();
        Self::new(groups, routed, autoscale)
    }

    /// Consumes one event and returns what the host must do, in order.
    pub fn step(&mut self, event: Event) -> Vec<Command> {
        let mut out = Vec::new();
        match event {
            Event::Registered(incarnation, endpoint) => {
                if let Some(member) = self.current(incarnation) {
                    member.endpoint = Some(endpoint);
                    out.push(Command::Install(self.install()));
                }
            }
            Event::HostQuery(incarnation) => {
                if self.current(incarnation).is_some() {
                    let components = self.groups[incarnation.id.group as usize].clone();
                    out.push(Command::HostComponents(incarnation, components));
                }
            }
            Event::Load(incarnation, utilization) => {
                if let Some(member) = self.current(incarnation) {
                    member.utilization = Some(utilization);
                }
            }
            Event::Exited(incarnation) => {
                if self.current(incarnation).is_none() {
                    return out;
                }
                let id = incarnation.id;
                self.members.remove(&id);
                if self.shutting_down {
                    return out;
                }
                // Members are exactly the desired replicas, so this one is
                // still wanted: restart it (the paper's "restarting
                // components when they fail", at proclet granularity),
                // unless it is crash-looping.
                let restarts = self.restarts.entry(id).or_insert(0);
                if *restarts < RESTART_LIMIT {
                    *restarts += 1;
                    self.spawn(id, &mut out);
                }
                out.push(Command::Install(self.install()));
            }
            Event::Tick => self.autoscale(&mut out),
            Event::Scale { group, replicas } => {
                let replicas = replicas.max(1);
                if let Some(old) = self.scale(group, replicas, &mut out) {
                    // New replicas join routing when they register.
                    if replicas <= old {
                        out.push(Command::Install(self.install()));
                    }
                }
            }
            Event::ShuttingDown => {
                self.shutting_down = true;
                out.extend(
                    self.members
                        .iter()
                        .map(|(&id, member)| Command::Shutdown(Incarnation { id, n: member.n })),
                );
            }
        }
        out
    }

    /// The co-location groups, as component ids.
    pub fn groups(&self) -> &[Vec<u32>] {
        &self.groups
    }

    /// Desired replica count of `group` (`None` for no such group).
    pub fn desired(&self, group: u32) -> Option<u32> {
        self.desired.get(group as usize).copied()
    }

    /// Replicas of `group` currently registered.
    pub fn registered(&self, group: u32) -> usize {
        self.registered_members()
            .filter(|(id, _)| id.group == group)
            .count()
    }

    /// Replicas registered across all groups, and replicas desired.
    pub fn registration(&self) -> (usize, u32) {
        (self.registered_members().count(), self.desired.iter().sum())
    }

    /// The current incarnation of replica `id`, if it is spawned and alive.
    pub fn incarnation(&self, id: ReplicaId) -> Option<Incarnation> {
        self.members
            .get(&id)
            .map(|member| Incarnation { id, n: member.n })
    }

    /// Whether [`Event::ShuttingDown`] was stepped.
    pub fn shutting_down(&self) -> bool {
        self.shutting_down
    }

    fn registered_members(&self) -> impl Iterator<Item = (&ReplicaId, Endpoint)> {
        self.members
            .iter()
            .filter_map(|(id, member)| member.endpoint.map(|endpoint| (id, endpoint)))
    }

    /// The member `incarnation` names, if it is the current one.
    fn current(&mut self, incarnation: Incarnation) -> Option<&mut Member> {
        self.members
            .get_mut(&incarnation.id)
            .filter(|member| member.n == incarnation.n)
    }

    fn spawn(&mut self, id: ReplicaId, out: &mut Vec<Command>) {
        self.incarnations += 1;
        let n = self.incarnations;
        let member = Member {
            n,
            endpoint: None,
            utilization: None,
        };
        self.members.insert(id, member);
        out.push(Command::Spawn(Incarnation { id, n }));
    }

    /// Sets `group`'s desired count to `to`, spawning the replicas it adds
    /// and retiring the ones it drops. Returns the previous count.
    ///
    /// A retired replica leaves routing (at the caller's next install) and
    /// the HPA mean at once, and is sent `Shutdown` *before* that install
    /// lands anywhere: until it does, a replica can still route to one that
    /// was told to exit.
    fn scale(&mut self, group: u32, to: u32, out: &mut Vec<Command>) -> Option<u32> {
        let from = std::mem::replace(self.desired.get_mut(group as usize)?, to);
        for replica in from..to {
            self.spawn(ReplicaId { group, replica }, out);
        }
        for replica in to..from {
            let id = ReplicaId { group, replica };
            if let Some(member) = self.members.remove(&id) {
                out.push(Command::Shutdown(Incarnation { id, n: member.n }));
            }
        }
        Some(from)
    }

    /// One HPA evaluation per group over the latest load reports: the same
    /// control law the paper's prototype delegates to Horizontal Pod
    /// Autoscalers.
    fn autoscale(&mut self, out: &mut Vec<Command>) {
        let mut changed = false;
        for group in 0..self.autoscalers.len() {
            let loads: Vec<f64> = self
                .members
                .iter()
                .filter(|(id, _)| id.group as usize == group)
                .filter_map(|(_, member)| member.utilization)
                .collect();
            if loads.is_empty() {
                continue;
            }
            let mean = loads.iter().sum::<f64>() / loads.len() as f64;
            let current = self.desired[group];
            let desired = self.autoscalers[group].evaluate(current, mean);
            if desired != current {
                self.scale(group as u32, desired, out);
                changed = true;
            }
        }
        if changed {
            out.push(Command::Install(self.install()));
        }
    }

    /// Registers replicas that came up together, before anything could
    /// call them: one membership change, so one routing at the next epoch,
    /// for the host to install as it is.
    pub fn register_all(&mut self, endpoints: Vec<(Incarnation, Endpoint)>) -> RoutingState {
        for (incarnation, endpoint) in endpoints {
            if let Some(member) = self.current(incarnation) {
                member.endpoint = Some(endpoint);
            }
        }
        self.install()
    }

    /// Commits a migration: `assignment`, when given, becomes
    /// `component`'s, and the routing goes out at the next epoch. The host
    /// installs the result as it is.
    pub fn commit(&mut self, component: u32, assignment: Option<SliceAssignment>) -> RoutingState {
        if let Some(assignment) = assignment {
            self.assignments.insert(component, assignment);
        }
        self.next_routing()
    }

    /// The routing at the next epoch: every component of a group routes to
    /// the group's registered replicas in replica order, under the current
    /// assignments.
    fn next_routing(&mut self) -> RoutingState {
        self.epoch += 1;
        let mut routes = HashMap::new();
        for (group, components) in self.groups.iter().enumerate() {
            let endpoints: Vec<Endpoint> = self
                .registered_members()
                .filter(|(id, _)| id.group as usize == group)
                .map(|(_, endpoint)| endpoint)
                .collect();
            for &component in components {
                routes.insert(component, endpoints.clone());
            }
        }
        RoutingState {
            epoch: self.epoch,
            routes,
            assignments: self.assignments.clone(),
        }
    }

    /// A membership change: every routed component's assignment resets to
    /// a uniform one over its group's registered replicas, and the routing
    /// goes out at the next epoch.
    fn install(&mut self) -> RoutingState {
        self.assignments = self
            .routed
            .iter()
            .filter_map(|&component| {
                let group = self.groups.iter().position(|g| g.contains(&component))?;
                let replicas = self.registered(group as u32) as u32;
                (replicas > 0).then(|| (component, SliceAssignment::uniform(replicas, 8)))
            })
            .collect();
        self.next_routing()
    }
}

/// One key range handed from one replica to another by a migration: the
/// unit of state handoff, and of its rollback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigratedRange {
    /// First routing hash in the range.
    pub start: u64,
    /// One past the last hash (`u64::MAX` inclusive, slice semantics).
    pub end: u64,
    /// Replica index the range moved from.
    pub from: u32,
    /// Replica index the range moved to.
    pub to: u32,
    /// State entries transferred for the range (0 for stateless moves, and
    /// until the executor has run the transfer).
    pub entries: u64,
}

/// One live migration, as data: what to freeze, which state to hand off,
/// and what to switch at the commit point. Slice rebalances and placement
/// moves differ only in the value they build ([`Migration::rebalance`],
/// [`Migration::placement_move`]); [`execute`] is the one place the
/// transaction is written down.
#[derive(Debug, Clone)]
pub struct Migration {
    /// Component id.
    pub component: u32,
    /// Scopes frozen (and drained) for the whole transaction.
    pub freeze: Vec<Scope>,
    /// State handoffs, run in order and undone in reverse on failure.
    pub transfers: Vec<MigratedRange>,
    /// The component's `export_keys`/`import_keys` method ids; `None` moves
    /// ownership without state (cache semantics).
    pub handoff: Option<(u32, u32)>,
    /// Slice assignment installed at commit (the install is the epoch
    /// bump); `None` bumps the epoch alone.
    pub assignment: Option<SliceAssignment>,
    /// Dispatch target switched at commit: `Colocated` dispatches calls to
    /// replica 0 in-process, `Routed` sends them over the wire, `None`
    /// leaves it alone.
    pub placement: Option<ComponentPlacement>,
}

impl Migration {
    /// A slice rebalance of `component` from `current` to `planned`: every
    /// range whose owner changes freezes as [`Scope::Keys`] and hands its
    /// state from the old owner to the new one, and `planned` commits.
    ///
    /// The planner only splits and moves, so every planned slice lies
    /// inside one current slice: its old owner is the owner of its start. A
    /// planned slice that `current` does not cover is an error.
    pub fn rebalance(
        component: u32,
        current: &SliceAssignment,
        planned: SliceAssignment,
        handoff: Option<(u32, u32)>,
    ) -> Result<Migration, WeaverError> {
        let mut transfers = Vec::new();
        for slice in &planned.slices {
            let from = current.replica_for(slice.start).ok_or_else(|| {
                WeaverError::app(format!(
                    "component #{component}: assignment v{} does not cover key {:#x}",
                    current.version, slice.start
                ))
            })?;
            if from != slice.replica {
                transfers.push(MigratedRange {
                    start: slice.start,
                    end: slice.end,
                    from,
                    to: slice.replica,
                    entries: 0,
                });
            }
        }
        Ok(Migration {
            component,
            freeze: transfers
                .iter()
                .map(|t| Scope::Keys(t.start, t.end))
                .collect(),
            transfers,
            handoff,
            assignment: Some(planned),
            placement: None,
        })
    }

    /// A placement move of `component`, hosted on `replicas` replicas, to
    /// `to`, with the whole component frozen. Colocating hands every other
    /// replica's keyspace to replica 0, the in-process dispatch target.
    /// After either move the state lives with replica 0, so the `current`
    /// assignment, if any, is rewritten all-on-zero at the next version.
    pub fn placement_move(
        component: u32,
        to: ComponentPlacement,
        replicas: u32,
        current: Option<SliceAssignment>,
        handoff: Option<(u32, u32)>,
    ) -> Migration {
        let transfers = match to {
            ComponentPlacement::Colocated => (1..replicas)
                .map(|from| MigratedRange {
                    start: 0,
                    end: u64::MAX,
                    from,
                    to: 0,
                    entries: 0,
                })
                .collect(),
            ComponentPlacement::Routed => Vec::new(),
        };
        let assignment = current.map(|mut assignment| {
            for slice in &mut assignment.slices {
                slice.replica = 0;
            }
            assignment.version += 1;
            assignment
        });
        Migration {
            component,
            freeze: vec![Scope::Component],
            transfers,
            handoff,
            assignment,
            placement: Some(to),
        }
    }
}

/// `component`'s `export_keys`/`import_keys` method ids, the state handoff
/// a migration calls; `None` when it lacks the pair and moves statelessly.
pub fn handoff_methods(
    registry: &ComponentRegistry,
    component: u32,
) -> Result<Option<(u32, u32)>, WeaverError> {
    let registration = registry.get(component)?;
    let method = |name: &str| {
        registration
            .methods
            .iter()
            .position(|spec| spec.name == name)
            .map(|i| i as u32)
    };
    Ok(method("export_keys").zip(method("import_keys")))
}

/// The primitives a migration runs on: a deployment's replicas, the gate
/// their servers keep and its commit point.
pub trait ReplicaHost {
    /// Makes the owners refuse new calls `scope` covers until
    /// [`ReplicaHost::unfreeze`].
    fn freeze(&self, component: u32, scope: Scope);
    /// Lifts one [`ReplicaHost::freeze`]; refused calls are re-sent and
    /// resolve against whatever committed in between.
    fn unfreeze(&self, component: u32, scope: Scope);
    /// Waits for the calls `scope` covers that were admitted before the
    /// freeze; false when they outlast `timeout`.
    fn drain(&self, component: u32, scope: Scope, timeout: Duration) -> bool;
    /// Calls `method` (`export_keys`, TAKE semantics) on replica
    /// `range.from` for the range, returning the state blob.
    fn export(
        &self,
        component: u32,
        method: u32,
        range: &MigratedRange,
    ) -> Result<Vec<u8>, WeaverError>;
    /// Calls `method` (`import_keys`) on `replica` with `blob`, returning
    /// the entries imported.
    fn import(
        &self,
        component: u32,
        method: u32,
        replica: u32,
        blob: &[u8],
    ) -> Result<u64, WeaverError>;
    /// Makes the new dispatch target visible and installs the routing
    /// [`ControlPlane::commit`] emits for `assignment` (one epoch); returns
    /// that epoch. Nothing changes on error.
    fn commit(
        &self,
        component: u32,
        assignment: Option<SliceAssignment>,
        placement: Option<ComponentPlacement>,
    ) -> Result<u64, WeaverError>;
}

/// Lifts a migration's freezes on every exit from the executor — commit,
/// error or unwind — so a failed migration can never leave a key refused.
struct Unfreeze<'a, H: ReplicaHost + ?Sized> {
    host: &'a H,
    component: u32,
    scopes: &'a [Scope],
}

impl<H: ReplicaHost + ?Sized> Drop for Unfreeze<'_, H> {
    fn drop(&mut self) {
        for &scope in self.scopes {
            self.host.unfreeze(self.component, scope);
        }
    }
}

/// The one migration executor: freeze → drain → state handoff → commit
/// (dispatch target, assignment, epoch bump) → unfreeze. Returns the
/// committed epoch and the transfers with their entry counts. On any error
/// the old assignment and placement stay live and still find every key's
/// state where they route it: each exported blob goes back to its source,
/// and the freezes lift.
///
/// One migration at a time: the caller holds its deployment's migration
/// lock from before it planned `m` until this returns.
pub fn execute<H: ReplicaHost + ?Sized>(
    host: &H,
    mut m: Migration,
) -> Result<(u64, Vec<MigratedRange>), WeaverError> {
    // Freeze: from here to the guard's drop the owners refuse every new call
    // the scopes cover. Nested calls arriving mid-drain are refused
    // (uncounted), so the drain terminates; their callers re-send them to
    // the new owner or placement after the unfreeze.
    for &scope in &m.freeze {
        host.freeze(m.component, scope);
    }
    let _unfreeze = Unfreeze {
        host,
        component: m.component,
        scopes: &m.freeze,
    };

    // Drain: wait for calls admitted before the freeze to finish at the old
    // owner or placement.
    for &scope in &m.freeze {
        if !host.drain(m.component, scope, DRAIN_TIMEOUT) {
            return Err(WeaverError::app(format!(
                "migration aborted: {scope:x?} of component #{} did not drain",
                m.component
            )));
        }
    }

    // Without the handoff pair ownership moves and state starts fresh.
    let Some((export, import)) = m.handoff else {
        let epoch = host.commit(m.component, m.assignment, m.placement)?;
        return Ok((epoch, m.transfers));
    };

    // Hand off: per transfer, export from the old owner and import at the
    // new one. Then commit: the new dispatch target and assignment become
    // visible (epoch bump); refused calls resolve against them once they are
    // re-sent.
    let component = m.component;
    let mut exported: Vec<(u32, Vec<u8>)> = Vec::with_capacity(m.transfers.len());
    let outcome = m
        .transfers
        .iter_mut()
        .try_for_each(|t| {
            let blob = host.export(component, export, t)?;
            let imported = host.import(component, import, t.to, &blob);
            exported.push((t.from, blob));
            t.entries = imported?;
            Ok(())
        })
        .and_then(|()| host.commit(component, m.assignment, m.placement));
    let e = match outcome {
        Ok(epoch) => return Ok((epoch, m.transfers)),
        Err(e) => e,
    };

    // Roll back: `export_keys` has TAKE semantics, so every blob exported
    // so far — the failed transfer's and each completed one's — is
    // re-imported to its source, newest first: the old assignment stays
    // live and must still find its state. A completed transfer's
    // destination keeps its copy; the old assignment never routes there.
    let undo_failures: Vec<String> = exported
        .iter()
        .rev()
        .filter_map(|(from, blob)| {
            host.import(component, import, *from, blob)
                .err()
                .map(|undo| format!("replica {from}: {undo}"))
        })
        .collect();
    if undo_failures.is_empty() {
        Err(e)
    } else {
        Err(WeaverError::app(format!(
            "migration failed ({e}) and rollback failed ({})",
            undo_failures.join("; ")
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Group 0 hosts components 0 and 1 (1 is routed), group 1 hosts 2.
    fn booted(autoscale: bool) -> ControlPlane {
        let hpa = AutoscalerConfig {
            target_utilization: 0.5,
            min_replicas: 1,
            max_replicas: 4,
            stabilization_ticks: 1,
            ..Default::default()
        };
        let mut plane =
            ControlPlane::new(vec![vec![0, 1], vec![2]], vec![1], autoscale.then_some(hpa));
        // Two replicas per group: incarnations #1, #2 (group 0) and #3, #4
        // (group 1), all registered: epoch 4.
        for group in 0..2 {
            for command in plane.step(Event::Scale { group, replicas: 2 }) {
                if let Command::Spawn(incarnation) = command {
                    plane.step(registered(incarnation.id, incarnation.n));
                }
            }
        }
        plane
    }

    fn r(group: u32, replica: u32) -> ReplicaId {
        ReplicaId { group, replica }
    }

    fn registered(id: ReplicaId, n: u64) -> Event {
        let name = format!("proclet-{}-{}-{n}", id.group, id.replica);
        Event::Registered(
            Incarnation { id, n },
            Endpoint::unix(&name).expect("short name"),
        )
    }

    fn exited(id: ReplicaId, n: u64) -> Event {
        Event::Exited(Incarnation { id, n })
    }

    fn load(id: ReplicaId, n: u64, utilization: f64) -> Event {
        Event::Load(Incarnation { id, n }, utilization)
    }

    /// One command, short: an install shows its epoch, each group's route
    /// width and the routed component's slice-assignment width.
    fn summary(command: &Command) -> String {
        match command {
            Command::Spawn(incarnation) => format!("spawn {incarnation}"),
            Command::Shutdown(incarnation) => format!("shutdown {incarnation}"),
            Command::HostComponents(incarnation, components) => {
                format!("host {incarnation} {components:?}")
            }
            Command::Install(routing) => format!(
                "install @{} g0={} g1={} slices={}",
                routing.epoch,
                routing.routes[&0].len(),
                routing.routes[&2].len(),
                routing.assignments.get(&1).map_or(0, |a| a.replica_count)
            ),
        }
    }

    #[test]
    fn membership_table() {
        // (row, autoscaling, events after boot, commands of the last event)
        let rows: Vec<(&str, bool, Vec<Event>, &[&str])> = vec![
            (
                "registration installs at epoch+1",
                false,
                vec![
                    Event::Scale {
                        group: 1,
                        replicas: 3,
                    },
                    registered(r(1, 2), 5),
                ],
                &["install @5 g0=2 g1=3 slices=2"],
            ),
            (
                "scale request up spawns; routing waits for registration",
                false,
                vec![Event::Scale {
                    group: 0,
                    replicas: 3,
                }],
                &["spawn 0/2#5"],
            ),
            (
                // Shutdown goes out before the install that reroutes: the
                // ordering the deterministic driver flags.
                "scale request down retires, then installs",
                false,
                vec![Event::Scale {
                    group: 0,
                    replicas: 1,
                }],
                &["shutdown 0/1#2", "install @5 g0=1 g1=2 slices=1"],
            ),
            (
                "a retired incarnation's late registration is ignored",
                false,
                vec![
                    Event::Scale {
                        group: 1,
                        replicas: 1,
                    },
                    registered(r(1, 1), 4),
                ],
                &[],
            ),
            (
                "exit restarts the replica and reroutes",
                false,
                vec![exited(r(0, 1), 2)],
                &["spawn 0/1#5", "install @5 g0=1 g1=2 slices=1"],
            ),
            (
                "exit after RESTART_LIMIT restarts stops restarting",
                false,
                [2, 5, 6, 7, 8, 9].map(|i| exited(r(0, 1), i)).to_vec(),
                &["install @10 g0=1 g1=2 slices=1"],
            ),
            (
                // 3 → 1 → 3 before the retired proclet exits: its late exit
                // must not tear down the incarnation that replaced it.
                "a stale incarnation's exit is ignored",
                false,
                vec![
                    Event::Scale {
                        group: 0,
                        replicas: 1,
                    },
                    Event::Scale {
                        group: 0,
                        replicas: 2,
                    },
                    exited(r(0, 1), 2),
                ],
                &[],
            ),
            (
                "host query replies with the group's components",
                false,
                vec![Event::HostQuery(Incarnation { id: r(0, 1), n: 2 })],
                &["host 0/1#2 [0, 1]"],
            ),
            (
                "a stale host query gets no reply",
                false,
                vec![Event::HostQuery(Incarnation { id: r(0, 1), n: 1 })],
                &[],
            ),
            (
                "shutting down stops every current incarnation",
                false,
                vec![
                    Event::Scale {
                        group: 1,
                        replicas: 1,
                    },
                    Event::ShuttingDown,
                ],
                &["shutdown 0/0#1", "shutdown 0/1#2", "shutdown 1/0#3"],
            ),
            (
                "an exit while shutting down restarts nothing",
                false,
                vec![Event::ShuttingDown, exited(r(0, 0), 1)],
                &[],
            ),
            (
                "autoscale up spawns and installs",
                true,
                vec![load(r(0, 0), 1, 0.9), load(r(0, 1), 2, 0.9), Event::Tick],
                &[
                    "spawn 0/2#5",
                    "spawn 0/3#6",
                    "install @5 g0=2 g1=2 slices=2",
                ],
            ),
            (
                "autoscale down retires and installs",
                true,
                vec![load(r(0, 0), 1, 0.1), load(r(0, 1), 2, 0.1), Event::Tick],
                &["shutdown 0/1#2", "install @5 g0=1 g1=2 slices=1"],
            ),
            (
                // Counted, the retired 0.95 would lift the mean to 0.575,
                // past the 0.5 target's tolerance: a spawn.
                "a retired replica neither routes nor counts toward the HPA mean",
                true,
                vec![
                    load(r(0, 0), 1, 0.2),
                    load(r(0, 1), 2, 0.95),
                    Event::Scale {
                        group: 0,
                        replicas: 1,
                    },
                    load(r(0, 1), 2, 0.95),
                    Event::Tick,
                ],
                &[],
            ),
        ];
        for (row, autoscale, events, expect) in rows {
            let mut plane = booted(autoscale);
            let mut last = Vec::new();
            for event in events {
                last = plane.step(event);
            }
            let got: Vec<String> = last.iter().map(summary).collect();
            assert_eq!(got, expect, "{row}");
        }
    }

    #[test]
    fn membership_queries_follow_the_table() {
        let mut plane = booted(false);
        assert_eq!(plane.registration(), (4, 4));
        plane.step(Event::Scale {
            group: 0,
            replicas: 3,
        });
        assert_eq!(plane.registration(), (4, 5), "the new replica is pending");
        assert_eq!(plane.incarnation(r(0, 2)).map(|i| i.n), Some(5));
        // Routes only registered endpoints.
        let routing = plane.commit(1, None);
        assert_eq!(routing.epoch, 5);
        assert_eq!((routing.routes[&1].len(), routing.routes[&2].len()), (2, 2));
        assert_eq!(routing.assignments[&1].replica_count, 2);
        assert!(!routing.assignments.contains_key(&0), "0 is not routed");
        plane.step(registered(r(0, 2), 5));
        assert_eq!(plane.registered(0), 3);
        plane.step(Event::Scale {
            group: 0,
            replicas: 1,
        });
        assert_eq!((plane.registered(0), plane.desired(0)), (1, Some(1)));
        assert_eq!(plane.incarnation(r(0, 2)), None, "retired");
        assert_eq!(plane.desired(7), None);
        assert!(plane
            .step(Event::Scale {
                group: 7,
                replicas: 1
            })
            .is_empty());
    }

    #[test]
    fn commit_advances_the_epoch_until_a_membership_install_resets() {
        let moved = SliceAssignment::uniform(2, 8).move_slice(0, 1).unwrap();
        let mut plane = booted(false);
        let routing = plane.commit(1, Some(moved.clone()));
        assert_eq!((routing.epoch, &routing.assignments[&1]), (5, &moved));
        let routing = plane.commit(1, None);
        assert_eq!((routing.epoch, &routing.assignments[&1]), (6, &moved));
        // Today's behaviour, pinned: a membership install resets to uniform
        // over the registered replicas. ROADMAP item 4(a) keeps the
        // committed assignment instead.
        let installed = plane.step(exited(r(0, 1), 2)).pop();
        let Some(Command::Install(routing)) = installed else {
            panic!("no install: {installed:?}");
        };
        let uniform = SliceAssignment::uniform(1, 8);
        assert_eq!((routing.epoch, &routing.assignments[&1]), (7, &uniform));
    }

    /// A migration's transfers as (from, to, start, end).
    fn moves(m: &Migration) -> Vec<(u32, u32, u64, u64)> {
        m.transfers
            .iter()
            .map(|t| (t.from, t.to, t.start, t.end))
            .collect()
    }

    #[test]
    fn rebalance_constructor_table() {
        let current = SliceAssignment::uniform(2, 1);
        let split = current.split_at(1 << 62).unwrap();
        let moved = split.move_slice(0, 1).unwrap();
        // (row, planned, transfers)
        let rows = [
            ("a split-only plan transfers nothing", split, vec![]),
            (
                "only a moved slice transfers, from its old owner",
                moved,
                vec![(0, 1, 0, 1 << 62)],
            ),
        ];
        for (row, planned, expect) in rows {
            let m = Migration::rebalance(1, &current, planned.clone(), None).unwrap();
            assert_eq!(moves(&m), expect, "{row}");
            let frozen: Vec<Scope> = expect.iter().map(|t| Scope::Keys(t.2, t.3)).collect();
            let commit = (m.freeze, m.assignment, m.placement);
            assert_eq!(commit, (frozen, Some(planned), None), "{row}");
        }
        let uncovered = Migration::rebalance(1, &SliceAssignment::default(), current, None);
        assert!(uncovered.is_err(), "a slice the current assignment misses");
    }

    #[test]
    fn placement_constructor_table() {
        let spread = SliceAssignment::uniform(3, 2);
        let mut all_on_zero = spread.clone();
        all_on_zero.slices.iter_mut().for_each(|s| s.replica = 0);
        all_on_zero.version += 1;
        for replicas in [1, 3] {
            for (current, assignment) in [(None, None), (Some(&spread), Some(&all_on_zero))] {
                for to in [ComponentPlacement::Colocated, ComponentPlacement::Routed] {
                    let m = Migration::placement_move(1, to, replicas, current.cloned(), None);
                    let expect: Vec<_> = match to {
                        ComponentPlacement::Colocated => {
                            (1..replicas).map(|from| (from, 0, 0, u64::MAX)).collect()
                        }
                        ComponentPlacement::Routed => Vec::new(),
                    };
                    let row = format!("{replicas} replicas to {to:?}, {current:?}");
                    assert_eq!(moves(&m), expect, "{row}");
                    let commit = (m.freeze, m.assignment, m.placement);
                    let all_zero = (vec![Scope::Component], assignment.cloned(), Some(to));
                    assert_eq!(commit, all_zero, "{row}");
                }
            }
        }
    }
}
