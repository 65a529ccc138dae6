//! A deterministic driver for the runtime's control plane (paper §5.3:
//! distributed behaviour as unit tests).
//!
//! [`ControlDriver`] runs a [`ControlPlane`] against an in-memory model of
//! the processes it manages: one model proclet per spawned incarnation,
//! each with a FIFO inbox (the envelope's pipe to it) and outbox (its pipe
//! back), and an ingress routing table updated synchronously, as the
//! manager's is. Which pending message moves next, and whether the proclet
//! it concerns crashes instead, is drawn from an RNG seeded the way
//! [`crate::ChaosSchedule`] seeds its own, so one seed is one interleaving.
//!
//! [`ModelHost`] is the in-memory [`ReplicaHost`] the migration executor
//! runs on: per-replica key maps, an assignment, a placement, the frozen
//! scopes and an epoch, failing at one chosen step.
//!
//! Everything the driver does is appended to a trace of
//! [`weaver_codec::linelog`] records, so a failing interleaving prints as
//! text and the same seed reproduces it line for line.

use std::collections::{BTreeMap, VecDeque};
use std::str::SplitWhitespace;
use std::time::Duration;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use weaver_codec::linelog::Record;
use weaver_core::error::WeaverError;
use weaver_placement::ComponentPlacement;
use weaver_routing::SliceAssignment;
use weaver_runtime::control::{
    self, Command, ControlPlane, Event, MigratedRange, Migration, ReplicaHost,
};
use weaver_runtime::router::{RoutingState, Scope};
use weaver_runtime::Incarnation;
use weaver_transport::{in_slice, Endpoint, StateBlob, StateEntry};

/// Deliveries after which [`ControlDriver::settle`] gives up: a control
/// plane that keeps talking this long is livelocked.
const MAX_DELIVERIES: usize = 100_000;

/// One line of a driver trace: a verb and whitespace-free fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// What happened: `event`, `command`, `deliver`, `crash`, `violation`
    /// or `migrate`.
    pub verb: String,
    /// Its arguments.
    pub fields: Vec<String>,
}

impl Record for TraceRecord {
    fn to_line(&self) -> String {
        std::iter::once(self.verb.as_str())
            .chain(self.fields.iter().map(String::as_str))
            .collect::<Vec<_>>()
            .join(" ")
    }

    fn from_line(verb: &str, fields: &mut SplitWhitespace<'_>) -> Result<Self, String> {
        Ok(TraceRecord {
            verb: verb.to_string(),
            fields: fields.map(str::to_string).collect(),
        })
    }
}

/// One spawned incarnation in the model.
struct Proclet {
    endpoint: Endpoint,
    alive: bool,
    routing: RoutingState,
    /// Commands written to its pipe, not yet read.
    inbox: VecDeque<Command>,
    /// Events it wrote, not yet read by the manager.
    outbox: VecDeque<Event>,
}

/// Runs a control plane against model proclets in a seeded order.
pub struct ControlDriver {
    plane: ControlPlane,
    rng: StdRng,
    /// Chance that a delivery crashes the proclet it concerns instead.
    crash_rate: f64,
    /// Model proclets by incarnation.
    proclets: BTreeMap<Incarnation, Proclet>,
    ingress: RoutingState,
    trace: Vec<TraceRecord>,
    violations: Vec<String>,
}

impl ControlDriver {
    /// Drives `plane`, drawing delivery order and crashes (each delivery
    /// crashes its proclet with probability `crash_rate`) from `seed`.
    pub fn new(plane: ControlPlane, seed: u64, crash_rate: f64) -> Self {
        ControlDriver {
            plane,
            rng: StdRng::seed_from_u64(seed),
            crash_rate,
            proclets: BTreeMap::new(),
            ingress: RoutingState::default(),
            trace: Vec::new(),
            violations: Vec::new(),
        }
    }

    /// Steps the control plane on `event` and queues its commands.
    pub fn step(&mut self, event: Event) {
        self.record("event", event_fields(&event));
        for command in self.plane.step(event) {
            self.record("command", command_fields(&command));
            self.send(command);
        }
    }

    /// Delivers pending messages, one at a time in seeded order, until
    /// none is left.
    ///
    /// # Panics
    ///
    /// Panics after `MAX_DELIVERIES` deliveries: the control plane is
    /// livelocked.
    pub fn settle(&mut self) {
        for _ in 0..MAX_DELIVERIES {
            let pending: Vec<(Incarnation, bool)> = self
                .proclets
                .iter()
                .flat_map(|(&incarnation, p)| {
                    let inbox = (p.alive && !p.inbox.is_empty()).then_some((incarnation, true));
                    let outbox = (!p.outbox.is_empty()).then_some((incarnation, false));
                    inbox.into_iter().chain(outbox)
                })
                .collect();
            if pending.is_empty() {
                return;
            }
            let (incarnation, to_proclet) = pending[self.rng.gen_range(0..pending.len())];
            if self.proclets[&incarnation].alive && self.rng.gen_bool(self.crash_rate) {
                self.crash(incarnation);
            } else if to_proclet {
                self.deliver_to_proclet(incarnation);
            } else {
                let event = self
                    .proclets
                    .get_mut(&incarnation)
                    .and_then(|p| p.outbox.pop_front())
                    .expect("chosen outbox is non-empty");
                self.step(event);
            }
        }
        panic!(
            "control plane still talking after {MAX_DELIVERIES} deliveries:\n{}",
            self.trace_text()
        );
    }

    /// Runs `m` on `host` with a failure at a seeded step (or none) and
    /// traces the outcome.
    pub fn migrate(
        &mut self,
        host: &ModelHost,
        m: Migration,
    ) -> Result<(u64, Vec<MigratedRange>), WeaverError> {
        let k = self.rng.gen_range(1..m.transfers.len().max(1) + 1);
        let fail = match self.rng.gen_range(0..6u8) {
            0 => None,
            1 => Some(FailPoint::Drain),
            2 => Some(FailPoint::Export(k)),
            3 => Some(FailPoint::Import(k)),
            4 => m.transfers.get(k - 1).map(|t| FailPoint::Replica(t.to)),
            _ => Some(FailPoint::Commit),
        };
        host.fail_at(fail);
        let component = m.component;
        let result = control::execute(host, m);
        let outcome = match &result {
            Ok((epoch, _)) => format!("ok@{epoch}"),
            Err(_) => "aborted".to_string(),
        };
        self.record(
            "migrate",
            [
                component.to_string(),
                format!("{fail:?}").replace(' ', ""),
                outcome,
            ],
        );
        result
    }

    /// The control plane under test.
    pub fn plane(&self) -> &ControlPlane {
        &self.plane
    }

    /// Everything that happened, in order.
    pub fn trace(&self) -> &[TraceRecord] {
        &self.trace
    }

    /// The trace as `linelog` text.
    pub fn trace_text(&self) -> String {
        weaver_codec::linelog::serialize(&self.trace)
    }

    /// Breaches of "no host still routes to a replica that was sent
    /// `Shutdown`", found when a proclet read its `Shutdown`.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Live model proclets of `group`.
    pub fn live(&self, group: u32) -> usize {
        self.proclets
            .iter()
            .filter(|(incarnation, p)| p.alive && incarnation.id.group == group)
            .count()
    }

    /// After [`ControlDriver::settle`]: every live proclet is its replica's
    /// current incarnation and routes at the ingress epoch, and each group
    /// has exactly as many live proclets as registered replicas.
    pub fn converged(&self) -> Result<(), String> {
        for (&incarnation, p) in self.proclets.iter().filter(|(_, p)| p.alive) {
            if self.plane.incarnation(incarnation.id) != Some(incarnation) {
                return Err(format!("{incarnation} is orphaned"));
            }
            if p.routing.epoch != self.ingress.epoch {
                return Err(format!(
                    "{incarnation} routes at epoch {}, the ingress at {}",
                    p.routing.epoch, self.ingress.epoch
                ));
            }
        }
        for group in 0..self.plane.groups().len() as u32 {
            if self.live(group) != self.plane.registered(group) {
                return Err(format!(
                    "group {group}: {} live proclets, {} registered",
                    self.live(group),
                    self.plane.registered(group)
                ));
            }
        }
        Ok(())
    }

    fn record(&mut self, verb: &str, fields: impl IntoIterator<Item = String>) {
        self.trace.push(TraceRecord {
            verb: verb.to_string(),
            fields: fields.into_iter().collect(),
        });
    }

    /// Carries out one command the way the manager does: spawn a model
    /// proclet, update the ingress at once, write to pipes.
    fn send(&mut self, command: Command) {
        match command {
            Command::Spawn(incarnation) => {
                // Named after the incarnation number, as a proclet names its
                // socket after its process.
                let endpoint = Endpoint::unix(&incarnation.n.to_string())
                    .expect("an incarnation number is a short name");
                self.proclets.insert(
                    incarnation,
                    Proclet {
                        endpoint,
                        alive: true,
                        routing: RoutingState::default(),
                        inbox: VecDeque::new(),
                        // A proclet registers, then asks what to host.
                        outbox: VecDeque::from([
                            Event::Registered(incarnation, endpoint),
                            Event::HostQuery(incarnation),
                        ]),
                    },
                );
            }
            Command::Install(ref routing) => {
                self.ingress = routing.clone();
                for p in self.proclets.values_mut().filter(|p| p.alive) {
                    p.inbox.push_back(command.clone());
                }
            }
            Command::Shutdown(incarnation) | Command::HostComponents(incarnation, _) => {
                if let Some(p) = self.proclets.get_mut(&incarnation).filter(|p| p.alive) {
                    p.inbox.push_back(command);
                }
            }
        }
    }

    fn deliver_to_proclet(&mut self, incarnation: Incarnation) {
        let p = self.proclets.get_mut(&incarnation).expect("chosen proclet");
        let command = p.inbox.pop_front().expect("chosen inbox is non-empty");
        let endpoint = p.endpoint;
        if let Command::Install(routing) = &command {
            if routing.epoch > p.routing.epoch {
                p.routing = routing.clone();
            }
        }
        let mut fields = vec![incarnation.to_string()];
        fields.extend(command_fields(&command));
        self.record("deliver", fields);
        if let Command::Shutdown(_) = command {
            let routed_by: Vec<String> = self
                .proclets
                .iter()
                .filter(|&(&other, p)| {
                    other != incarnation
                        && p.alive
                        && p.routing.routes.values().any(|e| e.contains(&endpoint))
                })
                .map(|(other, p)| format!("{other}@{}", p.routing.epoch))
                .collect();
            if !routed_by.is_empty() {
                self.record(
                    "violation",
                    [
                        incarnation.to_string(),
                        "routed-by".into(),
                        routed_by.join(","),
                    ],
                );
                self.violations.push(format!(
                    "{incarnation} read Shutdown while {} still route to it",
                    routed_by.join(", ")
                ));
            }
            self.exit(incarnation);
        }
    }

    fn crash(&mut self, incarnation: Incarnation) {
        self.record("crash", [incarnation.to_string()]);
        self.exit(incarnation);
    }

    /// The process is gone: its unread commands with it, and once the
    /// manager has read what it wrote, its pipe reports the exit.
    fn exit(&mut self, incarnation: Incarnation) {
        let p = self
            .proclets
            .get_mut(&incarnation)
            .expect("exiting proclet");
        p.alive = false;
        p.inbox.clear();
        p.outbox.push_back(Event::Exited(incarnation));
    }
}

fn event_fields(event: &Event) -> Vec<String> {
    let fields = |verb: &str, incarnation: &Incarnation, arg: Option<String>| {
        [verb.to_string(), incarnation.to_string()]
            .into_iter()
            .chain(arg)
            .collect()
    };
    match event {
        Event::Registered(incarnation, endpoint) => {
            fields("registered", incarnation, Some(endpoint.to_string()))
        }
        Event::HostQuery(incarnation) => fields("host-query", incarnation, None),
        Event::Load(incarnation, utilization) => {
            fields("load", incarnation, Some(format!("{utilization:.3}")))
        }
        Event::Exited(incarnation) => fields("exited", incarnation, None),
        Event::Tick => vec!["tick".into()],
        Event::Scale { group, replicas } => {
            vec!["scale".into(), group.to_string(), replicas.to_string()]
        }
        Event::ShuttingDown => vec!["shutting-down".into()],
    }
}

fn command_fields(command: &Command) -> Vec<String> {
    match command {
        Command::Spawn(incarnation) => vec!["spawn".into(), incarnation.to_string()],
        Command::Shutdown(incarnation) => vec!["shutdown".into(), incarnation.to_string()],
        Command::HostComponents(incarnation, _) => vec!["host".into(), incarnation.to_string()],
        Command::Install(routing) => {
            // Routes in component order, each as its endpoints (named after
            // the incarnations serving it).
            let mut routes: Vec<_> = routing.routes.iter().collect();
            routes.sort_unstable_by_key(|&(&component, _)| component);
            let mut fields = vec!["install".into(), format!("@{}", routing.epoch)];
            fields.extend(routes.into_iter().map(|(component, endpoints)| {
                let endpoints: Vec<String> = endpoints.iter().map(Endpoint::to_string).collect();
                format!("{component}=[{}]", endpoints.join(","))
            }));
            fields
        }
    }
}

/// A migration step [`ModelHost`] fails at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailPoint {
    /// The drain times out.
    Drain,
    /// The *k*-th export (1-based) fails.
    Export(usize),
    /// The *k*-th import (1-based) fails, rollback imports included.
    Import(usize),
    /// The commit fails.
    Commit,
    /// The replica is unreachable: every export from it and every import
    /// to it fails, rollback imports included.
    Replica(u32),
}

/// What a [`ModelHost`] holds for the one component it hosts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModelState {
    /// Per replica: routing key → value.
    pub keys: Vec<BTreeMap<u64, u64>>,
    /// The committed slice assignment.
    pub assignment: Option<SliceAssignment>,
    /// The committed dispatch target.
    pub placement: ComponentPlacement,
    /// Scopes frozen right now.
    pub frozen: Vec<Scope>,
    /// Bumped once per commit.
    pub epoch: u64,
}

struct ModelInner {
    state: ModelState,
    fail: Option<FailPoint>,
    exports: usize,
    imports: usize,
}

/// An in-memory [`ReplicaHost`]: the migration executor's test fake.
pub struct ModelHost {
    inner: Mutex<ModelInner>,
}

impl ModelHost {
    /// A host holding `state`, failing nowhere.
    pub fn new(state: ModelState) -> Self {
        ModelHost {
            inner: Mutex::new(ModelInner {
                state,
                fail: None,
                exports: 0,
                imports: 0,
            }),
        }
    }

    /// Fails the next migration at `fail` (`None`: nowhere); restarts the
    /// export and import counts.
    pub fn fail_at(&self, fail: Option<FailPoint>) {
        let mut inner = self.inner.lock();
        inner.fail = fail;
        inner.exports = 0;
        inner.imports = 0;
    }

    /// A copy of what the host holds now.
    pub fn state(&self) -> ModelState {
        self.inner.lock().state.clone()
    }
}

fn injected(step: &str) -> WeaverError {
    WeaverError::app(format!("{step} failed (injected)"))
}

fn no_replica(replica: u32) -> WeaverError {
    WeaverError::Unavailable {
        detail: format!("no replica {replica}"),
    }
}

impl ReplicaHost for ModelHost {
    fn freeze(&self, _component: u32, scope: Scope) {
        self.inner.lock().state.frozen.push(scope);
    }

    fn unfreeze(&self, _component: u32, scope: Scope) {
        let frozen = &mut self.inner.lock().state.frozen;
        if let Some(i) = frozen.iter().position(|&s| s == scope) {
            frozen.remove(i);
        }
    }

    fn drain(&self, _component: u32, _scope: Scope, _timeout: Duration) -> bool {
        self.inner.lock().fail != Some(FailPoint::Drain)
    }

    fn export(
        &self,
        component: u32,
        _method: u32,
        range: &MigratedRange,
    ) -> Result<Vec<u8>, WeaverError> {
        let mut inner = self.inner.lock();
        inner.exports += 1;
        if [
            FailPoint::Export(inner.exports),
            FailPoint::Replica(range.from),
        ]
        .iter()
        .any(|&f| inner.fail == Some(f))
        {
            return Err(injected("export"));
        }
        let keys = inner
            .state
            .keys
            .get_mut(range.from as usize)
            .ok_or_else(|| no_replica(range.from))?;
        let moving: Vec<u64> = keys
            .keys()
            .copied()
            .filter(|&k| in_slice(range.start, range.end, k))
            .collect();
        let entries = moving
            .into_iter()
            .map(|key_hash| StateEntry {
                key_hash,
                payload: weaver_codec::encode_to_vec(
                    &keys.remove(&key_hash).expect("key just listed"),
                ),
            })
            .collect();
        Ok(StateBlob {
            component,
            range_start: range.start,
            range_end: range.end,
            entries,
        }
        .encode())
    }

    fn import(
        &self,
        _component: u32,
        _method: u32,
        replica: u32,
        blob: &[u8],
    ) -> Result<u64, WeaverError> {
        let mut inner = self.inner.lock();
        inner.imports += 1;
        if [
            FailPoint::Import(inner.imports),
            FailPoint::Replica(replica),
        ]
        .iter()
        .any(|&f| inner.fail == Some(f))
        {
            return Err(injected("import"));
        }
        let blob = StateBlob::decode(blob).map_err(WeaverError::app)?;
        let keys = inner
            .state
            .keys
            .get_mut(replica as usize)
            .ok_or_else(|| no_replica(replica))?;
        for entry in &blob.entries {
            keys.insert(
                entry.key_hash,
                weaver_codec::decode_from_slice(&entry.payload)?,
            );
        }
        Ok(blob.entries.len() as u64)
    }

    fn commit(
        &self,
        _component: u32,
        assignment: Option<SliceAssignment>,
        placement: Option<ComponentPlacement>,
    ) -> Result<u64, WeaverError> {
        let mut inner = self.inner.lock();
        if inner.fail == Some(FailPoint::Commit) {
            return Err(injected("commit"));
        }
        let state = &mut inner.state;
        if assignment.is_some() {
            state.assignment = assignment;
        }
        if let Some(placement) = placement {
            state.placement = placement;
        }
        state.epoch += 1;
        Ok(state.epoch)
    }
}
