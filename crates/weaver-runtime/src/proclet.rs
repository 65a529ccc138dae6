//! The proclet: the environment-agnostic daemon linked into every binary
//! (paper §4.3).
//!
//! "Every application binary runs a small, environment-agnostic daemon
//! called a proclet that is linked into the binary during compilation. A
//! proclet manages the components in a running binary."
//!
//! [`maybe_proclet`] is the link point: application `main` calls it first;
//! in a process the deployer spawned as a proclet (marked by environment
//! variables) it never returns — it binds the data-plane RPC server on a
//! fresh abstract unix socket (the deployer spawned every proclet on its
//! own host, so no call between them needs TCP), speaks
//! the Table 1 pipe protocol on stdin/stdout, hosts its assigned
//! components, and exits when told to. In the manager process it returns
//! immediately.

use std::collections::HashSet;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use weaver_core::client::CallRouter;
use weaver_core::context::{Acquired, ComponentGetter};
use weaver_core::error::WeaverError;
use weaver_core::instance::LiveComponents;
use weaver_core::registry::ComponentRegistry;
use weaver_metrics::CallGraph;
use weaver_transport::Endpoint;

use crate::dispatch::ProcletDispatcher;
use crate::protocol::{read_message, write_message, EnvelopeMessage, ProcletMessage};
use crate::router::{RemoteRouter, RoutingTable};

/// Environment variable marking a process as a proclet (value = group id).
pub const ENV_GROUP: &str = "WEAVER_PROCLET_GROUP";
/// Environment variable carrying the replica index.
pub const ENV_REPLICA: &str = "WEAVER_PROCLET_REPLICA";
/// Environment variable carrying the deployment version.
pub const ENV_VERSION: &str = "WEAVER_VERSION";
/// Environment variable carrying the RPC worker-pool size.
pub const ENV_WORKERS: &str = "WEAVER_WORKERS";

/// Component resolution inside a proclet: local for hosted components,
/// remote (through the routing table) for everything else.
pub struct ProcletGetter {
    live: Arc<LiveComponents>,
    /// `None` until the envelope's `HostComponents` arrives. Resolution
    /// *blocks* on it: an early RPC must not make a component wire its
    /// co-located dependencies as remote stubs.
    hosted: parking_lot::Mutex<Option<HashSet<u32>>>,
    hosted_set: parking_lot::Condvar,
    router: Arc<RemoteRouter>,
}

/// How long component resolution waits for the hosting assignment before
/// concluding the control plane is broken.
const HOSTED_WAIT: std::time::Duration = std::time::Duration::from_secs(10);

impl ProcletGetter {
    /// Creates a getter; the hosted set is installed once `HostComponents`
    /// arrives.
    pub fn new(live: Arc<LiveComponents>, router: Arc<RemoteRouter>) -> Arc<Self> {
        Arc::new(ProcletGetter {
            live,
            hosted: parking_lot::Mutex::new(None),
            hosted_set: parking_lot::Condvar::new(),
            router,
        })
    }

    /// Installs the hosting assignment and unblocks resolution.
    pub fn set_hosted(&self, components: &[u32]) {
        *self.hosted.lock() = Some(components.iter().copied().collect());
        self.hosted_set.notify_all();
    }

    /// Whether `id` is hosted by this proclet, waiting for the assignment
    /// if it has not arrived yet.
    pub fn hosts(&self, id: u32) -> Result<bool, WeaverError> {
        let mut hosted = self.hosted.lock();
        let deadline = std::time::Instant::now() + HOSTED_WAIT;
        loop {
            if let Some(set) = hosted.as_ref() {
                return Ok(set.contains(&id));
            }
            if self
                .hosted_set
                .wait_until(&mut hosted, deadline)
                .timed_out()
            {
                return Err(WeaverError::Unavailable {
                    detail: "hosting assignment never arrived".into(),
                });
            }
        }
    }
}

impl ComponentGetter for ProcletGetter {
    fn acquire(&self, name: &str) -> Result<Acquired, WeaverError> {
        let id = self.live.registry().id_of(name)?;
        if self.hosts(id)? {
            let instance = self.live.get_or_start(id, self)?;
            Ok(Acquired::Local(Arc::clone(&instance.iface_any)))
        } else {
            let router = Arc::clone(&self.router) as Arc<dyn CallRouter>;
            Ok(Acquired::Remote(
                self.live.registry().remote_handle(id, router)?,
            ))
        }
    }
}

/// If this process was spawned as a proclet, run the proclet main loop and
/// **never return** (the process exits when the envelope says so or the
/// pipe closes). Otherwise return immediately.
///
/// Application binaries call this at the top of `main`, mirroring how the
/// paper's proclet is "linked into the binary during compilation".
pub fn maybe_proclet(registry: &Arc<ComponentRegistry>) {
    if std::env::var_os(ENV_GROUP).is_none() {
        return;
    }
    let group: u32 = proclet_env(ENV_GROUP, 0);
    let replica: u32 = proclet_env(ENV_REPLICA, 0);
    let version: u64 = proclet_env(ENV_VERSION, 1);
    let workers: usize = proclet_env(ENV_WORKERS, 4);

    let code = proclet_main(Arc::clone(registry), group, replica, version, workers);
    std::process::exit(code);
}

/// Reads one proclet variable, `default` when unset. A value that is set
/// but does not parse ends the process before it binds, naming the
/// variable: a proclet with a garbled version or group would register and
/// then misroute or reject every call.
fn proclet_env<T: std::str::FromStr>(name: &str, default: T) -> T {
    match std::env::var(name) {
        Err(std::env::VarError::NotPresent) => default,
        value => value.ok().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            eprintln!("proclet: {name} is set but does not parse");
            std::process::exit(2);
        }),
    }
}

/// The proclet main loop. Returns the process exit code.
fn proclet_main(
    registry: Arc<ComponentRegistry>,
    group: u32,
    replica: u32,
    version: u64,
    workers: usize,
) -> i32 {
    let live = Arc::new(LiveComponents::new(registry));
    let table = RoutingTable::new();
    let callgraph = Arc::new(CallGraph::new());
    let router = Arc::new(RemoteRouter::new(
        Arc::clone(&table),
        Arc::clone(&callgraph),
        version,
    ));
    // One registry for the process: the router's `call_nanos` and the
    // dispatcher's `handle_nanos`, all of it in every load report.
    let metrics = Arc::clone(router.metrics());
    let getter = ProcletGetter::new(Arc::clone(&live), router);

    // Data plane: serve our components, fenced by our table. Nothing
    // injects faults into a proclet: its fault map stays empty.
    let dispatcher = Arc::new(ProcletDispatcher::new(
        Arc::clone(&live),
        Arc::clone(&getter) as Arc<dyn ComponentGetter>,
        version,
        Arc::clone(&metrics),
        Arc::default(),
        Arc::clone(&table),
    ));
    let mut busy_since = (dispatcher.busy_nanos(), Instant::now());
    let server = match dispatcher.serve(Endpoint::fresh_unix(), workers) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("proclet {group}/{replica}: cannot bind data plane: {e}");
            return 1;
        }
    };

    // Control plane: the Table 1 pipe protocol on stdin/stdout.
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let register = ProcletMessage::RegisterReplica {
        group,
        replica,
        addr: server.endpoint(),
        pid: std::process::id().into(),
    };
    if write_message(&mut out, &register).is_err() {
        return 1;
    }
    if write_message(&mut out, &ProcletMessage::ComponentsToHost).is_err() {
        return 1;
    }

    let mut stdin = std::io::stdin().lock();
    loop {
        let msg: Option<EnvelopeMessage> = match read_message(&mut stdin) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("proclet {group}/{replica}: pipe error: {e}");
                return 1;
            }
        };
        let Some(msg) = msg else {
            // Envelope went away: a proclet must not outlive its deployer.
            return 0;
        };
        match msg {
            EnvelopeMessage::HostComponents { components } => {
                getter.set_hosted(&components);
                // Eagerly start hosted components so the first call does not
                // pay construction latency.
                for id in components {
                    if let Err(e) = live.get_or_start(id, &*getter) {
                        eprintln!("proclet {group}/{replica}: start #{id} failed: {e}");
                    }
                }
            }
            EnvelopeMessage::RoutingInfo(routing) => {
                table.update(routing);
            }
            EnvelopeMessage::HealthCheck => {
                // Busy cores since the previous report, handler time over
                // wall time: what the manager's autoscaler consumes.
                let (busy, now) = (dispatcher.busy_nanos(), Instant::now());
                let wall = now.duration_since(busy_since.1).as_nanos().max(1);
                let utilization = busy.wrapping_sub(busy_since.0) as f64 / wall as f64;
                busy_since = (busy, now);
                let report = ProcletMessage::LoadReport {
                    utilization,
                    metrics: metrics.snapshot(),
                    callgraph: callgraph.snapshot(),
                };
                if write_message(&mut out, &report).is_err() {
                    return 1;
                }
            }
            EnvelopeMessage::Shutdown => {
                let _ = write_message(&mut out, &ProcletMessage::ShuttingDown);
                let _ = out.flush();
                server.shutdown();
                return 0;
            }
        }
    }
}
