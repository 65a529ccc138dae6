//! The six workloads — five placements of the same boutique, two of them
//! driven twice — and how each placement is deployed. README.md says why
//! each exists and how its warm-up was sized.

use std::sync::Arc;
use std::time::{Duration, Instant};

use baseline::BaselineDeployment;
use boutique::components::{Frontend, ProductCatalog};
use weaver_metrics::{CallGraphSnapshot, MetricsSnapshot};
use weaver_runtime::{
    DeploymentConfig, MultiProcess, SingleMode, SingleProcess, SpawnSpec, TcpOptions, TcpProcess,
};

use crate::loadgen::{order_request, untraced, Mix, Traffic, PRODUCTS, VERSION};

/// Closed-loop clients per workload: the host has two CPUs, and a third
/// client would measure the scheduler.
pub const CLIENTS: usize = 2;
/// Worker threads of every RPC server.
const WORKERS: usize = 8;

/// Where the boutique's components run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// One process, plain method calls.
    Colocated,
    /// One process, every call marshaled and dispatched, no socket.
    Marshaled,
    /// Two replica servers on loopback TCP in this process.
    Tcp,
    /// One proclet process per component.
    Multi,
    /// Ten gRPC-like microservices with tagged encoding.
    Baseline,
}

impl Placement {
    pub const ALL: [Placement; 5] = [
        Placement::Colocated,
        Placement::Marshaled,
        Placement::Tcp,
        Placement::Multi,
        Placement::Baseline,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Placement::Colocated => "colocated",
            Placement::Marshaled => "marshaled",
            Placement::Tcp => "tcp",
            Placement::Multi => "multi",
            Placement::Baseline => "baseline",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub placement: Placement,
    pub traffic: Traffic,
    /// Unrecorded requests per client after each deploy: about 0.3 s of
    /// this workload on the 2-vCPU host the benchmark was sized on, a fixed
    /// count so that `setup_s` times the same work on every commit.
    pub warmup: u64,
}

const DEFAULT_MIX: Mix = Mix {
    home: 30,
    browse: 35,
    add_to_cart: 15,
    view_cart: 10,
    checkout: 10,
};
const READ_MIX: Mix = Mix {
    home: 45,
    browse: 45,
    add_to_cart: 0,
    view_cart: 10,
    checkout: 0,
};
const WRITE_MIX: Mix = Mix {
    home: 0,
    browse: 0,
    add_to_cart: 50,
    view_cart: 20,
    checkout: 30,
};

const fn uniform(mix: Mix) -> Traffic {
    Traffic {
        mix,
        users: 256,
        zipf: None,
    }
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "colocated_mix",
        placement: Placement::Colocated,
        traffic: uniform(DEFAULT_MIX),
        warmup: 40_000,
    },
    Workload {
        name: "marshaled_mix",
        placement: Placement::Marshaled,
        traffic: uniform(DEFAULT_MIX),
        warmup: 10_000,
    },
    Workload {
        name: "tcp_browse",
        placement: Placement::Tcp,
        traffic: uniform(READ_MIX),
        warmup: 700,
    },
    Workload {
        name: "tcp_checkout",
        placement: Placement::Tcp,
        traffic: Traffic {
            mix: WRITE_MIX,
            users: 256,
            zipf: Some(1.1),
        },
        warmup: 400,
    },
    Workload {
        name: "multi_mix",
        placement: Placement::Multi,
        traffic: uniform(DEFAULT_MIX),
        warmup: 500,
    },
    Workload {
        name: "baseline_mix",
        placement: Placement::Baseline,
        traffic: uniform(DEFAULT_MIX),
        warmup: 300,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Returns once one request of each kind has succeeded, which takes every
/// edge of the call graph once. `MultiProcess::deploy` returns when every
/// proclet has registered, which is before every proclet has *received* the
/// others' routes: about one deployment in a hundred then failed its first
/// checkout with "no routes for component #7" (README.md, "Known gaps").
/// The other placements pass at the first attempt.
fn await_ready(frontend: &dyn Frontend) -> Result<(), weaver_core::error::WeaverError> {
    let attempt = || {
        let ctx = untraced(Instant::now());
        let (user, product) = (|| "wbench-ready".to_string(), || PRODUCTS[0].to_string());
        frontend.home(&ctx, user(), "EUR".into())?;
        frontend.browse_product(&ctx, user(), product(), "EUR".into())?;
        frontend.add_to_cart(&ctx, user(), product(), 1)?;
        frontend.view_cart(&ctx, user(), "EUR".into())?;
        frontend.place_order(&ctx, order_request(user(), "EUR"))?;
        Ok(())
    };
    let give_up = Instant::now() + Duration::from_secs(5);
    loop {
        match attempt() {
            Err(_) if Instant::now() < give_up => std::thread::sleep(Duration::from_millis(5)),
            outcome => return outcome,
        }
    }
}

enum Handle {
    Single(Arc<SingleProcess>),
    Tcp(Arc<TcpProcess>),
    Multi(Arc<MultiProcess>),
    /// Held so that its servers keep running.
    Baseline {
        _app: BaselineDeployment,
    },
}

/// A running boutique and its ingress.
pub struct Deployment {
    pub frontend: Arc<dyn Frontend>,
    handle: Handle,
}

impl Deployment {
    pub fn deploy(placement: Placement) -> Result<Deployment, String> {
        let err = |e: weaver_core::error::WeaverError| format!("deploy {}: {e}", placement.name());
        let registry = boutique::registry();
        let (frontend, handle): (Arc<dyn Frontend>, Handle) = match placement {
            Placement::Colocated | Placement::Marshaled => {
                let mode = if placement == Placement::Colocated {
                    SingleMode::Colocated
                } else {
                    SingleMode::Marshaled
                };
                let app = SingleProcess::deploy(registry, mode, VERSION);
                (app.get::<dyn Frontend>().map_err(err)?, Handle::Single(app))
            }
            Placement::Tcp => {
                let options = TcpOptions {
                    replicas: 2,
                    workers: WORKERS,
                    fault_spec: None,
                };
                let app = TcpProcess::deploy(registry, options, VERSION).map_err(err)?;
                (app.get::<dyn Frontend>().map_err(err)?, Handle::Tcp(app))
            }
            Placement::Multi => {
                let config = DeploymentConfig {
                    name: "boutique".into(),
                    version: VERSION,
                    server_workers: WORKERS,
                    ..DeploymentConfig::default()
                };
                let spawn = SpawnSpec::current_exe().map_err(|e| format!("current exe: {e}"))?;
                let app = MultiProcess::deploy(registry, config, spawn).map_err(err)?;
                (app.get::<dyn Frontend>().map_err(err)?, Handle::Multi(app))
            }
            Placement::Baseline => {
                let app = BaselineDeployment::start(WORKERS).map_err(err)?;
                (app.frontend(), Handle::Baseline { _app: app })
            }
        };
        await_ready(&*frontend).map_err(err)?;
        Ok(Deployment { frontend, handle })
    }

    /// The call graph the runtime recorded so far, where this process can
    /// read a true one. The colocated placement makes plain method calls
    /// and the baseline has no runtime: both record nothing. The
    /// multiprocess manager does export an aggregate, but it re-adds every
    /// proclet's *cumulative* snapshot at each 250 ms health check, so its
    /// counts grow with the square of time and no difference of two
    /// readings means anything (README.md, "Known gaps").
    pub fn callgraph(&self) -> CallGraphSnapshot {
        match &self.handle {
            Handle::Single(app) => app.callgraph(),
            Handle::Tcp(app) => app.callgraph(),
            Handle::Multi(_) | Handle::Baseline { .. } => CallGraphSnapshot::default(),
        }
    }

    /// The runtime's metrics registry, with the same exceptions as
    /// [`Deployment::callgraph`].
    pub fn metrics(&self) -> MetricsSnapshot {
        match &self.handle {
            Handle::Single(app) => app.metrics(),
            Handle::Tcp(app) => app.client_metrics(),
            Handle::Multi(_) | Handle::Baseline { .. } => MetricsSnapshot::default(),
        }
    }

    pub fn single(&self) -> Option<&Arc<SingleProcess>> {
        match &self.handle {
            Handle::Single(app) => Some(app),
            _ => None,
        }
    }

    pub fn tcp(&self) -> Option<&Arc<TcpProcess>> {
        match &self.handle {
            Handle::Tcp(app) => Some(app),
            _ => None,
        }
    }

    /// A direct reference to the catalog, for the call ladder. The baseline
    /// has no component interface to hand out.
    pub fn catalog(&self) -> Option<Arc<dyn ProductCatalog>> {
        match &self.handle {
            Handle::Single(app) => app.get::<dyn ProductCatalog>().ok(),
            Handle::Tcp(app) => app.get::<dyn ProductCatalog>().ok(),
            Handle::Multi(app) => app.get::<dyn ProductCatalog>().ok(),
            Handle::Baseline { .. } => None,
        }
    }

    /// Stops the deployment; proclet processes are waited for.
    pub fn stop(self) {
        if let Handle::Multi(app) = &self.handle {
            app.shutdown();
        }
    }
}
