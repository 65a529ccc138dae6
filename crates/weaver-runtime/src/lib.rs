//! The runtime (paper §4): deployers, the proclet architecture, and the
//! application–runtime API.
//!
//! "Underneath the programming model lies a runtime that is responsible for
//! distributing and executing components. … The runtime is also responsible
//! for low-level details like launching components onto physical resources
//! and restarting components when they fail."
//!
//! Pieces, mapped to the paper:
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`config`] | the deployment TOML (name, co-location, scaling bounds) |
//! | [`protocol`] | Table 1: the proclet ↔ runtime pipe API |
//! | [`proclet`] | §4.3: the in-binary daemon |
//! | [`envelope`] | Figure 3: per-proclet parent agent |
//! | [`control`] | the control plane: membership, routing and the migration executor, no I/O (§5.3) |
//! | [`manager`] | Figure 3: the global manager (multiprocess deployer), hosting [`control`] |
//! | [`single`] | the single-process deployer (co-located / weavertest) |
//! | [`tcp`] | the loopback-TCP deployer: one process, real sockets, live migrations through [`control`] |
//! | [`router`] | the data plane: proclet-to-proclet calls |
//! | [`dispatch`] | the one dispatch path: §4.4 version backstop, injected faults |
//! | [`dedup`] | idempotency-key replay: retries never double-execute |
//!
//! A binary using the runtime starts with:
//!
//! ```ignore
//! fn main() {
//!     let registry = Arc::new(build_registry());
//!     weaver_runtime::proclet::maybe_proclet(&registry); // proclet? never returns
//!     let dep = MultiProcess::deploy(registry, config, SpawnSpec::current_exe()?)?;
//!     let hello = dep.get::<dyn Hello>()?;
//!     println!("{}", hello.greet(&dep.root_context(), "World".into())?);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod control;
pub mod dedup;
pub mod dispatch;
pub mod envelope;
pub mod manager;
pub mod proclet;
pub mod protocol;
pub mod router;
pub mod single;
pub mod tcp;

pub use config::{ConfigError, DeploymentConfig, TomlDoc, TomlValue};
pub use control::MigratedRange;
pub use dedup::DedupCache;
pub use envelope::{Incarnation, ReplicaId, SpawnSpec};
pub use manager::MultiProcess;
pub use single::{ComponentFault, FaultInjectable, SingleMode, SingleProcess};
pub use tcp::{ComponentMigration, MigrationReport, PlacementRoundReport, TcpOptions, TcpProcess};

/// Every binary that links the runtime — the app and its proclets, the
/// gRPC-like baseline's services, the benchmarks and the tests — allocates
/// small blocks from a per-thread cache instead of glibc's arena bins,
/// which a decoded reply overflows (DESIGN.md, "One allocator per weaver
/// process"). Such a binary cannot declare a `#[global_allocator]` of its
/// own.
#[global_allocator]
static ALLOCATOR: mimalloc::MiMalloc = mimalloc::MiMalloc;
