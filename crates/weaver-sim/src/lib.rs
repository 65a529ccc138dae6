//! A discrete-event cluster simulator for cloud-scale experiments.
//!
//! **Why this exists.** The paper's Table 2 was measured on GKE: the
//! Online Boutique at 10 000 QPS with Horizontal Pod Autoscaling across a
//! real cluster, reporting steady-state *cores consumed* and *median
//! latency* for the prototype vs. the gRPC/Kubernetes baseline. No cloud is
//! available here, so per the substitution rule this crate simulates the
//! cluster: pods with FCFS CPU queues, an HPA control loop (the same
//! `weaver_placement::Autoscaler` the runtime uses), a network/codec cost
//! model with one preset per stack, and an open-loop Poisson workload.
//!
//! **What is measured vs. assumed.** Nothing is measured: the per-call
//! costs of the two stacks (non-versioned vs. tagged encoding, streamlined
//! vs. HTTP/2-like framing) are hand-set [`StackModel`] constants whose
//! ordering follows this repository's own codec and transport;
//! `cargo run -p bench --bin calibrate --release` prints this host's
//! numbers beside them but does not feed them in. The
//! *absolute* per-request CPU of the boutique's handlers is anchored so
//! that the simulated co-located configuration matches the paper's
//! 9-cores-at-10kQPS observation, since
//! the authors' Go handlers (HTTP serving, templating, GC) are not
//! reproducible from the paper. Shapes — who wins, by what factor, where
//! crossovers appear — are the reproduction target, not absolute numbers.
//!
//! Modules:
//!
//! * [`queue`] — virtual time and the event/reservation machinery;
//! * [`stack`] — the per-RPC cost model (`weaver`, `grpc_like`, `colocated`);
//! * [`cluster`] — pods, service groups, utilization accounting, HPA;
//! * [`tree`] — call-tree templates (one per user-facing operation);
//! * [`boutique_model`] — the 10-service topology with per-method CPU and
//!   message-size constants;
//! * [`engine`] — the simulation loop and its report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boutique_model;
pub mod cluster;
pub mod engine;
pub mod queue;
pub mod stack;
pub mod tree;

pub use engine::{SimConfig, SimReport};
pub use stack::StackModel;
