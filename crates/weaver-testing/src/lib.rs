//! Automated testing of distributed applications (paper §5.3).
//!
//! "With our proposal, it is trivial to run end-to-end tests. Because
//! applications are written as single binaries in a single programming
//! language, end-to-end tests become simple unit tests. This opens the door
//! to automated fault tolerance testing, akin to chaos testing, Jepsen
//! testing, and model checking."
//!
//! * [`matrix`] — runs one test body under **every** placement that
//!   matters: co-located (plain calls), marshaled (full
//!   encode/dispatch/decode), real loopback TCP through `weaver-transport`,
//!   and multi-replica TCP with routed-key affinity. A test that passes all
//!   four cannot be depending on address-space sharing, marshaling quirks,
//!   or single-replica accidents.
//! * [`chaos`] — a seeded fault-injection loop over any fault-injectable
//!   deployment: crash components, take them down, inject latency, heal —
//!   while the test body keeps issuing requests and asserting invariants.
//!   Action sequences are a pure function of the seed; logs serialize to
//!   text and replay verbatim, so any chaos-found failure becomes a
//!   deterministic regression test.
//! * [`control`] — a deterministic driver for the runtime's control plane:
//!   membership runs against in-memory proclets in a seeded delivery order
//!   with seeded crashes, migrations run on an in-memory [`ModelHost`]
//!   failing at a chosen step, and the whole run is a line-log trace.
//! * [`invariants`] — what chaos asserts: a model-based cart-consistency
//!   checker, an exactly-once checkout checker for saga-shaped workflows
//!   (every charge resolved by exactly one order or refund), a
//!   blue/green rollout harness enforcing the §4.4
//!   no-cross-version-communication invariant under fire, and a
//!   slice-monotonicity checker for live rebalancing (per-key sequence
//!   numbers never regress across a migration; no dual ownership).
//!
//! Transport-level fault injection (delay/corrupt/duplicate/truncate/sever
//! at the socket boundary) lives in `weaver_transport::fault` and is wired
//! in via `TcpOptions::fault_spec`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod control;
pub mod invariants;
pub mod matrix;

pub use chaos::{
    apply, eventually, replay, seed_from_env, ChaosAction, ChaosOptions, ChaosRunner, ChaosSchedule,
};
pub use control::{ControlDriver, FailPoint, ModelHost, ModelState, TraceRecord};
pub use invariants::{
    CartConsistency, ExactlyOnceCheckout, PlacementSafety, RolloutHarness, RolloutReport,
    SliceMonotonicity,
};
pub use matrix::{run_matrix, run_matrix_with, MatrixDeployment, MatrixOptions, Placement};
