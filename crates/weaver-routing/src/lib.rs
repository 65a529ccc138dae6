//! Routing substrate (paper §5.2): affinity routing and replica selection.
//!
//! "The performance of some components improves greatly when requests are
//! routed with affinity. … Slicer showed that many applications can benefit
//! from this type of affinity based routing and that the routing is most
//! efficient when embedded in the application itself."
//!
//! * [`mod@slice`] — a Slicer-style assignment of the 64-bit key space into
//!   contiguous slices mapped to replicas, with load-driven rebalancing
//!   (split hot slices, reassign to the least-loaded replica). The manager
//!   computes assignments; every caller embeds the lookup.
//! * [`controller`] — the Slicer-style control loop: observed per-slice
//!   load in, split/move decisions out. Pure and deterministic; decisions
//!   serialize to replayable text logs.
//! * [`lb`] — power-of-two-choices replica selection for *unrouted*
//!   methods.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod controller;
pub mod lb;
pub mod slice;

pub use controller::{
    apply_decisions, ControllerOptions, RebalanceController, RebalanceDecision, RebalancePlan,
};
pub use lb::PowerOfTwo;
pub use slice::{Slice, SliceAssignment};
