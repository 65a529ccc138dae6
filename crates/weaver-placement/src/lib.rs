//! Placement substrate (paper §4.1, §5.1): the decisions the runtime makes
//! so developers do not have to.
//!
//! "The runtime makes all high-level decisions on how to run components.
//! For example, it decides which components to co-locate and replicate."
//!
//! * [`colocate()`](colocate::colocate) — groups components into co-location groups by
//!   agglomerative clustering over the observed call graph: merge the
//!   chattiest pairs first, subject to a per-group CPU budget. This is the
//!   mechanism behind the paper's "co-locate two chatty components in the
//!   same OS process so that communication … is done locally".
//! * [`autoscale`] — an HPA-style control loop (the prototype "uses
//!   Horizontal Pod Autoscalers"): desired replicas = ceil(current ×
//!   utilization / target), with a scale-down stabilization window to
//!   prevent flapping.
//! * [`controller`] — the **online** planner: consumes the live
//!   [`PlacementSignal`](weaver_metrics::PlacementSignal) and plans
//!   colocate/route moves by modeled RTT savings minus migration cost,
//!   with replayable decision logs like the slice rebalance controller.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod autoscale;
pub mod colocate;
pub mod controller;

pub use autoscale::{Autoscaler, AutoscalerConfig};
pub use colocate::{colocate, ColocationConfig};
pub use controller::{
    apply_decisions, ComponentPlacement, PlacementController, PlacementDecision, PlacementOptions,
    PlacementPlan, PlacementState,
};
