//! Metrics, call-graph, and tracing substrate (paper §4.3, §5.1).
//!
//! Figure 3 of the paper shows the manager aggregating "metrics, traces,
//! logs" exported by proclets, and §5.1 describes using a "fine-grained call
//! graph between components … to identify the critical path, the bottleneck
//! components, the chatty components". This crate supplies those pieces:
//!
//! * [`Counter`], [`Gauge`] — lock-free scalar metrics;
//! * [`Histogram`] — a log-linear (HDR-style) latency histogram with
//!   mergeable snapshots and quantile estimation, used for every latency
//!   number this repository reports;
//! * [`CallGraph`] — per-(caller, callee, method) counts, byte volumes and
//!   latency sums; the placement optimizer consumes its snapshots to decide
//!   which components are "chatty" enough to co-locate;
//! * [`PlacementSignal`] — the decayed per-edge rate × latency aggregate the
//!   live placement controller plans from;
//! * [`trace`] — minimal distributed trace spans linked by the trace and
//!   span ids every call context carries;
//! * [`sliceload`] — per-slice request accounting for routed components,
//!   feeding the Slicer-style rebalance controller in weaver-routing;
//! * [`stripe`] — the per-thread stripes that keep per-call bookkeeping off
//!   cache lines other calling threads write.
//!
//! All snapshot types derive `WeaverData`, so they travel in the same wire
//! format as application data when proclets report load to the manager.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod histogram;
pub mod registry;
pub mod scalar;
pub mod signal;
pub mod sliceload;
pub mod stripe;
pub mod trace;

pub use callgraph::{CallEdge, CallGraph, CallGraphSnapshot, EdgeCell, EdgeHandleCache, EdgeStats};
pub use histogram::{Histogram, HistogramSnapshot};
pub use registry::{MetricFamily, MetricsRegistry, MetricsSnapshot};
pub use scalar::{Counter, Gauge};
pub use signal::{EdgeSignal, PlacementSignal, PlacementSignalBuilder};
pub use sliceload::{SliceLoadReport, SliceLoadTracker};
