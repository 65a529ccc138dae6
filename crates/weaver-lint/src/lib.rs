//! Static component-graph extraction and paper-invariant lints.
//!
//! The paper's central claim is that writing a distributed application
//! as a *modular monolith* lets the framework see structure a service
//! architecture hides: which components exist, who calls whom, what
//! crosses the boundaries. The runtime half of this repo recovers that
//! structure dynamically (`weaver_metrics::CallGraph`); this crate
//! recovers it **statically**, from source, before anything runs:
//!
//! - [`scan::scan_root`] walks a source tree and extracts every
//!   `#[component]` trait, implementation struct, dependency field, and
//!   stub call site into a [`model::Model`];
//! - [`graph::build_graph`] turns the model into the same
//!   [`weaver_metrics::CallGraphSnapshot`] the runtime produces, so the
//!   placement optimizer (`weaver_placement::colocate`) can plan a
//!   deployment from a build artifact alone;
//! - [`cfg`] abstracts every scanned method body into a stream of
//!   events (lock acquire/release, stub call, future gather, saga step
//!   registration), and [`dataflow`] propagates facts over those
//!   summaries through the call graph to a fixed point;
//! - [`rules`], [`locks`], [`schema`], and [`lockfile`] check eight
//!   invariants (L1–L8) the deployment model imposes but the compiler
//!   can't express.
//!
//! The `weaver-lint` binary fronts all of this with rustc-style, JSON,
//! and SARIF output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cfg;
pub mod dataflow;
pub mod diag;
pub mod graph;
pub mod lockfile;
pub mod locks;
pub mod model;
pub mod rules;
pub mod scan;
pub mod schema;

pub use diag::{Diagnostic, Severity};
pub use graph::build_graph;
pub use model::Model;
pub use scan::scan_root;

use diag::{object, text};
use std::path::Path;
use weaver_codec::json::JsonValue;

/// Scans `root` and runs every rule, checking L5 hygiene and the L8
/// schema diff against `lock` when one is supplied. Diagnostics are
/// sorted by rule, then location.
pub fn lint(model: &Model, lock: Option<&lockfile::LockFile>) -> Vec<Diagnostic> {
    let mut diags = rules::run_all(model);
    if let Some(lock) = lock {
        diags.extend(lockfile::check(lock, model));
        diags.extend(schema::diff(lock, model));
    }
    diags.sort_by(|a, b| (a.rule, &a.file, a.line).cmp(&(b.rule, &b.file, b.line)));
    diags
}

/// Convenience: scan + lint in one call (no lock file).
pub fn analyze(root: &Path) -> std::io::Result<(Model, Vec<Diagnostic>)> {
    let model = scan_root(root)?;
    let diags = lint(&model, None);
    Ok((model, diags))
}

/// Renders the static graph as JSON (caller/callee/method/calls per
/// edge), matching the field names of the runtime snapshot.
pub fn graph_json(snapshot: &weaver_metrics::CallGraphSnapshot) -> String {
    let edges = snapshot
        .edges
        .iter()
        .map(|(e, s)| {
            object([
                ("caller", text(&e.caller)),
                ("callee", text(&e.callee)),
                ("method", text(&e.method)),
                ("calls", JsonValue::Number(s.calls as f64)),
            ])
        })
        .collect();
    object([("edges", JsonValue::Array(edges))]).to_string_compact()
}
