//! The paper-invariant lints (L1–L4 and L7; L5 lives in
//! [`crate::lockfile`], L6 in [`crate::locks`], L8 in [`crate::schema`]).
//!
//! Each rule encodes a constraint the paper's runtime model imposes but
//! the Rust compiler cannot check on its own:
//!
//! - **L1** — everything crossing a component boundary must be wire
//!   data (`#[derive(WeaverData)]`), or the same binary that
//!   works co-located fails when split across processes (§3, §4).
//! - **L2** — the component call graph must be acyclic, or placement
//!   and rollout have no topological order and a co-located deadlock
//!   becomes a distributed one (§5.1).
//! - **L3** — `#[routed]` methods need a hashable routing key in their
//!   first payload argument, or sticky-routing silently degrades to
//!   random (§5.2).
//! - **L4** — holding a lock guard across a component call turns into
//!   holding it across an RPC once the callee is placed remotely: a
//!   latency cliff and a deadlock risk invisible in local testing (§2).
//! - **L7** — saga completeness: forward steps with a compensation
//!   counterpart must run inside a saga, every such step must register
//!   its compensation, and compensations must take an idempotency key,
//!   or crash recovery strands half-done workflows (§3.2's managed
//!   partial-failure story applied to the checkout saga).

use crate::cfg::EventKind;
use crate::diag::{Diagnostic, Severity};
use crate::graph::{resolve_calls, resolve_target};
use crate::model::{Model, SagaRole};
use crate::schema::type_idents;

/// Types that are wire-encodable without a `WeaverData` derive: the
/// primitives and std containers the codec provides built-in impls for.
const WIRE_BUILTINS: &[&str] = &[
    "bool",
    "char",
    "u8",
    "u16",
    "u32",
    "u64",
    "u128",
    "usize",
    "i8",
    "i16",
    "i32",
    "i64",
    "i128",
    "isize",
    "f32",
    "f64",
    "String",
    "str",
    "Vec",
    "Option",
    "Box",
    "HashMap",
    "BTreeMap",
    "HashSet",
    "BTreeSet",
    "Result",
    "WeaverError",
];

/// Types whose values can feed `weaver_core::routing_key` (a `Hash`
/// bound) without a derive.
const HASHABLE_BUILTINS: &[&str] = &[
    "bool", "char", "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128",
    "isize", "String", "str", "Vec", "Option", "Box", "BTreeMap", "BTreeSet",
];

/// Types that can never produce a routing key.
const NEVER_HASHABLE: &[&str] = &["f32", "f64", "HashMap", "HashSet"];

/// Runs the model-level rules (L1–L4, L6, L7) over a scanned model.
pub fn run_all(model: &Model) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    l1_wire_data(model, &mut diags);
    l2_acyclic_graph(model, &mut diags);
    l3_routing_keys(model, &mut diags);
    l4_guard_across_call(model, &mut diags);
    crate::locks::l6_lock_order(model, &mut diags);
    l7_saga_completeness(model, &mut diags);
    diags
}

/// Extracts the `Ok` type from a rendered `Result<T, E>` return type.
/// Falls back to the whole string when it isn't a `Result`.
fn result_ok_type(ret: &str) -> String {
    let Ok(toks) = weaver_syntax::lex(ret) else {
        return ret.to_string();
    };
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("Result") && toks.get(i + 1).is_some_and(|t| t.is_punct("<")) {
            let start = i + 2;
            let mut depth = 1i32;
            let mut j = start;
            let mut prev_dash = false;
            while j < toks.len() {
                let t = &toks[j];
                if t.is_punct(",") && depth == 1 {
                    break;
                }
                if t.is_punct("<") {
                    depth += 1;
                } else if t.is_punct(">") && !prev_dash {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                prev_dash = t.is_punct("-");
                j += 1;
            }
            return weaver_syntax::render_tokens(&toks[start..j]);
        }
        i += 1;
    }
    ret.to_string()
}

/// Method names that mark a saga compensation (`refund`, `restore_*`,
/// `cancel_*`, `undo_*`). Compensations run during crash recovery —
/// often from a *different* process than the one that ran the forward
/// step — so their payloads crossing the wire is not hypothetical, and
/// a non-wire type here strands a half-done saga with no way to undo it.
fn is_compensation(name: &str) -> bool {
    name == "refund"
        || name == "compensate"
        || name.starts_with("restore_")
        || name.starts_with("cancel_")
        || name.starts_with("undo_")
}

/// L1: every type named in a component method's payload arguments or
/// `Ok` return that is *defined in the scanned tree* must derive
/// `WeaverData`. Types defined elsewhere get the benefit of the doubt —
/// the compiler enforces the codec bounds at the use site anyway; this
/// lint exists to catch the mistake early with a better message.
///
/// Compensation-named methods (see [`is_compensation`]) get a tailored
/// diagnostic: recovery replays them cross-process from the persisted
/// step log, so the wire-data requirement is load-bearing even when the
/// app only ever deploys co-located.
fn l1_wire_data(model: &Model, diags: &mut Vec<Diagnostic>) {
    for t in &model.traits {
        for m in &t.methods {
            let mut positions: Vec<(String, String)> = m
                .arg_types
                .iter()
                .enumerate()
                .map(|(i, ty)| (format!("argument {}", i + 1), ty.clone()))
                .collect();
            positions.push(("return value".to_string(), result_ok_type(&m.ret)));
            for (pos, ty) in positions {
                for ident in type_idents(&ty) {
                    if WIRE_BUILTINS.contains(&ident.as_str()) {
                        continue;
                    }
                    let Some(def) = model.types.get(&ident) else {
                        continue;
                    };
                    if def.derives("WeaverData") {
                        continue;
                    }
                    let (message, help) = if is_compensation(&m.name) {
                        (
                            format!(
                                "`{}` in the {pos} of compensation method `{}::{}` does \
                                 not derive `WeaverData`; saga recovery replays \
                                 compensations from the persisted step log — possibly \
                                 from a different process than the forward step — so \
                                 this payload crosses the wire even in deployments that \
                                 co-locate `{}`",
                                ident, t.trait_name, m.name, t.component_name
                            ),
                            format!(
                                "add `#[derive(WeaverData)]` to `{}` (defined at {}:{}), \
                                 then re-run `weaver-lint --update-lock` so the \
                                 compensation's fingerprint lands in weaver-api.lock",
                                ident,
                                def.file.display(),
                                def.line
                            ),
                        )
                    } else {
                        (
                            format!(
                                "`{}` in the {pos} of `{}::{}` does not derive \
                                 `WeaverData`; it cannot cross a component boundary once \
                                 `{}` is placed in another process",
                                ident, t.trait_name, m.name, t.component_name
                            ),
                            format!(
                                "add `#[derive(WeaverData)]` to `{}` (defined at {}:{})",
                                ident,
                                def.file.display(),
                                def.line
                            ),
                        )
                    };
                    diags.push(Diagnostic {
                        rule: "L1",
                        severity: Severity::Error,
                        file: t.file.clone(),
                        line: m.line,
                        message,
                        help,
                    });
                }
            }
        }
    }
}

/// Methods that belong to the runtime's migration control plane, not the
/// request plane: the state-handoff pair the placement and rebalance
/// controllers drive while the target component's admission gate is
/// frozen. A control-plane edge cannot create a dispatch-order cycle —
/// it only ever runs with the callee quiesced — so L2 ignores it.
const CONTROL_PLANE_METHODS: &[&str] = &["export_keys", "import_keys"];

/// L2: depth-first search for cycles over the component-level edges
/// (methods collapsed). Each cycle is reported once, canonicalized by
/// rotating to its lexicographically smallest member. Control-plane
/// edges ([`CONTROL_PLANE_METHODS`]) are excluded: a migration driver
/// calling `export_keys`/`import_keys` back into the component family it
/// serves is the freeze/drain handoff, not a request-plane dependency.
fn l2_acyclic_graph(model: &Model, diags: &mut Vec<Diagnostic>) {
    use std::collections::{BTreeMap, BTreeSet};
    let resolved = resolve_calls(model);
    let mut adj: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for r in &resolved {
        if CONTROL_PLANE_METHODS.contains(&r.method.as_str()) {
            continue;
        }
        adj.entry(r.caller.clone())
            .or_default()
            .insert(r.callee.clone());
    }
    for cycle in crate::dataflow::cycles(&adj) {
        let display = {
            let mut c = cycle.clone();
            c.push(cycle[0].clone());
            c.join(" -> ")
        };
        let anchor = model.traits.iter().find(|t| t.component_name == cycle[0]);
        let (file, line) = anchor.map(|t| (t.file.clone(), t.line)).unwrap_or_default();
        diags.push(Diagnostic {
            rule: "L2",
            severity: Severity::Error,
            file,
            line,
            message: format!("component call graph contains a cycle: {display}"),
            help: "break the cycle (e.g. invert one dependency or introduce an event/queue \
                   component); cyclic components cannot be rolled out or placed in \
                   dependency order"
                .to_string(),
        });
    }
}

/// L3: a `#[routed]` method's first payload argument must be able to
/// produce a routing key (`weaver_core::routing_key` needs `Hash`).
fn l3_routing_keys(model: &Model, diags: &mut Vec<Diagnostic>) {
    for t in &model.traits {
        for m in t.methods.iter().filter(|m| m.routed) {
            let Some(key_ty) = m.arg_types.first() else {
                diags.push(Diagnostic {
                    rule: "L3",
                    severity: Severity::Error,
                    file: t.file.clone(),
                    line: m.line,
                    message: format!(
                        "`#[routed]` method `{}::{}` has no payload argument to derive \
                         a routing key from",
                        t.trait_name, m.name
                    ),
                    help: "add a key argument (e.g. the entity id) as the first payload \
                           parameter, or drop `#[routed]`"
                        .to_string(),
                });
                continue;
            };
            for ident in type_idents(key_ty) {
                if NEVER_HASHABLE.contains(&ident.as_str()) {
                    diags.push(Diagnostic {
                        rule: "L3",
                        severity: Severity::Error,
                        file: t.file.clone(),
                        line: m.line,
                        message: format!(
                            "`#[routed]` method `{}::{}` routes on `{key_ty}`, but `{ident}` \
                             cannot produce a stable routing key (no `Hash`)",
                            t.trait_name, m.name
                        ),
                        help: "route on a hashable key (string or integer id); floats and \
                               unordered maps hash unstably or not at all"
                            .to_string(),
                    });
                    continue;
                }
                if HASHABLE_BUILTINS.contains(&ident.as_str()) {
                    continue;
                }
                let Some(def) = model.types.get(&ident) else {
                    continue;
                };
                if !def.derives("Hash") {
                    diags.push(Diagnostic {
                        rule: "L3",
                        severity: Severity::Error,
                        file: t.file.clone(),
                        line: m.line,
                        message: format!(
                            "`#[routed]` method `{}::{}` routes on `{key_ty}`, but `{ident}` \
                             does not derive `Hash` — affinity routing needs a stable key",
                            t.trait_name, m.name
                        ),
                        help: format!(
                            "add `Hash` to the derives of `{}` ({}:{}) or route on a \
                             hashable field instead",
                            ident,
                            def.file.display(),
                            def.line
                        ),
                    });
                }
            }
        }
    }
}

/// L4: a resolved component call made while a `lock()`/`read()`/`write()`
/// guard from an enclosing scope is still live — or a future *gather*
/// (`CallFuture::wait` / `wait_timeout` / `join_all`) under the same
/// condition. A `<method>_start` launch returns immediately, so the
/// blocking moved to the gather site; holding a guard there is the same
/// cross-network critical section the blocking form would create.
fn l4_guard_across_call(model: &Model, diags: &mut Vec<Diagnostic>) {
    for r in resolve_calls(model) {
        let call = &model.calls[r.site];
        for held in &call.live_guards {
            let (guard, guard_line) = (&held.binding, held.line);
            diags.push(Diagnostic {
                rule: "L4",
                severity: Severity::Error,
                file: call.file.clone(),
                line: call.line,
                message: format!(
                    "component call `{}::{}` (edge {} -> {}) is made while lock guard \
                     `{guard}` (acquired at line {guard_line}) is still held",
                    call.field, call.method, r.caller, r.callee
                ),
                help: format!(
                    "drop `{guard}` before the call (`drop({guard})` or a narrower block): \
                     when `{}` is placed in another process this call is an RPC, and the \
                     guard becomes a cross-network critical section",
                    r.callee
                ),
            });
        }
    }
    for w in &model.waits {
        // Only component implementations: `Child::wait()` in a deployer
        // or a bare `Receiver` poll elsewhere is not a component gather.
        let Some(caller) = model.trait_for_struct(&w.struct_name) else {
            continue;
        };
        for held in &w.live_guards {
            let (guard, guard_line) = (&held.binding, held.line);
            diags.push(Diagnostic {
                rule: "L4",
                severity: Severity::Error,
                file: w.file.clone(),
                line: w.line,
                message: format!(
                    "future gather `{}` in `{}::{}` blocks while lock guard `{guard}` \
                     (acquired at line {guard_line}) is still held",
                    w.expr, caller.component_name, w.in_fn
                ),
                help: format!(
                    "drop `{guard}` before gathering (`drop({guard})` or a narrower \
                     block): the in-flight calls resolve over the network once the \
                     callees are placed remotely, and the guard spans that whole wait"
                ),
            });
        }
    }
}

/// The set of *paired forward steps*: component methods whose trait
/// also declares a compensation, that take an idempotency key, and are
/// not compensations themselves. These are the effects the application
/// has committed to undoing — `charge_idem` ⇄ `refund`,
/// `empty_cart_keyed` ⇄ `restore_cart` — and the pairing only works if
/// the forward step runs where the saga machinery can log it.
fn paired_forwards(model: &Model) -> std::collections::BTreeSet<(String, String)> {
    let mut out = std::collections::BTreeSet::new();
    for t in &model.traits {
        if !t.methods.iter().any(|m| is_compensation(&m.name)) {
            continue;
        }
        for m in &t.methods {
            if m.takes_key() && !is_compensation(&m.name) {
                out.insert((t.component_name.clone(), m.name.clone()));
            }
        }
    }
    out
}

/// L7: saga completeness. Three checks over the declared interfaces and
/// the saga chains the summaries recorded:
///
/// 1. a compensation-named method must take an idempotency key —
///    recovery replays compensations, so an unkeyed one double-undoes;
/// 2. a paired forward step (see [`paired_forwards`]) must not be
///    invoked outside a saga — a crash after the bare call leaves no
///    log entry from which to run the undo;
/// 3. inside a saga, a step whose forward closure invokes a paired
///    forward of component `C` must call back into `C` from its
///    compensation closure (and a step declared `forward_only` must not
///    invoke a paired forward at all). A compensation closure with no
///    component calls should be declared `forward_only` instead.
fn l7_saga_completeness(model: &Model, diags: &mut Vec<Diagnostic>) {
    // Check 1: unkeyed compensation declarations.
    for t in &model.traits {
        for m in &t.methods {
            if is_compensation(&m.name) && !m.takes_key() {
                diags.push(Diagnostic {
                    rule: "L7",
                    severity: Severity::Error,
                    file: t.file.clone(),
                    line: m.line,
                    message: format!(
                        "compensation method `{}::{}` takes no idempotency key; saga \
                         recovery may replay a compensation that already ran, and without \
                         a key the second run undoes twice",
                        t.component_name, m.name
                    ),
                    help: "add a key argument (e.g. `journal_key: String`) recorded by the \
                           forward step, and make the compensation a no-op when the key \
                           was already compensated"
                        .to_string(),
                });
            }
        }
    }
    let paired = paired_forwards(model);
    // Check 2: paired forwards invoked outside any saga chain.
    for r in resolve_calls(model) {
        let call = &model.calls[r.site];
        if call.saga.is_some() {
            continue;
        }
        if !paired.contains(&(r.callee.clone(), r.method.clone())) {
            continue;
        }
        diags.push(Diagnostic {
            rule: "L7",
            severity: Severity::Error,
            file: call.file.clone(),
            line: call.line,
            message: format!(
                "`{}::{}` is a saga forward step (its component declares a compensation) \
                 but is invoked here outside any saga",
                r.callee, r.method
            ),
            help: "run the call as a `Saga` step with its compensation registered: a crash \
                   right after this call leaves no step log from which recovery could undo \
                   the effect"
                .to_string(),
        });
    }
    // Check 3: per-step compensation registration inside saga chains.
    for s in &model.summaries {
        for (chain_idx, chain) in s.sagas.iter().enumerate() {
            for (step_idx, step) in chain.steps.iter().enumerate() {
                let mut forward_paired: Vec<(String, String)> = Vec::new();
                let mut comp_components: std::collections::BTreeSet<String> =
                    std::collections::BTreeSet::new();
                let mut comp_calls = 0usize;
                for e in &s.events {
                    let EventKind::Call {
                        field,
                        method,
                        saga: Some(role),
                        ..
                    } = &e.kind
                    else {
                        continue;
                    };
                    let Some((callee, m)) = resolve_target(model, &s.struct_name, field, method)
                    else {
                        continue;
                    };
                    match role {
                        SagaRole::Forward { chain: c, step: st }
                            if *c == chain_idx
                                && *st == step_idx
                                && paired.contains(&(callee.clone(), m.clone())) =>
                        {
                            forward_paired.push((callee, m));
                        }
                        SagaRole::Compensation { chain: c, step: st }
                            if *c == chain_idx && *st == step_idx =>
                        {
                            comp_calls += 1;
                            comp_components.insert(callee);
                        }
                        _ => {}
                    }
                }
                if step.forward_only {
                    for (callee, m) in &forward_paired {
                        diags.push(Diagnostic {
                            rule: "L7",
                            severity: Severity::Error,
                            file: s.file.clone(),
                            line: step.line,
                            message: format!(
                                "saga step `{}` is declared `forward_only` but invokes \
                                 `{callee}::{m}`, which has a compensation counterpart",
                                step.name
                            ),
                            help: format!(
                                "use `.step(\"{}\", …)` and register the compensation: \
                                 `forward_only` asserts the effect needs no undo, and \
                                 `{callee}` says otherwise",
                                step.name
                            ),
                        });
                    }
                    continue;
                }
                let mut missing = false;
                for (callee, m) in &forward_paired {
                    if !comp_components.contains(callee) {
                        missing = true;
                        diags.push(Diagnostic {
                            rule: "L7",
                            severity: Severity::Error,
                            file: s.file.clone(),
                            line: step.line,
                            message: format!(
                                "saga step `{}` invokes forward step `{callee}::{m}` but \
                                 its compensation closure never calls `{callee}`",
                                step.name
                            ),
                            help: format!(
                                "call the compensation counterpart of `{callee}::{m}` \
                                 (keyed with the same idempotency key) from the step's \
                                 compensation closure, or declare the step \
                                 `.forward_only(…)` if the effect genuinely needs no undo",
                            ),
                        });
                    }
                }
                if comp_calls == 0 && !missing {
                    diags.push(Diagnostic {
                        rule: "L7",
                        severity: Severity::Warning,
                        file: s.file.clone(),
                        line: step.line,
                        message: format!(
                            "compensation closure of saga step `{}` performs no component \
                             calls",
                            step.name
                        ),
                        help: "declare the step with `.forward_only(…)` so the no-undo \
                               intent is explicit and auditable"
                            .to_string(),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn lint(src: &str) -> Vec<Diagnostic> {
        let mut m = Model::default();
        crate::scan::scan_source(&mut m, Path::new("test.rs"), src);
        run_all(&m)
    }

    #[test]
    fn result_ok_extraction() {
        assert_eq!(
            result_ok_type("Result<Vec<Cart>, WeaverError>"),
            "Vec<Cart>"
        );
        assert_eq!(result_ok_type("Result<(), WeaverError>"), "()");
        assert_eq!(result_ok_type("u64"), "u64");
    }

    #[test]
    fn clean_source_has_no_findings() {
        let diags = lint(
            r#"
            #[derive(Debug, Clone, Hash, WeaverData)]
            struct OrderId { id: String }
            #[component(name = "app.Orders")]
            trait Orders {
                #[routed]
                fn get(&self, ctx: &CallContext, id: OrderId) -> Result<Vec<String>, WeaverError>;
            }
        "#,
        );
        assert!(diags.is_empty(), "unexpected: {diags:?}");
    }

    #[test]
    fn l2_ignores_migration_control_plane_edges() {
        // A migration driver calls the state-handoff pair back into the
        // component family it serves. Without the control-plane carve-out
        // this is a Store -> Driver -> Store cycle; with it, only the
        // request-plane edge Store -> Driver remains, which is acyclic.
        let src = |export: &str, import: &str| {
            format!(
                r#"
                #[component(name = "app.Store")]
                trait Store {{
                    fn {export}(&self, ctx: &CallContext, range_start: u64, range_end: u64) -> Result<Vec<u8>, WeaverError>;
                    fn {import}(&self, ctx: &CallContext, blob: Vec<u8>) -> Result<u64, WeaverError>;
                }}
                #[component(name = "app.Driver")]
                trait Driver {{
                    fn migrate(&self, ctx: &CallContext, key: u64) -> Result<(), WeaverError>;
                }}
                pub struct StoreImpl {{ driver: Arc<dyn Driver> }}
                impl Component for StoreImpl {{ type Interface = dyn Store; }}
                impl Store for StoreImpl {{
                    fn {export}(&self, ctx: &CallContext, range_start: u64, range_end: u64) -> Result<Vec<u8>, WeaverError> {{
                        self.driver.migrate(ctx, range_start)?;
                        Ok(Vec::new())
                    }}
                    fn {import}(&self, ctx: &CallContext, blob: Vec<u8>) -> Result<u64, WeaverError> {{ Ok(0) }}
                }}
                pub struct DriverImpl {{ store: Arc<dyn Store> }}
                impl Component for DriverImpl {{ type Interface = dyn Driver; }}
                impl Driver for DriverImpl {{
                    fn migrate(&self, ctx: &CallContext, key: u64) -> Result<(), WeaverError> {{
                        let blob = self.store.{export}(ctx, key, key)?;
                        self.store.{import}(ctx, blob)?;
                        Ok(())
                    }}
                }}
            "#
            )
        };
        let diags = lint(&src("export_keys", "import_keys"));
        assert!(
            diags.iter().all(|d| d.rule != "L2"),
            "control-plane handoff edges must not report a cycle: {diags:?}"
        );
        // The same shape through request-plane methods is still a cycle.
        let diags = lint(&src("pull_state", "push_state"));
        assert!(
            diags.iter().any(|d| d.rule == "L2"),
            "renamed request-plane edges must still cycle: {diags:?}"
        );
    }

    #[test]
    fn l1_fires_on_underivd_payload() {
        let diags = lint(
            r#"
            struct Plain { n: u32 }
            #[component(name = "app.S")]
            trait S { fn put(&self, ctx: &CallContext, p: Plain) -> Result<(), WeaverError>; }
        "#,
        );
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "L1");
    }

    #[test]
    fn l1_tailors_the_diagnostic_for_compensation_methods() {
        let diags = lint(
            r#"
            struct CartSnapshot { items: Vec<String> }
            #[component(name = "app.Cart")]
            trait Cart {
                fn restore_cart(&self, ctx: &CallContext, journal_key: String, snap: CartSnapshot) -> Result<(), WeaverError>;
            }
        "#,
        );
        assert_eq!(diags.len(), 1, "unexpected: {diags:?}");
        assert_eq!(diags[0].rule, "L1");
        assert!(
            diags[0].message.contains("compensation method"),
            "{}",
            diags[0].message
        );
        assert!(
            diags[0].message.contains("step log"),
            "{}",
            diags[0].message
        );
        assert!(diags[0].help.contains("--update-lock"), "{}", diags[0].help);
    }

    #[test]
    fn l1_compensation_with_wire_types_is_clean() {
        let diags = lint(
            r#"
            #[component(name = "app.Pay")]
            trait Pay {
                fn refund(&self, ctx: &CallContext, key: String) -> Result<Option<String>, WeaverError>;
                fn cancel_shipment(&self, ctx: &CallContext, shipment_key: u64) -> Result<(), WeaverError>;
            }
        "#,
        );
        assert!(diags.is_empty(), "unexpected: {diags:?}");
    }

    const GATHER_COMPONENT: &str = r#"
        #[component(name = "app.A")]
        trait A { fn go(&self, ctx: &CallContext) -> Result<u64, WeaverError>; }
        #[component(name = "app.B")]
        trait B { fn serve(&self, ctx: &CallContext) -> Result<u64, WeaverError>; }
        struct AImpl { b: Arc<dyn B>, state: Mutex<u64> }
        impl Component for AImpl { type Interface = dyn A; }
        impl A for AImpl {
            fn go(&self, ctx: &CallContext) -> Result<u64, WeaverError> {
                let fut = self.b.serve_start(ctx);
                let g = self.state.lock();
                let n = fut.wait()?;
                drop(g);
                Ok(n)
            }
        }
    "#;

    #[test]
    fn l4_fires_on_guard_across_gather() {
        let diags = lint(GATHER_COMPONENT);
        assert_eq!(diags.len(), 1, "unexpected: {diags:?}");
        assert_eq!(diags[0].rule, "L4");
        assert!(
            diags[0].message.contains("fut.wait"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn l4_ignores_gathers_outside_component_impls() {
        // Same wait-under-guard shape, but the struct registers no
        // component interface (a deployer reaping a child process, say).
        let diags = lint(
            r#"
            struct Envelope { state: Mutex<u64> }
            impl Envelope {
                fn reap(&self, child: Child) -> u64 {
                    let g = self.state.lock();
                    let status = child.wait();
                    drop(g);
                    status
                }
            }
        "#,
        );
        assert!(diags.is_empty(), "unexpected: {diags:?}");
    }

    #[test]
    fn l4_ignores_condvar_wait_with_arguments() {
        let diags = lint(
            r#"
            #[component(name = "app.A")]
            trait A { fn go(&self, ctx: &CallContext) -> Result<u64, WeaverError>; }
            struct AImpl { cv: Condvar, state: Mutex<u64> }
            impl Component for AImpl { type Interface = dyn A; }
            impl A for AImpl {
                fn go(&self, ctx: &CallContext) -> Result<u64, WeaverError> {
                    let mut g = self.state.lock();
                    self.cv.wait(&mut g);
                    Ok(0)
                }
            }
        "#,
        );
        assert!(diags.is_empty(), "unexpected: {diags:?}");
    }

    // One saga-shaped component pair; the body is swapped per test.
    fn saga_src(body: &str) -> String {
        format!(
            r#"
            #[component(name = "app.Pay")]
            trait Pay {{
                fn charge_idem(&self, ctx: &CallContext, key: String) -> Result<(), WeaverError>;
                fn refund(&self, ctx: &CallContext, key: String) -> Result<(), WeaverError>;
            }}
            #[component(name = "app.Orders")]
            trait Orders {{ fn place(&self, ctx: &CallContext) -> Result<(), WeaverError>; }}
            struct OrdersImpl {{ pay: Arc<dyn Pay>, log: SagaLog }}
            impl Component for OrdersImpl {{ type Interface = dyn Orders; }}
            impl Orders for OrdersImpl {{
                fn place(&self, ctx: &CallContext) -> Result<(), WeaverError> {{
                    {body}
                    Ok(())
                }}
            }}
        "#
        )
    }

    #[test]
    fn l7_complete_saga_is_clean() {
        let diags = lint(&saga_src(
            r#"Saga::new(self.log.clone(), id, "t", vec![])
                .step("charge", || { self.pay.charge_idem(ctx, key.clone())?; Ok(vec![]) },
                      |_| { self.pay.refund(ctx, key.clone())?; Ok(()) })
                .run()?;"#,
        ));
        assert!(diags.is_empty(), "unexpected: {diags:?}");
    }

    #[test]
    fn l7_flags_missing_compensation_registration() {
        let diags = lint(&saga_src(
            r#"Saga::new(self.log.clone(), id, "t", vec![])
                .step("charge", || { self.pay.charge_idem(ctx, key.clone())?; Ok(vec![]) },
                      |_| Ok(()))
                .run()?;"#,
        ));
        assert_eq!(diags.len(), 1, "unexpected: {diags:?}");
        assert_eq!(diags[0].rule, "L7");
        assert!(
            diags[0].message.contains("never calls `app.Pay`"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn l7_flags_paired_forward_outside_saga() {
        let diags = lint(&saga_src(r#"self.pay.charge_idem(ctx, key.clone())?;"#));
        assert_eq!(diags.len(), 1, "unexpected: {diags:?}");
        assert_eq!(diags[0].rule, "L7");
        assert!(
            diags[0].message.contains("outside any saga"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn l7_flags_forward_only_step_with_paired_forward() {
        let diags = lint(&saga_src(
            r#"Saga::new(self.log.clone(), id, "t", vec![])
                .forward_only("charge", || { self.pay.charge_idem(ctx, key.clone())?; Ok(vec![]) })
                .run()?;"#,
        ));
        assert_eq!(diags.len(), 1, "unexpected: {diags:?}");
        assert_eq!(diags[0].rule, "L7");
        assert!(
            diags[0].message.contains("forward_only"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn l7_suggests_forward_only_for_empty_compensation() {
        // The forward target has no compensation counterpart, so the
        // no-op compensation is legal — but should be declared.
        let diags = lint(
            r#"
            #[component(name = "app.Ship")]
            trait Ship { fn send(&self, ctx: &CallContext) -> Result<(), WeaverError>; }
            #[component(name = "app.Orders")]
            trait Orders { fn place(&self, ctx: &CallContext) -> Result<(), WeaverError>; }
            struct OrdersImpl { ship: Arc<dyn Ship>, log: SagaLog }
            impl Component for OrdersImpl { type Interface = dyn Orders; }
            impl Orders for OrdersImpl {
                fn place(&self, ctx: &CallContext) -> Result<(), WeaverError> {
                    Saga::new(self.log.clone(), id, "t", vec![])
                        .step("ship", || { self.ship.send(ctx)?; Ok(vec![]) }, |_| Ok(()))
                        .run()?;
                    Ok(())
                }
            }
        "#,
        );
        assert_eq!(diags.len(), 1, "unexpected: {diags:?}");
        assert_eq!(diags[0].rule, "L7");
        assert_eq!(diags[0].severity, Severity::Warning);
        assert!(diags[0].help.contains("forward_only"), "{}", diags[0].help);
    }

    #[test]
    fn l7_flags_unkeyed_compensation() {
        let diags = lint(
            r#"
            #[component(name = "app.Pay")]
            trait Pay {
                fn refund(&self, ctx: &CallContext, txn: u64) -> Result<(), WeaverError>;
            }
        "#,
        );
        assert_eq!(diags.len(), 1, "unexpected: {diags:?}");
        assert_eq!(diags[0].rule, "L7");
        assert!(
            diags[0].message.contains("no idempotency key"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn l3_fires_on_unhashable_key() {
        let diags = lint(
            r#"
            #[component(name = "app.S")]
            trait S {
                #[routed]
                fn put(&self, ctx: &CallContext, amount: f64) -> Result<(), WeaverError>;
            }
        "#,
        );
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "L3");
    }
}
