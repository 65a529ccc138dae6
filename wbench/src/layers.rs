//! The traced pass: every per-layer metric of one workload, measured from
//! outside the crates.
//!
//! One deployment, three phases on it, then the probes and the ladder:
//!
//! 1. an untraced closed-loop phase bracketed by the OS ledger and by the
//!    counters the crates export, which splits `cpu_us_per_req` by thread
//!    class and counts wakeups, buffer-pool misses and routed load;
//! 2. the same load traced: a root span per request kept in memory, the
//!    dispatch queue sampled every millisecond and, on the one placement
//!    that records spans, its child spans folded into self time per
//!    component. The two phases' throughputs give the tracing overhead;
//! 3. an open-loop phase at 0.7 of the closed loop's rate, timed from each
//!    request's due time: a diagnostic nobody gates on.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use boutique::components::{CartService, COMPONENT_NAMES};
use weaver_codec::json::JsonValue;
use weaver_core::component::ComponentInterface;
use weaver_metrics::trace::Span;
use weaver_metrics::{HistogramSnapshot, MetricFamily, MetricsSnapshot};
use weaver_transport::{reactor_snapshot, BufferPool};

use crate::loadgen::{Clients, PhaseSummary, RootSpan, WINDOW};
use crate::probes::{probes, rung, Rung};
use crate::procstat::{tree_delta, TreeSample};
use crate::report::{artifact, object, percentile, Metric};
use crate::workloads::{Deployment, Placement, Workload, CLIENTS};
use crate::PassOutcome;

/// Spans written to `trace-<workload>.json`; the rest are counted, folded
/// into self times and dropped.
const SPANS_KEPT: usize = 50_000;

/// The `q` percentile of ascending `sorted_ns` in microseconds, or the
/// largest sample where there are too few for a percentile: these numbers
/// are diagnostics, and a stalled host must not turn one into a failed run.
fn tail_us(sorted_ns: &[u32], q: f64) -> f64 {
    let ns = percentile(sorted_ns, q).or(sorted_ns.last().copied());
    f64::from(ns.unwrap_or(0)) / 1e3
}

fn closed_loop_qps(phase: &PhaseSummary) -> f64 {
    let completed: usize = phase.windows.iter().map(Vec::len).sum();
    completed as f64 / (WINDOW.as_secs_f64() * phase.windows.len() as f64)
}

/// All `*/call_nanos` histograms of a registry merged: one distribution of
/// component-to-component call latency.
fn hop_latency(snapshot: &MetricsSnapshot) -> HistogramSnapshot {
    let mut merged = HistogramSnapshot::default();
    for (name, family) in &snapshot.metrics {
        if let (true, MetricFamily::Histogram(h)) = (name.ends_with("/call_nanos"), family) {
            merged.merge(h);
        }
    }
    merged
}

/// `after - before`, bucket by bucket.
fn histogram_delta(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    let earlier: HashMap<u32, u64> = before.buckets.iter().copied().collect();
    HistogramSnapshot {
        buckets: after
            .buckets
            .iter()
            .map(|&(i, c)| (i, c - earlier.get(&i).copied().unwrap_or(0)))
            .filter(|&(_, c)| c > 0)
            .collect(),
        count: after.count - before.count,
        sum: after.sum - before.sum,
        max: after.max,
    }
}

/// The share of routed `CartService` calls that landed on the busiest
/// replica, from the routing table's per-slice load. 0.5 is even.
fn hot_replica_share(deployment: &Deployment) -> Option<f64> {
    let table = deployment.tcp()?.routing_table();
    let cart = boutique::registry()
        .id_of(<dyn CartService as ComponentInterface>::NAME)
        .ok()?;
    let (assignment, load) = (table.assignment_of(cart)?, table.slice_load(cart)?);
    let mut per_replica: BTreeMap<u32, u64> = BTreeMap::new();
    for (slice, requests) in assignment.slices.iter().zip(&load.requests) {
        *per_replica.entry(slice.replica).or_default() += requests;
    }
    let total: u64 = per_replica.values().sum();
    (total > 0).then(|| *per_replica.values().max().expect("non-empty") as f64 / total as f64)
}

/// Child spans folded as they are drained, so a traced phase holds a drain
/// interval's worth of spans in memory, not a phase's worth.
#[derive(Default)]
struct SpanFold {
    /// Component → nanoseconds inside its spans and outside their children.
    self_ns: BTreeMap<String, u64>,
    spans: u64,
    kept: Vec<Span>,
}

impl SpanFold {
    /// A span's self time is its duration minus the part of it that its
    /// child spans cover (children overlap when the parent scattered
    /// calls). A child drained a batch later than its parent goes
    /// uncounted: a request or two per drain, of thousands.
    fn fold(&mut self, batch: Vec<Span>) {
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in &batch {
            children
                .entry(s.parent_id)
                .or_default()
                .push((s.start_nanos, s.start_nanos + s.duration_nanos));
        }
        for s in &batch {
            let (start, end) = (s.start_nanos, s.start_nanos + s.duration_nanos);
            let mut covered = 0;
            if let Some(intervals) = children.get_mut(&s.span_id) {
                intervals.sort_unstable();
                let mut reached = start;
                for &(from, to) in intervals.iter() {
                    let (from, to) = (from.max(reached), to.min(end));
                    if to > from {
                        covered += to - from;
                        reached = to;
                    }
                }
            }
            *self.self_ns.entry(s.component.clone()).or_default() +=
                s.duration_nanos.saturating_sub(covered);
        }
        self.spans += batch.len() as u64;
        let room = SPANS_KEPT.saturating_sub(self.kept.len());
        self.kept.extend(batch.into_iter().take(room));
    }
}

/// What the observer thread saw during the traced phase.
struct Observed {
    /// `weaver_transport::pool::dispatch_queue_depth()`, one sample per ms.
    queue_depths: Vec<u64>,
    fold: SpanFold,
}

/// Runs the traced phase with an observer thread beside it.
fn traced_phase(
    clients: &Clients,
    deployment: &Deployment,
    windows: u32,
    expect_qps: f64,
) -> (PhaseSummary, Observed) {
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let observer = std::thread::Builder::new()
            .name("wbench-observer".into())
            .spawn_scoped(scope, || {
                let mut seen = Observed {
                    queue_depths: Vec::new(),
                    fold: SpanFold::default(),
                };
                while !done.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(1));
                    seen.queue_depths
                        .push(weaver_transport::pool::dispatch_queue_depth());
                    if let (0, Some(app)) = (seen.queue_depths.len() % 200, deployment.single()) {
                        seen.fold.fold(app.drain_traces());
                    }
                }
                if let Some(app) = deployment.single() {
                    seen.fold.fold(app.drain_traces());
                }
                seen
            })
            .expect("spawn observer thread");
        let phase = clients.timed(&deployment.frontend, windows, expect_qps, true, || {});
        // Release: the observer's last drain sees every span of the phase.
        done.store(true, Ordering::Release);
        (phase, observer.join().expect("observer thread panicked"))
    })
}

fn write_trace(workload: &Workload, roots: &[RootSpan], fold: &SpanFold) -> Result<(), String> {
    let number = |n: u64| JsonValue::Number(n as f64);
    let roots_json = roots
        .iter()
        .take(SPANS_KEPT)
        .map(|s| {
            object(vec![
                ("op", JsonValue::String(s.op.name().into())),
                ("client", number(u64::from(s.client))),
                ("trace_id", JsonValue::String(format!("{:x}", s.trace_id))),
                ("start_ns", number(s.start_ns)),
                ("end_ns", number(s.end_ns)),
            ])
        })
        .collect();
    let children_json = fold
        .kept
        .iter()
        .map(|s| {
            object(vec![
                ("trace_id", JsonValue::String(format!("{:x}", s.trace_id))),
                ("span_id", number(s.span_id)),
                ("parent_id", number(s.parent_id)),
                ("component", JsonValue::String(s.component.clone())),
                ("method", JsonValue::String(s.method.clone())),
                ("start_ns", number(s.start_nanos)),
                ("duration_ns", number(s.duration_nanos)),
            ])
        })
        .collect();
    let doc = object(vec![
        ("workload", JsonValue::String(workload.name.into())),
        ("root_spans_recorded", number(roots.len() as u64)),
        ("child_spans_recorded", number(fold.spans)),
        ("root_spans", JsonValue::Array(roots_json)),
        ("child_spans", JsonValue::Array(children_json)),
    ]);
    let path = artifact(&format!("trace-{}.json", workload.name)).map_err(|e| e.to_string())?;
    std::fs::write(&path, doc.to_string_compact()).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn run(workload: &Workload, seed: u64, seconds: u32) -> Result<PassOutcome, String> {
    let mut outcome = PassOutcome::default();
    let mut metrics: Vec<Metric> = Vec::new();
    let clients = Clients::start(CLIENTS, seed, &workload.traffic);
    let deployment = Deployment::deploy(workload.placement)?;

    // The warm-up is a fixed number of requests on a fresh deployment, so
    // the calls it makes repeat exactly for a seed. Where the runtime
    // records no call graph this process can read, it is zero (README.md).
    let calls = |d: &Deployment| -> u64 {
        let graph = d.callgraph();
        graph.edges.iter().map(|(_, stats)| stats.calls).sum()
    };
    let calls_before = calls(&deployment);
    let warm_started = Instant::now();
    let warm = clients.warm(&deployment.frontend, workload.warmup);
    let warm_qps = warm.attempted as f64 / warm_started.elapsed().as_secs_f64();
    outcome.count(&warm);
    metrics.push(Metric::new(
        "runtime.rpcs_per_req",
        "count",
        (calls(&deployment) - calls_before) as f64 / warm.attempted as f64,
        warm.attempted,
    ));

    // Phase 1: untraced, between two readings of every ledger.
    let windows = (seconds / 3).max(1);
    let pool = BufferPool::global();
    let before = (
        TreeSample::read(),
        hop_latency(&deployment.metrics()),
        reactor_snapshot().unwrap_or_default(),
        pool.stats(),
    );
    let plain = clients.timed(&deployment.frontend, windows, warm_qps, false, || {});
    let after = (
        TreeSample::read(),
        hop_latency(&deployment.metrics()),
        reactor_snapshot().unwrap_or_default(),
        pool.stats(),
    );
    outcome.count(&plain);
    let requests = plain.completed();
    let per_req = |total: f64| total / requests as f64;
    let mut push = |name: &str, unit: &'static str, value: f64| {
        metrics.push(Metric::new(name, unit, value, requests));
    };

    // The tail is reported here and not gated: between two sets of ten runs
    // an hour apart its median moved by 25 % on `tcp_browse` (README.md).
    let mut pooled: Vec<u32> = plain.windows.concat();
    pooled.sort_unstable();
    push("latency.p99_us", "us", tail_us(&pooled, 0.99));

    let os = tree_delta(&before.0, &after.0);
    push("cpu.client_us_per_req", "us", per_req(os.client.run_us));
    push("cpu.reactor_us_per_req", "us", per_req(os.reactor.run_us));
    push("cpu.worker_us_per_req", "us", per_req(os.worker.run_us));
    push("cpu.other_us_per_req", "us", per_req(os.other.run_us));
    push("cpu.proclets_us_per_req", "us", per_req(os.children_run_us));
    push("runq.client_us_per_req", "us", per_req(os.client.wait_us));
    push("runq.reactor_us_per_req", "us", per_req(os.reactor.wait_us));
    push("runq.worker_us_per_req", "us", per_req(os.worker.wait_us));
    push("ctxsw_per_req", "count", per_req(os.ctxsw as f64));
    push("proc.threads", "count", os.threads as f64);
    push("proc.peak_rss_mb", "MB", os.hwm_mb);
    push(
        "proc.rss_growth_bytes_per_req",
        "bytes",
        per_req(os.rss_growth_bytes as f64),
    );

    let hops = histogram_delta(&after.1, &before.1);
    push("runtime.hop_p50_us", "us", hops.quantile(0.50) as f64 / 1e3);
    push("runtime.hop_p99_us", "us", hops.quantile(0.99) as f64 / 1e3);
    let wakeups = after.2.wakeups - before.2.wakeups;
    let events = after.2.ready_events - before.2.ready_events;
    push(
        "transport.reactor_wakeups_per_req",
        "count",
        per_req(wakeups as f64),
    );
    push(
        "transport.reactor_events_per_wakeup",
        "count",
        events as f64 / wakeups.max(1) as f64,
    );
    let (hits, misses) = (
        after.3.hits - before.3.hits,
        after.3.misses - before.3.misses,
    );
    push(
        "transport.pool_hit_frac",
        "frac",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    push(
        "transport.pool_miss_per_kreq",
        "count",
        per_req(misses as f64) * 1e3,
    );
    push(
        "routing.hot_replica_share",
        "frac",
        hot_replica_share(&deployment).unwrap_or(0.0),
    );

    // Phase 2: the same load, traced.
    let (traced, observed) = traced_phase(&clients, &deployment, windows, warm_qps);
    outcome.count(&traced);
    let requests = traced.completed();
    let mut push = |name: String, unit: &'static str, value: f64| {
        metrics.push(Metric::new(name, unit, value, requests));
    };
    let mut depths = observed.queue_depths;
    depths.sort_unstable();
    push(
        "transport.dispatch_queue_depth_p99".into(),
        "count",
        percentile(&depths, 0.99)
            .or(depths.last().copied())
            .unwrap_or(0) as f64,
    );
    let distinct: HashSet<&String> = traced.order_ids.iter().collect();
    let orders_per_checkout = if traced.checkouts == 0 {
        1.0
    } else {
        distinct.len() as f64 / traced.checkouts as f64
    };
    push(
        "boutique.orders_per_checkout".into(),
        "count",
        orders_per_checkout,
    );
    for component in COMPONENT_NAMES {
        let self_ns = observed.fold.self_ns.get(*component).copied().unwrap_or(0);
        push(
            format!(
                "trace.self_us.{}",
                component.trim_start_matches("boutique.")
            ),
            "us",
            self_ns as f64 / 1e3 / requests as f64,
        );
    }
    push(
        "trace.spans_per_req".into(),
        "count",
        (traced.spans.len() as u64 + observed.fold.spans) as f64 / requests as f64,
    );
    let plain_qps = closed_loop_qps(&plain);
    push(
        "trace.overhead_frac".into(),
        "frac",
        1.0 - closed_loop_qps(&traced) / plain_qps,
    );
    write_trace(workload, &traced.spans, &observed.fold)?;

    // Phase 3: open loop, below saturation.
    let paced = clients.paced(
        &deployment.frontend,
        f64::from((seconds / 5).max(1)),
        0.7 * plain_qps,
    );
    outcome.count(&paced);
    let requests = paced.completed();
    let mut push = |name: &str, unit: &'static str, value: f64| {
        metrics.push(Metric::new(name, unit, value, requests));
    };
    push(
        "paced.rate",
        "1/s",
        requests as f64 / paced.elapsed.as_secs_f64(),
    );
    push("paced.p50_us", "us", tail_us(&paced.latencies_ns, 0.50));
    push("paced.p99_us", "us", tail_us(&paced.latencies_ns, 0.99));
    push("paced.late_p99_us", "us", tail_us(&paced.late_ns, 0.99));

    clients.stop();
    deployment.stop();

    // The ladder, one placement after another, then the probes on replies
    // the colocated rung captured.
    let rungs: Vec<Rung> = Placement::ALL
        .iter()
        .map(|&p| rung(p))
        .collect::<Result<_, _>>()?;
    type Reading = fn(&Rung) -> Option<f64>;
    let ladder: [(&str, &'static str, Reading); 3] = [
        ("get_product_ns", "ns", |r| r.get_product_ns),
        ("home_us", "us", |r| Some(r.home_us)),
        ("place_order_us", "us", |r| Some(r.place_order_us)),
    ];
    for (operation, unit, value) in ladder {
        for r in &rungs {
            if let Some(value) = value(r) {
                let name = format!("ladder.{operation}.{}", r.placement.name());
                metrics.push(Metric::new(name, unit, value, 1));
            }
        }
    }
    let of = |p: Placement| {
        rungs
            .iter()
            .find(|r| r.placement == p)
            .expect("every rung ran")
    };
    let (colocated, tcp, multi, baseline) = (
        of(Placement::Colocated),
        of(Placement::Tcp),
        of(Placement::Multi),
        of(Placement::Baseline),
    );
    metrics.push(Metric::new(
        "core.scatter8_tcp_us",
        "us",
        tcp.scatter8_us.expect("the tcp rung scatters"),
        1,
    ));
    // The paper's Table 2 as ratios of the serial `home` rung: baseline over
    // prototype (one process per component), and over all-colocated.
    for (name, value) in [
        (
            "paper.cpu_ratio_baseline_over_multi",
            baseline.home_cpu_us / multi.home_cpu_us,
        ),
        (
            "paper.p50_ratio_baseline_over_multi",
            baseline.home_us / multi.home_us,
        ),
        (
            "paper.cpu_ratio_baseline_over_colocated",
            baseline.home_cpu_us / colocated.home_cpu_us,
        ),
        (
            "paper.p50_ratio_baseline_over_colocated",
            baseline.home_us / colocated.home_us,
        ),
    ] {
        metrics.push(Metric::new(name, "ratio", value, 1));
    }
    metrics.extend(probes(&colocated.home, &colocated.order)?);

    outcome.correct = outcome.failed == 0 && orders_per_checkout == 1.0;
    outcome.metrics = metrics;
    Ok(outcome)
}
