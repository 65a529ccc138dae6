//! Regenerates **Table 2** and the §6.1 co-location follow-up, measured
//! live on this host.
//!
//! Paper (GKE, Online Boutique, Locust at 10 000 QPS, HPA):
//!
//! ```text
//! Metric               Our Prototype   Baseline
//! QPS                        10000       10000
//! Average Number of Cores       28          78
//! Median Latency (ms)         2.66        5.47
//! (all 11 co-located:  9 cores, 0.38 ms)
//! ```
//!
//! Three rows, each driven by `boutique::loadgen::run_load` at one open-loop
//! offered rate with the default operation mix:
//!
//! * the prototype: `MultiProcess`, one proclet per component, autoscaler on;
//! * the baseline: ten gRPC-like services, one process each;
//! * the prototype told to fuse: every component in one co-location group.
//!
//! **Cores** are the `utime + stime` of this process's children over the
//! measured window, divided by its length. In every row this process runs
//! only the load generator and the frontend's client stub, as Locust runs
//! outside the cluster in the paper; its own CPU is printed on a line of
//! its own. A warm-up window precedes the measured one and its errors are
//! not counted; an error inside the measured window exits non-zero.
//!
//! `--qps N` sets the offered rate (default 1000), `--seconds N` the
//! measured window (default 20).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use baseline::{BaselineDeployment, SERVICE_WORKERS};
use boutique::components::Frontend;
use boutique::loadgen::{run_load, LoadOptions, LoadReport};
use weaver_runtime::{DeploymentConfig, MultiProcess, SpawnSpec};

/// Load-generator threads: enough that open-loop arrivals never wait for
/// a free one at the default rate.
const CLIENTS: usize = 64;
/// Runs before every measured window: the autoscaler's stabilization
/// window passes and first-call races settle.
const WARM_UP: Duration = Duration::from_secs(5);
/// `USER_HZ`, the unit of `/proc/<pid>/stat`'s `utime` and `stime`: 100
/// on every Linux ABI.
const TICKS_PER_SECOND: f64 = 100.0;

/// `utime + stime` of one process and `cutime + cstime`, the CPU of its
/// children it has reaped, in clock ticks.
fn cpu_ticks(pid: &str) -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the command name, which may itself hold spaces and
    // parentheses: state is the first, utime the twelfth, then stime,
    // cutime and cstime.
    let fields: Vec<&str> = stat[stat.rfind(')')? + 1..].split_whitespace().collect();
    let field = |i: usize| fields.get(i)?.parse::<u64>().ok();
    Some((field(11)? + field(12)?, field(13)? + field(14)?))
}

/// CPU ticks of each live child of this process, by pid.
fn children_ticks() -> HashMap<String, u64> {
    let mut ticks = HashMap::new();
    for task in std::fs::read_dir("/proc/self/task")
        .into_iter()
        .flatten()
        .flatten()
    {
        let children = std::fs::read_to_string(task.path().join("children")).unwrap_or_default();
        for pid in children.split_whitespace() {
            if let Some((t, _)) = cpu_ticks(pid) {
                ticks.insert(pid.to_string(), t);
            }
        }
    }
    ticks
}

/// One measured configuration.
struct Row {
    label: &'static str,
    load: LoadReport,
    /// Children's CPU over the measured window, in cores.
    cores: f64,
    /// This process's CPU over the measured window, in cores.
    parent_cores: f64,
    /// Replica count of each co-location group at the end of the window.
    replicas: String,
}

impl Row {
    fn p50_ms(&self) -> f64 {
        self.load.latency.median() as f64 / 1e6
    }

    fn p99_ms(&self) -> f64 {
        self.load.latency.quantile(0.99) as f64 / 1e6
    }
}

/// Warms up, then measures one window of open-loop load through `frontend`.
fn measure(
    label: &'static str,
    frontend: Arc<dyn Frontend>,
    qps: f64,
    window: Duration,
    replicas: impl Fn() -> String,
) -> Row {
    let options = |duration, seed| LoadOptions {
        workers: CLIENTS,
        duration,
        seed,
        target_qps: Some(qps),
        ..LoadOptions::default()
    };
    let warm = run_load(Arc::clone(&frontend), &options(WARM_UP, 1));
    if warm.errors > 0 {
        eprintln!("{label}: {} warm-up errors (not counted)", warm.errors);
    }

    let children_before = children_ticks();
    let (parent_before, reaped_before) = cpu_ticks("self").unwrap_or_default();
    let started = Instant::now();
    let load = run_load(frontend, &options(window, 42));
    let seconds = started.elapsed().as_secs_f64();
    let children_after = children_ticks();
    let (parent_after, reaped_after) = cpu_ticks("self").unwrap_or_default();
    // A child that started inside the window counts from zero. One reaped
    // inside it (a replica the autoscaler retired) is in this process's
    // reaped total with its whole lifetime, so its ticks from before the
    // window come off again.
    let live: u64 = children_after
        .iter()
        .map(|(pid, &end)| end.saturating_sub(children_before.get(pid).copied().unwrap_or(0)))
        .sum();
    let gone: u64 = children_before
        .iter()
        .filter(|(pid, _)| !children_after.contains_key(*pid))
        .map(|(_, &ticks)| ticks)
        .sum();
    let children = (live + reaped_after.saturating_sub(reaped_before)).saturating_sub(gone);
    let parent = parent_after.saturating_sub(parent_before);
    Row {
        label,
        load,
        cores: children as f64 / TICKS_PER_SECOND / seconds,
        parent_cores: parent as f64 / TICKS_PER_SECOND / seconds,
        replicas: replicas(),
    }
}

/// Deploys the boutique on `MultiProcess` with the autoscaler on, with
/// every component in one group when `colocate`, and measures it.
fn multiprocess_row(label: &'static str, colocate: bool, qps: f64, window: Duration) -> Row {
    let registry = boutique::registry();
    let all: Vec<String> = registry.iter().map(|(_, r)| r.name.to_string()).collect();
    let config = DeploymentConfig {
        name: "table2".into(),
        autoscale: true,
        server_workers: SERVICE_WORKERS,
        colocate: if colocate { vec![all] } else { Vec::new() },
        ..DeploymentConfig::default()
    };
    let spawn = SpawnSpec::current_exe().expect("current exe");
    let app = MultiProcess::deploy(registry, config, spawn).expect("deploy");
    let frontend = app.get::<dyn Frontend>().expect("frontend");
    let replicas = || {
        let groups = app.groups();
        let counts: Vec<String> = groups
            .iter()
            .enumerate()
            .map(|(i, names)| {
                let group = match names.as_slice() {
                    [one] => one.trim_start_matches("boutique.").to_string(),
                    all => format!("{} components", all.len()),
                };
                format!("{group} {}", app.registered_replicas(i as u32))
            })
            .collect();
        counts.join(", ")
    };
    let row = measure(label, frontend, qps, window, replicas);
    app.shutdown();
    row
}

fn flag(args: &[String], name: &str) -> Option<f64> {
    let value = args.get(args.iter().position(|a| a == name)? + 1)?;
    Some(value.parse().unwrap_or_else(|_| {
        eprintln!("{name} takes a number, got {value:?}");
        std::process::exit(2);
    }))
}

fn main() {
    weaver_runtime::proclet::maybe_proclet(&boutique::registry());
    baseline::maybe_service();

    let args: Vec<String> = std::env::args().collect();
    let qps = flag(&args, "--qps").unwrap_or(1_000.0);
    let window = Duration::from_secs_f64(flag(&args, "--seconds").unwrap_or(20.0));
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());

    println!(
        "Table 2, live: Online Boutique at {qps:.0} QPS offered (open loop, default mix), \
         {cpus} host CPUs, {:.0} s warm-up, {:.0} s measured",
        WARM_UP.as_secs_f64(),
        window.as_secs_f64()
    );

    let prototype = multiprocess_row("prototype (weaver)", false, qps, window);
    let baseline = {
        let app = BaselineDeployment::spawn().expect("spawn baseline");
        measure("baseline (grpc-like)", app.frontend(), qps, window, || {
            "one process per service, no autoscaler".into()
        })
    };
    let colocated = multiprocess_row("prototype, all co-located", true, qps, window);
    let rows = [&prototype, &baseline, &colocated];

    println!(
        "{:<26} {:>8} {:>7} {:>6} {:>9} {:>9}",
        "configuration", "QPS", "errors", "cores", "p50 (ms)", "p99 (ms)"
    );
    for row in rows {
        println!(
            "{:<26} {:>8.0} {:>7} {:>6.2} {:>9.2} {:>9.2}",
            row.label,
            row.load.qps(),
            row.load.errors,
            row.cores,
            row.p50_ms(),
            row.p99_ms()
        );
    }
    println!(
        "load generator + frontend stub (this process), cores: {}",
        rows.map(|r| format!("{:.2}", r.parent_cores)).join(" / ")
    );
    println!();
    println!("settled replicas:");
    for row in rows {
        println!("  {}: {}", row.label, row.replicas);
    }

    println!();
    let ratio = |label: &str, ours: f64, paper: &str| {
        println!("{label:<36} {ours:>6.2}x  (paper: {paper})")
    };
    ratio(
        "cores   baseline/prototype",
        baseline.cores / prototype.cores,
        "78/28 = 2.79x",
    );
    ratio(
        "p50     baseline/prototype",
        baseline.p50_ms() / prototype.p50_ms(),
        "5.47/2.66 = 2.06x",
    );
    ratio(
        "cores   baseline/co-located",
        baseline.cores / colocated.cores,
        "78/9 = 8.67x",
    );
    ratio(
        "cores   prototype/co-located",
        prototype.cores / colocated.cores,
        "28/9 = 3.1x",
    );
    ratio(
        "p50     baseline/co-located",
        baseline.p50_ms() / colocated.p50_ms(),
        "5.47/0.38 = 14.4x",
    );

    let errors: u64 = rows.iter().map(|r| r.load.errors).sum();
    if errors > 0 {
        eprintln!("{errors} errors inside the measured windows");
        std::process::exit(1);
    }
}
