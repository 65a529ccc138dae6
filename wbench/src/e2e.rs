//! The end-to-end pass: what a user of the deployed boutique would see,
//! with tracing off.

use std::time::Instant;

use crate::loadgen::{Clients, PhaseSummary, WINDOW};
use crate::procstat::tree_cpu_us;
use crate::report::{median, percentile, Metric};
use crate::workloads::{Deployment, Workload, CLIENTS};
use crate::PassOutcome;

/// Deployments per run. Each is set up, measured for its share of the run's
/// windows and stopped, so `setup_s` is a median of five, and a deployment
/// that came up in an unlucky state (which connection landed on which
/// reactor shard is a race) colours a fifth of the windows, not a run.
const DEPLOYMENTS: u32 = 5;

/// Per-window values of the end-to-end metrics.
#[derive(Default)]
struct Windowed {
    qps: Vec<f64>,
    p50_us: Vec<f64>,
    cpu_us_per_req: Vec<f64>,
    samples: u64,
}

impl Windowed {
    /// Appends the windows of a timed phase, given the process tree's CPU
    /// microseconds read at each of its window boundaries. A window the
    /// host all but stalled in (it happens: 376 requests where its
    /// neighbours had 2 000) has no percentile and contributes none.
    fn extend(&mut self, timed: &PhaseSummary, cpu_at_boundary: &[u64]) {
        for (latencies, cpu) in timed.windows.iter().zip(cpu_at_boundary.windows(2)) {
            let completed = latencies.len() as f64;
            self.qps.push(completed / WINDOW.as_secs_f64());
            self.p50_us
                .extend(percentile(latencies, 0.50).map(|ns| f64::from(ns) / 1e3));
            self.cpu_us_per_req
                .push(cpu[1].saturating_sub(cpu[0]) as f64 / completed.max(1.0));
            self.samples += latencies.len() as u64;
        }
    }
}

pub fn run(workload: &Workload, seed: u64, seconds: u32) -> Result<PassOutcome, String> {
    let clients = Clients::start(CLIENTS, seed, &workload.traffic);
    let mut setup_s = Vec::new();
    let mut windowed = Windowed::default();
    let mut outcome = PassOutcome::default();
    for d in 0..DEPLOYMENTS {
        // Every set-up starts from an empty cart model and the start of
        // the clients' sequences, and so does the same work.
        clients.reset();
        let started = Instant::now();
        let deployment = Deployment::deploy(workload.placement)?;
        let warm_started = Instant::now();
        let warm = clients.warm(&deployment.frontend, workload.warmup);
        setup_s.push(started.elapsed().as_secs_f64());
        let warm_qps = warm.attempted as f64 / warm_started.elapsed().as_secs_f64();
        outcome.count(&warm);
        let windows = seconds / DEPLOYMENTS + u32::from(d < seconds % DEPLOYMENTS);
        if windows > 0 {
            // The clients are parked whenever the CPU total is read.
            let mut cpu = Vec::new();
            let timed = clients.timed(&deployment.frontend, windows, warm_qps, false, || {
                cpu.push(tree_cpu_us())
            });
            windowed.extend(&timed, &cpu);
            outcome.count(&timed);
        }
        deployment.stop();
    }
    clients.stop();

    let n = windowed.samples;
    if windowed.p50_us.is_empty() {
        return Err(format!("{n} requests completed: no window has a median"));
    }
    outcome.metrics = vec![
        Metric::new("qps", "1/s", median(&windowed.qps), n),
        Metric::new("p50_us", "us", median(&windowed.p50_us), n),
        Metric::new("cpu_us_per_req", "us", median(&windowed.cpu_us_per_req), n),
        Metric::new("setup_s", "s", median(&setup_s), u64::from(DEPLOYMENTS)),
    ];
    outcome.correct = outcome.failed == 0;
    Ok(outcome)
}
