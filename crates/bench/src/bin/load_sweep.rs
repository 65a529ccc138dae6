//! Experiment A7: latency vs. offered load.
//!
//! Table 2 reports one operating point (10 kQPS). This sweep draws the
//! full latency/load curve for the three configurations, showing where
//! each saturates. Autoscaling is capped (as any real cluster's quota is),
//! so the hockey-stick appears when offered load exceeds what the capped
//! fleet can serve — and the weaver stack pushes that knee ~3× further
//! right than the gRPC-like stack on the same quota, because each request
//! costs ~3× less CPU.

use weaver_placement::AutoscalerConfig;
use weaver_sim::engine::{run, SimConfig};
use weaver_sim::queue::units;
use weaver_sim::StackModel;

/// Cluster quota: total pods a group may scale to.
const MAX_PODS: u32 = 12;

fn sweep(stack: StackModel, colocate_all: bool, qps: f64) -> weaver_sim::SimReport {
    let mut config = if colocate_all {
        SimConfig::boutique_colocated(qps)
    } else {
        SimConfig::boutique(qps, stack)
    };
    config.duration = 8 * units::S;
    config.warmup = 6 * units::S;
    config.hpa = AutoscalerConfig {
        target_utilization: 0.7,
        max_replicas: MAX_PODS,
        ..Default::default()
    };
    config.initial_pods = config.initial_pods.min(MAX_PODS);
    run(&config)
}

fn main() {
    let loads = [
        500.0, 1_000.0, 2_000.0, 4_000.0, 8_000.0, 16_000.0, 32_000.0,
    ];

    println!("A7: median latency (ms) vs offered QPS, per-group pod quota = {MAX_PODS}");
    println!(
        "{:>8} {:>16} {:>16} {:>16}",
        "QPS", "weaver", "grpc-like", "colocated"
    );
    for &qps in &loads {
        let weaver = sweep(StackModel::weaver(), false, qps);
        let grpc = sweep(StackModel::grpc_like(), false, qps);
        let colocated = sweep(StackModel::colocated(), true, qps);
        // Past saturation the open-loop queue grows without bound; mark it.
        let fmt = |r: &weaver_sim::SimReport| {
            let achieved = r.achieved_qps / r.offered_qps;
            if achieved < 0.95 || r.median_ms() > 1_000.0 {
                "saturated".to_string()
            } else {
                format!("{:.2}", r.median_ms())
            }
        };
        println!(
            "{:>8.0} {:>16} {:>16} {:>16}",
            qps,
            fmt(&weaver),
            fmt(&grpc),
            fmt(&colocated)
        );
    }

    println!();
    println!("cores consumed at each operating point (same sweep):");
    println!(
        "{:>8} {:>16} {:>16} {:>16}",
        "QPS", "weaver", "grpc-like", "colocated"
    );
    for &qps in &loads {
        let weaver = sweep(StackModel::weaver(), false, qps);
        let grpc = sweep(StackModel::grpc_like(), false, qps);
        let colocated = sweep(StackModel::colocated(), true, qps);
        println!(
            "{:>8.0} {:>16.1} {:>16.1} {:>16.1}",
            qps, weaver.mean_cores, grpc.mean_cores, colocated.mean_cores
        );
    }
}
