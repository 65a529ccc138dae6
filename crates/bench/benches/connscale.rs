//! Connection-scale rung: C open connections × K in-flight calls each.
//!
//! The paper's runtime-managed deployment model assumes one proclet process
//! can serve planet-scale traffic; a transport that spends two OS threads
//! per connection caps concurrency at thread-pool scale long before the
//! hardware runs out. This bench opens C ∈ {8, 64, 512} client connections
//! against one server and drives K concurrent calls over a rotating window
//! of them, reporting throughput *and* the process thread count at each
//! rung — the number that distinguishes a shared readiness reactor
//! (threads O(shards + workers)) from thread-per-connection
//! (threads O(connections)).
//!
//! Assertion: with 512 connections open the process must hold at most
//! `16 + workers` threads.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use weaver_transport::{
    Connection, RequestHeader, ResponseBody, RpcHandler, Server, Status, WeaverFraming,
};

/// Worker threads on the bench server.
const WORKERS: usize = 8;

/// In-flight calls per connection in the active window.
const IN_FLIGHT: usize = 4;

/// Connections driven per iteration (cycling through all C so every
/// connection stays warm, not just a favoured few).
const WINDOW: usize = 32;

fn echo_handler() -> Arc<dyn RpcHandler> {
    Arc::new(|_h: &RequestHeader, args: &[u8]| ResponseBody {
        status: Status::Ok,
        payload: args.to_vec().into(),
    })
}

fn header() -> RequestHeader {
    RequestHeader {
        component: 1,
        method: 2,
        version: 1,
        ..Default::default()
    }
}

/// Threads in this process right now (Linux); 0 where unknown.
fn process_threads() -> usize {
    #[cfg(target_os = "linux")]
    {
        std::fs::read_dir("/proc/self/task")
            .map(|d| d.count())
            .unwrap_or(0)
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

fn bench_connscale(c: &mut Criterion) {
    let mut group = c.benchmark_group("connscale");
    group.sample_size(15);

    let server = Server::<WeaverFraming>::bind("127.0.0.1:0", WORKERS, echo_handler())
        .expect("bind connscale server");
    let h = header();
    let args = vec![9u8; 256];
    let baseline_threads = process_threads();

    let mut conns: Vec<Arc<Connection<WeaverFraming>>> = Vec::new();
    for &target in &[8usize, 64, 512] {
        while conns.len() < target {
            conns.push(Arc::new(
                Connection::<WeaverFraming>::connect(server.local_addr()).expect("connect"),
            ));
        }
        let threads = process_threads();
        println!(
            "connscale: {target} connections open, {threads} process threads \
             (baseline before connecting: {baseline_threads})"
        );

        let window = WINDOW.min(target);
        let mut cursor = 0usize;
        group.throughput(Throughput::Elements((window * IN_FLIGHT) as u64));
        group.bench_function(BenchmarkId::new("conns", target), |b| {
            b.iter(|| {
                let mut futures = Vec::with_capacity(window * IN_FLIGHT);
                for _ in 0..window {
                    let conn = &conns[cursor % conns.len()];
                    cursor += 1;
                    for _ in 0..IN_FLIGHT {
                        futures.push(Connection::call_begin(conn, &h, &args).expect("call_begin"));
                    }
                }
                for fut in futures {
                    let resp = fut.wait(Some(Duration::from_secs(10))).expect("wait");
                    assert_eq!(resp.status, Status::Ok);
                }
            })
        });
    }
    group.finish();

    // The tentpole's thread-count contract: O(shards + workers), not
    // O(connections). 16 covers the reactor shards, the accept machinery,
    // the main thread, and slack for the test runner.
    let threads = process_threads();
    println!("connscale: final thread count with 512 connections: {threads}");
    if threads > 0 {
        assert!(
            threads <= 16 + WORKERS,
            "thread count must stay O(shards + workers): {threads} threads \
             with 512 connections (bound {})",
            16 + WORKERS
        );
    }

    // No call may leak a pending-map entry, however many connections the
    // rung cycled through.
    let leaked: usize = conns.iter().map(|c| c.in_flight()).sum();
    assert_eq!(leaked, 0, "connscale left pending-map entries behind");
    drop(conns);
    drop(server);
}

fn quick() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(15)
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_connscale
}
criterion_main!(benches);
