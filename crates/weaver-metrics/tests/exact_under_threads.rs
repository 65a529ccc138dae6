//! Striped recording loses nothing: samples recorded by several threads at
//! once snapshot to exactly what one thread recording them in turn gives.

use std::sync::Arc;

use weaver_metrics::{CallEdge, CallGraph, Histogram};

const THREADS: u64 = 4;
const RECORDS: u64 = 10_000;

/// Thread `t`'s `i`-th sample: spread over many magnitudes, so many chunks
/// of many stripes are touched.
fn sample(t: u64, i: u64) -> (u64, usize, usize, bool) {
    let mut z = (t << 32 | i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z ^= z >> 29;
    let latency = (z >> 20) >> (z % 44);
    (
        latency,
        (z % 997) as usize,
        (z % 4093) as usize,
        z.is_multiple_of(7),
    )
}

#[test]
fn concurrent_records_sum_exactly() {
    let histogram = Arc::new(Histogram::new());
    let graph = CallGraph::new();
    let edge = CallEdge {
        caller: "a".into(),
        callee: "b".into(),
        method: "m".into(),
    };
    let cell = graph.handle(&edge);
    let threads: Vec<_> = (0..THREADS)
        .map(|t| {
            let (histogram, cell) = (Arc::clone(&histogram), Arc::clone(&cell));
            std::thread::spawn(move || {
                for i in 0..RECORDS {
                    let (latency, req, resp, err) = sample(t, i);
                    histogram.record(latency);
                    cell.record(req, resp, latency, err);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    let sequential = Histogram::new();
    let (mut calls, mut req_bytes, mut resp_bytes, mut errors) = (0, 0, 0, 0);
    for t in 0..THREADS {
        for i in 0..RECORDS {
            let (latency, req, resp, err) = sample(t, i);
            sequential.record(latency);
            calls += 1;
            req_bytes += req as u64;
            resp_bytes += resp as u64;
            errors += u64::from(err);
        }
    }
    let expected = sequential.snapshot();
    assert_eq!(expected.count, THREADS * RECORDS);
    assert!(expected.buckets.len() > 100, "samples span few buckets");

    // count, sum, max and every bucket.
    assert_eq!(histogram.snapshot(), expected);
    assert_eq!(histogram.count(), THREADS * RECORDS);
    assert_eq!(histogram.sum(), expected.sum);

    let snapshot = graph.snapshot();
    assert_eq!(snapshot.edges.len(), 1);
    let stats = &snapshot.edges[0].1;
    assert_eq!(stats.calls, calls);
    assert_eq!(stats.request_bytes, req_bytes);
    assert_eq!(stats.response_bytes, resp_bytes);
    assert_eq!(stats.errors, errors);
    assert_eq!(stats.latency_nanos, expected.sum);
}
