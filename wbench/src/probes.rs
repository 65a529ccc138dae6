//! Probes and the call ladder: serial, timed calls into the crates' public
//! functions, from one thread, on messages captured from the boutique.
//!
//! A probe prices one layer's unit of work with nothing else running, so a
//! change to that layer shows here first and undiluted. Whether it matters
//! is for the end-to-end pass to say. The ladder runs the same three
//! operations in every placement; the difference between adjacent rungs is
//! what dispatch and codec, then the transport, then process separation
//! add to one call.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use boutique::components::{Frontend, ProductCatalog};
use boutique::types::{HomeView, OrderResult};
use weaver_codec::tagged;
use weaver_metrics::{CallGraph, EdgeHandleCache, Histogram};
use weaver_routing::slice::SliceAssignment;
use weaver_runtime::router::RoutingTable;
use weaver_runtime::DedupCache;
use weaver_transport::inproc::InprocNetwork;
use weaver_transport::{
    Connection, Framing, GrpcLikeFraming, RequestHeader, ResponseBody, RpcHandler, Server, Status,
    WeaverFraming, WireBuf,
};

use crate::loadgen::{order_request, untraced, PRODUCTS};
use crate::procstat::TreeSample;
use crate::report::{median, Metric};
use crate::workloads::{Deployment, Placement};

const BATCHES: usize = 5;
const CALL_TIMEOUT: Option<Duration> = Some(Duration::from_secs(5));

/// Nanoseconds per call: the median over five batches of `iters` calls
/// each, after a tenth of a batch to warm up.
fn per_call_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters / 10 {
        f();
    }
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..iters {
                f();
            }
            started.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    median(&batches)
}

fn median_us(mut nanos: Vec<u64>) -> f64 {
    nanos.sort_unstable();
    nanos[nanos.len() / 2] as f64 / 1e3
}

/// One placement's rung of the ladder.
pub struct Rung {
    pub placement: Placement,
    /// `ProductCatalog::get_product`; the baseline hands out no component
    /// reference to call it on.
    pub get_product_ns: Option<f64>,
    pub home_us: f64,
    pub place_order_us: f64,
    /// CPU of the whole process tree per serial `home`.
    pub home_cpu_us: f64,
    /// Eight `get_product` calls in flight at once, gathered.
    pub scatter8_us: Option<f64>,
    pub home: HomeView,
    pub order: OrderResult,
}

/// Deploys `placement` and times its rung: medians of serial calls from
/// this thread, enough of them to take about a second per placement.
pub fn rung(placement: Placement) -> Result<Rung, String> {
    let local = matches!(placement, Placement::Colocated | Placement::Marshaled);
    let (get_batches, homes, orders) = if local {
        (200, 4000, 1500)
    } else {
        (20, 600, 200)
    };
    let deployment = Deployment::deploy(placement)?;
    let frontend: &dyn Frontend = &*deployment.frontend;
    let fail = |what: &str, e: weaver_core::error::WeaverError| {
        format!("ladder {} {what}: {e}", placement.name())
    };
    let user = |i: u32| format!("ladder-{i}");

    let catalog = deployment.catalog();
    let get_product = |catalog: &Arc<dyn ProductCatalog>| {
        catalog.get_product(&untraced(Instant::now()), PRODUCTS[0].to_string())
    };
    let mut get_product_ns = None;
    let mut scatter8_us = None;
    if let Some(catalog) = &catalog {
        get_product(catalog).map_err(|e| fail("get_product", e))?;
        // Batches of a hundred: two clock reads would be a third of a
        // colocated call.
        let batches: Vec<f64> = (0..get_batches)
            .map(|_| {
                let started = Instant::now();
                for _ in 0..100 {
                    black_box(get_product(catalog)).ok();
                }
                started.elapsed().as_nanos() as f64 / 100.0
            })
            .collect();
        get_product_ns = Some(median(&batches));
        if placement == Placement::Tcp {
            let scatter = || {
                let ctx = untraced(Instant::now());
                weaver_core::fanout::join_all(
                    PRODUCTS[..8]
                        .iter()
                        .map(|id| catalog.get_product_start(&ctx, id.to_string()))
                        .collect(),
                )
            };
            scatter().map_err(|e| fail("scatter", e))?;
            scatter8_us = Some(per_call_ns(100, || drop(black_box(scatter()))) / 1e3);
        }
    }

    let home = |i: u32| frontend.home(&untraced(Instant::now()), user(i % 64), "EUR".into());
    for i in 0..50 {
        home(i).map_err(|e| fail("home", e))?;
    }
    let before = TreeSample::read();
    let mut home_ns = Vec::with_capacity(homes as usize);
    let mut view = HomeView::default();
    for i in 0..homes {
        let started = Instant::now();
        view = home(i).map_err(|e| fail("home", e))?;
        home_ns.push(started.elapsed().as_nanos() as u64);
    }
    let home_cpu_us =
        (TreeSample::read().run_ns() - before.run_ns()) as f64 / 1e3 / f64::from(homes);

    let mut order_ns = Vec::with_capacity(orders as usize);
    let mut order = OrderResult::default();
    for i in 0..orders {
        let ctx = untraced(Instant::now());
        frontend
            .add_to_cart(&ctx, user(i), PRODUCTS[(i % 9) as usize].to_string(), 2)
            .map_err(|e| fail("add_to_cart", e))?;
        let request = order_request(user(i), "EUR");
        let started = Instant::now();
        order = frontend
            .place_order(&ctx, request)
            .map_err(|e| fail("place_order", e))?;
        order_ns.push(started.elapsed().as_nanos() as u64);
    }
    deployment.stop();
    Ok(Rung {
        placement,
        get_product_ns,
        home_us: median_us(home_ns),
        place_order_us: median_us(order_ns),
        home_cpu_us,
        scatter8_us,
        home: view,
        order,
    })
}

fn echo(response_bytes: usize) -> Arc<dyn RpcHandler> {
    let payload: WireBuf = vec![7u8; response_bytes].into();
    Arc::new(move |_: &RequestHeader, _: &[u8]| ResponseBody {
        status: Status::Ok,
        payload: payload.clone(),
    })
}

fn header() -> RequestHeader {
    RequestHeader {
        component: 3,
        method: 1,
        version: 1,
        deadline_nanos: 5_000_000_000,
        trace_id: 0,
        span_id: 0,
        routing: None,
        idempotency: None,
        attempt: 0,
    }
}

/// Microseconds per blocking echo round trip over loopback.
fn rtt_us<F: Framing>(response_bytes: usize, iters: u32) -> Result<f64, String> {
    let server = Server::<F>::bind("127.0.0.1:0", 2, echo(response_bytes))
        .map_err(|e| format!("probe server: {e}"))?;
    let conn =
        Connection::<F>::connect(server.local_addr()).map_err(|e| format!("probe dial: {e}"))?;
    let (h, request) = (header(), [1u8; 128]);
    conn.call(&h, &request, CALL_TIMEOUT)
        .map_err(|e| format!("probe call: {e}"))?;
    Ok(per_call_ns(iters, || {
        drop(black_box(conn.call(&h, &request, CALL_TIMEOUT)))
    }) / 1e3)
}

/// Every probe. `home` and `order` are replies captured from the boutique.
pub fn probes(home: &HomeView, order: &OrderResult) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    let mut push = |name: &str, unit: &'static str, value: f64, iters: u32| {
        out.push(Metric::new(
            name,
            unit,
            value,
            u64::from(iters) * BATCHES as u64,
        ));
    };

    // weaver-codec: the non-versioned format the runtime uses, and the
    // tagged format the baseline uses, on the same reply.
    let home_wire = weaver_codec::encode_to_vec(home);
    let order_wire = weaver_codec::encode_to_vec(order);
    let home_tagged = tagged::encode_message(home);
    let n = 2000;
    push(
        "codec.encode_ns.home",
        "ns",
        per_call_ns(n, || {
            drop(black_box(weaver_codec::encode_to_vec(black_box(home))))
        }),
        n,
    );
    push(
        "codec.decode_ns.home",
        "ns",
        per_call_ns(n, || {
            black_box(weaver_codec::decode_from_slice::<HomeView>(black_box(
                &home_wire,
            )))
            .ok();
        }),
        n,
    );
    push("codec.bytes.home", "bytes", home_wire.len() as f64, 1);
    push(
        "codec.encode_ns.order",
        "ns",
        per_call_ns(n, || {
            drop(black_box(weaver_codec::encode_to_vec(black_box(order))))
        }),
        n,
    );
    push(
        "codec.decode_ns.order",
        "ns",
        per_call_ns(n, || {
            black_box(weaver_codec::decode_from_slice::<OrderResult>(black_box(
                &order_wire,
            )))
            .ok();
        }),
        n,
    );
    push(
        "codec.tagged_encode_ns.home",
        "ns",
        per_call_ns(n, || {
            drop(black_box(tagged::encode_message(black_box(home))))
        }),
        n,
    );
    push(
        "codec.tagged_decode_ns.home",
        "ns",
        per_call_ns(n, || {
            black_box(tagged::decode_message::<HomeView>(black_box(&home_tagged))).ok();
        }),
        n,
    );
    push(
        "codec.tagged_bytes.home",
        "bytes",
        home_tagged.len() as f64,
        1,
    );

    // weaver-transport: framing alone, then round trips.
    let (h, args) = (header(), [0u8; 256]);
    let mut frame = Vec::with_capacity(1024);
    let n = 20_000;
    push(
        "transport.encode_frame_ns",
        "ns",
        per_call_ns(n, || {
            frame.clear();
            WeaverFraming::write_request(&mut frame, 1, black_box(&h), &args);
            black_box(&frame);
        }),
        n,
    );
    push(
        "transport.grpc_encode_frame_ns",
        "ns",
        per_call_ns(n, || {
            frame.clear();
            GrpcLikeFraming::write_request(&mut frame, 1, black_box(&h), &args);
            black_box(&frame);
        }),
        n,
    );
    let net = InprocNetwork::new();
    net.register("echo", echo(128));
    let n = 5000;
    push(
        "transport.inproc_rtt_ns",
        "ns",
        per_call_ns(n, || {
            drop(black_box(net.call("echo", &h, &args[..128], None)))
        }),
        n,
    );
    push(
        "transport.tcp_rtt_us.128",
        "us",
        rtt_us::<WeaverFraming>(128, 400)?,
        400,
    );
    push(
        "transport.tcp_rtt_us.16k",
        "us",
        rtt_us::<WeaverFraming>(16 << 10, 200)?,
        200,
    );
    push(
        "transport.grpc_rtt_us.128",
        "us",
        rtt_us::<GrpcLikeFraming>(128, 400)?,
        400,
    );

    // Sixteen calls in flight on one connection: how many frames the writer
    // coalesces into one syscall, and what that buys.
    let server = Server::<WeaverFraming>::bind("127.0.0.1:0", 4, echo(128))
        .map_err(|e| format!("probe server: {e}"))?;
    let conn = Arc::new(
        Connection::<WeaverFraming>::connect(server.local_addr())
            .map_err(|e| format!("probe dial: {e}"))?,
    );
    let (frames_before, flushes_before) = conn.writer_counters();
    let rounds = 50;
    let round_ns = per_call_ns(rounds, || {
        let calls: Vec<_> = (0..16)
            .filter_map(|_| Connection::call_begin(&conn, &h, &args[..64]).ok())
            .collect();
        for call in calls {
            black_box(call.wait(CALL_TIMEOUT)).ok();
        }
    });
    let (frames, flushes) = conn.writer_counters();
    push(
        "transport.pipelined_frames_per_syscall",
        "count",
        (frames - frames_before) as f64 / (flushes - flushes_before).max(1) as f64,
        rounds * 16,
    );
    push(
        "transport.pipelined_calls_per_s",
        "1/s",
        16.0 * 1e9 / round_ns,
        rounds * 16,
    );

    // weaver-routing and weaver-runtime: what a routed, keyed call pays
    // before it reaches a socket.
    let keys: Vec<u64> = (0..256)
        .map(|u| weaver_core::routing_key(&format!("user-0-{u}")))
        .collect();
    let mut next = 0usize;
    let mut key = move || {
        next = (next + 1) % keys.len();
        keys[next]
    };
    let assignment = SliceAssignment::uniform(2, 8);
    let n = 100_000;
    push(
        "routing.replica_for_ns",
        "ns",
        per_call_ns(n, || {
            black_box(assignment.replica_for(black_box(key())));
        }),
        n,
    );
    let table = RoutingTable::new();
    let deadline = Instant::now() + Duration::from_secs(3600);
    let n = 20_000;
    push(
        "runtime.gate_admit_release_ns",
        "ns",
        per_call_ns(n, || {
            let k = key();
            if table.admit(7, k, deadline).is_ok() {
                table.release(7, k);
            }
        }),
        n,
    );
    let dedup = DedupCache::new();
    let reply = ResponseBody {
        status: Status::Ok,
        payload: vec![7u8; 64].into(),
    };
    let keyed = |k: u64| RequestHeader {
        idempotency: Some(k),
        ..header()
    };
    for k in 0..512 {
        dedup.record(&keyed(k), &reply);
    }
    let mut k = 0;
    push(
        "runtime.dedup_lookup_ns",
        "ns",
        per_call_ns(n, || {
            k = (k + 1) % 512;
            black_box(dedup.replay(&keyed(k)));
        }),
        n,
    );

    // weaver-metrics: a colocated request records about six of these.
    let histogram = Histogram::new();
    let mut value = 0u64;
    let n = 200_000;
    push(
        "metrics.histogram_record_ns",
        "ns",
        per_call_ns(n, || {
            value = value
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            histogram.record(black_box(value >> 44));
        }),
        n,
    );
    let (graph, cache) = (CallGraph::new(), EdgeHandleCache::new());
    let n = 100_000;
    push(
        "metrics.callgraph_record_ns",
        "ns",
        per_call_ns(n, || {
            cache
                .handle(
                    &graph,
                    "boutique.Frontend",
                    2,
                    "boutique.ProductCatalog",
                    1,
                    "get_product",
                )
                .record(64, 256, 1000, false);
        }),
        n,
    );
    Ok(out)
}
