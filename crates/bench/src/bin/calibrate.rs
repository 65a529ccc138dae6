//! Measures this machine's codec and transport costs — the numbers behind
//! the simulator's `StackModel` presets.
//!
//! Prints per-byte encode/decode costs for the three formats, wire sizes
//! for a representative boutique message, and loopback RPC round-trips for
//! both framings. The *ratios* between stacks feed the simulator; absolute
//! cloud costs (TLS, CNI overlays, noisy neighbors) are necessarily larger
//! than loopback and are anchored to the paper's own aggregates (see
//! DESIGN.md §2).

use std::sync::Arc;
use std::time::{Duration, Instant};

use boutique::types::{Money, Product};
use weaver_codec::json::ToJson;
use weaver_codec::prelude::*;
use weaver_codec::tagged;
use weaver_transport::{
    Connection, GrpcLikeFraming, RequestHeader, ResponseBody, RpcHandler, Server, Status,
    WeaverFraming,
};

fn sample_product() -> Product {
    Product {
        id: "OLJCESPC7Z".into(),
        name: "Sunglasses".into(),
        description: "Add a modern touch to your outfits with these sleek aviator sunglasses."
            .into(),
        picture: "/static/img/products/sunglasses.jpg".into(),
        price: Money::new("USD", 19, 990_000_000),
        categories: vec!["accessories".into()],
    }
}

fn time_per_op(iterations: u32, mut op: impl FnMut()) -> Duration {
    // Warm up.
    for _ in 0..iterations / 10 {
        op();
    }
    let start = Instant::now();
    for _ in 0..iterations {
        op();
    }
    start.elapsed() / iterations
}

fn main() {
    let catalog: Vec<Product> = (0..12).map(|_| sample_product()).collect();
    let iterations = 20_000u32;

    println!("calibration: codec costs for a 12-product catalog response");
    println!(
        "{:<14} {:>10} {:>14} {:>14}",
        "format", "bytes", "encode (µs)", "decode (µs)"
    );

    // Non-versioned.
    let wire_bytes = encode_to_vec(&catalog);
    let enc = time_per_op(iterations, || {
        std::hint::black_box(encode_to_vec(&catalog));
    });
    let dec = time_per_op(iterations, || {
        std::hint::black_box(decode_from_slice::<Vec<Product>>(&wire_bytes).unwrap());
    });
    println!(
        "{:<14} {:>10} {:>14.2} {:>14.2}",
        "weaver",
        wire_bytes.len(),
        enc.as_secs_f64() * 1e6,
        dec.as_secs_f64() * 1e6
    );

    // Tagged (protobuf-shaped). Vec<Product> is a repeated field: wrap.
    #[derive(weaver_macros::TaggedData)]
    struct CatalogMsg {
        products: Vec<Product>,
    }
    let msg = CatalogMsg {
        products: catalog.clone(),
    };
    let tag_bytes = tagged::encode_message(&msg);
    let enc = time_per_op(iterations, || {
        std::hint::black_box(tagged::encode_message(&msg));
    });
    let dec = time_per_op(iterations, || {
        std::hint::black_box(tagged::decode_message::<CatalogMsg>(&tag_bytes).unwrap());
    });
    println!(
        "{:<14} {:>10} {:>14.2} {:>14.2}",
        "tagged",
        tag_bytes.len(),
        enc.as_secs_f64() * 1e6,
        dec.as_secs_f64() * 1e6
    );

    // JSON.
    let json_text = catalog.to_json_string();
    let enc = time_per_op(iterations, || {
        std::hint::black_box(catalog.to_json_string());
    });
    let dec = time_per_op(iterations, || {
        std::hint::black_box(
            <Vec<Product> as weaver_codec::json::FromJson>::from_json_str(&json_text).unwrap(),
        );
    });
    println!(
        "{:<14} {:>10} {:>14.2} {:>14.2}",
        "json",
        json_text.len(),
        enc.as_secs_f64() * 1e6,
        dec.as_secs_f64() * 1e6
    );

    // Transport round trips over loopback.
    println!();
    println!("calibration: loopback RPC round-trip (4 KiB response)");
    let handler: Arc<dyn RpcHandler> = Arc::new(|_h: &RequestHeader, _a: &[u8]| ResponseBody {
        status: Status::Ok,
        payload: vec![7u8; 4096].into(),
    });

    let weaver_server =
        Server::<WeaverFraming>::bind("127.0.0.1:0", 2, Arc::clone(&handler)).expect("bind");
    let conn = Connection::<WeaverFraming>::connect(weaver_server.local_addr()).expect("connect");
    let header = RequestHeader {
        version: 1,
        ..Default::default()
    };
    let rtt = time_per_op(5_000, || {
        conn.call(&header, &[0u8; 128], Some(Duration::from_secs(5)))
            .expect("call");
    });
    println!("  weaver framing:    {:>8.1} µs", rtt.as_secs_f64() * 1e6);

    let grpc_server = Server::<GrpcLikeFraming>::bind("127.0.0.1:0", 2, handler).expect("bind");
    let conn = Connection::<GrpcLikeFraming>::connect(grpc_server.local_addr()).expect("connect");
    let rtt_grpc = time_per_op(5_000, || {
        conn.call(&header, &[0u8; 128], Some(Duration::from_secs(5)))
            .expect("call");
    });
    println!(
        "  grpc-like framing: {:>8.1} µs  ({:.2}x weaver)",
        rtt_grpc.as_secs_f64() * 1e6,
        rtt_grpc.as_secs_f64() / rtt.as_secs_f64()
    );
}
