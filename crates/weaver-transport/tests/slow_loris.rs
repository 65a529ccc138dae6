//! Reactor robustness: slow-loris clients and mid-flight teardown.
//!
//! A thread-per-connection server bleeds one (or more) threads per idle
//! half-open socket, so a trickle of bytes from many clients exhausts the
//! thread budget — the classic slow-loris attack. On the shared readiness
//! reactor an idle connection is one epoll interest and a small partial-read
//! buffer: these tests pin that down, and check that killing a server with
//! calls in flight drains every client pending-map entry (no leaked
//! futures).

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use weaver_transport::{
    Connection, RequestHeader, ResponseBody, RpcHandler, Server, Status, WeaverFraming,
};

/// Serializes the tests in this file: thread-count assertions would race
/// against another test's worker pools inside the same test binary.
static SERIAL: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

fn process_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(0)
}

fn echo() -> Arc<dyn RpcHandler> {
    Arc::new(|_h: &RequestHeader, args: &[u8]| ResponseBody {
        status: Status::Ok,
        payload: args.to_vec().into(),
    })
}

/// Binds an echo server with `workers` workers, takes the thread count
/// once the reactor is warm, lets `open` hold connections against it, and
/// asserts the process did not grow threads for them and still answers a
/// fresh client promptly. Whatever `open` returns stays alive throughout.
fn assert_connections_cost_no_threads<H>(
    workers: usize,
    what: &str,
    open: impl FnOnce(SocketAddr) -> H,
) {
    let _guard = SERIAL.lock();
    let server = Server::<WeaverFraming>::bind("127.0.0.1:0", workers, echo()).unwrap();
    let addr = server.local_addr();

    // Warm the reactor (its poller spawns on first registration) before
    // taking the thread baseline.
    let warm = Connection::<WeaverFraming>::connect(addr).unwrap();
    let warmed = warm.call(&RequestHeader::default(), &[], Some(Duration::from_secs(5)));
    assert!(warmed.is_ok(), "warm-up call failed: {warmed:?}");
    std::thread::sleep(Duration::from_millis(50));
    let baseline = process_threads();

    let held = open(addr);
    std::thread::sleep(Duration::from_millis(300));
    let with_held = process_threads();
    assert!(
        with_held <= baseline + 2,
        "{what} grew the thread count {baseline} -> {with_held}; \
         the reactor must absorb them without spawning threads"
    );

    // The server still answers a real client promptly: the held sockets
    // keep no worker and no poller hostage.
    let conn = Connection::<WeaverFraming>::connect(addr).unwrap();
    let header = RequestHeader::default();
    for i in 0..16u8 {
        let resp = conn
            .call(&header, &[i; 32], Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.payload.as_ref(), &[i; 32][..]);
    }
    drop(held);
}

#[test]
fn idle_half_open_connections_consume_no_threads() {
    // 64 slow-loris clients: each sends half a length prefix, then stalls
    // forever holding the socket open.
    assert_connections_cost_no_threads(2, "64 idle half-open connections", |addr| {
        (0..64)
            .map(|_| {
                let mut s = TcpStream::connect(addr).unwrap();
                s.write_all(&[0x20, 0x00]).unwrap();
                s
            })
            .collect::<Vec<_>>()
    });
}

#[test]
fn live_pipelined_connections_consume_no_threads() {
    // Threads must be O(1 + workers), not O(connections), when the
    // connections carry traffic too: 512 live ones, 4 calls in flight on
    // each of a rotating window of 32 until every connection has served.
    const CONNS: usize = 512;
    assert_connections_cost_no_threads(8, "512 live pipelined connections", |addr| {
        let conns: Vec<_> = (0..CONNS)
            .map(|_| Arc::new(Connection::<WeaverFraming>::connect(addr).unwrap()))
            .collect();
        let header = RequestHeader::default();
        for window in conns.chunks(32) {
            let futures: Vec<_> = window
                .iter()
                .flat_map(|conn| (0..4).map(move |_| conn))
                .map(|conn| Connection::call_begin(conn, &header, &[9; 256]).unwrap())
                .collect();
            for fut in futures {
                let resp = fut.wait(Some(Duration::from_secs(10))).unwrap();
                assert_eq!(resp.status, Status::Ok);
            }
        }
        let leaked: usize = conns.iter().map(|c| c.in_flight()).sum();
        assert_eq!(leaked, 0, "pipelined calls left pending-map entries behind");
        conns
    });
}

#[test]
fn server_kill_mid_flight_drains_client_pending_map() {
    let _guard = SERIAL.lock();
    let slow: Arc<dyn RpcHandler> = Arc::new(|_h: &RequestHeader, _a: &[u8]| {
        std::thread::sleep(Duration::from_millis(200));
        ResponseBody {
            status: Status::Ok,
            payload: vec![].into(),
        }
    });
    let server = Server::<WeaverFraming>::bind("127.0.0.1:0", 2, slow).unwrap();
    let conn = Arc::new(Connection::<WeaverFraming>::connect(server.local_addr()).unwrap());
    let header = RequestHeader::default();

    // Scatter calls, then yank the server while they are all in flight —
    // some decoded and executing, some still in socket buffers.
    let futures: Vec<_> = (0..8)
        .map(|_| Connection::call_begin(&conn, &header, &[7; 64]).unwrap())
        .collect();
    assert!(conn.in_flight() > 0);
    server.shutdown();

    for fut in futures {
        // Every future must resolve (with an error) — a leaked pending
        // entry would hang here until the timeout.
        let res = fut.wait(Some(Duration::from_secs(5)));
        assert!(res.is_err(), "call succeeded after server shutdown");
    }
    assert_eq!(
        conn.in_flight(),
        0,
        "pending map leaked entries after connection death"
    );
    assert!(conn.is_dead());
}
