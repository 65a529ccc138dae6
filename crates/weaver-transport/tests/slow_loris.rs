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
use std::net::TcpStream;
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

#[test]
fn idle_half_open_connections_consume_no_threads() {
    let _guard = SERIAL.lock();
    let server = Server::<WeaverFraming>::bind("127.0.0.1:0", 2, echo()).unwrap();
    let addr = server.local_addr();

    // Warm the reactor (shards spawn lazily on first registration) before
    // taking the thread baseline.
    let warm = Connection::<WeaverFraming>::connect(addr).unwrap();
    warm.ping().unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let baseline = process_threads();

    // 64 slow-loris clients: each sends half a length prefix, then stalls
    // forever holding the socket open.
    let mut loris = Vec::new();
    for _ in 0..64 {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&[0x20, 0x00]).unwrap();
        loris.push(s);
    }
    std::thread::sleep(Duration::from_millis(300));
    let with_loris = process_threads();
    assert!(
        with_loris <= baseline + 2,
        "64 idle half-open connections grew the thread count {baseline} -> {with_loris}; \
         the reactor must absorb them without spawning threads"
    );

    // The server still answers a real client promptly: the stalled sockets
    // hold no worker and no poller hostage.
    let conn = Connection::<WeaverFraming>::connect(addr).unwrap();
    let header = RequestHeader::default();
    for i in 0..16u8 {
        let resp = conn
            .call(&header, &[i; 32], Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.payload.as_ref(), &[i; 32][..]);
    }
    drop(loris);
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
