//! Call futures on the multiplexed connection: scatter-gather ordering,
//! abandonment on drop, fail-fast on peer death, and the pending-map
//! leak-window regression (begin racing connection death must never strand
//! an entry).

use std::io::Read;
use std::net::TcpListener;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use weaver_transport::{
    Connection, RequestHeader, ResponseBody, RpcHandler, Server, Status, TransportError,
    WeaverFraming,
};

fn echo() -> Arc<dyn RpcHandler> {
    Arc::new(|_h: &RequestHeader, args: &[u8]| ResponseBody {
        status: Status::Ok,
        payload: args.to_vec().into(),
    })
}

fn sleepy(delay: Duration) -> Arc<dyn RpcHandler> {
    Arc::new(move |_h: &RequestHeader, args: &[u8]| {
        std::thread::sleep(delay);
        ResponseBody {
            status: Status::Ok,
            payload: args.to_vec().into(),
        }
    })
}

/// A peer that accepts connections and reads (discarding) but never
/// replies, then drops every socket when told to — a deterministic
/// "connection severed with calls outstanding".
struct BlackHole {
    addr: std::net::SocketAddr,
    kill: mpsc::Sender<()>,
}

impl BlackHole {
    fn start() -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (kill, dead) = mpsc::channel::<()>();
        std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            sock.set_read_timeout(Some(Duration::from_millis(10))).ok();
            let mut sink = [0u8; 4096];
            loop {
                if dead.try_recv().is_ok() {
                    return; // drops sock -> peer sees EOF/RST
                }
                match sock.read(&mut sink) {
                    Ok(0) => return,
                    Ok(_) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                    Err(e) if e.kind() == std::io::ErrorKind::TimedOut => {}
                    Err(_) => return,
                }
            }
        });
        BlackHole { addr, kill }
    }
}

#[test]
fn concurrent_futures_resolve_regardless_of_wait_order() {
    let server = Server::<WeaverFraming>::bind("127.0.0.1:0", 8, echo()).unwrap();
    let conn = Arc::new(Connection::<WeaverFraming>::connect(server.local_addr()).unwrap());
    let header = RequestHeader::default();

    let mut futures = Vec::new();
    for i in 0..16u8 {
        futures.push(Connection::call_begin(&conn, &header, &[i, i, i]).unwrap());
    }
    // Gather in reverse: stream-id demultiplexing, not FIFO, pairs replies.
    for (i, fut) in futures.into_iter().enumerate().rev() {
        let resp = fut.wait(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(resp.payload, vec![i as u8; 3]);
    }
    assert_eq!(conn.in_flight(), 0, "pending map must drain");
}

#[test]
fn scatter_overlaps_server_side_work() {
    // Four calls at 50ms each: sequential would take >=200ms, overlapped
    // roughly one delay. Generous threshold to stay robust under CI noise.
    let delay = Duration::from_millis(50);
    let server = Server::<WeaverFraming>::bind("127.0.0.1:0", 8, sleepy(delay)).unwrap();
    let conn = Arc::new(Connection::<WeaverFraming>::connect(server.local_addr()).unwrap());
    let header = RequestHeader::default();

    let start = Instant::now();
    let futures: Vec<_> = (0..4u8)
        .map(|i| Connection::call_begin(&conn, &header, &[i]).unwrap())
        .collect();
    for fut in futures {
        fut.wait(Some(Duration::from_secs(5))).unwrap();
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < delay * 3,
        "fan-out did not overlap: {elapsed:?} for 4 x {delay:?} calls"
    );
}

#[test]
fn dropping_a_future_cancels_without_disturbing_siblings() {
    let server = Server::<WeaverFraming>::bind("127.0.0.1:0", 8, echo()).unwrap();
    let conn = Arc::new(Connection::<WeaverFraming>::connect(server.local_addr()).unwrap());
    let header = RequestHeader::default();

    let keep_a = Connection::call_begin(&conn, &header, &[1]).unwrap();
    let dropped = Connection::call_begin(&conn, &header, &[2]).unwrap();
    let keep_b = Connection::call_begin(&conn, &header, &[3]).unwrap();

    drop(dropped); // abandons: pending entry removed, the call still runs
    assert_eq!(
        keep_a.wait(Some(Duration::from_secs(5))).unwrap().payload,
        vec![1]
    );
    assert_eq!(
        keep_b.wait(Some(Duration::from_secs(5))).unwrap().payload,
        vec![3]
    );

    // The dropped call's entry is gone; a late reply for it is discarded by
    // the reader without effect.
    assert_eq!(conn.in_flight(), 0, "drop must remove its pending entry");
    assert!(!conn.is_dead());
}

#[test]
fn peer_death_fails_all_outstanding_futures_fast() {
    let hole = BlackHole::start();
    let conn = Arc::new(Connection::<WeaverFraming>::connect(hole.addr).unwrap());
    let header = RequestHeader::default();

    let futures: Vec<_> = (0..8u8)
        .map(|i| Connection::call_begin(&conn, &header, &[i]).unwrap())
        .collect();
    assert_eq!(conn.in_flight(), 8);

    hole.kill.send(()).unwrap();
    let start = Instant::now();
    for fut in futures {
        // Fail-fast: the reader observes EOF and drains the pending map;
        // nobody sits out a deadline.
        let err = fut.wait(Some(Duration::from_secs(10))).unwrap_err();
        assert_eq!(err, TransportError::ConnectionClosed);
    }
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "futures should fail fast on sever, not wait for deadlines"
    );
    assert_eq!(conn.in_flight(), 0, "sever must not leak pending entries");
    assert!(conn.is_dead());
}

#[test]
fn begin_racing_connection_death_leaks_nothing() {
    // Regression for the pending-map leak window: call_begin inserts its
    // entry, enqueues the frame, and the writer/reader die before the
    // flush. The begin path re-checks the dead flag after enqueue and
    // removes its own entry, so however the race lands the caller gets an
    // error (or a resolved future) and the map ends empty.
    for round in 0..20 {
        let hole = BlackHole::start();
        let conn = Arc::new(Connection::<WeaverFraming>::connect(hole.addr).unwrap());
        let header = RequestHeader::default();

        let killer = {
            let kill = hole.kill.clone();
            std::thread::spawn(move || {
                // Vary the kill timing across rounds to scan the window.
                std::thread::sleep(Duration::from_micros(50 * round));
                let _ = kill.send(());
            })
        };

        let mut live = Vec::new();
        for i in 0..64u8 {
            match Connection::call_begin(&conn, &header, &[i]) {
                Ok(fut) => live.push(fut),
                Err(TransportError::ConnectionClosed) => break,
                Err(other) => panic!("unexpected begin error: {other:?}"),
            }
        }
        killer.join().unwrap();
        for fut in live {
            // Every future started before the death resolves (with an
            // error); none hangs past its deadline.
            let _ = fut.wait(Some(Duration::from_secs(5)));
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while conn.in_flight() != 0 {
            assert!(
                Instant::now() < deadline,
                "round {round}: leaked {} pending entries",
                conn.in_flight()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

#[test]
fn call_begin_on_dead_connection_fails_eagerly() {
    let hole = BlackHole::start();
    let conn = Arc::new(Connection::<WeaverFraming>::connect(hole.addr).unwrap());
    hole.kill.send(()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while !conn.is_dead() {
        assert!(Instant::now() < deadline, "reader never observed the close");
        std::thread::sleep(Duration::from_millis(5));
    }
    match Connection::call_begin(&conn, &RequestHeader::default(), &[1]) {
        Err(err) => assert_eq!(err, TransportError::ConnectionClosed),
        Ok(_) => panic!("call_begin on a dead connection must fail"),
    }
    assert_eq!(conn.in_flight(), 0);
}
