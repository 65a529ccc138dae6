//! What one serial call costs the process when both of its sockets live in
//! it: voluntary context switches of the `weaver-reactor` poller thread and
//! heap allocations on every thread, per call.
//!
//! One poller owns both the client's and the server's socket, so it writes
//! a request and finds the server's socket readable at its next
//! `epoll_wait` without sleeping; the reply returns the same way. An inline
//! handler therefore costs the poller one park per call (waiting for the
//! next request), and a worker-run one two (the second waits for the
//! worker's reply). The flush path allocates nothing, so the allocations
//! left are the call's own: its reply slot and the shared storage of the
//! frames it encodes and parses, plus the boxed job when a worker runs it.
//!
//! A call to a peer this poller does not serve — over a unix socket, the
//! way a proclet calls another process — costs the poller one park: the
//! caller writes its request itself while the poller sleeps, and the poller
//! wakes only for the reply.
//!
//! This binary holds a single test: the allocator counts every thread, and
//! a second test running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use weaver_transport::{
    Connection, Endpoint, Framing, Message, RequestHeader, ResponseBody, RpcHandler, Server,
    Status, WeaverFraming, WireBuf,
};

/// Counts allocations on all threads: the poller and the workers allocate
/// on a call's behalf, not only the caller.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const WARMUP: u64 = 2_000;
const CALLS: u64 = 20_000;

/// Answers every request with an empty payload, inline on the poller or on
/// a worker as `inline` says.
struct Echo {
    inline: bool,
}

impl RpcHandler for Echo {
    fn handle(&self, _: &RequestHeader, _: &[u8]) -> ResponseBody {
        ResponseBody {
            status: Status::Ok,
            payload: WireBuf::empty(),
        }
    }

    fn inline_ok(&self, _: &RequestHeader) -> bool {
        self.inline
    }
}

/// `voluntary_ctxt_switches` of the process's one `weaver-reactor` thread.
fn reactor_switches() -> u64 {
    let tasks = std::fs::read_dir("/proc/self/task").expect("read /proc/self/task");
    let mut pollers = tasks.filter_map(|task| {
        let dir = task.ok()?.path();
        let comm = std::fs::read_to_string(dir.join("comm")).ok()?;
        (comm.trim_end() == "weaver-reactor").then_some(dir)
    });
    let poller = pollers.next().expect("a weaver-reactor thread runs");
    assert!(pollers.next().is_none(), "more than one poller thread");
    let status = std::fs::read_to_string(poller.join("status")).expect("read status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("status has voluntary_ctxt_switches")
}

/// Per-call `(poller voluntary switches, allocations)` over `CALLS` serial
/// calls after `WARMUP` ones.
fn per_call(kind: Endpoint, inline: bool) -> (f64, f64) {
    let server = Server::<WeaverFraming>::bind(kind, 1, Arc::new(Echo { inline })).unwrap();
    let conn = Connection::<WeaverFraming>::connect(server.endpoint()).unwrap();
    let header = RequestHeader::default();
    let call = || {
        let resp = conn
            .call(&header, &[], Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(resp.status, Status::Ok);
    };
    (0..WARMUP).for_each(|_| call());
    let switches = reactor_switches();
    let allocs = ALLOCS.load(Ordering::Relaxed);
    (0..CALLS).for_each(|_| call());
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs;
    let switches = reactor_switches() - switches;
    (switches as f64 / CALLS as f64, allocs as f64 / CALLS as f64)
}

/// Answers every request read from `peer` with an empty payload, until
/// the other end closes.
fn answer(mut peer: UnixStream) {
    let mut framing = WeaverFraming;
    let mut wire = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut reply = Vec::new();
    loop {
        match peer.read(&mut chunk) {
            Ok(0) | Err(_) => return,
            Ok(n) => wire.extend_from_slice(&chunk[..n]),
        }
        while let Some(extent) = WeaverFraming::frame_extent(&wire).unwrap() {
            if wire.len() < extent {
                break;
            }
            let frame = WireBuf::from(&wire[..extent]);
            wire.drain(..extent);
            if let Some(Message::Request { stream, .. }) = framing.decode(frame).unwrap() {
                let body = ResponseBody {
                    status: Status::Ok,
                    payload: WireBuf::empty(),
                };
                reply.clear();
                WeaverFraming::write_response(&mut reply, stream, &body);
                peer.write_all(&reply).unwrap();
            }
        }
    }
}

/// Per-call poller voluntary switches over `CALLS` serial calls, after
/// `WARMUP` ones, to a raw unix socket that a test thread answers.
fn per_call_to_a_foreign_peer() -> f64 {
    let (ours, theirs) = UnixStream::pair().unwrap();
    let peer = std::thread::spawn(move || answer(theirs));
    let conn = Connection::<WeaverFraming>::from_duplex(ours).unwrap();
    let header = RequestHeader::default();
    let call = || {
        let resp = conn
            .call(&header, &[], Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(resp.status, Status::Ok);
    };
    (0..WARMUP).for_each(|_| call());
    let switches = reactor_switches();
    (0..CALLS).for_each(|_| call());
    let switches = reactor_switches() - switches;
    drop(conn);
    peer.join().unwrap();
    switches as f64 / CALLS as f64
}

#[test]
fn an_in_process_call_costs_one_poller_park_per_thread_hop() {
    let tcp = Endpoint::Tcp(([127, 0, 0, 1], 0).into());
    for kind in [tcp, Endpoint::fresh_unix()] {
        for (inline, max_switches, max_allocs) in [(true, 1.1, 6.1), (false, 2.1, 7.1)] {
            let (switches, allocs) = per_call(kind, inline);
            let row = if inline { "inline" } else { "worker" };
            println!(
                "{kind} {row}: {switches:.2} poller switches, {allocs:.2} allocations per call"
            );
            assert!(
                switches <= max_switches,
                "{kind} {row}: {switches:.2} poller switches per call, bound {max_switches}"
            );
            assert!(
                allocs <= max_allocs,
                "{kind} {row}: {allocs:.2} allocations per call, bound {max_allocs}"
            );
        }
    }
    let switches = per_call_to_a_foreign_peer();
    println!("unix peer in another thread: {switches:.2} poller switches per call");
    assert!(
        switches <= 1.1,
        "unix peer in another thread: {switches:.2} poller switches per call, bound 1.1"
    );
}
