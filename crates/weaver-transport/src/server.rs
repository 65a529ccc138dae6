//! Server side: reactor-registered listener, poller-thread decode, shared
//! worker pool for handler execution.
//!
//! A server listens on one [`Endpoint`], TCP or unix; everything past the
//! accept is the same for both kinds. The listening socket and every
//! accepted connection live on the shared
//! readiness reactor ([`crate::reactor`]): accepts and frame decode run on
//! its poller thread, and so do response writes, except that on a unix
//! socket a worker finding the poller asleep writes its own reply. Handler
//! execution hops to the bounded worker pool. No threads are created per
//! connection.
//!
//! That hop — a queue push and one futex wake of a parked worker, its
//! run-queue wait, then the reply's way back (on TCP, an enqueue and a
//! flush wake of the poller) — costs more than a small handler does, so the one dispatch path
//! has one branch: a request for which the installed handler answers
//! [`RpcHandler::inline_ok`] runs on the poller thread that decoded it. A
//! handler that panics costs its connection on either branch, never the
//! poller or the worker. The default answer is `false`, because a server cannot know whether
//! an arbitrary handler blocks (closure handlers and the gRPC-like baseline
//! never get the branch); the component runtime can know, and says yes only
//! for a started component that acquired no reference to another one, whose
//! method has measured cheap, and that has no injected fault. A handler
//! that answers yes wrongly and then waits on a call gets an error, not a
//! stalled poller (see [`crate::reactor`]'s dispatch notes).
//!
//! The response path is zero-copy end to end: handlers receive request args
//! as a borrowed slice of the pooled receive buffer and return a
//! [`ResponseBody`] whose payload is a [`crate::buf::WireBuf`]; the framing
//! hands the payload to the per-connection write queue as a borrowed tail
//! (see [`Framing::write_response_parts`]), where the coalescing drain
//! batches back-to-back responses into single syscalls.

use std::marker::PhantomData;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use crate::buf::{BufferPool, WireBuf};
use crate::endpoint::{Endpoint, Listener, ToEndpoint};
use crate::error::TransportError;
use crate::fault::DuplexStream;
use crate::frame::{Framing, Message, RequestHeader, ResponseBody};
use crate::pool::WorkerPool;
use crate::reactor::{ConnDriver, ConnState, InlineScope, OutFrame, Reactor};

/// The server-side request handler installed by the runtime.
///
/// `args` borrows the connection's receive buffer — no copy is made between
/// the socket and the handler. Returns a complete [`ResponseBody`];
/// application errors are encoded into the body rather than surfaced as
/// transport failures.
pub trait RpcHandler: Send + Sync + 'static {
    /// Handles one request.
    fn handle(&self, header: &RequestHeader, args: &[u8]) -> ResponseBody;

    /// Whether [`RpcHandler::handle`] for this request may run on the
    /// reactor's poller thread that decoded it instead of a worker. Say
    /// `true` only when the handler can neither wait on another call nor run
    /// long: the poller serves no other connection of the process meanwhile.
    fn inline_ok(&self, _header: &RequestHeader) -> bool {
        false
    }
}

impl<F> RpcHandler for F
where
    F: Fn(&RequestHeader, &[u8]) -> ResponseBody + Send + Sync + 'static,
{
    fn handle(&self, header: &RequestHeader, args: &[u8]) -> ResponseBody {
        self(header, args)
    }
}

/// A listening RPC server using framing `F`.
pub struct Server<F: Framing> {
    endpoint: Endpoint,
    stop: Arc<AtomicBool>,
    reactor: &'static Arc<Reactor>,
    /// The listener's registration token with the reactor.
    listener_token: u64,
    /// Weak handles to accepted connections, so shutdown can sever them the
    /// way a killed proclet's process exit would.
    conns: Arc<Mutex<Vec<Weak<ConnState>>>>,
    /// Kept alive so `Drop` joins the workers after the listener is gone.
    _workers: Arc<WorkerPool>,
    _marker: PhantomData<F>,
}

impl<F: Framing> Server<F> {
    /// Binds to `addr` (a TCP port 0 takes an ephemeral port) and starts
    /// serving requests on a pool of `workers` threads, using the
    /// process-wide [`BufferPool::global`].
    pub fn bind(
        addr: impl ToEndpoint,
        workers: usize,
        handler: Arc<dyn RpcHandler>,
    ) -> Result<Self, TransportError> {
        Self::bind_with_pool(addr, workers, handler, BufferPool::global().clone())
    }

    /// Like [`Server::bind`] with an explicit buffer pool (tests use a
    /// private pool to observe hit/miss counters in isolation).
    pub fn bind_with_pool(
        addr: impl ToEndpoint,
        workers: usize,
        handler: Arc<dyn RpcHandler>,
        buf_pool: BufferPool,
    ) -> Result<Self, TransportError> {
        let (listener, endpoint) = Listener::bind(addr.to_endpoint()?)?;
        let reactor = Reactor::global()?;
        let pool = WorkerPool::new(workers, "weaver-rpc")
            .map_err(|e| TransportError::Io(format!("worker pool failed to start: {e}")))?;

        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<Weak<ConnState>>>> = Arc::new(Mutex::new(Vec::new()));
        let on_accept: Box<dyn Fn(Box<dyn DuplexStream>) + Send + Sync> = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            let workers = Arc::clone(&pool);
            Box::new(move |stream: Box<dyn DuplexStream>| {
                let driver = Arc::new(ServerDriver::<F> {
                    handler: Arc::clone(&handler),
                    workers: Arc::clone(&workers),
                    buf_pool: buf_pool.clone(),
                    framing: Mutex::new(F::default()),
                });
                let Ok(state) = reactor.register_conn(stream, driver, buf_pool.clone()) else {
                    return;
                };
                {
                    let mut conns = conns.lock();
                    // Dead connections deregister themselves; just drop
                    // the stale weak handles on the next accept.
                    conns.retain(|w| w.strong_count() > 0);
                    conns.push(Arc::downgrade(&state));
                }
                // An accept racing `shutdown` can land after its drain. The
                // flag is set before the drain takes the lock above, so
                // reading it set here means nobody else will sever this
                // connection.
                if stop.load(Ordering::SeqCst) {
                    state.kill();
                }
            })
        };
        let listener_token = reactor.register_listener(listener, on_accept)?;
        Ok(Server {
            endpoint,
            stop,
            reactor,
            listener_token,
            conns,
            _workers: pool,
            _marker: PhantomData,
        })
    }

    /// The bound endpoint (a TCP port 0 resolved to the port the kernel
    /// chose): what callers dial and a proclet registers.
    pub fn endpoint(&self) -> Endpoint {
        self.endpoint
    }

    /// The bound TCP address.
    ///
    /// # Panics
    ///
    /// If the server listens on a unix endpoint: [`Server::endpoint`] names
    /// either kind.
    pub fn local_addr(&self) -> SocketAddr {
        match self.endpoint {
            Endpoint::Tcp(addr) => addr,
            Endpoint::Unix(_) => panic!("{} has no TCP address", self.endpoint),
        }
    }

    /// Stops accepting and severs all live connections, mimicking the abrupt
    /// socket teardown of a killed proclet process.
    pub fn shutdown(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        self.reactor.deregister_listener(self.listener_token);
        for conn in self.conns.lock().drain(..) {
            if let Some(conn) = conn.upgrade() {
                conn.kill();
            }
        }
    }
}

impl<F: Framing> Drop for Server<F> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Protocol logic for one accepted connection: decode on the poller,
/// execute on the worker pool (or in place, when the handler allows it),
/// reply through the connection's coalescing write queue.
struct ServerDriver<F: Framing> {
    handler: Arc<dyn RpcHandler>,
    workers: Arc<WorkerPool>,
    buf_pool: BufferPool,
    framing: Mutex<F>,
}

/// Encodes `body` as the response on `stream` and sends it through the
/// connection's coalescing writer ([`ConnState::send`]).
fn send_response<F: Framing>(
    state: &ConnState,
    buf_pool: &BufferPool,
    stream: u64,
    body: &ResponseBody,
) -> Result<(), TransportError> {
    let mut buf = buf_pool.get(64);
    let tail = F::write_response_parts(&mut buf, stream, body);
    state.send(OutFrame {
        head: buf.freeze(),
        tail,
    })
}

impl<F: Framing> ConnDriver for ServerDriver<F> {
    fn frame_extent(&self, buf: &[u8]) -> Result<Option<usize>, TransportError> {
        F::frame_extent(buf)
    }

    fn on_frame(&self, state: &Arc<ConnState>, frame: WireBuf) -> Result<(), TransportError> {
        // A stateful framing may absorb the frame (HEADERS waiting for its
        // DATA), and a server has no use for a response: nothing to run.
        let msg = self.framing.lock().decode(frame)?;
        let Some(Message::Request {
            stream,
            header,
            args,
        }) = msg
        else {
            return Ok(());
        };
        if self.handler.inline_ok(&header) {
            // A panic must not take the poller (and every connection on
            // it) down with it: it costs this connection instead.
            state.note_inline_dispatch();
            let body = {
                let _scope = InlineScope::enter();
                catch_unwind(AssertUnwindSafe(|| self.handler.handle(&header, &args)))
            }
            .map_err(|_| TransportError::Io("inline handler panicked".into()))?;
            drop(args);
            let _ = send_response::<F>(state, &self.buf_pool, stream, &body);
            return Ok(());
        }
        let handler = Arc::clone(&self.handler);
        let buf_pool = self.buf_pool.clone();
        let conn = Arc::clone(state);
        let queued = self.workers.execute(move || {
            let body = catch_unwind(AssertUnwindSafe(|| handler.handle(&header, &args)));
            // `args` still references the pooled frame; drop it before
            // encoding so a warm pool can reuse it.
            drop(args);
            let Ok(body) = body else {
                // As on the inline branch, a panic costs the connection (its
                // callers fail at once), not the worker.
                conn.kill();
                return;
            };
            let _ = send_response::<F>(&conn, &buf_pool, stream, &body);
        });
        if !queued {
            // Nobody will answer: the error severs the connection, so the
            // caller fails now instead of at its deadline.
            return Err(TransportError::Io("worker pool shut down".into()));
        }
        Ok(())
    }

    fn on_dead(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::Connection;
    use crate::endpoint::test_endpoints;
    use crate::frame::{recv_message, GrpcLikeFraming, Status, WeaverFraming};
    use std::io::{Read as _, Write as _};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    fn echo_handler() -> Arc<dyn RpcHandler> {
        Arc::new(|header: &RequestHeader, args: &[u8]| {
            let mut payload = args.to_vec();
            payload.push(header.method as u8);
            ResponseBody {
                status: Status::Ok,
                payload: payload.into(),
            }
        })
    }

    fn echo_roundtrip<F: Framing>() {
        for kind in test_endpoints() {
            let server = Server::<F>::bind(kind, 2, echo_handler()).unwrap();
            let conn = Connection::<F>::connect(server.endpoint()).unwrap();
            let header = RequestHeader {
                component: 1,
                method: 7,
                version: 1,
                ..Default::default()
            };
            let resp = conn
                .call(&header, &[1, 2, 3], Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(resp.status, Status::Ok, "{kind}");
            assert_eq!(resp.payload, vec![1, 2, 3, 7], "{kind}");
            assert_eq!(conn.in_flight(), 0);
        }
    }

    /// A handler that claims it may run on the poller thread; what it does
    /// there is the wrapped closure's business.
    struct Inline(Arc<dyn RpcHandler>);

    impl RpcHandler for Inline {
        fn handle(&self, header: &RequestHeader, args: &[u8]) -> ResponseBody {
            self.0.handle(header, args)
        }

        fn inline_ok(&self, _: &RequestHeader) -> bool {
            true
        }
    }

    fn ok(payload: Vec<u8>) -> ResponseBody {
        ResponseBody {
            status: Status::Ok,
            payload: payload.into(),
        }
    }

    /// Replies with the name of the thread the handler ran on.
    fn thread_namer(_: &RequestHeader, _: &[u8]) -> ResponseBody {
        ok(std::thread::current()
            .name()
            .unwrap_or("")
            .as_bytes()
            .to_vec())
    }

    #[test]
    fn inline_handlers_run_on_the_poller_and_the_rest_on_workers() {
        let ran_on = |handler: Arc<dyn RpcHandler>| {
            let server = Server::<WeaverFraming>::bind("127.0.0.1:0", 2, handler).unwrap();
            let conn = Connection::<WeaverFraming>::connect(server.local_addr()).unwrap();
            let resp = conn
                .call(&RequestHeader::default(), &[], Some(Duration::from_secs(5)))
                .unwrap();
            String::from_utf8(resp.payload.to_vec()).unwrap()
        };
        let inline_before = crate::reactor_snapshot().map_or(0, |r| r.inline_dispatches);
        let name = ran_on(Arc::new(Inline(Arc::new(thread_namer))));
        assert_eq!(name, "weaver-reactor", "inline ran on {name:?}");
        // The reactor is process-wide and other tests run beside this one,
        // so the counter is only known to have moved by at least this call.
        let inline_after = crate::reactor_snapshot().unwrap().inline_dispatches;
        assert!(inline_after > inline_before);
        let name = ran_on(Arc::new(thread_namer));
        assert!(
            name.starts_with("weaver-rpc-worker-"),
            "default ran on {name:?}"
        );
    }

    #[test]
    fn pipelined_inline_replies_share_a_flush() {
        let server =
            Server::<WeaverFraming>::bind("127.0.0.1:0", 1, Arc::new(Inline(echo_handler())))
                .unwrap();
        let mut peer = TcpStream::connect(server.local_addr()).unwrap();
        peer.set_nodelay(true).unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Eight requests in one segment: the poller decodes and answers all
        // of them in one readiness event, and only then drains its flush
        // queue.
        let mut wire = Vec::new();
        for stream in 1..=8u64 {
            let header = RequestHeader {
                method: stream as u32,
                ..Default::default()
            };
            WeaverFraming::write_request(&mut wire, stream, &header, &[stream as u8; 3]);
        }
        peer.write_all(&wire).unwrap();
        for expect in 1..=8u64 {
            match recv_message(&mut WeaverFraming, &mut peer) {
                Ok(Message::Response { stream, body }) => {
                    assert_eq!(stream, expect, "inline replies keep request order");
                    let b = expect as u8;
                    assert_eq!(&*body.payload, &[b, b, b, b][..]);
                }
                other => panic!("expected a response, got {other:?}"),
            }
        }
        let accepted = server.conns.lock()[0].upgrade().expect("connection alive");
        let (frames, flushes) = accepted.writer_counters();
        assert_eq!(frames, 8);
        assert!(flushes < frames, "{frames} replies took {flushes} writes");
    }

    /// A handler whose `inline_ok` lies: it makes a nested call and waits
    /// for it, two different ways. Each must come back as an error at
    /// once, not stall the poller until the deadline.
    #[test]
    fn blocking_from_an_inline_handler_is_an_error_not_a_hang() {
        let backend = Server::<WeaverFraming>::bind("127.0.0.1:0", 1, echo_handler()).unwrap();
        let nested = Arc::new(Connection::<WeaverFraming>::connect(backend.local_addr()).unwrap());
        let liar = {
            let nested = Arc::clone(&nested);
            move |header: &RequestHeader, _: &[u8]| {
                let wait = Some(Duration::from_secs(30));
                let inner = RequestHeader::default();
                let outcome = match header.method {
                    0 => nested.call(&inner, &[], wait),
                    _ => Connection::call_begin(&nested, &inner, &[])
                        .and_then(|call| call.wait(wait)),
                };
                ok(format!("{outcome:?}").into_bytes())
            }
        };
        let server =
            Server::<WeaverFraming>::bind("127.0.0.1:0", 1, Arc::new(Inline(Arc::new(liar))))
                .unwrap();
        let conn = Connection::<WeaverFraming>::connect(server.local_addr()).unwrap();
        for method in 0..2 {
            let header = RequestHeader {
                method,
                ..Default::default()
            };
            let started = std::time::Instant::now();
            let resp = conn
                .call(&header, &[], Some(Duration::from_secs(5)))
                .expect("the reply beats the deadline");
            assert!(started.elapsed() < Duration::from_secs(2));
            let saw = String::from_utf8(resp.payload.to_vec()).unwrap();
            assert!(
                saw.contains("blocking call from a reactor thread"),
                "method {method}: nested call returned {saw}"
            );
        }
        assert_eq!(nested.in_flight(), 0, "refused calls were abandoned");
        // The same connection still works from a thread that may block.
        nested
            .call(&RequestHeader::default(), &[], Some(Duration::from_secs(5)))
            .unwrap();
    }

    /// On either dispatch branch a panicking handler severs its connection
    /// (the caller fails at once rather than at its deadline) and the thread
    /// that ran it keeps serving: the poller, and the server's one worker.
    #[test]
    fn a_panicking_handler_costs_its_connection_not_its_thread() {
        let panics_on_1 = |header: &RequestHeader, _: &[u8]| {
            assert_ne!(header.method, 1, "injected handler panic");
            ok(vec![])
        };
        let rows: [(&str, Arc<dyn RpcHandler>); 2] = [
            ("inline", Arc::new(Inline(Arc::new(panics_on_1)))),
            ("worker", Arc::new(panics_on_1)),
        ];
        for (row, handler) in rows {
            let server = Server::<WeaverFraming>::bind("127.0.0.1:0", 1, handler).unwrap();
            let doomed = Connection::<WeaverFraming>::connect(server.local_addr()).unwrap();
            let header = RequestHeader {
                method: 1,
                ..Default::default()
            };
            assert_eq!(
                doomed.call(&header, &[], Some(Duration::from_secs(5))),
                Err(TransportError::ConnectionClosed),
                "{row}"
            );
            for _ in 0..8 {
                let conn = Connection::<WeaverFraming>::connect(server.local_addr()).unwrap();
                conn.call(&RequestHeader::default(), &[], Some(Duration::from_secs(5)))
                    .unwrap_or_else(|e| panic!("{row}: the server stopped serving: {e:?}"));
            }
        }
    }

    #[test]
    fn weaver_echo() {
        echo_roundtrip::<WeaverFraming>();
    }

    #[test]
    fn grpc_like_echo() {
        echo_roundtrip::<GrpcLikeFraming>();
    }

    #[test]
    fn concurrent_calls_multiplex() {
        let server = Server::<WeaverFraming>::bind("127.0.0.1:0", 4, echo_handler()).unwrap();
        let conn = Arc::new(Connection::<WeaverFraming>::connect(server.local_addr()).unwrap());
        let threads: Vec<_> = (0..16u8)
            .map(|i| {
                let conn = Arc::clone(&conn);
                std::thread::Builder::new()
                    .name(format!("weaver-test-caller-{i}"))
                    .spawn(move || {
                        let header = RequestHeader {
                            method: u32::from(i),
                            version: 1,
                            ..Default::default()
                        };
                        let resp = conn
                            .call(&header, &[i], Some(Duration::from_secs(5)))
                            .unwrap();
                        assert_eq!(resp.payload, vec![i, i]);
                    })
                    .expect("spawn caller thread")
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn slow_handler_hits_deadline() {
        let handler: Arc<dyn RpcHandler> = Arc::new(|_h: &RequestHeader, _a: &[u8]| {
            std::thread::sleep(Duration::from_millis(500));
            ResponseBody {
                status: Status::Ok,
                payload: vec![].into(),
            }
        });
        let server = Server::<WeaverFraming>::bind("127.0.0.1:0", 1, handler).unwrap();
        let conn = Connection::<WeaverFraming>::connect(server.local_addr()).unwrap();
        let header = RequestHeader::default();
        let err = conn
            .call(&header, &[], Some(Duration::from_millis(20)))
            .unwrap_err();
        assert_eq!(err, TransportError::DeadlineExceeded);
        // The stream is cleaned up; the late response is dropped silently.
        std::thread::sleep(Duration::from_millis(600));
        assert_eq!(conn.in_flight(), 0);
        assert!(!conn.is_dead());
    }

    /// Sixteen calls begun while the poller is busy leave in one write.
    /// The poller is parked in an inline handler of a second server, so all
    /// sixteen frames are queued before it can flush the first of them.
    #[test]
    fn calls_queued_behind_a_busy_poller_share_one_write() {
        let (entered_tx, entered) = std::sync::mpsc::sync_channel::<()>(1);
        let (release, release_rx) = std::sync::mpsc::sync_channel::<()>(1);
        // Handlers are `Sync`; std's channel ends are not.
        let (entered_tx, release_rx) = (Mutex::new(entered_tx), Mutex::new(release_rx));
        let park = move |_: &RequestHeader, _: &[u8]| {
            entered_tx.lock().send(()).unwrap();
            release_rx.lock().recv().unwrap();
            ok(vec![])
        };
        let parking =
            Server::<WeaverFraming>::bind("127.0.0.1:0", 1, Arc::new(Inline(Arc::new(park))))
                .unwrap();
        let parker = Arc::new(Connection::<WeaverFraming>::connect(parking.endpoint()).unwrap());
        let header = RequestHeader::default();
        for kind in test_endpoints() {
            let server = Server::<WeaverFraming>::bind(kind, 2, echo_handler()).unwrap();
            let conn = Arc::new(Connection::<WeaverFraming>::connect(server.endpoint()).unwrap());
            let parked = Connection::call_begin(&parker, &header, &[]).unwrap();
            entered.recv().unwrap();
            let calls: Vec<_> = (0..16u8)
                .map(|i| Connection::call_begin(&conn, &header, &[i]).unwrap())
                .collect();
            release.send(()).unwrap();
            parked.wait(Some(Duration::from_secs(5))).unwrap();
            for (i, call) in calls.into_iter().enumerate() {
                let resp = call.wait(Some(Duration::from_secs(5))).unwrap();
                assert_eq!(resp.payload, vec![i as u8, 0], "{kind}");
            }
            assert_eq!(conn.writer_counters(), (16, 1), "{kind}");
        }
    }

    /// Four callers share one unix connection, so a caller that finds the
    /// poller parked writes its own frame while the others queue behind it
    /// and the writer drains them. Every reply still answers its own
    /// request, and every frame is counted once.
    #[test]
    fn sender_writes_and_queued_writes_interleave_in_order() {
        const THREADS: u8 = 4;
        const CALLS: u16 = 2_000;
        let server =
            Server::<WeaverFraming>::bind(Endpoint::fresh_unix(), 2, echo_handler()).unwrap();
        let conn = Arc::new(Connection::<WeaverFraming>::connect(server.endpoint()).unwrap());
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let conn = &conn;
                s.spawn(move || {
                    let header = RequestHeader {
                        method: u32::from(t),
                        ..Default::default()
                    };
                    for i in 0..CALLS {
                        let [hi, lo] = i.to_be_bytes();
                        let resp = conn
                            .call(&header, &[t, hi, lo], Some(Duration::from_secs(10)))
                            .unwrap();
                        assert_eq!(resp.payload, vec![t, hi, lo, t], "caller {t} call {i}");
                    }
                });
            }
        });
        assert_eq!(conn.in_flight(), 0);
        let calls = u64::from(THREADS) * u64::from(CALLS);
        assert_eq!(conn.writer_counters().0, calls);
    }

    /// `shutdown` severs every accepted connection the way a killed
    /// proclet's exit does: calls in flight fail at once, not at their
    /// deadline or when their handler returns, and leave no pending entry.
    #[test]
    fn server_shutdown_fails_inflight_cleanly() {
        for kind in test_endpoints() {
            let (entered_tx, entered) = std::sync::mpsc::sync_channel::<()>(4);
            let entered_tx = Mutex::new(entered_tx);
            let slow = move |_: &RequestHeader, _: &[u8]| {
                let _ = entered_tx.lock().send(());
                std::thread::sleep(Duration::from_millis(500));
                ok(vec![])
            };
            let server = Server::<WeaverFraming>::bind(kind, 2, Arc::new(slow)).unwrap();
            let conn = Arc::new(Connection::<WeaverFraming>::connect(server.endpoint()).unwrap());
            let calls: Vec<_> = (0..4)
                .map(|_| Connection::call_begin(&conn, &RequestHeader::default(), &[]).unwrap())
                .collect();
            entered.recv().unwrap();
            let started = Instant::now();
            server.shutdown();
            for call in calls {
                assert_eq!(
                    call.wait(Some(Duration::from_secs(10))),
                    Err(TransportError::ConnectionClosed),
                    "{kind}"
                );
            }
            assert!(
                started.elapsed() < Duration::from_millis(400),
                "{kind}: calls waited {:?} for the handler",
                started.elapsed()
            );
            assert_eq!(conn.in_flight(), 0, "{kind}");
            assert!(conn.is_dead(), "{kind}");
        }
    }

    /// A frame of a kind the protocol does not define (the weaver kinds and
    /// HTTP/2 types that once carried cancels and pings among them) kills
    /// the connection it arrived on, and only that one.
    #[test]
    fn a_retired_kind_kills_only_its_own_connection() {
        fn check<F: Framing>(retired: &[u8]) {
            assert!(F::default().decode(retired.to_vec().into()).is_err());
            let server = Server::<F>::bind("127.0.0.1:0", 1, echo_handler()).unwrap();
            let good = Connection::<F>::connect(server.local_addr()).unwrap();
            let mut bad = TcpStream::connect(server.local_addr()).unwrap();
            bad.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            bad.write_all(retired).unwrap();
            let mut byte = [0u8];
            assert!(
                matches!(bad.read(&mut byte), Ok(0) | Err(_)),
                "{}: the connection survived a retired kind",
                F::NAME
            );
            let resp = good
                .call(
                    &RequestHeader::default(),
                    &[5],
                    Some(Duration::from_secs(5)),
                )
                .unwrap();
            assert_eq!(resp.payload, vec![5, 0], "{}", F::NAME);
        }
        for kind in [2u8, 3, 4] {
            let mut frame = 9u32.to_le_bytes().to_vec();
            frame.push(kind);
            frame.extend_from_slice(&1u64.to_le_bytes());
            check::<WeaverFraming>(&frame);
        }
        for ty in [0x3u8, 0x6] {
            // An 8-byte payload on stream 0 or 1: RST_STREAM's error code
            // or PING's opaque data.
            let mut frame = vec![0, 0, 8, ty, 0, 0, 0, 0, 1];
            frame.extend_from_slice(&[0u8; 8]);
            check::<GrpcLikeFraming>(&frame);
        }
    }

    #[test]
    fn unreachable_address_errors() {
        // TEST-NET-1 address, nothing listens there.
        let result = Connection::<WeaverFraming>::connect("127.0.0.1:1");
        assert!(matches!(result, Err(TransportError::Unreachable(_))));
    }
}
