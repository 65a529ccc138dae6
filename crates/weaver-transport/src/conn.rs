//! Client-side connection: one socket (TCP or unix), multiplexed calls.
//!
//! A [`Connection`] owns **no threads**: its socket is registered with the
//! shared readiness reactor ([`crate::reactor`]), whose poller thread
//! reassembles inbound frames (completing the pending call matching each
//! stream id) and drains the coalescing outbound queue — many caller
//! threads pipeline pre-encoded pooled frames, and the connection's writer
//! flushes whatever is queued into one syscall. On a unix socket a caller
//! that finds the queue empty and the poller asleep writes its own request.
//!
//! Request encoding uses buffers recycled through a [`BufferPool`], so the
//! steady-state call path performs no heap allocation for framing.
//!
//! Deadlines are enforced caller-side: a call that times out abandons its
//! stream and returns [`TransportError::DeadlineExceeded`]. The server still
//! runs an abandoned call, and its reply is dropped on arrival.
//! When the socket dies, every in-flight call fails with
//! [`TransportError::ConnectionClosed`], the connection is marked dead so
//! the pool replaces it, and queued frames are dropped rather than written
//! to a dead socket.

use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::buf::{BufferPool, WireBuf};
use crate::endpoint::ToEndpoint;
use crate::error::TransportError;
use crate::fault::DuplexStream;
use crate::frame::{Framing, Message, RequestHeader, ResponseBody};
use crate::reactor::{refuse_blocking_on_reactor, ConnDriver, ConnState, OutFrame, Reactor};

type Reply = Result<ResponseBody, TransportError>;

type PendingMap = Arc<Mutex<HashMap<u64, ReplySender>>>;

/// One call's reply: filled once (by the reactor, or by the connection's
/// death), waited on by the one caller. One lock and one wake per call.
#[derive(Default)]
struct ReplySlot {
    reply: Mutex<Option<Reply>>,
    filled: Condvar,
}

/// The filling half, kept in the pending map. Dropped without sending, it
/// fills [`TransportError::ConnectionClosed`]: the only way to lose a sender
/// is to lose the connection that would have answered.
struct ReplySender(Option<Arc<ReplySlot>>);

impl ReplySender {
    fn send(mut self, reply: Reply) {
        self.fill(reply);
    }

    fn fill(&mut self, reply: Reply) {
        if let Some(slot) = self.0.take() {
            *slot.reply.lock() = Some(reply);
            slot.filled.notify_one();
        }
    }
}

impl Drop for ReplySender {
    fn drop(&mut self) {
        self.fill(Err(TransportError::ConnectionClosed));
    }
}

/// The waiting half, owned by the caller.
struct ReplyReceiver(Arc<ReplySlot>);

impl ReplyReceiver {
    /// Blocks until the reply is filled, or `timeout` elapses (`None` if it
    /// did; a `timeout` of `None` waits indefinitely).
    fn wait(&self, timeout: Option<Duration>) -> Option<Reply> {
        let deadline = timeout.and_then(|t| Instant::now().checked_add(t));
        let mut filled = self.0.reply.lock();
        loop {
            if let Some(reply) = filled.take() {
                return Some(reply);
            }
            match deadline {
                None => self.0.filled.wait(&mut filled),
                Some(d) if Instant::now() < d => {
                    self.0.filled.wait_until(&mut filled, d);
                }
                Some(_) => return None,
            }
        }
    }
}

fn reply_slot() -> (ReplySender, ReplyReceiver) {
    let slot = Arc::new(ReplySlot::default());
    (ReplySender(Some(Arc::clone(&slot))), ReplyReceiver(slot))
}

/// A multiplexing client connection using framing `F`.
pub struct Connection<F: Framing> {
    /// The reactor's handle on the socket: outbound queue and teardown.
    state: Arc<ConnState>,
    pending: PendingMap,
    next_stream: AtomicU64,
    pool: BufferPool,
    _marker: PhantomData<F>,
}

impl<F: Framing> Connection<F> {
    /// Dials `addr` ([`crate::Endpoint::dial`]) and registers the socket
    /// with the reactor, using the process-wide [`BufferPool::global`].
    pub fn connect(addr: impl ToEndpoint) -> Result<Self, TransportError> {
        Self::connect_with_pool(addr, BufferPool::global().clone())
    }

    /// Like [`Connection::connect`] with an explicit buffer pool (tests use
    /// a private pool to observe hit/miss counters in isolation).
    pub fn connect_with_pool(
        addr: impl ToEndpoint,
        pool: BufferPool,
    ) -> Result<Self, TransportError> {
        let endpoint = addr
            .to_endpoint()
            .map_err(|e| TransportError::Unreachable(e.to_string()))?;
        Self::register(endpoint.dial()?, pool)
    }

    /// Builds a connection over any established duplex stream: a
    /// `TcpStream`, a `UnixStream`, or a [`crate::fault::FaultStream`],
    /// which injects deterministic faults underneath the reactor's reads
    /// and writes.
    pub fn from_duplex<S: DuplexStream>(stream: S) -> Result<Self, TransportError> {
        Self::from_duplex_with_pool(stream, BufferPool::global().clone())
    }

    /// [`Connection::from_duplex`] with an explicit buffer pool.
    pub fn from_duplex_with_pool<S: DuplexStream>(
        stream: S,
        pool: BufferPool,
    ) -> Result<Self, TransportError> {
        Self::register(Box::new(stream), pool)
    }

    fn register(stream: Box<dyn DuplexStream>, pool: BufferPool) -> Result<Self, TransportError> {
        let pending: PendingMap = Arc::new(Mutex::new(HashMap::new()));
        let driver = Arc::new(ClientDriver::<F> {
            pending: Arc::clone(&pending),
            framing: Mutex::new(F::default()),
        });
        let state = Reactor::global()?.register_conn(stream, driver, pool.clone())?;
        Ok(Connection {
            state,
            pending,
            next_stream: AtomicU64::new(1),
            pool,
            _marker: PhantomData,
        })
    }

    /// True once the underlying socket has failed; the pool discards such
    /// connections.
    pub fn is_dead(&self) -> bool {
        self.state.is_dead()
    }

    /// Writer-side counters: `(frames sent, syscall flushes)`. The gap
    /// between the two is the coalescing win.
    pub fn writer_counters(&self) -> (u64, u64) {
        self.state.writer_counters()
    }

    /// Enqueues one request and hands back the waiting half of its reply
    /// slot.
    ///
    /// When this returns `Ok` the stream id is registered in the pending map
    /// or its slot already holds the outcome; the caller owns cleanup (via
    /// [`CallFuture`] or the blocking wait in [`Connection::call`]). `Err`
    /// means the request was never queued.
    fn begin(
        &self,
        header: &RequestHeader,
        args: &[u8],
    ) -> Result<(u64, ReplyReceiver), TransportError> {
        if self.is_dead() {
            return Err(TransportError::ConnectionClosed);
        }
        let stream = self.next_stream.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = reply_slot();
        self.pending.lock().insert(stream, tx);

        let mut buf = self.pool.get(64 + args.len());
        F::write_request(&mut buf, stream, header, args);
        if self.state.send(OutFrame::single(buf.freeze())).is_err() {
            self.pending.lock().remove(&stream);
            return Err(TransportError::ConnectionClosed);
        }
        // Close the leak window: connection death drains the pending map
        // *after* setting `dead`, so an entry inserted above may have raced
        // past the drain. Re-checking `dead` (SeqCst) afterwards makes the
        // race benign — if this load reads `false`, the drain had not
        // started when we inserted and will observe our entry; if it reads
        // `true`, we fail our own entry (a no-op when the drain got there
        // first) instead of leaving a stream pending forever. The failure
        // goes through the future, not this function's `Err`: the frame was
        // queued and may have reached the peer before the connection died,
        // so it is an ambiguous in-flight failure, never a begin-time one a
        // caller may retry blindly.
        if self.is_dead() {
            if let Some(tx) = self.pending.lock().remove(&stream) {
                tx.send(Err(TransportError::ConnectionClosed));
            }
        }
        Ok((stream, rx))
    }

    /// Starts one call without waiting: the request is queued to the
    /// coalescing write queue (so a burst of `call_begin`s becomes one
    /// syscall) and the returned [`CallFuture`] resolves when the reactor
    /// completes the matching stream id — or fails fast when the connection
    /// dies, per the dead-flag semantics.
    pub fn call_begin(
        conn: &Arc<Self>,
        header: &RequestHeader,
        args: &[u8],
    ) -> Result<CallFuture<F>, TransportError> {
        let (stream, rx) = conn.begin(header, args)?;
        Ok(CallFuture {
            conn: Arc::clone(conn),
            stream,
            rx,
            done: false,
        })
    }

    /// Performs one call and waits for its response.
    ///
    /// `timeout` of `None` waits indefinitely (used only by tests; real
    /// callers always carry a deadline). Fails without sending when called
    /// from a handler running inline on the reactor poller, which must not
    /// block.
    pub fn call(
        &self,
        header: &RequestHeader,
        args: &[u8],
        timeout: Option<Duration>,
    ) -> Result<ResponseBody, TransportError> {
        refuse_blocking_on_reactor()?;
        let (stream, rx) = self.begin(header, args)?;
        match rx.wait(timeout) {
            Some(result) => result,
            None => self.abandon(stream),
        }
    }

    /// Stops tracking a stream nobody waits for any more; its reply, if
    /// one comes, is dropped on arrival. Returns the error the caller
    /// should surface.
    fn abandon(&self, stream: u64) -> Result<ResponseBody, TransportError> {
        self.pending.lock().remove(&stream);
        if self.is_dead() {
            Err(TransportError::ConnectionClosed)
        } else {
            Err(TransportError::DeadlineExceeded)
        }
    }

    /// Number of calls currently awaiting a response.
    pub fn in_flight(&self) -> usize {
        self.pending.lock().len()
    }
}

impl<F: Framing> Drop for Connection<F> {
    fn drop(&mut self) {
        // Deregister the socket so the poller releases the connection state
        // (fd, buffers, pending map) immediately.
        self.state.kill();
    }
}

/// Client-side protocol logic: resolves responses against the pending map
/// and drains it on death. Runs on the poller thread.
struct ClientDriver<F: Framing> {
    pending: PendingMap,
    framing: Mutex<F>,
}

impl<F: Framing> ConnDriver for ClientDriver<F> {
    fn frame_extent(&self, buf: &[u8]) -> Result<Option<usize>, TransportError> {
        F::frame_extent(buf)
    }

    fn on_frame(&self, _: &Arc<ConnState>, frame: WireBuf) -> Result<(), TransportError> {
        // Clients serve no requests, and a stateful framing may absorb the
        // frame into pairing state: only a response resolves anything.
        let msg = self.framing.lock().decode(frame)?;
        if let Some(Message::Response { stream, body }) = msg {
            // Out of the map before the wake: the woken caller may take the
            // map's lock for its next call at once. A response for an
            // unknown stream was abandoned: drop it.
            let tx = self.pending.lock().remove(&stream);
            if let Some(tx) = tx {
                tx.send(Ok(body));
            }
        }
        Ok(())
    }

    fn on_dead(&self) {
        // Fail everything still in flight. The dead flag was set before
        // this runs, so `begin`'s recheck makes the insert/drain race
        // benign (see the comment there).
        for (_, tx) in self.pending.lock().drain() {
            tx.send(Err(TransportError::ConnectionClosed));
        }
    }
}

/// An in-flight call started with [`Connection::call_begin`].
///
/// The future holds an `Arc` of its connection, so a pooled connection
/// stays alive (and the reactor keeps completing its streams) until the last
/// outstanding future is resolved or dropped — even if the pool has since
/// evicted it. Dropping an unresolved future abandons the call: its
/// pending-map entry goes, so abandoned calls never leak, and a late reply
/// is dropped on arrival.
#[must_use = "an unawaited call future abandons the call when dropped"]
pub struct CallFuture<F: Framing> {
    conn: Arc<Connection<F>>,
    stream: u64,
    rx: ReplyReceiver,
    done: bool,
}

impl<F: Framing> CallFuture<F> {
    /// The connection the call is in flight on.
    pub fn connection(&self) -> &Arc<Connection<F>> {
        &self.conn
    }

    /// Waits for the response. `timeout` of `None` waits indefinitely; on
    /// timeout the stream is abandoned and [`TransportError::DeadlineExceeded`]
    /// is returned (or [`TransportError::ConnectionClosed`] if the socket
    /// died while waiting). From a handler running inline on a reactor
    /// poller the wait is refused and the call abandoned.
    pub fn wait(mut self, timeout: Option<Duration>) -> Result<ResponseBody, TransportError> {
        // Not yet `done`: dropping `self` on this return abandons the stream.
        refuse_blocking_on_reactor()?;
        self.done = true;
        match self.rx.wait(timeout) {
            Some(result) => result,
            None => self.conn.abandon(self.stream),
        }
    }
}

impl<F: Framing> Drop for CallFuture<F> {
    fn drop(&mut self) {
        if !self.done {
            let _ = self.conn.abandon(self.stream);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{recv_message, Status, WeaverFraming};
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};

    const LONG: Duration = Duration::from_secs(10);

    /// A client connection and the raw peer socket it talks to: the test
    /// reads requests and writes replies by hand, so it decides when (and
    /// whether) each reply arrives.
    fn wired() -> (Arc<Connection<WeaverFraming>>, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (peer, _) = listener.accept().unwrap();
        peer.set_read_timeout(Some(LONG)).unwrap();
        (Arc::new(Connection::from_duplex(client).unwrap()), peer)
    }

    /// Reads the next request on the peer and returns its stream id.
    fn read_stream(peer: &mut TcpStream) -> u64 {
        match recv_message(&mut WeaverFraming, peer) {
            Ok(Message::Request { stream, .. }) => stream,
            other => panic!("expected a request, got {other:?}"),
        }
    }

    fn reply(peer: &mut TcpStream, stream: u64, payload: &[u8]) {
        let mut frame = Vec::new();
        let body = ResponseBody {
            status: Status::Ok,
            payload: payload.to_vec().into(),
        };
        WeaverFraming::write_response(&mut frame, stream, &body);
        peer.write_all(&frame).unwrap();
    }

    #[test]
    fn a_sender_dropped_without_sending_reads_as_connection_closed() {
        let (tx, rx) = reply_slot();
        assert!(rx.wait(Some(Duration::ZERO)).is_none());
        drop(tx);
        assert_eq!(rx.wait(None), Some(Err(TransportError::ConnectionClosed)));
    }

    #[test]
    fn a_reply_for_an_abandoned_stream_is_dropped() {
        let (conn, mut peer) = wired();
        let header = RequestHeader::default();
        let abandoned = Connection::call_begin(&conn, &header, &[]).unwrap();
        let first = read_stream(&mut peer);
        drop(abandoned);
        let next = Connection::call_begin(&conn, &header, &[]).unwrap();
        let second = read_stream(&mut peer);
        // The abandoned stream's reply goes first on the wire, so it has
        // been read (and dropped) by the time the second call resolves.
        reply(&mut peer, first, b"nobody waits");
        reply(&mut peer, second, b"mine");
        assert_eq!(&*next.wait(Some(LONG)).unwrap().payload, b"mine");
        assert_eq!(conn.in_flight(), 0);
        assert!(!conn.is_dead());
    }

    #[test]
    fn connection_death_fails_a_blocked_call_at_once() {
        let (conn, mut peer) = wired();
        let started = Instant::now();
        let outcome = std::thread::scope(|s| {
            let caller = s.spawn(|| conn.call(&RequestHeader::default(), &[], Some(LONG)));
            read_stream(&mut peer);
            drop(peer);
            caller.join().unwrap()
        });
        assert_eq!(outcome, Err(TransportError::ConnectionClosed));
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "waited out the deadline"
        );
        assert_eq!(conn.in_flight(), 0);
    }
}
