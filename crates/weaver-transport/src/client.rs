//! Connection pooling: one persistent connection per remote proclet.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::conn::{CallFuture, Connection};
use crate::endpoint::Endpoint;
use crate::error::TransportError;
use crate::frame::{Framing, RequestHeader, ResponseBody};
use crate::reactor::refuse_blocking_on_reactor;

/// How a [`Pool`] establishes a connection to an endpoint. The default
/// dials the endpoint's own kind; tests substitute a dialer that wraps the
/// socket in a fault-injecting shim (see [`crate::fault::FaultStream`]).
pub type Dialer<F> = Arc<dyn Fn(Endpoint) -> Result<Connection<F>, TransportError> + Send + Sync>;

/// A pool of client connections keyed by endpoint.
///
/// The paper's data plane is proclet-to-proclet over persistent connections
/// ("the runtime implements the control plane but not the data plane;
/// proclets communicate directly with one another"). The pool keeps one
/// multiplexed connection per peer, replacing it transparently when it dies.
pub struct Pool<F: Framing> {
    conns: Mutex<HashMap<Endpoint, Arc<Connection<F>>>>,
    dialer: Dialer<F>,
}

impl<F: Framing> Default for Pool<F> {
    fn default() -> Self {
        Self::new()
    }
}

impl<F: Framing> Pool<F> {
    /// Creates an empty pool dialing each endpoint's own kind.
    pub fn new() -> Self {
        Self::with_dialer(Arc::new(|endpoint: Endpoint| {
            Connection::<F>::connect(endpoint)
        }))
    }

    /// Creates an empty pool with a custom dialer (e.g. one that wraps every
    /// socket in a [`crate::fault::FaultStream`]).
    pub fn with_dialer(dialer: Dialer<F>) -> Self {
        Pool {
            conns: Mutex::new(HashMap::new()),
            dialer,
        }
    }

    /// Returns a live connection to `endpoint`, dialing if necessary.
    ///
    /// The dial runs outside the pool's lock: a peer slow to accept (a full
    /// listen backlog is when an overloaded peer is slowest) stalls only
    /// the calls to that peer. When two dials race, the first to finish is
    /// kept and the other dropped.
    pub fn get(&self, endpoint: Endpoint) -> Result<Arc<Connection<F>>, TransportError> {
        if let Some(conn) = self.live(endpoint) {
            return Ok(conn);
        }
        let dialed = Arc::new((self.dialer)(endpoint)?);
        let mut conns = self.conns.lock();
        match conns.get(&endpoint) {
            Some(conn) if !conn.is_dead() => Ok(Arc::clone(conn)),
            _ => {
                conns.insert(endpoint, Arc::clone(&dialed));
                Ok(dialed)
            }
        }
    }

    /// The cached connection to `endpoint`, if it is alive.
    fn live(&self, endpoint: Endpoint) -> Option<Arc<Connection<F>>> {
        self.conns
            .lock()
            .get(&endpoint)
            .filter(|conn| !conn.is_dead())
            .map(Arc::clone)
    }

    /// Calls `endpoint` and waits for the reply: [`Pool::call_begin`], then
    /// [`CallFuture::wait`]. A request is sent at most once. A connection
    /// that dies after the request was queued fails the call with
    /// [`TransportError::ConnectionClosed`], because the peer may have run
    /// it; whether to re-send is the caller's decision. Refused, without
    /// sending, from a handler running inline on the reactor poller.
    pub fn call(
        &self,
        endpoint: Endpoint,
        header: &RequestHeader,
        args: &[u8],
        timeout: Option<Duration>,
    ) -> Result<ResponseBody, TransportError> {
        refuse_blocking_on_reactor()?;
        self.call_begin(endpoint, header, args)?.wait(timeout)
    }

    /// Starts a call to `endpoint` without waiting, retrying once through a
    /// fresh connection if the cached one is already dead at begin time
    /// (the request was never queued, so the retry cannot run it twice).
    ///
    /// The returned future pins its connection alive until resolved or
    /// dropped, so a replacement of the pooled entry cannot strand an
    /// in-flight call.
    pub fn call_begin(
        &self,
        endpoint: Endpoint,
        header: &RequestHeader,
        args: &[u8],
    ) -> Result<CallFuture<F>, TransportError> {
        let conn = self.get(endpoint)?;
        match Connection::call_begin(&conn, header, args) {
            // The common case is a replica that restarted between calls. A
            // closed connection is a dead one, which `get` replaces.
            // Anything else propagates.
            Err(TransportError::ConnectionClosed) => {
                Connection::call_begin(&self.get(endpoint)?, header, args)
            }
            other => other,
        }
    }

    /// Total pending-map entries across every cached connection: calls in
    /// flight right now. Chaos tests assert this returns to zero after a
    /// fault storm — a nonzero steady-state value is a leaked entry.
    pub fn total_in_flight(&self) -> usize {
        self.conns.lock().values().map(|c| c.in_flight()).sum()
    }

    /// Number of currently cached connections.
    pub fn len(&self) -> usize {
        self.conns.lock().len()
    }

    /// True when no connections are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::test_endpoints;
    use crate::frame::{recv_message, Message, Status, WeaverFraming};
    use crate::server::{RpcHandler, Server};
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Instant;

    const LONG: Option<Duration> = Some(Duration::from_secs(5));

    fn echo() -> Arc<dyn RpcHandler> {
        Arc::new(|_h: &RequestHeader, args: &[u8]| ResponseBody {
            status: Status::Ok,
            payload: args.to_vec().into(),
        })
    }

    #[test]
    fn pool_reuses_connections() {
        let server = Server::<WeaverFraming>::bind("127.0.0.1:0", 2, echo()).unwrap();
        let pool = Pool::<WeaverFraming>::new();
        let header = RequestHeader::default();
        for _ in 0..5 {
            let resp = pool.call(server.endpoint(), &header, &[9], LONG).unwrap();
            assert_eq!(resp.payload, vec![9]);
        }
        assert_eq!(pool.len(), 1);
    }

    /// A server restarted at its old endpoint, and one restarted at a new
    /// endpoint as a restarted proclet is: the pool replaces the dead
    /// connection in the first case and dials in the second.
    #[test]
    fn pool_redials_a_restarted_server() {
        let header = RequestHeader::default();
        for kind in test_endpoints() {
            let server = Server::<WeaverFraming>::bind(kind, 2, echo()).unwrap();
            let endpoint = server.endpoint();
            let pool = Pool::<WeaverFraming>::new();
            pool.call(endpoint, &header, &[1], LONG).unwrap();

            drop(server);
            // Rebinding a TCP port can race the OS releasing the listener,
            // so retry briefly; an abstract name is free at once.
            let again = (0..50)
                .find_map(|_| {
                    let bound = Server::<WeaverFraming>::bind(endpoint, 2, echo()).ok();
                    if bound.is_none() {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    bound
                })
                .unwrap_or_else(|| panic!("could not rebind {endpoint}"));
            // Let the pooled connection observe the close.
            std::thread::sleep(Duration::from_millis(50));
            let resp = pool.call(endpoint, &header, &[2], LONG).unwrap();
            assert_eq!(resp.payload, vec![2], "{endpoint}");

            let fresh = match kind {
                Endpoint::Tcp(_) => kind,
                Endpoint::Unix(_) => Endpoint::fresh_unix(),
            };
            let moved = Server::<WeaverFraming>::bind(fresh, 2, echo()).unwrap();
            drop(again);
            assert_ne!(moved.endpoint(), endpoint);
            let resp = pool.call(moved.endpoint(), &header, &[3], LONG).unwrap();
            assert_eq!(resp.payload, vec![3], "{endpoint}");
        }
    }

    /// A peer that reads one request per connection and then hangs up: the
    /// request may have run, so the pool must not send it again.
    #[test]
    fn a_request_whose_connection_dies_is_sent_once() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let endpoint = Endpoint::Tcp(listener.local_addr().unwrap());
        let seen = AtomicUsize::new(0);
        let done = std::sync::atomic::AtomicBool::new(false);
        let outcome = std::thread::scope(|s| {
            s.spawn(|| {
                for stream in listener.incoming() {
                    if done.load(Ordering::SeqCst) {
                        return;
                    }
                    let mut stream = stream.unwrap();
                    let read = recv_message(&mut WeaverFraming, &mut stream);
                    if let Ok(Message::Request { .. }) = read {
                        seen.fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
            let pool = Pool::<WeaverFraming>::new();
            let outcome = pool.call(endpoint, &RequestHeader::default(), &[1], LONG);
            // Wake the acceptor so it sees `done` and returns.
            done.store(true, Ordering::SeqCst);
            let _ = std::net::TcpStream::connect(listener.local_addr().unwrap());
            outcome
        });
        assert_eq!(outcome, Err(TransportError::ConnectionClosed));
        assert_eq!(seen.load(Ordering::SeqCst), 1, "the request was re-sent");
    }

    /// One peer slow to accept stalls only the calls to that peer.
    #[test]
    fn a_slow_dial_stalls_only_its_own_endpoint() {
        let slow = Server::<WeaverFraming>::bind("127.0.0.1:0", 1, echo()).unwrap();
        let fast = Server::<WeaverFraming>::bind("127.0.0.1:0", 1, echo()).unwrap();
        let (dialing_tx, dialing) = std::sync::mpsc::sync_channel::<()>(1);
        let slow_endpoint = slow.endpoint();
        let pool = Pool::<WeaverFraming>::with_dialer(Arc::new(move |endpoint| {
            if endpoint == slow_endpoint {
                let _ = dialing_tx.send(());
                std::thread::sleep(Duration::from_millis(300));
            }
            Connection::connect(endpoint)
        }));
        std::thread::scope(|s| {
            let stalled = s.spawn(|| pool.get(slow_endpoint).map(|_| ()));
            dialing.recv().unwrap();
            let started = Instant::now();
            let resp = pool
                .call(fast.endpoint(), &RequestHeader::default(), &[7], LONG)
                .unwrap();
            assert_eq!(resp.payload, vec![7]);
            assert!(
                started.elapsed() < Duration::from_millis(100),
                "waited {:?} behind another endpoint's dial",
                started.elapsed()
            );
            stalled.join().unwrap().unwrap();
        });
        assert_eq!(pool.len(), 2);
    }
}
