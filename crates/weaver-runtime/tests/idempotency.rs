//! Regression tests for the router's one retry (the `may_retry`
//! double-execution hazard).
//!
//! The scenario: a request is written to the wire, the server executes it,
//! and the connection severs before the response is delivered. The client
//! cannot tell execution from loss — retrying blindly re-executes a
//! non-idempotent method. The fix is two-sided: every router call carries
//! an idempotency key, and its retry goes back to the replica that may have
//! run it, whose own dedup cache replays the recorded response for the
//! repeated key instead of re-executing. Every server here owns its cache,
//! as every proclet does; nothing is shared across replicas.
//!
//! The sever is provoked deterministically: while armed, a connection's
//! `read` returns an error the moment response bytes arrive — strictly
//! after the server executed, strictly before the client saw the answer.
//! A failure before the request reaches the wire is the other case: that
//! retry moves to another replica.

use std::io::{self, Read, Write};
use std::os::fd::RawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use weaver_core::client::{CallRouter, ClientHandle};
use weaver_core::component::{Component, ComponentInterface, MethodSpec};
use weaver_core::context::{Acquired, CallContext, ComponentGetter, InitContext};
use weaver_core::error::WeaverError;
use weaver_core::instance::LiveComponents;
use weaver_core::registry::{ComponentRegistry, RegistryBuilder};
use weaver_metrics::{CallGraph, MetricsRegistry};
use weaver_runtime::dispatch::ProcletDispatcher;
use weaver_runtime::router::{RemoteRouter, RoutingState, RoutingTable};
use weaver_transport::{
    Connection, DuplexStream, Endpoint, Pool, RequestHeader, ResponseBody, RpcHandler, Server,
    TransportError, WeaverFraming,
};

/// Executions are counted in process-globals so a test observes the server
/// side directly, not through (possibly replayed) responses. Tests in one
/// binary run in parallel, so each deploys a [`BumperImpl`] counting into a
/// static of its own.
static EXECUTIONS: AtomicU64 = AtomicU64::new(0);
static SPREAD_EXECUTIONS: AtomicU64 = AtomicU64::new(0);
static STUCK_EXECUTIONS: AtomicU64 = AtomicU64::new(0);
static MOVED_EXECUTIONS: AtomicU64 = AtomicU64::new(0);

/// The counter [`BumperImpl<C>`] bumps.
fn executions(counter: usize) -> &'static AtomicU64 {
    [
        &EXECUTIONS,
        &SPREAD_EXECUTIONS,
        &STUCK_EXECUTIONS,
        &MOVED_EXECUTIONS,
    ][counter]
}

trait Bumper: Send + Sync + 'static {
    fn bump(&self, ctx: &CallContext) -> Result<u64, WeaverError>;
}

struct BumperClient(ClientHandle);
impl Bumper for BumperClient {
    fn bump(&self, ctx: &CallContext) -> Result<u64, WeaverError> {
        let reply = self
            .0
            .call(ctx, 0, None, weaver_codec::encode_to_vec(&()))?;
        weaver_core::client::decode_reply(&reply)
    }
}

impl ComponentInterface for dyn Bumper {
    const NAME: &'static str = "test.Bumper";
    const METHODS: &'static [MethodSpec] = &[MethodSpec {
        name: "bump",
        routed: false,
    }];
    fn client(handle: ClientHandle) -> Arc<Self> {
        Arc::new(BumperClient(handle))
    }
    fn dispatch(
        this: &Self,
        method: u32,
        ctx: &CallContext,
        args: &[u8],
    ) -> Result<Vec<u8>, WeaverError> {
        match method {
            0 => {
                let (): () = weaver_codec::decode_from_slice(args)?;
                Ok(weaver_core::client::encode_reply(&this.bump(ctx)))
            }
            m => Err(WeaverError::UnknownMethod {
                component: Self::NAME.into(),
                method: m,
            }),
        }
    }
}

struct BumperImpl<const C: usize>;
impl<const C: usize> Bumper for BumperImpl<C> {
    fn bump(&self, _: &CallContext) -> Result<u64, WeaverError> {
        Ok(executions(C).fetch_add(1, Ordering::SeqCst) + 1)
    }
}
impl<const C: usize> Component for BumperImpl<C> {
    type Interface = dyn Bumper;
    fn init(_: &InitContext<'_>) -> Result<Self, WeaverError> {
        Ok(BumperImpl)
    }
    fn into_interface(self: Arc<Self>) -> Arc<dyn Bumper> {
        self
    }
}

struct NoDeps;
impl ComponentGetter for NoDeps {
    fn acquire(&self, name: &str) -> Result<Acquired, WeaverError> {
        Err(WeaverError::UnknownComponent { name: name.into() })
    }
}

/// The severing every connection of one deployment's pool shares.
#[derive(Default)]
struct Sever {
    /// Set before a call; the first response bytes to arrive consume it.
    armed: AtomicBool,
    /// Responses severed so far.
    severs: AtomicUsize,
    /// Whether a severed replica refuses every later dial.
    refuse_severed: bool,
    /// The replica severed last, refused if `refuse_severed`.
    severed: Mutex<Option<Endpoint>>,
}

/// A duplex stream whose `read`, while the sever is armed, discards the
/// first bytes it receives and fails instead: the response was *sent* (the
/// far side executed) but never *delivered* — the ambiguous sever.
struct SeverOnFirstResponse {
    inner: Box<dyn DuplexStream>,
    endpoint: Endpoint,
    sever: Arc<Sever>,
}

impl Read for SeverOnFirstResponse {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        if n > 0 && self.sever.armed.swap(false, Ordering::SeqCst) {
            self.sever.severs.fetch_add(1, Ordering::SeqCst);
            *self.sever.severed.lock().unwrap() = Some(self.endpoint);
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "severed after response was sent",
            ));
        }
        Ok(n)
    }
}

impl Write for SeverOnFirstResponse {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner.write(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl DuplexStream for SeverOnFirstResponse {
    fn shutdown_both(&self) {
        self.inner.shutdown_both();
    }

    fn poll_fd(&self) -> RawFd {
        self.inner.poll_fd()
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        self.inner.set_nonblocking(nonblocking)
    }
}

/// A pool whose every connection severs under `sever`.
fn severing_pool(sever: &Arc<Sever>) -> Pool<WeaverFraming> {
    let sever = Arc::clone(sever);
    Pool::with_dialer(Arc::new(move |endpoint: Endpoint| {
        let refused = sever.refuse_severed && *sever.severed.lock().unwrap() == Some(endpoint);
        if refused {
            return Err(TransportError::Unreachable(format!("{endpoint} refused")));
        }
        Connection::from_duplex(SeverOnFirstResponse {
            inner: endpoint.dial()?,
            endpoint,
            sever: Arc::clone(&sever),
        })
    }))
}

/// A server's handler that counts the requests reaching it.
struct Counted {
    dispatcher: ProcletDispatcher,
    requests: AtomicUsize,
}

impl RpcHandler for Counted {
    fn handle(&self, header: &RequestHeader, args: &[u8]) -> ResponseBody {
        self.requests.fetch_add(1, Ordering::SeqCst);
        self.dispatcher.handle(header, args)
    }

    fn inline_ok(&self, header: &RequestHeader) -> bool {
        self.dispatcher.inline_ok(header)
    }
}

/// A registry holding the one Bumper counting into counter `C`.
fn registry<const C: usize>() -> Arc<ComponentRegistry> {
    Arc::new(RegistryBuilder::new().register::<BumperImpl<C>>().build())
}

/// One Bumper server with a dispatcher, and so a dedup cache, of its own.
fn serve(registry: &Arc<ComponentRegistry>) -> (Server<WeaverFraming>, Arc<Counted>) {
    let live = Arc::new(LiveComponents::new(Arc::clone(registry)));
    let handler = Arc::new(Counted {
        dispatcher: ProcletDispatcher::new(
            live,
            Arc::new(NoDeps),
            1,
            Arc::new(MetricsRegistry::new()),
            Arc::default(),
            RoutingTable::new(),
        ),
        requests: AtomicUsize::new(0),
    });
    let server = Server::<WeaverFraming>::bind(
        "127.0.0.1:0",
        4,
        Arc::clone(&handler) as Arc<dyn RpcHandler>,
    )
    .expect("bind");
    (server, handler)
}

/// A Bumper client behind a fresh router that sends unrouted calls to
/// `routes` over `pool`.
fn client(
    registry: &ComponentRegistry,
    routes: Vec<Endpoint>,
    pool: Pool<WeaverFraming>,
) -> Arc<dyn Bumper> {
    let table = RoutingTable::new();
    table.update(RoutingState {
        epoch: 1,
        routes: [(0u32, routes)].into(),
        assignments: Default::default(),
    });
    let metrics = Arc::new(MetricsRegistry::new());
    let router =
        RemoteRouter::with_metrics(table, Arc::new(CallGraph::new()), 1, pool, metrics, "tcp");
    let handle = registry.client_handle::<dyn Bumper>(Arc::new(router) as Arc<dyn CallRouter>);
    <dyn Bumper as ComponentInterface>::client(handle.unwrap())
}

fn ctx() -> CallContext {
    CallContext::root(1).with_timeout(Duration::from_secs(10))
}

#[test]
fn ambiguous_sever_with_key_replays_single_execution() {
    let registry = registry::<0>();
    let (server, _) = serve(&registry);
    let sever = Arc::new(Sever::default());
    sever.armed.store(true, Ordering::SeqCst);
    let client = client(&registry, vec![server.endpoint()], severing_pool(&sever));

    // The first call's response is lost in flight. The keyed retry must
    // land on the dedup cache: the client gets the recorded answer and the
    // method ran exactly once.
    let answer = client
        .bump(&ctx())
        .expect("keyed retry recovers the answer");
    assert_eq!(answer, 1, "client must see the first execution's answer");
    assert_eq!(
        EXECUTIONS.load(Ordering::SeqCst),
        1,
        "ambiguous sever re-executed a keyed method"
    );
    assert_eq!(
        sever.severs.load(Ordering::SeqCst),
        1,
        "the first response must have been severed"
    );

    // A fresh call (new key, clean connection) executes normally.
    assert_eq!(client.bump(&ctx()).unwrap(), 2);
    assert_eq!(EXECUTIONS.load(Ordering::SeqCst), 2);
}

/// Two replicas, each with its own cache: every severed call's retry goes
/// back to the replica that ran it, so none runs twice. A retry that moved
/// would miss the cache on the other replica and run the method again.
#[test]
fn severed_retries_replay_on_their_own_replica() {
    const CALLS: u64 = 32;
    let registry = registry::<1>();
    let (a, _) = serve(&registry);
    let (b, _) = serve(&registry);
    let sever = Arc::new(Sever::default());
    let client = client(
        &registry,
        vec![a.endpoint(), b.endpoint()],
        severing_pool(&sever),
    );
    for call in 0..CALLS {
        sever.armed.store(true, Ordering::SeqCst);
        client
            .bump(&ctx())
            .unwrap_or_else(|e| panic!("call {call}: {e}"));
    }
    assert_eq!(sever.severs.load(Ordering::SeqCst), CALLS as usize);
    assert_eq!(
        SPREAD_EXECUTIONS.load(Ordering::SeqCst),
        CALLS,
        "a severed retry ran on a replica whose cache never saw its key"
    );
}

/// The severed replica refuses the reconnect: the call fails rather than
/// moving to the replica that never saw it.
#[test]
fn a_refused_post_write_retry_surfaces_instead_of_moving() {
    let registry = registry::<2>();
    let servers = [serve(&registry), serve(&registry)];
    let sever = Arc::new(Sever {
        refuse_severed: true,
        ..Sever::default()
    });
    sever.armed.store(true, Ordering::SeqCst);
    let routes = servers.iter().map(|(s, _)| s.endpoint()).collect();
    let client = client(&registry, routes, severing_pool(&sever));

    assert!(client.bump(&ctx()).is_err(), "the retry found a replica");
    assert_eq!(STUCK_EXECUTIONS.load(Ordering::SeqCst), 1);
    let severed = sever
        .severed
        .lock()
        .unwrap()
        .expect("the response was severed");
    let (_, other) = servers
        .iter()
        .find(|(s, _)| s.endpoint() != severed)
        .expect("two replicas");
    assert_eq!(other.requests.load(Ordering::SeqCst), 0);
}

/// A call that fails before reaching the wire cannot have run, so its
/// retry moves: with replica 0 unreachable, a fresh router's first call
/// lands on replica 1.
#[test]
fn a_begin_time_failure_moves_to_another_replica() {
    let registry = registry::<3>();
    let (live, _) = serve(&registry);
    let routes = vec![Endpoint::fresh_unix(), live.endpoint()];
    let client = client(&registry, routes, Pool::new());

    assert_eq!(client.bump(&ctx()).expect("the retry moved"), 1);
    assert_eq!(MOVED_EXECUTIONS.load(Ordering::SeqCst), 1);
}
