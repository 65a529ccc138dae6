//! Regression tests for the ambiguous-failure retry (the `may_retry`
//! double-execution hazard).
//!
//! The scenario: a request is written to the wire, the server executes it,
//! and the connection severs before the response is delivered. The client
//! cannot tell execution from loss — retrying blindly re-executes a
//! non-idempotent method. The fix is two-sided: every router call carries
//! an idempotency key, and the server's dedup cache
//! replays the recorded response for the repeated key instead of
//! re-executing.
//!
//! The sever is provoked deterministically: the first dialed connection's
//! `read` returns an error the moment the first response bytes arrive —
//! strictly after the server executed, strictly before the client saw the
//! answer.

use std::io::{self, Read, Write};
use std::os::fd::RawFd;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
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
use weaver_transport::{Connection, DuplexStream, Endpoint, Pool, Server, WeaverFraming};

/// Executions are counted in a process-global so the test observes the
/// server side directly, not through (possibly replayed) responses.
static EXECUTIONS: AtomicU64 = AtomicU64::new(0);

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

struct BumperImpl;
impl Bumper for BumperImpl {
    fn bump(&self, _: &CallContext) -> Result<u64, WeaverError> {
        Ok(EXECUTIONS.fetch_add(1, Ordering::SeqCst) + 1)
    }
}
impl Component for BumperImpl {
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

/// A duplex stream whose `read` discards the first bytes it receives and
/// fails instead: the response was *sent* (the far side executed) but never
/// *delivered* — the ambiguous sever.
struct SeverOnFirstResponse {
    inner: Box<dyn DuplexStream>,
    armed: bool,
}

impl Read for SeverOnFirstResponse {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        if self.armed && n > 0 {
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

/// Deploys one Bumper server and a router whose *first* dialed connection
/// severs on the first response; later connections are clean. Also returns
/// the server's dedup cache so tests can assert replays happened.
fn deploy() -> (
    Server<WeaverFraming>,
    RemoteRouter,
    Arc<ComponentRegistry>,
    Arc<weaver_runtime::DedupCache>,
) {
    let registry: Arc<ComponentRegistry> =
        Arc::new(RegistryBuilder::new().register::<BumperImpl>().build());
    let live = Arc::new(LiveComponents::new(Arc::clone(&registry)));
    let dedup = Arc::new(weaver_runtime::DedupCache::new());
    let dispatcher = ProcletDispatcher::new(
        live,
        Arc::new(NoDeps),
        1,
        Arc::new(MetricsRegistry::new()),
        Arc::clone(&dedup),
        Arc::default(),
    );
    let server =
        Server::<WeaverFraming>::bind("127.0.0.1:0", 4, Arc::new(dispatcher)).expect("bind");

    let dialed = Arc::new(AtomicUsize::new(0));
    let pool = Pool::with_dialer(Arc::new(move |endpoint: Endpoint| {
        let stream = endpoint.dial()?;
        let first = dialed.fetch_add(1, Ordering::SeqCst) == 0;
        Connection::from_duplex(SeverOnFirstResponse {
            inner: stream,
            armed: first,
        })
    }));

    let table = RoutingTable::new();
    let mut routes = std::collections::HashMap::new();
    routes.insert(0u32, vec![server.endpoint()]);
    table.update(RoutingState {
        epoch: 1,
        routes,
        assignments: std::collections::HashMap::new(),
    });
    let metrics = Arc::new(MetricsRegistry::new());
    let router =
        RemoteRouter::with_metrics(table, Arc::new(CallGraph::new()), 1, pool, metrics, "tcp");
    (server, router, registry, dedup)
}

#[test]
fn ambiguous_sever_with_key_replays_single_execution() {
    let (_server, router, registry, dedup) = deploy();
    let router = Arc::new(router);
    let handle = registry.client_handle::<dyn Bumper>(router as Arc<dyn CallRouter>);
    let client = <dyn Bumper as ComponentInterface>::client(handle.unwrap());
    let ctx = CallContext::root(1).with_timeout(Duration::from_secs(10));

    // The first call's response is lost in flight. The keyed retry must
    // land on the dedup cache: the client gets the recorded answer and the
    // method ran exactly once.
    let answer = client.bump(&ctx).expect("keyed retry recovers the answer");
    assert_eq!(answer, 1, "client must see the first execution's answer");
    assert_eq!(
        EXECUTIONS.load(Ordering::SeqCst),
        1,
        "ambiguous sever re-executed a keyed method"
    );
    assert_eq!(
        dedup.hits(),
        1,
        "the retry must have been served by the dedup cache (sever fired)"
    );

    // A fresh call (new key, clean connection) executes normally.
    assert_eq!(client.bump(&ctx).unwrap(), 2);
    assert_eq!(EXECUTIONS.load(Ordering::SeqCst), 2);
}
