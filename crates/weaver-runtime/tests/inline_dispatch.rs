//! Which requests the runtime answers on the reactor's poller, checked from
//! outside: only cheap methods of running leaf components without an
//! injected fault, and everything else still on the worker pool.
//!
//! A component is a *leaf* when its `init` acquired no component reference,
//! so none of its methods can make a nested call. Nothing in an application
//! says so; the runtime sees it, which is what an RPC library cannot.
//!
//! The tests read the process-wide reactor counter and share two statics,
//! so they serialize on [`EXCLUSIVE`]. The process has one poller, so a
//! handler that stalled it would stall every connection: the faulted-leaf
//! test would see it in every call's latency.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use boutique::components::{CurrencyService, Frontend, ProductCatalog};
use boutique::types::{Money, PlaceOrderRequest};
use weaver_core::component::Component;
use weaver_core::context::{CallContext, InitContext};
use weaver_core::error::WeaverError;
use weaver_core::registry::RegistryBuilder;
use weaver_runtime::tcp::{TcpOptions, TcpProcess};
use weaver_runtime::ComponentFault;

static EXCLUSIVE: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner())
}

fn inline_dispatches() -> u64 {
    weaver_transport::reactor_snapshot().map_or(0, |r| r.inline_dispatches)
}

fn thread_name() -> String {
    std::thread::current().name().unwrap_or("").to_string()
}

fn on_reactor(thread: &str) -> bool {
    thread == "weaver-reactor"
}

fn on_worker(thread: &str) -> bool {
    thread.starts_with("weaver-rpc-worker-")
}

const LEAVES: [&str; 7] = [
    "boutique.AdService",
    "boutique.CartService",
    "boutique.CurrencyService",
    "boutique.EmailService",
    "boutique.PaymentService",
    "boutique.ProductCatalog",
    "boutique.Shipping",
];

fn boutique_on_two_replicas() -> Arc<TcpProcess> {
    let options = TcpOptions {
        replicas: 2,
        ..Default::default()
    };
    TcpProcess::deploy(boutique::registry(), options, 1).unwrap()
}

/// One request of a fixed browse/add/view/checkout cycle. Every checkout
/// follows two adds by the same user, so no request fails by construction.
fn mixed_request(frontend: &dyn Frontend, ctx: &CallContext, user: &str, i: usize) -> bool {
    const PRODUCTS: [&str; 4] = ["OLJCESPC7Z", "66VCHSJNUP", "1YMWWN1N4O", "6E92ZMYYFZ"];
    let product = PRODUCTS[i % PRODUCTS.len()].to_string();
    let user = user.to_string();
    match i % 10 {
        0..=2 => frontend.home(ctx, user, "EUR".into()).is_ok(),
        3..=5 => frontend
            .browse_product(ctx, user, product, "USD".into())
            .is_ok(),
        6 | 7 => frontend.add_to_cart(ctx, user, product, 1).is_ok(),
        8 => frontend.view_cart(ctx, user, "JPY".into()).is_ok(),
        _ => frontend
            .place_order(
                ctx,
                PlaceOrderRequest {
                    user_id: user,
                    user_currency: "USD".into(),
                    address: boutique::loadgen::test_address(),
                    email: "someone@example.com".into(),
                    credit_card: boutique::logic::payment::test_card(),
                },
            )
            .is_ok(),
    }
}

#[test]
fn boutique_leaves_are_the_static_sinks_and_only_they_leave_the_workers() {
    let _serial = exclusive();
    let dep = boutique_on_two_replicas();
    let frontend = dep.get::<dyn Frontend>().unwrap();
    let inline_before = inline_dispatches();

    // 2k mixed requests from two users. `Frontend`, `CheckoutService` and
    // `RecommendationService` wait on a nested call in every method, and a
    // wait from a reactor thread is refused — so one run of any of them on
    // the `weaver-reactor` thread would fail its request.
    let failed: usize = std::thread::scope(|scope| {
        let clients: Vec<_> = ["ada", "bob"]
            .into_iter()
            .map(|user| {
                let frontend = Arc::clone(&frontend);
                let ctx = dep.root_context();
                scope.spawn(move || {
                    (0..1000)
                        .filter(|&i| !mixed_request(&*frontend, &ctx, user, i))
                        .count()
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().unwrap()).sum()
    });
    assert_eq!(failed, 0, "a request failed");
    assert!(
        inline_dispatches() > inline_before,
        "no request was answered on the reactor poller"
    );

    // What the runtime observed at `init` ...
    assert_eq!(dep.leaf_components(), LEAVES);
    // ... is what weaver-lint reads off the source: the components no call
    // edge leaves.
    let model = weaver_lint::scan::scan_root(Path::new("../boutique/src")).expect("scan boutique");
    let graph = weaver_lint::graph::build_graph(&model);
    let pairs: BTreeSet<(&str, &str)> = graph
        .edges
        .iter()
        .map(|(e, _)| (e.caller.as_str(), e.callee.as_str()))
        .collect();
    assert_eq!(pairs.len(), 15, "{pairs:?}");
    let sinks: Vec<String> = graph
        .components()
        .into_iter()
        .filter(|c| pairs.iter().all(|(caller, _)| caller != c))
        .collect();
    assert_eq!(sinks, LEAVES);
}

#[test]
fn a_faulted_leaf_stays_off_the_poller_until_the_fault_clears() {
    let _serial = exclusive();
    let dep = boutique_on_two_replicas();
    let catalog = dep.get::<dyn ProductCatalog>().unwrap();
    let currency = dep.get::<dyn CurrencyService>().unwrap();
    let ctx = dep.root_context();
    let convert = |ctx: &CallContext| {
        currency
            .convert(ctx, Money::new("USD", 10, 0), "EUR".into())
            .unwrap()
    };
    // Measure both methods on both replicas, so both are inlined.
    for _ in 0..64 {
        convert(&ctx);
        catalog.get_product(&ctx, "OLJCESPC7Z".into()).unwrap();
    }

    dep.inject_fault(
        "boutique.CurrencyService",
        ComponentFault {
            delay: Duration::from_millis(50),
            ..Default::default()
        },
    );
    let stop = AtomicBool::new(false);
    let mut latencies = std::thread::scope(|scope| {
        // Two callers keep a delayed conversion in flight on each replica.
        for _ in 0..2 {
            scope.spawn(|| {
                let ctx = dep.root_context();
                while !stop.load(Ordering::SeqCst) {
                    convert(&ctx);
                }
            });
        }
        std::thread::sleep(Duration::from_millis(100));
        let latencies: Vec<Duration> = (0..200)
            .map(|_| {
                let started = Instant::now();
                catalog.get_product(&ctx, "OLJCESPC7Z".into()).unwrap();
                started.elapsed()
            })
            .collect();
        stop.store(true, Ordering::SeqCst);
        latencies
    });
    latencies.sort_unstable();
    let p50 = latencies[latencies.len() / 2];
    assert!(
        p50 < Duration::from_millis(5),
        "get_product p50 {p50:?}: a 50 ms injected delay slept on the reactor poller"
    );

    dep.inject_fault("boutique.CurrencyService", ComponentFault::default());
    let inline_before = inline_dispatches();
    for _ in 0..200 {
        convert(&ctx);
    }
    let inlined = inline_dispatches() - inline_before;
    assert!(
        inlined >= 100,
        "only {inlined} of 200 conversions were inlined after the fault cleared"
    );
}

/// Threads `test.Leaf`'s `init` has run on, oldest first.
static LEAF_INITS: Mutex<Vec<String>> = Mutex::new(Vec::new());

fn leaf_inits() -> MutexGuard<'static, Vec<String>> {
    LEAF_INITS.lock().unwrap_or_else(|e| e.into_inner())
}

#[weaver_macros::component(name = "test.Leaf")]
trait Leaf {
    /// Sleeps `sleep_ms`, then names the thread it ran on.
    fn whoami(&self, ctx: &CallContext, sleep_ms: u64) -> Result<String, WeaverError>;
}

struct LeafImpl;

impl Leaf for LeafImpl {
    fn whoami(&self, _: &CallContext, sleep_ms: u64) -> Result<String, WeaverError> {
        if sleep_ms > 0 {
            std::thread::sleep(Duration::from_millis(sleep_ms));
        }
        Ok(thread_name())
    }
}

impl Component for LeafImpl {
    type Interface = dyn Leaf;
    fn init(_: &InitContext<'_>) -> Result<Self, WeaverError> {
        leaf_inits().push(thread_name());
        Ok(LeafImpl)
    }
    fn into_interface(self: Arc<Self>) -> Arc<dyn Leaf> {
        self
    }
}

#[weaver_macros::component(name = "test.Holder")]
trait Holder {
    /// Names the thread it ran on, without touching the leaf it holds.
    fn whoami(&self, ctx: &CallContext) -> Result<String, WeaverError>;
}

/// As cheap as `test.Leaf` and never faulted: holding a reference is the
/// only thing that keeps it on the workers.
struct HolderImpl {
    _leaf: Arc<dyn Leaf>,
}

impl Holder for HolderImpl {
    fn whoami(&self, _: &CallContext) -> Result<String, WeaverError> {
        Ok(thread_name())
    }
}

impl Component for HolderImpl {
    type Interface = dyn Holder;
    fn init(ctx: &InitContext<'_>) -> Result<Self, WeaverError> {
        Ok(HolderImpl {
            _leaf: ctx.component::<dyn Leaf>()?,
        })
    }
    fn into_interface(self: Arc<Self>) -> Arc<dyn Holder> {
        self
    }
}

fn leaf_and_holder() -> Arc<TcpProcess> {
    let registry = RegistryBuilder::new()
        .register::<LeafImpl>()
        .register::<HolderImpl>()
        .build();
    TcpProcess::deploy(Arc::new(registry), TcpOptions::default(), 1).unwrap()
}

/// Calls `whoami(0)` until a call is answered on the reactor poller, and
/// returns how many calls that took.
fn calls_until_inlined(leaf: &dyn Leaf, ctx: &CallContext, at_most: usize) -> usize {
    (1..=at_most)
        .find(|_| on_reactor(&leaf.whoami(ctx, 0).unwrap()))
        .unwrap_or_else(|| panic!("test.Leaf was not inlined within {at_most} calls"))
}

#[test]
fn a_slow_leaf_method_stalls_the_poller_at_most_once() {
    let _serial = exclusive();
    let dep = leaf_and_holder();
    let leaf = dep.get::<dyn Leaf>().unwrap();
    let ctx = dep.root_context();
    // The first call is measured on a worker; after that it is inlined.
    assert!(on_worker(&leaf.whoami(&ctx, 0).unwrap()));
    calls_until_inlined(&*leaf, &ctx, 50);

    let slow: Vec<String> = (0..20).map(|_| leaf.whoami(&ctx, 5).unwrap()).collect();
    let stalled = slow.iter().filter(|t| on_reactor(t)).count();
    assert!(stalled <= 1, "5 ms calls ran on the poller {stalled} times");
    assert!(slow[1..].iter().all(|t| on_worker(t)), "{slow:?}");

    // Fast again: the estimate decays and the method earns its way back.
    let calls = calls_until_inlined(&*leaf, &ctx, 200);
    assert!(calls > 1, "one fast run undid a 5 ms one");
}

#[test]
fn a_cheap_component_that_holds_a_reference_is_never_inlined() {
    let _serial = exclusive();
    let dep = leaf_and_holder();
    let holder = dep.get::<dyn Holder>().unwrap();
    let ctx = dep.root_context();
    for _ in 0..50 {
        let thread = holder.whoami(&ctx).unwrap();
        assert!(on_worker(&thread), "test.Holder ran on {thread:?}");
    }
    // Running, yet not a leaf (and the leaf it holds a stub of was never
    // called, so it never started).
    assert!(dep.leaf_components().is_empty());
}

#[test]
fn a_crashed_leaf_is_rebuilt_on_a_worker_and_inlined_again() {
    let _serial = exclusive();
    leaf_inits().clear();
    let dep = leaf_and_holder();
    let leaf = dep.get::<dyn Leaf>().unwrap();
    let ctx = dep.root_context();
    calls_until_inlined(&*leaf, &ctx, 50);

    dep.crash_component("test.Leaf").unwrap();
    assert!(dep.leaf_components().is_empty(), "awaiting re-init");
    // The call that finds no instance constructs one, on a worker ...
    assert!(on_worker(&leaf.whoami(&ctx, 0).unwrap()));
    // ... and the method is still known to be cheap.
    assert_eq!(calls_until_inlined(&*leaf, &ctx, 50), 1);

    let inits = leaf_inits().clone();
    assert_eq!(inits.len(), 2, "{inits:?}");
    assert!(inits.iter().all(|t| on_worker(t)), "{inits:?}");
}
