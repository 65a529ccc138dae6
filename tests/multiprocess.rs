//! Integration tests of the multiprocess deployer and the Table 1 pipe
//! protocol (experiments T1 and F3).
//!
//! `harness = false`: this binary's `main` doubles as the proclet
//! executable — exactly the single-binary model the paper describes, where
//! the deployer re-executes the application image and the embedded proclet
//! takes over.

use std::collections::HashMap;
use std::io::BufReader;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use boutique::components::Frontend;
use boutique::loadgen::test_address;
use boutique::logic::payment::test_card;
use boutique::types::PlaceOrderRequest;
use weaver_runtime::protocol::{read_message, write_message, EnvelopeMessage, ProcletMessage};
use weaver_runtime::router::RoutingState;
use weaver_runtime::{DeploymentConfig, MultiProcess, SpawnSpec};
use weaver_transport::Endpoint;

fn main() {
    // In a child spawned by these tests, serve as a baseline service or a
    // proclet and exit.
    baseline::maybe_service();
    let registry = test_registry();
    weaver_runtime::proclet::maybe_proclet(&registry);

    let tests: &[(&str, fn())] = &[
        ("pipe_protocol_conformance", pipe_protocol_conformance),
        ("malformed_proclet_env_exits", malformed_proclet_env_exits),
        ("deployer_end_to_end", deployer_end_to_end),
        ("every_route_is_a_unix_socket", every_route_is_a_unix_socket),
        ("replica_crash_heals", replica_crash_heals),
        ("scale_group_up_and_down", scale_group_up_and_down),
        ("scale_down_and_up_at_once", scale_down_and_up_at_once),
        ("colocation_is_respected", colocation_is_respected),
        ("autoscaler_reacts_to_load", autoscaler_reacts_to_load),
        (
            "process_baseline_serves_and_fails_cleanly",
            process_baseline_serves_and_fails_cleanly,
        ),
    ];
    let filter = std::env::args().nth(1).unwrap_or_default();
    let mut ran = 0;
    for (name, test) in tests {
        if !filter.is_empty() && !name.contains(&filter) {
            continue;
        }
        print!("test {name} ... ");
        use std::io::Write;
        std::io::stdout().flush().ok();
        test();
        println!("ok");
        ran += 1;
    }
    println!("\ntest result: ok. {ran} passed (multiprocess suite)");
}

/// T1: drive one real proclet subprocess through the Table 1 API by hand,
/// playing the envelope side of the pipe ourselves.
fn pipe_protocol_conformance() {
    let exe = std::env::current_exe().expect("current_exe");
    let mut child = Command::new(&exe)
        .env(weaver_runtime::proclet::ENV_GROUP, "0")
        .env(weaver_runtime::proclet::ENV_REPLICA, "0")
        .env(weaver_runtime::proclet::ENV_VERSION, "7")
        .env(weaver_runtime::proclet::ENV_WORKERS, "2")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn proclet");
    let mut stdin = child.stdin.take().expect("stdin");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout"));

    // 1. RegisterReplica: "register a proclet as alive and ready".
    let msg: ProcletMessage = read_message(&mut stdout).expect("read").expect("eof");
    let addr = match msg {
        ProcletMessage::RegisterReplica {
            group: 0,
            replica: 0,
            addr,
            pid,
        } => {
            assert_ne!(pid, 0);
            addr
        }
        other => panic!("expected RegisterReplica, got {other:?}"),
    };
    // The deployer spawned it on this host, so it listens on a unix socket.
    assert!(
        matches!(addr, Endpoint::Unix(_)),
        "proclet advertises a TCP socket: {addr}"
    );

    // 2. ComponentsToHost: "get components a proclet should host".
    let msg: ProcletMessage = read_message(&mut stdout).expect("read").expect("eof");
    assert_eq!(msg, ProcletMessage::ComponentsToHost);

    // Assign it the catalog component and tell it about routing, with both
    // kinds of endpoint in one message.
    let registry = boutique::registry();
    let catalog_id = registry.id_of("boutique.ProductCatalog").expect("id");
    let currency_id = registry.id_of("boutique.CurrencyService").expect("id");
    write_message(
        &mut stdin,
        &EnvelopeMessage::HostComponents {
            components: vec![catalog_id],
        },
    )
    .expect("write");
    write_message(
        &mut stdin,
        &EnvelopeMessage::RoutingInfo(RoutingState {
            epoch: 1,
            routes: HashMap::from([
                (catalog_id, vec![addr]),
                (
                    currency_id,
                    vec!["tcp:127.0.0.1:1".parse().expect("endpoint")],
                ),
            ]),
            assignments: HashMap::new(),
        }),
    )
    .expect("write");

    // The data plane serves real RPCs now (StartComponent semantics: the
    // call starts the component).
    let conn = weaver_transport::Connection::<weaver_transport::WeaverFraming>::connect(addr)
        .expect("dial proclet");
    let args = weaver_codec::encode_to_vec(&"OLJCESPC7Z".to_string());
    let header = weaver_transport::RequestHeader {
        component: catalog_id,
        method: 1, // get_product
        version: 7,
        ..Default::default()
    };
    let resp = conn
        .call(&header, &args, Some(Duration::from_secs(5)))
        .expect("rpc");
    assert_eq!(resp.status, weaver_transport::Status::Ok);
    let product: boutique::types::Product =
        weaver_core::client::decode_reply(&resp.payload).expect("decode");
    assert_eq!(product.name, "Sunglasses");

    // Version enforcement (§4.4 backstop): wrong version is rejected.
    let stale = weaver_transport::RequestHeader {
        version: 6,
        ..header.clone()
    };
    let resp = conn
        .call(&stale, &args, Some(Duration::from_secs(5)))
        .expect("rpc");
    assert_eq!(resp.status, weaver_transport::Status::Error);
    let err: weaver_core::WeaverError =
        weaver_codec::decode_from_slice(&resp.payload).expect("decode error");
    assert!(matches!(
        err,
        weaver_core::WeaverError::VersionMismatch {
            caller_version: 6,
            callee_version: 7
        }
    ));

    // 3. HealthCheck → LoadReport with metrics including our RPC.
    write_message(&mut stdin, &EnvelopeMessage::HealthCheck).expect("write");
    let msg: ProcletMessage = read_message(&mut stdout).expect("read").expect("eof");
    match msg {
        ProcletMessage::LoadReport { metrics, .. } => {
            let handled = metrics
                .metrics
                .iter()
                .any(|(name, _)| name.contains("ProductCatalog"));
            assert!(handled, "load report missing handler metrics");
        }
        other => panic!("expected LoadReport, got {other:?}"),
    }

    // 4. Shutdown → ShuttingDown and a clean exit.
    write_message(&mut stdin, &EnvelopeMessage::Shutdown).expect("write");
    let msg: ProcletMessage = read_message(&mut stdout).expect("read").expect("eof");
    assert_eq!(msg, ProcletMessage::ShuttingDown);
    let status = child.wait().expect("wait");
    assert!(status.success(), "proclet exited with {status:?}");
}

/// A proclet whose environment does not parse names the variable and exits
/// non-zero before it binds, instead of serving as group 0.
fn malformed_proclet_env_exits() {
    let exe = std::env::current_exe().expect("current_exe");
    let out = Command::new(&exe)
        .env(weaver_runtime::proclet::ENV_GROUP, "x")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .output()
        .expect("spawn proclet");
    assert!(!out.status.success(), "exited {:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(weaver_runtime::proclet::ENV_GROUP),
        "stderr does not name the variable: {stderr}"
    );
    assert!(out.stdout.is_empty(), "proclet registered before exiting");
}

// The boutique registry plus one deliberately slow component used by the
// autoscaling test. Every test (and every spawned proclet) shares this
// registry, as the single-binary model requires.
#[weaver_macros::component(name = "test.SlowWorker")]
pub trait SlowWorker {
    /// Burns ~2 ms of wall time per call.
    fn work(
        &self,
        ctx: &weaver_core::CallContext,
        units: u32,
    ) -> Result<u32, weaver_core::WeaverError>;
}

struct SlowWorkerImpl;

impl SlowWorker for SlowWorkerImpl {
    fn work(
        &self,
        _ctx: &weaver_core::CallContext,
        units: u32,
    ) -> Result<u32, weaver_core::WeaverError> {
        std::thread::sleep(Duration::from_millis(2));
        Ok(units + 1)
    }
}

impl weaver_core::Component for SlowWorkerImpl {
    type Interface = dyn SlowWorker;
    fn init(_: &weaver_core::InitContext<'_>) -> Result<Self, weaver_core::WeaverError> {
        Ok(SlowWorkerImpl)
    }
    fn into_interface(self: Arc<Self>) -> Arc<dyn SlowWorker> {
        self
    }
}

fn test_registry() -> Arc<weaver_core::ComponentRegistry> {
    use boutique::components::*;
    use weaver_core::registry::RegistryBuilder;
    Arc::new(
        RegistryBuilder::new()
            .register::<ProductCatalogImpl>()
            .register::<CurrencyServiceImpl>()
            .register::<CartServiceImpl>()
            .register::<RecommendationServiceImpl>()
            .register::<ShippingImpl>()
            .register::<PaymentServiceImpl>()
            .register::<EmailServiceImpl>()
            .register::<AdServiceImpl>()
            .register::<CheckoutServiceImpl>()
            .register::<FrontendImpl>()
            .register::<SlowWorkerImpl>()
            .build(),
    )
}

fn deploy(colocate: &str, replicas: u32) -> Arc<MultiProcess> {
    let config = DeploymentConfig::from_toml(&format!(
        r#"
[deployment]
name = "boutique-test"
version = 1

[placement]
colocate = {colocate}
replicas = {replicas}

[runtime]
server_workers = 4
"#
    ))
    .expect("config");
    MultiProcess::deploy(
        test_registry(),
        config,
        SpawnSpec::current_exe().expect("exe"),
    )
    .expect("deploy")
}

/// The closed HPA loop (paper §4.4 prototype: "uses Horizontal Pod
/// Autoscalers to dynamically adjust the number of container replicas
/// based on load"): saturate a slow component and watch the manager grow
/// its replica set from the proclets' load reports.
fn autoscaler_reacts_to_load() {
    let config = DeploymentConfig::from_toml(
        r#"
[deployment]
name = "autoscale-test"
version = 1

[scaling]
autoscale = true
target_utilization = 0.5
min_replicas = 1
max_replicas = 3
"#,
    )
    .expect("config");
    let deployment = MultiProcess::deploy(
        test_registry(),
        config,
        SpawnSpec::current_exe().expect("exe"),
    )
    .expect("deploy");

    let worker = deployment.get::<dyn SlowWorker>().expect("slow worker");
    let slow_group = deployment
        .groups()
        .iter()
        .position(|g| g.contains(&"test.SlowWorker"))
        .expect("slow group") as u32;
    assert_eq!(deployment.registered_replicas(slow_group), 1);

    // Saturate: 4 threads of back-to-back 2 ms calls ≈ 8× one replica's
    // capacity, far above the 0.5 target.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut drivers = Vec::new();
    for _ in 0..4 {
        let worker = Arc::clone(&worker);
        let stop = Arc::clone(&stop);
        let ctx = deployment.root_context();
        drivers.push(std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let _ = worker.work(&ctx, 1);
            }
        }));
    }

    // The HPA evaluates once per second; give it a few rounds.
    let deadline = Instant::now() + Duration::from_secs(15);
    let mut scaled = deployment.registered_replicas(slow_group);
    while scaled < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(200));
        scaled = deployment.registered_replicas(slow_group);
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for d in drivers {
        let _ = d.join();
    }
    assert!(
        scaled >= 2,
        "autoscaler never scaled the saturated group (still {scaled})"
    );
    deployment.shutdown();
}

/// F3: the whole Figure 3 architecture carries a real checkout.
fn deployer_end_to_end() {
    let deployment = deploy("[]", 1);
    let ctx = deployment.root_context();
    let frontend = deployment.get::<dyn Frontend>().expect("frontend");

    frontend
        .add_to_cart(&ctx, "alice".into(), "OLJCESPC7Z".into(), 2)
        .expect("add_to_cart");
    let order = frontend
        .place_order(
            &ctx,
            PlaceOrderRequest {
                user_id: "alice".into(),
                user_currency: "EUR".into(),
                address: test_address(),
                email: "alice@example.com".into(),
                credit_card: test_card(),
            },
        )
        .expect("place_order");
    assert!(order.order_id.starts_with("order-"));
    assert_eq!(order.total.currency_code, "EUR");
    // The manager's own calls are measured in the registry it reports,
    // labelled with the unix sockets they cross.
    assert!(
        deployment
            .metrics()
            .get("boutique.Frontend/place_order/unix/call_nanos")
            .is_some(),
        "manager's ingress call_nanos missing from metrics()"
    );

    // Manager aggregation (Figure 3): health checks deliver metrics and
    // call graphs from the proclets. Only proclets call the payment
    // service, so its `call_nanos` come from a proclet's load report.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let graph = deployment.callgraph();
        let proclet_calls = deployment.metrics().metrics.iter().any(|(name, _)| {
            name.starts_with("boutique.PaymentService/") && name.ends_with("/call_nanos")
        });
        if proclet_calls
            && graph
                .components()
                .iter()
                .any(|c| c == "boutique.CheckoutService")
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "manager never aggregated proclet call graphs and call_nanos"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    // Load reports are cumulative: with no traffic, readings several health
    // checks apart must agree (the first waits out reports still in flight).
    std::thread::sleep(Duration::from_millis(600));
    let settled = (deployment.callgraph(), deployment.metrics());
    assert!(
        !settled
            .1
            .metrics
            .iter()
            .any(|(name, _)| name.ends_with("/tcp/call_nanos")),
        "a call over a unix socket was labelled tcp"
    );
    std::thread::sleep(Duration::from_millis(800));
    assert_eq!(
        (deployment.callgraph(), deployment.metrics()),
        settled,
        "idle call graph or metrics changed between health checks"
    );
    deployment.shutdown();
}

/// Every proclet the deployer spawned shares its host, so every route it
/// installs is a unix socket, and the boutique serves a checkout over them.
fn every_route_is_a_unix_socket() {
    let deployment = deploy("[]", 1);
    let routing = deployment.routing();
    assert_eq!(routing.routes.len(), test_registry().iter().count());
    for (component, endpoints) in &routing.routes {
        assert_eq!(endpoints.len(), 1, "component #{component}");
        assert!(
            endpoints.iter().all(|e| matches!(e, Endpoint::Unix(_))),
            "component #{component} routes over {endpoints:?}"
        );
    }
    let ctx = deployment.root_context();
    let frontend = deployment.get::<dyn Frontend>().expect("frontend");
    frontend
        .add_to_cart(&ctx, "frank".into(), "OLJCESPC7Z".into(), 1)
        .expect("add_to_cart");
    let order = frontend
        .place_order(
            &ctx,
            PlaceOrderRequest {
                user_id: "frank".into(),
                user_currency: "USD".into(),
                address: test_address(),
                email: "frank@example.com".into(),
                credit_card: test_card(),
            },
        )
        .expect("place_order");
    assert!(order.order_id.starts_with("order-"));
    deployment.shutdown();
}

/// The catalog's route: the endpoint its one replica registered.
fn catalog_endpoint(deployment: &MultiProcess) -> Option<Endpoint> {
    let id = test_registry()
        .id_of("boutique.ProductCatalog")
        .expect("catalog id");
    deployment.routing().routes.get(&id)?.first().copied()
}

/// The runtime's "restarting components when they fail", at proclet
/// granularity: kill a replica and watch the manager heal it. The
/// restarted proclet binds a name of its own, and callers follow it there.
fn replica_crash_heals() {
    let deployment = deploy("[]", 1);
    let ctx = deployment.root_context();
    let frontend = deployment.get::<dyn Frontend>().expect("frontend");
    frontend
        .home(&ctx, "bob".into(), "USD".into())
        .expect("warm call");

    // Kill the catalog's proclet (group of ProductCatalog).
    let groups = deployment.groups();
    let catalog_group = groups
        .iter()
        .position(|g| g.contains(&"boutique.ProductCatalog"))
        .expect("catalog group") as u32;
    let before = catalog_endpoint(&deployment).expect("catalog routed");
    deployment.kill_replica(catalog_group, 0);

    // Calls may fail while the manager respawns; they must succeed again
    // within the healing window.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let ctx = deployment.root_context();
        match frontend.home(&ctx, "bob".into(), "USD".into()) {
            Ok(home) if catalog_endpoint(&deployment).is_some_and(|e| e != before) => {
                assert!(home.products.len() >= 12);
                break;
            }
            Ok(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(100));
            }
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(100));
            }
            Err(e) => panic!("never healed after replica kill: {e}"),
            Ok(_) => panic!("the restarted catalog still routes at {before}"),
        }
    }
    let after = catalog_endpoint(&deployment).expect("catalog routed");
    assert!(matches!(after, Endpoint::Unix(_)), "restarted at {after}");
    deployment.shutdown();
}

/// The HPA lever: scale a group up, then back down, with routing updated.
fn scale_group_up_and_down() {
    let deployment = deploy("[]", 1);
    let ctx = deployment.root_context();
    let frontend = deployment.get::<dyn Frontend>().expect("frontend");
    frontend
        .home(&ctx, "carol".into(), "USD".into())
        .expect("baseline call");

    let groups = deployment.groups();
    let catalog_group = groups
        .iter()
        .position(|g| g.contains(&"boutique.ProductCatalog"))
        .expect("catalog group") as u32;

    deployment.scale_group(catalog_group, 3).expect("scale up");
    assert_eq!(deployment.registered_replicas(catalog_group), 3);
    for _ in 0..5 {
        frontend
            .home(&ctx, "carol".into(), "USD".into())
            .expect("call with 3 replicas");
    }

    deployment
        .scale_group(catalog_group, 1)
        .expect("scale down");
    let deadline = Instant::now() + Duration::from_secs(5);
    while deployment.registered_replicas(catalog_group) > 1 {
        assert!(Instant::now() < deadline, "scale-down never completed");
        std::thread::sleep(Duration::from_millis(50));
    }
    for _ in 0..5 {
        frontend
            .home(&ctx, "carol".into(), "USD".into())
            .expect("call after scale down");
    }
    deployment.shutdown();
}

/// 3 → 1 → 3 without waiting for the retired proclets to exit: their late
/// exits must not tear down the replicas spawned in their place.
fn scale_down_and_up_at_once() {
    let deployment = deploy("[]", 1);
    let catalog_group = deployment
        .groups()
        .iter()
        .position(|g| g.contains(&"boutique.ProductCatalog"))
        .expect("catalog group") as u32;
    deployment.scale_group(catalog_group, 3).expect("scale up");
    deployment
        .scale_group(catalog_group, 1)
        .expect("scale down");
    deployment
        .scale_group(catalog_group, 3)
        .expect("scale back up");
    let until = Instant::now() + Duration::from_secs(2);
    while Instant::now() < until {
        assert_eq!(
            deployment.registered_replicas(catalog_group),
            3,
            "a retired proclet's exit tore down its successor"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let frontend = deployment.get::<dyn Frontend>().expect("frontend");
    frontend
        .home(&deployment.root_context(), "erin".into(), "USD".into())
        .expect("call after scaling back up");
    deployment.shutdown();
}

/// Components in one co-location group share an OS process; separated
/// components do not.
fn colocation_is_respected() {
    let deployment = deploy(
        r#"[["boutique.Frontend", "boutique.CurrencyService", "boutique.ProductCatalog", "boutique.RecommendationService", "boutique.AdService", "boutique.CartService", "boutique.CheckoutService", "boutique.Shipping", "boutique.PaymentService", "boutique.EmailService"]]"#,
        1,
    );
    // The ten boutique components share one group; the test-only slow
    // worker gets its own → two proclet processes.
    assert_eq!(deployment.groups().len(), 2);
    let ctx = deployment.root_context();
    let frontend = deployment.get::<dyn Frontend>().expect("frontend");
    let home = frontend
        .home(&ctx, "dave".into(), "USD".into())
        .expect("colocated call");
    assert!(home.products.len() >= 12);

    // The manager-side ingress edge is the only RPC; inner edges are plain
    // calls and never appear in proclet call graphs.
    std::thread::sleep(Duration::from_millis(400));
    let graph = deployment.callgraph();
    let inner_edges: Vec<_> = graph
        .edges
        .iter()
        .filter(|(e, _)| !e.caller.is_empty())
        .collect();
    assert!(
        inner_edges.is_empty(),
        "co-located components produced RPC edges: {inner_edges:?}"
    );
    deployment.shutdown();
}

/// This process's live children that serve a baseline service, by service
/// id, found through every thread's `children` list.
fn baseline_children() -> HashMap<u32, u32> {
    let mut services = HashMap::new();
    for task in std::fs::read_dir("/proc/self/task")
        .expect("tasks")
        .flatten()
    {
        let children = std::fs::read_to_string(task.path().join("children")).unwrap_or_default();
        for pid in children.split_ascii_whitespace() {
            let pid: u32 = pid.parse().expect("pid");
            let environ = std::fs::read(format!("/proc/{pid}/environ")).unwrap_or_default();
            let service = environ
                .split(|&b| b == 0)
                .filter_map(|var| std::str::from_utf8(var).ok())
                .find_map(|var| var.strip_prefix(&format!("{}=", baseline::ENV_SERVICE)))
                .map(|id| id.parse::<u32>().expect("service id"));
            if let Some(service) = service {
                assert!(
                    services.insert(service, pid).is_none(),
                    "two processes serve service {service}"
                );
            }
        }
    }
    services
}

/// The baseline's one-process-per-service layout: every service has a pid
/// of its own, an open-loop run through the frontend sees no error, and a
/// killed service fails the next call that needs it instead of hanging it.
fn process_baseline_serves_and_fails_cleanly() {
    let deployment = baseline::BaselineDeployment::spawn().expect("spawn baseline");
    assert_eq!(deployment.service_count(), 10);
    let services = baseline_children();
    assert_eq!(services.len(), 10, "service processes: {services:?}");
    let pids: std::collections::HashSet<u32> = services.values().copied().collect();
    assert_eq!(pids.len(), 10, "services share a process: {services:?}");
    assert!(!pids.contains(&std::process::id()));

    let report = boutique::loadgen::run_load(
        deployment.frontend(),
        &boutique::loadgen::LoadOptions {
            workers: 4,
            duration: Duration::from_secs(1),
            target_qps: Some(200.0),
            ..Default::default()
        },
    );
    assert_eq!(report.errors, 0, "errors in {} requests", report.requests);
    assert!(
        report.orders >= 1,
        "no order in {} requests",
        report.requests
    );

    // Kill the cart service and wait until it is a zombie: its sockets are
    // closed by then.
    let cart = services[&(baseline::ServiceId::Cart as u32)];
    let killed = Command::new("kill")
        .args(["-9", &cart.to_string()])
        .status()
        .expect("run kill");
    assert!(killed.success(), "kill -9 {cart}: {killed:?}");
    let deadline = Instant::now() + Duration::from_secs(5);
    while !std::fs::read_to_string(format!("/proc/{cart}/stat")).is_ok_and(|stat| {
        stat.rsplit(')')
            .next()
            .is_some_and(|s| s.trim_start().starts_with('Z'))
    }) {
        assert!(Instant::now() < deadline, "cart {cart} never died");
        std::thread::sleep(Duration::from_millis(10));
    }

    let timeout = Duration::from_secs(5);
    let ctx = weaver_core::CallContext::root(1).with_timeout(timeout);
    let started = Instant::now();
    let result = deployment
        .frontend()
        .add_to_cart(&ctx, "grace".into(), "OLJCESPC7Z".into(), 1);
    assert!(result.is_err(), "add_to_cart succeeded with cart dead");
    assert!(
        started.elapsed() < timeout,
        "add_to_cart took {:?} to fail",
        started.elapsed()
    );
}
