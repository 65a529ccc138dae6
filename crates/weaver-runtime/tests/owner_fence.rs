//! The owner fences: a server checks, against its own routing table, that
//! it owns the key of every routed call it runs.
//!
//! Every proclet has a routing table of its own, and a caller's table lags
//! behind a migration's commit until the new routing reaches it. A caller
//! that still routes a moved key to its old owner must not run the key
//! there against the state the migration took away: the old owner refuses
//! the call, which never ran, and the caller re-sends it once its own table
//! has caught up. Nothing here shares a table.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use weaver_core::client::CallRouter;
use weaver_core::component::{Component, ComponentInterface};
use weaver_core::context::{Acquired, CallContext, ComponentGetter, InitContext};
use weaver_core::error::WeaverError;
use weaver_core::instance::LiveComponents;
use weaver_core::registry::{ComponentRegistry, RegistryBuilder};
use weaver_metrics::{CallGraph, MetricsRegistry};
use weaver_routing::{Slice, SliceAssignment};
use weaver_runtime::dispatch::ProcletDispatcher;
use weaver_runtime::router::{RemoteRouter, RoutingState, RoutingTable};
use weaver_transport::{Endpoint, RequestHeader, RpcHandler, Server, Status, WeaverFraming};

#[weaver_macros::component(name = "test.Counter")]
trait Counter {
    #[routed]
    fn bump(&self, ctx: &CallContext, key: u64) -> Result<u64, WeaverError>;
    fn export_keys(&self, ctx: &CallContext, start: u64, end: u64) -> Result<Vec<u8>, WeaverError>;
    fn import_keys(&self, ctx: &CallContext, blob: Vec<u8>) -> Result<u64, WeaverError>;
}

/// Per-key bump counts; the handoff pair moves them, so a count that
/// restarts at 1 shows a key ran where its state is not.
#[derive(Default)]
struct CounterImpl {
    counts: Mutex<HashMap<u64, u64>>,
}

impl Counter for CounterImpl {
    fn bump(&self, _: &CallContext, key: u64) -> Result<u64, WeaverError> {
        let mut counts = self.counts.lock().unwrap();
        let n = counts.entry(key).or_insert(0);
        *n += 1;
        Ok(*n)
    }

    fn export_keys(&self, _: &CallContext, start: u64, end: u64) -> Result<Vec<u8>, WeaverError> {
        let mut counts = self.counts.lock().unwrap();
        let moving: Vec<(u64, u64)> = counts
            .iter()
            .map(|(&k, &n)| (k, n))
            .filter(|&(k, _)| weaver_transport::in_slice(start, end, weaver_core::routing_key(&k)))
            .collect();
        for (k, _) in &moving {
            counts.remove(k);
        }
        Ok(weaver_codec::encode_to_vec(&moving))
    }

    fn import_keys(&self, _: &CallContext, blob: Vec<u8>) -> Result<u64, WeaverError> {
        let moved: Vec<(u64, u64)> = weaver_codec::decode_from_slice(&blob)?;
        let mut counts = self.counts.lock().unwrap();
        for &(k, n) in &moved {
            *counts.entry(k).or_insert(0) += n;
        }
        Ok(moved.len() as u64)
    }
}

impl Component for CounterImpl {
    type Interface = dyn Counter;
    fn init(_: &InitContext<'_>) -> Result<Self, WeaverError> {
        Ok(Self::default())
    }
    fn into_interface(self: Arc<Self>) -> Arc<dyn Counter> {
        self
    }
}

struct NoDeps;
impl ComponentGetter for NoDeps {
    fn acquire(&self, name: &str) -> Result<Acquired, WeaverError> {
        Err(WeaverError::UnknownComponent { name: name.into() })
    }
}

fn registry() -> Arc<ComponentRegistry> {
    Arc::new(RegistryBuilder::new().register::<CounterImpl>().build())
}

/// One server with a routing table and a dispatcher of its own, as every
/// proclet has.
struct Owner {
    table: Arc<RoutingTable>,
    dispatcher: Arc<ProcletDispatcher>,
    server: Server<WeaverFraming>,
}

impl Owner {
    fn start(registry: &Arc<ComponentRegistry>) -> Owner {
        let table = RoutingTable::new();
        let dispatcher = Arc::new(ProcletDispatcher::new(
            Arc::new(LiveComponents::new(Arc::clone(registry))),
            Arc::new(NoDeps),
            1,
            Arc::new(MetricsRegistry::new()),
            Arc::default(),
            Arc::clone(&table),
        ));
        let server = dispatcher.serve(Endpoint::fresh_unix(), 2).expect("bind");
        Owner {
            table,
            dispatcher,
            server,
        }
    }

    fn endpoint(&self) -> Endpoint {
        self.server.endpoint()
    }

    /// Calls `method` here directly, as the migration's control plane does.
    fn call(
        &self,
        method: u32,
        routing: Option<u64>,
        args: Vec<u8>,
    ) -> Result<Vec<u8>, WeaverError> {
        let header = RequestHeader {
            component: 0,
            method,
            version: 1,
            routing,
            idempotency: Some(weaver_runtime::router::next_idempotency_key()),
            ..Default::default()
        };
        let body = self.dispatcher.handle(&header, &args);
        match body.status {
            Status::Ok => Ok(body.payload.to_vec()),
            Status::Error => Err(weaver_codec::decode_from_slice(&body.payload).unwrap()),
        }
    }
}

/// Routing at `epoch`: the counter on `routes`, its whole keyspace one
/// slice on `replica`.
fn routing(epoch: u64, routes: &[Endpoint], replica: u32) -> RoutingState {
    let assignment = SliceAssignment {
        version: epoch,
        replica_count: routes.len() as u32,
        slices: vec![Slice {
            start: 0,
            end: u64::MAX,
            replica,
        }],
    };
    RoutingState {
        epoch,
        routes: [(0, routes.to_vec())].into(),
        assignments: [(0, assignment)].into(),
    }
}

/// A caller whose router resolves through `table` and nothing else.
fn caller(registry: &ComponentRegistry, table: &Arc<RoutingTable>) -> Arc<dyn Counter> {
    let router = RemoteRouter::new(Arc::clone(table), Arc::new(CallGraph::new()), 1);
    let handle = registry.client_handle::<dyn Counter>(Arc::new(router) as Arc<dyn CallRouter>);
    <dyn Counter as ComponentInterface>::client(handle.unwrap())
}

fn ctx() -> CallContext {
    CallContext::root(1).with_timeout(Duration::from_secs(5))
}

/// Row 1: a commit at epoch 2 moves every key, with its state, from A to B.
/// The caller still routes at epoch 1. A refuses the moved key, B answers
/// it exactly once, and the call completes when the caller's table catches
/// up.
#[test]
fn a_stale_caller_is_refused_by_the_old_owner_and_served_once_by_the_new() {
    let registry = registry();
    let (a, b) = (Owner::start(&registry), Owner::start(&registry));
    let routes = [a.endpoint(), b.endpoint()];
    let stale = RoutingTable::new();
    for table in [&a.table, &b.table, &stale] {
        table.update(routing(1, &routes, 0));
    }
    let counter = caller(&registry, &stale);
    let key = 42;
    assert_eq!(counter.bump(&ctx(), key).unwrap(), 1);
    assert_eq!(counter.bump(&ctx(), key).unwrap(), 2);

    // The migration: A hands its state to B, and both owners install the
    // commit. The caller's table stays at epoch 1.
    let blob = a
        .call(1, None, weaver_codec::encode_to_vec(&(0u64, u64::MAX)))
        .unwrap();
    let blob: Vec<u8> = weaver_core::client::decode_reply(&blob).unwrap();
    let imported = b.call(2, None, weaver_codec::encode_to_vec(&blob)).unwrap();
    assert_eq!(weaver_core::client::decode_reply::<u64>(&imported), Ok(1));
    for table in [&a.table, &b.table] {
        table.update(routing(2, &routes, 1));
    }

    let args = weaver_codec::encode_to_vec(&key);
    assert_eq!(
        a.call(0, Some(weaver_core::routing_key(&key)), args),
        Err(WeaverError::Fenced { epoch: 2 }),
        "the old owner ran a key it no longer owns"
    );

    std::thread::scope(|scope| {
        let bump = scope.spawn(|| counter.bump(&ctx(), key));
        std::thread::sleep(Duration::from_millis(200));
        assert!(
            !bump.is_finished(),
            "the stale caller's bump completed before its table caught up: {:?}",
            bump.join()
        );
        stale.update(routing(2, &routes, 1));
        assert_eq!(
            bump.join().unwrap(),
            Ok(3),
            "the count did not continue at B"
        );
    });
    // B ran the bump once: the count continues from there.
    assert_eq!(counter.bump(&ctx(), key).unwrap(), 4);
}

/// Row 2: a group lost replica 1, so its routes are `[r0, r2]`, and the
/// slice still names replica 2. The router resolves it to `r0` (replica
/// index modulo the routes), so `r0` owns it: identity is the endpoint,
/// not the replica index.
#[test]
fn an_owner_admits_the_keys_it_is_routed_by_endpoint_not_replica_index() {
    let registry = registry();
    let r0 = Owner::start(&registry);
    let routes = [r0.endpoint(), Endpoint::fresh_unix()];
    r0.table.update(routing(1, &routes, 2));
    let table = RoutingTable::new();
    table.update(routing(1, &routes, 2));
    let counter = caller(&registry, &table);
    let ctx = CallContext::root(1).with_timeout(Duration::from_secs(2));
    for key in 0..8 {
        assert_eq!(counter.bump(&ctx, key), Ok(1), "key {key}");
    }
}
