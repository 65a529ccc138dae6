//! The per-process table of live component instances.
//!
//! A proclet "manages the components in a running binary. It runs them,
//! starts them, stops them" (§4.3). `LiveComponents` is that table: starting
//! a component constructs it via its registered constructor, which may
//! recursively start its local dependencies. Concurrent starters of the
//! same component wait for the first; a thread that re-enters a component
//! it is itself starting gets [`WeaverError::InitCycle`] instead of a
//! deadlock.

use std::collections::HashMap;
use std::sync::Arc;
use std::thread::ThreadId;

use parking_lot::{Condvar, Mutex, RwLock};
use weaver_metrics::stripe::{stripe, CacheLine, STRIPES};

use crate::context::{ComponentGetter, InitContext};
use crate::error::WeaverError;
use crate::registry::{ComponentRegistry, ErasedInstance};

enum Slot {
    Starting(ThreadId),
    Ready(ErasedInstance),
    Failed(WeaverError),
}

/// The live-instance table of one proclet.
pub struct LiveComponents {
    registry: Arc<ComponentRegistry>,
    slots: Mutex<HashMap<u32, Slot>>,
    started: Condvar,
    /// Read-mostly fast path: once a component is `Ready` it is published
    /// here, so the per-dispatch hot path takes a shared read lock instead
    /// of the state-machine mutex. One table per stripe, each holding its
    /// own `Arc` of every instance: a call's read lock and clone write only
    /// its thread's stripe. Written, every copy, under `slots`' lock.
    ready: [CacheLine<RwLock<ReadyTable>>; STRIPES],
}

/// One stripe's running instances, by component id.
type ReadyTable = HashMap<u32, Arc<ErasedInstance>>;

impl LiveComponents {
    /// Creates an empty table over `registry`.
    pub fn new(registry: Arc<ComponentRegistry>) -> Self {
        LiveComponents {
            registry,
            slots: Mutex::new(HashMap::new()),
            started: Condvar::new(),
            ready: Default::default(),
        }
    }

    /// The registry this table draws constructors from.
    pub fn registry(&self) -> &Arc<ComponentRegistry> {
        &self.registry
    }

    /// Returns the instance for component `id`, starting it if needed.
    ///
    /// `getter` is used to satisfy the component's own dependencies during
    /// construction (which may re-enter this table for local dependencies).
    /// A running instance comes back as the calling thread's stripe's `Arc`.
    pub fn get_or_start(
        &self,
        id: u32,
        getter: &dyn ComponentGetter,
    ) -> Result<Arc<ErasedInstance>, WeaverError> {
        if let Some(instance) = self.ready[stripe()].read().get(&id) {
            return Ok(Arc::clone(instance));
        }
        let me = std::thread::current().id();
        {
            let mut slots = self.slots.lock();
            loop {
                match slots.get(&id) {
                    Some(Slot::Ready(instance)) => return Ok(Arc::new(instance.clone())),
                    Some(Slot::Failed(e)) => return Err(e.clone()),
                    Some(Slot::Starting(owner)) => {
                        if *owner == me {
                            let name = self.registry.get(id)?.name;
                            return Err(WeaverError::InitCycle {
                                component: name.into(),
                            });
                        }
                        self.started.wait(&mut slots);
                    }
                    None => {
                        slots.insert(id, Slot::Starting(me));
                        break;
                    }
                }
            }
        }

        // Construct outside the lock: init may start other local components.
        let result = self
            .registry
            .get(id)
            .and_then(|reg| reg.construct(&InitContext::new(getter)));

        let mut slots = self.slots.lock();
        let out = match result {
            Ok(instance) => {
                for ready in &self.ready {
                    ready.write().insert(id, Arc::new(instance.clone()));
                }
                slots.insert(id, Slot::Ready(instance.clone()));
                Ok(Arc::new(instance))
            }
            Err(e) => {
                // Record the failure so every waiter sees it, then clear the
                // slot: a later attempt may succeed (e.g. a dependency came
                // back). Waiters woken now observe Failed before removal
                // because we hold the lock across both operations... which a
                // HashMap cannot express — so leave Failed in place and let
                // `restart` clear it explicitly.
                slots.insert(id, Slot::Failed(e.clone()));
                Err(e)
            }
        };
        self.started.notify_all();
        out
    }

    /// True when component `id` is already running and is a leaf (its
    /// `init` acquired no component reference). False while it is starting,
    /// failed or awaiting a restart, so a caller that must not block never
    /// triggers construction. Takes only the calling thread's stripe's
    /// shared read lock.
    pub fn is_ready_leaf(&self, id: u32) -> bool {
        self.ready[stripe()].read().get(&id).is_some_and(|i| i.leaf)
    }

    /// Drops component `id`'s instance (crash simulation / restart). The
    /// next `get_or_start` constructs a fresh replica — the paper's
    /// "restarts them on failure".
    pub fn restart(&self, id: u32) {
        // Under the slots lock, as a start publishes: a start finishing now
        // cannot leave the old instance in a stripe this has cleared.
        let mut slots = self.slots.lock();
        for ready in &self.ready {
            ready.write().remove(&id);
        }
        slots.remove(&id);
        self.started.notify_all();
    }

    /// Ids of all currently running components, ascending.
    pub fn running(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self
            .slots
            .lock()
            .iter()
            .filter_map(|(id, slot)| match slot {
                Slot::Ready(_) => Some(*id),
                _ => None,
            })
            .collect();
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientHandle;
    use crate::component::{Component, ComponentInterface};
    use crate::context::{Acquired, CallContext};
    use crate::registry::RegistryBuilder;
    use std::sync::atomic::{AtomicUsize, Ordering};

    // A tiny hand-expanded component (what #[component] would generate) so
    // this crate's tests do not depend on the macro crate.
    trait Echo: Send + Sync + 'static {
        fn echo(&self, ctx: &CallContext, v: u64) -> Result<u64, WeaverError>;
    }

    struct EchoClient {
        handle: ClientHandle,
    }

    impl Echo for EchoClient {
        fn echo(&self, ctx: &CallContext, v: u64) -> Result<u64, WeaverError> {
            let args = weaver_codec::encode_to_vec(&v);
            let reply = self.handle.call(ctx, 0, None, args)?;
            crate::client::decode_reply::<u64>(&reply)
        }
    }

    impl ComponentInterface for dyn Echo {
        const NAME: &'static str = "test.Echo";
        const METHODS: &'static [crate::component::MethodSpec] = &[crate::component::MethodSpec {
            name: "echo",
            routed: false,
        }];
        fn client(handle: ClientHandle) -> Arc<Self> {
            Arc::new(EchoClient { handle })
        }
        fn dispatch(
            this: &Self,
            method: u32,
            ctx: &CallContext,
            args: &[u8],
        ) -> Result<Vec<u8>, WeaverError> {
            match method {
                0 => {
                    let v: u64 = weaver_codec::decode_from_slice(args)?;
                    Ok(crate::client::encode_reply(&this.echo(ctx, v)))
                }
                m => Err(WeaverError::UnknownMethod {
                    component: Self::NAME.into(),
                    method: m,
                }),
            }
        }
    }

    static ECHO_INITS: AtomicUsize = AtomicUsize::new(0);

    /// Serializes the tests that start `EchoImpl`: two of them count its
    /// inits in `ECHO_INITS`, which every start bumps.
    fn echo_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    struct EchoImpl;

    impl Echo for EchoImpl {
        fn echo(&self, _ctx: &CallContext, v: u64) -> Result<u64, WeaverError> {
            Ok(v + 1)
        }
    }

    impl Component for EchoImpl {
        type Interface = dyn Echo;
        fn init(_ctx: &InitContext<'_>) -> Result<Self, WeaverError> {
            ECHO_INITS.fetch_add(1, Ordering::SeqCst);
            Ok(EchoImpl)
        }
        fn into_interface(self: Arc<Self>) -> Arc<dyn Echo> {
            self
        }
    }

    // A component that depends on Echo, for recursive-start testing.
    trait Doubler: Send + Sync + 'static {
        fn double_plus(&self, ctx: &CallContext, v: u64) -> Result<u64, WeaverError>;
    }

    struct DoublerClient;
    impl Doubler for DoublerClient {
        fn double_plus(&self, _: &CallContext, _: u64) -> Result<u64, WeaverError> {
            Err(WeaverError::internal("client not used in this test"))
        }
    }

    impl ComponentInterface for dyn Doubler {
        const NAME: &'static str = "test.Doubler";
        const METHODS: &'static [crate::component::MethodSpec] = &[crate::component::MethodSpec {
            name: "double_plus",
            routed: false,
        }];
        fn client(_handle: ClientHandle) -> Arc<Self> {
            Arc::new(DoublerClient)
        }
        fn dispatch(
            this: &Self,
            method: u32,
            ctx: &CallContext,
            args: &[u8],
        ) -> Result<Vec<u8>, WeaverError> {
            match method {
                0 => {
                    let v: u64 = weaver_codec::decode_from_slice(args)?;
                    Ok(crate::client::encode_reply(&this.double_plus(ctx, v)))
                }
                m => Err(WeaverError::UnknownMethod {
                    component: Self::NAME.into(),
                    method: m,
                }),
            }
        }
    }

    struct DoublerImpl {
        echo: Arc<dyn Echo>,
    }

    impl Doubler for DoublerImpl {
        fn double_plus(&self, ctx: &CallContext, v: u64) -> Result<u64, WeaverError> {
            Ok(self.echo.echo(ctx, v)? * 2)
        }
    }

    impl Component for DoublerImpl {
        type Interface = dyn Doubler;
        fn init(ctx: &InitContext<'_>) -> Result<Self, WeaverError> {
            Ok(DoublerImpl {
                echo: ctx.component::<dyn Echo>()?,
            })
        }
        fn into_interface(self: Arc<Self>) -> Arc<dyn Doubler> {
            self
        }
    }

    fn test_registry() -> Arc<ComponentRegistry> {
        Arc::new(
            RegistryBuilder::new()
                .register::<EchoImpl>()
                .register::<DoublerImpl>()
                .build(),
        )
    }

    /// A getter resolving everything locally through one LiveComponents.
    struct LocalGetter {
        live: Arc<LiveComponents>,
    }

    impl ComponentGetter for LocalGetter {
        fn acquire(&self, name: &str) -> Result<Acquired, WeaverError> {
            let id = self.live.registry.id_of(name)?;
            let instance = self.live.get_or_start(id, self)?;
            Ok(Acquired::Local(Arc::clone(&instance.iface_any)))
        }
    }

    #[test]
    fn registry_ids_are_name_sorted() {
        let reg = test_registry();
        assert_eq!(reg.names(), vec!["test.Doubler", "test.Echo"]);
        assert_eq!(reg.id_of("test.Doubler").unwrap(), 0);
        assert_eq!(reg.id_of("test.Echo").unwrap(), 1);
        assert!(reg.id_of("nope").is_err());
    }

    #[test]
    fn start_dispatch_and_local_access() {
        let _serial = echo_lock();
        let reg = test_registry();
        let live = Arc::new(LiveComponents::new(Arc::clone(&reg)));
        let getter = LocalGetter {
            live: Arc::clone(&live),
        };
        let echo_id = reg.id_of("test.Echo").unwrap();
        let instance = live.get_or_start(echo_id, &getter).unwrap();

        // Dispatch path (what a remote call would exercise).
        let args = weaver_codec::encode_to_vec(&41u64);
        let reply = (instance.dispatch)(0, &CallContext::test(), &args).unwrap();
        assert_eq!(crate::client::decode_reply::<u64>(&reply).unwrap(), 42);

        // Typed local access (what a co-located caller gets).
        let iface = instance.iface_any.downcast_ref::<Arc<dyn Echo>>().unwrap();
        assert_eq!(iface.echo(&CallContext::test(), 1).unwrap(), 2);
    }

    #[test]
    fn recursive_start_of_dependencies() {
        let _serial = echo_lock();
        let reg = test_registry();
        let live = Arc::new(LiveComponents::new(Arc::clone(&reg)));
        let getter = LocalGetter {
            live: Arc::clone(&live),
        };
        let doubler_id = reg.id_of("test.Doubler").unwrap();
        let instance = live.get_or_start(doubler_id, &getter).unwrap();
        let iface = instance
            .iface_any
            .downcast_ref::<Arc<dyn Doubler>>()
            .unwrap();
        assert_eq!(iface.double_plus(&CallContext::test(), 20).unwrap(), 42);
        // Echo was started as a side effect.
        assert_eq!(live.running().len(), 2);
    }

    #[test]
    fn leaf_is_a_ready_component_that_acquired_nothing() {
        let _serial = echo_lock();
        let reg = test_registry();
        let live = Arc::new(LiveComponents::new(Arc::clone(&reg)));
        let getter = LocalGetter {
            live: Arc::clone(&live),
        };
        let echo_id = reg.id_of("test.Echo").unwrap();
        let doubler_id = reg.id_of("test.Doubler").unwrap();
        assert!(!live.is_ready_leaf(echo_id), "not started yet");
        // Starting the doubler starts the echo it acquires.
        assert!(!live.get_or_start(doubler_id, &getter).unwrap().leaf);
        assert!(live.is_ready_leaf(echo_id));
        assert!(!live.is_ready_leaf(doubler_id));
        live.restart(echo_id);
        assert!(!live.is_ready_leaf(echo_id), "awaiting re-init");
        assert!(live.get_or_start(echo_id, &getter).unwrap().leaf);
        assert!(live.is_ready_leaf(echo_id));
    }

    #[test]
    fn single_instance_under_concurrency() {
        let _serial = echo_lock();
        ECHO_INITS.store(0, Ordering::SeqCst);
        let reg = test_registry();
        let live = Arc::new(LiveComponents::new(Arc::clone(&reg)));
        let echo_id = reg.id_of("test.Echo").unwrap();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let live = Arc::clone(&live);
                std::thread::spawn(move || {
                    let getter = LocalGetter {
                        live: Arc::clone(&live),
                    };
                    live.get_or_start(echo_id, &getter).unwrap();
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(ECHO_INITS.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn restart_constructs_fresh_instance() {
        let _serial = echo_lock();
        ECHO_INITS.store(0, Ordering::SeqCst);
        let reg = test_registry();
        let live = Arc::new(LiveComponents::new(Arc::clone(&reg)));
        let getter = LocalGetter {
            live: Arc::clone(&live),
        };
        let echo_id = reg.id_of("test.Echo").unwrap();
        live.get_or_start(echo_id, &getter).unwrap();
        live.restart(echo_id);
        live.get_or_start(echo_id, &getter).unwrap();
        assert_eq!(ECHO_INITS.load(Ordering::SeqCst), 2);
    }

    /// Threads that call from different stripes each hold their stripe's
    /// copy of the instance; a restart by another thread must clear every
    /// copy, or a thread keeps calling the crashed instance.
    #[test]
    fn restart_reaches_every_stripe() {
        use std::sync::Barrier;
        const HOLDERS: usize = 4;
        let _serial = echo_lock();
        ECHO_INITS.store(0, Ordering::SeqCst);
        let reg = test_registry();
        let live = Arc::new(LiveComponents::new(Arc::clone(&reg)));
        let echo_id = reg.id_of("test.Echo").unwrap();
        let (started, restarted) = (
            Arc::new(Barrier::new(HOLDERS + 1)),
            Arc::new(Barrier::new(HOLDERS + 1)),
        );
        let address = |i: &ErasedInstance| Arc::as_ptr(&i.iface_any) as *const () as usize;
        let holders: Vec<_> = (0..HOLDERS)
            .map(|_| {
                let (live, started, restarted) = (
                    Arc::clone(&live),
                    Arc::clone(&started),
                    Arc::clone(&restarted),
                );
                std::thread::spawn(move || {
                    let getter = LocalGetter {
                        live: Arc::clone(&live),
                    };
                    let old = live.get_or_start(echo_id, &getter).unwrap();
                    started.wait();
                    restarted.wait();
                    let new = live.get_or_start(echo_id, &getter).unwrap();
                    (address(&old), address(&new))
                })
            })
            .collect();
        started.wait();
        live.restart(echo_id);
        restarted.wait();
        let seen: Vec<(usize, usize)> = holders.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(ECHO_INITS.load(Ordering::SeqCst), 2);
        let (old, new) = seen[0];
        assert_ne!(old, new, "a holder kept the restarted instance");
        assert!(seen.iter().all(|&s| s == (old, new)), "{seen:?}");
    }

    // Mutually recursive components to prove cycle detection. The methods
    // exist only to give the traits a component-shaped shape; nothing calls
    // them because init itself is what cycles.
    #[allow(dead_code)]
    trait CycleA: Send + Sync + 'static {
        fn a(&self, ctx: &CallContext, v: u64) -> Result<u64, WeaverError>;
    }
    #[allow(dead_code)]
    trait CycleB: Send + Sync + 'static {
        fn b(&self, ctx: &CallContext, v: u64) -> Result<u64, WeaverError>;
    }

    macro_rules! trivial_iface {
        ($trait_:ident, $name:literal, $method:ident) => {
            impl ComponentInterface for dyn $trait_ {
                const NAME: &'static str = $name;
                const METHODS: &'static [crate::component::MethodSpec] =
                    &[crate::component::MethodSpec {
                        name: stringify!($method),
                        routed: false,
                    }];
                fn client(_handle: ClientHandle) -> Arc<Self> {
                    unimplemented!("cycle test never builds clients")
                }
                fn dispatch(
                    _this: &Self,
                    _method: u32,
                    _ctx: &CallContext,
                    _args: &[u8],
                ) -> Result<Vec<u8>, WeaverError> {
                    unimplemented!("cycle test never dispatches")
                }
            }
        };
    }

    trivial_iface!(CycleA, "test.CycleA", a);
    trivial_iface!(CycleB, "test.CycleB", b);

    struct AImpl;
    impl CycleA for AImpl {
        fn a(&self, _: &CallContext, v: u64) -> Result<u64, WeaverError> {
            Ok(v)
        }
    }
    impl Component for AImpl {
        type Interface = dyn CycleA;
        fn init(ctx: &InitContext<'_>) -> Result<Self, WeaverError> {
            let _b = ctx.component::<dyn CycleB>()?;
            Ok(AImpl)
        }
        fn into_interface(self: Arc<Self>) -> Arc<dyn CycleA> {
            self
        }
    }

    struct BImpl;
    impl CycleB for BImpl {
        fn b(&self, _: &CallContext, v: u64) -> Result<u64, WeaverError> {
            Ok(v)
        }
    }
    impl Component for BImpl {
        type Interface = dyn CycleB;
        fn init(ctx: &InitContext<'_>) -> Result<Self, WeaverError> {
            let _a = ctx.component::<dyn CycleA>()?;
            Ok(BImpl)
        }
        fn into_interface(self: Arc<Self>) -> Arc<dyn CycleB> {
            self
        }
    }

    #[test]
    fn init_cycles_detected_not_deadlocked() {
        let reg = Arc::new(
            RegistryBuilder::new()
                .register::<AImpl>()
                .register::<BImpl>()
                .build(),
        );
        let live = Arc::new(LiveComponents::new(Arc::clone(&reg)));
        let getter = LocalGetter {
            live: Arc::clone(&live),
        };
        let a_id = reg.id_of("test.CycleA").unwrap();
        let err = live.get_or_start(a_id, &getter).unwrap_err();
        assert!(matches!(err, WeaverError::InitCycle { .. }), "{err}");
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let _ = RegistryBuilder::new()
            .register::<EchoImpl>()
            .register::<EchoImpl>();
    }

    #[test]
    fn failed_init_is_sticky_until_restart() {
        // Reuse the Echo interface with an impl that fails to init.
        struct Flaky;
        impl Echo for Flaky {
            fn echo(&self, _: &CallContext, v: u64) -> Result<u64, WeaverError> {
                Ok(v)
            }
        }
        impl Component for Flaky {
            type Interface = dyn Echo;
            fn init(_: &InitContext<'_>) -> Result<Self, WeaverError> {
                Err(WeaverError::internal("init exploded"))
            }
            fn into_interface(self: Arc<Self>) -> Arc<dyn Echo> {
                self
            }
        }
        let reg = Arc::new(RegistryBuilder::new().register::<Flaky>().build());
        let live = Arc::new(LiveComponents::new(Arc::clone(&reg)));
        let getter = LocalGetter {
            live: Arc::clone(&live),
        };
        let id = reg.id_of("test.Echo").unwrap();
        assert!(live.get_or_start(id, &getter).is_err());
        // Sticky failure without restart.
        assert!(live.get_or_start(id, &getter).is_err());
        live.restart(id);
        // Still fails (impl always fails), but the path re-ran init.
        assert!(live.get_or_start(id, &getter).is_err());
    }
}
