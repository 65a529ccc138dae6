//! The single-process deployer.
//!
//! Everything runs in one OS process. Two modes:
//!
//! * [`SingleMode::Colocated`] — component references are the
//!   implementations themselves; calls are plain method calls with zero
//!   marshaling. This is the configuration behind the paper's follow-up
//!   result ("when we co-locate all eleven components into a single OS
//!   process, the number of cores drops to 9 and the median latency drops
//!   to 0.38 ms").
//! * [`SingleMode::Marshaled`] — every cross-component call takes the full
//!   RPC path (encode header+args, dispatch, decode reply) without a
//!   socket. This is the weavertest configuration (§5.3): deterministic,
//!   single-process, yet exercising exactly the bytes that would cross the
//!   network — and the hook point for fault injection.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;

use weaver_core::client::{CallRouter, TargetInfo};
use weaver_core::component::ComponentInterface;
use weaver_core::context::{Acquired, CallContext, ComponentGetter};
use weaver_core::error::WeaverError;
use weaver_core::instance::LiveComponents;
use weaver_core::registry::ComponentRegistry;
use weaver_metrics::trace::{Span, TraceSink};
use weaver_metrics::{
    CallGraph, CallGraphSnapshot, EdgeHandleCache, MetricsRegistry, MetricsSnapshot,
};

/// How component references resolve in a single process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SingleMode {
    /// Plain method calls (all components co-located).
    Colocated,
    /// Full marshal/dispatch per call (weavertest mode).
    Marshaled,
}

/// A fault installed on a component (weavertest / chaos hooks, §5.3).
#[derive(Debug, Clone, Default)]
pub struct ComponentFault {
    /// Fail this many upcoming calls with `Unavailable`.
    pub fail_next: u64,
    /// Injected latency per call.
    pub delay: Duration,
    /// While set, every call fails (replica down).
    pub down: bool,
}

impl ComponentFault {
    /// True when the fault changes nothing about a call.
    fn is_noop(&self) -> bool {
        !self.down && self.delay.is_zero() && self.fail_next == 0
    }
}

/// The faults installed on a deployment's components, by component name.
///
/// On a cache line of its own: calls only read it while nothing is
/// installed, and a neighbouring field that is written per call would make
/// every one of those reads a miss.
#[derive(Default)]
#[repr(align(64))]
pub(crate) struct FaultMap {
    /// How many entries `by_component` holds. Every call on every replica
    /// asks whether its target is faulted and, outside a chaos test, the
    /// answer is no: reading this first keeps those calls off the lock
    /// word, which every calling thread would otherwise write.
    installed: AtomicUsize,
    by_component: RwLock<HashMap<String, ComponentFault>>,
}

impl FaultMap {
    /// Installs `fault` on `component`; the default value clears it.
    pub(crate) fn install(&self, component: &str, fault: ComponentFault) {
        let mut faults = self.by_component.write();
        if fault.is_noop() {
            faults.remove(component);
        } else {
            faults.insert(component.to_string(), fault);
        }
        self.installed.store(faults.len(), Ordering::Release);
    }

    /// Whether a call to `component` would currently be failed or delayed.
    pub(crate) fn is_active(&self, component: &str) -> bool {
        self.installed.load(Ordering::Acquire) != 0
            && self
                .by_component
                .read()
                .get(component)
                .is_some_and(|f| !f.is_noop())
    }

    /// Applies the fault installed on `component`, if any: `down` beats
    /// everything, delays apply to successes and failures alike,
    /// `fail_next` decrements per call.
    ///
    /// Every call on every replica passes through here. With nothing
    /// installed it takes no lock at all; with a fault on some other
    /// component it takes the shared read lock only; the write lock is
    /// taken just to count down `fail_next`.
    pub(crate) fn check(&self, component: &str) -> Result<(), WeaverError> {
        if self.installed.load(Ordering::Acquire) == 0 {
            return Ok(());
        }
        let (down, delay, may_fail) = match self.by_component.read().get(component) {
            Some(fault) if !fault.is_noop() => (fault.down, fault.delay, fault.fail_next > 0),
            _ => return Ok(()),
        };
        // Re-read under the write lock: another call may have taken the
        // last failure, or the fault may have been cleared, in between.
        let fail = may_fail
            && match self.by_component.write().get_mut(component) {
                Some(fault) if fault.fail_next > 0 => {
                    fault.fail_next -= 1;
                    true
                }
                _ => false,
            };
        if down {
            return Err(WeaverError::Unavailable {
                detail: format!("{component} is down (injected)"),
            });
        }
        // Sleep outside the lock so a delayed component stalls neither
        // calls to other components nor the `inject_fault` that clears it.
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        if fail {
            return Err(WeaverError::Unavailable {
                detail: format!("{component} failed (injected)"),
            });
        }
        Ok(())
    }
}

/// The fault-injection surface a deployment exposes to chaos tooling.
///
/// Both the single-process deployer and the real-TCP deployer
/// ([`crate::tcp::TcpProcess`]) implement it, so one chaos schedule runs
/// unchanged against any placement (§5.3's "fault injection is cheap
/// because the runtime owns placement").
pub trait FaultInjectable: Send + Sync {
    /// Installs (or clears, with the default value) a fault on a component.
    fn inject_fault(&self, component: &str, fault: ComponentFault);

    /// Crashes a component instance so the next call restarts it.
    fn crash_component(&self, component: &str) -> Result<(), WeaverError>;
}

/// The single-process deployment.
pub struct SingleProcess {
    live: Arc<LiveComponents>,
    mode: SingleMode,
    version: u64,
    callgraph: Arc<CallGraph>,
    edge_cache: EdgeHandleCache,
    metrics: Arc<MetricsRegistry>,
    latency: crate::router::LatencyHistograms,
    traces: Arc<TraceSink>,
    faults: FaultMap,
    self_ref: RwLock<std::sync::Weak<SingleProcess>>,
}

impl SingleProcess {
    /// Deploys `registry` in this process.
    pub fn deploy(registry: Arc<ComponentRegistry>, mode: SingleMode, version: u64) -> Arc<Self> {
        let metrics = Arc::new(MetricsRegistry::new());
        let placement = match mode {
            SingleMode::Colocated => "colocated",
            SingleMode::Marshaled => "marshaled",
        };
        let deployment = Arc::new(SingleProcess {
            live: Arc::new(LiveComponents::new(registry)),
            mode,
            version,
            callgraph: Arc::new(CallGraph::new()),
            edge_cache: EdgeHandleCache::new(),
            metrics: Arc::clone(&metrics),
            latency: crate::router::LatencyHistograms::new(metrics, placement),
            traces: TraceSink::new(),
            faults: FaultMap::default(),
            self_ref: RwLock::new(std::sync::Weak::new()),
        });
        *deployment.self_ref.write() = Arc::downgrade(&deployment);
        deployment
    }

    /// The deployment version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// A root call context for driving requests into the deployment.
    pub fn root_context(&self) -> CallContext {
        CallContext::root(self.version)
    }

    /// Returns the component with interface `I` (the paper's `Get[T]`).
    pub fn get<I: ComponentInterface + ?Sized>(&self) -> Result<Arc<I>, WeaverError> {
        match self.acquire(I::NAME)? {
            Acquired::Local(any) => any
                .downcast_ref::<Arc<I>>()
                .map(Arc::clone)
                .ok_or_else(|| WeaverError::internal("wrong instance type")),
            Acquired::Remote(handle) => Ok(I::client(handle)),
        }
    }

    /// Snapshot of the recorded component call graph (only populated in
    /// [`SingleMode::Marshaled`]; co-located calls are invisible by design).
    pub fn callgraph(&self) -> CallGraphSnapshot {
        self.callgraph.snapshot()
    }

    /// Snapshot of runtime metrics, including the transport-plane gauges
    /// (reactor readiness-loop state and RPC dispatch-queue depth)
    /// refreshed at snapshot time.
    pub fn metrics(&self) -> MetricsSnapshot {
        crate::router::record_transport_gauges(&self.metrics);
        self.metrics.snapshot()
    }

    /// Drains the spans recorded so far (only populated in
    /// [`SingleMode::Marshaled`]; §5.1's "metrics, traces, logs").
    pub fn drain_traces(&self) -> Vec<Span> {
        self.traces.drain()
    }

    /// Installs (or clears, with the default value) a fault on a component.
    /// Only effective in [`SingleMode::Marshaled`].
    pub fn inject_fault(&self, component: &str, fault: ComponentFault) {
        self.faults.install(component, fault);
    }

    /// Crashes a component instance: the next call constructs a fresh one,
    /// exercising restart paths.
    pub fn crash_component(&self, component: &str) -> Result<(), WeaverError> {
        let id = self.live.registry().id_of(component)?;
        self.live.restart(id);
        Ok(())
    }

    /// Names of components currently instantiated.
    pub fn running(&self) -> Vec<&'static str> {
        self.live
            .running()
            .into_iter()
            .filter_map(|id| self.live.registry().get(id).ok().map(|r| r.name))
            .collect()
    }

    fn router(&self) -> Arc<dyn CallRouter> {
        self.self_ref
            .read()
            .upgrade()
            .expect("deployment still alive")
    }
}

impl FaultInjectable for SingleProcess {
    fn inject_fault(&self, component: &str, fault: ComponentFault) {
        SingleProcess::inject_fault(self, component, fault);
    }

    fn crash_component(&self, component: &str) -> Result<(), WeaverError> {
        SingleProcess::crash_component(self, component)
    }
}

impl ComponentGetter for SingleProcess {
    fn acquire(&self, name: &str) -> Result<Acquired, WeaverError> {
        let id = self.live.registry().id_of(name)?;
        match self.mode {
            SingleMode::Colocated => {
                let instance = self.live.get_or_start(id, self)?;
                Ok(Acquired::Local(instance.iface_any))
            }
            SingleMode::Marshaled => {
                let registration = self.live.registry().get(id)?;
                Ok(Acquired::Remote(weaver_core::client::ClientHandle::new(
                    TargetInfo {
                        component_id: id,
                        name: registration.name,
                        methods: registration.methods,
                    },
                    self.router(),
                )))
            }
        }
    }
}

impl CallRouter for SingleProcess {
    fn route_call(
        &self,
        target: &TargetInfo,
        ctx: &CallContext,
        method: u32,
        _routing: Option<u64>,
        args: Vec<u8>,
    ) -> Result<Vec<u8>, WeaverError> {
        let started = Instant::now();
        let request_bytes = args.len();
        // This call gets its own span; the caller's span becomes its parent.
        let span_id = weaver_core::context::next_span_id();

        // The §4.4 backstop, mirrored from the transport dispatcher: a
        // request stamped with another deployment's version never reaches a
        // handler. Checked before injected faults — version admission is
        // the deployment boundary, component failures live inside it, so a
        // mis-stamped request is rejected as such even while chaos has the
        // target component down.
        let outcome = if ctx.version != self.version {
            Err(WeaverError::VersionMismatch {
                caller_version: ctx.version,
                callee_version: self.version,
            })
        } else {
            self.faults.check(target.name)
        }
        .and_then(|()| {
            if ctx.expired() {
                return Err(WeaverError::DeadlineExceeded);
            }
            let instance = self.live.get_or_start(target.component_id, self)?;
            let registration = self.live.registry().get(target.component_id)?;
            let inner_ctx = CallContext {
                caller: registration.name,
                span_id,
                ..ctx.clone()
            };
            (instance.dispatch)(method, &inner_ctx, &args)
        });

        let method_name = target.methods.get(method as usize).map_or("?", |m| m.name);
        // An error is either a routing/runtime failure (outcome Err) or an
        // application error riding inside a successful reply.
        let is_error = match &outcome {
            Ok(reply) => weaver_core::client::reply_is_err(reply),
            Err(_) => true,
        };
        if ctx.trace_id != 0 {
            self.traces.record(
                Span {
                    trace_id: ctx.trace_id,
                    span_id,
                    parent_id: ctx.span_id,
                    component: target.name.to_string(),
                    method: method_name.to_string(),
                    start_nanos: 0,
                    duration_nanos: 0,
                    error: is_error,
                },
                started,
                started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
            );
        }
        let elapsed = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        // The cached handle skips the string-keyed edge allocation the way
        // the TCP router does: at marshaled-call speeds (~1µs) building
        // three Strings per call is measurable.
        self.edge_cache
            .handle(
                &self.callgraph,
                ctx.caller,
                target.component_id,
                target.name,
                method,
                method_name,
            )
            .record(
                request_bytes,
                outcome.as_ref().map_or(0, Vec::len),
                elapsed,
                is_error,
            );
        // Per-call latency, keyed the same way the TCP router keys it —
        // one histogram name scheme across placements, recorded at call
        // resolution whether the caller blocked or gathered a future.
        self.latency.record(
            target.component_id,
            target.name,
            method,
            method_name,
            elapsed,
        );
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weaver_core::component::Component;
    use weaver_core::context::InitContext;
    use weaver_core::registry::RegistryBuilder;

    /// A component whose one method does nothing: the test below only cares
    /// which component a call is addressed to.
    macro_rules! nop_component {
        ($iface:ident, $imp:ident, $name:literal) => {
            #[weaver_macros::component(name = $name)]
            trait $iface {
                fn ping(&self, ctx: &CallContext) -> Result<(), WeaverError>;
            }
            struct $imp;
            impl $iface for $imp {
                fn ping(&self, _: &CallContext) -> Result<(), WeaverError> {
                    Ok(())
                }
            }
            impl Component for $imp {
                type Interface = dyn $iface;
                fn init(_: &InitContext<'_>) -> Result<Self, WeaverError> {
                    Ok($imp)
                }
                fn into_interface(self: Arc<Self>) -> Arc<dyn $iface> {
                    self
                }
            }
        };
    }
    nop_component!(Slow, SlowImpl, "test.Slow");
    nop_component!(Fast, FastImpl, "test.Fast");

    /// 4 threads × 10k checks of `test.Fast`, true when all came back.
    fn checks_finish(faults: &Arc<FaultMap>) -> bool {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        for _ in 0..4 {
            let faults = Arc::clone(faults);
            let done = done_tx.clone();
            std::thread::spawn(move || {
                for _ in 0..10_000 {
                    faults.check("test.Fast").unwrap();
                }
                done.send(()).unwrap();
            });
        }
        (0..4).all(|_| done_rx.recv_timeout(Duration::from_secs(20)).is_ok())
    }

    #[test]
    fn fault_checks_share_the_lock_and_a_clear_removes_the_entry() {
        let faults = Arc::new(FaultMap::default());
        // Nothing installed: a check takes no lock, so not even a writer
        // holds it up.
        let held = faults.by_component.write();
        assert!(
            checks_finish(&faults),
            "checks on an empty map took the lock"
        );
        drop(held);
        // A fault on another component: a check reads the map, and shares
        // it — one that took the write lock would never get past the read
        // guard held here.
        let down = ComponentFault {
            down: true,
            ..Default::default()
        };
        faults.install("test.Slow", down);
        let held = faults.by_component.read();
        assert!(checks_finish(&faults), "checks blocked behind a reader");
        drop(held);
        faults.install("test.Slow", ComponentFault::default());

        let fault = ComponentFault {
            fail_next: 2,
            ..Default::default()
        };
        faults.install("test.Fast", fault);
        assert!(faults.is_active("test.Fast"));
        assert!(faults.check("test.Fast").is_err());
        assert!(faults.check("test.Fast").is_err());
        // Spent: the entry is a no-op now, and reads as one.
        assert!(faults.check("test.Fast").is_ok());
        assert!(!faults.is_active("test.Fast"));
        faults.install("test.Fast", ComponentFault::default());
        assert!(
            faults.by_component.read().is_empty(),
            "clearing left an entry behind"
        );
        assert_eq!(faults.installed.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn injected_delay_stalls_only_its_own_component() {
        const DELAY: Duration = Duration::from_millis(300);
        let registry = RegistryBuilder::new()
            .register::<SlowImpl>()
            .register::<FastImpl>()
            .build();
        let app = SingleProcess::deploy(Arc::new(registry), SingleMode::Marshaled, 1);
        let slow = app.get::<dyn Slow>().unwrap();
        let fast = app.get::<dyn Fast>().unwrap();
        let ctx = app.root_context();
        let fault = ComponentFault {
            delay: DELAY,
            ..Default::default()
        };
        app.inject_fault("test.Slow", fault.clone());

        // Calls to the other component and `inject_fault` on the delayed one
        // run back to back for as long as the delayed call is in flight, so
        // some of them are certain to overlap its sleep. Re-installing the
        // same fault takes the lock a clear would, without racing the
        // delayed call to its delay.
        let mut longest = Duration::ZERO;
        let delayed = std::thread::scope(|scope| {
            let delayed = scope.spawn(|| {
                let started = Instant::now();
                slow.ping(&ctx).unwrap();
                started.elapsed()
            });
            while !delayed.is_finished() {
                let started = Instant::now();
                fast.ping(&ctx).unwrap();
                app.inject_fault("test.Slow", fault.clone());
                longest = longest.max(started.elapsed());
            }
            delayed.join().unwrap()
        });
        assert!(delayed >= DELAY, "the delay was not applied: {delayed:?}");
        assert!(
            longest < Duration::from_millis(100),
            "a call to another component or an `inject_fault` waited {longest:?} behind the delay"
        );
    }
}
