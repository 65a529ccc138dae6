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
//!   network — and the hook point for fault injection. A call runs the
//!   servers' own dispatch steps ([`crate::dispatch`]: version backstop,
//!   injected fault, start, dispatch) and resolves through the routers' own
//!   recorder, so chaos and call-graph results carry over to every
//!   placement by construction.

use std::sync::{Arc, Weak};
use std::time::Duration;

use weaver_core::client::{CallRouter, TargetInfo};
use weaver_core::component::ComponentInterface;
use weaver_core::context::{Acquired, CallContext, ComponentGetter};
use weaver_core::error::WeaverError;
use weaver_core::fanout::Route;
use weaver_core::instance::LiveComponents;
use weaver_core::registry::ComponentRegistry;
use weaver_metrics::trace::{Span, TraceSink};
use weaver_metrics::{CallGraph, CallGraphSnapshot, MetricsRegistry, MetricsSnapshot};
use weaver_transport::WireBuf;

use crate::dispatch::{admit, invoke, FaultMap};
use crate::router::{CallRecorder, CallSite};

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
    pub(crate) fn is_noop(&self) -> bool {
        !self.down && self.delay.is_zero() && self.fail_next == 0
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
    recorder: CallRecorder,
    traces: Arc<TraceSink>,
    faults: FaultMap,
    /// The router marshaled client handles call through: this deployment.
    self_ref: Weak<SingleProcess>,
}

impl SingleProcess {
    /// Deploys `registry` in this process.
    pub fn deploy(registry: Arc<ComponentRegistry>, mode: SingleMode, version: u64) -> Arc<Self> {
        let placement = match mode {
            SingleMode::Colocated => "colocated",
            SingleMode::Marshaled => "marshaled",
        };
        Arc::new_cyclic(|self_ref| SingleProcess {
            live: Arc::new(LiveComponents::new(registry)),
            mode,
            version,
            recorder: CallRecorder::new(
                Arc::new(CallGraph::new()),
                Arc::new(MetricsRegistry::new()),
                placement,
            ),
            traces: TraceSink::new(),
            faults: FaultMap::default(),
            self_ref: self_ref.clone(),
        })
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
        self.recorder.callgraph().snapshot()
    }

    /// Snapshot of runtime metrics, including the transport-plane gauges
    /// (reactor readiness-loop state and RPC dispatch-queue depth)
    /// refreshed at snapshot time.
    pub fn metrics(&self) -> MetricsSnapshot {
        crate::router::record_transport_gauges(self.recorder.metrics());
        self.recorder.metrics().snapshot()
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
                Ok(Acquired::Local(Arc::clone(&instance.iface_any)))
            }
            SingleMode::Marshaled => {
                let router = self
                    .self_ref
                    .upgrade()
                    .ok_or_else(|| WeaverError::Unavailable {
                        detail: "deployment is shutting down".into(),
                    })?;
                Ok(Acquired::Remote(
                    self.live.registry().remote_handle(id, router)?,
                ))
            }
        }
    }
}

impl CallRouter for SingleProcess {
    /// Dispatches in the caller's thread: every call is a [`Route::Ready`].
    fn route(
        &self,
        target: &TargetInfo,
        ctx: &CallContext,
        method: u32,
        _routing: Option<u64>,
        args: Vec<u8>,
    ) -> Route {
        let call = CallSite::new(ctx, target, method, &args);
        // This call gets its own span; the caller's span becomes its parent.
        let span_id = weaver_core::context::next_span_id();
        let outcome = admit(&self.faults, self.version, ctx.version, target.name).and_then(|()| {
            let ctx = CallContext {
                span_id,
                ..ctx.clone()
            };
            invoke(&self.live, self, target.component_id, method, ctx, &args).map(WireBuf::from_vec)
        });
        let is_error = self.recorder.record(&call, false, &outcome);
        if ctx.trace_id != 0 {
            self.traces.record(
                Span {
                    trace_id: ctx.trace_id,
                    span_id,
                    parent_id: ctx.span_id,
                    component: target.name.to_string(),
                    method: call.method_name().to_string(),
                    start_nanos: 0,
                    duration_nanos: 0,
                    error: is_error,
                },
                call.started,
                call.started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
            );
        }
        Route::Ready(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;
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
