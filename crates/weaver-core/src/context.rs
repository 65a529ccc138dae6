//! Call and initialization contexts.

use std::any::Any;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::client::ClientHandle;
use crate::component::ComponentInterface;
use crate::error::WeaverError;

static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// Span ids a thread takes from [`NEXT_SPAN`] at once, so calling threads
/// do not all write the one counter on every call.
const SPAN_BLOCK: u64 = 1024;

/// Allocates a process-unique span id from the calling thread's block.
pub fn next_span_id() -> u64 {
    thread_local! {
        /// The thread's next span id and the end of its block.
        static BLOCK: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    }
    BLOCK.with(|block| {
        let (mut next, mut end) = block.get();
        if next == end {
            next = NEXT_SPAN.fetch_add(SPAN_BLOCK, Ordering::Relaxed);
            end = next + SPAN_BLOCK;
        }
        block.set((next + 1, end));
        next
    })
}

/// Per-call context threaded through every component method.
///
/// Carries the deadline, tracing identity, the caller's component name (for
/// call-graph attribution) and the deployment version (for the atomic
/// rollout invariant).
#[derive(Debug, Clone)]
pub struct CallContext {
    /// Absolute deadline, if any.
    pub deadline: Option<Instant>,
    /// Trace id assigned at ingress (0 = untraced).
    pub trace_id: u64,
    /// Span id of the current call.
    pub span_id: u64,
    /// Deployment version of this binary.
    pub version: u64,
    /// Name of the calling component ("" at ingress).
    pub caller: &'static str,
}

impl CallContext {
    /// A root context for an external request entering the application.
    pub fn root(version: u64) -> Self {
        CallContext {
            deadline: None,
            trace_id: next_span_id() | (1 << 63),
            span_id: next_span_id(),
            version,
            caller: "",
        }
    }

    /// An untraced context for tests and tools.
    pub fn test() -> Self {
        CallContext {
            deadline: None,
            trace_id: 0,
            span_id: 0,
            version: 1,
            caller: "",
        }
    }

    /// Returns a copy with the deadline set `timeout` from now.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Derives the context for an outbound call made by `caller`.
    pub fn child(&self, caller: &'static str) -> Self {
        CallContext {
            deadline: self.deadline,
            trace_id: self.trace_id,
            span_id: next_span_id(),
            version: self.version,
            caller,
        }
    }

    /// Time remaining before the deadline (`None` = unbounded).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// True once the deadline has passed.
    pub fn expired(&self) -> bool {
        matches!(self.remaining(), Some(d) if d.is_zero())
    }
}

/// How a component reference was satisfied.
pub enum Acquired {
    /// The component runs in this process; the payload is an
    /// `Arc<I>` behind `Any`.
    Local(Arc<dyn Any + Send + Sync>),
    /// The component is (or may be) remote; call through this handle.
    Remote(ClientHandle),
}

/// Resolves component references. Implemented by the deployer, which knows
/// the placement (paper §4.1: "the runtime determines how to co-locate and
/// replicate components").
pub trait ComponentGetter: Send + Sync {
    /// Acquires the component registered under `name`, starting it if it is
    /// placed locally and not yet running (Table 1: `StartComponent`).
    fn acquire(&self, name: &str) -> Result<Acquired, WeaverError>;
}

/// Handed to [`Component::init`](crate::component::Component::init) so a
/// component can obtain references to the components it depends on — the
/// moral equivalent of `Get[T]` in the paper's Figure 2.
pub struct InitContext<'a> {
    getter: &'a dyn ComponentGetter,
    /// References requested through [`InitContext::component`] so far.
    acquisitions: AtomicUsize,
}

impl<'a> InitContext<'a> {
    /// Wraps a getter.
    pub fn new(getter: &'a dyn ComponentGetter) -> Self {
        InitContext {
            getter,
            acquisitions: AtomicUsize::new(0),
        }
    }

    /// How many component references `init` has asked for. A component
    /// whose `init` asked for none holds no stub and can never make a
    /// nested call: it is a leaf of the component graph, which is what lets
    /// the runtime run its handlers where a blocking wait is forbidden.
    pub(crate) fn acquisitions(&self) -> usize {
        self.acquisitions.load(Ordering::Relaxed)
    }

    /// Returns a reference to the component with interface `I`.
    ///
    /// If the runtime placed `I` in this process the returned `Arc` is the
    /// implementation itself (calls are plain method calls); otherwise it is
    /// a generated client stub (calls are RPCs). Application code cannot
    /// tell the difference — that is the point.
    pub fn component<I: ComponentInterface + ?Sized>(&self) -> Result<Arc<I>, WeaverError> {
        // Counted before resolution: a failed acquisition still shows that
        // this component's code reaches for another one.
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
        match self.getter.acquire(I::NAME)? {
            Acquired::Local(any) => match any.downcast_ref::<Arc<I>>() {
                Some(arc) => Ok(Arc::clone(arc)),
                None => Err(WeaverError::internal(format!(
                    "instance table holds wrong type for {}",
                    I::NAME
                ))),
            },
            Acquired::Remote(handle) => Ok(I::client(handle)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_contexts_are_distinct() {
        let a = CallContext::root(1);
        let b = CallContext::root(1);
        assert_ne!(a.trace_id, b.trace_id);
        assert_ne!(a.span_id, b.span_id);
        assert_eq!(a.caller, "");
    }

    #[test]
    fn child_keeps_trace_and_deadline() {
        let root = CallContext::root(3).with_timeout(Duration::from_secs(10));
        let child = root.child("checkout");
        assert_eq!(child.trace_id, root.trace_id);
        assert_eq!(child.version, 3);
        assert_eq!(child.caller, "checkout");
        assert_ne!(child.span_id, root.span_id);
        assert!(child.deadline.is_some());
    }

    #[test]
    fn deadline_expiry() {
        let ctx = CallContext::test().with_timeout(Duration::from_millis(1));
        assert!(!ctx.clone().expired() || ctx.remaining().unwrap().is_zero());
        std::thread::sleep(Duration::from_millis(5));
        assert!(ctx.expired());
        assert_eq!(ctx.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn no_deadline_never_expires() {
        let ctx = CallContext::test();
        assert!(!ctx.expired());
        assert_eq!(ctx.remaining(), None);
    }
}
