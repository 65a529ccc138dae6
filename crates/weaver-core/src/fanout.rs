//! Scatter-gather over component calls: typed call futures and `join_all`.
//!
//! Generated stubs expose a `<method>_start` variant for every component
//! method (see `weaver-macros`), returning a [`CallFuture`] instead of
//! blocking. On a multiplexed transport the started calls share one
//! connection — and, via the coalescing writer, often one syscall — so a
//! fan-out of N independent calls costs roughly max-of-RTTs instead of
//! sum-of-RTTs (the paper's C1 overhead tax, §5).
//!
//! The trait itself carries a default `<method>_start` that simply runs the
//! blocking method eagerly, which is exactly right for co-located
//! placements: there is no wire to overlap on, and a plain method call is
//! the whole point (§3.1). Placement transparency is preserved — callers
//! written against the begin/wait API behave identically everywhere.

use weaver_transport::WireBuf;

use crate::error::WeaverError;

/// A deployer's answer to one routed call: its reply, or the call still on
/// the wire.
///
/// A reply is the transport's [`WireBuf`]: on a socket it is a view of the
/// receive frame, which returns to its pool once the stub has decoded it.
pub enum Route {
    /// Resolved when routed (an in-process dispatch, an expired deadline).
    Ready(Result<WireBuf, WeaverError>),
    /// In flight; the deployer's future resolves it.
    Pending(Box<dyn RouteFuture>),
}

impl Route {
    /// Waits for the reply.
    pub fn wait(self) -> Result<WireBuf, WeaverError> {
        match self {
            Route::Ready(outcome) => outcome,
            Route::Pending(future) => future.wait(),
        }
    }
}

/// The deployer-side half of a call still on the wire: resolves to its
/// reply. Implemented by routers that can overlap calls (the TCP router).
pub trait RouteFuture: Send {
    /// Waits for the reply.
    fn wait(self: Box<Self>) -> Result<WireBuf, WeaverError>;
}

enum State<T> {
    Ready(Result<T, WeaverError>),
    Pending {
        route: Route,
        decode: fn(&[u8]) -> Result<T, WeaverError>,
    },
}

/// A typed in-flight component call, returned by generated
/// `<method>_start` stubs.
///
/// Dropping an unresolved future abandons the underlying call: the
/// transport removes its pending-map entry, the callee still runs it, and
/// its reply is dropped on arrival. Siblings started on the same connection
/// are unaffected.
#[must_use = "an unawaited call future abandons the call when dropped"]
pub struct CallFuture<T> {
    state: State<T>,
}

impl<T> CallFuture<T> {
    /// A future that already has its result (co-located calls, eager
    /// failures).
    pub fn ready(result: Result<T, WeaverError>) -> Self {
        CallFuture {
            state: State::Ready(result),
        }
    }

    /// A future over a routed call's reply, decoded on resolution.
    pub fn from_route(route: Route, decode: fn(&[u8]) -> Result<T, WeaverError>) -> Self {
        CallFuture {
            state: State::Pending { route, decode },
        }
    }

    /// Waits for the call's result.
    pub fn wait(self) -> Result<T, WeaverError> {
        match self.state {
            State::Ready(result) => result,
            State::Pending { route, decode } => route.wait().and_then(|reply| decode(&reply)),
        }
    }
}

/// Waits for *every* future, then returns the collected values — or the
/// first error encountered, in argument order.
///
/// The crucial property for fault semantics: an early failure does **not**
/// abandon in-flight siblings. Every call runs to completion (success,
/// error, or fail-fast on a severed connection), so no reply is silently
/// dropped and no pending-map entry outlives the join.
pub fn join_all<T>(futures: Vec<CallFuture<T>>) -> Result<Vec<T>, WeaverError> {
    let mut values = Vec::with_capacity(futures.len());
    let mut first_err: Option<WeaverError> = None;
    for future in futures {
        match future.wait() {
            Ok(v) => values.push(v),
            Err(e) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(values),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn ready_future_resolves() {
        let f = CallFuture::ready(Ok(7u32));
        assert_eq!(f.wait().unwrap(), 7);
    }

    #[test]
    fn route_future_decodes_on_resolution() {
        let bytes = crate::client::encode_reply::<u32>(&Ok(41));
        let f = CallFuture::from_route(
            Route::Ready(Ok(bytes.into())),
            crate::client::decode_reply::<u32>,
        );
        assert_eq!(f.wait().unwrap(), 41);
    }

    #[test]
    fn join_all_collects_in_order() {
        let futures = (0..5u32).map(|i| CallFuture::ready(Ok(i))).collect();
        assert_eq!(join_all(futures).unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn join_all_surfaces_first_error_without_abandoning_siblings() {
        /// A route that counts resolutions, so the test can prove the
        /// sibling after the failure was still waited.
        struct Counting(Arc<AtomicUsize>, Result<WireBuf, WeaverError>);
        impl RouteFuture for Counting {
            fn wait(self: Box<Self>) -> Result<WireBuf, WeaverError> {
                self.0.fetch_add(1, Ordering::SeqCst);
                self.1
            }
        }

        let waited = Arc::new(AtomicUsize::new(0));
        let ok = WireBuf::from_vec(crate::client::encode_reply::<u32>(&Ok(1)));
        let futures: Vec<CallFuture<u32>> = vec![
            CallFuture::from_route(
                Route::Pending(Box::new(Counting(Arc::clone(&waited), Ok(ok.clone())))),
                crate::client::decode_reply::<u32>,
            ),
            CallFuture::from_route(
                Route::Pending(Box::new(Counting(
                    Arc::clone(&waited),
                    Err(WeaverError::app("boom-1")),
                ))),
                crate::client::decode_reply::<u32>,
            ),
            CallFuture::from_route(
                Route::Pending(Box::new(Counting(
                    Arc::clone(&waited),
                    Err(WeaverError::app("boom-2")),
                ))),
                crate::client::decode_reply::<u32>,
            ),
            CallFuture::from_route(
                Route::Pending(Box::new(Counting(Arc::clone(&waited), Ok(ok)))),
                crate::client::decode_reply::<u32>,
            ),
        ];
        let err = join_all(futures).unwrap_err();
        assert_eq!(err, WeaverError::app("boom-1"), "first error wins");
        assert_eq!(waited.load(Ordering::SeqCst), 4, "every sibling waited");
    }
}
