//! An in-process transport: real marshaling, no sockets.
//!
//! The weavertest harness (§5.3) wants to exercise the full RPC path —
//! encode, dispatch, decode — without network nondeterminism, and the
//! single-process deployer wants an "RPC mode" for co-located components
//! when the operator asks for it. `InprocNetwork` provides both: a registry
//! of named endpoints whose handlers run synchronously on the caller's
//! thread, with optional injected latency and failure (used by the chaos
//! tests).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;

use crate::error::TransportError;
use crate::frame::{RequestHeader, ResponseBody};
use crate::server::RpcHandler;

/// Failure behaviour injected on an endpoint (chaos testing hooks).
#[derive(Clone, Default)]
pub struct Fault {
    /// Added latency per call.
    pub delay: Duration,
    /// Fail every call with `ConnectionClosed` while set.
    pub down: bool,
    /// Fail one in `fail_every` calls (0 = never).
    pub fail_every: u64,
}

struct Endpoint {
    handler: Arc<dyn RpcHandler>,
    fault: Fault,
    calls: std::sync::atomic::AtomicU64,
}

/// A process-local "network" of named endpoints.
#[derive(Default)]
pub struct InprocNetwork {
    endpoints: RwLock<HashMap<String, Arc<Endpoint>>>,
}

impl InprocNetwork {
    /// Creates an empty network.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Registers (or replaces) an endpoint.
    pub fn register(&self, name: &str, handler: Arc<dyn RpcHandler>) {
        self.endpoints.write().insert(
            name.to_string(),
            Arc::new(Endpoint {
                handler,
                fault: Fault::default(),
                calls: std::sync::atomic::AtomicU64::new(0),
            }),
        );
    }

    /// Installs a fault on an endpoint. No-op if the endpoint is missing.
    pub fn inject_fault(&self, name: &str, fault: Fault) {
        let mut endpoints = self.endpoints.write();
        if let Some(ep) = endpoints.get(name) {
            let replacement = Arc::new(Endpoint {
                handler: Arc::clone(&ep.handler),
                fault,
                calls: std::sync::atomic::AtomicU64::new(
                    ep.calls.load(std::sync::atomic::Ordering::Relaxed),
                ),
            });
            endpoints.insert(name.to_string(), replacement);
        }
    }

    /// Calls an endpoint through the full marshal/dispatch path.
    pub fn call(
        &self,
        name: &str,
        header: &RequestHeader,
        args: &[u8],
        timeout: Option<Duration>,
    ) -> Result<ResponseBody, TransportError> {
        let endpoint = {
            let endpoints = self.endpoints.read();
            endpoints
                .get(name)
                .cloned()
                .ok_or_else(|| TransportError::Unreachable(name.to_string()))?
        };
        if endpoint.fault.down {
            return Err(TransportError::ConnectionClosed);
        }
        let n = endpoint
            .calls
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            + 1;
        if endpoint.fault.fail_every > 0 && n % endpoint.fault.fail_every == 0 {
            return Err(TransportError::ConnectionClosed);
        }
        if !endpoint.fault.delay.is_zero() {
            if let Some(t) = timeout {
                if endpoint.fault.delay > t {
                    // Don't actually sleep past the deadline; behave like a
                    // caller-side timeout.
                    std::thread::sleep(t);
                    return Err(TransportError::DeadlineExceeded);
                }
            }
            std::thread::sleep(endpoint.fault.delay);
        }
        // Borrowed straight through: no header clone, no args copy.
        Ok(endpoint.handler.handle(header, args))
    }

    /// Begin/wait counterpart of [`InprocNetwork::call`], mirroring
    /// [`crate::Connection::call_begin`]'s shape for the loopback
    /// transport. Dispatch is synchronous (there is no socket to overlap
    /// with), so the handler runs *now* — including its injected faults —
    /// and the returned future is already resolved; callers written
    /// against the begin/wait API work unchanged in-process.
    pub fn call_begin(
        &self,
        name: &str,
        header: &RequestHeader,
        args: &[u8],
        timeout: Option<Duration>,
    ) -> InprocFuture {
        InprocFuture {
            outcome: self.call(name, header, args, timeout),
        }
    }

    /// Names of all registered endpoints, sorted.
    pub fn endpoints(&self) -> Vec<String> {
        let mut names: Vec<String> = self.endpoints.read().keys().cloned().collect();
        names.sort();
        names
    }
}

/// An already-resolved call started with [`InprocNetwork::call_begin`].
#[must_use = "a call future does nothing unless waited"]
pub struct InprocFuture {
    outcome: Result<ResponseBody, TransportError>,
}

impl InprocFuture {
    /// Returns the call's outcome.
    pub fn wait(self) -> Result<ResponseBody, TransportError> {
        self.outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Status;

    fn echo() -> Arc<dyn RpcHandler> {
        Arc::new(|_h: &RequestHeader, args: &[u8]| ResponseBody {
            status: Status::Ok,
            payload: args.to_vec().into(),
        })
    }

    #[test]
    fn calls_reach_registered_names_only() {
        let net = InprocNetwork::new();
        net.register("a", echo());
        let resp = net
            .call("a", &RequestHeader::default(), &[1, 2], None)
            .unwrap();
        assert_eq!(resp.payload, vec![1, 2]);
        assert!(matches!(
            net.call("b", &RequestHeader::default(), &[], None),
            Err(TransportError::Unreachable(_))
        ));
    }

    #[test]
    fn down_fault_fails_calls() {
        let net = InprocNetwork::new();
        net.register("a", echo());
        net.inject_fault(
            "a",
            Fault {
                down: true,
                ..Default::default()
            },
        );
        assert_eq!(
            net.call("a", &RequestHeader::default(), &[], None),
            Err(TransportError::ConnectionClosed)
        );
        // Healing the fault restores service.
        net.inject_fault("a", Fault::default());
        assert!(net.call("a", &RequestHeader::default(), &[], None).is_ok());
    }

    #[test]
    fn fail_every_is_periodic() {
        let net = InprocNetwork::new();
        net.register("a", echo());
        net.inject_fault(
            "a",
            Fault {
                fail_every: 3,
                ..Default::default()
            },
        );
        let mut failures = 0;
        for _ in 0..9 {
            if net.call("a", &RequestHeader::default(), &[], None).is_err() {
                failures += 1;
            }
        }
        assert_eq!(failures, 3);
    }

    #[test]
    fn delay_beyond_timeout_is_deadline_exceeded() {
        let net = InprocNetwork::new();
        net.register("a", echo());
        net.inject_fault(
            "a",
            Fault {
                delay: Duration::from_millis(100),
                ..Default::default()
            },
        );
        let err = net
            .call(
                "a",
                &RequestHeader::default(),
                &[],
                Some(Duration::from_millis(5)),
            )
            .unwrap_err();
        assert_eq!(err, TransportError::DeadlineExceeded);
    }

    #[test]
    fn begin_wait_resolves_eagerly() {
        let net = InprocNetwork::new();
        net.register("a", echo());
        let fut = net.call_begin("a", &RequestHeader::default(), &[3, 4], None);
        assert_eq!(fut.wait().unwrap().payload, vec![3, 4]);

        // Faults injected at begin time surface through wait, like the
        // socket transport's fail-fast semantics.
        net.inject_fault(
            "a",
            Fault {
                down: true,
                ..Default::default()
            },
        );
        let fut = net.call_begin("a", &RequestHeader::default(), &[], None);
        assert_eq!(fut.wait(), Err(TransportError::ConnectionClosed));
    }

    #[test]
    fn endpoint_listing() {
        let net = InprocNetwork::new();
        net.register("b", echo());
        net.register("a", echo());
        assert_eq!(net.endpoints(), vec!["a".to_string(), "b".to_string()]);
    }
}
