//! The client-side call path used by generated stubs.

use std::sync::Arc;

use weaver_codec::prelude::*;
use weaver_transport::WireBuf;

use crate::component::MethodSpec;
use crate::context::CallContext;
use crate::error::WeaverError;
use crate::fanout::Route;

/// Static facts about a call target, baked in by the code generator.
#[derive(Debug, Clone, Copy)]
pub struct TargetInfo {
    /// Numeric component id (registry order).
    pub component_id: u32,
    /// Component name.
    pub name: &'static str,
    /// Method table.
    pub methods: &'static [MethodSpec],
}

/// Moves one call's bytes to some replica of a component and returns its
/// reply.
///
/// Implemented by deployers: the single-process deployer dispatches
/// directly and returns [`Route::Ready`]; the multiprocess deployer picks a
/// replica from its routing table, puts the request on the TCP transport
/// and returns [`Route::Pending`], so callers can scatter many calls before
/// gathering any replies. Generated stubs never see any of that.
pub trait CallRouter: Send + Sync {
    /// Routes one call.
    fn route(
        &self,
        target: &TargetInfo,
        ctx: &CallContext,
        method: u32,
        routing: Option<u64>,
        args: Vec<u8>,
    ) -> Route;
}

/// What a generated client stub holds: the target identity plus the
/// deployer's router.
#[derive(Clone)]
pub struct ClientHandle {
    target: TargetInfo,
    router: Arc<dyn CallRouter>,
}

impl ClientHandle {
    /// Builds a handle (deployer-side).
    pub fn new(target: TargetInfo, router: Arc<dyn CallRouter>) -> Self {
        ClientHandle { target, router }
    }

    /// The call target's static facts.
    pub fn target(&self) -> &TargetInfo {
        &self.target
    }

    /// Performs one call; used by generated client stubs.
    pub fn call(
        &self,
        ctx: &CallContext,
        method: u32,
        routing: Option<u64>,
        args: Vec<u8>,
    ) -> Result<WireBuf, WeaverError> {
        self.call_start(ctx, method, routing, args).wait()
    }

    /// Starts one call without waiting; used by generated `<method>_start`
    /// stubs. The expired-deadline check happens here, at begin time, so a
    /// dead context never puts bytes on the wire.
    pub fn call_start(
        &self,
        ctx: &CallContext,
        method: u32,
        routing: Option<u64>,
        args: Vec<u8>,
    ) -> Route {
        if ctx.expired() {
            return Route::Ready(Err(WeaverError::DeadlineExceeded));
        }
        self.router.route(&self.target, ctx, method, routing, args)
    }
}

/// Encodes a method's `Result` reply for the wire (server side; called by
/// generated dispatchers).
pub fn encode_reply<T: Encode>(ret: &Result<T, WeaverError>) -> Vec<u8> {
    encode_to_vec(ret)
}

/// Decodes a reply produced by [`encode_reply`] (client side; called by
/// generated stubs), flattening the two error layers.
pub fn decode_reply<T: Decode>(bytes: &[u8]) -> Result<T, WeaverError> {
    let result: Result<T, WeaverError> = decode_from_slice(bytes)?;
    result
}

/// Whether an [`encode_reply`] payload carries an application error,
/// without decoding it (the `Result` discriminant is the leading byte).
/// Used by routers to attribute errors on traces and call-graph edges.
pub fn reply_is_err(reply: &[u8]) -> bool {
    reply.first() == Some(&1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    #[test]
    fn reply_roundtrip_ok_and_err() {
        let ok: Result<String, WeaverError> = Ok("fine".into());
        let bytes = encode_reply(&ok);
        assert_eq!(decode_reply::<String>(&bytes).unwrap(), "fine");

        let err: Result<String, WeaverError> = Err(WeaverError::app("nope"));
        let bytes = encode_reply(&err);
        assert_eq!(
            decode_reply::<String>(&bytes).unwrap_err(),
            WeaverError::app("nope")
        );
    }

    #[test]
    fn corrupt_reply_is_codec_error() {
        assert!(matches!(
            decode_reply::<String>(&[0xff, 0xff]),
            Err(WeaverError::Codec { .. })
        ));
    }

    struct RecordingRouter {
        calls: Mutex<Vec<(u32, u32, Option<u64>)>>,
    }

    impl CallRouter for RecordingRouter {
        fn route(
            &self,
            target: &TargetInfo,
            _ctx: &CallContext,
            method: u32,
            routing: Option<u64>,
            _args: Vec<u8>,
        ) -> Route {
            self.calls
                .lock()
                .push((target.component_id, method, routing));
            Route::Ready(Ok(encode_reply::<u32>(&Ok(7)).into()))
        }
    }

    #[test]
    fn handle_threads_target_and_routing() {
        let router = Arc::new(RecordingRouter {
            calls: Mutex::new(Vec::new()),
        });
        let handle = ClientHandle::new(
            TargetInfo {
                component_id: 3,
                name: "test.Thing",
                methods: &[MethodSpec {
                    name: "m",
                    routed: true,
                }],
            },
            Arc::clone(&router) as Arc<dyn CallRouter>,
        );
        let reply = handle
            .call(&CallContext::test(), 0, Some(99), vec![1, 2])
            .unwrap();
        assert_eq!(decode_reply::<u32>(&reply).unwrap(), 7);
        assert_eq!(*router.calls.lock(), vec![(3, 0, Some(99))]);
    }

    #[test]
    fn call_start_returns_the_routers_ready_reply() {
        let router = Arc::new(RecordingRouter {
            calls: Mutex::new(Vec::new()),
        });
        let handle = ClientHandle::new(
            TargetInfo {
                component_id: 5,
                name: "t",
                methods: &[],
            },
            Arc::clone(&router) as Arc<dyn CallRouter>,
        );
        let fut = handle.call_start(&CallContext::test(), 2, None, vec![]);
        // The router resolved at begin time; the reply is waiting.
        assert_eq!(decode_reply::<u32>(&fut.wait().unwrap()).unwrap(), 7);
        assert_eq!(*router.calls.lock(), vec![(5, 2, None)]);
    }

    #[test]
    fn call_start_with_expired_deadline_never_routes() {
        let router = Arc::new(RecordingRouter {
            calls: Mutex::new(Vec::new()),
        });
        let handle = ClientHandle::new(
            TargetInfo {
                component_id: 0,
                name: "t",
                methods: &[],
            },
            Arc::clone(&router) as Arc<dyn CallRouter>,
        );
        let ctx = CallContext::test().with_timeout(std::time::Duration::ZERO);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let fut = handle.call_start(&ctx, 0, None, vec![]);
        assert_eq!(fut.wait().unwrap_err(), WeaverError::DeadlineExceeded);
        assert!(router.calls.lock().is_empty());
    }

    #[test]
    fn expired_deadline_short_circuits() {
        let router = Arc::new(RecordingRouter {
            calls: Mutex::new(Vec::new()),
        });
        let handle = ClientHandle::new(
            TargetInfo {
                component_id: 0,
                name: "t",
                methods: &[],
            },
            Arc::clone(&router) as Arc<dyn CallRouter>,
        );
        let ctx = CallContext::test().with_timeout(std::time::Duration::ZERO);
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert_eq!(
            handle.call(&ctx, 0, None, vec![]).unwrap_err(),
            WeaverError::DeadlineExceeded
        );
        // The router was never bothered.
        assert!(router.calls.lock().is_empty());
    }
}
