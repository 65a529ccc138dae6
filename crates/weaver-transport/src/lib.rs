//! Transport substrate: the paper's "custom transport protocol built
//! directly on top of TCP" (§5.5) and the baseline it is compared against.
//!
//! Two framings share one connection/server implementation:
//!
//! * [`WeaverFraming`] — the streamlined protocol. One persistent
//!   connection per (caller proclet, callee proclet) pair carries
//!   multiplexed request/response frames with a 13-byte frame header and a
//!   compact binary [`RequestHeader`]. Because atomic rollouts guarantee
//!   both ends run the same binary, the header carries numeric component and
//!   method ids — no paths, no content negotiation, no per-call metadata
//!   text.
//! * [`GrpcLikeFraming`] — the status-quo baseline: HTTP/2-shaped framing
//!   (9-byte frame headers, HEADERS/DATA/trailer frames per call) with
//!   textual metadata (`:path`, `content-type`, timeouts) and gRPC's 5-byte
//!   message prefix. This reproduces the transport overhead the paper
//!   ascribes to microservice RPC stacks. (Real gRPC compresses headers
//!   with HPACK; even so, every call carries header-processing work and an
//!   extra trailers frame — the shape, not the exact byte count, is what
//!   the A2 ablation measures.)
//!
//! A connection runs over TCP or, between processes the runtime placed on
//! one host, over a Linux abstract-namespace unix socket: an [`Endpoint`]
//! names either, and the deployer that placed the component picks which.
//!
//! Each framing has two messages, a request and a response. A caller that
//! gives up abandons its stream, and the reply is dropped on arrival.
//!
//! On top of the framings sit [`Connection`] (client side: stream-id
//! multiplexing, deadlines, pipelined writes), [`Server`]
//! (listener + worker pool), [`Pool`] (connection reuse per endpoint), and
//! [`inproc`] (a socket-free loopback transport; its only callers are its
//! own tests and `wbench`'s `transport.inproc_rtt_ns` probe — no deployer
//! uses it). Every socket — client, accepted, listening — is
//! driven by one shared readiness [`reactor`]; there is no other I/O path,
//! and since the reactor sits on epoll the crate builds on Linux only.
//!
//! The hot path is zero-copy and allocation-free in steady state: encode
//! buffers and receive buffers come from a size-classed [`BufferPool`],
//! parsed payloads are refcounted [`WireBuf`] views of the receive buffer,
//! and the reactor coalesces each connection's queued frames into single
//! syscalls (see [`buf`] and the module docs on [`conn`]/[`server`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(not(target_os = "linux"))]
compile_error!(
    "weaver-transport drives every socket through an epoll reactor and builds on Linux only"
);

pub mod buf;
pub mod client;
pub mod conn;
pub mod endpoint;
pub mod error;
pub mod fault;
pub mod frame;
pub mod inproc;
pub mod pool;
pub mod reactor;
pub mod server;
pub mod state;

pub use buf::{BufferPool, PoolStats, PooledBuf, WireBuf};
pub use client::{Dialer, Pool};
pub use conn::{CallFuture, Connection};
pub use endpoint::{Endpoint, ToEndpoint, UnixName};
pub use error::TransportError;
pub use fault::{DuplexStream, FaultAction, FaultInjector, FaultSpec, FaultStream, Side};
pub use frame::{
    Framing, GrpcLikeFraming, Message, RequestHeader, ResponseBody, Status, WeaverFraming,
};
pub use reactor::{reactor_snapshot, ReactorSnapshot};
pub use server::{RpcHandler, Server};
pub use state::{in_slice, StateBlob, StateEntry};
