//! The component model (paper §3): write a distributed application as a
//! single program split into components.
//!
//! A *component* is "a long-lived, replicated computational agent, similar
//! to an actor. Each component implements an interface, and the only way to
//! interact with a component is by calling methods on its interface."
//! Method calls "turn into remote procedure calls where necessary, but
//! remain local procedure calls if the caller and callee component are in
//! the same process."
//!
//! The pieces:
//!
//! * [`component::ComponentInterface`] — what `#[weaver::component]`
//!   implements for `dyn Trait`: the component name, method table, client
//!   stub factory, and server-side dispatcher.
//! * [`component::Component`] — what an application implements for its
//!   concrete struct: how to construct it ([`context::InitContext`] supplies
//!   references to the components it depends on) and how to view it as its
//!   interface.
//! * [`registry::ComponentRegistry`] — the set of all components in the
//!   binary, with deterministic numeric ids (identical in every replica of
//!   the same binary — which is what lets the wire protocol use numbers
//!   instead of names).
//! * [`instance::LiveComponents`] — the per-process table of running
//!   component instances, with recursive start and cycle detection.
//! * [`client::ClientHandle`] — what generated client stubs call through;
//!   the deployer plugs in a [`client::CallRouter`] that picks a replica,
//!   encodes the header, and moves bytes.
//!
//! This crate is deployment-agnostic: it knows nothing about processes,
//! machines, or sockets. `weaver-runtime` supplies those.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// Generated code refers to this crate as `::weaver_core`; make that name
// resolvable from inside the crate itself (for tests and built-ins).
extern crate self as weaver_core;

pub mod client;
pub mod component;
pub mod context;
pub mod error;
pub mod fanout;
pub mod instance;
pub mod registry;

pub use client::{decode_reply, encode_reply, CallRouter, ClientHandle, TargetInfo};
pub use component::{Component, ComponentInterface, MethodSpec};
pub use context::{CallContext, ComponentGetter, InitContext};
pub use error::WeaverError;
pub use fanout::{join_all, CallFuture, Route, RouteFuture};
pub use instance::LiveComponents;
pub use registry::{ComponentRegistry, RegistryBuilder};

use std::hash::{Hash, Hasher};

/// Hashes a routing key deterministically.
///
/// Every replica must map the same key to the same slice, so this uses
/// `DefaultHasher::new()` (fixed keys), *not* `RandomState` — the per-process
/// random seed would defeat affinity routing.
pub fn routing_key<K: Hash + ?Sized>(key: &K) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_key_is_deterministic() {
        assert_eq!(routing_key("user-42"), routing_key("user-42"));
        assert_ne!(routing_key("user-42"), routing_key("user-43"));
    }

    #[test]
    fn routing_key_works_on_unsized() {
        let s = String::from("abc");
        assert_eq!(routing_key(s.as_str()), routing_key("abc"));
    }
}
