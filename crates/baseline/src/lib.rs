//! The **status quo**: the boutique as conventional microservices.
//!
//! This crate is the paper's baseline (§6.1): "The application has eleven
//! microservices and uses gRPC and Kubernetes to deploy on the cloud."
//! Here each service runs behind its own TCP endpoint with:
//!
//! * the **tagged** (protobuf-shaped) encoding of exactly the same message
//!   types the prototype uses — field numbers, wire types, skippable
//!   unknown fields;
//! * the **gRPC-like transport** — HTTP/2-shaped frames with textual
//!   headers, a 5-byte message prefix, and a trailers frame per call;
//! * **hand-written service stubs** (what `protoc` would generate), one
//!   request/response message pair per method ([`messages`]);
//! * real fan-out: the frontend and checkout services call the other
//!   services over the network, like their microservice originals.
//!
//! The business logic is imported from `boutique::logic` — identical code
//! on both sides of every benchmark, so measured differences come from the
//! architecture, not the application.
//!
//! The baseline's frontend client implements the boutique's `Frontend`
//! *trait*, so the same Locust-style load generator drives both stacks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod messages;
pub mod services;

pub use client::BaselineFrontend;
pub use services::{maybe_service, BaselineDeployment, ServiceId, ENV_SERVICE, SERVICE_WORKERS};
