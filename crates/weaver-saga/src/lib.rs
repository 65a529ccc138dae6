//! # weaver-saga — crash-consistent multi-component workflows
//!
//! The paper's proposal (§3) moves distribution decisions out of
//! application code, but a workflow that spans components still straddles
//! failure domains: the checkout that charged a card can crash before it
//! empties the cart. This crate supplies the missing durability layer — a
//! **saga**: each forward call paired with a compensation, every
//! transition persisted to an append-only step log *before* the next side
//! effect, and a recovery pass that finishes whatever a crash interrupted.
//!
//! | module | provides |
//! |---|---|
//! | [`store`] | [`LogStore`] trait; [`FileStore`] (torn-tail-tolerant), [`MemStore`] (named shared registry as a durable-volume stand-in) |
//! | [`log`] | [`LogEntry`]/[`EntryKind`] sealed in versioned `persist::Record` envelopes; [`SagaLog`] reconstruction |
//! | [`saga`] | [`Saga`] builder, [`SagaOutcome`], [`recover_with`]/[`RecoveryReport`], [`unique_key`] |
//!
//! Design rules, in order of importance:
//!
//! 1. **Forward steps are never retried.** A failed call may have executed
//!    (the ambiguous sever); blind retry is double execution. Retry safety
//!    for individual calls lives in the transport's idempotency-key layer;
//!    the saga's answer to forward failure is compensation.
//! 2. **Log before effect.** `Started` is durable before step 0 runs;
//!    `StepDone` before step *n+1*; `Compensating` before any undo. A
//!    crash at any point leaves a log from which [`recover_with`] can
//!    finish — resuming sagas whose steps all committed, compensating the
//!    rest (including the possibly-executed frontier step, which is why
//!    compensations must be idempotent and accept `None` output).
//! 3. **Versioned at rest.** Entries are sealed with
//!    `weaver_codec::persist` ([`log::SCHEMA`] = 2, with a v1 migration):
//!    the step log outlives any single rollout, so unlike the RPC wire
//!    format it carries explicit schema versions.

#![forbid(unsafe_code)]

pub mod log;
pub mod saga;
pub mod store;

pub use log::{serialize_entries, EntryKind, LogEntry, PendingSaga, SagaLog, SCHEMA};
pub use saga::{recover_with, unique_key, RecoveryReport, Saga, SagaOutcome};
pub use store::{FileStore, LogStore, MemStore};
