//! The saga step log: typed entries sealed in versioned [`Record`]
//! envelopes.
//!
//! The wire format between components is non-versioned (atomic rollouts
//! guarantee both sides were compiled together), but the step log
//! *persists across versions* — a replica started after a rollout must
//! read entries its predecessor wrote. Every entry therefore goes through
//! `weaver_codec::persist`: magic, schema version, checksum, and an
//! explicit migration path ([`SCHEMA`] is at v2; v1 entries lacking the
//! `context` field migrate forward on read).
//!
//! Reconstruction ([`SagaLog::pending`]) folds the entries into the set of
//! sagas that are neither `Completed` nor `Compensated` — precisely the
//! ones recovery must finish.

use std::collections::HashMap;
use std::sync::Arc;

use weaver_codec::persist::{open_with_migrations, Migration, Record};
use weaver_codec::{decode_from_slice, DecodeError};
use weaver_core::error::WeaverError;
use weaver_macros::WeaverData;

use crate::store::LogStore;

/// Current schema version of persisted [`LogEntry`] payloads.
///
/// v1 `Started` entries carried no `context`; [`SagaLog::entries`] migrates
/// them forward with an empty context.
pub const SCHEMA: u32 = 2;

/// One record in the saga step log.
#[derive(Debug, Clone, PartialEq, Eq, WeaverData)]
pub struct LogEntry {
    /// The saga this entry belongs to (logs are multiplexed: one store
    /// holds entries for many concurrent sagas).
    pub saga_id: String,
    /// What happened.
    pub kind: EntryKind,
}

/// The saga state machine, as logged transitions. It has no default: the
/// log only ever decodes entries that were written.
#[derive(Debug, Clone, PartialEq, Eq, WeaverData)]
pub enum EntryKind {
    /// The saga began: `steps` forward steps planned, plus opaque
    /// `context` bytes recovery needs to build compensations (e.g. the
    /// encoded user id).
    Started {
        /// Human-readable saga name (e.g. `"checkout"`).
        name: String,
        /// Number of forward steps planned.
        steps: u32,
        /// Opaque recovery context, encoded by the application.
        context: Vec<u8>,
    },
    /// Forward step `step` committed, producing `output` bytes.
    StepDone {
        /// Zero-based step index.
        step: u32,
        /// Encoded step output (fed to the paired compensation).
        output: Vec<u8>,
    },
    /// A forward step failed; the saga is now undoing committed steps.
    Compensating,
    /// The compensation for step `step` committed.
    StepCompensated {
        /// Zero-based step index.
        step: u32,
    },
    /// Terminal: every forward step committed.
    Completed,
    /// Terminal: every needed compensation committed.
    Compensated,
}

/// A saga reconstructed from the log that has not reached a terminal
/// entry — the unit of work for recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingSaga {
    /// The saga's id.
    pub id: String,
    /// The saga's name from its `Started` entry.
    pub name: String,
    /// Forward steps planned.
    pub steps: u32,
    /// Recovery context from the `Started` entry.
    pub context: Vec<u8>,
    /// `(step, output)` for every committed forward step, in log order.
    pub done: Vec<(u32, Vec<u8>)>,
    /// Whether a `Compensating` entry was logged before the crash.
    pub compensating: bool,
    /// Steps whose compensation already committed.
    pub compensated: Vec<u32>,
}

impl PendingSaga {
    /// Steps that may have executed and are not yet compensated, in the
    /// reverse order compensation must run.
    ///
    /// This includes one step *beyond* the last committed one: a crash
    /// between a forward call and its `StepDone` entry leaves that step
    /// possibly-executed, so its compensation must run too (compensations
    /// are required to be idempotent and tolerate "never happened").
    pub fn steps_to_compensate(&self) -> Vec<u32> {
        let last_done = self.done.iter().map(|(s, _)| *s).max();
        let frontier = match last_done {
            Some(s) => (s + 1).min(self.steps.saturating_sub(1)),
            None if self.steps == 0 => return Vec::new(),
            None => 0,
        };
        (0..=frontier)
            .rev()
            .filter(|s| !self.compensated.contains(s))
            .collect()
    }

    /// The committed output of forward step `step`, if any.
    pub fn output_of(&self, step: u32) -> Option<&[u8]> {
        self.done
            .iter()
            .find(|(s, _)| *s == step)
            .map(|(_, out)| out.as_slice())
    }

    /// True when every forward step committed (the saga only misses its
    /// `Completed` entry — recovery resumes rather than compensates).
    pub fn all_steps_done(&self) -> bool {
        !self.compensating && (0..self.steps).all(|s| self.output_of(s).is_some())
    }
}

/// v1 `Started` entries had no `context` field.
#[derive(Debug, Clone, PartialEq, Eq, WeaverData)]
enum EntryKindV1 {
    Started { name: String, steps: u32 },
    StepDone { step: u32, output: Vec<u8> },
    Compensating,
    StepCompensated { step: u32 },
    Completed,
    Compensated,
}

#[derive(Debug, Clone, PartialEq, Eq, WeaverData)]
struct LogEntryV1 {
    saga_id: String,
    kind: EntryKindV1,
}

fn migrate_v1(payload: &[u8]) -> Result<LogEntry, DecodeError> {
    let old: LogEntryV1 = decode_from_slice(payload)?;
    let kind = match old.kind {
        EntryKindV1::Started { name, steps } => EntryKind::Started {
            name,
            steps,
            context: Vec::new(),
        },
        EntryKindV1::StepDone { step, output } => EntryKind::StepDone { step, output },
        EntryKindV1::Compensating => EntryKind::Compensating,
        EntryKindV1::StepCompensated { step } => EntryKind::StepCompensated { step },
        EntryKindV1::Completed => EntryKind::Completed,
        EntryKindV1::Compensated => EntryKind::Compensated,
    };
    Ok(LogEntry {
        saga_id: old.saga_id,
        kind,
    })
}

/// The saga step log: typed append + reconstruction over a [`LogStore`].
#[derive(Clone)]
pub struct SagaLog {
    store: Arc<dyn LogStore>,
}

impl SagaLog {
    /// Wraps a store.
    pub fn new(store: Arc<dyn LogStore>) -> SagaLog {
        SagaLog { store }
    }

    /// Appends one entry, sealed under the current [`SCHEMA`].
    pub fn append(&self, entry: &LogEntry) -> Result<(), WeaverError> {
        self.store.append(&Record::seal(SCHEMA, entry).to_bytes())
    }

    /// Decodes every readable entry, migrating old schemas forward.
    ///
    /// A record that fails to decode ends the scan (the store already
    /// dropped torn tails; a mid-log corruption means everything after it
    /// is untrustworthy).
    pub fn entries(&self) -> Result<Vec<LogEntry>, WeaverError> {
        let migrations: [Migration<'_, LogEntry>; 1] = [(1, &migrate_v1)];
        let mut entries = Vec::new();
        for bytes in self.store.read_all()? {
            match open_with_migrations(&bytes, SCHEMA, &migrations) {
                Ok(entry) => entries.push(entry),
                Err(_) => break,
            }
        }
        Ok(entries)
    }

    /// Folds the log into the sagas that never reached a terminal entry,
    /// in the order they started.
    pub fn pending(&self) -> Result<Vec<PendingSaga>, WeaverError> {
        let mut open: HashMap<String, PendingSaga> = HashMap::new();
        let mut order: Vec<String> = Vec::new();
        for entry in self.entries()? {
            match entry.kind {
                EntryKind::Started {
                    name,
                    steps,
                    context,
                } => {
                    order.push(entry.saga_id.clone());
                    open.insert(
                        entry.saga_id.clone(),
                        PendingSaga {
                            id: entry.saga_id,
                            name,
                            steps,
                            context,
                            done: Vec::new(),
                            compensating: false,
                            compensated: Vec::new(),
                        },
                    );
                }
                EntryKind::StepDone { step, output } => {
                    if let Some(saga) = open.get_mut(&entry.saga_id) {
                        saga.done.push((step, output));
                    }
                }
                EntryKind::Compensating => {
                    if let Some(saga) = open.get_mut(&entry.saga_id) {
                        saga.compensating = true;
                    }
                }
                EntryKind::StepCompensated { step } => {
                    if let Some(saga) = open.get_mut(&entry.saga_id) {
                        saga.compensated.push(step);
                    }
                }
                EntryKind::Completed | EntryKind::Compensated => {
                    open.remove(&entry.saga_id);
                }
            }
        }
        Ok(order
            .into_iter()
            .filter_map(|id| open.remove(&id))
            .collect())
    }
}

/// Renders entries as one line each — the CI failure-artifact format.
pub fn serialize_entries(entries: &[LogEntry]) -> String {
    let mut out = String::new();
    for entry in entries {
        let line = match &entry.kind {
            EntryKind::Started {
                name,
                steps,
                context,
            } => format!(
                "{} started name={name} steps={steps} context={}B",
                entry.saga_id,
                context.len()
            ),
            EntryKind::StepDone { step, output } => format!(
                "{} step-done step={step} output={}B",
                entry.saga_id,
                output.len()
            ),
            EntryKind::Compensating => format!("{} compensating", entry.saga_id),
            EntryKind::StepCompensated { step } => {
                format!("{} step-compensated step={step}", entry.saga_id)
            }
            EntryKind::Completed => format!("{} completed", entry.saga_id),
            EntryKind::Compensated => format!("{} compensated", entry.saga_id),
        };
        out.push_str(&line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    fn log() -> SagaLog {
        SagaLog::new(Arc::new(MemStore::new()))
    }

    /// A `Started` entry sealed in the v1 format, as an older build wrote it.
    fn v1_started_record(saga_id: &str, name: &str, steps: u32) -> Vec<u8> {
        Record::seal(
            1,
            &LogEntryV1 {
                saga_id: saga_id.to_string(),
                kind: EntryKindV1::Started {
                    name: name.to_string(),
                    steps,
                },
            },
        )
        .to_bytes()
    }

    fn started(id: &str, steps: u32) -> LogEntry {
        LogEntry {
            saga_id: id.into(),
            kind: EntryKind::Started {
                name: "test".into(),
                steps,
                context: vec![9],
            },
        }
    }

    fn step_done(id: &str, step: u32) -> LogEntry {
        LogEntry {
            saga_id: id.into(),
            kind: EntryKind::StepDone {
                step,
                output: vec![step as u8],
            },
        }
    }

    #[test]
    fn entries_roundtrip_through_the_envelope() {
        let log = log();
        log.append(&started("s1", 3)).unwrap();
        log.append(&step_done("s1", 0)).unwrap();
        let entries = log.entries().unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0], started("s1", 3));
        assert_eq!(entries[1], step_done("s1", 0));
    }

    #[test]
    fn terminal_sagas_are_not_pending() {
        let log = log();
        log.append(&started("done", 1)).unwrap();
        log.append(&step_done("done", 0)).unwrap();
        log.append(&LogEntry {
            saga_id: "done".into(),
            kind: EntryKind::Completed,
        })
        .unwrap();
        log.append(&started("undone", 2)).unwrap();
        log.append(&step_done("undone", 0)).unwrap();

        let pending = log.pending().unwrap();
        assert_eq!(pending.len(), 1);
        let p = &pending[0];
        assert_eq!(p.id, "undone");
        assert_eq!(p.steps, 2);
        assert_eq!(p.context, vec![9]);
        assert_eq!(p.done, vec![(0, vec![0u8])]);
        assert!(!p.compensating);
    }

    #[test]
    fn steps_to_compensate_includes_the_possibly_executed_frontier() {
        let log = log();
        log.append(&started("s", 3)).unwrap();
        log.append(&step_done("s", 0)).unwrap();
        // Crash happened somewhere during step 1: it may have executed.
        let p = &log.pending().unwrap()[0];
        assert_eq!(p.steps_to_compensate(), vec![1, 0]);
        assert_eq!(p.output_of(0), Some(&[0u8][..]));
        assert_eq!(p.output_of(1), None);
        assert!(!p.all_steps_done());
    }

    #[test]
    fn fresh_saga_compensates_only_step_zero() {
        let log = log();
        log.append(&started("s", 3)).unwrap();
        let p = &log.pending().unwrap()[0];
        assert_eq!(p.steps_to_compensate(), vec![0]);
    }

    #[test]
    fn already_compensated_steps_are_skipped() {
        let log = log();
        log.append(&started("s", 2)).unwrap();
        log.append(&step_done("s", 0)).unwrap();
        log.append(&step_done("s", 1)).unwrap();
        log.append(&LogEntry {
            saga_id: "s".into(),
            kind: EntryKind::Compensating,
        })
        .unwrap();
        log.append(&LogEntry {
            saga_id: "s".into(),
            kind: EntryKind::StepCompensated { step: 1 },
        })
        .unwrap();
        let p = &log.pending().unwrap()[0];
        assert!(p.compensating);
        assert_eq!(p.steps_to_compensate(), vec![0]);
    }

    #[test]
    fn all_steps_done_saga_resumes_rather_than_compensates() {
        let log = log();
        log.append(&started("s", 2)).unwrap();
        log.append(&step_done("s", 0)).unwrap();
        log.append(&step_done("s", 1)).unwrap();
        let p = &log.pending().unwrap()[0];
        assert!(p.all_steps_done());
    }

    #[test]
    fn v1_entries_migrate_forward_with_empty_context() {
        let store = Arc::new(MemStore::new());
        store
            .append(&v1_started_record("old", "checkout", 3))
            .unwrap();
        let log = SagaLog::new(store);
        let entries = log.entries().unwrap();
        assert_eq!(
            entries[0].kind,
            EntryKind::Started {
                name: "checkout".into(),
                steps: 3,
                context: Vec::new(),
            }
        );
    }

    #[test]
    fn corrupt_record_ends_the_scan_without_error() {
        let store = Arc::new(MemStore::new());
        let log = SagaLog::new(Arc::clone(&store) as Arc<dyn crate::store::LogStore>);
        log.append(&started("s", 1)).unwrap();
        store.append(b"not a record").unwrap();
        log.append(&step_done("s", 0)).unwrap();
        // The corrupt middle record halts the scan; only the prefix stands.
        assert_eq!(log.entries().unwrap().len(), 1);
    }

    #[test]
    fn serialized_entries_are_line_per_entry() {
        let rendered = serialize_entries(&[
            started("s1", 2),
            step_done("s1", 0),
            LogEntry {
                saga_id: "s1".into(),
                kind: EntryKind::Compensating,
            },
        ]);
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("started name=test steps=2"));
        assert!(lines[2].ends_with("compensating"));
    }
}
