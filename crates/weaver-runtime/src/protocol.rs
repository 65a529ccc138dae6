//! The proclet ↔ envelope pipe protocol (paper §4.3, Table 1).
//!
//! "Concretely, proclets interact with the runtime over a Unix pipe. For
//! example, when a proclet is constructed, it sends a `RegisterReplica`
//! message over the pipe to mark itself as alive and ready. It periodically
//! issues `ComponentsToHost` requests to learn which components it should
//! run. If a component calls a method on a different component, the proclet
//! issues a `StartComponent` request to ensure it is started."
//!
//! Messages are `WeaverData`-encoded and length-prefixed (`u32` LE). In the
//! multiprocess deployer the pipe is the child's stdin/stdout; the protocol
//! itself only needs `Read`/`Write`, which is also how the conformance test
//! drives it in memory.

use std::io::{self, Read, Write};

use weaver_codec::prelude::*;
use weaver_macros::WeaverData;
use weaver_metrics::{CallGraphSnapshot, MetricsSnapshot};
use weaver_transport::Endpoint;

use crate::router::RoutingState;

/// Sanity cap on one pipe message (4 MiB).
pub const MAX_PIPE_MESSAGE: usize = 4 << 20;

/// Messages sent by the proclet to its envelope (the Table 1 API; the
/// caller of the API is the proclet).
#[derive(Debug, Clone, PartialEq, WeaverData)]
pub enum ProcletMessage {
    /// "Register a proclet as alive and ready."
    RegisterReplica {
        /// The proclet group this replica belongs to.
        group: u32,
        /// Replica index within the group.
        replica: u32,
        /// Endpoint of the proclet's data-plane RPC server.
        addr: Endpoint,
        /// OS process id (diagnostics).
        pid: u64,
    },
    /// "Get components a proclet should host."
    ComponentsToHost,
    /// "Start a component, potentially in another process."
    StartComponent {
        /// Registry id of the component to start.
        component: u32,
    },
    /// Periodic health/load export (Figure 3: "collect health and load
    /// information … aggregate metrics, logs, and traces").
    LoadReport {
        /// Mean utilization since the last report (1.0 = one busy core).
        utilization: f64,
        /// Metric snapshot.
        metrics: MetricsSnapshot,
        /// Call-graph snapshot.
        callgraph: CallGraphSnapshot,
    },
    /// A log line to aggregate.
    Log {
        /// Severity 0=debug 1=info 2=warn 3=error.
        level: u8,
        /// Message text.
        message: String,
    },
    /// Clean shutdown acknowledgement.
    ShuttingDown,
}

/// Messages sent by the envelope (runtime) to the proclet.
#[derive(Debug, Clone, PartialEq, WeaverData)]
pub enum EnvelopeMessage {
    /// Reply to `ComponentsToHost`: the registry ids to host.
    HostComponents {
        /// Component ids this proclet runs.
        components: Vec<u32>,
    },
    /// Full routing state for calling other components, at its epoch
    /// (monotone; stale updates are ignored).
    RoutingInfo(RoutingState),
    /// Liveness probe; the proclet answers with a `LoadReport`.
    HealthCheck,
    /// Ask the proclet to exit cleanly.
    Shutdown,
}

/// Writes one length-prefixed message.
pub fn write_message<T: Encode, W: Write>(w: &mut W, msg: &T) -> io::Result<()> {
    let payload = encode_to_vec(msg);
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "message too large"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&payload)?;
    w.flush()
}

/// Reads one length-prefixed message. `Ok(None)` on clean EOF.
pub fn read_message<T: Decode, R: Read>(r: &mut R) -> io::Result<Option<T>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_PIPE_MESSAGE {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("pipe message of {len} bytes exceeds cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    decode_from_slice(&payload)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::io::Cursor;

    #[test]
    fn table1_message_set_roundtrips() {
        // One of each API message from Table 1 plus the load/log extensions.
        let proclet_msgs = vec![
            ProcletMessage::RegisterReplica {
                group: 0,
                replica: 0,
                addr: "unix:@weaver-1-0".parse().unwrap(),
                pid: 1,
            },
            ProcletMessage::ComponentsToHost,
            ProcletMessage::StartComponent { component: 9 },
            ProcletMessage::LoadReport {
                utilization: 0.5,
                metrics: MetricsSnapshot::default(),
                callgraph: CallGraphSnapshot::default(),
            },
            ProcletMessage::Log {
                level: 2,
                message: "warn".into(),
            },
            ProcletMessage::ShuttingDown,
        ];
        let mut buf = Vec::new();
        for m in &proclet_msgs {
            write_message(&mut buf, m).unwrap();
        }
        let mut cursor = Cursor::new(&buf);
        for expected in &proclet_msgs {
            let got: ProcletMessage = read_message(&mut cursor).unwrap().unwrap();
            assert_eq!(&got, expected);
        }
        assert_eq!(
            read_message::<ProcletMessage, _>(&mut cursor).unwrap(),
            None
        );
    }

    #[test]
    fn envelope_messages_roundtrip() {
        let msgs = vec![
            EnvelopeMessage::HostComponents {
                components: vec![1, 2, 3],
            },
            EnvelopeMessage::RoutingInfo(RoutingState {
                epoch: 5,
                routes: HashMap::from([
                    (
                        0,
                        vec![
                            "tcp:127.0.0.1:1".parse().unwrap(),
                            "unix:@weaver-1-0".parse().unwrap(),
                            "tcp:[::1]:2".parse().unwrap(),
                        ],
                    ),
                    (3, Vec::new()),
                ]),
                assignments: HashMap::from([
                    (0, weaver_routing::SliceAssignment::uniform(2, 4)),
                    (3, weaver_routing::SliceAssignment::default()),
                ]),
            }),
            EnvelopeMessage::HealthCheck,
            EnvelopeMessage::Shutdown,
        ];
        let mut buf = Vec::new();
        for m in &msgs {
            write_message(&mut buf, m).unwrap();
        }
        let mut cursor = Cursor::new(&buf);
        for expected in &msgs {
            let got: EnvelopeMessage = read_message(&mut cursor).unwrap().unwrap();
            assert_eq!(&got, expected);
        }
    }

    #[test]
    fn truncated_message_is_error() {
        let mut buf = Vec::new();
        write_message(&mut buf, &ProcletMessage::ComponentsToHost).unwrap();
        buf.pop();
        // Append a second full-length prefix with no payload at all.
        let result = read_message::<ProcletMessage, _>(&mut Cursor::new(&buf[..buf.len()]));
        // Either clean decode failure or EOF error; never a panic or hang.
        assert!(result.is_err() || result.unwrap().is_none());
    }

    #[test]
    fn oversized_message_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let e = read_message::<ProcletMessage, _>(&mut Cursor::new(&buf)).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn clean_eof_is_none() {
        let empty: [u8; 0] = [];
        assert_eq!(
            read_message::<ProcletMessage, _>(&mut Cursor::new(&empty)).unwrap(),
            None
        );
    }
}
