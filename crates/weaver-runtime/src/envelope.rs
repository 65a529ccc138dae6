//! The envelope: the manager's per-proclet agent (paper Figure 3).
//!
//! "An envelope runs as the parent process to a proclet and relays API
//! calls to the manager." Here the envelope owns the child process and its
//! stdin/stdout pipe: a reader thread turns `ProcletMessage`s into events
//! on the manager's channel, and the manager writes `EnvelopeMessage`s back
//! through [`Envelope::send`].

use std::io::BufReader;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::Sender;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::proclet::{ENV_GROUP, ENV_REPLICA, ENV_VERSION, ENV_WORKERS};
use crate::protocol::{read_message, write_message, EnvelopeMessage, ProcletMessage};

/// Identity of one proclet replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReplicaId {
    /// Co-location group index.
    pub group: u32,
    /// Replica index within the group.
    pub replica: u32,
}

impl std::fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.group, self.replica)
    }
}

/// One spawned process of a replica: the replica plus the number the control
/// plane minted when it asked for the spawn. A replica that is restarted, or
/// retired and spawned again, gets a new incarnation; events from an old one
/// are stale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Incarnation {
    /// The replica.
    pub id: ReplicaId,
    /// Minted at spawn, unique within one control plane.
    pub n: u64,
}

impl std::fmt::Display for Incarnation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.id, self.n)
    }
}

/// Events the envelope reports to the manager, tagged with the incarnation
/// it was spawned for.
#[derive(Debug)]
pub enum EnvelopeEvent {
    /// A message arrived from the proclet.
    Message(Incarnation, ProcletMessage),
    /// The proclet's pipe closed (process exit or crash).
    Exited(Incarnation),
}

/// How to launch proclet processes.
#[derive(Debug, Clone)]
pub struct SpawnSpec {
    /// Executable to run (normally `std::env::current_exe()`).
    pub exe: std::path::PathBuf,
    /// Arguments to pass (test harnesses need e.g. `--nocapture`-style
    /// pass-throughs; usually empty).
    pub args: Vec<String>,
}

impl SpawnSpec {
    /// Spawn the current executable (the single-binary model: the proclet
    /// *is* this program).
    pub fn current_exe() -> std::io::Result<SpawnSpec> {
        Ok(SpawnSpec {
            exe: std::env::current_exe()?,
            args: Vec::new(),
        })
    }
}

/// A live envelope: child process + pipe threads.
pub struct Envelope {
    child: Mutex<Child>,
    stdin: Mutex<Option<ChildStdin>>,
}

impl Envelope {
    /// Spawns a proclet incarnation and starts relaying its messages to
    /// `events`.
    pub fn spawn(
        spec: &SpawnSpec,
        incarnation: Incarnation,
        version: u64,
        workers: usize,
        events: Sender<EnvelopeEvent>,
    ) -> std::io::Result<Arc<Envelope>> {
        let id = incarnation.id;
        let mut child = Command::new(&spec.exe)
            .args(&spec.args)
            .env(ENV_GROUP, id.group.to_string())
            .env(ENV_REPLICA, id.replica.to_string())
            .env(ENV_VERSION, version.to_string())
            .env(ENV_WORKERS, workers.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;

        let stdin = child.stdin.take().expect("stdin was piped");
        let stdout = child.stdout.take().expect("stdout was piped");

        let envelope = Arc::new(Envelope {
            child: Mutex::new(child),
            stdin: Mutex::new(Some(stdin)),
        });

        {
            let events = events.clone();
            std::thread::Builder::new()
                .name(format!("weaver-envelope-{id}"))
                .spawn(move || {
                    let mut reader = BufReader::new(stdout);
                    // Ends on pipe EOF (`Ok(None)`) or a read error alike.
                    while let Ok(Some(msg)) = read_message::<ProcletMessage, _>(&mut reader) {
                        if events
                            .send(EnvelopeEvent::Message(incarnation, msg))
                            .is_err()
                        {
                            break;
                        }
                    }
                    let _ = events.send(EnvelopeEvent::Exited(incarnation));
                })?;
        }

        Ok(envelope)
    }

    /// Sends a control message to the proclet. Errors mean the child is
    /// gone; the manager learns that via the `Exited` event too.
    pub fn send(&self, msg: &EnvelopeMessage) -> std::io::Result<()> {
        let mut stdin = self.stdin.lock();
        match stdin.as_mut() {
            Some(w) => write_message(w, msg),
            None => Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "proclet stdin closed",
            )),
        }
    }

    /// Closes the control pipe (a proclet exits cleanly when its pipe
    /// closes).
    pub fn close_pipe(&self) {
        self.stdin.lock().take();
    }

    /// Waits for the child to exit, killing it after `grace`.
    pub fn reap(&self, grace: std::time::Duration) {
        let deadline = std::time::Instant::now() + grace;
        loop {
            let mut child = self.child.lock();
            match child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) => {
                    if std::time::Instant::now() >= deadline {
                        let _ = child.kill();
                        let _ = child.wait();
                        return;
                    }
                }
                Err(_) => return,
            }
            drop(child);
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
    }
}
