//! Transport-level fault injection: a deterministic, seeded shim between
//! the connection machinery and the socket.
//!
//! Component-level chaos (`weaver-testing`'s `ChaosRunner`) exercises the
//! application's recovery logic, but it never stresses the transport
//! itself: the coalescing write queue, the zero-copy receive path, the
//! buffer pool's recycling, the dead-connection fail-fast. [`FaultStream`]
//! does. It wraps any duplex byte stream and perturbs traffic at the `Read`/
//! `Write` call boundary — exactly where a connection's writer flushes
//! coalesced batches and the reactor poller fills its frame-reassembly
//! buffer — so a single shim exercises both directions of the protocol
//! under failure.
//!
//! Faults are drawn from a seeded RNG, one decision per I/O call, with
//! independent decision streams for the read and write sides. The *n*-th
//! write decision under seed *s* is therefore always the same, and every
//! decision that actually perturbed traffic is recorded as a
//! [`FaultAction`] — the same record/replay discipline the component-level
//! chaos log uses.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A duplex byte stream the readiness reactor can drive: non-blocking
/// reads on the poller thread, non-blocking writes by the connection's
/// writer (the poller, or on a unix socket a sender), polled through its
/// file descriptor, severed abruptly on teardown.
///
/// [`TcpStream`] and [`UnixStream`] are the production implementations;
/// [`FaultStream`] wraps any implementation to inject faults underneath the
/// reactor.
pub trait DuplexStream: Read + Write + Send + 'static {
    /// Severs the stream in both directions (best effort).
    fn shutdown_both(&self);

    /// The file descriptor the reactor polls for readiness. Fault shims
    /// delegate to the wrapped stream, so the reactor polls the real socket
    /// while I/O still flows through the shim.
    fn poll_fd(&self) -> RawFd;

    /// Switches the underlying stream between blocking and non-blocking
    /// mode.
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()>;
}

impl DuplexStream for TcpStream {
    fn shutdown_both(&self) {
        let _ = self.shutdown(std::net::Shutdown::Both);
    }

    fn poll_fd(&self) -> RawFd {
        self.as_raw_fd()
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        TcpStream::set_nonblocking(self, nonblocking)
    }
}

impl DuplexStream for UnixStream {
    fn shutdown_both(&self) {
        let _ = self.shutdown(std::net::Shutdown::Both);
    }

    fn poll_fd(&self) -> RawFd {
        self.as_raw_fd()
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        UnixStream::set_nonblocking(self, nonblocking)
    }
}

/// A dialed stream of either kind ([`crate::Endpoint::dial`]) can be wrapped
/// in a [`FaultStream`] like a concrete one.
impl<S: DuplexStream + ?Sized> DuplexStream for Box<S> {
    fn shutdown_both(&self) {
        (**self).shutdown_both();
    }

    fn poll_fd(&self) -> RawFd {
        (**self).poll_fd()
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        (**self).set_nonblocking(nonblocking)
    }
}

/// One fault decision that actually perturbed traffic, recorded for
/// post-mortem analysis and deterministic regression tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// An I/O call was delayed by the given duration.
    Delay(Side, Duration),
    /// A write was cut short after the given byte count, then the stream
    /// severed — a connection dying mid-frame.
    Truncate(Side, usize),
    /// One byte at the given offset was flipped.
    Corrupt(Side, usize),
    /// The written bytes were sent twice back-to-back.
    Duplicate(Side),
    /// The stream was severed outright.
    Sever(Side),
}

/// Which direction of the stream a fault hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The local write path (outbound bytes).
    Write,
    /// The local read path (inbound bytes).
    Read,
}

/// Per-decision fault probabilities. Everything left at zero makes the
/// shim transparent; probabilities are evaluated in the order severe →
/// benign (sever, truncate, corrupt, duplicate, delay) and at most one
/// fault fires per I/O call.
#[derive(Debug, Clone)]
pub struct FaultSpec {
    /// RNG seed; the decision sequence is a pure function of it.
    pub seed: u64,
    /// Probability a write is severed outright.
    pub sever: f64,
    /// Probability a write is truncated mid-buffer then severed
    /// (write side only).
    pub truncate: f64,
    /// Probability one byte is flipped.
    pub corrupt: f64,
    /// Probability written bytes are duplicated (write side only).
    pub duplicate: f64,
    /// Probability an I/O call is delayed.
    pub delay: f64,
    /// Upper bound on injected delays (exclusive; min is 50µs).
    pub max_delay: Duration,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            seed: 0xFA_017,
            sever: 0.0,
            truncate: 0.0,
            corrupt: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            max_delay: Duration::from_micros(500),
        }
    }
}

impl FaultSpec {
    /// A spec that only delays (messages arrive late but intact) — safe
    /// under workloads that assert zero errors.
    pub fn delays_only(seed: u64, probability: f64) -> Self {
        FaultSpec {
            seed,
            delay: probability,
            ..Default::default()
        }
    }

    /// A storm: every fault class armed with the given probability.
    pub fn storm(seed: u64, probability: f64) -> Self {
        FaultSpec {
            seed,
            sever: probability,
            truncate: probability,
            corrupt: probability,
            duplicate: probability,
            delay: probability,
            ..Default::default()
        }
    }
}

/// The decision the lane RNG produced for one I/O call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Decision {
    Deliver,
    Sever,
    Truncate,
    Corrupt,
    Duplicate,
    Delay(Duration),
}

/// One direction's deterministic decision stream plus its action log.
struct Lane {
    rng: StdRng,
    decisions: u64,
}

impl Lane {
    fn next(&mut self, spec: &FaultSpec, write_side: bool) -> Decision {
        self.decisions += 1;
        // One uniform draw per class keeps the stream length fixed per
        // decision, so later decisions never shift when probabilities
        // change between runs with the same seed.
        let draws = [
            self.rng.gen_range(0.0..1.0f64),
            self.rng.gen_range(0.0..1.0f64),
            self.rng.gen_range(0.0..1.0f64),
            self.rng.gen_range(0.0..1.0f64),
            self.rng.gen_range(0.0..1.0f64),
        ];
        let delay_micros = self
            .rng
            .gen_range(50..spec.max_delay.as_micros().max(51) as u64);
        if draws[0] < spec.sever {
            return Decision::Sever;
        }
        if write_side && draws[1] < spec.truncate {
            return Decision::Truncate;
        }
        if draws[2] < spec.corrupt {
            return Decision::Corrupt;
        }
        if write_side && draws[3] < spec.duplicate {
            return Decision::Duplicate;
        }
        if draws[4] < spec.delay {
            return Decision::Delay(Duration::from_micros(delay_micros));
        }
        Decision::Deliver
    }
}

struct InjectorInner {
    spec: FaultSpec,
    write_lane: Mutex<Lane>,
    read_lane: Mutex<Lane>,
    log: Mutex<Vec<FaultAction>>,
    severed: std::sync::atomic::AtomicBool,
}

/// A shared source of fault decisions for one logical connection (both
/// directions of a [`FaultStream`] draw from the same injector).
///
/// Cloning shares state: a clone kept by the test keeps seeing the action
/// log the stream appends to.
#[derive(Clone)]
pub struct FaultInjector {
    inner: Arc<InjectorInner>,
}

impl FaultInjector {
    /// Builds an injector from a spec. Read and write sides get
    /// independent decision streams derived from the seed, so each side's
    /// *n*-th decision is deterministic regardless of thread interleaving.
    pub fn new(spec: FaultSpec) -> Self {
        let write_rng = StdRng::seed_from_u64(spec.seed ^ 0x57_52_49_54); // "WRIT"
        let read_rng = StdRng::seed_from_u64(spec.seed ^ 0x52_45_41_44); // "READ"
        FaultInjector {
            inner: Arc::new(InjectorInner {
                spec,
                write_lane: Mutex::new(Lane {
                    rng: write_rng,
                    decisions: 0,
                }),
                read_lane: Mutex::new(Lane {
                    rng: read_rng,
                    decisions: 0,
                }),
                log: Mutex::new(Vec::new()),
                severed: std::sync::atomic::AtomicBool::new(false),
            }),
        }
    }

    /// Every fault that actually perturbed traffic so far, in the order
    /// the I/O calls observed them.
    pub fn actions(&self) -> Vec<FaultAction> {
        self.inner.log.lock().clone()
    }

    /// True once a sever or truncate fault has killed the stream.
    pub fn is_severed(&self) -> bool {
        self.inner.severed.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Decisions drawn so far as `(write_side, read_side)`.
    pub fn decisions(&self) -> (u64, u64) {
        (
            self.inner.write_lane.lock().decisions,
            self.inner.read_lane.lock().decisions,
        )
    }

    fn record(&self, action: FaultAction) {
        self.inner.log.lock().push(action);
    }

    fn sever(&self) {
        self.inner
            .severed
            .store(true, std::sync::atomic::Ordering::SeqCst);
    }

    fn next_write(&self) -> Decision {
        self.inner.write_lane.lock().next(&self.inner.spec, true)
    }

    fn next_read(&self) -> Decision {
        self.inner.read_lane.lock().next(&self.inner.spec, false)
    }
}

/// A duplex stream that injects faults on every read and write.
///
/// Wrap the stream handed to [`crate::Connection::from_duplex`]; the
/// connection's writer then flushes its coalesced batches *through* the
/// shim, and the poller reads inbound bytes through it, so every
/// transport-level failure mode (partial write, mid-frame death, corrupt
/// frame, duplicated frame, stalled socket) exercises the real recovery
/// code.
pub struct FaultStream<S> {
    inner: S,
    injector: FaultInjector,
}

impl<S> FaultStream<S> {
    /// Wraps `inner`, drawing decisions from `injector`.
    pub fn new(inner: S, injector: FaultInjector) -> Self {
        FaultStream { inner, injector }
    }

    /// The shared injector (for logs and post-mortem assertions).
    pub fn injector(&self) -> &FaultInjector {
        &self.injector
    }
}

impl<S: DuplexStream> FaultStream<S> {
    fn severed_err() -> io::Error {
        io::Error::new(io::ErrorKind::BrokenPipe, "severed by fault injection")
    }
}

impl<S: DuplexStream> Write for FaultStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.injector.is_severed() {
            return Err(Self::severed_err());
        }
        if buf.is_empty() {
            return self.inner.write(buf);
        }
        match self.injector.next_write() {
            Decision::Deliver => self.inner.write(buf),
            Decision::Delay(d) => {
                self.injector.record(FaultAction::Delay(Side::Write, d));
                std::thread::sleep(d);
                self.inner.write(buf)
            }
            Decision::Duplicate => {
                self.injector.record(FaultAction::Duplicate(Side::Write));
                self.inner.write_all(buf)?;
                self.inner.write_all(buf)?;
                Ok(buf.len())
            }
            Decision::Corrupt => {
                let offset = (buf.len() / 2).min(buf.len() - 1);
                self.injector
                    .record(FaultAction::Corrupt(Side::Write, offset));
                let mut copy = buf.to_vec();
                copy[offset] ^= 0xA5;
                self.inner.write_all(&copy)?;
                Ok(buf.len())
            }
            Decision::Truncate => {
                // A connection dying mid-frame: deliver a prefix, then cut.
                let keep = buf.len() / 2;
                self.injector
                    .record(FaultAction::Truncate(Side::Write, keep));
                if keep > 0 {
                    let _ = self.inner.write_all(&buf[..keep]);
                }
                self.injector.sever();
                self.inner.shutdown_both();
                Err(Self::severed_err())
            }
            Decision::Sever => {
                self.injector.record(FaultAction::Sever(Side::Write));
                self.injector.sever();
                self.inner.shutdown_both();
                Err(Self::severed_err())
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl<S: DuplexStream> Read for FaultStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.injector.is_severed() {
            return Ok(0); // EOF: the reader treats it as connection death.
        }
        match self.injector.next_read() {
            Decision::Deliver | Decision::Duplicate | Decision::Truncate => self.inner.read(buf),
            Decision::Delay(d) => {
                self.injector.record(FaultAction::Delay(Side::Read, d));
                std::thread::sleep(d);
                self.inner.read(buf)
            }
            Decision::Corrupt => {
                let n = self.inner.read(buf)?;
                if n > 0 {
                    let offset = (n / 2).min(n - 1);
                    self.injector
                        .record(FaultAction::Corrupt(Side::Read, offset));
                    buf[offset] ^= 0xA5;
                }
                Ok(n)
            }
            Decision::Sever => {
                self.injector.record(FaultAction::Sever(Side::Read));
                self.injector.sever();
                self.inner.shutdown_both();
                Ok(0)
            }
        }
    }
}

impl<S: DuplexStream> DuplexStream for FaultStream<S> {
    fn shutdown_both(&self) {
        self.inner.shutdown_both();
    }

    fn poll_fd(&self) -> RawFd {
        self.inner.poll_fd()
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        self.inner.set_nonblocking(nonblocking)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A socket pair stands in for the network: the stream under test reads
    /// the scripted `input`, and what it writes lands in the returned peer.
    fn loopback(input: &[u8]) -> (UnixStream, UnixStream) {
        let (near, mut peer) = UnixStream::pair().unwrap();
        peer.write_all(input).unwrap();
        peer.set_nonblocking(true).unwrap();
        (near, peer)
    }

    /// Everything written to the loopback so far.
    fn written(peer: &mut UnixStream) -> Vec<u8> {
        let mut out = Vec::new();
        let mut chunk = [0u8; 4096];
        while let Ok(n @ 1..) = peer.read(&mut chunk) {
            out.extend_from_slice(&chunk[..n]);
        }
        out
    }

    #[test]
    fn zero_probabilities_are_transparent() {
        let (inner, mut peer) = loopback(&[1, 2, 3]);
        let mut s = FaultStream::new(inner, FaultInjector::new(FaultSpec::default()));
        s.write_all(&[9, 8, 7]).unwrap();
        let mut buf = [0u8; 3];
        s.read_exact(&mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3]);
        assert_eq!(written(&mut peer), [9, 8, 7]);
        assert!(s.injector().actions().is_empty());
    }

    #[test]
    fn decision_stream_is_deterministic_per_seed() {
        let run = |seed| {
            let injector = FaultInjector::new(FaultSpec::storm(seed, 0.3));
            let (inner, _peer) = loopback(&[0u8; 4096]);
            let mut s = FaultStream::new(inner, injector.clone());
            for _ in 0..64 {
                let _ = s.write(&[1u8; 64]);
                let mut buf = [0u8; 16];
                let _ = s.read(&mut buf);
            }
            injector.actions()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should diverge");
    }

    #[test]
    fn sever_sticks_and_write_fails_fast() {
        let (inner, _peer) = loopback(&[]);
        // sever = 1.0: the very first write dies.
        let mut s = FaultStream::new(
            inner,
            FaultInjector::new(FaultSpec {
                seed: 1,
                sever: 1.0,
                ..Default::default()
            }),
        );
        assert!(s.write(&[1]).is_err());
        assert!(s.injector().is_severed());
        // Every later write fails without drawing a new decision.
        let before = s.injector().decisions();
        assert!(s.write(&[2]).is_err());
        assert_eq!(s.injector().decisions(), before);
        // Reads observe EOF.
        let mut buf = [0u8; 4];
        assert_eq!(s.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn corrupt_flips_exactly_one_byte() {
        let (inner, mut peer) = loopback(&[]);
        let mut s = FaultStream::new(
            inner,
            FaultInjector::new(FaultSpec {
                seed: 3,
                corrupt: 1.0,
                ..Default::default()
            }),
        );
        s.write_all(&[0u8; 8]).unwrap();
        let written = written(&mut peer);
        assert_eq!(written.len(), 8);
        assert_eq!(written.iter().filter(|&&b| b != 0).count(), 1);
        assert_eq!(
            s.injector().actions(),
            vec![FaultAction::Corrupt(Side::Write, 4)]
        );
    }

    #[test]
    fn duplicate_writes_bytes_twice() {
        let (inner, mut peer) = loopback(&[]);
        let mut s = FaultStream::new(
            inner,
            FaultInjector::new(FaultSpec {
                seed: 4,
                duplicate: 1.0,
                ..Default::default()
            }),
        );
        assert_eq!(s.write(&[5, 6]).unwrap(), 2);
        assert_eq!(written(&mut peer), [5, 6, 5, 6]);
    }

    #[test]
    fn truncate_delivers_prefix_then_severs() {
        let (inner, mut peer) = loopback(&[]);
        let mut s = FaultStream::new(
            inner,
            FaultInjector::new(FaultSpec {
                seed: 5,
                truncate: 1.0,
                ..Default::default()
            }),
        );
        assert!(s.write(&[1, 2, 3, 4]).is_err());
        assert_eq!(written(&mut peer), [1, 2], "half the buffer then death");
        assert!(s.injector().is_severed());
    }
}
