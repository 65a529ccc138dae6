//! The shared readiness reactor: one poller thread per process owns every
//! client and server socket in non-blocking mode. It is the only way a
//! connection or a listener moves bytes, so a process serving `C`
//! connections runs `1 + workers` transport threads, not `O(C)`.
//!
//! Architecture:
//!
//! * **One poller.** One epoll instance, driven by the `weaver-reactor`
//!   thread that the first connection or server spawns. Every read and
//!   accept happens on that thread, and so does every write on a TCP
//!   connection; a unix-socket sender may write its own frame (below).
//!   When both ends of a connection live in this process (a deployer's
//!   replicas, the baseline's services), the poller writes a request and
//!   finds the peer socket readable at its next `epoll_wait` without
//!   sleeping, and the reply comes back the same way: the call pays no
//!   poller wakeup between its two sockets. A process scales out with more
//!   replicas, not more pollers.
//! * **Read state machine.** Readiness drives `read` until `WouldBlock`,
//!   accumulating into a per-connection reassembly buffer. The framing's
//!   [`Framing::frame_extent`](crate::frame::Framing::frame_extent)
//!   equivalent (via [`ConnDriver::frame_extent`]) finds complete wire
//!   frames; each is copied once into a pooled buffer and handed to the
//!   driver, whose framing decodes it — partial frames carry over to the
//!   next readiness event.
//! * **Write state machine.** Senders enqueue [`OutFrame`]s; whichever
//!   thread holds a connection's writer role drains its queue into
//!   coalesced batches of up to `COALESCE_BUDGET` bytes
//!   (`OutQueue::next_batch`), so pipelined callers share syscalls while a
//!   lone frame is written immediately and never waits for company. There
//!   is at most one writer per connection, frames leave in `send` order,
//!   and a writer drains the queue until it is empty before it lets the
//!   role go; a frame sent meanwhile joins the queue behind it. On
//!   `WouldBlock` the writer parks the unwritten remainder and arms
//!   `EPOLLOUT` — disarmed again the moment the queue drains, so idle
//!   connections cost one registration and zero wakeups.
//!
//!   The writer is usually the poller, called by a flush token. On a unix
//!   socket, a sender that finds nothing queued, parked, scheduled or
//!   waiting on `EPOLLOUT`, and the poller asleep in `epoll_wait`, takes
//!   the role and writes its own frame: the peer is another process, so
//!   waking the poller only to copy the frame out would cost a thread
//!   hand-off per call. A TCP connection keeps the poller's write: every
//!   TCP connection this runtime opens joins two sockets of one process,
//!   where the poller that writes a request reads it next on the same CPU.
//!   A busy poller keeps the write too, and queued frames coalesce behind
//!   it. A steady flush allocates nothing: the flush-token queue and the
//!   poller's copy of it trade buffers, and a batch is copied straight
//!   from the queue into one pooled buffer.
//! * **Dispatch.** Frame decode happens on the poller; the driver decides
//!   what runs where. The client driver resolves pending calls in-line.
//!   The server driver hands handler execution to a bounded worker pool,
//!   except for requests its handler declares unable to block
//!   ([`RpcHandler::inline_ok`](crate::server::RpcHandler::inline_ok)):
//!   those run right here, and their replies leave in this loop
//!   iteration's `drain_flush_queue`, coalesced per connection. A poller
//!   that blocked would stall every connection of the process, so while
//!   such a handler runs the thread is marked ([`InlineScope`]) and the
//!   blocking client calls refuse to wait on it.
//!
//! The module sits on the vendored `epoll` shim, which is why the crate
//! builds on Linux only.

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::os::fd::RawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use epoll::{Epoll, Events, Interest, WakeFd};
use parking_lot::{Mutex, MutexGuard};

use crate::buf::{BufferPool, WireBuf};
use crate::endpoint::Listener;
use crate::error::TransportError;
use crate::fault::DuplexStream;

/// Token reserved for the poller's wake eventfd.
const WAKE_TOKEN: u64 = 0;

/// Cap on consecutive reads per readiness event, so one firehose peer
/// cannot starve the poller. Level-triggered polling re-reports leftovers.
const MAX_READS_PER_EVENT: usize = 16;

/// Bytes appended to the reassembly buffer per `read` call.
const READ_CHUNK: usize = 16 * 1024;

/// Stop draining the queue once a batch holds this many bytes. Large enough
/// to amortize a syscall over dozens of typical frames, small enough to keep
/// the coalescing scratch buffer within the pool's largest size class.
const COALESCE_BUDGET: usize = 64 * 1024;

thread_local! {
    /// Set while this thread runs a request handler in place of a worker.
    static IN_INLINE_HANDLER: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as running an inline handler until dropped
/// (also on unwind, so a panicking handler does not leave the mark behind).
pub(crate) struct InlineScope;

impl InlineScope {
    pub fn enter() -> Self {
        IN_INLINE_HANDLER.set(true);
        InlineScope
    }
}

impl Drop for InlineScope {
    fn drop(&mut self) {
        IN_INLINE_HANDLER.set(false);
    }
}

/// Fails a blocking wait attempted from inside an inline handler. The
/// poller it runs on serves no connection while it waits, and is the very
/// thread that has to deliver the awaited response — so the wait could
/// only end at its deadline.
pub(crate) fn refuse_blocking_on_reactor() -> Result<(), TransportError> {
    if IN_INLINE_HANDLER.get() {
        return Err(TransportError::Io(
            "blocking call from a reactor thread".into(),
        ));
    }
    Ok(())
}

/// One outbound frame: an encoded prefix (or a whole frame) plus an
/// optional zero-copy payload tail written contiguously after it.
#[derive(Debug)]
pub(crate) struct OutFrame {
    /// Frame header bytes (and payload too, when the framing interleaves).
    pub head: WireBuf,
    /// Borrowed payload appended verbatim after `head`, if any.
    pub tail: Option<WireBuf>,
}

impl OutFrame {
    /// A frame that is entirely contained in one buffer.
    pub fn single(head: WireBuf) -> Self {
        OutFrame { head, tail: None }
    }

    /// Total bytes this frame puts on the wire.
    pub fn len(&self) -> usize {
        self.head.len() + self.tail.as_ref().map_or(0, WireBuf::len)
    }
}

/// Counters the write path maintains, observable for tests and diagnostics.
#[derive(Default)]
pub(crate) struct WriterStats {
    /// Frames accepted for writing.
    pub frames: AtomicU64,
    /// Syscall batches flushed (`flushes <= frames`; the gap is coalescing).
    pub flushes: AtomicU64,
}

/// Per-connection protocol logic the reactor calls into. One driver per
/// connection; `on_frame`/`on_dead` run on the poller thread.
pub(crate) trait ConnDriver: Send + Sync + 'static {
    /// Length of the first complete wire frame in `buf` (`Ok(None)` =
    /// need more bytes; `Err` = unrecoverable framing corruption).
    fn frame_extent(&self, buf: &[u8]) -> Result<Option<usize>, TransportError>;

    /// Handles one complete wire frame. An error kills the connection.
    fn on_frame(&self, state: &Arc<ConnState>, frame: WireBuf) -> Result<(), TransportError>;

    /// The connection died (EOF, I/O error, protocol error, or explicit
    /// kill). Called exactly once, after the dead flag is set and the fd
    /// deregistered; drain pending work here.
    fn on_dead(&self);
}

/// Outbound queue state for one connection.
#[derive(Default)]
struct OutQueue {
    queue: VecDeque<OutFrame>,
    /// A batch that hit `WouldBlock` mid-write: the batch bytes + offset.
    inflight: Option<(WireBuf, usize)>,
    /// A flush token is queued with the poller (dedupes sender wakeups).
    scheduled: bool,
    /// `EPOLLOUT` interest is currently armed.
    epollout: bool,
    /// A thread holds the writer role: it writes outside this lock and
    /// drains the queue until it is empty before it lets the role go.
    writing: bool,
}

impl OutQueue {
    /// Pops the next coalesced batch — queued frames up to
    /// `COALESCE_BUDGET` bytes — as one contiguous byte run, counting its
    /// frames and the one flush it will cost. `None` when nothing is queued.
    fn next_batch(&mut self, pool: &BufferPool, stats: &WriterStats) -> Option<WireBuf> {
        // Measure the batch in place, so its buffer is taken once at its
        // final size and no list of popped frames is built.
        let mut frames = 0;
        let mut size = 0;
        for f in &self.queue {
            if size >= COALESCE_BUDGET {
                break;
            }
            size += f.len();
            frames += 1;
        }
        if frames == 0 {
            return None;
        }
        stats.frames.fetch_add(frames as u64, Ordering::Relaxed);
        stats.flushes.fetch_add(1, Ordering::Relaxed);
        if frames == 1 && self.queue[0].tail.is_none() {
            // The lone-frame case (sequential callers): write the encoded
            // buffer directly, no copy.
            return self.queue.pop_front().map(|f| f.head);
        }
        // Pipelined or split frames: one contiguous batch buffer. The
        // remainder bookkeeping under WouldBlock is simplest over one
        // contiguous byte run, and the copy is bounded by the budget.
        let mut batch = pool.get(size);
        for f in self.queue.drain(..frames) {
            batch.extend_from_slice(&f.head);
            if let Some(tail) = &f.tail {
                batch.extend_from_slice(tail);
            }
        }
        Some(batch.freeze())
    }
}

/// Frame-reassembly state for one connection. Only the poller touches it;
/// the mutex is uncontended.
struct ReadState {
    /// Reassembly buffer. Kept at its high-water length so the zero-fill
    /// of `Vec::resize` is paid once on growth, not on every readiness
    /// event; `filled` tracks how much of it holds real bytes.
    rbuf: Vec<u8>,
    /// Bytes of `rbuf` holding not-yet-parsed data.
    filled: usize,
}

/// One reactor-managed connection. Shared between the poller (I/O) and
/// caller threads (enqueueing writes, teardown).
pub(crate) struct ConnState {
    token: u64,
    fd: RawFd,
    reactor: Arc<Reactor>,
    io: Mutex<Box<dyn DuplexStream>>,
    driver: Mutex<Option<Arc<dyn ConnDriver>>>,
    dead: AtomicBool,
    read: Mutex<ReadState>,
    out: Mutex<OutQueue>,
    /// A sender may write its own frame while the poller sleeps: the
    /// socket is a unix one, whose reader is another process.
    sender_writes: bool,
    stats: WriterStats,
    pool: BufferPool,
}

impl ConnState {
    /// True once the connection has been torn down.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// Write-path counters: `(frames sent, syscall flushes)`.
    pub fn writer_counters(&self) -> (u64, u64) {
        (
            self.stats.frames.load(Ordering::Relaxed),
            self.stats.flushes.load(Ordering::Relaxed),
        )
    }

    /// Counts one request answered on the poller instead of a worker.
    pub fn note_inline_dispatch(&self) {
        self.reactor
            .stats
            .inline_dispatches
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Queues a frame for the connection's writer. Fails fast when the
    /// connection is already dead.
    ///
    /// On a unix socket, a sender that finds nothing ahead of its frame and
    /// the poller parked takes the writer role and writes the frame itself
    /// (see the module docs). Otherwise the frame joins the queue: behind
    /// the writer, a flush token or an armed `EPOLLOUT` that already owns
    /// it, or with a flush token of its own for the poller's drain. A write
    /// that fails after the frame was accepted kills the connection and
    /// still returns `Ok`: the frame may have reached the peer, so the
    /// caller learns of it through its reply as an in-flight
    /// `ConnectionClosed`, never as an error it could retry elsewhere.
    pub fn send(&self, frame: OutFrame) -> Result<(), TransportError> {
        if self.is_dead() {
            return Err(TransportError::ConnectionClosed);
        }
        let mut out = self.out.lock();
        // Whatever is queued or parked has an owner: the writer, a flush
        // token or an armed `EPOLLOUT`. So an unowned queue is empty.
        let owned = out.writing || out.scheduled || out.epollout;
        out.queue.push_back(frame);
        // Benign race: a kill that lands between the dead-check and the
        // enqueue leaves the frame in a queue that `kill` clears — the
        // caller's own dead-flag recheck (see `Connection::begin`) turns
        // the lost frame into a fail-fast error.
        if owned {
            return Ok(());
        }
        // `polling` is set only while the poller waits, so a sender that
        // reads it set is never the poller itself.
        if self.sender_writes && self.reactor.polling.load(Ordering::SeqCst) {
            self.flush(out);
            return Ok(());
        }
        out.scheduled = true;
        drop(out);
        self.reactor.schedule_flush(self.token);
        Ok(())
    }

    /// Takes the writer role, unless another thread holds it (that thread
    /// drains what is queued before it lets go), and drains the outbound
    /// queue in coalesced batches until it stays empty. On `WouldBlock` it
    /// parks the remainder and arms `EPOLLOUT`, disarmed once the queue is
    /// drained; a failed write kills the connection once `out` is released.
    fn flush<'a>(&'a self, mut out: MutexGuard<'a, OutQueue>) {
        if out.writing {
            return;
        }
        out.writing = true;
        loop {
            // The next write: a parked remainder, or a fresh batch.
            let (bytes, mut offset) = if let Some(parked) = out.inflight.take() {
                parked
            } else if let Some(batch) = out.next_batch(&self.pool, &self.stats) {
                (batch, 0)
            } else {
                if out.epollout {
                    out.epollout = false;
                    let _ = self
                        .reactor
                        .epoll
                        .modify(self.fd, self.token, Interest::READABLE);
                }
                out.writing = false;
                return;
            };
            drop(out);

            let written = {
                let mut io = self.io.lock();
                loop {
                    if offset == bytes.len() {
                        break Ok(());
                    }
                    match io.write(&bytes[offset..]) {
                        Ok(0) => break Err(io::ErrorKind::WriteZero.into()),
                        Ok(n) => offset += n,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) => break Err(e),
                    }
                }
            };
            out = self.out.lock();
            match written {
                // A connection killed meanwhile had its backlog dropped:
                // nothing is left to write or to park.
                _ if self.is_dead() => {
                    out.writing = false;
                    return;
                }
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    out.inflight = Some((bytes, offset));
                    if !out.epollout {
                        out.epollout = true;
                        let _ = self
                            .reactor
                            .epoll
                            .modify(self.fd, self.token, Interest::BOTH);
                    }
                    out.writing = false;
                    return;
                }
                Err(_) => {
                    out.writing = false;
                    drop(out);
                    self.kill();
                    return;
                }
            }
        }
    }

    /// Tears the connection down: marks it dead, deregisters the fd,
    /// drops queued output, severs the socket, and notifies the driver.
    /// Idempotent; callable from any thread.
    pub fn kill(&self) {
        if self.dead.swap(true, Ordering::SeqCst) {
            return;
        }
        self.reactor.deregister(self.token, self.fd);
        {
            let mut out = self.out.lock();
            out.queue.clear();
            out.inflight = None;
        }
        self.io.lock().shutdown_both();
        // Taking the driver out breaks the ConnState ↔ driver reference
        // cycle (drivers hold the state to send replies).
        let driver = self.driver.lock().take();
        if let Some(driver) = driver {
            driver.on_dead();
        }
        self.reactor
            .stats
            .connections
            .fetch_sub(1, Ordering::Relaxed);
    }
}

/// A listening socket owned by the reactor; readiness drives `accept`.
struct ListenerState {
    fd: RawFd,
    listener: Listener,
    on_accept: Box<dyn Fn(Box<dyn DuplexStream>) + Send + Sync>,
}

/// What a registration token resolves to.
enum Registered {
    Conn(Arc<ConnState>),
    Listener(Arc<ListenerState>),
}

/// Aggregate reactor counters, surfaced through the runtime's metrics
/// registries. Gauges are "current" values; counters are monotonic.
#[derive(Default)]
struct ReactorStats {
    /// Open reactor-managed connections (gauge).
    connections: AtomicU64,
    /// Registered epoll interests: connections + listeners (gauge).
    interests: AtomicU64,
    /// Poller wakeups (epoll_wait returns) so far (counter).
    wakeups: AtomicU64,
    /// Readiness events delivered so far (counter).
    ready_events: AtomicU64,
    /// Requests whose handler ran on the poller, not a worker (counter).
    inline_dispatches: AtomicU64,
}

/// A point-in-time copy of the reactor's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReactorSnapshot {
    /// Open reactor-managed connections.
    pub connections: u64,
    /// Registered epoll interests (connections + listeners).
    pub interests: u64,
    /// Poller wakeups so far.
    pub wakeups: u64,
    /// Readiness events delivered so far.
    pub ready_events: u64,
    /// Requests whose handler ran on the poller instead of a worker.
    pub inline_dispatches: u64,
}

/// The process-wide reactor: one epoll instance and the poller thread
/// that waits on it.
pub(crate) struct Reactor {
    epoll: Epoll,
    wake: WakeFd,
    registered: Mutex<HashMap<u64, Registered>>,
    flush_q: Mutex<Vec<u64>>,
    /// True while the poller thread is parked in `epoll_wait` (set just
    /// before, cleared just after). Senders only pay the eventfd syscall
    /// when this is set: a busy poller drains `flush_q` at the end of its
    /// loop anyway, and skipping the wake both saves the syscall and lets
    /// bursts accumulate into larger coalesced batches. A unix-socket
    /// sender that reads it set writes its own frame instead.
    polling: AtomicBool,
    next_token: AtomicU64,
    stats: ReactorStats,
}

static GLOBAL: OnceLock<Result<Arc<Reactor>, TransportError>> = OnceLock::new();

impl Reactor {
    /// The process-wide reactor, spawning its poller thread on first use.
    /// A start-up failure (epoll, eventfd or thread creation) is remembered
    /// and returned to every caller: there is no other way to move bytes.
    pub fn global() -> Result<&'static Arc<Reactor>, TransportError> {
        GLOBAL
            .get_or_init(|| {
                Reactor::spawn()
                    .map_err(|e| TransportError::Io(format!("reactor failed to start: {e}")))
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    fn spawn() -> io::Result<Arc<Reactor>> {
        let epoll = Epoll::new()?;
        let wake = WakeFd::new()?;
        epoll.add(wake.raw_fd(), WAKE_TOKEN, Interest::READABLE)?;
        let reactor = Arc::new(Reactor {
            epoll,
            wake,
            registered: Mutex::new(HashMap::new()),
            flush_q: Mutex::new(Vec::new()),
            polling: AtomicBool::new(false),
            next_token: AtomicU64::new(1),
            stats: ReactorStats::default(),
        });
        let poller = Arc::clone(&reactor);
        std::thread::Builder::new()
            .name("weaver-reactor".into())
            .spawn(move || poller.run())?;
        Ok(reactor)
    }

    /// Switches `stream` to non-blocking mode and registers it. The driver
    /// starts receiving `on_frame` callbacks as soon as bytes arrive.
    pub fn register_conn(
        self: &Arc<Self>,
        stream: Box<dyn DuplexStream>,
        driver: Arc<dyn ConnDriver>,
        pool: BufferPool,
    ) -> io::Result<Arc<ConnState>> {
        stream.set_nonblocking(true)?;
        let fd = stream.poll_fd();
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let conn = Arc::new(ConnState {
            token,
            fd,
            reactor: Arc::clone(self),
            io: Mutex::new(stream),
            driver: Mutex::new(Some(driver)),
            dead: AtomicBool::new(false),
            read: Mutex::new(ReadState {
                rbuf: Vec::new(),
                filled: 0,
            }),
            out: Mutex::new(OutQueue::default()),
            sender_writes: epoll::is_unix_socket(fd),
            stats: WriterStats::default(),
            pool,
        });
        self.add(fd, token, Registered::Conn(Arc::clone(&conn)))?;
        self.stats.connections.fetch_add(1, Ordering::Relaxed);
        Ok(conn)
    }

    /// Registers a listener; `on_accept` runs on the poller for each
    /// accepted (TCP: already `TCP_NODELAY`; still blocking-mode) socket.
    pub fn register_listener(
        &self,
        listener: Listener,
        on_accept: Box<dyn Fn(Box<dyn DuplexStream>) + Send + Sync>,
    ) -> io::Result<u64> {
        listener.set_nonblocking()?;
        let fd = listener.raw_fd();
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let state = Arc::new(ListenerState {
            fd,
            listener,
            on_accept,
        });
        self.add(fd, token, Registered::Listener(state))?;
        Ok(token)
    }

    /// Stops accepting on a listener registered with
    /// [`Reactor::register_listener`] and closes its socket.
    pub fn deregister_listener(&self, token: u64) {
        let fd = match self.registered.lock().get(&token) {
            Some(Registered::Listener(l)) => l.fd,
            _ => return,
        };
        self.deregister(token, fd);
        // The ListenerState (and its listener) dropped with the map entry,
        // closing the socket.
    }

    /// Point-in-time counters.
    pub fn snapshot(&self) -> ReactorSnapshot {
        ReactorSnapshot {
            connections: self.stats.connections.load(Ordering::Relaxed),
            interests: self.stats.interests.load(Ordering::Relaxed),
            wakeups: self.stats.wakeups.load(Ordering::Relaxed),
            ready_events: self.stats.ready_events.load(Ordering::Relaxed),
            inline_dispatches: self.stats.inline_dispatches.load(Ordering::Relaxed),
        }
    }

    /// Maps `token` to `entry` and arms read interest on `fd`.
    fn add(&self, fd: RawFd, token: u64, entry: Registered) -> io::Result<()> {
        self.registered.lock().insert(token, entry);
        if let Err(e) = self.epoll.add(fd, token, Interest::READABLE) {
            self.unmap(token);
            return Err(e);
        }
        self.stats.interests.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Removes `token`'s entry and hands it back, so that it drops after the
    /// map's lock is released: a listener's accept callback can hold the
    /// last handle on other connections (a server's handler owns the
    /// runtime's client pool), and tearing those down deregisters them.
    fn unmap(&self, token: u64) -> Option<Registered> {
        self.registered.lock().remove(&token)
    }

    fn deregister(&self, token: u64, fd: RawFd) {
        let Some(entry) = self.unmap(token) else {
            return;
        };
        let _ = self.epoll.delete(fd);
        self.stats.interests.fetch_sub(1, Ordering::Relaxed);
        // Dropping the entry can close `fd` (a listener's last handle), and
        // the kernel hands a closed descriptor's number to the next socket
        // any thread opens. Deleting the interest after the close could
        // delete that newcomer's registration instead, leaving it deaf.
        drop(entry);
    }

    fn schedule_flush(&self, token: u64) {
        self.flush_q.lock().push(token);
        if self.polling.load(Ordering::SeqCst) {
            self.wake.wake();
        }
    }

    fn lookup_conn(&self, token: u64) -> Option<Arc<ConnState>> {
        match self.registered.lock().get(&token) {
            Some(Registered::Conn(c)) => Some(Arc::clone(c)),
            _ => None,
        }
    }

    /// The poller loop: wait for readiness, drive reads/accepts/flushes.
    fn run(self: Arc<Self>) {
        let mut events = Events::with_capacity(1024);
        // Trades places with `flush_q` on every drain, so neither side
        // allocates once both have grown to the usual burst.
        let mut tokens = Vec::new();
        loop {
            // Park-flag handshake with `schedule_flush`: set `polling`,
            // then re-check the queue. A token pushed before the flag was
            // visible is caught by the re-check; one pushed after sees the
            // flag and pays the eventfd wake.
            self.polling.store(true, Ordering::SeqCst);
            if !self.flush_q.lock().is_empty() {
                self.polling.store(false, Ordering::SeqCst);
                self.drain_flush_queue(&mut tokens);
                continue;
            }
            let wait = self.epoll.wait(&mut events, -1);
            self.polling.store(false, Ordering::SeqCst);
            let Ok(ready) = wait else {
                return; // epoll fd closed: process teardown
            };
            self.stats.wakeups.fetch_add(1, Ordering::Relaxed);
            self.stats
                .ready_events
                .fetch_add(ready as u64, Ordering::Relaxed);
            for ev in events.iter() {
                if ev.token == WAKE_TOKEN {
                    self.wake.drain();
                    continue;
                }
                let entry = {
                    let reg = self.registered.lock();
                    match reg.get(&ev.token) {
                        Some(Registered::Conn(c)) => Some(Registered::Conn(Arc::clone(c))),
                        Some(Registered::Listener(l)) => Some(Registered::Listener(Arc::clone(l))),
                        None => None, // killed while the event was in flight
                    }
                };
                match entry {
                    Some(Registered::Conn(conn)) => {
                        if ev.readable || ev.hangup || ev.error {
                            self.handle_read(&conn);
                        }
                        if ev.writable && !conn.is_dead() {
                            conn.flush(conn.out.lock());
                        }
                    }
                    Some(Registered::Listener(l)) => self.handle_accept(&l),
                    None => {}
                }
            }
            // Flush requests queued by sender threads (and by drivers
            // during the event pass above).
            self.drain_flush_queue(&mut tokens);
        }
    }

    /// Flushes every connection with a queued flush token, looping until
    /// the queue stays empty (flushes can enqueue more work). `tokens` is
    /// the poller's empty spare, swapped in for the queued tokens.
    fn drain_flush_queue(&self, tokens: &mut Vec<u64>) {
        loop {
            std::mem::swap(tokens, &mut *self.flush_q.lock());
            if tokens.is_empty() {
                break;
            }
            for token in tokens.drain(..) {
                if let Some(conn) = self.lookup_conn(token) {
                    let mut out = conn.out.lock();
                    out.scheduled = false;
                    conn.flush(out);
                }
            }
        }
    }

    /// Drains readable bytes into the reassembly buffer and feeds complete
    /// frames to the driver. EOF or a hard error kills the connection.
    fn handle_read(&self, conn: &Arc<ConnState>) {
        let mut read = conn.read.lock();
        let mut eof = false;
        {
            let mut io = conn.io.lock();
            for _ in 0..MAX_READS_PER_EVENT {
                let filled = read.filled;
                if read.rbuf.len() < filled + READ_CHUNK {
                    read.rbuf.resize(filled + READ_CHUNK, 0);
                }
                match io.read(&mut read.rbuf[filled..filled + READ_CHUNK]) {
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(n) => {
                        read.filled = filled + n;
                        if n < READ_CHUNK {
                            // Short read: the socket buffer is drained.
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        eof = true;
                        break;
                    }
                }
            }
        }
        // Parse complete frames (socket lock released: drivers may send).
        let driver = conn.driver.lock().clone();
        let filled = read.filled;
        let mut off = 0;
        let mut fatal = false;
        if let Some(driver) = driver {
            loop {
                match driver.frame_extent(&read.rbuf[off..filled]) {
                    Ok(Some(ext)) if filled - off >= ext => {
                        let mut frame = conn.pool.get(ext);
                        frame.extend_from_slice(&read.rbuf[off..off + ext]);
                        if driver.on_frame(conn, frame.freeze()).is_err() {
                            fatal = true;
                            break;
                        }
                        off += ext;
                    }
                    Ok(_) => break, // need more bytes
                    Err(_) => {
                        fatal = true;
                        break;
                    }
                }
            }
        }
        if off > 0 {
            read.rbuf.copy_within(off..filled, 0);
            read.filled = filled - off;
        }
        // A buffer that ballooned for one oversized frame shrinks back once
        // it empties, so idle connections do not pin megabytes.
        if read.filled == 0 && read.rbuf.len() > 4 * READ_CHUNK {
            read.rbuf = Vec::new();
        }
        drop(read);
        if eof || fatal {
            conn.kill();
        }
    }

    /// Accepts until `WouldBlock`, handing each socket to the callback.
    fn handle_accept(&self, l: &ListenerState) {
        loop {
            match l.listener.accept() {
                Ok(stream) => (l.on_accept)(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break, // listener closed (shutdown) or transient
            }
        }
    }
}

/// Counters for the process-wide reactor, or `None` when it has never been
/// started (no connection or server was created yet) or failed to start.
/// Peeks without spawning: asking for metrics never starts the poller.
pub fn reactor_snapshot() -> Option<ReactorSnapshot> {
    GLOBAL
        .get()
        .and_then(|r| r.as_ref().ok())
        .map(|r| r.snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{Framing, Message, RequestHeader, WeaverFraming};

    /// Decodes every weaver frame of `wire`, cut as the reactor cuts them.
    fn decode_all(wire: &[u8]) -> Vec<Message> {
        let mut messages = Vec::new();
        let mut off = 0;
        while off < wire.len() {
            let ext = WeaverFraming::frame_extent(&wire[off..]).unwrap().unwrap();
            let frame = WireBuf::from(&wire[off..off + ext]);
            messages.extend(WeaverFraming.decode(frame).unwrap());
            off += ext;
        }
        messages
    }
    use std::net::{TcpListener, TcpStream};

    fn request_frame(pool: &BufferPool, stream: u64, args: &[u8]) -> OutFrame {
        let mut buf = pool.get(64 + args.len());
        WeaverFraming::write_request(&mut buf, stream, &RequestHeader::default(), args);
        OutFrame::single(buf.freeze())
    }

    fn queue_of(frames: impl IntoIterator<Item = OutFrame>) -> OutQueue {
        OutQueue {
            queue: frames.into_iter().collect(),
            ..Default::default()
        }
    }

    #[test]
    fn queued_frames_coalesce_into_one_batch() {
        let pool = BufferPool::new();
        let stats = WriterStats::default();
        let mut out = queue_of((0..20u64).map(|i| request_frame(&pool, i, &[i as u8; 32])));

        // All 20 frames were pre-queued, so the greedy drain hands the
        // poller a single write.
        let batch = out.next_batch(&pool, &stats).unwrap();
        assert!(out.next_batch(&pool, &stats).is_none());
        assert_eq!(stats.frames.load(Ordering::Relaxed), 20);
        assert_eq!(stats.flushes.load(Ordering::Relaxed), 1);

        // And the batch parses back into exactly the frames queued.
        let messages = decode_all(&batch);
        assert_eq!(messages.len(), 20);
        for (i, msg) in (0..20u64).zip(messages) {
            match msg {
                Message::Request { stream, args, .. } => {
                    assert_eq!(stream, i);
                    assert_eq!(&*args, &[i as u8; 32]);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn lone_frame_is_not_copied() {
        let pool = BufferPool::new();
        let stats = WriterStats::default();
        let frame = request_frame(&pool, 1, &[1, 2, 3]);
        let head = frame.head.as_slice().as_ptr();
        let batch = queue_of([frame]).next_batch(&pool, &stats).unwrap();
        assert_eq!(
            batch.as_slice().as_ptr(),
            head,
            "sequential callers skip the scratch copy"
        );
    }

    #[test]
    fn tail_is_written_contiguously() {
        let pool = BufferPool::new();
        // A frame split into prefix + payload tail (the server response
        // shape) must still reach the wire as one contiguous valid frame.
        let body = crate::frame::ResponseBody {
            status: crate::frame::Status::Ok,
            payload: vec![9u8; 300].into(),
        };
        let mut head = pool.get(32);
        let tail = WeaverFraming::write_response_parts(&mut head, 7, &body);
        assert!(tail.is_some(), "the payload travels as a borrowed tail");
        let batch = queue_of([OutFrame {
            head: head.freeze(),
            tail,
        }])
        .next_batch(&pool, &WriterStats::default())
        .unwrap();

        match &decode_all(&batch)[..] {
            [Message::Response { stream, body }] => {
                assert_eq!(*stream, 7);
                assert_eq!(&*body.payload, &[9u8; 300][..]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn budget_splits_giant_batches() {
        let pool = BufferPool::new();
        let stats = WriterStats::default();
        // 40 KiB frames: the 64 KiB budget admits two per batch.
        let mut out = queue_of((0..6u64).map(|i| request_frame(&pool, i, &[0u8; 40 << 10])));
        let mut wire = Vec::new();
        while let Some(batch) = out.next_batch(&pool, &stats) {
            wire.extend_from_slice(&batch);
        }
        assert_eq!(stats.frames.load(Ordering::Relaxed), 6);
        assert_eq!(stats.flushes.load(Ordering::Relaxed), 3);
        // Correctness is unconditional on the batching boundaries.
        assert_eq!(decode_all(&wire).len(), 6);
    }

    /// Echo-at-the-frame-level driver: every complete wire frame is sent
    /// straight back out through the reactor's write path.
    struct EchoDriver {
        dead_count: Arc<AtomicU64>,
    }

    impl ConnDriver for EchoDriver {
        fn frame_extent(&self, buf: &[u8]) -> Result<Option<usize>, TransportError> {
            WeaverFraming::frame_extent(buf)
        }

        fn on_frame(&self, state: &Arc<ConnState>, frame: WireBuf) -> Result<(), TransportError> {
            state.send(OutFrame::single(frame))
        }

        fn on_dead(&self) {
            self.dead_count.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn register_echo(
        reactor: &Arc<Reactor>,
        stream: TcpStream,
    ) -> (Arc<ConnState>, Arc<AtomicU64>) {
        stream.set_nodelay(true).unwrap();
        register_echo_stream(reactor, stream)
    }

    fn register_echo_stream(
        reactor: &Arc<Reactor>,
        stream: impl DuplexStream,
    ) -> (Arc<ConnState>, Arc<AtomicU64>) {
        let dead_count = Arc::new(AtomicU64::new(0));
        let driver = Arc::new(EchoDriver {
            dead_count: Arc::clone(&dead_count),
        });
        let conn = reactor
            .register_conn(Box::new(stream), driver, BufferPool::new())
            .unwrap();
        (conn, dead_count)
    }

    #[test]
    fn frames_reassemble_across_partial_writes() {
        use std::io::Write as _;

        let reactor = Reactor::spawn().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (managed, _) = listener.accept().unwrap();
        let (conn, _dead) = register_echo(&reactor, managed);

        // Write one frame in two halves with a pause: the reactor must
        // reassemble across readiness events and echo the whole frame.
        let mut frame = Vec::new();
        WeaverFraming::write_request(
            &mut frame,
            9,
            &crate::frame::RequestHeader::default(),
            &[1, 2, 3, 4],
        );
        let mid = frame.len() / 2;
        (&peer).write_all(&frame[..mid]).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(30));
        (&peer).write_all(&frame[mid..]).unwrap();

        let mut echoed = vec![0u8; frame.len()];
        peer.set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        (&peer).read_exact(&mut echoed).unwrap();
        assert_eq!(echoed, frame);
        assert!(!conn.is_dead());
        assert_eq!(reactor.snapshot().connections, 1);
        conn.kill();
        assert_eq!(reactor.snapshot().connections, 0);
    }

    #[test]
    fn peer_close_kills_connection_and_notifies_driver() {
        let reactor = Reactor::spawn().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (managed, _) = listener.accept().unwrap();
        let (conn, dead_count) = register_echo(&reactor, managed);

        drop(peer);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while !conn.is_dead() {
            assert!(std::time::Instant::now() < deadline, "kill never happened");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(dead_count.load(Ordering::SeqCst), 1);
        // Idempotent: a second kill is a no-op (driver not re-notified).
        conn.kill();
        assert_eq!(dead_count.load(Ordering::SeqCst), 1);
        assert_eq!(reactor.snapshot().connections, 0);
    }

    /// A listener's accept callback may hold the last handle on other
    /// connections of the same reactor (a server's handler owns the
    /// runtime's client pool). Deregistering the listener tears them down,
    /// and each of them deregisters itself on the way.
    #[test]
    fn deregistering_a_listener_tears_down_the_connections_it_owns() {
        struct KillOnDrop(Arc<ConnState>);
        impl Drop for KillOnDrop {
            fn drop(&mut self) {
                self.0.kill();
            }
        }

        let reactor = Reactor::spawn().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (managed, _) = listener.accept().unwrap();
        let (conn, dead_count) = register_echo(&reactor, managed);
        let owned = KillOnDrop(Arc::clone(&conn));
        let (accepting, _) =
            Listener::bind(crate::endpoint::Endpoint::Tcp(([127, 0, 0, 1], 0).into())).unwrap();
        let token = reactor
            .register_listener(
                accepting,
                Box::new(move |_| {
                    let _owned = &owned;
                }),
            )
            .unwrap();

        let (done_tx, done) = std::sync::mpsc::channel();
        let deregistering = {
            let reactor = Arc::clone(&reactor);
            std::thread::spawn(move || {
                reactor.deregister_listener(token);
                done_tx.send(()).unwrap();
            })
        };
        done.recv_timeout(std::time::Duration::from_secs(5))
            .expect("deregistering the listener deadlocked");
        deregistering.join().unwrap();
        assert!(conn.is_dead());
        assert_eq!(dead_count.load(Ordering::SeqCst), 1);
        assert_eq!(reactor.snapshot().interests, 0);
    }

    /// Deregistering a listener closes its socket, and the next socket any
    /// thread opens may get the same descriptor number. The listener's
    /// interest must be deleted before that close: deleted after, it is the
    /// newcomer's registration that goes, and the newcomer never hears from
    /// its peer again. Here the newcomer is opened and registered from the
    /// listener's own teardown, right after its socket closed.
    #[test]
    fn a_reused_descriptor_keeps_its_interest() {
        use std::io::Write as _;

        type Newcomer = Arc<Mutex<Option<(Arc<ConnState>, TcpStream)>>>;
        struct RegisterOnDrop {
            reactor: Arc<Reactor>,
            listener: TcpListener,
            newcomer: Newcomer,
        }
        impl Drop for RegisterOnDrop {
            fn drop(&mut self) {
                // The listening socket closed just before this runs (its
                // fields drop first): this connect takes its number.
                let stream = TcpStream::connect(self.listener.local_addr().unwrap()).unwrap();
                let (peer, _) = self.listener.accept().unwrap();
                let (conn, _) = register_echo(&self.reactor, stream);
                *self.newcomer.lock() = Some((conn, peer));
            }
        }

        let reactor = Reactor::spawn().unwrap();
        let newcomer: Newcomer = Arc::default();
        let on_drop = RegisterOnDrop {
            reactor: Arc::clone(&reactor),
            listener: TcpListener::bind("127.0.0.1:0").unwrap(),
            newcomer: Arc::clone(&newcomer),
        };
        let (accepting, _) =
            Listener::bind(crate::endpoint::Endpoint::Tcp(([127, 0, 0, 1], 0).into())).unwrap();
        let token = reactor
            .register_listener(
                accepting,
                Box::new(move |_| {
                    let _on_drop = &on_drop;
                }),
            )
            .unwrap();
        reactor.deregister_listener(token);

        let (conn, peer) = newcomer.lock().take().expect("registered on drop");
        let mut frame = Vec::new();
        WeaverFraming::write_request(&mut frame, 3, &RequestHeader::default(), &[7; 8]);
        (&peer).write_all(&frame).unwrap();
        let mut echoed = vec![0u8; frame.len()];
        peer.set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        (&peer)
            .read_exact(&mut echoed)
            .expect("the newcomer lost its epoll interest");
        assert_eq!(echoed, frame);
        conn.kill();
    }

    #[test]
    fn send_after_kill_fails_fast() {
        let reactor = Reactor::spawn().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (managed, _) = listener.accept().unwrap();
        let (conn, _) = register_echo(&reactor, managed);
        conn.kill();
        let mut buf = BufferPool::new().get(16);
        buf.extend_from_slice(&[0u8; 4]);
        assert!(conn.send(OutFrame::single(buf.freeze())).is_err());
    }

    #[test]
    fn kill_drops_queued_frames_unwritten() {
        let reactor = Reactor::spawn().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (managed, _) = listener.accept().unwrap();
        let (conn, _) = register_echo(&reactor, managed);

        // Queue far more than the socket buffer holds while the peer reads
        // nothing: the poller parks a remainder and the rest stays queued.
        let pool = BufferPool::new();
        let mut sent = 0usize;
        while sent < 16 << 20 {
            let frame = request_frame(&pool, 1, &[7u8; 32 * 1024]);
            sent += frame.len();
            conn.send(frame).unwrap();
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while !conn.out.lock().epollout {
            assert!(std::time::Instant::now() < deadline, "never backed up");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }

        // A dead connection's backlog is dropped, not written.
        conn.kill();
        {
            let out = conn.out.lock();
            assert!(out.queue.is_empty() && out.inflight.is_none());
        }
        peer.set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        let mut received = 0usize;
        let mut buf = vec![0u8; 64 * 1024];
        while let Ok(n @ 1..) = (&peer).read(&mut buf) {
            received += n;
        }
        assert!(received < sent, "all {sent} bytes reached a dead socket");
    }

    #[test]
    fn backpressure_arms_epollout_and_drains() {
        let reactor = Reactor::spawn().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (managed, _) = listener.accept().unwrap();
        let (conn, _) = register_echo(&reactor, managed);

        // Stuff far more than the socket buffer without reading: the poller
        // must park the remainder on WouldBlock instead of spinning or
        // dropping bytes.
        let pool = BufferPool::new();
        let total: usize = 4 << 20;
        let chunk = 32 * 1024;
        let mut frame = Vec::new();
        WeaverFraming::write_request(
            &mut frame,
            1,
            &crate::frame::RequestHeader::default(),
            &vec![7u8; chunk],
        );
        let mut sent = 0;
        while sent < total {
            let mut buf = pool.get(frame.len());
            buf.extend_from_slice(&frame);
            // Send raw pre-framed bytes: the echo driver will mirror them.
            conn.send(OutFrame::single(buf.freeze())).unwrap();
            sent += frame.len();
        }
        // Drain everything from the peer side; every byte must arrive.
        peer.set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let mut received = 0usize;
        let mut buf = vec![0u8; 64 * 1024];
        while received < sent {
            let n = (&peer).read(&mut buf).expect("read echoed bytes");
            assert!(n > 0, "EOF before all bytes arrived");
            received += n;
        }
        assert_eq!(received, sent);
        // Coalescing: far fewer flushes than frames.
        let (frames, flushes) = conn.writer_counters();
        assert!(
            frames > 0 && flushes < frames,
            "{frames} frames / {flushes} flushes"
        );
        conn.kill();
    }

    /// A sender that finds the poller parked writes a unix connection's
    /// frame itself, and a peer that reads nothing backs that write up: the
    /// sender parks the remainder and arms `EPOLLOUT` before `send`
    /// returns, later frames queue behind it, and the poller delivers every
    /// byte in order once the peer reads.
    #[test]
    fn a_sender_held_write_parks_its_remainder_and_arms_epollout() {
        use std::os::unix::net::UnixStream;

        let reactor = Reactor::spawn().unwrap();
        let (managed, peer) = UnixStream::pair().unwrap();
        let (conn, _) = register_echo_stream(&reactor, managed);
        assert!(conn.sender_writes, "a unix socket lets senders write");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while !reactor.polling.load(Ordering::SeqCst) {
            assert!(
                std::time::Instant::now() < deadline,
                "the poller never parked"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }

        // More than the socket buffer holds, in one frame.
        let pool = BufferPool::new();
        let first = request_frame(&pool, 0, &vec![0u8; 1 << 20]);
        let mut expected = first.head.to_vec();
        conn.send(first).unwrap();
        {
            let out = conn.out.lock();
            assert!(
                out.inflight.is_some() && out.epollout && !out.writing,
                "the sender left without parking its remainder"
            );
        }
        for i in 1..=64u64 {
            let frame = request_frame(&pool, i, &[i as u8; 32 * 1024]);
            expected.extend_from_slice(&frame.head);
            conn.send(frame).unwrap();
        }

        peer.set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let mut received = Vec::with_capacity(expected.len());
        let mut buf = vec![0u8; 64 * 1024];
        while received.len() < expected.len() {
            let n = (&peer).read(&mut buf).expect("read the sent bytes");
            assert!(n > 0, "EOF before all bytes arrived");
            received.extend_from_slice(&buf[..n]);
        }
        assert!(received == expected, "bytes arrived out of order");
        assert_eq!(conn.writer_counters().0, 65);
        while conn.out.lock().epollout {
            assert!(
                std::time::Instant::now() < deadline + std::time::Duration::from_secs(10),
                "EPOLLOUT stayed armed after the queue drained"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        conn.kill();
    }
}
