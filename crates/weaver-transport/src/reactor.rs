//! The shared readiness reactor: one poller thread (optionally sharded)
//! owns every client and server socket in non-blocking mode. It is the only
//! way a connection or a listener moves bytes, so a process serving `C`
//! connections runs `shards + workers` transport threads, not `O(C)`.
//!
//! Architecture:
//!
//! * **Shards.** `WEAVER_REACTOR_SHARDS` (default `min(cores, 4)`) epoll
//!   instances, each driven by one `weaver-reactor-{i}` thread.
//!   Connections are assigned round-robin at registration; a connection's
//!   I/O happens *only* on its shard's thread, so per-connection state
//!   needs no cross-thread coordination beyond the outbound queue.
//! * **Read state machine.** Readiness drives `read` until `WouldBlock`,
//!   accumulating into a per-connection reassembly buffer. The framing's
//!   [`Framing::frame_extent`](crate::frame::Framing::frame_extent)
//!   equivalent (via [`ConnDriver::frame_extent`]) finds complete wire
//!   frames, which are handed to the driver one at a time — partial frames
//!   carry over to the next readiness event.
//! * **Write state machine.** Senders enqueue [`OutFrame`]s and schedule a
//!   flush; the shard thread drains the queue into coalesced batches of up
//!   to `COALESCE_BUDGET` bytes (`OutQueue::next_batch`), so pipelined
//!   callers share syscalls while a lone frame is written immediately and
//!   never waits for company. On `WouldBlock` the unwritten remainder is
//!   parked and `EPOLLOUT` interest armed — and disarmed again the moment
//!   the queue drains, so idle connections cost one registration and zero
//!   wakeups.
//! * **Dispatch.** Frame decode happens on the shard thread; the driver
//!   decides what runs where. The client driver resolves pending calls
//!   in-line. The server driver hands handler execution to a bounded
//!   worker pool, except for requests its handler declares unable to block
//!   ([`RpcHandler::inline_ok`](crate::server::RpcHandler::inline_ok)):
//!   those run right here, and their replies leave in this loop
//!   iteration's `drain_flush_queue`, coalesced per connection. A shard
//!   thread that blocked would stall every connection it owns, so while
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
use parking_lot::Mutex;

use crate::buf::{BufferPool, WireBuf};
use crate::endpoint::Listener;
use crate::error::TransportError;
use crate::fault::DuplexStream;

/// Token reserved for each shard's wake eventfd.
const WAKE_TOKEN: u64 = 0;

/// Cap on consecutive reads per readiness event, so one firehose peer
/// cannot starve its shard. Level-triggered polling re-reports leftovers.
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
/// shard thread it runs on serves no connection while it waits, and may be
/// the very thread that has to deliver the awaited response — in which
/// case the wait could only end at its deadline.
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
/// connection; `on_frame`/`on_dead` run on the owning shard's thread.
pub(crate) trait ConnDriver: Send + Sync + 'static {
    /// Length of the first complete wire frame in `buf` (`Ok(None)` =
    /// need more bytes; `Err` = unrecoverable framing corruption).
    fn frame_extent(&self, buf: &[u8]) -> Result<Option<usize>, TransportError>;

    /// Handles one complete wire frame. An error kills the connection.
    fn on_frame(&self, state: &Arc<ConnState>, frame: &[u8]) -> Result<(), TransportError>;

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
    /// A flush token is queued with the shard (dedupes sender wakeups).
    scheduled: bool,
    /// `EPOLLOUT` interest is currently armed.
    epollout: bool,
}

impl OutQueue {
    /// Pops the next coalesced batch — queued frames up to
    /// `COALESCE_BUDGET` bytes — as one contiguous byte run, counting its
    /// frames and the one flush it will cost. `None` when nothing is queued.
    fn next_batch(&mut self, pool: &BufferPool, stats: &WriterStats) -> Option<WireBuf> {
        let mut batch: Vec<OutFrame> = Vec::new();
        let mut size = 0;
        while size < COALESCE_BUDGET {
            match self.queue.pop_front() {
                Some(f) => {
                    size += f.len();
                    batch.push(f);
                }
                None => break,
            }
        }
        if batch.is_empty() {
            return None;
        }
        stats
            .frames
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        stats.flushes.fetch_add(1, Ordering::Relaxed);
        Some(match batch.as_slice() {
            // The lone-frame case (sequential callers): write the encoded
            // buffer directly, no copy.
            [only] if only.tail.is_none() => only.head.clone(),
            _ => {
                // Pipelined or split frames: one contiguous batch buffer.
                // The remainder bookkeeping under WouldBlock is simplest
                // over one contiguous byte run, and the copy is bounded by
                // the budget.
                let mut scratch = pool.get(size);
                for f in &batch {
                    scratch.extend_from_slice(&f.head);
                    if let Some(tail) = &f.tail {
                        scratch.extend_from_slice(tail);
                    }
                }
                scratch.freeze()
            }
        })
    }
}

/// Frame-reassembly state for one connection. Only the shard thread
/// touches it; the mutex is uncontended.
struct ReadState {
    /// Reassembly buffer. Kept at its high-water length so the zero-fill
    /// of `Vec::resize` is paid once on growth, not on every readiness
    /// event; `filled` tracks how much of it holds real bytes.
    rbuf: Vec<u8>,
    /// Bytes of `rbuf` holding not-yet-parsed data.
    filled: usize,
}

/// One reactor-managed connection. Shared between the shard thread (I/O)
/// and caller threads (enqueueing writes, teardown).
pub(crate) struct ConnState {
    token: u64,
    fd: RawFd,
    shard: Arc<Shard>,
    io: Mutex<Box<dyn DuplexStream>>,
    driver: Mutex<Option<Arc<dyn ConnDriver>>>,
    dead: AtomicBool,
    read: Mutex<ReadState>,
    out: Mutex<OutQueue>,
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

    /// Counts one request answered on the shard thread instead of a worker.
    pub fn note_inline_dispatch(&self) {
        self.shard
            .stats
            .inline_dispatches
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Enqueues a frame for the coalescing drain on the shard thread.
    /// Fails fast when the connection is already dead.
    pub fn send(&self, frame: OutFrame) -> Result<(), TransportError> {
        if self.is_dead() {
            return Err(TransportError::ConnectionClosed);
        }
        let mut out = self.out.lock();
        out.queue.push_back(frame);
        let need_schedule = !out.scheduled && !out.epollout;
        if need_schedule {
            out.scheduled = true;
        }
        drop(out);
        if need_schedule {
            self.shard.schedule_flush(self.token);
        }
        // Benign race: a kill that lands between the dead-check and the
        // enqueue leaves the frame in a queue that `kill` clears — the
        // caller's own dead-flag recheck (see `Connection::begin`) turns
        // the lost frame into a fail-fast error.
        Ok(())
    }

    /// Tears the connection down: marks it dead, deregisters the fd,
    /// drops queued output, severs the socket, and notifies the driver.
    /// Idempotent; callable from any thread.
    pub fn kill(self: &Arc<Self>) {
        if self.dead.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shard.deregister(self.token, self.fd);
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
        self.shard.stats.connections.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A listening socket owned by the reactor; readiness drives `accept`.
struct ListenerState {
    fd: RawFd,
    listener: Listener,
    on_accept: Box<dyn Fn(Box<dyn DuplexStream>) + Send + Sync>,
}

/// What a shard token resolves to.
enum Registered {
    Conn(Arc<ConnState>),
    Listener(Arc<ListenerState>),
}

/// Aggregate reactor counters, surfaced through the runtime's metrics
/// registries. Gauges are "current" values; counters are monotonic.
#[derive(Default)]
pub struct ReactorStats {
    /// Open reactor-managed connections (gauge).
    pub connections: AtomicU64,
    /// Registered epoll interests: connections + listeners (gauge).
    pub interests: AtomicU64,
    /// Poller wakeups (epoll_wait returns) so far (counter).
    pub wakeups: AtomicU64,
    /// Readiness events delivered so far (counter).
    pub ready_events: AtomicU64,
    /// Requests whose handler ran on a shard thread, not a worker (counter).
    pub inline_dispatches: AtomicU64,
}

/// A point-in-time copy of [`ReactorStats`].
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
    /// Requests whose handler ran on a shard thread instead of a worker.
    pub inline_dispatches: u64,
    /// Poller shards serving those connections.
    pub shards: u64,
}

/// One epoll instance + its poller thread's shared state.
struct Shard {
    epoll: Epoll,
    wake: WakeFd,
    registered: Mutex<HashMap<u64, Registered>>,
    flush_q: Mutex<Vec<u64>>,
    /// True while the poller thread is parked in `epoll_wait` (set just
    /// before, cleared just after). Senders only pay the eventfd syscall
    /// when this is set: a busy poller drains `flush_q` at the end of its
    /// loop anyway, and skipping the wake both saves the syscall and lets
    /// bursts accumulate into larger coalesced batches.
    polling: AtomicBool,
    stats: Arc<ReactorStats>,
}

impl Shard {
    fn schedule_flush(&self, token: u64) {
        self.flush_q.lock().push(token);
        if self.polling.load(Ordering::SeqCst) {
            self.wake.wake();
        }
    }

    fn deregister(&self, token: u64, fd: RawFd) {
        if self.registered.lock().remove(&token).is_some() {
            let _ = self.epoll.delete(fd);
            self.stats.interests.fetch_sub(1, Ordering::Relaxed);
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
        loop {
            // Park-flag handshake with `schedule_flush`: set `polling`,
            // then re-check the queue. A token pushed before the flag was
            // visible is caught by the re-check; one pushed after sees the
            // flag and pays the eventfd wake.
            self.polling.store(true, Ordering::SeqCst);
            if !self.flush_q.lock().is_empty() {
                self.polling.store(false, Ordering::SeqCst);
                self.drain_flush_queue();
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
                            self.flush(&conn);
                        }
                    }
                    Some(Registered::Listener(l)) => self.handle_accept(&l),
                    None => {}
                }
            }
            // Flush requests queued by sender threads (and by drivers
            // during the event pass above).
            self.drain_flush_queue();
        }
    }

    /// Flushes every connection with a queued flush token, looping until
    /// the queue stays empty (flushes can enqueue more work).
    fn drain_flush_queue(&self) {
        loop {
            let tokens: Vec<u64> = std::mem::take(&mut *self.flush_q.lock());
            if tokens.is_empty() {
                break;
            }
            for token in tokens {
                if let Some(conn) = self.lookup_conn(token) {
                    conn.out.lock().scheduled = false;
                    self.flush(&conn);
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
                        let frame = &read.rbuf[off..off + ext];
                        if driver.on_frame(conn, frame).is_err() {
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

    /// Drains the outbound queue in coalesced batches. Runs only on the
    /// shard thread; on `WouldBlock` parks the remainder and arms
    /// `EPOLLOUT`, disarming it once fully drained.
    fn flush(&self, conn: &Arc<ConnState>) {
        loop {
            // Assemble the next write: a parked remainder, or a fresh
            // batch from the queue.
            let mut out = conn.out.lock();
            let (bytes, mut offset) = if let Some(parked) = out.inflight.take() {
                parked
            } else if let Some(batch) = out.next_batch(&conn.pool, &conn.stats) {
                (batch, 0)
            } else {
                if out.epollout {
                    out.epollout = false;
                    let _ = self.epoll.modify(conn.fd, conn.token, Interest::READABLE);
                }
                return;
            };
            drop(out);

            let mut io = conn.io.lock();
            while offset < bytes.len() {
                match io.write(&bytes[offset..]) {
                    Ok(0) => {
                        drop(io);
                        conn.kill();
                        return;
                    }
                    Ok(n) => offset += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        drop(io);
                        let mut out = conn.out.lock();
                        out.inflight = Some((bytes, offset));
                        if !out.epollout {
                            out.epollout = true;
                            let _ = self.epoll.modify(conn.fd, conn.token, Interest::BOTH);
                        }
                        return;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        drop(io);
                        conn.kill();
                        return;
                    }
                }
            }
        }
    }
}

/// The process-wide reactor: `N` shards, round-robin assignment.
pub(crate) struct Reactor {
    shards: Vec<Arc<Shard>>,
    next_token: AtomicU64,
    stats: Arc<ReactorStats>,
}

static GLOBAL: OnceLock<Result<Arc<Reactor>, TransportError>> = OnceLock::new();

impl Reactor {
    /// The process-wide reactor, spawning its shard threads on first use.
    /// A start-up failure (epoll, eventfd or thread creation) is remembered
    /// and returned to every caller: there is no other way to move bytes.
    pub fn global() -> Result<&'static Arc<Reactor>, TransportError> {
        GLOBAL
            .get_or_init(|| {
                Reactor::spawn()
                    .map(Arc::new)
                    .map_err(|e| TransportError::Io(format!("reactor failed to start: {e}")))
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    fn shard_count() -> usize {
        if let Ok(v) = std::env::var("WEAVER_REACTOR_SHARDS") {
            if let Ok(n) = v.parse::<usize>() {
                return n.clamp(1, 64);
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(4)
    }

    fn spawn() -> io::Result<Reactor> {
        let stats = Arc::new(ReactorStats::default());
        let mut shards = Vec::new();
        for i in 0..Self::shard_count() {
            let epoll = Epoll::new()?;
            let wake = WakeFd::new()?;
            epoll.add(wake.raw_fd(), WAKE_TOKEN, Interest::READABLE)?;
            let shard = Arc::new(Shard {
                epoll,
                wake,
                registered: Mutex::new(HashMap::new()),
                flush_q: Mutex::new(Vec::new()),
                polling: AtomicBool::new(false),
                stats: Arc::clone(&stats),
            });
            let runner = Arc::clone(&shard);
            std::thread::Builder::new()
                .name(format!("weaver-reactor-{i}"))
                .spawn(move || runner.run())?;
            shards.push(shard);
        }
        Ok(Reactor {
            shards,
            next_token: AtomicU64::new(1),
            stats,
        })
    }

    fn pick_shard(&self, token: u64) -> &Arc<Shard> {
        &self.shards[(token as usize) % self.shards.len()]
    }

    /// Switches `stream` to non-blocking mode and registers it. The driver
    /// starts receiving `on_frame` callbacks as soon as bytes arrive.
    pub fn register_conn(
        &self,
        stream: Box<dyn DuplexStream>,
        driver: Arc<dyn ConnDriver>,
        pool: BufferPool,
    ) -> io::Result<Arc<ConnState>> {
        stream.set_nonblocking(true)?;
        let fd = stream.poll_fd();
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let shard = Arc::clone(self.pick_shard(token));
        let conn = Arc::new(ConnState {
            token,
            fd,
            shard: Arc::clone(&shard),
            io: Mutex::new(stream),
            driver: Mutex::new(Some(driver)),
            dead: AtomicBool::new(false),
            read: Mutex::new(ReadState {
                rbuf: Vec::new(),
                filled: 0,
            }),
            out: Mutex::new(OutQueue::default()),
            stats: WriterStats::default(),
            pool,
        });
        shard
            .registered
            .lock()
            .insert(token, Registered::Conn(Arc::clone(&conn)));
        if let Err(e) = shard.epoll.add(fd, token, Interest::READABLE) {
            shard.registered.lock().remove(&token);
            return Err(e);
        }
        self.stats.connections.fetch_add(1, Ordering::Relaxed);
        self.stats.interests.fetch_add(1, Ordering::Relaxed);
        Ok(conn)
    }

    /// Registers a listener; `on_accept` runs on the shard thread for each
    /// accepted (TCP: already `TCP_NODELAY`; still blocking-mode) socket.
    pub fn register_listener(
        &self,
        listener: Listener,
        on_accept: Box<dyn Fn(Box<dyn DuplexStream>) + Send + Sync>,
    ) -> io::Result<u64> {
        listener.set_nonblocking()?;
        let fd = listener.raw_fd();
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let shard = self.pick_shard(token);
        let state = Arc::new(ListenerState {
            fd,
            listener,
            on_accept,
        });
        shard
            .registered
            .lock()
            .insert(token, Registered::Listener(state));
        if let Err(e) = shard.epoll.add(fd, token, Interest::READABLE) {
            shard.registered.lock().remove(&token);
            return Err(e);
        }
        self.stats.interests.fetch_add(1, Ordering::Relaxed);
        Ok(token)
    }

    /// Stops accepting on a listener registered with
    /// [`Reactor::register_listener`] and closes its socket.
    pub fn deregister_listener(&self, token: u64) {
        let shard = self.pick_shard(token);
        let fd = match shard.registered.lock().get(&token) {
            Some(Registered::Listener(l)) => l.fd,
            _ => return,
        };
        shard.deregister(token, fd);
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
            shards: self.shards.len() as u64,
        }
    }
}

/// Counters for the process-wide reactor, or `None` when it has never been
/// started (no connection or server was created yet) or failed to start.
/// Peeks without spawning: asking for metrics never starts poller threads.
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
        // shard a single write.
        let batch = out.next_batch(&pool, &stats).unwrap();
        assert!(out.next_batch(&pool, &stats).is_none());
        assert_eq!(stats.frames.load(Ordering::Relaxed), 20);
        assert_eq!(stats.flushes.load(Ordering::Relaxed), 1);

        // And the batch parses back into exactly the frames queued.
        let mut framing = WeaverFraming;
        let mut cursor = io::Cursor::new(&batch[..]);
        for i in 0..20u64 {
            match framing.read_message(&mut cursor, &pool).unwrap().unwrap() {
                Message::Request { stream, args, .. } => {
                    assert_eq!(stream, i);
                    assert_eq!(&*args, &[i as u8; 32]);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(framing.read_message(&mut cursor, &pool).unwrap(), None);
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

        let mut framing = WeaverFraming;
        match framing
            .read_message(&mut io::Cursor::new(&batch[..]), &pool)
            .unwrap()
            .unwrap()
        {
            Message::Response { stream, body } => {
                assert_eq!(stream, 7);
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
        let mut framing = WeaverFraming;
        let mut cursor = io::Cursor::new(&wire);
        for _ in 0..6 {
            assert!(framing.read_message(&mut cursor, &pool).unwrap().is_some());
        }
        assert_eq!(framing.read_message(&mut cursor, &pool).unwrap(), None);
    }

    /// Echo-at-the-frame-level driver: every complete wire frame is sent
    /// straight back out through the reactor's write path.
    struct EchoDriver {
        pool: BufferPool,
        dead_count: Arc<AtomicU64>,
    }

    impl ConnDriver for EchoDriver {
        fn frame_extent(&self, buf: &[u8]) -> Result<Option<usize>, TransportError> {
            WeaverFraming::frame_extent(buf)
        }

        fn on_frame(&self, state: &Arc<ConnState>, frame: &[u8]) -> Result<(), TransportError> {
            let mut buf = self.pool.get(frame.len());
            buf.extend_from_slice(frame);
            state.send(OutFrame::single(buf.freeze()))
        }

        fn on_dead(&self) {
            self.dead_count.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn register_echo(reactor: &Reactor, stream: TcpStream) -> (Arc<ConnState>, Arc<AtomicU64>) {
        stream.set_nodelay(true).unwrap();
        let dead_count = Arc::new(AtomicU64::new(0));
        let driver = Arc::new(EchoDriver {
            pool: BufferPool::new(),
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
        // nothing: the shard parks a remainder and the rest stays queued.
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

        // Stuff far more than the socket buffer without reading: the shard
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
}
