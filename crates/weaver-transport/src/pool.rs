//! A small fixed-size worker pool for server-side request execution.
//!
//! The pool owns its queue: a `VecDeque` of jobs under one mutex, a condvar
//! and a count of parked workers. `execute` wakes a worker only when one is
//! parked, and a worker that finishes a job takes the next one without
//! sleeping, so a hand-off to the pool costs at most one futex wake. (A
//! channel receiver shared behind a mutex costs two: the worker parked in
//! `recv` holding the mutex, then the one parked on the mutex.)

use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Jobs queued across every [`WorkerPool`] but not yet picked up by a
/// worker. A process-wide gauge: the runtime surfaces it as the RPC
/// dispatch-queue depth next to the reactor counters, so a poller that
/// decodes faster than workers execute shows up as a growing number here.
static GLOBAL_QUEUE_DEPTH: AtomicU64 = AtomicU64::new(0);

/// Current process-wide dispatch-queue depth (queued, not yet running).
pub fn dispatch_queue_depth() -> u64 {
    GLOBAL_QUEUE_DEPTH.load(Ordering::Relaxed)
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    /// Workers waiting on `ready`.
    parked: usize,
    /// Set once by `Drop`: workers drain `jobs`, then exit.
    closed: bool,
}

/// What the pool and its workers share.
#[derive(Default)]
struct Queue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

impl Queue {
    /// The next job, parking while the queue is empty; `None` once the pool
    /// is closed and drained.
    fn next(&self) -> Option<Job> {
        let mut state = self.state.lock();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                GLOBAL_QUEUE_DEPTH.fetch_sub(1, Ordering::Relaxed);
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state.parked += 1;
            self.ready.wait(&mut state);
            state.parked -= 1;
        }
    }
}

/// A fixed-size thread pool.
///
/// Dropping the pool closes the queue and joins all workers; jobs already
/// queued still run.
pub struct WorkerPool {
    queue: Arc<Queue>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `size` worker threads (at least 1). Fails when the OS refuses
    /// a thread; workers already started are joined before returning.
    pub fn new(size: usize, name: &str) -> io::Result<Arc<Self>> {
        // Built first so an early return drops it, closing the queue and
        // joining whatever was spawned.
        let mut pool = WorkerPool {
            queue: Arc::default(),
            workers: Vec::new(),
        };
        for i in 0..size.max(1) {
            let queue = Arc::clone(&pool.queue);
            let worker = std::thread::Builder::new()
                .name(format!("{name}-worker-{i}"))
                .spawn(move || {
                    while let Some(job) = queue.next() {
                        job();
                    }
                })?;
            pool.workers.push(worker);
        }
        Ok(Arc::new(pool))
    }

    /// Queues a job. Returns `false` if the pool is shutting down.
    pub fn execute<F: FnOnce() + Send + 'static>(&self, job: F) -> bool {
        let mut state = self.queue.state.lock();
        if state.closed {
            return false;
        }
        state.jobs.push_back(Box::new(job));
        GLOBAL_QUEUE_DEPTH.fetch_add(1, Ordering::Relaxed);
        // A running worker rechecks the queue before it parks, so only a
        // parked one needs the (syscall-priced) wake.
        let wake = state.parked > 0;
        drop(state);
        if wake {
            self.queue.ready.notify_one();
        }
        true
    }

    /// Jobs queued on this pool but not yet picked up by a worker.
    pub fn queued(&self) -> u64 {
        self.queue.state.lock().jobs.len() as u64
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.queue.state.lock().closed = true;
        self.queue.ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn executes_jobs_on_multiple_threads() {
        let pool = WorkerPool::new(4, "test").unwrap();
        let count = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let count = Arc::clone(&count);
            assert!(pool.execute(move || {
                count.fetch_add(1, Ordering::SeqCst);
            }));
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while count.load(Ordering::SeqCst) < 100 {
            assert!(std::time::Instant::now() < deadline, "jobs did not finish");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn drop_joins_after_draining() {
        let count = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(2, "drain").unwrap();
            for _ in 0..10 {
                let count = Arc::clone(&count);
                pool.execute(move || {
                    std::thread::sleep(Duration::from_millis(1));
                    count.fetch_add(1, Ordering::SeqCst);
                });
            }
        }
        // Drop has joined: every queued job ran.
        assert_eq!(count.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn zero_size_becomes_one() {
        let pool = WorkerPool::new(0, "min").unwrap();
        let (tx, rx) = mpsc::sync_channel(1);
        pool.execute(move || {
            tx.send(42).unwrap();
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 42);
    }

    /// Voluntary context switches of this process's threads whose name
    /// starts with `prefix` (`/proc` truncates names to 15 bytes).
    fn voluntary_switches(prefix: &str) -> u64 {
        let mut total = 0;
        for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
            let Ok(status) = std::fs::read_to_string(task.expect("task").path().join("status"))
            else {
                continue; // the thread exited meanwhile
            };
            let field = |key: &str| {
                status
                    .lines()
                    .find_map(|l| l.strip_prefix(key))
                    .map(str::trim)
            };
            if field("Name:").is_some_and(|n| n.starts_with(prefix)) {
                total += field("voluntary_ctxt_switches:")
                    .and_then(|v| v.parse::<u64>().ok())
                    .expect("status has a voluntary_ctxt_switches line");
            }
        }
        total
    }

    /// A serial hand-off (each job awaited before the next is queued) wakes
    /// one worker, which runs the job and parks again: one voluntary switch
    /// per job, whichever of the eight idle workers takes it.
    #[test]
    fn each_job_wakes_one_worker() {
        const JOBS: u64 = 2_000;
        let pool = WorkerPool::new(8, "onewake").unwrap();
        let (done_tx, done_rx) = mpsc::channel();
        let run = |n: u64| {
            for _ in 0..n {
                let done = done_tx.clone();
                assert!(pool.execute(move || done.send(()).unwrap()));
                done_rx.recv_timeout(Duration::from_secs(5)).unwrap();
            }
        };
        run(100); // warm-up: thread start-up switches stay out of the count
        let before = voluntary_switches("onewake-worker-");
        run(JOBS);
        let per_job = (voluntary_switches("onewake-worker-") - before) as f64 / JOBS as f64;
        assert!(
            per_job <= 1.25,
            "{per_job:.2} worker context switches per job"
        );
    }
}
