//! A small fixed-size worker pool for server-side request execution.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Sender};

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

/// A fixed-size thread pool.
///
/// Dropping the pool closes the queue and joins all workers; jobs already
/// queued still run.
pub struct WorkerPool {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    queued: Arc<AtomicU64>,
}

impl WorkerPool {
    /// Spawns `size` worker threads (at least 1). Fails when the OS refuses
    /// a thread; workers already started are joined before returning.
    pub fn new(size: usize, name: &str) -> io::Result<Arc<Self>> {
        let (tx, rx) = unbounded::<Job>();
        // Built first so an early return drops it, closing the queue and
        // joining whatever was spawned.
        let mut pool = WorkerPool {
            tx: Some(tx),
            workers: Vec::new(),
            queued: Arc::new(AtomicU64::new(0)),
        };
        for i in 0..size.max(1) {
            let rx = rx.clone();
            let queued = Arc::clone(&pool.queued);
            let worker = std::thread::Builder::new()
                .name(format!("{name}-worker-{i}"))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        queued.fetch_sub(1, Ordering::Relaxed);
                        GLOBAL_QUEUE_DEPTH.fetch_sub(1, Ordering::Relaxed);
                        job();
                    }
                })?;
            pool.workers.push(worker);
        }
        Ok(Arc::new(pool))
    }

    /// Queues a job. Returns `false` if the pool is shutting down.
    pub fn execute<F: FnOnce() + Send + 'static>(&self, job: F) -> bool {
        match &self.tx {
            Some(tx) => {
                self.queued.fetch_add(1, Ordering::Relaxed);
                GLOBAL_QUEUE_DEPTH.fetch_add(1, Ordering::Relaxed);
                if tx.send(Box::new(job)).is_ok() {
                    true
                } else {
                    self.queued.fetch_sub(1, Ordering::Relaxed);
                    GLOBAL_QUEUE_DEPTH.fetch_sub(1, Ordering::Relaxed);
                    false
                }
            }
            None => false,
        }
    }

    /// Jobs queued on this pool but not yet picked up by a worker.
    pub fn queued(&self) -> u64 {
        self.queued.load(Ordering::Relaxed)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the sender lets workers drain and exit.
        self.tx.take();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
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
        let (tx, rx) = crossbeam::channel::bounded(1);
        pool.execute(move || {
            tx.send(42).unwrap();
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 42);
    }
}
