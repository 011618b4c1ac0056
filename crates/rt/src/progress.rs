//! The progress engine: one grow-on-demand worker pool.
//!
//! Nonblocking collectives run as jobs on worker threads — on this
//! backend the workers *are* the asynchronous progress threads. Every
//! in-flight job has a worker of its own, which is what lets the N_DUP
//! collectives issued on duplicated communicators (the paper's central
//! overlap pattern) progress concurrently and without the posting rank's
//! help; a worker that finishes goes back to the one free list and serves
//! the next job from any communicator. The CollPlan interpreter the jobs
//! run is the simulator's.
//!
//! Occupancy (jobs posted and not yet finished) is the caller's
//! `simmpi.pool_occupancy` gauge, which the telemetry sampler reads into
//! `rt.sampler.pool_queue_depth`.
//!
//! # The worker pool
//!
//! Workers have **dedicated channels** and a free-list of senders: a job is
//! handed to exactly one idle worker (or a freshly spawned one), never
//! queued behind a busy worker, so a job that blocks on a peer cannot
//! starve the job it is waiting for.
//!
//! Lifetime discipline: an idle worker's *only* live sender sits in the free
//! list (each job envelope carries the sender and the worker returns it to
//! the list when done). `shutdown` marks the pool closed and clears the
//! list, which disconnects every idle worker's channel; busy workers see the
//! closed flag after their job and exit without re-registering. No worker
//! thread outlives the pool's users.

use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::thread;

use parking_lot::Mutex;

/// A unit of work handed to one progress worker.
pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

struct Envelope {
    job: Job,
    /// The worker's own sender, returned to the free list after the job.
    tx: SyncSender<Envelope>,
}

struct PoolInner {
    free: Vec<SyncSender<Envelope>>,
    closed: bool,
    spawned: usize,
}

/// Grow-on-demand pool of progress workers.
pub(crate) struct Pool {
    inner: Arc<Mutex<PoolInner>>,
}

impl Pool {
    /// An empty pool; workers are spawned on demand.
    pub fn new() -> Pool {
        Pool {
            inner: Arc::new(Mutex::new(PoolInner {
                free: Vec::new(),
                closed: false,
                spawned: 0,
            })),
        }
    }

    /// Number of workers ever spawned (diagnostics; OS-scheduling
    /// dependent — reported through a gauge, never a counter).
    pub fn spawned(&self) -> usize {
        self.inner.lock().spawned
    }

    /// Run `job` on an idle worker, spawning one if none is idle.
    // The only `expect` asserts the documented capacity-1 handshake.
    #[allow(clippy::expect_used)]
    pub fn submit(&self, job: Job) {
        let tx = {
            let mut inner = self.inner.lock();
            assert!(!inner.closed, "submit after pool shutdown");
            match inner.free.pop() {
                Some(tx) => tx,
                None => {
                    inner.spawned += 1;
                    drop(inner);
                    self.spawn_worker()
                }
            }
        };
        let env = Envelope {
            job,
            tx: tx.clone(),
        };
        // The worker is blocked on its own empty channel; capacity 1 means
        // this send cannot block or fail.
        tx.send(env).expect("progress worker vanished");
    }

    // Failing to spawn an OS thread is unrecoverable for the pool.
    #[allow(clippy::expect_used)]
    fn spawn_worker(&self) -> SyncSender<Envelope> {
        let (tx, rx) = sync_channel::<Envelope>(1);
        let inner = self.inner.clone();
        thread::Builder::new()
            .name("ov-progress".into())
            .stack_size(512 << 10)
            .spawn(move || {
                while let Ok(env) = rx.recv() {
                    (env.job)();
                    let mut st = inner.lock();
                    if st.closed {
                        return;
                    }
                    st.free.push(env.tx);
                }
            })
            .expect("failed to spawn progress worker");
        tx
    }

    /// Close the pool: idle workers exit (their senders drop), busy workers
    /// exit after their current job.
    pub fn shutdown(&self) {
        let mut inner = self.inner.lock();
        inner.closed = true;
        inner.free.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn jobs_run_and_workers_are_reused() {
        let pool = Pool::new();
        let count = Arc::new(AtomicUsize::new(0));
        for _ in 0..5 {
            let c = count.clone();
            pool.submit(Box::new(move || {
                c.fetch_add(1, Ordering::SeqCst);
            }));
            // Give the worker time to finish and re-register so reuse
            // actually happens.
            while count.load(Ordering::SeqCst) == 0 {
                thread::sleep(Duration::from_millis(1));
            }
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while count.load(Ordering::SeqCst) < 5 {
            assert!(std::time::Instant::now() < deadline, "jobs did not finish");
            thread::sleep(Duration::from_millis(1));
        }
        pool.shutdown();
    }

    #[test]
    fn concurrent_jobs_get_distinct_workers() {
        let pool = Pool::new();
        let gate = Arc::new(Mutex::new(()));
        let running = Arc::new(AtomicUsize::new(0));
        let guard = gate.lock();
        for _ in 0..3 {
            let g = gate.clone();
            let r = running.clone();
            pool.submit(Box::new(move || {
                r.fetch_add(1, Ordering::SeqCst);
                let _hold = g.lock();
            }));
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while running.load(Ordering::SeqCst) < 3 {
            assert!(
                std::time::Instant::now() < deadline,
                "three jobs should run concurrently on three workers"
            );
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(pool.spawned(), 3);
        drop(guard);
        pool.shutdown();
    }
}
