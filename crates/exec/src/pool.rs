//! The worker pool the query service schedules client sessions on
//! (DESIGN.md §4, §8, §12).
//!
//! A [`WorkerPool`] owns a fixed set of OS threads fed by one shared
//! (vendored crossbeam) channel of boxed jobs: every clone of the receiver
//! pops each job exactly once, so submission order is dispatch order and
//! idle workers self-schedule. Dropping the pool closes the job channel,
//! lets workers drain what is already queued, and joins them — an owner
//! therefore never leaks threads, even on early drop.
//!
//! Workers survive panicking jobs: each job runs under `catch_unwind`, so a
//! poisoned job costs only itself, never pool capacity. That matters for
//! long-lived pools — the query service schedules whole client sessions as
//! jobs, and one session blowing up must not shrink the server for every
//! session after it. (Panic *reporting* stays the submitter's problem.)

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Receiver, Sender};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of named worker threads executing submitted jobs.
pub struct WorkerPool {
    tx: Option<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `workers` threads (at least one).
    pub fn new(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        let (tx, rx): (Sender<Job>, Receiver<Job>) = unbounded();
        let handles = (0..workers)
            .map(|i| {
                let rx = rx.clone();
                std::thread::Builder::new()
                    .name(format!("csq-worker-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            let _ = catch_unwind(AssertUnwindSafe(job));
                        }
                    })
                    .expect("failed to spawn worker thread")
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            handles,
        }
    }

    /// Submit a job. Jobs run in submission order across the pool (each on
    /// whichever worker frees up first).
    pub fn spawn<F>(&self, job: F)
    where
        F: FnOnce() + Send + 'static,
    {
        let sent = self
            .tx
            .as_ref()
            .expect("worker pool already shut down")
            .send(Box::new(job));
        assert!(sent.is_ok(), "worker pool has no live workers");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel ends each worker's recv loop after it drains
        // the jobs already queued.
        self.tx.take();
        for h in self.handles.drain(..) {
            // Jobs run under `catch_unwind`; don't double-panic here.
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn runs_all_jobs_across_workers() {
        let pool = WorkerPool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let c = counter.clone();
            pool.spawn(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool); // joins after draining the queue
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let pool = WorkerPool::new(0);
        let done = Arc::new(AtomicUsize::new(0));
        let d = done.clone();
        pool.spawn(move || {
            d.fetch_add(1, Ordering::Relaxed);
        });
        drop(pool);
        assert_eq!(done.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn survives_a_panicking_job() {
        let pool = WorkerPool::new(2);
        pool.spawn(|| panic!("job panic"));
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let d = done.clone();
            pool.spawn(move || {
                d.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool);
        assert_eq!(done.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn panicking_jobs_do_not_shrink_capacity() {
        // With a single worker, losing the thread to a panic would deadlock
        // (drop would join a dead worker with jobs still queued) or drop the
        // remaining jobs; catch_unwind keeps the worker alive through all
        // three panics.
        let pool = WorkerPool::new(1);
        let done = Arc::new(AtomicUsize::new(0));
        for i in 0..6 {
            let d = done.clone();
            pool.spawn(move || {
                if i % 2 == 0 {
                    panic!("job {i} panics");
                }
                d.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool);
        assert_eq!(done.load(Ordering::Relaxed), 3);
    }
}
