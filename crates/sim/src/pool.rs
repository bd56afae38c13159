//! Process-global worker threads that outlive [`World::run`](crate::world::World::run).
//!
//! A run of `n` processes checks `n - 1` workers out, sends each one
//! process body, runs the last body on its own calling thread, and checks
//! the workers back in once every body reported — so the stateless
//! explorer, the verify gate and every per-log world reuse the same few OS
//! threads instead of paying a `thread::spawn`/`join` per process per
//! run, and a one-process run takes no worker at all. Workers
//! are spawned on demand, idle ones block on their channel (an untouched
//! stack costs no resident memory), and concurrent runs (concurrent tests,
//! say) simply check out disjoint sets.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Mutex, MutexGuard, PoisonError};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// One pooled thread, addressed by the sending half of its job channel.
/// Dropping the handle ends the thread.
pub(crate) struct Worker(Sender<Job>);

/// Idle workers, most recently used last. Check-out takes from the end and
/// check-in appends in order, so back-to-back runs on one thread get the
/// same workers in the same pid order.
static IDLE: Mutex<Vec<Worker>> = Mutex::new(Vec::new());

impl Worker {
    fn spawn() -> Worker {
        let (tx, rx) = channel::<Job>();
        std::thread::Builder::new()
            .name("bprc-proc".into())
            .spawn(move || {
                for job in rx {
                    // Jobs contain their body's panics themselves; this
                    // outer catch only keeps the worker alive if the
                    // executor's own bookkeeping ever panics.
                    let _ = catch_unwind(AssertUnwindSafe(job));
                }
            })
            .expect("spawn a process worker thread");
        Worker(tx)
    }

    /// Queues `job` on this worker's thread.
    pub(crate) fn run(&self, job: impl FnOnce() + Send + 'static) {
        self.0
            .send(Box::new(job))
            .expect("pool workers outlive every run");
    }
}

/// The idle list. Nothing panics while it is held, and a `Vec` of
/// handles is valid at every step anyway, so poison carries no news.
fn idle() -> MutexGuard<'static, Vec<Worker>> {
    IDLE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Takes `n` workers out of the pool, spawning the ones it lacks.
pub(crate) fn checkout(n: usize) -> Vec<Worker> {
    let mut workers = {
        let mut list = idle();
        let keep = list.len().saturating_sub(n);
        list.split_off(keep)
    };
    workers.resize_with(n, Worker::spawn);
    workers
}

/// Returns workers to the pool, in order.
pub(crate) fn checkin(workers: Vec<Worker>) {
    idle().extend(workers);
}
