//! Process-global free lists of resources that outlive the
//! [`World`](crate::world::World)s using them, so building and running a
//! world costs O(n) bookkeeping, not O(n) fresh resources. One mechanism,
//! [`FreeList`], pools three resources:
//!
//! - **Worker threads.** A run of `n` processes checks `n - 1` workers out,
//!   sends each one process body, runs the last body on its own calling
//!   thread, and checks the workers back in once every body reported — so
//!   the stateless explorer, the verify gate and every per-log world reuse
//!   the same few OS threads instead of paying a `thread::spawn`/`join` per
//!   process per run, and a one-process run takes no worker at all.
//!   Workers are spawned on demand, idle ones block on their channel (an
//!   untouched stack costs no resident memory), and concurrent runs
//!   (concurrent tests, say) simply check out disjoint sets.
//! - **Flight-recorder rings** ([`crate::tracing`]), one free list per slot
//!   count: a world's recorder takes one ring per process at that process's
//!   first recorded event, not at build, and checks in the rings it took
//!   when it is dropped. A process that records nothing takes none, and
//!   once the list is warm a recording process allocates and writes none
//!   of its 64 KiB of default-capacity slots.
//! - **Metrics shards** ([`crate::metrics`]), one free list per length
//!   class: a [`MetricsRegistry`](crate::metrics::MetricsRegistry) (one
//!   per world, and one per turn driver) checks out one vector of `n + 1`
//!   shards and zeroes it in place, which skips the allocator for its
//!   `n + 1` × 1,856 bytes; zeroing them is the cost that is left.
//!
//! A free list keeps what was checked in until the process exits: its
//! high-water mark, the most items of one kind that were ever out at once
//! (for rings, the most processes that had recorded in live worlds at once).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Mutex, MutexGuard, PoisonError};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// One pooled thread, addressed by the sending half of its job channel.
/// Dropping the handle ends the thread.
pub(crate) struct Worker(Sender<Job>);

/// A process-global free list. Check-out takes from the end and check-in
/// appends in order, so back-to-back check-outs on one thread get the same
/// items in the same order.
pub(crate) struct FreeList<T>(Mutex<Vec<T>>);

impl<T> FreeList<T> {
    /// An empty list, for a `static`.
    pub(crate) const fn new() -> Self {
        FreeList(Mutex::new(Vec::new()))
    }

    /// The list. Nothing panics while it is held, and a `Vec` of idle
    /// items is valid at every step anyway, so poison carries no news.
    fn lock(&self) -> MutexGuard<'_, Vec<T>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes `n` items out of the list, making the ones it lacks (outside
    /// the lock).
    pub(crate) fn checkout(&self, n: usize, make: impl FnMut() -> T) -> Vec<T> {
        let mut items = Vec::with_capacity(n);
        {
            let mut list = self.lock();
            let keep = list.len().saturating_sub(n);
            items.extend(list.drain(keep..));
        }
        items.resize_with(n, make);
        items
    }

    /// Takes the most recently checked-in item, if any.
    pub(crate) fn take(&self) -> Option<T> {
        self.lock().pop()
    }

    /// Returns items to the list, in order.
    pub(crate) fn checkin(&self, items: impl IntoIterator<Item = T>) {
        self.lock().extend(items);
    }
}

/// Idle workers, most recently used last.
static IDLE: FreeList<Worker> = FreeList::new();

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

/// Takes `n` workers out of the pool, spawning the ones it lacks.
pub(crate) fn checkout(n: usize) -> Vec<Worker> {
    IDLE.checkout(n, Worker::spawn)
}

/// Returns workers to the pool, in order.
pub(crate) fn checkin(workers: Vec<Worker>) {
    IDLE.checkin(workers);
}
