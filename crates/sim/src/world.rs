//! The shared-memory world: process threads, lockstep executor, run reports.
//!
//! See the crate docs for the model. A [`World`] is built once, registers are
//! allocated with [`World::reg`], and then [`World::run`] executes `n`
//! process bodies to completion under a [`Strategy`].
//!
//! The lockstep executor is a baton pass. There is no scheduler thread:
//! whichever process thread makes the world *quiescent* — by arriving at a
//! gate or by finishing — consults the strategy itself, under the central
//! lock it already holds. A grant to itself costs nothing; a grant to
//! another process is one `unpark`, issued after the lock is released.
//!
//! A run takes `n - 1` workers from the process-global pool (`sim::pool`);
//! the thread that called [`World::run`] is pid `n - 1`'s process thread,
//! so no thread of a run only waits: besides the hand-offs the schedule
//! asks for, a run switches threads only to start its workers and to
//! collect their reports.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::thread::Thread;

use parking_lot::{Mutex, MutexGuard};

use crate::error::Halted;
use crate::faults::InjectedPanic;
use crate::history::{Annotation, Event, FaultKind, History, OpKind, RegId};
use crate::metrics::{Counter, MetricsRegistry, ProcMetrics, Tally, Telemetry};
use crate::reg::RegName;
use crate::sched::{Decision, PendingOp, RegisterState, ScheduleView, Strategy};
use crate::tracing::{
    fault_arg, now_nanos, EventKind, FlightLog, FlightRecorder, Hist, DEFAULT_RING_CAPACITY,
};
use crate::weakmem::{flushable_of, BufferedStore, WeakMode, FENCE_REG};

/// How shared-memory accesses are interleaved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Mode {
    /// Deterministic: a scheduler grants exactly one access at a time.
    /// Executions are replayable from (bodies, strategy) and record a
    /// [`History`].
    #[default]
    Lockstep,
    /// Free-running: processes are ordinary OS threads; registers remain
    /// individually linearizable but the interleaving is whatever the OS
    /// produces. No history is recorded and the strategy is ignored.
    Free,
}

/// A process body run by [`World::run`].
pub type ProcBody<T> = Box<dyn FnOnce(&mut Ctx) -> Result<T, Halted> + Send + 'static>;

/// A handle on a contiguous slab of seqlock value lanes, allocated by
/// [`World::value_slab`] and consumed by [`World::lane_reg`]. A stride
/// outside `1..=`[`MAX_FAST_WORDS`](crate::reg::MAX_FAST_WORDS) makes the
/// handle inert, and lane allocation falls back to [`World::fast_reg`].
pub struct ValueSlab {
    lane_words: usize,
    slab: Option<Arc<crate::reg::LaneSlab>>,
}

impl ValueSlab {
    /// Whether lanes allocated from this slab actually share the packed
    /// layout (false for an inert, out-of-range stride).
    pub fn is_packed(&self) -> bool {
        self.slab.is_some()
    }
}

impl std::fmt::Debug for ValueSlab {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ValueSlab")
            .field("lane_words", &self.lane_words)
            .field("packed", &self.is_packed())
            .finish()
    }
}

/// What one run produced.
#[derive(Debug)]
pub struct RunReport<T> {
    /// Per-process output: `Some` if the body returned `Ok`, `None` if it was
    /// halted (see [`RunReport::halted`]) or panicked.
    pub outputs: Vec<Option<T>>,
    /// Per-process halt reason, if any. A process whose body panicked
    /// (its own bug or an injected chaos panic) reports
    /// [`Halted::Panicked`]; the panic message is in [`RunReport::panics`].
    pub halted: Vec<Option<Halted>>,
    /// Per-process contained panic message, if the body panicked.
    pub panics: Vec<Option<String>>,
    /// Total granted shared-memory accesses.
    pub steps: u64,
    /// Granted accesses per process.
    pub per_proc_steps: Vec<u64>,
    /// Grants that passed the baton to a process other than the one that
    /// took the decision — each cost one `unpark`; a process granting
    /// itself continues with no switch and is not counted. The first grant
    /// of a run always counts (before it nobody holds the baton), which
    /// makes the figure a pure function of the schedule. Lockstep only;
    /// 0 in free mode.
    pub handoffs: u64,
    /// The recorded history (lockstep mode only, and only if recording was
    /// enabled — it is by default).
    pub history: Option<History>,
    /// The metrics-plane snapshot: counters, gauges, and histograms.
    /// Unlike [`RunReport::history`], this is populated in **both** modes.
    pub telemetry: Telemetry,
    /// The flight-recorder snapshot: the newest ring-buffered fine-grained
    /// events per process, dual-stamped with steps and nanoseconds.
    /// Populated in both modes; empty if the world was built with
    /// [`WorldBuilder::trace_capacity`]`(0)`.
    pub flight: FlightLog,
}

impl<T> RunReport<T> {
    /// The set of distinct outputs produced (useful for agreement checks).
    pub fn distinct_outputs(&self) -> Vec<&T>
    where
        T: PartialEq,
    {
        let mut out: Vec<&T> = Vec::new();
        for v in self.outputs.iter().flatten() {
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }

    /// Number of processes that produced an output.
    pub fn decided_count(&self) -> usize {
        self.outputs.iter().filter(|o| o.is_some()).count()
    }

    /// Pids whose bodies panicked (contained as [`Halted::Panicked`]).
    pub fn panicked_pids(&self) -> Vec<usize> {
        self.halted
            .iter()
            .enumerate()
            .filter(|(_, h)| matches!(h, Some(Halted::Panicked)))
            .map(|(p, _)| p)
            .collect()
    }
}

pub(crate) struct Central {
    granted: Option<usize>,
    waiting: Vec<Option<PendingOp>>,
    finished: Vec<bool>,
    crashed: Vec<bool>,
    /// Panic-injection flags: a poisoned process panics at its next gate.
    poisoned: Vec<bool>,
    shutdown: Option<Halted>,
    steps: u64,
    per_proc_steps: Vec<u64>,
    handoffs: u64,
    history: History,
    /// The adversary, parked here by [`World::run`] for whichever process
    /// thread takes the next decision.
    strategy: Option<Box<dyn Strategy>>,
    /// A panic raised by the strategy (or by the legality checks on its
    /// decision), held for [`World::run`] to re-raise on its caller.
    strategy_panic: Option<Box<dyn Any + Send>>,
    /// Whether the first decision was taken (it sorts the pre-grant notes).
    decided_once: bool,
    /// Per-process store buffers (weak-memory modes; always empty under
    /// [`WeakMode::Sc`]).
    buffers: Vec<VecDeque<BufferedStore>>,
    /// The lists a decision shows the strategy, kept between decisions so
    /// that a lockstep step allocates nothing.
    lists: DecisionLists,
}

/// What one consultation of the strategy shows it: the runnable pids,
/// their pending ops, and the flushable buffered stores.
#[derive(Default)]
struct DecisionLists {
    runnable: Vec<usize>,
    pending: Vec<PendingOp>,
    flushable: Vec<(usize, RegId)>,
}

impl Central {
    /// The newest buffered value `pid` holds for `reg` — store-to-load
    /// forwarding. `None` when nothing is buffered for the register.
    ///
    /// # Panics
    ///
    /// Panics if the buffered value is not a `T`: one register id always
    /// carries one payload type, so a mismatch is a plumbing bug, and
    /// silently falling back to the (stale) memory cell would corrupt the
    /// simulated semantics.
    pub(crate) fn forwarded<T: 'static>(&self, pid: usize, reg: RegId) -> Option<&T> {
        self.buffers[pid]
            .iter()
            .rev()
            .find(|e| e.reg == reg)
            .map(|e| {
                e.value
                    .downcast_ref::<T>()
                    .expect("buffered value type matches the register's payload type")
            })
    }

    /// Appends a store to `pid`'s buffer (FIFO tail).
    pub(crate) fn buffer_store(&mut self, pid: usize, entry: BufferedStore) {
        self.buffers[pid].push_back(entry);
    }
}

pub(crate) struct WorldInner {
    n: usize,
    mode: Mode,
    step_limit: u64,
    record: bool,
    /// The simulated memory model (store buffers when not
    /// [`WeakMode::Sc`]; lockstep only).
    weak: WeakMode,
    central: Mutex<Central>,
    /// Each process's thread handle, set before its body's first gate —
    /// what a decider `unpark`s. Worlds are single-shot, so once is enough.
    threads: Vec<OnceLock<Thread>>,
    /// Free mode: the step frontier — how much of `step_limit` is leased
    /// out to process contexts (see [`STEP_LEASE`]). Never exceeds the limit.
    free_steps: AtomicU64,
    free_shutdown: AtomicBool,
    metrics: MetricsRegistry,
    recorder: FlightRecorder,
    /// The register allocator: one lock per allocated register.
    alloc: Mutex<RegAlloc>,
}

/// The telemetry counter(s) one granted access of `kind` bumps. A swap is
/// one gate that both reads and writes, so it counts in both columns — the
/// parity checkers apply the same rule to the history.
#[inline]
fn op_counters(kind: OpKind, mut bump: impl FnMut(Counter)) {
    match kind {
        OpKind::Read => bump(Counter::RegReads),
        OpKind::Write => bump(Counter::RegWrites),
        OpKind::Fence => bump(Counter::Fences),
        OpKind::Swap => {
            bump(Counter::RegReads);
            bump(Counter::RegWrites);
        }
    }
}

/// What allocating a register touches, under one lock: the name table
/// (a register's id is its position in it) and the bump allocator for
/// [`World::bit_reg`] bits — the current bit chunk and how many of its bits
/// are handed out.
#[derive(Default)]
struct RegAlloc {
    names: Vec<RegName>,
    chunk: Option<Arc<crate::reg::BitChunk>>,
    used: usize,
}

impl RegAlloc {
    /// Records a new register's name; its position is the register's id.
    fn name(&mut self, name: RegName) -> RegId {
        self.names.push(name);
        self.names.len() - 1
    }
}

impl WorldInner {
    /// The lockstep access gate: blocks until the scheduler grants the
    /// step, then executes `f` while holding the central lock (so the whole
    /// run is serialized and deterministic), with the central state borrowed
    /// into the body — the store-buffer paths use it to push and read
    /// buffered stores while holding the grant. [`Ctx::access`] is the thin
    /// wrapper that ignores the borrow.
    ///
    /// Arriving here may make the world quiescent, in which case this
    /// thread takes the decision before it looks at its own fate.
    pub(crate) fn access_central<R>(
        &self,
        pid: usize,
        kind: OpKind,
        reg: RegId,
        tag: u64,
        f: impl FnOnce(&mut Central) -> R,
    ) -> Result<R, Halted> {
        debug_assert_eq!(self.mode, Mode::Lockstep, "access_central is lockstep-only");
        let mut c = self.central.lock();
        // A crash always reports as Crashed, even if the world also
        // shut down before this process reached its next gate.
        if c.crashed[pid] {
            return Err(Halted::Crashed);
        }
        if let Some(h) = c.shutdown {
            return Err(h);
        }
        c.waiting[pid] = Some(PendingOp { kind, reg, tag });
        let mut wake = self.decide_if_quiescent(&mut c, pid);
        loop {
            if c.crashed[pid] {
                c.waiting[pid] = None;
                self.release(c, wake);
                return Err(Halted::Crashed);
            }
            if c.poisoned[pid] {
                // An injected panic: unwind on the process thread so
                // panic containment is exercised for real, with a typed
                // payload that runs no panic hook. The FinishGuard then
                // marks the process finished and takes the next decision.
                c.poisoned[pid] = false;
                c.waiting[pid] = None;
                let step = c.steps;
                self.record_event(
                    &mut c,
                    Event::Fault {
                        step,
                        pid,
                        kind: FaultKind::PanicInjected,
                    },
                );
                self.release(c, wake);
                resume_unwind(Box::new(InjectedPanic(pid)));
            }
            if let Some(h) = c.shutdown {
                c.waiting[pid] = None;
                self.release(c, wake);
                return Err(h);
            }
            if c.granted == Some(pid) {
                break;
            }
            // Not ours: pass the baton (if this thread decided) and sleep.
            // `unpark` before `park` leaves a token, so a wake-up that
            // races ahead of us is not lost; a stale token only costs one
            // more trip round this loop.
            self.release(c, std::mem::take(&mut wake));
            std::thread::park();
            c = self.central.lock();
        }
        debug_assert!(wake.is_empty(), "a self-grant wakes nobody");
        c.waiting[pid] = None;
        let r = f(&mut c);
        let step = c.steps;
        c.steps += 1;
        c.per_proc_steps[pid] += 1;
        // Counted at the same point the history records the op, so
        // lockstep telemetry and `History` agree event-for-event.
        self.count_op(pid, kind);
        self.record_event(
            &mut c,
            Event::Op {
                step,
                pid,
                kind,
                reg,
                tag,
            },
        );
        c.granted = None;
        Ok(r)
    }

    /// The one place a lockstep event is recorded: `event` goes to the
    /// history when the world records one, and its flight-ring form to
    /// the ring of the process it names — a write or swap as `RegWrite`,
    /// a crash as `Fault` code 0, a fault note as `Fault` with its code,
    /// a flush as `Flush`; a read, a fence and a note have none. The
    /// caller holds the central lock, so when the event names a process
    /// other than the caller's (a scheduler decision, the end-of-run
    /// drain) this is a foreign write to that ring at quiescence, which
    /// the ring's one-writer rule allows (`tracing::Ring`).
    fn record_event(&self, c: &mut Central, event: Event) {
        let ring = match event {
            Event::Op {
                step,
                pid,
                kind: OpKind::Write | OpKind::Swap,
                reg,
                ..
            } => Some((pid, step, EventKind::RegWrite, reg as u64)),
            Event::Crash { step, pid } => Some((pid, step, EventKind::Fault, 0)),
            Event::Fault { step, pid, kind } => {
                Some((pid, step, EventKind::Fault, fault_arg(kind)))
            }
            Event::Flush { step, pid, reg } => Some((pid, step, EventKind::Flush, reg as u64)),
            Event::Op { .. } | Event::Note { .. } => None,
        };
        if let Some((pid, step, kind, arg)) = ring {
            self.recorder.record(pid, step, kind, arg);
        }
        if self.record {
            c.history.push(event);
        }
    }

    /// Drops the central lock, *then* wakes `wake`: a thread unparked
    /// while the lock is still held runs straight into it and pays the
    /// switch twice (on one CPU, every time).
    fn release(&self, c: MutexGuard<'_, Central>, wake: Vec<usize>) {
        drop(c);
        for pid in wake {
            self.threads[pid]
                .get()
                .expect("a parked process registered its thread before its first gate")
                .unpark();
        }
    }

    /// Whether accesses run on free OS threads rather than under the
    /// lockstep gate.
    pub(crate) fn is_free(&self) -> bool {
        self.mode == Mode::Free
    }

    /// Whether granted writes go through store buffers: any memory model
    /// but [`WeakMode::Sc`], on the lockstep backend. Free mode always
    /// runs the real hardware model, so the simulated buffers stay off
    /// there.
    pub(crate) fn weak_buffering(&self) -> bool {
        self.mode == Mode::Lockstep && self.weak != WeakMode::Sc
    }

    /// Increments the telemetry counter(s) for one granted lockstep access,
    /// straight on the shard: the caller holds the central lock, and this
    /// is the point where telemetry and `History` agree event for event.
    fn count_op(&self, pid: usize, kind: OpKind) {
        let m = self.metrics.proc(pid);
        op_counters(kind, |c| m.incr(c, 1));
    }

    /// Lands one buffered store in shared memory and records the flush in
    /// history, metrics, and the flight recorder. Caller removed `entry`
    /// from the buffer already, and holds the central lock.
    fn land_store(&self, c: &mut Central, pid: usize, entry: BufferedStore) {
        let reg = entry.reg;
        (entry.apply)();
        let step = c.steps;
        self.record_event(c, Event::Flush { step, pid, reg });
        self.metrics.proc(pid).incr(Counter::StoresFlushed, 1);
    }

    /// Store-buffer fence on behalf of `pid`. In free mode it is a real
    /// `SeqCst` fence, uncounted: no access of this process before it is
    /// reordered with one after it, which is what lets an arrow write that
    /// changes nothing be a plain load (`BitCell::set`). On the lockstep
    /// backend under [`WeakMode::Tso`]/[`WeakMode::Pso`] it is a scheduled
    /// gate ([`OpKind::Fence`] on the [`FENCE_REG`] sentinel) that drains
    /// the caller's own buffer, oldest first, when granted. Free of charge
    /// under SC (no gate, no step) so protocol code can fence
    /// unconditionally. Deliberately also free under [`WeakMode::Regular`]:
    /// no fence can make a regular register atomic, so the snapshot
    /// layer's pinned fences must not re-atomicize the weakened plane.
    pub(crate) fn fence(&self, pid: usize) -> Result<(), Halted> {
        match (self.mode, self.weak) {
            (Mode::Free, _) => {
                std::sync::atomic::fence(Ordering::SeqCst);
                Ok(())
            }
            (Mode::Lockstep, WeakMode::Tso | WeakMode::Pso) => {
                self.access_central(pid, OpKind::Fence, FENCE_REG, 0, |c| {
                    self.drain_own_buffer(c, pid);
                })
            }
            (Mode::Lockstep, WeakMode::Sc | WeakMode::Regular) => Ok(()),
        }
    }

    /// Lands every store in `pid`'s own buffer, oldest first — the body of
    /// a fence, also run by a granted [`Reg::swap`](crate::reg::Reg::swap)
    /// before its exchange (an RMW drains the store buffer on every
    /// modeled architecture).
    pub(crate) fn drain_own_buffer(&self, c: &mut Central, pid: usize) {
        while let Some(entry) = c.buffers[pid].pop_front() {
            self.land_store(c, pid, entry);
        }
    }

    /// Deterministic end-of-run drain (ascending pid, FIFO): every process
    /// is finished or crashed, so no one can observe the drain order and
    /// it costs no exploration branches. Crashed buffers were already
    /// dropped at their crash.
    fn drain_all_buffers(&self, c: &mut Central) {
        for pid in 0..self.n {
            while let Some(entry) = c.buffers[pid].pop_front() {
                self.land_store(c, pid, entry);
            }
        }
    }

    fn annotate(&self, pid: usize, note: Annotation) {
        if self.mode == Mode::Lockstep && self.record {
            let mut c = self.central.lock();
            let step = c.steps;
            self.record_event(&mut c, Event::Note { step, pid, note });
        }
    }

    fn mark_finished(&self, pid: usize) {
        if let Mode::Lockstep = self.mode {
            let mut c = self.central.lock();
            c.finished[pid] = true;
            c.waiting[pid] = None;
            // If the body panicked mid-access (while holding its grant) the
            // grant would otherwise stay stuck and wedge the world.
            if c.granted == Some(pid) {
                c.granted = None;
            }
            let wake = self.decide_if_quiescent(&mut c, pid);
            self.release(c, wake);
        }
    }

    /// Whether every process is settled: finished, or parked at a gate
    /// with nothing pending against it. A poisoned or crashed process is
    /// mid-unwind until its FinishGuard reports it finished, so decisions
    /// are made against a settled process set — and, past the first grant,
    /// at most one process thread is ever running, which is what makes the
    /// recorded history the schedule's and nothing else's.
    fn quiescent(&self, c: &Central) -> bool {
        c.granted.is_none()
            && (0..self.n).all(|p| {
                c.finished[p] || (c.waiting[p].is_some() && !c.poisoned[p] && !c.crashed[p])
            })
    }

    /// The baton: called by the thread `me` that just arrived at a gate or
    /// finished, with the central lock held. If that made the world
    /// quiescent, `me` consults the strategy until a decision un-quiets
    /// the world (a grant, a crash, a panic injection) or ends the run.
    /// Returns the pids to `unpark` once the lock is released.
    ///
    /// A panic out of the strategy or the legality checks must not unwind
    /// through `me`'s body — it would be contained there and blamed on an
    /// innocent pid. It is caught here, stored for [`World::run`] to
    /// re-raise on its caller, and the world is shut down.
    fn decide_if_quiescent(&self, c: &mut Central, me: usize) -> Vec<usize> {
        let mut wake = Vec::new();
        if c.shutdown.is_some() || !self.quiescent(c) {
            return wake;
        }
        let mut strategy = c
            .strategy
            .take()
            .expect("World::run parks the strategy before any body starts");
        let decided = catch_unwind(AssertUnwindSafe(|| loop {
            self.decide_once(c, strategy.as_mut(), me, &mut wake);
            if c.shutdown.is_some() || !self.quiescent(c) {
                break;
            }
        }));
        match decided {
            Ok(()) => c.strategy = Some(strategy),
            Err(payload) => {
                c.strategy_panic = Some(payload);
                self.shut_down(c, Halted::Shutdown, me, &mut wake);
            }
        }
        wake
    }

    /// Ends the run: every process still parked at a gate is released to
    /// observe `why`.
    fn shut_down(&self, c: &mut Central, why: Halted, me: usize, wake: &mut Vec<usize>) {
        c.shutdown = Some(why);
        wake.extend((0..self.n).filter(|&p| p != me && !c.finished[p]));
    }

    /// One consultation of the strategy at a quiescent point, in the
    /// lists the world keeps for it.
    fn decide_once(
        &self,
        c: &mut Central,
        strategy: &mut dyn Strategy,
        me: usize,
        wake: &mut Vec<usize>,
    ) {
        let mut lists = std::mem::take(&mut c.lists);
        self.decide_in(c, &mut lists, strategy, me, wake);
        c.lists = lists;
    }

    fn decide_in(
        &self,
        c: &mut Central,
        lists: &mut DecisionLists,
        strategy: &mut dyn Strategy,
        me: usize,
        wake: &mut Vec<usize>,
    ) {
        let first = !std::mem::replace(&mut c.decided_once, true);
        if first {
            // Until the first grant every process thread runs freely to
            // its first gate, so the notes recorded so far arrived in
            // the OS's order. Put them in pid order (each process's own
            // notes keep program order); from here on only the granted
            // process runs, so the history's order is the schedule's.
            c.history.sort_by_pid();
        }
        let DecisionLists {
            runnable,
            pending,
            flushable,
        } = lists;
        runnable.clear();
        runnable.extend(
            (0..self.n).filter(|&p| !c.finished[p] && !c.crashed[p] && c.waiting[p].is_some()),
        );
        if runnable.is_empty() {
            // Everyone finished or crashed. Buffered stores of finished
            // processes land now, deterministically — unobservable, hence
            // decision-free.
            if self.weak_buffering() {
                self.drain_all_buffers(c);
            }
            self.shut_down(c, Halted::Shutdown, me, wake);
            return;
        }
        if c.steps >= self.step_limit {
            self.shut_down(c, Halted::StepLimit, me, wake);
            return;
        }
        pending.clear();
        pending.extend(
            runnable
                .iter()
                .map(|&p| c.waiting[p].expect("runnable process has a pending op")),
        );
        flushable.clear();
        if self.weak_buffering() {
            for p in 0..self.n {
                for r in flushable_of(self.weak, &c.buffers[p]) {
                    flushable.push((p, r));
                }
            }
        }
        let decision = {
            let view = ScheduleView {
                step: c.steps,
                runnable,
                state: RegisterState { pending, flushable },
            };
            strategy.decide(&view)
        };
        match decision {
            Decision::Grant(pid) => {
                assert!(
                    runnable.contains(&pid),
                    "illegal strategy decision Grant({pid}) at step {}: \
                     process is not runnable (runnable = {runnable:?})",
                    c.steps
                );
                c.granted = Some(pid);
                if pid != me {
                    wake.push(pid);
                }
                // Who arrived last before the first decision is the OS's
                // choice, so that grant counts whoever took it.
                if pid != me || first {
                    c.handoffs += 1;
                }
            }
            Decision::Crash(pid) => {
                assert!(
                    pid < self.n,
                    "illegal strategy decision Crash({pid}) at step {}: \
                     unknown process (world has {} processes)",
                    c.steps,
                    self.n
                );
                assert!(
                    !c.crashed[pid],
                    "illegal strategy decision Crash({pid}) at step {}: \
                     process {pid} is already crashed",
                    c.steps
                );
                assert!(
                    !c.finished[pid],
                    "illegal strategy decision Crash({pid}) at step {}: \
                     process {pid} already finished",
                    c.steps
                );
                c.crashed[pid] = true;
                // The store buffer dies with the process: its unflushed
                // writes are lost. The explorer separately branches
                // flush-before-crash to cover the published variants.
                c.buffers[pid].clear();
                let step = c.steps;
                self.record_event(c, Event::Crash { step, pid });
                // The victim unwinds now; its finisher decides next.
                if pid != me {
                    wake.push(pid);
                }
            }
            Decision::Panic(pid) => {
                assert!(
                    runnable.contains(&pid),
                    "illegal strategy decision Panic({pid}) at step {}: \
                     process is not runnable (runnable = {runnable:?})",
                    c.steps
                );
                c.poisoned[pid] = true;
                if pid != me {
                    wake.push(pid);
                }
            }
            Decision::Flush { pid, reg } => {
                assert!(
                    flushable.contains(&(pid, reg)),
                    "illegal strategy decision Flush{{pid: {pid}, reg: {reg}}} at \
                     step {}: not flushable (flushable = {flushable:?})",
                    c.steps
                );
                let pos = c.buffers[pid]
                    .iter()
                    .position(|e| e.reg == reg)
                    .expect("flushable entry exists in the buffer");
                let entry = c.buffers[pid].remove(pos).expect("position is in range");
                self.land_store(c, pid, entry);
                // Nobody advanced: the strategy is consulted again at
                // the same step.
            }
        }
        let step = c.steps;
        for (pid, kind) in strategy.drain_fault_notes() {
            self.record_event(c, Event::Fault { step, pid, kind });
        }
    }
}

/// How many steps a free-mode process takes from the world's budget at a
/// time. One shared `fetch_update` per lease instead of one per access; also
/// the most a process's metrics shard can lag its own counts, and the
/// most of the budget one process can hold unspent when the run is shut
/// down (minus the step it leased for).
const STEP_LEASE: u64 = 64;

/// Per-process execution context handed to process bodies.
///
/// Carries the process id and hooks for annotating the recorded history;
/// it holds no randomness (each core seeds its own local coin). It also
/// keeps the process's books, because it is the one object only this
/// process touches: counts made through [`Ctx::count`] are plain adds here,
/// *published* to the process's metrics shard at every step-lease renewal
/// and when the context drops — which it does on every way out of a body,
/// `Ok`, [`Halted`], crash and panic unwind alike — so a
/// [`RunReport`]'s telemetry is exact.
///
/// It is also the gate every register access passes. In lockstep each
/// access is one gate, where the scheduler grants it. In free mode a
/// *run* of accesses of one kind — a scan's lowers, one of its collects,
/// its re-checks, an update's raises — takes one gate for all of them
/// ([`Reg::write_run`](crate::reg::Reg::write_run) and its siblings); each
/// access in a run still gets its own step, lease renewal, tally and ring
/// event, exactly as if it had come alone through [`Ctx`]'s single gate.
pub struct Ctx {
    pid: usize,
    inner: Arc<WorldInner>,
    books: Books,
    /// The last clock read made on this context; what the interior ring
    /// events of a free-mode operation are stamped with. 0 before the first.
    stamp: u64,
    /// `granted` when `stamp` was read: [`Ctx::stamp`] reuses the reading
    /// while the two agree.
    stamp_granted: u64,
}

impl std::fmt::Debug for Ctx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx").field("pid", &self.pid).finish()
    }
}

impl Ctx {
    fn new(pid: usize, inner: Arc<WorldInner>) -> Self {
        Ctx {
            pid,
            inner,
            books: Books {
                tally: Tally::new(),
                step: 0,
                lease_end: 0,
                granted: 0,
            },
            stamp: 0,
            stamp_granted: 0,
        }
    }

    /// This process's id (0-based).
    pub fn pid(&self) -> usize {
        self.pid
    }

    /// Records a marker in the history (lockstep mode; no-op otherwise).
    pub fn annotate(&self, label: &'static str, data: Vec<u64>) {
        self.inner.annotate(self.pid, Annotation::new(label, data));
    }

    /// Whether [`Ctx::annotate`] would actually record anything — lets hot
    /// paths skip building annotation payloads when no history is kept.
    pub fn recording(&self) -> bool {
        self.inner.mode == Mode::Lockstep && self.inner.record
    }

    /// This process's metrics shard — gauges, histograms, and
    /// counters written directly rather than through [`Ctx::count`].
    pub fn metrics(&self) -> ProcMetrics<'_> {
        self.inner.metrics.proc(self.pid)
    }

    /// Adds `k` to counter `c` for this process: a plain add on the
    /// context, published to the shard at the next lease renewal or drop.
    /// Protocol layers count events at the source:
    /// `ctx.count(Counter::Scans, 1)`.
    #[inline]
    pub fn count(&mut self, c: Counter, k: u64) {
        self.books.tally.add(c, k);
    }

    /// Performs one scheduled shared-memory access: the gate every single
    /// unbuffered [`Reg`](crate::reg::Reg) operation goes through.
    ///
    /// In lockstep mode this is [`WorldInner::access_central`]. In free
    /// mode it is one [grant](Books::grant) — the shutdown check, a leased
    /// step, the tallies — plus, for a write, its `RegWrite` ring event,
    /// and then `f`: shared bookkeeping is touched only when the lease runs
    /// out.
    #[inline]
    pub(crate) fn access<R>(
        &mut self,
        kind: OpKind,
        reg: RegId,
        tag: u64,
        f: impl FnOnce() -> R,
    ) -> Result<R, Halted> {
        match self.inner.mode {
            Mode::Free => {
                let step = self.books.grant(&self.inner, self.pid, kind)?;
                if logged(kind, &self.inner) {
                    let nanos = self.carried_stamp();
                    self.inner.recorder.record_at(
                        self.pid,
                        step,
                        nanos,
                        EventKind::RegWrite,
                        reg as u64,
                    );
                }
                Ok(f())
            }
            Mode::Lockstep => self
                .inner
                .access_central(self.pid, kind, reg, tag, |_c| f()),
        }
    }

    /// Free mode only: the *run gate*, one call that grants a run of
    /// accesses of one `kind`, one per item of `items`. Each access gets
    /// what one [`Ctx::access`] would give it, in the same order and from
    /// the same [grant](Books::grant): the shutdown check, its step
    /// (renewing the lease where that gate would), its tallies and, for a
    /// write, its `RegWrite` ring event at its own step. What the run pays
    /// once rather than per access is the rest of that gate's path — the
    /// mode dispatch, the ring lookup, the register layer's checks, the
    /// result plumbing — so the caller's raw accesses run in one loop.
    /// `op` performs an item's raw access and says whether the run goes on;
    /// `reg` names the item's register for the ring. `count`, when given,
    /// is bumped once per access attempted, as a caller's [`Ctx::count`]
    /// before each single access would be.
    ///
    /// A run that stops early, by `op` or by a halt, takes no step for the
    /// items it did not reach. The callers are the run forms of
    /// [`Reg`](crate::reg::Reg), which perform a lockstep run as single
    /// gates instead.
    #[inline]
    pub(crate) fn run<I: Iterator>(
        &mut self,
        kind: OpKind,
        count: Option<Counter>,
        items: I,
        reg: impl Fn(&I::Item) -> RegId,
        mut op: impl FnMut(I::Item) -> bool,
    ) -> Result<(), Halted> {
        debug_assert_eq!(self.inner.mode, Mode::Free, "a run gate is free-mode only");
        let log = logged(kind, &self.inner);
        let nanos = if log { self.carried_stamp() } else { 0 };
        let Ctx {
            pid, inner, books, ..
        } = self;
        let (pid, inner) = (*pid, &**inner);
        // This process's ring, looked up at the run's first write.
        let mut ring = None;
        for item in items {
            if let Some(c) = count {
                books.tally.add(c, 1);
            }
            let at = books.grant(inner, pid, kind)?;
            if log {
                let ring = *ring.get_or_insert_with(|| inner.recorder.ring(pid));
                if let Some(ring) = ring {
                    ring.record(at, nanos, EventKind::RegWrite, reg(&item) as u64);
                }
            }
            if !op(item) {
                break;
            }
        }
        Ok(())
    }

    /// The world step this process's ring events are stamped with
    /// right now: its lease cursor in free mode (this process's next step —
    /// an approximate global order), the exact counter in lockstep.
    fn step_stamp(&self) -> u64 {
        match self.inner.mode {
            Mode::Free => self.books.step,
            Mode::Lockstep => self.inner.central.lock().steps,
        }
    }

    /// Reads the monotonic clock ([`now_nanos`]) and remembers the reading
    /// as the stamp this process's interior free-mode ring events carry.
    /// Called at the two ends of a scan, whose latency is then the
    /// difference of the two readings; an operation that records no
    /// latency opens with [`Ctx::stamp`] instead.
    pub fn clock(&mut self) -> u64 {
        self.stamp = now_nanos();
        self.stamp_granted = self.books.granted;
        self.stamp
    }

    /// The context's last clock reading, read afresh ([`Ctx::clock`]) only
    /// if there is none yet or this process has been granted an access
    /// since. The reading is therefore never later than the next access,
    /// which is what an operation's opening stamp must be: an update that
    /// follows a scan with no access between carries the scan's closing
    /// reading, and one that follows another update reads the clock.
    /// Lockstep does not count grants on the context, so there it reads
    /// only when there is no reading yet; lockstep ring events read their
    /// own clock, so only a caller's own latency arithmetic sees the
    /// reused reading.
    pub fn stamp(&mut self) -> u64 {
        if self.stamp == 0 || self.books.granted != self.stamp_granted {
            self.clock();
        }
        self.stamp
    }

    /// The remembered clock reading, taking one if there is none yet (a
    /// ring event never carries a zero stamp).
    #[inline]
    fn carried_stamp(&mut self) -> u64 {
        if self.stamp == 0 {
            self.clock();
        }
        self.stamp
    }

    /// Records a flight-recorder event for this process, dual-stamped with
    /// the world step and monotonic nanoseconds. In lockstep mode the
    /// event reads the clock itself. In free mode it carries the context's
    /// last reading ([`Ctx::clock`], [`Ctx::stamp`]) — the time of the
    /// enclosing operation's opening, or for an update that follows a scan
    /// the scan's close — so that a register write does not cost a clock
    /// read; within a ring, position and step order what the shared stamp
    /// does not. Wait-free relaxed stores; a no-op when the world was built
    /// with [`WorldBuilder::trace_capacity`]`(0)`.
    pub fn trace_event(&mut self, kind: EventKind, arg: u64) {
        if !self.inner.recorder.enabled() {
            return;
        }
        let step = self.step_stamp();
        match self.inner.mode {
            Mode::Free => {
                let nanos = self.carried_stamp();
                self.inner
                    .recorder
                    .record_at(self.pid, step, nanos, kind, arg);
            }
            // A process parked since an earlier step would carry a stamp
            // older than its peers' events at later steps, and `merged()`
            // of a lockstep log must stay step-ordered.
            Mode::Lockstep => self.inner.recorder.record(self.pid, step, kind, arg),
        }
    }

    /// Records one latency sample into this process's histogram `h`
    /// (shorthand for [`Ctx::metrics`]`.hist_record`).
    pub fn hist_record(&self, h: Hist, v: u64) {
        self.inner.metrics.proc(self.pid).hist_record(h, v);
    }

    /// Store-buffer fence: drains this process's own buffered writes into
    /// shared memory as one scheduled gate ([`Counter::Fences`] counts it;
    /// the history records an [`OpKind::Fence`] op plus one
    /// [`Event::Flush`](crate::history::Event) per landed store). Under
    /// [`WeakMode::Sc`](crate::weakmem::WeakMode) it is a free no-op, so
    /// protocol code fences unconditionally at its ordering points. In
    /// free mode, where the hardware model is real, it is a real `SeqCst`
    /// fence — uncounted and unrecorded, so telemetry is the same as a
    /// no-op's — and the snapshot's ordering rests on it, not on its
    /// arrow writes being RMWs.
    pub fn fence(&self) -> Result<(), Halted> {
        self.inner.fence(self.pid)
    }

    pub(crate) fn inner(&self) -> &Arc<WorldInner> {
        &self.inner
    }
}

/// A process's books, kept on its [`Ctx`]: its unpublished counts and,
/// in free mode, its step lease and the accesses it was granted.
struct Books {
    /// Counts not yet published to the shard.
    tally: Tally,
    /// Free mode: the unspent part of the current step lease,
    /// `step..lease_end`. Empty in lockstep, where the central lock counts.
    step: u64,
    lease_end: u64,
    /// Free mode: accesses this process was granted, reported on drop.
    granted: u64,
}

impl Books {
    /// Grants process `pid` one free-mode access of `kind` and returns its
    /// step: checks the shutdown flag, spends one leased step (renewing the
    /// lease when it has run out) and tallies the operation. The one
    /// definition of a grant, for a lone access ([`Ctx::access`]) and for
    /// each access of a run ([`Ctx::run`]) alike.
    #[inline(always)]
    fn grant(&mut self, inner: &WorldInner, pid: usize, kind: OpKind) -> Result<u64, Halted> {
        if inner.free_shutdown.load(Ordering::Acquire) {
            return Err(Halted::Shutdown);
        }
        if self.step == self.lease_end {
            (self.step, self.lease_end) = renew_lease(inner, pid, &mut self.tally)?;
        }
        let step = self.step;
        self.step += 1;
        self.granted += 1;
        op_counters(kind, |c| self.tally.add(c, 1));
        Ok(step)
    }
}

/// Whether a granted free-mode access of `kind` leaves a ring event. Only
/// writes do: the ring is there to order what changed memory. Reads are
/// counted, not logged — a scan makes three of them per write, and they
/// would evict the writes from a bounded ring that much sooner.
#[inline]
fn logged(kind: OpKind, inner: &WorldInner) -> bool {
    matches!(kind, OpKind::Write | OpKind::Swap) && inner.recorder.enabled()
}

/// Publishes process `pid`'s tallies and takes the next [`STEP_LEASE`]
/// steps (or what is left of the budget) from the world's frontier: the
/// new lease, `start..end`. An exhausted frontier shuts the world down:
/// steps other processes still hold are handed back only when they finish,
/// which may be never.
#[cold]
fn renew_lease(inner: &WorldInner, pid: usize, tally: &mut Tally) -> Result<(u64, u64), Halted> {
    inner.metrics.proc(pid).publish(tally);
    let limit = inner.step_limit;
    let lease_end = |frontier: u64| frontier + STEP_LEASE.min(limit - frontier);
    // Relaxed: the frontier is a budget, it publishes no other data.
    let taken = inner
        .free_steps
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |frontier| {
            (frontier < limit).then(|| lease_end(frontier))
        });
    match taken {
        Ok(frontier) => Ok((frontier, lease_end(frontier))),
        Err(_) => {
            inner.free_shutdown.store(true, Ordering::Release);
            Err(Halted::StepLimit)
        }
    }
}

impl Drop for Ctx {
    /// The process is done, however it left its body: publish what it
    /// counted, hand the unspent part of its lease back to the budget (the
    /// next lease may then repeat step numbers this one covered — free-mode
    /// steps are stamps, the budget is what is exact), and report the
    /// accesses it was granted.
    fn drop(&mut self) {
        let books = &mut self.books;
        self.inner.metrics.proc(self.pid).publish(&mut books.tally);
        if self.inner.mode == Mode::Free {
            let unspent = books.lease_end - books.step;
            if unspent != 0 {
                self.inner.free_steps.fetch_sub(unspent, Ordering::Relaxed);
            }
            if books.granted != 0 {
                let mut c = self.inner.central.lock();
                c.steps += books.granted;
                c.per_proc_steps[self.pid] += books.granted;
            }
        }
    }
}

/// Builder for [`World`] (see [`World::builder`]).
#[derive(Debug, Clone)]
pub struct WorldBuilder {
    n: usize,
    mode: Mode,
    step_limit: u64,
    record: bool,
    trace_capacity: usize,
    weak: WeakMode,
}

impl WorldBuilder {
    /// Sets the interleaving mode (default [`Mode::Lockstep`]).
    pub fn mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the global step budget (default 10 million accesses).
    pub fn step_limit(mut self, limit: u64) -> Self {
        self.step_limit = limit;
        self
    }

    /// Does nothing: a world draws no randomness. A run is a function of
    /// its bodies (whose cores seed their own coins) and its strategy.
    /// Kept only so existing callers of the builder still compile.
    pub fn seed(self, _seed: u64) -> Self {
        self
    }

    /// Enables or disables history recording (default enabled; lockstep only).
    pub fn record_history(mut self, record: bool) -> Self {
        self.record = record;
        self
    }

    /// Sets the per-process flight-recorder ring capacity (default
    /// [`DEFAULT_RING_CAPACITY`]). `0` disables the recorder entirely —
    /// the overhead self-measurement uses this as its baseline.
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Selects the simulated memory model (default
    /// [`WeakMode::Sc`](crate::weakmem::WeakMode)). Every other mode routes
    /// each granted write through a per-process store buffer whose flush
    /// points are scheduler decisions — see [`crate::weakmem`];
    /// [`WeakMode::Regular`] uses them to weaken the registers themselves.
    /// Requires [`Mode::Lockstep`]; [`WorldBuilder::build`] panics on a
    /// weak free world.
    pub fn weak_memory(mut self, weak: WeakMode) -> Self {
        self.weak = weak;
        self
    }

    /// Finishes building the world.
    pub fn build(self) -> World {
        assert!(self.n >= 1, "a world needs at least one process");
        assert!(
            self.weak == WeakMode::Sc || self.mode == Mode::Lockstep,
            "store buffers (weak memory, regular registers) are simulated \
             by the lockstep scheduler; free mode runs the real hardware model"
        );
        World {
            inner: Arc::new(WorldInner {
                n: self.n,
                mode: self.mode,
                step_limit: self.step_limit,
                record: self.record,
                weak: self.weak,
                central: Mutex::new(Central {
                    granted: None,
                    waiting: vec![None; self.n],
                    finished: vec![false; self.n],
                    crashed: vec![false; self.n],
                    poisoned: vec![false; self.n],
                    shutdown: None,
                    steps: 0,
                    per_proc_steps: vec![0; self.n],
                    handoffs: 0,
                    history: History::new(),
                    strategy: None,
                    strategy_panic: None,
                    decided_once: false,
                    buffers: (0..self.n).map(|_| VecDeque::new()).collect(),
                    lists: DecisionLists::default(),
                }),
                threads: (0..self.n).map(|_| OnceLock::new()).collect(),
                free_steps: AtomicU64::new(0),
                free_shutdown: AtomicBool::new(false),
                metrics: MetricsRegistry::new(self.n),
                recorder: FlightRecorder::new(self.n, self.trace_capacity),
                alloc: Mutex::new(RegAlloc::default()),
            }),
            used: false,
        }
    }
}

/// A shared-memory world of `n` asynchronous processes.
///
/// Allocate registers with [`World::reg`], then execute bodies with
/// [`World::run`]. A world is single-shot: `run` may be called once.
pub struct World {
    inner: Arc<WorldInner>,
    used: bool,
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("n", &self.inner.n)
            .field("mode", &self.inner.mode)
            .field("used", &self.used)
            .finish()
    }
}

impl World {
    /// Starts building a world of `n` processes.
    pub fn builder(n: usize) -> WorldBuilder {
        WorldBuilder {
            n,
            mode: Mode::Lockstep,
            step_limit: 10_000_000,
            record: true,
            trace_capacity: DEFAULT_RING_CAPACITY,
            weak: WeakMode::Sc,
        }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.inner.n
    }

    /// The interleaving mode.
    pub fn mode(&self) -> Mode {
        self.inner.mode
    }

    /// The memory model this world simulates ([`WeakMode::Sc`] unless
    /// [`WorldBuilder::weak_memory`] said otherwise).
    pub fn weak_memory_mode(&self) -> WeakMode {
        self.inner.weak
    }

    /// Names of all registers allocated so far (indexed by register id) —
    /// feed to [`trace::TraceOptions`](crate::trace::TraceOptions) for
    /// labelled timelines. The world keeps each name as a [`RegName`] and
    /// renders the text here, on each call, so allocating a register
    /// formats nothing.
    pub fn reg_names(&self) -> Vec<String> {
        let alloc = self.inner.alloc.lock();
        alloc.names.iter().map(RegName::to_string).collect()
    }

    /// Records a new register's name; its position is the register's id.
    fn name_reg(&self, name: impl Into<RegName>) -> RegId {
        let name = name.into();
        self.inner.alloc.lock().name(name)
    }

    /// Allocates a fresh linearizable register initialized to `init`, on
    /// the locked cell — any `T: Clone`, and the oracle the lock-free
    /// backings are tested against. [`crate::reg`] has the whole
    /// allocator → backing table.
    ///
    /// The `name` shows up in debugging output and history dumps.
    pub fn reg<T: Clone + Send + Sync + 'static>(
        &self,
        name: impl Into<RegName>,
        init: T,
    ) -> crate::reg::Reg<T> {
        crate::reg::Reg::new(self.name_reg(name), init)
    }

    /// Allocates a register on a seqlock lane of its own one-lane slab when
    /// the [`FastPod`](crate::reg::FastPod) payload packs into
    /// `1..=`[`MAX_FAST_WORDS`](crate::reg::MAX_FAST_WORDS) words (one
    /// cache line); otherwise identical to [`World::reg`]. The width is
    /// fixed by `init`: every later write must pack to the same number of
    /// words.
    ///
    /// Access semantics — scheduling, counters, recorded history — do not
    /// depend on which backing the register lands on.
    pub fn fast_reg<T: crate::reg::FastPod>(
        &self,
        name: impl Into<RegName>,
        init: T,
    ) -> crate::reg::Reg<T> {
        let id = self.name_reg(name);
        let w = init.words();
        if (1..=crate::reg::MAX_FAST_WORDS).contains(&w) {
            let slab = Arc::new(crate::reg::LaneSlab::new(1, w));
            crate::reg::Reg::new_lane(id, init, slab, 0)
        } else {
            crate::reg::Reg::new(id, init)
        }
    }

    /// Allocates a single-bit register: the bit lands in a shared
    /// cache-line chunk
    /// ([`BIT_CHUNK_BITS`](crate::reg::BIT_CHUNK_BITS) booleans per line;
    /// mutation is `fetch_or`/`fetch_and`, so even two-writer bits — the
    /// paper's arrows — stay atomic and neighbours cannot tear each
    /// other).
    ///
    /// Access semantics — scheduling, counters, recorded history — are
    /// those of any other register.
    pub fn bit_reg(&self, name: impl Into<RegName>, init: bool) -> crate::reg::Reg<bool> {
        let name = name.into();
        let mut alloc = self.inner.alloc.lock();
        let id = alloc.name(name);
        let chunk = match &alloc.chunk {
            Some(c) if alloc.used < crate::reg::BIT_CHUNK_BITS => Arc::clone(c),
            _ => {
                let c = Arc::new(crate::reg::BitChunk::new());
                alloc.chunk = Some(Arc::clone(&c));
                alloc.used = 0;
                c
            }
        };
        let bit = alloc.used;
        alloc.used += 1;
        drop(alloc);
        crate::reg::Reg::new_bit(id, init, chunk, bit)
    }

    /// Allocates a shared slab of `lanes` seqlock lanes, `lane_words`
    /// payload words each, for use with [`World::lane_reg`]. All version
    /// words are contiguous, so a
    /// collect pass validating `lanes` buffered copies through
    /// [`Reg::read_changed`](crate::reg::Reg::read_changed) touches
    /// ⌈lanes/8⌉ cache lines instead of `lanes` scattered cells.
    ///
    /// When `lane_words` is outside
    /// `1..=`[`MAX_FAST_WORDS`](crate::reg::MAX_FAST_WORDS) the slab is
    /// inert and [`World::lane_reg`] falls back to [`World::fast_reg`] — a
    /// change of representation, never of semantics.
    pub fn value_slab(&self, lanes: usize, lane_words: usize) -> ValueSlab {
        let packed = (1..=crate::reg::MAX_FAST_WORDS).contains(&lane_words);
        ValueSlab {
            lane_words,
            slab: packed.then(|| Arc::new(crate::reg::LaneSlab::new(lanes, lane_words))),
        }
    }

    /// Allocates lane `lane` of `slab` as a register (`init.words()` must
    /// match the slab's stride, and every later write must pack to the same
    /// width); falls back to [`World::fast_reg`] when the slab is inert, the
    /// width differs or the lane does not exist.
    pub fn lane_reg<T: crate::reg::FastPod>(
        &self,
        slab: &ValueSlab,
        lane: usize,
        name: impl Into<RegName>,
        init: T,
    ) -> crate::reg::Reg<T> {
        match &slab.slab {
            Some(s) if init.words() == slab.lane_words && lane < s.lanes() => {
                let id = self.name_reg(name);
                crate::reg::Reg::new_lane(id, init, Arc::clone(s), lane)
            }
            _ => self.fast_reg(name, init),
        }
    }

    /// Runs `n` process bodies to completion under `strategy`.
    ///
    /// Pids `0..n - 1` run on pooled worker threads that outlive the run;
    /// the calling thread runs pid `n - 1`'s body itself, then waits for
    /// the others, so a one-process world takes no worker at all. A body
    /// hosted by the caller sees the caller's thread-local state and park
    /// token. In [`Mode::Lockstep`] the strategy is consulted by whichever
    /// process thread makes the world quiescent (see the module docs); in
    /// [`Mode::Free`] it is ignored.
    ///
    /// # Panics
    ///
    /// Panics if `bodies.len() != n`, if called twice, or — on the calling
    /// thread, with the original payload, once every process thread has
    /// been released — if the strategy panics or makes an illegal decision
    /// (granting a non-runnable process, crashing a finished process).
    pub fn run<T: Send + 'static>(
        &mut self,
        mut bodies: Vec<ProcBody<T>>,
        strategy: Box<dyn Strategy>,
    ) -> RunReport<T> {
        let n = self.inner.n;
        assert_eq!(bodies.len(), n, "need exactly one body per process");
        assert!(!self.used, "a World is single-shot; build a new one");
        self.used = true;

        let lockstep = self.inner.mode == Mode::Lockstep;
        if lockstep {
            self.inner.central.lock().strategy = Some(strategy);
        }
        // The caller hosts the last process itself: a worker per process
        // would leave this thread blocked on the done channel, paying one
        // more wake-up per run than any grant asks for.
        let hosted = bodies.pop().expect("a world has at least one process");
        let workers = crate::pool::checkout(n - 1);
        let (done_tx, done_rx) = mpsc::channel();
        for ((pid, body), worker) in bodies.into_iter().enumerate().zip(&workers) {
            let inner = Arc::clone(&self.inner);
            let done_tx = done_tx.clone();
            worker.run(move || {
                let result = host(inner, pid, body);
                // Sent once `host` returned: a reported process has passed
                // the baton on and touches the world no more.
                let _ = done_tx.send((pid, result));
            });
        }
        drop(done_tx);

        let mut results: Vec<_> = (0..n).map(|_| None).collect();
        results[n - 1] = Some(host(Arc::clone(&self.inner), n - 1, hosted));
        // Hear from every process before inspecting results: a panicked
        // process must not make us abandon the rest mid-run.
        for (pid, result) in done_rx {
            results[pid] = Some(result);
        }
        crate::pool::checkin(workers);
        if lockstep {
            // The strategy leaves with the run (it may hold register
            // handles, which would otherwise keep the world alive), and is
            // dropped outside the lock.
            let mut c = self.inner.central.lock();
            let (strategy, panic) = (c.strategy.take(), c.strategy_panic.take());
            drop(c);
            drop(strategy);
            if let Some(payload) = panic {
                resume_unwind(payload);
            }
        }

        let mut outputs = Vec::with_capacity(n);
        let mut halted = Vec::with_capacity(n);
        let mut panics = Vec::with_capacity(n);
        for r in results {
            match r.expect("process gate thread never panics (bodies are caught)") {
                Ok(Ok(v)) => {
                    outputs.push(Some(v));
                    halted.push(None);
                    panics.push(None);
                }
                Ok(Err(e)) => {
                    outputs.push(None);
                    halted.push(Some(e));
                    panics.push(None);
                }
                Err(msg) => {
                    outputs.push(None);
                    halted.push(Some(Halted::Panicked));
                    panics.push(Some(msg));
                }
            }
        }

        let telemetry = self.inner.metrics.snapshot();
        // Every writer reported above, so this snapshot sees whole slots.
        let flight = self.inner.recorder.snapshot();
        // Lockstep counted every grant under this lock; free-mode contexts
        // reported theirs when they dropped.
        let mut c = self.inner.central.lock();
        let history = (lockstep && self.inner.record).then(|| std::mem::take(&mut c.history));
        RunReport {
            outputs,
            halted,
            panics,
            steps: c.steps,
            per_proc_steps: std::mem::take(&mut c.per_proc_steps),
            handoffs: c.handoffs,
            history,
            telemetry,
            flight,
        }
    }
}

/// Runs process `pid`'s body to completion on the current thread — a pool
/// worker, or [`World::run`]'s caller for the last pid — and returns what
/// it left: its result, or its contained panic's message.
fn host<T>(
    inner: Arc<WorldInner>,
    pid: usize,
    body: ProcBody<T>,
) -> Result<Result<T, Halted>, String> {
    /// Marks the process finished even if the body panics, so the world
    /// never waits on a dead process.
    struct FinishGuard {
        inner: Arc<WorldInner>,
        pid: usize,
    }
    impl Drop for FinishGuard {
        fn drop(&mut self) {
            self.inner.mark_finished(self.pid);
        }
    }
    let _guard = FinishGuard {
        inner: Arc::clone(&inner),
        pid,
    };
    if inner.mode == Mode::Lockstep {
        let _ = inner.threads[pid].set(std::thread::current());
    }
    let mut ctx = Ctx::new(pid, inner);
    // Contain panics (the body's own bugs or injected chaos panics): the
    // FinishGuard tells the world this process is done, so the survivors
    // keep running; the panic payload is reported instead of re-thrown.
    catch_unwind(AssertUnwindSafe(move || body(&mut ctx))).map_err(panic_message)
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(injected) = payload.downcast_ref::<InjectedPanic>() {
        injected.to_string()
    } else if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{FnStrategy, RandomStrategy, RoundRobin};

    fn two_writer_bodies(
        world: &World,
    ) -> (
        Vec<ProcBody<u32>>,
        crate::reg::Reg<u32>,
        crate::reg::Reg<u32>,
    ) {
        let a = world.reg("a", 0u32);
        let b = world.reg("b", 0u32);
        let (a0, b0) = (a.clone(), b.clone());
        let (a1, b1) = (a.clone(), b.clone());
        let bodies: Vec<ProcBody<u32>> = vec![
            Box::new(move |ctx| {
                a0.write(ctx, 1)?;
                b0.read(ctx)
            }),
            Box::new(move |ctx| {
                b1.write(ctx, 1)?;
                a1.read(ctx)
            }),
        ];
        (bodies, a, b)
    }

    #[test]
    fn lockstep_round_robin_is_deterministic() {
        let run = || {
            let mut w = World::builder(2).build();
            let (bodies, _a, _b) = two_writer_bodies(&w);
            let r = w.run(bodies, Box::new(RoundRobin::new()));
            let ops: Vec<_> = r.history.as_ref().unwrap().ops().collect();
            (r.outputs.clone(), ops)
        };
        let (o1, h1) = run();
        let (o2, h2) = run();
        assert_eq!(o1, o2);
        assert_eq!(h1, h2);
    }

    #[test]
    fn random_strategy_replays_with_same_seed() {
        let run = |seed| {
            let mut w = World::builder(2).build();
            let (bodies, _a, _b) = two_writer_bodies(&w);
            let r = w.run(bodies, Box::new(RandomStrategy::new(seed)));
            let ops: Vec<_> = r.history.as_ref().unwrap().ops().collect();
            ops
        };
        assert_eq!(run(11), run(11));
    }

    #[test]
    fn flag_principle_holds_in_lockstep() {
        // Classic: both write their flag then read the other's. At least one
        // must see the other's flag — no schedule lets both read 0.
        for seed in 0..50 {
            let mut w = World::builder(2).build();
            let (bodies, _a, _b) = two_writer_bodies(&w);
            let r = w.run(bodies, Box::new(RandomStrategy::new(seed)));
            let zeros = r.outputs.iter().filter(|o| matches!(o, Some(0))).count();
            assert!(zeros <= 1, "seed {seed}: both readers saw 0");
        }
    }

    #[test]
    fn crash_leaves_other_processes_running() {
        let mut w = World::builder(2).build();
        let r = w.reg("r", 0u32);
        let r0 = r.clone();
        let r1 = r.clone();
        let bodies: Vec<ProcBody<u32>> = vec![
            Box::new(move |ctx| {
                // Loops forever unless crashed.
                loop {
                    r0.write(ctx, 1)?;
                }
            }),
            Box::new(move |ctx| {
                let mut last = 0;
                for _ in 0..10 {
                    last = r1.read(ctx)?;
                }
                Ok(last)
            }),
        ];
        // Crash process 0 at step 4; otherwise round-robin.
        let strategy = FnStrategy::new(|view| {
            if view.step == 4 && view.runnable.contains(&0) {
                Decision::Crash(0)
            } else {
                Decision::Grant(view.runnable[view.step as usize % view.runnable.len()])
            }
        });
        let rep = w.run(bodies, Box::new(strategy));
        assert_eq!(rep.halted[0], Some(Halted::Crashed));
        assert_eq!(rep.outputs[1], Some(1));
    }

    #[test]
    fn step_limit_halts_divergent_runs() {
        let mut w = World::builder(1).step_limit(100).build();
        let r = w.reg("r", 0u64);
        let bodies: Vec<ProcBody<u64>> = vec![Box::new(move |ctx| loop {
            r.write(ctx, 1)?;
        })];
        let rep = w.run(bodies, Box::new(RoundRobin::new()));
        assert_eq!(rep.halted[0], Some(Halted::StepLimit));
        assert_eq!(rep.steps, 100);
    }

    #[test]
    fn free_mode_runs_and_counts_steps() {
        let mut w = World::builder(4).mode(Mode::Free).build();
        let r = w.reg("r", 0u64);
        let bodies: Vec<ProcBody<u64>> = (0..4)
            .map(|_| {
                let r = r.clone();
                let b: ProcBody<u64> = Box::new(move |ctx| {
                    for _ in 0..100 {
                        r.write(ctx, 7)?;
                    }
                    r.read(ctx)
                });
                b
            })
            .collect();
        let rep = w.run(bodies, Box::new(RoundRobin::new()));
        assert!(rep.outputs.iter().all(|o| *o == Some(7)));
        assert_eq!(rep.steps, 4 * 100 + 4);
        assert_eq!(rep.handoffs, 0, "free mode has no baton");
    }

    #[test]
    fn history_records_ops_with_tags() {
        let mut w = World::builder(1).build();
        let r = w.reg("r", 0u32);
        let bodies: Vec<ProcBody<()>> = vec![Box::new(move |ctx| {
            r.write_tagged(ctx, 5, 99)?;
            r.read(ctx)?;
            ctx.annotate("done", vec![1, 2]);
            Ok(())
        })];
        let rep = w.run(bodies, Box::new(RoundRobin::new()));
        let h = rep.history.unwrap();
        let ops: Vec<_> = h.ops().collect();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].2, OpKind::Write);
        assert_eq!(ops[0].4, 99);
        assert_eq!(h.notes_labelled("done").count(), 1);
    }

    /// Before the first grant every process thread runs freely, so the
    /// arrival order of step-0 notes is the OS's; the channel forces the
    /// worst case (pid 1's notes recorded strictly before pid 0's) and the
    /// history must still list them by pid, each pid in program order.
    #[test]
    fn notes_before_the_first_grant_are_recorded_in_pid_order() {
        let mut w = World::builder(2).build();
        let r = w.reg("r", 0u32);
        let (r0, r1) = (r.clone(), r);
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let bodies: Vec<ProcBody<()>> = vec![
            Box::new(move |ctx| {
                rx.recv().expect("pid 1 signals after annotating");
                ctx.annotate("early", vec![0, 0]);
                ctx.annotate("early", vec![0, 1]);
                r0.read(ctx)?;
                Ok(())
            }),
            Box::new(move |ctx| {
                ctx.annotate("early", vec![1, 0]);
                ctx.annotate("early", vec![1, 1]);
                tx.send(()).expect("pid 0 is waiting");
                r1.read(ctx)?;
                Ok(())
            }),
        ];
        let rep = w.run(bodies, Box::new(RoundRobin::new()));
        let h = rep.history.unwrap();
        let notes: Vec<(usize, Vec<u64>)> = h
            .notes_labelled("early")
            .map(|(_, pid, note)| (pid, note.data.clone()))
            .collect();
        assert_eq!(
            notes,
            vec![
                (0, vec![0, 0]),
                (0, vec![0, 1]),
                (1, vec![1, 0]),
                (1, vec![1, 1])
            ]
        );
    }

    #[test]
    fn distinct_outputs_dedups() {
        let rep = RunReport {
            outputs: vec![Some(1), Some(1), Some(2), None],
            halted: vec![None, None, None, Some(Halted::Crashed)],
            panics: vec![None, None, None, None],
            steps: 0,
            per_proc_steps: vec![],
            handoffs: 0,
            history: None,
            telemetry: Telemetry::empty(4),
            flight: FlightLog::empty(4),
        };
        assert_eq!(rep.distinct_outputs(), vec![&1, &2]);
        assert_eq!(rep.decided_count(), 3);
    }

    #[test]
    fn telemetry_counts_accesses_in_both_modes() {
        for mode in [Mode::Lockstep, Mode::Free] {
            let mut w = World::builder(2).mode(mode).build();
            let (bodies, _a, _b) = two_writer_bodies(&w);
            let rep = w.run(bodies, Box::new(RoundRobin::new()));
            // Each body: one write, one read.
            for pid in 0..2 {
                assert_eq!(rep.telemetry.counter(pid, Counter::RegReads), 1, "{mode:?}");
                assert_eq!(
                    rep.telemetry.counter(pid, Counter::RegWrites),
                    1,
                    "{mode:?}"
                );
            }
            assert_eq!(
                rep.telemetry.total(Counter::RegReads) + rep.telemetry.total(Counter::RegWrites),
                rep.steps
            );
            // Granted accesses per process, in free mode too.
            assert_eq!(rep.per_proc_steps, vec![2, 2], "{mode:?}");
        }
    }

    /// A swap is one step that counts in both telemetry columns.
    #[test]
    fn free_mode_steps_are_the_accesses_each_process_was_granted() {
        let mut w = World::builder(2).mode(Mode::Free).build();
        let r = w.reg("r", 0u32);
        let bodies: Vec<ProcBody<u32>> = (0..2u32)
            .map(|p| {
                let r = r.clone();
                let b: ProcBody<u32> = Box::new(move |ctx| {
                    for _ in 0..p {
                        r.swap(ctx, p)?;
                    }
                    r.write(ctx, p)?;
                    r.read(ctx)
                });
                b
            })
            .collect();
        let rep = w.run(bodies, Box::new(RoundRobin::new()));
        assert_eq!(rep.per_proc_steps, vec![2, 3]);
        assert_eq!(rep.steps, 5);
        let t = &rep.telemetry;
        let swaps = 1;
        assert_eq!(
            t.total(Counter::RegReads) + t.total(Counter::RegWrites) - swaps,
            rep.steps
        );
    }

    #[test]
    fn lockstep_telemetry_matches_history_op_counts() {
        let mut w = World::builder(2).build();
        let (bodies, _a, _b) = two_writer_bodies(&w);
        let rep = w.run(bodies, Box::new(RandomStrategy::new(9)));
        let h = rep.history.as_ref().unwrap();
        let t = &rep.telemetry;
        for pid in 0..2 {
            let reads = h
                .ops()
                .filter(|&(_, p, k, _, _)| p == pid && k == OpKind::Read)
                .count() as u64;
            let writes = h
                .ops()
                .filter(|&(_, p, k, _, _)| p == pid && k == OpKind::Write)
                .count() as u64;
            assert_eq!(t.counter(pid, Counter::RegReads), reads);
            assert_eq!(t.counter(pid, Counter::RegWrites), writes);
        }
    }

    #[test]
    fn trace_events_land_in_the_flight_log() {
        let mut w = World::builder(1).build();
        let r = w.reg("r", 0u32);
        let bodies: Vec<ProcBody<()>> = vec![Box::new(move |ctx| {
            ctx.trace_event(EventKind::RoundAdvance, 1);
            r.write(ctx, 5)?;
            ctx.trace_event(EventKind::ScanBegin, 1);
            r.read(ctx)?;
            Ok(())
        })];
        let rep = w.run(bodies, Box::new(RoundRobin::new()));
        let events = rep.flight.events(0);
        let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [
                EventKind::RoundAdvance,
                EventKind::RegWrite,
                EventKind::ScanBegin
            ]
        );
        assert_eq!(events[0].arg, 1);
        assert!(events.windows(2).all(|w| w[0].step <= w[1].step));
    }

    #[test]
    fn body_panic_is_contained_and_survivors_finish() {
        let mut w = World::builder(2).build();
        let r = w.reg("r", 0u32);
        let r0 = r.clone();
        let r1 = r.clone();
        let bodies: Vec<ProcBody<u32>> = vec![
            Box::new(move |ctx| {
                r0.write(ctx, 1)?;
                panic!("boom: deliberate test panic");
            }),
            Box::new(move |ctx| {
                let mut last = 0;
                for _ in 0..10 {
                    last = r1.read(ctx)?;
                }
                Ok(last)
            }),
        ];
        let rep = w.run(bodies, Box::new(RoundRobin::new()));
        assert_eq!(rep.halted[0], Some(Halted::Panicked));
        assert!(rep.panics[0].as_deref().unwrap().contains("boom"));
        assert_eq!(rep.outputs[1], Some(1), "survivor must finish normally");
        assert_eq!(rep.panicked_pids(), vec![0]);
    }

    #[test]
    fn injected_panic_decision_poisons_target() {
        let mut w = World::builder(2).build();
        let r = w.reg("r", 0u32);
        let r0 = r.clone();
        let r1 = r.clone();
        let bodies: Vec<ProcBody<u32>> = vec![
            Box::new(move |ctx| loop {
                r0.write(ctx, 1)?;
            }),
            Box::new(move |ctx| {
                let mut last = 0;
                for _ in 0..10 {
                    last = r1.read(ctx)?;
                }
                Ok(last)
            }),
        ];
        let strategy = FnStrategy::new(|view: &ScheduleView<'_>| {
            if view.step == 4 && view.runnable.contains(&0) {
                Decision::Panic(0)
            } else {
                Decision::Grant(view.runnable[view.step as usize % view.runnable.len()])
            }
        });
        let rep = w.run(bodies, Box::new(strategy));
        assert_eq!(rep.halted[0], Some(Halted::Panicked));
        assert!(rep.panics[0].as_deref().unwrap().contains("chaos"));
        assert_eq!(rep.outputs[1], Some(1));
        // The injection shows up in the recorded history.
        let h = rep.history.unwrap();
        let faults: Vec<_> = h.faults().collect();
        assert!(faults
            .iter()
            .any(|&(_, pid, kind)| pid == 0 && kind == FaultKind::PanicInjected));
    }

    #[test]
    #[should_panic(expected = "illegal strategy decision Crash(0)")]
    fn crashing_a_crashed_process_names_the_illegal_decision() {
        let mut w = World::builder(2).build();
        let r = w.reg("r", 0u32);
        let r0 = r.clone();
        let r1 = r.clone();
        let bodies: Vec<ProcBody<u32>> = vec![
            Box::new(move |ctx| loop {
                r0.write(ctx, 1)?;
            }),
            Box::new(move |ctx| loop {
                r1.read(ctx)?;
            }),
        ];
        // Crash pid 0, then illegally crash it again.
        let strategy = FnStrategy::new(|_view: &ScheduleView<'_>| Decision::Crash(0));
        let _ = w.run(bodies, Box::new(strategy));
    }

    /// A strategy bug must surface on the caller of `run` with its own
    /// message — not as `Halted::Panicked` for whichever innocent pid
    /// happened to be deciding — and must strand nobody at a gate.
    #[test]
    fn strategy_panic_is_reraised_on_the_caller_and_strands_nobody() {
        let looping_bodies = |w: &World, alive: &Arc<()>| -> Vec<ProcBody<u32>> {
            let r = w.reg("r", 0u32);
            (0..3)
                .map(|_| {
                    let (r, alive) = (r.clone(), Arc::clone(alive));
                    let b: ProcBody<u32> = Box::new(move |ctx| {
                        let _alive = alive;
                        for _ in 0..20 {
                            r.write(ctx, 1)?;
                        }
                        r.read(ctx)
                    });
                    b
                })
                .collect()
        };
        let alive = Arc::new(());
        let mut w = World::builder(3).build();
        let bodies = looping_bodies(&w, &alive);
        let mut rr = RoundRobin::new();
        let strategy = FnStrategy::new(move |view: &ScheduleView<'_>| {
            assert!(view.step < 7, "adversary bug at step {}", view.step);
            rr.decide(view)
        });
        let caught = catch_unwind(AssertUnwindSafe(|| w.run(bodies, Box::new(strategy))));
        let msg = panic_message(caught.expect_err("the strategy's panic reaches run's caller"));
        assert!(msg.contains("adversary bug at step 7"), "got: {msg}");
        // Every body was dropped, so every process thread left its gate
        // and reported before `run` re-raised.
        assert_eq!(Arc::strong_count(&alive), 1, "a process is still parked");

        // The pool workers that hosted the wrecked run serve the next one.
        let mut w = World::builder(3).build();
        let bodies = looping_bodies(&w, &alive);
        let rep = w.run(bodies, Box::new(RoundRobin::new()));
        assert_eq!(rep.outputs, vec![Some(1); 3]);
        assert_eq!(rep.steps, 3 * 21);
    }

    /// A one-process world takes no worker: its body runs on the caller's
    /// thread, and the run's only hand-off is the first grant.
    #[test]
    fn a_one_process_world_runs_on_the_callers_thread() {
        let caller = std::thread::current().id();
        let mut w = World::builder(1).build();
        let r = w.reg("r", 0u32);
        let body: ProcBody<std::thread::ThreadId> = Box::new(move |ctx| {
            for k in 0..5 {
                r.write(ctx, k)?;
            }
            Ok(std::thread::current().id())
        });
        let rep = w.run(vec![body], Box::new(RoundRobin::new()));
        assert_eq!(rep.outputs, vec![Some(caller)]);
        assert_eq!(rep.steps, 5);
        assert_eq!(
            rep.handoffs, 1,
            "the first grant counts, the rest are self-grants"
        );
    }

    /// The caller hosts the last pid, so it takes decisions too; a strategy
    /// panic on one of them is still stored and re-raised by `run` with its
    /// own payload once every process reported — never contained as the
    /// hosted pid's `Halted::Panicked`.
    #[test]
    fn strategy_panic_on_a_decision_the_caller_takes_is_reraised() {
        #[derive(Debug)]
        struct Bug(u64);
        let caller = std::thread::current().id();
        for n in [1, 3] {
            let alive = Arc::new(());
            let mut w = World::builder(n).build();
            let r = w.reg("r", 0u32);
            let bodies: Vec<ProcBody<()>> = (0..n)
                .map(|_| {
                    let (r, alive) = (r.clone(), Arc::clone(&alive));
                    let b: ProcBody<()> = Box::new(move |ctx| {
                        let _alive = alive;
                        loop {
                            r.write(ctx, 1)?;
                        }
                    });
                    b
                })
                .collect();
            let mut rr = RoundRobin::new();
            let strategy = FnStrategy::new(move |view: &ScheduleView<'_>| {
                if view.step >= 4 && std::thread::current().id() == caller {
                    std::panic::panic_any(Bug(view.step));
                }
                rr.decide(view)
            });
            let caught = catch_unwind(AssertUnwindSafe(|| w.run(bodies, Box::new(strategy))));
            let payload = caught.expect_err("the strategy's panic reaches run's caller");
            let bug = payload.downcast::<Bug>().expect("the original payload");
            assert!(bug.0 >= 4, "n = {n}: {bug:?}");
            assert_eq!(
                Arc::strong_count(&alive),
                1,
                "n = {n}: a process is still running"
            );
        }
    }

    fn k_step_bodies(world: &World, k: usize) -> Vec<ProcBody<()>> {
        let r = world.reg("r", 0u32);
        (0..world.n())
            .map(|_| {
                let r = r.clone();
                let b: ProcBody<()> = Box::new(move |ctx| {
                    for _ in 0..k {
                        r.write(ctx, 1)?;
                    }
                    Ok(())
                });
                b
            })
            .collect()
    }

    /// A process that is granted again just keeps going: running each pid
    /// to completion costs one hand-off per pid, however long the bodies.
    #[test]
    fn solo_runs_hand_off_once_per_process() {
        for k in [5, 500] {
            let mut w = World::builder(2).build();
            let bodies = k_step_bodies(&w, k);
            let lowest = FnStrategy::new(|v: &ScheduleView<'_>| Decision::Grant(v.runnable[0]));
            let rep = w.run(bodies, Box::new(lowest));
            assert_eq!(rep.steps, 2 * k as u64);
            assert_eq!(rep.handoffs, 2, "k = {k}");
        }
    }

    /// Strict alternation is the worst case: every grant changes hands.
    #[test]
    fn round_robin_hands_off_at_every_step() {
        for k in [5, 50] {
            let mut w = World::builder(2).build();
            let bodies = k_step_bodies(&w, k);
            let rep = w.run(bodies, Box::new(RoundRobin::new()));
            assert_eq!(rep.handoffs, 2 * k as u64, "k = {k}");
        }
    }

    #[test]
    #[should_panic(expected = "single-shot")]
    fn world_is_single_shot() {
        let mut w = World::builder(1).build();
        let bodies: Vec<ProcBody<()>> = vec![Box::new(|_| Ok(()))];
        let _ = w.run(bodies, Box::new(RoundRobin::new()));
        let bodies: Vec<ProcBody<()>> = vec![Box::new(|_| Ok(()))];
        let _ = w.run(bodies, Box::new(RoundRobin::new()));
    }
}
