//! The unified snapshot interface: [`SnapshotBackend`] / [`SnapshotPort`].
//!
//! The paper builds consensus (§5) on top of a scannable memory (§2) whose
//! *interface* — `update`/`scan` satisfying P1–P3 — is all the protocol
//! needs; the handshake construction is one implementation of it, not part
//! of the contract. This module names that contract so the upper stack
//! (the `bprc-core` driver, the chaos harness, the benchmarks) can run over
//! either implementation:
//!
//! * [`ScannableMemory`] — the paper's bounded handshake construction
//!   (`"handshake"`). Bounded registers, but a scan can be starved by a
//!   relentless writer (gate with
//!   [`set_scan_retry_budget`](SnapshotBackend::set_scan_retry_budget)).
//! * [`WaitFreeSnapshot`] — the AADGMS construction (`"waitfree"`).
//!   Scans finish in at most `n + 1` attempts no matter what writers do,
//!   at the price of unbounded sequence numbers.
//!
//! Both backends emit the same history annotations and metrics, so the
//! P1–P3 checker, the telemetry plane, and the phase timelines treat them
//! identically — see [`check_backend_history`].

use bprc_registers::ArrowCell;
use bprc_sim::history::History;
use bprc_sim::sched::{Decision, ScheduleView, Strategy};
use bprc_sim::{Ctx, FastPod, Halted, World};

use crate::checker::{check_history, CheckReport};
use crate::memory::{Port, ScanStats, ScannableMemory, SnapshotMeta};
use crate::waitfree::{WaitFreeSnapshot, WfPort};

/// A process's handle on a snapshot object: the paper's `update` and
/// `scan` operations (plus the allocation-free [`scan_into`]
/// (SnapshotPort::scan_into) the hot consensus loops use).
pub trait SnapshotPort<T>: Send + 'static {
    /// This port's process id.
    fn pid(&self) -> usize;

    /// Publishes `value` (the paper's `update`).
    ///
    /// # Errors
    ///
    /// Returns [`Halted`] if the scheduler stopped this process.
    fn update(&mut self, ctx: &mut Ctx, value: T) -> Result<(), Halted>;

    /// Takes a snapshot: one value per process.
    ///
    /// # Errors
    ///
    /// Returns [`Halted`] if the scheduler stopped this process — for
    /// backends with a retry budget, [`Halted::ScanStarved`] when it runs
    /// out.
    fn scan(&mut self, ctx: &mut Ctx) -> Result<Vec<T>, Halted>;

    /// Like [`scan`](SnapshotPort::scan) but refills `out` in place,
    /// reusing its capacity (and the elements' heap, via `clone_from`): a
    /// steady-state scan allocates nothing on either backend.
    ///
    /// # Errors
    ///
    /// As for [`scan`](SnapshotPort::scan).
    fn scan_into(&mut self, ctx: &mut Ctx, out: &mut Vec<T>) -> Result<(), Halted>;

    /// Switches the port's amortized *lazy-scan* mode, where a scan whose
    /// previous view is provably still intact revalidates it with one probe
    /// pass and reuses it (see
    /// [`Port::set_lazy`](crate::memory::Port::set_lazy)). Off by default;
    /// the default impl is a no-op for ports without an amortized path.
    fn set_lazy(&mut self, lazy: bool) {
        let _ = lazy;
    }
}

/// A snapshot object: allocates in a [`World`], hands each process its
/// [`SnapshotPort`] once, and exposes the checker metadata and statistics
/// both constructions share.
///
/// Handles are cheaply cloneable (ports stay single-owner); the bound
/// exists so harnesses can keep a handle for stats while bodies run.
pub trait SnapshotBackend<T>: Clone + Send + Sync + 'static
where
    T: Clone + PartialEq + Send + Sync + 'static,
{
    /// The port type handed to each process.
    type Port: SnapshotPort<T>;

    /// Stable name for benchmark artifacts and logs (`"handshake"`,
    /// `"waitfree"`).
    const NAME: &'static str;

    /// Allocates the object: `n` processes, all registers holding `init`.
    fn alloc(world: &World, n: usize, init: T) -> Self;

    /// Like [`alloc`](SnapshotBackend::alloc) but puts the value registers
    /// on seqlock lanes where the payload fits; falls back to the locked
    /// cells transparently (a change of representation, never of
    /// semantics).
    fn alloc_fast(world: &World, n: usize, init: T) -> Self
    where
        T: FastPod;

    /// Number of processes.
    fn n(&self) -> usize;

    /// Takes process `pid`'s port. Each port may be taken once.
    ///
    /// # Panics
    ///
    /// Panics if the port was already taken or `pid` is out of range.
    fn port(&self, pid: usize) -> Self::Port;

    /// Checker metadata (register-id ↦ process mapping) — same format for
    /// every backend, which is what keeps [`check_history`] backend-
    /// agnostic.
    fn meta(&self) -> SnapshotMeta;

    /// Statistics for process `pid`'s port.
    fn stats(&self, pid: usize) -> &ScanStats;

    /// Bounds (or unbounds, with `None`) the scan retry budget. The
    /// default is a no-op: a wait-free backend has nothing to bound — its
    /// scans cannot starve.
    fn set_scan_retry_budget(&self, budget: Option<u64>) {
        let _ = budget;
    }

    /// The current scan retry budget (`None` = unbounded, and always
    /// `None` for backends whose scans cannot starve).
    fn scan_retry_budget(&self) -> Option<u64> {
        None
    }
}

impl<T, A> SnapshotBackend<T> for ScannableMemory<T, A>
where
    T: Clone + PartialEq + Send + Sync + 'static,
    A: ArrowCell,
{
    type Port = Port<T, A>;

    const NAME: &'static str = "handshake";

    fn alloc(world: &World, n: usize, init: T) -> Self {
        ScannableMemory::new(world, n, init)
    }

    fn alloc_fast(world: &World, n: usize, init: T) -> Self
    where
        T: FastPod,
    {
        ScannableMemory::new_fast(world, n, init)
    }

    fn n(&self) -> usize {
        ScannableMemory::n(self)
    }

    fn port(&self, pid: usize) -> Self::Port {
        ScannableMemory::port(self, pid)
    }

    fn meta(&self) -> SnapshotMeta {
        ScannableMemory::meta(self)
    }

    fn stats(&self, pid: usize) -> &ScanStats {
        ScannableMemory::stats(self, pid)
    }

    fn set_scan_retry_budget(&self, budget: Option<u64>) {
        ScannableMemory::set_scan_retry_budget(self, budget);
    }

    fn scan_retry_budget(&self) -> Option<u64> {
        ScannableMemory::scan_retry_budget(self)
    }
}

impl<T, A> SnapshotPort<T> for Port<T, A>
where
    T: Clone + PartialEq + Send + Sync + 'static,
    A: ArrowCell,
{
    fn pid(&self) -> usize {
        Port::pid(self)
    }

    fn update(&mut self, ctx: &mut Ctx, value: T) -> Result<(), Halted> {
        Port::update(self, ctx, value)
    }

    fn scan(&mut self, ctx: &mut Ctx) -> Result<Vec<T>, Halted> {
        Port::scan(self, ctx)
    }

    fn scan_into(&mut self, ctx: &mut Ctx, out: &mut Vec<T>) -> Result<(), Halted> {
        Port::scan_into(self, ctx, out)
    }

    fn set_lazy(&mut self, lazy: bool) {
        Port::set_lazy(self, lazy);
    }
}

impl<T> SnapshotBackend<T> for WaitFreeSnapshot<T>
where
    T: Clone + PartialEq + Send + Sync + 'static,
{
    type Port = WfPort<T>;

    const NAME: &'static str = "waitfree";

    fn alloc(world: &World, n: usize, init: T) -> Self {
        WaitFreeSnapshot::new(world, n, init)
    }

    fn alloc_fast(world: &World, n: usize, init: T) -> Self
    where
        T: FastPod,
    {
        WaitFreeSnapshot::new_fast(world, n, init)
    }

    fn n(&self) -> usize {
        WaitFreeSnapshot::n(self)
    }

    fn port(&self, pid: usize) -> Self::Port {
        WaitFreeSnapshot::port(self, pid)
    }

    fn meta(&self) -> SnapshotMeta {
        WaitFreeSnapshot::meta(self)
    }

    fn stats(&self, pid: usize) -> &ScanStats {
        WaitFreeSnapshot::stats(self, pid)
    }
}

impl<T> SnapshotPort<T> for WfPort<T>
where
    T: Clone + PartialEq + Send + Sync + 'static,
{
    fn pid(&self) -> usize {
        WfPort::pid(self)
    }

    fn update(&mut self, ctx: &mut Ctx, value: T) -> Result<(), Halted> {
        WfPort::update(self, ctx, value)
    }

    fn scan(&mut self, ctx: &mut Ctx) -> Result<Vec<T>, Halted> {
        WfPort::scan(self, ctx)
    }

    fn scan_into(&mut self, ctx: &mut Ctx, out: &mut Vec<T>) -> Result<(), Halted> {
        WfPort::scan_into(self, ctx, out)
    }

    fn set_lazy(&mut self, lazy: bool) {
        WfPort::set_lazy(self, lazy);
    }
}

/// Checks a recorded history against a backend's metadata — the
/// backend-dimension entry point to [`check_history`]: both constructions
/// emit the same annotations, so the P1–P3 verdict is computed identically
/// for either.
pub fn check_backend_history<T, B>(history: &History, backend: &B) -> CheckReport
where
    T: Clone + PartialEq + Send + Sync + 'static,
    B: SnapshotBackend<T>,
{
    check_history(history, &backend.meta())
}

/// A lockstep [`Strategy`] that schedules at **snapshot-operation
/// granularity**: the chosen process is granted register accesses
/// continuously until it completes a whole `scan` or `update`, then the
/// turn rotates round-robin. This reconstructs, over *real* registers, the
/// turn-level execution model of `bprc_sim::turn` (where a whole scan or
/// write is one atomic event) — the third execution backend of the
/// consensus matrix.
///
/// Completion is observed through the backend's [`ScanStats`] atomics
/// (scans + updates + starved): at a lockstep decision point no process is
/// mid-access, so the counters are quiescent. The strategy is
/// deterministic and RNG-free.
pub struct OpGrained {
    /// Completed-op readers, one per pid (each owns a backend handle).
    done: Vec<Box<dyn Fn() -> u64 + Send>>,
    /// The process currently holding the turn and its op count at the time
    /// the turn started.
    holding: Option<(usize, u64)>,
    /// Next pid preferred when the turn rotates.
    next: usize,
}

impl OpGrained {
    /// Builds the strategy over `memory`'s per-port statistics.
    pub fn new<T, B>(memory: &B) -> Self
    where
        T: Clone + PartialEq + Send + Sync + 'static,
        B: SnapshotBackend<T>,
    {
        use std::sync::atomic::Ordering;
        let done = (0..memory.n())
            .map(|pid| {
                let mem = memory.clone();
                let f: Box<dyn Fn() -> u64 + Send> = Box::new(move || {
                    let s = mem.stats(pid);
                    s.scans.load(Ordering::Relaxed)
                        + s.updates.load(Ordering::Relaxed)
                        + s.starved.load(Ordering::Relaxed)
                });
                f
            })
            .collect();
        OpGrained {
            done,
            holding: None,
            next: 0,
        }
    }
}

impl std::fmt::Debug for OpGrained {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpGrained")
            .field("holding", &self.holding)
            .field("next", &self.next)
            .finish()
    }
}

impl Strategy for OpGrained {
    fn decide(&mut self, view: &ScheduleView<'_>) -> Decision {
        if let Some((pid, ops)) = self.holding {
            // Keep the turn while the holder is runnable and still inside
            // the same snapshot operation.
            if view.runnable.contains(&pid) && (self.done[pid])() == ops {
                return Decision::Grant(pid);
            }
        }
        let n = self.done.len();
        for k in 0..n {
            let pid = (self.next + k) % n;
            if view.runnable.contains(&pid) {
                self.next = (pid + 1) % n;
                self.holding = Some((pid, (self.done[pid])()));
                return Decision::Grant(pid);
            }
        }
        // Unreachable while the world has runnable processes; grant
        // whatever is offered to stay total.
        Decision::Grant(view.runnable[0])
    }

    fn mid_op(&self) -> Option<usize> {
        // The holder is mid-operation exactly while its op counter has not
        // moved since the turn began. Fault wrappers consult this so a
        // crash/stall landing inside a scan or update is deferred to the
        // next operation boundary instead of tearing it (see
        // `Strategy::mid_op`).
        self.holding
            .filter(|&(pid, ops)| (self.done[pid])() == ops)
            .map(|(pid, _)| pid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::labels;
    use crate::waitfree::WaitFreeSnapshot;
    use bprc_sim::world::ProcBody;
    use bprc_sim::{FaultPlan, FaultedStrategy};

    /// Two processes over the wait-free snapshot: pid 0 updates, scans,
    /// then keeps updating (so a deferred fault has boundaries to land on);
    /// pid 1 writes continuously (so the scan spans many register steps).
    fn workload(world: &World) -> (WaitFreeSnapshot<u32>, Vec<ProcBody<u32>>) {
        let mem = WaitFreeSnapshot::alloc(world, 2, 0u32);
        let mut p0 = mem.port(0);
        let mut p1 = mem.port(1);
        let bodies: Vec<ProcBody<u32>> = vec![
            Box::new(move |ctx| {
                p0.update(ctx, 1)?;
                let snap = p0.scan(ctx)?;
                for i in 0..16 {
                    p0.update(ctx, 2 + i)?;
                }
                Ok(snap[1])
            }),
            Box::new(move |ctx| {
                for i in 0..16 {
                    p1.update(ctx, 100 + i)?;
                }
                Ok(0)
            }),
        ];
        (mem, bodies)
    }

    /// A crash point landing mid-scan under `OpGrained` must defer to the
    /// next op boundary (the scan completes untorn) and still be delivered
    /// (not silently skipped) — the `FaultPlan` × `OpGrained` composition
    /// contract.
    #[test]
    fn fault_point_mid_scan_defers_to_op_boundary_and_still_fires() {
        // Clean run: locate a step strictly inside pid 0's scan.
        let mut world = World::builder(2).build();
        let (mem, bodies) = workload(&world);
        let rep = world.run(bodies, Box::new(OpGrained::new(&mem)));
        let h = rep.history.unwrap();
        let start = h
            .notes_labelled(labels::SCAN_START)
            .find(|&(_, pid, _)| pid == 0)
            .expect("pid 0 scans")
            .0;
        let end = h
            .notes_labelled(labels::SCAN_END)
            .find(|&(_, pid, _)| pid == 0)
            .expect("pid 0's scan completes")
            .0;
        assert!(end > start + 1, "scan too short to land a fault inside");
        let mid = start + 1;

        // Faulted run: identical decisions up to `mid`, where the crash
        // point comes due while pid 0 is mid-scan.
        let mut world = World::builder(2).build();
        let (mem, bodies) = workload(&world);
        let plan = FaultPlan::new().crash_at(mid, 0);
        let rep = world.run(
            bodies,
            Box::new(FaultedStrategy::new(OpGrained::new(&mem), plan)),
        );
        assert_eq!(
            rep.halted[0],
            Some(Halted::Crashed),
            "deferred point must still fire, not be silently skipped"
        );
        let h = rep.history.unwrap();
        assert_eq!(h.crashes().count(), 1);
        let starts = h
            .notes_labelled(labels::SCAN_START)
            .filter(|&(_, pid, _)| pid == 0)
            .count();
        let ends = h
            .notes_labelled(labels::SCAN_END)
            .filter(|&(_, pid, _)| pid == 0)
            .count();
        assert_eq!(starts, ends, "the crash tore a scan in half");
        assert!(starts > 0, "pid 0 must have scanned before dying");
        let (crash_step, crash_pid) = h.crashes().next().unwrap();
        assert_eq!(crash_pid, 0);
        let scan_end = h
            .notes_labelled(labels::SCAN_END)
            .find(|&(_, pid, _)| pid == 0)
            .unwrap()
            .0;
        assert!(
            crash_step >= scan_end,
            "crash at step {crash_step} should follow the scan end at {scan_end}"
        );
        // The survivor finishes untouched.
        assert_eq!(rep.outputs[1], Some(0));
    }
}
