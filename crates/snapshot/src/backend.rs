//! The unified snapshot interface: [`SnapshotBackend`] / [`SnapshotPort`].
//!
//! The paper builds consensus (§5) on top of a scannable memory (§2) whose
//! *interface* — `update`/`scan` satisfying P1–P3 — is all the protocol
//! needs; the handshake construction is one implementation of it, not part
//! of the contract. This module names that contract so the upper stack
//! (the `bprc-core` driver, the chaos harness, the benchmarks) is written
//! against it rather than against one construction.
//!
//! The one construction in this crate is [`ScannableMemory`], the paper's
//! bounded handshake memory (`"handshake"`): bounded registers, but a scan
//! can be starved by a relentless writer (gate with
//! [`set_scan_retry_budget`](SnapshotBackend::set_scan_retry_budget)). A
//! wrapper that forwards to it — a benchmark's instrumented backend, say —
//! is a second implementation; it keeps the history annotations and
//! metrics, so the P1–P3 checker ([`check_history`](crate::check_history)
//! over [`SnapshotBackend::meta`]), the telemetry plane and the phase
//! timelines treat it identically.

use bprc_registers::ArrowCell;
use bprc_sim::{Ctx, FastPod, Halted, World};

use crate::memory::{Port, ScannableMemory, SnapshotMeta};

/// A process's handle on a snapshot object: the paper's `update` and
/// `scan` operations (plus the allocation-free
/// [`scan_into`](SnapshotPort::scan_into) the hot consensus loops use).
pub trait SnapshotPort<T>: Send + 'static {
    /// This port's process id.
    fn pid(&self) -> usize;

    /// Publishes `value` (the paper's `update`). The value the write
    /// displaces from this process's register, when the register held one
    /// to give back, waits in the port for
    /// [`take_displaced`](SnapshotPort::take_displaced).
    ///
    /// # Errors
    ///
    /// Returns [`Halted`] if the scheduler stopped this process.
    fn update(&mut self, ctx: &mut Ctx, value: T) -> Result<(), Halted>;

    /// Hands out, once, the value the last [`update`](SnapshotPort::update)
    /// displaced from this process's register — the process's own earlier
    /// value, for it to publish its next value into. Its buffers may still
    /// be shared with a copy another process's scan took, so reuse must
    /// check before it writes. Default: `None` (nothing to hand back).
    fn take_displaced(&mut self) -> Option<T> {
        None
    }

    /// Takes a snapshot: one value per process.
    ///
    /// # Errors
    ///
    /// Returns [`Halted`] if the scheduler stopped this process —
    /// [`Halted::ScanStarved`] when the scan retry budget runs out.
    fn scan(&mut self, ctx: &mut Ctx) -> Result<Vec<T>, Halted>;

    /// Like [`scan`](SnapshotPort::scan) but refills `out` in place,
    /// reusing its capacity (and the elements' heap, via `clone_from`): a
    /// steady-state scan allocates nothing.
    ///
    /// # Errors
    ///
    /// As for [`scan`](SnapshotPort::scan).
    fn scan_into(&mut self, ctx: &mut Ctx, out: &mut Vec<T>) -> Result<(), Halted>;

    /// Does nothing: no port has a lazy-scan mode. Kept only because the
    /// benchmark's port wrapper (`benchmark/src/wrappers.rs`) forwards it.
    fn set_lazy(&mut self, lazy: bool) {
        let _ = lazy;
    }
}

/// What [`SnapshotBackend::stats`] returns. It has no fields: every scan
/// and update is counted in the run's `Telemetry` instead.
#[derive(Debug)]
pub struct ScanStats;

/// A snapshot object: allocates in a [`World`], hands each process its
/// [`SnapshotPort`] once, and exposes the checker metadata.
///
/// Handles are cheaply cloneable (ports stay single-owner); the bound
/// exists so harnesses can keep a handle for the checker while bodies run.
pub trait SnapshotBackend<T>: Clone + Send + Sync + 'static
where
    T: Clone + PartialEq + Send + Sync + 'static,
{
    /// The port type handed to each process.
    type Port: SnapshotPort<T>;

    /// Stable name for benchmark artifacts and logs (`"handshake"`).
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
    /// every backend, which is what keeps
    /// [`check_history`](crate::check_history) backend-agnostic.
    fn meta(&self) -> SnapshotMeta;

    /// Returns the field-less [`ScanStats`]: scans are counted in the run's
    /// `Telemetry` (`Counter::{Scans, ScanAttempts, …}`). Kept only because
    /// the benchmark's backend wrapper (`benchmark/src/wrappers.rs`)
    /// forwards it.
    fn stats(&self, pid: usize) -> &ScanStats {
        let _ = pid;
        &ScanStats
    }

    /// Bounds (or unbounds, with `None`) the scan retry budget: a scan
    /// that runs out halts its process as [`Halted::ScanStarved`].
    fn set_scan_retry_budget(&self, budget: Option<u64>);

    /// The current scan retry budget (`None` = unbounded).
    fn scan_retry_budget(&self) -> Option<u64>;
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

    fn take_displaced(&mut self) -> Option<T> {
        Port::take_displaced(self)
    }

    fn scan(&mut self, ctx: &mut Ctx) -> Result<Vec<T>, Halted> {
        Port::scan(self, ctx)
    }

    fn scan_into(&mut self, ctx: &mut Ctx, out: &mut Vec<T>) -> Result<(), Halted> {
        Port::scan_into(self, ctx, out)
    }
}
