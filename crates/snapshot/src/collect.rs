//! Shared double-collect plumbing for the two snapshot constructions.
//!
//! [`crate::memory`] (the paper's bounded handshake construction) and
//! [`crate::waitfree`] (the AADGMS wait-free construction) share this
//! machinery: the take-once port gate, the ghost-seq-keyed buffer-reuse
//! collect read (a whole pass of them for the wait-free scan; the handshake
//! scan makes each read its [`ScanMachine`](crate::ScanMachine) names), and
//! the per-attempt bookkeeping that records every scan in the metrics plane
//! ([`Counter`]s, ring events, the scan-latency histogram) — the one record
//! of scans either backend keeps. The two modules keep only what genuinely
//! differs (arrows and the stability rule on one side, movers and view
//! borrowing on the other).
//!
//! Everything here is order-preserving relative to the original inlined
//! code — the same counters bump in the same sequence around the same
//! scheduled accesses — which is what keeps the refactor observationally
//! invisible (pinned by the determinism fingerprints in
//! `tests/determinism.rs`).

use std::sync::atomic::{AtomicBool, Ordering};

use bprc_registers::Swmr;
use bprc_sim::tracing::{EventKind, Hist};
use bprc_sim::{Counter, Ctx, Halted};

use crate::memory::labels;

/// A register slot carrying a *ghost* sequence number: per-writer strictly
/// monotonic, invisible to the algorithm. Equal seq ⟹ the very same write,
/// which is what lets a collect skip re-cloning an unchanged slot.
pub(crate) trait SeqSlot: Clone + Send + Sync + 'static {
    /// The slot's ghost sequence number.
    fn ghost_seq(&self) -> u64;
}

/// Marks port `pid` taken (panicking if it already was) — every backend
/// hands each process its port exactly once.
pub(crate) fn claim_port(taken: &[AtomicBool], pid: usize) {
    assert!(pid < taken.len(), "pid {pid} out of range");
    assert!(
        !taken[pid].swap(true, Ordering::SeqCst),
        "port {pid} taken twice"
    );
}

/// One collect pass over everyone else's register, into the persistent
/// buffer `buf`, with **batched validation** through the per-slot version
/// tokens `vers` (see [`bprc_sim::Reg::read_changed`]): a slot whose
/// register's version word still equals the cached token is provably
/// untouched — a seqlock lane's payload words are never loaded, a locked
/// cell's lock is never taken, the slot is not unpacked, nothing is
/// cloned. With the value registers on a [`bprc_sim::World::value_slab`],
/// the version words of all `n` slots are contiguous, so a steady pass
/// sweeps ⌈n/8⌉ cache lines and deep-copies only the (usually few) changed
/// slots. On a backing without a version word (bit cells, `NO_VERSION`
/// tokens) every slot is read, and the ghost-seq comparison still skips
/// the clone.
///
/// Returns the number of register reads performed (the caller flushes them
/// into the counters once the attempt's accounting point is reached). Each
/// read is still one scheduled step — the packing changes how a granted
/// access touches memory, never how many accesses happen.
///
/// # Errors
///
/// Returns [`Halted`] if the scheduler stopped this process mid-collect.
pub(crate) fn collect_pass<S: SeqSlot>(
    ctx: &mut Ctx,
    values: &[Swmr<S>],
    me: usize,
    buf: &mut [S],
    vers: &mut [u64],
) -> Result<u64, Halted> {
    let mut reads = 0;
    for (j, reg) in values.iter().enumerate() {
        if j == me {
            continue;
        }
        reads += 1;
        read_slot(ctx, reg, &mut buf[j], &mut vers[j])?;
    }
    Ok(reads)
}

/// One collect read of `reg` into the buffered `slot`: a version-token read
/// that re-clones the slot only when its ghost seq changed, and leaves the
/// register's new token in `ver`. One scheduled step.
///
/// # Errors
///
/// Returns [`Halted`] if the scheduler stopped this process.
#[inline]
pub(crate) fn read_slot<S: SeqSlot>(
    ctx: &mut Ctx,
    reg: &Swmr<S>,
    slot: &mut S,
    ver: &mut u64,
) -> Result<(), Halted> {
    *ver = reg.read_changed(ctx, *ver, |s| {
        if slot.ghost_seq() != s.ghost_seq() {
            slot.clone_from(s);
        }
    })?;
    Ok(())
}

/// The open half of one scan's latency measurement: stamped by
/// [`begin_scan`], closed by [`finish_scan`] into the
/// [`Hist::ScanLatencyNs`] histogram.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScanSpan {
    start_nanos: u64,
}

/// Opens a scan: the `SCAN_START` annotation and the latency stamp the
/// matching [`finish_scan`] closes — which is also the stamp the scan's
/// first [`EventKind::ScanBegin`] and interior ring events carry in free
/// mode (see [`Ctx::trace_event`]).
pub(crate) fn begin_scan(ctx: &mut Ctx) -> ScanSpan {
    ctx.annotate(labels::SCAN_START, vec![]);
    ScanSpan {
        start_nanos: ctx.clock(),
    }
}

/// Counts attempts across one scan's retry loop into the metrics plane.
#[derive(Default)]
pub(crate) struct AttemptTracker {
    tries: u64,
}

impl AttemptTracker {
    /// Opens the next attempt: bumps `ScanAttempts`, and `ScanRetries`
    /// from the second attempt on.
    pub(crate) fn begin_attempt(&mut self, ctx: &mut Ctx) {
        self.tries += 1;
        ctx.count(Counter::ScanAttempts, 1);
        if self.tries > 1 {
            ctx.count(Counter::ScanRetries, 1);
        }
        ctx.trace_event(EventKind::ScanBegin, self.tries);
    }

    /// Attempts opened so far.
    pub(crate) fn tries(&self) -> u64 {
        self.tries
    }
}

/// Flushes one attempt's collect reads into [`Counter::CollectReads`] —
/// called on **every** attempt exit path (success, retry, starvation), so a
/// scan abandoned by its budget still accounts the collect work it did.
pub(crate) fn flush_collect_reads(ctx: &mut Ctx, reads: u64) {
    ctx.count(Counter::CollectReads, reads);
    ctx.trace_event(EventKind::CollectPass, reads);
}

/// Closes a successful scan: the `SCAN_END` annotation (seqs built lazily —
/// only when the world records history), the scan counters, the
/// [`EventKind::ScanEnd`] ring event (arg: attempts it took), and the
/// scan-latency histogram sample closing `span` — one clock read serves
/// both (in free mode the event's stamp *is* that reading).
pub(crate) fn finish_scan(
    ctx: &mut Ctx,
    span: ScanSpan,
    attempts: u64,
    seqs: impl FnOnce() -> Vec<u64>,
) {
    if ctx.recording() {
        ctx.annotate(labels::SCAN_END, seqs());
    }
    ctx.count(Counter::Scans, 1);
    let end_nanos = ctx.clock();
    ctx.trace_event(EventKind::ScanEnd, attempts);
    ctx.hist_record(
        Hist::ScanLatencyNs,
        end_nanos.saturating_sub(span.start_nanos),
    );
}

/// Records a starved scan (budget exhausted) and returns the halt the
/// caller propagates.
pub(crate) fn starve_scan(ctx: &mut Ctx) -> Halted {
    ctx.count(Counter::ScanStarved, 1);
    Halted::ScanStarved
}
