//! The double-collect plumbing of the handshake construction.
//!
//! [`crate::memory`] keeps the algorithm — arrows, the stability rule, the
//! [`ScanMachine`](crate::ScanMachine) that names each run of accesses;
//! this module keeps what surrounds it: the take-once port gate, the
//! ghost-seq-keyed buffer-reuse collect run, and the per-attempt bookkeeping that records
//! every scan in the metrics plane ([`Counter`]s, ring events, the
//! scan-latency histogram) — the one record of scans the memory keeps.
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

use crate::memory::{labels, Run, Slot};

/// Marks port `pid` taken (panicking if it already was) — every backend
/// hands each process its port exactly once.
pub(crate) fn claim_port(taken: &[AtomicBool], pid: usize) {
    assert!(pid < taken.len(), "pid {pid} out of range");
    assert!(
        !taken[pid].swap(true, Ordering::SeqCst),
        "port {pid} taken twice"
    );
}

/// Performs the collect run `run` into the buffers `buf` and their
/// version tokens `vers` (both indexed by process): one version-token read
/// per named register (see [`bprc_sim::Reg::read_changed`]). A register
/// whose version word still equals the token is provably untouched — a
/// seqlock lane's payload words are never loaded, a locked cell's lock is
/// never taken, nothing is cloned. Otherwise the slot is re-cloned only
/// when its ghost seq changed (on a backing without a version word every
/// read gets that far). Each read leaves the register's new token in
/// `vers`. One scheduled step per read, all through one free-mode gate:
/// the backing changes how a granted access touches memory, never how
/// many accesses happen.
///
/// With `first`, the first collect's slots, this is the second collect: it
/// compares each slot it read with the first's `(value, toggle)` — on the
/// buffer *after* the read, which then equals the register's visible
/// content — and stops at the first mismatch. Returns how many reads were
/// clean: all of them, or the index of the mismatch.
///
/// # Errors
///
/// Returns [`Halted`] if the scheduler stopped this process.
#[inline]
pub(crate) fn collect_run<T: Clone + PartialEq + Send + Sync + 'static>(
    ctx: &mut Ctx,
    run: Run,
    values: &[Swmr<Slot<T>>],
    buf: &mut [Slot<T>],
    vers: &mut [u64],
    first: Option<&[Slot<T>]>,
) -> Result<usize, Halted> {
    let regs = run.pids().map(|j| (j, &values[j]));
    Swmr::read_changed_run(ctx, regs, vers, |j, read| {
        let slot = &mut buf[j];
        if let Some(s) = read {
            if slot.seq != s.seq {
                slot.clone_from(s);
            }
        }
        first.is_none_or(|c1| slot.same_visible(&c1[j]))
    })
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
