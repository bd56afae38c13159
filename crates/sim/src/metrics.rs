//! The metrics plane: cheap cross-backend counters, gauges, and phase
//! spans.
//!
//! Histories ([`crate::history`]) give a perfect record of lockstep runs,
//! but they do not exist in [`Mode::Free`](crate::Mode::Free) and they
//! cost an allocation per event. This module is the complementary
//! "flight recorder": a [`MetricsRegistry`] of per-process **sharded
//! atomic counters** that works identically under the lockstep scheduler
//! and free-running OS threads, because every increment ends up as a
//! relaxed atomic add on a cache-line-padded shard owned by one process.
//!
//! Three kinds of signal live here:
//!
//! - **Counters** ([`Counter`]) — monotonic event counts, incremented at
//!   the crate that owns the event: register reads/writes in `bprc-sim`'s
//!   access gate, scan attempts/retries/starvations in `bprc-snapshot`,
//!   arrow toggles in `bprc-registers`, coin flips and walk extremes in
//!   `bprc-coin`/`bprc-core`, strip counter increments and mod-3K wraps
//!   in `bprc-core` (via `bprc-strip`), round advances in `bprc-core`.
//! - **Gauges** ([`Gauge`]) — last-written or high-water values, e.g. the
//!   round a process reached or the register-width high-water mark that
//!   backs E6's §6 space accounting.
//! - **Phase spans** ([`PhaseEvent`]) — a per-process log of protocol
//!   phases (`round(r)`/`scan`/`write`/`coin`), stamped with the world
//!   step counter. A new phase implicitly ends the previous one. The
//!   unified trace renderer ([`crate::trace::render_unified`]) merges
//!   them with fault events from the history into one timeline.
//!
//! A [`Telemetry`] snapshot freezes the registry into plain data; it
//! rides on every [`RunReport`](crate::world::RunReport) and serializes
//! to JSONL for the experiment exporter.
//!
//! Overhead: a `fetch_add(Relaxed)` on an uncontended cache line is still
//! a locked read-modify-write — ≈ 6.5 ns on the benchmark's machine (an
//! arrow check that sheds three of them goes 24.5 → 4.6 ns) — and two to
//! four of them per register access are over half of a free-mode scan. So
//! the per-access counts do not come here one by one: a process body
//! counts into its [`Ctx`](crate::world::Ctx) (plain adds) and the context
//! publishes the batch (one `fetch_add` per counter that moved) every 64
//! accesses and when it drops. A shard read mid-run may therefore lag its
//! process by up to one batch; a [`Telemetry`] snapshot taken after the run
//! is exact. Phase events take an uncontended per-shard mutex and are
//! emitted at protocol granularity (a handful per scan), not per register
//! access. The registry is always on — there is no feature gate to drift
//! out of date. DESIGN.md § Overhead has the measured table.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::json::Value;
use crate::tracing::{now_nanos, AtomicHistogram, Hist, Histogram};

macro_rules! counters {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)*) => {
        /// Every event class the metrics plane counts.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Counter {
            $($(#[$doc])* $variant,)*
        }

        impl Counter {
            /// All counters, in declaration (and export) order.
            pub const ALL: &'static [Counter] = &[$(Counter::$variant),*];

            /// The counter's stable snake_case name (JSONL key).
            pub fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => $name,)*
                }
            }
        }
    };
}

counters! {
    /// Scheduled register reads (counted at the world's access gate).
    RegReads => "reg_reads",
    /// Scheduled register writes (counted at the world's access gate).
    RegWrites => "reg_writes",
    /// Completed snapshot scans.
    Scans => "scans",
    /// Double-collect attempts (each scan makes ≥ 1).
    ScanAttempts => "scan_attempts",
    /// Value-register reads performed inside collects — recorded per
    /// attempt, including the final attempt of a starved scan.
    CollectReads => "collect_reads",
    /// Attempts beyond the first within one scan call.
    ScanRetries => "scan_retries",
    /// Scan calls that exhausted their retry budget.
    ScanStarved => "scan_starved",
    /// Snapshot updates (writes through a port).
    Updates => "updates",
    /// Arrow cells raised.
    ArrowRaises => "arrow_raises",
    /// Arrow cells lowered.
    ArrowLowers => "arrow_lowers",
    /// Arrow cells read (handshake checks during collects).
    ArrowChecks => "arrow_checks",
    /// Local coin flips feeding the shared-coin walk.
    CoinFlips => "coin_flips",
    /// Walk steps that hit the ±(m+1) saturation bound.
    WalkExtremes => "walk_extremes",
    /// Strip edge-counter increments (one per neighbour per round advance).
    StripIncs => "strip_incs",
    /// Strip edge counters that wrapped mod 3K.
    StripWraps => "strip_wraps",
    /// Protocol round advances.
    RoundAdvances => "round_advances",
    /// Preferences demoted to ⊥ (protocol line 5).
    Demotions => "demotions",
    /// Coin values adopted after a demotion (protocol line 6).
    CoinAdoptions => "coin_adoptions",
    /// Decisions reached.
    Decisions => "decisions",
    /// Schedules fully explored by the systematic explorer (`explore`).
    SchedulesExplored => "schedules_explored",
    /// Branches the explorer's sleep-set reduction proved redundant and
    /// skipped.
    SchedulesPruned => "schedules_pruned",
    /// Explorer paths cut short by the step budget.
    SchedulesTruncated => "schedules_truncated",
    /// Crash decisions injected by the explorer's fault branches.
    FaultsInjected => "faults_injected",
    /// Lazy-mode scans answered by revalidating and reusing the previous
    /// view instead of a full double collect.
    LazyScanHits => "lazy_scan_hits",
    /// Writes parked in a per-process store buffer instead of landing in
    /// shared memory (weak-memory modes only).
    StoresBuffered => "stores_buffered",
    /// Buffered writes that became globally visible — via an explicit
    /// flush decision, a fence drain, or the end-of-run drain.
    StoresFlushed => "stores_flushed",
    /// Memory fences that actually drained a buffer (free no-ops under
    /// sequential consistency are not counted).
    Fences => "fences",
}

macro_rules! gauges {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)*) => {
        /// Last-written / high-water values tracked per process.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Gauge {
            $($(#[$doc])* $variant,)*
        }

        impl Gauge {
            /// All gauges, in declaration (and export) order.
            pub const ALL: &'static [Gauge] = &[$(Gauge::$variant),*];

            /// The gauge's stable snake_case name (JSONL key).
            pub fn name(self) -> &'static str {
                match self {
                    $(Gauge::$variant => $name,)*
                }
            }
        }
    };
}

gauges! {
    /// The round this process has reached.
    Round => "round",
    /// High-water single-register width in bits (§6 accounting).
    MaxRegisterBits => "max_register_bits",
    /// High-water total-memory width in bits.
    MaxTotalBits => "max_total_bits",
}

const N_COUNTERS: usize = Counter::ALL.len();
const N_GAUGES: usize = Gauge::ALL.len();
const N_HISTS: usize = Hist::ALL.len();

/// Gauges store `value + 1` so the all-zeros initial state means "never
/// set" and `fetch_max` still implements high-water semantics.
const GAUGE_UNSET: u64 = 0;

/// A protocol phase a process can announce (see [`PhaseEvent`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseKind {
    /// Entered round `r`.
    Round(u64),
    /// Started a snapshot scan.
    Scan,
    /// Started a snapshot update (write).
    Write,
    /// Consulted / advanced the shared coin.
    Coin,
}

impl std::fmt::Display for PhaseKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PhaseKind::Round(r) => write!(f, "round({r})"),
            PhaseKind::Scan => write!(f, "scan"),
            PhaseKind::Write => write!(f, "write"),
            PhaseKind::Coin => write!(f, "coin"),
        }
    }
}

/// One phase announcement: at world step `step` the process entered
/// `kind`. A later event from the same process implicitly ends it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseEvent {
    /// World step counter at announcement time (approximate global order
    /// in free mode, exact in lockstep).
    pub step: u64,
    /// Monotonic nanoseconds ([`now_nanos`]) at announcement time: the
    /// stamp that stays meaningful under
    /// [`Mode::Free`](crate::Mode::Free), where the step counter is only
    /// an approximate order, and the feed for Chrome-trace span
    /// durations.
    pub nanos: u64,
    /// The phase entered.
    pub kind: PhaseKind,
}

/// One process's slice of the registry. `#[repr(align(64))]` pads each
/// shard to its own cache line so free-mode increments never false-share.
#[repr(align(64))]
struct Shard {
    counters: [AtomicU64; N_COUNTERS],
    gauges: [AtomicU64; N_GAUGES],
    hists: [AtomicHistogram; N_HISTS],
    phases: Mutex<Vec<PhaseEvent>>,
}

impl Shard {
    fn new() -> Self {
        Shard {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| AtomicU64::new(GAUGE_UNSET)),
            hists: std::array::from_fn(|_| AtomicHistogram::new()),
            phases: Mutex::new(Vec::new()),
        }
    }
}

/// Sharded counters/gauges/phase logs for `n` processes plus one global
/// shard (pid-less accounting such as the §6 memory high-water).
///
/// Cloneable handles are taken with [`MetricsRegistry::proc`]; snapshots
/// with [`MetricsRegistry::snapshot`].
pub struct MetricsRegistry {
    n: usize,
    shards: Vec<Shard>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("n", &self.n)
            .finish()
    }
}

impl MetricsRegistry {
    /// A registry for `n` processes (plus the global shard).
    pub fn new(n: usize) -> Self {
        MetricsRegistry {
            n,
            shards: (0..n + 1).map(|_| Shard::new()).collect(),
        }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The metrics handle for process `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid >= n`.
    pub fn proc(&self, pid: usize) -> ProcMetrics<'_> {
        assert!(pid < self.n, "pid {pid} out of range (n = {})", self.n);
        ProcMetrics {
            shard: &self.shards[pid],
        }
    }

    /// The pid-less global shard (high-water gauges, aggregate counts).
    pub fn global(&self) -> ProcMetrics<'_> {
        ProcMetrics {
            shard: &self.shards[self.n],
        }
    }

    /// Freezes the registry into a plain-data [`Telemetry`] snapshot.
    pub fn snapshot(&self) -> Telemetry {
        Telemetry {
            n: self.n,
            counters: self
                .shards
                .iter()
                .map(|s| {
                    s.counters
                        .iter()
                        .map(|c| c.load(Ordering::Relaxed))
                        .collect()
                })
                .collect(),
            gauges: self
                .shards
                .iter()
                .map(|s| {
                    s.gauges
                        .iter()
                        .map(|g| match g.load(Ordering::Relaxed) {
                            GAUGE_UNSET => None,
                            v => Some(v - 1),
                        })
                        .collect()
                })
                .collect(),
            hists: self
                .shards
                .iter()
                .map(|s| s.hists.iter().map(|h| h.snapshot()).collect())
                .collect(),
            phases: self
                .shards
                .iter()
                .map(|s| s.phases.lock().clone())
                .collect(),
        }
    }
}

/// Counter increments a process has made but not yet published to its
/// shard: plain adds on memory one thread owns (see
/// [`Ctx::count`](crate::world::Ctx::count)).
pub(crate) struct Tally([u64; N_COUNTERS]);

impl Tally {
    pub(crate) fn new() -> Self {
        Tally([0; N_COUNTERS])
    }

    #[inline]
    pub(crate) fn add(&mut self, c: Counter, k: u64) {
        self.0[c as usize] += k;
    }
}

/// A borrowed handle for one shard: the write API handed to process
/// bodies (via [`Ctx`](crate::world::Ctx)) and to protocol layers.
#[derive(Clone, Copy)]
pub struct ProcMetrics<'a> {
    shard: &'a Shard,
}

impl<'a> ProcMetrics<'a> {
    /// Adds `k` to counter `c`: one relaxed `fetch_add`, ≈ 6.5 ns uncontended
    /// (a locked RMW). Fine at protocol granularity; per register access,
    /// count through [`Ctx::count`](crate::world::Ctx::count) instead.
    pub fn incr(&self, c: Counter, k: u64) {
        self.shard.counters[c as usize].fetch_add(k, Ordering::Relaxed);
    }

    /// Reads counter `c` from this shard.
    pub fn get(&self, c: Counter) -> u64 {
        self.shard.counters[c as usize].load(Ordering::Relaxed)
    }

    /// Sets gauge `g` to `v` (last-write-wins).
    pub fn gauge_set(&self, g: Gauge, v: u64) {
        self.shard.gauges[g as usize].store(v.saturating_add(1), Ordering::Relaxed);
    }

    /// Raises gauge `g` to at least `v` (high-water semantics).
    pub fn gauge_max(&self, g: Gauge, v: u64) {
        self.shard.gauges[g as usize].fetch_max(v.saturating_add(1), Ordering::Relaxed);
    }

    /// Reads gauge `g`; `None` if it was never set.
    pub fn gauge(&self, g: Gauge) -> Option<u64> {
        match self.shard.gauges[g as usize].load(Ordering::Relaxed) {
            GAUGE_UNSET => None,
            v => Some(v - 1),
        }
    }

    /// Appends a phase announcement stamped with world step `step` and
    /// the monotonic-nanosecond clock (the free-mode-proof half of the
    /// dual stamp). Returns the nanosecond stamp it recorded.
    pub fn phase(&self, step: u64, kind: PhaseKind) -> u64 {
        let nanos = now_nanos();
        self.shard
            .phases
            .lock()
            .push(PhaseEvent { step, nanos, kind });
        nanos
    }

    /// Adds every non-zero count of `tally` to this shard and zeroes it.
    /// `fetch_add`, like [`incr`](ProcMetrics::incr), so the shard's other
    /// writers stay correct.
    pub(crate) fn publish(&self, tally: &mut Tally) {
        for (counter, delta) in self.shard.counters.iter().zip(&mut tally.0) {
            if *delta != 0 {
                counter.fetch_add(std::mem::take(delta), Ordering::Relaxed);
            }
        }
    }

    /// Records one latency sample into histogram `h` (relaxed atomics).
    pub fn hist_record(&self, h: Hist, v: u64) {
        self.shard.hists[h as usize].record(v);
    }
}

/// A frozen, plain-data view of a [`MetricsRegistry`]: what a run's
/// [`RunReport`](crate::world::RunReport) and the JSONL exporter carry.
///
/// Shards `0..n` are per-process; shard `n` is the global shard.
#[derive(Debug, Clone, PartialEq)]
pub struct Telemetry {
    n: usize,
    counters: Vec<Vec<u64>>,
    gauges: Vec<Vec<Option<u64>>>,
    hists: Vec<Vec<Histogram>>,
    phases: Vec<Vec<PhaseEvent>>,
}

impl Telemetry {
    /// An empty snapshot for `n` processes (used when a run never
    /// started).
    pub fn empty(n: usize) -> Self {
        MetricsRegistry::new(n).snapshot()
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Counter `c` for process `pid`.
    pub fn counter(&self, pid: usize, c: Counter) -> u64 {
        self.counters[pid][c as usize]
    }

    /// Counter `c` summed over all shards (processes + global).
    pub fn total(&self, c: Counter) -> u64 {
        self.counters.iter().map(|s| s[c as usize]).sum()
    }

    /// Gauge `g` for process `pid` (`None` if never set).
    pub fn gauge(&self, pid: usize, g: Gauge) -> Option<u64> {
        self.gauges[pid][g as usize]
    }

    /// Gauge `g` on the global shard.
    pub fn gauge_global(&self, g: Gauge) -> Option<u64> {
        self.gauges[self.n][g as usize]
    }

    /// The maximum of gauge `g` over every shard that set it.
    pub fn gauge_max_all(&self, g: Gauge) -> Option<u64> {
        self.gauges.iter().filter_map(|s| s[g as usize]).max()
    }

    /// Histogram `h` for process `pid`.
    pub fn hist(&self, pid: usize, h: Hist) -> &Histogram {
        &self.hists[pid][h as usize]
    }

    /// Histogram `h` merged over all shards (processes + global): the
    /// run-wide latency distribution.
    pub fn hist_merged(&self, h: Hist) -> Histogram {
        let mut out = Histogram::new();
        for shard in &self.hists {
            out.merge(&shard[h as usize]);
        }
        out
    }

    /// Process `pid`'s phase log, in announcement order.
    pub fn phases(&self, pid: usize) -> &[PhaseEvent] {
        &self.phases[pid]
    }

    /// All phase announcements merged across processes, sorted by step
    /// (ties by pid): the unified-timeline feed.
    pub fn merged_phases(&self) -> Vec<(u64, usize, PhaseKind)> {
        let mut all: Vec<(u64, usize, PhaseKind)> = self
            .phases
            .iter()
            .enumerate()
            .flat_map(|(pid, log)| log.iter().map(move |e| (e.step, pid, e.kind)))
            .collect();
        all.sort_by_key(|&(step, pid, _)| (step, pid));
        all
    }

    /// One JSON object per shard (`"pid": n` is the global shard),
    /// counters and set gauges keyed by their stable names.
    pub fn to_json(&self) -> Value {
        let shards: Vec<Value> = (0..=self.n)
            .map(|pid| {
                let mut pairs: Vec<(String, Value)> = vec![
                    ("pid".to_string(), pid.into()),
                    (
                        "kind".to_string(),
                        if pid == self.n { "global" } else { "proc" }.into(),
                    ),
                ];
                let counters: Vec<(String, Value)> = Counter::ALL
                    .iter()
                    .filter(|&&c| self.counters[pid][c as usize] != 0)
                    .map(|&c| (c.name().to_string(), self.counters[pid][c as usize].into()))
                    .collect();
                pairs.push(("counters".to_string(), Value::Obj(counters)));
                let gauges: Vec<(String, Value)> = Gauge::ALL
                    .iter()
                    .filter_map(|&g| {
                        self.gauges[pid][g as usize].map(|v| (g.name().to_string(), v.into()))
                    })
                    .collect();
                pairs.push(("gauges".to_string(), Value::Obj(gauges)));
                pairs.push(("phases".to_string(), self.phases[pid].len().into()));
                Value::Obj(pairs)
            })
            .collect();
        Value::obj(vec![
            ("n", self.n.into()),
            ("totals", self.totals_json()),
            ("histograms", self.hists_json()),
            ("shards", Value::Arr(shards)),
        ])
    }

    fn hists_json(&self) -> Value {
        Value::Obj(
            Hist::ALL
                .iter()
                .map(|&h| (h.name().to_string(), self.hist_merged(h).to_json()))
                .filter(|(_, v)| v.get("count").and_then(|c| c.as_num()) != Some(0.0))
                .collect(),
        )
    }

    fn totals_json(&self) -> Value {
        Value::Obj(
            Counter::ALL
                .iter()
                .filter(|&&c| self.total(c) != 0)
                .map(|&c| (c.name().to_string(), self.total(c).into()))
                .collect(),
        )
    }

    /// JSONL: one `{"type":"metrics",...}` line per shard followed by one
    /// `{"type":"phase",...}` line per phase announcement.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for pid in 0..=self.n {
            let mut pairs: Vec<(String, Value)> = vec![
                ("type".to_string(), "metrics".into()),
                ("pid".to_string(), pid.into()),
            ];
            for &c in Counter::ALL {
                if self.counters[pid][c as usize] != 0 {
                    pairs.push((c.name().to_string(), self.counters[pid][c as usize].into()));
                }
            }
            for &g in Gauge::ALL {
                if let Some(v) = self.gauges[pid][g as usize] {
                    pairs.push((g.name().to_string(), v.into()));
                }
            }
            out.push_str(&Value::Obj(pairs).render());
            out.push('\n');
        }
        for (step, pid, kind) in self.merged_phases() {
            let mut pairs: Vec<(String, Value)> = vec![
                ("type".to_string(), "phase".into()),
                ("step".to_string(), step.into()),
                ("pid".to_string(), pid.into()),
            ];
            match kind {
                PhaseKind::Round(r) => {
                    pairs.push(("phase".to_string(), "round".into()));
                    pairs.push(("round".to_string(), r.into()));
                }
                PhaseKind::Scan => pairs.push(("phase".to_string(), "scan".into())),
                PhaseKind::Write => pairs.push(("phase".to_string(), "write".into())),
                PhaseKind::Coin => pairs.push(("phase".to_string(), "coin".into())),
            }
            out.push_str(&Value::Obj(pairs).render());
            out.push('\n');
        }
        out
    }

    /// A one-paragraph human summary of the interesting totals.
    pub fn summary(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        for &c in Counter::ALL {
            let t = self.total(c);
            if t != 0 {
                parts.push(format!("{} {}", c.name(), t));
            }
        }
        if let Some(r) = self.gauge_max_all(Gauge::Round) {
            parts.push(format!("max round {r}"));
        }
        for &h in Hist::ALL {
            let merged = self.hist_merged(h);
            if !merged.is_empty() {
                parts.push(format!(
                    "{} p50 {} p99 {} max {}",
                    h.name(),
                    merged.p50(),
                    merged.p99(),
                    merged.max()
                ));
            }
        }
        format!("telemetry: {}", parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_shard_by_pid_and_total() {
        let reg = MetricsRegistry::new(3);
        reg.proc(0).incr(Counter::RegReads, 2);
        reg.proc(1).incr(Counter::RegReads, 5);
        reg.proc(2).incr(Counter::RegWrites, 1);
        reg.global().incr(Counter::RegReads, 1);
        let t = reg.snapshot();
        assert_eq!(t.counter(0, Counter::RegReads), 2);
        assert_eq!(t.counter(1, Counter::RegReads), 5);
        assert_eq!(t.total(Counter::RegReads), 8);
        assert_eq!(t.total(Counter::RegWrites), 1);
        assert_eq!(t.total(Counter::Scans), 0);
    }

    #[test]
    fn gauges_distinguish_unset_zero_and_max() {
        let reg = MetricsRegistry::new(2);
        let t0 = reg.snapshot();
        assert_eq!(t0.gauge(0, Gauge::Round), None);
        reg.proc(0).gauge_set(Gauge::Round, 0);
        reg.proc(1).gauge_max(Gauge::MaxRegisterBits, 7);
        reg.proc(1).gauge_max(Gauge::MaxRegisterBits, 3);
        let t = reg.snapshot();
        assert_eq!(t.gauge(0, Gauge::Round), Some(0));
        assert_eq!(t.gauge(1, Gauge::MaxRegisterBits), Some(7));
        assert_eq!(t.gauge_max_all(Gauge::MaxRegisterBits), Some(7));
        assert_eq!(t.gauge_global(Gauge::MaxTotalBits), None);
    }

    #[test]
    fn phases_merge_in_step_order() {
        let reg = MetricsRegistry::new(2);
        reg.proc(1).phase(5, PhaseKind::Scan);
        reg.proc(0).phase(2, PhaseKind::Round(1));
        reg.proc(0).phase(9, PhaseKind::Coin);
        reg.proc(1).phase(2, PhaseKind::Write);
        let t = reg.snapshot();
        assert_eq!(
            t.merged_phases(),
            vec![
                (2, 0, PhaseKind::Round(1)),
                (2, 1, PhaseKind::Write),
                (5, 1, PhaseKind::Scan),
                (9, 0, PhaseKind::Coin),
            ]
        );
        assert_eq!(t.phases(0).len(), 2);
    }

    #[test]
    fn concurrent_increments_are_lossless() {
        use std::sync::Arc;
        let reg = Arc::new(MetricsRegistry::new(4));
        let handles: Vec<_> = (0..4)
            .map(|pid| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        reg.proc(pid).incr(Counter::RegWrites, 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.snapshot().total(Counter::RegWrites), 40_000);
    }

    #[test]
    fn jsonl_round_trips_through_the_parser() {
        let reg = MetricsRegistry::new(2);
        reg.proc(0).incr(Counter::Scans, 3);
        reg.proc(0).gauge_set(Gauge::Round, 4);
        reg.proc(1).phase(7, PhaseKind::Round(2));
        let t = reg.snapshot();
        for line in t.to_jsonl().lines() {
            let v = crate::json::parse(line).expect("every JSONL line parses");
            assert!(v.get("type").is_some());
        }
        let v = t.to_json();
        assert_eq!(
            v.get("totals").unwrap().get("scans").unwrap().as_num(),
            Some(3.0)
        );
    }

    #[test]
    fn summary_names_nonzero_counters() {
        let reg = MetricsRegistry::new(1);
        reg.proc(0).incr(Counter::CoinFlips, 12);
        reg.proc(0).gauge_set(Gauge::Round, 3);
        let s = reg.snapshot().summary();
        assert!(s.contains("coin_flips 12"));
        assert!(s.contains("max round 3"));
    }

    #[test]
    fn summary_skips_empty_histograms_and_names_filled_ones() {
        let reg = MetricsRegistry::new(1);
        reg.proc(0).incr(Counter::Scans, 1);
        let quiet = reg.snapshot().summary();
        assert!(
            !quiet.contains("scan_latency_ns"),
            "empty histograms stay out of the summary: {quiet}"
        );
        reg.proc(0).hist_record(Hist::ScanLatencyNs, 1000);
        let s = reg.snapshot().summary();
        assert!(s.contains("scan_latency_ns p50"), "{s}");
    }

    #[test]
    fn histograms_shard_by_pid_and_merge() {
        let reg = MetricsRegistry::new(2);
        reg.proc(0).hist_record(Hist::ScanLatencyNs, 100);
        reg.proc(0).hist_record(Hist::ScanLatencyNs, 200);
        reg.proc(1).hist_record(Hist::ScanLatencyNs, 4000);
        reg.proc(1).hist_record(Hist::DecisionLatencyNs, 7);
        let t = reg.snapshot();
        assert_eq!(t.hist(0, Hist::ScanLatencyNs).count(), 2);
        assert_eq!(t.hist(1, Hist::ScanLatencyNs).count(), 1);
        let merged = t.hist_merged(Hist::ScanLatencyNs);
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.max(), 4000);
        assert_eq!(t.hist_merged(Hist::RoundDurationNs).count(), 0);
        let j = t.to_json();
        let hists = j.get("histograms").expect("histograms key");
        assert!(hists.get("scan_latency_ns").is_some());
        assert!(
            hists.get("round_duration_ns").is_none(),
            "empty histograms are omitted"
        );
    }

    #[test]
    fn phase_events_carry_monotonic_nanos() {
        let reg = MetricsRegistry::new(1);
        reg.proc(0).phase(1, PhaseKind::Scan);
        reg.proc(0).phase(2, PhaseKind::Write);
        reg.proc(0).phase(3, PhaseKind::Coin);
        let t = reg.snapshot();
        let phases = t.phases(0);
        assert!(phases.windows(2).all(|w| w[0].nanos <= w[1].nanos));
        assert!(phases.iter().all(|p| p.nanos > 0));
    }
}
