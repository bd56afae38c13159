//! The flight recorder: bounded per-process event rings, the monotonic
//! nanosecond clock, and power-of-two latency histograms.
//!
//! The metrics plane ([`crate::metrics`]) answers *how many*; this module
//! answers *how long* and *in what fine-grained order*. Three pieces:
//!
//! - [`now_nanos`] — monotonic nanoseconds since a lazy process-wide
//!   epoch. Every stamp in this module (and the nanosecond half of
//!   [`PhaseEvent`](crate::metrics::PhaseEvent)) comes from this clock, so
//!   stamps from different processes are mutually comparable.
//! - [`FlightRecorder`] — one fixed-capacity ring of atomic event slots
//!   per process. A ring has a **single writer** (its process), a relaxed
//!   write cursor, and never blocks: when the ring is full, the oldest
//!   events are overwritten and the overflow is counted. Every event is
//!   dual-stamped with a world step and [`now_nanos`], and which half is
//!   exact depends on the backend. Under the lockstep scheduler the step is
//!   the global counter and every event reads the clock itself (a process
//!   parked since an earlier step must not stamp its event before a peer's,
//!   or [`FlightLog::merged`] would stop being step-ordered). Under
//!   [`Mode::Free`](crate::Mode::Free) the step is the process's own lease
//!   cursor — an approximate global order — and only the *ends* of an
//!   operation read the clock (a scan's opening and close, every phase
//!   announcement): the events in between, `reg_write` above all, **carry**
//!   the last reading ([`FlightRecorder::record_at`]), so a register write
//!   costs no clock read. Interior events are therefore time-stamped to
//!   their enclosing operation and ordered within a ring by position and
//!   step; stamps are still non-zero, non-decreasing per ring, and
//!   comparable across rings.
//! - [`Histogram`] — mergeable power-of-two-bucketed latency histograms
//!   (p50/p90/p99/max) with an atomic live form ([`AtomicHistogram`])
//!   that rides the metrics shards.
//!
//! The recorder is crash-consistent by construction: events are plain
//! relaxed stores, so a process that is crashed or panicked mid-protocol
//! leaves a readable ring behind. [`FlightRecorder::snapshot`] is taken
//! after the world joins its threads (join gives the happens-before edge
//! that makes the relaxed loads well-defined).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::json::Value;

/// Monotonic nanoseconds since the first call in this process.
///
/// All flight-recorder stamps share this epoch, so stamps from different
/// threads are directly comparable. Wraps after ~584 years of uptime.
pub fn now_nanos() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

macro_rules! events {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)*) => {
        /// Every event class the flight recorder captures.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum EventKind {
            $($(#[$doc])* $variant,)*
        }

        impl EventKind {
            /// All event kinds, in declaration (and code) order.
            pub const ALL: &'static [EventKind] = &[$(EventKind::$variant),*];

            /// The kind's stable snake_case name (JSON / Chrome-trace key).
            pub fn name(self) -> &'static str {
                match self {
                    $(EventKind::$variant => $name,)*
                }
            }
        }
    };
}

events! {
    /// A double-collect scan attempt opened (arg: attempt number within
    /// the scan, 1-based).
    ScanBegin => "scan_begin",
    /// A scan completed successfully (arg: attempts it took).
    ScanEnd => "scan_end",
    /// One collect pass over the value registers finished (arg: register
    /// reads performed).
    CollectPass => "collect_pass",
    /// A scheduled register write was granted (arg: register id).
    RegWrite => "reg_write",
    /// Local coin flips fed the shared coin (arg: flips since the last
    /// probe).
    CoinFlip => "coin_flip",
    /// The protocol advanced to a new round (arg: the round entered).
    RoundAdvance => "round_advance",
    /// The process decided (arg: 0; the decision value lives in the run
    /// report).
    Decide => "decide",
    /// A crash or injected fault hit this process (arg: fault code).
    Fault => "fault",
    /// A lazy-mode scan revalidated and reused its previous view instead
    /// of running a full double collect (arg: probe reads performed).
    ScanReuse => "scan_reuse",
    /// A buffered store became globally visible (arg: register id).
    Flush => "flush",
}

impl std::fmt::Display for EventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The [`EventKind::Fault`] `arg` code for an injected fault. Code `0` is
/// reserved for scheduler **crash decisions** (which have no
/// [`FaultKind`](crate::history::FaultKind)); [`fault_label`] is the
/// inverse, decoding the code back into a display name.
pub fn fault_arg(kind: crate::history::FaultKind) -> u64 {
    use crate::history::FaultKind;
    match kind {
        FaultKind::StallStart => 1,
        FaultKind::StallEnd => 2,
        FaultKind::PanicInjected => 3,
        FaultKind::Starved => 4,
    }
}

/// Decodes an [`EventKind::Fault`] `arg` code into a display label —
/// the inverse of [`fault_arg`], with `0` naming the scheduler-crash case.
pub fn fault_label(arg: u64) -> &'static str {
    match arg {
        0 => "crash",
        1 => "stall:start",
        2 => "stall:end",
        3 => "panic",
        4 => "starved",
        _ => "fault:?",
    }
}

/// One captured event, in snapshot (plain-data) form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// The process that recorded it.
    pub pid: usize,
    /// World step counter at record time (exact under lockstep; the
    /// recording process's lease cursor under free threads, an approximate
    /// global order).
    pub step: u64,
    /// [`now_nanos`] at record time under lockstep; under free threads the
    /// process's last clock reading, taken no later than the event (see the
    /// module docs).
    pub nanos: u64,
    /// What happened.
    pub kind: EventKind,
    /// Kind-specific payload (see each [`EventKind`] variant).
    pub arg: u64,
}

/// One ring slot: four relaxed atomics. The single-writer discipline (one
/// ring per process) means a snapshot taken after joining the writer sees
/// each slot whole; mid-run readers could see a torn slot, which is why
/// [`FlightRecorder::snapshot`] is documented as a post-join operation.
struct Slot {
    step: AtomicU64,
    nanos: AtomicU64,
    kind: AtomicU64,
    arg: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Slot {
            step: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
            kind: AtomicU64::new(u64::MAX),
            arg: AtomicU64::new(0),
        }
    }
}

/// One process's bounded event ring.
struct Ring {
    slots: Vec<Slot>,
    /// Total events ever written; `cursor % capacity` is the next slot.
    cursor: AtomicU64,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Ring {
            slots: (0..capacity).map(|_| Slot::new()).collect(),
            cursor: AtomicU64::new(0),
        }
    }

    fn record(&self, step: u64, nanos: u64, kind: EventKind, arg: u64) {
        let i = self.cursor.fetch_add(1, Ordering::Relaxed) as usize % self.slots.len();
        let slot = &self.slots[i];
        slot.step.store(step, Ordering::Relaxed);
        slot.nanos.store(nanos, Ordering::Relaxed);
        slot.kind.store(kind as u64, Ordering::Relaxed);
        slot.arg.store(arg, Ordering::Relaxed);
    }

    /// Oldest-first contents plus the overwritten-event count.
    fn snapshot(&self) -> (Vec<TraceEvent>, u64) {
        let cap = self.slots.len() as u64;
        let written = self.cursor.load(Ordering::Relaxed);
        let kept = written.min(cap);
        let first = if written > cap { written % cap } else { 0 };
        let mut out = Vec::with_capacity(kept as usize);
        for k in 0..kept {
            let slot = &self.slots[((first + k) % cap) as usize];
            let code = slot.kind.load(Ordering::Relaxed) as usize;
            let Some(&kind) = EventKind::ALL.get(code) else {
                continue; // never-written slot (or torn mid-run read)
            };
            out.push(TraceEvent {
                pid: 0, // filled by the recorder
                step: slot.step.load(Ordering::Relaxed),
                nanos: slot.nanos.load(Ordering::Relaxed),
                kind,
                arg: slot.arg.load(Ordering::Relaxed),
            });
        }
        (out, written.saturating_sub(cap))
    }
}

/// The default per-process ring capacity [`crate::World`]s are built with.
pub const DEFAULT_RING_CAPACITY: usize = 2048;

/// Per-process bounded event rings: the live flight recorder.
///
/// Writes are wait-free relaxed stores on a ring owned by one writer;
/// recording never blocks and never allocates. A capacity of 0 disables
/// the recorder entirely ([`FlightRecorder::record`] becomes a no-op
/// branch), which is how the overhead self-measurement gets its baseline.
pub struct FlightRecorder {
    rings: Vec<Ring>,
    capacity: usize,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("n", &self.rings.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder with one `capacity`-slot ring per process. `capacity = 0`
    /// disables recording.
    pub fn new(n: usize, capacity: usize) -> Self {
        FlightRecorder {
            rings: (0..n).map(|_| Ring::new(capacity.max(1))).collect(),
            capacity,
        }
    }

    /// Whether events are being kept (capacity > 0).
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Number of rings (processes / workers).
    pub fn n(&self) -> usize {
        self.rings.len()
    }

    /// Records one event on `pid`'s ring, stamping [`now_nanos`]. No-op
    /// when disabled or `pid` is out of range.
    #[inline]
    pub fn record(&self, pid: usize, step: u64, kind: EventKind, arg: u64) {
        if self.capacity != 0 {
            self.record_at(pid, step, now_nanos(), kind, arg);
        }
    }

    /// [`record`](FlightRecorder::record) with a stamp the caller already
    /// holds — a [`now_nanos`] value it read no earlier than the ring's
    /// previous event, so the ring's stamps stay non-decreasing. This is
    /// how a free-mode process carries one clock read across the interior
    /// events of an operation (see the module docs).
    #[inline]
    pub fn record_at(&self, pid: usize, step: u64, nanos: u64, kind: EventKind, arg: u64) {
        if self.capacity == 0 {
            return;
        }
        if let Some(ring) = self.rings.get(pid) {
            ring.record(step, nanos, kind, arg);
        }
    }

    /// Freezes every ring into a [`FlightLog`]. Sound after the writers
    /// have been joined (how [`World::run`](crate::World::run) uses it);
    /// a mid-run snapshot may contain a torn slot, which is dropped.
    pub fn snapshot(&self) -> FlightLog {
        let mut events = Vec::with_capacity(self.rings.len());
        let mut overflow = Vec::with_capacity(self.rings.len());
        for (pid, ring) in self.rings.iter().enumerate() {
            let (mut evs, lost) = if self.capacity == 0 {
                (Vec::new(), 0)
            } else {
                ring.snapshot()
            };
            for e in &mut evs {
                e.pid = pid;
            }
            events.push(evs);
            overflow.push(lost);
        }
        FlightLog {
            capacity: self.capacity,
            events,
            overflow,
        }
    }
}

/// A frozen flight-recorder snapshot: the newest `capacity` events per
/// process, oldest first, plus how many older events each ring dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightLog {
    capacity: usize,
    events: Vec<Vec<TraceEvent>>,
    overflow: Vec<u64>,
}

impl FlightLog {
    /// An empty log for `n` processes (used when a run never started).
    pub fn empty(n: usize) -> Self {
        FlightLog {
            capacity: 0,
            events: vec![Vec::new(); n],
            overflow: vec![0; n],
        }
    }

    /// The per-ring capacity the recorder ran with (0 = disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of rings.
    pub fn n(&self) -> usize {
        self.events.len()
    }

    /// Process `pid`'s kept events, oldest first.
    pub fn events(&self, pid: usize) -> &[TraceEvent] {
        &self.events[pid]
    }

    /// Events this ring overwrote before the snapshot (0 = nothing lost).
    pub fn overflow(&self, pid: usize) -> u64 {
        self.overflow[pid]
    }

    /// Total kept events across all rings.
    pub fn total_events(&self) -> usize {
        self.events.iter().map(Vec::len).sum()
    }

    /// All kept events merged across rings, sorted by (nanos, pid) — the
    /// Chrome-trace feed.
    pub fn merged(&self) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = self.events.iter().flatten().copied().collect();
        all.sort_by_key(|e| (e.nanos, e.pid));
        all
    }

    /// Kept events of `kind` on `pid`'s ring.
    pub fn count(&self, pid: usize, kind: EventKind) -> usize {
        self.events[pid].iter().filter(|e| e.kind == kind).count()
    }

    /// One JSON object: capacity, per-ring overflow, and every kept event
    /// as `{pid, step, nanos, kind, arg}`.
    pub fn to_json(&self) -> Value {
        let events: Vec<Value> = self
            .merged()
            .iter()
            .map(|e| {
                Value::obj(vec![
                    ("pid", e.pid.into()),
                    ("step", e.step.into()),
                    ("nanos", e.nanos.into()),
                    ("kind", e.kind.name().into()),
                    ("arg", e.arg.into()),
                ])
            })
            .collect();
        Value::obj(vec![
            ("capacity", self.capacity.into()),
            (
                "overflow",
                Value::Arr(self.overflow.iter().map(|&o| o.into()).collect()),
            ),
            ("events", Value::Arr(events)),
        ])
    }
}

macro_rules! hists {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)*) => {
        /// Every latency distribution the histogram plane tracks.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Hist {
            $($(#[$doc])* $variant,)*
        }

        impl Hist {
            /// All histograms, in declaration (and export) order.
            pub const ALL: &'static [Hist] = &[$(Hist::$variant),*];

            /// The histogram's stable snake_case name (JSON key).
            pub fn name(self) -> &'static str {
                match self {
                    $(Hist::$variant => $name,)*
                }
            }
        }
    };
}

hists! {
    /// Wall-clock nanoseconds per successful snapshot scan (open to
    /// close, across all its retry attempts).
    ScanLatencyNs => "scan_latency_ns",
    /// Wall-clock nanoseconds a process spent inside one protocol round.
    RoundDurationNs => "round_duration_ns",
    /// Wall-clock nanoseconds from a process's first step to its
    /// decision.
    DecisionLatencyNs => "decision_latency_ns",
    /// Wall-clock nanoseconds per *reused-view* lazy scan (the validity
    /// probe pass only) — kept separate from [`Hist::ScanLatencyNs`] so
    /// telemetry can tell amortized scans from full collects.
    LazyScanLatencyNs => "lazy_scan_latency_ns",
}

/// Number of power-of-two buckets: bucket `b` holds values whose bit
/// length is `b`, i.e. `[2^(b-1), 2^b)`; bucket 0 holds the value 0.
pub const HIST_BUCKETS: usize = 65;

fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Upper bound of bucket `b` (inclusive), saturating at `u64::MAX`.
fn bucket_high(b: usize) -> u64 {
    if b >= 64 {
        u64::MAX
    } else if b == 0 {
        0
    } else {
        (1u64 << b) - 1
    }
}

/// The live, lock-free histogram form: rides the per-process metrics
/// shards, recorded with one relaxed `fetch_add` plus a `fetch_max`.
pub struct AtomicHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl AtomicHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Freezes into the plain-data form.
    pub fn snapshot(&self) -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A frozen power-of-two-bucketed histogram: mergeable, with percentile
/// estimates read off the bucket boundaries.
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    sum: u64,
    max: u64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("p50", &self.p50())
            .field("p99", &self.p99())
            .field("max", &self.max())
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample (the non-atomic form, for single-threaded
    /// accumulation such as the explorer's schedule-length histogram).
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let c = self.count();
        if c == 0 {
            0.0
        } else {
            self.sum as f64 / c as f64
        }
    }

    /// Whether any sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Folds `other`'s samples into `self` (bucket-wise addition).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The estimated `q`-quantile (`0.0 ..= 1.0`): the inclusive upper
    /// bound of the bucket holding the q-th sample, clamped to the true
    /// max. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_high(b).min(self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Serializes count/sum/mean/max plus the percentile ladder and the
    /// non-empty buckets (as `[bit_length, count]` pairs).
    pub fn to_json(&self) -> Value {
        let buckets: Vec<Value> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(b, &c)| Value::Arr(vec![b.into(), c.into()]))
            .collect();
        Value::obj(vec![
            ("count", self.count().into()),
            ("sum", self.sum.into()),
            ("mean", self.mean().into()),
            ("p50", self.p50().into()),
            ("p90", self.p90().into()),
            ("p99", self.p99().into()),
            ("max", self.max.into()),
            ("buckets", Value::Arr(buckets)),
        ])
    }
}

/// A rate-limited stderr progress printer: long-running sweeps (the
/// explorer, the verify-gate's PCT passes) call [`Heartbeat::tick`] every
/// iteration and a line is emitted at most once per interval — and never
/// for work that finishes inside the first interval, so quick runs stay
/// silent.
#[derive(Debug)]
pub struct Heartbeat {
    started: Instant,
    last: Instant,
    interval: std::time::Duration,
    beats: u64,
}

impl Heartbeat {
    /// A heartbeat that prints at most once per `interval_secs`.
    pub fn new(interval_secs: f64) -> Self {
        let now = Instant::now();
        Heartbeat {
            started: now,
            last: now,
            interval: std::time::Duration::from_secs_f64(interval_secs.max(0.01)),
            beats: 0,
        }
    }

    /// Seconds since the heartbeat was created.
    pub fn elapsed_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Lines printed so far.
    pub fn beats(&self) -> u64 {
        self.beats
    }

    /// Prints `line()` to stderr if the interval elapsed since the last
    /// print. Returns whether it printed.
    pub fn tick(&mut self, line: impl FnOnce(f64) -> String) -> bool {
        if self.last.elapsed() < self.interval {
            return false;
        }
        self.last = Instant::now();
        self.beats += 1;
        eprintln!("{}", line(self.elapsed_secs()));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nanos_are_monotonic() {
        let a = now_nanos();
        let b = now_nanos();
        assert!(b >= a);
    }

    #[test]
    fn ring_keeps_newest_and_counts_overflow() {
        let rec = FlightRecorder::new(1, 4);
        for i in 0..10u64 {
            rec.record(0, i, EventKind::RegWrite, i);
        }
        let log = rec.snapshot();
        assert_eq!(log.overflow(0), 6);
        let args: Vec<u64> = log.events(0).iter().map(|e| e.arg).collect();
        assert_eq!(args, vec![6, 7, 8, 9], "newest events win, oldest first");
        assert!(log.events(0).windows(2).all(|w| w[0].nanos <= w[1].nanos));
    }

    #[test]
    fn ring_under_capacity_keeps_everything_in_order() {
        let rec = FlightRecorder::new(2, 8);
        rec.record(0, 1, EventKind::ScanBegin, 1);
        rec.record(1, 2, EventKind::RegWrite, 7);
        rec.record(0, 3, EventKind::ScanEnd, 1);
        let log = rec.snapshot();
        assert_eq!(log.total_events(), 3);
        assert_eq!(log.overflow(0), 0);
        assert_eq!(
            log.events(0).iter().map(|e| e.kind).collect::<Vec<_>>(),
            vec![EventKind::ScanBegin, EventKind::ScanEnd]
        );
        assert_eq!(log.events(1)[0].pid, 1);
        let merged = log.merged();
        assert!(merged.windows(2).all(|w| w[0].nanos <= w[1].nanos));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = FlightRecorder::new(2, 0);
        assert!(!rec.enabled());
        rec.record(0, 1, EventKind::CoinFlip, 0);
        let log = rec.snapshot();
        assert_eq!(log.total_events(), 0);
        assert_eq!(log.overflow(0), 0);
    }

    #[test]
    fn recorder_is_safe_under_concurrent_writers() {
        // Single-writer-per-ring discipline, exercised for real: one
        // OS thread per ring, all recording concurrently.
        let rec = std::sync::Arc::new(FlightRecorder::new(4, 64));
        let handles: Vec<_> = (0..4)
            .map(|pid| {
                let rec = std::sync::Arc::clone(&rec);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        rec.record(pid, i, EventKind::CollectPass, i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let log = rec.snapshot();
        for pid in 0..4 {
            assert_eq!(log.events(pid).len(), 64);
            assert_eq!(log.overflow(pid), 1000 - 64);
            // The kept suffix is exactly the newest writes, in order.
            let args: Vec<u64> = log.events(pid).iter().map(|e| e.arg).collect();
            let want: Vec<u64> = (936..1000).collect();
            assert_eq!(args, want);
        }
    }

    #[test]
    fn histogram_percentiles_and_merge() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.max(), 100);
        assert_eq!(h.sum(), 5050);
        // Bucket upper bounds: p50 of 1..=100 lands in bucket 6 ([32,63]).
        assert_eq!(h.p50(), 63);
        assert_eq!(h.p99(), 100, "clamped to the true max");
        assert!(h.quantile(0.0) >= 1);

        let mut other = Histogram::new();
        other.record(1_000_000);
        h.merge(&other);
        assert_eq!(h.count(), 101);
        assert_eq!(h.max(), 1_000_000);
        assert_eq!(h.quantile(1.0), 1_000_000);
    }

    #[test]
    fn histogram_empty_is_all_zeros() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.p50(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        let j = h.to_json();
        assert_eq!(j.get("count").and_then(|v| v.as_num()), Some(0.0));
    }

    #[test]
    fn atomic_histogram_matches_plain_under_threads() {
        let ah = std::sync::Arc::new(AtomicHistogram::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let ah = std::sync::Arc::clone(&ah);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        ah.record(t * 1000 + i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = ah.snapshot();
        assert_eq!(snap.count(), 4000);
        assert_eq!(snap.max(), 3999);
        assert_eq!(snap.sum(), (0..4000u64).sum::<u64>());
    }

    #[test]
    fn histogram_json_has_the_percentile_ladder() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 4000] {
            h.record(v);
        }
        let j = h.to_json();
        for key in [
            "count", "sum", "mean", "p50", "p90", "p99", "max", "buckets",
        ] {
            assert!(j.get(key).is_some(), "missing {key}");
        }
        let text = j.render();
        let parsed = crate::json::parse(&text).expect("valid JSON");
        assert_eq!(parsed.get("max").and_then(|v| v.as_num()), Some(4000.0));
    }

    #[test]
    fn bucket_of_is_the_bit_length() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_high(64), u64::MAX);
    }

    #[test]
    fn heartbeat_is_silent_inside_the_first_interval() {
        let mut hb = Heartbeat::new(60.0);
        for _ in 0..100 {
            assert!(!hb.tick(|_| unreachable!("must not print")));
        }
        assert_eq!(hb.beats(), 0);
    }

    #[test]
    fn heartbeat_fires_after_the_interval() {
        let mut hb = Heartbeat::new(0.01);
        std::thread::sleep(std::time::Duration::from_millis(30));
        let mut printed = String::new();
        // tick() prints to stderr; we only assert the closure ran.
        assert!(hb.tick(|secs| {
            printed = format!("beat at {secs:.3}s");
            printed.clone()
        }));
        assert_eq!(hb.beats(), 1);
        assert!(printed.contains("beat at"));
    }
}
