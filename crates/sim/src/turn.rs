//! Turn-based (scan/write granularity) protocol driver.
//!
//! Every protocol in this workspace is a loop of
//!
//! > *scan the shared memory atomically → compute locally → write my own
//! > register*
//!
//! (the paper's §5 pseudocode is literally `repeat forever: scan; ...;
//! write`). This module schedules protocols at exactly that granularity:
//! a [`TurnProcess`] is the per-process state machine, and a [`TurnDriver`]
//! applies *scan* and *write* events one at a time under the control of a
//! [`Strategy`] at the [`Turn`] level.
//!
//! The transition itself is [`TurnState::step`]: the driver wraps it with
//! crashes, panics, fault notes and metrics, and the exhaustive model
//! checker (`bprc_core::modelcheck`) expands clones of the same state, so a
//! model-checked schedule and a driven one take the same steps.
//!
//! The scan here is an **atomic snapshot**: exactly the abstraction the
//! paper's §2 scannable memory implements (verified separately in
//! `bprc-snapshot` at the register level). Running against the abstraction
//! keeps Monte-Carlo experiments exact with respect to the model while being
//! orders of magnitude faster than thread-based execution — the adversary at
//! this granularity is the standard strong adversary of \[AH88\]: it sees all
//! process states and pending writes, and may delay a pending write
//! arbitrarily long after the scan that produced it.
//!
//! The adversary is the scheduler's own [`Strategy`], shown a [`TurnView`]
//! (the registers, every phase and the crashes) and answering with a
//! [`Decision`]: a grant steps a process through its next event, a crash or
//! an injected panic halts it. So round-robin, random, PCT and fault-plan
//! adversaries are the same values that drive a world; only `Flush` has no
//! meaning here (turns have no store buffers) and the driver rejects it.

use std::marker::PhantomData;

use crate::error::Halted;
use crate::history::FaultKind;
use crate::metrics::{Counter, Gauge, MetricsRegistry, ProcMetrics, Telemetry};
use crate::sched::{Decision, Level, ScheduleView, Strategy};

/// The register-level policies under the names turn-level code has long
/// used; each is one type serving every level.
pub use crate::sched::{RandomStrategy as TurnRandom, RoundRobin as TurnRoundRobin};

/// What a process does after observing a scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TurnStep<M, O> {
    /// Publish a new value of the process's register.
    Write(M),
    /// Decide and halt.
    Decide(O),
}

/// A cheap, allocation-free telemetry probe a [`TurnProcess`] exposes to
/// its driver (see [`TurnProcess::probe`]).
///
/// The threaded adapter in `bprc-core` polls it once per protocol
/// iteration to bridge round changes into flight-recorder round events and
/// register widths into the register-width gauge; the turn driver reads it
/// once at the end of a run to set the round gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TurnProbe {
    /// The round the process has reached, if the protocol has rounds.
    pub round: Option<u64>,
    /// Local coin flips performed so far.
    pub coin_flips: u64,
    /// Width in bits of the register value the process last published;
    /// 0 when the protocol does not size its registers.
    pub register_bits: u64,
}

/// A per-process protocol state machine driven by [`TurnDriver`].
pub trait TurnProcess {
    /// The register value this process publishes.
    type Msg: Clone;
    /// The decision value.
    type Out;

    /// The first value the process writes before its first scan.
    fn initial_msg(&mut self) -> Self::Msg;

    /// One protocol turn: observe an atomic snapshot of all registers
    /// (indexed by pid) and return the next action.
    fn on_scan(&mut self, view: &[Self::Msg]) -> TurnStep<Self::Msg, Self::Out>;

    /// A cheap snapshot of protocol-level progress (round, coin flips).
    /// Polled per iteration by drivers that bridge progress into phase
    /// spans — keep it a few field reads. Default: empty.
    fn probe(&self) -> TurnProbe {
        TurnProbe::default()
    }

    /// Publishes cumulative protocol-level counters (round advances,
    /// demotions, strip wraps, …) into the metrics shard `m`. Called
    /// once when a run finishes — not per step — so implementations may
    /// simply dump their accumulated stats. Default: nothing.
    fn publish_telemetry(&self, m: &ProcMetrics<'_>) {
        let _ = m;
    }

    /// Takes back the value this process's register held until its last
    /// write replaced it, so the process can publish its next value into
    /// that value's buffers rather than into a new clone. Its buffers may
    /// still be shared — a copy another process took — so reuse must check
    /// (`Arc::get_mut`) before it writes. [`TurnState::step`] calls it
    /// after every write, and so does `bprc_core`'s register-level bridge
    /// when the port hands one back. Default: drops it.
    fn recycle(&mut self, displaced: Self::Msg) {
        drop(displaced);
    }
}

/// Where a process currently is in its scan/write cycle.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Phase<M> {
    /// About to write this value (the adversary may inspect it).
    Write(M),
    /// About to scan.
    Scan,
    /// Decided (or returned) — takes no further steps.
    Done,
}

/// The turn level: a [`TurnDriver`] whose registers hold `M`, one scan or
/// write per step.
pub struct Turn<M>(PhantomData<fn() -> M>);

/// The turn level's part of a [`TurnView`].
#[derive(Debug)]
pub struct TurnLevelState<'a, M> {
    /// Current contents of every process's register.
    pub shared: &'a [M],
    /// Each process's phase (indexed by pid).
    pub phases: &'a [Phase<M>],
    /// Which processes have been crashed (indexed by pid).
    pub crashed: &'a [bool],
}

impl<M> Level for Turn<M> {
    type State<'a>
        = TurnLevelState<'a, M>
    where
        M: 'a;

    fn narrowed<R>(
        view: &TurnView<'_, M>,
        keep: &[usize],
        f: impl FnOnce(&TurnView<'_, M>) -> R,
    ) -> R {
        let runnable: Vec<usize> = keep.iter().map(|&i| view.runnable[i]).collect();
        f(&ScheduleView {
            step: view.step,
            runnable: &runnable,
            state: TurnLevelState { ..view.state },
        })
    }
}

/// What a turn-level adversary sees before choosing the next event: `step`
/// counts the events applied so far and `runnable` the pids neither done
/// nor crashed.
pub type TurnView<'a, M> = ScheduleView<'a, Turn<M>>;

/// The barrier-synchronous ("simultaneous reveal") adversary: it first
/// steps every active process through its *scan* — all of them observing
/// the same memory — and only then releases the resulting writes, one
/// after the other.
///
/// This is the classic worst case for protocols that resolve disagreement
/// with *independent local coins*: every round all processes flip blindly
/// against the same view, so progress needs spontaneous unanimity
/// (probability `2^{−(n−1)}` per round). Shared-coin protocols are immune:
/// the simultaneous reveal cannot bias the walk by more than one step per
/// process.
#[derive(Debug, Clone, Default)]
pub struct TurnBsp {
    releasing: bool,
    rr: usize,
}

impl TurnBsp {
    /// Creates the adversary.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<M> Strategy<Turn<M>> for TurnBsp {
    fn decide(&mut self, view: &TurnView<'_, M>) -> Decision {
        // Two strict phases: *gather* steps only scanners (memory is
        // frozen, everyone observes the same state) until none remain;
        // *release* steps only writers until none remain — a process that
        // finishes its write re-enters the scan phase but is NOT scheduled
        // again until the release completes, so no one observes a partial
        // reveal.
        let writing = |p: &usize| matches!(view.phases[*p], Phase::Write(_));
        let writers = view.runnable.iter().filter(|p| writing(p)).count();
        let scanners = view.runnable.len() - writers; // runnable: scanning or writing
        if self.releasing && writers == 0 {
            self.releasing = false;
        } else if !self.releasing && scanners == 0 {
            self.releasing = true;
        }
        let pool = if self.releasing { writers } else { scanners };
        self.rr = (self.rr + 1) % pool;
        let pick = view
            .runnable
            .iter()
            .filter(|p| writing(p) == self.releasing)
            .nth(self.rr)
            .expect("rr indexes the pool");
        Decision::Grant(*pick)
    }
}

/// Outcome of [`TurnDriver::run`].
#[derive(Debug, Clone)]
pub struct TurnReport<O> {
    /// Per-process decisions (`None` for crashed / event-limited processes).
    pub outputs: Vec<Option<O>>,
    /// Per-process halt reason: `Crashed` for adversary crashes, `Panicked`
    /// for contained `on_scan` panics and injected panics, `StepLimit` for
    /// processes still undecided when the event budget ran out.
    pub halted: Vec<Option<Halted>>,
    /// Fault-injection events, as `(event_index, pid, kind)` in the order
    /// they occurred — injected panics plus whatever the adversary reported
    /// via [`Strategy::drain_fault_notes`].
    pub fault_events: Vec<(u64, usize, FaultKind)>,
    /// Total events applied (scans + writes).
    pub events: u64,
    /// Events per process.
    pub per_proc_events: Vec<u64>,
    /// True if every non-crashed process decided within the event budget.
    pub completed: bool,
    /// The metrics-plane snapshot: scans/updates counted by the driver,
    /// plus whatever each process published via
    /// [`TurnProcess::publish_telemetry`] (round gauge included).
    pub telemetry: Telemetry,
}

impl<O: PartialEq> TurnReport<O> {
    /// Distinct decision values (agreement check helper).
    pub fn distinct_outputs(&self) -> Vec<&O> {
        let mut out: Vec<&O> = Vec::new();
        for v in self.outputs.iter().flatten() {
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }
}

/// The protocol state of a turn-level run: every process's state machine,
/// the registers, each process's phase and the decisions made.
#[derive(Clone)]
pub struct TurnState<P: TurnProcess> {
    /// The per-process state machines, indexed by pid.
    pub procs: Vec<P>,
    /// Current contents of every process's register.
    pub shared: Vec<P::Msg>,
    /// Each process's phase; a decided process is [`Phase::Done`].
    pub phases: Vec<Phase<P::Msg>>,
    /// Decisions made so far.
    pub outputs: Vec<Option<P::Out>>,
}

impl<P: TurnProcess> TurnState<P> {
    /// The state whose registers hold `shared` (one value per process) and
    /// where each process's `initial_msg` is a pending write.
    ///
    /// # Panics
    ///
    /// Panics if `procs` is empty or `shared.len() != procs.len()`.
    pub fn new(mut procs: Vec<P>, shared: Vec<P::Msg>) -> Self {
        assert!(!procs.is_empty(), "need at least one process");
        assert_eq!(shared.len(), procs.len(), "one initial value per process");
        let phases = procs
            .iter_mut()
            .map(|p| Phase::Write(p.initial_msg()))
            .collect();
        let outputs = procs.iter().map(|_| None).collect();
        TurnState {
            procs,
            shared,
            phases,
            outputs,
        }
    }

    /// Applies `pid`'s next event: its pending write, whose displaced
    /// register value goes back to the process
    /// ([`TurnProcess::recycle`]), or a scan that ends in the next pending
    /// write or a decision (the phase becomes [`Phase::Done`] and
    /// `outputs[pid]` is set).
    ///
    /// # Panics
    ///
    /// Panics if `pid` is done; a panic inside `on_scan` propagates.
    pub fn step(&mut self, pid: usize) {
        match std::mem::replace(&mut self.phases[pid], Phase::Scan) {
            Phase::Write(m) => {
                let displaced = std::mem::replace(&mut self.shared[pid], m);
                self.procs[pid].recycle(displaced);
            }
            Phase::Scan => match self.procs[pid].on_scan(&self.shared) {
                TurnStep::Write(m) => self.phases[pid] = Phase::Write(m),
                TurnStep::Decide(o) => {
                    self.outputs[pid] = Some(o);
                    self.phases[pid] = Phase::Done;
                }
            },
            Phase::Done => panic!("process {pid} already decided"),
        }
    }
}

/// Drives `n` [`TurnProcess`]es under a turn-level [`Strategy`]: a [`TurnState`]
/// plus the run's bookkeeping (crashes, halts, fault log, event counts and
/// metrics).
pub struct TurnDriver<P: TurnProcess> {
    state: TurnState<P>,
    crashed: Vec<bool>,
    /// Pids neither done nor crashed, ascending, as a [`TurnView`]'s
    /// `runnable` borrows them. A pid leaves when it decides, crashes or panics.
    active: Vec<usize>,
    halted: Vec<Option<Halted>>,
    fault_log: Vec<(u64, usize, FaultKind)>,
    events: u64,
    per_proc_events: Vec<u64>,
    /// Each pid's event counters, kept in plain fields and added to
    /// `metrics` once, by [`finish`](Self::finish).
    books: Vec<Books>,
    metrics: MetricsRegistry,
}

/// One pid's driver-side counters: `scans + updates` is its events.
#[derive(Debug, Clone, Copy, Default)]
struct Books {
    scans: u64,
    updates: u64,
    decisions: u64,
}

impl<P: TurnProcess> TurnDriver<P> {
    /// Creates a driver. Each process starts about to perform its initial
    /// write; the shared array initially holds those initial values (the
    /// model's registers have well-defined initial contents).
    ///
    /// For a stronger adversary — one that can schedule other processes
    /// *before* a process's initial value becomes visible — use
    /// [`TurnDriver::with_initial_shared`] with explicit register initial
    /// contents.
    pub fn new(mut procs: Vec<P>) -> Self {
        let initials: Vec<P::Msg> = procs.iter_mut().map(|p| p.initial_msg()).collect();
        Self::with_initial_shared(procs, initials)
    }

    /// Creates a driver whose registers initially hold `shared` (one value
    /// per process) rather than the processes' first writes; each process's
    /// `initial_msg` becomes an ordinary pending write the adversary may
    /// delay arbitrarily.
    ///
    /// # Panics
    ///
    /// Panics if `procs` is empty or `shared.len() != procs.len()`.
    pub fn with_initial_shared(procs: Vec<P>, shared: Vec<P::Msg>) -> Self {
        let state = TurnState::new(procs, shared);
        let n = state.procs.len();
        TurnDriver {
            state,
            crashed: vec![false; n],
            active: (0..n).collect(),
            halted: vec![None; n],
            fault_log: Vec::new(),
            events: 0,
            per_proc_events: vec![0; n],
            books: vec![Books::default(); n],
            metrics: MetricsRegistry::new(n),
        }
    }

    /// The driver's live metrics registry (observers use the global shard
    /// for run-wide gauges such as memory high-water marks). The per-pid
    /// event counters (scans, updates, decisions) and what the processes
    /// publish appear in it only when the run finishes.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Events applied so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Current register contents (test/diagnostic access).
    pub fn shared(&self) -> &[P::Msg] {
        &self.state.shared
    }

    /// Current phases (test/diagnostic access).
    pub fn phases(&self) -> &[Phase<P::Msg>] {
        &self.state.phases
    }

    fn halt_panicked(&mut self, pid: usize) {
        self.crashed[pid] = true;
        self.halted[pid] = Some(Halted::Panicked);
        self.active.retain(|&p| p != pid);
    }

    /// Applies one event for `pid` (must be active).
    ///
    /// A panic inside the process's `on_scan` is contained: the process
    /// halts as [`Halted::Panicked`] and everyone else keeps going.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is done or crashed.
    pub fn step(&mut self, pid: usize) {
        assert!(!self.crashed[pid], "process {pid} is crashed");
        self.events += 1;
        self.per_proc_events[pid] += 1;
        let writing = match self.state.phases[pid] {
            Phase::Write(_) => true,
            Phase::Scan => {
                // Counted before it runs: a scan that panics is a scan.
                self.books[pid].scans += 1;
                false
            }
            Phase::Done => panic!("process {pid} already decided"),
        };
        let state = &mut self.state;
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| state.step(pid))).is_err() {
            self.halt_panicked(pid);
        } else if writing {
            self.books[pid].updates += 1;
        } else if self.state.outputs[pid].is_some() {
            self.books[pid].decisions += 1;
            self.active.retain(|&p| p != pid);
        }
    }

    /// Crashes `pid`: it takes no further events.
    pub fn crash(&mut self, pid: usize) {
        assert!(!self.crashed[pid], "process {pid} crashed twice");
        self.crashed[pid] = true;
        if !matches!(self.state.phases[pid], Phase::Done) {
            self.halted[pid] = Some(Halted::Crashed);
            self.active.retain(|&p| p != pid);
        }
    }

    /// Runs under `adversary` until every active process decided or
    /// `max_events` is reached, and returns the report.
    ///
    /// `Grant(pid)` steps an active process through its next scan or
    /// write, `Crash(pid)` crashes it, and `Panic(pid)` halts it as
    /// [`Halted::Panicked`], recorded in [`TurnReport::fault_events`]
    /// (there is no thread to unwind).
    ///
    /// # Panics
    ///
    /// Panics on a `Flush` (turns have no store buffers) or a decision
    /// naming a pid that is not active.
    pub fn run(
        self,
        adversary: &mut dyn Strategy<Turn<P::Msg>>,
        max_events: u64,
    ) -> TurnReport<P::Out> {
        self.run_observed(adversary, max_events, |_| {})
    }

    /// Like [`run`](TurnDriver::run), calling `observer` with the driver's
    /// state after every applied event (for memory meters, invariant
    /// checkers, trace collectors).
    pub fn run_observed(
        mut self,
        adversary: &mut dyn Strategy<Turn<P::Msg>>,
        max_events: u64,
        mut observer: impl FnMut(&Self),
    ) -> TurnReport<P::Out> {
        loop {
            if self.active.is_empty() {
                return self.finish(true);
            }
            if self.events >= max_events {
                return self.finish(false);
            }
            let decision = {
                let view = TurnView {
                    step: self.events,
                    runnable: &self.active,
                    state: TurnLevelState {
                        shared: &self.state.shared,
                        phases: &self.state.phases,
                        crashed: &self.crashed,
                    },
                };
                adversary.decide(&view)
            };
            match decision {
                // `step` itself rejects a crashed or decided pid.
                Decision::Grant(pid) => self.step(pid),
                Decision::Crash(pid) => self.crash(pid),
                Decision::Panic(pid) => {
                    assert!(self.active.contains(&pid), "panicked inactive pid {pid}");
                    self.halt_panicked(pid);
                    self.fault_log
                        .push((self.events, pid, FaultKind::PanicInjected));
                }
                Decision::Flush { .. } => panic!(
                    "illegal adversary decision {decision:?} at event {}: \
                     turns have no store buffers, so nothing is flushable",
                    self.events
                ),
            }
            for (pid, kind) in adversary.drain_fault_notes() {
                self.fault_log.push((self.events, pid, kind));
            }
            observer(&self);
        }
    }

    fn finish(mut self, completed: bool) -> TurnReport<P::Out> {
        if !completed {
            // Processes still undecided when the budget ran out.
            for &p in &self.active {
                self.halted[p] = Some(Halted::StepLimit);
            }
        }
        // Drain the event books and protocol-level telemetry once, at the
        // end: cumulative counts cost no atomic per step this way. The
        // final probe's width is the widest the process published, because
        // a core's register width never shrinks; 0 means it does not size
        // its registers, as in the register-level bridge.
        for (pid, proc) in self.state.procs.iter().enumerate() {
            let m = self.metrics.proc(pid);
            let books = self.books[pid];
            m.incr(Counter::Scans, books.scans);
            m.incr(Counter::Updates, books.updates);
            m.incr(Counter::Decisions, books.decisions);
            proc.publish_telemetry(&m);
            let probe = proc.probe();
            if let Some(r) = probe.round {
                m.gauge_set(Gauge::Round, r);
            }
            if probe.register_bits > 0 {
                m.gauge_max(Gauge::MaxRegisterBits, probe.register_bits);
            }
        }
        TurnReport {
            outputs: self.state.outputs,
            halted: self.halted,
            fault_events: self.fault_log,
            events: self.events,
            per_proc_events: self.per_proc_events,
            completed,
            telemetry: self.metrics.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::FnStrategy;

    /// Toy protocol: write your input, scan, decide the maximum seen.
    struct MaxFinder {
        input: u32,
    }

    impl TurnProcess for MaxFinder {
        type Msg = u32;
        type Out = u32;

        fn initial_msg(&mut self) -> u32 {
            self.input
        }

        fn on_scan(&mut self, view: &[u32]) -> TurnStep<u32, u32> {
            TurnStep::Decide(*view.iter().max().expect("nonempty"))
        }
    }

    #[test]
    fn max_finder_round_robin() {
        let procs: Vec<MaxFinder> = (0..4).map(|i| MaxFinder { input: i * 10 }).collect();
        let driver = TurnDriver::new(procs);
        let report = driver.run(&mut TurnRoundRobin::new(), 1_000);
        assert!(report.completed);
        // Everyone wrote before anyone scanned under round robin, so all saw 30.
        assert!(report.outputs.iter().all(|o| *o == Some(30)));
        // 4 writes + 4 scans.
        assert_eq!(report.events, 8);
    }

    #[test]
    fn adversary_can_hide_a_write() {
        // Let process 1 scan before process 3 writes: initial register
        // contents are the initial msgs, so the view still contains 30 —
        // initial values are published at driver construction. Instead hide
        // by crashing: crash process 3 before its write... its initial value
        // is already in shared. This documents the "registers have initial
        // contents" convention.
        let procs: Vec<MaxFinder> = (0..4).map(|i| MaxFinder { input: i * 10 }).collect();
        let mut driver = TurnDriver::new(procs);
        driver.crash(3);
        assert_eq!(driver.active, vec![0, 1, 2]);
        // Drive manually: step 0 twice (write then scan+decide).
        driver.step(0);
        driver.step(0);
        assert_eq!(driver.state.outputs[0], Some(30));
    }

    /// `DecisionRecorder` wraps a turn run as it wraps a world: its log,
    /// replayed as a script, reproduces the run.
    #[test]
    fn recorded_turn_run_replays_from_its_log() {
        use crate::explore::DecisionRecorder;
        // Registers start at 0, so what a scan sees depends on the schedule.
        let driver = || {
            let procs = (0..4).map(|i| MaxFinder { input: i * 10 }).collect();
            TurnDriver::with_initial_shared(procs, vec![0; 4])
        };
        let (mut recorder, log) = DecisionRecorder::new(TurnRandom::new(5));
        let recorded = driver().run(&mut recorder, 1_000);
        let script = std::mem::take(&mut *log.lock());
        assert_eq!(script.len() as u64, recorded.events);
        let mut script = script.into_iter();
        let replayed = driver().run(
            &mut FnStrategy::new(move |_: &TurnView<'_, u32>| script.next().expect("a decision")),
            1_000,
        );
        assert_eq!(replayed.outputs, recorded.outputs);
        assert_eq!(replayed.per_proc_events, recorded.per_proc_events);
    }

    #[test]
    fn random_adversary_is_reproducible() {
        let run = |seed| {
            let procs: Vec<MaxFinder> = (0..3).map(|i| MaxFinder { input: i }).collect();
            TurnDriver::new(procs)
                .run(&mut TurnRandom::new(seed), 1_000)
                .outputs
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn event_limit_reports_incomplete() {
        /// Never decides.
        struct Spinner;
        impl TurnProcess for Spinner {
            type Msg = ();
            type Out = ();
            fn initial_msg(&mut self) {}
            fn on_scan(&mut self, _: &[()]) -> TurnStep<(), ()> {
                TurnStep::Write(())
            }
        }
        let report = TurnDriver::new(vec![Spinner, Spinner]).run(&mut TurnRoundRobin::new(), 10);
        assert!(!report.completed);
        assert_eq!(report.events, 10);
    }

    #[test]
    fn turn_fn_adversary_gets_pending_writes() {
        struct Toggler {
            left: u32,
        }
        impl TurnProcess for Toggler {
            type Msg = u32;
            type Out = u32;
            fn initial_msg(&mut self) -> u32 {
                0
            }
            fn on_scan(&mut self, _: &[u32]) -> TurnStep<u32, u32> {
                if self.left == 0 {
                    TurnStep::Decide(99)
                } else {
                    self.left -= 1;
                    TurnStep::Write(self.left)
                }
            }
        }
        let mut saw_pending = false;
        let report = TurnDriver::new(vec![Toggler { left: 3 }]).run(
            &mut FnStrategy::new(|view: &TurnView<'_, u32>| {
                if matches!(view.phases[0], Phase::Write(_)) {
                    saw_pending = true;
                }
                Decision::Grant(view.runnable[0])
            }),
            1_000,
        );
        assert!(report.completed);
        assert!(saw_pending);
        assert_eq!(report.outputs[0], Some(99));
    }

    #[test]
    fn distinct_outputs_helper() {
        let r = TurnReport {
            outputs: vec![Some(1u32), Some(2), Some(1), None],
            halted: vec![None, None, None, Some(Halted::Crashed)],
            fault_events: vec![],
            events: 0,
            per_proc_events: vec![],
            completed: true,
            telemetry: Telemetry::empty(4),
        };
        assert_eq!(r.distinct_outputs(), vec![&1, &2]);
    }

    /// Each pid's events are its scans plus its updates, in the report's
    /// telemetry.
    fn assert_books_balance<O>(report: &TurnReport<O>) {
        let t = &report.telemetry;
        for (pid, &events) in report.per_proc_events.iter().enumerate() {
            assert_eq!(
                events,
                t.counter(pid, Counter::Scans) + t.counter(pid, Counter::Updates),
                "pid {pid}"
            );
        }
        assert_eq!(report.per_proc_events.iter().sum::<u64>(), report.events);
    }

    #[test]
    fn driver_counts_scans_updates_decisions() {
        let procs: Vec<MaxFinder> = (0..4).map(|i| MaxFinder { input: i * 10 }).collect();
        let report = TurnDriver::new(procs).run(&mut TurnRoundRobin::new(), 1_000);
        let t = &report.telemetry;
        // 4 initial writes, then one scan each ending in a decision.
        assert_eq!(t.total(Counter::Updates), 4);
        assert_eq!(t.total(Counter::Scans), 4);
        assert_eq!(t.total(Counter::Decisions), 4);
        assert_eq!(
            t.total(Counter::Scans) + t.total(Counter::Updates),
            report.events
        );
        for pid in 0..4 {
            assert_eq!(t.counter(pid, Counter::Scans), 1);
        }
        assert_books_balance(&report);

        // A crash adds nothing to anyone's books: pid 3 crashes before its
        // first event, pid 2 after its write.
        let procs: Vec<MaxFinder> = (0..4).map(|i| MaxFinder { input: i * 10 }).collect();
        let report = TurnDriver::new(procs).run(
            &mut FnStrategy::new(|view: &TurnView<'_, u32>| {
                let live = |p| view.runnable.contains(&p);
                if live(3) {
                    Decision::Crash(3)
                } else if live(2) && view.phases[2] == Phase::Scan {
                    Decision::Crash(2)
                } else {
                    Decision::Grant(view.runnable[0])
                }
            }),
            1_000,
        );
        let t = &report.telemetry;
        assert_eq!(report.halted[2..], [Some(Halted::Crashed); 2]);
        assert_eq!(report.per_proc_events, [2, 2, 1, 0]);
        assert_eq!(
            (2..4)
                .map(|p| {
                    let c = |k| t.counter(p, k);
                    (
                        c(Counter::Scans),
                        c(Counter::Updates),
                        c(Counter::Decisions),
                    )
                })
                .collect::<Vec<_>>(),
            [(0, 1, 0), (0, 0, 0)]
        );
        assert_eq!(t.total(Counter::Decisions), 2);
        assert_books_balance(&report);
    }

    #[test]
    fn publish_telemetry_and_probe_feed_the_report() {
        struct Prober {
            left: u32,
        }
        impl TurnProcess for Prober {
            type Msg = ();
            type Out = u32;
            fn initial_msg(&mut self) {}
            fn on_scan(&mut self, _: &[()]) -> TurnStep<(), u32> {
                if self.left == 0 {
                    TurnStep::Decide(7)
                } else {
                    self.left -= 1;
                    TurnStep::Write(())
                }
            }
            fn probe(&self) -> TurnProbe {
                TurnProbe {
                    round: Some(3 - self.left as u64),
                    register_bits: 5,
                    ..TurnProbe::default()
                }
            }
            fn publish_telemetry(&self, m: &ProcMetrics<'_>) {
                m.incr(Counter::RoundAdvances, (3 - self.left) as u64);
            }
        }
        let report = TurnDriver::new(vec![Prober { left: 3 }]).run(&mut TurnRoundRobin::new(), 100);
        assert_eq!(report.telemetry.counter(0, Counter::RoundAdvances), 3);
        assert_eq!(report.telemetry.gauge(0, Gauge::Round), Some(3));
        assert_eq!(report.telemetry.gauge(0, Gauge::MaxRegisterBits), Some(5));
    }

    #[test]
    fn on_scan_panic_is_contained() {
        /// Panics on its first scan.
        struct Bomb;
        impl TurnProcess for Bomb {
            type Msg = u32;
            type Out = u32;
            fn initial_msg(&mut self) -> u32 {
                0
            }
            fn on_scan(&mut self, _: &[u32]) -> TurnStep<u32, u32> {
                panic!("deliberate on_scan panic");
            }
        }
        let report = TurnDriver::new(vec![Bomb, Bomb]).run(&mut TurnRoundRobin::new(), 100);
        assert!(report.completed, "both bombs halt, so the run completes");
        assert_eq!(report.halted, vec![Some(Halted::Panicked); 2]);
        assert_eq!(report.outputs, vec![None, None]);
        // The panicking scan is one scan, and no decision, for each bomb.
        let t = &report.telemetry;
        for pid in 0..2 {
            assert_eq!(t.counter(pid, Counter::Scans), 1, "pid {pid}");
            assert_eq!(t.counter(pid, Counter::Updates), 1, "pid {pid}");
            assert_eq!(t.counter(pid, Counter::Decisions), 0, "pid {pid}");
        }
        assert_books_balance(&report);
    }

    /// The active list is incremental state: each of the four ways a pid
    /// leaves it must keep it ascending and equal to what the adversary is
    /// shown, under `run` and under manual `step`/`crash` calls.
    #[test]
    fn active_list_tracks_every_way_a_pid_leaves() {
        #[derive(Clone, Copy)]
        enum Leaver {
            Decides,
            Panics,
            Spins,
        }
        impl TurnProcess for Leaver {
            type Msg = u32;
            type Out = u32;
            fn initial_msg(&mut self) -> u32 {
                0
            }
            fn on_scan(&mut self, _: &[u32]) -> TurnStep<u32, u32> {
                match self {
                    Leaver::Decides => TurnStep::Decide(1),
                    Leaver::Panics => panic!("deliberate on_scan panic"),
                    Leaver::Spins => TurnStep::Write(0),
                }
            }
        }
        use Decision::{Crash, Grant, Panic};
        use Leaver::{Decides, Panics, Spins};
        let procs = [Spins, Decides, Spins, Panics, Decides, Spins];
        // Each decision with the active list it must leave behind.
        let script: [(Decision, &[usize]); 11] = [
            (Grant(1), &[0, 1, 2, 3, 4, 5]),
            (Grant(1), &[0, 2, 3, 4, 5]), // decides
            (Crash(0), &[2, 3, 4, 5]),
            (Grant(3), &[2, 3, 4, 5]),
            (Grant(3), &[2, 4, 5]), // its on_scan panics
            (Panic(2), &[4, 5]),
            (Grant(5), &[4, 5]),
            (Grant(5), &[4, 5]), // scans and writes on
            (Grant(4), &[4, 5]),
            (Grant(4), &[5]), // decides
            (Crash(5), &[]),
        ];

        // `run`: the adversary must be shown what the previous decision left
        // behind, which is also what the driver reports to the observer.
        // (An atomic, not a `Cell`: strategies are `Send`.)
        let at = std::sync::atomic::AtomicUsize::new(0);
        let at_now = || at.load(std::sync::atomic::Ordering::Relaxed);
        let report = TurnDriver::new(procs.to_vec()).run_observed(
            &mut FnStrategy::new(|view: &TurnView<'_, u32>| {
                let i = at_now();
                // (The first decision leaves everyone active.)
                assert_eq!(view.runnable, script[i.saturating_sub(1)].1, "at {i}");
                assert!(view.runnable.windows(2).all(|w| w[0] < w[1]));
                at.store(i + 1, std::sync::atomic::Ordering::Relaxed);
                script[i].0
            }),
            100,
            |d| assert_eq!(d.active, script[at_now() - 1].1),
        );
        assert!(report.completed, "everyone left, so the run completes");
        assert_eq!(at_now(), script.len());
        assert_eq!(
            report.halted,
            [
                Some(Halted::Crashed),
                None,
                Some(Halted::Panicked),
                Some(Halted::Panicked),
                None,
                Some(Halted::Crashed)
            ]
        );

        // The same departures by hand (the manual form of an injected
        // panic is a crash).
        let mut driver = TurnDriver::new(procs.to_vec());
        for (decision, after) in script {
            match decision {
                Grant(pid) => driver.step(pid),
                Crash(pid) | Panic(pid) => driver.crash(pid),
                Decision::Flush { .. } => unreachable!("the script flushes nothing"),
            }
            assert_eq!(driver.active, after);
        }
    }

    #[test]
    fn injected_panic_decision_halts_target() {
        let procs: Vec<MaxFinder> = (0..3).map(|i| MaxFinder { input: i * 10 }).collect();
        let report = TurnDriver::new(procs).run(
            &mut FnStrategy::new(|view: &TurnView<'_, u32>| {
                if view.step == 0 && view.runnable.contains(&2) {
                    Decision::Panic(2)
                } else {
                    Decision::Grant(view.runnable[0])
                }
            }),
            1_000,
        );
        assert!(report.completed);
        assert_eq!(report.halted[2], Some(Halted::Panicked));
        assert_eq!(report.outputs[2], None);
        // Survivors still decide (they saw pid 2's initial value).
        assert_eq!(report.outputs[0], Some(20));
        assert_eq!(report.fault_events, vec![(0, 2, FaultKind::PanicInjected)]);
    }

    /// Turns have no store buffers, so a flush is an illegal decision and
    /// the panic names it.
    #[test]
    #[should_panic(expected = "illegal adversary decision Flush { pid: 0, reg: 0 } at event 0")]
    fn flush_decision_is_rejected() {
        let procs: Vec<MaxFinder> = (0..2).map(|i| MaxFinder { input: i }).collect();
        TurnDriver::new(procs).run(
            &mut FnStrategy::new(|_: &TurnView<'_, u32>| Decision::Flush { pid: 0, reg: 0 }),
            1_000,
        );
    }

    #[test]
    fn event_limit_reports_step_limit_halt() {
        struct Spinner;
        impl TurnProcess for Spinner {
            type Msg = ();
            type Out = ();
            fn initial_msg(&mut self) {}
            fn on_scan(&mut self, _: &[()]) -> TurnStep<(), ()> {
                TurnStep::Write(())
            }
        }
        let report = TurnDriver::new(vec![Spinner]).run(&mut TurnRoundRobin::new(), 5);
        assert_eq!(report.halted, vec![Some(Halted::StepLimit)]);
    }
}
