//! Scheduling strategies — the adversary.
//!
//! In the randomized-consensus literature the scheduler is an *adversary*:
//! it observes everything (memory contents, pending operations, past coin
//! flips) and picks which process takes the next step, possibly crashing
//! processes along the way. A [`Strategy`] is exactly that: at every
//! decision point it is shown a [`ScheduleView`] — the step, the runnable
//! set and the executor's own state — and returns a [`Decision`].
//!
//! One trait serves every executor: a strategy is generic over the
//! [`Level`] it drives — [`Registers`] (the default, the lockstep world),
//! [`Turn`](crate::turn::Turn) (the turn driver) or `bprc-coin`'s `Walk` —
//! and its view dereferences to that level's own state. Policies that read
//! only the step and the runnable set ([`RoundRobin`], [`RandomStrategy`],
//! [`SoloBursts`], [`PctStrategy`], [`FnStrategy`], fault plans) implement
//! every level, so one value drives any executor with the same stream;
//! adversaries that read one level's state implement that level only.
//!
//! Adaptive adversaries that need to inspect memory can capture cloned
//! [`Reg`](crate::reg::Reg) handles and use [`Reg::peek`](crate::reg::Reg::peek)
//! inside their decision function — at decision time no process is mid-access,
//! so peeks observe a consistent global state.

use std::ops::Deref;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::history::{FaultKind, OpKind, RegId};

/// The operation a blocked process will perform once granted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingOp {
    /// Read or write.
    pub kind: OpKind,
    /// Target register.
    pub reg: RegId,
    /// Tag the process attached (0 if none).
    pub tag: u64,
}

/// An executor granularity an adversary can drive.
pub trait Level: Sized {
    /// What a view at this level carries besides the step and the runnable
    /// set.
    type State<'a>
    where
        Self: 'a;

    /// Calls `f` with `view` narrowed to the runnable entries at the
    /// ascending indices `keep` (how a fault plan hides stalled processes).
    fn narrowed<R>(
        view: &ScheduleView<'_, Self>,
        keep: &[usize],
        f: impl FnOnce(&ScheduleView<'_, Self>) -> R,
    ) -> R;
}

/// What the adversary sees at a decision point.
pub struct ScheduleView<'a, L: Level + 'a = Registers> {
    /// Global step index of the step about to be granted (at turn and walk
    /// level: the events applied so far).
    pub step: u64,
    /// Processes eligible to run (not crashed or finished), in increasing
    /// pid order.
    pub runnable: &'a [usize],
    /// The level's own state; the view dereferences to it.
    pub state: L::State<'a>,
}

impl<'a, L: Level> Deref for ScheduleView<'a, L> {
    type Target = L::State<'a>;

    fn deref(&self) -> &L::State<'a> {
        &self.state
    }
}

/// The register level: the lockstep [`World`](crate::world::World), one
/// register operation per step.
#[derive(Debug)]
pub enum Registers {}

/// The register level's part of a [`ScheduleView`].
#[derive(Debug)]
pub struct RegisterState<'a> {
    /// The pending operation of each runnable process (parallel to
    /// [`ScheduleView::runnable`]).
    pub pending: &'a [PendingOp],
    /// Buffered stores eligible to flush right now, as `(pid, reg)` pairs
    /// in ascending pid order (for each pid: TSO exposes the buffer head,
    /// PSO the oldest entry per register). Always empty under
    /// [`WeakMode::Sc`](crate::weakmem::WeakMode) — strategies written
    /// before the weak-memory plane never see a flushable entry and keep
    /// their exact decision streams.
    pub flushable: &'a [(usize, RegId)],
}

impl Level for Registers {
    type State<'a> = RegisterState<'a>;

    fn narrowed<R>(
        view: &ScheduleView<'_>,
        keep: &[usize],
        f: impl FnOnce(&ScheduleView<'_>) -> R,
    ) -> R {
        let runnable: Vec<usize> = keep.iter().map(|&i| view.runnable[i]).collect();
        let pending: Vec<PendingOp> = keep.iter().map(|&i| view.pending[i]).collect();
        f(&ScheduleView {
            step: view.step,
            runnable: &runnable,
            state: RegisterState {
                pending: &pending,
                ..view.state
            },
        })
    }
}

impl ScheduleView<'_> {
    /// The pending operation of process `pid`, if runnable.
    pub fn pending_of(&self, pid: usize) -> Option<PendingOp> {
        self.runnable
            .iter()
            .position(|&p| p == pid)
            .map(|i| self.pending[i])
    }
}

/// A scheduling decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Let this (runnable) process perform its pending operation.
    Grant(usize),
    /// Crash this process: it never takes another step. The scheduler is
    /// then consulted again for the same step.
    Crash(usize),
    /// Inject a panic into this (runnable) process: at its next gate the
    /// process unwinds with a panic, which the world contains and reports
    /// as [`Halted::Panicked`](crate::error::Halted). The scheduler is then
    /// consulted again for the same step.
    Panic(usize),
    /// Land one buffered store of `pid` targeting `reg` in shared memory
    /// (weak-memory modes only; the pair must appear in
    /// [`RegisterState::flushable`]). Like a crash, a flush does not consume
    /// a step — the scheduler is consulted again for the same step.
    Flush {
        /// The process whose store buffer drains one entry.
        pid: usize,
        /// The register of the entry to flush (disambiguates under PSO;
        /// under TSO it must match the buffer head).
        reg: RegId,
    },
}

impl Decision {
    /// The process this decision targets.
    pub fn pid(self) -> usize {
        match self {
            Decision::Grant(p)
            | Decision::Crash(p)
            | Decision::Panic(p)
            | Decision::Flush { pid: p, .. } => p,
        }
    }

    /// Whether this decision may be issued against `view`: grants, crashes
    /// and panics need their pid runnable, flushes need their `(pid, reg)`
    /// entry in [`RegisterState::flushable`].
    pub fn legal(self, view: &ScheduleView<'_>) -> bool {
        match self {
            Decision::Grant(p) | Decision::Crash(p) | Decision::Panic(p) => {
                view.runnable.contains(&p)
            }
            Decision::Flush { pid, reg } => view.flushable.contains(&(pid, reg)),
        }
    }
}

/// The adversary interface, at any [`Level`] (the register level by
/// default, so `Box<dyn Strategy>` drives a [`World`](crate::world::World)).
///
/// A world's strategy is consulted by whichever process thread makes the
/// world quiescent (see [`World::run`](crate::world::World::run)), never by
/// two at once — so it must be `Send`, but needs no synchronization of its
/// own. State shared with the caller of `run` goes behind an
/// `Arc<Mutex<_>>`.
pub trait Strategy<L: Level = Registers>: Send {
    /// Picks the next decision given the current state.
    fn decide(&mut self, view: &ScheduleView<'_, L>) -> Decision;

    /// Fault events the strategy wants appended to the run's record.
    ///
    /// The executor calls this after every decision and records each entry
    /// at the current step (an [`Event::Fault`](crate::history::Event) in a
    /// world's history, an entry of a turn run's fault log) — this is how
    /// fault-injection wrappers (see the `faults` module) make stall
    /// windows and starvation visible in replayable histories.
    /// The default implementation reports nothing.
    fn drain_fault_notes(&mut self) -> Vec<(usize, FaultKind)> {
        Vec::new()
    }
}

impl<L: Level, S: Strategy<L> + ?Sized> Strategy<L> for Box<S> {
    fn decide(&mut self, view: &ScheduleView<'_, L>) -> Decision {
        (**self).decide(view)
    }

    fn drain_fault_notes(&mut self) -> Vec<(usize, FaultKind)> {
        (**self).drain_fault_notes()
    }
}

/// Cycles fairly through the runnable processes.
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// Creates a round-robin strategy starting at process 0.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<L: Level> Strategy<L> for RoundRobin {
    fn decide(&mut self, view: &ScheduleView<'_, L>) -> Decision {
        // Grant the first runnable pid >= next (cyclically).
        let pick = view
            .runnable
            .iter()
            .copied()
            .find(|&p| p >= self.next)
            .unwrap_or(view.runnable[0]);
        self.next = pick + 1;
        Decision::Grant(pick)
    }
}

/// Grants a uniformly random runnable process (seeded, replayable).
#[derive(Debug, Clone)]
pub struct RandomStrategy {
    rng: SmallRng,
}

impl RandomStrategy {
    /// Creates a random strategy from a seed.
    pub fn new(seed: u64) -> Self {
        RandomStrategy {
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl<L: Level> Strategy<L> for RandomStrategy {
    fn decide(&mut self, view: &ScheduleView<'_, L>) -> Decision {
        let i = self.rng.gen_range(0..view.runnable.len());
        Decision::Grant(view.runnable[i])
    }
}

/// Wraps a closure as a strategy — the quickest way to write a bespoke
/// adversary in a test.
pub struct FnStrategy<F>(F);

impl<F> FnStrategy<F> {
    /// Wraps `f`, deciding at level `L`.
    pub fn new<L: Level>(f: F) -> Self
    where
        F: FnMut(&ScheduleView<'_, L>) -> Decision,
    {
        FnStrategy(f)
    }
}

impl<F> std::fmt::Debug for FnStrategy<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnStrategy").finish_non_exhaustive()
    }
}

impl<L: Level, F: FnMut(&ScheduleView<'_, L>) -> Decision + Send> Strategy<L> for FnStrategy<F> {
    fn decide(&mut self, view: &ScheduleView<'_, L>) -> Decision {
        (self.0)(view)
    }
}

/// Runs one process as long as possible, then the next — the "solo burst"
/// adversary. Maximizes the asynchrony between processes, useful for
/// stressing the rounds-strip shrinking logic (one process racing far ahead).
#[derive(Debug, Clone)]
pub struct SoloBursts {
    /// How many consecutive steps each burst grants.
    burst: u64,
    current: usize,
    remaining: u64,
}

impl SoloBursts {
    /// Creates a strategy granting `burst` consecutive steps per process.
    ///
    /// # Panics
    ///
    /// Panics if `burst` is zero.
    pub fn new(burst: u64) -> Self {
        assert!(burst > 0, "burst must be positive");
        SoloBursts {
            burst,
            current: 0,
            remaining: burst,
        }
    }
}

impl<L: Level> Strategy<L> for SoloBursts {
    fn decide(&mut self, view: &ScheduleView<'_, L>) -> Decision {
        if !view.runnable.contains(&self.current) || self.remaining == 0 {
            // Move to the next runnable process after current.
            let next = view
                .runnable
                .iter()
                .copied()
                .find(|&p| p > self.current)
                .unwrap_or(view.runnable[0]);
            self.current = next;
            self.remaining = self.burst;
        }
        self.remaining -= 1;
        Decision::Grant(self.current)
    }
}

/// PCT — probabilistic concurrency testing (Burckhardt et al., ASPLOS'10).
///
/// Samples a random priority assignment over the `n` processes plus `d`
/// priority *change points* over the step horizon, then always grants the
/// highest-priority runnable process. A schedule drawn this way exposes any
/// bug of depth ≤ d+1 with probability ≥ 1/(n·kᵈ) for a k-step program — a
/// guarantee uniform random walks lack. With `d = 0` the strategy degenerates
/// to a fixed priority order: the top-priority process runs solo to
/// completion, then the next, and so on.
#[derive(Debug, Clone)]
pub struct PctStrategy {
    /// Current priority of each pid; higher wins. Initial priorities are a
    /// random permutation of `d+1 ..= d+n`, so every change-point demotion
    /// (to `d - i` for the i-th change point) sinks below all of them.
    priorities: Vec<u64>,
    /// Sorted steps at which the currently-leading runnable process is
    /// demoted.
    change_points: Vec<u64>,
    next_cp: usize,
    /// Sorted steps at which the currently-leading runnable process is
    /// *crashed* (empty unless built with [`PctStrategy::with_faults`]).
    fault_points: Vec<u64>,
    next_fp: usize,
}

impl PctStrategy {
    /// Creates a PCT schedule sampler for a world of `n` processes with `d`
    /// priority change points drawn uniformly over `0..horizon` steps.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero. Granting panics if the world contains a pid
    /// ≥ `n` — size the strategy to the world it drives.
    pub fn new(seed: u64, n: usize, d: usize, horizon: u64) -> Self {
        assert!(n > 0, "PCT needs at least one process");
        let mut rng = SmallRng::seed_from_u64(seed);
        let base = d as u64;
        let mut priorities: Vec<u64> = (0..n as u64).map(|i| base + 1 + i).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            priorities.swap(i, j);
        }
        let mut change_points: Vec<u64> =
            (0..d).map(|_| rng.gen_range(0..horizon.max(1))).collect();
        change_points.sort_unstable();
        PctStrategy {
            priorities,
            change_points,
            next_cp: 0,
            fault_points: Vec::new(),
            next_fp: 0,
        }
    }

    /// Like [`PctStrategy::new`], plus `faults` *fault points* drawn
    /// uniformly over the horizon: at each one the currently-leading
    /// runnable process is **crashed** instead of demoted, extending the
    /// PCT depth-d guarantee to bugs that additionally require crash
    /// faults. A fault point due while only one process remains runnable is
    /// skipped (crashing the sole survivor would wedge the run), keeping
    /// every sampled schedule a complete execution.
    ///
    /// The fault steps are drawn from a stream derived from (but
    /// independent of) `seed`, so `with_faults(seed, .., 0)` samples
    /// exactly the same schedule as `new(seed, ..)`.
    pub fn with_faults(seed: u64, n: usize, d: usize, horizon: u64, faults: usize) -> Self {
        let mut pct = Self::new(seed, n, d, horizon);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
        let mut fault_points: Vec<u64> = (0..faults)
            .map(|_| rng.gen_range(0..horizon.max(1)))
            .collect();
        fault_points.sort_unstable();
        pct.fault_points = fault_points;
        pct
    }

    /// Current priority of each pid (higher runs first). Exposed for
    /// distribution-sanity tests.
    pub fn priorities(&self) -> &[u64] {
        &self.priorities
    }

    fn top(&self, runnable: &[usize]) -> usize {
        runnable
            .iter()
            .copied()
            .max_by_key(|&p| self.priorities[p])
            .expect("world guarantees a non-empty runnable set at decisions")
    }
}

impl<L: Level> Strategy<L> for PctStrategy {
    fn decide(&mut self, view: &ScheduleView<'_, L>) -> Decision {
        while self.next_cp < self.change_points.len()
            && view.step >= self.change_points[self.next_cp]
        {
            let leader = self.top(view.runnable);
            // The i-th change point demotes to d - i: below every initial
            // priority, and below earlier demotions of other processes.
            self.priorities[leader] = (self.change_points.len() - self.next_cp) as u64 - 1;
            self.next_cp += 1;
        }
        while self.next_fp < self.fault_points.len() && view.step >= self.fault_points[self.next_fp]
        {
            self.next_fp += 1;
            if view.runnable.len() > 1 {
                return Decision::Crash(self.top(view.runnable));
            }
            // Sole survivor: spend the point without firing and grant.
        }
        Decision::Grant(self.top(view.runnable))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view<'a>(step: u64, runnable: &'a [usize], pending: &'a [PendingOp]) -> ScheduleView<'a> {
        ScheduleView {
            step,
            runnable,
            state: RegisterState {
                pending,
                flushable: &[],
            },
        }
    }

    fn dummy_pending(n: usize) -> Vec<PendingOp> {
        vec![
            PendingOp {
                kind: OpKind::Read,
                reg: 0,
                tag: 0
            };
            n
        ]
    }

    #[test]
    fn round_robin_cycles() {
        let mut rr = RoundRobin::new();
        let runnable = [0, 1, 2];
        let pending = dummy_pending(3);
        let picks: Vec<_> = (0..6)
            .map(|s| rr.decide(&view(s, &runnable, &pending)))
            .collect();
        assert_eq!(picks, [0, 1, 2, 0, 1, 2].map(Decision::Grant));
    }

    #[test]
    fn round_robin_skips_missing_processes() {
        let mut rr = RoundRobin::new();
        let pending = dummy_pending(2);
        // Process 1 not runnable.
        let picks: Vec<_> = (0..4)
            .map(|s| rr.decide(&view(s, &[0, 2], &pending)))
            .collect();
        assert_eq!(picks, [0, 2, 0, 2].map(Decision::Grant));
    }

    #[test]
    fn random_is_reproducible() {
        let seq = |seed| {
            let mut s = RandomStrategy::new(seed);
            let runnable = [0, 1, 2, 3];
            let pending = dummy_pending(4);
            (0..20)
                .map(|i| s.decide(&view(i, &runnable, &pending)))
                .collect::<Vec<_>>()
        };
        assert_eq!(seq(42), seq(42));
        assert_ne!(seq(42), seq(43));
    }

    #[test]
    fn solo_bursts_stays_then_moves() {
        let mut s = SoloBursts::new(3);
        let runnable = [0, 1];
        let pending = dummy_pending(2);
        let picks: Vec<_> = (0..6)
            .map(|i| s.decide(&view(i, &runnable, &pending)))
            .collect();
        assert_eq!(picks, [0, 0, 0, 1, 1, 1].map(Decision::Grant));
    }

    #[test]
    fn pct_with_zero_change_points_is_strict_priority_order() {
        let mut s = PctStrategy::new(7, 3, 0, 100);
        let order: Vec<usize> = {
            let mut pids: Vec<usize> = (0..3).collect();
            pids.sort_by_key(|&p| std::cmp::Reverse(s.priorities()[p]));
            pids
        };
        let runnable = [0, 1, 2];
        let pending = dummy_pending(3);
        for step in 0..9 {
            match s.decide(&view(step, &runnable, &pending)) {
                Decision::Grant(p) => assert_eq!(p, order[0], "d=0 must run the leader solo"),
                d => panic!("unexpected {d:?}"),
            }
        }
        // Leader gone: the next priority takes over.
        let rest = [order[1], order[2]];
        let mut rest_sorted = rest;
        rest_sorted.sort_unstable();
        let pending = dummy_pending(2);
        match s.decide(&view(9, &rest_sorted, &pending)) {
            Decision::Grant(p) => assert_eq!(p, order[1]),
            d => panic!("unexpected {d:?}"),
        }
    }

    #[test]
    fn pct_change_point_demotes_the_leader() {
        // One change point at step 0: the initial leader is demoted before
        // the first grant, so some other process runs first.
        let n = 4;
        let mut s = PctStrategy::new(11, n, 1, 1);
        let initial_leader = (0..n).max_by_key(|&p| s.priorities()[p]).unwrap();
        let runnable: Vec<usize> = (0..n).collect();
        let pending = dummy_pending(n);
        match s.decide(&view(0, &runnable, &pending)) {
            Decision::Grant(p) => {
                assert_ne!(p, initial_leader, "change point must demote the leader");
                assert!(s.priorities()[initial_leader] == 0);
            }
            d => panic!("unexpected {d:?}"),
        }
    }

    #[test]
    fn pct_fault_point_crashes_the_leader_but_never_the_sole_survivor() {
        // Horizon 1 pins the sampled fault point to step 0 regardless of
        // the seed: the leader is crashed, then the remaining processes
        // are scheduled by priority.
        let n = 3;
        let mut s = PctStrategy::with_faults(13, n, 0, 1, 1);
        let leader = (0..n).max_by_key(|&p| s.priorities()[p]).unwrap();
        let runnable: Vec<usize> = (0..n).collect();
        let pending = dummy_pending(n);
        match s.decide(&view(0, &runnable, &pending)) {
            Decision::Crash(p) => assert_eq!(p, leader, "fault point must hit the leader"),
            d => panic!("unexpected {d:?}"),
        }
        // Re-consulted at the same step, it grants (the point is spent).
        let rest: Vec<usize> = (0..n).filter(|&p| p != leader).collect();
        let pending = dummy_pending(rest.len());
        assert!(matches!(
            s.decide(&view(0, &rest, &pending)),
            Decision::Grant(_)
        ));

        // A due fault point with one survivor is skipped, not fired.
        let mut lone = PctStrategy::with_faults(13, 2, 0, 1, 1);
        let pending = dummy_pending(1);
        match lone.decide(&view(0, &[1], &pending)) {
            Decision::Grant(p) => assert_eq!(p, 1, "sole survivor must keep running"),
            d => panic!("unexpected {d:?}"),
        }
    }

    #[test]
    fn pct_with_zero_faults_matches_new() {
        let mut a = PctStrategy::new(42, 3, 2, 50);
        let mut b = PctStrategy::with_faults(42, 3, 2, 50, 0);
        let runnable = [0, 1, 2];
        let pending = dummy_pending(3);
        for step in 0..50 {
            let da = a.decide(&view(step, &runnable, &pending));
            let db = b.decide(&view(step, &runnable, &pending));
            assert_eq!(da, db, "step {step}: fault-free sampling must agree");
        }
    }

    #[test]
    fn pending_of_finds_by_pid() {
        let runnable = [3, 5];
        let pending = [
            PendingOp {
                kind: OpKind::Write,
                reg: 9,
                tag: 1,
            },
            PendingOp {
                kind: OpKind::Read,
                reg: 2,
                tag: 0,
            },
        ];
        let v = view(0, &runnable, &pending);
        assert_eq!(v.pending_of(5).unwrap().reg, 2);
        assert!(v.pending_of(4).is_none());
    }
}
