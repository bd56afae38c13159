//! Composable, seedable fault injection — the chaos engine.
//!
//! A [`FaultPlan`] is a declarative description of *when bad things happen*:
//! crash process 2 at global step 40, stall process 0 between steps 100 and
//! 250, inject a panic into process 1 after its 17th own step. Plans are
//! pure data: the [`FaultedStrategy`] wrapper composes one with **any**
//! [`Strategy`] at any [`Level`] — register, turn or walk — so the same
//! chaos scenario can be replayed against round-robin, seeded-random, or
//! bespoke adversaries without touching protocol code. Steps are the
//! level's own: register operations in a world, scan/write events under
//! the turn driver.
//!
//! Everything a plan does is visible afterwards: crash decisions appear as
//! crash events, injected panics as [`FaultKind::PanicInjected`] faults,
//! and stall edges are reported through the wrapper's `drain_fault_notes`
//! hook, which the world and turn driver record into the run's history /
//! fault log.
//!
//! Semantics chosen to preserve the model's liveness guarantees:
//!
//! * **Crash / panic points** ([`FaultPoint`]) hold the [`Decision`] they
//!   issue — `Crash(pid)` or `Panic(pid)` — and fire it the first time
//!   their trigger is due *and* the target is still schedulable; a point
//!   whose target already finished or crashed is silently skipped (it fires
//!   at most once). The wrapper asks the plan for the decision that is due
//!   before anything else.
//! * **Stall windows** hide the process from the wrapped strategy's view.
//!   If hiding would leave the strategy with an empty view (every runnable
//!   process stalled), the full view is passed through instead — a stall
//!   delays, it never wedges the run. (Starving a process forever is
//!   indistinguishable from a crash to the survivors, so a plan says it
//!   with [`FaultPlan::crash_at_proc_step`].)
//!
//! [`FaultPlan::seeded`] generates randomized-but-replayable plans that
//! always leave at least one process unharmed — the bread and butter of the
//! chaos test suite (`tests/chaos.rs`).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::history::FaultKind;
use crate::sched::{Decision, Level, ScheduleView, Strategy};

/// The payload a process unwinds with when a [`Decision::Panic`] reaches
/// it: the victim's pid. It is raised with `resume_unwind`, which runs no
/// panic hook, so an injected panic never reaches stderr; the world still
/// reports it as [`Halted::Panicked`](crate::Halted::Panicked), with this
/// value's text as the message.
pub(crate) struct InjectedPanic(pub(crate) usize);

impl std::fmt::Display for InjectedPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "chaos: injected panic (pid {})", self.0)
    }
}

/// When a fault point becomes due.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTrigger {
    /// The global step/event counter reaches this value.
    AtStep(u64),
    /// The target process has taken this many of its own steps.
    AtProcStep(u64),
}

/// One crash/panic point of a plan: the decision it issues once due.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPoint {
    /// When the point becomes due ([`FaultTrigger::AtProcStep`] counts
    /// the steps of the decision's target).
    pub trigger: FaultTrigger,
    /// What to do when it fires: [`Decision::Crash`] for a clean
    /// fail-stop, [`Decision::Panic`] for a fail-stop with an unwinding
    /// cause (exercises the containment path).
    pub decision: Decision,
}

/// A window during which a process is withheld from scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallWindow {
    /// The stalled process.
    pub pid: usize,
    /// First global step of the window (inclusive).
    pub from: u64,
    /// First global step after the window (exclusive).
    pub until: u64,
}

/// A declarative, composable fault-injection plan.
///
/// Build one with the chainable constructors, or generate a randomized one
/// with [`FaultPlan::seeded`]; then wrap a strategy with
/// [`FaultedStrategy::new`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Crash/panic points.
    pub points: Vec<FaultPoint>,
    /// Stall windows.
    pub stalls: Vec<StallWindow>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a crash of `pid` at global step `step`.
    pub fn crash_at(mut self, step: u64, pid: usize) -> Self {
        self.points.push(FaultPoint {
            trigger: FaultTrigger::AtStep(step),
            decision: Decision::Crash(pid),
        });
        self
    }

    /// Adds an injected panic into `pid` at global step `step`.
    pub fn panic_at(mut self, step: u64, pid: usize) -> Self {
        self.points.push(FaultPoint {
            trigger: FaultTrigger::AtStep(step),
            decision: Decision::Panic(pid),
        });
        self
    }

    /// Adds a crash of `pid` once it has taken `own_steps` of its own steps.
    pub fn crash_at_proc_step(mut self, own_steps: u64, pid: usize) -> Self {
        self.points.push(FaultPoint {
            trigger: FaultTrigger::AtProcStep(own_steps),
            decision: Decision::Crash(pid),
        });
        self
    }

    /// Adds a stall window: `pid` is withheld from scheduling while the
    /// global step counter is in `from..until`.
    ///
    /// # Panics
    ///
    /// Panics if `from >= until`.
    pub fn stall(mut self, pid: usize, from: u64, until: u64) -> Self {
        assert!(from < until, "empty stall window {from}..{until}");
        self.stalls.push(StallWindow { pid, from, until });
        self
    }

    /// Number of processes this plan may permanently kill (crash or panic
    /// — stalls don't count).
    pub fn kill_count(&self) -> usize {
        let mut killed: Vec<usize> = self.points.iter().map(|p| p.decision.pid()).collect();
        killed.sort_unstable();
        killed.dedup();
        killed.len()
    }

    /// Generates a randomized, replayable plan for `n` processes over a run
    /// of roughly `horizon` steps.
    ///
    /// The plan kills at most `n - 1` distinct processes (the wait-free
    /// model tolerates up to `n - 1` crash faults), mixes crash and panic
    /// points at both global and per-process triggers, and usually adds a
    /// stall window. Same `(seed, n, horizon)` → same plan.
    pub fn seeded(seed: u64, n: usize, horizon: u64) -> Self {
        assert!(n >= 1, "need at least one process");
        assert!(horizon >= 4, "horizon too small to place faults");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        let max_kills = n.saturating_sub(1);
        let kills = if max_kills == 0 {
            0
        } else {
            rng.gen_range(0..=max_kills)
        };
        // Kill distinct victims so the cap is exact.
        let mut victims: Vec<usize> = (0..n).collect();
        for i in (1..victims.len()).rev() {
            let j = rng.gen_range(0..=i);
            victims.swap(i, j);
        }
        for &pid in victims.iter().take(kills) {
            let step = rng.gen_range(0..horizon);
            plan = match rng.gen_range(0..3u32) {
                0 => plan.crash_at(step, pid),
                1 => plan.panic_at(step, pid),
                _ => plan.crash_at_proc_step(step / (n as u64).max(1) + 1, pid),
            };
        }
        // Stall anyone (stalls are survivable), most of the time.
        if n >= 2 && rng.gen_bool(0.75) {
            let pid = rng.gen_range(0..n);
            let from = rng.gen_range(0..horizon / 2);
            let len = rng.gen_range(1..=horizon / 2);
            plan = plan.stall(pid, from, from + len);
        }
        plan
    }
}

/// Shared runtime state of a plan being executed against a run.
///
/// [`FaultedStrategy`] embeds one of these; it tracks which points fired, which
/// stall windows are open, per-process grant counts, and the fault notes
/// not yet drained by the driver.
#[derive(Debug, Clone)]
struct PlanEngine {
    plan: FaultPlan,
    fired: Vec<bool>,
    stall_open: Vec<bool>,
    /// Steps granted to each pid so far (grown on demand).
    per_proc: Vec<u64>,
    notes: Vec<(usize, FaultKind)>,
}

impl PlanEngine {
    fn new(plan: FaultPlan) -> Self {
        let points = plan.points.len();
        let stalls = plan.stalls.len();
        PlanEngine {
            plan,
            fired: vec![false; points],
            stall_open: vec![false; stalls],
            per_proc: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn own_steps(&self, pid: usize) -> u64 {
        self.per_proc.get(pid).copied().unwrap_or(0)
    }

    /// Updates stall-window state for `step` and returns the indices of the
    /// `pids` not stalled — or `None` when the view passes through as it
    /// is: nothing is stalled, or everything is (a stall delays, it never
    /// wedges the run).
    fn unstalled(&mut self, step: u64, pids: &[usize]) -> Option<Vec<usize>> {
        let mut stalled = Vec::new();
        for (i, w) in self.plan.stalls.iter().enumerate() {
            let inside = step >= w.from && step < w.until;
            if inside && !self.stall_open[i] {
                self.stall_open[i] = true;
                self.notes.push((w.pid, FaultKind::StallStart));
            } else if !inside && self.stall_open[i] {
                self.stall_open[i] = false;
                self.notes.push((w.pid, FaultKind::StallEnd));
            }
            if inside {
                stalled.push(w.pid);
            }
        }
        if stalled.is_empty() {
            return None;
        }
        let keep: Vec<usize> = (0..pids.len())
            .filter(|&i| !stalled.contains(&pids[i]))
            .collect();
        (!keep.is_empty()).then_some(keep)
    }

    /// Counts `decision` against its target's own steps if it is a grant,
    /// and passes it on.
    fn counted(&mut self, decision: Decision) -> Decision {
        if let Decision::Grant(pid) = decision {
            if self.per_proc.len() <= pid {
                self.per_proc.resize(pid + 1, 0);
            }
            self.per_proc[pid] += 1;
        }
        decision
    }

    /// The fault decision due at `step`, if any: the first due, unfired
    /// point whose target is in `runnable`. It is marked spent; a due one
    /// whose target is no longer schedulable is spent silently.
    fn due(&mut self, step: u64, runnable: &[usize]) -> Option<Decision> {
        for (i, p) in self.plan.points.iter().enumerate() {
            if self.fired[i] {
                continue;
            }
            let pid = p.decision.pid();
            let due = match p.trigger {
                FaultTrigger::AtStep(s) => step >= s,
                FaultTrigger::AtProcStep(s) => self.own_steps(pid) >= s,
            };
            if due {
                self.fired[i] = true;
                if runnable.contains(&pid) {
                    return Some(p.decision);
                }
                // Target already finished/crashed — the point is spent.
            }
        }
        None
    }

    fn drain_notes(&mut self) -> Vec<(usize, FaultKind)> {
        std::mem::take(&mut self.notes)
    }
}

/// Composes a [`FaultPlan`] with any [`Strategy`], at any [`Level`].
///
/// The wrapper fires due crash/panic points before consulting the inner
/// strategy, and hides stalled processes from the inner strategy's view
/// (falling back to the full view if *everything* runnable is stalled). Fault notes are surfaced through
/// [`Strategy::drain_fault_notes`], so the executor records them.
#[derive(Debug)]
pub struct FaultedStrategy<S> {
    inner: S,
    engine: PlanEngine,
}

impl<S> FaultedStrategy<S> {
    /// Wraps `inner` with `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        FaultedStrategy {
            inner,
            engine: PlanEngine::new(plan),
        }
    }
}

impl<L: Level, S: Strategy<L>> Strategy<L> for FaultedStrategy<S> {
    fn decide(&mut self, view: &ScheduleView<'_, L>) -> Decision {
        if let Some(fault) = self.engine.due(view.step, view.runnable) {
            return fault;
        }
        let decision = match self.engine.unstalled(view.step, view.runnable) {
            None => self.inner.decide(view),
            Some(keep) => L::narrowed(view, &keep, |view| self.inner.decide(view)),
        };
        self.engine.counted(decision)
    }

    fn drain_fault_notes(&mut self) -> Vec<(usize, FaultKind)> {
        let mut notes = self.engine.drain_notes();
        notes.extend(self.inner.drain_fault_notes());
        notes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Halted;
    use crate::sched::RoundRobin;
    use crate::turn::{TurnDriver, TurnProcess, TurnStep};
    use crate::world::{ProcBody, World};

    #[test]
    fn plan_builders_accumulate() {
        let plan = FaultPlan::new()
            .crash_at(10, 0)
            .panic_at(20, 1)
            .crash_at_proc_step(5, 2)
            .stall(0, 3, 9);
        assert_eq!(plan.points.len(), 3);
        assert_eq!(plan.stalls.len(), 1);
        assert_eq!(plan.kill_count(), 3);
    }

    #[test]
    #[should_panic(expected = "empty stall window")]
    fn empty_stall_window_rejected() {
        let _ = FaultPlan::new().stall(0, 5, 5);
    }

    #[test]
    fn seeded_plans_replay_and_respect_kill_cap() {
        for seed in 0..200 {
            let a = FaultPlan::seeded(seed, 3, 100);
            let b = FaultPlan::seeded(seed, 3, 100);
            assert_eq!(a, b, "seed {seed} not replayable");
            assert!(a.kill_count() <= 2, "seed {seed} kills too many");
        }
        // Different seeds differ at least once.
        assert!((0..20).any(|s| FaultPlan::seeded(s, 4, 100) != FaultPlan::seeded(s + 1, 4, 100)));
    }

    #[test]
    fn faulted_strategy_crashes_at_step() {
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
                for _ in 0..20 {
                    last = r1.read(ctx)?;
                }
                Ok(last)
            }),
        ];
        let plan = FaultPlan::new().crash_at(6, 0);
        let rep = w.run(
            bodies,
            Box::new(FaultedStrategy::new(RoundRobin::new(), plan)),
        );
        assert_eq!(rep.halted[0], Some(Halted::Crashed));
        assert_eq!(rep.outputs[1], Some(1));
        let h = rep.history.unwrap();
        assert_eq!(h.crashes().count(), 1);
    }

    /// A point on the target's own steps fires after exactly that many of
    /// them: starving a process forever is this crash.
    #[test]
    fn own_step_crash_fires_after_exactly_its_allowance() {
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
                for _ in 0..20 {
                    last = r1.read(ctx)?;
                }
                Ok(last)
            }),
        ];
        let plan = FaultPlan::new().crash_at_proc_step(3, 0);
        let rep = w.run(
            bodies,
            Box::new(FaultedStrategy::new(RoundRobin::new(), plan)),
        );
        assert_eq!(rep.halted[0], Some(Halted::Crashed));
        assert_eq!(rep.outputs[1], Some(1));
        let h = rep.history.unwrap();
        // Process 0 got exactly its allowance of own steps, then one crash.
        let own: Vec<u64> = h
            .ops()
            .filter(|&(_, pid, ..)| pid == 0)
            .map(|(step, ..)| step)
            .collect();
        assert_eq!(own.len(), 3, "allowance not enforced");
        let crashes: Vec<_> = h.crashes().collect();
        assert_eq!(crashes.len(), 1, "{crashes:?}");
        assert_eq!(crashes[0].1, 0);
        assert!(crashes[0].0 > own[2], "the crash follows the third op");
    }

    #[test]
    fn stall_window_suppresses_and_resumes_with_notes() {
        struct Counter {
            left: u32,
        }
        impl TurnProcess for Counter {
            type Msg = u32;
            type Out = u32;
            fn initial_msg(&mut self) -> u32 {
                0
            }
            fn on_scan(&mut self, _: &[u32]) -> TurnStep<u32, u32> {
                if self.left == 0 {
                    TurnStep::Decide(0)
                } else {
                    self.left -= 1;
                    TurnStep::Write(self.left)
                }
            }
        }
        let procs = vec![Counter { left: 10 }, Counter { left: 10 }];
        let plan = FaultPlan::new().stall(0, 2, 12);
        let mut adv = FaultedStrategy::new(RoundRobin::new(), plan);
        // While the window is open, pid 0 must not move (pid 1 is available
        // the whole time, so the liveness fallback never triggers): its
        // register stays frozen at whatever it held when the window opened.
        let mut frozen: Option<u32> = None;
        let report = TurnDriver::new(procs).run_observed(&mut adv, 10_000, |d| {
            let ev = d.events();
            if (3..=12).contains(&ev) {
                let cur = d.shared()[0];
                if let Some(f) = frozen {
                    assert_eq!(cur, f, "pid 0 wrote during its stall window");
                } else {
                    frozen = Some(cur);
                }
            }
        });
        assert!(report.completed);
        // Both eventually decide despite the stall.
        assert_eq!(report.outputs, vec![Some(0), Some(0)]);
        let stall_edges: Vec<_> = report
            .fault_events
            .iter()
            .filter(|&&(_, pid, _)| pid == 0)
            .collect();
        assert!(
            stall_edges
                .iter()
                .any(|&&(_, _, k)| k == FaultKind::StallStart),
            "missing StallStart: {stall_edges:?}"
        );
        assert!(
            stall_edges
                .iter()
                .any(|&&(_, _, k)| k == FaultKind::StallEnd),
            "missing StallEnd: {stall_edges:?}"
        );
    }

    #[test]
    fn stall_of_everyone_falls_back_to_full_view() {
        struct Once;
        impl TurnProcess for Once {
            type Msg = u32;
            type Out = u32;
            fn initial_msg(&mut self) -> u32 {
                0
            }
            fn on_scan(&mut self, _: &[u32]) -> TurnStep<u32, u32> {
                TurnStep::Decide(7)
            }
        }
        // Stall the only process for the whole run: the fallback must let
        // it finish anyway.
        let plan = FaultPlan::new().stall(0, 0, 1_000_000);
        let mut adv = FaultedStrategy::new(RoundRobin::new(), plan);
        let report = TurnDriver::new(vec![Once]).run(&mut adv, 1_000);
        assert!(report.completed);
        assert_eq!(report.outputs[0], Some(7));
    }

    #[test]
    fn turn_level_panic_point_fires() {
        struct Spin;
        impl TurnProcess for Spin {
            type Msg = u32;
            type Out = u32;
            fn initial_msg(&mut self) -> u32 {
                0
            }
            fn on_scan(&mut self, _: &[u32]) -> TurnStep<u32, u32> {
                TurnStep::Write(0)
            }
        }
        struct Quick;
        impl TurnProcess for Quick {
            type Msg = u32;
            type Out = u32;
            fn initial_msg(&mut self) -> u32 {
                0
            }
            fn on_scan(&mut self, _: &[u32]) -> TurnStep<u32, u32> {
                TurnStep::Decide(1)
            }
        }
        // Heterogeneous procs need a common type; use an enum.
        enum P {
            Spin(Spin),
            Quick(Quick),
        }
        impl TurnProcess for P {
            type Msg = u32;
            type Out = u32;
            fn initial_msg(&mut self) -> u32 {
                0
            }
            fn on_scan(&mut self, view: &[u32]) -> TurnStep<u32, u32> {
                match self {
                    P::Spin(p) => p.on_scan(view),
                    P::Quick(p) => p.on_scan(view),
                }
            }
        }
        let procs = vec![P::Spin(Spin), P::Quick(Quick)];
        let plan = FaultPlan::new().panic_at(4, 0);
        let mut adv = FaultedStrategy::new(RoundRobin::new(), plan);
        let report = TurnDriver::new(procs).run(&mut adv, 1_000);
        assert!(report.completed);
        assert_eq!(report.halted[0], Some(Halted::Panicked));
        assert_eq!(report.outputs[1], Some(1));
        assert!(report
            .fault_events
            .iter()
            .any(|&(_, pid, k)| pid == 0 && k == FaultKind::PanicInjected));
    }

    #[test]
    fn spent_point_does_not_refire() {
        // Crash pid 0 at step 0; once fired the point must not hit again
        // even though `step >= 0` stays true forever.
        let mut engine = PlanEngine::new(FaultPlan::new().crash_at(0, 0));
        assert!(engine.due(0, &[0, 1]).is_some());
        assert!(engine.due(5, &[0, 1]).is_none());
    }

    #[test]
    fn point_on_finished_target_is_skipped() {
        let mut engine = PlanEngine::new(FaultPlan::new().crash_at(3, 0));
        // Due, but pid 0 no longer runnable: spent silently.
        assert!(engine.due(10, &[1, 2]).is_none());
        assert!(engine.due(11, &[0, 1, 2]).is_none());
    }
}
