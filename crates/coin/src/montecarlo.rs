//! Exact single-machine simulation of the shared coin at register-operation
//! granularity, with pluggable adversaries — the workhorse behind
//! experiments E1–E3.
//!
//! Each process executes the paper's loop:
//!
//! ```text
//! loop {
//!   v := coin_value(ē)        // own-overflow check, then n−1 counter reads
//!   if v ≠ undecided: return v
//!   walk_step                  // one write of the own counter
//! }
//! ```
//!
//! Every *shared-memory operation* (one counter read, or the own-counter
//! write) is a separately schedulable event, so the adversary can stall a
//! process in the middle of its collect — the interleaving that creates the
//! coin's disagreement probability in the first place. The own-overflow
//! check is local and costs no event: it is the same schedule, event for
//! event, that [`crate::shared::SharedCoin`] runs over real registers.
//!
//! The adversary is the scheduler's own [`Strategy`] at the [`Walk`] level:
//! it is shown a [`WalkView`] (every counter and phase) and grants the
//! process whose next event runs. The level-free policies — round-robin,
//! seeded random, PCT, fault plans — are the same values that drive a
//! lockstep world, drawing the same stream; [`StaleCollectAdversary`] reads
//! the walk and drives this level only.

use bprc_sim::sched::{Decision, Level, ScheduleView, Strategy};

use crate::flip::Flips;
use crate::params::CoinParams;
use crate::value::{coin_value_total, walk_step, CoinValue};

/// Where a process is in its check/step cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalkPhase {
    /// Mid-collect: `read` foreign counters read so far, summing to `sum`.
    Collect {
        /// How many foreign counters have been read.
        read: usize,
        /// Sum of the counters read so far.
        sum: i64,
    },
    /// About to perform a walk step (write the own counter).
    Step,
    /// Decided.
    Done(CoinValue),
}

/// The walk level: the standalone coin of [`run_walk`], one counter read
/// or counter write per step.
#[derive(Debug)]
pub enum Walk {}

/// The walk level's part of a [`WalkView`].
#[derive(Debug)]
pub struct WalkState<'a> {
    /// Current counter values (index = pid).
    pub counters: &'a [i64],
    /// Current phase of every process.
    pub phases: &'a [WalkPhase],
}

impl WalkState<'_> {
    /// The current walk value `Σ c_i`.
    pub fn total(&self) -> i64 {
        self.counters.iter().sum()
    }
}

impl Level for Walk {
    type State<'a> = WalkState<'a>;

    fn narrowed<R>(view: &WalkView<'_>, keep: &[usize], f: impl FnOnce(&WalkView<'_>) -> R) -> R {
        let runnable: Vec<usize> = keep.iter().map(|&i| view.runnable[i]).collect();
        f(&ScheduleView {
            step: view.step,
            runnable: &runnable,
            state: WalkState { ..view.state },
        })
    }
}

/// What a walk-level adversary sees: `step` counts the events applied so
/// far and `runnable` the undecided pids.
pub type WalkView<'a> = ScheduleView<'a, Walk>;

/// The stale-collect attack (needs `n ≥ 3` to bite):
///
/// 1. **Drive**: run everyone but the victim until the walk value climbs
///    near `+b·n`;
/// 2. **Collect**: let the victim read all but one foreign counter (its
///    partial sum is now large and stale);
/// 3. **Freeze**: run the others; if the walk happens to drift down and they
///    decide *tails*, release the victim — its stale prefix plus one fresh
///    read can still exceed `+b·n`, deciding *heads*. Disagreement.
///
/// The success probability of step 3 is what Lemma 3.1 bounds (`O(1/b)`);
/// measuring disagreement under this adversary reproduces that shape.
#[derive(Debug, Clone)]
pub struct StaleCollectAdversary {
    victim: usize,
    rr: usize,
}

impl StaleCollectAdversary {
    /// Creates the adversary with the given victim pid.
    pub fn new(victim: usize) -> Self {
        StaleCollectAdversary { victim, rr: 0 }
    }

    fn pick_other(&mut self, view: &WalkView<'_>) -> usize {
        let others: Vec<usize> = view
            .runnable
            .iter()
            .copied()
            .filter(|&p| p != self.victim)
            .collect();
        if others.is_empty() {
            return self.victim;
        }
        self.rr = (self.rr + 1) % others.len();
        others[self.rr]
    }
}

impl Strategy<Walk> for StaleCollectAdversary {
    fn decide(&mut self, view: &WalkView<'_>) -> Decision {
        let n = view.counters.len();
        let victim_moves = view.runnable.contains(&self.victim)
            && match &view.phases[self.victim] {
                // One foreign read remaining: freeze the victim (its partial
                // sum is now stale) and run the others.
                WalkPhase::Collect { read, .. } if *read + 2 == n => false,
                // Advance the victim only while the walk is comfortably
                // positive (so its stale prefix is large); otherwise drive
                // the others.
                _ => view.total() >= n as i64,
            };
        Decision::Grant(if victim_moves {
            self.victim
        } else {
            self.pick_other(view)
        })
    }
}

/// Result of simulating one coin.
#[derive(Debug, Clone)]
pub struct WalkOutcome {
    /// Per-process decision (None if the event budget ran out first).
    pub decisions: Vec<Option<CoinValue>>,
    /// Shared-memory events applied.
    pub events: u64,
    /// Walk steps (counter writes) applied — the quantity Lemma 3.2 bounds.
    pub walk_steps: u64,
    /// Did any counter enter the overflow zone?
    pub overflowed: bool,
    /// Did both Heads and Tails get decided?
    pub disagreed: bool,
}

/// Simulates one shared coin to completion (or `max_events`).
///
/// `flips` supplies each process's local coin; the adversary schedules.
///
/// # Panics
///
/// Panics if `flips.len() != params.n()`, or if the adversary decides
/// anything but a grant of an undecided process: the walk has no crashes,
/// injected panics or store buffers, and the panic names the decision.
pub fn run_walk(
    params: &CoinParams,
    mut flips: Vec<Flips>,
    adversary: &mut dyn Strategy<Walk>,
    max_events: u64,
) -> WalkOutcome {
    let n = params.n();
    assert_eq!(flips.len(), n, "one flip source per process");
    let mut counters = vec![0i64; n];
    let mut phases: Vec<WalkPhase> = vec![WalkPhase::Collect { read: 0, sum: 0 }; n];
    let mut events = 0u64;
    let mut walk_steps = 0u64;
    let mut overflowed = false;

    loop {
        let active: Vec<usize> = (0..n)
            .filter(|&p| !matches!(phases[p], WalkPhase::Done(_)))
            .collect();
        if active.is_empty() || events >= max_events {
            break;
        }
        let decision = adversary.decide(&WalkView {
            step: events,
            runnable: &active,
            state: WalkState {
                counters: &counters,
                phases: &phases,
            },
        });
        let pid = match decision {
            Decision::Grant(pid) if active.contains(&pid) => pid,
            _ => panic!(
                "illegal adversary decision {decision:?} at event {events}: \
                 the walk grants undecided processes only (undecided = {active:?})"
            ),
        };
        events += 1;
        match phases[pid].clone() {
            WalkPhase::Collect { read, sum } => {
                // Read the next foreign counter (skipping self).
                let foreign: Vec<usize> = (0..n).filter(|&j| j != pid).collect();
                if let Some(&j) = foreign.get(read) {
                    let sum = sum + counters[j];
                    let read = read + 1;
                    if read == foreign.len() {
                        let total = sum + counters[pid];
                        match coin_value_total(params, counters[pid], total) {
                            CoinValue::Undecided => phases[pid] = WalkPhase::Step,
                            v => phases[pid] = WalkPhase::Done(v),
                        }
                    } else {
                        phases[pid] = WalkPhase::Collect { read, sum };
                    }
                } else {
                    // n == 1: no foreign counters; evaluate immediately.
                    let total = counters[pid];
                    match coin_value_total(params, counters[pid], total) {
                        CoinValue::Undecided => phases[pid] = WalkPhase::Step,
                        v => phases[pid] = WalkPhase::Done(v),
                    }
                }
            }
            WalkPhase::Step => {
                let heads = flips[pid].flip();
                counters[pid] = walk_step(params, counters[pid], heads);
                walk_steps += 1;
                // The own-overflow check that opens the next `coin_value`
                // costs no shared op, so an overflowing step decides heads
                // within its own event.
                phases[pid] = if params.overflowed(counters[pid]) {
                    overflowed = true;
                    WalkPhase::Done(CoinValue::Heads)
                } else {
                    WalkPhase::Collect { read: 0, sum: 0 }
                };
            }
            WalkPhase::Done(_) => unreachable!("inactive process scheduled"),
        }
    }

    let decisions: Vec<Option<CoinValue>> = phases
        .iter()
        .map(|p| match p {
            WalkPhase::Done(v) => Some(*v),
            _ => None,
        })
        .collect();
    let heads = decisions
        .iter()
        .any(|d| matches!(d, Some(CoinValue::Heads)));
    let tails = decisions
        .iter()
        .any(|d| matches!(d, Some(CoinValue::Tails)));
    WalkOutcome {
        decisions,
        events,
        walk_steps,
        overflowed,
        disagreed: heads && tails,
    }
}

/// Aggregates of many independent coins.
#[derive(Debug, Clone, Default)]
pub struct TrialStats {
    /// Completed trials.
    pub trials: u64,
    /// Trials where processes disagreed.
    pub disagreements: u64,
    /// Trials where some counter overflowed.
    pub overflows: u64,
    /// Trials that exhausted the event budget.
    pub timeouts: u64,
    /// Trials where all deciders said heads.
    pub all_heads: u64,
    /// Mean walk steps per trial.
    pub mean_walk_steps: f64,
    /// Mean shared-memory events per trial.
    pub mean_events: f64,
}

impl TrialStats {
    /// Empirical disagreement probability.
    pub fn disagreement_rate(&self) -> f64 {
        self.disagreements as f64 / self.trials.max(1) as f64
    }

    /// Empirical overflow probability.
    pub fn overflow_rate(&self) -> f64 {
        self.overflows as f64 / self.trials.max(1) as f64
    }

    /// Empirical probability that the common outcome was heads (over trials
    /// that agreed on heads).
    pub fn heads_rate(&self) -> f64 {
        self.all_heads as f64 / self.trials.max(1) as f64
    }
}

/// Runs `trials` independent coins with fair local flips.
///
/// `mk_adversary` builds a fresh adversary per trial (seeded by the trial
/// index so runs are reproducible).
pub fn run_trials(
    params: &CoinParams,
    trials: u64,
    seed: u64,
    max_events_per_trial: u64,
    mut mk_adversary: impl FnMut(u64) -> Box<dyn Strategy<Walk>>,
) -> TrialStats {
    let mut stats = TrialStats {
        trials,
        ..Default::default()
    };
    let mut total_walk = 0f64;
    let mut total_events = 0f64;
    for t in 0..trials {
        let flips: Vec<Flips> = (0..params.n() as u64)
            .map(|p| Flips::fair(bprc_sim::rng::derive_seed(seed, t * params.n() as u64 + p)))
            .collect();
        let mut adversary = mk_adversary(t);
        let out = run_walk(params, flips, adversary.as_mut(), max_events_per_trial);
        if out.disagreed {
            stats.disagreements += 1;
        }
        if out.overflowed {
            stats.overflows += 1;
        }
        if out.decisions.iter().any(|d| d.is_none()) {
            stats.timeouts += 1;
        }
        if out
            .decisions
            .iter()
            .all(|d| matches!(d, Some(CoinValue::Heads)))
        {
            stats.all_heads += 1;
        }
        total_walk += out.walk_steps as f64;
        total_events += out.events as f64;
    }
    stats.mean_walk_steps = total_walk / trials.max(1) as f64;
    stats.mean_events = total_events / trials.max(1) as f64;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use bprc_sim::sched::{FnStrategy, RandomStrategy, RoundRobin};

    fn fair(n: u64, seed: u64) -> Vec<Flips> {
        (0..n).map(|p| Flips::fair(seed + p)).collect()
    }

    #[test]
    fn single_process_decides() {
        let p = CoinParams::new(1, 2, 100);
        let out = run_walk(&p, fair(1, 7), &mut RoundRobin::new(), 1_000_000);
        assert!(out.decisions[0].is_some());
        assert!(!out.disagreed);
    }

    /// The walk has no crashes, so a crash decision is rejected and the
    /// panic names it.
    #[test]
    #[should_panic(expected = "illegal adversary decision Crash(1) at event 0")]
    fn crash_decision_is_rejected() {
        let p = CoinParams::new(2, 1, 100);
        let mut crasher = FnStrategy::new(|_: &WalkView<'_>| Decision::Crash(1));
        run_walk(&p, fair(2, 7), &mut crasher, 1_000);
    }

    #[test]
    fn all_heads_under_biased_flips() {
        let p = CoinParams::new(3, 2, 100);
        let flips: Vec<Flips> = (0..3).map(|i| Flips::biased(i, 1.0)).collect();
        let out = run_walk(&p, flips, &mut RoundRobin::new(), 1_000_000);
        assert!(out
            .decisions
            .iter()
            .all(|d| matches!(d, Some(CoinValue::Heads))));
        assert!(!out.disagreed);
    }

    #[test]
    fn all_tails_under_antibiased_flips() {
        let p = CoinParams::new(3, 2, 100);
        let flips: Vec<Flips> = (0..3).map(|i| Flips::biased(i, 0.0)).collect();
        let out = run_walk(&p, flips, &mut RoundRobin::new(), 1_000_000);
        assert!(out
            .decisions
            .iter()
            .all(|d| matches!(d, Some(CoinValue::Tails))));
    }

    #[test]
    fn tiny_counter_bound_forces_overflow_heads() {
        // m = 1 with barrier 4: a process's counter saturates long before the
        // walk can reach the barrier going down... with all-tails flips the
        // counters all sink to -(m+1) = -2 and everyone overflows to Heads.
        let p = CoinParams::new(2, 2, 1);
        let flips = vec![Flips::scripted(vec![false]); 2];
        let out = run_walk(&p, flips, &mut RoundRobin::new(), 100_000);
        assert!(out.overflowed);
        assert!(out
            .decisions
            .iter()
            .all(|d| matches!(d, Some(CoinValue::Heads))));
    }

    /// Every counter the adversary is ever shown lies within `±(m+1)`.
    /// The barrier (12) lies beyond `n·(m+1)` (9), so the walk can never
    /// reach it: each process ends only by driving its own counter to
    /// `±(m+1)` and overflowing to heads, so the longer prefixes press
    /// counters against the cap. It is the overflow rule that holds them
    /// there — a counter that reaches `±(m+1)` decides within the same
    /// event and never steps again — so `walk_step`'s clamp is a second
    /// line that no run of the walk reaches.
    #[test]
    fn counters_never_exceed_cap() {
        let tight = CoinParams::new(3, 4, 2);
        let cap = tight.counter_cap();
        for max in [10, 50, 200, 1000] {
            let mut random = RandomStrategy::new(5);
            let mut widest = 0;
            let mut checked = FnStrategy::new(|view: &WalkView<'_>| {
                assert!(view.step < max, "asked past the budget at {}", view.step);
                for &c in view.counters {
                    assert!(
                        c.abs() <= cap,
                        "counter {c} beyond ±{cap} at event {}",
                        view.step
                    );
                    widest = widest.max(c.abs());
                }
                random.decide(view)
            });
            let out = run_walk(&tight, fair(3, 99), &mut checked, max);
            assert!(
                out.events <= max,
                "{} events in a prefix of {max}",
                out.events
            );
            if max == 1000 {
                assert_eq!(widest, cap, "no counter reached the cap");
                assert!(out.overflowed);
                assert!(out
                    .decisions
                    .iter()
                    .all(|d| matches!(d, Some(CoinValue::Heads))));
            }
        }
        let p = CoinParams::new(3, 1, 4);
        let flips = vec![Flips::biased(0, 1.0); 3];
        let out = run_walk(&p, flips, &mut RoundRobin::new(), 10_000);
        assert!(out.events < 10_000, "should decide quickly");
    }

    #[test]
    fn trials_are_reproducible() {
        let p = CoinParams::new(3, 1, 50);
        let s1 = run_trials(&p, 20, 11, 100_000, |t| Box::new(RandomStrategy::new(t)));
        let s2 = run_trials(&p, 20, 11, 100_000, |t| Box::new(RandomStrategy::new(t)));
        assert_eq!(s1.disagreements, s2.disagreements);
        assert_eq!(s1.mean_walk_steps, s2.mean_walk_steps);
    }

    #[test]
    fn mean_steps_scale_with_barrier() {
        // Lemma 3.2 shape: steps grow with b (quadratically). Just check
        // monotonicity with loose trials.
        let small = run_trials(&CoinParams::new(2, 1, 10_000), 30, 3, 10_000_000, |t| {
            Box::new(RandomStrategy::new(t))
        });
        let large = run_trials(&CoinParams::new(2, 4, 10_000), 30, 3, 10_000_000, |t| {
            Box::new(RandomStrategy::new(t))
        });
        assert!(
            large.mean_walk_steps > small.mean_walk_steps,
            "b=4 walk ({}) should out-step b=1 walk ({})",
            large.mean_walk_steps,
            small.mean_walk_steps
        );
        assert_eq!(small.timeouts, 0);
    }

    #[test]
    fn stale_collect_adversary_runs_to_completion() {
        let p = CoinParams::new(3, 1, 1_000);
        let stats = run_trials(&p, 50, 17, 1_000_000, |_| {
            Box::new(StaleCollectAdversary::new(0))
        });
        assert_eq!(stats.timeouts, 0, "adversary must not deadlock the coin");
        // Disagreement is possible but not guaranteed; rate must be a
        // probability.
        assert!(stats.disagreement_rate() <= 1.0);
    }

    #[test]
    fn round_robin_agreement_is_overwhelming_with_big_b() {
        let p = CoinParams::new(3, 8, 1_000_000);
        let stats = run_trials(&p, 25, 23, 50_000_000, |_| Box::new(RoundRobin::new()));
        assert_eq!(stats.timeouts, 0);
        assert_eq!(
            stats.disagreements, 0,
            "fair schedule + big b should agree in 25 trials"
        );
    }
}
