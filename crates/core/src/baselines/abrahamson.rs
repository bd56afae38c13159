//! The Abrahamson \[A88\] baseline: independent local coins, exponential
//! expected time.
//!
//! Same leader/adopt/⊥/decide skeleton as its siblings, but a demoted
//! process flips its **own** coin and advances — no shared coin. Progress
//! then requires the leaders' independent flips to spontaneously coincide,
//! which takes expected `2^Θ(n)` rounds against an adversary (and visibly
//! exponential rounds even under a fair scheduler). This is the
//! running-time baseline for experiment E5; like \[A88\] it keeps its
//! rounds unbounded (we compare time here, not space — \[A88\]'s
//! bounded-space construction is the concern of the main protocol).
//!
//! The ⊥ demotion step is load-bearing, not decoration: an earlier version
//! of this core re-randomized in a single step (disagree → write the new
//! coin value at round `r+1` directly), and the protocol arena's
//! register-level schedules found the agreement violation that permits.
//! Two tied leaders flip opposite coins from the same disagreeing view;
//! one lands its write and decides while the other's conflicting write is
//! still pending, after which the survivor is the sole leader, out-climbs
//! the halted decider by `k`, and decides the opposite value. Demoting to
//! ⊥ *in place* first (same round, no value) makes the wavering visible:
//! any would-be decider sees a ⊥ neighbour within `k` rounds and must
//! wait, and a ⊥ process whose next scan sees a valued max-round leader
//! adopts that value instead of flipping. The exhaustive n = 2 model
//! check below enumerates every schedule, flip, and crash pattern of this
//! structure within a state budget.

use bprc_coin::flip::{FlipSource, Flips};
use bprc_sim::turn::{TurnProbe, TurnProcess, TurnStep};

use crate::state::Pref;

/// Register contents of one local-coin process.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LcState {
    /// Current preference. ⊥ marks a process that saw the leaders disagree
    /// and will flip its local coin on its next scan (unless a valued
    /// leader set has formed by then).
    pub pref: Pref,
    /// Current round.
    pub round: u64,
}

/// One process of the local-coin (Abrahamson-style) protocol.
#[derive(Debug, Clone)]
pub struct LocalCoinCore {
    n: usize,
    me: usize,
    k: u64,
    state: LcState,
    flips: Flips,
    rounds_advanced: u64,
    coin_flips: u64,
}

impl LocalCoinCore {
    /// Creates the process with initial value `input`.
    pub fn new(n: usize, pid: usize, input: bool, seed: u64) -> Self {
        Self::with_flips(n, pid, input, Flips::fair(seed))
    }

    /// Creates the process with an explicit flip source (exhaustive model
    /// checking drives a [`Flips::queue`] source through every outcome).
    pub fn with_flips(n: usize, pid: usize, input: bool, flips: Flips) -> Self {
        assert!(pid < n, "pid out of range");
        LocalCoinCore {
            n,
            me: pid,
            k: 2,
            state: LcState {
                pref: Pref::Val(input),
                round: 1,
            },
            flips,
            rounds_advanced: 1,
            coin_flips: 0,
        }
    }

    /// Rounds advanced so far.
    pub fn rounds(&self) -> u64 {
        self.rounds_advanced
    }

    /// The flip source (for the model checker).
    pub fn flips(&self) -> &Flips {
        &self.flips
    }

    /// Mutable flip source (for the model checker).
    pub fn flips_mut(&mut self) -> &mut Flips {
        &mut self.flips
    }
}

impl TurnProcess for LocalCoinCore {
    type Msg = LcState;
    type Out = bool;

    fn initial_msg(&mut self) -> LcState {
        self.state.clone()
    }

    fn probe(&self) -> TurnProbe {
        TurnProbe {
            round: Some(self.state.round),
            coin_flips: self.coin_flips,
            register_bits: super::pref_round_bits(self.state.round),
        }
    }

    fn on_scan(&mut self, view: &[LcState]) -> TurnStep<LcState, bool> {
        let max_round = view.iter().map(|s| s.round).max().unwrap_or(0);
        debug_assert_eq!(&view[self.me], &self.state);

        if let Pref::Val(v) = self.state.pref {
            if self.state.round == max_round {
                let all_trail = view.iter().enumerate().all(|(j, s)| {
                    j == self.me
                        || s.pref.agrees_with(&self.state.pref)
                        || s.round + self.k <= self.state.round
                });
                if all_trail {
                    return TurnStep::Decide(v);
                }
            }
        }

        let leaders: Vec<usize> = (0..self.n)
            .filter(|&j| view[j].round == max_round)
            .collect();
        let mut agreement: Option<bool> = None;
        let mut agree = true;
        for &l in &leaders {
            match view[l].pref.value() {
                None => agree = false,
                Some(v) => match agreement {
                    None => agreement = Some(v),
                    Some(c) if c != v => agree = false,
                    _ => {}
                },
            }
        }
        if agree {
            if let Some(v) = agreement {
                self.state.pref = Pref::Val(v);
                self.state.round += 1;
                self.rounds_advanced += 1;
                return TurnStep::Write(self.state.clone());
            }
        }

        // Leaders disagree: demote in place first so the wavering is
        // visible to any would-be decider (see the module doc for the
        // agreement violation the one-step version permits).
        if self.state.pref != Pref::Bottom {
            self.state.pref = Pref::Bottom;
            return TurnStep::Write(self.state.clone());
        }

        // Already demoted and still no agreed leader value: flip the LOCAL
        // coin and advance. This is the whole difference from the
        // shared-coin protocols.
        self.coin_flips += 1;
        self.state.pref = Pref::Val(self.flips.flip());
        self.state.round += 1;
        self.rounds_advanced += 1;
        TurnStep::Write(self.state.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bprc_sim::sched::RandomStrategy;
    use bprc_sim::turn::TurnDriver;

    fn run(n: usize, inputs: &[bool], seed: u64, budget: u64) -> bprc_sim::turn::TurnReport<bool> {
        let procs: Vec<LocalCoinCore> = (0..n)
            .map(|p| LocalCoinCore::new(n, p, inputs[p], seed * 13 + p as u64))
            .collect();
        TurnDriver::new(procs).run(&mut RandomStrategy::new(seed), budget)
    }

    #[test]
    fn validity_unanimous() {
        for v in [false, true] {
            let r = run(3, &[v; 3], 2, 100_000);
            assert!(r.completed);
            assert!(r.outputs.iter().all(|o| *o == Some(v)));
        }
    }

    #[test]
    fn agreement_small_n() {
        for seed in 0..10 {
            let r = run(3, &[true, false, true], seed, 2_000_000);
            assert!(r.completed, "seed {seed}: tiny n should still finish");
            assert_eq!(r.distinct_outputs().len(), 1, "seed {seed}");
        }
    }

    /// Depth-bounded exhaustive model check at n = 2 with mixed inputs and
    /// crashes. Rounds are unbounded here, so the full state space is
    /// infinite; bounding the *depth* instead makes the search exhaust
    /// every schedule, flip pattern, and crash pattern of the first 72
    /// events. The agreement violation the one-step re-randomization
    /// permitted (see the module doc) sits ~12 events deep at n = 2 — two
    /// tied processes coin from the same disagreeing view, one decides on
    /// the other's stale agreeing register while the conflicting coin
    /// write is pending — so reverting the ⊥ demotion makes this test fail
    /// with a concrete counterexample trace.
    #[test]
    fn modelcheck_n2_mixed_with_crashes() {
        use crate::modelcheck::{check, McConfig};
        use bprc_coin::flip::Flips;

        let procs: Vec<LocalCoinCore> = (0..2)
            .map(|p| LocalCoinCore::with_flips(2, p, p == 0, Flips::queue()))
            .collect();
        let shared = vec![
            LcState {
                pref: Pref::Bottom,
                round: 0,
            };
            2
        ];
        let cfg = McConfig {
            max_states: 2_000_000,
            max_depth: 72,
            with_crashes: true,
        };
        let report = check(procs, shared, |v| [true, false].contains(v), cfg);
        assert!(
            report.violation.is_none(),
            "local-coin baseline must stay safe: {:?}",
            report.violation
        );
        assert!(
            report.states >= 4_000,
            "expected substantial coverage, saw {} states",
            report.states
        );
        assert!(
            report.decisions_seen.len() == 2,
            "both decision values reachable from mixed inputs"
        );
    }
}
