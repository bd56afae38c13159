//! The perfect-shared-coin oracle baseline (\[CIL87\]-style).
//!
//! Chor, Israeli and Li's algorithm assumed a powerful *atomic coin flip*
//! operation; this baseline models that assumption directly: the "shared
//! coin" of round `r` is a deterministic pseudorandom function of `(seed,
//! r)` that every process evaluates identically, for free. It decides in a
//! constant expected number of rounds and gives the experiments a floor to
//! compare the realizable coins against.

use bprc_sim::rng::derive_seed;
use bprc_sim::turn::{TurnProbe, TurnProcess, TurnStep};

use crate::state::Pref;

/// Register contents of one oracle-coin process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleState {
    /// Current preference.
    pub pref: Pref,
    /// Current round.
    pub round: u64,
}

/// One process of the oracle-coin protocol.
#[derive(Debug)]
pub struct OracleCore {
    n: usize,
    me: usize,
    k: u64,
    shared_seed: u64,
    state: OracleState,
    rounds_advanced: u64,
}

impl OracleCore {
    /// Creates the process. `shared_seed` must be the same for all
    /// processes of the instance — it *is* the oracle.
    pub fn new(n: usize, pid: usize, input: bool, shared_seed: u64) -> Self {
        assert!(pid < n, "pid out of range");
        OracleCore {
            n,
            me: pid,
            k: 2,
            shared_seed,
            state: OracleState {
                pref: Pref::Val(input),
                round: 1,
            },
            rounds_advanced: 1,
        }
    }

    /// Rounds advanced so far.
    pub fn rounds(&self) -> u64 {
        self.rounds_advanced
    }

    /// The atomic shared coin of round `r`: same bit for every process.
    fn oracle(&self, r: u64) -> bool {
        derive_seed(self.shared_seed, r) & 1 == 1
    }
}

impl TurnProcess for OracleCore {
    type Msg = OracleState;
    type Out = bool;

    fn initial_msg(&mut self) -> OracleState {
        self.state.clone()
    }

    fn probe(&self) -> TurnProbe {
        TurnProbe {
            // The oracle coin is an atomic primitive evaluated for free:
            // no local flips to report, just round progress.
            round: Some(self.state.round),
            coin_flips: 0,
            register_bits: super::pref_round_bits(self.state.round),
        }
    }

    fn on_scan(&mut self, view: &[OracleState]) -> TurnStep<OracleState, bool> {
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
        // visible. The shared coin makes divergent *coin* writes
        // impossible, but a pending adopt write can still contradict a
        // concurrent decision unless the decider is forced to see the
        // wavering — same discipline as the siblings (the abrahamson
        // module doc has the concrete schedule).
        if self.state.pref != Pref::Bottom {
            self.state.pref = Pref::Bottom;
            return TurnStep::Write(self.state.clone());
        }

        // Already demoted: consult the atomic shared coin for the next
        // round — identical for everyone, so disagreement dissolves
        // immediately.
        self.state.pref = Pref::Val(self.oracle(self.state.round + 1));
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

    fn run(n: usize, inputs: &[bool], seed: u64) -> bprc_sim::turn::TurnReport<bool> {
        let procs: Vec<OracleCore> = (0..n)
            .map(|p| OracleCore::new(n, p, inputs[p], seed))
            .collect();
        TurnDriver::new(procs).run(&mut RandomStrategy::new(seed ^ 0xABCD), 500_000)
    }

    #[test]
    fn validity_unanimous() {
        for v in [false, true] {
            let r = run(4, &[v; 4], 3);
            assert!(r.completed);
            assert!(r.outputs.iter().all(|o| *o == Some(v)));
        }
    }

    #[test]
    fn agreement_and_fast_termination() {
        for seed in 0..20 {
            let r = run(5, &[true, false, true, false, true], seed);
            assert!(r.completed, "seed {seed}");
            assert_eq!(r.distinct_outputs().len(), 1, "seed {seed}");
            assert!(
                r.events < 100_000,
                "seed {seed}: oracle coin should finish fast, took {}",
                r.events
            );
        }
    }

    #[test]
    fn oracle_is_shared() {
        let a = OracleCore::new(2, 0, true, 9);
        let b = OracleCore::new(2, 1, false, 9);
        for r in 0..64 {
            assert_eq!(a.oracle(r), b.oracle(r));
        }
    }
}
