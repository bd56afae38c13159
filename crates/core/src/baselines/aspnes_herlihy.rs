//! The Aspnes–Herlihy \[AH88\] baseline: polynomial expected time, unbounded
//! memory.
//!
//! Structurally identical to the bounded protocol — leaders, value
//! adoption, ⊥, per-round random-walk shared coin — but represented the
//! unbounded way: an integer round number that only grows, and a coin
//! *strip* in which every round ever flipped keeps its counter forever.
//! This is the algorithm the paper "compresses"; the experiments compare
//! its register growth (E6) and its running time (E5) against the bounded
//! protocol.

use std::collections::BTreeMap;

use bprc_coin::flip::{FairFlips, FlipSource};
use bprc_coin::value::{coin_value_total, CoinValue};
use bprc_coin::CoinParams;
use bprc_sim::turn::{TurnProbe, TurnProcess, TurnStep};

use crate::state::Pref;

/// The (unbounded) register contents of one AH88 process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AhState {
    /// Current preference.
    pub pref: Pref,
    /// Current round — grows without bound.
    pub round: u64,
    /// This process's contribution to every round's shared coin, kept
    /// forever (`round ↦ counter`). The unbounded strip.
    pub coins: BTreeMap<u64, i64>,
}

impl AhState {
    /// Bits this register needs: the round counter plus one entry per coin
    /// ever touched (round index + counter). This is what grows.
    pub fn bits(&self) -> u64 {
        let round_bits = 64 - self.round.leading_zeros() as u64 + 1;
        let per_entry = round_bits + 64; // round index + unbounded counter
        2 + round_bits + self.coins.len() as u64 * per_entry
    }
}

/// One AH88 process as a scan/write state machine.
#[derive(Debug)]
pub struct AhCore {
    n: usize,
    me: usize,
    k: u64,
    coin: CoinParams,
    state: AhState,
    flips: FairFlips,
    rounds_advanced: u64,
    coin_flips: u64,
}

impl AhCore {
    /// Creates the process with initial value `input`; `b` is the coin
    /// barrier multiplier (counters are unbounded, so there is no `m`).
    pub fn new(n: usize, pid: usize, input: bool, seed: u64, b: u32) -> Self {
        assert!(pid < n, "pid out of range");
        // Counters are conceptually unbounded: use an effectively-infinite m.
        let coin = CoinParams::new(n, b, i64::MAX / 4);
        AhCore {
            n,
            me: pid,
            k: 2,
            coin,
            state: AhState {
                pref: Pref::Val(input),
                round: 1,
                coins: BTreeMap::new(),
            },
            flips: FairFlips::new(seed),
            rounds_advanced: 1,
            coin_flips: 0,
        }
    }

    /// Rounds advanced so far.
    pub fn rounds(&self) -> u64 {
        self.rounds_advanced
    }

    /// Current register width in bits.
    pub fn register_bits(&self) -> u64 {
        self.state.bits()
    }

    fn next_coin_value(&self, view: &[AhState]) -> CoinValue {
        let target = self.state.round + 1;
        let own = *self.state.coins.get(&target).unwrap_or(&0);
        let mut total = own;
        for (j, s) in view.iter().enumerate() {
            if j != self.me {
                total += *s.coins.get(&target).unwrap_or(&0);
            }
        }
        coin_value_total(&self.coin, own, total)
    }
}

impl TurnProcess for AhCore {
    type Msg = AhState;
    type Out = bool;

    fn initial_msg(&mut self) -> AhState {
        self.state.clone()
    }

    fn probe(&self) -> TurnProbe {
        TurnProbe {
            round: Some(self.state.round),
            coin_flips: self.coin_flips,
            register_bits: self.state.bits(),
        }
    }

    fn on_scan(&mut self, view: &[AhState]) -> TurnStep<AhState, bool> {
        let max_round = view.iter().map(|s| s.round).max().unwrap_or(0);
        let leaders: Vec<usize> = (0..self.n)
            .filter(|&j| view[j].round == max_round)
            .collect();
        let my = &view[self.me];
        debug_assert_eq!(my, &self.state);

        // Decide: I'm a leader and everyone disagreeing trails by >= K.
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

        // Leaders agree -> adopt and advance.
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

        // Leaders disagree: demote.
        if self.state.pref != Pref::Bottom {
            self.state.pref = Pref::Bottom;
            return TurnStep::Write(self.state.clone());
        }

        // Shared coin of round r+1.
        match self.next_coin_value(view) {
            CoinValue::Undecided => {
                let target = self.state.round + 1;
                let delta = if self.flips.flip() { 1 } else { -1 };
                self.coin_flips += 1;
                *self.state.coins.entry(target).or_insert(0) += delta;
                TurnStep::Write(self.state.clone())
            }
            v => {
                self.state.pref = Pref::Val(v.as_bool());
                self.state.round += 1;
                self.rounds_advanced += 1;
                TurnStep::Write(self.state.clone())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bprc_sim::sched::RandomStrategy;
    use bprc_sim::turn::TurnDriver;

    fn run(n: usize, inputs: &[bool], seed: u64) -> bprc_sim::turn::TurnReport<bool> {
        let procs: Vec<AhCore> = (0..n)
            .map(|p| AhCore::new(n, p, inputs[p], seed * 11 + p as u64, 3))
            .collect();
        TurnDriver::new(procs).run(&mut RandomStrategy::new(seed), 3_000_000)
    }

    #[test]
    fn validity_unanimous() {
        for v in [false, true] {
            let r = run(3, &[v; 3], 1);
            assert!(r.completed);
            assert!(r.outputs.iter().all(|o| *o == Some(v)));
        }
    }

    #[test]
    fn agreement_mixed() {
        for seed in 0..10 {
            let r = run(4, &[true, false, true, false], seed);
            assert!(r.completed, "seed {seed}");
            assert_eq!(r.distinct_outputs().len(), 1, "seed {seed}");
        }
    }

    #[test]
    fn registers_grow_when_coins_are_flipped() {
        let mut s = AhState {
            pref: Pref::Bottom,
            round: 5,
            coins: BTreeMap::new(),
        };
        let b0 = s.bits();
        s.coins.insert(6, 1);
        s.coins.insert(7, -2);
        assert!(s.bits() > b0);
    }
}
