//! The round-numbered protocol body the three register-only baselines
//! share, with the coin as the one step that differs.
//!
//! Every process publishes a preference and an integer round that only
//! grows. On each scan it:
//!
//! 1. **decides** its value if it leads and every disagreeing process
//!    trails it by at least [`K`] rounds;
//! 2. **adopts** the leaders' common value and advances, if the processes
//!    at the maximum round all hold one value;
//! 3. **demotes** itself to ⊥ in place, if they do not;
//! 4. consults its **coin** once demoted — [`RoundCore::aspnes_herlihy`]'s
//!    shared random walk, [`RoundCore::local_coin`]'s local flip, or
//!    [`RoundCore::oracle`]'s atomic coin — and advances with its value.
//!
//! This is the skeleton of the bounded protocol too, written the unbounded
//! way: the rounds are integers rather than a strip, so the experiments
//! that race the baselines against it isolate the coin and the rounds
//! representation.

use std::collections::BTreeMap;

use bprc_coin::flip::Flips;
use bprc_coin::value::{coin_value_total, CoinValue};
use bprc_coin::CoinParams;
use bprc_sim::rng::derive_seed;
use bprc_sim::turn::{TurnProbe, TurnProcess, TurnStep};
use bprc_sim::{Counter, ProcMetrics};

use crate::state::Pref;

/// How many rounds every disagreeing process must trail a leader before
/// the leader decides.
pub const K: u64 = 2;

/// The register contents of one round-numbered process.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct RoundState {
    /// Current preference. ⊥ marks a process that saw the leaders disagree
    /// and will consult its coin on its next scan (unless a valued leader
    /// set has formed by then).
    pub pref: Pref,
    /// Current round — grows without bound.
    pub round: u64,
    /// \[AH88\] only: this process's contribution to every round's shared
    /// coin, kept forever (`round ↦ counter`) — the unbounded strip. Empty
    /// for the local and oracle coins.
    pub coins: BTreeMap<u64, i64>,
}

impl RoundState {
    /// Bits this register needs: 2 for the preference (value or ⊥), the
    /// round counter's current width, and one entry per coin ever touched
    /// (round index + counter). The coin entries are what grows.
    pub fn bits(&self) -> u64 {
        let round_bits = 64 - self.round.leading_zeros() as u64 + 1;
        let per_entry = round_bits + 64; // round index + unbounded counter
        2 + round_bits + self.coins.len() as u64 * per_entry
    }
}

/// The coin a demoted process consults.
#[derive(Debug, Clone)]
enum Coin {
    /// \[AH88\]'s shared coin of round `r + 1`: a random walk summed over
    /// every register's counter for that round.
    SharedWalk(CoinParams),
    /// \[A88\]'s independent local coin.
    Local,
    /// The atomic shared coin of round `r`, the low bit of
    /// `derive_seed(shared_seed, r)`: the same for every process that
    /// evaluates it.
    Oracle {
        /// The instance's oracle; identical for all processes.
        shared_seed: u64,
    },
}

/// One process of a round-numbered baseline as a scan/write state machine.
#[derive(Debug, Clone)]
pub struct RoundCore {
    me: usize,
    coin: Coin,
    flips: Flips,
    state: RoundState,
    coin_flips: u64,
}

impl RoundCore {
    /// The Aspnes–Herlihy \[AH88\] baseline: polynomial expected time,
    /// unbounded memory. `b` is the coin barrier multiplier (counters are
    /// unbounded, so there is no `m`).
    ///
    /// Structurally identical to the bounded protocol — leaders, value
    /// adoption, ⊥, per-round random-walk shared coin — but represented the
    /// unbounded way: an integer round number that only grows, and a coin
    /// *strip* in which every round ever flipped keeps its counter forever.
    /// This is the algorithm the paper "compresses"; the experiments compare
    /// its register growth (E6) and its running time (E5) against the
    /// bounded protocol.
    pub fn aspnes_herlihy(n: usize, pid: usize, input: bool, seed: u64, b: u32) -> Self {
        // Counters are conceptually unbounded: use an effectively-infinite m.
        let coin = Coin::SharedWalk(CoinParams::new(n, b, i64::MAX / 4));
        Self::new(n, pid, input, coin, Flips::fair(seed))
    }

    /// The Abrahamson \[A88\] baseline: independent local coins, exponential
    /// expected time.
    ///
    /// A demoted process flips its **own** coin and advances — no shared
    /// coin. Progress then requires the leaders' independent flips to
    /// spontaneously coincide, which takes expected `2^Θ(n)` rounds against
    /// an adversary (and visibly exponential rounds even under a fair
    /// scheduler). This is the running-time baseline for experiment E5;
    /// like \[A88\] it keeps its rounds unbounded (we compare time here, not
    /// space — \[A88\]'s bounded-space construction is the concern of the
    /// main protocol).
    pub fn local_coin(n: usize, pid: usize, input: bool, seed: u64) -> Self {
        Self::new(n, pid, input, Coin::Local, Flips::fair(seed))
    }

    /// The perfect-shared-coin oracle baseline (\[CIL87\]-style).
    /// `shared_seed` must be the same for all processes of the instance —
    /// it *is* the oracle.
    ///
    /// Chor, Israeli and Li's algorithm assumed a powerful *atomic coin
    /// flip* operation; this baseline models that assumption directly: the
    /// "shared coin" of round `r` is a deterministic pseudorandom function
    /// of `(shared_seed, r)` that every process evaluates identically, for
    /// free. It decides in a constant expected number of rounds and gives
    /// the experiments a floor to compare the realizable coins against.
    pub fn oracle(n: usize, pid: usize, input: bool, shared_seed: u64) -> Self {
        // An empty queue: the oracle never draws a local flip.
        Self::new(n, pid, input, Coin::Oracle { shared_seed }, Flips::queue())
    }

    fn new(n: usize, pid: usize, input: bool, coin: Coin, flips: Flips) -> Self {
        assert!(pid < n, "pid out of range");
        RoundCore {
            me: pid,
            coin,
            flips,
            state: RoundState {
                pref: Pref::Val(input),
                round: 1,
                coins: BTreeMap::new(),
            },
            coin_flips: 0,
        }
    }

    /// Mutable flip source (for the model checker, which swaps in a
    /// [`Flips::queue`] source and drives it through every outcome).
    pub(crate) fn flips_mut(&mut self) -> &mut Flips {
        &mut self.flips
    }

    /// Adopts `v` at the next round and publishes it.
    fn advance(&mut self, v: bool) -> TurnStep<RoundState, bool> {
        self.state.pref = Pref::Val(v);
        self.state.round += 1;
        TurnStep::Write(self.state.clone())
    }
}

/// The value every process at round `max_round` holds, if they hold one
/// (none of them ⊥, no two apart).
fn leaders_value(view: &[RoundState], max_round: u64) -> Option<bool> {
    let mut leaders = view
        .iter()
        .filter(|s| s.round == max_round)
        .map(|s| s.pref.value());
    let first = leaders.next()??;
    leaders.all(|v| v == Some(first)).then_some(first)
}

impl TurnProcess for RoundCore {
    type Msg = RoundState;
    type Out = bool;

    fn initial_msg(&mut self) -> RoundState {
        self.state.clone()
    }

    fn probe(&self) -> TurnProbe {
        TurnProbe {
            round: Some(self.state.round),
            // The oracle's coin is an atomic primitive evaluated for free:
            // it never flips, so its count stays 0.
            coin_flips: self.coin_flips,
            register_bits: self.state.bits(),
        }
    }

    fn publish_telemetry(&self, m: &ProcMetrics<'_>) {
        m.incr(Counter::CoinFlips, self.coin_flips);
    }

    fn on_scan(&mut self, view: &[RoundState]) -> TurnStep<RoundState, bool> {
        let max_round = view.iter().map(|s| s.round).max().unwrap_or(0);
        debug_assert_eq!(&view[self.me], &self.state);

        // Decide: I'm a leader and everyone disagreeing trails by >= K.
        if let Pref::Val(v) = self.state.pref {
            if self.state.round == max_round {
                let all_trail = view.iter().enumerate().all(|(j, s)| {
                    j == self.me
                        || s.pref.agrees_with(&self.state.pref)
                        || s.round + K <= self.state.round
                });
                if all_trail {
                    return TurnStep::Decide(v);
                }
            }
        }

        // Leaders agree -> adopt and advance.
        if let Some(v) = leaders_value(view, max_round) {
            return self.advance(v);
        }

        // Leaders disagree: demote in place first so the wavering is
        // visible to any would-be decider. This step is load-bearing, not
        // decoration, whatever the coin: an earlier version of the
        // local-coin core re-randomized in a single step (disagree → write
        // the new coin value at round `r+1` directly), and the protocol
        // arena's register-level schedules found the agreement violation
        // that permits. Two tied leaders flip opposite coins from the same
        // disagreeing view; one lands its write and decides while the
        // other's conflicting write is still pending, after which the
        // survivor is the sole leader, out-climbs the halted decider by
        // `K`, and decides the opposite value. Demoting to ⊥ *in place*
        // first (same round, no value) makes the wavering visible: any
        // would-be decider sees a ⊥ neighbour within `K` rounds and must
        // wait, and a ⊥ process whose next scan sees a valued max-round
        // leader adopts that value instead of consulting its coin. A shared
        // coin makes divergent *coin* writes impossible, but a pending
        // adopt write can still contradict a concurrent decision unless the
        // decider is forced to see the wavering. The exhaustive n = 2 model
        // check of the local-coin baseline enumerates every schedule, flip,
        // and crash pattern of this structure within a depth bound.
        if self.state.pref != Pref::Bottom {
            self.state.pref = Pref::Bottom;
            return TurnStep::Write(self.state.clone());
        }

        // Already demoted and still no agreed leader value: consult the
        // coin for the next round. This is the whole difference between
        // the baselines.
        let target = self.state.round + 1;
        let v = match &self.coin {
            Coin::SharedWalk(params) => {
                let own = *self.state.coins.get(&target).unwrap_or(&0);
                let others: i64 = view
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != self.me)
                    .map(|(_, s)| *s.coins.get(&target).unwrap_or(&0))
                    .sum();
                match coin_value_total(params, own, own + others) {
                    // Undecided: one step of the walk, published.
                    CoinValue::Undecided => {
                        let delta = if self.flips.flip() { 1 } else { -1 };
                        self.coin_flips += 1;
                        *self.state.coins.entry(target).or_insert(0) += delta;
                        return TurnStep::Write(self.state.clone());
                    }
                    v => v.as_bool(),
                }
            }
            Coin::Local => {
                self.coin_flips += 1;
                self.flips.flip()
            }
            // Identical for everyone, so disagreement dissolves at once.
            Coin::Oracle { shared_seed } => derive_seed(*shared_seed, target) & 1 == 1,
        };
        self.advance(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bprc_sim::sched::RandomStrategy;
    use bprc_sim::turn::{TurnDriver, TurnReport};

    fn run(procs: Vec<RoundCore>, strategy_seed: u64, budget: u64) -> TurnReport<bool> {
        TurnDriver::new(procs).run(&mut RandomStrategy::new(strategy_seed), budget)
    }

    fn ah(n: usize, inputs: &[bool], seed: u64) -> TurnReport<bool> {
        let procs = (0..n)
            .map(|p| RoundCore::aspnes_herlihy(n, p, inputs[p], seed * 11 + p as u64, 3))
            .collect();
        run(procs, seed, 3_000_000)
    }

    fn local(n: usize, inputs: &[bool], seed: u64, budget: u64) -> TurnReport<bool> {
        let procs = (0..n)
            .map(|p| RoundCore::local_coin(n, p, inputs[p], seed * 13 + p as u64))
            .collect();
        run(procs, seed, budget)
    }

    fn oracle(n: usize, inputs: &[bool], seed: u64) -> TurnReport<bool> {
        let procs = (0..n)
            .map(|p| RoundCore::oracle(n, p, inputs[p], seed))
            .collect();
        run(procs, seed ^ 0xABCD, 500_000)
    }

    #[test]
    fn validity_unanimous() {
        for v in [false, true] {
            for r in [
                ah(3, &[v; 3], 1),
                local(3, &[v; 3], 2, 100_000),
                oracle(4, &[v; 4], 3),
            ] {
                assert!(r.completed);
                assert!(r.outputs.iter().all(|o| *o == Some(v)));
            }
        }
    }

    #[test]
    fn ah88_agreement_mixed() {
        for seed in 0..10 {
            let r = ah(4, &[true, false, true, false], seed);
            assert!(r.completed, "seed {seed}");
            assert_eq!(r.distinct_outputs().len(), 1, "seed {seed}");
        }
    }

    #[test]
    fn local_coin_agreement_small_n() {
        for seed in 0..10 {
            let r = local(3, &[true, false, true], seed, 2_000_000);
            assert!(r.completed, "seed {seed}: tiny n should still finish");
            assert_eq!(r.distinct_outputs().len(), 1, "seed {seed}");
        }
    }

    #[test]
    fn oracle_agreement_and_fast_termination() {
        for seed in 0..20 {
            let r = oracle(5, &[true, false, true, false, true], seed);
            assert!(r.completed, "seed {seed}");
            assert_eq!(r.distinct_outputs().len(), 1, "seed {seed}");
            assert!(
                r.events < 100_000,
                "seed {seed}: oracle coin should finish fast, took {}",
                r.events
            );
        }
    }

    /// Two demoted processes of one instance at the same round read the
    /// same oracle bit, whatever their inputs.
    #[test]
    fn oracle_is_shared() {
        for round in 0..64 {
            let demoted = RoundState {
                round,
                ..RoundState::default()
            };
            let view = vec![demoted.clone(); 2];
            let steps: Vec<_> = (0..2)
                .map(|p| {
                    let mut core = RoundCore::oracle(2, p, p == 0, 9);
                    core.state = demoted.clone();
                    core.on_scan(&view)
                })
                .collect();
            assert!(matches!(steps[0], TurnStep::Write(_)), "round {round}");
            assert_eq!(steps[0], steps[1], "round {round}");
        }
    }

    #[test]
    fn registers_grow_when_coins_are_flipped() {
        let mut s = RoundState {
            pref: Pref::Bottom,
            round: 5,
            coins: BTreeMap::new(),
        };
        let b0 = s.bits();
        s.coins.insert(6, 1);
        s.coins.insert(7, -2);
        assert!(s.bits() > b0);
    }

    /// Depth-bounded exhaustive model check of the local-coin baseline at
    /// n = 2 with mixed inputs and crashes. Rounds are unbounded here, so
    /// the full state space is infinite; bounding the *depth* instead makes
    /// the search exhaust every schedule, flip pattern, and crash pattern of
    /// the first 72 events. The agreement violation the one-step
    /// re-randomization permitted (see the demotion step of
    /// [`RoundCore::on_scan`]) sits ~12 events deep at n = 2 — two tied
    /// processes coin from the same disagreeing view, one decides on the
    /// other's stale agreeing register while the conflicting coin write is
    /// pending — so reverting the ⊥ demotion makes this test fail with a
    /// concrete counterexample trace.
    #[test]
    fn modelcheck_n2_mixed_with_crashes() {
        use crate::modelcheck::{check, McConfig};

        let procs: Vec<RoundCore> = (0..2)
            .map(|p| {
                let mut core = RoundCore::local_coin(2, p, p == 0, 0);
                *core.flips_mut() = Flips::queue();
                core
            })
            .collect();
        let shared = vec![RoundState::default(); 2];
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
        // Exact, so that any change to what the search expands shows: the
        // depth bound truncates it, and these counts are its whole reach.
        assert!(report.truncated, "depth 72 cannot exhaust unbounded rounds");
        assert_eq!(
            (report.states, report.complete_paths, report.crash_branches),
            (4_111, 274, 3_570),
            "pinned model-check coverage changed"
        );
        assert!(
            report.decisions_seen.len() == 2,
            "both decision values reachable from mixed inputs"
        );
    }
}
