//! The wait-free synchronization primitives the paper's introduction says
//! randomized consensus unlocks: *sticky bits* (Plotkin \[P89\]) and
//! one-shot *test-and-set*, both impossible deterministically from
//! read/write registers alone. (`fetch&cons` \[H88\] — an append-ordered
//! list — is [`crate::multishot::LogCore`].)
//!
//! Each primitive is a thin, named layer over the bounded consensus
//! protocol; their guarantees are consensus's guarantees, inherited through
//! the reduction.

use bprc_sim::turn::{TurnProcess, TurnStep};

use crate::bounded::{BoundedCore, ConsensusParams};
use crate::multivalued::{MvCore, MvState};
use crate::state::ProcState;

/// One participant of a **sticky bit**: a write-once bit every writer
/// agrees on. `write_sticky(v)` proposes `v`; the returned value is the
/// bit's permanent content — the same for every participant, and equal to
/// some participant's proposal.
///
/// Run it like any turn process; the decision is the sticky value.
#[derive(Debug, Clone)]
pub struct StickyBitCore {
    inner: BoundedCore,
}

impl StickyBitCore {
    /// Participant `pid` proposing `value` for the bit.
    ///
    /// # Panics
    ///
    /// Panics if `pid >= params.n()`.
    pub fn new(params: ConsensusParams, pid: usize, value: bool, seed: u64) -> Self {
        StickyBitCore {
            inner: BoundedCore::new(params, pid, value, seed),
        }
    }
}

impl TurnProcess for StickyBitCore {
    type Msg = ProcState;
    type Out = bool;

    fn initial_msg(&mut self) -> ProcState {
        TurnProcess::initial_msg(&mut self.inner)
    }

    fn on_scan(&mut self, view: &[ProcState]) -> TurnStep<ProcState, bool> {
        self.inner.on_view(view)
    }
}

/// One participant of a one-shot **test-and-set**: exactly one participant
/// "wins" (its output is `true`), everyone else loses — decided by a
/// multivalued consensus on the winner's pid.
#[derive(Debug)]
pub struct TestAndSetCore {
    me: usize,
    inner: MvCore,
}

impl TestAndSetCore {
    /// Participant `pid` racing for the flag.
    ///
    /// # Panics
    ///
    /// Panics if `pid >= params.n()` or `params.n() > 2^16` (pid width).
    pub fn new(params: ConsensusParams, pid: usize, seed: u64) -> Self {
        assert!(params.n() <= 1 << 16, "pid must fit the value width");
        TestAndSetCore {
            me: pid,
            inner: MvCore::new(params, pid, pid as u64, 16, seed),
        }
    }
}

impl TurnProcess for TestAndSetCore {
    type Msg = MvState;
    type Out = bool;

    fn initial_msg(&mut self) -> MvState {
        TurnProcess::initial_msg(&mut self.inner)
    }

    fn on_scan(&mut self, view: &[MvState]) -> TurnStep<MvState, bool> {
        match self.inner.on_scan(view) {
            TurnStep::Write(m) => TurnStep::Write(m),
            TurnStep::Decide(winner) => TurnStep::Decide(winner == self.me as u64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bprc_sim::sched::RandomStrategy;
    use bprc_sim::turn::{TurnBsp, TurnDriver};

    #[test]
    fn sticky_bit_sticks() {
        for seed in 0..10 {
            let n = 4;
            let params = ConsensusParams::quick(n);
            let procs: Vec<StickyBitCore> = (0..n)
                .map(|p| StickyBitCore::new(params.clone(), p, p >= 2, seed * 5 + p as u64))
                .collect();
            let r = TurnDriver::new(procs).run(&mut RandomStrategy::new(seed), 10_000_000);
            assert!(r.completed, "seed {seed}");
            let d = r.distinct_outputs();
            assert_eq!(d.len(), 1, "seed {seed}: the bit must be single-valued");
        }
    }

    #[test]
    fn sticky_bit_unanimous_is_forced() {
        let n = 3;
        let params = ConsensusParams::quick(n);
        let procs: Vec<StickyBitCore> = (0..n)
            .map(|p| StickyBitCore::new(params.clone(), p, true, p as u64))
            .collect();
        let r = TurnDriver::new(procs).run(&mut RandomStrategy::new(2), 10_000_000);
        assert!(r.outputs.iter().all(|o| *o == Some(true)));
    }

    #[test]
    fn test_and_set_has_exactly_one_winner() {
        for seed in 0..10 {
            let n = 4;
            let params = ConsensusParams::quick(n);
            let procs: Vec<TestAndSetCore> = (0..n)
                .map(|p| TestAndSetCore::new(params.clone(), p, seed * 9 + p as u64))
                .collect();
            let r = TurnDriver::new(procs).run(&mut RandomStrategy::new(seed), 50_000_000);
            assert!(r.completed, "seed {seed}");
            let winners = r.outputs.iter().filter(|o| matches!(o, Some(true))).count();
            assert_eq!(
                winners, 1,
                "seed {seed}: exactly one winner: {:?}",
                r.outputs
            );
        }
    }

    #[test]
    fn test_and_set_survives_bsp_adversary() {
        let n = 3;
        let params = ConsensusParams::quick(n);
        let procs: Vec<TestAndSetCore> = (0..n)
            .map(|p| TestAndSetCore::new(params.clone(), p, p as u64))
            .collect();
        let r = TurnDriver::new(procs).run(&mut TurnBsp::new(), 50_000_000);
        assert!(r.completed);
        let winners = r.outputs.iter().filter(|o| matches!(o, Some(true))).count();
        assert_eq!(winners, 1);
    }

    #[test]
    fn test_and_set_crash_leaves_a_winner_among_survivors() {
        use bprc_sim::sched::{Decision, FnStrategy, Strategy};
        use bprc_sim::turn::TurnView;
        let n = 3;
        let params = ConsensusParams::quick(n);
        let procs: Vec<TestAndSetCore> = (0..n)
            .map(|p| TestAndSetCore::new(params.clone(), p, 40 + p as u64))
            .collect();
        let mut inner = RandomStrategy::new(8);
        let mut adversary = FnStrategy::new(move |view: &TurnView<'_, MvState>| {
            if view.step == 3 && view.runnable.contains(&0) && !view.crashed[0] {
                return Decision::Crash(0);
            }
            inner.decide(view)
        });
        let r = TurnDriver::new(procs).run(&mut adversary, 50_000_000);
        assert!(r.completed);
        // The crashed process may or may not be the decided winner pid; the
        // survivors still each learn a consistent won/lost outcome, with at
        // most one survivor winning.
        let winners = r.outputs.iter().flatten().filter(|w| **w).count();
        assert!(winners <= 1, "{:?}", r.outputs);
    }
}
