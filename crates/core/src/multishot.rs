//! Multi-shot consensus: a replicated log of agreed values.
//!
//! The paper's introduction motivates randomized consensus as the universal
//! building block for wait-free synchronization (Herlihy's `fetch&cons`,
//! Plotkin's sticky bits). This module supplies that shape: a [`LogCore`]
//! is a replica that agrees, slot by slot, on an unbounded… well, a
//! `n_slots`-long sequence of values, with each slot decided by one
//! multivalued bounded-consensus instance ([`crate::multivalued`]).
//!
//! Replicas are asynchronous **across slots**: one replica can be agreeing
//! on slot 4 while another is still writing its proposal for slot 0 — the
//! not-yet-joined replica simply appears as a phantom in the later slots,
//! which the underlying protocol already tolerates.
//!
//! Proposals may depend on everything decided so far (the
//! [`ProposalSource`] trait), which is exactly what a replicated state
//! machine needs: "given the state produced by the decided prefix, propose
//! my next operation".
//!
//! A replica publishes the same message turn after turn, changed in its
//! live slot only, so it does not build one per turn: its register hands
//! back the message each write displaced ([`TurnProcess::recycle`]), and
//! the replica publishes its next message into that one and writes its
//! live slot's next level into the handed-back live slot's buffer, once
//! nobody else holds it. A steady turn allocates nothing at any slot, and
//! costs the same at slot 15 as at slot 0.

use bprc_sim::turn::{TurnProcess, TurnStep};

use crate::bounded::ConsensusParams;
use crate::multivalued::{MvCore, MvState, Spare};

/// Supplies a replica's proposal for the next slot, given the decided
/// prefix.
pub trait ProposalSource {
    /// The value to propose for slot `decided.len()`.
    fn next_proposal(&mut self, decided: &[u64]) -> u64;
}

/// A fixed list of proposals (one per slot).
#[derive(Debug, Clone)]
pub struct StaticProposals(pub Vec<u64>);

impl ProposalSource for StaticProposals {
    fn next_proposal(&mut self, decided: &[u64]) -> u64 {
        self.0.get(decided.len()).copied().unwrap_or(0)
    }
}

impl<F: FnMut(&[u64]) -> u64> ProposalSource for F {
    fn next_proposal(&mut self, decided: &[u64]) -> u64 {
        self(decided)
    }
}

/// What each replica publishes: its per-slot multivalued states, for the
/// slots it has joined so far (bounded by `n_slots`).
///
/// Each slot's levels are shared copy-on-write ([`MvState`]): a replica
/// never writes a slot again once it has moved past it, so a copy of the
/// message copies one pointer per settled slot, and only the live slot's
/// levels are ever copied word by word. A replica publishes into the
/// message its register handed back, whose settled slots it already holds
/// ([`LogCore`]'s `recycle`).
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct LogMsg {
    /// One multivalued-consensus state per joined slot.
    pub slots: Vec<MvState>,
}

impl Clone for LogMsg {
    /// One allocation, the slot vector; the slots share their levels.
    fn clone(&self) -> Self {
        LogMsg {
            slots: self.slots.clone(),
        }
    }

    /// Reuses `self`'s slot vector: no allocation once it is long enough,
    /// and a slot `self` already shares is skipped. A vector too short for
    /// the source grows to the source's room at once: a published message
    /// has room for every slot of its log, so a copy that starts empty (a
    /// port's own slot, the bridge's view) allocates once, not again each
    /// time the log outgrows it.
    fn clone_from(&mut self, source: &Self) {
        if self.slots.capacity() < source.slots.len() {
            let room = source.slots.capacity();
            self.slots.reserve_exact(room - self.slots.len());
        }
        self.slots.clone_from(&source.slots);
    }
}

/// One replica of the multi-shot log.
///
/// `Clone` when its source is: the model checker snapshots replicas to
/// branch over schedules and flip outcomes.
#[derive(Clone)]
pub struct LogCore<S> {
    n_slots: usize,
    seed: u64,
    source: S,
    decided: Vec<u64>,
    inner: MvCore,
    /// Stats folded forward from inner cores retired at slot boundaries.
    retired: crate::bounded::CoreStats,
    /// The states my decided slots ended in, as published; the live slot's
    /// is the core's.
    settled: Vec<MvState>,
    /// A message my register handed back, to publish the next one into.
    spare: Spare<LogMsg>,
    /// What a replica that has not joined my slot reads as.
    phantom: MvState,
}

impl<S> std::fmt::Debug for LogCore<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogCore")
            .field("me", &self.inner.inner_core().pid())
            .field("slot", &self.decided.len())
            .field("n_slots", &self.n_slots)
            .finish()
    }
}

impl<S: ProposalSource> LogCore<S> {
    /// Creates replica `pid` that will agree on `n_slots` values of
    /// `width` bits each, proposing from `source`.
    ///
    /// # Panics
    ///
    /// Panics if `n_slots == 0`, `width ∉ 1..=64`, or `pid` out of range.
    pub fn new(
        params: ConsensusParams,
        pid: usize,
        n_slots: usize,
        width: u32,
        source: S,
        seed: u64,
    ) -> Self {
        let slot0 = bprc_sim::rng::derive_seed(seed, 0);
        Self::with_inner(params, n_slots, source, seed, |params, first| {
            MvCore::new(params, pid, first, width, slot0)
        })
    }

    /// Creates the replica with queue-fed local flips in every slot (for
    /// the model checker — see [`crate::modelcheck`]).
    ///
    /// # Panics
    ///
    /// As [`new`](Self::new).
    pub fn with_queue_flips(
        params: ConsensusParams,
        pid: usize,
        n_slots: usize,
        width: u32,
        source: S,
    ) -> Self {
        Self::with_inner(params, n_slots, source, 0, |params, first| {
            MvCore::with_queue_flips(params, pid, first, width)
        })
    }

    /// The replica whose slot-0 core `inner` builds from the parameters and
    /// the first proposal.
    fn with_inner(
        params: ConsensusParams,
        n_slots: usize,
        mut source: S,
        seed: u64,
        inner: impl FnOnce(ConsensusParams, u64) -> MvCore,
    ) -> Self {
        assert!(n_slots >= 1, "need at least one slot");
        let first = source.next_proposal(&[]);
        let inner = inner(params.clone(), first);
        LogCore {
            phantom: MvState::phantom(params.layout()),
            n_slots,
            seed,
            source,
            decided: Vec::with_capacity(n_slots),
            inner,
            retired: crate::bounded::CoreStats::default(),
            settled: Vec::with_capacity(n_slots),
            spare: Spare(None),
        }
    }

    /// Slots decided so far by this replica.
    pub fn decided(&self) -> &[u64] {
        &self.decided
    }

    /// The current slot's multivalued core.
    pub fn inner_core(&self) -> &MvCore {
        &self.inner
    }

    /// Mutable access to the current slot's multivalued core (the model
    /// checker feeds flip outcomes through it).
    pub fn inner_core_mut(&mut self) -> &mut MvCore {
        &mut self.inner
    }

    /// The message to publish, the settled slots and the live one, in the
    /// message the register handed back if there is one — which holds the
    /// settled slots already, all but those settled since — or else in a
    /// new slot vector. Either gets room for every slot once, so no later
    /// copy into it grows it.
    fn publish(&mut self) -> LogMsg {
        let mut msg = self.spare.0.take().unwrap_or(LogMsg { slots: Vec::new() });
        debug_assert!(msg.slots[..] == self.settled[..msg.slots.len()]);
        msg.slots.reserve(self.n_slots - msg.slots.len());
        msg.slots
            .extend_from_slice(&self.settled[msg.slots.len()..]);
        msg.slots.push(self.inner.current_msg().clone());
        msg
    }

    /// Protocol stats summed across every slot this replica worked on.
    pub fn cumulative_stats(&self) -> crate::bounded::CoreStats {
        let mut s = self.retired;
        s.absorb(&self.inner.cumulative_stats());
        s
    }
}

impl<S: ProposalSource> TurnProcess for LogCore<S> {
    type Msg = LogMsg;
    type Out = Vec<u64>;

    fn initial_msg(&mut self) -> LogMsg {
        self.publish()
    }

    fn on_scan(&mut self, view: &[LogMsg]) -> TurnStep<LogMsg, Vec<u64>> {
        let slot = self.decided.len();
        // Project the view to the current slot; replicas that have not
        // joined it appear as not-yet-started multivalued participants.
        let phantom = &self.phantom;
        match self
            .inner
            .turn(|j| view[j].slots.get(slot).unwrap_or(phantom))
        {
            TurnStep::Write(()) => {}
            TurnStep::Decide(v) => {
                self.decided.push(v);
                if self.decided.len() == self.n_slots {
                    return TurnStep::Decide(self.decided.clone());
                }
                let proposal = self.source.next_proposal(&self.decided);
                self.settled.push(self.inner.current_msg().clone());
                self.retired.absorb(&self.inner.cumulative_stats());
                self.inner.restart(
                    proposal,
                    bprc_sim::rng::derive_seed(self.seed, self.decided.len() as u64),
                );
            }
        }
        TurnStep::Write(self.publish())
    }

    /// Keeps `displaced` to publish into, with its settled slots only, and
    /// hands its live slot's state, if that slot is live still, to the
    /// slot's core, to write the next level into.
    ///
    /// Every message this replica publishes is its settled slots, which
    /// never change, then its live one; so once the last slot goes, the
    /// rest are this replica's settled slots as they are now. The one value
    /// a register can hold that this replica did not publish, the initial
    /// one, is displaced before this replica settles any slot, and is cut
    /// to nothing.
    fn recycle(&mut self, mut displaced: LogMsg) {
        let live = displaced.slots.pop();
        if displaced.slots.len() == self.settled.len() {
            if let Some(live) = live {
                self.inner.recycle(live);
            }
        }
        displaced.slots.truncate(self.settled.len());
        self.spare.0 = Some(displaced);
    }

    fn probe(&self) -> bprc_sim::turn::TurnProbe {
        let s = self.cumulative_stats();
        bprc_sim::turn::TurnProbe {
            round: Some(s.rounds),
            coin_flips: s.coin_flips,
            register_bits: 0,
        }
    }

    fn publish_telemetry(&self, m: &bprc_sim::ProcMetrics<'_>) {
        self.cumulative_stats().publish(m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bprc_sim::sched::RandomStrategy;
    use bprc_sim::turn::{TurnBsp, TurnDriver};

    fn run_log(proposals: Vec<Vec<u64>>, n_slots: usize, width: u32, seed: u64) -> Vec<Vec<u64>> {
        let n = proposals.len();
        let params = ConsensusParams::quick(n);
        let procs: Vec<LogCore<StaticProposals>> = proposals
            .into_iter()
            .enumerate()
            .map(|(p, mine)| {
                LogCore::new(
                    params.clone(),
                    p,
                    n_slots,
                    width,
                    StaticProposals(mine),
                    seed * 71 + p as u64,
                )
            })
            .collect();
        let report = TurnDriver::new(procs).run(&mut RandomStrategy::new(seed), 100_000_000);
        assert!(report.completed, "log did not complete");
        report.outputs.into_iter().map(|o| o.unwrap()).collect()
    }

    #[test]
    fn replicas_agree_on_every_slot() {
        for seed in 0..5 {
            let logs = run_log(
                vec![vec![1, 2, 3], vec![10, 20, 30], vec![100, 200, 201]],
                3,
                8,
                seed,
            );
            assert_eq!(logs[0], logs[1], "seed {seed}");
            assert_eq!(logs[1], logs[2], "seed {seed}");
            // Each slot's value is someone's proposal for that slot.
            for (slot, &v) in logs[0].iter().enumerate() {
                let candidates = [
                    [1u64, 2, 3][slot],
                    [10, 20, 30][slot],
                    [100, 200, 201][slot],
                ];
                assert!(candidates.contains(&v), "seed {seed} slot {slot}: {v}");
            }
        }
    }

    #[test]
    fn state_dependent_proposals_build_a_chain() {
        // Each replica proposes last_decided * 2 + its id: whatever wins,
        // the chain stays internally consistent (every link doubles the
        // previous and adds some replica's id).
        let n = 3;
        let params = ConsensusParams::quick(n);
        let procs: Vec<LogCore<_>> = (0..n)
            .map(|p| {
                let me = p as u64;
                LogCore::new(
                    params.clone(),
                    p,
                    4,
                    16,
                    move |decided: &[u64]| decided.last().copied().unwrap_or(1) * 2 + me,
                    p as u64,
                )
            })
            .collect();
        let report = TurnDriver::new(procs).run(&mut RandomStrategy::new(9), 100_000_000);
        assert!(report.completed);
        let log = report.outputs[0].clone().unwrap();
        assert_eq!(&log, report.outputs[1].as_ref().unwrap());
        let mut prev = 1u64;
        for &v in &log {
            let id = v.checked_sub(prev * 2).expect("chain link well-formed");
            assert!(id < n as u64, "link {v} not derived from prev {prev}");
            prev = v;
        }
    }

    #[test]
    fn bsp_adversary_cannot_break_the_log() {
        let n = 2;
        let params = ConsensusParams::quick(n);
        let procs: Vec<LogCore<StaticProposals>> = (0..n)
            .map(|p| {
                LogCore::new(
                    params.clone(),
                    p,
                    2,
                    4,
                    StaticProposals(vec![p as u64 + 1, p as u64 + 5]),
                    p as u64,
                )
            })
            .collect();
        let report = TurnDriver::new(procs).run(&mut TurnBsp::new(), 100_000_000);
        assert!(report.completed);
        assert_eq!(report.outputs[0], report.outputs[1]);
    }
}
