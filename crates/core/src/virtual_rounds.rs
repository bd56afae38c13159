//! Virtual global rounds — the §6.1 verification device, executable.
//!
//! The bounded protocol never stores a round number, so the paper's
//! correctness proof *reconstructs* one: given the serialized sequence of
//! scans (serializable by property P3), it assigns every process a
//! **virtual global round** per scan, inductively:
//!
//! * initially every process is at round 0;
//! * at scan `S^a`, the *old leaders* are the processes that had the
//!   maximal round at `S^{a−1}`; the *new leaders* are the old leaders
//!   whose edge-counter row changed between the scans (they performed an
//!   `inc`);
//! * if some old leader moved, rounds are re-anchored at `max+1` on a new
//!   leader; otherwise at `max` on an old leader; every other process sits
//!   `dist(anchor, i)` below the anchor, where `dist` is measured on the
//!   scanned distance graph.
//!
//! The crucial lemma — virtual global rounds are **non-decreasing** even
//! though the underlying bounded representation wraps and shrinks — is what
//! lets the paper port the \[AH88\] proof. [`VirtualRoundTracker`] recomputes
//! the assignment over a recorded scan sequence and checks exactly that,
//! turning the lemma into a runtime invariant exercised by every test that
//! uses [`check_execution`].

use crate::bounded::view_graph;
use crate::state::ProcState;

/// One recorded scan: who scanned, and the full view it returned.
#[derive(Debug, Clone)]
pub struct ScanRecord {
    /// The scanning process.
    pub pid: usize,
    /// The snapshot view (indexed by process).
    pub view: Vec<ProcState>,
}

/// A violation of the virtual-round invariants.
#[derive(Debug, Clone, PartialEq)]
pub enum RoundViolation {
    /// After some process decided in round `decided_at`, another process
    /// reached a round beyond `decided_at + 2` (violates Lemma 6.5).
    RanPastDecision {
        /// The process that ran too far.
        pid: usize,
        /// Its round.
        round: i64,
        /// The round the earliest decision happened in.
        decided_at: i64,
    },
    /// A process's virtual round decreased between consecutive scans.
    NonMonotonic {
        /// The process whose round regressed.
        pid: usize,
        /// Index of the offending scan.
        scan: usize,
        /// Round before and after.
        rounds: (i64, i64),
    },
    /// The anchored assignment put some process above the anchor.
    AboveAnchor {
        /// The offending process.
        pid: usize,
        /// Index of the offending scan.
        scan: usize,
    },
}

/// Recomputes virtual global rounds over a scan sequence.
#[derive(Debug)]
pub struct VirtualRoundTracker {
    n: usize,
    k: u32,
    rounds: Vec<i64>,
    prev_view: Option<Vec<ProcState>>,
    scans_seen: usize,
    violations: Vec<RoundViolation>,
    decided_at: Option<i64>,
}

impl VirtualRoundTracker {
    /// Creates a tracker for `n` processes with strip constant `k`.
    pub fn new(n: usize, k: u32) -> Self {
        VirtualRoundTracker {
            n,
            k,
            rounds: vec![0; n],
            prev_view: None,
            scans_seen: 0,
            violations: Vec::new(),
            decided_at: None,
        }
    }

    /// Records that some process decided (call with the decider's pid when
    /// its decision happens); enables the Lemma 6.5 check.
    pub fn record_decision(&mut self, pid: usize) {
        if self.decided_at.is_none() {
            self.decided_at = Some(self.rounds[pid]);
        }
    }

    /// Current virtual rounds (after the last observed scan).
    pub fn rounds(&self) -> &[i64] {
        &self.rounds
    }

    /// Violations detected so far.
    pub fn violations(&self) -> &[RoundViolation] {
        &self.violations
    }

    /// Feeds the next scan in serialization order.
    pub fn observe(&mut self, view: &[ProcState]) {
        assert_eq!(view.len(), self.n, "view size mismatch");
        let closure = view_graph(view, self.k).closure();

        let max = *self.rounds.iter().max().expect("nonempty");
        let old_leaders: Vec<usize> = (0..self.n).filter(|&j| self.rounds[j] == max).collect();
        let new_leaders: Vec<usize> = match &self.prev_view {
            None => Vec::new(),
            Some(prev) => old_leaders
                .iter()
                .copied()
                .filter(|&j| !prev[j].edges().eq(view[j].edges()))
                .collect(),
        };

        let (anchor, anchor_round) = if let Some(&j) = new_leaders.first() {
            (j, max + 1)
        } else {
            (old_leaders[0], max)
        };

        let mut next = vec![0i64; self.n];
        #[allow(clippy::needless_range_loop)] // index used against several arrays
        for i in 0..self.n {
            let d = if i == anchor {
                0
            } else {
                match closure.get(anchor, i) {
                    Some(d) => d,
                    // No path from the anchor down to i means the graph sees
                    // i at-or-above the anchor; i sits at the anchor's round
                    // plus its lead (clamped into the window).
                    None => -closure.get(i, anchor).unwrap_or(0),
                }
            };
            next[i] = anchor_round - d;
            if new_leaders.contains(&i) {
                next[i] = anchor_round;
            }
            if next[i] > anchor_round && !new_leaders.is_empty() {
                // With a fresh anchor nothing should sit above it.
                self.violations.push(RoundViolation::AboveAnchor {
                    pid: i,
                    scan: self.scans_seen,
                });
            }
        }

        for (i, &proposed) in next.iter().enumerate() {
            // The fundamental lemma: virtual rounds never decrease.
            let lo = self.rounds[i];
            if proposed < lo {
                self.violations.push(RoundViolation::NonMonotonic {
                    pid: i,
                    scan: self.scans_seen,
                    rounds: (lo, proposed),
                });
            }
            self.rounds[i] = proposed.max(lo);
        }

        // Lemma 6.5: once someone decided in round r, nobody runs past r+2.
        if let Some(decided_at) = self.decided_at {
            for (pid, &r) in self.rounds.iter().enumerate() {
                if r > decided_at + 2 {
                    self.violations.push(RoundViolation::RanPastDecision {
                        pid,
                        round: r,
                        decided_at,
                    });
                }
            }
        }

        self.prev_view = Some(view.to_vec());
        self.scans_seen += 1;
    }
}

/// Runs the bounded protocol under the given adversary while feeding every
/// scan to a [`VirtualRoundTracker`]; returns the report, the tracker and
/// each process's decision.
///
/// Agreement and validity are asserted here so every caller gets them
/// checked for free.
pub fn check_execution(
    params: &crate::bounded::ConsensusParams,
    inputs: &[bool],
    seed: u64,
    adversary: &mut dyn bprc_sim::Strategy<bprc_sim::turn::Turn<ProcState>>,
    max_events: u64,
) -> (bprc_sim::turn::TurnReport<bool>, VirtualRoundTracker) {
    use std::cell::RefCell;
    use std::rc::Rc;

    let n = params.n();
    let tracker = Rc::new(RefCell::new(VirtualRoundTracker::new(n, params.k())));

    /// Wraps a core so every scan view is also fed to the tracker.
    struct Traced {
        inner: crate::bounded::BoundedCore,
        tracker: Rc<RefCell<VirtualRoundTracker>>,
    }
    impl bprc_sim::turn::TurnProcess for Traced {
        type Msg = ProcState;
        type Out = bool;
        fn initial_msg(&mut self) -> ProcState {
            bprc_sim::turn::TurnProcess::initial_msg(&mut self.inner)
        }
        fn on_scan(&mut self, view: &[ProcState]) -> bprc_sim::turn::TurnStep<ProcState, bool> {
            self.tracker.borrow_mut().observe(view);
            let step = self.inner.on_view(view);
            if matches!(step, bprc_sim::turn::TurnStep::Decide(_)) {
                self.tracker.borrow_mut().record_decision(self.inner.pid());
            }
            step
        }
    }

    let procs: Vec<Traced> = (0..n)
        .map(|p| Traced {
            inner: crate::bounded::BoundedCore::new(
                params.clone(),
                p,
                inputs[p],
                bprc_sim::rng::derive_seed(seed, p as u64),
            ),
            tracker: Rc::clone(&tracker),
        })
        .collect();
    let report = bprc_sim::turn::TurnDriver::new(procs).run(adversary, max_events);

    // Agreement.
    let distinct = report.distinct_outputs();
    assert!(
        distinct.len() <= 1,
        "agreement violated: {:?}",
        report.outputs
    );
    // Validity.
    if let Some(&&v) = distinct.first() {
        assert!(
            inputs.contains(&v),
            "validity violated: decided {v} with inputs {inputs:?}"
        );
    }

    let tracker = Rc::try_unwrap(tracker)
        .expect("all cores dropped")
        .into_inner();
    (report, tracker)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounded::ConsensusParams;
    use bprc_sim::sched::{RandomStrategy, RoundRobin};

    #[test]
    fn virtual_rounds_are_monotone_under_random_schedules() {
        for seed in 0..15 {
            let params = ConsensusParams::quick(3);
            let inputs = [true, false, true];
            let (report, tracker) = check_execution(
                &params,
                &inputs,
                seed,
                &mut RandomStrategy::new(seed),
                3_000_000,
            );
            assert!(report.completed, "seed {seed}");
            assert!(
                tracker.violations().is_empty(),
                "seed {seed}: {:?}",
                tracker.violations()
            );
        }
    }

    #[test]
    fn virtual_rounds_are_monotone_under_round_robin() {
        let params = ConsensusParams::quick(4);
        let inputs = [false, true, false, true];
        let (report, tracker) =
            check_execution(&params, &inputs, 3, &mut RoundRobin::new(), 3_000_000);
        assert!(report.completed);
        assert!(
            tracker.violations().is_empty(),
            "{:?}",
            tracker.violations()
        );
    }

    #[test]
    fn lemma_6_5_holds_under_protocol_aware_adversaries() {
        use crate::adversaries::{LeaderStarver, SplitAdversary};
        for seed in 0..6 {
            let params = ConsensusParams::quick(3);
            let inputs = [true, false, true];
            let (report, tracker) = check_execution(
                &params,
                &inputs,
                seed,
                &mut SplitAdversary::new(params.k(), seed),
                5_000_000,
            );
            assert!(report.completed, "split seed {seed}");
            assert!(
                tracker.violations().is_empty(),
                "split seed {seed}: {:?}",
                tracker.violations()
            );

            let (report, tracker) = check_execution(
                &params,
                &inputs,
                seed,
                &mut LeaderStarver::new(params.k()),
                5_000_000,
            );
            assert!(report.completed, "starver seed {seed}");
            assert!(
                tracker.violations().is_empty(),
                "starver seed {seed}: {:?}",
                tracker.violations()
            );
        }
    }

    #[test]
    fn rounds_advance_with_the_execution() {
        // Mixed inputs force at least one real round advance before any
        // decision (unanimous inputs decide at the very first scan, where
        // no inc is yet visible).
        let params = ConsensusParams::quick(2);
        let (_, tracker) = check_execution(
            &params,
            &[true, false],
            1,
            &mut RoundRobin::new(),
            1_000_000,
        );
        assert!(
            tracker.rounds().iter().any(|&r| r > 0),
            "someone must have advanced: {:?}",
            tracker.rounds()
        );
    }
}
