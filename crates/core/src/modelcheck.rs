//! Exhaustive small-scope model checking of turn-level protocols.
//!
//! Monte-Carlo testing samples schedules; this module *enumerates* them.
//! For small configurations it explores **every** reachable state of the
//! scan/write state space — every adversary choice **and every local coin
//! outcome** — and verifies the safety properties on each path:
//!
//! * **agreement** — no two decisions differ;
//! * **validity** — every decision satisfies the caller's predicate
//!   (typically "is some process's input").
//!
//! Termination is *probabilistic* in randomized consensus (an adversary plus
//! an unlucky flip sequence can run forever), so the checker does not flag
//! non-terminating cycles; it deduplicates visited states, so exploration
//! itself always terminates on the protocol's finite (bounded!) state
//! space. That the bounded protocol *has* a finite state space — unlike
//! \[AH88\], which this checker could never exhaust — is the paper's
//! contribution, and what makes exhaustive verification possible at all.
//!
//! A search node is the turn driver's own [`TurnState`], and an edge is
//! one [`TurnState::step`], so the checker and
//! [`TurnDriver`](bprc_sim::turn::TurnDriver) take the same transitions; a
//! crash sets the victim's phase to [`Phase::Done`] without an output.
//! Flip branching works through the process's own local coin, reached by
//! [`Checkable::flips_mut`] and set to a [`Flips::Queue`]: before stepping
//! a scan the checker pushes one predetermined outcome; if the step
//! consumed it, the other outcome is explored from a snapshot too.
//!
//! The results reach the verification gate as its `mc-consensus-*` rows
//! (`experiments verify-gate`): bounded consensus at n = 2 over the atomic
//! snapshot, b and m ≤ 2, with and without one crash, each exhausted.

use std::collections::{HashSet, VecDeque};
use std::hash::Hash;

use bprc_coin::Flips;
use bprc_sim::sched::Decision;
use bprc_sim::turn::{Phase, TurnProcess, TurnState};

/// A protocol the checker can drive: a clonable turn process whose local
/// coin is a [`Flips::queue`] the checker loads with predetermined
/// outcomes.
pub trait Checkable: TurnProcess + Clone {
    /// The local coin the next scan draws from.
    fn flips_mut(&mut self) -> &mut Flips;
}

impl Checkable for crate::bounded::BoundedCore {
    fn flips_mut(&mut self) -> &mut Flips {
        self.flips_mut()
    }
}

impl Checkable for crate::multivalued::MvCore {
    fn flips_mut(&mut self) -> &mut Flips {
        self.inner_core_mut().flips_mut()
    }
}

impl<S: crate::multishot::ProposalSource + Clone> Checkable for crate::multishot::LogCore<S> {
    fn flips_mut(&mut self) -> &mut Flips {
        self.inner_core_mut().flips_mut()
    }
}

impl Checkable for crate::baselines::RoundCore {
    fn flips_mut(&mut self) -> &mut Flips {
        self.flips_mut()
    }
}

/// Search limits.
#[derive(Debug, Clone, Copy)]
pub struct McConfig {
    /// Maximum states to expand before giving up (safety valve).
    pub max_states: usize,
    /// Maximum search depth (path length); with state dedup a depth equal
    /// to `max_states` never truncates first.
    pub max_depth: usize,
    /// Also branch on crash faults: at every state the adversary may crash
    /// any active process, as long as at least one process survives.
    /// Roughly doubles the state space per crashable process.
    pub with_crashes: bool,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            max_states: 2_000_000,
            max_depth: 2_000_000,
            with_crashes: false,
        }
    }
}

/// One step of a counterexample trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McEvent {
    /// The adversary's choice: [`Decision::Grant`] steps the process,
    /// [`Decision::Crash`] crashes it.
    pub decision: Decision,
    /// The flip outcome injected for this step, if the step flipped.
    pub flip: Option<bool>,
}

/// A safety violation found by the checker.
#[derive(Debug, Clone)]
pub struct Violation<O = bool> {
    /// What went wrong.
    pub kind: ViolationKind<O>,
    /// The schedule (from the initial state) that exhibits it.
    pub trace: Vec<McEvent>,
}

/// The kinds of safety violations checked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind<O = bool> {
    /// Two processes decided different values.
    Agreement {
        /// The two decisions.
        values: (O, O),
    },
    /// A decision failed the validity predicate.
    Validity {
        /// The offending decision.
        value: O,
    },
}

/// What the exhaustive search found.
#[derive(Debug, Clone)]
pub struct McReport<O = bool> {
    /// Distinct states expanded.
    pub states: usize,
    /// Paths that ended with every process decided.
    pub complete_paths: usize,
    /// True if the search hit `max_states` or `max_depth` before finishing.
    pub truncated: bool,
    /// Crash branches taken: edges from an expanded state on which the
    /// adversary crashes a process (0 unless `with_crashes`).
    pub crash_branches: usize,
    /// The first safety violation found, if any.
    pub violation: Option<Violation<O>>,
    /// Distinct decision values seen across all explored paths.
    pub decisions_seen: Vec<O>,
}

/// Exhaustively explores the protocol from its initial state.
///
/// `procs` are the (already constructed) per-process state machines;
/// `initial_shared` the registers' initial contents (processes' first
/// writes are pending events, as in [`TurnState::new`]); `valid` is the
/// validity predicate for decisions.
///
/// The frontier is first in, first out, so every state is expanded at its
/// least depth: `max_depth` cuts exactly the longer paths, and a
/// counterexample comes out shortest.
pub fn check<P>(
    procs: Vec<P>,
    initial_shared: Vec<P::Msg>,
    valid: impl Fn(&P::Out) -> bool,
    cfg: McConfig,
) -> McReport<P::Out>
where
    P: Checkable,
    P::Msg: Clone + Eq + Hash,
    P::Out: Clone + Eq + Hash + std::fmt::Debug,
{
    let root = TurnState::new(procs, initial_shared);
    let n = root.procs.len();

    let mut visited = HashSet::new();
    // Arena of expanded nodes: (parent arena id, event from the parent).
    let mut arena: Vec<(usize, Option<McEvent>)> = Vec::new();
    // Frontier: (node, parent arena id, event from the parent, depth).
    let mut frontier: VecDeque<(TurnState<P>, usize, Option<McEvent>, usize)> =
        VecDeque::from([(root, usize::MAX, None, 0)]);

    let mut report = McReport {
        states: 0,
        complete_paths: 0,
        truncated: false,
        crash_branches: 0,
        violation: None,
        decisions_seen: Vec::new(),
    };

    while let Some((node, parent, event, depth)) = frontier.pop_front() {
        let active: Vec<usize> = (0..n)
            .filter(|&p| !matches!(node.phases[p], Phase::Done))
            .collect();
        if active.is_empty() {
            report.complete_paths += 1;
            continue;
        }
        if report.states >= cfg.max_states || depth >= cfg.max_depth {
            report.truncated = true;
            continue;
        }
        // The canonical image: a crashed process is Done without an output.
        let canon = (
            node.shared.clone(),
            node.phases.clone(),
            node.outputs.clone(),
        );
        if !visited.insert(canon) {
            continue;
        }
        let id = arena.len();
        arena.push((parent, event));
        report.states += 1;

        for &pid in &active {
            // Probe whether a scan consumes a flip: if it does, branch on
            // both outcomes; if not, step a clean clone so no stray queued
            // outcome pollutes the state.
            let flips: &[Option<bool>] = match node.phases[pid] {
                Phase::Scan => {
                    let mut probe = node.clone();
                    probe.procs[pid].flips_mut().push_outcome(false);
                    probe.step(pid);
                    if probe.procs[pid].flips_mut().queued() == 0 {
                        &[Some(false), Some(true)]
                    } else {
                        &[None]
                    }
                }
                _ => &[None],
            };
            for &flip in flips {
                let mut child = node.clone();
                if let Some(heads) = flip {
                    child.procs[pid].flips_mut().push_outcome(heads);
                }
                child.step(pid);
                debug_assert_eq!(child.procs[pid].flips_mut().queued(), 0);
                let ev = McEvent {
                    decision: Decision::Grant(pid),
                    flip,
                };
                // An active pid has no output yet, so an output is this step's decision.
                if let Some(v) = child.outputs[pid].clone() {
                    if !report.decisions_seen.contains(&v) {
                        report.decisions_seen.push(v.clone());
                    }
                    if let Err(viol) = validate(&node.outputs, v, &valid, &arena, id, ev) {
                        report.violation = Some(viol);
                        return report;
                    }
                }
                frontier.push_back((child, id, Some(ev), depth + 1));
            }
        }
        if cfg.with_crashes && active.len() >= 2 {
            // The adversary may crash any active process (leaving at least
            // one survivor overall). A crashed process's pending write is
            // lost; encode the crash as phase = Done without a decision.
            for &pid in &active {
                let mut child = node.clone();
                child.phases[pid] = Phase::Done;
                let crash = McEvent {
                    decision: Decision::Crash(pid),
                    flip: None,
                };
                frontier.push_back((child, id, Some(crash), depth + 1));
                report.crash_branches += 1;
            }
        }
    }
    report
}

/// Checks a fresh decision against agreement (with the decisions in
/// `outputs`) and validity; on failure builds the counterexample trace from
/// the arena.
fn validate<O: Clone + PartialEq>(
    outputs: &[Option<O>],
    v: O,
    valid: &impl Fn(&O) -> bool,
    arena: &[(usize, Option<McEvent>)],
    parent_id: usize,
    event: McEvent,
) -> Result<(), Violation<O>> {
    let kind = if let Some(other) = outputs.iter().flatten().find(|&o| *o != v) {
        Some(ViolationKind::Agreement {
            values: (other.clone(), v),
        })
    } else if !valid(&v) {
        Some(ViolationKind::Validity { value: v })
    } else {
        None
    };
    let Some(kind) = kind else { return Ok(()) };
    let mut trace = vec![event];
    let mut at = parent_id;
    while at != usize::MAX {
        let (parent, ev) = arena[at];
        trace.extend(ev);
        at = parent;
    }
    trace.reverse();
    Err(Violation { kind, trace })
}

/// Convenience wrapper: exhaustively checks the bounded consensus protocol
/// for the given inputs and parameters, with phantom initial registers and
/// validity = "decision is some process's input".
pub fn check_bounded(
    params: &crate::bounded::ConsensusParams,
    inputs: &[bool],
    cfg: McConfig,
) -> McReport<bool> {
    use crate::bounded::BoundedCore;
    use crate::state::ProcState;

    let n = params.n();
    assert_eq!(inputs.len(), n, "one input per process");
    let procs: Vec<BoundedCore> = (0..n)
        .map(|p| BoundedCore::with_flips(params.clone(), p, inputs[p], Flips::queue()))
        .collect();
    let shared = vec![ProcState::phantom(params.layout()); n];
    let inputs = inputs.to_vec();
    check(procs, shared, |v| inputs.contains(v), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounded::{BoundedCore, ConsensusParams};
    use crate::state::ProcState;
    use bprc_coin::CoinParams;
    use bprc_sim::turn::TurnStep;

    fn tiny_params(n: usize) -> ConsensusParams {
        // Smallest sensible coin: b = 1, m = 1 — counters in ±2, barrier n.
        ConsensusParams::new(n, CoinParams::new(n, 1, 1))
    }

    /// Exhausted without truncation or violation.
    fn verified<O>(report: &McReport<O>) -> bool {
        !report.truncated && report.violation.is_none()
    }

    #[test]
    fn exhaustive_n2_unanimous() {
        for v in [false, true] {
            let report = check_bounded(&tiny_params(2), &[v, v], McConfig::default());
            assert!(verified(&report), "violation: {:?}", report.violation);
            assert_eq!(report.decisions_seen, vec![v], "only the input decided");
            assert!(report.complete_paths > 0);
            assert!(report.states > 10);
        }
    }

    #[test]
    fn exhaustive_n2_mixed() {
        let report = check_bounded(&tiny_params(2), &[false, true], McConfig::default());
        assert!(
            verified(&report),
            "violation: {:?}, states {}",
            report.violation,
            report.states
        );
        // Both outcomes must be reachable (the adversary can steer either
        // way with mixed inputs).
        let mut seen = report.decisions_seen.clone();
        seen.sort_unstable();
        assert_eq!(seen, vec![false, true]);
        assert!(report.states > 100);
        assert_eq!(report.crash_branches, 0);
    }

    /// A deliberately broken protocol: decides its own input at its first
    /// scan. The checker must find the agreement violation — this is the
    /// falsifiability test for the checker itself.
    #[derive(Clone)]
    struct EagerDecider {
        inner: BoundedCore,
        input: bool,
    }

    impl bprc_sim::turn::TurnProcess for EagerDecider {
        type Msg = ProcState;
        type Out = bool;
        fn initial_msg(&mut self) -> ProcState {
            bprc_sim::turn::TurnProcess::initial_msg(&mut self.inner)
        }
        fn on_scan(&mut self, _view: &[ProcState]) -> TurnStep<ProcState, bool> {
            TurnStep::Decide(self.input)
        }
    }

    impl Checkable for EagerDecider {
        fn flips_mut(&mut self) -> &mut Flips {
            self.inner.flips_mut()
        }
    }

    #[test]
    fn checker_finds_agreement_violations() {
        let params = tiny_params(2);
        let procs: Vec<EagerDecider> = (0..2)
            .map(|p| EagerDecider {
                inner: BoundedCore::with_flips(params.clone(), p, p == 0, Flips::queue()),
                input: p == 0,
            })
            .collect();
        let shared = vec![ProcState::phantom(params.layout()); 2];
        let report = check(procs, shared, |_: &bool| true, McConfig::default());
        let v = report.violation.expect("must catch the disagreement");
        assert!(matches!(v.kind, ViolationKind::Agreement { .. }));
        assert!(!v.trace.is_empty(), "counterexample trace provided");
        // The fixture never flips, so no step of its trace consumed a flip.
        assert!(v.trace.iter().all(|ev| ev.flip.is_none()), "{:?}", v.trace);
    }

    #[test]
    fn exhaustive_n2_mixed_with_crashes() {
        // Every schedule, every flip, AND every crash pattern (≥1 survivor):
        // still zero violations, still exhaustive.
        let report = check_bounded(
            &tiny_params(2),
            &[false, true],
            McConfig {
                with_crashes: true,
                ..McConfig::default()
            },
        );
        assert!(
            verified(&report),
            "violation: {:?}, states {}",
            report.violation,
            report.states
        );
        assert!(
            report.states > 100_000,
            "crash branching should enlarge the space: {}",
            report.states
        );
        assert!(report.crash_branches > 0);
    }

    /// A protocol over registers holding 0..=3: a scan reads `(own, other)`
    /// and looks up the next write in `table`, where 255 means decide. It
    /// never draws from its coin, so the checker never branches on one.
    #[derive(Clone)]
    struct TableProc {
        pid: usize,
        table: [[u8; 4]; 4],
        initial: u8,
        flips: Flips,
    }

    impl bprc_sim::turn::TurnProcess for TableProc {
        type Msg = u8;
        type Out = u8;
        fn initial_msg(&mut self) -> u8 {
            self.initial
        }
        fn on_scan(&mut self, view: &[u8]) -> TurnStep<u8, u8> {
            let (own, other) = (view[self.pid] % 4, view[1 - self.pid] % 4);
            match self.table[usize::from(own)][usize::from(other)] {
                255 => TurnStep::Decide(own),
                next => TurnStep::Write(next),
            }
        }
    }

    impl Checkable for TableProc {
        fn flips_mut(&mut self) -> &mut Flips {
            &mut self.flips
        }
    }

    type Tables = [[[u8; 4]; 4]; 2];

    fn table_procs(tables: Tables, initials: [u8; 2]) -> Vec<TableProc> {
        let proc = |pid| TableProc {
            pid,
            table: tables[pid],
            initial: initials[pid],
            flips: Flips::queue(),
        };
        vec![proc(0), proc(1)]
    }

    /// Whether some schedule of at most `budget` events decides: a plain
    /// tree search, no state deduplication.
    fn decides_within(state: &TurnState<TableProc>, budget: usize) -> bool {
        let decides = |pid| {
            let mut child = state.clone();
            child.step(pid);
            child.outputs[pid].is_some() || decides_within(&child, budget - 1)
        };
        budget > 0 && (0..2).any(|p| !matches!(state.phases[p], Phase::Done) && decides(p))
    }

    /// Every decision is invalid here, so the checker must report a
    /// violation iff some schedule decides within `max_depth` events; the
    /// counterexample, if any.
    fn check_tables(tables: Tables, initials: [u8; 2], max_depth: usize) -> Option<Violation<u8>> {
        let cfg = McConfig {
            max_depth,
            ..McConfig::default()
        };
        check(table_procs(tables, initials), vec![0, 0], |_| false, cfg).violation
    }

    /// p0 alone decides within 4 events (write 2, scan, write 3, scan), so
    /// a depth bound of 8 must find it, however long the path on which the
    /// search first meets the states along the way.
    #[test]
    fn depth_bound_keeps_violations_inside_it() {
        let p0 = [[1, 0, 0, 3], [0, 0, 3, 0], [3, 1, 0, 3], [255, 2, 3, 255]];
        let p1 = [[0, 3, 2, 0], [0, 1, 0, 3], [1, 0, 2, 255], [0, 255, 2, 2]];
        let v = check_tables([p0, p1], [2, 2], 8).expect("a decision within the bound");
        assert_eq!(v.trace.len(), 4, "shortest counterexample: {:?}", v.trace);
    }

    /// Seeded random table protocols at depth bounds 2..=11: the checker
    /// finds a violation exactly when the tree search finds a decision.
    #[test]
    fn depth_bounded_check_agrees_with_tree_search() {
        use bprc_sim::rng::stream_rng;
        use rand::Rng;
        for case in 0..300 {
            let mut rng = stream_rng(0x4D43, case);
            let mut tables: Tables = Default::default();
            for cell in tables.iter_mut().flatten().flatten() {
                *cell = if rng.gen_bool(0.2) {
                    255
                } else {
                    rng.gen_range(0..4u32) as u8
                };
            }
            let initials = [0, 1].map(|_| rng.gen_range(0..4u32) as u8);
            let depth = rng.gen_range(2..12);
            let root = TurnState::new(table_procs(tables, initials), vec![0, 0]);
            assert_eq!(
                check_tables(tables, initials, depth).is_some(),
                decides_within(&root, depth),
                "case {case}: {tables:?}, initial writes {initials:?}, depth {depth}"
            );
        }
    }

    #[test]
    fn multivalued_bounded_verification() {
        // The multivalued reduction, explored up to a state budget: every
        // reachable decision within the explored prefix must agree and be
        // one of the proposals. (The full space is much larger than the
        // binary protocol's; this is bounded verification, not exhaustion.)
        use crate::multivalued::{MvCore, MvState};
        let params = tiny_params(2);
        let values = [2u64, 1];
        let width = 2;
        let procs: Vec<MvCore> = (0..2)
            .map(|p| MvCore::with_queue_flips(params.clone(), p, values[p], width))
            .collect();
        let shared = vec![MvState::phantom(params.layout()); 2];
        let report = check(
            procs,
            shared,
            |v: &u64| values.contains(v),
            McConfig {
                max_states: 120_000,
                ..McConfig::default()
            },
        );
        assert!(
            report.violation.is_none(),
            "violation: {:?}",
            report.violation
        );
        assert!(report.states > 50_000, "explored {} states", report.states);
    }

    #[test]
    fn multishot_bounded_verification() {
        // The multi-shot log, explored up to a state budget: a replica that
        // decides slot 0 restarts its cores in place for slot 1 (`rejoin`,
        // `restart`), on every schedule the search reaches. Every log decided
        // within the explored prefix must agree and hold, slot by slot, one
        // of the proposals. Both slots are disputed, so a core that carried
        // anything of slot 0 into slot 1 would show here.
        use crate::multishot::{LogCore, LogMsg, StaticProposals};
        let params = tiny_params(2);
        let proposals = [vec![0u64, 1], vec![1, 0]];
        let procs: Vec<LogCore<StaticProposals>> = (0..2)
            .map(|p| {
                let source = StaticProposals(proposals[p].clone());
                LogCore::with_queue_flips(params.clone(), p, 2, 1, source)
            })
            .collect();
        let shared = vec![LogMsg { slots: Vec::new() }; 2];
        let report = check(
            procs,
            shared,
            |log: &Vec<u64>| {
                log.len() == 2 && (0..2).all(|s| proposals.iter().any(|pp| pp[s] == log[s]))
            },
            McConfig {
                max_states: 120_000,
                ..McConfig::default()
            },
        );
        assert!(
            report.violation.is_none(),
            "violation: {:?}",
            report.violation
        );
        assert!(report.states > 50_000, "explored {} states", report.states);
        assert!(
            !report.decisions_seen.is_empty(),
            "no explored path decided both slots"
        );
    }

    #[test]
    fn truncation_is_reported() {
        let report = check_bounded(
            &tiny_params(2),
            &[false, true],
            McConfig {
                max_states: 50,
                max_depth: 50,
                ..McConfig::default()
            },
        );
        assert!(report.truncated);
        assert!(!verified(&report));
        assert!(report.violation.is_none(), "truncation is not a violation");
    }
}
