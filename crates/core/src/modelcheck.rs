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
//! Flip branching works through [`bprc_coin::Flips::Queue`]: before stepping a scan
//! the checker loads one predetermined outcome; if the step consumed it,
//! the other outcome is explored from a snapshot too.

use std::collections::HashSet;
use std::hash::Hash;

use bprc_sim::sched::Decision;
use bprc_sim::turn::{Phase, TurnProcess, TurnStep};

/// A protocol the checker can drive: a clonable turn process whose local
/// randomness can be fed predetermined outcomes.
pub trait Checkable: TurnProcess + Clone {
    /// Loads one predetermined flip outcome.
    fn load_flip(&mut self, heads: bool);
    /// Number of loaded-but-unconsumed outcomes.
    fn pending_flips(&self) -> usize;
}

impl Checkable for crate::bounded::BoundedCore {
    fn load_flip(&mut self, heads: bool) {
        self.flips_mut().push_outcome(heads);
    }

    fn pending_flips(&self) -> usize {
        self.flips().queued()
    }
}

impl Checkable for crate::multivalued::MvCore {
    fn load_flip(&mut self, heads: bool) {
        self.inner_core_mut().flips_mut().push_outcome(heads);
    }

    fn pending_flips(&self) -> usize {
        self.inner_core().flips().queued()
    }
}

impl Checkable for crate::baselines::abrahamson::LocalCoinCore {
    fn load_flip(&mut self, heads: bool) {
        self.flips_mut().push_outcome(heads);
    }

    fn pending_flips(&self) -> usize {
        self.flips().queued()
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
    /// The first safety violation found, if any.
    pub violation: Option<Violation<O>>,
    /// Distinct decision values seen across all explored paths.
    pub decisions_seen: Vec<O>,
}

impl<O> McReport<O> {
    /// True if no violation was found and the space was fully explored.
    pub fn verified(&self) -> bool {
        self.violation.is_none() && !self.truncated
    }
}

/// Canonical (behaviour-determining) image of a search node, used for
/// visited-state deduplication.
type Canon<M, O> = (Vec<M>, Vec<Phase<M>>, Vec<Option<O>>);

#[derive(Clone)]
struct Node<P: Checkable> {
    procs: Vec<P>,
    shared: Vec<P::Msg>,
    phases: Vec<Phase<P::Msg>>,
    decided: Vec<Option<P::Out>>,
    crashed: Vec<bool>,
}

impl<P: Checkable> Node<P>
where
    P::Msg: Clone + Eq + Hash,
    P::Out: Clone + Eq + Hash,
{
    fn canon(&self) -> Canon<P::Msg, P::Out> {
        // Crashed processes are encoded by setting their phase to Done in
        // `crash_process`, so (shared, phases, decided) stays canonical.
        (
            self.shared.clone(),
            self.phases.clone(),
            self.decided.clone(),
        )
    }

    fn active(&self) -> Vec<usize> {
        (0..self.procs.len())
            .filter(|&p| !matches!(self.phases[p], Phase::Done) && !self.crashed[p])
            .collect()
    }
}

/// Exhaustively explores the protocol from its initial state.
///
/// `procs` are the (already constructed) per-process state machines;
/// `initial_shared` the registers' initial contents (processes' first
/// writes are pending events, as in
/// [`TurnDriver::with_initial_shared`](bprc_sim::turn::TurnDriver::with_initial_shared));
/// `valid` is the validity predicate for decisions.
pub fn check<P>(
    mut procs: Vec<P>,
    initial_shared: Vec<P::Msg>,
    valid: impl Fn(&P::Out) -> bool,
    cfg: McConfig,
) -> McReport<P::Out>
where
    P: Checkable,
    P::Msg: Clone + Eq + Hash,
    P::Out: Clone + Eq + Hash + std::fmt::Debug,
{
    assert_eq!(
        procs.len(),
        initial_shared.len(),
        "one register per process"
    );
    let n = procs.len();
    let phases: Vec<Phase<P::Msg>> = procs
        .iter_mut()
        .map(|p| Phase::Write(p.initial_msg()))
        .collect();
    let root = Node {
        procs,
        shared: initial_shared,
        phases,
        decided: vec![None; n],
        crashed: vec![false; n],
    };

    let mut visited: HashSet<Canon<P::Msg, P::Out>> = HashSet::new();
    // Arena of expanded nodes: (parent arena id, event from the parent).
    let mut arena: Vec<(usize, Option<McEvent>)> = Vec::new();
    // DFS stack: (node, parent arena id, event from the parent, depth).
    let mut stack: Vec<(Node<P>, usize, Option<McEvent>, usize)> =
        vec![(root, usize::MAX, None, 0)];

    let mut report = McReport {
        states: 0,
        complete_paths: 0,
        truncated: false,
        violation: None,
        decisions_seen: Vec::new(),
    };

    while let Some((node, parent, event, depth)) = stack.pop() {
        let active = node.active();
        if active.is_empty() {
            report.complete_paths += 1;
            continue;
        }
        if report.states >= cfg.max_states || depth >= cfg.max_depth {
            report.truncated = true;
            continue;
        }
        if !visited.insert(node.canon()) {
            continue;
        }
        let id = arena.len();
        arena.push((parent, event));
        report.states += 1;

        for &pid in &active {
            match &node.phases[pid] {
                Phase::Write(m) => {
                    let mut child = node.clone();
                    child.shared[pid] = m.clone();
                    child.phases[pid] = Phase::Scan;
                    stack.push((
                        child,
                        id,
                        Some(McEvent {
                            decision: Decision::Grant(pid),
                            flip: None,
                        }),
                        depth + 1,
                    ));
                }
                Phase::Scan => {
                    // Probe whether this scan consumes a flip: if it does,
                    // branch on both outcomes; if not, re-run on a clean
                    // clone so no stray queued outcome pollutes the state.
                    let mut probe = node.clone();
                    probe.procs[pid].load_flip(false);
                    let _ = probe.procs[pid].on_scan(&probe.shared);
                    let flips: &[Option<bool>] = if probe.procs[pid].pending_flips() == 0 {
                        &[Some(false), Some(true)]
                    } else {
                        &[None]
                    };
                    for &flip in flips {
                        let mut child = node.clone();
                        if let Some(heads) = flip {
                            child.procs[pid].load_flip(heads);
                        }
                        let step = child.procs[pid].on_scan(&child.shared);
                        debug_assert_eq!(child.procs[pid].pending_flips(), 0);
                        let ev = McEvent {
                            decision: Decision::Grant(pid),
                            flip,
                        };
                        if let Some(v) = apply_step(&mut child, pid, step, &mut report) {
                            if let Err(viol) = validate::<P>(&node, v, &valid, &arena, id, ev) {
                                report.violation = Some(viol);
                                return report;
                            }
                        }
                        stack.push((child, id, Some(ev), depth + 1));
                    }
                }
                Phase::Done => unreachable!("inactive process in active set"),
            }
        }
        if cfg.with_crashes && active.len() >= 2 {
            // The adversary may crash any active process (leaving at least
            // one survivor overall). A crashed process's pending write is
            // lost; encode the crash as phase = Done without a decision.
            for &pid in &active {
                let mut child = node.clone();
                child.crashed[pid] = true;
                child.phases[pid] = Phase::Done;
                stack.push((
                    child,
                    id,
                    Some(McEvent {
                        decision: Decision::Crash(pid),
                        flip: None,
                    }),
                    depth + 1,
                ));
            }
        }
    }
    report
}

/// Applies a turn step to a child node; returns the decision if one was
/// made.
fn apply_step<P>(
    child: &mut Node<P>,
    pid: usize,
    step: TurnStep<P::Msg, P::Out>,
    report: &mut McReport<P::Out>,
) -> Option<P::Out>
where
    P: Checkable,
    P::Msg: Clone + Eq + Hash,
    P::Out: Clone + Eq + Hash,
{
    match step {
        TurnStep::Write(m) => {
            child.phases[pid] = Phase::Write(m);
            None
        }
        TurnStep::Decide(v) => {
            child.decided[pid] = Some(v.clone());
            child.phases[pid] = Phase::Done;
            if !report.decisions_seen.contains(&v) {
                report.decisions_seen.push(v.clone());
            }
            Some(v)
        }
    }
}

/// Checks a fresh decision against agreement + validity; on failure builds
/// the counterexample trace from the arena.
fn validate<P>(
    parent: &Node<P>,
    v: P::Out,
    valid: &impl Fn(&P::Out) -> bool,
    arena: &[(usize, Option<McEvent>)],
    parent_id: usize,
    event: McEvent,
) -> Result<(), Violation<P::Out>>
where
    P: Checkable,
    P::Msg: Clone + Eq + Hash,
    P::Out: Clone + Eq + Hash,
{
    let kind = if let Some(other) = parent.decided.iter().flatten().find(|&o| *o != v) {
        Some(ViolationKind::Agreement {
            values: (other.clone(), v),
        })
    } else if !valid(&v) {
        Some(ViolationKind::Validity { value: v })
    } else {
        None
    };
    match kind {
        None => Ok(()),
        Some(kind) => {
            let mut trace = vec![event];
            let mut at = parent_id;
            while at != usize::MAX {
                let (parent, ev) = arena[at];
                if let Some(ev) = ev {
                    trace.push(ev);
                }
                at = parent;
            }
            trace.reverse();
            Err(Violation { kind, trace })
        }
    }
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
    use bprc_coin::Flips;

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
    use bprc_coin::{CoinParams, Flips};
    use bprc_sim::turn::TurnStep;

    fn tiny_params(n: usize) -> ConsensusParams {
        // Smallest sensible coin: b = 1, m = 1 — counters in ±2, barrier n.
        ConsensusParams::new(n, CoinParams::new(n, 1, 1))
    }

    #[test]
    fn exhaustive_n2_unanimous() {
        for v in [false, true] {
            let report = check_bounded(&tiny_params(2), &[v, v], McConfig::default());
            assert!(report.verified(), "violation: {:?}", report.violation);
            assert_eq!(report.decisions_seen, vec![v], "only the input decided");
            assert!(report.complete_paths > 0);
            assert!(report.states > 10);
        }
    }

    #[test]
    fn exhaustive_n2_mixed() {
        let report = check_bounded(&tiny_params(2), &[false, true], McConfig::default());
        assert!(
            report.verified(),
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
        fn load_flip(&mut self, heads: bool) {
            self.inner.flips_mut().push_outcome(heads);
        }
        fn pending_flips(&self) -> usize {
            0
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
            report.verified(),
            "violation: {:?}, states {}",
            report.violation,
            report.states
        );
        assert!(
            report.states > 100_000,
            "crash branching should enlarge the space: {}",
            report.states
        );
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
                max_depth: 500_000,
                with_crashes: false,
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
        assert!(!report.verified());
        assert!(report.violation.is_none(), "truncation is not a violation");
    }
}
