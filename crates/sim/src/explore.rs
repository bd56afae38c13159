//! Systematic schedule-space exploration over the lockstep backend.
//!
//! Random strategies *sample* the schedule space; this module *enumerates*
//! it. Exploration is stateless model checking by re-execution: every
//! explored schedule is a fresh [`World`] run driven by a controller
//! strategy that replays a decision prefix recorded on earlier runs, then
//! extends it with the first unexplored choice. A depth-first stack of
//! decision nodes tracks, per quiescent point, which grants have been tried.
//!
//! # Soundness of the sleep-set reduction
//!
//! Exhaustive enumeration of all interleavings explodes; the explorer prunes
//! with *sleep sets* (Godefroid). After exploring choice `t` at a node, `t`
//! is put to sleep for the node's remaining branches; a child node inherits
//! the sleeping ops that are *independent* of the executed choice. A branch
//! whose every enabled process is asleep is provably redundant (covered by
//! an already-explored Mazurkiewicz-equivalent interleaving) and is
//! abandoned, counted in [`ExploreReport::pruned`].
//!
//! The reduction is sound exactly for checkers that cannot distinguish
//! equivalent interleavings, which makes the choice of independence
//! relation ([`ExploreConfig::independence`]) part of the claim:
//!
//! * [`Independence::DistinctRegisters`] — ops are independent when they
//!   target distinct registers or are both reads of the same one. In the
//!   lockstep model a process is runnable iff it is parked at a gate, so
//!   executing one access never enables or disables another — memory
//!   commutativity is the whole relation. Sound for checkers that inspect
//!   **process outputs** (flag principles, consensus agreement/validity):
//!   swapping commuting accesses changes no value any process reads.
//! * [`Independence::ReadsOnly`] — only read/read pairs are independent.
//!   Required for the **note-timestamped interval checkers** (snapshot
//!   P1–P3): an update's `upd:end` annotation rides in the segment after
//!   its store, so two writes to *distinct* value registers, though they
//!   commute as memory operations, order their update intervals in real
//!   time — and P2 verdicts depend on that order. (Concretely: scan reads
//!   `V0`, writer 0 completes, writer 1 completes, scan reads `V1` — the
//!   view `(old0, new1)` is torn iff writer 0 finished *before* writer 1.)
//!   Reads are invisible to the interval checker — they produce no stores
//!   and P3 compares sequence vectors, not timestamps — so read/read
//!   commutation is still sound, and scans keep pruning against each other.
//!
//! A shared caveat: soundness assumes bodies touch shared state only
//! through scheduled accesses (no `peek` inside bodies), which holds for
//! the whole protocol stack.
//!
//! # Faults as decisions
//!
//! With [`ExploreConfig::fault_budget`] > 0 the DFS additionally branches
//! on *crash injections*: at a decision point the adversary may crash a
//! process instead of granting one. Two rules keep the joint
//! schedule × fault space tractable and the reduction sound:
//!
//! * **Canonical crash placement** — a crash performs no memory access, so
//!   crashing `p` anywhere after `p`'s last step is equivalent (to any
//!   checker that does not read crash-event timestamps) to crashing it
//!   immediately after that step. The explorer only branches `Crash(p)`
//!   right after a `Grant(p)`, plus every enabled pid while no grant has
//!   occurred yet — which canonicalizes multi-crash prefixes too.
//! * **Crashes are dependent with everything** — a crash edge never enters
//!   a sleep set, and a node reached through a crash starts with an empty
//!   sleep set: survivors' behavior may depend on the victim's absence, so
//!   no sibling equivalence argument crosses a crash.
//!
//! # Replay artifacts
//!
//! A violating schedule is serialized as a [`DecisionTrace`] — the list of
//! [`TraceStep`] decisions (grants and crash injections), JSON-rendered via
//! [`crate::json`] under schema [`TRACE_SCHEMA`]; grants render as bare pid
//! numbers, so pre-fault trace documents still parse. Replay is a tolerant
//! [`FnStrategy`]: each listed step fires when its pid is runnable (skipped
//! otherwise), and after the trace is exhausted the lowest runnable pid
//! runs — so a *prefix* of a run is a complete, deterministic artifact.
//! [`shrink_trace`] greedily removes decisions — injected crashes included
//! — (suffix first, then interior) while the violation persists, yielding a
//! minimal forcing prefix.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::history::{OpKind, RegId};
use crate::json::Value;
use crate::metrics::{Counter, MetricsRegistry, Telemetry};
use crate::sched::{Decision, FnStrategy, PendingOp, ScheduleView, Strategy};
use crate::tracing::{Heartbeat, Histogram};
use crate::world::{Mode, ProcBody, RunReport, World};

/// JSON schema tag embedded in every serialized [`DecisionTrace`].
pub const TRACE_SCHEMA: &str = "bprc-trace-v1";

/// Which pairs of pending ops the sleep-set reduction may commute. Pick the
/// relation to match what the checker can observe — see the module docs'
/// soundness discussion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Independence {
    /// Independent when targeting distinct registers (or both reading the
    /// same one). Maximal pruning; sound for output-inspecting checkers.
    #[default]
    DistinctRegisters,
    /// Independent only when both ops are reads. Required for checkers
    /// that consume note timestamps (snapshot P1–P3), where even writes to
    /// distinct registers order the enclosing operation intervals.
    ReadsOnly,
}

/// Tuning knobs for [`explore`].
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Maximum decisions per path; deeper paths are cut and counted in
    /// [`ExploreReport::truncated`]. Keep ≤ ~40 for exhaustive runs.
    pub max_steps: u64,
    /// Safety valve: stop after this many world executions even if the
    /// space is not exhausted.
    pub max_schedules: u64,
    /// Enable the sleep-set partial-order reduction. Turning it off
    /// enumerates every interleaving — useful for cross-checking the
    /// reduction itself.
    pub reduction: bool,
    /// The independence relation the reduction prunes with; must be chosen
    /// to match the checker (see [`Independence`]).
    pub independence: Independence,
    /// Maximum crash decisions injected per schedule. `0` (the default)
    /// explores grants only; `k ≤ n−1` additionally branches on "crash
    /// process p here" at canonical placement points (see the module docs'
    /// fault-as-decision discussion).
    pub fault_budget: u64,
    /// Print a rate-limited progress heartbeat to stderr (schedules/sec,
    /// pruned, faults explored) while the exploration runs. Off by
    /// default; explorations finishing inside the first second stay
    /// silent either way.
    pub progress: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_steps: 40,
            max_schedules: 1_000_000,
            reduction: true,
            independence: Independence::DistinctRegisters,
            fault_budget: 0,
            progress: false,
        }
    }
}

/// A violating schedule found by [`explore`], ready to replay.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The decision prefix that forces the violation.
    pub trace: DecisionTrace,
    /// The checker's description of what went wrong.
    pub description: String,
}

/// What an exploration covered and found.
#[derive(Debug)]
pub struct ExploreReport {
    /// Complete (un-truncated, non-redundant) schedules executed and
    /// checked.
    pub schedules: u64,
    /// Branches skipped as redundant by the sleep-set reduction.
    pub pruned: u64,
    /// Paths cut by [`ExploreConfig::max_steps`] (still executed and
    /// checked as prefixes, but the subtree below the cut is abandoned).
    pub truncated: u64,
    /// Whether the bounded space was fully enumerated (no truncation, no
    /// `max_schedules` bail-out, no early stop on a violation).
    pub exhausted: bool,
    /// Deepest decision stack reached.
    pub max_depth: usize,
    /// First violation found, if any (exploration stops on it).
    pub violation: Option<Counterexample>,
    /// Explorer telemetry: `SchedulesExplored` / `SchedulesPruned` /
    /// `SchedulesTruncated` / `FaultsInjected` counters.
    pub telemetry: Telemetry,
    /// The [`ExploreConfig::fault_budget`] this exploration ran with.
    pub fault_budget: u64,
    /// Total crash decisions across all counted schedules.
    pub faults_injected: u64,
    /// Counted schedules bucketed by how many crash decisions they carried
    /// (index = crash count; length = `fault_budget + 1`).
    pub schedules_by_faults: Vec<u64>,
    /// Decision-path lengths of executed schedules (complete ones and
    /// truncated prefixes), power-of-two bucketed.
    pub schedule_lengths: Histogram,
}

/// One decision of a serialized schedule: grant a process its pending
/// access, crash it, or land one of its buffered stores (weak-memory
/// modes).
///
/// In the JSON form a grant renders as a bare pid number — so every
/// pre-fault `bprc-trace-v1` document still parses, as an all-grant trace —
/// a crash renders as the object `{"crash": pid}`, and a flush as
/// `{"flush": pid, "reg": reg}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceStep {
    /// Grant this pid its pending operation.
    Grant(usize),
    /// Crash this pid (it never takes another step).
    Crash(usize),
    /// Make this pid's oldest buffered store to `reg` globally visible.
    /// Nobody advances — flushes interleave *between* scheduled steps.
    Flush {
        /// The process whose store buffer is drained by one entry.
        pid: usize,
        /// The register the landing store targets.
        reg: RegId,
    },
}

impl TraceStep {
    /// The pid this step targets.
    pub fn pid(self) -> usize {
        match self {
            TraceStep::Grant(p) | TraceStep::Crash(p) | TraceStep::Flush { pid: p, .. } => p,
        }
    }

    /// True for crash decisions.
    pub fn is_crash(self) -> bool {
        matches!(self, TraceStep::Crash(_))
    }

    /// True for store-buffer flush decisions.
    pub fn is_flush(self) -> bool {
        matches!(self, TraceStep::Flush { .. })
    }

    /// Whether this step may legally be issued against `view`: grants and
    /// crashes need their pid runnable, flushes need their (pid, reg) entry
    /// currently flushable under the world's buffer discipline.
    fn legal(self, view: &ScheduleView<'_>) -> bool {
        match self {
            TraceStep::Grant(p) | TraceStep::Crash(p) => view.runnable.contains(&p),
            TraceStep::Flush { pid, reg } => view.flushable.contains(&(pid, reg)),
        }
    }

    /// The [`Decision`] this step issues.
    fn decision(self) -> Decision {
        match self {
            TraceStep::Grant(pid) => Decision::Grant(pid),
            TraceStep::Crash(pid) => Decision::Crash(pid),
            TraceStep::Flush { pid, reg } => Decision::Flush { pid, reg },
        }
    }
}

/// A serializable schedule: the decisions taken at successive decision
/// points — grants and injected crashes.
///
/// Replay is tolerant: a listed step whose pid is not currently runnable is
/// skipped, and once the list is exhausted the lowest runnable pid is
/// granted — so a *prefix* of a run is a complete deterministic artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionTrace {
    /// Number of processes in the world this trace drives.
    pub n: usize,
    /// Decisions in order: grants and crash injections.
    pub decisions: Vec<TraceStep>,
}

impl DecisionTrace {
    /// Serializes to the [`TRACE_SCHEMA`] JSON document. Grants are bare
    /// pid numbers (backward compatible with pre-fault traces); crashes are
    /// `{"crash": pid}` objects.
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("schema", Value::from(TRACE_SCHEMA)),
            ("n", Value::from(self.n)),
            (
                "decisions",
                Value::Arr(
                    self.decisions
                        .iter()
                        .map(|&d| match d {
                            TraceStep::Grant(p) => Value::from(p),
                            TraceStep::Crash(p) => Value::obj(vec![("crash", Value::from(p))]),
                            TraceStep::Flush { pid, reg } => Value::obj(vec![
                                ("flush", Value::from(pid)),
                                ("reg", Value::from(reg)),
                            ]),
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a [`TRACE_SCHEMA`] document, validating the schema tag and
    /// that every decision names a pid `< n`. Bare numbers parse as grants,
    /// `{"crash": pid}` objects as crash injections.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        match v.get("schema").and_then(|s| s.as_str()) {
            Some(s) if s == TRACE_SCHEMA => {}
            Some(s) => return Err(format!("schema mismatch: got {s:?}, want {TRACE_SCHEMA:?}")),
            None => return Err("missing schema tag".into()),
        }
        let n = v
            .get("n")
            .and_then(|x| x.as_num())
            .ok_or("missing numeric field 'n'")? as usize;
        if n == 0 {
            return Err("'n' must be positive".into());
        }
        let arr = v
            .get("decisions")
            .and_then(|x| x.as_arr())
            .ok_or("missing array field 'decisions'")?;
        let mut decisions = Vec::with_capacity(arr.len());
        for (i, d) in arr.iter().enumerate() {
            let step = if let Some(pid) = d.as_num() {
                TraceStep::Grant(pid as usize)
            } else if let Some(pid) = d.get("crash").and_then(|x| x.as_num()) {
                TraceStep::Crash(pid as usize)
            } else if let Some(pid) = d.get("flush").and_then(|x| x.as_num()) {
                let reg = d
                    .get("reg")
                    .and_then(|x| x.as_num())
                    .ok_or(format!("decisions[{i}] is a flush without a numeric 'reg'"))?;
                TraceStep::Flush {
                    pid: pid as usize,
                    reg: reg as RegId,
                }
            } else {
                return Err(format!(
                    "decisions[{i}] is neither a pid number, a {{\"crash\": pid}} object, \
                     nor a {{\"flush\": pid, \"reg\": reg}} object"
                ));
            };
            if step.pid() >= n {
                return Err(format!(
                    "decisions[{i}] targets pid {} out of range (n = {n})",
                    step.pid()
                ));
            }
            decisions.push(step);
        }
        Ok(DecisionTrace { n, decisions })
    }

    /// The tolerant replayer: an [`FnStrategy`] that re-executes this trace.
    pub fn strategy(
        &self,
    ) -> FnStrategy<impl FnMut(&ScheduleView<'_>) -> Decision + Send + 'static> {
        self.replayer(None)
    }

    /// The replayer behind [`DecisionTrace::strategy`]; with a `log` it
    /// also appends every decision it actually issues (fallback grants
    /// included), which is how [`run_trace`] canonicalizes traces.
    fn replayer(
        &self,
        log: Option<Arc<Mutex<Vec<TraceStep>>>>,
    ) -> FnStrategy<impl FnMut(&ScheduleView<'_>) -> Decision + Send + 'static> {
        let decisions = self.decisions.clone();
        let mut idx = 0usize;
        FnStrategy::new(move |view: &ScheduleView<'_>| {
            let mut pick = None;
            while idx < decisions.len() {
                let step = decisions[idx];
                idx += 1;
                if step.legal(view) {
                    pick = Some(step);
                    break;
                }
                // Pid not runnable (finished/crashed/hidden) or flush entry
                // not buffered (already landed/deleted): skip the entry.
            }
            let step = pick.unwrap_or(TraceStep::Grant(view.runnable[0]));
            if let Some(log) = &log {
                log.lock().push(step);
            }
            step.decision()
        })
    }
}

/// Whether two pending ops of *different* processes commute under the
/// chosen relation (see the module docs for the soundness argument).
fn independent(rel: Independence, a: &PendingOp, b: &PendingOp) -> bool {
    let both_read = a.kind == OpKind::Read && b.kind == OpKind::Read;
    match rel {
        Independence::DistinctRegisters => a.reg != b.reg || both_read,
        Independence::ReadsOnly => both_read,
    }
}

/// One decision point on the DFS stack.
struct Node {
    /// Runnable pids and their pending ops when this node was first reached.
    enabled: Vec<(usize, PendingOp)>,
    /// Sleeping ops: provably redundant here because an equivalent
    /// interleaving already ran them in an explored sibling branch.
    sleep: Vec<(usize, PendingOp)>,
    /// Pids whose grant subtrees are fully explored.
    explored: Vec<usize>,
    /// Crash branches this node may take (canonical placement — computed
    /// from the ancestor path when the node is opened).
    crash_cands: Vec<usize>,
    /// Pids whose crash subtrees are fully explored.
    crash_explored: Vec<usize>,
    /// Flush branches this node may take: the world's flushable set when
    /// the node was opened (always empty under sequential consistency).
    flush_cands: Vec<(usize, RegId)>,
    /// Flush entries whose subtrees are fully explored.
    flush_explored: Vec<(usize, RegId)>,
    /// The decision the current run takes at this node.
    chosen: TraceStep,
}

impl Node {
    fn op_of(&self, pid: usize) -> PendingOp {
        self.enabled
            .iter()
            .find(|&&(p, _)| p == pid)
            .map(|&(_, op)| op)
            .expect("chosen/explored pids come from the enabled set")
    }
}

/// DFS state shared between the driver loop and the controller strategy.
struct Dfs {
    stack: Vec<Node>,
    /// Decision index within the current run.
    depth: usize,
    /// The current run stopped extending the stack (redundant or truncated):
    /// grant arbitrarily (lowest runnable) until the world finishes.
    dead: bool,
    /// The current run was abandoned because every enabled process slept.
    redundant: bool,
    /// The current run hit the step budget.
    truncated: bool,
    /// Branches proven redundant during this run (dead-node abandonment).
    pruned_now: u64,
    max_steps: u64,
    reduction: bool,
    independence: Independence,
    fault_budget: u64,
}

impl Dfs {
    /// Crash decisions on the current path.
    fn faults_on_path(&self) -> u64 {
        self.stack.iter().filter(|n| n.chosen.is_crash()).count() as u64
    }

    /// The pids whose crash may be branched at the *next* node (canonical
    /// crash placement): a crash has no memory effect, so crashing `p` at
    /// any point after `p`'s last step is Mazurkiewicz-equivalent to
    /// crashing it immediately after that step (or before any step at all).
    /// We therefore only branch `Crash(p)` right after a step *by* `p` — a
    /// `Grant(p)`, or under weak memory a `Flush` of `p`'s buffer (a crash
    /// drops the victim's unflushed stores, so crash-after-flush and
    /// crash-before-flush genuinely differ) — plus every enabled pid while
    /// no such step has happened yet (pure-crash prefixes, which
    /// canonicalize multi-crash-at-start schedules). Sound for checkers
    /// that do not read crash-event *timestamps* — they observe crashes
    /// only through the steps the victim no longer takes — which holds for
    /// every checker in this workspace.
    fn crash_candidates(&self, enabled: &[(usize, PendingOp)]) -> Vec<usize> {
        for step in self.stack.iter().map(|n| n.chosen).rev() {
            match step {
                TraceStep::Grant(p) | TraceStep::Flush { pid: p, .. } => {
                    return enabled
                        .iter()
                        .map(|&(q, _)| q)
                        .filter(|&q| q == p)
                        .collect();
                }
                TraceStep::Crash(_) => {}
            }
        }
        enabled.iter().map(|&(q, _)| q).collect()
    }
}

/// The fair completion used below a truncation cut: drain any buffered
/// stores first, then grant the lowest runnable process. Grants alone
/// would model a scheduler that withholds every flush forever — a total
/// partition even regular registers / weak memory rule out — and checking
/// a truncated prefix against *that* completion reports phantom
/// violations. `flushable` is always empty under SC, so SC decision
/// streams are bit-identical with or without this.
fn fallback(view: &ScheduleView<'_>) -> Decision {
    if let Some(&(pid, reg)) = view.flushable.first() {
        return Decision::Flush { pid, reg };
    }
    Decision::Grant(view.runnable[0])
}

/// The controller: replays the stack prefix, then extends it.
struct Controller {
    st: Arc<Mutex<Dfs>>,
}

impl Strategy for Controller {
    fn decide(&mut self, view: &ScheduleView<'_>) -> Decision {
        let mut guard = self.st.lock();
        let st = &mut *guard;
        if st.dead {
            return fallback(view);
        }
        if st.depth < st.stack.len() {
            // Replay segment: take the recorded choice and check the world
            // is behaving deterministically.
            let depth = st.depth;
            let node = &st.stack[depth];
            assert!(
                node.enabled.len() == view.runnable.len()
                    && node
                        .enabled
                        .iter()
                        .zip(view.runnable.iter())
                        .all(|(&(p, _), &q)| p == q),
                "nondeterministic workload: decision point {depth} saw runnable \
                 {:?} on a previous run but {:?} now — explore() factories must \
                 rebuild identical worlds",
                node.enabled.iter().map(|&(p, _)| p).collect::<Vec<_>>(),
                view.runnable,
            );
            let chosen = node.chosen;
            st.depth += 1;
            return chosen.decision();
        }
        if st.depth as u64 >= st.max_steps {
            st.dead = true;
            st.truncated = true;
            return fallback(view);
        }
        // Extension segment: open a new node.
        let enabled: Vec<(usize, PendingOp)> = view
            .runnable
            .iter()
            .copied()
            .zip(view.pending.iter().copied())
            .collect();
        let sleep: Vec<(usize, PendingOp)> = if !st.reduction {
            Vec::new()
        } else if let Some(parent) = st.stack.last() {
            match parent.chosen {
                // A crash is dependent with every process: survivors'
                // subsequent behavior may hinge on the victim's absence, so
                // nothing stays asleep across a crash edge. A flush is a
                // write landing in shared memory — dependent with every
                // reader of that register, and cheap enough to treat as
                // dependent with everything.
                TraceStep::Crash(_) | TraceStep::Flush { .. } => Vec::new(),
                TraceStep::Grant(chosen_pid) => {
                    // Inherit the parent's sleepers (and its already-explored
                    // choices) that are independent of the op the parent
                    // executed to get here — dependent ones wake up.
                    let executed = parent.op_of(chosen_pid);
                    let rel = st.independence;
                    parent
                        .sleep
                        .iter()
                        .copied()
                        .chain(parent.explored.iter().map(|&q| (q, parent.op_of(q))))
                        .filter(|(q, qop)| *q != chosen_pid && independent(rel, qop, &executed))
                        .filter(|(q, _)| enabled.iter().any(|&(p, _)| p == *q))
                        .collect()
                }
            }
        } else {
            Vec::new()
        };
        let crash_cands = if st.faults_on_path() < st.fault_budget {
            st.crash_candidates(&enabled)
        } else {
            Vec::new()
        };
        // Flush branches come straight from the world's flushable set
        // (empty under SC, so SC exploration is bit-identical to before).
        let flush_cands: Vec<(usize, RegId)> = view.flushable.to_vec();
        let pick = enabled
            .iter()
            .map(|&(p, _)| p)
            .find(|p| !sleep.iter().any(|&(q, _)| q == *p));
        match pick {
            Some(pid) => {
                st.stack.push(Node {
                    enabled,
                    sleep,
                    explored: Vec::new(),
                    crash_cands,
                    crash_explored: Vec::new(),
                    flush_cands,
                    flush_explored: Vec::new(),
                    chosen: TraceStep::Grant(pid),
                });
                st.depth += 1;
                Decision::Grant(pid)
            }
            None if !flush_cands.is_empty() || !crash_cands.is_empty() => {
                // Every grant is asleep, but flush/crash branches remain —
                // they are dependent with everything, so sleeping grants
                // cannot cover them. Take the first such branch; the grants
                // here were proven redundant.
                st.pruned_now += enabled.len() as u64;
                let explored = enabled.iter().map(|&(p, _)| p).collect();
                let chosen = match flush_cands.first() {
                    Some(&(pid, reg)) => TraceStep::Flush { pid, reg },
                    None => TraceStep::Crash(crash_cands[0]),
                };
                st.stack.push(Node {
                    enabled,
                    sleep,
                    explored,
                    crash_cands,
                    crash_explored: Vec::new(),
                    flush_cands,
                    flush_explored: Vec::new(),
                    chosen,
                });
                st.depth += 1;
                chosen.decision()
            }
            None => {
                // Everything enabled is asleep: this whole continuation is
                // covered by an explored sibling. Abandon the path.
                st.dead = true;
                st.redundant = true;
                st.pruned_now += enabled.len() as u64;
                Decision::Grant(view.runnable[0])
            }
        }
    }
}

/// Advances the stack to the next unexplored branch. Returns `true` when
/// the whole space is exhausted.
fn backtrack(s: &mut Dfs, report: &mut ExploreReport, metrics: &MetricsRegistry) -> bool {
    loop {
        let Some(node) = s.stack.last_mut() else {
            return true;
        };
        match node.chosen {
            // Sleep-set rule: after exploring a grant, it sleeps for the
            // node's remaining branches (it is in `explored`, which the
            // child-sleep computation treats as sleeping). Crash and flush
            // choices never enter sleep sets — they are dependent with
            // everything.
            TraceStep::Grant(p) => node.explored.push(p),
            TraceStep::Crash(p) => node.crash_explored.push(p),
            TraceStep::Flush { pid, reg } => node.flush_explored.push((pid, reg)),
        }
        let next = node
            .enabled
            .iter()
            .map(|&(p, _)| p)
            .find(|p| !node.explored.contains(p) && !node.sleep.iter().any(|&(q, _)| q == *p));
        if let Some(p) = next {
            node.chosen = TraceStep::Grant(p);
            return false;
        }
        // Grants exhausted: take the next unexplored flush branch, then the
        // next crash branch (if the fault budget allowed any at this node).
        let next_flush = node
            .flush_cands
            .iter()
            .copied()
            .find(|e| !node.flush_explored.contains(e));
        if let Some((pid, reg)) = next_flush {
            node.chosen = TraceStep::Flush { pid, reg };
            return false;
        }
        let next_crash = node
            .crash_cands
            .iter()
            .copied()
            .find(|p| !node.crash_explored.contains(p));
        if let Some(p) = next_crash {
            node.chosen = TraceStep::Crash(p);
            return false;
        }
        let skipped = node
            .enabled
            .iter()
            .filter(|&&(p, _)| !node.explored.contains(&p))
            .count() as u64;
        if skipped > 0 {
            report.pruned += skipped;
            metrics.proc(0).incr(Counter::SchedulesPruned, skipped);
        }
        s.stack.pop();
    }
}

/// Bounded-exhaustive DFS over every schedule of the world `make` builds.
///
/// `make` must be a *deterministic factory*: each call rebuilds an identical
/// lockstep world plus bodies (same registers, same seed, same code). Every
/// executed schedule's [`RunReport`] is passed to `check`; a `Some(reason)`
/// stops exploration and reports the schedule as a replayable
/// [`Counterexample`].
///
/// # Panics
///
/// Panics if `make` builds a [`Mode::Free`] world, or if re-running the
/// factory does not reproduce the same runnable sets (a nondeterministic
/// workload).
pub fn explore<T, F, C>(cfg: &ExploreConfig, mut make: F, mut check: C) -> ExploreReport
where
    T: Send + 'static,
    F: FnMut() -> (World, Vec<ProcBody<T>>),
    C: FnMut(&RunReport<T>) -> Option<String>,
{
    let metrics = MetricsRegistry::new(1);
    let st = Arc::new(Mutex::new(Dfs {
        stack: Vec::new(),
        depth: 0,
        dead: false,
        redundant: false,
        truncated: false,
        pruned_now: 0,
        max_steps: cfg.max_steps,
        reduction: cfg.reduction,
        independence: cfg.independence,
        fault_budget: cfg.fault_budget,
    }));
    let mut report = ExploreReport {
        schedules: 0,
        pruned: 0,
        truncated: 0,
        exhausted: false,
        max_depth: 0,
        violation: None,
        telemetry: Telemetry::empty(1),
        fault_budget: cfg.fault_budget,
        faults_injected: 0,
        schedules_by_faults: vec![0; cfg.fault_budget as usize + 1],
        schedule_lengths: Histogram::default(),
    };
    let mut heartbeat = cfg.progress.then(|| Heartbeat::new(1.0));
    let mut runs: u64 = 0;
    loop {
        {
            let mut s = st.lock();
            s.depth = 0;
            s.dead = false;
            s.redundant = false;
            s.truncated = false;
        }
        let (mut world, bodies) = make();
        assert_eq!(
            world.mode(),
            Mode::Lockstep,
            "exploration needs the deterministic lockstep backend"
        );
        let run_report = world.run(
            bodies,
            Box::new(Controller {
                st: Arc::clone(&st),
            }),
        );
        runs += 1;
        let (redundant, truncated, pruned_now, path_faults, path_len) = {
            let mut s = st.lock();
            let path_len = s.stack.len();
            report.max_depth = report.max_depth.max(path_len);
            (
                s.redundant,
                s.truncated,
                std::mem::take(&mut s.pruned_now),
                s.faults_on_path(),
                path_len,
            )
        };
        if !redundant {
            report.schedule_lengths.record(path_len as u64);
        }
        if pruned_now > 0 {
            report.pruned += pruned_now;
            metrics.proc(0).incr(Counter::SchedulesPruned, pruned_now);
        }
        if truncated {
            report.truncated += 1;
            metrics.proc(0).incr(Counter::SchedulesTruncated, 1);
        } else if !redundant {
            report.schedules += 1;
            metrics.proc(0).incr(Counter::SchedulesExplored, 1);
            let bucket = (path_faults as usize).min(report.schedules_by_faults.len() - 1);
            report.schedules_by_faults[bucket] += 1;
            if path_faults > 0 {
                report.faults_injected += path_faults;
                metrics.proc(0).incr(Counter::FaultsInjected, path_faults);
            }
        }
        // Redundant paths were already checked under an equivalent schedule;
        // truncated prefixes are real executions and still worth checking.
        if !redundant {
            if let Some(description) = check(&run_report) {
                let s = st.lock();
                let trace = DecisionTrace {
                    n: world.n(),
                    decisions: s.stack.iter().map(|nd| nd.chosen).collect(),
                };
                report.violation = Some(Counterexample { trace, description });
                break;
            }
        }
        if let Some(hb) = heartbeat.as_mut() {
            hb.tick(|secs| {
                format!(
                    "explore: {} schedules ({:.0}/s), {} pruned, {} truncated, \
                     {} faults injected, depth {}",
                    report.schedules,
                    (report.schedules + report.truncated) as f64 / secs.max(1e-9),
                    report.pruned,
                    report.truncated,
                    report.faults_injected,
                    report.max_depth,
                )
            });
        }
        if backtrack(&mut st.lock(), &mut report, &metrics) {
            report.exhausted = report.truncated == 0;
            break;
        }
        if runs >= cfg.max_schedules {
            break;
        }
    }
    report.telemetry = metrics.snapshot();
    report
}

/// Replays `trace` against a fresh world from `make`, returning the run
/// report plus the *canonical* trace — the grants actually issued, which
/// may differ from `trace` when entries were skipped as not-runnable.
pub fn run_trace<T, F>(make: &mut F, trace: &DecisionTrace) -> (RunReport<T>, DecisionTrace)
where
    T: Send + 'static,
    F: FnMut() -> (World, Vec<ProcBody<T>>),
{
    let log = Arc::new(Mutex::new(Vec::new()));
    let (mut world, bodies) = make();
    let report = world.run(bodies, Box::new(trace.replayer(Some(Arc::clone(&log)))));
    let actual = DecisionTrace {
        n: trace.n,
        decisions: std::mem::take(&mut *log.lock()),
    };
    (report, actual)
}

/// Greedily shrinks a violating trace while `check` still reports a
/// violation: first trims the suffix (the tolerant replayer completes any
/// prefix deterministically), then repeatedly deletes single interior
/// decisions to a fixpoint. Returns the minimal trace and the number of
/// candidate re-executions spent.
pub fn shrink_trace<T, F, C>(
    make: &mut F,
    check: &mut C,
    trace: DecisionTrace,
) -> (DecisionTrace, u64)
where
    T: Send + 'static,
    F: FnMut() -> (World, Vec<ProcBody<T>>),
    C: FnMut(&RunReport<T>) -> Option<String>,
{
    let mut runs = 0u64;
    let mut best = trace;
    // Suffix trim: pop trailing decisions while the violation persists.
    while !best.decisions.is_empty() {
        let mut cand = best.clone();
        cand.decisions.pop();
        let (rep, _) = run_trace(make, &cand);
        runs += 1;
        if check(&rep).is_some() {
            best = cand;
        } else {
            break;
        }
    }
    // Interior deletion to fixpoint.
    loop {
        let mut improved = false;
        let mut i = 0;
        while i < best.decisions.len() {
            let mut cand = best.clone();
            cand.decisions.remove(i);
            let (rep, _) = run_trace(make, &cand);
            runs += 1;
            if check(&rep).is_some() {
                best = cand;
                improved = true;
                // Index i now holds the next decision; retry in place.
            } else {
                i += 1;
            }
        }
        if !improved {
            break;
        }
    }
    (best, runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    /// The flag-principle workload: each process raises its own flag then
    /// reads the other's. 4 ops, two per process.
    fn flag_factory(seed: u64) -> impl Fn() -> (World, Vec<ProcBody<u32>>) {
        move || {
            let w = World::builder(2).seed(seed).build();
            let a = w.reg("a", 0u32);
            let b = w.reg("b", 0u32);
            let (a0, b0) = (a.clone(), b.clone());
            let (a1, b1) = (a, b);
            let bodies: Vec<ProcBody<u32>> = vec![
                Box::new(move |ctx| {
                    a0.write(ctx, 1)?;
                    b0.read(ctx)
                }),
                Box::new(move |ctx| {
                    b1.write(ctx, 1)?;
                    a1.read(ctx)
                }),
            ];
            (w, bodies)
        }
    }

    #[test]
    fn exhaustive_enumeration_without_reduction_counts_interleavings() {
        // 2 processes x 2 ops each: C(4,2) = 6 interleavings.
        let cfg = ExploreConfig {
            reduction: false,
            ..ExploreConfig::default()
        };
        let rep = explore(&cfg, flag_factory(1), |_| None);
        assert_eq!(rep.schedules, 6);
        assert_eq!(rep.pruned, 0);
        assert!(rep.exhausted);
        assert_eq!(rep.max_depth, 4);
        assert!(rep.violation.is_none());
        assert_eq!(
            rep.telemetry.total(Counter::SchedulesExplored),
            rep.schedules
        );
    }

    #[test]
    fn reduction_preserves_reachable_outcomes() {
        let outcomes = |reduction: bool| {
            let cfg = ExploreConfig {
                reduction,
                ..ExploreConfig::default()
            };
            let mut seen: Vec<Vec<Option<u32>>> = Vec::new();
            let rep = explore(&cfg, flag_factory(2), |r| {
                if !seen.contains(&r.outputs) {
                    seen.push(r.outputs.clone());
                }
                None
            });
            seen.sort();
            (seen, rep)
        };
        let (full, full_rep) = outcomes(false);
        let (reduced, red_rep) = outcomes(true);
        assert_eq!(full, reduced, "reduction lost a reachable outcome");
        assert!(red_rep.schedules <= full_rep.schedules);
        assert!(
            red_rep.pruned > 0,
            "the flag workload has independent ops; something must prune"
        );
        assert_eq!(
            red_rep.telemetry.total(Counter::SchedulesPruned),
            red_rep.pruned
        );
        // No schedule lets both processes read 0 (flag principle).
        for o in &full {
            assert!(
                !(o[0] == Some(0) && o[1] == Some(0)),
                "flag principle violated by {o:?}"
            );
        }
    }

    /// One writer, one reader on a single register: exploring finds the
    /// read-before-write schedule, and shrinking reduces it to the single
    /// forcing decision (grant the reader first).
    fn race_factory() -> impl Fn() -> (World, Vec<ProcBody<u32>>) {
        || {
            let w = World::builder(2).build();
            let r = w.reg("r", 0u32);
            let (r0, r1) = (r.clone(), r);
            let bodies: Vec<ProcBody<u32>> = vec![
                Box::new(move |ctx| {
                    r0.write(ctx, 1)?;
                    Ok(7)
                }),
                Box::new(move |ctx| r1.read(ctx)),
            ];
            (w, bodies)
        }
    }

    fn stale_read(r: &RunReport<u32>) -> Option<String> {
        (r.outputs[1] == Some(0)).then(|| "reader saw the initial value".to_string())
    }

    #[test]
    fn violation_is_found_shrunk_and_replayable() {
        let rep = explore(&ExploreConfig::default(), race_factory(), stale_read);
        let cex = rep.violation.expect("the stale read must be reachable");
        assert!(!rep.exhausted, "exploration stops at the violation");

        // Replay reproduces it.
        let mut make = race_factory();
        let (replayed, actual) = run_trace(&mut make, &cex.trace);
        assert_eq!(
            stale_read(&replayed),
            Some("reader saw the initial value".into())
        );
        assert_eq!(
            actual.decisions, cex.trace.decisions,
            "explorer traces are canonical"
        );

        // Shrinking yields the single forcing decision: grant pid 1 first.
        let (min, shrink_runs) = shrink_trace(&mut make, &mut |r| stale_read(r), cex.trace);
        assert_eq!(min.decisions, vec![TraceStep::Grant(1)]);
        assert!(shrink_runs > 0);
        let (rep2, _) = run_trace(&mut make, &min);
        assert!(stale_read(&rep2).is_some(), "shrunk trace still violates");
    }

    #[test]
    fn trace_json_round_trips() {
        let t = DecisionTrace {
            n: 3,
            decisions: vec![
                TraceStep::Grant(2),
                TraceStep::Grant(0),
                TraceStep::Crash(1),
                TraceStep::Grant(0),
            ],
        };
        let rendered = t.to_json().render();
        let parsed = crate::json::parse(&rendered).unwrap();
        let back = DecisionTrace::from_json(&parsed).unwrap();
        assert_eq!(back, t);
        assert_eq!(
            back.to_json().render(),
            rendered,
            "round-trip is byte-identical"
        );
    }

    /// Pre-fault `bprc-trace-v1` documents (bare pid numbers only) still
    /// parse, as all-grant traces.
    #[test]
    fn legacy_grant_only_documents_still_parse() {
        let doc = r#"{"schema": "bprc-trace-v1", "n": 3, "decisions": [2, 0, 1]}"#;
        let v = crate::json::parse(doc).unwrap();
        let t = DecisionTrace::from_json(&v).unwrap();
        assert_eq!(
            t.decisions,
            vec![
                TraceStep::Grant(2),
                TraceStep::Grant(0),
                TraceStep::Grant(1)
            ]
        );
    }

    #[test]
    fn trace_json_rejects_bad_documents() {
        let bad = [
            r#"{"n": 2, "decisions": []}"#,
            r#"{"schema": "bprc-trace-v9", "n": 2, "decisions": []}"#,
            r#"{"schema": "bprc-trace-v1", "decisions": []}"#,
            r#"{"schema": "bprc-trace-v1", "n": 2, "decisions": [5]}"#,
            r#"{"schema": "bprc-trace-v1", "n": 0, "decisions": []}"#,
            r#"{"schema": "bprc-trace-v1", "n": 2, "decisions": [{"crash": 5}]}"#,
            r#"{"schema": "bprc-trace-v1", "n": 2, "decisions": [{"halt": 0}]}"#,
        ];
        for doc in bad {
            let v = crate::json::parse(doc).unwrap();
            assert!(DecisionTrace::from_json(&v).is_err(), "accepted {doc}");
        }
    }

    #[test]
    fn flush_steps_round_trip_and_malformed_flushes_reject() {
        let t = DecisionTrace {
            n: 2,
            decisions: vec![
                TraceStep::Grant(0),
                TraceStep::Flush { pid: 0, reg: 1 },
                TraceStep::Crash(0),
                TraceStep::Grant(1),
            ],
        };
        let rendered = t.to_json().render();
        let parsed = crate::json::parse(&rendered).unwrap();
        let back = DecisionTrace::from_json(&parsed).unwrap();
        assert_eq!(back, t);
        assert_eq!(
            back.to_json().render(),
            rendered,
            "round-trip is byte-identical"
        );

        let bad = [
            // A flush without its register is not a decision.
            r#"{"schema": "bprc-trace-v1", "n": 2, "decisions": [{"flush": 0}]}"#,
            // Flush pids obey the same range check as grants and crashes.
            r#"{"schema": "bprc-trace-v1", "n": 2, "decisions": [{"flush": 5, "reg": 0}]}"#,
        ];
        for doc in bad {
            let v = crate::json::parse(doc).unwrap();
            assert!(DecisionTrace::from_json(&v).is_err(), "accepted {doc}");
        }
    }

    /// Message-passing under PSO: the violation *requires* a mid-run flush
    /// decision (the flag store must land while the data store stays
    /// buffered), so the counterexample carries a [`TraceStep::Flush`]
    /// through find → shrink → replay.
    fn mp_pso_factory() -> impl Fn() -> (World, Vec<ProcBody<u64>>) {
        || {
            let w = World::builder(2)
                .weak_memory(crate::weakmem::WeakMode::Pso)
                .build();
            let data = w.reg("data", 0u64);
            let flag = w.reg("flag", 0u64);
            let (d1, f1) = (data.clone(), flag.clone());
            let bodies: Vec<ProcBody<u64>> = vec![
                Box::new(move |ctx| {
                    data.write(ctx, 1)?;
                    flag.write(ctx, 1)?;
                    Ok(0)
                }),
                Box::new(move |ctx| {
                    let rf = f1.read(ctx)?;
                    let rd = d1.read(ctx)?;
                    Ok(rf * 10 + rd)
                }),
            ];
            (w, bodies)
        }
    }

    fn stale_publish(r: &RunReport<u64>) -> Option<String> {
        (r.outputs[1] == Some(10)).then(|| "flag visible before its data".to_string())
    }

    #[test]
    fn flush_dependent_violation_found_shrunk_and_replayed() {
        let rep = explore(&ExploreConfig::default(), mp_pso_factory(), stale_publish);
        let cex = rep.violation.expect("PSO reorders the two stores");
        assert!(
            cex.trace.decisions.iter().any(|s| s.is_flush()),
            "the counterexample must carry the forcing flush: {:?}",
            cex.trace.decisions
        );

        let mut make = mp_pso_factory();
        let (min, shrink_runs) = shrink_trace(&mut make, &mut |r| stale_publish(r), cex.trace);
        assert!(shrink_runs > 0);
        let flushes: Vec<&TraceStep> = min.decisions.iter().filter(|s| s.is_flush()).collect();
        assert_eq!(
            flushes.len(),
            1,
            "shrinking must keep exactly the forcing flush: {:?}",
            min.decisions
        );
        let (replayed, actual) = run_trace(&mut make, &min);
        assert!(stale_publish(&replayed).is_some());
        assert_eq!(
            &actual.decisions[..min.decisions.len()],
            &min.decisions[..],
            "the canonical log replays the shrunk prefix verbatim (then \
             completes with fallback grants)"
        );
    }

    /// Interior deletion of a flush step re-canonicalizes instead of
    /// wedging: the tolerant replayer skips now-illegal entries and the
    /// violation (which hinged on that flush) disappears.
    #[test]
    fn deleting_the_forcing_flush_recanonicalizes_the_replay() {
        let rep = explore(&ExploreConfig::default(), mp_pso_factory(), stale_publish);
        let mut make = mp_pso_factory();
        let (min, _) = shrink_trace(
            &mut make,
            &mut |r| stale_publish(r),
            rep.violation.unwrap().trace,
        );
        let mut without_flush = min.clone();
        without_flush.decisions.retain(|s| !s.is_flush());
        let (replayed, actual) = run_trace(&mut make, &without_flush);
        assert!(
            stale_publish(&replayed).is_none(),
            "without the flush the flag cannot outrun its data: {:?}",
            replayed.outputs
        );
        assert!(
            actual.decisions.iter().all(|s| !s.is_flush()),
            "the canonical log of a flush-free replay stays flush-free"
        );
    }

    #[test]
    fn step_budget_truncates_and_reports() {
        let deep = || {
            let w = World::builder(2).build();
            let r = w.reg("r", 0u64);
            let (r0, r1) = (r.clone(), r);
            let bodies: Vec<ProcBody<u64>> = vec![
                Box::new(move |ctx| {
                    for k in 0..30 {
                        r0.write(ctx, k)?;
                    }
                    Ok(0)
                }),
                Box::new(move |ctx| {
                    let mut last = 0;
                    for _ in 0..30 {
                        last = r1.read(ctx)?;
                    }
                    Ok(last)
                }),
            ];
            (w, bodies)
        };
        let cfg = ExploreConfig {
            max_steps: 6,
            max_schedules: 200,
            ..ExploreConfig::default()
        };
        let rep = explore(&cfg, deep, |_| None);
        assert!(rep.truncated > 0, "60-op workload must hit a 6-step budget");
        assert!(!rep.exhausted);
        assert!(rep.max_depth <= 6);
        assert_eq!(
            rep.telemetry.total(Counter::SchedulesTruncated),
            rep.truncated
        );
    }

    /// The subtlety the `Independence` knob exists for: each process writes
    /// its own register, then marks the end of its "operation interval" with
    /// a note. The two writes commute as memory ops, but the checker reads
    /// the note *order* — a trace-sensitive property. Under
    /// `DistinctRegisters` the reduction prunes the interleaving where pid 1
    /// finishes first (it is Mazurkiewicz-equivalent to the explored one),
    /// so the "violation" is provably missed; `ReadsOnly` keeps write/write
    /// pairs dependent and finds it, matching the unreduced enumeration.
    #[test]
    fn interval_checkers_need_the_reads_only_relation() {
        use crate::history::Event;

        let factory = || {
            let w = World::builder(2).build();
            let a = w.reg("a", 0u32);
            let b = w.reg("b", 0u32);
            let bodies: Vec<ProcBody<u32>> = vec![
                Box::new(move |ctx| {
                    a.write(ctx, 1)?;
                    ctx.annotate("w:end", vec![]);
                    Ok(0)
                }),
                Box::new(move |ctx| {
                    b.write(ctx, 1)?;
                    ctx.annotate("w:end", vec![]);
                    Ok(0)
                }),
            ];
            (w, bodies)
        };
        let pid1_ends_first = |r: &RunReport<u32>| {
            let mut end = [None, None];
            for ev in r.history.as_ref().unwrap().events() {
                if let Event::Note { step, pid, note } = ev {
                    if note.label == "w:end" {
                        end[*pid] = Some(*step);
                    }
                }
            }
            (end[1] < end[0]).then(|| "pid 1's interval ended first".to_string())
        };
        let with = |independence: Independence, reduction: bool| {
            let cfg = ExploreConfig {
                reduction,
                independence,
                ..ExploreConfig::default()
            };
            explore(&cfg, factory, pid1_ends_first)
        };
        let unreduced = with(Independence::DistinctRegisters, false);
        assert!(
            unreduced.violation.is_some(),
            "full enumeration reaches the pid-1-first interleaving"
        );
        let reads_only = with(Independence::ReadsOnly, true);
        assert!(
            reads_only.violation.is_some(),
            "ReadsOnly keeps write/write dependent and must find it too"
        );
        let distinct = with(Independence::DistinctRegisters, true);
        assert!(
            distinct.violation.is_none(),
            "DistinctRegisters prunes the equivalent sibling — which is why \
             note-timestamp checkers must not use it"
        );
        assert!(distinct.pruned > 0);
    }

    #[test]
    fn max_schedules_valve_stops_exploration() {
        let cfg = ExploreConfig {
            reduction: false,
            max_schedules: 2,
            ..ExploreConfig::default()
        };
        let rep = explore(&cfg, flag_factory(0), |_| None);
        assert_eq!(rep.schedules, 2);
        assert!(!rep.exhausted);
    }

    /// With a fault budget the explorer visits crash-extended schedules:
    /// every bucket of `schedules_by_faults` is populated, crashed runs
    /// show crash events, and the budget is never exceeded.
    #[test]
    fn fault_budget_explores_crash_branches() {
        let cfg = ExploreConfig {
            reduction: false,
            fault_budget: 1,
            ..ExploreConfig::default()
        };
        let mut max_crashes = 0usize;
        let rep = explore(&cfg, flag_factory(4), |r| {
            let crashes = r.history.as_ref().unwrap().crashes().count();
            max_crashes = max_crashes.max(crashes);
            None
        });
        assert!(rep.exhausted);
        assert_eq!(
            rep.schedules_by_faults[0], 6,
            "fault-free schedules must match the budget-0 enumeration"
        );
        assert!(rep.schedules_by_faults[1] > 0, "crash branches must run");
        assert_eq!(rep.schedules, rep.schedules_by_faults.iter().sum::<u64>());
        assert_eq!(rep.faults_injected, rep.schedules_by_faults[1]);
        assert_eq!(max_crashes, 1, "budget 1 must cap injected crashes at 1");
        assert_eq!(
            rep.telemetry.total(Counter::FaultsInjected),
            rep.faults_injected
        );
    }

    /// Sleep-set reduction with fault branches reaches exactly the outcome
    /// set (outputs + halt pattern) of the unreduced fault enumeration.
    #[test]
    fn reduction_with_faults_preserves_reachable_outcomes() {
        let outcomes = |reduction: bool| {
            let cfg = ExploreConfig {
                reduction,
                fault_budget: 1,
                ..ExploreConfig::default()
            };
            let mut seen: Vec<(Vec<Option<u32>>, Vec<bool>)> = Vec::new();
            let rep = explore(&cfg, flag_factory(5), |r| {
                let crashed: Vec<bool> = (0..r.outputs.len())
                    .map(|p| {
                        r.history
                            .as_ref()
                            .unwrap()
                            .crashes()
                            .any(|(_, pid)| pid == p)
                    })
                    .collect();
                let key = (r.outputs.clone(), crashed);
                if !seen.contains(&key) {
                    seen.push(key);
                }
                None
            });
            assert!(rep.exhausted, "reduction={reduction}");
            seen.sort();
            (seen, rep.schedules)
        };
        let (full, full_count) = outcomes(false);
        let (reduced, reduced_count) = outcomes(true);
        assert_eq!(full, reduced, "fault-aware reduction lost an outcome");
        assert!(reduced_count <= full_count);
    }

    /// A bug only reachable through a crash: pid 0 writes `v` then `p`
    /// (publish bit); the checker flags a run where `v` was written but `p`
    /// never was — impossible under pure grant schedules (the body always
    /// writes both), forced by crashing pid 0 between the two writes. The
    /// explorer must find it, the shrinker must keep the crash, and the
    /// trace must replay.
    #[test]
    fn crash_dependent_violation_found_shrunk_and_replayed() {
        let factory = || {
            let w = World::builder(2).build();
            let v = w.reg("v", 0u32);
            let p = w.reg("p", 0u32);
            let (v0, p0) = (v.clone(), p.clone());
            let bodies: Vec<ProcBody<u32>> = vec![
                Box::new(move |ctx| {
                    v0.write(ctx, 1)?;
                    p0.write(ctx, 1)?;
                    Ok(0)
                }),
                Box::new(move |ctx| {
                    let seen_v = v.read(ctx)?;
                    let seen_p = p.read(ctx)?;
                    Ok(seen_v * 10 + seen_p)
                }),
            ];
            (w, bodies)
        };
        // A survivor that read the handshake value without its publish bit
        // is fine while the writer is still alive (it will publish later);
        // it is a permanently-torn state only once the writer is dead.
        let unpublished = |r: &RunReport<u32>| {
            (r.outputs[1] == Some(10) && r.outputs[0].is_none())
                .then(|| "v visible without its publish bit and the writer is gone".into())
        };

        let grants_only = explore(&ExploreConfig::default(), factory, unpublished);
        assert!(
            grants_only.violation.is_none() && grants_only.exhausted,
            "the torn state must be unreachable without faults"
        );

        let cfg = ExploreConfig {
            fault_budget: 1,
            ..ExploreConfig::default()
        };
        let rep = explore(&cfg, factory, unpublished);
        let cex = rep.violation.expect("a crash between the writes forces it");
        assert!(cex.trace.decisions.iter().any(|s| s.is_crash()));

        let mut make = factory;
        let (min, _) = shrink_trace(&mut make, &mut |r| unpublished(r), cex.trace);
        assert!(
            min.decisions.iter().any(|s| s.is_crash()),
            "shrinking must keep the forcing crash: {:?}",
            min.decisions
        );
        let (rep2, _) = run_trace(&mut make, &min);
        assert!(unpublished(&rep2).is_some(), "shrunk trace still violates");
    }
}
