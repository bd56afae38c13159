//! Systematic schedule-space exploration over the lockstep backend.
//!
//! Random strategies *sample* the schedule space; this module *enumerates*
//! it. Exploration is stateless model checking by re-execution: every
//! explored schedule is a fresh [`World`] run driven by a controller
//! strategy that replays a decision prefix recorded on earlier runs, then
//! extends it with the first unexplored choice. A depth-first stack of
//! decision nodes tracks the search; each node is one ordered list of the
//! [`Decision`]s it branches on — the grants it has been asked for, then
//! the flushable store-buffer entries, then the crash candidates — and a
//! cursor naming the branch the current run takes.
//!
//! # Soundness of the reduction: source sets and sleep sets
//!
//! Exhaustive enumeration of all interleavings explodes. The explorer
//! reduces with source-set DPOR (Abdulla, Aronis, Jonsson, Sagonas, POPL
//! 2014) combined with *sleep sets* (Godefroid), and still runs exactly one
//! schedule per Mazurkiewicz trace, so verdicts and schedule counts are
//! those of an enumeration of every interleaving, one per trace.
//!
//! * **Source sets decide what a node branches on.** A new node branches
//!   on its first awake grant only (plus every flush and crash branch).
//!   After every run a race pass walks the path: it computes
//!   happens-before over the (pid, [`PendingOp`]) events with vector
//!   clocks, and for each race `i ⋖ j` — `j` dependent with `i`, of
//!   another process, with nothing happening between them — it makes node
//!   `i` branch on some *initial* of `notdep(i).j` (the events after `i`
//!   that do not happen after it, then `j`: any of them that can run first
//!   reverses the race), unless one of those initials is already a branch
//!   there or asleep there. Only grants of pids enabled at `i` are added.
//!   So a grant branch is opened only when some explored run asks for it.
//! * **Sleep sets keep equivalent runs from completing twice.** After
//!   exploring grant `t` at a node, `t` is put to sleep for the node's
//!   remaining branches; a child inherits the sleeping ops that are
//!   *independent* of the executed choice. A run that reaches a node where
//!   every enabled grant is asleep (and nothing else branches) is *blocked*:
//!   an explored run covers its continuation, so it is abandoned unchecked.
//!   It still cost a world execution, counted in [`ExploreReport::runs`].
//! * **A truncated run widens its path.** A run the step bound cuts makes
//!   every node on its path branch on all its awake grants, so a bounded
//!   exploration checks every prefix a plain sleep-set DFS would. Below a
//!   node whose explored runs all complete, source sets already cover
//!   every trace, and equivalent runs have equal length, so none of them
//!   is truncated either.
//! * **Store buffers end in a drain.** A complete run under TSO, PSO or
//!   regular registers lands its remaining buffered stores without a
//!   decision; the race pass ends such a path with one more flush event
//!   (no node of its own). Without it, a write whose flush could have
//!   landed before another process's event is never reordered before it.
//!
//! [`ExploreReport::pruned`] counts the enabled grants a node never branched
//! on — asleep, or never asked for — as the node pops.
//! `reduction: false` turns both off and branches on every enabled grant:
//! the unreduced reference the cross-check tests compare against.
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
//! Under both, a fence ([`OpKind::Fence`]) lands its process's buffered
//! stores and so is dependent with every op; flush and crash decisions are
//! dependent with everything too (see below).
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
//! Flushes are treated the same way, and both stay always-branched, so the
//! race pass never adds one. An initial that is a flush or a crash is `j`
//! itself, right after `i` (everything between would happen before it). A
//! flush was then flushable at `i`, a branch there, unless `i` buffered
//! the store it lands, and then the two cannot be reordered. A crash is a
//! branch at `i` where its placement is canonical; elsewhere its canonical
//! twin, which an earlier node on the path branches on, covers it.
//!
//! # Replay artifacts
//!
//! A violating run is serialized as a [`DecisionTrace`] — every
//! [`Decision`] the run took (below a truncation cut that includes the
//! flush-first completion), JSON-rendered
//! via [`crate::json`] under schema [`TRACE_SCHEMA`]; grants render as bare
//! pid numbers, so pre-fault trace documents still parse. Replay
//! ([`run_trace`]) is tolerant: each listed decision fires when it is
//! [legal](Decision::legal) (it is skipped otherwise), and after the trace
//! is exhausted the lowest runnable pid runs — so a *prefix* of a run is a
//! complete, deterministic artifact. [`shrink_trace`] greedily removes
//! decisions — injected crashes and flushes included — (suffix first, then
//! interior) while the violation persists, yielding a minimal forcing
//! prefix. [`Counterexample::confirm`] is the one path from a violation to
//! an artifact: shrink, round trip, two replays, critical cycle.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::history::{FaultKind, History, OpKind, RegId};
use crate::json::Value;
use crate::metrics::{Counter, MetricsRegistry, Telemetry};
use crate::sched::{Decision, FnStrategy, Level, PendingOp, ScheduleView, Strategy};
use crate::tracing::{Heartbeat, Histogram};
use crate::weakmem::{critical_cycle, CriticalCycle, WeakMode};
use crate::world::{Mode, ProcBody, RunReport, World};

/// JSON schema tag embedded in every serialized [`DecisionTrace`].
pub const TRACE_SCHEMA: &str = "bprc-trace-v1";

/// Which pairs of pending ops the reduction may commute. Pick the relation
/// to match what the checker can observe — see the module docs' soundness
/// discussion.
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
    /// Enable the partial-order reduction (source sets plus sleep sets).
    /// Turning it off enumerates every interleaving — useful for
    /// cross-checking the reduction itself.
    pub reduction: bool,
    /// The independence relation the reduction prunes with; must be chosen
    /// to match the checker (see [`Independence`]).
    pub independence: Independence,
    /// Maximum crash decisions injected per schedule. `0` (the default)
    /// explores grants only; `k ≤ n−1` additionally branches on "crash
    /// process p here" at canonical placement points (see the module docs'
    /// fault-as-decision discussion).
    pub fault_budget: u64,
    /// Print a rate-limited progress heartbeat to stderr (runs/sec, checked
    /// schedules, blocked runs, pruned, faults explored) while the
    /// exploration runs. Off by
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
    /// Complete (un-truncated, unblocked) schedules executed and checked.
    pub schedules: u64,
    /// World executions: the checked schedules, the truncated prefixes,
    /// and the runs abandoned unchecked because every enabled grant was
    /// asleep (blocked), so `runs − schedules − truncated` is the work the
    /// reduction spent without checking anything.
    pub runs: u64,
    /// Baton hand-offs summed over those executions
    /// ([`RunReport::handoffs`](crate::RunReport::handoffs) of each).
    pub handoffs: u64,
    /// Enabled grants a node never branched on — asleep there, or never
    /// asked for by a race — summed over the nodes as they pop (an early
    /// stop leaves the nodes still on the stack uncounted).
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

/// A serializable schedule: the [`Decision`]s taken at successive decision
/// points — grants, injected crashes and panics, and store-buffer flushes.
///
/// In the JSON form a grant renders as a bare pid number — so every
/// pre-fault `bprc-trace-v1` document still parses, as an all-grant trace —
/// a crash as the object `{"crash": pid}`, a panic as `{"panic": pid}` and a
/// flush as `{"flush": pid, "reg": reg}`.
///
/// Replay ([`run_trace`]) is tolerant: a listed decision that is not
/// [legal](Decision::legal) when its turn comes is skipped, and once the
/// list is exhausted the lowest runnable pid is granted — so a *prefix* of
/// a run is a complete deterministic artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionTrace {
    /// Number of processes in the world this trace drives.
    pub n: usize,
    /// Decisions in order.
    pub decisions: Vec<Decision>,
}

impl DecisionTrace {
    /// Serializes to the [`TRACE_SCHEMA`] JSON document.
    pub fn to_json(&self) -> Value {
        let pid_obj = |key, pid: usize| Value::obj(vec![(key, Value::from(pid))]);
        Value::obj(vec![
            ("schema", Value::from(TRACE_SCHEMA)),
            ("n", Value::from(self.n)),
            (
                "decisions",
                Value::Arr(
                    self.decisions
                        .iter()
                        .map(|&d| match d {
                            Decision::Grant(p) => Value::from(p),
                            Decision::Crash(p) => pid_obj("crash", p),
                            Decision::Panic(p) => pid_obj("panic", p),
                            Decision::Flush { pid, reg } => Value::obj(vec![
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
    /// that every decision names a pid `< n`.
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
            let pid_of = |key| d.get(key).and_then(|x| x.as_num()).map(|p| p as usize);
            let decision = if let Some(pid) = d.as_num() {
                Decision::Grant(pid as usize)
            } else if let Some(pid) = pid_of("crash") {
                Decision::Crash(pid)
            } else if let Some(pid) = pid_of("panic") {
                Decision::Panic(pid)
            } else if let Some(pid) = pid_of("flush") {
                let reg = d
                    .get("reg")
                    .and_then(|x| x.as_num())
                    .ok_or(format!("decisions[{i}] is a flush without a numeric 'reg'"))?;
                Decision::Flush {
                    pid,
                    reg: reg as RegId,
                }
            } else {
                return Err(format!(
                    "decisions[{i}] is neither a pid number nor a {{\"crash\": pid}}, \
                     {{\"panic\": pid}} or {{\"flush\": pid, \"reg\": reg}} object"
                ));
            };
            if decision.pid() >= n {
                return Err(format!(
                    "decisions[{i}] targets pid {} out of range (n = {n})",
                    decision.pid()
                ));
            }
            decisions.push(decision);
        }
        Ok(DecisionTrace { n, decisions })
    }

    /// The tolerant replayer behind [`run_trace`].
    fn replayer(&self) -> FnStrategy<impl FnMut(&ScheduleView<'_>) -> Decision + Send + 'static> {
        let decisions = self.decisions.clone();
        let mut idx = 0usize;
        FnStrategy::new(move |view: &ScheduleView<'_>| {
            while idx < decisions.len() {
                let decision = decisions[idx];
                idx += 1;
                if decision.legal(view) {
                    return decision;
                }
                // Pid not runnable (finished/crashed/hidden) or flush entry
                // not buffered (already landed/deleted): skip the entry.
            }
            Decision::Grant(view.runnable[0])
        })
    }
}

/// Logs every decision the strategy it wraps issues, at any [`Level`], so
/// any run can be kept as a [`DecisionTrace`]: [`run_trace`]'s canonical
/// traces, and any sampled run a caller wants to replay.
pub struct DecisionRecorder<S> {
    inner: S,
    log: Arc<Mutex<Vec<Decision>>>,
}

impl<S> DecisionRecorder<S> {
    /// Wraps `inner`, returning the recorder and a handle on its log, which
    /// stays readable after [`World::run`] has consumed the recorder.
    pub fn new(inner: S) -> (Self, Arc<Mutex<Vec<Decision>>>) {
        let log = Arc::new(Mutex::new(Vec::new()));
        let recorder = DecisionRecorder {
            inner,
            log: Arc::clone(&log),
        };
        (recorder, log)
    }
}

impl<L: Level, S: Strategy<L>> Strategy<L> for DecisionRecorder<S> {
    fn decide(&mut self, view: &ScheduleView<'_, L>) -> Decision {
        let decision = self.inner.decide(view);
        self.log.lock().push(decision);
        decision
    }

    fn drain_fault_notes(&mut self) -> Vec<(usize, FaultKind)> {
        self.inner.drain_fault_notes()
    }
}

/// Whether two pending ops of *different* processes commute under the
/// chosen relation (see the module docs for the soundness argument). A
/// fence lands its process's buffered stores, so it commutes with nothing.
fn independent(rel: Independence, a: &PendingOp, b: &PendingOp) -> bool {
    if a.kind == OpKind::Fence || b.kind == OpKind::Fence {
        return false;
    }
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
    /// The decisions this node branches on, in exploration order: the
    /// grants it has been asked for (the first awake one, then those the
    /// race pass or a truncated run add, unexplored ones kept in pid
    /// order), then the world's flushable entries (always none under
    /// sequential consistency), then the crash candidates (canonical
    /// placement, computed from the ancestor path).
    branches: Vec<Decision>,
    /// The branch the current run takes; `branches[..at]` are explored.
    at: usize,
}

impl Node {
    fn op_of(&self, pid: usize) -> PendingOp {
        self.enabled
            .iter()
            .find(|&&(p, _)| p == pid)
            .map(|&(_, op)| op)
            .expect("granted pids come from the enabled set")
    }

    /// The decision the current run takes at this node.
    fn chosen(&self) -> Decision {
        self.branches[self.at]
    }

    fn asleep(&self, pid: usize) -> bool {
        self.sleep.iter().any(|&(q, _)| q == pid)
    }

    /// Adds `Grant(pid)` to the branches unless it is one already, keeping
    /// the unexplored grants in pid order ahead of flushes and crashes.
    fn add_grant(&mut self, pid: usize) {
        let grant = Decision::Grant(pid);
        if self.branches.contains(&grant) {
            return;
        }
        let unexplored = self.at + 1;
        let pos = self.branches[unexplored..]
            .iter()
            .position(|d| !matches!(*d, Decision::Grant(q) if q < pid))
            .map_or(self.branches.len(), |p| unexplored + p);
        self.branches.insert(pos, grant);
    }

    /// Branches on every awake grant, as a plain sleep-set node does.
    fn widen(&mut self) {
        for i in 0..self.enabled.len() {
            let pid = self.enabled[i].0;
            if !self.asleep(pid) {
                self.add_grant(pid);
            }
        }
    }

    /// Enabled grants this node never branched on.
    fn unbranched(&self) -> u64 {
        let granted = self
            .branches
            .iter()
            .filter(|d| matches!(d, Decision::Grant(_)))
            .count();
        (self.enabled.len() - granted) as u64
    }
}

/// Why a run stopped extending the stack; it is then completed with
/// [`fallback`] until the world finishes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Cut {
    /// Every enabled process slept: an explored run covers the rest.
    Blocked,
    /// The run hit the step budget.
    Truncated,
}

/// One decision of a run's path, as the race pass sees it.
#[derive(Clone, Copy)]
struct Event {
    /// The granted pid. Flushes and crashes all belong to one extra thread,
    /// `n`: they are dependent with everything, so their order among
    /// themselves is happens-before anyway.
    thread: usize,
    /// The granted op; `None` for a flush or a crash.
    op: Option<PendingOp>,
}

/// The race pass over one run's path, with its buffers reused across runs.
/// Event indices are stored plus one, so 0 means "none".
#[derive(Default)]
struct RacePass {
    events: Vec<Event>,
    /// Vector clocks, `n + 1` entries per event: entry `t` is the last
    /// event of thread `t` that happens before the event.
    clock: Vec<usize>,
    /// Per event and thread: the thread's first event after it.
    next: Vec<usize>,
    /// Per thread, so far: the last event, the last non-read (writes,
    /// swaps, fences) and the last fence.
    last: Vec<usize>,
    last_nonread: Vec<usize>,
    last_fence: Vec<usize>,
    /// Per `reg * n + thread`, so far: the last write (or swap) and the
    /// last access of that register by that thread.
    reg_last: Vec<[usize; 2]>,
    /// The current event's candidate predecessors, latest first.
    preds: Vec<usize>,
    /// The earlier ends of the current event's races.
    races: Vec<usize>,
    /// The initial threads of the race being resolved.
    initials: Vec<usize>,
}

impl RacePass {
    /// Finds every race `i ⋖ j` on `path` with `j ≥ from` and makes node
    /// `i` branch on an initial of `notdep(i).j` — the events after `i`
    /// that do not happen after it, then `j` — unless one of those
    /// initials is a branch there already or asleep there. Races ending
    /// before `from` were resolved on an earlier run with the same prefix.
    /// With `drain`, the path ends with the world's end-of-run drain: one
    /// more flush event, with no node of its own.
    ///
    /// One forward pass, linear in the path length `k`: an event's
    /// candidate predecessors are its own thread's previous event and, per
    /// other thread, the last event dependent with it, read off the
    /// per-thread tables in O(1). So each event costs at most `n + 1`
    /// lookups and clock joins, and at most `n` races to resolve, each
    /// join or resolution O(n) clock entries per thread.
    fn run(&mut self, path: &mut [Node], n: usize, rel: Independence, from: usize, drain: bool) {
        let barrier = Event {
            thread: n,
            op: None,
        };
        self.events.clear();
        self.events
            .extend(path.iter().map(|node| match node.chosen() {
                Decision::Grant(p) => Event {
                    thread: p,
                    op: Some(node.op_of(p)),
                },
                _ => barrier,
            }));
        if drain {
            self.events.push(barrier);
        }
        let (k, w) = (self.events.len(), n + 1);
        self.next.clear();
        self.next.resize(k * w, 0);
        self.last.clear();
        self.last.resize(w, 0);
        for e in (0..k).rev() {
            self.next[e * w..(e + 1) * w].copy_from_slice(&self.last);
            self.last[self.events[e].thread] = e + 1;
        }
        self.clock.clear();
        self.clock.resize(k * w, 0);
        for table in [&mut self.last, &mut self.last_nonread, &mut self.last_fence] {
            table.clear();
            table.resize(w, 0);
        }
        for j in 0..k {
            let ev = self.events[j];
            self.preds.clear();
            for t in 0..w {
                let d = if t == ev.thread {
                    self.last[t]
                } else {
                    self.last_dependent(t, ev, n, rel)
                };
                if d > 0 {
                    self.preds.push(d);
                }
            }
            // Latest first: a predecessor that happens before a later one
            // is already in the clock, and is no race (something happens
            // between it and `j`).
            self.preds.sort_unstable_by(|a, b| b.cmp(a));
            self.races.clear();
            let row = j * w;
            for p in 0..self.preds.len() {
                let d = self.preds[p];
                let i = d - 1;
                let ti = self.events[i].thread;
                if self.clock[row + ti] >= d {
                    continue;
                }
                for u in 0..w {
                    self.clock[row + u] = self.clock[row + u].max(self.clock[i * w + u]);
                }
                self.clock[row + ti] = d;
                if ti != ev.thread && j >= from {
                    self.races.push(i);
                }
            }
            self.record(j, ev, n);
            for r in 0..self.races.len() {
                let i = self.races[r];
                self.resolve(&mut path[i], i, j, n);
            }
        }
        // Leave the register table zeroed for the next run.
        for ev in &self.events {
            if let Some(op) = ev.op.filter(|op| op.kind != OpKind::Fence) {
                self.reg_last[op.reg * n + ev.thread] = [0, 0];
            }
        }
    }

    /// The last event of thread `t` so far that is dependent with `ev`.
    fn last_dependent(&self, t: usize, ev: Event, n: usize, rel: Independence) -> usize {
        let op = match ev.op {
            Some(op) if t < n && op.kind != OpKind::Fence => op,
            // Flushes, crashes and fences are dependent with everything.
            _ => return self.last[t],
        };
        match rel {
            Independence::ReadsOnly if op.kind == OpKind::Read => self.last_nonread[t],
            Independence::ReadsOnly => self.last[t],
            Independence::DistinctRegisters => {
                let [write, access] = self
                    .reg_last
                    .get(op.reg * n + t)
                    .copied()
                    .unwrap_or_default();
                let same_reg = if op.kind == OpKind::Read {
                    write
                } else {
                    access
                };
                same_reg.max(self.last_fence[t])
            }
        }
    }

    /// Enters event `j` in the per-thread tables.
    fn record(&mut self, j: usize, ev: Event, n: usize) {
        let idx = j + 1;
        self.last[ev.thread] = idx;
        let Some(op) = ev.op else { return };
        if op.kind != OpKind::Read {
            self.last_nonread[ev.thread] = idx;
        }
        if op.kind == OpKind::Fence {
            self.last_fence[ev.thread] = idx;
            return;
        }
        let slot = op.reg * n + ev.thread;
        if slot >= self.reg_last.len() {
            self.reg_last.resize(slot + 1, [0, 0]);
        }
        let entry = &mut self.reg_last[slot];
        entry[1] = idx;
        if op.kind != OpKind::Read {
            entry[0] = idx;
        }
    }

    /// Resolves the race `i ⋖ j` at `node`, the decision point of `i`.
    fn resolve(&mut self, node: &mut Node, i: usize, j: usize, n: usize) {
        let w = n + 1;
        let ti = self.events[i].thread;
        // Only a thread's first event after `i` can be initial: one in
        // `notdep(i).j` with no predecessor there, that is no predecessor
        // after `i` (`j`'s own edge from `i` aside).
        self.initials.clear();
        for q in 0..w {
            let f = self.next[i * w + q];
            if f == 0 || f - 1 > j {
                continue;
            }
            let f = f - 1;
            let initial = (0..w).all(|u| self.clock[f * w + u] <= i || (f == j && u == ti));
            if initial {
                self.initials.push(q);
            }
        }
        // A flush or crash initial is `j` itself, which the always-taken
        // flush and crash branches cover (see the module docs).
        let covered = self
            .initials
            .iter()
            .any(|&q| q == n || node.asleep(q) || node.branches.contains(&Decision::Grant(q)));
        if covered {
            return;
        }
        // The initial is a grant whose process has no event between `i`
        // and it, so that process is parked at `i`.
        let q = self.initials[0];
        assert!(
            node.enabled.iter().any(|&(p, _)| p == q),
            "race pass: initial pid {q} is not enabled at decision point {i}"
        );
        node.add_grant(q);
    }
}

/// DFS state shared between the driver loop and the controller strategy.
struct Dfs {
    stack: Vec<Node>,
    /// Processes in the explored world.
    n: usize,
    /// Whether the world buffers stores, so that a complete run ends by
    /// draining the buffers without a decision.
    weak: bool,
    /// Decision index within the current run.
    depth: usize,
    /// The first stack index whose decision is new in the current run:
    /// the node the last backtrack advanced.
    fresh: usize,
    /// Set once the current run stops extending the stack.
    cut: Option<Cut>,
    /// Every decision of the current run, the completion below a cut
    /// included (one buffer, reused across runs).
    log: Vec<Decision>,
    races: RacePass,
    /// Enabled grants never branched on, counted as nodes pop
    /// ([`ExploreReport::pruned`]).
    pruned: u64,
    max_steps: u64,
    reduction: bool,
    independence: Independence,
    fault_budget: u64,
}

impl Dfs {
    /// Crash decisions on the current path.
    fn faults_on_path(&self) -> u64 {
        self.stack
            .iter()
            .filter(|n| matches!(n.chosen(), Decision::Crash(_)))
            .count() as u64
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
        let last_step = self
            .stack
            .iter()
            .rev()
            .map(Node::chosen)
            .find(|d| !matches!(d, Decision::Crash(_)));
        enabled
            .iter()
            .map(|&(q, _)| q)
            .filter(|&q| last_step.is_none_or(|d| d.pid() == q))
            .collect()
    }

    /// Makes the current path's nodes branch on what the run just ended
    /// showed they need: every awake grant after a truncated run, so
    /// bounded explorations keep every prefix a sleep-set DFS checks; the
    /// reversals of its races otherwise.
    fn finish_run(&mut self) {
        if !self.reduction {
            return;
        }
        if self.cut == Some(Cut::Truncated) {
            self.stack.iter_mut().for_each(Node::widen);
        } else {
            let drain = self.weak && self.cut.is_none();
            let (n, rel, from) = (self.n, self.independence, self.fresh);
            self.races.run(&mut self.stack, n, rel, from, drain);
        }
    }

    /// Advances the stack to the next unexplored branch, popping exhausted
    /// nodes. Returns `true` when the whole space is exhausted.
    fn backtrack(&mut self) -> bool {
        while let Some(node) = self.stack.last_mut() {
            node.at += 1;
            if node.at < node.branches.len() {
                self.fresh = self.stack.len() - 1;
                return false;
            }
            self.pruned += node.unbranched();
            self.stack.pop();
        }
        true
    }

    /// The node for the decision point `view`, below the current stack.
    fn open(&self, view: &ScheduleView<'_>) -> Node {
        let enabled: Vec<(usize, PendingOp)> = view
            .runnable
            .iter()
            .copied()
            .zip(view.pending.iter().copied())
            .collect();
        let sleep: Vec<(usize, PendingOp)> = match self.stack.last() {
            Some(parent) if self.reduction => match parent.chosen() {
                Decision::Grant(chosen_pid) => {
                    // Inherit the parent's sleepers and its explored grants
                    // that are independent of the op the parent executed
                    // to get here — dependent ones wake up.
                    let executed = parent.op_of(chosen_pid);
                    let rel = self.independence;
                    let explored = parent.branches[..parent.at]
                        .iter()
                        .filter_map(|d| match *d {
                            Decision::Grant(q) => Some((q, parent.op_of(q))),
                            _ => None,
                        });
                    parent
                        .sleep
                        .iter()
                        .copied()
                        .chain(explored)
                        .filter(|(q, qop)| *q != chosen_pid && independent(rel, qop, &executed))
                        .filter(|(q, _)| enabled.iter().any(|&(p, _)| p == *q))
                        .collect()
                }
                // A crash is dependent with every process: survivors'
                // subsequent behavior may hinge on the victim's absence, so
                // nothing stays asleep across a crash edge. A flush is a
                // write landing in shared memory — dependent with every
                // reader of that register, and cheap enough to treat as
                // dependent with everything. (Panics are never branched.)
                _ => Vec::new(),
            },
            _ => Vec::new(),
        };
        // Reduced, a node opens on its first awake grant only; the race
        // pass adds the others a run shows it needs.
        let grants = if self.reduction { 1 } else { enabled.len() };
        let mut branches: Vec<Decision> = enabled
            .iter()
            .map(|&(p, _)| p)
            .filter(|p| !sleep.iter().any(|&(q, _)| q == *p))
            .take(grants)
            .map(Decision::Grant)
            .collect();
        // Flush and crash branches are dependent with everything, so
        // sleeping grants never cover them.
        branches.extend(
            view.flushable
                .iter()
                .map(|&(pid, reg)| Decision::Flush { pid, reg }),
        );
        if self.faults_on_path() < self.fault_budget {
            branches.extend(
                self.crash_candidates(&enabled)
                    .into_iter()
                    .map(Decision::Crash),
            );
        }
        Node {
            enabled,
            sleep,
            branches,
            at: 0,
        }
    }

    /// The current run's next decision.
    fn decide(&mut self, view: &ScheduleView<'_>) -> Decision {
        if self.cut.is_some() {
            return fallback(view);
        }
        if let Some(node) = self.stack.get(self.depth) {
            // Replay segment: take the recorded choice and check the world
            // is behaving deterministically.
            assert!(
                node.enabled.len() == view.runnable.len()
                    && node
                        .enabled
                        .iter()
                        .zip(view.runnable.iter())
                        .all(|(&(p, _), &q)| p == q),
                "nondeterministic workload: decision point {} saw runnable \
                 {:?} on a previous run but {:?} now — explore() factories must \
                 rebuild identical worlds",
                self.depth,
                node.enabled.iter().map(|&(p, _)| p).collect::<Vec<_>>(),
                view.runnable,
            );
            self.depth += 1;
            return node.chosen();
        }
        if self.depth as u64 >= self.max_steps {
            self.cut = Some(Cut::Truncated);
            return fallback(view);
        }
        // Extension segment: open a new node.
        let node = self.open(view);
        if node.branches.is_empty() {
            // Everything enabled is asleep: this whole continuation is
            // covered by an explored run. Abandon the path; the node pops
            // at once with every enabled grant unbranched.
            self.pruned += node.unbranched();
            self.cut = Some(Cut::Blocked);
            return fallback(view);
        }
        let chosen = node.chosen();
        self.stack.push(node);
        self.depth += 1;
        chosen
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

/// The controller: replays the stack prefix, then extends it, logging
/// every decision of the run.
struct Controller {
    st: Arc<Mutex<Dfs>>,
}

impl Strategy for Controller {
    fn decide(&mut self, view: &ScheduleView<'_>) -> Decision {
        let mut st = self.st.lock();
        let decision = st.decide(view);
        st.log.push(decision);
        decision
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
    let st = Arc::new(Mutex::new(Dfs {
        stack: Vec::new(),
        n: 0,
        weak: false,
        depth: 0,
        fresh: 0,
        cut: None,
        log: Vec::new(),
        races: RacePass::default(),
        pruned: 0,
        max_steps: cfg.max_steps,
        reduction: cfg.reduction,
        independence: cfg.independence,
        fault_budget: cfg.fault_budget,
    }));
    let mut report = ExploreReport {
        schedules: 0,
        runs: 0,
        handoffs: 0,
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
    loop {
        let (mut world, bodies) = make();
        assert_eq!(
            world.mode(),
            Mode::Lockstep,
            "exploration needs the deterministic lockstep backend"
        );
        {
            let mut s = st.lock();
            s.n = world.n();
            s.weak = world.weak_memory_mode() != WeakMode::Sc;
            s.depth = 0;
            s.cut = None;
            s.log.clear();
        }
        let controller = Controller {
            st: Arc::clone(&st),
        };
        let run_report = world.run(bodies, Box::new(controller));
        report.runs += 1;
        report.handoffs += run_report.handoffs;
        let (cut, path_faults, path_len) = {
            let mut s = st.lock();
            s.finish_run();
            report.pruned = s.pruned;
            (s.cut, s.faults_on_path(), s.stack.len())
        };
        report.max_depth = report.max_depth.max(path_len);
        match cut {
            Some(Cut::Blocked) => {}
            Some(Cut::Truncated) => report.truncated += 1,
            None => {
                report.schedules += 1;
                let bucket = (path_faults as usize).min(report.schedules_by_faults.len() - 1);
                report.schedules_by_faults[bucket] += 1;
                report.faults_injected += path_faults;
            }
        }
        // Blocked paths were already checked under an equivalent schedule;
        // truncated prefixes are real executions and still worth checking.
        if cut != Some(Cut::Blocked) {
            report.schedule_lengths.record(path_len as u64);
            if let Some(description) = check(&run_report) {
                // Every decision the run took, the completion below a
                // truncation cut included: the stack alone would replay
                // with the replayer's completion instead.
                let trace = DecisionTrace {
                    n: world.n(),
                    decisions: std::mem::take(&mut st.lock().log),
                };
                report.violation = Some(Counterexample { trace, description });
                break;
            }
        }
        if let Some(hb) = heartbeat.as_mut() {
            hb.tick(|secs| {
                format!(
                    "explore: {} runs ({:.0}/s), {} schedules, {} blocked, {} truncated, \
                     {} pruned, {} faults injected, depth {}",
                    report.runs,
                    report.runs as f64 / secs.max(1e-9),
                    report.schedules,
                    report.runs - report.schedules - report.truncated,
                    report.truncated,
                    report.pruned,
                    report.faults_injected,
                    report.max_depth,
                )
            });
        }
        if st.lock().backtrack() {
            report.exhausted = report.truncated == 0;
            break;
        }
        if report.runs >= cfg.max_schedules {
            break;
        }
    }
    report.pruned = st.lock().pruned;
    // The explorer's counters mirror the report's.
    let metrics = MetricsRegistry::new(1);
    let m = metrics.proc(0);
    m.incr(Counter::SchedulesExplored, report.schedules);
    m.incr(Counter::SchedulesPruned, report.pruned);
    m.incr(Counter::SchedulesTruncated, report.truncated);
    m.incr(Counter::FaultsInjected, report.faults_injected);
    report.telemetry = metrics.snapshot();
    report
}

/// Replays `trace` against a fresh world from `make`, returning the run
/// report plus the *canonical* trace — the decisions actually issued, which
/// may differ from `trace` when entries were skipped as illegal, and which
/// end with the replayer's completion grants.
pub fn run_trace<T, F>(make: &mut F, trace: &DecisionTrace) -> (RunReport<T>, DecisionTrace)
where
    T: Send + 'static,
    F: FnMut() -> (World, Vec<ProcBody<T>>),
{
    let (recorder, log) = DecisionRecorder::new(trace.replayer());
    let (mut world, bodies) = make();
    let report = world.run(bodies, Box::new(recorder));
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

/// A [`Counterexample`] made an artifact by [`Counterexample::confirm`].
#[derive(Debug)]
pub struct Confirmed {
    /// The shrunk trace: what a document embeds.
    pub trace: DecisionTrace,
    /// Candidate re-executions the shrinker spent.
    pub shrink_runs: u64,
    /// The replay's critical cycle, when it flushed buffered stores.
    pub cycle: Option<CriticalCycle>,
    /// `Ok` iff the trace round-trips byte-identically, replays twice to
    /// the same decisions and history, and reproduces the violation. Either
    /// way the text names the violation, the shrink and the cycle; an `Err`
    /// appends what failed.
    pub verdict: Result<String, String>,
}

impl Counterexample {
    /// The one path from a violation to an artifact: shrinks the trace
    /// while `check` still reports a violation ([`shrink_trace`]), renders
    /// it under [`TRACE_SCHEMA`] and parses it back, replays the parsed
    /// trace twice against fresh worlds from `make` ([`run_trace`]), checks
    /// the first replay, and attaches its critical cycle when the replay
    /// flushed buffered stores (a history without flushes has none).
    pub fn confirm<T, F, C>(self, make: &mut F, check: &mut C) -> Confirmed
    where
        T: Send + 'static,
        F: FnMut() -> (World, Vec<ProcBody<T>>),
        C: FnMut(&RunReport<T>) -> Option<String>,
    {
        let found = self.trace.decisions.len();
        let (trace, shrink_runs) = shrink_trace(make, check, self.trace);
        let text = trace.to_json().render();
        let parsed = crate::json::parse(&text)
            .ok()
            .and_then(|v| DecisionTrace::from_json(&v).ok())
            .filter(|t| *t == trace && t.to_json().render() == text);
        let replays = parsed.map(|t| (run_trace(make, &t), run_trace(make, &t)));
        let flushed = |h: &&History| {
            h.events()
                .iter()
                .any(|e| matches!(e, crate::history::Event::Flush { .. }))
        };
        let cycle = replays
            .as_ref()
            .and_then(|((r, _), _)| r.history.as_ref().filter(flushed))
            .and_then(|h| critical_cycle(h, &make().0.reg_names()));
        let summary = format!(
            "{} — trace shrunk {found} -> {} decisions{}",
            self.description,
            trace.decisions.len(),
            cycle.as_ref().map(|c| format!("; {c}")).unwrap_or_default()
        );
        let history = |r: &RunReport<T>| r.history.as_ref().map(History::to_jsonl);
        let failure = match &replays {
            None => Some("did not round-trip byte-identically"),
            Some(((r, _), _)) if check(r).is_none() => Some("did not replay to the violation"),
            Some(((r, a), (r2, a2))) if a != a2 || history(r) != history(r2) => {
                Some("did not replay to the same history twice")
            }
            Some(_) => None,
        };
        Confirmed {
            trace,
            shrink_runs,
            cycle,
            verdict: match failure {
                None => Ok(summary),
                Some(what) => Err(format!("{summary}; the shrunk trace {what}")),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weakmem::WeakMode;
    use crate::world::World;

    /// The flag-principle workload: each process raises its own flag then
    /// reads the other's. 4 ops, two per process.
    fn flag_factory() -> impl Fn() -> (World, Vec<ProcBody<u32>>) {
        move || {
            let w = World::builder(2).build();
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
        let rep = explore(&cfg, flag_factory(), |_| None);
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

    /// A schedule's outcome: the outputs and which processes crashed.
    type Outcome<T> = (Vec<Option<T>>, Vec<bool>);

    /// The outcomes of every schedule an exhausted exploration of `make`
    /// checks, sorted.
    fn outcome_set<T, F>(
        make: F,
        reduction: bool,
        fault_budget: u64,
    ) -> (Vec<Outcome<T>>, ExploreReport)
    where
        T: Clone + Ord + Send + 'static,
        F: FnMut() -> (World, Vec<ProcBody<T>>),
    {
        let cfg = ExploreConfig {
            reduction,
            fault_budget,
            ..ExploreConfig::default()
        };
        let mut seen = Vec::new();
        let rep = explore(&cfg, make, |r| {
            let history = r.history.as_ref().unwrap();
            let crashed = (0..r.outputs.len())
                .map(|p| history.crashes().any(|(_, pid)| pid == p))
                .collect();
            let key = (r.outputs.clone(), crashed);
            if !seen.contains(&key) {
                seen.push(key);
            }
            None
        });
        assert!(rep.exhausted, "reduction={reduction}");
        seen.sort();
        (seen, rep)
    }

    /// Explores `make` reduced and unreduced and asserts both reach the
    /// same outcomes; returns the reduced exploration's report.
    fn reduced_matches_unreduced<T, F>(name: &str, make: F, fault_budget: u64) -> ExploreReport
    where
        T: Clone + Ord + std::fmt::Debug + Send + 'static,
        F: Fn() -> (World, Vec<ProcBody<T>>),
    {
        let (full, full_rep) = outcome_set(&make, false, fault_budget);
        let (reduced, rep) = outcome_set(&make, true, fault_budget);
        assert_eq!(full, reduced, "{name}: the reduction lost an outcome");
        assert!(rep.schedules <= full_rep.schedules, "{name}");
        assert!(rep.runs <= full_rep.runs, "{name}");
        rep
    }

    /// Three processes whose first race is reversed through a third
    /// process: p0 writes `x`, p1 writes `y`, p2 reads `x` then `y`. The
    /// first run grants p0, p1, p2 in turn; its race from p0's write to
    /// p2's read of `x` has p1's write, independent of both, in between,
    /// so the initials of the reversal are p1 and p2 and the root branches
    /// on p1 — not on p2, the reading end of the race.
    fn three_way_factory() -> (World, Vec<ProcBody<u32>>) {
        let w = World::builder(3).build();
        let x = w.reg("x", 0u32);
        let y = w.reg("y", 0u32);
        let (x0, y1) = (x.clone(), y.clone());
        let bodies: Vec<ProcBody<u32>> = vec![
            Box::new(move |ctx| {
                x0.write(ctx, 1)?;
                Ok(0)
            }),
            Box::new(move |ctx| {
                y1.write(ctx, 1)?;
                Ok(0)
            }),
            Box::new(move |ctx| Ok(x.read(ctx)? * 10 + y.read(ctx)?)),
        ];
        (w, bodies)
    }

    /// Every workload the reduction cross-checks run: the litmus corpus
    /// under SC, TSO and PSO, the PSO message-passing program and the
    /// three-process race, each reduced against unreduced. Peterson under
    /// store buffers is the one cell left out: its unreduced enumeration is
    /// 69,734 runs under TSO and 185,514 under PSO, a minute of this suite.
    fn reduction_matches_unreduced_everywhere(fault_budget: u64) {
        for prog in crate::litmus::corpus() {
            for mode in [WeakMode::Sc, WeakMode::Tso, WeakMode::Pso] {
                if prog.name == "peterson" && mode != WeakMode::Sc {
                    continue;
                }
                let build = prog.build;
                let name = format!(
                    "{}-{} (fault budget {fault_budget})",
                    prog.name,
                    mode.name()
                );
                reduced_matches_unreduced(&name, move || build(mode), fault_budget);
            }
        }
        reduced_matches_unreduced("mp-pso", mp_pso_factory(), fault_budget);
        let rep = reduced_matches_unreduced("three-way", three_way_factory, fault_budget);
        assert!(rep.pruned > 0, "p1's write commutes with the rest");
    }

    #[test]
    fn reduction_preserves_reachable_outcomes() {
        let (full, full_rep) = outcome_set(flag_factory(), false, 0);
        let (reduced, red_rep) = outcome_set(flag_factory(), true, 0);
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
        for (o, _) in &full {
            assert!(
                !(o[0] == Some(0) && o[1] == Some(0)),
                "flag principle violated by {o:?}"
            );
        }
        reduction_matches_unreduced_everywhere(0);
    }

    /// One writer, one reader on a single register: exploring finds the
    /// read-before-write schedule, and shrinking reduces it to the single
    /// forcing decision (grant the reader first).
    fn race_factory(mode: WeakMode) -> impl Fn() -> (World, Vec<ProcBody<u32>>) {
        move || {
            let w = World::builder(2).weak_memory(mode).build();
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
        let rep = explore(
            &ExploreConfig::default(),
            race_factory(WeakMode::Sc),
            stale_read,
        );
        let cex = rep.violation.expect("the stale read must be reachable");
        assert!(!rep.exhausted, "exploration stops at the violation");

        // Replay reproduces it.
        let mut make = race_factory(WeakMode::Sc);
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
        let confirmed = cex.confirm(&mut make, &mut |r| stale_read(r));
        assert_eq!(confirmed.trace.decisions, vec![Decision::Grant(1)]);
        assert!(confirmed.shrink_runs > 0);
        confirmed.verdict.expect("shrunk trace still violates");
    }

    /// Every decision kind round-trips byte-identically.
    #[test]
    fn trace_json_round_trips() {
        let t = DecisionTrace {
            n: 3,
            decisions: vec![
                Decision::Grant(2),
                Decision::Flush { pid: 2, reg: 1 },
                Decision::Panic(2),
                Decision::Crash(1),
                Decision::Grant(0),
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
            vec![Decision::Grant(2), Decision::Grant(0), Decision::Grant(1)]
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
            r#"{"schema": "bprc-trace-v1", "n": 2, "decisions": [{"panic": "x"}]}"#,
            r#"{"schema": "bprc-trace-v1", "n": 2, "decisions": [{"panic": 2}]}"#,
            // A flush without its register is not a decision.
            r#"{"schema": "bprc-trace-v1", "n": 2, "decisions": [{"flush": 0}]}"#,
            r#"{"schema": "bprc-trace-v1", "n": 2, "decisions": [{"flush": 5, "reg": 0}]}"#,
        ];
        for doc in bad {
            let v = crate::json::parse(doc).unwrap();
            assert!(DecisionTrace::from_json(&v).is_err(), "accepted {doc}");
        }
    }

    /// Message-passing under PSO: the violation *requires* a mid-run flush
    /// decision (the flag store must land while the data store stays
    /// buffered), so the counterexample carries a [`Decision::Flush`]
    /// through find → shrink → replay.
    fn mp_pso_factory() -> impl Fn() -> (World, Vec<ProcBody<u64>>) {
        || {
            let w = World::builder(2).weak_memory(WeakMode::Pso).build();
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
            cex.trace
                .decisions
                .iter()
                .any(|s| matches!(s, Decision::Flush { .. })),
            "the counterexample must carry the forcing flush: {:?}",
            cex.trace.decisions
        );

        let mut make = mp_pso_factory();
        let confirmed = cex.confirm(&mut make, &mut |r| stale_publish(r));
        assert!(confirmed.shrink_runs > 0);
        confirmed
            .verdict
            .expect("the shrunk trace replays to the violation");
        let min = confirmed.trace;
        let flushes: Vec<&Decision> = min
            .decisions
            .iter()
            .filter(|s| matches!(s, Decision::Flush { .. }))
            .collect();
        assert_eq!(
            flushes.len(),
            1,
            "shrinking must keep exactly the forcing flush: {:?}",
            min.decisions
        );
        let (_, actual) = run_trace(&mut make, &min);
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
        let mut without_flush = rep
            .violation
            .unwrap()
            .confirm(&mut make, &mut |r| stale_publish(r))
            .trace;
        without_flush
            .decisions
            .retain(|s| !matches!(s, Decision::Flush { .. }));
        let (replayed, actual) = run_trace(&mut make, &without_flush);
        assert!(
            stale_publish(&replayed).is_none(),
            "without the flush the flag cannot outrun its data: {:?}",
            replayed.outputs
        );
        assert!(
            actual
                .decisions
                .iter()
                .all(|s| !matches!(s, Decision::Flush { .. })),
            "the canonical log of a flush-free replay stays flush-free"
        );
    }

    /// A violation found below a truncation cut replays: the trace is every
    /// decision the run took, the flush-first completion included, not just
    /// the stack above the cut (which the replayer would complete with
    /// grants alone, leaving the store buffered past the read).
    #[test]
    fn counterexample_below_a_truncation_cut_replays() {
        let saw_one =
            |r: &RunReport<u32>| (r.outputs[1] == Some(1)).then(|| "the reader saw 1".to_string());
        let cfg = ExploreConfig {
            max_steps: 1,
            ..ExploreConfig::default()
        };
        let rep = explore(&cfg, race_factory(WeakMode::Pso), saw_one);
        assert_eq!(rep.truncated, 1, "the violating run is cut below one step");
        let cex = rep.violation.expect("the fair completion lands the store");
        assert_eq!(
            cex.trace.decisions,
            [
                Decision::Grant(0),
                Decision::Flush { pid: 0, reg: 0 },
                Decision::Grant(1)
            ]
        );
        let (replayed, actual) = run_trace(&mut race_factory(WeakMode::Pso), &cex.trace);
        assert_eq!(replayed.outputs, [Some(7), Some(1)]);
        assert_eq!(actual, cex.trace, "the trace replays verbatim");
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
        let rep = explore(&cfg, flag_factory(), |_| None);
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
        let rep = explore(&cfg, flag_factory(), |r| {
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

    /// A violation that only a crash can force: unreachable on grants
    /// alone, found with a fault budget of 1, and confirmed with the
    /// forcing crash kept through shrinking.
    #[test]
    fn crash_dependent_violation_found_shrunk_and_replayed() {
        let mut factory = || {
            let w = World::builder(2).build();
            let (v, p) = (w.reg("v", 0u32), w.reg("p", 0u32));
            let (v0, p0) = (v.clone(), p.clone());
            let bodies: Vec<ProcBody<u32>> = vec![
                Box::new(move |ctx| {
                    v0.write(ctx, 1)?;
                    p0.write(ctx, 1)?;
                    Ok(0)
                }),
                Box::new(move |ctx| Ok(v.read(ctx)? * 10 + p.read(ctx)?)),
            ];
            (w, bodies)
        };
        // `v` without its publish bit is torn only once the writer is dead.
        let unpublished = |r: &RunReport<u32>| {
            (r.outputs[1] == Some(10) && r.outputs[0].is_none())
                .then(|| "v visible without its publish bit and the writer is gone".into())
        };
        let grants_only = explore(&ExploreConfig::default(), factory, unpublished);
        assert!(grants_only.violation.is_none() && grants_only.exhausted);

        let cfg = ExploreConfig {
            fault_budget: 1,
            ..ExploreConfig::default()
        };
        let cex = explore(&cfg, factory, unpublished)
            .violation
            .expect("a crash between the writes forces it");
        let confirmed = cex.confirm(&mut factory, &mut |r| unpublished(r));
        confirmed
            .verdict
            .expect("the shrunk trace replays to the violation");
        assert!(
            (confirmed.trace.decisions.iter()).any(|s| matches!(s, Decision::Crash(_))),
            "shrinking must keep the forcing crash: {:?}",
            confirmed.trace.decisions
        );
    }

    /// The reduction with fault branches reaches exactly the outcome set
    /// (outputs + crash pattern) of the unreduced fault enumeration.
    #[test]
    fn reduction_with_faults_preserves_reachable_outcomes() {
        reduced_matches_unreduced("flag", flag_factory(), 1);
        reduction_matches_unreduced_everywhere(1);
    }
}
