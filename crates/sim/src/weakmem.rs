//! Weak-memory fidelity: TSO/PSO store buffers as scheduler decisions.
//!
//! The paper's P1–P3 properties are proved over *atomic* registers; the
//! packed/seqlock register plane is safe Rust over relaxed-to-acquire
//! atomics, and nothing in the SC scheduler exercises the orderings those
//! atomics permit on real hardware. This module closes that gap without a
//! new model checker: each process gets a FIFO **store buffer**, a granted
//! write becomes a buffer insertion, and the moment a buffered write
//! reaches shared memory is a first-class scheduler decision
//! ([`Decision::Flush`](crate::sched::Decision)) — explorable by the
//! existing DFS/partial-order-reduction and PCT machinery like a grant, and
//! serialized into `bprc-trace-v1` counterexamples as `{"flush": ...}`
//! steps that shrink and replay unchanged.
//!
//! # The two buffer disciplines
//!
//! * [`WeakMode::Tso`] — one FIFO per process, flushed strictly in order:
//!   only the buffer *head* is flushable. Write→write order is preserved;
//!   a later read may complete while an earlier write is still buffered
//!   (the `SB` litmus outcome).
//! * [`WeakMode::Pso`] — per-register FIFO order only: the oldest buffered
//!   write *of each register* is flushable, so writes to distinct
//!   registers drain in any order (additionally the `MP` litmus outcome).
//!
//! [`WeakMode::Regular`] reuses the PSO discipline to weaken every register
//! to a *regular* one instead, with fences left free: it is a register
//! consistency model, not a hardware one.
//!
//! Both disciplines do **store-to-load forwarding**: a process reading a
//! register it has buffered writes for sees its own newest buffered value,
//! never the stale memory cell. Reads are never delayed or reordered, so
//! load-buffering (`LB`) and `IRIW` outcomes stay unreachable — store
//! buffers are multi-copy atomic. The litmus corpus
//! ([`crate::litmus`]) pins all of this as executable physics.
//!
//! # Soundness of exploring flushes as decisions
//!
//! A flush decision has no private effect on the flushing process (its own
//! reads already forward from the buffer) and exactly one shared effect:
//! the store lands in memory. That is the same shape as a granted write
//! under SC, so the branch-per-decision DFS enumerates reorderings the way
//! it enumerates interleavings. Flush edges are treated as **dependent
//! with everything** (they never enter a sleep set, reset the child's
//! sleep set and are always branched), which is conservative — it costs
//! pruning, never coverage. The explorer's race pass ends a complete run
//! with the end-of-run drain as one more such flush.
//! [`Ctx::fence`](crate::world::Ctx::fence) drains the caller's own buffer
//! as one scheduled gate, and fences are likewise dependent with
//! everything in the independence relation.
//!
//! When the world shuts down cleanly with non-empty buffers, the scheduler
//! drains them deterministically (ascending pid, FIFO) — no survivor can
//! observe that order, so it adds no schedules. A **crash drops the
//! victim's buffer**: the never-flushed writes model a process dying with
//! stores still in flight, and the explorer separately branches
//! flush-then-crash to cover the published variants.
//!
//! # Critical cycles
//!
//! When a weak-memory run violates a property, the raw schedule says
//! *where* but not *why*. [`critical_cycle`] rebuilds the execution's
//! memory-order graph from the recorded [`History`] — program order `po`,
//! reads-from `rf`, coherence `co`, and from-reads `fr` — and returns the
//! shortest cycle through those edges. A cycle is exactly a certificate of
//! non-SC behaviour (an acyclic po ∪ rf ∪ co ∪ fr graph embeds in a
//! sequential order), and the reported edge list names the reordering:
//! "this write overtook that read".

use std::any::Any;
use std::collections::VecDeque;
use std::fmt;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::history::{Event, FaultKind, History, OpKind, RegId};
use crate::sched::{Decision, ScheduleView, Strategy};

/// The register id [`Ctx::fence`](crate::world::Ctx::fence) gates on: a
/// sentinel outside every real register's id space (registers are dense
/// from 0). Fence ops carry it in [`PendingOp`](crate::sched::PendingOp)
/// and in recorded [`Event::Op`]s.
pub const FENCE_REG: RegId = usize::MAX;

/// Which memory model the lockstep scheduler simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WeakMode {
    /// Sequential consistency: writes land in memory at their grant (the
    /// pre-weakmem behaviour; store buffers stay empty). Registers are
    /// atomic — the paper's model.
    #[default]
    Sc,
    /// Total store order: per-process FIFO store buffers, head-only
    /// flushes, store-to-load forwarding.
    Tso,
    /// Partial store order: like TSO but only per-*register* FIFO order —
    /// buffered writes to distinct registers flush in any order.
    Pso,
    /// Regular registers (Lamport): a read concurrent with a write may
    /// return the old or the new value. Simulated with PSO's buffers and
    /// flush discipline — per-register FIFO, no cross-register order, the
    /// writer forwarding its own staged stores — which is exactly
    /// regularity. [`Ctx::fence`](crate::world::Ctx::fence) is a free
    /// no-op here, because no fence can make a regular register atomic.
    Regular,
}

impl WeakMode {
    /// The mode's stable lowercase name (JSON / CLI key).
    pub fn name(self) -> &'static str {
        match self {
            WeakMode::Sc => "sc",
            WeakMode::Tso => "tso",
            WeakMode::Pso => "pso",
            WeakMode::Regular => "regular",
        }
    }
}

impl fmt::Display for WeakMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A write sitting in a process's store buffer: the typed value for
/// store-to-load forwarding, plus the deferred effect that lands it in the
/// backing cell when flushed.
pub(crate) struct BufferedStore {
    /// Target register.
    pub reg: RegId,
    /// The buffered value, for same-process forwarding reads.
    pub value: Box<dyn Any + Send>,
    /// Applies the store to the backing cell.
    pub apply: Box<dyn FnOnce() + Send>,
}

impl fmt::Debug for BufferedStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BufferedStore")
            .field("reg", &self.reg)
            .finish_non_exhaustive()
    }
}

/// The flushable entries of one process's buffer under `mode`: TSO exposes
/// the head only; PSO (and regular registers) expose the oldest entry per
/// register, in buffer order of first occurrence.
pub(crate) fn flushable_of(mode: WeakMode, buffer: &VecDeque<BufferedStore>) -> Vec<RegId> {
    match mode {
        WeakMode::Sc => Vec::new(),
        WeakMode::Tso => buffer.front().map(|e| e.reg).into_iter().collect(),
        WeakMode::Pso | WeakMode::Regular => {
            let mut regs = Vec::new();
            for e in buffer {
                if !regs.contains(&e.reg) {
                    regs.push(e.reg);
                }
            }
            regs
        }
    }
}

/// One memory operation in a critical cycle, formatted from the recorded
/// history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleNode {
    /// The acting process.
    pub pid: usize,
    /// Read or write.
    pub kind: OpKind,
    /// Target register.
    pub reg: RegId,
    /// The op's global step index (its grant position).
    pub step: u64,
    /// Display name of the register (`r<id>` when the history has no
    /// name table).
    pub reg_name: String,
}

impl fmt::Display for CycleNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let k = match self.kind {
            OpKind::Read => "R",
            OpKind::Write => "W",
            OpKind::Fence => "F",
            OpKind::Swap => "X",
        };
        write!(f, "{k} p{} {}@{}", self.pid, self.reg_name, self.step)
    }
}

/// The relation an edge of a critical cycle belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Program order: same process, consecutive in its instruction stream.
    Po,
    /// Reads-from: the write the read observed.
    Rf,
    /// Coherence: memory order between two writes to the same register.
    Co,
    /// From-read: the read observed a write that the target write
    /// coherence-overwrites.
    Fr,
}

impl fmt::Display for EdgeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EdgeKind::Po => "po",
            EdgeKind::Rf => "rf",
            EdgeKind::Co => "co",
            EdgeKind::Fr => "fr",
        })
    }
}

/// A minimal certificate that an execution is not sequentially consistent:
/// the shortest cycle in its po ∪ rf ∪ co ∪ fr graph, plus the po edge the
/// store buffer actually broke.
#[derive(Debug, Clone)]
pub struct CriticalCycle {
    /// The cycle as `(from, relation, to)` edges; the last edge closes
    /// back to the first node.
    pub edges: Vec<(CycleNode, EdgeKind, CycleNode)>,
    /// Human explanation of the reordered po edge: which write overtook
    /// which later access of the same process (the buffered write's flush
    /// landed after its po-successor executed). Empty when no single po
    /// edge explains it (cannot happen for store-buffer executions of
    /// this module, but the type does not promise it).
    pub reordered: String,
}

impl fmt::Display for CriticalCycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "critical cycle ({} edges): ", self.edges.len())?;
        for (i, (from, kind, _)) in self.edges.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{from} -{kind}->")?;
        }
        if let Some((first, _, _)) = self.edges.first() {
            write!(f, " {first}")?;
        }
        if !self.reordered.is_empty() {
            write!(f, "; {}", self.reordered)?;
        }
        Ok(())
    }
}

/// One node of the access-event graph built from a history.
struct AegOp {
    pid: usize,
    kind: OpKind,
    reg: RegId,
    step: u64,
    /// Index of the Op event in the history (issue order).
    issue: usize,
    /// For writes: the history index at which the store became visible in
    /// memory — its matching Flush event, or its own Op event when the
    /// history has no flushes (SC runs). `None` = never flushed
    /// (crash-dropped).
    vis: Option<usize>,
}

/// Rebuilds po ∪ rf ∪ co ∪ fr from a recorded lockstep history and returns
/// the shortest cycle, or `None` when the execution is sequentially
/// consistent (the graph is acyclic). `reg_names` maps register ids to
/// display names; out-of-range ids render as `r<id>`.
///
/// Writes are matched to [`Event::Flush`] entries per process in FIFO
/// order (first buffered write of the flushed register); histories without
/// flush events — SC runs — get every write visible at its own grant, so
/// the function is total over both modes and returns `None` on SC
/// histories by construction.
pub fn critical_cycle(history: &History, reg_names: &[String]) -> Option<CriticalCycle> {
    // -- Collect memory ops (fences carry no value; they only order). --
    let events = history.events();
    let mut ops: Vec<AegOp> = Vec::new();
    for (idx, ev) in events.iter().enumerate() {
        if let Event::Op {
            step,
            pid,
            kind,
            reg,
            tag: _,
        } = ev
        {
            if *kind == OpKind::Fence {
                continue;
            }
            ops.push(AegOp {
                pid: *pid,
                kind: *kind,
                reg: *reg,
                step: *step,
                issue: idx,
                vis: match kind {
                    OpKind::Write => None, // resolved below
                    _ => Some(idx),
                },
            });
        }
    }
    // -- Resolve write visibility: match Flush events per pid, FIFO over
    // the flushed register; no flushes at all ⇒ SC ⇒ visible at grant. --
    let any_flush = events.iter().any(|e| matches!(e, Event::Flush { .. }));
    if any_flush {
        for (idx, ev) in events.iter().enumerate() {
            if let Event::Flush { pid, reg, .. } = ev {
                let slot = ops.iter_mut().find(|o| {
                    o.kind == OpKind::Write && o.pid == *pid && o.reg == *reg && o.vis.is_none()
                });
                if let Some(o) = slot {
                    o.vis = Some(idx);
                }
            }
        }
    } else {
        for o in ops.iter_mut() {
            if o.kind == OpKind::Write {
                o.vis = Some(o.issue);
            }
        }
    }

    // -- Edges. Adjacency over op indices. --
    let m = ops.len();
    let mut adj: Vec<Vec<(usize, EdgeKind)>> = vec![Vec::new(); m];
    // po: consecutive ops of each pid (transitively closed by path search).
    let mut last_of: Vec<Option<usize>> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let pid = op.pid;
        if last_of.len() <= pid {
            last_of.resize(pid + 1, None);
        }
        if let Some(prev) = last_of[pid] {
            adj[prev].push((i, EdgeKind::Po));
        }
        last_of[pid] = Some(i);
    }
    // co: per-register visibility order over flushed writes.
    let mut by_reg: Vec<(RegId, Vec<usize>)> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        if op.kind == OpKind::Write && op.vis.is_some() {
            match by_reg.iter_mut().find(|(r, _)| *r == op.reg) {
                Some((_, v)) => v.push(i),
                None => by_reg.push((op.reg, vec![i])),
            }
        }
    }
    for (_, writes) in by_reg.iter_mut() {
        writes.sort_by_key(|&i| ops[i].vis);
        for w in writes.windows(2) {
            adj[w[0]].push((w[1], EdgeKind::Co));
        }
    }
    // rf + fr per read: forwarding from the newest own buffered-at-read
    // write, else the last write visible before the read; fr goes to the
    // source's immediate co-successor (co chains reach the rest).
    for r in 0..m {
        if ops[r].kind != OpKind::Read {
            continue;
        }
        let (reg, at, pid) = (ops[r].reg, ops[r].issue, ops[r].pid);
        let forwarded = (0..m)
            .filter(|&w| {
                ops[w].kind == OpKind::Write
                    && ops[w].pid == pid
                    && ops[w].reg == reg
                    && ops[w].issue < at
                    && ops[w].vis.is_none_or(|v| v > at)
            })
            .max_by_key(|&w| ops[w].issue);
        let source = forwarded.or_else(|| {
            (0..m)
                .filter(|&w| {
                    ops[w].kind == OpKind::Write
                        && ops[w].reg == reg
                        && ops[w].vis.is_some_and(|v| v < at)
                })
                .max_by_key(|&w| ops[w].vis)
        });
        let co_order = by_reg
            .iter()
            .find(|(rr, _)| *rr == reg)
            .map(|(_, v)| v.as_slice())
            .unwrap_or(&[]);
        match source {
            Some(w) => {
                adj[w].push((r, EdgeKind::Rf));
                // fr: the read is before every write co-after its source.
                let succ = co_order
                    .iter()
                    .position(|&x| x == w)
                    .and_then(|p| co_order.get(p + 1));
                if let Some(&w2) = succ {
                    adj[r].push((w2, EdgeKind::Fr));
                } else if ops[w].vis.is_none() {
                    // Forwarded from a never-flushed write: the read is
                    // before every flushed write of the register.
                    if let Some(&first) = co_order.first() {
                        adj[r].push((first, EdgeKind::Fr));
                    }
                }
            }
            None => {
                // Read of the initial value: before every flushed write.
                if let Some(&first) = co_order.first() {
                    adj[r].push((first, EdgeKind::Fr));
                }
            }
        }
    }

    // -- Shortest cycle: BFS from every node back to itself. --
    let mut best: Option<Vec<(usize, EdgeKind, usize)>> = None;
    for start in 0..m {
        let mut prev: Vec<Option<(usize, EdgeKind)>> = vec![None; m];
        let mut seen = vec![false; m];
        let mut queue = VecDeque::new();
        for &(next, kind) in &adj[start] {
            if next == start {
                let cycle = vec![(start, kind, start)];
                if best.as_ref().is_none_or(|b| b.len() > 1) {
                    best = Some(cycle);
                }
                continue;
            }
            if !seen[next] {
                seen[next] = true;
                prev[next] = Some((start, kind));
                queue.push_back(next);
            }
        }
        'bfs: while let Some(u) = queue.pop_front() {
            for &(v, kind) in &adj[u] {
                if v == start {
                    // Reconstruct start -> ... -> u -> start.
                    let mut path = vec![(u, kind, start)];
                    let mut cur = u;
                    while cur != start {
                        let (p, k) = prev[cur].expect("BFS predecessor");
                        path.push((p, k, cur));
                        cur = p;
                    }
                    path.reverse();
                    if best.as_ref().is_none_or(|b| b.len() > path.len()) {
                        best = Some(path);
                    }
                    break 'bfs;
                }
                if !seen[v] {
                    seen[v] = true;
                    prev[v] = Some((u, kind));
                    queue.push_back(v);
                }
            }
        }
    }
    let cycle = best?;

    let name = |reg: RegId| -> String {
        reg_names
            .get(reg)
            .cloned()
            .unwrap_or_else(|| format!("r{reg}"))
    };
    let node = |i: usize| CycleNode {
        pid: ops[i].pid,
        kind: ops[i].kind,
        reg: ops[i].reg,
        step: ops[i].step,
        reg_name: name(ops[i].reg),
    };
    // Name the broken po edge: a write whose visibility lands after its
    // po-successor in the cycle executed.
    let mut reordered = String::new();
    for &(a, kind, b) in &cycle {
        if kind == EdgeKind::Po && ops[a].kind == OpKind::Write {
            let late = match ops[a].vis {
                Some(v) => v > ops[b].issue,
                None => true,
            };
            if late {
                reordered = format!(
                    "write of {} by p{} stayed buffered past its program-order \
                     successor ({} of {}) — the store overtook the later access",
                    name(ops[a].reg),
                    ops[a].pid,
                    match ops[b].kind {
                        OpKind::Read => "read",
                        OpKind::Write => "write",
                        OpKind::Fence => "fence",
                        OpKind::Swap => "swap",
                    },
                    name(ops[b].reg),
                );
                break;
            }
        }
    }
    Some(CriticalCycle {
        edges: cycle
            .into_iter()
            .map(|(a, k, b)| (node(a), k, node(b)))
            .collect(),
        reordered,
    })
}

/// Decorator that randomly interleaves flush decisions with an inner
/// strategy — the weak-memory counterpart of
/// [`RandomStrategy`](crate::sched::RandomStrategy) for PCT/random sweeps.
/// With probability 40 % at each decision point with a
/// non-empty flushable set, it flushes a uniformly chosen entry; otherwise
/// it delegates. Seeded and replayable; under SC the flushable set is
/// always empty, so `RandomFlushes` degenerates to its inner strategy with
/// an identical decision stream (the RNG is only consulted when flushes
/// exist).
#[derive(Debug)]
pub struct RandomFlushes<S> {
    inner: S,
    rng: SmallRng,
}

/// The per-decision flush probability of [`RandomFlushes`], in percent.
const FLUSH_PERCENT: u32 = 40;

impl<S: Strategy> RandomFlushes<S> {
    /// Wraps `inner` with a fresh flush-coin stream.
    pub fn new(inner: S, seed: u64) -> Self {
        RandomFlushes {
            inner,
            rng: SmallRng::seed_from_u64(seed ^ 0xF1A5_F1A5_F1A5_F1A5),
        }
    }
}

impl<S: Strategy> Strategy for RandomFlushes<S> {
    fn decide(&mut self, view: &ScheduleView<'_>) -> Decision {
        if !view.flushable.is_empty() && self.rng.gen_range(0..100u32) < FLUSH_PERCENT {
            let (pid, reg) = view.flushable[self.rng.gen_range(0..view.flushable.len())];
            return Decision::Flush { pid, reg };
        }
        self.inner.decide(view)
    }

    fn drain_fault_notes(&mut self) -> Vec<(usize, FaultKind)> {
        self.inner.drain_fault_notes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(step: u64, pid: usize, kind: OpKind, reg: RegId) -> Event {
        Event::Op {
            step,
            pid,
            kind,
            reg,
            tag: 0,
        }
    }

    fn flush(step: u64, pid: usize, reg: RegId) -> Event {
        Event::Flush { step, pid, reg }
    }

    /// The SB execution with both writes flushed after both reads: the
    /// canonical 4-edge cycle Wx -po-> Ry -fr-> Wy -po-> Rx -fr-> Wx.
    #[test]
    fn sb_reordering_yields_the_canonical_four_edge_cycle() {
        let h = History::from_events(vec![
            op(0, 0, OpKind::Write, 0), // p0: x = 1 (buffered)
            op(1, 1, OpKind::Write, 1), // p1: y = 1 (buffered)
            op(2, 0, OpKind::Read, 1),  // p0: reads y = 0
            op(3, 1, OpKind::Read, 0),  // p1: reads x = 0
            flush(4, 0, 0),
            flush(4, 1, 1),
        ]);
        let names = vec!["x".to_string(), "y".to_string()];
        let cycle = critical_cycle(&h, &names).expect("SB reordering is not SC");
        assert_eq!(cycle.edges.len(), 4);
        let kinds: Vec<EdgeKind> = cycle.edges.iter().map(|&(_, k, _)| k).collect();
        assert_eq!(kinds.iter().filter(|&&k| k == EdgeKind::Po).count(), 2);
        assert_eq!(kinds.iter().filter(|&&k| k == EdgeKind::Fr).count(), 2);
        assert!(
            cycle.reordered.contains("stayed buffered"),
            "must name the broken po edge: {}",
            cycle.reordered
        );
        let rendered = cycle.to_string();
        assert!(rendered.contains("-po->") && rendered.contains("-fr->"));
    }

    /// The same four ops in an SC-reachable order (writes visible at
    /// grant): acyclic, no cycle reported.
    #[test]
    fn sc_execution_has_no_cycle() {
        let h = History::from_events(vec![
            op(0, 0, OpKind::Write, 0),
            op(1, 0, OpKind::Read, 1),
            op(2, 1, OpKind::Write, 1),
            op(3, 1, OpKind::Read, 0), // reads x = 1: fine
        ]);
        assert!(critical_cycle(&h, &[]).is_none());
    }

    /// Store-to-load forwarding shows up as an rf edge from a still-
    /// buffered write, and a flushed overwrite closes an fr edge through
    /// the co order.
    #[test]
    fn forwarding_reads_from_unflushed_writes() {
        // p0: x = 1 (buffered); reads x (forwards 1); p1: x = 2 flushed
        // immediately; then p0's x = 1 flushes last.
        let h = History::from_events(vec![
            op(0, 0, OpKind::Write, 0),
            op(1, 0, OpKind::Read, 0), // forwards p0's buffered 1
            op(2, 1, OpKind::Write, 0),
            flush(3, 1, 0),
            flush(3, 0, 0),
        ]);
        // co: W(p1) -> W(p0); rf: W(p0) -> R(p0). The read forwards from a
        // write that is co-*after* the p1 write, so no fr edge contradicts
        // anything: acyclic.
        assert!(critical_cycle(&h, &[]).is_none());
    }

    /// MP under PSO: flag flushes before data, the reader sees flag=1 but
    /// data=0 — a cycle must exist and name data's broken po edge.
    #[test]
    fn mp_pso_reordering_is_cyclic() {
        let h = History::from_events(vec![
            op(0, 0, OpKind::Write, 0), // data = 1 (buffered)
            op(1, 0, OpKind::Write, 1), // flag = 1 (buffered)
            flush(2, 0, 1),             // PSO: flag first
            op(2, 1, OpKind::Read, 1),  // reader: flag = 1
            op(3, 1, OpKind::Read, 0),  // reader: data = 0 (!)
            flush(4, 0, 0),             // data lands too late
        ]);
        let names = vec!["data".to_string(), "flag".to_string()];
        let cycle = critical_cycle(&h, &names).expect("MP reordering is not SC");
        assert!(
            cycle.reordered.contains("data"),
            "must name the data write as the buffered one: {}",
            cycle.reordered
        );
    }

    #[test]
    fn flushable_respects_the_buffer_discipline() {
        let mk = |reg: RegId| BufferedStore {
            reg,
            value: Box::new(0u64),
            apply: Box::new(|| {}),
        };
        let buf: VecDeque<BufferedStore> = vec![mk(3), mk(5), mk(3)].into();
        assert_eq!(flushable_of(WeakMode::Sc, &buf), Vec::<RegId>::new());
        assert_eq!(flushable_of(WeakMode::Tso, &buf), vec![3]);
        assert_eq!(flushable_of(WeakMode::Pso, &buf), vec![3, 5]);
        assert_eq!(flushable_of(WeakMode::Regular, &buf), vec![3, 5]);
        assert!(flushable_of(WeakMode::Tso, &VecDeque::new()).is_empty());
    }

    #[test]
    fn weak_mode_names_are_stable() {
        assert_eq!(WeakMode::Sc.name(), "sc");
        assert_eq!(WeakMode::Tso.name(), "tso");
        assert_eq!(WeakMode::Pso.name(), "pso");
        assert_eq!(WeakMode::Regular.name(), "regular");
        assert_eq!(WeakMode::Pso.to_string(), "pso");
        assert_eq!(WeakMode::default(), WeakMode::Sc);
    }
}
