//! The scannable-memory construction (paper §2.2).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bprc_registers::{ArrowCell, Swmr};
use bprc_sim::{Counter, Ctx, EventKind, FastPod, Halted, World, NO_VERSION};

/// History annotation labels used by this construction (consumed by
/// [`crate::checker`]).
pub mod labels {
    /// Start of an update; data = `[seq]`.
    pub const UPD_START: &str = "snap:upd:start";
    /// End of an update; data = `[seq]`.
    pub const UPD_END: &str = "snap:upd:end";
    /// Start of a scan; data = `[]`.
    pub const SCAN_START: &str = "snap:scan:start";
    /// Successful end of a scan; data = the returned seq per process.
    pub const SCAN_END: &str = "snap:scan:end";
}

/// What one cell of the memory holds: the payload, the paper's alternating
/// bit, and a *ghost* sequence number used only by the offline checker
/// (the algorithm never branches on it — the double collect compares
/// `(value, toggle)` only, so ABA hazards are real and must be handled by
/// the toggle, exactly as in the paper).
#[derive(Debug)]
struct Slot<T> {
    value: T,
    toggle: bool,
    seq: u64,
}

impl<T: Clone> Clone for Slot<T> {
    fn clone(&self) -> Self {
        Slot {
            value: self.value.clone(),
            toggle: self.toggle,
            seq: self.seq,
        }
    }

    /// Forwards to the payload's `clone_from`, so a payload that reuses its
    /// buffers makes every collect, own-slot refresh and view refill a copy
    /// into memory the port already owns.
    fn clone_from(&mut self, source: &Self) {
        self.value.clone_from(&source.value);
        self.toggle = source.toggle;
        self.seq = source.seq;
    }
}

impl<T: PartialEq> Slot<T> {
    /// Algorithm-visible equality: payload and toggle, *not* the ghost seq.
    fn same_visible(&self, other: &Self) -> bool {
        self.value == other.value && self.toggle == other.toggle
    }
}

impl<T: Clone + Send + Sync + 'static> crate::collect::SeqSlot for Slot<T> {
    fn ghost_seq(&self) -> u64 {
        self.seq
    }
}

/// Slots of small POD payloads can ride the seqlock backings: the packed
/// layout is the payload words, then the toggle, then the ghost seq. Slots
/// too wide for the backing they are handed to (the table in
/// [`bprc_sim::reg`]) transparently keep the locked one.
impl<T: FastPod> FastPod for Slot<T> {
    const WORDS: usize = T::WORDS + 2;

    fn pack(&self, out: &mut [u64]) {
        self.value.pack(&mut out[..T::WORDS]);
        out[T::WORDS] = u64::from(self.toggle);
        out[T::WORDS + 1] = self.seq;
    }

    fn unpack(words: &[u64]) -> Self {
        Slot {
            value: T::unpack(&words[..T::WORDS]),
            toggle: words[T::WORDS] != 0,
            seq: words[T::WORDS + 1],
        }
    }
}

/// Metadata the offline checker needs to interpret a history.
#[derive(Debug, Clone)]
pub struct SnapshotMeta {
    /// `value_regs[i]` is the register id of `V_i`.
    pub value_regs: Vec<usize>,
}

struct Shared<T, A> {
    n: usize,
    values: Vec<Swmr<Slot<T>>>,
    /// `arrows[w][s]`: raised by writer `w` toward scanner `s` (None on the
    /// diagonal).
    arrows: Vec<Vec<Option<A>>>,
    /// Max double-collect attempts per scan; 0 = unbounded (the paper's
    /// semantics, and the default).
    scan_retry_budget: AtomicU64,
    port_taken: Vec<AtomicBool>,
}

/// The paper's bounded scannable memory over `n` processes.
///
/// Construct once, then hand each process its [`Port`] (see
/// [`ScannableMemory::port`]). Generic over the arrow implementation — see
/// [`bprc_registers::ArrowCell`].
pub struct ScannableMemory<T, A> {
    shared: Arc<Shared<T, A>>,
}

impl<T, A> Clone for ScannableMemory<T, A> {
    fn clone(&self) -> Self {
        ScannableMemory {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T, A> std::fmt::Debug for ScannableMemory<T, A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScannableMemory")
            .field("n", &self.shared.n)
            .finish()
    }
}

impl<T, A> ScannableMemory<T, A>
where
    T: Clone + PartialEq + Send + Sync + 'static,
    A: ArrowCell,
{
    /// Allocates the memory: `n` value registers (initialized to `init` with
    /// ghost seq 0) and `n·(n−1)` arrows, all lowered.
    pub fn new(world: &World, n: usize, init: T) -> Self {
        Self::build(world, n, init, Swmr::new)
    }

    /// Like [`ScannableMemory::new`], but allocates the value registers as
    /// lanes of one shared [`value slab`](World::value_slab), so the `n`
    /// seqlock version words sit contiguously and a steady collect's
    /// batched validation sweeps ⌈n/8⌉ cache lines instead of `n`.
    /// Payloads whose packed slot exceeds a lane's widest stride
    /// ([`bprc_sim::MAX_FAST_WORDS_DYN`] words) transparently keep the
    /// locked cells, so this only ever changes the memory representation,
    /// never semantics.
    pub fn new_fast(world: &World, n: usize, init: T) -> Self
    where
        T: FastPod,
    {
        let slab = world.value_slab(n, Slot::<T>::WORDS);
        Self::build(world, n, init, move |w, name, i, slot| {
            Swmr::new_lane(w, &slab, i, name, i, slot)
        })
    }

    fn build(
        world: &World,
        n: usize,
        init: T,
        mk: impl Fn(&World, String, usize, Slot<T>) -> Swmr<Slot<T>>,
    ) -> Self {
        assert!(n >= 1, "need at least one process");
        assert_eq!(world.n(), n, "memory size must match the world");
        let values = (0..n)
            .map(|i| {
                mk(
                    world,
                    format!("V_{i}"),
                    i,
                    Slot {
                        value: init.clone(),
                        toggle: false,
                        seq: 0,
                    },
                )
            })
            .collect();
        let arrows = (0..n)
            .map(|w| {
                (0..n)
                    .map(|s| {
                        if w == s {
                            None
                        } else {
                            Some(A::alloc(world, &format!("A_{w}_{s}"), w, s))
                        }
                    })
                    .collect()
            })
            .collect();
        ScannableMemory {
            shared: Arc::new(Shared {
                n,
                values,
                arrows,
                scan_retry_budget: AtomicU64::new(0),
                port_taken: (0..n).map(|_| AtomicBool::new(false)).collect(),
            }),
        }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.shared.n
    }

    /// Takes process `pid`'s port. Each port may be taken once.
    ///
    /// # Panics
    ///
    /// Panics if the port was already taken or `pid` is out of range.
    pub fn port(&self, pid: usize) -> Port<T, A> {
        crate::collect::claim_port(&self.shared.port_taken, pid);
        let snap: Vec<Slot<T>> = self.shared.values.iter().map(|v| v.peek()).collect();
        let n = self.shared.n;
        Port {
            shared: Arc::clone(&self.shared),
            me: pid,
            last: snap[pid].clone(),
            staged: snap[pid].clone(),
            seq: 0,
            c1: snap.clone(),
            c2: snap,
            v1: vec![NO_VERSION; n],
            v2: vec![NO_VERSION; n],
        }
    }

    /// Checker metadata (register-id ↦ process mapping).
    pub fn meta(&self) -> SnapshotMeta {
        SnapshotMeta {
            value_regs: self.shared.values.iter().map(|v| v.id()).collect(),
        }
    }

    /// Bounds (or unbounds, with `None`) the number of double-collect
    /// attempts a single scan may make before degrading gracefully.
    ///
    /// The paper's scan retries until stable — correct, but not wait-free:
    /// a hostile scheduler driving a writer forever starves the scan. With
    /// a budget of `k`, a scan that fails to stabilize within `k` attempts
    /// returns [`Halted::ScanStarved`] instead of livelocking, and the
    /// process's [`Counter::ScanStarved`] is bumped. The default is
    /// unbounded (the paper's semantics); `Some(0)` is normalized to
    /// `Some(1)` (a scan always gets at least one attempt).
    pub fn set_scan_retry_budget(&self, budget: Option<u64>) {
        let raw = match budget {
            None => 0,
            Some(k) => k.max(1),
        };
        self.shared.scan_retry_budget.store(raw, Ordering::Relaxed);
    }

    /// The current scan retry budget (`None` = unbounded).
    pub fn scan_retry_budget(&self) -> Option<u64> {
        match self.shared.scan_retry_budget.load(Ordering::Relaxed) {
            0 => None,
            k => Some(k),
        }
    }

    /// Unscheduled view of current contents (diagnostics/adversaries only).
    pub fn peek_values(&self) -> Vec<T> {
        self.shared.values.iter().map(|v| v.peek().value).collect()
    }
}

/// Process `pid`'s handle on the scannable memory.
///
/// Owns the process-local state the paper keeps implicitly: the last value
/// written (whose toggle the next write flips, and which fills the process's
/// own slot in scan views) and the ghost sequence counter.
pub struct Port<T, A> {
    shared: Arc<Shared<T, A>>,
    me: usize,
    last: Slot<T>,
    /// Where `update` copies the slot it is about to write; swapped with
    /// `last` once the write has landed, so neither is ever reallocated.
    staged: Slot<T>,
    seq: u64,
    /// Persistent double-collect buffers, reused across attempts and across
    /// scans — `scan` allocates nothing per attempt. A buffered slot whose
    /// ghost seq matches the register's is known identical (each writer's
    /// seq is strictly monotonic, so equal seq ⟹ the very same write) and
    /// is not re-cloned. The seq is *ghost* state: it drives this caching
    /// and the checker, never the algorithm's stability decision.
    c1: Vec<Slot<T>>,
    c2: Vec<Slot<T>>,
    /// Per-slot seqlock version tokens keyed to `c1`/`c2` (see
    /// [`bprc_sim::Reg::read_changed`]): when a register's version word
    /// still equals the token, the payload is provably untouched and the
    /// collect skips loading/unpacking it entirely. `NO_VERSION` on
    /// backings without version words — those always read.
    v1: Vec<u64>,
    v2: Vec<u64>,
}

impl<T, A> std::fmt::Debug for Port<T, A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Port")
            .field("me", &self.me)
            .field("seq", &self.seq)
            .finish()
    }
}

impl<T, A> Port<T, A>
where
    T: Clone + PartialEq + Send + Sync + 'static,
    A: ArrowCell,
{
    /// This port's process id.
    pub fn pid(&self) -> usize {
        self.me
    }

    /// Publishes `value` (the paper's `write` procedure): raise every arrow
    /// `A_{me,j}`, then atomically write `(value, !toggle)` into `V_me`.
    ///
    /// Wait-free: exactly `n−1` raises plus one register write.
    ///
    /// # Errors
    ///
    /// Returns [`Halted`] if the scheduler stopped this process.
    pub fn update(&mut self, ctx: &mut Ctx, value: T) -> Result<(), Halted> {
        let seq = self.seq + 1;
        if ctx.recording() {
            ctx.annotate(labels::UPD_START, vec![seq]);
        }
        ctx.clock();
        ctx.trace_event(EventKind::Update, seq);
        for j in 0..self.shared.n {
            if let Some(a) = &self.shared.arrows[self.me][j] {
                a.raise(ctx)?;
            }
        }
        // Weak-memory order: every raise must be globally visible before
        // the value write can land, or a PSO store buffer would let a
        // scanner collect the new value with no interference signal (a
        // free no-op under sequential consistency).
        ctx.fence()?;
        let slot = Slot {
            value,
            toggle: !self.last.toggle,
            seq,
        };
        // The port keeps its own copy in a buffer it already owns; the
        // value it was handed moves into the register.
        self.staged.clone_from(&slot);
        self.shared.values[self.me].write_tagged(ctx, slot, seq)?;
        // Release: the value store must drain before update() returns. A
        // store still sitting in this process's buffer after the call
        // completes would let a scan that *starts later* return the old
        // value — a real-time regularity (P1) violation no schedule can
        // excuse. Deleting this fence is the `missing-fence` gate fixture.
        ctx.fence()?;
        std::mem::swap(&mut self.last, &mut self.staged);
        self.seq = seq;
        if ctx.recording() {
            ctx.annotate(labels::UPD_END, vec![seq]);
        }
        ctx.count(Counter::Updates, 1);
        Ok(())
    }

    /// Takes a snapshot scan (the paper's `scan` function): lower the arrows
    /// aimed at this process, collect all values twice, re-read the arrows,
    /// and retry from the top unless both collects agree and no arrow was
    /// re-raised. Returns the second collect, with the process's own slot
    /// taken from its local copy.
    ///
    /// Not wait-free: retries are caused by (and only by) concurrent
    /// updates, so an adversary driving a writer forever can starve a scan —
    /// the world's step limit converts that into [`Halted::StepLimit`], or,
    /// with a retry budget configured
    /// (see [`ScannableMemory::set_scan_retry_budget`]), the scan itself
    /// degrades gracefully into [`Halted::ScanStarved`].
    ///
    /// # Errors
    ///
    /// Returns [`Halted`] if the scheduler stopped this process (including
    /// via the step limit under a starving schedule), or
    /// [`Halted::ScanStarved`] when a configured retry budget runs out.
    pub fn scan(&mut self, ctx: &mut Ctx) -> Result<Vec<T>, Halted> {
        self.scan_slots(ctx)?;
        Ok(self.c2.iter().map(|s| s.value.clone()).collect())
    }

    /// Like [`scan`](Port::scan) but writes the view into `out`, reusing its
    /// capacity (and, via `clone_from`, any heap the elements already own).
    /// The hot update/scan loops of the consensus backends call this — a
    /// steady-state scan performs **zero** allocations.
    ///
    /// # Errors
    ///
    /// As for [`scan`](Port::scan).
    pub fn scan_into(&mut self, ctx: &mut Ctx, out: &mut Vec<T>) -> Result<(), Halted> {
        self.scan_slots(ctx)?;
        if out.len() == self.shared.n {
            for (o, s) in out.iter_mut().zip(&self.c2) {
                o.clone_from(&s.value);
            }
        } else {
            out.clear();
            out.extend(self.c2.iter().map(|s| s.value.clone()));
        }
        Ok(())
    }

    /// On success the view is left in `self.c2` (own slot included).
    ///
    /// Per attempt: lower `n−1` arrows, collect twice into the persistent
    /// buffers, re-read the arrows. A *successful* attempt performs exactly
    /// the same `4(n−1)` scheduled accesses as the original implementation
    /// (the refinement tests pin this); only **failing** attempts exit
    /// early — the second collect stops at the first visible
    /// `(value, toggle)` mismatch and the arrow re-read is skipped after a
    /// mismatch (or stops at the first raised arrow). A failed attempt is
    /// discarded wholesale, so doing less doomed work changes no outcome.
    fn scan_slots(&mut self, ctx: &mut Ctx) -> Result<(), Halted> {
        let n = self.shared.n;
        let budget = self.shared.scan_retry_budget.load(Ordering::Relaxed);
        let mut attempt = crate::collect::AttemptTracker::default();
        let span = crate::collect::begin_scan(ctx);
        loop {
            attempt.begin_attempt(ctx);
            // Lower all arrows aimed at me.
            for j in 0..n {
                if let Some(a) = &self.shared.arrows[j][self.me] {
                    a.lower(ctx)?;
                }
            }
            // Weak-memory order: drain the lowers before collecting, so the
            // arrow re-read below hits shared memory instead of forwarding
            // this scanner's own stale (buffered) lower — which would mask a
            // concurrent re-raise (a free no-op under sequential
            // consistency).
            ctx.fence()?;
            // First collect, into the persistent buffer (the shared pass
            // batch-validates through the version tokens and skips
            // re-cloning slots whose ghost seq is unchanged).
            let mut reads = crate::collect::collect_pass(
                ctx,
                &self.shared.values,
                self.me,
                &mut self.c1,
                &mut self.v1,
            )?;
            // Second collect, compared against the first as it goes: the
            // attempt is doomed at the first visible mismatch, so stop
            // collecting there (failure path only). The comparison runs on
            // the buffer *after* the access — the access leaves the buffer
            // equal to the register's visible content (token unchanged ⟹
            // register unwritten ⟹ buffer still current; otherwise the
            // ghost-seq check re-cloned it), so this is the same predicate
            // the register-side comparison computed.
            let mut mismatch = false;
            {
                let (c2, v2) = (&mut self.c2, &mut self.v2);
                for j in 0..n {
                    if j == self.me {
                        continue;
                    }
                    reads += 1;
                    let slot = &mut c2[j];
                    v2[j] = self.shared.values[j].read_changed(ctx, v2[j], |s| {
                        if slot.seq != s.seq {
                            slot.clone_from(s);
                        }
                    })?;
                    if !c2[j].same_visible(&self.c1[j]) {
                        mismatch = true;
                        break;
                    }
                }
            }
            // Re-read arrows — skipped entirely after a mismatch, and a
            // raised arrow short-circuits (both failure paths; a successful
            // attempt always performs all n−1 checks).
            let mut raised = false;
            if !mismatch {
                for j in 0..n {
                    if let Some(a) = &self.shared.arrows[j][self.me] {
                        if a.is_raised(ctx)? {
                            raised = true;
                            break;
                        }
                    }
                }
            }
            // Account this attempt's collect reads whether it succeeded,
            // retries, or is about to starve.
            crate::collect::flush_collect_reads(ctx, reads);
            if !mismatch && !raised {
                let me = self.me;
                if self.c2[me].seq != self.last.seq {
                    self.c2[me].clone_from(&self.last);
                }
                let c2 = &self.c2;
                crate::collect::finish_scan(ctx, span, attempt.tries(), || {
                    c2.iter().map(|s| s.seq).collect()
                });
                return Ok(());
            }
            if budget != 0 && attempt.tries() >= budget {
                // Budget exhausted: report starvation instead of retrying
                // forever under writer pressure.
                return Err(crate::collect::starve_scan(ctx));
            }
        }
    }

    /// The original allocating scan, kept as the reference implementation:
    /// fresh collect vectors every attempt, full second collect, full arrow
    /// re-read, every register access a plain one-shot `read` that clones
    /// the whole slot — no version tokens, no buffer reuse, no early exits.
    /// The equivalence tests check the optimized scans against it. Not part
    /// of the supported API.
    ///
    /// # Errors
    ///
    /// As for [`scan`](Port::scan).
    #[doc(hidden)]
    pub fn scan_legacy(&mut self, ctx: &mut Ctx) -> Result<Vec<T>, Halted> {
        let n = self.shared.n;
        let budget = self.shared.scan_retry_budget.load(Ordering::Relaxed);
        let mut tries: u64 = 0;
        ctx.annotate(labels::SCAN_START, vec![]);
        loop {
            tries += 1;
            ctx.count(Counter::ScanAttempts, 1);
            if tries > 1 {
                ctx.count(Counter::ScanRetries, 1);
            }
            for j in 0..n {
                if let Some(a) = &self.shared.arrows[j][self.me] {
                    a.lower(ctx)?;
                }
            }
            // Same weak-memory drain as the optimized scan (see
            // [`Port::scan_slots`]); keeps the two implementations
            // access-equivalent under every memory mode.
            ctx.fence()?;
            let mut c1: Vec<Option<Slot<T>>> = vec![None; n];
            for (j, slot) in c1.iter_mut().enumerate() {
                if j != self.me {
                    *slot = Some(self.shared.values[j].read(ctx)?);
                }
            }
            let mut c2: Vec<Option<Slot<T>>> = vec![None; n];
            for (j, slot) in c2.iter_mut().enumerate() {
                if j != self.me {
                    *slot = Some(self.shared.values[j].read(ctx)?);
                }
            }
            let mut raised = false;
            for j in 0..n {
                if let Some(a) = &self.shared.arrows[j][self.me] {
                    if a.is_raised(ctx)? {
                        raised = true;
                    }
                }
            }
            ctx.count(Counter::CollectReads, 2 * (n as u64 - 1));
            let stable = !raised
                && c1.iter().zip(&c2).all(|(x, y)| match (x, y) {
                    (Some(x), Some(y)) => x.same_visible(y),
                    (None, None) => true,
                    _ => unreachable!("collects fill the same slots"),
                });
            if stable {
                let view: Vec<Slot<T>> = c2
                    .into_iter()
                    .enumerate()
                    .map(|(j, s)| match s {
                        Some(s) => s,
                        None => {
                            debug_assert_eq!(j, self.me);
                            self.last.clone()
                        }
                    })
                    .collect();
                ctx.annotate(labels::SCAN_END, view.iter().map(|s| s.seq).collect());
                ctx.count(Counter::Scans, 1);
                return Ok(view.into_iter().map(|s| s.value).collect());
            }
            if budget != 0 && tries >= budget {
                ctx.count(Counter::ScanStarved, 1);
                return Err(Halted::ScanStarved);
            }
        }
    }
}

// The default Clone derive would demand T: Clone etc.; a Port must NOT be
// cloneable anyway (it owns the single-writer local state), so none is
// provided.

#[cfg(test)]
mod tests {
    use super::*;
    use bprc_registers::{DirectArrow, HandshakeArrow};
    use bprc_sim::sched::{FnStrategy, RandomStrategy, RoundRobin};
    use bprc_sim::world::ProcBody;
    use bprc_sim::Decision;

    fn sequential_update_scan<A: ArrowCell>() {
        let mut w = World::builder(1).build();
        let mem = ScannableMemory::<u32, A>::new(&w, 1, 0);
        let mut p = mem.port(0);
        let bodies: Vec<ProcBody<Vec<u32>>> = vec![Box::new(move |ctx| {
            p.update(ctx, 4)?;
            p.update(ctx, 5)?;
            p.scan(ctx)
        })];
        let rep = w.run(bodies, Box::new(RoundRobin::new()));
        assert_eq!(rep.outputs[0], Some(vec![5]));
    }

    #[test]
    fn single_process_direct() {
        sequential_update_scan::<DirectArrow>();
    }

    #[test]
    fn single_process_handshake() {
        sequential_update_scan::<HandshakeArrow>();
    }

    #[test]
    fn scan_sees_preceding_updates() {
        let mut w = World::builder(3).build();
        let mem = ScannableMemory::<u32, DirectArrow>::new(&w, 3, 0);
        let ports: Vec<_> = (0..3).map(|i| mem.port(i)).collect();
        let mut bodies: Vec<ProcBody<Option<Vec<u32>>>> = Vec::new();
        for (i, mut p) in ports.into_iter().enumerate() {
            bodies.push(Box::new(move |ctx| {
                p.update(ctx, (i as u32 + 1) * 10)?;
                if i == 2 {
                    Ok(Some(p.scan(ctx)?))
                } else {
                    Ok(None)
                }
            }));
        }
        // Round robin: all updates complete before process 2 scans? Not
        // necessarily — but with RoundRobin and equal-length updates, the
        // scan happens after all updates finish.
        let rep = w.run(bodies, Box::new(RoundRobin::new()));
        let view = rep.outputs[2].clone().unwrap().unwrap();
        assert_eq!(view, vec![10, 20, 30]);
    }

    #[test]
    fn own_slot_is_local_copy() {
        let mut w = World::builder(2).build();
        let mem = ScannableMemory::<u32, DirectArrow>::new(&w, 2, 99);
        let mut p0 = mem.port(0);
        let mut p1 = mem.port(1);
        let bodies: Vec<ProcBody<Vec<u32>>> = vec![
            Box::new(move |ctx| {
                p0.update(ctx, 1)?;
                p0.scan(ctx)
            }),
            Box::new(move |ctx| {
                let v = p1.scan(ctx)?; // never updated: own slot = init
                Ok(v)
            }),
        ];
        let rep = w.run(bodies, Box::new(RoundRobin::new()));
        assert_eq!(rep.outputs[0].as_ref().unwrap()[0], 1);
        assert_eq!(rep.outputs[1].as_ref().unwrap()[1], 99);
    }

    #[test]
    fn hostile_writer_starves_scan_until_step_limit() {
        let mut w = World::builder(2).step_limit(4_000).build();
        let mem = ScannableMemory::<u64, DirectArrow>::new(&w, 2, 0);
        let mut wp = mem.port(0);
        let mut sp = mem.port(1);
        let bodies: Vec<ProcBody<Vec<u64>>> = vec![
            Box::new(move |ctx| {
                let mut k = 0u64;
                loop {
                    k += 1;
                    wp.update(ctx, k)?;
                }
            }),
            Box::new(move |ctx| sp.scan(ctx)),
        ];
        // Adversary: let the scanner run, but sneak one full writer update
        // between the scanner's two collects every attempt.
        let mem2 = mem.clone();
        let strategy = FnStrategy::new(move |view: &bprc_sim::ScheduleView<'_>| {
            // Writer pending op targets V_0 (a write) => give the writer a
            // burst whenever the scanner is mid-collect; otherwise scanner.
            // Simpler: alternate bursts — writer 2 ops, scanner 1 op.
            let _ = &mem2;
            if view.step.is_multiple_of(3) && view.runnable.contains(&1) {
                Decision::Grant(1)
            } else if view.runnable.contains(&0) {
                Decision::Grant(0)
            } else {
                Decision::Grant(1)
            }
        });
        let rep = w.run(bodies, Box::new(strategy));
        // The scan never completed: both halted at the step limit.
        assert_eq!(rep.halted[1], Some(bprc_sim::Halted::StepLimit));
        assert!(rep.telemetry.counter(1, Counter::ScanAttempts) > 1);
        assert_eq!(rep.telemetry.counter(1, Counter::Scans), 0);
    }

    #[test]
    fn random_schedules_complete_when_writers_stop() {
        for seed in 0..20 {
            let mut w = World::builder(3).seed(seed).build();
            let mem = ScannableMemory::<u64, HandshakeArrow>::new(&w, 3, 0);
            let ports: Vec<_> = (0..3).map(|i| mem.port(i)).collect();
            let mut bodies: Vec<ProcBody<Vec<u64>>> = Vec::new();
            for (i, mut p) in ports.into_iter().enumerate() {
                bodies.push(Box::new(move |ctx| {
                    for k in 0..5u64 {
                        p.update(ctx, (i as u64) * 100 + k)?;
                    }
                    p.scan(ctx)
                }));
            }
            let rep = w.run(bodies, Box::new(RandomStrategy::new(seed)));
            for out in &rep.outputs {
                let v = out.as_ref().expect("all scans complete");
                // Everyone's final view of a finished writer is its last value.
                assert_eq!(v.len(), 3);
            }
        }
    }

    #[test]
    fn retry_budget_degrades_starved_scan_gracefully() {
        // Same hostile schedule as the step-limit test, but with a retry
        // budget: the scanner reports ScanStarved (and the writer, no
        // longer starved of steps itself, runs to the step limit).
        let mut w = World::builder(2).step_limit(4_000).build();
        let mem = ScannableMemory::<u64, DirectArrow>::new(&w, 2, 0);
        mem.set_scan_retry_budget(Some(5));
        assert_eq!(mem.scan_retry_budget(), Some(5));
        let mut wp = mem.port(0);
        let mut sp = mem.port(1);
        let bodies: Vec<ProcBody<Vec<u64>>> = vec![
            Box::new(move |ctx| {
                let mut k = 0u64;
                loop {
                    k += 1;
                    wp.update(ctx, k)?;
                }
            }),
            Box::new(move |ctx| sp.scan(ctx)),
        ];
        let strategy = FnStrategy::new(move |view: &bprc_sim::ScheduleView<'_>| {
            if view.step.is_multiple_of(3) && view.runnable.contains(&1) {
                Decision::Grant(1)
            } else if view.runnable.contains(&0) {
                Decision::Grant(0)
            } else {
                Decision::Grant(1)
            }
        });
        let rep = w.run(bodies, Box::new(strategy));
        assert_eq!(rep.halted[1], Some(bprc_sim::Halted::ScanStarved));
        let t = &rep.telemetry;
        assert_eq!(t.counter(1, Counter::ScanStarved), 1);
        assert_eq!(t.counter(1, Counter::Scans), 0);
        // Exactly the budgeted number of attempts was made.
        assert_eq!(t.counter(1, Counter::ScanAttempts), 5);
        assert_eq!(t.counter(1, Counter::ScanRetries), 4);
        // Regression: the starved scan's collect work is accounted — every
        // attempt (including the fifth, which returned ScanStarved) did a
        // full double collect of the one other slot: 5 × 2 reads.
        assert_eq!(t.counter(1, Counter::CollectReads), 10);
    }

    #[test]
    fn telemetry_counts_every_scan_and_update() {
        let mut w = World::builder(2).build();
        let mem = ScannableMemory::<u32, DirectArrow>::new(&w, 2, 0);
        let mut p0 = mem.port(0);
        let mut p1 = mem.port(1);
        let bodies: Vec<ProcBody<Vec<u32>>> = vec![
            Box::new(move |ctx| {
                p0.update(ctx, 1)?;
                p0.update(ctx, 2)?;
                p0.scan(ctx)
            }),
            Box::new(move |ctx| {
                p1.update(ctx, 3)?;
                p1.scan(ctx)
            }),
        ];
        let rep = w.run(bodies, Box::new(RoundRobin::new()));
        let t = &rep.telemetry;
        for (pid, updates) in [(0, 2), (1, 1)] {
            assert_eq!(t.counter(pid, Counter::Updates), updates);
            assert_eq!(t.counter(pid, Counter::Scans), 1);
            // Clean run: attempts split exactly into successes and retries.
            assert_eq!(
                t.counter(pid, Counter::ScanAttempts),
                t.counter(pid, Counter::Scans) + t.counter(pid, Counter::ScanRetries)
            );
            // Each update opens its span on the ring with its seq, and so
            // does each scan with its first attempt.
            let ring = rep.flight.events(pid);
            let seqs: Vec<u64> = ring
                .iter()
                .filter(|e| e.kind == EventKind::Update)
                .map(|e| e.arg)
                .collect();
            assert_eq!(seqs, (1..=updates).collect::<Vec<u64>>());
            let scans = ring
                .iter()
                .filter(|e| e.kind == EventKind::ScanBegin && e.arg == 1)
                .count();
            assert_eq!(scans, 1);
        }
    }

    #[test]
    fn zero_budget_normalizes_to_one_attempt() {
        let w = World::builder(1).build();
        let mem = ScannableMemory::<u8, DirectArrow>::new(&w, 1, 0);
        mem.set_scan_retry_budget(Some(0));
        assert_eq!(mem.scan_retry_budget(), Some(1));
        mem.set_scan_retry_budget(None);
        assert_eq!(mem.scan_retry_budget(), None);
    }

    #[test]
    #[should_panic(expected = "taken twice")]
    fn ports_are_single_owner() {
        let w = World::builder(1).build();
        let mem = ScannableMemory::<u8, DirectArrow>::new(&w, 1, 0);
        let _a = mem.port(0);
        let _b = mem.port(0);
    }

    #[test]
    fn meta_lists_value_registers() {
        let w = World::builder(2).build();
        let mem = ScannableMemory::<u8, DirectArrow>::new(&w, 2, 0);
        let meta = mem.meta();
        assert_eq!(meta.value_regs.len(), 2);
        assert_ne!(meta.value_regs[0], meta.value_regs[1]);
    }

    #[test]
    fn peek_values_reflects_pokes() {
        let w = World::builder(2).build();
        let mem = ScannableMemory::<u8, DirectArrow>::new(&w, 2, 7);
        assert_eq!(mem.peek_values(), vec![7, 7]);
    }
}
