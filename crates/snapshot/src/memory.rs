//! The scannable-memory construction (paper §2.2).
//!
//! What a scanning or updating process remembers between two register
//! accesses — the attempt, and the position in it that fixes the phase and
//! the index `j` — is a plain value: a [`ScanMachine`] or
//! an [`UpdateMachine`]. Each names its next [`Access`] and takes that
//! access's outcome as data, so it holds no context, register handle, ghost
//! seq or version token. [`Port::scan`] and [`Port::update`] are loops that
//! perform each named access through [`Ctx`]; the port keeps only the
//! buffers (collects, version tokens, the staged slot) and the metrics
//! plane.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bprc_registers::{ArrowCell, Swmr};
use bprc_sim::{Counter, Ctx, EventKind, FastPod, Halted, RegName, World, NO_VERSION};

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
/// bit, and a *ghost* sequence number, per-writer strictly monotonic, used
/// only by the offline checker and to let a collect skip re-cloning an
/// unchanged slot (equal seq ⟹ the very same write). The algorithm never
/// branches on it — the double collect compares `(value, toggle)` only, so
/// ABA hazards are real and must be handled by the toggle, exactly as in
/// the paper.
#[derive(Debug)]
pub(crate) struct Slot<T> {
    value: T,
    toggle: bool,
    pub(crate) seq: u64,
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

/// Slots of small POD payloads can ride the seqlock backings: the packed
/// layout is the payload words, then the toggle, then the ghost seq. Slots
/// too wide for the backing they are handed to (the table in
/// [`bprc_sim::reg`]) transparently keep the locked one.
impl<T: FastPod> FastPod for Slot<T> {
    fn words(&self) -> usize {
        self.value.words() + 2
    }

    fn pack(&self, out: &mut [u64]) {
        debug_assert_eq!(out.len(), self.words());
        let k = out.len() - 2;
        self.value.pack(&mut out[..k]);
        out[k] = u64::from(self.toggle);
        out[k + 1] = self.seq;
    }

    fn unpack(words: &[u64]) -> Self {
        let k = words.len() - 2;
        Slot {
            value: T::unpack(&words[..k]),
            toggle: words[k] != 0,
            seq: words[k + 1],
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
    /// ([`bprc_sim::MAX_FAST_WORDS`] words) transparently keep the
    /// locked cells, so this only ever changes the memory representation,
    /// never semantics.
    pub fn new_fast(world: &World, n: usize, init: T) -> Self
    where
        T: FastPod,
    {
        // A slot packs the payload, the toggle and the ghost seq.
        let slab = world.value_slab(n, init.words() + 2);
        Self::build(world, n, init, move |w, name, i, slot| {
            Swmr::new_lane(w, &slab, i, name, i, slot)
        })
    }

    fn build(
        world: &World,
        n: usize,
        init: T,
        mk: impl Fn(&World, RegName, usize, Slot<T>) -> Swmr<Slot<T>>,
    ) -> Self {
        assert!(n >= 1, "need at least one process");
        assert_eq!(world.n(), n, "memory size must match the world");
        let values = (0..n)
            .map(|i| {
                mk(
                    world,
                    RegName::indexed("V_", i),
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
                            Some(A::alloc(world, RegName::pair("A_", w, s), w, s))
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

/// One register access of a handshake scan or update, as
/// [`ScanMachine::next`] and [`UpdateMachine::next`] name it. Indices are
/// process ids; `me` is the machine's own.
///
/// With [`DirectArrow`](bprc_registers::DirectArrow) each raise, lower,
/// read, check and write is one scheduled access (one `Event::Op` in a
/// recorded history). A [`HandshakeArrow`](bprc_registers::HandshakeArrow)
/// raise, lower or check is **two** scheduled accesses (a read of one bit,
/// then a write or read of the other). A fence is a scheduled gate only
/// under a weak memory mode; under sequential consistency it is free and
/// records no op, and in free mode it is a hardware `SeqCst` fence that
/// records no op either.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    /// Raise arrow `A_{me,j}` (update).
    Raise(usize),
    /// Lower arrow `A_{j,me}` (scan).
    Lower(usize),
    /// Drain this process's store buffer.
    Fence,
    /// First-collect read of `V_j` (scan).
    Collect1(usize),
    /// Second-collect read of `V_j` (scan); feed whether it matched the
    /// first collect's `(value, toggle)`.
    Collect2(usize),
    /// Re-check arrow `A_{j,me}` (scan); feed whether it is still lowered.
    Check(usize),
    /// Write `(value, !toggle)` into `V_me` (update).
    Write,
    /// The operation is complete (a scan's last attempt was clean).
    Done,
    /// The scan used its retry budget without a clean attempt.
    Starved,
}

/// The paper's handshake `scan` as a value: everything the scanning process
/// remembers between two accesses. A fed outcome needs no field of its
/// own: a clean one leaves the machine where it is, a doomed one moves it
/// to the next attempt.
///
/// Per attempt: lower the `n−1` arrows aimed at `me`, fence, collect every
/// other `V_j` twice, re-check the arrows. A clean attempt makes exactly
/// `4(n−1)` register accesses (plus the fence). Only a doomed attempt exits
/// early: the second collect stops at the first `(value, toggle)` mismatch
/// and skips the re-checks, and the re-checks stop at the first raised
/// arrow. A doomed attempt is discarded wholesale, so doing less doomed
/// work changes no outcome. The next attempt starts over, unless a budget of
/// `k` attempts has been used, in which case the machine is starved.
///
/// Drive it by calling [`next`](ScanMachine::next), performing the named
/// access, and, after a [`Access::Collect2`] or [`Access::Check`],
/// [`feed`](ScanMachine::feed)ing its outcome.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ScanMachine {
    n: usize,
    me: usize,
    /// Max attempts; 0 = unbounded.
    budget: u64,
    attempt: u64,
    /// Accesses named so far in this attempt, which fixes the phase and
    /// the index `j`; [`done`](ScanMachine::done) once done, one more once
    /// starved.
    k: usize,
}

impl ScanMachine {
    /// A scan by process `me` of `n`, about to start its first attempt;
    /// `budget` bounds the attempts (0 = unbounded, the paper's semantics).
    pub fn new(n: usize, me: usize, budget: u64) -> Self {
        debug_assert!(me < n, "pid {me} out of range");
        ScanMachine {
            n,
            me,
            budget,
            attempt: 1,
            k: 0,
        }
    }

    /// The attempt the last named access belongs to (1-based).
    pub fn attempt(&self) -> u64 {
        self.attempt
    }

    /// Names the next access and moves past it. Once it names
    /// [`Access::Done`] or [`Access::Starved`] it keeps naming it.
    #[inline]
    #[allow(clippy::should_implement_trait)] // never ends, so not an Iterator
    pub fn next(&mut self) -> Access {
        let (k, m, me) = (self.k, self.n - 1, self.me);
        let access = if k < m {
            Access::Lower(other(k, me))
        } else if k == m {
            Access::Fence
        } else if k <= 2 * m {
            Access::Collect1(other(k - m - 1, me))
        } else if k <= 3 * m {
            Access::Collect2(other(k - 2 * m - 1, me))
        } else if k <= 4 * m {
            Access::Check(other(k - 3 * m - 1, me))
        } else if k == self.done() {
            return Access::Done;
        } else {
            return Access::Starved;
        };
        self.k += 1;
        access
    }

    /// Takes the outcome of the access just named, which must be a
    /// [`Access::Collect2`] or an [`Access::Check`]: `clean` is whether the
    /// second read matched the first collect's `(value, toggle)`, or
    /// whether the arrow was still lowered. Other accesses have no outcome.
    /// A doomed outcome ends the attempt at once: the machine moves to the
    /// next attempt's start, or starves.
    #[inline]
    pub fn feed(&mut self, clean: bool) {
        debug_assert!(
            (2 * self.n..=self.done()).contains(&self.k),
            "only a second-collect read or an arrow check has an outcome"
        );
        if !clean {
            self.retry();
        }
    }

    /// The position after a clean attempt's last access.
    #[inline]
    fn done(&self) -> usize {
        4 * (self.n - 1) + 1
    }

    /// Ends a doomed attempt: starts the next, or starves on a spent budget.
    #[cold]
    fn retry(&mut self) {
        if self.budget != 0 && self.attempt >= self.budget {
            self.k = self.done() + 1;
        } else {
            self.attempt += 1;
            self.k = 0;
        }
    }
}

/// The paper's handshake `write` as a value: raise the `n−1` arrows
/// `A_{me,j}`, fence, write `V_me`, fence. Wait-free, so no access has an
/// outcome to feed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct UpdateMachine {
    n: usize,
    me: usize,
    /// Accesses named so far.
    k: usize,
}

impl UpdateMachine {
    /// An update by process `me` of `n`, before its first access.
    pub fn new(n: usize, me: usize) -> Self {
        debug_assert!(me < n, "pid {me} out of range");
        UpdateMachine { n, me, k: 0 }
    }

    /// Names the next access and moves past it: the raises, a fence, the
    /// write, a fence, then [`Access::Done`] for good.
    #[inline]
    #[allow(clippy::should_implement_trait)] // never ends, so not an Iterator
    pub fn next(&mut self) -> Access {
        let (k, m) = (self.k, self.n - 1);
        let access = if k < m {
            Access::Raise(other(k, self.me))
        } else if k == m || k == m + 2 {
            Access::Fence
        } else if k == m + 1 {
            Access::Write
        } else {
            return Access::Done;
        };
        self.k += 1;
        access
    }
}

/// The `i`-th process index other than `me`.
#[inline]
fn other(i: usize, me: usize) -> usize {
    i + usize::from(i >= me)
}

/// Process `pid`'s handle on the scannable memory.
///
/// Owns the process-local state the paper keeps implicitly: the last value
/// written (whose toggle the next write flips, and which fills the process's
/// own slot in scan views; it lives in `c2[me]`, which no collect touches)
/// and the ghost sequence counter. A scan's or an update's control state
/// lives in a [`ScanMachine`] or [`UpdateMachine`] for the length of the
/// call; the port performs the accesses it names.
pub struct Port<T, A> {
    shared: Arc<Shared<T, A>>,
    me: usize,
    /// Where `update` copies the slot it is about to write; swapped into
    /// `c2[me]` once the update is complete, so neither is ever
    /// reallocated.
    staged: Slot<T>,
    seq: u64,
    /// Persistent double-collect buffers, reused across attempts and across
    /// scans — `scan` allocates nothing per attempt. A buffered slot whose
    /// ghost seq matches the register's is known identical (each writer's
    /// seq is strictly monotonic, so equal seq ⟹ the very same write) and
    /// is not re-cloned. The seq is *ghost* state: it drives this caching
    /// and the checker, never the algorithm's stability decision. `c2[me]`
    /// is the own slot, which only `update` writes and a scan's view shows
    /// as it is.
    c1: Vec<Slot<T>>,
    c2: Vec<Slot<T>>,
    /// Per-slot version tokens keyed to `c1`/`c2` (see
    /// [`bprc_sim::Reg::read_changed`]): when a register's version word
    /// still equals the token, the payload is provably untouched and the
    /// collect skips it entirely — a seqlock lane's payload words are not
    /// loaded, a locked cell's lock is not taken. `NO_VERSION` before the
    /// first read and on backings without version words (bits), which
    /// always read.
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
    /// Wait-free: exactly `n−1` raises plus one register write, the
    /// accesses an [`UpdateMachine`] names.
    ///
    /// # Errors
    ///
    /// Returns [`Halted`] if the scheduler stopped this process.
    pub fn update(&mut self, ctx: &mut Ctx, value: T) -> Result<(), Halted> {
        let seq = self.seq + 1;
        if ctx.recording() {
            ctx.annotate(labels::UPD_START, vec![seq]);
        }
        ctx.stamp();
        ctx.trace_event(EventKind::Update, seq);
        let mut slot = Some(Slot {
            value,
            toggle: !self.c2[self.me].toggle,
            seq,
        });
        let mut machine = UpdateMachine::new(self.shared.n, self.me);
        loop {
            match machine.next() {
                Access::Raise(j) => self.arrow(self.me, j).raise(ctx)?,
                // The first fence makes every raise globally visible before
                // the value write can land, or a PSO store buffer would let
                // a scanner collect the new value with no interference
                // signal. The second (release) drains the value store before
                // update() returns: a store still buffered after the call
                // would let a scan that *starts later* return the old value
                // — a real-time regularity (P1) violation no schedule can
                // excuse. Deleting it is the `missing-fence` gate fixture.
                Access::Fence => ctx.fence()?,
                Access::Write => {
                    let slot = slot.take().expect("an update writes once");
                    // The port keeps its own copy in a buffer it already
                    // owns; the value it was handed moves into the register.
                    self.staged.clone_from(&slot);
                    self.shared.values[self.me].write_tagged(ctx, slot, seq)?;
                }
                Access::Done => break,
                other => unreachable!("an update never performs {other:?}"),
            }
        }
        std::mem::swap(&mut self.c2[self.me], &mut self.staged);
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
    /// Performs the accesses a [`ScanMachine`] names, into the persistent
    /// buffers: collect reads go through the version tokens and skip
    /// re-cloning slots whose ghost seq is unchanged. Each attempt opens
    /// (counters, ring event) before its first access, and its collect
    /// reads are flushed when it ends: clean, doomed or starved.
    fn scan_slots(&mut self, ctx: &mut Ctx) -> Result<(), Halted> {
        let budget = self.shared.scan_retry_budget.load(Ordering::Relaxed);
        let mut machine = ScanMachine::new(self.shared.n, self.me, budget);
        let mut attempt = crate::collect::AttemptTracker::default();
        let mut reads = 0;
        let span = crate::collect::begin_scan(ctx);
        attempt.begin_attempt(ctx);
        loop {
            let access = machine.next();
            match access {
                Access::Lower(j) => {
                    // A doomed outcome fed below moved the machine on to its
                    // next attempt, which opens with this lower.
                    if machine.attempt() != attempt.tries() {
                        crate::collect::flush_collect_reads(ctx, reads);
                        reads = 0;
                        attempt.begin_attempt(ctx);
                    }
                    self.arrow(j, self.me).lower(ctx)?;
                }
                // Drains the lowers before collecting, so the arrow re-check
                // hits shared memory instead of forwarding this scanner's own
                // stale (buffered) lower — which would mask a concurrent
                // re-raise.
                Access::Fence => ctx.fence()?,
                // One call site for both collects, so the register read is
                // inlined once. The second compares on the buffer *after* the
                // access: the access leaves the buffer equal to the
                // register's visible content (token unchanged ⟹ register
                // unwritten ⟹ buffer still current; otherwise the ghost-seq
                // check re-cloned it).
                Access::Collect1(j) | Access::Collect2(j) => {
                    let second = access == Access::Collect2(j);
                    let (buf, vers) = if second {
                        (&mut self.c2, &mut self.v2)
                    } else {
                        (&mut self.c1, &mut self.v1)
                    };
                    reads += 1;
                    let reg = &self.shared.values[j];
                    crate::collect::read_slot(ctx, reg, &mut buf[j], &mut vers[j])?;
                    if second {
                        machine.feed(self.c2[j].same_visible(&self.c1[j]));
                    }
                }
                Access::Check(j) => machine.feed(!self.arrow(j, self.me).is_raised(ctx)?),
                Access::Done => {
                    crate::collect::flush_collect_reads(ctx, reads);
                    let c2 = &self.c2;
                    crate::collect::finish_scan(ctx, span, attempt.tries(), || {
                        c2.iter().map(|s| s.seq).collect()
                    });
                    return Ok(());
                }
                Access::Starved => {
                    crate::collect::flush_collect_reads(ctx, reads);
                    return Err(crate::collect::starve_scan(ctx));
                }
                other => unreachable!("a scan never performs {other:?}"),
            }
        }
    }

    /// Arrow `A_{w,s}`; the machines never name the diagonal.
    #[inline]
    fn arrow(&self, w: usize, s: usize) -> &A {
        self.shared.arrows[w][s]
            .as_ref()
            .expect("no arrow on the diagonal")
    }
}

// The default Clone derive would demand T: Clone etc.; a Port must NOT be
// cloneable anyway (it owns the single-writer local state), so none is
// provided.

#[cfg(test)]
mod scan_equivalence;

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

    /// The indices below `n` other than `me`.
    fn others(n: usize, me: usize) -> Vec<usize> {
        (0..n).filter(|&j| j != me).collect()
    }

    /// Drives `m` to `Done` or `Starved`, feeding `clean(access)` after each
    /// second-collect read and arrow check; returns every access named.
    fn drive(m: &mut ScanMachine, mut clean: impl FnMut(Access) -> bool) -> Vec<Access> {
        let mut trace = Vec::new();
        loop {
            let a = m.next();
            trace.push(a);
            match a {
                Access::Collect2(_) | Access::Check(_) => m.feed(clean(a)),
                Access::Done | Access::Starved => return trace,
                _ => {}
            }
            assert!(trace.len() < 10_000, "machine never finished");
        }
    }

    #[test]
    fn clean_scan_and_update_name_the_paper_accesses() {
        for n in [1, 2, 3, 8] {
            for me in [0, n - 1] {
                let o = others(n, me);
                let mut want: Vec<Access> = o.iter().map(|&j| Access::Lower(j)).collect();
                want.push(Access::Fence);
                want.extend(o.iter().map(|&j| Access::Collect1(j)));
                want.extend(o.iter().map(|&j| Access::Collect2(j)));
                want.extend(o.iter().map(|&j| Access::Check(j)));
                want.push(Access::Done);
                let mut m = ScanMachine::new(n, me, 0);
                assert_eq!(drive(&mut m, |_| true), want, "n = {n}, me = {me}");
                assert_eq!(m.attempt(), 1);
                assert_eq!(m.next(), Access::Done, "done stays done");
                // (n−1) lowers + 2(n−1) reads + (n−1) checks: the 4(n−1)
                // solo scan cost, plus one fence.
                assert_eq!(want.len() - 2, 4 * (n - 1));

                let mut up = UpdateMachine::new(n, me);
                let mut want: Vec<Access> = o.iter().map(|&j| Access::Raise(j)).collect();
                want.extend([Access::Fence, Access::Write, Access::Fence, Access::Done]);
                let got: Vec<Access> = want.iter().map(|_| up.next()).collect();
                assert_eq!(got, want, "update, n = {n}, me = {me}");
                assert_eq!(up.next(), Access::Done);
            }
        }
    }

    #[test]
    fn a_mismatch_ends_the_second_collect_and_skips_the_rechecks() {
        let (n, me) = (4, 1);
        for &bad in &others(n, me) {
            let mut m = ScanMachine::new(n, me, 0);
            let mut doomed = false;
            let trace = drive(&mut m, |a| {
                let mismatch = !doomed && a == Access::Collect2(bad);
                doomed |= mismatch;
                !mismatch
            });
            // The first attempt stops at the mismatch: no later read, no
            // re-check; the second attempt starts with its first lower.
            let cut = trace
                .iter()
                .position(|&a| a == Access::Collect2(bad))
                .unwrap();
            assert!(trace[..cut].iter().all(|a| !matches!(a, Access::Check(_))));
            assert_eq!(trace[cut + 1], Access::Lower(0));
            assert_eq!(m.attempt(), 2);
            assert_eq!(trace.len(), cut + 1 + 4 * (n - 1) + 2, "one clean retry");
        }
        // Stepwise: the access after the doomed feed is attempt 2's first.
        let mut m = ScanMachine::new(3, 0, 0);
        for want in [
            Access::Lower(1),
            Access::Lower(2),
            Access::Fence,
            Access::Collect1(1),
            Access::Collect1(2),
            Access::Collect2(1),
        ] {
            assert_eq!(m.next(), want);
        }
        m.feed(false);
        assert_eq!(m.next(), Access::Lower(1));
        assert_eq!(m.attempt(), 2);
    }

    #[test]
    fn a_raised_arrow_ends_the_rechecks_at_that_arrow() {
        let (n, me) = (4, 2);
        for &up in &others(n, me) {
            let mut m = ScanMachine::new(n, me, 0);
            let mut doomed = false;
            let trace = drive(&mut m, |a| {
                let raised = !doomed && a == Access::Check(up);
                doomed |= raised;
                !raised
            });
            let cut = trace.iter().position(|&a| a == Access::Check(up)).unwrap();
            assert_eq!(
                trace[cut + 1],
                Access::Lower(0),
                "no check after the raised one"
            );
            assert_eq!(m.attempt(), 2);
            assert_eq!(trace.len(), cut + 1 + 4 * (n - 1) + 2, "one clean retry");
        }
    }

    #[test]
    fn a_budget_of_k_starves_after_exactly_k_attempts() {
        for k in 1..=4 {
            let mut m = ScanMachine::new(2, 0, k);
            let trace = drive(&mut m, |a| !matches!(a, Access::Collect2(_)));
            assert_eq!(*trace.last().unwrap(), Access::Starved, "budget {k}");
            assert_eq!(m.attempt(), k);
            let attempts = trace.iter().filter(|&&a| a == Access::Fence).count();
            assert_eq!(attempts as u64, k);
            assert_eq!(m.next(), Access::Starved, "starved stays starved");
        }
        // Unbounded: the paper's scan retries for as long as it is doomed.
        let mut m = ScanMachine::new(2, 0, 0);
        let mut doomed = 100;
        let trace = drive(&mut m, |a| match a {
            Access::Check(_) if doomed > 0 => {
                doomed -= 1;
                false
            }
            _ => true,
        });
        assert_eq!(*trace.last().unwrap(), Access::Done);
        assert_eq!(m.attempt(), 101);
    }

    #[test]
    fn a_clone_taken_mid_scan_and_fed_alike_ends_equal() {
        // Outcomes from a fixed script: the third second-collect read and
        // the fifth arrow check are doomed.
        let outcomes = || {
            let (mut reads, mut checks) = (0, 0);
            move |a: Access| match a {
                Access::Collect2(_) => {
                    reads += 1;
                    reads != 3
                }
                _ => {
                    checks += 1;
                    checks != 5
                }
            }
        };
        for cut in [0, 1, 5, 9, 14] {
            let mut original = ScanMachine::new(5, 3, 0);
            let mut feed_original = outcomes();
            let mut prefix = Vec::new();
            while prefix.len() < cut {
                let a = original.next();
                prefix.push(a);
                if matches!(a, Access::Collect2(_) | Access::Check(_)) {
                    original.feed(feed_original(a));
                }
            }
            let mut copy = original.clone();
            assert_eq!(copy, original);
            // The copy's outcome source has seen the same prefix.
            let mut feed_copy = outcomes();
            for &a in &prefix {
                if matches!(a, Access::Collect2(_) | Access::Check(_)) {
                    feed_copy(a);
                }
            }
            let a = drive(&mut original, feed_original);
            let b = drive(&mut copy, feed_copy);
            assert_eq!(a, b, "cut at {cut}");
            assert_eq!(copy, original, "cut at {cut}");
            assert_eq!(*a.last().unwrap(), Access::Done);
        }
    }

    /// Every `Event::Op` a scan or update records is the access its machine
    /// names next, one for one (fences record no op under SC). The history
    /// is replayed against fresh machines whose outcomes come from a shadow
    /// of the registers: each update writes a distinct seq, so a second read
    /// matches the first exactly when no write landed between them, and an
    /// arrow is raised exactly when its writer wrote it last.
    #[test]
    fn each_machine_access_is_one_scheduled_access() {
        use bprc_sim::history::{Event, OpKind};

        enum Machine {
            Scan(ScanMachine),
            Update(UpdateMachine),
        }
        impl Machine {
            fn next_op(&mut self) -> Access {
                loop {
                    let a = match self {
                        Machine::Scan(m) => m.next(),
                        Machine::Update(m) => m.next(),
                    };
                    if a != Access::Fence {
                        return a;
                    }
                }
            }
        }

        let n = 3;
        let mut retries = 0;
        for seed in 0..12 {
            let mut w = World::builder(n).seed(seed).build();
            let mem = ScannableMemory::<u64, DirectArrow>::new(&w, n, 0);
            let bodies: Vec<ProcBody<()>> = (0..n)
                .map(|i| {
                    let mut p = mem.port(i);
                    let b: ProcBody<()> = Box::new(move |ctx| {
                        for k in 1..=4 {
                            p.update(ctx, k)?;
                            p.scan(ctx)?;
                        }
                        Ok(())
                    });
                    b
                })
                .collect();
            let rep = w.run(bodies, Box::new(RandomStrategy::new(seed)));
            assert!(rep.outputs.iter().all(Option::is_some), "seed {seed}");
            let names = w.reg_names();
            let id = |name: String| names.iter().position(|x| *x == name).unwrap();

            let mut machines: Vec<Option<Machine>> = (0..n).map(|_| None).collect();
            let mut last_tag = vec![0u64; names.len()];
            let mut last_writer: Vec<Option<usize>> = vec![None; names.len()];
            let mut first = vec![vec![0u64; n]; n];
            for e in rep.history.as_ref().unwrap().events() {
                match e {
                    Event::Note { pid, note, .. } => match note.label {
                        labels::SCAN_START => {
                            machines[*pid] = Some(Machine::Scan(ScanMachine::new(n, *pid, 0)));
                        }
                        labels::UPD_START => {
                            machines[*pid] = Some(Machine::Update(UpdateMachine::new(n, *pid)));
                        }
                        labels::SCAN_END | labels::UPD_END => {
                            let mut m = machines[*pid].take().expect("an end has a start");
                            assert_eq!(m.next_op(), Access::Done, "seed {seed}: ended early");
                            if let Machine::Scan(m) = m {
                                retries += m.attempt() - 1;
                            }
                        }
                        _ => {}
                    },
                    Event::Op {
                        pid,
                        kind,
                        reg,
                        tag,
                        ..
                    } => {
                        let p = *pid;
                        let m = machines[p].as_mut().expect("every op is a machine's");
                        let access = m.next_op();
                        let want = match access {
                            Access::Raise(j) => (OpKind::Write, id(format!("A_{p}_{j}"))),
                            Access::Lower(j) => (OpKind::Write, id(format!("A_{j}_{p}"))),
                            Access::Check(j) => (OpKind::Read, id(format!("A_{j}_{p}"))),
                            Access::Collect1(j) | Access::Collect2(j) => {
                                (OpKind::Read, id(format!("V_{j}")))
                            }
                            Access::Write => (OpKind::Write, id(format!("V_{p}"))),
                            other => panic!("seed {seed}: pid {p} made an op at {other:?}"),
                        };
                        assert_eq!((*kind, *reg), want, "seed {seed}: pid {p} at {access:?}");
                        if let Machine::Scan(m) = m {
                            match access {
                                Access::Collect1(j) => first[p][j] = last_tag[*reg],
                                Access::Collect2(j) => m.feed(first[p][j] == last_tag[*reg]),
                                Access::Check(j) => m.feed(last_writer[*reg] != Some(j)),
                                _ => {}
                            }
                        }
                        if *kind == OpKind::Write {
                            last_tag[*reg] = *tag;
                            last_writer[*reg] = Some(p);
                        }
                    }
                    _ => {}
                }
            }
            assert!(machines.iter().all(Option::is_none), "seed {seed}");
        }
        assert!(retries > 0, "the schedules must exercise retries");
    }

    #[test]
    fn peek_values_reflects_pokes() {
        let w = World::builder(2).build();
        let mem = ScannableMemory::<u8, DirectArrow>::new(&w, 2, 7);
        assert_eq!(mem.peek_values(), vec![7, 7]);
    }
}
