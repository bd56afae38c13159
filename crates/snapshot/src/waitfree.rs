//! A **wait-free** snapshot — the extension the field built on top of
//! constructions like the paper's (Afek–Attiya–Dolev–Gafni–Merritt–Shavit,
//! *Atomic Snapshots of Shared Memory*, 1990; here in its classic
//! unbounded-counter form).
//!
//! The paper's §2 scan (see [`crate::memory`]) is *not* wait-free: a
//! relentless writer starves it forever (experiment E7 measures this; the
//! paper's protocol tolerates it because its writers always eventually
//! pause). The classic fix: every **update embeds a full scan's view** in
//! the written register. A scanner that observes a writer's register change
//! *within two different attempts* of its scan may **borrow** that writer's
//! embedded view:
//!
//! * the first observed change is a write `W₁` that landed inside the scan
//!   (between the attempt's two collects);
//! * the second observed change is a later write `W₂`, whose update began —
//!   and therefore ran its embedded scan — entirely after `W₁`, i.e.
//!   entirely inside this scan. Its view is a legal result.
//!
//! Each failing attempt marks at least one *new* mover or borrows, so a
//! scan finishes within `n + 1` attempts — `O(n²)` register operations,
//! unconditionally.
//!
//! **Boundedness note.** Move detection uses a per-process sequence number,
//! which grows without bound — this module is deliberately the *unbounded*
//! variant. AADGMS also show how to replace the sequence numbers with a
//! bounded two-writer handshake protocol; that construction is a paper of
//! its own and out of scope here. The paper's own §2 memory
//! ([`crate::memory`]) remains the bounded construction this repository
//! reproduces; this module exists as the wait-free comparison point (see
//! the `hostile_writer_cannot_starve_the_scan` test and experiment E7).
//!
//! The construction emits the same history annotations as
//! [`crate::memory`], so [`crate::checker::check_history`] verifies P1–P3
//! for it unchanged (embedded scans are real scans and are checked too —
//! the sequence number doubles as the checker's ghost).

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use bprc_registers::Swmr;
use bprc_sim::{Counter, Ctx, EventKind, FastPod, Halted, RegName, World, NO_VERSION};

use crate::memory::{labels, SnapshotMeta};

/// One register's contents: payload, sequence number, and the embedded view
/// `(value, seq)` per process captured by the update's embedded scan.
#[derive(Debug)]
struct WfSlot<T> {
    value: T,
    seq: u64,
    view: Vec<(T, u64)>,
}

impl<T: Clone> Clone for WfSlot<T> {
    fn clone(&self) -> Self {
        WfSlot {
            value: self.value.clone(),
            seq: self.seq,
            view: self.view.clone(),
        }
    }

    /// Forwards to the payload's `clone_from`, for the value and for every
    /// entry of the embedded view (tuples do not forward on their own).
    fn clone_from(&mut self, source: &Self) {
        self.value.clone_from(&source.value);
        self.seq = source.seq;
        clone_view_from(&mut self.view, &source.view);
    }
}

/// `dst.clone_from(src)` that reuses each entry's payload buffers.
fn clone_view_from<T: Clone>(dst: &mut Vec<(T, u64)>, src: &[(T, u64)]) {
    dst.truncate(src.len());
    for (d, s) in dst.iter_mut().zip(src) {
        d.0.clone_from(&s.0);
        d.1 = s.1;
    }
    let have = dst.len();
    dst.extend_from_slice(&src[have..]);
}

impl<T: Clone + Send + Sync + 'static> crate::collect::SeqSlot for WfSlot<T> {
    fn ghost_seq(&self) -> u64 {
        self.seq
    }
}

/// Slots of small POD payloads can ride the seqlock lanes — but unlike the
/// bounded construction's [`crate::memory`] slots, a `WfSlot`'s packed width
/// depends on `n` (the embedded view has one entry per process). Layout:
/// seq, view length, payload words, then `(payload words, seq)` per view
/// entry. With the header first, `unpack` derives the payload width `w`
/// from the total: `total = 2 + w + len·(w + 1)`. Every slot written to a
/// given register packs to the same width because the view always has
/// exactly `n` entries. Slots wider than [`bprc_sim::MAX_FAST_WORDS`] words
/// transparently keep the locked backing.
impl<T: FastPod> FastPod for WfSlot<T> {
    fn words(&self) -> usize {
        let w = self.value.words();
        2 + w + self.view.len() * (w + 1)
    }

    fn pack(&self, out: &mut [u64]) {
        debug_assert_eq!(out.len(), self.words());
        let w = self.value.words();
        out[0] = self.seq;
        out[1] = self.view.len() as u64;
        self.value.pack(&mut out[2..2 + w]);
        for ((v, s), entry) in self.view.iter().zip(out[2 + w..].chunks_exact_mut(w + 1)) {
            v.pack(&mut entry[..w]);
            entry[w] = *s;
        }
    }

    fn unpack(words: &[u64]) -> Self {
        let (seq, len) = (words[0], words[1] as usize);
        let w = (words.len() - 2 - len) / (len + 1);
        let view = words[2 + w..]
            .chunks_exact(w + 1)
            .map(|entry| (T::unpack(&entry[..w]), entry[w]))
            .collect();
        WfSlot {
            value: T::unpack(&words[2..2 + w]),
            seq,
            view,
        }
    }
}

struct WfShared<T> {
    n: usize,
    values: Vec<Swmr<WfSlot<T>>>,
    port_taken: Vec<AtomicBool>,
}

/// The wait-free snapshot object.
pub struct WaitFreeSnapshot<T> {
    shared: Arc<WfShared<T>>,
}

impl<T> Clone for WaitFreeSnapshot<T> {
    fn clone(&self) -> Self {
        WaitFreeSnapshot {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> std::fmt::Debug for WaitFreeSnapshot<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WaitFreeSnapshot")
            .field("n", &self.shared.n)
            .finish()
    }
}

impl<T> WaitFreeSnapshot<T>
where
    T: Clone + PartialEq + Send + Sync + 'static,
{
    /// Allocates the object (all registers hold `init`).
    pub fn new(world: &World, n: usize, init: T) -> Self {
        Self::build(world, n, &init, |world, name, writer, slot| {
            Swmr::new(world, name, writer, slot)
        })
    }

    fn build(
        world: &World,
        n: usize,
        init: &T,
        mk: impl Fn(&World, RegName, usize, WfSlot<T>) -> Swmr<WfSlot<T>>,
    ) -> Self {
        assert!(n >= 1, "need at least one process");
        assert_eq!(world.n(), n, "snapshot size must match the world");
        let initial_view: Vec<(T, u64)> = (0..n).map(|_| (init.clone(), 0)).collect();
        let values = (0..n)
            .map(|i| {
                mk(
                    world,
                    RegName::indexed("WfV_", i),
                    i,
                    WfSlot {
                        value: init.clone(),
                        seq: 0,
                        view: initial_view.clone(),
                    },
                )
            })
            .collect();
        WaitFreeSnapshot {
            shared: Arc::new(WfShared {
                n,
                values,
                port_taken: (0..n).map(|_| AtomicBool::new(false)).collect(),
            }),
        }
    }

    /// Like [`new`](WaitFreeSnapshot::new) but puts the registers on
    /// seqlock lanes when the packed slot — payload, seq, and the `n`-entry
    /// embedded view — fits in [`bprc_sim::MAX_FAST_WORDS`] words;
    /// wider slots transparently keep the locked backing. The registers are
    /// lanes of one shared [`value slab`](World::value_slab), so the
    /// version words the batched collect validation sweeps are contiguous.
    /// A change of representation, never of semantics: the
    /// `fast_and_locked_cells_are_observationally_identical` test pins
    /// observational identity against [`new`](WaitFreeSnapshot::new).
    pub fn new_fast(world: &World, n: usize, init: T) -> Self
    where
        T: FastPod,
    {
        let w = init.words();
        let slab = world.value_slab(n, 2 + w + n * (w + 1));
        Self::build(world, n, &init, move |world, name, writer, slot| {
            Swmr::new_lane(world, &slab, writer, name, writer, slot)
        })
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.shared.n
    }

    /// Takes process `pid`'s port (once).
    ///
    /// # Panics
    ///
    /// Panics if taken twice or `pid` out of range.
    pub fn port(&self, pid: usize) -> WfPort<T> {
        crate::collect::claim_port(&self.shared.port_taken, pid);
        let snap: Vec<WfSlot<T>> = self.shared.values.iter().map(|v| v.peek()).collect();
        let view = snap[pid].view.clone();
        let n = self.shared.n;
        WfPort {
            shared: Arc::clone(&self.shared),
            me: pid,
            last: snap[pid].clone(),
            staged: snap[pid].clone(),
            c1: snap.clone(),
            c2: snap,
            v1: vec![NO_VERSION; n],
            v2: vec![NO_VERSION; n],
            moved: vec![false; n],
            view,
        }
    }

    /// Checker metadata (same format as the paper construction's).
    pub fn meta(&self) -> SnapshotMeta {
        SnapshotMeta {
            value_regs: self.shared.values.iter().map(|v| v.id()).collect(),
        }
    }
}

/// Process handle for the wait-free snapshot.
pub struct WfPort<T> {
    shared: Arc<WfShared<T>>,
    me: usize,
    last: WfSlot<T>,
    /// Where `update` copies the slot it is about to write; swapped with
    /// `last` once the write has landed, so neither is ever reallocated.
    staged: WfSlot<T>,
    /// Persistent double-collect buffers (see [`crate::memory::Port`]):
    /// slots whose seq is unchanged since the buffered copy are provably
    /// identical — including their embedded views — and are not re-cloned.
    /// That matters even more here than in the bounded construction,
    /// because every `WfSlot` clone deep-copies an `n`-entry view.
    c1: Vec<WfSlot<T>>,
    c2: Vec<WfSlot<T>>,
    /// Per-slot version tokens keyed to `c1`/`c2` (see
    /// [`bprc_sim::Reg::read_changed`]): a register whose version word still
    /// equals the token is provably unwritten, so the collect skips the
    /// load *and* the `n`-entry embedded-view unpack — the expensive part
    /// of a `WfSlot` read — on a seqlock lane, and the read lock on a
    /// locked cell.
    v1: Vec<u64>,
    v2: Vec<u64>,
    /// Mover bookkeeping, reset per scan.
    moved: Vec<bool>,
    /// Persistent result buffer: [`scan_slots`](WfPort::scan_slots) leaves
    /// the completed view here, so a steady-state scan allocates nothing.
    view: Vec<(T, u64)>,
}

impl<T> std::fmt::Debug for WfPort<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WfPort").field("me", &self.me).finish()
    }
}

impl<T> WfPort<T>
where
    T: Clone + PartialEq + Send + Sync + 'static,
{
    /// This port's pid.
    pub fn pid(&self) -> usize {
        self.me
    }

    /// Publishes `value`: embedded scan, then write `(value, seq+1, view)`.
    /// Wait-free: one (wait-free) scan plus one register write.
    ///
    /// # Errors
    ///
    /// Returns [`Halted`] if the scheduler stopped this process.
    pub fn update(&mut self, ctx: &mut Ctx, value: T) -> Result<(), Halted> {
        self.scan_slots(ctx)?;
        let seq = self.last.seq + 1;
        if ctx.recording() {
            ctx.annotate(labels::UPD_START, vec![seq]);
        }
        ctx.stamp();
        ctx.trace_event(EventKind::Update, seq);
        let slot = WfSlot {
            value,
            seq,
            view: self.view.clone(),
        };
        // The port keeps its own copy in a buffer it already owns; the slot
        // moves into the register.
        self.staged.clone_from(&slot);
        self.shared.values[self.me].write_tagged(ctx, slot, seq)?;
        std::mem::swap(&mut self.last, &mut self.staged);
        if ctx.recording() {
            ctx.annotate(labels::UPD_END, vec![seq]);
        }
        ctx.count(Counter::Updates, 1);
        Ok(())
    }

    /// Takes a snapshot — **wait-free**: at most `n + 1` attempts.
    ///
    /// # Errors
    ///
    /// Returns [`Halted`] if the scheduler stopped this process.
    pub fn scan(&mut self, ctx: &mut Ctx) -> Result<Vec<T>, Halted> {
        self.scan_slots(ctx)?;
        Ok(self.view.iter().map(|(v, _)| v.clone()).collect())
    }

    /// Like [`scan`](WfPort::scan) but refills `out` in place, reusing its
    /// capacity (and the elements' heap, via `clone_from`): together with
    /// the persistent collect and view buffers, a steady-state scan
    /// allocates nothing.
    ///
    /// # Errors
    ///
    /// As for [`scan`](WfPort::scan).
    pub fn scan_into(&mut self, ctx: &mut Ctx, out: &mut Vec<T>) -> Result<(), Halted> {
        self.scan_slots(ctx)?;
        if out.len() == self.shared.n {
            for (dst, (src, _)) in out.iter_mut().zip(self.view.iter()) {
                dst.clone_from(src);
            }
        } else {
            out.clear();
            out.extend(self.view.iter().map(|(v, _)| v.clone()));
        }
        Ok(())
    }

    /// Unlike the bounded construction's scan, the second collect never
    /// exits early: the `n + 1`-attempt bound rests on charging every
    /// failing attempt to a *new* mover or a borrow, which requires seeing
    /// every register's seq in both collects of every attempt. The result
    /// is left in `self.view`.
    fn scan_slots(&mut self, ctx: &mut Ctx) -> Result<(), Halted> {
        let n = self.shared.n;
        let span = crate::collect::begin_scan(ctx);
        self.moved.fill(false);
        let mut attempt = crate::collect::AttemptTracker::default();
        loop {
            attempt.begin_attempt(ctx);
            let mut reads = crate::collect::collect_pass(
                ctx,
                &self.shared.values,
                self.me,
                &mut self.c1,
                &mut self.v1,
            )?;
            reads += crate::collect::collect_pass(
                ctx,
                &self.shared.values,
                self.me,
                &mut self.c2,
                &mut self.v2,
            )?;
            crate::collect::flush_collect_reads(ctx, reads);
            // Movers: registers whose seq changed between the two collects —
            // i.e. processes whose write landed inside this attempt.
            let any_mover = (0..n).any(|j| j != self.me && self.c1[j].seq != self.c2[j].seq);
            if !any_mover {
                let me = self.me;
                debug_assert_eq!(self.view.len(), n);
                for j in 0..n {
                    let (src, seq) = if j == me {
                        (&self.last.value, self.last.seq)
                    } else {
                        (&self.c2[j].value, self.c2[j].seq)
                    };
                    self.view[j].0.clone_from(src);
                    self.view[j].1 = seq;
                }
                let view = &self.view;
                crate::collect::finish_scan(ctx, span, attempt.tries(), || {
                    view.iter().map(|(_, s)| *s).collect()
                });
                return Ok(());
            }
            for j in 0..n {
                if j == self.me || self.c1[j].seq == self.c2[j].seq {
                    continue;
                }
                if self.moved[j] {
                    // j's register changed inside two different attempts:
                    // the update behind the second change ran its embedded
                    // scan entirely within this scan — borrow its view.
                    clone_view_from(&mut self.view, &self.c2[j].view);
                    let view = &self.view;
                    let tries = attempt.tries();
                    crate::collect::finish_scan(ctx, span, tries, || {
                        view.iter().map(|(_, s)| *s).collect()
                    });
                    return Ok(());
                }
                self.moved[j] = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::check_history;
    use bprc_sim::sched::{FnStrategy, RandomStrategy, SoloBursts};
    use bprc_sim::world::ProcBody;
    use bprc_sim::Decision;

    #[test]
    fn sequential_update_scan() {
        let mut w = World::builder(2).build();
        let snap = WaitFreeSnapshot::<u32>::new(&w, 2, 0);
        let mut p0 = snap.port(0);
        let mut p1 = snap.port(1);
        let bodies: Vec<ProcBody<Vec<u32>>> = vec![
            Box::new(move |ctx| {
                p0.update(ctx, 5)?;
                p0.scan(ctx)
            }),
            Box::new(move |ctx| {
                p1.update(ctx, 9)?;
                Ok(vec![])
            }),
        ];
        let rep = w.run(bodies, Box::new(bprc_sim::sched::RoundRobin::new()));
        let view = rep.outputs[0].clone().unwrap();
        assert_eq!(view.len(), 2);
        assert_eq!(view[0], 5, "own slot current");
    }

    #[test]
    fn p1_p3_hold_on_random_schedules() {
        for seed in 0..60 {
            let n = 3;
            let mut world = World::builder(n).seed(seed).step_limit(2_000_000).build();
            let snap = WaitFreeSnapshot::<u64>::new(&world, n, 0);
            let meta = snap.meta();
            let bodies: Vec<ProcBody<()>> = (0..n)
                .map(|i| {
                    let mut port = snap.port(i);
                    let b: ProcBody<()> = Box::new(move |ctx| {
                        for k in 0..4u64 {
                            port.update(ctx, (i as u64) * 100 + k)?;
                            port.scan(ctx)?;
                        }
                        Ok(())
                    });
                    b
                })
                .collect();
            let rep = world.run(bodies, Box::new(RandomStrategy::new(seed)));
            let check = check_history(rep.history.as_ref().unwrap(), &meta);
            assert!(check.ok(), "seed {seed}: violations {:?}", check.violations);
            assert!(check.scans > 0);
        }
    }

    #[test]
    fn p1_p3_hold_under_solo_bursts() {
        for burst in [1u64, 2, 5, 9, 17] {
            let n = 4;
            let mut world = World::builder(n).step_limit(2_000_000).build();
            let snap = WaitFreeSnapshot::<u64>::new(&world, n, 0);
            let meta = snap.meta();
            let bodies: Vec<ProcBody<()>> = (0..n)
                .map(|i| {
                    let mut port = snap.port(i);
                    let b: ProcBody<()> = Box::new(move |ctx| {
                        for k in 0..3u64 {
                            port.update(ctx, (i as u64) * 10 + k)?;
                            port.scan(ctx)?;
                        }
                        Ok(())
                    });
                    b
                })
                .collect();
            let rep = world.run(bodies, Box::new(SoloBursts::new(burst)));
            let check = check_history(rep.history.as_ref().unwrap(), &meta);
            assert!(check.ok(), "burst {burst}: {:?}", check.violations);
        }
    }

    #[test]
    fn hostile_writer_cannot_starve_the_scan() {
        // The same adversary pattern that starves the paper's scan (E7):
        // here the scan must complete anyway.
        let mut w = World::builder(2).step_limit(200_000).build();
        let snap = WaitFreeSnapshot::<u64>::new(&w, 2, 0);
        let mut scanner = snap.port(0);
        let mut writer = snap.port(1);
        let bodies: Vec<ProcBody<Vec<u64>>> = vec![
            Box::new(move |ctx| scanner.scan(ctx)),
            Box::new(move |ctx| {
                let mut k = 0u64;
                loop {
                    k += 1;
                    writer.update(ctx, k)?;
                }
            }),
        ];
        // Writer-heavy schedule: 2 writer steps per scanner step.
        let strategy = FnStrategy::new(move |view: &bprc_sim::ScheduleView<'_>| {
            if !view.step.is_multiple_of(3) && view.runnable.contains(&1) {
                Decision::Grant(1)
            } else if view.runnable.contains(&0) {
                Decision::Grant(0)
            } else {
                Decision::Grant(1)
            }
        });
        let rep = w.run(bodies, Box::new(strategy));
        assert!(
            rep.outputs[0].is_some(),
            "wait-free scan must complete under writer pressure (halted: {:?})",
            rep.halted[0]
        );
        assert_eq!(rep.telemetry.counter(0, Counter::Scans), 1);
    }

    #[test]
    fn scan_attempts_are_bounded_by_n_plus_1() {
        for seed in 0..40 {
            let n = 4;
            let mut w = World::builder(n).seed(seed).step_limit(1_000_000).build();
            let snap = WaitFreeSnapshot::<u64>::new(&w, n, 0);
            let mut bodies: Vec<ProcBody<u64>> = Vec::new();
            let mut scanner = snap.port(0);
            bodies.push(Box::new(move |ctx| {
                scanner.scan(ctx)?;
                Ok(0)
            }));
            for i in 1..n {
                let mut port = snap.port(i);
                bodies.push(Box::new(move |ctx| {
                    for k in 0..30u64 {
                        port.update(ctx, k)?;
                    }
                    Ok(0)
                }));
            }
            let rep = w.run(bodies, Box::new(RandomStrategy::new(seed)));
            let attempts = rep.telemetry.counter(0, Counter::ScanAttempts);
            assert!(
                attempts <= (n as u64) + 1,
                "seed {seed}: {attempts} attempts > n+1"
            );
        }
    }

    #[test]
    fn borrowed_views_are_exercised() {
        // Force a borrow: the writer completes two full updates between the
        // scanner's collects of successive attempts.
        let mut w = World::builder(2).step_limit(100_000).build();
        let snap = WaitFreeSnapshot::<u64>::new(&w, 2, 0);
        let meta = snap.meta();
        let mut scanner = snap.port(0);
        let mut writer = snap.port(1);
        let bodies: Vec<ProcBody<Vec<u64>>> = vec![
            Box::new(move |ctx| scanner.scan(ctx)),
            Box::new(move |ctx| {
                for k in 1..=6u64 {
                    writer.update(ctx, k)?;
                }
                Ok(vec![])
            }),
        ];
        // Interleave so each scanner attempt straddles a writer's store:
        // scanner reads c1[1], writer completes an update, scanner reads
        // c2[1] (seq changed -> mover), repeat -> borrow on the second.
        let mut phase = 0u32;
        let strategy = FnStrategy::new(move |view: &bprc_sim::ScheduleView<'_>| {
            phase += 1;
            // Alternate small bursts; exact interleaving found by phase
            // parity works for the 2-process op pattern here.
            if phase % 4 < 2 && view.runnable.contains(&1) {
                Decision::Grant(1)
            } else if view.runnable.contains(&0) {
                Decision::Grant(0)
            } else {
                Decision::Grant(view.runnable[0])
            }
        });
        let rep = w.run(bodies, Box::new(strategy));
        let check = check_history(rep.history.as_ref().unwrap(), &meta);
        assert!(check.ok(), "violations: {:?}", check.violations);
        assert!(rep.outputs[0].is_some(), "scan completed");
    }

    #[test]
    #[should_panic(expected = "taken twice")]
    fn ports_single_owner() {
        let w = World::builder(1).build();
        let snap = WaitFreeSnapshot::<u8>::new(&w, 1, 0);
        let _a = snap.port(0);
        let _b = snap.port(0);
    }

    #[test]
    fn scan_into_refills_in_place() {
        let mut w = World::builder(2).build();
        let snap = WaitFreeSnapshot::<u32>::new(&w, 2, 0);
        let mut p0 = snap.port(0);
        let mut p1 = snap.port(1);
        let bodies: Vec<ProcBody<Vec<u32>>> = vec![
            Box::new(move |ctx| {
                let mut out = vec![99, 99]; // right length: refilled via clone_from
                p0.update(ctx, 5)?;
                p0.scan_into(ctx, &mut out)?;
                Ok(out)
            }),
            Box::new(move |ctx| {
                let mut out = Vec::new(); // wrong length: cleared and refilled
                p1.update(ctx, 9)?;
                p1.scan_into(ctx, &mut out)?;
                Ok(out)
            }),
        ];
        let rep = w.run(bodies, Box::new(bprc_sim::sched::RoundRobin::new()));
        let v0 = rep.outputs[0].clone().unwrap();
        let v1 = rep.outputs[1].clone().unwrap();
        assert_eq!(v0.len(), 2);
        assert_eq!(v0[0], 5, "own slot current");
        assert_eq!(v1.len(), 2);
        assert_eq!(v1[1], 9, "own slot current");
    }

    /// The mirror of the sim-level seqlock equivalence test
    /// (`seqlock_and_locked_cells_are_observationally_identical` in
    /// `crates/sim/tests/seqlock_adversarial.rs`), one layer up: the same
    /// workload over [`WaitFreeSnapshot::new_fast`] (slab lanes) and
    /// [`WaitFreeSnapshot::new`] (locked cells) must produce identical
    /// outputs, step counts, recorded register ops, and scan statistics.
    /// WfSlot<u64> at n=3 packs to 9 words, comfortably on the dynamic fast
    /// path.
    #[test]
    fn fast_and_locked_cells_are_observationally_identical() {
        type New = fn(&World, usize, u64) -> WaitFreeSnapshot<u64>;
        let run = |new: New, seed: u64| {
            let n = 3;
            let mut world = World::builder(n).seed(seed).step_limit(2_000_000).build();
            let snap = new(&world, n, 0);
            let meta = snap.meta();
            let bodies: Vec<ProcBody<Vec<u64>>> = (0..n)
                .map(|i| {
                    let mut port = snap.port(i);
                    let b: ProcBody<Vec<u64>> = Box::new(move |ctx| {
                        let mut out = Vec::new();
                        for k in 0..4u64 {
                            port.update(ctx, (i as u64) * 100 + k)?;
                            port.scan_into(ctx, &mut out)?;
                        }
                        Ok(out)
                    });
                    b
                })
                .collect();
            let rep = world.run(bodies, Box::new(RandomStrategy::new(seed)));
            let check = check_history(rep.history.as_ref().unwrap(), &meta);
            assert!(check.ok(), "seed {seed}: {:?}", check.violations);
            let ops: Vec<_> = rep.history.as_ref().unwrap().ops().collect();
            let t = &rep.telemetry;
            let stats: Vec<(u64, u64, u64)> = (0..n)
                .map(|p| {
                    (
                        t.counter(p, Counter::Scans),
                        t.counter(p, Counter::ScanAttempts),
                        t.counter(p, Counter::CollectReads),
                    )
                })
                .collect();
            (rep.outputs.clone(), rep.steps, ops, stats)
        };
        for seed in [0u64, 1, 7, 42, 99] {
            let fast = run(WaitFreeSnapshot::new_fast, seed);
            let locked = run(WaitFreeSnapshot::new, seed);
            assert_eq!(
                fast, locked,
                "seed {seed}: backing changed observable behaviour"
            );
        }
    }
}
