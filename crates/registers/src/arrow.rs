//! Arrow registers: the paper's `A_ij` handshake cells.
//!
//! An arrow cell connects one *writer* process and one *scanner* process.
//! The writer **raises** the arrow ("I am about to update my value
//! register"); the scanner **lowers** it at the start of a scan attempt and
//! re-reads it at the end — observing it raised means a write started in
//! between and the scan must retry.
//!
//! Two implementations are provided (see crate docs for why both exist):
//! [`DirectArrow`], an atomic two-writer boolean register, and
//! [`HandshakeArrow`], the paper-footnote simulation from two single-writer
//! bits.

use bprc_sim::{Counter, Ctx, Halted, Reg, RegName, World};

use crate::swmr::Swmr;

/// The interface the scannable memory needs from an `A_ij` cell.
///
/// This trait is sealed in spirit — it is implemented by the two cells in
/// this module, and the snapshot construction is generic over it so both can
/// be exercised by the same tests.
///
/// The snapshot raises, lowers and checks its arrows a phase at a time,
/// through the run forms ([`raise_run`](ArrowCell::raise_run),
/// [`lower_run`](ArrowCell::lower_run), [`check_run`](ArrowCell::check_run)).
/// Their defaults make one single operation per arrow, which is what
/// [`HandshakeArrow`] keeps: its operations are two accesses of two kinds
/// each. [`DirectArrow`], one bit per arrow, takes a phase through one
/// free-mode gate.
pub trait ArrowCell: Clone + Send + Sync + 'static {
    /// Allocates a lowered arrow between `writer` and `scanner`.
    ///
    /// (`DirectArrow` ignores the pids; `HandshakeArrow` uses them to assign
    /// the two single-writer bits.)
    fn alloc(world: &World, name: impl Into<RegName>, writer: usize, scanner: usize) -> Self;

    /// Writer side: raise the arrow (announce an impending value write).
    ///
    /// # Errors
    ///
    /// Returns [`Halted`] if the scheduler stopped this process.
    fn raise(&self, ctx: &mut Ctx) -> Result<(), Halted>;

    /// Scanner side: lower the arrow (acknowledge, before collecting).
    ///
    /// # Errors
    ///
    /// Returns [`Halted`] if the scheduler stopped this process.
    fn lower(&self, ctx: &mut Ctx) -> Result<(), Halted>;

    /// Scanner side: is the arrow currently raised?
    ///
    /// # Errors
    ///
    /// Returns [`Halted`] if the scheduler stopped this process.
    fn is_raised(&self, ctx: &mut Ctx) -> Result<bool, Halted>;

    /// The run form of [`raise`](ArrowCell::raise): raises each arrow of
    /// `arrows`, in order — the same accesses, counters and ring events as
    /// one `raise` per arrow, which is what the default does. A cell whose
    /// raise is one register access overrides it to take the accesses
    /// through one free-mode gate ([`Reg::write_run`]).
    ///
    /// # Errors
    ///
    /// Returns [`Halted`] if the scheduler stopped this process.
    fn raise_run<'a>(
        ctx: &mut Ctx,
        arrows: impl IntoIterator<Item = &'a Self>,
    ) -> Result<(), Halted>
    where
        Self: 'a,
    {
        arrows.into_iter().try_for_each(|a| a.raise(ctx))
    }

    /// The run form of [`lower`](ArrowCell::lower), as
    /// [`raise_run`](ArrowCell::raise_run) is of `raise`.
    ///
    /// # Errors
    ///
    /// Returns [`Halted`] if the scheduler stopped this process.
    fn lower_run<'a>(
        ctx: &mut Ctx,
        arrows: impl IntoIterator<Item = &'a Self>,
    ) -> Result<(), Halted>
    where
        Self: 'a,
    {
        arrows.into_iter().try_for_each(|a| a.lower(ctx))
    }

    /// The run form of [`is_raised`](ArrowCell::is_raised): checks each
    /// arrow of `arrows`, in order, and stops at the first raised one.
    /// Returns how many it found lowered: all of them, or the index of the
    /// raised one. Accesses as for [`raise_run`](ArrowCell::raise_run).
    ///
    /// # Errors
    ///
    /// Returns [`Halted`] if the scheduler stopped this process.
    fn check_run<'a>(
        ctx: &mut Ctx,
        arrows: impl IntoIterator<Item = &'a Self>,
    ) -> Result<usize, Halted>
    where
        Self: 'a,
    {
        let mut lowered = 0;
        for a in arrows {
            if a.is_raised(ctx)? {
                break;
            }
            lowered += 1;
        }
        Ok(lowered)
    }

    /// Unscheduled observation for checkers and adversaries.
    fn peek_raised(&self) -> bool;

    /// Worst-case number of register accesses one `raise` performs.
    fn raise_cost() -> u64;
}

/// An atomic two-writer two-reader boolean register, as the paper assumes.
///
/// `true` = raised. Both endpoints write it directly; atomicity comes from
/// the underlying [`Reg`].
#[derive(Debug, Clone)]
pub struct DirectArrow {
    cell: Reg<bool>,
}

impl DirectArrow {
    /// Allocates a lowered arrow.
    ///
    /// The boolean lands in a shared cache-line chunk whose mutations are
    /// `fetch_or`/`fetch_and` RMWs, so the *two*-writer discipline of an
    /// arrow (writer raises, scanner lowers) stays atomic and n² arrows
    /// occupy ⌈n²/512⌉ cache lines instead of n² scattered cells. A raise
    /// of a raised arrow, or a lower of a lowered one, is a load and no
    /// RMW; the snapshot's fences, real in free mode, order it
    /// (`bprc_sim::reg`'s bit backing says why). Scheduling and telemetry
    /// are identical to a locked cell.
    pub fn new(world: &World, name: impl Into<RegName>) -> Self {
        DirectArrow {
            cell: world.bit_reg(name, false),
        }
    }
}

impl ArrowCell for DirectArrow {
    fn alloc(world: &World, name: impl Into<RegName>, _writer: usize, _scanner: usize) -> Self {
        DirectArrow::new(world, name)
    }

    #[inline]
    fn raise(&self, ctx: &mut Ctx) -> Result<(), Halted> {
        ctx.count(Counter::ArrowRaises, 1);
        self.cell.write(ctx, true)
    }

    #[inline]
    fn lower(&self, ctx: &mut Ctx) -> Result<(), Halted> {
        ctx.count(Counter::ArrowLowers, 1);
        self.cell.write(ctx, false)
    }

    #[inline]
    fn is_raised(&self, ctx: &mut Ctx) -> Result<bool, Halted> {
        ctx.count(Counter::ArrowChecks, 1);
        self.cell.read(ctx)
    }

    #[inline]
    fn raise_run<'a>(
        ctx: &mut Ctx,
        arrows: impl IntoIterator<Item = &'a Self>,
    ) -> Result<(), Halted> {
        let cells = arrows.into_iter().map(|a| &a.cell);
        Reg::write_run(ctx, cells, true, Some(Counter::ArrowRaises))
    }

    #[inline]
    fn lower_run<'a>(
        ctx: &mut Ctx,
        arrows: impl IntoIterator<Item = &'a Self>,
    ) -> Result<(), Halted> {
        let cells = arrows.into_iter().map(|a| &a.cell);
        Reg::write_run(ctx, cells, false, Some(Counter::ArrowLowers))
    }

    #[inline]
    fn check_run<'a>(
        ctx: &mut Ctx,
        arrows: impl IntoIterator<Item = &'a Self>,
    ) -> Result<usize, Halted> {
        let cells = arrows.into_iter().map(|a| &a.cell);
        Reg::read_run(ctx, cells, Some(Counter::ArrowChecks), |raised| !raised)
    }

    fn peek_raised(&self) -> bool {
        self.cell.peek()
    }

    fn raise_cost() -> u64 {
        1
    }
}

/// The handshake ("arrows technique") simulation of an `A_ij` register from
/// two single-writer bits, per the paper's footnote 3.
///
/// * `flag` is written only by the writer; `ack` only by the scanner.
/// * Raised ⇔ `flag != ack`.
/// * `raise` = read `ack`, write `flag := !ack` (make unequal).
/// * `lower` = read `flag`, write `ack := flag` (make equal).
///
/// A `raise` that overlaps a `lower` can be *absorbed* (the lower makes the
/// bits equal again after the raise's read). The snapshot construction
/// tolerates this: an absorbed raise's value write is either seen
/// consistently by both collects, or detected by the toggle-bit comparison,
/// or happens entirely after the second collect (in which case returning the
/// older value is still a legal snapshot). See `bprc-snapshot`'s tests.
#[derive(Debug, Clone)]
pub struct HandshakeArrow {
    flag: Swmr<bool>,
    ack: Swmr<bool>,
}

impl HandshakeArrow {
    /// Allocates a lowered handshake arrow between `writer` and `scanner`;
    /// its bits are named `name` with the suffixes `.flag` and `.ack`.
    ///
    /// Each bit is single-writer, so both ride packed bits without even
    /// needing RMW arbitration between the endpoints.
    pub fn new(world: &World, name: impl Into<RegName>, writer: usize, scanner: usize) -> Self {
        let name = name.into();
        HandshakeArrow {
            flag: Swmr::new_bit(world, name.clone().with_suffix(".flag"), writer, false),
            ack: Swmr::new_bit(world, name.with_suffix(".ack"), scanner, false),
        }
    }
}

impl ArrowCell for HandshakeArrow {
    fn alloc(world: &World, name: impl Into<RegName>, writer: usize, scanner: usize) -> Self {
        HandshakeArrow::new(world, name, writer, scanner)
    }

    #[inline]
    fn raise(&self, ctx: &mut Ctx) -> Result<(), Halted> {
        ctx.count(Counter::ArrowRaises, 1);
        let a = self.ack.read(ctx)?;
        self.flag.write(ctx, !a)
    }

    #[inline]
    fn lower(&self, ctx: &mut Ctx) -> Result<(), Halted> {
        ctx.count(Counter::ArrowLowers, 1);
        let f = self.flag.read(ctx)?;
        self.ack.write(ctx, f)
    }

    #[inline]
    fn is_raised(&self, ctx: &mut Ctx) -> Result<bool, Halted> {
        ctx.count(Counter::ArrowChecks, 1);
        // Read order matters: read the writer's bit first, then our own ack.
        // (The scanner owns `ack`, so its value cannot change in between.)
        let f = self.flag.read(ctx)?;
        let a = self.ack.read(ctx)?;
        Ok(f != a)
    }

    fn peek_raised(&self) -> bool {
        self.flag.peek() != self.ack.peek()
    }

    fn raise_cost() -> u64 {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bprc_sim::sched::{FnStrategy, RoundRobin};
    use bprc_sim::world::ProcBody;
    use bprc_sim::Decision;

    fn sequential_semantics<A: ArrowCell>(arrow: A, w: &mut bprc_sim::World) {
        let a = arrow.clone();
        let bodies: Vec<ProcBody<Vec<bool>>> = vec![
            Box::new(move |ctx| {
                let mut obs = Vec::new();
                obs.push(a.is_raised(ctx)?); // initially lowered
                a.raise(ctx)?;
                obs.push(a.is_raised(ctx)?); // raised
                a.raise(ctx)?;
                obs.push(a.is_raised(ctx)?); // still raised (idempotent-ish)
                a.lower(ctx)?;
                obs.push(a.is_raised(ctx)?); // lowered
                a.raise(ctx)?;
                obs.push(a.is_raised(ctx)?); // raised again
                Ok(obs)
            }),
            Box::new(move |_| Ok(vec![])),
        ];
        let rep = w.run(bodies, Box::new(RoundRobin::new()));
        assert_eq!(
            rep.outputs[0],
            Some(vec![false, true, true, false, true]),
            "sequential raise/lower semantics"
        );
    }

    #[test]
    fn direct_arrow_sequential() {
        let mut w = bprc_sim::World::builder(2).build();
        let a = DirectArrow::new(&w, "A");
        sequential_semantics(a, &mut w);
    }

    #[test]
    fn handshake_arrow_sequential() {
        // Process 0 plays both roles here, which is fine for SWMR discipline
        // only if it owns both bits; allocate with writer=0, scanner=0.
        let mut w = bprc_sim::World::builder(2).build();
        let a = HandshakeArrow::new(&w, "A", 0, 0);
        sequential_semantics(a, &mut w);
    }

    /// If the raise happens entirely after the lower completes, the next
    /// `is_raised` must see it. The schedule grants the scanner its full
    /// lower (at most 2 accesses), then the writer its full raise, then the
    /// scanner its check.
    fn check_raise_after_lower_visible<A: ArrowCell>(w: &mut bprc_sim::World, a: A) {
        let a_w = a.clone();
        let a_s = a;
        let bodies: Vec<ProcBody<bool>> = vec![
            Box::new(move |ctx| {
                a_w.raise(ctx)?;
                Ok(true)
            }),
            Box::new(move |ctx| {
                a_s.lower(ctx)?;
                a_s.is_raised(ctx)
            }),
        ];
        let mut granted = 0u32;
        let lower_cost = A::raise_cost() as u32; // lower mirrors raise in both impls
        let strategy = FnStrategy::new(move |view: &bprc_sim::ScheduleView<'_>| {
            let pick = if granted < lower_cost && view.runnable.contains(&1) {
                1 // finish the lower first
            } else if view.runnable.contains(&0) {
                0 // then the whole raise
            } else {
                1 // then the check
            };
            granted += 1;
            Decision::Grant(pick)
        });
        let rep = w.run(bodies, Box::new(strategy));
        assert_eq!(rep.outputs[1], Some(true), "raise after lower must be seen");
    }

    #[test]
    fn direct_raise_after_lower_is_visible() {
        let mut w = bprc_sim::World::builder(2).build();
        let a = DirectArrow::new(&w, "A");
        check_raise_after_lower_visible(&mut w, a);
    }

    #[test]
    fn handshake_raise_after_lower_is_visible() {
        let mut w = bprc_sim::World::builder(2).build();
        let a = HandshakeArrow::new(&w, "A", 0, 1);
        check_raise_after_lower_visible(&mut w, a);
    }

    /// What one single-process lockstep run wrote, as its books tell it:
    /// the registers of its history's write ops, its `RegWrite` ring
    /// events' args, and its `RegWrites`/`ArrowRaises`/`ArrowLowers`.
    fn books(mut w: bprc_sim::World, body: ProcBody<()>) -> (Vec<usize>, Vec<usize>, [u64; 3]) {
        let rep = w.run(vec![body], Box::new(RoundRobin::new()));
        assert_eq!(rep.decided_count(), 1);
        let history: Vec<usize> = rep
            .history
            .as_ref()
            .expect("lockstep records its history")
            .ops()
            .filter(|op| op.2 == bprc_sim::history::OpKind::Write)
            .map(|op| op.3)
            .collect();
        let ring: Vec<usize> = rep
            .flight
            .events(0)
            .iter()
            .filter(|e| e.kind == bprc_sim::EventKind::RegWrite)
            .map(|e| e.arg as usize)
            .collect();
        let counts = [
            Counter::RegWrites,
            Counter::ArrowRaises,
            Counter::ArrowLowers,
        ]
        .map(|c| rep.telemetry.counter(0, c));
        (history, ring, counts)
    }

    /// A bit write of the value the bit already holds changes no memory,
    /// but it is still a scheduled write: one `Event::Op` write
    /// in the history, one `RegWrites` (and `ArrowRaises`/`ArrowLowers`)
    /// tick and one `RegWrite` ring event, exactly as a write that flips
    /// the bit.
    #[test]
    fn writes_that_change_nothing_keep_the_books() {
        // A bare bit: false onto false, then true twice.
        let w = bprc_sim::World::builder(1).build();
        let b = w.bit_reg("b", false);
        let bw = b.clone();
        let body: ProcBody<()> = Box::new(move |ctx| {
            for v in [false, true, true] {
                bw.write(ctx, v)?;
            }
            Ok(())
        });
        assert_eq!(
            books(w, body),
            (vec![b.id(); 3], vec![b.id(); 3], [3, 0, 0])
        );
        assert!(b.peek());

        // Both arrows: lower a lowered arrow, raise twice, lower twice.
        fn arrow_run<A: ArrowCell>(w: bprc_sim::World, a: A) -> (Vec<usize>, Vec<usize>, [u64; 3]) {
            let aw = a.clone();
            let body: ProcBody<()> = Box::new(move |ctx| {
                aw.lower(ctx)?;
                aw.raise(ctx)?;
                aw.raise(ctx)?;
                aw.lower(ctx)?;
                aw.lower(ctx)
            });
            let got = books(w, body);
            assert!(!a.peek_raised());
            got
        }
        let w = bprc_sim::World::builder(1).build();
        let a = DirectArrow::new(&w, "A");
        let id = a.cell.id();
        assert_eq!(arrow_run(w, a), (vec![id; 5], vec![id; 5], [5, 2, 3]));

        // The handshake writes `ack` on a lower and `flag` on a raise; the
        // same process owns both here.
        let w = bprc_sim::World::builder(1).build();
        let a = HandshakeArrow::new(&w, "A", 0, 0);
        let (flag, ack) = (a.flag.id(), a.ack.id());
        let want = vec![ack, flag, flag, ack, ack];
        assert_eq!(arrow_run(w, a), (want.clone(), want, [5, 2, 3]));
    }

    #[test]
    fn handshake_absorption_is_possible() {
        // Demonstrates the documented non-atomicity: a raise overlapping a
        // lower can be absorbed. Schedule: writer reads ack; scanner lowers
        // fully; writer writes flag := !ack(old). Bits end equal => lowered.
        let mut w = bprc_sim::World::builder(2).build();
        let a = HandshakeArrow::new(&w, "A", 0, 1);
        // Pre-state: raised (flag=true, ack=false).
        let a_setup = a.clone();
        a_setup.flag.poke(true);
        assert!(a.peek_raised());
        let a_w = a.clone();
        let a_s = a.clone();
        let bodies: Vec<ProcBody<bool>> = vec![
            Box::new(move |ctx| {
                a_w.raise(ctx)?;
                Ok(true)
            }),
            Box::new(move |ctx| {
                a_s.lower(ctx)?;
                a_s.is_raised(ctx)
            }),
        ];
        // writer raise = [read ack, write flag]; scanner lower = [read flag,
        // write ack]. Interleave: w.read_ack(false), s.read_flag(true),
        // s.write_ack(true), w.write_flag(!false=true) -> flag=true, ack=true
        // -> lowered: the raise was absorbed.
        let order = [0usize, 1, 1, 0, 1, 1];
        let mut i = 0;
        let strategy = FnStrategy::new(move |view: &bprc_sim::ScheduleView<'_>| {
            let pick = if i < order.len() && view.runnable.contains(&order[i]) {
                order[i]
            } else {
                view.runnable[0]
            };
            i += 1;
            Decision::Grant(pick)
        });
        let rep = w.run(bodies, Box::new(strategy));
        assert_eq!(
            rep.outputs[1],
            Some(false),
            "this schedule absorbs the raise (documented behaviour)"
        );
        // A DirectArrow under the same schedule would have ended raised —
        // that is exactly the semantic gap the snapshot must (and does)
        // tolerate.
    }

    #[test]
    fn raise_costs_match_documentation() {
        assert_eq!(DirectArrow::raise_cost(), 1);
        assert_eq!(HandshakeArrow::raise_cost(), 2);
    }

    #[test]
    fn arrow_toggles_are_counted() {
        let mut w = bprc_sim::World::builder(1).build();
        let a = DirectArrow::new(&w, "A");
        let bodies: Vec<ProcBody<()>> = vec![Box::new(move |ctx| {
            a.raise(ctx)?;
            a.raise(ctx)?;
            a.lower(ctx)?;
            a.is_raised(ctx)?;
            Ok(())
        })];
        let rep = w.run(bodies, Box::new(RoundRobin::new()));
        let t = &rep.telemetry;
        assert_eq!(t.counter(0, Counter::ArrowRaises), 2);
        assert_eq!(t.counter(0, Counter::ArrowLowers), 1);
        assert_eq!(t.counter(0, Counter::ArrowChecks), 1);
        // Arrow ops are themselves register accesses, so they also show
        // up in the access-gate counters.
        assert_eq!(t.counter(0, Counter::RegWrites), 3);
        assert_eq!(t.counter(0, Counter::RegReads), 1);
    }
}
