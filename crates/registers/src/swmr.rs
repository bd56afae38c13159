//! Single-writer multi-reader registers.

use bprc_sim::{Ctx, FastPod, Halted, Reg, RegName, World};

/// A single-writer multi-reader atomic register.
///
/// Wraps a [`Reg`] and enforces (by assertion) that only the designated
/// writer process ever writes it — the SWMR discipline the paper's model
/// assumes for the value registers `V_i`.
///
/// # Example
///
/// ```
/// use bprc_sim::{World, Mode};
/// use bprc_sim::sched::RoundRobin;
/// use bprc_registers::Swmr;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut world = World::builder(2).build();
/// let v = Swmr::new(&world, "V_0", 0, 0u32);
/// let (v0, v1) = (v.clone(), v.clone());
/// let report = world.run::<u32>(
///     vec![
///         Box::new(move |ctx| {
///             v0.write(ctx, 7)?;
///             Ok(0)
///         }),
///         Box::new(move |ctx| v1.read(ctx)),
///     ],
///     Box::new(RoundRobin::new()),
/// );
/// assert_eq!(report.outputs[1], Some(7));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Swmr<T> {
    reg: Reg<T>,
    writer: usize,
}

impl<T> Clone for Swmr<T> {
    fn clone(&self) -> Self {
        Swmr {
            reg: self.reg.clone(),
            writer: self.writer,
        }
    }
}

impl<T: Clone + Send + Sync + 'static> Swmr<T> {
    /// Allocates a SWMR register owned by process `writer`.
    pub fn new(world: &World, name: impl Into<RegName>, writer: usize, init: T) -> Self {
        Swmr {
            reg: world.reg(name, init),
            writer,
        }
    }

    /// The underlying register id (for history inspection).
    pub fn id(&self) -> usize {
        self.reg.id()
    }

    /// Atomically reads the register (any process).
    ///
    /// # Errors
    ///
    /// Returns [`Halted`] if the scheduler stopped this process.
    #[inline]
    pub fn read(&self, ctx: &mut Ctx) -> Result<T, Halted> {
        self.reg.read(ctx)
    }

    /// Version-token read — one scheduled step that skips `f` entirely when
    /// the register provably hasn't been written since the read that
    /// produced `cached` (see
    /// [`Reg::read_changed`](bprc_sim::Reg::read_changed)). The snapshot
    /// layer's batched collect validation rides on this.
    ///
    /// # Errors
    ///
    /// Returns [`Halted`] if the scheduler stopped this process.
    #[inline]
    pub fn read_changed(
        &self,
        ctx: &mut Ctx,
        cached: u64,
        f: impl FnOnce(&T),
    ) -> Result<u64, Halted> {
        self.reg.read_changed(ctx, cached, f)
    }

    /// The run form of [`read_changed`](Swmr::read_changed): one
    /// version-token read per item `(i, register)` with the token
    /// `tokens[i]`, `visit` judging each (see [`Reg::read_changed_run`]).
    /// In free mode the reads share one gate, in lockstep each is an
    /// ordinary one. Returns how many reads `visit` accepted: all of them,
    /// or the index of the refused one, after which the run stopped.
    ///
    /// # Errors
    ///
    /// Returns [`Halted`] if the scheduler stopped this process.
    #[inline]
    pub fn read_changed_run<'a>(
        ctx: &mut Ctx,
        regs: impl IntoIterator<Item = (usize, &'a Swmr<T>)>,
        tokens: &mut [u64],
        visit: impl FnMut(usize, Option<&T>) -> bool,
    ) -> Result<usize, Halted> {
        let regs = regs.into_iter().map(|(i, r)| (i, &r.reg));
        Reg::read_changed_run(ctx, regs, tokens, visit)
    }

    /// Atomically writes the register.
    ///
    /// # Errors
    ///
    /// Returns [`Halted`] if the scheduler stopped this process.
    ///
    /// # Panics
    ///
    /// Panics if called by a process other than the designated writer.
    #[inline]
    pub fn write(&self, ctx: &mut Ctx, value: T) -> Result<(), Halted> {
        assert_eq!(
            ctx.pid(),
            self.writer,
            "SWMR violation: process {} wrote a register owned by {}",
            ctx.pid(),
            self.writer
        );
        self.reg.write(ctx, value)
    }

    /// Like [`write`](Swmr::write), but records `tag` in the history
    /// (hidden sequence numbers for offline checkers) and hands back the
    /// value the write replaced where the backing held one (see
    /// [`Reg::write_displacing`]).
    ///
    /// # Errors
    ///
    /// Returns [`Halted`] if the scheduler stopped this process.
    ///
    /// # Panics
    ///
    /// Panics if called by a process other than the designated writer.
    #[inline]
    pub fn write_displacing(&self, ctx: &mut Ctx, value: T, tag: u64) -> Result<Option<T>, Halted> {
        assert_eq!(
            ctx.pid(),
            self.writer,
            "SWMR violation: process {} wrote a register owned by {}",
            ctx.pid(),
            self.writer
        );
        self.reg.write_displacing(ctx, value, tag)
    }

    /// Unscheduled read for checkers/adversaries (see [`Reg::peek`]).
    pub fn peek(&self) -> T {
        self.reg.peek()
    }

    /// Unscheduled write for test setup (see [`Reg::poke`]).
    pub fn poke(&self, value: T) {
        self.reg.poke(value)
    }
}

impl<T: FastPod> Swmr<T> {
    /// Like [`Swmr::new`] but allocates lane `lane` of a shared
    /// [`ValueSlab`](bprc_sim::ValueSlab) (see
    /// [`World::lane_reg`](bprc_sim::World::lane_reg)): all the slab's
    /// version words are contiguous, which is what makes the snapshot
    /// layer's batched seq validation touch ⌈n/8⌉ cache lines. The SWMR
    /// discipline is unchanged.
    pub fn new_lane(
        world: &World,
        slab: &bprc_sim::ValueSlab,
        lane: usize,
        name: impl Into<RegName>,
        writer: usize,
        init: T,
    ) -> Self {
        Swmr {
            reg: world.lane_reg(slab, lane, name, init),
            writer,
        }
    }
}

impl Swmr<bool> {
    /// Like [`Swmr::new`] for a single bit, packed into a shared
    /// chunk (see [`World::bit_reg`](bprc_sim::World::bit_reg)). The SWMR
    /// discipline is unchanged.
    pub fn new_bit(world: &World, name: impl Into<RegName>, writer: usize, init: bool) -> Self {
        Swmr {
            reg: world.bit_reg(name, init),
            writer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bprc_sim::sched::RoundRobin;
    use bprc_sim::world::ProcBody;

    #[test]
    fn reader_sees_writer_value() {
        let mut w = World::builder(2).build();
        let v = Swmr::new(&w, "v", 0, 1u8);
        let (v0, v1) = (v.clone(), v.clone());
        let bodies: Vec<ProcBody<u8>> = vec![
            Box::new(move |ctx| {
                v0.write(ctx, 9)?;
                Ok(0)
            }),
            Box::new(move |ctx| v1.read(ctx)),
        ];
        let rep = w.run(bodies, Box::new(RoundRobin::new()));
        assert_eq!(rep.outputs[1], Some(9));
    }

    #[test]
    fn wrong_writer_panics() {
        // The ownership violation panics inside the process body; the world
        // contains it, halts the offender, and reports the message.
        let mut w = World::builder(2).build();
        let v = Swmr::new(&w, "v", 0, 0u8);
        let v1 = v.clone();
        let bodies: Vec<ProcBody<()>> = vec![
            Box::new(move |_| Ok(())),
            Box::new(move |ctx| v1.write(ctx, 1)), // pid 1 writes pid 0's register
        ];
        let rep = w.run(bodies, Box::new(RoundRobin::new()));
        assert_eq!(rep.outputs[0], Some(()), "innocent process finishes");
        assert_eq!(rep.halted[1], Some(Halted::Panicked));
        let msg = rep.panics[1].as_deref().expect("panic message captured");
        assert!(
            msg.contains("SWMR violation: process 1 wrote a register owned by 0"),
            "unexpected message: {msg}"
        );
    }

    #[test]
    fn peek_and_poke() {
        let w = World::builder(1).build();
        let v = Swmr::new(&w, "v", 0, 5u32);
        assert_eq!(v.peek(), 5);
        v.poke(6);
        assert_eq!(v.peek(), 6);
    }
}
