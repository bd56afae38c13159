//! Running the bounded protocol over real snapshot memory.
//!
//! The same [`BoundedCore`] that drives the fast turn-based experiments is
//! wrapped here into process bodies for a [`bprc_sim::World`]: every
//! iteration performs a genuine snapshot scan followed by a genuine update.
//! This validates the full stack — protocol + strip + coin + snapshot — at
//! register granularity, in both lockstep (deterministic,
//! adversary-scheduled) and free-running (OS threads) modes.
//!
//! [`over_snapshot`] takes the [`SnapshotBackend`] as a type parameter —
//! the paper's handshake construction ([`ScannableMemory`]), or a wrapper
//! around it — and runs any [`TurnProcess`], publishing its probe's round
//! and register width as the [`Gauge::Round`] and [`Gauge::MaxRegisterBits`]
//! telemetry gauges; [`ThreadedConsensus`] is the bounded protocol's
//! instance over it.

use bprc_registers::ArrowCell;
use bprc_sim::tracing::{EventKind, Hist};
use bprc_sim::turn::{TurnProcess, TurnStep};
use bprc_sim::world::ProcBody;
use bprc_sim::{Counter, Gauge, World};
use bprc_snapshot::{ScannableMemory, SnapshotBackend, SnapshotPort};

use crate::bounded::{BoundedCore, ConsensusParams};
use crate::state::ProcState;

/// What [`over_snapshot`] returns: the backend plus one runnable body per
/// process.
pub type BackendAndBodies<B, O> = (B, Vec<ProcBody<O>>);

/// Wraps any scan/write protocol ([`TurnProcess`]) into process bodies that
/// run it over any [`SnapshotBackend`] `B`: the returned backend plus one
/// body per process. The body loop, the probe bridge into the metrics
/// plane, and the telemetry publication are identical for every backend —
/// which backend you pick changes only how the scans underneath are
/// implemented.
///
/// `initial` is the registers' initial contents (what a process that has
/// not yet written appears as).
///
/// # Panics
///
/// Panics if `procs.len()` differs from the world size.
pub fn over_snapshot<P, B>(
    world: &World,
    mut procs: Vec<P>,
    initial: P::Msg,
) -> BackendAndBodies<B, P::Out>
where
    P: TurnProcess + Send + 'static,
    P::Msg: Clone + PartialEq + Send + Sync + 'static,
    P::Out: Send + 'static,
    B: SnapshotBackend<P::Msg>,
{
    let n = procs.len();
    assert_eq!(world.n(), n, "one process per world slot");
    let memory = B::alloc(world, n, initial);
    let bodies = procs
        .drain(..)
        .enumerate()
        .map(|(pid, mut proc)| {
            let mut port = memory.port(pid);
            let first = proc.initial_msg();
            let b: ProcBody<P::Out> = Box::new(move |ctx| {
                // Bridge the protocol's probe into the flight recorder: round
                // changes become round-advance ring events (and move the
                // round gauge), new coin flips a coin-flip event; each opens
                // a `round(r)`/`coin` span on the timeline, beside the
                // `scan`/`write` spans the snapshot layer opens underneath.
                // Width changes raise the register-width high-water gauge.
                // The same probe deltas feed the latency histograms
                // (per-round duration, first-step-to-decision), stamped
                // with `Ctx::stamp`: no access has been made since the scan
                // that fed `on_scan`, so that is the reading that closed it,
                // and the bridge reads the clock only at the body's start,
                // a reading the first update then carries.
                let mut last = proc.probe();
                let body_start = ctx.stamp();
                let mut round_start = body_start;
                if let Some(r) = last.round {
                    ctx.trace_event(EventKind::RoundAdvance, r);
                    ctx.metrics().gauge_set(Gauge::Round, r);
                }
                if last.register_bits > 0 {
                    ctx.metrics()
                        .gauge_max(Gauge::MaxRegisterBits, last.register_bits);
                }
                // One view buffer for the whole run: `scan_into` refills it
                // in place, so the steady-state loop allocates nothing.
                let mut view: Vec<P::Msg> = Vec::new();
                let result = (|| {
                    port.update(ctx, first)?;
                    loop {
                        port.scan_into(ctx, &mut view)?;
                        let step = proc.on_scan(&view);
                        let now = proc.probe();
                        if now.round != last.round {
                            if let Some(r) = now.round {
                                ctx.metrics().gauge_set(Gauge::Round, r);
                                ctx.trace_event(EventKind::RoundAdvance, r);
                                let t = ctx.stamp();
                                ctx.hist_record(
                                    Hist::RoundDurationNs,
                                    t.saturating_sub(round_start),
                                );
                                round_start = t;
                            }
                        }
                        if now.coin_flips > last.coin_flips {
                            ctx.trace_event(EventKind::CoinFlip, now.coin_flips - last.coin_flips);
                        }
                        if now.register_bits != last.register_bits {
                            ctx.metrics()
                                .gauge_max(Gauge::MaxRegisterBits, now.register_bits);
                        }
                        last = now;
                        match step {
                            TurnStep::Write(s) => port.update(ctx, s)?,
                            TurnStep::Decide(v) => {
                                ctx.count(Counter::Decisions, 1);
                                ctx.trace_event(EventKind::Decide, 0);
                                let t = ctx.stamp();
                                ctx.hist_record(
                                    Hist::DecisionLatencyNs,
                                    t.saturating_sub(body_start),
                                );
                                return Ok(v);
                            }
                        }
                    }
                })();
                proc.publish_telemetry(&ctx.metrics());
                result
            });
            b
        })
        .collect();
    (memory, bodies)
}

/// A full-stack consensus instance over the paper's handshake memory with
/// arrow implementation `A`: the memory plus one body per process.
pub struct ThreadedConsensus<A: ArrowCell> {
    /// The underlying snapshot memory (for checker metadata).
    pub memory: ScannableMemory<ProcState, A>,
    /// One body per process; pass to [`World::run`].
    pub bodies: Vec<ProcBody<bool>>,
}

impl<A: ArrowCell> ThreadedConsensus<A> {
    /// Builds the instance in `world` with the given inputs.
    ///
    /// `seed` derives each process's local coin flips.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != params.n()` or the world size differs.
    pub fn new(world: &World, params: &ConsensusParams, inputs: &[bool], seed: u64) -> Self {
        assert_eq!(inputs.len(), params.n(), "one input per process");
        let procs: Vec<BoundedCore> = (0..params.n())
            .map(|pid| {
                BoundedCore::new(
                    params.clone(),
                    pid,
                    inputs[pid],
                    bprc_sim::rng::derive_seed(seed, pid as u64),
                )
            })
            .collect();
        let (memory, bodies) = over_snapshot(world, procs, ProcState::phantom(params.layout()));
        ThreadedConsensus { memory, bodies }
    }

    /// Bounds (or unbounds) the memory's per-scan retry budget —
    /// shorthand for `self.memory.set_scan_retry_budget(budget)`. With a
    /// budget, a scan starved by concurrent writers halts its process as
    /// [`bprc_sim::Halted::ScanStarved`] instead of retrying forever.
    pub fn set_scan_retry_budget(&self, budget: Option<u64>) {
        self.memory.set_scan_retry_budget(budget);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bprc_registers::{DirectArrow, HandshakeArrow};
    use bprc_sim::faults::{FaultPlan, FaultedStrategy};
    use bprc_sim::sched::RandomStrategy;
    use bprc_sim::Mode;
    use bprc_snapshot::check_history;

    #[test]
    fn lockstep_full_stack_agreement_direct_arrows() {
        for seed in 0..6 {
            let params = ConsensusParams::quick(3);
            let mut world = World::builder(3).seed(seed).step_limit(5_000_000).build();
            let inst =
                ThreadedConsensus::<DirectArrow>::new(&world, &params, &[true, false, true], seed);
            let meta = inst.memory.meta();
            let rep = world.run(inst.bodies, Box::new(RandomStrategy::new(seed)));
            let decisions: Vec<bool> = rep.outputs.iter().map(|o| o.unwrap()).collect();
            assert!(
                decisions.windows(2).all(|w| w[0] == w[1]),
                "seed {seed}: agreement violated: {decisions:?}"
            );
            // The interleaving's snapshot properties must hold too.
            let check = check_history(rep.history.as_ref().unwrap(), &meta);
            assert!(check.ok(), "seed {seed}: {:?}", check.violations);
        }
    }

    #[test]
    fn lockstep_full_stack_agreement_handshake_arrows() {
        for seed in 0..4 {
            let params = ConsensusParams::quick(2);
            let mut world = World::builder(2).seed(seed).step_limit(5_000_000).build();
            let inst =
                ThreadedConsensus::<HandshakeArrow>::new(&world, &params, &[false, true], seed);
            let rep = world.run(inst.bodies, Box::new(RandomStrategy::new(seed)));
            let decisions: Vec<bool> = rep.outputs.iter().map(|o| o.unwrap()).collect();
            assert!(decisions.windows(2).all(|w| w[0] == w[1]));
        }
    }

    #[test]
    fn validity_over_threads() {
        let params = ConsensusParams::quick(3);
        let mut world = World::builder(3)
            .mode(Mode::Free)
            .step_limit(u64::MAX)
            .build();
        let inst = ThreadedConsensus::<DirectArrow>::new(&world, &params, &[true, true, true], 5);
        let rep = world.run(inst.bodies, Box::new(RandomStrategy::new(0)));
        assert!(rep.outputs.iter().all(|o| *o == Some(true)));
    }

    #[test]
    fn multivalued_over_real_registers() {
        // The generic adapter lets the multivalued protocol run over the
        // full register-level stack too.
        use crate::multivalued::{MvCore, MvState};
        for seed in 0..3 {
            let n = 2;
            let params = ConsensusParams::quick(n);
            let values = [19u64, 7];
            let mut world = World::builder(n).seed(seed).step_limit(20_000_000).build();
            let procs: Vec<MvCore> = (0..n)
                .map(|p| MvCore::new(params.clone(), p, values[p], 8, seed * 31 + p as u64))
                .collect();
            let initial = MvState::phantom(params.layout());
            let (_mem, bodies) =
                over_snapshot::<_, ScannableMemory<_, DirectArrow>>(&world, procs, initial);
            let rep = world.run(bodies, Box::new(RandomStrategy::new(seed)));
            let decisions: Vec<u64> = rep.outputs.iter().map(|o| o.unwrap()).collect();
            assert_eq!(decisions[0], decisions[1], "seed {seed}");
            assert!(values.contains(&decisions[0]), "seed {seed}");
        }
    }

    #[test]
    fn threaded_backend_populates_telemetry() {
        let params = ConsensusParams::quick(3);
        let mut world = World::builder(3).seed(7).step_limit(5_000_000).build();
        let inst = ThreadedConsensus::<DirectArrow>::new(&world, &params, &[true, false, true], 7);
        let rep = world.run(inst.bodies, Box::new(RandomStrategy::new(7)));
        assert!(rep.outputs.iter().all(|o| o.is_some()));
        let t = &rep.telemetry;
        assert_eq!(t.total(Counter::Decisions), 3);
        assert!(t.total(Counter::Scans) >= 3);
        assert!(t.total(Counter::ScanAttempts) >= t.total(Counter::Scans));
        assert!(t.total(Counter::ScanAttempts) >= t.total(Counter::ScanRetries));
        assert!(t.total(Counter::RegReads) > 0 && t.total(Counter::RegWrites) > 0);
        assert!(t.total(Counter::RoundAdvances) >= 3);
        for pid in 0..3 {
            // Decided processes published a positive round via the gauge.
            assert!(t.gauge(pid, Gauge::Round).unwrap_or(0) >= 1, "pid {pid}");
            // The probe bridge opened at least the initial round span.
            assert!(rep.flight.count(pid, EventKind::RoundAdvance) > 0);
        }
    }

    #[test]
    fn crash_tolerance_full_stack() {
        for seed in 0..4 {
            let params = ConsensusParams::quick(3);
            let mut world = World::builder(3).seed(seed).step_limit(5_000_000).build();
            let inst =
                ThreadedConsensus::<DirectArrow>::new(&world, &params, &[true, false, false], seed);
            let plan = FaultPlan::new().crash_at(30, 0);
            let strategy = FaultedStrategy::new(RandomStrategy::new(seed), plan);
            let rep = world.run(inst.bodies, Box::new(strategy));
            let survivors: Vec<bool> = (1..3).filter_map(|p| rep.outputs[p]).collect();
            assert_eq!(survivors.len(), 2, "seed {seed}: survivors must decide");
            assert_eq!(survivors[0], survivors[1], "seed {seed}: agreement");
        }
    }

    #[test]
    fn chaos_plan_full_stack_panic_containment() {
        // Inject a panic into one process mid-run over the real register
        // stack: the panic is contained, the survivors reach agreement, and
        // the injection is visible in the recorded history.
        use bprc_sim::faults::quiet_injected_panics;
        use bprc_sim::{FaultKind, Halted};
        // Expected contained panic: keep it off stderr.
        quiet_injected_panics();
        for seed in 0..4 {
            let params = ConsensusParams::quick(3);
            let mut world = World::builder(3).seed(seed).step_limit(5_000_000).build();
            let inst =
                ThreadedConsensus::<DirectArrow>::new(&world, &params, &[true, false, true], seed);
            let plan = FaultPlan::new().panic_at(25, 1).stall(0, 60, 200);
            let strategy = FaultedStrategy::new(RandomStrategy::new(seed), plan);
            let rep = world.run(inst.bodies, Box::new(strategy));
            assert_eq!(rep.halted[1], Some(Halted::Panicked), "seed {seed}");
            let survivors: Vec<bool> = [0, 2].iter().filter_map(|&p| rep.outputs[p]).collect();
            assert_eq!(survivors.len(), 2, "seed {seed}: survivors must decide");
            assert_eq!(survivors[0], survivors[1], "seed {seed}: agreement");
            let h = rep.history.unwrap();
            assert!(
                h.faults()
                    .any(|(_, pid, k)| pid == 1 && k == FaultKind::PanicInjected),
                "seed {seed}: injection missing from history"
            );
        }
    }
}
