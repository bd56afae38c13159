//! The protocol arena: every consensus implementation in the workspace
//! behind one object-safe [`Consensus`] surface.
//!
//! The main bounded-polynomial stack and the [`crate::baselines`] cores
//! historically had per-protocol harnesses: the bounded protocol ran over
//! real snapshot memory ([`crate::threaded`]), the baselines only under the
//! turn driver. The arena closes that gap — every entrant builds
//! [`bprc_sim::World`] process bodies through the same trait, so the chaos
//! plane ([`bprc_sim::faults::FaultPlan`]), the systematic explorer
//! ([`bprc_sim::explore`]), the flight recorder, and the telemetry plane
//! all drive every protocol *unmodified*, and the verification gate races
//! them under identical adversaries ([`arena_strategy`]) as its `arena-*`
//! rows. The memory model an entrant runs on is the world's one
//! [`WeakMode`] knob: [`WeakMode::Sc`] for atomic registers,
//! [`WeakMode::Regular`] for regular ones.
//!
//! Entrants:
//!
//! * [`BoundedEntrant`] — the paper's bounded-polynomial protocol over a
//!   genuine snapshot backend;
//! * [`AhEntrant`] — Aspnes–Herlihy \[AH88\], over atomic registers or —
//!   per the Hadzilacos–Hu–Toueg line (arXiv 2006.06771) — over
//!   [`WeakMode::Regular`] registers;
//! * [`AbrahamsonEntrant`] — local coins, exponential expected time;
//! * [`OracleEntrant`] — the atomic-shared-coin floor;
//! * [`SwapEntrant`] — the swap-race protocol
//!   ([`crate::baselines::swap_race`]) on raw registers plus
//!   [`bprc_sim::reg::Reg::swap`].
//!
//! Each instance carries an [`ArenaProbe`]: lock-free high-water marks for
//! the register width (the paper's boundedness axis) and the round count
//! (the convergence axis), fed either by [`MeteredProc`] wrapping a
//! [`TurnProcess`] or directly by the swap-race bodies.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bprc_registers::DirectArrow;
use bprc_sim::metrics::ProcMetrics;
use bprc_sim::rng::derive_seed;
use bprc_sim::sched::{RandomStrategy, Strategy};
use bprc_sim::turn::{TurnProbe, TurnProcess, TurnStep};
use bprc_sim::weakmem::{RandomFlushes, WeakMode};
use bprc_sim::world::{ProcBody, World};
use bprc_snapshot::{ScannableMemory, WaitFreeSnapshot};

use crate::baselines::abrahamson::LcState;
use crate::baselines::aspnes_herlihy::AhState;
use crate::baselines::oracle::OracleState;
use crate::baselines::swap_race::swap_race_bodies;
use crate::baselines::{AhCore, LocalCoinCore, OracleCore};
use crate::bounded::{BoundedCore, ConsensusParams};
use crate::state::{Pref, ProcState};
use crate::threaded::over_snapshot;

/// Which snapshot construction an arena instance scans through. Entrants
/// that do not scan (the swap race) ignore it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArenaBackend {
    /// The paper's bounded handshake construction.
    Handshake,
    /// The wait-free AADGMS construction (scan starvation impossible).
    WaitFree,
}

impl ArenaBackend {
    /// Both backends, in benchmark order.
    pub const ALL: [ArenaBackend; 2] = [ArenaBackend::Handshake, ArenaBackend::WaitFree];

    /// Stable name for artifacts and logs.
    pub fn name(self) -> &'static str {
        match self {
            ArenaBackend::Handshake => "handshake",
            ArenaBackend::WaitFree => "waitfree",
        }
    }
}

/// Lock-free protocol-progress high-water marks, shared between the
/// running bodies and the harness that inspects them after the run.
#[derive(Debug, Default)]
pub struct ArenaProbe {
    max_register_bits: AtomicU64,
    max_round: AtomicU64,
}

impl ArenaProbe {
    /// Folds one observed register width into the high-water mark.
    pub fn record_bits(&self, bits: u64) {
        self.max_register_bits.fetch_max(bits, Ordering::Relaxed);
    }

    /// Folds one observed round number into the high-water mark.
    pub fn record_round(&self, round: u64) {
        self.max_round.fetch_max(round, Ordering::Relaxed);
    }

    /// Largest single-register width any process published (bits).
    pub fn max_register_bits(&self) -> u64 {
        self.max_register_bits.load(Ordering::Relaxed)
    }

    /// Highest round any process reached.
    pub fn max_round(&self) -> u64 {
        self.max_round.load(Ordering::Relaxed)
    }
}

/// A built arena instance: one body per process, plus the probe the
/// bodies feed. Pass `bodies` to [`World::run`] (or the explorer's run
/// factory) exactly like any other body set.
pub struct ArenaInstance {
    /// One runnable body per process.
    pub bodies: Vec<ProcBody<bool>>,
    /// Register-width and round high-water marks, live during the run.
    pub probe: Arc<ArenaProbe>,
}

/// One consensus protocol, buildable into a [`World`] on demand.
///
/// Object-safe on purpose: harnesses hold `Box<dyn Consensus>` rows and
/// treat the bounded protocol, the baselines, and the swap race
/// identically — the acceptance tests forbid per-protocol forks.
pub trait Consensus: Send + Sync {
    /// Stable name for artifacts, logs, and benchmark rows.
    fn name(&self) -> &'static str;

    /// The memory model this entrant expects the world to simulate:
    /// [`WeakMode::Sc`] (atomic registers) unless it says otherwise. Build
    /// the world with [`bprc_sim::world::WorldBuilder::weak_memory`] set to
    /// this.
    fn memory_mode(&self) -> WeakMode {
        WeakMode::Sc
    }

    /// Builds one body per process (plus the probe) in `world`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the world size or the world's
    /// memory model differs from [`Consensus::memory_mode`].
    fn build(
        &self,
        world: &World,
        backend: ArenaBackend,
        inputs: &[bool],
        seed: u64,
    ) -> ArenaInstance;
}

/// Wraps a [`TurnProcess`] so every published register value is measured
/// into an [`ArenaProbe`] (width via the protocol-specific `bits` closure,
/// round via the inner probe) while delegating the protocol logic — and
/// the [`TurnProcess::probe`] / [`TurnProcess::publish_telemetry`]
/// surfaces — untouched.
pub struct MeteredProc<P: TurnProcess> {
    inner: P,
    bits: Box<dyn Fn(&P::Msg) -> u64 + Send>,
    probe: Arc<ArenaProbe>,
}

impl<P: TurnProcess> MeteredProc<P> {
    /// Wraps `inner`, measuring each written message with `bits`.
    pub fn new(inner: P, bits: Box<dyn Fn(&P::Msg) -> u64 + Send>, probe: Arc<ArenaProbe>) -> Self {
        MeteredProc { inner, bits, probe }
    }

    fn note_round(&self) {
        if let Some(r) = self.inner.probe().round {
            self.probe.record_round(r);
        }
    }
}

impl<P: TurnProcess> TurnProcess for MeteredProc<P> {
    type Msg = P::Msg;
    type Out = P::Out;

    fn initial_msg(&mut self) -> P::Msg {
        let msg = self.inner.initial_msg();
        self.probe.record_bits((self.bits)(&msg));
        self.note_round();
        msg
    }

    fn on_scan(&mut self, view: &[P::Msg]) -> TurnStep<P::Msg, P::Out> {
        let step = self.inner.on_scan(view);
        if let TurnStep::Write(msg) = &step {
            self.probe.record_bits((self.bits)(msg));
        }
        self.note_round();
        step
    }

    fn probe(&self) -> TurnProbe {
        self.inner.probe()
    }

    fn publish_telemetry(&self, m: &ProcMetrics<'_>) {
        self.inner.publish_telemetry(m);
    }
}

/// Monomorphizes [`over_snapshot`] on the chosen backend and keeps only
/// the bodies (ports hold the memory alive on their own).
fn build_over<P>(
    world: &World,
    procs: Vec<P>,
    initial: P::Msg,
    backend: ArenaBackend,
) -> Vec<ProcBody<P::Out>>
where
    P: TurnProcess + Send + 'static,
    P::Msg: Clone + PartialEq + Send + Sync + 'static,
    P::Out: Send + 'static,
{
    match backend {
        ArenaBackend::Handshake => {
            over_snapshot::<P, ScannableMemory<P::Msg, DirectArrow>>(world, procs, initial).1
        }
        ArenaBackend::WaitFree => {
            over_snapshot::<P, WaitFreeSnapshot<P::Msg>>(world, procs, initial).1
        }
    }
}

fn check_world<C: Consensus + ?Sized>(c: &C, world: &World, inputs: &[bool]) {
    assert_eq!(world.n(), inputs.len(), "one input per world slot");
    assert_eq!(
        world.weak_memory_mode(),
        c.memory_mode(),
        "build the world with this entrant's memory_mode()"
    );
}

/// Bits a `pref + round` register holds: 2 for the preference (value or
/// ⊥), plus the round counter's current width.
fn pref_round_bits(round: u64) -> u64 {
    2 + (65 - round.leading_zeros() as u64)
}

/// The paper's bounded-polynomial protocol over a real snapshot backend.
pub struct BoundedEntrant;

impl Consensus for BoundedEntrant {
    fn name(&self) -> &'static str {
        "bounded"
    }

    fn build(
        &self,
        world: &World,
        backend: ArenaBackend,
        inputs: &[bool],
        seed: u64,
    ) -> ArenaInstance {
        check_world(self, world, inputs);
        let n = inputs.len();
        let params = ConsensusParams::quick(n);
        let probe = Arc::new(ArenaProbe::default());
        let procs: Vec<MeteredProc<BoundedCore>> = (0..n)
            .map(|pid| {
                MeteredProc::new(
                    BoundedCore::new(
                        params.clone(),
                        pid,
                        inputs[pid],
                        derive_seed(seed, pid as u64),
                    ),
                    Box::new(ProcState::register_bits),
                    Arc::clone(&probe),
                )
            })
            .collect();
        let initial = ProcState::phantom(params.layout());
        let bodies = build_over(world, procs, initial, backend);
        ArenaInstance { bodies, probe }
    }
}

/// Aspnes–Herlihy \[AH88\] over a snapshot backend — atomic registers, or
/// regular ones per the Hadzilacos–Hu–Toueg line (arXiv 2006.06771).
pub struct AhEntrant {
    regular: bool,
}

impl AhEntrant {
    /// AH over atomic registers (the classical setting).
    pub fn atomic() -> Self {
        AhEntrant { regular: false }
    }

    /// AH over regular registers: same cores, but the world must simulate
    /// [`WeakMode::Regular`], so every register under the snapshot
    /// construction — values, handshakes, arrows — admits stale reads at
    /// explorable flush points.
    pub fn regular() -> Self {
        AhEntrant { regular: true }
    }
}

impl Consensus for AhEntrant {
    fn name(&self) -> &'static str {
        if self.regular {
            "ah-regular"
        } else {
            "ah-atomic"
        }
    }

    fn memory_mode(&self) -> WeakMode {
        if self.regular {
            WeakMode::Regular
        } else {
            WeakMode::Sc
        }
    }

    fn build(
        &self,
        world: &World,
        backend: ArenaBackend,
        inputs: &[bool],
        seed: u64,
    ) -> ArenaInstance {
        check_world(self, world, inputs);
        let n = inputs.len();
        let probe = Arc::new(ArenaProbe::default());
        let procs: Vec<MeteredProc<AhCore>> = (0..n)
            .map(|pid| {
                MeteredProc::new(
                    AhCore::new(n, pid, inputs[pid], derive_seed(seed, pid as u64), 3),
                    Box::new(|s: &AhState| s.bits()),
                    Arc::clone(&probe),
                )
            })
            .collect();
        let initial = AhState {
            pref: Pref::Bottom,
            round: 0,
            coins: Default::default(),
        };
        let bodies = build_over(world, procs, initial, backend);
        ArenaInstance { bodies, probe }
    }
}

/// Abrahamson \[A88\]: independent local coins, exponential expected time.
pub struct AbrahamsonEntrant;

impl Consensus for AbrahamsonEntrant {
    fn name(&self) -> &'static str {
        "abrahamson"
    }

    fn build(
        &self,
        world: &World,
        backend: ArenaBackend,
        inputs: &[bool],
        seed: u64,
    ) -> ArenaInstance {
        check_world(self, world, inputs);
        let n = inputs.len();
        let probe = Arc::new(ArenaProbe::default());
        let procs: Vec<MeteredProc<LocalCoinCore>> = (0..n)
            .map(|pid| {
                MeteredProc::new(
                    LocalCoinCore::new(n, pid, inputs[pid], derive_seed(seed, pid as u64)),
                    Box::new(|s: &LcState| pref_round_bits(s.round)),
                    Arc::clone(&probe),
                )
            })
            .collect();
        let initial = LcState {
            pref: Pref::Bottom,
            round: 0,
        };
        let bodies = build_over(world, procs, initial, backend);
        ArenaInstance { bodies, probe }
    }
}

/// The \[CIL87\]-style perfect-shared-coin oracle — the convergence floor.
pub struct OracleEntrant;

impl Consensus for OracleEntrant {
    fn name(&self) -> &'static str {
        "oracle"
    }

    fn build(
        &self,
        world: &World,
        backend: ArenaBackend,
        inputs: &[bool],
        seed: u64,
    ) -> ArenaInstance {
        check_world(self, world, inputs);
        let n = inputs.len();
        let probe = Arc::new(ArenaProbe::default());
        let procs: Vec<MeteredProc<OracleCore>> = (0..n)
            .map(|pid| {
                MeteredProc::new(
                    // The shared seed IS the oracle: identical for all.
                    OracleCore::new(n, pid, inputs[pid], seed),
                    Box::new(|s: &OracleState| pref_round_bits(s.round)),
                    Arc::clone(&probe),
                )
            })
            .collect();
        let initial = OracleState {
            pref: Pref::Bottom,
            round: 0,
        };
        let bodies = build_over(world, procs, initial, backend);
        ArenaInstance { bodies, probe }
    }
}

/// The swap-race protocol ([`crate::baselines::swap_race`]). Runs on raw
/// registers plus [`bprc_sim::reg::Reg::swap`]; the snapshot backend
/// parameter is ignored (there is nothing to scan).
pub struct SwapEntrant {
    /// Pre-allocated rounds (bounds the register file).
    pub max_rounds: usize,
}

impl Default for SwapEntrant {
    fn default() -> Self {
        SwapEntrant { max_rounds: 64 }
    }
}

impl Consensus for SwapEntrant {
    fn name(&self) -> &'static str {
        "swap-race"
    }

    fn build(
        &self,
        world: &World,
        _backend: ArenaBackend,
        inputs: &[bool],
        seed: u64,
    ) -> ArenaInstance {
        check_world(self, world, inputs);
        let probe = Arc::new(ArenaProbe::default());
        let bodies = swap_race_bodies(world, inputs, seed, self.max_rounds, Arc::clone(&probe));
        ArenaInstance { bodies, probe }
    }
}

/// The arena's seeded adversary for a memory model: uniform random grants
/// and — when the model buffers writes — uniform random flush injections
/// ([`RandomFlushes`]).
///
/// The flush fairness is part of the *mode*, not of any protocol: a
/// buffered world whose adversary never flushes degenerates into a total
/// partition in which no write ever lands and no consensus protocol (not
/// even over atomic registers) could stay live or safe. Regular registers
/// still guarantee that a *completed* write becomes visible; schedules
/// that withhold flushes forever model an adversary even Lamport's
/// definition rules out. Every entrant with the same
/// [`Consensus::memory_mode`] therefore gets the identical adversary — no
/// per-protocol forks.
pub fn arena_strategy(mode: WeakMode, seed: u64) -> Box<dyn Strategy> {
    match mode {
        WeakMode::Sc => Box::new(RandomStrategy::new(seed)),
        _ => Box::new(RandomFlushes::new(
            RandomStrategy::new(seed),
            derive_seed(seed, u64::from(b'F')),
        )),
    }
}

/// Every arena entrant, in benchmark order. The empirical successor race
/// and the shared-trait acceptance tests both iterate exactly this list.
pub fn entrants() -> Vec<Box<dyn Consensus>> {
    vec![
        Box::new(BoundedEntrant),
        Box::new(AhEntrant::atomic()),
        Box::new(AhEntrant::regular()),
        Box::new(AbrahamsonEntrant),
        Box::new(OracleEntrant),
        Box::new(SwapEntrant::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::ConsensusSpec;
    use bprc_sim::World;

    #[test]
    fn every_entrant_runs_under_the_shared_surface() {
        let inputs = [true, false, true];
        for entrant in entrants() {
            for backend in ArenaBackend::ALL {
                let mut world = World::builder(3)
                    .seed(11)
                    .step_limit(2_000_000)
                    .weak_memory(entrant.memory_mode())
                    .build();
                let inst = entrant.build(&world, backend, &inputs, 11);
                let rep = world.run(inst.bodies, arena_strategy(entrant.memory_mode(), 11));
                let spec = ConsensusSpec::new(&inputs);
                assert_eq!(
                    spec.check(&rep),
                    None,
                    "{} over {}",
                    entrant.name(),
                    backend.name()
                );
                if rep.outputs.iter().any(|o| o.is_some()) {
                    assert!(
                        inst.probe.max_round() >= 1,
                        "{}: a deciding run advances rounds",
                        entrant.name()
                    );
                    assert!(
                        inst.probe.max_register_bits() > 0,
                        "{}: bodies must meter register width",
                        entrant.name()
                    );
                }
            }
        }
    }

    #[test]
    fn world_memory_mode_mismatch_is_rejected() {
        let world = World::builder(2).build();
        let entrant = AhEntrant::regular();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            entrant.build(&world, ArenaBackend::Handshake, &[true, false], 0)
        }));
        assert!(r.is_err(), "atomic world must be rejected for ah-regular");
    }

    #[test]
    fn metered_bits_track_ah_growth() {
        // The AH entrant's probe must observe register growth (the
        // unbounded strip), while the bounded entrant's stays flat at its
        // static width.
        let inputs = [true, false];
        let mut world = World::builder(2).seed(3).step_limit(2_000_000).build();
        let inst = AhEntrant::atomic().build(&world, ArenaBackend::Handshake, &inputs, 3);
        let initial_bits = AhState {
            pref: Pref::Val(true),
            round: 1,
            coins: Default::default(),
        }
        .bits();
        let rep = world.run(inst.bodies, arena_strategy(WeakMode::Sc, 3));
        if rep.outputs.iter().all(|o| o.is_some()) {
            assert!(inst.probe.max_register_bits() >= initial_bits);
        }
    }
}
