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
//! [`entrants`] lists them, in benchmark order:
//!
//! * `bounded` — the paper's bounded-polynomial protocol
//!   ([`BoundedCore`]) over the paper's handshake memory;
//! * `ah-atomic` and `ah-regular` — Aspnes–Herlihy \[AH88\]
//!   ([`RoundCore::aspnes_herlihy`]),
//!   over atomic registers or — per the Hadzilacos–Hu–Toueg line (arXiv
//!   2006.06771) — over [`WeakMode::Regular`] registers;
//! * `abrahamson` — local coins ([`RoundCore::local_coin`]), exponential
//!   expected time;
//! * `oracle` — the atomic-shared-coin floor ([`RoundCore::oracle`]);
//! * `swap-race` — the swap-race protocol
//!   ([`crate::baselines::swap_race`]) on raw registers plus
//!   [`bprc_sim::reg::Reg::swap`].
//!
//! The first five are one generic entrant: a [`TurnProcess`] core run by
//! [`over_snapshot`]. Round progress and register width — the convergence
//! and boundedness axes — are read off the run's telemetry as the
//! [`bprc_sim::Gauge::Round`] and [`bprc_sim::Gauge::MaxRegisterBits`]
//! gauges, which [`over_snapshot`] bridges from the core's probe and the
//! swap-race bodies set directly.

use bprc_registers::DirectArrow;
use bprc_sim::rng::derive_seed;
use bprc_sim::sched::{RandomStrategy, Strategy};
use bprc_sim::turn::TurnProcess;
use bprc_sim::weakmem::{RandomFlushes, WeakMode};
use bprc_sim::world::{ProcBody, World};
use bprc_snapshot::ScannableMemory;

use crate::baselines::swap_race::swap_race_bodies;
use crate::baselines::{RoundCore, RoundState};
use crate::bounded::{BoundedCore, ConsensusParams};
use crate::state::ProcState;
use crate::threaded::over_snapshot;

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

    /// Builds one body per process in `world`. Pass them to [`World::run`]
    /// (or the explorer's run factory) exactly like any other body set;
    /// the run's telemetry carries each process's round and register-width
    /// gauges.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the world size or the world's
    /// memory model differs from [`Consensus::memory_mode`].
    fn build(&self, world: &World, inputs: &[bool], seed: u64) -> Vec<ProcBody<bool>>;
}

fn check_world<C: Consensus + ?Sized>(c: &C, world: &World, inputs: &[bool]) {
    assert_eq!(world.n(), inputs.len(), "one input per world slot");
    assert_eq!(
        world.weak_memory_mode(),
        c.memory_mode(),
        "build the world with this entrant's memory_mode()"
    );
}

/// A scan/write entrant: `core(n, pid, input, seed)` builds each process's
/// [`TurnProcess`], which [`over_snapshot`] runs over the handshake memory
/// (direct arrows) with every register initially `initial(n)`.
struct TurnEntrant<P: TurnProcess> {
    name: &'static str,
    mode: WeakMode,
    core: fn(usize, usize, bool, u64) -> P,
    initial: fn(usize) -> P::Msg,
}

impl<P> Consensus for TurnEntrant<P>
where
    P: TurnProcess<Out = bool> + Send + 'static,
    P::Msg: Clone + PartialEq + Send + Sync + 'static,
{
    fn name(&self) -> &'static str {
        self.name
    }

    fn memory_mode(&self) -> WeakMode {
        self.mode
    }

    fn build(&self, world: &World, inputs: &[bool], seed: u64) -> Vec<ProcBody<bool>> {
        check_world(self, world, inputs);
        let n = inputs.len();
        let procs: Vec<P> = (0..n)
            .map(|pid| (self.core)(n, pid, inputs[pid], seed))
            .collect();
        let initial = (self.initial)(n);
        over_snapshot::<P, ScannableMemory<P::Msg, DirectArrow>>(world, procs, initial).1
    }
}

/// Aspnes–Herlihy \[AH88\] on the memory model `mode`: over
/// [`WeakMode::Regular`], every register under the snapshot construction —
/// values, handshakes, arrows — admits stale reads at explorable flush
/// points.
fn aspnes_herlihy(name: &'static str, mode: WeakMode) -> TurnEntrant<RoundCore> {
    TurnEntrant {
        name,
        mode,
        core: |n, pid, input, seed| {
            RoundCore::aspnes_herlihy(n, pid, input, derive_seed(seed, pid as u64), 3)
        },
        initial: |_| RoundState::default(),
    }
}

/// The swap-race protocol ([`crate::baselines::swap_race`]). Runs on raw
/// registers plus [`bprc_sim::reg::Reg::swap`]: there is nothing to scan.
struct SwapEntrant;

impl SwapEntrant {
    /// Pre-allocated rounds (bounds the register file).
    const MAX_ROUNDS: usize = 64;
}

impl Consensus for SwapEntrant {
    fn name(&self) -> &'static str {
        "swap-race"
    }

    fn build(&self, world: &World, inputs: &[bool], seed: u64) -> Vec<ProcBody<bool>> {
        check_world(self, world, inputs);
        swap_race_bodies(world, inputs, seed, Self::MAX_ROUNDS)
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
        Box::new(TurnEntrant {
            name: "bounded",
            mode: WeakMode::Sc,
            core: |n, pid, input, seed| {
                let params = ConsensusParams::quick(n);
                BoundedCore::new(params, pid, input, derive_seed(seed, pid as u64))
            },
            initial: |n| ProcState::phantom(ConsensusParams::quick(n).layout()),
        }),
        Box::new(aspnes_herlihy("ah-atomic", WeakMode::Sc)),
        Box::new(aspnes_herlihy("ah-regular", WeakMode::Regular)),
        Box::new(TurnEntrant {
            name: "abrahamson",
            mode: WeakMode::Sc,
            core: |n, pid, input, seed| {
                RoundCore::local_coin(n, pid, input, derive_seed(seed, pid as u64))
            },
            initial: |_| RoundState::default(),
        }),
        Box::new(TurnEntrant {
            name: "oracle",
            mode: WeakMode::Sc,
            // The shared seed IS the oracle: identical for all.
            core: RoundCore::oracle,
            initial: |_| RoundState::default(),
        }),
        Box::new(SwapEntrant),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::swap_race::SWAP_RACE_REGISTER_BITS;
    use crate::state::Pref;
    use crate::verify::ConsensusSpec;
    use bprc_sim::world::RunReport;
    use bprc_sim::Gauge;

    fn entrant(name: &str) -> Box<dyn Consensus> {
        entrants()
            .into_iter()
            .find(|e| e.name() == name)
            .unwrap_or_else(|| panic!("no entrant named {name}"))
    }

    fn run(
        entrant: &dyn Consensus,
        inputs: &[bool],
        seed: u64,
        step_limit: u64,
    ) -> RunReport<bool> {
        let mut world = World::builder(inputs.len())
            .seed(seed)
            .step_limit(step_limit)
            .weak_memory(entrant.memory_mode())
            .build();
        let bodies = entrant.build(&world, inputs, seed);
        world.run(bodies, arena_strategy(entrant.memory_mode(), seed))
    }

    #[test]
    fn every_entrant_runs_under_the_shared_surface() {
        let inputs = [true, false, true];
        for entrant in entrants() {
            let rep = run(entrant.as_ref(), &inputs, 11, 2_000_000);
            let spec = ConsensusSpec::new(&inputs);
            assert_eq!(spec.check(&rep), None, "{}", entrant.name());
            if rep.outputs.iter().any(|o| o.is_some()) {
                let t = &rep.telemetry;
                assert!(
                    t.gauge_max_all(Gauge::Round).unwrap_or(0) >= 1,
                    "{}: a deciding run advances rounds",
                    entrant.name()
                );
                assert!(
                    t.gauge_max_all(Gauge::MaxRegisterBits).unwrap_or(0) > 0,
                    "{}: bodies must meter register width",
                    entrant.name()
                );
            }
        }
    }

    #[test]
    fn world_memory_mode_mismatch_is_rejected() {
        let world = World::builder(2).build();
        let entrant = entrant("ah-regular");
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            entrant.build(&world, &[true, false], 0)
        }));
        assert!(r.is_err(), "atomic world must be rejected for ah-regular");
    }

    #[test]
    fn metered_bits_track_ah_growth() {
        // The AH entrant's width gauge must reach at least its initial
        // width once every process decides (its strip only grows).
        let inputs = [true, false];
        let initial_bits = RoundState {
            pref: Pref::Val(true),
            round: 1,
            coins: Default::default(),
        }
        .bits();
        let rep = run(entrant("ah-atomic").as_ref(), &inputs, 3, 2_000_000);
        if rep.outputs.iter().all(|o| o.is_some()) {
            for pid in 0..inputs.len() {
                let bits = rep.telemetry.gauge(pid, Gauge::MaxRegisterBits);
                assert!(bits >= Some(initial_bits), "pid {pid}: {bits:?}");
            }
        }
    }

    /// The width gauge is the entrant's register width, per pid: the
    /// bounded protocol's static layout (73 bits at n = 2, 91 at n = 8)
    /// and the swap race's constant, however far a run gets.
    #[test]
    fn width_gauges_are_pinned_per_pid() {
        for (n, want) in [(2, 73), (8, 91)] {
            let bits = ConsensusParams::quick(n).layout().bits();
            assert_eq!(bits, want, "n = {n}");
            let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
            for (name, width) in [("bounded", bits), ("swap-race", SWAP_RACE_REGISTER_BITS)] {
                let rep = run(entrant(name).as_ref(), &inputs, 5, 20_000);
                for pid in 0..n {
                    assert_eq!(
                        rep.telemetry.gauge(pid, Gauge::MaxRegisterBits),
                        Some(width),
                        "{name} n = {n} pid {pid}"
                    );
                }
            }
        }
    }

    #[test]
    fn arena_telemetry_jsonl_carries_the_width_gauge() {
        let rep = run(entrant("bounded").as_ref(), &[true, false], 7, 2_000_000);
        let jsonl = rep.telemetry.to_jsonl();
        let proc_lines = jsonl.lines().take(2);
        for line in proc_lines {
            assert!(line.contains("\"max_register_bits\":73"), "{line}");
        }
    }
}
