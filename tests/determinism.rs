//! Replayability: every layer of the stack is deterministic given its
//! seeds — the property that makes adversarial bug hunts and the recorded
//! experiment tables reproducible.

use bprc::coin::montecarlo::{run_trials, WalkRandom};
use bprc::coin::CoinParams;
use bprc::core::bounded::{BoundedCore, ConsensusParams};
use bprc::core::threaded::ThreadedConsensus;
use bprc::registers::DirectArrow;
use bprc::sim::sched::RandomStrategy;
use bprc::sim::turn::{TurnDriver, TurnRandom};
use bprc::sim::World;

#[test]
fn turn_level_consensus_replays_exactly() {
    let run = |seed: u64| {
        let n = 4;
        let params = ConsensusParams::quick(n);
        let procs: Vec<BoundedCore> = (0..n)
            .map(|p| BoundedCore::new(params.clone(), p, p % 2 == 0, seed + p as u64))
            .collect();
        let r = TurnDriver::new(procs).run(&mut TurnRandom::new(seed), 20_000_000);
        (r.outputs.clone(), r.events, r.per_proc_events.clone())
    };
    assert_eq!(run(5), run(5));
    // Different seed should (almost surely) differ in event counts.
    assert_ne!(run(5).1, run(6).1);
}

#[test]
fn register_level_consensus_replays_exactly() {
    let run = |seed: u64| {
        let n = 3;
        let params = ConsensusParams::quick(n);
        let mut world = World::builder(n).seed(seed).step_limit(5_000_000).build();
        let inst =
            ThreadedConsensus::<DirectArrow>::new(&world, &params, &[true, false, true], seed);
        let rep = world.run(inst.bodies, Box::new(RandomStrategy::new(seed)));
        let ops: Vec<_> = rep.history.as_ref().unwrap().ops().collect();
        (rep.outputs.clone(), rep.steps, ops.len(), rep.handoffs)
    };
    let (first, second) = (run(9), run(9));
    assert_eq!(first, second);
    // The baton changed hands, but a re-granted process kept it.
    assert!(first.3 > 0 && first.3 < first.1, "handoffs {}", first.3);
}

/// FNV-1a over the history JSONL: a stable, dependency-free fingerprint of
/// the exact op sequence a seeded run records.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Pins the observable behaviour of fully deterministic handshake-backend
/// runs to concrete values captured before the snapshot layer was unified
/// behind `SnapshotBackend`. The refactor must be invisible here: same
/// decisions, same step counts, same recorded histories, byte for byte.
///
/// The scenarios are deliberately free of sampled randomness — scripted
/// coin flips and the round-robin scheduler — so the fingerprints do not
/// depend on any RNG implementation, only on the protocol and the snapshot
/// layer whose refactor they pin.
#[test]
fn handshake_runs_are_pinned_across_refactors() {
    use bprc::coin::flip::{Flips, ScriptedFlips};
    use bprc::core::state::ProcState;
    use bprc::core::threaded::over_scannable_memory;
    use bprc::sim::sched::RoundRobin;

    let run = |inputs: &[bool], script: &[bool]| {
        let n = inputs.len();
        let params = ConsensusParams::quick(n);
        let mut world = World::builder(n).step_limit(5_000_000).build();
        let procs: Vec<BoundedCore> = (0..n)
            .map(|pid| {
                let flips = Flips::Scripted(ScriptedFlips::new(script.to_vec()));
                BoundedCore::with_flips(params.clone(), pid, inputs[pid], flips)
            })
            .collect();
        let (_mem, bodies) = over_scannable_memory::<_, DirectArrow>(
            &world,
            procs,
            ProcState::phantom(params.n(), params.k()),
        );
        let rep = world.run(bodies, Box::new(RoundRobin::new()));
        let history = rep.history.as_ref().unwrap().to_jsonl();
        (
            rep.outputs.clone(),
            rep.steps,
            history.lines().count() as u64,
            fnv1a(history.as_bytes()),
        )
    };
    // Captured on the pre-`SnapshotBackend` tree (PR 4); any drift means the
    // refactor changed handshake-path behaviour observably.
    let cases: [(&[bool], &[bool], (Vec<Option<bool>>, u64, u64, u64)); 3] = [
        (
            &[true, true, true],
            &[true],
            (vec![Some(true); 3], 33, 45, 6497490253118686299),
        ),
        (
            &[true, false, true],
            &[true, false],
            (vec![Some(false); 3], 297, 405, 3620910588934392335),
        ),
        (
            &[false, true, false, true],
            &[false, true, true],
            (vec![Some(true); 4], 576, 720, 17117995597770475235),
        ),
    ];
    for (inputs, script, want) in &cases {
        let got = run(inputs, script);
        assert_eq!(&got, want, "inputs {inputs:?}: pinned fingerprint changed");
    }
}

#[test]
fn coin_monte_carlo_replays_exactly() {
    let p = CoinParams::new(3, 2, 1_000);
    let a = run_trials(&p, 50, 13, 1_000_000, |t| Box::new(WalkRandom::new(t)));
    let b = run_trials(&p, 50, 13, 1_000_000, |t| Box::new(WalkRandom::new(t)));
    assert_eq!(a.disagreements, b.disagreements);
    assert_eq!(a.overflows, b.overflows);
    assert_eq!(a.mean_walk_steps, b.mean_walk_steps);
    assert_eq!(a.mean_events, b.mean_events);
}
