//! Cross-crate integration tests through the `bprc` facade: the whole
//! paper stack, exercised end to end.

use bprc::core::bounded::{BoundedCore, ConsensusParams};
use bprc::core::multivalued::MvCore;
use bprc::core::threaded::ThreadedConsensus;
use bprc::core::virtual_rounds::check_execution;
use bprc::registers::{DirectArrow, HandshakeArrow};
use bprc::sim::sched::RandomStrategy;
use bprc::sim::turn::TurnDriver;
use bprc::sim::{Mode, World};
use bprc::snapshot::check_history;

#[test]
fn full_stack_register_level_with_snapshot_checker() {
    // Consensus over the real scannable memory, with the history fed to the
    // P1-P3 checker and the decisions checked for agreement and validity.
    for seed in 0..5 {
        let n = 3;
        let inputs = vec![seed % 2 == 0, true, false];
        let params = ConsensusParams::quick(n);
        let mut world = World::builder(n).step_limit(5_000_000).build();
        let instance = ThreadedConsensus::<DirectArrow>::new(&world, &params, &inputs, seed);
        let meta = instance.memory.meta();
        let report = world.run(instance.bodies, Box::new(RandomStrategy::new(seed)));

        let decisions: Vec<bool> = report.outputs.iter().map(|o| o.unwrap()).collect();
        assert!(decisions.windows(2).all(|w| w[0] == w[1]), "seed {seed}");
        assert!(inputs.contains(&decisions[0]), "seed {seed}: validity");

        let check = check_history(report.history.as_ref().unwrap(), &meta);
        assert!(
            check.ok(),
            "seed {seed}: snapshot violations {:?}",
            check.violations
        );
        assert!(check.scans > 0);
    }
}

#[test]
fn full_stack_handshake_arrows_free_threads() {
    // The weakest primitives (handshake bits instead of 2W2R registers)
    // under genuine OS-thread concurrency.
    for seed in 0..3 {
        let n = 3;
        let inputs = vec![true, false, true];
        let params = ConsensusParams::quick(n);
        let mut world = World::builder(n)
            .mode(Mode::Free)
            .step_limit(u64::MAX)
            .build();
        let instance = ThreadedConsensus::<HandshakeArrow>::new(&world, &params, &inputs, seed);
        let report = world.run(instance.bodies, Box::new(RandomStrategy::new(0)));
        let decisions: Vec<bool> = report.outputs.iter().map(|o| o.unwrap()).collect();
        assert!(decisions.windows(2).all(|w| w[0] == w[1]), "seed {seed}");
        assert!(inputs.contains(&decisions[0]));
    }
}

#[test]
fn turn_level_and_register_level_agree_on_semantics() {
    // The same protocol logic runs in both drivers; both must satisfy the
    // same contracts (not necessarily the same outcome: schedules differ).
    let n = 3;
    let inputs = vec![false, true, false];
    let params = ConsensusParams::quick(n);

    let procs: Vec<BoundedCore> = (0..n)
        .map(|p| BoundedCore::new(params.clone(), p, inputs[p], p as u64))
        .collect();
    let turn_report = TurnDriver::new(procs).run(&mut RandomStrategy::new(4), 5_000_000);
    assert!(turn_report.completed);
    let turn_decisions = turn_report.distinct_outputs();
    assert_eq!(turn_decisions.len(), 1);
    assert!(inputs.contains(turn_decisions[0]));

    let mut world = World::builder(n).step_limit(5_000_000).build();
    let instance = ThreadedConsensus::<DirectArrow>::new(&world, &params, &inputs, 4);
    let reg_report = world.run(instance.bodies, Box::new(RandomStrategy::new(4)));
    let reg_decisions: Vec<bool> = reg_report.outputs.iter().map(|o| o.unwrap()).collect();
    assert!(reg_decisions.windows(2).all(|w| w[0] == w[1]));
    assert!(inputs.contains(&reg_decisions[0]));
}

#[test]
fn virtual_rounds_hold_across_many_seeds() {
    for seed in 0..10 {
        let params = ConsensusParams::quick(4);
        let inputs = [true, false, false, true];
        let (report, tracker) = check_execution(
            &params,
            &inputs,
            seed,
            &mut RandomStrategy::new(seed * 3 + 1),
            20_000_000,
        );
        assert!(report.completed, "seed {seed}");
        assert!(tracker.violations().is_empty(), "seed {seed}");
    }
}

#[test]
fn multivalued_through_the_facade() {
    let values = [7_000u64, 4_242, 7_000];
    let params = ConsensusParams::quick(3);
    let procs: Vec<MvCore> = (0..3)
        .map(|p| MvCore::new(params.clone(), p, values[p], 16, p as u64))
        .collect();
    let report = TurnDriver::new(procs).run(&mut RandomStrategy::new(11), 50_000_000);
    assert!(report.completed);
    let d = report.distinct_outputs();
    assert_eq!(d.len(), 1);
    assert!(values.contains(d[0]));
}
