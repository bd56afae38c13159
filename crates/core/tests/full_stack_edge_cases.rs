//! Register-level edge cases for the full consensus stack: exhausted step
//! budgets, extreme schedulers, tiny coin bounds, and K variations — all at
//! register granularity.

use bprc_coin::CoinParams;
use bprc_core::bounded::ConsensusParams;
use bprc_core::threaded::ThreadedConsensus;
use bprc_registers::DirectArrow;
use bprc_sim::sched::{RandomStrategy, SoloBursts};
use bprc_sim::{Halted, World};

#[test]
fn step_limit_halts_gracefully_with_partial_decisions() {
    // A budget too small for anyone (or only some) to decide must produce a
    // clean StepLimit halt, never a hang or a wrong decision.
    for budget in [1u64, 7, 33, 64, 150] {
        let n = 3;
        let params = ConsensusParams::quick(n);
        let mut world = World::builder(n).step_limit(budget).build();
        let inst = ThreadedConsensus::<DirectArrow>::new(&world, &params, &[true, false, true], 1);
        let rep = world.run(inst.bodies, Box::new(RandomStrategy::new(1)));
        let mut decided_values: Vec<bool> = Vec::new();
        for (p, out) in rep.outputs.iter().enumerate() {
            match out {
                Some(v) => decided_values.push(*v),
                None => assert_eq!(
                    rep.halted[p],
                    Some(Halted::StepLimit),
                    "budget {budget}: undecided process must report StepLimit"
                ),
            }
        }
        assert!(
            decided_values.windows(2).all(|w| w[0] == w[1]),
            "budget {budget}: partial decisions disagree"
        );
    }
}

#[test]
fn solo_bursts_extreme_asynchrony_register_level() {
    // One process races far ahead at register granularity — the strip must
    // shrink correctly through real scans.
    for burst in [5u64, 50, 500] {
        let n = 3;
        let params = ConsensusParams::quick(n);
        let mut world = World::builder(n).step_limit(10_000_000).build();
        let inst =
            ThreadedConsensus::<DirectArrow>::new(&world, &params, &[false, true, false], burst);
        let rep = world.run(inst.bodies, Box::new(SoloBursts::new(burst)));
        let decisions: Vec<bool> = rep.outputs.iter().filter_map(|o| *o).collect();
        assert_eq!(decisions.len(), n, "burst {burst}: everyone decides");
        assert!(
            decisions.windows(2).all(|w| w[0] == w[1]),
            "burst {burst}: agreement violated"
        );
    }
}

#[test]
fn tiny_coin_bounds_are_safe_at_register_level() {
    // m = 1: constant overflows; b = 1: maximal disagreement probability.
    // Safety must be unconditional.
    for seed in 0..6 {
        let n = 2;
        let params = ConsensusParams::new(n, CoinParams::new(n, 1, 1));
        let mut world = World::builder(n).step_limit(5_000_000).build();
        let inst = ThreadedConsensus::<DirectArrow>::new(&world, &params, &[true, false], seed);
        let rep = world.run(inst.bodies, Box::new(RandomStrategy::new(seed)));
        let decisions: Vec<bool> = rep.outputs.iter().map(|o| o.unwrap()).collect();
        assert_eq!(decisions[0], decisions[1], "seed {seed}");
    }
}

#[test]
fn larger_k_works_at_register_level() {
    for k in [3u32, 4] {
        let n = 3;
        let params = ConsensusParams::with_k(n, k, CoinParams::new(n, 2, 10_000));
        let mut world = World::builder(n).step_limit(10_000_000).build();
        let inst =
            ThreadedConsensus::<DirectArrow>::new(&world, &params, &[true, false, true], k as u64);
        let rep = world.run(inst.bodies, Box::new(RandomStrategy::new(k as u64)));
        let decisions: Vec<bool> = rep.outputs.iter().map(|o| o.unwrap()).collect();
        assert!(
            decisions.windows(2).all(|w| w[0] == w[1]),
            "K={k}: agreement violated"
        );
    }
}

#[test]
fn n1_decides_immediately_at_register_level() {
    let params = ConsensusParams::quick(1);
    let mut world = World::builder(1).step_limit(1_000).build();
    let inst = ThreadedConsensus::<DirectArrow>::new(&world, &params, &[true], 0);
    let rep = world.run(inst.bodies, Box::new(RandomStrategy::new(0)));
    assert_eq!(rep.outputs[0], Some(true));
    // initial write (1 store, no arrows) + one scan (free for n = 1).
    assert!(
        rep.steps <= 2,
        "n=1 should be nearly free, took {}",
        rep.steps
    );
}
