//! Long-running soak tests — `#[ignore]`d by default; run with
//!
//! ```text
//! cargo test --release --test soak -- --ignored
//! ```
//!
//! These push the stack far past the regular suites: thousands of
//! consensus instances, large n, deep multivalued widths, and sustained
//! register-level churn.

use bprc::core::bounded::{BoundedCore, ConsensusParams};
use bprc::core::multivalued::MvCore;
use bprc::core::threaded::ThreadedConsensus;
use bprc::registers::DirectArrow;
use bprc::sim::rng::derive_seed;
use bprc::sim::sched::RandomStrategy;
use bprc::sim::turn::{TurnBsp, TurnDriver};
use bprc::sim::World;

#[test]
#[ignore = "soak test: thousands of instances (~minutes in release)"]
fn soak_turn_level_agreement_5000_instances() {
    for seed in 0..5000u64 {
        let n = 2 + (seed % 7) as usize;
        let params = ConsensusParams::quick(n);
        let procs: Vec<BoundedCore> = (0..n)
            .map(|p| {
                BoundedCore::new(
                    params.clone(),
                    p,
                    derive_seed(seed, p as u64) & 1 == 1,
                    derive_seed(seed, 100 + p as u64),
                )
            })
            .collect();
        let r = TurnDriver::new(procs).run(&mut RandomStrategy::new(seed), 50_000_000);
        assert!(r.completed, "seed {seed}: no termination");
        assert_eq!(r.distinct_outputs().len(), 1, "seed {seed}: disagreement");
    }
}

#[test]
#[ignore = "soak test: BSP adversary across many sizes"]
fn soak_bsp_adversary_up_to_n16() {
    for n in 2..=16usize {
        for seed in 0..20u64 {
            let params = ConsensusParams::quick(n);
            let procs: Vec<BoundedCore> = (0..n)
                .map(|p| BoundedCore::new(params.clone(), p, p % 2 == 0, seed * 37 + p as u64))
                .collect();
            let r = TurnDriver::new(procs).run(&mut TurnBsp::new(), 100_000_000);
            assert!(r.completed, "n={n} seed={seed}");
            assert_eq!(r.distinct_outputs().len(), 1, "n={n} seed={seed}");
        }
    }
}

#[test]
#[ignore = "soak test: full register-level stack, many seeds"]
fn soak_register_level_200_runs() {
    for seed in 0..200u64 {
        let n = 3;
        let params = ConsensusParams::quick(n);
        let mut world = World::builder(n).step_limit(20_000_000).build();
        let inputs: Vec<bool> = (0..n).map(|i| (seed >> i) & 1 == 1).collect();
        let inst = ThreadedConsensus::<DirectArrow>::new(&world, &params, &inputs, seed);
        let rep = world.run(inst.bodies, Box::new(RandomStrategy::new(seed)));
        let decisions: Vec<bool> = rep.outputs.iter().map(|o| o.unwrap()).collect();
        assert!(
            decisions.windows(2).all(|w| w[0] == w[1]),
            "seed {seed}: {decisions:?}"
        );
        assert!(inputs.contains(&decisions[0]), "seed {seed}");
    }
}

#[test]
#[ignore = "soak test: multishot livelock regression sweep"]
fn soak_multishot_sweep() {
    use bprc::core::multishot::{LogCore, StaticProposals};
    let mut checked = 0u64;
    for n in [2usize, 3] {
        for slots in 1..=3usize {
            for seed in 0..1500u64 {
                let params = ConsensusParams::quick(n);
                let proposals: Vec<Vec<u64>> = (0..n)
                    .map(|p| {
                        (0..slots)
                            .map(|s| (p * 37 + s * 11) as u64 & 0xFF)
                            .collect()
                    })
                    .collect();
                let procs: Vec<LogCore<StaticProposals>> = (0..n)
                    .map(|p| {
                        LogCore::new(
                            params.clone(),
                            p,
                            slots,
                            8,
                            StaticProposals(proposals[p].clone()),
                            seed ^ (p as u64) << 33,
                        )
                    })
                    .collect();
                let r = TurnDriver::new(procs).run(&mut RandomStrategy::new(seed), 2_000_000);
                assert!(r.completed, "n={n} slots={slots} seed={seed}: livelock");
                assert_eq!(
                    r.distinct_outputs().len(),
                    1,
                    "n={n} slots={slots} seed={seed}: disagreement"
                );
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 2 * 3 * 1500);
}

#[test]
#[ignore = "soak test: 64-bit multivalued consensus"]
fn soak_multivalued_full_width() {
    for seed in 0..25u64 {
        let n = 3;
        let params = ConsensusParams::quick(n);
        let values = [
            derive_seed(seed, 0),
            derive_seed(seed, 1),
            derive_seed(seed, 2),
        ];
        let procs: Vec<MvCore> = (0..n)
            .map(|p| MvCore::new(params.clone(), p, values[p], 64, seed * 11 + p as u64))
            .collect();
        let r = TurnDriver::new(procs).run(&mut RandomStrategy::new(seed), 500_000_000);
        assert!(r.completed, "seed {seed}");
        let d = r.distinct_outputs();
        assert_eq!(d.len(), 1, "seed {seed}");
        assert!(values.contains(d[0]), "seed {seed}");
    }
}
