//! Property tests for the multivalued reduction and the multi-shot log:
//! agreement + validity over arbitrary value sets, widths and seeds.
//!
//! Cases are seeded loops over `stream_rng(SEED, case)`; every assertion
//! names the case, so a failure replays with that one stream.

use bprc_core::bounded::ConsensusParams;
use bprc_core::multishot::{LogCore, StaticProposals};
use bprc_core::multivalued::MvCore;
use bprc_sim::rng::stream_rng;
use bprc_sim::sched::RandomStrategy;
use bprc_sim::turn::TurnDriver;
use rand::Rng;

const SEED: u64 = 48;
const CASES: u64 = 48;

#[test]
fn multivalued_agreement_validity() {
    for case in 0..CASES {
        let mut rng = stream_rng(SEED, case);
        let n = rng.gen_range(1usize..=4);
        let width = rng.gen_range(1u32..=10);
        let mask = (1u64 << width) - 1;
        let values: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() & mask).collect();
        let seed = rng.gen_range(0u64..100_000);
        let at = format!("seed {SEED} case {case}: values {values:?} width {width} seed {seed}");

        let params = ConsensusParams::quick(n);
        let procs: Vec<MvCore> = (0..n)
            .map(|p| MvCore::new(params.clone(), p, values[p], width, seed ^ (p as u64) << 40))
            .collect();
        let r = TurnDriver::new(procs).run(&mut RandomStrategy::new(seed), 50_000_000);
        assert!(r.completed, "{at}: did not terminate");
        let d = r.distinct_outputs();
        assert_eq!(d.len(), 1, "{at}: agreement violated");
        assert!(values.contains(d[0]), "{at}: decided {} not proposed", d[0]);
    }
}

#[test]
fn multishot_log_agreement_per_slot() {
    for case in 0..CASES {
        let mut rng = stream_rng(SEED, case);
        let n = rng.gen_range(2usize..=3);
        let slots = rng.gen_range(1usize..=3);
        let seed = rng.gen_range(0u64..50_000);
        let at = format!("seed {SEED} case {case}: n {n} slots {slots} seed {seed}");

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
        let r = TurnDriver::new(procs).run(&mut RandomStrategy::new(seed), 100_000_000);
        assert!(r.completed, "{at}: did not terminate");
        let logs: Vec<&Vec<u64>> = r.outputs.iter().flatten().collect();
        assert_eq!(logs.len(), n, "{at}");
        for other in &logs[1..] {
            assert_eq!(logs[0], *other, "{at}: logs diverged");
        }
        for (slot, &v) in logs[0].iter().enumerate() {
            let proposed = (0..n).any(|p| proposals[p][slot] == v);
            assert!(proposed, "{at}: slot {slot} value {v} not proposed");
        }
    }
}
