//! Distribution sanity for the PCT strategy (Burckhardt et al.): priority
//! assignments are fair across seeds, the d=0 degenerate case is strict
//! priority scheduling, and the strategy behaves identically over seqlock
//! cells and the locked cells they are tested against.

use bprc_sim::sched::PctStrategy;
use bprc_sim::world::{ProcBody, World};
use bprc_sim::Reg;

const N: usize = 4;
const SEEDS: u64 = 50;

/// Allocates one of the workload's registers, on the backing under test.
type Alloc = fn(&World, String) -> Reg<u64>;

/// Seqlock cells, and the locked oracle.
const BACKINGS: [(&str, Alloc); 2] = [
    ("fast_reg", |w, name| w.fast_reg(name, 0u64)),
    ("reg", |w, name| w.reg(name, 0u64)),
];

/// Each process bumps its own counter register a few times and reads a
/// shared register, so every pid has observable scheduled work.
fn bodies(w: &World, alloc: Alloc) -> Vec<ProcBody<u64>> {
    let shared = alloc(w, "shared".into());
    (0..N)
        .map(|pid| {
            let own = alloc(w, format!("c{pid}"));
            let shared = shared.clone();
            let b: ProcBody<u64> = Box::new(move |ctx| {
                let mut last = 0;
                for k in 1..=5u64 {
                    own.write(ctx, k)?;
                    last = shared.read(ctx)?;
                }
                Ok(last + pid as u64)
            });
            b
        })
        .collect()
}

/// Across 50 seeds and both backings: every pid gets scheduled
/// (takes steps and finishes), i.e. no priority assignment starves anyone
/// forever on a finite workload.
#[test]
fn every_pid_is_eventually_scheduled_across_seeds_and_backings() {
    for (backing, alloc) in BACKINGS {
        for seed in 0..SEEDS {
            let mut w = World::builder(N).build();
            let bodies = bodies(&w, alloc);
            let rep = w.run(bodies, Box::new(PctStrategy::new(seed, N, 3, 100)));
            assert_eq!(
                rep.decided_count(),
                N,
                "{backing} seed {seed}: a pid never finished"
            );
            for pid in 0..N {
                assert!(
                    rep.per_proc_steps[pid] > 0,
                    "{backing} seed {seed}: pid {pid} was never granted a step"
                );
            }
        }
    }
}

/// Initial priorities are a permutation of d+1..=d+n, and over 50 seeds the
/// top priority lands on every pid at least once — the sampler is not
/// biased toward any position.
#[test]
fn priority_assignments_are_permutations_and_unbiased() {
    let d = 3usize;
    let mut led = [false; N];
    for seed in 0..SEEDS {
        let strat = PctStrategy::new(seed, N, d, 100);
        let mut sorted = strat.priorities().to_vec();
        sorted.sort_unstable();
        let want: Vec<u64> = (1..=N as u64).map(|i| d as u64 + i).collect();
        assert_eq!(sorted, want, "seed {seed}: not a permutation of d+1..=d+n");
        let leader = (0..N).max_by_key(|&p| strat.priorities()[p]).unwrap();
        led[leader] = true;
    }
    assert!(
        led.iter().all(|&x| x),
        "over {SEEDS} seeds every pid must lead at least once: {led:?}"
    );
}

/// d = 0 means no change points: the schedule is strict priority order.
/// Every process runs to completion as one contiguous block, and the
/// blocks appear in descending initial priority.
#[test]
fn zero_change_points_degenerate_to_strict_priority_order() {
    for (backing, alloc) in BACKINGS {
        for seed in 0..SEEDS {
            let strat = PctStrategy::new(seed, N, 0, 100);
            let prios = strat.priorities().to_vec();
            let mut expect: Vec<usize> = (0..N).collect();
            expect.sort_by_key(|&p| std::cmp::Reverse(prios[p]));

            let mut w = World::builder(N).build();
            let bodies = bodies(&w, alloc);
            let rep = w.run(bodies, Box::new(strat));
            let grant_pids: Vec<usize> = rep
                .history
                .as_ref()
                .unwrap()
                .ops()
                .map(|(_, pid, _, _, _)| pid)
                .collect();

            // Contiguous blocks in expected order.
            let mut blocks: Vec<usize> = Vec::new();
            for pid in grant_pids {
                if blocks.last() != Some(&pid) {
                    blocks.push(pid);
                }
            }
            assert_eq!(
                blocks, expect,
                "{backing} seed {seed}: d=0 must serialize by priority"
            );
        }
    }
}

/// The backing is invisible to PCT: identical seeds produce identical
/// outputs, steps, and op sequences over `fast_reg` and `reg`.
#[test]
fn pct_runs_identically_on_both_backings() {
    let run = |alloc: Alloc, seed: u64| {
        let mut w = World::builder(N).build();
        let bodies = bodies(&w, alloc);
        let rep = w.run(bodies, Box::new(PctStrategy::new(seed, N, 2, 60)));
        let ops: Vec<_> = rep.history.as_ref().unwrap().ops().collect();
        (rep.outputs.clone(), rep.steps, ops)
    };
    for seed in 0..SEEDS {
        assert_eq!(
            run(BACKINGS[0].1, seed),
            run(BACKINGS[1].1, seed),
            "seed {seed}: backing changed PCT-observable behaviour"
        );
    }
}
