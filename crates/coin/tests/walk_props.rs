//! Property tests of the coin's Monte-Carlo walk simulator: bounded
//! counters under arbitrary adversarial scripts, determinism, consistency
//! of decisions with the decision rules, and event-for-event agreement with
//! the register-level coin it stands in for.
//!
//! Cases are seeded loops over `stream_rng(SEED, case)`; every assertion
//! names the case, so a failure replays with that one stream.

use bprc_coin::montecarlo::{run_walk, Walk, WalkView};
use bprc_coin::shared::SharedCoin;
use bprc_coin::value::CoinValue;
use bprc_coin::{CoinParams, Flips};
use bprc_sim::rng::{derive_seed, stream_rng};
use bprc_sim::sched::{Decision, RandomStrategy, RoundRobin};
use bprc_sim::world::ProcBody;
use bprc_sim::{Counter, Level, Strategy, World};
use rand::Rng;

const SEED: u64 = 128;
const CASES: u64 = 128;

/// Replays a script of process choices (mod the runnable set), asserting the
/// counter bound on every view it is shown.
struct ScriptedAdversary {
    script: Vec<usize>,
    at: usize,
    cap: i64,
}

impl Strategy<Walk> for ScriptedAdversary {
    fn decide(&mut self, view: &WalkView<'_>) -> Decision {
        for &c in view.counters {
            assert!(
                c.abs() <= self.cap,
                "counter {c} escaped ±(m+1) = ±{}",
                self.cap
            );
        }
        let pick = self.script.get(self.at).copied().unwrap_or(0);
        self.at += 1;
        Decision::Grant(view.runnable[pick % view.runnable.len()])
    }
}

/// Counters never escape ±(m+1) under any schedule or flip sequence,
/// and with a generous budget every process decides.
#[test]
fn counters_bounded_under_arbitrary_schedules() {
    for case in 0..CASES {
        let mut rng = stream_rng(SEED, case);
        let n = rng.gen_range(1usize..=5);
        let b = rng.gen_range(1u32..=3);
        let m = rng.gen_range(1i64..=6);
        let len = rng.gen_range(0..300);
        let schedule: Vec<usize> = (0..len).map(|_| rng.gen_range(0..8)).collect();
        let len = rng.gen_range(1..64);
        let flip_bits: Vec<bool> = (0..len).map(|_| rng.gen()).collect();
        let at = format!("seed {SEED} case {case}: n {n} b {b} m {m}");

        let params = CoinParams::new(n, b, m);
        let flips: Vec<Flips> = (0..n)
            .map(|p| {
                // Rotate the script per process for variety.
                let mut f = flip_bits.clone();
                f.rotate_left(p % flip_bits.len());
                Flips::scripted(f)
            })
            .collect();
        let mut adversary = ScriptedAdversary {
            script: schedule,
            at: 0,
            cap: params.counter_cap(),
        };
        let out = run_walk(&params, flips, &mut adversary, 1_000_000);
        // With a scripted flip source that repeats its last element, the
        // walk eventually drifts monotonically: everyone decides, heads or
        // tails, never undecided.
        assert!(
            out.decisions
                .iter()
                .all(|d| matches!(d, Some(CoinValue::Heads) | Some(CoinValue::Tails))),
            "{at}: walk failed to decide: {:?}",
            out.decisions
        );
    }
}

/// Monotone flip scripts decide the matching side (barring overflow,
/// which forces heads).
#[test]
fn monotone_flips_decide_matching_side() {
    for case in 0..CASES {
        let mut rng = stream_rng(SEED, case);
        let n = rng.gen_range(1usize..=4);
        let b = rng.gen_range(1u32..=3);
        let heads: bool = rng.gen();
        let seed = rng.gen_range(0u64..1000);
        let at = format!("seed {SEED} case {case}: n {n} b {b} heads {heads} seed {seed}");

        let params = CoinParams::new(n, b, 1_000);
        let flips = vec![Flips::scripted(vec![heads]); n];
        let out = run_walk(&params, flips, &mut RandomStrategy::new(seed), 1_000_000);
        let want = if heads {
            CoinValue::Heads
        } else {
            CoinValue::Tails
        };
        assert!(
            out.decisions.iter().all(|d| *d == Some(want)),
            "{at}: decided {:?}",
            out.decisions
        );
        assert!(!out.disagreed, "{at}");
    }
}

/// The simulator is a pure function of (params, flips, adversary).
#[test]
fn run_walk_is_deterministic() {
    for case in 0..CASES {
        let mut rng = stream_rng(SEED, case);
        let n = rng.gen_range(1usize..=4);
        let seed = rng.gen_range(0u64..500);
        let at = format!("seed {SEED} case {case}: n {n} seed {seed}");

        let params = CoinParams::new(n, 2, 100);
        let mk = || (0..n).map(|p| Flips::fair(seed + p as u64)).collect();
        let a = run_walk(&params, mk(), &mut RandomStrategy::new(seed), 1_000_000);
        let b = run_walk(&params, mk(), &mut RandomStrategy::new(seed), 1_000_000);
        assert_eq!(a.decisions, b.decisions, "{at}");
        assert_eq!(a.events, b.events, "{at}");
        assert_eq!(a.walk_steps, b.walk_steps, "{at}");
    }
}

/// `run_walk` is the fast executor for [`SharedCoin`]: under the same
/// scheduling policy and the same local flips, the simulator and the
/// coin over lockstep registers reach the same decisions with the same walk
/// steps and the same number of events — the own-overflow check is local
/// in both. One policy value type drives both executors.
#[test]
fn run_walk_matches_the_shared_coin_over_registers() {
    const LIMIT: u64 = 10_000_000;
    fn policy<L: Level>(round_robin: bool, seed: u64) -> Box<dyn Strategy<L>> {
        if round_robin {
            Box::new(RoundRobin::new())
        } else {
            Box::new(RandomStrategy::new(seed))
        }
    }
    for n in 2..=4 {
        for b in [1, 2] {
            for m in [1, 4, 16, 1_000_000] {
                let params = CoinParams::new(n, b, m);
                for seed in 0..10 {
                    for round_robin in [false, true] {
                        let at = format!("n {n} b {b} m {m} seed {seed} round-robin {round_robin}");
                        let flips = |p: usize| Flips::fair(derive_seed(seed, p as u64));
                        let mut walk_adv = policy::<Walk>(round_robin, seed);
                        let strategy = policy(round_robin, seed);
                        let sources = (0..n).map(flips).collect();
                        let walk = run_walk(&params, sources, walk_adv.as_mut(), LIMIT);

                        let mut world = World::builder(n)
                            .step_limit(LIMIT)
                            .record_history(false)
                            .build();
                        let coin = SharedCoin::new(&world, params);
                        let bodies: Vec<ProcBody<CoinValue>> = (0..n)
                            .map(|p| {
                                let (mut port, mut flips) = (coin.port(p), flips(p));
                                let body: ProcBody<CoinValue> =
                                    Box::new(move |ctx| port.flip(ctx, &mut flips));
                                body
                            })
                            .collect();
                        let rep = world.run(bodies, strategy);

                        assert!(walk.decisions.iter().all(Option::is_some), "{at}");
                        assert_eq!(walk.decisions, rep.outputs, "{at}");
                        assert_eq!(
                            walk.walk_steps,
                            rep.telemetry.total(Counter::CoinFlips),
                            "{at}"
                        );
                        assert_eq!(walk.events, rep.steps, "{at}");
                    }
                }
            }
        }
    }
}
