//! Property tests over the whole stack: random sizes, inputs, seeds and
//! play sequences — plus explorer-driven properties that quantify over
//! *schedules* instead of seeds.
//!
//! Cases are seeded loops over `stream_rng(SEED, case)`; every assertion
//! names the case, so a failure replays with that one stream.

use bprc::core::bounded::{BoundedCore, ConsensusParams};
use bprc::registers::DirectArrow;
use bprc::sim::explore::{explore, run_trace, Counterexample, ExploreConfig, Independence};
use bprc::sim::rng::stream_rng;
use bprc::sim::sched::RandomStrategy;
use bprc::sim::turn::TurnDriver;
use bprc::sim::world::{ProcBody, World};
use bprc::sim::Decision;
use bprc::snapshot::{check_history, ScannableMemory};
use bprc::strip::{DistanceGraph, EdgeCounters, ShrunkenGame};
use rand::Rng;

const SEED: u64 = 41;
/// Cheap algebraic properties.
const CASES: u64 = 64;
/// Exploration-backed cases sweep a whole schedule space each, so run
/// fewer of them.
const EXPLORE_CASES: u64 = 16;

/// Agreement + validity of the bounded protocol for arbitrary inputs,
/// sizes and scheduler seeds.
#[test]
fn consensus_agreement_and_validity() {
    for case in 0..CASES {
        let mut rng = stream_rng(SEED, case);
        let n = rng.gen_range(1usize..=5);
        let input_bits = rng.gen_range(0u32..32);
        let seed = rng.gen_range(0u64..1_000_000);
        let at = format!("seed {SEED} case {case}: n {n} inputs {input_bits:#b} seed {seed}");

        let inputs: Vec<bool> = (0..n).map(|i| (input_bits >> i) & 1 == 1).collect();
        let params = ConsensusParams::quick(n);
        let procs: Vec<BoundedCore> = (0..n)
            .map(|p| BoundedCore::new(params.clone(), p, inputs[p], seed ^ (p as u64) << 32))
            .collect();
        let report = TurnDriver::new(procs).run(&mut RandomStrategy::new(seed), 10_000_000);
        assert!(report.completed, "{at}: did not terminate within budget");
        let distinct = report.distinct_outputs();
        assert_eq!(distinct.len(), 1, "{at}: agreement violated");
        assert!(inputs.contains(distinct[0]), "{at}: validity violated");
    }
}

/// Claim 4.1 over arbitrary play sequences, for the graph and for the
/// cyclic-counter encoding simultaneously.
#[test]
fn strip_tracks_game() {
    for case in 0..CASES {
        let mut rng = stream_rng(SEED, case);
        let n = rng.gen_range(1usize..=6);
        let k = rng.gen_range(1u32..=4);
        let len = rng.gen_range(0..200);
        let plays: Vec<usize> = (0..len).map(|_| rng.gen_range(0..6)).collect();
        let at = format!("seed {SEED} case {case}: n {n} k {k}");

        let mut game = ShrunkenGame::new(n, k);
        let mut graph = DistanceGraph::from_game(&game);
        let mut counters = EdgeCounters::new(n, k);
        for &p in &plays {
            let i = p % n;
            game.move_token(i);
            graph.inc(i);
            counters.inc_graph(i);
        }
        let truth = DistanceGraph::from_game(&game);
        assert_eq!(&graph, &truth, "{at}: graph inc diverged");
        assert_eq!(
            &counters.make_graph(),
            &truth,
            "{at}: counter decode diverged"
        );
        assert!(truth.validate().is_ok(), "{at}");
        // Counters stay in their cyclic range forever.
        for i in 0..n {
            for j in 0..n {
                assert!(
                    counters.counter(i, j) < counters.modulus(),
                    "{at}: ({i}, {j})"
                );
            }
        }
    }
}

/// The coin's decision rules: own overflow always wins, and barrier
/// crossings decide the matching side.
#[test]
fn coin_value_rules() {
    use bprc::coin::value::{coin_value, CoinValue};
    use bprc::coin::CoinParams;
    for case in 0..CASES {
        let mut rng = stream_rng(SEED, case);
        let own = rng.gen_range(-2000i64..2000);
        let len = rng.gen_range(1..8);
        let others: Vec<i64> = (0..len).map(|_| rng.gen_range(-2000..2000)).collect();
        let b = rng.gen_range(1u32..6);
        let m = rng.gen_range(1i64..1500);
        let at = format!("seed {SEED} case {case}: own {own} others {others:?} b {b} m {m}");

        let n = others.len() + 1;
        let params = CoinParams::new(n, b, m);
        let own = params.clamp_counter(own);
        let mut counters: Vec<i64> = others.iter().map(|&c| params.clamp_counter(c)).collect();
        counters.push(own);
        let v = coin_value(&params, own, &counters);
        let total: i64 = counters.iter().sum();
        let want = if params.overflowed(own) || total > params.barrier() {
            CoinValue::Heads
        } else if total < -params.barrier() {
            CoinValue::Tails
        } else {
            CoinValue::Undecided
        };
        assert_eq!(v, want, "{at}");
    }
}

/// A two-process single-register race: the writer publishes 1, the reader
/// may beat it and observe the initial 0. The "reader saw 0" outcome is the
/// violation the shrink/replay properties drive.
fn race_factory() -> impl FnMut() -> (World, Vec<ProcBody<u64>>) {
    || {
        let w = World::builder(2).build();
        let r = w.reg("r", 0u64);
        let (r0, r1) = (r.clone(), r);
        let bodies: Vec<ProcBody<u64>> = vec![
            Box::new(move |ctx| {
                r0.write(ctx, 1)?;
                Ok(1)
            }),
            Box::new(move |ctx| r1.read(ctx)),
        ];
        (w, bodies)
    }
}

fn stale_read(r: &bprc::sim::world::RunReport<u64>) -> Option<String> {
    (r.outputs[1] == Some(0)).then(|| "reader saw the initial value".to_string())
}

/// Exhaustive n=2 scan/update interleavings satisfy P2
/// (full linearizability), for arbitrary published values and either
/// assignment of the updater/scanner roles.
#[test]
fn every_n2_scan_update_interleaving_is_linearizable() {
    for case in 0..EXPLORE_CASES {
        let mut rng = stream_rng(SEED, case);
        let value = rng.gen_range(1u64..u64::MAX / 2);
        let updater = rng.gen_range(0usize..=1);
        let at = format!("seed {SEED} case {case}: value {value} updater {updater}");

        let meta = {
            let w = World::builder(2).build();
            ScannableMemory::<u64, DirectArrow>::new(&w, 2, 0).meta()
        };
        let factory = move || {
            let w = World::builder(2).build();
            let mem = ScannableMemory::<u64, DirectArrow>::new(&w, 2, 0);
            let mut upd = mem.port(updater);
            let mut scn = mem.port(1 - updater);
            let mut bodies: Vec<Option<ProcBody<Vec<u64>>>> = vec![None, None];
            bodies[updater] = Some(Box::new(move |ctx| {
                upd.update(ctx, value)?;
                Ok(vec![])
            }));
            bodies[1 - updater] = Some(Box::new(move |ctx| scn.scan(ctx)));
            (w, bodies.into_iter().map(|b| b.unwrap()).collect())
        };
        let cfg = ExploreConfig {
            independence: Independence::ReadsOnly,
            ..ExploreConfig::default()
        };
        let rep = explore(&cfg, factory, |r| {
            let history = r.history.as_ref().expect("lockstep records history");
            check_history(history, &meta)
                .violations
                .first()
                .map(|v| format!("{v:?}"))
        });
        assert!(
            rep.violation.is_none(),
            "{at}: violation {:?}",
            rep.violation
        );
        assert!(rep.exhausted, "{at}: space must be fully enumerated");
        assert!(rep.schedules > 1, "{at}");
    }
}

/// Shrunk counterexample traces survive the full artifact pipeline:
/// pad a violating trace with arbitrary junk decisions and confirm it as
/// the counterexample; the minimal trace must round-trip through JSON
/// byte-identically and still reproduce the violation when replayed.
#[test]
fn shrunk_counterexample_traces_round_trip_byte_identically() {
    let found = explore(&ExploreConfig::default(), race_factory(), stale_read)
        .violation
        .expect("the read-before-write schedule is reachable");
    for case in 0..EXPLORE_CASES {
        let mut rng = stream_rng(SEED, case);
        let len = rng.gen_range(0..6);
        let pads: Vec<(usize, usize)> = (0..len)
            .map(|_| (rng.gen_range(0..=1), rng.gen_range(0..8)))
            .collect();
        let at = format!("seed {SEED} case {case}: pads {pads:?}");

        // Inject junk decisions; the tolerant replayer keeps the trace
        // well-formed regardless of where they land.
        let mut padded = found.trace.clone();
        for (pid, pos) in pads {
            let idx = pos % (padded.decisions.len() + 1);
            padded.decisions.insert(idx, Decision::Grant(pid));
        }
        let mut make = race_factory();
        let (rep, _) = run_trace(&mut make, &padded);
        if stale_read(&rep).is_none() {
            // Padding flipped the schedule to a clean one — nothing to
            // shrink in this case.
            continue;
        }

        let padded_len = padded.decisions.len();
        let description = found.description.clone();
        let confirmed = Counterexample {
            trace: padded,
            description,
        }
        .confirm(&mut make, &mut |r| stale_read(r));
        assert!(confirmed.trace.decisions.len() <= padded_len, "{at}");
        if let Err(e) = confirmed.verdict {
            panic!("{at}: {e}");
        }
    }
}
