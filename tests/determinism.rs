//! Replayability: every layer of the stack is deterministic given its
//! seeds — the property that makes adversarial bug hunts and the recorded
//! experiment tables reproducible.

use bprc::coin::montecarlo::run_trials;
use bprc::coin::CoinParams;
use bprc::core::bounded::{BoundedCore, ConsensusParams};
use bprc::core::threaded::ThreadedConsensus;
use bprc::registers::DirectArrow;
use bprc::sim::sched::{FnStrategy, RandomStrategy, Strategy};
use bprc::sim::turn::{Turn, TurnDriver};
use bprc::sim::World;

#[test]
fn turn_level_consensus_replays_exactly() {
    let run = |seed: u64| {
        let n = 4;
        let params = ConsensusParams::quick(n);
        let procs: Vec<BoundedCore> = (0..n)
            .map(|p| BoundedCore::new(params.clone(), p, p % 2 == 0, seed + p as u64))
            .collect();
        let r = TurnDriver::new(procs).run(&mut RandomStrategy::new(seed), 20_000_000);
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
        let mut world = World::builder(n).step_limit(5_000_000).build();
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

/// A world draws no randomness — [`WorldBuilder::seed`] does nothing, and
/// each core seeds its own coin — so a lockstep run is a function of its
/// bodies and its strategy alone. Three world seeds, one register-level
/// consensus run: the same outputs, history, steps and telemetry (every
/// counter and gauge of every shard, and each histogram's sample count;
/// the samples themselves are wall-clock durations).
///
/// [`WorldBuilder::seed`]: bprc::sim::WorldBuilder::seed
#[test]
fn lockstep_runs_do_not_depend_on_the_world_seed() {
    use bprc::sim::{Counter, Gauge, Hist};
    let run = |world_seed: u64| {
        let n = 3;
        let params = ConsensusParams::quick(n);
        let mut world = World::builder(n)
            .seed(world_seed)
            .step_limit(5_000_000)
            .build();
        let inst = ThreadedConsensus::<DirectArrow>::new(&world, &params, &[true, false, true], 9);
        let rep = world.run(inst.bodies, Box::new(RandomStrategy::new(9)));
        let t = &rep.telemetry;
        let mut books = Vec::new();
        for shard in 0..=n {
            books.extend(Counter::ALL.iter().map(|&c| Some(t.counter(shard, c))));
            books.extend(Gauge::ALL.iter().map(|&g| t.gauge(shard, g)));
            books.extend(Hist::ALL.iter().map(|&h| Some(t.hist(shard, h).count())));
        }
        let history = rep.history.as_ref().expect("lockstep records").to_jsonl();
        (rep.outputs.clone(), history, rep.steps, books)
    };
    let first = run(0);
    assert!(first.0.iter().all(Option::is_some), "{:?}", first.0);
    assert_eq!(first, run(1));
    assert_eq!(first, run(u64::MAX));
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
    use bprc::coin::flip::Flips;
    use bprc::core::state::ProcState;
    use bprc::core::threaded::over_snapshot;
    use bprc::sim::sched::RoundRobin;
    use bprc::snapshot::ScannableMemory;

    let run = |inputs: &[bool], script: &[bool]| {
        let n = inputs.len();
        let params = ConsensusParams::quick(n);
        let mut world = World::builder(n).step_limit(5_000_000).build();
        let procs: Vec<BoundedCore> = (0..n)
            .map(|pid| {
                let flips = Flips::scripted(script.to_vec());
                BoundedCore::with_flips(params.clone(), pid, inputs[pid], flips)
            })
            .collect();
        let (_mem, bodies) = over_snapshot::<_, ScannableMemory<_, DirectArrow>>(
            &world,
            procs,
            ProcState::phantom(params.layout()),
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
    type Pinned = (Vec<Option<bool>>, u64, u64, u64);
    let cases: [(&[bool], &[bool], Pinned); 3] = [
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

/// Pins multishot logs over real registers: `LogCore` replicas over the
/// handshake memory in lockstep under round-robin, 4 slots of 8 bits.
/// Captured before a written register value went back to its writer for
/// reuse; how a value's buffers are recycled must be invisible here, down
/// to the history's bytes.
#[test]
fn log_runs_are_pinned_at_register_level() {
    use bprc::core::multishot::{LogCore, LogMsg, StaticProposals};
    use bprc::core::threaded::over_snapshot;
    use bprc::sim::sched::RoundRobin;
    use bprc::snapshot::ScannableMemory;

    let run = |n: usize| {
        let params = ConsensusParams::quick(n);
        let mut world = World::builder(n).step_limit(50_000_000).build();
        let procs: Vec<LogCore<StaticProposals>> = (0..n)
            .map(|p| {
                let mine = (0..4)
                    .map(|s| (p * 37 + s * 11 + 5) as u64 & 0xFF)
                    .collect();
                LogCore::new(
                    params.clone(),
                    p,
                    4,
                    8,
                    StaticProposals(mine),
                    90 + p as u64,
                )
            })
            .collect();
        let (_mem, bodies) = over_snapshot::<_, ScannableMemory<_, DirectArrow>>(
            &world,
            procs,
            LogMsg { slots: Vec::new() },
        );
        let rep = world.run(bodies, Box::new(RoundRobin::new()));
        let history = rep.history.as_ref().unwrap().to_jsonl();
        (
            format!("{:?}", rep.outputs),
            rep.steps,
            history.lines().count() as u64,
            fnv1a(history.as_bytes()),
        )
    };
    type Pinned = (String, u64, u64, u64);
    let cases: [(usize, Pinned); 2] = [
        (
            2,
            (
                "[Some([42, 16, 27, 38]), Some([42, 16, 27, 38])]".into(),
                2148,
                3580,
                12178054861946608874,
            ),
        ),
        (
            3,
            (
                "[Some([42, 16, 27, 38]), Some([42, 16, 27, 38]), Some([42, 16, 27, 38])]".into(),
                9339,
                12735,
                13978332685363942192,
            ),
        ),
    ];
    for (n, want) in &cases {
        let got = run(*n);
        assert_eq!(&got, want, "n = {n}: pinned fingerprint changed");
    }
}

#[test]
fn coin_monte_carlo_replays_exactly() {
    let p = CoinParams::new(3, 2, 1_000);
    let stats = || {
        let s = run_trials(&p, 50, 13, 1_000_000, |t| Box::new(RandomStrategy::new(t)));
        (
            [
                s.trials,
                s.disagreements,
                s.overflows,
                s.timeouts,
                s.all_heads,
            ],
            s.mean_walk_steps.to_bits(),
            s.mean_events.to_bits(),
        )
    };
    let a = stats();
    assert_eq!(a, stats());
    // trials, disagreements, overflows, timeouts, all heads; the two means
    // as `f64` bits. Captured while the walk still drew from boxed flip
    // sources: any drift in the fair stream or the walk moves them.
    let want = ([50, 2, 0, 0, 22], 4633652325609887498, 4640756754022064456);
    assert_eq!(a, want, "pinned trial statistics changed");
}

/// The first draws of a flip source as a bitmask (bit `i` = draw `i`).
fn draws(f: &mut bprc::coin::Flips, k: u32) -> u64 {
    (0..k).fold(0, |m, i| m | ((f.flip() as u64) << i))
}

/// Pins the local coin's streams: the first 64 fair draws at four seeds,
/// biased draws at three probabilities, and the scripted replay. Captured
/// while each source was its own struct behind a trait; every protocol and
/// experiment that flips draws one of these streams.
#[test]
fn flip_streams_are_pinned() {
    use bprc::coin::Flips;

    let fair = [0, 1, 7, (1 << 63) + 5].map(|seed| draws(&mut Flips::fair(seed), 64));
    let biased = [0.0, 0.3, 1.0].map(|p| draws(&mut Flips::biased(7, p), 64));
    let scripted = |script: Vec<bool>| draws(&mut Flips::scripted(script), 5);
    let fair_want = [
        0x399c0156180100c0,
        0x400c78e7fa2d04eb,
        0xa4ea23eb41d81154,
        0xa527538538d1a102,
    ];
    assert_eq!(fair, fair_want, "fair at seeds 0, 1, 7, 2^63 + 5");
    let biased_want = [0, 0x53159410ae07ae03, u64::MAX];
    assert_eq!(biased, biased_want, "biased at seed 7, p = 0, 0.3, 1");
    // Replays `[H, T, T]` then repeats its last flip; an empty script flips heads.
    assert_eq!(scripted(vec![true, false, false]), 0b00001);
    assert_eq!(scripted(vec![]), 0b11111);
}

/// A representation-independent digest of everything the composed cores
/// publish: every field of every register, folded field by field, so the
/// pins below survive any change to how a register is *stored* and move on
/// any change to what it *says*.
mod digest {
    use bprc::core::multishot::LogMsg;
    use bprc::core::multivalued::MvState;
    use bprc::core::state::{Pref, ProcRef};

    pub fn fold(h: u64, x: u64) -> u64 {
        (h ^ x).wrapping_mul(0x100000001b3)
    }

    pub fn proc_state(mut h: u64, s: ProcRef<'_>) -> u64 {
        h = fold(
            h,
            match s.pref() {
                Pref::Bottom => 0,
                Pref::Val(false) => 1,
                Pref::Val(true) => 2,
            },
        );
        h = fold(h, s.current_coin() as u64);
        h = s.coins().fold(h, |h, c| fold(h, c as u64));
        s.edges().fold(h, |h, e| fold(h, e as u64))
    }

    pub fn mv_state(h: u64, s: &MvState) -> u64 {
        let h = fold(fold(h, s.candidate()), s.level_count() as u64);
        s.levels().fold(h, proc_state)
    }

    pub fn log_msg(h: u64, m: &LogMsg) -> u64 {
        m.slots.iter().fold(fold(h, m.slots.len() as u64), mv_state)
    }
}

/// Decided outputs, event count, the protocol counters' totals and the
/// register digest of one composed run under a deterministic schedule.
type Fingerprint<O> = (Vec<Option<O>>, u64, [u64; 9], u64);

fn composed_fingerprint<P>(
    procs: Vec<P>,
    adversary: &mut dyn Strategy<Turn<P::Msg>>,
    digest: impl Fn(u64, &P::Msg) -> u64,
) -> Fingerprint<P::Out>
where
    P: bprc::sim::turn::TurnProcess,
{
    use bprc::sim::Counter::*;
    let mut h = 0xcbf29ce484222325u64;
    let r = TurnDriver::new(procs).run_observed(adversary, 50_000_000, |d| {
        h = d.shared().iter().fold(h, &digest);
    });
    assert!(r.completed);
    let totals = [
        Scans,
        Updates,
        RoundAdvances,
        CoinFlips,
        Demotions,
        CoinAdoptions,
        StripIncs,
        StripWraps,
        WalkExtremes,
    ]
    .map(|c| r.telemetry.total(c));
    (r.outputs, r.events, totals, h)
}

/// The schedule that runs each active process for `burst` events in turn:
/// processes drift whole levels and slots apart, so later joiners meet
/// peers far ahead and everyone reads phantoms.
fn bursts<M>(burst: u64) -> impl Strategy<Turn<M>> {
    FnStrategy::new(move |view: &bprc::sim::turn::TurnView<'_, M>| {
        let turn = (view.step / burst) as usize % view.runnable.len();
        bprc::sim::Decision::Grant(view.runnable[turn])
    })
}

/// Pins the multivalued and multishot compositions to values captured on
/// the tree where `ProcState`/`MvState`/`LogMsg` were nested `Vec`s (PR 22,
/// with `digest` reading the same fields off the structs): the packed
/// representation must be invisible here. Schedules are
/// deterministic. The `bursts` rows flip no local coin, so they depend on no
/// RNG; the contended rows walk the shared coin and pin the in-tree `rand`
/// stream, the only one the workspace links.
#[test]
fn composed_runs_are_pinned_across_representations() {
    use bprc::core::multishot::{LogCore, StaticProposals};
    use bprc::core::multivalued::MvCore;
    use bprc::sim::sched::RoundRobin;
    use bprc::sim::turn::TurnBsp;

    let mv = |adversary: &mut dyn Strategy<Turn<_>>| {
        let values = [13u64, 200, 77];
        let params = ConsensusParams::quick(values.len());
        let procs: Vec<MvCore> = (0..values.len())
            .map(|p| MvCore::new(params.clone(), p, values[p], 8, 40 + p as u64))
            .collect();
        let (out, events, totals, h) = composed_fingerprint(procs, adversary, digest::mv_state);
        (format!("{out:?}"), events, totals, h)
    };
    let log = |n: usize, adversary: &mut dyn Strategy<Turn<_>>| {
        let params = ConsensusParams::quick(n);
        let procs: Vec<LogCore<StaticProposals>> = (0..n)
            .map(|p| {
                let mine = (0..4)
                    .map(|s| (p * 37 + s * 11 + 5) as u64 & 0xFF)
                    .collect();
                LogCore::new(
                    params.clone(),
                    p,
                    4,
                    8,
                    StaticProposals(mine),
                    70 + p as u64,
                )
            })
            .collect();
        let (out, events, totals, h) = composed_fingerprint(procs, adversary, digest::log_msg);
        (format!("{out:?}"), events, totals, h)
    };
    let decided = |v: &str, n: usize| format!("[{}]", vec![format!("Some({v})"); n].join(", "));
    type Row = (String, u64, [u64; 9], u64);
    // (scenario, got, want); totals are scans, updates, round advances, coin
    // flips, demotions, coin adoptions, strip incs, strip wraps, walk extremes.
    let rows: [(&str, Row, Row); 6] = [
        (
            "mv n=3 w=8 bursts(20)",
            mv(&mut bursts(20)),
            (
                decided("13", 3),
                138,
                [69, 69, 45, 0, 0, 0, 90, 0, 0],
                11914219495391268505,
            ),
        ),
        (
            "log n=2 bursts(50)",
            log(2, &mut bursts(50)),
            (
                decided("[5, 16, 27, 38]", 2),
                390,
                [195, 195, 130, 0, 1, 0, 130, 0, 0],
                6783549770091855557,
            ),
        ),
        (
            "log n=3 bursts(50)",
            log(3, &mut bursts(50)),
            (
                decided("[5, 16, 27, 38]", 3),
                586,
                [293, 293, 195, 0, 2, 0, 390, 0, 0],
                16240436269702773955,
            ),
        ),
        (
            "mv n=3 w=8 round-robin",
            mv(&mut RoundRobin::new()),
            (
                decided("77", 3),
                318,
                [159, 159, 30, 99, 6, 6, 60, 0, 0],
                12625930775945731507,
            ),
        ),
        (
            "log n=2 round-robin",
            log(2, &mut RoundRobin::new()),
            (
                decided("[5, 16, 64, 38]", 2),
                1288,
                [644, 644, 72, 500, 8, 8, 72, 0, 0],
                14384336058521390924,
            ),
        ),
        (
            "log n=3 bsp",
            log(3, &mut TurnBsp::new()),
            (
                decided("[79, 53, 64, 112]", 3),
                1338,
                [669, 669, 114, 441, 18, 18, 228, 0, 0],
                14534665621317557030,
            ),
        ),
    ];
    for (name, got, want) in &rows {
        assert_eq!(got, want, "{name}: pinned fingerprint changed");
    }
}

/// Folds one round-numbered register: preference, round, then every
/// `(round, counter)` coin entry it holds.
fn round_register<'a>(
    h: u64,
    pref: bprc::core::state::Pref,
    round: u64,
    coins: impl Iterator<Item = (&'a u64, &'a i64)>,
) -> u64 {
    use bprc::core::state::Pref;
    let pref = match pref {
        Pref::Bottom => 0,
        Pref::Val(false) => 1,
        Pref::Val(true) => 2,
    };
    let h = digest::fold(digest::fold(h, pref), round);
    coins.fold(h, |h, (&r, &c)| digest::fold(digest::fold(h, r), c as u64))
}

/// Outputs, events, each pid's `Gauge::Round`, `Gauge::MaxRegisterBits`
/// and `Counter::CoinFlips`, and the digest of the final registers of one
/// baseline run, in one line.
fn baseline_fingerprint<P>(
    procs: Vec<P>,
    adversary: &mut dyn Strategy<Turn<P::Msg>>,
    digest: impl Fn(u64, &P::Msg) -> u64,
) -> String
where
    P: bprc::sim::turn::TurnProcess,
    P::Out: std::fmt::Debug,
{
    use bprc::sim::{Counter, Gauge};
    let mut last = 0;
    let r = TurnDriver::new(procs).run_observed(adversary, 5_000_000, |d| {
        last = d.shared().iter().fold(0xcbf29ce484222325u64, &digest);
    });
    let t = &r.telemetry;
    let per_pid: Vec<_> = (0..r.outputs.len())
        .map(|p| {
            (
                t.gauge(p, Gauge::Round).unwrap_or(0),
                t.gauge(p, Gauge::MaxRegisterBits).unwrap_or(0),
                t.counter(p, Counter::CoinFlips),
            )
        })
        .collect();
    format!("{:?} {} {per_pid:?} {last:x}", r.outputs, r.events)
}

/// The schedules the baseline pins run under, all deterministic given
/// their seed.
const BASELINE_SCHEDULES: [&str; 3] = ["random", "bsp", "round-robin"];

fn baseline_schedule<M: 'static>(name: &str, seed: u64) -> Box<dyn Strategy<Turn<M>>> {
    use bprc::sim::sched::RoundRobin;
    use bprc::sim::turn::TurnBsp;
    match name {
        "random" => Box::new(RandomStrategy::new(seed)),
        "bsp" => Box::new(TurnBsp::new()),
        "round-robin" => Box::new(RoundRobin::new()),
        other => unreachable!("no schedule {other}"),
    }
}

/// Pins the three round-numbered baselines — \[AH88\]'s shared walk,
/// \[A88\]'s local coins and the atomic-coin oracle — under three schedules
/// at n = 2, 3 and 5, with alternating inputs. Captured before the
/// baselines were folded into one protocol body: the fold must be invisible
/// here, down to the last register bit. Skipping the oracle's ⊥ demotion
/// moves these pins.
#[test]
fn baselines_are_pinned_across_their_fold() {
    use bprc::core::baselines::{RoundCore, RoundState};
    use bprc::sim::rng::derive_seed;

    const SEED: u64 = 17;
    let input = |p: usize| p.is_multiple_of(2);
    let coin = |p: usize| derive_seed(SEED, p as u64);
    let register = |h, m: &RoundState| round_register(h, m.pref, m.round, m.coins.iter());
    let mut got = Vec::new();
    for n in [2usize, 3, 5] {
        for s in BASELINE_SCHEDULES {
            let fingerprint = |core: &dyn Fn(usize) -> RoundCore| {
                let procs = (0..n).map(core).collect();
                baseline_fingerprint(procs, baseline_schedule(s, SEED).as_mut(), register)
            };
            let ah = fingerprint(&|p| RoundCore::aspnes_herlihy(n, p, input(p), coin(p), 3));
            let local = fingerprint(&|p| RoundCore::local_coin(n, p, input(p), coin(p)));
            let oracle = fingerprint(&|p| RoundCore::oracle(n, p, input(p), SEED));
            got.push(format!("ah88 n={n} {s}: {ah}"));
            got.push(format!("local n={n} {s}: {local}"));
            got.push(format!("oracle n={n} {s}: {oracle}"));
        }
    }
    let want: [&str; 27] = [
        "ah88 n=2 random: [Some(false), Some(false)] 58 [(3, 72, 9), (3, 72, 12)] f702ee5010c15fee",
        "local n=2 random: [Some(true), Some(true)] 12 [(2, 5, 1), (2, 5, 0)] 9e749290540f5425",
        "oracle n=2 random: [Some(true), Some(true)] 12 [(2, 5, 0), (2, 5, 0)] 9e749290540f5425",
        "ah88 n=2 bsp: [Some(false), Some(false)] 136 [(2, 72, 31), (2, 72, 31)] f6a2be0aaea9ecf3",
        "local n=2 bsp: [Some(true), Some(true)] 12 [(2, 5, 1), (2, 5, 1)] 9e749290540f5425",
        "oracle n=2 bsp: [Some(true), Some(true)] 12 [(2, 5, 0), (2, 5, 0)] 9e749290540f5425",
        "ah88 n=2 round-robin: [Some(false), Some(false)] 136 [(2, 72, 31), (2, 72, 31)] f6a2be0aaea9ecf3",
        "local n=2 round-robin: [Some(true), Some(true)] 12 [(2, 5, 1), (2, 5, 1)] 9e749290540f5425",
        "oracle n=2 round-robin: [Some(true), Some(true)] 12 [(2, 5, 0), (2, 5, 0)] 9e749290540f5425",
        "ah88 n=3 random: [Some(false), Some(false), Some(false)] 80 [(3, 72, 7), (3, 72, 13), (3, 72, 8)] 768eb8d88832ce23",
        "local n=3 random: [Some(true), Some(true), Some(true)] 26 [(4, 6, 1), (3, 5, 1), (3, 5, 1)] 46b3aa55525a39f",
        "oracle n=3 random: [Some(true), Some(true), Some(true)] 24 [(3, 5, 0), (3, 5, 0), (3, 5, 0)] 77ce8e79e522b2f6",
        "ah88 n=3 bsp: [Some(false), Some(false), Some(false)] 78 [(2, 72, 10), (2, 72, 10), (2, 72, 10)] 774fc902bdeced16",
        "local n=3 bsp: [Some(false), Some(false), Some(false)] 66 [(6, 6, 5), (6, 6, 5), (6, 6, 5)] 7095287a8d6fbc82",
        "oracle n=3 bsp: [Some(true), Some(true), Some(true)] 18 [(2, 5, 0), (2, 5, 0), (2, 5, 0)] fbbea7c5b66112a5",
        "ah88 n=3 round-robin: [Some(false), Some(false), Some(false)] 78 [(2, 72, 10), (2, 72, 10), (2, 72, 10)] 774fc902bdeced16",
        "local n=3 round-robin: [Some(false), Some(false), Some(false)] 66 [(6, 6, 5), (6, 6, 5), (6, 6, 5)] 7095287a8d6fbc82",
        "oracle n=3 round-robin: [Some(true), Some(true), Some(true)] 18 [(2, 5, 0), (2, 5, 0), (2, 5, 0)] fbbea7c5b66112a5",
        "ah88 n=5 random: [Some(false), Some(false), Some(false), Some(false), Some(false)] 226 [(3, 72, 16), (3, 72, 21), (3, 72, 19), (3, 72, 19), (3, 72, 18)] 17566a52ea4aaddc",
        "local n=5 random: [Some(false), Some(false), Some(false), Some(false), Some(false)] 38 [(3, 5, 0), (3, 5, 0), (3, 5, 1), (3, 5, 0), (3, 5, 0)] ffde39bb887fb83d",
        "oracle n=5 random: [Some(true), Some(true), Some(true), Some(true), Some(true)] 38 [(3, 5, 0), (3, 5, 0), (3, 5, 0), (3, 5, 0), (3, 5, 0)] e073153d5754503a",
        "ah88 n=5 bsp: [Some(false), Some(false), Some(false), Some(false), Some(false)] 220 [(2, 72, 19), (2, 72, 19), (2, 72, 19), (2, 72, 19), (2, 72, 19)] 5444616f2762990b",
        "local n=5 bsp: [Some(false), Some(false), Some(false), Some(false), Some(false)] 330 [(17, 8, 16), (17, 8, 16), (17, 8, 16), (17, 8, 16), (17, 8, 16)] 5ab76973071c306f",
        "oracle n=5 bsp: [Some(true), Some(true), Some(true), Some(true), Some(true)] 30 [(2, 5, 0), (2, 5, 0), (2, 5, 0), (2, 5, 0), (2, 5, 0)] ae6624809716fba5",
        "ah88 n=5 round-robin: [Some(false), Some(false), Some(false), Some(false), Some(false)] 220 [(2, 72, 19), (2, 72, 19), (2, 72, 19), (2, 72, 19), (2, 72, 19)] 5444616f2762990b",
        "local n=5 round-robin: [Some(false), Some(false), Some(false), Some(false), Some(false)] 330 [(17, 8, 16), (17, 8, 16), (17, 8, 16), (17, 8, 16), (17, 8, 16)] 5ab76973071c306f",
        "oracle n=5 round-robin: [Some(true), Some(true), Some(true), Some(true), Some(true)] 30 [(2, 5, 0), (2, 5, 0), (2, 5, 0), (2, 5, 0), (2, 5, 0)] ae6624809716fba5",
    ];
    assert_eq!(got.len(), want.len());
    for (got, want) in got.iter().zip(want) {
        assert_eq!(got, want, "pinned baseline fingerprint changed");
    }
}
