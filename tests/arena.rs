//! The protocol arena's acceptance surface: every [`Consensus`] entrant —
//! the paper's bounded protocol, Aspnes–Herlihy over atomic *and* regular
//! registers, the local-coin and oracle baselines, and the swap race —
//! runs under the *same* harness code. No per-protocol forks: the tests
//! iterate `entrants()` and drive each row through
//!
//! 1. a depth-bounded exhaustive n=2 DFS exploration (every schedule —
//!    and, under `WeakMode::Regular`, every flush placement — of the first
//!    `max_steps` register grants, with truncated paths still executed and
//!    checked as prefixes);
//! 2. a 100-seed PCT + crash sweep at n=3;
//! 3. a regular-register litmus cell proving a stale read is reachable
//!    exactly where atomicity forbids it, with the violating flush trace
//!    round-tripping through `bprc-trace-v1` byte-identically;
//! 4. the same byte-identical round-trip for a `Swap`-bearing trace;
//! 5. the committed trace of the open `ah-regular` finding (DESIGN.md §
//!    Scope limits), replayed to its disagreement and critical cycle.
//!
//! Full protocol executions outlive any feasible exhaustive budget (a
//! deciding run takes ~50+ grants), so layer 1 is a *bounded-prefix*
//! statement: no violation is reachable within the enumerated horizon.
//! Layer 2 covers full executions, crashes included, by sampling.

use bprc::core::{entrants, ConsensusSpec};
use bprc::sim::explore::{explore, run_trace, shrink_trace, DecisionTrace, ExploreConfig};
use bprc::sim::faults::{FaultPlan, FaultedStrategy};
use bprc::sim::rng::derive_seed;
use bprc::sim::sched::PctStrategy;
use bprc::sim::weakmem::{critical_cycle, RandomFlushes, WeakMode};
use bprc::sim::world::{ProcBody, World};
use bprc::sim::{Counter, Decision};

/// Depth-bounded exhaustive DFS at n=2 for every entrant.
/// The explorer branches over every grant order and, in a
/// `WeakMode::Regular` world, over every flush placement — so under the
/// regular mode the same budget covers a strictly richer decision tree and
/// gets a smaller step bound to stay enumerable.
#[test]
fn every_entrant_survives_bounded_exhaustive_n2_dfs() {
    let inputs = [true, false];
    for entrant in entrants() {
        // Flush placements multiply the branching under `Regular`, and
        // every truncated prefix is completed (flush-fairly) and checked —
        // so the regular tree gets a shorter horizon to stay enumerable.
        let mode = entrant.memory_mode();
        let max_steps = if mode == WeakMode::Regular { 7 } else { 14 };
        let cfg = ExploreConfig {
            max_steps,
            max_schedules: 400_000,
            ..ExploreConfig::default()
        };
        let make = || {
            let world = World::builder(2).seed(0).weak_memory(mode).build();
            let bodies = entrant.build(&world, &inputs, 5);
            (world, bodies)
        };
        let spec = ConsensusSpec::new(&inputs);
        let rep = explore(&cfg, make, |r| spec.check(r));
        assert!(
            rep.violation.is_none(),
            "{}: {:?}",
            entrant.name(),
            rep.violation
        );
        // The bounded tree must be fully enumerated: either genuinely
        // exhausted, or cut only by the step bound (prefixes checked),
        // never by the schedule-count safety valve.
        assert!(
            rep.exhausted || (rep.truncated > 0 && rep.schedules < cfg.max_schedules),
            "{}: enumeration hit the schedule valve ({} schedules, {} truncated)",
            entrant.name(),
            rep.schedules,
            rep.truncated
        );
        // `schedules` counts only complete executions; with a step
        // bound this small, most (often all) enumerated paths are
        // checked as truncated prefixes. A truncated run widens its
        // path to every awake grant, so the counts are exactly a plain
        // sleep-set DFS's.
        let expected = match entrant.name() {
            "swap-race" => (2, 43),
            "ah-regular" => (0, 2564),
            _ => (0, 333),
        };
        assert_eq!(
            (rep.schedules, rep.truncated),
            expected,
            "{}: (complete schedules, truncated prefixes)",
            entrant.name()
        );
    }
}

/// 100-seed PCT sweep with one injected crash per run, at n=3 — full
/// executions where the bounded DFS above only covers prefixes. Every entrant goes through the identical adversary
/// stack: PCT grants, a scheduled crash, and (for regular-register
/// entrants) random flush injections.
#[test]
fn pct_crash_sweep_keeps_every_entrant_safe() {
    let n = 3;
    let inputs = [true, false, true];
    for entrant in entrants() {
        let mut decided_runs = 0u32;
        for seed in 0..100u64 {
            let mut world = World::builder(n)
                .seed(seed)
                .step_limit(150_000)
                .record_history(false)
                .weak_memory(entrant.memory_mode())
                .build();
            let bodies = entrant.build(&world, &inputs, seed);
            let victim = (seed as usize) % n;
            let plan = FaultPlan::new().crash_at(20 + 13 * seed % 400, victim);
            let pct = PctStrategy::new(seed, n, 3, 200);
            let faulted = FaultedStrategy::new(pct, plan);
            let rep = match entrant.memory_mode() {
                WeakMode::Sc => world.run(bodies, Box::new(faulted)),
                _ => world.run(
                    bodies,
                    Box::new(RandomFlushes::new(faulted, derive_seed(seed, 0xF1))),
                ),
            };
            let spec = ConsensusSpec::new(&inputs);
            assert_eq!(spec.check(&rep), None, "{} seed {seed}", entrant.name());
            if rep.outputs.iter().any(|o| o.is_some()) {
                decided_runs += 1;
            }
        }
        assert!(
            decided_runs > 0,
            "{}: no run out of 100 decided — the sweep is vacuous",
            entrant.name()
        );
    }
}

/// Message-passing litmus cell on raw registers: writer publishes `x` then
/// raises `flag`; reader sees the flag up but the payload stale. The
/// outcome must be *exhaustively unreachable* in an atomic world and
/// *reachable* in a `WeakMode::Regular` world — and the violating schedule
/// (which necessarily carries `Decision::Flush` entries) must shrink,
/// serialize through `bprc-trace-v1`, parse back byte-identically, and
/// replay to the same stale read.
#[test]
fn regular_registers_admit_stale_reads_where_atomicity_forbids() {
    fn factory(mode: WeakMode) -> impl FnMut() -> (World, Vec<ProcBody<Vec<u64>>>) {
        move || {
            let world = World::builder(2).seed(0).weak_memory(mode).build();
            let x = world.reg("X", 0u64);
            let flag = world.reg("FLAG", 0u64);
            let (xw, fw) = (x.clone(), flag.clone());
            let writer: ProcBody<Vec<u64>> = Box::new(move |ctx| {
                xw.write(ctx, 1)?;
                fw.write(ctx, 1)?;
                Ok(vec![])
            });
            let reader: ProcBody<Vec<u64>> = Box::new(move |ctx| {
                let f = flag.read(ctx)?;
                let v = x.read(ctx)?;
                Ok(vec![f, v])
            });
            (world, vec![writer, reader])
        }
    }
    let stale = |r: &bprc::sim::world::RunReport<Vec<u64>>| -> Option<String> {
        match r.outputs.get(1) {
            Some(Some(out)) if out == &[1, 0] => Some("stale read: flag=1 but x=0".to_string()),
            _ => None,
        }
    };

    // Atomic: exhaustively unreachable.
    let rep = explore(&ExploreConfig::default(), factory(WeakMode::Sc), stale);
    assert!(
        rep.violation.is_none(),
        "atomic registers must forbid the stale read: {:?}",
        rep.violation
    );
    assert!(
        rep.exhausted,
        "unreachability must come from full enumeration"
    );

    // Regular: reachable, shrinkable, serializable, replayable.
    let rep = explore(&ExploreConfig::default(), factory(WeakMode::Regular), stale);
    let cex = rep
        .violation
        .expect("a regular register must admit the stale read");
    let mut make = factory(WeakMode::Regular);
    let (min, runs) = shrink_trace(&mut make, &mut |r| stale(r), cex.trace);
    assert!(runs > 0);
    assert!(
        min.decisions
            .iter()
            .any(|d| matches!(d, Decision::Flush { .. })),
        "the minimal stale-read schedule must place a flush explicitly: {:?}",
        min.decisions
    );
    let json = min.to_json();
    let parsed = DecisionTrace::from_json(&json).expect("trace-v1 artifact must parse back");
    assert_eq!(parsed, min);
    assert_eq!(
        parsed.to_json().render(),
        json.render(),
        "round-trip must be byte-identical"
    );
    let (replayed, _) = run_trace(&mut make, &parsed);
    assert!(
        stale(&replayed).is_some(),
        "replaying the trace must reproduce the stale read: {:?}",
        replayed.outputs
    );
}

/// `Swap` operations ride the same trace plane: harvest a schedule whose
/// outcome pins the swap order, shrink it, round-trip the `bprc-trace-v1`
/// artifact byte-identically, and replay it twice to byte-identical
/// histories.
#[test]
fn swap_traces_roundtrip_through_trace_v1() {
    fn factory() -> impl FnMut() -> (World, Vec<ProcBody<Vec<u64>>>) {
        || {
            let world = World::builder(2).seed(0).build();
            let t = world.reg("T", 0u64);
            let bodies: Vec<ProcBody<Vec<u64>>> = (0..2)
                .map(|pid| {
                    let t = t.clone();
                    let b: ProcBody<Vec<u64>> =
                        Box::new(move |ctx| Ok(vec![t.swap(ctx, pid as u64 + 1)?]));
                    b
                })
                .collect();
            (world, bodies)
        }
    }
    // Flag the "p0 swapped first" outcome to harvest its forcing schedule.
    let p0_first = |r: &bprc::sim::world::RunReport<Vec<u64>>| -> Option<String> {
        match (&r.outputs[0], &r.outputs[1]) {
            (Some(a), Some(b)) if a == &[0] && b == &[1] => {
                Some("p0's swap won the race".to_string())
            }
            _ => None,
        }
    };
    let rep = explore(&ExploreConfig::default(), factory(), p0_first);
    let cex = rep.violation.expect("both swap orders must be reachable");
    let mut make = factory();
    let (min, _) = shrink_trace(&mut make, &mut |r| p0_first(r), cex.trace);
    let json = min.to_json();
    let parsed = DecisionTrace::from_json(&json).expect("swap trace must parse back");
    assert_eq!(
        parsed.to_json().render(),
        json.render(),
        "round-trip must be byte-identical"
    );
    let (one, _) = run_trace(&mut make, &parsed);
    let (two, _) = run_trace(&mut make, &parsed);
    assert!(p0_first(&one).is_some(), "{:?}", one.outputs);
    // Swap counts as both a read and a write in telemetry (the parity rule).
    assert!(one.telemetry.total(Counter::RegReads) >= 2);
    assert!(one.telemetry.total(Counter::RegWrites) >= 2);
    assert_eq!(
        one.history.as_ref().unwrap().to_jsonl(),
        two.history.as_ref().unwrap().to_jsonl(),
        "replaying the same swap trace must reproduce the identical history"
    );
}

/// The open finding of DESIGN.md § Scope limits, as a committed artifact:
/// the failing `arena-ah-regular-n2-handshake` trial at seed 3 (cell 200,
/// trial 0) shrinks to the empty trace, and its critical cycle is a scan
/// reading a `V` whose write had already responded — stale under the
/// buffered model, forbidden for a regular register.
#[test]
fn ah_regular_finding_replays_from_its_committed_trace() {
    const TRACE: &str = r#"{"schema":"bprc-trace-v1","n":2,"decisions":[]}"#;
    const CYCLE: &str = "critical cycle (6 edges): W p0 V_0@1 -po-> W p0 A_1_0@2 -po-> \
        R p0 V_1@3 -fr-> W p1 V_1@13 -po-> W p1 A_0_1@14 -po-> R p1 V_0@15 -fr-> W p0 V_0@1";
    let (entrant, inputs) = (&entrants()[2], [true, false]);
    assert_eq!(entrant.name(), "ah-regular");
    let seed = derive_seed(derive_seed(3, 200), 0);
    let mut make = || {
        let world = World::builder(2)
            .seed(seed)
            .step_limit(200_000)
            .weak_memory(entrant.memory_mode())
            .build();
        let bodies = entrant.build(&world, &inputs, seed);
        (world, bodies)
    };
    let trace = DecisionTrace::from_json(&bprc::sim::json::parse(TRACE).unwrap()).unwrap();
    let (replayed, _) = run_trace(&mut make, &trace);
    assert_eq!(replayed.outputs, [Some(true), Some(false)]);
    assert_eq!(
        ConsensusSpec::new(&inputs).check(&replayed).as_deref(),
        Some("agreement violated: pid 0 decided true but pid 1 decided false")
    );
    let history = replayed.history.as_ref().expect("lockstep records history");
    let cycle = critical_cycle(history, &make().0.reg_names())
        .expect("the disagreement needs a weak-memory reordering")
        .to_string();
    assert!(cycle.starts_with(CYCLE), "{cycle}");
}
