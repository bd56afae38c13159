//! Systematic exploration over the real snapshot stack.
//!
//! Three layers of coverage:
//!
//! 1. **Exhaustive correctness** — every interleaving of a small
//!    update+scan configuration (n=2, ≤40-step budget) satisfies the
//!    snapshot properties P1–P3. This is the model-checking-grade
//!    statement the random-seed tests only sample.
//! 2. **Counterexample machinery** — an intentionally broken scanner (one
//!    naive collect, no double-collect retry) must be caught and
//!    confirmed: shrunk to a minimal decision trace, serialized to JSON,
//!    parsed back, and replayed to the same violation.
//! 3. **Reduction soundness** — the partial-order reduction (source sets
//!    plus sleep sets) must reach exactly the outcomes the unreduced
//!    enumeration reaches.

use bprc::registers::DirectArrow;
use bprc::sim::explore::{explore, run_trace, ExploreConfig, Independence};
use bprc::sim::sched::Decision;
use bprc::sim::world::{ProcBody, World};
use bprc::sim::Counter;
use bprc::snapshot::memory::labels;
use bprc::snapshot::{check_history, ScannableMemory, SnapshotMeta};

/// n=2 workload: each process updates its cell then scans. The update uses
/// the pid-distinct value 10+pid so views are attributable.
fn snapshot_factory() -> impl FnMut() -> (World, Vec<ProcBody<Vec<u64>>>) {
    || {
        let world = World::builder(2).build();
        let mem = ScannableMemory::<u64, DirectArrow>::new(&world, 2, 0);
        let bodies: Vec<ProcBody<Vec<u64>>> = (0..2)
            .map(|pid| {
                let mut port = mem.port(pid);
                let b: ProcBody<Vec<u64>> = Box::new(move |ctx| {
                    port.update(ctx, 10 + pid as u64)?;
                    port.scan(ctx)
                });
                b
            })
            .collect();
        (world, bodies)
    }
}

fn snapshot_meta() -> SnapshotMeta {
    let world = World::builder(2).build();
    ScannableMemory::<u64, DirectArrow>::new(&world, 2, 0).meta()
}

/// Every interleaving of the n=2 update+scan configuration satisfies
/// P1–P3, and the explorer reports its coverage through telemetry.
#[test]
fn exhaustive_n2_update_scan_interleavings_satisfy_p1_p3() {
    let meta = snapshot_meta();
    let cfg = ExploreConfig {
        max_steps: 40,
        max_schedules: 500_000,
        // P1–P3 consume note timestamps, so only the read/read relation is
        // a sound basis for pruning here (see `Independence`).
        independence: Independence::ReadsOnly,
        ..ExploreConfig::default()
    };
    let rep = explore(&cfg, snapshot_factory(), |r| {
        let history = r.history.as_ref().expect("lockstep records history");
        let check = check_history(history, &meta);
        check
            .violations
            .first()
            .map(|v| format!("snapshot property violated: {v:?}"))
    });
    assert!(
        rep.violation.is_none(),
        "P1–P3 must hold on every schedule: {:?}",
        rep.violation
    );
    assert!(rep.exhausted, "the bounded space must be fully enumerated");
    assert_eq!(rep.truncated, 0, "40 steps must cover the whole workload");
    assert!(rep.schedules > 10, "n=2 update+scan has many interleavings");
    assert!(rep.pruned > 0, "distinct-register accesses must prune");
    assert_eq!(
        rep.telemetry.total(Counter::SchedulesExplored),
        rep.schedules,
        "coverage must be visible in the telemetry plane"
    );
    assert_eq!(rep.telemetry.total(Counter::SchedulesPruned), rep.pruned);
}

/// The intentionally-broken fixture: two honest annotated writers plus a
/// scanner that does ONE naive collect with no retry — torn views are
/// reachable and the checker must catch them.
fn broken_scanner_factory() -> impl FnMut() -> (World, Vec<ProcBody<Vec<u64>>>) {
    || {
        let world = World::builder(3).build();
        // Hand-rolled layout mirroring ScannableMemory: V_i per process,
        // value doubles as the ghost sequence number.
        let v: Vec<_> = (0..3).map(|i| world.reg(format!("V{i}"), 0u64)).collect();
        let mut bodies: Vec<ProcBody<Vec<u64>>> = Vec::new();
        for reg in &v[..2] {
            let reg = reg.clone();
            bodies.push(Box::new(move |ctx| {
                ctx.annotate(labels::UPD_START, vec![1]);
                reg.write_tagged(ctx, 1, 1)?;
                ctx.annotate(labels::UPD_END, vec![1]);
                Ok(vec![])
            }));
        }
        let regs: Vec<_> = v.to_vec();
        bodies.push(Box::new(move |ctx| {
            ctx.annotate(labels::SCAN_START, vec![]);
            let mut view = Vec::with_capacity(3);
            for reg in &regs {
                view.push(reg.read(ctx)?);
            }
            ctx.annotate(labels::SCAN_END, view.clone());
            Ok(view)
        }));
        (world, bodies)
    }
}

fn broken_meta() -> SnapshotMeta {
    SnapshotMeta {
        value_regs: vec![0, 1, 2],
    }
}

fn broken_check(r: &bprc::sim::world::RunReport<Vec<u64>>) -> Option<String> {
    let history = r.history.as_ref().expect("lockstep records history");
    let check = check_history(history, &broken_meta());
    check
        .violations
        .first()
        .map(|v| format!("snapshot property violated: {v:?}"))
}

/// End-to-end counterexample flow: explore → violation → confirm (shrink
/// → serialize → parse → replay twice) → same violation.
#[test]
fn broken_scanner_yields_shrunk_replayable_counterexample() {
    let cfg = ExploreConfig {
        independence: Independence::ReadsOnly,
        ..ExploreConfig::default()
    };
    let rep = explore(&cfg, broken_scanner_factory(), broken_check);
    let cex = rep
        .violation
        .expect("a single-collect scanner cannot be linearizable under every schedule");
    assert!(
        cex.description.contains("NotInstantaneous"),
        "torn view expected, got: {}",
        cex.description
    );

    // Confirm: shrink, serialize, parse back byte-identically, and replay
    // twice to the same history and the same violation.
    let full_len = cex.trace.decisions.len();
    let confirmed = cex.confirm(&mut broken_scanner_factory(), &mut broken_check);
    assert!(confirmed.shrink_runs > 0);
    if let Err(e) = confirmed.verdict {
        panic!("{e}");
    }
    assert!(
        confirmed.trace.decisions.len() < full_len,
        "the explorer's first violating schedule ({full_len} decisions) is not minimal"
    );
    let (replayed, _) = run_trace(&mut broken_scanner_factory(), &confirmed.trace);
    let verdict = broken_check(&replayed).expect("replay must reproduce the violation");
    assert!(verdict.contains("NotInstantaneous"), "{verdict}");
}

/// The honest double-collect scanner, explored exhaustively with the same
/// checker that catches the broken one — guards against the fixture test
/// passing for the wrong reason (an over-eager checker).
#[test]
fn honest_scanner_passes_the_broken_fixture_checker() {
    let meta = snapshot_meta();
    let cfg = ExploreConfig {
        max_steps: 40,
        max_schedules: 20_000,
        independence: Independence::ReadsOnly,
        ..ExploreConfig::default()
    };
    let rep = explore(&cfg, snapshot_factory(), |r| {
        let history = r.history.as_ref().unwrap();
        check_history(history, &meta)
            .violations
            .first()
            .map(|v| format!("{v:?}"))
    });
    assert!(rep.violation.is_none(), "{:?}", rep.violation);
}

/// Reduction soundness on the real stack: the reduced exploration reaches
/// exactly the set of outcomes (scan views + halt patterns) that the full
/// enumeration reaches.
#[test]
fn reduction_reaches_every_outcome_of_full_enumeration() {
    // A smaller workload so the unreduced enumeration stays fast: one
    // updater, one scanner.
    let factory = || {
        let world = World::builder(2).build();
        let mem = ScannableMemory::<u64, DirectArrow>::new(&world, 2, 0);
        let mut upd = mem.port(0);
        let mut scn = mem.port(1);
        let bodies: Vec<ProcBody<Vec<u64>>> = vec![
            Box::new(move |ctx| {
                upd.update(ctx, 7)?;
                Ok(vec![])
            }),
            Box::new(move |ctx| scn.scan(ctx)),
        ];
        (world, bodies)
    };
    let outcomes = |reduction: bool| {
        let cfg = ExploreConfig {
            max_steps: 40,
            max_schedules: 100_000,
            reduction,
            ..ExploreConfig::default()
        };
        let mut seen: Vec<Vec<Option<Vec<u64>>>> = Vec::new();
        let rep = explore(&cfg, factory, |r| {
            if !seen.contains(&r.outputs) {
                seen.push(r.outputs.clone());
            }
            None
        });
        assert!(rep.exhausted, "reduction={reduction}");
        seen.sort();
        (seen, rep.schedules)
    };
    let (full, full_count) = outcomes(false);
    let (reduced, reduced_count) = outcomes(true);
    assert_eq!(full, reduced, "reduction lost a reachable outcome");
    assert!(
        reduced_count <= full_count,
        "reduction must not add schedules ({reduced_count} vs {full_count})"
    );
}

/// A PCT sweep over the same snapshot workload at n=4: no schedule in 1k
/// samples violates P1–P3 (the CI smoke runs the bench-side twin of this).
#[test]
fn pct_sampling_at_n4_stays_clean() {
    use bprc::sim::sched::PctStrategy;
    let world_meta = {
        let world = World::builder(4).build();
        ScannableMemory::<u64, DirectArrow>::new(&world, 4, 0).meta()
    };
    for seed in 0..100u64 {
        let mut world = World::builder(4).step_limit(5_000).build();
        let mem = ScannableMemory::<u64, DirectArrow>::new(&world, 4, 0);
        let bodies: Vec<ProcBody<Vec<u64>>> = (0..4)
            .map(|pid| {
                let mut port = mem.port(pid);
                let b: ProcBody<Vec<u64>> = Box::new(move |ctx| {
                    port.update(ctx, pid as u64 + 1)?;
                    port.scan(ctx)
                });
                b
            })
            .collect();
        let rep = world.run(bodies, Box::new(PctStrategy::new(seed, 4, 3, 200)));
        let check = check_history(rep.history.as_ref().unwrap(), &world_meta);
        assert!(
            check.violations.is_empty(),
            "seed {seed}: {:?}",
            check.violations
        );
    }
}

/// Replaying an explorer trace through `FnStrategy` manually (the
/// documented quick-start pattern) reaches the recorded outcome.
#[test]
fn manual_fn_strategy_replay_matches_run_trace() {
    let cfg = ExploreConfig {
        independence: Independence::ReadsOnly,
        ..ExploreConfig::default()
    };
    let rep = explore(&cfg, broken_scanner_factory(), broken_check);
    let cex = rep.violation.unwrap();
    let mut idx = 0usize;
    let decisions = cex.trace.decisions.clone();
    let strategy = bprc::sim::sched::FnStrategy::new(move |view: &bprc::sim::ScheduleView<'_>| {
        while idx < decisions.len() {
            let decision = decisions[idx];
            idx += 1;
            if decision.legal(view) {
                return decision;
            }
        }
        Decision::Grant(view.runnable[0])
    });
    let (mut world, bodies) = broken_scanner_factory()();
    let manual = world.run(bodies, Box::new(strategy));
    assert!(
        broken_check(&manual).is_some(),
        "manual replay must reproduce"
    );
}
