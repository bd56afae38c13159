//! The cache-packing mechanisms must be observationally invisible.
//!
//! Three of them shipped together: the packed value registers (`alloc_fast`
//! puts them on value-slab lanes), the version-token batched collect, and
//! the lazy scan-reuse mode. Each changes *how memory is touched* — how
//! many cache lines a collect sweeps, whether a payload is re-cloned,
//! whether a scan runs at all — and none may change what any process
//! observes. These tests pin that claim where it is strongest, against the
//! locked value cells `alloc` allocates (both constructors go through one
//! `build`, so register ids line up; the arrows are bit-packed either way
//! and meet their locked oracle at the register level, in
//! `crates/sim/tests/seqlock_adversarial.rs`):
//!
//! 1. **Exhaustively** — every explorer-enumerated schedule of a small
//!    update+scan configuration produces identical per-schedule
//!    fingerprints (outputs, step counts, recorded histories) over
//!    `alloc_fast` and `alloc`, and satisfies P1–P3 on each, for both
//!    snapshot backends.
//! 2. **Under crashes** — PCT-sampled schedules with injected crash
//!    faults are allocation-invariant and keep P1–P3, for both snapshot
//!    backends.
//! 3. **Lazily** — scans with view reuse enabled agree with `scan_legacy`
//!    action-by-action under an action-atomic adversary, whole lazy runs
//!    agree with eager runs, and crash points landing around reused views
//!    (FaultPlan × OpGrained) never produce a P1–P3 violation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bprc::registers::DirectArrow;
use bprc::sim::explore::{explore, ExploreConfig, Independence};
use bprc::sim::sched::{FnStrategy, PctStrategy, SoloBursts};
use bprc::sim::world::ProcBody;
use bprc::sim::{Counter, Decision, FaultPlan, FaultedStrategy, ScheduleView, World};
use bprc::snapshot::{
    check_backend_history, check_history, OpGrained, ScannableMemory, SnapshotBackend,
    SnapshotPort, WaitFreeSnapshot,
};

/// A snapshot constructor: [`SnapshotBackend::alloc_fast`] (slab lanes) or
/// [`SnapshotBackend::alloc`] (the locked oracle).
type Alloc<B> = fn(&World, usize, u64) -> B;

/// Minimal deterministic generator so the test needs no external crates.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// One explored schedule's observables: outputs, step count, the history
/// as JSONL.
type Fingerprint = (Vec<Option<Vec<u64>>>, u64, String);

/// Enumerates every schedule of the n=2 update+scan configuration over
/// the memory `alloc` builds, checking P1–P3 on each and fingerprinting
/// each run.
fn explore_alloc<B: SnapshotBackend<u64>>(what: &str, alloc: Alloc<B>) -> (Vec<Fingerprint>, u64) {
    let factory = move || {
        let world = World::builder(2).seed(0).build();
        let mem = alloc(&world, 2, 0);
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
    };
    let meta = alloc(&World::builder(2).build(), 2, 0).meta();
    let cfg = ExploreConfig {
        max_steps: 40,
        max_schedules: 500_000,
        // P1–P3 consume note timestamps, so only the read/read relation is
        // a sound basis for pruning here (see `Independence`).
        independence: Independence::ReadsOnly,
        ..ExploreConfig::default()
    };
    let mut fingerprints: Vec<Fingerprint> = Vec::new();
    let rep = explore(&cfg, factory, |r| {
        let history = r.history.as_ref().expect("lockstep records history");
        let check = check_history(history, &meta);
        if let Some(v) = check.violations.first() {
            return Some(format!("{what}: snapshot property violated: {v:?}"));
        }
        fingerprints.push((r.outputs.clone(), r.steps, history.to_jsonl()));
        None
    });
    assert!(rep.violation.is_none(), "{:?}", rep.violation);
    assert!(rep.exhausted, "{what}: space must be enumerated");
    assert_eq!(rep.truncated, 0, "40 steps must cover the whole workload");
    // The DFS may visit equivalent schedules in another order, so the
    // invariant is set equality, not sequence equality.
    fingerprints.sort();
    (fingerprints, rep.schedules)
}

/// The strongest form of the packing claim: not just along sampled seeds
/// but along *all* schedules of the bounded workload, `alloc_fast` is
/// indistinguishable — schedule by schedule — from `alloc`, and every
/// schedule satisfies P1–P3.
fn exhaustive_exploration_is_allocation_invariant<B: SnapshotBackend<u64>>() {
    let (fast, fast_n) = explore_alloc::<B>("alloc_fast", B::alloc_fast);
    let (locked, locked_n) = explore_alloc::<B>("alloc", B::alloc);
    assert!(fast_n > 10, "n=2 update+scan has many interleavings");
    assert_eq!(fast_n, locked_n);
    assert_eq!(
        fast,
        locked,
        "{}: some schedule distinguishes alloc_fast from alloc observationally",
        B::NAME
    );
}

#[test]
fn exhaustive_snapshot_exploration_is_allocation_invariant_handshake() {
    exhaustive_exploration_is_allocation_invariant::<ScannableMemory<u64, DirectArrow>>();
}

#[test]
fn exhaustive_snapshot_exploration_is_allocation_invariant_waitfree() {
    exhaustive_exploration_is_allocation_invariant::<WaitFreeSnapshot<u64>>();
}

/// One PCT-sampled crash schedule of the real stack over the memory `alloc`
/// builds: three processes interleave updates and scans while one PCT fault
/// point crashes the leading process. Returns the full observable
/// fingerprint; P1–P3 are asserted inline (the checker understands crashed
/// updates).
fn pct_crash_run<B: SnapshotBackend<u64>>(
    what: &str,
    alloc: Alloc<B>,
    seed: u64,
) -> (Vec<Option<u64>>, u64, String) {
    let n = 3;
    let mut world = World::builder(n).seed(seed).step_limit(2_000_000).build();
    let mem = alloc(&world, n, 0);
    let bodies: Vec<ProcBody<u64>> = (0..n)
        .map(|pid| {
            let mut port = mem.port(pid);
            let b: ProcBody<u64> = Box::new(move |ctx| {
                let mut view: Vec<u64> = Vec::new();
                for k in 0..2u64 {
                    port.update(ctx, (pid as u64 + 1) * 100 + k)?;
                    port.scan_into(ctx, &mut view)?;
                }
                Ok(view.iter().sum::<u64>())
            });
            b
        })
        .collect();
    let rep = world.run(
        bodies,
        Box::new(PctStrategy::with_faults(seed, n, 1, 600, 1)),
    );
    let history = rep.history.as_ref().expect("lockstep records history");
    let check = check_backend_history(history, &mem);
    assert!(
        check.violations.is_empty(),
        "{what} seed {seed}: {:?}",
        check.violations
    );
    (rep.outputs.clone(), rep.steps, history.to_jsonl())
}

/// PCT schedules with injected crashes are decided by step counts, which
/// the packing never changes — so the same seed must produce the same
/// crash, the same survivors, and the same history over `alloc_fast` and
/// `alloc`, for both snapshot constructions.
fn pct_crash_schedules_are_allocation_invariant<B: SnapshotBackend<u64>>() {
    for seed in [0, 1, 7, 42, 99] {
        assert_eq!(
            pct_crash_run::<B>("alloc_fast", B::alloc_fast, seed),
            pct_crash_run::<B>("alloc", B::alloc, seed),
            "{} seed {seed}: alloc_fast vs alloc",
            B::NAME
        );
    }
}

#[test]
fn pct_crash_schedules_are_allocation_invariant_for_both_backends() {
    pct_crash_schedules_are_allocation_invariant::<ScannableMemory<u64, DirectArrow>>();
    pct_crash_schedules_are_allocation_invariant::<WaitFreeSnapshot<u64>>();
}

/// Every process owns a *lazy* port and performs a seeded sequence of
/// actions: an update, or a back-to-back triple of lazy reuse scan, legacy
/// scan, and allocating scan (itself on the lazy path, so it must reuse
/// the view the first scan just validated). The strategy grants each
/// chosen process a whole action atomically, so all scans in a triple
/// observe the same memory: any divergence is a reuse bug, while other
/// processes' updates between a process's actions keep invalidating views
/// and forcing fresh probes.
fn lazy_action_equivalence(seed: u64) -> u64 {
    let n = 4;
    let mut world = World::builder(n).seed(seed).step_limit(2_000_000).build();
    let mem = ScannableMemory::<u64, DirectArrow>::new_fast(&world, n, 0);
    let actions: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
    let bodies: Vec<ProcBody<()>> = (0..n)
        .map(|i| {
            let mut port = mem.port(i);
            let acts = Arc::clone(&actions);
            let b: ProcBody<()> = Box::new(move |ctx| {
                port.set_lazy(true);
                let mut rng = seed.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64 + 1);
                let mut reuse_view: Vec<u64> = Vec::new();
                for step in 0..25u64 {
                    if lcg(&mut rng) % 3 != 0 {
                        port.update(ctx, (i as u64 + 1) * 10_000 + step)?;
                    } else {
                        port.scan_into(ctx, &mut reuse_view)?;
                        let legacy_view = port.scan_legacy(ctx)?;
                        assert_eq!(
                            reuse_view, legacy_view,
                            "seed {seed} pid {i} step {step}: lazy scan diverged from legacy"
                        );
                        let alloc_view = port.scan(ctx)?;
                        assert_eq!(
                            alloc_view, legacy_view,
                            "seed {seed} pid {i} step {step}: reused view diverged"
                        );
                    }
                    acts[i].fetch_add(1, Ordering::Relaxed);
                }
                Ok(())
            });
            b
        })
        .collect();
    // Grant whole actions: stick with the current process until its action
    // counter advances (or it finishes), then pick the next one at random.
    let acts = Arc::clone(&actions);
    let mut rng = seed.wrapping_mul(0xA24B_AED4).wrapping_add(7);
    let mut cur: Option<(usize, u64)> = None;
    let strategy = FnStrategy::new(move |view: &ScheduleView<'_>| {
        let done = match cur {
            Some((p, since)) => {
                !view.runnable.contains(&p) || acts[p].load(Ordering::Relaxed) > since
            }
            None => true,
        };
        if done {
            let p = view.runnable[(lcg(&mut rng) as usize) % view.runnable.len()];
            cur = Some((p, acts[p].load(Ordering::Relaxed)));
        }
        Decision::Grant(cur.unwrap().0)
    });
    let rep = world.run(bodies, Box::new(strategy));
    assert_eq!(rep.decided_count(), n, "seed {seed}: run halted early");
    (0..n)
        .map(|p| rep.telemetry.counter(p, Counter::LazyScanHits))
        .sum()
}

#[test]
fn lazy_scan_triples_match_legacy_under_action_atomic_schedules() {
    let mut hits = 0;
    for seed in 0..30 {
        hits += lazy_action_equivalence(seed);
    }
    // Each triple's third scan probes memory untouched since its first
    // (actions are atomic), so the reuse path must actually fire.
    assert!(hits > 0, "no scan ever took the reuse path");
}

/// Whole-run cross-world check: the same solo-burst schedule with lazy
/// reuse on and off must produce identical view sequences, for both
/// backends. Giant bursts make each process run alone for its whole body,
/// so the action interleaving is pinned regardless of how many register
/// accesses each scan performs — exactly the regime where lazy reuse fires
/// constantly (nothing changes between a process's own scans).
fn lazy_and_eager_runs_agree<B: SnapshotBackend<u64>>() {
    let n = 3;
    let rounds = 5u64;
    let run = |lazy: bool, seed: u64| -> (Vec<Option<Vec<Vec<u64>>>>, u64) {
        let mut world = World::builder(n).seed(seed).step_limit(2_000_000).build();
        let mem = B::alloc_fast(&world, n, 0u64);
        let bodies: Vec<ProcBody<Vec<Vec<u64>>>> = (0..n)
            .map(|i| {
                let mut port = mem.port(i);
                let b: ProcBody<Vec<Vec<u64>>> = Box::new(move |ctx| {
                    port.set_lazy(lazy);
                    let mut views = Vec::new();
                    let mut view: Vec<u64> = Vec::new();
                    for k in 0..rounds {
                        port.update(ctx, (i as u64 + 1) * 1000 + k)?;
                        port.scan_into(ctx, &mut view)?;
                        views.push(view.clone());
                        // A second scan with no write in between: the lazy
                        // side must reuse, the eager side re-collects, and
                        // both must see the same memory.
                        port.scan_into(ctx, &mut view)?;
                        views.push(view.clone());
                    }
                    Ok(views)
                });
                b
            })
            .collect();
        let rep = world.run(bodies, Box::new(SoloBursts::new(100_000)));
        let hits = (0..n)
            .map(|p| rep.telemetry.counter(p, Counter::LazyScanHits))
            .sum();
        (rep.outputs, hits)
    };
    for seed in [0, 3, 17, 91] {
        let (lazy_views, lazy_hits) = run(true, seed);
        let (eager_views, eager_hits) = run(false, seed);
        assert_eq!(
            lazy_views, eager_views,
            "seed {seed}: lazy and eager runs diverged"
        );
        assert!(lazy_hits > 0, "seed {seed}: reuse never fired");
        assert_eq!(eager_hits, 0, "seed {seed}: reuse is opt-in");
    }
}

#[test]
fn lazy_runs_match_eager_runs_handshake() {
    lazy_and_eager_runs_agree::<ScannableMemory<u64, DirectArrow>>();
}

#[test]
fn lazy_runs_match_eager_runs_waitfree() {
    lazy_and_eager_runs_agree::<WaitFreeSnapshot<u64>>();
}

/// Crash points swept across a lazy-port run (FaultPlan composed with the
/// op-grained strategy, so crashes land on operation boundaries): whatever
/// mix of fresh collects and reused views each crash position leaves
/// behind, the recorded history must still satisfy P1–P3 and the survivor
/// must finish.
fn lazy_crash_sweep<B: SnapshotBackend<u64>>() {
    for crash_step in [2u64, 7, 19, 33, 48] {
        let mut world = World::builder(2).build();
        let mem = B::alloc_fast(&world, 2, 0u64);
        let bodies: Vec<ProcBody<u64>> = (0..2)
            .map(|pid| {
                let mut port = mem.port(pid);
                let b: ProcBody<u64> = Box::new(move |ctx| {
                    port.set_lazy(true);
                    let mut view: Vec<u64> = Vec::new();
                    for k in 0..4u64 {
                        port.update(ctx, (pid as u64 + 1) * 10 + k)?;
                        port.scan_into(ctx, &mut view)?;
                        // Back-to-back scan: a reuse candidate right where
                        // the crash point may land.
                        port.scan_into(ctx, &mut view)?;
                    }
                    Ok(view.iter().sum::<u64>())
                });
                b
            })
            .collect();
        let plan = FaultPlan::new().crash_at(crash_step, 0);
        let rep = world.run(
            bodies,
            Box::new(FaultedStrategy::new(OpGrained::new(&mem), plan)),
        );
        let history = rep.history.as_ref().expect("lockstep records history");
        let check = check_backend_history(history, &mem);
        assert!(
            check.violations.is_empty(),
            "crash@{crash_step}: {:?}",
            check.violations
        );
        assert!(
            rep.outputs[1].is_some(),
            "crash@{crash_step}: survivor must finish"
        );
    }
}

#[test]
fn crashes_around_reused_views_keep_p1_p3_handshake() {
    lazy_crash_sweep::<ScannableMemory<u64, DirectArrow>>();
}

#[test]
fn crashes_around_reused_views_keep_p1_p3_waitfree() {
    lazy_crash_sweep::<WaitFreeSnapshot<u64>>();
}
