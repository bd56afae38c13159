//! The cache-packing mechanisms must be observationally invisible.
//!
//! Two of them ship together: the packed value registers (`alloc_fast`
//! puts them on value-slab lanes) and the version-token batched collect.
//! Each changes *how memory is touched* — how many cache lines a collect
//! sweeps, whether a payload is re-cloned — and neither may change what any
//! process observes. These tests pin that claim where it is strongest,
//! against the locked value cells `alloc` allocates (both constructors go
//! through one `build`, so register ids line up; the arrows are bit-packed
//! either way and meet their locked oracle at the register level, in
//! `crates/sim/tests/seqlock_adversarial.rs`):
//!
//! 1. **Exhaustively** — every explorer-enumerated schedule of a small
//!    update+scan configuration produces identical per-schedule
//!    fingerprints (outputs, step counts, recorded histories) over
//!    `alloc_fast` and `alloc`, and satisfies P1–P3 on each.
//! 2. **Under crashes** — PCT-sampled schedules with injected crash
//!    faults are allocation-invariant and keep P1–P3.
//!
//! The optimized scan's equivalence with the reference `scan_legacy` lives
//! in the `scan_equivalence` test module of `crates/snapshot/src/memory.rs`.

use bprc::registers::DirectArrow;
use bprc::sim::explore::{explore, ExploreConfig, Independence};
use bprc::sim::sched::PctStrategy;
use bprc::sim::world::ProcBody;
use bprc::sim::World;
use bprc::snapshot::{check_history, ScannableMemory};

type Memory = ScannableMemory<u64, DirectArrow>;

/// A memory constructor: [`ScannableMemory::new_fast`] (slab lanes) or
/// [`ScannableMemory::new`] (the locked oracle).
type Alloc = fn(&World, usize, u64) -> Memory;

/// One explored schedule's observables: outputs, step count, the history
/// as JSONL.
type Fingerprint = (Vec<Option<Vec<u64>>>, u64, String);

/// Enumerates every schedule of the n=2 update+scan configuration over
/// the memory `alloc` builds, checking P1–P3 on each and fingerprinting
/// each run.
fn explore_alloc(what: &str, alloc: Alloc) -> (Vec<Fingerprint>, u64) {
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
#[test]
fn exhaustive_snapshot_exploration_is_allocation_invariant_handshake() {
    let (fast, fast_n) = explore_alloc("alloc_fast", Memory::new_fast);
    let (locked, locked_n) = explore_alloc("alloc", Memory::new);
    assert!(fast_n > 10, "n=2 update+scan has many interleavings");
    assert_eq!(fast_n, locked_n);
    assert_eq!(
        fast, locked,
        "some schedule distinguishes alloc_fast from alloc observationally"
    );
}

/// One PCT-sampled crash schedule of the real stack over the memory `alloc`
/// builds: three processes interleave updates and scans while one PCT fault
/// point crashes the leading process. Returns the full observable
/// fingerprint; P1–P3 are asserted inline (the checker understands crashed
/// updates).
fn pct_crash_run(what: &str, alloc: Alloc, seed: u64) -> (Vec<Option<u64>>, u64, String) {
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
    let check = check_history(history, &mem.meta());
    assert!(
        check.violations.is_empty(),
        "{what} seed {seed}: {:?}",
        check.violations
    );
    (rep.outputs.clone(), rep.steps, history.to_jsonl())
}

/// PCT schedules with injected crashes are decided by step counts, which
/// the packing never changes — so the same seed must produce the same
/// crash, the same survivors and the same history on both value-register
/// backings: the slab lanes `alloc_fast` allocates and the locked cells of
/// `alloc`.
#[test]
fn pct_crash_schedules_are_allocation_invariant_for_both_backends() {
    for seed in [0, 1, 7, 42, 99] {
        assert_eq!(
            pct_crash_run("alloc_fast", Memory::new_fast, seed),
            pct_crash_run("alloc", Memory::new, seed),
            "seed {seed}: alloc_fast vs alloc"
        );
    }
}
