//! End-to-end verification of P1–P3 on real interleavings.
//!
//! Runs the scannable memory under many random lockstep schedules (both
//! arrow implementations, with and without crashes) and checks every
//! recorded history with the offline checker.

use bprc_registers::{ArrowCell, DirectArrow, HandshakeArrow};
use bprc_sim::faults::{FaultPlan, FaultedStrategy};
use bprc_sim::sched::{RandomStrategy, SoloBursts};
use bprc_sim::world::ProcBody;
use bprc_sim::{Strategy, World};
use bprc_snapshot::{check_history, ScannableMemory};

/// Each process interleaves updates and scans; returns its scan views.
fn bodies_for<A: ArrowCell>(
    mem: &ScannableMemory<u64, A>,
    n: usize,
    rounds: u64,
) -> Vec<ProcBody<Vec<Vec<u64>>>> {
    (0..n)
        .map(|i| {
            let mut port = mem.port(i);
            let b: ProcBody<Vec<Vec<u64>>> = Box::new(move |ctx| {
                let mut views = Vec::new();
                for k in 0..rounds {
                    port.update(ctx, (i as u64 + 1) * 1000 + k)?;
                    views.push(port.scan(ctx)?);
                }
                Ok(views)
            });
            b
        })
        .collect()
}

fn check_under<A: ArrowCell>(n: usize, rounds: u64, strategy: Box<dyn Strategy>, seed: u64) {
    let mut world = World::builder(n).step_limit(2_000_000).build();
    let mem = ScannableMemory::<u64, A>::new(&world, n, 0);
    let meta = mem.meta();
    let bodies = bodies_for(&mem, n, rounds);
    let report = world.run(bodies, strategy);
    let history = report.history.expect("lockstep records history");
    let check = check_history(&history, &meta);
    assert!(
        check.ok(),
        "seed {seed}: snapshot violations: {:?}",
        check.violations
    );
    assert!(check.scans > 0, "seed {seed}: no scans completed");
}

#[test]
fn p1_p3_hold_direct_random_schedules() {
    for seed in 0..40 {
        check_under::<DirectArrow>(3, 4, Box::new(RandomStrategy::new(seed)), seed);
    }
}

#[test]
fn p1_p3_hold_handshake_random_schedules() {
    for seed in 0..40 {
        check_under::<HandshakeArrow>(3, 4, Box::new(RandomStrategy::new(seed)), seed);
    }
}

#[test]
fn p1_p3_hold_larger_world() {
    for seed in 0..8 {
        check_under::<DirectArrow>(5, 3, Box::new(RandomStrategy::new(seed)), seed);
        check_under::<HandshakeArrow>(5, 3, Box::new(RandomStrategy::new(seed)), seed);
    }
    // Four processes, six update + scan rounds each.
    for seed in 0..10 {
        check_under::<DirectArrow>(4, 6, Box::new(RandomStrategy::new(seed)), seed);
        check_under::<HandshakeArrow>(4, 6, Box::new(RandomStrategy::new(seed)), seed);
    }
}

#[test]
fn p1_p3_hold_solo_bursts() {
    // Extreme asynchrony: each process runs long solo bursts.
    for burst in [1, 3, 7, 19] {
        check_under::<DirectArrow>(4, 4, Box::new(SoloBursts::new(burst)), burst);
        check_under::<HandshakeArrow>(4, 4, Box::new(SoloBursts::new(burst)), burst);
    }
}

#[test]
fn p1_p3_hold_with_crashes() {
    // Crash one process mid-run; the survivors' scans must still satisfy
    // the properties (crashed writes may be half-finished).
    for seed in 0..20 {
        let plan = FaultPlan::new().crash_at(25 + seed, 0);
        let strategy = FaultedStrategy::new(RandomStrategy::new(seed), plan);
        let mut world = World::builder(3).step_limit(2_000_000).build();
        let mem = ScannableMemory::<u64, HandshakeArrow>::new(&world, 3, 0);
        let meta = mem.meta();
        let bodies = bodies_for(&mem, 3, 4);
        let report = world.run(bodies, Box::new(strategy));
        let history = report.history.expect("history");
        let check = check_history(&history, &meta);
        assert!(
            check.ok(),
            "seed {seed}: violations with crashes: {:?}",
            check.violations
        );
    }
}

#[test]
fn scan_costs_are_linear_when_quiet() {
    // With a single process (no contention), one scan is exactly:
    // (n-1) lowers + 2(n-1) reads + (n-1) arrow checks. Here n = 1, so a
    // scan is free; use n = 3 with two idle processes instead.
    let mut world = World::builder(3).build();
    let mem = ScannableMemory::<u64, DirectArrow>::new(&world, 3, 0);
    let mut port = mem.port(0);
    let _p1 = mem.port(1);
    let _p2 = mem.port(2);
    let bodies: Vec<ProcBody<u64>> = vec![
        Box::new(move |ctx| {
            port.scan(ctx)?;
            Ok(0)
        }),
        Box::new(|_| Ok(0)),
        Box::new(|_| Ok(0)),
    ];
    let report = world.run(bodies, Box::new(RandomStrategy::new(0)));
    // DirectArrow: 2 lowers + 2 reads + 2 reads + 2 arrow reads = 8 ops.
    assert_eq!(report.steps, 8);
}
