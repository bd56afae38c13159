//! Regression tests for the stale-scan strip-corruption livelock.
//!
//! A process advances its edge-counter row based on a scan; a laggard's
//! concurrent catch-up write can land in between, and the combined rows
//! decode to a configuration that is no legal token-game state (a positive
//! cycle). Cyclically inflated max-path distances then freeze all further
//! catch-up — a livelock (reproduced at ~2% of random multishot schedules).
//! The fix is the degraded-mode gate in
//! [`bprc_strip::DistanceGraph::should_advance`]; these tests pin both the
//! mechanism and the recovery.

use bprc_core::bounded::ConsensusParams;
use bprc_core::multishot::{LogCore, StaticProposals};
use bprc_sim::sched::RandomStrategy;
use bprc_sim::turn::TurnDriver;
use bprc_strip::EdgeCounters;

/// The exact configuration that livelocked before the fix (found by the
/// multishot property test, minimized by a seed sweep).
#[test]
fn seed_73_multishot_regression() {
    let n = 3;
    let seed = 73u64;
    let params = ConsensusParams::quick(n);
    let proposals: Vec<Vec<u64>> = (0..n).map(|p| vec![(p * 37) as u64 & 0xFF]).collect();
    let procs: Vec<LogCore<StaticProposals>> = (0..n)
        .map(|p| {
            LogCore::new(
                params.clone(),
                p,
                1,
                8,
                StaticProposals(proposals[p].clone()),
                seed ^ (p as u64) << 33,
            )
        })
        .collect();
    let r = TurnDriver::new(procs).run(&mut RandomStrategy::new(seed), 2_000_000);
    assert!(r.completed, "regression: seed 73 livelocked again");
    assert_eq!(r.distinct_outputs().len(), 1);
}

/// Demonstrates the root cause directly: the stale-scan race. A process
/// advances its row from a scan in which a laggard had not yet caught up;
/// the laggard's concurrent catch-up lands first. The combined rows decode
/// to a positive cycle — a configuration no sequential token-game play
/// produces — and without the degraded-mode gate the laggard could then be
/// frozen out forever.
#[test]
fn stale_scan_race_corrupts_and_degraded_mode_recovers() {
    let k = 2u32;
    // Hand-built race outcome (taken from a real stuck run, slot-1 level-0):
    // r0 advanced vs r1 (its scan showed r2 capped at K) while r2's
    // catch-up write landed in between.
    let counters = EdgeCounters::from_rows([[0u32, 3, 2], [1, 0, 1], [1, 1, 0]], k);
    let g = counters.make_graph();
    assert!(
        g.validate().is_err(),
        "the raced rows must decode inconsistently, got {:?}",
        g.validate()
    );

    // Without the degraded mode, the laggard (r2 here, or whoever sits
    // below the cycle) could be unable to advance against some peer. With
    // it, every process can advance against everyone at-or-above it, so the
    // configuration drains back to consistency: repeatedly advancing the
    // worst-off process must terminate in a consistent graph.
    let mut c = counters.clone();
    for _ in 0..50 {
        let g = c.make_graph();
        if g.validate().is_ok() {
            break;
        }
        // Advance the process with the fewest leaderships.
        let p = (0..3)
            .min_by_key(|&i| (0..3).filter(|&j| g.delta(i, j) >= 0).count())
            .unwrap();
        c.inc_graph(p);
    }
    let g = c.make_graph();
    g.validate()
        .expect("degraded-mode catch-up must drain the cycle");
}

/// Staggered joins at every offset complete and agree.
#[test]
fn staggered_joins_always_terminate() {
    for lead in 0..6u64 {
        for seed in 0..10u64 {
            let n = 3;
            let params = ConsensusParams::quick(n);
            // Simulate stagger through the multishot projection: run a
            // 2-slot log where replicas are forced apart by seeds.
            let procs: Vec<LogCore<StaticProposals>> = (0..n)
                .map(|p| {
                    LogCore::new(
                        params.clone(),
                        p,
                        2,
                        4,
                        StaticProposals(vec![p as u64, (p as u64 + lead) & 0xF]),
                        seed * 1009 + p as u64 * 97 + lead,
                    )
                })
                .collect();
            let r =
                TurnDriver::new(procs).run(&mut RandomStrategy::new(seed * 31 + lead), 10_000_000);
            assert!(r.completed, "lead {lead} seed {seed}: livelock");
            assert_eq!(r.distinct_outputs().len(), 1, "lead {lead} seed {seed}");
        }
    }
}
