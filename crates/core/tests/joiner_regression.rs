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

use bprc_core::adversaries::HoldDeciders;
use bprc_core::bounded::{BoundedCore, ConsensusParams};
use bprc_core::multishot::{LogCore, StaticProposals};
use bprc_core::ProcState;
use bprc_sim::rng::derive_seed;
use bprc_sim::sched::RandomStrategy;
use bprc_sim::turn::{Phase, TurnDriver};
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

/// An open finding, pinned where it shows. The degraded-mode gate switches
/// to the direct-edge rule only on a positive cycle, so a *consistent*
/// graph that is no token-game state — an unsaturated edge understating a
/// longer path — still gets the max-path gate, whose exactness assumes a
/// position graph. Nothing argues that the gate cannot stall there. This
/// seed of the hold-the-deciders adversary at n = 4 publishes such a graph,
/// a process scans it, and the run still completes and agrees; if the gate
/// ever stalls on one, this is where it should show first.
#[test]
fn consistent_non_position_graph_is_scanned_and_survived() {
    let (n, seed) = (4, 136u64);
    let params = ConsensusParams::quick(n);
    let k = params.k();
    let procs: Vec<BoundedCore> = (0..n)
        .map(|p| BoundedCore::new(params.clone(), p, p % 2 == 0, derive_seed(seed, p as u64)))
        .collect();
    let off_positions = |shared: &[ProcState]| {
        let rows = shared.iter().map(|s| s.edges().collect::<Vec<u32>>());
        let closure = EdgeCounters::from_rows(rows, k).make_graph().closure();
        closure.is_consistent() && !closure.by_positions()
    };
    let (mut published, mut scanned) = (0u64, 0u64);
    let mut was_off = false;
    let mut was_scanning = vec![false; n];
    let r = TurnDriver::new(procs).run_observed(&mut HoldDeciders::new(seed), 2_000_000, |d| {
        let scanning: Vec<bool> = d
            .phases()
            .iter()
            .map(|ph| matches!(ph, Phase::Scan))
            .collect();
        // A scan leaves the registers as they were: whoever left the scan
        // phase in this event read the state the last event left.
        if was_off && was_scanning.iter().zip(&scanning).any(|(&a, &b)| a && !b) {
            scanned += 1;
        }
        let off = off_positions(d.shared());
        published += u64::from(off && !was_off);
        (was_off, was_scanning) = (off, scanning);
    });
    assert!(
        published > 0,
        "seed {seed}: no consistent non-position graph was published"
    );
    assert!(
        scanned > 0,
        "seed {seed}: no process scanned the non-position graph"
    );
    assert!(
        r.completed,
        "seed {seed}: the max-path gate stalled on a non-position graph"
    );
    assert_eq!(r.distinct_outputs().len(), 1, "seed {seed}");
    eprintln!(
        "PROBE published {published} scanned {scanned} events {}",
        r.events
    );
}
