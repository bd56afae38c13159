//! Telemetry consistency: the metrics plane must tell the
//! same story as the recorded history in lockstep, stay internally
//! consistent under free-running OS threads (where no history exists),
//! and survive the round trip through the JSONL export.

use bprc::core::bounded::{BoundedCore, ConsensusParams};
use bprc::core::meter::run_metered;
use bprc::core::threaded::ThreadedConsensus;
use bprc::registers::DirectArrow;
use bprc::sim::history::OpKind;
use bprc::sim::sched::RandomStrategy;
use bprc::sim::turn::TurnDriver;
use bprc::sim::{json, Counter, Gauge, Hist, Mode, World};

const SEEDS: [u64; 4] = [3, 17, 101, 4242];

/// Lockstep: every register access counted by the metrics plane is an op
/// recorded in the history, per process and per kind — event for event.
#[test]
fn lockstep_metrics_equal_history_counts() {
    for seed in SEEDS {
        let n = 3;
        let params = ConsensusParams::quick(n);
        let mut world = World::builder(n).seed(seed).step_limit(5_000_000).build();
        let inst =
            ThreadedConsensus::<DirectArrow>::new(&world, &params, &[true, false, true], seed);
        let rep = world.run(inst.bodies, Box::new(RandomStrategy::new(seed)));
        let h = rep.history.as_ref().expect("lockstep records history");
        let t = &rep.telemetry;
        for pid in 0..n {
            let reads = h
                .ops()
                .filter(|&(_, p, k, _, _)| p == pid && k == OpKind::Read)
                .count() as u64;
            let writes = h
                .ops()
                .filter(|&(_, p, k, _, _)| p == pid && k == OpKind::Write)
                .count() as u64;
            assert_eq!(
                t.counter(pid, Counter::RegReads),
                reads,
                "seed {seed} pid {pid}: read counts diverge"
            );
            assert_eq!(
                t.counter(pid, Counter::RegWrites),
                writes,
                "seed {seed} pid {pid}: write counts diverge"
            );
        }
        assert_eq!(
            t.total(Counter::RegReads) + t.total(Counter::RegWrites),
            h.op_count() as u64,
            "seed {seed}: total ops diverge"
        );
        // Scan accounting holds, and with no retry budget nothing starves.
        assert_eq!(
            t.total(Counter::ScanAttempts),
            t.total(Counter::Scans) + t.total(Counter::ScanRetries),
            "seed {seed}: attempts must split into outcomes"
        );
        assert_eq!(t.total(Counter::ScanStarved), 0, "seed {seed}");
    }
}

/// Scans show up in the unified timeline: `render_unified` reads the
/// `scan`/`write` spans off the ring events the snapshot layer records,
/// beside the `round(`/`coin` spans of the protocol's probe bridge.
#[test]
fn scans_visible_in_unified_timeline() {
    use bprc::sim::trace::{render_unified, TraceOptions};
    let n = 3;
    let params = ConsensusParams::quick(n);
    // Whether a given seed's run reaches the coin phase depends on the
    // PRNG stream behind `rand`, so take the first seed that does.
    let rep = (0..32)
        .map(|seed| {
            let mut world = World::builder(n).seed(seed).step_limit(5_000_000).build();
            let inst =
                ThreadedConsensus::<DirectArrow>::new(&world, &params, &[true, false, true], seed);
            world.run(inst.bodies, Box::new(RandomStrategy::new(seed)))
        })
        .find(|rep| rep.telemetry.total(Counter::CoinFlips) > 0)
        .expect("some seed in 0..32 flips the shared coin");
    assert!(rep.outputs.iter().all(|o| o.is_some()));
    let timeline = render_unified(&rep.flight, n, &TraceOptions::default());
    for needle in ["▶ scan", "▶ write", "▶ round(", "▶ coin"] {
        assert!(
            timeline.contains(needle),
            "unified timeline missing {needle:?}:\n{timeline}"
        );
    }
}

/// Free-running OS threads record no history; the counters must still be
/// nonzero and obey the protocol's arithmetic invariants.
#[test]
fn threaded_backend_counters_internally_consistent() {
    for seed in SEEDS {
        let n = 3;
        let params = ConsensusParams::quick(n);
        let mut world = World::builder(n)
            .mode(Mode::Free)
            .step_limit(u64::MAX)
            .build();
        let inst =
            ThreadedConsensus::<DirectArrow>::new(&world, &params, &[false, true, false], seed);
        let rep = world.run(inst.bodies, Box::new(RandomStrategy::new(seed)));
        assert!(rep.history.is_none(), "free mode records no history");
        assert!(rep.outputs.iter().all(|o| o.is_some()), "seed {seed}");
        let t = &rep.telemetry;
        assert!(t.total(Counter::RegReads) > 0, "seed {seed}");
        assert!(t.total(Counter::RegWrites) > 0, "seed {seed}");
        // Scan accounting: attempts dominate successes and retries, and in
        // a clean (fully decided) run they split exactly.
        let attempts = t.total(Counter::ScanAttempts);
        let scans = t.total(Counter::Scans);
        let retries = t.total(Counter::ScanRetries);
        assert!(attempts >= scans, "seed {seed}");
        assert!(attempts >= retries, "seed {seed}");
        assert_eq!(
            attempts,
            scans + retries + t.total(Counter::ScanStarved),
            "seed {seed}: attempts must split into outcomes"
        );
        assert_eq!(t.total(Counter::Decisions), n as u64, "seed {seed}");
        assert_eq!(
            t.hist_merged(Hist::DecisionLatencyNs).count(),
            t.total(Counter::Decisions),
            "seed {seed}: one decision-latency sample per decision"
        );
        for pid in 0..n {
            // Decided processes published a positive round via the probe
            // bridge.
            assert!(
                t.gauge(pid, Gauge::Round).unwrap_or(0) > 0,
                "seed {seed} pid {pid}: decided but round gauge empty"
            );
        }
        assert!(t.total(Counter::RoundAdvances) >= n as u64, "seed {seed}");
    }
}

/// Both backends agree on the protocol-level story for the same instance
/// shape: positive rounds, scans, and round advances everywhere.
#[test]
fn turn_driver_telemetry_matches_backend_invariants() {
    for seed in SEEDS {
        let n = 3;
        let params = ConsensusParams::quick(n);
        let procs: Vec<BoundedCore> = (0..n)
            .map(|p| BoundedCore::new(params.clone(), p, p % 2 == 0, seed * 31 + p as u64))
            .collect();
        let rep = TurnDriver::new(procs).run(&mut RandomStrategy::new(seed), 5_000_000);
        assert!(rep.completed, "seed {seed}");
        let t = &rep.telemetry;
        assert_eq!(t.total(Counter::Decisions), n as u64);
        // The driver counts one scan per granted scan event; every scan a
        // core saw is one the driver granted.
        assert!(t.total(Counter::Scans) >= n as u64);
        assert_eq!(
            t.total(Counter::Scans) + t.total(Counter::Updates),
            rep.events,
            "seed {seed}: driver events are scans + updates"
        );
        for pid in 0..n {
            assert!(t.gauge(pid, Gauge::Round).unwrap_or(0) > 0, "seed {seed}");
        }
    }
}

/// The meter path publishes its high-water marks as global gauges: the
/// widest register is the bounded protocol's static width, and the widest
/// register total is that width times `n`.
#[test]
fn meter_fold_is_equivalent_to_gauges() {
    let n = 3;
    let params = ConsensusParams::quick(n);
    let procs: Vec<BoundedCore> = (0..n)
        .map(|p| BoundedCore::new(params.clone(), p, p % 2 == 0, p as u64))
        .collect();
    let rep = run_metered(procs, &mut RandomStrategy::new(9), 5_000_000, |s| {
        s.register_bits()
    });
    assert!(rep.completed);
    let bits = params.layout().bits();
    let t = &rep.telemetry;
    assert_eq!(t.gauge_global(Gauge::MaxRegisterBits), Some(bits));
    assert_eq!(t.gauge_global(Gauge::MaxTotalBits), Some(bits * n as u64));
    // The meter writes the global shard only; each process's own gauge is
    // the turn driver's, read off the core's probe at the end of the run.
    for pid in 0..n {
        assert_eq!(t.gauge(pid, Gauge::MaxRegisterBits), Some(bits));
    }
}

/// The JSONL export carries every counter, gauge and phase through the
/// parser and back.
#[test]
fn telemetry_jsonl_round_trips() {
    let n = 2;
    let params = ConsensusParams::quick(n);
    let mut world = World::builder(n).seed(5).step_limit(5_000_000).build();
    let inst = ThreadedConsensus::<DirectArrow>::new(&world, &params, &[true, false], 5);
    let rep = world.run(inst.bodies, Box::new(RandomStrategy::new(5)));
    let t = &rep.telemetry;

    // Metrics JSON: parse back and spot-check a counter total.
    let doc = json::parse(&t.to_json().render()).expect("telemetry JSON parses");
    let reads = doc
        .get("totals")
        .and_then(|totals| totals.get("reg_reads"))
        .and_then(|v| v.as_num())
        .expect("totals.reg_reads");
    assert_eq!(reads as u64, t.total(Counter::RegReads));
    let shards = doc.get("shards").and_then(|s| s.as_arr()).expect("shards");
    assert_eq!(shards.len(), n + 1, "one shard per process plus global");

    // JSONL: every line parses; history lines and telemetry lines compose
    // into one structured run export.
    let h = rep.history.as_ref().unwrap();
    let export = format!("{}{}", t.to_jsonl(), h.to_jsonl());
    let mut lines = 0;
    for line in export.lines() {
        json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}"));
        lines += 1;
    }
    assert!(
        lines > h.len(),
        "telemetry lines ride along with the history"
    );
}

/// What [`exit_path_run`] does to pid 0 while it is inside its first scan.
#[derive(Debug, Clone, Copy)]
enum Exit {
    /// Nothing: every body returns `Ok`.
    Completes,
    /// A lockstep crash decision: the body returns `Err(Halted::Crashed)`.
    Crashed,
    /// The free-mode step budget runs out mid-collect.
    StepLimit,
    /// An injected poison: the body panics at its next gate and unwinds.
    Panics,
}

/// n = 3 over the handshake memory; each live body updates then scans.
/// Pid 0 runs solo first and leaves by `exit` after exactly seven accesses
/// (its update's three writes, its scan's two lowers, two of the first
/// collect's reads); the free-mode run keeps pids 1 and 2 idle so that the
/// counts are exact there too.
fn exit_path_run(exit: Exit) -> bprc::sim::world::RunReport<Vec<u64>> {
    use bprc::sim::sched::FnStrategy;
    use bprc::sim::world::ProcBody;
    use bprc::sim::{Decision, ScheduleView};
    use bprc::snapshot::{ScannableMemory, SnapshotBackend};

    const MID_COLLECT: u64 = 7;
    let n = 3;
    let free = matches!(exit, Exit::StepLimit);
    let mut world = if free {
        World::builder(n)
            .mode(Mode::Free)
            .step_limit(MID_COLLECT)
            .build()
    } else {
        World::builder(n).build()
    };
    let mem = ScannableMemory::<u64, DirectArrow>::alloc_fast(&world, n, 0);
    let bodies: Vec<ProcBody<Vec<u64>>> = (0..n)
        .map(|pid| {
            let mut port = mem.port(pid);
            let b: ProcBody<Vec<u64>> = Box::new(move |ctx| {
                if free && pid != 0 {
                    return Ok(Vec::new());
                }
                port.update(ctx, pid as u64 + 1)?;
                port.scan(ctx)
            });
            b
        })
        .collect();
    let mut pending = true;
    let strategy = FnStrategy::new(move |view: &ScheduleView<'_>| {
        if pending && view.step == MID_COLLECT {
            pending = false;
            match exit {
                Exit::Crashed => return Decision::Crash(0),
                Exit::Panics => return Decision::Panic(0),
                Exit::Completes | Exit::StepLimit => {}
            }
        }
        Decision::Grant(view.runnable[0])
    });
    world.run(bodies, Box::new(strategy))
}

/// Counts a process accumulated before it left must reach the run's
/// telemetry however it left. The expected totals were pinned from the
/// commit before tallies moved into `Ctx`, where every count was an atomic
/// add on the shared shard at the call site.
#[test]
fn counts_survive_every_exit_path() {
    use bprc::sim::Halted;
    bprc::sim::faults::quiet_injected_panics();
    const PINNED: [Counter; 6] = [
        Counter::ArrowLowers,
        Counter::ArrowChecks,
        Counter::CollectReads,
        Counter::ScanAttempts,
        Counter::RegReads,
        Counter::RegWrites,
    ];
    for (exit, halted, want) in [
        (Exit::Completes, None, [6u64, 6, 12, 3, 18, 15]),
        (Exit::Crashed, Some(Halted::Crashed), [6, 4, 8, 3, 14, 15]),
        (Exit::StepLimit, Some(Halted::StepLimit), [2, 0, 0, 1, 2, 5]),
        (Exit::Panics, Some(Halted::Panicked), [6, 4, 8, 3, 14, 15]),
    ] {
        let rep = exit_path_run(exit);
        assert_eq!(rep.halted[0], halted, "{exit:?}");
        let got = PINNED.map(|c| rep.telemetry.total(c));
        assert_eq!(
            got, want,
            "{exit:?}: [lowers, checks, collect reads, attempts, reads, writes]"
        );
    }
}
