//! Chaos suite: composed fault plans (crashes, injected panics, stall
//! windows) over every scheduling backend and every protocol
//! flavor in the workspace.
//!
//! Each scenario wraps an ordinary adversary in a seeded [`FaultPlan`] and
//! asserts the wait-free contract under fire:
//!
//! * **agreement** — no two decided processes decide differently;
//! * **validity** — every decision is some process's input;
//! * **survivor termination** — every process the plan did not kill decides;
//! * **accountability** — every undecided process has a recorded fault
//!   cause (crash or panic), and injected panics appear in the
//!   run's fault log.
//!
//! Scenario counts (all seeded, all replayable):
//! * bounded binary consensus, turn level: 5 adversaries × 24 seeds = 120
//! * multivalued consensus, turn level: 3 adversaries × 12 seeds = 36
//! * multi-shot log, turn level: 3 adversaries × 8 seeds = 24
//! * bounded consensus, full register-level stack: 24 seeds = 24
//! * multivalued + multi-shot, full register-level stack: 8 + 6 = 14
//! * plan-driven crash sweep at every event index of a reference run
//!
//! Total: 218 composed chaos scenarios plus the exhaustive sweep. Beside
//! them, 40 fault-free multi-shot logs run every replica live on its own
//! OS thread (n ∈ {2, 3} × 20 seeds), where the replicas' slot states
//! cross threads through real atomics. The register-level scenarios run
//! over the paper's handshake memory with no scan retry budget, and
//! additionally assert **zero starvation**: without a budget a scan
//! retries until it is stable, so no process halts as `ScanStarved`,
//! whatever the plan and the schedule do. The writer-pressure schedule
//! that drives a budgeted scan to `ScanStarved` is
//! `scan_retry_budget_degrades_full_stack_scan`.

use bprc::core::adversaries::{LeaderStarver, SplitAdversary};
use bprc::core::bounded::{BoundedCore, ConsensusParams};
use bprc::core::multishot::{LogCore, LogMsg, StaticProposals};
use bprc::core::multivalued::{MvCore, MvState};
use bprc::core::threaded::{over_snapshot, ThreadedConsensus};
use bprc::core::ProcState;
use bprc::registers::DirectArrow;
use bprc::sim::faults::{FaultPlan, FaultedStrategy};
use bprc::sim::sched::{PctStrategy, RandomStrategy, RoundRobin, Strategy};
use bprc::sim::turn::{Turn, TurnBsp, TurnDriver, TurnReport};
use bprc::sim::{Counter, FaultKind, Halted, Mode, Telemetry, World};
use bprc::snapshot::ScannableMemory;

fn bounded_cores(n: usize, inputs: &[bool], seed: u64) -> Vec<BoundedCore> {
    let params = ConsensusParams::quick(n);
    (0..n)
        .map(|p| BoundedCore::new(params.clone(), p, inputs[p], seed * 101 + p as u64))
        .collect()
}

/// The wait-free contract, checked against a turn-level report.
fn assert_contract<O: PartialEq + std::fmt::Debug>(
    label: &str,
    r: &TurnReport<O>,
    n: usize,
    kills: usize,
    valid: impl Fn(&O) -> bool,
) {
    assert!(r.completed, "{label}: chaos blocked termination");
    let distinct = r.distinct_outputs();
    assert!(distinct.len() <= 1, "{label}: disagreement {distinct:?}");
    let survivors = r.outputs.iter().filter(|o| o.is_some()).count();
    assert!(
        survivors >= n - kills,
        "{label}: only {survivors} of >= {} survivors decided",
        n - kills
    );
    for out in r.outputs.iter().flatten() {
        assert!(valid(out), "{label}: invalid decision {out:?}");
    }
    for (p, h) in r.halted.iter().enumerate() {
        if r.outputs[p].is_none() {
            assert!(
                matches!(h, Some(Halted::Crashed) | Some(Halted::Panicked)),
                "{label}: undecided pid {p} lacks a fault cause ({h:?})"
            );
        }
        if matches!(h, Some(Halted::Panicked)) {
            assert!(
                r.fault_events
                    .iter()
                    .any(|&(_, pid, k)| pid == p && k == FaultKind::PanicInjected),
                "{label}: pid {p} panicked but the injection is not in the fault log"
            );
        }
    }
}

/// One of the six turn-level adversaries for the bounded protocol of `n`
/// processes, boxed so every scenario flows through the same harness.
fn bounded_adversary(kind: usize, n: usize, seed: u64) -> Box<dyn Strategy<Turn<ProcState>>> {
    match kind {
        0 => Box::new(RoundRobin::new()),
        1 => Box::new(RandomStrategy::new(seed)),
        2 => Box::new(TurnBsp::new()),
        3 => Box::new(SplitAdversary::new(2, seed)),
        4 => Box::new(LeaderStarver::new(2)),
        _ => Box::new(PctStrategy::new(seed, n, 2, 300)),
    }
}

#[test]
fn bounded_survives_seeded_chaos_under_every_adversary() {
    let n = 4;
    for kind in 0..6usize {
        for seed in 0..24u64 {
            let inputs: Vec<bool> = (0..n).map(|p| (seed >> p) & 1 == 1).collect();
            let plan = FaultPlan::seeded(seed * 5 + kind as u64, n, 300);
            let kills = plan.kill_count();
            let mut adv = FaultedStrategy::new(bounded_adversary(kind, n, seed), plan);
            let r = TurnDriver::new(bounded_cores(n, &inputs, seed)).run(&mut adv, 5_000_000);
            assert_contract(
                &format!("bounded kind={kind} seed={seed}"),
                &r,
                n,
                kills,
                |d| inputs.contains(d),
            );
        }
    }
}

#[test]
fn multivalued_survives_seeded_chaos() {
    let n = 3;
    let width = 4;
    for kind in 0..3usize {
        for seed in 0..12u64 {
            let params = ConsensusParams::quick(n);
            let values: Vec<u64> = (0..n).map(|p| (seed + p as u64) % 11).collect();
            let procs: Vec<MvCore> = (0..n)
                .map(|p| MvCore::new(params.clone(), p, values[p], width, seed * 31 + p as u64))
                .collect();
            let plan = FaultPlan::seeded(seed * 7 + kind as u64, n, 200);
            let kills = plan.kill_count();
            let inner: Box<dyn Strategy<Turn<MvState>>> = match kind {
                0 => Box::new(RoundRobin::new()),
                1 => Box::new(RandomStrategy::new(seed)),
                _ => Box::new(TurnBsp::new()),
            };
            let mut adv = FaultedStrategy::new(inner, plan);
            let r = TurnDriver::new(procs).run(&mut adv, 5_000_000);
            assert_contract(&format!("mv kind={kind} seed={seed}"), &r, n, kills, |d| {
                values.contains(d)
            });
        }
    }
}

#[test]
fn multishot_survives_seeded_chaos() {
    let n = 3;
    let n_slots = 2;
    let width = 4;
    for kind in 0..3usize {
        for seed in 0..8u64 {
            let params = ConsensusParams::quick(n);
            let proposals: Vec<Vec<u64>> = (0..n)
                .map(|p| {
                    (0..n_slots)
                        .map(|s| (seed + p as u64 + s as u64) % 9)
                        .collect()
                })
                .collect();
            let procs: Vec<LogCore<StaticProposals>> = (0..n)
                .map(|p| {
                    LogCore::new(
                        params.clone(),
                        p,
                        n_slots,
                        width,
                        StaticProposals(proposals[p].clone()),
                        seed * 13 + p as u64,
                    )
                })
                .collect();
            let plan = FaultPlan::seeded(seed * 3 + kind as u64, n, 250);
            let kills = plan.kill_count();
            let inner: Box<dyn Strategy<Turn<bprc::core::multishot::LogMsg>>> = match kind {
                0 => Box::new(RoundRobin::new()),
                1 => Box::new(RandomStrategy::new(seed)),
                _ => Box::new(TurnBsp::new()),
            };
            let mut adv = FaultedStrategy::new(inner, plan);
            let r = TurnDriver::new(procs).run(&mut adv, 5_000_000);
            assert_contract(
                &format!("log kind={kind} seed={seed}"),
                &r,
                n,
                kills,
                |log: &Vec<u64>| {
                    log.len() == n_slots
                        && log
                            .iter()
                            .enumerate()
                            .all(|(s, v)| proposals.iter().any(|pp| pp[s] == *v))
                },
            );
        }
    }
}

#[test]
fn full_stack_survives_seeded_chaos() {
    // The same contract over the real register-level stack: genuine §2
    // snapshot scans, arrows, and process threads, with panic containment
    // exercised by actual unwinding — and, with no retry budget, no scan
    // is ever starved.
    let n = 3;
    for seed in 0..24u64 {
        let params = ConsensusParams::quick(n);
        let inputs: Vec<bool> = (0..n).map(|p| (seed >> p) & 1 == 1).collect();
        let mut world = World::builder(n).step_limit(5_000_000).build();
        let inst = ThreadedConsensus::<DirectArrow>::new(&world, &params, &inputs, seed);
        let plan = FaultPlan::seeded(seed, n, 400);
        let kills = plan.kill_count();
        let strategy = FaultedStrategy::new(RandomStrategy::new(seed), plan);
        let rep = world.run(inst.bodies, Box::new(strategy));
        let distinct = rep.distinct_outputs();
        assert!(
            distinct.len() <= 1,
            "stack seed={seed}: disagreement {distinct:?}"
        );
        let survivors = rep.outputs.iter().filter(|o| o.is_some()).count();
        assert!(
            survivors >= n - kills,
            "stack seed={seed}: only {survivors} of >= {} survivors decided",
            n - kills
        );
        for out in rep.outputs.iter().flatten() {
            assert!(inputs.contains(out), "stack seed={seed}: invalid decision");
        }
        for (p, h) in rep.halted.iter().enumerate() {
            if rep.outputs[p].is_none() {
                assert!(
                    matches!(h, Some(Halted::Crashed) | Some(Halted::Panicked)),
                    "stack seed={seed}: undecided pid {p} lacks a fault cause ({h:?})"
                );
            }
        }
        // Panic messages surface for every contained panic.
        for p in rep.panicked_pids() {
            assert!(
                rep.panics[p].is_some(),
                "stack seed={seed}: pid {p} panicked without a message"
            );
        }
        assert_no_starvation(&rep.telemetry, n, &format!("stack seed={seed}"));
        assert!(
            !rep.halted.contains(&Some(Halted::ScanStarved)),
            "stack seed={seed}: an unbudgeted scan starved"
        );
    }
}

/// Asserts the run recorded zero starved scans — what a scan with no retry
/// budget guarantees — through the per-pid [`Counter::ScanStarved`]
/// telemetry.
fn assert_no_starvation(telemetry: &Telemetry, n: usize, label: &str) {
    for pid in 0..n {
        assert_eq!(
            telemetry.counter(pid, Counter::ScanStarved),
            0,
            "{label}: pid {pid} recorded a starved scan without a retry budget"
        );
    }
}

#[test]
fn multivalued_full_stack_chaos() {
    // Multivalued consensus over the handshake memory under seeded fault
    // plans: agreement, validity, and zero starvation.
    let n = 3;
    for seed in 0..8u64 {
        let params = ConsensusParams::quick(n);
        let values: Vec<u64> = (0..n).map(|p| (seed + p as u64) % 11).collect();
        let procs: Vec<MvCore> = (0..n)
            .map(|p| MvCore::new(params.clone(), p, values[p], 4, seed * 31 + p as u64))
            .collect();
        let initial = MvState::phantom(params.layout());
        let mut world = World::builder(n).step_limit(20_000_000).build();
        let (_, bodies) =
            over_snapshot::<_, ScannableMemory<MvState, DirectArrow>>(&world, procs, initial);
        let plan = FaultPlan::seeded(seed * 7, n, 300);
        let kills = plan.kill_count();
        let strategy = FaultedStrategy::new(RandomStrategy::new(seed), plan);
        let rep = world.run(bodies, Box::new(strategy));
        let decisions: Vec<u64> = rep.outputs.iter().filter_map(|o| *o).collect();
        assert!(
            decisions.windows(2).all(|w| w[0] == w[1]),
            "mv seed={seed}: disagreement {:?}",
            rep.outputs
        );
        assert!(
            decisions.len() >= n - kills,
            "mv seed={seed}: survivors failed to decide"
        );
        for d in &decisions {
            assert!(values.contains(d), "mv seed={seed}: invalid decision {d}");
        }
        assert_no_starvation(&rep.telemetry, n, &format!("mv seed={seed}"));
    }
}

#[test]
fn multishot_full_stack_chaos() {
    // The multi-shot log over the handshake memory: surviving replicas
    // agree slot for slot, every slot holds a proposed value, no scan
    // starves.
    let n = 3;
    let n_slots = 2;
    for seed in 0..6u64 {
        let params = ConsensusParams::quick(n);
        let proposals: Vec<Vec<u64>> = (0..n)
            .map(|p| {
                (0..n_slots)
                    .map(|s| (seed + p as u64 + s as u64) % 9)
                    .collect()
            })
            .collect();
        let procs: Vec<LogCore<StaticProposals>> = (0..n)
            .map(|p| {
                LogCore::new(
                    params.clone(),
                    p,
                    n_slots,
                    4,
                    StaticProposals(proposals[p].clone()),
                    seed * 13 + p as u64,
                )
            })
            .collect();
        let initial = LogMsg { slots: Vec::new() };
        let mut world = World::builder(n).step_limit(20_000_000).build();
        let (_, bodies) =
            over_snapshot::<_, ScannableMemory<LogMsg, DirectArrow>>(&world, procs, initial);
        let plan = FaultPlan::seeded(seed * 3 + 1, n, 350);
        let kills = plan.kill_count();
        let strategy = FaultedStrategy::new(RandomStrategy::new(seed), plan);
        let rep = world.run(bodies, Box::new(strategy));
        let logs: Vec<&Vec<u64>> = rep.outputs.iter().flatten().collect();
        assert!(
            logs.windows(2).all(|w| w[0] == w[1]),
            "log seed={seed}: logs diverge: {:?}",
            rep.outputs
        );
        assert!(
            logs.len() >= n - kills,
            "log seed={seed}: survivors failed to finish the log"
        );
        for log in &logs {
            assert_eq!(log.len(), n_slots, "log seed={seed}");
            for (s, v) in log.iter().enumerate() {
                assert!(
                    proposals.iter().any(|pp| pp[s] == *v),
                    "log seed={seed}: slot {s} holds unproposed {v}"
                );
            }
        }
        assert_no_starvation(&rep.telemetry, n, &format!("log seed={seed}"));
    }
}

#[test]
fn multishot_free_threads_every_replica_live() {
    // Free mode: no adversary, every replica on an OS thread, over the
    // handshake memory. A replica's published slot states share their
    // level buffers with its own copy, the registers and the other
    // replicas' views (copy-on-write), so those buffers cross threads.
    let (n_slots, width) = (8, 8);
    for n in [2usize, 3] {
        for seed in 0..20u64 {
            let label = format!("free log n={n} seed={seed}");
            let params = ConsensusParams::quick(n);
            let proposals: Vec<Vec<u64>> = (0..n as u64)
                .map(|p| {
                    (0..n_slots as u64)
                        .map(|s| (seed * 31 + p * 7 + s * 13) % 256)
                        .collect()
                })
                .collect();
            let procs: Vec<LogCore<StaticProposals>> = (0..n)
                .map(|p| {
                    let source = StaticProposals(proposals[p].clone());
                    LogCore::new(
                        params.clone(),
                        p,
                        n_slots,
                        width,
                        source,
                        seed * 17 + p as u64,
                    )
                })
                .collect();
            let mut world = World::builder(n)
                .mode(Mode::Free)
                .step_limit(u64::MAX)
                .build();
            let initial = LogMsg { slots: Vec::new() };
            let (_memory, bodies) =
                over_snapshot::<_, ScannableMemory<LogMsg, DirectArrow>>(&world, procs, initial);
            // Free mode ignores the strategy.
            let rep = world.run(bodies, Box::new(RoundRobin::new()));
            let logs: Vec<&Vec<u64>> = rep
                .outputs
                .iter()
                .map(|o| {
                    let halted = &rep.halted;
                    o.as_ref()
                        .unwrap_or_else(|| panic!("{label}: a replica halted: {halted:?}"))
                })
                .collect();
            assert!(
                logs.windows(2).all(|w| w[0] == w[1]),
                "{label}: logs diverge: {logs:?}"
            );
            assert_eq!(logs[0].len(), n_slots, "{label}");
            for (s, v) in logs[0].iter().enumerate() {
                assert!(
                    proposals.iter().any(|pp| pp[s] == *v),
                    "{label}: slot {s} holds unproposed {v}"
                );
            }
        }
    }
}

#[test]
fn plan_driven_crash_sweep_covers_every_event_index() {
    // The crash-sweep idea, rebuilt on FaultPlan: one declarative plan per
    // (victim, step) instead of a bespoke closure — every crash point of
    // the reference schedule, exactly once.
    let n = 3;
    let inputs = [true, false, true];
    let seed = 42;
    let reference = TurnDriver::new(bounded_cores(n, &inputs, seed))
        .run(&mut RandomStrategy::new(seed), 5_000_000);
    assert!(reference.completed);
    let horizon = reference.events.min(120);

    for victim in 0..n {
        for crash_at in 0..horizon {
            let plan = FaultPlan::new().crash_at(crash_at, victim);
            let mut adv = FaultedStrategy::new(RandomStrategy::new(seed), plan);
            let r = TurnDriver::new(bounded_cores(n, &inputs, seed)).run(&mut adv, 5_000_000);
            assert_contract(
                &format!("sweep victim={victim} @ {crash_at}"),
                &r,
                n,
                1,
                |d| inputs.contains(d),
            );
        }
    }
}

#[test]
fn composed_crash_stall_panic_plan_full_stack() {
    // One deliberately composed plan — an early crash, a long stall, and a
    // late injected panic — over the threaded stack, with a scan retry
    // budget active: every degradation path in one run, and the fault
    // timeline lands in the recorded history.
    let n = 4;
    let seed = 9;
    let params = ConsensusParams::quick(n);
    let mut world = World::builder(n).step_limit(5_000_000).build();
    let inst =
        ThreadedConsensus::<DirectArrow>::new(&world, &params, &[true, false, true, false], seed);
    inst.set_scan_retry_budget(Some(64));
    let plan = FaultPlan::new()
        .crash_at(40, 0)
        .stall(1, 60, 240)
        .panic_at(300, 2);
    let strategy = FaultedStrategy::new(RandomStrategy::new(seed), plan);
    let rep = world.run(inst.bodies, Box::new(strategy));
    assert_eq!(rep.halted[0], Some(Halted::Crashed));
    assert_eq!(rep.halted[2], Some(Halted::Panicked));
    assert!(rep.panics[2].as_deref().unwrap().contains("chaos"));
    // The survivors (1 despite its stall, and 3) agree and decide validly.
    let survivors: Vec<bool> = [1, 3].iter().filter_map(|&p| rep.outputs[p]).collect();
    assert_eq!(
        survivors.len(),
        2,
        "survivors must decide: {:?}",
        rep.halted
    );
    assert_eq!(survivors[0], survivors[1], "agreement");
    // The full fault timeline is in the history: crash, stall edges, panic.
    let h = rep.history.as_ref().unwrap();
    assert_eq!(h.crashes().count(), 1);
    let kinds: Vec<FaultKind> = h.faults().map(|(_, _, k)| k).collect();
    assert!(kinds.contains(&FaultKind::StallStart), "{kinds:?}");
    assert!(kinds.contains(&FaultKind::StallEnd), "{kinds:?}");
    assert!(kinds.contains(&FaultKind::PanicInjected), "{kinds:?}");
}

#[test]
fn scan_retry_budget_degrades_full_stack_scan() {
    // A writer pinned by the schedule to outrun a scanner forever: with a
    // retry budget the scanner's process reports ScanStarved (graceful),
    // not a livelock cut short only by the step limit.
    use bprc::sim::sched::FnStrategy;
    use bprc::sim::Decision;
    let mut world = World::builder(2).step_limit(100_000).build();
    let mem = ScannableMemory::<u64, DirectArrow>::new(&world, 2, 0);
    mem.set_scan_retry_budget(Some(8));
    let mut wp = mem.port(0);
    let mut sp = mem.port(1);
    let bodies: Vec<bprc::sim::world::ProcBody<Vec<u64>>> = vec![
        Box::new(move |ctx| {
            let mut k = 0u64;
            loop {
                k += 1;
                wp.update(ctx, k)?;
            }
        }),
        Box::new(move |ctx| sp.scan(ctx)),
    ];
    let strategy = FnStrategy::new(|view: &bprc::sim::ScheduleView<'_>| {
        if view.step.is_multiple_of(3) && view.runnable.contains(&1) {
            Decision::Grant(1)
        } else if view.runnable.contains(&0) {
            Decision::Grant(0)
        } else {
            Decision::Grant(1)
        }
    });
    let rep = world.run(bodies, Box::new(strategy));
    assert_eq!(rep.halted[1], Some(Halted::ScanStarved));
    assert_eq!(rep.telemetry.counter(1, Counter::ScanStarved), 1);
}
