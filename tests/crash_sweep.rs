//! Systematic fault injection: crash each process at *every* possible event
//! index of a reference execution and verify the survivors still reach a
//! safe decision. Deterministic lockstep makes this sweep exact — no
//! sampling, every crash point of the reference schedule is covered.

use bprc::core::bounded::{BoundedCore, ConsensusParams};
use bprc::core::multishot::{LogCore, LogMsg, StaticProposals};
use bprc::core::multivalued::MvCore;
use bprc::core::ProcState;
use bprc::sim::sched::{FnStrategy, RandomStrategy, Strategy};
use bprc::sim::turn::{TurnDriver, TurnView};
use bprc::sim::Decision;

fn cores(n: usize, inputs: &[bool], seed: u64) -> Vec<BoundedCore> {
    let params = ConsensusParams::quick(n);
    (0..n)
        .map(|p| BoundedCore::new(params.clone(), p, inputs[p], seed * 101 + p as u64))
        .collect()
}

/// Reference run length (events until everyone decides) for the given seed.
fn reference_events(n: usize, inputs: &[bool], seed: u64) -> u64 {
    let r = TurnDriver::new(cores(n, inputs, seed)).run(&mut RandomStrategy::new(seed), 5_000_000);
    assert!(r.completed);
    r.events
}

#[test]
fn crash_each_process_at_every_event() {
    let n = 3;
    let inputs = [true, false, true];
    let seed = 42;
    let horizon = reference_events(n, &inputs, seed).min(120);

    for victim in 0..n {
        for crash_at in 0..horizon {
            let mut inner = RandomStrategy::new(seed);
            let mut crashed = false;
            let mut adversary = FnStrategy::new(|view: &TurnView<'_, ProcState>| {
                if !crashed && view.step == crash_at && view.runnable.contains(&victim) {
                    crashed = true;
                    return Decision::Crash(victim);
                }
                inner.decide(view)
            });
            let r = TurnDriver::new(cores(n, &inputs, seed)).run(&mut adversary, 5_000_000);
            assert!(
                r.completed,
                "victim {victim} @ {crash_at}: survivors failed to terminate"
            );
            let decisions: Vec<bool> = (0..n)
                .filter(|&p| p != victim || r.outputs[p].is_some())
                .filter_map(|p| r.outputs[p])
                .collect();
            assert!(
                decisions.windows(2).all(|w| w[0] == w[1]),
                "victim {victim} @ {crash_at}: agreement violated: {:?}",
                r.outputs
            );
            if let Some(&d) = decisions.first() {
                assert!(
                    inputs.contains(&d),
                    "victim {victim} @ {crash_at}: invalid decision {d}"
                );
            }
        }
    }
}

#[test]
fn crash_two_of_four_at_every_pair_of_sampled_events() {
    // Pairs of crashes at a coarser grid (full cross product is quadratic).
    let n = 4;
    let inputs = [true, false, false, true];
    let seed = 7;
    let horizon = reference_events(n, &inputs, seed).min(80);
    let points: Vec<u64> = (0..horizon).step_by(9).collect();

    for &c1 in &points {
        for &c2 in &points {
            let mut inner = RandomStrategy::new(seed);
            let mut done1 = false;
            let mut done2 = false;
            let mut adversary = FnStrategy::new(|view: &TurnView<'_, ProcState>| {
                if !done1 && view.step >= c1 && view.runnable.contains(&0) {
                    done1 = true;
                    return Decision::Crash(0);
                }
                if !done2 && view.step >= c2 && view.runnable.contains(&1) {
                    done2 = true;
                    return Decision::Crash(1);
                }
                inner.decide(view)
            });
            let r = TurnDriver::new(cores(n, &inputs, seed)).run(&mut adversary, 5_000_000);
            assert!(r.completed, "crashes @({c1},{c2}): no termination");
            let survivors: Vec<bool> = (2..n).filter_map(|p| r.outputs[p]).collect();
            assert_eq!(survivors.len(), 2, "crashes @({c1},{c2})");
            assert_eq!(survivors[0], survivors[1], "crashes @({c1},{c2})");
            assert!(inputs.contains(&survivors[0]));
        }
    }
}

#[test]
fn crash_each_process_at_every_event_multivalued() {
    // The same exhaustive sweep for the multivalued extension: at every
    // crash point the survivors must agree on one of the *proposed* values.
    let n = 3;
    let width = 4;
    let values = [9u64, 3, 12];
    let seed = 11;
    let params = ConsensusParams::quick(n);
    let mk = |seed: u64| -> Vec<MvCore> {
        (0..n)
            .map(|p| MvCore::new(params.clone(), p, values[p], width, seed * 101 + p as u64))
            .collect()
    };
    let reference = TurnDriver::new(mk(seed)).run(&mut RandomStrategy::new(seed), 5_000_000);
    assert!(reference.completed);
    let horizon = reference.events.min(100);

    for victim in 0..n {
        for crash_at in 0..horizon {
            let mut inner = RandomStrategy::new(seed);
            let mut crashed = false;
            let mut adversary = FnStrategy::new(|view: &TurnView<'_, _>| {
                if !crashed && view.step == crash_at && view.runnable.contains(&victim) {
                    crashed = true;
                    return Decision::Crash(victim);
                }
                inner.decide(view)
            });
            let r = TurnDriver::new(mk(seed)).run(&mut adversary, 5_000_000);
            assert!(
                r.completed,
                "mv victim {victim} @ {crash_at}: survivors failed to terminate"
            );
            let decisions: Vec<u64> = r.outputs.iter().filter_map(|o| *o).collect();
            assert!(
                decisions.windows(2).all(|w| w[0] == w[1]),
                "mv victim {victim} @ {crash_at}: agreement violated: {:?}",
                r.outputs
            );
            if let Some(&d) = decisions.first() {
                assert!(
                    values.contains(&d),
                    "mv victim {victim} @ {crash_at}: invalid decision {d}"
                );
            }
        }
    }
}

#[test]
fn crash_each_process_at_every_event_multishot() {
    // And for the multi-shot log: every slot of every surviving replica's
    // log must hold a value proposed for that slot, and all logs agree.
    let n = 3;
    let n_slots = 2;
    let width = 4;
    let seed = 5;
    let params = ConsensusParams::quick(n);
    let proposals = [[4u64, 1], [7, 2], [5, 8]];
    let mk = |seed: u64| -> Vec<LogCore<StaticProposals>> {
        (0..n)
            .map(|p| {
                LogCore::new(
                    params.clone(),
                    p,
                    n_slots,
                    width,
                    StaticProposals(proposals[p].to_vec()),
                    seed * 101 + p as u64,
                )
            })
            .collect()
    };
    let reference = TurnDriver::new(mk(seed)).run(&mut RandomStrategy::new(seed), 5_000_000);
    assert!(reference.completed);
    let horizon = reference.events.min(60);

    for victim in 0..n {
        for crash_at in 0..horizon {
            let mut inner = RandomStrategy::new(seed);
            let mut crashed = false;
            let mut adversary = FnStrategy::new(|view: &TurnView<'_, LogMsg>| {
                if !crashed && view.step == crash_at && view.runnable.contains(&victim) {
                    crashed = true;
                    return Decision::Crash(victim);
                }
                inner.decide(view)
            });
            let r = TurnDriver::new(mk(seed)).run(&mut adversary, 5_000_000);
            assert!(
                r.completed,
                "log victim {victim} @ {crash_at}: survivors failed to terminate"
            );
            let logs: Vec<&Vec<u64>> = r.outputs.iter().flatten().collect();
            assert!(
                logs.windows(2).all(|w| w[0] == w[1]),
                "log victim {victim} @ {crash_at}: logs diverge: {:?}",
                r.outputs
            );
            if let Some(log) = logs.first() {
                assert_eq!(log.len(), n_slots);
                for (s, v) in log.iter().enumerate() {
                    assert!(
                        proposals.iter().any(|pp| pp[s] == *v),
                        "log victim {victim} @ {crash_at}: slot {s} holds unproposed {v}"
                    );
                }
            }
        }
    }
}

#[test]
fn crash_sweep_full_stack() {
    // The sweep at register granularity over the handshake memory: crash
    // each process at a grid of world steps of the reference schedule. The
    // survivors decide, agree, decide validly — and, with no scan retry
    // budget, no scan ever starves.
    use bprc::core::threaded::ThreadedConsensus;
    use bprc::registers::DirectArrow;
    use bprc::sim::faults::{FaultPlan, FaultedStrategy};
    use bprc::sim::sched::RandomStrategy;
    use bprc::sim::{Counter, Halted, World};

    let n = 3;
    let inputs = [true, false, true];
    let seed = 42;
    let params = ConsensusParams::quick(n);

    // Reference run: how many world steps until everyone decides.
    let reference_steps = {
        let mut world = World::builder(n).step_limit(5_000_000).build();
        let inst = ThreadedConsensus::<DirectArrow>::new(&world, &params, &inputs, seed);
        let rep = world.run(inst.bodies, Box::new(RandomStrategy::new(seed)));
        assert!(rep.outputs.iter().all(|o| o.is_some()));
        rep.steps
    };
    let horizon = reference_steps.min(400);

    for victim in 0..n {
        for crash_at in (0..horizon).step_by(23) {
            let mut world = World::builder(n).step_limit(5_000_000).build();
            let inst = ThreadedConsensus::<DirectArrow>::new(&world, &params, &inputs, seed);
            let plan = FaultPlan::new().crash_at(crash_at, victim);
            let strategy = FaultedStrategy::new(RandomStrategy::new(seed), plan);
            let rep = world.run(inst.bodies, Box::new(strategy));
            let decisions: Vec<bool> = (0..n).filter_map(|p| rep.outputs[p]).collect();
            assert!(
                decisions.len() >= n - 1,
                "sweep victim {victim} @ {crash_at}: survivors failed to decide ({:?})",
                rep.halted
            );
            assert!(
                decisions.windows(2).all(|w| w[0] == w[1]),
                "sweep victim {victim} @ {crash_at}: agreement violated: {:?}",
                rep.outputs
            );
            if let Some(&d) = decisions.first() {
                assert!(
                    inputs.contains(&d),
                    "sweep victim {victim} @ {crash_at}: invalid decision {d}"
                );
            }
            assert!(
                !rep.halted.contains(&Some(Halted::ScanStarved)),
                "sweep victim {victim} @ {crash_at}: an unbudgeted scan starved"
            );
            for pid in 0..n {
                assert_eq!(
                    rep.telemetry.counter(pid, Counter::ScanStarved),
                    0,
                    "sweep victim {victim} @ {crash_at}: pid {pid} starved"
                );
            }
        }
    }
}

#[test]
fn all_but_one_crash_leaves_a_lone_decider() {
    // Wait-freedom in the extreme: n−1 processes crash immediately; the
    // survivor must still decide (and, since only its own input is certain
    // to be visible, decide a valid value).
    for n in [2usize, 3, 5] {
        for survivor in 0..n {
            let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 1).collect();
            let mut inner = RandomStrategy::new(3);
            let mut adversary = FnStrategy::new(|view: &TurnView<'_, ProcState>| {
                if let Some(&victim) = view.runnable.iter().find(|&&p| p != survivor) {
                    if !view.crashed[victim] {
                        return Decision::Crash(victim);
                    }
                }
                inner.decide(view)
            });
            let r = TurnDriver::new(cores(n, &inputs, 3)).run(&mut adversary, 5_000_000);
            assert!(r.completed, "n={n} survivor={survivor}");
            let d = r.outputs[survivor].expect("survivor decides");
            assert!(inputs.contains(&d));
        }
    }
}
