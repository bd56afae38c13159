//! Refinement: the turn-level driver (atomic scan/write events) and the
//! register-level stack (double collects over real registers) implement the
//! same semantics.
//!
//! Strategy: record a turn-level schedule (which process performed which
//! scan/write, in order), then replay it at the register level by granting
//! each process *solo completion* of the corresponding operation — under a
//! solo schedule the §2 scan succeeds in exactly one attempt, with a
//! deterministic operation count, so the register-level execution produces
//! the **same sequence of views, the same writes, and the same decisions**
//! as the turn-level run.

use bprc::core::bounded::{BoundedCore, ConsensusParams};
use bprc::core::threaded::ThreadedConsensus;
use bprc::core::ProcState;
use bprc::registers::DirectArrow;
use bprc::sim::sched::{FnStrategy, RandomStrategy, Strategy};
use bprc::sim::turn::{Phase, Turn, TurnDriver, TurnView};
use bprc::sim::{Decision, World};

/// What one turn event was: which process, and whether it scanned or wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Write,
    Scan,
}

/// Wraps an adversary, recording the (pid, kind) of every step it grants.
struct Recording<'a, I> {
    inner: I,
    log: &'a mut Vec<(usize, Kind)>,
}

impl<I: Strategy<Turn<ProcState>>> Strategy<Turn<ProcState>> for Recording<'_, I> {
    fn decide(&mut self, view: &TurnView<'_, ProcState>) -> Decision {
        let d = self.inner.decide(view);
        if let Decision::Grant(pid) = d {
            let kind = match view.phases[pid] {
                Phase::Write(_) => Kind::Write,
                Phase::Scan => Kind::Scan,
                Phase::Done => unreachable!(),
            };
            self.log.push((pid, kind));
        }
        d
    }
}

#[test]
fn turn_schedule_replays_exactly_on_registers() {
    for seed in 0..8 {
        let n = 3;
        let inputs = [true, false, seed % 2 == 0];
        let params = ConsensusParams::quick(n);

        // 1. Turn-level run, recording the schedule.
        let procs: Vec<BoundedCore> = (0..n)
            .map(|p| {
                BoundedCore::new(
                    params.clone(),
                    p,
                    inputs[p],
                    bprc::sim::rng::derive_seed(seed, p as u64),
                )
            })
            .collect();
        let mut log: Vec<(usize, Kind)> = Vec::new();
        let mut rec = Recording {
            inner: RandomStrategy::new(seed),
            log: &mut log,
        };
        let phantoms = vec![ProcState::phantom(params.layout()); n];
        let turn_report = TurnDriver::with_initial_shared(procs, phantoms).run(&mut rec, 5_000_000);
        assert!(turn_report.completed, "seed {seed}");

        // 2. Replay on the register level: each turn event becomes a solo
        //    burst of the exact operation cost (DirectArrow), the accesses
        //    an `UpdateMachine` and a clean `ScanMachine` attempt name:
        //      write (update) = (n−1) raises + 1 store      = n ops
        //      scan (solo)    = (n−1) lowers + 2(n−1) reads
        //                       + (n−1) arrow checks        = 4(n−1) ops
        let write_cost = n as u64;
        let scan_cost = 4 * (n as u64 - 1);
        let schedule = log.clone();
        let total_ops: u64 = schedule
            .iter()
            .map(|(_, k)| match k {
                Kind::Write => write_cost,
                Kind::Scan => scan_cost,
            })
            .sum();
        let mut world = World::builder(n).step_limit(50_000_000).build();
        let inst = ThreadedConsensus::<DirectArrow>::new(&world, &params, &inputs, seed);

        let mut event_idx = 0usize;
        let mut remaining = 0u64;
        let mut current_pid = 0usize;
        let strategy = FnStrategy::new(move |view: &bprc::sim::ScheduleView<'_>| {
            while remaining == 0 {
                let (pid, kind) = schedule
                    .get(event_idx)
                    .copied()
                    .unwrap_or((view.runnable[0], Kind::Write));
                event_idx += 1;
                if event_idx > schedule.len() {
                    // Past the recorded schedule (shouldn't happen if the
                    // replay is exact): fall back to any runnable.
                    return Decision::Grant(view.runnable[0]);
                }
                if !view.runnable.contains(&pid) {
                    // The process decided at turn level exactly when it
                    // decides here, so it should never be scheduled while
                    // absent — skip defensively (checked below via outputs).
                    continue;
                }
                current_pid = pid;
                remaining = match kind {
                    Kind::Write => write_cost,
                    Kind::Scan => scan_cost,
                };
            }
            remaining -= 1;
            Decision::Grant(current_pid)
        });
        let reg_report = world.run(inst.bodies, Box::new(strategy));

        // 3. Identical decisions, per process.
        for p in 0..n {
            assert_eq!(
                turn_report.outputs[p], reg_report.outputs[p],
                "seed {seed}: process {p} decided differently across levels"
            );
        }
        // 4. The register run consumed exactly the scheduled ops: every
        //    scan succeeded on its first attempt (solo completion).
        assert_eq!(
            reg_report.steps, total_ops,
            "seed {seed}: register run took extra steps (a scan must have retried)"
        );
    }
}
