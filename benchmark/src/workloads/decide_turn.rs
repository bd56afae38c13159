//! `decide-turn-n8`: seeded binary-consensus instances of eight
//! `BoundedCore`s under the turn driver. No registers, no threads: `core`,
//! `coin` and `strip` do nearly all the work, so a protocol-level gain shows
//! here and nowhere else.

use std::time::Instant;

use bprc_core::bounded::{BoundedCore, ConsensusParams};
use bprc_sim::rng::{derive_seed, stream_rng};
use bprc_sim::turn::{TurnDriver, TurnProcess, TurnRandom};
use bprc_sim::Counter;
use rand::Rng;

use super::Workload;
use crate::measure::{fold, PassRecord, FOLD_INIT};
use crate::spans;
use crate::wrappers::TracedProc;

/// Instances per pass; one op is one instance decided by all processes.
pub const INSTANCES: usize = 2000;
/// Processes per instance.
pub const N: usize = 8;
/// Event budget per instance; a run that needs more counts as failed.
const MAX_EVENTS: u64 = 10_000_000;

/// One seeded instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    /// Each process's input; both values occur.
    pub inputs: [bool; N],
    /// Master seed of the processes' local coin flips.
    pub flips_seed: u64,
    /// Seed of the random turn adversary.
    pub sched_seed: u64,
}

/// The workload: its parameters and fixed instance list.
#[derive(Debug)]
pub struct DecideTurn {
    params: ConsensusParams,
    instances: Vec<Instance>,
}

impl DecideTurn {
    /// Generates the instance list from `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = stream_rng(seed, 1);
        let instances = (0..INSTANCES)
            .map(|_| {
                let inputs = loop {
                    let draw: [bool; N] = std::array::from_fn(|_| rng.gen());
                    if draw.contains(&true) && draw.contains(&false) {
                        break draw;
                    }
                };
                Instance {
                    inputs,
                    flips_seed: rng.gen(),
                    sched_seed: rng.gen(),
                }
            })
            .collect();
        DecideTurn {
            params: ConsensusParams::quick(N),
            instances,
        }
    }

    fn cores(&self, inst: &Instance) -> Vec<BoundedCore> {
        (0..N)
            .map(|pid| {
                BoundedCore::new(
                    self.params.clone(),
                    pid,
                    inst.inputs[pid],
                    derive_seed(inst.flips_seed, pid as u64),
                )
            })
            .collect()
    }
}

/// Builds the driver (build span), runs it to completion (run span), checks
/// agreement and validity, and fills item `i` of `rec`.
fn run_instance<P>(
    i: usize,
    inst: &Instance,
    procs: impl FnOnce() -> Vec<P>,
    rec: &mut PassRecord,
    traced: bool,
) where
    P: TurnProcess<Out = bool>,
{
    let t0 = Instant::now();
    let driver = TurnDriver::new(procs());
    let mut adversary = TurnRandom::new(inst.sched_seed);
    let t1 = Instant::now();
    let run_span = traced.then(|| spans::enter("sim.turn.run"));
    let report = driver.run(&mut adversary, MAX_EVENTS);
    drop(run_span);
    let t2 = Instant::now();
    rec.build_ns[i] = (t1 - t0).as_nanos() as u64;
    rec.run_ns[i] = (t2 - t1).as_nanos() as u64;

    let first = report.outputs[0];
    let agreed = first.is_some() && report.outputs.iter().all(|o| *o == first);
    let valid = first.is_some_and(|v| inst.inputs.contains(&v));
    if !(report.completed && agreed && valid) {
        rec.failed += 1;
    }
    rec.steps += report.events;
    rec.counts.add(&report.telemetry);
    let decision = first.map_or(2, u64::from);
    rec.prints[i] = fold(fold(FOLD_INIT, report.events), decision);
}

impl Workload for DecideTurn {
    fn record(&self) -> PassRecord {
        PassRecord::new(INSTANCES, INSTANCES)
    }

    fn ops(&self) -> u64 {
        INSTANCES as u64
    }

    fn pass(&mut self, rec: &mut PassRecord, traced: bool) {
        for (i, inst) in self.instances.iter().enumerate() {
            if traced {
                spans::set_item(i);
                let procs = || self.cores(inst).into_iter().map(TracedProc).collect();
                run_instance::<TracedProc<BoundedCore>>(i, inst, procs, rec, true);
            } else {
                run_instance(i, inst, || self.cores(inst), rec, false);
            }
        }
        // The turn driver's cost unit is its events; cross-check the two
        // places that count them.
        debug_assert_eq!(
            rec.steps,
            rec.counts.get(Counter::Scans) + rec.counts.get(Counter::Updates)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn another_seed_changes_inputs_but_not_item_counts() {
        let (a, b, again) = (DecideTurn::new(1), DecideTurn::new(2), DecideTurn::new(1));
        assert_eq!(a.instances, again.instances);
        assert_ne!(a.instances, b.instances);
        assert_eq!(a.instances.len(), b.instances.len());
        assert_eq!(a.record().run_ns.len(), b.record().run_ns.len());
        assert_eq!(a.ops(), b.ops());
        for inst in &a.instances {
            assert!(inst.inputs.contains(&true) && inst.inputs.contains(&false));
        }
    }
}
