//! Run-level consensus assertions — the checker surface the systematic
//! explorer drives.
//!
//! [`ConsensusSpec`] turns a [`RunReport`] into a pass/fail verdict over the
//! three consensus properties:
//!
//! * **agreement** — no two decided processes decided differently;
//! * **validity** — every decision equals some process's input;
//! * **termination** (optional) — every process that was neither crashed
//!   nor panicked decided. Off by default because bounded explorations
//!   legitimately truncate runs at a step budget.
//!
//! Verdicts are `Option<String>` — `None` for a clean run, `Some(reason)`
//! naming the first violated property — which is exactly the checker shape
//! [`bprc_sim::explore::explore`] consumes. [`ConsensusSpec::check_with_snapshot`]
//! additionally replays the recorded history through the snapshot P1–P3
//! checker, so one closure covers the full property stack.

use bprc_sim::error::Halted;
use bprc_sim::history::OpKind;
use bprc_sim::metrics::Counter;
use bprc_sim::world::RunReport;
use bprc_snapshot::{check_history, SnapshotMeta};

/// Checks that a run's telemetry agrees with its recorded history: for
/// every process, the [`Counter::RegReads`] / [`Counter::RegWrites`]
/// counters must equal the read/write operations the history recorded for
/// that process. The two are not independent witnesses: in lockstep the
/// world bumps the counters and records the op at one place, the access
/// gate, so what this holds is the world's op-to-counter mapping (a swap
/// counts as a read and a write, a fence as neither) against the recorded
/// ops, process by process — a verification-gate property, not a
/// consensus one.
///
/// Returns `None` on parity, `Some(reason)` naming the first divergent
/// process.
///
/// # Panics
///
/// Panics if the run recorded no history (free mode, or recording
/// disabled) — silently skipping the comparison would make a gate built on
/// it vacuous.
pub fn check_telemetry_parity<T>(report: &RunReport<T>) -> Option<String> {
    let history = report
        .history
        .as_ref()
        .expect("telemetry parity needs a recorded lockstep history");
    let n = report.outputs.len();
    let mut reads = vec![0u64; n];
    let mut writes = vec![0u64; n];
    for (_, pid, kind, _, _) in history.ops() {
        match kind {
            OpKind::Read => reads[pid] += 1,
            OpKind::Write => writes[pid] += 1,
            // A swap is one gate counted in both columns — mirrors the
            // world's access-gate accounting exactly.
            OpKind::Swap => {
                reads[pid] += 1;
                writes[pid] += 1;
            }
            // Fences are their own counter; reads/writes parity ignores them.
            OpKind::Fence => {}
        }
    }
    for pid in 0..n {
        let tr = report.telemetry.counter(pid, Counter::RegReads);
        let tw = report.telemetry.counter(pid, Counter::RegWrites);
        if tr != reads[pid] || tw != writes[pid] {
            return Some(format!(
                "telemetry/history parity violated for pid {pid}: telemetry says {tr} \
                 reads / {tw} writes, history records {} reads / {} writes",
                reads[pid], writes[pid]
            ));
        }
    }
    None
}

/// What a consensus run promised: the inputs it started from and whether
/// it was given enough budget that everyone must decide.
#[derive(Debug, Clone)]
pub struct ConsensusSpec {
    /// Per-process proposed values.
    pub inputs: Vec<bool>,
    /// Require every live (non-crashed, non-panicked) process to decide.
    /// Leave off for step-budgeted explorations where truncation is legal.
    pub require_termination: bool,
}

impl ConsensusSpec {
    /// A spec for a run proposing `inputs`, without a termination demand.
    pub fn new(inputs: &[bool]) -> Self {
        ConsensusSpec {
            inputs: inputs.to_vec(),
            require_termination: false,
        }
    }

    /// Demands termination of every live process (builder-style).
    pub fn require_termination(mut self) -> Self {
        self.require_termination = true;
        self
    }

    /// Checks agreement, validity, and (if demanded) termination.
    /// Returns `None` when the run satisfies the spec.
    pub fn check(&self, report: &RunReport<bool>) -> Option<String> {
        let decided: Vec<(usize, bool)> = report
            .outputs
            .iter()
            .enumerate()
            .filter_map(|(pid, o)| o.map(|v| (pid, v)))
            .collect();

        if let Some(((pa, va), (pb, vb))) = decided
            .windows(2)
            .map(|w| (w[0], w[1]))
            .find(|((_, a), (_, b))| a != b)
        {
            return Some(format!(
                "agreement violated: pid {pa} decided {va} but pid {pb} decided {vb}"
            ));
        }

        for &(pid, v) in &decided {
            if !self.inputs.contains(&v) {
                return Some(format!(
                    "validity violated: pid {pid} decided {v} but no process proposed it \
                     (inputs {:?})",
                    self.inputs
                ));
            }
        }

        if self.require_termination {
            for (pid, h) in report.halted.iter().enumerate() {
                match h {
                    None | Some(Halted::Crashed) | Some(Halted::Panicked) => {}
                    Some(other) => {
                        return Some(format!(
                            "termination violated: pid {pid} halted with {other:?} \
                             instead of deciding"
                        ));
                    }
                }
            }
        }

        None
    }

    /// [`ConsensusSpec::check`] plus the snapshot P1–P3 checker over the
    /// run's recorded history. The composite verdict a systematic
    /// exploration wires through every schedule.
    ///
    /// # Panics
    ///
    /// Panics if the run recorded no history (free mode, or recording
    /// disabled) — the snapshot checker has nothing to verify then, and
    /// silently skipping it would make explorations vacuous.
    pub fn check_with_snapshot(
        &self,
        meta: &SnapshotMeta,
        report: &RunReport<bool>,
    ) -> Option<String> {
        let history = report
            .history
            .as_ref()
            .expect("snapshot checking needs a recorded lockstep history");
        let snap = check_history(history, meta);
        if let Some(v) = snap.violations.first() {
            return Some(format!("snapshot property violated: {v:?}"));
        }
        self.check(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bprc_sim::metrics::Telemetry;

    fn report(outputs: Vec<Option<bool>>, halted: Vec<Option<Halted>>) -> RunReport<bool> {
        let n = outputs.len();
        RunReport {
            outputs,
            halted,
            panics: vec![None; n],
            steps: 0,
            per_proc_steps: vec![0; n],
            handoffs: 0,
            history: None,
            telemetry: Telemetry::empty(n),
            flight: bprc_sim::FlightLog::empty(n),
        }
    }

    #[test]
    fn clean_runs_pass() {
        let spec = ConsensusSpec::new(&[true, false, true]);
        let r = report(vec![Some(true); 3], vec![None; 3]);
        assert_eq!(spec.check(&r), None);
    }

    #[test]
    fn disagreement_is_named() {
        let spec = ConsensusSpec::new(&[true, false]);
        let r = report(vec![Some(true), Some(false)], vec![None, None]);
        let msg = spec.check(&r).expect("must flag disagreement");
        assert!(msg.contains("agreement"), "{msg}");
    }

    #[test]
    fn invalid_decision_is_named() {
        let spec = ConsensusSpec::new(&[false, false]);
        let r = report(vec![Some(true), Some(true)], vec![None, None]);
        let msg = spec.check(&r).expect("must flag validity");
        assert!(msg.contains("validity"), "{msg}");
    }

    #[test]
    fn termination_only_when_demanded() {
        let r = report(vec![Some(true), None], vec![None, Some(Halted::StepLimit)]);
        assert_eq!(ConsensusSpec::new(&[true, true]).check(&r), None);
        let msg = ConsensusSpec::new(&[true, true])
            .require_termination()
            .check(&r)
            .expect("must flag the undecided process");
        assert!(msg.contains("termination"), "{msg}");
    }

    #[test]
    fn crashed_processes_are_excused_from_termination() {
        let spec = ConsensusSpec::new(&[true, true]).require_termination();
        let r = report(vec![Some(true), None], vec![None, Some(Halted::Crashed)]);
        assert_eq!(spec.check(&r), None);
    }

    #[test]
    fn telemetry_parity_holds_on_a_real_run_and_flags_divergence() {
        use bprc_sim::sched::RoundRobin;
        use bprc_sim::world::{ProcBody, World};

        let mut w = World::builder(2).build();
        let reg = w.reg("r", 0u32);
        let (r0, r1) = (reg.clone(), reg);
        let bodies: Vec<ProcBody<bool>> = vec![
            Box::new(move |ctx| {
                r0.write(ctx, 1)?;
                Ok(true)
            }),
            Box::new(move |ctx| Ok(r1.read(ctx)? == 1)),
        ];
        let mut rep = w.run(bodies, Box::new(RoundRobin::new()));
        assert_eq!(check_telemetry_parity(&rep), None);

        // Forge divergence: drop the history's ops but keep the telemetry.
        rep.history = Some(bprc_sim::history::History::new());
        let msg = check_telemetry_parity(&rep).expect("must flag the divergence");
        assert!(msg.contains("parity"), "{msg}");
    }
}
