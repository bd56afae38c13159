//! The timed run: the end-to-end metrics, with tracing off.

use std::time::{Duration, Instant};

use crate::measure::{BestOf, PassRecord};
use crate::report::{Metric, Outcome};
use crate::workloads::Workload;

/// The end-to-end metrics the timed run prints, with their units, in the
/// order of `BENCHMARK.json`.
pub const METRICS: [(&str, &str); 6] = [
    ("ops_per_sec", "1/s"),
    ("op_latency_us_p50", "us"),
    ("op_latency_us_p90", "us"),
    ("steps_per_op", "steps/op"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// What [`passes`] measured.
#[derive(Debug)]
pub struct Timing {
    /// Pass 0: the reference fingerprint, step count and telemetry.
    pub reference: PassRecord,
    /// Per-item minima over the passes that reproduced the reference.
    pub best: BestOf,
    /// Operations attempted, pass 0 included.
    pub attempted: u64,
    /// Operations failed, pass 0 included.
    pub failed: u64,
    /// Wall-clock seconds the repeated passes took.
    pub elapsed_s: f64,
}

impl Timing {
    /// Whether there are no times to report: no pass reproduced pass 0, or
    /// pass 0 completed no item at all.
    pub fn is_empty(&self) -> bool {
        self.best.passes() == 0 || self.reference.run_ns.is_empty()
    }
}

/// Pass 0 runs the items once untimed for the reference fingerprint (and to
/// fill caches and finish lazy set-up); then up to `planned` passes repeat
/// the identical items, `traced` or not. A pass whose work differs from pass
/// 0's counts all its ops as failed and contributes no times. `after_pass`
/// hears whether each repeated pass was kept. `deadline` only guards the
/// caller's time limit when the machine is much slower than it was when the
/// pass counts were sized: the loop is not time-based.
pub fn passes(
    w: &mut dyn Workload,
    planned: usize,
    traced: bool,
    deadline: Duration,
    mut after_pass: impl FnMut(bool),
) -> Timing {
    let mut reference = w.record();
    w.pass(&mut reference, false);
    let mut best = BestOf::new(&reference, planned);
    let mut rec = w.record();
    let (mut attempted, mut failed) = (w.ops(), reference.failed);
    let started = Instant::now();
    for _ in 0..planned {
        rec.clear();
        w.pass(&mut rec, traced);
        attempted += w.ops();
        let kept = rec.same_work(&reference);
        if kept {
            failed += rec.failed;
            best.absorb(&rec);
        } else {
            failed += w.ops();
        }
        after_pass(kept);
        if started.elapsed() >= deadline {
            break;
        }
    }
    Timing {
        reference,
        best,
        attempted,
        failed,
        elapsed_s: started.elapsed().as_secs_f64(),
    }
}

/// Peak resident set size of this process in MiB, from `VmHWM`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Runs the timed passes and reports the six end-to-end metrics.
pub fn run(w: &mut dyn Workload, planned: usize, seconds: u64) -> Outcome {
    let t = passes(w, planned, false, Duration::from_secs(seconds), |_| {});
    let mut outcome = Outcome {
        attempted: t.attempted,
        failed: t.failed,
        notes: vec![format!(
            "items {}  ops/pass {}  passes {} of {planned} in {:.2} s  medpass/best {:.4}",
            t.reference.run_ns.len(),
            w.ops(),
            t.best.passes(),
            t.elapsed_s,
            if t.is_empty() {
                f64::NAN
            } else {
                t.best.medpass_over_best()
            },
        )],
        metrics: Vec::new(),
    };
    if t.is_empty() {
        return outcome;
    }
    let ops = w.ops() as f64;
    let values = [
        ops / t.best.run_s(),
        t.best.latency_us(50),
        t.best.latency_us(90),
        t.reference.steps as f64 / ops,
        t.best.setup_s(),
        peak_rss_mb(),
    ];
    outcome.metrics = METRICS
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three items; the pass numbered `odd_pass` does different work.
    struct Fake {
        pass: usize,
        odd_pass: usize,
    }

    impl Workload for Fake {
        fn record(&self) -> PassRecord {
            PassRecord::new(1, 3)
        }

        fn ops(&self) -> u64 {
            3
        }

        fn pass(&mut self, rec: &mut PassRecord, _traced: bool) {
            rec.build_ns[0] = 10;
            rec.run_ns.copy_from_slice(&[100, 200, 300]);
            rec.prints.copy_from_slice(&[1, 2, 3]);
            rec.steps = 6;
            if self.pass == self.odd_pass {
                rec.prints[2] = 4;
                rec.run_ns[2] = 1;
            }
            self.pass += 1;
        }
    }

    #[test]
    fn a_pass_with_another_fingerprint_fails_all_its_ops_and_lends_no_times() {
        let mut w = Fake {
            pass: 0,
            odd_pass: 2,
        };
        let mut kept = Vec::new();
        let t = passes(&mut w, 4, false, Duration::from_secs(60), |k| kept.push(k));
        assert_eq!(kept, [true, false, true, true]);
        assert_eq!((t.attempted, t.failed), (15, 3));
        assert_eq!(t.best.passes(), 3);
        // The odd pass's 1 ns item was not absorbed.
        assert!((t.best.run_s() - 600e-9).abs() < 1e-15);
    }

    #[test]
    fn a_run_with_failed_ops_is_not_correct() {
        let outcome = run(
            &mut Fake {
                pass: 0,
                odd_pass: 1,
            },
            2,
            60,
        );
        assert_eq!((outcome.attempted, outcome.failed), (9, 3));
        assert!(!outcome.correct());
        let clean = run(
            &mut Fake {
                pass: 0,
                odd_pass: 99,
            },
            2,
            60,
        );
        assert!(clean.correct());
        let names: Vec<_> = clean.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, METRICS.map(|(name, _)| name));
        assert_eq!(clean.metrics[3].value, 2.0);
    }

    #[test]
    fn the_deadline_cuts_the_passes_short_but_never_to_none() {
        let mut w = Fake {
            pass: 0,
            odd_pass: 99,
        };
        let t = passes(&mut w, 50, false, Duration::ZERO, |_| {});
        assert_eq!(t.best.passes(), 1);
    }
}
