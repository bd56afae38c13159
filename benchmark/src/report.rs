//! What a run prints: an environment stamp, a readable metric table, and —
//! last — the one-line JSON result.

use std::process::Command;

use bprc_sim::json::Value;

use crate::workloads::Spec;
use crate::Args;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured, with all its digits.
    pub value: f64,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Operations attempted over every pass.
    pub attempted: u64,
    /// Operations that halted, failed a check, or belonged to a pass whose
    /// fingerprint differed from the first pass's.
    pub failed: u64,
    /// Free-form notes printed above the metrics (item counts, passes).
    pub notes: Vec<String>,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Whether every output checked out and every metric was measured.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && !self.metrics.is_empty()
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The last-line JSON object.
    pub fn json(&self) -> String {
        // JSON has no NaN or infinity: a metric that could not be measured
        // is left out, and `correct` is false.
        let measured = self.metrics.iter().filter(|m| m.value.is_finite());
        let metrics = measured.map(|m| {
            let pair = Value::obj(vec![("value", m.value.into()), ("unit", m.unit.into())]);
            (m.name.to_string(), pair)
        });
        Value::obj(vec![
            ("correct", self.correct().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", Value::Obj(metrics.collect())),
        ])
        .render()
    }

    /// Prints the notes, the metric table and the JSON line.
    pub fn print(&self) {
        for note in &self.notes {
            println!("{note}");
        }
        println!(
            "ops_attempted {}  ops_failed {}",
            self.attempted, self.failed
        );
        for m in &self.metrics {
            println!("{:<40} {:>18.6} {}", m.name, m.value, m.unit);
        }
        println!("{}", self.json());
    }
}

/// First line of `program args…`'s output, or `unknown`.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Prints the environment stamp every output starts with.
pub fn print_stamp(
    args: &Args,
    spec: &Spec,
    passes: usize,
    nproc: usize,
    pinned: Option<usize>,
    aslr: bool,
) {
    let mut stamp = vec![
        ("workload", spec.name.into()),
        ("seed", args.seed.into()),
        ("W", spec.items.into()),
        ("R", passes.into()),
        ("seconds", args.seconds.into()),
        ("trace", args.trace.into()),
        ("nproc", nproc.into()),
        ("pinned", pinned.is_some().into()),
    ];
    if let Some(cpu) = pinned {
        stamp.push(("cpu", cpu.into()));
    }
    stamp.extend([
        ("aslr", aslr.into()),
        ("rustc", first_line("rustc", &["--version"]).into()),
        (
            "commit",
            first_line("git", &["rev-parse", "--short", "HEAD"]).into(),
        ),
        ("deps", "stubs".into()),
    ]);
    println!(
        "{}",
        Value::obj(vec![("stamp", Value::obj(stamp))]).render()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let o = Outcome {
            attempted: 10,
            failed: 0,
            notes: vec![],
            metrics: vec![Metric {
                name: "ops_per_sec",
                value: 1234.5678,
                unit: "1/s",
            }],
        };
        assert_eq!(
            o.json(),
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":\
             {\"ops_per_sec\":{\"value\":1234.5678,\"unit\":\"1/s\"}}}"
        );
    }

    #[test]
    fn failed_ops_or_an_unmeasured_metric_make_the_run_incorrect() {
        let mut o = Outcome {
            attempted: 10,
            failed: 1,
            notes: vec![],
            metrics: vec![Metric {
                name: "x",
                value: 2.5,
                unit: "s",
            }],
        };
        assert!(!o.correct());
        o.failed = 0;
        assert!(o.correct());
        // An unreadable `VmHWM` must not read as 0 MiB, a large gain.
        o.metrics[0].value = f64::NAN;
        assert!(!o.correct());
        assert_eq!(
            o.json(),
            "{\"correct\":false,\"attempted\":10,\"failed\":0,\"metrics\":{}}"
        );
    }
}
