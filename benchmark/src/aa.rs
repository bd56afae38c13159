//! Running workloads as child processes: the whole suite once, and the A/A
//! self-check that applies the acceptance rule to identical code.
//!
//! Each workload runs in a process of its own, as under the driver, so that
//! `peak_rss_mb` and the CPU pinning belong to one workload. The parent only
//! waits, so there is still one runnable thread.

use std::process::{Command, ExitCode, Stdio};

use bprc_sim::json::{self, Value};

use crate::workloads::SPECS;
use crate::{repo_root, Args};

/// Runs `workload` in a child process and returns its output and exit
/// status.
fn run_child(args: &Args, workload: &str, seed: u64) -> Result<(String, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let text = String::from_utf8(out.stdout).map_err(|e| format!("{workload}: {e}"))?;
    Ok((text, out.status.success()))
}

/// `--workload all`: every workload once, each in its own process.
pub fn run_suite_once(args: &Args) -> ExitCode {
    let mut all_ok = true;
    for spec in &SPECS {
        match run_child(args, spec.name, args.seed) {
            Ok((text, ok)) => {
                print!("{text}");
                all_ok &= ok;
            }
            Err(msg) => {
                eprintln!("bprc-benchmark: {msg}");
                all_ok = false;
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Whether larger values are better.
    pub higher_is_better: bool,
    /// Share of the median by which it may get worse.
    pub bound: f64,
}

/// Reads the `end_to_end` table of a `BENCHMARK.json` document.
///
/// # Errors
///
/// Returns a message naming what is missing or malformed.
pub fn declared_metrics(text: &str) -> Result<Vec<Declared>, String> {
    let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let table = doc
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end array")?;
    table
        .iter()
        .map(|m| {
            let field = |key| {
                m.get(key)
                    .ok_or(format!("BENCHMARK.json: metric without {key}"))
            };
            Ok(Declared {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .to_string(),
                higher_is_better: field("better")?.as_str() == Some("higher"),
                bound: field("bound")?.as_num().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// The metric values of a run's last output line.
fn metric_values(output: &str) -> Result<Vec<(String, f64)>, String> {
    let last = output.lines().last().ok_or("no output")?;
    let doc = json::parse(last).map_err(|e| format!("result line: {e:?}"))?;
    if doc.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!("run not correct: {last}"));
    }
    match doc.get("metrics") {
        Some(Value::Obj(pairs)) => pairs
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Value::as_num);
                Ok((name.clone(), value.ok_or(format!("{name} has no value"))?))
            })
            .collect(),
        _ => Err("result line has no metrics".to_string()),
    }
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method), which is what the driver uses.
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// By what share of `first` the value `second` is worse (negative when it is
/// better).
pub fn worsening(first: f64, second: f64, higher_is_better: bool) -> f64 {
    let change = (second - first) / first;
    if higher_is_better {
        -change
    } else {
        change
    }
}

/// Suite repetitions of the A/A self-check.
const RUNS: usize = 6;

/// `aa`: runs the suite [`RUNS`] times on identical code, run *i* with seed
/// `--seed + i` (another seed each run, as the driver does), and applies the
/// driver's acceptance rule to every metric × workload: the interquartile
/// range as a share of the median stays within the declared bound (`setup_s`
/// excepted), and the median of the second half of the runs is not worse
/// than that of the first half by more than the bound. Also prints
/// (max − min) ÷ median.
pub fn run(args: &Args) -> ExitCode {
    let path = repo_root().join("BENCHMARK.json");
    let declared = match std::fs::read_to_string(&path)
        .map_err(|e| format!("{}: {e}", path.display()))
        .and_then(|text| declared_metrics(&text))
    {
        Ok(d) => d,
        Err(msg) => {
            eprintln!("bprc-benchmark aa: {msg}");
            return ExitCode::from(2);
        }
    };
    // values[workload][metric][run]
    let mut values = vec![vec![Vec::with_capacity(RUNS); declared.len()]; SPECS.len()];
    for run in 0..RUNS {
        let seed = args.seed + run as u64;
        for (w, spec) in SPECS.iter().enumerate() {
            let got = run_child(args, spec.name, seed).and_then(|(text, _)| metric_values(&text));
            let got = match got {
                Ok(got) => got,
                Err(msg) => {
                    eprintln!("bprc-benchmark aa: {} run {run}: {msg}", spec.name);
                    return ExitCode::FAILURE;
                }
            };
            for (m, d) in declared.iter().enumerate() {
                match got.iter().find(|(name, _)| *name == d.name) {
                    Some((_, v)) => values[w][m].push(*v),
                    None => {
                        eprintln!("bprc-benchmark aa: {} does not print {}", spec.name, d.name);
                        return ExitCode::FAILURE;
                    }
                }
            }
            println!("run {run} seed {seed} {} done", spec.name);
        }
    }
    println!(
        "\n{:<22} {:<20} {:>14} {:>8} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "median", "range%", "iqr%", "shift%", "bound%"
    );
    let mut all_ok = true;
    for (w, spec) in SPECS.iter().enumerate() {
        for (m, d) in declared.iter().enumerate() {
            let v = &values[w][m];
            let med = median(v);
            let (lo, hi) = v
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
            let (q1, q3) = quartiles(v);
            let (first, second) = v.split_at(v.len() / 2);
            let shift = worsening(median(first), median(second), d.higher_is_better);
            let spread_ok = d.name == "setup_s" || (q3 - q1) / med <= d.bound;
            let ok = spread_ok && shift <= d.bound;
            all_ok &= ok;
            println!(
                "{:<22} {:<20} {:>14.6} {:>8.2} {:>8.2} {:>8.2} {:>7.1}  {}",
                spec.name,
                d.name,
                med,
                100.0 * (hi - lo) / med,
                100.0 * (q3 - q1) / med,
                100.0 * shift,
                100.0 * d.bound,
                if ok { "ok" } else { "EXCEEDS" }
            );
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traced;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2, 10, 7, 4], n=4) == [1.75, 3.5, 7.75]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 10.0, 7.0, 4.0]), (1.75, 7.75));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 90.0, true) - 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, false) + 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, false) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn result_line_round_trips() {
        let line = "noise\n{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": \
                    {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}";
        assert_eq!(
            metric_values(line).unwrap(),
            vec![("setup_s".to_string(), 0.25)]
        );
        assert!(metric_values(&line.replace("true", "false")).is_err());
    }

    /// `BENCHMARK.json` and the binary must agree on what is printed.
    #[test]
    fn benchmark_json_declares_exactly_what_the_binary_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            let field = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
            let table = doc.get(key).and_then(Value::as_arr).unwrap();
            table
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect()
        };
        let owned = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), owned(&crate::timed::METRICS));
        assert_eq!(names("per_layer"), owned(&traced::METRICS));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect();
        let specs: Vec<String> = SPECS.iter().map(|s| s.name.to_string()).collect();
        assert_eq!(workloads, specs);
        let seconds = doc.get("run_seconds").and_then(Value::as_num).unwrap();
        assert_eq!(seconds as u64, crate::workloads::REF_SECONDS);
        let declared = declared_metrics(&text).unwrap();
        assert_eq!(declared.len(), crate::timed::METRICS.len());
        assert!(declared.iter().all(|d| d.bound > 0.0));
    }
}
