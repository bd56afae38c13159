//! `bprc-benchmark`: the repeatable benchmark of the BPRC stack.
//!
//! ```text
//! bprc-benchmark [--workload <name>|all] [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! bprc-benchmark aa [--seed <n>] [--seconds <s>]
//! ```
//!
//! A run of one workload ends with one JSON line: `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics, or with `--trace 1` the
//! per-layer ones. README.md describes the workloads, the estimator and the
//! metrics; `BENCHMARK.json` at the repository root declares them.

mod aa;
mod affinity;
mod aslr;
mod ladder;
mod measure;
mod report;
mod spans;
mod timed;
mod traced;
mod workloads;
mod wrappers;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::{REF_SECONDS, SPECS};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// `aa` subcommand: the A/A self-check instead of a run.
    pub aa: bool,
    /// Workload name, or `all`.
    pub workload: String,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Length of the measurement; scales the frozen pass counts.
    pub seconds: u64,
    /// The traced run (per-layer metrics) instead of the timed one.
    pub trace: bool,
}

impl Args {
    /// Parses the arguments after the program name.
    ///
    /// # Errors
    ///
    /// Returns a usage message naming the offending argument.
    pub fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            aa: false,
            workload: "all".to_string(),
            seed: 1,
            seconds: REF_SECONDS,
            trace: false,
        };
        fn number(flag: &str, value: Option<String>) -> Result<u64, String> {
            let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
            value
                .parse()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        }
        while let Some(arg) = argv.next() {
            match arg.as_str() {
                "aa" => args.aa = true,
                "--workload" => {
                    args.workload = argv.next().ok_or("--workload needs a value")?;
                    if workloads::spec(&args.workload).is_none() && args.workload != "all" {
                        let names: Vec<_> = SPECS.iter().map(|s| s.name).collect();
                        return Err(format!(
                            "unknown workload {}; one of: all, {}",
                            args.workload,
                            names.join(", ")
                        ));
                    }
                }
                "--seed" => args.seed = number("--seed", argv.next())?,
                "--seconds" => {
                    args.seconds = number("--seconds", argv.next())?;
                    if !(1..=120).contains(&args.seconds) {
                        return Err("--seconds must be in 1..=120".to_string());
                    }
                }
                "--trace" => args.trace = number("--trace", argv.next())? != 0,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(args)
    }
}

/// The repository root: the parent of the benchmark's manifest directory
/// (cargo sets `CARGO_MANIFEST_DIR` for `cargo run`), else the current
/// directory.
pub fn repo_root() -> PathBuf {
    match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(dir) => PathBuf::from(dir).join(".."),
        None => PathBuf::from("."),
    }
}

/// Runs one workload in this process and prints its result line.
fn run_one(args: &Args) -> ExitCode {
    // First of all: it starts the program over.
    let aslr = !aslr::switch_off();
    // Counted before pinning narrows what the process may use.
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // Before anything spawns a thread: they inherit the mask.
    let pinned = affinity::pin_to_one_cpu();
    let spec = workloads::spec(&args.workload).expect("parse checked the name");
    let mut workload = (spec.build)(args.seed);
    let passes = (spec.passes as u64 * args.seconds / REF_SECONDS).max(1) as usize;
    report::print_stamp(args, spec, passes, nproc, pinned, aslr);
    let outcome = if args.trace {
        traced::run(spec, workload.as_mut(), args, passes)
    } else {
        timed::run(workload.as_mut(), passes, args.seconds)
    };
    outcome.print();
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("bprc-benchmark: {msg}");
            return ExitCode::from(2);
        }
    };
    if args.aa {
        aa::run(&args)
    } else if args.workload == "all" {
        aa::run_suite_once(&args)
    } else {
        run_one(&args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn driver_invocation_parses() {
        let a = parse("--workload decide-turn-n8 --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, "decide-turn-n8");
        assert_eq!((a.seed, a.seconds, a.trace, a.aa), (7, 10, true, false));
    }

    #[test]
    fn defaults_and_rejections() {
        let a = parse("").unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.trace), ("all", 1, false));
        assert!(parse("aa --seed 3").unwrap().aa);
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed x").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--frobnicate").is_err());
    }
}
