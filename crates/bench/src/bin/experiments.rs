//! CLI driver for the experiment suite.
//!
//! ```text
//! experiments [all|e1|...|e14|e5b]... [--quick]   # markdown tables
//! experiments verify-gate [--quick] [--out=PATH]  # fail-closed gate: writes
//!                                                 #   BENCH_verify.json
//! ```
//!
//! `verify-gate` writes its document *before* judging it and exits 1 iff
//! the validator rejects it, so a red run always leaves its evidence — a
//! violated gate row embeds its shrunk replayable trace. The document is
//! counts only: the same code writes the same bytes, so CI checks the
//! committed document by regenerating it and comparing. A flag a command does not take is an error (exit 2), never
//! ignored; the usage text is generated from [`COMMANDS`].

use bprc_bench::{experiments, verify_gate, Scale, Table};

type Experiment = fn(Scale) -> Table;

const EXPERIMENTS: [(&str, Experiment); 13] = [
    ("e1", experiments::e1_disagreement),
    ("e2", experiments::e2_walk_steps),
    ("e3", experiments::e3_overflow),
    ("e4", experiments::e4_rounds),
    ("e5", experiments::e5_total_work),
    ("e5b", experiments::e5b_adversarial_work),
    ("e6", experiments::e6_memory),
    ("e7", experiments::e7_scan_retries),
    ("e8", experiments::e8_claim41),
    ("e11", experiments::e11_ablation_b),
    ("e12", experiments::e12_ablation_k),
    ("e13", experiments::e13_ablation_m),
    ("e14", experiments::e14_waitfree),
];

/// Every subcommand with the flags it takes (a trailing `=` takes a value);
/// the experiment tables are the fallback command.
const COMMANDS: [(&str, &[&str]); 1] = [("verify-gate", &["--quick", "--out="])];

const EXPERIMENT_FLAGS: &[&str] = &["--quick"];

fn usage() -> String {
    let flags = |flags: &[&str]| -> String {
        let value = |f: &str| if f.ends_with('=') { "PATH" } else { "" };
        flags
            .iter()
            .map(|f| format!(" [{f}{}]", value(f)))
            .collect()
    };
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    let mut text = format!("usage:\n  experiments [all|{}]...", names.join("|"));
    text += &flags(EXPERIMENT_FLAGS);
    for (name, accepted) in COMMANDS {
        text += &format!("\n  experiments {name}{}", flags(accepted));
    }
    text
}

fn die(code: i32, msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(code)
}

fn die_usage(msg: impl std::fmt::Display) -> ! {
    die(2, format!("{msg}\n{}", usage()))
}

/// `verify-gate`: write the document, then judge it.
fn gate(scale: Scale, out: &str) {
    let doc = verify_gate::run(scale);
    if let Err(e) = std::fs::write(out, doc.render_pretty(2) + "\n") {
        die(1, format!("cannot write {out}: {e}"));
    }
    println!("wrote {out}");
    let errs = verify_gate::validate(&doc);
    if !errs.is_empty() {
        let items: Vec<String> = errs.iter().map(|e| format!("\n  - {e}")).collect();
        die(1, format!("verify-gate: FAIL{}", items.concat()));
    }
    println!("verify-gate: PASS");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (flags, words): (Vec<&str>, Vec<&str>) = args
        .iter()
        .map(String::as_str)
        .partition(|a| a.starts_with("--"));
    let first = words.first().copied().unwrap_or("all");
    let command = COMMANDS.iter().find(|(name, ..)| *name == first);
    let accepted = command.map_or(EXPERIMENT_FLAGS, |&(_, f)| f);
    let known = |f: &str| {
        accepted
            .iter()
            .any(|a| f == *a || (a.ends_with('=') && f.starts_with(a)))
    };
    if let Some(flag) = flags.iter().find(|f| !known(f)) {
        die_usage(format!("experiments {first}: unknown flag {flag}"));
    }
    if let (Some(_), Some(extra)) = (command, words.get(1)) {
        die_usage(format!("experiments {first}: unexpected operand {extra}"));
    }
    let out = flags.iter().find_map(|f| f.strip_prefix("--out="));
    let scale = if flags.contains(&"--quick") {
        Scale::Quick
    } else {
        Scale::Full
    };

    match first {
        "verify-gate" => gate(scale, out.unwrap_or("BENCH_verify.json")),
        _ => {
            let names = if words.is_empty() || words.contains(&"all") {
                EXPERIMENTS.iter().map(|(name, _)| *name).collect()
            } else {
                words
            };
            let runs: Vec<Experiment> = names
                .iter()
                .map(|name| match EXPERIMENTS.iter().find(|(n, _)| n == name) {
                    Some((_, run)) => *run,
                    None => die_usage(format!("unknown experiment or subcommand '{name}'")),
                })
                .collect();
            println!("# BPRC experiment run ({})\n", scale.name());
            for run in runs {
                println!("{}", run(scale));
            }
        }
    }
}
