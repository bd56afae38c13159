//! CLI driver for the experiment suite.
//!
//! ```text
//! experiments [all|e1|...|e14|e5b] [--quick]      # markdown tables
//! experiments <doc> [--quick] [--out=PATH]        # emit BENCH_<doc>.json
//! experiments validate-<doc> PATH                 # schema-check one
//! experiments compare-throughput OLD NEW          # regression gate (exit 1)
//! experiments verify-gate [--quick] [--serial]    # fail-closed gate: writes
//!             [--weakmem] [--out=PATH]            #   BENCH_verify.json, then
//! experiments validate-verify PATH                #   exit 1 on any violation
//! ```
//!
//! `<doc>` is a row of [`DOCS`]: it emits the document, checks it against
//! its own schema before writing (exit 1 on violations) and prints a
//! summary; `profile` also writes a Chrome-trace companion
//! (`--trace-out=PATH`). `verify-gate` is `bprc_bench::verify_gate`: it runs
//! the gate's table of checks (`--weakmem` adds the weak-memory rows),
//! prints the coverage matrix and writes it *before* judging it, so a red
//! gate leaves its evidence — each violated row embeds its shrunk
//! replayable trace.

use bprc_bench::{arena, experiments, profile, throughput, verify_gate, Scale, Table};
use bprc_sim::json::Value;

/// One schema-checked JSON document: `<name>` writes it to `BENCH_<name>.json`
/// unless told otherwise, `validate-<name> PATH` checks one.
struct Doc {
    name: &'static str,
    schema: &'static str,
    run: fn(Scale, u64) -> Value,
    validate: fn(&Value) -> Vec<String>,
    /// `(key, line)`: a freshly emitted document is summarised with one
    /// `line` per row of the array at `key` (or one for an object there).
    summary: &'static [(&'static str, LineFn)],
}

type LineFn = fn(&Value) -> String;

macro_rules! doc {
    ($module:ident, $summary:expr) => {
        Doc {
            name: stringify!($module),
            schema: $module::SCHEMA,
            run: $module::run,
            validate: $module::validate,
            summary: $summary,
        }
    };
}

const DOCS: [Doc; 3] = [
    doc!(throughput, &[]),
    doc!(profile, &[("entries", profile_line)]),
    doc!(arena, &[("entries", arena_line)]),
];

type Experiment = fn(Scale) -> Table;

const EXPERIMENTS: [(&str, Experiment); 15] = [
    ("e1", experiments::e1_disagreement),
    ("e2", experiments::e2_walk_steps),
    ("e3", experiments::e3_overflow),
    ("e4", experiments::e4_rounds),
    ("e5", experiments::e5_total_work),
    ("e5b", experiments::e5b_adversarial_work),
    ("e6", experiments::e6_memory),
    ("e7", experiments::e7_scan_retries),
    ("e8", experiments::e8_claim41),
    ("e9", experiments::e9_snapshot),
    ("e10", experiments::e10_modelcheck),
    ("e11", experiments::e11_ablation_b),
    ("e12", experiments::e12_ablation_k),
    ("e13", experiments::e13_ablation_m),
    ("e14", experiments::e14_waitfree),
];

/// Names what the driver accepts, from the two tables, and exits 2.
fn die_unknown(name: &str) -> ! {
    let docs: Vec<&str> = DOCS.iter().map(|d| d.name).collect();
    let exps: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    let msg = format!(
        "unknown experiment or subcommand '{name}' (expected experiments all|{}, or one \
         subcommand: <doc> or validate-<doc> PATH with <doc> in {}, compare-throughput OLD NEW, \
         verify-gate, validate-verify PATH)",
        exps.join("|"),
        docs.join("|"),
    );
    die(2, msg)
}

fn die(code: i32, msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(code)
}

fn die_listing(heading: &str, errs: &[String]) -> ! {
    let items: Vec<String> = errs.iter().map(|e| format!("\n  - {e}")).collect();
    die(1, format!("{heading}{}", items.concat()))
}

/// The value of a `--name=value` flag.
fn flag<'a>(args: &'a [String], prefix: &str) -> Option<&'a str> {
    args.iter().find_map(|a| a.strip_prefix(prefix))
}

fn write_json(path: &str, doc: &Value) {
    if let Err(e) = std::fs::write(path, doc.render_pretty(2) + "\n") {
        die(1, format!("cannot write {path}: {e}"));
    }
}

fn load_json(path: &str) -> Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(1, format!("cannot read {path}: {e}")));
    bprc_sim::json::parse(&text).unwrap_or_else(|e| die(1, format!("{path}: not valid JSON: {e}")))
}

/// `<doc>`: emit → self-validate → summarise → write.
fn emit(doc: &Doc, scale: Scale, out: &str) {
    let value = (doc.run)(scale, 42);
    let errs = (doc.validate)(&value);
    if !errs.is_empty() {
        die_listing("generated document violates its own schema:", &errs);
    }
    for (key, line) in doc.summary {
        match value.get(key) {
            Some(Value::Arr(rows)) => rows.iter().for_each(|row| println!("{}", line(row))),
            Some(section) => println!("{}", line(section)),
            None => {}
        }
    }
    write_json(out, &value);
    println!("wrote {out}");
}

/// `validate-<doc> PATH`.
fn validate_file(schema: &str, validate: fn(&Value) -> Vec<String>, path: &str) {
    let errs = validate(&load_json(path));
    if !errs.is_empty() {
        die_listing(&format!("{path}: schema violations:"), &errs);
    }
    println!("{path}: valid ({schema})");
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(|x| x.as_num()).unwrap_or(0.0)
}

fn name_of(v: &Value) -> &str {
    v.get("name").and_then(|x| x.as_str()).unwrap_or("?")
}

fn profile_line(entry: &Value) -> String {
    let lat = |which: &str, k: &str| entry.get(which).map_or(0.0, |h| num(h, k));
    format!(
        "{}: scan p50 {:.0}ns p99 {:.0}ns, lazy p50 {:.0}ns, decision p50 {:.0}ns p99 {:.0}ns",
        name_of(entry),
        lat("scan_latency_ns", "p50"),
        lat("scan_latency_ns", "p99"),
        lat("lazy_scan_latency_ns", "p50"),
        lat("decision_latency_ns", "p50"),
        lat("decision_latency_ns", "p99"),
    )
}

fn arena_line(entry: &Value) -> String {
    format!(
        "{}: decided {:.0}%, rounds {:.1}, ops {:.0}, {} bits, {:.0} scans/sec",
        name_of(entry),
        num(entry, "decided_fraction") * 100.0,
        num(entry, "mean_rounds"),
        num(entry, "mean_total_ops"),
        num(entry, "max_register_bits"),
        num(entry, "scans_per_sec"),
    )
}

fn compare_throughput(old_path: &str, new_path: &str) {
    let (report, failures) = throughput::compare(&load_json(old_path), &load_json(new_path));
    for line in &report {
        println!("{line}");
    }
    if !failures.is_empty() {
        die_listing("throughput regressions:", &failures);
    }
    println!("no throughput regressions beyond tolerance");
}

/// `verify-gate`: run → write → judge, in that order.
fn run_verify_gate(args: &[String], scale: Scale) {
    let opts = verify_gate::GateOptions {
        scale,
        serial: args.iter().any(|a| a == "--serial"),
        weakmem: args.iter().any(|a| a == "--weakmem"),
    };
    let out = flag(args, "--out=").unwrap_or("BENCH_verify.json");
    let doc = verify_gate::run(&opts);
    write_json(out, &doc);
    println!("wrote {out}");
    let errs = verify_gate::validate(&doc);
    if !errs.is_empty() {
        die_listing("verify-gate: FAIL", &errs);
    }
    println!("verify-gate: PASS");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick { Scale::Quick } else { Scale::Full };
    let which: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .collect();
    let first = which.first().copied().unwrap_or("all");
    let doc_named = |name: &str| DOCS.iter().find(|d| d.name == name);

    if let Some(doc) = doc_named(first) {
        let default_out = format!("BENCH_{}.json", doc.name);
        emit(doc, scale, flag(&args, "--out=").unwrap_or(&default_out));
        if doc.name == "profile" {
            let trace_out = flag(&args, "--trace-out=").unwrap_or("BENCH_profile_trace.json");
            write_json(trace_out, &profile::chrome_trace_demo(42));
            println!("wrote {trace_out} (load it at https://ui.perfetto.dev)");
        }
    } else if let Some(name) = first.strip_prefix("validate-") {
        let (schema, validate) = match doc_named(name) {
            Some(doc) => (doc.schema, doc.validate),
            None if name == "verify" => (verify_gate::SCHEMA, verify_gate::validate as _),
            None => die_unknown(first),
        };
        match which.get(1) {
            Some(path) => validate_file(schema, validate, path),
            None => die(2, format!("usage: experiments {first} PATH")),
        }
    } else if first == "verify-gate" {
        run_verify_gate(&args, scale);
    } else if first == "compare-throughput" {
        match (which.get(1), which.get(2)) {
            (Some(old), Some(new)) => compare_throughput(old, new),
            _ => die(2, "usage: experiments compare-throughput OLD NEW"),
        }
    } else {
        println!("# BPRC experiment run ({})\n", scale.name());
        let names = if which.is_empty() || which.contains(&"all") {
            EXPERIMENTS.iter().map(|(name, _)| *name).collect()
        } else {
            which
        };
        for name in names {
            match EXPERIMENTS.iter().find(|(n, _)| *n == name) {
                Some((_, run)) => println!("{}", run(scale)),
                None => die_unknown(name),
            }
        }
    }
}
