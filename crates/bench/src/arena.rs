//! The empirical successor race — every [`bprc_core::Consensus`] entrant
//! under identical seeded adversaries, measured.
//!
//! The baselines table (`bprc_core::baselines`) cites *analytic* time and
//! space columns; this module produces the *measured* companion:
//! `bprc-bench arena` races the bounded-polynomial protocol, Aspnes–Herlihy
//! over atomic **and** regular registers, Abrahamson, the shared-coin
//! oracle, and the swap-race protocol across n ∈ {2, 4, 8} and both
//! snapshot backends, recording per row
//!
//! * `decided_fraction` — processes that decided within the step budget
//!   (Abrahamson's exponential tail shows up here honestly, as sub-1.0
//!   fractions at larger n, not as a hung benchmark);
//! * `mean_rounds` — mean over trials of the highest round any process
//!   reached ([`bprc_core::ArenaProbe`]);
//! * `mean_total_ops` — mean scheduled register reads + writes (a `swap`
//!   counts in both columns, exactly as the telemetry plane counts it);
//! * `max_register_bits` — widest single register any process published
//!   (the paper's boundedness axis: flat for the bounded protocol and the
//!   swap race, growing with rounds for the AH line);
//! * `scans_per_sec` — completed snapshot scans per wall-clock second
//!   (`null` for the swap race, which has nothing to scan);
//! * `violations` — runs on which agreement or validity failed; the
//!   validator requires zero.
//!
//! Every row is produced by the same loop over [`bprc_core::entrants`] —
//! the adversary ([`bprc_core::arena_strategy`]) is chosen by *register
//! mode*, not by protocol, so the race stays fork-free. [`validate`]
//! schema-checks the emitted `BENCH_arena.json` (all protocols, sizes, and
//! backends present; fractions in range; zero violations; all numbers
//! finite); CI runs generate → validate and validates the committed
//! artifact.

use std::time::Instant;

use bprc_core::{arena_strategy, entrants, ArenaBackend, Consensus, ConsensusSpec};
use bprc_sim::json::{check_finite, Value};
use bprc_sim::rng::derive_seed;
use bprc_sim::{Counter, World};

use crate::Scale;

/// Schema identifier written into (and required from) every document.
pub const SCHEMA: &str = "bprc.bench.arena/v1";

/// Process counts raced.
pub const SIZES: [usize; 3] = [2, 4, 8];

/// One measured grid row: `entrant` at size `n` over `backend`, averaged
/// over `trials` runs of at most `step_limit` scheduler steps each.
fn row(
    entrant: &dyn Consensus,
    n: usize,
    backend: ArenaBackend,
    trials: u64,
    step_limit: u64,
    seed: u64,
) -> Value {
    let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
    let mut decided = 0u64;
    let mut violations = 0u64;
    let mut rounds_sum = 0.0f64;
    let mut ops_sum = 0.0f64;
    let mut max_bits = 0u64;
    let mut scans = 0u64;
    let mut elapsed = 0.0f64;
    for trial in 0..trials {
        let trial_seed = derive_seed(seed, trial);
        let mut world = World::builder(n)
            .seed(trial_seed)
            .step_limit(step_limit)
            .record_history(false)
            .reg_mode(entrant.reg_mode())
            .build();
        let inst = entrant.build(&world, backend, &inputs, trial_seed);
        let started = Instant::now();
        let rep = world.run(inst.bodies, arena_strategy(entrant.reg_mode(), trial_seed));
        elapsed += started.elapsed().as_secs_f64();
        decided += rep.outputs.iter().filter(|o| o.is_some()).count() as u64;
        if ConsensusSpec::new(&inputs).check(&rep).is_some() {
            violations += 1;
        }
        rounds_sum += inst.probe.max_round() as f64;
        ops_sum += (rep.telemetry.total(Counter::RegReads)
            + rep.telemetry.total(Counter::RegWrites)) as f64;
        max_bits = max_bits.max(inst.probe.max_register_bits());
        scans += rep.telemetry.total(Counter::Scans);
    }
    let t = trials as f64;
    // A row that took no scans has no scan rate; 0 would read as "slow".
    let scans_per_sec = if scans == 0 {
        Value::Null
    } else {
        (scans as f64 / elapsed.max(1e-9)).into()
    };
    Value::obj(vec![
        (
            "name",
            format!("arena_{}_n{n}_{}", entrant.name(), backend.name()).into(),
        ),
        ("protocol", entrant.name().into()),
        ("n", n.into()),
        ("snapshot_backend", backend.name().into()),
        (
            "reg_mode",
            format!("{:?}", entrant.reg_mode()).to_lowercase().into(),
        ),
        ("trials", trials.into()),
        ("step_limit", step_limit.into()),
        (
            "decided_fraction",
            (decided as f64 / (n as u64 * trials) as f64).into(),
        ),
        ("violations", violations.into()),
        ("mean_rounds", (rounds_sum / t).into()),
        ("mean_total_ops", (ops_sum / t).into()),
        ("max_register_bits", max_bits.into()),
        ("scans_per_sec", scans_per_sec),
    ])
}

/// Runs the full race grid and builds the `BENCH_arena.json` document.
pub fn run(scale: Scale, seed: u64) -> Value {
    let (trials, step_limit) = match scale {
        Scale::Quick => (2, 200_000),
        Scale::Full => (5, 1_000_000),
    };
    let mut entries = Vec::new();
    for (e_idx, entrant) in entrants().iter().enumerate() {
        for (n_idx, &n) in SIZES.iter().enumerate() {
            for (b_idx, backend) in ArenaBackend::ALL.into_iter().enumerate() {
                let row_seed = derive_seed(seed, (e_idx * 100 + n_idx * 10 + b_idx) as u64);
                entries.push(row(
                    entrant.as_ref(),
                    n,
                    backend,
                    trials,
                    step_limit,
                    row_seed,
                ));
            }
        }
    }
    Value::obj(vec![
        ("schema", SCHEMA.into()),
        ("scale", scale.name().into()),
        ("seed", seed.into()),
        ("entries", Value::Arr(entries)),
    ])
}

/// Schema-validates a `BENCH_arena.json` document. Returns the list of
/// violations (empty means valid).
pub fn validate(doc: &Value) -> Vec<String> {
    let mut errs = Vec::new();
    match doc.get("schema").and_then(|s| s.as_str()) {
        Some(s) if s == SCHEMA => {}
        other => errs.push(format!("schema: expected {SCHEMA:?}, got {other:?}")),
    }
    if doc.get("scale").and_then(|s| s.as_str()).is_none() {
        errs.push("scale: missing or not a string".into());
    }
    let entries = match doc.get("entries").and_then(|e| e.as_arr()) {
        Some(e) if !e.is_empty() => e,
        _ => {
            errs.push("entries: missing or empty".into());
            return errs;
        }
    };
    let mut protocols_seen: Vec<String> = Vec::new();
    let mut sizes_seen: Vec<usize> = Vec::new();
    let mut backends_seen: Vec<String> = Vec::new();
    for (i, e) in entries.iter().enumerate() {
        let name = e
            .get("name")
            .and_then(|s| s.as_str())
            .map(str::to_string)
            .unwrap_or_else(|| format!("entries[{i}]"));
        match e.get("protocol").and_then(|p| p.as_str()) {
            Some(p) => {
                if !protocols_seen.iter().any(|s| s == p) {
                    protocols_seen.push(p.to_string());
                }
            }
            None => errs.push(format!("{name}: protocol missing")),
        }
        match e.get("n").and_then(|v| v.as_num()) {
            Some(n) => {
                if !sizes_seen.contains(&(n as usize)) {
                    sizes_seen.push(n as usize);
                }
            }
            None => errs.push(format!("{name}: n missing or not a number")),
        }
        match e.get("snapshot_backend").and_then(|b| b.as_str()) {
            Some(b) => {
                if !backends_seen.iter().any(|s| s == b) {
                    backends_seen.push(b.to_string());
                }
            }
            None => errs.push(format!("{name}: snapshot_backend missing")),
        }
        if e.get("reg_mode").and_then(|m| m.as_str()).is_none() {
            errs.push(format!("{name}: reg_mode missing"));
        }
        let num = |key: &str| e.get(key).and_then(|v| v.as_num());
        for key in [
            "trials",
            "step_limit",
            "decided_fraction",
            "violations",
            "mean_rounds",
            "mean_total_ops",
            "max_register_bits",
        ] {
            if num(key).is_none() {
                errs.push(format!("{name}.{key}: missing or not a number"));
            }
        }
        if num("scans_per_sec").is_none() && e.get("scans_per_sec") != Some(&Value::Null) {
            errs.push(format!(
                "{name}.scans_per_sec: must be a number, or null for a row that takes no scans"
            ));
        }
        if num("trials").unwrap_or(0.0) < 1.0 {
            errs.push(format!("{name}: no trials recorded"));
        }
        let frac = num("decided_fraction").unwrap_or(-1.0);
        if !(0.0..=1.0).contains(&frac) {
            errs.push(format!("{name}: decided_fraction {frac} outside [0, 1]"));
        }
        if num("violations").unwrap_or(1.0) != 0.0 {
            errs.push(format!(
                "{name}: agreement/validity violations recorded — the arena must be safe"
            ));
        }
        if frac > 0.0 {
            if num("mean_rounds").unwrap_or(0.0) < 1.0 {
                errs.push(format!("{name}: decided runs must advance rounds"));
            }
            if num("max_register_bits").unwrap_or(0.0) < 1.0 {
                errs.push(format!("{name}: decided runs must meter register width"));
            }
            if num("mean_total_ops").unwrap_or(0.0) < 1.0 {
                errs.push(format!("{name}: decided runs must count operations"));
            }
        }
    }
    // Required dimension coverage: the committed artifact must race the
    // whole field, not a subset.
    for entrant in entrants() {
        if !protocols_seen.iter().any(|p| p == entrant.name()) {
            errs.push(format!("entries: no {} protocol present", entrant.name()));
        }
    }
    for required in SIZES {
        if !sizes_seen.contains(&required) {
            errs.push(format!("entries: no n = {required} entry present"));
        }
    }
    for backend in ArenaBackend::ALL {
        if !backends_seen.iter().any(|b| b == backend.name()) {
            errs.push(format!(
                "entries: no {} snapshot backend present",
                backend.name()
            ));
        }
    }
    check_finite(doc, "$", &mut errs);
    errs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_race_emits_a_valid_document() {
        let doc = run(Scale::Quick, 3);
        let errs = validate(&doc);
        assert!(errs.is_empty(), "schema violations: {errs:?}");
        // Round-trips through the renderer and parser.
        let back = bprc_sim::json::parse(&doc.render_pretty(2)).unwrap();
        assert!(validate(&back).is_empty());
        // The race covers the full field: entrants × sizes × backends.
        let entries = doc.get("entries").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(
            entries.len(),
            entrants().len() * SIZES.len() * ArenaBackend::ALL.len()
        );
    }

    #[test]
    fn validate_rejects_broken_documents() {
        assert!(!validate(&Value::obj(vec![])).is_empty());
        let wrong = Value::obj(vec![("schema", "nope".into())]);
        assert!(validate(&wrong).iter().any(|e| e.starts_with("schema:")));
        // A row with a recorded safety violation must be rejected.
        let mut doc = run_stub();
        doc = patch_first_entry(doc, "violations", 1u64.into());
        assert!(validate(&doc)
            .iter()
            .any(|e| e.contains("violations recorded")));
        // An out-of-range decided fraction must be rejected.
        let mut doc = run_stub();
        doc = patch_first_entry(doc, "decided_fraction", 1.5f64.into());
        assert!(validate(&doc).iter().any(|e| e.contains("outside [0, 1]")));
    }

    #[test]
    fn scans_per_sec_is_a_number_or_null_and_nothing_else() {
        // The stub's rows are the swap race, which takes no scans.
        let doc = run_stub();
        let first = &doc.get("entries").and_then(|e| e.as_arr()).unwrap()[0];
        assert_eq!(first.get("scans_per_sec"), Some(&Value::Null));
        assert_eq!(validate(&doc), Vec::<String>::new());
        let numeric = patch_first_entry(run_stub(), "scans_per_sec", 1234.5f64.into());
        assert_eq!(validate(&numeric), Vec::<String>::new());
    }

    #[test]
    fn validate_rejects_a_non_numeric_scan_rate_and_null_elsewhere() {
        let text = patch_first_entry(run_stub(), "scans_per_sec", "n/a".into());
        assert!(validate(&text)
            .iter()
            .any(|e| e.contains("scans_per_sec: must be a number, or null")));
        // null is accepted for that key only.
        let null_ops = patch_first_entry(run_stub(), "mean_total_ops", Value::Null);
        assert!(validate(&null_ops)
            .iter()
            .any(|e| e.contains("mean_total_ops: missing or not a number")));
    }

    /// One real row (cheap: the swap race at n = 2) duplicated across the
    /// required dimension grid, so the dimension checks pass and the
    /// broken-document tests can patch a genuine entry.
    fn run_stub() -> Value {
        let entrant = bprc_core::SwapEntrant::default();
        let real = row(&entrant, 2, ArenaBackend::Handshake, 1, 100_000, 5);
        let mut entries = Vec::new();
        for e in entrants() {
            for &n in &SIZES {
                for b in ArenaBackend::ALL {
                    let mut fields: Vec<(&str, Value)> = vec![
                        ("protocol", e.name().into()),
                        ("n", n.into()),
                        ("snapshot_backend", b.name().into()),
                    ];
                    for key in [
                        "name",
                        "reg_mode",
                        "trials",
                        "step_limit",
                        "decided_fraction",
                        "violations",
                        "mean_rounds",
                        "mean_total_ops",
                        "max_register_bits",
                        "scans_per_sec",
                    ] {
                        if let Some(v) = real.get(key) {
                            fields.push((key, v.clone()));
                        }
                    }
                    entries.push(Value::obj(fields));
                }
            }
        }
        Value::obj(vec![
            ("schema", SCHEMA.into()),
            ("scale", "quick".into()),
            ("seed", 5u64.into()),
            ("entries", Value::Arr(entries)),
        ])
    }

    fn patch_first_entry(doc: Value, key: &str, v: Value) -> Value {
        let schema = doc.get("schema").unwrap().clone();
        let scale = doc.get("scale").unwrap().clone();
        let seed = doc.get("seed").unwrap().clone();
        let mut entries = doc
            .get("entries")
            .and_then(|e| e.as_arr())
            .unwrap()
            .to_vec();
        let first = &entries[0];
        let mut fields: Vec<(&str, Value)> = Vec::new();
        for k in [
            "name",
            "protocol",
            "n",
            "snapshot_backend",
            "reg_mode",
            "trials",
            "step_limit",
            "decided_fraction",
            "violations",
            "mean_rounds",
            "mean_total_ops",
            "max_register_bits",
            "scans_per_sec",
        ] {
            if k == key {
                fields.push((k, v.clone()));
            } else if let Some(old) = first.get(k) {
                fields.push((k, old.clone()));
            }
        }
        entries[0] = Value::obj(fields);
        Value::obj(vec![
            ("schema", schema),
            ("scale", scale),
            ("seed", seed),
            ("entries", Value::Arr(entries)),
        ])
    }
}
