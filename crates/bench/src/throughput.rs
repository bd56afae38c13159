//! Throughput benchmark — scans/sec and decisions/sec per backend.
//!
//! Reports *implementation* cost: how many snapshot scans and consensus
//! decisions each backend completes per wall-clock second — scans across
//! {lockstep, free_threads, turn} × n ∈ {2, 4, 8, 16, 32, 64, 128} (v3
//! added the three large sizes, where the cache-packed register backings
//! earn their keep), decisions across the same backends × n ∈ {2, 4, 8, 16}
//! — and, since schema v2, × snapshot backend: every register-level
//! workload is measured over both the paper's bounded handshake memory
//! (`"handshake"`) and the wait-free AADGMS snapshot (`"waitfree"`), so the
//! artifact documents what wait-freedom costs (embedded scans on every
//! update) next to what it buys (no scan retries under contention). The
//! turn-driver workloads run at protocol level with no registers at all and
//! carry `snapshot_backend: "none"`. The emitted `BENCH_throughput.json` is
//! schema-checked by [`validate`], and [`compare`] diffs two documents for
//! CI regression gating.
//!
//! Since v3 every register-level workload also carries `est_lines_per_op`:
//! an *analytic* cache-lines-touched estimate for one steady-state scan
//! (see [`est_lines_per_scan`]) — not a measurement (no perf-counter
//! dependency), but a model CI can diff so a layout change that silently
//! re-inflates a workload's cache footprint shows up in the artifact next
//! to the rate it explains.

use std::time::Instant;

use bprc_core::bounded::{BoundedCore, ConsensusParams};
use bprc_core::threaded::{ThreadedConsensus, WaitFreeConsensus};
use bprc_registers::DirectArrow;
use bprc_sim::json::Value;
use bprc_sim::rng::derive_seed;
use bprc_sim::sched::RandomStrategy;
use bprc_sim::turn::{TurnDriver, TurnProcess, TurnRandom, TurnStep};
use bprc_sim::world::ProcBody;
use bprc_sim::{Counter, Mode, World};
use bprc_snapshot::{ScannableMemory, SnapshotBackend, SnapshotPort, WaitFreeSnapshot};

use crate::Scale;

/// Schema identifier written into (and required from) every document.
/// v2 added the `snapshot_backend` dimension to every workload; v3 added
/// the n ∈ {32, 64, 128} scan rows and the per-workload `est_lines_per_op`
/// model; v4 dropped the before/after `comparisons` cells.
pub const SCHEMA: &str = "bprc.bench.throughput/v4";

/// The snapshot-backend dimension values register-level workloads carry.
pub const SNAPSHOT_BACKENDS: [&str; 2] = ["handshake", "waitfree"];

/// Process counts the scan workloads cover. The three large sizes are
/// where the packed register backings change the picture: at n = 128 the
/// per-pair handshake state alone is 16 K cells, which the bit chunks fold
/// into 32 cache lines.
pub const SIZES: [usize; 7] = [2, 4, 8, 16, 32, 64, 128];

/// Process counts the (much heavier) full-consensus decision workloads
/// cover — unchanged from v2: a single n = 32 consensus instance is already
/// minutes of work at quick scale, so the decision grid stays small.
pub const DECISION_SIZES: [usize; 4] = [2, 4, 8, 16];

/// Relative slowdown tolerated by [`compare`] before a workload counts as
/// regressed (after machine-speed normalization).
pub const REGRESSION_TOLERANCE: f64 = 0.30;

/// Workloads whose measurement window (in either document) is shorter than
/// this are reported but excluded from the regression gate — windows in the
/// tens of milliseconds are dominated by scheduler jitter, not by the code
/// under test (observed run-to-run swings of ±60% on 10–20 ms free-thread
/// and turn rows on an otherwise idle machine). At quick scale this leaves
/// the deterministic lockstep rows carrying the gate.
pub const MIN_GATED_ELAPSED_SEC: f64 = 0.05;

/// Analytic lines-touched model: estimated distinct 64-byte cache lines one
/// steady-state successful scan touches on the packed register backings,
/// for a u64-payload snapshot of `snap` at size `n`. Not a measurement —
/// the container has no perf-counter access and the repo takes no new
/// dependencies — but a model CI can diff: a layout change that silently
/// re-inflates the footprint moves these numbers in the committed artifact.
///
/// Model terms (handshake):
/// * arrow bits — one lower pass + one re-read pass over the n−1 arrows
///   aimed at the scanner. Arrow bits allocate writer-major, so a scanner's
///   column is strided n−1 bits apart: distinct 512-bit chunks per pass =
///   `min(n−1, ⌈(n−1)²/512⌉)`.
/// * seq validation — two collect passes over the contiguous version-word
///   vector: `⌈n/8⌉` lines each.
/// * payload — steady state deep-copies ~2 changed slots per collect
///   (the model's contention constant), each `⌈slot_words/8⌉` lines.
///
/// The wait-free snapshot has no arrows, but its slots embed an `n`-entry
/// view (`2n+3` words for u64 payloads), so its payload term dominates.
/// Turn-driver workloads touch no registers: 0. The decision workloads
/// carry the estimate of their *underlying* scan.
pub fn est_lines_per_scan(snap: &str, n: usize) -> f64 {
    let div_up = |a: usize, b: usize| a.div_ceil(b);
    let versions = 2 * div_up(n, 8);
    match snap {
        "handshake" => {
            let arrow_chunks = (n - 1).min(div_up((n - 1) * (n - 1), 512));
            // Slot<u64> packs to 3 words: value, toggle, ghost seq.
            let payload = 4 * div_up(3, 8);
            (2 * arrow_chunks + versions + payload) as f64
        }
        "waitfree" => {
            let slot_words = 2 * n + 3;
            let payload = 4 * div_up(slot_words, 8);
            (versions + payload) as f64
        }
        _ => 0.0,
    }
}

struct Measured {
    name: String,
    backend: &'static str,
    snapshot_backend: &'static str,
    kind: &'static str,
    n: usize,
    ops: u64,
    elapsed_sec: f64,
}

impl Measured {
    fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.elapsed_sec.max(1e-9)
    }

    fn to_json(&self) -> Value {
        Value::obj(vec![
            ("name", self.name.as_str().into()),
            ("backend", self.backend.into()),
            ("snapshot_backend", self.snapshot_backend.into()),
            ("kind", self.kind.into()),
            ("n", self.n.into()),
            ("ops", self.ops.into()),
            ("elapsed_sec", self.elapsed_sec.into()),
            ("ops_per_sec", self.ops_per_sec().into()),
            (
                "est_lines_per_op",
                est_lines_per_scan(self.snapshot_backend, self.n).into(),
            ),
        ])
    }
}

/// Builds `n` bodies that each run `iters` update+scan iterations over one
/// shared snapshot object of backend `B`, and runs them in `world`.
/// Returns completed scans (from telemetry) and elapsed wall time.
fn run_scan_bodies<B: SnapshotBackend<u64>>(mut world: World, n: usize, iters: u64) -> (u64, f64) {
    // `alloc_fast` puts the value slots on seqlock lanes (the handshake
    // memory's fixed-width cells and the wait-free snapshot's
    // dynamic-width ones both qualify for u64 payloads at these sizes).
    let mem = B::alloc_fast(&world, n, 0u64);
    let bodies: Vec<ProcBody<u64>> = (0..n)
        .map(|pid| {
            let mut port = mem.port(pid);
            let b: ProcBody<u64> = Box::new(move |ctx| {
                let mut view: Vec<u64> = Vec::new();
                let mut acc = 0u64;
                for k in 1..=iters {
                    port.update(ctx, k)?;
                    port.scan_into(ctx, &mut view)?;
                    acc = acc.wrapping_add(view.iter().sum::<u64>());
                }
                Ok(acc)
            });
            b
        })
        .collect();
    let start = Instant::now();
    let rep = world.run(bodies, Box::new(RandomStrategy::new(7)));
    let elapsed = start.elapsed().as_secs_f64();
    (rep.telemetry.total(Counter::Scans), elapsed)
}

/// Scan throughput on the lockstep backend. History recording is off: the
/// workload measures the scan path, not the event log appends.
fn lockstep_scan<B: SnapshotBackend<u64>>(n: usize, iters: u64) -> Measured {
    let world = World::builder(n)
        .step_limit(u64::MAX)
        .record_history(false)
        .build();
    let (ops, elapsed_sec) = run_scan_bodies::<B>(world, n, iters);
    Measured {
        name: format!("scan_lockstep_n{n}_{}", B::NAME),
        backend: "lockstep",
        snapshot_backend: B::NAME,
        kind: "scan",
        n,
        ops,
        elapsed_sec,
    }
}

/// Scan throughput on free-running OS threads — the backend where the
/// seqlock cells and the allocation-free collects actually change the
/// machine-level hot path.
fn threads_scan<B: SnapshotBackend<u64>>(n: usize, iters: u64) -> Measured {
    let world = World::builder(n)
        .mode(Mode::Free)
        .step_limit(u64::MAX)
        .build();
    let (ops, elapsed_sec) = run_scan_bodies::<B>(world, n, iters);
    Measured {
        name: format!("scan_threads_n{n}_{}", B::NAME),
        backend: "free_threads",
        snapshot_backend: B::NAME,
        kind: "scan",
        n,
        ops,
        elapsed_sec,
    }
}

/// A [`TurnProcess`] that does nothing but scan and write for `iters`
/// iterations — the turn driver's scan-throughput spinner.
struct ScanSpinner {
    iters: u64,
    i: u64,
}

impl TurnProcess for ScanSpinner {
    type Msg = u64;
    type Out = u64;

    fn initial_msg(&mut self) -> u64 {
        0
    }

    fn on_scan(&mut self, view: &[u64]) -> TurnStep<u64, u64> {
        self.i += 1;
        if self.i >= self.iters {
            TurnStep::Decide(view.iter().sum())
        } else {
            TurnStep::Write(self.i)
        }
    }
}

/// Scan throughput on the turn driver (scan/write event granularity).
fn turn_scan(n: usize, iters: u64, seed: u64) -> Measured {
    let procs: Vec<ScanSpinner> = (0..n).map(|_| ScanSpinner { iters, i: 0 }).collect();
    let start = Instant::now();
    let rep = TurnDriver::new(procs).run(&mut TurnRandom::new(seed), iters * n as u64 * 4 + 64);
    let elapsed_sec = start.elapsed().as_secs_f64();
    Measured {
        name: format!("scan_turn_n{n}"),
        backend: "turn",
        snapshot_backend: "none",
        kind: "scan",
        n,
        ops: rep.telemetry.total(Counter::Scans),
        elapsed_sec,
    }
}

/// Turn-driver decisions throughput (protocol level, no registers).
fn turn_decisions(n: usize, trials: u64, seed0: u64) -> Measured {
    let mut ops = 0u64;
    let start = Instant::now();
    for trial in 0..trials {
        let seed = derive_seed(seed0, trial);
        let params = ConsensusParams::quick(n);
        let procs: Vec<BoundedCore> = (0..n)
            .map(|p| BoundedCore::new(params.clone(), p, p % 2 == 0, derive_seed(seed, p as u64)))
            .collect();
        let rep = TurnDriver::new(procs).run(&mut TurnRandom::new(seed), 50_000_000);
        ops += rep.telemetry.total(Counter::Decisions);
    }
    let elapsed_sec = start.elapsed().as_secs_f64();
    Measured {
        name: format!("decisions_turn_n{n}"),
        backend: "turn",
        snapshot_backend: "none",
        kind: "decisions",
        n,
        ops,
        elapsed_sec,
    }
}

/// Register-level decisions throughput: full consensus instances back to
/// back over snapshot backend `B`; ops = processes that decided.
fn decisions_workload(
    backend: &'static str,
    snap: &'static str,
    n: usize,
    trials: u64,
    seed0: u64,
) -> Measured {
    let mut ops = 0u64;
    let start = Instant::now();
    for trial in 0..trials {
        let seed = derive_seed(seed0, trial);
        let params = ConsensusParams::quick(n);
        let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let mut builder = World::builder(n).seed(seed).record_history(false);
        builder = match backend {
            "free_threads" => builder.mode(Mode::Free).step_limit(u64::MAX),
            _ => builder.step_limit(50_000_000),
        };
        let mut world = builder.build();
        let rep = match snap {
            "waitfree" => {
                let inst = WaitFreeConsensus::new(&world, &params, &inputs, seed);
                world.run(inst.bodies, Box::new(RandomStrategy::new(seed)))
            }
            _ => {
                let inst = ThreadedConsensus::<DirectArrow>::new(&world, &params, &inputs, seed);
                world.run(inst.bodies, Box::new(RandomStrategy::new(seed)))
            }
        };
        ops += rep.telemetry.total(Counter::Decisions);
    }
    let elapsed_sec = start.elapsed().as_secs_f64();
    Measured {
        name: format!("decisions_{backend}_n{n}_{snap}"),
        backend,
        snapshot_backend: snap,
        kind: "decisions",
        n,
        ops,
        elapsed_sec,
    }
}

/// Runs the suite and builds the `BENCH_throughput.json` document.
pub fn run(scale: Scale, seed: u64) -> Value {
    let mut workloads = Vec::new();
    for &n in &SIZES {
        // Per-op work grows like n² at the register level (each scan is
        // O(n) accesses and every process scans), so iteration counts
        // shrink with n to keep the whole grid wall-clock bounded; the
        // rates stay comparable because they are per completed op.
        let (lockstep_iters, free_iters, turn_iters) = match scale {
            Scale::Quick => match n {
                _ if n <= 16 => (20, 150, 2_000),
                32 => (6, 30, 600),
                64 => (3, 10, 200),
                _ => (1, 4, 80),
            },
            Scale::Full => match n {
                _ if n <= 16 => (100, 1_000, 20_000),
                32 => (25, 150, 4_000),
                64 => (10, 50, 1_500),
                _ => (4, 20, 600),
            },
        };
        workloads.push(lockstep_scan::<ScannableMemory<u64, DirectArrow>>(
            n,
            lockstep_iters,
        ));
        workloads.push(lockstep_scan::<WaitFreeSnapshot<u64>>(n, lockstep_iters));
        workloads.push(threads_scan::<ScannableMemory<u64, DirectArrow>>(
            n, free_iters,
        ));
        workloads.push(threads_scan::<WaitFreeSnapshot<u64>>(n, free_iters));
        workloads.push(turn_scan(n, turn_iters, derive_seed(seed, n as u64)));
    }
    for &n in &DECISION_SIZES {
        // Decision trials shrink with n so the suite stays wall-clock
        // bounded (a single n=16 instance is ~8x the work of an n=2 one).
        let trials = match scale {
            Scale::Quick => {
                if n >= 8 {
                    1
                } else {
                    2
                }
            }
            Scale::Full => {
                if n >= 8 {
                    2
                } else {
                    5
                }
            }
        };
        for backend in ["lockstep", "free_threads"] {
            for snap in SNAPSHOT_BACKENDS {
                workloads.push(decisions_workload(
                    backend,
                    snap,
                    n,
                    trials,
                    derive_seed(seed, 500 + n as u64),
                ));
            }
        }
        workloads.push(turn_decisions(n, trials, derive_seed(seed, 500 + n as u64)));
    }
    Value::obj(vec![
        ("schema", SCHEMA.into()),
        ("scale", scale.name().into()),
        ("seed", seed.into()),
        (
            "workloads",
            Value::Arr(workloads.iter().map(|w| w.to_json()).collect()),
        ),
    ])
}

/// Schema-validates a `BENCH_throughput.json` document. Returns the list of
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
    let workloads = match doc.get("workloads").and_then(|w| w.as_arr()) {
        Some(w) if !w.is_empty() => w,
        _ => {
            errs.push("workloads: missing or empty".into());
            return errs;
        }
    };
    let mut backends_seen = Vec::new();
    let mut snaps_seen = Vec::new();
    let mut kinds_seen = Vec::new();
    for (i, w) in workloads.iter().enumerate() {
        let name = w
            .get("name")
            .and_then(|s| s.as_str())
            .map(str::to_string)
            .unwrap_or_else(|| format!("workloads[{i}]"));
        match w.get("backend").and_then(|b| b.as_str()) {
            Some(b) => {
                if !backends_seen.contains(&b.to_string()) {
                    backends_seen.push(b.to_string());
                }
            }
            None => errs.push(format!("{name}: backend missing")),
        }
        match w.get("snapshot_backend").and_then(|b| b.as_str()) {
            Some(s) => {
                if !snaps_seen.contains(&s.to_string()) {
                    snaps_seen.push(s.to_string());
                }
            }
            None => errs.push(format!("{name}: snapshot_backend missing")),
        }
        match w.get("kind").and_then(|k| k.as_str()) {
            Some(k) => {
                if !kinds_seen.contains(&k.to_string()) {
                    kinds_seen.push(k.to_string());
                }
            }
            None => errs.push(format!("{name}: kind missing")),
        }
        for key in ["n", "ops", "elapsed_sec", "ops_per_sec", "est_lines_per_op"] {
            if w.get(key).and_then(|v| v.as_num()).is_none() {
                errs.push(format!("{name}: {key} missing or not a number"));
            }
        }
    }
    // Every scan size must be covered on both register-level snapshot
    // backends — the v3 grid includes the large-n rows.
    for &n in &SIZES {
        for snap in SNAPSHOT_BACKENDS {
            let covered = workloads.iter().any(|w| {
                w.get("kind").and_then(|k| k.as_str()) == Some("scan")
                    && w.get("snapshot_backend").and_then(|s| s.as_str()) == Some(snap)
                    && w.get("n").and_then(|v| v.as_num()) == Some(n as f64)
            });
            if !covered {
                errs.push(format!("workloads: no {snap} scan row at n={n}"));
            }
        }
    }
    for required in ["lockstep", "free_threads", "turn"] {
        if !backends_seen.iter().any(|b| b == required) {
            errs.push(format!("workloads: no {required} backend present"));
        }
    }
    for required in SNAPSHOT_BACKENDS {
        if !snaps_seen.iter().any(|s| s == required) {
            errs.push(format!("workloads: no {required} snapshot backend present"));
        }
    }
    for required in ["scan", "decisions"] {
        if !kinds_seen.iter().any(|k| k == required) {
            errs.push(format!("workloads: no {required} kind present"));
        }
    }
    errs
}

/// Compares a new document against a committed baseline. Returns
/// human-readable report lines plus the list of regressions (empty = pass).
///
/// Absolute ops/sec shifts with the machine, so the gate is *relative*: the
/// median per-workload ratio (new/old) is taken as the machine-speed
/// normalizer, and a workload only counts as regressed when it is more than
/// [`REGRESSION_TOLERANCE`] slower than that median says it should be.
pub fn compare(old: &Value, new: &Value) -> (Vec<String>, Vec<String>) {
    let mut report = Vec::new();
    let mut failures = Vec::new();
    // (ops_per_sec, elapsed_sec) — elapsed decides whether the workload is
    // long enough to gate on at all.
    let rate = |doc: &Value, name: &str| -> Option<(f64, f64)> {
        doc.get("workloads")?.as_arr()?.iter().find_map(|w| {
            if w.get("name")?.as_str()? == name {
                Some((
                    w.get("ops_per_sec")?.as_num()?,
                    w.get("elapsed_sec")?.as_num()?,
                ))
            } else {
                None
            }
        })
    };
    let names: Vec<String> = old
        .get("workloads")
        .and_then(|w| w.as_arr())
        .map(|ws| {
            ws.iter()
                .filter_map(|w| w.get("name")?.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default();
    let mut ratios: Vec<(String, f64)> = Vec::new();
    for name in &names {
        match (rate(old, name), rate(new, name)) {
            (Some((o, oe)), Some((n, ne))) if o > 0.0 => {
                // Workloads measured in under a few milliseconds are timer
                // noise, not signal — report them, but never gate on them.
                if oe.min(ne) < MIN_GATED_ELAPSED_SEC {
                    report.push(format!(
                        "{name}: x{:.3} [noisy: measured under {MIN_GATED_ELAPSED_SEC}s, ungated]",
                        n / o
                    ));
                } else {
                    ratios.push((name.clone(), n / o));
                }
            }
            _ => report.push(format!("{name}: missing from new document, skipped")),
        }
    }
    if ratios.is_empty() {
        failures.push("no comparable workloads between the two documents".into());
        return (report, failures);
    }
    let mut sorted: Vec<f64> = ratios.iter().map(|(_, r)| *r).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = sorted[sorted.len() / 2];
    report.push(format!(
        "median new/old throughput ratio: {median:.3} ({} workloads)",
        ratios.len()
    ));
    let floor = median * (1.0 - REGRESSION_TOLERANCE);
    for (name, r) in &ratios {
        let verdict = if *r < floor { "REGRESSED" } else { "ok" };
        report.push(format!("{name}: x{r:.3} [{verdict}]"));
        if *r < floor {
            failures.push(format!(
                "{name}: throughput ratio {r:.3} below floor {floor:.3} \
                 (median {median:.3}, tolerance {REGRESSION_TOLERANCE})"
            ));
        }
    }
    (report, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic workload row with the full v3 shape.
    fn fixture_row(
        name: &str,
        backend: &str,
        snap: &str,
        kind: &str,
        n: usize,
        rate: f64,
    ) -> Value {
        Value::obj(vec![
            ("name", name.into()),
            ("backend", backend.into()),
            ("snapshot_backend", snap.into()),
            ("kind", kind.into()),
            ("n", n.into()),
            ("ops", 100u64.into()),
            ("elapsed_sec", (100.0 / rate).into()),
            ("ops_per_sec", rate.into()),
            ("est_lines_per_op", est_lines_per_scan(snap, n).into()),
        ])
    }

    /// Scan rows covering every size × both backends (the v3 coverage the
    /// validator requires), plus a turn row and a decisions row.
    fn fixture_workloads(scale_rate: f64) -> Vec<Value> {
        let mut rows = Vec::new();
        for &n in &SIZES {
            rows.push(fixture_row(
                &format!("scan_lockstep_n{n}_handshake"),
                "lockstep",
                "handshake",
                "scan",
                n,
                scale_rate,
            ));
            rows.push(fixture_row(
                &format!("scan_threads_n{n}_waitfree"),
                "free_threads",
                "waitfree",
                "scan",
                n,
                2.0 * scale_rate,
            ));
        }
        rows.push(fixture_row(
            "scan_turn_n2",
            "turn",
            "none",
            "scan",
            2,
            10.0 * scale_rate,
        ));
        rows.push(fixture_row(
            "decisions_turn_n2",
            "turn",
            "none",
            "decisions",
            2,
            3.0 * scale_rate,
        ));
        rows
    }

    /// A tiny document with the full shape but trivial workloads — the
    /// schema/compare tests don't need real measurements.
    fn tiny_doc(scale_rate: f64) -> Value {
        Value::obj(vec![
            ("schema", SCHEMA.into()),
            ("scale", "quick".into()),
            ("seed", 1u64.into()),
            ("workloads", Value::Arr(fixture_workloads(scale_rate))),
        ])
    }

    #[test]
    fn tiny_document_is_schema_valid() {
        assert_eq!(validate(&tiny_doc(100.0)), Vec::<String>::new());
    }

    #[test]
    fn validate_rejects_broken_documents() {
        let empty = Value::obj(vec![]);
        assert!(!validate(&empty).is_empty());
        let wrong_schema = Value::obj(vec![("schema", "nope".into())]);
        assert!(validate(&wrong_schema)
            .iter()
            .any(|e| e.starts_with("schema:")));
    }

    #[test]
    fn validate_requires_large_n_scan_coverage() {
        // Dropping the n=128 scan rows must be a schema violation: the v3
        // grid is part of the contract, not an optional extra.
        let mut doc = tiny_doc(100.0);
        if let Value::Obj(pairs) = &mut doc {
            for (k, v) in pairs.iter_mut() {
                if k == "workloads" {
                    if let Value::Arr(ws) = v {
                        ws.retain(|w| w.get("n").and_then(|n| n.as_num()) != Some(128.0));
                    }
                }
            }
        }
        assert!(
            validate(&doc).iter().any(|e| e.contains("n=128")),
            "missing large-n rows must fail validation"
        );
    }

    #[test]
    fn lines_model_shrinks_relative_to_unpacked_layouts() {
        // The whole point of the packed backings: the modelled footprint
        // grows like n²/512 + n/8, far below the n² distinct lines an
        // unpacked handshake memory touches. Spot-check the shape.
        let at = |n: usize| est_lines_per_scan("handshake", n);
        assert!(
            at(128) < 2.0 * 127.0,
            "n=128 must be far below 2(n-1) lines"
        );
        assert!(at(32) <= at(64) && at(64) <= at(128), "monotone in n");
        assert_eq!(est_lines_per_scan("none", 16), 0.0);
        assert!(est_lines_per_scan("waitfree", 16) > 0.0);
    }

    #[test]
    fn compare_passes_uniform_speed_changes_and_flags_outliers() {
        // Same machine: identical docs pass.
        let (_, fails) = compare(&tiny_doc(100.0), &tiny_doc(100.0));
        assert!(fails.is_empty(), "{fails:?}");
        // A uniformly 3x faster machine also passes (median normalizes).
        let (_, fails) = compare(&tiny_doc(100.0), &tiny_doc(300.0));
        assert!(fails.is_empty(), "{fails:?}");
        // One workload cratering 10x while the rest hold must be flagged.
        let old = tiny_doc(100.0);
        let mut new = tiny_doc(100.0);
        if let Value::Obj(pairs) = &mut new {
            for (k, v) in pairs.iter_mut() {
                if k == "workloads" {
                    if let Value::Arr(ws) = v {
                        if let Value::Obj(w0) = &mut ws[0] {
                            for (wk, wv) in w0.iter_mut() {
                                if wk == "ops_per_sec" {
                                    *wv = 10.0.into();
                                }
                            }
                        }
                    }
                }
            }
        }
        let (_, fails) = compare(&old, &new);
        assert!(
            fails.iter().any(|f| f.starts_with("scan_lockstep_n2")),
            "{fails:?}"
        );
    }

    #[test]
    fn small_real_run_emits_a_valid_document() {
        // A real (but minimal) measurement pass: exercise every workload
        // constructor at n=2 and the document assembly end to end without
        // paying for the whole quick grid in a unit test. The coverage the
        // validator demands at larger n is filled with fixture rows — the
        // full grid is the bench binary's job, not a unit test's.
        let measured = vec![
            lockstep_scan::<ScannableMemory<u64, DirectArrow>>(2, 5),
            lockstep_scan::<WaitFreeSnapshot<u64>>(2, 5),
            threads_scan::<ScannableMemory<u64, DirectArrow>>(2, 20),
            threads_scan::<WaitFreeSnapshot<u64>>(2, 20),
            turn_scan(2, 100, 3),
            decisions_workload("lockstep", "handshake", 2, 1, 3),
            decisions_workload("lockstep", "waitfree", 2, 1, 3),
            decisions_workload("free_threads", "handshake", 2, 1, 3),
            decisions_workload("free_threads", "waitfree", 2, 1, 3),
            turn_decisions(2, 1, 3),
        ];
        for w in &measured {
            assert!(w.ops > 0, "{}: no ops measured", w.name);
            assert!(w.ops_per_sec() > 0.0, "{}: zero rate", w.name);
        }
        let mut workloads: Vec<Value> = measured.iter().map(|w| w.to_json()).collect();
        for &n in &SIZES[1..] {
            for snap in SNAPSHOT_BACKENDS {
                workloads.push(fixture_row(
                    &format!("scan_lockstep_n{n}_{snap}"),
                    "lockstep",
                    snap,
                    "scan",
                    n,
                    50.0,
                ));
            }
        }
        let doc = Value::obj(vec![
            ("schema", SCHEMA.into()),
            ("scale", "quick".into()),
            ("seed", 3u64.into()),
            ("workloads", Value::Arr(workloads)),
        ]);
        let errs = validate(&doc);
        assert!(errs.is_empty(), "schema violations: {errs:?}");
        // Round-trips through the JSON renderer and parser.
        let text = doc.render_pretty(2);
        let back = bprc_sim::json::parse(&text).expect("rendered JSON parses");
        assert!(validate(&back).is_empty());
    }
}
