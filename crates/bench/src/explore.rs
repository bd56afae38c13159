//! Schedule-exploration benchmark — coverage and throughput of the
//! systematic explorer.
//!
//! Where [`crate::throughput`] measures how fast the backends execute one
//! schedule, this module measures how fast `bprc_sim::explore` enumerates
//! *many*: bounded-exhaustive DFS over small snapshot configurations and a
//! PCT sweep at n = 4, every explored schedule checked against the snapshot
//! properties P1–P3. The emitted `BENCH_explore.json` also carries an
//! end-to-end counterexample demonstration: an intentionally broken
//! single-collect scanner is explored, caught, shrunk to a minimal decision
//! trace, serialized (`bprc-trace-v1`), and replayed to the same violation —
//! so every generated file proves the replay pipeline works on the machine
//! that produced it. [`validate`] schema-checks a document and fails on any
//! recorded violation or replay mismatch; CI runs both steps.
//!
//! Schema v2 additionally covers the schedule×fault space: exhaustive
//! entries carry their [`ExploreConfig::fault_budget`] and per-crash-count
//! schedule buckets (`schedules_by_faults`), and a `frontier` section times
//! the same fault-budgeted frontier through the work-stealing parallel
//! explorer against the `workers = 1` serial baseline. [`validate`] also
//! rejects any non-finite number anywhere in the document — a rate or
//! speedup that divided through to `inf`/`NaN` would render as JSON no
//! parser accepts, so it must be caught before the file is written.
//!
//! Schema v3 adds the weak-memory `litmus` section: the whole corpus
//! (`bprc_sim::litmus`) is explored under SC, TSO, and PSO (v4: one row per
//! program × mode, no `plane` column). Rows where the matrix expects the
//! forbidden outcome must record it found, shrunk, round-tripped
//! byte-identically, and replayed; rows where the model's physics forbid it
//! must record an exhaustive clean enumeration. [`validate`] fails on any row whose
//! `outcome_ok` is false, and requires the matrix to exercise both kinds
//! of cell.

use bprc_registers::DirectArrow;
use bprc_sim::explore::{
    explore, explore_parallel, run_trace, shrink_trace, DecisionTrace, ExploreConfig,
    ExploreReport, Independence, ParallelConfig, TRACE_SCHEMA,
};
use bprc_sim::json::{check_finite, Value};
use bprc_sim::litmus::{corpus, LitmusProgram};
use bprc_sim::sched::PctStrategy;
use bprc_sim::world::{ProcBody, RunReport, World};
use bprc_sim::{Counter, MetricsRegistry, WeakMode};
use bprc_snapshot::memory::labels;
use bprc_snapshot::{check_history, ScannableMemory, SnapshotMeta};

use crate::Scale;

/// Schema identifier written into (and required from) every document.
pub const SCHEMA: &str = "bprc.bench.explore/v4";

/// PCT schedules sampled at n = 4 (both scales — the CI smoke requires the
/// full thousand).
pub const PCT_SCHEDULES: u64 = 1_000;

pub(crate) fn meta_for(n: usize) -> SnapshotMeta {
    let world = World::builder(n).build();
    ScannableMemory::<u64, DirectArrow>::new(&world, n, 0).meta()
}

pub(crate) fn p1_p3_check(r: &RunReport<Vec<u64>>, meta: &SnapshotMeta) -> Option<String> {
    let history = r.history.as_ref().expect("lockstep records history");
    check_history(history, meta)
        .violations
        .first()
        .map(|v| format!("snapshot property violated: {v:?}"))
}

/// n = 2, both processes update their cell then scan — the canonical
/// exhaustive configuration from the test suite.
pub(crate) fn n2_update_scan_factory() -> impl Fn() -> (World, Vec<ProcBody<Vec<u64>>>) + Sync {
    || {
        let world = World::builder(2).seed(0).build();
        let mem = ScannableMemory::<u64, DirectArrow>::new(&world, 2, 0);
        let bodies: Vec<ProcBody<Vec<u64>>> = (0..2)
            .map(|pid| {
                let mut port = mem.port(pid);
                let b: ProcBody<Vec<u64>> = Box::new(move |ctx| {
                    port.update(ctx, 10 + pid as u64)?;
                    port.scan(ctx)
                });
                b
            })
            .collect();
        (world, bodies)
    }
}

/// n = 3, two annotated single-write writers racing one honest
/// double-collect scanner over raw registers — the widest configuration the
/// exhaustive DFS covers in CI wall-clock. (The full `ScannableMemory`
/// bodies are too long at n = 3: exhaustive enumeration of three 12+-op
/// processes is beyond any CI budget, so the n = 3 statement is made on
/// this distilled update/scan skeleton instead.)
pub(crate) fn n3_writers_scanner_factory() -> impl Fn() -> (World, Vec<ProcBody<Vec<u64>>>) + Sync {
    || {
        let world = World::builder(3).seed(0).build();
        let v: Vec<_> = (0..3).map(|i| world.reg(format!("V{i}"), 0u64)).collect();
        let mut bodies: Vec<ProcBody<Vec<u64>>> = Vec::new();
        for pid in 0..2 {
            let reg = v[pid].clone();
            bodies.push(Box::new(move |ctx| {
                ctx.annotate(labels::UPD_START, vec![1]);
                reg.write_tagged(ctx, 1, 1)?;
                ctx.annotate(labels::UPD_END, vec![1]);
                Ok(vec![])
            }));
        }
        let regs = v.clone();
        bodies.push(Box::new(move |ctx| {
            ctx.annotate(labels::SCAN_START, vec![]);
            // Collect until two consecutive identical views; the registers
            // are monotone (0 → 1, written once), so this terminates within
            // four collects and the repeated view is a valid snapshot.
            let mut prev: Option<Vec<u64>> = None;
            let view = loop {
                let mut cur = Vec::with_capacity(3);
                for reg in &regs {
                    cur.push(reg.read(ctx)?);
                }
                if prev.as_ref() == Some(&cur) {
                    break cur;
                }
                prev = Some(cur);
            };
            ctx.annotate(labels::SCAN_END, view.clone());
            Ok(view)
        }));
        (world, bodies)
    }
}

/// Meta for the hand-rolled three-register layouts (the n = 3 exhaustive
/// entry and the broken fixture): registers 0–2 are the value slots and
/// values double as sequence numbers.
pub(crate) fn raw_meta() -> SnapshotMeta {
    SnapshotMeta {
        value_regs: vec![0, 1, 2],
    }
}

/// All memory modes the litmus matrix enumerates.
pub(crate) const LITMUS_MODES: [WeakMode; 3] = [WeakMode::Sc, WeakMode::Tso, WeakMode::Pso];

/// One fully-verified cell of the litmus matrix.
pub(crate) struct LitmusOutcome {
    /// Corpus program name.
    pub name: &'static str,
    /// Memory mode the cell ran under.
    pub mode: WeakMode,
    /// Whether the matrix expects the forbidden outcome reachable here.
    pub expected_found: bool,
    /// The cell's verdict: expected-unreachable cells must exhaust clean;
    /// expected-found cells must be found, shrunk, round-tripped
    /// byte-identically, and replayed to the same violation.
    pub ok: bool,
    /// Schedules the exploration executed.
    pub schedules: u64,
    /// Shrunk counterexample length (expected-found cells only).
    pub shrunk_len: Option<usize>,
    /// Human-readable failure reason when `ok` is false.
    pub detail: String,
}

/// Drives one cell of the litmus matrix end to end: explore, then (when the
/// forbidden outcome is expected) shrink, serialize, parse back, and replay.
pub(crate) fn litmus_cell(prog: &LitmusProgram, mode: WeakMode) -> LitmusOutcome {
    let build = prog.build;
    let check = prog.check;
    let mut make = move || build(mode);
    let rep = explore(&ExploreConfig::default(), &mut make, |r| check(r));
    let expected_found = prog.expected_found(mode);
    let mut out = LitmusOutcome {
        name: prog.name,
        mode,
        expected_found,
        ok: false,
        schedules: rep.schedules,
        shrunk_len: None,
        detail: String::new(),
    };
    if !expected_found {
        match (&rep.violation, rep.exhausted) {
            (Some(cex), _) => {
                out.detail = format!("forbidden outcome reached: {}", cex.description)
            }
            (None, false) => out.detail = "unreachability claim truncated by budget".to_string(),
            (None, true) => out.ok = true,
        }
        return out;
    }
    let Some(cex) = &rep.violation else {
        out.detail = format!("forbidden outcome not found in {} schedules", rep.schedules);
        return out;
    };
    let (min, _) = shrink_trace(&mut make, &mut |r| check(r), cex.trace.clone());
    out.shrunk_len = Some(min.decisions.len());
    let json = min.to_json();
    let round_trip = DecisionTrace::from_json(&json)
        .map(|t| t.to_json() == json)
        .unwrap_or(false);
    let (replayed, _) = run_trace(&mut make, &min);
    let reproduces = check(&replayed).is_some();
    if !round_trip {
        out.detail = "shrunk trace did not round-trip byte-identically".to_string();
    } else if !reproduces {
        out.detail = "shrunk trace did not replay to the violation".to_string();
    } else {
        out.ok = true;
    }
    out
}

/// The full weak-memory litmus matrix: corpus × modes.
fn litmus_section() -> Value {
    let mut rows = Vec::new();
    for prog in corpus() {
        for mode in LITMUS_MODES {
            let cell = litmus_cell(&prog, mode);
            rows.push(Value::obj(vec![
                ("program", cell.name.into()),
                ("mode", cell.mode.name().into()),
                ("expected_found", cell.expected_found.into()),
                ("outcome_ok", cell.ok.into()),
                ("schedules", cell.schedules.into()),
                (
                    "shrunk_len",
                    cell.shrunk_len.map(Value::from).unwrap_or(Value::Null),
                ),
                (
                    "detail",
                    if cell.detail.is_empty() {
                        Value::Null
                    } else {
                        cell.detail.as_str().into()
                    },
                ),
            ]));
        }
    }
    Value::Arr(rows)
}

/// The intentionally broken fixture for the counterexample demo: honest
/// annotated writers, but the scanner does ONE naive collect with no retry,
/// so torn (non-linearizable) views are reachable.
pub(crate) fn broken_scanner_factory() -> impl Fn() -> (World, Vec<ProcBody<Vec<u64>>>) + Sync {
    || {
        let world = World::builder(3).seed(0).build();
        let v: Vec<_> = (0..3).map(|i| world.reg(format!("V{i}"), 0u64)).collect();
        let mut bodies: Vec<ProcBody<Vec<u64>>> = Vec::new();
        for pid in 0..2 {
            let reg = v[pid].clone();
            bodies.push(Box::new(move |ctx| {
                ctx.annotate(labels::UPD_START, vec![1]);
                reg.write_tagged(ctx, 1, 1)?;
                ctx.annotate(labels::UPD_END, vec![1]);
                Ok(vec![])
            }));
        }
        let regs = v.clone();
        bodies.push(Box::new(move |ctx| {
            ctx.annotate(labels::SCAN_START, vec![]);
            let mut view = Vec::with_capacity(3);
            for reg in &regs {
                view.push(reg.read(ctx)?);
            }
            ctx.annotate(labels::SCAN_END, view.clone());
            Ok(view)
        }));
        (world, bodies)
    }
}

pub(crate) fn broken_check(r: &RunReport<Vec<u64>>) -> Option<String> {
    p1_p3_check(r, &raw_meta())
}

fn report_to_json(name: &str, n: usize, rep: &ExploreReport) -> Value {
    Value::obj(vec![
        ("name", name.into()),
        ("n", n.into()),
        ("independence", "reads-only".into()),
        ("schedules", rep.schedules.into()),
        ("pruned", rep.pruned.into()),
        ("truncated", rep.truncated.into()),
        ("exhausted", rep.exhausted.into()),
        ("max_depth", rep.max_depth.into()),
        ("fault_budget", rep.fault_budget.into()),
        ("faults_injected", rep.faults_injected.into()),
        (
            "schedules_by_faults",
            Value::Arr(rep.schedules_by_faults.iter().map(|&c| c.into()).collect()),
        ),
        ("elapsed_sec", rep.elapsed_secs.into()),
        ("schedules_per_sec", rep.schedules_per_sec().into()),
        (
            "violation",
            rep.violation
                .as_ref()
                .map(|c| Value::from(c.description.as_str()))
                .unwrap_or(Value::Null),
        ),
    ])
}

/// One bounded-exhaustive DFS entry: explore the factory's whole
/// schedule×fault space (up to `fault_budget` injected crashes per run)
/// under the reads-only relation, checking P1–P3 on every schedule.
fn exhaustive_entry<F>(
    name: &str,
    n: usize,
    meta: SnapshotMeta,
    fault_budget: u64,
    factory: F,
) -> (Value, ExploreReport)
where
    F: FnMut() -> (World, Vec<ProcBody<Vec<u64>>>),
{
    let cfg = ExploreConfig {
        max_steps: 40,
        max_schedules: 2_000_000,
        // P1–P3 consume note timestamps, so only the read/read relation is
        // a sound basis for pruning (see `Independence`).
        independence: Independence::ReadsOnly,
        fault_budget,
        progress: true,
        ..ExploreConfig::default()
    };
    let rep = explore(&cfg, factory, |r| p1_p3_check(r, &meta));
    (report_to_json(name, n, &rep), rep)
}

/// Times one fault-budgeted frontier through the work-stealing parallel
/// explorer against the identical `workers = 1` serial split — same
/// subtree jobs, same configuration, only the thread count differs.
fn frontier_section(scale: Scale) -> Value {
    let (name, n, meta, budget) = match scale {
        Scale::Quick => ("snapshot-n2-update-scan", 2usize, meta_for(2), 1u64),
        Scale::Full => ("snapshot-n3-two-writers-one-scanner", 3, raw_meta(), 1),
    };
    let cfg = ExploreConfig {
        max_steps: 40,
        max_schedules: 2_000_000,
        independence: Independence::ReadsOnly,
        fault_budget: budget,
        progress: true,
        ..ExploreConfig::default()
    };
    let workers = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1)
        .clamp(1, 8);
    let run_with = |w: usize| {
        let par = ParallelConfig {
            workers: w,
            frontier_factor: 4,
            max_frontier_depth: 4,
        };
        match scale {
            Scale::Quick => explore_parallel(&cfg, &par, n2_update_scan_factory(), |r| {
                p1_p3_check(r, &meta)
            }),
            Scale::Full => explore_parallel(&cfg, &par, n3_writers_scanner_factory(), |r| {
                p1_p3_check(r, &meta)
            }),
        }
    };
    let serial = run_with(1);
    let parallel = run_with(workers);
    let speedup = serial.report.elapsed_secs / parallel.report.elapsed_secs.max(1e-9);
    let side = |rep: &bprc_sim::explore::ParallelExploreReport| {
        Value::obj(vec![
            ("workers", rep.workers.into()),
            ("jobs", rep.jobs.into()),
            ("steals", rep.steals.into()),
            (
                "worker_steals",
                Value::Arr(rep.worker_steals.iter().map(|&s| s.into()).collect()),
            ),
            (
                "worker_executes",
                Value::Arr(rep.worker_executes.iter().map(|&e| e.into()).collect()),
            ),
            ("frontier_depth", rep.frontier_depth.into()),
            ("schedules", rep.report.schedules.into()),
            ("faults_injected", rep.report.faults_injected.into()),
            ("exhausted", rep.report.exhausted.into()),
            ("elapsed_sec", rep.report.elapsed_secs.into()),
            (
                "violation",
                rep.report
                    .violation
                    .as_ref()
                    .map(|c| Value::from(c.description.as_str()))
                    .unwrap_or(Value::Null),
            ),
        ])
    };
    Value::obj(vec![
        ("name", name.into()),
        ("n", n.into()),
        ("fault_budget", budget.into()),
        ("serial", side(&serial)),
        ("parallel", side(&parallel)),
        (
            "speedup",
            if speedup.is_finite() { speedup } else { 0.0 }.into(),
        ),
    ])
}

/// The PCT sweep: `schedules` seeds at n = 4, d = 3 change points, every
/// run's history checked against P1–P3.
fn pct_sweep(schedules: u64) -> Value {
    let n = 4usize;
    let d = 3usize;
    let horizon = 200u64;
    let meta = meta_for(n);
    let mut violations = 0u64;
    let mut first_violation: Option<String> = None;
    let mut leaders = vec![0u64; n];
    let start = std::time::Instant::now();
    for seed in 0..schedules {
        let mut world = World::builder(n).seed(0).step_limit(5_000).build();
        let mem = ScannableMemory::<u64, DirectArrow>::new(&world, n, 0);
        let bodies: Vec<ProcBody<Vec<u64>>> = (0..n)
            .map(|pid| {
                let mut port = mem.port(pid);
                let b: ProcBody<Vec<u64>> = Box::new(move |ctx| {
                    port.update(ctx, pid as u64 + 1)?;
                    port.scan(ctx)
                });
                b
            })
            .collect();
        let strategy = PctStrategy::new(seed, n, d, horizon);
        if let Some((leader, _)) = strategy
            .priorities()
            .iter()
            .copied()
            .enumerate()
            .max_by_key(|&(_, p)| p)
        {
            leaders[leader] += 1;
        }
        let rep = world.run(bodies, Box::new(strategy));
        let check = check_history(rep.history.as_ref().expect("history on"), &meta);
        if let Some(v) = check.violations.first() {
            violations += 1;
            first_violation.get_or_insert_with(|| format!("seed {seed}: {v:?}"));
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    Value::obj(vec![
        ("n", n.into()),
        ("d", d.into()),
        ("horizon", horizon.into()),
        ("schedules", schedules.into()),
        ("violations", violations.into()),
        (
            "first_violation",
            first_violation
                .as_deref()
                .map(Value::from)
                .unwrap_or(Value::Null),
        ),
        (
            "initial_leader_counts",
            Value::Arr(leaders.iter().map(|&c| c.into()).collect()),
        ),
        ("elapsed_sec", elapsed.into()),
        (
            "schedules_per_sec",
            (schedules as f64 / elapsed.max(1e-9)).into(),
        ),
    ])
}

/// The end-to-end counterexample demonstration: find, shrink, serialize,
/// parse back, replay. Returns the JSON section plus the telemetry produced
/// along the way (explorer counters + `ShrinkRuns`).
fn counterexample_demo() -> (Value, bprc_sim::Telemetry) {
    let cfg = ExploreConfig {
        independence: Independence::ReadsOnly,
        ..ExploreConfig::default()
    };
    let rep = explore(&cfg, broken_scanner_factory(), broken_check);
    let found = rep.violation.as_ref();
    let registry = MetricsRegistry::new(1);
    let (section, shrink_runs) = match found {
        None => (
            Value::obj(vec![
                ("found", false.into()),
                ("schedules_searched", rep.schedules.into()),
            ]),
            0,
        ),
        Some(cex) => {
            let mut make = broken_scanner_factory();
            let full_len = cex.trace.decisions.len();
            let (min, shrink_runs) = shrink_trace(&mut make, &mut broken_check, cex.trace.clone());
            let doc = min.to_json().render();
            let reparsed = bprc_sim::json::parse(&doc)
                .ok()
                .and_then(|v| DecisionTrace::from_json(&v).ok());
            let round_trip_ok = reparsed.as_ref() == Some(&min);
            let replay_verified = reparsed
                .map(|t| {
                    let (replayed, _) = run_trace(&mut make, &t);
                    broken_check(&replayed).is_some()
                })
                .unwrap_or(false);
            (
                Value::obj(vec![
                    ("found", true.into()),
                    ("description", cex.description.as_str().into()),
                    ("schedules_searched", rep.schedules.into()),
                    ("full_trace_len", full_len.into()),
                    ("shrunk_trace_len", min.decisions.len().into()),
                    ("shrink_runs", shrink_runs.into()),
                    ("round_trip_byte_identical", round_trip_ok.into()),
                    ("replay_verified", replay_verified.into()),
                    ("trace", min.to_json()),
                ]),
                shrink_runs,
            )
        }
    };
    // Merge the explorer's own counters with the shrink count so the whole
    // find→shrink pipeline is visible through one telemetry snapshot.
    registry.proc(0).incr(Counter::ShrinkRuns, shrink_runs);
    for c in [
        Counter::SchedulesExplored,
        Counter::SchedulesPruned,
        Counter::SchedulesTruncated,
    ] {
        registry.proc(0).incr(c, rep.telemetry.total(c));
    }
    (section, registry.snapshot())
}

/// Runs the full exploration suite and assembles the JSON document.
pub fn run(scale: Scale, seed: u64) -> Value {
    let mut exhaustive = Vec::new();
    let mut totals = [0u64; 3]; // explored, pruned, truncated
    let mut push = |(json, rep): (Value, ExploreReport)| {
        totals[0] += rep.telemetry.total(Counter::SchedulesExplored);
        totals[1] += rep.telemetry.total(Counter::SchedulesPruned);
        totals[2] += rep.telemetry.total(Counter::SchedulesTruncated);
        exhaustive.push(json);
    };
    push(exhaustive_entry(
        "snapshot-n2-update-scan",
        2,
        meta_for(2),
        0,
        n2_update_scan_factory(),
    ));
    push(exhaustive_entry(
        "snapshot-n2-update-scan-faults1",
        2,
        meta_for(2),
        1,
        n2_update_scan_factory(),
    ));
    if scale == Scale::Full {
        push(exhaustive_entry(
            "snapshot-n3-two-writers-one-scanner",
            3,
            raw_meta(),
            0,
            n3_writers_scanner_factory(),
        ));
        push(exhaustive_entry(
            "snapshot-n3-two-writers-one-scanner-faults1",
            3,
            raw_meta(),
            1,
            n3_writers_scanner_factory(),
        ));
    }
    let pct = pct_sweep(PCT_SCHEDULES);
    let frontier = frontier_section(scale);
    let litmus = litmus_section();
    let (demo, demo_telemetry) = counterexample_demo();
    Value::obj(vec![
        ("schema", SCHEMA.into()),
        ("scale", scale.name().into()),
        ("seed", seed.into()),
        ("trace_schema", TRACE_SCHEMA.into()),
        ("exhaustive", Value::Arr(exhaustive)),
        ("pct", pct),
        ("frontier", frontier),
        ("litmus", litmus),
        ("counterexample", demo),
        (
            "telemetry",
            Value::obj(vec![
                (
                    "schedules_explored",
                    (totals[0] + demo_telemetry.total(Counter::SchedulesExplored)).into(),
                ),
                (
                    "schedules_pruned",
                    (totals[1] + demo_telemetry.total(Counter::SchedulesPruned)).into(),
                ),
                (
                    "schedules_truncated",
                    (totals[2] + demo_telemetry.total(Counter::SchedulesTruncated)).into(),
                ),
                (
                    "shrink_runs",
                    demo_telemetry.total(Counter::ShrinkRuns).into(),
                ),
            ]),
        ),
    ])
}

fn num(doc: &Value, path: &[&str]) -> Option<f64> {
    let mut v = doc;
    for k in path {
        v = v.get(k)?;
    }
    v.as_num()
}

/// Schema- and invariant-checks an emitted document. Returns human-readable
/// violation strings; empty means valid. Any recorded property violation or
/// replay mismatch is itself a validation failure — CI fails on it.
pub fn validate(doc: &Value) -> Vec<String> {
    let mut errs = Vec::new();
    match doc.get("schema").and_then(|v| v.as_str()) {
        Some(s) if s == SCHEMA => {}
        other => errs.push(format!("schema must be {SCHEMA:?}, got {other:?}")),
    }
    if doc.get("trace_schema").and_then(|v| v.as_str()) != Some(TRACE_SCHEMA) {
        errs.push(format!("trace_schema must be {TRACE_SCHEMA:?}"));
    }

    match doc.get("exhaustive").and_then(|v| v.as_arr()) {
        None => errs.push("missing exhaustive array".into()),
        Some(entries) if entries.is_empty() => errs.push("exhaustive array is empty".into()),
        Some(entries) => {
            let mut any_faulted = false;
            for (i, e) in entries.iter().enumerate() {
                let name = e
                    .get("name")
                    .and_then(|v| v.as_str())
                    .unwrap_or("<unnamed>")
                    .to_string();
                if e.get("exhausted") != Some(&Value::Bool(true)) {
                    errs.push(format!("exhaustive[{i}] {name}: space not exhausted"));
                }
                if !matches!(e.get("violation"), Some(Value::Null)) {
                    errs.push(format!(
                        "exhaustive[{i}] {name}: recorded a property violation"
                    ));
                }
                let schedules = e.get("schedules").and_then(|v| v.as_num()).unwrap_or(0.0);
                if schedules < 1.0 {
                    errs.push(format!("exhaustive[{i}] {name}: no schedules executed"));
                }
                if e.get("truncated").and_then(|v| v.as_num()).unwrap_or(-1.0) != 0.0 {
                    errs.push(format!(
                        "exhaustive[{i}] {name}: step budget truncated the space"
                    ));
                }
                // Fault-budget coverage accounting (schema v2): the
                // per-crash-count buckets must exist, be `budget + 1` wide,
                // and sum back to the schedule count; a positive budget
                // must actually have injected crashes.
                let budget = e.get("fault_budget").and_then(|v| v.as_num());
                match budget {
                    None => errs.push(format!("exhaustive[{i}] {name}: missing fault_budget")),
                    Some(b) => {
                        if b >= 1.0 {
                            any_faulted = true;
                            if e.get("faults_injected")
                                .and_then(|v| v.as_num())
                                .unwrap_or(0.0)
                                < 1.0
                            {
                                errs.push(format!(
                                    "exhaustive[{i}] {name}: fault budget {b} injected no crashes"
                                ));
                            }
                        }
                        match e.get("schedules_by_faults").and_then(|v| v.as_arr()) {
                            None => errs.push(format!(
                                "exhaustive[{i}] {name}: missing schedules_by_faults"
                            )),
                            Some(buckets) => {
                                if buckets.len() as f64 != b + 1.0 {
                                    errs.push(format!(
                                        "exhaustive[{i}] {name}: schedules_by_faults must have \
                                         fault_budget+1 buckets"
                                    ));
                                }
                                let sum: f64 =
                                    buckets.iter().map(|v| v.as_num().unwrap_or(0.0)).sum();
                                if sum != schedules {
                                    errs.push(format!(
                                        "exhaustive[{i}] {name}: schedules_by_faults sums to \
                                         {sum}, schedules is {schedules}"
                                    ));
                                }
                            }
                        }
                    }
                }
            }
            if !any_faulted {
                errs.push("no exhaustive entry covered the fault space (fault_budget >= 1)".into());
            }
        }
    }

    if num(doc, &["pct", "violations"]) != Some(0.0) {
        errs.push("pct sweep recorded violations (or is missing)".into());
    }
    if num(doc, &["pct", "schedules"]).unwrap_or(0.0) < PCT_SCHEDULES as f64 {
        errs.push(format!("pct sweep must cover >= {PCT_SCHEDULES} schedules"));
    }

    match doc.get("frontier") {
        None => errs.push("missing frontier section".into()),
        Some(f) => {
            for side in ["serial", "parallel"] {
                match f.get(side) {
                    None => errs.push(format!("frontier.{side} missing")),
                    Some(s) => {
                        if s.get("exhausted") != Some(&Value::Bool(true)) {
                            errs.push(format!("frontier.{side}: space not exhausted"));
                        }
                        if !matches!(s.get("violation"), Some(Value::Null)) {
                            errs.push(format!("frontier.{side}: recorded a property violation"));
                        }
                        if s.get("schedules").and_then(|v| v.as_num()).unwrap_or(0.0) < 1.0 {
                            errs.push(format!("frontier.{side}: no schedules executed"));
                        }
                        // The per-worker split must be present, one slot
                        // per worker, and sum back to the totals.
                        let workers = num(s, &["workers"]).unwrap_or(0.0);
                        for (key, total) in [
                            ("worker_steals", num(s, &["steals"])),
                            ("worker_executes", None),
                        ] {
                            match s.get(key).and_then(|v| v.as_arr()) {
                                None => errs.push(format!("frontier.{side}.{key} missing")),
                                Some(per) => {
                                    if per.len() as f64 != workers {
                                        errs.push(format!(
                                            "frontier.{side}.{key}: {} slots for {workers} workers",
                                            per.len()
                                        ));
                                    }
                                    let sum: f64 =
                                        per.iter().map(|v| v.as_num().unwrap_or(0.0)).sum();
                                    if let Some(t) = total {
                                        if sum != t {
                                            errs.push(format!(
                                                "frontier.{side}.{key}: sums to {sum}, total is {t}"
                                            ));
                                        }
                                    }
                                    let jobs = num(s, &["jobs"]).unwrap_or(0.0);
                                    if key == "worker_executes" && sum != jobs {
                                        errs.push(format!(
                                            "frontier.{side}.worker_executes: sums to {sum}, \
                                             jobs is {jobs}"
                                        ));
                                    }
                                }
                            }
                        }
                    }
                }
            }
            if num(f, &["serial", "workers"]) != Some(1.0) {
                errs.push("frontier.serial must run with workers = 1".into());
            }
            if num(f, &["speedup"]).unwrap_or(0.0) <= 0.0 {
                errs.push("frontier.speedup must be positive".into());
            }
            if num(f, &["fault_budget"]).unwrap_or(0.0) < 1.0 {
                errs.push("frontier must cover the fault space (fault_budget >= 1)".into());
            }
        }
    }

    // The litmus matrix: every cell must hold its verdict, and
    // the matrix must exercise both reachable and unreachable cells —
    // a corpus that only ever proves unreachability would also "pass" on a
    // model whose store buffers never reorder anything.
    match doc.get("litmus").and_then(|v| v.as_arr()) {
        None => errs.push("missing litmus array".into()),
        Some(rows) if rows.is_empty() => errs.push("litmus array is empty".into()),
        Some(rows) => {
            let (mut found_cells, mut unreachable_cells) = (0u64, 0u64);
            for (i, row) in rows.iter().enumerate() {
                let label = format!(
                    "litmus[{i}] {}/{}",
                    row.get("program").and_then(|v| v.as_str()).unwrap_or("?"),
                    row.get("mode").and_then(|v| v.as_str()).unwrap_or("?"),
                );
                if row.get("outcome_ok") != Some(&Value::Bool(true)) {
                    errs.push(format!(
                        "{label}: cell failed ({})",
                        row.get("detail").and_then(|v| v.as_str()).unwrap_or("?")
                    ));
                }
                match row.get("expected_found") {
                    Some(&Value::Bool(true)) => {
                        found_cells += 1;
                        // Length 0 is legal: some cells (SB-shaped) violate on
                        // the default completion — the end-of-run buffer drain
                        // alone delays the stores past the reads — so every
                        // explicit decision shrinks away. Null means the cell
                        // never got as far as shrinking.
                        if num(row, &["shrunk_len"]).is_none() {
                            errs.push(format!("{label}: found cell carries no shrunk trace"));
                        }
                    }
                    Some(&Value::Bool(false)) => unreachable_cells += 1,
                    _ => errs.push(format!("{label}: missing expected_found")),
                }
                if num(row, &["schedules"]).unwrap_or(0.0) < 1.0 {
                    errs.push(format!("{label}: no schedules executed"));
                }
            }
            if found_cells == 0 || unreachable_cells == 0 {
                errs.push("litmus matrix must cover both reachable and unreachable cells".into());
            }
        }
    }

    check_finite(doc, "$", &mut errs);

    let demo = doc.get("counterexample");
    match demo {
        None => errs.push("missing counterexample section".into()),
        Some(d) => {
            for key in ["found", "round_trip_byte_identical", "replay_verified"] {
                if d.get(key) != Some(&Value::Bool(true)) {
                    errs.push(format!("counterexample.{key} must be true"));
                }
            }
            let full = num(d, &["full_trace_len"]).unwrap_or(0.0);
            let shrunk = num(d, &["shrunk_trace_len"]).unwrap_or(f64::MAX);
            if shrunk > full {
                errs.push("counterexample: shrunk trace longer than the original".into());
            }
            if num(d, &["shrink_runs"]).unwrap_or(0.0) < 1.0 {
                errs.push("counterexample: shrinker did not run".into());
            }
            match d.get("trace") {
                None => errs.push("counterexample.trace missing".into()),
                Some(t) => {
                    if let Err(e) = DecisionTrace::from_json(t) {
                        errs.push(format!("counterexample.trace is not a valid trace: {e}"));
                    }
                }
            }
        }
    }

    for key in ["schedules_explored", "schedules_pruned", "shrink_runs"] {
        if num(doc, &["telemetry", key]).unwrap_or(0.0) < 1.0 {
            errs.push(format!("telemetry.{key} must be positive"));
        }
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_real_run_emits_a_valid_document() {
        let doc = run(Scale::Quick, 42);
        let errs = validate(&doc);
        assert!(errs.is_empty(), "{errs:?}");
        // The document survives a render/parse round trip.
        let text = doc.render_pretty(2);
        let parsed = bprc_sim::json::parse(&text).unwrap();
        assert!(validate(&parsed).is_empty());
        // The embedded trace replays to the recorded violation.
        let trace =
            DecisionTrace::from_json(parsed.get("counterexample").unwrap().get("trace").unwrap())
                .unwrap();
        let mut make = broken_scanner_factory();
        let (rep, _) = run_trace(&mut make, &trace);
        assert!(broken_check(&rep).is_some());
    }

    #[test]
    fn n3_exhaustive_entry_stays_clean_and_ci_sized() {
        let (json, rep) = exhaustive_entry(
            "snapshot-n3-two-writers-one-scanner",
            3,
            raw_meta(),
            0,
            n3_writers_scanner_factory(),
        );
        assert!(rep.violation.is_none(), "{:?}", rep.violation);
        assert!(rep.exhausted);
        assert_eq!(rep.truncated, 0);
        assert!(
            rep.schedules < 100_000,
            "n=3 entry must stay CI-sized, got {} schedules",
            rep.schedules
        );
        assert_eq!(json.get("exhausted"), Some(&Value::Bool(true)));
    }

    #[test]
    fn fault_budgeted_entry_carries_coverage_counts() {
        let (json, rep) = exhaustive_entry(
            "snapshot-n2-update-scan-faults1",
            2,
            meta_for(2),
            1,
            n2_update_scan_factory(),
        );
        assert!(rep.violation.is_none(), "{:?}", rep.violation);
        assert!(rep.exhausted);
        assert!(
            rep.faults_injected > 0,
            "budget 1 must explore crash branches"
        );
        let buckets = json
            .get("schedules_by_faults")
            .and_then(|v| v.as_arr())
            .expect("v2 entries carry schedules_by_faults");
        assert_eq!(buckets.len(), 2);
        let sum: f64 = buckets.iter().map(|v| v.as_num().unwrap()).sum();
        assert_eq!(sum, rep.schedules as f64);
    }

    /// One reachable and one model-soundness cell of the litmus matrix,
    /// driven through the full find→shrink→replay (resp. exhaust) pipeline.
    #[test]
    fn litmus_cells_hold_the_matrix_both_ways() {
        let sb = corpus().into_iter().find(|p| p.name == "sb").unwrap();
        let cell = litmus_cell(&sb, WeakMode::Tso);
        assert!(cell.expected_found);
        assert!(cell.ok, "{}", cell.detail);
        // SB can shrink to the empty trace (the end-of-run drain alone
        // reorders the stores past the reads), so only presence is pinned.
        assert!(cell.shrunk_len.is_some());
        let lb = corpus().into_iter().find(|p| p.name == "lb").unwrap();
        let cell = litmus_cell(&lb, WeakMode::Pso);
        assert!(!cell.expected_found);
        assert!(cell.ok, "{}", cell.detail);
    }

    #[test]
    fn validate_rejects_non_finite_numbers() {
        let doc = run(Scale::Quick, 42);
        assert!(validate(&doc).is_empty(), "{:?}", validate(&doc));
        // Forge an `inf` where a rate belongs — exactly what a zero-elapsed
        // division would have produced before rates were clamped.
        let forged = match doc {
            Value::Obj(mut pairs) => {
                pairs.push(("forged_rate".to_string(), Value::Num(f64::INFINITY)));
                Value::Obj(pairs)
            }
            _ => unreachable!("documents are objects"),
        };
        let errs = validate(&forged);
        assert!(errs.iter().any(|e| e.contains("non-finite")), "{errs:?}");
    }

    #[test]
    fn validate_flags_a_corrupted_document() {
        let doc = run(Scale::Quick, 42);
        let text = doc.render();
        // Forge a violation into the pct section.
        let forged = text.replace("\"violations\":0", "\"violations\":3");
        assert_ne!(forged, text, "expected a pct.violations field to forge");
        let parsed = bprc_sim::json::parse(&forged).unwrap();
        assert!(!validate(&parsed).is_empty());
        // And a schema mismatch.
        let wrong = text.replace(SCHEMA, "bprc.bench.explore/v0");
        let parsed = bprc_sim::json::parse(&wrong).unwrap();
        assert!(validate(&parsed).iter().any(|e| e.contains("schema")));
    }
}
