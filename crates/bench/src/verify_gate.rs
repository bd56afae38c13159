//! The fail-closed verification gate: systematic fault injection composed
//! into schedule exploration, run as one CI-enforced command.
//!
//! `experiments verify-gate` drives the real stack — both snapshot
//! backends, the full consensus protocol, the wait-free attempt bound —
//! through the joint schedule×fault space and exits non-zero on the first
//! property violation, writing the shrunk, replayable decision trace
//! (`bprc-trace-v1`) next to it. The property list is pinned
//! ([`PROPERTIES`]): a gate whose checks can silently drift is advisory,
//! not a gate.
//!
//! Coverage, per run:
//!
//! * **bounded-exhaustive** — every schedule of the n = 2 update/scan
//!   configuration over *both* backends, with fault budgets 0 and 1 (every
//!   placement of one crash branches the DFS alongside the grants), and
//!   the distilled n = 3 writers+scanner space with one crash — checked
//!   against P1–P3 plus telemetry/history parity on every schedule;
//! * **parallel frontier** — the n = 3 space re-run through the
//!   work-stealing parallel explorer, serial (`workers = 1`) against the
//!   machine's parallelism on the identical frontier, results required to
//!   agree;
//! * **randomized depth** — a PCT sweep over the full consensus stack on
//!   both backends, each seed's strategy injecting crashes (scheduler-
//!   composed [`PctStrategy::with_faults`] on even seeds, declarative
//!   seeded [`FaultPlan`]s on odd seeds), each run checked for agreement,
//!   validity, P1–P3, and telemetry parity;
//! * **wait-freedom** — the writer-pressure adversary against the
//!   wait-free scan, which must finish within n + 1 attempts.
//!
//! The `--weakmem` mode runs the weak-memory plane instead: the whole
//! litmus matrix (`bprc_sim::litmus`, corpus × SC/TSO/PSO), then
//! bounded-exhaustive store-buffer exploration of the real n = 2 snapshot
//! stack (a double-updating writer racing a scanner) under TSO and PSO —
//! every schedule×flush placement checked
//! against P1–P3 through the flush-timed checker
//! ([`bprc_snapshot::check_history_weak`]), with the critical cycle
//! printed alongside any counterexample.
//!
//! The `--fixture` mode inverts the gate to prove it fails closed: a
//! seeded broken implementation (`torn-scan`, grant-only) or a seeded
//! fault-dependent bug (`crash-publish`, reachable only through a crash
//! branch) or a seeded ordering bug (`missing-fence`, a publish whose
//! release fence was dropped, reachable only through a store-buffer
//! reordering) must be *found*, shrunk, round-tripped, and replayed — the
//! command still exits non-zero (a violation was found), and CI asserts
//! exactly that plus the presence of the trace artifact.

use bprc_core::threaded::ThreadedConsensusOn;
use bprc_core::{check_telemetry_parity, ConsensusParams, ConsensusSpec, ProcState};
use bprc_registers::DirectArrow;
use bprc_sim::explore::{
    explore, explore_parallel, run_trace, shrink_trace, DecisionTrace, ExploreConfig, Independence,
    ParallelConfig,
};
use bprc_sim::sched::{FnStrategy, PctStrategy};
use bprc_sim::world::{ProcBody, RunReport, World};
use bprc_sim::{
    critical_cycle, Decision, FaultPlan, FaultedStrategy, ScheduleView, Strategy, WeakMode,
};
use bprc_snapshot::{
    check_history, check_history_weak, ScannableMemory, SnapshotBackend, SnapshotMeta,
    SnapshotPort, WaitFreeSnapshot,
};

use crate::explore::{
    broken_check, broken_scanner_factory, litmus_cell, n3_writers_scanner_factory, raw_meta,
    LITMUS_MODES,
};

/// The pinned property list every gate run checks. Printed verbatim at
/// startup so a log always states what "PASS" covered.
pub const PROPERTIES: &[(&str, &str)] = &[
    (
        "P1-P3",
        "snapshot regularity / instantaneity / scan comparability, via the interval checker",
    ),
    (
        "AGREE",
        "consensus agreement: no two decided processes decided differently",
    ),
    (
        "VALID",
        "consensus validity: every decision was some process's input",
    ),
    (
        "PARITY",
        "telemetry counters equal the recorded history, per process (independent planes)",
    ),
    (
        "WFREE",
        "wait-free scans complete within n+1 attempts under writer pressure",
    ),
    (
        "WEAKMEM",
        "litmus matrix holds and P1-P3 survive store-buffer (TSO/PSO) exploration, \
         via the flush-timed checker",
    ),
];

/// A seeded broken fixture the gate must catch (fail-closed demonstration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fixture {
    /// A single-collect scanner whose torn views are reachable by grants
    /// alone.
    TornScan,
    /// A two-step publish whose stale state is reachable *only* when the
    /// writer crashes between its writes — invisible to any grant-only
    /// exploration.
    CrashPublish,
    /// A data/flag publish whose release fence was dropped: the stale read
    /// is reachable *only* when the data store lingers in the writer's
    /// store buffer past the flag store — invisible to any sequentially
    /// consistent exploration, however exhaustive.
    MissingFence,
}

impl Fixture {
    /// Parses a `--fixture=NAME` value.
    pub fn parse(name: &str) -> Option<Fixture> {
        match name {
            "torn-scan" => Some(Fixture::TornScan),
            "crash-publish" => Some(Fixture::CrashPublish),
            "missing-fence" => Some(Fixture::MissingFence),
            _ => None,
        }
    }

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Fixture::TornScan => "torn-scan",
            Fixture::CrashPublish => "crash-publish",
            Fixture::MissingFence => "missing-fence",
        }
    }
}

/// How to run the gate.
#[derive(Debug, Clone)]
pub struct GateOptions {
    /// CI-sized sweeps (smaller PCT seed counts); the exhaustive passes are
    /// identical at both scales.
    pub quick: bool,
    /// Skip the parallel-frontier comparison (single-core environments).
    pub serial: bool,
    /// Run the weak-memory plane (litmus matrix + store-buffer exploration
    /// of the real stack) instead of the SC schedule×fault gate.
    pub weakmem: bool,
    /// Run a seeded broken fixture instead of the real stack.
    pub fixture: Option<Fixture>,
    /// Where the shrunk counterexample trace is written when a violation is
    /// found.
    pub out_trace: String,
}

impl Default for GateOptions {
    fn default() -> Self {
        GateOptions {
            quick: false,
            serial: false,
            weakmem: false,
            fixture: None,
            out_trace: "verify_gate_counterexample.json".to_string(),
        }
    }
}

/// One gate check's verdict.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// Which check.
    pub name: String,
    /// Whether it held.
    pub passed: bool,
    /// Human-readable coverage / failure detail.
    pub detail: String,
}

/// Everything a gate run produced.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Every check's verdict, in execution order.
    pub checks: Vec<CheckOutcome>,
    /// Path of the shrunk trace artifact, when a violation was found and
    /// serialized.
    pub trace_path: Option<String>,
}

impl GateReport {
    /// True iff every check passed (the gate's exit code is `!passed()`).
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }
}

/// The composite per-schedule check the exhaustive passes run: P1–P3 over
/// the recorded history, then telemetry/history parity.
fn snapshot_and_parity_check(r: &RunReport<Vec<u64>>, meta: &SnapshotMeta) -> Option<String> {
    let history = r.history.as_ref().expect("lockstep records history");
    if let Some(v) = check_history(history, meta).violations.first() {
        return Some(format!("snapshot property violated: {v:?}"));
    }
    check_telemetry_parity(r)
}

/// n = 2 over backend `B`: both processes update their slot then scan.
fn n2_factory<B: SnapshotBackend<u64>>() -> impl Fn() -> (World, Vec<ProcBody<Vec<u64>>>) + Sync {
    || {
        let world = World::builder(2).seed(0).build();
        let mem = B::alloc(&world, 2, 0u64);
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

fn backend_meta<B: SnapshotBackend<u64>>(n: usize) -> SnapshotMeta {
    let world = World::builder(n).build();
    B::alloc(&world, n, 0u64).meta()
}

/// Shrinks a counterexample, serializes it to `out_trace`, and verifies the
/// written artifact parses and replays to the same violation. Returns the
/// failure detail line.
fn write_shrunk_trace<F, C>(
    mut factory: F,
    mut check: C,
    trace: DecisionTrace,
    description: &str,
    out_trace: &str,
) -> (String, bool)
where
    F: FnMut() -> (World, Vec<ProcBody<Vec<u64>>>),
    C: FnMut(&RunReport<Vec<u64>>) -> Option<String>,
{
    let full_len = trace.decisions.len();
    let (min, _) = shrink_trace(&mut factory, &mut check, trace);
    let text = min.to_json().render_pretty(2);
    let replays = bprc_sim::json::parse(&text)
        .ok()
        .and_then(|v| DecisionTrace::from_json(&v).ok())
        .map(|t| {
            let (rep, _) = run_trace(&mut factory, &t);
            check(&rep).is_some()
        })
        .unwrap_or(false);
    let written = std::fs::write(out_trace, text + "\n").is_ok();
    (
        format!(
            "VIOLATION: {description} — trace shrunk {full_len} -> {} decisions, \
             replay {}, written to {out_trace}",
            min.decisions.len(),
            if replays {
                "reproduces"
            } else {
                "FAILED to reproduce"
            },
        ),
        written && replays,
    )
}

/// One bounded-exhaustive pass: the whole schedule×fault space of `factory`
/// must be enumerated without truncation and hold P1–P3 + parity on every
/// schedule. On violation the shrunk trace is written to `out_trace`.
fn exhaustive_check<F>(
    name: &str,
    meta: SnapshotMeta,
    fault_budget: u64,
    factory: F,
    out: &mut GateReport,
    out_trace: &str,
) where
    F: Fn() -> (World, Vec<ProcBody<Vec<u64>>>) + Sync,
{
    let cfg = ExploreConfig {
        max_steps: 40,
        max_schedules: 2_000_000,
        independence: Independence::ReadsOnly,
        fault_budget,
        progress: true,
        ..ExploreConfig::default()
    };
    let check = |r: &RunReport<Vec<u64>>| snapshot_and_parity_check(r, &meta);
    let rep = explore(&cfg, &factory, check);
    let outcome = match &rep.violation {
        Some(cex) => {
            let (detail, artifact_ok) = write_shrunk_trace(
                &factory,
                check,
                cex.trace.clone(),
                &cex.description,
                out_trace,
            );
            if artifact_ok {
                out.trace_path = Some(out_trace.to_string());
            }
            CheckOutcome {
                name: name.to_string(),
                passed: false,
                detail,
            }
        }
        None if !rep.exhausted => CheckOutcome {
            name: name.to_string(),
            passed: false,
            detail: format!(
                "space not exhausted ({} schedules, {} truncated) — the claim is vacuous",
                rep.schedules, rep.truncated
            ),
        },
        None if fault_budget > 0 && rep.faults_injected == 0 => CheckOutcome {
            name: name.to_string(),
            passed: false,
            detail: "fault budget granted but no crash branch was ever taken".to_string(),
        },
        None => CheckOutcome {
            name: name.to_string(),
            passed: true,
            detail: format!(
                "{} schedules exhausted (by crash count: {:?}), {} crashes injected",
                rep.schedules, rep.schedules_by_faults, rep.faults_injected
            ),
        },
    };
    println!(
        "  [{}] {}: {}",
        if outcome.passed { "ok" } else { "FAIL" },
        outcome.name,
        outcome.detail
    );
    out.checks.push(outcome);
}

/// The serial-vs-parallel frontier comparison over the distilled n = 3
/// space with one crash: both must exhaust cleanly; wall-clocks are
/// reported (the speedup claim itself lives in `BENCH_explore.json`).
fn frontier_check(out: &mut GateReport, serial_only: bool) {
    let meta = raw_meta();
    let cfg = ExploreConfig {
        max_steps: 40,
        max_schedules: 2_000_000,
        independence: Independence::ReadsOnly,
        fault_budget: 1,
        progress: true,
        ..ExploreConfig::default()
    };
    let workers = if serial_only {
        1
    } else {
        std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(1)
            .clamp(1, 8)
    };
    let run_with = |w: usize| {
        let par = ParallelConfig {
            workers: w,
            frontier_factor: 4,
            max_frontier_depth: 4,
        };
        explore_parallel(&cfg, &par, n3_writers_scanner_factory(), |r| {
            snapshot_and_parity_check(r, &meta)
        })
    };
    let serial = run_with(1);
    let parallel = run_with(workers);
    let clean = serial.report.violation.is_none()
        && parallel.report.violation.is_none()
        && serial.report.exhausted
        && parallel.report.exhausted;
    let outcome = CheckOutcome {
        name: "exhaustive n=3 frontier serial-vs-parallel (fault budget 1)".to_string(),
        passed: clean,
        detail: format!(
            "serial {} schedules in {:.2}s; {} workers {} schedules in {:.2}s \
             ({} jobs, {} steals, x{:.2})",
            serial.report.schedules,
            serial.report.elapsed_secs,
            parallel.workers,
            parallel.report.schedules,
            parallel.report.elapsed_secs,
            parallel.jobs,
            parallel.steals,
            serial.report.elapsed_secs / parallel.report.elapsed_secs.max(1e-9),
        ),
    };
    println!(
        "  [{}] {}: {}",
        if outcome.passed { "ok" } else { "FAIL" },
        outcome.name,
        outcome.detail
    );
    out.checks.push(outcome);
}

/// The PCT sweep over the full consensus stack on backend `B`: every seed
/// runs the whole protocol at register granularity under a fault-injecting
/// strategy and must satisfy agreement, validity, P1–P3, and parity.
fn pct_consensus_check<B: SnapshotBackend<ProcState>>(
    label: &str,
    seeds: u64,
    out: &mut GateReport,
) {
    let n = 3usize;
    let inputs = [true, false, true];
    let d = 3usize;
    // Short enough that sampled fault points usually land inside the run
    // (a point past the last step is spent without firing — legal but
    // uninformative).
    let horizon = 800u64;
    let spec = ConsensusSpec::new(&inputs);
    let mut failure: Option<String> = None;
    let mut crashes_seen = 0u64;
    let mut heartbeat = bprc_sim::Heartbeat::new(2.0);
    for seed in 0..seeds {
        heartbeat.tick(|secs| {
            format!(
                "verify-gate [{label}]: seed {seed}/{seeds} ({:.1}/s), \
                 {crashes_seen} crashes injected",
                seed as f64 / secs.max(1e-9),
            )
        });
        let mut world = World::builder(n).seed(0).step_limit(60_000).build();
        let params = ConsensusParams::quick(n);
        let inst = ThreadedConsensusOn::<B>::new(&world, &params, &inputs, seed);
        let meta = inst.memory.meta();
        // Alternate the two composition routes into the fault space: the
        // scheduler-native crash points (even seeds) and the declarative
        // replayable plan wrapped around the same PCT strategy (odd seeds).
        let strategy: Box<dyn Strategy> = if seed % 2 == 0 {
            Box::new(PctStrategy::with_faults(seed, n, d, horizon, 1))
        } else {
            Box::new(FaultedStrategy::new(
                PctStrategy::new(seed, n, d, horizon),
                FaultPlan::seeded(seed, n, horizon),
            ))
        };
        let rep = world.run(inst.bodies, strategy);
        crashes_seen += rep
            .history
            .as_ref()
            .map(|h| h.crashes().count() as u64)
            .unwrap_or(0);
        if let Some(v) = spec
            .check_with_snapshot(&meta, &rep)
            .or_else(|| check_telemetry_parity(&rep))
        {
            failure = Some(format!("seed {seed}: {v}"));
            break;
        }
    }
    let outcome = CheckOutcome {
        name: format!("pct consensus sweep, {label} backend"),
        passed: failure.is_none(),
        detail: failure.unwrap_or_else(|| {
            format!("{seeds} seeds clean (n={n}, d={d}, {crashes_seen} crashes injected)")
        }),
    };
    println!(
        "  [{}] {}: {}",
        if outcome.passed { "ok" } else { "FAIL" },
        outcome.name,
        outcome.detail
    );
    out.checks.push(outcome);
}

/// The wait-freedom bound: a writer granted two of every three steps must
/// not push the wait-free scan past n + 1 attempts or starve it.
fn waitfree_bound_check(out: &mut GateReport) {
    let mut world = World::builder(2).step_limit(100_000).build();
    let mem = WaitFreeSnapshot::<u64>::alloc(&world, 2, 0);
    let mut wp = mem.port(0);
    let mut sp = mem.port(1);
    let bodies: Vec<ProcBody<Vec<u64>>> = vec![
        Box::new(move |ctx| {
            let mut k = 0u64;
            loop {
                k += 1;
                wp.update(ctx, k)?;
            }
        }),
        Box::new(move |ctx| sp.scan(ctx)),
    ];
    let strategy = FnStrategy::new(|view: &ScheduleView<'_>| {
        if view.step % 3 == 0 && view.runnable.contains(&1) {
            Decision::Grant(1)
        } else if view.runnable.contains(&0) {
            Decision::Grant(0)
        } else {
            Decision::Grant(1)
        }
    });
    let rep = world.run(bodies, Box::new(strategy));
    let attempts = mem
        .stats(1)
        .attempts
        .load(std::sync::atomic::Ordering::Relaxed);
    let passed = rep.outputs[1].is_some() && attempts <= 3;
    let outcome = CheckOutcome {
        name: "wait-free scan attempt bound under writer pressure".to_string(),
        passed,
        detail: if passed {
            format!("scan completed in {attempts} attempts (bound n+1 = 3)")
        } else {
            format!(
                "VIOLATION: attempts = {attempts} (bound 3), scan output {:?}, halted {:?}",
                rep.outputs[1], rep.halted[1]
            )
        },
    };
    println!(
        "  [{}] {}: {}",
        if outcome.passed { "ok" } else { "FAIL" },
        outcome.name,
        outcome.detail
    );
    out.checks.push(outcome);
}

/// The n = 2 crash-publish fixture: writer publishes `value` then raises a
/// bit; the reader seeing the value without the bit while the writer is
/// *dead* is a permanently-stale handshake reachable only via a crash.
fn crash_publish_factory() -> impl Fn() -> (World, Vec<ProcBody<Vec<u64>>>) + Sync {
    || {
        let world = World::builder(2).build();
        let value = world.reg("value", 0u64);
        let published = world.reg("published", 0u64);
        let (v0, p0) = (value.clone(), published.clone());
        let bodies: Vec<ProcBody<Vec<u64>>> = vec![
            Box::new(move |ctx| {
                v0.write(ctx, 1)?;
                p0.write(ctx, 1)?;
                Ok(vec![])
            }),
            Box::new(move |ctx| {
                let v = value.read(ctx)?;
                let p = published.read(ctx)?;
                Ok(vec![v, p])
            }),
        ];
        (world, bodies)
    }
}

fn crash_publish_check(r: &RunReport<Vec<u64>>) -> Option<String> {
    let stale = r.outputs[1].as_deref() == Some(&[1, 0][..]) && r.outputs[0].is_none();
    stale.then(|| "survivor holds a value whose publish bit can never arrive".to_string())
}

/// The n = 2 missing-fence fixture under PSO: the writer publishes `data`
/// then raises `flag`; with the release fence (`fenced = true`) the flag
/// can never overtake the data, without it the PSO store buffer can land
/// the flag first and the reader observes the publish signal guarding
/// nothing.
fn missing_fence_factory(fenced: bool) -> impl Fn() -> (World, Vec<ProcBody<Vec<u64>>>) + Sync {
    move || {
        let world = World::builder(2).weak_memory(WeakMode::Pso).build();
        let data = world.reg("data", 0u64);
        let flag = world.reg("flag", 0u64);
        let (d0, f0) = (data.clone(), flag.clone());
        let bodies: Vec<ProcBody<Vec<u64>>> = vec![
            Box::new(move |ctx| {
                d0.write(ctx, 1)?;
                if fenced {
                    ctx.fence()?;
                }
                f0.write(ctx, 1)?;
                Ok(vec![])
            }),
            Box::new(move |ctx| {
                let f = flag.read(ctx)?;
                let d = data.read(ctx)?;
                Ok(vec![f, d])
            }),
        ];
        (world, bodies)
    }
}

fn missing_fence_check(r: &RunReport<Vec<u64>>) -> Option<String> {
    (r.outputs[1].as_deref() == Some(&[1, 0][..]))
        .then(|| "reader saw the publish flag before the data it guards".to_string())
}

/// The whole litmus matrix as one gate check: every corpus program under
/// SC, TSO, and PSO, each cell driven through the
/// full explore→shrink→round-trip→replay pipeline by
/// [`litmus_cell`](crate::explore::litmus_cell).
fn litmus_matrix_check(out: &mut GateReport) {
    let mut cells = 0u64;
    let mut found = 0u64;
    let mut failure: Option<String> = None;
    for prog in bprc_sim::litmus::corpus() {
        for mode in LITMUS_MODES {
            let cell = litmus_cell(&prog, mode);
            cells += 1;
            if cell.expected_found {
                found += 1;
            }
            if !cell.ok && failure.is_none() {
                failure = Some(format!(
                    "{} under {}: {}",
                    cell.name, cell.mode, cell.detail
                ));
            }
        }
    }
    let outcome = CheckOutcome {
        name: "litmus matrix (corpus x SC/TSO/PSO)".to_string(),
        passed: failure.is_none(),
        detail: failure.unwrap_or_else(|| {
            format!("{cells} cells clean ({found} forbidden outcomes found, shrunk, replayed)")
        }),
    };
    println!(
        "  [{}] {}: {}",
        if outcome.passed { "ok" } else { "FAIL" },
        outcome.name,
        outcome.detail
    );
    out.checks.push(outcome);
}

/// Bounded-exhaustive store-buffer exploration of the real n = 2 snapshot
/// stack under `mode`: every schedule×flush placement, P1–P3 checked
/// through the flush-timed checker ([`check_history_weak`] — a store
/// linearizes at its flush, not its issue). The workload is the shape
/// weak memory actually threatens: a writer's update (a raise + value
/// store, each of which may linger in the buffer) racing a full scan —
/// which exercises every fence the memory carries. Flush branching
/// resets sleep sets (a flush is dependent with everything), so the
/// usual reduction gets no purchase and the space grows brutally with
/// each buffered store: both-sides-do-everything blows past 10^6
/// schedules, while this split stays exhaustive in seconds without
/// giving up the real code path. On a violation the shrunk trace is
/// written and the critical cycle from the counterexample's history is
/// printed alongside.
fn weakmem_exhaustive_check(mode: WeakMode, out: &mut GateReport, out_trace: &str) {
    let meta = backend_meta::<ScannableMemory<u64, DirectArrow>>(2);
    let factory = move || {
        let world = World::builder(2).seed(0).weak_memory(mode).build();
        let mem = ScannableMemory::<u64, DirectArrow>::alloc(&world, 2, 0u64);
        let bodies: Vec<ProcBody<Vec<u64>>> = (0..2)
            .map(|pid| {
                let mut port = mem.port(pid);
                let b: ProcBody<Vec<u64>> = Box::new(move |ctx| {
                    if pid == 0 {
                        port.update(ctx, 10)?;
                        Ok(Vec::new())
                    } else {
                        port.scan(ctx)
                    }
                });
                b
            })
            .collect();
        (world, bodies)
    };
    let cfg = ExploreConfig {
        max_steps: 40,
        max_schedules: 2_000_000,
        independence: Independence::ReadsOnly,
        progress: true,
        ..ExploreConfig::default()
    };
    // Explorer telemetry carries only the explorer's own counters; the
    // per-run world counters (where `StoresBuffered` lives) arrive on each
    // `RunReport`, so the vacuity evidence is accumulated run by run.
    let buffered_seen = std::cell::Cell::new(0u64);
    let check = |r: &RunReport<Vec<u64>>| {
        buffered_seen
            .set(buffered_seen.get() + r.telemetry.total(bprc_sim::Counter::StoresBuffered));
        let history = r.history.as_ref().expect("lockstep records history");
        check_history_weak(history, &meta)
            .violations
            .first()
            .map(|v| format!("snapshot property violated under {mode}: {v:?}"))
    };
    let name = format!("exhaustive n=2 writer/scanner under {mode} store buffering");
    let rep = explore(&cfg, &factory, check);
    let buffered = buffered_seen.get();
    let outcome = match &rep.violation {
        Some(cex) => {
            // Explain the reordering before shrinking consumes the trace.
            let cycle_line = {
                let mut make = factory;
                let (replayed, _) = run_trace(&mut make, &cex.trace);
                let names = {
                    let (w, _) = make();
                    w.reg_names()
                };
                replayed
                    .history
                    .as_ref()
                    .and_then(|h| critical_cycle(h, &names))
                    .map(|c| format!("\n  critical cycle: {c}"))
                    .unwrap_or_default()
            };
            let (detail, artifact_ok) = write_shrunk_trace(
                factory,
                check,
                cex.trace.clone(),
                &cex.description,
                out_trace,
            );
            if artifact_ok {
                out.trace_path = Some(out_trace.to_string());
            }
            CheckOutcome {
                name,
                passed: false,
                detail: format!("{detail}{cycle_line}"),
            }
        }
        None if !rep.exhausted => CheckOutcome {
            name,
            passed: false,
            detail: format!(
                "space not exhausted ({} schedules, {} truncated) — the claim is vacuous",
                rep.schedules, rep.truncated
            ),
        },
        None if buffered == 0 => CheckOutcome {
            name,
            passed: false,
            detail: "weak mode requested but no store was ever buffered".to_string(),
        },
        None => CheckOutcome {
            name,
            passed: true,
            detail: format!(
                "{} schedules exhausted, {} stores buffered across the space",
                rep.schedules, buffered
            ),
        },
    };
    println!(
        "  [{}] {}: {}",
        if outcome.passed { "ok" } else { "FAIL" },
        outcome.name,
        outcome.detail
    );
    out.checks.push(outcome);
}

/// Runs a seeded broken fixture: the gate must find the bug, shrink it,
/// and write the replayable trace. The check "passes" in the inverted
/// sense — it reports `passed = false` (a violation exists, so the command
/// exits non-zero, which is what CI asserts) while the detail records
/// whether the find/shrink/replay pipeline behaved.
fn fixture_check(fixture: Fixture, out: &mut GateReport, out_trace: &str) {
    let (cfg, name) = match fixture {
        Fixture::TornScan => (
            ExploreConfig {
                independence: Independence::ReadsOnly,
                ..ExploreConfig::default()
            },
            "fixture torn-scan (grant-only bug)",
        ),
        Fixture::CrashPublish => (
            ExploreConfig {
                fault_budget: 1,
                ..ExploreConfig::default()
            },
            "fixture crash-publish (fault-dependent bug)",
        ),
        Fixture::MissingFence => (
            ExploreConfig::default(),
            "fixture missing-fence (ordering-dependent bug)",
        ),
    };
    let outcome = match fixture {
        Fixture::TornScan => {
            let rep = explore(&cfg, broken_scanner_factory(), broken_check);
            match rep.violation {
                Some(cex) => {
                    let (detail, artifact_ok) = write_shrunk_trace(
                        broken_scanner_factory(),
                        broken_check,
                        cex.trace,
                        &cex.description,
                        out_trace,
                    );
                    if artifact_ok {
                        out.trace_path = Some(out_trace.to_string());
                    }
                    CheckOutcome {
                        name: name.to_string(),
                        passed: false,
                        detail,
                    }
                }
                None => CheckOutcome {
                    name: name.to_string(),
                    passed: true, // wrong — the fixture must be caught
                    detail: "gate FAILED to find the seeded bug".to_string(),
                },
            }
        }
        Fixture::CrashPublish => {
            // The fault-dependence claim: grants alone must exhaust clean.
            let grants_only = explore(
                &ExploreConfig {
                    fault_budget: 0,
                    ..cfg.clone()
                },
                crash_publish_factory(),
                crash_publish_check,
            );
            let rep = explore(&cfg, crash_publish_factory(), crash_publish_check);
            match rep.violation {
                Some(cex) if grants_only.violation.is_none() && grants_only.exhausted => {
                    let crash_kept = cex.trace.decisions.iter().any(|s| s.is_crash());
                    let (detail, artifact_ok) = write_shrunk_trace(
                        crash_publish_factory(),
                        crash_publish_check,
                        cex.trace,
                        &cex.description,
                        out_trace,
                    );
                    if artifact_ok {
                        out.trace_path = Some(out_trace.to_string());
                    }
                    CheckOutcome {
                        name: name.to_string(),
                        passed: false,
                        detail: format!(
                            "{detail} (grant-only space clean: bug is fault-dependent; \
                             crash kept by shrinker: {crash_kept})"
                        ),
                    }
                }
                Some(_) => CheckOutcome {
                    name: name.to_string(),
                    passed: true,
                    detail: "grant-only exploration was not clean — fixture is not \
                             fault-dependent"
                        .to_string(),
                },
                None => CheckOutcome {
                    name: name.to_string(),
                    passed: true,
                    detail: "gate FAILED to find the seeded fault-dependent bug".to_string(),
                },
            }
        }
        Fixture::MissingFence => {
            // The ordering-dependence claim: with the release fence in
            // place the whole schedule×flush space must exhaust clean.
            let fenced = explore(&cfg, missing_fence_factory(true), missing_fence_check);
            let rep = explore(&cfg, missing_fence_factory(false), missing_fence_check);
            match rep.violation {
                Some(cex) if fenced.violation.is_none() && fenced.exhausted => {
                    let flush_kept = cex.trace.decisions.iter().any(|s| s.is_flush());
                    let cycle_line = {
                        let mut make = missing_fence_factory(false);
                        let (replayed, _) = run_trace(&mut make, &cex.trace);
                        let names = {
                            let (w, _) = make();
                            w.reg_names()
                        };
                        replayed
                            .history
                            .as_ref()
                            .and_then(|h| critical_cycle(h, &names))
                            .map(|c| format!("; critical cycle: {c}"))
                            .unwrap_or_default()
                    };
                    let (detail, artifact_ok) = write_shrunk_trace(
                        missing_fence_factory(false),
                        missing_fence_check,
                        cex.trace,
                        &cex.description,
                        out_trace,
                    );
                    if artifact_ok {
                        out.trace_path = Some(out_trace.to_string());
                    }
                    CheckOutcome {
                        name: name.to_string(),
                        passed: false,
                        detail: format!(
                            "{detail} (fenced variant clean: bug is ordering-dependent; \
                             flush decision in counterexample: {flush_kept}{cycle_line})"
                        ),
                    }
                }
                Some(_) => CheckOutcome {
                    name: name.to_string(),
                    passed: true,
                    detail: "fenced variant was not clean — fixture is not \
                             ordering-dependent"
                        .to_string(),
                },
                None => CheckOutcome {
                    name: name.to_string(),
                    passed: true,
                    detail: "gate FAILED to find the seeded ordering bug".to_string(),
                },
            }
        }
    };
    println!(
        "  [{}] {}: {}",
        if outcome.passed { "MISSED" } else { "caught" },
        outcome.name,
        outcome.detail
    );
    out.checks.push(outcome);
}

/// Runs the gate. Progress is printed as checks complete; the returned
/// report carries every verdict (the CLI exits non-zero unless
/// [`GateReport::passed`]).
pub fn run(opts: &GateOptions) -> GateReport {
    println!("verify-gate: fail-closed verification over the schedule x fault space");
    println!("  pinned properties:");
    for (tag, what) in PROPERTIES {
        println!("    {tag:<7} {what}");
    }
    let mut report = GateReport::default();

    if let Some(fixture) = opts.fixture {
        println!("  running seeded fixture '{}':", fixture.name());
        fixture_check(fixture, &mut report, &opts.out_trace);
        return report;
    }

    if opts.weakmem {
        println!("  weak-memory plane (store buffers as explorable decisions):");
        litmus_matrix_check(&mut report);
        for mode in [WeakMode::Tso, WeakMode::Pso] {
            weakmem_exhaustive_check(mode, &mut report, &opts.out_trace);
        }
        return report;
    }

    for budget in [0u64, 1] {
        exhaustive_check(
            &format!("exhaustive n=2 handshake (fault budget {budget})"),
            backend_meta::<ScannableMemory<u64, DirectArrow>>(2),
            budget,
            n2_factory::<ScannableMemory<u64, DirectArrow>>(),
            &mut report,
            &opts.out_trace,
        );
        exhaustive_check(
            &format!("exhaustive n=2 waitfree (fault budget {budget})"),
            backend_meta::<WaitFreeSnapshot<u64>>(2),
            budget,
            n2_factory::<WaitFreeSnapshot<u64>>(),
            &mut report,
            &opts.out_trace,
        );
    }
    frontier_check(&mut report, opts.serial);

    let seeds = if opts.quick { 300 } else { 5_000 };
    pct_consensus_check::<ScannableMemory<ProcState, DirectArrow>>("handshake", seeds, &mut report);
    pct_consensus_check::<WaitFreeSnapshot<ProcState>>("waitfree", seeds, &mut report);

    waitfree_bound_check(&mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The real stack passes the exhaustive slices of the gate (the PCT
    /// sweep is exercised with a tiny seed count to stay unit-test sized).
    #[test]
    fn real_stack_exhaustive_slices_pass() {
        let mut report = GateReport::default();
        exhaustive_check(
            "n2 handshake b1",
            backend_meta::<ScannableMemory<u64, DirectArrow>>(2),
            1,
            n2_factory::<ScannableMemory<u64, DirectArrow>>(),
            &mut report,
            "/dev/null",
        );
        exhaustive_check(
            "n2 waitfree b1",
            backend_meta::<WaitFreeSnapshot<u64>>(2),
            1,
            n2_factory::<WaitFreeSnapshot<u64>>(),
            &mut report,
            "/dev/null",
        );
        waitfree_bound_check(&mut report);
        assert!(report.passed(), "{:?}", report.checks);
        assert!(report.trace_path.is_none());
    }

    /// A small consensus PCT slice holds all four properties on both
    /// backends.
    #[test]
    fn consensus_pct_slice_passes_on_both_backends() {
        let mut report = GateReport::default();
        pct_consensus_check::<ScannableMemory<ProcState, DirectArrow>>("handshake", 6, &mut report);
        pct_consensus_check::<WaitFreeSnapshot<ProcState>>("waitfree", 6, &mut report);
        assert!(report.passed(), "{:?}", report.checks);
    }

    /// The weak-memory plane of the gate: litmus matrix clean both ways,
    /// and the real n = 2 stack survives exhaustive TSO and PSO
    /// store-buffer exploration through the flush-timed checker.
    #[test]
    fn weakmem_plane_passes_on_the_real_stack() {
        let mut report = GateReport::default();
        litmus_matrix_check(&mut report);
        weakmem_exhaustive_check(WeakMode::Tso, &mut report, "/dev/null");
        weakmem_exhaustive_check(WeakMode::Pso, &mut report, "/dev/null");
        assert!(report.passed(), "{:?}", report.checks);
        assert!(report.trace_path.is_none());
    }

    /// All fixtures are caught, shrunk, and serialized; the crash-publish
    /// one is certified fault-dependent (grant-only space clean) and the
    /// missing-fence one ordering-dependent (fenced space clean).
    #[test]
    fn fixtures_are_caught_and_traces_written() {
        for fixture in [
            Fixture::TornScan,
            Fixture::CrashPublish,
            Fixture::MissingFence,
        ] {
            let path = format!(
                "{}/gate_fixture_{}.json",
                std::env::temp_dir().display(),
                fixture.name()
            );
            let mut report = GateReport::default();
            fixture_check(fixture, &mut report, &path);
            assert!(
                !report.passed(),
                "{}: the fixture must register as a violation",
                fixture.name()
            );
            assert_eq!(report.trace_path.as_deref(), Some(path.as_str()));
            let text = std::fs::read_to_string(&path).expect("trace artifact written");
            let parsed = bprc_sim::json::parse(&text).expect("artifact is JSON");
            DecisionTrace::from_json(&parsed).expect("artifact is a bprc-trace-v1 trace");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn fixture_names_round_trip() {
        for f in [
            Fixture::TornScan,
            Fixture::CrashPublish,
            Fixture::MissingFence,
        ] {
            assert_eq!(Fixture::parse(f.name()), Some(f));
        }
        assert_eq!(Fixture::parse("nope"), None);
    }
}
