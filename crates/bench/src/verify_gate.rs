//! The fail-closed verification gate: one table of checks, run by one
//! routine, whose verdicts are the coverage matrix.
//!
//! The paper's evaluation is its properties, so the harness that explores
//! schedules × faults × memory modes and checks them is this reproduction's
//! results table. `experiments verify-gate` builds `table`, runs every
//! `Check` in it, prints the verdicts as one [`Table`] and emits them as
//! `BENCH_verify.json` ([`SCHEMA`]): property × protocol × snapshot backend
//! × memory mode × (n, depth bound, fault budget, exhausted?). The command
//! writes the document first and exits non-zero iff [`validate`] rejects
//! it, so a red gate always ships its evidence — each violated row carries
//! its shrunk, replayable `bprc-trace-v1` trace, made by
//! [`Counterexample::confirm`] for explored and sampled rows alike.
//!
//! A row of the explored kind (`Check::explored`) declares a world
//! factory, a per-schedule check, the independence relation that check
//! tolerates, a memory mode, a fault budget, the [`PROPERTIES`] tags it
//! exercises and an `Expect`ation; `run_check` is the only place that
//! knows how such a row is run and judged:
//!
//! * `Expect::Clean` — the bounded space must exhaust untruncated with
//!   no violation *and* non-vacuously: a crash branch actually taken when
//!   the budget is positive, a store actually buffered under TSO/PSO;
//! * `Expect::Found` — a seeded violation must be found and confirmed
//!   (shrunk, serialised, parsed back byte-identically and replayed to the
//!   same violation, with the critical cycle attached under weak modes),
//!   optionally `Keep`ing the crash or flush decision the bug depends on.
//!   A gate that has lost its teeth therefore fails its own `Found` rows in
//!   every run.
//!
//! The real-stack exhaustive spaces, the distilled n = 3 space, the litmus
//! matrix and the seeded fixtures with their repaired controls are all rows
//! of that kind. The `mc-consensus-*` rows are `Clean` too, one level up:
//! [`bprc_core::modelcheck`] exhausts bounded consensus at n = 2 over the
//! atomic snapshot (and, on the `mc-mv-*` rows, its multivalued reduction
//! at width 1) — every schedule, every coin flip and, on the `-crash`
//! rows, every crash of one process — stepping the turn driver's own
//! state, and records the states it expanded and, as `faults_injected`,
//! the crash branches it took, which must be non-zero on a `-crash` row.
//! What cannot be enumerated is
//! `Expect::Sampled` by small runners emitting the same row shape: the PCT
//! sweeps over the full consensus stack and the n = 4 snapshot, and the
//! arena race — every [`bprc_core::entrants`] protocol at n ∈ {2, 4, 8}
//! over the handshake memory, whose rows also record the decided
//! fraction, mean rounds, mean register operations and widest register.
//! One runner, `sampled`, runs them all: a violating seed is re-run under a
//! [`DecisionRecorder`] and confirmed like an explored violation, so a
//! sampled row embeds its trace too, and may expect `Found`.
//! The weak-memory rows run beside the sequentially consistent ones, and
//! only the property tags some row of the run carries are printed.
//! Every recorded value is a count, a mean of counts or a verdict, so a
//! document is a pure function of the code: timing lives in `benchmark/`.

use std::cell::Cell;
use std::fmt::Debug;
use std::rc::Rc;

use bprc_coin::CoinParams;
use bprc_core::modelcheck::{check, check_bounded, McConfig, McReport};
use bprc_core::multivalued::{MvCore, MvState};
use bprc_core::threaded::ThreadedConsensus;
use bprc_core::{
    arena_strategy, check_telemetry_parity, entrants, Consensus, ConsensusParams, ConsensusSpec,
};
use bprc_registers::{ArrowCell, DirectArrow, HandshakeArrow};
use bprc_sim::explore::{
    explore, Confirmed, Counterexample, DecisionRecorder, DecisionTrace, ExploreConfig,
    ExploreReport, Independence,
};
use bprc_sim::json::{check_finite, Value};
use bprc_sim::litmus::{corpus, LitmusProgram};
use bprc_sim::rng::derive_seed;
use bprc_sim::sched::PctStrategy;
use bprc_sim::world::{ProcBody, RunReport, World};
use bprc_sim::{
    Counter, Decision, FaultPlan, FaultedStrategy, Gauge, Heartbeat, Strategy, WeakMode,
};
use bprc_snapshot::memory::labels;
use bprc_snapshot::{check_history, ScannableMemory, SnapshotBackend, SnapshotMeta};

use crate::{Scale, Table};

/// Schema identifier written into (and required from) every document.
/// v2 dropped the wall-clock `elapsed_sec` and `schedules_per_sec` columns;
/// v3 added the arena rows and their four race columns (`null` elsewhere);
/// v4 added the model-checked rows and their `states` column (`null`
/// elsewhere); v5 added the explored rows' `runs` column (`null`
/// elsewhere) and counts `pruned` as grants a node never branched on; v6
/// added the register-level rows' `handoffs` column (`null` on the
/// turn-level `mc-*` rows).
pub const SCHEMA: &str = "bprc.bench.verify/v6";

/// The pinned property list. A run prints (and records) the entries some
/// row of its table carries, so a log always states what "PASS" covered.
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
        "WEAKMEM",
        "litmus matrix holds and P1-P3 survive store-buffer (TSO/PSO) exploration, \
         via the flush-timed checker",
    ),
    (
        "TEETH",
        "seeded bugs (grant-only, crash-only, flush-only) are found, shrunk, serialised, \
         parsed back and replayed; their repaired controls exhaust clean",
    ),
];

/// Decision path bound of every explored row ([`ExploreConfig::max_steps`]).
const MAX_STEPS: u64 = 40;

/// Process counts the arena race runs at.
const ARENA_SIZES: [usize; 3] = [2, 4, 8];

/// The decision kind a seeded bug depends on: it must survive shrinking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Keep {
    /// An injected crash.
    Crash,
    /// A store-buffer flush.
    Flush,
}

impl Keep {
    fn survives_in(self, trace: &DecisionTrace) -> bool {
        trace.decisions.iter().any(|step| match self {
            Keep::Crash => matches!(step, Decision::Crash(_)),
            Keep::Flush => matches!(step, Decision::Flush { .. }),
        })
    }
}

/// What a row must show to be `ok`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Expect {
    /// The bounded space exhausts untruncated, violation-free and
    /// non-vacuously.
    #[default]
    Clean,
    /// The violation is found and survives shrink → serialise → parse →
    /// replay; the shrunk trace must still contain a decision of the named
    /// kind, if one is named.
    Found(Option<Keep>),
    /// No violation on the schedules actually run; exhaustion is not
    /// claimed.
    Sampled,
}

impl Expect {
    /// The name documents record.
    fn name(self) -> &'static str {
        match self {
            Expect::Clean => "clean",
            Expect::Found(_) => "found",
            Expect::Sampled => "sampled",
        }
    }
}

/// One row of the coverage matrix: what a check declared, then what
/// running it measured.
#[derive(Debug, Clone, Default)]
struct Row {
    /// Unique; `jq '.checks[] | select(.name == "…")'` finds the row.
    name: String,
    /// The [`PROPERTIES`] tags this row exercises.
    tags: &'static [&'static str],
    protocol: &'static str,
    /// [`SnapshotBackend::NAME`], or `raw` for programs over bare registers.
    backend: &'static str,
    mode: WeakMode,
    n: usize,
    /// Decisions per schedule for explored rows, the world's step limit for
    /// sampled ones, the checker's path bound for model-checked ones.
    depth: u64,
    fault_budget: u64,
    expect: Expect,
    // Measured — the coverage counts of `ExploreReport`, under its names.
    schedules: u64,
    /// Distinct protocol states a model-checked row expanded; `None` on
    /// every other row.
    states: Option<usize>,
    /// World executions of an explored row, blocked ones included; `None`
    /// on every other row.
    runs: Option<u64>,
    /// Baton hand-offs ([`RunReport::handoffs`]) summed over the row's
    /// world executions; `None` on the turn-level model-checked rows,
    /// which run no world.
    handoffs: Option<u64>,
    pruned: u64,
    truncated: u64,
    exhausted: bool,
    max_depth: usize,
    faults_injected: u64,
    schedules_by_faults: Vec<u64>,
    /// Stores that went through a store buffer, summed over the schedules.
    stores_buffered: u64,
    /// The shrunk counterexample, when a violation was found.
    trace: Option<DecisionTrace>,
    /// What an arena row measured; `None` on every other row.
    race: Option<Race>,
    ok: bool,
    /// Coverage summary, or the failure reason.
    detail: String,
}

/// An arena row's measurements, summed over its trials (the document
/// records per-trial means).
#[derive(Debug, Clone, Default)]
struct Race {
    /// Processes that decided within the step limit.
    decided: u64,
    /// The highest round any process reached ([`Gauge::Round`]).
    rounds: u64,
    /// Scheduled register reads + writes; a swap counts in both, as the
    /// telemetry plane counts it.
    ops: u64,
    /// The widest single register any process published, in bits
    /// ([`Gauge::MaxRegisterBits`]) — flat for the bounded protocol and the
    /// swap race, growing for the AH line.
    max_register_bits: u64,
}

impl Row {
    /// Records a verdict: `Ok` carries the coverage summary, `Err` the
    /// failure reason.
    fn judge(&mut self, verdict: Result<String, String>) {
        self.ok = verdict.is_ok();
        let (Ok(detail) | Err(detail)) = verdict;
        self.detail = detail;
    }

    /// Copies an exploration's coverage counts into the row.
    fn record(&mut self, rep: &ExploreReport) {
        self.schedules = rep.schedules;
        self.runs = Some(rep.runs);
        self.handoffs = Some(rep.handoffs);
        self.pruned = rep.pruned;
        self.truncated = rep.truncated;
        self.exhausted = rep.exhausted;
        self.max_depth = rep.max_depth;
        self.faults_injected = rep.faults_injected;
        self.schedules_by_faults = rep.schedules_by_faults.clone();
    }

    fn to_json(&self) -> Value {
        let nums = |xs: &[u64]| Value::Arr(xs.iter().map(|&x| x.into()).collect());
        let trace = self.trace.as_ref();
        let trials = self.schedules as f64;
        let race = |f: &dyn Fn(&Race) -> Value| self.race.as_ref().map_or(Value::Null, f);
        Value::obj(vec![
            ("name", self.name.as_str().into()),
            (
                "properties",
                Value::Arr(self.tags.iter().map(|&t| t.into()).collect()),
            ),
            ("protocol", self.protocol.into()),
            ("snapshot_backend", self.backend.into()),
            ("memory_mode", self.mode.name().into()),
            ("n", self.n.into()),
            ("depth_bound", self.depth.into()),
            ("fault_budget", self.fault_budget.into()),
            ("expectation", self.expect.name().into()),
            ("schedules", self.schedules.into()),
            ("states", self.states.map_or(Value::Null, Value::from)),
            ("runs", self.runs.map_or(Value::Null, Value::from)),
            ("handoffs", self.handoffs.map_or(Value::Null, Value::from)),
            ("pruned", self.pruned.into()),
            ("truncated", self.truncated.into()),
            ("exhausted", self.exhausted.into()),
            ("max_depth", self.max_depth.into()),
            ("faults_injected", self.faults_injected.into()),
            ("schedules_by_faults", nums(&self.schedules_by_faults)),
            ("stores_buffered", self.stores_buffered.into()),
            (
                "decided_fraction",
                race(&|r| (r.decided as f64 / (self.n as f64 * trials)).into()),
            ),
            ("mean_rounds", race(&|r| (r.rounds as f64 / trials).into())),
            ("mean_total_ops", race(&|r| (r.ops as f64 / trials).into())),
            ("max_register_bits", race(&|r| r.max_register_bits.into())),
            (
                "shrunk_len",
                trace.map_or(Value::Null, |t| t.decisions.len().into()),
            ),
            ("trace", trace.map_or(Value::Null, |t| t.to_json())),
            ("ok", self.ok.into()),
            ("detail", self.detail.as_str().into()),
        ])
    }
}

/// A row's declaration plus the routine that fills in its measurements.
struct Check {
    row: Row,
    run: Box<dyn Fn(&mut Row)>,
}

impl Check {
    /// A row judged by [`run_check`]: `factory` builds the world under the
    /// row's memory mode, `check` inspects each explored schedule.
    fn explored<T, F, C>(row: Row, independence: Independence, factory: F, check: C) -> Check
    where
        T: Send + 'static,
        F: Fn(WeakMode) -> (World, Vec<ProcBody<T>>) + 'static,
        C: Fn(&RunReport<T>) -> Option<String> + 'static,
    {
        let row = Row {
            depth: MAX_STEPS,
            ..row
        };
        Check {
            row,
            run: Box::new(move |row| run_check(row, independence, &factory, &check)),
        }
    }

    /// Runs the check and returns its filled-in row.
    fn run(self) -> Row {
        let mut row = self.row;
        (self.run)(&mut row);
        row
    }
}

/// The exploration bounds every explored row shares; a row contributes its
/// depth bound, its fault budget and the independence relation its checker
/// tolerates (checkers that consume note timestamps, P1–P3, need
/// [`Independence::ReadsOnly`]).
fn config(row: &Row, independence: Independence) -> ExploreConfig {
    ExploreConfig {
        max_steps: row.depth,
        max_schedules: 2_000_000,
        independence,
        fault_budget: row.fault_budget,
        progress: true,
        ..ExploreConfig::default()
    }
}

/// Runs and judges one explored row.
fn run_check<T, F, C>(row: &mut Row, independence: Independence, factory: &F, check: &C)
where
    T: Send + 'static,
    F: Fn(WeakMode) -> (World, Vec<ProcBody<T>>),
    C: Fn(&RunReport<T>) -> Option<String>,
{
    let mode = row.mode;
    let mut make = || factory(mode);
    // Explorer telemetry carries only the explorer's own counters; the
    // per-run world counters (where `StoresBuffered` lives) arrive on each
    // `RunReport`, so the vacuity evidence is accumulated run by run.
    let buffered = Cell::new(0u64);
    let mut check = |r: &RunReport<T>| {
        buffered.set(buffered.get() + r.telemetry.total(Counter::StoresBuffered));
        check(r)
    };
    let rep = explore(&config(row, independence), &mut make, &mut check);
    row.record(&rep);
    row.stores_buffered = buffered.get();
    let searched = rep.schedules;
    let verdict = match (row.expect, rep.violation) {
        (_, Some(cex)) => {
            let confirmed = cex.confirm(&mut make, &mut check);
            judge_violation(row, &format!("within {searched} schedules"), confirmed)
        }
        (Expect::Found(_), None) => Err(format!(
            "MISSED: seeded violation not found in {searched} schedules"
        )),
        (Expect::Clean, None) if !rep.exhausted => Err(format!(
            "space not exhausted ({searched} schedules, {} truncated) — the claim is vacuous",
            rep.truncated
        )),
        (Expect::Clean, None) if row.fault_budget > 0 && rep.faults_injected == 0 => {
            Err("fault budget granted but no crash branch was ever taken".to_string())
        }
        (Expect::Clean, None) if mode != WeakMode::Sc && row.stores_buffered == 0 => {
            Err("weak mode requested but no store was ever buffered".to_string())
        }
        (_, None) => Ok(format!(
            "{searched} schedules clean (by crash count: {:?}, {} stores buffered)",
            rep.schedules_by_faults, row.stores_buffered
        )),
    };
    row.judge(verdict);
}

/// Embeds a confirmed counterexample's shrunk trace in the row and judges
/// it, `at` saying where the search found it: a `Found` row is `ok` iff
/// the counterexample is confirmed and keeps the decision kind the row
/// names; any other row fails with `VIOLATION`.
fn judge_violation(row: &mut Row, at: &str, confirmed: Confirmed) -> Result<String, String> {
    let trace = row.trace.insert(confirmed.trace);
    match (row.expect, confirmed.verdict) {
        (Expect::Found(Some(kind)), Ok(shrunk)) if !kind.survives_in(trace) => Err(format!(
            "found {at} but the shrinker dropped the {kind:?}: {shrunk}"
        )),
        (Expect::Found(Some(kind)), Ok(shrunk)) => {
            Ok(format!("found {at}, keeping the {kind:?}: {shrunk}"))
        }
        (Expect::Found(None), Ok(shrunk)) => Ok(format!("found {at}: {shrunk}")),
        (Expect::Found(_), Err(failure)) => Err(failure),
        (_, Ok(shrunk) | Err(shrunk)) => Err(format!("VIOLATION {at}: {shrunk}")),
    }
}

type Handshake = ScannableMemory<u64, DirectArrow>;

/// The handshake memory's name in the `snapshot_backend` column.
const HANDSHAKE: &str = Handshake::NAME;

fn handshake_meta<A: ArrowCell>(n: usize) -> SnapshotMeta {
    let world = World::builder(n).build();
    ScannableMemory::<u64, A>::new(&world, n, 0).meta()
}

/// An arrow the snapshot rows run over, and what it adds to their names:
/// nothing for the two-writer [`DirectArrow`] cell, `-swmr` for the
/// paper's footnote-3 [`HandshakeArrow`], with which every shared register
/// of the memory is single-writer.
trait Arrow: ArrowCell {
    const SUFFIX: &'static str;
}

impl Arrow for DirectArrow {
    const SUFFIX: &'static str = "";
}

impl Arrow for HandshakeArrow {
    const SUFFIX: &'static str = "-swmr";
}

/// P1–P3 over a run's recorded history.
fn p1_p3(r: &RunReport<Vec<u64>>, meta: &SnapshotMeta) -> Option<String> {
    let history = r.history.as_ref().expect("lockstep records history");
    let violations = check_history(history, meta).violations;
    Some(format!(
        "snapshot property violated: {:?}",
        violations.first()?
    ))
}

/// The per-schedule check of the sequentially consistent snapshot rows:
/// P1–P3, then telemetry/history parity.
fn snapshot_check(r: &RunReport<Vec<u64>>, meta: &SnapshotMeta) -> Option<String> {
    p1_p3(r, meta).or_else(|| check_telemetry_parity(r))
}

/// Every process of a `world.n()`-process memory with arrow `A` updates
/// its slot to `base + pid`, then scans.
fn update_scan<A: ArrowCell>(world: World, base: u64) -> (World, Vec<ProcBody<Vec<u64>>>) {
    let n = world.n();
    let mem = ScannableMemory::<u64, A>::new(&world, n, 0);
    let bodies = (0..n)
        .map(|pid| {
            let mut port = mem.port(pid);
            let b: ProcBody<Vec<u64>> = Box::new(move |ctx| {
                port.update(ctx, base + pid as u64)?;
                port.scan(ctx)
            });
            b
        })
        .collect();
    (world, bodies)
}

/// n = 2 over the handshake memory with arrow `A`, both processes update
/// their slot then scan — every schedule, with every placement of up to
/// `fault_budget` crashes.
fn n2_update_scan<A: Arrow>(fault_budget: u64) -> Check {
    let meta = handshake_meta::<A>(2);
    Check::explored(
        Row {
            name: format!(
                "snapshot-n2-update-scan-{HANDSHAKE}{}-b{fault_budget}",
                A::SUFFIX
            ),
            tags: &["P1-P3", "PARITY"],
            protocol: "update+scan",
            backend: HANDSHAKE,
            n: 2,
            fault_budget,
            ..Row::default()
        },
        Independence::ReadsOnly,
        |mode| update_scan::<A>(World::builder(2).weak_memory(mode).build(), 10),
        move |r| snapshot_check(r, &meta),
    )
}

/// The real n = 2 handshake stack under store buffering: a writer's update
/// (a raise + value store, each of which may linger in the buffer) racing
/// a full scan, which exercises every fence the memory carries; P1–P3 are
/// checked through the flush-timed checker (a store linearizes at its
/// flush, not its issue). A flush is dependent with everything (it resets
/// sleep sets and is always branched), so the space grows brutally with each
/// buffered store: both-sides-do-everything blows past 10^6 schedules,
/// while this split stays exhaustive in minutes on the real code path.
///
/// The TSO and PSO rows read the same counts, and must: every store of
/// either process is followed by a fence before its next store (raise,
/// fence, write, fence; lower, fence), so no buffer ever holds two
/// stores, and TSO's flushable head is PSO's oldest store per register.
/// The two modes offer the same flushes at every point and explore the
/// same tree. Both rows are kept: they are the gate's only TSO and PSO
/// runs of the real memory, and a change that let two stores share a
/// buffer could show as the rows parting.
fn n2_writer_scanner(mode: WeakMode) -> Check {
    let meta = handshake_meta::<DirectArrow>(2);
    Check::explored(
        Row {
            name: format!("snapshot-n2-writer-scanner-{mode}"),
            tags: &["WEAKMEM"],
            protocol: "writer vs scanner",
            backend: HANDSHAKE,
            mode,
            n: 2,
            ..Row::default()
        },
        Independence::ReadsOnly,
        |mode| {
            let world = World::builder(2).weak_memory(mode).build();
            let mem = Handshake::alloc(&world, 2, 0u64);
            let (mut writer, mut scanner) = (mem.port(0), mem.port(1));
            let bodies: Vec<ProcBody<Vec<u64>>> = vec![
                Box::new(move |ctx| {
                    writer.update(ctx, 10)?;
                    Ok(Vec::new())
                }),
                Box::new(move |ctx| scanner.scan(ctx)),
            ];
            (world, bodies)
        },
        move |r| p1_p3(r, &meta),
    )
}

/// n = 3 over raw registers: two annotated single-write writers racing one
/// scanner — the widest configuration the exhaustive DFS covers in CI
/// wall-clock (three full `ScannableMemory` bodies of 12+ ops each are
/// beyond any CI budget, so the n = 3 statement is made on this distilled
/// update/scan skeleton). With `double_collect` the scanner collects until
/// two consecutive views agree; the registers are monotone (0 → 1, written
/// once), so that terminates within four collects and the repeated view is
/// a valid snapshot. Without it the scanner does ONE naive collect, so torn
/// (non-linearizable) views are reachable by grants alone — the seeded
/// torn-scan bug.
fn writers_scanner_factory(
    double_collect: bool,
) -> impl Fn(WeakMode) -> (World, Vec<ProcBody<Vec<u64>>>) {
    move |mode| {
        let world = World::builder(3).weak_memory(mode).build();
        let v: Vec<_> = (0..3).map(|i| world.reg(format!("V{i}"), 0u64)).collect();
        let mut bodies: Vec<ProcBody<Vec<u64>>> = Vec::new();
        for reg in &v[..2] {
            let reg = reg.clone();
            bodies.push(Box::new(move |ctx| {
                ctx.annotate(labels::UPD_START, vec![1]);
                reg.write_tagged(ctx, 1, 1)?;
                ctx.annotate(labels::UPD_END, vec![1]);
                Ok(vec![])
            }));
        }
        bodies.push(Box::new(move |ctx| {
            ctx.annotate(labels::SCAN_START, vec![]);
            let mut prev: Option<Vec<u64>> = None;
            let view = loop {
                let mut cur = Vec::with_capacity(3);
                for reg in &v {
                    cur.push(reg.read(ctx)?);
                }
                if !double_collect || prev.as_ref() == Some(&cur) {
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

/// Meta for [`writers_scanner_factory`]'s layout: registers 0–2 are the
/// value slots and values double as sequence numbers.
fn raw_meta() -> SnapshotMeta {
    SnapshotMeta {
        value_regs: vec![0, 1, 2],
    }
}

/// A row over [`writers_scanner_factory`]: the honest scanner claims
/// P1–P3, the torn one is a seeded bug.
fn writers_scanner(name: &str, double_collect: bool, fault_budget: u64, expect: Expect) -> Check {
    let meta = raw_meta();
    Check::explored(
        Row {
            name: name.to_string(),
            tags: if double_collect {
                &["P1-P3", "PARITY"]
            } else {
                &["TEETH"]
            },
            protocol: "2 writers + scanner",
            backend: "raw",
            n: 3,
            fault_budget,
            expect,
            ..Row::default()
        },
        Independence::ReadsOnly,
        writers_scanner_factory(double_collect),
        move |r| snapshot_check(r, &meta),
    )
}

/// The seeded crash-publish bug: the writer publishes `value` then raises
/// `published`; the reader holding the value without the bit while the
/// writer is *dead* is a permanently stale handshake, reachable only when
/// the writer crashes between its writes — invisible to any grant-only
/// exploration, so it proves the crash branches are explored and not just
/// configured. At fault budget 0 the same program is its own control.
fn crash_publish(name: &str, fault_budget: u64, expect: Expect) -> Check {
    Check::explored(
        Row {
            name: name.to_string(),
            tags: &["TEETH"],
            protocol: "publish value, then bit",
            backend: "raw",
            n: 2,
            fault_budget,
            expect,
            ..Row::default()
        },
        Independence::DistinctRegisters,
        |mode| {
            let world = World::builder(2).weak_memory(mode).build();
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
        },
        |r| {
            let stale = r.outputs[1].as_deref() == Some(&[1, 0][..]) && r.outputs[0].is_none();
            stale.then(|| "survivor holds a value whose publish bit can never arrive".to_string())
        },
    )
}

/// The seeded missing-fence bug, under PSO: the writer stores `data` then
/// raises `flag`. With the release fence the flag can never overtake the
/// data (the control); without it the PSO store buffer can land the flag
/// first and the reader observes the publish signal guarding nothing —
/// reachable only through a store-buffer reordering, so invisible to any
/// sequentially consistent exploration and proof that the flush branches
/// are explored.
fn message_passing(name: &str, fenced: bool, expect: Expect) -> Check {
    Check::explored(
        Row {
            name: name.to_string(),
            tags: &["TEETH"],
            protocol: if fenced {
                "publish data, fence, flag"
            } else {
                "publish data, then flag"
            },
            backend: "raw",
            mode: WeakMode::Pso,
            n: 2,
            expect,
            ..Row::default()
        },
        Independence::DistinctRegisters,
        move |mode| {
            let world = World::builder(2).weak_memory(mode).build();
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
        },
        |r| {
            (r.outputs[1].as_deref() == Some(&[1, 0][..]))
                .then(|| "reader saw the publish flag before the data it guards".to_string())
        },
    )
}

/// One cell of the litmus matrix: the forbidden outcome must be found
/// exactly where the corpus says store-buffer physics allow it, and be
/// exhaustively unreachable everywhere else.
fn litmus(prog: &LitmusProgram, mode: WeakMode) -> Check {
    let expect = if prog.expected_found(mode) {
        Expect::Found(None)
    } else {
        Expect::Clean
    };
    Check::explored(
        Row {
            name: format!("litmus-{}-{mode}", prog.name),
            tags: &["WEAKMEM"],
            protocol: prog.name,
            backend: "raw",
            mode,
            n: prog.n,
            expect,
            ..Row::default()
        },
        Independence::DistinctRegisters,
        prog.build,
        prog.check,
    )
}

/// A row that samples instead of enumerating. Seed `s` of `seeds` runs the
/// world `make(s, false)` once under `strategy(s)`; `tally` records what
/// the run measured and says what the row covered so far (or why the run
/// is vacuous), and `check` judges it. A seed is deterministic, so a
/// violating one is re-run under a [`DecisionRecorder`] and its trace goes
/// through [`Counterexample::confirm`] against `make(s, true)` (the
/// flag asks for the recorded history a replay needs): the row embeds a
/// shrunk, replayable trace like an explored row, and may expect `Found`.
fn sampled<T, M, S, C, A>(row: Row, seeds: u64, make: M, strategy: S, check: C, tally: A) -> Check
where
    T: Send + 'static,
    M: Fn(u64, bool) -> (World, Vec<ProcBody<T>>) + 'static,
    S: Fn(u64) -> Box<dyn Strategy> + 'static,
    C: Fn(&RunReport<T>) -> Option<String> + 'static,
    A: Fn(&mut Row, u64, &RunReport<T>) -> Result<String, String> + 'static,
{
    let run = move |row: &mut Row| {
        let mut heartbeat = Heartbeat::new(2.0);
        let mut covered = Ok(String::new());
        for seed in 0..seeds {
            heartbeat.tick(|secs| {
                format!(
                    "verify-gate [{}]: seed {seed}/{seeds} ({:.1}/s), {} crashes injected",
                    row.name,
                    seed as f64 / secs.max(1e-9),
                    row.faults_injected,
                )
            });
            let (mut world, bodies) = make(seed, false);
            let rep = world.run(bodies, strategy(seed));
            *row.handoffs.get_or_insert(0) += rep.handoffs;
            row.schedules += 1;
            covered = tally(row, seed, &rep).map_err(|e| format!("VACUOUS at seed {seed}: {e}"));
            if let Some(description) = check(&rep) {
                let (recorder, log) = DecisionRecorder::new(strategy(seed));
                let (mut world, bodies) = make(seed, true);
                world.run(bodies, Box::new(recorder));
                let trace = DecisionTrace {
                    n: world.n(),
                    decisions: std::mem::take(&mut *log.lock()),
                };
                let confirmed = Counterexample { trace, description }
                    .confirm(&mut || make(seed, true), &mut |r| check(r));
                let verdict = judge_violation(row, &format!("at seed {seed}"), confirmed);
                return row.judge(verdict);
            }
            if covered.is_err() {
                break;
            }
        }
        let expect = row.expect;
        row.judge(covered.and_then(|covered| match expect {
            Expect::Found(_) => Err(format!(
                "MISSED: seeded violation not found in {seeds} seeds"
            )),
            _ => Ok(format!("{seeds} seeds clean ({covered})")),
        }));
    };
    Check {
        row,
        run: Box::new(run),
    }
}

/// The PCT sweep over the full consensus stack on the handshake memory:
/// every seed runs the whole protocol at register granularity under a
/// fault-injecting strategy and must satisfy agreement, validity, P1–P3
/// and parity.
fn pct_consensus(seeds: u64) -> Check {
    let inputs = [true, false, true];
    let (n, d) = (inputs.len(), 3usize);
    // Short enough that sampled fault points usually land inside the run
    // (a point past the last step is spent without firing — legal but
    // uninformative).
    let horizon = 800u64;
    let row = Row {
        name: format!("pct-consensus-n3-{HANDSHAKE}"),
        tags: &["AGREE", "VALID", "P1-P3", "PARITY"],
        protocol: "bounded consensus",
        backend: HANDSHAKE,
        n,
        depth: 60_000,
        fault_budget: 1,
        expect: Expect::Sampled,
        ..Row::default()
    };
    let step_limit = row.depth;
    let params = ConsensusParams::quick(n);
    let consensus = move |world: &World, seed| {
        ThreadedConsensus::<DirectArrow>::new(world, &params, &inputs, seed)
    };
    // The register layout, and so the meta, is the same at every seed.
    let meta = consensus(&World::builder(n).build(), 0).memory.meta();
    let spec = ConsensusSpec::new(&inputs);
    sampled(
        row,
        seeds,
        move |seed, _| {
            let world = World::builder(n).step_limit(step_limit).build();
            let bodies = consensus(&world, seed).bodies;
            (world, bodies)
        },
        // Alternate the two composition routes into the fault space: the
        // scheduler-native crash points (even seeds) and the declarative
        // replayable plan wrapped around the same PCT strategy (odd seeds).
        move |seed| -> Box<dyn Strategy> {
            if seed % 2 == 0 {
                Box::new(PctStrategy::with_faults(seed, n, d, horizon, 1))
            } else {
                Box::new(FaultedStrategy::new(
                    PctStrategy::new(seed, n, d, horizon),
                    FaultPlan::seeded(seed, n, horizon),
                ))
            }
        },
        move |rep| {
            spec.check_with_snapshot(&meta, rep)
                .or_else(|| check_telemetry_parity(rep))
        },
        move |row, _, rep| {
            row.faults_injected += rep.history.as_ref().map_or(0, |h| h.crashes().count()) as u64;
            Ok(format!("d={d}, {} crashes injected", row.faults_injected))
        },
    )
}

/// The PCT sweep at n = 4 over the handshake memory with arrow `A`:
/// `seeds` schedules with d = 3 change points, every run's history checked
/// against P1–P3.
fn pct_snapshot<A: Arrow>(seeds: u64) -> Check {
    let (n, d, horizon) = (4usize, 3usize, 200u64);
    let meta = handshake_meta::<A>(n);
    let row = Row {
        name: format!("pct-snapshot-n4-{HANDSHAKE}{}", A::SUFFIX),
        tags: &["P1-P3"],
        protocol: "update+scan",
        backend: HANDSHAKE,
        n,
        depth: 5_000,
        expect: Expect::Sampled,
        ..Row::default()
    };
    let step_limit = row.depth;
    sampled(
        row,
        seeds,
        move |_, _| update_scan::<A>(World::builder(n).step_limit(step_limit).build(), 1),
        move |seed| Box::new(PctStrategy::new(seed, n, d, horizon)),
        move |r| p1_p3(r, &meta),
        move |_, _, _| Ok(format!("d={d}")),
    )
}

/// Bounded consensus at n = 2 with coin parameters (b, m), exhausted by the
/// turn-level model checker: every schedule, every flip outcome and, with
/// `crashes`, every crash of one process. `schedules` counts the complete
/// paths.
fn mc_consensus(b: u32, m: i64, inputs: [bool; 2], crashes: bool) -> Check {
    let stem = format!("mc-consensus-n2-b{b}-m{m}");
    let (row, cfg) = mc_row(stem, "bounded consensus", &inputs, crashes);
    Check {
        row,
        run: Box::new(move |row| {
            model_check(row, inputs, check_bounded(&mc_params(b, m), &inputs, cfg))
        }),
    }
}

/// Multivalued consensus over the values {0, 1} (width 1) at n = 2 with
/// coin parameters (b, m), exhausted like [`mc_consensus`]. Unlike the
/// binary rows, a process joins its level from a scan and adopts a
/// candidate, so these rows reach the joiner's first `inc` and the
/// candidate adoption.
fn mc_multivalued(b: u32, m: i64, inputs: [u64; 2], crashes: bool) -> Check {
    let stem = format!("mc-mv-n2-b{b}-m{m}-w1");
    let (row, cfg) = mc_row(stem, "multivalued consensus", &inputs, crashes);
    Check {
        row,
        run: Box::new(move |row| {
            let params = mc_params(b, m);
            let procs = (0..2)
                .map(|p| MvCore::with_queue_flips(params.clone(), p, inputs[p], 1))
                .collect();
            let initial = vec![MvState::phantom(params.layout()); 2];
            model_check(
                row,
                inputs,
                check(procs, initial, |v| inputs.contains(v), cfg),
            )
        }),
    }
}

/// The parameters of a model-checked row: n = 2, coin barrier `b`, counter
/// bound `m`.
fn mc_params(b: u32, m: i64) -> ConsensusParams {
    ConsensusParams::new(2, CoinParams::new(2, b, m))
}

/// A model-checked row of `protocol`, named `{stem}-{unanimous|mixed}` with
/// `-crash` when one crash is budgeted, and the search limits it runs
/// under.
fn mc_row<O: PartialEq>(
    stem: String,
    protocol: &'static str,
    inputs: &[O; 2],
    crashes: bool,
) -> (Row, McConfig) {
    let cfg = McConfig {
        with_crashes: crashes,
        ..McConfig::default()
    };
    let kind = if inputs[0] == inputs[1] {
        "unanimous"
    } else {
        "mixed"
    };
    let crash = if crashes { "-crash" } else { "" };
    let row = Row {
        name: format!("{stem}-{kind}{crash}"),
        tags: &["AGREE", "VALID"],
        protocol,
        backend: "atomic",
        n: 2,
        depth: cfg.max_depth as u64,
        fault_budget: u64::from(crashes),
        ..Row::default()
    };
    (row, cfg)
}

/// Judges one model-checked row from the checker's report, whatever core
/// it checked: it fails on a violation, on truncation, on a fault budget
/// with no crash branch taken, or unless the decisions seen are exactly the
/// inputs. `faults_injected` counts the crash branches.
fn model_check<O: Clone + Ord + Debug>(row: &mut Row, inputs: [O; 2], rep: McReport<O>) {
    row.states = Some(rep.states);
    row.schedules = rep.complete_paths as u64;
    row.truncated = u64::from(rep.truncated);
    row.exhausted = !rep.truncated;
    row.faults_injected = rep.crash_branches as u64;
    let mut expected = inputs.to_vec();
    expected.sort_unstable();
    expected.dedup();
    let mut seen = rep.decisions_seen;
    seen.sort_unstable();
    let verdict = if let Some(v) = rep.violation {
        Err(format!(
            "VIOLATION: {:?} after {} events: {:?}",
            v.kind,
            v.trace.len(),
            v.trace
        ))
    } else if rep.truncated {
        Err(format!(
            "space not exhausted ({} states expanded) — the claim is vacuous",
            rep.states
        ))
    } else if row.fault_budget > 0 && row.faults_injected == 0 {
        Err("fault budget granted but no crash branch was ever taken".to_string())
    } else if seen != expected {
        Err(format!("decided {seen:?} from inputs {inputs:?}"))
    } else {
        Ok(format!(
            "{} states exhausted, {} complete paths, decided {seen:?}",
            rep.states, rep.complete_paths
        ))
    };
    row.judge(verdict);
}

/// One arena cell: `trials` runs of `entrant` at `n` processes, each
/// seeded `derive_seed(seed, trial)`, capped at
/// `step_limit` steps and scheduled by [`arena_strategy`] for the
/// entrant's memory model. A run fails the row if it violates agreement or
/// validity, or decides without advancing a round, metering a register or
/// counting an operation. A violating trial is confirmed like any
/// [`sampled`] seed, so the failed row embeds its shrunk, replayable trace
/// and, under a weak mode, the critical cycle.
fn arena_row(
    entrant: Rc<dyn Consensus>,
    n: usize,
    trials: u64,
    step_limit: u64,
    seed: u64,
) -> Check {
    let mode = entrant.memory_mode();
    let row = Row {
        name: format!("arena-{}-n{n}-{HANDSHAKE}", entrant.name()),
        tags: &["AGREE", "VALID"],
        protocol: entrant.name(),
        backend: HANDSHAKE,
        mode,
        n,
        depth: step_limit,
        expect: Expect::Sampled,
        race: Some(Race::default()),
        ..Row::default()
    };
    let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
    let spec = ConsensusSpec::new(&inputs);
    sampled(
        row,
        trials,
        move |trial, history| {
            arena_trial(
                &*entrant,
                &inputs,
                step_limit,
                derive_seed(seed, trial),
                history,
            )
        },
        move |trial| arena_strategy(mode, derive_seed(seed, trial)),
        move |rep| spec.check(rep),
        move |row, trial, rep| {
            let decided = rep.outputs.iter().filter(|o| o.is_some()).count() as u64;
            let rounds = rep.telemetry.gauge_max_all(Gauge::Round).unwrap_or(0);
            let bits = rep
                .telemetry
                .gauge_max_all(Gauge::MaxRegisterBits)
                .unwrap_or(0);
            let ops =
                rep.telemetry.total(Counter::RegReads) + rep.telemetry.total(Counter::RegWrites);
            let race = row.race.as_mut().expect("an arena row carries its race");
            race.decided += decided;
            race.rounds += rounds;
            race.ops += ops;
            race.max_register_bits = race.max_register_bits.max(bits);
            if decided > 0 && (rounds == 0 || bits == 0 || ops == 0) {
                return Err(format!(
                    "a run decided at {rounds} rounds, {bits} register bits and {ops} operations"
                ));
            }
            Ok(format!(
                "{} of {} decided",
                race.decided,
                n as u64 * (trial + 1)
            ))
        },
    )
}

/// The world and bodies of one arena trial, seeded `trial_seed` for both.
fn arena_trial(
    entrant: &dyn Consensus,
    inputs: &[bool],
    step_limit: u64,
    trial_seed: u64,
    record_history: bool,
) -> (World, Vec<ProcBody<bool>>) {
    let world = World::builder(inputs.len())
        .step_limit(step_limit)
        .record_history(record_history)
        .weak_memory(entrant.memory_mode())
        .build();
    let bodies = entrant.build(&world, inputs, trial_seed);
    (world, bodies)
}

/// The arena race: every entrant × [`ARENA_SIZES`], the cell at entrant
/// `e` and size index `i` seeded `derive_seed(seed, 100e + 10i)` — the
/// seeds the committed `arena-*` rows and
/// `quick_arena_race_pins_the_open_finding`'s cell 200 are pinned against.
fn arena_race(seed: u64, trials: u64, step_limit: u64) -> Vec<Check> {
    let mut checks = Vec::new();
    for (e, entrant) in entrants().into_iter().enumerate() {
        let entrant: Rc<dyn Consensus> = entrant.into();
        for (i, &n) in ARENA_SIZES.iter().enumerate() {
            let cell_seed = derive_seed(seed, (e * 100 + i * 10) as u64);
            let entrant = Rc::clone(&entrant);
            checks.push(arena_row(entrant, n, trials, step_limit, cell_seed));
        }
    }
    checks
}

/// The gate's checks, in execution order. `scale` sizes the consensus PCT
/// sweeps (300 seeds quick, 5,000 full); every other row is identical at
/// both scales. The weak-memory rows come last: the litmus matrix,
/// store-buffer exploration of the real n = 2 stack, the missing-fence
/// fixture.
fn table(scale: Scale) -> Vec<Check> {
    let seeds = scale.trials(300, 5_000);
    let mut checks = Vec::new();
    checks.extend([
        n2_update_scan::<DirectArrow>(0),
        n2_update_scan::<DirectArrow>(1),
        n2_update_scan::<HandshakeArrow>(0),
        writers_scanner("snapshot-n3-writers-scanner-b1", true, 1, Expect::Clean),
        writers_scanner("fixture-torn-scan", false, 0, Expect::Found(None)),
        crash_publish("fixture-crash-publish", 1, Expect::Found(Some(Keep::Crash))),
        crash_publish("control-crash-publish-b0", 0, Expect::Clean),
        pct_consensus(seeds),
        pct_snapshot::<DirectArrow>(1_000),
        pct_snapshot::<HandshakeArrow>(1_000),
    ]);
    checks.extend([
        mc_consensus(1, 1, [false, false], false),
        mc_consensus(1, 1, [false, false], true),
        mc_consensus(1, 1, [true, false], false),
        mc_consensus(1, 1, [true, false], true),
        mc_consensus(2, 1, [true, false], false),
        mc_consensus(2, 1, [true, false], true),
        mc_consensus(1, 2, [true, false], false),
        mc_consensus(2, 2, [true, false], false),
        mc_multivalued(1, 1, [0, 1], false),
        mc_multivalued(1, 1, [0, 1], true),
    ]);
    checks.extend(arena_race(42, 5, 1_000_000));
    for prog in corpus() {
        for mode in [WeakMode::Sc, WeakMode::Tso, WeakMode::Pso] {
            checks.push(litmus(&prog, mode));
        }
    }
    checks.extend([
        n2_writer_scanner(WeakMode::Tso),
        n2_writer_scanner(WeakMode::Pso),
        message_passing(
            "fixture-missing-fence",
            false,
            Expect::Found(Some(Keep::Flush)),
        ),
        message_passing("control-fenced-mp", true, Expect::Clean),
    ]);
    checks
}

/// The columns of the printed coverage matrix: keys of a row's JSON object.
const COLUMNS: &[&str] = &[
    "name",
    "properties",
    "protocol",
    "snapshot_backend",
    "memory_mode",
    "n",
    "depth_bound",
    "fault_budget",
    "expectation",
    "schedules",
    "states",
    "runs",
    "schedules_by_faults",
    "pruned",
    "exhausted",
    "max_depth",
    "stores_buffered",
    "decided_fraction",
    "mean_rounds",
    "mean_total_ops",
    "max_register_bits",
    "shrunk_len",
    "ok",
];

/// The rows of a document as the coverage matrix; failing rows repeat
/// their detail underneath.
fn render(rows: &[Value]) -> Table {
    fn cell(v: &Value) -> String {
        match v {
            Value::Str(s) => s.clone(),
            Value::Arr(items) if !items.is_empty() => {
                items.iter().map(cell).collect::<Vec<_>>().join(" ")
            }
            Value::Null | Value::Arr(_) => "-".to_string(),
            other => other.render(),
        }
    }
    let mut t = Table::new("verify-gate coverage matrix", COLUMNS);
    for row in rows {
        let col = |key: &str| cell(row.get(key).unwrap_or(&Value::Null));
        t.row(COLUMNS.iter().map(|key| col(key)).collect());
        if row.get("ok") != Some(&Value::Bool(true)) {
            t.note(format!("FAIL {}: {}", col("name"), col("detail")));
        }
    }
    t
}

/// Runs the gate: prints the property tags the table carries, each row's
/// verdict as it lands, then the coverage matrix; returns the [`SCHEMA`]
/// document (the CLI writes it, then exits non-zero iff [`validate`]
/// rejects it).
pub fn run(scale: Scale) -> Value {
    let checks = table(scale);
    println!("verify-gate: fail-closed verification over schedules x faults x memory modes");
    println!("  pinned properties:");
    let mut properties = Vec::new();
    for &(tag, what) in PROPERTIES {
        if checks.iter().any(|c| c.row.tags.contains(&tag)) {
            println!("    {tag:<7} {what}");
            properties.push(Value::obj(vec![("tag", tag.into()), ("what", what.into())]));
        }
    }
    let mut rows = Vec::new();
    for check in checks {
        let row = check.run();
        let verdict = if row.ok { "ok" } else { "FAIL" };
        println!("  [{verdict}] {}: {}", row.name, row.detail);
        rows.push(row.to_json());
    }
    println!("\n{}", render(&rows));
    Value::obj(vec![
        ("schema", SCHEMA.into()),
        ("scale", scale.name().into()),
        ("properties", Value::Arr(properties)),
        ("checks", Value::Arr(rows)),
    ])
}

/// Checks an emitted document: the schema id, every row `ok`, `clean` rows
/// exhausted and untruncated, `found` rows and violated register-level
/// rows (every backend but the turn-level `atomic`) carrying a trace that
/// parses, and no non-finite number anywhere. Returns human-readable
/// violation strings; empty means valid.
pub fn validate(doc: &Value) -> Vec<String> {
    let trace = |row: &Value| DecisionTrace::from_json(row.get("trace").unwrap_or(&Value::Null));
    let mut errs = Vec::new();
    match doc.get("schema").and_then(|v| v.as_str()) {
        Some(s) if s == SCHEMA => {}
        other => errs.push(format!("schema must be {SCHEMA:?}, got {other:?}")),
    }
    let rows = doc.get("checks").and_then(|v| v.as_arr()).unwrap_or(&[]);
    if rows.is_empty() {
        errs.push("checks must be a non-empty array".to_string());
    }
    for row in rows {
        let text = |key: &str| row.get(key).and_then(|v| v.as_str()).unwrap_or("?");
        let name = text("name");
        if row.get("ok") != Some(&Value::Bool(true)) {
            errs.push(format!("{name}: {}", text("detail")));
            if text("detail").starts_with("VIOLATION") && text("snapshot_backend") != "atomic" {
                if let Err(e) = trace(row) {
                    errs.push(format!(
                        "{name}: a violated register-level row must embed its counterexample: {e}"
                    ));
                }
            }
            continue;
        }
        match text("expectation") {
            "clean" => {
                if row.get("exhausted") != Some(&Value::Bool(true))
                    || row.get("truncated").and_then(|v| v.as_num()) != Some(0.0)
                {
                    errs.push(format!(
                        "{name}: a clean row must be exhausted and untruncated"
                    ));
                }
            }
            "found" => {
                if let Err(e) = trace(row) {
                    errs.push(format!("{name}: a found row must embed its trace: {e}"));
                }
            }
            "sampled" => {}
            other => errs.push(format!("{name}: unknown expectation {other:?}")),
        }
    }
    check_finite(doc, "$", &mut errs);
    errs
}

#[cfg(test)]
mod tests {
    use super::*;
    use bprc_sim::explore::run_trace;

    /// A row's embedded trace, through the document: parses as
    /// `bprc-trace-v1`.
    fn embedded_trace(row: &Row) -> DecisionTrace {
        let json = row.to_json();
        DecisionTrace::from_json(json.get("trace").unwrap()).expect("bprc-trace-v1")
    }

    #[test]
    fn clean_row_reports_fault_coverage() {
        let row = n2_update_scan::<DirectArrow>(1).run();
        assert!(row.ok, "{}", row.detail);
        assert!(row.exhausted);
        assert_eq!((row.schedules, row.truncated), (4089, 0));
        assert_eq!(row.schedules_by_faults, vec![486, 3603]);
        assert_eq!(row.faults_injected, 3603);
        assert_eq!(row.trace, None);
        // The hand-offs of every world execution the exploration made, as
        // the committed document records them.
        assert_eq!(row.handoffs, Some(32954));
    }

    /// One reachable and one model-soundness cell of the litmus matrix.
    #[test]
    fn litmus_cells_hold_the_matrix_both_ways() {
        let prog = |name: &str| corpus().into_iter().find(|p| p.name == name).unwrap();
        let sb = litmus(&prog("sb"), WeakMode::Tso).run();
        assert_eq!(sb.expect, Expect::Found(None));
        assert!(sb.ok, "{}", sb.detail);
        // SB shrinks to the empty trace (the end-of-run drain alone delays
        // the stores past the reads), so only presence is pinned.
        embedded_trace(&sb);
        let lb = litmus(&prog("lb"), WeakMode::Pso).run();
        assert_eq!(lb.expect, Expect::Clean);
        assert!(lb.ok, "{}", lb.detail);
        assert!(lb.exhausted && lb.stores_buffered > 0);
        // One schedule per Mazurkiewicz trace, the end-of-run drain's
        // reorderings included (a complete run's path ends with the drain).
        assert_eq!((lb.schedules, lb.runs), (9, Some(9)));
    }

    /// Every seeded bug is caught and its embedded trace replays; handed
    /// its repaired control instead, the same `Found` row reports a miss.
    #[test]
    fn fixtures_are_caught_and_their_controls_are_missed() {
        let torn = |double_collect| writers_scanner("torn", double_collect, 0, Expect::Found(None));
        let crash = |budget| crash_publish("crash", budget, Expect::Found(Some(Keep::Crash)));
        let fence = |fenced| message_passing("fence", fenced, Expect::Found(Some(Keep::Flush)));

        let caught = [torn(false).run(), crash(1).run(), fence(false).run()];
        for row in &caught {
            assert!(row.ok, "{}: {}", row.name, row.detail);
        }
        let shrunk = caught
            .each_ref()
            .map(|row| embedded_trace(row).decisions.len());
        assert_eq!(shrunk, [1, 2, 3]);
        assert!(caught[2].detail.contains("critical cycle"));

        let factory = writers_scanner_factory(false);
        let (replayed, _) = run_trace(&mut || factory(WeakMode::Sc), &embedded_trace(&caught[0]));
        assert!(snapshot_check(&replayed, &raw_meta()).is_some());

        for row in [torn(true).run(), crash(0).run(), fence(true).run()] {
            assert!(!row.ok, "{}: a repaired control cannot be caught", row.name);
            assert!(row.detail.contains("MISSED"), "{}", row.detail);
            assert!(row.exhausted && row.truncated == 0, "{}", row.name);
        }
    }

    /// A `Clean` row over a violating space fails with the shrunk trace
    /// embedded — what a red gate ships.
    #[test]
    fn violated_clean_row_embeds_its_counterexample() {
        let row = crash_publish("regression", 1, Expect::Clean).run();
        assert!(!row.ok);
        assert!(row.detail.starts_with("VIOLATION"), "{}", row.detail);
        assert_eq!(embedded_trace(&row).decisions.len(), 2);
    }

    /// A PCT row over the single-collect scanner at n = 3, whose torn view
    /// PCT first finds at seed 62.
    fn pct_torn_scan(expect: Expect) -> Check {
        let (meta, factory) = (raw_meta(), writers_scanner_factory(false));
        sampled(
            writers_scanner("pct-torn-scan", false, 0, expect).row,
            300,
            move |_, _| factory(WeakMode::Sc),
            |seed| Box::new(PctStrategy::new(seed, 3, 3, 20)),
            move |r| snapshot_check(r, &meta),
            |_, _, _| Ok("d=3".to_string()),
        )
    }

    /// Teeth for the sampled path: a violating seed is re-run, recorded and
    /// confirmed, so the row embeds a shrunk trace that replays to the torn
    /// view — a failure as a `Sampled` row, `ok` as a `Found` one.
    #[test]
    fn sampled_rows_embed_a_confirmed_trace() {
        let sampled = pct_torn_scan(Expect::Sampled).run();
        assert!(!sampled.ok);
        let detail = &sampled.detail;
        assert!(detail.starts_with("VIOLATION at seed 62: "), "{detail}");
        let found = pct_torn_scan(Expect::Found(None)).run();
        assert!(found.ok, "{}", found.detail);
        assert!(
            found.detail.starts_with("found at seed 62: "),
            "{}",
            found.detail
        );
        assert_eq!((sampled.schedules, found.schedules), (63, 63));

        let trace = embedded_trace(&found);
        assert_eq!(trace, embedded_trace(&sampled));
        let factory = writers_scanner_factory(false);
        let (replayed, _) = run_trace(&mut || factory(WeakMode::Sc), &trace);
        let torn = snapshot_check(&replayed, &raw_meta()).expect("the trace replays");
        assert!(torn.contains("NotInstantaneous"), "{torn}");
    }

    /// Teeth for the fail-closed branch: a checker that fires on its first
    /// call only flags a schedule no replay reproduces, so `confirm`
    /// reports it unreproduced and a `Found` row judging it fails.
    #[test]
    fn a_violation_that_does_not_replay_fails_its_row() {
        let once = || {
            let fired = Cell::new(false);
            move |_: &RunReport<Vec<u64>>| (!fired.replace(true)).then(|| "flagged once".into())
        };
        let factory = writers_scanner_factory(true);
        let mut make = || factory(WeakMode::Sc);
        let mut check = once();
        let rep = explore(&ExploreConfig::default(), &mut make, &mut check);
        let cex = rep.violation.expect("the first schedule is flagged");
        let failure = cex.confirm(&mut make, &mut check).verdict.unwrap_err();
        assert!(
            failure.ends_with("did not replay to the violation"),
            "{failure}"
        );

        let row = writers_scanner("flagged-once", true, 0, Expect::Found(None)).row;
        let row = Check::explored(row, Independence::ReadsOnly, factory, once()).run();
        assert!(!row.ok);
        assert!(row.detail.contains("did not replay"), "{}", row.detail);
    }

    #[test]
    fn sampled_runners_fill_the_same_row_shape() {
        let rows = [
            pct_consensus(6).run(),
            pct_snapshot::<DirectArrow>(20).run(),
        ];
        for row in &rows {
            assert!(row.ok, "{}: {}", row.name, row.detail);
            assert_eq!(row.expect, Expect::Sampled);
            assert!(!row.exhausted);
        }
        for row in &rows {
            assert!(row.handoffs.is_some_and(|h| h > 0), "{}", row.name);
        }
        assert_eq!(rows.map(|r| r.schedules), [6, 20]);
    }

    #[test]
    fn table_rows_are_unique_and_cover_the_property_list() {
        let all = table(Scale::Quick);
        assert_eq!(all.len(), 57);
        let known = |tag: &&str| PROPERTIES.iter().any(|(t, _)| t == tag);
        for (i, check) in all.iter().enumerate() {
            let row = &check.row;
            assert!(!row.tags.is_empty() && row.tags.iter().all(known));
            let earlier = all[..i].iter().any(|c| c.row.name == row.name);
            assert!(!earlier, "duplicate row name {}", row.name);
        }
        for (tag, _) in PROPERTIES {
            let carried = all.iter().any(|c| c.row.tags.contains(tag));
            assert!(carried, "no row carries {tag}");
        }
        // The arena race covers the whole field: entrants × sizes.
        let arena: Vec<&str> = all
            .iter()
            .map(|c| c.row.name.as_str())
            .filter(|name| name.starts_with("arena-"))
            .collect();
        let mut field = Vec::new();
        for entrant in entrants() {
            for n in ARENA_SIZES {
                field.push(format!("arena-{}-n{n}-{HANDSHAKE}", entrant.name()));
            }
        }
        assert_eq!(arena, field);
    }

    /// Pins the open finding of DESIGN.md § Scope limits ("Open finding"):
    /// racing at seed 3, 2 trials and a 200,000-step limit fails exactly
    /// one arena row, Aspnes–Herlihy over regular registers at n = 2. The test fails if the finding moves or spreads;
    /// deciding it empties the list.
    #[test]
    fn quick_arena_race_pins_the_open_finding() {
        let rows: Vec<Row> = arena_race(3, 2, 200_000)
            .into_iter()
            .map(Check::run)
            .collect();
        let failed: Vec<&Row> = rows.iter().filter(|r| !r.ok).collect();
        let names: Vec<&str> = failed.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["arena-ah-regular-n2-handshake"]);
        let detail = &failed[0].detail;
        assert!(
            detail.starts_with("VIOLATION") && detail.contains("critical cycle"),
            "{detail}"
        );
        // The row embeds the failing trial's shrunk trace, and it replays
        // to the disagreement on that trial's world (cell 200, trial 0).
        let (inputs, seed) = ([true, false], derive_seed(derive_seed(3, 200), 0));
        let mut make = || arena_trial(&*entrants()[2], &inputs, 200_000, seed, true);
        let (replayed, _) = run_trace(&mut make, &embedded_trace(failed[0]));
        let disagreement = ConsensusSpec::new(&inputs).check(&replayed);
        assert!(disagreement.is_some(), "{:?}", replayed.outputs);
    }

    /// The smallest model-checked pair is pinned as (states, complete
    /// paths, crash branches), and its `-crash` row expands strictly more
    /// states than its crash-free twin; the committed document pins the
    /// other rows.
    #[test]
    fn mc_crash_row_explores_crashes() {
        let quiet = mc_consensus(1, 1, [false, false], false).run();
        let crash = mc_consensus(1, 1, [false, false], true).run();
        let pin = |row: &Row| {
            assert!(row.ok && row.exhausted, "{}: {}", row.name, row.detail);
            (row.states.unwrap(), row.schedules, row.faults_injected)
        };
        assert_eq!(pin(&quiet), (29, 6, 0));
        assert_eq!(pin(&crash), (53, 14, 30));
        assert!(crash.states > quiet.states);
        // The turn-level checker runs no world, so it hands off nothing.
        assert_eq!((quiet.handoffs, crash.handoffs), (None, None));
    }

    /// A model-checked row fails closed when it runs out of state budget,
    /// and when it is granted a crash but takes no crash branch.
    #[test]
    fn mc_rows_fail_closed() {
        let inputs = [true, false];
        let mut row = mc_consensus(1, 1, inputs, false).row;
        let cfg = McConfig {
            max_states: 1_000,
            ..McConfig::default()
        };
        model_check(
            &mut row,
            inputs,
            check_bounded(&mc_params(1, 1), &inputs, cfg),
        );
        assert!(!row.ok && !row.exhausted && row.truncated == 1);
        assert!(row.detail.contains("not exhausted"), "{}", row.detail);

        let inputs = [false, false];
        let mut row = mc_consensus(1, 1, inputs, true).row;
        let rep = check_bounded(&mc_params(1, 1), &inputs, McConfig::default());
        model_check(&mut row, inputs, rep);
        assert!(!row.ok && row.exhausted && row.faults_injected == 0);
        assert!(row.detail.contains("no crash branch"), "{}", row.detail);
    }

    fn document(rows: &[Row]) -> Value {
        Value::obj(vec![
            ("schema", SCHEMA.into()),
            (
                "checks",
                Value::Arr(rows.iter().map(Row::to_json).collect()),
            ),
        ])
    }

    #[test]
    fn validate_accepts_real_rows_and_rejects_forgeries() {
        let rows = [
            mc_consensus(1, 1, [false, false], false).run(),
            n2_update_scan::<DirectArrow>(0).run(),
            crash_publish("found", 1, Expect::Found(Some(Keep::Crash))).run(),
            pct_snapshot::<DirectArrow>(2).run(),
        ];
        let doc = document(&rows);
        assert_eq!(validate(&doc), Vec::<String>::new());
        // The document survives a render → parse round trip, and its rows
        // render as the coverage matrix.
        let text = doc.render_pretty(2);
        let parsed = bprc_sim::json::parse(&text).unwrap();
        assert_eq!(validate(&parsed), Vec::<String>::new());
        assert_eq!(parsed.render_pretty(2), text);
        let matrix = render(parsed.get("checks").unwrap().as_arr().unwrap()).to_string();
        assert!(matrix.contains(" found |"), "{matrix}");
        assert!(!matrix.contains("FAIL"), "{matrix}");

        let forged = |from: &str, to: &str| {
            let edited = text.replacen(from, to, 1);
            assert_ne!(edited, text, "nothing to forge at {from:?}");
            validate(&bprc_sim::json::parse(&edited).unwrap())
        };
        // The first row is a model-checked one: it too must not claim
        // exhaustion over a truncated search.
        assert!(forged("\"ok\": true", "\"ok\": false")[0].contains("mc-consensus"));
        assert!(forged("\"exhausted\": true", "\"exhausted\": false")[0].contains("exhausted"));
        let errs = forged("\"truncated\": 0", "\"truncated\": 1");
        assert!(errs[0].contains("mc-consensus") && errs[0].contains("untruncated"));
        assert!(forged(SCHEMA, "bprc.bench.verify/v1")[0].contains("schema"));
        assert!(forged("bprc-trace-v1", "bprc-trace-v0")[0].contains("trace"));
        assert!(forged("\"clean\"", "\"hopeful\"")[0].contains("unknown expectation"));

        // A violated register-level row ships its counterexample: its
        // detail is its only error until its trace is forged.
        let violated = document(&[crash_publish("regression", 1, Expect::Clean).run()]);
        let text = violated.render_pretty(2);
        assert_eq!(validate(&violated).len(), 1);
        let edited = text.replacen("bprc-trace-v1", "bprc-trace-v0", 1);
        let errs = validate(&bprc_sim::json::parse(&edited).unwrap());
        assert!(
            errs[1].contains("must embed its counterexample"),
            "{errs:?}"
        );

        let mut nan = document(&rows[..1]);
        if let Value::Obj(pairs) = &mut nan {
            pairs.push(("scale".to_string(), Value::Num(f64::NAN)));
        }
        let errs = validate(&nan);
        assert!(errs.iter().any(|e| e.contains("non-finite")), "{errs:?}");
        assert!(validate(&document(&[]))[0].contains("non-empty"));
    }

    /// The n = 3 space's coverage is pinned: two writers and a
    /// double-collect scanner, with every placement of one crash.
    #[test]
    fn n3_writers_scanner_space_is_pinned() {
        let row = writers_scanner("snapshot-n3-writers-scanner-b1", true, 1, Expect::Clean).run();
        assert!(row.ok, "{}", row.detail);
        assert!(row.exhausted);
        assert_eq!(
            (row.schedules, &row.schedules_by_faults[..]),
            (386, &[74, 312][..])
        );
    }

    /// Checked = claimed: the coverage matrix pasted into DESIGN.md § Scope
    /// limits is exactly the one the committed `BENCH_verify.json` renders.
    #[test]
    fn design_scope_limits_table_is_the_committed_matrix() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let read = |file: &str| {
            std::fs::read_to_string(format!("{root}/{file}"))
                .unwrap_or_else(|e| panic!("cannot read {file}: {e}"))
        };
        let doc = bprc_sim::json::parse(&read("BENCH_verify.json")).expect("valid JSON");
        assert_eq!(validate(&doc), Vec::<String>::new());
        let rendered = render(doc.get("checks").and_then(|c| c.as_arr()).unwrap()).to_string();
        let design = read("DESIGN.md");
        let section = design
            .split("\n### Scope limits\n")
            .nth(1)
            .expect("DESIGN.md has a Scope limits section");
        let section = section.split("\n#").next().unwrap();
        fn table(text: &str) -> Vec<&str> {
            text.lines().filter(|l| l.starts_with('|')).collect()
        }
        assert_eq!(
            table(section),
            table(&rendered),
            "re-paste DESIGN.md § Scope limits from the matrix `verify-gate --quick` prints"
        );
    }

    /// Every `bprc-<crate>::<module>` (or `bprc-<crate>::{a, b}`) that
    /// DESIGN.md's experiment index names is a module file of that crate.
    #[test]
    fn design_experiment_index_names_existing_modules() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let design = std::fs::read_to_string(format!("{root}/DESIGN.md")).unwrap();
        let index = design
            .split("\n## Experiment index")
            .nth(1)
            .expect("DESIGN.md has an Experiment index section");
        let index = index.split("\n## ").next().unwrap();
        let mut named = Vec::new();
        for cell in index.lines().filter(|l| l.starts_with('|')) {
            for path in cell.split("bprc-").skip(1) {
                let end = path
                    .find(|c: char| !c.is_ascii_lowercase())
                    .unwrap_or(path.len());
                let (krate, rest) = path.split_at(end);
                let Some(rest) = rest.strip_prefix("::") else {
                    continue;
                };
                let modules = match rest.strip_prefix('{') {
                    Some(list) => list.split('}').next().unwrap(),
                    None => rest.split(['`', ' ']).next().unwrap(),
                };
                for module in modules.split(',').map(str::trim) {
                    if module != "*" {
                        named.push(format!("crates/{krate}/src/{module}.rs"));
                    }
                }
            }
        }
        assert!(named.len() >= 10, "too few module paths parsed: {named:?}");
        for file in named {
            assert!(
                std::path::Path::new(&format!("{root}/{file}")).is_file(),
                "DESIGN.md's experiment index names a missing module: {file}"
            );
        }
    }
}
