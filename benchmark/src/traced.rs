//! The traced run: the per-layer metrics.
//!
//! Separate from the timed run, so that the end-to-end numbers never carry
//! the instruments' cost. It measures that cost itself: the same best-of-R
//! passes run first without and then with the harness wrappers, and
//! `trace.overhead_ratio` is the ratio of the two throughputs.
//!
//! Each metric has one of three sources: (T) the program's own exact
//! telemetry counts, (S) spans recorded by the wrappers at public trait
//! boundaries, (L) the ladder of isolated loops over one public function.
//! A metric of a layer the workload never enters reads 0.

use std::io::BufWriter;
use std::path::PathBuf;
use std::time::Duration;

use bprc_sim::Counter;

use crate::ladder::{self, Ladder};
use crate::measure::{percentile_index, PassRecord};
use crate::report::{Metric, Outcome};
use crate::spans::{self, Span, Totals};
use crate::timed;
use crate::workloads::log_free::{LogFree, SLOTS};
use crate::workloads::scan_free::ScanFree;
use crate::workloads::{Spec, Workload};
use crate::Args;

/// Every per-layer metric the traced run prints, with its unit, in the
/// order of `BENCHMARK.json`.
pub const METRICS: [(&str, &str); 51] = [
    ("sim.world.build_us", "us"),
    ("sim.world.run_overhead_us", "us"),
    ("sim.world.lockstep_step_us", "us"),
    ("sim.reg.read_ns", "ns"),
    ("sim.reg.write_ns", "ns"),
    ("sim.reg.read_ns.locked", "ns"),
    ("sim.reg.write_ns.locked", "ns"),
    ("sim.reg.reads_per_op", "count"),
    ("sim.reg.writes_per_op", "count"),
    ("sim.turn.driver_self_us_per_op", "us"),
    ("sim.turn.events_per_op", "count"),
    ("sim.explore.self_us_per_schedule", "us"),
    ("sim.explore.run_us_per_schedule", "us"),
    ("sim.explore.schedules", "count"),
    ("sim.explore.pruned", "count"),
    ("sim.explore.prune_ratio", "ratio"),
    ("sim.explore.max_depth", "count"),
    ("registers.arrow_raise_ns", "ns"),
    ("registers.arrow_lower_ns", "ns"),
    ("registers.arrow_check_ns", "ns"),
    ("registers.arrow_ops_per_scan", "count"),
    ("snapshot.scan_us_p50", "us"),
    ("snapshot.update_us_p50", "us"),
    ("snapshot.collect_reads_per_scan", "count"),
    ("snapshot.attempts_per_scan", "ratio"),
    ("snapshot.check_us_per_schedule", "us"),
    ("snapshot.scan_us_p50.live2", "us"),
    ("snapshot.attempts_per_scan.live2", "ratio"),
    ("coin.walk_step_ns", "ns"),
    ("coin.coin_value_ns", "ns"),
    ("coin.flips_per_op", "count"),
    ("coin.walk_extremes_per_op", "count"),
    ("strip.next_row_ns", "ns"),
    ("strip.make_graph_ns", "ns"),
    ("strip.closure_ns", "ns"),
    ("strip.incs_per_op", "count"),
    ("strip.wraps_per_op", "count"),
    ("core.on_scan_us_p50", "us"),
    ("core.on_scan_us_p90", "us"),
    ("core.on_scan_share", "ratio"),
    ("core.rounds_per_op", "count"),
    ("core.demotions_per_op", "count"),
    ("core.scans_per_op", "count"),
    ("core.append_us_slot0", "us"),
    ("core.append_us_slot15", "us"),
    ("core.append_us_p50.live2", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("noise.medpass_over_best", "ratio"),
    ("ladder.reconcile_ratio", "ratio"),
    ("ladder.modelled_us_per_op", "us"),
    ("ladder.measured_us_per_op", "us"),
];

/// `a / b`, or 0 when the layer `b` counts was never entered.
fn per(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Median in µs of `ns` (0 when empty).
fn median_us(mut ns: Vec<u64>) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    ns.sort_unstable();
    ns[percentile_index(ns.len(), 50)] as f64 * 1e-3
}

/// Where the span file of `workload` goes: `benchmark/out/`.
fn span_path(workload: &str) -> PathBuf {
    let dir = crate::repo_root().join("benchmark").join("out");
    dir.join(format!("trace-{workload}.json"))
}

fn write_spans(batch: &[Span], workload: &str) -> std::io::Result<PathBuf> {
    use std::io::Write;
    let path = span_path(workload);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(&path)?);
    spans::write_json(batch, workload, &mut out)?;
    out.flush()?;
    Ok(path)
}

/// The ungated contended twins: one traced pass of the workload's two-live
/// variant, on the same pinned CPU. Best-of-R would be invalid here — it
/// would select the moments the other thread was absent — so these are plain
/// medians of one pass. Returns (scan p50 µs, attempts per scan, append p50
/// µs), all 0 for a workload without a twin or a twin that failed.
fn contended_twin(spec: &Spec, seed: u64) -> (f64, f64, f64) {
    let mut twin: Box<dyn Workload> = match spec.name {
        "scan-free-n32-live1" => Box::new(ScanFree::new(seed, 2)),
        "log-free-n2-live1" => Box::new(LogFree::new(seed, 2)),
        _ => return (0.0, 0.0, 0.0),
    };
    let mut rec = twin.record();
    twin.pass(&mut rec, true);
    let mut totals = Totals::default();
    spans::drain(|batch| totals.absorb(batch));
    if rec.failed > 0 {
        return (0.0, 0.0, 0.0);
    }
    let scans = rec.counts.get(Counter::Scans) as f64;
    let attempts = rec.counts.get(Counter::ScanAttempts) as f64;
    (
        totals.get("snapshot.scan").percentile_us(50),
        per(attempts, scans),
        totals.get("core.append").percentile_us(50),
    )
}

/// Σ unit cost × count for one pass, in ns: what the ladder predicts the
/// pass's ops cost if they were nothing but the counted calls. The strip and
/// coin units are measured at n = 8.
fn modelled_ns(
    ladder: &Ladder,
    reference: &PassRecord,
    on_scans_per_pass: f64,
    locked: bool,
) -> f64 {
    let c = |counter| reference.counts.get(counter) as f64;
    let (raises, lowers, checks) = (
        c(Counter::ArrowRaises),
        c(Counter::ArrowLowers),
        c(Counter::ArrowChecks),
    );
    let (read, write) = if locked {
        (ladder.reg_read_locked, ladder.reg_write_locked)
    } else {
        (ladder.reg_read, ladder.reg_write)
    };
    (c(Counter::RegReads) - checks) * read
        + (c(Counter::RegWrites) - raises - lowers) * write
        + raises * ladder.arrow_raise
        + lowers * ladder.arrow_lower
        + checks * ladder.arrow_check
        + c(Counter::CoinFlips) * ladder.walk_step
        + (c(Counter::CoinFlips) + c(Counter::CoinAdoptions)) * ladder.coin_value
        + on_scans_per_pass * ladder.make_graph
        + c(Counter::RoundAdvances) * ladder.next_row
}

/// Runs the untraced passes, the traced passes, the ladder and the
/// contended twin, and reports every per-layer metric.
pub fn run(spec: &Spec, w: &mut dyn Workload, args: &Args, planned: usize) -> Outcome {
    // A third of the timed run's passes each way leaves room for the ladder,
    // the twin and writing the span file within the same `--seconds`.
    let share = (planned / 3).max(2);
    let deadline = Duration::from_secs(args.seconds) / 3;
    let plain = timed::passes(w, share, false, deadline, |_| {});

    // Spans of one pass: the wrappers' own, bounded by the scans and updates
    // the reference pass counted, plus a few per item and per build.
    let reference = &plain.reference;
    let per_pass = (reference.counts.get(Counter::Scans) + reference.counts.get(Counter::Updates))
        as usize
        + 4 * (reference.run_ns.len() + reference.build_ns.len())
        + 16;
    spans::reserve(per_pass);
    let mut totals = Totals::default();
    let (mut slot0, mut slot15) = (Vec::new(), Vec::new());
    let mut span_file = None;
    let traced = timed::passes(w, share, true, deadline, |kept| {
        spans::drain(|batch| {
            if !kept {
                return;
            }
            if span_file.is_none() {
                span_file = Some(write_spans(batch, spec.name));
            }
            for s in batch.iter().filter(|s| s.name == "core.append") {
                match s.item as usize % SLOTS {
                    0 => slot0.push(s.dur_ns()),
                    slot if slot == SLOTS - 1 => slot15.push(s.dur_ns()),
                    _ => {}
                }
            }
            totals.absorb(batch);
        });
    });

    let mut outcome = Outcome {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        notes: Vec::new(),
        metrics: Vec::new(),
    };
    match &span_file {
        Some(Ok(path)) => outcome
            .notes
            .push(format!("spans of one pass: {}", path.display())),
        Some(Err(e)) => {
            outcome.notes.push(format!("span file not written: {e}"));
            outcome.failed += 1;
        }
        None => {}
    }
    if plain.is_empty() || traced.is_empty() {
        return outcome;
    }

    let ladder = ladder::measure();
    let (scan_live2, attempts_live2, append_live2) = contended_twin(spec, args.seed);

    let ops = w.ops() as f64;
    let passes = traced.best.passes() as f64;
    let traced_ops = ops * passes;
    let c = |counter| reference.counts.get(counter) as f64;
    let t = |name| totals.get(name);
    let ns_us = 1e-3;

    let scans = c(Counter::Scans);
    let schedules = c(Counter::SchedulesExplored);
    let pruned = c(Counter::SchedulesPruned);
    let checks = t("snapshot.check").count as f64;
    let on_scans = t("core.on_scan").count as f64;
    let explorer_ns = (t("sim.explore.run").total_ns + t("sim.explore.self").total_ns) as f64;
    let in_op_ns = (t("sim.turn.run").total_ns + t("sim.world.body").total_ns) as f64;
    let locked = spec.name == "log-free-n2-live1";
    let modelled_us = modelled_ns(&ladder, reference, on_scans / passes, locked) * ns_us / ops;
    let measured_us = plain.best.run_s() * 1e6 / ops;

    let values = [
        ("sim.world.build_us", t("sim.world.build").mean_us()),
        (
            "sim.world.run_overhead_us",
            per(
                (t("sim.world.run").total_ns as f64 - t("sim.world.body").total_ns as f64) * ns_us,
                t("sim.world.run").count as f64,
            ),
        ),
        (
            "sim.world.lockstep_step_us",
            per(explorer_ns * ns_us, reference.steps as f64 * passes),
        ),
        ("sim.reg.read_ns", ladder.reg_read),
        ("sim.reg.write_ns", ladder.reg_write),
        ("sim.reg.read_ns.locked", ladder.reg_read_locked),
        ("sim.reg.write_ns.locked", ladder.reg_write_locked),
        ("sim.reg.reads_per_op", c(Counter::RegReads) / ops),
        ("sim.reg.writes_per_op", c(Counter::RegWrites) / ops),
        (
            "sim.turn.driver_self_us_per_op",
            t("sim.turn.run").self_ns as f64 * ns_us / traced_ops,
        ),
        (
            "sim.turn.events_per_op",
            if t("sim.turn.run").count > 0 {
                reference.steps as f64 / ops
            } else {
                0.0
            },
        ),
        (
            "sim.explore.self_us_per_schedule",
            per(t("sim.explore.self").total_ns as f64 * ns_us, checks),
        ),
        (
            "sim.explore.run_us_per_schedule",
            per(t("sim.explore.run").total_ns as f64 * ns_us, checks),
        ),
        ("sim.explore.schedules", schedules),
        ("sim.explore.pruned", pruned),
        ("sim.explore.prune_ratio", per(pruned, schedules + pruned)),
        ("sim.explore.max_depth", reference.max_depth as f64),
        ("registers.arrow_raise_ns", ladder.arrow_raise),
        ("registers.arrow_lower_ns", ladder.arrow_lower),
        ("registers.arrow_check_ns", ladder.arrow_check),
        (
            "registers.arrow_ops_per_scan",
            per(c(Counter::ArrowLowers) + c(Counter::ArrowChecks), scans),
        ),
        ("snapshot.scan_us_p50", t("snapshot.scan").percentile_us(50)),
        (
            "snapshot.update_us_p50",
            t("snapshot.update").percentile_us(50),
        ),
        (
            "snapshot.collect_reads_per_scan",
            per(c(Counter::CollectReads), scans),
        ),
        (
            "snapshot.attempts_per_scan",
            per(c(Counter::ScanAttempts), scans),
        ),
        (
            "snapshot.check_us_per_schedule",
            t("snapshot.check").mean_us(),
        ),
        ("snapshot.scan_us_p50.live2", scan_live2),
        ("snapshot.attempts_per_scan.live2", attempts_live2),
        ("coin.walk_step_ns", ladder.walk_step),
        ("coin.coin_value_ns", ladder.coin_value),
        ("coin.flips_per_op", c(Counter::CoinFlips) / ops),
        ("coin.walk_extremes_per_op", c(Counter::WalkExtremes) / ops),
        ("strip.next_row_ns", ladder.next_row),
        ("strip.make_graph_ns", ladder.make_graph),
        ("strip.closure_ns", ladder.closure),
        ("strip.incs_per_op", c(Counter::StripIncs) / ops),
        ("strip.wraps_per_op", c(Counter::StripWraps) / ops),
        ("core.on_scan_us_p50", t("core.on_scan").percentile_us(50)),
        ("core.on_scan_us_p90", t("core.on_scan").percentile_us(90)),
        (
            "core.on_scan_share",
            per(t("core.on_scan").total_ns as f64, in_op_ns),
        ),
        ("core.rounds_per_op", c(Counter::RoundAdvances) / ops),
        ("core.demotions_per_op", c(Counter::Demotions) / ops),
        ("core.scans_per_op", on_scans / traced_ops),
        ("core.append_us_slot0", median_us(slot0)),
        ("core.append_us_slot15", median_us(slot15)),
        ("core.append_us_p50.live2", append_live2),
        (
            "trace.overhead_ratio",
            plain.best.run_s() / traced.best.run_s(),
        ),
        ("noise.medpass_over_best", plain.best.medpass_over_best()),
        ("ladder.reconcile_ratio", per(modelled_us, measured_us)),
        ("ladder.modelled_us_per_op", modelled_us),
        ("ladder.measured_us_per_op", measured_us),
    ];
    outcome.metrics = METRICS
        .iter()
        .map(|&(name, unit)| {
            let (_, value) = values
                .iter()
                .find(|(n, _)| *n == name)
                .expect("every declared metric is computed above");
            Metric {
                name,
                value: *value,
                unit,
            }
        })
        .collect();
    outcome.notes.push(format!(
        "untraced passes {} in {:.2} s, traced passes {} in {:.2} s, of {share} each",
        plain.best.passes(),
        plain.elapsed_s,
        traced.best.passes(),
        traced.elapsed_s,
    ));
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_reads_zero_for_an_absent_layer() {
        assert_eq!(per(3.0, 0.0), 0.0);
        assert_eq!(per(3.0, 2.0), 1.5);
        assert_eq!(median_us(vec![]), 0.0);
        assert_eq!(median_us(vec![3_000, 1_000, 2_000]), 2.0);
    }

    #[test]
    fn metric_names_fit_the_contract() {
        for (i, (name, unit)) in METRICS.iter().enumerate() {
            assert!(name.len() <= 64 && unit.len() <= 16, "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(METRICS[..i].iter().all(|(n, _)| n != name), "{name} twice");
        }
    }
}
