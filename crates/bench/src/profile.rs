//! Latency-profile benchmark — percentile ladders from the flight-recorder
//! histograms.
//!
//! Where [`crate::throughput`] reports aggregate rates (ops/sec), this
//! module reports *distributions*: the scan-latency, lazy-scan-latency,
//! and decision-latency histograms the tracing plane records
//! (`Hist::ScanLatencyNs`, `Hist::LazyScanLatencyNs`,
//! `Hist::DecisionLatencyNs`) across the full measurement grid — both
//! snapshot backends (`handshake` / `waitfree`) × n ∈ {2, 4, 8, 16} — on
//! free-running OS threads, where nanosecond stamps measure real hardware
//! behaviour. Each grid cell carries the power-of-two-bucketed histogram
//! plus its p50/p90/p99/max ladder, exactly as [`bprc_sim::Histogram::to_json`]
//! serializes it. The lazy ladder comes from a separate scan-burst
//! workload with view reuse enabled (`SnapshotPort::set_lazy`), so
//! reused-view scans stay distinguishable from full double collects.
//!
//! `bprc-bench profile` writes the document (`BENCH_profile.json`) and a
//! companion Chrome Trace Event file from one representative instrumented
//! consensus run — drop it onto <https://ui.perfetto.dev> to see phase
//! spans, ring events, and faults on one timeline. [`validate`]
//! schema-checks the document (percentile ladders present, ordered, and
//! finite); CI runs generate → validate and also validates the committed
//! artifact.

use bprc_core::threaded::{ThreadedConsensus, WaitFreeConsensus};
use bprc_core::ConsensusParams;
use bprc_registers::DirectArrow;
use bprc_sim::json::{check_finite, Value};
use bprc_sim::rng::derive_seed;
use bprc_sim::sched::RandomStrategy;
use bprc_sim::trace::to_chrome_trace;
use bprc_sim::world::ProcBody;
use bprc_sim::{Hist, Histogram, Mode, World};
use bprc_snapshot::{ScannableMemory, SnapshotBackend, SnapshotPort, WaitFreeSnapshot};

use crate::Scale;

/// Schema identifier written into (and required from) every document.
/// v2 added the `lazy_scan_latency_ns` ladder to every grid cell; v3 has
/// one entry per snapshot backend × size (no per-backing rows).
pub const SCHEMA: &str = "bprc.bench.profile/v3";

/// Process counts profiled (the same grid as the throughput suite).
pub const SIZES: [usize; 4] = [2, 4, 8, 16];

/// The snapshot-backend dimension values.
pub const SNAPSHOT_BACKENDS: [&str; 2] = ["handshake", "waitfree"];

/// Free-thread update+scan workload over backend `B`; returns the merged
/// scan-latency histogram (samples recorded inside `finish_scan`).
fn scan_latency<B: SnapshotBackend<u64>>(n: usize, iters: u64) -> Histogram {
    let mut world = World::builder(n)
        .mode(Mode::Free)
        .step_limit(u64::MAX)
        .record_history(false)
        .build();
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
    let rep = world.run(bodies, Box::new(RandomStrategy::new(7)));
    rep.telemetry.hist_merged(Hist::ScanLatencyNs)
}

/// Free-thread lazy-scan workload over backend `B`: one update each, then
/// a burst of scans with view reuse enabled ([`SnapshotPort::set_lazy`]).
/// Once the globally-last write lands, that writer's remaining probes all
/// succeed, so the burst is guaranteed to fill `Hist::LazyScanLatencyNs`
/// with reused-view samples while the full collects keep landing in
/// `Hist::ScanLatencyNs` as usual. Returns the merged lazy histogram.
fn lazy_scan_latency<B: SnapshotBackend<u64>>(n: usize, iters: u64) -> Histogram {
    let mut world = World::builder(n)
        .mode(Mode::Free)
        .step_limit(u64::MAX)
        .record_history(false)
        .build();
    let mem = B::alloc_fast(&world, n, 0u64);
    let bodies: Vec<ProcBody<u64>> = (0..n)
        .map(|pid| {
            let mut port = mem.port(pid);
            let b: ProcBody<u64> = Box::new(move |ctx| {
                port.set_lazy(true);
                let mut view: Vec<u64> = Vec::new();
                let mut acc = 0u64;
                port.update(ctx, pid as u64 + 1)?;
                for _ in 0..iters {
                    port.scan_into(ctx, &mut view)?;
                    acc = acc.wrapping_add(view.iter().sum::<u64>());
                }
                Ok(acc)
            });
            b
        })
        .collect();
    let rep = world.run(bodies, Box::new(RandomStrategy::new(7)));
    rep.telemetry.hist_merged(Hist::LazyScanLatencyNs)
}

/// Full consensus instances back to back on free threads over snapshot
/// backend `snap`; returns the merged decision-latency histogram (first
/// protocol step to decision, recorded in the probe bridge).
fn decision_latency(snap: &str, n: usize, trials: u64, seed0: u64) -> Histogram {
    let mut merged = Histogram::default();
    for trial in 0..trials {
        let seed = derive_seed(seed0, trial);
        let params = ConsensusParams::quick(n);
        let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let mut world = World::builder(n)
            .seed(seed)
            .record_history(false)
            .mode(Mode::Free)
            .step_limit(u64::MAX)
            .build();
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
        merged.merge(&rep.telemetry.hist_merged(Hist::DecisionLatencyNs));
    }
    merged
}

/// One representative instrumented run for the Chrome-trace companion
/// file: the full consensus stack at n = 4 on the lockstep backend with
/// history recording on, so the export carries phase spans, ring events,
/// and the dual step/nanos stamps.
pub fn chrome_trace_demo(seed: u64) -> Value {
    let n = 4usize;
    let params = ConsensusParams::quick(n);
    let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
    let mut world = World::builder(n).seed(seed).step_limit(2_000_000).build();
    let inst = ThreadedConsensus::<DirectArrow>::new(&world, &params, &inputs, seed);
    let rep = world.run(inst.bodies, Box::new(RandomStrategy::new(seed)));
    to_chrome_trace(&rep.flight, &rep.telemetry, rep.history.as_ref(), n)
}

fn entry(snap: &str, n: usize, scan: &Histogram, lazy: &Histogram, decision: &Histogram) -> Value {
    Value::obj(vec![
        ("name", format!("profile_n{n}_{snap}").into()),
        ("snapshot_backend", snap.into()),
        ("n", n.into()),
        ("scan_latency_ns", scan.to_json()),
        ("lazy_scan_latency_ns", lazy.to_json()),
        ("decision_latency_ns", decision.to_json()),
    ])
}

/// Runs the grid and builds the `BENCH_profile.json` document.
pub fn run(scale: Scale, seed: u64) -> Value {
    let mut entries = Vec::new();
    for &n in &SIZES {
        let (iters, trials) = match scale {
            Scale::Quick => (60, 1),
            Scale::Full => (400, if n >= 8 { 2 } else { 4 }),
        };
        for snap in SNAPSHOT_BACKENDS {
            let scan = match snap {
                "waitfree" => scan_latency::<WaitFreeSnapshot<u64>>(n, iters),
                _ => scan_latency::<ScannableMemory<u64, DirectArrow>>(n, iters),
            };
            let lazy = match snap {
                "waitfree" => lazy_scan_latency::<WaitFreeSnapshot<u64>>(n, iters),
                _ => lazy_scan_latency::<ScannableMemory<u64, DirectArrow>>(n, iters),
            };
            let decision = decision_latency(snap, n, trials, derive_seed(seed, n as u64));
            entries.push(entry(snap, n, &scan, &lazy, &decision));
        }
    }
    Value::obj(vec![
        ("schema", SCHEMA.into()),
        ("scale", scale.name().into()),
        ("seed", seed.into()),
        ("backend", "free_threads".into()),
        ("entries", Value::Arr(entries)),
    ])
}

/// Checks one serialized histogram: sample count positive, the percentile
/// ladder present, ordered (p50 ≤ p90 ≤ p99 ≤ max), and consistent with
/// the bucket list.
fn check_hist(h: Option<&Value>, what: &str, errs: &mut Vec<String>) {
    let Some(h) = h else {
        errs.push(format!("{what}: missing"));
        return;
    };
    let num = |key: &str| h.get(key).and_then(|v| v.as_num());
    for key in ["count", "sum", "mean", "p50", "p90", "p99", "max"] {
        if num(key).is_none() {
            errs.push(format!("{what}.{key}: missing or not a number"));
        }
    }
    if num("count").unwrap_or(0.0) < 1.0 {
        errs.push(format!("{what}: no samples recorded"));
    }
    let ladder = [
        num("p50").unwrap_or(0.0),
        num("p90").unwrap_or(0.0),
        num("p99").unwrap_or(0.0),
        num("max").unwrap_or(0.0),
    ];
    if ladder.windows(2).any(|w| w[0] > w[1]) {
        errs.push(format!(
            "{what}: percentile ladder not monotone: {ladder:?}"
        ));
    }
    match h.get("buckets").and_then(|b| b.as_arr()) {
        None => errs.push(format!("{what}.buckets: missing")),
        Some(buckets) => {
            let total: f64 = buckets
                .iter()
                .filter_map(|b| b.as_arr()?.get(1)?.as_num())
                .sum();
            if total != num("count").unwrap_or(-1.0) {
                errs.push(format!(
                    "{what}.buckets: counts sum to {total}, count says {:?}",
                    num("count")
                ));
            }
        }
    }
}

/// Schema-validates a `BENCH_profile.json` document. Returns the list of
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
    let mut snaps_seen = Vec::new();
    let mut sizes_seen = Vec::new();
    for (i, e) in entries.iter().enumerate() {
        let name = e
            .get("name")
            .and_then(|s| s.as_str())
            .map(str::to_string)
            .unwrap_or_else(|| format!("entries[{i}]"));
        match e.get("snapshot_backend").and_then(|b| b.as_str()) {
            Some(s) => {
                if !snaps_seen.contains(&s.to_string()) {
                    snaps_seen.push(s.to_string());
                }
            }
            None => errs.push(format!("{name}: snapshot_backend missing")),
        }
        match e.get("n").and_then(|v| v.as_num()) {
            Some(n) => {
                if !sizes_seen.contains(&(n as usize)) {
                    sizes_seen.push(n as usize);
                }
            }
            None => errs.push(format!("{name}: n missing or not a number")),
        }
        check_hist(
            e.get("scan_latency_ns"),
            &format!("{name}.scan_latency_ns"),
            &mut errs,
        );
        check_hist(
            e.get("lazy_scan_latency_ns"),
            &format!("{name}.lazy_scan_latency_ns"),
            &mut errs,
        );
        check_hist(
            e.get("decision_latency_ns"),
            &format!("{name}.decision_latency_ns"),
            &mut errs,
        );
    }
    for required in SNAPSHOT_BACKENDS {
        if !snaps_seen.iter().any(|s| s == required) {
            errs.push(format!("entries: no {required} snapshot backend present"));
        }
    }
    for required in SIZES {
        if !sizes_seen.contains(&required) {
            errs.push(format!("entries: no n = {required} entry present"));
        }
    }
    check_finite(doc, "$", &mut errs);
    errs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_real_cells_emit_valid_histograms() {
        // One cell per dimension value, tiny workloads: exercises the real
        // measurement path without paying for the whole grid.
        let scan = scan_latency::<ScannableMemory<u64, DirectArrow>>(2, 5);
        assert!(scan.count() >= 10, "2 procs x 5 scans");
        let scan_wf = scan_latency::<WaitFreeSnapshot<u64>>(2, 5);
        assert!(scan_wf.count() >= 10);
        let lazy = lazy_scan_latency::<ScannableMemory<u64, DirectArrow>>(2, 8);
        assert!(lazy.count() >= 1, "the last writer's burst reuses its view");
        let lazy_wf = lazy_scan_latency::<WaitFreeSnapshot<u64>>(2, 8);
        assert!(lazy_wf.count() >= 1);
        let dec = decision_latency("handshake", 2, 1, 3);
        assert!(dec.count() >= 1, "someone decided");
        let doc = Value::obj(vec![
            ("schema", SCHEMA.into()),
            ("scale", "quick".into()),
            ("seed", 3u64.into()),
            ("backend", "free_threads".into()),
            ("entries", {
                let mut entries = Vec::new();
                for &n in &SIZES {
                    for snap in SNAPSHOT_BACKENDS {
                        entries.push(entry(snap, n, &scan, &lazy, &dec));
                    }
                }
                Value::Arr(entries)
            }),
        ]);
        let errs = validate(&doc);
        assert!(errs.is_empty(), "schema violations: {errs:?}");
        // Round-trips through the renderer and parser.
        let back = bprc_sim::json::parse(&doc.render_pretty(2)).unwrap();
        assert!(validate(&back).is_empty());
    }

    #[test]
    fn validate_rejects_broken_documents() {
        assert!(!validate(&Value::obj(vec![])).is_empty());
        let wrong = Value::obj(vec![("schema", "nope".into())]);
        assert!(validate(&wrong).iter().any(|e| e.starts_with("schema:")));
        // An empty histogram (count 0) must be rejected.
        let hollow = Value::obj(vec![
            ("schema", SCHEMA.into()),
            ("scale", "quick".into()),
            ("seed", 0u64.into()),
            ("backend", "free_threads".into()),
            (
                "entries",
                Value::Arr(vec![entry(
                    "handshake",
                    2,
                    &Histogram::default(),
                    &Histogram::default(),
                    &Histogram::default(),
                )]),
            ),
        ]);
        assert!(validate(&hollow)
            .iter()
            .any(|e| e.contains("no samples recorded")));
    }

    #[test]
    fn chrome_trace_demo_is_loadable_trace_event_json() {
        let v = chrome_trace_demo(11);
        let back = bprc_sim::json::parse(&v.render()).expect("valid JSON");
        let evs = back
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .expect("traceEvents");
        assert!(!evs.is_empty());
        // The consensus stack leaves its signature on the timeline:
        // round/scan phase spans and scan ring events.
        let names: Vec<&str> = evs
            .iter()
            .filter_map(|e| e.get("name").and_then(|s| s.as_str()))
            .collect();
        assert!(names.iter().any(|n| n.starts_with("round(")), "{names:?}");
        assert!(names.contains(&"scan"), "{names:?}");
        assert!(names.contains(&"scan_begin"), "{names:?}");
        let mut errs = Vec::new();
        check_finite(&back, "$", &mut errs);
        assert!(errs.is_empty(), "{errs:?}");
    }
}
