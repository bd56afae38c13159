//! Human-readable rendering of recorded histories.
//!
//! Lockstep runs record a [`History`]; this module renders it as a timeline
//! with one column per process — the format you want in front of you when a
//! property checker reports a violation at step 4711.
//!
//! ```text
//! step  p0                   p1
//! ────  ───────────────────  ───────────────────
//!    0  W V_0 #1
//!       ⟨snap:upd:start 1⟩
//!    1                       R V_0
//! ```
//!
//! [`render`] shows every recorded event (register granularity).
//! [`render_unified`] is the zoomed-out view: protocol **spans**
//! (`round(r)`/`scan`/`write`/`coin`) merged with **fault and crash
//! events** into one timeline — what the chaos example prints to explain a
//! run. [`to_chrome_trace`] exports the same spans — plus every ring event
//! as an instant — as Chrome Trace Event JSON, loadable in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`. Both read the flight
//! recorder's rings alone: each crash and injected fault is one
//! [`EventKind::Fault`] ring event, so it shows exactly once, and a ring
//! that wrapped may have lost old ones (both renderings say how many
//! events each ring overwrote).
//!
//! A span opens at a ring event that starts a protocol step — the first
//! `scan_begin` of a scan (arg 1), `update`, `round_advance`, `coin_flip`
//! — and runs to the same ring's next such event. Under free threads an
//! `update` that follows a scan carries the scan's closing clock reading
//! ([`Ctx::stamp`](crate::world::Ctx::stamp)), so a `scan` span ends at
//! the scan's close and the compute between the scan and the update falls
//! into the `write` span.

use std::fmt::Write as _;

use crate::history::{Event, History, OpKind};
use crate::json::Value;
use crate::tracing::{fault_label, EventKind, FlightLog, TraceEvent};

/// Options for [`render`].
#[derive(Debug, Clone)]
pub struct TraceOptions {
    /// Register names (indexed by register id); missing ids print as `r<id>`.
    pub reg_names: Vec<String>,
    /// Only render steps in this range (inclusive start, exclusive end).
    pub steps: Option<(u64, u64)>,
    /// Include annotation (note) lines.
    pub notes: bool,
    /// Column width per process.
    pub width: usize,
}

impl Default for TraceOptions {
    fn default() -> Self {
        TraceOptions {
            reg_names: Vec::new(),
            steps: None,
            notes: true,
            width: 22,
        }
    }
}

impl TraceOptions {
    fn reg(&self, id: usize) -> String {
        self.reg_names
            .get(id)
            .cloned()
            .unwrap_or_else(|| format!("r{id}"))
    }
}

/// Renders a history as a per-process timeline.
pub fn render(history: &History, n: usize, opts: &TraceOptions) -> String {
    let mut out = String::new();
    let w = opts.width;
    push_header(&mut out, n, w);

    for ev in history.events() {
        let step = ev.step();
        if let Some((lo, hi)) = opts.steps {
            if step < lo || step >= hi {
                continue;
            }
        }
        let (pid, cell, show_step) = match ev {
            Event::Op {
                pid,
                kind,
                reg,
                tag,
                ..
            } => {
                if *kind == OpKind::Fence {
                    // Fences target the FENCE_REG sentinel, not a real
                    // register — never index it into the name table.
                    (*pid, "F fence".to_string(), true)
                } else {
                    let k = match kind {
                        OpKind::Read => "R",
                        OpKind::Write => "W",
                        OpKind::Swap => "X",
                        OpKind::Fence => unreachable!(),
                    };
                    let t = if *tag != 0 {
                        format!(" #{tag}")
                    } else {
                        String::new()
                    };
                    (*pid, format!("{k} {}{t}", opts.reg(*reg)), true)
                }
            }
            Event::Note { pid, note, .. } => {
                if !opts.notes {
                    continue;
                }
                let data = note
                    .data
                    .iter()
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
                    .join(",");
                let text = if data.is_empty() {
                    format!("⟨{}⟩", note.label)
                } else {
                    format!("⟨{} {}⟩", note.label, data)
                };
                (*pid, text, false)
            }
            Event::Crash { pid, .. } => (*pid, "☠ CRASHED".to_string(), true),
            Event::Fault { pid, kind, .. } => (*pid, format!("⚡ {kind}"), true),
            Event::Flush { pid, reg, .. } => (*pid, format!("⇣ {}", opts.reg(*reg)), true),
        };
        push_row(&mut out, step, show_step, pid, &cell, n, w);
    }
    out
}

/// Writes the column header shared by [`render`] and [`render_unified`].
fn push_header(out: &mut String, n: usize, w: usize) {
    let _ = write!(out, "{:>6}  ", "step");
    for p in 0..n {
        let _ = write!(out, "{:<w$}", format!("p{p}"), w = w);
    }
    out.push('\n');
    let _ = write!(out, "{:─>6}  ", "");
    for _ in 0..n {
        let _ = write!(out, "{:─<w$}", "", w = w);
    }
    out.push('\n');
}

/// Writes one timeline row: `cell` in process `pid`'s column.
fn push_row(
    out: &mut String,
    step: u64,
    show_step: bool,
    pid: usize,
    cell: &str,
    n: usize,
    w: usize,
) {
    if show_step {
        let _ = write!(out, "{step:>6}  ");
    } else {
        let _ = write!(out, "{:>6}  ", "");
    }
    for p in 0..n {
        if p == pid {
            let mut c = cell.to_string();
            if c.chars().count() > w.saturating_sub(1) {
                c = c.chars().take(w.saturating_sub(2)).collect::<String>() + "…";
            }
            let _ = write!(out, "{c:<w$}");
        } else {
            let _ = write!(out, "{:<w$}", "", w = w);
        }
    }
    while out.ends_with(' ') {
        out.pop();
    }
    out.push('\n');
}

/// The label of the protocol span `e` opens, or `None` if it opens none
/// (see the module docs).
fn span_label(e: &TraceEvent) -> Option<String> {
    match e.kind {
        EventKind::ScanBegin if e.arg == 1 => Some("scan".to_string()),
        EventKind::Update => Some("write".to_string()),
        EventKind::RoundAdvance => Some(format!("round({})", e.arg)),
        EventKind::CoinFlip => Some("coin".to_string()),
        _ => None,
    }
}

/// Renders the unified protocol-level timeline: the spans each ring opens,
/// merged with the rings' fault and crash events, one column per process,
/// sorted by world step. One `pN: K earlier events overwritten` line
/// precedes the table for each ring that wrapped, since its oldest spans
/// and faults are missing from it.
///
/// [`TraceOptions::steps`] windows the table; [`TraceOptions::notes`] is
/// ignored (notes stay in [`render`]).
pub fn render_unified(flight: &FlightLog, n: usize, opts: &TraceOptions) -> String {
    // (step, rank, pid, cell): a stable sort on (step, rank, pid) puts
    // same-step fault/crash events before the span a process entered
    // afterwards, and keeps each ring's own order.
    let mut rows: Vec<(u64, u8, usize, String)> = Vec::new();
    for pid in 0..n {
        for e in flight.events(pid) {
            let (rank, cell) = match (e.kind, span_label(e)) {
                (EventKind::Fault, _) if e.arg == 0 => (0, "☠ CRASHED".to_string()),
                (EventKind::Fault, _) => (0, format!("⚡ {}", fault_label(e.arg))),
                (_, Some(label)) => (1, format!("▶ {label}")),
                (_, None) => continue,
            };
            rows.push((e.step, rank, pid, cell));
        }
    }
    rows.sort_by_key(|&(step, rank, pid, _)| (step, rank, pid));

    let w = opts.width;
    let mut out = String::new();
    for pid in 0..n {
        let lost = flight.overflow(pid);
        if lost > 0 {
            let _ = writeln!(out, "p{pid}: {lost} earlier events overwritten");
        }
    }
    push_header(&mut out, n, w);
    for (step, _, pid, cell) in rows {
        if let Some((lo, hi)) = opts.steps {
            if step < lo || step >= hi {
                continue;
            }
        }
        push_row(&mut out, step, true, pid, &cell, n, w);
    }
    out
}

/// Converts nanoseconds to the microsecond `ts` scale Chrome traces use.
fn micros(nanos: u64) -> f64 {
    nanos as f64 / 1_000.0
}

/// One Trace Event object. `extra` carries the per-phase fields
/// (`"dur"` for complete events, `"s"` for instant scope).
fn trace_ev(
    name: &str,
    ph: &str,
    ts_us: f64,
    tid: usize,
    args: Value,
    extra: Vec<(&str, Value)>,
) -> Value {
    let mut fields: Vec<(&str, Value)> = vec![
        ("name", name.into()),
        ("ph", ph.into()),
        ("ts", ts_us.into()),
        ("pid", 0u64.into()),
        ("tid", tid.into()),
    ];
    fields.extend(extra);
    fields.push(("args", args));
    Value::obj(fields)
}

/// Exports a run's flight log as **Chrome Trace Event JSON**: one
/// browser-process (`pid` 0) with one thread lane per simulated process,
/// loadable in Perfetto or `chrome://tracing`, on the rings'
/// monotonic-nanosecond timeline (rendered in microseconds, the Trace Event
/// `ts` unit):
///
/// * Every ring event becomes an `"i"` (instant) event, with the world step
///   and the event arg in `args`; fault and crash events are renamed by
///   [`fault_label`].
/// * The events that open a protocol span (see the module docs) also
///   become `"X"` (complete) events, each running until the same ring's
///   next span opens, the last until the latest stamp anywhere in the run.
/// * Each lane's `thread_name` metadata carries the ring's `overflow`: the
///   count of its oldest events, faults among them, that the ring
///   overwrote.
///
/// `flight` may be empty (tracing disabled); the export is then the
/// metadata alone.
pub fn to_chrome_trace(flight: &FlightLog, n: usize) -> Value {
    let mut events: Vec<Value> = Vec::new();

    // Metadata: name the synthetic process and one thread lane per pid.
    events.push(trace_ev(
        "process_name",
        "M",
        0.0,
        0,
        Value::obj(vec![("name", "bprc".into())]),
        vec![],
    ));
    for pid in 0..n {
        events.push(trace_ev(
            "thread_name",
            "M",
            0.0,
            pid,
            Value::obj(vec![
                ("name", format!("p{pid}").into()),
                ("overflow", flight.overflow(pid).into()),
            ]),
            vec![],
        ));
    }

    // The run's end stamp closes each lane's last open span.
    let end_nanos = (0..n)
        .flat_map(|pid| flight.events(pid))
        .map(|e| e.nanos)
        .max()
        .unwrap_or(0);

    // Spans, per lane: each closes at the next span's opening stamp.
    for pid in 0..n {
        let spans: Vec<(String, &TraceEvent)> = flight
            .events(pid)
            .iter()
            .filter_map(|e| span_label(e).map(|label| (label, e)))
            .collect();
        for (i, (label, e)) in spans.iter().enumerate() {
            let close = spans
                .get(i + 1)
                .map(|(_, next)| next.nanos)
                .unwrap_or(end_nanos)
                .max(e.nanos);
            events.push(trace_ev(
                label,
                "X",
                micros(e.nanos),
                pid,
                Value::obj(vec![("step", e.step.into())]),
                vec![("dur", micros(close - e.nanos).into())],
            ));
        }
    }

    // Ring events: instants, faults decoded to their label.
    for pid in 0..n {
        for e in flight.events(pid) {
            let name = match e.kind {
                EventKind::Fault => fault_label(e.arg).to_string(),
                k => k.to_string(),
            };
            events.push(trace_ev(
                &name,
                "i",
                micros(e.nanos),
                pid,
                Value::obj(vec![("step", e.step.into()), ("arg", e.arg.into())]),
                vec![("s", "t".into())],
            ));
        }
    }

    Value::obj(vec![
        ("traceEvents", Value::Arr(events)),
        ("displayTimeUnit", "ns".into()),
    ])
}

/// One-line statistics summary of a history.
pub fn summary(history: &History, n: usize) -> String {
    let mut reads = 0u64;
    let mut writes = 0u64;
    let mut per_proc = vec![0u64; n];
    let mut crashes = 0u64;
    let mut faults = 0u64;
    for ev in history.events() {
        match ev {
            Event::Op { pid, kind, .. } => {
                match kind {
                    OpKind::Read => reads += 1,
                    OpKind::Write => writes += 1,
                    // A swap is one gate that both reads and writes.
                    OpKind::Swap => {
                        reads += 1;
                        writes += 1;
                    }
                    OpKind::Fence => {}
                }
                if *pid < n {
                    per_proc[*pid] += 1;
                }
            }
            Event::Crash { .. } => crashes += 1,
            Event::Fault { .. } => faults += 1,
            Event::Note { .. } | Event::Flush { .. } => {}
        }
    }
    format!(
        "{} reads, {} writes, {} crashes, {} faults; ops per process: {:?}",
        reads, writes, crashes, faults, per_proc
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::RoundRobin;
    use crate::world::{ProcBody, World};

    fn sample_history() -> (History, usize) {
        let mut w = World::builder(2).build();
        let r = w.reg("flag", 0u8);
        let r0 = r.clone();
        let r1 = r.clone();
        let bodies: Vec<ProcBody<u8>> = vec![
            Box::new(move |ctx| {
                ctx.annotate("phase", vec![1]);
                r0.write_tagged(ctx, 1, 7)?;
                Ok(0)
            }),
            Box::new(move |ctx| r1.read(ctx)),
        ];
        let rep = w.run(bodies, Box::new(RoundRobin::new()));
        (rep.history.unwrap(), 2)
    }

    #[test]
    fn render_produces_columns_and_ops() {
        let (h, n) = sample_history();
        let opts = TraceOptions {
            reg_names: vec!["flag".into()],
            ..Default::default()
        };
        let text = render(&h, n, &opts);
        assert!(text.contains("p0"));
        assert!(text.contains("p1"));
        assert!(text.contains("W flag #7"));
        assert!(text.contains("R flag"));
        assert!(text.contains("⟨phase 1⟩"));
    }

    #[test]
    fn render_respects_step_range_and_note_filter() {
        let (h, n) = sample_history();
        let opts = TraceOptions {
            steps: Some((0, 1)),
            notes: false,
            ..Default::default()
        };
        let text = render(&h, n, &opts);
        assert!(text.contains("W r0"));
        assert!(!text.contains("R r0"), "step 1 excluded:\n{text}");
        assert!(!text.contains("⟨"));
    }

    #[test]
    fn summary_counts() {
        let (h, n) = sample_history();
        let s = summary(&h, n);
        assert!(s.contains("1 reads, 1 writes, 0 crashes"), "{s}");
    }

    #[test]
    fn unified_timeline_merges_ring_spans_and_faults() {
        use crate::history::FaultKind;
        use crate::tracing::{fault_arg, FlightRecorder};
        let rec = FlightRecorder::new(2, 8);
        rec.record(0, 2, EventKind::RoundAdvance, 1);
        rec.record(0, 3, EventKind::ScanBegin, 1);
        // A retry and the events inside a scan open no span.
        rec.record(0, 4, EventKind::CollectPass, 3);
        rec.record(0, 4, EventKind::ScanBegin, 2);
        rec.record(1, 5, EventKind::Fault, fault_arg(FaultKind::StallStart));
        rec.record(1, 6, EventKind::Update, 1);
        rec.record(1, 7, EventKind::CoinFlip, 1);
        rec.record(0, 9, EventKind::Fault, 0);
        let text = render_unified(&rec.snapshot(), 2, &TraceOptions::default());
        assert!(text.contains("▶ round(1)"), "{text}");
        assert_eq!(text.matches("▶ scan").count(), 1, "{text}");
        assert!(text.contains("▶ write"));
        assert!(text.contains("▶ coin"));
        assert_eq!(text.matches("⚡ stall:start").count(), 1, "{text}");
        assert_eq!(text.matches("☠ CRASHED").count(), 1, "{text}");
        assert!(!text.contains("overwritten"), "no ring wrapped:\n{text}");
        // Step order: round(1)@2 before stall@5 before coin@7 before crash@9.
        let round_at = text.find("round(1)").unwrap();
        let stall_at = text.find("stall:start").unwrap();
        let coin_at = text.find("coin").unwrap();
        let crash_at = text.find("CRASHED").unwrap();
        assert!(round_at < stall_at && stall_at < coin_at && coin_at < crash_at);
    }

    #[test]
    fn unified_timeline_reports_overwritten_events() {
        use crate::tracing::FlightRecorder;
        let rec = FlightRecorder::new(2, 4);
        rec.record(0, 1, EventKind::RoundAdvance, 1);
        rec.record(0, 2, EventKind::ScanBegin, 1);
        rec.record(0, 3, EventKind::RegWrite, 0);
        rec.record(0, 4, EventKind::ScanEnd, 1);
        rec.record(0, 5, EventKind::Update, 1);
        rec.record(0, 6, EventKind::RegWrite, 0);
        rec.record(1, 2, EventKind::Update, 1);
        let text = render_unified(&rec.snapshot(), 2, &TraceOptions::default());
        assert!(
            text.starts_with("p0: 2 earlier events overwritten\n"),
            "{text}"
        );
        assert_eq!(text.matches("overwritten").count(), 1, "p1 lost nothing");
        assert!(!text.contains("round(1)"), "overwritten:\n{text}");
        assert!(!text.contains("▶ scan"), "overwritten:\n{text}");
        assert_eq!(text.matches("▶ write").count(), 2, "{text}");
    }

    #[test]
    fn chrome_trace_has_the_trace_event_shape() {
        use crate::tracing::FlightRecorder;

        let rec = FlightRecorder::new(2, 8);
        rec.record(0, 2, EventKind::RoundAdvance, 1);
        rec.record(0, 4, EventKind::ScanBegin, 1);
        rec.record(0, 5, EventKind::RegWrite, 0);
        rec.record(1, 3, EventKind::CoinFlip, 1);
        rec.record(1, 6, EventKind::Fault, 1);
        rec.record(1, 9, EventKind::Fault, 0);

        let v = to_chrome_trace(&rec.snapshot(), 2);
        // Round-trip through the hand-rolled renderer/parser: the export
        // must be valid JSON, not just a valid Value.
        let parsed = crate::json::parse(&v.render()).expect("valid JSON");
        assert_eq!(
            parsed.get("displayTimeUnit").and_then(|u| u.as_str()),
            Some("ns")
        );
        let evs = parsed
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .expect("traceEvents array");
        assert!(!evs.is_empty());
        let mut spans = Vec::new();
        let mut instants = 0;
        for e in evs {
            let ph = e.get("ph").and_then(|p| p.as_str()).expect("ph");
            let name = e.get("name").and_then(|x| x.as_str()).expect("name");
            assert!(e.get("ts").and_then(|x| x.as_num()).is_some());
            assert!(e.get("pid").is_some() && e.get("tid").is_some());
            match ph {
                "X" => {
                    spans.push(name);
                    assert!(e.get("dur").and_then(|d| d.as_num()).is_some());
                }
                "i" => {
                    instants += 1;
                    assert!(e.get("args").and_then(|a| a.get("step")).is_some());
                }
                "M" => {
                    let args = e.get("args").expect("args");
                    if name == "thread_name" {
                        assert_eq!(args.get("overflow").and_then(|o| o.as_num()), Some(0.0));
                    }
                }
                other => panic!("unexpected phase type {other}"),
            }
        }
        assert_eq!(spans, ["round(1)", "scan", "coin"], "one per opening event");
        assert_eq!(instants, 6, "one per ring event");
        // The fault and crash ring events were decoded to their labels.
        let names: Vec<&str> = evs
            .iter()
            .filter_map(|e| e.get("name").and_then(|x| x.as_str()))
            .collect();
        assert!(names.contains(&"stall:start"), "{names:?}");
        assert!(names.contains(&"crash"));
        assert!(names.contains(&"scan_begin"));
    }

    #[test]
    fn unified_timeline_windows_steps() {
        use crate::tracing::FlightRecorder;
        let rec = FlightRecorder::new(1, 8);
        rec.record(0, 1, EventKind::ScanBegin, 1);
        rec.record(0, 8, EventKind::CoinFlip, 1);
        let opts = TraceOptions {
            steps: Some((0, 5)),
            ..Default::default()
        };
        let text = render_unified(&rec.snapshot(), 1, &opts);
        assert!(text.contains("▶ scan"), "{text}");
        assert!(!text.contains("▶ coin"), "step 8 windowed out:\n{text}");
    }

    #[test]
    fn long_cells_are_truncated() {
        use crate::history::{Annotation, Event};
        let h = History::from_events(vec![Event::Note {
            step: 0,
            pid: 0,
            note: Annotation::new("averyveryverylonglabelthatwontfit", vec![1, 2, 3]),
        }]);
        let text = render(&h, 1, &TraceOptions::default());
        assert!(text.contains('…'));
    }
}
