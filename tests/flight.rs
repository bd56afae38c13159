//! Flight-recorder plane, end to end: the ring buffer captures real
//! protocol events on real runs, free-mode events carry the clock reading
//! of their enclosing operation, the Chrome trace export is loadable Trace
//! Event JSON, leaving the recorder on does not distort the books the
//! telemetry==history parity tests depend on, and a ring a dropped world
//! handed back to the pool shows the next world only that world's events.

use std::time::Instant;

use bprc::core::bounded::ConsensusParams;
use bprc::core::threaded::ThreadedConsensus;
use bprc::registers::DirectArrow;
use bprc::sim::faults::{FaultPlan, FaultedStrategy};
use bprc::sim::history::OpKind;
use bprc::sim::sched::{RandomStrategy, RoundRobin};
use bprc::sim::trace::to_chrome_trace;
use bprc::sim::tracing::{EventKind, FlightLog, Hist, DEFAULT_RING_CAPACITY};
use bprc::sim::world::{ProcBody, RunReport};
use bprc::sim::{json, Counter, Mode, World};
use bprc::snapshot::ScannableMemory;

/// Each lockstep crash and injected fault is one ring event, so the Chrome
/// trace shows it exactly once (the history records the same faults, so an
/// export reading both sources would show each twice).
#[test]
fn chrome_trace_shows_each_crash_and_fault_once() {
    let n = 2;
    let mut world = World::builder(n).build();
    let r = world.reg("r", 0u64);
    let bodies: Vec<ProcBody<()>> = (0..n)
        .map(|_| {
            let r = r.clone();
            let b: ProcBody<()> = Box::new(move |ctx| {
                for k in 0..20 {
                    r.write(ctx, k)?;
                }
                Ok(())
            });
            b
        })
        .collect();
    let plan = FaultPlan::new().crash_at(3, 0).stall(1, 5, 8);
    let rep = world.run(
        bodies,
        Box::new(FaultedStrategy::new(RoundRobin::new(), plan)),
    );
    let doc = to_chrome_trace(&rep.flight, n);
    let instants: Vec<&str> = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array")
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("i"))
        .filter_map(|e| e.get("name").and_then(|x| x.as_str()))
        .collect();
    for name in ["crash", "stall:start", "stall:end"] {
        let count = instants.iter().filter(|&&i| i == name).count();
        assert_eq!(count, 1, "{name} exported {count} times: {instants:?}");
    }
}

/// A real lockstep snapshot run fills the flight recorder: every process
/// shows scan begin/end pairs, register writes, round advances and a
/// decision, and each event is dual-stamped (step and nanos).
#[test]
fn run_report_flight_log_captures_protocol_events() {
    let n = 3;
    let params = ConsensusParams::quick(n);
    let mut world = World::builder(n).seed(23).step_limit(5_000_000).build();
    let inst = ThreadedConsensus::<DirectArrow>::new(&world, &params, &[false, true, false], 23);
    let rep = world.run(inst.bodies, Box::new(RandomStrategy::new(23)));
    assert!(rep.outputs.iter().all(|o| o.is_some()));
    let flight = &rep.flight;
    assert_eq!(flight.n(), n);
    for pid in 0..n {
        assert!(
            flight.count(pid, EventKind::ScanBegin) > 0,
            "pid {pid}: no scan_begin events"
        );
        assert!(
            flight.count(pid, EventKind::RegWrite) > 0,
            "pid {pid}: no reg_write events"
        );
        assert!(
            flight.count(pid, EventKind::RoundAdvance) > 0,
            "pid {pid}: no round_advance events"
        );
        assert_eq!(
            flight.count(pid, EventKind::Decide),
            1,
            "pid {pid}: exactly one decision"
        );
        // Scans that began either ended or were cut off by the ring; with
        // the default capacity nothing is dropped in a quick run.
        assert_eq!(flight.overflow(pid), 0, "pid {pid}: ring overflowed");
        for ev in flight.events(pid) {
            assert!(ev.nanos > 0, "pid {pid}: event {:?} missing nanos", ev.kind);
        }
    }
    // The merged view is step-ordered and covers every per-pid event.
    let merged = flight.merged();
    assert_eq!(merged.len(), flight.total_events());
    assert!(merged.windows(2).all(|w| w[0].step <= w[1].step));
}

/// The Chrome trace exporter produces valid Trace Event JSON from a real
/// run: a top-level `traceEvents` array where every event has the
/// required keys, complete events carry durations, and the whole thing
/// survives a render/parse round trip.
#[test]
fn chrome_trace_export_from_a_real_run_is_well_formed() {
    let n = 4;
    let params = ConsensusParams::quick(n);
    let mut world = World::builder(n).seed(31).step_limit(5_000_000).build();
    let inst =
        ThreadedConsensus::<DirectArrow>::new(&world, &params, &[true, false, true, false], 31);
    let rep = world.run(inst.bodies, Box::new(RandomStrategy::new(31)));
    assert!(rep.outputs.iter().all(|o| o.is_some()));
    let doc = to_chrome_trace(&rep.flight, n);

    let reparsed = json::parse(&doc.render_pretty(2)).expect("chrome trace parses back");
    let events = reparsed
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    assert!(events.len() > n, "expected a real timeline, got {events:?}");
    let mut complete = 0;
    let mut instants = 0;
    for ev in events {
        for key in ["name", "ph", "ts", "pid", "tid"] {
            assert!(ev.get(key).is_some(), "event missing {key}: {ev:?}");
        }
        let ph = ev.get("ph").and_then(|v| v.as_str()).unwrap();
        match ph {
            "M" => {}
            "X" => {
                complete += 1;
                let dur = ev.get("dur").and_then(|v| v.as_num()).expect("X has dur");
                assert!(dur >= 0.0);
            }
            "i" => {
                instants += 1;
                assert_eq!(ev.get("s").and_then(|v| v.as_str()), Some("t"));
            }
            other => panic!("unexpected phase type {other:?} in {ev:?}"),
        }
    }
    assert!(complete > 0, "no complete (X) span events");
    assert!(instants > 0, "no instant (i) events");
    // The consensus stack leaves its signature on the timeline: round/scan
    // spans and scan ring events.
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(|s| s.as_str()))
        .collect();
    assert!(names.iter().any(|n| n.starts_with("round(")), "{names:?}");
    assert!(names.contains(&"scan"), "{names:?}");
    assert!(names.contains(&"scan_begin"), "{names:?}");
    let mut errs = Vec::new();
    json::check_finite(&reparsed, "$", &mut errs);
    assert!(errs.is_empty(), "non-finite numbers in trace: {errs:?}");
}

/// The carried-stamp rule. Under `Mode::Free` only the ends of a scan read
/// the clock: its opening (the stamp its first `scan_begin` shows) and its
/// `scan_end`. Every other event — `reg_write`, `collect_pass`, a retry's
/// `scan_begin`, `round_advance`, `coin_flip`, `decide`, and an `update`,
/// which here always follows a scan with no access between — carries the
/// previous event's reading, the scan-latency histogram is fed the
/// difference of the two end stamps, and the log still exports.
#[test]
fn free_mode_interior_events_carry_the_enclosing_operations_stamp() {
    let n = 3;
    let params = ConsensusParams::quick(n);
    let mut world = World::builder(n)
        .mode(Mode::Free)
        .step_limit(u64::MAX)
        .trace_capacity(1 << 16)
        .build();
    let inst = ThreadedConsensus::<DirectArrow>::new(&world, &params, &[true, false, true], 11);
    let rep = world.run(inst.bodies, Box::new(RandomStrategy::new(11)));
    assert!(rep.outputs.iter().all(|o| o.is_some()));
    for pid in 0..n {
        let events = rep.flight.events(pid);
        assert_eq!(rep.flight.overflow(pid), 0, "pid {pid}: size the ring up");
        assert!(events.iter().all(|e| e.nanos > 0), "pid {pid}: zero stamp");
        assert!(
            events.windows(2).all(|w| w[0].nanos <= w[1].nanos),
            "pid {pid}: stamps went backwards"
        );
        let (mut opened, mut scans, mut latency) = (0, 0, 0);
        for (i, e) in events.iter().enumerate() {
            let opens_a_scan = e.kind == EventKind::ScanBegin && e.arg == 1;
            if opens_a_scan {
                opened = e.nanos;
            } else if e.kind == EventKind::ScanEnd {
                scans += 1;
                latency += e.nanos - opened;
            } else if i > 0 {
                // Interior: no clock read of its own, so it carries the
                // previous ring event's reading.
                assert_eq!(
                    e.nanos,
                    events[i - 1].nanos,
                    "pid {pid}: {} at ring position {i} read the clock",
                    e.kind
                );
            }
        }
        assert_eq!(rep.telemetry.counter(pid, Counter::Scans), scans);
        let hist = rep.telemetry.hist(pid, Hist::ScanLatencyNs);
        assert_eq!((hist.count(), hist.sum()), (scans, latency), "pid {pid}");
        // Nothing was overwritten, so the ring saw every counted write.
        assert_eq!(
            rep.flight.count(pid, EventKind::RegWrite) as u64,
            rep.telemetry.counter(pid, Counter::RegWrites),
            "pid {pid}"
        );
    }
    let merged = rep.flight.merged();
    assert!(merged.windows(2).all(|w| w[0].nanos <= w[1].nanos));
    let doc = to_chrome_trace(&rep.flight, n);
    let reparsed = json::parse(&doc.render_pretty(2)).expect("chrome trace parses back");
    let mut errs = Vec::new();
    json::check_finite(&reparsed, "$", &mut errs);
    assert!(errs.is_empty(), "non-finite numbers in trace: {errs:?}");
}

/// The update stamp rule (`Ctx::stamp`), in free mode: an update reads the
/// clock only if its process has made an access since the last reading.
/// After a scan it carries the scan's closing reading, however long the
/// process computed in between; after another update, whose accesses came
/// since, it reads the clock afresh.
#[test]
fn a_free_mode_update_reuses_a_reading_only_while_no_access_came_between() {
    let pause = std::time::Duration::from_millis(1);
    let stamps = |scan_first: bool| {
        let mut world = World::builder(1)
            .mode(Mode::Free)
            .step_limit(u64::MAX)
            .build();
        let mem = ScannableMemory::<u64, DirectArrow>::new(&world, 1, 0);
        let mut port = mem.port(0);
        let body: ProcBody<()> = Box::new(move |ctx| {
            if scan_first {
                port.scan(ctx)?;
            } else {
                port.update(ctx, 1)?;
            }
            std::thread::sleep(pause);
            port.update(ctx, 2)
        });
        let rep = world.run(vec![body], Box::new(RoundRobin::new()));
        assert_eq!(rep.decided_count(), 1, "{:?}", rep.panics);
        let events = rep.flight.events(0);
        let of = |kind: EventKind| -> Vec<u64> {
            events
                .iter()
                .filter(|e| e.kind == kind)
                .map(|e| e.nanos)
                .collect()
        };
        (of(EventKind::ScanEnd), of(EventKind::Update))
    };
    let (ends, updates) = stamps(true);
    assert_eq!(updates.len(), 1);
    assert_eq!(ends, updates, "an update after a scan carries its close");
    let (ends, updates) = stamps(false);
    assert!(ends.is_empty());
    assert_eq!(updates.len(), 2);
    assert!(
        updates[1] - updates[0] >= pause.as_nanos() as u64,
        "the second update read the clock afresh: {updates:?}"
    );
}

/// A free-mode run whose counts repeat exactly: the three consensus bodies
/// take turns, each starting when the one before it has decided.
fn free_run_in_turns(capacity: usize) -> RunReport<bool> {
    let n = 3;
    let params = ConsensusParams::quick(n);
    let mut world = World::builder(n)
        .mode(Mode::Free)
        .step_limit(u64::MAX)
        .trace_capacity(capacity)
        .build();
    let inst = ThreadedConsensus::<DirectArrow>::new(&world, &params, &[true, true, false], 47);
    let (first_tx, mut turn_rx) = std::sync::mpsc::channel::<()>();
    first_tx.send(()).expect("pid 0 holds the receiver");
    let bodies: Vec<ProcBody<bool>> = inst
        .bodies
        .into_iter()
        .map(|body| {
            let (next_tx, next_rx) = std::sync::mpsc::channel();
            let my_turn = std::mem::replace(&mut turn_rx, next_rx);
            let b: ProcBody<bool> = Box::new(move |ctx| {
                my_turn.recv().expect("the previous body passes the turn");
                let out = body(ctx);
                let _ = next_tx.send(());
                out
            });
            b
        })
        .collect();
    world.run(bodies, Box::new(RandomStrategy::new(47)))
}

/// Self-measurement: recording into the ring buffer must not distort the
/// run. With the recorder on (default capacity) and off (capacity 0) the
/// same seed produces the same outputs, the telemetry==history parity the
/// gate's PARITY rows rely on holds in both, and the recorded run is not
/// catastrophically slower (loose 4x bound on the better of three runs).
#[test]
fn recorder_overhead_leaves_the_run_intact() {
    let n = 3;
    let params = ConsensusParams::quick(n);
    let run = |capacity: usize| {
        let mut best = f64::INFINITY;
        let mut rep = None;
        for _ in 0..3 {
            let mut world = World::builder(n)
                .seed(47)
                .step_limit(5_000_000)
                .trace_capacity(capacity)
                .build();
            let inst =
                ThreadedConsensus::<DirectArrow>::new(&world, &params, &[true, true, false], 47);
            let t0 = Instant::now();
            let r = world.run(inst.bodies, Box::new(RandomStrategy::new(47)));
            best = best.min(t0.elapsed().as_secs_f64());
            rep = Some(r);
        }
        (rep.unwrap(), best)
    };
    let (on, t_on) = run(bprc::sim::DEFAULT_RING_CAPACITY);
    let (off, t_off) = run(0);

    assert!(on.flight.total_events() > 0, "recorder on but ring empty");
    assert_eq!(off.flight.total_events(), 0, "capacity 0 must disable");
    assert_eq!(on.outputs, off.outputs, "recording changed the outcome");

    // Parity: metrics equal history counts event for event, recorder or not.
    for rep in [&on, &off] {
        let h = rep.history.as_ref().expect("lockstep records history");
        let t = &rep.telemetry;
        assert_eq!(
            t.total(Counter::RegReads),
            h.ops().filter(|&(_, _, k, _, _)| k == OpKind::Read).count() as u64
        );
        assert_eq!(
            t.total(Counter::RegWrites),
            h.ops()
                .filter(|&(_, _, k, _, _)| k == OpKind::Write)
                .count() as u64
        );
    }
    assert_eq!(
        on.telemetry.total(Counter::RegWrites),
        off.telemetry.total(Counter::RegWrites),
        "recording changed the op counts"
    );

    // Loose guard against pathological overhead; generous because CI
    // machines are noisy and the runs are short.
    assert!(
        t_on <= t_off * 4.0 + 0.05,
        "recorder overhead out of bounds: on {t_on:.4}s vs off {t_off:.4}s"
    );

    // Free mode has no history to hold the books against, so hold them
    // against each other: same outputs, same steps, same total of every
    // counter. Counts, not wall clock.
    let (on, off) = (
        free_run_in_turns(bprc::sim::DEFAULT_RING_CAPACITY),
        free_run_in_turns(0),
    );
    assert!(on.flight.total_events() > 0, "recorder on but ring empty");
    assert_eq!(off.flight.total_events(), 0, "capacity 0 must disable");
    assert_eq!(on.outputs, off.outputs, "recording changed the outcome");
    assert_eq!(
        (on.steps, &on.per_proc_steps),
        (off.steps, &off.per_proc_steps)
    );
    for &c in Counter::ALL {
        assert_eq!(
            on.telemetry.total(c),
            off.telemetry.total(c),
            "{}",
            c.name()
        );
    }
}

/// A lockstep world of `n` processes with ring capacity `capacity` that
/// allocates `reg + 1` registers and has every process write register id
/// `reg` `writes` times, round-robin; returns the run's flight log. The
/// world is dropped on return, which hands its rings back to the pool.
fn writes_flight(n: usize, capacity: usize, reg: usize, writes: u64) -> FlightLog {
    let mut world = World::builder(n).trace_capacity(capacity).build();
    let regs: Vec<_> = (0..=reg)
        .map(|r| world.reg(format!("r{r}"), 0u64))
        .collect();
    let bodies: Vec<ProcBody<()>> = (0..n)
        .map(|_| {
            let r = regs[reg].clone();
            let b: ProcBody<()> = Box::new(move |ctx| {
                for k in 0..writes {
                    r.write(ctx, k)?;
                }
                Ok(())
            });
            b
        })
        .collect();
    let rep = world.run(bodies, Box::new(RoundRobin::new()));
    assert!(rep.outputs.iter().all(|o| o.is_some()));
    rep.flight
}

/// Asserts `log` is exactly what [`writes_flight`] should leave: on each
/// ring the newest `min(writes, capacity)` of its `writes` writes, every
/// one to register `reg`, and the rest counted as overflow.
fn assert_only_own_writes(log: &FlightLog, capacity: usize, reg: usize, writes: u64) {
    let kept = writes.min(capacity as u64);
    assert_eq!(log.capacity(), capacity);
    for pid in 0..log.n() {
        let events = log.events(pid);
        assert_eq!(events.len() as u64, kept, "pid {pid}: {events:?}");
        assert!(
            events
                .iter()
                .all(|e| (e.pid, e.kind, e.arg) == (pid, EventKind::RegWrite, reg as u64)),
            "pid {pid}: an event from another world: {events:?}"
        );
        let lost = if capacity == 0 { 0 } else { writes - kept };
        assert_eq!(log.overflow(pid), lost, "pid {pid}");
    }
}

/// A ring comes back from the pool with its slots still holding the
/// dropped world's events; the next world of its size sees none of them.
/// Each round wraps a capacity-4 ring (10 writes), drops its world, and
/// builds another that writes twice to a different register: its log is
/// those 2 events, with nothing overwritten.
#[test]
fn a_reused_ring_shows_only_the_new_worlds_events() {
    for _ in 0..20 {
        let wrapped = writes_flight(1, 4, 0, 10);
        assert_only_own_writes(&wrapped, 4, 0, 10); // 6 overwritten
        let next = writes_flight(1, 4, 1, 2);
        assert_only_own_writes(&next, 4, 1, 2);
    }
}

/// Rings of three slot counts cycle through the pool in turn: each world
/// reports its own capacity and keeps at most that many events per ring.
/// Capacities 3 and 4 share the 4-slot rings, so a ring made for one is
/// reused for the other.
#[test]
fn interleaved_capacities_keep_their_own_bounds() {
    for round in 0..10 {
        let capacities = [0, 4, DEFAULT_RING_CAPACITY, 3, 4, 0, 3];
        for (i, capacity) in capacities.into_iter().enumerate() {
            let reg = (round + i) % 3;
            let log = writes_flight(2, capacity, reg, 6);
            assert_only_own_writes(&log, capacity, reg, 6);
        }
    }
}

/// Two threads build, run and drop worlds at once, so rings move between
/// their worlds through the pool; each thread writes its own register id,
/// and every snapshot holds only its own world's writes.
#[test]
fn concurrent_worlds_never_share_a_ring() {
    let start = std::sync::Arc::new(std::sync::Barrier::new(2));
    let threads: Vec<_> = (0..2)
        .map(|reg| {
            let start = std::sync::Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                for _ in 0..500 {
                    let log = writes_flight(2, DEFAULT_RING_CAPACITY, reg, 3);
                    assert_only_own_writes(&log, DEFAULT_RING_CAPACITY, reg, 3);
                }
            })
        })
        .collect();
    for t in threads {
        t.join()
            .expect("every snapshot holds only its own world's events");
    }
}
