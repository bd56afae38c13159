//! Free-mode step accounting: processes lease steps from the world's
//! budget in blocks, so the budget must never be overspent, a run must
//! never hang on it, what a `RunReport` says was executed must be what the
//! telemetry counted, and an exiting process must hand its unspent lease
//! back.

use std::any::Any;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use bprc_sim::sched::RoundRobin;
use bprc_sim::world::{Mode, ProcBody, RunReport, World};
use bprc_sim::{Counter, Halted};

/// The most of the budget one process can hold unspent at shutdown: a
/// lease of 64, of which the access that leased it spent one.
const STRANDED_PER_PROC: u64 = 63;

/// Runs `run` on its own thread. A lease bug that strands a process must
/// show up as this watchdog firing — never as a hung test binary.
fn under_watchdog<T: Send + 'static>(what: String, run: impl FnOnce() -> T + Send + 'static) -> T {
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done_tx.send(run());
    });
    match done_rx.recv_timeout(Duration::from_secs(120)) {
        Ok(out) => out,
        Err(RecvTimeoutError::Timeout) => panic!("watchdog: {what} hung"),
        Err(RecvTimeoutError::Disconnected) => panic!("{what} panicked"),
    }
}

/// `n` free threads write one fast register until something stops them.
fn hammer(n: usize, limit: u64) -> RunReport<()> {
    let mut w = World::builder(n).mode(Mode::Free).step_limit(limit).build();
    let r = w.fast_reg("r", 0u64);
    let bodies: Vec<ProcBody<()>> = (0..n)
        .map(|p| {
            let r = r.clone();
            let b: ProcBody<()> = Box::new(move |ctx| loop {
                r.write(ctx, p as u64)?;
            });
            b
        })
        .collect();
    w.run(bodies, Box::new(RoundRobin::new()))
}

#[test]
fn leases_never_overspend_and_never_strand_a_run() {
    for n in [1usize, 4, 8] {
        for limit in [0u64, 1, 63, 64, 65, 1_000, 100_003] {
            let rep = under_watchdog(format!("n = {n}, limit = {limit}"), move || {
                hammer(n, limit)
            });
            let at = format!("n = {n}, limit = {limit}, steps = {}", rep.steps);
            assert!(rep.steps <= limit, "{at}: the budget was overspent");
            // The bodies never return, so everyone halted: whoever found
            // the frontier exhausted, the rest on the shutdown that raised.
            assert!(
                rep.steps + n as u64 * STRANDED_PER_PROC >= limit,
                "{at}: more than a lease per process went unspent"
            );
            for (pid, h) in rep.halted.iter().enumerate() {
                assert!(
                    matches!(h, Some(Halted::StepLimit | Halted::Shutdown)),
                    "{at}: pid {pid} halted with {h:?}"
                );
            }
            assert!(rep.halted.contains(&Some(Halted::StepLimit)), "{at}");
            assert_eq!(rep.steps, rep.per_proc_steps.iter().sum::<u64>(), "{at}");
            for pid in 0..n {
                assert_eq!(
                    rep.per_proc_steps[pid],
                    rep.telemetry.counter(pid, Counter::RegWrites),
                    "{at}: pid {pid}"
                );
            }
            assert_eq!(rep.telemetry.total(Counter::RegReads), 0, "{at}");
        }
    }
}

/// Sends when dropped. As a panic payload it is dropped by whoever caught
/// the panic — after the unwind, which is what drops the body's `Ctx`.
struct SignalOnDrop(mpsc::Sender<()>);

impl Drop for SignalOnDrop {
    fn drop(&mut self) {
        let _ = self.0.send(());
    }
}

/// Pid 0 takes a lease of 64 for a single access and leaves; once its
/// context is gone, pid 1 can spend the whole rest of a budget of 65 — its
/// own clipped lease of one step plus the 63 handed back. Pid 0 leaves by
/// panic because a contained panic's payload is the one thing a body can
/// leave behind that outlives its context.
#[test]
fn an_exiting_body_hands_its_unspent_lease_back() {
    let rep = under_watchdog("the hand-back run".to_string(), || {
        let mut w = World::builder(2).mode(Mode::Free).step_limit(65).build();
        let r = w.fast_reg("r", 0u64);
        let (gone_tx, gone_rx) = mpsc::channel();
        let (r0, r1) = (r.clone(), r);
        let bodies: Vec<ProcBody<u64>> = vec![
            Box::new(move |ctx| {
                r0.write(ctx, 7)?;
                let payload: Box<dyn Any + Send> = Box::new(SignalOnDrop(gone_tx));
                std::panic::resume_unwind(payload)
            }),
            Box::new(move |ctx| {
                gone_rx.recv().expect("pid 0's payload is dropped");
                for _ in 0..63 {
                    r1.read(ctx)?;
                }
                r1.read(ctx)
            }),
        ];
        w.run(bodies, Box::new(RoundRobin::new()))
    });
    assert_eq!(rep.halted, vec![Some(Halted::Panicked), None]);
    assert_eq!(rep.outputs[1], Some(7), "pid 1 was refused a step");
    assert_eq!(rep.per_proc_steps, vec![1, 64]);
    assert_eq!(rep.steps, 65);
    // The panicking process's counts were published by the unwind.
    assert_eq!(rep.telemetry.counter(0, Counter::RegWrites), 1);
}

/// A run's step budget, for `limit` steps: pid 0 alternates a write run of
/// `BITS` packed bits (the shape of a scan's lowers, counting
/// `ArrowLowers` per write attempted) and a version-token read run of
/// `LANES` lanes (a collect) until the budget stops it; pid 1 then makes
/// one access. Returns the report and how many writes pid 0 attempted: the
/// writes among its first `limit` accesses, and the refused one if that
/// was a write.
fn budget_in_runs(limit: u64) -> (RunReport<()>, u64) {
    const BITS: u64 = 20;
    const LANES: u64 = 31;
    let mut w = World::builder(2).mode(Mode::Free).step_limit(limit).build();
    let bits: Vec<_> = (0..BITS)
        .map(|i| w.bit_reg(format!("b{i}"), false))
        .collect();
    let slab = w.value_slab(LANES as usize, 1);
    let lanes: Vec<_> = (0..LANES as usize)
        .map(|i| w.lane_reg(&slab, i, format!("l{i}"), 0u64))
        .collect();
    let probe = lanes[0].clone();
    let (stopped_tx, stopped_rx) = mpsc::channel();
    let bodies: Vec<ProcBody<()>> = vec![
        Box::new(move |ctx| {
            let mut tokens = vec![bprc_sim::NO_VERSION; lanes.len()];
            let halted = (|| loop {
                bprc_sim::Reg::write_run(ctx, &bits, false, Some(Counter::ArrowLowers))?;
                bprc_sim::Reg::read_changed_run(
                    ctx,
                    lanes.iter().enumerate(),
                    &mut tokens,
                    |_, _| true,
                )?;
            })();
            stopped_tx.send(()).expect("pid 1 waits for pid 0");
            halted
        }),
        Box::new(move |ctx| {
            stopped_rx.recv().expect("pid 0 reports its halt");
            probe.read(ctx).map(drop)
        }),
    ];
    let rep = under_watchdog(format!("limit = {limit}"), move || {
        w.run(bodies, Box::new(RoundRobin::new()))
    });
    let is_write = |k: u64| k % (BITS + LANES) < BITS;
    let writes = (0..=limit).filter(|&k| is_write(k)).count() as u64;
    (rep, writes)
}

/// Step limits that land inside a write run, inside a read run, and one
/// step either side of a 64-step lease boundary in each (the runs are 20
/// writes and 31 reads, so steps 64 and 128 fall inside the second write
/// run and the third read run). The process that runs out is granted
/// exactly the limit, renewing its lease mid-run where single accesses
/// would, and every book agrees with that; the process that comes later
/// finds the budget gone at its next access.
#[test]
fn a_run_is_granted_exactly_the_budget() {
    for limit in [1, 10, 30, 63, 64, 65, 127, 128, 129] {
        let (rep, writes) = budget_in_runs(limit);
        let at = format!("limit = {limit}");
        assert_eq!(
            rep.halted,
            vec![Some(Halted::StepLimit), Some(Halted::Shutdown)],
            "{at}"
        );
        assert_eq!(rep.steps, limit, "{at}");
        assert_eq!(rep.per_proc_steps, vec![limit, 0], "{at}");
        let t = &rep.telemetry;
        let accesses = |pid| t.counter(pid, Counter::RegReads) + t.counter(pid, Counter::RegWrites);
        assert_eq!((accesses(0), accesses(1)), (limit, 0), "{at}");
        assert_eq!(t.counter(0, Counter::ArrowLowers), writes, "{at}");
    }
}
