//! The two new ways the baton-passing executor can go wrong — a lost
//! wake-up and a pool worker left in a bad state — and the one race it
//! removes by construction (a crashed process unwinding while the world
//! moves on).
//!
//! Tests here share the process-global worker pool and make claims about
//! *which* workers a run gets, so they serialize on [`SERIAL`].

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::ThreadId;
use std::time::Duration;

use bprc_sim::faults::{FaultPlan, FaultedStrategy};
use bprc_sim::sched::{FnStrategy, RandomStrategy, RoundRobin};
use bprc_sim::world::{ProcBody, World};
use bprc_sim::{Decision, Halted, ScheduleView, Strategy, NO_VERSION};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Everything observable about one tiny run, as one comparable value.
type Outcome = (Vec<Option<u64>>, Vec<Option<Halted>>, u64, u64, String);

/// n = 3, four accesses per body, under `RandomStrategy(seed)`; every
/// fourth seed adds a crash and every tenth an injected panic, so crash,
/// poison and finisher decisions all pass through the baton.
fn tiny_run(seed: u64) -> Outcome {
    let n = 3;
    let mut w = World::builder(n).build();
    let regs: Vec<_> = (0..n).map(|p| w.reg(format!("r{p}"), 0u64)).collect();
    let bodies: Vec<ProcBody<u64>> = (0..n)
        .map(|p| {
            let regs = regs.clone();
            let b: ProcBody<u64> = Box::new(move |ctx| {
                regs[p].write(ctx, p as u64 + 1)?;
                ctx.annotate("wrote", vec![p as u64]);
                let mut sum = 0;
                for r in &regs {
                    sum += r.read(ctx)?;
                }
                Ok(sum)
            });
            b
        })
        .collect();
    let mut random = RandomStrategy::new(seed);
    let mut panic_due = seed.is_multiple_of(10);
    let base = FnStrategy::new(move |view: &ScheduleView<'_>| {
        if panic_due && view.step >= 2 {
            panic_due = false;
            return Decision::Panic(view.runnable[seed as usize % view.runnable.len()]);
        }
        random.decide(view)
    });
    let strategy: Box<dyn Strategy> = if seed.is_multiple_of(4) {
        let plan = FaultPlan::new().crash_at(seed % 5, seed as usize % n);
        Box::new(FaultedStrategy::new(base, plan))
    } else {
        Box::new(base)
    };
    let rep = w.run(bodies, strategy);
    let history = rep.history.expect("lockstep records").to_jsonl();
    (rep.outputs, rep.halted, rep.steps, rep.handoffs, history)
}

/// A missed `unpark` must show up as this watchdog firing with the seed it
/// stopped on — never as a hung test binary.
#[test]
fn ten_thousand_tiny_runs_replay_and_never_lose_a_wakeup() {
    let _serial = serial();
    let progress = Arc::new(AtomicU64::new(0));
    let (done_tx, done_rx) = mpsc::channel();
    let at = Arc::clone(&progress);
    std::thread::spawn(move || {
        for seed in 0..10_000 {
            at.store(seed, Ordering::Relaxed);
            let (first, second) = (tiny_run(seed), tiny_run(seed));
            if first != second {
                let _ = done_tx.send(Err(format!(
                    "seed {seed} did not replay:\n{first:?}\n{second:?}"
                )));
                return;
            }
        }
        let _ = done_tx.send(Ok(()));
    });
    match done_rx.recv_timeout(Duration::from_secs(240)) {
        Ok(Ok(())) => {}
        Ok(Err(diverged)) => panic!("{diverged}"),
        Err(RecvTimeoutError::Timeout) => panic!(
            "watchdog: stuck at seed {} — a process was left parked (lost wake-up)",
            progress.load(Ordering::Relaxed)
        ),
        Err(RecvTimeoutError::Disconnected) => panic!(
            "the run loop panicked at seed {}",
            progress.load(Ordering::Relaxed)
        ),
    }
}

/// Runs three two-access bodies and returns the thread that hosted each
/// pid; with `wreck = Some(p)`, pid `p` panics inside its first access,
/// holding the grant.
fn hosts_of_one_run(wreck: Option<usize>) -> Vec<ThreadId> {
    let hosts = Arc::new(Mutex::new(vec![None; 3]));
    let mut w = World::builder(3).build();
    let r = w.reg("r", 0u32);
    let bodies: Vec<ProcBody<()>> = (0..3)
        .map(|p| {
            let (r, hosts) = (r.clone(), Arc::clone(&hosts));
            let b: ProcBody<()> = Box::new(move |ctx| {
                hosts.lock().unwrap()[p] = Some(std::thread::current().id());
                r.read_changed(ctx, NO_VERSION, |_| {
                    assert!(wreck != Some(p), "wrecked mid-access")
                })?;
                r.write(ctx, 1)
            });
            b
        })
        .collect();
    let rep = w.run(bodies, Box::new(RoundRobin::new()));
    assert_eq!(rep.panicked_pids(), wreck.into_iter().collect::<Vec<_>>());
    assert_eq!(rep.decided_count(), if wreck.is_some() { 2 } else { 3 });
    let hosts: Vec<ThreadId> = hosts.lock().unwrap().iter().map(|h| h.unwrap()).collect();
    assert_eq!(
        hosts.iter().collect::<HashSet<_>>().len(),
        3,
        "one thread per process"
    );
    hosts
}

/// Pids 0 and 1 run on the same two pooled workers run after run, pid 2
/// (the last) on the thread that called `run`, and a body that panics
/// while holding its grant — on a worker or on the caller — leaves both
/// arrangements as they were.
#[test]
fn consecutive_runs_reuse_the_same_workers_even_after_a_wrecked_run() {
    let _serial = serial();
    let first = hosts_of_one_run(None);
    assert_eq!(
        first[2],
        std::thread::current().id(),
        "the caller hosts pid 2"
    );
    assert_eq!(hosts_of_one_run(None), first);
    assert_eq!(hosts_of_one_run(Some(1)), first, "a wrecked worker's run");
    assert_eq!(hosts_of_one_run(None), first, "the run after it");
    assert_eq!(hosts_of_one_run(Some(2)), first, "a wrecked caller's run");
    assert_eq!(hosts_of_one_run(None), first, "the run after it");
}

/// A crashed process that dawdles on its way out: nothing is decided
/// until it has finished, and it is its finisher — not the process the
/// world would have moved on to — that takes the next decision. The
/// recorded history is the one the scheduler-thread executor produced for
/// the same strategy (captured from the parent commit of the baton PR).
///
/// The sleep synchronizes nothing — the executor forces this order by
/// construction — it only gives an executor that *did* move on 30 ms in
/// which to be caught doing so.
#[test]
fn a_crashed_process_still_unwinding_takes_the_next_decision_itself() {
    let _serial = serial();
    let mut w = World::builder(2).build();
    let r = w.reg("r", 0u64);
    let hosts = Arc::new(Mutex::new(vec![None; 2]));
    let bodies: Vec<ProcBody<u64>> = (0..2)
        .map(|p| {
            let (r, hosts) = (r.clone(), Arc::clone(&hosts));
            let b: ProcBody<u64> = Box::new(move |ctx| {
                hosts.lock().unwrap()[p] = Some(std::thread::current().id());
                for k in 0..4 {
                    if let Err(halt) = r.write(ctx, 10 * p as u64 + k) {
                        if halt == Halted::Crashed {
                            std::thread::sleep(Duration::from_millis(30));
                        }
                        return Err(halt);
                    }
                }
                r.read(ctx)
            });
            b
        })
        .collect();
    // (thread, decision) for every consultation of the strategy.
    let deciders = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&deciders);
    let mut plan = FaultedStrategy::new(RandomStrategy::new(7), FaultPlan::new().crash_at(3, 0));
    let strategy = FnStrategy::new(move |view: &ScheduleView<'_>| {
        let d = plan.decide(view);
        log.lock().unwrap().push((std::thread::current().id(), d));
        d
    });
    let rep = w.run(bodies, Box::new(strategy));
    assert_eq!(rep.halted[0], Some(Halted::Crashed));
    assert_eq!(rep.outputs[1], Some(13));

    let hosts = hosts.lock().unwrap();
    let deciders = deciders.lock().unwrap();
    let crash = deciders
        .iter()
        .position(|&(_, d)| d == Decision::Crash(0))
        .expect("the plan's crash is delivered");
    assert_eq!(
        deciders[crash + 1],
        (hosts[0].unwrap(), Decision::Grant(1)),
        "the crashed process's finisher decides next"
    );
    assert_eq!(
        rep.history.unwrap().to_jsonl(),
        PARENT_HISTORY,
        "history moved against the parent commit's"
    );
}

const PARENT_HISTORY: &str = r#"{"type":"op","step":0,"pid":0,"kind":"write","reg":0,"tag":0}
{"type":"op","step":1,"pid":0,"kind":"write","reg":0,"tag":0}
{"type":"op","step":2,"pid":1,"kind":"write","reg":0,"tag":0}
{"type":"crash","step":3,"pid":0}
{"type":"op","step":3,"pid":1,"kind":"write","reg":0,"tag":0}
{"type":"op","step":4,"pid":1,"kind":"write","reg":0,"tag":0}
{"type":"op","step":5,"pid":1,"kind":"write","reg":0,"tag":0}
{"type":"op","step":6,"pid":1,"kind":"read","reg":0,"tag":0}
"#;
