//! An injected panic is an adversary decision, not a bug: it must unwind
//! its target without running the process-global panic hook, while every
//! record of it — the halt reason, the message, the history's fault event
//! and the flight ring's — stays what it was. A genuine body panic still
//! reaches the hook, whatever its text says.
//!
//! This file is its own test binary, so the counting hook it installs
//! reaches no other test; a lock serializes its tests, because the hook
//! and its count are global.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, Once};

use bprc_sim::history::Event;
use bprc_sim::sched::{FnStrategy, RoundRobin};
use bprc_sim::tracing::{fault_arg, EventKind};
use bprc_sim::world::{ProcBody, RunReport, World};
use bprc_sim::{Decision, FaultKind, FaultPlan, FaultedStrategy, Halted, ScheduleView, Strategy};

/// Panics that reached the hook since the last [`counted`] call.
static HOOK_CALLS: AtomicUsize = AtomicUsize::new(0);

/// Takes the test lock and installs the counting hook (once per binary),
/// which hands every panic on to the default hook after counting it.
fn counted() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    static HOOK: Once = Once::new();
    let guard = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            HOOK_CALLS.fetch_add(1, Ordering::SeqCst);
            default(info);
        }))
    });
    HOOK_CALLS.store(0, Ordering::SeqCst);
    guard
}

/// Three processes that each write one register and then read it six
/// times, under `strategy`.
fn run_three(strategy: Box<dyn Strategy>) -> RunReport<u32> {
    let mut w = World::builder(3).build();
    let r = w.reg("r", 0u32);
    let bodies: Vec<ProcBody<u32>> = (0..3)
        .map(|p| {
            let r = r.clone();
            let b: ProcBody<u32> = Box::new(move |ctx| {
                r.write(ctx, p as u32 + 1)?;
                let mut last = 0;
                for _ in 0..6 {
                    last = r.read(ctx)?;
                }
                Ok(last)
            });
            b
        })
        .collect();
    w.run(bodies, strategy)
}

/// What every injected panic must still leave behind: `victim` halted as
/// `Panicked` with the injection's text, one `PanicInjected` fault in the
/// history and one in its ring, and everyone else finished.
fn assert_injected(rep: &RunReport<u32>, victim: usize) {
    assert_eq!(rep.halted[victim], Some(Halted::Panicked));
    assert_eq!(
        rep.panics[victim].as_deref(),
        Some(format!("chaos: injected panic (pid {victim})").as_str())
    );
    assert_eq!(rep.panicked_pids(), vec![victim]);
    for p in (0..3).filter(|&p| p != victim) {
        assert!(rep.outputs[p].is_some(), "survivor {p} finished");
    }
    let h = rep.history.as_ref().expect("lockstep records");
    let faults: Vec<_> = h.faults().collect();
    assert_eq!(faults.len(), 1, "{faults:?}");
    let (step, pid, kind) = faults[0];
    assert_eq!((pid, kind), (victim, FaultKind::PanicInjected));
    // The fault is the victim's last event in the history.
    let last = h
        .events()
        .iter()
        .rev()
        .find(|e| match e {
            Event::Op { pid, .. } | Event::Fault { pid, .. } => *pid == victim,
            _ => false,
        })
        .expect("the victim has events");
    assert!(matches!(last, Event::Fault { .. }), "{last:?}");
    let ring: Vec<_> = rep
        .flight
        .events(victim)
        .iter()
        .filter(|e| e.kind == EventKind::Fault)
        .map(|e| (e.step, e.arg))
        .collect();
    assert_eq!(ring, vec![(step, fault_arg(FaultKind::PanicInjected))]);
}

#[test]
fn a_planned_panic_reaches_no_hook_on_a_worker_or_the_caller() {
    let _serial = counted();
    // Pid 0 runs on a pooled worker; pid 2, the last, on this thread.
    for victim in [0, 2] {
        let plan = FaultPlan::new().panic_at(4, victim);
        let rep = run_three(Box::new(FaultedStrategy::new(RoundRobin::new(), plan)));
        assert_injected(&rep, victim);
    }
    assert_eq!(
        HOOK_CALLS.load(Ordering::SeqCst),
        0,
        "injected panics ran the hook"
    );
}

#[test]
fn a_bare_panic_decision_reaches_no_hook_on_a_worker_or_the_caller() {
    let _serial = counted();
    for victim in [1, 2] {
        let strategy = FnStrategy::new(move |view: &ScheduleView<'_>| {
            if view.step == 5 && view.runnable.contains(&victim) {
                Decision::Panic(victim)
            } else {
                Decision::Grant(view.runnable[view.step as usize % view.runnable.len()])
            }
        });
        let rep = run_three(Box::new(strategy));
        assert_injected(&rep, victim);
    }
    assert_eq!(
        HOOK_CALLS.load(Ordering::SeqCst),
        0,
        "injected panics ran the hook"
    );
}

#[test]
fn a_genuine_panic_reaches_the_hook_whatever_its_text() {
    let _serial = counted();
    let mut w = World::builder(2).build();
    let r = w.reg("r", 0u32);
    let (r0, r1) = (r.clone(), r.clone());
    let bodies: Vec<ProcBody<u32>> = vec![
        Box::new(move |ctx| {
            r0.write(ctx, 1)?;
            panic!("chaos: a genuine bug that names the chaos engine");
        }),
        Box::new(move |ctx| r1.read(ctx)),
    ];
    let rep = w.run(bodies, Box::new(RoundRobin::new()));
    assert_eq!(rep.halted[0], Some(Halted::Panicked));
    assert_eq!(
        rep.panics[0].as_deref(),
        Some("chaos: a genuine bug that names the chaos engine")
    );
    assert!(
        rep.history.unwrap().faults().next().is_none(),
        "no fault was injected"
    );
    assert_eq!(
        HOOK_CALLS.load(Ordering::SeqCst),
        1,
        "a genuine panic is reported once"
    );
}
