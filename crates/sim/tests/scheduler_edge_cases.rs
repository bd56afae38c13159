//! Edge-case coverage for the lockstep scheduler — the most safety-critical
//! piece of infrastructure in the workspace (every deterministic result
//! rests on it).

use bprc_sim::faults::{FaultPlan, FaultedStrategy};
use bprc_sim::history::OpKind;
use bprc_sim::sched::{FnStrategy, RandomStrategy, RoundRobin, SoloBursts};
use bprc_sim::world::{Mode, ProcBody, World};
use bprc_sim::{Decision, Halted};

#[test]
fn strategies_see_pending_ops() {
    // The strong adversary may inspect what each process is about to do.
    let mut w = World::builder(2).build();
    let a = w.reg("a", 0u8);
    let b = w.reg("b", 0u8);
    let (a0, b1) = (a.clone(), b.clone());
    let bodies: Vec<ProcBody<()>> = vec![
        Box::new(move |ctx| {
            a0.write_tagged(ctx, 1, 11)?;
            Ok(())
        }),
        Box::new(move |ctx| {
            b1.read(ctx)?;
            Ok(())
        }),
    ];
    let (aid, bid) = (a.id(), b.id());
    let seen_write = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let seen_read = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let (sw, sr) = (seen_write.clone(), seen_read.clone());
    let strategy = FnStrategy::new(move |view: &bprc_sim::ScheduleView<'_>| {
        if let Some(op) = view.pending_of(0) {
            assert_eq!(op.kind, OpKind::Write);
            assert_eq!(op.reg, aid);
            assert_eq!(op.tag, 11);
            sw.store(true, std::sync::atomic::Ordering::Relaxed);
        }
        if let Some(op) = view.pending_of(1) {
            assert_eq!(op.kind, OpKind::Read);
            assert_eq!(op.reg, bid);
            sr.store(true, std::sync::atomic::Ordering::Relaxed);
        }
        Decision::Grant(view.runnable[0])
    });
    let _ = w.run(bodies, Box::new(strategy));
    assert!(seen_write.load(std::sync::atomic::Ordering::Relaxed));
    assert!(seen_read.load(std::sync::atomic::Ordering::Relaxed));
}

#[test]
fn crashing_every_process_terminates_the_world() {
    let mut w = World::builder(3).build();
    let r = w.reg("r", 0u8);
    let bodies: Vec<ProcBody<u8>> = (0..3)
        .map(|_| {
            let r = r.clone();
            let b: ProcBody<u8> = Box::new(move |ctx| loop {
                r.write(ctx, 1)?;
            });
            b
        })
        .collect();
    let plan = FaultPlan::new()
        .crash_at(0, 0)
        .crash_at(0, 1)
        .crash_at(0, 2);
    let strategy = FaultedStrategy::new(RoundRobin::new(), plan);
    let rep = w.run(bodies, Box::new(strategy));
    assert!(rep.outputs.iter().all(|o| o.is_none()));
    assert!(rep
        .halted
        .iter()
        .all(|h| matches!(h, Some(Halted::Crashed))));
}

#[test]
fn crash_mid_multi_op_sequence_loses_nothing_written() {
    // A process crashed between its two writes leaves exactly the first one.
    let mut w = World::builder(2).build();
    let a = w.reg("a", 0u8);
    let b = w.reg("b", 0u8);
    let (a0, b0) = (a.clone(), b.clone());
    let r_b = b.clone();
    let bodies: Vec<ProcBody<u8>> = vec![
        Box::new(move |ctx| {
            a0.write(ctx, 7)?;
            b0.write(ctx, 7)?; // never granted
            Ok(0)
        }),
        Box::new(move |ctx| r_b.read(ctx)),
    ];
    // Grant p0 its first write, then crash it, then run p1.
    let mut step = 0;
    let strategy = FnStrategy::new(move |_view: &bprc_sim::ScheduleView<'_>| {
        step += 1;
        match step {
            1 => Decision::Grant(0),
            2 => Decision::Crash(0),
            _ => Decision::Grant(1),
        }
    });
    let rep = w.run(bodies, Box::new(strategy));
    assert_eq!(a.peek(), 7, "first write landed");
    assert_eq!(rep.outputs[1], Some(0), "second write never did");
}

#[test]
fn histories_are_identical_across_reruns_with_solo_bursts() {
    let run = || {
        let mut w = World::builder(3).build();
        let r = w.reg("r", 0u64);
        let bodies: Vec<ProcBody<u64>> = (0..3)
            .map(|i| {
                let r = r.clone();
                let b: ProcBody<u64> = Box::new(move |ctx| {
                    for k in 0..10 {
                        r.write(ctx, i as u64 * 100 + k)?;
                    }
                    r.read(ctx)
                });
                b
            })
            .collect();
        let rep = w.run(bodies, Box::new(SoloBursts::new(4)));
        let ops: Vec<_> = rep.history.unwrap().ops().collect();
        (rep.outputs.clone(), ops)
    };
    assert_eq!(run(), run());
}

#[test]
fn step_limit_zero_halts_immediately() {
    // Free mode used to count the refused access as a step.
    for mode in [Mode::Lockstep, Mode::Free] {
        let mut w = World::builder(1).mode(mode).step_limit(0).build();
        let r = w.reg("r", 0u8);
        let bodies: Vec<ProcBody<u8>> = vec![Box::new(move |ctx| r.read(ctx))];
        let rep = w.run(bodies, Box::new(RoundRobin::new()));
        assert_eq!(rep.halted[0], Some(Halted::StepLimit), "{mode:?}");
        assert_eq!(rep.steps, 0, "{mode:?}");
        assert_eq!(rep.per_proc_steps, vec![0], "{mode:?}");
    }
}

#[test]
fn free_mode_with_many_threads_is_linearizable_per_register() {
    // 8 threads hammer one register; whatever the interleaving, every read
    // observes some written value (or the initial one).
    let mut w = World::builder(8)
        .mode(Mode::Free)
        .step_limit(u64::MAX)
        .build();
    let r = w.reg("r", 0u64);
    let bodies: Vec<ProcBody<()>> = (0..8)
        .map(|i| {
            let r = r.clone();
            let b: ProcBody<()> = Box::new(move |ctx| {
                for k in 0..200u64 {
                    r.write(ctx, (i as u64) << 32 | k)?;
                    let v = r.read(ctx)?;
                    let writer = v >> 32;
                    let val = v & 0xFFFF_FFFF;
                    assert!(writer < 8 && val < 200 || v == 0, "torn value {v:#x}");
                }
                Ok(())
            });
            b
        })
        .collect();
    let rep = w.run(bodies, Box::new(RoundRobin::new()));
    assert_eq!(rep.decided_count(), 8);
}

#[test]
fn bodies_that_never_touch_memory_finish() {
    let mut w = World::builder(2).build();
    let bodies: Vec<ProcBody<u32>> = vec![Box::new(|_| Ok(1)), Box::new(|_| Ok(2))];
    let rep = w.run(bodies, Box::new(RoundRobin::new()));
    assert_eq!(rep.outputs, vec![Some(1), Some(2)]);
    assert_eq!(rep.steps, 0);
}

#[test]
fn annotations_keep_deterministic_order() {
    let run = || {
        let mut w = World::builder(2).build();
        let r = w.reg("r", 0u8);
        let bodies: Vec<ProcBody<()>> = (0..2)
            .map(|i| {
                let r = r.clone();
                let b: ProcBody<()> = Box::new(move |ctx| {
                    for k in 0..5u64 {
                        ctx.annotate("tick", vec![i as u64, k]);
                        r.write(ctx, k as u8)?;
                    }
                    Ok(())
                });
                b
            })
            .collect();
        let rep = w.run(bodies, Box::new(RandomStrategy::new(9)));
        rep.history
            .unwrap()
            .notes_labelled("tick")
            .map(|(s, p, n)| (s, p, n.data.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}
