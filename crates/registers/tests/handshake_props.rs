//! History-checked properties of the handshake arrow under randomized
//! lockstep schedules: the *no-lost-signal* guarantee the snapshot
//! construction relies on.
//!
//! Property: a raise that begins strictly after a lower completes is seen
//! by every check that begins after the raise completes (until the next
//! lower). Equivalently: a check may report "lowered" only if every raise
//! since the last lower overlapped that lower (the documented absorption
//! window) or has not completed yet.

use bprc_registers::{ArrowCell, DirectArrow, HandshakeArrow};
use bprc_sim::history::History;
use bprc_sim::sched::RandomStrategy;
use bprc_sim::world::ProcBody;
use bprc_sim::World;

const RAISE_START: &str = "hs:raise:start";
const RAISE_END: &str = "hs:raise:end";
const LOWER_END: &str = "hs:lower:end";
const CHECK_START: &str = "hs:check:start";
const CHECK_RESULT: &str = "hs:check:result";

fn run_one<A: ArrowCell>(seed: u64, raises: u64, checks: u64) -> History {
    let mut world = World::builder(2).step_limit(1_000_000).build();
    let arrow = A::alloc(&world, "A", 0, 1);
    let a_w = arrow.clone();
    let a_s = arrow;
    let bodies: Vec<ProcBody<()>> = vec![
        Box::new(move |ctx| {
            for k in 0..raises {
                ctx.annotate(RAISE_START, vec![k]);
                a_w.raise(ctx)?;
                ctx.annotate(RAISE_END, vec![k]);
            }
            Ok(())
        }),
        Box::new(move |ctx| {
            for j in 0..checks {
                a_s.lower(ctx)?;
                ctx.annotate(LOWER_END, vec![j]);
                ctx.annotate(CHECK_START, vec![j]);
                let r = a_s.is_raised(ctx)?;
                ctx.annotate(CHECK_RESULT, vec![j, r as u64]);
            }
            Ok(())
        }),
    ];
    world
        .run(bodies, Box::new(RandomStrategy::new(seed)))
        .history
        .expect("lockstep records history")
}

/// Verifies the no-lost-signal property on one recorded history.
fn assert_no_lost_signal(history: &History, tag: &str) {
    let raises: Vec<(u64, u64)> = {
        // (start_step, end_step) per raise, paired by index.
        let starts: Vec<u64> = history
            .notes_labelled(RAISE_START)
            .map(|(s, _, _)| s)
            .collect();
        let ends: Vec<u64> = history
            .notes_labelled(RAISE_END)
            .map(|(s, _, _)| s)
            .collect();
        starts.into_iter().zip(ends).collect()
    };
    let lowers: Vec<u64> = history
        .notes_labelled(LOWER_END)
        .map(|(s, _, _)| s)
        .collect();
    let check_starts: Vec<u64> = history
        .notes_labelled(CHECK_START)
        .map(|(s, _, _)| s)
        .collect();
    let check_results: Vec<(u64, bool)> = history
        .notes_labelled(CHECK_RESULT)
        .map(|(_, _, n)| (n.data[0], n.data[1] == 1))
        .collect();

    for (idx, &(j, seen)) in check_results.iter().enumerate() {
        if seen {
            continue; // only "lowered" results can violate the property
        }
        let check_start = check_starts[idx];
        let last_lower_end = lowers[j as usize];
        // No raise may sit entirely inside (last_lower_end, check_start):
        // such a raise neither overlapped the lower (no absorption excuse)
        // nor was still in flight.
        for &(rs, re) in &raises {
            assert!(
                !(rs > last_lower_end && re < check_start),
                "{tag}: lost signal — raise [{rs},{re}] fully between lower end \
                 {last_lower_end} and check start {check_start} (check #{j})"
            );
        }
    }
}

#[test]
fn handshake_never_loses_a_clean_raise() {
    for seed in 0..200 {
        let h = run_one::<HandshakeArrow>(seed, 6, 6);
        assert_no_lost_signal(&h, &format!("handshake seed {seed}"));
    }
}

#[test]
fn direct_arrow_never_loses_a_clean_raise() {
    for seed in 0..200 {
        let h = run_one::<DirectArrow>(seed, 6, 6);
        assert_no_lost_signal(&h, &format!("direct seed {seed}"));
    }
}

#[test]
fn checker_is_falsifiable() {
    // A fake history with a lost signal must be rejected: lower ends at 10,
    // raise runs [12, 14], check starts at 20 and reports lowered.
    use bprc_sim::history::{Annotation, Event};
    let ev = vec![
        Event::Note {
            step: 10,
            pid: 1,
            note: Annotation::new(LOWER_END, vec![0]),
        },
        Event::Note {
            step: 12,
            pid: 0,
            note: Annotation::new(RAISE_START, vec![0]),
        },
        Event::Note {
            step: 14,
            pid: 0,
            note: Annotation::new(RAISE_END, vec![0]),
        },
        Event::Note {
            step: 20,
            pid: 1,
            note: Annotation::new(CHECK_START, vec![0]),
        },
        Event::Note {
            step: 22,
            pid: 1,
            note: Annotation::new(CHECK_RESULT, vec![0, 0]),
        },
    ];
    let h = History::from_events(ev);
    let caught = std::panic::catch_unwind(|| assert_no_lost_signal(&h, "fake"));
    assert!(caught.is_err(), "checker must reject a lost signal");
}
