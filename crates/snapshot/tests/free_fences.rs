//! Comparability of two free-thread scans on real hardware.
//!
//! Two processes of a [`Mode::Free`] world share an n = 2 handshake memory
//! over `DirectArrow`s. Each round, behind a barrier, each process updates
//! its value to the round number and then scans. Whichever of the two
//! scans is linearized second must see the other's update of that round,
//! so in every round at least one scan sees it. That is the
//! store-buffering shape: each process writes its value register and then
//! reads the other's. If each read could pass its own process's earlier
//! write, both scans could miss both updates.
//!
//! What orders that write before that read in free mode is `Ctx::fence`,
//! a `SeqCst` fence there, at the update's post-write point and the scan's
//! post-lower point. An arrow write that leaves its bit unchanged is a
//! load, not an RMW, so no arrow access orders anything on its own.
//!
//! What this test cannot show: on a strongly ordered host (x86) a store
//! leaves the store buffer long before the scan's collect reads, so a
//! build whose free-mode fence does nothing passes here too. This test
//! guards the property on real threads; the teeth for the fences
//! themselves are the verification gate's lockstep weak-memory rows
//! (`snapshot-n2-writer-scanner-{tso,pso}` and `fixture-missing-fence`),
//! whose store buffers free mode's fences follow.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bprc_registers::DirectArrow;
use bprc_sim::sched::RoundRobin;
use bprc_sim::world::ProcBody;
use bprc_sim::{Mode, World};
use bprc_snapshot::ScannableMemory;

const ROUNDS: u64 = 200_000;

/// Waits until both processes have arrived at round `r` (1-based).
/// `arrived` counts arrivals: 2r once both are in round `r`, and neither
/// can arrive at round r + 1 before the other has arrived at round `r`.
/// Yields while it waits, so the test also runs on one CPU.
fn barrier(arrived: &AtomicU64, r: u64) {
    arrived.fetch_add(1, Ordering::SeqCst);
    while arrived.load(Ordering::SeqCst) < 2 * r {
        std::thread::yield_now();
    }
}

#[test]
fn in_every_round_one_scan_sees_the_others_update() {
    let mut world = World::builder(2)
        .mode(Mode::Free)
        .step_limit(u64::MAX)
        .build();
    let mem = ScannableMemory::<u64, DirectArrow>::new_fast(&world, 2, 0);
    let arrived = Arc::new(AtomicU64::new(0));
    // Each process returns, per round, whether its scan saw the other
    // process's update of that round.
    let bodies: Vec<ProcBody<Vec<bool>>> = (0..2)
        .map(|me| {
            let mut port = mem.port(me);
            let arrived = Arc::clone(&arrived);
            let body: ProcBody<Vec<bool>> = Box::new(move |ctx| {
                let mut view = Vec::with_capacity(2);
                let mut saw = Vec::with_capacity(ROUNDS as usize);
                for r in 1..=ROUNDS {
                    barrier(&arrived, r);
                    port.update(ctx, r)?;
                    port.scan_into(ctx, &mut view)?;
                    let other = view[1 - me];
                    // The other process is in this round, so its value is
                    // this round's or the last one's.
                    assert!(
                        view[me] == r && (other == r || other + 1 == r),
                        "pid {me}, round {r}: view {view:?}"
                    );
                    saw.push(other == r);
                }
                Ok(saw)
            });
            body
        })
        .collect();
    let rep = world.run(bodies, Box::new(RoundRobin::new()));
    assert!(
        rep.panics.iter().all(Option::is_none),
        "a body panicked: {:?}",
        rep.panics
    );
    let [a, b] = [0, 1].map(|pid| rep.outputs[pid].clone().expect("the body ran to its end"));
    assert_eq!((a.len(), b.len()), (ROUNDS as usize, ROUNDS as usize));
    let missed: Vec<usize> = (0..a.len()).filter(|&i| !a[i] && !b[i]).collect();
    assert!(
        missed.is_empty(),
        "{} of {ROUNDS} rounds had two scans that each missed the other's update, \
         the first round {}",
        missed.len(),
        missed[0] + 1
    );
}
