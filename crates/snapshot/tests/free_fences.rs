//! Comparability of free-thread scans on real hardware.
//!
//! The processes of a [`Mode::Free`] world share a handshake memory. Each
//! round, behind a barrier, each process updates its value to the round
//! number and then scans. Of any two processes, whichever scan is
//! linearized second must see the other's update of that round, so in
//! every round, for every pair, at least one of the two scans sees the
//! other's update. That is the store-buffering shape: each process writes
//! its value register and then reads the others'. If each read could pass
//! its own process's earlier write, two scans could miss each other's
//! updates.
//!
//! What orders that write before that read in free mode is `Ctx::fence`,
//! a `SeqCst` fence there, at the update's post-write point and the scan's
//! post-lower point. An arrow write that leaves its bit unchanged is a
//! load, not an RMW, so no arrow access orders anything on its own.
//!
//! At n = 2 every phase of a scan or an update is one access; at n = 4 it
//! is three, which a free-mode port takes through one run gate, so the
//! n = 4 cases also race the runs of four processes against each other,
//! over both arrow types.
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

use bprc_registers::{ArrowCell, DirectArrow, HandshakeArrow};
use bprc_sim::sched::RoundRobin;
use bprc_sim::world::ProcBody;
use bprc_sim::{Mode, World};
use bprc_snapshot::ScannableMemory;

/// Waits until all `n` processes have arrived at round `r` (1-based).
/// `arrived` counts arrivals: n·r once all are in round `r`, and none can
/// arrive at round r + 1 before every other has arrived at round `r`.
/// Yields while it waits, so the test also runs on one CPU.
fn barrier(arrived: &AtomicU64, n: u64, r: u64) {
    arrived.fetch_add(1, Ordering::SeqCst);
    while arrived.load(Ordering::SeqCst) < n * r {
        std::thread::yield_now();
    }
}

/// Runs `rounds` barrier rounds of update-then-scan on `n` free threads
/// over arrows `A`, and checks that in every round, for every pair of
/// processes, at least one scan saw the other's update of that round.
fn in_every_round_every_pair_is_comparable<A: ArrowCell>(n: usize, rounds: u64) {
    let mut world = World::builder(n)
        .mode(Mode::Free)
        .step_limit(u64::MAX)
        .build();
    let mem = ScannableMemory::<u64, A>::new_fast(&world, n, 0);
    let arrived = Arc::new(AtomicU64::new(0));
    // Each process returns, per round, which processes' updates of that
    // round its scan saw.
    let bodies: Vec<ProcBody<Vec<Vec<bool>>>> = (0..n)
        .map(|me| {
            let mut port = mem.port(me);
            let arrived = Arc::clone(&arrived);
            let body: ProcBody<Vec<Vec<bool>>> = Box::new(move |ctx| {
                let mut view = Vec::with_capacity(n);
                let mut saw = Vec::with_capacity(rounds as usize);
                for r in 1..=rounds {
                    barrier(&arrived, n as u64, r);
                    port.update(ctx, r)?;
                    port.scan_into(ctx, &mut view)?;
                    // Every other process is in this round, so its value
                    // is this round's or the last one's.
                    assert!(
                        view[me] == r && view.iter().all(|&v| v == r || v + 1 == r),
                        "pid {me}, round {r}: view {view:?}"
                    );
                    saw.push(view.iter().map(|&v| v == r).collect());
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
    let saw: Vec<Vec<Vec<bool>>> = (0..n)
        .map(|pid| rep.outputs[pid].clone().expect("the body ran to its end"))
        .collect();
    assert!(saw.iter().all(|s| s.len() == rounds as usize));
    let pairs = (0..n).flat_map(|p| (p + 1..n).map(move |q| (p, q)));
    for (p, q) in pairs {
        let missed: Vec<usize> = (0..rounds as usize)
            .filter(|&i| !saw[p][i][q] && !saw[q][i][p])
            .collect();
        assert!(
            missed.is_empty(),
            "n = {n}, pids {p} and {q}: {} of {rounds} rounds had two scans that each \
             missed the other's update, the first round {}",
            missed.len(),
            missed[0] + 1
        );
    }
}

#[test]
fn in_every_round_one_scan_sees_the_others_update() {
    in_every_round_every_pair_is_comparable::<DirectArrow>(2, 200_000);
}

#[test]
fn at_n4_every_pair_is_comparable_over_direct_arrows() {
    in_every_round_every_pair_is_comparable::<DirectArrow>(4, 50_000);
}

#[test]
fn at_n4_every_pair_is_comparable_over_handshake_arrows() {
    in_every_round_every_pair_is_comparable::<HandshakeArrow>(4, 50_000);
}
