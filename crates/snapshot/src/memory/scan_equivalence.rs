//! Buffer-reuse scans must be observationally identical to the pre-change
//! clone-based implementation, `scan_legacy`, which lives here: it is a
//! reference for these tests only, and reads the port's private fields.
//!
//! The reuse path keeps two persistent collect buffers on the port and skips
//! re-cloning slots whose ghost sequence number is unchanged. The bug class
//! that invites is stale caching: a wrong skip leaves an old value in the
//! buffer and the scan returns a snapshot that never existed. These tests
//! drive both implementations over identical memory states — seeded random
//! action sequences (an in-test LCG picks the actions) — and
//! require the views to match exactly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bprc_registers::{DirectArrow, HandshakeArrow};
use bprc_sim::sched::{FnStrategy, SoloBursts};
use bprc_sim::world::ProcBody;
use bprc_sim::{Decision, ScheduleView};

use super::*;

impl<T, A> Port<T, A>
where
    T: Clone + PartialEq + Send + Sync + 'static,
    A: ArrowCell,
{
    /// The original allocating scan, kept as the reference implementation:
    /// fresh collect vectors every attempt, full second collect, full arrow
    /// re-read, every register access a plain one-shot `read` that clones
    /// the whole slot — no version tokens, no buffer reuse, no early exits.
    /// The tests below check the optimized scans against it.
    ///
    /// # Errors
    ///
    /// As for [`scan`](Port::scan).
    fn scan_legacy(&mut self, ctx: &mut Ctx) -> Result<Vec<T>, Halted> {
        let n = self.shared.n;
        let budget = self.shared.scan_retry_budget.load(Ordering::Relaxed);
        let mut tries: u64 = 0;
        ctx.annotate(labels::SCAN_START, vec![]);
        loop {
            tries += 1;
            ctx.count(Counter::ScanAttempts, 1);
            if tries > 1 {
                ctx.count(Counter::ScanRetries, 1);
            }
            for j in 0..n {
                if let Some(a) = &self.shared.arrows[j][self.me] {
                    a.lower(ctx)?;
                }
            }
            // Same weak-memory drain as the optimized scan (see
            // [`Port::scan_slots`]); keeps the two implementations
            // access-equivalent under every memory mode.
            ctx.fence()?;
            let mut c1: Vec<Option<Slot<T>>> = vec![None; n];
            for (j, slot) in c1.iter_mut().enumerate() {
                if j != self.me {
                    *slot = Some(self.shared.values[j].read(ctx)?);
                }
            }
            let mut c2: Vec<Option<Slot<T>>> = vec![None; n];
            for (j, slot) in c2.iter_mut().enumerate() {
                if j != self.me {
                    *slot = Some(self.shared.values[j].read(ctx)?);
                }
            }
            let mut raised = false;
            for j in 0..n {
                if let Some(a) = &self.shared.arrows[j][self.me] {
                    if a.is_raised(ctx)? {
                        raised = true;
                    }
                }
            }
            ctx.count(Counter::CollectReads, 2 * (n as u64 - 1));
            let stable = !raised
                && c1.iter().zip(&c2).all(|(x, y)| match (x, y) {
                    (Some(x), Some(y)) => x.same_visible(y),
                    (None, None) => true,
                    _ => unreachable!("collects fill the same slots"),
                });
            if stable {
                let view: Vec<Slot<T>> = c2
                    .into_iter()
                    .enumerate()
                    .map(|(j, s)| match s {
                        Some(s) => s,
                        None => {
                            // The port's own slot, which `update` keeps.
                            debug_assert_eq!(j, self.me);
                            self.c2[j].clone()
                        }
                    })
                    .collect();
                ctx.annotate(labels::SCAN_END, view.iter().map(|s| s.seq).collect());
                ctx.count(Counter::Scans, 1);
                return Ok(view.into_iter().map(|s| s.value).collect());
            }
            if budget != 0 && tries >= budget {
                ctx.count(Counter::ScanStarved, 1);
                return Err(Halted::ScanStarved);
            }
        }
    }
}

/// Minimal deterministic generator so the test needs no external crates.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Every process owns its own port and performs a seeded sequence of
/// actions: an update, or a back-to-back triple of buffer-reuse scan,
/// legacy scan, and allocating scan. The strategy below grants each chosen
/// process an entire action atomically (it watches per-process action
/// counters rather than guessing op counts), so all scans in a triple
/// observe the same memory and any divergence is a caching bug — while
/// other processes' updates between a process's consecutive scans keep the
/// seq-keyed skip logic under pressure.
fn solo_action_equivalence<A: ArrowCell>(seed: u64) {
    let n = 4;
    let mut world = World::builder(n).step_limit(2_000_000).build();
    let mem = ScannableMemory::<u64, A>::new(&world, n, 0);
    let actions: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
    let bodies: Vec<ProcBody<()>> = (0..n)
        .map(|i| {
            let mut port = mem.port(i);
            let acts = Arc::clone(&actions);
            let b: ProcBody<()> = Box::new(move |ctx| {
                let mut rng = seed
                    .wrapping_mul(0x9E37_79B9)
                    .wrapping_add(i as u64 + 1);
                let mut reuse_view: Vec<u64> = Vec::new();
                for step in 0..25u64 {
                    if !lcg(&mut rng).is_multiple_of(3) {
                        port.update(ctx, (i as u64 + 1) * 10_000 + step)?;
                    } else {
                        port.scan_into(ctx, &mut reuse_view)?;
                        let legacy_view = port.scan_legacy(ctx)?;
                        assert_eq!(
                            reuse_view, legacy_view,
                            "seed {seed} pid {i} step {step}: buffer-reuse scan diverged from legacy"
                        );
                        let alloc_view = port.scan(ctx)?;
                        assert_eq!(
                            alloc_view, legacy_view,
                            "seed {seed} pid {i} step {step}: allocating scan wrapper diverged"
                        );
                    }
                    acts[i].fetch_add(1, Ordering::Relaxed);
                }
                Ok(())
            });
            b
        })
        .collect();
    // Grant whole actions: stick with the current process until its action
    // counter advances (or it finishes), then pick the next one at random.
    let acts = Arc::clone(&actions);
    let mut rng = seed.wrapping_mul(0xA24B_AED4).wrapping_add(7);
    let mut cur: Option<(usize, u64)> = None;
    let strategy = FnStrategy::new(move |view: &ScheduleView<'_>| {
        let done = match cur {
            Some((p, since)) => {
                !view.runnable.contains(&p) || acts[p].load(Ordering::Relaxed) > since
            }
            None => true,
        };
        if done {
            let p = view.runnable[(lcg(&mut rng) as usize) % view.runnable.len()];
            cur = Some((p, acts[p].load(Ordering::Relaxed)));
        }
        Decision::Grant(cur.unwrap().0)
    });
    let rep = world.run(bodies, Box::new(strategy));
    assert_eq!(rep.decided_count(), n, "seed {seed}: run halted early");
}

#[test]
fn solo_scan_pairs_match_legacy_direct_arrows() {
    for seed in 0..60 {
        solo_action_equivalence::<DirectArrow>(seed);
    }
}

#[test]
fn solo_scan_pairs_match_legacy_handshake_arrows() {
    for seed in 0..30 {
        solo_action_equivalence::<HandshakeArrow>(seed);
    }
}

/// Cross-world check with every process active: run the same solo-burst
/// schedule once with buffer-reuse scans and once with legacy scans. Giant
/// bursts mean every scan succeeds on its first attempt, where both
/// implementations are pinned to the same scheduled op count — so the two
/// worlds stay in lockstep and must produce identical view sequences.
#[test]
fn whole_runs_match_legacy_under_solo_bursts() {
    let n = 3;
    let rounds = 5u64;
    let run = |legacy: bool| -> Vec<Option<Vec<Vec<u64>>>> {
        let mut world = World::builder(n).step_limit(2_000_000).build();
        let mem = ScannableMemory::<u64, DirectArrow>::new(&world, n, 0);
        let bodies: Vec<ProcBody<Vec<Vec<u64>>>> = (0..n)
            .map(|i| {
                let mut port = mem.port(i);
                let b: ProcBody<Vec<Vec<u64>>> = Box::new(move |ctx| {
                    let mut views = Vec::new();
                    for k in 0..rounds {
                        port.update(ctx, (i as u64 + 1) * 1000 + k)?;
                        views.push(if legacy {
                            port.scan_legacy(ctx)?
                        } else {
                            port.scan(ctx)?
                        });
                    }
                    Ok(views)
                });
                b
            })
            .collect();
        world
            .run(bodies, Box::new(SoloBursts::new(100_000)))
            .outputs
    };
    assert_eq!(run(false), run(true), "reuse and legacy runs diverged");
}
