//! A swap-based consensus entrant: commit-adopt rounds conciliated by a
//! `swap` race (after the swap-algorithms line of Ovens, arXiv 2305.06507).
//!
//! `swap` has consensus number 2, so unlike the register-only baselines this
//! protocol gets to lean on a primitive that *deterministically* serializes
//! two contenders. The structure is the classic round framework:
//!
//! 1. **Commit-adopt** (Gafni-style, two collect phases over per-process
//!    registers): if a process sees only its own value it *commits* and the
//!    object guarantees every other process leaves the round carrying that
//!    value; otherwise it *adopts* the unique "clean" value it saw (if any).
//! 2. **Swap-race conciliator**: every non-committing process swaps its
//!    value into the round's race register. The unique process that saw
//!    `None` come back is the round leader and publishes its value; a
//!    trailing process adopts the leader's published value, or — only when
//!    it holds evidence that *both* values are in play — falls back to a
//!    local coin flip.
//!
//! Safety (agreement + validity) is unconditional and comes entirely from
//! the commit-adopt layer plus a decision register that only ever holds
//! committed values; the swap race and the coin affect *convergence speed*
//! only. Termination is probabilistic: the protocol pre-allocates
//! `max_rounds` rounds (keeping every register bounded) and a process that
//! exhausts them parks on the decision register until the step budget
//! expires, which the harness reports honestly as an undecided run.
//!
//! For two processes the conciliator is deterministic — the swap race has
//! exactly one loser, and it adopts either the leader's published value or
//! the value the swap handed back — which is the consensus-number-2 power
//! of `swap` showing through.

use std::sync::Arc;

use bprc_coin::flip::Flips;
use bprc_sim::reg::Reg;
use bprc_sim::rng::derive_seed;
use bprc_sim::world::{ProcBody, World};
use bprc_sim::Gauge;

/// Bits one conciliator or marker register holds: a presence bit plus the
/// payload (`Option<(bool, bool)>` is the widest at 1 + 2). Constant — the
/// whole point of pre-allocating the rounds.
pub const SWAP_RACE_REGISTER_BITS: u64 = 3;

/// One register per round per process, indexed `[r][p]`.
type PerRoundPerProc<T> = Vec<Vec<Reg<Option<T>>>>;

/// The shared register file of one swap-race instance.
struct Shared {
    /// `r1[r][p]`: round `r` phase-1 proposal of process `p`.
    r1: PerRoundPerProc<bool>,
    /// `r2[r][p]`: round `r` phase-2 `(clean, value)` report of process `p`.
    r2: PerRoundPerProc<(bool, bool)>,
    /// `s[r]`: round `r` swap-race register (the conciliator).
    s: Vec<Reg<Option<bool>>>,
    /// `w[r]`: round `r` leader's published value.
    w: Vec<Reg<Option<bool>>>,
    /// The decision register — only ever written with committed values.
    d: Reg<Option<bool>>,
}

fn alloc(world: &World, n: usize, max_rounds: usize) -> Arc<Shared> {
    let per_round_per_proc = |tag: &str, r: usize| {
        (0..n)
            .map(move |p| format!("swap.{tag}[{r}][{p}]"))
            .collect::<Vec<_>>()
    };
    Arc::new(Shared {
        r1: (0..max_rounds)
            .map(|r| {
                per_round_per_proc("r1", r)
                    .into_iter()
                    .map(|name| world.reg(name, None))
                    .collect()
            })
            .collect(),
        r2: (0..max_rounds)
            .map(|r| {
                per_round_per_proc("r2", r)
                    .into_iter()
                    .map(|name| world.reg(name, None))
                    .collect()
            })
            .collect(),
        s: (0..max_rounds)
            .map(|r| world.reg(format!("swap.s[{r}]"), None))
            .collect(),
        w: (0..max_rounds)
            .map(|r| world.reg(format!("swap.w[{r}]"), None))
            .collect(),
        d: world.reg("swap.d", None),
    })
}

/// Builds one body per process for a swap-race consensus instance over
/// `world`'s registers. `max_rounds` bounds the pre-allocated rounds (and
/// thereby the register file). Each body publishes its round as
/// [`Gauge::Round`] and the (constant) register width as
/// [`Gauge::MaxRegisterBits`].
///
/// # Panics
///
/// Panics if `inputs.len()` differs from the world size or `max_rounds`
/// is zero.
pub fn swap_race_bodies(
    world: &World,
    inputs: &[bool],
    seed: u64,
    max_rounds: usize,
) -> Vec<ProcBody<bool>> {
    let n = inputs.len();
    assert_eq!(world.n(), n, "one process per world slot");
    assert!(max_rounds > 0, "at least one round");
    let shared = alloc(world, n, max_rounds);
    inputs
        .iter()
        .enumerate()
        .map(|(pid, &input)| {
            let sh = Arc::clone(&shared);
            let body: ProcBody<bool> = Box::new(move |ctx| {
                ctx.metrics()
                    .gauge_max(Gauge::MaxRegisterBits, SWAP_RACE_REGISTER_BITS);
                let mut flips = Flips::fair(derive_seed(seed, pid as u64));
                let mut v = input;
                for r in 0..max_rounds {
                    ctx.metrics().gauge_set(Gauge::Round, r as u64 + 1);
                    // Fast path: a committed decision is the only value any
                    // round can ever commit again, so adopting it is safe.
                    if let Some(dv) = sh.d.read(ctx)? {
                        return Ok(dv);
                    }
                    // Commit-adopt phase 1: propose, then collect.
                    sh.r1[r][pid].write(ctx, Some(v))?;
                    let mut clean = true;
                    for j in 0..n {
                        if let Some(other) = sh.r1[r][j].read(ctx)? {
                            if other != v {
                                clean = false;
                            }
                        }
                    }
                    // Commit-adopt phase 2: report, then collect. Commit
                    // only if every visible report is clean with my value;
                    // otherwise adopt the unique clean value, if one shows.
                    sh.r2[r][pid].write(ctx, Some((clean, v)))?;
                    let mut commit = clean;
                    let mut clean_val: Option<bool> = None;
                    for j in 0..n {
                        if let Some((c, other)) = sh.r2[r][j].read(ctx)? {
                            if c {
                                clean_val = Some(other);
                            }
                            if !(c && other == v) {
                                commit = false;
                            }
                        }
                    }
                    if commit {
                        sh.d.write(ctx, Some(v))?;
                        return Ok(v);
                    }
                    if let Some(cv) = clean_val {
                        v = cv;
                    }
                    // Swap-race conciliator: first swapper leads the round.
                    let prev = sh.s[r].swap(ctx, Some(v))?;
                    v = match prev {
                        None => {
                            sh.w[r].write(ctx, Some(v))?;
                            v
                        }
                        Some(pv) if pv == v => v,
                        Some(pv) => match sh.w[r].read(ctx)? {
                            Some(leader) => leader,
                            // Both values are provably in play (mine and
                            // `pv` differ), so a coin flip stays valid.
                            None => {
                                let _ = pv;
                                flips.flip()
                            }
                        },
                    };
                }
                // Out of pre-allocated rounds without committing: park on
                // the decision register. The step budget turns this into
                // an honest undecided run if nobody ever commits.
                loop {
                    if let Some(dv) = sh.d.read(ctx)? {
                        return Ok(dv);
                    }
                }
            });
            body
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bprc_sim::sched::RandomStrategy;
    use bprc_sim::{Counter, World};

    fn run(n: usize, inputs: &[bool], seed: u64) -> bprc_sim::world::RunReport<bool> {
        let mut world = World::builder(n).step_limit(2_000_000).build();
        let bodies = swap_race_bodies(&world, inputs, seed, 64);
        world.run(bodies, Box::new(RandomStrategy::new(seed)))
    }

    #[test]
    fn validity_unanimous() {
        for v in [false, true] {
            let rep = run(3, &[v; 3], 9);
            assert!(rep.outputs.iter().all(|o| *o == Some(v)));
        }
    }

    #[test]
    fn agreement_mixed_inputs() {
        for seed in 0..12 {
            let rep = run(3, &[true, false, true], seed);
            let decided: Vec<bool> = rep.outputs.iter().filter_map(|o| *o).collect();
            assert!(!decided.is_empty(), "seed {seed}: someone should decide");
            assert!(
                decided.windows(2).all(|w| w[0] == w[1]),
                "seed {seed}: agreement violated: {decided:?}"
            );
        }
    }

    #[test]
    fn two_process_race_is_deterministic_per_schedule() {
        // Consensus number 2: with two processes the conciliator never
        // needs the coin, so replaying the same schedule (same seed) must
        // reproduce the same decision.
        for seed in 0..8 {
            let a = run(2, &[true, false], seed);
            let b = run(2, &[true, false], seed);
            assert_eq!(a.outputs, b.outputs, "seed {seed}");
        }
    }

    #[test]
    fn swaps_show_up_in_both_telemetry_columns() {
        let rep = run(2, &[true, false], 4);
        // At least one conciliator swap happened somewhere, and the access
        // gate counted it as a read AND a write.
        assert!(rep.telemetry.total(Counter::RegReads) > 0);
        assert!(rep.telemetry.total(Counter::RegWrites) > 0);
        let h = rep.history.as_ref().expect("lockstep records history");
        let swaps = h
            .ops()
            .filter(|(_, _, kind, _, _)| matches!(kind, bprc_sim::history::OpKind::Swap))
            .count();
        assert!(swaps >= 1, "the race register must be swapped");
    }
}
