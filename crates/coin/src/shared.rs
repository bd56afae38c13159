//! The shared coin over real `bprc-sim` registers — full-stack validation
//! of the same algorithm [`crate::montecarlo`] simulates.

use bprc_registers::Swmr;
use bprc_sim::{Counter, Ctx, EventKind, Halted, RegName, World};

use crate::flip::Flips;
use crate::params::CoinParams;
use crate::value::{coin_value_total, walk_step, CoinValue};

/// A bounded shared coin: one SWMR counter register per process.
#[derive(Debug, Clone)]
pub struct SharedCoin {
    params: CoinParams,
    counters: Vec<Swmr<i64>>,
}

impl SharedCoin {
    /// Allocates the coin's counters (all zero).
    pub fn new(world: &World, params: CoinParams) -> Self {
        assert_eq!(world.n(), params.n(), "coin size must match the world");
        let counters = (0..params.n())
            .map(|i| Swmr::new(world, RegName::indexed("c_", i), i, 0i64))
            .collect();
        SharedCoin { params, counters }
    }

    /// Takes process `pid`'s port.
    pub fn port(&self, pid: usize) -> CoinPort {
        assert!(pid < self.params.n(), "pid out of range");
        CoinPort {
            params: self.params,
            counters: self.counters.clone(),
            me: pid,
            own: 0,
            walk_steps: 0,
        }
    }
}

/// Process-local handle for flipping the shared coin.
#[derive(Debug)]
pub struct CoinPort {
    params: CoinParams,
    counters: Vec<Swmr<i64>>,
    me: usize,
    own: i64,
    walk_steps: u64,
}

impl CoinPort {
    /// Walk steps this process performed so far.
    pub fn walk_steps(&self) -> u64 {
        self.walk_steps
    }

    /// Evaluates the coin once: own-overflow check, then one collect of the
    /// other counters (paper's `coin_value`).
    ///
    /// # Errors
    ///
    /// Returns [`Halted`] if the scheduler stopped this process.
    pub fn coin_value(&mut self, ctx: &mut Ctx) -> Result<CoinValue, Halted> {
        if self.params.overflowed(self.own) {
            return Ok(CoinValue::Heads);
        }
        let mut total = self.own;
        for (j, c) in self.counters.iter().enumerate() {
            if j != self.me {
                total += c.read(ctx)?;
            }
        }
        Ok(coin_value_total(&self.params, self.own, total))
    }

    /// Performs one walk step (paper's `walk_step`): move the own counter by
    /// ±1 (saturating) according to `flips`, and publish it.
    ///
    /// # Errors
    ///
    /// Returns [`Halted`] if the scheduler stopped this process.
    pub fn walk_step(&mut self, ctx: &mut Ctx, flips: &mut Flips) -> Result<(), Halted> {
        let before = self.own;
        self.own = walk_step(&self.params, self.own, flips.flip());
        self.walk_steps += 1;
        ctx.count(Counter::CoinFlips, 1);
        ctx.trace_event(EventKind::CoinFlip, 1);
        if self.own == before {
            // The flip tried to move past ±Kn and the clamp held it there.
            ctx.count(Counter::WalkExtremes, 1);
        }
        self.counters[self.me].write(ctx, self.own)
    }

    /// Flips the shared coin to completion: alternate `coin_value` /
    /// `walk_step` until decided (the paper's usage pattern).
    ///
    /// # Errors
    ///
    /// Returns [`Halted`] if the scheduler stopped this process (e.g. the
    /// world's step limit expired first).
    pub fn flip(&mut self, ctx: &mut Ctx, flips: &mut Flips) -> Result<CoinValue, Halted> {
        loop {
            match self.coin_value(ctx)? {
                CoinValue::Undecided => self.walk_step(ctx, flips)?,
                v => return Ok(v),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bprc_sim::sched::{RandomStrategy, SoloBursts};
    use bprc_sim::world::{Mode, ProcBody};

    fn flip_bodies(
        coin: &SharedCoin,
        n: usize,
        mk_flips: impl Fn(usize) -> Flips,
    ) -> Vec<ProcBody<CoinValue>> {
        (0..n)
            .map(|i| {
                let mut port = coin.port(i);
                let mut flips = mk_flips(i);
                let b: ProcBody<CoinValue> = Box::new(move |ctx| port.flip(ctx, &mut flips));
                b
            })
            .collect()
    }

    #[test]
    fn lockstep_coin_decides_for_everyone() {
        for seed in 0..10 {
            let params = CoinParams::new(3, 2, 10_000);
            let mut world = bprc_sim::World::builder(3).step_limit(5_000_000).build();
            let coin = SharedCoin::new(&world, params);
            let bodies = flip_bodies(&coin, 3, |i| Flips::fair(seed * 100 + i as u64));
            let rep = world.run(bodies, Box::new(RandomStrategy::new(seed)));
            assert!(
                rep.outputs.iter().all(|o| o.is_some()),
                "seed {seed}: some process failed to decide"
            );
        }
    }

    #[test]
    fn biased_flips_decide_the_expected_side() {
        let params = CoinParams::new(2, 2, 10_000);
        let mut world = bprc_sim::World::builder(2).step_limit(1_000_000).build();
        let coin = SharedCoin::new(&world, params);
        let bodies = flip_bodies(&coin, 2, |i| Flips::biased(i as u64, 0.0));
        let rep = world.run(bodies, Box::new(RandomStrategy::new(1)));
        assert!(rep
            .outputs
            .iter()
            .all(|o| matches!(o, Some(CoinValue::Tails))));
    }

    #[test]
    fn counters_stay_bounded_through_the_run() {
        let params = CoinParams::new(2, 1, 3); // tiny m: overflow certain
        let mut world = bprc_sim::World::builder(2).step_limit(1_000_000).build();
        let coin = SharedCoin::new(&world, params);
        let bodies = flip_bodies(&coin, 2, |i| Flips::fair(i as u64));
        let rep = world.run(bodies, Box::new(SoloBursts::new(13)));
        assert!(rep.outputs.iter().all(|o| o.is_some()));
        for c in coin.counters.iter().map(Swmr::peek) {
            assert!(
                c.abs() <= params.counter_cap(),
                "counter {c} escaped ±(m+1)"
            );
        }
    }

    #[test]
    fn telemetry_counts_flips_and_extremes() {
        // One process, always-heads flips: it walks straight to +Kn, then
        // every further step is a clamped extreme until the coin decides.
        let params = CoinParams::new(1, 2, 10_000);
        let mut world = bprc_sim::World::builder(1).step_limit(1_000_000).build();
        let coin = SharedCoin::new(&world, params);
        let mut port = coin.port(0);
        let bodies: Vec<ProcBody<(CoinValue, u64)>> = vec![Box::new(move |ctx| {
            let mut flips = Flips::biased(7, 1.0);
            let v = port.flip(ctx, &mut flips)?;
            Ok((v, port.walk_steps()))
        })];
        let rep = world.run(bodies, Box::new(SoloBursts::new(64)));
        let (v, walk_steps) = rep.outputs[0].expect("decided");
        assert_eq!(v, CoinValue::Heads);
        let t = &rep.telemetry;
        // Every walk step consumed exactly one flip.
        assert_eq!(t.counter(0, Counter::CoinFlips), walk_steps);
        assert!(t.counter(0, Counter::CoinFlips) > 0);
        // All-heads from a fresh counter: no step is ever clamped before
        // the decision threshold (barrier Kn < decision boundary), so the
        // extreme count stays zero here...
        let extremes = t.counter(0, Counter::WalkExtremes);
        // ...unless the threshold sits past the cap; either way the count
        // can never exceed the flip count.
        assert!(extremes <= t.counter(0, Counter::CoinFlips));
        // Every walk step opened a coin span on the ring.
        assert_eq!(rep.flight.count(0, EventKind::CoinFlip) as u64, walk_steps);
    }

    #[test]
    fn free_running_threads_agree_usually() {
        // Large b: disagreement probability tiny; with OS scheduling we
        // simply require everyone decides and (for this seed) agreement.
        let params = CoinParams::new(4, 6, 100_000);
        let mut world = bprc_sim::World::builder(4)
            .mode(Mode::Free)
            .step_limit(u64::MAX)
            .build();
        let coin = SharedCoin::new(&world, params);
        let bodies = flip_bodies(&coin, 4, |i| Flips::fair(42 + i as u64));
        let rep = world.run(bodies, Box::new(RandomStrategy::new(0)));
        let decided: Vec<_> = rep.outputs.iter().flatten().collect();
        assert_eq!(decided.len(), 4);
    }
}
