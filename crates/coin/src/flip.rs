//! Local coin flips.
//!
//! The model gives each process a *local* fair coin the adversary cannot
//! bias (it sees outcomes only after they are flipped). For experiments we
//! also want biased and scripted sources — e.g. to verify that the walk's
//! barriers and the overflow rule behave as analyzed under worst-case flip
//! sequences.

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A process's local coin (`true` = heads): a closed, clonable sum of every
/// flip source, plus a [`Flips::Queue`] variant that draws from an
/// externally loaded queue — the hook the model checker uses to *branch* on
/// flip outcomes instead of sampling them.
///
/// Protocol cores store a `Flips` by value so they stay `Clone`-able, which
/// exhaustive state-space exploration needs.
#[derive(Debug, Clone)]
pub enum Flips {
    /// Fair seeded flips.
    Fair(SmallRng),
    /// Heads with probability `p`.
    Biased {
        /// The seeded generator.
        rng: SmallRng,
        /// `P(heads)`.
        p: f64,
    },
    /// Replays `script`, then repeats its last element (or heads if empty).
    /// For deterministic worst-case tests.
    Scripted {
        /// The flips to replay.
        script: Vec<bool>,
        /// How many of them have been drawn.
        at: usize,
    },
    /// Flips drawn from a queue loaded by the driver; **panics when empty**
    /// (the model checker always pre-loads exactly one outcome before a
    /// step that might flip).
    Queue(VecDeque<bool>),
}

impl Flips {
    /// A fair source from a seed.
    pub fn fair(seed: u64) -> Self {
        Flips::Fair(SmallRng::seed_from_u64(seed))
    }

    /// A biased source: `P(heads) = p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn biased(seed: u64, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        Flips::Biased {
            rng: SmallRng::seed_from_u64(seed),
            p,
        }
    }

    /// A source replaying `script`.
    pub fn scripted(script: Vec<bool>) -> Self {
        Flips::Scripted { script, at: 0 }
    }

    /// An empty queue source (load with [`Flips::push_outcome`]).
    pub fn queue() -> Self {
        Flips::Queue(VecDeque::new())
    }

    /// Draws the next flip.
    ///
    /// # Panics
    ///
    /// Panics on an empty [`Flips::Queue`].
    pub fn flip(&mut self) -> bool {
        match self {
            Flips::Fair(rng) => rng.gen::<bool>(),
            Flips::Biased { rng, p } => rng.gen::<f64>() < *p,
            Flips::Scripted { script, at } => {
                let v = script.get(*at).copied();
                if *at < script.len() {
                    *at += 1;
                }
                v.or_else(|| script.last().copied()).unwrap_or(true)
            }
            Flips::Queue(q) => q
                .pop_front()
                .expect("flip queue exhausted: the driver must pre-load outcomes"),
        }
    }

    /// Appends a predetermined outcome (only for [`Flips::Queue`]).
    ///
    /// # Panics
    ///
    /// Panics on non-queue variants.
    pub fn push_outcome(&mut self, heads: bool) {
        match self {
            Flips::Queue(q) => q.push_back(heads),
            _ => panic!("push_outcome requires a Flips::Queue source"),
        }
    }

    /// Outcomes currently queued (0 for non-queue variants).
    pub fn queued(&self) -> usize {
        match self {
            Flips::Queue(q) => q.len(),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flips_enum_dispatches() {
        let mut f = Flips::fair(3);
        let a: Vec<bool> = (0..8).map(|_| f.flip()).collect();
        let mut g = Flips::fair(3);
        let b: Vec<bool> = (0..8).map(|_| g.flip()).collect();
        assert_eq!(a, b);
        let mut s = Flips::scripted(vec![true, false]);
        assert!(s.flip());
        assert!(!s.flip());
    }

    #[test]
    fn queue_variant_replays_loaded_outcomes() {
        let mut q = Flips::queue();
        assert_eq!(q.queued(), 0);
        q.push_outcome(true);
        q.push_outcome(false);
        assert_eq!(q.queued(), 2);
        assert!(q.flip());
        assert!(!q.flip());
        assert_eq!(q.queued(), 0);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn empty_queue_panics() {
        let mut q = Flips::queue();
        let _ = q.flip();
    }

    #[test]
    fn fair_is_reproducible_and_roughly_fair() {
        let mut a = Flips::fair(5);
        let mut b = Flips::fair(5);
        let sa: Vec<bool> = (0..64).map(|_| a.flip()).collect();
        let sb: Vec<bool> = (0..64).map(|_| b.flip()).collect();
        assert_eq!(sa, sb);
        let heads = sa.iter().filter(|&&h| h).count();
        assert!((10..=54).contains(&heads), "wildly unfair: {heads}/64");
    }

    #[test]
    fn biased_extremes() {
        let mut always = Flips::biased(1, 1.0);
        let mut never = Flips::biased(1, 0.0);
        assert!((0..32).all(|_| always.flip()));
        assert!((0..32).all(|_| !never.flip()));
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn biased_rejects_a_non_probability() {
        let _ = Flips::biased(1, 1.5);
    }

    #[test]
    fn scripted_replays_then_repeats_last() {
        let mut s = Flips::scripted(vec![true, false, false]);
        assert_eq!(
            (0..5).map(|_| s.flip()).collect::<Vec<_>>(),
            vec![true, false, false, false, false]
        );
        let mut empty = Flips::scripted(vec![]);
        assert!(empty.flip(), "empty script defaults to heads");
    }
}
