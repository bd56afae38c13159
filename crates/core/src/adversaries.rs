//! Protocol-aware adversaries for the consensus experiments.
//!
//! The generic schedulers in [`bprc_sim::turn`] are oblivious; these two
//! inspect the protocol state (which the strong adversary of the model is
//! allowed to do) and try to delay agreement.

use bprc_sim::sched::{Decision, Strategy};
use bprc_sim::turn::{Turn, TurnView};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::bounded::view_graph;
use crate::state::{Pref, ProcState};

/// The classic anti-consensus strategy: keep the two preference camps
/// balanced. At every point it looks at the published preferences and steps
/// a process from the camp that is currently "losing" among the leaders —
/// trying to re-create disagreement just as the protocol approaches
/// unanimity. Randomized consensus is exactly the art of defeating this
/// adversary: the shared coin makes the camps collapse despite it.
#[derive(Debug)]
pub struct SplitAdversary {
    k: u32,
    rng: SmallRng,
}

impl SplitAdversary {
    /// Creates the adversary for a protocol with strip constant `k`.
    pub fn new(k: u32, seed: u64) -> Self {
        SplitAdversary {
            k,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl Strategy<Turn<ProcState>> for SplitAdversary {
    fn decide(&mut self, view: &TurnView<'_, ProcState>) -> Decision {
        let g = view_graph(view.shared, self.k);
        // Count leader preferences.
        let mut zeros = 0usize;
        let mut ones = 0usize;
        for l in g.leaders() {
            match view.shared[l].pref() {
                Pref::Val(false) => zeros += 1,
                Pref::Val(true) => ones += 1,
                Pref::Bottom => {}
            }
        }
        // If the leaders currently agree, try to step an active process of
        // the *other* persuasion (to contest before anyone decides).
        let minority: Option<bool> = if zeros == 0 && ones > 0 {
            Some(false)
        } else if ones == 0 && zeros > 0 {
            Some(true)
        } else {
            None
        };
        if let Some(want) = minority {
            if let Some(&p) = view
                .runnable
                .iter()
                .find(|&&p| view.shared[p].pref() == Pref::Val(want))
            {
                return Decision::Grant(p);
            }
        }
        Decision::Grant(view.runnable[self.rng.gen_range(0..view.runnable.len())])
    }
}

/// Starves whoever is currently a unique leader: the leader only runs when
/// every other active process is a co-leader. Attacks the protocol's
/// progress argument (leaders racing ahead); termination must survive it
/// because trailing processes adopt the leader's value and catch up.
#[derive(Debug)]
pub struct LeaderStarver {
    k: u32,
    rr: usize,
}

impl LeaderStarver {
    /// Creates the adversary for a protocol with strip constant `k`.
    pub fn new(k: u32) -> Self {
        LeaderStarver { k, rr: 0 }
    }
}

impl Strategy<Turn<ProcState>> for LeaderStarver {
    fn decide(&mut self, view: &TurnView<'_, ProcState>) -> Decision {
        let g = view_graph(view.shared, self.k);
        let non_leaders: Vec<usize> = view
            .runnable
            .iter()
            .copied()
            .filter(|&p| !g.is_leader(p))
            .collect();
        let pool = if non_leaders.is_empty() {
            view.runnable
        } else {
            &non_leaders[..]
        };
        self.rr = (self.rr + 1) % pool.len();
        Decision::Grant(pool[self.rr])
    }
}

/// The "hold the deciders" adversary for the bounded protocol — the attack
/// behind Lemma 3.1's disagreement bound, at protocol granularity.
///
/// A pending write that *advances a round* (its edge-counter row differs
/// from the published one) with a concrete preference is **held**; the
/// remaining processes keep taking steps (flipping the shared coin the
/// held process already read). The held set is released once it contains
/// both preference camps — a contested round — or when nobody else can
/// move. Against the bounded protocol this stretches the execution (extra
/// contested rounds with probability O(1/b) each) but can neither break
/// safety nor grow the registers — the contrast with [`AH88`]'s strip is
/// experiment E6.
///
/// [`AH88`]: crate::baselines::RoundCore::aspnes_herlihy
#[derive(Debug)]
pub struct HoldDeciders {
    rng: SmallRng,
}

impl HoldDeciders {
    /// Creates the adversary.
    pub fn new(seed: u64) -> Self {
        HoldDeciders {
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl Strategy<Turn<ProcState>> for HoldDeciders {
    fn decide(&mut self, view: &TurnView<'_, ProcState>) -> Decision {
        use bprc_sim::turn::Phase;
        let mut held: Vec<(usize, Option<bool>)> = Vec::new();
        let mut free: Vec<usize> = Vec::new();
        for &p in view.runnable {
            match &view.phases[p] {
                Phase::Write(m) if !m.edges().eq(view.shared[p].edges()) => {
                    held.push((p, m.pref().value()));
                }
                _ => free.push(p),
            }
        }
        let heads = held.iter().any(|(_, v)| *v == Some(true));
        let tails = held.iter().any(|(_, v)| *v == Some(false));
        if (heads && tails) || free.is_empty() {
            return Decision::Grant(held[self.rng.gen_range(0..held.len())].0);
        }
        Decision::Grant(free[self.rng.gen_range(0..free.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounded::{BoundedCore, ConsensusParams};
    use bprc_sim::turn::TurnDriver;
    use bprc_sim::Gauge;

    fn cores(n: usize, seed: u64) -> Vec<BoundedCore> {
        let params = ConsensusParams::quick(n);
        (0..n)
            .map(|p| BoundedCore::new(params.clone(), p, p % 2 == 0, seed * 31 + p as u64))
            .collect()
    }

    #[test]
    fn split_adversary_cannot_prevent_agreement() {
        for seed in 0..8 {
            let r =
                TurnDriver::new(cores(4, seed)).run(&mut SplitAdversary::new(2, seed), 5_000_000);
            assert!(
                r.completed,
                "seed {seed}: split adversary blocked termination"
            );
            assert_eq!(r.distinct_outputs().len(), 1, "seed {seed}");
        }
    }

    #[test]
    fn hold_deciders_cannot_prevent_agreement_or_grow_registers() {
        use crate::meter::run_metered;
        for seed in 0..8 {
            let n = 4;
            let params = ConsensusParams::quick(n);
            let static_bits = params.layout().bits();
            let procs = cores(n, seed);
            let r = run_metered(procs, &mut HoldDeciders::new(seed), 10_000_000, |s| {
                s.register_bits()
            });
            assert!(
                r.completed,
                "seed {seed}: hold-deciders blocked termination"
            );
            assert_eq!(r.distinct_outputs().len(), 1, "seed {seed}");
            assert_eq!(
                r.telemetry.gauge_global(Gauge::MaxRegisterBits),
                Some(static_bits),
                "seed {seed}: registers grew under the Lemma 3.1 attack"
            );
        }
    }

    #[test]
    fn leader_starver_cannot_prevent_agreement() {
        for seed in 0..8 {
            let r = TurnDriver::new(cores(3, seed)).run(&mut LeaderStarver::new(2), 5_000_000);
            assert!(
                r.completed,
                "seed {seed}: leader starver blocked termination"
            );
            assert_eq!(r.distinct_outputs().len(), 1, "seed {seed}");
        }
    }

    #[test]
    fn faulted_split_adversary_still_cannot_prevent_agreement() {
        // Chaos composition: the protocol-aware SplitAdversary wrapped in a
        // seeded fault plan (crashes, panics, stalls). Survivors must still
        // agree, and whatever the plan killed must show up in the report.
        use bprc_sim::faults::{FaultPlan, FaultedStrategy};
        use bprc_sim::Halted;
        for seed in 0..8 {
            let n = 4;
            let plan = FaultPlan::seeded(seed, n, 400);
            let kills = plan.kill_count();
            let mut adv = FaultedStrategy::new(SplitAdversary::new(2, seed), plan);
            let r = TurnDriver::new(cores(n, seed)).run(&mut adv, 5_000_000);
            assert!(r.completed, "seed {seed}: chaos blocked termination");
            assert!(r.distinct_outputs().len() <= 1, "seed {seed}: disagreement");
            let survivors = r.outputs.iter().filter(|o| o.is_some()).count();
            assert!(
                survivors >= n - kills,
                "seed {seed}: too few survivors decided ({survivors} < {})",
                n - kills
            );
            for (p, h) in r.halted.iter().enumerate() {
                if r.outputs[p].is_none() {
                    assert!(
                        matches!(h, Some(Halted::Crashed) | Some(Halted::Panicked)),
                        "seed {seed}: undecided pid {p} has no fault cause ({h:?})"
                    );
                }
            }
        }
    }
}
