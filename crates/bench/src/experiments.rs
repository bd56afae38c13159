//! The experiment implementations (one per quantitative claim of the
//! paper). Each returns a [`Table`]; the `experiments` binary prints them.

use bprc_coin::montecarlo::{run_trials, StaleCollectAdversary};
use bprc_coin::{theory, CoinParams};
use bprc_core::baselines::{RoundCore, RoundState};
use bprc_core::bounded::{BoundedCore, ConsensusParams};
use bprc_core::meter::run_metered;
use bprc_core::virtual_rounds::check_execution;
use bprc_registers::DirectArrow;
use bprc_sim::rng::derive_seed;
use bprc_sim::sched::{FnStrategy, RandomStrategy};
use bprc_sim::turn::{Turn, TurnBsp, TurnDriver, TurnProcess};
use bprc_sim::world::{ProcBody, RunReport};
use bprc_sim::{Counter, Decision, Gauge, Strategy, World};
use bprc_snapshot::ScannableMemory;
use bprc_strip::{DistanceGraph, EdgeCounters, ShrunkenGame};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::table::{mean, prob, Table};
use crate::Scale;

/// E1 (Lemma 3.1): shared-coin disagreement probability vs the barrier
/// multiplier `b`, under a benign random scheduler and under the
/// stale-collect adversary. Expected shape: decreasing, `O(1/b)`.
pub fn e1_disagreement(scale: Scale) -> Table {
    let trials = scale.trials(150, 1500);
    let n = 3;
    let mut t = Table::new(
        "E1 — coin disagreement probability vs b (Lemma 3.1)",
        &[
            "b",
            "trials",
            "P[disagree] random",
            "P[disagree] adversary",
            "1/(2b) reference",
        ],
    );
    for b in [1u32, 2, 4, 8] {
        let params = CoinParams::new(n, b, 1_000_000);
        let random = run_trials(&params, trials, 100 + b as u64, 10_000_000, |t| {
            Box::new(RandomStrategy::new(t))
        });
        let adv = run_trials(&params, trials, 200 + b as u64, 10_000_000, |_| {
            Box::new(StaleCollectAdversary::new(0))
        });
        t.row(vec![
            b.to_string(),
            trials.to_string(),
            prob(random.disagreement_rate()),
            prob(adv.disagreement_rate()),
            prob(1.0 / (2.0 * b as f64)),
        ]);
    }
    t.note(format!(
        "n = {n}; counters effectively unbounded to isolate Lemma 3.1"
    ));
    t.note("shape check: both measured columns should decay roughly like 1/b");
    t
}

/// E2 (Lemma 3.2): expected walk steps until the coin decides, vs the
/// paper's bound `(b+1)²·n²` and the clean-walk theory `(b·n)²`.
pub fn e2_walk_steps(scale: Scale) -> Table {
    let trials = scale.trials(100, 1000);
    let mut t = Table::new(
        "E2 — expected walk steps to decide the coin (Lemma 3.2)",
        &[
            "n",
            "b",
            "mean steps",
            "(b·n)² theory",
            "(b+1)²·n² bound",
            "within bound",
        ],
    );
    for n in [2usize, 4, 8] {
        for b in [1u32, 2, 4] {
            let params = CoinParams::new(n, b, 10_000_000);
            let s = run_trials(
                &params,
                trials,
                derive_seed(7, (n * 10 + b as usize) as u64),
                100_000_000,
                |t| Box::new(RandomStrategy::new(t)),
            );
            let bound = params.expected_steps_bound();
            t.row(vec![
                n.to_string(),
                b.to_string(),
                mean(s.mean_walk_steps),
                mean(theory::expected_exit_time(params.barrier(), 0)),
                mean(bound),
                (s.mean_walk_steps <= bound).to_string(),
            ]);
        }
    }
    t.note(format!(
        "{trials} trials per row, fair local coins, random scheduler"
    ));
    t
}

/// E3 (Lemmas 3.3/3.4): probability that some counter overflows, vs the
/// counter bound `m`. Expected shape: decaying like `b·n/√m`.
pub fn e3_overflow(scale: Scale) -> Table {
    let trials = scale.trials(200, 2000);
    let (n, b) = (3usize, 2u32);
    let mut t = Table::new(
        "E3 — counter overflow probability vs m (Lemmas 3.3/3.4)",
        &["m", "trials", "P[overflow]", "b·n/√m bound", "P[disagree]"],
    );
    for m in [4i64, 16, 64, 256, 1024] {
        let params = CoinParams::new(n, b, m);
        let s = run_trials(&params, trials, 300 + m as u64, 10_000_000, |t| {
            Box::new(RandomStrategy::new(t))
        });
        t.row(vec![
            m.to_string(),
            trials.to_string(),
            prob(s.overflow_rate()),
            prob(theory::overflow_bound(b, n, m)),
            prob(s.disagreement_rate()),
        ]);
    }
    t.note(format!(
        "n = {n}, b = {b}; overflowing counters decide heads deterministically"
    ));
    t.note("shape check: overflow decays ~1/sqrt(m) and is absorbed into disagreement");
    t
}

/// E4 (§6.3): virtual global rounds needed to decide — constant in
/// expectation, geometric tail, independent of n.
pub fn e4_rounds(scale: Scale) -> Table {
    let trials = scale.trials(30, 200);
    let mut t = Table::new(
        "E4 — rounds to decide (constant expected rounds, §6.3)",
        &[
            "n",
            "trials",
            "mean max round",
            "p90",
            "max",
            "mean events/proc",
        ],
    );
    for n in [2usize, 3, 5, 8] {
        let params = ConsensusParams::quick(n);
        let mut maxima = Vec::new();
        let mut events = 0f64;
        for trial in 0..trials {
            let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
            let (report, tracker) = check_execution(
                &params,
                &inputs,
                derive_seed(40, trial * 100 + n as u64),
                &mut RandomStrategy::new(derive_seed(41, trial * 100 + n as u64)),
                50_000_000,
            );
            assert!(report.completed, "E4: instance did not terminate");
            maxima.push(*tracker.rounds().iter().max().unwrap());
            events += report.events as f64 / n as f64;
        }
        maxima.sort_unstable();
        let meanr = maxima.iter().sum::<i64>() as f64 / maxima.len() as f64;
        let p90 = maxima[(maxima.len() * 9 / 10).min(maxima.len() - 1)];
        t.row(vec![
            n.to_string(),
            trials.to_string(),
            mean(meanr),
            p90.to_string(),
            maxima.last().unwrap().to_string(),
            mean(events / trials as f64),
        ]);
    }
    t.note(
        "mixed inputs (alternating), random scheduler; rounds via the §6.1 virtual-round tracker",
    );
    t.note("shape check: mean rounds roughly flat in n (geometric with constant success)");
    t
}

/// Events until all `n` processes `core` builds (by pid) decide under
/// `adversary`, or `None` once `budget` events pass first.
fn events_to_decide<P: TurnProcess>(
    n: usize,
    core: impl Fn(usize) -> P,
    adversary: &mut dyn Strategy<Turn<P::Msg>>,
    budget: u64,
) -> Option<f64> {
    let r = TurnDriver::new((0..n).map(core).collect()).run(adversary, budget);
    r.completed.then_some(r.events as f64)
}

/// E5 (headline): total scan/write events to decide, bounded protocol vs
/// the three baselines, under a fair random scheduler. Expected: bounded ≡
/// AH88 (the bounded protocol is an exact compression — same seeds give the
/// same execution while rounds stay within the K-window), oracle cheapest,
/// and the local-coin baseline's expected rounds growing like `2^n` so its
/// cost overtakes everything as n grows.
pub fn e5_total_work(scale: Scale) -> Table {
    let trials = scale.trials(20, 150);
    let budget = 50_000_000u64;
    let mut t = Table::new(
        "E5 — mean events to decide: bounded vs baselines (headline)",
        &[
            "n",
            "bounded",
            "AH88 (unbounded)",
            "oracle coin",
            "local coin (A88)",
        ],
    );
    let mean_of = |f: &dyn Fn(u64) -> Option<f64>, n: usize| -> String {
        let mut total = 0f64;
        let mut done = 0u64;
        for trial in 0..trials {
            if let Some(e) = f(derive_seed(50, trial * 64 + n as u64)) {
                total += e;
                done += 1;
            }
        }
        if done == 0 {
            ">budget".into()
        } else if done < trials {
            format!("{} ({}/{} done)", mean(total / done as f64), done, trials)
        } else {
            mean(total / done as f64)
        }
    };
    let mut fit_points: Vec<(f64, f64)> = Vec::new();
    for n in [2usize, 3, 4, 6, 8, 10, 12] {
        let params = ConsensusParams::quick(n);
        let bounded = |seed| {
            let core =
                |p| BoundedCore::new(params.clone(), p, p % 2 == 0, derive_seed(seed, p as u64));
            events_to_decide(n, core, &mut RandomStrategy::new(seed), budget)
        };
        let ah = |seed| {
            let core =
                |p| RoundCore::aspnes_herlihy(n, p, p % 2 == 0, derive_seed(seed, p as u64), 3);
            events_to_decide(n, core, &mut RandomStrategy::new(seed), budget)
        };
        // The shared seed IS the oracle, so the scheduler gets its own.
        let oracle = |seed| {
            let core = |p| RoundCore::oracle(n, p, p % 2 == 0, seed);
            events_to_decide(n, core, &mut RandomStrategy::new(seed ^ 0x5A5A), budget)
        };
        let local = |seed| {
            let core = |p| RoundCore::local_coin(n, p, p % 2 == 0, derive_seed(seed, p as u64));
            events_to_decide(n, core, &mut RandomStrategy::new(seed), budget)
        };
        let bounded_cell = mean_of(&bounded, n);
        if let Ok(v) = bounded_cell.parse::<f64>() {
            fit_points.push(((n as f64).ln(), v.ln()));
        }
        t.row(vec![
            n.to_string(),
            bounded_cell,
            mean_of(&ah, n),
            mean_of(&oracle, n),
            mean_of(&local, n),
        ]);
    }
    t.note(format!(
        "{trials} trials per cell, mixed inputs, random scheduler"
    ));
    if fit_points.len() >= 3 {
        // Least-squares slope of ln(events) vs ln(n): the measured exponent.
        let m = fit_points.len() as f64;
        let sx: f64 = fit_points.iter().map(|p| p.0).sum();
        let sy: f64 = fit_points.iter().map(|p| p.1).sum();
        let sxx: f64 = fit_points.iter().map(|p| p.0 * p.0).sum();
        let sxy: f64 = fit_points.iter().map(|p| p.0 * p.1).sum();
        let slope = (m * sxy - sx * sy) / (m * sxx - sx * sx);
        t.note(format!(
            "fitted growth of the bounded protocol: events ≈ n^{slope:.2} — polynomial, as the title claims"
        ));
    }
    t.note("bounded and AH88 columns are identical BY CONSTRUCTION: same seeds, same logic, and executions never leave the K-window — direct evidence the compression is exact");
    t.note("shape check: shared-coin protocols polynomial in n; local-coin rounds ~2^n eventually dominate");
    t
}

/// E5b: the same comparison under the barrier-synchronous (simultaneous
/// reveal) adversary — the classic worst case that makes independent local
/// coins exponential while shared-coin protocols stay polynomial.
pub fn e5b_adversarial_work(scale: Scale) -> Table {
    let trials = scale.trials(10, 60);
    let budget = 5_000_000u64;
    let mut t = Table::new(
        "E5b — mean events to decide under the barrier-synchronous adversary",
        &["n", "bounded (BSP adv.)", "local coin (BSP adv.)"],
    );
    for n in [2usize, 3, 4, 6, 8, 10] {
        let mut b_total = 0f64;
        let mut b_done = 0u64;
        let mut l_total = 0f64;
        let mut l_done = 0u64;
        for trial in 0..trials {
            let seed = derive_seed(55, trial * 64 + n as u64);
            let params = ConsensusParams::quick(n);
            let bounded =
                |p| BoundedCore::new(params.clone(), p, p % 2 == 0, derive_seed(seed, p as u64));
            if let Some(e) = events_to_decide(n, bounded, &mut TurnBsp::new(), budget) {
                b_total += e;
                b_done += 1;
            }
            let local = |p| RoundCore::local_coin(n, p, p % 2 == 0, derive_seed(seed, p as u64));
            if let Some(e) = events_to_decide(n, local, &mut TurnBsp::new(), budget) {
                l_total += e;
                l_done += 1;
            }
        }
        let cell = |total: f64, done: u64| -> String {
            if done == 0 {
                format!(">{budget} (0/{trials} done)")
            } else if done < trials {
                format!("{} ({}/{} done)", mean(total / done as f64), done, trials)
            } else {
                mean(total / done as f64)
            }
        };
        t.row(vec![
            n.to_string(),
            cell(b_total, b_done),
            cell(l_total, l_done),
        ]);
    }
    t.note(format!(
        "{trials} trials per cell, event budget {budget} per trial"
    ));
    t.note("the BSP adversary forces simultaneous reveals: local coins need spontaneous unanimity (expected 2^(n-1) rounds); the shared coin is unaffected");
    t
}

/// The "hold the deciders" adversary (the Lemma 3.1 attack) for the AH88
/// baseline. Once some process holds a pending *round-advancing* write with
/// coin value v (it read the walk past one barrier), the adversary:
///
/// 1. holds that write (and any later ones like it);
/// 2. steers the *visible* walk toward the opposite barrier — releasing
///    pending flip-writes that move it the right way, holding the others
///    (the paper's analysis: the adversary can skew the visible total by up
///    to n this way);
/// 3. lets a ⊥ process scan exactly when the visible total has crossed the
///    opposite barrier — producing a held decider for v̄;
/// 4. releases everything: the next round is *contested*, and the AH88
///    strip grows by one more entry.
struct AhHoldDeciders {
    rng: SmallRng,
}

impl Strategy<Turn<RoundState>> for AhHoldDeciders {
    fn decide(&mut self, view: &bprc_sim::turn::TurnView<'_, RoundState>) -> Decision {
        use bprc_core::state::Pref;
        use bprc_sim::turn::Phase;
        let visible_max = view.shared.iter().map(|s| s.round).max().unwrap_or(0);
        let coin_round = visible_max + 1;
        let visible_total: i64 = view
            .shared
            .iter()
            .map(|s| s.coins.get(&coin_round).copied().unwrap_or(0))
            .sum();

        let mut deciders: Vec<(usize, Option<bool>)> = Vec::new();
        let mut up_writers: Vec<usize> = Vec::new();
        let mut down_writers: Vec<usize> = Vec::new();
        let mut scanners: Vec<usize> = Vec::new();
        for &p in view.runnable {
            match &view.phases[p] {
                Phase::Write(m) if m.round > visible_max => {
                    let v = match m.pref {
                        Pref::Val(v) => Some(v),
                        Pref::Bottom => None,
                    };
                    deciders.push((p, v));
                }
                Phase::Write(m) => {
                    let before = view.shared[p].coins.get(&coin_round).copied().unwrap_or(0);
                    let after = m.coins.get(&coin_round).copied().unwrap_or(0);
                    if after > before {
                        up_writers.push(p);
                    } else {
                        down_writers.push(p);
                    }
                }
                Phase::Scan => scanners.push(p),
                Phase::Done => {}
            }
        }

        let heads_held = deciders.iter().any(|(_, v)| *v == Some(true));
        let tails_held = deciders.iter().any(|(_, v)| *v == Some(false));
        if heads_held && tails_held {
            // Contested round secured: release the deciders.
            return Decision::Grant(deciders[self.rng.gen_range(0..deciders.len())].0);
        }
        if deciders.is_empty() {
            // No one has committed to a side yet: run freely.
            let pool: Vec<usize> = scanners
                .iter()
                .chain(&up_writers)
                .chain(&down_writers)
                .copied()
                .collect();
            if pool.is_empty() {
                let all: Vec<usize> = view.runnable.to_vec();
                return Decision::Grant(all[self.rng.gen_range(0..all.len())]);
            }
            return Decision::Grant(pool[self.rng.gen_range(0..pool.len())]);
        }

        // One camp held: steer the visible walk toward the other barrier.
        let want_down = heads_held;
        let n = view.shared.len() as i64;
        let barrier = n; // b = 1 in the sampling setup
        let crossed = if want_down {
            visible_total < -barrier
        } else {
            visible_total > barrier
        };
        let (toward, away) = if want_down {
            (&down_writers, &up_writers)
        } else {
            (&up_writers, &down_writers)
        };
        if crossed && !scanners.is_empty() {
            // A scanner will now read the opposite value and join `deciders`.
            return Decision::Grant(scanners[self.rng.gen_range(0..scanners.len())]);
        }
        if !toward.is_empty() {
            return Decision::Grant(toward[self.rng.gen_range(0..toward.len())]);
        }
        if !scanners.is_empty() {
            // Produce fresh flips (scanning inside the band is safe; near
            // the wrong barrier it risks another same-side decider, which
            // the hold absorbs anyway).
            return Decision::Grant(scanners[self.rng.gen_range(0..scanners.len())]);
        }
        if !away.is_empty() {
            return Decision::Grant(away[self.rng.gen_range(0..away.len())]);
        }
        // Everyone is a held decider of one camp: forced release.
        Decision::Grant(deciders[self.rng.gen_range(0..deciders.len())].0)
    }
}

/// E6 (headline): register width — the bounded protocol's registers have a
/// closed-form constant size; \[AH88\]'s grow with the number of *contested*
/// rounds R (one strip entry each, kept forever) and carry an unbounded
/// round counter. R has a geometric tail the adversary can stretch but the
/// implementation can never bound a priori — which is exactly the problem
/// the paper solves. We measure the tail of R empirically and tabulate the
/// width law (verified against measured widths for the observed R).
pub fn e6_memory(scale: Scale) -> Table {
    let trials = scale.trials(150, 1500);
    let n = 4usize;
    let params = ConsensusParams::quick(n);
    let bounded_bits = params.layout().bits();

    // Tail-sample contested rounds under the BSP adversary with b = 1
    // (maximally disagreement-prone coin) — and double-check that the
    // bounded protocol's registers never exceed their static size.
    let mut tail: Vec<u64> = Vec::new(); // max strip entries per trial
    let mut measured_bits: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for trial in 0..trials {
        let seed = derive_seed(60, trial);
        let procs: Vec<RoundCore> = (0..n)
            .map(|p| RoundCore::aspnes_herlihy(n, p, p % 2 == 0, derive_seed(seed, p as u64), 1))
            .collect();
        let entries_max = std::cell::Cell::new(0u64);
        let bits_at = std::cell::RefCell::new(std::collections::HashMap::<u64, u64>::new());
        let mut contester = AhHoldDeciders {
            rng: SmallRng::seed_from_u64(seed),
        };
        run_metered(procs, &mut contester, 20_000_000, |s| {
            let e = s.coins.len() as u64;
            entries_max.set(entries_max.get().max(e));
            let b = s.bits();
            let mut map = bits_at.borrow_mut();
            let slot = map.entry(e).or_insert(0);
            *slot = (*slot).max(b);
            b
        });
        tail.push(entries_max.get());
        for (e, b) in bits_at.into_inner() {
            let slot = measured_bits.entry(e).or_insert(0);
            *slot = (*slot).max(b);
        }

        let procs: Vec<BoundedCore> = (0..n)
            .map(|p| BoundedCore::new(params.clone(), p, p % 2 == 0, derive_seed(seed, p as u64)))
            .collect();
        let report = run_metered(procs, &mut TurnBsp::new(), 20_000_000, |s| {
            s.register_bits()
        });
        assert_eq!(
            report.telemetry.gauge_global(Gauge::MaxRegisterBits),
            Some(bounded_bits),
            "bounded register grew beyond its static size"
        );
    }

    // Analytic width for R stored strip entries (the same formula
    // RoundState::bits computes; verified against measurement below).
    let analytic = |r: u64| -> u64 {
        let mut st = RoundState {
            pref: bprc_core::state::Pref::Bottom,
            round: r + 1,
            coins: Default::default(),
        };
        for i in 0..r {
            st.coins.insert(i + 2, 1);
        }
        st.bits()
    };

    let mut t = Table::new(
        "E6 — register width: bounded constant vs AH88 growth (headline)",
        &[
            "contested rounds R",
            "P[R ≥ r] measured",
            "AH88 bits at R",
            "measured AH88 bits",
            "bounded bits (const)",
        ],
    );
    let total = tail.len() as f64;
    for r in [1u64, 2, 3, 4, 5, 10, 100, 10_000, 1_000_000] {
        let p_tail = tail.iter().filter(|&&x| x >= r).count() as f64 / total;
        let measured = measured_bits.get(&r).copied();
        t.row(vec![
            r.to_string(),
            if p_tail > 0.0 {
                prob(p_tail)
            } else {
                "unobserved".into()
            },
            analytic(r).to_string(),
            measured
                .map(|b| b.to_string())
                .unwrap_or_else(|| "—".into()),
            bounded_bits.to_string(),
        ]);
    }
    t.note(format!(
        "n = {n}; {trials} AH88 instances (b = 1) under the hold-the-deciders adversary (the Lemma 3.1 attack); R = strip entries held in one register"
    ));
    t.note("the bounded protocol's registers were verified to stay at their static size in every one of the same executions");
    t.note("AH88's width is Θ(R) with R geometric but unbounded; no a priori register size suffices — the gap the paper closes");
    t
}

/// E7's run: on the handshake memory, one scanner (pid 0) attempting 20
/// scans against two endless writers, in lockstep under a scheduler that
/// grants a runnable writer with probability `pressure`, its coin seeded
/// `derive_seed(tag, trial)`.
fn writer_pressure(pressure: f64, tag: u64, trial: u64) -> RunReport<()> {
    let n = 3;
    let mut world = World::builder(n).step_limit(60_000).build();
    let mem = ScannableMemory::<u64, DirectArrow>::new(&world, n, 0);
    let mut scanner = mem.port(0);
    let mut bodies: Vec<ProcBody<()>> = vec![Box::new(move |ctx| {
        for _ in 0..20 {
            scanner.scan(ctx)?;
        }
        Ok(())
    })];
    for w in 1..n {
        let mut port = mem.port(w);
        bodies.push(Box::new(move |ctx| {
            let mut k = 0u64;
            loop {
                k += 1;
                port.update(ctx, k)?;
            }
        }));
    }
    let mut rng = SmallRng::seed_from_u64(derive_seed(tag, trial));
    let strategy = FnStrategy::new(move |view: &bprc_sim::ScheduleView<'_>| {
        let writers: Vec<usize> = view.runnable.iter().copied().filter(|&p| p != 0).collect();
        if !writers.is_empty() && rng.gen::<f64>() < pressure {
            Decision::Grant(writers[rng.gen_range(0..writers.len())])
        } else if view.runnable.contains(&0) {
            Decision::Grant(0)
        } else {
            Decision::Grant(view.runnable[0])
        }
    });
    world.run(bodies, Box::new(strategy))
}

/// E7 (§2): snapshot scan retries under increasing writer pressure.
pub fn e7_scan_retries(scale: Scale) -> Table {
    let trials = scale.trials(3, 10);
    let mut t = Table::new(
        "E7 — scan retries vs writer pressure (§2 progress behaviour)",
        &[
            "P[writer step]",
            "mean attempts/scan",
            "scans completed",
            "scans starved",
        ],
    );
    for pressure in [0.2f64, 0.5, 0.8, 0.95] {
        let mut attempts = 0u64;
        let mut scans = 0u64;
        let mut starved = 0u64;
        for trial in 0..trials {
            let rep = writer_pressure(pressure, 70, trial);
            attempts += rep.telemetry.counter(0, Counter::ScanAttempts);
            scans += rep.telemetry.counter(0, Counter::Scans);
            if rep.outputs[0].is_none() {
                starved += 1;
            }
        }
        t.row(vec![
            format!("{pressure:.2}"),
            if scans > 0 {
                format!("{:.2}", attempts as f64 / scans as f64)
            } else {
                "∞ (starved)".into()
            },
            scans.to_string(),
            starved.to_string(),
        ]);
    }
    t.note("1 scanner + 2 writers in lockstep; the writer-biased scheduler forces re-collects");
    t.note("shape check: attempts/scan grows with pressure; total starvation only at extreme bias");
    t
}

/// E8 (Claim 4.1): the inc-evolved distance graph equals the graph of the
/// shrunken token game, over random plays and the cyclic-counter encoding.
pub fn e8_claim41(scale: Scale) -> Table {
    let trials = scale.trials(50, 500);
    let mut t = Table::new(
        "E8 — Claim 4.1: graph game ≡ shrunken token game",
        &[
            "n",
            "K",
            "plays checked",
            "graph mismatches",
            "counter mismatches",
        ],
    );
    let mut rng = SmallRng::seed_from_u64(80);
    for (n, k) in [(2usize, 1u32), (3, 2), (4, 2), (6, 3), (8, 2)] {
        let mut checked = 0u64;
        let mut g_bad = 0u64;
        let mut c_bad = 0u64;
        for _ in 0..trials {
            let mut game = ShrunkenGame::new(n, k);
            let mut graph = DistanceGraph::from_game(&game);
            let mut counters = EdgeCounters::new(n, k);
            for _ in 0..100 {
                let i = rng.gen_range(0..n);
                game.move_token(i);
                graph.inc(i);
                counters.inc_graph(i);
                checked += 1;
                let truth = DistanceGraph::from_game(&game);
                if graph != truth {
                    g_bad += 1;
                }
                if counters.make_graph() != truth {
                    c_bad += 1;
                }
            }
        }
        t.row(vec![
            n.to_string(),
            k.to_string(),
            checked.to_string(),
            g_bad.to_string(),
            c_bad.to_string(),
        ]);
    }
    t.note(
        "every play: move the shrunken game, inc the graph, inc the counters, compare all three",
    );
    t
}

fn ablation_run(params: &ConsensusParams, trials: u64, tag: u64) -> (f64, f64, u64) {
    // Returns (mean events, mean max virtual round, timeouts).
    let n = params.n();
    let mut events = 0f64;
    let mut rounds = 0f64;
    let mut timeouts = 0u64;
    for trial in 0..trials {
        let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let (report, tracker) = check_execution(
            params,
            &inputs,
            derive_seed(tag, trial * 131 + n as u64),
            &mut RandomStrategy::new(derive_seed(tag + 1, trial * 131 + n as u64)),
            20_000_000,
        );
        if report.completed {
            events += report.events as f64;
            rounds += *tracker.rounds().iter().max().unwrap() as f64;
        } else {
            timeouts += 1;
        }
    }
    let done = (trials - timeouts).max(1) as f64;
    (events / done, rounds / done, timeouts)
}

/// E11 (ablation): the coin barrier multiplier `b` trades walk length
/// against disagreement probability. Small b = cheap coins that disagree
/// more (extra rounds); large b = expensive coins that almost never
/// disagree.
pub fn e11_ablation_b(scale: Scale) -> Table {
    let trials = scale.trials(20, 150);
    let n = 4;
    let mut t = Table::new(
        "E11 — ablation: coin barrier multiplier b (cost vs disagreement)",
        &["b", "mean events", "mean max round", "timeouts"],
    );
    for b in [1u32, 2, 3, 6, 10] {
        let params = ConsensusParams::new(n, CoinParams::new(n, b, 1_000_000));
        let (events, rounds, timeouts) = ablation_run(&params, trials, 900 + b as u64);
        t.row(vec![
            b.to_string(),
            mean(events),
            format!("{rounds:.2}"),
            timeouts.to_string(),
        ]);
    }
    t.note(format!(
        "n = {n}, {trials} trials per row, random scheduler, mixed inputs"
    ));
    t.note("shape check: events grow ~b² (walk length); rounds shrink toward the constant floor as b grows");
    t
}

/// E12 (ablation): the strip window K. The paper fixes K = 2; larger
/// windows keep more coin history (bigger registers) without changing the
/// protocol's behaviour under typical schedules.
pub fn e12_ablation_k(scale: Scale) -> Table {
    let trials = scale.trials(20, 150);
    let n = 4;
    let mut t = Table::new(
        "E12 — ablation: strip window K",
        &[
            "K",
            "mean events",
            "mean max round",
            "register bits",
            "timeouts",
        ],
    );
    for k in [2u32, 3, 4, 6] {
        let params = ConsensusParams::with_k(n, k, CoinParams::new(n, 3, 1_000_000));
        let (events, rounds, timeouts) = ablation_run(&params, trials, 1200 + k as u64);
        let bits = params.layout().bits();
        t.row(vec![
            k.to_string(),
            mean(events),
            format!("{rounds:.2}"),
            bits.to_string(),
            timeouts.to_string(),
        ]);
    }
    t.note(format!("n = {n}, {trials} trials per row"));
    t.note("shape check: deciding needs a K-round lead over disagreers, so rounds (and register bits) grow with K; the paper’s K = 2 is the sweet spot");
    t
}

/// E13 (ablation): the counter bound m at the consensus level. Tiny m
/// forces overflows (deterministic heads) — safety must hold regardless;
/// the cost appears as extra rounds when overflow-polluted coins disagree.
pub fn e13_ablation_m(scale: Scale) -> Table {
    let trials = scale.trials(20, 150);
    let n = 3;
    let mut t = Table::new(
        "E13 — ablation: coin counter bound m at the consensus level",
        &["m", "mean events", "mean max round", "timeouts"],
    );
    for m in [1i64, 2, 8, 64, 1024, 1_000_000] {
        let params = ConsensusParams::new(n, CoinParams::new(n, 2, m));
        let (events, rounds, timeouts) = ablation_run(&params, trials, 1500 + m as u64);
        t.row(vec![
            m.to_string(),
            mean(events),
            format!("{rounds:.2}"),
            timeouts.to_string(),
        ]);
    }
    t.note(format!(
        "n = {n}, b = 2, {trials} trials per row; agreement/validity asserted in every trial"
    ));
    t.note("shape check: safety never depends on m; tiny m actually decides FASTER (overflows short-circuit the walk into deterministic heads) at the price of a badly biased coin; large m converges to the unbounded walk cost");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e8_finds_no_mismatches_quick() {
        let t = e8_claim41(Scale::Quick);
        for row in &t.rows {
            assert_eq!(row[3], "0", "graph mismatches in {row:?}");
            assert_eq!(row[4], "0", "counter mismatches in {row:?}");
        }
    }

    #[test]
    fn e3_overflow_decreases_with_m() {
        let t = e3_overflow(Scale::Quick);
        let first: f64 = t.rows.first().unwrap()[2].parse().unwrap_or(1.0);
        let last: f64 = t.rows.last().unwrap()[2].parse().unwrap_or(0.0);
        assert!(last <= first, "overflow should not grow with m");
    }

    #[test]
    fn e2_within_bound_everywhere() {
        let t = e2_walk_steps(Scale::Quick);
        for row in &t.rows {
            assert_eq!(row[5], "true", "Lemma 3.2 bound violated in {row:?}");
        }
    }
}
