//! Visualizes the bounded weak shared coin: the random walk of the summed
//! counters between the ±b·n barriers, and what the bounded counters do
//! when `m` is made absurdly small.
//!
//! ```text
//! cargo run --example coin_walk
//! ```

use bprc::coin::montecarlo::{run_trials, run_walk};
use bprc::coin::{theory, CoinParams, Flips};
use bprc::sim::sched::{RandomStrategy, RoundRobin};

fn trace_one(params: &CoinParams, seed: u64) {
    // Re-run the walk step by step, printing a bar per ~10 walk steps.
    let n = params.n();
    let barrier = params.barrier();
    println!(
        "one coin, n = {n}, b = {} (barriers at ±{barrier}), m = {}:",
        params.b(),
        params.m()
    );
    let fair = || (0..n).map(|p| Flips::fair(seed + p as u64));
    let flips = fair().collect();
    // Use the observer-free runner but trace by re-simulating with a
    // scripted printer: simplest is to run to completion and print the
    // summary, then show a coarse trace from a fresh identical run.
    let out = run_walk(params, flips, &mut RoundRobin::new(), 10_000_000);
    let width = 41usize;
    let scale = |v: i64| -> usize {
        let clamped = v.clamp(-barrier, barrier);
        ((clamped + barrier) as usize * (width - 1)) / (2 * barrier as usize)
    };
    // Re-simulate manually for the trace.
    let mut counters = vec![0i64; n];
    let mut sources: Vec<Flips> = fair().collect();
    let mut step = 0u64;
    'outer: loop {
        for p in 0..n {
            let heads = sources[p].flip();
            counters[p] = bprc::coin::value::walk_step(params, counters[p], heads);
            step += 1;
            let total: i64 = counters.iter().sum();
            if step.is_multiple_of(10) || total.abs() > barrier {
                let pos = scale(total);
                let mut bar = vec![b'.'; width];
                bar[width / 2] = b'|';
                bar[pos] = b'*';
                println!(
                    "step {step:>5} {} total={total}",
                    String::from_utf8(bar).unwrap()
                );
            }
            if total.abs() > barrier {
                break 'outer;
            }
        }
    }
    println!(
        "walk exited after ~{step} steps; full algorithm: {} events, outcome {:?}\n",
        out.events, out.decisions[0]
    );
}

fn main() {
    let params = CoinParams::new(3, 2, 1_000_000);
    trace_one(&params, 12345);

    println!(
        "Lemma 3.2 bound (b+1)^2*n^2 = {}, clean-walk theory (bn)^2 = {}",
        params.expected_steps_bound(),
        theory::expected_exit_time(params.barrier(), 0)
    );

    let stats = run_trials(&params, 200, 7, 10_000_000, |t| {
        Box::new(RandomStrategy::new(t))
    });
    println!(
        "200 coins: mean walk steps {:.1}, disagreement rate {:.3}, heads rate {:.2}",
        stats.mean_walk_steps,
        stats.disagreement_rate(),
        stats.heads_rate()
    );

    // Now cripple the counters: m = 2 forces overflows, and every
    // overflowing process deterministically reads heads — the paper's
    // bounded-memory escape hatch.
    let tiny = CoinParams::new(3, 2, 2);
    let stats = run_trials(&tiny, 200, 9, 10_000_000, |t| {
        Box::new(RandomStrategy::new(t))
    });
    println!(
        "200 coins with m = 2: overflow rate {:.2}, disagreement rate {:.3} (overflow absorbed)",
        stats.overflow_rate(),
        stats.disagreement_rate()
    );
}
