//! Adversarial schedules: runs the bounded protocol under the strong
//! adversaries from the paper's model and prints how hard each one made
//! the execution work — while agreement and the §6.1 virtual-round
//! invariants are machine-checked on every run.
//!
//! ```text
//! cargo run --example adversarial
//! ```

use bprc::core::adversaries::{HoldDeciders, LeaderStarver, SplitAdversary};
use bprc::core::bounded::ConsensusParams;
use bprc::core::virtual_rounds::check_execution;
use bprc::core::ProcState;
use bprc::sim::sched::{RandomStrategy, RoundRobin, Strategy};
use bprc::sim::turn::Turn;

fn main() {
    let n = 5;
    let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
    let params = ConsensusParams::quick(n);
    println!("n = {n}, proposals = {inputs:?}\n");
    println!(
        "{:<24} {:>10} {:>12} {:>12}",
        "adversary", "events", "max round", "decided"
    );

    type Adversary = Box<dyn Strategy<Turn<ProcState>>>;
    let mut cases: Vec<(&str, Adversary)> = vec![
        ("round-robin (fair)", Box::new(RoundRobin::new())),
        ("random", Box::new(RandomStrategy::new(7))),
        (
            "split (camp-balancing)",
            Box::new(SplitAdversary::new(params.k(), 7)),
        ),
        ("leader starver", Box::new(LeaderStarver::new(params.k()))),
        ("hold-the-deciders", Box::new(HoldDeciders::new(7))),
    ];

    for (name, adversary) in cases.iter_mut() {
        let (report, tracker) =
            check_execution(&params, &inputs, 99, adversary.as_mut(), 50_000_000);
        assert!(report.completed, "{name}: adversary prevented termination");
        assert!(
            tracker.violations().is_empty(),
            "{name}: virtual-round invariant broken: {:?}",
            tracker.violations()
        );
        let decided = report.outputs.iter().flatten().next().copied().unwrap();
        println!(
            "{:<24} {:>10} {:>12} {:>12}",
            name,
            report.events,
            tracker.rounds().iter().max().unwrap(),
            decided
        );
    }

    println!("\nevery run: agreement + validity asserted, virtual rounds monotone");
}
