//! Chaos demo: a composed fault plan — an early crash, a long stall
//! window, and a late injected panic — over the full register-level
//! consensus stack, with faults and protocol spans rendered as one unified
//! timeline from the flight-recorder rings, and the recorded history's
//! register-level timeline around the panic.
//!
//! ```text
//! cargo run --example chaos
//! ```

use bprc::core::bounded::ConsensusParams;
use bprc::core::threaded::ThreadedConsensus;
use bprc::registers::DirectArrow;
use bprc::sim::faults::{FaultPlan, FaultedStrategy};
use bprc::sim::sched::RandomStrategy;
use bprc::sim::trace::{render, render_unified, summary, TraceOptions};
use bprc::sim::World;
use bprc::sim::{Counter, Gauge};

fn main() {
    let n = 3;
    let seed = 7;
    let params = ConsensusParams::quick(n);
    let mut world = World::builder(n).step_limit(5_000_000).build();
    let inst = ThreadedConsensus::<DirectArrow>::new(&world, &params, &[true, false, true], seed);
    inst.set_scan_retry_budget(Some(128));

    let plan = FaultPlan::new()
        .crash_at(40, 0)
        .stall(1, 60, 140)
        .panic_at(200, 2);
    println!("fault plan: {plan:#?}\n");

    let names = world.reg_names();
    let strategy = FaultedStrategy::new(RandomStrategy::new(seed), plan);
    let report = world.run(inst.bodies, Box::new(strategy));
    let history = report.history.as_ref().expect("lockstep records history");

    // Faults, crashes, and the protocol's round/scan/write/coin spans from
    // the flight recorder, merged into one per-process timeline. The early
    // steps show each process entering round 1 before the chaos begins.
    let unified_opts = TraceOptions {
        steps: Some((0, 80)),
        ..Default::default()
    };
    println!("unified timeline (spans + faults, steps 0..80):");
    println!("{}", render_unified(&report.flight, n, &unified_opts));

    println!("\noutcome per process:");
    for p in 0..n {
        match (&report.outputs[p], &report.halted[p]) {
            (Some(v), _) => println!("  p{p}: decided {v}"),
            (None, Some(h)) => {
                let msg = report.panics[p]
                    .as_deref()
                    .map(|m| format!(" ({m})"))
                    .unwrap_or_default();
                println!("  p{p}: halted — {h}{msg}");
            }
            (None, None) => println!("  p{p}: no output"),
        }
    }

    // The decisive window of the register-level timeline, around the panic.
    let opts = TraceOptions {
        reg_names: names,
        steps: Some((190, 215)),
        notes: false,
        ..Default::default()
    };
    println!("\ntimeline around the injected panic (steps 190..215):");
    println!("{}", render(history, n, &opts));
    println!("{}", summary(history, n));
    println!("{}", report.telemetry.summary());
    println!(
        "scan attempts {} (retries {}, starved {}), max round {:?}",
        report.telemetry.total(Counter::ScanAttempts),
        report.telemetry.total(Counter::ScanRetries),
        report.telemetry.total(Counter::ScanStarved),
        (0..n)
            .filter_map(|p| report.telemetry.gauge(p, Gauge::Round))
            .max(),
    );

    let survivors: Vec<bool> = report.outputs.iter().flatten().copied().collect();
    assert!(
        survivors.windows(2).all(|w| w[0] == w[1]),
        "agreement must survive the chaos"
    );
    println!(
        "\n{} of {n} processes decided {:?} — agreement held under crash+stall+panic",
        survivors.len(),
        survivors.first()
    );
}
