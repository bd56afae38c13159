//! Interactive demo runner: any protocol × any adversary from the command
//! line.
//!
//! ```text
//! demo [--protocol bounded|ah88|local|oracle] [--n 4] [--inputs 1010]
//!      [--adversary random|rr|bsp|split|starver] [--seed 7]
//!      [--registers [--trace]]
//! ```
//!
//! By default the protocol runs under the turn-level driver. `--registers`
//! runs it over the real register-level stack instead (lockstep,
//! deterministic, the arena's handshake snapshot) under `--adversary
//! random|rr` — the same policy values drive both executors; `--trace`
//! additionally prints the recorded register timeline. A flag combination
//! the demo cannot honour exits 2, naming the flag, before any run.

use bprc_core::adversaries::{LeaderStarver, SplitAdversary};
use bprc_core::arena::entrants;
use bprc_core::baselines::RoundCore;
use bprc_core::bounded::{BoundedCore, ConsensusParams};
use bprc_core::ProcState;
use bprc_sim::rng::derive_seed;
use bprc_sim::sched::{RandomStrategy, Registers, RoundRobin};
use bprc_sim::turn::{Turn, TurnBsp, TurnDriver, TurnProcess};
use bprc_sim::{Gauge, Level, Strategy, World};

/// Each protocol's name here and as an arena entrant.
const PROTOCOLS: [(&str, &str); 4] = [
    ("bounded", "bounded"),
    ("ah88", "ah-atomic"),
    ("local", "abrahamson"),
    ("oracle", "oracle"),
];

const USAGE: &str = "usage: demo [--protocol bounded|ah88|local|oracle] [--n N] \
                     [--inputs 1010] [--adversary random|rr|bsp|split|starver] \
                     [--seed S] [--registers [--trace]]";

const BUDGET: u64 = 100_000_000;

#[derive(Debug)]
struct Args {
    protocol: String,
    n: usize,
    inputs: Vec<bool>,
    adversary: String,
    seed: u64,
    registers: bool,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        protocol: "bounded".into(),
        n: 4,
        inputs: Vec::new(),
        adversary: "random".into(),
        seed: 7,
        registers: false,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--protocol" => args.protocol = val("--protocol")?,
            "--n" => args.n = val("--n")?.parse().map_err(|e| format!("bad --n: {e}"))?,
            "--inputs" => args.inputs = val("--inputs")?.chars().map(|c| c == '1').collect(),
            "--adversary" => args.adversary = val("--adversary")?,
            "--seed" => {
                args.seed = val("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--registers" => args.registers = true,
            "--trace" => args.trace = true,
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    if args.inputs.is_empty() {
        args.inputs = (0..args.n).map(|i| i % 2 == 0).collect();
    }
    if args.inputs.len() != args.n {
        return Err(format!(
            "--inputs has {} bits but --n is {}",
            args.inputs.len(),
            args.n
        ));
    }
    let (protocol, adversary) = (args.protocol.as_str(), args.adversary.as_str());
    if !PROTOCOLS.iter().any(|&(name, _)| name == protocol) {
        return Err(format!(
            "unknown --protocol {protocol} (bounded|ah88|local|oracle)"
        ));
    }
    match adversary {
        "random" | "rr" => {}
        _ if args.registers => {
            return Err(format!(
                "--adversary {adversary} cannot drive --registers (random|rr)"
            ))
        }
        "bsp" => {}
        "split" | "starver" if protocol == "bounded" => {}
        "split" | "starver" => {
            return Err(format!(
                "--adversary {adversary} is specific to --protocol bounded; use random|rr|bsp"
            ))
        }
        _ => {
            return Err(format!(
                "unknown --adversary {adversary} (random|rr|bsp|split|starver)"
            ))
        }
    }
    if args.trace && !args.registers {
        return Err(
            "--trace needs --registers: only a register-level run records a timeline".into(),
        );
    }
    Ok(args)
}

/// The policies that drive any level: one value type per policy.
fn level_free<L: Level>(name: &str, seed: u64) -> Box<dyn Strategy<L>> {
    match name {
        "random" => Box::new(RandomStrategy::new(seed)),
        "rr" => Box::new(RoundRobin::new()),
        other => unreachable!("parse_args admits no level-free adversary {other}"),
    }
}

/// The turn-level adversaries every protocol takes.
fn turn_adversary<M>(name: &str, seed: u64) -> Box<dyn Strategy<Turn<M>>> {
    match name {
        "bsp" => Box::new(TurnBsp::new()),
        other => level_free(other, seed),
    }
}

fn run_turns<P: TurnProcess>(procs: Vec<P>, adversary: &mut dyn Strategy<Turn<P::Msg>>)
where
    P::Out: std::fmt::Debug + PartialEq,
{
    let report = TurnDriver::new(procs).run(adversary, BUDGET);
    println!("events:    {}", report.events);
    println!("completed: {}", report.completed);
    for (p, out) in report.outputs.iter().enumerate() {
        println!("process {p} decided {:?}", out);
    }
    let d = report.distinct_outputs();
    if d.len() <= 1 {
        println!("agreement ✓");
    } else {
        println!("!!! DISAGREEMENT: {d:?}");
    }
}

fn run_registers(args: &Args) {
    let entrant = PROTOCOLS
        .iter()
        .find(|&&(name, _)| name == args.protocol)
        .and_then(|&(_, entrant)| entrants().into_iter().find(|e| e.name() == entrant))
        .expect("every demo protocol is an arena entrant");
    let mut world = World::builder(args.n)
        .step_limit(BUDGET)
        .weak_memory(entrant.memory_mode())
        .build();
    let bodies = entrant.build(&world, &args.inputs, args.seed);
    let names = world.reg_names();
    let report = world.run(bodies, level_free::<Registers>(&args.adversary, args.seed));
    let gauge = |g| report.telemetry.gauge_max_all(g).unwrap_or(0);
    println!(
        "register-level run of {}: {} shared-memory operations, \
         {} rounds, widest register {} bits",
        entrant.name(),
        report.steps,
        gauge(Gauge::Round),
        gauge(Gauge::MaxRegisterBits)
    );
    for (p, out) in report.outputs.iter().enumerate() {
        println!("process {p} decided {:?}", out);
    }
    if args.trace {
        if let Some(h) = &report.history {
            let opts = bprc_sim::trace::TraceOptions {
                reg_names: names,
                ..Default::default()
            };
            println!("\n{}", bprc_sim::trace::render(h, args.n, &opts));
            println!("{}", bprc_sim::trace::summary(h, args.n));
        }
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    println!(
        "protocol={} n={} inputs={:?} adversary={} seed={}\n",
        args.protocol, args.n, args.inputs, args.adversary, args.seed
    );
    if args.registers {
        return run_registers(&args);
    }

    let (n, seed) = (args.n, args.seed);
    let coin = |p: usize| derive_seed(seed, p as u64);
    match args.protocol.as_str() {
        "bounded" => {
            let params = ConsensusParams::quick(n);
            let procs: Vec<BoundedCore> = (0..n)
                .map(|p| BoundedCore::new(params.clone(), p, args.inputs[p], coin(p)))
                .collect();
            let mut adv: Box<dyn Strategy<Turn<ProcState>>> = match args.adversary.as_str() {
                "split" => Box::new(SplitAdversary::new(params.k(), seed)),
                "starver" => Box::new(LeaderStarver::new(params.k())),
                other => turn_adversary(other, seed),
            };
            run_turns(procs, adv.as_mut());
        }
        baseline => {
            let procs: Vec<RoundCore> = (0..n)
                .map(|p| match baseline {
                    "ah88" => RoundCore::aspnes_herlihy(n, p, args.inputs[p], coin(p), 3),
                    "local" => RoundCore::local_coin(n, p, args.inputs[p], coin(p)),
                    "oracle" => RoundCore::oracle(n, p, args.inputs[p], seed),
                    other => unreachable!("parse_args admits no protocol {other}"),
                })
                .collect();
            run_turns(procs, turn_adversary(&args.adversary, seed).as_mut());
        }
    }
}
