//! The ladder: isolated best-of-R loops, each over one public function of
//! one layer, giving the unit costs the traced run multiplies by the
//! telemetry counts (`ladder.reconcile_ratio`).

use std::hint::black_box;
use std::time::Instant;

use bprc_coin::value::{coin_value, walk_step};
use bprc_coin::CoinParams;
use bprc_core::bounded::ConsensusParams;
use bprc_core::multishot::{LogCore, LogMsg, StaticProposals};
use bprc_registers::{ArrowCell, DirectArrow};
use bprc_sim::rng::stream_rng;
use bprc_sim::sched::RoundRobin;
use bprc_sim::turn::{TurnDriver, TurnRoundRobin};
use bprc_sim::world::ProcBody;
use bprc_sim::{Mode, World};
use bprc_strip::EdgeCounters;
use rand::Rng;

use crate::workloads::decide_turn;

/// Repetitions of each loop; the minimum is kept.
const REPS: usize = 40;
/// Calls per repetition.
const CALLS: usize = 2000;

/// Unit costs in nanoseconds per call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ladder {
    /// `Reg::read` of a `u64` on the fast (seqlock) plane.
    pub reg_read: f64,
    /// `Reg::write` of a `u64` on the fast plane.
    pub reg_write: f64,
    /// `Reg::read` of a mid-log `LogMsg` on the locked plane (clones it).
    pub reg_read_locked: f64,
    /// `Reg::write` of a mid-log `LogMsg` on the locked plane, with the
    /// clone that produces the written value.
    pub reg_write_locked: f64,
    /// `DirectArrow::raise`.
    pub arrow_raise: f64,
    /// `DirectArrow::lower`.
    pub arrow_lower: f64,
    /// `DirectArrow::is_raised`.
    pub arrow_check: f64,
    /// `walk_step` at n = 8.
    pub walk_step: f64,
    /// `coin_value` over 8 counters.
    pub coin_value: f64,
    /// `EdgeCounters::next_row` at n = 8.
    pub next_row: f64,
    /// `EdgeCounters::make_graph` at n = 8.
    pub make_graph: f64,
    /// `DistanceGraph::closure` at n = 8.
    pub closure: f64,
}

/// Best-of-[`REPS`] nanoseconds per call of `f`.
fn best_ns(mut f: impl FnMut(usize)) -> f64 {
    let mut best = u64::MAX;
    for _ in 0..REPS {
        let t0 = Instant::now();
        for i in 0..CALLS {
            f(i);
        }
        best = best.min(t0.elapsed().as_nanos() as u64);
    }
    best as f64 / CALLS as f64
}

/// The register value replica 0 of a solo two-replica log publishes after
/// `slots` slots: the payload the locked-plane loops move.
fn log_msg(slots: usize) -> LogMsg {
    let params = ConsensusParams::quick(2);
    let procs: Vec<_> = (0..2)
        .map(|pid| {
            let proposals = StaticProposals((0..slots as u64).collect());
            LogCore::new(params.clone(), pid, slots, 8, proposals, pid as u64)
        })
        .collect();
    let mut last = None;
    TurnDriver::new(procs).run_observed(&mut TurnRoundRobin::new(), 1_000_000, |d| {
        last = Some(d.shared()[0].clone());
    });
    last.expect("the log took at least one event")
}

/// Register-plane and arrow unit costs, measured inside the one live body of
/// a free-mode world of two (register accesses need a `Ctx`).
fn register_units(ladder: &mut Ladder) {
    let mut world = World::builder(2)
        .mode(Mode::Free)
        .step_limit(u64::MAX)
        .build();
    let fast = world.fast_reg::<u64>("ladder fast", 0);
    let msg = log_msg(8);
    let locked = world.reg("ladder locked", msg.clone());
    let arrow = DirectArrow::alloc(&world, "ladder arrow", 0, 1);
    let live: ProcBody<Ladder> = Box::new(move |ctx| {
        let mut halted = None;
        let mut unit =
            |f: &mut dyn FnMut(&mut bprc_sim::Ctx, usize) -> Result<(), bprc_sim::Halted>| {
                best_ns(|i| {
                    if let Err(h) = f(ctx, i) {
                        halted = Some(h);
                    }
                })
            };
        let units = Ladder {
            reg_read: unit(&mut |ctx, _| {
                fast.read(ctx).map(|v| {
                    black_box(v);
                })
            }),
            reg_write: unit(&mut |ctx, i| fast.write(ctx, black_box(i as u64))),
            reg_read_locked: unit(&mut |ctx, _| locked.read(ctx).map(|v| drop(black_box(v)))),
            reg_write_locked: unit(&mut |ctx, _| locked.write(ctx, black_box(&msg).clone())),
            arrow_raise: unit(&mut |ctx, _| arrow.raise(ctx)),
            arrow_lower: unit(&mut |ctx, _| arrow.lower(ctx)),
            arrow_check: unit(&mut |ctx, _| {
                arrow.is_raised(ctx).map(|v| {
                    black_box(v);
                })
            }),
            ..Ladder::default()
        };
        halted.map_or(Ok(units), Err)
    });
    let idle: ProcBody<Ladder> = Box::new(|_ctx| Ok(Ladder::default()));
    // Free mode ignores the strategy.
    let report = world.run(vec![live, idle], Box::new(RoundRobin::new()));
    if let Some(units) = report.outputs[0] {
        *ladder = units;
    }
}

/// Measures every unit cost. Takes well under a second.
pub fn measure() -> Ladder {
    let mut ladder = Ladder::default();
    register_units(&mut ladder);

    let n = decide_turn::N;
    let coin = CoinParams::new(n, 3, 1_000_000);
    let mut rng = stream_rng(0, 5);
    let counters: Vec<i64> = (0..n).map(|_| rng.gen_range(-2i64..=2)).collect();
    let mut c = 0;
    ladder.walk_step = best_ns(|i| c = black_box(walk_step(&coin, c, i % 3 == 0)));
    ladder.coin_value = best_ns(|_| {
        black_box(coin_value(&coin, counters[0], black_box(&counters)));
    });

    // A strip state some way into a run: every process has moved a few times.
    let mut edges = EdgeCounters::new(n, 2);
    for _ in 0..4 * n {
        edges.inc_graph(rng.gen_range(0..n));
    }
    let graph = edges.make_graph();
    ladder.make_graph = best_ns(|_| {
        black_box(black_box(&edges).make_graph());
    });
    ladder.next_row = best_ns(|i| {
        black_box(black_box(&edges).next_row(i % n, &graph));
    });
    ladder.closure = best_ns(|_| {
        black_box(black_box(&graph).closure());
    });
    ladder
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rung_measures_something() {
        let l = measure();
        for (name, ns) in [
            ("reg_read", l.reg_read),
            ("reg_write", l.reg_write),
            ("reg_read_locked", l.reg_read_locked),
            ("reg_write_locked", l.reg_write_locked),
            ("arrow_raise", l.arrow_raise),
            ("arrow_lower", l.arrow_lower),
            ("arrow_check", l.arrow_check),
            ("walk_step", l.walk_step),
            ("coin_value", l.coin_value),
            ("next_row", l.next_row),
            ("make_graph", l.make_graph),
            ("closure", l.closure),
        ] {
            assert!(ns > 0.0 && ns.is_finite(), "{name}: {ns}");
        }
        // The locked payload is a grown log message, so moving it costs more
        // than a word on the fast plane.
        assert!(l.reg_read_locked > l.reg_read);
        assert_eq!(log_msg(8).slots.len(), 8);
    }
}
