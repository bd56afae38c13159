//! Register bit-width accounting — the boundedness experiment (E6).
//!
//! The paper's headline is that every register holds a *bounded* number of
//! bits, independent of how long the execution runs. This module measures
//! exactly that, for the bounded protocol and for the \[AH88\] baseline whose
//! registers grow with the round number.

use bprc_sim::turn::{Turn, TurnDriver, TurnProcess, TurnReport};
use bprc_sim::{Gauge, Strategy};

/// Runs a turn-based protocol while measuring register widths after every
/// event, using `bits` to size one register's contents.
///
/// The observed maxima are pushed into the driver's metrics registry as
/// [`Gauge::MaxRegisterBits`] (the widest single register) and
/// [`Gauge::MaxTotalBits`] (the widest sum over all registers), both on the
/// global shard, so they ride along in the report's
/// [`bprc_sim::Telemetry`] and its JSONL export: read them back with
/// [`bprc_sim::Telemetry::gauge_global`].
pub fn run_metered<P: TurnProcess>(
    procs: Vec<P>,
    adversary: &mut dyn Strategy<Turn<P::Msg>>,
    max_events: u64,
    bits: impl Fn(&P::Msg) -> u64,
) -> TurnReport<P::Out> {
    TurnDriver::new(procs).run_observed(adversary, max_events, |driver| {
        let mut total = 0u64;
        let mut max_reg = 0u64;
        for msg in driver.shared() {
            let b = bits(msg);
            max_reg = max_reg.max(b);
            total += b;
        }
        let g = driver.metrics().global();
        g.gauge_max(Gauge::MaxRegisterBits, max_reg);
        g.gauge_max(Gauge::MaxTotalBits, total);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::RoundCore;
    use crate::bounded::{BoundedCore, ConsensusParams};
    use bprc_sim::sched::RandomStrategy;

    #[test]
    fn bounded_protocol_register_width_is_flat() {
        let params = ConsensusParams::quick(3);
        let static_bits = params.layout().bits();
        let procs: Vec<BoundedCore> = (0..3)
            .map(|p| BoundedCore::new(params.clone(), p, p % 2 == 0, p as u64))
            .collect();
        let report = run_metered(procs, &mut RandomStrategy::new(3), 3_000_000, |s| {
            s.register_bits()
        });
        assert!(report.completed);
        assert_eq!(
            report.telemetry.gauge_global(Gauge::MaxRegisterBits),
            Some(static_bits),
            "bounded register width must never exceed its static size"
        );
    }

    #[test]
    fn ah88_register_width_grows_with_rounds() {
        // Run the unbounded baseline long enough to advance several rounds;
        // its registers accumulate one coin entry per round.
        let procs: Vec<RoundCore> = (0..3)
            .map(|p| RoundCore::aspnes_herlihy(3, p, p % 2 == 0, 7 + p as u64, 3))
            .collect();
        let initial_bits = procs[0].probe().register_bits;
        let report = run_metered(procs, &mut RandomStrategy::new(5), 3_000_000, |s| s.bits());
        assert!(report.completed);
        let max_bits = report.telemetry.gauge_global(Gauge::MaxRegisterBits);
        assert!(
            max_bits > Some(initial_bits),
            "AH88 registers must grow: {max_bits:?} vs initial {initial_bits}"
        );
    }
}
