//! Register bit-width accounting — the boundedness experiment (E6).
//!
//! The paper's headline is that every register holds a *bounded* number of
//! bits, independent of how long the execution runs. This module measures
//! exactly that, for the bounded protocol and for the \[AH88\] baseline whose
//! registers grow with the round number.

use bprc_sim::turn::{TurnAdversary, TurnDriver, TurnProcess, TurnReport};
use bprc_sim::{Gauge, Telemetry};

/// Tracks the maximal register width observed during a run.
///
/// Since the metrics plane landed this is a thin projection of the
/// [`Gauge::MaxRegisterBits`] / [`Gauge::MaxTotalBits`] high-water gauges
/// (global shard) that [`run_metered`] maintains; it is kept so existing
/// experiment code reads the numbers without touching [`Telemetry`].
#[derive(Debug, Clone, Copy, Default)]
pub struct MemoryHighWater {
    /// Largest single-register width seen (bits).
    pub max_register_bits: u64,
    /// Sum of all register widths at the moment the maximum total occurred.
    pub max_total_bits: u64,
    /// Events applied.
    pub events: u64,
}

impl MemoryHighWater {
    /// Reads the high-water gauges back out of a run's telemetry snapshot
    /// (`events` comes from the report, not the gauges).
    pub fn from_telemetry(t: &Telemetry, events: u64) -> Self {
        MemoryHighWater {
            max_register_bits: t.gauge_global(Gauge::MaxRegisterBits).unwrap_or(0),
            max_total_bits: t.gauge_global(Gauge::MaxTotalBits).unwrap_or(0),
            events,
        }
    }
}

/// Runs a turn-based protocol while measuring register widths after every
/// event, using `bits` to size one register's contents.
///
/// The observed maxima are pushed into the driver's metrics registry as
/// [`Gauge::MaxRegisterBits`] and [`Gauge::MaxTotalBits`] (global shard),
/// so they ride along in the report's [`Telemetry`] and its JSONL export;
/// the returned [`MemoryHighWater`] is the same numbers in struct form.
pub fn run_metered<P: TurnProcess>(
    procs: Vec<P>,
    adversary: &mut dyn TurnAdversary<P::Msg>,
    max_events: u64,
    bits: impl Fn(&P::Msg) -> u64,
) -> (TurnReport<P::Out>, MemoryHighWater) {
    let mut events = 0u64;
    let report = TurnDriver::new(procs).run_observed(adversary, max_events, |driver| {
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
        events = driver.events();
    });
    let hw = MemoryHighWater::from_telemetry(&report.telemetry, events);
    (report, hw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::aspnes_herlihy::AhCore;
    use crate::bounded::{BoundedCore, ConsensusParams};
    use bprc_sim::turn::TurnRandom;

    #[test]
    fn bounded_protocol_register_width_is_flat() {
        let params = ConsensusParams::quick(3);
        let static_bits = params.layout().bits();
        let procs: Vec<BoundedCore> = (0..3)
            .map(|p| BoundedCore::new(params.clone(), p, p % 2 == 0, p as u64))
            .collect();
        let (report, hw) = run_metered(procs, &mut TurnRandom::new(3), 3_000_000, |s| {
            s.register_bits()
        });
        assert!(report.completed);
        assert_eq!(
            hw.max_register_bits, static_bits,
            "bounded register width must never exceed its static size"
        );
    }

    #[test]
    fn ah88_register_width_grows_with_rounds() {
        // Run the unbounded baseline long enough to advance several rounds;
        // its registers accumulate one coin entry per round.
        let procs: Vec<AhCore> = (0..3)
            .map(|p| AhCore::new(3, p, p % 2 == 0, 7 + p as u64, 3))
            .collect();
        let initial_bits = procs[0].register_bits();
        let (report, hw) = run_metered(procs, &mut TurnRandom::new(5), 3_000_000, |s| s.bits());
        assert!(report.completed);
        assert!(
            hw.max_register_bits > initial_bits,
            "AH88 registers must grow: {} vs initial {}",
            hw.max_register_bits,
            initial_bits
        );
    }
}
