//! The four workloads. Each is a closed loop with one client: a fixed item
//! list generated from the seed, run by exactly one runnable thread at any
//! instant, with nothing time-based. README.md says why each exists and
//! which layer it isolates or bypasses.

pub mod decide_turn;
pub mod explore_lockstep;
pub mod log_free;
pub mod scan_free;

use crate::measure::PassRecord;

/// A fixed, seeded list of items that can be run any number of times.
pub trait Workload {
    /// A zeroed record with this workload's build-span and item counts.
    fn record(&self) -> PassRecord;

    /// Operations one pass performs (the denominator of `ops_per_sec` and
    /// `steps_per_op`).
    fn ops(&self) -> u64;

    /// Runs every item once, checking its outputs, and fills `rec` in place.
    /// With `traced`, the harness wrappers record spans around the calls
    /// into each layer.
    fn pass(&mut self, rec: &mut PassRecord, traced: bool);
}

/// A workload's name, frozen sizing and constructor.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Items per pass (W).
    pub items: usize,
    /// Timed passes (R) of a run of [`REF_SECONDS`]; `--seconds` scales it.
    pub passes: usize,
    /// Builds the workload from a seed.
    pub build: fn(u64) -> Box<dyn Workload>,
}

/// The `--seconds` value the [`Spec::passes`] are sized for: on the machine
/// the benchmark was defined on they fill about three quarters of it.
pub const REF_SECONDS: u64 = 25;

/// Every workload, in reporting order.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "decide-turn-n8",
        items: decide_turn::INSTANCES,
        passes: 20,
        build: |seed| Box::new(decide_turn::DecideTurn::new(seed)),
    },
    Spec {
        name: "scan-free-n32-live1",
        items: scan_free::ROUNDS * (1 + scan_free::SCANS_PER_UPDATE),
        passes: 200,
        build: |seed| Box::new(scan_free::ScanFree::new(seed, 1)),
    },
    Spec {
        name: "log-free-n2-live1",
        items: log_free::LOGS * log_free::SLOTS,
        passes: 68,
        build: |seed| Box::new(log_free::LogFree::new(seed, 1)),
    },
    Spec {
        name: "explore-lockstep-n2",
        items: explore_lockstep::SCHEDULES_REF as usize,
        passes: 72,
        build: |seed| Box::new(explore_lockstep::ExploreLockstep::new(seed)),
    },
];

/// The spec of the workload called `name`.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn another_seed_keeps_every_workload_shape() {
        for spec in &SPECS {
            let (a, b) = ((spec.build)(1), (spec.build)(2));
            assert_eq!(a.record().run_ns.len(), spec.items, "{}", spec.name);
            assert_eq!(b.record().run_ns.len(), spec.items, "{}", spec.name);
            assert_eq!(a.record().build_ns.len(), b.record().build_ns.len());
            assert_eq!(a.ops(), b.ops());
        }
        assert!(super::spec("no-such-workload").is_none());
    }

    #[test]
    fn stand_in_gen_range_stays_in_range() {
        let mut rng = bprc_sim::rng::stream_rng(9, 9);
        for _ in 0..10_000 {
            assert!((3..7usize).contains(&rng.gen_range(3..7usize)));
            assert!((-2..=2i64).contains(&rng.gen_range(-2i64..=2)));
            assert!(rng.gen_range(0..1u32) == 0);
            assert!((0.0..1.0).contains(&rng.gen::<f64>()));
        }
        // Every value of a small range turns up.
        let seen: std::collections::BTreeSet<u32> =
            (0..1000).map(|_| rng.gen_range(0..5u32)).collect();
        assert_eq!(seen.len(), 5);
    }
}
