//! The estimator: per-item minima over repeated identical passes.
//!
//! Interference on a shared machine only ever makes an item slower, so the
//! minimum over R repetitions of the *same* deterministic item is the
//! statistic it moves least: over twelve runs in a noisy half hour the sums
//! of per-item minima spread 3–16 % (interquartile) where the median pass
//! spread 22–32 % (README.md has the table). What no statistic of one run
//! removes is a slowdown that lasts the whole run. Only the running minima
//! are kept, so memory is O(items) whatever R is.

use bprc_sim::{Counter, Telemetry};

/// Totals of the program's own [`Telemetry`] counters, indexed by
/// `Counter as usize`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counts(Vec<u64>);

impl Default for Counts {
    fn default() -> Self {
        Counts(vec![0; Counter::ALL.len()])
    }
}

impl Counts {
    /// Adds every counter of `t`, summed over its shards.
    pub fn add(&mut self, t: &Telemetry) {
        for &c in Counter::ALL {
            self.0[c as usize] += t.total(c);
        }
    }

    /// Adds `k` to counter `c`.
    #[cfg(test)]
    pub fn incr(&mut self, c: Counter, k: u64) {
        self.0[c as usize] += k;
    }

    /// The total of counter `c`.
    pub fn get(&self, c: Counter) -> u64 {
        self.0[c as usize]
    }

    fn clear(&mut self) {
        self.0.fill(0);
    }
}

/// What one pass over a workload's fixed item list produced. Buffers are
/// sized once and refilled in place by every pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassRecord {
    /// Nanoseconds of each build span (inputs, world, memory and core
    /// constructors, boxing bodies), in build order.
    pub build_ns: Vec<u64>,
    /// Nanoseconds of each item's run span, in item order.
    pub run_ns: Vec<u64>,
    /// One word per item folding its step count and outputs.
    pub prints: Vec<u64>,
    /// The paper's cost unit summed over the pass: register accesses, or
    /// scan + update events under the turn driver.
    pub steps: u64,
    /// Telemetry totals of the pass.
    pub counts: Counts,
    /// Deepest decision stack the pass's exploration reached (0 without
    /// one).
    pub max_depth: usize,
    /// Operations that halted or failed a correctness check.
    pub failed: u64,
}

impl PassRecord {
    /// A zeroed record for `builds` build spans and `items` items.
    pub fn new(builds: usize, items: usize) -> Self {
        PassRecord {
            build_ns: vec![0; builds],
            run_ns: vec![0; items],
            prints: vec![0; items],
            steps: 0,
            counts: Counts::default(),
            max_depth: 0,
            failed: 0,
        }
    }

    /// Zeroes the record for the next pass, keeping its buffers.
    pub fn clear(&mut self) {
        self.build_ns.fill(0);
        self.run_ns.fill(0);
        self.prints.fill(0);
        self.steps = 0;
        self.counts.clear();
        self.max_depth = 0;
        self.failed = 0;
    }

    /// Whether this pass did exactly the work `reference` did: same step
    /// count, same per-item fingerprints, same telemetry, same coverage.
    pub fn same_work(&self, reference: &PassRecord) -> bool {
        self.steps == reference.steps
            && self.prints == reference.prints
            && self.counts == reference.counts
            && self.max_depth == reference.max_depth
    }
}

/// Folds `word` into the running fingerprint `acc` (FNV-1a over the eight
/// bytes; any mixing that makes unequal sequences unequal words would do).
pub fn fold(acc: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(acc, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Seed of [`fold`] chains.
pub const FOLD_INIT: u64 = 0xCBF2_9CE4_8422_2325;

/// The best-of-R reducer.
#[derive(Debug, Clone)]
pub struct BestOf {
    build_min: Vec<u64>,
    run_min: Vec<u64>,
    /// Σ run span of each absorbed pass, for the noise report.
    pass_totals: Vec<u64>,
}

impl BestOf {
    /// A reducer for passes shaped like `shape`, expecting `passes` of them.
    pub fn new(shape: &PassRecord, passes: usize) -> Self {
        BestOf {
            build_min: vec![u64::MAX; shape.build_ns.len()],
            run_min: vec![u64::MAX; shape.run_ns.len()],
            pass_totals: Vec::with_capacity(passes),
        }
    }

    /// Lowers each item's minimum to this pass's time where it was faster.
    pub fn absorb(&mut self, pass: &PassRecord) {
        for (m, &t) in self.build_min.iter_mut().zip(&pass.build_ns) {
            *m = (*m).min(t);
        }
        for (m, &t) in self.run_min.iter_mut().zip(&pass.run_ns) {
            *m = (*m).min(t);
        }
        self.pass_totals.push(pass.run_ns.iter().sum());
    }

    /// Passes absorbed so far.
    pub fn passes(&self) -> usize {
        self.pass_totals.len()
    }

    /// Σᵢ `bmin[i]` in seconds: the best time to build one pass's worth of
    /// instances.
    pub fn setup_s(&self) -> f64 {
        self.build_min.iter().sum::<u64>() as f64 * 1e-9
    }

    /// Σᵢ `tmin[i]` in seconds: the best time to run one pass's items.
    pub fn run_s(&self) -> f64 {
        self.run_min.iter().sum::<u64>() as f64 * 1e-9
    }

    /// The `p`-th percentile (0 < p < 100) of the per-item minima, in µs.
    pub fn latency_us(&self, p: u32) -> f64 {
        let mut sorted = self.run_min.clone();
        sorted.sort_unstable();
        sorted[percentile_index(sorted.len(), p)] as f64 * 1e-3
    }

    /// Median over passes of Σ run span ÷ Σᵢ `tmin[i]`: how far a typical
    /// pass sat above the undisturbed cost, i.e. how noisy the machine was.
    pub fn medpass_over_best(&self) -> f64 {
        let mut totals = self.pass_totals.clone();
        totals.sort_unstable();
        totals[percentile_index(totals.len(), 50)] as f64 * 1e-9 / self.run_s()
    }
}

/// Index of the `p`-th percentile in a sorted sample of `len` (nearest rank:
/// the smallest index with at least p % of the sample at or below it).
///
/// # Panics
///
/// Panics if `len == 0` or `p` is not in `1..=99`.
pub fn percentile_index(len: usize, p: u32) -> usize {
    assert!(len > 0, "percentile of an empty sample");
    assert!((1..100).contains(&p), "percentile must be in 1..=99");
    (len * p as usize).div_ceil(100) - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(build: &[u64], run: &[u64]) -> PassRecord {
        let mut p = PassRecord::new(build.len(), run.len());
        p.build_ns.copy_from_slice(build);
        p.run_ns.copy_from_slice(run);
        p
    }

    #[test]
    fn best_of_keeps_per_item_minima_not_the_best_pass() {
        let a = pass(&[5_000], &[1_000, 9_000, 3_000]);
        let b = pass(&[7_000], &[4_000, 2_000, 3_500]);
        let mut best = BestOf::new(&a, 2);
        best.absorb(&a);
        best.absorb(&b);
        assert_eq!(best.passes(), 2);
        // Item minima 1000 + 2000 + 3000, below either pass's own total.
        assert!((best.run_s() - 6_000e-9).abs() < 1e-15);
        assert!((best.setup_s() - 5_000e-9).abs() < 1e-15);
        assert_eq!(best.latency_us(50), 2.0);
        assert_eq!(best.latency_us(90), 3.0);
        // Pass totals 13000 and 9500; nearest-rank median of two is the lower.
        assert!((best.medpass_over_best() - 9_500.0 / 6_000.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_index_is_nearest_rank() {
        assert_eq!(percentile_index(1, 50), 0);
        assert_eq!(percentile_index(2, 50), 0);
        assert_eq!(percentile_index(3, 50), 1);
        assert_eq!(percentile_index(10, 90), 8);
        assert_eq!(percentile_index(486, 50), 242);
        // p90 of 486 items leaves 48 beyond it.
        assert_eq!(486 - 1 - percentile_index(486, 90), 48);
        assert_eq!(percentile_index(1000, 99), 989);
    }

    #[test]
    fn same_work_sees_a_changed_item_step_count_or_counter() {
        let mut reference = PassRecord::new(1, 3);
        reference.prints = vec![fold(FOLD_INIT, 1), fold(FOLD_INIT, 2), fold(FOLD_INIT, 3)];
        reference.steps = 6;
        let mut other = reference.clone();
        assert!(other.same_work(&reference));
        other.build_ns[0] = 99; // times are not part of the work
        other.run_ns[1] = 99;
        assert!(other.same_work(&reference));
        other.prints[1] = fold(FOLD_INIT, 4);
        assert!(!other.same_work(&reference));
        other = reference.clone();
        other.steps += 1;
        assert!(!other.same_work(&reference));
        other = reference.clone();
        other.counts.incr(Counter::Scans, 1);
        assert!(!other.same_work(&reference));
    }

    #[test]
    fn fold_depends_on_order() {
        let ab = fold(fold(FOLD_INIT, 1), 2);
        let ba = fold(fold(FOLD_INIT, 2), 1);
        assert_ne!(ab, ba);
    }
}
