//! Experiment harness for the BPRC reproduction.
//!
//! The paper (PODC 1989, preliminary version) has no empirical tables or
//! figures — its quantitative content is the lemmas. Each experiment here
//! regenerates one of those claims as a table (see EXPERIMENTS.md for the
//! index and recorded results):
//!
//! | experiment | claim |
//! |---|---|
//! | [`experiments::e1_disagreement`] | Lemma 3.1 — coin disagreement `O(1/b)` |
//! | [`experiments::e2_walk_steps`]   | Lemma 3.2 — `E[steps] ≤ (b+1)²n²` |
//! | [`experiments::e3_overflow`]     | Lemmas 3.3/3.4 — overflow `O(b·n/√m)` |
//! | [`experiments::e4_rounds`]       | §6.3 — constant expected rounds |
//! | [`experiments::e5_total_work`]   | headline — polynomial total work vs baselines |
//! | [`experiments::e6_memory`]       | headline — bounded registers vs \[AH88\] growth |
//! | [`experiments::e7_scan_retries`] | §2 — scan retries under write contention |
//! | [`experiments::e8_claim41`]      | Claim 4.1 — graph game ≡ shrunken game |
//! | [`experiments::e9_snapshot`]     | §2 — P1–P3 hold on real interleavings |
//!
//! Run them all with `cargo run -p bprc-bench --release --bin experiments`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod table;
pub mod verify_gate;

pub use table::Table;

/// How much work an experiment should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small trial counts — seconds, for CI and smoke tests.
    Quick,
    /// The trial counts used for the recorded EXPERIMENTS.md tables.
    Full,
}

impl Scale {
    /// The name documents and run headers record (`"quick"` / `"full"`).
    pub fn name(&self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }

    /// Picks a trial count by scale.
    pub fn trials(&self, quick: u64, full: u64) -> u64 {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}
