//! Bounded weak shared coin — §3 of the paper.
//!
//! A *weak shared coin* lets `n` asynchronous processes obtain (with high
//! probability) a common random bit, even against a strong adversary. The
//! construction is the random-walk coin of Aspnes–Herlihy \[AH88\]: each
//! process keeps a counter `c_i`; to "flip", a process repeatedly reads all
//! counters, and if the *walk value* `Σ c_i` has crossed `+b·n` decides
//! *heads*, below `−b·n` decides *tails*, and otherwise moves its own
//! counter by ±1 according to a local fair coin.
//!
//! The paper's contribution (this crate's reason to exist) is **bounding the
//! counters**: each `c_i` lives in `{−(m+1), …, m+1}`, and a process whose
//! own counter has escaped `{−m, …, m}` simply decides *heads*
//! deterministically. Lemmas 3.3/3.4 show that for `m` large enough
//! (`m = (f(b)·n)²`), the probability that any counter overflows within the
//! coin's lifetime is `O(b·n/√m)` — absorbable into the coin's inherent
//! disagreement probability (Lemma 3.1: `O(1/b)`), so boundedness costs
//! nothing asymptotically.
//!
//! Quantitative claims reproduced by the experiment harness (see
//! EXPERIMENTS.md):
//!
//! * Lemma 3.1 — disagreement probability `O(1/b)`;
//! * Lemma 3.2 — expected total steps to decide `≤ (b+1)²·n²`;
//! * Lemmas 3.3/3.4 — overflow probability `≤ C·b·n/√m`.
//!
//! Three layers are provided:
//!
//! * [`params::CoinParams`] and [`value`] — the pure decision rules
//!   (`coin_value`, clamped walk steps), shared with the consensus protocol;
//! * [`montecarlo`] — an exact single-machine simulator of the coin at
//!   register-operation granularity with pluggable adversaries, fast enough
//!   for millions of trials;
//! * [`shared`] — the same algorithm over real `bprc-sim` registers and
//!   threads, for full-stack validation.

//! # Example
//!
//! ```
//! use bprc_coin::montecarlo::run_walk;
//! use bprc_sim::sched::RoundRobin;
//! use bprc_coin::{CoinParams, CoinValue, Flips};
//!
//! # fn main() {
//! let params = CoinParams::new(3, 2, 1_000);
//! let flips: Vec<Flips> = (0..3).map(|p| Flips::fair(7 + p)).collect();
//! let outcome = run_walk(&params, flips, &mut RoundRobin::new(), 1_000_000);
//! assert!(outcome.decisions.iter().all(|d| d.is_some()));
//! assert!(!outcome.disagreed, "fair schedule, big b: agreement");
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod flip;
pub mod montecarlo;
pub mod params;
pub mod shared;
pub mod theory;
pub mod value;

pub use flip::Flips;
pub use params::CoinParams;
pub use value::CoinValue;
