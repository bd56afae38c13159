//! # bprc — Bounded Polynomial Randomized Consensus
//!
//! A faithful, tested Rust reproduction of *"Bounded Polynomial Randomized
//! Consensus"* (Attiya, Dolev, Shavit — PODC 1989): the first wait-free
//! randomized consensus algorithm for asynchronous shared memory that is
//! simultaneously **bounded in space** and **polynomial in expected time**.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`sim`] — execution substrate: lockstep deterministic scheduler over
//!   OS threads, free-running mode, adversaries, recorded histories, and a
//!   fast turn-based driver;
//! * [`registers`] — SWMR registers and the two arrow (`A_ij`)
//!   implementations;
//! * [`snapshot`] — the §2 bounded scannable memory (atomic snapshot) with
//!   offline P1–P3 checkers;
//! * [`coin`] — the §3 bounded weak shared coin (random walk with
//!   overflow-to-heads counters) and its Monte-Carlo harness;
//! * [`strip`] — the §4 bounded rounds strip (token game, distance graph,
//!   cyclic edge counters; Claim 4.1 property-tested);
//! * [`core`] — the §5 protocol, §6 virtual-round verifier, exhaustive
//!   model checker, baselines (\[AH88\], \[A88\], oracle coin), the
//!   multivalued extension, and the multi-shot log.
//!
//! ## Quick start
//!
//! ```
//! use bprc::core::bounded::{BoundedCore, ConsensusParams};
//! use bprc::sim::sched::RandomStrategy;
//! use bprc::sim::turn::TurnDriver;
//!
//! # fn main() {
//! let n = 4;
//! let params = ConsensusParams::quick(n);
//! let procs: Vec<BoundedCore> = (0..n)
//!     .map(|pid| BoundedCore::new(params.clone(), pid, pid % 2 == 0, 7 + pid as u64))
//!     .collect();
//! let report = TurnDriver::new(procs).run(&mut RandomStrategy::new(1), 10_000_000);
//! assert!(report.completed);
//! assert_eq!(report.distinct_outputs().len(), 1, "agreement");
//! # }
//! ```
//!
//! See the `examples/` directory for thread-based and adversarial runs, and
//! `EXPERIMENTS.md` for the reproduction of the paper's quantitative
//! claims.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use bprc_coin as coin;
pub use bprc_core as core;
pub use bprc_registers as registers;
pub use bprc_sim as sim;
pub use bprc_snapshot as snapshot;
pub use bprc_strip as strip;
