//! Bounded polynomial randomized consensus — §§5–6 of the paper.
//!
//! This crate assembles the substrates ([`bprc_snapshot`] scannable memory,
//! [`bprc_coin`] bounded weak shared coin, [`bprc_strip`] bounded rounds
//! strip) into the paper's consensus protocol, and provides everything
//! needed to evaluate it:
//!
//! * [`bounded`] — the protocol itself, written as a pure
//!   *scan → compute → write* state machine ([`bounded::BoundedCore`]) so
//!   the same code runs under the fast turn-based driver
//!   ([`bprc_sim::turn`]) for Monte-Carlo experiments **and** over the real
//!   register-level scannable memory ([`threaded`]);
//! * [`baselines`] — the comparison algorithms: Aspnes–Herlihy \[AH88\]
//!   (polynomial time, unbounded memory), Abrahamson \[A88\] (bounded memory,
//!   exponential time), a perfect-shared-coin oracle (\[CIL87\]-style
//!   reference), and a swap-race protocol built on a consensus-number-2
//!   primitive;
//! * [`arena`] — one object-safe [`arena::Consensus`] trait putting the
//!   bounded protocol and every baseline behind the same build surface, so
//!   chaos, exploration, and telemetry drive all of them unmodified (and
//!   the benchmark harness can race them);
//! * [`virtual_rounds`] — the §6.1 verifier: recomputes virtual global
//!   rounds over the serialized scan sequence and checks their monotonicity
//!   and the decision-safety invariants on every tested execution;
//! * [`multivalued`] — the extension the paper notes ("the protocol can be
//!   extended to handle arbitrary initial values"): bit-by-bit agreement on
//!   fixed-width values over a registry of proposals;
//! * [`meter`] — register bit-width accounting for the boundedness
//!   experiment (bounded protocol flat vs \[AH88\] growing);
//! * [`adversaries`] — protocol-aware schedulers (camp-balancing
//!   split adversary, leader-starving adversary).
//!
//! # Quick start
//!
//! ```
//! use bprc_core::bounded::{BoundedCore, ConsensusParams};
//! use bprc_sim::sched::RandomStrategy;
//! use bprc_sim::turn::TurnDriver;
//!
//! # fn main() {
//! let params = ConsensusParams::quick(3);
//! let procs: Vec<BoundedCore> = (0..3)
//!     .map(|pid| BoundedCore::new(params.clone(), pid, pid % 2 == 0, 42 + pid as u64))
//!     .collect();
//! let report = TurnDriver::new(procs).run(&mut RandomStrategy::new(7), 1_000_000);
//! let decisions: Vec<bool> = report.outputs.iter().map(|o| o.unwrap()).collect();
//! assert!(decisions.windows(2).all(|w| w[0] == w[1]), "agreement");
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adversaries;
pub mod arena;
pub mod baselines;
pub mod bounded;
pub mod meter;
pub mod modelcheck;
pub mod multishot;
pub mod multivalued;
pub mod primitives;
pub mod state;
pub mod threaded;
pub mod verify;
pub mod virtual_rounds;

pub use arena::{arena_strategy, entrants, Consensus};
pub use bounded::{BoundedCore, ConsensusParams};
pub use state::{Pref, ProcState};
pub use verify::{check_telemetry_parity, ConsensusSpec};
