//! Baseline algorithms the paper positions itself against, plus the
//! swap-race arena entrant.
//!
//! The *time* and *space* columns are **analytic** — cited from the
//! referenced papers, not re-derived here. The *measured* column says
//! what this repository actually observes empirically: every row runs in
//! the protocol arena ([`crate::arena`]) under identical adversaries, and
//! the verification gate's `arena-*` rows (`BENCH_verify.json`) record its
//! mean rounds, total operations and register high-water bits per `n` and
//! snapshot backend — seed-exact counts, the last of them the space axis
//! of Ovens (arXiv 2305.06507).
//! Wall-clock costs are `benchmark/`'s, not the arena's.
//!
//! | entrant | time (analytic) | space (analytic) | provenance | measured here |
//! |---|---|---|---|---|
//! | [`RoundCore::aspnes_herlihy`] | polynomial expected | **unbounded** | \[AH88\] | arena rounds/ops/bits; register growth (E6) |
//! | [`RoundCore::local_coin`] | **exponential** expected | bounded-per-round | \[A88\] (simplified) | arena rounds/ops/bits; running time (E5) |
//! | [`RoundCore::oracle`] | constant expected rounds | bounded | \[CIL87\]-style atomic-coin reference | arena rounds/ops/bits |
//! | [`swap_race`] | probabilistic; deterministic for n = 2 (swap has consensus number 2) | bounded (rounds pre-allocated) | after Ovens, arXiv 2305.06507 | arena rounds/ops/bits |
//!
//! The three register-only baselines are one protocol body, [`RoundCore`]
//! (leaders, adoption, ⊥, coin), and differ only in the coin a demoted
//! process consults, so that differences in the experiments isolate the
//! *coin* and the *rounds representation*, which is where the paper's
//! contribution lives. The Abrahamson baseline keeps the unbounded round
//! counter of its siblings (we compare running time against it, not
//! space); its defining feature — independent local coins instead of a
//! shared coin — is what makes it exponential. The swap-race entrant is
//! deliberately *not* register-only: it shows what the arena looks like
//! when the model is strengthened with a consensus-number-2 primitive.

pub mod round;
pub mod swap_race;

pub use round::{RoundCore, RoundState};
pub use swap_race::swap_race_bodies;
