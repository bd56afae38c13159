//! The bounded rounds strip — §4 of the paper.
//!
//! The unbounded algorithm of \[AH88\] gives every round of the protocol its
//! own fresh set of memory locations, indexed by an ever-growing round
//! number. The paper's key observation (Observation 1) is that the protocol
//! only ever cares about round numbers **relative to the leaders, and only
//! up to a window of K rounds**: processes more than K rounds behind are
//! ignored, and coins older than K rounds can be recycled.
//!
//! §4 develops the bounded replacement in three steps, mirrored by this
//! crate's modules:
//!
//! 1. [`game`] — the *token game*: each process owns a token on the number
//!    line and may advance it by one. After every move the configuration is
//!    **shrunk** (gaps larger than K are compressed to exactly K) and
//!    **normalized** (translated so the maximum sits at `K·n`), confining
//!    all positions to `[0, K·n]` while preserving every distance the
//!    protocol can observe. *Non-passive shrinking*: a pair's distance never
//!    changes without a move in between.
//! 2. [`graph`] — the *distance graph* `G(S)`: nodes are processes, edge
//!    `(i,j)` present when `i` is at-or-above `j`, weighted by the distance
//!    capped at K. The graph supports `inc(i)` — the image of a token move —
//!    and **Claim 4.1**: playing `inc` on the graph is equivalent to playing
//!    the shrunken game and re-deriving the graph (property-tested
//!    exhaustively).
//! 3. [`counters`] — the *edge counters*: each ordered pair `(i,j)` gets a
//!    counter `e_i[j] ∈ {0, …, 3K−1}` owned by process `i`; the pair
//!    `(e_i[j], e_j[i])` encodes the capped signed distance as a difference
//!    modulo `3K`. `inc_graph(i)` increments `e_i[j]` exactly when `i` is
//!    trailing `j` on a maximal path or leads `j` by less than K — the
//!    bounded, concurrently-updatable representation the consensus protocol
//!    stores in its registers.

//! # Example
//!
//! ```
//! use bprc_strip::{DistanceGraph, EdgeCounters, ShrunkenGame};
//!
//! # fn main() {
//! let (n, k) = (3, 2);
//! let mut game = ShrunkenGame::new(n, k);     // ground truth
//! let mut counters = EdgeCounters::new(n, k); // bounded wire format
//! for mv in [0usize, 0, 1, 0, 2, 0, 0] {
//!     game.move_token(mv);
//!     counters.inc_graph(mv);
//! }
//! // Claim 4.1: the counters decode to exactly the shrunken game's graph.
//! assert_eq!(counters.make_graph(), DistanceGraph::from_game(&game));
//! // Process 0 leads; its lead over the others is capped at K.
//! assert!(counters.make_graph().is_leader(0));
//! assert_eq!(counters.make_graph().delta(0, 1), k as i64);
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod counters;
pub mod game;
pub mod graph;

pub use counters::{inc_row, EdgeCounters};
pub use game::{normalize_k, shrink_k, ShrunkenGame, TokenGame};
pub use graph::{Closure, DistanceGraph};
