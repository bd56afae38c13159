//! Register and handshake primitives for the BPRC reproduction.
//!
//! The paper's scannable memory (§2) is built from two kinds of registers:
//!
//! * **single-writer multi-reader atomic registers** `V_i` — one per process,
//!   holding that process's published value, with an *alternating (toggle)
//!   bit* so consecutive writes by the same process always differ (the bit
//!   travels inside the value: `bprc-snapshot`'s slot type carries it);
//! * **two-writer two-reader atomic "arrow" registers** `A_ij` — one per
//!   ordered (writer, scanner) pair, used by the writer to announce "I have
//!   updated `V_i`" and by the scanner to acknowledge it.
//!
//! This crate provides both. For the arrows there are two interchangeable
//! implementations behind the [`ArrowCell`] trait:
//!
//! * [`DirectArrow`] — a genuine linearizable two-writer boolean register
//!   (the paper's registers, taken as a primitive);
//! * [`HandshakeArrow`] — the *arrows technique* the paper's footnote 3
//!   recommends ("to save on the complexity of constructing multi-writer
//!   registers"): two single-writer bits, with *raised* encoded as the bits
//!   being unequal. Raising and lowering are then read-then-write sequences
//!   on single-writer registers only.
//!
//! The handshake simulation is not atomic — a raise that overlaps a lower
//! can be absorbed — but in combination with the snapshot's double collect
//! and the toggle bit this is harmless (see `bprc-snapshot` for the argument
//! and the property tests that check it).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arrow;
pub mod swmr;

pub use arrow::{ArrowCell, DirectArrow, HandshakeArrow};
pub use swmr::Swmr;
