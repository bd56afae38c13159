//! Bounded scannable memory — §2 of the paper.
//!
//! A *scannable memory* is an array of `n` per-process cells supporting two
//! operations: `update(i, v)` (process `i` publishes a value) and `scan(i)`
//! (process `i` obtains a view of **all** cells). The paper requires three
//! properties of the views:
//!
//! * **P1 — regularity**: every returned value was written by a write that
//!   *potentially coexisted* with the scan (no stale-beyond-one or
//!   from-the-future values);
//! * **P2 — snapshot**: the returned values pairwise potentially coexisted —
//!   the view could have been an instantaneous picture of memory;
//! * **P3 — scan serializability**: the views of any two scans are
//!   comparable (one is componentwise no older than the other).
//!
//! The construction ([`ScannableMemory`]) is the paper's: one SWMR register
//! `V_i` per process carrying a toggle bit, plus an arrow register `A_ij`
//! per ordered pair. An update first raises all the writer's arrows, then
//! writes the value; a scan lowers the arrows aimed at it, double-collects
//! the values, re-reads the arrows, and retries unless nothing moved.
//!
//! As in the paper, `update` is wait-free but `scan` is not: it can be
//! starved by an adversary that keeps writing — though every retry is caused
//! by a *new* write, so the memory as a whole makes progress. The
//! [`checker`] module verifies P1–P3 offline against recorded histories.
//!
//! # Example
//!
//! ```
//! use bprc_sim::World;
//! use bprc_sim::sched::RandomStrategy;
//! use bprc_registers::DirectArrow;
//! use bprc_snapshot::ScannableMemory;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut world = World::builder(2).seed(1).build();
//! let mem = ScannableMemory::<u32, DirectArrow>::new(&world, 2, 0);
//! let mut p0 = mem.port(0);
//! let mut p1 = mem.port(1);
//! let report = world.run::<Vec<u32>>(
//!     vec![
//!         Box::new(move |ctx| {
//!             p0.update(ctx, 7)?;
//!             p0.scan(ctx)
//!         }),
//!         Box::new(move |ctx| {
//!             p1.update(ctx, 9)?;
//!             p1.scan(ctx)
//!         }),
//!     ],
//!     Box::new(RandomStrategy::new(3)),
//! );
//! let view = report.outputs[0].as_ref().expect("scan completed");
//! assert_eq!(view[0], 7); // own value always current
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod checker;
pub(crate) mod collect;
pub mod memory;

pub use backend::{ScanStats, SnapshotBackend, SnapshotPort};
pub use checker::{check_history, CheckReport, IncrementalChecker, SnapshotViolation};
pub use memory::{Access, Port, ScanMachine, ScannableMemory, SnapshotMeta, UpdateMachine};
