//! Execution substrate for the BPRC reproduction.
//!
//! The algorithms in this workspace (the bounded scannable memory, the weak
//! shared coin, and the consensus protocol itself) are written against the
//! asynchronous shared-memory model of the paper: `n` completely asynchronous
//! processes communicating only through atomic read/write registers, with a
//! *strong adversary* controlling the interleaving.
//!
//! This crate provides that model twice, at two different granularities:
//!
//! * [`world::World`] — every process runs on its own OS thread. In
//!   [`world::Mode::Lockstep`] each shared-memory access blocks at a
//!   per-process gate and a [`sched::Strategy`] — consulted by whichever
//!   process thread leaves the world quiescent — grants exactly one access
//!   at a time, giving **deterministic, replayable,
//!   adversary-controlled executions** with a recorded [`history::History`].
//!   In [`world::Mode::Free`] the registers are still linearizable but the OS
//!   provides the interleaving — this validates the algorithms on real
//!   hardware concurrency.
//!
//! * [`turn::TurnDriver`] — a single-threaded event loop that schedules
//!   processes at the protocol's natural *scan / write* granularity. Every
//!   protocol in this workspace is a loop of "snapshot-scan the shared memory,
//!   compute, write my own register"; expressing that loop as a
//!   [`turn::TurnProcess`] state machine lets the driver run millions of
//!   adversary-scheduled steps per second for Monte-Carlo estimation of the
//!   paper's probabilistic lemmas. The fine-grained register-level
//!   interleavings inside the scan are exercised separately through
//!   [`world::World`].
//!
//! # Example
//!
//! ```
//! use bprc_sim::world::{World, Mode};
//! use bprc_sim::sched::RandomStrategy;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut world = World::builder(2).mode(Mode::Lockstep).build();
//! let reg = world.reg("shared flag", 0u32);
//! let r0 = reg.clone();
//! let r1 = reg.clone();
//! let report = world.run(
//!     vec![
//!         Box::new(move |ctx| {
//!             r0.write(ctx, 41)?;
//!             Ok(r0.read(ctx)? + 1)
//!         }),
//!         Box::new(move |ctx| r1.read(ctx)),
//!     ],
//!     Box::new(RandomStrategy::new(7)),
//! );
//! assert_eq!(report.outputs[0], Some(42));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod explore;
pub mod faults;
pub mod history;
pub mod json;
pub mod litmus;
pub mod metrics;
mod pool;
pub mod reg;
pub mod rng;
pub mod sched;
pub mod trace;
pub mod tracing;
pub mod turn;
pub mod weakmem;
pub mod world;

pub use error::Halted;
pub use explore::{Counterexample, DecisionTrace, ExploreConfig, ExploreReport, Independence};
pub use faults::{FaultPlan, FaultedStrategy};
pub use history::FaultKind;
pub use metrics::{Counter, Gauge, MetricsRegistry, ProcMetrics, Telemetry};
pub use reg::{FastPod, Reg, RegName, BIT_CHUNK_BITS, MAX_FAST_WORDS, NO_VERSION};
pub use sched::{Decision, Level, ScheduleView, Strategy};
pub use tracing::{
    now_nanos, EventKind, FlightLog, FlightRecorder, Heartbeat, Hist, Histogram, TraceEvent,
    DEFAULT_RING_CAPACITY,
};
pub use weakmem::{
    critical_cycle, CriticalCycle, CycleNode, EdgeKind, RandomFlushes, WeakMode, FENCE_REG,
};
pub use world::{Ctx, Mode, RunReport, ValueSlab, World, WorldBuilder};
