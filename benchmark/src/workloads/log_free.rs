//! `log-free-n2-live1`: multishot logs, each a free-mode world of two
//! `LogCore` replicas over the handshake memory, where replica 1 returns at
//! once and replica 0 appends its sixteen proposals solo. The whole stack
//! composed — and the same snapshot and register layers as
//! `scan-free-n32-live1` used differently: a wide non-POD payload on the
//! locked plane, one update per scan, n = 2, and a `World` spawned per log.
//!
//! With `live = 2` (the traced run's ungated contended twin) replica 1 runs
//! too, and a slot may hold either replica's proposal.

use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::Instant;

use bprc_core::bounded::ConsensusParams;
use bprc_core::multishot::{LogCore, LogMsg, ProposalSource};
use bprc_core::threaded::over_snapshot;
use bprc_registers::DirectArrow;
use bprc_sim::rng::{derive_seed, stream_rng};
use bprc_sim::sched::RoundRobin;
use bprc_sim::turn::TurnProcess;
use bprc_sim::world::ProcBody;
use bprc_sim::{Counter, Mode, World};
use bprc_snapshot::{ScannableMemory, SnapshotBackend};
use rand::Rng;

use super::Workload;
use crate::measure::{fold, PassRecord, FOLD_INIT};
use crate::spans;
use crate::wrappers::{TracedBackend, TracedProc};

/// Logs per pass.
pub const LOGS: usize = 32;
/// Slots per log; one op is one append.
pub const SLOTS: usize = 16;
/// Replicas per log.
const N: usize = 2;
/// Bits per proposed value.
const WIDTH: u32 = 8;

type Memory = ScannableMemory<LogMsg, DirectArrow>;
type Stamps = Arc<Mutex<Vec<Instant>>>;

/// A replica's proposals. Replica 0's copy stamps the instant of every call
/// made while the log runs: those calls are the boundaries between appends.
#[derive(Debug)]
struct Proposals {
    values: Vec<u64>,
    stamps: Option<Stamps>,
}

impl ProposalSource for Proposals {
    fn next_proposal(&mut self, decided: &[u64]) -> u64 {
        // The first call comes from the constructor, in the build span.
        if let (Some(stamps), false) = (&self.stamps, decided.is_empty()) {
            stamp(stamps);
        }
        self.values[decided.len()]
    }
}

fn stamp(stamps: &Stamps) {
    // Pushing leaves the vector valid at every step.
    stamps
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(Instant::now());
}

/// The workload: each log's proposals, per replica.
#[derive(Debug)]
pub struct LogFree {
    seed: u64,
    live: usize,
    /// `proposals[log][replica][slot]`.
    proposals: Vec<[Vec<u64>; N]>,
}

impl LogFree {
    /// Generates the proposals from `seed`; `live` replicas run.
    pub fn new(seed: u64, live: usize) -> Self {
        assert!((1..=N).contains(&live), "one or two live replicas");
        let mut rng = stream_rng(seed, 3);
        let mut draw = || {
            (0..SLOTS)
                .map(|_| rng.gen_range(0..1u64 << WIDTH))
                .collect()
        };
        let proposals = (0..LOGS).map(|_| [draw(), draw()]).collect();
        LogFree {
            seed,
            live,
            proposals,
        }
    }

    /// Builds log `log`'s world and bodies (build span), runs it (run span),
    /// checks the decided log, and fills its sixteen items of `rec`.
    fn run_log<P, B>(
        &self,
        log: usize,
        wrap: impl Fn(LogCore<Proposals>) -> P,
        rec: &mut PassRecord,
        traced: bool,
    ) where
        P: TurnProcess<Msg = LogMsg, Out = Vec<u64>> + Send + 'static,
        B: SnapshotBackend<LogMsg>,
    {
        let t0 = Instant::now();
        let build_span = traced.then(|| spans::enter("sim.world.build"));
        let log_seed = derive_seed(self.seed, log as u64);
        let mut world = World::builder(N)
            .mode(Mode::Free)
            .seed(log_seed)
            .step_limit(u64::MAX)
            .build();
        let stamps: Stamps = Arc::new(Mutex::new(Vec::with_capacity(SLOTS + 1)));
        let params = ConsensusParams::quick(N);
        let procs = (0..N)
            .map(|pid| {
                let source = Proposals {
                    values: self.proposals[log][pid].clone(),
                    stamps: (pid == 0).then(|| Arc::clone(&stamps)),
                };
                let seed = derive_seed(log_seed, pid as u64);
                wrap(LogCore::new(
                    params.clone(),
                    pid,
                    SLOTS,
                    WIDTH,
                    source,
                    seed,
                ))
            })
            .collect();
        let (_memory, bodies) = over_snapshot::<P, B>(&world, procs, LogMsg { slots: Vec::new() });
        let Ok([append, replica1]) = <[ProcBody<Vec<u64>>; N]>::try_from(bodies) else {
            unreachable!("over_snapshot returns one body per process");
        };
        let (idle_tx, idle_rx) = mpsc::channel();
        let other: ProcBody<Vec<u64>> = match self.live {
            1 => Box::new(move |_ctx| {
                idle_tx
                    .send(())
                    .expect("replica 0 outlives the idle replica");
                Ok(Vec::new())
            }),
            _ => replica1,
        };
        let (ends, idle) = (Arc::clone(&stamps), N - self.live);
        let timed: ProcBody<Vec<u64>> = Box::new(move |ctx| {
            for _ in 0..idle {
                idle_rx
                    .recv()
                    .expect("the idle replica signals before returning");
            }
            let _span = traced.then(|| spans::enter("sim.world.body"));
            stamp(&ends);
            let result = append(ctx);
            stamp(&ends);
            result
        });
        let bodies = vec![timed, other];
        drop(build_span);
        let t1 = Instant::now();
        rec.build_ns[log] = (t1 - t0).as_nanos() as u64;

        let run_span = traced.then(|| spans::enter("sim.world.run").share());
        // Free mode ignores the strategy.
        let report = world.run(bodies, Box::new(RoundRobin::new()));
        drop(run_span);

        rec.counts.add(&report.telemetry);
        let items = log * SLOTS..(log + 1) * SLOTS;
        let stamps = stamps.lock().unwrap_or_else(PoisonError::into_inner);
        let mine = &self.proposals[log];
        let decided = report.outputs[0].as_deref().unwrap_or(&[]);
        let ok = stamps.len() == SLOTS + 1
            && decided.len() == SLOTS
            && match self.live {
                // Solo: wait-freedom, and the log is exactly my proposals.
                1 => decided == mine[0],
                _ => {
                    report.outputs[1].as_deref() == Some(decided)
                        && (0..SLOTS).all(|s| decided[s] == mine[0][s] || decided[s] == mine[1][s])
                }
            };
        if !ok {
            rec.failed += SLOTS as u64;
            return;
        }
        for (slot, item) in items.enumerate() {
            rec.run_ns[item] = (stamps[slot + 1] - stamps[slot]).as_nanos() as u64;
            if traced {
                spans::record("core.append", stamps[slot], stamps[slot + 1], item);
            }
            rec.prints[item] = fold(FOLD_INIT, decided[slot]);
        }
    }
}

impl Workload for LogFree {
    fn record(&self) -> PassRecord {
        PassRecord::new(LOGS, LOGS * SLOTS)
    }

    fn ops(&self) -> u64 {
        (LOGS * SLOTS) as u64
    }

    fn pass(&mut self, rec: &mut PassRecord, traced: bool) {
        for log in 0..LOGS {
            if traced {
                spans::set_item(log * SLOTS);
                self.run_log::<_, TracedBackend<Memory>>(log, TracedProc, rec, true);
            } else {
                self.run_log::<_, Memory>(log, |core| core, rec, false);
            }
        }
        rec.steps = rec.counts.get(Counter::RegReads) + rec.counts.get(Counter::RegWrites);
    }
}
