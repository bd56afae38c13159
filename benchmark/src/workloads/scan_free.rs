//! `scan-free-n32-live1`: one free-mode world of 32 whose only live process
//! alternates one `update` with eight `scan_into` calls on the handshake
//! memory over the fast register plane. The real-atomics registers, the
//! arrows and the double collect dominate; `core`, `coin` and `strip` are
//! absent, so this is the bypass for `decide-turn-n8`.
//!
//! With `live = 2` (the traced run's ungated contended twin) process 1
//! updates in a loop until process 0 is done.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

use bprc_registers::DirectArrow;
use bprc_sim::rng::stream_rng;
use bprc_sim::sched::RoundRobin;
use bprc_sim::world::ProcBody;
use bprc_sim::{Counter, Halted, Mode, World};
use bprc_snapshot::{ScannableMemory, SnapshotBackend, SnapshotPort};
use rand::Rng;

use super::Workload;
use crate::measure::{fold, PassRecord, FOLD_INIT};
use crate::spans;
use crate::wrappers::TracedPort;

/// Processes in the world.
pub const N: usize = 32;
/// Update rounds per pass.
pub const ROUNDS: usize = 2000;
/// Scans after each update; one op is one port call.
pub const SCANS_PER_UPDATE: usize = 8;

type Memory = ScannableMemory<u64, DirectArrow>;

/// What a process body hands back: the live process returns the buffers it
/// was given, filled; the others return empty ones.
#[derive(Debug, Default)]
struct BodyOut {
    run_ns: Vec<u64>,
    prints: Vec<u64>,
    failed: u64,
}

/// The workload: the values process 0 publishes, strictly increasing so that
/// slot-wise monotonicity of successive views is a real check.
#[derive(Debug)]
pub struct ScanFree {
    seed: u64,
    live: usize,
    values: Arc<Vec<u64>>,
}

impl ScanFree {
    /// Generates the update values from `seed`; `live` processes run.
    pub fn new(seed: u64, live: usize) -> Self {
        assert!((1..=2).contains(&live), "one or two live processes");
        let mut rng = stream_rng(seed, 2);
        let mut v = 0u64;
        let values = (0..ROUNDS)
            .map(|_| {
                v += rng.gen_range(1..=1u64 << 32);
                v
            })
            .collect();
        ScanFree {
            seed,
            live,
            values: Arc::new(values),
        }
    }

    /// The body of process 0: waits until the idle processes are gone, then
    /// times each port call into the buffers it was handed.
    fn live_body<P: SnapshotPort<u64>>(
        &self,
        mut port: P,
        idle_gone: mpsc::Receiver<()>,
        done: Arc<AtomicBool>,
        mut out: BodyOut,
        traced: bool,
    ) -> ProcBody<BodyOut> {
        let values = Arc::clone(&self.values);
        let idle = N - self.live;
        Box::new(move |ctx| {
            for _ in 0..idle {
                idle_gone
                    .recv()
                    .expect("idle bodies signal before returning");
            }
            let _span = traced.then(|| spans::enter("sim.world.body"));
            let mut view: Vec<u64> = vec![0; N];
            let mut prev: Vec<u64> = vec![0; N];
            let mut k = 0;
            let result = (|| -> Result<(), Halted> {
                for &v in values.iter() {
                    let t0 = Instant::now();
                    port.update(ctx, v)?;
                    out.run_ns[k] = t0.elapsed().as_nanos() as u64;
                    out.prints[k] = fold(FOLD_INIT, v);
                    k += 1;
                    for _ in 0..SCANS_PER_UPDATE {
                        let t0 = Instant::now();
                        port.scan_into(ctx, &mut view)?;
                        out.run_ns[k] = t0.elapsed().as_nanos() as u64;
                        // The view holds my own last update and no slot
                        // went backwards.
                        let ok = view[0] == v && view.iter().zip(&prev).all(|(a, b)| a >= b);
                        out.failed += u64::from(!ok);
                        out.prints[k] = view.iter().fold(FOLD_INIT, |h, &w| fold(h, w));
                        prev.copy_from_slice(&view);
                        k += 1;
                    }
                }
                Ok(())
            })();
            done.store(true, Ordering::Release);
            result.map(|()| out)
        })
    }
}

impl Workload for ScanFree {
    fn record(&self) -> PassRecord {
        PassRecord::new(1, ROUNDS * (1 + SCANS_PER_UPDATE))
    }

    fn ops(&self) -> u64 {
        (ROUNDS * (1 + SCANS_PER_UPDATE)) as u64
    }

    fn pass(&mut self, rec: &mut PassRecord, traced: bool) {
        let out = BodyOut {
            run_ns: std::mem::take(&mut rec.run_ns),
            prints: std::mem::take(&mut rec.prints),
            failed: 0,
        };
        let t0 = Instant::now();
        let build_span = traced.then(|| spans::enter("sim.world.build"));
        let mut world = World::builder(N)
            .mode(Mode::Free)
            .seed(self.seed)
            .step_limit(u64::MAX)
            .build();
        let (idle_tx, idle_rx) = mpsc::channel();
        let done = Arc::new(AtomicBool::new(false));
        let mut bodies: Vec<ProcBody<BodyOut>> = Vec::with_capacity(N);
        let mem = Memory::alloc_fast(&world, N, 0);
        let (rx, flag) = (idle_rx, Arc::clone(&done));
        bodies.push(if traced {
            self.live_body(TracedPort(mem.port(0)), rx, flag, out, true)
        } else {
            self.live_body(mem.port(0), rx, flag, out, false)
        });
        if self.live == 2 {
            let mut port = mem.port(1);
            let done = Arc::clone(&done);
            bodies.push(Box::new(move |ctx| {
                let mut v = 0;
                while !done.load(Ordering::Acquire) {
                    v += 1;
                    port.update(ctx, v)?;
                }
                Ok(BodyOut::default())
            }));
        }
        for _ in self.live..N {
            let gone = idle_tx.clone();
            bodies.push(Box::new(move |_ctx| {
                gone.send(()).expect("the live body outlives the idle ones");
                Ok(BodyOut::default())
            }));
        }
        drop(build_span);
        let t1 = Instant::now();
        rec.build_ns[0] = (t1 - t0).as_nanos() as u64;

        let run_span = traced.then(|| spans::enter("sim.world.run").share());
        // Free mode ignores the strategy.
        let mut report = world.run(bodies, Box::new(RoundRobin::new()));
        drop(run_span);

        rec.counts.add(&report.telemetry);
        rec.steps = rec.counts.get(Counter::RegReads) + rec.counts.get(Counter::RegWrites);
        match report.outputs[0].take() {
            Some(out) => {
                rec.run_ns = out.run_ns;
                rec.prints = out.prints;
                rec.failed = out.failed;
            }
            None => {
                // Halted: nothing of this pass counts.
                *rec = self.record();
                rec.failed = self.ops();
            }
        }
    }
}
