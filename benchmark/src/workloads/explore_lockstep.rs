//! `explore-lockstep-n2`: one exhaustive sleep-set exploration per pass of
//! the n = 2 update→scan handshake memory, checking P1–P3 on every
//! schedule. The lockstep executor and the explorer dominate; the other
//! three workloads never enter lockstep, so they are its bypass.
//!
//! One item is one checked schedule, from the previous check's return to
//! this one's, with the factory's time counted as build. One pass is
//! [`SCHEDULES_REF`] ops however many schedules it executes, so an explorer
//! that later exhausts the same space in fewer schedules reads as more ops
//! per second, not as less work.

use std::cell::RefCell;
use std::time::Instant;

use bprc_registers::DirectArrow;
use bprc_sim::explore::{explore, ExploreConfig, ExploreReport, Independence};
use bprc_sim::rng::stream_rng;
use bprc_sim::world::{ProcBody, RunReport, World};
use bprc_sim::Counter;
use bprc_snapshot::{check_history, ScannableMemory, SnapshotMeta};
use rand::Rng;

use super::Workload;
use crate::measure::{fold, PassRecord, FOLD_INIT};
use crate::spans;

/// Schedules the exploration executed when the benchmark was defined: the
/// frozen op count of one pass.
pub const SCHEDULES_REF: u64 = 486;
/// Processes in the explored world.
const N: usize = 2;
/// Decisions per schedule the exploration allows: 40 cover the whole
/// workload.
const MAX_STEPS: u64 = 40;

type Memory = ScannableMemory<u64, DirectArrow>;

/// Deterministic factory: an identical lockstep world and bodies each call.
fn factory(values: [u64; N]) -> (World, Vec<ProcBody<Vec<u64>>>, SnapshotMeta) {
    let world = World::builder(N).seed(0).build();
    let mem = Memory::new(&world, N, 0);
    let bodies = (0..N)
        .map(|pid| {
            let mut port = mem.port(pid);
            let body: ProcBody<Vec<u64>> = Box::new(move |ctx| {
                port.update(ctx, values[pid])?;
                port.scan(ctx)
            });
            body
        })
        .collect();
    (world, bodies, mem.meta())
}

/// The exploration's bounds.
fn config(max_steps: u64) -> ExploreConfig {
    ExploreConfig {
        max_steps,
        // P1–P3 consume note timestamps, so only read/read pairs commute
        // soundly.
        independence: Independence::ReadsOnly,
        ..ExploreConfig::default()
    }
}

/// P1–P3 over one schedule's recorded history.
fn check(r: &RunReport<Vec<u64>>, meta: &SnapshotMeta) -> Option<String> {
    let Some(history) = r.history.as_ref() else {
        return Some("the run recorded no history".to_string());
    };
    check_history(history, meta)
        .violations
        .first()
        .map(|v| format!("snapshot property violated: {v:?}"))
}

/// Whether an exploration covered its whole space and found it clean.
fn sound(report: &ExploreReport) -> bool {
    report.exhausted
        && report.violation.is_none()
        && report.truncated == 0
        && report.schedules <= SCHEDULES_REF
}

/// The workload: the two values the processes publish.
#[derive(Debug)]
pub struct ExploreLockstep {
    values: [u64; N],
    max_steps: u64,
    meta: SnapshotMeta,
    /// Factory calls of one exploration (redundant runs included) and the
    /// schedules it checks: the shape every pass must reproduce.
    builds: usize,
    schedules: usize,
}

impl ExploreLockstep {
    /// The workload as benchmarked: [`MAX_STEPS`] decisions per schedule.
    pub fn new(seed: u64) -> Self {
        Self::bounded(seed, MAX_STEPS)
    }

    /// Draws the published values from `seed` and explores once, untimed, to
    /// learn the pass's shape. Whether that shape is sound is every pass's
    /// own verdict, pass 0's included, so an exploration that is truncated,
    /// finds a violation or outgrows [`SCHEDULES_REF`] ends in a result line
    /// with failed ops, not in a panic.
    fn bounded(seed: u64, max_steps: u64) -> Self {
        let mut rng = stream_rng(seed, 4);
        // Distinct and non-zero, so every view is attributable.
        let a = rng.gen_range(1..1u64 << 32);
        let values = [a, a + rng.gen_range(1..1u64 << 32)];
        let meta = factory(values).2;
        let mut builds = 0;
        let report = explore(
            &config(max_steps),
            || {
                builds += 1;
                let (world, bodies, _) = factory(values);
                (world, bodies)
            },
            |r| check(r, &meta),
        );
        ExploreLockstep {
            values,
            max_steps,
            meta,
            builds,
            schedules: report.schedules as usize,
        }
    }
}

/// Where the pass is between the two closures.
struct Cursor<'a> {
    rec: &'a mut PassRecord,
    builds: usize,
    items: usize,
    /// When the previous check's bookkeeping ended: the item's start.
    resume: Instant,
    /// Factory time since `resume`, to subtract from the item's span.
    built_ns: u64,
    /// The explorer-side span open between closure calls (traced only).
    open: Option<spans::Guard>,
}

impl Workload for ExploreLockstep {
    fn record(&self) -> PassRecord {
        PassRecord::new(self.builds, self.schedules)
    }

    fn ops(&self) -> u64 {
        SCHEDULES_REF
    }

    fn pass(&mut self, rec: &mut PassRecord, traced: bool) {
        let (values, meta) = (self.values, &self.meta);
        if traced {
            spans::set_item(0);
        }
        let root = traced.then(|| spans::enter("sim.explore"));
        // Both closures advance the same cursor; `explore` calls them
        // strictly one after the other.
        let cursor = RefCell::new(Cursor {
            rec,
            builds: 0,
            items: 0,
            resume: Instant::now(),
            built_ns: 0,
            open: traced.then(|| spans::enter("sim.explore.self")),
        });
        let report = explore(
            &config(self.max_steps),
            || {
                let mut c = cursor.borrow_mut();
                c.open = None;
                let t0 = Instant::now();
                let span = traced.then(|| spans::enter("sim.world.build"));
                let (world, bodies, _) = factory(values);
                drop(span);
                let ns = t0.elapsed().as_nanos() as u64;
                // A pass that outgrows the first one's shape fails below.
                let slot = c.builds;
                if let Some(b) = c.rec.build_ns.get_mut(slot) {
                    *b = ns;
                }
                c.builds += 1;
                c.built_ns += ns;
                c.open = traced.then(|| spans::enter("sim.explore.run"));
                (world, bodies)
            },
            |r| {
                let mut c = cursor.borrow_mut();
                c.open = None;
                let span = traced.then(|| spans::enter("snapshot.check"));
                let verdict = check(r, meta);
                drop(span);
                let span_ns = c.resume.elapsed().as_nanos() as u64;
                let (item, built_ns) = (c.items, c.built_ns);
                // Harness bookkeeping from here to `resume` belongs to no
                // item.
                if item < c.rec.run_ns.len() {
                    c.rec.run_ns[item] = span_ns - built_ns;
                    let views = r.outputs.iter().flatten().flatten();
                    c.rec.prints[item] = views.fold(fold(FOLD_INIT, r.steps), |h, &w| fold(h, w));
                }
                c.rec.counts.add(&r.telemetry);
                c.rec.failed += u64::from(r.outputs.iter().any(Option::is_none));
                c.items += 1;
                c.built_ns = 0;
                if traced {
                    spans::set_item(c.items);
                }
                c.open = traced.then(|| spans::enter("sim.explore.self"));
                c.resume = Instant::now();
                verdict
            },
        );
        let Cursor { rec, builds, .. } = cursor.into_inner();
        drop(root);
        rec.counts.add(&report.telemetry);
        rec.max_depth = report.max_depth;
        rec.steps = rec.counts.get(Counter::RegReads) + rec.counts.get(Counter::RegWrites);
        if !sound(&report) || builds != self.builds {
            rec.failed = SCHEDULES_REF;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_truncated_exploration_fails_its_ops_instead_of_panicking() {
        // Three decisions finish no schedule: every run is cut short.
        let outcome = crate::timed::run(&mut ExploreLockstep::bounded(1, 3), 1, 60);
        assert!(!outcome.correct());
        assert_eq!(outcome.failed, 2 * SCHEDULES_REF);

        let mut w = ExploreLockstep::new(1);
        let mut rec = w.record();
        w.pass(&mut rec, false);
        assert_eq!((rec.failed, rec.run_ns.len()), (0, SCHEDULES_REF as usize));
    }
}
