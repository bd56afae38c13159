//! Mutation testing of the construction *and* the checker: broken variants
//! of the scannable memory must produce views the P1–P3 checker rejects.
//! Each mutant removes ingredients of the paper's construction and nothing
//! else, demonstrating that they are load-bearing (and that the checker has
//! teeth): the naive collect drops the double collect, the arrows and the
//! toggle; the no-toggle mutant runs the real scan and update machines
//! minus the toggle and the raises.

use bprc_sim::sched::FnStrategy;
use bprc_sim::world::ProcBody;
use bprc_sim::{Ctx, Decision, Halted, Reg, World};
use bprc_snapshot::checker::{check_history, SnapshotViolation};
use bprc_snapshot::memory::labels;
use bprc_snapshot::SnapshotMeta;

/// A deliberately broken "snapshot": reads each register once, no double
/// collect, no arrows, no toggle — a plain collect. Under a schedule that
/// interleaves writes into the collect it returns torn views.
struct NaiveCollect {
    values: Vec<Reg<(u64, u64)>>, // (value, ghost seq)
    me: usize,
    seq: u64,
    last: (u64, u64),
}

impl NaiveCollect {
    fn mem(world: &World, n: usize) -> Vec<Self> {
        let regs: Vec<Reg<(u64, u64)>> = (0..n)
            .map(|i| world.reg(format!("V_{i}"), (0u64, 0u64)))
            .collect();
        (0..n)
            .map(|me| NaiveCollect {
                values: regs.clone(),
                me,
                seq: 0,
                last: (0, 0),
            })
            .collect()
    }

    fn update(&mut self, ctx: &mut Ctx, v: u64) -> Result<(), Halted> {
        self.seq += 1;
        ctx.annotate(labels::UPD_START, vec![self.seq]);
        self.last = (v, self.seq);
        self.values[self.me].write_tagged(ctx, self.last, self.seq)?;
        ctx.annotate(labels::UPD_END, vec![self.seq]);
        Ok(())
    }

    fn scan(&mut self, ctx: &mut Ctx) -> Result<Vec<u64>, Halted> {
        ctx.annotate(labels::SCAN_START, vec![]);
        let mut out = Vec::new();
        let mut seqs = Vec::new();
        for (j, r) in self.values.iter().enumerate() {
            let (v, s) = if j == self.me {
                self.last
            } else {
                r.read(ctx)?
            };
            out.push(v);
            seqs.push(s);
        }
        ctx.annotate(labels::SCAN_END, seqs);
        Ok(out)
    }

    fn meta(&self) -> SnapshotMeta {
        SnapshotMeta {
            value_regs: self.values.iter().map(|r| r.id()).collect(),
        }
    }
}

#[test]
fn naive_collect_is_caught_as_not_instantaneous() {
    // 3 processes: a scanner and two writers. Schedule: scanner reads V_1
    // (old), writer 1 writes, writer 2 writes, scanner reads V_2 (new).
    // The returned view (old V_1, new V_2) never existed in memory if
    // writer 1 wrote before writer 2... we need the opposite torn pair:
    // scanner sees OLD w1 but NEW w2 where w1's second write precedes w2's.
    let mut world = World::builder(3).build();
    let mut ports = NaiveCollect::mem(&world, 3);
    let meta = ports[0].meta();
    let mut p2 = ports.pop().unwrap();
    let mut p1 = ports.pop().unwrap();
    let mut p0 = ports.pop().unwrap();

    let bodies: Vec<ProcBody<Vec<u64>>> = vec![
        Box::new(move |ctx| p0.scan(ctx)),
        Box::new(move |ctx| {
            p1.update(ctx, 11)?;
            Ok(vec![])
        }),
        Box::new(move |ctx| {
            p2.update(ctx, 22)?;
            Ok(vec![])
        }),
    ];
    // Events: scanner reads V_1 first (sees 0), then both writers complete
    // (w1 then w2), then scanner reads V_2 (sees 22). View = (old, new) but
    // w1's write completed before w2's => no instant matches.
    let script = [0usize, 1, 2, 0];
    let mut at = 0;
    let strategy = FnStrategy::new(move |view: &bprc_sim::ScheduleView<'_>| {
        let pick = script
            .get(at)
            .copied()
            .filter(|p| view.runnable.contains(p))
            .unwrap_or(view.runnable[0]);
        at += 1;
        Decision::Grant(pick)
    });
    let report = world.run(bodies, Box::new(strategy));
    let view = report.outputs[0].clone().unwrap();
    assert_eq!(view, vec![0, 0, 22], "the torn view this mutant produces");
    let check = check_history(report.history.as_ref().unwrap(), &meta);
    assert!(
        check
            .violations
            .iter()
            .any(|v| matches!(v, SnapshotViolation::NotInstantaneous { .. })),
        "checker must flag the torn view, got {:?}",
        check.violations
    );
}

/// The real construction minus the toggle bit and the writers' raises: its
/// scan and update are the real [`ScanMachine`] and [`UpdateMachine`],
/// driven over the mutant's own registers. Two consecutive writes of the
/// same value become invisible to the double collect (ABA), and with no
/// raised arrow nothing forces a retry, so a scan can return a view that
/// mixes epochs.
mod no_toggle {
    use super::*;
    use bprc_snapshot::{Access, ScanMachine, UpdateMachine};

    pub struct NoToggle {
        values: Vec<Reg<(u64, u64)>>,
        arrows: Vec<Vec<Option<Reg<bool>>>>,
        me: usize,
        seq: u64,
        last: (u64, u64),
    }

    impl NoToggle {
        pub fn mem(world: &World, n: usize) -> Vec<Self> {
            let regs: Vec<Reg<(u64, u64)>> = (0..n)
                .map(|i| world.reg(format!("V_{i}"), (0u64, 0u64)))
                .collect();
            let arrows: Vec<Vec<Option<Reg<bool>>>> = (0..n)
                .map(|w| {
                    (0..n)
                        .map(|s| (w != s).then(|| world.reg(format!("A_{w}_{s}"), false)))
                        .collect()
                })
                .collect();
            (0..n)
                .map(|me| NoToggle {
                    values: regs.clone(),
                    arrows: arrows.clone(),
                    me,
                    seq: 0,
                    last: (0, 0),
                })
                .collect()
        }

        fn arrow(&self, w: usize, s: usize) -> &Reg<bool> {
            self.arrows[w][s]
                .as_ref()
                .expect("no arrow on the diagonal")
        }

        /// The real update's accesses, WITHOUT the raises — the other
        /// deliberate break (isolating the toggle alone is awkward because
        /// the checker's ghost seq would still differ; removing the raises
        /// shows the same failure mode: undetected mid-collect writes).
        pub fn update(&mut self, ctx: &mut Ctx, v: u64) -> Result<(), Halted> {
            self.seq += 1;
            ctx.annotate(labels::UPD_START, vec![self.seq]);
            self.last = (v, self.seq);
            let mut m = UpdateMachine::new(self.values.len(), self.me);
            loop {
                match m.next() {
                    Access::Raise(_) => {} // the mutation: no raise
                    Access::Fence => ctx.fence()?,
                    Access::Write => self.values[self.me].write_tagged(ctx, self.last, self.seq)?,
                    Access::Done => break,
                    other => unreachable!("an update never performs {other:?}"),
                }
            }
            ctx.annotate(labels::UPD_END, vec![self.seq]);
            Ok(())
        }

        /// The real scan, comparing VALUES only (no toggle, no ghost seq).
        pub fn scan(&mut self, ctx: &mut Ctx) -> Result<Vec<u64>, Halted> {
            let n = self.values.len();
            ctx.annotate(labels::SCAN_START, vec![]);
            let (mut c1, mut c2) = (vec![self.last; n], vec![self.last; n]);
            let mut m = ScanMachine::new(n, self.me, 0);
            loop {
                match m.next() {
                    Access::Lower(j) => self.arrow(j, self.me).write(ctx, false)?,
                    Access::Fence => ctx.fence()?,
                    Access::Collect1(j) => c1[j] = self.values[j].read(ctx)?,
                    Access::Collect2(j) => {
                        c2[j] = self.values[j].read(ctx)?;
                        // The mutation: compare payload values only.
                        m.feed(c2[j].0 == c1[j].0);
                    }
                    Access::Check(j) => m.feed(!self.arrow(j, self.me).read(ctx)?),
                    Access::Done => {
                        ctx.annotate(labels::SCAN_END, c2.iter().map(|s| s.1).collect());
                        return Ok(c2.into_iter().map(|s| s.0).collect());
                    }
                    other => unreachable!("an unbounded scan never performs {other:?}"),
                }
            }
        }

        pub fn meta(&self) -> SnapshotMeta {
            SnapshotMeta {
                value_regs: self.values.iter().map(|r| r.id()).collect(),
            }
        }
    }
}

#[test]
fn missing_arrows_and_toggle_caught_by_checker() {
    // Writer 1 performs an ABA (5, 0, 5); writer 2 writes the same value
    // twice. The mutant's value-only double collect matches, and with no
    // raised arrows nothing forces a retry — but the returned view pairs
    // slot 1's value with a slot-2 value written only AFTER slot 1 was
    // superseded. The checker's ghost sequence numbers expose it.
    use no_toggle::NoToggle;
    let mut world = World::builder(3).step_limit(100_000).build();
    let mut ports = NoToggle::mem(&world, 3);
    let meta = ports[0].meta();
    let mut w2 = ports.pop().unwrap();
    let mut w1 = ports.pop().unwrap();
    let mut scanner = ports.pop().unwrap();

    let bodies: Vec<ProcBody<Vec<u64>>> = vec![
        Box::new(move |ctx| scanner.scan(ctx)),
        Box::new(move |ctx| {
            w1.update(ctx, 5)?;
            w1.update(ctx, 0)?; // ABA back to the initial value
            w1.update(ctx, 5)?;
            Ok(vec![])
        }),
        Box::new(move |ctx| {
            w2.update(ctx, 7)?;
            w2.update(ctx, 7)?; // same value twice — what the toggle exists for
            Ok(vec![])
        }),
    ];
    // e0: w2 stores 7 (t1)
    // e1-2: scanner lowers both arrows
    // e3: c1 reads V1 -> (0, init)     e4: c1 reads V2 -> (7, t1)
    // e5: w1 stores 5 (s1)             e6: w1 stores 0 (s2)
    // e7: c2 reads V1 -> (0, s2)
    // e8: w1 stores 5 (s3)  <- supersedes s2 inside the collect
    // e9: w2 stores 7 (t2)  <- after s3
    // e10: c2 reads V2 -> (7, t2)
    // e11-12: arrow checks (never raised) -> mutant RETURNS (0, s2, t2)
    let script = [2usize, 0, 0, 0, 0, 1, 1, 0, 1, 2, 0, 0, 0];
    let mut at = 0;
    let strategy = FnStrategy::new(move |view: &bprc_sim::ScheduleView<'_>| {
        let pick = script
            .get(at)
            .copied()
            .filter(|p| view.runnable.contains(p))
            .unwrap_or(view.runnable[0]);
        at += 1;
        Decision::Grant(pick)
    });
    let report = world.run(bodies, Box::new(strategy));
    let view = report.outputs[0]
        .clone()
        .expect("mutant returns the bad view");
    assert_eq!(view, vec![0, 0, 7]);
    let check = check_history(report.history.as_ref().unwrap(), &meta);
    assert!(
        check
            .violations
            .iter()
            .any(|v| matches!(v, SnapshotViolation::NotInstantaneous { .. })),
        "checker must flag the mixed-epoch view, got {:?}",
        check.violations
    );
}

/// Control: the real construction under the *same* adversarial scripts
/// stays clean (the mutants' failure is due to the mutation, not the
/// schedule).
#[test]
fn real_construction_survives_the_same_schedules() {
    use bprc_registers::DirectArrow;
    use bprc_snapshot::ScannableMemory;
    for script in [vec![0usize, 1, 2, 0], vec![1, 0, 0, 1, 1, 0, 0]] {
        let n = 3;
        let mut world = World::builder(n).step_limit(100_000).build();
        let mem = ScannableMemory::<u64, DirectArrow>::new(&world, n, 0);
        let meta = mem.meta();
        let mut ports: Vec<_> = (0..n).map(|i| mem.port(i)).collect();
        let mut p2 = ports.pop().unwrap();
        let mut p1 = ports.pop().unwrap();
        let mut p0 = ports.pop().unwrap();
        let bodies: Vec<ProcBody<Vec<u64>>> = vec![
            Box::new(move |ctx| p0.scan(ctx)),
            Box::new(move |ctx| {
                p1.update(ctx, 11)?;
                p1.update(ctx, 13)?;
                p1.update(ctx, 11)?;
                Ok(vec![])
            }),
            Box::new(move |ctx| {
                p2.update(ctx, 22)?;
                Ok(vec![])
            }),
        ];
        let mut at = 0;
        let s = script.clone();
        let strategy = FnStrategy::new(move |view: &bprc_sim::ScheduleView<'_>| {
            let pick = s
                .get(at)
                .copied()
                .filter(|p| view.runnable.contains(p))
                .unwrap_or(view.runnable[at % view.runnable.len()]);
            at += 1;
            Decision::Grant(pick)
        });
        let report = world.run(bodies, Box::new(strategy));
        let check = check_history(report.history.as_ref().unwrap(), &meta);
        assert!(
            check.ok(),
            "real construction flagged: {:?}",
            check.violations
        );
    }
}
