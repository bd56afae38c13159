//! Litmus-test corpus for the weak-memory fidelity plane.
//!
//! Each [`LitmusProgram`] is a tiny register program with one *forbidden
//! outcome* — an observation that sequential consistency rules out. The
//! corpus pins the store-buffer model's physics both ways:
//!
//! * under [`WeakMode::Sc`] the forbidden outcome must be **unreachable**
//!   over an exhaustive exploration of all interleavings, and
//! * under the modes listed in [`LitmusProgram::found_under`] the explorer
//!   must **find** it (and under the weak modes *not* listed, the model's
//!   own physics — FIFO buffers under TSO, no read delaying ever — must
//!   keep it unreachable).
//!
//! The five programs are the classic corpus:
//!
//! | name       | forbidden outcome                           | TSO | PSO |
//! |------------|---------------------------------------------|-----|-----|
//! | `sb`       | both reads miss both writes                 | ✓   | ✓   |
//! | `mp`       | flag seen set but data still at init        | ✗   | ✓   |
//! | `lb`       | both reads see the *later* writes           | ✗   | ✗   |
//! | `iriw`     | two readers disagree on the write order     | ✗   | ✗   |
//! | `peterson` | both processes inside the critical section  | ✓   | ✓   |
//!
//! `mp` stays sound under TSO because a single FIFO buffer cannot reorder
//! two writes by the same process; `lb` and `iriw` stay sound under both
//! because this model never delays reads (multi-copy atomicity): a read is
//! answered from the process's own buffer or from the single shared memory
//! image at its scheduled step.
//!
//! Programs return their local observations as `u64` outputs;
//! [`LitmusProgram::check`] maps a [`RunReport`] to `Some(explanation)`
//! exactly when the forbidden outcome was observed — the same shape the
//! explorer's property checks use, so a program drops straight into
//! [`explore`](crate::explore::ExploreConfig::explore).

use crate::weakmem::WeakMode;
use crate::world::{ProcBody, RunReport, World};

/// One litmus program: a builder for (world, bodies) plus the forbidden
/// outcome as a checkable property.
pub struct LitmusProgram {
    /// Corpus name (`sb`, `mp`, `lb`, `iriw`, `peterson`).
    pub name: &'static str,
    /// Number of processes.
    pub n: usize,
    /// Weak modes under which the forbidden outcome is reachable. Empty
    /// means the model keeps the program SC-equivalent even with store
    /// buffers (a model-soundness pin, not a gap in the corpus).
    pub found_under: &'static [WeakMode],
    /// Builds a fresh world (buffering per `mode`) and the process bodies.
    /// The store buffers sit above the register backing and the lockstep
    /// gate serialises every granted access, so the backing cannot change
    /// an outcome and is not a dimension of the matrix.
    pub build: fn(WeakMode) -> (World, Vec<ProcBody<u64>>),
    /// Returns `Some(explanation)` iff the run observed the forbidden
    /// outcome.
    pub check: fn(&RunReport<u64>) -> Option<String>,
}

impl LitmusProgram {
    /// Whether exploration under `mode` is expected to find the forbidden
    /// outcome.
    pub fn expected_found(&self, mode: WeakMode) -> bool {
        self.found_under.contains(&mode)
    }
}

impl std::fmt::Debug for LitmusProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LitmusProgram")
            .field("name", &self.name)
            .field("n", &self.n)
            .field("found_under", &self.found_under)
            .finish()
    }
}

fn world(n: usize, mode: WeakMode) -> World {
    World::builder(n).weak_memory(mode).build()
}

/// Store buffering (SB): `P0: x=1; r0=y` / `P1: y=1; r1=x`.
/// Forbidden: `r0 == 0 && r1 == 0` — each read overtook the other
/// process's (and its own, still-buffered) write.
fn build_sb(mode: WeakMode) -> (World, Vec<ProcBody<u64>>) {
    let w = world(2, mode);
    let x = w.fast_reg("x", 0u64);
    let y = w.fast_reg("y", 0u64);
    let (x0, y0) = (x.clone(), y.clone());
    let bodies: Vec<ProcBody<u64>> = vec![
        Box::new(move |ctx| {
            x0.write(ctx, 1)?;
            y0.read(ctx)
        }),
        Box::new(move |ctx| {
            y.write(ctx, 1)?;
            x.read(ctx)
        }),
    ];
    (w, bodies)
}

fn check_sb(report: &RunReport<u64>) -> Option<String> {
    if report.outputs[0] == Some(0) && report.outputs[1] == Some(0) {
        Some(
            "sb: both reads returned 0 — each store stayed buffered past the \
             other process's load"
                .to_string(),
        )
    } else {
        None
    }
}

/// Message passing (MP): `P0: data=1; flag=1` / `P1: rf=flag; rd=data`.
/// P1 returns `rf * 10 + rd`; forbidden outcome is `10` — the flag was
/// observed set while the data it publishes was still at init.
fn build_mp(mode: WeakMode) -> (World, Vec<ProcBody<u64>>) {
    let w = world(2, mode);
    let data = w.fast_reg("data", 0u64);
    let flag = w.fast_reg("flag", 0u64);
    let (data1, flag1) = (data.clone(), flag.clone());
    let bodies: Vec<ProcBody<u64>> = vec![
        Box::new(move |ctx| {
            data.write(ctx, 1)?;
            flag.write(ctx, 1)?;
            Ok(0)
        }),
        Box::new(move |ctx| {
            let rf = flag1.read(ctx)?;
            let rd = data1.read(ctx)?;
            Ok(rf * 10 + rd)
        }),
    ];
    (w, bodies)
}

fn check_mp(report: &RunReport<u64>) -> Option<String> {
    if report.outputs[1] == Some(10) {
        Some(
            "mp: reader saw flag == 1 but data == 0 — the data store was \
             reordered past the flag store"
                .to_string(),
        )
    } else {
        None
    }
}

/// Load buffering (LB): `P0: r0=x; y=1` / `P1: r1=y; x=1`.
/// Forbidden: `r0 == 1 && r1 == 1` — each load would have to read from a
/// write that is *po-after* the other load. Unreachable in this model
/// under every mode: store buffers delay writes, never advance reads.
fn build_lb(mode: WeakMode) -> (World, Vec<ProcBody<u64>>) {
    let w = world(2, mode);
    let x = w.fast_reg("x", 0u64);
    let y = w.fast_reg("y", 0u64);
    let (x0, y0) = (x.clone(), y.clone());
    let bodies: Vec<ProcBody<u64>> = vec![
        Box::new(move |ctx| {
            let r0 = x0.read(ctx)?;
            y0.write(ctx, 1)?;
            Ok(r0)
        }),
        Box::new(move |ctx| {
            let r1 = y.read(ctx)?;
            x.write(ctx, 1)?;
            Ok(r1)
        }),
    ];
    (w, bodies)
}

fn check_lb(report: &RunReport<u64>) -> Option<String> {
    if report.outputs[0] == Some(1) && report.outputs[1] == Some(1) {
        Some("lb: both loads read the po-later writes — reads were reordered".to_string())
    } else {
        None
    }
}

/// Independent reads of independent writes (IRIW): `P0: x=1` / `P1: y=1` /
/// `P2: rx=x; ry=y` / `P3: ry=y; rx=x`. Readers return `first * 10 +
/// second`; forbidden is both returning `10` — P2 says x landed before y,
/// P3 says y landed before x. Unreachable here under every mode: there is
/// one shared memory image and forwarding only covers a process's *own*
/// stores, so the model is multi-copy atomic.
fn build_iriw(mode: WeakMode) -> (World, Vec<ProcBody<u64>>) {
    let w = world(4, mode);
    let x = w.fast_reg("x", 0u64);
    let y = w.fast_reg("y", 0u64);
    let (x2, y2) = (x.clone(), y.clone());
    let (x3, y3) = (x.clone(), y.clone());
    let bodies: Vec<ProcBody<u64>> = vec![
        Box::new(move |ctx| {
            x.write(ctx, 1)?;
            Ok(0)
        }),
        Box::new(move |ctx| {
            y.write(ctx, 1)?;
            Ok(0)
        }),
        Box::new(move |ctx| {
            let rx = x2.read(ctx)?;
            let ry = y2.read(ctx)?;
            Ok(rx * 10 + ry)
        }),
        Box::new(move |ctx| {
            let ry = y3.read(ctx)?;
            let rx = x3.read(ctx)?;
            Ok(ry * 10 + rx)
        }),
    ];
    (w, bodies)
}

fn check_iriw(report: &RunReport<u64>) -> Option<String> {
    if report.outputs[2] == Some(10) && report.outputs[3] == Some(10) {
        Some(
            "iriw: the two readers observed the independent writes in \
             opposite orders"
                .to_string(),
        )
    } else {
        None
    }
}

/// Peterson's lock entry protocol, give-up variant: each process runs the
/// entry sequence once (`flag[me]=1; turn=other;` then read the other
/// flag and `turn`) and *backs off* instead of spinning when contended.
/// Entering is a strict subset of what the spinning original allows, and
/// nobody releases, so under SC **at most one** process can pass the gate
/// (the first-entry mutual-exclusion argument: whoever wrote `turn` last
/// sees the other's flag). Returns `2` for entered, `0` for backed off;
/// forbidden outcome is both returning `2`. Under TSO/PSO both flag
/// stores can stay buffered past both entry reads, so both gates read
/// `flag[other] == 0` and both processes walk in.
fn build_peterson(mode: WeakMode) -> (World, Vec<ProcBody<u64>>) {
    let w = world(2, mode);
    let flags = [w.fast_reg("flag0", 0u64), w.fast_reg("flag1", 0u64)];
    let turn = w.fast_reg("turn", 0u64);
    let bodies: Vec<ProcBody<u64>> = (0..2usize)
        .map(|me| {
            let other = 1 - me;
            let my_flag = flags[me].clone();
            let their_flag = flags[other].clone();
            let turn = turn.clone();
            let body: ProcBody<u64> = Box::new(move |ctx| {
                my_flag.write(ctx, 1)?;
                turn.write(ctx, other as u64)?;
                let f = their_flag.read(ctx)?;
                let t = turn.read(ctx)?;
                if f != 0 && t == other as u64 {
                    // Contended: the spinning original would wait here.
                    return Ok(0);
                }
                Ok(2)
            });
            body
        })
        .collect();
    (w, bodies)
}

fn check_peterson(report: &RunReport<u64>) -> Option<String> {
    if report.outputs[0] == Some(2) && report.outputs[1] == Some(2) {
        Some(
            "peterson: both processes passed the entry gate — the buffered \
             flag stores hid the contention"
                .to_string(),
        )
    } else {
        None
    }
}

/// The full corpus, in a stable order.
pub fn corpus() -> Vec<LitmusProgram> {
    vec![
        LitmusProgram {
            name: "sb",
            n: 2,
            found_under: &[WeakMode::Tso, WeakMode::Pso],
            build: build_sb,
            check: check_sb,
        },
        LitmusProgram {
            name: "mp",
            n: 2,
            found_under: &[WeakMode::Pso],
            build: build_mp,
            check: check_mp,
        },
        LitmusProgram {
            name: "lb",
            n: 2,
            found_under: &[],
            build: build_lb,
            check: check_lb,
        },
        LitmusProgram {
            name: "iriw",
            n: 4,
            found_under: &[],
            build: build_iriw,
            check: check_iriw,
        },
        LitmusProgram {
            name: "peterson",
            n: 2,
            found_under: &[WeakMode::Tso, WeakMode::Pso],
            build: build_peterson,
            check: check_peterson,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::RoundRobin;

    #[test]
    fn corpus_is_stable() {
        let names: Vec<_> = corpus().iter().map(|p| p.name).collect();
        assert_eq!(names, ["sb", "mp", "lb", "iriw", "peterson"]);
    }

    #[test]
    fn programs_run_clean_under_round_robin_sc() {
        for prog in corpus() {
            let (mut w, bodies) = (prog.build)(WeakMode::Sc);
            let report = w.run(bodies, Box::new(RoundRobin::new()));
            assert_eq!(
                (prog.check)(&report),
                None,
                "{} observed its forbidden outcome under SC round-robin",
                prog.name
            );
        }
    }

    #[test]
    fn expected_found_reads_the_matrix() {
        let c = corpus();
        let sb = &c[0];
        assert!(sb.expected_found(WeakMode::Tso));
        assert!(!sb.expected_found(WeakMode::Sc));
        let mp = &c[1];
        assert!(mp.expected_found(WeakMode::Pso));
        assert!(!mp.expected_found(WeakMode::Tso));
    }
}
