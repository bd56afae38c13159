//! The weak-memory litmus corpus, end to end over the facade: every
//! program's forbidden outcome must be **unreachable under SC over an
//! exhaustive exploration**, and under TSO/PSO it must be *found* exactly
//! when the model's physics say so (see the matrix in `bprc::sim::litmus`)
//! — then confirmed by `Counterexample::confirm` (shrunk, serialized,
//! parsed back byte-identically, and replayed to the same violation).
//! Buffering happens at the scheduling layer, above the register backing,
//! so the backing is not a dimension of the matrix: 5 programs × 3 modes,
//! 15 cells.

use bprc::sim::explore::{explore, run_trace, ExploreConfig};
use bprc::sim::litmus::{corpus, LitmusProgram};
use bprc::sim::weakmem::WeakMode;

/// Exhaustively explores `prog` under `mode` and asserts the
/// forbidden outcome is found exactly when the corpus matrix says it is.
/// When found: confirm the artifact, check that it stays clean under SC,
/// and demand a critical cycle from the violating history.
fn drive(prog: &LitmusProgram, mode: WeakMode) {
    let build = prog.build;
    let check = prog.check;
    let mut make = move || build(mode);
    let rep = explore(&ExploreConfig::default(), &mut make, &check);
    if !prog.expected_found(mode) {
        assert!(
            rep.violation.is_none(),
            "{} under {mode}: forbidden outcome must be \
             unreachable, got {:?}",
            prog.name,
            rep.violation,
        );
        assert!(
            rep.exhausted,
            "{} under {mode}: unreachability must come from an \
             exhaustive enumeration, not a budget cutoff",
            prog.name,
        );
        return;
    }
    let cex = rep.violation.unwrap_or_else(|| {
        panic!(
            "{} under {mode}: the explorer must find the \
             forbidden outcome ({} schedules searched)",
            prog.name, rep.schedules,
        )
    });
    // Shrink, round-trip and replay the artifact; a weak-mode violation
    // comes with its critical cycle.
    let found = cex.trace.decisions.len();
    let confirmed = cex.confirm(&mut make, &mut |r| check(r));
    assert!(
        confirmed.shrink_runs > 0,
        "{}: shrinking must re-execute",
        prog.name
    );
    assert!(confirmed.trace.decisions.len() <= found);
    if let Err(e) = confirmed.verdict {
        panic!("{} under {mode}: {e}", prog.name);
    }

    // The violation must hinge on weak memory: the same trace against an
    // SC build (flush entries skip as never-flushable) stays clean.
    let (sc_replay, _) = run_trace(&mut move || build(WeakMode::Sc), &confirmed.trace);
    assert!(
        check(&sc_replay).is_none(),
        "{}: the shrunk trace must not reproduce under SC: {:?}",
        prog.name,
        sc_replay.outputs,
    );

    let cycle = confirmed.cycle.unwrap_or_else(|| {
        panic!(
            "{} under {mode}: a reordering violation must \
             yield a critical cycle",
            prog.name,
        )
    });
    assert!(
        !cycle.edges.is_empty() && !cycle.reordered.is_empty(),
        "{}: the cycle must name the reordered edge: {cycle}",
        prog.name,
    );
}

#[test]
fn forbidden_outcomes_are_unreachable_under_sc() {
    for prog in corpus() {
        drive(&prog, WeakMode::Sc);
    }
}

#[test]
fn tso_matrix_holds() {
    for prog in corpus() {
        drive(&prog, WeakMode::Tso);
    }
}

#[test]
fn pso_matrix_holds() {
    for prog in corpus() {
        drive(&prog, WeakMode::Pso);
    }
}

#[test]
fn sb_critical_cycle_blames_a_buffered_store() {
    let prog = corpus().into_iter().find(|p| p.name == "sb").unwrap();
    let build = prog.build;
    let check = prog.check;
    let mut make = move || build(WeakMode::Tso);
    let rep = explore(&ExploreConfig::default(), &mut make, &check);
    let cex = rep.violation.expect("sb is reachable under TSO");
    let confirmed = cex.confirm(&mut make, &mut |r| check(r));
    let cycle = confirmed.cycle.expect("sb violation forms a cycle");
    assert!(
        cycle.reordered.contains("stayed buffered"),
        "the explanation must blame the delayed store: {}",
        cycle.reordered,
    );
}
