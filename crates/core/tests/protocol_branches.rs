//! White-box tests of the §5 protocol's decision branches: hand-built views
//! driving `on_view` through each of the paper's lines 2–8.

use bprc_coin::{CoinParams, Flips};
use bprc_core::bounded::{BoundedCore, ConsensusParams};
use bprc_core::state::{Pref, ProcParts, ProcState};
use bprc_sim::turn::TurnStep;
use bprc_strip::EdgeCounters;

fn params(n: usize) -> ConsensusParams {
    ConsensusParams::new(n, CoinParams::new(n, 2, 100))
}

/// `state` with its preference replaced.
fn with_pref(state: &ProcState, pref: Pref) -> ProcState {
    let parts = ProcParts {
        pref,
        ..state.unpack()
    };
    ProcState::pack(*state.layout(), &parts).unwrap()
}

/// A fresh core plus the view in which everyone just performed the initial
/// inc (all level at round 1, prefs as given).
fn initial_view(p: &ConsensusParams, prefs: &[Pref]) -> Vec<ProcState> {
    prefs
        .iter()
        .enumerate()
        .map(|(i, &pref)| {
            let core = BoundedCore::with_flips(p.clone(), i, true, Flips::queue());
            with_pref(&core.state(), pref)
        })
        .collect()
}

#[test]
fn line2_decides_with_no_disagreers() {
    // Unanimous prefs at the same round: everyone is a leader with zero
    // disagreers — first scan decides.
    let p = params(3);
    let mut core = BoundedCore::with_flips(p.clone(), 0, true, Flips::queue());
    let mut view = initial_view(&p, &[Pref::Val(true); 3]);
    view[0] = core.state();
    match core.on_view(&view) {
        TurnStep::Decide(v) => assert!(v),
        other => panic!("expected decide, got {other:?}"),
    }
}

#[test]
fn line2_blocked_by_close_disagreer() {
    // A disagreeing process at the same round blocks the decision; leaders
    // then disagree, so the core demotes to ⊥ (line 5).
    let p = params(2);
    let mut core = BoundedCore::with_flips(p.clone(), 0, true, Flips::queue());
    let mut view = initial_view(&p, &[Pref::Val(true), Pref::Val(false)]);
    view[0] = core.state();
    match core.on_view(&view) {
        TurnStep::Write(s) => assert_eq!(s.pref(), Pref::Bottom, "demotes on leader split"),
        other => panic!("expected demote write, got {other:?}"),
    }
}

#[test]
fn line2_decides_when_disagreer_trails_by_k() {
    // Advance the core K rounds ahead of a disagreeing phantom: decide.
    let p = params(2);
    let k = p.k();
    let mut core = BoundedCore::with_flips(p.clone(), 0, true, Flips::queue());
    // Build the trailing register: round-0 phantom with the opposite pref.
    let behind = with_pref(&ProcState::phantom(p.layout()), Pref::Val(false));
    // March the core forward: leaders always "agree" because the phantom is
    // not a leader once we lead by one round (its ⊥... it has Val(false) —
    // but it is not a leader, so only our pref counts as leader pref).
    let mut last = TurnStep::Write(core.state());
    for _ in 0..3 {
        let view = vec![core.state(), behind.clone()];
        last = core.on_view(&view);
        if matches!(last, TurnStep::Decide(_)) {
            break;
        }
    }
    match last {
        TurnStep::Decide(v) => assert!(v, "decides own value once the gap is K"),
        other => panic!("expected decide after racing ahead, got {other:?}"),
    }
    // And the edge counters stayed within their cyclic bound.
    let rows = [core.state(), behind].map(|s| s.edges().collect::<Vec<_>>());
    let counters = EdgeCounters::from_rows(rows, k);
    for i in 0..2 {
        for j in 0..2 {
            assert!(counters.counter(i, j) < counters.modulus());
            counters.decode_checked(i, j).unwrap();
        }
    }
}

#[test]
fn lines3_4_adopt_leader_value_and_advance() {
    // The core trails a leader that prefers false: it adopts false and
    // advances a round (its edge row changes).
    let p = params(2);
    let mut leader_core = BoundedCore::with_flips(p.clone(), 1, false, Flips::queue());
    // Advance the leader one extra round against a phantom view.
    let view = vec![ProcState::phantom(p.layout()), leader_core.state()];
    let _ = leader_core.on_view(&view);

    let mut trailing = BoundedCore::with_flips(p.clone(), 0, true, Flips::queue());
    let before = trailing.state();
    let view = vec![trailing.state(), leader_core.state()];
    match trailing.on_view(&view) {
        TurnStep::Write(s) => {
            assert_eq!(s.pref(), Pref::Val(false), "adopted the leader's value");
            assert!(!s.edges().eq(before.edges()), "advanced a round");
        }
        other => panic!("expected adopt+advance, got {other:?}"),
    }
}

#[test]
fn lines7_8_flip_then_adopt_coin() {
    // Two processes at the same round with ⊥ prefs: leaders don't agree, own
    // pref is ⊥, coin is undecided → walk steps; once the walk total crosses
    // the barrier, the coin value is adopted and the round advances.
    let p = params(2);
    let mut core = BoundedCore::with_flips(p.clone(), 0, true, Flips::queue());
    // Demote the core first (leaders split).
    let other = BoundedCore::with_flips(p.clone(), 1, false, Flips::queue()).state();
    let view = vec![core.state(), other.clone()];
    let step = core.on_view(&view);
    let my = match step {
        TurnStep::Write(s) => {
            assert_eq!(s.pref(), Pref::Bottom);
            s
        }
        other => panic!("expected demote, got {other:?}"),
    };
    // Keep the other's pref ⊥ too so leaders never agree.
    let other = with_pref(&other, Pref::Bottom);

    // Now every scan flips (load outcomes) until the coin decides heads.
    let mut state = my;
    let mut flips = 0;
    loop {
        let view = vec![state.clone(), other.clone()];
        core.flips_mut().push_outcome(true);
        match core.on_view(&view) {
            TurnStep::Write(s) => {
                if s.pref() == Pref::Val(true) {
                    // Adopted heads from the coin; round advanced.
                    assert!(!s.edges().eq(state.edges()), "inc on coin adoption");
                    break;
                }
                assert_eq!(s.pref(), Pref::Bottom, "still flipping");
                state = s;
                flips += 1;
                assert!(flips < 1000, "coin never decided");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    // Barrier is b·n = 4; our lone walker needs ~5 heads to cross it.
    assert!(flips >= 4, "crossed too early: {flips} flips");
}

#[test]
fn own_slot_must_match_state() {
    // The debug contract: the driver must publish my writes before my next
    // scan. Violating it is a bug in the driver, caught in debug builds.
    let p = params(2);
    let mut core = BoundedCore::with_flips(p.clone(), 0, true, Flips::queue());
    let stale = with_pref(&core.state(), Pref::Bottom);
    let view = vec![stale, ProcState::phantom(p.layout())];
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = core.on_view(&view);
    }));
    if cfg!(debug_assertions) {
        assert!(result.is_err(), "debug build must catch the stale own slot");
    }
}
