//! Fault-composed exploration, end to end over the facade: a seeded
//! fixture whose bug only manifests after a crash must be found by the
//! explorer's fault branches and confirmed by `Counterexample::confirm`:
//! shrunk to a minimal fault+schedule trace, serialized/parsed
//! byte-identically, and replayed to the same violation.
//!
//! The fixture is the classic torn handshake: a writer publishes a value
//! and then raises a publish bit; a reader that observes the value without
//! the bit is fine while the writer lives (the bit is coming), but if the
//! writer *crashes* between the two writes, the survivor is left holding a
//! stale handshake forever. No pure grant schedule reaches that state — it
//! exists only in the joint schedule×fault space.

use bprc::sim::explore::{explore, ExploreConfig};
use bprc::sim::world::{ProcBody, RunReport, World};
use bprc::sim::Decision;

/// n=2: pid 0 writes `value` then `published`; pid 1 reads both and
/// reports what it saw (value * 10 + published-bit).
fn handshake_factory() -> impl Fn() -> (World, Vec<ProcBody<u32>>) {
    || {
        let world = World::builder(2).build();
        let value = world.reg("value", 0u32);
        let published = world.reg("published", 0u32);
        let (v0, p0) = (value.clone(), published.clone());
        let bodies: Vec<ProcBody<u32>> = vec![
            Box::new(move |ctx| {
                v0.write(ctx, 1)?;
                p0.write(ctx, 1)?;
                Ok(0)
            }),
            Box::new(move |ctx| {
                let v = value.read(ctx)?;
                let p = published.read(ctx)?;
                Ok(v * 10 + p)
            }),
        ];
        (world, bodies)
    }
}

/// The survivor holds `value` without its publish bit and the writer is
/// dead: a permanently-stale handshake.
fn stale_handshake(r: &RunReport<u32>) -> Option<String> {
    (r.outputs[1] == Some(10) && r.outputs[0].is_none())
        .then(|| "survivor reads a stale handshake: value without publish bit".to_string())
}

#[test]
fn stale_handshake_is_unreachable_without_faults() {
    let rep = explore(
        &ExploreConfig::default(),
        handshake_factory(),
        stale_handshake,
    );
    assert!(rep.violation.is_none(), "{:?}", rep.violation);
    assert!(
        rep.exhausted,
        "the fault-free space must be fully enumerated"
    );
    assert_eq!(rep.fault_budget, 0);
    assert_eq!(rep.faults_injected, 0);
}

fn is_crash(d: &Decision) -> bool {
    matches!(d, Decision::Crash(_))
}

#[test]
fn fault_budget_finds_shrinks_and_replays_the_stale_handshake() {
    let cfg = ExploreConfig {
        fault_budget: 1,
        ..ExploreConfig::default()
    };
    let rep = explore(&cfg, handshake_factory(), stale_handshake);
    let cex = rep
        .violation
        .expect("one crash between the two writes must expose the bug");
    assert!(
        cex.trace.decisions.iter().any(is_crash),
        "the counterexample must carry the injected fault: {:?}",
        cex.trace.decisions
    );
    assert!(rep.faults_injected > 0);

    // Confirm: the schedule part contracts, the forcing crash survives,
    // and the artifact round-trips and replays to the violation.
    let mut make = handshake_factory();
    let found = cex.trace.decisions.len();
    let confirmed = cex.confirm(&mut make, &mut |r| stale_handshake(r));
    assert!(confirmed.shrink_runs > 0);
    if let Err(e) = confirmed.verdict {
        panic!("{e}");
    }
    let min = &confirmed.trace.decisions;
    assert!(min.len() <= found);
    let crashes = min.iter().filter(|s| is_crash(s)).count();
    assert_eq!(
        crashes, 1,
        "shrinking must keep exactly the forcing crash: {min:?}"
    );
    // Minimal means minimal: the writer's value write, its crash, and
    // nothing the replayer's fallback can supply on its own.
    assert!(
        min.len() <= 2,
        "expected a ≤2-step minimal trace, got {min:?}"
    );
}
