//! The model checker catching a broken protocol — and printing the exact
//! schedule that breaks it.
//!
//! The "protocol" here is a deliberately wrong one: each process decides its
//! own input at its first scan (no coordination at all). The exhaustive
//! checker finds the agreement violation and hands back a minimal-ish
//! counterexample trace you could replay step by step.
//!
//! ```text
//! cargo run --release --example counterexample
//! ```

use bprc::coin::{CoinParams, Flips};
use bprc::core::bounded::{BoundedCore, ConsensusParams};
use bprc::core::modelcheck::{check, Checkable, McConfig, ViolationKind};
use bprc::core::ProcState;
use bprc::sim::turn::{TurnProcess, TurnStep};

/// Decides its own input immediately — obviously unsafe.
#[derive(Clone)]
struct YoloDecider {
    inner: BoundedCore,
    input: bool,
}

impl TurnProcess for YoloDecider {
    type Msg = ProcState;
    type Out = bool;

    fn initial_msg(&mut self) -> ProcState {
        TurnProcess::initial_msg(&mut self.inner)
    }

    fn on_scan(&mut self, _view: &[ProcState]) -> TurnStep<ProcState, bool> {
        TurnStep::Decide(self.input)
    }
}

impl Checkable for YoloDecider {
    fn flips_mut(&mut self) -> &mut Flips {
        self.inner.flips_mut()
    }
}

fn main() {
    let params = ConsensusParams::new(2, CoinParams::new(2, 1, 1));
    let procs: Vec<YoloDecider> = (0..2)
        .map(|p| YoloDecider {
            inner: BoundedCore::with_flips(params.clone(), p, p == 0, Flips::queue()),
            input: p == 0,
        })
        .collect();
    let shared = vec![ProcState::phantom(params.layout()); 2];

    println!("model-checking a protocol that decides its own input immediately…\n");
    let report = check(procs, shared, |_| true, McConfig::default());

    let violation = report.violation.expect("the checker must catch this");
    match violation.kind {
        ViolationKind::Agreement { values } => {
            println!(
                "AGREEMENT VIOLATION: processes decided {} and {}",
                values.0, values.1
            );
        }
        ViolationKind::Validity { value } => {
            println!("VALIDITY VIOLATION: decided {value}");
        }
    }
    println!(
        "\ncounterexample schedule ({} events):",
        violation.trace.len()
    );
    for (i, ev) in violation.trace.iter().enumerate() {
        let what = match ev.flip {
            None => "steps".to_string(),
            Some(h) => format!("steps, local coin = {}", if h { "heads" } else { "tails" }),
        };
        println!("  {i:>2}. process {} {what}", ev.decision.pid());
    }
    println!(
        "\n(the real bounded protocol, checked the same way, has zero violations \
         across its entire state space — see the `mc-consensus-*` rows of \
         `experiments verify-gate`)"
    );
}
