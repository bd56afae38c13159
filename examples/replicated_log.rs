//! A replicated command log built on multi-shot consensus
//! ([`bprc::core::multishot::LogCore`]) — the kind of downstream use the
//! paper's introduction motivates (consensus as the universal building
//! block for wait-free objects).
//!
//! Three replicas each propose a command per slot; the log protocol fixes
//! the order, with replicas free to be *slots apart* during the run. All
//! replicas end with identical logs, each entry being some replica's
//! proposal for that slot.
//!
//! ```text
//! cargo run --example replicated_log
//! ```

use bprc::core::bounded::ConsensusParams;
use bprc::core::multishot::{LogCore, StaticProposals};
use bprc::sim::sched::RandomStrategy;
use bprc::sim::turn::TurnDriver;

/// Commands are tiny: an opcode plus an operand, packed into 16 bits.
fn encode(op: u8, operand: u8) -> u64 {
    ((op as u64) << 8) | operand as u64
}

fn decode(cmd: u64) -> (u8, u8) {
    (((cmd >> 8) & 0xFF) as u8, (cmd & 0xFF) as u8)
}

fn op_name(op: u8) -> &'static str {
    match op {
        0 => "PUT",
        1 => "DEL",
        2 => "CAS",
        _ => "NOP",
    }
}

fn main() {
    let n = 3;
    let slots = 5;
    let params = ConsensusParams::quick(n);

    // Each replica's queue of commands it would like to commit.
    let proposals: Vec<Vec<u64>> = (0..n)
        .map(|r| {
            (0..slots)
                .map(|s| encode((r as u8 + s as u8) % 3, (10 * r + s) as u8))
                .collect()
        })
        .collect();

    let replicas: Vec<LogCore<StaticProposals>> = (0..n)
        .map(|r| {
            LogCore::new(
                params.clone(),
                r,
                slots,
                16,
                StaticProposals(proposals[r].clone()),
                2026 + r as u64,
            )
        })
        .collect();

    let report = TurnDriver::new(replicas).run(&mut RandomStrategy::new(7), 200_000_000);
    assert!(report.completed, "log must complete");
    let logs: Vec<Vec<u64>> = report.outputs.into_iter().map(|o| o.unwrap()).collect();

    for (slot, &committed) in logs[0].iter().enumerate() {
        let proposed_by: Vec<usize> = (0..n)
            .filter(|&r| proposals[r][slot] == committed)
            .collect();
        let (op, operand) = decode(committed);
        println!(
            "slot {slot}: committed {}({operand})  — proposed by replica(s) {proposed_by:?}",
            op_name(op),
        );
        assert!(
            !proposed_by.is_empty(),
            "validity: committed command must be someone's proposal"
        );
    }

    for r in 1..n {
        assert_eq!(logs[0], logs[r], "replica {r} diverged");
    }
    println!("\nall {n} replicas hold identical {slots}-entry logs ✓");
    println!("(replicas ran fully asynchronously — one can be slots ahead of another mid-run)");
}
