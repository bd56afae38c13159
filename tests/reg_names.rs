//! Register names, pinned as literal lists. They label trace timelines
//! (`demo --registers --trace`, `examples/trace_scan.rs`) and the gate's
//! critical-cycle text, so every construction that allocates registers
//! must keep naming them exactly this way, in allocation (= id) order.

use bprc::coin::shared::SharedCoin;
use bprc::coin::CoinParams;
use bprc::registers::{DirectArrow, HandshakeArrow};
use bprc::sim::World;
use bprc::snapshot::{ScannableMemory, SnapshotBackend, WaitFreeSnapshot};

/// The names of a fresh `n`-process world after `alloc` ran on it.
fn names(n: usize, alloc: impl FnOnce(&World)) -> Vec<String> {
    let world = World::builder(n).build();
    alloc(&world);
    world.reg_names()
}

#[test]
fn scannable_memory_names_values_then_arrows_row_by_row() {
    let want = [
        "V_0", "V_1", "V_2", "A_0_1", "A_0_2", "A_1_0", "A_1_2", "A_2_0", "A_2_1",
    ];
    assert_eq!(
        names(3, |w| {
            ScannableMemory::<u64, DirectArrow>::new(w, 3, 0);
        }),
        want
    );
    assert_eq!(
        names(3, |w| {
            ScannableMemory::<u64, DirectArrow>::alloc_fast(w, 3, 0);
        }),
        want
    );
}

#[test]
fn handshake_arrows_name_their_two_bits() {
    assert_eq!(
        names(2, |w| {
            ScannableMemory::<u64, HandshakeArrow>::new(w, 2, 0);
        }),
        [
            "V_0",
            "V_1",
            "A_0_1.flag",
            "A_0_1.ack",
            "A_1_0.flag",
            "A_1_0.ack",
        ]
    );
}

#[test]
fn waitfree_snapshot_and_shared_coin_name_one_register_per_process() {
    assert_eq!(
        names(2, |w| {
            WaitFreeSnapshot::<u64>::new(w, 2, 0);
        }),
        ["WfV_0", "WfV_1"]
    );
    assert_eq!(
        names(2, |w| {
            SharedCoin::new(w, CoinParams::new(2, 2, 4));
        }),
        ["c_0", "c_1"]
    );
}
