//! Construction budget of the scannable memory, counted by a wrapping
//! global allocator: allocating a register costs no heap allocation of its
//! own. A name is data rendered only when read, and a handle holds its
//! backing inline, so the n = 32 memory — 32 value lanes and 992 arrow
//! bits — allocates only per-row vectors and table growth.
//!
//! The counter counts allocation *calls*, not bytes: the inline backings
//! move bytes into the handles rather than remove them. This file holds a
//! single test on purpose, like `bprc-sim`'s `world_alloc.rs`; the counter
//! is per thread, so the harness's own threads do not add to it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use bprc_registers::DirectArrow;
use bprc_sim::World;
use bprc_snapshot::{ScannableMemory, SnapshotBackend};

thread_local! {
    // Const-initialised and without a destructor, so touching it inside the
    // allocator never allocates.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Allocation calls this thread has made so far (a reallocation counts).
fn calls() -> u64 {
    CALLS.get()
}

struct CountingAlloc;

impl CountingAlloc {
    fn note() {
        // `try_with`: the allocator outlives the thread-local.
        let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller already upholds; the counter is a side
// effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note();
        // SAFETY: forwarded, see above.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note();
        // SAFETY: forwarded, see above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded, see above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note();
        // SAFETY: forwarded, see above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

type Memory = ScannableMemory<u64, DirectArrow>;

/// Allocation calls made by `Memory::alloc_fast` on a fresh `n`-process
/// world; the world itself is built and dropped outside the count.
fn alloc_fast_calls(n: usize) -> u64 {
    let world = World::builder(n).build();
    let before = calls();
    let mem = Memory::alloc_fast(&world, n, 0);
    let spent = calls() - before;
    drop(black_box(mem));
    drop(world);
    spent
}

#[test]
fn the_n32_memory_allocates_nothing_per_register() {
    const N: usize = 32;
    // Warm-up: one memory of this shape, dropped.
    alloc_fast_calls(N);
    let spent = alloc_fast_calls(N);
    // n value registers and n·(n − 1) arrows: 1,024 registers.
    assert!(
        spent <= 8 * N as u64,
        "alloc_fast at n = {N} made {spent} allocation calls for {} registers",
        N * N
    );
}
