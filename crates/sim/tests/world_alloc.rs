//! Construction budget, counted by a wrapping global allocator: once a
//! world of a shape has been built and dropped, building the next one
//! allocates no more with the default flight-recorder capacity than with
//! the recorder off, because the rings come back from the pool instead of
//! being allocated (2,048 slots, 64 KiB, per process). Neither allocates
//! the metrics shards (1,856 bytes per process, plus one), which come back
//! from their own pool.
//!
//! This file holds a single test on purpose: the pools are process-global,
//! and another test in the same process could take the warm rings or
//! shards between the warm-up and the measured build. The counter is per
//! thread, so the harness's own threads do not add to it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use bprc_sim::World;

thread_local! {
    // Const-initialised and without a destructor, so touching it inside the
    // allocator never allocates.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Bytes this thread has asked the allocator for so far (a reallocation
/// counts its whole new size).
fn bytes() -> u64 {
    BYTES.get()
}

struct CountingAlloc;

impl CountingAlloc {
    fn note(size: usize) {
        // `try_with`: the allocator outlives the thread-local.
        let _ = BYTES.try_with(|b| b.set(b.get() + size as u64));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller already upholds; the counter is a side
// effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: forwarded, see above.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: forwarded, see above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded, see above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: forwarded, see above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One default-capacity ring: 2,048 slots of four `u64`s.
const RING_BYTES: u64 = 2048 * 32;

/// What a warm world of `n` processes may allocate: its own bookkeeping,
/// about 130 bytes a process. One metrics shard alone is 1,856 bytes.
fn warm_budget(n: usize) -> u64 {
    512 + 256 * n as u64
}

/// Bytes allocated by building an `n`-process world with ring capacity
/// `capacity` (`None`: the default). The world is dropped afterwards, which
/// hands its rings back to the pool.
fn build_bytes(n: usize, capacity: Option<usize>) -> u64 {
    let before = bytes();
    let builder = World::builder(n);
    let world = match capacity {
        Some(c) => builder.trace_capacity(c).build(),
        None => builder.build(),
    };
    let spent = bytes() - before;
    drop(black_box(world));
    spent
}

#[test]
fn a_warm_world_build_allocates_no_ring() {
    // The counter sees the rings: the process's first default world has
    // to allocate both of its own.
    let cold = build_bytes(2, None);
    assert!(cold >= 2 * RING_BYTES, "cold n = 2 build: {cold} bytes");

    for n in [2, 32] {
        // Warm-up: one world of each shape, dropped.
        build_bytes(n, None);
        build_bytes(n, Some(0));
        let traced = build_bytes(n, None);
        let untraced = build_bytes(n, Some(0));
        assert!(
            traced <= untraced + 4096,
            "n = {n}: a warm default build allocated {traced} bytes, \
             {untraced} with the recorder off"
        );
        assert!(
            untraced <= warm_budget(n),
            "n = {n}: a warm build allocated {untraced} bytes, over {}",
            warm_budget(n)
        );
    }
}
