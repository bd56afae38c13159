//! Construction budget, counted by a wrapping global allocator: building a
//! world takes no flight ring (2,048 slots, 64 KiB, per process), because a
//! process takes its ring at its first recorded event; the first run that
//! records does allocate one, and once a world of a shape has recorded and
//! been dropped, the next one takes its ring back from the pool. A warm
//! build allocates no more with the default flight-recorder capacity than
//! with the recorder off. Neither allocates the metrics shards (1,856 bytes
//! per process, plus one), which come back from their own pool.
//!
//! This file holds a single test on purpose: the pools are process-global,
//! and another test in the same process could take the warm rings or
//! shards between the warm-up and the measured build. The counter is per
//! thread, so the harness's own threads do not add to it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use bprc_sim::sched::RoundRobin;
use bprc_sim::world::ProcBody;
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

/// An `n`-process world with ring capacity `capacity` (`None`: the
/// default).
fn build(n: usize, capacity: Option<usize>) -> World {
    let builder = World::builder(n);
    match capacity {
        Some(c) => builder.trace_capacity(c).build(),
        None => builder.build(),
    }
}

/// Bytes allocated by building an `n`-process world with ring capacity
/// `capacity` (`None`: the default). The world is dropped afterwards, which
/// hands its rings back to the pool.
fn build_bytes(n: usize, capacity: Option<usize>) -> u64 {
    let before = bytes();
    let world = build(n, capacity);
    let spent = bytes() - before;
    drop(black_box(world));
    spent
}

/// Bytes allocated by building a one-process world with ring capacity
/// `capacity` (`None`: the default), allocating one register, and running
/// a body that writes it once: the process runs on this thread, so the
/// counter sees the ring its write takes. The report and world are dropped
/// afterwards, which hands the ring back to the pool.
fn one_write_run_bytes(capacity: Option<usize>) -> u64 {
    let before = bytes();
    let mut world = build(1, capacity);
    let r = world.reg("r", 0u64);
    let body: ProcBody<()> = Box::new(move |ctx| r.write(ctx, 1));
    let rep = world.run(vec![body], Box::new(RoundRobin::new()));
    let spent = bytes() - before;
    assert_eq!(rep.decided_count(), 1, "{:?}", rep.panics);
    drop(black_box((rep, world)));
    spent
}

#[test]
fn a_world_build_allocates_no_ring() {
    // A process takes its ring at its first event, so even the process's
    // first default builds allocate none. A `trace_capacity(0)` build first
    // warms the metrics shards, which at n = 32 alone outweigh a ring.
    for n in [2, 32] {
        build_bytes(n, Some(0));
        let cold = build_bytes(n, None);
        assert!(
            cold < RING_BYTES,
            "cold n = {n} build: {cold} bytes, at least one ring"
        );
    }

    // The counter sees a ring: the first run that records allocates one,
    // and the next takes it back from the pool.
    let first = one_write_run_bytes(None);
    assert!(first >= RING_BYTES, "first recording run: {first} bytes");
    let untraced = one_write_run_bytes(Some(0));
    let warm = one_write_run_bytes(None);
    assert!(
        warm <= untraced + warm_budget(1),
        "a warm recording run allocated {warm} bytes, {untraced} with the \
         recorder off"
    );

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
