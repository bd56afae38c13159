//! Allocation budget of one decision under the turn driver: a scan that
//! ends in a write allocates the `ProcState` it publishes and nothing else;
//! write events, deciding scans and the driver's own loop allocate nothing.
//!
//! One test only — the counter is switched on per thread, but keeping the
//! file single-test also keeps the harness quiet while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use bprc_core::bounded::{BoundedCore, ConsensusParams};
use bprc_core::state::ProcState;
use bprc_sim::turn::{
    Phase, TurnAdversary, TurnDecision, TurnDriver, TurnFn, TurnRandom, TurnView,
};
use bprc_sim::Counter;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so reading it inside the
    // allocator never allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct CountingAlloc;

impl CountingAlloc {
    fn note() {
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
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

const N: usize = 8;

fn driver(seed: u64) -> TurnDriver<BoundedCore> {
    let params = ConsensusParams::quick(N);
    let procs = (0..N)
        .map(|p| BoundedCore::new(params.clone(), p, p % 2 == 0, seed * 100 + p as u64))
        .collect();
    TurnDriver::new(procs)
}

#[test]
fn a_turn_allocates_only_the_state_it_publishes() {
    // Warm-up instance: anything lazily initialised per thread or per
    // process (metrics shards, the panic machinery) happens here.
    assert!(driver(7).run(&mut TurnRandom::new(7), 1_000_000).completed);

    // What publishing one state costs: the `ProcState` clone, measured.
    let state = ProcState::phantom(N, 2);
    COUNTING.set(true);
    let before = ALLOCS.load(Ordering::Relaxed);
    drop(black_box(state.clone()));
    let per_state = ALLOCS.load(Ordering::Relaxed) - before;
    COUNTING.set(false);
    assert_eq!(per_state, 2, "ProcState is two Vecs (ROADMAP item (a))");

    // The counted instance. The adversary notes which pid it stepped and
    // whether that event is a scan; the observer, called after the event,
    // charges everything allocated since the previous event to it.
    let stepped = Cell::new((0usize, false));
    let mut inner = TurnRandom::new(11);
    let mut adversary = TurnFn(|view: &TurnView<'_, ProcState>| {
        let decision = inner.choose(view);
        if let TurnDecision::Step(pid) = decision {
            stepped.set((pid, matches!(view.phases[pid], Phase::Scan)));
        }
        decision
    });
    let (mut total, mut writing_scans) = (0u64, 0u64);
    let mut mark = ALLOCS.load(Ordering::Relaxed);
    let driver = driver(11);
    COUNTING.set(true);
    let report = driver.run_observed(&mut adversary, 1_000_000, |d| {
        let now = ALLOCS.load(Ordering::Relaxed);
        let (pid, was_scan) = stepped.get();
        let wrote = was_scan && matches!(d.phases()[pid], Phase::Write(_));
        let budget = if wrote { per_state } else { 0 };
        COUNTING.set(false);
        assert_eq!(
            now - mark,
            budget,
            "event {} (pid {pid}, scan: {was_scan}, wrote: {wrote})",
            d.events()
        );
        COUNTING.set(true);
        total += now - mark;
        writing_scans += u64::from(wrote);
        mark = now;
    });
    COUNTING.set(false);

    assert!(report.completed);
    let scans = report.telemetry.total(Counter::Scans);
    let decisions = report.telemetry.total(Counter::Decisions);
    assert_eq!(decisions, N as u64);
    assert_eq!(writing_scans, scans - decisions);
    assert!(writing_scans > 100, "only {writing_scans} writing scans");
    // Exact, and independent of the rand stream the seed expands to.
    assert_eq!(total, per_state * writing_scans);
}
