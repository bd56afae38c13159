//! Allocation budgets, counted by a wrapping global allocator:
//!
//! * under the turn driver, a `BoundedCore` scan that ends in a write
//!   allocates what a clone of the `ProcState` it publishes costs: nothing
//!   at n = 8, where the register is held inline, and one word buffer at
//!   n = 32, where it is not; write events, deciding scans and the driver's
//!   own loop allocate nothing;
//! * a steady `LogCore` turn allocates nothing at any slot: the register
//!   hands back the message each write displaced, the replica publishes
//!   into it and writes its live level into the handed-back live slot's
//!   buffer. A replica's first scan allocates the strip scratch and its
//!   second level buffer, a turn that opens a slot the slot's level
//!   buffer, one that opens a level nothing; the phantom a replica reads
//!   for a slot another has not joined allocates nothing;
//! * an `MvCore`'s first writing scan allocates the strip scratch and its
//!   second level buffer, and every later one nothing, the scans that
//!   advance a level included;
//! * over real registers, a steady-state `scan_into` of an 8-slot `LogMsg`
//!   allocates nothing, and neither does the `update` that publishes one;
//!   and a solo log replica's steady turns — bridge, update, hand-back,
//!   scan and turn — allocate nothing at its first slot and its last, in
//!   lockstep and on free threads.
//!
//! The counter is per thread, so the tests do not see each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Mutex;

use bprc_core::bounded::{BoundedCore, ConsensusParams};
use bprc_core::multishot::{LogCore, LogMsg, StaticProposals};
use bprc_core::multivalued::{MvCore, MvState};
use bprc_core::state::ProcState;
use bprc_core::threaded::over_snapshot;
use bprc_registers::DirectArrow;
use bprc_sim::sched::{FnStrategy, RandomStrategy, RoundRobin, Strategy};
use bprc_sim::turn::{Phase, Turn, TurnDriver, TurnProcess, TurnStep, TurnView};
use bprc_sim::world::ProcBody;
use bprc_sim::{Counter, Decision, Mode, World};
use bprc_snapshot::ScannableMemory;

thread_local! {
    // Const-initialised and without a destructor, so touching it inside the
    // allocator never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations (and reallocations) this thread has made so far.
fn allocs() -> u64 {
    ALLOCS.get()
}

struct CountingAlloc;

impl CountingAlloc {
    fn note() {
        // `try_with`: the allocator outlives the thread-local.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
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

fn driver(n: usize, seed: u64) -> TurnDriver<BoundedCore> {
    let params = ConsensusParams::quick(n);
    let procs = (0..n)
        .map(|p| BoundedCore::new(params.clone(), p, p % 2 == 0, seed * 100 + p as u64))
        .collect();
    TurnDriver::new(procs)
}

/// Wraps `inner` so that `stepped` holds which pid the next event steps and
/// whether that event is a scan (a `Mutex`, not a `Cell`: strategies are
/// `Send`; locking it allocates nothing).
fn noting<'a, M>(
    inner: &'a mut dyn Strategy<Turn<M>>,
    stepped: &'a Mutex<(usize, bool)>,
) -> impl Strategy<Turn<M>> + 'a {
    FnStrategy::new(move |view: &TurnView<'_, M>| {
        let decision = inner.decide(view);
        if let Decision::Grant(pid) = decision {
            *stepped.lock().unwrap() = (pid, matches!(view.phases[pid], Phase::Scan));
        }
        decision
    })
}

/// Runs a seeded `n`-process instance, asserting that every event allocates
/// what publishing one state costs if it is a scan that ends in a write and
/// nothing otherwise; returns that cost.
fn turn_budget(n: usize) -> u64 {
    // Warm-up instance: anything lazily initialised per thread or per
    // process (metrics shards, the panic machinery) happens here.
    assert!(
        driver(n, 7)
            .run(&mut RandomStrategy::new(7), 10_000_000)
            .completed
    );

    // What publishing one state costs: the `ProcState` clone, measured.
    let state = ProcState::phantom(ConsensusParams::quick(n).layout());
    let before = allocs();
    drop(black_box(state.clone()));
    let per_state = allocs() - before;

    // The counted instance. The adversary notes which pid it stepped and
    // whether that event is a scan; the observer, called after the event,
    // charges everything allocated since the previous event to it.
    let stepped = Mutex::new((0usize, false));
    let mut inner = RandomStrategy::new(11);
    let mut adversary = noting(&mut inner, &stepped);
    let (mut total, mut writing_scans) = (0u64, 0u64);
    let driver = driver(n, 11);
    let mut mark = allocs();
    let report = driver.run_observed(&mut adversary, 10_000_000, |d| {
        let now = allocs();
        let (pid, was_scan) = *stepped.lock().unwrap();
        let wrote = was_scan && matches!(d.phases()[pid], Phase::Write(_));
        let budget = if wrote { per_state } else { 0 };
        assert_eq!(
            now - mark,
            budget,
            "n = {n}, event {} (pid {pid}, scan: {was_scan}, wrote: {wrote})",
            d.events()
        );
        total += now - mark;
        writing_scans += u64::from(wrote);
        mark = allocs();
    });

    assert!(report.completed);
    let scans = report.telemetry.total(Counter::Scans);
    let decisions = report.telemetry.total(Counter::Decisions);
    assert_eq!(decisions, n as u64);
    assert_eq!(writing_scans, scans - decisions);
    assert!(writing_scans > 100, "only {writing_scans} writing scans");
    // Exact, and independent of the rand stream the seed expands to.
    assert_eq!(total, per_state * writing_scans);
    per_state
}

#[test]
fn a_turn_allocates_only_the_state_it_publishes() {
    assert_eq!(std::mem::size_of::<ProcState>(), 64);
    // (n, words, what a clone of its register allocates): two words at
    // n = 8 are held inline, three at n = 32 live on the heap.
    for (n, words, clone_cost) in [(8, 2, 0), (32, 3, 1)] {
        assert_eq!(ConsensusParams::quick(n).layout().words(), words);
        assert_eq!(turn_budget(n), clone_cost, "n = {n}");
    }
}

const SLOTS: usize = 16;
const WIDTH: u32 = 8;

fn log_driver(n: usize, seed: u64) -> TurnDriver<LogCore<StaticProposals>> {
    let params = ConsensusParams::quick(n);
    let procs = (0..n)
        .map(|p| {
            let proposals = StaticProposals((0..SLOTS as u64).map(|s| s * 7 + p as u64).collect());
            LogCore::new(params.clone(), p, SLOTS, WIDTH, proposals, seed + p as u64)
        })
        .collect();
    TurnDriver::new(procs)
}

/// What a steady log turn allocates, at every slot: nothing. The register
/// hands back the message it held before the last write; the replica
/// publishes into its slot vector, whose settled slots already share the
/// current buffers, and writes the live level into the handed-back live
/// slot's buffer, which by then nobody else holds.
const STEADY: u64 = 0;

/// What a process's first scan allocates on top of its second level
/// buffer: the strip scratch its core sizes (the graph's two matrices, the
/// rows, the leaders, the closure). No later turn sizes strip scratch
/// again: the cores are reset, not rebuilt.
const C: u64 = 5;

/// What a replica's first scan allocates: the strip scratch, and the
/// buffer it writes its level into while the first one is published.
const FIRST: u64 = C + 1;

/// What a turn that opens a slot allocates: the new slot's level buffer.
/// The slot vectors and the decided list have room for every slot, and a
/// level buffer for every level, so neither a slot nor a level grows one.
const OPENS_SLOT: u64 = 1;

#[test]
fn a_log_turn_allocates_the_message_it_publishes() {
    assert!(
        log_driver(2, 1)
            .run(&mut RoundRobin::new(), 10_000_000)
            .completed
    );

    // What a replica that has not joined a slot reads as costs nothing.
    let before = allocs();
    let layout = ConsensusParams::quick(2).layout();
    drop(black_box(MvState::phantom(layout)));
    assert_eq!(allocs() - before, 0, "a phantom slot state allocated");

    let n = 2;
    let stepped = Mutex::new((0usize, false));
    let mut inner = RoundRobin::new();
    let mut adversary = noting(&mut inner, &stepped);
    // Per pid: (slots, levels of the newest slot) as last published, and
    // whether it has scanned yet.
    let mut shape = vec![(1usize, 1usize); n];
    let mut scanned = vec![false; n];
    // Writing scans: first ones, ones that open a slot, ones that open a
    // level, steady ones.
    let mut kinds = [0u64; 4];
    let mut steady_by_slot = [0u64; SLOTS];
    let driver = log_driver(n, 1);
    let mut mark = allocs();
    let report = driver.run_observed(&mut adversary, 10_000_000, |d| {
        let spent = allocs() - mark;
        let (pid, was_scan) = *stepped.lock().unwrap();
        match &d.phases()[pid] {
            Phase::Write(msg) if was_scan => {
                let now = (msg.slots.len(), msg.slots.last().unwrap().level_count());
                let slot = now.0 - 1;
                let (kind, budget) = if !scanned[pid] {
                    (0, FIRST)
                } else if now.0 != shape[pid].0 {
                    (1, OPENS_SLOT)
                } else if now.1 != shape[pid].1 {
                    (2, STEADY)
                } else {
                    steady_by_slot[slot] += 1;
                    (3, STEADY)
                };
                kinds[kind] += 1;
                assert_eq!(
                    spent,
                    budget,
                    "event {}: pid {pid} slot {slot} turn of kind {kind}",
                    d.events()
                );
                shape[pid] = now;
                scanned[pid] = true;
            }
            // A write event moves the message in; a deciding scan returns
            // the decided log (one vector) and only at the very end.
            Phase::Done => assert!(spent <= 1, "deciding scan allocated {spent}"),
            _ => assert_eq!(spent, 0, "event {} (pid {pid})", d.events()),
        }
        mark = allocs();
    });
    assert!(report.completed);
    assert_eq!(report.outputs[0], report.outputs[1]);
    // Every kind of turn was seen, and late slots have steady turns too,
    // which cost what the first slot's do.
    assert_eq!(kinds[..2], [n as u64, (n * (SLOTS - 1)) as u64]);
    assert!(kinds[2] > 0 && kinds[3] > kinds[2], "{kinds:?}");
    assert!(steady_by_slot[SLOTS - 1] > 0 && steady_by_slot[0] > 0);
}

/// Under the turn driver, an `MvCore`'s first writing scan allocates the
/// [`C`] strip scratch and the level buffer it writes while its first is
/// published, and every later one nothing — the turns that advance a level
/// and the turns after them too: its level buffers have room for every
/// level, it writes into the state its register handed back, and the
/// binary core is reset in place. A deciding scan allocates nothing.
#[test]
fn an_mv_level_advance_allocates_no_strip_scratch() {
    let (n, width) = (3, 8);
    let params = ConsensusParams::quick(n);
    let cores = |seed: u64| -> Vec<MvCore> {
        (0..n)
            .map(|p| {
                MvCore::new(
                    params.clone(),
                    p,
                    [0x5A, 0xC3, 0x0F][p],
                    width,
                    seed + p as u64,
                )
            })
            .collect()
    };
    assert!(
        TurnDriver::new(cores(1))
            .run(&mut RandomStrategy::new(1), 10_000_000)
            .completed
    );

    let stepped = Mutex::new((0usize, false));
    let mut inner = RandomStrategy::new(5);
    let mut adversary = noting(&mut inner, &stepped);
    let mut levels = vec![1usize; n];
    let mut scanned = vec![false; n];
    let (mut advances, mut after_advance) = (0u64, 0u64);
    let mut advanced = vec![false; n];
    let driver = TurnDriver::new(cores(5));
    let mut mark = allocs();
    let report = driver.run_observed(&mut adversary, 10_000_000, |d| {
        let spent = allocs() - mark;
        let (pid, was_scan) = *stepped.lock().unwrap();
        match &d.phases()[pid] {
            Phase::Write(msg) if was_scan => {
                let first = !std::mem::replace(&mut scanned[pid], true);
                let opens = msg.level_count() != levels[pid];
                levels[pid] = msg.level_count();
                let budget = if first { 1 + C } else { 0 };
                assert_eq!(
                    spent,
                    budget,
                    "event {}: pid {pid} (first scan: {first}, opens a level: {opens})",
                    d.events()
                );
                advances += u64::from(opens);
                after_advance += u64::from(std::mem::replace(&mut advanced[pid], opens));
            }
            _ => assert_eq!(spent, 0, "event {} (pid {pid})", d.events()),
        }
        mark = allocs();
    });
    assert!(report.completed);
    assert_eq!(report.distinct_outputs().len(), 1);
    assert!(
        advances >= (n * (width as usize - 1)) as u64,
        "{advances} level advances"
    );
    assert!(after_advance > 0);
}

/// The register value replica 0 of a solo two-replica log publishes after
/// `slots` slots.
fn log_msg(slots: usize) -> LogMsg {
    let params = ConsensusParams::quick(2);
    let procs: Vec<_> = (0..2)
        .map(|pid| {
            let proposals = StaticProposals((0..slots as u64).collect());
            LogCore::new(params.clone(), pid, slots, WIDTH, proposals, pid as u64)
        })
        .collect();
    let mut last = None;
    TurnDriver::new(procs).run_observed(&mut RoundRobin::new(), 1_000_000, |d| {
        last = Some(d.shared()[0].clone());
    });
    last.expect("the log took at least one event")
}

#[test]
fn steady_state_scan_and_update_allocate_nothing() {
    const ROUNDS: u64 = 1024;
    let mut world = World::builder(2)
        .mode(Mode::Free)
        .step_limit(u64::MAX)
        .build();
    let memory =
        ScannableMemory::<LogMsg, DirectArrow>::new(&world, 2, LogMsg { slots: Vec::new() });
    let mut port = memory.port(0);
    let msg = log_msg(8);
    assert_eq!(msg.slots.len(), 8);
    // (allocations inside all the scans, inside all the updates).
    let live: ProcBody<(u64, u64)> = Box::new(move |ctx| {
        let mut view = Vec::new();
        // Warm-up: the port's buffers, the view and the staging copy grow to
        // the message's size once.
        for _ in 0..2 {
            port.update(ctx, msg.clone())?;
            port.scan_into(ctx, &mut view)?;
        }
        assert_eq!(view[0], msg);
        let (mut in_scans, mut in_updates) = (0, 0);
        for _ in 0..ROUNDS {
            // "Nothing beyond the value it is handed": the clone is the
            // caller's, made before the count starts.
            let value = msg.clone();
            let before = allocs();
            port.update(ctx, value)?;
            in_updates += allocs() - before;
            // The scan copies the new value into buffers the port owns.
            let before = allocs();
            port.scan_into(ctx, &mut view)?;
            in_scans += allocs() - before;
        }
        Ok((in_scans, in_updates))
    });
    let idle: ProcBody<(u64, u64)> = Box::new(|_ctx| Ok((0, 0)));
    // Free mode ignores the strategy.
    let report = world.run(vec![live, idle], Box::new(RoundRobin::new()));
    let (in_scans, in_updates) = report.outputs[0].expect("the live body returned");
    assert_eq!((in_scans, in_updates), (0, 0), "(in scans, in updates)");
}

/// A log replica that charges each turn what its thread allocated from the
/// end of the turn before to the end of its own: the bridge's bookkeeping,
/// the update that publishes the last message, the hand-back, the scan and
/// the turn. Each charge is noted as (slot, steady, allocations), steady
/// when the message has the shape the one before it had.
struct Charged {
    core: LogCore<StaticProposals>,
    /// The allocation count at the end of the last turn, on the thread
    /// running the replica (`None` before its first turn there).
    mark: Option<u64>,
    shape: (usize, usize),
    charges: Vec<(usize, bool, u64)>,
}

impl TurnProcess for Charged {
    type Msg = LogMsg;
    type Out = (Vec<u64>, Vec<(usize, bool, u64)>);

    fn initial_msg(&mut self) -> LogMsg {
        self.core.initial_msg()
    }

    fn on_scan(&mut self, view: &[LogMsg]) -> TurnStep<LogMsg, Self::Out> {
        match self.core.on_scan(view) {
            TurnStep::Write(msg) => {
                let spent = self.mark.map(|mark| allocs() - mark);
                let shape = (msg.slots.len(), msg.slots.last().unwrap().level_count());
                if let Some(spent) = spent {
                    let steady = shape == self.shape;
                    self.charges.push((shape.0 - 1, steady, spent));
                }
                self.shape = shape;
                self.mark = Some(allocs());
                TurnStep::Write(msg)
            }
            TurnStep::Decide(log) => TurnStep::Decide((log, std::mem::take(&mut self.charges))),
        }
    }

    fn recycle(&mut self, displaced: LogMsg) {
        self.core.recycle(displaced);
    }
}

/// Over the handshake memory, a solo replica's steady turns allocate
/// nothing, at slot 0 and at the last slot alike, in lockstep and on free
/// threads: the locked register hands the message it held back to the
/// replica's port, and the bridge hands it on to the replica. (In
/// lockstep the decisions the replica's thread takes fill lists the world
/// keeps, and the history is off: recording it allocates.)
#[test]
fn a_register_level_log_turn_allocates_nothing() {
    for mode in [Mode::Lockstep, Mode::Free] {
        let n = 2;
        let params = ConsensusParams::quick(n);
        let mut world = World::builder(n)
            .mode(mode)
            .record_history(false)
            .step_limit(u64::MAX)
            .build();
        let procs = (0..n)
            .map(|p| {
                let proposals = StaticProposals((0..SLOTS as u64).map(|s| s * 7 + 1).collect());
                let core = LogCore::new(params.clone(), p, SLOTS, WIDTH, proposals, 3 + p as u64);
                Charged {
                    core,
                    mark: None,
                    shape: (0, 0),
                    // Room for every turn, so noting one allocates nothing.
                    charges: Vec::with_capacity(100_000),
                }
            })
            .collect();
        let initial = LogMsg { slots: Vec::new() };
        let (_memory, mut bodies) =
            over_snapshot::<_, ScannableMemory<_, DirectArrow>>(&world, procs, initial);
        // Replica 1 returns at once: replica 0 appends solo.
        bodies[1] = Box::new(|_ctx| Ok((Vec::new(), Vec::new())));
        let report = world.run(bodies, Box::new(RoundRobin::new()));
        let (log, charges) = report.outputs[0].clone().expect("replica 0 decided");
        assert_eq!(
            log,
            (0..SLOTS as u64).map(|s| s * 7 + 1).collect::<Vec<_>>()
        );
        for slot in [0, SLOTS - 1] {
            let steady: Vec<u64> = charges
                .iter()
                .filter(|&&(s, steady, _)| s == slot && steady)
                .map(|&(_, _, spent)| spent)
                .collect();
            assert!(
                steady.len() > 5,
                "{mode:?} slot {slot}: {} steady turns",
                steady.len()
            );
            assert!(
                steady.iter().all(|&spent| spent == STEADY),
                "{mode:?} slot {slot}: steady turns allocated {steady:?}"
            );
        }
    }
}
