//! Differential test of the scan cache in `BoundedCore::turn`: a scan
//! re-decodes only the edge rows whose packed words moved and recomputes the
//! leaders only if one did. After every scan of seeded runs, the core's graph
//! and leader set must equal a fresh full `decode_rows_with` and `leaders()`
//! of the view it scanned — for the binary core and for the joiners that
//! `MvCore` levels and `LogCore` slots build, under `RandomStrategy` and
//! `TurnBsp`.
//!
//! Consensus runs decide within a few rounds, too few for a counter to wrap
//! past 3K, so a chase against hand-packed peers covers the wrap.
//!
//! The tally also counts the rows a scan re-decodes: those whose counters
//! differ from the scanning core's previous view (from all zeros before its
//! first scan).

use std::cell::RefCell;
use std::rc::Rc;

use bprc_coin::CoinParams;
use bprc_core::bounded::{BoundedCore, ConsensusParams};
use bprc_core::multishot::{LogCore, LogMsg, StaticProposals};
use bprc_core::multivalued::{MvCore, MvState};
use bprc_core::state::{Pref, ProcParts, ProcRef, ProcState, RegisterLayout};
use bprc_sim::rng::stream_rng;
use bprc_sim::sched::RandomStrategy;
use bprc_sim::turn::{Turn, TurnBsp, TurnDriver, TurnProbe, TurnProcess, TurnStep};
use bprc_sim::{ProcMetrics, Strategy};
use bprc_strip::DistanceGraph;
use rand::Rng;

const SEED: u64 = 28;

/// A process whose scans can be checked: the binary core that runs them and
/// where its registers sit in the view.
trait Inspect: TurnProcess {
    fn core(&self) -> &BoundedCore;
    /// Which binary instance the core runs; a new one means a new core.
    fn instance(&self) -> (usize, usize);
    /// Process `j`'s register of that instance, `None` while `j` has not
    /// joined it (a phantom).
    fn project<'a>(&self, view: &'a [Self::Msg], j: usize) -> Option<ProcRef<'a>>;
}

impl Inspect for BoundedCore {
    fn core(&self) -> &BoundedCore {
        self
    }
    fn instance(&self) -> (usize, usize) {
        (0, 0)
    }
    fn project<'a>(&self, view: &'a [ProcState], j: usize) -> Option<ProcRef<'a>> {
        Some(view[j].fields())
    }
}

fn project_mv<'a>(core: &MvCore, state: &'a MvState) -> Option<ProcRef<'a>> {
    state.level(core.level())
}

impl Inspect for MvCore {
    fn core(&self) -> &BoundedCore {
        self.inner_core()
    }
    fn instance(&self) -> (usize, usize) {
        (0, self.level())
    }
    fn project<'a>(&self, view: &'a [MvState], j: usize) -> Option<ProcRef<'a>> {
        project_mv(self, &view[j])
    }
}

impl Inspect for LogCore<StaticProposals> {
    fn core(&self) -> &BoundedCore {
        self.inner_core().inner_core()
    }
    fn instance(&self) -> (usize, usize) {
        (self.decided().len(), self.inner_core().level())
    }
    fn project<'a>(&self, view: &'a [LogMsg], j: usize) -> Option<ProcRef<'a>> {
        let slot = view[j].slots.get(self.decided().len())?;
        project_mv(self.inner_core(), slot)
    }
}

#[derive(Debug, Default)]
struct Tally {
    /// Scans whose cache was compared with a full decode.
    checked: u64,
    scans: u64,
    /// Rows that moved since the scanning core's previous scan.
    moved_rows: u64,
}

/// `DistanceGraph::decode_rows_with` over `rows`, from scratch.
fn full_decode(rows: &[Vec<u32>], k: u32) -> DistanceGraph {
    let mut graph = DistanceGraph::new(0, k);
    graph.decode_rows_with(rows.len(), |j, row| {
        for (d, &c) in row.iter_mut().zip(&rows[j]) {
            *d = c as i64;
        }
    });
    graph
}

fn assert_cache_is(core: &BoundedCore, fresh: &DistanceGraph, at: &str) {
    assert_eq!(core.graph(), fresh, "{at}: graph");
    assert!(
        core.leaders().iter().copied().eq(fresh.leaders()),
        "{at}: leaders"
    );
}

/// Checks every scan of `inner` against a full decode.
struct Checked<P> {
    inner: P,
    /// The edge rows of the view the current core last scanned.
    last: Vec<Vec<u32>>,
    instance: (usize, usize),
    tally: Rc<RefCell<Tally>>,
}

impl<P: Inspect> TurnProcess for Checked<P> {
    type Msg = P::Msg;
    type Out = P::Out;

    fn initial_msg(&mut self) -> P::Msg {
        self.inner.initial_msg()
    }

    fn on_scan(&mut self, view: &[P::Msg]) -> TurnStep<P::Msg, P::Out> {
        let n = view.len();
        let before = self.inner.instance();
        if before != self.instance {
            // A new core, whose cache starts as the decode of zero rows.
            self.instance = before;
            self.last = vec![vec![0; n]; n];
        }
        let rows: Vec<Vec<u32>> = (0..n)
            .map(|j| {
                self.inner
                    .project(view, j)
                    .map_or(vec![0; n], |r| r.edges().collect())
            })
            .collect();
        let fresh = full_decode(&rows, self.inner.core().params().k());

        let step = self.inner.on_scan(view);

        let mut tally = self.tally.borrow_mut();
        tally.scans += 1;
        tally.moved_rows += rows.iter().zip(&self.last).filter(|(a, b)| a != b).count() as u64;
        // A scan that decides a level or a slot replaces the core that made
        // it; every other scan leaves its cache to inspect.
        if self.inner.instance() == before {
            let core = self.inner.core();
            let at = format!(
                "pid {} instance {before:?} scan {}",
                core.pid(),
                tally.scans
            );
            assert_cache_is(core, &fresh, &at);
            tally.checked += 1;
        }
        self.last = rows;
        step
    }

    fn probe(&self) -> TurnProbe {
        self.inner.probe()
    }

    fn publish_telemetry(&self, m: &ProcMetrics<'_>) {
        self.inner.publish_telemetry(m);
    }
}

/// Runs `procs` to completion under `adversary`, checking every scan.
fn run_checked<P: Inspect<Out: PartialEq>>(
    procs: Vec<P>,
    adversary: &mut dyn Strategy<Turn<P::Msg>>,
    at: &str,
) -> Tally {
    let (n, tally) = (procs.len(), Rc::new(RefCell::new(Tally::default())));
    let procs = procs
        .into_iter()
        .map(|inner| Checked {
            instance: inner.instance(),
            last: vec![vec![0; n]; n],
            inner,
            tally: Rc::clone(&tally),
        })
        .collect();
    let report = TurnDriver::new(procs).run(adversary, 10_000_000);
    assert!(report.completed, "{at}: did not complete");
    assert_eq!(report.distinct_outputs().len(), 1, "{at}: disagreement");
    let tally = Rc::try_unwrap(tally)
        .expect("the driver is gone")
        .into_inner();
    assert!(tally.checked > 0, "{at}: no scan checked");
    tally
}

fn params(n: usize, k: u32) -> ConsensusParams {
    ConsensusParams::with_k(n, k, CoinParams::new(n, 3, 1_000_000))
}

type Adversary<M> = Box<dyn Strategy<Turn<M>>>;

/// Each run under a seeded random schedule and under the barrier-synchronous
/// one.
fn adversaries<M>(seed: u64) -> Vec<(&'static str, Adversary<M>)> {
    vec![
        ("random", Box::new(RandomStrategy::new(seed))),
        ("bsp", Box::new(TurnBsp::new())),
    ]
}

#[test]
fn binary_cores_match_a_full_decode_after_every_scan() {
    for n in [1, 2, 3, 5, 8, 16] {
        for k in [2, 3] {
            for seed in 0..2 {
                for (name, mut adversary) in adversaries(seed) {
                    let at = format!("n={n} K={k} seed={seed} {name}");
                    let procs = (0..n)
                        .map(|p| {
                            BoundedCore::new(params(n, k), p, p % 2 == 0, seed * 100 + p as u64)
                        })
                        .collect();
                    run_checked(procs, &mut *adversary, &at);
                }
            }
        }
    }
}

/// The `decide-turn-n8` setting — `ConsensusParams::quick(8)`, mixed inputs,
/// a seeded random schedule — over 40 instances: almost every scan follows
/// coin flips, which move no edge row, so a scan re-decodes a fraction of
/// one row where a full decode reads all eight.
#[test]
fn a_scan_at_n8_re_decodes_a_fraction_of_a_row() {
    let (n, mut total) = (8, Tally::default());
    for seed in 0..40 {
        let mut rng = stream_rng(SEED, seed);
        let procs = (0..n)
            .map(|p| {
                // Processes 0 and 1 disagree; the rest draw.
                let input = p == 1 || (p > 1 && rng.gen());
                BoundedCore::new(ConsensusParams::quick(n), p, input, rng.gen())
            })
            .collect();
        let tally = run_checked(
            procs,
            &mut RandomStrategy::new(rng.gen()),
            &format!("seed {seed}"),
        );
        total.scans += tally.scans;
        total.moved_rows += tally.moved_rows;
    }
    let per_scan = total.moved_rows as f64 / total.scans as f64;
    println!(
        "{} scans, {per_scan:.3} rows re-decoded per scan",
        total.scans
    );
    assert!(per_scan < 0.5, "{per_scan} rows re-decoded per scan");
}

#[test]
fn multivalued_joiners_match_a_full_decode_after_every_scan() {
    for n in [1, 2, 3, 5] {
        for k in [2, 3] {
            for (name, mut adversary) in adversaries(7) {
                let at = format!("n={n} K={k} {name}");
                let procs = (0..n)
                    .map(|p| MvCore::new(params(n, k), p, 0b1010 ^ p as u64, 4, p as u64))
                    .collect();
                let tally = run_checked(procs, &mut *adversary, &at);
                assert!(tally.checked < tally.scans, "{at}: no level decided");
            }
        }
    }
}

#[test]
fn log_joiners_match_a_full_decode_after_every_scan() {
    for n in [2, 3] {
        for k in [2, 3] {
            for (name, mut adversary) in adversaries(11) {
                let at = format!("n={n} K={k} {name}");
                let procs = (0..n)
                    .map(|p| {
                        let proposals = StaticProposals(vec![p as u64, 5 + p as u64, 3]);
                        LogCore::new(params(n, k), p, 3, 3, proposals, 40 + p as u64)
                    })
                    .collect();
                run_checked(procs, &mut *adversary, &at);
            }
        }
    }
}

/// Every peer is a hand-packed register one round ahead of the core,
/// preferring the other value, so the core adopts it and catches up on every
/// scan: its counters, and the peers', wrap past 3K every 3K scans. Every row
/// moves on every scan.
#[test]
fn a_chase_past_3k_wraps_matches_a_full_decode_after_every_scan() {
    for n in [2, 3, 5] {
        for k in [2, 3] {
            let params = params(n, k);
            let layout = params.layout();
            let mut core = BoundedCore::new(params.clone(), 0, true, 1);
            for scan in 0..4 * 3 * k {
                let at = format!("n={n} K={k} scan {scan}");
                let own = core.state();
                let view: Vec<ProcState> = (0..n)
                    .map(|j| {
                        if j == 0 {
                            return own.clone();
                        }
                        let mut peer = ProcParts::phantom(&layout);
                        peer.pref = Pref::Val(false);
                        peer.edges[0] = (own.fields().edge(j) + 1) % (3 * k);
                        ProcState::pack(layout, &peer).unwrap()
                    })
                    .collect();
                let rows: Vec<Vec<u32>> = view.iter().map(|s| s.edges().collect()).collect();
                let fresh = full_decode(&rows, k);
                assert!(
                    matches!(core.on_view(&view), TurnStep::Write(_)),
                    "{at}: the chased core decided"
                );
                assert_cache_is(&core, &fresh, &at);
            }
            let stats = core.stats();
            assert!(
                stats.strip_wraps >= 3 * (n as u64 - 1),
                "n={n} K={k}: {stats:?}"
            );
        }
    }
}

/// A register whose edge row holds counter 7: a K = 3 register may, a K = 2
/// register may not (its counters live mod 6). The row moved, so the core
/// must unpack and range-check it.
#[test]
#[should_panic(expected = "edge counter out of range")]
fn a_corrupt_counter_on_a_moved_row_is_rejected() {
    let params = params(2, 2);
    let mut core = BoundedCore::new(params.clone(), 0, true, 1);
    let mut view = vec![
        core.state(),
        BoundedCore::new(params.clone(), 1, false, 2).state(),
    ];
    // A first scan fills the cache with process 1's legal row.
    assert!(matches!(core.on_view(&view), TurnStep::Write(_)));
    view[0] = core.state();
    let wide = RegisterLayout::new(2, 3, params.coin().m());
    let corrupt = ProcParts {
        edges: vec![7, 0],
        ..ProcParts::phantom(&wide)
    };
    view[1] = ProcState::pack(wide, &corrupt).unwrap();
    let _ = core.on_view(&view);
}
