//! The bounded polynomial randomized consensus protocol (§5).
//!
//! Each process runs the loop (paper's pseudocode, `K = 2`):
//!
//! ```text
//! write({pref: v_i, round: inc(round)})
//! repeat forever
//! 1:  scan;
//! 2:  if all who disagree trail by K, and I'm a leader:   decide(pref)
//! 3:  elseif the leaders agree on v:                      pref := v;  inc; write
//! 5:  elseif pref ≠ ⊥:                                    pref := ⊥;       write
//! 7:  elseif next_coin_value() = undecided:               flip_next_coin;  write
//! 8:  else:                                               pref := coin;  inc; write
//! ```
//!
//! where *leader*, *trails by K* and `inc` are judged on the distance graph
//! decoded from the scanned edge-counter rows (§4), and the shared coin of
//! the next round is assembled from each process's circular coin array
//! indexed through the graph (§3 + Observation 1: contributions of
//! processes K or more rounds away read as zero).
//!
//! [`BoundedCore`] is a pure state machine: `initial_msg` is the first
//! write, `on_scan` maps an atomic view to the next write or a decision.
//! It implements [`TurnProcess`] for the fast driver; [`crate::threaded`]
//! runs the *same* core over the real scannable memory.
//!
//! The core computes on its own fields unpacked ([`ProcParts`]) and keeps
//! the register it last published packed beside them: a walk step patches
//! the one counter it moved into that register, every other write repacks
//! it, and publishing is a copy. Peers are read through the packed
//! registers' field accessors ([`ProcRef`]), never unpacked.

use bprc_coin::flip::Flips;
use bprc_coin::value::{coin_value_total, walk_step, CoinValue};
use bprc_coin::CoinParams;
use bprc_sim::turn::{TurnProbe, TurnProcess, TurnStep};
use bprc_sim::{Counter, ProcMetrics};
use bprc_strip::{inc_row, Closure, DistanceGraph};

use crate::state::{Pref, ProcParts, ProcRef, ProcState, RegisterLayout};

/// Parameters of a consensus instance.
#[derive(Debug, Clone)]
pub struct ConsensusParams {
    n: usize,
    k: u32,
    coin: CoinParams,
}

impl ConsensusParams {
    /// Creates parameters with the paper's `K = 2` and an explicit coin.
    ///
    /// # Panics
    ///
    /// Panics if the coin's `n` differs from `n`, or `n == 0`.
    pub fn new(n: usize, coin: CoinParams) -> Self {
        Self::with_k(n, 2, coin)
    }

    /// Creates parameters with an explicit strip constant `K ≥ 2`.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` (the paper's correctness lemmas need a window of
    /// at least 2) or the coin's `n` differs from `n`.
    pub fn with_k(n: usize, k: u32, coin: CoinParams) -> Self {
        assert!(n >= 1, "need at least one process");
        assert!(k >= 2, "the protocol needs K >= 2");
        assert_eq!(coin.n(), n, "coin must be sized for n processes");
        ConsensusParams { n, k, coin }
    }

    /// Laptop-scale defaults for tests and examples: `K = 2`, `b = 3`,
    /// a generous counter bound.
    pub fn quick(n: usize) -> Self {
        Self::new(n, CoinParams::new(n, 3, 1_000_000))
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The strip window constant K.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The shared-coin parameters.
    pub fn coin(&self) -> &CoinParams {
        &self.coin
    }

    /// The layout every register of the instance is packed under.
    pub fn layout(&self) -> RegisterLayout {
        RegisterLayout::new(self.n, self.k, self.coin.m())
    }
}

/// Statistics a core accumulates about its own execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreStats {
    /// Scans performed.
    pub scans: u64,
    /// Rounds advanced (`inc` executions, counting the initial one).
    pub rounds: u64,
    /// Walk steps contributed to shared coins.
    pub coin_flips: u64,
    /// Times the preference was demoted to ⊥.
    pub demotions: u64,
    /// Times a coin value (rather than leader agreement) set the preference.
    pub coin_adoptions: u64,
    /// Edge-counter increments performed across all `inc` executions.
    pub strip_incs: u64,
    /// Edge-counter increments that wrapped modulo `3K` (the bounded-space
    /// event the unbounded protocol never has).
    pub strip_wraps: u64,
    /// Walk steps clamped at the ±Kn barrier (paper's saturation rule).
    pub walk_extremes: u64,
}

impl CoreStats {
    /// Adds another stats block into this one (composed cores — the
    /// multivalued levels, the multi-shot slots — retire inner cores and
    /// fold their stats forward so nothing is lost on replacement).
    pub fn absorb(&mut self, other: &CoreStats) {
        self.scans += other.scans;
        self.rounds += other.rounds;
        self.coin_flips += other.coin_flips;
        self.demotions += other.demotions;
        self.coin_adoptions += other.coin_adoptions;
        self.strip_incs += other.strip_incs;
        self.strip_wraps += other.strip_wraps;
        self.walk_extremes += other.walk_extremes;
    }

    /// Publishes the protocol-level counters to the metrics plane. Scans,
    /// updates and decisions are *not* published — the driver counts those
    /// at event granularity and double counting would break the
    /// cross-backend consistency invariant.
    pub fn publish(&self, m: &ProcMetrics<'_>) {
        m.incr(Counter::RoundAdvances, self.rounds);
        m.incr(Counter::CoinFlips, self.coin_flips);
        m.incr(Counter::Demotions, self.demotions);
        m.incr(Counter::CoinAdoptions, self.coin_adoptions);
        m.incr(Counter::StripIncs, self.strip_incs);
        m.incr(Counter::StripWraps, self.strip_wraps);
        m.incr(Counter::WalkExtremes, self.walk_extremes);
    }
}

/// The distance graph a scanned `view` encodes (the paper's `make_graph`):
/// the decode a core's turn makes, with every row moved.
pub(crate) fn view_graph(view: &[ProcState], k: u32) -> DistanceGraph {
    let mut graph = DistanceGraph::new(0, k);
    graph.decode_rows_with(view.len(), |j, row| view[j].fields().edges_into(row));
    graph
}

/// Why packing a core's own state cannot fail: `walk_step` saturates at
/// ±(m+1), `inc_row` wraps at 3K, the pointer moves mod K+1.
const IN_DOMAIN: &str = "the protocol keeps every field inside its domain";

/// One process of the bounded consensus protocol, as a pure
/// scan/write state machine.
///
/// `Clone` deliberately: the model checker snapshots cores to branch over
/// schedules and flip outcomes. The strip scratch makes that 3·n² words
/// (the graph's δ and counters, the closure) plus n row tails of one or two
/// words and at most n leaders.
#[derive(Debug, Clone)]
pub struct BoundedCore {
    params: ConsensusParams,
    /// `params.layout()`, derived once.
    layout: RegisterLayout,
    me: usize,
    /// What this process last published, unpacked.
    state: ProcParts,
    /// The same, packed: the register a write publishes.
    published: ProcState,
    flips: Flips,
    stats: CoreStats,
    /// True until a late joiner performs its first, scan-based `inc`.
    join_pending: bool,
    /// The graph of the last scan, with the counters it was decoded from;
    /// `rows` holds each process's register as that decode read it, from
    /// the first word with edge bits on, that word masked to them
    /// ([`RegisterLayout::edge_tail`]), and `leaders` the graph's leaders,
    /// ascending. All three start as the decode of the all-zero initial
    /// memory, sized by [`with_flips`](Self::with_flips) or by a joiner's
    /// first scan, so a scan re-decodes only the rows that moved.
    graph: DistanceGraph,
    rows: Vec<u64>,
    leaders: Vec<usize>,
    /// The graph's closure on the turns that `inc`: read off token
    /// positions whenever the graph is a position graph, as every graph
    /// sequential play reaches is.
    closure: Closure,
}

impl BoundedCore {
    /// Creates the process with initial binary value `input`; `seed` drives
    /// its local coin flips.
    ///
    /// # Panics
    ///
    /// Panics if `pid >= params.n()`.
    pub fn new(params: ConsensusParams, pid: usize, input: bool, seed: u64) -> Self {
        Self::with_flips(params, pid, input, Flips::fair(seed))
    }

    /// Creates the process with an explicit local flip source (scripted or
    /// queued sources support deterministic worst cases and the model
    /// checker).
    ///
    /// # Panics
    ///
    /// Panics if `pid >= params.n()`.
    pub fn with_flips(params: ConsensusParams, pid: usize, input: bool, flips: Flips) -> Self {
        let mut core = Self::joiner(params, pid, input, flips);
        // A joiner whose join inc runs now: the paper's first write carries
        // `inc(round)`, computed against the all-zero initial memory, which
        // every process knows without scanning. NOTE: this is sound only when all
        // participants start the instance together (the paper's setting) —
        // rows built from the zero assumption stay pairwise- and
        // cross-pair-consistent only because everyone's first row is the
        // same `+1 against all`. A participant joining an instance whose
        // peers have already advanced must use [`BoundedCore::joiner`]
        // instead: the zero-assumed row combined with advanced peers decodes
        // to a configuration that is no legal token-game state (positive
        // cycles ⇒ no leaders ⇒ livelock).
        core.join_pending = false;
        core.start_scan_cache();
        core.advance_round();
        core.repack();
        core
    }

    /// Creates a **late-joining** participant: its first write publishes a
    /// round-0 state carrying its preference, and its first `inc` is
    /// computed from its first scan (against the *real* strip state, which
    /// may show other participants many rounds ahead). Use this for
    /// composed instances where participants start at different times —
    /// the multivalued levels and multi-shot slots do.
    ///
    /// A joiner allocates no strip scratch until that first scan. It is the
    /// core's buffers, allocated once, put through [`rejoin`](Self::rejoin).
    pub fn joiner(params: ConsensusParams, pid: usize, input: bool, flips: Flips) -> Self {
        assert!(pid < params.n(), "pid out of range");
        let layout = params.layout();
        let mut core = BoundedCore {
            graph: DistanceGraph::new(0, params.k()),
            rows: Vec::new(),
            leaders: Vec::new(),
            closure: Closure::default(),
            params,
            layout,
            me: pid,
            state: ProcParts::phantom(&layout),
            published: ProcState::phantom(layout),
            flips: Flips::queue(),
            stats: CoreStats::default(),
            join_pending: true,
        };
        core.rejoin(input, flips);
        core
    }

    /// Returns this core, whatever it has done, to the state
    /// [`joiner`](Self::joiner) builds with the same `input` and `flips`,
    /// keeping its buffers: the fields, the register, the graph, the rows,
    /// the leaders and the closure. Composed cores call it on the turn that
    /// opens a level or a slot, where a new joiner would allocate them
    /// again on its first scan.
    pub fn rejoin(&mut self, input: bool, flips: Flips) {
        let state = &mut self.state;
        state.pref = Pref::Val(input);
        state.coins.fill(0);
        state.current_coin = 0;
        state.edges.fill(0);
        self.repack();
        self.flips = flips;
        self.stats = CoreStats::default();
        self.join_pending = true;
        // An empty scan cache, which the first scan sizes in place.
        self.graph.reset(0);
        self.rows.clear();
        self.leaders.clear();
    }

    /// This process's id.
    pub fn pid(&self) -> usize {
        self.me
    }

    /// The parameters.
    pub fn params(&self) -> &ConsensusParams {
        &self.params
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> CoreStats {
        self.stats
    }

    /// The state this process last published: a copy of the register it
    /// keeps packed.
    pub fn state(&self) -> ProcState {
        self.published.clone()
    }

    /// The fields of the state this process last published, unpacked: what
    /// the core computes on.
    pub fn parts(&self) -> &ProcParts {
        &self.state
    }

    /// Copies the last published state into `out`, one register wide.
    pub(crate) fn copy_state_into(&self, out: &mut [u64]) {
        out.copy_from_slice(self.published.fields().words());
    }

    /// Re-encodes the register to publish from every field of `state`.
    fn repack(&mut self) {
        self.published.repack(&self.state).expect(IN_DOMAIN);
    }

    /// Mutable access to the local flip source (the model checker loads
    /// predetermined outcomes through this).
    pub fn flips_mut(&mut self) -> &mut Flips {
        &mut self.flips
    }

    /// The distance graph of the last scan (before the first, the graph of
    /// the all-zero initial memory; empty for a joiner, or a core since
    /// [`rejoin`](Self::rejoin), that has not scanned).
    pub fn graph(&self) -> &DistanceGraph {
        &self.graph
    }

    /// [`graph`](Self::graph)'s leaders, ascending, as the protocol lines
    /// read them.
    pub fn leaders(&self) -> &[usize] {
        &self.leaders
    }

    /// Sizes the scan cache as the decode of the all-zero initial memory:
    /// every row zero, everyone level, everyone a leader. In place, so a
    /// core since [`rejoin`](Self::rejoin) allocates nothing here.
    fn start_scan_cache(&mut self) {
        let n = self.params.n();
        self.graph.reset(n);
        self.rows.clear();
        self.rows.resize(n * self.row_words(), 0);
        self.leaders.clear();
        self.leaders.extend(0..n);
    }

    /// Words `rows` keeps per process: a register's words from the first
    /// that holds edge bits on.
    fn row_words(&self) -> usize {
        self.layout.words() - self.layout.edge_tail().0
    }

    /// Brings the scan cache up to the scan `peer`: a row whose words equal
    /// the ones last decoded is skipped (process `j` alone writes row `j`,
    /// so equal words are an equal row), any other is unpacked,
    /// range-checked and re-decoded, and the leaders are recomputed only if
    /// some row moved. The words are compared as they lie, the first masked
    /// to its edge bits ([`RegisterLayout::edge_tail`]).
    fn sync_scan_cache<'a>(&mut self, peer: &impl Fn(usize) -> ProcRef<'a>) {
        if self.rows.is_empty() {
            self.start_scan_cache();
        }
        let ((from, mask), stride) = (self.layout.edge_tail(), self.row_words());
        let mut moved = false;
        for (j, cached) in self.rows.chunks_exact_mut(stride).enumerate() {
            let row = peer(j);
            let (first, rest) = row.words()[from..]
                .split_first()
                .expect("the edge row lies inside the register");
            // Word by word: a row is one or two words, and a slice
            // comparison would call `bcmp` for it.
            if cached[0] != first & mask || cached[1..].iter().zip(rest).any(|(c, r)| c != r) {
                cached[0] = first & mask;
                cached[1..].copy_from_slice(rest);
                self.graph.decode_row_with(j, |out| row.edges_into(out));
                moved = true;
            }
        }
        if moved {
            self.leaders.clear();
            self.leaders.extend(self.graph.leaders());
        }
    }

    /// The paper's `inc`: advance the coin pointer, zero the slot of the
    /// round after next, and advance my edge-counter row in place against
    /// the scanned graph (`self.graph`).
    fn advance_round(&mut self) {
        self.state.current_coin = self.state.next_coin_slot();
        let next = self.state.next_coin_slot();
        self.state.coins[next] = 0;
        self.graph.closure_into(&mut self.closure);
        let (incs, wraps) = inc_row(&self.graph, &self.closure, self.me, &mut self.state.edges);
        self.stats.strip_incs += incs;
        self.stats.strip_wraps += wraps;
        self.stats.rounds += 1;
    }

    /// The paper's `next_coin_value`: assemble the next round's shared coin
    /// from the scanned states, reading process `j`'s contribution from the
    /// slot `(current_coin_j + 1 − w(j,me)) mod (K+1)` when `j` is
    /// at-or-above me by less than K, and 0 otherwise (Observation 1).
    fn next_coin_value<'a>(&self, peer: &impl Fn(usize) -> ProcRef<'a>) -> CoinValue {
        let kk = self.params.k() as i64;
        let slots = self.layout.coin_slots();
        let own = self.state.coins[self.state.next_coin_slot()];
        let mut total = own;
        for j in 0..self.params.n() {
            if j == self.me {
                continue;
            }
            let dji = self.graph.delta(j, self.me);
            if (0..kk).contains(&dji) {
                // Read under my copy of the layout, which every register of
                // the instance shares: the loop then loads the field offsets
                // once, not from each peer's register.
                let s = peer(j);
                debug_assert_eq!(s.layout(), &self.layout);
                let s = ProcRef::new(&self.layout, s.words());
                // next − w (mod K+1) with next ≤ K and 0 ≤ w < K: one
                // conditional add in place of a division.
                let (next, back) = (s.next_coin_slot(), dji as usize);
                let slot = if next >= back {
                    next - back
                } else {
                    next + slots - back
                };
                total += s.coin(slot);
            }
        }
        coin_value_total(self.params.coin(), own, total)
    }

    /// The paper's `flip_next_coin`: one walk step on the next round's coin
    /// slot, patched into the register to publish.
    fn flip_next_coin(&mut self) {
        let next = self.state.next_coin_slot();
        let heads = self.flips.flip();
        let before = self.state.coins[next];
        let after = walk_step(self.params.coin(), before, heads);
        self.state.coins[next] = after;
        self.published.set_coin(next, after).expect(IN_DOMAIN);
        // Field by field, so that checking allocates nothing at any width;
        // `tests/encoding.rs` compares every published register with a full
        // pack, word for word.
        debug_assert!(
            self.published.fields() == self.state,
            "the patched register must hold my fields"
        );
        self.stats.coin_flips += 1;
        if after == before {
            // The step was clamped at ±Kn (the walk's reflecting barrier).
            self.stats.walk_extremes += 1;
        }
    }

    /// The common value of all leaders, if they agree (a leader with ⊥
    /// means the leaders do not agree). Preferences are read from the scan:
    /// a demotion changes one without moving an edge row.
    fn leaders_agreement<'a>(&self, peer: &impl Fn(usize) -> ProcRef<'a>) -> Option<bool> {
        let mut prefs = self.leaders.iter().map(|&j| peer(j).pref().value());
        let first = prefs.next()??;
        prefs.all(|p| p == Some(first)).then_some(first)
    }

    /// One protocol turn over an atomic view (the paper's lines 1–8).
    pub fn on_view(&mut self, view: &[ProcState]) -> TurnStep<ProcState, bool> {
        debug_assert_eq!(view.len(), self.params.n());
        match self.turn(|j| view[j].fields()) {
            TurnStep::Write(()) => TurnStep::Write(self.state()),
            TurnStep::Decide(v) => TurnStep::Decide(v),
        }
    }

    /// [`on_view`](Self::on_view) over registers borrowed wherever they lie:
    /// `peer(j)` is process `j`'s. `Write(())` leaves the register to
    /// publish packed in `self`, for [`state`](Self::state) or
    /// [`copy_state_into`](Self::copy_state_into) to copy out.
    pub(crate) fn turn<'a>(&mut self, peer: impl Fn(usize) -> ProcRef<'a>) -> TurnStep<(), bool> {
        debug_assert!(
            peer(self.me) == self.state,
            "the driver must publish my writes before my next scan"
        );
        self.stats.scans += 1;
        self.sync_scan_cache(&peer);

        // A late joiner first performs its join inc against the real strip
        // state (see [`BoundedCore::joiner`]) before running the protocol
        // lines — the analogue of the paper's initial write-with-inc.
        if self.join_pending {
            self.join_pending = false;
            self.advance_round();
            self.repack();
            return TurnStep::Write(());
        }

        // Line 2: decide if I'm a leader, I have a value, and everyone who
        // disagrees with it trails by K.
        if let Pref::Val(v) = self.state.pref {
            if self.leaders.contains(&self.me) {
                let all_trail = (0..self.params.n()).all(|j| {
                    j == self.me
                        || peer(j).pref().agrees_with(&self.state.pref)
                        || self.graph.delta(self.me, j) >= self.params.k() as i64
                });
                if all_trail {
                    return TurnStep::Decide(v);
                }
            }
        }

        // Lines 3–4: adopt the leaders' common value and advance.
        if let Some(v) = self.leaders_agreement(&peer) {
            self.state.pref = Pref::Val(v);
            self.advance_round();
            self.repack();
            return TurnStep::Write(());
        }

        // Lines 5–6: leaders disagree — drop my preference.
        if self.state.pref != Pref::Bottom {
            self.state.pref = Pref::Bottom;
            self.stats.demotions += 1;
            self.repack();
            return TurnStep::Write(());
        }

        // Lines 7–8: consult the next round's shared coin.
        match self.next_coin_value(&peer) {
            CoinValue::Undecided => self.flip_next_coin(),
            v => {
                self.state.pref = Pref::Val(v.as_bool());
                self.stats.coin_adoptions += 1;
                self.advance_round();
                self.repack();
            }
        }
        TurnStep::Write(())
    }
}

impl TurnProcess for BoundedCore {
    type Msg = ProcState;
    type Out = bool;

    fn initial_msg(&mut self) -> ProcState {
        self.state()
    }

    fn on_scan(&mut self, view: &[ProcState]) -> TurnStep<ProcState, bool> {
        self.on_view(view)
    }

    fn probe(&self) -> TurnProbe {
        TurnProbe {
            round: Some(self.stats.rounds),
            coin_flips: self.stats.coin_flips,
            register_bits: self.layout.bits(),
        }
    }

    fn publish_telemetry(&self, m: &ProcMetrics<'_>) {
        self.stats.publish(m);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use bprc_sim::sched::{RandomStrategy, RoundRobin};
    use bprc_sim::turn::{Phase, TurnDriver, TurnReport, TurnState};
    use rand::Rng;

    /// A turn pid 0 took: the view it scanned and what it did.
    pub(crate) type Recorded<P> = (
        Vec<<P as TurnProcess>::Msg>,
        TurnStep<<P as TurnProcess>::Msg, <P as TurnProcess>::Out>,
    );

    /// Runs `procs` under a seeded random schedule until pid 0 decides or
    /// has taken `max` turns; returns those turns and pid 0's process.
    pub(crate) fn recorded_turns<P: TurnProcess>(
        mut procs: Vec<P>,
        seed: u64,
        max: usize,
    ) -> (Vec<Recorded<P>>, P)
    where
        P::Out: Clone,
    {
        let shared = procs.iter_mut().map(|p| p.initial_msg()).collect();
        let mut run = TurnState::new(procs, shared);
        let mut rng = bprc_sim::rng::stream_rng(seed, 0);
        let mut turns = Vec::new();
        while turns.len() < max && !matches!(run.phases[0], Phase::Done) {
            let active: Vec<usize> = (0..run.procs.len())
                .filter(|&p| !matches!(run.phases[p], Phase::Done))
                .collect();
            let pid = active[rng.gen_range(0..active.len())];
            let view =
                (pid == 0 && matches!(run.phases[0], Phase::Scan)).then(|| run.shared.clone());
            run.step(pid);
            if let Some(view) = view {
                let step = match &run.phases[0] {
                    Phase::Write(m) => TurnStep::Write(m.clone()),
                    _ => TurnStep::Decide(run.outputs[0].clone().expect("pid 0 decided")),
                };
                turns.push((view, step));
            }
        }
        (turns, run.procs.swap_remove(0))
    }

    /// Equal through every accessor: what [`BoundedCore::rejoin`] promises.
    pub(crate) fn assert_same_core(a: &BoundedCore, b: &BoundedCore) {
        assert_eq!(a.pid(), b.pid());
        assert_eq!(a.state(), b.state());
        assert_eq!(a.parts(), b.parts());
        assert_eq!(a.graph(), b.graph());
        assert_eq!(a.leaders(), b.leaders());
        assert_eq!(format!("{:?}", a.stats()), format!("{:?}", b.stats()));
        assert_eq!(format!("{:?}", a.flips), format!("{:?}", b.flips));
        assert_eq!(format!("{:?}", a.params()), format!("{:?}", b.params()));
    }

    #[test]
    fn rejoin_equals_a_fresh_joiner() {
        let n = 4;
        let params = ConsensusParams::quick(n);
        let joiner = |p: usize| {
            BoundedCore::joiner(
                params.clone(),
                p,
                p.is_multiple_of(2),
                Flips::fair(40 + p as u64),
            )
        };
        // A core well into another instance, its scan cache sized and moved.
        let cores = (0..n)
            .map(|p| BoundedCore::new(params.clone(), p, p % 2 == 1, 7 + p as u64))
            .collect();
        let (_, mut used) = recorded_turns(cores, 5, 60);
        assert!(used.stats().rounds >= 3, "{:?}", used.stats());
        assert_eq!(used.graph().n(), n);

        // Instances of fresh joiners under eight schedules; before each,
        // `used` rejoins from wherever the last one left it.
        let mut replayed = 0;
        for seed in 0..8 {
            let (turns, _) = recorded_turns((0..n).map(joiner).collect(), seed, 1000);
            used.rejoin(true, Flips::fair(40));
            let mut fresh = joiner(0);
            assert_same_core(&used, &fresh);
            assert_eq!(fresh.graph().n(), 0);
            assert!(fresh.leaders().is_empty());
            for (t, (view, step)) in turns.iter().enumerate() {
                assert_eq!(used.on_view(view), *step, "seed {seed}, turn {t}");
                assert_eq!(fresh.on_view(view), *step, "seed {seed}, turn {t}");
            }
            replayed += turns.len();
        }
        assert!(replayed >= 200, "only {replayed} turns replayed");
    }

    fn run_instance(n: usize, inputs: &[bool], seed: u64, max_events: u64) -> TurnReport<bool> {
        let params = ConsensusParams::quick(n);
        let procs: Vec<BoundedCore> = (0..n)
            .map(|p| BoundedCore::new(params.clone(), p, inputs[p], seed * 1000 + p as u64))
            .collect();
        TurnDriver::new(procs).run(&mut RandomStrategy::new(seed), max_events)
    }

    #[test]
    fn single_process_decides_own_value() {
        for v in [false, true] {
            let r = run_instance(1, &[v], 1, 1_000);
            assert!(r.completed);
            assert_eq!(r.outputs[0], Some(v));
        }
    }

    #[test]
    fn unanimous_inputs_decide_that_value_fast() {
        for n in [2, 3, 5] {
            for v in [false, true] {
                for seed in 0..10 {
                    let r = run_instance(n, &vec![v; n], seed, 100_000);
                    assert!(r.completed, "n={n} seed={seed} did not complete");
                    assert!(
                        r.outputs.iter().all(|o| *o == Some(v)),
                        "n={n} seed={seed}: validity violated: {:?}",
                        r.outputs
                    );
                }
            }
        }
    }

    #[test]
    fn mixed_inputs_reach_agreement() {
        for n in [2, 3, 4, 5] {
            for seed in 0..20 {
                let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
                let r = run_instance(n, &inputs, seed, 3_000_000);
                assert!(r.completed, "n={n} seed={seed}: did not terminate");
                let d = r.distinct_outputs();
                assert_eq!(
                    d.len(),
                    1,
                    "n={n} seed={seed}: agreement violated: {:?}",
                    r.outputs
                );
            }
        }
    }

    #[test]
    fn decision_is_someone_elses_input_when_mixed() {
        // With binary inputs and both present, any decision is trivially
        // some process's input — this documents (non-)triviality.
        let r = run_instance(4, &[true, false, true, false], 9, 3_000_000);
        assert!(r.completed);
        let v = r.outputs[0].unwrap();
        assert!([true, false].contains(&v));
    }

    #[test]
    fn round_robin_schedule_terminates() {
        let inputs = [true, false, true];
        let params = ConsensusParams::quick(3);
        let procs: Vec<BoundedCore> = (0..3)
            .map(|p| BoundedCore::new(params.clone(), p, inputs[p], p as u64))
            .collect();
        let r = TurnDriver::new(procs).run(&mut RoundRobin::new(), 3_000_000);
        assert!(r.completed);
        assert_eq!(r.distinct_outputs().len(), 1);
    }

    #[test]
    fn survivors_decide_despite_crashes() {
        use bprc_sim::sched::{Decision, FnStrategy, Strategy};
        use bprc_sim::turn::TurnView;
        for seed in 0..10 {
            let n = 4;
            let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
            let params = ConsensusParams::quick(n);
            let procs: Vec<BoundedCore> = (0..n)
                .map(|p| BoundedCore::new(params.clone(), p, inputs[p], seed * 7 + p as u64))
                .collect();
            // Crash processes 0 and 1 early; schedule the rest randomly.
            let mut inner = RandomStrategy::new(seed);
            let mut adversary = FnStrategy::new(move |view: &TurnView<'_, ProcState>| {
                if view.step == 5 && !view.crashed[0] && view.runnable.contains(&0) {
                    return Decision::Crash(0);
                }
                if view.step == 11 && !view.crashed[1] && view.runnable.contains(&1) {
                    return Decision::Crash(1);
                }
                inner.decide(view)
            });
            let r = TurnDriver::new(procs).run(&mut adversary, 3_000_000);
            assert!(r.completed, "seed {seed}: survivors must terminate");
            let survivors: Vec<bool> = (2..n).map(|p| r.outputs[p].unwrap()).collect();
            assert!(
                survivors.windows(2).all(|w| w[0] == w[1]),
                "seed {seed}: survivor agreement violated"
            );
        }
    }

    #[test]
    fn stats_accumulate() {
        let params = ConsensusParams::quick(2);
        let mut a = BoundedCore::new(params.clone(), 0, true, 1);
        let b = BoundedCore::new(params, 1, false, 2);
        let view = vec![a.state(), b.state()];
        let _ = a.on_view(&view);
        assert_eq!(a.stats().scans, 1);
        assert!(a.stats().rounds >= 1, "initial inc counts");
    }

    #[test]
    #[should_panic(expected = "K >= 2")]
    fn k1_is_rejected() {
        let _ = ConsensusParams::with_k(2, 1, CoinParams::new(2, 1, 10));
    }

    #[test]
    fn turn_report_carries_protocol_telemetry() {
        use bprc_sim::{Counter, Gauge};
        let r = run_instance(3, &[true, false, true], 5, 3_000_000);
        assert!(r.completed);
        let t = &r.telemetry;
        // Driver-side counters: every process scanned and decided.
        assert!(t.total(Counter::Scans) >= 3);
        assert_eq!(t.total(Counter::Decisions), 3);
        // Core-side counters, published at finish: at least the initial
        // round advance per process, and scans never exceed driver scans.
        assert!(t.total(Counter::RoundAdvances) >= 3);
        assert!(t.total(Counter::StripIncs) > 0, "incs drive the strip");
        // The round gauge reflects each core's final probe.
        for pid in 0..3 {
            assert!(
                t.gauge(pid, Gauge::Round).unwrap_or(0) >= 1,
                "decided process must show a positive round"
            );
        }
    }
}
