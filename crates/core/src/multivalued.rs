//! Multivalued consensus — the extension the paper mentions ("the protocol
//! can be extended to handle arbitrary initial values").
//!
//! The classic bit-by-bit reduction: processes agree on a `width`-bit value
//! by running one binary bounded-consensus instance per bit position, low
//! bit first. Each process proposes, at level `L`, bit `L` of its current
//! *candidate*; when level `L` decides a bit that contradicts the
//! candidate, the process adopts (from the published registers) some
//! candidate whose low bits match the decided prefix — one always exists,
//! because a bit can only be decided if some prefix-compatible participant
//! proposed it (the binary protocol's validity, plus the fact that the
//! shared coin is only consulted after genuine disagreement).
//!
//! Every process's register holds its candidate plus one bounded
//! [`ProcState`] per level it has reached — at most `width` of them, so the
//! construction stays bounded.
//!
//! A level's binary core is reset in place ([`BoundedCore::rejoin`]) when
//! the process moves on, and an [`MvCore`] the same way
//! ([`MvCore::restart`]) when a multi-shot log moves to its next slot.
//!
//! The register's levels live in one buffer shared copy-on-write
//! ([`MvState`]). A core keeps two: the one its register shows, and the
//! one its register handed back when it was overwritten
//! ([`TurnProcess::recycle`]), which it writes its next level into once
//! nobody else holds it — so after its first write a core allocates no
//! level buffer, not even to open a level.
//!
//! Processes may be levels apart: a participant that has not reached level
//! `L` appears there as a phantom (round-0, ⊥) state, which the binary
//! protocol already tolerates — it is just a process that has not taken a
//! step yet.

use std::sync::Arc;

use bprc_sim::turn::{TurnProcess, TurnStep};

use crate::bounded::{BoundedCore, ConsensusParams, CoreStats};
use crate::state::{ProcRef, ProcState, RegisterLayout};

/// Register contents of one multivalued-consensus process: its candidate
/// and its binary-instance states for levels `0..=current` (one per level
/// joined; bounded by the width), packed back to back in one buffer at the
/// layout's fixed stride, after a word that counts them.
///
/// The buffer is shared copy-on-write: a clone shares it, and the process
/// that owns the state writes a level in place only while no clone — a
/// register, a port's view — still holds the buffer. Otherwise it writes
/// into the buffer of a state its register handed back, when nobody else
/// holds that one either ([`TurnProcess::recycle`]), and only failing both
/// copies the words into a new buffer. An [`MvCore`]'s buffers have room
/// for every level of its width, so opening a level moves no buffer. A
/// state nobody writes any more (a slot of a multi-shot log that the
/// replica has moved past) costs a copy of one pointer. `==`, `Hash` and
/// `Debug` read the contents: the candidate, the layout and the joined
/// levels' words.
pub struct MvState {
    candidate: u64,
    layout: RegisterLayout,
    /// Empty for a phantom. Otherwise the number of levels joined, their
    /// words, and room for later levels, unread.
    words: Arc<[u64]>,
}

impl MvState {
    /// The register of a process that has not joined the instance: no
    /// levels (and no allocation).
    pub fn phantom(layout: RegisterLayout) -> Self {
        MvState {
            candidate: 0,
            layout,
            words: Arc::default(),
        }
    }

    /// The first write of a process proposing `candidate`, whose level-0
    /// binary instance starts at `level0`, in a buffer with room for `room`
    /// levels.
    fn with_room(candidate: u64, level0: ProcRef<'_>, room: usize) -> Self {
        let first = level0.words();
        let zeros = std::iter::repeat_n(0, first.len() * (room - 1));
        MvState {
            candidate,
            layout: *level0.layout(),
            words: std::iter::once(1)
                .chain(first.iter().copied())
                .chain(zeros)
                .collect(),
        }
    }

    /// The process's current candidate value.
    pub fn candidate(&self) -> u64 {
        self.candidate
    }

    /// Levels joined so far.
    pub fn level_count(&self) -> usize {
        self.words.first().map_or(0, |&levels| levels as usize)
    }

    /// The joined levels' words.
    fn joined(&self) -> &[u64] {
        match self.words.split_first() {
            Some((&levels, words)) => &words[..levels as usize * self.layout.words()],
            None => &[],
        }
    }

    /// The binary-instance state at `level`, if the process has joined it.
    #[inline]
    pub fn level(&self, level: usize) -> Option<ProcRef<'_>> {
        let stride = self.layout.words();
        let words = self.joined().get(level * stride..(level + 1) * stride)?;
        Some(ProcRef::new(&self.layout, words))
    }

    /// The joined levels' states, level 0 first.
    pub fn levels(&self) -> impl ExactSizeIterator<Item = ProcRef<'_>> {
        self.joined()
            .chunks_exact(self.layout.words())
            .map(|words| ProcRef::new(&self.layout, words))
    }

    /// Writes the words of `level` with `write`, opening the level if it
    /// is the next one, in a buffer no clone shares: this state's own if
    /// nobody else holds it and it has room; else `spare`'s, on the same
    /// terms; else a new one — either with the joined levels copied in. An
    /// opened level's words are `write`'s to fill.
    fn write_level(
        &mut self,
        level: usize,
        spare: &mut Spare<MvState>,
        write: impl FnOnce(&mut [u64]),
    ) {
        let stride = self.layout.words();
        let levels = self.level_count().max(level + 1);
        let need = 1 + levels * stride;
        let fill = |words: &mut [u64]| {
            words[0] = levels as u64;
            write(&mut words[1 + level * stride..1 + (level + 1) * stride]);
        };
        if let Some(words) = room(&mut self.words, need) {
            return fill(words);
        }
        let spare = spare.0.take().and_then(|MvState { mut words, .. }| {
            room(&mut words, need).is_some().then_some(words)
        });
        let mut words =
            spare.unwrap_or_else(|| std::iter::repeat_n(0, need.max(self.words.len())).collect());
        let writable = Arc::get_mut(&mut words).expect("unshared");
        // The count and the joined levels (nothing, for a phantom).
        let kept = self.words.len().min(1 + self.level_count() * stride);
        writable[..kept].copy_from_slice(&self.words[..kept]);
        fill(writable);
        self.words = words;
    }
}

/// `words` to write, if nobody else holds them and they number at least
/// `need`. The reference count is a cheap first look; `Arc::get_mut`
/// decides.
fn room(words: &mut Arc<[u64]>, need: usize) -> Option<&mut [u64]> {
    if Arc::strong_count(words) != 1 {
        return None;
    }
    Arc::get_mut(words).filter(|words| words.len() >= need)
}

impl PartialEq for MvState {
    fn eq(&self, other: &Self) -> bool {
        self.candidate == other.candidate
            && self.layout == other.layout
            && self.joined() == other.joined()
    }
}

impl Eq for MvState {}

impl std::hash::Hash for MvState {
    /// The fields in declaration order, the words as the joined slice: the
    /// hash a derived impl gave when the buffer held exactly the joined
    /// levels.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.candidate.hash(state);
        self.layout.hash(state);
        self.joined().hash(state);
    }
}

impl std::fmt::Debug for MvState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MvState")
            .field("candidate", &self.candidate)
            .field("levels", &self.levels().collect::<Vec<_>>())
            .finish()
    }
}

impl Clone for MvState {
    /// Shares the buffer: no allocation.
    fn clone(&self) -> Self {
        MvState {
            candidate: self.candidate,
            layout: self.layout,
            words: Arc::clone(&self.words),
        }
    }

    /// Shares `source`'s buffer; when `self` already holds it, a pointer
    /// compare and nothing more. Two states that share a buffer with
    /// levels in it are equal: the owner writes levels only into a buffer
    /// nobody else holds, and changes its candidate only on a turn that
    /// goes on to write a level, which puts its state in such a buffer.
    fn clone_from(&mut self, source: &Self) {
        if Arc::ptr_eq(&self.words, &source.words) && !self.words.is_empty() {
            debug_assert!(self == source, "states sharing a buffer differ");
            return;
        }
        *self = source.clone();
    }
}

/// A register value handed back to the process that wrote it
/// ([`TurnProcess::recycle`]), kept to publish the next value into. A
/// clone of its holder starts without one: the model checker clones cores
/// per child, and the child's registers may still share the value.
#[derive(Debug)]
pub(crate) struct Spare<T>(pub(crate) Option<T>);

impl<T> Clone for Spare<T> {
    fn clone(&self) -> Self {
        Spare(None)
    }
}

/// How the per-level binary cores obtain their local coin flips.
#[derive(Debug, Clone)]
enum FlipMode {
    /// Fair flips derived from a master seed per level.
    Seeded(u64),
    /// Externally loaded outcomes ([`bprc_coin::Flips::Queue`]) — for the
    /// model checker.
    Queue,
}

/// One process of the multivalued protocol.
#[derive(Debug, Clone)]
pub struct MvCore {
    params: ConsensusParams,
    width: u32,
    flip_mode: FlipMode,
    level: usize,
    decided_bits: u64,
    inner: BoundedCore,
    /// Stats folded forward from inner cores retired at level advances.
    retired: CoreStats,
    state: MvState,
    /// A state my register handed back, to write the next level into.
    spare: Spare<MvState>,
    /// What a peer that has not joined my level reads as.
    phantom: ProcState,
}

impl MvCore {
    /// Creates the process proposing `value` (only the low `width` bits are
    /// used).
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds 64, or `pid` is out of range.
    pub fn new(params: ConsensusParams, pid: usize, value: u64, width: u32, seed: u64) -> Self {
        Self::with_mode(params, pid, value, width, FlipMode::Seeded(seed))
    }

    /// Creates the process with queue-fed local flips (for the model
    /// checker — see [`crate::modelcheck`]).
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds 64, or `pid` is out of range.
    pub fn with_queue_flips(params: ConsensusParams, pid: usize, value: u64, width: u32) -> Self {
        Self::with_mode(params, pid, value, width, FlipMode::Queue)
    }

    /// The core's buffers, allocated once, put through
    /// [`reset`](Self::reset).
    fn with_mode(
        params: ConsensusParams,
        pid: usize,
        value: u64,
        width: u32,
        flip_mode: FlipMode,
    ) -> Self {
        assert!((1..=64).contains(&width), "width must be in 1..=64");
        assert!(pid < params.n(), "pid out of range");
        let layout = params.layout();
        let inner = BoundedCore::joiner(params.clone(), pid, false, bprc_coin::Flips::queue());
        let mut core = MvCore {
            phantom: ProcState::phantom(layout),
            params,
            width,
            flip_mode,
            level: 0,
            decided_bits: 0,
            inner,
            retired: CoreStats::default(),
            state: MvState::phantom(layout),
            spare: Spare(None),
        };
        core.reset(value);
        core
    }

    /// Returns this core, whatever it has done, to the state
    /// [`new`](Self::new) builds with the same parameters, pid and width
    /// and with `value` and `seed`, keeping the binary core's buffers. A
    /// queue-fed core stays queue-fed and ignores `seed`. The register's
    /// levels start over in a new buffer: the old one may still be shared.
    /// A handed-back state is kept: its buffer has room for this width, so
    /// the next level write can take it.
    pub fn restart(&mut self, value: u64, seed: u64) {
        if let FlipMode::Seeded(s) = &mut self.flip_mode {
            *s = seed;
        }
        self.reset(value);
    }

    /// Level 0 of a proposal of `value` (only the low `width` bits).
    fn reset(&mut self, value: u64) {
        let value = if self.width == 64 {
            value
        } else {
            value & ((1u64 << self.width) - 1)
        };
        self.level = 0;
        self.decided_bits = 0;
        self.retired = CoreStats::default();
        self.inner.rejoin(value & 1 == 1, self.level_flips(0));
        let room = self.width as usize;
        self.state = MvState::with_room(value, self.inner.state().fields(), room);
    }

    /// Protocol stats summed across all levels this process has worked on
    /// (retired inner cores plus the live one).
    pub fn cumulative_stats(&self) -> CoreStats {
        let mut s = self.retired;
        s.absorb(&self.inner.stats());
        s
    }

    /// The local flips of `level`'s binary core. Participants reach a level
    /// at different times (and, through the multi-shot log, even level 0 of
    /// later slots), so every inner core is a late *joiner*
    /// ([`BoundedCore::rejoin`]): its first inc is computed from its first
    /// scan rather than from the paper's assumed-all-zero initial memory.
    fn level_flips(&self, level: usize) -> bprc_coin::Flips {
        match self.flip_mode {
            FlipMode::Seeded(seed) => {
                bprc_coin::Flips::fair(bprc_sim::rng::derive_seed(seed, level as u64))
            }
            FlipMode::Queue => bprc_coin::Flips::queue(),
        }
    }

    /// Access to the current level's binary core (the model checker feeds
    /// flip outcomes through it).
    pub fn inner_core_mut(&mut self) -> &mut BoundedCore {
        &mut self.inner
    }

    /// Immutable access to the current level's binary core.
    pub fn inner_core(&self) -> &BoundedCore {
        &self.inner
    }

    /// The level (bit position) this process is currently deciding.
    pub fn level(&self) -> usize {
        self.level
    }

    /// The register value this process last published (its candidate plus
    /// its per-level states).
    pub fn current_msg(&self) -> &MvState {
        &self.state
    }

    fn bit(value: u64, level: usize) -> bool {
        (value >> level) & 1 == 1
    }

    /// Does `candidate` match the decided prefix through `level` bits?
    fn matches_prefix(&self, candidate: u64, through: usize) -> bool {
        if through == 0 {
            return true;
        }
        let mask = if through >= 64 {
            u64::MAX
        } else {
            (1u64 << through) - 1
        };
        (candidate ^ self.decided_bits) & mask == 0
    }

    /// One turn over registers borrowed wherever they lie: `peer(j)` is
    /// process `j`'s. `Write(())` leaves the register to publish in
    /// [`current_msg`](Self::current_msg).
    pub(crate) fn turn<'a>(&mut self, peer: impl Fn(usize) -> &'a MvState) -> TurnStep<(), u64> {
        // Project the view down to the current level's binary instance;
        // processes that have not joined this level appear as phantoms.
        let (level, phantom) = (self.level, self.phantom.fields());
        match self.inner.turn(|j| peer(j).level(level).unwrap_or(phantom)) {
            TurnStep::Write(()) => {}
            TurnStep::Decide(bit) => {
                if bit {
                    self.decided_bits |= 1 << self.level;
                }
                let mut candidate = self.state.candidate;
                if Self::bit(candidate, self.level) != bit {
                    // Adopt a published prefix-compatible candidate
                    // (deterministically the smallest). Registers of joined
                    // processes only — phantoms have no levels.
                    candidate = (0..self.params.n())
                        .map(&peer)
                        .filter(|s| s.level_count() > 0)
                        .map(|s| s.candidate)
                        .filter(|&c| self.matches_prefix(c, self.level + 1))
                        .min()
                        .expect("a prefix-compatible candidate must exist (binary validity)");
                }
                self.level += 1;
                if self.level as u32 == self.width {
                    // The state stays as published: a register that shares
                    // its buffer must stay equal to it.
                    return TurnStep::Decide(candidate);
                }
                self.state.candidate = candidate;
                self.retired.absorb(&self.inner.stats());
                let flips = self.level_flips(self.level);
                self.inner
                    .rejoin(Self::bit(self.state.candidate, self.level), flips);
            }
        }
        let inner = &self.inner;
        self.state
            .write_level(self.level, &mut self.spare, |words| {
                inner.copy_state_into(words)
            });
        TurnStep::Write(())
    }
}

impl TurnProcess for MvCore {
    type Msg = MvState;
    type Out = u64;

    fn initial_msg(&mut self) -> MvState {
        self.state.clone()
    }

    fn on_scan(&mut self, view: &[MvState]) -> TurnStep<MvState, u64> {
        match self.turn(|j| &view[j]) {
            TurnStep::Write(()) => TurnStep::Write(self.state.clone()),
            TurnStep::Decide(v) => TurnStep::Decide(v),
        }
    }

    fn recycle(&mut self, displaced: MvState) {
        self.spare.0 = Some(displaced);
    }

    fn probe(&self) -> bprc_sim::turn::TurnProbe {
        let s = self.cumulative_stats();
        bprc_sim::turn::TurnProbe {
            round: Some(s.rounds),
            coin_flips: s.coin_flips,
            register_bits: 0,
        }
    }

    fn publish_telemetry(&self, m: &bprc_sim::ProcMetrics<'_>) {
        self.cumulative_stats().publish(m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bprc_sim::sched::{RandomStrategy, RoundRobin};
    use bprc_sim::turn::TurnDriver;

    fn run(values: &[u64], width: u32, seed: u64) -> bprc_sim::turn::TurnReport<u64> {
        let n = values.len();
        let params = ConsensusParams::quick(n);
        let procs: Vec<MvCore> = (0..n)
            .map(|p| MvCore::new(params.clone(), p, values[p], width, seed * 97 + p as u64))
            .collect();
        TurnDriver::new(procs).run(&mut RandomStrategy::new(seed), 20_000_000)
    }

    #[test]
    fn unanimous_value_is_decided() {
        let r = run(&[42, 42, 42], 8, 1);
        assert!(r.completed);
        assert!(r.outputs.iter().all(|o| *o == Some(42)));
    }

    #[test]
    fn agreement_and_validity_mixed_values() {
        for seed in 0..8 {
            let values = [13u64, 200, 13];
            let r = run(&values, 8, seed);
            assert!(r.completed, "seed {seed}");
            let d = r.distinct_outputs();
            assert_eq!(d.len(), 1, "seed {seed}: {:?}", r.outputs);
            assert!(
                values.contains(d[0]),
                "seed {seed}: decided {} not among proposals",
                d[0]
            );
        }
    }

    #[test]
    fn two_processes_wide_values() {
        for seed in 0..5 {
            let values = [0xDEAD_BEEFu64, 0xCAFE_F00D];
            let r = run(&values, 32, seed);
            assert!(r.completed, "seed {seed}");
            let d = r.distinct_outputs();
            assert_eq!(d.len(), 1, "seed {seed}");
            assert!(values.contains(d[0]), "seed {seed}");
        }
    }

    #[test]
    fn round_robin_terminates() {
        let values = [7u64, 9];
        let params = ConsensusParams::quick(2);
        let procs: Vec<MvCore> = (0..2)
            .map(|p| MvCore::new(params.clone(), p, values[p], 4, p as u64))
            .collect();
        let r = TurnDriver::new(procs).run(&mut RoundRobin::new(), 20_000_000);
        assert!(r.completed);
        let d = r.distinct_outputs();
        assert!(values.contains(d[0]));
    }

    #[test]
    fn width_masks_high_bits() {
        let r = run(&[0xFF, 0xFF], 4, 2);
        assert!(r.completed);
        assert!(r.outputs.iter().all(|o| *o == Some(0xF)));
    }

    #[test]
    fn restart_equals_a_fresh_core() {
        use crate::bounded::tests::{assert_same_core, recorded_turns};
        let (n, width) = (3, 4);
        let params = ConsensusParams::quick(n);
        let fresh =
            |p: usize| MvCore::new(params.clone(), p, [0x35, 10, 3][p], width, 60 + p as u64);
        // A core that has decided an instance: every level worked, a wider
        // register, other flips.
        let cores = (0..n)
            .map(|p| MvCore::new(params.clone(), p, [9, 6, 12][p], width, 11 + p as u64))
            .collect();
        let (_, mut used) = recorded_turns(cores, 2, 100_000);
        assert_eq!(used.level(), width as usize, "the instance decided");
        assert!(used.cumulative_stats().rounds >= 3);

        // Instances of fresh cores under eight schedules; before each, `used`
        // restarts from wherever the last one left it.
        let mut replayed = 0;
        for seed in 0..8 {
            let (turns, _) = recorded_turns((0..n).map(fresh).collect(), seed, 100_000);
            used.restart(0x35, 60);
            let mut fresh = fresh(0);
            assert_eq!(used.level(), fresh.level());
            assert_eq!(used.current_msg(), fresh.current_msg());
            assert_eq!(used.current_msg().level_count(), 1);
            assert_same_core(used.inner_core(), fresh.inner_core());
            let stats = |c: &MvCore| format!("{:?}", c.cumulative_stats());
            assert_eq!(stats(&used), stats(&fresh));
            for (t, (view, step)) in turns.iter().enumerate() {
                assert_eq!(used.on_scan(view), *step, "seed {seed}, turn {t}");
                assert_eq!(fresh.on_scan(view), *step, "seed {seed}, turn {t}");
            }
            replayed += turns.len();
        }
        assert!(replayed >= 200, "only {replayed} turns replayed");
    }

    #[test]
    fn a_clone_keeps_its_words_across_a_level_write() {
        let layout = ConsensusParams::quick(2).layout();
        let level0 = ProcState::phantom(layout);
        let mut state = MvState::with_room(5, level0.fields(), 1);
        let words = |s: &MvState| {
            s.levels()
                .flat_map(|l| l.words().to_vec())
                .collect::<Vec<_>>()
        };

        // Writing a level the clone shares copies it first.
        let before = state.clone();
        state.write_level(0, &mut Spare(None), |w| w[0] = 7);
        assert_eq!(words(&before), vec![0; layout.words()]);
        assert_eq!(state.level(0).unwrap().words()[0], 7);

        // So does opening a level; the clone keeps one.
        let before = state.clone();
        state.write_level(1, &mut Spare(None), |w| w[0] = 9);
        assert_eq!((before.level_count(), state.level_count()), (1, 2));
        assert_eq!(words(&before)[0], 7);
        assert_eq!(words(&state)[layout.words()], 9);

        // `clone_from` shares the buffer again; equal contents compare equal.
        let mut copy = MvState::phantom(layout);
        copy.clone_from(&state);
        assert_eq!(copy, state);
        assert!(Arc::ptr_eq(&copy.words, &state.words));
    }

    #[test]
    fn a_level_write_takes_a_spare_only_when_nobody_else_holds_it() {
        let layout = ConsensusParams::quick(2).layout();
        let level0 = ProcState::phantom(layout);
        let mut state = MvState::with_room(5, level0.fields(), 3);
        state.write_level(0, &mut Spare(None), |w| w[0] = 7);
        let published = state.clone();

        // A spare a view still shares is not written: a new buffer is.
        let mut spare = Spare(None);
        let view = MvState::with_room(1, level0.fields(), 3);
        spare.0 = Some(view.clone());
        state.write_level(1, &mut spare, |w| w[0] = 9);
        assert!(!Arc::ptr_eq(&state.words, &view.words));
        assert!(!Arc::ptr_eq(&state.words, &published.words));
        assert_eq!(view.level(0).unwrap().words()[0], 0);

        // An unshared spare with room takes the joined levels and the new
        // one, and the state it replaced is left to its other holders.
        let published = state.clone();
        let free = MvState::with_room(1, level0.fields(), 3);
        let buffer = Arc::as_ptr(&free.words);
        spare.0 = Some(free);
        state.write_level(2, &mut spare, |w| w[0] = 11);
        assert_eq!(Arc::as_ptr(&state.words), buffer);
        assert_eq!(published.level_count(), 2);
        assert_eq!(state.level_count(), 3);
        assert_eq!(state.level(1), published.level(1));
        assert_eq!(state.level(2).unwrap().words()[0], 11);
        assert!(spare.0.is_none());

        // A buffer nobody shares is written in place, and the spare kept.
        spare.0 = Some(published);
        state.write_level(2, &mut spare, |w| w[0] = 12);
        assert_eq!(Arc::as_ptr(&state.words), buffer);
        assert!(spare.0.is_some());

        // The room past the joined levels is not part of the contents.
        let a = MvState::with_room(5, level0.fields(), 1);
        let mut b = MvState::with_room(5, level0.fields(), 3);
        Arc::get_mut(&mut b.words).unwrap()[1 + layout.words()..].fill(u64::MAX);
        assert_eq!(a, b);
        let hash = |s: &MvState| {
            use std::hash::{DefaultHasher, Hash, Hasher};
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));

        // A clone of a spare's holder starts without one.
        spare.0 = Some(a);
        assert!(spare.clone().0.is_none());
    }
}
