//! Linearizable shared registers.
//!
//! [`Reg<T>`] models the atomic read/write register of the paper's model.
//! The paper's algorithms deliberately use **no read-modify-write
//! operations** — consensus is impossible deterministically in this model
//! precisely because registers only support reads and writes, and the
//! bounded-polynomial stack lives within that interface. The one RMW this
//! crate *does* expose, [`Reg::swap`], exists for the protocol arena's
//! successor algorithms (swap has consensus number 2); it is a separate
//! [`OpKind`] in the history, so checkers can tell at a glance whether a
//! protocol stayed inside the paper's model.
//!
//! # Backings
//!
//! A register handle hides one of four backings, and which one is a pure
//! function of what the allocator is handed — there is no world-level
//! switch, because every backing is a linearizable cell and so a faithful
//! model of the paper's one primitive:
//!
//! | allocator | backing |
//! |---|---|
//! | [`World::reg`] | **Lock**, for any `T: Clone` |
//! | [`World::fast_reg`] | **Seq** iff `T::WORDS ≤` [`MAX_FAST_WORDS`], else Lock |
//! | [`World::fast_reg_dyn`] | **Seq** iff `1 ≤ init.dyn_words() ≤` [`MAX_FAST_WORDS_DYN`], else Lock |
//! | [`World::bit_reg`] | **Bit**, always |
//! | [`World::value_slab`] | a real slab iff `1 ≤ lane_words ≤` [`MAX_FAST_WORDS_DYN`], else inert |
//! | [`World::lane_reg`] / [`World::lane_reg_dyn`] | **Lane** iff the slab is real, its stride equals the packed width and the lane exists; else as `fast_reg` / `fast_reg_dyn` |
//!
//! * **Lock** — a `parking_lot::RwLock<T>` cell. The wide-payload fallback,
//!   the only backing whose [`Reg::swap`] is a true exchange on free
//!   threads, and the oracle the equivalence tests compare the others
//!   against.
//! * **Seq** — a *seqlock*: the payload packed into a small array of
//!   `AtomicU64` words guarded by an even/odd version word. Readers are
//!   lock-free (optimistic read, retry if the version moved); writers
//!   acquire the odd state with a CAS, so two writers on one cell stay
//!   atomic.
//! * **Bit** — a single boolean packed into one bit of a shared cache-line
//!   chunk of atomic words ([`BIT_CHUNK_BITS`] = 512 booleans per line).
//!   Raise/lower are `fetch_or`/`fetch_and` RMWs, so two writers on the
//!   same bit — the paper's arrow registers — stay atomic, and neighbours
//!   packed into the same word can never tear each other.
//! * **Lane** — a seqlock lane inside a shared slab: all `n` version words
//!   live in one contiguous array (and all payload words in another), so a
//!   collect pass that only has to *check* versions walks ⌈n/8⌉ cache lines
//!   instead of `n` scattered cells. Same even/odd protocol as **Seq**, per
//!   lane.
//!
//! Every backing sits *behind* the world's access gate, so scheduling,
//! telemetry counters and history recording are identical regardless of
//! backing — it only changes how the granted access touches memory, never
//! when it happens or how it is counted. In lockstep mode the gate
//! serializes every access, so the seqlock never even retries there; it
//! earns its keep in [`Mode::Free`](crate::world::Mode::Free), where the
//! OS interleaves accesses for real.
//!
//! The seqlock is written in safe Rust (this crate is
//! `#![forbid(unsafe_code)]`): the payload words are themselves atomics, so
//! a torn *word* is impossible by construction, and the version check
//! rejects any read window that overlapped a write — a reader can never
//! observe a mix of two writes' words.
//!
//! [`World::reg`]: crate::world::World::reg
//! [`World::fast_reg`]: crate::world::World::fast_reg
//! [`World::fast_reg_dyn`]: crate::world::World::fast_reg_dyn
//! [`World::bit_reg`]: crate::world::World::bit_reg
//! [`World::value_slab`]: crate::world::World::value_slab
//! [`World::lane_reg`]: crate::world::World::lane_reg
//! [`World::lane_reg_dyn`]: crate::world::World::lane_reg_dyn

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::error::Halted;
use crate::history::{OpKind, RegId};
use crate::metrics::Counter;
use crate::weakmem::BufferedStore;
use crate::world::{Ctx, WorldInner};

/// Widest payload (in 64-bit words) the seqlock cell accepts; wider
/// [`FastPod`] types fall back to the locked backing.
pub const MAX_FAST_WORDS: usize = 4;

/// Widest *runtime-sized* payload (in 64-bit words) the dynamic seqlock
/// path ([`FastDyn`]) accepts; wider values fall back to the locked
/// backing. Larger than [`MAX_FAST_WORDS`] because the dynamic path exists
/// precisely for payloads whose width depends on run parameters (the
/// wait-free snapshot's embedded views grow with the process count `n`).
pub const MAX_FAST_WORDS_DYN: usize = 64;

/// Version token returned by [`Reg::read_changed`] when the backing has no
/// seqlock version word (locked and bit cells). It is odd, so it can never
/// equal a published (even) seqlock version: passing it back as the cached
/// token always re-runs the closure, which is exactly the fail-safe
/// behaviour those backings need.
pub const NO_VERSION: u64 = u64::MAX;

/// Atomic words per bit chunk — one 64-byte cache line.
const BIT_CHUNK_WORDS: usize = 8;

/// Single-bit registers packed per `BitChunk`: 8 words × 64 bits.
pub const BIT_CHUNK_BITS: usize = BIT_CHUNK_WORDS * 64;

/// Plain-old-data payloads that can ride a seqlock cell.
///
/// A `FastPod` value packs into a fixed number of 64-bit words and unpacks
/// losslessly: `unpack(pack(v)) == v`. Implementations must be pure
/// (no interior mutability, no heap indirection) — the seqlock stores the
/// words themselves, so anything behind a pointer would defeat atomicity.
pub trait FastPod: Clone + Send + Sync + 'static {
    /// How many 64-bit words [`FastPod::pack`] fills.
    const WORDS: usize;

    /// Serializes `self` into exactly [`FastPod::WORDS`] words.
    fn pack(&self, out: &mut [u64]);

    /// Reconstructs a value from words produced by [`FastPod::pack`].
    fn unpack(words: &[u64]) -> Self;
}

/// Payloads whose packed width is only known at *runtime* but fixed per
/// register — the dynamic cousin of [`FastPod`].
///
/// The seqlock cell sizes its word array from the **initial** value, so
/// every value subsequently written to the same register must report the
/// same [`dyn_words`](FastDyn::dyn_words). (The wait-free snapshot's slots
/// satisfy this by construction: the embedded view always has exactly `n`
/// entries.) Widths above [`MAX_FAST_WORDS_DYN`] fall back to the locked
/// backing transparently.
///
/// There is deliberately **no** blanket `FastPod → FastDyn` impl: it would
/// forbid downstream crates from implementing `FastDyn` for their own slot
/// types (coherence disallows the overlap), and those runtime-width slots
/// are the whole point of this trait.
pub trait FastDyn: Clone + Send + Sync + 'static {
    /// How many 64-bit words [`pack_dyn`](FastDyn::pack_dyn) fills for
    /// *this* value. Must be identical for every value written to a given
    /// register.
    fn dyn_words(&self) -> usize;

    /// Serializes `self` into exactly [`dyn_words`](FastDyn::dyn_words)
    /// words.
    fn pack_dyn(&self, out: &mut [u64]);

    /// Reconstructs a value from words produced by
    /// [`pack_dyn`](FastDyn::pack_dyn).
    fn unpack_dyn(words: &[u64]) -> Self;
}

/// A fixed-length `Vec<u64>` is the simplest runtime-width payload: one
/// header word for the length, then the elements. (The length header keeps
/// `unpack_dyn` total even though the register's width already implies it.)
impl FastDyn for Vec<u64> {
    fn dyn_words(&self) -> usize {
        1 + self.len()
    }
    fn pack_dyn(&self, out: &mut [u64]) {
        out[0] = self.len() as u64;
        out[1..=self.len()].copy_from_slice(self);
    }
    fn unpack_dyn(words: &[u64]) -> Self {
        let len = words[0] as usize;
        words[1..=len].to_vec()
    }
}

macro_rules! fast_pod_int {
    ($($t:ty),*) => {$(
        impl FastPod for $t {
            const WORDS: usize = 1;
            fn pack(&self, out: &mut [u64]) {
                out[0] = *self as u64;
            }
            fn unpack(words: &[u64]) -> Self {
                words[0] as $t
            }
        }
    )*};
}

fast_pod_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

impl FastPod for bool {
    const WORDS: usize = 1;
    fn pack(&self, out: &mut [u64]) {
        out[0] = u64::from(*self);
    }
    fn unpack(words: &[u64]) -> Self {
        words[0] != 0
    }
}

impl FastPod for (u64, u64) {
    const WORDS: usize = 2;
    fn pack(&self, out: &mut [u64]) {
        out[0] = self.0;
        out[1] = self.1;
    }
    fn unpack(words: &[u64]) -> Self {
        (words[0], words[1])
    }
}

impl FastPod for (u64, u64, u64) {
    const WORDS: usize = 3;
    fn pack(&self, out: &mut [u64]) {
        out[0] = self.0;
        out[1] = self.1;
        out[2] = self.2;
    }
    fn unpack(words: &[u64]) -> Self {
        (words[0], words[1], words[2])
    }
}

/// The seqlock cell: an even/odd version word guarding a small array of
/// atomic payload words. See the module docs for the memory-ordering
/// argument; the pack/unpack function pointers are captured at construction
/// so the cell stays usable through the type-erased [`Backing`] enum.
struct SeqCell<T> {
    version: AtomicU64,
    words: Box<[AtomicU64]>,
    pack: fn(&T, &mut [u64]),
    unpack: fn(&[u64]) -> T,
}

impl<T: FastPod> SeqCell<T> {
    fn new(init: &T) -> Self {
        debug_assert!(T::WORDS >= 1 && T::WORDS <= MAX_FAST_WORDS);
        let mut buf = [0u64; MAX_FAST_WORDS];
        init.pack(&mut buf[..T::WORDS]);
        SeqCell {
            version: AtomicU64::new(0),
            words: buf[..T::WORDS].iter().map(|&w| AtomicU64::new(w)).collect(),
            pack: T::pack,
            unpack: T::unpack,
        }
    }
}

impl<T: FastDyn> SeqCell<T> {
    /// Builds a cell whose word count comes from the initial value's
    /// [`FastDyn::dyn_words`] instead of a compile-time constant. The
    /// load/store machinery is shared with the const-width path — the cell
    /// already type-erases packing into function pointers.
    fn new_dyn(init: &T) -> Self {
        let w = init.dyn_words();
        debug_assert!(w >= 1 && w <= MAX_FAST_WORDS_DYN);
        let mut buf = [0u64; MAX_FAST_WORDS_DYN];
        init.pack_dyn(&mut buf[..w]);
        SeqCell {
            version: AtomicU64::new(0),
            words: buf[..w].iter().map(|&b| AtomicU64::new(b)).collect(),
            pack: T::pack_dyn,
            unpack: T::unpack_dyn,
        }
    }
}

/// The seqlock read protocol over any (version word, payload words) pair —
/// shared by [`SeqCell`] (own words) and [`LaneCell`] (a lane of a shared
/// slab). Optimistic lock-free read: snapshot the version (must be even),
/// read the payload words, fence, re-check the version. A concurrent writer
/// moves the version, so a stable even version brackets a quiescent window
/// and the words form one consistent write. Returns the validated version.
#[inline]
fn seq_load_words(version: &AtomicU64, words: &[AtomicU64], buf: &mut [u64]) -> u64 {
    loop {
        let v1 = version.load(Ordering::Acquire);
        if v1 & 1 == 1 {
            std::hint::spin_loop();
            continue;
        }
        for (b, w) in buf.iter_mut().zip(words.iter()) {
            *b = w.load(Ordering::Relaxed);
        }
        // Orders the word loads before the version re-read; pairs with
        // the writer's Release store of the even version.
        fence(Ordering::Acquire);
        if version.load(Ordering::Relaxed) == v1 {
            return v1;
        }
        std::hint::spin_loop();
    }
}

/// The seqlock write protocol (shared like [`seq_load_words`]): CAS the
/// version even→odd (serializes concurrent writers — the paper's arrow
/// registers have two), store the words, publish the next even version with
/// Release.
#[inline]
fn seq_store_words(version: &AtomicU64, words: &[AtomicU64], buf: &[u64]) {
    let mut v = version.load(Ordering::Relaxed);
    loop {
        if v & 1 == 1 {
            std::hint::spin_loop();
            v = version.load(Ordering::Relaxed);
            continue;
        }
        match version.compare_exchange_weak(v, v + 1, Ordering::Acquire, Ordering::Relaxed) {
            Ok(_) => break,
            Err(cur) => v = cur,
        }
    }
    for (b, w) in buf.iter().zip(words.iter()) {
        w.store(*b, Ordering::Relaxed);
    }
    version.store(v + 2, Ordering::Release);
}

/// Version-token read: if the current version still equals `cached`, no
/// write has been published since the read that produced `cached` (the
/// writer's even→odd CAS is a globally visible RMW, so "version unchanged"
/// proves no write even *began* publishing) — the payload words are
/// provably identical to what that read returned and are not touched at
/// all. Otherwise this is [`seq_load_words`]. Returns `(version, loaded)`;
/// `loaded == false` means `buf` was left alone.
#[inline]
fn seq_load_words_changed(
    version: &AtomicU64,
    words: &[AtomicU64],
    cached: u64,
    buf: &mut [u64],
) -> (u64, bool) {
    let v = version.load(Ordering::Acquire);
    if v == cached && v & 1 == 0 {
        return (v, false);
    }
    (seq_load_words(version, words, buf), true)
}

impl<T> SeqCell<T> {
    fn load(&self) -> T {
        let mut buf = [0u64; MAX_FAST_WORDS_DYN];
        seq_load_words(&self.version, &self.words, &mut buf[..self.words.len()]);
        (self.unpack)(&buf[..self.words.len()])
    }

    fn store(&self, value: &T) {
        let mut buf = [0u64; MAX_FAST_WORDS_DYN];
        (self.pack)(value, &mut buf[..self.words.len()]);
        seq_store_words(&self.version, &self.words, &buf[..self.words.len()]);
    }

    /// See [`seq_load_words_changed`]: skips unpacking (and `f`) entirely
    /// when the version token proves the register unchanged.
    fn load_if_changed(&self, cached: u64, f: impl FnOnce(&T)) -> u64 {
        let mut buf = [0u64; MAX_FAST_WORDS_DYN];
        let (v, loaded) = seq_load_words_changed(
            &self.version,
            &self.words,
            cached,
            &mut buf[..self.words.len()],
        );
        if loaded {
            f(&(self.unpack)(&buf[..self.words.len()]));
        }
        v
    }
}

/// One cache line of packed single-bit registers: 8 atomic words = 512
/// booleans. All mutation is RMW (`fetch_or` to set, `fetch_and` to clear),
/// so bits sharing a word never tear each other and even a *two-writer* bit
/// (the paper's arrow registers: writer raises, scanner lowers) stays
/// atomic without a version word.
#[repr(align(64))]
pub(crate) struct BitChunk {
    words: [AtomicU64; BIT_CHUNK_WORDS],
}

impl BitChunk {
    pub(crate) fn new() -> Self {
        BitChunk {
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// One bit of a shared [`BitChunk`]. The `to_bit`/`from_bit` function
/// pointers exist only so the type-erased [`Backing`] enum stays generic;
/// in practice `T = bool` and both are the identity.
struct BitCell<T> {
    chunk: Arc<BitChunk>,
    word: usize,
    mask: u64,
    to_bit: fn(&T) -> bool,
    from_bit: fn(bool) -> T,
}

impl BitCell<bool> {
    fn new(chunk: Arc<BitChunk>, bit: usize, init: bool) -> Self {
        let cell = BitCell {
            chunk,
            word: bit / 64,
            mask: 1u64 << (bit % 64),
            to_bit: |b: &bool| *b,
            from_bit: |b| b,
        };
        cell.set(init);
        cell
    }
}

impl<T> BitCell<T> {
    #[inline]
    fn get(&self) -> bool {
        self.chunk.words[self.word].load(Ordering::SeqCst) & self.mask != 0
    }

    #[inline]
    fn set(&self, bit: bool) {
        let w = &self.chunk.words[self.word];
        if bit {
            w.fetch_or(self.mask, Ordering::SeqCst);
        } else {
            w.fetch_and(!self.mask, Ordering::SeqCst);
        }
    }
}

/// A contiguous slab of seqlock lanes: every lane's version word lives in
/// one shared array (`versions`), every lane's payload words in another
/// (`words`, stride `lane_words`). A collect pass whose buffered copies are
/// still valid therefore touches only ⌈lanes/8⌉ version cache lines — the
/// payload arrays stay cold. Allocated by
/// [`World::value_slab`](crate::world::World::value_slab).
pub(crate) struct LaneSlab {
    lane_words: usize,
    versions: Box<[AtomicU64]>,
    words: Box<[AtomicU64]>,
}

impl LaneSlab {
    pub(crate) fn new(lanes: usize, lane_words: usize) -> Self {
        assert!(lanes >= 1 && lane_words >= 1);
        LaneSlab {
            lane_words,
            versions: (0..lanes).map(|_| AtomicU64::new(0)).collect(),
            words: (0..lanes * lane_words).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    pub(crate) fn lane_words(&self) -> usize {
        self.lane_words
    }

    pub(crate) fn lanes(&self) -> usize {
        self.versions.len()
    }

    #[inline]
    fn parts(&self, lane: usize) -> (&AtomicU64, &[AtomicU64]) {
        let lo = lane * self.lane_words;
        (&self.versions[lane], &self.words[lo..lo + self.lane_words])
    }
}

/// One lane of a [`LaneSlab`] — the seqlock protocol of [`SeqCell`], with
/// the version and payload words held in the slab's shared arrays.
struct LaneCell<T> {
    slab: Arc<LaneSlab>,
    lane: usize,
    pack: fn(&T, &mut [u64]),
    unpack: fn(&[u64]) -> T,
}

impl<T> LaneCell<T> {
    fn load(&self) -> T {
        let (version, words) = self.slab.parts(self.lane);
        let mut buf = [0u64; MAX_FAST_WORDS_DYN];
        seq_load_words(version, words, &mut buf[..words.len()]);
        (self.unpack)(&buf[..words.len()])
    }

    fn store(&self, value: &T) {
        let (version, words) = self.slab.parts(self.lane);
        let mut buf = [0u64; MAX_FAST_WORDS_DYN];
        (self.pack)(value, &mut buf[..words.len()]);
        seq_store_words(version, words, &buf[..words.len()]);
    }

    fn load_if_changed(&self, cached: u64, f: impl FnOnce(&T)) -> u64 {
        let (version, words) = self.slab.parts(self.lane);
        let mut buf = [0u64; MAX_FAST_WORDS_DYN];
        let (v, loaded) = seq_load_words_changed(version, words, cached, &mut buf[..words.len()]);
        if loaded {
            f(&(self.unpack)(&buf[..words.len()]));
        }
        v
    }
}

/// A register's storage: the locked cell (any `T`), a seqlock cell (small
/// [`FastPod`] / [`FastDyn`] payloads), one bit of a shared [`BitChunk`], or
/// a lane of a shared [`LaneSlab`].
enum Backing<T> {
    Lock(RwLock<T>),
    Seq(SeqCell<T>),
    Bit(BitCell<T>),
    Lane(LaneCell<T>),
}

impl<T: Clone> Backing<T> {
    #[inline]
    fn load(&self) -> T {
        match self {
            Backing::Lock(l) => l.read().clone(),
            Backing::Seq(s) => s.load(),
            Backing::Bit(b) => (b.from_bit)(b.get()),
            Backing::Lane(c) => c.load(),
        }
    }

    #[inline]
    fn store(&self, value: T) {
        match self {
            Backing::Lock(l) => *l.write() = value,
            Backing::Seq(s) => s.store(&value),
            Backing::Bit(b) => b.set((b.to_bit)(&value)),
            Backing::Lane(c) => c.store(&value),
        }
    }

    /// Applies `f` to the current value without handing out an owned clone
    /// (the locked cell maps under the read guard; the lock-free backings
    /// materialize the small payload on the stack).
    #[inline]
    fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        match self {
            Backing::Lock(l) => f(&l.read()),
            Backing::Seq(s) => f(&s.load()),
            Backing::Bit(b) => f(&(b.from_bit)(b.get())),
            Backing::Lane(c) => f(&c.load()),
        }
    }

    /// Version-token read (see [`Reg::read_changed`]): seqlock backings skip
    /// `f` — without even touching the payload words — when the version
    /// still equals `cached`; the locked and bit backings have no version
    /// word, always run `f`, and return [`NO_VERSION`].
    #[inline]
    fn with_changed(&self, cached: u64, f: impl FnOnce(&T)) -> u64 {
        match self {
            Backing::Lock(l) => {
                f(&l.read());
                NO_VERSION
            }
            Backing::Seq(s) => s.load_if_changed(cached, f),
            Backing::Bit(b) => {
                f(&(b.from_bit)(b.get()));
                NO_VERSION
            }
            Backing::Lane(c) => c.load_if_changed(cached, f),
        }
    }

    /// Exchanges the stored value, returning the previous one. The locked
    /// cell is a true atomic exchange (`mem::replace` under the write
    /// lock) in both world modes; the lock-free backings load-then-store,
    /// which is atomic only under the lockstep gate — [`Reg::swap`] refuses
    /// them on free threads.
    #[inline]
    fn swap_value(&self, value: T) -> T {
        match self {
            Backing::Lock(l) => std::mem::replace(&mut *l.write(), value),
            other => {
                let prev = other.load();
                other.store(value);
                prev
            }
        }
    }
}

/// A linearizable multi-reader register allocated from a
/// [`World`](crate::world::World).
///
/// Every [`read`](Reg::read) and [`write`](Reg::write) counts as one
/// scheduled step; in lockstep mode the scheduler decides when it happens.
/// Clone the handle to share the register between process bodies.
///
/// Single-writer (SWMR) discipline is a *protocol* property, not enforced
/// here — the [`bprc-registers`](../../registers) crate layers it on top.
pub struct Reg<T> {
    id: RegId,
    cell: Arc<Backing<T>>,
    world: Arc<WorldInner>,
}

impl<T> Clone for Reg<T> {
    fn clone(&self) -> Self {
        Reg {
            id: self.id,
            cell: Arc::clone(&self.cell),
            world: Arc::clone(&self.world),
        }
    }
}

impl<T> std::fmt::Debug for Reg<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reg").field("id", &self.id).finish()
    }
}

impl<T: Clone + Send + Sync + 'static> Reg<T> {
    pub(crate) fn new(id: RegId, init: T, world: Arc<WorldInner>) -> Self {
        Reg {
            id,
            cell: Arc::new(Backing::Lock(RwLock::new(init))),
            world,
        }
    }

    /// This register's id within its world.
    pub fn id(&self) -> RegId {
        self.id
    }

    /// Whether this register rides a lock-free backing (seqlock cell,
    /// packed bit, or slab lane) rather than the `RwLock` cell.
    pub fn is_fast(&self) -> bool {
        !matches!(*self.cell, Backing::Lock(_))
    }

    /// Whether this register is one bit of a packed `BitChunk`.
    pub fn is_bit(&self) -> bool {
        matches!(*self.cell, Backing::Bit(_))
    }

    /// Whether this register is a lane of a shared [`World::value_slab`]
    /// (contiguous version words).
    ///
    /// [`World::value_slab`]: crate::world::World::value_slab
    pub fn is_lane(&self) -> bool {
        matches!(*self.cell, Backing::Lane(_))
    }

    /// Atomically reads the register (one scheduled step).
    ///
    /// # Errors
    ///
    /// Returns [`Halted`] if the scheduler stopped this process.
    #[inline]
    pub fn read(&self, ctx: &mut Ctx) -> Result<T, Halted> {
        let cell = &*self.cell;
        if ctx.inner().weak_buffering() {
            let (pid, id) = (ctx.pid(), self.id);
            // Store-to-load forwarding: this process's newest buffered
            // write to the register wins over shared memory.
            return ctx.inner().access_central(pid, OpKind::Read, id, 0, |c| {
                match c.forwarded::<T>(pid, id) {
                    Some(v) => v.clone(),
                    None => cell.load(),
                }
            });
        }
        ctx.access(OpKind::Read, self.id, 0, || cell.load())
    }

    /// Atomically reads the register and maps the value under the access —
    /// one scheduled step, identical history/telemetry footprint to
    /// [`read`](Reg::read), but `f` borrows the stored value, so callers
    /// that only need to *inspect* (or conditionally clone) skip the
    /// unconditional clone. This is what makes the snapshot layer's
    /// buffer-reuse collects allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`Halted`] if the scheduler stopped this process.
    #[inline]
    pub fn read_with<R>(&self, ctx: &mut Ctx, f: impl FnOnce(&T) -> R) -> Result<R, Halted> {
        let cell = &*self.cell;
        if ctx.inner().weak_buffering() {
            let (pid, id) = (ctx.pid(), self.id);
            return ctx.inner().access_central(pid, OpKind::Read, id, 0, |c| {
                match c.forwarded::<T>(pid, id) {
                    Some(v) => f(v),
                    None => cell.with(f),
                }
            });
        }
        ctx.access(OpKind::Read, self.id, 0, || cell.with(f))
    }

    /// Atomically reads the register with a *version token*: one scheduled
    /// step, identical history/telemetry footprint to
    /// [`read_with`](Reg::read_with), but when the caller already holds a
    /// copy validated at token `cached` and the register provably has not
    /// been written since, `f` is **skipped entirely** — the payload words
    /// are not even loaded. Returns the new token to cache.
    ///
    /// Soundness: on the seqlock backings the token is the cell's even/odd
    /// version word. A writer's first publishing act is an atomic even→odd
    /// CAS on that word, so observing `version == cached` (Acquire) proves
    /// no write began publishing after the read that produced `cached` —
    /// the skip linearizes as an ordinary optimistic read that won the
    /// race. Backings without a version word (locked, bit) always run `f`
    /// and return [`NO_VERSION`], which never matches.
    ///
    /// The snapshot layer's batched collect validation is built on this:
    /// with the value registers on a [`World::value_slab`], a steady
    /// collect walks only the slab's contiguous version array.
    ///
    /// [`World::value_slab`]: crate::world::World::value_slab
    ///
    /// # Errors
    ///
    /// Returns [`Halted`] if the scheduler stopped this process.
    #[inline]
    pub fn read_changed(
        &self,
        ctx: &mut Ctx,
        cached: u64,
        f: impl FnOnce(&T),
    ) -> Result<u64, Halted> {
        let cell = &*self.cell;
        if ctx.inner().weak_buffering() {
            let (pid, id) = (ctx.pid(), self.id);
            // A forwarded value has no backing version yet (the write is
            // still buffered), so the caller can never cache it: run `f`
            // unconditionally and hand back NO_VERSION.
            return ctx.inner().access_central(pid, OpKind::Read, id, 0, |c| {
                match c.forwarded::<T>(pid, id) {
                    Some(v) => {
                        f(v);
                        NO_VERSION
                    }
                    None => cell.with_changed(cached, f),
                }
            });
        }
        ctx.access(OpKind::Read, self.id, 0, || cell.with_changed(cached, f))
    }

    /// Atomically writes the register (one scheduled step).
    ///
    /// # Errors
    ///
    /// Returns [`Halted`] if the scheduler stopped this process.
    #[inline]
    pub fn write(&self, ctx: &mut Ctx, value: T) -> Result<(), Halted> {
        self.write_tagged(ctx, value, 0)
    }

    /// Like [`write`](Reg::write) but records `tag` in the history.
    ///
    /// Tags are invisible to the algorithms; offline checkers use them as
    /// hidden sequence numbers.
    ///
    /// # Errors
    ///
    /// Returns [`Halted`] if the scheduler stopped this process.
    #[inline]
    pub fn write_tagged(&self, ctx: &mut Ctx, value: T, tag: u64) -> Result<(), Halted> {
        let cell = &*self.cell;
        if ctx.inner().weak_buffering() {
            let (pid, id) = (ctx.pid(), self.id);
            // The write parks in the process's store buffer: globally
            // invisible until a Flush decision, a fence, or the end-of-run
            // drain lands it. `value` is kept twice — a forwarding copy
            // for this process's own later reads, and the move captured by
            // the deferred `apply` closure that hits the backing.
            let fwd = value.clone();
            let backing = Arc::clone(&self.cell);
            let res = ctx
                .inner()
                .access_central(pid, OpKind::Write, id, tag, move |c| {
                    c.buffer_store(
                        pid,
                        BufferedStore {
                            reg: id,
                            tag,
                            value: Box::new(fwd),
                            apply: Box::new(move || backing.store(value)),
                        },
                    );
                });
            if res.is_ok() {
                ctx.count(Counter::StoresBuffered, 1);
            }
            return res;
        }
        ctx.access(OpKind::Write, self.id, tag, || cell.store(value))
    }

    /// Atomically exchanges the register's value, returning the previous
    /// one — a single scheduled step ([`OpKind::Swap`]), counted as **both**
    /// a read and a write in telemetry (the parity checkers apply the same
    /// rule), and recorded as a `RegWrite` flight event.
    ///
    /// Swap is a read-modify-write primitive (consensus number 2) and so
    /// lives *outside* the paper's read/write model; it exists for the
    /// protocol arena's swap-based consensus entrants (Ovens,
    /// arXiv 2305.06507). Under the weak-memory and regular-register
    /// planes a granted swap first lands the caller's own buffered stores
    /// (an RMW drains the store buffer on every modeled architecture),
    /// then exchanges against shared memory — never against the buffer.
    ///
    /// # Errors
    ///
    /// Returns [`Halted`] if the scheduler stopped this process.
    ///
    /// # Panics
    ///
    /// On the lock-free backings (seqlock/bit/lane) the exchange is
    /// load-then-store, atomic only because the lockstep gate serializes
    /// the whole access, so it panics there in
    /// [`Mode::Free`](crate::world::Mode::Free) rather than silently lose
    /// exchanges: allocate swap registers with [`World::reg`] (locked
    /// backing), where the exchange is a true `mem::replace` under the
    /// write lock.
    ///
    /// [`World::reg`]: crate::world::World::reg
    #[inline]
    pub fn swap(&self, ctx: &mut Ctx, value: T) -> Result<T, Halted> {
        assert!(
            !self.is_fast() || !ctx.inner().is_free(),
            "Reg::swap on a lock-free backing is load-then-store, atomic only under the \
             lockstep gate; in Mode::Free allocate swap registers with World::reg"
        );
        let cell = Arc::clone(&self.cell);
        if ctx.inner().weak_buffering() {
            let (pid, id) = (ctx.pid(), self.id);
            let inner = Arc::clone(ctx.inner());
            return ctx
                .inner()
                .access_central(pid, OpKind::Swap, id, 0, move |c| {
                    inner.drain_own_buffer(c, pid);
                    cell.swap_value(value)
                });
        }
        ctx.access(OpKind::Swap, self.id, 0, move || cell.swap_value(value))
    }

    /// Reads the register **without scheduling** — for adversary strategies,
    /// offline checkers and test setup only. Never call this from a process
    /// body: it would be a side channel outside the model.
    pub fn peek(&self) -> T {
        self.cell.load()
    }

    /// Writes the register **without scheduling** — for test setup only.
    pub fn poke(&self, value: T) {
        self.cell.store(value)
    }
}

impl<T: FastPod + Clone + Send + Sync + 'static> Reg<T> {
    /// Allocates a seqlock cell when the payload fits [`MAX_FAST_WORDS`];
    /// falls back to the locked backing otherwise. Called via
    /// [`World::fast_reg`](crate::world::World::fast_reg).
    pub(crate) fn new_fast(id: RegId, init: T, world: Arc<WorldInner>) -> Self {
        let cell = if T::WORDS <= MAX_FAST_WORDS {
            Backing::Seq(SeqCell::new(&init))
        } else {
            Backing::Lock(RwLock::new(init))
        };
        Reg {
            id,
            cell: Arc::new(cell),
            world,
        }
    }
}

impl Reg<bool> {
    /// Allocates one bit of `chunk` (bit index `bit`, chunk-relative).
    /// Called via [`World::bit_reg`](crate::world::World::bit_reg).
    pub(crate) fn new_bit(
        id: RegId,
        init: bool,
        world: Arc<WorldInner>,
        chunk: Arc<BitChunk>,
        bit: usize,
    ) -> Self {
        debug_assert!(bit < BIT_CHUNK_BITS);
        Reg {
            id,
            cell: Arc::new(Backing::Bit(BitCell::new(chunk, bit, init))),
            world,
        }
    }
}

impl<T: FastPod + Clone + Send + Sync + 'static> Reg<T> {
    /// Allocates lane `lane` of `slab` (whose stride must equal
    /// `T::WORDS`). Called via
    /// [`World::lane_reg`](crate::world::World::lane_reg).
    pub(crate) fn new_lane(
        id: RegId,
        init: T,
        world: Arc<WorldInner>,
        slab: Arc<LaneSlab>,
        lane: usize,
    ) -> Self {
        debug_assert_eq!(slab.lane_words(), T::WORDS);
        let cell = LaneCell {
            slab,
            lane,
            pack: T::pack,
            unpack: T::unpack,
        };
        cell.store(&init);
        Reg {
            id,
            cell: Arc::new(Backing::Lane(cell)),
            world,
        }
    }
}

impl<T: FastDyn> Reg<T> {
    /// The runtime-width counterpart of [`new_lane`](Reg::new_lane): the
    /// slab stride must equal the initial value's [`FastDyn::dyn_words`].
    /// Called via [`World::lane_reg_dyn`](crate::world::World::lane_reg_dyn).
    pub(crate) fn new_lane_dyn(
        id: RegId,
        init: T,
        world: Arc<WorldInner>,
        slab: Arc<LaneSlab>,
        lane: usize,
    ) -> Self {
        debug_assert_eq!(slab.lane_words(), init.dyn_words());
        let cell = LaneCell {
            slab,
            lane,
            pack: T::pack_dyn,
            unpack: T::unpack_dyn,
        };
        cell.store(&init);
        Reg {
            id,
            cell: Arc::new(Backing::Lane(cell)),
            world,
        }
    }

    /// The runtime-width counterpart of [`new_fast`](Reg::new_fast): takes
    /// the seqlock backing when the initial value's [`FastDyn::dyn_words`]
    /// fits [`MAX_FAST_WORDS_DYN`], the locked backing otherwise. Called
    /// via [`World::fast_reg_dyn`](crate::world::World::fast_reg_dyn).
    pub(crate) fn new_fast_dyn(id: RegId, init: T, world: Arc<WorldInner>) -> Self {
        let w = init.dyn_words();
        let cell = if (1..=MAX_FAST_WORDS_DYN).contains(&w) {
            Backing::Seq(SeqCell::new_dyn(&init))
        } else {
            Backing::Lock(RwLock::new(init))
        };
        Reg {
            id,
            cell: Arc::new(cell),
            world,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::RoundRobin;
    use crate::world::{Mode, ProcBody, World};

    #[test]
    fn peek_poke_do_not_consume_steps() {
        let mut w = World::builder(1).build();
        let r = w.reg("r", 10u32);
        assert_eq!(r.peek(), 10);
        r.poke(20);
        assert_eq!(r.peek(), 20);
        let r2 = r.clone();
        let bodies: Vec<ProcBody<u32>> = vec![Box::new(move |ctx| r2.read(ctx))];
        let rep = w.run(bodies, Box::new(RoundRobin::new()));
        assert_eq!(rep.outputs[0], Some(20));
        assert_eq!(rep.steps, 1);
    }

    #[test]
    fn clone_shares_the_cell() {
        let w = World::builder(1).mode(Mode::Free).build();
        let r = w.reg("r", 0u8);
        let r2 = r.clone();
        r.poke(7);
        assert_eq!(r2.peek(), 7);
        assert_eq!(r.id(), r2.id());
    }

    #[test]
    fn registers_get_distinct_ids() {
        let w = World::builder(1).build();
        let a = w.reg("a", 0u8);
        let b = w.reg("b", 0u8);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn fast_pod_round_trips() {
        fn rt<T: FastPod + PartialEq + std::fmt::Debug>(v: T) {
            let mut buf = [0u64; MAX_FAST_WORDS];
            v.pack(&mut buf[..T::WORDS]);
            assert_eq!(T::unpack(&buf[..T::WORDS]), v);
        }
        rt(true);
        rt(false);
        rt(0xABu8);
        rt(0xDEAD_BEEFu32);
        rt(u64::MAX);
        rt(usize::MAX);
        rt(-7i64);
        rt((3u64, u64::MAX));
        rt((1u64, 2, 3));
    }

    #[test]
    fn fast_reg_reads_and_writes_like_locked() {
        let mut w = World::builder(1).build();
        let r = w.fast_reg("fast", 5u64);
        assert!(r.is_fast());
        assert_eq!(r.peek(), 5);
        r.poke(9);
        let r2 = r.clone();
        let bodies: Vec<ProcBody<u64>> = vec![Box::new(move |ctx| {
            let seen = r2.read(ctx)?;
            r2.write(ctx, seen + 1)?;
            r2.read(ctx)
        })];
        let rep = w.run(bodies, Box::new(RoundRobin::new()));
        assert_eq!(rep.outputs[0], Some(10));
        assert_eq!(rep.steps, 3, "seqlock-cell ops are scheduled steps too");
    }

    /// The allocator → backing table of the module docs, row by row.
    #[test]
    fn backing_follows_what_the_allocator_is_handed() {
        #[derive(Clone)]
        struct Wide([u64; 5]);
        impl FastPod for Wide {
            const WORDS: usize = 5;
            fn pack(&self, out: &mut [u64]) {
                out.copy_from_slice(&self.0);
            }
            fn unpack(words: &[u64]) -> Self {
                Wide(words.try_into().unwrap())
            }
        }
        let w = World::builder(1).build();
        // `reg` is the locked cell even for a payload that would fit.
        assert!(!w.reg("r", 0u64).is_fast());
        let f = w.fast_reg("f", (1u64, 2u64, 3u64));
        assert!(f.is_fast() && !f.is_bit() && !f.is_lane());
        let wide = w.fast_reg("wide", Wide([7; 5]));
        assert!(!wide.is_fast(), "5 words > MAX_FAST_WORDS");
        assert_eq!(wide.peek().0, [7; 5]);
        // Vec<u64> packs to 1 + len words.
        assert!(w.fast_reg_dyn("d64", vec![0u64; 63]).is_fast());
        assert!(!w.fast_reg_dyn("d65", vec![0u64; 64]).is_fast());
        let b = w.bit_reg("b", true);
        assert!(b.is_bit() && b.is_fast() && b.peek());

        let slab = w.value_slab(2, 2);
        assert!(slab.is_packed());
        assert!(w.lane_reg(&slab, 1, "l", (0u64, 0u64)).is_lane());
        let mismatched = w.lane_reg(&slab, 0, "m", 0u64);
        assert!(!mismatched.is_lane() && mismatched.is_fast());
        let past_the_end = w.lane_reg(&slab, 2, "p", (0u64, 0u64));
        assert!(!past_the_end.is_lane() && past_the_end.is_fast());
        let dyn_slab = w.value_slab(1, 3);
        assert!(w.lane_reg_dyn(&dyn_slab, 0, "dl", vec![0u64; 2]).is_lane());
        assert!(!w.lane_reg_dyn(&dyn_slab, 0, "dm", vec![0u64; 3]).is_lane());

        let oversize = w.value_slab(1, MAX_FAST_WORDS_DYN + 1);
        assert!(!oversize.is_packed());
        let inert = w.lane_reg_dyn(&oversize, 0, "x", vec![0u64; MAX_FAST_WORDS_DYN]);
        assert!(!inert.is_lane() && !inert.is_fast(), "65 words: locked");
        assert!(!w.value_slab(1, 0).is_packed());
    }

    /// `World::run` contains the body's panic; the test resurfaces it.
    #[test]
    #[should_panic(expected = "World::reg")]
    fn swap_on_a_lock_free_backing_panics_in_free_mode() {
        let mut w = World::builder(1).mode(Mode::Free).build();
        let r = w.fast_reg("r", 0u64);
        let bodies: Vec<ProcBody<u64>> = vec![Box::new(move |ctx| r.swap(ctx, 1))];
        let rep = w.run(bodies, Box::new(RoundRobin::new()));
        assert_eq!(rep.outputs[0], None);
        panic!("{}", rep.panics[0].as_deref().expect("swap must refuse"));
    }

    #[test]
    fn swap_on_the_locked_cell_is_a_true_exchange_in_free_mode() {
        // Two threads swap distinct values into one register as fast as
        // they can. An atomic exchange hands every value out exactly once:
        // the initial 0 and all but the last value stored come back from
        // some swap, and the last one is what the register holds.
        const PER_THREAD: u64 = 20_000;
        let mut w = World::builder(2)
            .mode(Mode::Free)
            .step_limit(u64::MAX)
            .build();
        let r = w.reg("r", 0u64);
        let bodies: Vec<ProcBody<Vec<u64>>> = (0..2u64)
            .map(|t| {
                let r = r.clone();
                let b: ProcBody<Vec<u64>> = Box::new(move |ctx| {
                    (1..=PER_THREAD)
                        .map(|k| r.swap(ctx, t * PER_THREAD + k))
                        .collect()
                });
                b
            })
            .collect();
        let rep = w.run(bodies, Box::new(RoundRobin::new()));
        let mut seen: Vec<u64> = rep.outputs.into_iter().flatten().flatten().collect();
        seen.push(r.peek());
        seen.sort_unstable();
        let want: Vec<u64> = (0..=2 * PER_THREAD).collect();
        assert_eq!(seen, want, "an exchange was lost or duplicated");
    }

    #[test]
    fn read_with_maps_without_cloning() {
        let mut w = World::builder(1).build();
        let r = w.reg("r", vec![1u32, 2, 3]);
        let r2 = r.clone();
        let bodies: Vec<ProcBody<usize>> =
            vec![Box::new(move |ctx| r2.read_with(ctx, |v| v.len()))];
        let rep = w.run(bodies, Box::new(RoundRobin::new()));
        assert_eq!(rep.outputs[0], Some(3));
        assert_eq!(rep.steps, 1, "read_with is one scheduled read");
    }

    #[test]
    fn raw_seqlock_torture_no_torn_pairs() {
        // Hammer the seqlock *outside* the scheduler (peek/poke bypass the
        // gate): two writer threads and two reader threads on one cell; the
        // pair invariant (b == 3a) must hold on every read, or the seqlock
        // leaked a torn value. Multi-writer exercises the CAS-odd path.
        let w = World::builder(1).mode(Mode::Free).build();
        let r = w.fast_reg("pair", (0u64, 0u64));
        assert!(r.is_fast());
        let mut handles = Vec::new();
        for t in 0..2u64 {
            let r = r.clone();
            handles.push(std::thread::spawn(move || {
                for k in 0..20_000u64 {
                    let a = k * 2 + t;
                    r.poke((a, a.wrapping_mul(3)));
                }
            }));
        }
        for _ in 0..2 {
            let r = r.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..20_000 {
                    let (a, b) = r.peek();
                    assert_eq!(b, a.wrapping_mul(3), "torn seqlock read: ({a}, {b})");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
