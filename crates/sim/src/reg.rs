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
//! A register handle holds one of three backings by value, and which one
//! is a pure function of what the allocator is handed — there is no
//! world-level switch, because every backing is a linearizable cell and so
//! a faithful model of the paper's one primitive:
//!
//! | allocator | backing |
//! |---|---|
//! | [`World::reg`] | **Lock**, for any `T: Clone` |
//! | [`World::fast_reg`] | **Lane** of a private one-lane slab iff `1 ≤ init.words() ≤` [`MAX_FAST_WORDS`], else Lock |
//! | [`World::bit_reg`] | **Bit**, always |
//! | [`World::value_slab`] + [`World::lane_reg`] | **Lane** of the shared slab iff its stride is in `1..=`[`MAX_FAST_WORDS`] and equals `init.words()`, and the lane exists; else as `fast_reg` |
//!
//! * **Lock** — a `parking_lot::RwLock<T>` cell plus an even version
//!   word behind one `Arc`, the only heap cell a register allocation
//!   makes. Every write bumps the version by 2 inside its critical
//!   section, so a [`Reg::read_changed`] whose cached token is current
//!   skips with one load and takes no lock. The wide-payload fallback, the
//!   only backing whose [`Reg::swap`] is a true exchange on free threads,
//!   and the oracle the equivalence tests compare the others against.
//! * **Bit** — a single boolean packed into one bit of a shared cache-line
//!   chunk of atomic words ([`BIT_CHUNK_BITS`] = 512 booleans per line).
//!   A write that changes the bit is a `fetch_or`/`fetch_and` RMW, so two
//!   writers on the same bit — the paper's arrow registers — stay atomic,
//!   and neighbours packed into the same word can never tear each other.
//!   A write that does not change it is one load: a write of the value
//!   the register already holds. That is sound because the snapshot's
//!   ordering comes from `Ctx::fence`, a real fence in free mode, not
//!   from its arrow writes being RMWs. The handle holds the chunk's
//!   `Arc`, the word and the mask: allocating a bit allocates nothing but
//!   a fresh chunk every 512 bits.
//! * **Lane** — a *seqlock*: the [`FastPod`] payload packed into `AtomicU64`
//!   words guarded by an even/odd version word. Readers are lock-free
//!   (optimistic read, retry if the version moved); writers acquire the odd
//!   state with a CAS, so two writers on one lane stay atomic. A slab keeps
//!   all its lanes' version words in one contiguous array (and all payload
//!   words in another), so a collect pass that only has to *check* versions
//!   walks ⌈n/8⌉ cache lines instead of `n` scattered cells; a `fast_reg`
//!   is simply a slab of one lane. The handle holds the slab's `Arc` and
//!   its lane index, so a [`World::lane_reg`] allocates nothing.
//!
//! A clone of a handle shares the cell: it clones the `Arc` it holds
//! (the locked cell, the chunk or the slab), never the value. Every access
//! reaches the memory through that one `Arc`, with no per-register heap
//! cell in between, and reaches the world's gate through the caller's
//! [`Ctx`]: a handle holds no reference to its world.
//!
//! Every backing sits *behind* the world's access gate: one gate per
//! access in lockstep, one per run of accesses in free mode (the run forms
//! of [`Reg`]). So scheduling, telemetry counters and history recording
//! are identical regardless of backing. A backing only changes how the
//! granted access touches memory, never when it happens or how it is
//! counted. In lockstep mode the gate serializes every access, so the
//! seqlock never even retries there; it earns its keep in
//! [`Mode::Free`](crate::world::Mode::Free), where the OS interleaves
//! accesses for real.
//!
//! The seqlock is written in safe Rust (this crate is
//! `#![forbid(unsafe_code)]`): the payload words are themselves atomics, so
//! a torn *word* is impossible by construction, and the version check
//! rejects any read window that overlapped a write — a reader can never
//! observe a mix of two writes' words.
//!
//! [`World::reg`]: crate::world::World::reg
//! [`World::fast_reg`]: crate::world::World::fast_reg
//! [`World::bit_reg`]: crate::world::World::bit_reg
//! [`World::value_slab`]: crate::world::World::value_slab
//! [`World::lane_reg`]: crate::world::World::lane_reg
//!
//! # Names
//!
//! A register's [`RegName`] is data: owned text, or a static prefix with
//! one or two indices and an optional static suffix (`V_3`, `A_0_1.flag`).
//! The world keeps the names and renders them only when
//! [`World::reg_names`] is called, so naming a register formats nothing.
//!
//! [`World::reg_names`]: crate::world::World::reg_names

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::error::Halted;
use crate::history::{OpKind, RegId};
use crate::metrics::Counter;
use crate::weakmem::BufferedStore;
use crate::world::Ctx;

/// Widest payload (in 64-bit words) a seqlock lane accepts; wider
/// [`FastPod`] values fall back to the locked backing. Eight words — one
/// cache line — hold every lane payload in use with room to spare: the
/// widest, a scannable-memory slot of a `u64`, packs into 3.
pub const MAX_FAST_WORDS: usize = 8;

/// Version token returned by [`Reg::read_changed`] when the backing has no
/// version word (bit cells), and the token a caller holds before its first
/// read. It is odd, so it can never equal a published (even) lane or
/// locked-cell version: passing it back as the cached token always re-runs
/// the closure, which is exactly the fail-safe behaviour the bit backing
/// needs.
pub const NO_VERSION: u64 = u64::MAX;

/// Atomic words per bit chunk — one 64-byte cache line.
const BIT_CHUNK_WORDS: usize = 8;

/// Single-bit registers packed per `BitChunk`: 8 words × 64 bits.
pub const BIT_CHUNK_BITS: usize = BIT_CHUNK_WORDS * 64;

/// A register's name, kept as data and rendered only when read.
///
/// Either owned text (any `&str` or `String` converts into one) or a
/// `&'static str` prefix followed by one or two indices and an optional
/// static suffix: [`RegName::indexed`]`("V_", 3)` renders `V_3`,
/// [`RegName::pair`]`("A_", 0, 1)` renders `A_0_1`, and
/// [`with_suffix`](RegName::with_suffix)`(".flag")` appends `.flag`.
/// Building an indexed name formats and allocates nothing, which is what
/// lets the scannable memory's n² arrows cost no `format!`.
///
/// [`Display`](std::fmt::Display) gives the name's text; compare names by
/// that text, since `"V_3"` and `RegName::indexed("V_", 3)` are held
/// differently.
///
/// ```
/// use bprc_sim::RegName;
///
/// assert_eq!(RegName::indexed("V_", 3).to_string(), "V_3");
/// assert_eq!(RegName::pair("A_", 0, 1).with_suffix(".ack").to_string(), "A_0_1.ack");
/// assert_eq!(RegName::from("ladder arrow").with_suffix(".flag").to_string(), "ladder arrow.flag");
/// ```
#[derive(Debug, Clone)]
pub struct RegName(Repr);

/// The second index of an indexed name that has only one.
const NO_INDEX: u32 = u32::MAX;

/// The indices are `u32`, which keeps a name at 40 bytes: a world holds
/// one per register, n² of them for the scannable memory.
#[derive(Debug, Clone)]
enum Repr {
    Text(Box<str>),
    Indexed {
        prefix: &'static str,
        i: u32,
        /// [`NO_INDEX`] for a name with one index.
        j: u32,
        suffix: &'static str,
    },
}

/// `i` as a name's index.
fn index(i: usize) -> u32 {
    u32::try_from(i)
        .ok()
        .filter(|&i| i != NO_INDEX)
        .expect("a register name's index must be below u32::MAX")
}

impl RegName {
    /// `prefix` followed by `i`.
    ///
    /// # Panics
    ///
    /// Panics unless `i < u32::MAX`.
    pub fn indexed(prefix: &'static str, i: usize) -> Self {
        RegName(Repr::Indexed {
            prefix,
            i: index(i),
            j: NO_INDEX,
            suffix: "",
        })
    }

    /// `prefix` followed by `i`, an underscore and `j`.
    ///
    /// # Panics
    ///
    /// Panics unless `i` and `j` are below `u32::MAX`.
    pub fn pair(prefix: &'static str, i: usize, j: usize) -> Self {
        RegName(Repr::Indexed {
            prefix,
            i: index(i),
            j: index(j),
            suffix: "",
        })
    }

    /// This name followed by `suffix`. An indexed name without a suffix
    /// takes it as data; any other name renders to new text.
    pub fn with_suffix(self, suffix: &'static str) -> Self {
        match self.0 {
            Repr::Indexed {
                prefix,
                i,
                j,
                suffix: "",
            } => RegName(Repr::Indexed {
                prefix,
                i,
                j,
                suffix,
            }),
            _ => RegName::from(format!("{self}{suffix}")),
        }
    }
}

impl std::fmt::Display for RegName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Repr::Text(text) => f.write_str(text),
            Repr::Indexed {
                prefix,
                i,
                j,
                suffix,
            } => {
                write!(f, "{prefix}{i}")?;
                if *j != NO_INDEX {
                    write!(f, "_{j}")?;
                }
                f.write_str(suffix)
            }
        }
    }
}

impl From<&str> for RegName {
    fn from(text: &str) -> Self {
        RegName(Repr::Text(text.into()))
    }
}

impl From<String> for RegName {
    fn from(text: String) -> Self {
        RegName(Repr::Text(text.into_boxed_str()))
    }
}

/// Plain-old-data payloads that can ride a seqlock lane.
///
/// A `FastPod` value packs into [`words`](FastPod::words) 64-bit words and
/// unpacks losslessly: `unpack(pack(v)) == v`. The width may depend on the
/// value (a `Vec<u64>` is as wide as it is long), but the lane is sized
/// from the **initial** value, so every value written to one register must
/// report the same width. Implementations must be pure (no interior
/// mutability, no heap indirection in the packed form) — the seqlock stores
/// the words themselves, so anything behind a pointer would defeat
/// atomicity.
pub trait FastPod: Clone + Send + Sync + 'static {
    /// How many 64-bit words [`FastPod::pack`] fills for this value.
    fn words(&self) -> usize;

    /// Serializes `self` into `out`, which holds exactly
    /// [`words`](FastPod::words) words.
    fn pack(&self, out: &mut [u64]);

    /// Reconstructs a value from exactly the words [`FastPod::pack`]
    /// produced.
    fn unpack(words: &[u64]) -> Self;
}

/// A `Vec<u64>` is the simplest runtime-width payload: one header word for
/// the length, then the elements. (The length header keeps `unpack` total
/// even though the register's width already implies it.)
impl FastPod for Vec<u64> {
    fn words(&self) -> usize {
        1 + self.len()
    }
    fn pack(&self, out: &mut [u64]) {
        debug_assert_eq!(out.len(), self.words());
        out[0] = self.len() as u64;
        out[1..=self.len()].copy_from_slice(self);
    }
    fn unpack(words: &[u64]) -> Self {
        let len = words[0] as usize;
        words[1..=len].to_vec()
    }
}

macro_rules! fast_pod_int {
    ($($t:ty),*) => {$(
        impl FastPod for $t {
            fn words(&self) -> usize {
                1
            }
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
    fn words(&self) -> usize {
        1
    }
    fn pack(&self, out: &mut [u64]) {
        out[0] = u64::from(*self);
    }
    fn unpack(words: &[u64]) -> Self {
        words[0] != 0
    }
}

impl FastPod for (u64, u64) {
    fn words(&self) -> usize {
        2
    }
    fn pack(&self, out: &mut [u64]) {
        out[0] = self.0;
        out[1] = self.1;
    }
    fn unpack(words: &[u64]) -> Self {
        (words[0], words[1])
    }
}

impl FastPod for (u64, u64, u64) {
    fn words(&self) -> usize {
        3
    }
    fn pack(&self, out: &mut [u64]) {
        out[0] = self.0;
        out[1] = self.1;
        out[2] = self.2;
    }
    fn unpack(words: &[u64]) -> Self {
        (words[0], words[1], words[2])
    }
}

/// The seqlock read protocol over one lane's (version word, payload words).
/// Optimistic lock-free read: snapshot the version (must be even), read the
/// payload words, fence, re-check the version. A concurrent writer moves
/// the version, so a stable even version brackets a quiescent window and
/// the words form one consistent write. Returns the validated version.
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

/// The seqlock write protocol: CAS the version even→odd (serializes
/// concurrent writers — the paper's arrow registers have two), store the
/// words, publish the next even version with Release.
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

/// Runs `f` on the first `len` words of a zeroed [`MAX_FAST_WORDS`]-word
/// stack buffer (64 bytes).
#[inline]
fn with_buf<R>(len: usize, f: impl FnOnce(&mut [u64]) -> R) -> R {
    f(&mut [0u64; MAX_FAST_WORDS][..len])
}

/// One cache line of packed single-bit registers: 8 atomic words = 512
/// booleans. Every change is an RMW (`fetch_or` to set, `fetch_and` to
/// clear), so bits sharing a word never tear each other and even a
/// *two-writer* bit (the paper's arrow registers: writer raises, scanner
/// lowers) stays atomic without a version word.
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
/// pointers exist only so the [`Backing`] enum stays generic; in practice
/// `T = bool` and both are the identity.
struct BitCell<T> {
    chunk: Arc<BitChunk>,
    word: usize,
    mask: u64,
    to_bit: fn(&T) -> bool,
    from_bit: fn(bool) -> T,
}

impl<T> Clone for BitCell<T> {
    fn clone(&self) -> Self {
        BitCell {
            chunk: Arc::clone(&self.chunk),
            ..*self
        }
    }
}

impl BitCell<bool> {
    /// Bit `bit` of `chunk`, which must never have been handed out: a
    /// fresh bit reads `false`, so only a raised `init` is written.
    fn new(chunk: Arc<BitChunk>, bit: usize, init: bool) -> Self {
        let cell = BitCell {
            chunk,
            word: bit / 64,
            mask: 1u64 << (bit % 64),
            to_bit: |b: &bool| *b,
            from_bit: |b| b,
        };
        if init {
            cell.set(true);
        }
        cell
    }
}

impl<T> BitCell<T> {
    #[inline]
    fn get(&self) -> bool {
        self.chunk.words[self.word].load(Ordering::SeqCst) & self.mask != 0
    }

    /// Writes the bit. A write that changes it is one `SeqCst` RMW
    /// (`fetch_or`/`fetch_and`), so two writers of one bit and neighbours
    /// in its word never lose each other's writes. A write that finds the
    /// bit already holding `bit` is one `SeqCst` load and stops there: it
    /// is a write of the value the register holds, which linearizes at the
    /// load. The load orders nothing an RMW would have, and needs not to:
    /// the snapshot orders its accesses with `Ctx::fence`, a real `SeqCst`
    /// fence in free mode, after a scan's lowers and around an update's
    /// value write.
    #[inline]
    fn set(&self, bit: bool) {
        let w = &self.chunk.words[self.word];
        if (w.load(Ordering::SeqCst) & self.mask != 0) == bit {
            return;
        }
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
/// [`World::value_slab`](crate::world::World::value_slab), and with one lane
/// by [`World::fast_reg`](crate::world::World::fast_reg).
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

/// One lane of a [`LaneSlab`]: the seqlock protocol above, over the lane's
/// version word and payload words in the slab's shared arrays.
struct LaneCell<T> {
    slab: Arc<LaneSlab>,
    lane: usize,
    pack: fn(&T, &mut [u64]),
    unpack: fn(&[u64]) -> T,
}

impl<T> Clone for LaneCell<T> {
    fn clone(&self) -> Self {
        LaneCell {
            slab: Arc::clone(&self.slab),
            ..*self
        }
    }
}

impl<T> LaneCell<T> {
    fn load(&self) -> T {
        let (version, words) = self.slab.parts(self.lane);
        with_buf(words.len(), |buf| {
            seq_load_words(version, words, buf);
            (self.unpack)(buf)
        })
    }

    fn store(&self, value: &T) {
        let (version, words) = self.slab.parts(self.lane);
        with_buf(words.len(), |buf| {
            (self.pack)(value, buf);
            seq_store_words(version, words, buf);
        })
    }

    /// The seqlock read a version-token read makes when its token is
    /// stale. [`Backing::unchanged`] decides that: if the version still
    /// equals the token, no write has been published since the read that
    /// produced it — the writer's even→odd CAS is a globally visible RMW,
    /// so "version unchanged" proves no write even *began* publishing —
    /// and the payload words are provably what that read returned. `f`
    /// sees the value; the version read is returned. Out of line, so that
    /// the skip inlines into a collect's loop.
    #[inline(never)]
    fn load_changed(&self, f: impl FnOnce(&T)) -> u64 {
        let (version, words) = self.slab.parts(self.lane);
        with_buf(words.len(), |buf| {
            let v = seq_load_words(version, words, buf);
            f(&(self.unpack)(buf));
            v
        })
    }
}

/// The locked cell: the value under a `RwLock`, beside a version word that
/// every write bumps by 2 inside its critical section. The version is even
/// from the start and only ever grows, so a reader that cached it under the
/// read lock learns from one load whether any write has landed since.
///
/// Orderings: the bump's `Release` store pairs with the token check's
/// `Acquire` load, so a reader that sees a write's bump sees everything
/// that happened before it. Under either lock the version is read
/// `Relaxed`: the lock orders it, and no writer moves it while a read lock
/// is held.
struct LockCell<T> {
    value: RwLock<T>,
    version: AtomicU64,
}

impl<T> LockCell<T> {
    fn new(init: T) -> Self {
        LockCell {
            value: RwLock::new(init),
            version: AtomicU64::new(0),
        }
    }

    /// Replaces the value under the write lock, returning the old one, and
    /// publishes the write by bumping the version before the lock drops.
    /// The write lock excludes every other writer, so the bump is a plain
    /// load and store, not an RMW.
    fn replace(&self, value: T) -> T {
        let mut guard = self.value.write();
        let prev = std::mem::replace(&mut *guard, value);
        let v = self.version.load(Ordering::Relaxed);
        self.version.store(v + 2, Ordering::Release);
        prev
    }

    /// The locked read a version-token read makes when its token is stale.
    /// [`Backing::unchanged`] decides that: when the version still equals
    /// the token, no write has landed since the read that produced it (a
    /// write's bump precedes its unlock, and a locked read sees the bump
    /// with the value), so the lock is not taken. `f` runs under the read
    /// lock, and the version read there is returned. Out of line, so that
    /// the skip inlines.
    #[inline(never)]
    fn read_changed(&self, f: impl FnOnce(&T)) -> u64 {
        let guard = self.value.read();
        f(&guard);
        self.version.load(Ordering::Relaxed)
    }
}

/// A register's storage, held by value in every handle: the locked cell
/// (any `T`, the one backing with a heap cell of its own), one bit of a
/// shared [`BitChunk`], or a lane of a [`LaneSlab`] (small [`FastPod`]
/// payloads). A clone shares the storage through its `Arc`.
enum Backing<T> {
    Lock(Arc<LockCell<T>>),
    Bit(BitCell<T>),
    Lane(LaneCell<T>),
}

impl<T> Clone for Backing<T> {
    fn clone(&self) -> Self {
        match self {
            Backing::Lock(l) => Backing::Lock(Arc::clone(l)),
            Backing::Bit(b) => Backing::Bit(b.clone()),
            Backing::Lane(c) => Backing::Lane(c.clone()),
        }
    }
}

impl<T: Clone> Backing<T> {
    #[inline]
    fn load(&self) -> T {
        match self {
            Backing::Lock(l) => l.value.read().clone(),
            Backing::Bit(b) => (b.from_bit)(b.get()),
            Backing::Lane(c) => c.load(),
        }
    }

    #[inline]
    fn store(&self, value: T) {
        drop(self.store_displacing(value));
    }

    /// Stores `value`, returning the value the locked cell held until now;
    /// the lock-free backings hold no value to return (they keep bits and
    /// words, not a `T`).
    #[inline]
    fn store_displacing(&self, value: T) -> Option<T> {
        match self {
            Backing::Lock(l) => Some(l.replace(value)),
            Backing::Bit(b) => {
                b.set((b.to_bit)(&value));
                None
            }
            Backing::Lane(c) => {
                c.store(&value);
                None
            }
        }
    }

    /// Version-token read (see [`Reg::read_changed`]): the seqlock lane
    /// and the locked cell skip `f` when the version still equals
    /// `cached` — the lane without touching the payload words, the locked
    /// cell without taking its lock; the bit backing has no version word,
    /// always runs `f`, and returns [`NO_VERSION`].
    #[inline]
    fn with_changed(&self, cached: u64, f: impl FnOnce(&T)) -> u64 {
        if self.unchanged(cached) {
            return cached;
        }
        self.read_fresh(f)
    }

    /// Whether a version-token read with `cached` skips: the version word
    /// still equals it (and, on a lane, is even). The bit backing has no
    /// version word, so never.
    #[inline]
    fn unchanged(&self, cached: u64) -> bool {
        match self {
            Backing::Lock(l) => l.version.load(Ordering::Acquire) == cached,
            Backing::Bit(_) => false,
            Backing::Lane(c) => {
                let v = c.slab.versions[c.lane].load(Ordering::Acquire);
                v == cached && v & 1 == 0
            }
        }
    }

    /// The read a version-token read makes when it does not skip: `f` sees
    /// the value, and the version read with it is returned ([`NO_VERSION`]
    /// from a bit).
    #[inline]
    fn read_fresh(&self, f: impl FnOnce(&T)) -> u64 {
        match self {
            Backing::Lock(l) => l.read_changed(f),
            Backing::Bit(b) => {
                f(&(b.from_bit)(b.get()));
                NO_VERSION
            }
            Backing::Lane(c) => c.load_changed(f),
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
            Backing::Lock(l) => l.replace(value),
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
/// The run forms ([`write_run`](Reg::write_run),
/// [`read_run`](Reg::read_run), [`read_changed_run`](Reg::read_changed_run))
/// make one such step per register of a sequence: in free mode through
/// one gate for the lot, in lockstep through one gate each.
/// Clone the handle to share the register between process bodies: the
/// handle holds its backing by value (the module docs' table), and a clone
/// shares the backing's cell, chunk or slab.
///
/// Single-writer (SWMR) discipline is a *protocol* property, not enforced
/// here — the [`bprc-registers`](../../registers) crate layers it on top.
pub struct Reg<T> {
    id: RegId,
    cell: Backing<T>,
}

impl<T> Clone for Reg<T> {
    fn clone(&self) -> Self {
        Reg {
            id: self.id,
            cell: self.cell.clone(),
        }
    }
}

impl<T> std::fmt::Debug for Reg<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reg").field("id", &self.id).finish()
    }
}

impl<T: Clone + Send + Sync + 'static> Reg<T> {
    pub(crate) fn new(id: RegId, init: T) -> Self {
        Reg {
            id,
            cell: Backing::Lock(Arc::new(LockCell::new(init))),
        }
    }

    /// This register's id within its world.
    pub fn id(&self) -> RegId {
        self.id
    }

    /// Whether this register rides a lock-free backing (seqlock lane or
    /// packed bit) rather than the `RwLock` cell.
    pub fn is_fast(&self) -> bool {
        !matches!(self.cell, Backing::Lock(_))
    }

    /// Whether this register is one bit of a packed `BitChunk`.
    pub fn is_bit(&self) -> bool {
        matches!(self.cell, Backing::Bit(_))
    }

    /// Atomically reads the register (one scheduled step).
    ///
    /// # Errors
    ///
    /// Returns [`Halted`] if the scheduler stopped this process.
    #[inline]
    pub fn read(&self, ctx: &mut Ctx) -> Result<T, Halted> {
        let cell = &self.cell;
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

    /// Atomically reads the register with a *version token*: one scheduled
    /// step, identical history/telemetry footprint to [`read`](Reg::read),
    /// but `f` borrows the stored value instead of taking a clone, and when
    /// the caller already holds a copy validated at token `cached` and the
    /// register provably has not been written since, `f` is **skipped
    /// entirely** — the payload words are not even loaded. Returns the new
    /// token to cache; [`NO_VERSION`] as `cached` always runs `f`. This is
    /// what makes the snapshot layer's collects allocation-free.
    ///
    /// Soundness: on the seqlock backings the token is the cell's even/odd
    /// version word. A writer's first publishing act is an atomic even→odd
    /// CAS on that word, so observing `version == cached` (Acquire) proves
    /// no write began publishing after the read that produced `cached` —
    /// the skip linearizes as an ordinary optimistic read that won the
    /// race. On the locked cell the token is the version word every write
    /// bumps by 2 before it releases the write lock: a write linearizes at
    /// its bump, a locked read sees the bump with the value, and a skip on
    /// an unchanged version linearizes before any write still inside its
    /// critical section. The bit backing has no version word; it always
    /// runs `f` and returns [`NO_VERSION`], which never matches.
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
        let cell = &self.cell;
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
        self.write_displacing(ctx, value, tag).map(drop)
    }

    /// Like [`write_tagged`](Reg::write_tagged) — the same one
    /// [`OpKind::Write`] step, counters, history and ring event — but hands
    /// back the value the write replaced, for its writer to reuse: on the
    /// locked cell, the value it held. A write to a lock-free backing, or
    /// one parked in a store buffer, replaces no `T` here and returns
    /// `None`.
    ///
    /// # Errors
    ///
    /// Returns [`Halted`] if the scheduler stopped this process.
    #[inline]
    pub fn write_displacing(&self, ctx: &mut Ctx, value: T, tag: u64) -> Result<Option<T>, Halted> {
        let cell = &self.cell;
        if ctx.inner().weak_buffering() {
            let (pid, id) = (ctx.pid(), self.id);
            // The write parks in the process's store buffer: globally
            // invisible until a Flush decision, a fence, or the end-of-run
            // drain lands it. `value` is kept twice — a forwarding copy
            // for this process's own later reads, and the move captured by
            // the deferred `apply` closure that hits the backing.
            let fwd = value.clone();
            let backing = self.cell.clone();
            let res = ctx
                .inner()
                .access_central(pid, OpKind::Write, id, tag, move |c| {
                    c.buffer_store(
                        pid,
                        BufferedStore {
                            reg: id,
                            value: Box::new(fwd),
                            apply: Box::new(move || backing.store(value)),
                        },
                    );
                });
            if res.is_ok() {
                ctx.count(Counter::StoresBuffered, 1);
            }
            return res.map(|()| None);
        }
        ctx.access(OpKind::Write, self.id, tag, || cell.store_displacing(value))
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
    /// On the lock-free backings (lane/bit) the exchange is
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
        let cell = &self.cell;
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

    /// The run form of [`write`](Reg::write): writes `value` into each
    /// register of `regs`, in order. Each write is the step, counters,
    /// history and ring event of one `write`; in free mode the writes share
    /// one gate ([`Ctx`] says what a run batches), in lockstep each is an
    /// ordinary gate. `count`, when given, is bumped once per write
    /// attempted, before it, as a caller's [`Ctx::count`] before each
    /// `write` would be.
    ///
    /// # Errors
    ///
    /// Returns [`Halted`] if the scheduler stopped this process; the
    /// writes before the halted one were made.
    #[inline]
    pub fn write_run<'a>(
        ctx: &mut Ctx,
        regs: impl IntoIterator<Item = &'a Reg<T>>,
        value: T,
        count: Option<Counter>,
    ) -> Result<(), Halted> {
        if !ctx.inner().is_free() {
            for reg in regs {
                if let Some(c) = count {
                    ctx.count(c, 1);
                }
                reg.write(ctx, value.clone())?;
            }
            return Ok(());
        }
        ctx.run(
            OpKind::Write,
            count,
            regs.into_iter(),
            |r| r.id,
            |r| {
                r.cell.store(value.clone());
                true
            },
        )
    }

    /// The run form of [`read`](Reg::read): reads each register of `regs`,
    /// in order, handing each value to `go_on`, and stops after the first
    /// read `go_on` refuses. Returns how many reads it accepted: all of
    /// them, or the index of the refused one. Steps, counters, gates and
    /// `count` as for [`write_run`](Reg::write_run).
    ///
    /// # Errors
    ///
    /// Returns [`Halted`] if the scheduler stopped this process.
    #[inline]
    pub fn read_run<'a>(
        ctx: &mut Ctx,
        regs: impl IntoIterator<Item = &'a Reg<T>>,
        count: Option<Counter>,
        mut go_on: impl FnMut(T) -> bool,
    ) -> Result<usize, Halted> {
        let mut accepted = 0;
        if !ctx.inner().is_free() {
            for reg in regs {
                if let Some(c) = count {
                    ctx.count(c, 1);
                }
                if !go_on(reg.read(ctx)?) {
                    break;
                }
                accepted += 1;
            }
            return Ok(accepted);
        }
        ctx.run(
            OpKind::Read,
            count,
            regs.into_iter(),
            |r| r.id,
            |r| {
                let ok = go_on(r.cell.load());
                accepted += usize::from(ok);
                ok
            },
        )?;
        Ok(accepted)
    }

    /// The run form of [`read_changed`](Reg::read_changed): one
    /// version-token read per item `(i, register)`, in order, with the
    /// cached token `tokens[i]`, where each read leaves the register's new
    /// token. After each read `visit(i, value)` sees the value, or `None`
    /// when the read skipped, and says whether the run goes on. Returns how
    /// many reads it accepted: all of them, or the index of the refused
    /// one, after which the run stopped. Steps, counters and gates as for
    /// [`write_run`](Reg::write_run).
    ///
    /// # Errors
    ///
    /// Returns [`Halted`] if the scheduler stopped this process.
    #[inline]
    pub fn read_changed_run<'a>(
        ctx: &mut Ctx,
        regs: impl IntoIterator<Item = (usize, &'a Reg<T>)>,
        tokens: &mut [u64],
        mut visit: impl FnMut(usize, Option<&T>) -> bool,
    ) -> Result<usize, Halted> {
        let mut accepted = 0;
        if !ctx.inner().is_free() {
            for (i, reg) in regs {
                let mut seen = None;
                tokens[i] = reg.read_changed(ctx, tokens[i], |v| seen = Some(visit(i, Some(v))))?;
                if !seen.unwrap_or_else(|| visit(i, None)) {
                    break;
                }
                accepted += 1;
            }
            return Ok(accepted);
        }
        ctx.run(
            OpKind::Read,
            None,
            regs.into_iter(),
            |(_, r)| r.id,
            |(i, r)| {
                // The skip first, so that only a read that does not skip
                // builds the closure the out-of-line read takes.
                let ok = if r.cell.unchanged(tokens[i]) {
                    visit(i, None)
                } else {
                    let mut ok = false;
                    tokens[i] = r.cell.read_fresh(|v| ok = visit(i, Some(v)));
                    ok
                };
                accepted += usize::from(ok);
                ok
            },
        )?;
        Ok(accepted)
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

impl Reg<bool> {
    /// Allocates one bit of `chunk` (bit index `bit`, chunk-relative).
    /// Called via [`World::bit_reg`](crate::world::World::bit_reg).
    pub(crate) fn new_bit(id: RegId, init: bool, chunk: Arc<BitChunk>, bit: usize) -> Self {
        debug_assert!(bit < BIT_CHUNK_BITS);
        Reg {
            id,
            cell: Backing::Bit(BitCell::new(chunk, bit, init)),
        }
    }
}

impl<T: FastPod> Reg<T> {
    /// Allocates lane `lane` of `slab`, whose stride must equal
    /// `init.words()`. Called via
    /// [`World::fast_reg`](crate::world::World::fast_reg) (a private
    /// one-lane slab) and [`World::lane_reg`](crate::world::World::lane_reg).
    pub(crate) fn new_lane(id: RegId, init: T, slab: Arc<LaneSlab>, lane: usize) -> Self {
        debug_assert_eq!(slab.lane_words(), init.words());
        let cell = LaneCell {
            slab,
            lane,
            pack: T::pack,
            unpack: T::unpack,
        };
        cell.store(&init);
        Reg {
            id,
            cell: Backing::Lane(cell),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::RoundRobin;
    use crate::weakmem::WeakMode;
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
            let mut buf = vec![0u64; v.words()];
            v.pack(&mut buf);
            assert_eq!(T::unpack(&buf), v);
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
        assert_eq!(rep.steps, 3, "seqlock-lane ops are scheduled steps too");
    }

    /// The slab a lane register sits in; `None` for the other backings.
    fn slab_of<T>(r: &Reg<T>) -> Option<&Arc<LaneSlab>> {
        match &r.cell {
            Backing::Lane(c) => Some(&c.slab),
            _ => None,
        }
    }

    /// How many lanes the slab under `r` has; `None` off the lane backing.
    fn lanes<T>(r: &Reg<T>) -> Option<usize> {
        slab_of(r).map(|s| s.lanes())
    }

    /// The allocator → backing table of the module docs, one assertion per
    /// row.
    #[test]
    fn backing_follows_what_the_allocator_is_handed() {
        let w = World::builder(1).build();
        // `reg` is the locked cell even for a payload that would fit.
        assert!(!w.reg("r", 0u64).is_fast());
        // `fast_reg`: a private one-lane slab up to the cap, else locked
        // (`Vec<u64>` packs to 1 + len words).
        assert_eq!(
            [
                lanes(&w.fast_reg("f", vec![0u64; MAX_FAST_WORDS - 1])),
                lanes(&w.fast_reg("g", vec![0u64; MAX_FAST_WORDS])),
            ],
            [Some(1), None]
        );
        let b = w.bit_reg("b", true);
        assert!(b.is_bit() && b.is_fast() && b.peek());
        // `value_slab` + `lane_reg`: the lanes join the shared slab; a
        // width mismatch, a missing lane or an inert slab (stride 0 or
        // past the cap) fall back to `fast_reg`.
        let slab = w.value_slab(2, 2);
        let (l0, l1) = (
            w.lane_reg(&slab, 0, "l0", (0u64, 0u64)),
            w.lane_reg(&slab, 1, "l1", (0u64, 0u64)),
        );
        let oversize = w.value_slab(1, MAX_FAST_WORDS + 1);
        assert_eq!(
            [
                slab_of(&l0)
                    .zip(slab_of(&l1))
                    .map(|(a, b)| Arc::ptr_eq(a, b) && a.lanes() == 2),
                lanes(&w.lane_reg(&slab, 0, "m", 0u64)).map(|n| n == 1),
                lanes(&w.lane_reg(&slab, 2, "p", (0u64, 0u64))).map(|n| n == 1),
                lanes(&w.lane_reg(&w.value_slab(1, 0), 0, "z", 0u64)).map(|n| n == 1),
                lanes(&w.lane_reg(&oversize, 0, "x", vec![0u64; MAX_FAST_WORDS])).map(|n| n == 1),
            ],
            [Some(true), Some(true), Some(true), Some(true), None]
        );
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
    fn a_displacing_write_is_a_write_that_hands_back_what_the_locked_cell_held() {
        for weak in [WeakMode::Sc, WeakMode::Tso] {
            let mut w = World::builder(1).weak_memory(weak).build();
            let r = w.reg("r", vec![1u64]);
            let f = w.fast_reg("f", 5u64);
            let b = w.bit_reg("b", false);
            let (r2, f2, b2) = (r.clone(), f.clone(), b.clone());
            type Displaced = (Option<Vec<u64>>, Option<u64>, Option<bool>);
            let bodies: Vec<ProcBody<Displaced>> = vec![Box::new(move |ctx| {
                Ok((
                    r2.write_displacing(ctx, vec![2], 7)?,
                    f2.write_displacing(ctx, 6, 8)?,
                    b2.write_displacing(ctx, true, 9)?,
                ))
            })];
            let rep = w.run(bodies, Box::new(RoundRobin::new()));
            // A write parked in a store buffer replaced nothing yet.
            let held = (weak == WeakMode::Sc).then(|| vec![1]);
            assert_eq!(rep.outputs[0], Some((held, None, None)), "{weak:?}");
            assert_eq!((r.peek(), f.peek(), b.peek()), (vec![2], 6, true));
            // One scheduled write each, as `write_tagged` records it.
            let ops: Vec<_> = rep.history.as_ref().unwrap().ops().collect();
            let writes: Vec<_> = ops
                .iter()
                .map(|&(_, _, kind, reg, tag)| (kind, reg, tag))
                .collect();
            assert_eq!(
                writes[..3],
                [
                    (OpKind::Write, r.id(), 7),
                    (OpKind::Write, f.id(), 8),
                    (OpKind::Write, b.id(), 9)
                ]
            );
            assert_eq!(rep.telemetry.total(Counter::RegWrites), 3);
            assert_eq!(rep.telemetry.total(Counter::RegReads), 0);
        }
    }

    /// `read_changed`'s token contract, in both modes. On a lane and on a
    /// locked register a current token runs no closure and comes back
    /// unchanged; after a write the closure sees the new value once and the
    /// token is new and even; `NO_VERSION` always reads. The bit backing
    /// always runs the closure and returns `NO_VERSION`, whatever token it
    /// is handed.
    #[test]
    fn read_changed_skips_only_on_a_current_token() {
        /// One read: the token it returned and what its closure saw.
        type Read = (u64, Vec<u64>);
        fn read<T: Copy + Into<u64> + Send + Sync + 'static>(
            r: &Reg<T>,
            ctx: &mut Ctx,
            cached: u64,
        ) -> Result<Read, Halted> {
            let mut seen = Vec::new();
            let token = r.read_changed(ctx, cached, |v| seen.push((*v).into()))?;
            Ok((token, seen))
        }
        /// Reads with no token, with the first read's, writes 9, then reads
        /// with the stale token, the new one and none.
        fn sequence(r: &Reg<u64>, ctx: &mut Ctx) -> Result<Vec<Read>, Halted> {
            let first = read(r, ctx, NO_VERSION)?;
            let t0 = first.0;
            let mut reads = vec![first, read(r, ctx, t0)?];
            r.write(ctx, 9)?;
            let after = read(r, ctx, t0)?;
            let t1 = after.0;
            reads.extend([after, read(r, ctx, t1)?, read(r, ctx, NO_VERSION)?]);
            Ok(reads)
        }
        for mode in [Mode::Lockstep, Mode::Free] {
            let mut w = World::builder(1).mode(mode).build();
            let lane = w.fast_reg("lane", 5u64);
            let locked = w.reg("locked", 5u64);
            let bit = w.bit_reg("bit", true);
            let body: ProcBody<(Vec<Read>, Vec<Read>, Vec<Read>)> = Box::new(move |ctx| {
                let lanes = sequence(&lane, ctx)?;
                let locks = sequence(&locked, ctx)?;
                let mut bits = Vec::new();
                for cached in [NO_VERSION, lanes[0].0, locks[0].0, locks[2].0] {
                    bits.push(read(&bit, ctx, cached)?);
                }
                Ok((lanes, locks, bits))
            });
            let rep = w.run(vec![body], Box::new(RoundRobin::new()));
            let (lanes, locks, bits) = rep.outputs[0].clone().expect("the body ran to its end");
            for (what, reads) in [("lane", lanes), ("locked", locks)] {
                let (t0, t1) = (reads[0].0, reads[2].0);
                assert!(
                    t0 & 1 == 0 && t1 & 1 == 0 && t0 != t1,
                    "{mode:?}: {what} tokens {t0}, {t1}"
                );
                assert_eq!(
                    reads,
                    [
                        (t0, vec![5]),
                        (t0, vec![]),
                        (t1, vec![9]),
                        (t1, vec![]),
                        (t1, vec![9]),
                    ],
                    "{mode:?}: {what}"
                );
            }
            assert_eq!(bits, vec![(NO_VERSION, vec![1]); 4], "{mode:?}: bit");
        }
    }

    #[test]
    fn raw_seqlock_torture_no_torn_pairs() {
        // Hammer the seqlock *outside* the scheduler (peek/poke bypass the
        // gate): two writer threads and two reader threads on one lane; the
        // pair invariant (b == 3a) must hold on every read, or the seqlock
        // leaked a torn value. Multi-writer exercises the CAS-odd path.
        let w = World::builder(1).mode(Mode::Free).build();
        let r = w.fast_reg("pair", (0u64, 0u64));
        assert_eq!(lanes(&r), Some(1));
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
