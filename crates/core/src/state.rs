//! The bounded per-process register contents (the paper's §5 "value").
//!
//! Everything a process publishes fits in O(n·log K + K·log m) bits and
//! never grows — this is the whole point of the paper, and the
//! representation says so: a [`ProcState`] *is* that many bits, packed into
//! words under a [`RegisterLayout`] derived from `(n, K, m)`. Compare
//! [`crate::baselines::RoundCore::aspnes_herlihy`], whose register contents
//! grow with the round number.
//!
//! | field | domain | bits | bounded by |
//! |---|---|---|---|
//! | preference | ⊥, 0, 1 | 2 | §5, the `pref` field |
//! | coin pointer | `0..=K` | ⌈log₂(K+1)⌉ | §5, `current_coin` indexes K+1 slots |
//! | K+1 coin counters | `−(m+1)..=m+1` | ⌈log₂(2m+3)⌉ each, two's complement | §3, counters saturate at ±(m+1) |
//! | n edge counters | `0..3K` | ⌈log₂ 3K⌉ each | §4.3, counters live mod 3K |
//!
//! Fields sit back to back in that order, least significant bit first; the
//! bits above [`RegisterLayout::bits`] in the last word are zero. The
//! not-yet-started state ([`ProcState::phantom`]) is all zeros.

use std::fmt;

/// A preference: a binary value or ⊥ (the paper writes ⊥ when the leaders
/// it observed disagreed, before consulting the shared coin).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Pref {
    /// ⊥ — no current preference; will adopt the shared coin's value.
    #[default]
    Bottom,
    /// A concrete binary preference.
    Val(bool),
}

impl Pref {
    /// Does this preference *agree* with `other`? The paper: "process i
    /// agrees with process j if both prefer the same value v" — ⊥ agrees
    /// with nothing, not even ⊥.
    pub fn agrees_with(&self, other: &Pref) -> bool {
        matches!((self, other), (Pref::Val(a), Pref::Val(b)) if a == b)
    }

    /// The concrete value, if any.
    pub fn value(&self) -> Option<bool> {
        match self {
            Pref::Bottom => None,
            Pref::Val(v) => Some(*v),
        }
    }
}

impl From<bool> for Pref {
    fn from(v: bool) -> Self {
        Pref::Val(v)
    }
}

impl fmt::Display for Pref {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pref::Bottom => write!(f, "⊥"),
            Pref::Val(v) => write!(f, "{}", *v as u8),
        }
    }
}

/// Bits needed to write `max` in binary (at least one).
fn bits_for(max: u64) -> u32 {
    (64 - max.leading_zeros()).max(1)
}

const PREF_BITS: u32 = 2;

/// Where each field of a §5 register sits, derived from `(n, K, m)` alone:
/// the table in the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegisterLayout {
    n: u32,
    k: u32,
    m: i64,
    ptr_bits: u32,
    counter_bits: u32,
    edge_bits: u32,
    // Derived once, so that no access divides or multiplies for them.
    /// Bit offset of the edge row.
    edges_at: u32,
    /// Edge counters one 64-bit load covers: ⌊64 / edge_bits⌋.
    edge_run: u32,
    /// Words one packed register occupies.
    words: u32,
}

impl RegisterLayout {
    /// The layout for `n` processes, strip constant `k` and coin counter
    /// bound `m`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `k == 0`, `m < 1`, or a field would not fit a
    /// word (`m ≥ 2⁶²`, `3k ≥ 2³²`).
    pub fn new(n: usize, k: u32, m: i64) -> Self {
        assert!(n >= 1, "need at least one process");
        assert!((1..=u32::MAX / 3).contains(&k), "K out of range");
        assert!((1..1 << 62).contains(&m), "counter bound out of range");
        let ptr_bits = bits_for(k as u64);
        // Two's complement over −(m+1)..=m+1 needs 2m+4 ≤ 2^bits, and 2m+3
        // is odd, so this is the width of 2m+3 itself.
        let counter_bits = bits_for(2 * m as u64 + 3);
        let edge_bits = bits_for(3 * k as u64 - 1);
        let edges_at = PREF_BITS as u64 + ptr_bits as u64 + (k as u64 + 1) * counter_bits as u64;
        let bits = edges_at + n as u64 * edge_bits as u64;
        RegisterLayout {
            n: u32::try_from(n).expect("n fits 32 bits"),
            k,
            m,
            ptr_bits,
            counter_bits,
            edge_bits,
            edges_at: u32::try_from(edges_at).expect("register width fits 32 bits"),
            edge_run: 64 / edge_bits,
            words: u32::try_from(bits.div_ceil(64)).expect("register width fits 32 bits"),
        }
    }

    /// Number of processes (edge counters per register).
    #[inline]
    pub fn n(&self) -> usize {
        self.n as usize
    }

    /// The strip constant K.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The coin counter bound m.
    pub fn m(&self) -> i64 {
        self.m
    }

    /// Coin counters per register: K+1.
    #[inline]
    pub fn coin_slots(&self) -> usize {
        self.k as usize + 1
    }

    /// The exact width of one register in bits — the space bound of the
    /// paper's title, for the boundedness experiment E6.
    pub fn bits(&self) -> u64 {
        self.edges_at() as u64 + self.n as u64 * self.edge_bits as u64
    }

    /// Words one packed register occupies.
    #[inline]
    pub fn words(&self) -> usize {
        self.words as usize
    }

    /// Where the edge row starts: the first word that holds any of its
    /// bits, and the mask of those bits in that word. The row is the
    /// register's last field, so from that word on a register is the row
    /// and zero padding: two registers of a layout hold the same row iff
    /// their words from there on, the first masked, are equal, whatever
    /// their other fields — one compare per word, no unpacking.
    #[inline]
    pub fn edge_tail(&self) -> (usize, u64) {
        let at = self.edges_at();
        (at / 64, !0 << (at % 64))
    }

    #[inline]
    fn coins_at(&self) -> usize {
        (PREF_BITS + self.ptr_bits) as usize
    }

    #[inline]
    fn edges_at(&self) -> usize {
        self.edges_at as usize
    }

    /// Packs `parts` into `out` (exactly [`words`](Self::words) long),
    /// overwriting it.
    ///
    /// # Errors
    ///
    /// Returns the first field that is outside its domain or of the wrong
    /// length; `out` is unspecified then.
    pub fn pack(&self, parts: &ProcParts, out: &mut [u64]) -> Result<(), PackError> {
        assert_eq!(out.len(), self.words(), "destination has the wrong width");
        if parts.coins.len() != self.coin_slots() {
            return Err(PackError::CoinsLen {
                len: parts.coins.len(),
                want: self.coin_slots(),
            });
        }
        if parts.edges.len() != self.n() {
            return Err(PackError::EdgesLen {
                len: parts.edges.len(),
                want: self.n(),
            });
        }
        if parts.current_coin > self.k as usize {
            return Err(PackError::Pointer {
                value: parts.current_coin,
                max: self.k as usize,
            });
        }
        let mut w = BitWriter {
            out,
            next: 0,
            acc: 0,
            fill: 0,
        };
        let pref = match parts.pref {
            Pref::Bottom => 0,
            Pref::Val(false) => 1,
            Pref::Val(true) => 2,
        };
        w.put(pref, PREF_BITS);
        w.put(parts.current_coin as u64, self.ptr_bits);
        let counter_mask = mask(self.counter_bits);
        for (slot, &c) in parts.coins.iter().enumerate() {
            if !(-self.m - 1..=self.m + 1).contains(&c) {
                return Err(PackError::Counter {
                    slot,
                    value: c,
                    cap: self.m + 1,
                });
            }
            w.put(c as u64 & counter_mask, self.counter_bits);
        }
        for (j, &e) in parts.edges.iter().enumerate() {
            if e >= 3 * self.k {
                return Err(PackError::Edge {
                    j,
                    value: e,
                    modulus: 3 * self.k,
                });
            }
            w.put(e as u64, self.edge_bits);
        }
        w.finish();
        Ok(())
    }

    /// Overwrites coin counter `slot` of the register packed in `words`
    /// (exactly [`words`](Self::words) long) with `value`, leaving every
    /// other bit as it is: the one field a walk step moves, re-encoded
    /// without repacking the rest.
    ///
    /// # Errors
    ///
    /// [`PackError::Counter`] if `value` is outside ±(m+1), the domain
    /// [`pack`](Self::pack) checks; `words` is unchanged then.
    ///
    /// # Panics
    ///
    /// Panics if `slot > K` or `words` has the wrong width.
    pub fn set_coin(&self, words: &mut [u64], slot: usize, value: i64) -> Result<(), PackError> {
        assert_eq!(words.len(), self.words(), "destination has the wrong width");
        assert!(slot < self.coin_slots(), "coin slot out of range");
        if !(-self.m - 1..=self.m + 1).contains(&value) {
            return Err(PackError::Counter {
                slot,
                value,
                cap: self.m + 1,
            });
        }
        let width = self.counter_bits;
        let at = self.coins_at() + slot * width as usize;
        set_bits(words, at, width, value as u64 & mask(width));
        Ok(())
    }
}

/// Writes fields back to back, least significant bit first, a word at a
/// time; [`finish`](Self::finish) writes the last, zero-padded word.
struct BitWriter<'a> {
    out: &'a mut [u64],
    next: usize,
    /// The word being assembled and how many of its bits are taken (< 64).
    acc: u64,
    fill: u32,
}

impl BitWriter<'_> {
    /// Appends `value`, which must fit `width` bits.
    #[inline]
    fn put(&mut self, value: u64, width: u32) {
        self.acc |= value << self.fill;
        let end = self.fill + width;
        if end < 64 {
            self.fill = end;
            return;
        }
        self.out[self.next] = self.acc;
        self.next += 1;
        // The `end − 64` high bits of `value` spilled; `fill` is zero only
        // if none did.
        self.fill = end - 64;
        self.acc = if self.fill == 0 {
            0
        } else {
            value >> (width - self.fill)
        };
    }

    fn finish(self) {
        if self.fill > 0 {
            self.out[self.next] = self.acc;
        }
    }
}

#[inline]
fn mask(width: u32) -> u64 {
    u64::MAX >> (64 - width)
}

/// The `width`-bit field at bit offset `at`.
#[inline]
fn get_bits(words: &[u64], at: usize, width: u32) -> u64 {
    let (w, b) = (at / 64, (at % 64) as u32);
    let lo = words[w] >> b;
    let v = if b + width > 64 {
        lo | words[w + 1] << (64 - b)
    } else {
        lo
    };
    v & mask(width)
}

/// Overwrites the `width`-bit field at bit offset `at` with `value`, which
/// must fit `width` bits.
#[inline]
fn set_bits(words: &mut [u64], at: usize, width: u32, value: u64) {
    let (w, b) = (at / 64, (at % 64) as u32);
    words[w] = words[w] & !(mask(width) << b) | value << b;
    if b + width > 64 {
        // The field straddles into the next word; `b > 0` here.
        let spill = b + width - 64;
        words[w + 1] = words[w + 1] & !mask(spill) | value >> (64 - b);
    }
}

/// A field that cannot be encoded: boundedness is structural, so an
/// out-of-domain value is an error rather than a truncated field.
#[allow(missing_docs)] // each variant's line names its fields
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackError {
    /// Coin counter `slot` is `value`, outside ±`cap` (= m+1).
    Counter { slot: usize, value: i64, cap: i64 },
    /// Edge counter `j` is `value`, not below `modulus` (= 3K).
    Edge { j: usize, value: u32, modulus: u32 },
    /// The coin pointer is `value`, above `max` (= K).
    Pointer { value: usize, max: usize },
    /// The coin array has `len` counters, not `want` (= K+1).
    CoinsLen { len: usize, want: usize },
    /// The edge row has `len` counters, not `want` (= n).
    EdgesLen { len: usize, want: usize },
}

impl fmt::Display for PackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            PackError::Counter { slot, value, cap } => {
                write!(f, "coin counter {slot} is {value}, outside ±{cap}")
            }
            PackError::Edge { j, value, modulus } => {
                write!(f, "edge counter {j} is {value}, not below {modulus}")
            }
            PackError::Pointer { value, max } => {
                write!(f, "coin pointer is {value}, above {max}")
            }
            PackError::CoinsLen { len, want } => {
                write!(f, "coin array has {len} counters, not {want}")
            }
            PackError::EdgesLen { len, want } => {
                write!(f, "edge row has {len} counters, not {want}")
            }
        }
    }
}

impl std::error::Error for PackError {}

/// A register's fields, unpacked: what a process computes on between scans,
/// and what [`ProcState::pack`] encodes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProcParts {
    /// Current preference.
    pub pref: Pref,
    /// Circular array of K+1 coin counters.
    pub coins: Vec<i64>,
    /// Index of the slot holding this process's *current round's* coin.
    pub current_coin: usize,
    /// This process's row `e_i[1..n]` of the edge counters (mod 3K).
    pub edges: Vec<u32>,
}

impl ProcParts {
    /// The fields of a process that has not taken any step yet.
    pub fn phantom(layout: &RegisterLayout) -> Self {
        ProcParts {
            pref: Pref::Bottom,
            coins: vec![0; layout.coin_slots()],
            current_coin: 0,
            edges: vec![0; layout.n()],
        }
    }

    /// The slot index of the *next* round's coin (the paper's
    /// `next(current_coin)`).
    pub fn next_coin_slot(&self) -> usize {
        next_slot(self.current_coin, self.coins.len())
    }
}

/// The slot after `slot` in a circular array of `slots`, without dividing.
#[inline]
fn next_slot(slot: usize, slots: usize) -> usize {
    if slot + 1 == slots {
        0
    } else {
        slot + 1
    }
}

/// A borrowed packed register: a [`ProcState`], or one level of a
/// [`crate::multivalued::MvState`], read field by field where it lies.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct ProcRef<'a> {
    layout: &'a RegisterLayout,
    words: &'a [u64],
}

impl<'a> ProcRef<'a> {
    /// Views `words` (exactly `layout.words()` long) as a register.
    #[inline]
    pub(crate) fn new(layout: &'a RegisterLayout, words: &'a [u64]) -> Self {
        debug_assert_eq!(words.len(), layout.words());
        ProcRef { layout, words }
    }

    /// The layout the register is packed under.
    pub fn layout(&self) -> &'a RegisterLayout {
        self.layout
    }

    /// The packed words.
    pub fn words(&self) -> &'a [u64] {
        self.words
    }

    /// Current preference.
    #[inline]
    pub fn pref(&self) -> Pref {
        match self.words[0] & 3 {
            0 => Pref::Bottom,
            1 => Pref::Val(false),
            _ => Pref::Val(true),
        }
    }

    /// Index of the slot holding the current round's coin.
    #[inline]
    pub fn current_coin(&self) -> usize {
        get_bits(self.words, PREF_BITS as usize, self.layout.ptr_bits) as usize
    }

    /// The slot index of the next round's coin.
    pub fn next_coin_slot(&self) -> usize {
        next_slot(self.current_coin(), self.layout.coin_slots())
    }

    /// Coin counter `slot` (`slot ≤ K`).
    #[inline]
    pub fn coin(&self, slot: usize) -> i64 {
        assert!(slot < self.layout.coin_slots(), "coin slot out of range");
        let width = self.layout.counter_bits;
        let at = self.layout.coins_at() + slot * width as usize;
        // Sign-extend the two's-complement field.
        ((get_bits(self.words, at, width) << (64 - width)) as i64) >> (64 - width)
    }

    /// The K+1 coin counters.
    pub fn coins(&self) -> impl ExactSizeIterator<Item = i64> + 'a {
        let this = *self;
        (0..this.layout.coin_slots()).map(move |slot| this.coin(slot))
    }

    /// Edge counter `e_i[j]`.
    #[inline]
    pub fn edge(&self, j: usize) -> u32 {
        assert!(j < self.layout.n(), "edge index out of range");
        let width = self.layout.edge_bits;
        get_bits(
            self.words,
            self.layout.edges_at() + j * width as usize,
            width,
        ) as u32
    }

    /// The row of n edge counters.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = u32> + 'a {
        let this = *self;
        (0..this.layout.n()).map(move |j| this.edge(j))
    }

    /// The row of n edge counters, written into `out` (`n` long): one
    /// multi-field load per run of counters that fits a word, then shifts.
    #[inline]
    pub fn edges_into(&self, out: &mut [i64]) {
        assert_eq!(out.len(), self.layout.n(), "row has wrong length");
        let (width, field) = (self.layout.edge_bits, mask(self.layout.edge_bits));
        let mut at = self.layout.edges_at();
        for run in out.chunks_mut(self.layout.edge_run as usize) {
            let bits = run.len() as u32 * width;
            let buf = get_bits(self.words, at, bits);
            let mut shift = 0;
            for e in run {
                *e = (buf >> shift & field) as i64;
                shift += width;
            }
            at += bits as usize;
        }
    }

    /// All fields, unpacked.
    pub fn unpack(&self) -> ProcParts {
        ProcParts {
            pref: self.pref(),
            coins: self.coins().collect(),
            current_coin: self.current_coin(),
            edges: self.edges().collect(),
        }
    }
}

/// Field-by-field, without unpacking.
impl PartialEq<ProcParts> for ProcRef<'_> {
    fn eq(&self, parts: &ProcParts) -> bool {
        self.pref() == parts.pref
            && self.current_coin() == parts.current_coin
            && self.coins().eq(parts.coins.iter().copied())
            && self.edges().eq(parts.edges.iter().copied())
    }
}

impl fmt::Debug for ProcRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProcState")
            .field("pref", &self.pref())
            .field("coins", &self.coins().collect::<Vec<_>>())
            .field("current_coin", &self.current_coin())
            .field("edges", &self.edges().collect::<Vec<_>>())
            .finish()
    }
}

/// Words a register may occupy and still be held inline by a [`ProcState`]:
/// two cover n ≤ 20 under `ConsensusParams::quick` (m = 10⁶, K = 2).
const INLINE_WORDS: usize = 2;

/// A [`ProcState`]'s packed words: inline when the layout is at most
/// [`INLINE_WORDS`] wide (the words past `layout.words()` are zero, so the
/// derived `==` and `Hash` see the register only), on the heap, exactly
/// `layout.words()` long, beyond that.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Words {
    Inline([u64; INLINE_WORDS]),
    Heap(Box<[u64]>),
}

impl Words {
    fn zeroed(len: usize) -> Self {
        if len <= INLINE_WORDS {
            Words::Inline([0; INLINE_WORDS])
        } else {
            Words::Heap(vec![0; len].into_boxed_slice())
        }
    }
}

/// The complete register contents of one process in the bounded protocol,
/// packed.
///
/// The paper's "round field" consists of the coin counters (the process's
/// contributions to the K+1 most recent shared coins), the `current_coin`
/// pointer, and the edge-counter row of the bounded rounds strip. Equal
/// fields are equal words (padding is zero), so `==` and `Hash` are
/// semantic. A register of at most two words (n ≤ 20 under
/// `ConsensusParams::quick`) is held inline, so its clone is a copy of 64
/// bytes; a wider one is one heap buffer, which a clone allocates and
/// `clone_from` reuses.
#[derive(PartialEq, Eq, Hash)]
pub struct ProcState {
    layout: RegisterLayout,
    words: Words,
}

impl ProcState {
    /// The state of a process that has not taken any step yet (round 0,
    /// no preference). Used for not-yet-joined participants in the
    /// multivalued reduction and as the registers' initial contents.
    pub fn phantom(layout: RegisterLayout) -> Self {
        ProcState {
            layout,
            words: Words::zeroed(layout.words()),
        }
    }

    /// Encodes `parts` under `layout`.
    ///
    /// # Errors
    ///
    /// Returns the first field outside its domain or of the wrong length.
    pub fn pack(layout: RegisterLayout, parts: &ProcParts) -> Result<Self, PackError> {
        let mut state = Self::phantom(layout);
        state.repack(parts)?;
        Ok(state)
    }

    /// Re-encodes every field from `parts`, in place.
    ///
    /// # Errors
    ///
    /// As [`pack`](Self::pack); the state is unspecified then.
    pub(crate) fn repack(&mut self, parts: &ProcParts) -> Result<(), PackError> {
        let layout = self.layout;
        layout.pack(parts, self.words_mut())
    }

    /// Overwrites coin counter `slot` with `value`, leaving every other
    /// field as it is: [`RegisterLayout::set_coin`] on this register.
    ///
    /// # Errors
    ///
    /// [`PackError::Counter`] if `value` is outside ±(m+1); the state is
    /// unchanged then.
    ///
    /// # Panics
    ///
    /// Panics if `slot > K`.
    pub fn set_coin(&mut self, slot: usize, value: i64) -> Result<(), PackError> {
        let layout = self.layout;
        layout.set_coin(self.words_mut(), slot, value)
    }

    fn words(&self) -> &[u64] {
        match &self.words {
            Words::Inline(w) => &w[..self.layout.words()],
            Words::Heap(w) => w,
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.words {
            Words::Inline(w) => &mut w[..self.layout.words()],
            Words::Heap(w) => w,
        }
    }

    /// Borrows the register for field access (every accessor lives on
    /// [`ProcRef`]; the two below are the ones adversaries and tests use on
    /// whole registers).
    #[inline]
    pub fn fields(&self) -> ProcRef<'_> {
        ProcRef::new(&self.layout, self.words())
    }

    /// The layout the register is packed under.
    pub fn layout(&self) -> &RegisterLayout {
        &self.layout
    }

    /// Current preference.
    pub fn pref(&self) -> Pref {
        self.fields().pref()
    }

    /// The row of n edge counters.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = u32> + '_ {
        self.fields().edges()
    }

    /// All fields, unpacked.
    pub fn unpack(&self) -> ProcParts {
        self.fields().unpack()
    }

    /// Number of bits this state occupies in a register: its layout's
    /// width, whatever the state (for the boundedness experiment E6).
    pub fn register_bits(&self) -> u64 {
        self.layout.bits()
    }
}

impl Clone for ProcState {
    fn clone(&self) -> Self {
        ProcState {
            layout: self.layout,
            words: self.words.clone(),
        }
    }

    /// Reuses `self`'s heap buffer when both registers are of one width.
    fn clone_from(&mut self, source: &Self) {
        match (&mut self.words, &source.words) {
            (Words::Heap(dst), Words::Heap(src)) if dst.len() == src.len() => {
                dst.copy_from_slice(src);
                self.layout = source.layout;
            }
            _ => *self = source.clone(),
        }
    }
}

impl fmt::Debug for ProcState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fields().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agreement_semantics() {
        assert!(Pref::Val(true).agrees_with(&Pref::Val(true)));
        assert!(!Pref::Val(true).agrees_with(&Pref::Val(false)));
        assert!(
            !Pref::Bottom.agrees_with(&Pref::Bottom),
            "⊥ agrees with nothing"
        );
        assert!(!Pref::Bottom.agrees_with(&Pref::Val(false)));
    }

    #[test]
    fn pref_value_and_from() {
        assert_eq!(Pref::Val(true).value(), Some(true));
        assert_eq!(Pref::Bottom.value(), None);
        assert_eq!(Pref::from(false), Pref::Val(false));
    }

    #[test]
    fn pref_display() {
        assert_eq!(Pref::Bottom.to_string(), "⊥");
        assert_eq!(Pref::Val(true).to_string(), "1");
    }

    #[test]
    fn phantom_shape() {
        let layout = RegisterLayout::new(4, 2, 10);
        let s = ProcState::phantom(layout);
        assert_eq!(s.fields().coins().len(), 3);
        assert_eq!(s.edges().len(), 4);
        assert_eq!(s.pref(), Pref::Bottom);
        assert_eq!(s.fields().next_coin_slot(), 1);
        assert_eq!(s.unpack(), ProcParts::phantom(&layout));
        assert!(s.fields().words().iter().all(|&w| w == 0));
    }

    #[test]
    fn next_coin_slot_wraps() {
        let layout = RegisterLayout::new(2, 2, 10);
        let mut parts = ProcParts::phantom(&layout);
        parts.current_coin = 2;
        assert_eq!(parts.next_coin_slot(), 0);
        let packed = ProcState::pack(layout, &parts).unwrap();
        assert_eq!(packed.fields().next_coin_slot(), 0);
    }

    #[test]
    fn register_bits_is_constant_in_rounds() {
        // The same state advanced arbitrarily far has the same bit-width —
        // that is the theorem, and here it is the type.
        let layout = RegisterLayout::new(8, 2, 10_000);
        let bits = ProcState::phantom(layout).register_bits();
        let advanced = ProcParts {
            pref: Pref::Val(true),
            coins: vec![9_999; 3],
            current_coin: 2,
            edges: vec![5; 8],
        };
        let advanced = ProcState::pack(layout, &advanced).unwrap();
        assert_eq!(advanced.register_bits(), bits);
        assert!(bits < 200, "a register is a few dozen bits, not unbounded");
    }

    #[test]
    fn register_bits_sizes_the_pointer_for_its_maximum() {
        // pref 2 + pointer + (K+1)·21 + n·⌈log₂ 3K⌉ at m = 10⁶, n = 2: the
        // pointer ranges over 0..=K, so K = 3 takes 2 bits and K = 7 three
        // (sizing it for the count K+1 charged one more).
        let bits = |k| RegisterLayout::new(2, k, 1_000_000).bits();
        assert_eq!(bits(2), 2 + 2 + 3 * 21 + 2 * 3);
        assert_eq!(bits(3), 2 + 2 + 4 * 21 + 2 * 4);
        assert_eq!(bits(4), 2 + 3 + 5 * 21 + 2 * 4);
        assert_eq!(bits(7), 2 + 3 + 8 * 21 + 2 * 5);
        // The committed arena/meter rows are K = 2: 73 and 91 bits.
        assert_eq!(RegisterLayout::new(2, 2, 1_000_000).bits(), 73);
        assert_eq!(RegisterLayout::new(8, 2, 1_000_000).bits(), 91);
    }
}
