//! In-tree stand-in for the part of `rand` 0.8.5 the BPRC crates use:
//! `rngs::SmallRng`, `SeedableRng::seed_from_u64`, and
//! `Rng::{gen, gen_range, gen_bool}` for integer ranges, `bool`, `u32`,
//! `u64` and `f64`.
//!
//! The generator is xoshiro256++ seeded through SplitMix64 and the sampling
//! rules (widening-multiply rejection for ranges, top bit for `bool`, 53
//! mantissa bits for `f64`) are written after rand 0.8.5 on 64-bit targets.
//! The stream fixes every coin flip and schedule of the benchmark, so it is
//! part of the benchmark: changing it re-baselines `steps_per_op`.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// The two raw draws everything else is built from.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Seeding from a `u64`.
pub trait SeedableRng: Sized {
    /// Expands `state` into a full generator state.
    fn seed_from_u64(state: u64) -> Self;
}

pub mod rngs {
    //! Generators.

    use super::{RngCore, SeedableRng};

    /// xoshiro256++ (Blackman–Vigna).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(mut state: u64) -> Self {
            // SplitMix64, one output per state word.
            let mut s = [0u64; 4];
            for word in &mut s {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                *word = z ^ (z >> 31);
            }
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        fn next_u32(&mut self) -> u32 {
            // The low bits of xoshiro256++ are the weaker ones.
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            out
        }
    }
}

/// Types `Rng::gen` can produce.
pub trait Standard: Sized {
    /// Draws one value.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u32 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for u64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for usize {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Standard for bool {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // Most significant bit.
        (rng.next_u32() as i32) < 0
    }
}

impl Standard for f64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits: uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Integer types `Rng::gen_range` can sample.
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform draw from `low..=high`.
    ///
    /// # Panics
    ///
    /// Panics if `low > high`.
    fn sample_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
    /// `self - 1`, to turn an exclusive end into an inclusive one.
    fn pred(self) -> Self;
}

/// `$ty` is sampled through draws of the unsigned `$large` (32 bits for
/// types up to 32 bits wide, 64 bits otherwise) by widening multiply with
/// rejection of the biased tail.
macro_rules! sample_uniform_int {
    ($ty:ty, $unsigned:ty, $large:ty, $wide:ty) => {
        impl SampleUniform for $ty {
            fn sample_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
                assert!(low <= high, "cannot sample empty range");
                let range = high.wrapping_sub(low).wrapping_add(1) as $unsigned as $large;
                if range == 0 {
                    // The whole type.
                    return <$large as Standard>::draw(rng) as $ty;
                }
                let zone = (range << range.leading_zeros()).wrapping_sub(1);
                loop {
                    let v = <$large as Standard>::draw(rng);
                    let m = (v as $wide) * (range as $wide);
                    let (hi, lo) = ((m >> <$large>::BITS) as $large, m as $large);
                    if lo <= zone {
                        return low.wrapping_add(hi as $ty);
                    }
                }
            }

            fn pred(self) -> Self {
                self - 1
            }
        }
    };
}

sample_uniform_int!(u32, u32, u32, u64);
sample_uniform_int!(i32, u32, u32, u64);
sample_uniform_int!(u64, u64, u64, u128);
sample_uniform_int!(i64, u64, u64, u128);
sample_uniform_int!(usize, usize, u64, u128);

/// Range forms `Rng::gen_range` accepts.
pub trait SampleRange<T> {
    /// Uniform draw from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "cannot sample empty range");
        T::sample_inclusive(self.start, self.end.pred(), rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_inclusive(*self.start(), *self.end(), rng)
    }
}

/// The user-facing sampling methods, available on every [`RngCore`].
pub trait Rng: RngCore {
    /// A value of any [`Standard`] type.
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// A uniform draw from `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} is outside [0, 1]");
        if p == 1.0 {
            return true;
        }
        // 2^64 as f64; the product truncates to the 64-bit threshold.
        let threshold = (p * 18_446_744_073_709_551_616.0) as u64;
        self.next_u64() < threshold
    }
}

impl<R: RngCore + ?Sized> Rng for R {}
