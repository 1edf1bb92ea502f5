//! Offline stand-in for `rand` 0.8: the surface the repository uses —
//! `rngs::StdRng`, `SeedableRng::{from_seed, seed_from_u64}`,
//! `Rng::{gen, gen_range, gen_bool}`, `seq::SliceRandom::shuffle`.
//!
//! It is modelled on rand 0.8.5 so that the *cost* of randomness in a
//! benchmark run is of the right order: `StdRng` is a ChaCha12 block
//! generator refilled four blocks at a time, `seed_from_u64` expands the
//! seed with PCG32, integer ranges use widening-multiply rejection and
//! floats the 53/24-bit mantissa conversions. The ChaCha core here is
//! scalar (the published crate uses SIMD), and streams are **not**
//! promised to be bit-identical to the published crate: numbers measured
//! through this stand-in are comparable with each other, not with a
//! build against crates.io.

pub mod rngs;
pub mod seq;

use std::ops::{Range, RangeInclusive};

/// The raw generator interface.
pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// A generator constructible from a fixed-size seed.
pub trait SeedableRng: Sized {
    type Seed: Default + AsMut<[u8]>;

    fn from_seed(seed: Self::Seed) -> Self;

    /// Expands a `u64` into a full seed with PCG32 (rand_core 0.6).
    fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6_364_136_223_846_793_005;
        const INC: u64 = 11_634_580_027_462_260_723;
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            let x = xorshifted.rotate_right(rot);
            chunk.copy_from_slice(&x.to_le_bytes()[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// A type `Rng::gen` can produce (rand's `Standard` distribution).
pub trait StandardSample: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl StandardSample for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl StandardSample for usize {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl StandardSample for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() as i32) < 0
    }
}

impl StandardSample for f32 {
    /// 24 random mantissa bits in `[0, 1)`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl StandardSample for f64 {
    /// 53 random mantissa bits in `[0, 1)`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A range `Rng::gen_range` can draw from.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform integer in `[low, high]` by widening multiply with rejection
/// of the biased zone (rand 0.8's `sample_single_inclusive`).
macro_rules! uniform_int {
    ($ty:ty, $unsigned:ty, $wide:ty, $next:ident) => {
        impl SampleRange<$ty> for RangeInclusive<$ty> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                let (low, high) = self.into_inner();
                assert!(low <= high, "cannot sample empty range");
                let range = (high.wrapping_sub(low) as $unsigned).wrapping_add(1);
                if range == 0 {
                    return rng.$next() as $ty;
                }
                let zone = (range << range.leading_zeros()).wrapping_sub(1);
                loop {
                    let v = rng.$next() as $unsigned;
                    let wide = <$wide>::from(v) * <$wide>::from(range);
                    let (hi, lo) = ((wide >> <$unsigned>::BITS) as $unsigned, wide as $unsigned);
                    if lo <= zone {
                        return low.wrapping_add(hi as $ty);
                    }
                }
            }
        }

        impl SampleRange<$ty> for Range<$ty> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                assert!(self.start < self.end, "cannot sample empty range");
                (self.start..=self.end - 1).sample_single(rng)
            }
        }
    };
}

uniform_int!(u32, u32, u64, next_u32);
uniform_int!(i32, u32, u64, next_u32);
uniform_int!(u64, u64, u128, next_u64);
uniform_int!(i64, u64, u128, next_u64);

/// Types drawn through a wider sampler of the same signedness.
macro_rules! uniform_int_via {
    ($ty:ty, $via:ty) => {
        impl SampleRange<$ty> for RangeInclusive<$ty> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                let (low, high) = self.into_inner();
                (low as $via..=high as $via).sample_single(rng) as $ty
            }
        }

        impl SampleRange<$ty> for Range<$ty> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                (self.start as $via..self.end as $via).sample_single(rng) as $ty
            }
        }
    };
}

uniform_int_via!(u8, u32);
uniform_int_via!(u16, u32);
uniform_int_via!(usize, u64);

/// Uniform float: a `[1, 2)` mantissa draw scaled into the range, the
/// half-open form rejecting a rounded-up `high`.
macro_rules! uniform_float {
    ($ty:ty, $bits:ty, $next:ident, $discard:expr, $exp_one:expr) => {
        impl SampleRange<$ty> for Range<$ty> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                let (low, high) = (self.start, self.end);
                assert!(low < high, "cannot sample empty range");
                let scale = high - low;
                assert!(scale.is_finite(), "range overflow");
                loop {
                    let value1_2 = <$ty>::from_bits((rng.$next() >> $discard) | $exp_one);
                    let res = (value1_2 - 1.0) * scale + low;
                    if res < high {
                        return res;
                    }
                }
            }
        }

        impl SampleRange<$ty> for RangeInclusive<$ty> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                let (low, high) = self.into_inner();
                assert!(low <= high, "cannot sample empty range");
                let max_rand = 1.0 - <$ty>::EPSILON;
                let mut scale = (high - low) / max_rand;
                assert!(scale.is_finite(), "range overflow");
                while scale * max_rand + low > high {
                    scale = <$ty>::from_bits(scale.to_bits() - 1);
                }
                let value1_2 = <$ty>::from_bits((rng.$next() >> $discard) | $exp_one);
                (value1_2 - 1.0) * scale + low
            }
        }
    };
}

uniform_float!(f32, u32, next_u32, 9, 127u32 << 23);
uniform_float!(f64, u64, next_u64, 12, 1023u64 << 52);

/// The user-facing generator interface, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    fn gen<T: StandardSample>(&mut self) -> T {
        T::sample(self)
    }

    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    /// When `p` is outside `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "p={p} is outside range [0.0, 1.0]"
        );
        if p == 1.0 {
            return true;
        }
        // 2^64 as f64; p < 1 keeps the product in u64 range.
        let p_int = (p * 18_446_744_073_709_551_616.0) as u64;
        self.next_u64() < p_int
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream_and_seeds_differ() {
        let a: Vec<u64> = (0..200)
            .map({
                let mut r = StdRng::seed_from_u64(7);
                move |_| r.gen()
            })
            .collect();
        let b: Vec<u64> = (0..200)
            .map({
                let mut r = StdRng::seed_from_u64(7);
                move |_| r.gen()
            })
            .collect();
        let c: u64 = StdRng::seed_from_u64(8).gen();
        assert_eq!(a, b);
        assert_ne!(a[0], c);
        // Crossing the 64-word buffer boundary must not repeat output.
        assert_ne!(a[31], a[32]);
    }

    /// RFC 7539 §2.3.2 runs 20 rounds; the 12-round core is checked
    /// through its structural properties instead: distinct blocks, and
    /// a mixed u32/u64 read order that never loses or duplicates words.
    #[test]
    fn mixed_width_reads_consume_the_same_words() {
        let mut words = StdRng::seed_from_u64(1);
        let w: Vec<u32> = (0..130).map(|_| words.gen()).collect();
        let mut mixed = StdRng::seed_from_u64(1);
        // 63 single words, then a u64 straddling the refill boundary.
        for expected in &w[..63] {
            assert_eq!(mixed.gen::<u32>(), *expected);
        }
        let straddle: u64 = mixed.gen();
        assert_eq!(straddle as u32, w[63]);
        assert_eq!((straddle >> 32) as u32, w[64]);
        assert_eq!(mixed.gen::<u32>(), w[65]);
    }

    #[test]
    fn ranges_stay_in_bounds_and_cover() {
        let mut r = StdRng::seed_from_u64(3);
        let mut seen = [false; 5];
        for _ in 0..1_000 {
            seen[r.gen_range(0..5usize)] = true;
            let x = r.gen_range(3..=4usize);
            assert!((3..=4).contains(&x));
            let f = r.gen_range(-0.5f32..=0.5);
            assert!((-0.5..=0.5).contains(&f));
            let u = r.gen_range(10u64..=20);
            assert!((10..=20).contains(&u));
            let g: f64 = r.gen();
            assert!((0.0..1.0).contains(&g));
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn gen_bool_tracks_its_probability() {
        let mut r = StdRng::seed_from_u64(4);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2_200..2_800).contains(&hits), "{hits}");
        assert!(r.gen_bool(1.0));
        assert!(!r.gen_bool(0.0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut StdRng::seed_from_u64(5));
        assert_ne!(v, (0..50).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
    }
}
