//! Offline stand-in for the subset of the `rand` 0.9 API used by this
//! workspace.
//!
//! The build environment cannot reach crates.io, so the workspace
//! path-replaces the `rand` dependency with this crate. It provides:
//!
//! - [`RngCore`] / [`SeedableRng`] / [`Rng`] with `random_range`,
//!   `random_bool`, and `random`,
//! - [`rngs::StdRng`]: a xoshiro256++ generator seeded through SplitMix64
//!   (NOT the upstream ChaCha12 — streams differ from upstream `rand`, but
//!   every consumer in this workspace only relies on determinism for a
//!   fixed seed, never on matching upstream byte streams),
//! - [`seq::SliceRandom::shuffle`] (Fisher–Yates).
//!
//! It has no distinct-index sampler: every Δ-subset draw in the workspace
//! goes through `sparsimatch_core::sampler::PosArraySampler`, the
//! deterministic O(Δ) sampler of the paper's Section 3.1.
//!
//! Uniform integer ranges use the widening-multiply method. Its modulo
//! bias is at most 2^-32 for the range sizes used here (all well below
//! 2^32), which is far below anything the statistical assertions in the
//! test suite can detect.

/// Core trait: a source of random `u64`s (mirrors `rand::RngCore`).
pub trait RngCore {
    /// Next raw 64-bit output.
    fn next_u64(&mut self) -> u64;

    /// Next raw 32-bit output (upper half of `next_u64`).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fill `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }

    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// Seedable generators (mirrors `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Raw seed type.
    type Seed: Default + AsMut<[u8]>;

    /// Construct from a raw seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Construct from a `u64` by expanding it with SplitMix64, exactly
    /// one byte-stream per input value.
    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            let bytes = splitmix64(&mut state).to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform integer in `[0, bound)` via widening multiply.
#[inline]
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    ((rng.next_u64() as u128 * bound as u128) >> 64) as u64
}

/// Uniform `f64` in `[0, 1)` with 53 bits of precision.
#[inline]
fn uniform_unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Ranges that can be sampled from (mirrors `rand::distr::uniform::SampleRange`).
pub trait SampleRange<T> {
    /// Draw one uniform value; panics on an empty range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(uniform_below(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let span = (end as u64).wrapping_sub(start as u64).wrapping_add(1);
                if span == 0 {
                    // Full u64 domain: every output is in range.
                    return rng.next_u64() as $t;
                }
                start.wrapping_add(uniform_below(rng, span) as $t)
            }
        }
    )*};
}

impl_int_sample_range!(u8, u16, u32, u64, usize, i32, i64);

impl SampleRange<f64> for core::ops::Range<f64> {
    #[inline]
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let v = self.start + (self.end - self.start) * uniform_unit_f64(rng);
        // Guard against rounding up onto the excluded endpoint.
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

impl SampleRange<f64> for core::ops::RangeInclusive<f64> {
    #[inline]
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (start, end) = (*self.start(), *self.end());
        assert!(start <= end, "cannot sample empty range");
        start + (end - start) * uniform_unit_f64(rng)
    }
}

/// Types producible by [`Rng::random`] (stands in for sampling from
/// `rand`'s `StandardUniform` distribution).
pub trait Standard: Sized {
    /// Draw one value.
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for usize {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Standard for bool {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        uniform_unit_f64(rng)
    }
}

/// Convenience methods over any [`RngCore`] (mirrors `rand::Rng`).
pub trait Rng: RngCore {
    /// Uniform value from a range; panics if the range is empty.
    #[inline]
    fn random_range<T, B: SampleRange<T>>(&mut self, range: B) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    fn random_bool(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            true
        } else if p <= 0.0 {
            false
        } else {
            uniform_unit_f64(self) < p
        }
    }

    /// A uniform value of type `T`.
    #[inline]
    fn random<T: Standard>(&mut self) -> T {
        T::standard_sample(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    //! Concrete generators.

    use super::{splitmix64, RngCore, SeedableRng};

    /// The workspace's standard seedable generator: xoshiro256++.
    ///
    /// Not the upstream ChaCha12 `StdRng` — the byte stream differs from
    /// crates.io `rand`, but it is deterministic per seed, which is the
    /// only property the workspace relies on.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, word) in s.iter_mut().enumerate() {
                *word = u64::from_le_bytes(seed[i * 8..(i + 1) * 8].try_into().unwrap());
            }
            if s == [0, 0, 0, 0] {
                // All-zero is xoshiro's fixed point; remap it.
                let mut st = 0xDEAD_BEEF_CAFE_F00Du64;
                for word in s.iter_mut() {
                    *word = splitmix64(&mut st);
                }
            }
            StdRng { s }
        }
    }
}

pub mod seq {
    //! Sequence-related helpers (mirrors `rand::seq`).

    use super::{uniform_below, RngCore};

    /// Shuffling for slices (mirrors `rand::seq::SliceRandom`).
    pub trait SliceRandom {
        /// Uniform in-place Fisher–Yates shuffle.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = uniform_below(rng, i as u64 + 1) as usize;
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x = rng.random_range(3usize..17);
            assert!((3..17).contains(&x));
            let y = rng.random_range(0.0f64..2.5);
            assert!((0.0..2.5).contains(&y));
            let z = rng.random_range(5u32..=5);
            assert_eq!(z, 5);
        }
    }

    #[test]
    fn range_values_cover_support() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[rng.random_range(0usize..10)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn random_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(rng.random_bool(1.0));
        assert!(!rng.random_bool(0.0));
        let hits = (0..10_000).filter(|_| rng.random_bool(0.5)).count();
        assert!((4_000..6_000).contains(&hits), "p=0.5 gave {hits}/10000");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn works_through_dyn_rngcore() {
        let mut rng = StdRng::seed_from_u64(6);
        let dyn_rng: &mut dyn RngCore = &mut rng;
        let x = dyn_rng.random_range(0usize..10);
        assert!(x < 10);
        let _: u64 = dyn_rng.random();
    }
}
