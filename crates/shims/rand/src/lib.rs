//! Offline drop-in stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the narrow API surface it actually uses: [`rngs::StdRng`]
//! seeded through [`SeedableRng::seed_from_u64`], and the [`Rng`]
//! extension methods `gen`, `gen_range` and `gen_bool`.
//!
//! The generator is xoshiro256** seeded via SplitMix64 — different
//! constants than upstream `StdRng` (ChaCha12), so absolute random
//! streams differ from the real crate, but every reproducibility
//! property the workspace relies on (same seed ⇒ same stream, distinct
//! seeds ⇒ decorrelated streams) holds.

/// Low-level entropy source: everything derives from `next_u64`.
pub trait RngCore {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

/// Deterministic construction from a seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that can be sampled uniformly over their full domain by
/// [`Rng::gen`].
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u32 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for u64 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for usize {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Standard for bool {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f32 {
    /// Uniform in `[0, 1)` with 24 bits of mantissa entropy.
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of mantissa entropy.
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Types with uniform sampling over a caller-supplied range.
pub trait SampleUniform: Sized + PartialOrd + Copy {
    /// Uniform draw from `[lo, hi)`; `hi` is exclusive.
    fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;

    /// Uniform draw from `[lo, hi]`; `hi` is inclusive.
    fn sample_closed<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                assert!(lo < hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128) as u128;
                // Multiply-shift keeps the draw unbiased enough for
                // simulation workloads without a rejection loop.
                let draw = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (lo as i128 + draw) as $t
            }

            fn sample_closed<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let draw = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (lo as i128 + draw) as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_sample_uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                assert!(lo < hi, "gen_range: empty range");
                let u = <$t as Standard>::from_rng(rng);
                let v = lo + u * (hi - lo);
                // Guard against rounding up to the excluded endpoint.
                if v >= hi { lo } else { v }
            }

            fn sample_closed<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                assert!(lo <= hi, "gen_range: empty range");
                let u = <$t as Standard>::from_rng(rng);
                lo + u * (hi - lo)
            }
        }
    )*};
}

impl_sample_uniform_float!(f32, f64);

/// Range forms accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for core::ops::Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_half_open(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for core::ops::RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_closed(*self.start(), *self.end(), rng)
    }
}

/// Convenience extension methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// A uniform draw over the full domain of `T`.
    fn gen<T: Standard>(&mut self) -> T {
        T::from_rng(self)
    }

    /// A uniform draw from `range`.
    fn gen_range<T: SampleUniform, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_from(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256**
    /// state-seeded with SplitMix64.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl StdRng {
        /// The generator's full internal state, for checkpointing.
        /// Restoring it with [`StdRng::from_state`] resumes the stream
        /// exactly where it left off.
        pub fn state(&self) -> [u64; 4] {
            self.s
        }

        /// Rebuilds a generator from a previously captured state.
        pub fn from_state(s: [u64; 4]) -> Self {
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
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
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn state_capture_and_restore_resume_the_stream() {
        let mut a = StdRng::seed_from_u64(9);
        for _ in 0..13 {
            a.gen::<u64>();
        }
        let snapshot = a.state();
        let expected: Vec<u64> = (0..32).map(|_| a.gen()).collect();
        let mut b = StdRng::from_state(snapshot);
        let resumed: Vec<u64> = (0..32).map(|_| b.gen()).collect();
        assert_eq!(expected, resumed);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn unit_floats_stay_in_range() {
        let mut r = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x: f32 = r.gen();
            assert!((0.0..1.0).contains(&x));
            let y: f64 = r.gen();
            assert!((0.0..1.0).contains(&y));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = StdRng::seed_from_u64(4);
        for _ in 0..10_000 {
            let i = r.gen_range(3usize..17);
            assert!((3..17).contains(&i));
            let j = r.gen_range(0u64..=5);
            assert!(j <= 5);
            let f = r.gen_range(-2.0f32..3.0);
            assert!((-2.0..3.0).contains(&f));
        }
    }

    #[test]
    fn gen_range_covers_the_domain() {
        let mut r = StdRng::seed_from_u64(5);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[r.gen_range(0usize..10)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = StdRng::seed_from_u64(6);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "hits {hits}");
    }
}
