//! Offline stand-in for the `rand` crate.
//!
//! Supplies a deterministic, seedable [`rngs::StdRng`] (xoshiro256++ seeded
//! through [`splitmix64`]) and the small extension-trait surface this
//! workspace uses: `random::<T>()`, `random_range(..)`, and slice `shuffle`.
//!
//! [`splitmix64`] is also the workspace's one small stateless-seeded
//! stream: topology fingerprints, fault schedules and reconnect jitter all
//! draw from it, so each keeps the exact bits it has always had.

/// SplitMix64's increment, ⌊2⁶⁴/φ⌋: consecutive multiples of it are spread
/// evenly over the 64-bit range, which is why callers also use it to mix a
/// rank or an index into a seed.
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 (Steele, Lea and Flood 2014): advances `state` by
/// [`GOLDEN_GAMMA`] and returns the mixed new state.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN_GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A source of random 64-bit words.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Construction of generators from integer seeds.
pub trait SeedableRng: Sized {
    /// Builds a generator whose full state is derived from `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Concrete generator types.
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256++ with SplitMix64
    /// state expansion. Deterministic for a given seed.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let s = [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ];
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let [s0, s1, s2, s3] = self.s;
            let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
            let t = s1 << 17;
            let mut s = [s0, s1, s2, s3];
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            self.s = s;
            result
        }
    }
}

/// Types that can be sampled uniformly from raw random bits.
pub trait RandomValue: Sized {
    /// Draws one value from `rng`.
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl RandomValue for f64 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 high bits → uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl RandomValue for f32 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl RandomValue for bool {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl RandomValue for u64 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl RandomValue for u32 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl RandomValue for usize {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

/// Ranges that can be sampled uniformly.
pub trait RangeSample {
    /// The element type produced.
    type Output;
    /// Draws one value in the range from `rng`.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> Self::Output;
}

fn uniform_u64<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    // Rejection sampling to avoid modulo bias.
    let zone = u64::MAX - (u64::MAX - span + 1) % span;
    loop {
        let v = rng.next_u64();
        if v <= zone {
            return v % span;
        }
    }
}

macro_rules! int_range_sample {
    ($($t:ty),+) => {$(
        impl RangeSample for std::ops::Range<$t> {
            type Output = $t;
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty random_range");
                let span = (self.end - self.start) as u64;
                self.start + uniform_u64(rng, span) as $t
            }
        }
        impl RangeSample for std::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty random_range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + uniform_u64(rng, span + 1) as $t
            }
        }
    )+};
}

int_range_sample!(usize, u64, u32);

impl RangeSample for std::ops::Range<f64> {
    type Output = f64;
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty random_range");
        self.start + f64::from_rng(rng) * (self.end - self.start)
    }
}

/// Convenience sampling methods, blanket-implemented for every generator.
pub trait RngExt: RngCore {
    /// Draws a uniformly distributed value of type `T`.
    fn random<T: RandomValue>(&mut self) -> T {
        T::from_rng(self)
    }

    /// Draws a value uniformly from `range`.
    fn random_range<S: RangeSample>(&mut self, range: S) -> S::Output {
        range.sample(self)
    }
}

impl<R: RngCore + ?Sized> RngExt for R {}

/// Sequence-related helpers.
pub mod seq {
    use super::{RngCore, RngExt};

    /// In-place random reordering of slices.
    pub trait SliceRandom {
        /// Shuffles the slice with a Fisher–Yates pass.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.random_range(0..=i);
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{RngCore, RngExt, SeedableRng};

    /// The seeded streams behind jumble order and the datagen inputs:
    /// their first draws, pinned as literals.
    #[test]
    fn seeded_streams_are_pinned() {
        let draws = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            [rng.next_u64(), rng.next_u64(), rng.next_u64()]
        };
        assert_eq!(
            draws(1),
            [
                14971601782005023387,
                13781649495232077965,
                1847458086238483744
            ]
        );
        assert_eq!(
            draws(7),
            [
                1021219803524665661,
                3174977118032272916,
                13236943193235544178
            ]
        );
    }

    #[test]
    fn deterministic_for_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn unit_floats_in_range() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let f: f64 = rng.random();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..1000 {
            let v = rng.random_range(3usize..17);
            assert!((3..17).contains(&v));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements should not shuffle to identity");
    }
}
