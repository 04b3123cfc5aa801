//! Minimal seeded pseudo-random number generation for datasets and tests.
//!
//! The build environment has no network access, so the workspace cannot pull
//! `rand`/`rand_chacha` from crates.io. Every use of randomness in this
//! repository is *seeded and deterministic* — dataset generation and
//! randomized tests — so a small, well-understood generator is all that is
//! needed: [splitmix64] to expand a 64-bit seed into generator state, and
//! [xoshiro256++] (Blackman & Vigna) as the stream generator.
//!
//! The API deliberately mirrors the subset of `rand` the repository used
//! (`seed_from_u64`, `random_range`, `random_bool`) so call sites stay
//! idiomatic and a future return to `rand` would be mechanical.
//!
//! [splitmix64]: https://prng.di.unimi.it/splitmix64.c
//! [xoshiro256++]: https://prng.di.unimi.it/xoshiro256plusplus.c

use std::ops::{Range, RangeInclusive};

/// Expands a 64-bit seed into a well-mixed sequence (used for state
/// initialization; also a decent standalone generator for one-off mixing).
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A seeded xoshiro256++ generator.
///
/// Deterministic in its seed, `Clone` for reproducible branching streams.
/// Not cryptographically secure — it backs synthetic datasets and randomized
/// tests, nothing else.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator whose stream is fully determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// The next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
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

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform sample from `range` (see [`SampleRange`] for the supported
    /// range types). Panics on an empty range, like `rand` does.
    #[inline]
    pub fn random_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// `true` with probability `p` (rand-compatible signature).
    #[inline]
    pub fn random_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.next_f64() < p
    }
}

/// Range types [`Rng::random_range`] can sample from.
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draws one uniform sample.
    fn sample(self, rng: &mut Rng) -> Self::Output;
}

impl SampleRange for Range<f64> {
    type Output = f64;
    #[inline]
    fn sample(self, rng: &mut Rng) -> f64 {
        assert!(self.start < self.end, "empty range");
        // Multiplicative scaling keeps the result in [start, end) for all
        // finite bounds (u < 1 and IEEE rounding never exceeds `end`
        // when `end - start` is finite).
        let span = self.end - self.start;
        assert!(span.is_finite(), "range span must be finite");
        let v = self.start + rng.next_f64() * span;
        if v >= self.end {
            // Guard against rare upward rounding at the boundary.
            self.end - span * f64::EPSILON
        } else {
            v
        }
    }
}

/// Samples a uniform integer in `[0, bound)` without modulo bias
/// (Lemire's multiply-then-widen rejection method).
#[inline]
fn bounded_u64(rng: &mut Rng, bound: u64) -> u64 {
    assert!(bound > 0, "empty range");
    loop {
        let x = rng.next_u64();
        let m = (x as u128).wrapping_mul(bound as u128);
        let lo = m as u64;
        if lo >= bound || lo >= bound.wrapping_neg() % bound {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! impl_int_range {
    ($($ty:ty),*) => {$(
        impl SampleRange for Range<$ty> {
            type Output = $ty;
            #[inline]
            fn sample(self, rng: &mut Rng) -> $ty {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + bounded_u64(rng, span) as i128) as $ty
            }
        }
        impl SampleRange for RangeInclusive<$ty> {
            type Output = $ty;
            #[inline]
            fn sample(self, rng: &mut Rng) -> $ty {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range");
                let span = (end as i128 - start as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $ty;
                }
                (start as i128 + bounded_u64(rng, span + 1) as i128) as $ty
            }
        }
    )*};
}

impl_int_range!(u64, i64, usize, u32, i32, u8);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        let mut c = Rng::seed_from_u64(43);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn xoshiro_reference_vector() {
        // Reference: xoshiro256++ seeded with s = [1, 2, 3, 4].
        let mut rng = Rng { s: [1, 2, 3, 4] };
        let expect: [u64; 5] = [
            41943041,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
        ];
        for e in expect {
            assert_eq!(rng.next_u64(), e);
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn float_range_respects_bounds() {
        let mut rng = Rng::seed_from_u64(9);
        for _ in 0..10_000 {
            let v = rng.random_range(-3.0..7.5);
            assert!((-3.0..7.5).contains(&v));
        }
    }

    #[test]
    fn int_ranges_cover_and_respect_bounds() {
        let mut rng = Rng::seed_from_u64(11);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.random_range(3usize..13);
            assert!((3..13).contains(&v));
            seen[v - 3] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values of a small range hit");
        for _ in 0..1000 {
            let v = rng.random_range(-5i64..=5);
            assert!((-5..=5).contains(&v));
        }
    }

    #[test]
    fn rough_uniformity() {
        let mut rng = Rng::seed_from_u64(13);
        let n = 40_000;
        let buckets = 8;
        let mut counts = vec![0usize; buckets];
        for _ in 0..n {
            counts[rng.random_range(0usize..buckets)] += 1;
        }
        let expect = n / buckets;
        for c in counts {
            assert!(
                (c as i64 - expect as i64).unsigned_abs() < (expect / 5) as u64,
                "bucket count {c} far from {expect}"
            );
        }
    }

    #[test]
    #[should_panic]
    fn empty_range_panics() {
        let mut rng = Rng::seed_from_u64(1);
        let _ = rng.random_range(5usize..5);
    }
}
