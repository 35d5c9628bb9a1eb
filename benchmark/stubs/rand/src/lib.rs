//! Offline stand-in for `rand` 0.8: the registry is unreachable where the
//! benchmark is built, so the benchmark patches in this crate.  It covers
//! exactly what the workspace's non-test code calls — `StdRng`,
//! `SeedableRng::seed_from_u64` and `Rng::gen_range` over `f64` ranges —
//! on a xoshiro256++ generator seeded through SplitMix64.  Streams differ
//! from the published ChaCha12 `StdRng`; every check in the benchmark is
//! self-relative (same binary, same seed), so only determinism matters.

use std::ops::Range;

/// Source of random 64-bit words.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Seedable generators.
pub trait SeedableRng: Sized {
    /// Expand a 64-bit seed into a full generator state.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types `Rng::gen_range` can sample uniformly from a half-open range.
pub trait SampleUniform: Sized {
    /// One sample in `[range.start, range.end)`.
    fn sample<R: RngCore + ?Sized>(range: Range<Self>, rng: &mut R) -> Self;
}

impl SampleUniform for f64 {
    fn sample<R: RngCore + ?Sized>(range: Range<f64>, rng: &mut R) -> f64 {
        assert!(range.start < range.end, "empty range");
        // 53 random mantissa bits → u in [0, 1).
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let x = range.start + (range.end - range.start) * u;
        if x < range.end {
            x
        } else {
            range.start
        }
    }
}

/// User-facing sampling methods, blanket-implemented for every source.
pub trait Rng: RngCore {
    /// Uniform sample from a half-open range.
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        T::sample(range, self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ (Blackman & Vigna), seeded through SplitMix64.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut z = seed;
            let mut next = || {
                z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                x ^ (x >> 31)
            };
            Self {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
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
