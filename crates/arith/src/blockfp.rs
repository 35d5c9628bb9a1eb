//! Block floating-point force accumulation.
//!
//! GRAPE-6 takes the sum of partial forces — across the six pipelines of a
//! chip, the four chips of a module, the eight modules of a board, and the
//! boards of a column — in a **block floating-point** format (paper §3.4):
//! the *exponent of the result is specified before the calculation starts*,
//! every summand is shifted to that exponent, and the summation itself is
//! plain integer addition performed by narrow fixed-point adders (FPGAs on
//! the module/board, integer units inside the chip).
//!
//! Consequences, all of which this module reproduces and tests:
//!
//! * integer addition is exact, associative and commutative ⇒ the summed
//!   force is **bit-identical for any partition of the j-particles over
//!   chips/modules/boards and for any summation order** — the paper calls
//!   this out as a major validation convenience;
//! * the only rounding is the initial shift of each partial force onto the
//!   block grid, and that rounding is independent of the summation order;
//! * a badly guessed exponent makes the sum overflow its 64-bit window, in
//!   which case the host must retry with a larger exponent ("for the initial
//!   calculation we sometimes need to repeat the force calculation a few
//!   times until we have a good guess").  Overflow is reported, never
//!   silently wrapped, so the retry loop in `grape6-core` can do its job.
//!
//! Two accumulators share that contract: [`BlockAccum`], one window with a
//! `Result` per add — the oracle — and [`LaneAccum`], `WIDTH` windows side
//! by side in one vector register for the batched kernel, where lane `k`
//! is one i-particle's accumulator and overflow goes to sticky per-lane
//! [`LaneFlags`].  Per lane the second is the first, bit for bit
//! (`simd::tests::lane_accum_flags_exactly_when_block_accum_errors_per_lane`).

use std::fmt;

use crate::simd::{Lanes, MAX_LANES};

/// Guard bits added on top of the magnitude estimate when guessing a block
/// exponent, so that a force that grows moderately between two timesteps
/// still fits the window without a retry.
pub const DEFAULT_GUARD_BITS: i32 = 3;

/// Errors surfaced by the block floating-point units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockFpError {
    /// A single partial force did not fit the declared window; the window
    /// exponent must be raised to at least the reported value.
    SummandOverflow {
        /// Minimal window exponent that would hold the summand.
        needed_exp: i32,
    },
    /// The running sum overflowed the 64-bit window.
    SumOverflow,
    /// Two partial sums with different block exponents cannot be merged.
    ExponentMismatch {
        /// Exponent of the left operand.
        left: i32,
        /// Exponent of the right operand.
        right: i32,
    },
}

impl fmt::Display for BlockFpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::SummandOverflow { needed_exp } => {
                write!(
                    f,
                    "partial force exceeds block window (needs exp ≥ {needed_exp})"
                )
            }
            Self::SumOverflow => write!(f, "block floating-point sum overflowed its 64-bit window"),
            Self::ExponentMismatch { left, right } => {
                write!(
                    f,
                    "cannot merge block-FP words with exponents {left} and {right}"
                )
            }
        }
    }
}

impl std::error::Error for BlockFpError {}

/// Number of mantissa bits in the accumulation window (signed 64-bit word).
const MANT_BITS: i32 = 63;

/// A block floating-point accumulator: a 64-bit integer mantissa interpreted
/// as `mant · 2^(exp − 63)`, i.e. a window holding magnitudes `< 2^exp`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BlockAccum {
    exp: i32,
    mant: i64,
}

impl BlockAccum {
    /// Fresh accumulator with the given window exponent.
    #[inline]
    pub const fn new(exp: i32) -> Self {
        Self { exp, mant: 0 }
    }

    /// The window exponent.
    #[inline]
    pub const fn exp(self) -> i32 {
        self.exp
    }

    /// Raw integer mantissa (useful for bit-exactness assertions in tests).
    #[inline]
    pub const fn mant(self) -> i64 {
        self.mant
    }

    /// Pick a window exponent that holds a value of magnitude `mag` with
    /// [`DEFAULT_GUARD_BITS`] bits of headroom.  `mag = 0` yields a small
    /// default window; the retry loop will widen it if needed.
    #[inline]
    pub fn guess_exp(mag: f64) -> i32 {
        if mag == 0.0 || !mag.is_finite() {
            return -MANT_BITS + DEFAULT_GUARD_BITS;
        }
        min_exp_for(mag) + DEFAULT_GUARD_BITS
    }

    /// Shift `x` onto the block grid and add it.  One rounding (to nearest,
    /// ties to even) happens here; the addition itself is exact.
    #[inline]
    pub fn add(&mut self, x: f64) -> Result<(), BlockFpError> {
        let scaled = x * window_scale(self.exp);
        let q = scaled.round_ties_even();
        // Deliberately negated so NaN also takes the overflow path.
        #[allow(clippy::neg_cmp_op_on_partial_ord, clippy::excessive_precision)]
        if !(q.abs() < 9.223_372_036_854_775_8e18) {
            // |q| ≥ 2^63 (or NaN): the summand alone busts the window.
            return Err(BlockFpError::SummandOverflow {
                needed_exp: min_exp_for(x),
            });
        }
        let qi = q as i64;
        self.mant = self.mant.checked_add(qi).ok_or(BlockFpError::SumOverflow)?;
        Ok(())
    }

    /// Merge another partial sum (reduction-tree step).  Exact; fails only on
    /// window overflow or mismatched exponents.
    #[inline]
    pub fn merge(&mut self, other: &BlockAccum) -> Result<(), BlockFpError> {
        if self.exp != other.exp {
            return Err(BlockFpError::ExponentMismatch {
                left: self.exp,
                right: other.exp,
            });
        }
        self.mant = self
            .mant
            .checked_add(other.mant)
            .ok_or(BlockFpError::SumOverflow)?;
        Ok(())
    }

    /// Finish the accumulation, producing the transferable result word.
    #[inline]
    pub const fn finish(self) -> ForceWord {
        ForceWord {
            exp: self.exp,
            mant: self.mant,
        }
    }

    /// Current value as a double.
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.mant as f64 * exp2i(self.exp - MANT_BITS)
    }
}

/// The grid shift factor `2^(63 − exp)` of a window: [`BlockAccum::add`]
/// multiplies every summand by it before rounding, and a caller feeding
/// [`LaneAccum::add_rounded`] must pre-scale with exactly this value.
#[inline]
pub fn window_scale(exp: i32) -> f64 {
    exp2i(MANT_BITS - exp)
}

/// Sticky per-lane overflow state, shared by the [`LaneAccum`]s of one
/// group of lanes (the seven accumulators of a force pipeline): lane `k`
/// is flagged once any summand or running sum added *in lane `k`* has
/// left its 64-bit window, and stays flagged.
pub struct LaneFlags<L: Lanes> {
    /// Sign bit set in a lane once an `i64` add wrapped there.
    wrapped: L::I,
    /// Cleared in a lane once a summand failed `|q| < 2^63` there.
    fits: L::M,
}

impl<L: Lanes> LaneFlags<L> {
    /// No lane flagged.
    ///
    /// # Safety
    /// `L`'s ISA must be available on the running CPU.
    #[inline(always)]
    pub unsafe fn new() -> Self {
        let zero = L::splat_i(0);
        Self {
            wrapped: zero,
            fits: L::cmpeq_i(zero, zero),
        }
    }

    /// One bit per lane (bit `k` = lane `k`), set iff the lane is flagged.
    ///
    /// # Safety
    /// `L`'s ISA must be available on the running CPU.
    #[inline(always)]
    pub unsafe fn bits(&self) -> u32 {
        let wrapped = L::mask_bits(L::cmpgt_i(L::splat_i(0), self.wrapped));
        wrapped | (L::mask_bits(self.fits) ^ L::ALL)
    }
}

/// `L::WIDTH` block-FP accumulators side by side: lane `k` is one
/// [`BlockAccum`] mantissa, with its own window (the caller's per-lane
/// [`window_scale`]) and its own summand sequence.
///
/// Semantically each lane is [`BlockAccum::add`] — same grid, same single
/// round-to-nearest-even per summand, same exact integer addition, one
/// summand at a time in the caller's order — restructured for a tight
/// loop: the scale-and-round is the caller's (a lane multiply and a lane
/// round), and overflow is recorded in sticky [`LaneFlags`] instead of a
/// per-add `Result`, so the loop has no early exit and no branch.
///
/// The contract with the scalar path, **per lane**: for the summand
/// sequence fed to lane `k`, bit `k` of [`LaneFlags::bits`] is set **iff**
/// the equivalent sequence of `BlockAccum::add` calls returns an error
/// (it is set from the first failing prefix on, whatever later adds do),
/// and while it is clear the lane's mantissa is bit-identical.  A flagged
/// lane's mantissa is garbage (the conversion is unspecified out of range,
/// sums wrap) and must be discarded — the caller re-runs that i-particle
/// through the scalar oracle to recover the exact error value.
pub struct LaneAccum<L: Lanes> {
    mant: L::I,
}

impl<L: Lanes> LaneAccum<L> {
    /// All lanes zero.
    ///
    /// # Safety
    /// `L`'s ISA must be available on the running CPU.
    #[inline(always)]
    pub unsafe fn new() -> Self {
        Self {
            mant: L::splat_i(0),
        }
    }

    /// Add one summand per lane, already shifted onto the lane's grid:
    /// lane `k` of `q` must be `(x · window_scale(exp_k)).round_ties_even()`
    /// for the value `x` that lane accumulates.  Overflow — the oracle's
    /// own `!(|q| < 2^63)` predicate (NaN included), or the signed add
    /// wrapping, read off as the sign of `(acc ^ sum) & (q ^ sum)` — goes
    /// to `flags`.
    ///
    /// # Safety
    /// `L`'s ISA must be available on the running CPU.
    #[inline(always)]
    #[allow(clippy::excessive_precision)]
    pub unsafe fn add_rounded(&mut self, q: L::F, flags: &mut LaneFlags<L>) {
        let abs = L::from_bits(L::and_i(L::to_bits(q), L::splat_i(i64::MAX)));
        let fits = L::lt(abs, L::splat(9.223_372_036_854_775_8e18));
        let qi = L::f64_to_i64(q);
        let sum = L::add_i(self.mant, qi);
        let wrapped = L::and_i(L::xor_i(self.mant, sum), L::xor_i(qi, sum));
        flags.wrapped = L::or_i(flags.wrapped, wrapped);
        flags.fits = L::mask_and(flags.fits, fits);
        self.mant = sum;
    }

    /// The lanes as [`BlockAccum`]s, lane `k` under window `exps[k]`
    /// (entries at `L::WIDTH` and beyond are empty accumulators).  Only
    /// meaningful for lanes [`LaneFlags::bits`] reports clear.
    ///
    /// # Safety
    /// `L`'s ISA must be available on the running CPU.
    #[inline(always)]
    pub unsafe fn accums(self, exps: &[i32; MAX_LANES]) -> [BlockAccum; MAX_LANES] {
        let mut mant = [0i64; MAX_LANES];
        L::store_i(mant.as_mut_ptr(), self.mant);
        std::array::from_fn(|k| BlockAccum {
            exp: exps[k],
            mant: mant[k],
        })
    }
}

/// A finished block floating-point result as it travels up the reduction
/// network and back to the host: 64-bit mantissa plus the block exponent.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ForceWord {
    /// Block exponent of the window.
    pub exp: i32,
    /// Integer mantissa; value is `mant · 2^(exp − 63)`.
    pub mant: i64,
}

impl ForceWord {
    /// Convert to a double (what the host library hands to the integrator).
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.mant as f64 * exp2i(self.exp - MANT_BITS)
    }
}

/// Minimal window exponent whose grid can represent magnitude `mag`.
#[inline]
fn min_exp_for(mag: f64) -> i32 {
    if mag == 0.0 {
        return -MANT_BITS;
    }
    // Need 2^exp > |mag|, i.e. exp ≥ floor(log2|mag|) + 1.  An infinite
    // magnitude (summands past f64 range) saturates the cast to i32::MAX;
    // saturate the +1 too so the caller sees a huge window and reports
    // exponent divergence instead of tripping overflow checks here.
    let e = mag.abs().log2().floor() as i32;
    e.saturating_add(1)
}

/// `2^n` for possibly large |n|, without powi's domain quirks.
#[inline]
fn exp2i(n: i32) -> f64 {
    f64::from_bits((((1023 + n.clamp(-1022, 1023)) as u64) << 52).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp2i_matches_powi() {
        for n in -60..=60 {
            assert_eq!(exp2i(n), 2f64.powi(n), "n = {n}");
        }
    }

    #[test]
    fn sum_of_exact_values_is_exact() {
        let mut acc = BlockAccum::new(4); // window ±16, resolution 2^-59
        for x in [1.0, 2.5, -0.75, 3.125] {
            acc.add(x).unwrap();
        }
        assert_eq!(acc.to_f64(), 5.875);
    }

    #[test]
    fn order_independence_exhaustive_small() {
        // All 24 permutations of 4 awkward values give the same mantissa.
        let vals = [0.1, -7.3e-3, 2.9999, -1.0e-4];
        let perms = permutations(&vals);
        let reference = sum_mant(&vals, 2);
        for p in perms {
            assert_eq!(sum_mant(&p, 2), reference, "permutation {p:?}");
        }
    }

    #[test]
    fn partition_independence() {
        // Summing in one accumulator vs. two merged halves is bit-identical.
        let vals: Vec<f64> = (0..64)
            .map(|i| ((i * 2654435761u64 % 1000) as f64 - 500.0) * 1e-3)
            .collect();
        let exp = 4;
        let whole = sum_mant(&vals, exp);
        for split in [1usize, 7, 13, 32, 63] {
            let mut left = BlockAccum::new(exp);
            let mut right = BlockAccum::new(exp);
            for &v in &vals[..split] {
                left.add(v).unwrap();
            }
            for &v in &vals[split..] {
                right.add(v).unwrap();
            }
            left.merge(&right).unwrap();
            assert_eq!(left.mant(), whole, "split at {split}");
        }
    }

    #[test]
    fn summand_overflow_reports_needed_exponent() {
        let mut acc = BlockAccum::new(0); // window ±1
        let err = acc.add(8.0).unwrap_err();
        match err {
            BlockFpError::SummandOverflow { needed_exp } => {
                assert!(needed_exp >= 4, "needed_exp = {needed_exp}");
                // Retrying with the reported exponent succeeds.
                let mut acc2 = BlockAccum::new(needed_exp);
                acc2.add(8.0).unwrap();
                assert_eq!(acc2.to_f64(), 8.0);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn sum_overflow_detected() {
        let mut acc = BlockAccum::new(1); // window ±2
        acc.add(1.9).unwrap();
        // Each summand fits, but the running total exceeds the window.
        let r1 = acc.add(1.9);
        assert_eq!(r1, Err(BlockFpError::SumOverflow));
    }

    #[test]
    fn exponent_mismatch_refused() {
        let mut a = BlockAccum::new(3);
        let b = BlockAccum::new(4);
        assert!(matches!(
            a.merge(&b),
            Err(BlockFpError::ExponentMismatch { left: 3, right: 4 })
        ));
    }

    #[test]
    fn guess_exp_gives_headroom() {
        let mag = 0.37;
        let exp = BlockAccum::guess_exp(mag);
        let mut acc = BlockAccum::new(exp);
        // 2^GUARD worth of same-sign summands fit.
        for _ in 0..(1 << DEFAULT_GUARD_BITS) {
            acc.add(mag * 0.99).unwrap();
        }
    }

    #[test]
    fn shift_rounding_error_is_half_grid() {
        let exp = 2; // resolution 2^-61
        let x = 1.0 + 2f64.powi(-62); // below resolution
        let mut acc = BlockAccum::new(exp);
        acc.add(x).unwrap();
        assert_eq!(acc.to_f64(), 1.0);
    }

    #[test]
    fn force_word_roundtrip() {
        let mut acc = BlockAccum::new(5);
        acc.add(-11.375).unwrap();
        let w = acc.finish();
        assert_eq!(w.to_f64(), acc.to_f64());
        assert_eq!(w.exp, 5);
    }

    fn sum_mant(vals: &[f64], exp: i32) -> i64 {
        let mut acc = BlockAccum::new(exp);
        for &v in vals {
            acc.add(v).unwrap();
        }
        acc.mant()
    }

    fn permutations(v: &[f64; 4]) -> Vec<Vec<f64>> {
        let mut out = Vec::new();
        for a in 0..4 {
            for b in 0..4 {
                for c in 0..4 {
                    for d in 0..4 {
                        let idx = [a, b, c, d];
                        let mut seen = [false; 4];
                        if idx.iter().all(|&i| !std::mem::replace(&mut seen[i], true)) {
                            out.push(idx.iter().map(|&i| v[i]).collect());
                        }
                    }
                }
            }
        }
        assert_eq!(out.len(), 24);
        out
    }
}
