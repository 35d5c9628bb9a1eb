//! The pipeline's `x^(-3/2)` functional unit.
//!
//! The heart of the GRAPE force pipeline is a single hardware block that maps
//! `x = r² + ε²` to `x^(-3/2)` (one output feeds the acceleration terms; its
//! square root relative, `x^(-1/2)`, feeds the potential).  In silicon this
//! is a table lookup with piecewise-polynomial correction — there is no
//! divider or iterative square root in the pipeline, which is how one
//! interaction per cycle is sustained.
//!
//! [`RsqrtCubedUnit`] reproduces that structure: the argument is decomposed
//! as `x = m·4^k` with `m ∈ [1,4)`, the mantissa factor `m^(-3/2)` (and
//! `m^(-1/2)`) is evaluated by a second-order Taylor segment from a table of
//! `2^LOG2_SEGMENTS` entries, and the exponent factor `2^(-3k)` (resp.
//! `2^-k`) is applied exactly.  Like the silicon, the table is addressed
//! *directly by the mantissa bits*: half the segments cover the `[1, 2)`
//! binade and half cover `[2, 4)`, so the segment index is the binade bit
//! concatenated with the top mantissa bits — no divider even in the index
//! computation.  Each segment is one cache-line-sized record holding the
//! midpoint and both coefficient triples, so evaluating both outputs costs a
//! single table load.  The table is identical silicon in every chip, so the
//! simulator builds its contents once per process and size; a
//! [`RsqrtCubedUnit`] is a handle on that shared, immutable table.  With the
//! default 10-bit table the relative error is below `2^-26`, i.e. below the
//! pipeline's own rounding, matching the design rule that the functional
//! unit must not dominate the force error budget.
//!
//! `x ≤ 0` returns `0`, mirroring the hardware convention that makes the
//! self-interaction (`r = 0`, `ε = 0`) contribute zero force instead of NaN.

use std::sync::{Arc, OnceLock};

use crate::simd::MAX_LANES;

/// Default table size exponent (1024 segments over `[1, 4)`).
pub const DEFAULT_LOG2_SEGMENTS: u32 = 10;

/// One table segment: midpoint plus both Taylor coefficient triples, padded
/// and aligned so each lookup touches exactly one 64-byte cache line.
#[derive(Clone, Debug)]
#[repr(C, align(64))]
struct Segment {
    /// Segment midpoint `m0`.
    m0: f64,
    /// Taylor coefficients `(f, f', f''/2)` of `m^(-3/2)` at `m0`.
    c32: [f64; 3],
    /// Same for `m^(-1/2)` (potential path).
    c12: [f64; 3],
    _pad: f64,
}

// The SIMD gather in `eval_both_lanes` addresses the table as a flat
// array of f64 with a stride of 8 per segment — pin the layout down.
const _: () = assert!(std::mem::size_of::<Segment>() == 64);

/// Table-driven evaluator for `x^(-3/2)` and `x^(-1/2)`.
///
/// A cheap handle: every unit of one size shares one process-wide table
/// (built on first use), so cloning a unit — or a chip, or a 128-chip
/// machine — copies a pointer, not 64 KiB.
#[derive(Clone, Debug)]
pub struct RsqrtCubedUnit {
    /// Fused segment table, addressed by binade bit ‖ top mantissa bits.
    /// Always `2^log2_segments` entries: `eval_both_lanes` gathers through
    /// a raw pointer with an index masked to that width, so both fields
    /// stay private and are only ever set together, in `new`.
    seg: Arc<[Segment]>,
    /// Table size exponent this unit was built with.
    log2_segments: u32,
}

impl Default for RsqrtCubedUnit {
    fn default() -> Self {
        Self::new(DEFAULT_LOG2_SEGMENTS)
    }
}

// Supported table size exponents: one shared-table slot each.
const MIN_LOG2_SEGMENTS: u32 = 4;
const MAX_LOG2_SEGMENTS: u32 = 16;

/// Compute the `2^log2_segments` segment records.
fn build_table(log2_segments: u32) -> Arc<[Segment]> {
    let n = 1usize << log2_segments;
    let half = n / 2;
    (0..n)
        .map(|i| {
            // Binade-aligned segments: entries 0..n/2 tile [1, 2) uniformly,
            // entries n/2..n tile [2, 4).  The midpoint is exactly
            // representable (a dyadic rational well inside f64 precision).
            let m0 = if i < half {
                1.0 + (i as f64 + 0.5) / half as f64
            } else {
                2.0 + ((i - half) as f64 + 0.5) * 2.0 / half as f64
            };
            // f(m) = m^(-3/2): f' = -3/2 m^(-5/2), f'' = 15/4 m^(-7/2)
            let f = m0.powf(-1.5);
            // g(m) = m^(-1/2): g' = -1/2 m^(-3/2), g'' = 3/4 m^(-5/2)
            let g = m0.powf(-0.5);
            Segment {
                m0,
                c32: [f, -1.5 * f / m0, 0.5 * (15.0 / 4.0) * f / (m0 * m0)],
                c12: [g, -0.5 * g / m0, 0.5 * (3.0 / 4.0) * g / (m0 * m0)],
                _pad: 0.0,
            }
        })
        .collect()
}

/// The process-wide table of one size, built by whichever thread asks first.
fn shared_table(log2_segments: u32) -> Arc<[Segment]> {
    const SIZES: usize = (MAX_LOG2_SEGMENTS - MIN_LOG2_SEGMENTS + 1) as usize;
    static TABLES: [OnceLock<Arc<[Segment]>>; SIZES] = [const { OnceLock::new() }; SIZES];
    TABLES[(log2_segments - MIN_LOG2_SEGMENTS) as usize]
        .get_or_init(|| build_table(log2_segments))
        .clone()
}

impl RsqrtCubedUnit {
    /// A unit over the shared table of `2^log2_segments` entries (4–16
    /// supported).
    pub fn new(log2_segments: u32) -> Self {
        assert!(
            (MIN_LOG2_SEGMENTS..=MAX_LOG2_SEGMENTS).contains(&log2_segments),
            "table size exponent must be in 4..=16"
        );
        Self {
            seg: shared_table(log2_segments),
            log2_segments,
        }
    }

    /// Table size exponent this unit was built with.
    #[inline]
    pub fn log2_segments(&self) -> u32 {
        self.log2_segments
    }

    /// Number of table segments.
    #[inline]
    pub fn segments(&self) -> usize {
        self.seg.len()
    }

    /// Evaluate `x^(-3/2)` (force path).
    #[inline]
    pub fn eval_pow_m32(&self, x: f64) -> f64 {
        self.eval(x, true)
    }

    /// Evaluate `x^(-1/2)` (potential path).
    #[inline]
    pub fn eval_pow_m12(&self, x: f64) -> f64 {
        self.eval(x, false)
    }

    /// Evaluate both paths from **one** decomposition and table index.
    ///
    /// Returns `(x^(-3/2), x^(-1/2))`, bit-for-bit identical to calling
    /// [`eval_pow_m32`](Self::eval_pow_m32) and
    /// [`eval_pow_m12`](Self::eval_pow_m12) separately — the segment lookup
    /// and Taylor evaluation use exactly the same operations — but the
    /// argument is split and indexed once.  The lane kernel's per-lane
    /// fixup and slice tails go through here.
    #[inline]
    pub fn eval_both(&self, x: f64) -> (f64, f64) {
        if x <= 0.0 || !x.is_finite() {
            return (0.0, 0.0);
        }
        let (m, k) = split_pow4(x);
        let s = self.segment(m);
        let d = m - s.m0;
        (
            (s.c32[0] + d * (s.c32[1] + d * s.c32[2])) * pow2(-3 * k),
            (s.c12[0] + d * (s.c12[1] + d * s.c12[2])) * pow2(-k),
        )
    }

    /// Segment record for a mantissa `m ∈ [1, 4)`, addressed directly from
    /// the bit pattern: the low exponent bit selects the binade (`[1, 2)`
    /// has biased exponent 1023, `[2, 4)` has 1024) and the top mantissa
    /// bits select the segment within it.  No division, no float→int
    /// conversion — this is the table addressing the hardware uses.
    #[inline]
    fn segment(&self, m: f64) -> &Segment {
        let bits = m.to_bits();
        let half_bits = self.log2_segments - 1;
        let upper = (((bits >> 52) & 1) ^ 1) as usize;
        let frac = ((bits >> (52 - half_bits)) as usize) & ((1 << half_bits) - 1);
        &self.seg[(upper << half_bits) | frac]
    }

    #[inline]
    fn eval(&self, x: f64, cubed: bool) -> f64 {
        if x <= 0.0 || !x.is_finite() {
            return 0.0;
        }
        let (m, k) = split_pow4(x);
        let s = self.segment(m);
        let d = m - s.m0;
        if cubed {
            (s.c32[0] + d * (s.c32[1] + d * s.c32[2])) * pow2(-3 * k)
        } else {
            (s.c12[0] + d * (s.c12[1] + d * s.c12[2])) * pow2(-k)
        }
    }

    /// Worst relative error of the `x^(-3/2)` path over a dense sweep —
    /// used by tests and by the chip's self-check at construction.
    pub fn max_rel_error_m32(&self, samples: usize) -> f64 {
        let mut worst = 0.0f64;
        for i in 0..samples {
            // Sweep several binades to exercise the exponent logic.
            let x = 2f64.powf(-8.0 + 16.0 * (i as f64 + 0.5) / samples as f64);
            let approx = self.eval_pow_m32(x);
            let exact = x.powf(-1.5);
            worst = worst.max(((approx - exact) / exact).abs());
        }
        worst
    }
}

impl RsqrtCubedUnit {
    /// Lane-parallel [`eval_both`](Self::eval_both): decompose a whole
    /// vector of arguments, gather the fused 64-byte segment records for
    /// every lane, and run the two Taylor chains lanewise — bit-identical
    /// to the scalar evaluation on every lane.
    ///
    /// The fast path covers positive normal arguments whose exponent
    /// factors `2^(−3k)` / `2^(−k)` are normal (i.e. `k ∈ [−341, 340]`,
    /// which is every force-pass argument by ~270 binades); zeros,
    /// negatives, subnormals, NaN/inf and out-of-window exponents drop to
    /// a per-lane scalar [`eval_both`](Self::eval_both) fixup, so the
    /// contract holds for *arbitrary* bit patterns.  The table gather is
    /// in-bounds for every lane — special or not — because the index is
    /// masked to `2^log2_segments` entries by construction.
    ///
    /// # Safety
    /// `L`'s ISA must be available on the running CPU.
    #[inline(always)]
    pub unsafe fn eval_both_lanes<L: crate::simd::Lanes>(&self, x: L::F) -> (L::F, L::F) {
        let bits = L::to_bits(x);
        // bf = sign ‖ biased exponent: for positive x this *is* the biased
        // exponent; any negative x lands ≥ 2048 and fails the window test.
        let bf = L::shr_i(bits, 52);
        let one = L::splat_i(1);
        // k = ⌊e/2⌋ computed in the non-negative biased domain so a
        // logical shift suffices: ⌊(bf−1023)/2⌋ = ((bf+1) >> 1) − 512.
        let bf1 = L::add_i(bf, one);
        let k = L::sub_i(L::shr_i(bf1, 1), L::splat_i(512));
        let modd = L::and_i(bf1, one); // e − 2k ∈ {0, 1}
                                       // Fast-path window: positive normal ∧ k ∈ [−341, 340].
        let ok = L::mask_and(
            L::mask_and(
                L::cmpgt_i(bf, L::splat_i(0)),
                L::cmpgt_i(L::splat_i(2047), bf),
            ),
            L::mask_and(
                L::cmpgt_i(k, L::splat_i(-342)),
                L::cmpgt_i(L::splat_i(341), k),
            ),
        );
        // m ∈ [1, 4): the mantissa re-biased to exponent e − 2k, exactly
        // as `split_pow4` builds it.
        let m_bits = L::or_i(
            L::and_i(bits, L::splat_i(0x000f_ffff_ffff_ffff)),
            L::shl_i(L::add_i(L::splat_i(1023), modd), 52),
        );
        let m = L::from_bits(m_bits);
        // Segment index straight from the mantissa bits, as in `segment`:
        // inverted binade bit ‖ top mantissa bits — masked, so in-bounds
        // for every lane.
        let half_bits = self.log2_segments - 1;
        let upper = L::and_i(L::xor_i(L::shr_i(m_bits, 52), one), one);
        let frac = L::and_i(
            L::shr_i(m_bits, 52 - half_bits),
            L::splat_i((1i64 << half_bits) - 1),
        );
        let idx = L::or_i(L::shl_i(upper, half_bits), frac);
        // One segment record is 64 bytes = 8 doubles; gather each field.
        let off = L::shl_i(idx, 3);
        let base = self.seg.as_ptr() as *const f64;
        let m0 = L::gather(base, off);
        let c32_0 = L::gather(base, L::add_i(off, L::splat_i(1)));
        let c32_1 = L::gather(base, L::add_i(off, L::splat_i(2)));
        let c32_2 = L::gather(base, L::add_i(off, L::splat_i(3)));
        let c12_0 = L::gather(base, L::add_i(off, L::splat_i(4)));
        let c12_1 = L::gather(base, L::add_i(off, L::splat_i(5)));
        let c12_2 = L::gather(base, L::add_i(off, L::splat_i(6)));
        // Taylor chains in the scalar evaluation's exact op order (no FMA).
        let d = L::sub(m, m0);
        let p32 = L::add(c32_0, L::mul(d, L::add(c32_1, L::mul(d, c32_2))));
        let p12 = L::add(c12_0, L::mul(d, L::add(c12_1, L::mul(d, c12_2))));
        // Exponent factors 2^(−3k) and 2^(−k) built like `pow2`'s
        // from_bits arm (the window test guaranteed both are normal for
        // ok lanes; junk in the others is overwritten below).
        let zero = L::splat_i(0);
        let n32 = L::sub_i(zero, L::add_i(L::add_i(k, k), k));
        let n12 = L::sub_i(zero, k);
        let pw32 = L::from_bits(L::shl_i(L::add_i(L::splat_i(1023), n32), 52));
        let pw12 = L::from_bits(L::shl_i(L::add_i(L::splat_i(1023), n12), 52));
        let mut r32 = L::mul(p32, pw32);
        let mut r12 = L::mul(p12, pw12);
        let okb = L::mask_bits(ok);
        if okb != L::ALL {
            // Rare lanes outside the fast-path window: scalar fixup
            // through the reference evaluation, out of line.
            let mut xs = [0.0f64; MAX_LANES];
            let mut a32 = [0.0f64; MAX_LANES];
            let mut a12 = [0.0f64; MAX_LANES];
            L::store(xs.as_mut_ptr(), x);
            L::store(a32.as_mut_ptr(), r32);
            L::store(a12.as_mut_ptr(), r12);
            self.fix_lanes(okb ^ L::ALL, &xs, &mut a32, &mut a12);
            r32 = L::load(a32.as_ptr());
            r12 = L::load(a12.as_ptr());
        }
        (r32, r12)
    }

    /// Re-evaluate the lanes named in `bad` (bit `k` = lane `k`) one at a
    /// time through [`eval_both`](Self::eval_both).  Kept out of line and
    /// cold: inlined, its calls sit inside the caller's j-loop and every
    /// lane register live across them is kept in memory on the hot path.
    #[cold]
    #[inline(never)]
    fn fix_lanes(
        &self,
        mut bad: u32,
        xs: &[f64; MAX_LANES],
        a32: &mut [f64; MAX_LANES],
        a12: &mut [f64; MAX_LANES],
    ) {
        while bad != 0 {
            let lane = bad.trailing_zeros() as usize;
            (a32[lane], a12[lane]) = self.eval_both(xs[lane]);
            bad &= bad - 1;
        }
    }

    #[cfg(any(target_arch = "x86_64", test))]
    #[inline(always)]
    unsafe fn eval_slice_lanes<L: crate::simd::Lanes>(
        &self,
        xs: &[f64],
        out32: &mut [f64],
        out12: &mut [f64],
    ) {
        let n = xs.len();
        let mut i = 0;
        while i + L::WIDTH <= n {
            let v = L::load(xs.as_ptr().add(i));
            let (r32, r12) = self.eval_both_lanes::<L>(v);
            L::store(out32.as_mut_ptr().add(i), r32);
            L::store(out12.as_mut_ptr().add(i), r12);
            i += L::WIDTH;
        }
        for k in i..n {
            let (r32, r12) = self.eval_both(xs[k]);
            out32[k] = r32;
            out12[k] = r12;
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn eval_slice_avx2(&self, xs: &[f64], out32: &mut [f64], out12: &mut [f64]) {
        self.eval_slice_lanes::<crate::simd::Avx2>(xs, out32, out12)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq")]
    unsafe fn eval_slice_avx512(&self, xs: &[f64], out32: &mut [f64], out12: &mut [f64]) {
        self.eval_slice_lanes::<crate::simd::Avx512>(xs, out32, out12)
    }
}

impl RsqrtCubedUnit {
    /// Safe slice-shaped wrapper over the lane evaluation
    /// (`eval_both_lanes`): evaluates through the active SIMD level (tail
    /// through the scalar [`eval_both`](Self::eval_both)) and returns the
    /// level used, or `None` (outputs untouched) when SIMD dispatch is
    /// off or the architecture has no lane implementation — callers then
    /// run the scalar path themselves.
    pub fn eval_both_slice(
        &self,
        xs: &[f64],
        out32: &mut [f64],
        out12: &mut [f64],
    ) -> Option<crate::simd::SimdLevel> {
        assert_eq!(xs.len(), out32.len());
        assert_eq!(xs.len(), out12.len());
        #[cfg(target_arch = "x86_64")]
        {
            use crate::simd::{active_level, SimdLevel};
            match active_level() {
                Some(SimdLevel::Avx2) => {
                    // SAFETY: dispatch proved avx2 is available.
                    unsafe { self.eval_slice_avx2(xs, out32, out12) };
                    Some(SimdLevel::Avx2)
                }
                Some(SimdLevel::Avx512) => {
                    // SAFETY: dispatch proved avx512f+dq are available.
                    unsafe { self.eval_slice_avx512(xs, out32, out12) };
                    Some(SimdLevel::Avx512)
                }
                None => None,
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (xs, out32, out12);
            None
        }
    }
}

/// Decompose a positive finite `x` as `m · 4^k` with `m ∈ [1, 4)`, exactly.
///
/// The exponent is read straight from the bit pattern (the mantissa of a
/// normal float lies in `[1, 2)`, so the stored exponent *is*
/// `⌊log₂ x⌋`), and `m` is rebuilt by re-biasing that exponent to
/// `e − 2k ∈ {0, 1}` — no rounding anywhere, and no `log2` call in the
/// hot path.  Subnormals are first renormalised by an exact `2^54`.
#[inline]
fn split_pow4(x: f64) -> (f64, i32) {
    let (bits, shift) = {
        let b = x.to_bits();
        if b >> 52 == 0 {
            ((x * 18_014_398_509_481_984.0).to_bits(), 54) // × 2^54, exact
        } else {
            (b, 0)
        }
    };
    let e = ((bits >> 52) as i32) - 1023 - shift;
    let k = e.div_euclid(2);
    let m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | (((1023 + (e - 2 * k)) as u64) << 52));
    debug_assert!((1.0..4.0).contains(&m), "m = {m}");
    (m, k)
}

/// Exact power of two; falls back to `powi` outside the normal range.
#[inline]
fn pow2(n: i32) -> f64 {
    if (-1022..=1023).contains(&n) {
        f64::from_bits(((1023 + n) as u64) << 52)
    } else {
        2f64.powi(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_at_powers_of_four() {
        let u = RsqrtCubedUnit::default();
        for k in -4..=4 {
            let x = 4f64.powi(k);
            let got = u.eval_pow_m32(x);
            let want = x.powf(-1.5);
            assert!(
                ((got - want) / want).abs() < 1e-7,
                "x = {x}: got {got}, want {want}"
            );
        }
    }

    #[test]
    fn accuracy_below_pipeline_rounding() {
        let u = RsqrtCubedUnit::default();
        let err = u.max_rel_error_m32(20_000);
        assert!(
            err < 2f64.powi(-26),
            "table unit error {err:e} exceeds 2^-26"
        );
    }

    #[test]
    fn coarse_table_is_worse_fine_table_is_better() {
        let coarse = RsqrtCubedUnit::new(6);
        let fine = RsqrtCubedUnit::new(12);
        let ec = coarse.max_rel_error_m32(5_000);
        let ef = fine.max_rel_error_m32(5_000);
        assert!(ec > ef, "coarse {ec:e} should exceed fine {ef:e}");
        // Quadratic segments: halving the width cuts the error ~8x; 6 extra
        // bits of table should win at least a factor 100.
        assert!(ec / ef > 100.0);
    }

    #[test]
    fn potential_path_accuracy() {
        let u = RsqrtCubedUnit::default();
        for i in 0..5_000 {
            let x = 2f64.powf(-6.0 + 12.0 * (i as f64 + 0.5) / 5_000.0);
            let got = u.eval_pow_m12(x);
            let want = x.powf(-0.5);
            assert!(((got - want) / want).abs() < 2f64.powi(-26), "x = {x}");
        }
    }

    #[test]
    fn zero_and_negative_clamp_to_zero() {
        let u = RsqrtCubedUnit::default();
        assert_eq!(u.eval_pow_m32(0.0), 0.0);
        assert_eq!(u.eval_pow_m32(-1.0), 0.0);
        assert_eq!(u.eval_pow_m12(0.0), 0.0);
        assert_eq!(u.eval_pow_m32(f64::NAN), 0.0);
    }

    #[test]
    fn tiny_and_huge_arguments() {
        let u = RsqrtCubedUnit::default();
        for &x in &[1e-12f64, 1e12, 3.7e-9, 8.1e7] {
            let want = x.powf(-1.5);
            let got = u.eval_pow_m32(x);
            assert!(((got - want) / want).abs() < 1e-7, "x = {x:e}");
        }
    }

    #[test]
    fn split_is_exact_across_binade_boundaries() {
        // The exponent-window edges: exactly at a power of two, one ulp
        // below, and one ulp above.  The bit-extracted floor must place
        // each on the correct side (a libm `log2().floor()` may not).
        for e in [-1022i32, -600, -53, -2, -1, 0, 1, 2, 53, 600, 1023] {
            let p = if (-1022..=1023).contains(&e) {
                f64::from_bits(((1023 + e) as u64) << 52)
            } else {
                unreachable!()
            };
            for x in [p, next_down(p), next_up(p)] {
                // Subnormal neighbours are covered (in the log domain) by
                // `subnormal_inputs_decompose_exactly`; the 4^k
                // reconstruction below needs x and 4^k normal.
                if x < f64::MIN_POSITIVE || !x.is_finite() {
                    continue;
                }
                let (m, k) = split_pow4(x);
                assert!((1.0..4.0).contains(&m), "x = {x:e}: m = {m}");
                // Exact reconstruction: m · 4^k == x, bit for bit.
                let back = m * pow2(2 * k);
                assert_eq!(back.to_bits(), x.to_bits(), "x = {x:e}");
            }
        }
    }

    fn next_up(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    fn next_down(x: f64) -> f64 {
        f64::from_bits(x.to_bits() - 1)
    }

    #[test]
    fn smallest_and_largest_normal_inputs() {
        let u = RsqrtCubedUnit::default();
        // Largest normal: x^(-3/2) underflows f64 entirely — the unit must
        // return a clean 0 (the exact answer to f64 precision), not junk.
        assert_eq!(u.eval_pow_m32(f64::MAX), 0.0);
        // …while the shallower potential path still has a finite value.
        let pot = u.eval_pow_m12(f64::MAX);
        let want = 1.0 / f64::MAX.sqrt();
        assert!(((pot - want) / want).abs() < 1e-7, "pot = {pot:e}");
        // Smallest normal: x^(-3/2) overflows — saturate to +inf like the
        // exact computation does.
        assert!(u.eval_pow_m32(f64::MIN_POSITIVE).is_infinite());
        let pot = u.eval_pow_m12(f64::MIN_POSITIVE);
        let want = 1.0 / f64::MIN_POSITIVE.sqrt();
        assert!(((pot - want) / want).abs() < 1e-7, "pot = {pot:e}");
    }

    #[test]
    fn subnormal_inputs_decompose_exactly() {
        for x in [
            f64::from_bits(1),                     // smallest subnormal
            f64::from_bits(0xf_ffff),              // mid subnormal
            f64::from_bits(0x000f_ffff_ffff_ffff), // largest subnormal
        ] {
            let (m, k) = split_pow4(x);
            assert!((1.0..4.0).contains(&m), "x = {x:e}: m = {m}");
            // 4^k overflows pow2 for these, so check in the log domain.
            assert!(
                (m.log2() + 2.0 * k as f64 - x.log2()).abs() < 1e-9,
                "x = {x:e}"
            );
        }
        // The unit itself saturates: the exact x^(-1/2) of the smallest
        // subnormal is 2^537 — representable — and must come out close.
        let u = RsqrtCubedUnit::default();
        let x = f64::from_bits(1);
        let got = u.eval_pow_m12(x);
        let want = x.powf(-0.5);
        assert!(((got - want) / want).abs() < 1e-7, "got {got:e}");
    }

    #[test]
    fn segment_boundaries_stay_inside_the_error_bound() {
        // Every segment boundary in both binades, ± one ulp: the direct
        // bit-sliced index must keep the relative error inside the table
        // bound on both sides of each boundary (an off-by-one segment
        // selection would blow the quadratic remainder up).  Includes the
        // binade seam at m = 2 and the table wrap at m = 1 (one ulp below
        // lands in the last segment of [2, 4) one quartode down).
        let u = RsqrtCubedUnit::default();
        let half = u.segments() / 2;
        for s in 0..half {
            let lo = 1.0 + s as f64 / half as f64;
            let hi = 2.0 + s as f64 * 2.0 / half as f64;
            for x in [
                lo,
                next_up(lo),
                next_down(lo),
                hi,
                next_up(hi),
                next_down(hi),
            ] {
                let got = u.eval_pow_m32(x);
                let want = x.powf(-1.5);
                assert!(
                    ((got - want) / want).abs() < 2f64.powi(-26),
                    "boundary x = {x:e}"
                );
                let got12 = u.eval_pow_m12(x);
                let want12 = x.powf(-0.5);
                assert!(
                    ((got12 - want12) / want12).abs() < 2f64.powi(-26),
                    "boundary x = {x:e} (m12)"
                );
            }
        }
    }

    /// Dense sweep over 48 binades plus the window edges and degenerate
    /// inputs.
    fn sweep_inputs() -> Vec<f64> {
        let mut xs: Vec<f64> = (0..4_000)
            .map(|i| 2f64.powf(-24.0 + 48.0 * (i as f64 + 0.5) / 4_000.0))
            .collect();
        xs.extend_from_slice(&[
            f64::MIN_POSITIVE,
            f64::MAX,
            1.0,
            4.0,
            next_down(4.0),
            next_up(1.0),
            0.0,
            -3.0,
            f64::NAN,
            f64::INFINITY,
        ]);
        xs
    }

    #[test]
    fn eval_both_is_bitwise_identical_to_separate_evals() {
        let u = RsqrtCubedUnit::default();
        let xs = sweep_inputs();
        for x in xs {
            let (m32, m12) = u.eval_both(x);
            assert_eq!(
                m32.to_bits(),
                u.eval_pow_m32(x).to_bits(),
                "m32 path diverged at x = {x:e}"
            );
            assert_eq!(
                m12.to_bits(),
                u.eval_pow_m12(x).to_bits(),
                "m12 path diverged at x = {x:e}"
            );
        }
    }

    #[test]
    fn units_of_one_size_share_one_table() {
        let a = RsqrtCubedUnit::default();
        let b = RsqrtCubedUnit::default();
        let c = a.clone();
        assert!(Arc::ptr_eq(&a.seg, &b.seg), "two default() units");
        assert!(Arc::ptr_eq(&a.seg, &c.seg), "a clone");
        let small = RsqrtCubedUnit::new(6);
        assert!(!Arc::ptr_eq(&a.seg, &small.seg), "two sizes");
        assert_eq!(small.log2_segments(), 6);
        assert_eq!(small.segments(), 64);
        assert_eq!(a.segments(), 1 << DEFAULT_LOG2_SEGMENTS);
    }

    #[test]
    fn concurrent_first_use_yields_one_table() {
        // A size nothing else in this test binary asks for, so the threads
        // released by the barrier race the real first use.
        const LOG2: u32 = 13;
        let barrier = std::sync::Barrier::new(8);
        let units: Vec<RsqrtCubedUnit> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        RsqrtCubedUnit::new(LOG2)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("builder thread panicked"))
                .collect()
        });
        for u in &units {
            assert_eq!(u.segments(), 1 << LOG2);
            assert!(Arc::ptr_eq(&units[0].seg, &u.seg));
        }
    }

    #[test]
    fn shared_table_equals_a_privately_built_one() {
        let shared = RsqrtCubedUnit::default();
        let private = RsqrtCubedUnit {
            seg: build_table(DEFAULT_LOG2_SEGMENTS),
            log2_segments: DEFAULT_LOG2_SEGMENTS,
        };
        assert!(!Arc::ptr_eq(&shared.seg, &private.seg));
        for x in sweep_inputs() {
            let (s32, s12) = shared.eval_both(x);
            let (p32, p12) = private.eval_both(x);
            assert_eq!(s32.to_bits(), p32.to_bits(), "m32 at x = {x:e}");
            assert_eq!(s12.to_bits(), p12.to_bits(), "m12 at x = {x:e}");
        }
    }

    #[test]
    fn lane_gather_is_bitwise_identical_to_scalar_eval_both() {
        use crate::simd::Portable;
        type Eval = unsafe fn(&RsqrtCubedUnit, &[f64], &mut [f64], &mut [f64]);
        // Every lane instance this host can run: `Portable` always, the
        // x86 files only after their runtime check.
        #[allow(unused_mut)]
        let mut instances: Vec<(&str, Eval)> =
            vec![("portable", RsqrtCubedUnit::eval_slice_lanes::<Portable>)];
        #[cfg(target_arch = "x86_64")]
        {
            use crate::simd::{hardware_level, SimdLevel};
            let hw = hardware_level();
            if hw.is_some() {
                instances.push(("avx2", RsqrtCubedUnit::eval_slice_avx2));
            }
            if hw == Some(SimdLevel::Avx512) {
                instances.push(("avx512", RsqrtCubedUnit::eval_slice_avx512));
            }
        }
        // Default table and a non-default size (different index widths).
        for u in [RsqrtCubedUnit::default(), RsqrtCubedUnit::new(6)] {
            // Structured inputs: specials, segment/binade boundaries (both
            // sides, ± one ulp), subnormals, and exponents outside the
            // fast-path k-window (forcing the per-lane fixup).
            let mut xs: Vec<f64> = vec![
                0.0,
                -0.0,
                -1.0,
                f64::NAN,
                f64::from_bits(0x7ff8_dead_beef_0001), // NaN payload
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::MIN_POSITIVE,
                f64::MAX,
                f64::from_bits(1),
                f64::from_bits(0x000f_ffff_ffff_ffff),
                2f64.powi(700),  // k outside [−341, 340]
                2f64.powi(-700), // k outside [−341, 340]
                1.0,
                4.0,
                next_up(1.0),
                next_down(4.0),
            ];
            let half = u.segments() / 2;
            for s in (0..half).step_by((half / 8).max(1)) {
                for b in [
                    1.0 + s as f64 / half as f64,
                    2.0 + s as f64 * 2.0 / half as f64,
                ] {
                    xs.extend_from_slice(&[b, next_up(b), next_down(b)]);
                }
            }
            // Random bit patterns: every float class.
            let mut s: u64 = 0x243f_6a88_85a3_08d3;
            for _ in 0..50_000 {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                xs.push(f64::from_bits(s));
                // Biased toward force-pass magnitudes too.
                xs.push(f64::from_bits(
                    (s & 0x000f_ffff_ffff_ffff) | 0x3fe0_0000_0000_0000,
                ));
            }
            // A multiple of every lane width: nothing takes the scalar tail.
            xs.resize(xs.len().next_multiple_of(8), 1.5);
            let mut out32 = vec![0.0f64; xs.len()];
            let mut out12 = vec![0.0f64; xs.len()];
            for &(label, eval) in &instances {
                // SAFETY: `instances` lists only runnable lane files.
                unsafe { eval(&u, &xs, &mut out32, &mut out12) };
                for (k, &x) in xs.iter().enumerate() {
                    let (w32, w12) = u.eval_both(x);
                    assert_eq!(out32[k].to_bits(), w32.to_bits(), "{label} m32 x={x:e}");
                    assert_eq!(out12[k].to_bits(), w12.to_bits(), "{label} m12 x={x:e}");
                }
            }
        }
    }
}
