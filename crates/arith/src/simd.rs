//! The lane abstraction of the pipeline arithmetic, with runtime dispatch.
//!
//! The force pass is written **once**, generically over a [`Lanes`]
//! instance: a register file's worth of f64/i64 lanes and the exact
//! operations the pipeline needs on them.  Three instances exist —
//! [`Portable`] (4 lanes in plain arrays, runs on every host), and on
//! x86-64 the hand-rolled `core::arch` files `Avx2` (4 lanes) and `Avx512`
//! (8 lanes).  The hot helpers are generic too, and monomorphized under
//! `#[target_feature]` entry points for the x86 instances:
//!
//! * [`quantize_lanes_finite`], the force kernel's rounding — five lane
//!   ops, exact on finite values, ±inf and zero-payload NaNs, a domain the
//!   kernel proves once per batch and lane group;
//! * [`quantize_lanes`], its total twin with the NaN/±inf select (eight
//!   lane ops), behind [`quantize_slice`];
//! * the gathered `RsqrtCubedUnit::eval_both_lanes`;
//! * the block-FP lane accumulator [`LaneAccum`](crate::blockfp::LaneAccum).
//!
//! **Bitwise contract.** Every lane operation used here is either pure
//! integer manipulation (identical to scalar by definition) or an IEEE-754
//! f64 `add`/`sub`/`mul`/`round-to-nearest-even`/ordered `<`, which x86
//! vector units implement bit-identically to their scalar counterparts.
//! FMA is never used — the pipeline model rounds after *every* operation,
//! so a fused multiply-add would change bits.  Every instance is
//! therefore bit-identical to every other, and all are enforced
//! bit-identical to the scalar oracle.
//!
//! **Dispatch.** [`active_level`] combines one-time hardware detection
//! (`is_x86_feature_detected!`), the `GRAPE6_FORCE_SCALAR` environment
//! override, and a process-wide programmatic override
//! ([`set_dispatch_override`]) used by the bitwise tests to pin the
//! portable or the AVX2 instance on an AVX-512 host.  When no level is
//! active the callers run the [`Portable`] instance — same bits, narrower
//! lanes.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Vector ISA level the kernel can dispatch to, in increasing width.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum SimdLevel {
    /// 4 × f64 lanes (`avx2`).
    Avx2,
    /// 8 × f64 lanes (`avx512f` + `avx512dq`).
    Avx512,
}

impl SimdLevel {
    /// Stable lower-case name, used in benchmark variant labels.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }
}

/// Process-wide dispatch override, applied *on top of* detection — it can
/// only lower the active level, never enable an ISA the host lacks.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum DispatchOverride {
    /// Use whatever detection (and the environment) allows.
    #[default]
    Auto,
    /// Run the portable lanes even on SIMD-capable hosts.
    ForceScalar,
    /// Cap at AVX2 (runs the 4-wide x86 instance on an AVX-512 host).
    CapAvx2,
}

static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Set the process-wide [`DispatchOverride`].  Safe to call at any time:
/// all variants are bitwise identical, so a mid-run change can alter
/// timing but never results.
pub fn set_dispatch_override(o: DispatchOverride) {
    let v = match o {
        DispatchOverride::Auto => 0,
        DispatchOverride::ForceScalar => 1,
        DispatchOverride::CapAvx2 => 2,
    };
    OVERRIDE.store(v, Ordering::Relaxed);
}

/// The currently installed [`DispatchOverride`].
pub fn dispatch_override() -> DispatchOverride {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => DispatchOverride::ForceScalar,
        2 => DispatchOverride::CapAvx2,
        _ => DispatchOverride::Auto,
    }
}

/// Highest level the host supports, after the environment override.
/// Detection and environment are read once per process.
///
/// `GRAPE6_FORCE_SCALAR` — any value other than empty or `0` — disables
/// SIMD dispatch entirely (CI uses this to run the whole matrix through
/// the portable lanes on AVX-capable runners).
pub fn detected_level() -> Option<SimdLevel> {
    static DETECTED: OnceLock<Option<SimdLevel>> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        if matches!(std::env::var("GRAPE6_FORCE_SCALAR"), Ok(v) if !v.is_empty() && v != "0") {
            return None;
        }
        hardware_level()
    })
}

#[cfg(target_arch = "x86_64")]
pub(crate) fn hardware_level() -> Option<SimdLevel> {
    if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq") {
        Some(SimdLevel::Avx512)
    } else if is_x86_feature_detected!("avx2") {
        Some(SimdLevel::Avx2)
    } else {
        None
    }
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn hardware_level() -> Option<SimdLevel> {
    None
}

/// The level the kernel should dispatch to right now: detection capped by
/// the programmatic override.  `None` means "run the [`Portable`] lanes".
pub fn active_level() -> Option<SimdLevel> {
    let detected = detected_level()?;
    match dispatch_override() {
        DispatchOverride::Auto => Some(detected),
        DispatchOverride::ForceScalar => None,
        DispatchOverride::CapAvx2 => Some(detected.min(SimdLevel::Avx2)),
    }
}

/// Widest [`Lanes::WIDTH`] of any instance: the length of the stack arrays
/// callers stage lane values through.
pub const MAX_LANES: usize = 8;

/// One vector register file's worth of f64 lanes and the operations the
/// force pass needs on them.
///
/// Every method is `unsafe`: the caller must guarantee the implementing
/// ISA is available on the running CPU (the dispatchers in this crate
/// only reach the x86 instances through `#[target_feature]` entry points
/// selected by [`active_level`]; [`Portable`] needs no ISA) and that the
/// pointers handed to loads, stores and gathers are valid for `WIDTH`
/// elements.  All float methods are single-rounded IEEE-754 operations,
/// bit-identical to their scalar f64 counterparts; integer methods wrap
/// like the scalar `wrapping_*` family.  Shift counts are below 64.
#[allow(clippy::missing_safety_doc)] // blanket contract documented above
pub trait Lanes: Copy {
    /// Number of f64 lanes.
    const WIDTH: usize;
    /// `mask_bits` value when every lane is set.
    const ALL: u32;
    /// Float register type.
    type F: Copy;
    /// Integer register type (64-bit lanes).
    type I: Copy;
    /// Comparison mask type.
    type M: Copy;

    /// Broadcast a double into all lanes.
    unsafe fn splat(x: f64) -> Self::F;
    /// Broadcast an i64 into all lanes.
    unsafe fn splat_i(x: i64) -> Self::I;
    /// Unaligned load of `WIDTH` doubles.
    unsafe fn load(p: *const f64) -> Self::F;
    /// Unaligned store of `WIDTH` doubles.
    unsafe fn store(p: *mut f64, v: Self::F);
    /// Unaligned load of `WIDTH` i64s.
    unsafe fn load_i(p: *const i64) -> Self::I;
    /// Unaligned store of `WIDTH` i64s.
    unsafe fn store_i(p: *mut i64, v: Self::I);
    /// Lanewise IEEE add (one rounding).
    unsafe fn add(a: Self::F, b: Self::F) -> Self::F;
    /// Lanewise IEEE subtract (one rounding).
    unsafe fn sub(a: Self::F, b: Self::F) -> Self::F;
    /// Lanewise IEEE multiply (one rounding).
    unsafe fn mul(a: Self::F, b: Self::F) -> Self::F;
    /// Lanewise round to nearest integer, ties to even.
    unsafe fn round_ties_even(a: Self::F) -> Self::F;
    /// Bit-cast f64 lanes to i64 lanes.
    unsafe fn to_bits(a: Self::F) -> Self::I;
    /// Bit-cast i64 lanes to f64 lanes.
    unsafe fn from_bits(a: Self::I) -> Self::F;
    /// Lanewise wrapping i64 add.
    unsafe fn add_i(a: Self::I, b: Self::I) -> Self::I;
    /// Lanewise wrapping i64 subtract.
    unsafe fn sub_i(a: Self::I, b: Self::I) -> Self::I;
    /// Lanewise bitwise AND.
    unsafe fn and_i(a: Self::I, b: Self::I) -> Self::I;
    /// Lanewise bitwise OR.
    unsafe fn or_i(a: Self::I, b: Self::I) -> Self::I;
    /// Lanewise bitwise XOR.
    unsafe fn xor_i(a: Self::I, b: Self::I) -> Self::I;
    /// Lanewise logical shift right by a uniform count.
    unsafe fn shr_i(a: Self::I, n: u32) -> Self::I;
    /// Lanewise logical shift left by a uniform count.
    unsafe fn shl_i(a: Self::I, n: u32) -> Self::I;
    /// Lanewise full-range `i64 → f64`, round-to-nearest-even — the exact
    /// bits of Rust's scalar `as f64` cast for every input.
    unsafe fn i64_to_f64(a: Self::I) -> Self::F;
    /// Lanewise `f64 → i64` of **integer-valued** doubles: the exact bits
    /// of Rust's scalar `as i64` cast for every integer-valued lane with
    /// `|a| < 2^63` (±0 included).  Any other lane — fractional, `|a| ≥
    /// 2^63`, NaN — yields an unspecified integer.
    unsafe fn f64_to_i64(a: Self::F) -> Self::I;
    /// Lanewise ordered `a < b` on f64 lanes (false when either is NaN) —
    /// the scalar `<`.
    unsafe fn lt(a: Self::F, b: Self::F) -> Self::M;
    /// Lanewise `a == b` on i64 lanes.
    unsafe fn cmpeq_i(a: Self::I, b: Self::I) -> Self::M;
    /// Lanewise signed `a > b` on i64 lanes.
    unsafe fn cmpgt_i(a: Self::I, b: Self::I) -> Self::M;
    /// Mask conjunction.
    unsafe fn mask_and(a: Self::M, b: Self::M) -> Self::M;
    /// `m ? t : f`, lanewise.
    unsafe fn select(m: Self::M, t: Self::F, f: Self::F) -> Self::F;
    /// One bit per lane (bit `i` = lane `i`).
    unsafe fn mask_bits(m: Self::M) -> u32;
    /// Gather `WIDTH` doubles from `base + idx·8` bytes (`idx` in f64
    /// units, i64 lanes).
    unsafe fn gather(base: *const f64, idx: Self::I) -> Self::F;
}

/// 4 × f64 lanes in plain arrays: the instance every host can run.  The
/// batched entry points pin it and dispatch runs it when no SIMD level is
/// active; the compiler is free to map the arrays onto whatever vector
/// registers the build target has.
#[derive(Clone, Copy, Debug)]
pub struct Portable;

/// `[e(0), e(1), e(2), e(3)]` spelled out: no closure and no iterator
/// between the lanes and the optimiser, and unoptimised (test-profile)
/// builds stay usable.
macro_rules! lanes4 {
    ($k:ident => $e:expr) => {
        [
            {
                let $k = 0;
                $e
            },
            {
                let $k = 1;
                $e
            },
            {
                let $k = 2;
                $e
            },
            {
                let $k = 3;
                $e
            },
        ]
    };
}

#[allow(clippy::missing_safety_doc)]
impl Lanes for Portable {
    const WIDTH: usize = 4;
    const ALL: u32 = 0b1111;
    type F = [f64; 4];
    type I = [i64; 4];
    type M = [bool; 4];

    #[inline(always)]
    unsafe fn splat(x: f64) -> [f64; 4] {
        [x; 4]
    }
    #[inline(always)]
    unsafe fn splat_i(x: i64) -> [i64; 4] {
        [x; 4]
    }
    #[inline(always)]
    unsafe fn load(p: *const f64) -> [f64; 4] {
        p.cast::<[f64; 4]>().read_unaligned()
    }
    #[inline(always)]
    unsafe fn store(p: *mut f64, v: [f64; 4]) {
        p.cast::<[f64; 4]>().write_unaligned(v)
    }
    #[inline(always)]
    unsafe fn load_i(p: *const i64) -> [i64; 4] {
        p.cast::<[i64; 4]>().read_unaligned()
    }
    #[inline(always)]
    unsafe fn store_i(p: *mut i64, v: [i64; 4]) {
        p.cast::<[i64; 4]>().write_unaligned(v)
    }
    #[inline(always)]
    unsafe fn add(a: [f64; 4], b: [f64; 4]) -> [f64; 4] {
        lanes4!(k => a[k] + b[k])
    }
    #[inline(always)]
    unsafe fn sub(a: [f64; 4], b: [f64; 4]) -> [f64; 4] {
        lanes4!(k => a[k] - b[k])
    }
    #[inline(always)]
    unsafe fn mul(a: [f64; 4], b: [f64; 4]) -> [f64; 4] {
        lanes4!(k => a[k] * b[k])
    }
    #[inline(always)]
    unsafe fn round_ties_even(a: [f64; 4]) -> [f64; 4] {
        lanes4!(k => a[k].round_ties_even())
    }
    #[inline(always)]
    unsafe fn to_bits(a: [f64; 4]) -> [i64; 4] {
        lanes4!(k => a[k].to_bits() as i64)
    }
    #[inline(always)]
    unsafe fn from_bits(a: [i64; 4]) -> [f64; 4] {
        lanes4!(k => f64::from_bits(a[k] as u64))
    }
    #[inline(always)]
    unsafe fn add_i(a: [i64; 4], b: [i64; 4]) -> [i64; 4] {
        lanes4!(k => a[k].wrapping_add(b[k]))
    }
    #[inline(always)]
    unsafe fn sub_i(a: [i64; 4], b: [i64; 4]) -> [i64; 4] {
        lanes4!(k => a[k].wrapping_sub(b[k]))
    }
    #[inline(always)]
    unsafe fn and_i(a: [i64; 4], b: [i64; 4]) -> [i64; 4] {
        lanes4!(k => a[k] & b[k])
    }
    #[inline(always)]
    unsafe fn or_i(a: [i64; 4], b: [i64; 4]) -> [i64; 4] {
        lanes4!(k => a[k] | b[k])
    }
    #[inline(always)]
    unsafe fn xor_i(a: [i64; 4], b: [i64; 4]) -> [i64; 4] {
        lanes4!(k => a[k] ^ b[k])
    }
    #[inline(always)]
    unsafe fn shr_i(a: [i64; 4], n: u32) -> [i64; 4] {
        lanes4!(k => ((a[k] as u64) >> n) as i64)
    }
    #[inline(always)]
    unsafe fn shl_i(a: [i64; 4], n: u32) -> [i64; 4] {
        lanes4!(k => a[k] << n)
    }
    #[inline(always)]
    unsafe fn i64_to_f64(a: [i64; 4]) -> [f64; 4] {
        lanes4!(k => a[k] as f64)
    }
    #[inline(always)]
    unsafe fn f64_to_i64(a: [f64; 4]) -> [i64; 4] {
        lanes4!(k => a[k] as i64)
    }
    #[inline(always)]
    unsafe fn lt(a: [f64; 4], b: [f64; 4]) -> [bool; 4] {
        lanes4!(k => a[k] < b[k])
    }
    #[inline(always)]
    unsafe fn cmpeq_i(a: [i64; 4], b: [i64; 4]) -> [bool; 4] {
        lanes4!(k => a[k] == b[k])
    }
    #[inline(always)]
    unsafe fn cmpgt_i(a: [i64; 4], b: [i64; 4]) -> [bool; 4] {
        lanes4!(k => a[k] > b[k])
    }
    #[inline(always)]
    unsafe fn mask_and(a: [bool; 4], b: [bool; 4]) -> [bool; 4] {
        lanes4!(k => a[k] & b[k])
    }
    #[inline(always)]
    unsafe fn select(m: [bool; 4], t: [f64; 4], f: [f64; 4]) -> [f64; 4] {
        lanes4!(k => if m[k] { t[k] } else { f[k] })
    }
    #[inline(always)]
    unsafe fn mask_bits(m: [bool; 4]) -> u32 {
        m[0] as u32 | (m[1] as u32) << 1 | (m[2] as u32) << 2 | (m[3] as u32) << 3
    }
    #[inline(always)]
    unsafe fn gather(base: *const f64, idx: [i64; 4]) -> [f64; 4] {
        lanes4!(k => *base.offset(idx[k] as isize))
    }
}

/// 4 × f64 AVX2 lanes.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, Debug)]
pub struct Avx2;

/// 8 × f64 AVX-512 lanes (`avx512f` + `avx512dq`).
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, Debug)]
pub struct Avx512;

#[cfg(target_arch = "x86_64")]
const _: () = assert!(Avx2::WIDTH <= MAX_LANES && Avx512::WIDTH <= MAX_LANES);
const _: () = assert!(Portable::WIDTH <= MAX_LANES);

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Avx2, Avx512, Lanes};
    use std::arch::x86_64::*;

    #[allow(clippy::missing_safety_doc)]
    impl Lanes for Avx2 {
        const WIDTH: usize = 4;
        const ALL: u32 = 0b1111;
        type F = __m256d;
        type I = __m256i;
        type M = __m256i;

        #[inline(always)]
        unsafe fn splat(x: f64) -> __m256d {
            _mm256_set1_pd(x)
        }
        #[inline(always)]
        unsafe fn splat_i(x: i64) -> __m256i {
            _mm256_set1_epi64x(x)
        }
        #[inline(always)]
        unsafe fn load(p: *const f64) -> __m256d {
            _mm256_loadu_pd(p)
        }
        #[inline(always)]
        unsafe fn store(p: *mut f64, v: __m256d) {
            _mm256_storeu_pd(p, v)
        }
        #[inline(always)]
        unsafe fn load_i(p: *const i64) -> __m256i {
            _mm256_loadu_si256(p as *const __m256i)
        }
        #[inline(always)]
        unsafe fn store_i(p: *mut i64, v: __m256i) {
            _mm256_storeu_si256(p as *mut __m256i, v)
        }
        #[inline(always)]
        unsafe fn add(a: __m256d, b: __m256d) -> __m256d {
            _mm256_add_pd(a, b)
        }
        #[inline(always)]
        unsafe fn sub(a: __m256d, b: __m256d) -> __m256d {
            _mm256_sub_pd(a, b)
        }
        #[inline(always)]
        unsafe fn mul(a: __m256d, b: __m256d) -> __m256d {
            _mm256_mul_pd(a, b)
        }
        #[inline(always)]
        unsafe fn round_ties_even(a: __m256d) -> __m256d {
            _mm256_round_pd::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(a)
        }
        #[inline(always)]
        unsafe fn to_bits(a: __m256d) -> __m256i {
            _mm256_castpd_si256(a)
        }
        #[inline(always)]
        unsafe fn from_bits(a: __m256i) -> __m256d {
            _mm256_castsi256_pd(a)
        }
        #[inline(always)]
        unsafe fn add_i(a: __m256i, b: __m256i) -> __m256i {
            _mm256_add_epi64(a, b)
        }
        #[inline(always)]
        unsafe fn sub_i(a: __m256i, b: __m256i) -> __m256i {
            _mm256_sub_epi64(a, b)
        }
        #[inline(always)]
        unsafe fn and_i(a: __m256i, b: __m256i) -> __m256i {
            _mm256_and_si256(a, b)
        }
        #[inline(always)]
        unsafe fn or_i(a: __m256i, b: __m256i) -> __m256i {
            _mm256_or_si256(a, b)
        }
        #[inline(always)]
        unsafe fn xor_i(a: __m256i, b: __m256i) -> __m256i {
            _mm256_xor_si256(a, b)
        }
        #[inline(always)]
        unsafe fn shr_i(a: __m256i, n: u32) -> __m256i {
            _mm256_srl_epi64(a, _mm_cvtsi32_si128(n as i32))
        }
        #[inline(always)]
        unsafe fn shl_i(a: __m256i, n: u32) -> __m256i {
            _mm256_sll_epi64(a, _mm_cvtsi32_si128(n as i32))
        }
        #[inline(always)]
        unsafe fn i64_to_f64(a: __m256i) -> __m256d {
            // AVX2 has no 64-bit int → double conversion; split each lane
            // into its low and high 32-bit halves and rebuild the value as
            // `(hi·2^32 − 2^52) + (2^52 + lo)` with magic-exponent bit
            // tricks (the classic full-range construction).  The high part
            // is exact (32-bit payload aligned at 2^32 inside a 2^84-scaled
            // double), so the single rounding happens in the final add —
            // bit-identical to the scalar `as f64` cast for every i64.
            let magic_lo = _mm256_set1_epi64x(0x4330_0000_0000_0000); // 2^52
            let magic_hi32 = _mm256_set1_epi64x(0x4530_0000_8000_0000u64 as i64); // 2^84 + 2^63
            let magic_all = _mm256_set1_epi64x(0x4530_0000_8010_0000u64 as i64); // 2^84 + 2^63 + 2^52
            let v_lo = _mm256_blend_epi32::<0b0101_0101>(magic_lo, a);
            let v_hi = _mm256_xor_si256(_mm256_srli_epi64::<32>(a), magic_hi32);
            let hi_dbl = _mm256_sub_pd(_mm256_castsi256_pd(v_hi), _mm256_castsi256_pd(magic_all));
            _mm256_add_pd(hi_dbl, _mm256_castsi256_pd(v_lo))
        }
        #[inline(always)]
        unsafe fn f64_to_i64(a: __m256d) -> __m256i {
            // AVX2 has no double → 64-bit int conversion either.  Split the
            // integer-valued `a` at 2^32: `hi = ⌊a·2^-32⌋ ∈ [−2^31, 2^31)`
            // and `lo = a − hi·2^32 ∈ [0, 2^32)` are both exact (a power-
            // of-two scaling, a floor, and a difference that is itself an
            // integer below 2^32 on `a`'s grid).  Each half goes through
            // the magic-exponent trick `i64_to_f64` runs backwards: adding
            // 1.5·2^52 to an integer `|v| < 2^51` is exact and leaves
            // `2^51 + v` in the mantissa field, so subtracting the magic's
            // own bit pattern as an integer yields `v` in two's complement.
            let magic = _mm256_set1_pd(6_755_399_441_055_744.0); // 1.5 · 2^52
            let hi = _mm256_floor_pd(_mm256_mul_pd(a, _mm256_set1_pd(1.0 / 4_294_967_296.0)));
            let lo = _mm256_sub_pd(a, _mm256_mul_pd(hi, _mm256_set1_pd(4_294_967_296.0)));
            let magic_bits = _mm256_castpd_si256(magic);
            let hi_i = _mm256_sub_epi64(_mm256_castpd_si256(_mm256_add_pd(hi, magic)), magic_bits);
            let lo_i = _mm256_sub_epi64(_mm256_castpd_si256(_mm256_add_pd(lo, magic)), magic_bits);
            _mm256_add_epi64(_mm256_slli_epi64::<32>(hi_i), lo_i)
        }
        #[inline(always)]
        unsafe fn lt(a: __m256d, b: __m256d) -> __m256i {
            _mm256_castpd_si256(_mm256_cmp_pd::<_CMP_LT_OQ>(a, b))
        }
        #[inline(always)]
        unsafe fn cmpeq_i(a: __m256i, b: __m256i) -> __m256i {
            _mm256_cmpeq_epi64(a, b)
        }
        #[inline(always)]
        unsafe fn cmpgt_i(a: __m256i, b: __m256i) -> __m256i {
            _mm256_cmpgt_epi64(a, b)
        }
        #[inline(always)]
        unsafe fn mask_and(a: __m256i, b: __m256i) -> __m256i {
            _mm256_and_si256(a, b)
        }
        #[inline(always)]
        unsafe fn select(m: __m256i, t: __m256d, f: __m256d) -> __m256d {
            // blendv picks by sign bit; comparison masks are all-ones or
            // all-zeros per lane, so the sign bit carries the full mask.
            _mm256_blendv_pd(f, t, _mm256_castsi256_pd(m))
        }
        #[inline(always)]
        unsafe fn mask_bits(m: __m256i) -> u32 {
            _mm256_movemask_pd(_mm256_castsi256_pd(m)) as u32
        }
        #[inline(always)]
        unsafe fn gather(base: *const f64, idx: __m256i) -> __m256d {
            _mm256_i64gather_pd::<8>(base, idx)
        }
    }

    #[allow(clippy::missing_safety_doc)]
    impl Lanes for Avx512 {
        const WIDTH: usize = 8;
        const ALL: u32 = 0b1111_1111;
        type F = __m512d;
        type I = __m512i;
        type M = __mmask8;

        #[inline(always)]
        unsafe fn splat(x: f64) -> __m512d {
            _mm512_set1_pd(x)
        }
        #[inline(always)]
        unsafe fn splat_i(x: i64) -> __m512i {
            _mm512_set1_epi64(x)
        }
        #[inline(always)]
        unsafe fn load(p: *const f64) -> __m512d {
            _mm512_loadu_pd(p)
        }
        #[inline(always)]
        unsafe fn store(p: *mut f64, v: __m512d) {
            _mm512_storeu_pd(p, v)
        }
        #[inline(always)]
        unsafe fn load_i(p: *const i64) -> __m512i {
            _mm512_loadu_epi64(p)
        }
        #[inline(always)]
        unsafe fn store_i(p: *mut i64, v: __m512i) {
            _mm512_storeu_epi64(p, v)
        }
        #[inline(always)]
        unsafe fn add(a: __m512d, b: __m512d) -> __m512d {
            _mm512_add_pd(a, b)
        }
        #[inline(always)]
        unsafe fn sub(a: __m512d, b: __m512d) -> __m512d {
            _mm512_sub_pd(a, b)
        }
        #[inline(always)]
        unsafe fn mul(a: __m512d, b: __m512d) -> __m512d {
            _mm512_mul_pd(a, b)
        }
        #[inline(always)]
        unsafe fn round_ties_even(a: __m512d) -> __m512d {
            _mm512_roundscale_pd::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(a)
        }
        #[inline(always)]
        unsafe fn to_bits(a: __m512d) -> __m512i {
            _mm512_castpd_si512(a)
        }
        #[inline(always)]
        unsafe fn from_bits(a: __m512i) -> __m512d {
            _mm512_castsi512_pd(a)
        }
        #[inline(always)]
        unsafe fn add_i(a: __m512i, b: __m512i) -> __m512i {
            _mm512_add_epi64(a, b)
        }
        #[inline(always)]
        unsafe fn sub_i(a: __m512i, b: __m512i) -> __m512i {
            _mm512_sub_epi64(a, b)
        }
        #[inline(always)]
        unsafe fn and_i(a: __m512i, b: __m512i) -> __m512i {
            _mm512_and_si512(a, b)
        }
        #[inline(always)]
        unsafe fn or_i(a: __m512i, b: __m512i) -> __m512i {
            _mm512_or_si512(a, b)
        }
        #[inline(always)]
        unsafe fn xor_i(a: __m512i, b: __m512i) -> __m512i {
            _mm512_xor_si512(a, b)
        }
        #[inline(always)]
        unsafe fn shr_i(a: __m512i, n: u32) -> __m512i {
            _mm512_srl_epi64(a, _mm_cvtsi32_si128(n as i32))
        }
        #[inline(always)]
        unsafe fn shl_i(a: __m512i, n: u32) -> __m512i {
            _mm512_sll_epi64(a, _mm_cvtsi32_si128(n as i32))
        }
        #[inline(always)]
        unsafe fn i64_to_f64(a: __m512i) -> __m512d {
            _mm512_cvtepi64_pd(a) // avx512dq: native, round-to-nearest-even
        }
        #[inline(always)]
        unsafe fn f64_to_i64(a: __m512d) -> __m512i {
            // avx512dq: native.  Truncating, so MXCSR's rounding mode has
            // no say; integer-valued inputs convert exactly either way.
            _mm512_cvttpd_epi64(a)
        }
        #[inline(always)]
        unsafe fn lt(a: __m512d, b: __m512d) -> __mmask8 {
            _mm512_cmp_pd_mask::<_CMP_LT_OQ>(a, b)
        }
        #[inline(always)]
        unsafe fn cmpeq_i(a: __m512i, b: __m512i) -> __mmask8 {
            _mm512_cmpeq_epi64_mask(a, b)
        }
        #[inline(always)]
        unsafe fn cmpgt_i(a: __m512i, b: __m512i) -> __mmask8 {
            _mm512_cmpgt_epi64_mask(a, b)
        }
        #[inline(always)]
        unsafe fn mask_and(a: __mmask8, b: __mmask8) -> __mmask8 {
            a & b
        }
        #[inline(always)]
        unsafe fn select(m: __mmask8, t: __m512d, f: __m512d) -> __m512d {
            _mm512_mask_blend_pd(m, f, t)
        }
        #[inline(always)]
        unsafe fn mask_bits(m: __mmask8) -> u32 {
            m as u32
        }
        #[inline(always)]
        unsafe fn gather(base: *const f64, idx: __m512i) -> __m512d {
            _mm512_i64gather_pd::<8>(idx, base)
        }
    }
}

/// Lanewise [`quantize_sig_branchless`](crate::quantize_sig_branchless):
/// round every lane to a `sig`-bit significand, round-to-nearest-even,
/// NaN/±inf passing through.  Bit-identical to the scalar function on
/// every lane for every bit pattern (the carry chain is the same wrapping
/// integer add; the NaN/inf select keys on the same exponent-field test).
///
/// # Safety
/// `L`'s ISA must be available on the running CPU.
#[inline(always)]
pub unsafe fn quantize_lanes<L: Lanes>(x: L::F, sig: u32) -> L::F {
    debug_assert!((1..=52).contains(&sig));
    let drop = 53 - sig;
    let bits = L::to_bits(x);
    let half_m1 = L::splat_i(((1u64 << (drop - 1)) - 1) as i64);
    let keep_mask = L::splat_i(!((1u64 << drop) - 1) as i64);
    let lsb = L::and_i(L::shr_i(bits, drop), L::splat_i(1));
    let rounded = L::and_i(L::add_i(bits, L::add_i(half_m1, lsb)), keep_mask);
    let exp_mask = L::splat_i(0x7ff0_0000_0000_0000);
    let special = L::cmpeq_i(L::and_i(bits, exp_mask), exp_mask);
    L::select(special, x, L::from_bits(rounded))
}

/// [`quantize_lanes`] without the NaN/±inf select: five lane ops,
/// `((bits + half_m1) + lsb) & keep_mask`, instead of eight.
///
/// **Domain D:** finite values, ±inf, and NaNs whose low `53 − sig` bits
/// are zero (the default NaN, payload zero, qualifies for `sig ≥ 2`).  On
/// D the result is bit-identical to [`quantize_lanes`] — and so to
/// [`quantize_sig_branchless`](crate::quantize_sig_branchless): for a
/// finite lane the select always picks `rounded`; for ±inf and such NaNs
/// the dropped field is zero, so adding `half_m1 + lsb < 2^drop` never
/// carries and the mask hands back `x`.  Outside D the carry runs into the
/// exponent and sign (at sig 24, `0x7FFF_FFFF_FFFF_FFFF` comes out as
/// `-0.0`): the caller must prove its lanes are in D.  The force kernel
/// does, once per batch and lane group (`grape6_chip::kernel_simd`).
///
/// # Safety
/// `L`'s ISA must be available on the running CPU.
#[inline(always)]
pub unsafe fn quantize_lanes_finite<L: Lanes>(x: L::F, sig: u32) -> L::F {
    debug_assert!((1..=52).contains(&sig));
    let drop = 53 - sig;
    let bits = L::to_bits(x);
    let half_m1 = L::splat_i(((1u64 << (drop - 1)) - 1) as i64);
    let keep_mask = L::splat_i(!((1u64 << drop) - 1) as i64);
    let lsb = L::and_i(L::shr_i(bits, drop), L::splat_i(1));
    L::from_bits(L::and_i(L::add_i(L::add_i(bits, half_m1), lsb), keep_mask))
}

/// Quantize a slice through the active SIMD level: `out[i] =
/// quantize_sig_branchless(xs[i], sig)` for every `i`, the bulk in
/// 4/8-wide lanes and the tail through the scalar function.  Returns the
/// level used, or `None` (output untouched) when no SIMD level is active
/// — callers then run the scalar path themselves.
///
/// This is the safe, slice-shaped entry point used by tests and by
/// callers outside the force kernel's hand-scheduled loops.
pub fn quantize_slice(xs: &[f64], out: &mut [f64], sig: u32) -> Option<SimdLevel> {
    assert_eq!(xs.len(), out.len());
    assert!((1..=52).contains(&sig), "sig must be in 1..=52");
    match active_level() {
        #[cfg(target_arch = "x86_64")]
        Some(SimdLevel::Avx2) => {
            // SAFETY: dispatch proved avx2 is available.
            unsafe { quantize_slice_avx2(xs, out, sig) };
            Some(SimdLevel::Avx2)
        }
        #[cfg(target_arch = "x86_64")]
        Some(SimdLevel::Avx512) => {
            // SAFETY: dispatch proved avx512f+dq are available.
            unsafe { quantize_slice_avx512(xs, out, sig) };
            Some(SimdLevel::Avx512)
        }
        _ => None,
    }
}

#[cfg(any(target_arch = "x86_64", test))]
#[inline(always)]
unsafe fn quantize_slice_lanes<L: Lanes>(xs: &[f64], out: &mut [f64], sig: u32) {
    let n = xs.len();
    let mut i = 0;
    while i + L::WIDTH <= n {
        let v = L::load(xs.as_ptr().add(i));
        L::store(out.as_mut_ptr().add(i), quantize_lanes::<L>(v, sig));
        i += L::WIDTH;
    }
    for k in i..n {
        out[k] = crate::quantize_sig_branchless(xs[k], sig);
    }
}

/// # Safety
/// Requires `avx2` at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub unsafe fn quantize_slice_avx2(xs: &[f64], out: &mut [f64], sig: u32) {
    quantize_slice_lanes::<Avx2>(xs, out, sig)
}

/// # Safety
/// Requires `avx512f` and `avx512dq` at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
pub unsafe fn quantize_slice_avx512(xs: &[f64], out: &mut [f64], sig: u32) {
    quantize_slice_lanes::<Avx512>(xs, out, sig)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockfp::{BlockAccum, LaneAccum, LaneFlags};

    fn xorshift_sweep(mut f: impl FnMut(u64)) {
        // Same deterministic generator as the pfloat equivalence sweep:
        // every float class shows up (all magnitudes, subnormals, NaN
        // payloads, infs, both signs).
        let mut s: u64 = 0x243f_6a88_85a3_08d3;
        for _ in 0..200_000 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            f(s);
        }
    }

    #[test]
    fn dispatch_override_caps_but_never_raises() {
        let detected = detected_level();
        set_dispatch_override(DispatchOverride::ForceScalar);
        assert_eq!(active_level(), None);
        set_dispatch_override(DispatchOverride::CapAvx2);
        assert_eq!(active_level(), detected.map(|l| l.min(SimdLevel::Avx2)));
        set_dispatch_override(DispatchOverride::Auto);
        assert_eq!(active_level(), detected);
    }

    /// `out = xs as f64`, and `halved = round_ties_even(out · ½)` — odd
    /// inputs put the lane rounding on exact ties.
    #[inline(always)]
    unsafe fn cvt_lanes<L: Lanes>(xs: &[i64], out: &mut [f64], halved: &mut [f64]) {
        for (k, x) in xs.chunks_exact(L::WIDTH).enumerate() {
            let v = L::i64_to_f64(L::load_i(x.as_ptr()));
            L::store(out.as_mut_ptr().add(k * L::WIDTH), v);
            let h = L::round_ties_even(L::mul(v, L::splat(0.5)));
            L::store(halved.as_mut_ptr().add(k * L::WIDTH), h);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn cvt_avx2(xs: &[i64], out: &mut [f64], halved: &mut [f64]) {
        cvt_lanes::<Avx2>(xs, out, halved)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq")]
    unsafe fn cvt_avx512(xs: &[i64], out: &mut [f64], halved: &mut [f64]) {
        cvt_lanes::<Avx512>(xs, out, halved)
    }

    /// `out = quantize_lanes_finite(xs)`, lanewise (`xs.len()` a multiple
    /// of the width).
    #[inline(always)]
    unsafe fn finite_lanes<L: Lanes>(xs: &[f64], out: &mut [f64], sig: u32) {
        for (k, x) in xs.chunks_exact(L::WIDTH).enumerate() {
            let v = quantize_lanes_finite::<L>(L::load(x.as_ptr()), sig);
            L::store(out.as_mut_ptr().add(k * L::WIDTH), v);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn finite_avx2(xs: &[f64], out: &mut [f64], sig: u32) {
        finite_lanes::<Avx2>(xs, out, sig)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq")]
    unsafe fn finite_avx512(xs: &[f64], out: &mut [f64], sig: u32) {
        finite_lanes::<Avx512>(xs, out, sig)
    }

    /// `out = xs as i64`, lanewise (integer-valued inputs).
    #[inline(always)]
    unsafe fn to_i64_lanes<L: Lanes>(xs: &[f64], out: &mut [i64]) {
        for (k, x) in xs.chunks_exact(L::WIDTH).enumerate() {
            let v = L::f64_to_i64(L::load(x.as_ptr()));
            L::store_i(out.as_mut_ptr().add(k * L::WIDTH), v);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn to_i64_avx2(xs: &[f64], out: &mut [i64]) {
        to_i64_lanes::<Avx2>(xs, out)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq")]
    unsafe fn to_i64_avx512(xs: &[f64], out: &mut [i64]) {
        to_i64_lanes::<Avx512>(xs, out)
    }

    /// Feed `qs` — step-major, `qs[s · WIDTH + k]` is lane `k`'s `s`-th
    /// pre-rounded summand — through one `LaneAccum` and its `LaneFlags`
    /// (`fresh`: through a new pair at every step), pushing the flag bits
    /// after each step and returning the lanes under windows `exps`.
    #[inline(always)]
    unsafe fn accumulate_lanes<L: Lanes>(
        qs: &[f64],
        exps: &[i32; MAX_LANES],
        fresh: bool,
        bits: &mut Vec<u32>,
    ) -> [BlockAccum; MAX_LANES] {
        let mut flags = LaneFlags::<L>::new();
        let mut acc = LaneAccum::<L>::new();
        for step in qs.chunks_exact(L::WIDTH) {
            if fresh {
                flags = LaneFlags::<L>::new();
                acc = LaneAccum::<L>::new();
            }
            acc.add_rounded(L::load(step.as_ptr()), &mut flags);
            bits.push(flags.bits());
        }
        acc.accums(exps)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn accumulate_avx2(
        qs: &[f64],
        exps: &[i32; MAX_LANES],
        fresh: bool,
        bits: &mut Vec<u32>,
    ) -> [BlockAccum; MAX_LANES] {
        accumulate_lanes::<Avx2>(qs, exps, fresh, bits)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq")]
    unsafe fn accumulate_avx512(
        qs: &[f64],
        exps: &[i32; MAX_LANES],
        fresh: bool,
        bits: &mut Vec<u32>,
    ) -> [BlockAccum; MAX_LANES] {
        accumulate_lanes::<Avx512>(qs, exps, fresh, bits)
    }

    type Accumulate =
        unsafe fn(&[f64], &[i32; MAX_LANES], bool, &mut Vec<u32>) -> [BlockAccum; MAX_LANES];

    /// One runnable lane instance as slice drivers over the generic bodies.
    struct Instance {
        label: &'static str,
        width: usize,
        quantize: unsafe fn(&[f64], &mut [f64], u32),
        quantize_finite: unsafe fn(&[f64], &mut [f64], u32),
        convert: unsafe fn(&[i64], &mut [f64], &mut [f64]),
        to_i64: unsafe fn(&[f64], &mut [i64]),
        accumulate: Accumulate,
    }

    /// Every lane instance this host can run — `Portable` always, the x86
    /// files when detected.  Calling a driver is sound because an instance
    /// is only listed after its runtime check.
    fn lane_instances() -> Vec<Instance> {
        #[allow(unused_mut)]
        let mut v = vec![Instance {
            label: "portable",
            width: Portable::WIDTH,
            quantize: quantize_slice_lanes::<Portable>,
            quantize_finite: finite_lanes::<Portable>,
            convert: cvt_lanes::<Portable>,
            to_i64: to_i64_lanes::<Portable>,
            accumulate: accumulate_lanes::<Portable>,
        }];
        #[cfg(target_arch = "x86_64")]
        {
            let hw = hardware_level();
            if hw.is_some() {
                v.push(Instance {
                    label: "avx2",
                    width: Avx2::WIDTH,
                    quantize: quantize_slice_avx2,
                    quantize_finite: finite_avx2,
                    convert: cvt_avx2,
                    to_i64: to_i64_avx2,
                    accumulate: accumulate_avx2,
                });
            }
            if hw == Some(SimdLevel::Avx512) {
                v.push(Instance {
                    label: "avx512",
                    width: Avx512::WIDTH,
                    quantize: quantize_slice_avx512,
                    quantize_finite: finite_avx512,
                    convert: cvt_avx512,
                    to_i64: to_i64_avx512,
                    accumulate: accumulate_avx512,
                });
            }
        }
        v
    }

    #[test]
    fn lane_quantizer_matches_scalar_on_random_bit_patterns() {
        let mut xs: Vec<f64> = Vec::new();
        xorshift_sweep(|s| xs.push(f64::from_bits(s)));
        // Structured extras: specials and exact grid ties.
        xs.extend_from_slice(&[
            0.0f64,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            1.0 + 2f64.powi(-24),
            2.0 - 2f64.powi(-25),
        ]);
        // A multiple of every lane width: nothing goes through the
        // scalar tail.
        xs.resize(xs.len().next_multiple_of(8), 0.0);
        let mut out = vec![0.0f64; xs.len()];
        for sig in [24u32, 11, 50] {
            for Instance {
                label, quantize, ..
            } in lane_instances()
            {
                // SAFETY: `lane_instances` lists only runnable instances.
                unsafe { quantize(&xs, &mut out, sig) };
                for (&x, &got) in xs.iter().zip(&out) {
                    assert_eq!(
                        got.to_bits(),
                        crate::quantize_sig_branchless(x, sig).to_bits(),
                        "{label} sig={sig} bits={:#018x}",
                        x.to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn lane_quantizer_finite_matches_on_its_domain() {
        // Domain D: everything but NaNs with a nonzero dropped field.
        let in_domain = |x: f64, sig: u32| {
            let dropped = (1u64 << (53 - sig)) - 1;
            !x.is_nan() || x.to_bits() & dropped == 0
        };
        let mut sweep: Vec<f64> = Vec::new();
        xorshift_sweep(|s| sweep.push(f64::from_bits(s)));
        let default_nan = f64::from_bits(0x7ff8_0000_0000_0000);
        for sig in [24u32, 11, 50] {
            let mut xs: Vec<f64> = sweep
                .iter()
                .copied()
                .filter(|&x| in_domain(x, sig))
                .collect();
            xs.extend_from_slice(&[
                0.0f64,
                -0.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                default_nan,
                -default_nan,
                f64::MIN_POSITIVE,
                f64::from_bits(1),
                f64::from_bits(0x000f_ffff_ffff_ffff),
                f64::MAX,
                1.0 + 2f64.powi(1 - sig as i32) / 2.0,
                1.0 + 3.0 * 2f64.powi(1 - sig as i32) / 2.0,
                -(2.0 - 2f64.powi(-(sig as i32) - 1)),
            ]);
            assert!(xs.iter().all(|&x| in_domain(x, sig)));
            assert!(xs.len() > 150_000, "the filter keeps the bulk of the sweep");
            xs.resize(xs.len().next_multiple_of(8), 0.0);
            let mut out = vec![0.0f64; xs.len()];
            for Instance {
                label,
                quantize_finite,
                ..
            } in lane_instances()
            {
                // SAFETY: `lane_instances` lists only runnable instances.
                unsafe { quantize_finite(&xs, &mut out, sig) };
                for (&x, &got) in xs.iter().zip(&out) {
                    assert_eq!(
                        got.to_bits(),
                        crate::quantize_sig_branchless(x, sig).to_bits(),
                        "{label} sig={sig} bits={:#018x}",
                        x.to_bits()
                    );
                }
            }
        }
        // Why the domain exists: outside it the carry runs through the
        // exponent into the sign — a NaN comes out as −0.0.
        let nan = [f64::from_bits(0x7fff_ffff_ffff_ffff); 8];
        let mut out = [1.0f64; 8];
        for Instance {
            label,
            quantize_finite,
            ..
        } in lane_instances()
        {
            // SAFETY: `lane_instances` lists only runnable instances.
            unsafe { quantize_finite(&nan, &mut out, 24) };
            assert!(
                out.iter().all(|x| x.to_bits() == (-0.0f64).to_bits()),
                "{label}: {out:?}"
            );
        }
    }

    #[test]
    fn lane_i64_to_f64_matches_scalar_cast() {
        let mut vals: Vec<i64> = vec![
            0,
            1,
            -1,
            i64::MAX,
            i64::MIN,
            i64::MAX - 1,
            i64::MIN + 1,
            (1 << 53) + 1, // first value needing a rounded cast
            -(1 << 53) - 1,
            (1 << 62) | 1,
            u32::MAX as i64,
            -(u32::MAX as i64),
        ];
        vals.extend(-9..=9); // halves: ties on both sides of zero
        xorshift_sweep(|s| vals.push(s as i64));
        vals.resize(vals.len().next_multiple_of(8), 0);
        let mut out = vec![0.0f64; vals.len()];
        let mut halved = vec![0.0f64; vals.len()];
        for Instance { label, convert, .. } in lane_instances() {
            // SAFETY: `lane_instances` lists only runnable instances.
            unsafe { convert(&vals, &mut out, &mut halved) };
            for (k, &v) in vals.iter().enumerate() {
                let want = v as f64;
                assert_eq!(out[k].to_bits(), want.to_bits(), "{label} v={v}");
                assert_eq!(
                    halved[k].to_bits(),
                    (want * 0.5).round_ties_even().to_bits(),
                    "{label} round(v/2) v={v}"
                );
            }
        }
    }

    /// 2^63: the first magnitude that no longer fits an `i64` window.
    const TWO63: f64 = 9_223_372_036_854_775_808.0;

    #[test]
    fn lane_f64_to_i64_matches_scalar_cast_on_integer_values() {
        let mut xs: Vec<f64> = Vec::new();
        for m in [
            0.0,
            1.0,
            TWO63 - 1024.0,          // the largest double below 2^63
            4_503_599_627_370_496.0, // 2^52
            9_007_199_254_740_994.0, // 2^53 + 2
            4_294_967_296.0,         // 2^32: the AVX2 split point, and either side
            4_294_967_295.0,
            4_294_967_297.0,
            2_147_483_648.0,
            4_611_686_018_427_387_904.0, // 2^62
        ] {
            xs.extend_from_slice(&[m, -m]);
        }
        // Integer-valued doubles of every magnitude and both signs: the
        // sweep's words as integers, and its bit patterns rounded.
        xorshift_sweep(|s| {
            xs.push(s as i64 as f64);
            xs.push(((s as i64) >> (s & 63)) as f64);
            xs.push(f64::from_bits(s).round_ties_even());
        });
        xs.retain(|x| x.abs() < TWO63);
        xs.resize(xs.len().next_multiple_of(8), -0.0);
        let mut out = vec![0i64; xs.len()];
        for Instance { label, to_i64, .. } in lane_instances() {
            // SAFETY: `lane_instances` lists only runnable instances.
            unsafe { to_i64(&xs, &mut out) };
            for (&x, &got) in xs.iter().zip(&out) {
                assert_eq!(got, x as i64, "{label} x={x:e}");
            }
        }
    }

    #[test]
    fn lane_flags_are_the_oracle_predicate_on_arbitrary_bit_patterns() {
        // From an empty accumulator no add can wrap, so after one summand
        // the flag is exactly the oracle's `!(|q| < 2^63)` — whatever the
        // bit pattern: NaN payloads, infinities, the boundary itself.
        let mut qs: Vec<f64> = vec![
            f64::NAN,
            f64::from_bits(0x7ff8_dead_beef_0001),
            f64::from_bits(0xfff0_0000_0000_0001), // signalling, negative
            f64::INFINITY,
            f64::NEG_INFINITY,
            TWO63,
            -TWO63,
            TWO63 - 1024.0,
            -(TWO63 - 1024.0),
            TWO63 + 2048.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            0.0,
            -0.0,
        ];
        xorshift_sweep(|s| qs.push(f64::from_bits(s)));
        qs.resize(qs.len().next_multiple_of(8), 0.0);
        for Instance {
            label,
            width,
            accumulate,
            ..
        } in lane_instances()
        {
            let mut bits = Vec::new();
            // SAFETY: `lane_instances` lists only runnable instances.
            unsafe { accumulate(&qs, &[0; MAX_LANES], true, &mut bits) };
            for (step, &b) in qs.chunks_exact(width).zip(&bits) {
                for (k, &q) in step.iter().enumerate() {
                    #[allow(clippy::neg_cmp_op_on_partial_ord)]
                    let too_big = !(q.abs() < TWO63);
                    assert_eq!(
                        b >> k & 1 == 1,
                        too_big,
                        "{label} lane {k} bits={:#018x}",
                        q.to_bits()
                    );
                }
            }
        }
    }

    /// Eight summand sequences of one length, each with its own window:
    /// what eight lanes of one group might see.
    fn lane_scenarios() -> Vec<(i32, Vec<f64>)> {
        const STEPS: usize = 600;
        let mut words: Vec<u64> = Vec::new();
        xorshift_sweep(|s| words.push(s));
        let mut words = words.into_iter();
        let mut word = move || words.next().expect("the sweep is long enough");
        // Uniform in (−1, 1) · 2^e.
        let small = |w: u64, e: i32| ((w >> 11) as f64 / (1u64 << 52) as f64 - 1.0) * 2f64.powi(e);
        let mut v: Vec<(i32, Vec<f64>)> = Vec::new();
        // 0, 1: stay inside their windows to the end.
        v.push((5, (0..STEPS).map(|_| small(word(), -6)).collect()));
        v.push((-40, (0..STEPS).map(|_| small(word(), -52)).collect()));
        // 2: every summand fits, the fourth add wraps — and the adds that
        // follow bring the wrapped sum back: the flag must stay.
        let mut xs: Vec<f64> = (0..STEPS).map(|_| small(word(), -30)).collect();
        xs[..4].fill(0.3);
        xs[10..14].fill(-0.3);
        v.push((0, xs));
        // 3: one summand alone busts the window, mid-sequence.
        let mut xs: Vec<f64> = (0..STEPS).map(|_| small(word(), 50)).collect();
        xs[100] = TWO63;
        v.push((62, xs));
        // 4, 5: NaN and −inf take the summand-overflow path.
        let mut xs: Vec<f64> = (0..STEPS).map(|_| small(word(), 100)).collect();
        xs[7] = f64::NAN;
        v.push((120, xs));
        let mut xs: Vec<f64> = (0..STEPS).map(|_| small(word(), -10)).collect();
        xs[50] = f64::NEG_INFINITY;
        v.push((1, xs));
        // 6: arbitrary bit patterns — fails wherever it fails.
        v.push((-3, (0..STEPS).map(|_| f64::from_bits(word())).collect()));
        // 7: the sum lands on −2^63 exactly (still inside an `i64`), then
        // one grid unit more wraps it.
        let mut xs: Vec<f64> = (0..STEPS).map(|_| small(word(), -20)).collect();
        xs[..4].fill(-256.0);
        xs[4] = -(2f64.powi(10 - 63));
        v.push((10, xs));
        v
    }

    #[test]
    fn lane_accum_flags_exactly_when_block_accum_errors_per_lane() {
        let scenarios = lane_scenarios();
        let steps = scenarios[0].1.len();
        // The oracle, per scenario: the mantissa after every step up to
        // the first failing add, and that step.
        let oracle: Vec<(Vec<i64>, usize)> = scenarios
            .iter()
            .map(|(exp, xs)| {
                let mut acc = BlockAccum::new(*exp);
                let mut mants = Vec::new();
                for &x in xs {
                    if acc.add(x).is_err() {
                        break;
                    }
                    mants.push(acc.mant());
                }
                let first_fail = mants.len();
                (mants, first_fail)
            })
            .collect();
        let fails: Vec<usize> = oracle.iter().map(|o| o.1).collect();
        assert_eq!(
            &fails[..6],
            [steps, steps, 3, 100, 7, 50],
            "scenario design"
        );
        assert_eq!(fails[7], 4, "scenario design");
        for Instance {
            label,
            width,
            accumulate,
            ..
        } in lane_instances()
        {
            // Different sequences in different lanes, `width` at a time,
            // stopped at several lengths so unflagged mantissas are
            // compared mid-sequence too.
            for (group, batch) in scenarios.chunks(width).enumerate() {
                for stop in [1, 3, 4, 5, 8, 51, 101, steps] {
                    let mut exps = [0i32; MAX_LANES];
                    let mut qs = vec![0.0f64; stop * width];
                    for (k, (exp, xs)) in batch.iter().enumerate() {
                        exps[k] = *exp;
                        let scale = crate::blockfp::window_scale(*exp);
                        for (s, &x) in xs[..stop].iter().enumerate() {
                            qs[s * width + k] = (x * scale).round_ties_even();
                        }
                    }
                    let mut bits = Vec::new();
                    // SAFETY: `lane_instances` lists only runnable instances.
                    let accs = unsafe { accumulate(&qs, &exps, false, &mut bits) };
                    for k in 0..batch.len() {
                        let (mants, first_fail) = &oracle[group * width + k];
                        for (s, &b) in bits.iter().enumerate() {
                            assert_eq!(
                                b >> k & 1 == 1,
                                s >= *first_fail,
                                "{label} scenario {} step {s}",
                                group * width + k
                            );
                        }
                        if stop <= *first_fail {
                            assert_eq!(accs[k].mant(), mants[stop - 1], "{label} lane {k}");
                            assert_eq!(accs[k].exp(), exps[k]);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn quantize_slice_matches_scalar_including_tail() {
        if active_level().is_none() {
            eprintln!("skipping: no SIMD level active");
            return;
        }
        let mut xs = Vec::new();
        let mut s: u64 = 0x9e37_79b9_7f4a_7c15;
        for _ in 0..1027 {
            // odd length: exercises the scalar tail
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            xs.push(f64::from_bits(s));
        }
        let mut out = vec![0.0; xs.len()];
        let level = quantize_slice(&xs, &mut out, 24);
        assert!(level.is_some());
        for (i, (&x, &o)) in xs.iter().zip(&out).enumerate() {
            assert_eq!(
                o.to_bits(),
                crate::quantize_sig_branchless(x, 24).to_bits(),
                "lane {i}"
            );
        }
    }
}
