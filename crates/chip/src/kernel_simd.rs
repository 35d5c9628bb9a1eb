//! The one batched datapath: the generic lane row, its lane instances,
//! and the runtime dispatch between them ([`KernelMode::Simd`]).
//!
//! `row_lanes` spells the pipeline's stage 1–5 op chain once, generically
//! over a `grape6_arith::simd::Lanes` instance: stages 1–4 (position
//! deltas, r², the gathered rsqrt table lookup, the multiplier tree) run
//! `WIDTH` lanes at a time, and stage 5's scale-and-round runs
//! lane-parallel with only the order-sensitive `i64` accumulation left
//! sequential ([`BatchLane::add_rounded`]).  It is instantiated three
//! times — `Portable` (4 lanes in plain arrays, every host), and on
//! x86-64 `Avx2` (4) and `Avx512` (8) under `#[target_feature]` wrappers.
//!
//! **Why the bits cannot change.** Each lane op is the same single-rounded
//! IEEE-754 f64 operation the scalar chain performs (no FMA anywhere);
//! the quantiser and the rsqrt decomposition are pure integer lane math
//! proven bit-identical in `grape6-arith`; and accumulation order per
//! block-FP lane is untouched — ascending j, one summand at a time, so
//! the sticky overflow flags trip for exactly the prefixes the scalar
//! oracle's `Result` would.  Lane padding (the zero-mass tail `SoaBatch`
//! appends) is computed lane-side but never accumulated: the stage-5
//! and neighbour loops stop at the batch's *real* length.
//!
//! Dispatch happens per row via [`grape6_arith::simd::active_level`]; with
//! no level active (non-x86 hosts, `GRAPE6_FORCE_SCALAR=1`) the row runs
//! the portable instance — same bits, narrower lanes.
//!
//! [`KernelMode::Simd`]: crate::kernel::KernelMode::Simd

use std::mem::MaybeUninit;

use grape6_arith::blockfp::{BatchLane, BlockFpError};
use grape6_arith::fixed::PosFix;
use grape6_arith::rsqrt::RsqrtCubedUnit;
use grape6_arith::simd::{quantize_lanes, Lanes, Portable};
use grape6_arith::PIPE_SIG_BITS;

use crate::kernel::{scalar_fallback, SoaBatch, CHUNK};
use crate::pipeline::{ExpSet, HwIParticle, PartialForce};
use crate::predictor::PredictedJ;

/// Evaluate one i-register against the whole batch through the active
/// lane level (plain force pass).  Bit-identical to [`crate::kernel::batched_row`]
/// — and therefore to the scalar oracle — including the recovered error
/// on overflow.
pub fn simd_row(
    rsqrt: &RsqrtCubedUnit,
    ip: &HwIParticle,
    batch: &SoaBatch,
    predicted: &[PredictedJ],
    exps: ExpSet,
) -> Result<PartialForce, BlockFpError> {
    let mut no_nb = Vec::new();
    match dispatch(rsqrt, ip, batch, exps, None, &mut no_nb) {
        Some(pf) => Ok(pf),
        None => scalar_fallback(rsqrt, ip, predicted, exps),
    }
}

/// Evaluate one i-register against the whole batch with neighbour
/// detection, through the active lane level.  Bit-identical to
/// [`crate::kernel::batched_row_nb`], list included.
pub fn simd_row_nb(
    rsqrt: &RsqrtCubedUnit,
    ip: &HwIParticle,
    batch: &SoaBatch,
    predicted: &[PredictedJ],
    exps: ExpSet,
    h2i: f64,
    nb: &mut Vec<u32>,
) -> Result<PartialForce, BlockFpError> {
    nb.clear();
    match dispatch(rsqrt, ip, batch, exps, Some(h2i), nb) {
        Some(pf) => Ok(pf),
        None => {
            // The partially filled list belongs to a discarded row.
            nb.clear();
            scalar_fallback(rsqrt, ip, predicted, exps)
        }
    }
}

/// Route one row to the widest available lane instance.
#[inline]
fn dispatch(
    rsqrt: &RsqrtCubedUnit,
    ip: &HwIParticle,
    batch: &SoaBatch,
    exps: ExpSet,
    h2i: Option<f64>,
    nb: &mut Vec<u32>,
) -> Option<PartialForce> {
    #[cfg(target_arch = "x86_64")]
    {
        use grape6_arith::simd::{active_level, SimdLevel};
        match active_level() {
            // SAFETY: dispatch proved the respective features available.
            Some(SimdLevel::Avx2) => {
                return unsafe { x86::row_avx2(rsqrt, ip, batch, exps, h2i, nb) }
            }
            Some(SimdLevel::Avx512) => {
                return unsafe { x86::row_avx512(rsqrt, ip, batch, exps, h2i, nb) }
            }
            None => {}
        }
    }
    portable_row(rsqrt, ip, batch, exps, h2i, nb)
}

/// The lane row on the `Portable` instance: what dispatch runs with no
/// SIMD level active, and what `kernel::batched_row{,_nb}` pin.
pub(crate) fn portable_row(
    rsqrt: &RsqrtCubedUnit,
    ip: &HwIParticle,
    batch: &SoaBatch,
    exps: ExpSet,
    h2i: Option<f64>,
    nb: &mut Vec<u32>,
) -> Option<PartialForce> {
    // SAFETY: `Portable` needs no ISA, and `SoaBatch::decode` pads every
    // array to a multiple of `MAX_LANES` ≥ its width.
    unsafe { row_lanes::<Portable>(rsqrt, ip, batch, exps, h2i, nb) }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use grape6_arith::simd::{Avx2, Avx512};

    /// # Safety
    /// Requires `avx2` at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn row_avx2(
        rsqrt: &RsqrtCubedUnit,
        ip: &HwIParticle,
        batch: &SoaBatch,
        exps: ExpSet,
        h2i: Option<f64>,
        nb: &mut Vec<u32>,
    ) -> Option<PartialForce> {
        row_lanes::<Avx2>(rsqrt, ip, batch, exps, h2i, nb)
    }

    /// # Safety
    /// Requires `avx512f` and `avx512dq` at runtime.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn row_avx512(
        rsqrt: &RsqrtCubedUnit,
        ip: &HwIParticle,
        batch: &SoaBatch,
        exps: ExpSet,
        h2i: Option<f64>,
        nb: &mut Vec<u32>,
    ) -> Option<PartialForce> {
        row_lanes::<Avx512>(rsqrt, ip, batch, exps, h2i, nb)
    }
}

/// The generic lane row.  Returns `None` if any accumulator window
/// overflowed.
///
/// Every line mirrors a stage of `pipeline::interact`; `q` is the single
/// rounding each `PipeFloat` operation performs (the branchless lane
/// quantiser, bit-identical to the `quantize_sig` the wrappers call).  One
/// pass over each chunk keeps stages 1–4 entirely in registers, `WIDTH`
/// lanes at a time, spilling only the eight arrays stage 5 and the
/// neighbour scan need (uninitialised stack scratch: written over
/// `[0, clp)`, read over `[0, cl)`, per chunk).
///
/// # Safety
/// `L`'s ISA must be available (the x86 callers are `#[target_feature]`
/// wrappers selected by runtime detection), and `batch`'s arrays must be
/// padded to a multiple of `L::WIDTH` (`SoaBatch::decode` pads to
/// `MAX_LANES`).
// Uniform counted loops over equal-length scratch arrays: the many-array
// zips clippy would prefer obscure the lane-major accumulation order.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
unsafe fn row_lanes<L: Lanes>(
    rsqrt: &RsqrtCubedUnit,
    ip: &HwIParticle,
    batch: &SoaBatch,
    exps: ExpSet,
    h2i: Option<f64>,
    nb: &mut Vec<u32>,
) -> Option<PartialForce> {
    #[inline(always)]
    unsafe fn q<L: Lanes>(x: L::F) -> L::F {
        quantize_lanes::<L>(x, PIPE_SIG_BITS)
    }
    // A chunk's lane-padded length never exceeds the scratch arrays.
    const { assert!(CHUNK.is_multiple_of(L::WIDTH)) };
    // i-side invariants, splatted once.
    let ixv = L::splat_i(ip.pos.x.raw());
    let iyv = L::splat_i(ip.pos.y.raw());
    let izv = L::splat_i(ip.pos.z.raw());
    let ivxv = L::splat(ip.vel[0]);
    let ivyv = L::splat(ip.vel[1]);
    let ivzv = L::splat(ip.vel[2]);
    let epsv = L::splat(ip.eps2);
    let resv = L::splat(PosFix::RESOLUTION);
    let threev = L::splat(3.0);
    let signv = L::splat_i(i64::MIN);
    // Seven block-FP lanes; their window scales feed the lane-parallel
    // scale-and-round below (`add_rounded` contract).
    let mut lax = BatchLane::new(exps.acc);
    let mut lay = BatchLane::new(exps.acc);
    let mut laz = BatchLane::new(exps.acc);
    let mut ljx = BatchLane::new(exps.jerk);
    let mut ljy = BatchLane::new(exps.jerk);
    let mut ljz = BatchLane::new(exps.jerk);
    let mut lp = BatchLane::new(exps.pot);
    let saccv = L::splat(lax.scale());
    let sjerkv = L::splat(ljx.scale());
    let spotv = L::splat(lp.scale());

    // Chunk scratch: the pre-scaled, pre-rounded summands plus the
    // unsoftened r² the neighbour scan keys on.  Left uninitialised — a
    // zero fill here is 8 KiB of memset per row however few j there are.
    // Per chunk the lane stores write `[0, clp)` of every array before
    // anything reads `[0, cl)`, `cl ≤ clp`; nothing reads beyond `cl`.
    let mut qax = [MaybeUninit::<f64>::uninit(); CHUNK];
    let mut qay = [MaybeUninit::<f64>::uninit(); CHUNK];
    let mut qaz = [MaybeUninit::<f64>::uninit(); CHUNK];
    let mut qjx = [MaybeUninit::<f64>::uninit(); CHUNK];
    let mut qjy = [MaybeUninit::<f64>::uninit(); CHUNK];
    let mut qjz = [MaybeUninit::<f64>::uninit(); CHUNK];
    let mut qpot = [MaybeUninit::<f64>::uninit(); CHUNK];
    let mut r2_raw = [MaybeUninit::<f64>::uninit(); CHUNK];

    let n = batch.len();
    let mut j0 = 0;
    while j0 < n {
        let cl = (n - j0).min(CHUNK);
        // Full vector width over the (zero-padded) tail; `SoaBatch`
        // guarantees the arrays extend to a multiple of the widest
        // lane count past every chunk start.
        let clp = cl.next_multiple_of(L::WIDTH);
        debug_assert!(j0 + clp <= batch.px.len());
        let mut g = 0;
        while g < clp {
            let at = j0 + g;
            // Stage 1: exact wrapping fixed-point delta, full-range
            // i64→f64 (one rounding), scale to length units, quantise.
            let dx = q::<L>(L::mul(
                L::i64_to_f64(L::sub_i(L::load_i(batch.px.as_ptr().add(at)), ixv)),
                resv,
            ));
            let dy = q::<L>(L::mul(
                L::i64_to_f64(L::sub_i(L::load_i(batch.py.as_ptr().add(at)), iyv)),
                resv,
            ));
            let dz = q::<L>(L::mul(
                L::i64_to_f64(L::sub_i(L::load_i(batch.pz.as_ptr().add(at)), izv)),
                resv,
            ));
            let dvx = q::<L>(L::sub(L::load(batch.vx.as_ptr().add(at)), ivxv));
            let dvy = q::<L>(L::sub(L::load(batch.vy.as_ptr().add(at)), ivyv));
            let dvz = q::<L>(L::sub(L::load(batch.vz.as_ptr().add(at)), ivzv));
            // Stage 2: r² through the two-level adder tree.
            let xx = q::<L>(L::mul(dx, dx));
            let yy = q::<L>(L::mul(dy, dy));
            let zz = q::<L>(L::mul(dz, dz));
            let rr = q::<L>(L::add(q::<L>(L::add(xx, yy)), zz));
            L::store(r2_raw.as_mut_ptr().cast::<f64>().add(g), rr);
            let r2 = q::<L>(L::add(rr, epsv));
            // Stage 3: the gathered table lookup, whole lane at once.
            let (e32, e12) = rsqrt.eval_both_lanes::<L>(r2);
            let rinv3 = q::<L>(e32);
            let rinv = q::<L>(e12);
            // Stage 4: multiplier tree.
            let m = L::load(batch.mass.as_ptr().add(at));
            let mr3 = q::<L>(L::mul(m, rinv3));
            let ax = q::<L>(L::mul(mr3, dx));
            let ay = q::<L>(L::mul(mr3, dy));
            let az = q::<L>(L::mul(mr3, dz));
            let xv = q::<L>(L::mul(dx, dvx));
            let yv = q::<L>(L::mul(dy, dvy));
            let zv = q::<L>(L::mul(dz, dvz));
            let rv = q::<L>(L::add(q::<L>(L::add(xv, yv)), zv));
            let rinv2 = q::<L>(L::mul(rinv, rinv));
            let beta = q::<L>(L::mul(q::<L>(L::mul(threev, rv)), rinv2));
            let jx = q::<L>(L::sub(q::<L>(L::mul(mr3, dvx)), q::<L>(L::mul(beta, ax))));
            let jy = q::<L>(L::sub(q::<L>(L::mul(mr3, dvy)), q::<L>(L::mul(beta, ay))));
            let jz = q::<L>(L::sub(q::<L>(L::mul(mr3, dvz)), q::<L>(L::mul(beta, az))));
            // pot = −q(m·rinv): negation is an exact sign flip.
            let pot = L::from_bits(L::xor_i(L::to_bits(q::<L>(L::mul(m, rinv))), signv));
            // Stage 5a, lane-parallel half: shift onto each window's
            // grid and round — exactly `(x·scale).round_ties_even()`.
            L::store(
                qax.as_mut_ptr().cast::<f64>().add(g),
                L::round_ties_even(L::mul(ax, saccv)),
            );
            L::store(
                qay.as_mut_ptr().cast::<f64>().add(g),
                L::round_ties_even(L::mul(ay, saccv)),
            );
            L::store(
                qaz.as_mut_ptr().cast::<f64>().add(g),
                L::round_ties_even(L::mul(az, saccv)),
            );
            L::store(
                qjx.as_mut_ptr().cast::<f64>().add(g),
                L::round_ties_even(L::mul(jx, sjerkv)),
            );
            L::store(
                qjy.as_mut_ptr().cast::<f64>().add(g),
                L::round_ties_even(L::mul(jy, sjerkv)),
            );
            L::store(
                qjz.as_mut_ptr().cast::<f64>().add(g),
                L::round_ties_even(L::mul(jz, sjerkv)),
            );
            L::store(
                qpot.as_mut_ptr().cast::<f64>().add(g),
                L::round_ties_even(L::mul(pot, spotv)),
            );
            g += L::WIDTH;
        }
        // Stage 5b, sequential half: the order-sensitive i64 adds,
        // lane-major in ascending j — the exact add sequence per lane
        // of the scalar pipeline.  Padding (k ≥ cl) never enters.
        // SAFETY (every `assume_init` below): `k < cl ≤ clp`, and the
        // loop above stored `[0, clp)` of all eight arrays for this chunk.
        for k in 0..cl {
            lax.add_rounded(qax[k].assume_init());
        }
        for k in 0..cl {
            lay.add_rounded(qay[k].assume_init());
        }
        for k in 0..cl {
            laz.add_rounded(qaz[k].assume_init());
        }
        for k in 0..cl {
            ljx.add_rounded(qjx[k].assume_init());
        }
        for k in 0..cl {
            ljy.add_rounded(qjy[k].assume_init());
        }
        for k in 0..cl {
            ljz.add_rounded(qjz[k].assume_init());
        }
        for k in 0..cl {
            lp.add_rounded(qpot[k].assume_init());
        }
        if let Some(h2) = h2i {
            for k in 0..cl {
                let r2 = r2_raw[k].assume_init();
                if r2 < h2 && r2 > 0.0 {
                    nb.push((j0 + k) as u32);
                }
            }
        }
        // Deferred overflow check, once per chunk.
        if lax.flagged()
            || lay.flagged()
            || laz.flagged()
            || ljx.flagged()
            || ljy.flagged()
            || ljz.flagged()
            || lp.flagged()
        {
            return None;
        }
        j0 += cl;
    }
    Some(PartialForce {
        acc: [lax.into_accum()?, lay.into_accum()?, laz.into_accum()?],
        jerk: [ljx.into_accum()?, ljy.into_accum()?, ljz.into_accum()?],
        pot: lp.into_accum()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jmem::HwJParticle;
    use crate::kernel::{batched_row, batched_row_nb};
    use crate::pipeline::interact;
    use crate::predictor::predict;
    use grape6_arith::simd::{set_dispatch_override, DispatchOverride};
    use nbody_core::force::JParticle;
    use nbody_core::Vec3;
    use std::sync::Mutex;

    /// The dispatch override is process-global; tests that set or assert
    /// on it serialise here so the parallel test runner cannot race them.
    static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

    fn predicted_set(n: usize, t: f64) -> Vec<PredictedJ> {
        let mut s = 0.731f64;
        let mut next = || {
            s = (s * 9301.0 + 0.2113).fract();
            s - 0.5
        };
        (0..n)
            .map(|_| {
                let hw = HwJParticle::from_host(&JParticle {
                    mass: 0.01 + (next() + 0.5) * 0.02,
                    t0: 0.0,
                    pos: Vec3::new(next(), next(), next()),
                    vel: Vec3::new(next(), next(), next()) * 0.4,
                    acc: Vec3::new(next(), next(), next()) * 0.05,
                    jerk: Vec3::new(next(), next(), next()) * 0.01,
                    snap: Vec3::ZERO,
                });
                predict(&hw, t)
            })
            .collect()
    }

    fn assert_pf_bits_equal(a: &PartialForce, b: &PartialForce, label: &str) {
        for c in 0..3 {
            assert_eq!(a.acc[c].mant(), b.acc[c].mant(), "acc[{c}] ({label})");
            assert_eq!(a.jerk[c].mant(), b.jerk[c].mant(), "jerk[{c}] ({label})");
        }
        assert_eq!(a.pot.mant(), b.pot.mant(), "pot ({label})");
    }

    /// One row through an entry point under test; `Some(h2)` takes the
    /// neighbour variant and fills the list.
    type Row<'a> = &'a dyn Fn(
        &HwIParticle,
        &[PredictedJ],
        ExpSet,
        Option<f64>,
        &mut Vec<u32>,
    ) -> Result<PartialForce, BlockFpError>;

    /// Run `f` on every batched entry point this host has: `batched_row`
    /// (pinned to the portable lanes) and `simd_row` at each dispatch
    /// level, including the forced-off one (portable again, reached
    /// through dispatch).  The override is restored afterwards.
    fn for_each_entry(mut f: impl FnMut(&str, Row)) {
        let rsqrt = RsqrtCubedUnit::default();
        let row = |simd: bool| {
            let rsqrt = &rsqrt;
            move |ip: &HwIParticle,
                  predicted: &[PredictedJ],
                  exps: ExpSet,
                  h2: Option<f64>,
                  nb: &mut Vec<u32>| {
                let mut batch = SoaBatch::default();
                batch.decode(predicted);
                match (simd, h2) {
                    (false, None) => batched_row(rsqrt, ip, &batch, predicted, exps),
                    (false, Some(h2)) => batched_row_nb(rsqrt, ip, &batch, predicted, exps, h2, nb),
                    (true, None) => simd_row(rsqrt, ip, &batch, predicted, exps),
                    (true, Some(h2)) => simd_row_nb(rsqrt, ip, &batch, predicted, exps, h2, nb),
                }
            }
        };
        f("batched", &row(false));
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        for (label, o) in [
            ("simd forced-scalar", DispatchOverride::ForceScalar),
            ("simd avx2-capped", DispatchOverride::CapAvx2),
            ("simd auto", DispatchOverride::Auto),
        ] {
            set_dispatch_override(o);
            f(label, &row(true));
        }
        set_dispatch_override(DispatchOverride::Auto);
    }

    #[test]
    fn rows_match_scalar_bitwise_at_every_level() {
        let rsqrt = RsqrtCubedUnit::default();
        let exps = ExpSet::from_magnitudes(30.0, 300.0, 30.0);
        // Sizes crossing chunk and lane-width boundaries (the per-chunk
        // flag check, ragged tails that exercise the zero padding).
        for n in [1, 3, 7, 8, 9, 63, CHUNK - 1, CHUNK, CHUNK + 1, CHUNK + 37] {
            let predicted = predicted_set(n, 0.0625);
            for k in 0..8 {
                let ip = HwIParticle::from_host(
                    Vec3::new(0.05 * k as f64 - 0.2, -0.1, 0.3),
                    Vec3::new(0.1, -0.2, 0.05 * k as f64),
                    1e-4,
                );
                let mut want = PartialForce::new(exps);
                for jp in &predicted {
                    interact(&rsqrt, &ip, jp, &mut want).unwrap();
                }
                for_each_entry(|label, row| {
                    let got = row(&ip, &predicted, exps, None, &mut Vec::new()).unwrap();
                    assert_pf_bits_equal(&got, &want, label);
                });
            }
        }
    }

    #[test]
    fn rows_nb_match_scalar_bitwise_including_lists() {
        let rsqrt = RsqrtCubedUnit::default();
        let predicted = predicted_set(300, 0.0);
        let exps = ExpSet::from_magnitudes(100.0, 1000.0, 100.0);
        let h2 = 0.09;
        let ip = HwIParticle::from_host(Vec3::new(0.1, 0.0, -0.1), Vec3::ZERO, 1e-4);
        let mut want = PartialForce::new(exps);
        let mut want_nb = Vec::new();
        for (addr, jp) in predicted.iter().enumerate() {
            let r2 = interact(&rsqrt, &ip, jp, &mut want).unwrap();
            if r2 < h2 && r2 > 0.0 {
                want_nb.push(addr as u32);
            }
        }
        assert!(!want_nb.is_empty(), "test data should have neighbours");
        for_each_entry(|label, row| {
            // A stale entry must not survive: the list is cleared first.
            let mut nb = vec![u32::MAX];
            let got = row(&ip, &predicted, exps, Some(h2), &mut nb).unwrap();
            assert_pf_bits_equal(&got, &want, label);
            assert_eq!(nb, want_nb, "neighbour list diverged ({label})");
        });
    }

    #[test]
    fn short_rows_after_a_long_row_never_see_its_scratch() {
        // The chunk scratch is uninitialised stack: after a row of several
        // full chunks it holds that row's summands and r² in every slot.
        // Short rows on the same thread then write only `[0, clp)` — one
        // j, two, one either side of both lane widths, one past a chunk —
        // and nothing beyond `cl` may reach an accumulator or a list.  The
        // radius takes in every j, so one stale r² would show as an
        // address the short batch does not have.
        let rsqrt = RsqrtCubedUnit::default();
        let exps = ExpSet::from_magnitudes(100.0, 1000.0, 100.0);
        let h2 = 100.0;
        let ip = HwIParticle::from_host(Vec3::new(0.1, 0.0, -0.1), Vec3::ZERO, 1e-4);
        let oracle = |predicted: &[PredictedJ]| {
            let mut pf = PartialForce::new(exps);
            let mut nb = Vec::new();
            for (addr, jp) in predicted.iter().enumerate() {
                let r2 = interact(&rsqrt, &ip, jp, &mut pf).unwrap();
                if r2 < h2 && r2 > 0.0 {
                    nb.push(addr as u32);
                }
            }
            (pf, nb)
        };
        let long = predicted_set(3 * CHUNK + 5, 0.0);
        let (long_pf, long_nb) = oracle(&long);
        assert_eq!(long_nb.len(), long.len(), "the radius takes in every j");
        let shorts: Vec<Vec<PredictedJ>> = [1, 2, 3, 5, 7, 9, CHUNK + 1]
            .iter()
            .map(|&n| predicted_set(n, 0.0625))
            .collect();
        for_each_entry(|label, row| {
            for with_nb in [None, Some(h2)] {
                let mut nb = Vec::new();
                let got = row(&ip, &long, exps, with_nb, &mut nb).unwrap();
                assert_pf_bits_equal(&got, &long_pf, label);
                for predicted in &shorts {
                    let n = predicted.len();
                    let (want, want_nb) = oracle(predicted);
                    let got = row(&ip, predicted, exps, with_nb, &mut nb).unwrap();
                    assert_pf_bits_equal(&got, &want, &format!("{label}, {n} j"));
                    if with_nb.is_some() {
                        assert_eq!(nb, want_nb, "neighbour list ({label}, {n} j)");
                    }
                }
            }
        });
    }

    #[test]
    fn rows_reproduce_scalar_overflow_error() {
        let rsqrt = RsqrtCubedUnit::default();
        // A very close pair with a deliberately tiny acc window.
        let ip = HwIParticle::from_host(Vec3::ZERO, Vec3::ZERO, 0.0);
        let predicted = vec![{
            let hw = HwJParticle::from_host(&JParticle {
                mass: 1.0,
                t0: 0.0,
                pos: Vec3::new(1e-4, 0.0, 0.0),
                ..Default::default()
            });
            predict(&hw, 0.0)
        }];
        let exps = ExpSet {
            acc: 2,
            jerk: 40,
            pot: 20,
        };
        let mut pf = PartialForce::new(exps);
        let want = interact(&rsqrt, &ip, &predicted[0], &mut pf).unwrap_err();
        for_each_entry(|label, row| {
            let got = row(&ip, &predicted, exps, None, &mut Vec::new()).unwrap_err();
            assert_eq!(got, want, "error must equal the oracle's ({label})");
            // The neighbour variant recovers the same error and leaves no
            // list from the discarded row behind.
            let mut nb = Vec::new();
            let got = row(&ip, &predicted, exps, Some(1.0), &mut nb).unwrap_err();
            assert_eq!(got, want, "nb error must equal the oracle's ({label})");
            assert!(nb.is_empty(), "discarded row left a list ({label})");
        });
    }

    #[test]
    fn softening_only_self_interaction_matches() {
        let rsqrt = RsqrtCubedUnit::default();
        let pos = Vec3::new(0.25, 0.25, 0.25);
        let hw = HwJParticle::from_host(&JParticle {
            mass: 2.0,
            t0: 0.0,
            pos,
            ..Default::default()
        });
        let predicted = vec![predict(&hw, 0.0)];
        let ip = HwIParticle::from_host(pos, Vec3::ZERO, 0.01);
        let exps = ExpSet::DEFAULT;
        let mut want = PartialForce::new(exps);
        interact(&rsqrt, &ip, &predicted[0], &mut want).unwrap();
        for_each_entry(|label, row| {
            let got = row(&ip, &predicted, exps, None, &mut Vec::new()).unwrap();
            assert_pf_bits_equal(&got, &want, label);
            // And the self-pair is not a neighbour even inside h².
            let mut nb = Vec::new();
            row(&ip, &predicted, exps, Some(1.0), &mut nb).unwrap();
            assert!(nb.is_empty(), "self-pair flagged ({label})");
        });
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn dispatch_reports_a_level_on_x86_hosts() {
        use grape6_arith::simd::SimdLevel;
        // Sanity for the CI matrix: on the hosts this repo gates on,
        // Auto must resolve to *some* SIMD level unless the env forced
        // it off.
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        set_dispatch_override(DispatchOverride::Auto);
        let lvl = grape6_arith::simd::active_level();
        if std::env::var("GRAPE6_FORCE_SCALAR").map(|v| !v.is_empty() && v != "0") == Ok(true) {
            assert_eq!(lvl, None);
        } else if is_x86_feature_detected!("avx2") {
            assert!(matches!(
                lvl,
                Some(SimdLevel::Avx2) | Some(SimdLevel::Avx512)
            ));
        }
    }
}
