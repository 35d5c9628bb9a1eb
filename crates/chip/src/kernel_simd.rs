//! The one batched datapath: the generic lane block, its lane instances,
//! and the runtime dispatch between them ([`KernelMode::Simd`]).
//!
//! `block_lanes` spells the pipeline's stage 1–5 op chain once, generically
//! over a `grape6_arith::simd::Lanes` instance, turned the way the chip has
//! it (§3.4: "calculates the forces on 48 particles in parallel"): the
//! **i-particles sit across the lanes** — per group of `WIDTH` i-registers
//! the raw position words, velocities, ε², the three window scales, h² and
//! seven block-FP accumulators stay in lane registers — and the j-batch
//! is walked in ascending j with **scalar broadcasts**.  Each lane *is* one
//! i-particle's pipeline: stages 1–4 (position deltas, r², the gathered
//! rsqrt table lookup, the multiplier tree), stage 5a's scale-and-round
//! with the lane's own window scale, and stage 5b's `i64` add
//! (`LaneAccum::add_rounded`) all run lane-parallel.  It is instantiated
//! three times — `Portable` (4 lanes in plain arrays, every host), and on
//! x86-64 `Avx2` (4) and `Avx512` (8) under `#[target_feature]` wrappers.
//!
//! **Why the bits cannot change.** Each lane op is the same single-rounded
//! IEEE-754 f64 operation the scalar chain performs (no FMA anywhere);
//! the quantiser and the rsqrt decomposition are pure integer lane math
//! proven bit-identical in `grape6-arith`; and every lane adds its own
//! summands one at a time in ascending j — the oracle's order — so no
//! associativity argument is needed and the sticky per-lane overflow
//! flags trip for exactly the prefixes the scalar oracle's `Result`
//! would.  The idle lanes of a ragged last group carry a copy of a real
//! i-register and are masked out of flags, neighbour lists and output.
//!
//! **The quantiser's domain.** `q` is `quantize_lanes_finite`: the
//! quantiser without its NaN/±inf select, five lane ops instead of eight.
//! It equals the oracle's `quantize_sig` on a domain D — finite values,
//! ±inf, and NaNs whose dropped low `53 − PIPE_SIG_BITS` bits are zero.
//! If none of the pass's f64 inputs is NaN (j side: `mass`, `vx`, `vy`,
//! `vz`; i side: `vel`, `eps2` — positions are integer words), every value
//! the j-step feeds to `q` is in D:
//!
//! * an IEEE op on non-NaN operands yields a non-NaN or the default NaN
//!   (payload zero; Rust's "preferred NaN"), which is in D;
//! * an op with a NaN operand propagates an operand's payload (or the
//!   default NaN), so by induction every NaN in the chain has payload zero;
//! * the `pot` sign flip and `round_ties_even` keep the payload;
//! * the rsqrt table gathers are finite, and the out-of-window lanes go
//!   through `fix_lanes`, the same `eval_both` the oracle runs (finite
//!   too: zero for NaN, ±inf and non-positive arguments).
//!
//! The precondition is checked where it costs nothing per pair:
//! `SoaBatch::decode` records whether any j-side word is NaN, once per
//! prediction, and each lane group looks at its own real i-registers when
//! it loads them.  A group that fails either check is treated exactly like
//! a tripped one (below), so NaN inputs get the oracle's bits and the
//! oracle's error without a second kernel.
//!
//! **Errors.** A flag on any real lane (looked at once per `CHUNK`), or a
//! NaN input, discards that group and re-runs its i-particles through the
//! scalar oracle in ascending i, returning the first `Err` — which is the
//! one the scalar i-loop returns, whichever lane tripped first in j.
//!
//! Dispatch happens per block via [`grape6_arith::simd::active_level`];
//! with no level active (non-x86 hosts, `GRAPE6_FORCE_SCALAR=1`) the block
//! runs the portable instance — same bits, narrower groups.
//!
//! [`KernelMode::Simd`]: crate::kernel::KernelMode::Simd

use grape6_arith::blockfp::{window_scale, BlockFpError, LaneAccum, LaneFlags};
use grape6_arith::fixed::PosFix;
use grape6_arith::rsqrt::RsqrtCubedUnit;
use grape6_arith::simd::{quantize_lanes_finite, Lanes, Portable, MAX_LANES};
use grape6_arith::PIPE_SIG_BITS;

use crate::kernel::{scalar_row, SoaBatch, CHUNK};
use crate::pipeline::{ExpSet, HwIParticle, PartialForce};
use crate::predictor::PredictedJ;

/// The neighbour half of a pass: one squared search radius per i-register,
/// and per i-register the list its comparator fills.
pub type Neighbours<'a> = (&'a [f64], &'a mut [Vec<u32>]);

/// Evaluate a whole pass — `i_regs`, each under its own `ExpSet` — against
/// the batch through the active lane level.
///
/// `Ok(forces)` is bit-identical to running every i-register through the
/// scalar `interact` loop; `Err` is the exact error the scalar i-loop
/// (ascending i, ascending j) would have returned.  With `nb = Some((h2,
/// lists))`, `lists[i]` is cleared and receives the local address of every
/// j with unsoftened `r² < h2[i]` in ascending j (self-pairs, `r = 0`, are
/// not flagged); on `Err` every list is left empty.  `predicted` must be
/// what `batch` was decoded from.
pub fn simd_block(
    rsqrt: &RsqrtCubedUnit,
    i_regs: &[HwIParticle],
    exps: &[ExpSet],
    batch: &SoaBatch,
    predicted: &[PredictedJ],
    nb: Option<Neighbours<'_>>,
) -> Result<Vec<PartialForce>, BlockFpError> {
    #[cfg(target_arch = "x86_64")]
    {
        use grape6_arith::simd::{active_level, SimdLevel};
        match active_level() {
            // SAFETY: dispatch proved the respective features available.
            Some(SimdLevel::Avx2) => {
                return unsafe { x86::block_avx2(rsqrt, i_regs, exps, batch, predicted, nb) }
            }
            Some(SimdLevel::Avx512) => {
                return unsafe { x86::block_avx512(rsqrt, i_regs, exps, batch, predicted, nb) }
            }
            None => {}
        }
    }
    batched_block(rsqrt, i_regs, exps, batch, predicted, nb)
}

/// Evaluate one i-register against the whole batch through the active
/// lane level (plain force pass): a one-i [`simd_block`].  Bit-identical to
/// [`crate::kernel::batched_row`] — and therefore to the scalar oracle —
/// including the recovered error on overflow.
pub fn simd_row(
    rsqrt: &RsqrtCubedUnit,
    ip: &HwIParticle,
    batch: &SoaBatch,
    predicted: &[PredictedJ],
    exps: ExpSet,
) -> Result<PartialForce, BlockFpError> {
    let ip = std::slice::from_ref(ip);
    simd_block(rsqrt, ip, &[exps], batch, predicted, None).map(|pf| pf[0])
}

/// Evaluate one i-register against the whole batch with neighbour
/// detection, through the active lane level.  Bit-identical to
/// [`batched_block`] on one-element slices, list included.
pub fn simd_row_nb(
    rsqrt: &RsqrtCubedUnit,
    ip: &HwIParticle,
    batch: &SoaBatch,
    predicted: &[PredictedJ],
    exps: ExpSet,
    h2i: f64,
    nb: &mut Vec<u32>,
) -> Result<PartialForce, BlockFpError> {
    let (ip, h2) = (std::slice::from_ref(ip), [h2i]);
    let nb = Some((&h2[..], std::slice::from_mut(nb)));
    simd_block(rsqrt, ip, &[exps], batch, predicted, nb).map(|pf| pf[0])
}

/// [`simd_block`] pinned to the `Portable` lane instance, whatever dispatch
/// would pick (it is also what dispatch runs with no SIMD level active).
/// Re-exported as [`crate::kernel::batched_block`], next to the one-i
/// plain [`crate::kernel::batched_row`] built on it.
pub fn batched_block(
    rsqrt: &RsqrtCubedUnit,
    i_regs: &[HwIParticle],
    exps: &[ExpSet],
    batch: &SoaBatch,
    predicted: &[PredictedJ],
    nb: Option<Neighbours<'_>>,
) -> Result<Vec<PartialForce>, BlockFpError> {
    // SAFETY: `Portable` needs no ISA.
    unsafe { block_lanes::<Portable>(rsqrt, i_regs, exps, batch, predicted, nb) }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use grape6_arith::simd::{Avx2, Avx512};

    /// # Safety
    /// Requires `avx2` at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn block_avx2(
        rsqrt: &RsqrtCubedUnit,
        i_regs: &[HwIParticle],
        exps: &[ExpSet],
        batch: &SoaBatch,
        predicted: &[PredictedJ],
        nb: Option<Neighbours<'_>>,
    ) -> Result<Vec<PartialForce>, BlockFpError> {
        block_lanes::<Avx2>(rsqrt, i_regs, exps, batch, predicted, nb)
    }

    /// # Safety
    /// Requires `avx512f` and `avx512dq` at runtime.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn block_avx512(
        rsqrt: &RsqrtCubedUnit,
        i_regs: &[HwIParticle],
        exps: &[ExpSet],
        batch: &SoaBatch,
        predicted: &[PredictedJ],
        nb: Option<Neighbours<'_>>,
    ) -> Result<Vec<PartialForce>, BlockFpError> {
        block_lanes::<Avx512>(rsqrt, i_regs, exps, batch, predicted, nb)
    }
}

/// The generic lane block: one `PartialForce` per i-register, in order.
///
/// Every line of the j-loop mirrors a stage of `pipeline::interact`; `q`
/// is the single rounding each `PipeFloat` operation performs (the
/// select-free lane quantiser, bit-identical to the `quantize_sig` the
/// wrappers call on every value a NaN-free group feeds it — module docs).
/// Nothing is spilled: per group of `WIDTH` i-registers
/// the i-side and the seven accumulators live in lane registers across
/// the whole batch, and the j side arrives as scalar broadcasts.
///
/// # Safety
/// `L`'s ISA must be available (the x86 callers are `#[target_feature]`
/// wrappers selected by runtime detection).
#[inline(always)]
unsafe fn block_lanes<L: Lanes>(
    rsqrt: &RsqrtCubedUnit,
    i_regs: &[HwIParticle],
    exps: &[ExpSet],
    batch: &SoaBatch,
    predicted: &[PredictedJ],
    mut nb: Option<Neighbours<'_>>,
) -> Result<Vec<PartialForce>, BlockFpError> {
    #[inline(always)]
    unsafe fn q<L: Lanes>(x: L::F) -> L::F {
        quantize_lanes_finite::<L>(x, PIPE_SIG_BITS)
    }
    /// One value per lane, staged for a lane load.
    #[inline(always)]
    fn per_lane<T>(f: impl Fn(usize) -> T) -> [T; MAX_LANES] {
        std::array::from_fn(f)
    }
    let n_i = i_regs.len();
    assert_eq!(exps.len(), n_i, "one ExpSet per i-register");
    let mut out = Vec::with_capacity(n_i);
    if let Some((h2, lists)) = &mut nb {
        assert!(h2.len() == n_i && lists.len() == n_i);
        lists.iter_mut().for_each(Vec::clear);
    }
    let n = batch.len();
    debug_assert_eq!(n, predicted.len());
    // One length for all seven arrays, so the j-loop indexes unchecked.
    let (mass, px, py, pz) = (
        &batch.mass[..n],
        &batch.px[..n],
        &batch.py[..n],
        &batch.pz[..n],
    );
    let (vx, vy, vz) = (&batch.vx[..n], &batch.vy[..n], &batch.vz[..n]);
    let resv = L::splat(PosFix::RESOLUTION);
    let threev = L::splat(3.0);
    let signv = L::splat_i(i64::MIN);
    let zerov = L::splat(0.0);

    for g0 in (0..n_i).step_by(L::WIDTH) {
        let n_real = (n_i - g0).min(L::WIDTH);
        let real = (1u32 << n_real) - 1;
        // The group's i-side, one i-register per lane.  Idle lanes of a
        // ragged last group copy the group's first register: real data,
        // so they cost no special values, and `real` masks them out.
        let reg = |lane: usize| if lane < n_real { g0 + lane } else { g0 };
        let ixv = L::load_i(per_lane(|l| i_regs[reg(l)].pos.x.raw()).as_ptr());
        let iyv = L::load_i(per_lane(|l| i_regs[reg(l)].pos.y.raw()).as_ptr());
        let izv = L::load_i(per_lane(|l| i_regs[reg(l)].pos.z.raw()).as_ptr());
        let ivxv = L::load(per_lane(|l| i_regs[reg(l)].vel[0]).as_ptr());
        let ivyv = L::load(per_lane(|l| i_regs[reg(l)].vel[1]).as_ptr());
        let ivzv = L::load(per_lane(|l| i_regs[reg(l)].vel[2]).as_ptr());
        let epsv = L::load(per_lane(|l| i_regs[reg(l)].eps2).as_ptr());
        let saccv = L::load(per_lane(|l| window_scale(exps[reg(l)].acc)).as_ptr());
        let sjerkv = L::load(per_lane(|l| window_scale(exps[reg(l)].jerk)).as_ptr());
        let spotv = L::load(per_lane(|l| window_scale(exps[reg(l)].pot)).as_ptr());
        let h2v = match &nb {
            Some((h2, _)) => L::load(per_lane(|l| h2[reg(l)]).as_ptr()),
            None => zerov,
        };
        // Seven block-FP accumulators per lane and their shared flags.
        let mut flags = LaneFlags::<L>::new();
        let mut lax = LaneAccum::<L>::new();
        let mut lay = LaneAccum::<L>::new();
        let mut laz = LaneAccum::<L>::new();
        let mut ljx = LaneAccum::<L>::new();
        let mut ljy = LaneAccum::<L>::new();
        let mut ljz = LaneAccum::<L>::new();
        let mut lp = LaneAccum::<L>::new();

        // The quantiser's precondition (module docs): no NaN among the
        // batch's words or this group's registers, else the oracle runs it.
        let mut tripped = batch.any_nan
            || i_regs[g0..g0 + n_real]
                .iter()
                .any(|ip| ip.eps2.is_nan() || ip.vel.iter().any(|v| v.is_nan()));
        let mut j0 = 0;
        while j0 < n && !tripped {
            let end = (j0 + CHUNK).min(n);
            for j in j0..end {
                // Stage 1: exact wrapping fixed-point delta, full-range
                // i64→f64 (one rounding), scale to length units, quantise.
                let dx = q::<L>(L::mul(
                    L::i64_to_f64(L::sub_i(L::splat_i(px[j]), ixv)),
                    resv,
                ));
                let dy = q::<L>(L::mul(
                    L::i64_to_f64(L::sub_i(L::splat_i(py[j]), iyv)),
                    resv,
                ));
                let dz = q::<L>(L::mul(
                    L::i64_to_f64(L::sub_i(L::splat_i(pz[j]), izv)),
                    resv,
                ));
                let dvx = q::<L>(L::sub(L::splat(vx[j]), ivxv));
                let dvy = q::<L>(L::sub(L::splat(vy[j]), ivyv));
                let dvz = q::<L>(L::sub(L::splat(vz[j]), ivzv));
                // Stage 2: r² through the two-level adder tree.
                let xx = q::<L>(L::mul(dx, dx));
                let yy = q::<L>(L::mul(dy, dy));
                let zz = q::<L>(L::mul(dz, dz));
                let rr = q::<L>(L::add(q::<L>(L::add(xx, yy)), zz));
                let r2 = q::<L>(L::add(rr, epsv));
                // Stage 3: the gathered table lookup, whole lane at once.
                let (e32, e12) = rsqrt.eval_both_lanes::<L>(r2);
                let rinv3 = q::<L>(e32);
                let rinv = q::<L>(e12);
                // Stage 4: multiplier tree.
                let m = L::splat(mass[j]);
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
                // Stage 5: shift onto each lane's window grid and round —
                // exactly `(x·scale).round_ties_even()` — then the lane's
                // own exact `i64` add, one summand at a time.
                lax.add_rounded(L::round_ties_even(L::mul(ax, saccv)), &mut flags);
                lay.add_rounded(L::round_ties_even(L::mul(ay, saccv)), &mut flags);
                laz.add_rounded(L::round_ties_even(L::mul(az, saccv)), &mut flags);
                ljx.add_rounded(L::round_ties_even(L::mul(jx, sjerkv)), &mut flags);
                ljy.add_rounded(L::round_ties_even(L::mul(jy, sjerkv)), &mut flags);
                ljz.add_rounded(L::round_ties_even(L::mul(jz, sjerkv)), &mut flags);
                lp.add_rounded(L::round_ties_even(L::mul(pot, spotv)), &mut flags);
                // The neighbour comparator: unsoftened r² < h², r² > 0.
                if let Some((_, lists)) = &mut nb {
                    let near = L::mask_and(L::lt(rr, h2v), L::lt(zerov, rr));
                    let mut bits = L::mask_bits(near) & real;
                    while bits != 0 {
                        lists[g0 + bits.trailing_zeros() as usize].push(j as u32);
                        bits &= bits - 1;
                    }
                }
            }
            // Deferred overflow check, once per chunk.
            tripped = flags.bits() & real != 0;
            j0 = end;
        }
        if tripped {
            // Discard the group.  The oracle decides, in ascending i:
            // a lower lane that would only trip in a later chunk still
            // outranks the lane that stopped this one; a NaN group may
            // also come back `Ok`.
            for k in g0..g0 + n_real {
                let nb_k = nb.as_mut().map(|(h2, lists)| (h2[k], &mut lists[k]));
                match scalar_row(rsqrt, &i_regs[k], predicted, exps[k], nb_k) {
                    Ok(pf) => out.push(pf),
                    Err(e) => {
                        if let Some((_, lists)) = &mut nb {
                            lists.iter_mut().for_each(Vec::clear);
                        }
                        return Err(e);
                    }
                }
            }
            continue;
        }
        let eacc = per_lane(|l| exps[reg(l)].acc);
        let ejerk = per_lane(|l| exps[reg(l)].jerk);
        let epot = per_lane(|l| exps[reg(l)].pot);
        let acc = [lax.accums(&eacc), lay.accums(&eacc), laz.accums(&eacc)];
        let jerk = [ljx.accums(&ejerk), ljy.accums(&ejerk), ljz.accums(&ejerk)];
        let pot = lp.accums(&epot);
        out.extend((0..n_real).map(|lane| PartialForce {
            acc: [acc[0][lane], acc[1][lane], acc[2][lane]],
            jerk: [jerk[0][lane], jerk[1][lane], jerk[2][lane]],
            pot: pot[lane],
        }));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jmem::HwJParticle;
    use crate::kernel::batched_row;
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
            assert_eq!(a.acc[c], b.acc[c], "acc[{c}] ({label})");
            assert_eq!(a.jerk[c], b.jerk[c], "jerk[{c}] ({label})");
        }
        assert_eq!(a.pot, b.pot, "pot ({label})");
    }

    /// The scalar i-loop: every i-register through `interact` in ascending
    /// i and ascending j, with the neighbour comparator when `h2` is given.
    fn oracle(
        i_regs: &[HwIParticle],
        exps: &[ExpSet],
        predicted: &[PredictedJ],
        h2: Option<&[f64]>,
    ) -> Result<(Vec<PartialForce>, Vec<Vec<u32>>), BlockFpError> {
        let rsqrt = RsqrtCubedUnit::default();
        let mut lists = vec![Vec::new(); i_regs.len()];
        let mut out = Vec::new();
        for (i, (ip, &exp)) in i_regs.iter().zip(exps).enumerate() {
            let mut pf = PartialForce::new(exp);
            for (addr, jp) in predicted.iter().enumerate() {
                let r2 = interact(&rsqrt, ip, jp, &mut pf)?;
                if h2.is_some_and(|h2| r2 < h2[i] && r2 > 0.0) {
                    lists[i].push(addr as u32);
                }
            }
            out.push(pf);
        }
        Ok((out, lists))
    }

    /// One batched datapath under test: the entry points pinned to the
    /// portable lanes, or the dispatched ones at the dispatch level
    /// `for_each_entry` has set.  Every call decodes the batch itself.
    struct Entry {
        label: &'static str,
        dispatched: bool,
    }

    impl Entry {
        /// One i-register; `Some(h2)` takes the neighbour variant.
        fn row(
            &self,
            ip: &HwIParticle,
            predicted: &[PredictedJ],
            exps: ExpSet,
            h2: Option<f64>,
            nb: &mut Vec<u32>,
        ) -> Result<PartialForce, BlockFpError> {
            let rsqrt = RsqrtCubedUnit::default();
            let mut batch = SoaBatch::default();
            batch.decode(predicted);
            match (self.dispatched, h2) {
                (false, None) => batched_row(&rsqrt, ip, &batch, predicted, exps),
                (false, Some(h2)) => {
                    let (ip, nb) = (std::slice::from_ref(ip), std::slice::from_mut(nb));
                    batched_block(&rsqrt, ip, &[exps], &batch, predicted, Some((&[h2], nb)))
                        .map(|pf| pf[0])
                }
                (true, None) => simd_row(&rsqrt, ip, &batch, predicted, exps),
                (true, Some(h2)) => simd_row_nb(&rsqrt, ip, &batch, predicted, exps, h2, nb),
            }
        }

        /// A whole pass.
        fn block(
            &self,
            i_regs: &[HwIParticle],
            exps: &[ExpSet],
            predicted: &[PredictedJ],
            nb: Option<Neighbours<'_>>,
        ) -> Result<Vec<PartialForce>, BlockFpError> {
            let rsqrt = RsqrtCubedUnit::default();
            let mut batch = SoaBatch::default();
            batch.decode(predicted);
            if self.dispatched {
                simd_block(&rsqrt, i_regs, exps, &batch, predicted, nb)
            } else {
                batched_block(&rsqrt, i_regs, exps, &batch, predicted, nb)
            }
        }
    }

    /// Run `f` on every batched datapath this host has: the `batched_*`
    /// entries (pinned to the portable lanes) and the `simd_*` entries at
    /// each dispatch level, including the forced-off one (portable again,
    /// reached through dispatch).  The override is restored afterwards.
    fn for_each_entry(mut f: impl FnMut(&Entry)) {
        f(&Entry {
            label: "batched",
            dispatched: false,
        });
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        for (label, o) in [
            ("simd forced-scalar", DispatchOverride::ForceScalar),
            ("simd avx2-capped", DispatchOverride::CapAvx2),
            ("simd auto", DispatchOverride::Auto),
        ] {
            set_dispatch_override(o);
            f(&Entry {
                label,
                dispatched: true,
            });
        }
        set_dispatch_override(DispatchOverride::Auto);
    }

    #[test]
    fn rows_match_scalar_bitwise_at_every_level() {
        let rsqrt = RsqrtCubedUnit::default();
        let exps = ExpSet::from_magnitudes(30.0, 300.0, 30.0);
        // Sizes crossing the chunk boundary (the per-chunk flag check).
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
                for_each_entry(|e| {
                    let got = e.row(&ip, &predicted, exps, None, &mut Vec::new()).unwrap();
                    assert_pf_bits_equal(&got, &want, e.label);
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
        for_each_entry(|e| {
            // A stale entry must not survive: the list is cleared first.
            let mut nb = vec![u32::MAX];
            let got = e.row(&ip, &predicted, exps, Some(h2), &mut nb).unwrap();
            assert_pf_bits_equal(&got, &want, e.label);
            assert_eq!(nb, want_nb, "neighbour list diverged ({})", e.label);
        });
    }

    /// `n` i-registers with a different `ExpSet` and a different `h²` in
    /// every lane of every group; register `k` sits on j-particle `k`
    /// (a self-pair at `r = 0`) wherever the batch has one.
    fn block_inputs(
        n: usize,
        predicted: &[PredictedJ],
    ) -> (Vec<HwIParticle>, Vec<ExpSet>, Vec<f64>) {
        let i_regs = (0..n)
            .map(|k| match predicted.get(k) {
                Some(jp) => HwIParticle {
                    pos: jp.pos,
                    vel: jp.vel,
                    eps2: grape6_arith::quantize_sig(1e-4, PIPE_SIG_BITS),
                },
                None => HwIParticle::from_host(
                    Vec3::new(0.02 * k as f64 - 0.4, 0.3 - 0.01 * k as f64, 0.1),
                    Vec3::new(0.1, -0.2, 0.01 * k as f64),
                    1e-4,
                ),
            })
            .collect();
        let exps = (0..n as i32)
            .map(|k| {
                let base = ExpSet::from_magnitudes(100.0, 3000.0, 100.0);
                ExpSet {
                    acc: base.acc + k % 5,
                    jerk: base.jerk + (k / 2) % 7,
                    pot: base.pot + (k / 3) % 4,
                }
            })
            .collect();
        // From "nobody" through "a few" to "everybody".
        let h2 = (0..n)
            .map(|k| [0.0, 0.01, 0.04, 0.09, 0.3, 100.0][k % 6] + 1e-3 * k as f64)
            .collect();
        (i_regs, exps, h2)
    }

    #[test]
    fn blocks_match_scalar_bitwise_with_per_lane_windows_and_radii() {
        for n_j in [1, 2, 7, CHUNK - 1, CHUNK, CHUNK + 1, 300] {
            let predicted = predicted_set(n_j, 0.0625);
            for n_i in [1, 3, 7, 8, 9, 47, 48] {
                let (i_regs, exps, h2) = block_inputs(n_i, &predicted);
                let (want, want_nb) = oracle(&i_regs, &exps, &predicted, Some(&h2)).unwrap();
                if n_i == 48 && n_j == 300 {
                    assert!(want_nb.iter().any(|l| l.is_empty()));
                    assert!(want_nb.iter().any(|l| l.len() == n_j - 1), "all but itself");
                }
                for_each_entry(|e| {
                    let label = format!("{}, {n_i} i × {n_j} j", e.label);
                    let got = e.block(&i_regs, &exps, &predicted, None).unwrap();
                    assert_eq!(got.len(), n_i);
                    for (g, w) in got.iter().zip(&want) {
                        assert_pf_bits_equal(g, w, &label);
                    }
                    // Stale entries must not survive, and the self-pair
                    // (the oracle drops it too) is never listed.
                    let mut lists = vec![vec![u32::MAX; 3]; n_i];
                    let got = e
                        .block(&i_regs, &exps, &predicted, Some((&h2, &mut lists)))
                        .unwrap();
                    for (g, w) in got.iter().zip(&want) {
                        assert_pf_bits_equal(g, w, &label);
                    }
                    assert_eq!(lists, want_nb, "neighbour lists ({label})");
                    for (i, l) in lists.iter().enumerate() {
                        assert!(!l.contains(&(i as u32)), "self-pair listed ({label})");
                    }
                });
            }
        }
    }

    /// j-particles in a cluster on the +x side of the origin, the last
    /// third of them four times heavier: seen from near the origin every
    /// x-acceleration summand is positive, and the running sum more than
    /// doubles over the last third.
    fn cluster_set(n: usize) -> Vec<JParticle> {
        let mut s = 0.377f64;
        let mut next = || {
            s = (s * 9301.0 + 0.2113).fract();
            s - 0.5
        };
        (0..n)
            .map(|k| JParticle {
                mass: if k < n - n / 3 { 0.01 } else { 0.04 },
                t0: 0.0,
                pos: Vec3::new(1.0 + next(), 0.2 * next(), 0.2 * next()),
                vel: Vec3::new(next(), next(), next()) * 0.1,
                ..Default::default()
            })
            .collect()
    }

    fn predict_all(js: &[JParticle]) -> Vec<PredictedJ> {
        js.iter()
            .map(|j| predict(&HwJParticle::from_host(j), 0.0))
            .collect()
    }

    /// Both block variants through every entry: the error must be `want`,
    /// and the neighbour variant must leave no list behind.
    fn assert_block_err(
        i_regs: &[HwIParticle],
        exps: &[ExpSet],
        predicted: &[PredictedJ],
        want: BlockFpError,
    ) {
        let h2 = vec![100.0; i_regs.len()];
        for_each_entry(|e| {
            let got = e.block(i_regs, exps, predicted, None).unwrap_err();
            assert_eq!(got, want, "{}", e.label);
            let mut lists = vec![vec![u32::MAX]; i_regs.len()];
            let got = e
                .block(i_regs, exps, predicted, Some((&h2, &mut lists)))
                .unwrap_err();
            assert_eq!(got, want, "nb, {}", e.label);
            assert!(lists.iter().all(Vec::is_empty), "list left ({})", e.label);
        });
    }

    #[test]
    fn the_lowest_failing_lane_decides_the_error_not_the_first_flag() {
        // Lane 5 overflows on the very first j; lane 2 only in the third
        // chunk.  The per-chunk early exit sees lane 5 first — the scalar
        // i-loop reports lane 2.
        let n_j = 3 * CHUNK;
        let i_regs: Vec<HwIParticle> = (0..8)
            .map(|k| {
                HwIParticle::from_host(
                    Vec3::new(0.01 * k as f64, 0.02, -0.01 * k as f64),
                    Vec3::ZERO,
                    0.0,
                )
            })
            .collect();
        let wide = ExpSet::from_magnitudes(1e12, 1e16, 1e8);
        let tiny = ExpSet { acc: -40, ..wide };

        // `SummandOverflow`: a unit mass next to i-register 2, late.
        let mut js = cluster_set(n_j);
        js[2 * CHUNK + 5] = JParticle {
            mass: 1.0,
            t0: 0.0,
            pos: Vec3::new(0.02 + 1e-4, 0.02, -0.02),
            ..Default::default()
        };
        let predicted = predict_all(&js);
        let mut exps = vec![wide; 8];
        exps[2] = ExpSet::from_magnitudes(30.0, 1e16, 1e8);
        exps[5] = tiny;
        let lane = |k: usize, upto: usize| {
            oracle(&i_regs[k..=k], &exps[k..=k], &predicted[..upto], None).map(|_| ())
        };
        let want = lane(2, n_j).unwrap_err();
        assert!(matches!(want, BlockFpError::SummandOverflow { .. }));
        assert_eq!(lane(2, 2 * CHUNK), Ok(()), "lane 2 survives two chunks");
        let early = lane(5, 1).unwrap_err();
        assert_ne!(early, want, "the two lanes fail differently");
        assert_eq!(oracle(&i_regs, &exps, &predicted, None).unwrap_err(), want);
        assert_block_err(&i_regs, &exps, &predicted, want);

        // `SumOverflow`: lane 2's x-window holds the running sum for two
        // chunks and is outgrown in the third.
        let predicted = predict_all(&cluster_set(n_j));
        let (upto_two, _) = oracle(&i_regs[2..=2], &[wide], &predicted[..2 * CHUNK], None).unwrap();
        let sum = upto_two[0].to_force_result().acc.x;
        let mut exps = vec![wide; 8];
        exps[2] = ExpSet {
            acc: sum.log2().floor() as i32 + 1, // 2^acc ∈ (sum, 2·sum]
            ..wide
        };
        exps[5] = tiny;
        let lane = |k: usize, upto: usize| {
            oracle(&i_regs[k..=k], &exps[k..=k], &predicted[..upto], None).map(|_| ())
        };
        assert_eq!(lane(2, n_j), Err(BlockFpError::SumOverflow));
        assert_eq!(lane(2, 2 * CHUNK), Ok(()), "lane 2 survives two chunks");
        assert!(matches!(
            lane(5, 1),
            Err(BlockFpError::SummandOverflow { .. })
        ));
        assert_block_err(&i_regs, &exps, &predicted, BlockFpError::SumOverflow);
    }

    #[test]
    fn idle_lanes_of_a_ragged_group_report_nothing_of_their_own() {
        // Ten registers: on every instance the last group is {8, 9} plus
        // idle lanes that copy register 8.
        let predicted = predicted_set(40, 0.0);
        let (i_regs, mut exps, _) = block_inputs(10, &predicted);
        let fits = exps.clone();
        oracle(&i_regs, &fits, &predicted, None).unwrap();
        for bad in [8, 9] {
            exps.clone_from(&fits);
            exps[bad].pot = -30;
            let want = oracle(&i_regs, &exps, &predicted, None).unwrap_err();
            assert_eq!(
                oracle(&i_regs[bad..=bad], &exps[bad..=bad], &predicted, None).unwrap_err(),
                want
            );
            assert_block_err(&i_regs, &exps, &predicted, want);
            // Alone in its block, every other lane a copy of it.
            assert_block_err(&i_regs[bad..=bad], &exps[bad..=bad], &predicted, want);
        }
    }

    #[test]
    fn nan_inputs_take_the_oracle_path_at_every_level() {
        // A NaN whose low bits are all ones: the select-free quantiser
        // would carry it into −0.0, so only the NaN check keeps it a NaN.
        let nan = f64::from_bits(0x7fff_ffff_ffff_ffff);
        let clean = predicted_set(40, 0.0);
        // Eleven registers: on every instance the last group is
        // {8, 9, 10}, and register 9 sits mid-way through it.
        let (i_regs, exps, h2) = block_inputs(11, &clean);
        oracle(&i_regs, &exps, &clean, Some(&h2)).unwrap();
        let mut cases: Vec<(&str, Vec<HwIParticle>, Vec<PredictedJ>)> = Vec::new();
        let mut p = clean.clone();
        p[17].vel[1] = nan;
        cases.push(("j velocity", i_regs.clone(), p));
        let mut p = clean.clone();
        p[17].mass = nan;
        cases.push(("j mass", i_regs.clone(), p));
        let mut regs = i_regs.clone();
        regs[9].vel[2] = nan;
        cases.push(("i velocity", regs, clean.clone()));
        let mut regs = i_regs.clone();
        regs[9].eps2 = nan;
        cases.push(("i eps2", regs, clean.clone()));
        let mut outcomes = (0, 0);
        for (what, regs, predicted) in &cases {
            let want = oracle(regs, &exps, predicted, Some(&h2));
            match &want {
                Ok(_) => outcomes.0 += 1,
                Err(_) => outcomes.1 += 1,
            }
            for_each_entry(|e| {
                let label = format!("NaN in {what}, {}", e.label);
                let mut lists = vec![vec![u32::MAX]; regs.len()];
                let plain = e.block(regs, &exps, predicted, None);
                let nb = e.block(regs, &exps, predicted, Some((&h2, &mut lists)));
                match &want {
                    Ok((forces, want_nb)) => {
                        for got in [plain.unwrap(), nb.unwrap()] {
                            for (g, w) in got.iter().zip(forces) {
                                assert_pf_bits_equal(g, w, &label);
                            }
                        }
                        assert_eq!(&lists, want_nb, "neighbour lists ({label})");
                    }
                    Err(w) => {
                        assert_eq!(plain.unwrap_err(), *w, "{label}");
                        assert_eq!(nb.unwrap_err(), *w, "nb, {label}");
                        assert!(lists.iter().all(Vec::is_empty), "list left ({label})");
                    }
                }
            });
        }
        assert!(outcomes.0 > 0 && outcomes.1 > 0, "both outcomes covered");
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
        for_each_entry(|e| {
            let got = e
                .row(&ip, &predicted, exps, None, &mut Vec::new())
                .unwrap_err();
            assert_eq!(got, want, "error must equal the oracle's ({})", e.label);
            // The neighbour variant recovers the same error and leaves no
            // list from the discarded group behind.
            let mut nb = vec![u32::MAX];
            let got = e
                .row(&ip, &predicted, exps, Some(1.0), &mut nb)
                .unwrap_err();
            assert_eq!(got, want, "nb error must equal the oracle's ({})", e.label);
            assert!(nb.is_empty(), "discarded group left a list ({})", e.label);
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
        for_each_entry(|e| {
            let got = e.row(&ip, &predicted, exps, None, &mut Vec::new()).unwrap();
            assert_pf_bits_equal(&got, &want, e.label);
            // And the self-pair is not a neighbour even inside h².
            let mut nb = Vec::new();
            e.row(&ip, &predicted, exps, Some(1.0), &mut nb).unwrap();
            assert!(nb.is_empty(), "self-pair flagged ({})", e.label);
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
