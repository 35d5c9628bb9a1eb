//! The on-chip predictor pipeline (eqs. 6–7 of the paper).
//!
//! "To attach memory chips directly to the processor chips, we need to
//! integrate the predictor pipeline and the memory controller unit … to the
//! processor chip" (§3.4).  The predictor streams j-particles out of the
//! local memory and produces, for the current system time `t`, the predicted
//! position and velocity that the six force pipelines consume.
//!
//! Numerics, mirroring the hardware:
//!
//! * `Δt = t − t_j` and all polynomial terms are evaluated in the short
//!   pipeline float (each operation rounds);
//! * the resulting position *displacement* is added to the 64-bit
//!   fixed-point `x₀` — so the predicted position is again a fixed-point
//!   word and the downstream `x_j − x_i` subtraction stays exact;
//! * the predicted velocity stays in pipeline float.
//!
//! Note the sign of the quartic term: the paper's eq. (6) prints
//! `−Δt⁴/24·a⁽²⁾₀`; we use the plain Taylor `+Δt⁴/24·a⁽²⁾₀` (the printed
//! minus is an inconsistency in the paper — with their own eq. (7), whose
//! `Δt³/6·a⁽²⁾₀` velocity term is positive, d(x_p)/dt = v_p only holds with
//! the positive sign).  DESIGN.md records this deviation.

use std::mem::MaybeUninit;

use grape6_arith::fixed::PosVec;
use grape6_arith::pfloat::PipeFloat;
use grape6_arith::{quantize_sig_branchless, PIPE_SIG_BITS};

use crate::jmem::HwJParticle;

/// The Taylor coefficient ½, quantised to pipeline precision at compile
/// time.  Hoisted out of [`predict`] — constructing these per call put a
/// quantiser in front of every particle for values that never change.
pub const HALF: PipeFloat = PipeFloat::new(0.5);
/// The Taylor coefficient ⅓ on the pipeline grid (inexact in binary, so
/// the quantisation matters).
pub const THIRD: PipeFloat = PipeFloat::new(1.0 / 3.0);
/// The Taylor coefficient ¼ on the pipeline grid.
pub const QUARTER: PipeFloat = PipeFloat::new(0.25);

/// Predicted j-particle state as delivered to the force pipelines.
#[derive(Clone, Copy, Debug)]
pub struct PredictedJ {
    /// Mass (pass-through from memory).
    pub mass: f64,
    /// Predicted position, fixed point.
    pub pos: PosVec,
    /// Predicted velocity, pipeline float values.
    pub vel: [f64; 3],
}

/// Evaluate the predictor polynomials for one j-particle at system time `t`.
///
/// Every arithmetic operation is performed in [`PipeFloat`] precision; the
/// displacement is applied to the fixed-point position at the end.
#[inline]
pub fn predict(p: &HwJParticle, t: f64) -> PredictedJ {
    let dt = PipeFloat::new(t - p.t0);
    // Horner evaluation matches the hardware's chained multiply-adds:
    // dx = dt(v + dt/2(a + dt/3(j + dt/4 s)))
    let mut dx = [0.0f64; 3];
    let mut vp = [0.0f64; 3];
    for c in 0..3 {
        let v = PipeFloat::new(p.vel[c]);
        let a = PipeFloat::new(p.acc[c]);
        let j = PipeFloat::new(p.jerk[c]);
        let s = PipeFloat::new(p.snap[c]);
        let disp = dt * (v + dt * HALF * (a + dt * THIRD * (j + dt * QUARTER * s)));
        dx[c] = disp.get();
        // v_p = v + dt(a + dt/2(j + dt/3 s))
        let vel = v + dt * (a + dt * HALF * (j + dt * THIRD * s));
        vp[c] = vel.get();
    }
    PredictedJ {
        mass: p.mass,
        pos: p.pos.offset_f64(dx),
        vel: vp,
    }
}

/// Particles per predictor chunk.  The stage scratch (10 lanes of `f64`)
/// stays L1-resident and the per-chunk loop overhead amortises away.
const PCHUNK: usize = 64;

/// Evaluate the predictor for a whole j-stream at once — the batched SoA
/// counterpart of [`predict`], **bit-identical** to calling it per
/// particle.
///
/// The win is structural, not numerical: the three dt-products
/// (`dt·½`, `dt·⅓`, `dt·¼`) are computed once per *particle* instead of
/// hidden inside every coordinate's operator chain (safe: the same inputs
/// round to the same bits), and the per-coordinate polynomial becomes a
/// flat counted loop over chunk scratch the compiler can keep in vector
/// registers.  Every individual operation is the same single-rounded
/// `quantize_sig` the [`PipeFloat`] operators perform, in the same order.
///
/// Inputs are re-quantised exactly as `PipeFloat::new` does in [`predict`]
/// — not a no-op in general, because stuck-bit memory faults
/// ([`crate::jmem::StuckBit`]) can hold off-grid words.
///
/// `out` is cleared and refilled (capacity is retained across passes).
// Counted `for k in 0..cl` loops over equal-length stack arrays are what
// the auto-vectoriser recognises; clippy's preferred iterator zips would
// obscure that.
#[allow(clippy::needless_range_loop)]
pub fn predict_batch(stream: &[HwJParticle], t: f64, out: &mut Vec<PredictedJ>) {
    #[inline(always)]
    fn q(x: f64) -> f64 {
        quantize_sig_branchless(x, PIPE_SIG_BITS)
    }
    let half = HALF.get();
    let third = THIRD.get();
    let quarter = QUARTER.get();
    out.clear();
    out.reserve(stream.len());
    // Per-particle dt terms, then per-coordinate polynomial scratch.  Left
    // uninitialised (a zero fill is ~5 KiB of memset per call): per chunk,
    // stage 1 writes `[0, cl)` of the dt arrays before stage 2 reads them,
    // and stage 2 writes `[0, cl)` of `dx`/`vp` before stage 3 reads them.
    let mut dt = [MaybeUninit::<f64>::uninit(); PCHUNK];
    let mut dth = [MaybeUninit::<f64>::uninit(); PCHUNK];
    let mut dtt = [MaybeUninit::<f64>::uninit(); PCHUNK];
    let mut dtq = [MaybeUninit::<f64>::uninit(); PCHUNK];
    let mut dx = [[MaybeUninit::<f64>::uninit(); PCHUNK]; 3];
    let mut vp = [[MaybeUninit::<f64>::uninit(); PCHUNK]; 3];
    let mut j0 = 0;
    while j0 < stream.len() {
        let cl = (stream.len() - j0).min(PCHUNK);
        let chunk = &stream[j0..j0 + cl];
        // Stage 1: dt and its three hoisted coefficient products.
        for k in 0..cl {
            let d = q(t - chunk[k].t0);
            dt[k].write(d);
            dth[k].write(q(d * half));
            dtt[k].write(q(d * third));
            dtq[k].write(q(d * quarter));
        }
        // Stage 2: the two Horner chains, one flat pass per coordinate.
        // Parenthesisation spells out the scalar operator chain: every
        // `q(..)` below is one `PipeFloat` operation's single rounding.
        for c in 0..3 {
            for k in 0..cl {
                let p = &chunk[k];
                // SAFETY: `k < cl`, and stage 1 wrote `[0, cl)` of all four.
                let (dt, dth, dtt, dtq) = unsafe {
                    (
                        dt[k].assume_init(),
                        dth[k].assume_init(),
                        dtt[k].assume_init(),
                        dtq[k].assume_init(),
                    )
                };
                let v = q(p.vel[c]);
                let a = q(p.acc[c]);
                let j = q(p.jerk[c]);
                let s = q(p.snap[c]);
                // dx = dt(v + dt/2(a + dt/3(j + dt/4 s)))
                let inner = q(j + q(dtq * s));
                let mid = q(a + q(dtt * inner));
                let outer = q(v + q(dth * mid));
                dx[c][k].write(q(dt * outer));
                // v_p = v + dt(a + dt/2(j + dt/3 s))
                let vin = q(j + q(dtt * s));
                let vmid = q(a + q(dth * vin));
                vp[c][k].write(q(v + q(dt * vmid)));
            }
        }
        // Stage 3: apply displacements to the fixed-point positions.
        for k in 0..cl {
            let p = &chunk[k];
            // SAFETY: `k < cl`, and stage 2 wrote `[0, cl)` of every
            // coordinate of both arrays.
            let rd = |a: &[[MaybeUninit<f64>; PCHUNK]; 3]| unsafe {
                [
                    a[0][k].assume_init(),
                    a[1][k].assume_init(),
                    a[2][k].assume_init(),
                ]
            };
            out.push(PredictedJ {
                mass: p.mass,
                pos: p.pos.offset_f64(rd(&dx)),
                vel: rd(&vp),
            });
        }
        j0 += cl;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_core::force::{predict_j, JParticle};
    use nbody_core::Vec3;

    fn host_particle() -> JParticle {
        JParticle {
            mass: 0.25,
            t0: 0.5,
            pos: Vec3::new(0.1, -0.7, 0.4),
            vel: Vec3::new(0.5, 0.2, -0.3),
            acc: Vec3::new(-0.1, 0.3, 0.05),
            jerk: Vec3::new(0.02, -0.04, 0.01),
            snap: Vec3::new(0.004, 0.001, -0.002),
        }
    }

    #[test]
    fn zero_dt_returns_stored_state() {
        let host = host_particle();
        let hw = HwJParticle::from_host(&host);
        let pred = predict(&hw, 0.5);
        assert_eq!(pred.pos, hw.pos);
        assert_eq!(pred.vel, hw.vel);
        assert_eq!(pred.mass, hw.mass);
    }

    #[test]
    fn matches_f64_predictor_to_pipeline_precision() {
        let host = host_particle();
        let hw = HwJParticle::from_host(&host);
        for &t in &[0.5625f64, 0.625, 0.75, 1.0] {
            let pred = predict(&hw, t);
            let (x_ref, v_ref) = predict_j(&host, t);
            let x = pred.pos.to_f64();
            for c in 0..3 {
                // Displacements are O(0.1); pipeline rounding is 2^-24 per
                // op over a short chain — allow a few ulps of slack.
                assert!(
                    (x[c] - x_ref[c]).abs() < 1e-6,
                    "t={t} c={c}: {} vs {}",
                    x[c],
                    x_ref[c]
                );
                assert!((pred.vel[c] - v_ref[c]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn velocity_is_time_derivative_of_position() {
        // Central check that the quartic-term sign is consistent between
        // eqs. (6) and (7): (x(t+h) − x(t−h)) / 2h ≈ v(t).
        let hw = HwJParticle::from_host(&host_particle());
        let t = 0.75;
        let h = 1e-3;
        let xa = predict(&hw, t + h).pos.to_f64();
        let xb = predict(&hw, t - h).pos.to_f64();
        let v = predict(&hw, t).vel;
        for c in 0..3 {
            let num = (xa[c] - xb[c]) / (2.0 * h);
            assert!(
                (num - v[c]).abs() < 1e-4,
                "c={c}: numeric {num} vs predicted {}",
                v[c]
            );
        }
    }

    #[test]
    fn prediction_error_grows_with_dt() {
        // The quantised polynomial drifts from the f64 one as dt grows; the
        // drift must be monotone-ish and tiny for block-sized dts.
        let host = host_particle();
        let hw = HwJParticle::from_host(&host);
        let err_at = |t: f64| {
            let pred = predict(&hw, t).pos.to_f64();
            let (x_ref, _) = predict_j(&host, t);
            (0..3)
                .map(|c| (pred[c] - x_ref[c]).abs())
                .fold(0.0f64, f64::max)
        };
        assert!(err_at(0.500001) < 1e-9);
        assert!(err_at(0.6) < 1e-6);
    }

    #[test]
    fn hoisted_constants_equal_runtime_construction() {
        assert_eq!(HALF.get().to_bits(), PipeFloat::new(0.5).get().to_bits());
        assert_eq!(
            THIRD.get().to_bits(),
            PipeFloat::new(1.0 / 3.0).get().to_bits()
        );
        assert_eq!(
            QUARTER.get().to_bits(),
            PipeFloat::new(0.25).get().to_bits()
        );
    }

    #[test]
    fn predict_batch_is_bitwise_identical_to_predict() {
        // Deterministic xorshift sweep, including off-grid words (stuck-bit
        // faults can hold them) and odd chunk-boundary lengths.
        let mut s = 0x243f_6a88_85a3_08d3u64;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut smallf = |scale: f64| (next() as f64 / u64::MAX as f64 - 0.5) * scale;
        for n in [0usize, 1, 3, 63, 64, 65, 200] {
            let stream: Vec<HwJParticle> = (0..n)
                .map(|i| {
                    let mut hw = HwJParticle::from_host(&JParticle {
                        mass: 0.01 + smallf(0.02).abs(),
                        t0: 0.5,
                        pos: Vec3::new(smallf(1.0), smallf(1.0), smallf(1.0)),
                        vel: Vec3::new(smallf(0.8), smallf(0.8), smallf(0.8)),
                        acc: Vec3::new(smallf(0.1), smallf(0.1), smallf(0.1)),
                        jerk: Vec3::new(smallf(0.02), smallf(0.02), smallf(0.02)),
                        snap: Vec3::new(smallf(0.004), smallf(0.004), smallf(0.004)),
                    });
                    // Every third particle gets an off-grid (un-quantised)
                    // velocity word, as a stuck bit would leave behind.
                    if i % 3 == 0 {
                        hw.vel[i % 3] = f64::from_bits(hw.vel[i % 3].to_bits() | 1);
                    }
                    hw
                })
                .collect();
            for &t in &[0.5f64, 0.5625, 0.75, 1.0] {
                let mut got = Vec::new();
                predict_batch(&stream, t, &mut got);
                assert_eq!(got.len(), n);
                for (k, (g, p)) in got.iter().zip(&stream).enumerate() {
                    let want = predict(p, t);
                    assert_eq!(g.pos, want.pos, "pos n={n} t={t} k={k}");
                    for c in 0..3 {
                        assert_eq!(
                            g.vel[c].to_bits(),
                            want.vel[c].to_bits(),
                            "vel n={n} t={t} k={k} c={c}"
                        );
                    }
                    assert_eq!(g.mass.to_bits(), want.mass.to_bits());
                }
            }
        }
    }
}
