//! Property-based tests (proptest) on the core invariants.

use grape6::arith::blockfp::BlockAccum;
use grape6::arith::fixed::PosFix;
use grape6::arith::pfloat::quantize_sig;
use grape6::nbody::blockstep::{block_dt, is_aligned, TimeGrid};
use grape6::nbody::force::pair_force;
use grape6::nbody::ic::kepler::{elements_to_cartesian, solve_kepler, OrbitalElements};
use grape6::nbody::Vec3;
use proptest::prelude::*;

proptest! {
    /// Block floating point: any permutation of any value set gives the
    /// same mantissa — the §3.4 reproducibility property.
    #[test]
    fn blockfp_permutation_invariant(
        mut vals in prop::collection::vec(-1.0e3f64..1.0e3, 2..40),
        seed in 0u64..1000,
    ) {
        let exp = 14; // window ±16384, plenty for the magnitudes above
        let sum = |vs: &[f64]| -> i64 {
            let mut acc = BlockAccum::new(exp);
            for &v in vs {
                acc.add(v).unwrap();
            }
            acc.mant()
        };
        let reference = sum(&vals);
        // Fisher–Yates with a toy LCG so the permutation depends on `seed`.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        for i in (1..vals.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            vals.swap(i, j);
        }
        prop_assert_eq!(sum(&vals), reference);
    }

    /// Block floating point: any 2-way partition merges to the same
    /// mantissa as the whole.
    #[test]
    fn blockfp_partition_invariant(
        vals in prop::collection::vec(-100.0f64..100.0, 2..40),
        split_frac in 0.0f64..1.0,
    ) {
        let exp = 12;
        let split = ((vals.len() as f64 * split_frac) as usize).min(vals.len());
        let mut whole = BlockAccum::new(exp);
        for &v in &vals {
            whole.add(v).unwrap();
        }
        let mut left = BlockAccum::new(exp);
        let mut right = BlockAccum::new(exp);
        for &v in &vals[..split] {
            left.add(v).unwrap();
        }
        for &v in &vals[split..] {
            right.add(v).unwrap();
        }
        left.merge(&right).unwrap();
        prop_assert_eq!(left.mant(), whole.mant());
    }

    /// Fixed-point roundtrip: |from_f64(x).to_f64() − x| ≤ resolution/2.
    #[test]
    fn fix64_roundtrip_within_half_ulp(x in -60.0f64..60.0) {
        let f = PosFix::from_f64(x);
        prop_assert!((f.to_f64() - x).abs() <= PosFix::RESOLUTION);
    }

    /// Fixed-point differences are exact for representable values.
    #[test]
    fn fix64_difference_exactness(a in -50.0f64..50.0, d in -1.0e-6f64..1.0e-6) {
        let fa = PosFix::from_f64(a);
        let fb = fa.offset_f64(d);
        let delta = fa.exact_delta_to(fb);
        // The offset rounds once to the grid; the recovered delta matches
        // that rounded displacement to resolution accuracy.
        prop_assert!((delta - d).abs() <= PosFix::RESOLUTION);
    }

    /// quantize_sig is idempotent and within half an ulp of the input.
    #[test]
    fn quantize_idempotent_and_close(x in -1.0e12f64..1.0e12, sig in 4u32..53) {
        let q = quantize_sig(x, sig);
        prop_assert_eq!(quantize_sig(q, sig), q);
        if x != 0.0 {
            let rel = ((q - x) / x).abs();
            prop_assert!(rel <= 2f64.powi(-(sig as i32)));
        }
    }

    /// block_dt returns the floor power of two.
    #[test]
    fn block_dt_floor_pow2(dt in 1.0e-12f64..1.0e3) {
        let b = block_dt(dt);
        prop_assert!(b <= dt);
        prop_assert!(b * 2.0 > dt);
        let l = b.log2();
        prop_assert_eq!(l, l.round());
    }

    /// The grid's next_step always lands on an aligned power of two within
    /// bounds, and never more than doubles.
    #[test]
    fn next_step_invariants(
        t_idx in 0u32..1024,
        dt_exp in -20i32..-2,
        want in 1.0e-9f64..1.0,
    ) {
        let grid = TimeGrid::default();
        let dt_old = 2f64.powi(dt_exp);
        let t = t_idx as f64 * dt_old; // t is a multiple of dt_old
        let next = grid.next_step(t, dt_old, want);
        prop_assert!(next >= grid.dt_min && next <= grid.dt_max);
        prop_assert!(next <= dt_old * 2.0);
        let l = next.log2();
        prop_assert_eq!(l, l.round());
        if next > dt_old {
            prop_assert!(is_aligned(t, next));
        }
    }

    /// Kepler solver residual is at machine precision for any (M, e).
    #[test]
    fn kepler_residual(m in -20.0f64..20.0, e in 0.0f64..0.95) {
        let big_e = solve_kepler(m, e);
        let resid = big_e - e * big_e.sin() - m.rem_euclid(std::f64::consts::TAU);
        prop_assert!(resid.abs() < 1e-10);
    }

    /// Orbital elements → Cartesian preserves the vis-viva relation and
    /// the angular-momentum magnitude for any elements.
    #[test]
    fn kepler_state_invariants(
        a in 0.1f64..10.0,
        e in 0.0f64..0.9,
        inc in 0.0f64..3.0,
        node in 0.0f64..6.28,
        peri in 0.0f64..6.28,
        ma in 0.0f64..6.28,
    ) {
        let el = OrbitalElements { a, e, inc, node, peri, mean_anomaly: ma };
        let mu = 1.0;
        let (r, v) = elements_to_cartesian(&el, mu);
        let vis_viva = mu * (2.0 / r.norm() - 1.0 / a);
        prop_assert!((v.norm2() - vis_viva).abs() < 1e-9);
        let h = r.cross(v).norm();
        let want = (mu * a * (1.0 - e * e)).sqrt();
        prop_assert!((h - want).abs() < 1e-9);
    }

    /// Newton's third law at the kernel level: the force i←j is equal and
    /// opposite to j←i scaled by the mass ratio.
    #[test]
    fn pairwise_forces_antisymmetric(
        dx in -10.0f64..10.0, dy in -10.0f64..10.0, dz in -10.0f64..10.0,
        vx in -1.0f64..1.0, vy in -1.0f64..1.0, vz in -1.0f64..1.0,
        mi in 0.01f64..10.0, mj in 0.01f64..10.0,
    ) {
        prop_assume!(dx * dx + dy * dy + dz * dz > 1e-6);
        let dr = Vec3::new(dx, dy, dz);
        let dv = Vec3::new(vx, vy, vz);
        let (a_ij, j_ij, _) = pair_force(dr, dv, mj, 0.0);
        let (a_ji, j_ji, _) = pair_force(-dr, -dv, mi, 0.0);
        // momentum change rates: m_i·a_ij = −m_j·a_ji
        prop_assert!((a_ij * mi + a_ji * mj).norm() < 1e-9 * (a_ij.norm() * mi).max(1e-30));
        prop_assert!((j_ij * mi + j_ji * mj).norm() < 1e-9 * (j_ij.norm() * mi).max(1e-12));
    }
}

proptest! {
    /// Pipeline-float addition and multiplication are commutative (each
    /// operation rounds, but rounding a commutative f64 op is commutative).
    #[test]
    fn pipefloat_ops_commute(a in -1.0e6f64..1.0e6, b in -1.0e6f64..1.0e6) {
        use grape6::arith::pfloat::PipeFloat;
        let x = PipeFloat::new(a);
        let y = PipeFloat::new(b);
        prop_assert_eq!((x + y).get(), (y + x).get());
        prop_assert_eq!((x * y).get(), (y * x).get());
    }

    /// The table-driven x^(-3/2) unit stays within its error budget for
    /// arbitrary in-range arguments.
    #[test]
    fn rsqrt_unit_error_budget(x in 1.0e-8f64..1.0e8) {
        use grape6::arith::rsqrt::RsqrtCubedUnit;
        let u = RsqrtCubedUnit::default();
        let got = u.eval_pow_m32(x);
        let want = x.powf(-1.5);
        prop_assert!(((got - want) / want).abs() < 2f64.powi(-24));
    }

    /// GRAPE-4's float summation: different board counts give different
    /// bits but physically identical forces (bounded by pipeline rounding
    /// accumulated over N summands).
    #[test]
    fn grape4_partitions_agree_physically(boards in 1usize..5, seed in 0u64..100) {
        use grape6::g4::machine::{Grape4Config, Grape4Machine};
        use grape6::chip::pipeline::HwIParticle;
        use grape6::nbody::force::JParticle;
        let n = 60;
        let mk = |b: usize| -> grape6::nbody::force::ForceResult {
            let mut m = Grape4Machine::new(Grape4Config {
                boards: b,
                ..Grape4Config::test_small()
            });
            for k in 0..n {
                let a = (k as u64 * 37 + seed) as f64 * 0.17;
                m.load_j(k, &JParticle {
                    mass: 0.01,
                    pos: Vec3::new(a.sin(), (1.3 * a).cos(), 0.1 * (k % 7) as f64),
                    vel: Vec3::new(0.01 * a.cos(), 0.0, 0.0),
                    ..Default::default()
                });
            }
            m.set_time(0.0);
            let probe = HwIParticle::from_host(Vec3::new(0.02, 0.01, 0.0), Vec3::ZERO, 1e-3);
            m.compute_block(&[probe])[0]
        };
        let one = mk(1);
        let many = mk(boards);
        let rel = (one.acc - many.acc).norm() / one.acc.norm().max(1e-12);
        prop_assert!(rel < 1e-4, "boards={boards}: rel diff {rel:e}");
    }
}
