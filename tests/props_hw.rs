//! Property-based tests of the hardware simulator layer.

use grape6::chip::chip::{Chip, ChipConfig};
use grape6::chip::kernel::KernelMode;
use grape6::chip::pipeline::{ExpSet, HwIParticle};
use grape6::nbody::force::{pair_force, JParticle};
use grape6::nbody::Vec3;
use grape6::system::ensemble::Ensemble;
use grape6::system::unit::{ChipUnit, GrapeUnit};
use proptest::prelude::*;

/// Strategy: a bounded particle well inside the fixed-point box.
fn particle_strategy() -> impl Strategy<Value = JParticle> {
    (
        0.001f64..1.0,
        prop::array::uniform3(-8.0f64..8.0),
        prop::array::uniform3(-2.0f64..2.0),
    )
        .prop_map(|(mass, pos, vel)| JParticle {
            mass,
            t0: 0.0,
            pos: Vec3::from_array(pos),
            vel: Vec3::from_array(vel),
            ..Default::default()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The chip's force agrees with the f64 kernel to pipeline precision
    /// for arbitrary particle sets and probes.
    #[test]
    fn chip_force_matches_f64_kernel(
        particles in prop::collection::vec(particle_strategy(), 1..24),
        probe in particle_strategy(),
        eps2 in 1e-6f64..1e-2,
    ) {
        let mut chip = Chip::new(ChipConfig::default());
        for (k, p) in particles.iter().enumerate() {
            chip.load_j(k, p);
        }
        chip.set_time(0.0);
        let ip = HwIParticle::from_host(probe.pos, probe.vel, eps2);
        // Reference in f64.
        let mut want_acc = Vec3::ZERO;
        let mut want_pot = 0.0;
        for p in &particles {
            let (a, _, po) = pair_force(p.pos - probe.pos, p.vel - probe.vel, p.mass, eps2);
            want_acc += a;
            want_pot += po;
        }
        let exps = [ExpSet::from_magnitudes(
            want_acc.norm().max(1e-3),
            1e3,
            want_pot.abs().max(1e-3),
        )];
        let got = chip.compute_block(&[ip], &exps).unwrap()[0].to_force_result();
        let scale = want_acc.norm().max(1e-9);
        prop_assert!(
            (got.acc - want_acc).norm() / scale < 1e-3,
            "acc {:?} vs {:?}",
            got.acc,
            want_acc
        );
        prop_assert!((got.pot - want_pot).abs() / want_pot.abs().max(1e-9) < 1e-3);
    }

    /// Any split of the j-set over any number of chips is bit-identical to
    /// the single-chip result (the §3.4 property, randomised).
    #[test]
    fn ensemble_partition_bit_invariant(
        particles in prop::collection::vec(particle_strategy(), 2..40),
        n_chips in 2usize..6,
        probe in particle_strategy(),
    ) {
        let mut single = ChipUnit::new(Chip::new(ChipConfig::default()));
        let chips: Vec<ChipUnit> = (0..n_chips)
            .map(|_| ChipUnit::new(Chip::new(ChipConfig::default())))
            .collect();
        let mut group = Ensemble::new(chips);
        for (k, p) in particles.iter().enumerate() {
            single.load_j(k, p).unwrap();
            group.load_j(k, p).unwrap();
        }
        single.set_time(0.0);
        group.set_time(0.0);
        let ip = [HwIParticle::from_host(probe.pos, probe.vel, 1e-4)];
        let exps = [ExpSet::from_magnitudes(100.0, 1000.0, 100.0)];
        let a = single.compute_block(&ip, &exps).unwrap();
        let b = group.compute_block(&ip, &exps).unwrap();
        for c in 0..3 {
            prop_assert_eq!(a[0].acc[c].mant(), b[0].acc[c].mant());
            prop_assert_eq!(a[0].jerk[c].mant(), b[0].jerk[c].mant());
        }
        prop_assert_eq!(a[0].pot.mant(), b[0].pot.mant());
    }

    /// The lane kernel lands on the scalar oracle's exact bits — forces
    /// *and* neighbour lists — for arbitrary particle sets and arbitrary
    /// blocks of 1 to 48 probes (whole lane groups, ragged tails, a single
    /// register), every probe under its own `ExpSet` and its own `h²`
    /// (from "nobody" to "most of the box", so the lists are not all
    /// empty), including a probe coincident with a j-particle (a softening-only
    /// self-interaction when `eps2 > 0`, an `r = 0` hardware drop when
    /// `eps2 == 0`): at chip level through whatever lane level the host
    /// dispatches to, and through the entry points pinned to the portable
    /// lanes — the whole block, and the first probes as one-i rows.
    #[test]
    fn batched_kernel_bitwise_matches_scalar_oracle(
        particles in prop::collection::vec(particle_strategy(), 1..40),
        probes in prop::collection::vec(
            (particle_strategy(), prop::array::uniform3(0i32..6), 1e-4f64..100.0),
            1..=48,
        ),
        eps2 in prop_oneof![Just(0.0f64), 1e-6f64..1e-2],
    ) {
        use grape6::arith::rsqrt::RsqrtCubedUnit;
        use grape6::chip::jmem::HwJParticle;
        use grape6::chip::kernel::{batched_block, batched_row, SoaBatch};
        use grape6::chip::pipeline::{interact, PartialForce};
        use grape6::chip::predictor::predict;
        let n_i = probes.len();
        // The first probe sits on the first j-particle.
        let i_regs: Vec<HwIParticle> = std::iter::once(&particles[0])
            .chain(probes.iter().skip(1).map(|(p, _, _)| p))
            .map(|p| HwIParticle::from_host(p.pos, p.vel, eps2))
            .collect();
        // Wide enough for these draws, and different per probe.
        let base = ExpSet::from_magnitudes(100.0, 1000.0, 100.0);
        let exps: Vec<ExpSet> = probes
            .iter()
            .map(|(_, w, _)| ExpSet {
                acc: base.acc + w[0],
                jerk: base.jerk + w[1],
                pot: base.pot + w[2],
            })
            .collect();
        let h2: Vec<f64> = probes.iter().map(|&(_, _, h2)| h2).collect();
        let run_chip = |mode: KernelMode| {
            let mut chip = Chip::new(ChipConfig::default());
            chip.set_kernel_mode(mode);
            for (k, p) in particles.iter().enumerate() {
                chip.load_j(k, p);
            }
            chip.set_time(0.0);
            let mut nb = vec![Vec::new(); n_i];
            let pf = chip.compute_pass(&i_regs, &exps, Some((&h2, &mut nb))).unwrap();
            (pf, nb)
        };
        let (a, nb_s) = run_chip(KernelMode::Scalar);
        let (b, nb_b) = run_chip(KernelMode::Simd);
        prop_assert_eq!(&nb_s, &nb_b, "neighbour lists diverged (chip)");

        let rsqrt = RsqrtCubedUnit::default();
        let predicted: Vec<_> = particles
            .iter()
            .map(|p| predict(&HwJParticle::from_host(p), 0.0))
            .collect();
        let mut batch = SoaBatch::default();
        batch.decode(&predicted);
        let mut nb_p = vec![Vec::new(); n_i];
        let c = batched_block(&rsqrt, &i_regs, &exps, &batch, &predicted, Some((&h2, &mut nb_p)))
            .unwrap();
        for i in 0..n_i {
            let mut want = PartialForce::new(exps[i]);
            let mut want_nb = Vec::new();
            for (addr, jp) in predicted.iter().enumerate() {
                let r2 = interact(&rsqrt, &i_regs[i], jp, &mut want).unwrap();
                if r2 < h2[i] && r2 > 0.0 {
                    want_nb.push(addr as u32);
                }
            }
            prop_assert_eq!(&nb_s[i], &want_nb, "neighbour list diverged (chip, i={})", i);
            prop_assert_eq!(&nb_p[i], &want_nb, "neighbour list diverged (batched_block, i={})", i);
            let mut rows = vec![("chip scalar", a[i]), ("chip simd", b[i]), ("batched_block", c[i])];
            if i < 2 {
                let mut nb = [Vec::new()];
                let one = i..i + 1;
                rows.push((
                    "batched_row",
                    batched_row(&rsqrt, &i_regs[i], &batch, &predicted, exps[i]).unwrap(),
                ));
                rows.push((
                    "batched_block, one i",
                    batched_block(
                        &rsqrt,
                        &i_regs[one.clone()],
                        &exps[one.clone()],
                        &batch,
                        &predicted,
                        Some((&h2[one], &mut nb)),
                    )
                    .unwrap()[0],
                ));
                prop_assert_eq!(&nb[0], &want_nb, "neighbour list diverged (batched_block, one i={})", i);
            }
            for (label, got) in rows {
                for c in 0..3 {
                    prop_assert_eq!(want.acc[c].mant(), got.acc[c].mant(), "{} acc[{}][{}]", label, i, c);
                    prop_assert_eq!(want.jerk[c].mant(), got.jerk[c].mant(), "{} jerk[{}][{}]", label, i, c);
                }
                prop_assert_eq!(want.pot.mant(), got.pot.mant(), "{} pot[{}]", label, i);
                prop_assert_eq!(exps[i], got.exps(), "{} windows[{}]", label, i);
            }
        }
    }

    /// The SIMD lane quantiser agrees bitwise with the scalar pipeline
    /// quantiser on arbitrary 64-bit patterns — NaN payloads, subnormals,
    /// infinities, everything — at every significand width the pipeline
    /// uses, including ragged tails.
    #[test]
    fn lane_quantizer_matches_scalar_on_arbitrary_bits(
        bits in prop::collection::vec(any::<u64>(), 1..64),
        sig in prop_oneof![Just(24u32), Just(11u32), Just(50u32)],
    ) {
        use grape6::arith::pfloat::quantize_sig;
        use grape6::arith::simd::quantize_slice;
        let xs: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        let mut out = vec![0.0f64; xs.len()];
        if quantize_slice(&xs, &mut out, sig).is_none() {
            // No SIMD level on this host/environment: nothing to compare.
            return Ok(());
        }
        for (k, (&x, &got)) in xs.iter().zip(&out).enumerate() {
            let want = quantize_sig(x, sig);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "k={} x={:e} sig={}", k, x, sig);
        }
    }

    /// The gathered SIMD rsqrt evaluation agrees bitwise with the scalar
    /// table unit on arbitrary 64-bit patterns (specials fall back to the
    /// scalar path inside the lane, so the contract is total).
    #[test]
    fn lane_rsqrt_gather_matches_scalar_on_arbitrary_bits(
        bits in prop::collection::vec(any::<u64>(), 1..48),
    ) {
        use grape6::arith::rsqrt::RsqrtCubedUnit;
        let unit = RsqrtCubedUnit::default();
        let xs: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        let mut out32 = vec![0.0f64; xs.len()];
        let mut out12 = vec![0.0f64; xs.len()];
        if unit.eval_both_slice(&xs, &mut out32, &mut out12).is_none() {
            // No SIMD level on this host/environment: nothing to compare.
            return Ok(());
        }
        for (k, &x) in xs.iter().enumerate() {
            let (w32, w12) = unit.eval_both(x);
            prop_assert_eq!(out32[k].to_bits(), w32.to_bits(), "x^-3/2 at k={} x={:e}", k, x);
            prop_assert_eq!(out12[k].to_bits(), w12.to_bits(), "x^-1/2 at k={} x={:e}", k, x);
        }
    }

    /// The batched SoA predictor is bit-identical to the per-particle
    /// predictor for arbitrary polynomials and times.
    #[test]
    fn predict_batch_bitwise_matches_predict(
        particles in prop::collection::vec(particle_strategy(), 1..80),
        acc in prop::array::uniform3(-1.0f64..1.0),
        jerk in prop::array::uniform3(-1.0f64..1.0),
        dt in 0.0f64..0.25,
    ) {
        use grape6::chip::jmem::HwJParticle;
        use grape6::chip::predictor::{predict, predict_batch};
        let stream: Vec<HwJParticle> = particles
            .iter()
            .map(|p| HwJParticle::from_host(&JParticle {
                acc: Vec3::from_array(acc),
                jerk: Vec3::from_array(jerk),
                ..*p
            }))
            .collect();
        let t = stream[0].t0 + dt;
        let mut got = Vec::new();
        predict_batch(&stream, t, &mut got);
        prop_assert_eq!(got.len(), stream.len());
        for (k, (g, p)) in got.iter().zip(&stream).enumerate() {
            let want = predict(p, t);
            prop_assert_eq!(g.pos, want.pos, "pos k={}", k);
            for c in 0..3 {
                prop_assert_eq!(g.vel[c].to_bits(), want.vel[c].to_bits(), "vel k={} c={}", k, c);
            }
            prop_assert_eq!(g.mass.to_bits(), want.mass.to_bits(), "mass k={}", k);
        }
    }

    /// The on-chip predictor is consistent with the f64 predictor for any
    /// polynomial and any in-range Δt.
    #[test]
    fn hw_predictor_tracks_f64(
        p in particle_strategy(),
        acc in prop::array::uniform3(-1.0f64..1.0),
        jerk in prop::array::uniform3(-1.0f64..1.0),
        dt in 0.0f64..0.25,
    ) {
        use grape6::chip::jmem::HwJParticle;
        use grape6::chip::predictor::predict;
        use grape6::nbody::force::predict_j;
        let j = JParticle {
            acc: Vec3::from_array(acc),
            jerk: Vec3::from_array(jerk),
            ..p
        };
        let hw = HwJParticle::from_host(&j);
        let pred = predict(&hw, j.t0 + dt);
        let (x_ref, v_ref) = predict_j(&j, j.t0 + dt);
        let x = pred.pos.to_f64();
        for c in 0..3 {
            // Absolute tolerance: displacements are O(vel·dt) ≲ 0.5 and the
            // pipeline rounds at 2^-24 relative per operation.
            prop_assert!((x[c] - x_ref[c]).abs() < 3e-6, "c={c}: {} vs {}", x[c], x_ref[c]);
            prop_assert!((pred.vel[c] - v_ref[c]).abs() < 3e-6);
        }
    }
}
