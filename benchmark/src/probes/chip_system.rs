//! Probes of the engine's inside: `arith`, `chip`, `system`, and the
//! engine-level build and plain-sweep costs.

use std::hint::black_box;
use std::time::Instant;

use grape6_arith::{quantize_sig_branchless, BlockAccum, RsqrtCubedUnit, PIPE_SIG_BITS};
use grape6_chip::kernel::{batched_row, SoaBatch};
use grape6_chip::kernel_simd::{simd_row, simd_row_nb};
use grape6_chip::pipeline::interact;
use grape6_chip::predictor::{predict, predict_batch, PredictedJ};
use grape6_chip::{Chip, ChipConfig, ExpSet, HwIParticle, HwJParticle, PartialForce};
use grape6_core::Grape6Engine;
use grape6_fault::FaultPlan;
use grape6_system::{self_test, GrapeUnit, MachineConfig, SelfTestConfig};
use nbody_core::force::{ForceEngine, ForceResult, IParticle};

use super::Sink;
use crate::harness::Ctx;
use crate::stats;
use crate::workloads::host;

/// i-particles per full pass and j-particles per chip in `host_n1024`.
const I_FULL: usize = 48;
const J_STREAM: usize = 256;
const EPS2: f64 = 1.0 / (64.0 * 64.0);
/// Prediction time: every predictor polynomial term contributes.
const T: f64 = 1.0 / 64.0;

pub fn run(ctx: &Ctx, sink: &mut Sink) {
    let (set, js) = super::particles(J_STREAM, ctx.seed);
    let stream: Vec<HwJParticle> = js.iter().map(HwJParticle::from_host).collect();
    let i_regs: Vec<HwIParticle> = (0..I_FULL)
        .map(|k| HwIParticle::from_host(set.pos[k], set.vel[k], EPS2))
        .collect();
    let rsqrt = RsqrtCubedUnit::new(grape6_arith::rsqrt::DEFAULT_LOG2_SEGMENTS);

    // Predictor: batched SoA and the plain per-particle loop.
    let mut predicted: Vec<PredictedJ> = Vec::new();
    let predictor_ns_per_j = sink.time(J_STREAM as f64, || {
        predict_batch(black_box(&stream), T, &mut predicted);
    });
    sink.set("chip.predictor.ns_per_j", predictor_ns_per_j);
    let mut scalar_predicted: Vec<PredictedJ> = Vec::with_capacity(J_STREAM);
    let scalar_ns = sink.time(J_STREAM as f64, || {
        scalar_predicted.clear();
        scalar_predicted.extend(black_box(&stream).iter().map(|p| predict(p, T)));
    });
    sink.set("chip.predictor.scalar_ns_per_j", scalar_ns);

    let mut soa = SoaBatch::default();
    let decode_ns_per_j = sink.time(J_STREAM as f64, || soa.decode(black_box(&predicted)));
    sink.set("chip.kernel.decode_ns_per_j", decode_ns_per_j);

    // Block-FP windows wide enough for these particles: widen as the
    // engine's retry loop would until every row accumulates cleanly.
    let mut exps = ExpSet::from_magnitudes(1.0, 1.0, 1.0);
    while i_regs
        .iter()
        .any(|ip| simd_row(&rsqrt, ip, &soa, &predicted, exps).is_err())
    {
        exps = exps.widened(2);
    }
    let pairs = (I_FULL * J_STREAM) as f64;
    let simd_ns_per_pair = sink.time(pairs, || {
        for ip in &i_regs {
            black_box(simd_row(&rsqrt, ip, &soa, &predicted, exps).expect("window fits"));
        }
    });
    sink.set("chip.kernel.simd_ns_per_pair", simd_ns_per_pair);
    let mut nb = Vec::new();
    let h2 = 0.01;
    let simd_nb = sink.time(pairs, || {
        for ip in &i_regs {
            black_box(
                simd_row_nb(&rsqrt, ip, &soa, &predicted, exps, h2, &mut nb).expect("window fits"),
            );
        }
    });
    sink.set("chip.kernel.simd_nb_ns_per_pair", simd_nb);
    let batched = sink.time(pairs, || {
        for ip in &i_regs {
            black_box(batched_row(&rsqrt, ip, &soa, &predicted, exps).expect("window fits"));
        }
    });
    sink.set("chip.kernel.batched_ns_per_pair", batched);
    let scalar = sink.time(pairs, || {
        for ip in &i_regs {
            let mut pf = PartialForce::new(exps);
            for jp in &predicted {
                interact(&rsqrt, ip, jp, &mut pf).expect("window fits");
            }
            black_box(pf);
        }
    });
    sink.set("chip.kernel.scalar_ns_per_pair", scalar);

    // Whole chip passes at the three shapes the workloads produce.
    let chip_with = |n_j: usize| {
        let mut chip = Chip::new(ChipConfig {
            jmem_capacity: J_STREAM,
            ..ChipConfig::default()
        });
        for (addr, j) in js.iter().take(n_j).enumerate() {
            chip.load_j(addr, j);
        }
        chip.set_time(T);
        chip
    };
    let exp_row = vec![exps; I_FULL];
    let mut chip = chip_with(J_STREAM);
    let full_ns = sink.time(1.0, || {
        black_box(chip.compute_block(&i_regs, &exp_row).expect("window fits"));
    });
    sink.set("chip.pass.full_ns", full_ns);
    let single_ns = sink.time(1.0, || {
        black_box(
            chip.compute_block(&i_regs[..1], &exp_row[..1])
                .expect("window fits"),
        );
    });
    sink.set("chip.pass.single_i_ns", single_ns);
    let mut tiny_chip = chip_with(2);
    let tiny_ns = sink.time(1.0, || {
        black_box(
            tiny_chip
                .compute_block(&i_regs, &exp_row)
                .expect("window fits"),
        );
    });
    sink.set("chip.pass.tiny_ns", tiny_ns);
    let accounted =
        (predictor_ns_per_j + decode_ns_per_j) * J_STREAM as f64 + simd_ns_per_pair * pairs;
    sink.set("chip.pass.self_frac", (full_ns - accounted) / full_ns);

    // arith: the block-FP reduction step and accumulator, and the two
    // slice kernels the SIMD lanes are built from.
    let row = simd_row(&rsqrt, &i_regs[0], &soa, &predicted, exps).expect("window fits");
    let other = simd_row(&rsqrt, &i_regs[1], &soa, &predicted, exps).expect("window fits");
    sink.set(
        "arith.blockfp.merge_ns",
        sink.time(1.0, || {
            let mut a = black_box(row);
            a.merge(black_box(&other)).expect("same windows");
            black_box(a);
        }),
    );
    let mut acc = BlockAccum::new(exps.acc);
    sink.set(
        "arith.blockfp.add_ns",
        sink.time(2.0, || {
            acc.add(black_box(0.123_456)).expect("in window");
            acc.add(black_box(-0.123_456)).expect("in window");
        }),
    );
    black_box(acc);
    let xs: Vec<f64> = (0..1024).map(|k| 0.37 + k as f64 * 1.000_123e-3).collect();
    let mut q = vec![0.0; xs.len()];
    sink.set(
        "arith.quantize.ns_per_elem",
        sink.time(xs.len() as f64, || {
            if grape6_arith::simd::quantize_slice(black_box(&xs), &mut q, PIPE_SIG_BITS).is_none() {
                for (o, &x) in q.iter_mut().zip(&xs) {
                    *o = quantize_sig_branchless(x, PIPE_SIG_BITS);
                }
            }
        }),
    );
    let (mut m32, mut m12) = (vec![0.0; xs.len()], vec![0.0; xs.len()]);
    sink.set(
        "arith.rsqrt.ns_per_elem",
        sink.time(xs.len() as f64, || {
            if rsqrt
                .eval_both_slice(black_box(&xs), &mut m32, &mut m12)
                .is_none()
            {
                for ((a, b), &x) in m32.iter_mut().zip(&mut m12).zip(&xs) {
                    (*a, *b) = rsqrt.eval_both(x);
                }
            }
        }),
    );
    black_box((&q, &m32, &m12));

    // system: the 128-chip tree of `host_tree_n256`, 2 j per chip.
    let tree_cfg = host::tree_n256().machine;
    let mut tree = tree_cfg.build();
    let loadj_ns = sink.time(J_STREAM as f64, || {
        for (addr, j) in js.iter().enumerate() {
            tree.load_j(addr, j).expect("tree holds 256 particles");
        }
    });
    sink.set("system.tree.loadj_ns_per_j", loadj_ns);
    tree.set_time(T);
    let pass_ns = sink.time(1.0, || {
        black_box(tree.compute_block(&i_regs, &exp_row).expect("window fits"));
    });
    sink.set("system.tree.pass_ns", pass_ns);
    tree.set_parallel(false);
    let serial_ns = sink.time(1.0, || {
        black_box(tree.compute_block(&i_regs, &exp_row).expect("window fits"));
    });
    sink.set("system.tree.pass_serial_ns", serial_ns);
    // The same 128 chip passes without the tree: what is left of the
    // serial pass is reduction, walk and collection.  Measured back to
    // back with it, so both see the same allocator and cache state.
    let mut lone_chips: Vec<Chip> = (0..tree_cfg.total_chips())
        .map(|c| {
            let mut chip = Chip::new(tree_cfg.chip.into());
            for (addr, j) in js
                .iter()
                .skip(c)
                .step_by(tree_cfg.total_chips())
                .enumerate()
            {
                chip.load_j(addr, j);
            }
            chip.set_time(T);
            chip
        })
        .collect();
    // Paired: each iteration times one tree pass and one lone-chip round
    // back to back, so slow drift of the machine cancels in the difference.
    let rounds = ((2.0 * sink.slice.as_secs_f64() / (2.0 * serial_ns * 1e-9)) as usize).max(5);
    let diffs: Vec<f64> = (0..rounds)
        .map(|_| {
            let t0 = Instant::now();
            black_box(tree.compute_block(&i_regs, &exp_row).expect("window fits"));
            let t1 = Instant::now();
            for chip in &mut lone_chips {
                black_box(chip.compute_block(&i_regs, &exp_row).expect("window fits"));
            }
            let t2 = Instant::now();
            (t1 - t0).as_nanos() as f64 - (t2 - t1).as_nanos() as f64
        })
        .collect();
    sink.set(
        "system.tree.reduce_self_ns",
        stats::median(&stats::sorted(&diffs)),
    );
    let mut fresh = tree_cfg.build();
    sink.set(
        "system.selftest_ns",
        sink.time(1.0, || {
            black_box(self_test(&mut fresh, &SelfTestConfig::default()));
        }),
    );

    // Engine level: build (with power-on self-test) and a plain sweep of
    // full passes without neighbour lists on `sweep_nb_n2048`'s machine.
    let small = MachineConfig::test_small();
    sink.set(
        "core.engine.build_ns",
        sink.time(1.0, || {
            black_box(
                Grape6Engine::with_fault_plan(&small, 1024, &FaultPlan::none())
                    .expect("healthy machine"),
            );
        }),
    );
    let (big_set, big_js) = super::particles(2048, ctx.seed);
    let mut engine = Grape6Engine::with_fault_plan(&small, big_js.len(), &FaultPlan::none())
        .expect("healthy machine");
    for (addr, j) in big_js.iter().enumerate() {
        engine.set_j_particle(addr, j);
    }
    engine.set_time(T);
    let i_block: Vec<IParticle> = (0..10 * I_FULL)
        .map(|k| IParticle {
            pos: big_set.pos[k],
            vel: big_set.vel[k],
            eps2: EPS2,
        })
        .collect();
    let mut forces = vec![ForceResult::default(); i_block.len()];
    let before = engine.interactions();
    let mut calls = 0u64;
    let ns_per_call = sink.time(1.0, || {
        engine
            .try_compute(&i_block, &mut forces)
            .expect("plain sweep");
        calls += 1;
    });
    let pairs_per_call = (engine.interactions() - before) as f64 / calls as f64;
    sink.set(
        "core.engine.sweep_plain_pairs_per_s",
        pairs_per_call / (ns_per_call * 1e-9),
    );
}
