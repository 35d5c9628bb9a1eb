//! Criterion micro-benchmarks of the force-pass kernels.
//!
//! A/B of the per-interaction scalar oracle and the runtime-dispatched
//! lane kernel on the same chip pass (48 i × many j) — both produce
//! identical bits, so the only thing measured here is host throughput.  The
//! whole-blockstep comparison (and the JSON the CI regression guard
//! reads) lives in the `kernel_bench` binary.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use grape6_chip::chip::{Chip, ChipConfig};
use grape6_chip::kernel::KernelMode;
use grape6_chip::pipeline::{ExpSet, HwIParticle};
use nbody_core::force::JParticle;
use nbody_core::Vec3;

fn jp(k: usize) -> JParticle {
    let a = k as f64 * 0.37;
    JParticle {
        mass: 0.001,
        t0: 0.0,
        pos: Vec3::new(a.cos(), a.sin(), 0.1 * (k % 13) as f64 - 0.6),
        vel: Vec3::new(-0.1 * a.sin(), 0.1 * a.cos(), 0.0),
        acc: Vec3::new(0.01, -0.01, 0.0),
        jerk: Vec3::ZERO,
        snap: Vec3::ZERO,
    }
}

fn loaded_chip(n_j: usize) -> (Chip, Vec<HwIParticle>, Vec<ExpSet>) {
    let mut chip = Chip::new(ChipConfig::default());
    for k in 0..n_j {
        chip.load_j(k, &jp(k));
    }
    chip.set_time(0.0);
    let i_regs: Vec<HwIParticle> = (0..48)
        .map(|k| {
            HwIParticle::from_host(
                Vec3::new(0.01 * k as f64 - 0.2, 0.4, -0.3),
                Vec3::ZERO,
                1e-4,
            )
        })
        .collect();
    let exps = vec![ExpSet::from_magnitudes(5.0, 5.0, 5.0); 48];
    (chip, i_regs, exps)
}

fn bench_kernels(c: &mut Criterion) {
    let n_j = 1024;
    let mut g = c.benchmark_group("kernel");
    g.sample_size(20);
    g.throughput(Throughput::Elements((48 * n_j) as u64));
    for mode in [KernelMode::Scalar, KernelMode::Simd] {
        let (mut chip, i_regs, exps) = loaded_chip(n_j);
        chip.set_kernel_mode(mode);
        g.bench_function(format!("pass_48i_1024j_{}", mode.name()), |b| {
            b.iter(|| chip.compute_block(&i_regs, &exps).unwrap())
        });
    }
    g.finish();
}

fn bench_kernels_nb(c: &mut Criterion) {
    let n_j = 1024;
    let mut g = c.benchmark_group("kernel_nb");
    g.sample_size(20);
    g.throughput(Throughput::Elements((48 * n_j) as u64));
    for mode in [KernelMode::Scalar, KernelMode::Simd] {
        let (mut chip, i_regs, exps) = loaded_chip(n_j);
        chip.set_kernel_mode(mode);
        let h2 = vec![0.01; 48];
        let mut lists: Vec<Vec<u32>> = Vec::new();
        g.bench_function(format!("nb_pass_48i_1024j_{}", mode.name()), |b| {
            b.iter(|| {
                chip.compute_block_nb(&i_regs, &exps, &h2, &mut lists)
                    .unwrap()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_kernels, bench_kernels_nb);
criterion_main!(benches);
