//! Criterion bench: the fabric's collectives (host wall clock of the
//! *simulator* — thread spawn + channel traffic — which bounds how many
//! virtual-cluster experiments fit in a CI run).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use grape6_net::exchange::{central_barrier, coalesced_wave};
use grape6_net::fabric::{allgather, run_ranks};
use grape6_net::link::LinkProfile;
use grape6_net::transport::VirtualTransport;

fn bench_barriers(c: &mut Criterion) {
    let mut g = c.benchmark_group("collectives");
    g.sample_size(10);
    for p in [4usize, 16] {
        g.bench_with_input(BenchmarkId::new("butterfly", p), &p, |b, &p| {
            b.iter(|| {
                run_ranks::<Vec<u8>, f64, _>(p, LinkProfile::intel_82540em(), |mut ep| {
                    for step in 0..16 {
                        let mut tr = VirtualTransport::new(&mut ep);
                        coalesced_wave(&mut tr, step, 0.0, Vec::new(), &[])
                            .expect("lossless fabric");
                    }
                    ep.clock()
                })
            })
        });
        g.bench_with_input(BenchmarkId::new("central", p), &p, |b, &p| {
            b.iter(|| {
                run_ranks::<Vec<u8>, f64, _>(p, LinkProfile::intel_82540em(), |mut ep| {
                    for step in 0..16 {
                        central_barrier(&mut VirtualTransport::new(&mut ep), step)
                            .expect("lossless fabric");
                    }
                    ep.clock()
                })
            })
        });
        g.bench_with_input(BenchmarkId::new("allgather_1k", p), &p, |b, &p| {
            b.iter(|| {
                run_ranks::<Vec<u8>, usize, _>(p, LinkProfile::intel_82540em(), |mut ep| {
                    let mine = vec![ep.rank() as u8; 1024];
                    let all = allgather(&mut ep, mine, 1024).expect("lossless fabric");
                    all.len()
                })
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_barriers);
criterion_main!(benches);
