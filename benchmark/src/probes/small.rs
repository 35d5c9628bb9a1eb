//! Probes of `ckpt`, `trace` and `nbody`.

use std::hint::black_box;
use std::time::Instant;

use grape6_ckpt::Checkpoint;
use grape6_core::{capture, restore, Grape6Engine, HermiteIntegrator, IntegratorConfig};
use grape6_model::{GrapeTiming, HostProfile};
use grape6_trace::{HostRates, Tracer};
use nbody_core::force::{DirectEngine, ForceEngine, ForceResult, IParticle};
use nbody_core::ic::plummer::plummer_model;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::Sink;
use crate::harness::Ctx;
use crate::stats;
use crate::workloads::{farm, host};

pub fn run(ctx: &Ctx, sink: &mut Sink) {
    ckpt(ctx, sink);
    virtual_tracer(ctx, sink);
    nbody(ctx, sink);
}

/// Checkpoint traffic of one farm eviction and resume: the state of a
/// `farm_uds` job a quantum (8 blocksteps) into its run.
fn ckpt(ctx: &Ctx, sink: &mut Sink) {
    let board = farm::board();
    let icfg = IntegratorConfig::default();
    let engine = Grape6Engine::try_new(&board, farm::JOB_N).expect("one board holds the job");
    let mut it = HermiteIntegrator::new(engine, farm::job_set(ctx.seed, 0), icfg);
    for _ in 0..8 {
        it.try_step_auto().expect("blockstep");
    }
    sink.set(
        "ckpt.capture_ns",
        sink.time(1.0, || {
            black_box(capture(&it, "probe"));
        }),
    );
    let ckpt = capture(&it, "probe");
    sink.set(
        "ckpt.encode_ns",
        sink.time(1.0, || {
            black_box(ckpt.to_bytes());
        }),
    );
    let bytes = ckpt.to_bytes();
    sink.set("ckpt.bytes", bytes.len() as f64);
    sink.set(
        "ckpt.decode_ns",
        sink.time(1.0, || {
            black_box(Checkpoint::from_bytes(black_box(&bytes)).expect("own bytes decode"));
        }),
    );
    sink.set(
        "ckpt.restore_ns",
        sink.time(1.0, || {
            black_box(restore(&board, None, icfg, &ckpt).expect("own checkpoint restores"));
        }),
    );
    let path = ctx.scratch("ckpt-probe").join("probe.ckpt");
    sink.set(
        "ckpt.save_ns",
        sink.time(1.0, || ckpt.save(&path).expect("checkpoint file writes")),
    );
    sink.set(
        "ckpt.load_ns",
        sink.time(1.0, || {
            black_box(Checkpoint::load(&path).expect("checkpoint file reads"));
        }),
    );
}

/// What the program's own virtual-time `Tracer` costs when enabled:
/// `host_tree_n256`'s integration with and without it, in alternating
/// chunks of blocksteps on two otherwise identical integrators.
fn virtual_tracer(ctx: &Ctx, sink: &mut Sink) {
    const CHUNK: usize = 64;
    const ROUNDS: usize = 5;
    let cfg = host::tree_n256();
    let build = || {
        let engine = Grape6Engine::try_new(&cfg.machine, cfg.n).expect("tree holds the model");
        HermiteIntegrator::new(
            engine,
            host::initial_conditions(&cfg, ctx.seed),
            IntegratorConfig::default(),
        )
    };
    let mut plain = build();
    let mut traced = build();
    traced
        .engine_mut()
        .set_timebase(GrapeTiming::paper_host().engine_timebase());
    traced.engine_mut().set_tracer(Tracer::enabled());
    traced.set_tracer(Tracer::enabled());
    let profile = HostProfile::athlon_xp_1800();
    traced.set_host_rates(HostRates {
        t_block_fixed: profile.t_block_fixed,
        t_step: profile.t_step(cfg.n as f64),
    });
    let mut spans = 0usize;
    let (mut plain_ns, mut traced_ns) = (Vec::new(), Vec::new());
    // Round 0 warms both up and is not counted.
    for round in 0..=ROUNDS {
        let t0 = Instant::now();
        for _ in 0..CHUNK {
            plain.try_step_auto().expect("blockstep");
        }
        let t1 = Instant::now();
        for _ in 0..CHUNK {
            traced.try_step_auto().expect("blockstep");
        }
        let drained = traced.take_spans().len();
        let t2 = Instant::now();
        if round > 0 {
            plain_ns.push((t1 - t0).as_nanos() as f64);
            traced_ns.push((t2 - t1).as_nanos() as f64);
            spans += drained;
        }
    }
    let median = |v: &[f64]| stats::median(&stats::sorted(v));
    sink.set(
        "trace.virtual_tracer.overhead_frac",
        median(&traced_ns) / median(&plain_ns) - 1.0,
    );
    sink.set(
        "trace.virtual_tracer.spans_per_blockstep",
        spans as f64 / (ROUNDS * CHUNK) as f64,
    );
}

/// The f64 reference kernel (what the bit-level pipeline costs over plain
/// doubles) and the initial-condition generator.
fn nbody(ctx: &Ctx, sink: &mut Sink) {
    const N_J: usize = 1024;
    const N_I: usize = 48;
    let (set, js) = super::particles(N_J, ctx.seed);
    let mut direct = DirectEngine::new(N_J);
    for (addr, j) in js.iter().enumerate() {
        direct.set_j_particle(addr, j);
    }
    direct.set_time(1.0 / 64.0);
    let i: Vec<IParticle> = (0..N_I)
        .map(|k| IParticle {
            pos: set.pos[k],
            vel: set.vel[k],
            eps2: 1.0 / 4096.0,
        })
        .collect();
    let mut out = vec![ForceResult::default(); N_I];
    sink.set(
        "nbody.direct.f64_ns_per_pair",
        sink.time((N_I * N_J) as f64, || {
            direct.compute(black_box(&i), &mut out)
        }),
    );
    black_box(&out);
    sink.set(
        "nbody.ic.plummer_ns_per_particle",
        sink.time(N_J as f64, || {
            black_box(plummer_model(N_J, &mut StdRng::seed_from_u64(ctx.seed)));
        }),
    );
}
