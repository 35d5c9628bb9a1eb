//! Acceptance: bitwise-identical resume from a checkpoint.
//!
//! An integration interrupted at an arbitrary blockstep and restored from
//! its checkpoint must match the uninterrupted run's positions,
//! velocities and block-FP force sums **byte for byte** for at least 100
//! subsequent blocksteps — on a single host, and on a 2×2 multi-cluster
//! layout (4 ranks under the copy algorithm, the way GRAPE-6 spans
//! clusters in §4.3 of the paper).  A host run (no engine state) is
//! persisted in the same image: it resumes warm bitwise, or restarts
//! cold through a fresh integrator within the energy budget.
//!
//! This is the §3.4 reproducibility property turned into a recovery
//! guarantee: because the block-FP force sums are order-independent, a
//! restored engine whose j-memory was reloaded from the checkpoint
//! produces the same bits as one that never stopped.

use grape6_ckpt::{Checkpoint, TraceState, CKPT_VERSION};
use grape6_core::checkpoint::{
    capture, integrator_state, particles_from_state, restore, stats_from_state,
};
use grape6_core::{Grape6Engine, HermiteIntegrator, IntegratorConfig, RunStats};
use grape6_parallel::{run_copy_parallel, run_copy_parallel_segment, CopyConfig, CopySegment};
use grape6_system::machine::MachineConfig;
use nbody_core::diagnostics::energy;
use nbody_core::force::DirectEngine;
use nbody_core::ic::plummer::plummer_model;
use nbody_core::particle::ParticleSet;
use nbody_core::softening::Softening;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Byte-level equality of everything the acceptance criterion names:
/// positions, velocities, the block-FP force sums (acc/jerk as read back
/// from the engine), and the per-particle schedule that drives all
/// subsequent blocksteps.
fn assert_bits_equal(a: &ParticleSet, b: &ParticleSet, what: &str) {
    assert_eq!(a.n(), b.n());
    for i in 0..a.n() {
        for k in 0..3 {
            assert_eq!(
                a.pos[i][k].to_bits(),
                b.pos[i][k].to_bits(),
                "{what}: pos[{i}][{k}] differs"
            );
            assert_eq!(
                a.vel[i][k].to_bits(),
                b.vel[i][k].to_bits(),
                "{what}: vel[{i}][{k}] differs"
            );
            assert_eq!(
                a.acc[i][k].to_bits(),
                b.acc[i][k].to_bits(),
                "{what}: force sum acc[{i}][{k}] differs"
            );
            assert_eq!(
                a.jerk[i][k].to_bits(),
                b.jerk[i][k].to_bits(),
                "{what}: force sum jerk[{i}][{k}] differs"
            );
        }
        assert_eq!(a.t[i].to_bits(), b.t[i].to_bits(), "{what}: t[{i}] differs");
        assert_eq!(
            a.dt[i].to_bits(),
            b.dt[i].to_bits(),
            "{what}: dt[{i}] differs"
        );
    }
}

/// The image of a run with no engine state to keep (host arithmetic, or
/// the copy algorithm's rank-identical particles): particles, block time
/// and statistics, pushed through the byte format and back.
fn engineless_image(
    set: &ParticleSet,
    t: f64,
    eps: f64,
    stats: &RunStats,
    label: &str,
) -> Checkpoint {
    let ckpt = Checkpoint {
        version: CKPT_VERSION,
        label: label.into(),
        blockstep: stats.blocksteps,
        engine: None,
        integrator: integrator_state(set, t, eps, stats),
        net: Vec::new(),
        trace: TraceState::default(),
    };
    let bytes = ckpt.to_bytes();
    let loaded = Checkpoint::from_bytes(&bytes).expect("round-trip");
    assert_eq!(
        loaded.to_bytes(),
        bytes,
        "wire encoding must be byte-for-byte stable"
    );
    loaded
}

#[test]
fn single_host_resume_is_bitwise_for_100_blocksteps() {
    let n = 24;
    let machine = MachineConfig::test_small();
    let icfg = IntegratorConfig::default();
    let set = plummer_model(n, &mut StdRng::seed_from_u64(9));

    // The uninterrupted run, paused at an arbitrary blockstep (13).
    let mut gold = HermiteIntegrator::new(Grape6Engine::try_new(&machine, n).unwrap(), set, icfg);
    for _ in 0..13 {
        gold.step();
    }

    // Interrupt: checkpoint, push through the wire format, restore.
    let ckpt = capture(&gold, "resume acceptance");
    let bytes = ckpt.to_bytes();
    let loaded = Checkpoint::from_bytes(&bytes).expect("round-trip");
    assert_eq!(
        loaded.to_bytes(),
        bytes,
        "wire encoding must be byte-for-byte stable"
    );
    let mut resumed = restore(&machine, None, icfg, &loaded).expect("restore");

    // Both runs continue; every one of the next 120 blocksteps must agree
    // on every byte of particle state.
    for step in 0..120 {
        let (tg, _) = gold.step();
        let (tr, _) = resumed.step();
        assert_eq!(tg.to_bits(), tr.to_bits(), "block time at step {step}");
        assert_bits_equal(
            gold.particles(),
            resumed.particles(),
            &format!("blockstep {step} after resume"),
        );
    }
    assert_eq!(gold.stats().blocksteps, resumed.stats().blocksteps);
}

#[test]
fn four_rank_cluster_resume_is_bitwise_for_100_blocksteps() {
    // A 2×2 multi-cluster layout: 4 ranks under the copy algorithm (the
    // inter-cluster parallelisation of §4.3).
    let n = 32;
    let ranks = 4;
    let t_end = 0.25;
    let cfg = CopyConfig::default();
    let set = plummer_model(n, &mut StdRng::seed_from_u64(17));
    let interrupt_at = 9u64;

    // Reference: the uninterrupted 4-rank run.
    let gold = run_copy_parallel(&set, ranks, t_end, &cfg);
    assert!(
        gold.stats.blocksteps >= interrupt_at + 100,
        "need ≥100 blocksteps after the interruption, run had {}",
        gold.stats.blocksteps
    );

    // Interrupted: stop after 9 blocksteps, capture the (rank-identical)
    // state into the checkpoint wire format, bring it back, continue.
    let first = run_copy_parallel_segment(
        &set,
        ranks,
        CopySegment {
            resume_from: None,
            max_blocksteps: Some(interrupt_at),
            t_end,
        },
        &cfg,
    );
    assert_eq!(first.stats.blocksteps, interrupt_at);
    // The last block time is the max particle time (stepped particles
    // carry it); checkpoints for engine-less parallel runs store it.
    let t_mid = first.set.t.iter().cloned().fold(0.0f64, f64::max);
    let eps = cfg.integ.softening.epsilon(n);
    let loaded = engineless_image(
        &first.set,
        t_mid,
        eps,
        &first.stats,
        "cluster resume acceptance",
    );

    let restored_set = particles_from_state(&loaded.integrator);
    let second = run_copy_parallel_segment(
        &restored_set,
        ranks,
        CopySegment {
            resume_from: Some(f64::from_bits(loaded.integrator.t)),
            max_blocksteps: None,
            t_end,
        },
        &cfg,
    );

    assert_bits_equal(
        &gold.set,
        &second.set,
        "4-rank resumed run vs uninterrupted run",
    );
    assert_eq!(
        first.stats.blocksteps + second.stats.blocksteps,
        gold.stats.blocksteps,
        "the two segments must cover exactly the reference schedule"
    );

    // And the whole stitched run still matches the serial driver bitwise
    // (transitively proving resume changed nothing).
    let mut serial = HermiteIntegrator::new(DirectEngine::new(n), set, cfg.integ);
    serial.run_until(t_end);
    assert_bits_equal(serial.particles(), &second.set, "serial vs stitched");
}

#[test]
fn snapshot_v2_resumes_a_host_run_bitwise() {
    // The image carries the full Hermite derivative state (snap, crackle,
    // pot) even without an engine record, so a host run restored from it
    // continues warm — bitwise identical on host arithmetic, with no
    // cold-start re-initialisation.
    let n = 32;
    let icfg = IntegratorConfig::default();
    let set = plummer_model(n, &mut StdRng::seed_from_u64(41));

    let mut gold = HermiteIntegrator::new(DirectEngine::new(n), set, icfg);
    for _ in 0..11 {
        gold.step();
    }

    let eps = icfg.softening.epsilon(n);
    let image = engineless_image(
        gold.particles(),
        gold.time(),
        eps,
        gold.stats(),
        "v2 warm resume",
    );
    let mut resumed = HermiteIntegrator::resume(
        DirectEngine::new(n),
        particles_from_state(&image.integrator),
        icfg,
        f64::from_bits(image.integrator.t),
        stats_from_state(&image.integrator.stats),
    );

    for step in 0..120 {
        let (tg, _) = gold.step();
        let (tr, _) = resumed.step();
        assert_eq!(tg.to_bits(), tr.to_bits(), "block time at step {step}");
        assert_bits_equal(
            gold.particles(),
            resumed.particles(),
            &format!("blockstep {step} after snapshot resume"),
        );
    }
}

#[test]
fn snapshot_checkpoints_an_integration() {
    // Run → image → cold restart → continue; energy stays conserved
    // through the checkpoint boundary.
    let n = 64;
    let icfg = IntegratorConfig::default();
    let set = plummer_model(n, &mut StdRng::seed_from_u64(601));
    let eps2 = Softening::Constant.epsilon2(n);
    let e0 = energy(&set, eps2);
    let mut first = HermiteIntegrator::new(DirectEngine::new(n), set, icfg);
    first.run_until(0.125);
    let image = engineless_image(
        &first.synchronized_snapshot(),
        first.time(),
        icfg.softening.epsilon(n),
        first.stats(),
        "checkpoint",
    );
    // Restore into a brand-new integrator (cold restart: derivatives are
    // re-derived by initialisation).
    let restored = particles_from_state(&image.integrator);
    let mut second = HermiteIntegrator::new(DirectEngine::new(n), restored, icfg);
    second.run_until(0.125);
    let e1 = energy(&second.synchronized_snapshot(), eps2);
    let err = ((e1.total() - e0.total()) / e0.total()).abs();
    assert!(err < 1e-4, "energy across checkpoint boundary: {err:e}");
}
