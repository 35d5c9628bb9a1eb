//! Acceptance: losing a rank mid-run must not change a single bit.
//!
//! Rank death itself is detected and survived by
//! `grape6_net::ClusterSupervisor` over real sockets (its unit tests and
//! `grape6-bench`'s `transport_procs` test kill and stall real
//! processes).  What this file pins is the property that recovery rests
//! on: a copy-algorithm run taken to a checkpoint on 4 ranks and
//! continued from it on the 3 survivors ends **bitwise identical** to a
//! run that never lost anyone — and, for supervised single-host
//! recovery, that the recovery work lands in the paper's six-term time
//! breakdown.

use grape6_core::{
    CheckpointPolicy, Grape6Engine, HermiteIntegrator, IntegratorConfig, RunSupervisor,
    SupervisorConfig,
};
use grape6_fault::{FaultConfig, FaultPlan, MachineGeometry};
use grape6_parallel::{run_copy_parallel, run_copy_parallel_segment, CopyConfig, CopySegment};
use grape6_system::machine::MachineConfig;
use grape6_trace::span::Phase;
use grape6_trace::{MeasuredBlockTime, Tracer};
use nbody_core::force::DirectEngine;
use nbody_core::ic::plummer::plummer_model;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn four_ranks_to_a_checkpoint_three_survivors_from_it_is_bitwise_clean() {
    let n = 32;
    let ranks = 4;
    let t_end = 0.25;
    let cfg = CopyConfig::default();
    let set = plummer_model(n, &mut StdRng::seed_from_u64(23));
    let clean = run_copy_parallel(&set, ranks, t_end, &cfg);

    // All four ranks run to the checkpoint at blockstep 6…
    let first = run_copy_parallel_segment(
        &set,
        ranks,
        CopySegment {
            resume_from: None,
            max_blocksteps: Some(6),
            t_end,
        },
        &cfg,
    );
    // (The last block time is the max particle time; the checkpoint's
    // trip through the wire format is `tests/checkpoint_resume.rs`.)
    let t_mid = first.set.t.iter().cloned().fold(0.0f64, f64::max);

    // …one is lost, and the three survivors re-partition every block
    // among themselves from the checkpointed state.
    let survivors = run_copy_parallel_segment(
        &first.set,
        ranks - 1,
        CopySegment {
            resume_from: Some(t_mid),
            max_blocksteps: None,
            t_end,
        },
        &cfg,
    );
    assert_eq!(survivors.clocks.len(), ranks - 1);

    // Bitwise: the shrunk run equals the uninterrupted 4-rank run…
    assert_eq!(survivors.set.pos, clean.set.pos, "positions diverged");
    assert_eq!(survivors.set.vel, clean.set.vel, "velocities diverged");
    assert_eq!(survivors.set.acc, clean.set.acc, "force sums diverged");
    assert_eq!(survivors.set.dt, clean.set.dt, "schedules diverged");
    assert_eq!(
        first.stats.blocksteps + survivors.stats.blocksteps,
        clean.stats.blocksteps,
        "the two segments must cover exactly the reference schedule"
    );

    // …and both equal the serial driver (the §3.4 property end to end).
    let mut serial = HermiteIntegrator::new(DirectEngine::new(n), set, cfg.integ);
    serial.run_until(t_end);
    assert_eq!(survivors.set.pos, serial.particles().pos);
    assert_eq!(survivors.set.vel, serial.particles().vel);
    assert_eq!(clean.stats.blocksteps, serial.stats().blocksteps);
}

#[test]
fn recovery_work_lands_in_the_six_term_breakdown() {
    // A supervised single-host run on hardware that loses a module
    // mid-integration: the supervisor's recovery actions (checkpoint
    // writes, re-self-test, j-memory reloads) must show up as spans that
    // fold into the six-term breakdown — Ckpt→host, Selftest→grape,
    // Reload→interface.
    let n = 24;
    let machine = MachineConfig::single_board();
    let faults = FaultConfig {
        midrun_module_deaths: 1,
        midrun_pass_range: (2, 20),
        ..FaultConfig::default()
    };
    let seed = 5u64;
    let plan = FaultPlan::generate(
        seed,
        &faults,
        MachineGeometry {
            boards: machine.boards,
            modules_per_board: machine.modules_per_board,
            chips_per_module: machine.chips_per_module,
        },
    );
    let set = plummer_model(n, &mut StdRng::seed_from_u64(seed));
    let engine = Grape6Engine::with_fault_plan(&machine, n, &plan).expect("capacity");
    let mut it = HermiteIntegrator::new(engine, set, IntegratorConfig::default());
    it.set_tracer(Tracer::enabled());
    // Recovery spans are recorded on the engine's timeline (they are
    // hardware-side work), so the engine tracer must be live too.
    it.engine_mut().set_tracer(Tracer::enabled());
    let mut scfg = SupervisorConfig::for_machine(machine);
    scfg.policy = CheckpointPolicy {
        every_blocksteps: Some(8),
        every_virtual_seconds: None,
    };
    scfg.plan = Some(plan);
    let mut sup = RunSupervisor::new(it, scfg);
    sup.run_until(0.125).expect("supervised run survives");
    // Operator controls drive the remaining rungs explicitly (the engine
    // absorbs a scheduled module death internally, so the supervised run
    // itself only exercises masking + checkpoints): prove the hardware,
    // then rebalance the j-partitioning over the survivors.
    sup.reselftest().expect("re-self-test on masked hardware");
    sup.redistribute().expect("explicit redistribution");
    sup.run_until(0.25).expect("run continues after the rungs");

    let stats = sup.integrator().stats().clone();
    assert!(stats.recovery.reselftests > 0);
    assert!(stats.recovery.checkpoints_taken > 0);
    assert!(stats.recovery.recovery_seconds > 0.0);
    assert!(stats.faults.units_masked > 0, "the dead module was masked");

    let spans = sup.integrator_mut().take_spans();
    let ckpt_t: f64 = span_time(&spans, Phase::Ckpt);
    let selftest_t: f64 = span_time(&spans, Phase::Selftest);
    let reload_t: f64 = span_time(&spans, Phase::Reload);
    assert!(ckpt_t > 0.0, "checkpoint writes must be traced");
    assert!(selftest_t > 0.0, "the re-self-test must be traced");
    assert!(reload_t > 0.0, "the j-memory reload must be traced");

    // The six-term aggregation accounts for every recovery span: host
    // picks up checkpoint writes, grape the self-test passes, interface
    // the reloads.
    let bt = MeasuredBlockTime::from_spans(&spans);
    assert!(bt.host >= ckpt_t);
    assert!(bt.grape >= selftest_t);
    assert!(bt.interface >= reload_t);
    // And the recovery account matches what was traced.
    let traced_recovery = ckpt_t + selftest_t + reload_t;
    assert!(
        (stats.recovery.recovery_seconds - traced_recovery).abs()
            <= 1e-12 * traced_recovery.max(1.0),
        "recovery account {} != traced recovery spans {}",
        stats.recovery.recovery_seconds,
        traced_recovery
    );
}

fn span_time(spans: &[grape6_trace::span::Span], phase: Phase) -> f64 {
    spans
        .iter()
        .filter(|s| s.phase == phase)
        .map(|s| s.t1 - s.t0)
        .sum()
}
