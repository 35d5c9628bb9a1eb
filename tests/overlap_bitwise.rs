//! Acceptance: the three execution schedules — serial board walk with
//! blocking blocksteps, board walk fanned out over `nbody_core::fanout`
//! with blocking blocksteps, and fanned-out board walk with split-phase
//! overlapped blocksteps — produce **bitwise-identical** trajectories
//! over 100+ blocksteps.  (In the overlapped schedule the engine runs on
//! the integrator's scoped thread while the test threads beside it fan
//! out too: whoever finds the pool busy walks its boards itself — rule 2
//! of `fanout` — and `ci.sh` repeats the suite at `GRAPE6_THREADS=1`
//! and `=2`.)
//!
//! This is the §3.4 reproducibility property extended to the execution
//! schedule: the block floating-point force accumulation is exact, so it
//! is order- and partition-independent across chips and boards, and the
//! overlapped corrector reads only each particle's own pre-step state —
//! no schedule can change a single bit.  The property must also survive
//! an active [`FaultPlan`] (degraded board array, §3.4 oracle) and a
//! checkpoint/restore cycle in the middle of an overlapped run.
//!
//! The same matrix is crossed with the force-kernel selector
//! ([`KernelMode`]) and the lane level: the lane kernel — on the portable
//! instance (dispatch forced off), capped at the 4-wide AVX2 lanes, and
//! on whatever level the host dispatches to — must land on the same bits
//! as the scalar oracle on every schedule, on a degraded machine, and
//! across a checkpoint/restore that switches kernels mid-run.

use std::sync::{Mutex, MutexGuard};

use grape6::arith::simd::{set_dispatch_override, DispatchOverride};
use grape6::fault::{FaultConfig, FaultPlan, MachineGeometry};
use grape6_ckpt::Checkpoint;
use grape6_core::checkpoint::{capture, restore};
use grape6_core::{Grape6Engine, HermiteIntegrator, IntegratorConfig, KernelMode};
use grape6_system::machine::MachineConfig;
use nbody_core::ic::plummer::plummer_model;
use nbody_core::particle::ParticleSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn machine() -> MachineConfig {
    MachineConfig::builder()
        .boards(2)
        .modules_per_board(2)
        .chips_per_module(2)
        .jmem_capacity(MachineConfig::test_small().chip.jmem_capacity)
        .build()
        .unwrap()
}

/// The dispatch override is process-global and the tests of this binary
/// run on parallel threads: whoever pins a lane level holds this lock
/// until the level is back at `Auto`, so a `portable` row really runs the
/// portable lanes and a `simd` row really runs the host's level.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

struct PinnedLevel(#[allow(dead_code)] MutexGuard<'static, ()>);

impl PinnedLevel {
    fn new(level: DispatchOverride) -> Self {
        // A failed test poisons the lock but leaves nothing behind it
        // (`Drop` resets the level while unwinding): keep the others
        // reporting their own verdicts.
        let guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_dispatch_override(level);
        Self(guard)
    }
}

impl Drop for PinnedLevel {
    fn drop(&mut self) {
        set_dispatch_override(DispatchOverride::Auto);
    }
}

/// The lane kernel on the portable instance / capped at AVX2 (the 4-wide
/// lanes on an AVX-512 host, a no-op cap elsewhere) / on the dispatched
/// level.
const PORTABLE: (KernelMode, DispatchOverride) = (KernelMode::Simd, DispatchOverride::ForceScalar);
const SIMD_AVX2: (KernelMode, DispatchOverride) = (KernelMode::Simd, DispatchOverride::CapAvx2);
const SIMD: (KernelMode, DispatchOverride) = (KernelMode::Simd, DispatchOverride::Auto);
const SCALAR: (KernelMode, DispatchOverride) = (KernelMode::Scalar, DispatchOverride::Auto);

/// Byte-level equality of the full integration state.
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

/// Build an integrator for one schedule (optionally on a degraded
/// machine) and run `blocksteps` blocksteps through the auto dispatcher.
fn run_schedule(
    n: usize,
    seed: u64,
    blocksteps: usize,
    board_parallel: bool,
    overlap: bool,
    (kernel, level): (KernelMode, DispatchOverride),
    plan: Option<&FaultPlan>,
) -> (Vec<u64>, ParticleSet) {
    let _pinned = PinnedLevel::new(level);
    let cfg = machine();
    let set = plummer_model(n, &mut StdRng::seed_from_u64(seed));
    let mut engine = match plan {
        Some(plan) => Grape6Engine::with_fault_plan(&cfg, n, plan).unwrap(),
        None => Grape6Engine::try_new(&cfg, n).unwrap(),
    };
    engine.set_board_parallel(board_parallel);
    engine.set_kernel_mode(kernel);
    let icfg = IntegratorConfig {
        overlap,
        ..IntegratorConfig::default()
    };
    let mut it = HermiteIntegrator::new(engine, set, icfg);
    let mut times = Vec::with_capacity(blocksteps);
    for _ in 0..blocksteps {
        let (t, _) = it.try_step_auto().expect("healthy schedule");
        times.push(t.to_bits());
    }
    (times, it.particles().clone())
}

#[test]
fn three_schedules_are_bitwise_identical_over_100_blocksteps() {
    // The reference is the most conservative combination: serial blocking
    // walk on the scalar oracle.  Every other (schedule × kernel)
    // combination must land on its exact bits.
    let n = 64;
    let steps = 110;
    let (t_ref, reference) = run_schedule(n, 5, steps, false, false, SCALAR, None);
    for (label, board_parallel, overlap, kernel) in [
        ("overlapped / scalar", true, true, SCALAR),
        ("serial / portable", false, false, PORTABLE),
        ("parallel / portable", true, false, PORTABLE),
        ("overlapped / portable", true, true, PORTABLE),
        ("overlapped / simd capped at avx2", true, true, SIMD_AVX2),
        ("serial / simd", false, false, SIMD),
        ("overlapped / simd", true, true, SIMD),
    ] {
        let (t, set) = run_schedule(n, 5, steps, board_parallel, overlap, kernel, None);
        assert_eq!(t_ref, t, "{label}: block-time sequence diverged");
        assert_bits_equal(&reference, &set, label);
    }
}

#[test]
fn schedules_stay_bitwise_identical_under_an_active_fault_plan() {
    // Degrade the board array with a seeded plan (dead chip, dead
    // pipeline, stuck j-memory bit) and re-run all three schedules: the
    // §3.4 oracle says the surviving units still produce the exact bits
    // of the healthy serial machine.
    let cfg = machine();
    let plan = FaultPlan::generate(
        2024,
        &FaultConfig::default(),
        MachineGeometry {
            boards: cfg.boards,
            modules_per_board: cfg.modules_per_board,
            chips_per_module: cfg.chips_per_module,
        },
    );
    assert!(!plan.is_empty());
    let n = 64;
    let steps = 100;
    let (t_clean, clean) = run_schedule(n, 5, steps, false, false, SCALAR, None);
    for (label, board_parallel, overlap, kernel) in [
        ("degraded serial / scalar", false, false, SCALAR),
        ("degraded parallel / portable", true, false, PORTABLE),
        ("degraded overlapped / portable", true, true, PORTABLE),
        ("degraded overlapped / simd", true, true, SIMD),
    ] {
        let (t, set) = run_schedule(n, 5, steps, board_parallel, overlap, kernel, Some(&plan));
        assert_eq!(t_clean, t, "{label}: block-time sequence diverged");
        assert_bits_equal(&clean, &set, label);
    }
}

#[test]
fn overlapped_run_resumes_bitwise_across_checkpoint_restore() {
    // Interrupt an *overlapped* run mid-flight, push the checkpoint
    // through the wire format, restore, and continue overlapped: every
    // one of the next 100+ blocksteps matches the uninterrupted
    // overlapped run — and the final state matches the serial blocking
    // schedule, closing the loop between all three properties.
    //
    // The gold run uses the lane kernel on the portable instance (every
    // gold step runs with dispatch forced off); the resumed run is
    // switched to the scalar oracle, then to the lane kernel at the
    // host's dispatched level mid-run.  `KernelMode` and the lane level
    // are deliberately not checkpoint state — they must be
    // bitwise-invisible, so a restore (or a live run) may change them
    // freely.
    let _pinned = PinnedLevel::new(DispatchOverride::ForceScalar);
    let n = 48;
    let cfg = machine();
    let icfg = IntegratorConfig {
        overlap: true,
        ..IntegratorConfig::default()
    };
    let set = plummer_model(n, &mut StdRng::seed_from_u64(23));

    let mut gold = HermiteIntegrator::new(
        {
            let mut e = Grape6Engine::try_new(&cfg, n).unwrap();
            e.set_board_parallel(true);
            e.set_kernel_mode(KernelMode::Simd);
            e
        },
        set.clone(),
        icfg,
    );
    for _ in 0..13 {
        gold.try_step_auto().expect("healthy hardware");
    }

    let ckpt = capture(&gold, "overlap resume acceptance");
    let bytes = ckpt.to_bytes();
    let loaded = Checkpoint::from_bytes(&bytes).expect("round-trip");
    let mut resumed = restore(&cfg, None, icfg, &loaded).expect("restore");
    resumed.engine_mut().set_board_parallel(true);
    resumed.engine_mut().set_kernel_mode(KernelMode::Scalar);

    for step in 0..110 {
        if step == 55 {
            // Kernel switches are legal at any blockstep boundary.
            resumed.engine_mut().set_kernel_mode(KernelMode::Simd);
        }
        set_dispatch_override(DispatchOverride::ForceScalar);
        let (tg, _) = gold.try_step_auto().expect("healthy hardware");
        set_dispatch_override(DispatchOverride::Auto);
        let (tr, _) = resumed.try_step_auto().expect("healthy hardware");
        assert_eq!(tg.to_bits(), tr.to_bits(), "block time at step {step}");
        assert_bits_equal(
            gold.particles(),
            resumed.particles(),
            &format!("blockstep {step} after overlapped resume"),
        );
    }

    // The stitched overlapped run also matches a serial blocking run of
    // the same length — schedule and interruption both invisible.
    let mut serial = HermiteIntegrator::new(
        Grape6Engine::try_new(&cfg, n).unwrap(),
        set,
        IntegratorConfig::default(),
    );
    for _ in 0..123 {
        serial.try_step_auto().expect("healthy hardware");
    }
    assert_bits_equal(
        serial.particles(),
        resumed.particles(),
        "serial blocking vs resumed overlapped",
    );
}
