//! Capture and restore: between the live integrator and the
//! `grape6-ckpt` data model.
//!
//! [`capture`] flattens a running [`HermiteIntegrator`] over a
//! [`Grape6Engine`] into a serialisable [`Checkpoint`]; [`restore`]
//! rebuilds the pair so that every subsequent blockstep is **bitwise
//! identical** to the uninterrupted run:
//!
//! * particle state (the full force polynomial, per-particle `t`/`dt`)
//!   travels as `f64` bit patterns;
//! * the engine's block-FP magnitude estimates, retry counter and the two
//!   pass clocks (engine chunks, hardware ensemble passes) are restored,
//!   so exponent windows and scheduled faults fire exactly as they would
//!   have;
//! * the hardware itself is rebuilt from the machine configuration and
//!   the fault plan — both deterministic — with the checkpoint's
//!   masked-unit set re-applied and the j-memory reloaded through the
//!   normal [`nbody_core::ForceEngine::set_j_particle`] path, which also
//!   rebuilds the host-side mirror.  §3.4 block floating-point summation
//!   makes the refreshed partitioning invisible in the force bits.

use grape6_ckpt::{bits, bits3, unbits, unbits3, Checkpoint, IntegratorState, RunStatState};
use grape6_fault::{FaultCounters, FaultPlan};
use grape6_system::machine::MachineConfig;
use nbody_core::force::{EngineError, ForceEngine};
use nbody_core::particle::ParticleSet;
use nbody_core::Vec3;

use crate::engine::Grape6Engine;
use crate::integrator::{HermiteIntegrator, IntegratorConfig};
use crate::stats::{RecoveryStats, RunStats};

/// Why a checkpoint could not be turned back into a live run.
#[derive(Debug)]
pub enum RestoreError {
    /// The rebuilt engine rejected the state (capacity, machine
    /// fingerprint, hardware fault during reload).
    Engine(EngineError),
    /// The checkpoint disagrees with the run configuration it is being
    /// restored into.
    Mismatch(String),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Engine(e) => write!(f, "restore failed in the engine: {e}"),
            Self::Mismatch(m) => write!(f, "checkpoint/configuration mismatch: {m}"),
        }
    }
}

impl std::error::Error for RestoreError {}

impl From<EngineError> for RestoreError {
    fn from(e: EngineError) -> Self {
        Self::Engine(e)
    }
}

/// Flatten `stats` into the checkpoint model.
pub fn stats_state(stats: &RunStats) -> RunStatState {
    RunStatState {
        particle_steps: stats.particle_steps,
        blocksteps: stats.blocksteps,
        max_block: stats.max_block as u64,
        block_hist: stats.block_hist.clone(),
        dt_min: bits(stats.dt_min),
        dt_max: bits(stats.dt_max),
        faults: grape6_ckpt::FaultCounterState {
            selftest_failures: stats.faults.selftest_failures,
            units_masked: stats.faults.units_masked,
            scheduled_deaths: stats.faults.scheduled_deaths,
            reduction_glitches: stats.faults.reduction_glitches,
            sanity_recomputes: stats.faults.sanity_recomputes,
            exponent_retries: stats.faults.exponent_retries,
        },
        recovery: grape6_ckpt::RecoveryState {
            checkpoints_taken: stats.recovery.checkpoints_taken,
            restores: stats.recovery.restores,
            reselftests: stats.recovery.reselftests,
            redistributions: stats.recovery.redistributions,
            recovery_seconds: bits(stats.recovery.recovery_seconds),
            step_retries: stats.recovery.step_retries,
        },
    }
}

/// Rebuild [`RunStats`] from the checkpoint model.
pub fn stats_from_state(st: &RunStatState) -> RunStats {
    RunStats {
        particle_steps: st.particle_steps,
        blocksteps: st.blocksteps,
        max_block: st.max_block as usize,
        block_hist: st.block_hist.clone(),
        dt_min: unbits(st.dt_min),
        dt_max: unbits(st.dt_max),
        faults: FaultCounters {
            selftest_failures: st.faults.selftest_failures,
            units_masked: st.faults.units_masked,
            scheduled_deaths: st.faults.scheduled_deaths,
            reduction_glitches: st.faults.reduction_glitches,
            sanity_recomputes: st.faults.sanity_recomputes,
            exponent_retries: st.faults.exponent_retries,
        },
        recovery: RecoveryStats {
            checkpoints_taken: st.recovery.checkpoints_taken,
            restores: st.recovery.restores,
            reselftests: st.recovery.reselftests,
            redistributions: st.recovery.redistributions,
            recovery_seconds: unbits(st.recovery.recovery_seconds),
            step_retries: st.recovery.step_retries,
        },
    }
}

/// Flatten a particle set (with integrator scalars) into the checkpoint
/// model.
pub fn integrator_state(set: &ParticleSet, t: f64, eps: f64, stats: &RunStats) -> IntegratorState {
    let n = set.n();
    IntegratorState {
        t: bits(t),
        eps: bits(eps),
        n,
        mass: set.mass.iter().map(|&m| bits(m)).collect(),
        pos: set.pos.iter().map(|p| bits3(p.to_array())).collect(),
        vel: set.vel.iter().map(|p| bits3(p.to_array())).collect(),
        acc: set.acc.iter().map(|p| bits3(p.to_array())).collect(),
        jerk: set.jerk.iter().map(|p| bits3(p.to_array())).collect(),
        snap: set.snap.iter().map(|p| bits3(p.to_array())).collect(),
        crackle: set.crackle.iter().map(|p| bits3(p.to_array())).collect(),
        pot: set.pot.iter().map(|&p| bits(p)).collect(),
        t_last: set.t.iter().map(|&x| bits(x)).collect(),
        dt: set.dt.iter().map(|&x| bits(x)).collect(),
        stats: stats_state(stats),
    }
}

/// Rebuild a particle set from the checkpoint model.
pub fn particles_from_state(st: &IntegratorState) -> ParticleSet {
    let mut set = ParticleSet::with_capacity(st.n);
    for i in 0..st.n {
        set.push(
            unbits(st.mass[i]),
            Vec3::from_array(unbits3(st.pos[i])),
            Vec3::from_array(unbits3(st.vel[i])),
        );
    }
    for i in 0..st.n {
        set.acc[i] = Vec3::from_array(unbits3(st.acc[i]));
        set.jerk[i] = Vec3::from_array(unbits3(st.jerk[i]));
        set.snap[i] = Vec3::from_array(unbits3(st.snap[i]));
        set.crackle[i] = Vec3::from_array(unbits3(st.crackle[i]));
        set.pot[i] = unbits(st.pot[i]);
        set.t[i] = unbits(st.t_last[i]);
        set.dt[i] = unbits(st.dt[i]);
    }
    set
}

/// Capture the complete state of a running integrator + engine pair.
pub fn capture(it: &HermiteIntegrator<Grape6Engine>, label: &str) -> Checkpoint {
    Checkpoint {
        version: grape6_ckpt::CKPT_VERSION,
        label: label.to_string(),
        blockstep: it.stats().blocksteps,
        engine: Some(it.engine().checkpoint_state()),
        integrator: integrator_state(it.particles(), it.time(), it.epsilon(), it.stats()),
        net: Vec::new(),
        trace: grape6_ckpt::TraceState {
            vt: bits(it.engine().vt()),
            active: false,
        },
    }
}

/// Restore a live integrator + engine pair from a checkpoint.
///
/// `cfg`, `plan` and `icfg` must be what the original run was built with;
/// the checkpoint guards what it can (machine fingerprint, plan seed,
/// softening length) and trusts the caller for the rest — the formats
/// deliberately do not serialise closures or grids.
pub fn restore(
    cfg: &MachineConfig,
    plan: Option<&FaultPlan>,
    icfg: IntegratorConfig,
    ckpt: &Checkpoint,
) -> Result<HermiteIntegrator<Grape6Engine>, RestoreError> {
    let es = engine_state(ckpt)?;
    if let Some(plan) = plan {
        if plan.seed != es.plan_seed {
            return Err(RestoreError::Mismatch(format!(
                "checkpoint was taken under fault-plan seed {}, not {}",
                es.plan_seed, plan.seed
            )));
        }
    }
    resume_on(cfg, plan, icfg, ckpt, es)
}

/// Restore a checkpoint onto *different* hardware — the migration path a
/// board farm uses when the original board is gone (evicted session
/// resumed elsewhere, or a faulted board rotated out of service).
///
/// Where [`restore`] rebuilds the original board — same fault plan, same
/// masked-unit set, same pending scheduled deaths — this rebuilds the run
/// on the board described by `cfg`/`plan`:
///
/// * the plan-seed guard is skipped and the engine takes the *new* board's
///   seed (the checkpoint's seed describes hardware we no longer run on);
/// * the old board's masked-unit set is **not** re-applied, and its
///   pending scheduled deaths are **not** re-armed — faults belong to the
///   physical board, not to the session, and must not follow a migration;
/// * the new board's own plan (if any) is injected and self-tested as at
///   any power-on.
///
/// Machine *geometry* must still match the checkpoint fingerprint — a
/// farm's pool is homogeneous, and the block-FP reduction tree is shaped
/// by it.  Everything bitwise-critical (particle bits, magnitude
/// estimates, pass clocks) transfers unchanged, and §3.4 summation makes
/// the new board's partitioning invisible in the force bits, so the
/// migrated run continues bit-for-bit like the uninterrupted one.
pub fn restore_migrate(
    cfg: &MachineConfig,
    plan: Option<&FaultPlan>,
    icfg: IntegratorConfig,
    ckpt: &Checkpoint,
) -> Result<HermiteIntegrator<Grape6Engine>, RestoreError> {
    let mut es = engine_state(ckpt)?.clone();
    es.plan_seed = plan.map(|p| p.seed).unwrap_or(0);
    es.masked.clear();
    es.pending_deaths.clear();
    resume_on(cfg, plan, icfg, ckpt, &es)
}

fn engine_state(ckpt: &Checkpoint) -> Result<&grape6_ckpt::EngineState, RestoreError> {
    ckpt.engine
        .as_ref()
        .ok_or_else(|| RestoreError::Mismatch("checkpoint has no engine state".into()))
}

/// What [`restore`] and [`restore_migrate`] share once they have settled
/// on the engine state `es` to rebuild from: the consistency and
/// softening guards, then the engine, particle set and statistics.
fn resume_on(
    cfg: &MachineConfig,
    plan: Option<&FaultPlan>,
    icfg: IntegratorConfig,
    ckpt: &Checkpoint,
    es: &grape6_ckpt::EngineState,
) -> Result<HermiteIntegrator<Grape6Engine>, RestoreError> {
    let ist = &ckpt.integrator;
    if !ist.is_consistent() {
        return Err(RestoreError::Mismatch(
            "integrator arrays are inconsistent".into(),
        ));
    }
    let eps = icfg.softening.epsilon(ist.n);
    if bits(eps) != ist.eps {
        return Err(RestoreError::Mismatch(format!(
            "softening ε from the configuration is {eps:e}; the checkpoint was taken at {:e}",
            unbits(ist.eps)
        )));
    }
    let engine = Grape6Engine::restore_from_state(cfg, plan, es)?;
    let set = particles_from_state(ist);
    let stats = stats_from_state(&ist.stats);
    Ok(HermiteIntegrator::resume(
        engine,
        set,
        icfg,
        unbits(ist.t),
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use grape6_system::machine::MachineConfig;
    use nbody_core::ic::plummer::plummer_model;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn integ(n: usize, seed: u64) -> HermiteIntegrator<Grape6Engine> {
        let set = plummer_model(n, &mut StdRng::seed_from_u64(seed));
        let engine = Grape6Engine::try_new(&MachineConfig::test_small(), n).unwrap();
        HermiteIntegrator::new(engine, set, IntegratorConfig::default())
    }

    #[test]
    fn capture_restore_roundtrips_particle_bits() {
        let mut it = integ(32, 9);
        for _ in 0..20 {
            it.step();
        }
        let ckpt = capture(&it, "roundtrip");
        let back = restore(
            &MachineConfig::test_small(),
            None,
            IntegratorConfig::default(),
            &ckpt,
        )
        .unwrap();
        let (a, b) = (it.particles(), back.particles());
        assert_eq!(back.time().to_bits(), it.time().to_bits());
        for i in 0..32 {
            assert_eq!(a.pos[i], b.pos[i]);
            assert_eq!(a.vel[i], b.vel[i]);
            assert_eq!(a.acc[i], b.acc[i]);
            assert_eq!(a.jerk[i], b.jerk[i]);
            assert_eq!(a.snap[i], b.snap[i]);
            assert_eq!(a.crackle[i], b.crackle[i]);
            assert_eq!(a.t[i].to_bits(), b.t[i].to_bits());
            assert_eq!(a.dt[i].to_bits(), b.dt[i].to_bits());
        }
        assert_eq!(back.stats().blocksteps, it.stats().blocksteps);
    }

    #[test]
    fn restore_refuses_wrong_softening() {
        let mut it = integ(16, 10);
        it.step();
        let ckpt = capture(&it, "eps guard");
        let bad = IntegratorConfig {
            softening: nbody_core::softening::Softening::CloseEncounter,
            ..Default::default()
        };
        match restore(&MachineConfig::test_small(), None, bad, &ckpt) {
            Err(RestoreError::Mismatch(m)) => assert!(m.contains("softening")),
            Err(other) => panic!("expected Mismatch, got {other:?}"),
            Ok(_) => panic!("expected Mismatch, got Ok"),
        }
    }

    #[test]
    fn restore_refuses_wrong_machine() {
        let mut it = integ(16, 11);
        it.step();
        let ckpt = capture(&it, "machine guard");
        match restore(
            &MachineConfig::single_board(),
            None,
            IntegratorConfig::default(),
            &ckpt,
        ) {
            Err(RestoreError::Engine(_)) => {}
            Err(other) => panic!("expected Engine mismatch, got {other:?}"),
            Ok(_) => panic!("expected Engine mismatch, got Ok"),
        }
    }
}
