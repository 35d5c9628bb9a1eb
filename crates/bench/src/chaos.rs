//! The chaos soak: seeded fault schedules against full recovery stacks.
//!
//! Each seed drives one complete robustness scenario through every layer
//! this repo's recovery machinery spans:
//!
//! 1. a [`FaultPlan`] generated from the seed (dead chips, dead
//!    pipelines, stuck j-memory bits, a module death mid-run, transient
//!    reduction glitches) is run under a [`RunSupervisor`] with a
//!    periodic checkpoint policy;
//! 2. the same run is *crashed* at a seed-chosen blockstep — checkpoint
//!    written to disk, everything dropped — then restored from the file
//!    and continued;
//! 3. the checkpoint file is corrupted (one byte flipped at a seeded
//!    offset) and reloaded, which must fail with a typed
//!    [`CkptError`](grape6_ckpt::CkptError), never a panic.
//!
//! Rank death is not staged here: it needs real processes to kill, and
//! [`crate::chaos_cluster`] does exactly that.
//!
//! The invariants asserted after every recovery are the paper's §3.4
//! reproducibility property in operational form: the faulted and the
//! crashed-and-restored runs must both produce **bitwise identical**
//! particle state to an untouched run of the same system, and the energy
//! error must stay at the integrator's healthy level.  Violations are
//! collected, not panicked — the soak reports every broken invariant of
//! a seed, and the `chaos_soak` binary turns any violation into a
//! nonzero exit for CI.

use std::path::PathBuf;

use grape6_core::integrator::{HermiteIntegrator, IntegratorConfig};
use grape6_core::supervisor::{CheckpointPolicy, RunSupervisor, SupervisorConfig};
use grape6_core::{restore, Grape6Engine};
use grape6_fault::{FaultConfig, FaultPlan, MachineGeometry};
use grape6_system::machine::MachineConfig;
use nbody_core::diagnostics::energy;
use nbody_core::ic::plummer::plummer_model;
use nbody_core::particle::ParticleSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Healthy-integrator energy-error budget for the soak's short runs; a
/// recovery that perturbed the trajectory would blow straight through it.
pub const ENERGY_TOL: f64 = 5e-4;

/// Shape of one chaos scenario (the seed picks everything else).
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Particles in the single-host runs.
    pub n: usize,
    /// System time to integrate to.
    pub t_end: f64,
    /// The machine under test.
    pub machine: MachineConfig,
    /// Fault classes the generated plans draw from.
    pub faults: FaultConfig,
    /// Supervisor checkpoint cadence, blocksteps.
    pub ckpt_every: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            n: 32,
            t_end: 0.25,
            machine: MachineConfig::single_board(),
            faults: FaultConfig {
                dead_chips: 1,
                dead_pipelines: 1,
                stuck_bits: 1,
                dead_modules: 1,
                midrun_module_deaths: 1,
                midrun_pass_range: (2, 30),
                reduction_glitches: 2,
                glitch_pass_range: (1, 40),
                ..FaultConfig::default()
            },
            ckpt_every: 8,
        }
    }
}

/// Everything one seed's scenario produced; `violations` is empty iff
/// every invariant held.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// The driving seed.
    pub seed: u64,
    /// Blocksteps of the supervised faulted run.
    pub blocksteps: u64,
    /// Units the self-test/mid-run machinery masked.
    pub units_masked: u64,
    /// Checkpoints the supervisor took.
    pub checkpoints_taken: u64,
    /// Blockstep at which the crash/restore was staged.
    pub crash_at: u64,
    /// Relative energy error of the faulted run.
    pub energy_error: f64,
    /// The typed error the corrupted checkpoint produced.
    pub corruption_error: String,
    /// Every broken invariant, human-readable; empty = seed passed.
    pub violations: Vec<String>,
}

impl ChaosOutcome {
    /// Did every invariant hold?
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

fn geometry(m: &MachineConfig) -> MachineGeometry {
    MachineGeometry {
        boards: m.boards,
        modules_per_board: m.modules_per_board,
        chips_per_module: m.chips_per_module,
    }
}

/// Bitwise state identity: positions/velocities/accelerations/jerks as
/// values plus time and timestep *bits*.  Shared by the chaos and farm
/// soaks — "recovered" means nothing unless it means this.
pub fn bits_equal(a: &ParticleSet, b: &ParticleSet) -> bool {
    a.n() == b.n()
        && a.pos == b.pos
        && a.vel == b.vel
        && a.acc == b.acc
        && a.jerk == b.jerk
        && (0..a.n()).all(|i| a.t[i].to_bits() == b.t[i].to_bits())
        && (0..a.n()).all(|i| a.dt[i].to_bits() == b.dt[i].to_bits())
}

/// Run one complete chaos scenario for `seed`.
pub fn chaos_run(seed: u64, cfg: &ChaosConfig) -> ChaosOutcome {
    let mut violations: Vec<String> = Vec::new();
    let plan = FaultPlan::generate(seed, &cfg.faults, geometry(&cfg.machine));
    let set0 = plummer_model(cfg.n, &mut StdRng::seed_from_u64(seed));
    let icfg = IntegratorConfig::default();

    let supervised = |label: &str| -> Result<RunSupervisor, String> {
        let engine = Grape6Engine::with_fault_plan(&cfg.machine, cfg.n, &plan)
            .map_err(|e| format!("engine construction failed: {e}"))?;
        let it = HermiteIntegrator::new(engine, set0.clone(), icfg);
        let mut scfg = SupervisorConfig::for_machine(cfg.machine);
        scfg.policy = CheckpointPolicy {
            every_blocksteps: Some(cfg.ckpt_every),
            every_virtual_seconds: None,
        };
        scfg.plan = Some(plan.clone());
        scfg.label = format!("chaos seed {seed} ({label})");
        Ok(RunSupervisor::new(it, scfg))
    };

    // The reference: the same system on a *healthy* machine, no
    // supervisor.  The §3.4 oracle says every recovered run below must
    // reproduce these bits exactly.
    let mut healthy = HermiteIntegrator::new(
        Grape6Engine::try_new(&cfg.machine, cfg.n).unwrap(),
        set0.clone(),
        icfg,
    );
    healthy.run_until(cfg.t_end);

    // Scenario 1: the faulted run, supervised end to end.
    let (blocksteps, units_masked, checkpoints_taken, energy_error) = match supervised("full") {
        Ok(mut sup) => match sup.run_until(cfg.t_end) {
            Ok(()) => {
                let it = sup.integrator();
                if !bits_equal(it.particles(), healthy.particles()) {
                    violations
                        .push("faulted supervised run diverged bitwise from healthy run".into());
                }
                let eps2 = it.epsilon() * it.epsilon();
                let e0 = energy(&set0, eps2);
                let e1 = energy(it.particles(), eps2);
                let err = ((e1.total() - e0.total()) / e0.total()).abs();
                if err > ENERGY_TOL {
                    violations.push(format!("energy error {err:e} over budget {ENERGY_TOL:e}"));
                }
                let st = it.stats();
                if st.recovery.checkpoints_taken == 0 {
                    violations.push("supervisor took no checkpoints".into());
                }
                (
                    st.blocksteps,
                    st.faults.units_masked,
                    st.recovery.checkpoints_taken,
                    err,
                )
            }
            Err(e) => {
                violations.push(format!("supervised run failed: {e}"));
                (0, 0, 0, f64::NAN)
            }
        },
        Err(e) => {
            violations.push(e);
            (0, 0, 0, f64::NAN)
        }
    };

    // Scenario 2: crash at a seeded blockstep, restore from the file,
    // continue — and land on the same bits.
    let crash_at = 4 + seed % 12;
    let ckpt_path: PathBuf =
        std::env::temp_dir().join(format!("grape6_chaos_{seed}_{}.ckpt", std::process::id()));
    let mut corruption_error = String::from("-");
    match supervised("crash") {
        Ok(mut sup) => {
            let mut ok = true;
            while sup.integrator().stats().blocksteps < crash_at
                && sup.integrator().time() < cfg.t_end
            {
                if let Err(e) = sup.step() {
                    violations.push(format!("crash-leg run failed before the crash: {e}"));
                    ok = false;
                    break;
                }
            }
            if ok {
                let ckpt = sup.checkpoint_now().clone();
                if let Err(e) = ckpt.save(&ckpt_path) {
                    violations.push(format!("checkpoint save failed: {e}"));
                } else {
                    drop(sup); // the crash: every live object gone
                    match grape6_ckpt::Checkpoint::load(&ckpt_path) {
                        Ok(loaded) => match restore(&cfg.machine, Some(&plan), icfg, &loaded) {
                            Ok(it) => {
                                let mut scfg = SupervisorConfig::for_machine(cfg.machine);
                                scfg.policy = CheckpointPolicy {
                                    every_blocksteps: Some(cfg.ckpt_every),
                                    every_virtual_seconds: None,
                                };
                                scfg.plan = Some(plan.clone());
                                let mut resumed = RunSupervisor::new(it, scfg);
                                match resumed.run_until(cfg.t_end) {
                                    Ok(()) => {
                                        if !bits_equal(
                                            resumed.integrator().particles(),
                                            healthy.particles(),
                                        ) {
                                            violations.push(
                                                "restored run diverged bitwise from healthy run"
                                                    .into(),
                                            );
                                        }
                                    }
                                    Err(e) => violations
                                        .push(format!("restored run failed to finish: {e}")),
                                }
                            }
                            Err(e) => violations.push(format!("restore failed: {e}")),
                        },
                        Err(e) => violations.push(format!("checkpoint load failed: {e}")),
                    }
                    // Scenario 3: flip one byte at a seeded offset; the
                    // loader must refuse with a typed error.
                    match std::fs::read(&ckpt_path) {
                        Ok(mut bytes) => {
                            let at = (seed as usize).wrapping_mul(7919) % bytes.len();
                            bytes[at] ^= 0xA5;
                            match grape6_ckpt::Checkpoint::from_bytes(&bytes) {
                                Ok(_) => violations.push(format!(
                                    "corrupted checkpoint (byte {at} flipped) was accepted"
                                )),
                                Err(e) => corruption_error = e.to_string(),
                            }
                        }
                        Err(e) => violations.push(format!("could not re-read checkpoint: {e}")),
                    }
                }
                let _ = std::fs::remove_file(&ckpt_path);
            }
        }
        Err(e) => violations.push(e),
    }

    ChaosOutcome {
        seed,
        blocksteps,
        units_masked,
        checkpoints_taken,
        crash_at,
        energy_error,
        corruption_error,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_soaks_clean() {
        // Keep the in-test soak short; the binary runs the full battery.
        let cfg = ChaosConfig {
            t_end: 0.125,
            ..ChaosConfig::default()
        };
        let out = chaos_run(3, &cfg);
        assert!(out.ok(), "violations: {:?}", out.violations);
        assert!(out.blocksteps > 0);
        assert!(out.checkpoints_taken > 0);
        assert!(out.units_masked > 0, "the plan should have masked units");
        assert!(out.corruption_error != "-", "corruption case did not run");
    }
}
