//! The run supervisor: periodic checkpoints and a recovery ladder.
//!
//! The paper's production runs were weeks long on hardware whose failure
//! modes (§2, and the fault subsystem of this repo) were a fact of life;
//! what kept the science moving was not peak Tflops but a host program
//! that could survive them.  [`RunSupervisor`] wraps the Hermite
//! integrator + GRAPE engine pair with that operational layer:
//!
//! * **checkpoint policy** — a [`Checkpoint`] is taken every N blocksteps
//!   and/or every M virtual seconds, kept in memory and — with
//!   [`SupervisorConfig::save_path`] set — written through
//!   [`Checkpoint::save`], the checkpoint crate's one atomic writer, as it
//!   is taken (a write error is warned about, never fatal);
//! * **death detection** — a typed engine error from a blockstep, or a
//!   non-finite particle slipping past the engine's sanity screen;
//! * **recovery ladder** — escalating responses, each charged to the
//!   timing model and counted in [`RecoveryStats`](crate::RecoveryStats):
//!   1. *recompute* — retry the blockstep (the engine's own bounded retry
//!      loops have already absorbed transients; this catches one-off
//!      scheduling glitches),
//!   2. *re-self-test* — known-answer vectors through every unit, masking
//!      whatever answers wrongly, then redistributing j-particles over
//!      the survivors,
//!   3. *redistribute* — an explicit mirror-based j-memory reload,
//!   4. *restore* — rewind to the last checkpoint and re-run from there.
//!
//! Because the checkpoint format is bitwise-exact and §3.4 block-FP
//! summation makes j-redistribution invisible in the force bits, rungs 3
//! and 4 do not perturb the trajectory — a supervised run that recovered
//! produces the same particle bits as an uninterrupted one, just later in
//! virtual time.  The recovery cost lands in the six-term breakdown via
//! [`Phase::Selftest`], [`Phase::Reload`] and [`Phase::Ckpt`] spans.

use grape6_ckpt::Checkpoint;
use grape6_fault::FaultPlan;
use grape6_model::calib::GrapeTiming;
use grape6_system::machine::MachineConfig;
use grape6_trace::{Phase, Span};
use nbody_core::force::{EngineError, ForceEngine};

use crate::checkpoint::{capture, restore, RestoreError};
use crate::engine::Grape6Engine;
use crate::integrator::HermiteIntegrator;

/// When to take a checkpoint.  Both triggers may be active; either firing
/// takes one.  `default()` checkpoints every 64 blocksteps.
#[derive(Clone, Copy, Debug)]
pub struct CheckpointPolicy {
    /// Take a checkpoint every this many blocksteps.
    pub every_blocksteps: Option<u64>,
    /// Take a checkpoint every this many virtual seconds.
    pub every_virtual_seconds: Option<f64>,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        Self {
            every_blocksteps: Some(64),
            every_virtual_seconds: None,
        }
    }
}

/// Everything the supervisor needs to rebuild the run it watches.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Checkpoint cadence.
    pub policy: CheckpointPolicy,
    /// The machine the engine was built on (restore rebuilds it).
    pub machine: MachineConfig,
    /// The fault plan the engine was built with, if any.
    pub plan: Option<FaultPlan>,
    /// Timing model for charging recovery work into virtual time.
    pub timing: GrapeTiming,
    /// Run label stamped into checkpoints.
    pub label: String,
    /// Recovery actions attempted per blockstep before giving up.
    pub max_ladder_rounds: u32,
    /// Persist every checkpoint to this file as it is taken, so a
    /// killed *process* (not just a failed step) can be restored — the
    /// same durability contract the cluster supervisor's coordinated
    /// checkpoints rely on.  `None` keeps checkpoints in memory only.
    pub save_path: Option<std::path::PathBuf>,
}

impl SupervisorConfig {
    /// A sensible default around the given machine: default policy, no
    /// fault plan, paper-host timing.
    pub fn for_machine(machine: MachineConfig) -> Self {
        Self {
            policy: CheckpointPolicy::default(),
            machine,
            plan: None,
            timing: GrapeTiming::paper_host(),
            label: "supervised run".into(),
            max_ladder_rounds: 6,
            save_path: None,
        }
    }
}

/// The run died and the ladder ran out of rungs.
#[derive(Debug)]
pub enum SupervisorError {
    /// An engine error survived every recovery attempt.
    Engine(EngineError),
    /// Restoring from the last checkpoint failed.
    Restore(RestoreError),
    /// Every rung (including restore) was tried and the step still fails.
    Unrecoverable {
        /// The last failure seen.
        detail: String,
    },
}

impl std::fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Engine(e) => write!(f, "engine failure during recovery: {e}"),
            Self::Restore(e) => write!(f, "checkpoint restore failed: {e}"),
            Self::Unrecoverable { detail } => {
                write!(f, "run unrecoverable after exhausting the ladder: {detail}")
            }
        }
    }
}

impl std::error::Error for SupervisorError {}

impl From<EngineError> for SupervisorError {
    fn from(e: EngineError) -> Self {
        Self::Engine(e)
    }
}

impl From<RestoreError> for SupervisorError {
    fn from(e: RestoreError) -> Self {
        Self::Restore(e)
    }
}

/// Supervises one integrator + engine pair through faults.
pub struct RunSupervisor {
    it: HermiteIntegrator<Grape6Engine>,
    cfg: SupervisorConfig,
    last_ckpt: Option<Checkpoint>,
    /// Blockstep count at the last checkpoint (cadence bookkeeping).
    last_ckpt_blockstep: u64,
    /// Virtual time at the last checkpoint.
    last_ckpt_vt: f64,
}

impl RunSupervisor {
    /// Wrap a freshly-built integrator and take the baseline checkpoint
    /// (rung 4 must always have somewhere to rewind to).
    pub fn new(it: HermiteIntegrator<Grape6Engine>, cfg: SupervisorConfig) -> Self {
        let mut sup = Self {
            it,
            cfg,
            last_ckpt: None,
            last_ckpt_blockstep: 0,
            last_ckpt_vt: 0.0,
        };
        sup.checkpoint_now();
        sup
    }

    /// The supervised integrator.
    pub fn integrator(&self) -> &HermiteIntegrator<Grape6Engine> {
        &self.it
    }

    /// Mutable access (installing tracers, inspection).
    pub fn integrator_mut(&mut self) -> &mut HermiteIntegrator<Grape6Engine> {
        &mut self.it
    }

    /// Unwrap the integrator.
    pub fn into_integrator(self) -> HermiteIntegrator<Grape6Engine> {
        self.it
    }

    /// The most recent checkpoint.
    pub fn last_checkpoint(&self) -> Option<&Checkpoint> {
        self.last_ckpt.as_ref()
    }

    /// Advance virtual time by `dur`, record a recovery span, and add the
    /// cost to the run's recovery account.
    fn charge(&mut self, phase: Phase, dur: f64) {
        let t0 = self.it.engine().vt();
        let t1 = t0 + dur;
        self.it.engine_mut().set_vt(t1);
        self.it
            .engine_mut()
            .tracer_mut()
            .record(Span::new(phase, t0, t1));
        self.it.stats_mut().recovery.recovery_seconds += dur;
    }

    /// Take a checkpoint now.  The cost is charged *before* capture, so a
    /// run restored from this checkpoint continues from exactly the
    /// virtual time and statistics the original run had — cadence and all
    /// subsequent checkpoints land identically.
    pub fn checkpoint_now(&mut self) -> &Checkpoint {
        let n = self.it.particles().n();
        self.it.stats_mut().recovery.checkpoints_taken += 1;
        self.charge(Phase::Ckpt, self.cfg.timing.checkpoint_time(n));
        let ckpt = capture(&self.it, &self.cfg.label);
        if let Some(path) = &self.cfg.save_path {
            // The save is atomic, so a process killed mid-write never
            // leaves a torn file at the canonical name; persistence
            // failures degrade to in-memory checkpoints (warned, not
            // fatal — the run itself is still healthy).
            if let Err(e) = ckpt.save(path) {
                eprintln!("warning: could not persist checkpoint to {path:?}: {e}");
            }
        }
        self.last_ckpt_blockstep = ckpt.blockstep;
        self.last_ckpt_vt = self.it.engine().vt();
        self.last_ckpt.insert(ckpt)
    }

    /// Take a checkpoint if the policy says one is due.
    fn maybe_checkpoint(&mut self) {
        let due_steps =
            self.cfg.policy.every_blocksteps.is_some_and(|k| {
                k > 0 && self.it.stats().blocksteps >= self.last_ckpt_blockstep + k
            });
        let due_vt = self
            .cfg
            .policy
            .every_virtual_seconds
            .is_some_and(|s| self.it.engine().vt() >= self.last_ckpt_vt + s);
        if due_steps || due_vt {
            self.checkpoint_now();
        }
    }

    /// Rung 2: re-run the known-answer self-test, mask failures,
    /// redistribute if anything new was masked.
    ///
    /// Public as an operator control: "prove the hardware now" is useful
    /// outside the ladder (after an environmental event, before a long
    /// unattended stretch).  The cost is charged like any other recovery.
    pub fn reselftest(&mut self) -> Result<(), SupervisorError> {
        let n = self.it.particles().n();
        let newly_masked = self.it.engine_mut().re_self_test()?;
        self.charge(Phase::Selftest, self.cfg.timing.selftest_time());
        if newly_masked > 0 {
            self.charge(Phase::Reload, self.cfg.timing.reload_time(n));
        }
        self.it.stats_mut().recovery.reselftests += 1;
        Ok(())
    }

    /// Rung 3: explicit mirror-based j-redistribution (also an operator
    /// control — rebalance after masking without waiting for a failure).
    pub fn redistribute(&mut self) -> Result<(), SupervisorError> {
        let n = self.it.particles().n();
        self.it.engine_mut().redistribute()?;
        self.charge(Phase::Reload, self.cfg.timing.reload_time(n));
        self.it.stats_mut().recovery.redistributions += 1;
        Ok(())
    }

    /// Rung 4: rewind to the last checkpoint (also an operator control).
    pub fn restore_last(&mut self) -> Result<(), SupervisorError> {
        let ckpt = self
            .last_ckpt
            .clone()
            .ok_or_else(|| SupervisorError::Unrecoverable {
                detail: "no checkpoint to restore from".into(),
            })?;
        let icfg = *self.it.config();
        let n = ckpt.integrator.n;
        let mut it = restore(&self.cfg.machine, self.cfg.plan.as_ref(), icfg, &ckpt)?;
        std::mem::swap(&mut self.it, &mut it);
        // Cadence bookkeeping rewinds with the run.
        self.last_ckpt_blockstep = ckpt.blockstep;
        self.it.stats_mut().recovery.restores += 1;
        self.charge(Phase::Ckpt, self.cfg.timing.restore_time(n));
        self.last_ckpt_vt = self.it.engine().vt();
        Ok(())
    }

    /// One supervised blockstep: checkpoint if due, step (honouring
    /// [`IntegratorConfig::overlap`](crate::IntegratorConfig::overlap) —
    /// both schedules leave the particle state untouched on `Err`), and
    /// climb the ladder on failure.
    pub fn step(&mut self) -> Result<(f64, usize), SupervisorError> {
        self.maybe_checkpoint();
        let mut rung = 0u32;
        loop {
            match self.it.try_step() {
                Ok((t, n_b)) => {
                    if self.it.particles().validate_finite() {
                        return Ok((t, n_b));
                    }
                    // A non-finite value slipped past the engine's sanity
                    // screen: the particle state is corrupt, so a retry
                    // cannot help.  Prove the hardware, then rewind.
                    self.reselftest()?;
                    self.restore_last()?;
                }
                Err(e) => match rung {
                    // Rung 1: plain recompute.  The engine's bounded
                    // internal retries have already absorbed transients;
                    // this catches one-shot scheduling faults.
                    0 => self.it.stats_mut().recovery.step_retries += 1,
                    1 => self.reselftest()?,
                    2 => self.redistribute()?,
                    3 => self.restore_last()?,
                    _ => {
                        return Err(SupervisorError::Unrecoverable {
                            detail: e.to_string(),
                        })
                    }
                },
            }
            rung += 1;
            if rung > self.cfg.max_ladder_rounds {
                return Err(SupervisorError::Unrecoverable {
                    detail: "recovery rounds exhausted".into(),
                });
            }
        }
    }

    /// Run until system time reaches `t_end`, supervising every step.
    pub fn run_until(&mut self, t_end: f64) -> Result<(), SupervisorError> {
        while self.it.time() < t_end {
            self.step()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrator::IntegratorConfig;
    use nbody_core::ic::plummer::plummer_model;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn supervised(n: usize, seed: u64, policy: CheckpointPolicy) -> RunSupervisor {
        let set = plummer_model(n, &mut StdRng::seed_from_u64(seed));
        let machine = MachineConfig::test_small();
        let engine = Grape6Engine::try_new(&machine, n).unwrap();
        let it = HermiteIntegrator::new(engine, set, IntegratorConfig::default());
        let mut cfg = SupervisorConfig::for_machine(machine);
        cfg.policy = policy;
        RunSupervisor::new(it, cfg)
    }

    #[test]
    fn healthy_run_matches_unsupervised_bits() {
        let n = 32;
        let set = plummer_model(n, &mut StdRng::seed_from_u64(21));
        let mut plain = HermiteIntegrator::new(
            Grape6Engine::try_new(&MachineConfig::test_small(), n).unwrap(),
            set,
            IntegratorConfig::default(),
        );
        let mut sup = supervised(n, 21, CheckpointPolicy::default());
        for _ in 0..40 {
            plain.step();
            sup.step().unwrap();
        }
        let (a, b) = (plain.particles(), sup.integrator().particles());
        for i in 0..n {
            assert_eq!(a.pos[i], b.pos[i]);
            assert_eq!(a.vel[i], b.vel[i]);
        }
    }

    #[test]
    fn blockstep_policy_takes_checkpoints() {
        let mut sup = supervised(
            24,
            22,
            CheckpointPolicy {
                every_blocksteps: Some(8),
                every_virtual_seconds: None,
            },
        );
        for _ in 0..40 {
            sup.step().unwrap();
        }
        let taken = sup.integrator().stats().recovery.checkpoints_taken;
        // Baseline + one per 8 blocksteps (cadence checked before steps).
        assert!(taken >= 5, "only {taken} checkpoints over 40 blocksteps");
        assert!(sup.integrator().stats().recovery.recovery_seconds > 0.0);
        assert!(sup.last_checkpoint().is_some());
    }

    #[test]
    fn virtual_time_policy_takes_checkpoints() {
        let mut sup = supervised(
            24,
            23,
            CheckpointPolicy {
                every_blocksteps: None,
                every_virtual_seconds: Some(0.0),
            },
        );
        // Engine vt only moves when a timebase is installed; with the
        // threshold at 0 the policy fires on every step regardless.
        for _ in 0..5 {
            sup.step().unwrap();
        }
        assert!(sup.integrator().stats().recovery.checkpoints_taken >= 5);
    }

    #[test]
    fn save_path_persists_checkpoints_a_killed_process_can_restore() {
        let path = std::env::temp_dir().join(format!("g6-sup-ckpt-{}.ckpt", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let n = 24;
        let set = plummer_model(n, &mut StdRng::seed_from_u64(25));
        let machine = MachineConfig::test_small();
        let engine = Grape6Engine::try_new(&machine, n).unwrap();
        let it = HermiteIntegrator::new(engine, set, IntegratorConfig::default());
        let mut cfg = SupervisorConfig::for_machine(machine);
        cfg.policy = CheckpointPolicy {
            every_blocksteps: Some(4),
            every_virtual_seconds: None,
        };
        cfg.save_path = Some(path.clone());
        let mut sup = RunSupervisor::new(it, cfg);
        for _ in 0..10 {
            sup.step().unwrap();
        }
        // The canonical file always holds the *latest* checkpoint, byte
        // for byte, and the save's temporary file (`.<name>.tmp` beside
        // it) is not left behind.
        let loaded = Checkpoint::load(&path).expect("persisted checkpoint loads");
        assert_eq!(loaded.to_bytes(), sup.last_checkpoint().unwrap().to_bytes());
        let name = path.file_name().unwrap().to_string_lossy();
        assert!(!path.with_file_name(format!(".{name}.tmp")).exists());
        // ...and it restores into a working integrator even after every
        // live object is gone — the killed-process path.
        drop(sup);
        let mut it2 = restore(
            &MachineConfig::test_small(),
            None,
            IntegratorConfig::default(),
            &loaded,
        )
        .expect("restore from disk");
        it2.step();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn explicit_restore_rewinds_to_checkpoint() {
        let mut sup = supervised(24, 24, CheckpointPolicy::default());
        for _ in 0..10 {
            sup.step().unwrap();
        }
        let t_ckpt = sup.checkpoint_now().blockstep;
        for _ in 0..7 {
            sup.step().unwrap();
        }
        sup.restore_last().unwrap();
        assert_eq!(sup.integrator().stats().blocksteps, t_ckpt);
        assert_eq!(sup.integrator().stats().recovery.restores, 1);
        // The rewound run steps forward again without issue.
        sup.step().unwrap();
    }
}
