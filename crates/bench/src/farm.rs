//! The farm soak: a seeded multi-tenant scenario with oversubscription,
//! a board that flunks power-on self-test, and a board that dies
//! mid-run.
//!
//! Each seed builds a 3-board pool where board 1 powers on with a dead
//! module (it can never fit the 48-particle jobs and is rotated out on
//! first contact) and board 2 loses a module mid-run (the supervisor
//! ladder fails, the farm parks the session at its last checkpoint,
//! retires the board, and resumes elsewhere).  More jobs are submitted
//! than the admission ceiling allows, so the typed backpressure path
//! ([`FarmError::Saturated`], [`FarmError::QueueFull`]) fires on every
//! run.
//!
//! Invariants checked (violations → nonzero exit in `farm_soak`):
//!
//! * at least one `Saturated` (with a positive `retry_after`) and one
//!   `QueueFull` rejection;
//! * every admitted session completes — board failures stall nobody;
//! * boards rotate (≥ 2: the power-on failure and the mid-run death),
//!   sessions are evicted (≥ 1) and resumed (≥ 1);
//! * **every tenant's final particle state is bitwise identical to a
//!   dedicated single-tenant run on a healthy board** — multi-tenancy,
//!   eviction, migration and replay are invisible in the §3.4 force
//!   bits;
//! * the per-tenant span log splits cleanly into six-term breakdowns
//!   ([`grape6_trace::per_track`]) whose totals are positive.

use grape6_core::{Grape6Engine, HermiteIntegrator, IntegratorConfig};
use grape6_farm::{Farm, FarmConfig, FarmError, Job, SessionId, TenantSpec};
use grape6_fault::rng::mix;
use grape6_fault::FaultPlan;
use grape6_system::machine::MachineConfig;
use nbody_core::ic::plummer::plummer_model;
use nbody_core::particle::ParticleSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::chaos::bits_equal;

/// Scenario shape.  Defaults reproduce the acceptance scenario: more
/// tenants than board capacity plus two kinds of injected board fault.
#[derive(Clone, Debug)]
pub struct FarmSoakConfig {
    /// Tenants (weights cycle 1, 2, 3, …).
    pub tenants: usize,
    /// Jobs submitted per tenant (before the deliberate overflow ones).
    pub jobs_per_tenant: usize,
    /// Particles per job — 48 so a board missing one module (32 slots)
    /// cannot hold it.
    pub n: usize,
    /// Target time per job.
    pub t_end: f64,
    /// Pool size (board 1 gets the power-on fault, board 2 the mid-run
    /// death, when present).
    pub boards: usize,
    /// Per-tenant queue bound.
    pub queue_depth: usize,
    /// Farm-wide admission ceiling — below the total submitted so the
    /// saturation path always fires.
    pub max_live: usize,
    /// Blocksteps per scheduler grant.
    pub quantum: u64,
    /// Checkpoint cadence (blocksteps).
    pub ckpt_every: u64,
}

impl Default for FarmSoakConfig {
    fn default() -> Self {
        Self {
            tenants: 4,
            jobs_per_tenant: 2,
            n: 48,
            t_end: 0.125,
            boards: 3,
            queue_depth: 2,
            max_live: 5,
            quantum: 4,
            ckpt_every: 4,
        }
    }
}

/// What one seeded farm soak produced.
#[derive(Clone, Debug)]
pub struct FarmSoakOutcome {
    /// The seed.
    pub seed: u64,
    /// Jobs offered / admitted.
    pub submitted: u64,
    /// Sessions admitted.
    pub admitted: u64,
    /// Sessions completed.
    pub completed: u64,
    /// Typed rejections seen.
    pub rejected_saturated: u64,
    /// Per-tenant queue rejections seen.
    pub rejected_queue_full: u64,
    /// The `retry_after` hint from the first saturation rejection, in
    /// scheduler blocksteps (the in-process unit of [`grape6_farm::RetryAfter`]).
    pub retry_after_hint: u64,
    /// Checkpoint evictions.
    pub evictions: u64,
    /// Parked → resident resumes.
    pub resumes: u64,
    /// Boards pulled from rotation.
    pub board_rotations: u64,
    /// Sessions whose final bits matched their dedicated run.
    pub bitwise_ok: u64,
    /// Every invariant breach, human-readable.
    pub violations: Vec<String>,
}

impl FarmSoakOutcome {
    /// All invariants held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The one-board unit every scenario uses: 2 modules × 2 chips × 16
/// j-slots = 64 particle slots; losing a module leaves 32.
pub fn soak_unit() -> MachineConfig {
    MachineConfig::builder()
        .boards(1)
        .modules_per_board(2)
        .chips_per_module(2)
        .jmem_capacity(16)
        .build()
        .expect("soak unit geometry is valid")
}

fn ic(n: usize, seed: u64) -> ParticleSet {
    plummer_model(n, &mut StdRng::seed_from_u64(seed))
}

/// The reference a farm session must match bitwise: the same initial
/// conditions on a dedicated, healthy, uninterrupted board.
fn dedicated(machine: &MachineConfig, n: usize, ic_seed: u64, t_end: f64) -> ParticleSet {
    let engine = Grape6Engine::try_new(machine, n).expect("healthy board fits the job");
    let mut it = HermiteIntegrator::new(engine, ic(n, ic_seed), IntegratorConfig::default());
    it.run_until(t_end);
    it.particles().clone()
}

/// Run one complete seeded farm soak.
pub fn farm_soak_run(seed: u64, cfg: &FarmSoakConfig) -> FarmSoakOutcome {
    let mut violations: Vec<String> = Vec::new();
    let machine = soak_unit();

    // Board 1 powers on broken; board 2 dies mid-run at a seed-derived
    // pass so different seeds hit different phases of the integration.
    let mut plans: Vec<Option<FaultPlan>> = vec![None; cfg.boards];
    if cfg.boards > 1 {
        plans[1] = Some(FaultPlan::none().with_dead_module(0, 0));
    }
    if cfg.boards > 2 {
        // Low pass count so the death fires during the victim session's
        // first resident stint (migrated sessions do not re-arm board
        // deaths — restore_migrate leaves faults with the board).
        let at_pass = 3 + mix(seed, 0xb0a2d, 0, 0, 0) % 3;
        plans[2] = Some(FaultPlan::none().with_midrun_death(vec![0, 1], at_pass));
    }

    let fcfg = FarmConfig::builder(machine)
        .boards(cfg.boards)
        .board_plans(plans)
        .queue_depth(cfg.queue_depth)
        .max_live_sessions(cfg.max_live)
        .quantum(cfg.quantum)
        .ckpt_every(cfg.ckpt_every)
        .build()
        .expect("soak config is valid");
    let mut farm = Farm::open(fcfg).expect("soak config is valid");

    let tenants: Vec<_> = (0..cfg.tenants)
        .map(|t| {
            farm.register(TenantSpec::new(1 + (t as u32 % 3)))
                .expect("soak tenant spec is valid")
        })
        .collect();

    // Submit round-robin so saturation lands across tenants, remembering
    // each admitted session's IC seed for the dedicated replay.
    let mut admitted: Vec<(SessionId, u64)> = Vec::new();
    let mut retry_after_hint = 0u64;
    for j in 0..cfg.jobs_per_tenant {
        for (t, &tid) in tenants.iter().enumerate() {
            let ic_seed = mix(seed, t as u64, j as u64, 0xfa52, 1);
            let job = Job::builder(ic(cfg.n, ic_seed))
                .t_end(cfg.t_end)
                .label(format!("soak t{t} j{j}"))
                .build()
                .expect("soak jobs are valid");
            match farm.submit(tid, job) {
                Ok(sid) => admitted.push((sid, ic_seed)),
                Err(FarmError::Saturated { retry_after }) => {
                    if !retry_after.is_positive() {
                        violations.push(format!("saturated with non-positive hint {retry_after}"));
                    }
                    if retry_after_hint == 0 {
                        retry_after_hint = retry_after.blocksteps().unwrap_or(0);
                    }
                }
                Err(FarmError::QueueFull { .. }) => {}
                Err(e) => violations.push(format!("unexpected rejection: {e}")),
            }
        }
    }
    // One deliberate overflow against tenant 0's bounded queue.
    let overflow = Job::builder(ic(cfg.n, mix(seed, 0, 0, 0xfa52, 2)))
        .t_end(cfg.t_end)
        .label("soak overflow")
        .build()
        .expect("soak jobs are valid");
    match farm.submit(tenants[0], overflow) {
        Err(FarmError::QueueFull { .. }) | Err(FarmError::Saturated { .. }) => {}
        Ok(sid) => admitted.push((sid, mix(seed, 0, 0, 0xfa52, 2))),
        Err(e) => violations.push(format!("overflow submit: unexpected {e}")),
    }

    let report = match farm.run() {
        Ok(r) => r,
        Err(e) => {
            violations.push(format!("farm run failed: {e}"));
            return summarize(seed, farm.stats().clone(), retry_after_hint, 0, violations);
        }
    };

    // Every admitted session completed, bitwise equal to dedicated.
    // `take_result` is the one claim path for both the in-process and
    // wire frontends; it hands each outcome over exactly once.
    let mut bitwise_ok = 0u64;
    for (sid, ic_seed) in &admitted {
        match farm.take_result(*sid) {
            Ok(res) => {
                if bits_equal(
                    &res.particles,
                    &dedicated(&machine, cfg.n, *ic_seed, cfg.t_end),
                ) {
                    bitwise_ok += 1;
                } else {
                    violations.push(format!("session {sid}: bits diverge from dedicated run"));
                }
            }
            Err(e) => violations.push(format!("session {sid}: did not complete ({e})")),
        }
    }
    if report.stats.completed != report.stats.admitted {
        violations.push(format!(
            "completed {} != admitted {}",
            report.stats.completed, report.stats.admitted
        ));
    }
    if report.stats.rejected_saturated == 0 {
        violations.push("no Saturated rejection despite oversubscription".into());
    }
    if report.stats.rejected_queue_full == 0 {
        violations.push("no QueueFull rejection despite queue overflow".into());
    }
    if cfg.boards > 2 && report.stats.board_rotations < 2 {
        violations.push(format!(
            "expected >= 2 board rotations, saw {}",
            report.stats.board_rotations
        ));
    }
    if report.stats.evictions == 0 {
        violations.push("no evictions despite more sessions than boards".into());
    }
    if report.stats.resumes == 0 {
        violations.push("no resumes despite evictions/rotations".into());
    }

    // Per-tenant six-term breakdowns out of the tenant-tagged span log.
    let folded = grape6_trace::per_track(farm.spans());
    let tenants_traced = folded.iter().filter(|(_, b)| b.total() > 0.0).count();
    let granted = report.tenants.values().filter(|t| t.grants > 0).count();
    if tenants_traced < granted {
        violations.push(format!(
            "only {tenants_traced} tenants traced, {granted} got grants"
        ));
    }

    summarize(seed, report.stats, retry_after_hint, bitwise_ok, violations)
}

fn summarize(
    seed: u64,
    stats: grape6_farm::FarmStats,
    retry_after_hint: u64,
    bitwise_ok: u64,
    violations: Vec<String>,
) -> FarmSoakOutcome {
    FarmSoakOutcome {
        seed,
        submitted: stats.submitted,
        admitted: stats.admitted,
        completed: stats.completed,
        rejected_saturated: stats.rejected_saturated,
        rejected_queue_full: stats.rejected_queue_full,
        retry_after_hint,
        evictions: stats.evictions,
        resumes: stats.resumes,
        board_rotations: stats.board_rotations,
        bitwise_ok,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down soak that still exercises every path: rejections,
    /// evictions, resumes, both board faults, bitwise identity.
    #[test]
    fn small_soak_holds_every_invariant() {
        let cfg = FarmSoakConfig {
            tenants: 3,
            jobs_per_tenant: 2,
            t_end: 0.0625,
            max_live: 4,
            queue_depth: 2,
            ..FarmSoakConfig::default()
        };
        let out = farm_soak_run(7, &cfg);
        assert!(out.ok(), "violations: {:#?}", out.violations);
        assert_eq!(out.bitwise_ok, out.admitted);
        assert!(out.rejected_saturated >= 1);
        assert!(out.rejected_queue_full >= 1);
    }
}
