//! `host_n1024` and `host_tree_n256`: block-timestep Hermite integration
//! of a Plummer model on the simulated machine, one process, one thread.
//!
//! op = particle step.  The realizations advance round robin, each across
//! its next multiple of `HostCfg::slice` in simulated time (a few dozen
//! `try_step_auto` blocksteps), and the window closes after the first
//! round that brings the particle-step count to the run's op count, so for
//! a seed every commit integrates the same stretch of model time.
//!
//! A *call*, the unit of the latency percentiles, is
//! `HostCfg::call_psteps` consecutive particle steps, whichever blocksteps
//! and realizations they fall in.  Neither a blockstep nor a slice will
//! do: blocksteps range over three decades with the block size, and the
//! work in a slice follows the block-time hierarchy (every second slice
//! also steps the particles on twice the timestep, and so on), so the
//! percentiles of either say more about how the seed's particles spread
//! over the timestep levels than about the program.

use std::time::Instant;

use grape6_core::{Grape6Engine, HermiteIntegrator, IntegratorConfig, KernelMode};
use grape6_farm::particles_digest;
use grape6_fault::FaultPlan;
use grape6_system::MachineConfig;
use nbody_core::diagnostics::{energy, relative_energy_error};
use nbody_core::force::ForceEngine;
use nbody_core::ic::plummer::plummer_model;
use nbody_core::ParticleSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::SimStats;
use crate::harness::{self, Ctx, Measured, Outcome, Window};
use crate::spans::Recorder;
use crate::timed::{Call, TimedEngine};

/// Shape of one host workload.
pub struct HostCfg {
    pub name: &'static str,
    pub n: usize,
    pub machine: MachineConfig,
    /// Blocksteps every realization runs in set-up before timing starts.
    /// The scalar-kernel, serial-walk reference re-executes realization
    /// 0's and must land on the same bits.
    pub warmup: u64,
    /// Bound on |ΔE/E| at the end of the run.
    pub max_energy_err: f64,
    /// Independent Plummer realizations integrated side by side, slice by
    /// slice.  A single small-N realization's block-size distribution (and
    /// with it the cost per particle step) varies by several percent from
    /// one seed to the next; the mean over a few does not.
    pub realizations: usize,
    /// Simulated time a realization advances before the next one's turn:
    /// to its next multiple of this.
    pub slice: f64,
    /// Particle steps per latency sample.  A sample closes with the
    /// blockstep that reaches the count and is scaled to the count exactly.
    pub call_psteps: u64,
}

/// N=1024 on 1 board × 2 modules × 2 chips: 256 j per chip.
pub fn n1024() -> HostCfg {
    HostCfg {
        name: "host_n1024",
        n: 1024,
        machine: MachineConfig::test_small(),
        warmup: 64,
        max_energy_err: 1e-5,
        realizations: 1,
        slice: 1.0 / 256.0,
        call_psteps: 1024,
    }
}

/// N=256 on the paper's full host geometry (4 × 8 × 4 = 128 chips, 2 j
/// per chip); j-memory cut to 64 slots per chip to keep it small.
pub fn tree_n256() -> HostCfg {
    HostCfg {
        name: "host_tree_n256",
        n: 256,
        machine: MachineConfig::builder()
            .jmem_capacity(64)
            .build()
            .expect("paper host geometry with a smaller j-memory"),
        warmup: 64,
        max_energy_err: 1e-5,
        realizations: 4,
        slice: 1.0 / 256.0,
        call_psteps: 512,
    }
}

/// An engine the harness can read simulated-machine counters from and,
/// when it is the timed wrapper, drain call intervals out of.
pub trait Instrumented: ForceEngine + Send {
    fn g6(&self) -> &Grape6Engine;
    /// Move the intervals queued since the last call into `rec` as
    /// children of span `parent`.
    fn flush(&mut self, _rec: &mut Recorder, _parent: u32, _op: u64) {}
    /// Drop the queued intervals (set-up traffic is not the window's).
    fn discard(&mut self) {}
}

impl Instrumented for Grape6Engine {
    fn g6(&self) -> &Grape6Engine {
        self
    }
}

impl Instrumented for TimedEngine<Grape6Engine> {
    fn g6(&self) -> &Grape6Engine {
        self.inner()
    }

    fn flush(&mut self, rec: &mut Recorder, parent: u32, op: u64) {
        for iv in self.drain() {
            let name = match iv.call {
                Call::Compute => "core.engine.compute",
                Call::JWrite => "core.engine.jwrite",
            };
            rec.add_closed(name, "core", op, Some(parent), iv.start_ns, iv.end_ns);
        }
    }

    fn discard(&mut self) {
        self.drain().for_each(drop);
    }
}

/// Particle bits and simulated-machine statistics at one point of a run.
#[derive(Clone, Debug, PartialEq)]
pub struct Snap {
    pub digest: u64,
    pub sim: SimStats,
}

fn snap<E: Instrumented>(it: &HermiteIntegrator<E>) -> Snap {
    Snap {
        digest: particles_digest(it.particles()),
        sim: SimStats::read(
            it.engine().g6(),
            it.stats().blocksteps,
            it.stats().particle_steps,
        ),
    }
}

/// Seed of realization `r`: distinct for every (seed, r).
fn realization_seed(cfg: &HostCfg, seed: u64, r: usize) -> u64 {
    seed.wrapping_mul(cfg.realizations as u64)
        .wrapping_add(r as u64)
}

/// Initial conditions: the only thing the program under test receives.
pub fn initial_conditions(cfg: &HostCfg, seed: u64) -> ParticleSet {
    plummer_model(cfg.n, &mut StdRng::seed_from_u64(seed))
}

/// Machine build with power-on self-test, j-load and initial force pass.
/// `reference` selects the scalar oracle kernel and the serial board walk.
pub fn build<E: Instrumented>(
    cfg: &HostCfg,
    seed: u64,
    reference: bool,
    wrap: &impl Fn(Grape6Engine) -> E,
) -> HermiteIntegrator<E> {
    let set = initial_conditions(cfg, seed);
    let mut engine = Grape6Engine::with_fault_plan(&cfg.machine, cfg.n, &FaultPlan::none())
        .expect("a healthy machine holds the workload");
    if reference {
        engine.set_kernel_mode(KernelMode::Scalar);
        engine.set_board_parallel(false);
    }
    HermiteIntegrator::try_new(wrap(engine), set, IntegratorConfig::default())
        .expect("initial force pass on healthy hardware")
}

/// Everything one timed window yields.
pub struct HostRun {
    pub m: Measured,
    /// Realization 0 when its warm-up ended and when the window closed.
    pub after_warmup: Snap,
    pub at_end: Snap,
    /// Every realization, synchronised, when the window closed.
    pub final_states: Vec<ParticleSet>,
    /// Simulated time the realizations advanced in the window, summed.
    pub sim_time: f64,
    /// Engine counters over the timed window only.
    pub window_interactions: u64,
    /// Exponent retries per engine pass (≤ 48 i each, retries included)
    /// of realization 0 over the window.
    pub retry_frac: f64,
}

impl AsRef<Measured> for HostRun {
    fn as_ref(&self) -> &Measured {
        &self.m
    }
}

/// Set up (`setups` times), then advance the realizations slice by slice,
/// round robin, until they have completed `ops` particle steps.  Every
/// blockstep is one throughput sample, every `cfg.call_psteps` particle
/// steps one latency sample; with `rec`, every blockstep is a span.
pub fn measure<E: Instrumented>(
    cfg: &HostCfg,
    seed: u64,
    ops: u64,
    setups: usize,
    wrap: impl Fn(Grape6Engine) -> E,
    mut rec: Option<&mut Recorder>,
) -> HostRun {
    let (mut its, setup_s) = harness::repeated_setup(
        setups,
        |_| {
            (0..cfg.realizations)
                .map(|r| build(cfg, realization_seed(cfg, seed, r), false, &wrap))
                .collect::<Vec<_>>()
        },
        |mut its| {
            for it in &mut its {
                for _ in 0..cfg.warmup {
                    it.try_step_auto().expect("warm-up blockstep");
                }
                it.engine_mut().discard();
            }
            its
        },
    );
    let after_warmup = snap(&its[0]);
    let mut window = Window::with_capacity(1 << 16);
    let mut failed = 0u64;
    let interactions_before: u64 = its.iter().map(|it| it.engine().g6().interactions()).sum();
    let sim_time_before: f64 = its.iter().map(HermiteIntegrator::time).sum();
    let retries_before = its[0].engine().g6().exponent_retries();
    let (mut done, mut passes) = (0u64, 0u64);
    // Wall and particle steps of the latency sample being collected.
    let (mut call_ns, mut call_ops) = (0.0, 0u64);
    let t_start = Instant::now();
    'window: while done < ops {
        for (r, it) in its.iter_mut().enumerate() {
            let slice_end = ((it.time() / cfg.slice).floor() + 1.0) * cfg.slice;
            while it.time() < slice_end {
                let op = it.stats().blocksteps;
                let span = rec
                    .as_deref_mut()
                    .map(|rec| rec.open("core.step", "core", op));
                let c0 = Instant::now();
                let step = it.try_step_auto();
                let c1 = Instant::now();
                if let (Some(rec), Some(id)) = (rec.as_deref_mut(), span) {
                    rec.close(id);
                    it.engine_mut().flush(rec, id, op);
                }
                let Ok((_, n_b)) = step else {
                    failed += 1;
                    break 'window;
                };
                let ns = (c1 - c0).as_nanos() as f64;
                window.push(ns, n_b as u64, (c1 - t_start).as_nanos() as f64);
                call_ns += ns;
                call_ops += n_b as u64;
                done += n_b as u64;
                if r == 0 {
                    passes += n_b.div_ceil(48) as u64;
                }
                if call_ops >= cfg.call_psteps {
                    window
                        .latency_ns
                        .push(call_ns * cfg.call_psteps as f64 / call_ops as f64);
                    (call_ns, call_ops) = (0.0, 0);
                }
            }
        }
    }
    window.wall_ns = t_start.elapsed().as_nanos() as f64;
    let retries = its[0].engine().g6().exponent_retries() - retries_before;
    HostRun {
        m: Measured {
            window,
            setup_s,
            failed,
        },
        after_warmup,
        at_end: snap(&its[0]),
        final_states: its
            .iter()
            .map(HermiteIntegrator::synchronized_snapshot)
            .collect(),
        sim_time: its.iter().map(HermiteIntegrator::time).sum::<f64>() - sim_time_before,
        window_interactions: its
            .iter()
            .map(|it| it.engine().g6().interactions())
            .sum::<u64>()
            - interactions_before,
        retry_frac: retries as f64 / (passes + retries).max(1) as f64,
    }
}

/// The scalar-kernel, serial-walk replay of realization 0's warm-up.
fn reference_snap(cfg: &HostCfg, seed: u64) -> Snap {
    let mut it = build(cfg, realization_seed(cfg, seed, 0), true, &|e| e);
    while it.stats().blocksteps < cfg.warmup {
        it.try_step_auto().expect("reference blockstep");
    }
    snap(&it)
}

/// Run the workload and fill in its metrics and output checks.
pub fn run(cfg: &HostCfg, ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (primary, rec) = harness::measure_as_asked(ctx, &mut out, |ops, setups, rec| match rec {
        None => measure(cfg, ctx.seed, ops, setups, |e| e, None),
        Some(rec) => {
            let epoch = rec.epoch();
            let wrap = |e| TimedEngine::new(e, epoch);
            measure(cfg, ctx.seed, ops, setups, wrap, Some(rec))
        }
    });

    // Output checks.
    let v0 = Instant::now();
    let reference = reference_snap(cfg, ctx.seed);
    out.check(
        format!(
            "first {} blocksteps match the scalar-kernel serial-walk replay bit for bit",
            cfg.warmup
        ),
        primary.after_warmup == reference,
    );
    let eps2 = IntegratorConfig::default().softening.epsilon2(cfg.n);
    let initial_energy = |r: usize| {
        energy(
            &initial_conditions(cfg, realization_seed(cfg, ctx.seed, r)),
            eps2,
        )
    };
    let final_err = primary
        .final_states
        .iter()
        .enumerate()
        .map(|(r, state)| relative_energy_error(&initial_energy(r), &energy(state, eps2)))
        .fold(0.0, f64::max);
    out.check(
        format!(
            "|dE/E| = {final_err:.3e} at the end of the run ({:.3} time units over {} \
             realization(s)) is below {:e}",
            primary.sim_time, cfg.realizations, cfg.max_energy_err
        ),
        final_err < cfg.max_energy_err && primary.final_states.len() == cfg.realizations,
    );
    // Read when the window closes, which for a seed and an op count is the
    // same blockstep on every commit.
    let end = &primary.at_end.sim;
    end.report(&mut out, &cfg.machine);
    out.set(
        "sim.energy_rel_err",
        relative_energy_error(&initial_energy(0), &energy(&primary.final_states[0], eps2)),
    );
    out.set("core.engine.compute_calls", end.blocksteps as f64);
    out.set("core.engine.jwrite_calls", end.particle_steps as f64);
    out.set("core.engine.retry_frac", primary.retry_frac);
    out.set("bench.verify_s", v0.elapsed().as_secs_f64());

    if let Some(rec) = rec {
        let psteps = primary.m.window.ops() as f64;
        let totals = rec.totals();
        let step = totals.get("core.step").copied().unwrap_or_default();
        let compute = totals
            .get("core.engine.compute")
            .copied()
            .unwrap_or_default();
        let jwrite = totals
            .get("core.engine.jwrite")
            .copied()
            .unwrap_or_default();
        let compute_ns = compute.total_ns as f64;
        let jwrite_ns = jwrite.total_ns as f64;
        let wall = primary.m.window.wall_ns;
        out.set("core.step.wall_share", step.total_ns as f64 / wall);
        out.set("core.host.self_wall_share", step.self_ns as f64 / wall);
        out.set("core.engine.compute_wall_share", compute_ns / wall);
        out.set("core.engine.jwrite_wall_share", jwrite_ns / wall);
        out.set("core.step.ns_per_pstep", step.total_ns as f64 / psteps);
        out.set("core.host.self_ns_per_pstep", step.self_ns as f64 / psteps);
        out.set("core.engine.compute_ns_per_pstep", compute_ns / psteps);
        out.set("core.engine.jwrite_ns_per_pstep", jwrite_ns / psteps);
        super::report_engine_rate(&mut out, primary.window_interactions, compute_ns);
        super::write_trace(ctx, cfg.name, &[("integrator", &rec)]);
    }
    out
}
