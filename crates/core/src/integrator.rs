//! The individual block-timestep Hermite integrator.
//!
//! This is the frontend program of the paper's benchmarks: "As the
//! benchmark run, we integrated the Plummer model with equal-mass particles
//! for 1 time unit … We used standard Hermite integrator" (§4).  One
//! blockstep:
//!
//! 1. the next block time is `min(tᵢ + dtᵢ)` and the block is every
//!    particle whose next time equals it;
//! 2. the host predicts the block's positions/velocities (jerk-truncated)
//!    and ships them to the engine; the engine predicts the j-particles
//!    itself (on-chip predictor pipeline) and returns force, jerk,
//!    potential;
//! 3. the host corrects (4th/5th order), picks the next Aarseth step on
//!    the power-of-two grid, and writes the updated particles back to the
//!    engine's j-memory.
//!
//! The driver is generic over [`ForceEngine`], so the *same code* runs on
//! the bit-level GRAPE-6 simulator, the f64 reference engine, and inside
//! each rank of the parallel algorithms — mirroring how the real host code
//! ran unchanged on GRAPE-4 and GRAPE-6.

use grape6_trace::{HostRates, Phase, Span, SpanCounters, Tracer};
use nbody_core::blockstep::TimeGrid;
use nbody_core::force::{EngineError, ForceEngine, ForceResult, IParticle, JParticle};
use nbody_core::hermite::{aarseth_dt, correct, predict, startup_dt, Corrected, HermiteState};
use nbody_core::particle::ParticleSet;
use nbody_core::softening::Softening;
use nbody_core::Vec3;

use crate::stats::RunStats;

/// Accuracy and scheduling parameters.
#[derive(Clone, Copy, Debug)]
pub struct IntegratorConfig {
    /// Aarseth accuracy parameter η.
    pub eta: f64,
    /// Startup accuracy parameter (conservative first step).
    pub eta_start: f64,
    /// Softening policy.
    pub softening: Softening,
    /// Block timestep grid.
    pub grid: TimeGrid,
    /// Corrector iterations per step — P(EC)ⁿ.  1 is the standard Hermite
    /// PEC cycle the paper's benchmarks use; 2 re-evaluates the force at
    /// the corrected state and re-corrects, converging towards the
    /// implicit (time-symmetric) Hermite solution at the price of one
    /// extra GRAPE call per step.
    pub pec_iterations: usize,
    /// Lay the blockstep out split-phase in virtual time — the
    /// `g6calc_firsthalf` / `g6calc_lasthalf` overlap of the real host
    /// library, as a virtual-time schedule run on the caller: the block
    /// goes to the engine in `I_PARALLELISM`-wide chunks, and each chunk's
    /// share of the corrector work is charged from the start of the next
    /// chunk's pass, so the traced wall pays `max(host, grape)` per pass
    /// instead of the sum.  Forces, corrections and j-writes are the
    /// blocking schedule's, bit for bit (§3.4 block-FP reduction); only
    /// the span layout moves.  Every blockstep entry point honours it.
    pub overlap: bool,
}

impl Default for IntegratorConfig {
    fn default() -> Self {
        Self {
            eta: 0.01,
            eta_start: 0.0025,
            softening: Softening::Constant,
            grid: TimeGrid::default(),
            pec_iterations: 1,
            overlap: false,
        }
    }
}

/// The block-timestep Hermite driver.
pub struct HermiteIntegrator<E: ForceEngine> {
    engine: E,
    set: ParticleSet,
    cfg: IntegratorConfig,
    eps: f64,
    eps2: f64,
    t: f64,
    stats: RunStats,
    // Reused scratch buffers (no allocation in the block loop).
    block: Vec<usize>,
    iparts: Vec<IParticle>,
    forces: Vec<ForceResult>,
    // Host-phase span recording (disabled by default).
    tracer: Tracer,
    host_rates: Option<HostRates>,
}

impl<E: ForceEngine> HermiteIntegrator<E> {
    /// Initialise: load every particle into the engine, evaluate initial
    /// forces and jerks, assign startup timesteps.
    pub fn new(engine: E, set: ParticleSet, cfg: IntegratorConfig) -> Self {
        match Self::try_new(engine, set, cfg) {
            Ok(it) => it,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible twin of [`HermiteIntegrator::new`]: a bad particle (outside
    /// the engine's coordinate box) or an engine failure during the initial
    /// force evaluation comes back as a typed [`EngineError`] instead of a
    /// panic — what a multi-tenant host needs when activating a job it did
    /// not author.
    pub fn try_new(
        mut engine: E,
        mut set: ParticleSet,
        cfg: IntegratorConfig,
    ) -> Result<Self, EngineError> {
        let n = set.n();
        assert!(n >= 2, "need at least two particles");
        let eps = cfg.softening.epsilon(n);
        let eps2 = eps * eps;
        for i in 0..n {
            set.t[i] = 0.0;
            engine.try_set_j_particle(i, &j_of(&set, i))?;
        }
        engine.set_time(0.0);
        let iparts: Vec<IParticle> = (0..n)
            .map(|i| IParticle {
                pos: set.pos[i],
                vel: set.vel[i],
                eps2,
            })
            .collect();
        let mut forces = vec![ForceResult::default(); n];
        engine.try_compute(&iparts, &mut forces)?;
        for (i, force) in forces.iter().enumerate() {
            let f = corrected_pot(force, set.mass[i], eps);
            set.acc[i] = f.acc;
            set.jerk[i] = f.jerk;
            set.pot[i] = f.pot;
            set.snap[i] = Vec3::ZERO;
            set.crackle[i] = Vec3::ZERO;
            let dt = cfg.grid.quantize(startup_dt(f.acc, f.jerk, cfg.eta_start));
            set.dt[i] = dt;
        }
        // Write the now-complete polynomials back so the on-engine
        // predictor starts from (x, v, a, ȧ).
        for i in 0..n {
            engine.set_j_particle(i, &j_of(&set, i));
        }
        let mut stats = RunStats::new();
        stats.faults = engine.fault_counters();
        Ok(Self {
            engine,
            set,
            cfg,
            eps,
            eps2,
            t: 0.0,
            stats,
            block: Vec::new(),
            iparts: Vec::new(),
            forces: Vec::new(),
            tracer: Tracer::disabled(),
            host_rates: None,
        })
    }

    /// Rebuild an integrator around previously-integrated state without
    /// the initial force evaluation: every particle (with its complete
    /// force polynomial and per-particle `t`/`dt`) is loaded into the
    /// engine as-is.  This is the checkpoint-restore constructor — the
    /// state must come from a run of the same configuration, captured at
    /// system time `t`.
    pub fn resume(
        mut engine: E,
        set: ParticleSet,
        cfg: IntegratorConfig,
        t: f64,
        stats: RunStats,
    ) -> Self {
        let n = set.n();
        assert!(n >= 2, "need at least two particles");
        let eps = cfg.softening.epsilon(n);
        let eps2 = eps * eps;
        for i in 0..n {
            engine.set_j_particle(i, &j_of(&set, i));
        }
        engine.set_time(t);
        Self {
            engine,
            set,
            cfg,
            eps,
            eps2,
            t,
            stats,
            block: Vec::new(),
            iparts: Vec::new(),
            forces: Vec::new(),
            tracer: Tracer::disabled(),
            host_rates: None,
        }
    }

    /// Current system time.
    pub fn time(&self) -> f64 {
        self.t
    }

    /// The particle state (positions/velocities valid at each particle's
    /// own time `t[i]`).
    pub fn particles(&self) -> &ParticleSet {
        &self.set
    }

    /// The engine (for counters).
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Mutable engine access (installing an engine-side tracer/timebase).
    pub fn engine_mut(&mut self) -> &mut E {
        &mut self.engine
    }

    /// Install a span sink for the host phases of the blockstep loop.
    /// Initialisation (construction) is never traced — install the tracer
    /// after `new` so spans cover steady-state blocksteps only.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Calibrated host rates converting block sizes into host-phase
    /// virtual seconds.  Host spans are only recorded once this is set.
    pub fn set_host_rates(&mut self, rates: HostRates) {
        self.host_rates = Some(rates);
    }

    /// Drain every span recorded so far: the integrator's host phases
    /// merged with the engine's hardware phases, ordered by start time.
    pub fn take_spans(&mut self) -> Vec<Span> {
        let mut spans = self.tracer.take();
        spans.extend(self.engine.take_spans());
        spans.sort_by(|a, b| a.t0.total_cmp(&b.t0));
        spans
    }

    /// Record a host-phase span starting at `t0` on the shared
    /// virtual-time cursor (the engine's, so host and hardware spans
    /// interleave on one timeline) and advance the cursor to its end,
    /// unless the cursor is already past it.
    fn trace_host(&mut self, phase: Phase, t0: f64, dur: f64, items: u64) {
        if !self.tracer.is_active() {
            return;
        }
        let t1 = t0 + dur;
        self.tracer.record(Span {
            phase,
            t0,
            t1,
            track: 0,
            counters: SpanCounters {
                items,
                ..Default::default()
            },
        });
        let vt = self.engine.vt();
        self.engine.set_vt(vt.max(t1));
    }

    /// Run statistics so far.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Mutable run statistics (the supervisor charges recovery work here).
    pub fn stats_mut(&mut self) -> &mut RunStats {
        &mut self.stats
    }

    /// The accuracy/scheduling configuration in force.
    pub fn config(&self) -> &IntegratorConfig {
        &self.cfg
    }

    /// Softening length in use.
    pub fn epsilon(&self) -> f64 {
        self.eps
    }

    /// Execute one blockstep; returns the new system time and the block
    /// size.  Panics on an unrecovered engine error —
    /// [`HermiteIntegrator::try_step`] is the typed-error twin.
    pub fn step(&mut self) -> (f64, usize) {
        match self.try_step() {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible blockstep, on the schedule [`IntegratorConfig::overlap`]
    /// names.
    ///
    /// One body serves both schedules.  The block goes to the engine in
    /// chunks — `I_PARALLELISM` wide when overlapped, the whole block
    /// otherwise — so the engine cuts the same 48-wide hardware passes
    /// either way.  Overlap is a virtual-time layout, not a thread: each
    /// chunk's share of the corrector work is charged from the start of
    /// the next chunk's pass, and only the last chunk's share trails the
    /// block.  Forces, corrections and the order of j-writes do not
    /// depend on the schedule.
    ///
    /// On `Err` the particle state is untouched — corrections happen only
    /// after every force evaluation has succeeded, and the only engine
    /// mutation so far is `set_time` (re-issued on the next attempt) — so
    /// a supervisor can retry the step after repairing the engine.
    pub fn try_step(&mut self) -> Result<(f64, usize), EngineError> {
        self.try_step_shared(|_| true, |_, _| Ok(()))
    }

    /// [`HermiteIntegrator::try_step`] for one of several full copies (the
    /// copy algorithm's ranks, §3.2): correct only the entries `owns`
    /// accepts; `exchange` gets them listed in `block` and must leave every
    /// copy's entries in `set` and `block` before the j-memory writeback.
    pub fn try_step_shared<X: From<EngineError>>(
        &mut self,
        owns: impl Fn(usize) -> bool,
        exchange: impl FnOnce(&mut ParticleSet, &mut Vec<usize>) -> Result<(), X>,
    ) -> Result<(f64, usize), X> {
        let t_next = self.select_and_predict(owns);
        let n_b = self.block.len();
        let passes = self.cfg.pec_iterations.max(1);
        // P(EC)ⁿ with n > 1 re-evaluates the force at the corrected state,
        // so no host work can hide behind a pass: the block goes at once.
        // (A sharing caller may own none of the block.)
        let width = if self.cfg.overlap && passes == 1 {
            grape6_system::unit::I_PARALLELISM
        } else {
            n_b.max(1)
        };
        // 3. Engine force evaluation at the block time.
        self.engine.set_time(t_next);
        self.forces.resize(n_b, ForceResult::default());
        let mut refined: Vec<IParticle> = Vec::new();
        let mut tail = n_b;
        for pass in 0..passes {
            if pass > 0 {
                // 3b. Extra corrector passes (P(EC)ⁿ): evaluate the force
                // at the corrected state and re-correct from the same
                // prediction.
                refined = (0..n_b)
                    .map(|k| {
                        let (_, c) = self.corrected(k, t_next);
                        IParticle {
                            pos: c.pos,
                            vel: c.vel,
                            eps2: self.eps2,
                        }
                    })
                    .collect();
            }
            for start in (0..n_b).step_by(width) {
                let end = (start + width).min(n_b);
                let input = if pass == 0 { &self.iparts } else { &refined };
                let h0 = self.engine.vt();
                self.engine
                    .try_compute(&input[start..end], &mut self.forces[start..end])?;
                // The previous chunk's corrections overlap this pass:
                // charge them from the pass-start cursor.
                if start > 0 {
                    if let Some(r) = self.host_rates {
                        let dur = 0.5 * r.t_step * width as f64;
                        self.trace_host(Phase::Host, h0, dur, width as u64);
                    }
                }
                tail = end - start;
            }
        }
        // 4. Correct and retime own entries, exchange, write all back.
        for k in 0..n_b {
            let i = self.block[k];
            let (f1, c) = self.corrected(k, t_next);
            let set = &mut self.set;
            let dt = t_next - set.t[i];
            set.pos[i] = c.pos;
            set.vel[i] = c.vel;
            set.acc[i] = f1.acc;
            set.jerk[i] = f1.jerk;
            set.snap[i] = c.snap;
            set.crackle[i] = c.crackle;
            set.pot[i] = f1.pot;
            set.t[i] = t_next;
            let want = aarseth_dt(f1.acc, f1.jerk, c.snap, c.crackle, self.cfg.eta);
            set.dt[i] = self.cfg.grid.next_step(t_next, dt, want);
        }
        exchange(&mut self.set, &mut self.block)?;
        for &i in &self.block {
            self.engine.set_j_particle(i, &j_of(&self.set, i));
        }
        // Corrector, retiming and scheduling: the fixed per-block overhead
        // plus the half of the per-particle work no pass hides — the last
        // chunk's (the whole block when blocking).
        if let Some(r) = self.host_rates {
            let t0 = self.engine.vt();
            let dur = r.t_block_fixed + 0.5 * r.t_step * tail as f64;
            self.trace_host(Phase::Host, t0, dur, n_b as u64);
        }
        Ok(self.finish_step(t_next))
    }

    /// The same as [`HermiteIntegrator::try_step`]; kept only because the
    /// `benchmark/` package calls this name.
    pub fn try_step_auto(&mut self) -> Result<(f64, usize), EngineError> {
        self.try_step()
    }

    /// Block entry `k`'s force with the self-potential removed, and its
    /// Hermite correction from the host prediction to `t_next`.  Reads
    /// only particle `block[k]`'s own pre-step state.
    fn corrected(&self, k: usize, t_next: f64) -> (ForceResult, Corrected) {
        let set = &self.set;
        let i = self.block[k];
        let f1 = corrected_pot(&self.forces[k], set.mass[i], self.eps);
        let s = HermiteState {
            pos: set.pos[i],
            vel: set.vel[i],
            acc: set.acc[i],
            jerk: set.jerk[i],
        };
        let dt = t_next - set.t[i];
        let c = correct(&s, self.iparts[k].pos, self.iparts[k].vel, &f1, dt);
        (f1, c)
    }

    /// Block selection (the entries `owns` accepts) and host prediction:
    /// fills `self.block` / `self.iparts`, records the Predict span.
    fn select_and_predict(&mut self, owns: impl Fn(usize) -> bool) -> f64 {
        let set = &self.set;
        // 1. Block selection.
        let t_next = set.min_next_time();
        debug_assert!(t_next > self.t, "time must advance");
        self.block.clear();
        for i in 0..set.n() {
            if set.t[i] + set.dt[i] == t_next && owns(i) {
                self.block.push(i);
            }
        }
        // 2. Host-side prediction of the block's i-particles.
        self.iparts.clear();
        for &i in &self.block {
            let s = HermiteState {
                pos: set.pos[i],
                vel: set.vel[i],
                acc: set.acc[i],
                jerk: set.jerk[i],
            };
            let (pp, pv) = predict(&s, Vec3::ZERO, t_next - set.t[i]);
            self.iparts.push(IParticle {
                pos: pp,
                vel: pv,
                eps2: self.eps2,
            });
        }
        // Charge the prediction loop as the leading half of the model's
        // per-particle host work (t_host = t_fixed + n_b·t_step, split
        // half before / half after the GRAPE call).
        if let Some(r) = self.host_rates {
            let n_b = self.block.len();
            let t0 = self.engine.vt();
            self.trace_host(Phase::Predict, t0, 0.5 * r.t_step * n_b as f64, n_b as u64);
        }
        t_next
    }

    /// Record the completed blockstep and advance the system time.
    fn finish_step(&mut self, t_next: f64) -> (f64, usize) {
        let n_b = self.block.len();
        let dt_block = t_next - self.t;
        self.stats
            .record_block(n_b, dt_block.max(f64::MIN_POSITIVE));
        self.stats.faults = self.engine.fault_counters();
        self.t = t_next;
        (t_next, n_b)
    }

    /// Advance until system time reaches `t_end` (the last block lands
    /// exactly on a grid point ≥ `t_end`).
    pub fn run_until(&mut self, t_end: f64) {
        while self.t < t_end {
            self.step();
        }
    }

    /// Synchronise every particle to the current system time (predict all
    /// to `t`) — used before measuring energies.  This mirrors the
    /// "synchronisation step" production codes perform before output.
    pub fn synchronized_snapshot(&self) -> ParticleSet {
        let mut snap = self.set.clone();
        for i in 0..snap.n() {
            let s = HermiteState {
                pos: snap.pos[i],
                vel: snap.vel[i],
                acc: snap.acc[i],
                jerk: snap.jerk[i],
            };
            let (pp, pv) = predict(&s, snap.snap[i], self.t - snap.t[i]);
            snap.pos[i] = pp;
            snap.vel[i] = pv;
            snap.t[i] = self.t;
        }
        snap
    }
}

/// Convert particle `i`'s current polynomial into engine j-format.
#[inline]
fn j_of(set: &ParticleSet, i: usize) -> JParticle {
    JParticle {
        mass: set.mass[i],
        t0: set.t[i],
        pos: set.pos[i],
        vel: set.vel[i],
        acc: set.acc[i],
        jerk: set.jerk[i],
        snap: set.snap[i],
    }
}

/// Remove the self-interaction from the engine's potential (GRAPE
/// convention: with ε > 0 the hardware's j-sum includes `−mᵢ/ε`).
#[inline]
fn corrected_pot(f: &ForceResult, m_i: f64, eps: f64) -> ForceResult {
    let mut out = *f;
    if eps > 0.0 {
        out.pot += m_i / eps;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_core::diagnostics::{energy, ConservationTracker};
    use nbody_core::force::DirectEngine;
    use nbody_core::ic::plummer::plummer_model;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_plummer(n: usize, seed: u64) -> ParticleSet {
        plummer_model(n, &mut StdRng::seed_from_u64(seed))
    }

    fn direct_integrator(
        n: usize,
        seed: u64,
        cfg: IntegratorConfig,
    ) -> HermiteIntegrator<DirectEngine> {
        let set = small_plummer(n, seed);
        HermiteIntegrator::new(DirectEngine::new(n), set, cfg)
    }

    #[test]
    fn initialisation_populates_forces_and_steps() {
        let it = direct_integrator(64, 1, IntegratorConfig::default());
        let set = it.particles();
        for i in 0..64 {
            assert!(set.acc[i].norm() > 0.0);
            assert!(set.dt[i] > 0.0 && set.dt[i] <= it.cfg.grid.dt_max);
            // Power-of-two check.
            let l = set.dt[i].log2();
            assert_eq!(l, l.round(), "dt {} not a power of two", set.dt[i]);
        }
    }

    #[test]
    fn time_advances_monotonically_and_blocks_are_nonempty() {
        let mut it = direct_integrator(32, 2, IntegratorConfig::default());
        let mut t_prev = 0.0;
        for _ in 0..50 {
            let (t, n_b) = it.step();
            assert!(t > t_prev);
            assert!((1..=32).contains(&n_b));
            t_prev = t;
        }
        assert_eq!(it.stats().blocksteps, 50);
        assert!(it.stats().particle_steps >= 50);
    }

    #[test]
    fn energy_conserved_over_a_time_unit_f64() {
        let n = 64;
        let set = small_plummer(n, 3);
        let eps2 = Softening::Constant.epsilon2(n);
        let mut tracker = ConservationTracker::new(&set, eps2);
        let mut it = HermiteIntegrator::new(DirectEngine::new(n), set, IntegratorConfig::default());
        it.run_until(1.0);
        let err = tracker.record(&it.synchronized_snapshot(), eps2);
        assert!(err < 5e-6, "relative energy error {err:e}");
    }

    #[test]
    fn energy_improves_with_smaller_eta() {
        let n = 48;
        let run = |eta: f64| -> f64 {
            let set = small_plummer(n, 4);
            let eps2 = Softening::Constant.epsilon2(n);
            let mut tracker = ConservationTracker::new(&set, eps2);
            let cfg = IntegratorConfig {
                eta,
                eta_start: eta / 4.0,
                ..Default::default()
            };
            let mut it = HermiteIntegrator::new(DirectEngine::new(n), set, cfg);
            it.run_until(0.5);
            tracker.record(&it.synchronized_snapshot(), eps2)
        };
        let coarse = run(0.04);
        let fine = run(0.005);
        assert!(
            fine < coarse,
            "η=0.005 error {fine:e} should beat η=0.04 error {coarse:e}"
        );
    }

    #[test]
    fn grape_engine_conserves_energy_like_f64() {
        use crate::engine::Grape6Engine;
        use grape6_system::machine::MachineConfig;
        let n = 48;
        let set = small_plummer(n, 5);
        let eps2 = Softening::Constant.epsilon2(n);
        let e0 = energy(&set, eps2);
        let engine = Grape6Engine::try_new(&MachineConfig::test_small(), n).unwrap();
        let mut it = HermiteIntegrator::new(engine, set, IntegratorConfig::default());
        it.run_until(0.25);
        let e1 = energy(&it.synchronized_snapshot(), eps2);
        let err = ((e1.total() - e0.total()) / e0.total()).abs();
        // Hardware arithmetic: expect ~1e-6-ish, far below dynamical.
        assert!(err < 1e-4, "GRAPE energy error {err:e}");
        assert!(it.engine().exponent_retries() < 100);
    }

    #[test]
    fn grape_and_f64_trajectories_agree_initially() {
        let n = 32;
        let set = small_plummer(n, 6);
        let cfg = IntegratorConfig::default();
        let mut a = HermiteIntegrator::new(DirectEngine::new(n), set.clone(), cfg);
        let engine = crate::engine::Grape6Engine::try_new(
            &grape6_system::machine::MachineConfig::test_small(),
            n,
        )
        .unwrap();
        let mut b = HermiteIntegrator::new(engine, set, cfg);
        a.run_until(0.0625);
        b.run_until(0.0625);
        let sa = a.synchronized_snapshot();
        let sb = b.synchronized_snapshot();
        let mut worst = 0.0f64;
        for i in 0..n {
            worst = worst.max((sa.pos[i] - sb.pos[i]).norm());
        }
        // Pipeline rounding is 2^-24 per force; over a short stretch the
        // trajectories must still track to ~1e-5.
        assert!(worst < 1e-4, "max position divergence {worst:e}");
    }

    #[test]
    fn blocks_shrink_with_smaller_softening() {
        // ε = 4/N resolves close encounters ⇒ broader dt spread ⇒ smaller
        // mean blocks (the fig. 15 mechanism).
        let n = 128;
        let run = |soft: Softening| -> f64 {
            let set = small_plummer(n, 7);
            let cfg = IntegratorConfig {
                softening: soft,
                ..Default::default()
            };
            let mut it = HermiteIntegrator::new(DirectEngine::new(n), set, cfg);
            it.run_until(0.25);
            it.stats().mean_block()
        };
        let soft = run(Softening::Constant);
        let hard = run(Softening::CloseEncounter);
        assert!(
            hard < soft * 1.05,
            "close-encounter blocks ({hard}) should not exceed constant-ε blocks ({soft})"
        );
    }

    #[test]
    fn second_corrector_iteration_does_not_hurt() {
        // P(EC)² at a coarse η: must remain stable and conserve energy at
        // least as well as a single EC within a small factor.
        let n = 48;
        let run = |pec: usize| -> f64 {
            let set = small_plummer(n, 12);
            let eps2 = Softening::Constant.epsilon2(n);
            let mut tracker = ConservationTracker::new(&set, eps2);
            let cfg = IntegratorConfig {
                eta: 0.02,
                pec_iterations: pec,
                ..Default::default()
            };
            let mut it = HermiteIntegrator::new(DirectEngine::new(n), set, cfg);
            it.run_until(0.5);
            tracker.record(&it.synchronized_snapshot(), eps2)
        };
        let once = run(1);
        let twice = run(2);
        assert!(
            twice < once * 3.0,
            "P(EC)2 error {twice:e} should not blow up vs PEC {once:e}"
        );
    }

    #[test]
    fn pec_iterations_cost_extra_engine_work() {
        let n = 32;
        let set = small_plummer(n, 13);
        let cfg2 = IntegratorConfig {
            pec_iterations: 2,
            ..Default::default()
        };
        let mut a = HermiteIntegrator::new(
            DirectEngine::new(n),
            set.clone(),
            IntegratorConfig::default(),
        );
        let mut b = HermiteIntegrator::new(DirectEngine::new(n), set, cfg2);
        a.run_until(0.0625);
        b.run_until(0.0625);
        // Roughly double the pairwise interactions per particle step.
        let per_step_a = a.engine().interactions() as f64 / a.stats().particle_steps as f64;
        let per_step_b = b.engine().interactions() as f64 / b.stats().particle_steps as f64;
        assert!(
            per_step_b > 1.7 * per_step_a,
            "{per_step_b} vs {per_step_a}"
        );
    }

    /// A traced, host-rated integrator on the bit-level engine with
    /// `overlap` set, so every span of both sides lands on one timeline.
    fn traced_overlapped(n: usize, seed: u64) -> HermiteIntegrator<crate::engine::Grape6Engine> {
        use grape6_trace::{EngineTimebase, OverlapMode};
        let mut engine = crate::engine::Grape6Engine::try_new(
            &grape6_system::machine::MachineConfig::test_small(),
            n,
        )
        .unwrap();
        engine.set_timebase(EngineTimebase {
            sec_per_cycle: 1.0 / 90.0e6,
            dma_setup: 12.0e-6,
            dma_per_call: 3.0,
            interface_bw: 200.0e6,
            i_word_bytes: 40.0,
            f_word_bytes: 64.0,
            j_word_bytes: 80.0,
            overlap: OverlapMode::Overlapped,
        });
        engine.set_tracer(Tracer::enabled());
        let cfg = IntegratorConfig {
            overlap: true,
            ..Default::default()
        };
        let mut it = HermiteIntegrator::new(engine, small_plummer(n, seed), cfg);
        it.set_tracer(Tracer::enabled());
        it.set_host_rates(HostRates {
            t_block_fixed: 5.0e-6,
            t_step: 1.0e-6,
        });
        it
    }

    #[test]
    fn run_until_lays_out_the_overlapped_schedule() {
        let key = |s: &Span| (s.phase, s.t0.to_bits(), s.t1.to_bits(), s.counters.items);
        let t_end = 0.0625;
        let mut by_run = traced_overlapped(128, 14);
        by_run.run_until(t_end);
        let mut by_auto = traced_overlapped(128, 14);
        while by_auto.time() < t_end {
            by_auto.try_step_auto().unwrap();
        }
        let run: Vec<_> = by_run.take_spans().iter().map(key).collect();
        let auto: Vec<_> = by_auto.take_spans().iter().map(key).collect();
        assert_eq!(run, auto);
        // Some block was wider than one pass, so a Host span hid behind a
        // later chunk's pass: more Host spans than blocksteps.
        let hosts = run.iter().filter(|k| k.0 == Phase::Host).count() as u64;
        assert!(hosts > by_run.stats().blocksteps, "{hosts} Host spans");
    }

    /// A [`DirectEngine`] that records which thread runs each force call
    /// and how wide it is.
    struct ThreadLog {
        inner: DirectEngine,
        calls: Vec<(std::thread::ThreadId, usize)>,
    }

    impl ForceEngine for ThreadLog {
        fn n_j(&self) -> usize {
            self.inner.n_j()
        }
        fn set_j_particle(&mut self, addr: usize, p: &JParticle) {
            self.inner.set_j_particle(addr, p);
        }
        fn set_time(&mut self, t: f64) {
            self.inner.set_time(t);
        }
        fn compute(&mut self, i: &[IParticle], out: &mut [ForceResult]) {
            self.calls.push((std::thread::current().id(), i.len()));
            self.inner.compute(i, out);
        }
        fn name(&self) -> &'static str {
            "thread log"
        }
        fn interactions(&self) -> u64 {
            self.inner.interactions()
        }
    }

    #[test]
    fn overlapped_blocksteps_stay_on_the_callers_thread() {
        let n = 128;
        let engine = ThreadLog {
            inner: DirectEngine::new(n),
            calls: Vec::new(),
        };
        let cfg = IntegratorConfig {
            overlap: true,
            ..Default::default()
        };
        let mut it = HermiteIntegrator::new(engine, small_plummer(n, 15), cfg);
        it.engine_mut().calls.clear();
        while it.time() < 0.0625 {
            it.try_step_auto().unwrap();
        }
        let me = std::thread::current().id();
        let calls = &it.engine().calls;
        assert!(calls.iter().all(|&(id, _)| id == me));
        let width = grape6_system::unit::I_PARALLELISM;
        assert!(calls.iter().all(|&(_, len)| len <= width));
        assert!(
            calls.iter().any(|&(_, len)| len == width),
            "no block was chunked"
        );
    }

    #[test]
    fn synchronized_snapshot_lands_on_common_time() {
        let mut it = direct_integrator(24, 8, IntegratorConfig::default());
        it.run_until(0.3);
        let snap = it.synchronized_snapshot();
        for i in 0..24 {
            assert_eq!(snap.t[i], it.time());
        }
    }
}
