//! The GRAPE-6 engine: simulated hardware behind the standard interface.
//!
//! Besides the happy path, the engine owns the host side of the failure
//! story (see `grape6-fault`):
//!
//! * [`Grape6Engine::with_fault_plan`] injects a seeded [`FaultPlan`] into
//!   the hardware, runs the startup known-answer **self-test** and masks
//!   every unit that answers wrongly — exactly what the real host library
//!   did at initialisation;
//! * every compute pass screens the returned forces (NaN/overflow sanity
//!   guard) and recomputes on the surviving hardware when the reduction
//!   network returns a corrupted word;
//! * scheduled mid-run unit deaths are applied between passes: the failed
//!   unit is masked, and the j-particles are **redistributed** over the
//!   survivors from the engine's host-side mirror.  Block floating-point
//!   summation makes the refreshed partitioning bitwise-invisible in the
//!   forces (§3.4), which the integration tests assert;
//! * the §3.4 exponent-overflow retry loop now *returns* a typed
//!   [`EngineError::ExponentDivergence`] instead of panicking when even
//!   maximally-widened windows keep overflowing.
//!
//! Everything is counted ([`FaultCounters`]) and logged ([`FaultEvent`]);
//! [`Grape6Engine::fault_report`] surfaces the whole story.

use grape6_arith::blockfp::BlockFpError;
use grape6_chip::kernel::KernelMode;
use grape6_chip::pipeline::{ExpSet, HwIParticle, PartialForce};
use grape6_fault::{
    ChipFault, FaultCounters, FaultEvent, FaultPlan, FaultReport, ReductionFaultSchedule,
    ScheduledDeath, UnitPath,
};
use grape6_system::machine::{BoardArray, MachineConfig};
use grape6_system::selftest::{self_test, SelfTestConfig, SelfTestReport};
use grape6_system::unit::GrapeUnit;
use grape6_trace::{EngineTimebase, KernelTag, Phase, Span, SpanCounters, Tracer};
use nbody_core::force::{EngineError, ForceEngine, ForceResult, IParticle, JParticle};

/// Widening applied to all windows on each overflow retry (bits).
const RETRY_WIDEN_BITS: i32 = 8;

/// Maximum retries before giving up (a magnitude this wrong means NaNs or a
/// corrupted state, not a bad guess).
const MAX_RETRIES: u32 = 12;

/// Maximum recomputes of one chunk after reduction glitches or sanity-
/// screen rejections; transient faults recover in one, anything persistent
/// is a hardware fault the retry loop cannot fix.
const MAX_GLITCH_RECOMPUTES: u32 = 4;

/// Anything finite the pipelines can legitimately produce sits far below
/// this; beyond it the result is corrupt even if technically finite.
const SANITY_NORM_LIMIT: f64 = 1e60;

/// The simulated GRAPE-6 hardware of one host, exposed as a
/// [`ForceEngine`].
///
/// Exponent management follows §3.4: the engine keeps a slowly-decaying
/// running maximum of the force magnitudes it has returned, uses it to
/// declare the block floating-point windows for the next call, and on
/// overflow widens the windows and recomputes the failing chunk.  Every
/// retry costs real (virtual) pipeline cycles, exactly like the hardware.
pub struct Grape6Engine {
    hw: BoardArray,
    /// The machine description the hardware was built from — kept so a
    /// checkpoint can fingerprint the machine and a restore can refuse a
    /// mismatched one.
    cfg: MachineConfig,
    /// Seed of the fault plan in force (0 for plan-free construction and
    /// hand-written plans).
    plan_seed: u64,
    n_slots: usize,
    /// Running magnitude estimates (acceleration, jerk, potential).
    mag: (f64, f64, f64),
    retries: u64,
    i_parallel: usize,
    /// Host-side copy of every loaded j-particle, so survivors can be
    /// reloaded when hardware is masked mid-run.
    mirror: Vec<Option<JParticle>>,
    /// Current system time (needed to restore hardware state on reload).
    time: f64,
    /// Compute chunks completed — the clock scheduled deaths run on.
    pass: u64,
    /// Deaths not yet applied, from the fault plan.
    deaths: Vec<ScheduledDeath>,
    counters: FaultCounters,
    events: Vec<FaultEvent>,
    masked: Vec<UnitPath>,
    total_chips: usize,
    selftest: Option<SelfTestReport>,
    /// Span sink (disabled by default: tracing is opt-in and zero-cost
    /// when off).
    tracer: Tracer,
    /// Conversion from hardware activity to virtual seconds; spans are
    /// only recorded when both the tracer is active and this is set.
    timebase: Option<EngineTimebase>,
    /// Virtual-time cursor the engine's spans advance.
    vt: f64,
    /// Force-pass kernel the chips run (the dispatched lane kernel by
    /// default; the scalar oracle for A/B verification).  Bitwise-invisible, so deliberately
    /// *not* part of the checkpoint state.
    kernel: KernelMode,
    /// Set when a j-memory reload failed after masking: the hardware no
    /// longer holds the full j-set, so any force it computed would be
    /// silently missing contributions.  Every compute refuses with this
    /// error until a successful reload clears it.
    poisoned: Option<EngineError>,
}

impl Grape6Engine {
    /// Fallible construction: rejects a system larger than the machine's
    /// j-memory with [`EngineError::InsufficientCapacity`] instead of
    /// panicking.
    pub fn try_new(cfg: &MachineConfig, n_particles: usize) -> Result<Self, EngineError> {
        let available = cfg.capacity();
        if n_particles > available {
            return Err(EngineError::InsufficientCapacity {
                needed: n_particles,
                available,
            });
        }
        Ok(Self::from_hardware(
            cfg.build(),
            cfg,
            cfg.total_chips(),
            n_particles,
        ))
    }

    /// Build the engine on hardware carrying the given fault plan.
    ///
    /// The plan's power-on faults are injected first; then the startup
    /// self-test drives known-answer vectors through every module and
    /// board, masking whatever answers wrongly.  Construction fails only
    /// if the surviving capacity cannot hold `n_particles`.
    pub fn with_fault_plan(
        cfg: &MachineConfig,
        n_particles: usize,
        plan: &FaultPlan,
    ) -> Result<Self, EngineError> {
        let mut hw = cfg.build();
        // Power-on faults.
        for (path, fault) in &plan.chip_faults {
            hw.inject_chip_fault(path, fault);
        }
        for path in &plan.dead_modules {
            for c in 0..cfg.chips_per_module {
                let mut chip_path = path.clone();
                chip_path.push(c);
                hw.inject_chip_fault(&chip_path, &ChipFault::DeadChip);
            }
        }
        for path in &plan.dead_boards {
            hw.inject_reduction_fault(path, &ReductionFaultSchedule::Permanent);
        }
        if !plan.reduction_glitch_passes.is_empty() {
            hw.inject_reduction_fault(
                &[],
                &ReductionFaultSchedule::AtPasses(plan.reduction_glitch_passes.clone()),
            );
        }
        // Startup self-test: mask everything that answers wrongly.
        let report = self_test(&mut hw, &SelfTestConfig::default());
        let mut engine = Self::from_hardware(hw, cfg, cfg.total_chips(), n_particles);
        engine.plan_seed = plan.seed;
        engine.counters.selftest_failures = report.failures.len() as u64;
        for f in &report.failures {
            engine.events.push(FaultEvent::SelfTestFailure {
                path: f.path.clone(),
                rel_err: f.rel_err,
            });
        }
        for path in &report.masked {
            engine.counters.units_masked += 1;
            engine.masked.push(path.clone());
            engine.events.push(FaultEvent::UnitMasked {
                path: path.clone(),
                pass: 0,
            });
        }
        engine.selftest = Some(report);
        engine.deaths = plan.midrun_deaths.clone();
        let available = engine.hw.capacity();
        if n_particles > available {
            return Err(EngineError::InsufficientCapacity {
                needed: n_particles,
                available,
            });
        }
        Ok(engine)
    }

    fn from_hardware(
        hw: BoardArray,
        cfg: &MachineConfig,
        total_chips: usize,
        n_particles: usize,
    ) -> Self {
        Self {
            hw,
            cfg: *cfg,
            plan_seed: 0,
            n_slots: n_particles,
            mag: (1.0, 1.0, 1.0),
            retries: 0,
            i_parallel: 48,
            mirror: vec![None; n_particles],
            time: 0.0,
            pass: 0,
            deaths: Vec::new(),
            counters: FaultCounters::default(),
            events: Vec::new(),
            masked: Vec::new(),
            total_chips,
            selftest: None,
            tracer: Tracer::disabled(),
            timebase: None,
            vt: 0.0,
            kernel: KernelMode::default(),
            poisoned: None,
        }
    }

    /// Install a span sink (pass [`Tracer::enabled`] to start recording).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The engine's tracer (pause/resume, inspection).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Set the hardware-activity → seconds conversion used for spans.
    /// Virtual-time access (`vt`/`set_vt`/`take_spans`) goes through the
    /// [`ForceEngine`] trait.
    pub fn set_timebase(&mut self, tb: EngineTimebase) {
        self.timebase = Some(tb);
    }

    /// Record a span of `dur` virtual seconds at the cursor and advance
    /// it.  No-op (and no cursor movement) unless tracing is active and a
    /// timebase is installed.
    fn trace_span(&mut self, phase: Phase, dur: f64, counters: SpanCounters) {
        if self.timebase.is_none() || !self.tracer.is_active() {
            return;
        }
        let t0 = self.vt;
        self.vt += dur;
        self.tracer.record(Span {
            phase,
            t0,
            t1: self.vt,
            track: 0,
            counters,
        });
    }

    /// Record the per-board sub-spans of the pass that just ran: board `b`
    /// on track `b + 1`, aligned to end with the pass span.  These are
    /// visualisation-only (`Phase::BoardPass` folds into no breakdown
    /// term).
    fn trace_board_passes(&mut self, t1: f64) {
        let Some(tb) = self.timebase else { return };
        if !self.tracer.is_active() {
            return;
        }
        let spans: Vec<Span> = self
            .hw
            .children()
            .iter()
            .enumerate()
            .filter(|(b, _)| self.hw.active()[*b])
            .map(|(b, board)| {
                let cycles = board.last_pass_cycles();
                let dur = cycles as f64 * tb.sec_per_cycle;
                Span {
                    phase: Phase::BoardPass,
                    t0: t1 - dur,
                    t1,
                    track: b as u32 + 1,
                    counters: SpanCounters {
                        cycles,
                        ..Default::default()
                    },
                }
            })
            .collect();
        for s in spans {
            self.tracer.record(s);
        }
    }

    /// Switch the board/module/chip walk between the schedule fanned out
    /// over `nbody_core::fanout`'s worker threads and the serial one
    /// (default: fanned out; `GRAPE6_THREADS` sets the thread count).
    /// §3.4 block floating-point summation makes the two bitwise
    /// identical — the partial forces are collected in the slot of their
    /// child's index and merged in that order either way — so this only
    /// changes *how* the simulated hardware is walked, never what it
    /// returns.
    pub fn set_board_parallel(&mut self, parallel: bool) {
        self.hw.set_parallel(parallel);
    }

    /// Whether the hardware walk currently uses the parallel schedule.
    pub fn board_parallel(&self) -> bool {
        self.hw.is_parallel()
    }

    /// Select the force-pass kernel on every chip: the runtime-dispatched
    /// lane kernel (default) or the scalar reference oracle.  Both are
    /// bitwise identical — each kernel performs the same rounded
    /// operations in the same order per (i, j) pair — so, like [`Grape6Engine::set_board_parallel`], this only changes host
    /// wall-clock, never results or cycle accounting.  The mode is host
    /// configuration, not machine state: it is deliberately absent from
    /// checkpoints and may be switched freely mid-run.
    pub fn set_kernel_mode(&mut self, mode: KernelMode) {
        self.kernel = mode;
        self.hw.set_kernel_mode(mode);
    }

    /// The force-pass kernel currently selected.
    pub fn kernel_mode(&self) -> KernelMode {
        self.kernel
    }

    /// Total pipeline cycles consumed (critical path).
    pub fn hardware_cycles(&self) -> u64 {
        self.hw.total_cycles()
    }

    /// Exponent-retry count (§3.4's repeat-until-good-guess loop).
    pub fn exponent_retries(&self) -> u64 {
        self.retries
    }

    /// Direct access to the hardware (tests, inspection).
    pub fn hardware(&self) -> &BoardArray {
        &self.hw
    }

    /// Chips currently in service.
    pub fn alive_chips(&self) -> usize {
        self.hw.alive_chips()
    }

    /// The startup self-test outcome, if one ran
    /// ([`Grape6Engine::with_fault_plan`] construction).
    pub fn self_test_report(&self) -> Option<&SelfTestReport> {
        self.selftest.as_ref()
    }

    /// The full fault/degradation story so far: counters, masked units,
    /// ordered event log, surviving capacity.
    pub fn fault_report(&self) -> FaultReport {
        let mut counters = self.counters;
        counters.exponent_retries = self.retries;
        FaultReport {
            counters,
            masked: self.masked.clone(),
            events: self.events.clone(),
            alive_chips: self.hw.alive_chips(),
            total_chips: self.total_chips,
        }
    }

    /// The machine description this engine's hardware was built from.
    pub fn machine_config(&self) -> &MachineConfig {
        &self.cfg
    }

    // ---- checkpoint / recovery ------------------------------------------

    /// Capture the engine internals that shape subsequent arithmetic into
    /// a serialisable [`grape6_ckpt::EngineState`].
    ///
    /// The hardware itself is not captured: a restore rebuilds it from the
    /// machine configuration and fault plan (both deterministic), re-applies
    /// the masked-unit set, and reloads the j-memory from the particle
    /// state — §3.4 block-FP summation makes the refreshed partitioning
    /// bitwise invisible in the forces.
    pub fn checkpoint_state(&self) -> grape6_ckpt::EngineState {
        grape6_ckpt::EngineState {
            machine: (
                self.cfg.boards,
                self.cfg.modules_per_board,
                self.cfg.chips_per_module,
                self.cfg.chip.jmem_capacity,
            ),
            plan_seed: self.plan_seed,
            n_slots: self.n_slots,
            mag: [
                self.mag.0.to_bits(),
                self.mag.1.to_bits(),
                self.mag.2.to_bits(),
            ],
            retries: self.retries,
            time: self.time.to_bits(),
            pass: self.pass,
            hw_passes: self.hw.pass_count(),
            pending_deaths: self
                .deaths
                .iter()
                .map(|d| (d.path.clone(), d.at_pass))
                .collect(),
            masked: self.masked.clone(),
            counters: {
                let c = self.fault_counters();
                grape6_ckpt::FaultCounterState {
                    selftest_failures: c.selftest_failures,
                    units_masked: c.units_masked,
                    scheduled_deaths: c.scheduled_deaths,
                    reduction_glitches: c.reduction_glitches,
                    sanity_recomputes: c.sanity_recomputes,
                    exponent_retries: c.exponent_retries,
                }
            },
            vt: self.vt.to_bits(),
        }
    }

    /// Rebuild an engine from a captured [`grape6_ckpt::EngineState`].
    ///
    /// `plan` must be the fault plan the original engine was built with
    /// (`None` for plan-free construction); the hardware is rebuilt the
    /// same deterministic way — including the power-on self-test when a
    /// plan is given — then the checkpoint's masked-unit set, counters,
    /// magnitude estimates and clocks are applied on top.  The j-memory is
    /// *not* loaded here: the caller reloads every particle through
    /// [`ForceEngine::set_j_particle`], which also rebuilds the host-side
    /// mirror bit-for-bit.
    ///
    /// The machine fingerprint is checked; the event log is not restored
    /// (it restarts with the rebuilt engine's power-on entries).
    pub fn restore_from_state(
        cfg: &MachineConfig,
        plan: Option<&FaultPlan>,
        st: &grape6_ckpt::EngineState,
    ) -> Result<Self, EngineError> {
        let fp = (
            cfg.boards,
            cfg.modules_per_board,
            cfg.chips_per_module,
            cfg.chip.jmem_capacity,
        );
        if fp != st.machine {
            return Err(EngineError::HardwareFault {
                detail: format!(
                    "checkpoint was taken on machine {:?}, not {:?}",
                    st.machine, fp
                ),
            });
        }
        let mut engine = match plan {
            Some(plan) => Self::with_fault_plan(cfg, st.n_slots, plan)?,
            None => Self::try_new(cfg, st.n_slots)?,
        };
        // Re-apply every masked unit.  Self-test already masked some of
        // them (mask_path is idempotent and returns false then); the rest
        // are mid-run deaths the original run had already discovered.
        // The bookkeeping list is the union — construction's self-test
        // masks first, then whatever the checkpoint adds — so a restore
        // onto a board with its own faults (migration) keeps both sets.
        for path in &st.masked {
            engine.hw.mask_path(path);
            if !engine.masked.contains(path) {
                engine.masked.push(path.clone());
            }
        }
        let available = engine.hw.capacity();
        if st.n_slots > available {
            return Err(EngineError::InsufficientCapacity {
                needed: st.n_slots,
                available,
            });
        }
        engine.mag = (
            f64::from_bits(st.mag[0]),
            f64::from_bits(st.mag[1]),
            f64::from_bits(st.mag[2]),
        );
        engine.retries = st.retries;
        engine.pass = st.pass;
        engine.deaths = st
            .pending_deaths
            .iter()
            .map(|(path, at_pass)| ScheduledDeath {
                path: path.clone(),
                at_pass: *at_pass,
            })
            .collect();
        engine.counters = FaultCounters {
            selftest_failures: st.counters.selftest_failures,
            units_masked: st.counters.units_masked,
            scheduled_deaths: st.counters.scheduled_deaths,
            reduction_glitches: st.counters.reduction_glitches,
            sanity_recomputes: st.counters.sanity_recomputes,
            exponent_retries: st.counters.exponent_retries,
        };
        // `fault_counters` overwrites this mirror field from `retries`
        // (restored above) on every read; zero the stale copy.
        engine.counters.exponent_retries = 0;
        engine.vt = f64::from_bits(st.vt);
        // Rewind the hardware pass clock so `AtPasses` fault schedules
        // fire exactly where they would have in the uninterrupted run.
        engine.hw.restore_pass_count(st.hw_passes);
        engine.set_time(f64::from_bits(st.time));
        Ok(engine)
    }

    /// Re-run the known-answer self-test mid-run (recovery ladder rung 2):
    /// mask every unit that answers wrongly, and redistribute the
    /// j-particles over the survivors if anything new was masked.
    ///
    /// The hardware pass clock is saved and restored around the test, so
    /// scheduled `AtPasses` faults stay aligned with the run's own passes.
    /// Returns the number of units newly masked.
    pub fn re_self_test(&mut self) -> Result<usize, EngineError> {
        let saved_passes = self.hw.pass_count();
        let report = self_test(&mut self.hw, &SelfTestConfig::default());
        self.hw.restore_pass_count(saved_passes);
        self.counters.selftest_failures += report.failures.len() as u64;
        for f in &report.failures {
            self.events.push(FaultEvent::SelfTestFailure {
                path: f.path.clone(),
                rel_err: f.rel_err,
            });
        }
        let newly_masked = report.masked.len();
        for path in &report.masked {
            self.counters.units_masked += 1;
            self.masked.push(path.clone());
            self.events.push(FaultEvent::UnitMasked {
                path: path.clone(),
                pass: self.pass,
            });
        }
        self.selftest = Some(report);
        if newly_masked > 0 {
            self.reload_from_mirror()?;
        }
        Ok(newly_masked)
    }

    /// Redistribute every mirrored j-particle over the surviving hardware
    /// (recovery ladder rung 3) — the same reload that follows a scheduled
    /// mid-run death, exposed for the supervisor to order explicitly.
    pub fn redistribute(&mut self) -> Result<(), EngineError> {
        self.reload_from_mirror()
    }

    fn exps(&self) -> ExpSet {
        ExpSet::from_magnitudes(self.mag.0, self.mag.1, self.mag.2)
    }

    fn update_mags(&mut self, out: &[ForceResult]) {
        let mut a = 0.0f64;
        let mut j = 0.0f64;
        let mut p = 0.0f64;
        for r in out {
            a = a.max(r.acc.norm());
            j = j.max(r.jerk.norm());
            p = p.max(r.pot.abs());
        }
        // Slow decay keeps headroom; fast rise tracks deepening potentials.
        self.mag.0 = (self.mag.0 * 0.9).max(a);
        self.mag.1 = (self.mag.1 * 0.9).max(j);
        self.mag.2 = (self.mag.2 * 0.9).max(p);
    }

    /// True if a converted force is something working hardware can emit.
    fn result_sane(r: &ForceResult) -> bool {
        let finite = r.acc.x.is_finite()
            && r.acc.y.is_finite()
            && r.acc.z.is_finite()
            && r.jerk.x.is_finite()
            && r.jerk.y.is_finite()
            && r.jerk.z.is_finite()
            && r.pot.is_finite();
        finite && r.acc.norm2() < SANITY_NORM_LIMIT && r.jerk.norm2() < SANITY_NORM_LIMIT
    }

    /// Apply every scheduled death that has come due; if hardware was
    /// masked, redistribute the j-particles over the survivors.
    fn apply_due_deaths(&mut self) -> Result<(), EngineError> {
        if self.deaths.is_empty() {
            return Ok(());
        }
        let mut masked_any = false;
        let mut k = 0;
        while k < self.deaths.len() {
            if self.deaths[k].at_pass <= self.pass {
                let d = self.deaths.remove(k);
                self.counters.scheduled_deaths += 1;
                if self.hw.mask_path(&d.path) {
                    masked_any = true;
                    self.counters.units_masked += 1;
                    self.masked.push(d.path.clone());
                    self.events.push(FaultEvent::UnitMasked {
                        path: d.path,
                        pass: self.pass,
                    });
                }
            } else {
                k += 1;
            }
        }
        if masked_any {
            self.reload_from_mirror()?;
        }
        Ok(())
    }

    /// Reload every mirrored j-particle onto the (newly smaller) machine.
    ///
    /// Failure poisons the engine: once a unit is masked the hardware's
    /// j-partitioning no longer matches the mirror, and computing anyway
    /// would return forces silently missing the lost unit's particles.
    /// A later successful reload (capacity restored by a different mask
    /// set) clears the poison; in practice recovery means restoring the
    /// checkpoint onto healthier hardware.
    fn reload_from_mirror(&mut self) -> Result<(), EngineError> {
        let available = self.hw.capacity();
        if self.n_slots > available {
            let e = EngineError::InsufficientCapacity {
                needed: self.n_slots,
                available,
            };
            self.poisoned = Some(e.clone());
            return Err(e);
        }
        // `clear` also resets the chips' predictor time — restore it before
        // reloading so the redistributed particles predict identically.
        self.hw.clear();
        self.hw.set_time(self.time);
        for (addr, p) in self.mirror.iter().enumerate() {
            if let Some(p) = p {
                // The capacity check above makes a load failure a machine
                // defect (e.g. a mask landing mid-reload), not a sizing bug.
                self.hw
                    .load_j(addr, p)
                    .map_err(|e| EngineError::HardwareFault {
                        detail: format!("reload after masking failed: {e}"),
                    })?;
            }
        }
        self.poisoned = None;
        Ok(())
    }

    /// One i-chunk through the hardware with the full recovery ladder:
    /// exponent-overflow → widen and retry (bounded); corrupted reduction →
    /// recompute as-is (bounded); insane output → recompute (bounded).
    /// With `h2` the second half is one neighbour list per register;
    /// without it, empty.
    fn run_chunk(
        &mut self,
        regs: &[HwIParticle],
        h2: Option<&[f64]>,
    ) -> Result<(Vec<PartialForce>, Vec<Vec<u32>>), EngineError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        self.pass += 1;
        self.apply_due_deaths()?;
        let n_i = regs.len();
        if let Some(tb) = self.timebase {
            // One GRAPE call: DMA setup, then the i-upload + force-readback
            // interface transfer (j writeback is charged at load time).
            self.trace_span(
                Phase::Dma,
                tb.dma_call(),
                SpanCounters {
                    items: n_i as u64,
                    ..Default::default()
                },
            );
            self.trace_span(
                Phase::Interface,
                tb.if_time(n_i),
                SpanCounters {
                    items: n_i as u64,
                    bytes: (n_i as f64 * (tb.i_word_bytes + tb.f_word_bytes)) as u64,
                    ..Default::default()
                },
            );
        }
        let mut exps = vec![self.exps(); regs.len()];
        let mut widen_attempts = 0u32;
        let mut recomputes = 0u32;
        // One neighbour list per register (none for a plain pass), shared
        // by every retry of this chunk: the hierarchy clears and refills
        // them in place (`GrapeUnit::compute_pass`), so the recovery ladder
        // never reallocates the lists.
        let mut nb_lists: Vec<Vec<u32>> = vec![Vec::new(); h2.map_or(0, <[f64]>::len)];
        // Phase tag of the *next* pipeline pass: the first attempt is plain
        // pipeline time; repeats are tagged by what caused them.
        let mut attempt_phase = Phase::Grape;
        loop {
            let nb = h2.map(|h2| (h2, &mut nb_lists[..]));
            let outcome = self.hw.compute_pass(regs, &exps, nb);
            // The hardware ran a pass whatever the outcome; charge its
            // critical-path cycles under the attempt's phase tag.
            if let Some(tb) = self.timebase {
                let cycles = self.hw.last_pass_cycles();
                self.trace_span(
                    attempt_phase,
                    cycles as f64 * tb.sec_per_cycle,
                    SpanCounters {
                        items: self.hw.n_j() as u64,
                        cycles,
                        retries: (widen_attempts + recomputes) as u64,
                        kernel: Some(match self.kernel {
                            KernelMode::Scalar => KernelTag::Scalar,
                            KernelMode::Simd => KernelTag::Simd,
                        }),
                        ..Default::default()
                    },
                );
                let t1 = self.vt;
                self.trace_board_passes(t1);
            }
            match outcome {
                Ok(partials) => {
                    // Host-side sanity screen on everything hardware hands
                    // back: NaN/inf/absurd values trigger a recompute, and
                    // if the insanity persists it is a hardware fault.
                    let insane = partials
                        .iter()
                        .any(|p| !Self::result_sane(&p.to_force_result()));
                    if !insane {
                        return Ok((partials, nb_lists));
                    }
                    recomputes += 1;
                    attempt_phase = Phase::SanityRecompute;
                    self.counters.sanity_recomputes += 1;
                    self.events
                        .push(FaultEvent::SanityRecompute { pass: self.pass });
                    if recomputes > MAX_GLITCH_RECOMPUTES {
                        return Err(EngineError::HardwareFault {
                            detail: format!(
                                "force sanity screen still failing after \
                                 {MAX_GLITCH_RECOMPUTES} recomputes"
                            ),
                        });
                    }
                }
                Err(BlockFpError::ExponentMismatch { .. }) => {
                    // All units share one exponent set, so a mismatch can
                    // only be a corrupted reduction word (parity fault).
                    // Recompute without widening.
                    recomputes += 1;
                    attempt_phase = Phase::SanityRecompute;
                    self.counters.reduction_glitches += 1;
                    self.events
                        .push(FaultEvent::ReductionGlitch { pass: self.pass });
                    if recomputes > MAX_GLITCH_RECOMPUTES {
                        return Err(EngineError::HardwareFault {
                            detail: format!(
                                "reduction network still corrupting results after \
                                 {MAX_GLITCH_RECOMPUTES} recomputes"
                            ),
                        });
                    }
                }
                Err(e) => {
                    // Genuine block-FP overflow: widen the windows (§3.4).
                    widen_attempts += 1;
                    attempt_phase = Phase::WidenRetry;
                    self.retries += 1;
                    if widen_attempts > MAX_RETRIES {
                        return Err(EngineError::ExponentDivergence {
                            retries: widen_attempts - 1,
                            detail: e.to_string(),
                        });
                    }
                    for x in &mut exps {
                        *x = x.widened(RETRY_WIDEN_BITS * widen_attempts as i32);
                    }
                }
            }
        }
    }

    /// Fallible j-memory write: the typed-error twin of
    /// [`ForceEngine::set_j_particle`].  Rejects out-of-range addresses and
    /// coordinates outside the ±64 fixed-point box (NaN included) instead
    /// of panicking, so a misbehaving tenant cannot take the host down.
    pub fn try_set_j_particle_checked(
        &mut self,
        addr: usize,
        p: &JParticle,
    ) -> Result<(), EngineError> {
        if addr >= self.n_slots {
            return Err(EngineError::BadJAddress {
                addr,
                slots: self.n_slots,
            });
        }
        // The fixed-point coordinate box covers ±64 length units; a
        // coordinate outside it would silently wrap in the memory format
        // (hardware semantics).  NaN must be rejected too.
        for c in p.pos.to_array() {
            if c.is_nan() || c.abs() >= 64.0 {
                return Err(EngineError::OutsideBox { addr, coord: c });
            }
        }
        self.mirror[addr] = Some(*p);
        if let Some(tb) = self.timebase {
            // j writeback crosses the same host↔GRAPE interface as the
            // i/force traffic (the j term of the model's interface time).
            self.trace_span(
                Phase::Interface,
                tb.j_write_time(),
                SpanCounters {
                    items: 1,
                    bytes: tb.j_word_bytes as u64,
                    ..Default::default()
                },
            );
        }
        // addr < n_slots ≤ capacity (checked at construction and on every
        // reload), so a hardware write failure is a machine defect.
        self.hw
            .load_j(addr, p)
            .map_err(|e| EngineError::HardwareFault {
                detail: format!("j-memory load failed: {e}"),
            })
    }

    /// Compute forces **and hardware neighbour lists**: for each i-particle
    /// the global j-addresses with unsoftened `r² < h2[k]`, as detected by
    /// the pipeline comparators in the same passes as the forces — the
    /// hardware service behind the Ahmad–Cohen scheme's bookkeeping on the
    /// real machine.  Errors as [`ForceEngine::try_compute`], plus a
    /// `BufferMismatch` when `h2` is not one radius per i-particle.
    pub fn try_compute_with_neighbours(
        &mut self,
        i: &[IParticle],
        h2: &[f64],
        out: &mut [ForceResult],
    ) -> Result<Vec<Vec<u32>>, EngineError> {
        self.compute_chunks(i, Some(h2), out)
    }

    /// The chunk loop behind both entry points: `i` in i-parallelism
    /// chunks through [`Grape6Engine::run_chunk`], each chunk's forces
    /// converted into `out` and fed to the window tracker.  With `h2` (one
    /// radius per i-particle) the result holds one neighbour list per
    /// i-particle; without it, none.
    fn compute_chunks(
        &mut self,
        i: &[IParticle],
        h2: Option<&[f64]>,
        out: &mut [ForceResult],
    ) -> Result<Vec<Vec<u32>>, EngineError> {
        if i.len() != out.len() {
            return Err(EngineError::BufferMismatch {
                what: "out",
                expected: i.len(),
                got: out.len(),
            });
        }
        if let Some(h2) = h2.filter(|h2| h2.len() != i.len()) {
            return Err(EngineError::BufferMismatch {
                what: "h2",
                expected: i.len(),
                got: h2.len(),
            });
        }
        let width = self.i_parallel;
        let mut all_lists = Vec::with_capacity(h2.map_or(0, <[f64]>::len));
        let chunks = i.chunks(width).zip(out.chunks_mut(width));
        for (c, (chunk_i, chunk_o)) in chunks.enumerate() {
            let regs: Vec<HwIParticle> = chunk_i
                .iter()
                .map(|p| HwIParticle::from_host(p.pos, p.vel, p.eps2))
                .collect();
            let chunk_h = h2.map(|h2| &h2[c * width..c * width + chunk_i.len()]);
            let (partials, lists) = self.run_chunk(&regs, chunk_h)?;
            for (o, p) in chunk_o.iter_mut().zip(&partials) {
                *o = p.to_force_result();
            }
            self.update_mags(chunk_o);
            all_lists.extend(lists);
        }
        Ok(all_lists)
    }
}

impl ForceEngine for Grape6Engine {
    fn n_j(&self) -> usize {
        self.n_slots
    }

    /// # Panics
    /// On every error of [`Grape6Engine::try_set_j_particle_checked`] (the
    /// trait's `try_set_j_particle` is the same check): an address past the
    /// slots, a coordinate outside the ±64 box or NaN, a failed hardware
    /// write.
    fn set_j_particle(&mut self, addr: usize, p: &JParticle) {
        if let Err(e) = self.try_set_j_particle_checked(addr, p) {
            panic!("{e}");
        }
    }

    fn try_set_j_particle(&mut self, addr: usize, p: &JParticle) -> Result<(), EngineError> {
        self.try_set_j_particle_checked(addr, p)
    }

    fn set_time(&mut self, t: f64) {
        self.time = t;
        self.hw.set_time(t);
    }

    /// # Panics
    /// On every error of [`ForceEngine::try_compute`]: mismatched buffers,
    /// retry exhaustion, a hardware fault, a poisoned engine.
    fn compute(&mut self, i: &[IParticle], out: &mut [ForceResult]) {
        if let Err(e) = self.try_compute(i, out) {
            panic!("{e}");
        }
    }

    fn try_compute(&mut self, i: &[IParticle], out: &mut [ForceResult]) -> Result<(), EngineError> {
        self.compute_chunks(i, None, out).map(drop)
    }

    fn fault_counters(&self) -> FaultCounters {
        let mut c = self.counters;
        c.exponent_retries = self.retries;
        c
    }

    fn vt(&self) -> f64 {
        self.vt
    }

    fn set_vt(&mut self, t: f64) {
        self.vt = t;
    }

    fn take_spans(&mut self) -> Vec<Span> {
        self.tracer.take()
    }

    fn name(&self) -> &'static str {
        "grape6-sim"
    }

    fn interactions(&self) -> u64 {
        self.hw.total_interactions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_core::force::DirectEngine;
    use nbody_core::Vec3;

    fn scattered(n: usize) -> Vec<JParticle> {
        (0..n)
            .map(|k| {
                let a = k as f64 * 0.613;
                JParticle {
                    mass: 1.0 / n as f64,
                    t0: 0.0,
                    pos: Vec3::new(a.cos(), (1.7 * a).sin(), 0.3 * (0.9 * a).cos()),
                    vel: Vec3::new(-a.sin() * 0.2, a.cos() * 0.2, 0.0),
                    acc: Vec3::new(0.01, -0.02, 0.005),
                    jerk: Vec3::ZERO,
                    snap: Vec3::ZERO,
                }
            })
            .collect()
    }

    fn engines(n: usize) -> (Grape6Engine, DirectEngine) {
        let js = scattered(n);
        let mut g = Grape6Engine::try_new(&MachineConfig::test_small(), n).unwrap();
        let mut d = DirectEngine::new(n);
        for (k, j) in js.iter().enumerate() {
            g.set_j_particle(k, j);
            d.set_j_particle(k, j);
        }
        (g, d)
    }

    #[test]
    fn matches_reference_engine_through_full_interface() {
        let n = 100;
        let (mut g, mut d) = engines(n);
        // Predict to a later time to exercise the on-chip predictor too.
        g.set_time(0.0625);
        d.set_time(0.0625);
        let probes: Vec<IParticle> = (0..60)
            .map(|k| IParticle {
                pos: Vec3::new(0.02 * k as f64 - 0.5, 0.3, -0.1),
                vel: Vec3::new(0.0, 0.05, 0.0),
                eps2: 1e-4,
            })
            .collect();
        let mut got = vec![ForceResult::default(); probes.len()];
        let mut want = vec![ForceResult::default(); probes.len()];
        g.compute(&probes, &mut got);
        d.compute(&probes, &mut want);
        for k in 0..probes.len() {
            let da = (got[k].acc - want[k].acc).norm() / want[k].acc.norm();
            assert!(da < 1e-4, "i={k} rel acc err {da:e}");
            let dp = (got[k].pot - want[k].pot).abs() / want[k].pot.abs();
            assert!(dp < 1e-4, "i={k} rel pot err {dp:e}");
        }
        assert_eq!(g.interactions(), (probes.len() * n) as u64);
        assert!(g.hardware_cycles() > 0);
    }

    #[test]
    fn exponent_retry_recovers_from_cold_start() {
        // Force magnitudes far above the initial unit guess: the engine
        // must retry and still return the right answer.
        let n = 4;
        let mut g = Grape6Engine::try_new(&MachineConfig::test_small(), n).unwrap();
        let mut d = DirectEngine::new(n);
        for k in 0..n {
            let p = JParticle {
                mass: 1000.0,
                t0: 0.0,
                pos: Vec3::new(k as f64 * 1e-3, 0.0, 0.0),
                ..Default::default()
            };
            g.set_j_particle(k, &p);
            d.set_j_particle(k, &p);
        }
        g.set_time(0.0);
        d.set_time(0.0);
        let probe = [IParticle {
            pos: Vec3::new(-0.05, 0.0, 0.0),
            vel: Vec3::ZERO,
            eps2: 0.0,
        }];
        let mut got = [ForceResult::default()];
        let mut want = [ForceResult::default()];
        g.compute(&probe, &mut got);
        d.compute(&probe, &mut want);
        assert!(g.exponent_retries() > 0, "cold start must retry");
        let rel = (got[0].acc - want[0].acc).norm() / want[0].acc.norm();
        assert!(rel < 1e-4, "rel err {rel:e}");
        // A second call reuses the learned exponents without retrying.
        let before = g.exponent_retries();
        g.compute(&probe, &mut got);
        assert_eq!(g.exponent_retries(), before);
    }

    #[test]
    fn multi_chunk_blocks_handled() {
        // 130 i-particles = 3 chip passes on a 48-wide machine.
        let n = 64;
        let (mut g, mut d) = engines(n);
        g.set_time(0.0);
        d.set_time(0.0);
        let probes: Vec<IParticle> = (0..130)
            .map(|k| IParticle {
                pos: Vec3::new((k as f64 * 0.37).sin(), (k as f64 * 0.11).cos(), 0.0),
                vel: Vec3::ZERO,
                eps2: 1e-2,
            })
            .collect();
        let mut got = vec![ForceResult::default(); 130];
        let mut want = vec![ForceResult::default(); 130];
        g.compute(&probes, &mut got);
        d.compute(&probes, &mut want);
        for k in 0..130 {
            assert!((got[k].acc - want[k].acc).norm() < 1e-4 * want[k].acc.norm().max(1e-6));
        }
    }

    #[test]
    fn hardware_neighbour_lists_match_brute_force() {
        let n = 120;
        let js = scattered(n);
        let mut g = Grape6Engine::try_new(&MachineConfig::test_small(), n).unwrap();
        for (k, j) in js.iter().enumerate() {
            g.set_j_particle(k, j);
        }
        g.set_time(0.0);
        let probes: Vec<IParticle> = (0..3)
            .map(|k| IParticle {
                pos: js[k].pos,
                vel: js[k].vel,
                eps2: 1e-4,
            })
            .collect();
        let h2 = [0.25f64, 0.25, 0.25];
        let mut out = vec![ForceResult::default(); 3];
        let lists = g
            .try_compute_with_neighbours(&probes, &h2, &mut out)
            .expect("healthy machine, matching buffers");
        for k in 0..3 {
            let want: Vec<u32> = (0..n)
                .filter(|&j| {
                    let d2 = (js[j].pos - js[k].pos).norm2();
                    d2 > 0.0 && d2 < h2[k]
                })
                .map(|j| j as u32)
                .collect();
            assert_eq!(lists[k], want, "probe {k}");
            assert!(!lists[k].is_empty(), "probe {k} should have neighbours");
        }
        // Forces unchanged relative to the plain path.
        let mut out2 = vec![ForceResult::default(); 3];
        g.compute(&probes, &mut out2);
        for k in 0..3 {
            assert_eq!(out[k].acc, out2[k].acc);
        }
    }

    #[test]
    #[should_panic(expected = "fixed-point box")]
    fn out_of_box_particle_rejected() {
        let mut g = Grape6Engine::try_new(&MachineConfig::test_small(), 4).unwrap();
        g.set_j_particle(
            0,
            &JParticle {
                mass: 1.0,
                pos: Vec3::new(100.0, 0.0, 0.0),
                ..Default::default()
            },
        );
    }

    #[test]
    fn checked_j_writes_are_typed_errors() {
        let mut g = Grape6Engine::try_new(&MachineConfig::test_small(), 4).unwrap();
        let at = |pos: Vec3| JParticle {
            mass: 1.0,
            pos,
            ..Default::default()
        };
        assert_eq!(
            g.try_set_j_particle_checked(99, &at(Vec3::ZERO)),
            Err(EngineError::BadJAddress { addr: 99, slots: 4 })
        );
        assert!(matches!(
            g.try_set_j_particle_checked(0, &at(Vec3::new(100.0, 0.0, 0.0))),
            Err(EngineError::OutsideBox { addr: 0, .. })
        ));
        assert!(matches!(
            g.try_set_j_particle_checked(0, &at(Vec3::new(f64::NAN, 0.0, 0.0))),
            Err(EngineError::OutsideBox { .. })
        ));
        // The engine stays usable: a good write still lands.
        assert_eq!(g.try_set_j_particle_checked(0, &at(Vec3::ZERO)), Ok(()));
    }

    #[test]
    fn oversubscription_rejected() {
        let cfg = MachineConfig::test_small(); // 4 chips × 2048
        let err = match Grape6Engine::try_new(&cfg, 10_000) {
            Ok(_) => panic!("oversubscribed machine must be rejected"),
            Err(e) => e,
        };
        assert!(matches!(
            err,
            EngineError::InsufficientCapacity { needed: 10_000, .. }
        ));
    }

    #[test]
    fn exponent_divergence_is_a_typed_error() {
        // Two 1e308 masses 1e-4 apart with ε = 0: the pairwise summands
        // are infinite, so no amount of window widening converges and the
        // engine must return ExponentDivergence — not panic.
        let n = 2;
        let mut g = Grape6Engine::try_new(&MachineConfig::test_small(), n).unwrap();
        for k in 0..n {
            g.set_j_particle(
                k,
                &JParticle {
                    mass: 1e308,
                    t0: 0.0,
                    pos: Vec3::new(k as f64 * 1e-4, 0.0, 0.0),
                    ..Default::default()
                },
            );
        }
        g.set_time(0.0);
        let probe = [IParticle {
            pos: Vec3::new(-1e-4, 0.0, 0.0),
            vel: Vec3::ZERO,
            eps2: 0.0,
        }];
        let mut out = [ForceResult::default()];
        let err = g.try_compute(&probe, &mut out).unwrap_err();
        match &err {
            EngineError::ExponentDivergence { retries, .. } => {
                assert_eq!(*retries, MAX_RETRIES);
            }
            other => panic!("expected ExponentDivergence, got {other:?}"),
        }
        assert_eq!(
            g.fault_counters().exponent_retries,
            (MAX_RETRIES + 1) as u64
        );
    }

    #[test]
    fn fault_plan_masks_dead_module_and_forces_stay_bitwise() {
        let n = 100;
        let js = scattered(n);
        let cfg = MachineConfig::test_small(); // 1 board × 2 modules × 2 chips
        let plan = FaultPlan::none().with_dead_module(0, 1);
        let mut faulty = Grape6Engine::with_fault_plan(&cfg, n, &plan).unwrap();
        let mut clean = Grape6Engine::try_new(&cfg, n).unwrap();
        // Self-test found and masked the dead module before any particles
        // were loaded.
        let st = faulty.self_test_report().unwrap();
        assert_eq!(st.masked, vec![vec![0, 1]]);
        assert_eq!(faulty.alive_chips(), 2);
        assert_eq!(clean.alive_chips(), 4);
        for (k, j) in js.iter().enumerate() {
            faulty.set_j_particle(k, j);
            clean.set_j_particle(k, j);
        }
        faulty.set_time(0.0625);
        clean.set_time(0.0625);
        let probes: Vec<IParticle> = (0..60)
            .map(|k| IParticle {
                pos: Vec3::new(0.02 * k as f64 - 0.5, 0.3, -0.1),
                vel: Vec3::new(0.0, 0.05, 0.0),
                eps2: 1e-4,
            })
            .collect();
        let mut got = vec![ForceResult::default(); probes.len()];
        let mut want = vec![ForceResult::default(); probes.len()];
        faulty.compute(&probes, &mut got);
        clean.compute(&probes, &mut want);
        // §3.4: block FP makes the halved machine bitwise invisible.
        assert_eq!(got, want);
        // But the fault report is nonzero and the degraded machine is
        // slower: half the chips ⇒ twice the j per chip on the critical
        // path.
        let report = faulty.fault_report();
        assert_eq!(report.counters.selftest_failures, 1);
        assert_eq!(report.counters.units_masked, 1);
        assert_eq!(report.alive_chips, 2);
        assert_eq!(report.total_chips, 4);
        assert!(report.availability() < 1.0);
        assert!(faulty.hardware_cycles() > clean.hardware_cycles());
    }

    #[test]
    fn insufficient_surviving_capacity_is_a_typed_error() {
        // test_small holds 4 × 2048; killing one of two modules leaves
        // 4096 slots — asking for 5000 must fail with the typed error.
        let cfg = MachineConfig::test_small();
        let plan = FaultPlan::none().with_dead_module(0, 0);
        let err = match Grape6Engine::with_fault_plan(&cfg, 5000, &plan) {
            Ok(_) => panic!("oversubscribed degraded machine must be rejected"),
            Err(e) => e,
        };
        assert_eq!(
            err,
            EngineError::InsufficientCapacity {
                needed: 5000,
                available: 4096,
            }
        );
    }

    #[test]
    fn reduction_glitches_recover_and_are_counted() {
        let n = 50;
        let js = scattered(n);
        let cfg = MachineConfig::test_small();
        // Glitch the host-port reduction on its 1st and 3rd passes.
        let plan = FaultPlan::none().with_reduction_glitches(vec![1, 3]);
        let mut faulty = Grape6Engine::with_fault_plan(&cfg, n, &plan).unwrap();
        let mut clean = Grape6Engine::try_new(&cfg, n).unwrap();
        for (k, j) in js.iter().enumerate() {
            faulty.set_j_particle(k, j);
            clean.set_j_particle(k, j);
        }
        faulty.set_time(0.0);
        clean.set_time(0.0);
        let probes: Vec<IParticle> = (0..20)
            .map(|k| IParticle {
                pos: Vec3::new(0.05 * k as f64 - 0.5, 0.1, 0.0),
                vel: Vec3::ZERO,
                eps2: 1e-2,
            })
            .collect();
        let mut got = vec![ForceResult::default(); probes.len()];
        let mut want = vec![ForceResult::default(); probes.len()];
        faulty.compute(&probes, &mut got);
        clean.compute(&probes, &mut want);
        assert_eq!(got, want, "recomputed passes are exact");
        let report = faulty.fault_report();
        assert!(report.counters.reduction_glitches >= 1);
        // The glitched-and-recomputed passes burned extra cycles.
        assert!(faulty.hardware_cycles() > clean.hardware_cycles());
    }
}
