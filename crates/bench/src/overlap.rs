//! Overlap/parallelism benchmark: serial vs rayon-parallel board walk vs
//! split-phase overlapped blocksteps.
//!
//! The paper's tuning story (§4–§5) rests on two concurrency claims:
//!
//! 1. the board array is *genuinely concurrent* — all boards of a host
//!    port crunch their j-segments at once, and §3.4 block floating-point
//!    summation makes the parallel walk bitwise identical to a serial
//!    one;
//! 2. the host's predictor/corrector arithmetic *hides behind* the
//!    pipelines via the split-phase `g6calc_firsthalf`/`g6calc_lasthalf`
//!    calls, so a blockstep costs `max(host, grape)` instead of the sum.
//!
//! This module runs the same Plummer integration under three schedules —
//! serial walk + blocking steps, parallel walk + blocking steps, parallel
//! walk + overlapped steps — and reports:
//!
//! * a **bitwise identity** verdict over the final particle bits (the
//!   §3.4 reproducibility property, also asserted by
//!   `tests/overlap_bitwise.rs`);
//! * measured **real** wall-clock per schedule.  On a single-core
//!   container (or under the offline sequential rayon stub) the parallel
//!   walk cannot beat the serial one, so the speedups are *reported, not
//!   asserted* — run on a multi-core host with real rayon to see them;
//! * measured **virtual** wall per schedule from recorded spans, next to
//!   the analytic `BlockTime::wall(mode)` prediction — the simulator's
//!   own account of what the overlap buys on the modelled hardware.

use std::time::Instant;

use grape6_ckpt::{fnv1a64_word, FNV_OFFSET};
use grape6_core::engine::Grape6Engine;
use grape6_core::integrator::{HermiteIntegrator, IntegratorConfig};
use grape6_model::perf::{MachineLayout, PerfModel};
use grape6_system::machine::MachineConfig;
use grape6_trace::{HostRates, MeasuredBlockTime, OverlapMode, Tracer};
use nbody_core::force::ForceEngine;
use nbody_core::ic::plummer::plummer_model;
use nbody_core::particle::ParticleSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::breakdown::timing_for;

/// One schedule's outcome.
#[derive(Clone, Debug)]
pub struct ScheduleResult {
    /// Schedule label (`serial`, `parallel`, `overlapped`).
    pub label: &'static str,
    /// Real wall-clock seconds for the measured blocksteps.
    pub wall_seconds: f64,
    /// Virtual wall from recorded spans (timeline extent, summed over
    /// blocksteps) — shrinks under overlap while the term sums don't.
    pub virtual_wall: f64,
    /// Six-term breakdown summed over the blocksteps.
    pub measured: MeasuredBlockTime,
    /// Analytic `Σ BlockTime::wall(mode)` for the same block sequence.
    pub model_wall: f64,
    /// FNV-1a hash over the final particle bits (pos/vel/t/dt/acc/jerk).
    pub state_hash: u64,
}

/// The three-schedule comparison.
#[derive(Clone, Debug)]
pub struct OverlapReport {
    /// System size.
    pub n: usize,
    /// Boards in the machine under test.
    pub boards: usize,
    /// Blocksteps measured per schedule.
    pub blocksteps: usize,
    /// Serial board walk, blocking blocksteps.
    pub serial: ScheduleResult,
    /// Rayon-parallel board walk, blocking blocksteps.
    pub parallel: ScheduleResult,
    /// Rayon-parallel board walk, split-phase overlapped blocksteps.
    pub overlapped: ScheduleResult,
}

impl OverlapReport {
    /// Did all three schedules land on identical particle bits?
    pub fn bitwise_identical(&self) -> bool {
        self.serial.state_hash == self.parallel.state_hash
            && self.serial.state_hash == self.overlapped.state_hash
    }

    /// Real wall-clock speedup of the parallel walk over the serial one.
    pub fn parallel_speedup(&self) -> f64 {
        self.serial.wall_seconds / self.parallel.wall_seconds.max(1e-12)
    }

    /// Real wall-clock speedup of overlapped steps over blocking ones
    /// (both on the parallel walk).
    pub fn overlap_speedup(&self) -> f64 {
        self.parallel.wall_seconds / self.overlapped.wall_seconds.max(1e-12)
    }

    /// Virtual-time gain of the overlap: blocking virtual wall over
    /// overlapped virtual wall — the simulator's account of the §4–§5
    /// split-phase win, independent of host core count.
    pub fn virtual_overlap_gain(&self) -> f64 {
        self.parallel.virtual_wall / self.overlapped.virtual_wall.max(1e-300)
    }

    /// Hand-rolled JSON (offline-safe) for `BENCH_overlap.json`.
    pub fn to_json(&self) -> String {
        let sched = |s: &ScheduleResult| {
            format!(
                "{{\"label\":\"{}\",\"wall_seconds\":{:e},\"virtual_wall\":{:e},\
                 \"model_wall\":{:e},\"measured\":{},\"state_hash\":{}}}",
                s.label,
                s.wall_seconds,
                s.virtual_wall,
                s.model_wall,
                s.measured.to_json(),
                s.state_hash,
            )
        };
        format!(
            "{{\"n\":{},\"boards\":{},\"blocksteps\":{},\
             \"bitwise_identical\":{},\
             \"parallel_speedup\":{:e},\"overlap_speedup\":{:e},\
             \"virtual_overlap_gain\":{:e},\
             \"serial\":{},\"parallel\":{},\"overlapped\":{}}}",
            self.n,
            self.boards,
            self.blocksteps,
            self.bitwise_identical(),
            self.parallel_speedup(),
            self.overlap_speedup(),
            self.virtual_overlap_gain(),
            sched(&self.serial),
            sched(&self.parallel),
            sched(&self.overlapped),
        )
    }
}

/// FNV-1a over the bit patterns that define the integration state.
pub fn state_hash(set: &ParticleSet) -> u64 {
    let mut h = FNV_OFFSET;
    let mut eat = |x: f64| h = fnv1a64_word(h, x.to_bits());
    for i in 0..set.n() {
        for v in [set.pos[i], set.vel[i], set.acc[i], set.jerk[i]] {
            eat(v.x);
            eat(v.y);
            eat(v.z);
        }
        eat(set.t[i]);
        eat(set.dt[i]);
    }
    h
}

/// One execution schedule: how the board walk and the blockstep run.
#[derive(Clone, Copy)]
struct Schedule {
    label: &'static str,
    board_parallel: bool,
    overlap: bool,
}

/// Run `blocksteps` blocksteps of a seeded Plummer model under one
/// schedule and measure it.
fn run_schedule(
    machine: &MachineConfig,
    model: &PerfModel,
    n: usize,
    blocksteps: usize,
    seed: u64,
    sched: Schedule,
) -> ScheduleResult {
    let Schedule {
        label,
        board_parallel,
        overlap,
    } = sched;
    let mode = if overlap {
        OverlapMode::Overlapped
    } else {
        OverlapMode::Sequential
    };
    let set = plummer_model(n, &mut StdRng::seed_from_u64(seed));
    let mut engine = Grape6Engine::try_new(machine, n).unwrap();
    engine.set_board_parallel(board_parallel);
    let icfg = IntegratorConfig {
        overlap,
        ..IntegratorConfig::default()
    };
    let mut it = HermiteIntegrator::new(engine, set, icfg);
    let tb = match mode {
        OverlapMode::Sequential => model.grape.engine_timebase(),
        OverlapMode::Overlapped => model.grape.engine_timebase_overlapped(),
    };
    it.engine_mut().set_timebase(tb);
    it.engine_mut().set_tracer(Tracer::enabled());
    it.set_tracer(Tracer::enabled());
    it.set_host_rates(HostRates {
        t_block_fixed: model.host.t_block_fixed,
        t_step: model.host.t_step(n as f64),
    });
    let vt0 = it.engine().vt();
    let mut measured = MeasuredBlockTime::default();
    let mut model_wall = 0.0f64;
    let t0 = Instant::now();
    for _ in 0..blocksteps {
        let (_, n_b) = it.try_step_auto().expect("healthy hardware");
        measured.add(&MeasuredBlockTime::from_spans(&it.take_spans()));
        model_wall += model
            .block_time(MachineLayout::SingleHost, n, n_b)
            .wall(mode);
    }
    let wall_seconds = t0.elapsed().as_secs_f64();
    ScheduleResult {
        label,
        wall_seconds,
        virtual_wall: it.engine().vt() - vt0,
        measured,
        model_wall,
        state_hash: state_hash(it.particles()),
    }
}

/// The three-schedule comparison on `machine` for `blocksteps` steps of
/// an `n`-particle Plummer model.
pub fn run_overlap_bench(
    machine: &MachineConfig,
    n: usize,
    blocksteps: usize,
    seed: u64,
) -> OverlapReport {
    let model = PerfModel {
        grape: timing_for(machine),
        ..PerfModel::default()
    };
    let run = |label, board_parallel, overlap| {
        run_schedule(
            machine,
            &model,
            n,
            blocksteps,
            seed,
            Schedule {
                label,
                board_parallel,
                overlap,
            },
        )
    };
    let serial = run("serial", false, false);
    let parallel = run("parallel", true, false);
    let overlapped = run("overlapped", true, true);
    OverlapReport {
        n,
        boards: machine.boards,
        blocksteps,
        serial,
        parallel,
        overlapped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_schedules_are_bitwise_identical_and_overlap_shrinks_the_wall() {
        let machine = MachineConfig::builder()
            .boards(2)
            .modules_per_board(2)
            .chips_per_module(1)
            .jmem_capacity(1024)
            .build()
            .unwrap();
        let report = run_overlap_bench(&machine, 96, 24, 11);
        assert!(report.bitwise_identical(), "schedules diverged bitwise");
        // The six term sums agree across schedules (same spans recorded,
        // different timeline layout)…
        assert!(
            (report.overlapped.measured.total() - report.parallel.measured.total()).abs()
                < 1e-9 * report.parallel.measured.total()
        );
        // …while the overlapped schedule's virtual wall is strictly
        // shorter, and the analytic wall agrees on the direction.
        assert!(
            report.overlapped.virtual_wall < report.parallel.virtual_wall,
            "overlap did not shrink the virtual wall: {} vs {}",
            report.overlapped.virtual_wall,
            report.parallel.virtual_wall
        );
        assert!(report.overlapped.model_wall < report.parallel.model_wall);
        assert!(report.virtual_overlap_gain() > 1.0);
        let json = report.to_json();
        assert!(json.contains("\"bitwise_identical\":true"), "{json}");
        assert!(json.contains("\"overlapped\""), "{json}");
    }
}
