//! The five workloads.  Each takes the run context and returns its
//! metrics and output checks; inputs come from the seed alone.

pub mod cluster;
pub mod farm;
pub mod host;
pub mod sweep;

use grape6_core::Grape6Engine;
use grape6_system::MachineConfig;
use nbody_core::force::ForceEngine;

use crate::harness::{Ctx, Outcome};
use crate::spans::{write_chrome_trace, Recorder};

/// Simulated-machine statistics when a run's fixed work is done: for a
/// given seed and op count they repeat exactly, whatever the host did.
#[derive(Clone, Debug, PartialEq)]
pub struct SimStats {
    /// Blocksteps (or engine calls of the sweep) completed.
    pub blocksteps: u64,
    /// i-particles pushed through the engine.
    pub particle_steps: u64,
    pub interactions: u64,
    pub hardware_cycles: u64,
    pub exponent_retries: u64,
}

impl SimStats {
    fn read(engine: &Grape6Engine, blocksteps: u64, particle_steps: u64) -> Self {
        Self {
            blocksteps,
            particle_steps,
            interactions: engine.interactions(),
            hardware_cycles: engine.hardware_cycles(),
            exponent_retries: engine.exponent_retries(),
        }
    }

    /// The `sim.*` metrics (`machine` gives the clock for virtual time).
    fn report(&self, out: &mut Outcome, machine: &MachineConfig) {
        out.set("sim.blocksteps", self.blocksteps as f64);
        out.set("sim.particle_steps", self.particle_steps as f64);
        out.set("sim.interactions", self.interactions as f64);
        out.set("sim.hardware_cycles", self.hardware_cycles as f64);
        out.set("sim.exponent_retries", self.exponent_retries as f64);
        out.set(
            "sim.virtual_s",
            self.hardware_cycles as f64 / (machine.chip.clock_khz as f64 * 1e3),
        );
    }
}

/// Engine throughput over the traced window: pairwise interactions per
/// second of compute-span time, and the same in the papers' 57-flop units.
fn report_engine_rate(out: &mut Outcome, interactions: u64, compute_ns: f64) {
    let pairs_per_s = interactions as f64 / (compute_ns * 1e-9);
    out.set("core.engine.pairs_per_s", pairs_per_s);
    out.set(
        "core.engine.paper_gflops",
        nbody_core::FLOPS_PER_INTERACTION * pairs_per_s / 1e9,
    );
}

/// Run one workload by name.
pub fn run(name: &str, ctx: &Ctx) -> Option<Outcome> {
    Some(match name {
        "host_n1024" => host::run(&host::n1024(), ctx),
        "host_tree_n256" => host::run(&host::tree_n256(), ctx),
        "sweep_nb_n2048" => sweep::run(ctx),
        "farm_uds" => farm::run(ctx),
        "cluster2_tcp" => cluster::run(ctx),
        _ => return None,
    })
}

/// Write `benchmark/out/trace-<workload>.json`.
fn write_trace(ctx: &Ctx, workload: &str, threads: &[(&str, &Recorder)]) {
    let path = ctx.out_dir.join(format!("trace-{workload}.json"));
    write_chrome_trace(&path, threads).expect("trace file under benchmark/out");
}
