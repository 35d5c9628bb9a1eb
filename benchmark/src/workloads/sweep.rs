//! `sweep_nb_n2048`: force-plus-neighbour-list sweeps straight on the
//! engine, all N = 2048 particles against all 2048, in i-blocks of 512
//! (11 passes of up to 48 i each).
//!
//! op = pairwise interaction, call = one
//! `Grape6Engine::try_compute_with_neighbours` on one i-block: a quarter
//! sweep.  (A whole sweep per call takes 130 ms, which leaves a run under a
//! hundred latency samples; the quarter gives p90 forty beyond it.)

use std::time::Instant;

use grape6_core::{Grape6Engine, KernelMode};
use grape6_fault::FaultPlan;
use grape6_system::MachineConfig;
use nbody_core::force::{EngineError, ForceEngine, ForceResult, IParticle, JParticle};
use nbody_core::ic::plummer::plummer_model;
use nbody_core::{ParticleSet, Vec3};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::SimStats;
use crate::harness::{self, Ctx, Measured, Outcome, Window};
use crate::spans::Recorder;

pub const N: usize = 2048;
/// i-particles per engine call.
const I_BLOCK: usize = 512;
const BLOCKS_PER_SWEEP: u64 = (N / I_BLOCK) as u64;
/// `h²` of each particle is the squared distance to this nearest neighbour.
const NEIGHBOUR_RANK: usize = 16;
/// The engine time advances by this much per sweep so the j-predictor
/// does real work, and wraps after `TIME_PERIOD` sweeps so the particle
/// configuration the sweeps see stays the same however long the run is.
const TIME_STEP: f64 = 1.0 / 4096.0;
const TIME_PERIOD: u64 = 256;
const EPS2: f64 = 1.0 / (64.0 * 64.0);

/// The inputs: particles and neighbour radii, from the seed alone.
pub struct Inputs {
    pub set: ParticleSet,
    pub h2: Vec<f64>,
}

pub fn inputs(seed: u64) -> Inputs {
    let set = plummer_model(N, &mut StdRng::seed_from_u64(seed));
    let mut d2 = vec![0.0f64; N];
    let h2 = (0..N)
        .map(|i| {
            for (j, d) in d2.iter_mut().enumerate() {
                *d = (set.pos[j] - set.pos[i]).norm2();
            }
            // Index 0 after selection is the particle itself (distance 0).
            *d2.select_nth_unstable_by(NEIGHBOUR_RANK, f64::total_cmp).1
        })
        .collect();
    Inputs { set, h2 }
}

/// One engine with the particles loaded and the buffers a sweep needs.
pub struct Sweeper {
    pub engine: Grape6Engine,
    i: Vec<IParticle>,
    forces: Vec<ForceResult>,
    /// Engine calls (i-blocks) completed.
    calls: u64,
}

fn j_of(set: &ParticleSet, k: usize, acc: Vec3, jerk: Vec3) -> JParticle {
    JParticle {
        mass: set.mass[k],
        t0: 0.0,
        pos: set.pos[k],
        vel: set.vel[k],
        acc,
        jerk,
        snap: Vec3::ZERO,
    }
}

impl Sweeper {
    /// Build the 4-chip machine (with power-on self-test), load the
    /// particles, evaluate their forces once and reload them with
    /// acceleration and jerk so every predictor term is live.
    pub fn build(inp: &Inputs, reference: bool) -> Self {
        let mut engine =
            Grape6Engine::with_fault_plan(&MachineConfig::test_small(), N, &FaultPlan::none())
                .expect("four chips hold 2048 particles");
        if reference {
            engine.set_kernel_mode(KernelMode::Scalar);
            engine.set_board_parallel(false);
        }
        let set = &inp.set;
        for k in 0..N {
            engine.set_j_particle(k, &j_of(set, k, Vec3::ZERO, Vec3::ZERO));
        }
        let i: Vec<IParticle> = (0..N)
            .map(|k| IParticle {
                pos: set.pos[k],
                vel: set.vel[k],
                eps2: EPS2,
            })
            .collect();
        let mut forces = vec![ForceResult::default(); N];
        engine.set_time(0.0);
        engine
            .try_compute(&i, &mut forces)
            .expect("initial force pass");
        for (k, f) in forces.iter().enumerate() {
            engine.set_j_particle(k, &j_of(set, k, f.acc, f.jerk));
        }
        Self {
            engine,
            i,
            forces,
            calls: 0,
        }
    }

    /// The next i-block of the current sweep, at the sweep's engine time;
    /// returns the block's neighbour lists.
    pub fn next_block(&mut self, h2: &[f64]) -> Result<Vec<Vec<u32>>, EngineError> {
        let sweep = self.calls / BLOCKS_PER_SWEEP + 1;
        let lo = (self.calls % BLOCKS_PER_SWEEP) as usize * I_BLOCK;
        let block = lo..lo + I_BLOCK;
        self.calls += 1;
        self.engine
            .set_time((sweep % TIME_PERIOD) as f64 * TIME_STEP);
        self.engine.try_compute_with_neighbours(
            &self.i[block.clone()],
            &h2[block.clone()],
            &mut self.forces[block],
        )
    }

    fn force_bits(&self) -> Vec<[u64; 7]> {
        self.forces
            .iter()
            .map(|f| {
                [
                    f.acc.x.to_bits(),
                    f.acc.y.to_bits(),
                    f.acc.z.to_bits(),
                    f.jerk.x.to_bits(),
                    f.jerk.y.to_bits(),
                    f.jerk.z.to_bits(),
                    f.pot.to_bits(),
                ]
            })
            .collect()
    }
}

/// Forces and neighbour lists of the first (warm-up) sweep.
type FirstSweep = (Vec<[u64; 7]>, Vec<Vec<u32>>);

fn first_sweep(mut s: Sweeper, inp: &Inputs) -> (Sweeper, FirstSweep) {
    let lists = (0..BLOCKS_PER_SWEEP)
        .flat_map(|_| s.next_block(&inp.h2).expect("warm-up sweep"))
        .collect();
    let first = (s.force_bits(), lists);
    (s, first)
}

struct SweepRun {
    m: Measured,
    first: FirstSweep,
    /// Engine counters when the window closed.
    at_end: SimStats,
}

impl AsRef<Measured> for SweepRun {
    fn as_ref(&self) -> &Measured {
        &self.m
    }
}

fn measure(inp: &Inputs, ops: u64, setups: usize, mut rec: Option<&mut Recorder>) -> SweepRun {
    let ((mut s, first), setup_s) = harness::repeated_setup(
        setups,
        |_| Sweeper::build(inp, false),
        |s| first_sweep(s, inp),
    );
    let mut window = Window::with_capacity(4096);
    let mut failed = 0u64;
    let opened_at = s.engine.interactions();
    let t_start = Instant::now();
    while s.engine.interactions() - opened_at < ops {
        let before = s.engine.interactions();
        let span = rec
            .as_deref_mut()
            .map(|r| r.open("core.engine.compute_nb", "core", s.calls));
        let c0 = Instant::now();
        let res = s.next_block(&inp.h2);
        let c1 = Instant::now();
        if let (Some(r), Some(id)) = (rec.as_deref_mut(), span) {
            r.close(id);
        }
        if res.is_err() {
            failed += 1;
            break;
        }
        window.push(
            (c1 - c0).as_nanos() as f64,
            s.engine.interactions() - before,
            (c1 - t_start).as_nanos() as f64,
        );
    }
    window.wall_ns = t_start.elapsed().as_nanos() as f64;
    SweepRun {
        m: Measured {
            window,
            setup_s,
            failed,
        },
        first,
        at_end: SimStats::read(&s.engine, s.calls, s.calls * I_BLOCK as u64),
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let inp = inputs(ctx.seed);
    let (primary, rec) = harness::measure_as_asked(ctx, &mut out, |ops, setups, rec| {
        measure(&inp, ops, setups, rec)
    });

    let v0 = Instant::now();
    let (_, reference_first) = first_sweep(Sweeper::build(&inp, true), &inp);
    out.check(
        "first sweep's force bits match the scalar-kernel serial-walk replay",
        primary.first.0 == reference_first.0,
    );
    out.check(
        "first sweep's neighbour lists match the scalar-kernel serial-walk replay",
        primary.first.1 == reference_first.1,
    );
    let listed: usize = primary.first.1.iter().map(Vec::len).sum();
    out.check(
        format!(
            "neighbour lists are populated ({:.1} per particle)",
            listed as f64 / N as f64
        ),
        listed >= N,
    );
    primary
        .at_end
        .report(&mut out, &MachineConfig::test_small());
    out.set("bench.verify_s", v0.elapsed().as_secs_f64());

    if let Some(rec) = rec {
        let compute = rec.totals()["core.engine.compute_nb"];
        out.set(
            "core.engine.compute_wall_share",
            compute.total_ns as f64 / primary.m.window.wall_ns,
        );
        super::report_engine_rate(&mut out, primary.m.window.ops(), compute.total_ns as f64);
        super::write_trace(ctx, "sweep_nb_n2048", &[("sweeper", &rec)]);
    }
    out
}
