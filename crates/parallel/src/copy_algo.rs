//! The copy algorithm: a full parallel Hermite integrator.
//!
//! "Each processor has the complete copy of the system… At each blockstep,
//! each processor determines which particles it updates.  After all
//! processors update their share of particles, they exchange the updated
//! particles so that all processors have the updated copy of the system"
//! (§3.2).  This is also exactly how GRAPE-6 parallelises across clusters
//! (§4.3), and its per-blockstep all-to-all exchange is the communication
//! term behind figs. 17/18.
//!
//! Because every rank holds the full system and force sums run over the
//! full j-range in index order, the parallel trajectories are
//! **bit-identical** to the serial driver's — verified in the tests, and
//! the distributed analogue of the §3.4 reproducibility property.

use grape6_core::integrator::{HermiteIntegrator, IntegratorConfig};
use grape6_core::stats::RunStats;
use grape6_net::fabric::{allgather, run_ranks};
use grape6_net::link::LinkProfile;
use nbody_core::force::{DirectEngine, ForceEngine, ForceResult, IParticle, JParticle};
use nbody_core::hermite::{aarseth_dt, correct, predict, HermiteState};
use nbody_core::particle::ParticleSet;
use nbody_core::Vec3;

use crate::partition::owner_of;

/// One updated particle as shipped between ranks after a blockstep.
#[derive(Clone, Copy, Debug)]
pub struct ParticleUpdate {
    /// Global particle index.
    pub idx: usize,
    /// New position.
    pub pos: Vec3,
    /// New velocity.
    pub vel: Vec3,
    /// New acceleration.
    pub acc: Vec3,
    /// New jerk.
    pub jerk: Vec3,
    /// New snap.
    pub snap: Vec3,
    /// New crackle.
    pub crackle: Vec3,
    /// New potential.
    pub pot: f64,
    /// New particle time.
    pub t: f64,
    /// New timestep.
    pub dt: f64,
}

/// Wire size of one update (6 vectors + 3 scalars + index).
pub const UPDATE_BYTES: usize = 176;

/// Configuration of a copy-algorithm run.
#[derive(Clone, Copy, Debug)]
pub struct CopyConfig {
    /// Integrator accuracy/scheduling parameters.
    pub integ: IntegratorConfig,
    /// Host-host link profile.
    pub link: LinkProfile,
    /// Virtual cost of one pairwise force evaluation on a rank.
    pub t_pair: f64,
    /// Virtual host cost per particle step (predict/correct/bookkeeping).
    pub t_host_step: f64,
}

impl Default for CopyConfig {
    fn default() -> Self {
        Self {
            integ: IntegratorConfig::default(),
            link: LinkProfile::intel_82540em(),
            // One pairwise interaction on a GRAPE-equipped host: 57 flops
            // at the host slice's 3.94 Tflops peak.
            t_pair: 57.0 / 3.94e12,
            t_host_step: 4.0e-6,
        }
    }
}

/// Outcome of a parallel run.
pub struct CopyRunResult {
    /// Final particle state (identical on every rank; rank 0's copy).
    pub set: ParticleSet,
    /// Per-rank virtual clocks at completion.
    pub clocks: Vec<f64>,
    /// Blockstep statistics (identical on every rank; rank 0's copy).
    pub stats: RunStats,
    /// Total bytes each rank put on the wire.
    pub bytes_sent: Vec<u64>,
}

/// Where a copy-algorithm segment starts and stops — the hooks that make
/// parallel runs **checkpointable**: run a bounded number of blocksteps,
/// capture the (rank-identical) particle state, and continue later from
/// exactly that state with [`run_copy_parallel_segment`].
#[derive(Clone, Copy, Debug)]
pub struct CopySegment {
    /// `Some(t0)`: the input set is mid-run state (derivatives, per-
    /// particle times and steps already populated — e.g. restored from a
    /// checkpoint) and integration continues from time `t0` without any
    /// re-initialisation.  `None`: initialise exactly like the serial
    /// driver (startup forces + initial timesteps).
    pub resume_from: Option<f64>,
    /// Stop after this many blocksteps, even short of `t_end`.  The limit
    /// is deterministic and identical on every rank, so stopping is
    /// collective-safe.
    pub max_blocksteps: Option<u64>,
    /// Stop once the run time reaches this.
    pub t_end: f64,
}

/// Integrate `set` to `t_end` on `p` ranks with the copy algorithm.
pub fn run_copy_parallel(
    set: &ParticleSet,
    p: usize,
    t_end: f64,
    cfg: &CopyConfig,
) -> CopyRunResult {
    run_copy_parallel_segment(
        set,
        p,
        CopySegment {
            resume_from: None,
            max_blocksteps: None,
            t_end,
        },
        cfg,
    )
}

/// Integrate one bounded segment of a copy-algorithm run.
///
/// Stats count this segment only; callers stitching segments together sum
/// them.  Because every rank holds the full system and the blockstep
/// schedule is a pure function of the particle state, a run chopped into
/// segments is bit-identical to an uninterrupted one.
pub fn run_copy_parallel_segment(
    set: &ParticleSet,
    p: usize,
    seg: CopySegment,
    cfg: &CopyConfig,
) -> CopyRunResult {
    let n = set.n();
    let t_end = seg.t_end;
    let results = run_ranks::<Vec<ParticleUpdate>, (ParticleSet, RunStats, f64, u64), _>(
        p,
        cfg.link,
        |mut ep| {
            let rank = ep.rank();
            // Every rank: full copy, full engine, synchronized-identical
            // initialisation (same arithmetic as the serial driver) — or,
            // on resume, the caller's mid-run state verbatim.
            let (mut local, eps, mut t) = match seg.resume_from {
                None => {
                    let it = HermiteIntegrator::new(DirectEngine::new(n), set.clone(), cfg.integ);
                    (it.particles().clone(), it.epsilon(), 0.0f64)
                }
                Some(t0) => (set.clone(), cfg.integ.softening.epsilon(n), t0),
            };
            let mut stats = RunStats::new();
            let eps2 = eps * eps;
            let mut engine = DirectEngine::new(n);
            for i in 0..n {
                engine.set_j_particle(i, &j_from(&local, i));
            }
            while t < t_end && seg.max_blocksteps.is_none_or(|m| stats.blocksteps < m) {
                let t_next = local.min_next_time();
                // My share of the block (owner by contiguous chunks).
                let mut updates: Vec<ParticleUpdate> = Vec::new();
                let mut my_interactions = 0u64;
                engine.set_time(t_next);
                let mut block_len = 0usize;
                for i in 0..n {
                    if local.t[i] + local.dt[i] != t_next {
                        continue;
                    }
                    block_len += 1;
                    if owner_of(n, p, i) != rank {
                        continue;
                    }
                    let dt = t_next - local.t[i];
                    let s = HermiteState {
                        pos: local.pos[i],
                        vel: local.vel[i],
                        acc: local.acc[i],
                        jerk: local.jerk[i],
                    };
                    let (pp, pv) = predict(&s, Vec3::ZERO, dt);
                    let ip = [IParticle {
                        pos: pp,
                        vel: pv,
                        eps2,
                    }];
                    let mut f = [ForceResult::default()];
                    engine.compute(&ip, &mut f);
                    my_interactions += n as u64;
                    let mut f1 = f[0];
                    if eps > 0.0 {
                        f1.pot += local.mass[i] / eps;
                    }
                    let c = correct(&s, pp, pv, &f1, dt);
                    let want = aarseth_dt(f1.acc, f1.jerk, c.snap, c.crackle, cfg.integ.eta);
                    let dt_new = cfg.integ.grid.next_step(t_next, dt, want);
                    updates.push(ParticleUpdate {
                        idx: i,
                        pos: c.pos,
                        vel: c.vel,
                        acc: f1.acc,
                        jerk: f1.jerk,
                        snap: c.snap,
                        crackle: c.crackle,
                        pot: f1.pot,
                        t: t_next,
                        dt: dt_new,
                    });
                }
                ep.advance(
                    my_interactions as f64 * cfg.t_pair + updates.len() as f64 * cfg.t_host_step,
                );
                // Exchange: every rank learns every update (the paper's
                // per-blockstep synchronisation + exchange).
                let bytes = updates.len() * UPDATE_BYTES;
                let all = allgather(&mut ep, updates, bytes.max(8)).expect("lossless fabric");
                for batch in &all {
                    for u in batch {
                        apply_update(&mut local, u);
                        engine.set_j_particle(u.idx, &j_from(&local, u.idx));
                    }
                }
                stats.record_block(block_len, t_next - t);
                t = t_next;
            }
            (local, stats, ep.clock(), ep.bytes_sent())
        },
    );
    let clocks = results.iter().map(|r| r.2).collect();
    let bytes_sent = results.iter().map(|r| r.3).collect();
    let first = results.into_iter().next().unwrap();
    CopyRunResult {
        set: first.0,
        stats: first.1,
        clocks,
        bytes_sent,
    }
}

fn apply_update(set: &mut ParticleSet, u: &ParticleUpdate) {
    set.pos[u.idx] = u.pos;
    set.vel[u.idx] = u.vel;
    set.acc[u.idx] = u.acc;
    set.jerk[u.idx] = u.jerk;
    set.snap[u.idx] = u.snap;
    set.crackle[u.idx] = u.crackle;
    set.pot[u.idx] = u.pot;
    set.t[u.idx] = u.t;
    set.dt[u.idx] = u.dt;
}

fn j_from(set: &ParticleSet, i: usize) -> JParticle {
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

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_core::diagnostics::energy;
    use nbody_core::ic::plummer::plummer_model;
    use nbody_core::softening::Softening;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn plummer(n: usize) -> ParticleSet {
        plummer_model(n, &mut StdRng::seed_from_u64(31))
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let n = 40;
        let set = plummer(n);
        let cfg = CopyConfig::default();
        // Serial reference.
        let mut serial = HermiteIntegrator::new(DirectEngine::new(n), set.clone(), cfg.integ);
        serial.run_until(0.25);
        let want = serial.particles().clone();
        // 3-rank copy-algorithm run to the same time.
        let got = run_copy_parallel(&set, 3, 0.25, &cfg);
        assert_eq!(got.set.pos, want.pos, "positions must be bit-identical");
        assert_eq!(got.set.vel, want.vel);
        assert_eq!(got.set.dt, want.dt);
        assert_eq!(got.stats.particle_steps, serial.stats().particle_steps);
        assert_eq!(got.stats.blocksteps, serial.stats().blocksteps);
    }

    #[test]
    fn energy_conserved_in_parallel() {
        let n = 48;
        let set = plummer(n);
        let eps2 = Softening::Constant.epsilon2(n);
        let e0 = energy(&set, eps2);
        let out = run_copy_parallel(&set, 4, 0.25, &CopyConfig::default());
        // Particles sit at slightly different times; energy drift is still
        // bounded by the scheme's accuracy at this scale.
        let e1 = energy(&out.set, eps2);
        let err = ((e1.total() - e0.total()) / e0.total()).abs();
        assert!(err < 5e-4, "energy error {err:e}");
    }

    #[test]
    fn communication_bytes_scale_with_updates() {
        let n = 32;
        let set = plummer(n);
        let out = run_copy_parallel(&set, 2, 0.125, &CopyConfig::default());
        let total: u64 = out.bytes_sent.iter().sum();
        // Ring allgather over 2 ranks: each update crosses the wire once
        // per peer; total wire volume ≈ steps × UPDATE_BYTES × (p−1) + the
        // empty-batch sentinels.
        let lower = out.stats.particle_steps * UPDATE_BYTES as u64;
        assert!(
            total >= lower / 2,
            "wire volume {total} vs expected ≥ {}",
            lower / 2
        );
    }

    #[test]
    fn sync_dominates_for_small_systems_on_slow_links() {
        // The fig. 17/18 mechanism: per-blockstep latency ~ constant, so a
        // slow link multiplies the runtime of a small system.
        let n = 24;
        let set = plummer(n);
        let fast_cfg = CopyConfig {
            link: LinkProfile::ideal(),
            ..CopyConfig::default()
        };
        let slow_cfg = CopyConfig {
            link: LinkProfile {
                latency: 1.0e-3,
                bandwidth: 60.0e6,
                overhead: 2.0e-5,
            },
            ..CopyConfig::default()
        };
        let fast = run_copy_parallel(&set, 4, 0.125, &fast_cfg);
        let slow = run_copy_parallel(&set, 4, 0.125, &slow_cfg);
        let fast_t = fast.clocks.iter().cloned().fold(0.0, f64::max);
        let slow_t = slow.clocks.iter().cloned().fold(0.0, f64::max);
        // Identical physics…
        assert_eq!(fast.set.pos, slow.set.pos);
        // …very different virtual time.
        assert!(
            slow_t > fast_t + fast.stats.blocksteps as f64 * 1.0e-3,
            "slow {slow_t} vs fast {fast_t} over {} blocks",
            fast.stats.blocksteps
        );
    }
}
