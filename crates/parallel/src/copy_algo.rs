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
//! Each rank is a [`HermiteIntegrator`] over the full copy that corrects
//! the block entries `owner_of` gives it and exchanges them in one
//! [`coalesced_wave`] per blockstep over any [`Transport`].  On the f64
//! [`DirectEngine`] the trajectories are **bit-identical** to the serial
//! driver's (the distributed §3.4 property; DESIGN §12 has the bit-level
//! engine's caveat).

use grape6_core::integrator::{HermiteIntegrator, IntegratorConfig};
use grape6_core::stats::RunStats;
use grape6_net::exchange::coalesced_wave;
use grape6_net::fabric::run_ranks;
use grape6_net::link::LinkProfile;
use grape6_net::transport::{Transport, TransportError, VirtualTransport};
use grape6_net::wire::JRecord;
use nbody_core::force::{DirectEngine, EngineError, ForceEngine};
use nbody_core::particle::ParticleSet;
use nbody_core::Vec3;

use crate::partition::chunk_ranges;

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

/// Why a copy-algorithm rank stopped short.
#[derive(Clone, Debug, PartialEq)]
pub enum CopyError {
    /// This rank's engine failed.
    Engine(EngineError),
    /// The per-blockstep exchange failed.
    Transport(TransportError),
}

impl From<EngineError> for CopyError {
    fn from(e: EngineError) -> Self {
        Self::Engine(e)
    }
}

impl From<TransportError> for CopyError {
    fn from(e: TransportError) -> Self {
        Self::Transport(e)
    }
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

/// Integrate one bounded segment of a copy-algorithm run on `p` ranks of
/// the virtual-time fabric, each on the f64 [`DirectEngine`].
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
    let per_entry = n as f64 * cfg.t_pair + cfg.t_host_step;
    let mut results = run_ranks::<Vec<u8>, _, _>(p, cfg.link, |mut ep| {
        let mut tr = VirtualTransport::new(&mut ep);
        // A virtual rank's compute costs virtual time, charged before
        // each wave for the entries this rank corrected.
        let it = run_copy_rank(
            DirectEngine::new(n),
            set.clone(),
            cfg.integ,
            seg,
            &mut tr,
            |tr, k| tr.endpoint().advance(k as f64 * per_entry),
        );
        // The virtual fabric is lossless and the f64 engine cannot fail.
        let it = it.expect("lossless fabric, infallible engine");
        (
            it.particles().clone(),
            it.stats().clone(),
            ep.clock(),
            ep.bytes_sent(),
        )
    });
    let clocks = results.iter().map(|r| r.2).collect();
    let bytes_sent = results.iter().map(|r| r.3).collect();
    let (set, stats, ..) = results.swap_remove(0);
    CopyRunResult {
        set,
        stats,
        clocks,
        bytes_sent,
    }
}

/// One rank of the copy algorithm over `tr`: its full copy, built from
/// `set` as `seg` says and stepped until `seg` stops it.  `charge(tr, k)`
/// runs before each wave with the count of entries this rank corrected
/// (virtual time; a real backend has spent real time).
pub fn run_copy_rank<E: ForceEngine, T: Transport>(
    engine: E,
    set: ParticleSet,
    integ: IntegratorConfig,
    seg: CopySegment,
    tr: &mut T,
    mut charge: impl FnMut(&mut T, usize),
) -> Result<HermiteIntegrator<E>, CopyError> {
    // The indices `owner_of` gives this rank.
    let mine = chunk_ranges(set.n(), tr.n_ranks())[tr.rank()].clone();
    let mut it = match seg.resume_from {
        None => HermiteIntegrator::try_new(engine, set, integ)?,
        Some(t0) => HermiteIntegrator::resume(engine, set, integ, t0, RunStats::new()),
    };
    while it.time() < seg.t_end && seg.max_blocksteps.is_none_or(|m| it.stats().blocksteps < m) {
        let step = it.stats().blocksteps;
        let exchange = |set: &mut ParticleSet, block: &mut Vec<usize>| -> Result<(), CopyError> {
            charge(tr, block.len());
            // Own particles' next times (the corrections just moved some).
            let t_mine = mine.clone().map(|i| set.t[i] + set.dt[i]);
            let t_mine = t_mine.fold(f64::INFINITY, f64::min);
            let records = block.iter().map(|&i| record(set, i)).collect();
            let out = coalesced_wave(tr, step, t_mine, records, &[])?;
            block.clear();
            for r in &out.merged {
                block.push(apply(set, r)?);
            }
            debug_assert_eq!(out.t_min, set.min_next_time());
            Ok(())
        };
        it.try_step_shared(|i| mine.contains(&i), exchange)?;
    }
    Ok(it)
}

/// Words per exchanged particle (see [`fields`]).
const RECORD_WORDS: usize = 21;

/// The wire order of one exchanged particle: pos, vel, acc, jerk, snap and
/// crackle (three each), then pot, t and dt.
fn fields(s: &mut ParticleSet, i: usize) -> impl Iterator<Item = &mut f64> {
    let vecs = [
        &mut s.pos[i],
        &mut s.vel[i],
        &mut s.acc[i],
        &mut s.jerk[i],
        &mut s.snap[i],
        &mut s.crackle[i],
    ];
    let xyz = vecs.into_iter().flat_map(|Vec3 { x, y, z }| [x, y, z]);
    xyz.chain([&mut s.pot[i], &mut s.t[i], &mut s.dt[i]])
}

/// Particle `i`'s corrected state as a wave record (`f64` bit patterns).
fn record(set: &mut ParticleSet, i: usize) -> JRecord {
    let words = fields(set, i).map(|x| x.to_bits()).collect();
    JRecord {
        index: i as u64,
        words,
    }
}

/// Write a received record into `set`; returns its particle index.  A
/// record another rank could not have produced is a protocol error.
fn apply(set: &mut ParticleSet, r: &JRecord) -> Result<usize, TransportError> {
    let i = usize::try_from(r.index)
        .ok()
        .filter(|&i| i < set.n() && r.words.len() == RECORD_WORDS)
        .ok_or(TransportError::Protocol("malformed copy-algorithm record"))?;
    for (x, &w) in fields(set, i).zip(&r.words) {
        *x = f64::from_bits(w);
    }
    Ok(i)
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
        // One butterfly wave per blockstep, exactly: ⌈log₂ p⌉ frames per
        // rank, each a 52-byte stage header plus 16 + 8 × 21 bytes per
        // record it carries (its own entries at stage 0; at p = 4's stage
        // 1, its own and its stage-0 partner's) — the waves' own bytes.
        let n = 32;
        let set = plummer(n);
        let seg = CopySegment {
            resume_from: None,
            max_blocksteps: None,
            t_end: 0.125,
        };
        let (header, per_record) = (52, (16 + 8 * RECORD_WORDS) as u64);
        for p in [2usize, 4] {
            let out = run_ranks::<Vec<u8>, _, _>(p, LinkProfile::ideal(), |mut ep| {
                let mut own = 0u64;
                let it = run_copy_rank(
                    DirectEngine::new(n),
                    set.clone(),
                    IntegratorConfig::default(),
                    seg,
                    &mut VirtualTransport::new(&mut ep),
                    |_, k| own += k as u64,
                )
                .unwrap();
                let blocksteps = it.stats().blocksteps;
                (blocksteps, own, ep.messages_sent(), ep.bytes_sent())
            });
            let stages = u64::from(p.ilog2());
            for (r, &(blocksteps, own, messages, bytes)) in out.iter().enumerate() {
                assert!(blocksteps > 0);
                assert_eq!(messages, blocksteps * stages, "p={p} rank {r}");
                let carried = if p == 2 { own } else { 2 * own + out[r ^ 1].1 };
                assert_eq!(
                    bytes,
                    messages * header + carried * per_record,
                    "p={p} rank {r}"
                );
            }
        }
    }

    #[test]
    fn malformed_records_are_protocol_errors() {
        let mut set = plummer(4);
        let good = record(&mut set, 2);
        assert_eq!(apply(&mut set, &good), Ok(2));
        let short = JRecord {
            words: good.words[..20].to_vec(),
            ..good.clone()
        };
        let far = JRecord {
            index: 4,
            ..good.clone()
        };
        for bad in [short, far] {
            assert!(matches!(
                apply(&mut set, &bad),
                Err(TransportError::Protocol(_))
            ));
        }
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
