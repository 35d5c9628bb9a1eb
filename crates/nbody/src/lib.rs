//! # nbody-core — the N-body substrate under the GRAPE-6 reproduction
//!
//! Everything the special-purpose machine *acts on* lives here, independent
//! of any hardware model:
//!
//! * [`vec3`] — a small, allocation-free 3-vector;
//! * [`units`] — Heggie (standard) N-body units and characteristic
//!   timescales (the paper integrates Plummer models "for 1 time unit (we
//!   use the 'Heggie' unit)");
//! * [`particle`] — structure-of-arrays particle storage with per-particle
//!   times and block timesteps;
//! * [`softening`] — the three softening choices benchmarked in §4:
//!   `ε = 1/64`, `ε = 1/[8(2N)^(1/3)]`, `ε = 4/N`;
//! * [`ic`] — initial-condition generators: Plummer spheres (the benchmark
//!   workload), planetesimal disks (the §5 Kuiper-belt application), and the
//!   binary-black-hole setup (§5's second application);
//! * [`force`] — reference double-precision direct-summation kernels
//!   (acceleration, jerk, potential), scalar and fanned out over
//!   [`fanout`], plus the
//!   [`force::ForceEngine`] abstraction every backend (host f64, simulated
//!   GRAPE-6, treecode) implements;
//! * [`hermite`] — the 4th-order Hermite scheme of Makino & Aarseth (1992):
//!   predictor, corrector, and the Aarseth timestep criterion;
//! * [`blockstep`] — power-of-two block time quantisation shared by all
//!   integrators;
//! * [`diagnostics`] — energy / angular-momentum / virial bookkeeping used
//!   to validate every engine against every other;
//! * [`fanout`] — the workspace's one data-parallel mechanism: persistent
//!   worker threads, results collected in index order so no bit depends on
//!   the schedule.

pub mod blockstep;
pub mod diagnostics;
pub mod fanout;
pub mod force;
pub mod hermite;
pub mod ic;
pub mod particle;
pub mod softening;
pub mod units;
pub mod vec3;

pub use blockstep::{block_dt, TimeGrid};
pub use force::{
    EngineError, ForceEngine, ForceResult, IParticle, JParticle, FLOPS_PER_INTERACTION,
};
pub use particle::ParticleSet;
pub use softening::Softening;
pub use vec3::Vec3;
