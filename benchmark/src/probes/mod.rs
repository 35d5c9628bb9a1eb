//! Layer probes: single-threaded microbenchmarks of each layer's public
//! functions at fixed shapes, on data generated from the seed.
//!
//! The workloads see the program only down to the engine boundary; what
//! lies below is measured here, from outside, so that a later change can
//! say which layer it made faster.  The probes do not depend on which
//! workload ran, so every traced run executes all of them within its probe
//! budget.

mod chip_system;
mod farm;
mod net;
mod small;

use std::collections::BTreeMap;
use std::time::Duration;

use nbody_core::force::JParticle;
use nbody_core::ic::plummer::plummer_model;
use nbody_core::{ParticleSet, Vec3};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::harness::Ctx;

/// Probe measurements sharing one traced run's probe budget.
const SLICES: f64 = 56.0;

/// Where probe results go, with the time slice each measurement gets.
pub struct Sink {
    pub slice: Duration,
    metrics: BTreeMap<String, f64>,
}

impl Sink {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// [`crate::harness::probe`] on one slice of the budget.
    pub fn time(&self, units: f64, work: impl FnMut()) -> f64 {
        crate::harness::probe(self.slice, units, work)
    }
}

/// A Plummer model of `n` particles with every predictor term non-zero:
/// acceleration and jerk of a harmonic potential (the values do not matter
/// to a timing probe, only that no polynomial term is trivially zero).
pub fn particles(n: usize, seed: u64) -> (ParticleSet, Vec<JParticle>) {
    let set = plummer_model(n, &mut StdRng::seed_from_u64(seed));
    let js = (0..n)
        .map(|k| JParticle {
            mass: set.mass[k],
            t0: 0.0,
            pos: set.pos[k],
            vel: set.vel[k],
            acc: set.pos[k] * -0.5,
            jerk: set.vel[k] * -0.5,
            snap: Vec3::new(0.01, -0.02, 0.005),
        })
        .collect();
    (set, js)
}

/// Run every probe; `budget_s` is the wall the probes may take in total.
pub fn run_all(ctx: &Ctx, budget_s: f64) -> BTreeMap<String, f64> {
    let mut sink = Sink {
        slice: Duration::from_secs_f64(budget_s / SLICES),
        metrics: BTreeMap::new(),
    };
    chip_system::run(ctx, &mut sink);
    small::run(ctx, &mut sink);
    net::run(ctx, &mut sink);
    farm::run(ctx, &mut sink);
    sink.metrics
}
