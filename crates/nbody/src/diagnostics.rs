//! Conserved-quantity bookkeeping.
//!
//! Every engine in this workspace (f64 direct, simulated GRAPE-6, treecode)
//! is validated the same way the original machine was: integrate, watch the
//! invariants.  Energy conservation is the canonical N-body correctness
//! check; the paper's §3.4 reproducibility argument ("exactly the same
//! results on machines with different sizes") is checked at the bit level
//! elsewhere, but energy drift is what tells you the *integration* is right.

use crate::fanout;
use crate::particle::ParticleSet;
use crate::vec3::Vec3;

/// Energy decomposition of a snapshot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Energy {
    /// Kinetic energy `½Σmv²`.
    pub kinetic: f64,
    /// Potential energy `−½ΣΣ m m / √(r² + ε²)` (each pair counted once).
    pub potential: f64,
}

impl Energy {
    /// Total energy.
    pub fn total(&self) -> f64 {
        self.kinetic + self.potential
    }

    /// Virial ratio `Q = T / |W|` (½ in equilibrium).
    pub fn virial_ratio(&self) -> f64 {
        self.kinetic / self.potential.abs()
    }
}

/// Compute the exact (f64, softened) energy of a snapshot.  O(N²), parallel
/// over particles for large N.
pub fn energy(set: &ParticleSet, eps2: f64) -> Energy {
    let kinetic = set.kinetic_energy();
    let n = set.n();
    let pot_of = |i: usize| {
        let mut w = 0.0;
        for j in (i + 1)..n {
            let r2 = (set.pos[j] - set.pos[i]).norm2() + eps2;
            w -= set.mass[i] * set.mass[j] / r2.sqrt();
        }
        w
    };
    // Per-particle partials are collected by index and added in ascending
    // order here, so the sum is the sequential one bit for bit however many
    // threads computed the partials.
    let potential = if n > 512 {
        fanout::map_range(n, pot_of).iter().sum()
    } else {
        (0..n).map(pot_of).sum()
    };
    Energy { kinetic, potential }
}

/// Per-particle density estimates by the Casertano & Hut (1985) k-th
/// nearest-neighbour method: `ρᵢ ∝ mᵢ₋ₗₒ𝒸ₐₗ / r_k³` with `k = 6`.
/// O(N²) neighbour search, parallel over particles for large N.
pub fn local_densities(set: &ParticleSet) -> Vec<f64> {
    const K: usize = 6;
    let n = set.n();
    let rho_of = |i: usize| -> f64 {
        if n <= K {
            return 0.0;
        }
        // Distances to all others; take the K-th smallest.
        let mut d2: Vec<f64> = (0..n)
            .filter(|&j| j != i)
            .map(|j| (set.pos[j] - set.pos[i]).norm2())
            .collect();
        d2.select_nth_unstable_by(K - 1, |a, b| a.partial_cmp(b).unwrap());
        let r_k = d2[K - 1].sqrt().max(1e-30);
        // Mass within the sphere ≈ (K−1) typical masses (CH85 drop the
        // outermost to reduce bias); use the mean particle mass.
        let m_mean = set.total_mass() / n as f64;
        (K - 1) as f64 * m_mean / r_k.powi(3)
    };
    if n > 512 {
        fanout::map_range(n, rho_of)
    } else {
        (0..n).map(rho_of).collect()
    }
}

/// Density centre (Casertano & Hut 1985): the ρ-weighted mean position —
/// a far more robust cluster centre than the COM once escapers exist.
pub fn density_center(set: &ParticleSet) -> Vec3 {
    let rho = local_densities(set);
    let wsum: f64 = rho.iter().sum();
    if wsum <= 0.0 {
        return set.center_of_mass();
    }
    set.pos.iter().zip(&rho).map(|(&p, &w)| p * w).sum::<Vec3>() / wsum
}

/// Core radius (Casertano & Hut 1985): the ρ-weighted rms distance from
/// the density centre — the quantity whose shrinkage signals core
/// collapse in collisional cluster runs.
pub fn core_radius(set: &ParticleSet) -> f64 {
    let rho = local_densities(set);
    let dc = {
        let wsum: f64 = rho.iter().sum();
        if wsum <= 0.0 {
            return 0.0;
        }
        set.pos.iter().zip(&rho).map(|(&p, &w)| p * w).sum::<Vec3>() / wsum
    };
    let wsum: f64 = rho.iter().sum();
    let s: f64 = set
        .pos
        .iter()
        .zip(&rho)
        .map(|(&p, &w)| w * (p - dc).norm2())
        .sum();
    (s / wsum).sqrt()
}

/// Total angular momentum `Σ m r × v`.
pub fn angular_momentum(set: &ParticleSet) -> Vec3 {
    set.mass
        .iter()
        .zip(set.pos.iter().zip(&set.vel))
        .map(|(&m, (&r, &v))| r.cross(v) * m)
        .sum()
}

/// Relative energy error between two snapshots' energies.
pub fn relative_energy_error(initial: &Energy, current: &Energy) -> f64 {
    ((current.total() - initial.total()) / initial.total()).abs()
}

/// Running tracker a simulation driver updates after every diagnostic
/// interval.
#[derive(Clone, Debug)]
pub struct ConservationTracker {
    initial: Energy,
    initial_l: Vec3,
    /// Worst relative energy error seen.
    pub max_energy_error: f64,
    /// Worst absolute angular-momentum drift seen.
    pub max_l_drift: f64,
}

impl ConservationTracker {
    /// Start tracking from the initial snapshot.
    pub fn new(set: &ParticleSet, eps2: f64) -> Self {
        Self {
            initial: energy(set, eps2),
            initial_l: angular_momentum(set),
            max_energy_error: 0.0,
            max_l_drift: 0.0,
        }
    }

    /// The energy measured at construction.
    pub fn initial_energy(&self) -> Energy {
        self.initial
    }

    /// Record a new snapshot; returns the current relative energy error.
    pub fn record(&mut self, set: &ParticleSet, eps2: f64) -> f64 {
        let e = energy(set, eps2);
        let err = relative_energy_error(&self.initial, &e);
        self.max_energy_error = self.max_energy_error.max(err);
        let drift = (angular_momentum(set) - self.initial_l).norm();
        self.max_l_drift = self.max_l_drift.max(drift);
        err
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn binary() -> ParticleSet {
        // Equal-mass circular binary, separation 1, G = 1: each mass ½,
        // orbital speed of each component = ½·√(M/r)·... worked out below.
        let mut s = ParticleSet::with_capacity(2);
        // Total mass 1, separation d = 1: relative orbit speed v = √(GM/d)=1;
        // each body moves at v/2 around the COM.
        s.push(0.5, Vec3::new(0.5, 0.0, 0.0), Vec3::new(0.0, 0.5, 0.0));
        s.push(0.5, Vec3::new(-0.5, 0.0, 0.0), Vec3::new(0.0, -0.5, 0.0));
        s
    }

    #[test]
    fn binary_energy_closed_form() {
        let e = energy(&binary(), 0.0);
        // T = ½(½·¼ + ½·¼) = ⅛ + ... = 0.25/2 = 0.125? T = ½Σmv² = ½(0.5·0.25 + 0.5·0.25) = 0.125
        assert!((e.kinetic - 0.125).abs() < 1e-15);
        // W = -m₁m₂/d = -0.25
        assert!((e.potential + 0.25).abs() < 1e-15);
        assert!((e.total() + 0.125).abs() < 1e-15);
        // Circular binary is virialised: Q = 0.5.
        assert!((e.virial_ratio() - 0.5).abs() < 1e-15);
    }

    #[test]
    fn fanned_out_diagnostics_are_bit_equal_to_the_sequential_ones() {
        use crate::ic::plummer::plummer_model;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let set = plummer_model(1024, &mut StdRng::seed_from_u64(23));
        let eps2 = 1.0 / 4096.0;
        // The sequential potential: per-particle partials added in
        // ascending index on one thread, as `n ≤ 512` computes it.
        let n = set.n();
        let want: f64 = (0..n)
            .map(|i| {
                let mut w = 0.0;
                for j in (i + 1)..n {
                    let r2 = (set.pos[j] - set.pos[i]).norm2() + eps2;
                    w -= set.mass[i] * set.mass[j] / r2.sqrt();
                }
                w
            })
            .sum();
        // From this thread the fan-outs take the pool (unless a test
        // beside this one holds it) …
        let (e, rho) = (energy(&set, eps2), local_densities(&set));
        assert_eq!(e.potential.to_bits(), want.to_bits());
        // … and from inside a task they find it busy and run sequentially
        // on the task's thread.
        for (e_seq, rho_seq) in
            fanout::map(0..2, |_, _| (energy(&set, eps2), local_densities(&set)))
        {
            assert_eq!(e_seq.potential.to_bits(), want.to_bits());
            assert_eq!(e_seq.kinetic.to_bits(), e.kinetic.to_bits());
            assert_eq!(rho_seq.len(), n);
            assert!(rho_seq
                .iter()
                .zip(&rho)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn angular_momentum_of_binary() {
        let l = angular_momentum(&binary());
        // L = 2 · m r v = 2 · 0.5·0.5·0.5 = 0.25 along z.
        assert!((l - Vec3::new(0.0, 0.0, 0.25)).norm() < 1e-15);
    }

    #[test]
    fn softening_reduces_binding() {
        let hard = energy(&binary(), 0.0);
        let soft = energy(&binary(), 0.25);
        assert!(soft.potential > hard.potential);
    }

    #[test]
    fn tracker_records_worst_error() {
        let mut set = binary();
        let mut tr = ConservationTracker::new(&set, 0.0);
        assert_eq!(tr.record(&set, 0.0), 0.0);
        // Perturb kinetic energy by 1%: |ΔE/E| = 0.01·T/|E| = 0.01
        set.vel[0] = set.vel[0] * 1.01;
        let err = tr.record(&set, 0.0);
        assert!(err > 0.0);
        assert_eq!(tr.max_energy_error, err);
        // Restoring doesn't lower the recorded max.
        set.vel[0] = Vec3::new(0.0, 0.5, 0.0);
        tr.record(&set, 0.0);
        assert_eq!(tr.max_energy_error, err);
    }

    #[test]
    fn density_center_tracks_the_dense_clump() {
        // A tight clump at x = +2 plus sparse background: the density
        // centre must sit near the clump even though the COM does not.
        let mut s = ParticleSet::with_capacity(64);
        for k in 0..32 {
            let a = k as f64 * 0.37;
            // Tight clump, radius 0.05.
            s.push(
                1.0 / 64.0,
                Vec3::new(2.0 + 0.05 * a.cos(), 0.05 * a.sin(), 0.01 * (k % 5) as f64),
                Vec3::ZERO,
            );
            // Sparse halo, radius ~5, centred at origin.
            s.push(
                1.0 / 64.0,
                Vec3::new(5.0 * (a * 1.7).cos(), 5.0 * (a * 2.3).sin(), 2.0 * a.sin()),
                Vec3::ZERO,
            );
        }
        let dc = density_center(&s);
        let com = s.center_of_mass();
        assert!((dc - Vec3::new(2.0, 0.0, 0.0)).norm() < 0.5, "dc = {dc:?}");
        assert!((dc - Vec3::new(2.0, 0.0, 0.0)).norm() < (com - Vec3::new(2.0, 0.0, 0.0)).norm());
    }

    #[test]
    fn core_radius_scales_with_the_core() {
        let mk = |scale: f64| -> ParticleSet {
            let mut s = ParticleSet::with_capacity(128);
            for k in 0..128 {
                let a = k as f64 * 0.61;
                let r = scale * (0.2 + 0.8 * ((k % 13) as f64 / 13.0));
                s.push(
                    1.0 / 128.0,
                    Vec3::new(
                        r * a.cos() * (0.5 * a).sin(),
                        r * a.sin() * (0.5 * a).sin(),
                        r * (0.5 * a).cos(),
                    ),
                    Vec3::ZERO,
                );
            }
            s
        };
        let small = core_radius(&mk(0.5));
        let big = core_radius(&mk(1.0));
        assert!(
            big > small * 1.5,
            "core radius should scale: {small} vs {big}"
        );
        assert!(small > 0.0);
    }

    #[test]
    fn tiny_systems_do_not_panic() {
        let mut s = ParticleSet::with_capacity(3);
        for k in 0..3 {
            s.push(1.0, Vec3::new(k as f64, 0.0, 0.0), Vec3::ZERO);
        }
        assert_eq!(local_densities(&s), vec![0.0; 3]);
        let _ = density_center(&s);
        assert_eq!(core_radius(&s), 0.0);
    }

    #[test]
    fn parallel_and_serial_potentials_agree() {
        // Cross the n > 512 threshold and compare against a serial sum.
        let mut s = ParticleSet::with_capacity(600);
        let mut x = 0.1f64;
        for i in 0..600 {
            x = (x * 997.0).fract();
            let y = ((i * 31 % 101) as f64) / 101.0;
            let z = ((i * 17 % 97) as f64) / 97.0;
            s.push(1.0 / 600.0, Vec3::new(x, y, z), Vec3::ZERO);
        }
        let par = energy(&s, 1e-4).potential;
        let mut ser = 0.0;
        for i in 0..600 {
            for j in (i + 1)..600 {
                let r2 = (s.pos[j] - s.pos[i]).norm2() + 1e-4;
                ser -= s.mass[i] * s.mass[j] / r2.sqrt();
            }
        }
        assert!((par - ser).abs() < 1e-12 * ser.abs());
    }
}
