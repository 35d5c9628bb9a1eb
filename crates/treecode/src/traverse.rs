//! Force evaluation by tree traversal.
//!
//! The classic Barnes–Hut multipole acceptance criterion: a cell of edge
//! length `ℓ` at distance `d` from the target is accepted as a single
//! monopole when `ℓ/d < θ`; otherwise it is opened.  Forces are softened
//! with the same Plummer kernel as the direct code, so accuracy
//! comparisons are apples-to-apples.

use nbody_core::fanout;
use nbody_core::force::pair_force;
use nbody_core::Vec3;

use crate::tree::{Octree, NO_CHILD};

/// Multipole expansion order used for accepted cells.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MultipoleOrder {
    /// Centre-of-mass monopole only (classic Barnes–Hut).
    #[default]
    Monopole,
    /// Monopole + traceless quadrupole — cuts the cell error by roughly
    /// another power of (ℓ/d), the first step towards the octupole
    /// expansion of McMillan & Aarseth (1993).
    Quadrupole,
}

/// Quadrupole acceleration and potential at displacement `r` (pointing
/// from the target to the cell COM) for packed traceless `q`:
/// `φ = −(rᵀQr)/(2r⁵)`, `a = ∇_r φ = −Qr/r⁵ + (5/2)(rᵀQr) r/r⁷`.
#[inline]
fn quad_terms(q: &[f64; 6], r: Vec3) -> (Vec3, f64) {
    let r2 = r.norm2();
    let r1 = r2.sqrt();
    let r5 = r2 * r2 * r1;
    let r7 = r5 * r2;
    let qr = Vec3::new(
        q[0] * r.x + q[3] * r.y + q[4] * r.z,
        q[3] * r.x + q[1] * r.y + q[5] * r.z,
        q[4] * r.x + q[5] * r.y + q[2] * r.z,
    );
    let rqr = r.dot(qr);
    let acc = qr * (-1.0 / r5) + r * (2.5 * rqr / r7);
    let pot = -0.5 * rqr / r5;
    (acc, pot)
}

/// Interaction counters from a traversal (cost model input).
#[derive(Clone, Copy, Debug, Default)]
pub struct TraverseStats {
    /// Particle–cell (monopole) interactions.
    pub cell_interactions: u64,
    /// Particle–particle (leaf) interactions.
    pub leaf_interactions: u64,
}

impl TraverseStats {
    /// Total interaction count.
    pub fn total(&self) -> u64 {
        self.cell_interactions + self.leaf_interactions
    }
}

/// Acceleration + potential on one target position.
///
/// `skip` is the tree-order index of the target itself (`usize::MAX` for
/// external probes), excluded from leaf interactions.
pub fn force_on(
    tree: &Octree,
    target: Vec3,
    skip: usize,
    theta: f64,
    eps2: f64,
    stats: &mut TraverseStats,
) -> (Vec3, f64) {
    force_on_ord(
        tree,
        target,
        skip,
        theta,
        eps2,
        MultipoleOrder::Monopole,
        stats,
    )
}

/// [`force_on`] with a selectable multipole order.
pub fn force_on_ord(
    tree: &Octree,
    target: Vec3,
    skip: usize,
    theta: f64,
    eps2: f64,
    order: MultipoleOrder,
    stats: &mut TraverseStats,
) -> (Vec3, f64) {
    let mut acc = Vec3::ZERO;
    let mut pot = 0.0;
    let theta2 = theta * theta;
    // Explicit stack: avoids recursion overhead and depth limits.
    let mut stack: Vec<u32> = Vec::with_capacity(64);
    stack.push(0);
    while let Some(ni) = stack.pop() {
        let node = &tree.nodes[ni as usize];
        if node.mass == 0.0 {
            continue;
        }
        let d = node.com - target;
        let d2 = d.norm2();
        let size = 2.0 * node.half;
        // Accept if (ℓ/d)² < θ² and the target is not inside the cell.
        let accept = !node.is_leaf() && size * size < theta2 * d2;
        if accept {
            let (a, _, p) = pair_force(d, Vec3::ZERO, node.mass, eps2);
            acc += a;
            pot += p;
            if order == MultipoleOrder::Quadrupole {
                // Softening is negligible at accepted-cell distances
                // (ℓ/d < θ ⇒ d ≫ ε for sane ε); the quadrupole term is
                // evaluated unsoftened, as production treecodes do.
                let (aq, pq) = quad_terms(tree.quadrupole(ni as usize), d);
                acc += aq;
                pot += pq;
            }
            stats.cell_interactions += 1;
        } else if node.is_leaf() {
            for k in node.start as usize..node.end as usize {
                if k == skip {
                    continue;
                }
                let (a, _, p) = pair_force(tree.pos[k] - target, Vec3::ZERO, tree.mass[k], eps2);
                acc += a;
                pot += p;
                stats.leaf_interactions += 1;
            }
        } else {
            for c in node.children {
                if c != NO_CHILD {
                    stack.push(c);
                }
            }
        }
    }
    (acc, pot)
}

/// Accelerations and potentials on every particle (original index order).
/// Parallel over targets; returns the summed traversal statistics.
pub fn tree_forces(tree: &Octree, theta: f64, eps2: f64) -> (Vec<Vec3>, Vec<f64>, TraverseStats) {
    tree_forces_ord(tree, theta, eps2, MultipoleOrder::Monopole)
}

/// [`tree_forces`] with a selectable multipole order.
pub fn tree_forces_ord(
    tree: &Octree,
    theta: f64,
    eps2: f64,
    order: MultipoleOrder,
) -> (Vec<Vec3>, Vec<f64>, TraverseStats) {
    let n = tree.n();
    let results: Vec<(Vec3, f64, TraverseStats)> = fanout::map_range(n, |k| {
        let mut st = TraverseStats::default();
        let (a, p) = force_on_ord(tree, tree.pos[k], k, theta, eps2, order, &mut st);
        (a, p, st)
    });
    let mut acc = vec![Vec3::ZERO; n];
    let mut pot = vec![0.0; n];
    let mut stats = TraverseStats::default();
    for (k, (a, p, st)) in results.into_iter().enumerate() {
        let orig = tree.order[k] as usize;
        acc[orig] = a;
        pot[orig] = p;
        stats.cell_interactions += st.cell_interactions;
        stats.leaf_interactions += st.leaf_interactions;
    }
    (acc, pot, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeConfig;
    use nbody_core::force::direct_all;
    use nbody_core::ic::plummer::plummer_model;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample(n: usize, seed: u64) -> (Vec<f64>, Vec<Vec3>, Vec<Vec3>) {
        let s = plummer_model(n, &mut StdRng::seed_from_u64(seed));
        (s.mass, s.pos, s.vel)
    }

    #[test]
    fn theta_zero_is_exact() {
        let (mass, pos, vel) = sample(200, 1);
        let eps2 = 1e-4;
        let tree = Octree::build(&mass, &pos, &TreeConfig::default());
        let (acc, pot, _) = tree_forces(&tree, 0.0, eps2);
        let want = direct_all(&mass, &pos, &vel, eps2);
        for i in 0..200 {
            assert!((acc[i] - want[i].acc).norm() < 1e-11, "i={i}");
            assert!((pot[i] - want[i].pot).abs() < 1e-11);
        }
    }

    #[test]
    fn accuracy_degrades_gracefully_with_theta() {
        let (mass, pos, vel) = sample(1000, 2);
        let eps2 = 1e-4;
        let tree = Octree::build(&mass, &pos, &TreeConfig::default());
        let want = direct_all(&mass, &pos, &vel, eps2);
        let rms_err = |theta: f64| -> f64 {
            let (acc, _, _) = tree_forces(&tree, theta, eps2);
            let mut s = 0.0;
            for i in 0..1000 {
                let rel = (acc[i] - want[i].acc).norm() / want[i].acc.norm();
                s += rel * rel;
            }
            (s / 1000.0).sqrt()
        };
        let e_small = rms_err(0.3);
        let e_mid = rms_err(0.6);
        let e_big = rms_err(1.0);
        assert!(
            e_small < e_mid && e_mid < e_big,
            "{e_small} {e_mid} {e_big}"
        );
        assert!(e_small < 2e-3, "θ=0.3 rms error {e_small}");
        assert!(e_big < 0.1, "θ=1.0 rms error {e_big}");
    }

    #[test]
    fn interaction_count_scales_n_log_n() {
        let eps2 = 1e-4;
        let count = |n: usize| -> f64 {
            let (mass, pos, _) = sample(n, 3);
            let tree = Octree::build(&mass, &pos, &TreeConfig::default());
            let (_, _, st) = tree_forces(&tree, 0.6, eps2);
            st.total() as f64
        };
        let c1 = count(1000);
        let c4 = count(4000);
        // O(N log N)-ish: ratio well below the direct-summation 16 (leaf
        // granularity and the Plummer core push it above the ideal 4.8).
        let ratio = c4 / c1;
        assert!(ratio > 3.5 && ratio < 11.0, "scaling ratio {ratio}");
        // And far below the direct count.
        assert!(c4 < (4000.0f64 * 3999.0) * 0.5);
    }

    #[test]
    fn quadrupole_beats_monopole_at_fixed_theta() {
        let (mass, pos, vel) = sample(1500, 9);
        let eps2 = 1e-4;
        let tree = Octree::build(&mass, &pos, &TreeConfig::default());
        let want = direct_all(&mass, &pos, &vel, eps2);
        let rms = |order: MultipoleOrder| -> f64 {
            let (acc, _, _) = tree_forces_ord(&tree, 0.7, eps2, order);
            let mut s = 0.0;
            for i in 0..1500 {
                let rel = (acc[i] - want[i].acc).norm() / want[i].acc.norm();
                s += rel * rel;
            }
            (s / 1500.0).sqrt()
        };
        let mono = rms(MultipoleOrder::Monopole);
        let quad = rms(MultipoleOrder::Quadrupole);
        assert!(
            quad < mono * 0.6,
            "quadrupole rms {quad:e} should clearly beat monopole {mono:e}"
        );
    }

    #[test]
    fn quadrupole_exact_for_distant_dipole_free_pair() {
        // Two equal masses symmetric about the origin: monopole at the COM
        // misses the quadrupole field entirely; the quadrupole term must
        // recover it to O((ℓ/d)²) relative accuracy.
        let mass = vec![0.5, 0.5];
        let pos = vec![Vec3::new(0.1, 0.0, 0.0), Vec3::new(-0.1, 0.0, 0.0)];
        // leaf_capacity 1 forces the root to be an internal cell, so the
        // huge θ below accepts it as a multipole instead of summing leaves.
        let cfg = TreeConfig {
            leaf_capacity: 1,
            ..TreeConfig::default()
        };
        let tree = Octree::build(&mass, &pos, &cfg);
        let probe = Vec3::new(0.0, 2.0, 0.0);
        // Exact field.
        let mut exact = Vec3::ZERO;
        for k in 0..2 {
            let (a, _, _) = pair_force(pos[k] - probe, Vec3::ZERO, mass[k], 0.0);
            exact += a;
        }
        let mut st = TraverseStats::default();
        // Huge θ forces acceptance of the root cell.
        let (a_mono, _) = force_on_ord(
            &tree,
            probe,
            usize::MAX,
            10.0,
            0.0,
            MultipoleOrder::Monopole,
            &mut st,
        );
        let (a_quad, _) = force_on_ord(
            &tree,
            probe,
            usize::MAX,
            10.0,
            0.0,
            MultipoleOrder::Quadrupole,
            &mut st,
        );
        let err_mono = (a_mono - exact).norm() / exact.norm();
        let err_quad = (a_quad - exact).norm() / exact.norm();
        assert!(
            err_quad < err_mono / 10.0,
            "quad err {err_quad:e} vs mono err {err_mono:e}"
        );
    }

    #[test]
    fn external_probe_uses_all_particles() {
        let (mass, pos, _) = sample(100, 4);
        let tree = Octree::build(&mass, &pos, &TreeConfig::default());
        let probe = Vec3::new(50.0, 0.0, 0.0); // far away: single monopole
        let mut st = TraverseStats::default();
        let (acc, pot) = force_on(&tree, probe, usize::MAX, 0.6, 0.0, &mut st);
        // Far-field: matches a point mass at the COM.
        let m: f64 = mass.iter().sum();
        let want = pair_force(tree.root().com - probe, Vec3::ZERO, m, 0.0);
        assert!((acc - want.0).norm() / want.0.norm() < 1e-4);
        assert!((pot - want.2).abs() / want.2.abs() < 1e-4);
    }
}
