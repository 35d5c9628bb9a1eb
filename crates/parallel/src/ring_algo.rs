//! The ring ("systolic") algorithm (§3.2).
//!
//! Non-overlapping subsets: "let each processor have a non-overlapping
//! subset of the system, so that one particle resides only in one
//! processor … we need to pass around the particles in the current
//! blockstep, so that each processor can calculate the forces from its own
//! particles to particles on other processors."  (Dorband, Hemsendorf &
//! Merritt 2003 is the paper's systolic reference.)
//!
//! Here the full force round is implemented: every rank's subset acts as
//! the travelling i-block; in round k each rank computes the force of its
//! resident j-subset on the block currently visiting, then forwards the
//! block (with its partial sums) to the right neighbour.  After p rounds
//! every block has visited every rank; a final all-gather assembles the
//! global force vector.

use grape6_net::fabric::{allgather, run_ranks, Endpoint};
use grape6_net::link::LinkProfile;
use nbody_core::force::{pair_force, ForceResult};
use nbody_core::Vec3;

use crate::partition::chunk_ranges;

/// A travelling i-block: global indices, phase-space data, partial forces.
#[derive(Clone, Default)]
pub struct TravellingBlock {
    idx: Vec<usize>,
    pos: Vec<Vec3>,
    vel: Vec<Vec3>,
    forces: Vec<ForceResult>,
}

impl TravellingBlock {
    fn wire_bytes(&self) -> usize {
        // idx 8 + pos 24 + vel 24 + force 56 per particle.
        self.idx.len() * 112
    }
}

/// Compute acceleration/jerk/potential on every particle with the ring
/// algorithm over `p` ranks; returns the force vector (identical content on
/// every rank; rank 0's copy is returned) and the per-rank virtual clocks.
///
/// `t_pair` is the virtual cost of one pairwise interaction on a rank.
pub fn ring_forces(
    mass: &[f64],
    pos: &[Vec3],
    vel: &[Vec3],
    eps2: f64,
    p: usize,
    link: LinkProfile,
    t_pair: f64,
) -> (Vec<ForceResult>, Vec<f64>) {
    let n = mass.len();
    let ranges = chunk_ranges(n, p);
    let results = run_ranks::<TravellingBlock, (Vec<ForceResult>, f64), _>(p, link, |mut ep| {
        let r = ep.rank();
        let mine = ranges[r].clone();
        // Start with my own subset as the travelling block.
        let mut block = TravellingBlock {
            idx: mine.clone().collect(),
            pos: mine.clone().map(|i| pos[i]).collect(),
            vel: mine.clone().map(|i| vel[i]).collect(),
            forces: vec![ForceResult::default(); mine.len()],
        };
        let right = (r + 1) % p;
        let left = (r + p - 1) % p;
        for round in 0..p {
            accumulate(&mut block, &mine, mass, pos, vel, eps2, &mut ep, t_pair);
            // Forward — the last round's shift returns each block home.
            if p > 1 {
                let bytes = block.wire_bytes();
                ep.send_lossy(right, block, bytes);
                block = ep.recv_checked(left).expect("lossless fabric");
            }
            let _ = round;
        }
        // Blocks are home: assemble the global vector.
        let gathered = allgather(&mut ep, block, 112 * (n / p + 1)).expect("lossless fabric");
        let mut out = vec![ForceResult::default(); n];
        for b in &gathered {
            for (k, &gi) in b.idx.iter().enumerate() {
                out[gi] = b.forces[k];
            }
        }
        (out, ep.clock())
    });
    let clocks = results.iter().map(|(_, c)| *c).collect();
    (results.into_iter().next().unwrap().0, clocks)
}

/// One systolic compute step: my j-subset acting on the visiting block.
#[allow(clippy::too_many_arguments)]
fn accumulate(
    block: &mut TravellingBlock,
    mine: &std::ops::Range<usize>,
    mass: &[f64],
    pos: &[Vec3],
    vel: &[Vec3],
    eps2: f64,
    ep: &mut Endpoint<TravellingBlock>,
    t_pair: f64,
) {
    let mut interactions = 0u64;
    for (k, &gi) in block.idx.iter().enumerate() {
        let (bp, bv) = (block.pos[k], block.vel[k]);
        let f = &mut block.forces[k];
        for j in mine.clone() {
            if j == gi {
                continue; // the self-pair is skipped, as in the serial code
            }
            let (a, jr, p_) = pair_force(pos[j] - bp, vel[j] - bv, mass[j], eps2);
            f.acc += a;
            f.jerk += jr;
            f.pot += p_;
            interactions += 1;
        }
    }
    ep.advance(interactions as f64 * t_pair);
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_core::force::direct_all;
    use nbody_core::ic::plummer::plummer_model;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn system(n: usize) -> (Vec<f64>, Vec<Vec3>, Vec<Vec3>) {
        let s = plummer_model(n, &mut StdRng::seed_from_u64(99));
        (s.mass, s.pos, s.vel)
    }

    #[test]
    fn matches_direct_summation_for_various_p() {
        let (mass, pos, vel) = system(61); // deliberately not divisible
        let eps2 = 1e-4;
        let want = direct_all(&mass, &pos, &vel, eps2);
        for p in [1usize, 2, 3, 4, 7] {
            let (got, clocks) = ring_forces(&mass, &pos, &vel, eps2, p, LinkProfile::ideal(), 1e-9);
            assert_eq!(clocks.len(), p);
            for i in 0..61 {
                let d = (got[i].acc - want[i].acc).norm();
                assert!(d < 1e-11, "p={p} i={i}: Δacc {d:e}");
                assert!((got[i].pot - want[i].pot).abs() < 1e-11);
                assert!((got[i].jerk - want[i].jerk).norm() < 1e-11);
            }
        }
    }

    #[test]
    fn compute_time_splits_across_ranks() {
        let (mass, pos, vel) = system(64);
        let t_pair = 1e-6;
        let (_, c1) = ring_forces(&mass, &pos, &vel, 0.0, 1, LinkProfile::ideal(), t_pair);
        let (_, c4) = ring_forces(&mass, &pos, &vel, 0.0, 4, LinkProfile::ideal(), t_pair);
        let t1 = c1[0];
        let t4 = c4.iter().cloned().fold(0.0, f64::max);
        // Ideal link: 4 ranks ≈ 4× faster on the O(N²) work.
        let speedup = t1 / t4;
        assert!(speedup > 3.5 && speedup < 4.5, "speedup {speedup}");
    }

    #[test]
    fn slow_link_shows_communication_cost() {
        let (mass, pos, vel) = system(64);
        let slow = LinkProfile {
            latency: 1e-3,
            bandwidth: 1e6,
            overhead: 0.0,
        };
        let (_, cf) = ring_forces(&mass, &pos, &vel, 0.0, 4, LinkProfile::ideal(), 1e-9);
        let (_, cs) = ring_forces(&mass, &pos, &vel, 0.0, 4, slow, 1e-9);
        let fast = cf.iter().cloned().fold(0.0, f64::max);
        let slow_t = cs.iter().cloned().fold(0.0, f64::max);
        assert!(
            slow_t > fast + 3.0e-3,
            "slow link must pay ring latency: {slow_t} vs {fast}"
        );
    }
}
