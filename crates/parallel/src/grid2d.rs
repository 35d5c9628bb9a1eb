//! The 2-D hybrid algorithm (Makino 2002; §3.2 of the paper).
//!
//! Ranks form an r×r grid; subset `i` of the particles is replicated along
//! grid row `i` (as targets) and subset `j` along grid column `j` (as
//! sources).  Rank (i,j) computes the forces of subset `j` on subset `i`;
//! the partial forces are summed along each row onto the diagonal rank
//! (i,i), which then owns the total force on subset `i`.  Per-rank
//! communication is O(N/r) — "the communication speed is improved by a
//! factor proportional to the square root of the number of processors",
//! the key property that made the 16-board cluster topology of fig. 2
//! work.
//!
//! GRAPE-6 implements the same dataflow in *hardware* (fig. 12: boards in
//! the same row store the same particles, columns receive the same
//! i-particles, the network boards reduce); this module is the host-grid
//! software variant, used both as an algorithm reference and to validate
//! the communication model.

use grape6_net::fabric::{allgather, run_ranks};
use grape6_net::link::LinkProfile;
use nbody_core::force::{pair_force, ForceResult};
use nbody_core::Vec3;

use crate::partition::chunk_ranges;

/// Wire payload: a vector of partial forces for one subset.
type Partial = Vec<ForceResult>;

/// Compute the full force vector with the r×r grid algorithm.
///
/// Returns the assembled forces (as seen by the diagonal ranks) and the
/// per-rank virtual clocks, rank-major by `(i, j) = (rank / r, rank % r)`.
pub fn grid2d_forces(
    mass: &[f64],
    pos: &[Vec3],
    vel: &[Vec3],
    eps2: f64,
    r: usize,
    link: LinkProfile,
    t_pair: f64,
) -> (Vec<ForceResult>, Vec<f64>) {
    assert!(r >= 1);
    let n = mass.len();
    let p = r * r;
    let ranges = chunk_ranges(n, r);
    let results = run_ranks::<Partial, (Option<Vec<ForceResult>>, f64), _>(p, link, |mut ep| {
        let rank = ep.rank();
        let (gi, gj) = (rank / r, rank % r);
        let targets = ranges[gi].clone();
        let sources = ranges[gj].clone();
        // Local O((N/r)²) partial computation.
        let mut partial: Partial = vec![ForceResult::default(); targets.len()];
        let mut interactions = 0u64;
        for (k, ti) in targets.clone().enumerate() {
            let out = &mut partial[k];
            for sj in sources.clone() {
                if sj == ti {
                    continue;
                }
                let (a, jr, p_) = pair_force(pos[sj] - pos[ti], vel[sj] - vel[ti], mass[sj], eps2);
                out.acc += a;
                out.jerk += jr;
                out.pot += p_;
                interactions += 1;
            }
        }
        ep.advance(interactions as f64 * t_pair);
        // Row reduction onto the diagonal rank (gi, gi).
        let diag = gi * r + gi;
        let bytes = partial.len() * 56;
        let mine = if rank != diag {
            ep.send_lossy(diag, partial, bytes);
            Vec::new() // non-diagonals contribute empty payloads below
        } else {
            let mut total = partial;
            for j in 0..r {
                if j == gi {
                    continue;
                }
                let from = gi * r + j;
                let incoming = ep.recv_checked(from).expect("lossless fabric");
                for (t, inc) in total.iter_mut().zip(&incoming) {
                    t.acc += inc.acc;
                    t.jerk += inc.jerk;
                    t.pot += inc.pot;
                }
            }
            total
        };
        // Everyone participates in the assembly allgather (only diagonal
        // payloads carry data).
        let gathered = allgather(
            &mut ep,
            mine.clone(),
            if mine.is_empty() { 8 } else { bytes },
        )
        .expect("lossless fabric");
        if rank != diag {
            return (None, ep.clock());
        }
        let mut out = vec![ForceResult::default(); n];
        for (src_rank, part) in gathered.iter().enumerate() {
            let (si, sj) = (src_rank / r, src_rank % r);
            if si != sj {
                continue;
            }
            for (k, v) in part.iter().enumerate() {
                out[ranges[si].start + k] = *v;
            }
        }
        (Some(out), ep.clock())
    });
    let clocks: Vec<f64> = results.iter().map(|(_, c)| *c).collect();
    let forces = results
        .into_iter()
        .find_map(|(f, _)| f)
        .expect("diagonal rank 0 assembles the force vector");
    (forces, clocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_core::force::direct_all;
    use nbody_core::ic::plummer::plummer_model;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn system(n: usize) -> (Vec<f64>, Vec<Vec3>, Vec<Vec3>) {
        let s = plummer_model(n, &mut StdRng::seed_from_u64(4242));
        (s.mass, s.pos, s.vel)
    }

    #[test]
    fn matches_direct_summation() {
        let (mass, pos, vel) = system(53);
        let eps2 = 2e-4;
        let want = direct_all(&mass, &pos, &vel, eps2);
        for r in [1usize, 2, 3, 4] {
            let (got, clocks) =
                grid2d_forces(&mass, &pos, &vel, eps2, r, LinkProfile::ideal(), 1e-9);
            assert_eq!(clocks.len(), r * r);
            for i in 0..53 {
                let d = (got[i].acc - want[i].acc).norm();
                assert!(d < 1e-11, "r={r} i={i}: Δacc {d:e}");
                assert!((got[i].pot - want[i].pot).abs() < 1e-11);
            }
        }
    }

    #[test]
    fn compute_scales_with_r_squared() {
        let (mass, pos, vel) = system(96);
        let t_pair = 1e-6;
        let slowest = |r: usize| -> f64 {
            let (_, clocks) =
                grid2d_forces(&mass, &pos, &vel, 0.0, r, LinkProfile::ideal(), t_pair);
            clocks.iter().cloned().fold(0.0, f64::max)
        };
        let t1 = slowest(1);
        let t2 = slowest(2);
        let t4 = slowest(4);
        // Compute work per rank drops as 1/r²; the reduction/gather costs
        // are free on an ideal link.
        assert!(t1 / t2 > 3.0, "r=2 speedup {}", t1 / t2);
        assert!(t1 / t4 > 10.0, "r=4 speedup {}", t1 / t4);
    }

    #[test]
    fn per_rank_communication_is_o_n_over_r() {
        // With a pure-bandwidth link, doubling r roughly halves the wire
        // time of the reduction step on the critical path per rank pair.
        let (mass, pos, vel) = system(128);
        let link = LinkProfile {
            latency: 0.0,
            bandwidth: 1.0e6,
            overhead: 0.0,
        };
        let comm_time = |r: usize| -> f64 {
            // Disable compute cost to isolate communication.
            let (_, clocks) = grid2d_forces(&mass, &pos, &vel, 0.0, r, link, 0.0);
            clocks.iter().cloned().fold(0.0, f64::max)
        };
        let c2 = comm_time(2);
        let c4 = comm_time(4);
        // O(N/r) per-rank payloads: the r=4 grid must not pay more than
        // the r=2 grid despite having 4× the ranks.
        assert!(
            c4 < c2 * 1.5,
            "grid comm should not blow up with r: c2={c2} c4={c4}"
        );
    }
}
