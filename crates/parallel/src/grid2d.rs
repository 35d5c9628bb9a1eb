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
//! the communication model.  The row reduction is one
//! [`Frame::Data`](grape6_net::wire::Frame::Data) of force records per
//! off-diagonal rank; one wave, to which only the diagonal ranks
//! contribute, assembles the force vector on every rank.

use grape6_net::exchange::{recv_records, send_records};
use grape6_net::fabric::run_ranks;
use grape6_net::link::LinkProfile;
use grape6_net::transport::{Transport, TransportError, VirtualTransport};
use nbody_core::force::{pair_force, ForceResult};
use nbody_core::Vec3;

use crate::partition::chunk_ranges;
use crate::records::{check_block, force, force_record, gather_forces, FORCE_WORDS};

/// Compute the full force vector with the r×r grid algorithm on the
/// virtual-time fabric.
///
/// Returns the assembled forces (identical on every rank; rank 0's copy)
/// and the per-rank virtual clocks, rank-major by
/// `(i, j) = (rank / r, rank % r)`.
pub fn grid2d_forces(
    mass: &[f64],
    pos: &[Vec3],
    vel: &[Vec3],
    eps2: f64,
    r: usize,
    link: LinkProfile,
    t_pair: f64,
) -> (Vec<ForceResult>, Vec<f64>) {
    let results = run_ranks::<Vec<u8>, _, _>(r * r, link, |mut ep| {
        let mut tr = VirtualTransport::new(&mut ep);
        let forces = grid2d_rank(mass, pos, vel, eps2, &mut tr, |tr, k| {
            tr.endpoint().advance(k as f64 * t_pair)
        });
        // Every rank runs this code on a lossless fabric.
        (forces.expect("lossless fabric"), ep.clock())
    });
    let (mut forces, clocks): (Vec<_>, _) = results.into_iter().unzip();
    (forces.swap_remove(0), clocks)
}

/// One rank of the r×r grid over `tr` (r² ranks); returns the force on
/// every particle.  `charge(tr, k)` runs once, after the local partial
/// forces, with the count of pairwise interactions behind them.
///
/// # Panics
///
/// If the rank count is not a square.
pub fn grid2d_rank<T: Transport>(
    mass: &[f64],
    pos: &[Vec3],
    vel: &[Vec3],
    eps2: f64,
    tr: &mut T,
    mut charge: impl FnMut(&mut T, u64),
) -> Result<Vec<ForceResult>, TransportError> {
    let (n, p, rank) = (mass.len(), tr.n_ranks(), tr.rank());
    let r = p.isqrt();
    assert_eq!(r * r, p, "the 2-D grid needs a square rank count");
    let ranges = chunk_ranges(n, r);
    let (gi, gj) = (rank / r, rank % r);
    let targets = ranges[gi].clone();
    // Local O((N/r)²) partial computation.
    let mut partial = vec![ForceResult::default(); targets.len()];
    let mut interactions = 0u64;
    for (out, ti) in partial.iter_mut().zip(targets.clone()) {
        for sj in ranges[gj].clone() {
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
    charge(tr, interactions);
    // Row reduction onto the diagonal rank (gi, gi), summed in j order.
    let diag = gi * r + gi;
    let records = |forces: &[ForceResult]| -> Vec<_> {
        targets
            .clone()
            .zip(forces)
            .map(|(i, f)| force_record(i, f))
            .collect()
    };
    let mine = if rank != diag {
        send_records(tr, diag, &records(&partial))?;
        Vec::new() // only the diagonal ranks contribute to the assembly
    } else {
        for j in (0..r).filter(|&j| j != gi) {
            let incoming = recv_records(tr, gi * r + j)?;
            check_block(&incoming, targets.clone(), FORCE_WORDS)?;
            for (t, inc) in partial.iter_mut().zip(&incoming) {
                let inc = force(&inc.words);
                t.acc += inc.acc;
                t.jerk += inc.jerk;
                t.pot += inc.pot;
            }
        }
        records(&partial)
    };
    gather_forces(tr, n, mine)
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
