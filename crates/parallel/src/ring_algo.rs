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
//! block (with its partial sums) to the right neighbour as one
//! [`Frame::Data`](grape6_net::wire::Frame::Data) of records.  After p
//! rounds every block is home, and one wave assembles the global force
//! vector on every rank.

use grape6_net::exchange::{recv_records, send_records};
use grape6_net::fabric::run_ranks;
use grape6_net::link::LinkProfile;
use grape6_net::transport::{Transport, TransportError, VirtualTransport};
use grape6_net::wire::JRecord;
use nbody_core::force::{pair_force, ForceResult};
use nbody_core::Vec3;

use crate::partition::chunk_ranges;
use crate::records::{check_block, force, force_words, gather_forces, vec3, FORCE_WORDS};

/// Words per travelling record: pos and vel (three each), then the
/// partial force.
const TRAVEL_WORDS: usize = 6 + FORCE_WORDS;

/// Compute acceleration/jerk/potential on every particle with the ring
/// algorithm over `p` ranks of the virtual-time fabric; returns the force
/// vector (identical content on every rank; rank 0's copy is returned)
/// and the per-rank virtual clocks.
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
    let results = run_ranks::<Vec<u8>, _, _>(p, link, |mut ep| {
        let mut tr = VirtualTransport::new(&mut ep);
        let forces = ring_rank(mass, pos, vel, eps2, &mut tr, |tr, k| {
            tr.endpoint().advance(k as f64 * t_pair)
        });
        // Every rank runs this code on a lossless fabric.
        (forces.expect("lossless fabric"), ep.clock())
    });
    let (mut forces, clocks): (Vec<_>, _) = results.into_iter().unzip();
    (forces.swap_remove(0), clocks)
}

/// One rank of the ring algorithm over `tr`; returns the force on every
/// particle.  `charge(tr, k)` runs after each round with the count of
/// pairwise interactions this rank computed in it (virtual time; a real
/// backend has spent real time).
pub fn ring_rank<T: Transport>(
    mass: &[f64],
    pos: &[Vec3],
    vel: &[Vec3],
    eps2: f64,
    tr: &mut T,
    mut charge: impl FnMut(&mut T, u64),
) -> Result<Vec<ForceResult>, TransportError> {
    let (n, p, rank) = (mass.len(), tr.n_ranks(), tr.rank());
    let ranges = chunk_ranges(n, p);
    let mine = ranges[rank].clone();
    // Start with my own subset as the travelling block.
    let zero = ForceResult::default();
    let mut block: Vec<JRecord> = mine
        .clone()
        .map(|i| travelling(i, pos, vel, &zero))
        .collect();
    for shift in 1..=p {
        let mut interactions = 0u64;
        for rec in &mut block {
            let gi = rec.index as usize;
            let (bp, bv) = (vec3(&rec.words), vec3(&rec.words[3..]));
            let mut f = force(&rec.words[6..]);
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
            rec.words.splice(6.., force_words(&f));
        }
        charge(tr, interactions);
        // Forward — the last shift returns each block home.
        if p > 1 {
            send_records(tr, (rank + 1) % p, &block)?;
            block = recv_records(tr, (rank + p - 1) % p)?;
            check_block(&block, ranges[(rank + p - shift) % p].clone(), TRAVEL_WORDS)?;
        }
    }
    // Blocks are home: keep their forces and assemble the global vector.
    for rec in &mut block {
        rec.words.drain(..6);
    }
    gather_forces(tr, n, block)
}

/// Particle `i` setting out with partial force `f`.
fn travelling(i: usize, pos: &[Vec3], vel: &[Vec3], f: &ForceResult) -> JRecord {
    let xyz = [pos[i], vel[i]].into_iter().flat_map(|v| [v.x, v.y, v.z]);
    JRecord {
        index: i as u64,
        words: xyz.map(f64::to_bits).chain(force_words(f)).collect(),
    }
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
