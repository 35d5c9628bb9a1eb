//! The 2-D hardware network of GRAPE units (paper fig. 12 and §3.2).
//!
//! "Instead of two-dimensional grid of host processors, we can construct a
//! two-dimensional grid of GRAPE hardwares with orthogonal broadcast
//! networks.  The GRAPE hardwares in the same row store the same data to
//! their particle memories.  When they calculate the forces, GRAPEs in the
//! same column receive the same particles and calculate forces on them
//! from particles in the memory.  The calculated results on boards in the
//! same column are then summed and returned to the host."
//!
//! Concretely, for an `r × c` grid:
//!
//! * the j-particles are divided into `r` subsets; subset `k` is
//!   **replicated** across every unit of row `k`;
//! * the hosts drive `c` independent i-blocks, one per column — the
//!   machine's i-parallelism is `48·c`;
//! * the force on column `q`'s block is the exact block-FP sum down
//!   column `q` (over the `r` j-subsets).
//!
//! Because the reduction is block floating point, the result is identical
//! to a flat single-unit machine holding all the j-particles — tested
//! bit-for-bit below — while each unit streams only `N/r` particles per
//! pass and `c` blocks are served concurrently.

use grape6_arith::blockfp::BlockFpError;
use grape6_chip::pipeline::{ExpSet, HwIParticle, PartialForce};
use nbody_core::fanout;
use nbody_core::force::JParticle;

use crate::unit::{GrapeUnit, LoadError};

/// An `r × c` grid of GRAPE units behind orthogonal broadcast networks.
#[derive(Clone, Debug)]
pub struct GridNetwork<U> {
    units: Vec<U>, // row-major: unit (row, col) at index row*cols + col
    rows: usize,
    cols: usize,
    used: usize,
    last_pass: u64,
    total: u64,
    /// Reduction latency per column merge, in cycles (network-board hop).
    pub reduction_latency: u64,
}

impl<U: GrapeUnit> GridNetwork<U> {
    /// Assemble a grid from `rows·cols` units (row-major order).
    pub fn new(units: Vec<U>, rows: usize, cols: usize) -> Self {
        assert!(rows >= 1 && cols >= 1);
        assert_eq!(units.len(), rows * cols, "grid shape mismatch");
        Self {
            units,
            rows,
            cols,
            used: 0,
            last_pass: 0,
            total: 0,
            reduction_latency: crate::ensemble::DEFAULT_REDUCTION_LATENCY,
        }
    }

    /// Grid rows (j-subsets).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grid columns (concurrent i-blocks).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total i-particles served in parallel (48 per column unit).
    pub fn i_parallelism(&self) -> usize {
        self.cols * 48
    }

    /// j-capacity: each row holds a distinct subset (replicated over its
    /// columns), so capacity is the per-unit capacity times `rows`.
    pub fn capacity(&self) -> usize {
        let per_unit = self.units[0].capacity();
        per_unit * self.rows
    }

    /// j-particles loaded.
    pub fn n_j(&self) -> usize {
        self.used
    }

    /// Broadcast the system time to every unit.
    pub fn set_time(&mut self, t: f64) {
        for u in &mut self.units {
            u.set_time(t);
        }
    }

    /// Load j-particle `addr`: row `addr % rows` stores it **in every
    /// column** (the row broadcast network writes all memories at once).
    pub fn load_j(&mut self, addr: usize, p: &JParticle) -> Result<(), LoadError> {
        let row = addr % self.rows;
        let local = addr / self.rows;
        for col in 0..self.cols {
            self.units[row * self.cols + col]
                .load_j(local, p)
                .map_err(|e| match e {
                    LoadError::NoActiveChildren { .. } => LoadError::NoActiveChildren { addr },
                    LoadError::CapacityExceeded { .. } => LoadError::CapacityExceeded {
                        addr,
                        capacity: self.capacity(),
                    },
                })?;
        }
        self.used = self.used.max(addr + 1);
        Ok(())
    }

    /// One grid pass: column `q` computes forces on `blocks[q]` (≤ 48
    /// i-particles each) from **all** j-particles.  Returns the per-column
    /// results.
    pub fn compute_grid(
        &mut self,
        blocks: &[Vec<HwIParticle>],
        exps: &[Vec<ExpSet>],
    ) -> Result<Vec<Vec<PartialForce>>, BlockFpError> {
        assert_eq!(blocks.len(), self.cols, "one i-block per column");
        assert_eq!(exps.len(), self.cols);
        let rows = self.rows;
        let cols = self.cols;
        // Columns are independent pipelines; compute them in parallel.
        // Split `units` into per-column mutable views via chunking rows.
        let results: Vec<Result<Vec<PartialForce>, BlockFpError>> = {
            // Reorganise &mut access: collect raw column indices first.
            let mut per_col: Vec<Vec<&mut U>> = (0..cols).map(|_| Vec::new()).collect();
            for (idx, u) in self.units.iter_mut().enumerate() {
                per_col[idx % cols].push(u);
            }
            fanout::map(per_col, |q, col_units| {
                let block = &blocks[q];
                let e = &exps[q];
                let mut acc: Option<Vec<PartialForce>> = None;
                for u in col_units {
                    let part = u.compute_block(block, e)?;
                    match &mut acc {
                        None => acc = Some(part),
                        Some(a) => {
                            for (x, y) in a.iter_mut().zip(&part) {
                                x.merge(y)?;
                            }
                        }
                    }
                }
                Ok(acc.unwrap_or_default())
            })
        };
        // Critical path: slowest unit + one reduction per row joined.
        let slowest = self
            .units
            .iter()
            .map(|u| u.last_pass_cycles())
            .max()
            .unwrap_or(0);
        self.last_pass = slowest + self.reduction_latency * (rows.max(1) as u64 - 1).max(1);
        self.total += self.last_pass;
        results.into_iter().collect()
    }

    /// Cycles of the most recent grid pass (critical path).
    pub fn last_pass_cycles(&self) -> u64 {
        self.last_pass
    }

    /// Accumulated critical-path cycles.
    pub fn total_cycles(&self) -> u64 {
        self.total
    }

    /// Total interactions across all units.
    pub fn total_interactions(&self) -> u64 {
        self.units.iter().map(|u| u.total_interactions()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit::ChipUnit;
    use grape6_chip::chip::{Chip, ChipConfig};
    use nbody_core::Vec3;

    fn chips(n: usize) -> Vec<ChipUnit> {
        (0..n)
            .map(|_| ChipUnit::new(Chip::new(ChipConfig::default())))
            .collect()
    }

    fn particle(k: usize) -> JParticle {
        let a = k as f64 * 0.29;
        JParticle {
            mass: 0.004 + 0.0001 * (k % 9) as f64,
            pos: Vec3::new(a.sin(), (1.9 * a).cos(), 0.07 * (k % 13) as f64 - 0.4),
            vel: Vec3::new(0.02 * a.cos(), 0.0, -0.02 * a.sin()),
            ..Default::default()
        }
    }

    fn blocks_for(cols: usize) -> (Vec<Vec<HwIParticle>>, Vec<Vec<ExpSet>>) {
        let mk = |seed: usize| -> Vec<HwIParticle> {
            (0..48)
                .map(|k| {
                    let p = particle(seed * 100 + k);
                    HwIParticle::from_host(p.pos, p.vel, 1e-4)
                })
                .collect()
        };
        let blocks: Vec<_> = (0..cols).map(mk).collect();
        let exps = vec![vec![ExpSet::from_magnitudes(5.0, 5.0, 5.0); 48]; cols];
        (blocks, exps)
    }

    #[test]
    fn grid_matches_flat_unit_bitwise() {
        // 2×2 grid vs a single chip: each column's result must equal the
        // flat machine's result on the same block, bit for bit.
        let n = 120;
        let mut grid = GridNetwork::new(chips(4), 2, 2);
        let mut flat = ChipUnit::new(Chip::new(ChipConfig::default()));
        for k in 0..n {
            grid.load_j(k, &particle(k)).unwrap();
            flat.load_j(k, &particle(k)).unwrap();
        }
        grid.set_time(0.0);
        flat.set_time(0.0);
        let (blocks, exps) = blocks_for(2);
        let got = grid.compute_grid(&blocks, &exps).unwrap();
        for q in 0..2 {
            let want = flat.compute_block(&blocks[q], &exps[q]).unwrap();
            for k in 0..48 {
                for c in 0..3 {
                    assert_eq!(got[q][k].acc[c].mant(), want[k].acc[c].mant());
                    assert_eq!(got[q][k].jerk[c].mant(), want[k].jerk[c].mant());
                }
                assert_eq!(got[q][k].pot.mant(), want[k].pot.mant());
            }
        }
    }

    #[test]
    fn rows_divide_j_work() {
        // 2 rows: each unit streams only half the particles per pass.
        let n = 200;
        let mut grid = GridNetwork::new(chips(2), 2, 1);
        for k in 0..n {
            grid.load_j(k, &particle(k)).unwrap();
        }
        let (blocks, exps) = blocks_for(1);
        grid.compute_grid(&blocks, &exps).unwrap();
        // Each chip streamed 100 j: depth 30 + 8·100 plus one reduction.
        assert_eq!(
            grid.last_pass_cycles(),
            30 + 800 + crate::ensemble::DEFAULT_REDUCTION_LATENCY
        );
    }

    #[test]
    fn columns_multiply_i_parallelism() {
        let grid = GridNetwork::new(chips(4), 1, 4);
        assert_eq!(grid.i_parallelism(), 192);
        let grid = GridNetwork::new(chips(4), 4, 1);
        assert_eq!(grid.i_parallelism(), 48);
    }

    #[test]
    fn replication_and_capacity() {
        let mut grid = GridNetwork::new(chips(4), 2, 2);
        // Capacity counts distinct particles: per-unit × rows.
        assert_eq!(grid.capacity(), 2 * 16_384);
        grid.load_j(0, &particle(0)).unwrap();
        grid.load_j(1, &particle(1)).unwrap();
        assert_eq!(grid.n_j(), 2);
        // Row 0 (units 0 and 1) both hold particle 0; row 1 holds 1.
        assert_eq!(grid.units[0].n_j(), 1);
        assert_eq!(grid.units[1].n_j(), 1);
        assert_eq!(grid.units[2].n_j(), 1);
        assert_eq!(grid.units[3].n_j(), 1);
    }

    #[test]
    #[should_panic(expected = "grid shape mismatch")]
    fn wrong_shape_rejected() {
        let _ = GridNetwork::new(chips(3), 2, 2);
    }
}
