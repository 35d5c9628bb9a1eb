//! # grape6-parallel — the paper's parallel N-body algorithms
//!
//! §3.2 of the paper analyses three ways to distribute an O(N²) direct-
//! summation code over a cluster, and the GRAPE-6 system design is the
//! conclusion of that analysis.  All three are implemented here on
//! `grape6-net`, with the same force semantics as the serial code so
//! correctness is checked by direct comparison:
//!
//! * [`copy_algo`] — the **copy** algorithm: every rank holds the complete
//!   system, integrates its own subset, and all ranks exchange the updated
//!   particles after each blockstep.  "This algorithm has been used to
//!   implement the individual timestep algorithm on distributed-memory
//!   parallel computers"; it is also exactly how GRAPE-6 parallelises
//!   *across clusters* (§4.3).  Each rank is the serial
//!   `HermiteIntegrator` over the full copy, on any force engine, and the
//!   exchange is one coalesced wave per blockstep over any `Transport` —
//!   the virtual-time fabric or real sockets.  On the f64 engine the
//!   trajectories are **bit-identical** to the serial driver.
//! * [`ring_algo`] — the **ring** algorithm: non-overlapping subsets; the
//!   i-particles circulate around a ring so every rank computes the force
//!   of its resident subset on every passing block.
//! * [`grid2d`] — the **2-D hybrid** algorithm of Makino (2002): ranks form
//!   an r×r grid, rank (i,j) computes forces on subset i from subset j,
//!   and partial forces are reduced along rows onto the diagonal.  "The
//!   amount of communication for one node is O(N/r)… the communication
//!   speed is improved by a factor proportional to the square root of the
//!   number of processors."
//!
//!   Ring and grid compute forces only, in the copy algorithm's shape: one
//!   generic rank function each ([`ring_rank`], [`grid2d_rank`]) over any
//!   `Transport`, sending force records as `Frame`s (a ring shift, a row
//!   reduction) and assembling the force vector on every rank with one
//!   wave.  [`ring_forces`] and [`grid2d_forces`] run them on the
//!   virtual-time fabric; over sockets their forces are the same bits.
//!
//! * [`partition`] — the index arithmetic shared by all three.

pub mod copy_algo;
pub mod grid2d;
pub mod partition;
mod records;
pub mod ring_algo;

pub use copy_algo::{
    run_copy_parallel, run_copy_parallel_segment, run_copy_rank, CopyConfig, CopyError,
    CopyRunResult, CopySegment,
};
pub use grid2d::{grid2d_forces, grid2d_rank};
pub use partition::chunk_ranges;
pub use ring_algo::{ring_forces, ring_rank};
