//! # grape6-system — modules, boards and the machine hierarchy
//!
//! The GRAPE-6 machine is a tree (paper §2, figs. 3–5):
//!
//! ```text
//! processor module  = 4 chips + FPGA summation unit
//! processor board   = 8 modules + broadcast network + reduction network
//! host port         = 4 boards behind a network board
//! cluster           = 4 hosts × 4 boards; full system = 4 clusters
//! ```
//!
//! Every level has the *same shape*: broadcast the i-particles to all
//! children, divide the j-particles among them, sum the partial forces on
//! the way back up.  Because the summation is block floating point
//! ([`grape6_arith::blockfp`]), the reduction is exact and the result is
//! independent of how many levels and children participate — the §3.4
//! reproducibility property, which this crate's tests verify at machine
//! scale.
//!
//! The hierarchy is therefore implemented once, generically:
//!
//! * [`unit::GrapeUnit`] — what it means to be "a piece of GRAPE hardware"
//!   (hold j-particles, run one pass on 48 i-particles — the neighbour
//!   comparators an option of that pass, as on the chip — report cycles);
//! * [`ensemble::Ensemble`] — the broadcast/divide/reduce combinator, one
//!   pass body for the plain and the comparator pass;
//! * [`machine`] — concrete type aliases ([`machine::Module`],
//!   [`machine::Board`], [`machine::BoardArray`]) plus the
//!   [`machine::MachineConfig`] describing the real 2048-chip machine and
//!   its smaller laboratory configurations.

pub mod ensemble;
pub mod grid;
pub mod machine;
pub mod selftest;
pub mod unit;

pub use ensemble::Ensemble;
pub use grid::GridNetwork;
pub use machine::{Board, BoardArray, ConfigError, MachineConfig, MachineConfigBuilder, Module};
pub use selftest::{self_test, SelfTestConfig, SelfTestFailure, SelfTestReport};
pub use unit::GrapeUnit;
