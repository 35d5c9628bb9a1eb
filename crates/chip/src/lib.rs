//! # grape6-chip — the GRAPE-6 processor chip
//!
//! A functional, cycle-accounted model of the custom chip described in §2.1
//! of the paper: "A processor chip consists of six force calculation
//! pipelines, a predictor pipeline, a memory interface and I/O ports",
//! fabricated in 0.25 µm, clocked at 90 MHz, 30.8 Gflops per chip.
//!
//! * [`jmem`] — the per-chip j-particle memory (the local-memory design that
//!   distinguishes GRAPE-6 from GRAPE-4's shared memory, §3.4), storing the
//!   predictor polynomial of each particle in hardware formats;
//! * [`predictor`] — the on-chip predictor pipeline evaluating eqs. (6)–(7);
//! * [`pipeline`] — one force-calculation pipeline evaluating eqs. (1)–(3)
//!   in reduced-precision arithmetic with exact fixed-point coordinate
//!   differences and a table-driven `x^(-3/2)` unit;
//! * [`kernel`] — the batched structure-of-arrays layout the lane kernel
//!   streams, the per-chip [`KernelMode`] selector, and the entry points
//!   pinned to the portable lanes;
//! * [`kernel_simd`] — the one batched datapath: the same arithmetic as
//!   [`pipeline`] written once over generic lanes and evaluated a whole
//!   pass at a time for host speed — i-particles across the lanes, the
//!   j-stream broadcast, as on the die — instantiated for portable arrays
//!   and for AVX2 / AVX-512 `core::arch` registers (runtime-dispatched),
//!   bitwise identical to the scalar oracle on every instance;
//! * [`chip`] — the assembled chip: six pipelines × 8-way virtual
//!   multipipelining = forces on 48 i-particles per pass, block
//!   floating-point partial-force output, and a cycle counter that feeds
//!   the performance model.

pub mod chip;
pub mod jmem;
pub mod kernel;
pub mod kernel_simd;
pub mod pipeline;
pub mod predictor;

pub use chip::{Chip, ChipConfig, I_PARALLEL_PER_CHIP};
pub use jmem::{HwJParticle, StuckBit};
pub use kernel::KernelMode;
pub use kernel_simd::Neighbours;
pub use pipeline::{ExpSet, HwIParticle, PartialForce};
