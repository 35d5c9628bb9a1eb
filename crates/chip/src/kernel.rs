//! The batched structure-of-arrays layout, the kernel selector, and the
//! entry points pinned to the portable lanes.
//!
//! The scalar pipeline in [`crate::pipeline::interact`] is the **reference
//! oracle**: one `(i, j)` pair per call, wrapped operands, a `Result` per
//! accumulator add.  That faithfulness costs host wall-clock — every
//! virtual second the benchmarks report is paid for in this loop — so the
//! chip also carries one batched datapath, the generic lane row in
//! [`crate::kernel_simd`], which evaluates one i-register against the
//! *whole* j-batch with the same arithmetic but none of the per-pair
//! overhead:
//!
//! * the predicted j-particles are decoded into parallel arrays
//!   ([`SoaBatch`]) **once per (time, j-memory contents)** — the chip
//!   keeps the decoded batch across passes until a j-write or a new time
//!   makes it stale: quantised mass, raw fixed-point position words,
//!   quantised velocity words — the inner loop streams flat `f64`/`i64`
//!   lanes instead of hopping through `PredictedJ` structs;
//! * every operation is the *same* `f64` op with the same single rounding
//!   (`quantize_sig`) the `PipeFloat` wrappers perform, in the same order —
//!   values already quantised in memory (mass, velocities, ε²) are not
//!   re-quantised, which is a no-op by idempotence, not a shortcut;
//! * `x^(-3/2)` and `x^(-1/2)` come from **one** table decomposition and
//!   index (`RsqrtCubedUnit::eval_both_lanes`), bit-identical to two
//!   separate evaluations;
//! * accumulation goes into raw `i64` block-FP lanes (`BatchLane`) with
//!   the window scale hoisted out of the loop and overflow deferred to
//!   sticky flags checked **once per chunk** — no `Result` on the happy
//!   path.  A flagged row is discarded and re-run through the scalar
//!   oracle, which reproduces the exact `BlockFpError` the host's retry
//!   ladder expects (same j order ⇒ same first failure).
//!
//! [`batched_row`] / [`batched_row_nb`] run that datapath on the
//! `Portable` lane instance whatever the host's dispatch would pick;
//! [`crate::kernel_simd::simd_row`] runs it on the widest instance the
//! host has.  Bitwise identity with the oracle is structural, and it is
//! enforced by proptests and by whole-schedule A/B runs in `tests/`.

use grape6_arith::blockfp::BlockFpError;
use grape6_arith::rsqrt::RsqrtCubedUnit;

use crate::kernel_simd::portable_row;
use crate::pipeline::{interact, ExpSet, HwIParticle, PartialForce};
use crate::predictor::PredictedJ;

/// Which force-pass implementation a chip runs.
///
/// Both variants produce **bit-identical** forces, neighbour lists, and
/// error values; only host wall-clock differs.  The selector threads
/// through every layer ([`crate::Chip`], `grape6-system`, `grape6-core`)
/// so any schedule can run on either datapath.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum KernelMode {
    /// Per-pair scalar pipeline — the reference oracle.
    Scalar,
    /// The generic lane row over the batched SoA layout, on the widest
    /// lane instance the host has: AVX-512 or AVX2 `core::arch` registers
    /// where `is_x86_feature_detected!` finds them, the portable 4-lane
    /// arrays everywhere else (non-x86 hosts, `GRAPE6_FORCE_SCALAR=1`).
    /// The level is chosen by dispatch, never by the caller.  The default.
    #[default]
    Simd,
}

impl KernelMode {
    /// Short label for traces and benchmark tables.
    pub const fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Simd => "simd",
        }
    }
}

/// A chip's predicted j-particles, decoded into parallel arrays.  Owned by
/// the chip alongside the `predicted` buffer it mirrors, and kept across
/// passes for as long as that prediction stands (capacity is retained
/// when it is redone).
#[derive(Clone, Debug, Default)]
pub struct SoaBatch {
    /// Number of real j-particles (the arrays may carry zero padding
    /// beyond this, see [`decode`](Self::decode)).
    n: usize,
    /// Quantised masses.
    pub(crate) mass: Vec<f64>,
    /// Raw fixed-point position words, one lane per coordinate.
    pub(crate) px: Vec<i64>,
    pub(crate) py: Vec<i64>,
    pub(crate) pz: Vec<i64>,
    /// Quantised predicted velocities, one lane per coordinate.
    pub(crate) vx: Vec<f64>,
    pub(crate) vy: Vec<f64>,
    pub(crate) vz: Vec<f64>,
}

/// Widest lane count the arrays are padded for (AVX-512: 8 × f64).
pub(crate) const MAX_LANES: usize = 8;

impl SoaBatch {
    /// Decode a pass's predicted j-particles.  All stored values are
    /// already in hardware formats (quantised / fixed point); this is a
    /// pure layout transpose.
    ///
    /// The arrays are padded with zero-mass particles at the origin up to
    /// a multiple of `MAX_LANES` so the lane kernel's full-width loads
    /// never read past the end.  Padding never reaches an accumulator —
    /// the kernels bound their accumulation and neighbour loops by
    /// [`len`](Self::len), which reports the *real* count.
    pub fn decode(&mut self, predicted: &[PredictedJ]) {
        self.n = predicted.len();
        let padded = self.n.next_multiple_of(MAX_LANES);
        self.mass.clear();
        self.px.clear();
        self.py.clear();
        self.pz.clear();
        self.vx.clear();
        self.vy.clear();
        self.vz.clear();
        self.mass.reserve(padded);
        self.px.reserve(padded);
        self.py.reserve(padded);
        self.pz.reserve(padded);
        self.vx.reserve(padded);
        self.vy.reserve(padded);
        self.vz.reserve(padded);
        for p in predicted {
            self.mass.push(p.mass);
            self.px.push(p.pos.x.raw());
            self.py.push(p.pos.y.raw());
            self.pz.push(p.pos.z.raw());
            self.vx.push(p.vel[0]);
            self.vy.push(p.vel[1]);
            self.vz.push(p.vel[2]);
        }
        for _ in self.n..padded {
            self.mass.push(0.0);
            self.px.push(0);
            self.py.push(0);
            self.pz.push(0);
            self.vx.push(0.0);
            self.vy.push(0.0);
            self.vz.push(0.0);
        }
    }

    /// Number of j-particles in the batch (excluding lane padding).
    pub fn len(&self) -> usize {
        self.n
    }

    /// Is the batch empty?
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

/// j-particles per inner chunk: the chunk scratch arrays (8 lanes of
/// `CHUNK` doubles) must stay L1-resident, the deferred overflow check
/// should bail out early on a hopeless window, and the per-chunk loop
/// overhead must vanish.  128 ⇒ 8 KiB of scratch.
pub(crate) const CHUNK: usize = 128;

/// Evaluate one i-register against the whole batch (plain force pass) on
/// the portable lanes, whatever dispatch would pick.
///
/// `Ok(pf)` is bit-identical to the scalar `interact` loop; `Err` is the
/// exact error that loop would have returned (produced by re-running the
/// row through the oracle once a chunk's deferred flags trip).
pub fn batched_row(
    rsqrt: &RsqrtCubedUnit,
    ip: &HwIParticle,
    batch: &SoaBatch,
    predicted: &[PredictedJ],
    exps: ExpSet,
) -> Result<PartialForce, BlockFpError> {
    let mut no_nb = Vec::new();
    match portable_row(rsqrt, ip, batch, exps, None, &mut no_nb) {
        Some(pf) => Ok(pf),
        None => scalar_fallback(rsqrt, ip, predicted, exps),
    }
}

/// Evaluate one i-register against the whole batch with neighbour
/// detection, on the portable lanes: local addresses of every j with
/// unsoftened `r² < h2i` (self-pairs, `r = 0`, are not flagged) are
/// appended to `nb`, which is cleared first.
pub fn batched_row_nb(
    rsqrt: &RsqrtCubedUnit,
    ip: &HwIParticle,
    batch: &SoaBatch,
    predicted: &[PredictedJ],
    exps: ExpSet,
    h2i: f64,
    nb: &mut Vec<u32>,
) -> Result<PartialForce, BlockFpError> {
    nb.clear();
    match portable_row(rsqrt, ip, batch, exps, Some(h2i), nb) {
        Some(pf) => Ok(pf),
        None => {
            // The partially filled list belongs to a discarded row.
            nb.clear();
            scalar_fallback(rsqrt, ip, predicted, exps)
        }
    }
}

/// Re-run a flagged row through the scalar oracle to recover the exact
/// error value.  The oracle sees the same j-sequence, so it fails at the
/// same first-overflowing summand; if it somehow completes (it cannot,
/// by the `BatchLane` flag contract), its result is still the correct
/// bits and is returned as such.
pub(crate) fn scalar_fallback(
    rsqrt: &RsqrtCubedUnit,
    ip: &HwIParticle,
    predicted: &[PredictedJ],
    exps: ExpSet,
) -> Result<PartialForce, BlockFpError> {
    let mut pf = PartialForce::new(exps);
    for jp in predicted {
        interact(rsqrt, ip, jp, &mut pf)?;
    }
    Ok(pf)
}
