//! The batched structure-of-arrays layout, the kernel selector, and the
//! entry points pinned to the portable lanes.
//!
//! The scalar pipeline in [`crate::pipeline::interact`] is the **reference
//! oracle**: one `(i, j)` pair per call, wrapped operands, a `Result` per
//! accumulator add.  That faithfulness costs host wall-clock — every
//! virtual second the benchmarks report is paid for in this loop — so the
//! chip also carries one batched datapath, the generic lane block in
//! [`crate::kernel_simd`], which evaluates a whole pass — up to 48
//! i-registers against the *whole* j-batch — the way the chip does: the
//! i-particles sit across the lanes, one pipeline each, and the j-stream
//! is broadcast to all of them.  Same arithmetic, none of the per-pair
//! overhead:
//!
//! * the predicted j-particles are decoded into parallel arrays
//!   ([`SoaBatch`]) **once per (time, j-memory contents)** — the chip
//!   keeps the decoded batch across passes until a j-write or a new time
//!   makes it stale: quantised mass, raw fixed-point position words,
//!   quantised velocity words — the inner loop broadcasts flat `f64`/`i64`
//!   scalars instead of hopping through `PredictedJ` structs;
//! * every operation is the *same* `f64` op with the same single rounding
//!   (`quantize_sig`) the `PipeFloat` wrappers perform, in the same order —
//!   values already quantised in memory (mass, velocities, ε²) are not
//!   re-quantised, which is a no-op by idempotence, not a shortcut;
//! * `x^(-3/2)` and `x^(-1/2)` come from **one** table decomposition and
//!   index (`RsqrtCubedUnit::eval_both_lanes`), bit-identical to two
//!   separate evaluations;
//! * accumulation goes into `i64` block-FP lanes (`LaneAccum`), each lane
//!   one i-particle's accumulator under its own window scale, with
//!   overflow deferred to sticky per-lane flags checked **once per
//!   `CHUNK`** — no `Result` on the happy path.  A group of lanes with a
//!   flag is discarded and its i-particles re-run through the scalar
//!   oracle in ascending i (`scalar_row`), which reproduces the exact
//!   `BlockFpError` the host's retry ladder expects (same i order, same j
//!   order ⇒ same first failure);
//! * the rounding drops the quantiser's NaN/±inf select, which no value
//!   of a NaN-free pass needs: [`SoaBatch::decode`] notes a NaN among the
//!   j words once per prediction, each lane group checks its own
//!   i-registers, and a group that fails either check takes the same
//!   `scalar_row` path as a flagged one.
//!
//! [`batched_block`] and its one-i plain form [`batched_row`] run that
//! datapath on the `Portable` lane instance whatever the host's dispatch
//! would pick (a one-i comparator pass is `batched_block` on one-element
//! slices);
//! [`crate::kernel_simd::simd_block`] runs it on the widest instance the
//! host has.  Bitwise identity with the oracle is structural, and it is
//! enforced by proptests and by whole-schedule A/B runs in `tests/`.

use grape6_arith::blockfp::BlockFpError;
use grape6_arith::rsqrt::RsqrtCubedUnit;

pub use crate::kernel_simd::batched_block;
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
    /// The generic lane block over the batched SoA layout, on the widest
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
    /// Quantised masses.
    pub(crate) mass: Vec<f64>,
    /// Raw fixed-point position words, one array per coordinate.
    pub(crate) px: Vec<i64>,
    pub(crate) py: Vec<i64>,
    pub(crate) pz: Vec<i64>,
    /// Quantised predicted velocities, one array per coordinate.
    pub(crate) vx: Vec<f64>,
    pub(crate) vy: Vec<f64>,
    pub(crate) vz: Vec<f64>,
    /// Is any of the f64 words above NaN?  Then the lane kernel runs the
    /// whole batch through the scalar oracle (see `kernel_simd`).  The
    /// default — an empty batch — has seen none.
    pub(crate) any_nan: bool,
}

impl SoaBatch {
    /// Decode a pass's predicted j-particles.  All stored values are
    /// already in hardware formats (quantised / fixed point); this is a
    /// pure layout transpose, plus one look for a NaN among the f64 words.
    /// The lane kernel reads the j side one scalar at a time, so the seven
    /// arrays hold exactly the batch.
    pub fn decode(&mut self, predicted: &[PredictedJ]) {
        self.mass.clear();
        self.px.clear();
        self.py.clear();
        self.pz.clear();
        self.vx.clear();
        self.vy.clear();
        self.vz.clear();
        self.mass.extend(predicted.iter().map(|p| p.mass));
        self.px.extend(predicted.iter().map(|p| p.pos.x.raw()));
        self.py.extend(predicted.iter().map(|p| p.pos.y.raw()));
        self.pz.extend(predicted.iter().map(|p| p.pos.z.raw()));
        self.vx.extend(predicted.iter().map(|p| p.vel[0]));
        self.vy.extend(predicted.iter().map(|p| p.vel[1]));
        self.vz.extend(predicted.iter().map(|p| p.vel[2]));
        // One branch-free pass over the four arrays: it vectorises, where
        // a short-circuiting `any` per array would cost more than the
        // transpose itself.
        let n = self.mass.len();
        let (m, vx, vy, vz) = (&self.mass[..n], &self.vx[..n], &self.vy[..n], &self.vz[..n]);
        self.any_nan = (0..n).fold(false, |nan, k| {
            nan | m[k].is_nan() | vx[k].is_nan() | vy[k].is_nan() | vz[k].is_nan()
        });
    }

    /// Number of j-particles in the batch.
    pub fn len(&self) -> usize {
        self.mass.len()
    }

    /// Is the batch empty?
    pub fn is_empty(&self) -> bool {
        self.mass.is_empty()
    }
}

/// j-particles between two looks at a lane group's deferred overflow
/// flags: often enough to bail out early on a hopeless window, rarely
/// enough for the check to vanish from the loop.
pub(crate) const CHUNK: usize = 128;

/// Evaluate one i-register against the whole batch (plain force pass) on
/// the portable lanes: a one-i [`batched_block`].
///
/// `Ok(pf)` is bit-identical to the scalar `interact` loop; `Err` is the
/// exact error that loop would have returned (produced by re-running the
/// i-particle through the oracle once a chunk's deferred flags trip).
pub fn batched_row(
    rsqrt: &RsqrtCubedUnit,
    ip: &HwIParticle,
    batch: &SoaBatch,
    predicted: &[PredictedJ],
    exps: ExpSet,
) -> Result<PartialForce, BlockFpError> {
    let ip = std::slice::from_ref(ip);
    batched_block(rsqrt, ip, &[exps], batch, predicted, None).map(|pf| pf[0])
}

/// One i-register through the scalar oracle: the `interact` loop in
/// ascending j, with the neighbour comparator when `nb` carries a radius
/// and a list (cleared first).  This is [`KernelMode::Scalar`]'s pass
/// body, and what the lane block re-runs a flagged group's i-particles
/// through to recover the exact error value: the oracle sees the same
/// j-sequence, so it fails at the same first-overflowing summand.  A group
/// sent here for a NaN input rather than a flag may complete; its result
/// and list are the correct bits and are used as such.
pub(crate) fn scalar_row(
    rsqrt: &RsqrtCubedUnit,
    ip: &HwIParticle,
    predicted: &[PredictedJ],
    exps: ExpSet,
    mut nb: Option<(f64, &mut Vec<u32>)>,
) -> Result<PartialForce, BlockFpError> {
    let mut pf = PartialForce::new(exps);
    if let Some((_, list)) = &mut nb {
        list.clear();
    }
    for (addr, jp) in predicted.iter().enumerate() {
        let r2 = interact(rsqrt, ip, jp, &mut pf)?;
        if let Some((h2i, list)) = &mut nb {
            if r2 < *h2i && r2 > 0.0 {
                list.push(addr as u32);
            }
        }
    }
    Ok(pf)
}
