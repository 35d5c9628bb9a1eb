//! The force records ring and 2-D ranks put on the wire.
//!
//! A force record is a [`JRecord`] whose words are a particle's
//! acceleration and jerk (three each) and potential, as `f64` bit
//! patterns, so forces cross any [`Transport`] bitwise.  Both algorithms
//! finish with one [`coalesced_wave`] of these records ([`gather_forces`]).

use std::ops::Range;

use grape6_net::exchange::coalesced_wave;
use grape6_net::transport::{Transport, TransportError};
use grape6_net::wire::JRecord;
use nbody_core::force::ForceResult;
use nbody_core::Vec3;

/// Words per force record (see [`force_words`]).
pub(crate) const FORCE_WORDS: usize = 7;

/// The wire order of a force: acc, jerk, pot.
pub(crate) fn force_words(f: &ForceResult) -> impl Iterator<Item = u64> {
    let ForceResult { acc, jerk, pot } = *f;
    let words = [acc.x, acc.y, acc.z, jerk.x, jerk.y, jerk.z, pot];
    words.into_iter().map(f64::to_bits)
}

/// Particle `index`'s force as a record.
pub(crate) fn force_record(index: usize, f: &ForceResult) -> JRecord {
    JRecord {
        index: index as u64,
        words: force_words(f).collect(),
    }
}

/// The three words at the front of `w` as a vector.
pub(crate) fn vec3(w: &[u64]) -> Vec3 {
    Vec3::new(
        f64::from_bits(w[0]),
        f64::from_bits(w[1]),
        f64::from_bits(w[2]),
    )
}

/// The force [`force_words`] laid out at the front of `w`.
pub(crate) fn force(w: &[u64]) -> ForceResult {
    ForceResult {
        acc: vec3(w),
        jerk: vec3(&w[3..]),
        pot: f64::from_bits(w[6]),
    }
}

/// Check that `block` holds one record per index of `want`, in order,
/// each of `words` words: anything else is not what a peer running the
/// same algorithm sends.
pub(crate) fn check_block(
    block: &[JRecord],
    want: Range<usize>,
    words: usize,
) -> Result<(), TransportError> {
    let fits = |(r, i): (&JRecord, usize)| r.index == i as u64 && r.words.len() == words;
    if block.len() == want.len() && block.iter().zip(want).all(fits) {
        Ok(())
    } else {
        Err(TransportError::Protocol("malformed force records"))
    }
}

/// Share this rank's force records with every rank in one wave and lay
/// the merged set out as the force vector of all `n` particles.
pub(crate) fn gather_forces<T: Transport>(
    tr: &mut T,
    n: usize,
    mine: Vec<JRecord>,
) -> Result<Vec<ForceResult>, TransportError> {
    let merged = coalesced_wave(tr, 0, 0.0, mine, &[])?.merged;
    check_block(&merged, 0..n, FORCE_WORDS)?;
    Ok(merged.iter().map(|r| force(&r.words)).collect())
}
