//! Payload integrity digest.
//!
//! FNV-1a over the raw payload bytes.  Not cryptographic — the threat
//! model is a truncated write, a torn disk sector or a bit flip on an NFS
//! mount, the failure modes the PC-GRAPE clusters actually saw — and FNV
//! needs no external crate, keeping this crate dependency-free beyond
//! serde.

/// FNV-1a 64-bit offset basis: the digest of no bytes, and the value a
/// [`fnv1a64_word`] fold starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a digest of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Fold one 64-bit word into a running FNV-1a digest, little-endian
/// byte by byte: [`fnv1a64`] over a stream of words (f64 bit patterns,
/// indices) without materialising the bytes.  Start from [`FNV_OFFSET`].
pub fn fnv1a64_word(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Reference values of the standard FNV-1a 64-bit function.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn word_fold_is_the_byte_digest_of_the_little_endian_words() {
        let words = [0u64, 1, 0x0123_4567_89ab_cdef, u64::MAX];
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let folded = words.iter().fold(FNV_OFFSET, |h, &w| fnv1a64_word(h, w));
        assert_eq!(folded, fnv1a64(&bytes));
    }

    #[test]
    fn single_bit_flip_changes_digest() {
        let a = b"checkpoint payload".to_vec();
        let mut b = a.clone();
        b[3] ^= 1;
        assert_ne!(fnv1a64(&a), fnv1a64(&b));
    }
}
