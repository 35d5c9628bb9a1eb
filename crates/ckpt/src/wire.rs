//! Hand-rolled binary encoding.
//!
//! The workspace has no serialisation library, and the restore contract
//! is *bitwise* identity anyway — a fixed little-endian
//! layout is the honest representation.  Everything is built from four
//! primitives (`u32`, `u64`, `bool`, length-prefixed byte strings);
//! `f64`s travel as their bit patterns, so `+inf` sentinels and quiet
//! NaNs survive exactly.

/// Decoding failure. Mapped to [`crate::CkptError::Format`] by the caller;
/// by the time a payload is decoded it has already passed the digest
/// check, so hitting one of these means a format bug, not file damage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the value being read.
    Eof,
    /// A length prefix exceeds the bytes actually remaining.
    Oversize,
    /// A string field was not valid UTF-8.
    Utf8,
    /// A bool byte was neither 0 nor 1.
    Bool,
    /// Bytes were left over after the top-level value.
    Trailing,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Eof => f.write_str("unexpected end of payload"),
            Self::Oversize => f.write_str("length prefix exceeds remaining payload"),
            Self::Utf8 => f.write_str("string field is not UTF-8"),
            Self::Bool => f.write_str("bool byte is not 0 or 1"),
            Self::Trailing => f.write_str("trailing bytes after payload"),
        }
    }
}

/// Append-only encoder.
///
/// Cost rule: a caller that knows its encoded length starts from
/// [`Enc::with_capacity`], and the whole encoding is one allocation;
/// the sequence writers reserve their byte count up front either way.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Fresh empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh encoder with room for `bytes` bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Finish and take the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append a `u32` (little-endian).
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as `u64`.
    pub fn size(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Append a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Append a length-prefixed byte string.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.reserve(8 + b.len());
        self.size(b.len());
        self.buf.extend_from_slice(b);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Append a length-prefixed `u64` sequence.
    pub fn seq_u64(&mut self, v: &[u64]) {
        self.buf.reserve(8 + 8 * v.len());
        self.size(v.len());
        for &x in v {
            self.u64(x);
        }
    }

    /// Append a length-prefixed `[u64; 3]` sequence.
    pub fn seq_u64x3(&mut self, v: &[[u64; 3]]) {
        self.buf.reserve(8 + 24 * v.len());
        self.size(v.len());
        for x in v {
            self.u64(x[0]);
            self.u64(x[1]);
            self.u64(x[2]);
        }
    }

    /// Append a length-prefixed `usize` sequence.
    pub fn seq_size(&mut self, v: &[usize]) {
        self.buf.reserve(8 + 8 * v.len());
        self.size(v.len());
        for &x in v {
            self.size(x);
        }
    }
}

/// Cursor-based decoder over a digest-checked payload.
///
/// Cost rule: a sequence is read as one checked span of the payload into
/// one exact-size allocation, never grown element by element.
pub struct Dec<'a> {
    /// Bytes not yet consumed.
    rest: &'a [u8],
}

impl<'a> Dec<'a> {
    /// Decode from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { rest: buf }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let (out, rest) = self.rest.split_at_checked(n).ok_or(WireError::Eof)?;
        self.rest = rest;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let (out, rest) = self.rest.split_first_chunk().ok_or(WireError::Eof)?;
        self.rest = rest;
        Ok(*out)
    }

    /// The next `n` little-endian words, as one span.
    fn words(&mut self, n: usize) -> Result<&'a [[u8; 8]], WireError> {
        let bytes = n.checked_mul(8).ok_or(WireError::Oversize)?;
        Ok(self.take(bytes)?.as_chunks().0)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Require full consumption (call after the top-level value).
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Trailing)
        }
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Read a `usize` stored as `u64`.
    pub fn size(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.u64()?).map_err(|_| WireError::Oversize)
    }

    /// Read a sequence length and check the remaining payload can hold it
    /// at (at least) `elem_bytes` per element, so a bad prefix can never
    /// trigger a huge allocation.
    fn seq_len(&mut self, elem_bytes: usize) -> Result<usize, WireError> {
        let len = self.size()?;
        if len.checked_mul(elem_bytes).ok_or(WireError::Oversize)? > self.remaining() {
            return Err(WireError::Oversize);
        }
        Ok(len)
    }

    /// Read a length-prefixed sequence of values `elem` decodes, each at
    /// least `min_bytes` on the wire, into one exact-size allocation.
    pub fn seq_with<T>(
        &mut self,
        min_bytes: usize,
        mut elem: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let len = self.seq_len(min_bytes)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(elem(self)?);
        }
        Ok(out)
    }

    /// Read a bool byte.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.array()? {
            [0] => Ok(false),
            [1] => Ok(true),
            _ => Err(WireError::Bool),
        }
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let len = self.seq_len(1)?;
        std::str::from_utf8(self.take(len)?)
            .map(str::to_string)
            .map_err(|_| WireError::Utf8)
    }

    /// Read a length-prefixed `u64` sequence.
    pub fn seq_u64(&mut self) -> Result<Vec<u64>, WireError> {
        let len = self.seq_len(8)?;
        let words = self.words(len)?;
        Ok(words.iter().map(|&w| u64::from_le_bytes(w)).collect())
    }

    /// Read a length-prefixed `[u64; 3]` sequence.
    pub fn seq_u64x3(&mut self) -> Result<Vec<[u64; 3]>, WireError> {
        let len = self.seq_len(24)?;
        let (triples, _) = self.words(3 * len)?.as_chunks::<3>();
        Ok(triples.iter().map(|t| t.map(u64::from_le_bytes)).collect())
    }

    /// Read a length-prefixed `usize` sequence.
    pub fn seq_size(&mut self) -> Result<Vec<usize>, WireError> {
        let len = self.seq_len(8)?;
        let mut out = Vec::with_capacity(len);
        for &w in self.words(len)? {
            out.push(usize::try_from(u64::from_le_bytes(w)).map_err(|_| WireError::Oversize)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut e = Enc::new();
        e.u32(7);
        e.u64(u64::MAX);
        e.size(usize::MAX);
        e.bool(true);
        e.bool(false);
        e.str("héllo");
        e.seq_u64(&[1, 2, 3]);
        e.seq_u64x3(&[[4, 5, 6], [7, 8, 9]]);
        e.seq_size(&[10, 11]);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u32().unwrap(), 7);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.size().unwrap(), usize::MAX);
        assert!(d.bool().unwrap());
        assert!(!d.bool().unwrap());
        assert_eq!(d.str().unwrap(), "héllo");
        assert_eq!(d.seq_u64().unwrap(), vec![1, 2, 3]);
        assert_eq!(d.seq_u64x3().unwrap(), vec![[4, 5, 6], [7, 8, 9]]);
        assert_eq!(d.seq_size().unwrap(), vec![10, 11]);
        d.finish().unwrap();
    }

    #[test]
    fn truncation_is_eof_not_a_panic() {
        let mut e = Enc::new();
        e.u64(42);
        e.str("abc");
        let bytes = e.into_bytes();
        for cut in 0..bytes.len() {
            let mut d = Dec::new(&bytes[..cut]);
            let r = d.u64().and_then(|_| d.str());
            assert!(r.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn oversize_length_prefix_does_not_allocate() {
        // A length prefix claiming 2^60 elements must be rejected up
        // front, not passed to Vec::with_capacity.
        let mut e = Enc::new();
        e.u64(1 << 60);
        let bytes = e.into_bytes();
        assert_eq!(Dec::new(&bytes).seq_u64().unwrap_err(), WireError::Oversize);
        assert_eq!(
            Dec::new(&bytes).seq_u64x3().unwrap_err(),
            WireError::Oversize
        );
        assert_eq!(Dec::new(&bytes).str().unwrap_err(), WireError::Oversize);
        assert_eq!(
            Dec::new(&bytes).seq_size().unwrap_err(),
            WireError::Oversize
        );
        assert_eq!(
            Dec::new(&bytes).seq_with(16, Dec::u64).unwrap_err(),
            WireError::Oversize
        );
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut e = Enc::new();
        e.u32(1);
        e.u32(2);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        d.u32().unwrap();
        assert_eq!(d.finish().unwrap_err(), WireError::Trailing);
    }

    #[test]
    fn bad_bool_byte_rejected() {
        let mut d = Dec::new(&[2u8]);
        assert_eq!(d.bool().unwrap_err(), WireError::Bool);
    }
}
