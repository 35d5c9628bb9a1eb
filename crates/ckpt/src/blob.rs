//! Digest-guarded generic state blobs.
//!
//! The full [`Checkpoint`](crate::Checkpoint) captures an integrator +
//! engine pair; the cluster recovery layer also needs to persist *small,
//! caller-defined* state (a rank's wave-chain state at a coordinated
//! cut, a recovery manifest) with the same guarantees.  [`Blob`] puts it
//! in the crate's one file container — versioned header, FNV-1a payload
//! digest checked before parsing, atomic publication, typed
//! [`CkptError`]s instead of panics — under the prefix
//! `GRAPE6-BLOB <kind>`, so a manifest can never be mistaken for a rank
//! checkpoint, nor either for a checkpoint image.

use std::path::Path;

use crate::{open, save_atomic, seal, CkptError};

/// A digest-guarded, kind-tagged byte payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Blob {
    /// Caller-defined family tag (e.g. `"cluster-rank"`), checked on
    /// load.  Must contain no whitespace.
    pub kind: String,
    /// Caller-defined format version of the payload.
    pub version: u32,
    /// The payload bytes (typically a `wire::Enc` encoding).
    pub payload: Vec<u8>,
}

/// The container prefix of a blob of `kind`.
fn prefix(kind: &str) -> String {
    format!("GRAPE6-BLOB {kind}")
}

impl Blob {
    /// Wrap a payload.  Panics if `kind` contains whitespace (the header
    /// is a whitespace-separated line).
    pub fn new(kind: &str, version: u32, payload: Vec<u8>) -> Self {
        assert!(
            !kind.is_empty() && !kind.contains(char::is_whitespace),
            "blob kind must be a single non-empty token"
        );
        Self {
            kind: kind.to_string(),
            version,
            payload,
        }
    }

    /// Serialise: `GRAPE6-BLOB <kind> <version> <digest:016x> <len>\n`
    /// followed by the payload bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        seal(&prefix(&self.kind), self.version, &self.payload)
    }

    /// Parse and validate. Order: magic and kind, version ceiling,
    /// declared length, digest — the payload is never interpreted before
    /// its integrity is established.  Bytes after the declared payload
    /// are ignored (a torn append cannot poison an otherwise-valid blob).
    pub fn from_bytes(bytes: &[u8], kind: &str, max_version: u32) -> Result<Self, CkptError> {
        let (version, payload, _) = open(bytes, &prefix(kind), max_version)?;
        Ok(Self {
            kind: kind.to_string(),
            version,
            payload: payload.to_vec(),
        })
    }

    /// Write atomically (temporary file, then rename), so a reader
    /// polling for `path` (a respawned rank looking for its checkpoint or
    /// a recovery manifest) can never observe a half-written file.
    pub fn save(&self, path: &Path) -> Result<(), CkptError> {
        save_atomic(path, &self.to_bytes())
    }

    /// Read and validate a blob of the given kind from disk.
    pub fn load(path: &Path, kind: &str, max_version: u32) -> Result<Self, CkptError> {
        Self::from_bytes(&std::fs::read(path)?, kind, max_version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_through_disk() {
        let dir = std::env::temp_dir().join(format!("g6-blob-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.blob");
        let b = Blob::new("cluster-rank", 3, vec![1, 2, 3, 255, 0]);
        b.save(&path).unwrap();
        assert_eq!(Blob::load(&path, "cluster-rank", 3).unwrap(), b);
        // No temp file left behind.
        assert!(!dir.join(".state.blob.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_truncation_and_wrong_kind_are_typed_errors() {
        let b = Blob::new("manifest", 1, b"recovery manifest payload".to_vec());
        let bytes = b.to_bytes();
        // Wrong kind never parses.
        assert!(matches!(
            Blob::from_bytes(&bytes, "cluster-rank", 1),
            Err(CkptError::Format(_))
        ));
        // Newer version is refused before the payload is touched.
        assert!(matches!(
            Blob::from_bytes(&bytes, "manifest", 0),
            Err(CkptError::Version {
                found: 1,
                supported: 0
            })
        ));
        // Truncation is detected by length, not by a parse failure.
        assert!(matches!(
            Blob::from_bytes(&bytes[..bytes.len() - 3], "manifest", 1),
            Err(CkptError::Truncated { .. })
        ));
        // A flipped payload byte fails the digest.
        let mut corrupt = bytes.clone();
        let at = corrupt.len() - 5;
        corrupt[at] ^= 0x40;
        assert!(matches!(
            Blob::from_bytes(&corrupt, "manifest", 1),
            Err(CkptError::BadDigest { .. })
        ));
        // Extra trailing bytes beyond the declared length are ignored
        // (a torn append cannot poison an otherwise-valid blob).
        let mut extended = bytes.clone();
        extended.extend_from_slice(b"junk");
        assert_eq!(Blob::from_bytes(&extended, "manifest", 1).unwrap(), b);
    }
}
