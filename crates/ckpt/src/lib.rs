//! # grape6-ckpt — versioned, digest-guarded run checkpoints
//!
//! The paper's headline runs are week-to-month integrations ("The whole
//! simulation, including file operations, took 16.30 hours" is the *short*
//! benchmark, §5); at that scale surviving host crashes matters more than
//! peak Tflops, and the PC-GRAPE cluster papers treat checkpointing as a
//! routine operational necessity.  This crate is the file layer of that
//! story:
//!
//! * [`state`] — a plain serialisable model of *complete* run state:
//!   full Hermite integrator state (positions, velocities, the whole force
//!   polynomial, per-particle `t`/`dt`), the engine internals that shape
//!   subsequent arithmetic (block-FP magnitude estimates, pass counters,
//!   masked units, pending scheduled deaths), per-rank network counters
//!   and the tracer phase.  Every `f64` travels as its bit pattern — the
//!   restore contract is **bitwise identity**, enforced end-to-end by the
//!   workspace's resume tests;
//! * [`wire`] — a hand-rolled little-endian binary encoding (four
//!   primitives: `u32`, `u64`, bool, length-prefixed bytes).  No decimal
//!   representation anywhere, no serialisation framework;
//! * one file container for both kinds of file — the [`Checkpoint`] image
//!   and the caller-defined [`Blob`]: a one-line ASCII header
//!   `<prefix> <version> <digest:016x> <len>` (prefix `GRAPE6-CKPT` for a
//!   checkpoint, `GRAPE6-BLOB <kind>` for a blob) carrying the format
//!   version, an FNV-1a digest and the payload length, followed by the
//!   binary payload.  Truncation, corruption and future versions are all
//!   detected *before* the payload is parsed and surface as typed
//!   [`CkptError`]s — never a panic, because a supervisor's recovery
//!   ladder has to be able to step past a bad checkpoint file to an
//!   older one.  Both `save`s write a temporary file and rename it into
//!   place, so no reader ever sees a torn file under the real name.
//!
//! Conversions between live state and this model live with the live state
//! (`grape6_core::checkpoint`), keeping this crate dependency-free.

pub mod blob;
pub mod digest;
pub mod state;
pub mod wire;

use std::ffi::OsString;
use std::path::Path;

pub use blob::Blob;
pub use digest::{fnv1a64, fnv1a64_word, FNV_OFFSET};
pub use state::{
    bits, bits3, unbits, unbits3, Checkpoint, EngineState, FaultCounterState, IntegratorState,
    NetEndpointState, RecoveryState, RunStatState, TraceState,
};

/// Current checkpoint format version.
///
/// History: v1 was the original layout; v2 appends the `step_retries`
/// ladder counter to [`RecoveryState`].  v1 files still load (the missing
/// counter decodes as 0) — only versions *newer* than this are rejected.
pub const CKPT_VERSION: u32 = 2;

/// Header prefix of every checkpoint image.
const MAGIC: &str = "GRAPE6-CKPT";

/// Seal `payload` in the container: the header line
/// `<prefix> <version> <digest:016x> <len>\n`, then the payload.
fn seal(prefix: &str, version: u32, payload: &[u8]) -> Vec<u8> {
    let line = format!(
        "{prefix} {version} {:016x} {}\n",
        fnv1a64(payload),
        payload.len()
    );
    let mut out = Vec::with_capacity(line.len() + payload.len());
    out.extend_from_slice(line.as_bytes());
    out.extend_from_slice(payload);
    out
}

/// Open what [`seal`] wrote.  Checks, in order: the prefix, the version
/// against `max_version` (before the digest is even parsed: a future
/// format may change the digest scheme), the declared length, the digest
/// — the payload is never handed out before its integrity is
/// established.  Returns the version, the payload and whatever bytes
/// follow it, all borrowed.
fn open<'a>(
    bytes: &'a [u8],
    prefix: &str,
    max_version: u32,
) -> Result<(u32, &'a [u8], &'a [u8]), CkptError> {
    let bad = |m: &str| CkptError::Format(format!("bad header: {m}"));
    let nl = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| bad("missing header line"))?;
    let line = std::str::from_utf8(&bytes[..nl]).map_err(|_| bad("line is not UTF-8"))?;
    let mut fields = line.split_whitespace();
    if !prefix.split(' ').all(|p| fields.next() == Some(p)) {
        return Err(bad(&format!("{line:?} does not open with {prefix:?}")));
    }
    let version = fields
        .next()
        .and_then(|s| s.parse::<u32>().ok())
        .ok_or_else(|| bad("missing or non-numeric version"))?;
    if version > max_version {
        return Err(CkptError::Version {
            found: version,
            supported: max_version,
        });
    }
    let digest = fields
        .next()
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| bad("missing or non-hex digest"))?;
    let payload_len = fields
        .next()
        .and_then(|s| s.parse::<u64>().ok())
        .ok_or_else(|| bad("missing or non-numeric payload length"))?;
    if fields.next().is_some() {
        return Err(bad("trailing fields"));
    }
    let body = &bytes[nl + 1..];
    if (body.len() as u64) < payload_len {
        return Err(CkptError::Truncated {
            expected: payload_len,
            got: body.len() as u64,
        });
    }
    let (payload, rest) = body.split_at(payload_len as usize);
    let got = fnv1a64(payload);
    if got != digest {
        return Err(CkptError::BadDigest {
            expected: digest,
            got,
        });
    }
    Ok((version, payload, rest))
}

/// Write `bytes` to `path` atomically: first to `.<name>.tmp` in the same
/// directory, then renamed into place, so a reader polling for `path` (a
/// respawned rank, a restarted process) never sees a half-written file.
/// Every write error is returned.
fn save_atomic(path: &Path, bytes: &[u8]) -> Result<(), CkptError> {
    let name = path
        .file_name()
        .ok_or_else(|| CkptError::Format(format!("{path:?} has no file name")))?;
    let mut tmp = OsString::from(".");
    tmp.push(name);
    tmp.push(".tmp");
    let tmp = path.with_file_name(tmp);
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Every way reading or writing a checkpoint can fail.  Typed, never a
/// panic: the recovery ladder treats a bad checkpoint as one more fault to
/// step past.
#[derive(Debug)]
pub enum CkptError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Header or payload did not parse.
    Format(String),
    /// The payload is shorter than the header declares (or, for a
    /// checkpoint image, longer: bytes follow it).
    Truncated {
        /// Payload bytes the header promised.
        expected: u64,
        /// Payload bytes actually present.
        got: u64,
    },
    /// The payload digest does not match the header.
    BadDigest {
        /// Digest recorded in the header.
        expected: u64,
        /// Digest of the payload as read.
        got: u64,
    },
    /// The file was written by a newer format version.
    Version {
        /// Version found in the header.
        found: u32,
        /// Newest version this build reads.
        supported: u32,
    },
    /// Header parsed but the payload is internally inconsistent
    /// (array-length mismatches).
    Inconsistent(String),
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            Self::Format(m) => write!(f, "checkpoint format error: {m}"),
            Self::Truncated { expected, got } => {
                write!(f, "checkpoint truncated: {got} of {expected} payload bytes")
            }
            Self::BadDigest { expected, got } => write!(
                f,
                "checkpoint digest mismatch: header {expected:016x}, payload {got:016x}"
            ),
            Self::Version { found, supported } => write!(
                f,
                "checkpoint version {found} newer than supported {supported}"
            ),
            Self::Inconsistent(m) => write!(f, "checkpoint inconsistent: {m}"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl Checkpoint {
    /// Serialise to the on-disk byte format (header line + payload).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = wire::Enc::new();
        self.encode(&mut enc);
        seal(MAGIC, self.version, &enc.into_bytes())
    }

    /// Parse and validate the on-disk byte format: the container first
    /// (prefix, version, length, digest), then no bytes past the declared
    /// payload, and only then is the payload parsed.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CkptError> {
        let (_, payload, rest) = open(bytes, MAGIC, CKPT_VERSION)?;
        if !rest.is_empty() {
            return Err(CkptError::Truncated {
                expected: payload.len() as u64,
                got: (payload.len() + rest.len()) as u64,
            });
        }
        let mut dec = wire::Dec::new(payload);
        let ckpt = Checkpoint::decode(&mut dec)
            .and_then(|c| dec.finish().map(|()| c))
            .map_err(|e| CkptError::Format(format!("bad payload: {e}")))?;
        if !ckpt.integrator.is_consistent() {
            return Err(CkptError::Inconsistent(format!(
                "per-particle arrays do not all have length {}",
                ckpt.integrator.n
            )));
        }
        Ok(ckpt)
    }

    /// Write to a file atomically (temporary file, then rename).
    pub fn save(&self, path: &Path) -> Result<(), CkptError> {
        save_atomic(path, &self.to_bytes())
    }

    /// Read and validate a file.
    pub fn load(path: &Path) -> Result<Self, CkptError> {
        Self::from_bytes(&std::fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{IntegratorState, RunStatState, TraceState};

    fn sample(n: usize) -> Checkpoint {
        let v3 = |k: usize| [bits(k as f64), bits(-0.5), bits(f64::MIN_POSITIVE)];
        Checkpoint {
            version: CKPT_VERSION,
            label: "test run".into(),
            blockstep: 41,
            engine: None,
            integrator: IntegratorState {
                t: bits(0.25),
                eps: bits(0.015625),
                n,
                mass: (0..n).map(|k| bits(1.0 / (k + 1) as f64)).collect(),
                pos: (0..n).map(v3).collect(),
                vel: (0..n).map(v3).collect(),
                acc: (0..n).map(v3).collect(),
                jerk: (0..n).map(v3).collect(),
                snap: (0..n).map(v3).collect(),
                crackle: (0..n).map(v3).collect(),
                pot: (0..n).map(|_| bits(-1.25)).collect(),
                t_last: (0..n).map(|_| bits(0.25)).collect(),
                dt: (0..n).map(|_| bits(0.0078125)).collect(),
                stats: RunStatState {
                    dt_min: bits(f64::INFINITY),
                    ..Default::default()
                },
            },
            net: Vec::new(),
            trace: TraceState::default(),
        }
    }

    #[test]
    fn byte_roundtrip_is_exact() {
        let c = sample(5);
        let back = Checkpoint::from_bytes(&c.to_bytes()).unwrap();
        assert_eq!(back, c);
        // The +inf sentinel survived (JSON would have mangled it).
        assert_eq!(unbits(back.integrator.stats.dt_min), f64::INFINITY);
    }

    #[test]
    fn file_roundtrip() {
        let c = sample(3);
        let dir = std::env::temp_dir().join("grape6_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        c.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), c);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_is_a_typed_error() {
        let bytes = sample(4).to_bytes();
        // Cut anywhere inside the payload: always Truncated, never a panic.
        for cut in [bytes.len() - 1, bytes.len() - 100, bytes.len() / 2] {
            match Checkpoint::from_bytes(&bytes[..cut]) {
                Err(CkptError::Truncated { expected, got }) => assert!(got < expected),
                // A cut through the header line loses the newline.
                Err(CkptError::Format(_)) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn corrupted_payload_is_a_bad_digest_error() {
        let mut bytes = sample(4).to_bytes();
        let n = bytes.len();
        bytes[n - 10] ^= 0x40; // flip a bit well inside the payload
        match Checkpoint::from_bytes(&bytes) {
            Err(CkptError::BadDigest { expected, got }) => assert_ne!(expected, got),
            other => panic!("expected BadDigest, got {other:?}"),
        }
    }

    #[test]
    fn future_version_is_a_typed_error() {
        let mut c = sample(2);
        c.version = CKPT_VERSION + 7;
        match Checkpoint::from_bytes(&c.to_bytes()) {
            Err(CkptError::Version { found, supported }) => {
                assert_eq!(found, CKPT_VERSION + 7);
                assert_eq!(supported, CKPT_VERSION);
            }
            other => panic!("expected Version, got {other:?}"),
        }
    }

    #[test]
    fn v1_files_still_load_with_zero_step_retries() {
        // Encoding honours the declared version, so a v1-stamped
        // checkpoint produces genuine v1 bytes (no step_retries field) —
        // exactly what a pre-v2 build wrote.
        let mut c = sample(3);
        c.version = 1;
        c.integrator.stats.recovery.step_retries = 99; // dropped by v1 encode
        let bytes = c.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back.version, 1);
        assert_eq!(back.integrator.stats.recovery.step_retries, 0);
        // Everything else survives untouched.
        assert_eq!(back.integrator.pos, c.integrator.pos);
        assert_eq!(
            back.integrator.stats.recovery.checkpoints_taken,
            c.integrator.stats.recovery.checkpoints_taken
        );
    }

    #[test]
    fn v2_roundtrips_step_retries() {
        let mut c = sample(3);
        c.integrator.stats.recovery.step_retries = 7;
        let back = Checkpoint::from_bytes(&c.to_bytes()).unwrap();
        assert_eq!(back.integrator.stats.recovery.step_retries, 7);
        assert_eq!(back, c);
    }

    #[test]
    fn garbage_is_a_format_error_not_a_panic() {
        for garbage in [
            &b""[..],
            &b"not a checkpoint"[..],
            &b"{\"magic\":\"WRONG\",\"version\":1,\"digest\":0,\"payload_len\":0}\n"[..],
            &b"\n\n\n"[..],
        ] {
            match Checkpoint::from_bytes(garbage) {
                Err(CkptError::Format(_)) | Err(CkptError::Truncated { .. }) => {}
                other => panic!("expected Format/Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn inconsistent_arrays_are_rejected() {
        let mut c = sample(4);
        c.integrator.dt.pop();
        let bytes = c.to_bytes();
        match Checkpoint::from_bytes(&bytes) {
            Err(CkptError::Inconsistent(_)) => {}
            other => panic!("expected Inconsistent, got {other:?}"),
        }
    }

    #[test]
    fn header_lines_are_pinned_and_trailing_bytes_follow_each_container_rule() {
        // The bytes both containers write, exactly: a checkpoint image...
        let image = sample(2).to_bytes();
        let line = b"GRAPE6-CKPT 2 01442c28e41eb4a6 646\n";
        assert_eq!(&image[..line.len()], line);
        assert_eq!(image.len(), line.len() + 646);
        // ...and a blob (the digest is FNV-1a's reference value of "abc").
        let blob = Blob::new("manifest", 3, b"abc".to_vec());
        assert_eq!(
            blob.to_bytes(),
            b"GRAPE6-BLOB manifest 3 e71fa2190541574b 3\nabc"
        );
        // Bytes past the declared payload: a checkpoint image refuses
        // them, a blob ignores them.
        let mut long = image.clone();
        long.push(0);
        match Checkpoint::from_bytes(&long) {
            Err(CkptError::Truncated { expected, got }) => {
                assert_eq!((expected, got), (646, 647))
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        let mut long = blob.to_bytes();
        long.extend_from_slice(b"junk");
        assert_eq!(Blob::from_bytes(&long, "manifest", 3).unwrap(), blob);
    }

    #[test]
    fn error_messages_name_the_failure() {
        let e = CkptError::BadDigest {
            expected: 1,
            got: 2,
        };
        assert!(e.to_string().contains("digest mismatch"));
        let e = CkptError::Version {
            found: 9,
            supported: 1,
        };
        assert!(e.to_string().contains("version 9"));
    }
}
