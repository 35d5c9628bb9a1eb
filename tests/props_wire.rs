//! Property-based tests (proptest) on every byte decoder a peer, a client
//! or a disk can feed: the farm frames, the cluster frames, the
//! checkpoint image, and the blob container the cluster's rank
//! checkpoints and recovery manifests sit in (the checkpoint's one file
//! container under a second prefix).
//!
//! All of them carry particle bits end to end, so each encoding must be a
//! bitwise bijection on everything it accepts: decode(encode(x))
//! re-encodes to the exact original bytes for *any* field values —
//! including NaN payloads, infinities and negative zero in the f64
//! lanes.  And each decoder must be total: every strict prefix of every
//! encoding is a typed error, never a panic or a wrong message, and
//! arbitrary bytes are answered with `Ok` or `Err`, never a panic.  The
//! checkpoint adds its digest: no single flipped bit changes what loads.
//! The farm frames are also held to it one layer down, where the server
//! meets them: through a real socket into the no-wait framed receive.

use grape6::ckpt::{Blob, Checkpoint, CkptError};
use grape6::core::checkpoint::{capture, integrator_state};
use grape6::core::{Grape6Engine, HermiteIntegrator, IntegratorConfig};
use grape6::farm::{DenyReason, FarmFrame, RetryAfter, SessionPhase, SessionStatus, TenantSpec};
use grape6::farm::{SessionId, TenantReport};
use grape6::nbody::ic::plummer::plummer_model;
use grape6::nbody::particle::ParticleSet;
use grape6::nbody::Vec3;
use grape6::net::transport::{dial_service, framed, FrameIoError, FramedConn, ServiceListener};
use grape6::net::{Frame, JRecord, StreamConfig, StreamKind};
use grape6::system::machine::MachineConfig;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// A particle set whose every f64 lane is an arbitrary bit pattern.
fn particles(bits: &[u64]) -> ParticleSet {
    let n = (bits.len() / 3).max(2);
    let f = |k: usize| f64::from_bits(bits[k % bits.len()]);
    let v = |k: usize| Vec3::new(f(k), f(k + 1), f(k + 2));
    let mut s = ParticleSet::with_capacity(n);
    for i in 0..n {
        s.push(f(i), v(i + 1), v(i + 4));
    }
    for i in 0..n {
        s.pot[i] = f(i + 7);
        s.t[i] = f(i + 8);
        s.dt[i] = f(i + 9);
        s.acc[i] = v(i + 10);
        s.jerk[i] = v(i + 13);
        s.snap[i] = v(i + 16);
        s.crackle[i] = v(i + 19);
    }
    s
}

fn retry(unit: bool, x: u64) -> RetryAfter {
    if unit {
        RetryAfter::Blocksteps(x)
    } else {
        RetryAfter::Millis(x)
    }
}

fn deny(tag: u8, a: u64, s: String) -> DenyReason {
    match tag % 11 {
        0 => DenyReason::Saturated {
            retry_after: retry(a.is_multiple_of(2), a),
        },
        1 => DenyReason::QueueFull { depth: a },
        2 => DenyReason::JobTooLarge {
            n: a,
            capacity: a / 2,
        },
        3 => DenyReason::InvalidJob { reason: s },
        4 => DenyReason::InvalidSpec { reason: s },
        5 => DenyReason::BadHello { reason: s },
        6 => DenyReason::UnknownSession,
        7 => DenyReason::NotReady,
        8 => DenyReason::JobFailed { reason: s },
        9 => DenyReason::Shutdown,
        _ => DenyReason::Internal { reason: s },
    }
}

fn phase(tag: u8) -> SessionPhase {
    [
        SessionPhase::Queued,
        SessionPhase::Resident,
        SessionPhase::Parked,
        SessionPhase::Detached,
        SessionPhase::Done,
        SessionPhase::Failed,
    ][tag as usize % 6]
}

/// What a decoder owes its callers, checked on one valid encoding: it
/// decodes and re-encodes to the same bytes; every strict prefix — what
/// a writer dying mid-write leaves behind — is a typed error; and
/// arbitrary bytes, alone or grafted onto a valid head, never panic.
fn decoder_is_total<T, E: std::fmt::Debug>(
    valid: &[u8],
    junk: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, E>,
    encode: impl Fn(&T) -> Vec<u8>,
) {
    let back = decode(valid).expect("own encoding rejected");
    assert_eq!(encode(&back), valid, "re-encode is not bitwise identical");
    for cut in 0..valid.len() {
        assert!(
            decode(&valid[..cut]).is_err(),
            "torn prefix of {cut}/{} bytes decoded Ok",
            valid.len()
        );
    }
    let _ = decode(junk);
    let _ = decode(&[&valid[..valid.len() / 2], junk].concat());
}

/// This test thread's listener (a shared one would hand one thread's
/// dialled connection to another thread's accept).
struct Sockets(ServiceListener, std::path::PathBuf);

impl Drop for Sockets {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.1);
    }
}

thread_local! {
    static SOCKETS: Sockets = {
        let dir = std::env::temp_dir().join(format!(
            "g6-props-wire-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let listener = ServiceListener::bind(StreamKind::Uds, &dir, "props").expect("bind");
        Sockets(listener, dir)
    };
}

/// A connected (receiving, sending) pair of framed UDS connections — on
/// a Unix socket, written bytes are readable the moment the peer's
/// `write` returns.  A hangup is not promised to be: [`hangup`] waits
/// for it.
fn socket_pair() -> (FramedConn, FramedConn) {
    SOCKETS.with(|s| {
        let tx = dial_service(s.0.addr(), StreamKind::Uds, &StreamConfig::default()).expect("dial");
        let rx = s.0.try_accept().expect("accept").expect("a dialled peer");
        (rx, tx)
    })
}

/// The first no-wait receive on `rx` after its peer hung up that is not
/// `Ok(None)`, or the last `Ok(None)` if none comes within five seconds:
/// a non-blocking read right after the peer's close has been seen to
/// answer "nothing yet" instead of the hangup.
fn hangup(rx: &mut FramedConn) -> Result<Option<Vec<u8>>, FrameIoError> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match rx.recv_payload_nowait() {
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
            seen => return seen,
        }
    }
}

/// The decoder contract at the framed receive: every strict prefix of a
/// frame on the wire is `None` — bytes kept — while the peer lives and a
/// torn close once it is gone, the whole frame comes out as sent, and
/// arbitrary bytes get typed answers, never a panic.
fn nowait_receive_is_total(payload: &[u8], junk: &[u8]) {
    let wire = framed(payload);
    for cut in 0..wire.len() {
        let (mut rx, mut tx) = socket_pair();
        tx.send_raw(&wire[..cut]).expect("prefix");
        assert_eq!(rx.recv_payload_nowait(), Ok(None), "prefix {cut}");
        assert_eq!(rx.buffered(), cut);
        drop(tx);
        assert_eq!(
            hangup(&mut rx),
            Err(FrameIoError::Closed { torn: cut > 0 }),
            "prefix {cut} after the hangup"
        );
        assert_eq!(rx.buffered(), cut, "prefix {cut}: bytes taken");
    }
    let (mut rx, mut tx) = socket_pair();
    tx.send_raw(&wire).expect("frame");
    assert_eq!(rx.recv_payload_nowait(), Ok(Some(payload.to_vec())));
    assert_eq!(rx.recv_payload_nowait(), Ok(None));
    tx.send_raw(junk).expect("junk");
    while let Ok(Some(_)) = rx.recv_payload_nowait() {}
    drop(tx);
    let _ = rx.recv_payload_nowait();
}

fn farm_frame_is_total(frame: &FarmFrame, junk: &[u8]) {
    let valid = frame.encode();
    decoder_is_total(&valid, junk, FarmFrame::decode, FarmFrame::encode);
    nowait_receive_is_total(&valid, junk);
}

/// A checkpoint with a real engine record (a tiny machine's) around
/// integrator lanes of arbitrary bit patterns.
fn checkpoint(bits: &[u64], label: &str) -> Checkpoint {
    let n = 8;
    let set = plummer_model(n, &mut StdRng::seed_from_u64(5));
    let engine = Grape6Engine::try_new(&MachineConfig::test_small(), n).expect("fits");
    let it = HermiteIntegrator::new(engine, set, IntegratorConfig::default());
    let mut ckpt = capture(&it, label);
    let f = |k: usize| f64::from_bits(bits[k % bits.len()]);
    ckpt.integrator = integrator_state(&particles(bits), f(0), f(1), it.stats());
    ckpt
}

proptest! {
    /// Submit and Result — the frames that carry physics — round-trip
    /// bitwise for arbitrary f64 bit patterns in every particle lane.
    #[test]
    fn particle_frames_roundtrip_any_bits(
        bits in prop::collection::vec(any::<u64>(), 6..24),
        seq in any::<u64>(),
        t_end in any::<u64>(),
        label in ".{0,24}",
        tenant in any::<u32>(),
        index in any::<u32>(),
        junk in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let set = particles(&bits);
        farm_frame_is_total(
            &FarmFrame::Submit {
                seq,
                t_end,
                label,
                set: set.clone(),
            },
            &junk,
        );
        let mut report = TenantReport::default();
        report.weight = tenant.max(1);
        report.grants = seq;
        report.blocksteps = t_end;
        report.breakdown.host = f64::from_bits(bits[0]);
        report.recovery.restores = bits[1 % bits.len()];
        farm_frame_is_total(
            &FarmFrame::Result {
                session: SessionId { tenant, index },
                particles: set,
                report,
            },
            &junk,
        );
    }

    /// The control-plane frames round-trip for arbitrary field values,
    /// every deny reason and every session phase included.
    #[test]
    fn control_frames_roundtrip(
        nonce in any::<u64>(),
        weight in 1u32..u32::MAX,
        cap in proptest::option::of(any::<u64>()),
        deadline in proptest::option::of(any::<u64>()),
        tenant in any::<u32>(),
        index in any::<u32>(),
        a in any::<u64>(),
        tag in any::<u8>(),
        text in ".{0,40}",
        junk in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut spec = TenantSpec::new(weight);
        if let Some(c) = cap {
            spec = spec.queue_cap(c as usize);
        }
        if let Some(d) = deadline {
            spec = spec.deadline_grants(d);
        }
        let session = SessionId { tenant, index };
        for frame in [
            FarmFrame::Hello { proto: tag as u32, nonce, spec },
            FarmFrame::HelloAck { proto: tag as u32, tenant },
            FarmFrame::Ticket { seq: a, session },
            FarmFrame::Query { session },
            FarmFrame::Status {
                status: SessionStatus {
                    session,
                    phase: phase(tag),
                    blocksteps: a,
                    resumes: nonce,
                },
            },
            FarmFrame::Fetch { session },
            FarmFrame::Cancel { session },
            FarmFrame::Deny { seq: a, reason: deny(tag, nonce, text) },
            FarmFrame::Beat { epoch: a },
            FarmFrame::Bye,
        ] {
            farm_frame_is_total(&frame, &junk);
        }
    }

    /// The cluster frames: same contract, every variant, arbitrary
    /// fields (a NaN block time and a non-ascending dead list included).
    #[test]
    fn cluster_frames_roundtrip_and_refuse_torn_prefixes(
        a in any::<u64>(),
        b in any::<u64>(),
        words in prop::collection::vec(any::<u64>(), 0..24),
        junk in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let (gen, round) = (a as u32, (a >> 32) as u32);
        for frame in [
            Frame::Stage {
                gen,
                step: b,
                stage: round,
                t_min: f64::from_bits(b),
                ckpt: a,
                records: words
                    .chunks(3)
                    .map(|w| JRecord { index: w[0] ^ a, words: w.to_vec() })
                    .collect(),
                pad: b,
            },
            Frame::Data(junk.clone()),
            Frame::Heartbeat { gen, epoch: b },
            Frame::Recover { gen, round, dead: words.clone(), ckpt: b },
        ] {
            decoder_is_total(&frame.encode(), &junk, Frame::decode, Frame::encode);
        }
    }

    /// The blob container: same contract for any payload — an empty one
    /// and one full of newlines (the header's terminator) included.
    #[test]
    fn blob_container_is_total(
        payload in prop::collection::vec(any::<u8>(), 0..96),
        version in any::<u32>(),
        junk in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let kind = "cluster-rank";
        decoder_is_total(
            &Blob::new(kind, version, payload).to_bytes(),
            &junk,
            |b| Blob::from_bytes(b, kind, version),
            Blob::to_bytes,
        );
    }
}

proptest! {
    // Every bit of every image is flipped, so a handful of images do.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The checkpoint image: the decoder contract, and the digest.  A
    /// flipped payload bit is a `BadDigest`; a flipped header bit is
    /// refused too, or (the case of a hex digit, the header's redundant
    /// version) loads the checkpoint that was written.
    #[test]
    fn checkpoint_image_is_total_and_no_flipped_bit_changes_what_loads(
        bits in prop::collection::vec(any::<u64>(), 6..12),
        label in ".{0,24}",
        junk in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let image = checkpoint(&bits, &label).to_bytes();
        decoder_is_total(&image, &junk, Checkpoint::from_bytes, Checkpoint::to_bytes);
        let payload_at = image.iter().position(|&b| b == b'\n').expect("header line") + 1;
        let mut flipped = image.clone();
        for bit in 0..8 * image.len() {
            flipped[bit / 8] ^= 1 << (bit % 8);
            match Checkpoint::from_bytes(&flipped) {
                Err(CkptError::BadDigest { .. }) => {}
                Err(e) => assert!(bit / 8 < payload_at, "payload bit {bit}: {e}"),
                Ok(c) => {
                    assert!(bit / 8 < payload_at, "payload bit {bit} accepted");
                    assert_eq!(c.to_bytes(), image, "header bit {bit} changed what loads");
                }
            }
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }
}
