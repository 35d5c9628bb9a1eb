//! The farm service wire protocol.
//!
//! [`FarmFrame`] is the message set a [`FarmClient`](crate::FarmClient)
//! and [`FarmServer`](crate::FarmServer) exchange over a
//! `grape6_net::FramedConn` (u64 length prefix + payload).  Encoding is
//! the same hand-rolled little-endian `grape6-ckpt` layout checkpoints
//! use: `f64`s travel as bit patterns, sequences carry allocation-guarded
//! length prefixes, and decode demands full consumption — so a particle
//! set survives the network *bitwise*, which is what lets the soak
//! compare a wire-submitted job against an in-process run down to the
//! last mantissa bit.
//!
//! Backpressure is typed all the way across: every admission rejection
//! the in-process [`Farm`](crate::Farm) produces has a [`DenyReason`]
//! twin that rides a [`FarmFrame::Deny`] instead of a closed socket.
//!
//! ```text
//! client                       server
//!   │ Hello{proto,nonce,spec}    │
//!   │───────────────────────────▶│  register tenant
//!   │◀───────────────────────────│ HelloAck{proto,tenant} | Deny
//!   │ Submit{seq,job}            │
//!   │───────────────────────────▶│  Job::builder + Farm::submit
//!   │◀───────────────────────────│ Ticket{seq,session} | Deny
//!   │ Query/Beat …               │  scheduler rounds interleave
//!   │◀──────────────────────────▶│ Status{phase,…}
//!   │ Fetch{session}             │
//!   │───────────────────────────▶│  Farm::take_result
//!   │◀───────────────────────────│ Result{particles,report} | Deny
//!   │ Bye                        │
//!   │───────────────────────────▶│  remaining sessions detach
//! ```

use grape6_ckpt::digest::fnv1a64;
use grape6_ckpt::wire::{Dec, Enc, WireError};
use nbody_core::particle::ParticleSet;
use nbody_core::vec3::Vec3;

use crate::error::{FarmError, RetryAfter};
use crate::farm::TenantSpec;
use crate::session::{SessionId, SessionPhase, SessionStatus, TenantId};
use crate::stats::TenantReport;

/// Protocol version; a `Hello` carrying any other value is denied with
/// [`DenyReason::BadHello`] instead of being guessed at.
pub const FARM_PROTO: u32 = 1;

/// Why the server refused a request — the wire twin of [`FarmError`],
/// minus the variants that only make sense in-process.
#[derive(Clone, Debug, PartialEq)]
pub enum DenyReason {
    /// Farm at its multiprogramming ceiling; retry after the hint.  The
    /// server converts the farm's blockstep hint to wall milliseconds
    /// using its measured blockstep rate before sending.
    Saturated {
        /// When to retry, unit explicit.
        retry_after: RetryAfter,
    },
    /// The tenant's live-session queue is full.
    QueueFull {
        /// The depth that was hit.
        depth: u64,
    },
    /// The job exceeds one board's j-memory.
    JobTooLarge {
        /// Particles requested.
        n: u64,
        /// Slots one board offers.
        capacity: u64,
    },
    /// The job failed `Job::builder` validation on the server.
    InvalidJob {
        /// The failed check.
        reason: String,
    },
    /// The connection's tenant spec failed validation.
    InvalidSpec {
        /// The failed check.
        reason: String,
    },
    /// Handshake failure: wrong protocol version, wrong nonce, or a
    /// request before `Hello`.
    BadHello {
        /// What was wrong.
        reason: String,
    },
    /// The session id is not one of this connection's (or its result
    /// was already taken).
    UnknownSession,
    /// The session has not finished yet; poll again.
    NotReady,
    /// The session finished by failing.
    JobFailed {
        /// What killed it.
        reason: String,
    },
    /// The server is shutting down.
    Shutdown,
    /// A farm-internal failure (pool exhausted, scheduler stall).
    Internal {
        /// The farm's own description.
        reason: String,
    },
}

impl DenyReason {
    /// Map an in-process rejection to its wire twin.  `QueueFull` drops
    /// the tenant id (each connection knows its own); `UnknownTenant`
    /// cannot happen on an authenticated connection and maps to
    /// `BadHello`.
    pub fn from_error(e: &FarmError) -> Self {
        match e {
            FarmError::Saturated { retry_after } => Self::Saturated {
                retry_after: *retry_after,
            },
            FarmError::QueueFull { depth, .. } => Self::QueueFull {
                depth: *depth as u64,
            },
            FarmError::JobTooLarge { n, capacity } => Self::JobTooLarge {
                n: *n as u64,
                capacity: *capacity as u64,
            },
            FarmError::InvalidJob { reason } => Self::InvalidJob {
                reason: reason.clone(),
            },
            FarmError::InvalidConfig { reason } => Self::InvalidSpec {
                reason: reason.clone(),
            },
            FarmError::UnknownTenant(t) => Self::BadHello {
                reason: format!("unknown tenant {t}"),
            },
            FarmError::UnknownSession(_) => Self::UnknownSession,
            FarmError::NotReady { .. } => Self::NotReady,
            FarmError::JobFailed { reason, .. } => Self::JobFailed {
                reason: reason.clone(),
            },
            FarmError::PoolExhausted | FarmError::Stalled { .. } => Self::Internal {
                reason: e.to_string(),
            },
        }
    }
}

impl std::fmt::Display for DenyReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Saturated { retry_after } => {
                write!(f, "saturated; retry after {retry_after}")
            }
            Self::QueueFull { depth } => write!(f, "queue full (depth {depth})"),
            Self::JobTooLarge { n, capacity } => {
                write!(f, "job of {n} particles exceeds capacity {capacity}")
            }
            Self::InvalidJob { reason } => write!(f, "invalid job: {reason}"),
            Self::InvalidSpec { reason } => write!(f, "invalid tenant spec: {reason}"),
            Self::BadHello { reason } => write!(f, "handshake rejected: {reason}"),
            Self::UnknownSession => f.write_str("unknown session"),
            Self::NotReady => f.write_str("session not finished yet"),
            Self::JobFailed { reason } => write!(f, "job failed: {reason}"),
            Self::Shutdown => f.write_str("server shutting down"),
            Self::Internal { reason } => write!(f, "server failure: {reason}"),
        }
    }
}

/// A farm service message.  `PartialEq` is deliberately absent (particle
/// payloads compare bitwise through [`particles_digest`], not `==`).
#[derive(Clone, Debug)]
pub enum FarmFrame {
    /// Client → server: open a session stream.  `nonce` must match the
    /// server's published rendezvous nonce (stale-address defense, same
    /// as the cluster transport).
    Hello {
        /// Must equal [`FARM_PROTO`].
        proto: u32,
        /// The server's published rendezvous nonce.
        nonce: u64,
        /// The tenant registration this connection runs under.
        spec: TenantSpec,
    },
    /// Server → client: handshake accepted; subsequent frames run under
    /// `tenant`.
    HelloAck {
        /// Echoed protocol version.
        proto: u32,
        /// The registered tenant id.
        tenant: TenantId,
    },
    /// Client → server: submit a job.  `seq` is a client-chosen request
    /// id echoed in the matching `Ticket`/`Deny`.  `t_end` travels as an
    /// `f64` bit pattern; the particle arrays travel bitwise.
    Submit {
        /// Client request id, echoed in the reply.
        seq: u64,
        /// Target time as an IEEE-754 bit pattern.
        t_end: u64,
        /// Job label.
        label: String,
        /// Initial conditions.
        set: ParticleSet,
    },
    /// Server → client: the submit was admitted as `session`.
    Ticket {
        /// Echoed request id.
        seq: u64,
        /// The admitted session.
        session: SessionId,
    },
    /// Client → server: ask where a session is.
    Query {
        /// The session to report on.
        session: SessionId,
    },
    /// Server → client: a point-in-time session snapshot.
    Status {
        /// The snapshot.
        status: SessionStatus,
    },
    /// Client → server: take a finished session's result.
    Fetch {
        /// The session to collect.
        session: SessionId,
    },
    /// Server → client: the finished session's particles and the owning
    /// tenant's accounting — the wire form of
    /// [`JobResult`](crate::JobResult).
    Result {
        /// The session this result belongs to.
        session: SessionId,
        /// Final particle state, bitwise.
        particles: ParticleSet,
        /// The owning tenant's accounting snapshot.
        report: TenantReport,
    },
    /// Client → server: cancel a session (server replies `Status`).
    Cancel {
        /// The session to cancel.
        session: SessionId,
    },
    /// Server → client: a request was refused, with the typed reason.
    /// `seq` echoes a `Submit`'s request id (0 for non-submit denials).
    Deny {
        /// Echoed submit request id, or 0.
        seq: u64,
        /// The refusal.
        reason: DenyReason,
    },
    /// Either direction: liveness.  A server that misses beats past its
    /// grace window detaches the connection's sessions
    /// (checkpoint-eviction) and reclaims their boards.
    Beat {
        /// Monotonic per-connection counter.
        epoch: u64,
    },
    /// Client → server: orderly goodbye; the server detaches any
    /// unfinished sessions without waiting for the heartbeat grace.
    Bye,
}

const TAG_HELLO: u32 = 1;
const TAG_HELLO_ACK: u32 = 2;
const TAG_SUBMIT: u32 = 3;
const TAG_TICKET: u32 = 4;
const TAG_QUERY: u32 = 5;
const TAG_STATUS: u32 = 6;
const TAG_FETCH: u32 = 7;
const TAG_RESULT: u32 = 8;
const TAG_CANCEL: u32 = 9;
const TAG_DENY: u32 = 10;
const TAG_BEAT: u32 = 11;
const TAG_BYE: u32 = 12;

const RETRY_BLOCKSTEPS: u32 = 0;
const RETRY_MILLIS: u32 = 1;

const DENY_SATURATED: u32 = 1;
const DENY_QUEUE_FULL: u32 = 2;
const DENY_JOB_TOO_LARGE: u32 = 3;
const DENY_INVALID_JOB: u32 = 4;
const DENY_INVALID_SPEC: u32 = 5;
const DENY_BAD_HELLO: u32 = 6;
const DENY_UNKNOWN_SESSION: u32 = 7;
const DENY_NOT_READY: u32 = 8;
const DENY_JOB_FAILED: u32 = 9;
const DENY_SHUTDOWN: u32 = 10;
const DENY_INTERNAL: u32 = 11;

const PHASE_QUEUED: u32 = 0;
const PHASE_RESIDENT: u32 = 1;
const PHASE_PARKED: u32 = 2;
const PHASE_DETACHED: u32 = 3;
const PHASE_DONE: u32 = 4;
const PHASE_FAILED: u32 = 5;

fn enc_session(e: &mut Enc, s: SessionId) {
    e.u32(s.tenant);
    e.u32(s.index);
}

fn dec_session(d: &mut Dec) -> Result<SessionId, WireError> {
    Ok(SessionId {
        tenant: d.u32()?,
        index: d.u32()?,
    })
}

fn enc_retry(e: &mut Enc, r: RetryAfter) {
    match r {
        RetryAfter::Blocksteps(b) => {
            e.u32(RETRY_BLOCKSTEPS);
            e.u64(b);
        }
        RetryAfter::Millis(ms) => {
            e.u32(RETRY_MILLIS);
            e.u64(ms);
        }
    }
}

fn dec_retry(d: &mut Dec) -> Result<RetryAfter, WireError> {
    match d.u32()? {
        RETRY_BLOCKSTEPS => Ok(RetryAfter::Blocksteps(d.u64()?)),
        RETRY_MILLIS => Ok(RetryAfter::Millis(d.u64()?)),
        _ => Err(WireError::Bool),
    }
}

fn enc_phase(e: &mut Enc, p: SessionPhase) {
    e.u32(match p {
        SessionPhase::Queued => PHASE_QUEUED,
        SessionPhase::Resident => PHASE_RESIDENT,
        SessionPhase::Parked => PHASE_PARKED,
        SessionPhase::Detached => PHASE_DETACHED,
        SessionPhase::Done => PHASE_DONE,
        SessionPhase::Failed => PHASE_FAILED,
    });
}

fn dec_phase(d: &mut Dec) -> Result<SessionPhase, WireError> {
    Ok(match d.u32()? {
        PHASE_QUEUED => SessionPhase::Queued,
        PHASE_RESIDENT => SessionPhase::Resident,
        PHASE_PARKED => SessionPhase::Parked,
        PHASE_DETACHED => SessionPhase::Detached,
        PHASE_DONE => SessionPhase::Done,
        PHASE_FAILED => SessionPhase::Failed,
        _ => return Err(WireError::Bool),
    })
}

fn enc_spec(e: &mut Enc, s: &TenantSpec) {
    e.u32(s.weight);
    e.bool(s.queue_cap.is_some());
    e.u64(s.queue_cap.unwrap_or(0) as u64);
    e.bool(s.deadline_grants.is_some());
    e.u64(s.deadline_grants.unwrap_or(0));
}

fn dec_spec(d: &mut Dec) -> Result<TenantSpec, WireError> {
    let weight = d.u32()?;
    let has_cap = d.bool()?;
    let cap = d.size()?;
    let has_deadline = d.bool()?;
    let deadline = d.u64()?;
    Ok(TenantSpec {
        weight,
        queue_cap: has_cap.then_some(cap),
        deadline_grants: has_deadline.then_some(deadline),
    })
}

fn enc_deny(e: &mut Enc, r: &DenyReason) {
    match r {
        DenyReason::Saturated { retry_after } => {
            e.u32(DENY_SATURATED);
            enc_retry(e, *retry_after);
        }
        DenyReason::QueueFull { depth } => {
            e.u32(DENY_QUEUE_FULL);
            e.u64(*depth);
        }
        DenyReason::JobTooLarge { n, capacity } => {
            e.u32(DENY_JOB_TOO_LARGE);
            e.u64(*n);
            e.u64(*capacity);
        }
        DenyReason::InvalidJob { reason } => {
            e.u32(DENY_INVALID_JOB);
            e.str(reason);
        }
        DenyReason::InvalidSpec { reason } => {
            e.u32(DENY_INVALID_SPEC);
            e.str(reason);
        }
        DenyReason::BadHello { reason } => {
            e.u32(DENY_BAD_HELLO);
            e.str(reason);
        }
        DenyReason::UnknownSession => e.u32(DENY_UNKNOWN_SESSION),
        DenyReason::NotReady => e.u32(DENY_NOT_READY),
        DenyReason::JobFailed { reason } => {
            e.u32(DENY_JOB_FAILED);
            e.str(reason);
        }
        DenyReason::Shutdown => e.u32(DENY_SHUTDOWN),
        DenyReason::Internal { reason } => {
            e.u32(DENY_INTERNAL);
            e.str(reason);
        }
    }
}

fn dec_deny(d: &mut Dec) -> Result<DenyReason, WireError> {
    Ok(match d.u32()? {
        DENY_SATURATED => DenyReason::Saturated {
            retry_after: dec_retry(d)?,
        },
        DENY_QUEUE_FULL => DenyReason::QueueFull { depth: d.u64()? },
        DENY_JOB_TOO_LARGE => DenyReason::JobTooLarge {
            n: d.u64()?,
            capacity: d.u64()?,
        },
        DENY_INVALID_JOB => DenyReason::InvalidJob { reason: d.str()? },
        DENY_INVALID_SPEC => DenyReason::InvalidSpec { reason: d.str()? },
        DENY_BAD_HELLO => DenyReason::BadHello { reason: d.str()? },
        DENY_UNKNOWN_SESSION => DenyReason::UnknownSession,
        DENY_NOT_READY => DenyReason::NotReady,
        DENY_JOB_FAILED => DenyReason::JobFailed { reason: d.str()? },
        DENY_SHUTDOWN => DenyReason::Shutdown,
        DENY_INTERNAL => DenyReason::Internal { reason: d.str()? },
        _ => return Err(WireError::Bool),
    })
}

fn v3bits(v: &[Vec3]) -> Vec<[u64; 3]> {
    v.iter()
        .map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
        .collect()
}

fn v3unbits(v: Vec<[u64; 3]>) -> Vec<Vec3> {
    v.into_iter()
        .map(|b| {
            Vec3::new(
                f64::from_bits(b[0]),
                f64::from_bits(b[1]),
                f64::from_bits(b[2]),
            )
        })
        .collect()
}

fn fbits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn funbits(v: Vec<u64>) -> Vec<f64> {
    v.into_iter().map(f64::from_bits).collect()
}

/// Encode a particle set bitwise (all ten SoA arrays as bit patterns).
fn enc_particles(e: &mut Enc, p: &ParticleSet) {
    e.size(p.n());
    e.seq_u64(&fbits(&p.mass));
    e.seq_u64x3(&v3bits(&p.pos));
    e.seq_u64x3(&v3bits(&p.vel));
    e.seq_u64x3(&v3bits(&p.acc));
    e.seq_u64x3(&v3bits(&p.jerk));
    e.seq_u64x3(&v3bits(&p.snap));
    e.seq_u64x3(&v3bits(&p.crackle));
    e.seq_u64(&fbits(&p.pot));
    e.seq_u64(&fbits(&p.t));
    e.seq_u64(&fbits(&p.dt));
}

fn dec_particles(d: &mut Dec) -> Result<ParticleSet, WireError> {
    let n = d.size()?;
    let set = ParticleSet {
        mass: funbits(d.seq_u64()?),
        pos: v3unbits(d.seq_u64x3()?),
        vel: v3unbits(d.seq_u64x3()?),
        acc: v3unbits(d.seq_u64x3()?),
        jerk: v3unbits(d.seq_u64x3()?),
        snap: v3unbits(d.seq_u64x3()?),
        crackle: v3unbits(d.seq_u64x3()?),
        pot: funbits(d.seq_u64()?),
        t: funbits(d.seq_u64()?),
        dt: funbits(d.seq_u64()?),
    };
    // Every array must agree with the declared count — a frame whose
    // arrays are ragged would otherwise smuggle an inconsistent set
    // into the integrator.
    let lens = [
        set.mass.len(),
        set.pos.len(),
        set.vel.len(),
        set.acc.len(),
        set.jerk.len(),
        set.snap.len(),
        set.crackle.len(),
        set.pot.len(),
        set.t.len(),
        set.dt.len(),
    ];
    if lens.iter().any(|&l| l != n) {
        return Err(WireError::Oversize);
    }
    Ok(set)
}

fn enc_report(e: &mut Enc, r: &TenantReport) {
    e.u32(r.weight);
    e.u64(r.grants);
    e.u64(r.blocksteps);
    e.u64(r.completed);
    e.u64(r.failed);
    for term in [
        r.breakdown.host,
        r.breakdown.dma,
        r.breakdown.interface,
        r.breakdown.grape,
        r.breakdown.sync,
        r.breakdown.exchange,
        r.breakdown.wall,
    ] {
        e.u64(term.to_bits());
    }
    e.u64(r.recovery.checkpoints_taken);
    e.u64(r.recovery.step_retries);
    e.u64(r.recovery.restores);
    e.u64(r.recovery.reselftests);
    e.u64(r.recovery.redistributions);
    e.u64(r.recovery.recovery_seconds.to_bits());
}

fn dec_report(d: &mut Dec) -> Result<TenantReport, WireError> {
    let mut r = TenantReport {
        weight: d.u32()?,
        grants: d.u64()?,
        blocksteps: d.u64()?,
        completed: d.u64()?,
        failed: d.u64()?,
        ..TenantReport::default()
    };
    r.breakdown.host = f64::from_bits(d.u64()?);
    r.breakdown.dma = f64::from_bits(d.u64()?);
    r.breakdown.interface = f64::from_bits(d.u64()?);
    r.breakdown.grape = f64::from_bits(d.u64()?);
    r.breakdown.sync = f64::from_bits(d.u64()?);
    r.breakdown.exchange = f64::from_bits(d.u64()?);
    r.breakdown.wall = f64::from_bits(d.u64()?);
    r.recovery.checkpoints_taken = d.u64()?;
    r.recovery.step_retries = d.u64()?;
    r.recovery.restores = d.u64()?;
    r.recovery.reselftests = d.u64()?;
    r.recovery.redistributions = d.u64()?;
    r.recovery.recovery_seconds = f64::from_bits(d.u64()?);
    Ok(r)
}

/// FNV-1a digest of a particle set's bitwise wire encoding — the
/// machine-parsable fingerprint the bins print and the soak compares.
pub fn particles_digest(p: &ParticleSet) -> u64 {
    let mut e = Enc::new();
    enc_particles(&mut e, p);
    fnv1a64(&e.into_bytes())
}

impl FarmFrame {
    /// Encode into the little-endian wire layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            Self::Hello { proto, nonce, spec } => {
                e.u32(TAG_HELLO);
                e.u32(*proto);
                e.u64(*nonce);
                enc_spec(&mut e, spec);
            }
            Self::HelloAck { proto, tenant } => {
                e.u32(TAG_HELLO_ACK);
                e.u32(*proto);
                e.u32(*tenant);
            }
            Self::Submit {
                seq,
                t_end,
                label,
                set,
            } => {
                e.u32(TAG_SUBMIT);
                e.u64(*seq);
                e.u64(*t_end);
                e.str(label);
                enc_particles(&mut e, set);
            }
            Self::Ticket { seq, session } => {
                e.u32(TAG_TICKET);
                e.u64(*seq);
                enc_session(&mut e, *session);
            }
            Self::Query { session } => {
                e.u32(TAG_QUERY);
                enc_session(&mut e, *session);
            }
            Self::Status { status } => {
                e.u32(TAG_STATUS);
                enc_session(&mut e, status.session);
                enc_phase(&mut e, status.phase);
                e.u64(status.blocksteps);
                e.u64(status.resumes);
            }
            Self::Fetch { session } => {
                e.u32(TAG_FETCH);
                enc_session(&mut e, *session);
            }
            Self::Result {
                session,
                particles,
                report,
            } => {
                e.u32(TAG_RESULT);
                enc_session(&mut e, *session);
                enc_particles(&mut e, particles);
                enc_report(&mut e, report);
            }
            Self::Cancel { session } => {
                e.u32(TAG_CANCEL);
                enc_session(&mut e, *session);
            }
            Self::Deny { seq, reason } => {
                e.u32(TAG_DENY);
                e.u64(*seq);
                enc_deny(&mut e, reason);
            }
            Self::Beat { epoch } => {
                e.u32(TAG_BEAT);
                e.u64(*epoch);
            }
            Self::Bye => e.u32(TAG_BYE),
        }
        e.into_bytes()
    }

    /// Decode a frame, requiring full consumption of `buf`.
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let mut d = Dec::new(buf);
        let out = match d.u32()? {
            TAG_HELLO => Self::Hello {
                proto: d.u32()?,
                nonce: d.u64()?,
                spec: dec_spec(&mut d)?,
            },
            TAG_HELLO_ACK => Self::HelloAck {
                proto: d.u32()?,
                tenant: d.u32()?,
            },
            TAG_SUBMIT => Self::Submit {
                seq: d.u64()?,
                t_end: d.u64()?,
                label: d.str()?,
                set: dec_particles(&mut d)?,
            },
            TAG_TICKET => Self::Ticket {
                seq: d.u64()?,
                session: dec_session(&mut d)?,
            },
            TAG_QUERY => Self::Query {
                session: dec_session(&mut d)?,
            },
            TAG_STATUS => Self::Status {
                status: SessionStatus {
                    session: dec_session(&mut d)?,
                    phase: dec_phase(&mut d)?,
                    blocksteps: d.u64()?,
                    resumes: d.u64()?,
                },
            },
            TAG_FETCH => Self::Fetch {
                session: dec_session(&mut d)?,
            },
            TAG_RESULT => Self::Result {
                session: dec_session(&mut d)?,
                particles: dec_particles(&mut d)?,
                report: dec_report(&mut d)?,
            },
            TAG_CANCEL => Self::Cancel {
                session: dec_session(&mut d)?,
            },
            TAG_DENY => Self::Deny {
                seq: d.u64()?,
                reason: dec_deny(&mut d)?,
            },
            TAG_BEAT => Self::Beat { epoch: d.u64()? },
            TAG_BYE => Self::Bye,
            _ => return Err(WireError::Bool),
        };
        d.finish()?;
        Ok(out)
    }

    /// The frame's wire name, for protocol-violation diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Hello { .. } => "Hello",
            Self::HelloAck { .. } => "HelloAck",
            Self::Submit { .. } => "Submit",
            Self::Ticket { .. } => "Ticket",
            Self::Query { .. } => "Query",
            Self::Status { .. } => "Status",
            Self::Fetch { .. } => "Fetch",
            Self::Result { .. } => "Result",
            Self::Cancel { .. } => "Cancel",
            Self::Deny { .. } => "Deny",
            Self::Beat { .. } => "Beat",
            Self::Bye => "Bye",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_set(n: usize) -> ParticleSet {
        let mut s = ParticleSet::with_capacity(n);
        for i in 0..n {
            let x = i as f64;
            s.push(
                1.0 / n as f64,
                Vec3::new(x * 0.25, -x, 1.0 / (x + 1.0)),
                Vec3::new(0.5, x * 1e-3, -2.0),
            );
        }
        // Exercise the derivative arrays and awkward bit patterns.
        if n > 0 {
            s.acc[0] = Vec3::new(f64::from_bits(0x7ff8_dead_beef_0001), 0.0, -0.0);
            s.dt[0] = f64::INFINITY;
            s.t[n - 1] = 0.062_5;
        }
        s
    }

    fn frames() -> Vec<FarmFrame> {
        vec![
            FarmFrame::Hello {
                proto: FARM_PROTO,
                nonce: 0xdead_beef_cafe_f00d,
                spec: TenantSpec::new(3).queue_cap(2).deadline_grants(64),
            },
            FarmFrame::HelloAck {
                proto: FARM_PROTO,
                tenant: 7,
            },
            FarmFrame::Submit {
                seq: 42,
                t_end: 0.125_f64.to_bits(),
                label: "wire job".into(),
                set: sample_set(5),
            },
            FarmFrame::Ticket {
                seq: 42,
                session: SessionId {
                    tenant: 7,
                    index: 3,
                },
            },
            FarmFrame::Query {
                session: SessionId {
                    tenant: 7,
                    index: 3,
                },
            },
            FarmFrame::Status {
                status: SessionStatus {
                    session: SessionId {
                        tenant: 7,
                        index: 3,
                    },
                    phase: SessionPhase::Detached,
                    blocksteps: 99,
                    resumes: 2,
                },
            },
            FarmFrame::Fetch {
                session: SessionId {
                    tenant: 7,
                    index: 3,
                },
            },
            FarmFrame::Result {
                session: SessionId {
                    tenant: 7,
                    index: 3,
                },
                particles: sample_set(4),
                report: TenantReport {
                    weight: 3,
                    grants: 17,
                    blocksteps: 136,
                    completed: 2,
                    failed: 1,
                    ..TenantReport::default()
                },
            },
            FarmFrame::Cancel {
                session: SessionId {
                    tenant: 7,
                    index: 4,
                },
            },
            FarmFrame::Deny {
                seq: 43,
                reason: DenyReason::Saturated {
                    retry_after: RetryAfter::Millis(250),
                },
            },
            FarmFrame::Deny {
                seq: 0,
                reason: DenyReason::JobFailed {
                    reason: "deadline exceeded".into(),
                },
            },
            FarmFrame::Beat { epoch: 11 },
            FarmFrame::Bye,
        ]
    }

    #[test]
    fn every_frame_roundtrips_bitwise() {
        for f in frames() {
            let bytes = f.encode();
            let back = FarmFrame::decode(&bytes).unwrap();
            // Bitwise identity of the re-encoding is the contract (frames
            // carry NaN payloads, so == would be the wrong comparison).
            assert_eq!(back.encode(), bytes, "{f:?} changed across the wire");
        }
    }

    #[test]
    fn trailing_bytes_and_unknown_tags_are_rejected() {
        let mut bytes = FarmFrame::Beat { epoch: 1 }.encode();
        bytes.push(0);
        assert_eq!(FarmFrame::decode(&bytes).err(), Some(WireError::Trailing));
        let mut e = Enc::new();
        e.u32(999);
        assert!(FarmFrame::decode(&e.into_bytes()).is_err());
    }

    #[test]
    fn ragged_particle_arrays_are_rejected() {
        let mut set = sample_set(3);
        set.pot.pop();
        let f = FarmFrame::Submit {
            seq: 1,
            t_end: 1.0_f64.to_bits(),
            label: "ragged".into(),
            set,
        };
        assert!(FarmFrame::decode(&f.encode()).is_err());
    }

    #[test]
    fn oversize_particle_count_does_not_allocate() {
        let mut e = Enc::new();
        e.u32(TAG_SUBMIT);
        e.u64(1);
        e.u64(0);
        e.str("bomb");
        e.size(usize::MAX / 16); // declared n
        e.u64(usize::MAX as u64 / 16); // mass length prefix
        assert!(FarmFrame::decode(&e.into_bytes()).is_err());
    }

    #[test]
    fn particles_digest_tracks_every_bit() {
        let a = sample_set(6);
        let mut b = a.clone();
        assert_eq!(particles_digest(&a), particles_digest(&b));
        b.vel[3].y = f64::from_bits(b.vel[3].y.to_bits() ^ 1);
        assert_ne!(particles_digest(&a), particles_digest(&b));
    }

    #[test]
    fn deny_reason_maps_every_farm_error() {
        use crate::error::FarmError as E;
        let sid = SessionId {
            tenant: 1,
            index: 2,
        };
        let cases: Vec<(E, DenyReason)> = vec![
            (
                E::Saturated {
                    retry_after: RetryAfter::Blocksteps(16),
                },
                DenyReason::Saturated {
                    retry_after: RetryAfter::Blocksteps(16),
                },
            ),
            (
                E::QueueFull {
                    tenant: 1,
                    depth: 2,
                },
                DenyReason::QueueFull { depth: 2 },
            ),
            (
                E::JobTooLarge {
                    n: 128,
                    capacity: 64,
                },
                DenyReason::JobTooLarge {
                    n: 128,
                    capacity: 64,
                },
            ),
            (E::UnknownSession(sid), DenyReason::UnknownSession),
            (E::NotReady { session: sid }, DenyReason::NotReady),
            (
                E::JobFailed {
                    session: sid,
                    reason: "x".into(),
                },
                DenyReason::JobFailed { reason: "x".into() },
            ),
            (
                E::PoolExhausted,
                DenyReason::Internal {
                    reason: E::PoolExhausted.to_string(),
                },
            ),
        ];
        for (err, want) in cases {
            assert_eq!(DenyReason::from_error(&err), want);
        }
    }
}
