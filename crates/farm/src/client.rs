//! The typed farm client.
//!
//! [`FarmClient`] is the builder-first RPC surface over the farm wire
//! protocol: rendezvous on the published address file, dial, `Hello`
//! with the run nonce and a [`TenantSpec`], then
//! submit / status / fetch / cancel against the server's [`super::FarmServer`].
//! Every server-side rejection arrives as a typed
//! [`FarmClientError::Denied`] carrying the [`DenyReason`] — admission
//! backpressure included, so a saturated farm hands back
//! [`RetryAfter::Millis`] and [`FarmClient::backoff_after`] turns it
//! into a deterministic-jitter exponential sleep (same `mix`-based
//! jitter discipline as the scheduler's own retry ladder, seeded per
//! client so two clients never thunder in phase).
//!
//! The client never panics on wire trouble and never blocks without a
//! deadline: all reads go through the transport's bounded
//! `recv_payload_deadline`, and [`FarmClient::wait_result`] is a polling
//! loop with an explicit timeout.

use std::path::{Path, PathBuf};
use std::time::Duration;

use grape6_fault::rng::mix;
use grape6_net::transport::{
    dial_service, wait_for_service_addr, FrameIoError, FramedConn, StreamConfig, StreamKind,
    TransportError,
};

use crate::error::RetryAfter;
use crate::farm::TenantSpec;
use crate::session::{JobResult, SessionId, SessionPhase, SessionStatus, TenantId};
use crate::wire::{DenyReason, FarmFrame, FARM_PROTO};
use grape6_ckpt::wire::WireError;

/// Everything that can go wrong on the client side of the wire.
#[derive(Clone, Debug, PartialEq)]
pub enum FarmClientError {
    /// Rendezvous or dial failed.
    Transport(TransportError),
    /// Framed stream I/O failed (EOF, torn frame, deadline).
    Io(FrameIoError),
    /// A frame arrived but would not decode.
    Wire(WireError),
    /// The server refused the request, with a typed reason.
    Denied(DenyReason),
    /// The server answered with a frame that makes no sense here.
    Protocol(String),
    /// [`FarmClient::wait_result`] ran out of its caller-set budget.
    TimedOut { session: SessionId },
}

impl std::fmt::Display for FarmClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Transport(e) => write!(f, "transport: {e}"),
            Self::Io(e) => write!(f, "stream: {e}"),
            Self::Wire(e) => write!(f, "undecodable reply: {e}"),
            Self::Denied(r) => write!(f, "denied: {r}"),
            Self::Protocol(s) => write!(f, "protocol violation: {s}"),
            Self::TimedOut { session } => {
                write!(
                    f,
                    "timed out waiting on session t{}s{}",
                    session.tenant, session.index
                )
            }
        }
    }
}

impl std::error::Error for FarmClientError {}

impl From<TransportError> for FarmClientError {
    fn from(e: TransportError) -> Self {
        Self::Transport(e)
    }
}

impl From<FrameIoError> for FarmClientError {
    fn from(e: FrameIoError) -> Self {
        Self::Io(e)
    }
}

impl From<WireError> for FarmClientError {
    fn from(e: WireError) -> Self {
        Self::Wire(e)
    }
}

/// Builder for [`FarmClient`] — the only way to construct one.
#[derive(Clone, Debug)]
pub struct FarmClientBuilder {
    dir: PathBuf,
    kind: StreamKind,
    service: String,
    stream: StreamConfig,
    spec: TenantSpec,
    seed: u64,
    poll_interval: Duration,
}

impl FarmClientBuilder {
    /// TCP or UDS (must match the server).
    pub fn kind(mut self, kind: StreamKind) -> Self {
        self.kind = kind;
        self
    }

    /// Service name under the rendezvous dir (default `"farm"`).
    pub fn service(mut self, service: &str) -> Self {
        self.service = service.into();
        self
    }

    /// Full stream budget override (deadlines, attempts, nonce).
    pub fn stream(mut self, stream: StreamConfig) -> Self {
        self.stream = stream;
        self
    }

    /// The run nonce the server published (rendezvous + `Hello` check).
    pub fn nonce(mut self, nonce: u64) -> Self {
        self.stream.nonce = nonce;
        self
    }

    /// Tenant registration: weight, queue cap, deadline.
    pub fn tenant(mut self, spec: TenantSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Seed for the deterministic backoff jitter.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// How often [`FarmClient::wait_result`] polls (default 10 ms).
    pub fn poll_interval(mut self, interval: Duration) -> Self {
        self.poll_interval = interval;
        self
    }

    /// Rendezvous, dial, and handshake.  On success the tenant is
    /// registered and the client is ready to submit.
    pub fn connect(self) -> Result<FarmClient, FarmClientError> {
        let addr = wait_for_service_addr(&self.dir, &self.service, &self.stream)?;
        let io = dial_service(&addr, self.kind, &self.stream)?;
        let mut client = FarmClient {
            io,
            stream: self.stream,
            tenant: 0,
            seed: self.seed,
            poll_interval: self.poll_interval,
            seq: 0,
            beats: 0,
        };
        client.io.send_payload(
            &FarmFrame::Hello {
                proto: FARM_PROTO,
                nonce: client.stream.nonce,
                spec: self.spec,
            }
            .encode(),
        )?;
        match client.recv()? {
            FarmFrame::HelloAck { proto, tenant } if proto == FARM_PROTO => {
                client.tenant = tenant;
                Ok(client)
            }
            FarmFrame::HelloAck { proto, .. } => Err(FarmClientError::Protocol(format!(
                "HelloAck with protocol {proto}"
            ))),
            FarmFrame::Deny { reason, .. } => Err(FarmClientError::Denied(reason)),
            other => Err(FarmClientError::Protocol(format!(
                "expected HelloAck, got {}",
                other.name()
            ))),
        }
    }
}

/// A handshaken connection to a [`super::FarmServer`].
pub struct FarmClient {
    io: FramedConn,
    stream: StreamConfig,
    tenant: TenantId,
    seed: u64,
    poll_interval: Duration,
    seq: u64,
    beats: u64,
}

impl FarmClient {
    /// Start building a client against the rendezvous dir the server
    /// published into.
    pub fn builder(dir: &Path) -> FarmClientBuilder {
        FarmClientBuilder {
            dir: dir.to_path_buf(),
            kind: StreamKind::Tcp,
            service: "farm".into(),
            stream: StreamConfig::default(),
            spec: TenantSpec::new(1),
            seed: 0,
            poll_interval: Duration::from_millis(10),
        }
    }

    /// The tenant id the server assigned at handshake.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// Submit a job (already validated by [`crate::Job::builder`]).
    /// Returns the session ticket, or the server's typed denial.
    pub fn submit(&mut self, job: &crate::session::Job) -> Result<SessionId, FarmClientError> {
        self.seq += 1;
        let seq = self.seq;
        self.io.send_payload(
            &FarmFrame::Submit {
                seq,
                t_end: job.t_end().to_bits(),
                label: job.label().to_string(),
                set: job.set().clone(),
            }
            .encode(),
        )?;
        match self.recv_matching(seq)? {
            FarmFrame::Ticket { session, .. } => Ok(session),
            FarmFrame::Deny { reason, .. } => Err(FarmClientError::Denied(reason)),
            other => Err(FarmClientError::Protocol(format!(
                "expected Ticket, got {}",
                other.name()
            ))),
        }
    }

    /// Submit with the deterministic backoff ladder: on
    /// [`DenyReason::Saturated`] sleep [`Self::backoff_after`] and try
    /// again, up to `max_attempts` total submissions.
    pub fn submit_with_backoff(
        &mut self,
        job: &crate::session::Job,
        max_attempts: u32,
    ) -> Result<SessionId, FarmClientError> {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match self.submit(job) {
                Ok(sid) => return Ok(sid),
                Err(FarmClientError::Denied(DenyReason::Saturated { retry_after }))
                    if attempt < max_attempts =>
                {
                    std::thread::sleep(self.backoff_after(&retry_after, attempt));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Poll a session's phase/progress.
    pub fn status(&mut self, session: SessionId) -> Result<SessionStatus, FarmClientError> {
        self.io
            .send_payload(&FarmFrame::Query { session }.encode())?;
        match self.recv()? {
            FarmFrame::Status { status } => Ok(status),
            FarmFrame::Deny { reason, .. } => Err(FarmClientError::Denied(reason)),
            other => Err(FarmClientError::Protocol(format!(
                "expected Status, got {}",
                other.name()
            ))),
        }
    }

    /// Fetch a finished session's particles + report.  The server hands
    /// the result over exactly once (farm semantics of `take_result`).
    pub fn fetch(&mut self, session: SessionId) -> Result<JobResult, FarmClientError> {
        self.io
            .send_payload(&FarmFrame::Fetch { session }.encode())?;
        match self.recv()? {
            FarmFrame::Result {
                session,
                particles,
                report,
            } => Ok(JobResult {
                session,
                particles,
                report,
            }),
            FarmFrame::Deny { reason, .. } => Err(FarmClientError::Denied(reason)),
            other => Err(FarmClientError::Protocol(format!(
                "expected Result, got {}",
                other.name()
            ))),
        }
    }

    /// Cancel a queued or running session (idempotent server-side).
    pub fn cancel(&mut self, session: SessionId) -> Result<SessionStatus, FarmClientError> {
        self.io
            .send_payload(&FarmFrame::Cancel { session }.encode())?;
        match self.recv()? {
            FarmFrame::Status { status } => Ok(status),
            FarmFrame::Deny { reason, .. } => Err(FarmClientError::Denied(reason)),
            other => Err(FarmClientError::Protocol(format!(
                "expected Status, got {}",
                other.name()
            ))),
        }
    }

    /// Heartbeat: proves liveness to the server's grace timer and
    /// returns the echoed epoch.
    pub fn beat(&mut self) -> Result<u64, FarmClientError> {
        self.beats += 1;
        let epoch = self.beats;
        self.io.send_payload(&FarmFrame::Beat { epoch }.encode())?;
        match self.recv()? {
            FarmFrame::Beat { epoch } => Ok(epoch),
            FarmFrame::Deny { reason, .. } => Err(FarmClientError::Denied(reason)),
            other => Err(FarmClientError::Protocol(format!(
                "expected Beat echo, got {}",
                other.name()
            ))),
        }
    }

    /// Orderly goodbye; the server detaches any sessions still live.
    pub fn bye(mut self) -> Result<(), FarmClientError> {
        self.io.send_payload(&FarmFrame::Bye.encode())?;
        Ok(())
    }

    /// Poll until the session finishes, then fetch.  A `Failed` phase
    /// surfaces as [`FarmClientError::Denied`] with
    /// [`DenyReason::JobFailed`] (the server's fetch answer); silence
    /// past `timeout` is [`FarmClientError::TimedOut`].  Heartbeats ride
    /// along on every poll, so a waiting client never looks dead.
    pub fn wait_result(
        &mut self,
        session: SessionId,
        timeout: Duration,
    ) -> Result<JobResult, FarmClientError> {
        let start = std::time::Instant::now();
        loop {
            let status = self.status(session)?;
            match status.phase {
                SessionPhase::Done | SessionPhase::Failed => return self.fetch(session),
                _ => {}
            }
            if start.elapsed() > timeout {
                return Err(FarmClientError::TimedOut { session });
            }
            std::thread::sleep(self.poll_interval);
        }
    }

    /// Deterministic-jitter exponential backoff for a typed
    /// [`RetryAfter`] hint.  The nominal wait is the server's hint (a
    /// blockstep count is taken as milliseconds — the server normally
    /// converts before it reaches the wire), doubled per attempt (capped
    /// at 2^8) plus a `mix`-derived jitter of up to a quarter of the
    /// wait, so identical clients with different seeds fan out instead
    /// of re-colliding.
    pub fn backoff_after(&self, hint: &RetryAfter, attempt: u32) -> Duration {
        let base_ms = match hint {
            RetryAfter::Millis(ms) => *ms,
            RetryAfter::Blocksteps(b) => *b,
        }
        .max(1);
        let scaled = base_ms.saturating_mul(1u64 << attempt.saturating_sub(1).min(8));
        let jitter_span = scaled / 4 + 1;
        let jitter = mix(
            self.seed,
            u64::from(self.tenant),
            u64::from(attempt),
            base_ms,
            0x6261636b6f6666, // "backoff"
        ) % jitter_span;
        Duration::from_millis(scaled + jitter)
    }

    /// One bounded read, decoded.  Every request is answered by exactly
    /// one frame, so the next frame is the reply (a `Beat` echo
    /// included: nothing is skipped).
    fn recv(&mut self) -> Result<FarmFrame, FarmClientError> {
        let payload = self
            .io
            .recv_payload_deadline(self.stream.read_deadline, self.stream.read_attempts)?;
        Ok(FarmFrame::decode(&payload)?)
    }

    /// Like [`Self::recv`] but requires the reply to match `seq`
    /// (Ticket/Deny); stale out-of-sequence replies are skipped.
    fn recv_matching(&mut self, seq: u64) -> Result<FarmFrame, FarmClientError> {
        for _ in 0..64 {
            match self.recv()? {
                FarmFrame::Ticket { seq: s, session } if s == seq => {
                    return Ok(FarmFrame::Ticket { seq: s, session })
                }
                FarmFrame::Deny { seq: s, reason } if s == seq || s == 0 => {
                    return Ok(FarmFrame::Deny { seq: s, reason })
                }
                FarmFrame::Ticket { .. } | FarmFrame::Deny { .. } => continue,
                other => return Ok(other),
            }
        }
        Err(FarmClientError::Protocol(
            "no reply matching submit sequence".into(),
        ))
    }
}
