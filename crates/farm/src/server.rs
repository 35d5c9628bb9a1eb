//! The networked farm frontend.
//!
//! [`FarmServer`] owns an in-process [`Farm`] and serves it to real
//! client processes over TCP or UDS, reusing the cluster transport's
//! machinery: a non-blocking `ServiceListener`, nonce-stamped address
//! rendezvous, u64-LE framed streams, and torn-frame classification.
//! One [`FarmServer::poll`] interleaves three duties:
//!
//! 1. **accept** new connections (the `Hello` handshake is an ordinary
//!    request: protocol and nonce checked, tenant spec validated —
//!    failures are typed [`DenyReason`]s, never closed sockets);
//! 2. **drain**: take the requests that have *already arrived* on each
//!    connection and answer them against the farm
//!    (`Submit`/`Query`/`Fetch`/`Cancel`/`Beat`/`Bye`), at most
//!    `MAX_FRAMES_PER_POLL` per connection, then expire connections
//!    silent past the heartbeat grace;
//! 3. **schedule**: one deficit-WRR [`Farm::round`] whenever live work
//!    exists, measuring the wall cost per blockstep so saturation
//!    denials can cross the wire in honest milliseconds
//!    ([`RetryAfter::Millis`]) instead of scheduler-internal blocksteps.
//!
//! Nothing on that path waits: the drain is
//! `FramedConn::recv_payload_nowait` (no read timeout, no sleep), so a
//! poll costs its syscalls plus the scheduler quantum it grants.  The
//! only wait in the service is [`FarmServer::serve`]'s 1 ms sleep, taken
//! when a poll found nothing to answer and nothing to run.  (A reply is
//! still a blocking write — the socket is non-blocking only inside the
//! receive — bounded by `stream.write_deadline`: a client that stops
//! reading is cut off like a dead one when it expires.)
//!
//! A client that vanishes — EOF, torn frame, or silence past the
//! heartbeat grace — triggers the checkpoint-eviction path: every
//! session it owns is [`Farm::detach`]ed (parked on its bitwise
//! checkpoint, board reclaimed immediately) and the connection dropped.
//! The farm keeps scheduling everyone else; nothing panics and nothing
//! hangs, which `farm_net_soak` exercises with a SIGKILLed client under
//! oversubscription and board faults.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use grape6_net::transport::{
    publish_service_addr, FrameIoError, FramedConn, ServiceListener, StreamConfig, StreamKind,
    TransportError,
};

use crate::error::{FarmError, RetryAfter};
use crate::farm::{Farm, FarmConfig};
use crate::session::{SessionId, TenantId};
use crate::stats::FarmStats;
use crate::wire::{DenyReason, FarmFrame, FARM_PROTO};

/// Why the server could not come up or keep running.
#[derive(Clone, Debug, PartialEq)]
pub enum ServerError {
    /// The farm config was rejected.
    Farm(FarmError),
    /// Bind/publish failed.
    Transport(TransportError),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Farm(e) => write!(f, "farm: {e}"),
            Self::Transport(e) => write!(f, "transport: {e}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<FarmError> for ServerError {
    fn from(e: FarmError) -> Self {
        Self::Farm(e)
    }
}

impl From<TransportError> for ServerError {
    fn from(e: TransportError) -> Self {
        Self::Transport(e)
    }
}

/// Everything the frontend needs besides the farm itself.
#[derive(Clone, Debug)]
pub struct FarmServerConfig {
    /// TCP (loopback, ephemeral port) or UDS (socket under `dir`).
    pub kind: StreamKind,
    /// Rendezvous directory: the address file and any UDS socket live
    /// here.
    pub dir: PathBuf,
    /// Service name; the address is published as `<service>.addr`.
    pub service: String,
    /// Stream budgets + the run nonce clients must echo in `Hello`; its
    /// `write_deadline` bounds every reply.
    pub stream: StreamConfig,
    /// Silence longer than this detaches a connection's sessions.
    pub heartbeat_grace: Duration,
    /// Wall milliseconds per blockstep assumed before the first measured
    /// scheduler round (the EWMA replaces it as rounds run).
    pub fallback_ms_per_blockstep: f64,
}

impl FarmServerConfig {
    /// Defaults: TCP, service `"farm"`, 2 s heartbeat grace.
    pub fn new(dir: PathBuf) -> Self {
        Self {
            kind: StreamKind::Tcp,
            dir,
            service: "farm".into(),
            stream: StreamConfig::default(),
            heartbeat_grace: Duration::from_secs(2),
            fallback_ms_per_blockstep: 1.0,
        }
    }
}

/// When [`FarmServer::serve`] should stop.
#[derive(Clone, Copy, Debug)]
pub struct ServeOptions {
    /// Hard wall-clock bound on the serve loop.
    pub max_wall: Duration,
    /// After at least one client has connected: exit once there are no
    /// connections and no schedulable sessions for this long.
    pub exit_after_idle: Option<Duration>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            max_wall: Duration::from_secs(60),
            exit_after_idle: Some(Duration::from_millis(500)),
        }
    }
}

/// What a serve loop did, for the bins' machine-parsable summary.
#[derive(Clone, Debug, Default)]
pub struct ServeReport {
    /// Connections accepted.
    pub accepted: u64,
    /// Handshakes completed (tenant registered).
    pub handshakes: u64,
    /// Typed `Deny` frames sent.
    pub denials: u64,
    /// Connections dropped for client death (EOF/torn/grace expiry).
    pub client_deaths: u64,
    /// Torn frames observed (peer died mid-write).
    pub torn_frames: u64,
    /// Requests answered.
    pub requests: u64,
    /// Farm counters at exit.
    pub farm: FarmStats,
}

/// Requests answered per connection per [`FarmServer::poll`].  What a
/// client has queued beyond this stays buffered for the next poll, so
/// one chatty client can add at most this many replies — not its whole
/// backlog — to the time between two scheduler rounds.  A well-behaved
/// client has one request outstanding; 32 never throttles it.
const MAX_FRAMES_PER_POLL: usize = 32;

/// One accepted connection's state.
struct Conn {
    io: FramedConn,
    /// Registered tenant, `None` until `Hello` succeeds.
    tenant: Option<TenantId>,
    /// Sessions submitted on this connection (detached if it dies).
    sessions: BTreeSet<SessionId>,
    last_heard: Instant,
    /// Marked for removal at the end of the poll.
    dead: bool,
}

/// The farm service frontend.  See the module docs for the loop.
pub struct FarmServer {
    cfg: FarmServerConfig,
    farm: Farm,
    listener: ServiceListener,
    conns: Vec<Conn>,
    report: ServeReport,
    /// EWMA of measured wall milliseconds per scheduler blockstep.
    ms_per_blockstep: f64,
    measured: bool,
}

impl FarmServer {
    /// Open the farm, bind the listener, and publish the nonce-stamped
    /// address so clients can rendezvous.
    pub fn bind(farm_cfg: FarmConfig, cfg: FarmServerConfig) -> Result<Self, ServerError> {
        let farm = Farm::open(farm_cfg)?;
        let listener = ServiceListener::bind_with(cfg.kind, &cfg.dir, &cfg.service, &cfg.stream)?;
        publish_service_addr(&cfg.dir, &cfg.service, cfg.stream.nonce, listener.addr())?;
        let ms = cfg.fallback_ms_per_blockstep.max(1e-6);
        Ok(Self {
            cfg,
            farm,
            listener,
            conns: Vec::new(),
            report: ServeReport::default(),
            ms_per_blockstep: ms,
            measured: false,
        })
    }

    /// The bound address (already published under the rendezvous dir).
    pub fn addr(&self) -> &str {
        self.listener.addr()
    }

    /// The farm being served (inspection).
    pub fn farm(&self) -> &Farm {
        &self.farm
    }

    /// Counters so far.
    pub fn report(&self) -> &ServeReport {
        &self.report
    }

    /// Open connections (handshaken or not).
    pub fn connections(&self) -> usize {
        self.conns.len()
    }

    /// One service cycle: accept, answer what has arrived on every
    /// connection, expire silent ones, and run one scheduler round if
    /// work exists — without waiting anywhere.  Returns the number of
    /// requests answered plus grants made (0 means the cycle was idle,
    /// so callers can sleep).
    pub fn poll(&mut self) -> usize {
        let mut activity = 0usize;
        while let Ok(Some(io)) = self.listener.try_accept() {
            self.report.accepted += 1;
            self.conns.push(Conn {
                io,
                tenant: None,
                sessions: BTreeSet::new(),
                last_heard: Instant::now(),
                dead: false,
            });
            activity += 1;
        }
        for i in 0..self.conns.len() {
            activity += self.drain_conn(i);
        }
        // Heartbeat grace: a handshaken connection that has gone silent
        // is presumed dead — detach its sessions, reclaim its boards.
        let grace = self.cfg.heartbeat_grace;
        for i in 0..self.conns.len() {
            if !self.conns[i].dead && self.conns[i].last_heard.elapsed() > grace {
                self.kill_conn(i);
            }
        }
        self.conns.retain(|c| !c.dead);
        if self.farm.live_sessions() > 0 {
            let t0 = Instant::now();
            let before = self.farm.stats().grants;
            // A stalled scheduler fails the affected sessions; clients
            // learn through typed JobFailed denials at fetch.
            let granted = self.farm.round().unwrap_or(0);
            if granted > 0 {
                let steps = (self.farm.stats().grants - before) * self.farm.config().quantum;
                if steps > 0 {
                    let sample = t0.elapsed().as_secs_f64() * 1e3 / steps as f64;
                    self.ms_per_blockstep = if self.measured {
                        0.8 * self.ms_per_blockstep + 0.2 * sample
                    } else {
                        sample
                    };
                    self.measured = true;
                }
            }
            activity += granted;
        }
        activity
    }

    /// Serve until the wall bound, or until idle after first contact.
    pub fn serve(&mut self, opts: ServeOptions) -> ServeReport {
        let start = Instant::now();
        let mut idle_since: Option<Instant> = None;
        while start.elapsed() < opts.max_wall {
            let activity = self.poll();
            let busy = activity > 0 || !self.conns.is_empty() || self.farm.live_sessions() > 0;
            if busy {
                idle_since = None;
            } else if self.report.accepted > 0 {
                if let Some(limit) = opts.exit_after_idle {
                    let since = *idle_since.get_or_insert_with(Instant::now);
                    if since.elapsed() > limit {
                        break;
                    }
                }
            }
            if activity == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        for i in 0..self.conns.len() {
            let _ = self.send(
                i,
                &FarmFrame::Deny {
                    seq: 0,
                    reason: DenyReason::Shutdown,
                },
            );
            self.kill_conn(i);
        }
        self.conns.clear();
        self.report.farm = self.farm.stats().clone();
        self.report.clone()
    }

    /// Answer the requests that have already arrived on one connection,
    /// at most `MAX_FRAMES_PER_POLL` of them.  Never waits.
    fn drain_conn(&mut self, i: usize) -> usize {
        let mut handled = 0usize;
        while handled < MAX_FRAMES_PER_POLL && !self.conns[i].dead {
            match self.conns[i].io.recv_payload_nowait() {
                Ok(Some(payload)) => {
                    self.conns[i].last_heard = Instant::now();
                    match FarmFrame::decode(&payload) {
                        Ok(frame) => {
                            self.handle(i, frame);
                            handled += 1;
                        }
                        Err(e) => {
                            // Garbage on an authenticated stream: refuse
                            // it in type and drop the connection.
                            let _ = self.send(
                                i,
                                &FarmFrame::Deny {
                                    seq: 0,
                                    reason: DenyReason::BadHello {
                                        reason: format!("undecodable frame: {e}"),
                                    },
                                },
                            );
                            self.kill_conn(i);
                        }
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    if e == (FrameIoError::Closed { torn: true }) {
                        self.report.torn_frames += 1;
                    }
                    self.kill_conn(i);
                }
            }
        }
        handled
    }

    /// Answer one decoded request.
    fn handle(&mut self, i: usize, frame: FarmFrame) {
        self.report.requests += 1;
        match frame {
            FarmFrame::Hello { proto, nonce, spec } => {
                if self.conns[i].tenant.is_some() {
                    self.deny(
                        i,
                        0,
                        DenyReason::BadHello {
                            reason: "duplicate Hello".into(),
                        },
                    );
                    return;
                }
                if proto != FARM_PROTO {
                    self.deny(
                        i,
                        0,
                        DenyReason::BadHello {
                            reason: format!("protocol {proto}, server speaks {FARM_PROTO}"),
                        },
                    );
                    return;
                }
                if nonce != self.cfg.stream.nonce {
                    self.deny(
                        i,
                        0,
                        DenyReason::BadHello {
                            reason: "nonce mismatch (stale rendezvous?)".into(),
                        },
                    );
                    return;
                }
                match self.farm.register(spec) {
                    Ok(tenant) => {
                        self.conns[i].tenant = Some(tenant);
                        self.report.handshakes += 1;
                        let _ = self.send(
                            i,
                            &FarmFrame::HelloAck {
                                proto: FARM_PROTO,
                                tenant,
                            },
                        );
                    }
                    Err(e) => self.deny(i, 0, DenyReason::from_error(&e)),
                }
            }
            FarmFrame::Submit {
                seq,
                t_end,
                label,
                set,
            } => {
                let Some(tenant) = self.conns[i].tenant else {
                    self.deny(
                        i,
                        seq,
                        DenyReason::BadHello {
                            reason: "Submit before Hello".into(),
                        },
                    );
                    return;
                };
                let job = crate::session::Job::builder(set)
                    .t_end(f64::from_bits(t_end))
                    .label(label)
                    .build();
                match job.and_then(|j| self.farm.submit(tenant, j)) {
                    Ok(session) => {
                        self.conns[i].sessions.insert(session);
                        let _ = self.send(i, &FarmFrame::Ticket { seq, session });
                    }
                    Err(e) => {
                        let reason = match DenyReason::from_error(&e) {
                            // The wire hint must be honest wall time: the
                            // farm thinks in blocksteps, the server knows
                            // what a blockstep costs here and now.
                            DenyReason::Saturated {
                                retry_after: RetryAfter::Blocksteps(b),
                            } => DenyReason::Saturated {
                                retry_after: RetryAfter::Millis(self.blocksteps_to_ms(b)),
                            },
                            other => other,
                        };
                        self.deny(i, seq, reason);
                    }
                }
            }
            FarmFrame::Query { session } => match self.owned_status(i, session) {
                Ok(status) => {
                    let _ = self.send(i, &FarmFrame::Status { status });
                }
                Err(reason) => self.deny(i, 0, reason),
            },
            FarmFrame::Fetch { session } => {
                if let Err(reason) = self.owned(i, session) {
                    self.deny(i, 0, reason);
                    return;
                }
                match self.farm.take_result(session) {
                    Ok(res) => {
                        let _ = self.send(
                            i,
                            &FarmFrame::Result {
                                session: res.session,
                                particles: res.particles,
                                report: res.report,
                            },
                        );
                    }
                    Err(e) => self.deny(i, 0, DenyReason::from_error(&e)),
                }
            }
            FarmFrame::Cancel { session } => {
                if let Err(reason) = self.owned(i, session) {
                    self.deny(i, 0, reason);
                    return;
                }
                match self.farm.cancel(session) {
                    Ok(status) => {
                        let _ = self.send(i, &FarmFrame::Status { status });
                    }
                    Err(e) => self.deny(i, 0, DenyReason::from_error(&e)),
                }
            }
            FarmFrame::Beat { epoch } => {
                let _ = self.send(i, &FarmFrame::Beat { epoch });
            }
            FarmFrame::Bye => {
                // Orderly goodbye: same reclamation, but not a death.
                self.close_conn(i, false);
            }
            // Server-to-client frames arriving at the server are a
            // protocol violation from a confused peer.
            FarmFrame::HelloAck { .. }
            | FarmFrame::Ticket { .. }
            | FarmFrame::Status { .. }
            | FarmFrame::Result { .. }
            | FarmFrame::Deny { .. } => {
                self.deny(
                    i,
                    0,
                    DenyReason::BadHello {
                        reason: "client sent a server-side frame".into(),
                    },
                );
            }
        }
    }

    /// Ownership check: connections only see their own sessions (a
    /// wrong-tenant probe gets the same answer as a nonexistent one, so
    /// session ids leak nothing).
    fn owned(&self, i: usize, session: SessionId) -> Result<(), DenyReason> {
        match self.conns[i].tenant {
            Some(t) if session.tenant == t => Ok(()),
            Some(_) => Err(DenyReason::UnknownSession),
            None => Err(DenyReason::BadHello {
                reason: "request before Hello".into(),
            }),
        }
    }

    fn owned_status(
        &self,
        i: usize,
        session: SessionId,
    ) -> Result<crate::session::SessionStatus, DenyReason> {
        self.owned(i, session)?;
        self.farm
            .session_status(session)
            .ok_or(DenyReason::UnknownSession)
    }

    fn blocksteps_to_ms(&self, blocksteps: u64) -> u64 {
        (blocksteps as f64 * self.ms_per_blockstep).ceil().max(1.0) as u64
    }

    fn deny(&mut self, i: usize, seq: u64, reason: DenyReason) {
        self.report.denials += 1;
        let _ = self.send(i, &FarmFrame::Deny { seq, reason });
    }

    /// Fail-soft send: an unreachable client is a dead client.
    fn send(&mut self, i: usize, frame: &FarmFrame) -> Result<(), FrameIoError> {
        let r = self.conns[i].io.send_payload(&frame.encode());
        if r.is_err() {
            self.kill_conn(i);
        }
        r
    }

    /// Client death path: detach every session this connection owns
    /// (checkpoint-eviction — boards come back immediately, checkpoints
    /// survive) and mark the connection for removal.
    fn kill_conn(&mut self, i: usize) {
        self.close_conn(i, true);
    }

    /// Shared teardown.  An `abrupt` close (EOF, torn frame, heartbeat
    /// expiry, send failure) counts as a client death; an orderly `Bye`
    /// does not — but both detach whatever sessions the tenant still
    /// owned, so the boards come back either way.
    fn close_conn(&mut self, i: usize, abrupt: bool) {
        if self.conns[i].dead {
            return;
        }
        self.conns[i].dead = true;
        if abrupt && self.conns[i].tenant.is_some() {
            self.report.client_deaths += 1;
        }
        let sessions: Vec<SessionId> = self.conns[i].sessions.iter().copied().collect();
        for sid in sessions {
            let _ = self.farm.detach(sid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{FarmClient, FarmClientError};
    use crate::farm::TenantSpec;
    use crate::session::Job;
    use crate::wire::particles_digest;
    use grape6_core::{Grape6Engine, HermiteIntegrator, IntegratorConfig};
    use grape6_net::transport::{dial_service, framed};
    use grape6_system::machine::MachineConfig;
    use nbody_core::ic::plummer::plummer_model;
    use nbody_core::particle::ParticleSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn unit() -> MachineConfig {
        MachineConfig::builder()
            .boards(1)
            .modules_per_board(2)
            .chips_per_module(2)
            .jmem_capacity(16)
            .build()
            .unwrap()
    }

    fn ic(n: usize, seed: u64) -> ParticleSet {
        plummer_model(n, &mut StdRng::seed_from_u64(seed))
    }

    fn job(n: usize, seed: u64, t_end: f64) -> Job {
        Job::builder(ic(n, seed))
            .t_end(t_end)
            .label(format!("net seed {seed}"))
            .build()
            .unwrap()
    }

    /// Same job on a dedicated healthy board, uninterrupted — the
    /// digest every wire result must match bit for bit.
    fn dedicated_digest(n: usize, seed: u64, t_end: f64) -> u64 {
        let engine = Grape6Engine::try_new(&unit(), n).unwrap();
        let mut it = HermiteIntegrator::new(engine, ic(n, seed), IntegratorConfig::default());
        it.run_until(t_end);
        particles_digest(it.particles())
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("g6-farmsrv-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn server_cfg(dir: &std::path::Path, kind: StreamKind, nonce: u64) -> FarmServerConfig {
        let mut cfg = FarmServerConfig::new(dir.to_path_buf());
        cfg.kind = kind;
        cfg.stream.nonce = nonce;
        cfg.heartbeat_grace = Duration::from_millis(250);
        cfg
    }

    fn spawn_server(
        farm_cfg: FarmConfig,
        cfg: FarmServerConfig,
        opts: ServeOptions,
    ) -> std::thread::JoinHandle<ServeReport> {
        std::thread::spawn(move || {
            let mut srv = FarmServer::bind(farm_cfg, cfg).unwrap();
            srv.serve(opts)
        })
    }

    /// A bound UDS server with one board, driven by hand (no `serve`
    /// thread) so a test can count what each `poll` does.  UDS because
    /// bytes are readable the moment the peer's write returns.
    fn bound(tag: &str) -> (FarmServer, PathBuf) {
        let dir = scratch(tag);
        let farm_cfg = FarmConfig::builder(unit()).boards(1).build().unwrap();
        let srv = FarmServer::bind(farm_cfg, server_cfg(&dir, StreamKind::Uds, 21)).unwrap();
        (srv, dir)
    }

    fn hello() -> Vec<u8> {
        FarmFrame::Hello {
            proto: FARM_PROTO,
            nonce: 21,
            spec: TenantSpec::new(1),
        }
        .encode()
    }

    /// A raw framed connection that has said `Hello`; returns it with
    /// the tenant id the server assigned.
    fn raw_tenant(srv: &mut FarmServer) -> (FramedConn, TenantId) {
        let mut io = dial_service(srv.addr(), StreamKind::Uds, &StreamConfig::default()).unwrap();
        io.send_payload(&hello()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        while srv.report().handshakes == 0 {
            assert!(Instant::now() < deadline, "no handshake within 30 s");
            srv.poll();
        }
        let ack = io
            .recv_payload_deadline(Duration::from_millis(250), 4)
            .unwrap();
        match FarmFrame::decode(&ack).unwrap() {
            FarmFrame::HelloAck { tenant, .. } => (io, tenant),
            other => panic!("expected HelloAck, got {other:?}"),
        }
    }

    #[test]
    fn polling_a_silent_client_never_waits() {
        let (mut srv, dir) = bound("nowait");
        let (_quiet, _) = raw_tenant(&mut srv);
        // A poll is a handful of syscalls; any read timeout on the path
        // costs at least 1 ms a poll (4 ms and more at a 250 Hz tick),
        // every time.  Best of five, so a descheduled test thread does
        // not fail it.
        let took = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..50 {
                    assert_eq!(srv.poll(), 0, "a silent client is no activity");
                }
                t0.elapsed()
            })
            .min()
            .unwrap();
        assert!(
            took < Duration::from_millis(50),
            "50 idle polls took {took:?}"
        );
        assert_eq!(srv.connections(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn requests_written_together_are_answered_by_one_poll() {
        let (mut srv, dir) = bound("burst");
        let (mut io, tenant) = raw_tenant(&mut srv);
        let session = SessionId { tenant, index: 0 };
        let j = job(12, 47, 0.125);
        let burst = [
            framed(
                &FarmFrame::Submit {
                    seq: 1,
                    t_end: j.t_end().to_bits(),
                    label: j.label().to_string(),
                    set: j.set().clone(),
                }
                .encode(),
            ),
            framed(&FarmFrame::Query { session }.encode()),
            framed(&FarmFrame::Query { session }.encode()),
        ]
        .concat();
        io.send_raw(&burst).unwrap();
        let before = srv.report().requests;
        srv.poll();
        assert_eq!(srv.report().requests - before, 3, "one poll, three answers");
        let mut names = Vec::new();
        for _ in 0..3 {
            let reply = io
                .recv_payload_deadline(Duration::from_millis(250), 4)
                .unwrap();
            match FarmFrame::decode(&reply).unwrap() {
                FarmFrame::Ticket { seq: 1, session: s } => {
                    assert_eq!(s, session);
                    names.push("Ticket");
                }
                FarmFrame::Status { status } => {
                    assert_eq!(status.session, session);
                    names.push("Status");
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
        assert_eq!(names, ["Ticket", "Status", "Status"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_flooding_client_gets_a_bounded_share_of_every_poll() {
        use std::io::{Read, Write};
        const FLOOD: usize = 10_000;
        let (mut srv, dir) = bound("flood");
        // The flooder is a bare socket with its reader on a second
        // thread, so neither side can ever block on a full buffer.
        let mut tx = std::os::unix::net::UnixStream::connect(srv.addr()).unwrap();
        let mut rx = tx.try_clone().unwrap();
        let reader = std::thread::spawn(move || {
            let mut replies = 0usize;
            let mut prefix = [0u8; 8];
            while replies < 1 + FLOOD && rx.read_exact(&mut prefix).is_ok() {
                let mut body = vec![0u8; u64::from_le_bytes(prefix) as usize];
                rx.read_exact(&mut body).unwrap();
                replies += 1;
            }
            replies
        });
        let writer = std::thread::spawn(move || {
            let session = SessionId {
                tenant: 0,
                index: 0,
            };
            let mut bytes = framed(&hello());
            bytes.extend(framed(&FarmFrame::Query { session }.encode()).repeat(FLOOD));
            tx.write_all(&bytes).unwrap();
            tx
        });
        // The other tenant: an ordinary client with one job.
        let tenant_dir = dir.clone();
        let tenant = std::thread::spawn(move || {
            let mut client = FarmClient::builder(&tenant_dir)
                .kind(StreamKind::Uds)
                .nonce(21)
                .connect()
                .unwrap();
            let sid = client.submit(&job(16, 48, 0.125)).unwrap();
            let res = client.wait_result(sid, Duration::from_secs(30)).unwrap();
            client.bye().unwrap();
            particles_digest(&res.particles)
        });
        // The flooder's Hello and queries, and from the tenant at least
        // Hello, Submit, one Query, Fetch, Bye.
        let total = (1 + FLOOD + 5) as u64;
        let (mut most, mut capped_with_backlog) = (0u64, false);
        let deadline = Instant::now() + Duration::from_secs(60);
        while !(tenant.is_finished() && srv.report().requests >= total) {
            assert!(Instant::now() < deadline, "flood + job not served in 60 s");
            let before = srv.report().requests;
            let activity = srv.poll();
            let answered = srv.report().requests - before;
            most = most.max(answered);
            capped_with_backlog |= srv.conns.iter().any(|c| c.io.buffered() > 0)
                && answered >= MAX_FRAMES_PER_POLL as u64;
            if activity == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        // Two connections, so no poll may answer more than two shares.
        assert!(
            most <= 2 * MAX_FRAMES_PER_POLL as u64,
            "one poll answered {most} requests"
        );
        assert!(capped_with_backlog, "the cap never left a backlog buffered");
        assert_eq!(tenant.join().unwrap(), dedicated_digest(16, 48, 0.125));
        drop(writer.join().unwrap());
        assert_eq!(reader.join().unwrap(), 1 + FLOOD, "every query answered");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_client_that_never_reads_is_cut_off_at_the_write_deadline() {
        use std::io::Write;
        let dir = scratch("deaf");
        let nonce = 23;
        let farm_cfg = FarmConfig::builder(unit()).boards(1).build().unwrap();
        let mut cfg = server_cfg(&dir, StreamKind::Uds, nonce);
        cfg.stream.write_deadline = Duration::from_millis(50);
        let handle = spawn_server(farm_cfg, cfg, ServeOptions::default());
        let stream = StreamConfig {
            nonce,
            ..StreamConfig::default()
        };
        let addr = grape6_net::transport::wait_for_service_addr(&dir, "farm", &stream).unwrap();
        // The deaf client floods Query and never reads a reply, so its
        // receive buffer fills and the server's next write blocks.
        let mut deaf = std::os::unix::net::UnixStream::connect(&addr).unwrap();
        let flooder = std::thread::spawn(move || {
            let session = SessionId {
                tenant: 0,
                index: 0,
            };
            let hello = FarmFrame::Hello {
                proto: FARM_PROTO,
                nonce,
                spec: TenantSpec::new(1),
            };
            let mut bytes = framed(&hello.encode());
            bytes.extend(framed(&FarmFrame::Query { session }.encode()).repeat(20_000));
            // Fails once the server has cut the connection.
            let _ = deaf.write_all(&bytes);
            deaf
        });
        // The other tenant: an ordinary client with one job.
        let mut client = FarmClient::builder(&dir)
            .kind(StreamKind::Uds)
            .nonce(nonce)
            .connect()
            .unwrap();
        let sid = client.submit(&job(16, 50, 0.125)).unwrap();
        let res = client.wait_result(sid, Duration::from_secs(30)).unwrap();
        assert_eq!(
            particles_digest(&res.particles),
            dedicated_digest(16, 50, 0.125)
        );
        client.bye().unwrap();
        let report = handle.join().unwrap();
        assert_eq!(report.client_deaths, 1, "the deaf client was never cut off");
        drop(flooder.join().unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn beats_echo_their_epoch_and_keep_an_idle_client_attached() {
        for (tag, kind) in [("tcp", StreamKind::Tcp), ("uds", StreamKind::Uds)] {
            let dir = scratch(&format!("beat-{tag}"));
            let farm_cfg = FarmConfig::builder(unit()).boards(1).build().unwrap();
            let cfg = server_cfg(&dir, kind, 17);
            let grace = cfg.heartbeat_grace;
            let handle = spawn_server(farm_cfg, cfg, ServeOptions::default());
            let mut client = FarmClient::builder(&dir)
                .kind(kind)
                .nonce(17)
                .connect()
                .unwrap();
            for epoch in 1..=3 {
                assert_eq!(client.beat().unwrap(), epoch, "{tag}");
            }
            // Nothing but beats for twice the grace: still attached, so
            // the submit that follows is served on the same connection.
            let t0 = Instant::now();
            let mut epoch = 3;
            while t0.elapsed() < 2 * grace {
                std::thread::sleep(grace / 5);
                epoch += 1;
                assert_eq!(client.beat().unwrap(), epoch, "{tag}");
            }
            let sid = client.submit(&job(12, 49, 0.125)).unwrap();
            let res = client.wait_result(sid, Duration::from_secs(30)).unwrap();
            assert_eq!(
                particles_digest(&res.particles),
                dedicated_digest(12, 49, 0.125)
            );
            client.bye().unwrap();
            let report = handle.join().unwrap();
            assert_eq!(report.client_deaths, 0, "{tag}: beating client detached");
            assert_eq!(report.farm.completed, 1);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn tcp_and_uds_roundtrip_bitwise_identical_to_in_process() {
        for (tag, kind) in [("tcp", StreamKind::Tcp), ("uds", StreamKind::Uds)] {
            let dir = scratch(&format!("rt-{tag}"));
            let nonce = 0x9e0 + tag.len() as u64;
            let farm_cfg = FarmConfig::builder(unit()).boards(2).build().unwrap();
            let handle = spawn_server(
                farm_cfg,
                server_cfg(&dir, kind, nonce),
                ServeOptions::default(),
            );
            let mut client = FarmClient::builder(&dir)
                .kind(kind)
                .nonce(nonce)
                .tenant(TenantSpec::new(2))
                .connect()
                .unwrap();
            let sid = client.submit(&job(16, 41, 0.25)).unwrap();
            let res = client.wait_result(sid, Duration::from_secs(30)).unwrap();
            assert_eq!(
                particles_digest(&res.particles),
                dedicated_digest(16, 41, 0.25),
                "{tag}: wire result differs from dedicated run"
            );
            assert!(res.report.completed >= 1);
            client.bye().unwrap();
            let report = handle.join().unwrap();
            assert_eq!(report.handshakes, 1);
            assert_eq!(report.farm.completed, 1);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn saturation_crosses_the_wire_as_typed_millis() {
        let dir = scratch("sat");
        let farm_cfg = FarmConfig::builder(unit())
            .boards(1)
            .max_live_sessions(1)
            .build()
            .unwrap();
        let handle = spawn_server(
            farm_cfg,
            server_cfg(&dir, StreamKind::Tcp, 7),
            ServeOptions::default(),
        );
        let mut client = FarmClient::builder(&dir)
            .nonce(7)
            .seed(3)
            .connect()
            .unwrap();
        let first = client.submit(&job(16, 42, 0.5)).unwrap();
        // The ceiling is 1: the second submit must come back as a typed
        // Saturated denial whose hint is wall milliseconds, not
        // scheduler blocksteps.
        match client.submit(&job(12, 43, 0.125)) {
            Err(FarmClientError::Denied(DenyReason::Saturated {
                retry_after: RetryAfter::Millis(ms),
            })) => assert!(ms >= 1),
            other => panic!("expected Saturated/Millis denial, got {other:?}"),
        }
        // The backoff ladder retries deterministically and lands once
        // the first session drains.
        let res1 = client.wait_result(first, Duration::from_secs(30)).unwrap();
        assert_eq!(
            particles_digest(&res1.particles),
            dedicated_digest(16, 42, 0.5)
        );
        let second = client.submit_with_backoff(&job(12, 43, 0.125), 64).unwrap();
        let res2 = client.wait_result(second, Duration::from_secs(30)).unwrap();
        assert_eq!(
            particles_digest(&res2.particles),
            dedicated_digest(12, 43, 0.125)
        );
        client.bye().unwrap();
        let report = handle.join().unwrap();
        assert!(report.denials >= 1, "saturation never crossed the wire");
        assert_eq!(report.farm.completed, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_frames_and_midhandshake_death_leave_the_server_serving() {
        let dir = scratch("torn");
        let nonce = 11;
        let farm_cfg = FarmConfig::builder(unit()).boards(1).build().unwrap();
        let handle = spawn_server(
            farm_cfg,
            server_cfg(&dir, StreamKind::Tcp, nonce),
            ServeOptions::default(),
        );
        let stream = StreamConfig {
            nonce,
            ..StreamConfig::default()
        };
        let addr = grape6_net::transport::wait_for_service_addr(&dir, "farm", &stream).unwrap();
        // Injector 1: promise an 80-byte frame, deliver 12, die.
        let mut torn = dial_service(&addr, StreamKind::Tcp, &stream).unwrap();
        let mut partial = (80u64).to_le_bytes().to_vec();
        partial.extend_from_slice(&[0xAB; 12]);
        torn.send_raw(&partial).unwrap();
        drop(torn);
        // Injector 2: connect and die before saying anything at all.
        let mute = dial_service(&addr, StreamKind::Tcp, &stream).unwrap();
        drop(mute);
        // Injector 3: a whole frame of garbage gets a typed refusal,
        // not a hangup-without-answer and not a server panic.
        let mut garbage = dial_service(&addr, StreamKind::Tcp, &stream).unwrap();
        garbage.send_payload(&[0xFF; 16]).unwrap();
        let reply = garbage
            .recv_payload_deadline(Duration::from_millis(250), 4)
            .unwrap();
        match FarmFrame::decode(&reply).unwrap() {
            FarmFrame::Deny {
                reason: DenyReason::BadHello { .. },
                ..
            } => {}
            other => panic!("expected BadHello denial, got {other:?}"),
        }
        drop(garbage);
        // A real client still gets full service afterwards.
        let mut client = FarmClient::builder(&dir).nonce(nonce).connect().unwrap();
        let sid = client.submit(&job(16, 44, 0.125)).unwrap();
        let res = client.wait_result(sid, Duration::from_secs(30)).unwrap();
        assert_eq!(
            particles_digest(&res.particles),
            dedicated_digest(16, 44, 0.125)
        );
        client.bye().unwrap();
        let report = handle.join().unwrap();
        assert!(report.torn_frames >= 1, "torn frame was not classified");
        assert_eq!(report.handshakes, 1);
        assert_eq!(report.farm.completed, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_client_is_detached_and_the_survivor_finishes_bitwise() {
        let dir = scratch("death");
        let nonce = 13;
        // One board so the victim's residency actually blocks the
        // survivor until the detach reclaims it.
        let farm_cfg = FarmConfig::builder(unit())
            .boards(1)
            .max_live_sessions(1)
            .build()
            .unwrap();
        let handle = spawn_server(
            farm_cfg,
            server_cfg(&dir, StreamKind::Tcp, nonce),
            ServeOptions::default(),
        );
        let mut victim = FarmClient::builder(&dir).nonce(nonce).connect().unwrap();
        let _doomed = victim.submit(&job(16, 45, 64.0)).unwrap();
        // The victim goes silent past the heartbeat grace (no Bye, no
        // beats): the server must presume it dead, detach the session,
        // and reclaim the board for the survivor.
        drop(victim);
        let mut survivor = FarmClient::builder(&dir)
            .nonce(nonce)
            .seed(99)
            .connect()
            .unwrap();
        let sid = survivor
            .submit_with_backoff(&job(12, 46, 0.125), 64)
            .unwrap();
        let res = survivor.wait_result(sid, Duration::from_secs(30)).unwrap();
        assert_eq!(
            particles_digest(&res.particles),
            dedicated_digest(12, 46, 0.125)
        );
        survivor.bye().unwrap();
        let report = handle.join().unwrap();
        assert!(report.client_deaths >= 1, "victim death went unnoticed");
        assert_eq!(report.farm.detached, 1);
        assert_eq!(report.farm.completed, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
