//! Pluggable transport: the same exchange code over virtual time or real
//! sockets.
//!
//! The exchange algorithms in [`crate::exchange`] are generic over
//! [`Transport`], which moves [`Frame`]s between ranks.  Two backends:
//!
//! * [`VirtualTransport`] — borrows a virtual-time [`Endpoint`]; sends
//!   charge the link's per-message overhead and receives advance the
//!   clock by causality, exactly like every other fabric message.  The
//!   frame's [`Frame::wire_len`] (encoded bytes + synthetic pad) is what
//!   the link model charges.
//! * [`StreamTransport`] — real OS processes on TCP (loopback) or Unix
//!   domain sockets, with a filesystem rendezvous: every rank binds a
//!   listener, publishes its nonce-stamped address under the rendezvous
//!   directory, connects to all lower ranks and accepts from all higher
//!   ranks.  Frames travel length-prefixed (u64 LE); a closed stream
//!   surfaces as [`TransportError::Down`], a silent one as
//!   [`TransportError::Timeout`] — *no receive path blocks forever*.
//!
//! The bitwise contract: both backends deliver the *identical decoded
//! frames* in the identical per-peer order (the exchange algorithms only
//! ever match sends to receives pairwise), so any state computed from
//! frame payloads is independent of the backend.  What differs is cost
//! accounting — virtual time on one side, real wall-clock on the other.
//!
//! # Deadlines
//!
//! Every blocking operation of [`StreamTransport`] carries a deadline:
//! rendezvous polls ([`StreamConfig::rendezvous_timeout`]), the hello
//! handshake, and frame receives.  A receive runs a deterministic
//! exponential-backoff budget — attempt `i` waits
//! `read_deadline * 2^i`, for [`StreamConfig::read_attempts`] attempts —
//! and then surfaces [`TransportError::Timeout`].  A timed-out receive
//! *preserves* the stream and any partially buffered frame bytes, so the
//! caller can retry (or run a recovery round) without losing data from a
//! merely-slow peer.
//!
//! A service loop that must not wait at all — the farm server polls every
//! connection every cycle while sessions are runnable — uses
//! [`FramedConn::recv_payload_nowait`] instead: the next complete frame
//! if it has already arrived, else `None`, with the same buffering and
//! the same hangup classification and no timer anywhere.
//!
//! # Rejoin
//!
//! Listeners stay alive for the lifetime of the transport, so a rank
//! respawned from a checkpoint can re-enter the mesh: the rejoiner binds
//! a fresh listener, publishes a *generation-tagged* address file, and
//! runs the same connect-down/accept-up protocol against the survivor
//! set ([`StreamTransport::rejoin`]); each survivor runs the mirror step
//! ([`StreamTransport::reconnect_peer`]).  The hello handshake carries
//! `(rank, nonce, generation)` so stale processes from a previous run or
//! a previous recovery generation are rejected with a typed error
//! instead of silently cross-connecting.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::fabric::{Endpoint, LinkError, RecvError};
use crate::wire::Frame;
use grape6_ckpt::wire::WireError;

/// A transport operation failed.
#[derive(Clone, Debug, PartialEq)]
pub enum TransportError {
    /// The virtual fault plan exhausted a message's retry budget.
    Lost(LinkError),
    /// The peer is gone (endpoint dropped / stream closed).
    Down {
        /// The departed peer.
        from: usize,
        /// The rank that observed it.
        to: usize,
    },
    /// The peer's stream is open but no complete frame arrived within
    /// the exponential-backoff deadline budget.  The stream (and any
    /// partial frame bytes) are preserved for a retry.
    Timeout {
        /// The silent peer.
        from: usize,
        /// The rank that timed out waiting.
        to: usize,
        /// How many doubling deadline windows were exhausted.
        attempts: u32,
    },
    /// A rendezvous artefact (address file or hello handshake) carried
    /// the wrong run nonce — a stale file or process from another run.
    RendezvousMismatch {
        /// The nonce this run was started with.
        expected: u64,
        /// The nonce found on disk / on the wire.
        found: u64,
    },
    /// A peer signalled cluster recovery where a collective frame was
    /// due.  The carried frame is the interrupting [`Frame::Recover`];
    /// the cluster layer folds it into its own recovery round.
    Interrupted {
        /// The peer that initiated recovery.
        from: usize,
        /// The recovery frame that pre-empted the expected one.
        frame: Box<Frame>,
    },
    /// A frame failed to decode (format bug or corrupted stream).
    Wire(WireError),
    /// A well-formed frame arrived out of protocol (wrong step or stage
    /// — the fabric is not in lockstep).
    Protocol(&'static str),
    /// An OS-level socket error (real transport only).
    Io(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Lost(e) => write!(f, "transport: {e}"),
            Self::Down { from, to } => {
                write!(f, "transport: rank {from} down (observed by {to})")
            }
            Self::Timeout { from, to, attempts } => write!(
                f,
                "transport: rank {from} silent past {attempts} deadline windows \
                 (observed by {to})"
            ),
            Self::RendezvousMismatch { expected, found } => write!(
                f,
                "transport: rendezvous nonce {found:#018x} where {expected:#018x} \
                 was expected (stale run artefact)"
            ),
            Self::Interrupted { from, .. } => {
                write!(
                    f,
                    "transport: rank {from} pre-empted the collective with recovery"
                )
            }
            Self::Wire(e) => write!(f, "transport: bad frame: {e}"),
            Self::Protocol(e) => write!(f, "transport: protocol violation: {e}"),
            Self::Io(e) => write!(f, "transport: io: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<RecvError> for TransportError {
    fn from(e: RecvError) -> Self {
        match e {
            RecvError::Lost(le) => Self::Lost(le),
            RecvError::Down { from, to } => Self::Down { from, to },
        }
    }
}

impl From<WireError> for TransportError {
    fn from(e: WireError) -> Self {
        Self::Wire(e)
    }
}

/// A byte-level framing failure on one [`FramedConn`].
///
/// This is the connection-scoped sibling of [`TransportError`]: it
/// carries no rank identity, because a framed connection (unlike a mesh
/// peer slot) may belong to an anonymous client that never introduced
/// itself.  Callers that know who the peer is map these into their own
/// error space ([`StreamTransport`] maps them to rank-addressed
/// [`TransportError`]s; the farm service maps them to client-session
/// errors).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameIoError {
    /// The stream hung up.  `torn` is true when it died *mid-frame* —
    /// partial bytes after a length prefix — the SIGKILL signature.
    Closed {
        /// Whether a partially received frame was lost.
        torn: bool,
    },
    /// No complete frame arrived within the deadline budget.  The
    /// stream and any partial bytes are preserved for a retry.
    Timeout {
        /// Deadline windows exhausted.
        attempts: u32,
    },
    /// A length prefix claimed more than the 1 GiB frame bound —
    /// a corrupt or hostile prefix, rejected before allocation.
    Oversize,
    /// An OS-level socket error.
    Io(String),
}

impl std::fmt::Display for FrameIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Closed { torn: true } => f.write_str("stream closed mid-frame (torn)"),
            Self::Closed { torn: false } => f.write_str("stream closed"),
            Self::Timeout { attempts } => {
                write!(f, "no frame within {attempts} deadline windows")
            }
            Self::Oversize => f.write_str("frame length prefix exceeds the 1 GiB bound"),
            Self::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for FrameIoError {}

/// Frame movement between ranks — the only surface the exchange
/// algorithms see.
pub trait Transport {
    /// This rank's id.
    fn rank(&self) -> usize;
    /// Total ranks.
    fn n_ranks(&self) -> usize;
    /// Send one frame to `to`.  Must tolerate a departed peer (the
    /// matching receive is where the departure is observed).
    fn send_frame(&mut self, to: usize, frame: &Frame) -> Result<(), TransportError>;
    /// Blocking receive of one frame from `from`.  Real backends bound
    /// the block with a deadline budget and surface
    /// [`TransportError::Timeout`] rather than hanging forever.
    fn recv_frame(&mut self, from: usize) -> Result<Frame, TransportError>;
}

/// The virtual-time backend: a thin borrow of a fabric [`Endpoint`]
/// carrying encoded frames.  Time accounting is the endpoint's — the
/// link model charges [`Frame::wire_len`] per message, so a coalesced
/// frame pays one latency + one overhead where k separate messages would
/// pay k.
pub struct VirtualTransport<'a> {
    ep: &'a mut Endpoint<Vec<u8>>,
}

impl<'a> VirtualTransport<'a> {
    /// Wrap an endpoint for the duration of an exchange.
    pub fn new(ep: &'a mut Endpoint<Vec<u8>>) -> Self {
        Self { ep }
    }

    /// The wrapped endpoint (clock, stats, tracer).
    pub fn endpoint(&mut self) -> &mut Endpoint<Vec<u8>> {
        self.ep
    }
}

impl Transport for VirtualTransport<'_> {
    fn rank(&self) -> usize {
        self.ep.rank()
    }

    fn n_ranks(&self) -> usize {
        self.ep.n_ranks()
    }

    fn send_frame(&mut self, to: usize, frame: &Frame) -> Result<(), TransportError> {
        let wire = frame.wire_len();
        // Lossy: a departed peer is observed at the receive side.
        self.ep.send_lossy(to, frame.encode(), wire);
        Ok(())
    }

    fn recv_frame(&mut self, from: usize) -> Result<Frame, TransportError> {
        let bytes = self.ep.recv_checked(from)?;
        Ok(Frame::decode(&bytes)?)
    }
}

/// Socket flavour for [`StreamTransport`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamKind {
    /// TCP over loopback.
    Tcp,
    /// Unix domain sockets.
    Uds,
}

#[derive(Debug)]
enum Stream {
    Tcp(TcpStream),
    Uds(UnixStream),
}

impl Stream {
    fn reader(&mut self) -> &mut dyn Read {
        match self {
            Stream::Tcp(s) => s,
            Stream::Uds(s) => s,
        }
    }

    fn writer(&mut self) -> &mut dyn Write {
        match self {
            Stream::Tcp(s) => s,
            Stream::Uds(s) => s,
        }
    }

    fn set_read_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(d),
            Stream::Uds(s) => s.set_read_timeout(d),
        }
    }

    fn set_write_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_write_timeout(d),
            Stream::Uds(s) => s.set_write_timeout(d),
        }
    }

    fn set_nonblocking(&self, on: bool) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nonblocking(on),
            Stream::Uds(s) => s.set_nonblocking(on),
        }
    }
}

#[derive(Debug)]
enum Listener {
    Tcp(TcpListener),
    Uds(UnixListener),
}

impl Listener {
    /// Bind non-blocking (so accepts can poll against a deadline): TCP on
    /// an ephemeral loopback port, or a UDS socket at `sock` (unused for
    /// TCP).  Returns the listener and the address peers dial.
    fn bind(kind: StreamKind, sock: &Path) -> std::io::Result<(Self, String)> {
        match kind {
            StreamKind::Tcp => {
                let l = TcpListener::bind("127.0.0.1:0")?;
                l.set_nonblocking(true)?;
                let addr = l.local_addr()?.to_string();
                Ok((Listener::Tcp(l), addr))
            }
            StreamKind::Uds => {
                let _ = std::fs::remove_file(sock);
                let l = UnixListener::bind(sock)?;
                l.set_nonblocking(true)?;
                Ok((Listener::Uds(l), sock.to_string_lossy().into_owned()))
            }
        }
    }

    /// Non-blocking accept attempt: `Ok(Some)` on a new connection,
    /// `Ok(None)` when nobody is waiting.
    fn try_accept(&self) -> std::io::Result<Option<Stream>> {
        let s = match self {
            Listener::Tcp(l) => match l.accept() {
                Ok((s, _)) => Stream::Tcp(s),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
                Err(e) => return Err(e),
            },
            Listener::Uds(l) => match l.accept() {
                Ok((s, _)) => Stream::Uds(s),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
                Err(e) => return Err(e),
            },
        };
        // Accepted sockets must be blocking regardless of what they
        // inherited from the non-blocking listener.
        s.set_nonblocking(false)?;
        Ok(Some(s))
    }
}

/// Tunable deadlines and identity for a [`StreamTransport`] mesh.
///
/// Every field that was a hard-coded constant in the first cut of the
/// transport is configurable here so tests can run with millisecond
/// budgets and production runs with generous ones.  All ranks of one run
/// must share the same `nonce`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamConfig {
    /// Per-run identity stamped on address files and the hello
    /// handshake; artefacts from other runs are rejected with
    /// [`TransportError::RendezvousMismatch`].
    pub nonce: u64,
    /// How long rendezvous operations (address polls, connects, accepts,
    /// hellos) wait before giving up.
    pub rendezvous_timeout: Duration,
    /// Sleep between rendezvous polls.
    pub retry_sleep: Duration,
    /// Base window of the receive deadline budget; attempt `i` waits
    /// `read_deadline * 2^i`.
    pub read_deadline: Duration,
    /// Number of doubling windows before [`TransportError::Timeout`].
    pub read_attempts: u32,
    /// Bound on a single frame write; a write that cannot complete
    /// within it drops the stream (fail-soft, like a hangup).
    pub write_deadline: Duration,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            nonce: 0,
            rendezvous_timeout: Duration::from_secs(30),
            retry_sleep: Duration::from_millis(5),
            read_deadline: Duration::from_millis(250),
            read_attempts: 3,
            write_deadline: Duration::from_secs(2),
        }
    }
}

/// A payload as it travels on a [`FramedConn`]: u64-LE length prefix,
/// then the bytes.  [`FramedConn::send_payload`] writes exactly this;
/// fault injectors cut or concatenate it and use
/// [`FramedConn::send_raw`].
pub fn framed(payload: &[u8]) -> Vec<u8> {
    let mut msg = Vec::with_capacity(8 + payload.len());
    msg.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    msg.extend_from_slice(payload);
    msg
}

/// Bytes asked of the socket per `read`.
const RX_CHUNK: usize = 64 * 1024;

/// Largest payload a length prefix may announce (1 GiB).
const MAX_PAYLOAD: u64 = 1 << 30;

/// One framed byte stream: a socket plus the partially received frame
/// bytes, so a deadline expiry mid-frame loses nothing.
///
/// This is the reusable half of [`StreamTransport`]: the u64-LE
/// length-prefixed framing, the buffered receive — deadline-budgeted
/// ([`recv_payload_deadline`]) or no-wait ([`recv_payload_nowait`]) —
/// and the torn-frame classification, with no rank/mesh identity
/// attached.  [`StreamTransport`] holds one per mesh peer; service
/// frontends (the farm server/client) hold one per connection accepted
/// from a [`ServiceListener`] or dialled via [`dial_service`].
///
/// [`recv_payload_deadline`]: Self::recv_payload_deadline
/// [`recv_payload_nowait`]: Self::recv_payload_nowait
#[derive(Debug)]
pub struct FramedConn {
    stream: Stream,
    /// Received bytes not yet handed out as a frame.
    rx: Vec<u8>,
    /// Where every `read` lands before it is appended to `rx`.
    chunk: Box<[u8]>,
}

impl FramedConn {
    fn new(stream: Stream) -> Self {
        Self {
            stream,
            rx: Vec::new(),
            chunk: vec![0u8; RX_CHUNK].into_boxed_slice(),
        }
    }

    /// A connection whose every write is bounded: one that cannot
    /// complete within `write_deadline` fails like a hangup.
    fn bounded(stream: Stream, write_deadline: Duration) -> Result<Self, TransportError> {
        stream
            .set_write_timeout(Some(write_deadline))
            .map_err(|e| TransportError::Io(e.to_string()))?;
        Ok(Self::new(stream))
    }

    /// Bytes buffered from a partially received frame.
    pub fn buffered(&self) -> usize {
        self.rx.len()
    }

    /// Send one length-prefixed frame payload.
    pub fn send_payload(&mut self, payload: &[u8]) -> Result<(), FrameIoError> {
        self.send_raw(&framed(payload))
    }

    /// Write raw bytes with *no* framing.  Fault injectors use this to
    /// produce torn frames (a length prefix promising more bytes than
    /// ever arrive); everything else wants [`send_payload`].
    ///
    /// [`send_payload`]: Self::send_payload
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), FrameIoError> {
        self.stream
            .writer()
            .write_all(bytes)
            .map_err(|_| FrameIoError::Closed { torn: false })
    }

    /// The next complete frame already in `rx`, if there is one: parse
    /// the 8-byte LE length prefix, refuse a corrupt or hostile one
    /// before allocating for it, and split the payload off.
    fn take_buffered(&mut self) -> Result<Option<Vec<u8>>, FrameIoError> {
        let Some(prefix) = self.rx.first_chunk::<8>() else {
            return Ok(None);
        };
        let n = u64::from_le_bytes(*prefix);
        if n > MAX_PAYLOAD {
            return Err(FrameIoError::Oversize);
        }
        let total = 8 + n as usize;
        if self.rx.len() < total {
            return Ok(None);
        }
        let payload = self.rx[8..total].to_vec();
        self.rx.drain(..total);
        Ok(Some(payload))
    }

    /// One `read` appended to `rx`.  Returns the bytes gained — 0 when
    /// the socket had none to give (timeout, would-block, interrupt).  A
    /// hangup is [`FrameIoError::Closed`], torn if it cut a frame short.
    fn read_more(&mut self) -> Result<usize, FrameIoError> {
        match self.stream.reader().read(&mut self.chunk) {
            Ok(k) if k > 0 => {
                self.rx.extend_from_slice(&self.chunk[..k]);
                Ok(k)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                Ok(0)
            }
            // EOF or a socket error.  Partial bytes mean the peer died
            // mid-frame.
            _ => Err(FrameIoError::Closed {
                torn: !self.rx.is_empty(),
            }),
        }
    }

    /// One bounded receive window for a complete frame payload.  Partial
    /// bytes are buffered across calls; EOF mid-frame surfaces
    /// [`FrameIoError::Closed`] with `torn = true`.  A timeout preserves
    /// the stream and its partial bytes.
    pub fn try_recv_payload(&mut self, window: Duration) -> Result<Vec<u8>, FrameIoError> {
        let deadline = Instant::now() + window;
        loop {
            if let Some(payload) = self.take_buffered()? {
                return Ok(payload);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(FrameIoError::Timeout { attempts: 1 });
            }
            self.stream
                .set_read_timeout(Some(remaining.max(Duration::from_millis(1))))
                .map_err(|e| FrameIoError::Io(e.to_string()))?;
            // Loop either way; the deadline check above decides when to
            // stop.
            self.read_more()?;
        }
    }

    /// The next complete frame payload if it has already arrived, else
    /// `None` — never sleeps and never sets a read timeout, so a service
    /// loop can call it on every connection every cycle.  Partial bytes
    /// stay buffered; oversize prefixes, clean EOF and torn EOF surface
    /// exactly as from [`try_recv_payload`].
    ///
    /// The socket is non-blocking only for the duration of the call, so
    /// writes stay blocking (and bounded by the write deadline, where the
    /// connection has one).
    ///
    /// [`try_recv_payload`]: Self::try_recv_payload
    pub fn recv_payload_nowait(&mut self) -> Result<Option<Vec<u8>>, FrameIoError> {
        if let Some(payload) = self.take_buffered()? {
            return Ok(Some(payload));
        }
        let io = |e: std::io::Error| FrameIoError::Io(e.to_string());
        self.stream.set_nonblocking(true).map_err(io)?;
        let got = loop {
            let k = match self.read_more() {
                Ok(k) => k,
                Err(e) => break Err(e),
            };
            match self.take_buffered() {
                // A short read emptied the socket; a full one may have
                // left the rest of the frame behind.
                Ok(None) if k == self.chunk.len() => {}
                done => break done,
            }
        };
        self.stream.set_nonblocking(false).map_err(io)?;
        got
    }

    /// Receive with the exponential deadline budget: attempt `i` of
    /// `attempts` waits `base * 2^i`, then [`FrameIoError::Timeout`].
    pub fn recv_payload_deadline(
        &mut self,
        base: Duration,
        attempts: u32,
    ) -> Result<Vec<u8>, FrameIoError> {
        let mut window = base.max(Duration::from_millis(1));
        for _ in 0..attempts.max(1) {
            match self.try_recv_payload(window) {
                Err(FrameIoError::Timeout { .. }) => {
                    window = window.saturating_mul(2);
                }
                other => return other,
            }
        }
        Err(FrameIoError::Timeout {
            attempts: attempts.max(1),
        })
    }
}

/// The real-socket backend: one OS process per rank, fully connected.
///
/// Rendezvous protocol (pure filesystem, no coordinator): rank k binds a
/// listener, atomically publishes `"<nonce:016x> <addr>"` as
/// `<dir>/rank<k>.addr`, then *connects* to every rank below it (polling
/// for their address files and validating the nonce) and *accepts* one
/// connection from every rank above it.  Each connector opens with a
/// 24-byte hello (`rank`, `nonce`, `generation`, u64 LE each) so the
/// acceptor knows who arrived and from which run/recovery generation.
/// Wire format: u64 LE length prefix, then the encoded [`Frame`].
#[derive(Debug)]
pub struct StreamTransport {
    rank: usize,
    n_ranks: usize,
    kind: StreamKind,
    dir: PathBuf,
    cfg: StreamConfig,
    /// Recovery generation this rank currently speaks (stamped on
    /// hellos; bumped by the cluster layer after each recovery).
    gen: u32,
    /// Kept alive for the whole run so respawned ranks can reconnect.
    listener: Listener,
    /// Per-peer connection, `None` at the self index and after a peer
    /// closed or was closed.
    peers: Vec<Option<FramedConn>>,
    bytes_sent: u64,
    messages_sent: u64,
    recv_timeouts: u64,
    torn_frames: u64,
}

impl StreamTransport {
    /// Join the mesh as `rank` of `n_ranks` via the rendezvous directory
    /// with default deadlines and a zero nonce (single-run directories).
    pub fn connect(
        rank: usize,
        n_ranks: usize,
        dir: &Path,
        kind: StreamKind,
    ) -> Result<Self, TransportError> {
        Self::connect_with(rank, n_ranks, dir, kind, &StreamConfig::default())
    }

    /// Join the mesh with explicit deadlines and run nonce.
    pub fn connect_with(
        rank: usize,
        n_ranks: usize,
        dir: &Path,
        kind: StreamKind,
        cfg: &StreamConfig,
    ) -> Result<Self, TransportError> {
        assert!(rank < n_ranks);
        let lower: Vec<usize> = (0..rank).collect();
        let higher: Vec<usize> = (rank + 1..n_ranks).collect();
        Self::establish(rank, n_ranks, dir, kind, cfg, 0, &lower, &higher)
    }

    /// Re-enter an existing mesh after a respawn: bind a fresh listener,
    /// publish a generation-tagged address, and run the same
    /// connect-down/accept-up protocol against the *survivor* set
    /// (`alive` excludes this rank and any other dead ranks).  Each
    /// survivor must concurrently run [`Self::reconnect_peer`] with the
    /// same generation.
    pub fn rejoin(
        rank: usize,
        n_ranks: usize,
        dir: &Path,
        kind: StreamKind,
        cfg: &StreamConfig,
        gen: u32,
        alive: &[usize],
    ) -> Result<Self, TransportError> {
        assert!(rank < n_ranks && gen > 0);
        let lower: Vec<usize> = alive.iter().copied().filter(|&a| a < rank).collect();
        let higher: Vec<usize> = alive.iter().copied().filter(|&a| a > rank).collect();
        Self::establish(rank, n_ranks, dir, kind, cfg, gen, &lower, &higher)
    }

    #[allow(clippy::too_many_arguments)]
    fn establish(
        rank: usize,
        n_ranks: usize,
        dir: &Path,
        kind: StreamKind,
        cfg: &StreamConfig,
        gen: u32,
        lower: &[usize],
        higher: &[usize],
    ) -> Result<Self, TransportError> {
        let io = |e: std::io::Error| TransportError::Io(e.to_string());
        std::fs::create_dir_all(dir).map_err(io)?;
        // Bind and publish the nonce-stamped address.
        let (listener, addr) = Listener::bind(kind, &dir.join(sock_name(rank, gen))).map_err(io)?;
        publish_addr(dir, rank, gen, cfg.nonce, &addr)?;

        let mut peers: Vec<Option<FramedConn>> = (0..n_ranks).map(|_| None).collect();
        // Connect to every lower peer (they may not have published yet).
        // A rejoiner dials the survivors' *original* (generation-0)
        // listeners, which are kept alive for exactly this purpose.
        for &peer in lower {
            let peer_addr = wait_for_addr(dir, peer, 0, cfg)?;
            let stream = connect_with_retry(&peer_addr, kind, cfg)?;
            let mut p = FramedConn::bounded(stream, cfg.write_deadline)?;
            send_hello(&mut p.stream, rank, cfg.nonce, gen).map_err(io)?;
            peers[peer] = Some(p);
        }
        // Accept one connection from every higher peer.
        let deadline = Instant::now() + cfg.rendezvous_timeout;
        for _ in higher {
            let (stream, peer, _peer_gen) = accept_one(&listener, cfg, deadline, |peer| {
                higher.contains(&peer) && peers[peer].is_none()
            })?;
            peers[peer] = Some(FramedConn::bounded(stream, cfg.write_deadline)?);
        }
        Ok(Self {
            rank,
            n_ranks,
            kind,
            dir: dir.to_path_buf(),
            cfg: *cfg,
            gen,
            listener,
            peers,
            bytes_sent: 0,
            messages_sent: 0,
            recv_timeouts: 0,
            torn_frames: 0,
        })
    }

    /// Re-establish the link to a single peer that rejoined at recovery
    /// generation `gen` (the survivor half of the rejoin handshake):
    /// dial the rejoiner's generation-tagged listener if it is a lower
    /// rank, or accept its incoming connection if it is a higher one.
    /// `wait` bounds the whole operation (it covers the respawn delay,
    /// so it is usually much longer than the rendezvous timeout).
    pub fn reconnect_peer(
        &mut self,
        peer: usize,
        gen: u32,
        wait: Duration,
    ) -> Result<(), TransportError> {
        assert!(peer != self.rank && peer < self.n_ranks);
        let io = |e: std::io::Error| TransportError::Io(e.to_string());
        self.peers[peer] = None;
        let mut cfg = self.cfg;
        cfg.rendezvous_timeout = wait;
        if peer > self.rank {
            // The rejoiner dials us; accept and verify identity.
            let deadline = Instant::now() + cfg.rendezvous_timeout;
            let (stream, _, peer_gen) = accept_one(&self.listener, &cfg, deadline, |p| p == peer)?;
            if peer_gen != gen {
                return Err(TransportError::Io(format!(
                    "rejoin: peer {peer} arrived at generation {peer_gen}, expected {gen}"
                )));
            }
            self.peers[peer] = Some(FramedConn::bounded(stream, cfg.write_deadline)?);
        } else {
            // We dial the rejoiner's fresh generation-tagged listener.
            let addr = wait_for_addr(&self.dir, peer, gen, &cfg)?;
            let stream = connect_with_retry(&addr, self.kind, &cfg)?;
            let mut p = FramedConn::bounded(stream, cfg.write_deadline)?;
            send_hello(&mut p.stream, self.rank, cfg.nonce, gen).map_err(io)?;
            self.peers[peer] = Some(p);
        }
        Ok(())
    }

    /// Drop the link to a peer declared dead; subsequent sends fail soft
    /// and receives surface [`TransportError::Down`] immediately.
    pub fn close_peer(&mut self, peer: usize) {
        if peer < self.peers.len() {
            self.peers[peer] = None;
        }
    }

    /// Whether a live stream to `peer` exists right now.
    pub fn is_up(&self, peer: usize) -> bool {
        peer < self.peers.len() && self.peers[peer].is_some()
    }

    /// The recovery generation stamped on outgoing hellos.
    pub fn gen(&self) -> u32 {
        self.gen
    }

    /// Bump the spoken generation (after a completed recovery).
    pub fn set_gen(&mut self, gen: u32) {
        self.gen = gen;
    }

    /// The socket flavour of this mesh.
    pub fn kind(&self) -> StreamKind {
        self.kind
    }

    /// The deadline/identity configuration in force.
    pub fn config(&self) -> &StreamConfig {
        &self.cfg
    }

    /// Payload bytes this rank put on its sockets.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Frames this rank sent.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Receives that exhausted their full deadline budget.
    pub fn recv_timeouts(&self) -> u64 {
        self.recv_timeouts
    }

    /// Streams that closed mid-frame (a torn length prefix or body).
    pub fn torn_frames(&self) -> u64 {
        self.torn_frames
    }

    /// Receive with an explicit deadline budget
    /// ([`FramedConn::recv_payload_deadline`]: attempt `i` of `attempts`
    /// waits `base * 2^i`), then [`TransportError::Timeout`].  The stream
    /// and its partial bytes survive success, timeout and decode errors;
    /// hangup and oversize prefixes drop it.
    pub fn recv_frame_deadline(
        &mut self,
        from: usize,
        base: Duration,
        attempts: u32,
    ) -> Result<Frame, TransportError> {
        let to = self.rank;
        let Some(conn) = self.peers[from].as_mut() else {
            return Err(TransportError::Down { from, to });
        };
        match conn.recv_payload_deadline(base, attempts) {
            Ok(bytes) => Frame::decode(&bytes).map_err(Into::into),
            Err(FrameIoError::Timeout { attempts }) => {
                self.recv_timeouts += 1;
                Err(TransportError::Timeout { from, to, attempts })
            }
            Err(FrameIoError::Oversize) => {
                self.peers[from] = None;
                Err(TransportError::Wire(WireError::Oversize))
            }
            Err(FrameIoError::Closed { torn }) => {
                if torn {
                    self.torn_frames += 1;
                }
                self.peers[from] = None;
                Err(TransportError::Down { from, to })
            }
            Err(FrameIoError::Io(e)) => Err(TransportError::Io(e)),
        }
    }
}

/// Generation-tagged rendezvous file names.  Generation 0 keeps the
/// original names so existing tooling and single-run directories are
/// unchanged.
fn addr_name(rank: usize, gen: u32) -> String {
    if gen == 0 {
        format!("rank{rank}.addr")
    } else {
        format!("rank{rank}.addr.gen{gen}")
    }
}

fn sock_name(rank: usize, gen: u32) -> String {
    if gen == 0 {
        format!("rank{rank}.sock")
    } else {
        format!("rank{rank}.gen{gen}.sock")
    }
}

/// Atomically publish `"<nonce:016x> <addr>"` under `name` (tmp +
/// rename, so a polling peer never reads a torn file).
fn publish_file(dir: &Path, name: &str, nonce: u64, addr: &str) -> Result<(), TransportError> {
    let io = |e: std::io::Error| TransportError::Io(e.to_string());
    let tmp = dir.join(format!(".{name}.tmp"));
    std::fs::write(&tmp, format!("{nonce:016x} {addr}")).map_err(io)?;
    std::fs::rename(&tmp, dir.join(name)).map_err(io)?;
    Ok(())
}

/// Atomically publish a rank's nonce-stamped address.
fn publish_addr(
    dir: &Path,
    rank: usize,
    gen: u32,
    nonce: u64,
    addr: &str,
) -> Result<(), TransportError> {
    publish_file(dir, &addr_name(rank, gen), nonce, addr)
}

/// Poll for a published address file, validating its nonce stamp.
/// `what` names the awaited party in error messages.
fn wait_for_file(
    dir: &Path,
    name: &str,
    what: &str,
    cfg: &StreamConfig,
) -> Result<String, TransportError> {
    let path: PathBuf = dir.join(name);
    let deadline = Instant::now() + cfg.rendezvous_timeout;
    loop {
        if let Ok(line) = std::fs::read_to_string(&path) {
            let mut parts = line.split_whitespace();
            let (nonce, addr) = match (parts.next(), parts.next()) {
                (Some(n), Some(a)) => (u64::from_str_radix(n, 16).ok(), a),
                _ => (None, ""),
            };
            match nonce {
                Some(found) if found == cfg.nonce && !addr.is_empty() => {
                    return Ok(addr.to_string());
                }
                Some(found) => {
                    return Err(TransportError::RendezvousMismatch {
                        expected: cfg.nonce,
                        found,
                    });
                }
                None => {
                    return Err(TransportError::Io(format!(
                        "rendezvous: malformed address file for {what}"
                    )));
                }
            }
        }
        if Instant::now() > deadline {
            return Err(TransportError::Io(format!(
                "rendezvous: no address from {what} within {:?}",
                cfg.rendezvous_timeout
            )));
        }
        std::thread::sleep(cfg.retry_sleep);
    }
}

/// Poll for a peer rank's address file, validating its nonce stamp.
fn wait_for_addr(
    dir: &Path,
    peer: usize,
    gen: u32,
    cfg: &StreamConfig,
) -> Result<String, TransportError> {
    wait_for_file(dir, &addr_name(peer, gen), &format!("rank {peer}"), cfg)
}

/// A listening socket for a *service* (many anonymous clients), as
/// opposed to the mesh's one-listener-per-rank.  Bind, publish the
/// address with [`publish_service_addr`], then poll [`try_accept`] from
/// the service loop.
///
/// [`try_accept`]: Self::try_accept
#[derive(Debug)]
pub struct ServiceListener {
    inner: Listener,
    addr: String,
    /// Bound on every write to an accepted connection.
    write_deadline: Duration,
}

impl ServiceListener {
    /// Bind a non-blocking listener: TCP on an ephemeral loopback port,
    /// or a UDS socket named `<service>.sock` under `dir`.  Accepted
    /// connections get the default [`StreamConfig`]'s write deadline.
    pub fn bind(kind: StreamKind, dir: &Path, service: &str) -> Result<Self, TransportError> {
        Self::bind_with(kind, dir, service, &StreamConfig::default())
    }

    /// [`Self::bind`] with explicit budgets: every write to an accepted
    /// connection is bounded by `cfg.write_deadline`, so a client that
    /// stops reading fails the write like a hangup instead of blocking
    /// the service.
    pub fn bind_with(
        kind: StreamKind,
        dir: &Path,
        service: &str,
        cfg: &StreamConfig,
    ) -> Result<Self, TransportError> {
        let io = |e: std::io::Error| TransportError::Io(e.to_string());
        std::fs::create_dir_all(dir).map_err(io)?;
        let (inner, addr) =
            Listener::bind(kind, &dir.join(format!("{service}.sock"))).map_err(io)?;
        Ok(Self {
            inner,
            addr,
            write_deadline: cfg.write_deadline,
        })
    }

    /// The bound address (publish it via [`publish_service_addr`]).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Non-blocking accept: `Ok(Some)` wraps the new connection in a
    /// write-deadline-bounded [`FramedConn`], `Ok(None)` means nobody is
    /// waiting.
    pub fn try_accept(&self) -> Result<Option<FramedConn>, TransportError> {
        let io = |e: std::io::Error| TransportError::Io(e.to_string());
        match self.inner.try_accept().map_err(io)? {
            Some(s) => FramedConn::bounded(s, self.write_deadline).map(Some),
            None => Ok(None),
        }
    }
}

/// Atomically publish a service's nonce-stamped address as
/// `<service>.addr` (same format and torn-read-free rename as the rank
/// address files).
pub fn publish_service_addr(
    dir: &Path,
    service: &str,
    nonce: u64,
    addr: &str,
) -> Result<(), TransportError> {
    let io = |e: std::io::Error| TransportError::Io(e.to_string());
    std::fs::create_dir_all(dir).map_err(io)?;
    publish_file(dir, &format!("{service}.addr"), nonce, addr)
}

/// Poll for a service's published address, validating the nonce stamp
/// exactly like the rank rendezvous ([`TransportError::RendezvousMismatch`]
/// on a stale file).
pub fn wait_for_service_addr(
    dir: &Path,
    service: &str,
    cfg: &StreamConfig,
) -> Result<String, TransportError> {
    wait_for_file(
        dir,
        &format!("{service}.addr"),
        &format!("service {service}"),
        cfg,
    )
}

/// Dial a service address (from [`wait_for_service_addr`]) with the
/// rendezvous retry budget, returning a write-deadline-bounded
/// [`FramedConn`].
pub fn dial_service(
    addr: &str,
    kind: StreamKind,
    cfg: &StreamConfig,
) -> Result<FramedConn, TransportError> {
    FramedConn::bounded(connect_with_retry(addr, kind, cfg)?, cfg.write_deadline)
}

fn connect_with_retry(
    addr: &str,
    kind: StreamKind,
    cfg: &StreamConfig,
) -> Result<Stream, TransportError> {
    let deadline = Instant::now() + cfg.rendezvous_timeout;
    loop {
        let attempt = match kind {
            StreamKind::Tcp => TcpStream::connect(addr).map(Stream::Tcp),
            StreamKind::Uds => UnixStream::connect(addr).map(Stream::Uds),
        };
        match attempt {
            Ok(s) => return Ok(s),
            Err(e) if Instant::now() > deadline => {
                return Err(TransportError::Io(e.to_string()));
            }
            Err(_) => std::thread::sleep(cfg.retry_sleep),
        }
    }
}

/// The 24-byte hello a connector opens with: rank, nonce, generation.
fn send_hello(stream: &mut Stream, rank: usize, nonce: u64, gen: u32) -> std::io::Result<()> {
    let hello = [rank as u64, nonce, u64::from(gen)].map(u64::to_le_bytes);
    stream.writer().write_all(hello.as_flattened())
}

/// Accept one connection whose hello passes the nonce check and the
/// caller's rank admission predicate, bounded by `deadline`.
fn accept_one(
    listener: &Listener,
    cfg: &StreamConfig,
    deadline: Instant,
    mut admit: impl FnMut(usize) -> bool,
) -> Result<(Stream, usize, u32), TransportError> {
    let io = |e: std::io::Error| TransportError::Io(e.to_string());
    loop {
        match listener.try_accept().map_err(io)? {
            Some(mut stream) => {
                // Bound the hello read by what is left of the deadline.
                let left = deadline.saturating_duration_since(Instant::now());
                stream
                    .set_read_timeout(Some(left.max(Duration::from_millis(1))))
                    .map_err(io)?;
                let mut hello = [[0u8; 8]; 3];
                stream
                    .reader()
                    .read_exact(hello.as_flattened_mut())
                    .map_err(io)?;
                let [peer, nonce, peer_gen] = hello.map(u64::from_le_bytes);
                let (peer, peer_gen) = (peer as usize, peer_gen as u32);
                if nonce != cfg.nonce {
                    return Err(TransportError::RendezvousMismatch {
                        expected: cfg.nonce,
                        found: nonce,
                    });
                }
                if !admit(peer) {
                    return Err(TransportError::Io(format!(
                        "rendezvous: bogus hello from peer {peer}"
                    )));
                }
                return Ok((stream, peer, peer_gen));
            }
            None => {
                if Instant::now() > deadline {
                    return Err(TransportError::Io(format!(
                        "rendezvous: accept timed out after {:?}",
                        cfg.rendezvous_timeout
                    )));
                }
                std::thread::sleep(cfg.retry_sleep);
            }
        }
    }
}

impl Transport for StreamTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    fn send_frame(&mut self, to: usize, frame: &Frame) -> Result<(), TransportError> {
        assert!(to != self.rank, "self-send is not a network operation");
        let Some(p) = self.peers[to].as_mut() else {
            // Departed peer: tolerated, like Endpoint::send_lossy.
            return Ok(());
        };
        let bytes = frame.encode_framed();
        match p.send_raw(&bytes) {
            Ok(()) => {
                // The frame's bytes, not its length prefix.
                self.bytes_sent += frame.encoded_len() as u64;
                self.messages_sent += 1;
                Ok(())
            }
            Err(_) => {
                // Peer hung up (or stopped draining past the write
                // deadline): drop the stream, fail soft.
                self.peers[to] = None;
                Ok(())
            }
        }
    }

    fn recv_frame(&mut self, from: usize) -> Result<Frame, TransportError> {
        let (base, attempts) = (self.cfg.read_deadline, self.cfg.read_attempts);
        self.recv_frame_deadline(from, base, attempts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::run_ranks;
    use crate::link::LinkProfile;
    use crate::wire::JRecord;

    fn stage(step: u64, t_min: f64) -> Frame {
        Frame::Stage {
            gen: 0,
            step,
            stage: 0,
            t_min,
            ckpt: 0,
            records: vec![JRecord {
                index: step,
                words: vec![t_min.to_bits()],
            }],
            pad: 100,
        }
    }

    /// Millisecond-budget config so failure paths resolve fast in tests.
    fn quick(nonce: u64) -> StreamConfig {
        StreamConfig {
            nonce,
            rendezvous_timeout: Duration::from_millis(400),
            retry_sleep: Duration::from_millis(2),
            read_deadline: Duration::from_millis(30),
            read_attempts: 2,
            write_deadline: Duration::from_millis(500),
        }
    }

    fn tdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("g6-rdv-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Poll-accept the next service connection (5 s bound).
    fn accept(listener: &ServiceListener) -> FramedConn {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if let Some(c) = listener.try_accept().expect("accept") {
                return c;
            }
            assert!(Instant::now() < deadline, "no client within 5 s");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Keeps a pair's listener (and UDS socket file) alive; removes the
    /// rendezvous directory when dropped.
    struct Rendezvous(#[allow(dead_code)] ServiceListener, PathBuf);

    impl Drop for Rendezvous {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.1);
        }
    }

    /// A connected (accepted, dialled) pair.
    fn pair(kind: StreamKind, tag: &str) -> (FramedConn, FramedConn, Rendezvous) {
        let dir = tdir(&format!("{tag}-{kind:?}"));
        let listener = ServiceListener::bind(kind, &dir, "farm").expect("bind");
        let client = dial_service(listener.addr(), kind, &quick(1)).expect("dial");
        let server = accept(&listener);
        (server, client, Rendezvous(listener, dir))
    }

    /// The no-wait receive, repeated until it yields a frame or an error
    /// (bytes written by a peer are not promised to be readable the
    /// instant its `write` returns).  Never sleeps itself.
    fn nowait_event(conn: &mut FramedConn) -> Result<Vec<u8>, FrameIoError> {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if let Some(payload) = conn.recv_payload_nowait()? {
                return Ok(payload);
            }
            assert!(Instant::now() < deadline, "nothing within 5 s");
            std::thread::yield_now();
        }
    }

    /// Repeat the no-wait receive until `n` bytes sit in the buffer;
    /// every call on the way must be `None`.
    fn nowait_until_buffered(conn: &mut FramedConn, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            assert_eq!(conn.recv_payload_nowait(), Ok(None));
            if conn.buffered() == n {
                return;
            }
            assert!(Instant::now() < deadline, "{n} bytes never arrived");
            std::thread::yield_now();
        }
    }

    #[test]
    fn virtual_transport_moves_frames_and_charges_wire_len() {
        let link = LinkProfile {
            latency: 1e-4,
            bandwidth: 1e8,
            overhead: 1e-5,
        };
        let f = stage(3, 0.25);
        let wire = f.wire_len();
        let f2 = f.clone();
        let out = run_ranks::<Vec<u8>, (f64, u64), _>(2, link, move |mut ep| {
            let mut tr = VirtualTransport::new(&mut ep);
            if tr.rank() == 0 {
                tr.send_frame(1, &f2).expect("virtual send is infallible");
                (ep.clock(), ep.bytes_sent())
            } else {
                let got = tr.recv_frame(0).expect("frame from rank 0");
                assert_eq!(got, f2);
                (ep.clock(), ep.bytes_sent())
            }
        });
        // Sender charged the padded wire size, not just encoded bytes.
        assert_eq!(out[0].1, wire as u64);
        // Receiver clock: send overhead + latency + wire/bw + recv overhead.
        let expect = 1e-5 + 1e-4 + wire as f64 / 1e8 + 1e-5;
        assert!(
            (out[1].0 - expect).abs() < 1e-12,
            "{} vs {expect}",
            out[1].0
        );
    }

    #[test]
    fn stream_transport_smoke_tcp_threads() {
        // In-process smoke of the rendezvous + framing (the real
        // multi-process test lives in grape6-bench).
        let dir = tdir("tcp");
        let p = 3;
        let hs: Vec<_> = (0..p)
            .map(|r| {
                let dir = dir.clone();
                std::thread::spawn(move || {
                    let mut tr = StreamTransport::connect_with(
                        r,
                        p,
                        &dir,
                        StreamKind::Tcp,
                        &StreamConfig {
                            nonce: 0x5eed,
                            ..StreamConfig::default()
                        },
                    )
                    .expect("rendezvous");
                    // Everyone sends its rank-stamped frame to everyone.
                    for to in 0..p {
                        if to != r {
                            tr.send_frame(to, &stage(r as u64, r as f64))
                                .expect("send is fail-soft");
                        }
                    }
                    let mut seen = Vec::new();
                    for from in 0..p {
                        if from != r {
                            seen.push(match tr.recv_frame(from) {
                                Ok(f) => f,
                                Err(e) => panic!("rank {r} recv from {from}: {e}"),
                            });
                        }
                    }
                    (tr.bytes_sent(), seen)
                })
            })
            .collect();
        let outs: Vec<_> = hs
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect();
        for (r, (sent, seen)) in outs.iter().enumerate() {
            assert!(*sent > 0, "rank {r}");
            let want: Vec<Frame> = (0..p)
                .filter(|&f| f != r)
                .map(|f| stage(f as u64, f as f64))
                .collect();
            assert_eq!(*seen, want, "rank {r}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stream_transport_smoke_uds_and_down_detection() {
        let dir = tdir("uds");
        let p = 2;
        let hs: Vec<_> = (0..p)
            .map(|r| {
                let dir = dir.clone();
                std::thread::spawn(move || {
                    let mut tr =
                        StreamTransport::connect(r, p, &dir, StreamKind::Uds).expect("rendezvous");
                    if r == 0 {
                        tr.send_frame(1, &stage(0, 0.5)).expect("send");
                        // Exit; rank 1 sees the hangup as Down.
                        None
                    } else {
                        let f = tr.recv_frame(0).expect("first frame");
                        assert_eq!(f, stage(0, 0.5));
                        let err = tr.recv_frame(0).expect_err("hangup must be typed");
                        // After the Down, sends to the dead peer fail soft.
                        tr.send_frame(0, &stage(9, 9.0)).expect("fail-soft send");
                        Some(err)
                    }
                })
            })
            .collect();
        let outs: Vec<_> = hs
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect();
        assert_eq!(outs[1], Some(TransportError::Down { from: 0, to: 1 }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn silent_peer_times_out_with_attempt_count_and_stream_survives() {
        let dir = tdir("silent");
        let cfg = quick(7);
        let h1 = {
            let (dir, cfg) = (dir.clone(), cfg);
            std::thread::spawn(move || {
                let mut tr = StreamTransport::connect_with(1, 2, &dir, StreamKind::Tcp, &cfg)
                    .expect("rendezvous");
                // Say nothing for a while, then deliver.
                std::thread::sleep(Duration::from_millis(250));
                tr.send_frame(0, &stage(5, 1.5)).expect("late send");
                // Hold the socket open until rank 0 has read the frame.
                let f = tr.recv_frame(0).expect("ack");
                assert_eq!(f, stage(6, 2.5));
            })
        };
        let mut tr =
            StreamTransport::connect_with(0, 2, &dir, StreamKind::Tcp, &cfg).expect("rendezvous");
        // Budget: 30ms + 60ms < 250ms of silence → typed Timeout.
        let err = tr.recv_frame(1).expect_err("silence must time out");
        assert_eq!(
            err,
            TransportError::Timeout {
                from: 1,
                to: 0,
                attempts: 2
            }
        );
        assert_eq!(tr.recv_timeouts(), 1);
        assert!(tr.is_up(1), "a timeout must not tear down the stream");
        // A patient retry gets the frame — nothing was lost.
        let f = tr
            .recv_frame_deadline(1, Duration::from_millis(200), 4)
            .expect("late frame arrives on retry");
        assert_eq!(f, stage(5, 1.5));
        tr.send_frame(1, &stage(6, 2.5)).expect("ack");
        h1.join().expect("peer thread");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rendezvous_accept_and_addr_waits_are_bounded() {
        // Nobody ever publishes rank 0's address: the connector gives up.
        let dir = tdir("noaddr");
        let cfg = quick(1);
        let t0 = Instant::now();
        let err = StreamTransport::connect_with(1, 2, &dir, StreamKind::Tcp, &cfg)
            .expect_err("absent peer must not hang the rendezvous");
        assert!(matches!(err, TransportError::Io(ref m) if m.contains("no address")));
        assert!(t0.elapsed() < Duration::from_secs(5));

        // Rank 0 publishes and waits for an accept that never comes.
        let dir2 = tdir("noaccept");
        let t0 = Instant::now();
        let err = StreamTransport::connect_with(0, 2, &dir2, StreamKind::Tcp, &cfg)
            .expect_err("absent connector must not hang the accept");
        assert!(matches!(err, TransportError::Io(ref m) if m.contains("accept timed out")));
        assert!(t0.elapsed() < Duration::from_secs(5));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    #[test]
    fn stale_nonce_is_a_typed_rendezvous_mismatch() {
        let dir = tdir("nonce");
        std::fs::create_dir_all(&dir).expect("mkdir");
        // A stale address file from a previous run (nonce 0xdead).
        std::fs::write(
            dir.join("rank0.addr"),
            format!("{:016x} 127.0.0.1:1", 0xdead_u64),
        )
        .expect("write stale addr");
        let err = StreamTransport::connect_with(1, 2, &dir, StreamKind::Tcp, &quick(0xbeef))
            .expect_err("stale nonce must be rejected");
        assert_eq!(
            err,
            TransportError::RendezvousMismatch {
                expected: 0xbeef,
                found: 0xdead
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_mid_frame_write_surfaces_down_not_garbage() {
        let dir = tdir("torn");
        let cfg = quick(3);
        let h1 = {
            let (dir, cfg) = (dir.clone(), cfg);
            std::thread::spawn(move || {
                let tr = StreamTransport::connect_with(1, 2, &dir, StreamKind::Uds, &cfg)
                    .expect("rendezvous");
                // Write a length prefix promising 64 bytes, deliver 3,
                // then die — simulating a SIGKILL mid-write.
                let mut tr = tr;
                if let Some(p) = tr.peers[0].as_mut() {
                    p.send_raw(&64u64.to_le_bytes()).expect("prefix");
                    p.send_raw(&[1, 2, 3]).expect("partial body");
                }
            })
        };
        let mut tr =
            StreamTransport::connect_with(0, 2, &dir, StreamKind::Uds, &cfg).expect("rendezvous");
        h1.join().expect("peer thread");
        let err = tr
            .recv_frame_deadline(1, Duration::from_millis(100), 4)
            .expect_err("torn frame must be typed");
        assert_eq!(err, TransportError::Down { from: 1, to: 0 });
        assert_eq!(tr.torn_frames(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn service_listener_rendezvous_and_framed_payloads_roundtrip() {
        for kind in [StreamKind::Tcp, StreamKind::Uds] {
            let dir = tdir(&format!("svc-{kind:?}"));
            let cfg = quick(0xfa51);
            let listener = ServiceListener::bind(kind, &dir, "farm").expect("bind");
            publish_service_addr(&dir, "farm", cfg.nonce, listener.addr()).expect("publish");
            let client = {
                let dir = dir.clone();
                std::thread::spawn(move || {
                    let addr = wait_for_service_addr(&dir, "farm", &cfg).expect("addr");
                    let mut conn = dial_service(&addr, kind, &cfg).expect("dial");
                    conn.send_payload(b"ping").expect("send");
                    let reply = conn
                        .recv_payload_deadline(Duration::from_millis(100), 4)
                        .expect("reply");
                    assert_eq!(reply, b"pong");
                })
            };
            // Poll-accept, echo the transformed payload back.
            let mut conn = accept(&listener);
            let got = conn
                .recv_payload_deadline(Duration::from_millis(100), 4)
                .expect("request");
            assert_eq!(got, b"ping");
            conn.send_payload(b"pong").expect("reply");
            client.join().expect("client thread");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn framed_conn_torn_frame_and_timeout_are_typed() {
        let dir = tdir("svc-torn");
        let cfg = quick(0x7042);
        let listener = ServiceListener::bind(StreamKind::Uds, &dir, "farm").expect("bind");
        publish_service_addr(&dir, "farm", cfg.nonce, listener.addr()).expect("publish");
        let client = {
            let dir = dir.clone();
            std::thread::spawn(move || {
                let addr = wait_for_service_addr(&dir, "farm", &cfg).expect("addr");
                let mut conn = dial_service(&addr, StreamKind::Uds, &cfg).expect("dial");
                // Promise 32 bytes, deliver 3, hold the socket open a
                // moment (so the server's first bounded read is a plain
                // timeout), then die mid-frame.
                conn.send_raw(&32u64.to_le_bytes()).expect("prefix");
                conn.send_raw(&[9, 9, 9]).expect("partial");
                std::thread::sleep(Duration::from_millis(300));
            })
        };
        let mut conn = accept(&listener);
        // While the client lives the partial frame is a plain timeout…
        let err = conn
            .try_recv_payload(Duration::from_millis(5))
            .expect_err("partial frame is not a payload");
        assert_eq!(err, FrameIoError::Timeout { attempts: 1 });
        client.join().expect("client thread");
        // …after it dies, the same read is a *torn* close.
        let err = conn
            .recv_payload_deadline(Duration::from_millis(50), 4)
            .expect_err("torn close is typed");
        assert_eq!(err, FrameIoError::Closed { torn: true });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn nowait_receive_yields_only_whole_frames_and_keeps_partial_bytes() {
        for kind in [StreamKind::Tcp, StreamKind::Uds] {
            let (mut server, mut client, _rdv) = pair(kind, "nowait-frames");
            // Nothing sent.
            assert_eq!(server.recv_payload_nowait(), Ok(None));
            assert_eq!(server.buffered(), 0);
            // Half a header, then the header plus part of the body: not
            // a frame yet, and no byte is dropped.
            let msg = framed(b"first frame");
            client.send_raw(&msg[..4]).expect("half a header");
            nowait_until_buffered(&mut server, 4);
            client
                .send_raw(&msg[4..11])
                .expect("rest of header, 3 body bytes");
            nowait_until_buffered(&mut server, 11);
            client.send_raw(&msg[11..]).expect("rest of the body");
            assert_eq!(nowait_event(&mut server).expect("frame"), b"first frame");
            assert_eq!(server.buffered(), 0);
            // Three frames in one write come out one per call, in order.
            let burst = [framed(b"a"), framed(b""), framed(&[7u8; 3000])].concat();
            client.send_raw(&burst).expect("burst");
            assert_eq!(nowait_event(&mut server).expect("1st"), b"a");
            assert_eq!(nowait_event(&mut server).expect("2nd"), b"");
            assert_eq!(nowait_event(&mut server).expect("3rd"), [7u8; 3000]);
            assert_eq!(server.recv_payload_nowait(), Ok(None));
            // The stream is still blocking for writes: a frame far larger
            // than the socket buffers, to a reader that starts late,
            // arrives whole (a non-blocking socket would fail the write).
            let big = vec![0x5a; 1 << 20];
            let reader = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                client.recv_payload_deadline(Duration::from_millis(250), 4)
            });
            server.send_payload(&big).expect("blocking write completes");
            assert_eq!(reader.join().expect("reader").expect("1 MiB frame"), big);
        }
    }

    #[test]
    fn nowait_receive_classifies_eof_torn_and_oversize() {
        for kind in [StreamKind::Tcp, StreamKind::Uds] {
            // Clean EOF: a whole frame, then the hangup.
            let (mut server, mut client, _rdv) = pair(kind, "nowait-eof");
            client.send_payload(b"last words").expect("send");
            drop(client);
            assert_eq!(nowait_event(&mut server).expect("frame"), b"last words");
            assert_eq!(
                nowait_event(&mut server),
                Err(FrameIoError::Closed { torn: false })
            );
            // EOF mid-frame: 32 bytes promised, 3 delivered.
            let (mut server, mut client, _rdv) = pair(kind, "nowait-torn");
            client.send_raw(&framed(&[9; 32])[..11]).expect("partial");
            nowait_until_buffered(&mut server, 11);
            drop(client);
            assert_eq!(
                nowait_event(&mut server),
                Err(FrameIoError::Closed { torn: true })
            );
            // A prefix above the 1 GiB bound is refused before allocation.
            let (mut server, mut client, _rdv) = pair(kind, "nowait-big");
            client
                .send_raw(&((1u64 << 30) + 1).to_le_bytes())
                .expect("prefix");
            assert_eq!(nowait_event(&mut server), Err(FrameIoError::Oversize));
            // Exactly 1 GiB is a legal (if unfinished) frame.
            let (mut server, mut client, _rdv) = pair(kind, "nowait-1g");
            client
                .send_raw(&(1u64 << 30).to_le_bytes())
                .expect("prefix");
            nowait_until_buffered(&mut server, 8);
        }
    }

    #[test]
    fn rejoin_reconnects_both_directions_and_moves_frames() {
        let dir = tdir("rejoin");
        let cfg = quick(11);
        let p = 3;
        let hs: Vec<_> = (0..p)
            .map(|r| {
                let (dir, cfg) = (dir.clone(), cfg);
                std::thread::spawn(move || {
                    if r == 1 {
                        // First life: connect, then vanish.
                        let tr = StreamTransport::connect_with(r, p, &dir, StreamKind::Tcp, &cfg)
                            .expect("rendezvous");
                        drop(tr);
                        // Second life: rejoin at generation 1.
                        let mut tr =
                            StreamTransport::rejoin(r, p, &dir, StreamKind::Tcp, &cfg, 1, &[0, 2])
                                .expect("rejoin");
                        assert_eq!(tr.gen(), 1);
                        tr.send_frame(0, &stage(10, 0.125)).expect("send to 0");
                        tr.send_frame(2, &stage(12, 0.25)).expect("send to 2");
                        let a = tr.recv_frame(0).expect("reply from 0");
                        let b = tr.recv_frame(2).expect("reply from 2");
                        (a, b)
                    } else {
                        let mut tr =
                            StreamTransport::connect_with(r, p, &dir, StreamKind::Tcp, &cfg)
                                .expect("rendezvous");
                        // Observe rank 1's death (hangup or timeout), then
                        // reconnect to its second life.
                        tr.close_peer(1);
                        tr.reconnect_peer(1, 1, Duration::from_secs(10))
                            .expect("reconnect");
                        let f = tr.recv_frame(1).expect("frame from rejoined rank");
                        tr.send_frame(1, &stage(20 + r as u64, r as f64))
                            .expect("reply");
                        (f, stage(0, 0.0))
                    }
                })
            })
            .collect();
        let outs: Vec<_> = hs
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect();
        assert_eq!(outs[0].0, stage(10, 0.125));
        assert_eq!(outs[2].0, stage(12, 0.25));
        assert_eq!(outs[1], (stage(20, 0.0), stage(22, 2.0)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
