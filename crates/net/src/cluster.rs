//! Surviving real rank death: the cluster supervisor.
//!
//! [`StreamTransport`] gives every blocking receive a deadline and
//! [`Wave`] tolerates heartbeats, stale generations and recovery
//! pre-emption — this module is the layer that *uses* those hooks to
//! keep a real multi-process run alive when a rank dies or stalls:
//!
//! * [`ClusterApp`] — what the supervisor drives: a step-counted
//!   computation whose per-step wave inputs are pure functions of
//!   `(original rank, step)`, with byte-exact save/restore.  Purity is
//!   the bitwise argument: after a shrink, a survivor adopting a dead
//!   rank's share reproduces the exact bits that rank would have fed the
//!   fold, and the fold itself (`f64::min` + index-keyed merge) is
//!   order-independent, so the surviving group's outcome is identical to
//!   the full group's.
//! * [`ClusterSupervisor`] — runs the blockstep loop: coordinated
//!   checkpoints every [`ClusterConfig::ckpt_every`] steps, heartbeats
//!   every [`ClusterConfig::hb_every`], one [`Wave`] per step with the
//!   last-capture epoch folded in (so every completed wave names a
//!   coordinated cut the whole group can rewind to).
//! * Recovery — on a detected death (hangup) or stall (exhausted
//!   deadline budget), the supervisor runs a three-round agreement over
//!   [`Frame::Recover`]: round 1 is a suspicion broadcast doubling as a
//!   liveness poll (a falsely suspected live rank answers and is
//!   acquitted), round 2 verifies every survivor assembled the same dead
//!   set and folds the rewind epoch, and a confirm round at the next
//!   generation seals the new group.  The dead rank is either respawned
//!   from the last coordinated checkpoint (a hangup — the harness can
//!   restart the process, which re-enters via
//!   [`ClusterSupervisor::respawned`]) or shrunk away (a stall, or a
//!   respawn that never came), its j-share redistributed by pure index
//!   arithmetic.  Everyone then rewinds to the agreed cut and replays.
//!
//! A stalled rank that wakes after being shrunk finds every peer gone
//! and a newer-generation manifest naming it dead: it exits with
//! [`ClusterError::Evicted`] instead of corrupting the run.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use grape6_ckpt::wire::{Dec, Enc};
use grape6_ckpt::{Blob, CkptError};

use crate::exchange::{Wave, WaveOutcome};
use crate::failover::{Group, RankMonitor};
use crate::transport::{StreamConfig, StreamKind, StreamTransport, Transport, TransportError};
use crate::wire::{Frame, JRecord};

/// Blob kind tag of per-rank checkpoint files.
const RANK_BLOB: &str = "cluster-rank";
/// Blob kind tag of the recovery manifest.
const MANIFEST_BLOB: &str = "cluster-manifest";
/// Format version of both blob families.
const BLOB_VERSION: u32 = 1;
/// Checkpoint epochs kept per rank (memory and disk).  Two would cover a
/// one-step skew between ranks at the fault; three leaves margin for the
/// pipeline depth of the dissemination wave.
const KEEP_CKPTS: usize = 3;
/// The `round` value of the group-sealing confirm exchange.
const ROUND_CONFIRM: u32 = u32::MAX;

/// How a dead rank was observed to fail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Open stream, no traffic past the full deadline budget.  Stalled
    /// processes are shrunk away (they may wake and must be evicted).
    Stall,
    /// The stream closed — the process is gone, so it can be respawned
    /// from the last coordinated checkpoint.
    Hangup,
}

/// What the supervisor drives: a deterministic step-counted computation.
///
/// The bitwise-recovery contract: [`ClusterApp::t_candidate`] and
/// [`ClusterApp::records`] must be pure functions of `(orank, step,
/// folded state)` — *not* of which physical rank evaluates them — and
/// [`ClusterApp::save`]/[`ClusterApp::restore`] must round-trip the
/// folded state byte-exactly.
pub trait ClusterApp {
    /// The next blockstep to run (monotone within a generation; rewound
    /// by [`Self::restore`]).
    fn step(&self) -> u64;
    /// Whether the computation is finished.
    fn is_done(&self) -> bool;
    /// Original rank `orank`'s candidate next block time at the current
    /// step.
    fn t_candidate(&self, orank: usize) -> f64;
    /// Original rank `orank`'s j-records for the current step.
    fn records(&self, orank: usize) -> Vec<JRecord>;
    /// Fold a completed wave: advance the state and the step counter.
    fn fold(&mut self, out: &WaveOutcome);
    /// Serialise the folded state (byte-exact).
    fn save(&self) -> Vec<u8>;
    /// Restore a [`Self::save`] payload (byte-exact inverse).
    fn restore(&mut self, payload: &[u8]) -> Result<(), String>;
}

/// Supervisor tuning: checkpoint/heartbeat cadence and recovery
/// deadlines.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Rendezvous directory (also holds checkpoints and the manifest).
    pub dir: PathBuf,
    /// Capture a coordinated checkpoint every this many steps (0 = only
    /// the initial one at step 0).
    pub ckpt_every: u64,
    /// Send a heartbeat round every this many steps (0 = never).
    pub hb_every: u64,
    /// Consecutive silent deadline windows before the liveness monitor
    /// declares a peer dead.
    pub miss_budget: u32,
    /// After a local suspicion, how long to drain peers for an
    /// already-running recovery before initiating one.
    pub grace: Duration,
    /// Per-peer collection window of recovery rounds 1 and 2.
    pub recover_window: Duration,
    /// How long survivors hold the door open for a respawned rank (and
    /// how long a respawned rank polls for its invitation).
    pub respawn_wait: Duration,
    /// Artificial per-step delay (gives external chaos harnesses a
    /// wall-clock window to inject faults into; 0 for full speed).
    pub step_delay: Duration,
    /// Recovery attempts before giving up on the run.
    pub max_recoveries: u32,
}

impl ClusterConfig {
    /// Defaults tuned for tests and the chaos harness; production runs
    /// should stretch every deadline.
    pub fn new(dir: &Path) -> Self {
        Self {
            dir: dir.to_path_buf(),
            ckpt_every: 8,
            hb_every: 4,
            miss_budget: 3,
            grace: Duration::from_millis(300),
            recover_window: Duration::from_secs(3),
            respawn_wait: Duration::from_secs(5),
            step_delay: Duration::ZERO,
            max_recoveries: 8,
        }
    }
}

/// Why a supervised run ended abnormally.
#[derive(Debug)]
pub enum ClusterError {
    /// An unrecoverable transport failure (protocol bug, socket error).
    Transport(TransportError),
    /// Checkpoint machinery failed (I/O, corrupt blob, bad restore).
    Ckpt(String),
    /// This rank stalled, was shrunk from the group, and woke to find a
    /// newer-generation manifest naming it dead.
    Evicted {
        /// The generation the survivors moved to without us.
        gen: u32,
    },
    /// Every peer is gone and no manifest explains why.
    PeersLost,
    /// Recovery itself failed (agreement diverged, budget exhausted).
    Unrecoverable(&'static str),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Transport(e) => write!(f, "cluster: {e}"),
            Self::Ckpt(e) => write!(f, "cluster: checkpoint: {e}"),
            Self::Evicted { gen } => {
                write!(f, "cluster: evicted (survivors moved to generation {gen})")
            }
            Self::PeersLost => write!(f, "cluster: every peer lost without a manifest"),
            Self::Unrecoverable(m) => write!(f, "cluster: unrecoverable: {m}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<TransportError> for ClusterError {
    fn from(e: TransportError) -> Self {
        Self::Transport(e)
    }
}

impl From<CkptError> for ClusterError {
    fn from(e: CkptError) -> Self {
        Self::Ckpt(e.to_string())
    }
}

/// A [`Transport`] view of a [`StreamTransport`] restricted to a
/// survivor [`Group`]: the wave algorithms address virtual ranks
/// `0..group.len()` and this adapter translates to real ranks at the
/// wire — including on the *error* path, so failure attribution reaching
/// the supervisor is uniformly in virtual-rank space.
pub struct GroupTransport<'a> {
    tr: &'a mut StreamTransport,
    group: &'a Group,
}

impl<'a> GroupTransport<'a> {
    /// Restrict `tr` to `group` (this rank must be a member).
    pub fn new(tr: &'a mut StreamTransport, group: &'a Group) -> Self {
        assert!(
            group.contains(tr.rank()),
            "rank {} is outside its own group",
            tr.rank()
        );
        Self { tr, group }
    }
}

impl Transport for GroupTransport<'_> {
    fn rank(&self) -> usize {
        self.group.vrank(self.tr.rank()).expect("member, by new()")
    }

    fn n_ranks(&self) -> usize {
        self.group.len()
    }

    fn send_frame(&mut self, to: usize, frame: &Frame) -> Result<(), TransportError> {
        self.tr.send_frame(self.group.rank_at(to), frame)
    }

    fn recv_frame(&mut self, from: usize) -> Result<Frame, TransportError> {
        let me = self.rank();
        self.tr
            .recv_frame(self.group.rank_at(from))
            .map_err(|e| match e {
                TransportError::Down { .. } => TransportError::Down { from, to: me },
                TransportError::Timeout { attempts, .. } => TransportError::Timeout {
                    from,
                    to: me,
                    attempts,
                },
                TransportError::Interrupted { frame, .. } => {
                    TransportError::Interrupted { from, frame }
                }
                other => other,
            })
    }
}

/// The recovery manifest: what the survivors decided, published
/// atomically so a respawned (or woken-after-eviction) process can learn
/// its fate from disk alone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// The generation the group moved to.
    pub gen: u32,
    /// The coordinated checkpoint epoch everyone rewound to.
    pub ckpt: u64,
    /// The rank invited to respawn and rejoin, if any.
    pub rejoin: Option<usize>,
    /// The surviving ranks (excluding the rejoiner), ascending.
    pub survivors: Vec<usize>,
    /// Every rank shrunk away so far (cumulative), ascending.
    pub shrunk: Vec<usize>,
}

impl Manifest {
    fn path(dir: &Path) -> PathBuf {
        dir.join("manifest.latest.blob")
    }

    fn to_blob(&self) -> Blob {
        let mut e = Enc::new();
        e.u32(self.gen);
        e.u64(self.ckpt);
        e.u64(self.rejoin.map_or(u64::MAX, |r| r as u64));
        e.seq_size(&self.survivors);
        e.seq_size(&self.shrunk);
        Blob::new(MANIFEST_BLOB, BLOB_VERSION, e.into_bytes())
    }

    fn from_blob(b: &Blob) -> Result<Self, ClusterError> {
        let wire = |e: grape6_ckpt::wire::WireError| ClusterError::Ckpt(format!("manifest: {e}"));
        let mut d = Dec::new(&b.payload);
        let gen = d.u32().map_err(wire)?;
        let ckpt = d.u64().map_err(wire)?;
        let rejoin = match d.u64().map_err(wire)? {
            u64::MAX => None,
            r => Some(r as usize),
        };
        let survivors = d.seq_size().map_err(wire)?;
        let shrunk = d.seq_size().map_err(wire)?;
        d.finish().map_err(wire)?;
        Ok(Self {
            gen,
            ckpt,
            rejoin,
            survivors,
            shrunk,
        })
    }

    /// Publish atomically under the rendezvous directory.
    pub fn save(&self, dir: &Path) -> Result<(), ClusterError> {
        Ok(self.to_blob().save(&Self::path(dir))?)
    }

    /// Read the latest manifest, `None` if none was ever published.
    pub fn load(dir: &Path) -> Result<Option<Self>, ClusterError> {
        let path = Self::path(dir);
        if !path.exists() {
            return Ok(None);
        }
        Self::from_blob(&Blob::load(&path, MANIFEST_BLOB, BLOB_VERSION)?).map(Some)
    }
}

/// Encode a dead-set entry: orank in the high bits, fault kind in bit 0.
fn encode_dead(dead: &BTreeMap<usize, FaultKind>) -> Vec<u64> {
    dead.iter()
        .map(|(&o, &k)| ((o as u64) << 1) | u64::from(k == FaultKind::Hangup))
        .collect()
}

fn decode_dead(entries: &[u64]) -> BTreeMap<usize, FaultKind> {
    entries
        .iter()
        .map(|&e| {
            let kind = if e & 1 == 1 {
                FaultKind::Hangup
            } else {
                FaultKind::Stall
            };
            ((e >> 1) as usize, kind)
        })
        .collect()
}

/// A received recovery-round message.
#[derive(Clone, Debug)]
struct RecoverMsg {
    gen: u32,
    round: u32,
    dead: Vec<u64>,
    ckpt: u64,
}

/// Outcome of collecting one recovery message from a peer.
enum Collect {
    Got(RecoverMsg),
    /// The peer's stream closed.
    Down,
    /// The peer said nothing relevant within the window.
    Timeout,
}

/// Drain frames from `from` until a [`Frame::Recover`] at generation
/// `>= min_gen` and round `>= min_round` arrives, bounded by `window`.
/// Stage frames of the doomed wave and heartbeats are discarded; stale
/// recovery frames (older generation or an earlier round) are skipped.
fn collect_recover(
    tr: &mut StreamTransport,
    from: usize,
    min_gen: u32,
    min_round: u32,
    window: Duration,
) -> Result<Collect, ClusterError> {
    let deadline = Instant::now() + window;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Ok(Collect::Timeout);
        }
        match tr.recv_frame_deadline(from, left, 1) {
            Ok(Frame::Recover {
                gen,
                round,
                dead,
                ckpt,
            }) if gen >= min_gen && round >= min_round => {
                return Ok(Collect::Got(RecoverMsg {
                    gen,
                    round,
                    dead,
                    ckpt,
                }));
            }
            Ok(_) => {} // doomed-wave stage frame, heartbeat, stale round
            Err(TransportError::Timeout { .. }) => return Ok(Collect::Timeout),
            Err(TransportError::Down { .. }) => return Ok(Collect::Down),
            Err(e) => return Err(e.into()),
        }
    }
}

/// What a supervised run did, beyond the app's own result.
#[derive(Clone, Debug)]
pub struct ClusterReport {
    /// Blocksteps folded (including replays after rewinds).
    pub waves_folded: u64,
    /// Recovery attempts run.
    pub recoveries: u32,
    /// Ranks that rejoined from a checkpoint.
    pub rejoined: Vec<usize>,
    /// Ranks shrunk away for good.
    pub shrunk: Vec<usize>,
    /// The final group membership.
    pub group: Vec<usize>,
    /// Wall-clock seconds spent inside recovery.
    pub recover_seconds: f64,
    /// Heartbeat frames sent.
    pub heartbeats_sent: u64,
    /// Receives that exhausted their deadline budget.
    pub recv_timeouts: u64,
    /// Streams that closed mid-frame.
    pub torn_frames: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Frames sent.
    pub messages_sent: u64,
}

/// How one wave ended.
enum WaveEnd {
    Done(WaveOutcome),
    Fault {
        /// Locally observed suspicions, original ranks.
        suspects: Vec<(usize, FaultKind)>,
        /// A recovery round already in flight from a peer (original
        /// rank, message) — consumed, so round-1 collection skips it.
        seed: Option<(usize, RecoverMsg)>,
    },
}

/// One recovery attempt's verdict.
enum Attempt {
    Applied,
    /// A live peer failed mid-recovery; retry with it added.
    Retry(Vec<(usize, FaultKind)>),
}

/// Drives a [`ClusterApp`] over a [`StreamTransport`], surviving rank
/// death and stalls (module docs have the full protocol).
pub struct ClusterSupervisor<A: ClusterApp> {
    tr: StreamTransport,
    app: A,
    cfg: ClusterConfig,
    orank: usize,
    n: usize,
    gen: u32,
    group: Group,
    monitor: RankMonitor,
    /// The most recent checkpoint epoch a completed wave proved every
    /// member holds — the rewind target.
    synced_ckpt: u64,
    /// This rank's own last captured epoch.
    last_capture: Option<u64>,
    /// Recent captures, newest last: `(epoch, payload)`.
    mem_ckpts: Vec<(u64, Vec<u8>)>,
    waves_folded: u64,
    recoveries: u32,
    rejoined: Vec<usize>,
    shrunk: Vec<usize>,
    recover_seconds: f64,
    heartbeats_sent: u64,
}

impl<A: ClusterApp> ClusterSupervisor<A> {
    /// Wrap a freshly connected transport (generation 0, full group).
    pub fn new(tr: StreamTransport, app: A, cfg: ClusterConfig) -> Self {
        let (orank, n) = (tr.rank(), tr.n_ranks());
        Self {
            tr,
            app,
            cfg: cfg.clone(),
            orank,
            n,
            gen: 0,
            group: Group::full(n),
            monitor: RankMonitor::new(n, cfg.miss_budget),
            synced_ckpt: 0,
            last_capture: None,
            mem_ckpts: Vec::new(),
            waves_folded: 0,
            recoveries: 0,
            rejoined: Vec::new(),
            shrunk: Vec::new(),
            recover_seconds: 0.0,
            heartbeats_sent: 0,
        }
    }

    /// Re-enter a run after a respawn: poll the manifest for this rank's
    /// rejoin invitation, restore the app from the named coordinated
    /// checkpoint, reconnect to the survivors at the manifest's
    /// generation, and seal the group with the confirm round.
    pub fn respawned(
        orank: usize,
        n: usize,
        kind: StreamKind,
        scfg: &StreamConfig,
        cfg: ClusterConfig,
        mut app: A,
    ) -> Result<Self, ClusterError> {
        // Wait for the survivors' invitation.
        let deadline = Instant::now() + cfg.respawn_wait;
        let manifest = loop {
            if let Some(m) = Manifest::load(&cfg.dir)? {
                if m.gen > 0 && m.rejoin == Some(orank) {
                    break m;
                }
            }
            if Instant::now() > deadline {
                return Err(ClusterError::Unrecoverable(
                    "respawn: no rejoin invitation in the manifest",
                ));
            }
            std::thread::sleep(Duration::from_millis(25));
        };
        // Restore from the coordinated cut the manifest names.
        let payload = load_rank_ckpt(&cfg.dir, orank, manifest.ckpt)?;
        app.restore(&payload).map_err(ClusterError::Ckpt)?;
        // Reconnect to the survivors at the new generation.
        let mut tr = StreamTransport::rejoin(
            orank,
            n,
            &cfg.dir,
            kind,
            scfg,
            manifest.gen,
            &manifest.survivors,
        )?;
        // Confirm round: everyone (survivors and us) must agree on the
        // sealed group, rewind epoch and shrunk set.
        let confirm = Frame::Recover {
            gen: manifest.gen,
            round: ROUND_CONFIRM,
            dead: manifest.shrunk.iter().map(|&r| r as u64).collect(),
            ckpt: manifest.ckpt,
        };
        for &s in &manifest.survivors {
            tr.send_frame(s, &confirm)?;
        }
        for &s in &manifest.survivors {
            match collect_recover(&mut tr, s, manifest.gen, ROUND_CONFIRM, cfg.respawn_wait)? {
                Collect::Got(m)
                    if m.gen == manifest.gen
                        && m.ckpt == manifest.ckpt
                        && decode_plain(&m.dead) == manifest.shrunk => {}
                _ => {
                    return Err(ClusterError::Unrecoverable(
                        "respawn: confirm round diverged",
                    ))
                }
            }
        }
        let mut members = manifest.survivors.clone();
        members.push(orank);
        let group = Group::new(members);
        let mut monitor = RankMonitor::new(n, cfg.miss_budget);
        for r in 0..n {
            if !group.contains(r) {
                monitor.mark_dead(r);
            }
        }
        Ok(Self {
            tr,
            app,
            orank,
            n,
            gen: manifest.gen,
            group,
            monitor,
            synced_ckpt: manifest.ckpt,
            last_capture: Some(manifest.ckpt),
            mem_ckpts: vec![(manifest.ckpt, payload)],
            waves_folded: 0,
            recoveries: 0,
            rejoined: Vec::new(),
            shrunk: manifest.shrunk.clone(),
            recover_seconds: 0.0,
            heartbeats_sent: 0,
            cfg,
        })
    }

    /// Run to completion; returns the finished app and the run report.
    pub fn run(mut self) -> Result<(A, ClusterReport), ClusterError> {
        while !self.app.is_done() {
            if !self.cfg.step_delay.is_zero() {
                std::thread::sleep(self.cfg.step_delay);
            }
            let step = self.app.step();
            let due = match self.cfg.ckpt_every {
                0 => self.last_capture.is_none(),
                every => step.is_multiple_of(every) || self.last_capture.is_none(),
            };
            if due && self.last_capture != Some(step) {
                self.capture(step)?;
            }
            if self.cfg.hb_every > 0 && step.is_multiple_of(self.cfg.hb_every) {
                self.heartbeat_round(step);
            }
            match self.one_wave(step)? {
                WaveEnd::Done(out) => {
                    self.synced_ckpt = out.ckpt_min;
                    self.app.fold(&out);
                    self.waves_folded += 1;
                }
                WaveEnd::Fault { suspects, seed } => self.recover(suspects, seed)?,
            }
        }
        let report = ClusterReport {
            waves_folded: self.waves_folded,
            recoveries: self.recoveries,
            rejoined: self.rejoined,
            shrunk: self.shrunk,
            group: self.group.members().to_vec(),
            recover_seconds: self.recover_seconds,
            heartbeats_sent: self.heartbeats_sent,
            recv_timeouts: self.tr.recv_timeouts(),
            torn_frames: self.tr.torn_frames(),
            bytes_sent: self.tr.bytes_sent(),
            messages_sent: self.tr.messages_sent(),
        };
        Ok((self.app, report))
    }

    /// The original rank that owns original rank `o`'s share under the
    /// current group: itself while alive, otherwise a survivor picked by
    /// pure index arithmetic (stateless, so every member agrees).
    fn owner(&self, o: usize) -> usize {
        if self.group.contains(o) {
            o
        } else {
            self.group.rank_at(o % self.group.len())
        }
    }

    /// This rank's wave input: the fold over every share it owns.
    fn wave_input(&self) -> (f64, Vec<JRecord>) {
        let mut t = f64::INFINITY;
        let mut recs = Vec::new();
        for o in 0..self.n {
            if self.owner(o) == self.orank {
                t = t.min(self.app.t_candidate(o));
                recs.extend(self.app.records(o));
            }
        }
        (t, recs)
    }

    /// Send one heartbeat to every group peer (fail-soft — a dead peer's
    /// silence is what the wave deadline detects).
    fn heartbeat_round(&mut self, epoch: u64) {
        let beat = Frame::Heartbeat {
            gen: self.gen,
            epoch,
        };
        for v in 0..self.group.len() {
            let real = self.group.rank_at(v);
            if real != self.orank && self.tr.send_frame(real, &beat).is_ok() {
                self.heartbeats_sent += 1;
            }
        }
    }

    /// One blockstep's wave over the current group.
    fn one_wave(&mut self, step: u64) -> Result<WaveEnd, ClusterError> {
        let vr = self.group.vrank(self.orank).expect("member of own group");
        let (t_in, recs) = self.wave_input();
        let mut w = Wave::with_meta(
            vr,
            self.group.len(),
            self.gen,
            step,
            t_in,
            self.last_capture.unwrap_or(0),
            recs,
        );
        while !w.is_complete() {
            if w.pending_partner().is_none() {
                let mut gt = GroupTransport::new(&mut self.tr, &self.group);
                w.post_stage(&mut gt, 0)?;
            }
            let res = {
                let mut gt = GroupTransport::new(&mut self.tr, &self.group);
                w.finish_stage(&mut gt)
            };
            for (vfrom, _epoch) in w.take_beats() {
                let real = self.group.rank_at(vfrom);
                self.monitor.observe_beat(real);
            }
            match res {
                Ok(()) => {}
                Err(TransportError::Timeout { from, .. }) => {
                    let real = self.group.rank_at(from);
                    if self.monitor.observe_silence(real) {
                        // Budget exhausted: before initiating recovery,
                        // drain for one already in flight (we may be the
                        // falsely suspicious one).
                        return Ok(match self.grace_drain()? {
                            Some(seed) => WaveEnd::Fault {
                                suspects: vec![],
                                seed: Some(seed),
                            },
                            None => WaveEnd::Fault {
                                suspects: vec![(real, FaultKind::Stall)],
                                seed: None,
                            },
                        });
                    }
                    // Under budget: retry the same pending stage.
                }
                Err(TransportError::Down { from, .. }) => {
                    let real = self.group.rank_at(from);
                    self.monitor.mark_dead(real);
                    return Ok(WaveEnd::Fault {
                        suspects: vec![(real, FaultKind::Hangup)],
                        seed: None,
                    });
                }
                Err(TransportError::Interrupted { from, frame }) => {
                    let real = self.group.rank_at(from);
                    if let Frame::Recover {
                        gen,
                        round,
                        dead,
                        ckpt,
                    } = *frame
                    {
                        return Ok(WaveEnd::Fault {
                            suspects: vec![],
                            seed: Some((
                                real,
                                RecoverMsg {
                                    gen,
                                    round,
                                    dead,
                                    ckpt,
                                },
                            )),
                        });
                    }
                    unreachable!("Interrupted always carries Frame::Recover");
                }
                Err(e) => return Err(e.into()),
            }
        }
        Ok(WaveEnd::Done(w.outcome()))
    }

    /// Scan live peers for a recovery round already in flight, for up to
    /// the grace window.  Everything else on the streams belongs to the
    /// doomed wave and is safely discarded (the wave will be rewound).
    fn grace_drain(&mut self) -> Result<Option<(usize, RecoverMsg)>, ClusterError> {
        let deadline = Instant::now() + self.cfg.grace;
        loop {
            for v in 0..self.group.len() {
                let real = self.group.rank_at(v);
                if real == self.orank || !self.monitor.is_alive(real) {
                    continue;
                }
                match self
                    .tr
                    .recv_frame_deadline(real, Duration::from_millis(10), 1)
                {
                    Ok(Frame::Recover {
                        gen,
                        round,
                        dead,
                        ckpt,
                    }) if gen >= self.gen => {
                        return Ok(Some((
                            real,
                            RecoverMsg {
                                gen,
                                round,
                                dead,
                                ckpt,
                            },
                        )));
                    }
                    Ok(Frame::Heartbeat { .. }) => self.monitor.observe_beat(real),
                    Ok(_) => {}
                    Err(TransportError::Timeout { .. }) => {}
                    Err(TransportError::Down { .. }) => self.monitor.mark_dead(real),
                    Err(e) => return Err(e.into()),
                }
            }
            if Instant::now() >= deadline {
                return Ok(None);
            }
        }
    }

    /// Run recovery attempts until one applies or the budget runs out.
    fn recover(
        &mut self,
        mut suspects: Vec<(usize, FaultKind)>,
        mut seed: Option<(usize, RecoverMsg)>,
    ) -> Result<(), ClusterError> {
        let t0 = Instant::now();
        loop {
            self.recoveries += 1;
            if self.recoveries > self.cfg.max_recoveries {
                self.recover_seconds += t0.elapsed().as_secs_f64();
                return Err(ClusterError::Unrecoverable("recovery budget exhausted"));
            }
            match self.attempt_recovery(&suspects, seed.take())? {
                Attempt::Applied => {
                    self.recover_seconds += t0.elapsed().as_secs_f64();
                    return Ok(());
                }
                Attempt::Retry(more) => suspects = more,
            }
        }
    }

    /// One pass of the three-round recovery protocol (module docs).
    fn attempt_recovery(
        &mut self,
        suspects: &[(usize, FaultKind)],
        seed: Option<(usize, RecoverMsg)>,
    ) -> Result<Attempt, ClusterError> {
        let mut dead: BTreeMap<usize, FaultKind> = suspects.iter().copied().collect();
        let mut ckpt = self.synced_ckpt;
        // A seed message is a peer's round 1 we already consumed: fold
        // its epoch and skip that peer in our own round-1 collection.
        // Its suspicion content is ignored — round 1 is a liveness poll,
        // and a genuinely dead rank fails *our* poll independently, so
        // every member's dead set converges without trusting hearsay.
        let mut consumed: Option<usize> = None;
        if let Some((from, msg)) = seed {
            ckpt = ckpt.min(msg.ckpt);
            if msg.round == 1 {
                consumed = Some(from);
            }
        }
        // Round 1: broadcast suspicions to every group peer (suspects
        // included — a falsely suspected live rank answers and is
        // acquitted), then poll everyone.
        let r1 = Frame::Recover {
            gen: self.gen,
            round: 1,
            dead: encode_dead(&dead),
            ckpt: self.synced_ckpt,
        };
        let peers: Vec<usize> = self
            .group
            .members()
            .iter()
            .copied()
            .filter(|&r| r != self.orank)
            .collect();
        for &p in &peers {
            self.tr.send_frame(p, &r1)?;
        }
        for &p in &peers {
            if consumed == Some(p) {
                dead.remove(&p);
                continue;
            }
            match collect_recover(&mut self.tr, p, self.gen, 1, self.cfg.recover_window)? {
                Collect::Got(m) => {
                    dead.remove(&p);
                    ckpt = ckpt.min(m.ckpt);
                }
                Collect::Timeout => {
                    dead.entry(p).or_insert(FaultKind::Stall);
                }
                Collect::Down => {
                    dead.insert(p, FaultKind::Hangup);
                }
            }
        }
        let live: Vec<usize> = peers
            .iter()
            .copied()
            .filter(|p| !dead.contains_key(p))
            .collect();
        if live.is_empty() && !peers.is_empty() {
            // Everyone is gone.  Either the group recovered without us
            // (we were the stalled suspect) — the manifest says so — or
            // the run is truly lost.
            if let Some(m) = Manifest::load(&self.cfg.dir)? {
                if m.gen > self.gen && m.shrunk.contains(&self.orank) {
                    return Err(ClusterError::Evicted { gen: m.gen });
                }
            }
            return Err(ClusterError::PeersLost);
        }
        // Round 2: broadcast the assembled dead set; every member must
        // have assembled the same ranks (kinds may differ by observation
        // — a hangup seen elsewhere wins over a local stall).
        let my_dead = encode_dead(&dead);
        let r2 = Frame::Recover {
            gen: self.gen,
            round: 2,
            dead: my_dead,
            ckpt,
        };
        for &p in &live {
            self.tr.send_frame(p, &r2)?;
        }
        for &p in &live {
            match collect_recover(&mut self.tr, p, self.gen, 2, self.cfg.recover_window)? {
                Collect::Got(m) => {
                    let theirs = decode_dead(&m.dead);
                    if theirs.keys().ne(dead.keys()) {
                        return Err(ClusterError::Unrecoverable("recovery agreement diverged"));
                    }
                    for (o, k) in theirs {
                        if k == FaultKind::Hangup {
                            dead.insert(o, FaultKind::Hangup);
                        }
                    }
                    ckpt = ckpt.min(m.ckpt);
                }
                Collect::Timeout | Collect::Down => {
                    // A peer died between rounds: restart with it added.
                    let mut more: Vec<(usize, FaultKind)> =
                        dead.iter().map(|(&o, &k)| (o, k)).collect();
                    more.push((p, FaultKind::Hangup));
                    return Ok(Attempt::Retry(more));
                }
            }
        }
        self.apply_recovery(dead, ckpt, &live)
    }

    /// Decide rejoin-or-shrink, publish the manifest, reconnect or close,
    /// seal with the confirm round, and rewind.
    fn apply_recovery(
        &mut self,
        dead: BTreeMap<usize, FaultKind>,
        ckpt: u64,
        live: &[usize],
    ) -> Result<Attempt, ClusterError> {
        let new_gen = self.gen + 1;
        // The lowest hangup-dead rank gets a respawn invitation; stalls
        // are shrunk (the process still exists and must be evicted).
        let mut candidate = dead
            .iter()
            .filter(|&(_, &k)| k == FaultKind::Hangup)
            .map(|(&o, _)| o)
            .next();
        let mut survivors: Vec<usize> = live.to_vec();
        survivors.push(self.orank);
        survivors.sort_unstable();
        let mut shrunk = self.shrunk.clone();
        for &o in dead.keys() {
            if Some(o) != candidate && !shrunk.contains(&o) {
                shrunk.push(o);
            }
        }
        shrunk.sort_unstable();
        // Publish the decision *before* waiting for the respawn, so the
        // restarted process finds its invitation.  Only the leader (the
        // lowest survivor) writes; everyone computed identical content.
        let leader = survivors[0] == self.orank;
        if leader {
            Manifest {
                gen: new_gen,
                ckpt,
                rejoin: candidate,
                survivors: survivors.clone(),
                shrunk: shrunk.clone(),
            }
            .save(&self.cfg.dir)?;
        }
        for (&o, _) in dead.iter() {
            self.tr.close_peer(o);
            self.monitor.mark_dead(o);
        }
        if let Some(c) = candidate {
            if self
                .tr
                .reconnect_peer(c, new_gen, self.cfg.respawn_wait)
                .is_err()
            {
                // The respawn never came: fall back to shrinking it.
                if !shrunk.contains(&c) {
                    shrunk.push(c);
                    shrunk.sort_unstable();
                }
                candidate = None;
                if leader {
                    Manifest {
                        gen: new_gen,
                        ckpt,
                        rejoin: None,
                        survivors: survivors.clone(),
                        shrunk: shrunk.clone(),
                    }
                    .save(&self.cfg.dir)?;
                }
            }
        }
        // Seal the new group: everyone (including a rejoiner) must echo
        // the identical (generation, shrunk set, rewind epoch).
        let mut final_members = survivors.clone();
        if let Some(c) = candidate {
            final_members.push(c);
            final_members.sort_unstable();
        }
        let confirm = Frame::Recover {
            gen: new_gen,
            round: ROUND_CONFIRM,
            dead: shrunk.iter().map(|&r| r as u64).collect(),
            ckpt,
        };
        for &p in &final_members {
            if p != self.orank {
                self.tr.send_frame(p, &confirm)?;
            }
        }
        for &p in &final_members {
            if p == self.orank {
                continue;
            }
            match collect_recover(
                &mut self.tr,
                p,
                new_gen,
                ROUND_CONFIRM,
                self.cfg.respawn_wait,
            )? {
                Collect::Got(m)
                    if m.gen == new_gen && m.ckpt == ckpt && decode_plain(&m.dead) == shrunk => {}
                _ => {
                    return Err(ClusterError::Unrecoverable("confirm round diverged"));
                }
            }
        }
        // Apply: bump the generation, re-form the group, rewind.
        self.gen = new_gen;
        self.tr.set_gen(new_gen);
        self.group = Group::new(final_members);
        self.shrunk = shrunk;
        if let Some(c) = candidate {
            self.monitor.revive(c);
            if !self.rejoined.contains(&c) {
                self.rejoined.push(c);
            }
        }
        self.restore_to(ckpt)?;
        self.synced_ckpt = ckpt;
        self.last_capture = Some(ckpt);
        Ok(Attempt::Applied)
    }

    /// Capture a checkpoint of the app at `epoch` (the current step):
    /// keep it in memory and publish it on disk for a future respawn.
    fn capture(&mut self, epoch: u64) -> Result<(), ClusterError> {
        let payload = self.app.save();
        save_rank_ckpt(&self.cfg.dir, self.orank, epoch, &payload)?;
        self.mem_ckpts.retain(|(e, _)| *e != epoch);
        self.mem_ckpts.push((epoch, payload));
        while self.mem_ckpts.len() > KEEP_CKPTS {
            let (old, _) = self.mem_ckpts.remove(0);
            let _ = std::fs::remove_file(rank_ckpt_path(&self.cfg.dir, self.orank, old));
        }
        self.last_capture = Some(epoch);
        Ok(())
    }

    /// Rewind the app to checkpoint `epoch` (memory first, disk second).
    fn restore_to(&mut self, epoch: u64) -> Result<(), ClusterError> {
        let payload = match self.mem_ckpts.iter().find(|(e, _)| *e == epoch) {
            Some((_, p)) => p.clone(),
            None => load_rank_ckpt(&self.cfg.dir, self.orank, epoch)?,
        };
        self.app.restore(&payload).map_err(ClusterError::Ckpt)
    }
}

/// Decode a confirm-round payload (plain oranks, no kind bits).
fn decode_plain(entries: &[u64]) -> Vec<usize> {
    entries.iter().map(|&e| e as usize).collect()
}

fn rank_ckpt_path(dir: &Path, orank: usize, epoch: u64) -> PathBuf {
    dir.join(format!("rank{orank}.ckpt{epoch}.blob"))
}

/// Persist one rank's app state at a checkpoint epoch (epoch embedded in
/// the payload, so a mixed-up file is caught on load).
fn save_rank_ckpt(dir: &Path, orank: usize, epoch: u64, app: &[u8]) -> Result<(), ClusterError> {
    let mut payload = epoch.to_le_bytes().to_vec();
    payload.extend_from_slice(app);
    Blob::new(RANK_BLOB, BLOB_VERSION, payload)
        .save(&rank_ckpt_path(dir, orank, epoch))
        .map_err(Into::into)
}

/// Load one rank's app state, verifying the embedded epoch.
fn load_rank_ckpt(dir: &Path, orank: usize, epoch: u64) -> Result<Vec<u8>, ClusterError> {
    let blob = Blob::load(&rank_ckpt_path(dir, orank, epoch), RANK_BLOB, BLOB_VERSION)?;
    if blob.payload.len() < 8 {
        return Err(ClusterError::Ckpt("rank checkpoint too short".into()));
    }
    let found = u64::from_le_bytes(blob.payload[..8].try_into().expect("8 bytes"));
    if found != epoch {
        return Err(ClusterError::Ckpt(format!(
            "rank checkpoint epoch {found} where {epoch} was expected"
        )));
    }
    Ok(blob.payload[8..].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    use grape6_ckpt::{fnv1a64_word as eat, FNV_OFFSET};

    /// A tiny wave-chained computation whose per-orank inputs are pure
    /// functions of `(orank, step, folded state)` — the contract that
    /// makes share adoption after a shrink bitwise-exact.
    struct MiniApp {
        steps: u64,
        step: u64,
        t_seed: f64,
        h: u64,
        /// Sleep once inside the fold of this step (simulates a stall).
        stall: Option<(u64, Duration)>,
    }

    impl MiniApp {
        fn new(steps: u64) -> Self {
            Self {
                steps,
                step: 0,
                t_seed: 0.5,
                h: FNV_OFFSET,
                stall: None,
            }
        }
    }

    impl ClusterApp for MiniApp {
        fn step(&self) -> u64 {
            self.step
        }

        fn is_done(&self) -> bool {
            self.step >= self.steps
        }

        fn t_candidate(&self, o: usize) -> f64 {
            self.t_seed * (1.0 + o as f64 * 0.125)
        }

        fn records(&self, o: usize) -> Vec<JRecord> {
            vec![JRecord {
                index: o as u64 * 1024 + self.step % 8,
                words: vec![self.t_candidate(o).to_bits()],
            }]
        }

        fn fold(&mut self, out: &WaveOutcome) {
            if let Some((at, d)) = self.stall {
                if self.step == at {
                    self.stall = None;
                    std::thread::sleep(d);
                }
            }
            self.h = eat(self.h, out.t_min.to_bits());
            for r in &out.merged {
                self.h = eat(self.h, r.index);
                for &w in &r.words {
                    self.h = eat(self.h, w);
                }
            }
            self.t_seed = out.t_min * 0.75 + 1e-3;
            self.step += 1;
        }

        fn save(&self) -> Vec<u8> {
            let mut e = Enc::new();
            e.u64(self.step);
            e.u64(self.t_seed.to_bits());
            e.u64(self.h);
            e.into_bytes()
        }

        fn restore(&mut self, p: &[u8]) -> Result<(), String> {
            let s = |e: grape6_ckpt::wire::WireError| e.to_string();
            let mut d = Dec::new(p);
            self.step = d.u64().map_err(s)?;
            self.t_seed = f64::from_bits(d.u64().map_err(s)?);
            self.h = d.u64().map_err(s)?;
            d.finish().map_err(s)?;
            Ok(())
        }
    }

    /// The digest a clean fault-free run folds — computed directly from
    /// the recurrence, independent of any cluster machinery, so faulted
    /// runs have an absolute bitwise reference.
    fn expected_digest(n: usize, steps: u64) -> u64 {
        let mut t_seed = 0.5f64;
        let mut h = FNV_OFFSET;
        for step in 0..steps {
            let cand = |o: usize| t_seed * (1.0 + o as f64 * 0.125);
            let t_min = (0..n).map(cand).fold(f64::INFINITY, f64::min);
            h = eat(h, t_min.to_bits());
            for o in 0..n {
                h = eat(h, o as u64 * 1024 + step % 8);
                h = eat(h, cand(o).to_bits());
            }
            t_seed = t_min * 0.75 + 1e-3;
        }
        h
    }

    fn scfg(nonce: u64) -> StreamConfig {
        StreamConfig {
            nonce,
            rendezvous_timeout: Duration::from_secs(10),
            retry_sleep: Duration::from_millis(2),
            read_deadline: Duration::from_millis(40),
            read_attempts: 2,
            write_deadline: Duration::from_secs(1),
        }
    }

    fn ccfg(dir: &Path, respawn: Duration) -> ClusterConfig {
        ClusterConfig {
            ckpt_every: 4,
            hb_every: 2,
            grace: Duration::from_millis(250),
            recover_window: Duration::from_millis(800),
            respawn_wait: respawn,
            ..ClusterConfig::new(dir)
        }
    }

    fn tdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("g6-cluster-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn manifest_dead_set_and_rank_ckpt_encodings_roundtrip() {
        let dir = tdir("codec");
        let m = Manifest {
            gen: 3,
            ckpt: 16,
            rejoin: Some(2),
            survivors: vec![0, 1, 3],
            shrunk: vec![4],
        };
        m.save(&dir).expect("save");
        assert_eq!(Manifest::load(&dir).expect("load"), Some(m));
        let none = Manifest {
            gen: 4,
            ckpt: 24,
            rejoin: None,
            survivors: vec![0, 1],
            shrunk: vec![2, 4],
        };
        none.save(&dir).expect("overwrite");
        assert_eq!(Manifest::load(&dir).expect("load"), Some(none));
        assert_eq!(Manifest::load(&tdir("codec-empty")).expect("load"), None);

        let dead: BTreeMap<usize, FaultKind> =
            [(1, FaultKind::Stall), (6, FaultKind::Hangup)].into();
        assert_eq!(decode_dead(&encode_dead(&dead)), dead);

        save_rank_ckpt(&dir, 2, 8, &[9, 9, 9]).expect("save ckpt");
        assert_eq!(
            load_rank_ckpt(&dir, 2, 8).expect("load ckpt"),
            vec![9, 9, 9]
        );
        // A wrong epoch is refused even though the file is intact.
        assert!(matches!(
            load_rank_ckpt(&dir, 2, 16),
            Err(ClusterError::Ckpt(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hangup_without_respawn_shrinks_and_stays_bitwise_exact() {
        let dir = tdir("shrink");
        let p = 3;
        // Rank 2's computation ends at step 4 and its process vanishes —
        // a hangup mid-run from the survivors' point of view.  Nobody
        // respawns it, so the group shrinks after the respawn wait and
        // the survivors adopt its share.
        let hs: Vec<_> = (0..p)
            .map(|r| {
                let dir = dir.clone();
                std::thread::spawn(move || {
                    let tr = StreamTransport::connect_with(r, p, &dir, StreamKind::Tcp, &scfg(21))
                        .expect("rendezvous");
                    let steps = if r == 2 { 4 } else { 12 };
                    ClusterSupervisor::new(
                        tr,
                        MiniApp::new(steps),
                        ccfg(&dir, Duration::from_millis(400)),
                    )
                    .run()
                })
            })
            .collect();
        let outs: Vec<_> = hs
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect();
        let want = expected_digest(p, 12);
        for (r, out) in outs.into_iter().enumerate() {
            let (app, rep) = out.expect("every life ends cleanly");
            if r == 2 {
                continue; // its short life saw no fault
            }
            assert_eq!(app.h, want, "rank {r} diverged from the clean run");
            assert_eq!(rep.group, vec![0, 1], "rank {r}");
            assert_eq!(rep.shrunk, vec![2], "rank {r}");
            assert!(rep.recoveries >= 1, "rank {r}");
            assert!(rep.rejoined.is_empty(), "rank {r}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_rank_respawns_from_checkpoint_and_run_stays_bitwise_exact() {
        let dir = tdir("rejoin");
        let p = 3;
        let steps = 14u64;
        let hs: Vec<_> = (0..p)
            .map(|r| {
                let dir = dir.clone();
                std::thread::spawn(move || {
                    let cfg = ccfg(&dir, Duration::from_secs(8));
                    if r == 1 {
                        // First life dies at step 6; the "restarted
                        // process" re-enters through the manifest.
                        let tr =
                            StreamTransport::connect_with(r, p, &dir, StreamKind::Tcp, &scfg(22))
                                .expect("rendezvous");
                        let _ = ClusterSupervisor::new(tr, MiniApp::new(6), cfg.clone())
                            .run()
                            .expect("short first life");
                        ClusterSupervisor::respawned(
                            r,
                            p,
                            StreamKind::Tcp,
                            &scfg(22),
                            cfg,
                            MiniApp::new(steps),
                        )
                        .expect("respawn from the manifest")
                        .run()
                    } else {
                        let tr =
                            StreamTransport::connect_with(r, p, &dir, StreamKind::Tcp, &scfg(22))
                                .expect("rendezvous");
                        ClusterSupervisor::new(tr, MiniApp::new(steps), cfg).run()
                    }
                })
            })
            .collect();
        let outs: Vec<_> = hs
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect();
        let want = expected_digest(p, steps);
        for (r, out) in outs.into_iter().enumerate() {
            let (app, rep) = out.expect("all three lives finish");
            assert_eq!(app.h, want, "rank {r} diverged from the clean run");
            assert_eq!(rep.group, vec![0, 1, 2], "rank {r}: nobody shrunk");
            assert!(rep.shrunk.is_empty(), "rank {r}");
            if r != 1 {
                assert_eq!(rep.rejoined, vec![1], "rank {r} re-admitted the respawn");
                // The rewind target was the step-4 coordinated cut, so
                // waves 4 and 5 were folded twice: 14 + 2 replays.
                assert_eq!(rep.waves_folded, 16, "rank {r}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stalled_rank_is_shrunk_and_evicted_on_wakeup() {
        let dir = tdir("stall");
        let p = 3;
        let hs: Vec<_> = (0..p)
            .map(|r| {
                let dir = dir.clone();
                std::thread::spawn(move || {
                    let tr = StreamTransport::connect_with(r, p, &dir, StreamKind::Tcp, &scfg(23))
                        .expect("rendezvous");
                    let mut app = MiniApp::new(12);
                    if r == 2 {
                        // Freeze mid-fold long past the miss budget.
                        app.stall = Some((5, Duration::from_millis(2500)));
                    }
                    ClusterSupervisor::new(tr, app, ccfg(&dir, Duration::from_millis(400))).run()
                })
            })
            .collect();
        let outs: Vec<_> = hs
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect();
        let want = expected_digest(p, 12);
        for (r, out) in outs.into_iter().enumerate() {
            if r == 2 {
                // The stalled rank wakes to find the group moved on: a
                // typed eviction, not a hang or a corrupted run.
                match out {
                    Err(ClusterError::Evicted { gen }) => assert!(gen >= 1),
                    Err(other) => panic!("rank 2 should be evicted, got {other}"),
                    Ok(_) => panic!("rank 2 should be evicted, finished instead"),
                }
                continue;
            }
            let (app, rep) = out.expect("survivor");
            assert_eq!(app.h, want, "rank {r} diverged from the clean run");
            assert_eq!(rep.group, vec![0, 1], "rank {r}");
            assert_eq!(rep.shrunk, vec![2], "rank {r}");
            assert!(rep.rejoined.is_empty(), "rank {r}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
