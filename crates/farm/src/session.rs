//! Sessions and their lifecycle.
//!
//! A *session* is one tenant job making its way through the farm:
//!
//! ```text
//! Queued ──▶ Resident ⇄ Parked ──▶ Done | Failed
//! ```
//!
//! `Resident` holds a live [`RunSupervisor`] bound to a pool board;
//! `Parked` holds only the session's last [`Checkpoint`] — eviction is
//! literally "checkpoint, drop the engine, free the board", and resume
//! is [`restore_migrate`](grape6_core::restore_migrate) onto whichever
//! board is free next.  Because checkpoints are bitwise-exact and §3.4
//! block-FP summation makes board migration invisible in the force
//! bits, a session evicted and resumed any number of times finishes
//! with the same particle bits as an uninterrupted run.

use grape6_ckpt::Checkpoint;
use grape6_core::{RunStats, RunSupervisor};
use nbody_core::particle::ParticleSet;

use crate::error::FarmError;
use crate::stats::TenantReport;

/// A tenant identifier (registration order).
pub type TenantId = u32;

/// A session identifier: the owning tenant plus a per-tenant index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SessionId {
    /// The owning tenant.
    pub tenant: TenantId,
    /// Submission index within the tenant.
    pub index: u32,
}

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}.s{}", self.tenant, self.index)
    }
}

/// What a tenant submits: initial conditions plus a target time.
///
/// A `Job` can only be obtained through [`Job::builder`], which runs the
/// validity checks (enough particles, finite in-box coordinates, finite
/// positive target time) at construction — so a `Job` value that exists
/// is always admissible on those axes, and `submit` only has to check
/// farm-state conditions (capacity, queues, saturation).
#[derive(Clone, Debug)]
pub struct Job {
    pub(crate) set: ParticleSet,
    pub(crate) t_end: f64,
    pub(crate) label: String,
}

impl Job {
    /// Start building a job from its initial particle set.
    pub fn builder(set: ParticleSet) -> JobBuilder {
        JobBuilder {
            set,
            t_end: 0.0,
            label: String::new(),
        }
    }

    /// The initial particle set.
    pub fn set(&self) -> &ParticleSet {
        &self.set
    }

    /// Number of particles.
    pub fn n(&self) -> usize {
        self.set.n()
    }

    /// Integrate until `time >= t_end` (same loop as `run_until`).
    pub fn t_end(&self) -> f64 {
        self.t_end
    }

    /// Free-form label stamped into checkpoints and reports.
    pub fn label(&self) -> &str {
        &self.label
    }
}

/// Builder for [`Job`]: set the target time and label, then [`build`]
/// to validate.
///
/// [`build`]: JobBuilder::build
#[derive(Clone, Debug)]
pub struct JobBuilder {
    set: ParticleSet,
    t_end: f64,
    label: String,
}

impl JobBuilder {
    /// Integrate until `time >= t_end`.  Must be finite and positive.
    pub fn t_end(mut self, t_end: f64) -> Self {
        self.t_end = t_end;
        self
    }

    /// Free-form label stamped into checkpoints and reports.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Validate and produce the job.
    ///
    /// Checks (the former `submit`-time checks, moved to construction):
    /// at least two particles, all coordinates finite, coordinates
    /// within the engine's representable box, target time finite and
    /// positive.
    pub fn build(self) -> Result<Job, FarmError> {
        let n = self.set.n();
        if n < 2 {
            return Err(FarmError::InvalidJob {
                reason: format!("need at least 2 particles, got {n}"),
            });
        }
        if !self.set.validate_finite() {
            return Err(FarmError::InvalidJob {
                reason: "non-finite particle data".into(),
            });
        }
        let max_c = self.set.max_coordinate();
        if max_c >= 64.0 {
            return Err(FarmError::InvalidJob {
                reason: format!("coordinate {max_c} outside representable box"),
            });
        }
        if !self.t_end.is_finite() || self.t_end <= 0.0 {
            return Err(FarmError::InvalidJob {
                reason: format!("t_end must be finite and positive, got {}", self.t_end),
            });
        }
        Ok(Job {
            set: self.set,
            t_end: self.t_end,
            label: self.label,
        })
    }
}

/// What [`Farm::take_result`](crate::Farm::take_result) hands back for a
/// completed session — the same shape whether the job ran in-process or
/// arrived over the wire.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The session this result belongs to.
    pub session: SessionId,
    /// Final particle state (bitwise comparable to a dedicated run).
    pub particles: ParticleSet,
    /// The owning tenant's accounting at the time the result was taken.
    pub report: TenantReport,
}

/// Externally visible lifecycle phase of a session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionPhase {
    /// Admitted, never run.
    Queued,
    /// Live on a board.
    Resident,
    /// Evicted to a checkpoint; will resume when scheduled.
    Parked,
    /// Parked because its client vanished; excluded from scheduling
    /// until reattached, but the checkpoint is retained.
    Detached,
    /// Ran to its target time; result available via `take_result`.
    Done,
    /// Gave up; `take_result` reports the reason.
    Failed,
}

impl std::fmt::Display for SessionPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Self::Queued => "queued",
            Self::Resident => "resident",
            Self::Parked => "parked",
            Self::Detached => "detached",
            Self::Done => "done",
            Self::Failed => "failed",
        };
        f.write_str(s)
    }
}

/// A point-in-time snapshot of one session, for status polling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionStatus {
    /// Which session.
    pub session: SessionId,
    /// Where it is in its lifecycle.
    pub phase: SessionPhase,
    /// Blocksteps executed so far.
    pub blocksteps: u64,
    /// Times it was resumed from a parked checkpoint.
    pub resumes: u64,
}

/// Where a session is in its lifecycle.
pub(crate) enum SessionState {
    /// Admitted, never run.
    Queued {
        /// The submitted initial conditions.
        set: Box<ParticleSet>,
    },
    /// Live on a board.
    Resident {
        /// The supervised integrator+engine pair.
        sup: Box<RunSupervisor>,
        /// Pool slot index it occupies.
        board: usize,
    },
    /// Evicted: only the checkpoint survives.
    Parked {
        /// The bitwise-exact resume point.
        ckpt: Box<Checkpoint>,
    },
    /// Finished; the outcome lives in the farm report.
    Done,
    /// Gave up; the outcome lives in the farm report.
    Failed,
    /// Transient placeholder while ownership moves (never observable
    /// between scheduler calls).
    Moving,
}

impl SessionState {
    pub(crate) fn is_live(&self) -> bool {
        matches!(
            self,
            Self::Queued { .. } | Self::Resident { .. } | Self::Parked { .. } | Self::Moving
        )
    }
}

/// One session's bookkeeping.
pub(crate) struct Session {
    pub(crate) id: SessionId,
    pub(crate) t_end: f64,
    pub(crate) label: String,
    pub(crate) n: usize,
    pub(crate) state: SessionState,
    /// Scheduler quanta consumed (compared against the deadline).
    pub(crate) grants_used: u64,
    /// Blocksteps actually executed.
    pub(crate) blocksteps: u64,
    /// Global grant sequence number of the last grant (LRU eviction key).
    pub(crate) last_grant_seq: u64,
    /// Times this session was resumed from a parked checkpoint.
    pub(crate) resumes: u64,
    /// Grant budget snapshotted at submit (tenant override or farm
    /// default); `None` means no deadline.
    pub(crate) deadline_grants: Option<u64>,
    /// The owning client vanished: keep the checkpoint but stop
    /// scheduling until someone reattaches or cancels.
    pub(crate) detached: bool,
}

impl Session {
    pub(crate) fn phase(&self) -> SessionPhase {
        if self.detached && self.state.is_live() {
            return SessionPhase::Detached;
        }
        match self.state {
            SessionState::Queued { .. } => SessionPhase::Queued,
            SessionState::Resident { .. } => SessionPhase::Resident,
            SessionState::Parked { .. } | SessionState::Moving => SessionPhase::Parked,
            SessionState::Done => SessionPhase::Done,
            SessionState::Failed => SessionPhase::Failed,
        }
    }
}

/// How a session ended.
#[derive(Clone, Debug)]
pub enum SessionOutcome {
    /// Ran to `t_end`.
    Completed {
        /// Final particle state (bitwise comparable to a dedicated run).
        particles: Box<ParticleSet>,
        /// Final integrator statistics (recovery counters included).
        stats: Box<RunStats>,
    },
    /// Did not finish.
    Failed {
        /// What killed it (deadline, pool exhaustion, engine error…).
        reason: String,
    },
}

impl SessionOutcome {
    /// True if the session ran to its target time.
    pub fn is_completed(&self) -> bool {
        matches!(self, Self::Completed { .. })
    }
}
