//! Farm-wide and per-tenant accounting.
//!
//! Everything here is deterministic: counters advance with scheduler
//! decisions and virtual-time charges, never with wall-clock reads, so
//! two runs of the same seeded scenario produce byte-identical reports.

use std::collections::BTreeMap;

use grape6_core::RecoveryStats;
use grape6_trace::MeasuredBlockTime;

use crate::session::{SessionId, SessionOutcome, TenantId};

/// Farm-wide counters.
#[derive(Clone, Debug, Default)]
pub struct FarmStats {
    /// Jobs offered to `submit`.
    pub submitted: u64,
    /// Jobs admitted (a session was created).
    pub admitted: u64,
    /// Rejections: multiprogramming ceiling.
    pub rejected_saturated: u64,
    /// Rejections: per-tenant queue depth.
    pub rejected_queue_full: u64,
    /// Rejections: malformed or oversized jobs.
    pub rejected_invalid: u64,
    /// Sessions that reached their target time.
    pub completed: u64,
    /// Sessions that gave up (deadline, pool exhaustion, engine error).
    pub failed: u64,
    /// Scheduler quanta granted.
    pub grants: u64,
    /// Scheduler rounds driven.
    pub rounds: u64,
    /// Checkpoint-evictions (resident → parked to free a board).
    pub evictions: u64,
    /// Parked → resident restores (bitwise-exact migrations included).
    pub resumes: u64,
    /// Boards pulled from rotation.
    pub board_rotations: u64,
    /// Sessions killed by their grant deadline.
    pub deadline_failures: u64,
    /// Live sessions cancelled by their client.
    pub cancelled: u64,
    /// Sessions detached (client vanished; checkpoint retained).
    pub detached: u64,
}

/// Per-tenant accounting.
#[derive(Clone, Debug, Default)]
pub struct TenantReport {
    /// Scheduler weight the tenant was registered with.
    pub weight: u32,
    /// Quanta granted to this tenant.
    pub grants: u64,
    /// Blocksteps executed for this tenant.
    pub blocksteps: u64,
    /// Sessions completed / failed.
    pub completed: u64,
    /// Sessions that did not finish.
    pub failed: u64,
    /// Six-term measured breakdown folded from this tenant's spans
    /// (recovery phases — `Ckpt`, `Reload`, `Selftest` — included).
    pub breakdown: MeasuredBlockTime,
    /// Supervisor recovery counters summed over finished sessions.
    pub recovery: RecoveryStats,
}

impl TenantReport {
    pub(crate) fn absorb_recovery(&mut self, r: &RecoveryStats) {
        self.recovery.checkpoints_taken += r.checkpoints_taken;
        self.recovery.step_retries += r.step_retries;
        self.recovery.restores += r.restores;
        self.recovery.reselftests += r.reselftests;
        self.recovery.redistributions += r.redistributions;
        self.recovery.recovery_seconds += r.recovery_seconds;
    }
}

/// What `Farm::run` hands back.
#[derive(Clone, Debug, Default)]
pub struct FarmReport {
    /// Farm-wide counters.
    pub stats: FarmStats,
    /// Per-tenant accounting, keyed by tenant id.
    pub tenants: BTreeMap<TenantId, TenantReport>,
    /// Terminal outcome of every admitted session.
    pub outcomes: BTreeMap<SessionId, SessionOutcome>,
}

impl FarmReport {
    /// True when every admitted session completed.
    pub fn all_completed(&self) -> bool {
        self.stats.failed == 0 && self.stats.completed == self.stats.admitted
    }
}
