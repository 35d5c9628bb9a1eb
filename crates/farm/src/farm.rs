//! The farm service: admission, fair-share scheduling, eviction, rotation.
//!
//! [`Farm`] multiplexes many tenant sessions over a shared [`BoardPool`].
//! The paper's GRAPE clusters were operated exactly this way — a handful
//! of host+board units shared by a department of simulators — and the
//! operational problems are the classic ones:
//!
//! * **admission control** — a multiprogramming ceiling plus a bounded
//!   per-tenant submission queue; everything beyond is rejected with a
//!   typed [`FarmError`] the client can act on (backpressure);
//! * **fair sharing** — a deficit weighted-round-robin scheduler grants
//!   work quanta (blocksteps) to tenants in proportion to their weight;
//! * **eviction** — when sessions outnumber boards, the least-recently
//!   granted resident session is checkpointed and parked; resuming is a
//!   bitwise-exact [`restore_migrate`] onto whatever board is free next;
//! * **board rotation** — a board that fails the known-answer self-test
//!   at activation, or on which a session's recovery ladder is
//!   exhausted, is retired from the pool; its session resumes elsewhere
//!   from its last checkpoint.
//!
//! Because checkpoints are bitwise-exact and §3.4 block-FP summation
//! makes masking and j-redistribution invisible in the force bits, a
//! tenant's final particle state is **bitwise identical** to a dedicated
//! single-tenant run — no matter how often it was evicted, migrated, or
//! replayed past a board failure.  `tests/farm_bitwise.rs` and the
//! `farm_soak` bench binary assert exactly that.
//!
//! Construction is builder-first: [`FarmConfig::builder`] validates the
//! farm geometry, [`Farm::open`] takes the result, and tenants arrive as
//! typed [`TenantSpec`]s through [`Farm::register`].  Results come back
//! through [`Farm::take_result`] as a typed [`JobResult`] — the same
//! shape the wire client returns, so in-process and networked callers
//! are interchangeable.
//!
//! Everything is driven in *virtual* time and every scheduler decision
//! is a function of the submission order, so a farm run is reproducible
//! bit for bit.

use std::collections::{BTreeMap, VecDeque};

use grape6_core::{
    restore_migrate, CheckpointPolicy, Grape6Engine, HermiteIntegrator, IntegratorConfig,
    RunSupervisor, SupervisorConfig,
};
use grape6_fault::FaultPlan;
use grape6_model::calib::{GrapeTiming, HostProfile};
use grape6_system::machine::MachineConfig;
use grape6_trace::{HostRates, MeasuredBlockTime, Span, Tracer};
use nbody_core::force::EngineError;

use crate::error::{FarmError, RetryAfter};
use crate::pool::BoardPool;
use crate::session::{
    Job, JobResult, Session, SessionId, SessionOutcome, SessionState, SessionStatus, TenantId,
};
use crate::stats::{FarmReport, TenantReport};

/// Everything a farm needs to be built.  Obtain one through
/// [`FarmConfig::builder`], which validates at `build()`; the fields
/// stay public for inspection.
#[derive(Clone, Debug)]
pub struct FarmConfig {
    /// Geometry of one pool unit (typically a single board).
    pub board_machine: MachineConfig,
    /// Units in the pool.
    pub boards: usize,
    /// Fault plans for the first units (rest are healthy).
    pub board_plans: Vec<Option<FaultPlan>>,
    /// Default per-tenant bound on concurrently live sessions
    /// (backpressure); a tenant's [`TenantSpec::queue_cap`] overrides it.
    pub queue_depth: usize,
    /// Farm-wide multiprogramming ceiling (admission control).
    pub max_live_sessions: usize,
    /// Blocksteps per scheduler grant.
    pub quantum: u64,
    /// Supervisor checkpoint cadence (blocksteps).
    pub ckpt_every: u64,
    /// Default grant budget per session (`None` = no deadline); a
    /// tenant's [`TenantSpec::deadline_grants`] overrides it.
    pub deadline_grants: Option<u64>,
    /// Integrator accuracy/scheduling parameters for every session.
    pub icfg: IntegratorConfig,
    /// Timing model charging checkpoints, reloads and self-tests.
    pub timing: GrapeTiming,
    /// Host profile for the per-tenant measured breakdown.
    pub host: HostProfile,
    /// Record per-tenant spans (the six-term breakdown needs this).
    pub trace: bool,
}

impl FarmConfig {
    /// Defaults around one board geometry: 2 boards, queue depth 4,
    /// ceiling 8 sessions, 8-blockstep quanta and checkpoints.
    pub fn new(board_machine: MachineConfig) -> Self {
        Self {
            board_machine,
            boards: 2,
            board_plans: Vec::new(),
            queue_depth: 4,
            max_live_sessions: 8,
            quantum: 8,
            ckpt_every: 8,
            deadline_grants: None,
            icfg: IntegratorConfig::default(),
            timing: GrapeTiming::paper_host(),
            host: HostProfile::athlon_xp_1800(),
            trace: true,
        }
    }

    /// Start building a validated config around one board geometry.
    pub fn builder(board_machine: MachineConfig) -> FarmConfigBuilder {
        FarmConfigBuilder {
            cfg: Self::new(board_machine),
        }
    }

    pub(crate) fn validate(&self) -> Result<(), FarmError> {
        for (what, bad) in [
            ("boards", self.boards == 0),
            ("quantum", self.quantum == 0),
            ("ckpt_every", self.ckpt_every == 0),
            ("queue_depth", self.queue_depth == 0),
            ("max_live_sessions", self.max_live_sessions == 0),
            ("deadline_grants", self.deadline_grants == Some(0)),
        ] {
            if bad {
                return Err(FarmError::InvalidConfig {
                    reason: format!("{what} must be nonzero"),
                });
            }
        }
        if self.board_plans.len() > self.boards {
            return Err(FarmError::InvalidConfig {
                reason: format!(
                    "{} board plans for {} boards",
                    self.board_plans.len(),
                    self.boards
                ),
            });
        }
        Ok(())
    }
}

/// Builder for [`FarmConfig`]: override what you need, then
/// [`build`](Self::build) to validate (typed
/// [`FarmError::InvalidConfig`] instead of a panic or a silently broken
/// farm), mirroring `MachineConfig::builder()`.
#[derive(Clone, Debug)]
pub struct FarmConfigBuilder {
    cfg: FarmConfig,
}

impl FarmConfigBuilder {
    /// Units in the pool.
    pub fn boards(mut self, boards: usize) -> Self {
        self.cfg.boards = boards;
        self
    }

    /// Fault plans for the first units (rest are healthy).
    pub fn board_plans(mut self, plans: Vec<Option<FaultPlan>>) -> Self {
        self.cfg.board_plans = plans;
        self
    }

    /// Default per-tenant bound on concurrently live sessions.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.cfg.queue_depth = depth;
        self
    }

    /// Farm-wide multiprogramming ceiling.
    pub fn max_live_sessions(mut self, ceiling: usize) -> Self {
        self.cfg.max_live_sessions = ceiling;
        self
    }

    /// Blocksteps per scheduler grant.
    pub fn quantum(mut self, quantum: u64) -> Self {
        self.cfg.quantum = quantum;
        self
    }

    /// Supervisor checkpoint cadence (blocksteps).
    pub fn ckpt_every(mut self, every: u64) -> Self {
        self.cfg.ckpt_every = every;
        self
    }

    /// Default grant budget per session (`None` = no deadline).
    pub fn deadline_grants(mut self, deadline: Option<u64>) -> Self {
        self.cfg.deadline_grants = deadline;
        self
    }

    /// Integrator accuracy/scheduling parameters for every session.
    pub fn icfg(mut self, icfg: IntegratorConfig) -> Self {
        self.cfg.icfg = icfg;
        self
    }

    /// Timing model charging checkpoints, reloads and self-tests.
    pub fn timing(mut self, timing: GrapeTiming) -> Self {
        self.cfg.timing = timing;
        self
    }

    /// Host profile for the per-tenant measured breakdown.
    pub fn host(mut self, host: HostProfile) -> Self {
        self.cfg.host = host;
        self
    }

    /// Record per-tenant spans (the six-term breakdown needs this).
    pub fn trace(mut self, trace: bool) -> Self {
        self.cfg.trace = trace;
        self
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<FarmConfig, FarmError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// What a tenant registers with: a scheduler weight plus optional
/// per-tenant overrides of the farm defaults.  Validated by
/// [`Farm::register`] (typed [`FarmError::InvalidConfig`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TenantSpec {
    /// Deficit-WRR scheduler weight (must be nonzero).
    pub weight: u32,
    /// Per-tenant bound on concurrently live sessions; `None` uses the
    /// farm's `queue_depth`.
    pub queue_cap: Option<usize>,
    /// Per-session grant budget; `None` uses the farm's
    /// `deadline_grants`.
    pub deadline_grants: Option<u64>,
}

impl TenantSpec {
    /// A spec with the given weight and farm-default queue/deadline.
    pub fn new(weight: u32) -> Self {
        Self {
            weight,
            queue_cap: None,
            deadline_grants: None,
        }
    }

    /// Override the per-tenant live-session bound.
    pub fn queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = Some(cap);
        self
    }

    /// Override the per-session grant budget.
    pub fn deadline_grants(mut self, deadline: u64) -> Self {
        self.deadline_grants = Some(deadline);
        self
    }

    pub(crate) fn validate(&self) -> Result<(), FarmError> {
        if self.weight == 0 {
            return Err(FarmError::InvalidConfig {
                reason: "tenant weight must be nonzero".into(),
            });
        }
        if self.queue_cap == Some(0) {
            return Err(FarmError::InvalidConfig {
                reason: "tenant queue_cap must be nonzero".into(),
            });
        }
        if self.deadline_grants == Some(0) {
            return Err(FarmError::InvalidConfig {
                reason: "tenant deadline_grants must be nonzero".into(),
            });
        }
        Ok(())
    }
}

/// Scheduler-side tenant bookkeeping.
struct Tenant {
    spec: TenantSpec,
    /// Deficit-WRR credit (grants owed this round).
    credit: u32,
    /// Round-robin rotation of this tenant's live sessions.
    rotation: VecDeque<SessionId>,
    /// Next per-tenant session index.
    next_index: u32,
}

/// How one grant ended.
enum GrantEnd {
    /// Reached `t_end`.
    Finished,
    /// Quantum used up; session stays resident.
    Quantum,
    /// Retries exhausted: the board is suspect.
    BoardFault(String),
}

/// Why a session could not be activated on a particular board.
enum ActivationError {
    /// The board is at fault (self-test capacity loss, hardware fault):
    /// retire it and try the next one.
    BoardUnusable(String),
    /// The session itself is broken; no board will help.
    SessionBroken(String),
}

fn classify_engine_error(e: &EngineError) -> ActivationError {
    match e {
        EngineError::InsufficientCapacity { .. } | EngineError::HardwareFault { .. } => {
            ActivationError::BoardUnusable(e.to_string())
        }
        other => ActivationError::SessionBroken(other.to_string()),
    }
}

/// The multi-tenant farm service.  See the module docs for the model.
pub struct Farm {
    cfg: FarmConfig,
    pool: BoardPool,
    tenants: BTreeMap<TenantId, Tenant>,
    sessions: BTreeMap<SessionId, Session>,
    report: FarmReport,
    /// Global grant sequence (LRU eviction key).
    grant_seq: u64,
    next_tenant: TenantId,
    /// Tenant-tagged span log (`Span::track` = tenant id).
    spans: Vec<Span>,
}

impl Farm {
    /// Open a farm over a validated config.  Fails with
    /// [`FarmError::InvalidConfig`] on unusable parameters (zero boards,
    /// zero quantum, zero queue depth…) — configs from
    /// [`FarmConfig::builder`] have already passed these checks.
    pub fn open(cfg: FarmConfig) -> Result<Self, FarmError> {
        cfg.validate()?;
        let pool = BoardPool::new(cfg.board_machine, cfg.boards, cfg.board_plans.clone());
        Ok(Self {
            cfg,
            pool,
            tenants: BTreeMap::new(),
            sessions: BTreeMap::new(),
            report: FarmReport::default(),
            grant_seq: 0,
            next_tenant: 0,
            spans: Vec::new(),
        })
    }

    /// Register a tenant from a validated spec.  Returns the id used in
    /// [`submit`](Self::submit).
    pub fn register(&mut self, spec: TenantSpec) -> Result<TenantId, FarmError> {
        spec.validate()?;
        let id = self.next_tenant;
        self.next_tenant += 1;
        self.tenants.insert(
            id,
            Tenant {
                spec,
                credit: 0,
                rotation: VecDeque::new(),
                next_index: 0,
            },
        );
        self.report.tenants.insert(
            id,
            TenantReport {
                weight: spec.weight,
                ..TenantReport::default()
            },
        );
        Ok(id)
    }

    /// The configuration this farm was opened with.
    pub fn config(&self) -> &FarmConfig {
        &self.cfg
    }

    /// The board pool (inspection).
    pub fn pool(&self) -> &BoardPool {
        &self.pool
    }

    /// Farm-wide counters so far.
    pub fn stats(&self) -> &crate::stats::FarmStats {
        &self.report.stats
    }

    /// Per-tenant accounting so far.
    pub fn tenant_report(&self, tenant: TenantId) -> Option<&TenantReport> {
        self.report.tenants.get(&tenant)
    }

    /// Tenant-tagged spans recorded so far (`Span::track` = tenant id).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Sessions the scheduler still owes work: live and not detached.
    /// (Detached sessions hold only a checkpoint; their board is
    /// reclaimed and they do not count against the admission ceiling.)
    pub fn live_sessions(&self) -> usize {
        self.sessions
            .values()
            .filter(|s| s.state.is_live() && !s.detached)
            .count()
    }

    /// A point-in-time snapshot of one session, `None` if unknown.
    pub fn session_status(&self, sid: SessionId) -> Option<SessionStatus> {
        self.sessions.get(&sid).map(|s| SessionStatus {
            session: sid,
            phase: s.phase(),
            blocksteps: s.blocksteps,
            resumes: s.resumes,
        })
    }

    /// Offer a job.  Checks run in order: tenant known → job fits one
    /// board ([`FarmError::JobTooLarge`]) → per-tenant queue cap
    /// ([`FarmError::QueueFull`]) → farm-wide ceiling
    /// ([`FarmError::Saturated`] with a blockstep-denominated
    /// [`RetryAfter`]).  Shape validity is the [`Job`] builder's job —
    /// a `Job` value that exists has already passed those checks.  An
    /// accepted job becomes a queued session awaiting its first grant.
    pub fn submit(&mut self, tenant: TenantId, job: Job) -> Result<SessionId, FarmError> {
        self.report.stats.submitted += 1;
        let Some(spec) = self.tenants.get(&tenant).map(|t| t.spec) else {
            self.report.stats.rejected_invalid += 1;
            return Err(FarmError::UnknownTenant(tenant));
        };
        let n = job.set.n();
        let capacity = self.pool.unit_capacity();
        if n > capacity {
            self.report.stats.rejected_invalid += 1;
            return Err(FarmError::JobTooLarge { n, capacity });
        }
        let depth = spec.queue_cap.unwrap_or(self.cfg.queue_depth);
        let tenant_live = self
            .sessions
            .values()
            .filter(|s| s.id.tenant == tenant && s.state.is_live() && !s.detached)
            .count();
        if tenant_live >= depth {
            self.report.stats.rejected_queue_full += 1;
            return Err(FarmError::QueueFull { tenant, depth });
        }
        let live = self.live_sessions();
        if live >= self.cfg.max_live_sessions {
            self.report.stats.rejected_saturated += 1;
            // Load-derived and deterministic: each excess session ahead
            // of this one still has to burn roughly a quantum of
            // scheduler progress before a slot frees up.  Blockstep-
            // denominated — only something that observes wall time (the
            // wire server) may convert it to milliseconds.
            let excess = (live + 1 - self.cfg.max_live_sessions) as u64;
            return Err(FarmError::Saturated {
                retry_after: RetryAfter::Blocksteps(excess * self.cfg.quantum),
            });
        }
        let deadline = spec.deadline_grants.or(self.cfg.deadline_grants);
        let t = self.tenants.get_mut(&tenant).expect("checked above");
        let index = t.next_index;
        t.next_index += 1;
        let sid = SessionId { tenant, index };
        t.rotation.push_back(sid);
        self.sessions.insert(
            sid,
            Session {
                id: sid,
                t_end: job.t_end,
                label: job.label,
                n,
                state: SessionState::Queued {
                    set: Box::new(job.set),
                },
                grants_used: 0,
                blocksteps: 0,
                last_grant_seq: 0,
                resumes: 0,
                deadline_grants: deadline,
                detached: false,
            },
        );
        self.report.stats.admitted += 1;
        Ok(sid)
    }

    /// Take a finished session's result: its final particles plus a
    /// snapshot of the owning tenant's accounting.  The same typed
    /// [`JobResult`] the wire client returns.
    ///
    /// * `Done` → `Ok(JobResult)`; the outcome is consumed, so a second
    ///   call returns [`FarmError::UnknownSession`];
    /// * `Failed` → [`FarmError::JobFailed`] with the reason (retained,
    ///   so repeated calls answer the same);
    /// * still live → [`FarmError::NotReady`];
    /// * never admitted → [`FarmError::UnknownSession`].
    pub fn take_result(&mut self, sid: SessionId) -> Result<JobResult, FarmError> {
        let Some(sess) = self.sessions.get(&sid) else {
            return Err(FarmError::UnknownSession(sid));
        };
        if sess.state.is_live() {
            return Err(FarmError::NotReady { session: sid });
        }
        match self.report.outcomes.get(&sid) {
            Some(SessionOutcome::Failed { reason }) => Err(FarmError::JobFailed {
                session: sid,
                reason: reason.clone(),
            }),
            Some(SessionOutcome::Completed { .. }) => {
                let Some(SessionOutcome::Completed { particles, .. }) =
                    self.report.outcomes.remove(&sid)
                else {
                    unreachable!("matched Completed above");
                };
                let report = self
                    .report
                    .tenants
                    .get(&sid.tenant)
                    .cloned()
                    .unwrap_or_default();
                Ok(JobResult {
                    session: sid,
                    particles: *particles,
                    report,
                })
            }
            // Terminal session with no outcome: the result was already
            // taken.
            None => Err(FarmError::UnknownSession(sid)),
        }
    }

    /// Detach a session whose client vanished: checkpoint-evict it if
    /// resident (the PR 6 park path — its board is reclaimed
    /// immediately), keep the checkpoint, and stop scheduling it.  The
    /// session stops counting against queues and the admission ceiling.
    /// Idempotent; terminal sessions are left as they are.
    pub fn detach(&mut self, sid: SessionId) -> Result<SessionStatus, FarmError> {
        let Some(sess) = self.sessions.get(&sid) else {
            return Err(FarmError::UnknownSession(sid));
        };
        if sess.state.is_live() && !sess.detached {
            if matches!(sess.state, SessionState::Resident { .. }) {
                self.park(sid);
            }
            let sess = self.sessions.get_mut(&sid).expect("session exists");
            sess.detached = true;
            self.report.stats.detached += 1;
        }
        Ok(self.session_status(sid).expect("session exists"))
    }

    /// Cancel a session: a live one (detached included) is finished as
    /// `Failed` with a "cancelled" reason and its board freed; a
    /// terminal one is left as it is.  Idempotent.
    pub fn cancel(&mut self, sid: SessionId) -> Result<SessionStatus, FarmError> {
        let Some(sess) = self.sessions.get(&sid) else {
            return Err(FarmError::UnknownSession(sid));
        };
        if sess.state.is_live() {
            self.finish_failed(sid, "cancelled by client".into());
            self.report.stats.cancelled += 1;
        }
        Ok(self.session_status(sid).expect("session exists"))
    }

    /// Drive every schedulable session to a terminal state and return a
    /// snapshot of the report.  Detached sessions are left parked on
    /// their checkpoints.  Outcomes stay claimable through
    /// [`take_result`](Self::take_result) afterwards.  Fails only on a
    /// scheduler deadlock ([`FarmError::Stalled`]) — board failures and
    /// deadline kills are *outcomes*, not errors.
    pub fn run(&mut self) -> Result<FarmReport, FarmError> {
        while self.live_sessions() > 0 {
            let grants = self.round()?;
            if grants == 0 && self.live_sessions() > 0 {
                return Err(FarmError::Stalled {
                    round: self.report.stats.rounds,
                });
            }
        }
        Ok(self.report.clone())
    }

    /// One deficit-WRR scheduler round: every tenant accrues `weight`
    /// credits and spends them on quanta for its live sessions, round
    /// robin.  Returns the number of quanta granted.  Public so a
    /// service loop can interleave [`submit`](Self::submit) with
    /// scheduling instead of batching everything through
    /// [`run`](Self::run).
    pub fn round(&mut self) -> Result<usize, FarmError> {
        self.report.stats.rounds += 1;
        let mut grants = 0usize;
        let tids: Vec<TenantId> = self.tenants.keys().copied().collect();
        for tid in tids {
            {
                let t = self.tenants.get_mut(&tid).expect("registered");
                t.credit += t.spec.weight;
            }
            loop {
                let t = self.tenants.get_mut(&tid).expect("registered");
                if t.credit == 0 {
                    break;
                }
                let Some(sid) = pick_live(t, &self.sessions) else {
                    // Nothing runnable: credit does not bank while idle.
                    t.credit = 0;
                    break;
                };
                t.credit -= 1;
                match self.ensure_resident(sid) {
                    Ok(true) => {
                        self.grant(sid);
                        grants += 1;
                    }
                    Ok(false) => {} // session failed during activation
                    Err(FarmError::PoolExhausted) => {
                        self.fail_all_live("board pool exhausted");
                        return Ok(grants);
                    }
                    Err(e) => return Err(e),
                }
                if self
                    .sessions
                    .get(&sid)
                    .is_some_and(|s| s.state.is_live() && !s.detached)
                {
                    self.tenants
                        .get_mut(&tid)
                        .expect("registered")
                        .rotation
                        .push_back(sid);
                }
            }
        }
        Ok(grants)
    }

    /// Make `sid` resident, evicting the least-recently-granted resident
    /// session if no board is free and retiring boards that fail
    /// activation.  `Ok(false)` means the session itself died trying.
    fn ensure_resident(&mut self, sid: SessionId) -> Result<bool, FarmError> {
        if matches!(
            self.sessions.get(&sid).map(|s| &s.state),
            Some(SessionState::Resident { .. })
        ) {
            return Ok(true);
        }
        loop {
            let slot = match self.pool.free_slot() {
                Some(i) => i,
                None => {
                    if self.pool.in_service() == 0 {
                        return Err(FarmError::PoolExhausted);
                    }
                    match self.evict_lru(sid) {
                        Some(i) => i,
                        None => return Err(FarmError::PoolExhausted),
                    }
                }
            };
            match self.activate_on(sid, slot) {
                Ok(masked) => {
                    self.pool.note_masked(slot, masked);
                    self.pool.occupy(slot, sid);
                    return Ok(true);
                }
                Err(ActivationError::BoardUnusable(detail)) => {
                    // Fault-aware rotation: the board flunked its
                    // known-answer self-test (or lost too much capacity);
                    // pull it and try the next one.
                    self.pool.retire(slot, detail);
                    self.report.stats.board_rotations += 1;
                }
                Err(ActivationError::SessionBroken(detail)) => {
                    self.finish_failed(sid, detail);
                    return Ok(false);
                }
            }
        }
    }

    /// Build (or restore) `sid`'s supervised integrator on pool `slot`.
    /// Returns the number of units the activation self-test masked.
    fn activate_on(&mut self, sid: SessionId, slot: usize) -> Result<usize, ActivationError> {
        let plan = self.pool.slots()[slot].plan.clone();
        let machine = *self.pool.machine();
        let icfg = self.cfg.icfg;
        let sess = self.sessions.get_mut(&sid).expect("session exists");
        let state = std::mem::replace(&mut sess.state, SessionState::Moving);
        let (it, resumed) = match state {
            SessionState::Queued { set } => {
                let engine = match &plan {
                    Some(p) => Grape6Engine::with_fault_plan(&machine, sess.n, p),
                    None => Grape6Engine::try_new(&machine, sess.n),
                };
                match engine.and_then(|e| HermiteIntegrator::try_new(e, (*set).clone(), icfg)) {
                    Ok(it) => (it, false),
                    Err(e) => {
                        sess.state = SessionState::Queued { set };
                        return Err(classify_engine_error(&e));
                    }
                }
            }
            SessionState::Parked { ckpt } => {
                match restore_migrate(&machine, plan.as_ref(), icfg, &ckpt) {
                    Ok(it) => (it, true),
                    Err(e) => {
                        sess.state = SessionState::Parked { ckpt };
                        return Err(match &e {
                            grape6_core::RestoreError::Engine(ee) => classify_engine_error(ee),
                            grape6_core::RestoreError::Mismatch(m) => {
                                ActivationError::SessionBroken(m.clone())
                            }
                        });
                    }
                }
            }
            other => {
                sess.state = other;
                return Err(ActivationError::SessionBroken(
                    "activation from a non-activatable state".into(),
                ));
            }
        };
        let mut it = it;
        let masked = it.engine().self_test_report().map_or(0, |r| r.masked.len());
        it.engine_mut()
            .set_timebase(self.cfg.timing.engine_timebase());
        if self.cfg.trace {
            it.engine_mut().set_tracer(Tracer::enabled());
            it.set_tracer(Tracer::enabled());
            it.set_host_rates(HostRates {
                t_block_fixed: self.cfg.host.t_block_fixed,
                t_step: self.cfg.host.t_step(sess.n as f64),
            });
        }
        let mut scfg = SupervisorConfig::for_machine(machine);
        scfg.policy = CheckpointPolicy {
            every_blocksteps: Some(self.cfg.ckpt_every),
            every_virtual_seconds: None,
        };
        scfg.plan = plan;
        scfg.timing = self.cfg.timing;
        scfg.label = format!("farm {} {}", sid, sess.label);
        let sup = RunSupervisor::new(it, scfg);
        sess.state = SessionState::Resident {
            sup: Box::new(sup),
            board: slot,
        };
        if resumed {
            sess.resumes += 1;
            self.report.stats.resumes += 1;
        }
        Ok(masked)
    }

    /// Checkpoint-evict the least-recently-granted resident session
    /// other than `protect`; returns the freed slot.
    fn evict_lru(&mut self, protect: SessionId) -> Option<usize> {
        let victim = self
            .sessions
            .values()
            .filter(|s| s.id != protect && matches!(s.state, SessionState::Resident { .. }))
            .min_by_key(|s| (s.last_grant_seq, s.id))?
            .id;
        Some(self.park(victim))
    }

    /// Resident → Parked: checkpoint (cost charged in virtual time by
    /// the supervisor), drop the engine, free the board.
    fn park(&mut self, sid: SessionId) -> usize {
        let sess = self.sessions.get_mut(&sid).expect("session exists");
        let state = std::mem::replace(&mut sess.state, SessionState::Moving);
        let SessionState::Resident { mut sup, board } = state else {
            unreachable!("park() called on a non-resident session");
        };
        let ckpt = sup.checkpoint_now().clone();
        let spans = sup.integrator_mut().take_spans();
        sess.state = SessionState::Parked {
            ckpt: Box::new(ckpt),
        };
        self.pool.release(board);
        self.report.stats.evictions += 1;
        self.fold_spans(sid.tenant, spans);
        board
    }

    /// One scheduler grant: up to `quantum` supervised blocksteps.
    /// Handles completion, deadline kill, and board rotation.
    fn grant(&mut self, sid: SessionId) {
        self.grant_seq += 1;
        self.report.stats.grants += 1;
        let quantum = self.cfg.quantum;

        let sess = self.sessions.get_mut(&sid).expect("session exists");
        sess.grants_used += 1;
        sess.last_grant_seq = self.grant_seq;
        if let Some(d) = sess.deadline_grants {
            if sess.grants_used > d {
                self.report.stats.deadline_failures += 1;
                self.finish_failed(sid, format!("deadline exceeded after {d} grants"));
                return;
            }
        }
        let t_end = sess.t_end;
        let SessionState::Resident { ref mut sup, .. } = sess.state else {
            unreachable!("grant() called on a non-resident session");
        };

        let mut steps = 0u64;
        let end = loop {
            if steps >= quantum {
                break GrantEnd::Quantum;
            }
            if sup.integrator().time() >= t_end {
                break GrantEnd::Finished;
            }
            match sup.step() {
                Ok(_) => steps += 1,
                Err(e) => break GrantEnd::BoardFault(e.to_string()),
            }
        };
        sess.blocksteps += steps;
        {
            let tr = self
                .report
                .tenants
                .get_mut(&sid.tenant)
                .expect("tenant registered");
            tr.grants += 1;
            tr.blocksteps += steps;
        }
        let spans = sup.integrator_mut().take_spans();
        self.fold_spans(sid.tenant, spans);
        match end {
            GrantEnd::Quantum => {}
            GrantEnd::Finished => self.finish_completed(sid),
            GrantEnd::BoardFault(detail) => {
                // The supervisor's whole ladder failed on this board: park the session at its last good checkpoint and
                // pull the board from rotation.  The session resumes on
                // another board at its next grant.
                let sess = self.sessions.get_mut(&sid).expect("session exists");
                let state = std::mem::replace(&mut sess.state, SessionState::Moving);
                let SessionState::Resident { sup, board } = state else {
                    unreachable!("board fault on a non-resident session");
                };
                let ckpt = sup
                    .last_checkpoint()
                    .cloned()
                    .expect("supervisor always holds a baseline checkpoint");
                sess.state = SessionState::Parked {
                    ckpt: Box::new(ckpt),
                };
                self.pool.retire(board, detail);
                self.report.stats.board_rotations += 1;
            }
        }
    }

    /// Resident → Done: record the outcome, free the board.
    fn finish_completed(&mut self, sid: SessionId) {
        let sess = self.sessions.get_mut(&sid).expect("session exists");
        let state = std::mem::replace(&mut sess.state, SessionState::Done);
        let SessionState::Resident { mut sup, board } = state else {
            unreachable!("finish_completed() on a non-resident session");
        };
        let spans = sup.integrator_mut().take_spans();
        let particles = sup.integrator().particles().clone();
        let stats = sup.integrator().stats().clone();
        self.pool.release(board);
        self.report.stats.completed += 1;
        {
            let tr = self
                .report
                .tenants
                .get_mut(&sid.tenant)
                .expect("tenant registered");
            tr.completed += 1;
            tr.absorb_recovery(&stats.recovery);
        }
        self.report.outcomes.insert(
            sid,
            SessionOutcome::Completed {
                particles: Box::new(particles),
                stats: Box::new(stats),
            },
        );
        self.fold_spans(sid.tenant, spans);
    }

    /// Any live state → Failed: record the reason, free the board.
    fn finish_failed(&mut self, sid: SessionId, reason: String) {
        let sess = self.sessions.get_mut(&sid).expect("session exists");
        let state = std::mem::replace(&mut sess.state, SessionState::Failed);
        let mut spans = Vec::new();
        if let SessionState::Resident { mut sup, board } = state {
            spans = sup.integrator_mut().take_spans();
            let recovery = sup.integrator().stats().recovery;
            self.report
                .tenants
                .get_mut(&sid.tenant)
                .expect("tenant registered")
                .absorb_recovery(&recovery);
            self.pool.release(board);
        }
        self.report.stats.failed += 1;
        self.report
            .tenants
            .get_mut(&sid.tenant)
            .expect("tenant registered")
            .failed += 1;
        self.report
            .outcomes
            .insert(sid, SessionOutcome::Failed { reason });
        self.fold_spans(sid.tenant, spans);
    }

    fn fail_all_live(&mut self, reason: &str) {
        let live: Vec<SessionId> = self
            .sessions
            .values()
            .filter(|s| s.state.is_live())
            .map(|s| s.id)
            .collect();
        for sid in live {
            self.finish_failed(sid, reason.to_string());
        }
    }

    /// Retag a grant's spans with the tenant id and fold them into the
    /// tenant's six-term measured breakdown.
    fn fold_spans(&mut self, tenant: TenantId, mut spans: Vec<Span>) {
        if spans.is_empty() {
            return;
        }
        for s in &mut spans {
            s.track = tenant;
        }
        let mbt = MeasuredBlockTime::from_spans(&spans);
        self.report
            .tenants
            .get_mut(&tenant)
            .expect("tenant registered")
            .breakdown
            .add(&mbt);
        self.spans.extend(spans);
    }
}

/// Pop the next schedulable session from the tenant's rotation,
/// discarding finished and detached ones.
fn pick_live(t: &mut Tenant, sessions: &BTreeMap<SessionId, Session>) -> Option<SessionId> {
    while let Some(sid) = t.rotation.pop_front() {
        if sessions
            .get(&sid)
            .is_some_and(|s| s.state.is_live() && !s.detached)
        {
            return Some(sid);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_core::ic::plummer::plummer_model;
    use nbody_core::particle::ParticleSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One-board unit: 2 modules × 2 chips × 16 j-slots = 64 slots; a
    /// dead module costs 32 of them.
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
            .label(format!("test seed {seed}"))
            .build()
            .unwrap()
    }

    fn bits_equal(a: &ParticleSet, b: &ParticleSet) -> bool {
        a.n() == b.n()
            && a.pos == b.pos
            && a.vel == b.vel
            && a.acc == b.acc
            && a.jerk == b.jerk
            && (0..a.n()).all(|i| a.t[i].to_bits() == b.t[i].to_bits())
            && (0..a.n()).all(|i| a.dt[i].to_bits() == b.dt[i].to_bits())
    }

    /// The reference every farm outcome must match bitwise: the same
    /// job on a dedicated healthy board, uninterrupted.
    fn dedicated(n: usize, seed: u64, t_end: f64) -> ParticleSet {
        let engine = Grape6Engine::try_new(&unit(), n).unwrap();
        let mut it = HermiteIntegrator::new(engine, ic(n, seed), IntegratorConfig::default());
        it.run_until(t_end);
        it.particles().clone()
    }

    #[test]
    fn config_builder_rejects_unusable_parameters() {
        for (what, b) in [
            ("boards", FarmConfig::builder(unit()).boards(0)),
            ("quantum", FarmConfig::builder(unit()).quantum(0)),
            ("queue_depth", FarmConfig::builder(unit()).queue_depth(0)),
            (
                "max_live_sessions",
                FarmConfig::builder(unit()).max_live_sessions(0),
            ),
            (
                "deadline_grants",
                FarmConfig::builder(unit()).deadline_grants(Some(0)),
            ),
        ] {
            match b.build() {
                Err(FarmError::InvalidConfig { reason }) => {
                    assert!(reason.contains(what), "{what}: {reason}")
                }
                other => panic!("{what}: expected InvalidConfig, got {other:?}"),
            }
        }
        let ok = FarmConfig::builder(unit())
            .boards(3)
            .quantum(4)
            .build()
            .unwrap();
        assert_eq!((ok.boards, ok.quantum), (3, 4));
    }

    #[test]
    fn tenant_spec_validation_is_typed() {
        let cfg = FarmConfig::builder(unit()).build().unwrap();
        let mut farm = Farm::open(cfg).unwrap();
        for spec in [
            TenantSpec::new(0),
            TenantSpec::new(1).queue_cap(0),
            TenantSpec {
                weight: 1,
                queue_cap: None,
                deadline_grants: Some(0),
            },
        ] {
            match farm.register(spec) {
                Err(FarmError::InvalidConfig { .. }) => {}
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }
        let t = farm
            .register(TenantSpec::new(2).queue_cap(1).deadline_grants(64))
            .unwrap();
        assert_eq!(farm.tenant_report(t).unwrap().weight, 2);
    }

    #[test]
    fn job_builder_validates_at_construction() {
        let mut lonely = ParticleSet::with_capacity(1);
        lonely.push(1.0, [0.0; 3].into(), [0.0; 3].into());
        match Job::builder(lonely).t_end(0.125).build() {
            Err(FarmError::InvalidJob { reason }) => assert!(reason.contains("2 particles")),
            other => panic!("expected InvalidJob, got {other:?}"),
        }
        match Job::builder(ic(8, 1)).t_end(-1.0).build() {
            Err(FarmError::InvalidJob { reason }) => assert!(reason.contains("t_end")),
            other => panic!("expected InvalidJob, got {other:?}"),
        }
        match Job::builder(ic(8, 1)).build() {
            Err(FarmError::InvalidJob { .. }) => {} // t_end never set
            other => panic!("expected InvalidJob, got {other:?}"),
        }
        let j = job(8, 1, 0.125);
        assert_eq!((j.n(), j.t_end()), (8, 0.125));
        assert_eq!(j.label(), "test seed 1");
    }

    #[test]
    fn admission_typed_rejections() {
        let cfg = FarmConfig::builder(unit())
            .max_live_sessions(2)
            .queue_depth(1)
            .build()
            .unwrap();
        let mut farm = Farm::open(cfg).unwrap();
        let t0 = farm.register(TenantSpec::new(1)).unwrap();
        let t1 = farm.register(TenantSpec::new(1)).unwrap();
        let t2 = farm.register(TenantSpec::new(1)).unwrap();

        assert!(farm.submit(t0, job(8, 1, 0.125)).is_ok());
        // Per-tenant queue bound fires before the global ceiling.
        match farm.submit(t0, job(8, 2, 0.125)) {
            Err(FarmError::QueueFull { tenant, depth }) => {
                assert_eq!((tenant, depth), (t0, 1));
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
        assert!(farm.submit(t1, job(8, 3, 0.125)).is_ok());
        // Farm-wide ceiling with a positive, blockstep-denominated hint.
        match farm.submit(t2, job(8, 4, 0.125)) {
            Err(FarmError::Saturated { retry_after }) => {
                assert!(retry_after.is_positive());
                assert!(retry_after.blocksteps().is_some());
            }
            other => panic!("expected Saturated, got {other:?}"),
        }
        match farm.submit(t2, job(128, 6, 0.125)) {
            Err(FarmError::JobTooLarge { n, capacity }) => {
                assert_eq!((n, capacity), (128, 64));
            }
            other => panic!("expected JobTooLarge, got {other:?}"),
        }
        match farm.submit(99, job(8, 7, 0.125)) {
            Err(FarmError::UnknownTenant(99)) => {}
            other => panic!("expected UnknownTenant, got {other:?}"),
        }
        let stats = farm.stats();
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.rejected_queue_full, 1);
        assert_eq!(stats.rejected_saturated, 1);
        // Malformed jobs never reach submit any more (Job::builder
        // catches them), so only UnknownTenant and JobTooLarge count.
        assert_eq!(stats.rejected_invalid, 2);
    }

    #[test]
    fn per_tenant_queue_cap_overrides_farm_default() {
        let cfg = FarmConfig::builder(unit())
            .queue_depth(4)
            .max_live_sessions(8)
            .build()
            .unwrap();
        let mut farm = Farm::open(cfg).unwrap();
        let narrow = farm.register(TenantSpec::new(1).queue_cap(1)).unwrap();
        assert!(farm.submit(narrow, job(8, 1, 0.125)).is_ok());
        match farm.submit(narrow, job(8, 2, 0.125)) {
            Err(FarmError::QueueFull { depth, .. }) => assert_eq!(depth, 1),
            other => panic!("expected QueueFull at the tenant cap, got {other:?}"),
        }
    }

    #[test]
    fn single_session_matches_dedicated_run() {
        let cfg = FarmConfig::builder(unit()).boards(1).build().unwrap();
        let mut farm = Farm::open(cfg).unwrap();
        let t0 = farm.register(TenantSpec::new(1)).unwrap();
        let sid = farm.submit(t0, job(16, 42, 0.25)).unwrap();
        let report = farm.run().unwrap();
        assert!(report.all_completed());
        let res = farm.take_result(sid).unwrap();
        assert_eq!(res.session, sid);
        assert!(res.report.completed >= 1);
        assert!(bits_equal(&res.particles, &dedicated(16, 42, 0.25)));
        // The result is consumed: a second take is UnknownSession.
        match farm.take_result(sid) {
            Err(FarmError::UnknownSession(s)) => assert_eq!(s, sid),
            other => panic!("expected UnknownSession on re-take, got {other:?}"),
        }
    }

    #[test]
    fn take_result_is_typed_for_every_lifecycle_stage() {
        let cfg = FarmConfig::builder(unit()).boards(1).build().unwrap();
        let mut farm = Farm::open(cfg).unwrap();
        let t0 = farm.register(TenantSpec::new(1)).unwrap();
        let ghost = SessionId {
            tenant: t0,
            index: 99,
        };
        match farm.take_result(ghost) {
            Err(FarmError::UnknownSession(s)) => assert_eq!(s, ghost),
            other => panic!("expected UnknownSession, got {other:?}"),
        }
        let sid = farm.submit(t0, job(16, 5, 0.25)).unwrap();
        match farm.take_result(sid) {
            Err(FarmError::NotReady { session }) => assert_eq!(session, sid),
            other => panic!("expected NotReady while queued, got {other:?}"),
        }
        farm.run().unwrap();
        assert!(farm.take_result(sid).is_ok());
    }

    #[test]
    fn cancel_finishes_a_live_session_and_is_idempotent() {
        let cfg = FarmConfig::builder(unit()).boards(1).build().unwrap();
        let mut farm = Farm::open(cfg).unwrap();
        let t0 = farm.register(TenantSpec::new(1)).unwrap();
        let sid = farm.submit(t0, job(16, 13, 4.0)).unwrap();
        farm.round().unwrap();
        let st = farm.cancel(sid).unwrap();
        assert_eq!(st.phase, crate::session::SessionPhase::Failed);
        assert_eq!(farm.stats().cancelled, 1);
        assert_eq!(farm.live_sessions(), 0);
        // Idempotent: a second cancel neither errors nor double-counts.
        let st = farm.cancel(sid).unwrap();
        assert_eq!(st.phase, crate::session::SessionPhase::Failed);
        assert_eq!(farm.stats().cancelled, 1);
        match farm.take_result(sid) {
            Err(FarmError::JobFailed { reason, .. }) => assert!(reason.contains("cancelled")),
            other => panic!("expected JobFailed after cancel, got {other:?}"),
        }
    }

    #[test]
    fn detach_reclaims_the_board_and_stops_scheduling() {
        // Two boards, two resident sessions.  Detach the first: its
        // board frees immediately (checkpoint-eviction), the second
        // completes bitwise, and run() terminates with the detached
        // session still parked on its checkpoint.
        let cfg = FarmConfig::builder(unit())
            .boards(2)
            .quantum(4)
            .ckpt_every(4)
            .build()
            .unwrap();
        let mut farm = Farm::open(cfg).unwrap();
        let t0 = farm.register(TenantSpec::new(1)).unwrap();
        let t1 = farm.register(TenantSpec::new(1)).unwrap();
        let victim = farm.submit(t0, job(16, 31, 4.0)).unwrap();
        let survivor = farm.submit(t1, job(12, 32, 0.125)).unwrap();
        farm.round().unwrap();
        let st = farm.detach(victim).unwrap();
        assert_eq!(st.phase, crate::session::SessionPhase::Detached);
        assert_eq!(farm.stats().detached, 1);
        assert!(
            farm.pool().free_slot().is_some(),
            "board reclaimed on detach"
        );
        assert_eq!(farm.live_sessions(), 1, "detached does not count");
        let report = farm.run().unwrap();
        assert_eq!(report.stats.completed, 1);
        let got = farm.take_result(survivor).unwrap();
        assert!(bits_equal(&got.particles, &dedicated(12, 32, 0.125)));
        // The victim is parked, not lost, and a later cancel reaps it.
        assert_eq!(
            farm.session_status(victim).unwrap().phase,
            crate::session::SessionPhase::Detached
        );
        farm.cancel(victim).unwrap();
        assert!(matches!(
            farm.take_result(victim),
            Err(FarmError::JobFailed { .. })
        ));
    }

    #[test]
    fn eviction_and_resume_stay_bitwise_identical() {
        // Three sessions share ONE board: every grant for a non-resident
        // session evicts the current occupant.
        let cfg = FarmConfig::builder(unit())
            .boards(1)
            .quantum(4)
            .ckpt_every(4)
            .build()
            .unwrap();
        let mut farm = Farm::open(cfg).unwrap();
        let tenants: Vec<TenantId> = (0..3)
            .map(|_| farm.register(TenantSpec::new(1)).unwrap())
            .collect();
        let mut sids = Vec::new();
        for (k, &t) in tenants.iter().enumerate() {
            sids.push((k, farm.submit(t, job(12, 100 + k as u64, 0.125)).unwrap()));
        }
        let report = farm.run().unwrap();
        assert!(report.all_completed(), "failed: {:?}", report.stats);
        assert!(report.stats.evictions >= 2, "stats: {:?}", report.stats);
        assert!(report.stats.resumes >= 2, "stats: {:?}", report.stats);
        for (k, sid) in sids {
            let got = farm.take_result(sid).unwrap();
            assert!(
                bits_equal(&got.particles, &dedicated(12, 100 + k as u64, 0.125)),
                "session {sid} diverged from its dedicated run"
            );
        }
    }

    #[test]
    fn power_on_self_test_failure_rotates_board() {
        // Board 0 powers on with a dead module: 32 of 64 slots gone, so
        // a 48-particle session cannot fit and the board is retired at
        // first activation.  The session completes on board 1.
        let cfg = FarmConfig::builder(unit())
            .boards(2)
            .board_plans(vec![Some(FaultPlan::none().with_dead_module(0, 0))])
            .build()
            .unwrap();
        let mut farm = Farm::open(cfg).unwrap();
        let t0 = farm.register(TenantSpec::new(1)).unwrap();
        let sid = farm.submit(t0, job(48, 7, 0.125)).unwrap();
        let report = farm.run().unwrap();
        assert!(report.all_completed());
        assert_eq!(report.stats.board_rotations, 1);
        assert_eq!(farm.pool().in_service(), 1);
        assert!(farm.pool().slots()[0].retired_reason.is_some());
        let got = farm.take_result(sid).unwrap();
        assert!(bits_equal(&got.particles, &dedicated(48, 7, 0.125)));
    }

    #[test]
    fn midrun_board_death_rotates_and_resumes_bitwise() {
        // Board 0 loses a module mid-run.  With 48 particles the
        // redistribution cannot fit on the surviving 32 slots, the
        // supervisor ladder is exhausted, and the farm parks the session
        // at its last checkpoint, retires the board, and resumes on
        // board 1 — with the particle bits of an uninterrupted run.
        let cfg = FarmConfig::builder(unit())
            .boards(2)
            .board_plans(vec![Some(
                FaultPlan::none().with_midrun_death(vec![0, 0], 40),
            )])
            .ckpt_every(4)
            .build()
            .unwrap();
        let mut farm = Farm::open(cfg).unwrap();
        let t0 = farm.register(TenantSpec::new(1)).unwrap();
        let sid = farm.submit(t0, job(48, 11, 0.125)).unwrap();
        let report = farm.run().unwrap();
        assert!(report.all_completed(), "stats: {:?}", report.stats);
        assert!(
            report.stats.board_rotations >= 1,
            "stats: {:?}",
            report.stats
        );
        assert!(report.stats.resumes >= 1, "stats: {:?}", report.stats);
        let got = farm.take_result(sid).unwrap();
        assert!(bits_equal(&got.particles, &dedicated(48, 11, 0.125)));
    }

    #[test]
    fn deadline_kills_slow_session() {
        let cfg = FarmConfig::builder(unit())
            .boards(1)
            .deadline_grants(Some(2))
            .quantum(2)
            .build()
            .unwrap();
        let mut farm = Farm::open(cfg).unwrap();
        let t0 = farm.register(TenantSpec::new(1)).unwrap();
        let sid = farm.submit(t0, job(16, 9, 4.0)).unwrap();
        let report = farm.run().unwrap();
        assert_eq!(report.stats.deadline_failures, 1);
        assert_eq!(report.stats.failed, 1);
        match farm.take_result(sid) {
            Err(FarmError::JobFailed { reason, .. }) => assert!(reason.contains("deadline")),
            other => panic!("expected JobFailed with a deadline reason, got {other:?}"),
        }
    }

    #[test]
    fn tenant_deadline_overrides_farm_default() {
        // Farm default has no deadline; the tenant sets a 2-grant budget
        // and a long job dies by it.
        let cfg = FarmConfig::builder(unit())
            .boards(1)
            .quantum(2)
            .build()
            .unwrap();
        let mut farm = Farm::open(cfg).unwrap();
        let t0 = farm
            .register(TenantSpec::new(1).deadline_grants(2))
            .unwrap();
        let sid = farm.submit(t0, job(16, 9, 4.0)).unwrap();
        let report = farm.run().unwrap();
        assert_eq!(report.stats.deadline_failures, 1);
        match farm.take_result(sid) {
            Err(FarmError::JobFailed { reason, .. }) => assert!(reason.contains("deadline")),
            other => panic!("expected JobFailed, got {other:?}"),
        }
    }

    #[test]
    fn pool_exhaustion_fails_sessions_gracefully() {
        // Every board is missing a module; 48-particle jobs fit nowhere.
        let cfg = FarmConfig::builder(unit())
            .boards(2)
            .board_plans(vec![
                Some(FaultPlan::none().with_dead_module(0, 0)),
                Some(FaultPlan::none().with_dead_module(0, 1)),
            ])
            .build()
            .unwrap();
        let mut farm = Farm::open(cfg).unwrap();
        let t0 = farm.register(TenantSpec::new(1)).unwrap();
        farm.submit(t0, job(48, 3, 0.125)).unwrap();
        let report = farm.run().unwrap();
        assert_eq!(report.stats.completed, 0);
        assert_eq!(report.stats.failed, 1);
        assert_eq!(report.stats.board_rotations, 2);
        assert!(report
            .outcomes
            .values()
            .all(|o| matches!(o, SessionOutcome::Failed { .. })));
    }

    #[test]
    fn weighted_round_robin_is_proportional() {
        // Drive rounds by hand: while both tenants are live, grants
        // accrue exactly in weight proportion (3:1).
        let cfg = FarmConfig::builder(unit())
            .boards(2)
            .quantum(2)
            .build()
            .unwrap();
        let mut farm = Farm::open(cfg).unwrap();
        let light = farm.register(TenantSpec::new(1)).unwrap();
        let heavy = farm.register(TenantSpec::new(3)).unwrap();
        farm.submit(light, job(12, 21, 0.5)).unwrap();
        farm.submit(heavy, job(12, 22, 0.5)).unwrap();
        let mut checked = 0;
        while farm.live_sessions() == 2 {
            farm.round().unwrap();
            let g_light = farm.tenant_report(light).unwrap().grants;
            let g_heavy = farm.tenant_report(heavy).unwrap().grants;
            if farm.live_sessions() == 2 {
                assert_eq!(g_heavy, 3 * g_light, "round-by-round WRR proportion");
                checked += 1;
            }
        }
        assert!(checked > 0, "never observed both tenants live");
        // Drain the survivor.
        let report = farm.run().unwrap();
        assert!(report.all_completed());
    }

    #[test]
    fn per_tenant_breakdown_accumulates() {
        let cfg = FarmConfig::builder(unit()).boards(1).build().unwrap();
        let mut farm = Farm::open(cfg).unwrap();
        let t0 = farm.register(TenantSpec::new(1)).unwrap();
        farm.submit(t0, job(16, 5, 0.125)).unwrap();
        let report = farm.run().unwrap();
        let tr = &report.tenants[&t0];
        assert!(tr.blocksteps > 0);
        assert!(tr.breakdown.total() > 0.0, "breakdown: {:?}", tr.breakdown);
        assert!(tr.recovery.checkpoints_taken >= 1);
        // Every recorded span carries the tenant's track id.
        assert!(!farm.spans().is_empty());
        assert!(farm.spans().iter().all(|s| s.track == t0));
    }
}
