//! # grape6-farm — a multi-tenant GRAPE farm
//!
//! The SC'03 paper's machines were *shared*: a few host+GRAPE units
//! served a whole institute, and the host software's real job was to
//! keep many users' week-long runs alive on hardware that failed weekly
//! (§2).  This crate reproduces that operational layer as a
//! deterministic, virtual-time service:
//!
//! * [`Farm`] multiplexes many sessions (each the same supervised
//!   integrator+engine pair a `G6` session wraps) over a shared
//!   [`BoardPool`];
//! * **admission control** rejects work beyond a multiprogramming
//!   ceiling with [`FarmError::Saturated`] (carrying a deterministic
//!   `retry_after`) and beyond a per-tenant queue depth with
//!   [`FarmError::QueueFull`] — typed backpressure, not panics;
//! * a **deficit weighted-round-robin scheduler** grants quanta of
//!   blocksteps in proportion to tenant weights and enforces
//!   per-session grant deadlines;
//! * **checkpoint eviction**: when sessions outnumber boards, the
//!   least-recently-granted session is parked as a bitwise-exact
//!   checkpoint and later resumed — possibly on a *different* board —
//!   via `restore_migrate`;
//! * **fault-aware rotation**: boards failing the known-answer
//!   self-test, or on which the supervisor's recovery ladder is
//!   exhausted, are retired from the pool and their sessions
//!   redistributed.
//!
//! The §3.4 block floating-point force summation makes all of this
//! invisible in the particle bits: every tenant finishes **bitwise
//! identical** to a dedicated single-tenant run, which the crate's
//! tests, `tests/farm_bitwise.rs`, and the `farm_soak` bench binary all
//! assert.
//!
//! Since PR 9 the farm is also a *network service*: [`server::FarmServer`]
//! accepts sessions over TCP/UDS (the `grape6-net` stream transport) and
//! [`client::FarmClient`] is the typed submit/poll/fetch/cancel RPC
//! surface.  The wire protocol ([`wire::FarmFrame`]) rides the same
//! little-endian `grape6-ckpt` encoding as checkpoints, and every
//! admission rejection crosses the wire as a typed
//! [`wire::DenyReason`] — never a closed socket.  A client that dies
//! mid-job (missed heartbeats) triggers the checkpoint-eviction path:
//! its board is reclaimed, its session parked.

pub mod client;
pub mod error;
pub mod farm;
pub mod pool;
pub mod server;
pub mod session;
pub mod stats;
pub mod wire;

pub use client::{FarmClient, FarmClientBuilder, FarmClientError};
pub use error::{FarmError, RetryAfter};
pub use farm::{Farm, FarmConfig, FarmConfigBuilder, TenantSpec};
pub use pool::{BoardHealth, BoardPool, BoardSlot};
pub use server::{FarmServer, FarmServerConfig, ServeOptions, ServeReport, ServerError};
pub use session::{
    Job, JobBuilder, JobResult, SessionId, SessionOutcome, SessionPhase, SessionStatus, TenantId,
};
pub use stats::{FarmReport, FarmStats, TenantReport};
pub use wire::{particles_digest, DenyReason, FarmFrame, FARM_PROTO};
