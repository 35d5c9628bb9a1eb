//! The checkpoint data model.
//!
//! Plain structs with **no dependency on the crates whose state they
//! capture** — `grape6-core`, `grape6-net` and friends convert their live
//! state into these records and back.  Every `f64` is stored as its
//! IEEE-754 bit pattern (`u64`): the restore guarantee is *bitwise*
//! identity, so nothing may pass through a decimal representation, and
//! values like the `dt_min = +inf` sentinel survive unharmed.  The
//! encoding itself is the hand-rolled little-endian layout of [`wire`](crate::wire).

use crate::wire::{Dec, Enc, WireError};

/// Encode an `f64` as its bit pattern.
#[inline]
pub fn bits(x: f64) -> u64 {
    x.to_bits()
}

/// Decode an `f64` from its bit pattern.
#[inline]
pub fn unbits(b: u64) -> f64 {
    f64::from_bits(b)
}

/// Encode a 3-vector of `f64` as bit patterns.
#[inline]
pub fn bits3(v: [f64; 3]) -> [u64; 3] {
    [v[0].to_bits(), v[1].to_bits(), v[2].to_bits()]
}

/// Decode a 3-vector of `f64` from bit patterns.
#[inline]
pub fn unbits3(b: [u64; 3]) -> [f64; 3] {
    [
        f64::from_bits(b[0]),
        f64::from_bits(b[1]),
        f64::from_bits(b[2]),
    ]
}

/// The complete state of one run, as written to disk.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Format version (mirrors the header; kept in the payload so the
    /// payload is self-describing on its own).
    pub version: u32,
    /// Free-form run label.
    pub label: String,
    /// Blocksteps completed when the checkpoint was taken.
    pub blockstep: u64,
    /// Engine state (present for hardware-simulator runs).
    pub engine: Option<EngineState>,
    /// Integrator state: particles, time, run statistics.
    pub integrator: IntegratorState,
    /// Per-rank network endpoint counters (empty for single-host runs).
    pub net: Vec<NetEndpointState>,
    /// Tracer phase: the virtual-time cursor and whether tracing was
    /// active, so a resumed trace continues where the old one stopped.
    pub trace: TraceState,
}

impl Checkpoint {
    pub(crate) fn encode(&self, e: &mut Enc) {
        e.u32(self.version);
        e.str(&self.label);
        e.u64(self.blockstep);
        match &self.engine {
            None => e.bool(false),
            Some(es) => {
                e.bool(true);
                es.encode(e);
            }
        }
        // The payload's leading version drives which layout the
        // version-evolved records use, both ways: a checkpoint loaded
        // from a v1 file re-encodes as genuine v1 bytes.
        self.integrator.encode(e, self.version);
        e.size(self.net.len());
        for n in &self.net {
            n.encode(e);
        }
        self.trace.encode(e);
    }

    pub(crate) fn decode(d: &mut Dec) -> Result<Self, WireError> {
        let version = d.u32()?;
        Ok(Self {
            version,
            label: d.str()?,
            blockstep: d.u64()?,
            engine: if d.bool()? {
                Some(EngineState::decode(d)?)
            } else {
                None
            },
            integrator: IntegratorState::decode(d, version)?,
            net: d.seq_with(NetEndpointState::BYTES, NetEndpointState::decode)?,
            trace: TraceState::decode(d)?,
        })
    }
}

/// `Grape6Engine` internals that shape subsequent arithmetic.
///
/// The hardware itself is *not* serialised: it is reconstructed from the
/// machine configuration and the fault plan (both deterministic), the
/// masked-unit set below is re-applied, and the j-memory is reloaded from
/// the particle state — the §3.4 block-FP property makes the refreshed
/// partitioning bitwise invisible.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineState {
    /// Machine fingerprint `(boards, modules/board, chips/module, jmem)`
    /// — restore refuses a mismatched machine.
    pub machine: (usize, usize, usize, usize),
    /// Seed of the fault plan in force (0 for hand-written plans).
    pub plan_seed: u64,
    /// j-slots the engine was built for.
    pub n_slots: usize,
    /// Running magnitude estimates (acc, jerk, pot) — these drive the
    /// block-FP exponent windows, so they are bitwise-critical.
    pub mag: [u64; 3],
    /// Exponent-retry count so far.
    pub retries: u64,
    /// Engine system time (bit pattern).
    pub time: u64,
    /// Compute chunks completed — the clock scheduled deaths run on.
    pub pass: u64,
    /// Hardware ensemble pass counter (includes self-test and retry
    /// passes) — the clock transient reduction glitches run on.
    pub hw_passes: u64,
    /// Scheduled deaths not yet applied.
    pub pending_deaths: Vec<(Vec<usize>, u64)>,
    /// Every unit masked so far (self-test and mid-run).
    pub masked: Vec<Vec<usize>>,
    /// Fault counters at capture.
    pub counters: FaultCounterState,
    /// Virtual-time cursor of the engine's span timeline (bit pattern).
    pub vt: u64,
}

impl EngineState {
    fn encode(&self, e: &mut Enc) {
        e.size(self.machine.0);
        e.size(self.machine.1);
        e.size(self.machine.2);
        e.size(self.machine.3);
        e.u64(self.plan_seed);
        e.size(self.n_slots);
        e.seq_u64(&self.mag);
        e.u64(self.retries);
        e.u64(self.time);
        e.u64(self.pass);
        e.u64(self.hw_passes);
        e.size(self.pending_deaths.len());
        for (path, at) in &self.pending_deaths {
            e.seq_size(path);
            e.u64(*at);
        }
        e.size(self.masked.len());
        for path in &self.masked {
            e.seq_size(path);
        }
        self.counters.encode(e);
        e.u64(self.vt);
    }

    fn decode(d: &mut Dec) -> Result<Self, WireError> {
        Ok(Self {
            machine: (d.size()?, d.size()?, d.size()?, d.size()?),
            plan_seed: d.u64()?,
            n_slots: d.size()?,
            mag: {
                let v = d.seq_u64()?;
                v.try_into().map_err(|_| WireError::Oversize)?
            },
            retries: d.u64()?,
            time: d.u64()?,
            pass: d.u64()?,
            hw_passes: d.u64()?,
            // A death is at least its path's length prefix and its step;
            // a masked path at least its length prefix.
            pending_deaths: d.seq_with(16, |d| Ok((d.seq_size()?, d.u64()?)))?,
            masked: d.seq_with(8, Dec::seq_size)?,
            counters: FaultCounterState::decode(d)?,
            vt: d.u64()?,
        })
    }
}

/// Mirror of `grape6_fault::FaultCounters`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounterState {
    /// Units that failed the startup self-test.
    pub selftest_failures: u64,
    /// Units masked out of service.
    pub units_masked: u64,
    /// Scheduled mid-run deaths applied.
    pub scheduled_deaths: u64,
    /// Transient reduction glitches recovered from.
    pub reduction_glitches: u64,
    /// Sanity-screen recomputes.
    pub sanity_recomputes: u64,
    /// Exponent-overflow retries.
    pub exponent_retries: u64,
}

impl FaultCounterState {
    fn encode(&self, e: &mut Enc) {
        e.u64(self.selftest_failures);
        e.u64(self.units_masked);
        e.u64(self.scheduled_deaths);
        e.u64(self.reduction_glitches);
        e.u64(self.sanity_recomputes);
        e.u64(self.exponent_retries);
    }

    fn decode(d: &mut Dec) -> Result<Self, WireError> {
        Ok(Self {
            selftest_failures: d.u64()?,
            units_masked: d.u64()?,
            scheduled_deaths: d.u64()?,
            reduction_glitches: d.u64()?,
            sanity_recomputes: d.u64()?,
            exponent_retries: d.u64()?,
        })
    }
}

/// Full Hermite integrator state.
#[derive(Clone, Debug, PartialEq)]
pub struct IntegratorState {
    /// System time (bit pattern).
    pub t: u64,
    /// Softening length in force (bit pattern) — a restore consistency
    /// guard, since ε is re-derived from the integrator configuration.
    pub eps: u64,
    /// Particle count.
    pub n: usize,
    /// Masses.
    pub mass: Vec<u64>,
    /// Positions.
    pub pos: Vec<[u64; 3]>,
    /// Velocities.
    pub vel: Vec<[u64; 3]>,
    /// Accelerations.
    pub acc: Vec<[u64; 3]>,
    /// Jerks.
    pub jerk: Vec<[u64; 3]>,
    /// Snaps (2nd force derivatives — the predictor's `a⁽²⁾` term).
    pub snap: Vec<[u64; 3]>,
    /// Crackles (3rd derivatives — the Aarseth criterion's input).
    pub crackle: Vec<[u64; 3]>,
    /// Potentials.
    pub pot: Vec<u64>,
    /// Per-particle times.
    pub t_last: Vec<u64>,
    /// Per-particle block timesteps.
    pub dt: Vec<u64>,
    /// Run statistics at capture.
    pub stats: RunStatState,
}

impl IntegratorState {
    /// Internal consistency: every per-particle array has length `n`.
    pub fn is_consistent(&self) -> bool {
        let n = self.n;
        self.mass.len() == n
            && self.pos.len() == n
            && self.vel.len() == n
            && self.acc.len() == n
            && self.jerk.len() == n
            && self.snap.len() == n
            && self.crackle.len() == n
            && self.pot.len() == n
            && self.t_last.len() == n
            && self.dt.len() == n
    }

    fn encode(&self, e: &mut Enc, version: u32) {
        e.u64(self.t);
        e.u64(self.eps);
        e.size(self.n);
        e.seq_u64(&self.mass);
        e.seq_u64x3(&self.pos);
        e.seq_u64x3(&self.vel);
        e.seq_u64x3(&self.acc);
        e.seq_u64x3(&self.jerk);
        e.seq_u64x3(&self.snap);
        e.seq_u64x3(&self.crackle);
        e.seq_u64(&self.pot);
        e.seq_u64(&self.t_last);
        e.seq_u64(&self.dt);
        self.stats.encode(e, version);
    }

    fn decode(d: &mut Dec, version: u32) -> Result<Self, WireError> {
        Ok(Self {
            t: d.u64()?,
            eps: d.u64()?,
            n: d.size()?,
            mass: d.seq_u64()?,
            pos: d.seq_u64x3()?,
            vel: d.seq_u64x3()?,
            acc: d.seq_u64x3()?,
            jerk: d.seq_u64x3()?,
            snap: d.seq_u64x3()?,
            crackle: d.seq_u64x3()?,
            pot: d.seq_u64()?,
            t_last: d.seq_u64()?,
            dt: d.seq_u64()?,
            stats: RunStatState::decode(d, version)?,
        })
    }
}

/// Mirror of `grape6_core::RunStats` (scalars as bit patterns where f64).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunStatState {
    /// Individual particle steps.
    pub particle_steps: u64,
    /// Blocksteps executed.
    pub blocksteps: u64,
    /// Largest block seen.
    pub max_block: u64,
    /// Block-size histogram (powers of two).
    pub block_hist: Vec<u64>,
    /// Smallest block spacing (bit pattern; starts at +inf).
    pub dt_min: u64,
    /// Largest block spacing (bit pattern).
    pub dt_max: u64,
    /// Fault counters mirrored from the engine.
    pub faults: FaultCounterState,
    /// Recovery counters (checkpoints, restores, remasks, ladder costs).
    pub recovery: RecoveryState,
}

impl RunStatState {
    fn encode(&self, e: &mut Enc, version: u32) {
        e.u64(self.particle_steps);
        e.u64(self.blocksteps);
        e.u64(self.max_block);
        e.seq_u64(&self.block_hist);
        e.u64(self.dt_min);
        e.u64(self.dt_max);
        self.faults.encode(e);
        self.recovery.encode(e, version);
    }

    fn decode(d: &mut Dec, version: u32) -> Result<Self, WireError> {
        Ok(Self {
            particle_steps: d.u64()?,
            blocksteps: d.u64()?,
            max_block: d.u64()?,
            block_hist: d.seq_u64()?,
            dt_min: d.u64()?,
            dt_max: d.u64()?,
            faults: FaultCounterState::decode(d)?,
            recovery: RecoveryState::decode(d, version)?,
        })
    }
}

/// Mirror of `grape6_core::stats::RecoveryStats`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RecoveryState {
    /// Checkpoints taken.
    pub checkpoints_taken: u64,
    /// Restores from checkpoint.
    pub restores: u64,
    /// Mid-run re-self-tests.
    pub reselftests: u64,
    /// Mirror-based j-redistributions.
    pub redistributions: u64,
    /// Virtual seconds charged to recovery work (bit pattern).
    pub recovery_seconds: u64,
    /// Plain blockstep recomputes (ladder rung 1).  Format v2; a v1
    /// payload decodes as 0, and a checkpoint re-encoded as v1 drops it.
    pub step_retries: u64,
}

impl RecoveryState {
    fn encode(&self, e: &mut Enc, version: u32) {
        e.u64(self.checkpoints_taken);
        e.u64(self.restores);
        e.u64(self.reselftests);
        e.u64(self.redistributions);
        e.u64(self.recovery_seconds);
        if version >= 2 {
            e.u64(self.step_retries);
        }
    }

    fn decode(d: &mut Dec, version: u32) -> Result<Self, WireError> {
        Ok(Self {
            checkpoints_taken: d.u64()?,
            restores: d.u64()?,
            reselftests: d.u64()?,
            redistributions: d.u64()?,
            recovery_seconds: d.u64()?,
            step_retries: if version >= 2 { d.u64()? } else { 0 },
        })
    }
}

/// One rank's endpoint counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NetEndpointState {
    /// Rank id.
    pub rank: usize,
    /// Virtual clock at capture (bit pattern).
    pub clock: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Messages sent.
    pub messages_sent: u64,
    /// Messages received.
    pub messages_received: u64,
    /// Retransmissions observed.
    pub retransmits: u64,
    /// Attempts lost to drops.
    pub dropped_attempts: u64,
    /// Attempts lost to corruption.
    pub corrupt_attempts: u64,
    /// Delayed deliveries.
    pub delayed_messages: u64,
    /// Retry budgets exhausted.
    pub timeouts: u64,
    /// Backoff seconds charged (bit pattern).
    pub backoff_seconds: u64,
}

impl NetEndpointState {
    /// Encoded size: eleven 8-byte fields.
    const BYTES: usize = 88;

    fn encode(&self, e: &mut Enc) {
        e.size(self.rank);
        e.u64(self.clock);
        e.u64(self.bytes_sent);
        e.u64(self.messages_sent);
        e.u64(self.messages_received);
        e.u64(self.retransmits);
        e.u64(self.dropped_attempts);
        e.u64(self.corrupt_attempts);
        e.u64(self.delayed_messages);
        e.u64(self.timeouts);
        e.u64(self.backoff_seconds);
    }

    fn decode(d: &mut Dec) -> Result<Self, WireError> {
        Ok(Self {
            rank: d.size()?,
            clock: d.u64()?,
            bytes_sent: d.u64()?,
            messages_sent: d.u64()?,
            messages_received: d.u64()?,
            retransmits: d.u64()?,
            dropped_attempts: d.u64()?,
            corrupt_attempts: d.u64()?,
            delayed_messages: d.u64()?,
            timeouts: d.u64()?,
            backoff_seconds: d.u64()?,
        })
    }
}

/// Tracer phase carried across a restart.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceState {
    /// Virtual-time cursor (bit pattern).
    pub vt: u64,
    /// Whether span recording was active.
    pub active: bool,
}

impl TraceState {
    fn encode(&self, e: &mut Enc) {
        e.u64(self.vt);
        e.bool(self.active);
    }

    fn decode(d: &mut Dec) -> Result<Self, WireError> {
        Ok(Self {
            vt: d.u64()?,
            active: d.bool()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_encoding_roundtrips_everything_json_cannot() {
        for x in [0.0, -0.0, 1.5, f64::INFINITY, f64::NEG_INFINITY, 1e-308] {
            assert_eq!(unbits(bits(x)).to_bits(), x.to_bits());
        }
        let nan = f64::from_bits(0x7ff8_dead_beef_0001);
        assert_eq!(unbits(bits(nan)).to_bits(), nan.to_bits());
        let v = [1.0, f64::INFINITY, -0.0];
        let back = unbits3(bits3(v));
        for k in 0..3 {
            assert_eq!(back[k].to_bits(), v[k].to_bits());
        }
    }

    #[test]
    fn consistency_check_catches_short_arrays() {
        let mut st = IntegratorState {
            t: 0,
            eps: 0,
            n: 2,
            mass: vec![0; 2],
            pos: vec![[0; 3]; 2],
            vel: vec![[0; 3]; 2],
            acc: vec![[0; 3]; 2],
            jerk: vec![[0; 3]; 2],
            snap: vec![[0; 3]; 2],
            crackle: vec![[0; 3]; 2],
            pot: vec![0; 2],
            t_last: vec![0; 2],
            dt: vec![0; 2],
            stats: RunStatState::default(),
        };
        assert!(st.is_consistent());
        st.dt.pop();
        assert!(!st.is_consistent());
    }

    #[test]
    fn net_endpoint_state_is_its_declared_size() {
        let mut e = Enc::new();
        NetEndpointState::default().encode(&mut e);
        assert_eq!(e.into_bytes().len(), NetEndpointState::BYTES);
    }

    #[test]
    fn engine_state_roundtrips_through_wire() {
        let es = EngineState {
            machine: (4, 8, 4, 16384),
            plan_seed: 0xDEAD_BEEF,
            n_slots: 2048,
            mag: [bits(1.5), bits(-0.25), bits(f64::MIN_POSITIVE)],
            retries: 3,
            time: bits(0.75),
            pass: 41,
            hw_passes: 97,
            pending_deaths: vec![(vec![2, 1], 50), (vec![0], 64)],
            masked: vec![vec![1, 3, 2], vec![]],
            counters: FaultCounterState {
                selftest_failures: 1,
                units_masked: 2,
                scheduled_deaths: 3,
                reduction_glitches: 4,
                sanity_recomputes: 5,
                exponent_retries: 6,
            },
            vt: bits(12.5),
        };
        let mut e = Enc::new();
        es.encode(&mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let back = EngineState::decode(&mut d).unwrap();
        d.finish().unwrap();
        assert_eq!(back, es);
    }
}
