//! A facade mimicking the classic GRAPE-6 host library.
//!
//! The original machine was driven through a small C API (`g6_open`,
//! `g6_set_ti`, `g6_set_j_particle`, `g6calc_firsthalf`,
//! `g6calc_lasthalf`, …).  This module offers the same call shapes over the
//! simulator so that code translated from legacy GRAPE applications maps
//! one-to-one — including the property the paper's tuning story hinges on:
//! the two-phase force call is **genuinely split-phase**.  `calc_firsthalf`
//! ships the i-particles and starts the pipelines on a worker thread;
//! `calc_lasthalf` joins it and collects the results.  Between the two the
//! host is free to run its own predictor/corrector arithmetic while the
//! simulated GRAPE is busy, exactly like the real host library overlapped
//! its integration work with the hardware.
//!
//! # Session state machine
//!
//! A [`G6`] handle is always in one of two states:
//!
//! ```text
//!            ┌────────────────── calc_firsthalf ──────────────────┐
//!            │                                                    ▼
//!        ┌──────┐                                             ┌──────┐
//!        │ Idle │                                             │ Busy │
//!        └──────┘                                             └──────┘
//!            ▲                                                    │
//!            └────────────────── calc_lasthalf ───────────────────┘
//! ```
//!
//! * **Idle** — the engine is attached to the handle; j-particle writes
//!   ([`G6::set_j_particle`]) and time updates ([`G6::set_ti`]) are
//!   allowed, [`G6::calc_firsthalf`] starts a pass.
//! * **Busy** — the engine is owned by the worker computing the pass.
//!   Only [`G6::calc_lasthalf`] is valid; every other call returns a
//!   typed [`SessionError`] instead of corrupting the in-flight pass
//!   (the hardware's j-memory and predictor time must not change under a
//!   running pipeline pass — same rule as the real boards).
//!
//! Misuse is a typed error, never a panic: `calc_lasthalf` without a
//! matching `calc_firsthalf` returns [`SessionError::NoActivePass`], a
//! second `calc_firsthalf` while one is in flight returns
//! [`SessionError::PassAlreadyActive`] (and leaves the active pass
//! undisturbed), mismatched position/velocity buffers return
//! [`SessionError::LengthMismatch`], bad j-writes (out-of-range address,
//! coordinate outside the ±64 fixed-point box) come back as typed
//! [`EngineError`]s, and hardware failures surface as
//! [`SessionError::Engine`].  A multi-tenant host (see `grape6-farm`) can
//! therefore never be panicked by a misbehaving client.

use std::thread::JoinHandle;

use nbody_core::force::{EngineError, ForceEngine, ForceResult, IParticle, JParticle};
use nbody_core::Vec3;

use crate::engine::Grape6Engine;
use grape6_chip::kernel::KernelMode;
use grape6_system::machine::MachineConfig;

/// Misuse of the split-phase session protocol, or a hardware failure
/// surfaced through it.
#[derive(Clone, Debug, PartialEq)]
pub enum SessionError {
    /// `calc_lasthalf` was called with no pass in flight.
    NoActivePass,
    /// `calc_firsthalf` (or a j/t write) was called while a pass is in
    /// flight; the active pass is left running.
    PassAlreadyActive,
    /// `calc_firsthalf` was given position and velocity slices of
    /// different lengths.
    LengthMismatch {
        /// Number of positions supplied.
        xi: usize,
        /// Number of velocities supplied.
        vi: usize,
    },
    /// The engine failed while computing the pass.
    Engine(EngineError),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::NoActivePass => {
                write!(f, "calc_lasthalf without a preceding calc_firsthalf")
            }
            SessionError::PassAlreadyActive => write!(
                f,
                "a force pass is already in flight; collect it with calc_lasthalf first"
            ),
            SessionError::LengthMismatch { xi, vi } => write!(
                f,
                "calc_firsthalf needs one velocity per position: got {xi} positions, {vi} velocities"
            ),
            SessionError::Engine(e) => write!(f, "engine error during split-phase pass: {e}"),
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EngineError> for SessionError {
    fn from(e: EngineError) -> Self {
        SessionError::Engine(e)
    }
}

/// What the worker thread hands back at join time: the engine (so the
/// session can return to `Idle`) and the pass outcome.
type PassHandle = JoinHandle<(Box<Grape6Engine>, Result<Vec<ForceResult>, EngineError>)>;

/// The two session states (plus a transient placeholder that exists only
/// inside a state transition; it is never observable from outside).
enum State {
    Idle(Box<Grape6Engine>),
    Busy(PassHandle),
    Moving,
}

/// A GRAPE-6 "device" handle, in the style of the original library.
///
/// See the [module docs](self) for the Idle ⇄ Busy state machine.
pub struct G6 {
    state: State,
}

impl G6 {
    /// `g6_open`: acquire the hardware attached to this host.
    ///
    /// Fails with [`EngineError::InsufficientCapacity`] if the machine's
    /// j-memory cannot hold `max_particles`.
    pub fn open(cfg: &MachineConfig, max_particles: usize) -> Result<Self, EngineError> {
        Ok(Self::from_engine(Grape6Engine::try_new(
            cfg,
            max_particles,
        )?))
    }

    /// Wrap an already-constructed engine (e.g. one built with
    /// [`Grape6Engine::with_fault_plan`]) in a session handle.
    pub fn from_engine(engine: Grape6Engine) -> Self {
        Self {
            state: State::Idle(Box::new(engine)),
        }
    }

    /// `g6_npipes`: how many i-particles one call can serve in parallel.
    pub fn npipes(&self) -> usize {
        48
    }

    /// Whether a pass is currently in flight (Busy state).
    pub fn is_busy(&self) -> bool {
        matches!(self.state, State::Busy(_))
    }

    /// `g6_set_ti`: set the system time for the predictor pipelines.
    ///
    /// Only valid while Idle — the on-chip predictors must not be retimed
    /// under a running pass.
    pub fn set_ti(&mut self, ti: f64) -> Result<(), SessionError> {
        match &mut self.state {
            State::Idle(engine) => {
                engine.set_time(ti);
                Ok(())
            }
            State::Busy(_) => Err(SessionError::PassAlreadyActive),
            State::Moving => unreachable!("transient state"),
        }
    }

    /// Select the force-pass kernel (the runtime-dispatched lane kernel,
    /// the default, or the scalar oracle) on the whole machine.
    /// Bitwise-invisible in either mode.
    ///
    /// Only valid while Idle — the pass in flight owns the engine.
    pub fn set_kernel_mode(&mut self, mode: KernelMode) -> Result<(), SessionError> {
        match &mut self.state {
            State::Idle(engine) => {
                engine.set_kernel_mode(mode);
                Ok(())
            }
            State::Busy(_) => Err(SessionError::PassAlreadyActive),
            State::Moving => unreachable!("transient state"),
        }
    }

    /// `g6_set_j_particle`: write one particle's predictor polynomial.
    ///
    /// Only valid while Idle — j-memory must not change under a running
    /// pass.
    #[allow(clippy::too_many_arguments)]
    pub fn set_j_particle(
        &mut self,
        address: usize,
        tj: f64,
        mass: f64,
        a2by18: Vec3, // snap/18 in the historical interface; we take snap
        a1by6: Vec3,  // jerk/6 historically; we take jerk
        aby2: Vec3,   // acc/2 historically; we take acc
        v: Vec3,
        x: Vec3,
    ) -> Result<(), SessionError> {
        // The historical interface pre-scaled the derivatives to save
        // pipeline multipliers; the simulator takes them unscaled, so this
        // facade simply forwards (parameter names keep the old order).
        match &mut self.state {
            State::Idle(engine) => engine
                .try_set_j_particle_checked(
                    address,
                    &JParticle {
                        mass,
                        t0: tj,
                        pos: x,
                        vel: v,
                        acc: aby2,
                        jerk: a1by6,
                        snap: a2by18,
                    },
                )
                .map_err(SessionError::Engine),
            State::Busy(_) => Err(SessionError::PassAlreadyActive),
            State::Moving => unreachable!("transient state"),
        }
    }

    /// `g6calc_firsthalf`: ship the i-particles and start the pipelines
    /// on a worker thread.  Returns immediately; the host is free to do
    /// its own work until [`G6::calc_lasthalf`].
    pub fn calc_firsthalf(
        &mut self,
        xi: &[Vec3],
        vi: &[Vec3],
        eps2: f64,
    ) -> Result<(), SessionError> {
        if xi.len() != vi.len() {
            return Err(SessionError::LengthMismatch {
                xi: xi.len(),
                vi: vi.len(),
            });
        }
        if matches!(self.state, State::Busy(_)) {
            return Err(SessionError::PassAlreadyActive);
        }
        let State::Idle(mut engine) = std::mem::replace(&mut self.state, State::Moving) else {
            unreachable!("transient state");
        };
        let ip: Vec<IParticle> = xi
            .iter()
            .zip(vi)
            .map(|(&pos, &vel)| IParticle { pos, vel, eps2 })
            .collect();
        let handle = std::thread::spawn(move || {
            let mut out = vec![ForceResult::default(); ip.len()];
            let r = engine.try_compute(&ip, &mut out).map(|()| out);
            (engine, r)
        });
        self.state = State::Busy(handle);
        Ok(())
    }

    /// `g6calc_lasthalf`: wait for the pipelines and read the results.
    ///
    /// Returns acceleration, jerk and potential per i-particle.  Whether
    /// the pass succeeded or failed, the engine returns to the handle and
    /// the session is Idle again afterwards.
    pub fn calc_lasthalf(&mut self) -> Result<Vec<ForceResult>, SessionError> {
        match std::mem::replace(&mut self.state, State::Moving) {
            State::Idle(engine) => {
                self.state = State::Idle(engine);
                Err(SessionError::NoActivePass)
            }
            State::Busy(handle) => {
                let (engine, result) = handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                self.state = State::Idle(engine);
                result.map_err(SessionError::Engine)
            }
            State::Moving => unreachable!("transient state"),
        }
    }

    /// Access the underlying engine (cycle counters etc.).  `None` while
    /// a pass is in flight — the worker owns the engine then.
    pub fn engine(&self) -> Option<&Grape6Engine> {
        match &self.state {
            State::Idle(engine) => Some(engine),
            _ => None,
        }
    }

    /// Mutable engine access (tracer/timebase installation).  `None`
    /// while a pass is in flight.
    pub fn engine_mut(&mut self) -> Option<&mut Grape6Engine> {
        match &mut self.state {
            State::Idle(engine) => Some(engine),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_core::force::{DirectEngine, ForceEngine};

    #[test]
    fn two_phase_call_matches_reference() {
        let n = 16;
        let mut g6 = G6::open(&MachineConfig::test_small(), n).unwrap();
        let mut reference = DirectEngine::new(n);
        for k in 0..n {
            let a = k as f64;
            let x = Vec3::new((a * 0.3).sin(), (a * 0.7).cos(), 0.1 * a - 0.8);
            let v = Vec3::new(0.01 * a, -0.02, 0.0);
            g6.set_j_particle(
                k,
                0.0,
                1.0 / n as f64,
                Vec3::ZERO,
                Vec3::ZERO,
                Vec3::ZERO,
                v,
                x,
            )
            .unwrap();
            reference.set_j_particle(
                k,
                &JParticle {
                    mass: 1.0 / n as f64,
                    t0: 0.0,
                    pos: x,
                    vel: v,
                    ..Default::default()
                },
            );
        }
        g6.set_ti(0.0).unwrap();
        reference.set_time(0.0);
        let xi = vec![Vec3::new(0.2, 0.2, 0.2), Vec3::new(-0.5, 0.0, 0.4)];
        let vi = vec![Vec3::ZERO, Vec3::new(0.1, 0.0, 0.0)];
        g6.calc_firsthalf(&xi, &vi, 1e-4).unwrap();
        let got = g6.calc_lasthalf().unwrap();
        let ip: Vec<IParticle> = xi
            .iter()
            .zip(&vi)
            .map(|(&pos, &vel)| IParticle {
                pos,
                vel,
                eps2: 1e-4,
            })
            .collect();
        let mut want = vec![ForceResult::default(); 2];
        reference.compute(&ip, &mut want);
        for k in 0..2 {
            assert!((got[k].acc - want[k].acc).norm() < 1e-4 * want[k].acc.norm());
        }
        assert_eq!(g6.npipes(), 48);
    }

    #[test]
    fn split_phase_matches_blocking_bitwise() {
        // The worker-thread pass must return exactly what a blocking
        // compute on the same engine would — same hardware walk, same
        // block-FP reduction (§3.4).
        let n = 64;
        let cfg = MachineConfig::test_small();
        let mut g6 = G6::open(&cfg, n).unwrap();
        let mut blocking = Grape6Engine::try_new(&cfg, n).unwrap();
        for k in 0..n {
            let a = k as f64 * 0.613;
            let x = Vec3::new(a.cos(), (1.7 * a).sin(), 0.3 * (0.9 * a).cos());
            let v = Vec3::new(-a.sin() * 0.2, a.cos() * 0.2, 0.0);
            g6.set_j_particle(
                k,
                0.0,
                1.0 / n as f64,
                Vec3::ZERO,
                Vec3::ZERO,
                Vec3::ZERO,
                v,
                x,
            )
            .unwrap();
            blocking.set_j_particle(
                k,
                &JParticle {
                    mass: 1.0 / n as f64,
                    t0: 0.0,
                    pos: x,
                    vel: v,
                    ..Default::default()
                },
            );
        }
        g6.set_ti(0.0625).unwrap();
        blocking.set_time(0.0625);
        // 60 probes = two 48-wide chip passes.
        let xi: Vec<Vec3> = (0..60)
            .map(|k| Vec3::new(0.02 * k as f64 - 0.5, 0.3, -0.1))
            .collect();
        let vi = vec![Vec3::new(0.0, 0.05, 0.0); 60];
        g6.calc_firsthalf(&xi, &vi, 1e-4).unwrap();
        assert!(g6.is_busy());
        assert!(g6.engine().is_none());
        let got = g6.calc_lasthalf().unwrap();
        assert!(!g6.is_busy());
        let ip: Vec<IParticle> = xi
            .iter()
            .zip(&vi)
            .map(|(&pos, &vel)| IParticle {
                pos,
                vel,
                eps2: 1e-4,
            })
            .collect();
        let mut want = vec![ForceResult::default(); 60];
        blocking.try_compute(&ip, &mut want).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn lasthalf_without_firsthalf_is_a_typed_error() {
        let mut g6 = G6::open(&MachineConfig::test_small(), 4).unwrap();
        assert_eq!(g6.calc_lasthalf(), Err(SessionError::NoActivePass));
        // The session stays usable afterwards.
        assert!(g6.engine().is_some());
    }

    #[test]
    fn double_firsthalf_and_busy_writes_are_typed_errors() {
        let n = 8;
        let mut g6 = G6::open(&MachineConfig::test_small(), n).unwrap();
        for k in 0..n {
            g6.set_j_particle(
                k,
                0.0,
                1.0 / n as f64,
                Vec3::ZERO,
                Vec3::ZERO,
                Vec3::ZERO,
                Vec3::ZERO,
                Vec3::new(0.1 * k as f64 - 0.3, 0.0, 0.0),
            )
            .unwrap();
        }
        g6.set_ti(0.0).unwrap();
        let xi = vec![Vec3::new(0.5, 0.0, 0.0)];
        let vi = vec![Vec3::ZERO];
        g6.calc_firsthalf(&xi, &vi, 1e-2).unwrap();
        // Double-start: rejected, the first pass stays in flight.
        assert_eq!(
            g6.calc_firsthalf(&xi, &vi, 1e-2),
            Err(SessionError::PassAlreadyActive)
        );
        // Hardware state writes are rejected while Busy.
        assert_eq!(g6.set_ti(1.0), Err(SessionError::PassAlreadyActive));
        assert_eq!(
            g6.set_j_particle(
                0,
                0.0,
                1.0,
                Vec3::ZERO,
                Vec3::ZERO,
                Vec3::ZERO,
                Vec3::ZERO,
                Vec3::ZERO
            ),
            Err(SessionError::PassAlreadyActive)
        );
        // The original pass is still collectable.
        let out = g6.calc_lasthalf().unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0].acc.norm() > 0.0);
    }

    #[test]
    fn open_rejects_oversubscription_with_typed_error() {
        let cfg = MachineConfig::test_small(); // 4 chips × 2048
        let err = match G6::open(&cfg, 10_000) {
            Ok(_) => panic!("oversubscribed open must fail"),
            Err(e) => e,
        };
        assert_eq!(
            err,
            EngineError::InsufficientCapacity {
                needed: 10_000,
                available: 8192,
            }
        );
    }

    #[test]
    fn malformed_tenant_input_is_typed_not_a_panic() {
        let mut g6 = G6::open(&MachineConfig::test_small(), 4).unwrap();
        // Out-of-range j address.
        assert_eq!(
            g6.set_j_particle(
                99,
                0.0,
                1.0,
                Vec3::ZERO,
                Vec3::ZERO,
                Vec3::ZERO,
                Vec3::ZERO,
                Vec3::ZERO
            ),
            Err(SessionError::Engine(EngineError::BadJAddress {
                addr: 99,
                slots: 4
            }))
        );
        // Position outside the ±64 fixed-point box.
        assert!(matches!(
            g6.set_j_particle(
                0,
                0.0,
                1.0,
                Vec3::ZERO,
                Vec3::ZERO,
                Vec3::ZERO,
                Vec3::ZERO,
                Vec3::new(100.0, 0.0, 0.0)
            ),
            Err(SessionError::Engine(EngineError::OutsideBox {
                addr: 0,
                ..
            }))
        ));
        // NaN coordinates are out-of-box too.
        assert!(matches!(
            g6.set_j_particle(
                0,
                0.0,
                1.0,
                Vec3::ZERO,
                Vec3::ZERO,
                Vec3::ZERO,
                Vec3::ZERO,
                Vec3::new(f64::NAN, 0.0, 0.0)
            ),
            Err(SessionError::Engine(EngineError::OutsideBox { .. }))
        ));
        // Mismatched i-buffers.
        assert_eq!(
            g6.calc_firsthalf(&[Vec3::ZERO, Vec3::ZERO], &[Vec3::ZERO], 1e-4),
            Err(SessionError::LengthMismatch { xi: 2, vi: 1 })
        );
        // The session survived all of it.
        assert!(g6.engine().is_some());
        assert!(!g6.is_busy());
    }

    #[test]
    fn engine_error_during_pass_surfaces_in_lasthalf() {
        // Two 1e308 masses: pairwise summands are infinite, the widen
        // loop diverges and the worker's error must come back typed.
        let n = 2;
        let mut g6 = G6::open(&MachineConfig::test_small(), n).unwrap();
        for k in 0..n {
            g6.set_j_particle(
                k,
                0.0,
                1e308,
                Vec3::ZERO,
                Vec3::ZERO,
                Vec3::ZERO,
                Vec3::ZERO,
                Vec3::new(k as f64 * 1e-4, 0.0, 0.0),
            )
            .unwrap();
        }
        g6.set_ti(0.0).unwrap();
        g6.calc_firsthalf(&[Vec3::new(-1e-4, 0.0, 0.0)], &[Vec3::ZERO], 0.0)
            .unwrap();
        match g6.calc_lasthalf() {
            Err(SessionError::Engine(EngineError::ExponentDivergence { .. })) => {}
            other => panic!("expected ExponentDivergence, got {other:?}"),
        }
        // The engine came home despite the failure: the session is Idle
        // and inspectable again.
        assert!(g6.engine().is_some());
        assert!(g6.engine().unwrap().exponent_retries() > 0);
    }
}
