//! Direct-summation force kernels and the engine abstraction.
//!
//! The GRAPE division of labour (paper §1): the special-purpose hardware
//! evaluates eqs. (1)–(3) — acceleration, jerk, potential — for a block of
//! "i-particles" against the full set of "j-particles" it holds in memory;
//! the host does everything else.  [`ForceEngine`] captures exactly that
//! interface, so the same Hermite integrator runs unchanged on
//!
//! * [`DirectEngine`] — the reference double-precision host implementation
//!   (scalar below [`DirectEngine::PAR_THRESHOLD`] interactions, fanned
//!   out over [`crate::fanout`] above it),
//! * the simulated GRAPE-6 machine (`grape6-core`), and
//! * remote engines inside the parallel-algorithm simulators.
//!
//! ## Engine semantics (GRAPE conventions, kept by every implementation)
//!
//! * The engine predicts its stored j-particles to the requested time using
//!   the predictor polynomials (eqs. 6–7) before evaluating forces.
//! * The j-sum **includes** the i-particle itself when it is stored as a
//!   j-particle: with softening the self-term contributes nothing to the
//!   acceleration and jerk (`r_ij = v_ij = 0`) but contributes `−m_i/ε` to
//!   the potential, which the *host* subtracts afterwards — exactly what the
//!   real GRAPE-6 library does.  With `ε = 0` the hardware's `x^(-3/2)` unit
//!   returns zero for zero argument, so the self-term vanishes entirely.
//! * One i/j pair costs [`FLOPS_PER_INTERACTION`] = 57 floating-point
//!   operations: 38 for the force (following Warren et al.), 19 more for its
//!   time derivative (paper §4.1) — the accounting behind every Tflops
//!   number in the paper.

use crate::fanout;
use crate::vec3::Vec3;

/// Floating-point operations attributed to one pairwise force+jerk
/// evaluation (38 force + 19 jerk), the paper's eq. 9 convention.
pub const FLOPS_PER_INTERACTION: f64 = 57.0;

/// A j-particle as stored in (simulated) GRAPE memory: the full predictor
/// data at the particle's own time `t0`.
#[derive(Clone, Copy, Debug, Default)]
pub struct JParticle {
    /// Mass.
    pub mass: f64,
    /// Time at which the polynomial data below is valid.
    pub t0: f64,
    /// Position at `t0`.
    pub pos: Vec3,
    /// Velocity at `t0`.
    pub vel: Vec3,
    /// Acceleration at `t0`.
    pub acc: Vec3,
    /// Jerk at `t0`.
    pub jerk: Vec3,
    /// Snap (2nd derivative) at `t0` — the `a⁽²⁾₀` term of eq. 6.
    pub snap: Vec3,
}

/// An i-particle as sent to the force pipelines: already-predicted position
/// and velocity, plus its softening.
#[derive(Clone, Copy, Debug, Default)]
pub struct IParticle {
    /// Predicted position at the block time.
    pub pos: Vec3,
    /// Predicted velocity at the block time.
    pub vel: Vec3,
    /// Squared softening length ε² for this particle's interactions.
    pub eps2: f64,
}

/// The pipeline outputs for one i-particle.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ForceResult {
    /// Acceleration (eq. 1).
    pub acc: Vec3,
    /// Jerk (eq. 2).
    pub jerk: Vec3,
    /// Potential (eq. 3), *including* the self-term when ε > 0.
    pub pot: f64,
}

/// A force computation the engine could not complete.
///
/// GRAPE engines are hardware simulators: they can run out of retry budget
/// (§3.4 exponent protocol), lose hardware mid-run, or be asked for more
/// capacity than the surviving units hold.  These are *recoverable, typed*
/// conditions for the host to act on — not panics.
#[derive(Clone, Debug, PartialEq)]
pub enum EngineError {
    /// The block floating-point exponent-retry loop failed to converge:
    /// even maximally-widened windows kept overflowing.  The summands are
    /// infinite/NaN or the state is corrupted, not merely badly guessed.
    ExponentDivergence {
        /// Retries burned before giving up.
        retries: u32,
        /// Human-readable description of the last failure.
        detail: String,
    },
    /// Hardware answered with something no retry strategy can fix.
    HardwareFault {
        /// Human-readable description.
        detail: String,
    },
    /// The surviving hardware no longer holds enough j-slots.
    InsufficientCapacity {
        /// Slots the run needs.
        needed: usize,
        /// Slots still in service.
        available: usize,
    },
    /// A j-memory write addressed a slot outside the configured range.
    BadJAddress {
        /// The offending address.
        addr: usize,
        /// Slots the engine was configured with.
        slots: usize,
    },
    /// A particle coordinate falls outside the ±64 fixed-point coordinate
    /// box the j-memory format covers.  The real host library rescaled
    /// systems to fit; accepting the write would silently wrap coordinates
    /// and corrupt every force.
    OutsideBox {
        /// Address of the offending particle.
        addr: usize,
        /// The coordinate that does not fit (NaN also lands here).
        coord: f64,
    },
    /// Caller-provided buffers disagree in length.
    BufferMismatch {
        /// Which buffer is wrong (`"out"`, `"h2"`, …).
        what: &'static str,
        /// Length it must have.
        expected: usize,
        /// Length it had.
        got: usize,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::ExponentDivergence { retries, detail } => write!(
                f,
                "block-FP exponent retry did not converge after {retries} retries: {detail}"
            ),
            EngineError::HardwareFault { detail } => write!(f, "hardware fault: {detail}"),
            EngineError::InsufficientCapacity { needed, available } => write!(
                f,
                "degraded hardware capacity {available} below the {needed} slots required"
            ),
            EngineError::BadJAddress { addr, slots } => {
                write!(
                    f,
                    "j address {addr} out of range (engine has {slots} slots)"
                )
            }
            EngineError::OutsideBox { addr, coord } => write!(
                f,
                "particle {addr} position {coord} outside the ±64 fixed-point box; \
                 rescale the system (the paper's host library kept systems \
                 well inside the box for exactly this reason)"
            ),
            EngineError::BufferMismatch {
                what,
                expected,
                got,
            } => write!(f, "buffer `{what}` has length {got}, expected {expected}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Anything that can play the role of the GRAPE hardware for the integrator.
pub trait ForceEngine {
    /// Number of j-particle slots currently in use.
    fn n_j(&self) -> usize;

    /// Store (or update) the j-particle at address `addr`.
    fn set_j_particle(&mut self, addr: usize, p: &JParticle);

    /// Fallible twin of [`ForceEngine::set_j_particle`] for engines that
    /// validate writes (address range, fixed-point coordinate box).  The
    /// default delegates to the infallible path — host-side f64 engines
    /// accept anything finite.
    fn try_set_j_particle(&mut self, addr: usize, p: &JParticle) -> Result<(), EngineError> {
        self.set_j_particle(addr, p);
        Ok(())
    }

    /// Set the system time to which j-particles are predicted.
    fn set_time(&mut self, t: f64);

    /// Evaluate force, jerk and potential on each i-particle from *all*
    /// stored j-particles.  `out.len()` must equal `i.len()`.
    fn compute(&mut self, i: &[IParticle], out: &mut [ForceResult]);

    /// Fallible variant of [`ForceEngine::compute`] for engines that can
    /// fail recoverably (retry exhaustion, hardware loss).  The default
    /// simply delegates to the infallible path — host-side f64 engines
    /// cannot fail.
    fn try_compute(&mut self, i: &[IParticle], out: &mut [ForceResult]) -> Result<(), EngineError> {
        self.compute(i, out);
        Ok(())
    }

    /// Fault/recovery counters for this engine; hardware-free engines have
    /// nothing to report.
    fn fault_counters(&self) -> grape6_fault::FaultCounters {
        grape6_fault::FaultCounters::default()
    }

    /// Virtual-time cursor of the engine's span recorder, for callers that
    /// interleave their own spans (host phases) with the engine's on one
    /// timeline.  Engines without tracing sit at 0.
    fn vt(&self) -> f64 {
        0.0
    }

    /// Move the virtual-time cursor; no-op for engines without tracing.
    fn set_vt(&mut self, _t: f64) {}

    /// Drain the spans the engine recorded; empty for engines without
    /// tracing (the default).
    fn take_spans(&mut self) -> Vec<grape6_trace::Span> {
        Vec::new()
    }

    /// Human-readable engine name for benchmark tables.
    fn name(&self) -> &'static str;

    /// Total pairwise interactions evaluated since construction.
    fn interactions(&self) -> u64;
}

/// One softened pairwise interaction in double precision.
///
/// Returns the contribution of a source of mass `mass` at separation `dr`
/// (pointing from i to j) and relative velocity `dv` to (acc, jerk, pot).
#[inline]
pub fn pair_force(dr: Vec3, dv: Vec3, mass: f64, eps2: f64) -> (Vec3, Vec3, f64) {
    let r2 = dr.norm2() + eps2;
    if r2 == 0.0 {
        return (Vec3::ZERO, Vec3::ZERO, 0.0);
    }
    let rinv = 1.0 / r2.sqrt();
    let rinv2 = rinv * rinv;
    let mrinv3 = mass * rinv * rinv2;
    let rv = dr.dot(dv) * rinv2; // (r·v)/r²
    let acc = dr * mrinv3;
    let jerk = dv * mrinv3 - acc * (3.0 * rv);
    let pot = -mass * rinv;
    (acc, jerk, pot)
}

/// Predict a j-particle to time `t` (eqs. 6–7 of the paper; the `Δt⁴/24`
/// snap term enters the position, the `Δt³/6` snap term the velocity).
#[inline]
pub fn predict_j(p: &JParticle, t: f64) -> (Vec3, Vec3) {
    let dt = t - p.t0;
    let dt2 = dt * dt;
    let dt3 = dt2 * dt;
    let dt4 = dt3 * dt;
    let pos =
        p.pos + p.vel * dt + p.acc * (dt2 / 2.0) + p.jerk * (dt3 / 6.0) + p.snap * (dt4 / 24.0);
    let vel = p.vel + p.acc * dt + p.jerk * (dt2 / 2.0) + p.snap * (dt3 / 6.0);
    (pos, vel)
}

/// Reference host-side engine: IEEE-754 double precision direct summation.
#[derive(Clone, Debug, Default)]
pub struct DirectEngine {
    j: Vec<JParticle>,
    /// Predicted j positions at the current time.
    jp_pos: Vec<Vec3>,
    /// Predicted j velocities at the current time.
    jp_vel: Vec<Vec3>,
    time: f64,
    predicted: bool,
    interactions: u64,
}

impl DirectEngine {
    /// Below this many pairwise interactions per `compute` call the kernel
    /// stays scalar; above it [`fanout`] splits the i-block across cores.
    pub const PAR_THRESHOLD: usize = 1 << 16;

    /// New engine with `n` zeroed j-slots.
    pub fn new(n: usize) -> Self {
        Self {
            j: vec![JParticle::default(); n],
            jp_pos: vec![Vec3::ZERO; n],
            jp_vel: vec![Vec3::ZERO; n],
            time: 0.0,
            predicted: false,
            interactions: 0,
        }
    }

    /// Immutable view of the stored j-particles.
    pub fn j_particles(&self) -> &[JParticle] {
        &self.j
    }

    fn predict_all(&mut self) {
        if self.predicted {
            return;
        }
        let t = self.time;
        for (i, p) in self.j.iter().enumerate() {
            let (x, v) = predict_j(p, t);
            self.jp_pos[i] = x;
            self.jp_vel[i] = v;
        }
        self.predicted = true;
    }

    fn force_on(&self, ip: &IParticle) -> ForceResult {
        let mut acc = Vec3::ZERO;
        let mut jerk = Vec3::ZERO;
        let mut pot = 0.0;
        for j in 0..self.j.len() {
            let dr = self.jp_pos[j] - ip.pos;
            let dv = self.jp_vel[j] - ip.vel;
            let (a, jr, p) = pair_force(dr, dv, self.j[j].mass, ip.eps2);
            acc += a;
            jerk += jr;
            pot += p;
        }
        ForceResult { acc, jerk, pot }
    }
}

impl ForceEngine for DirectEngine {
    fn n_j(&self) -> usize {
        self.j.len()
    }

    fn set_j_particle(&mut self, addr: usize, p: &JParticle) {
        self.j[addr] = *p;
        self.predicted = false;
    }

    fn set_time(&mut self, t: f64) {
        if t != self.time {
            self.predicted = false;
        }
        self.time = t;
    }

    fn compute(&mut self, i: &[IParticle], out: &mut [ForceResult]) {
        assert_eq!(i.len(), out.len(), "i/out length mismatch");
        self.predict_all();
        let work = i.len() * self.j.len();
        if work >= Self::PAR_THRESHOLD && i.len() > 1 {
            fanout::map(out.iter_mut().zip(i), |_, (o, ip)| *o = self.force_on(ip));
        } else {
            for (o, ip) in out.iter_mut().zip(i) {
                *o = self.force_on(ip);
            }
        }
        self.interactions += work as u64;
    }

    fn name(&self) -> &'static str {
        "direct-f64"
    }

    fn interactions(&self) -> u64 {
        self.interactions
    }
}

/// Convenience: full O(N²) acceleration/jerk/potential of a raw
/// (mass, pos, vel) system at a common time — used by initial-condition
/// setup and diagnostics.  Parallel over targets.
pub fn direct_all(mass: &[f64], pos: &[Vec3], vel: &[Vec3], eps2: f64) -> Vec<ForceResult> {
    let n = mass.len();
    let body = |i: usize| {
        let mut acc = Vec3::ZERO;
        let mut jerk = Vec3::ZERO;
        let mut pot = 0.0;
        for j in 0..n {
            if i == j {
                continue;
            }
            let (a, jr, p) = pair_force(pos[j] - pos[i], vel[j] - vel[i], mass[j], eps2);
            acc += a;
            jerk += jr;
            pot += p;
        }
        ForceResult { acc, jerk, pot }
    };
    if n * n >= DirectEngine::PAR_THRESHOLD {
        fanout::map_range(n, body)
    } else {
        (0..n).map(body).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_force_matches_closed_form() {
        // Unit mass at distance 2 along x, no softening, no velocity.
        let (a, j, p) = pair_force(Vec3::new(2.0, 0.0, 0.0), Vec3::ZERO, 1.0, 0.0);
        assert!((a.x - 0.25).abs() < 1e-15); // m/r² = 1/4
        assert_eq!(a.y, 0.0);
        assert_eq!(j, Vec3::ZERO);
        assert!((p + 0.5).abs() < 1e-15); // -m/r
    }

    #[test]
    fn softening_limits_close_forces() {
        let eps2 = 0.01;
        let (a, _, p) = pair_force(Vec3::new(1e-9, 0.0, 0.0), Vec3::ZERO, 1.0, eps2);
        // Force ~ m·r/ε³ → tiny; potential → -1/ε = -10.
        assert!(a.norm() < 1e-5);
        assert!((p + 10.0).abs() < 1e-6);
    }

    #[test]
    fn self_interaction_is_zero_without_softening() {
        let (a, j, p) = pair_force(Vec3::ZERO, Vec3::ZERO, 1.0, 0.0);
        assert_eq!((a, j, p), (Vec3::ZERO, Vec3::ZERO, 0.0));
    }

    #[test]
    fn self_interaction_contributes_potential_with_softening() {
        let (a, j, p) = pair_force(Vec3::ZERO, Vec3::ZERO, 2.0, 0.25);
        assert_eq!(a, Vec3::ZERO);
        assert_eq!(j, Vec3::ZERO);
        assert!((p + 4.0).abs() < 1e-15); // -m/ε = -2/0.5
    }

    #[test]
    fn jerk_matches_numerical_derivative() {
        // d(acc)/dt via finite differences of the acceleration along the
        // relative orbit must match the analytic jerk.
        let dr0 = Vec3::new(1.0, 0.5, -0.3);
        let dv = Vec3::new(-0.2, 0.1, 0.4);
        let m = 1.7;
        let eps2 = 0.01;
        let h = 1e-6;
        let (_, jerk, _) = pair_force(dr0, dv, m, eps2);
        let (ap, _, _) = pair_force(dr0 + dv * h, dv, m, eps2);
        let (am, _, _) = pair_force(dr0 - dv * h, dv, m, eps2);
        let jerk_num = (ap - am) / (2.0 * h);
        assert!(
            (jerk - jerk_num).norm() < 1e-6 * jerk.norm().max(1.0),
            "analytic {jerk:?} vs numeric {jerk_num:?}"
        );
    }

    #[test]
    fn predictor_reproduces_polynomial() {
        let j = JParticle {
            mass: 1.0,
            t0: 2.0,
            pos: Vec3::new(1.0, 0.0, 0.0),
            vel: Vec3::new(0.0, 1.0, 0.0),
            acc: Vec3::new(0.5, 0.0, 0.0),
            jerk: Vec3::new(0.0, -0.6, 0.0),
            snap: Vec3::new(0.24, 0.0, 0.0),
        };
        let dt: f64 = 0.5;
        let (x, v) = predict_j(&j, 2.0 + dt);
        let want_x = 1.0 + 0.5 * dt.powi(2) / 2.0 + 0.24 * dt.powi(4) / 24.0;
        let want_vy = 1.0 - 0.6 * dt.powi(2) / 2.0;
        assert!((x.x - want_x).abs() < 1e-15);
        assert!((v.y - want_vy).abs() < 1e-15);
    }

    #[test]
    fn direct_engine_matches_direct_all() {
        let mass = vec![0.3, 0.5, 0.2, 0.4];
        let pos = vec![
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.5, 0.0),
            Vec3::new(-0.5, 0.2, 0.9),
        ];
        let vel = vec![
            Vec3::new(0.1, 0.0, 0.0),
            Vec3::new(0.0, -0.2, 0.0),
            Vec3::new(0.3, 0.0, 0.1),
            Vec3::new(0.0, 0.0, -0.4),
        ];
        let eps2 = 0.0; // no softening ⇒ engine self-term vanishes too
        let reference = direct_all(&mass, &pos, &vel, eps2);

        let mut eng = DirectEngine::new(4);
        for a in 0..4 {
            eng.set_j_particle(
                a,
                &JParticle {
                    mass: mass[a],
                    t0: 0.0,
                    pos: pos[a],
                    vel: vel[a],
                    ..Default::default()
                },
            );
        }
        eng.set_time(0.0);
        let ip: Vec<IParticle> = (0..4)
            .map(|a| IParticle {
                pos: pos[a],
                vel: vel[a],
                eps2,
            })
            .collect();
        let mut out = vec![ForceResult::default(); 4];
        eng.compute(&ip, &mut out);
        for a in 0..4 {
            assert!((out[a].acc - reference[a].acc).norm() < 1e-13);
            assert!((out[a].jerk - reference[a].jerk).norm() < 1e-13);
            assert!((out[a].pot - reference[a].pot).abs() < 1e-13);
        }
        assert_eq!(eng.interactions(), 16);
    }

    #[test]
    fn engine_prediction_advances_j_particles() {
        // One moving source: force on a probe must be evaluated at the
        // predicted source position, not the stored one.
        let mut eng = DirectEngine::new(1);
        eng.set_j_particle(
            0,
            &JParticle {
                mass: 1.0,
                t0: 0.0,
                pos: Vec3::new(0.0, 0.0, 0.0),
                vel: Vec3::new(1.0, 0.0, 0.0),
                ..Default::default()
            },
        );
        eng.set_time(1.0); // source now at x = 1
        let ip = [IParticle {
            pos: Vec3::new(2.0, 0.0, 0.0),
            vel: Vec3::ZERO,
            eps2: 0.0,
        }];
        let mut out = [ForceResult::default()];
        eng.compute(&ip, &mut out);
        // Separation is 1 ⇒ acc = -1 along x (source is at smaller x).
        assert!((out[0].acc.x + 1.0).abs() < 1e-14);
        assert!((out[0].pot + 1.0).abs() < 1e-14);
    }
}
