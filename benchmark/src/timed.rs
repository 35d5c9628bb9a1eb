//! `TimedEngine`: the force engine as the integrator sees it, with a clock
//! around every call.
//!
//! `HermiteIntegrator` is generic over `ForceEngine`, so wrapping the
//! engine times the core→engine boundary without touching the program.
//! The wrapper cannot reach the span recorder (the integrator owns it for
//! the length of a blockstep), so it queues raw intervals and the workload
//! loop drains them into the recorder after each step.

use std::time::Instant;

use nbody_core::force::{EngineError, ForceEngine, ForceResult, IParticle, JParticle};

/// Which engine call an interval covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    /// `compute` / `try_compute`.
    Compute,
    /// `set_j_particle` / `try_set_j_particle`.
    JWrite,
}

/// One timed engine call, nanoseconds since the wrapper's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Interval {
    pub call: Call,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A `ForceEngine` that forwards everything to `inner` and records how
/// long `compute` and j-writes took.
pub struct TimedEngine<E> {
    inner: E,
    epoch: Instant,
    queue: Vec<Interval>,
}

impl<E> TimedEngine<E> {
    /// Wrap `inner`; intervals count from `epoch` (the recorder's).
    pub fn new(inner: E, epoch: Instant) -> Self {
        Self {
            inner,
            epoch,
            queue: Vec::new(),
        }
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Take the intervals recorded since the last drain, oldest first.
    pub fn drain(&mut self) -> std::vec::Drain<'_, Interval> {
        self.queue.drain(..)
    }

    #[inline]
    fn timed<R>(&mut self, call: Call, f: impl FnOnce(&mut E) -> R) -> R {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let r = f(&mut self.inner);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.queue.push(Interval {
            call,
            start_ns,
            end_ns,
        });
        r
    }
}

impl<E: ForceEngine> ForceEngine for TimedEngine<E> {
    fn n_j(&self) -> usize {
        self.inner.n_j()
    }

    fn set_j_particle(&mut self, addr: usize, p: &JParticle) {
        self.timed(Call::JWrite, |e| e.set_j_particle(addr, p))
    }

    fn try_set_j_particle(&mut self, addr: usize, p: &JParticle) -> Result<(), EngineError> {
        self.timed(Call::JWrite, |e| e.try_set_j_particle(addr, p))
    }

    fn set_time(&mut self, t: f64) {
        self.inner.set_time(t)
    }

    fn compute(&mut self, i: &[IParticle], out: &mut [ForceResult]) {
        self.timed(Call::Compute, |e| e.compute(i, out))
    }

    fn try_compute(&mut self, i: &[IParticle], out: &mut [ForceResult]) -> Result<(), EngineError> {
        self.timed(Call::Compute, |e| e.try_compute(i, out))
    }

    fn fault_counters(&self) -> grape6_fault::FaultCounters {
        self.inner.fault_counters()
    }

    fn vt(&self) -> f64 {
        self.inner.vt()
    }

    fn set_vt(&mut self, t: f64) {
        self.inner.set_vt(t)
    }

    fn take_spans(&mut self) -> Vec<grape6_trace::Span> {
        self.inner.take_spans()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn interactions(&self) -> u64 {
        self.inner.interactions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grape6_core::{Grape6Engine, HermiteIntegrator, IntegratorConfig};
    use grape6_farm::particles_digest;
    use grape6_system::MachineConfig;
    use nbody_core::ic::plummer::plummer_model;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn wrapped_and_bare_integrations_end_on_identical_bits() {
        let n = 48;
        let machine = MachineConfig::test_small();
        let set = plummer_model(n, &mut StdRng::seed_from_u64(11));
        let icfg = IntegratorConfig::default();

        let bare_engine = Grape6Engine::try_new(&machine, n).unwrap();
        let mut bare = HermiteIntegrator::new(bare_engine, set.clone(), icfg);
        let timed_engine =
            TimedEngine::new(Grape6Engine::try_new(&machine, n).unwrap(), Instant::now());
        let mut timed = HermiteIntegrator::new(timed_engine, set, icfg);

        let (mut computes, mut jwrites, mut psteps) = (0usize, 0usize, 0usize);
        // The initial force pass and j-load are timed too; set them aside.
        let startup: Vec<Interval> = timed.engine_mut().drain().collect();
        assert!(startup.iter().filter(|i| i.call == Call::JWrite).count() >= n);
        for _ in 0..200 {
            let a = bare.try_step_auto().unwrap();
            let b = timed.try_step_auto().unwrap();
            assert_eq!(a, b);
            psteps += a.1;
            for iv in timed.engine_mut().drain() {
                assert!(iv.end_ns >= iv.start_ns);
                match iv.call {
                    Call::Compute => computes += 1,
                    Call::JWrite => jwrites += 1,
                }
            }
        }
        assert_eq!(
            particles_digest(bare.particles()),
            particles_digest(timed.particles())
        );
        assert_eq!(
            bare.engine().interactions(),
            timed.engine().inner().interactions()
        );
        assert_eq!(
            bare.engine().hardware_cycles(),
            timed.engine().inner().hardware_cycles()
        );
        assert_eq!(bare.stats().particle_steps, timed.stats().particle_steps);
        // One compute per blockstep, one j-write per particle step.
        assert_eq!(computes, 200);
        assert_eq!(jwrites, psteps);
    }
}
