//! The interface every level of the machine hierarchy satisfies.

use grape6_arith::blockfp::BlockFpError;
use grape6_chip::chip::{Chip, I_PARALLEL_PER_CHIP};
use grape6_chip::jmem::StuckBit;
use grape6_chip::kernel::KernelMode;
use grape6_chip::pipeline::{ExpSet, HwIParticle, PartialForce};
use grape6_chip::Neighbours;
use grape6_fault::{ChipFault, ReductionFaultSchedule};
use nbody_core::force::JParticle;

/// Writing a j-particle into the hierarchy failed.
///
/// Loads fail for machine-shape reasons — a degraded machine with no
/// in-service children left under the round-robin, or an address past the
/// (possibly shrunken) capacity.  Both used to be asserts; a host driving
/// a partially-failed machine needs them as values so it can redistribute
/// or refuse the system instead of crashing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadError {
    /// Every child that could have held the address is masked out.
    NoActiveChildren {
        /// The global j-address being written.
        addr: usize,
    },
    /// The address does not fit the unit's j-memory.
    CapacityExceeded {
        /// The global j-address being written.
        addr: usize,
        /// The unit's current capacity (degraded machines shrink).
        capacity: usize,
    },
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoActiveChildren { addr } => {
                write!(f, "no in-service children left to hold j-particle {addr}")
            }
            Self::CapacityExceeded { addr, capacity } => {
                write!(f, "j-address {addr} out of range (capacity {capacity})")
            }
        }
    }
}

impl std::error::Error for LoadError {}

/// A piece of GRAPE hardware: a chip, a module, a board, or a board array.
///
/// Invariants every implementation keeps:
///
/// * all children compute on the **same** i-particles (i-parallelism is
///   [`I_PARALLEL_PER_CHIP`] = 48 at every level; the broadcast network
///   hands the same block to every chip);
/// * the j-particles are **divided** among children, so capacity adds up;
/// * partial forces are merged exactly (block floating point), making the
///   result independent of the division;
/// * there is one pass, [`GrapeUnit::compute_pass`]: the neighbour
///   comparators ride in it as an option, as they sit inside the chip's
///   force pipeline, so forces and cycles do not depend on whether they
///   are on;
/// * `last_pass_cycles` reports the *critical path* of the most recent
///   compute (children run in parallel; a level adds its reduction
///   latency).
pub trait GrapeUnit: Send {
    /// Total j-particle capacity.
    fn capacity(&self) -> usize;

    /// Number of j-particle addresses in use.
    fn n_j(&self) -> usize;

    /// Broadcast the system time for the predictor pipelines.
    fn set_time(&mut self, t: f64);

    /// Write the j-particle at global address `addr`.
    fn load_j(&mut self, addr: usize, p: &JParticle) -> Result<(), LoadError>;

    /// Run one pass on ≤ 48 i-particles against every stored j-particle:
    /// their partial forces, and — with `nb = Some((h2, lists))` — the
    /// hardware neighbour comparators of the same pass, as on the chip:
    /// `lists[i]` is cleared and receives the **global j-addresses** with
    /// unsoftened `r² < h2[i]` (self-pairs excluded), ascending.  Every
    /// level of the hierarchy translates its children's local addresses
    /// back to the caller's address space.
    ///
    /// `h2` and `lists` hold one entry per i-particle; callers that keep
    /// the lists across passes pay no per-i allocation in steady state.
    /// On `Err` the list contents are unspecified.
    fn compute_pass(
        &mut self,
        i: &[HwIParticle],
        exps: &[ExpSet],
        nb: Option<Neighbours<'_>>,
    ) -> Result<Vec<PartialForce>, BlockFpError>;

    /// The plain force pass: [`GrapeUnit::compute_pass`] without the
    /// neighbour comparators.
    fn compute_block(
        &mut self,
        i: &[HwIParticle],
        exps: &[ExpSet],
    ) -> Result<Vec<PartialForce>, BlockFpError> {
        self.compute_pass(i, exps, None)
    }

    /// Clock cycles on the critical path of the most recent pass (0 if
    /// none has run).
    fn last_pass_cycles(&self) -> u64;

    /// Total cycles over all passes (critical path, accumulated).
    fn total_cycles(&self) -> u64;

    /// Total pairwise interactions over all passes (sums over children).
    fn total_interactions(&self) -> u64;

    /// Remove all j-particles.
    fn clear(&mut self);

    // ---- fault injection and degraded operation -------------------------
    //
    // Defaulted so exotic implementations (mocks, adaptors) keep compiling;
    // the chip and ensemble layers override them.

    /// Remove the unit at `path` (child indices, outermost first) from
    /// service.  An empty path masks the unit itself, where that makes
    /// sense.  Returns `true` if something was actually in service and is
    /// now masked.
    fn mask_path(&mut self, path: &[usize]) -> bool {
        let _ = path;
        false
    }

    /// Inject a chip-level fault at `path` (which must address a chip).
    /// Returns `true` if the fault landed.
    fn inject_chip_fault(&mut self, path: &[usize], fault: &ChipFault) -> bool {
        let _ = (path, fault);
        false
    }

    /// Corrupt the reduction network of the ensemble at `path` (empty path
    /// = this unit's own reduction).  Returns `true` if the fault landed.
    fn inject_reduction_fault(&mut self, path: &[usize], sched: &ReductionFaultSchedule) -> bool {
        let _ = (path, sched);
        false
    }

    /// Chips currently in service below (and including) this unit.
    fn alive_chips(&self) -> usize {
        0
    }

    /// Compute passes issued to this unit so far.  Scheduled transient
    /// reduction glitches run on this clock, so checkpoint/restart must
    /// carry it across; leaves have no pass-scheduled faults and report 0.
    fn pass_count(&self) -> u64 {
        0
    }

    /// Overwrite the pass counter (checkpoint restore).  The restore path
    /// rebuilds the machine from its fault plan — which re-runs the
    /// power-on self-test and its passes — then rewinds this clock to the
    /// captured value so `AtPasses` fault schedules fire on the same
    /// passes they would have in the uninterrupted run.
    fn restore_pass_count(&mut self, passes: u64) {
        let _ = passes;
    }

    /// Choose between the concurrent child walk (children fanned out over
    /// [`nbody_core::fanout`]: a fan-out of one child, or one that finds
    /// the pool busy, runs on its caller, and every child's result lands
    /// in the slot of its index) and the strictly sequential one,
    /// recursively.  Results are bitwise identical either way — the
    /// partial forces are merged in child order whoever computed them,
    /// and the block floating-point reduction is order- and partition-
    /// independent anyway (§3.4) — so this only trades wall-clock for
    /// determinism-of-schedule (profiling, the serial reference of the
    /// benchmark).  Leaves have no children and ignore it.
    fn set_parallel(&mut self, parallel: bool) {
        let _ = parallel;
    }

    /// Select the force-pass kernel ([`KernelMode::Scalar`] oracle or the
    /// runtime-dispatched lane kernel), recursively.  Results are
    /// bitwise identical in either mode — each
    /// kernel performs the same rounded operations in the same order per
    /// (i, j) pair — so, like [`GrapeUnit::set_parallel`], this only
    /// changes host wall-clock.  Exotic implementations may ignore it.
    fn set_kernel_mode(&mut self, mode: KernelMode) {
        let _ = mode;
    }
}

/// A single chip is the leaf of the hierarchy.
///
/// The wrapper adds last-pass bookkeeping on top of
/// [`grape6_chip::chip::Chip`]'s cumulative counters.
#[derive(Clone, Debug)]
pub struct ChipUnit {
    chip: Chip,
    last_pass: u64,
    used: usize,
}

impl ChipUnit {
    /// Wrap a chip.
    pub fn new(chip: Chip) -> Self {
        Self {
            chip,
            last_pass: 0,
            used: 0,
        }
    }

    /// Access the underlying chip.
    pub fn chip(&self) -> &Chip {
        &self.chip
    }

    /// Mutable access to the underlying chip (fault injection, tests).
    pub fn chip_mut(&mut self) -> &mut Chip {
        &mut self.chip
    }
}

impl GrapeUnit for ChipUnit {
    fn capacity(&self) -> usize {
        self.chip.config().jmem_capacity
    }

    fn n_j(&self) -> usize {
        self.used
    }

    fn set_time(&mut self, t: f64) {
        self.chip.set_time(t);
    }

    fn load_j(&mut self, addr: usize, p: &JParticle) -> Result<(), LoadError> {
        let capacity = self.capacity();
        if addr >= capacity {
            return Err(LoadError::CapacityExceeded { addr, capacity });
        }
        self.chip.load_j(addr, p);
        self.used = self.used.max(addr + 1);
        Ok(())
    }

    fn compute_pass(
        &mut self,
        i: &[HwIParticle],
        exps: &[ExpSet],
        nb: Option<Neighbours<'_>>,
    ) -> Result<Vec<PartialForce>, BlockFpError> {
        let before = self.chip.cycles();
        let r = self.chip.compute_pass(i, exps, nb);
        self.last_pass = self.chip.cycles() - before;
        r
    }

    fn last_pass_cycles(&self) -> u64 {
        self.last_pass
    }

    fn total_cycles(&self) -> u64 {
        self.chip.cycles()
    }

    fn total_interactions(&self) -> u64 {
        self.chip.interactions()
    }

    fn clear(&mut self) {
        self.chip.clear();
        self.used = 0;
    }

    fn mask_path(&mut self, path: &[usize]) -> bool {
        if !path.is_empty() {
            return false;
        }
        let was_alive = !self.chip.is_dead();
        self.chip.set_dead(true);
        was_alive
    }

    fn inject_chip_fault(&mut self, path: &[usize], fault: &ChipFault) -> bool {
        if !path.is_empty() {
            return false;
        }
        match *fault {
            ChipFault::DeadChip => self.chip.set_dead(true),
            ChipFault::DeadPipeline { pipeline } => self.chip.set_pipeline_dead(pipeline),
            ChipFault::StuckJmemBit { addr, lane, bit } => {
                self.chip.add_stuck_jmem_bit(StuckBit { addr, lane, bit })
            }
        }
        true
    }

    fn alive_chips(&self) -> usize {
        usize::from(!self.chip.is_dead())
    }

    fn set_kernel_mode(&mut self, mode: KernelMode) {
        self.chip.set_kernel_mode(mode);
    }
}

/// Re-exported so downstream crates don't need `grape6-chip` directly for
/// the common case.
pub const I_PARALLELISM: usize = I_PARALLEL_PER_CHIP;

#[cfg(test)]
mod tests {
    use super::*;
    use grape6_chip::chip::ChipConfig;
    use nbody_core::Vec3;

    #[test]
    fn chip_unit_tracks_last_pass() {
        let mut u = ChipUnit::new(Chip::new(ChipConfig::default()));
        assert_eq!(u.last_pass_cycles(), 0);
        for k in 0..10 {
            u.load_j(
                k,
                &JParticle {
                    mass: 0.1,
                    pos: Vec3::new(k as f64 * 0.1, 0.2, 0.3),
                    ..Default::default()
                },
            )
            .unwrap();
        }
        assert_eq!(u.n_j(), 10);
        let i = [HwIParticle::from_host(Vec3::ZERO, Vec3::ZERO, 1e-4)];
        let e = [ExpSet::from_magnitudes(10.0, 10.0, 10.0)];
        u.compute_block(&i, &e).unwrap();
        assert_eq!(u.last_pass_cycles(), 30 + 8 * 10);
        assert_eq!(u.total_cycles(), u.last_pass_cycles());
        u.compute_block(&i, &e).unwrap();
        assert_eq!(u.total_cycles(), 2 * u.last_pass_cycles());
        u.clear();
        assert_eq!(u.n_j(), 0);
    }

    #[test]
    fn overfull_chip_is_a_typed_error() {
        let mut u = ChipUnit::new(Chip::new(ChipConfig::default()));
        let cap = u.capacity();
        let err = u.load_j(cap, &JParticle::default()).unwrap_err();
        assert_eq!(
            err,
            LoadError::CapacityExceeded {
                addr: cap,
                capacity: cap
            }
        );
        assert!(err.to_string().contains("out of range"));
        // The failed write left no trace.
        assert_eq!(u.n_j(), 0);
    }
}
