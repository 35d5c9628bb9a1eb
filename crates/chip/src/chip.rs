//! The assembled GRAPE-6 processor chip.
//!
//! Six force pipelines, each 8-way virtually multipipelined (VMP), share one
//! j-particle memory stream: every memory word is fetched once per 8 clock
//! cycles and meanwhile each pipeline cycles through its 8 virtual
//! i-particles, so the chip computes forces on **48 i-particles in
//! parallel** (§3.4: "A GRAPE-6 chip integrates six 8-way VMP pipelines.
//! Therefore it calculates the forces on 48 particles in parallel").
//!
//! Cycle accounting (the quantity the performance model consumes):
//!
//! ```text
//! cycles(block) = pipeline_depth + vmp_ways · n_j      (per chip pass)
//! ```
//!
//! — streaming `n_j` particles costs `vmp_ways · n_j` cycles because each
//! j is held for 8 cycles while the virtual pipelines consume it, and the
//! fill/drain latency of the ~30-stage arithmetic pipeline is paid once per
//! pass.  At 90 MHz with 57 flops per interaction this yields the chip's
//! 30.8 Gflops peak, reproduced in the tests.

use grape6_arith::blockfp::BlockFpError;
use grape6_arith::rsqrt::RsqrtCubedUnit;
use nbody_core::force::JParticle;

use crate::jmem::{HwJParticle, JMemory, StuckBit};
use crate::kernel::{scalar_row, KernelMode, SoaBatch};
use crate::kernel_simd::{simd_block, Neighbours};
use crate::pipeline::{ExpSet, HwIParticle, PartialForce};
use crate::predictor::{predict, predict_batch, PredictedJ};

pub use crate::pipeline::HwIParticle as IRegister;

/// i-particles processed in parallel by one chip (6 pipelines × 8-way VMP).
pub const I_PARALLEL_PER_CHIP: usize = 48;

/// Physical parameters of the chip.
#[derive(Clone, Copy, Debug)]
pub struct ChipConfig {
    /// Number of force pipelines on the die (6 for the real chip).
    pub pipelines: usize,
    /// Virtual multipipelining ways per pipeline (8).
    pub vmp_ways: usize,
    /// Pipeline clock in Hz (90 MHz).
    pub clock_hz: f64,
    /// j-memory capacity in particles.
    pub jmem_capacity: usize,
    /// Fill/drain latency of the arithmetic pipeline, in cycles.
    pub pipeline_depth: u64,
}

impl Default for ChipConfig {
    fn default() -> Self {
        Self {
            pipelines: 6,
            vmp_ways: 8,
            clock_hz: 90.0e6,
            jmem_capacity: 16_384,
            pipeline_depth: 30,
        }
    }
}

impl ChipConfig {
    /// i-particles served in parallel by this configuration.
    pub fn i_parallelism(&self) -> usize {
        self.pipelines * self.vmp_ways
    }

    /// Theoretical peak in flops: `pipelines · clock · 57`.
    pub fn peak_flops(&self) -> f64 {
        self.pipelines as f64 * self.clock_hz * nbody_core::FLOPS_PER_INTERACTION
    }
}

/// One simulated processor chip.
#[derive(Clone, Debug)]
pub struct Chip {
    cfg: ChipConfig,
    jmem: JMemory,
    rsqrt: RsqrtCubedUnit,
    time: f64,
    cycles: u64,
    interactions: u64,
    /// Predicted j-particles, reused across passes.
    predicted: Vec<PredictedJ>,
    /// Which force-pass kernel runs (bitwise-identical either way).
    kernel: KernelMode,
    /// SoA decode of `predicted`, reused across passes (lane kernel).
    soa: SoaBatch,
    /// `time` bits for which `predicted` and `soa` hold the lane kernel's
    /// prediction of the current j-memory contents; `None` once either may
    /// have gone stale (see [`Chip::compute_pass`]).
    predicted_at: Option<u64>,
    /// Fault injection: the whole chip is dead (returns zeros, burns no
    /// cycles — it simply never answers the reduction network).
    dead: bool,
    /// Fault injection: bitmask of dead physical pipelines.  A dead
    /// pipeline's 8 virtual i-slots return zeros, but cycles are still
    /// charged — the memory stream runs regardless.
    dead_pipelines: u64,
}

impl Chip {
    /// Build a chip.
    pub fn new(cfg: ChipConfig) -> Self {
        Self {
            jmem: JMemory::new(cfg.jmem_capacity),
            rsqrt: RsqrtCubedUnit::default(),
            time: 0.0,
            cycles: 0,
            interactions: 0,
            predicted: Vec::new(),
            kernel: KernelMode::default(),
            soa: SoaBatch::default(),
            predicted_at: None,
            dead: false,
            dead_pipelines: 0,
            cfg,
        }
    }

    /// Select the force-pass kernel.  Results are bitwise identical in
    /// either mode; cycle and interaction accounting are unaffected.
    pub fn set_kernel_mode(&mut self, mode: KernelMode) {
        self.kernel = mode;
    }

    /// The force-pass kernel currently selected.
    pub fn kernel_mode(&self) -> KernelMode {
        self.kernel
    }

    /// Kill or revive the whole chip (fault injection).  A dead chip
    /// silently returns all-zero partial forces and consumes no cycles.
    pub fn set_dead(&mut self, dead: bool) {
        self.dead = dead;
    }

    /// True if the chip has been killed.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Kill one physical pipeline (fault injection).  Its 8 virtual
    /// i-slots return zeros; the other pipelines are unaffected.
    pub fn set_pipeline_dead(&mut self, pipeline: usize) {
        assert!(
            pipeline < self.cfg.pipelines,
            "pipeline {pipeline} out of range ({} on die)",
            self.cfg.pipelines
        );
        self.dead_pipelines |= 1 << pipeline;
    }

    /// Bitmask of dead pipelines.
    pub fn dead_pipelines(&self) -> u64 {
        self.dead_pipelines
    }

    /// Jam a j-memory data line stuck at 1 (fault injection).
    pub fn add_stuck_jmem_bit(&mut self, s: StuckBit) {
        self.jmem.add_stuck_bit(s);
        self.predicted_at = None;
    }

    /// Zero the virtual i-slots served by dead pipelines, and empty their
    /// neighbour lists.  VMP slot `k` belongs to physical pipeline
    /// `k / vmp_ways`.
    fn censor_dead_pipelines(
        &self,
        out: &mut [PartialForce],
        exps: &[ExpSet],
        mut lists: Option<&mut [Vec<u32>]>,
    ) {
        if self.dead_pipelines == 0 {
            return;
        }
        for (k, pf) in out.iter_mut().enumerate() {
            if self.dead_pipelines & (1 << (k / self.cfg.vmp_ways)) != 0 {
                *pf = PartialForce::new(exps[k]);
                if let Some(lists) = &mut lists {
                    lists[k].clear();
                }
            }
        }
    }

    /// The chip's configuration.
    pub fn config(&self) -> &ChipConfig {
        &self.cfg
    }

    /// Number of j-particles currently streamed.
    pub fn n_j(&self) -> usize {
        self.jmem.len()
    }

    /// Write a j-particle (host → interface card → memory format).
    pub fn load_j(&mut self, addr: usize, p: &JParticle) {
        self.jmem.write(addr, HwJParticle::from_host(p));
        self.predicted_at = None;
    }

    /// Set the system time the predictor pipeline targets.
    pub fn set_time(&mut self, t: f64) {
        self.time = t;
    }

    /// Current system time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Total clock cycles consumed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Total pairwise interactions evaluated so far.
    pub fn interactions(&self) -> u64 {
        self.interactions
    }

    /// Virtual seconds of pipeline time consumed.
    pub fn elapsed_secs(&self) -> f64 {
        self.cycles as f64 / self.cfg.clock_hz
    }

    /// Drop all j-particles and reset time (not the counters).
    pub fn clear(&mut self) {
        self.jmem.clear();
        self.time = 0.0;
        self.predicted_at = None;
    }

    /// The plain force pass: [`Chip::compute_pass`] without the neighbour
    /// comparators.
    pub fn compute_block(
        &mut self,
        i_regs: &[HwIParticle],
        exps: &[ExpSet],
    ) -> Result<Vec<PartialForce>, BlockFpError> {
        self.compute_pass(i_regs, exps, None)
    }

    /// Run one chip pass: forces on up to 48 i-particles from every stored
    /// j-particle, with the given per-i block exponents, and — with `nb =
    /// Some((h2, lists))` — the hardware neighbour-detection comparators in
    /// the same pass: `lists[i]` is cleared and receives the local address
    /// of every j with unsoftened `r² < h2[i]` (the j-particle coincident
    /// with the i-particle, `r = 0`, is not listed — the pipeline does not
    /// flag self-pairs).  `h2` and `lists` hold one entry per i-register; a
    /// caller that keeps the lists across passes pays no per-i allocation
    /// in steady state.  Dead chips and dead pipelines return empty lists.
    ///
    /// On any block-FP overflow the pass aborts with the error and consumed
    /// cycles are still charged — the host pays for failed passes, exactly
    /// as the real machine does when it retries with a corrected exponent.
    /// On `Err` the list contents are unspecified.
    ///
    /// The hardware re-runs its predictor pipeline on every pass; the
    /// simulator's lane kernel ([`KernelMode::Simd`]) runs it once per
    /// (`time` bits, j-memory contents) and reuses the predicted, decoded
    /// batch on later passes — a block of more than 48 i-particles, or a
    /// retry with a corrected exponent, streams the same predictions.
    /// [`Chip::load_j`], [`Chip::clear`], [`Chip::add_stuck_jmem_bit`], a
    /// [`Chip::set_time`] to different bits and any [`KernelMode::Scalar`]
    /// pass drop the cached batch.  Cycles and interactions are charged per
    /// pass regardless, and the scalar oracle re-predicts every pass.
    pub fn compute_pass(
        &mut self,
        i_regs: &[HwIParticle],
        exps: &[ExpSet],
        mut nb: Option<Neighbours<'_>>,
    ) -> Result<Vec<PartialForce>, BlockFpError> {
        let n_i = i_regs.len();
        // One i-register per virtual pipeline at most.
        assert!(
            n_i <= self.cfg.i_parallelism(),
            "block of {n_i} exceeds chip i-parallelism {}",
            self.cfg.i_parallelism()
        );
        // Every i-register brings its own block-FP windows.
        assert_eq!(exps.len(), n_i, "one ExpSet per i-particle");
        // The comparator needs a radius and a list slot per i-register.
        assert!(
            nb.as_ref()
                .is_none_or(|(h2, lists)| h2.len() == n_i && lists.len() == n_i),
            "one neighbour radius and list per i-particle"
        );
        if self.dead {
            // A dead chip never answers: all-zero partials, no neighbours,
            // no cycles.
            if let Some((_, lists)) = nb {
                lists.iter_mut().for_each(Vec::clear);
            }
            return Ok(exps.iter().map(|&e| PartialForce::new(e)).collect());
        }
        self.charge_and_predict(n_i);
        // Force pipelines: the oracle one i-register at a time, the lane
        // kernel the whole pass at once.
        let mut out = match self.kernel {
            KernelMode::Scalar => (0..n_i)
                .map(|k| {
                    let nb_k = nb.as_mut().map(|(h2, lists)| (h2[k], &mut lists[k]));
                    scalar_row(&self.rsqrt, &i_regs[k], &self.predicted, exps[k], nb_k)
                })
                .collect::<Result<Vec<_>, _>>()?,
            KernelMode::Simd => simd_block(
                &self.rsqrt,
                i_regs,
                exps,
                &self.soa,
                &self.predicted,
                nb.as_mut().map(|(h2, lists)| (*h2, &mut lists[..])),
            )?,
        };
        self.censor_dead_pipelines(&mut out, exps, nb.map(|(_, lists)| lists));
        Ok(out)
    }

    /// Shared pass prologue: charge cycles up front (the hardware streams
    /// the whole memory regardless of whether the host later accepts the
    /// result) and make `predicted` (and, for the lane kernel, `soa`) hold
    /// every stored j predicted to the current time.
    ///
    /// The lane kernel uses the batched SoA predictor pass and skips it
    /// when `predicted_at` says the buffers already hold this time's
    /// prediction of this memory; the scalar oracle keeps the per-particle
    /// loop, statelessly, on every pass, so a `KernelMode::Scalar` run
    /// remains an end-to-end independent reference.  The two are bitwise
    /// identical (`predict_batch` contract).
    fn charge_and_predict(&mut self, n_i: usize) {
        let n_j = self.jmem.len();
        if n_j > 0 && n_i > 0 {
            self.cycles += self.cfg.pipeline_depth + (self.cfg.vmp_ways as u64) * n_j as u64;
            self.interactions += (n_i * n_j) as u64;
        }
        let t = self.time;
        match self.kernel {
            KernelMode::Scalar => {
                // `predicted` is overwritten without `soa` following.
                self.predicted_at = None;
                self.predicted.clear();
                self.predicted.reserve(n_j);
                for p in self.jmem.stream() {
                    self.predicted.push(predict(p, t));
                }
            }
            KernelMode::Simd => {
                let key = Some(t.to_bits());
                if self.predicted_at != key {
                    predict_batch(self.jmem.stream(), t, &mut self.predicted);
                    self.soa.decode(&self.predicted);
                    self.predicted_at = key;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_core::force::{DirectEngine, ForceEngine, ForceResult, IParticle};
    use nbody_core::Vec3;

    fn test_system(n: usize) -> (Vec<f64>, Vec<Vec3>, Vec<Vec3>) {
        // Deterministic scattered particles in the unit box.
        let mut mass = Vec::new();
        let mut pos = Vec::new();
        let mut vel = Vec::new();
        let mut s = 0.4321f64;
        let mut next = || {
            s = (s * 9301.0 + 0.2113).fract();
            s - 0.5
        };
        for _ in 0..n {
            mass.push(0.5 / n as f64 + (next() + 0.5) / n as f64);
            pos.push(Vec3::new(next(), next(), next()));
            vel.push(Vec3::new(next(), next(), next()) * 0.3);
        }
        (mass, pos, vel)
    }

    fn load_chip(chip: &mut Chip, mass: &[f64], pos: &[Vec3], vel: &[Vec3]) {
        for k in 0..mass.len() {
            chip.load_j(
                k,
                &JParticle {
                    mass: mass[k],
                    t0: 0.0,
                    pos: pos[k],
                    vel: vel[k],
                    ..Default::default()
                },
            );
        }
    }

    #[test]
    fn chip_matches_f64_engine_to_pipeline_precision() {
        let (mass, pos, vel) = test_system(64);
        let mut chip = Chip::new(ChipConfig::default());
        load_chip(&mut chip, &mass, &pos, &vel);
        chip.set_time(0.0);

        let mut reference = DirectEngine::new(64);
        for k in 0..64 {
            reference.set_j_particle(
                k,
                &JParticle {
                    mass: mass[k],
                    t0: 0.0,
                    pos: pos[k],
                    vel: vel[k],
                    ..Default::default()
                },
            );
        }
        reference.set_time(0.0);

        let eps2 = 1e-4;
        let i_regs: Vec<HwIParticle> = (0..48)
            .map(|k| HwIParticle::from_host(pos[k], vel[k], eps2))
            .collect();
        let exps = vec![ExpSet::from_magnitudes(30.0, 300.0, 30.0); 48];
        let hw = chip.compute_block(&i_regs, &exps).unwrap();

        let ips: Vec<IParticle> = (0..48)
            .map(|k| IParticle {
                pos: pos[k],
                vel: vel[k],
                eps2,
            })
            .collect();
        let mut want = vec![ForceResult::default(); 48];
        reference.compute(&ips, &mut want);

        for k in 0..48 {
            let got = hw[k].to_force_result();
            let da = (got.acc - want[k].acc).norm() / want[k].acc.norm();
            assert!(da < 3e-5, "i={k}: rel acc err {da:e}");
            let dj = (got.jerk - want[k].jerk).norm() / want[k].jerk.norm().max(1e-3);
            assert!(dj < 3e-4, "i={k}: rel jerk err {dj:e}");
            let dp = (got.pot - want[k].pot).abs() / want[k].pot.abs();
            assert!(dp < 3e-5, "i={k}: rel pot err {dp:e}");
        }
    }

    #[test]
    fn cycle_accounting_formula() {
        let (mass, pos, vel) = test_system(100);
        let mut chip = Chip::new(ChipConfig::default());
        load_chip(&mut chip, &mass, &pos, &vel);
        let i_regs: Vec<HwIParticle> = (0..48)
            .map(|k| HwIParticle::from_host(pos[k % 100], vel[k % 100], 1e-4))
            .collect();
        let exps = vec![ExpSet::from_magnitudes(50.0, 500.0, 50.0); 48];
        chip.compute_block(&i_regs, &exps).unwrap();
        assert_eq!(chip.cycles(), 30 + 8 * 100);
        assert_eq!(chip.interactions(), 48 * 100);
        // Second pass accumulates.
        chip.compute_block(&i_regs, &exps).unwrap();
        assert_eq!(chip.cycles(), 2 * (30 + 8 * 100));
    }

    #[test]
    fn peak_flops_is_30_8_gflops() {
        let cfg = ChipConfig::default();
        assert!((cfg.peak_flops() / 1e9 - 30.78).abs() < 0.01);
        assert_eq!(cfg.i_parallelism(), I_PARALLEL_PER_CHIP);
    }

    #[test]
    fn sustained_flops_approach_peak_for_large_nj() {
        // Efficiency = (48·n_j interactions) / ((depth + 8 n_j) cycles · 6
        // pipes per cycle) → 1 as n_j → ∞.
        let (mass, pos, vel) = test_system(2000);
        let mut chip = Chip::new(ChipConfig::default());
        load_chip(&mut chip, &mass, &pos, &vel);
        let i_regs: Vec<HwIParticle> = (0..48)
            .map(|k| HwIParticle::from_host(pos[k], vel[k], 1e-4))
            .collect();
        let exps = vec![ExpSet::from_magnitudes(100.0, 5000.0, 100.0); 48];
        chip.compute_block(&i_regs, &exps).unwrap();
        let flops = chip.interactions() as f64 * nbody_core::FLOPS_PER_INTERACTION;
        let sustained = flops / chip.elapsed_secs();
        let eff = sustained / chip.config().peak_flops();
        assert!(eff > 0.99, "efficiency {eff}");
    }

    #[test]
    fn partial_blocks_waste_parallelism() {
        // 1 i-particle costs the same cycles as 48 — the §3.4 argument for
        // keeping the machine's i-parallelism near 100, not 1000.
        let (mass, pos, vel) = test_system(500);
        let mut chip = Chip::new(ChipConfig::default());
        load_chip(&mut chip, &mass, &pos, &vel);
        let one = vec![HwIParticle::from_host(pos[0], vel[0], 1e-4)];
        let exps = vec![ExpSet::from_magnitudes(100.0, 1000.0, 100.0)];
        chip.compute_block(&one, &exps).unwrap();
        let cycles_one = chip.cycles();
        let mut chip2 = Chip::new(ChipConfig::default());
        load_chip(&mut chip2, &mass, &pos, &vel);
        let full: Vec<HwIParticle> = (0..48)
            .map(|k| HwIParticle::from_host(pos[k], vel[k], 1e-4))
            .collect();
        let exps = vec![ExpSet::from_magnitudes(100.0, 1000.0, 100.0); 48];
        chip2.compute_block(&full, &exps).unwrap();
        assert_eq!(cycles_one, chip2.cycles());
        assert_eq!(chip2.interactions(), 48 * chip.interactions());
    }

    #[test]
    fn two_chip_partition_is_bit_identical() {
        // Split the j-set over two chips and merge: mantissas must equal
        // the single-chip result exactly (§3.4 reproducibility).
        let (mass, pos, vel) = test_system(90);
        let mut whole = Chip::new(ChipConfig::default());
        load_chip(&mut whole, &mass, &pos, &vel);
        let i_regs: Vec<HwIParticle> = (0..48)
            .map(|k| HwIParticle::from_host(pos[k], vel[k], 1e-4))
            .collect();
        let exps = vec![ExpSet::from_magnitudes(40.0, 400.0, 40.0); 48];
        let full = whole.compute_block(&i_regs, &exps).unwrap();

        let mut a = Chip::new(ChipConfig::default());
        let mut b = Chip::new(ChipConfig::default());
        load_chip(&mut a, &mass[..40], &pos[..40], &vel[..40]);
        load_chip(&mut b, &mass[40..], &pos[40..], &vel[40..]);
        let fa = a.compute_block(&i_regs, &exps).unwrap();
        let fb = b.compute_block(&i_regs, &exps).unwrap();
        for k in 0..48 {
            let mut merged = fa[k];
            merged.merge(&fb[k]).unwrap();
            for c in 0..3 {
                assert_eq!(merged.acc[c].mant(), full[k].acc[c].mant(), "i={k} c={c}");
                assert_eq!(merged.jerk[c].mant(), full[k].jerk[c].mant());
            }
            assert_eq!(merged.pot.mant(), full[k].pot.mant());
        }
    }

    #[test]
    fn neighbour_detection_matches_brute_force() {
        let (mass, pos, vel) = test_system(300);
        let mut chip = Chip::new(ChipConfig::default());
        load_chip(&mut chip, &mass, &pos, &vel);
        chip.set_time(0.0);
        let h2 = 0.09; // h = 0.3
        let i_regs: Vec<HwIParticle> = (0..4)
            .map(|k| HwIParticle::from_host(pos[k], vel[k], 1e-4))
            .collect();
        let exps = vec![ExpSet::from_magnitudes(100.0, 1000.0, 100.0); 4];
        let mut lists = vec![Vec::new(); 4];
        let forces = chip
            .compute_pass(&i_regs, &exps, Some((&[h2; 4], &mut lists)))
            .unwrap();
        assert_eq!(forces.len(), 4);
        for k in 0..4 {
            let want: Vec<u32> = (0..300)
                .filter(|&j| {
                    let d2 = (pos[j] - pos[k]).norm2();
                    d2 > 0.0 && d2 < h2
                })
                .map(|j| j as u32)
                .collect();
            // The comparator works in pipeline precision, so particles
            // within a few ulps of the sphere may differ; for this data
            // the lists must match exactly (no boundary coincidences).
            assert_eq!(lists[k], want, "i={k}");
        }
        // And the forces are the same as the plain path.
        let mut chip2 = Chip::new(ChipConfig::default());
        load_chip(&mut chip2, &mass, &pos, &vel);
        chip2.set_time(0.0);
        let plain = chip2.compute_block(&i_regs, &exps).unwrap();
        for k in 0..4 {
            assert_eq!(forces[k].acc[0].mant(), plain[k].acc[0].mant());
            assert_eq!(forces[k].pot.mant(), plain[k].pot.mant());
        }
    }

    #[test]
    fn dead_chip_returns_zeros_and_no_cycles() {
        let (mass, pos, vel) = test_system(64);
        let mut chip = Chip::new(ChipConfig::default());
        load_chip(&mut chip, &mass, &pos, &vel);
        chip.set_dead(true);
        assert!(chip.is_dead());
        let i_regs: Vec<HwIParticle> = (0..48)
            .map(|k| HwIParticle::from_host(pos[k], vel[k], 1e-4))
            .collect();
        let exps = vec![ExpSet::from_magnitudes(30.0, 300.0, 30.0); 48];
        let out = chip.compute_block(&i_regs, &exps).unwrap();
        for pf in &out {
            let f = pf.to_force_result();
            assert_eq!(f.acc.norm(), 0.0);
            assert_eq!(f.pot, 0.0);
        }
        assert_eq!(chip.cycles(), 0);
        assert_eq!(chip.interactions(), 0);
    }

    #[test]
    fn dead_pipeline_zeros_its_vmp_slots_only() {
        let (mass, pos, vel) = test_system(64);
        let mut chip = Chip::new(ChipConfig::default());
        load_chip(&mut chip, &mass, &pos, &vel);
        chip.set_pipeline_dead(2); // slots 16..24
        let i_regs: Vec<HwIParticle> = (0..48)
            .map(|k| HwIParticle::from_host(pos[k], vel[k], 1e-4))
            .collect();
        let exps = vec![ExpSet::from_magnitudes(30.0, 300.0, 30.0); 48];
        let out = chip.compute_block(&i_regs, &exps).unwrap();
        for (k, pf) in out.iter().enumerate() {
            let f = pf.to_force_result();
            if (16..24).contains(&k) {
                assert_eq!(f.acc.norm(), 0.0, "slot {k} served by dead pipe");
            } else {
                assert!(f.acc.norm() > 0.0, "slot {k} healthy");
            }
        }
        // Cycles are still charged: the memory stream runs regardless.
        assert_eq!(chip.cycles(), 30 + 8 * 64);

        // The comparator pass: the dead pipeline's slots also come back
        // with empty lists (stale entries in the caller's buffers
        // included), under either kernel, and the live slots with the
        // healthy chip's forces and lists.
        let h2 = [0.09; 48];
        let mut healthy = Chip::new(ChipConfig::default());
        load_chip(&mut healthy, &mass, &pos, &vel);
        let mut want_lists = vec![Vec::new(); 48];
        let want = healthy
            .compute_pass(&i_regs, &exps, Some((&h2, &mut want_lists)))
            .unwrap();
        assert!((16..24).any(|k| !want_lists[k].is_empty()));
        for mode in [KernelMode::Scalar, KernelMode::Simd] {
            chip.set_kernel_mode(mode);
            let mut lists = vec![vec![u32::MAX]; 48];
            let got = chip
                .compute_pass(&i_regs, &exps, Some((&h2, &mut lists)))
                .unwrap();
            for k in 0..48 {
                if (16..24).contains(&k) {
                    assert!(
                        lists[k].is_empty(),
                        "slot {k} served by dead pipe ({mode:?})"
                    );
                    assert_eq!(got[k].to_force_result().acc.norm(), 0.0);
                } else {
                    assert_eq!(lists[k], want_lists[k], "slot {k} ({mode:?})");
                    assert_eq!(got[k].pot.mant(), want[k].pot.mant());
                }
            }
        }
    }

    #[test]
    fn stuck_jmem_bit_perturbs_forces() {
        let (mass, pos, vel) = test_system(64);
        let mut healthy = Chip::new(ChipConfig::default());
        load_chip(&mut healthy, &mass, &pos, &vel);
        let mut broken = Chip::new(ChipConfig::default());
        broken.add_stuck_jmem_bit(crate::jmem::StuckBit {
            addr: 0,
            lane: 0,
            bit: 56,
        });
        load_chip(&mut broken, &mass, &pos, &vel);
        // Pin a positive x at the faulted address so bit 56 (= 0.5 length
        // units) is guaranteed clear before the fault forces it high.
        let pinned = JParticle {
            mass: mass[0],
            t0: 0.0,
            pos: nbody_core::Vec3::new(0.125, 0.2, -0.3),
            vel: vel[0],
            ..Default::default()
        };
        healthy.load_j(0, &pinned);
        broken.load_j(0, &pinned);
        let i_regs: Vec<HwIParticle> = (0..8)
            .map(|k| HwIParticle::from_host(pos[k], vel[k], 1e-4))
            .collect();
        let exps = vec![ExpSet::from_magnitudes(30.0, 300.0, 30.0); 8];
        let a = healthy.compute_block(&i_regs, &exps).unwrap();
        let b = broken.compute_block(&i_regs, &exps).unwrap();
        let differs = (0..8).any(|k| {
            a[k].acc[0].mant() != b[k].acc[0].mant() || a[k].pot.mant() != b[k].pot.mant()
        });
        assert!(differs, "bit 56 (0.5 length units) must move the forces");
    }

    #[test]
    fn scalar_and_batched_kernels_are_bitwise_identical() {
        let (mass, pos, vel) = test_system(130);
        let run = |mode: KernelMode| {
            let mut chip = Chip::new(ChipConfig::default());
            chip.set_kernel_mode(mode);
            assert_eq!(chip.kernel_mode(), mode);
            load_chip(&mut chip, &mass, &pos, &vel);
            chip.set_time(0.0);
            let i_regs: Vec<HwIParticle> = (0..48)
                .map(|k| HwIParticle::from_host(pos[k], vel[k], 1e-4))
                .collect();
            let exps = vec![ExpSet::from_magnitudes(50.0, 500.0, 50.0); 48];
            let out = chip.compute_block(&i_regs, &exps).unwrap();
            (out, chip.cycles(), chip.interactions())
        };
        let (scalar, sc_cycles, sc_inter) = run(KernelMode::Scalar);
        let (simd, cycles, inter) = run(KernelMode::Simd);
        // Identical accounting — the kernel is a host-side
        // implementation detail, invisible to the simulated hardware.
        assert_eq!(sc_cycles, cycles);
        assert_eq!(sc_inter, inter);
        for k in 0..48 {
            for c in 0..3 {
                assert_eq!(scalar[k].acc[c].mant(), simd[k].acc[c].mant(), "i={k}");
                assert_eq!(scalar[k].jerk[c].mant(), simd[k].jerk[c].mant());
            }
            assert_eq!(scalar[k].pot.mant(), simd[k].pot.mant());
        }
    }

    #[test]
    fn one_bad_window_in_a_full_block_gives_the_scalar_kernels_error() {
        let (mass, pos, vel) = test_system(130);
        let i_regs: Vec<HwIParticle> = (0..48)
            .map(|k| HwIParticle::from_host(pos[k], vel[k], 1e-4))
            .collect();
        let mut exps = vec![ExpSet::from_magnitudes(50.0, 500.0, 50.0); 48];
        exps[29].jerk = -20;
        let run = |mode: KernelMode, nb: bool| {
            let mut chip = Chip::new(ChipConfig::default());
            chip.set_kernel_mode(mode);
            load_chip(&mut chip, &mass, &pos, &vel);
            let out = if nb {
                chip.compute_pass(
                    &i_regs,
                    &exps,
                    Some((&[0.09; 48], &mut vec![Vec::new(); 48])),
                )
            } else {
                chip.compute_block(&i_regs, &exps)
            };
            // A failed pass is charged like any other.
            assert_eq!(chip.cycles(), 30 + 8 * 130);
            out.unwrap_err()
        };
        for nb in [false, true] {
            let want = run(KernelMode::Scalar, nb);
            assert!(matches!(want, BlockFpError::SummandOverflow { .. }));
            assert_eq!(run(KernelMode::Simd, nb), want, "nb = {nb}");
        }
    }

    #[test]
    fn kernels_agree_on_neighbour_path_and_reuse_buffers() {
        let (mass, pos, vel) = test_system(200);
        let h2 = 0.09;
        let i_regs: Vec<HwIParticle> = (0..8)
            .map(|k| HwIParticle::from_host(pos[k], vel[k], 1e-4))
            .collect();
        let exps = vec![ExpSet::from_magnitudes(100.0, 1000.0, 100.0); 8];
        let run = |mode: KernelMode, lists: &mut [Vec<u32>]| {
            let mut chip = Chip::new(ChipConfig::default());
            chip.set_kernel_mode(mode);
            load_chip(&mut chip, &mass, &pos, &vel);
            chip.set_time(0.0);
            chip.compute_pass(&i_regs, &exps, Some((&[h2; 8], lists)))
                .unwrap()
        };
        let mut sc_lists = vec![Vec::new(); 8];
        let mut simd_lists = vec![Vec::new(); 8];
        let scalar = run(KernelMode::Scalar, &mut sc_lists);
        let simd = run(KernelMode::Simd, &mut simd_lists);
        assert_eq!(sc_lists, simd_lists);
        assert!(sc_lists.iter().any(|l| !l.is_empty()));
        for k in 0..8 {
            assert_eq!(scalar[k].acc[0].mant(), simd[k].acc[0].mant());
            assert_eq!(scalar[k].pot.mant(), simd[k].pot.mant());
        }
        // A reused buffer is refilled identically (capacity retained, no
        // stale entries); a smaller pass fills only its own slots.
        let again = run(KernelMode::Simd, &mut simd_lists);
        assert_eq!(simd_lists, sc_lists);
        assert_eq!(again.len(), 8);
        simd_lists[0].push(u32::MAX);
        let mut small = run_small(&mass, &pos, &vel, &mut simd_lists[..1]);
        assert_eq!(simd_lists, sc_lists);
        assert_eq!(small.remove(0).pot.mant(), scalar[0].pot.mant());
    }

    fn run_small(
        mass: &[f64],
        pos: &[Vec3],
        vel: &[Vec3],
        lists: &mut [Vec<u32>],
    ) -> Vec<PartialForce> {
        let mut chip = Chip::new(ChipConfig::default());
        load_chip(&mut chip, mass, pos, vel);
        chip.set_time(0.0);
        let i_regs = vec![HwIParticle::from_host(pos[0], vel[0], 1e-4)];
        let exps = vec![ExpSet::from_magnitudes(100.0, 1000.0, 100.0)];
        chip.compute_pass(&i_regs, &exps, Some((&[0.09], lists)))
            .unwrap()
    }

    /// Replayable chip set-up: `build` applies every recorded step to a
    /// fresh chip (no pass in between, so it has never predicted), `apply`
    /// applies one step to the warmed chip under test and records it.
    #[derive(Clone)]
    enum Setup {
        Load(usize, JParticle),
        Stuck(StuckBit),
        Clear,
        Time(f64),
    }

    impl Setup {
        fn run(&self, chip: &mut Chip) {
            match self {
                Setup::Load(addr, p) => chip.load_j(*addr, p),
                Setup::Stuck(s) => chip.add_stuck_jmem_bit(*s),
                Setup::Clear => chip.clear(),
                Setup::Time(t) => chip.set_time(*t),
            }
        }
    }

    fn build(history: &[Setup]) -> Chip {
        let mut chip = Chip::new(ChipConfig::default());
        for step in history {
            step.run(&mut chip);
        }
        chip
    }

    fn apply(chip: &mut Chip, history: &mut Vec<Setup>, step: Setup) {
        step.run(chip);
        history.push(step);
    }

    /// What one pass produced — force bits and neighbour lists (empty for
    /// the plain pass), or the block-FP error — and what it charged.
    type PassRecord = (
        Result<(Vec<[i64; 7]>, Vec<Vec<u32>>), BlockFpError>,
        u64,
        u64,
    );

    /// One pass at the chip's current state through either entry point.
    fn pass(chip: &mut Chip, i_regs: &[HwIParticle], nb: bool) -> PassRecord {
        // Room for the cluster's own forces; a unit mass at softening
        // distance (the flyby below) overflows the acc window.
        let exps = vec![
            ExpSet {
                acc: 9,
                jerk: 40,
                pot: 20
            };
            i_regs.len()
        ];
        let (c0, n0) = (chip.cycles(), chip.interactions());
        let mut lists = vec![Vec::new(); if nb { i_regs.len() } else { 0 }];
        let out = if nb {
            chip.compute_pass(i_regs, &exps, Some((&vec![0.09; i_regs.len()], &mut lists)))
        } else {
            chip.compute_block(i_regs, &exps)
        };
        let out = out.map(|forces| {
            let bits = forces
                .iter()
                .map(|pf| {
                    [
                        pf.acc[0].mant(),
                        pf.acc[1].mant(),
                        pf.acc[2].mant(),
                        pf.jerk[0].mant(),
                        pf.jerk[1].mant(),
                        pf.jerk[2].mant(),
                        pf.pot.mant(),
                    ]
                })
                .collect();
            (bits, lists)
        });
        (out, chip.cycles() - c0, chip.interactions() - n0)
    }

    /// A warmed chip (one lane-kernel pass at `t`, so its prediction is
    /// cached) goes through every event that can make the cache stale;
    /// after each, its next passes must equal — forces, neighbour lists,
    /// error, cycles and interactions charged — those of a chip freshly
    /// built to the same state, which has nothing cached.
    #[test]
    fn warmed_chip_equals_fresh_chip_after_every_invalidator() {
        let (mass, pos, vel) = test_system(200);
        let jp = |k: usize, t0: f64| JParticle {
            mass: mass[k],
            t0,
            pos: pos[k],
            vel: vel[k],
            acc: vel[(k + 1) % 200] * 0.5,
            jerk: pos[(k + 2) % 200] * 0.1,
            ..Default::default()
        };
        let i_regs: Vec<HwIParticle> = (0..48)
            .map(|k| HwIParticle::from_host(pos[k], vel[k], 1e-4))
            .collect();
        let (t, t2, t3) = (0.0625, 0.125, 0.1875);
        // A unit mass that is ~1 length unit from i-particle 0 at `t` and
        // `t2` but at softening distance from it at `t3`, where its force
        // overflows the window: the lane group is discarded and re-run
        // through the oracle on the chip's `predicted` buffer.
        let flyby = JParticle {
            mass: 1.0,
            t0: 0.0,
            pos: pos[0] + Vec3::new(0.007 - 16.0 * t3, 0.0, 0.0),
            vel: Vec3::new(16.0, 0.0, 0.0),
            ..Default::default()
        };
        for nb in [false, true] {
            let mut history: Vec<Setup> = (0..150).map(|k| Setup::Load(k, jp(k, 0.0))).collect();
            history.push(Setup::Load(150, flyby));
            history.push(Setup::Time(t));
            let mut warm = build(&history);
            let check = |warm: &mut Chip, history: &[Setup], label: &str| {
                let mut fresh = build(history);
                let want = pass(&mut fresh, &i_regs, nb);
                let charged = if fresh.n_j() > 0 {
                    30 + 8 * fresh.n_j()
                } else {
                    0
                };
                assert_eq!(want.1, charged as u64, "cycles of one pass ({label})");
                assert_eq!(want.2, (48 * fresh.n_j()) as u64, "{label}");
                // Twice: the pass right after the event, then the pass
                // that runs on what that one cached.
                for round in 0..2 {
                    let got = pass(warm, &i_regs, nb);
                    assert!(got == want, "{label}, nb={nb}, pass {round} after");
                }
                want.0
            };
            let base = check(&mut warm, &history, "warm-up").unwrap();
            if nb {
                assert!(base.1.iter().any(|l| !l.is_empty()), "lists exercised");
            }

            // Rewrite one address (a different particle lands there).
            apply(&mut warm, &mut history, Setup::Load(7, jp(160, 0.03125)));
            let moved = check(&mut warm, &history, "load_j of one address").unwrap();
            assert!(moved.0 != base.0, "the write must move the forces");

            // A stuck line takes effect at the next write to its address.
            let stuck = StuckBit {
                addr: 3,
                lane: 1,
                bit: 57,
            };
            apply(&mut warm, &mut history, Setup::Stuck(stuck));
            check(&mut warm, &history, "add_stuck_jmem_bit").unwrap();
            apply(&mut warm, &mut history, Setup::Load(3, jp(3, 0.0)));
            check(&mut warm, &history, "write through the stuck line").unwrap();

            // New time; then back to the first one.
            apply(&mut warm, &mut history, Setup::Time(t2));
            let later = check(&mut warm, &history, "set_time(t')").unwrap();
            apply(&mut warm, &mut history, Setup::Time(t));
            let back = check(&mut warm, &history, "set_time(t) again").unwrap();
            assert!(later.0 != back.0, "time must move the forces");

            // The oracle overwrites `predicted` without `soa` following:
            // cache the flyby's overflow at t3, run a Scalar pass (and no
            // other) at t2, come back to t3.  A lane pass that trusted the
            // old key would hand the oracle t2's particles and get forces,
            // not the error.
            apply(&mut warm, &mut history, Setup::Time(t3));
            let overflow = check(&mut warm, &history, "overflowing pass");
            assert!(overflow.is_err(), "the flyby must overflow at t3");
            apply(&mut warm, &mut history, Setup::Time(t2));
            warm.set_kernel_mode(KernelMode::Scalar);
            let scalar = pass(&mut warm, &i_regs, nb);
            warm.set_kernel_mode(KernelMode::Simd);
            apply(&mut warm, &mut history, Setup::Time(t3));
            let again = check(&mut warm, &history, "Scalar pass at another time");
            assert!(again == overflow);
            apply(&mut warm, &mut history, Setup::Time(t2));
            let simd = check(&mut warm, &history, "Simd pass after the Scalar one");
            assert!(scalar.0 == simd, "kernels agree, nb={nb}");

            // A clone carries the cache; the two then diverge.
            apply(&mut warm, &mut history, Setup::Time(t));
            check(&mut warm, &history, "before the clone").unwrap();
            let mut twin = warm.clone();
            let mut twin_history = history.clone();
            apply(&mut twin, &mut twin_history, Setup::Load(11, jp(170, 0.0)));
            apply(&mut warm, &mut history, Setup::Load(12, jp(180, 0.0)));
            let a = check(&mut twin, &twin_history, "clone, diverging write").unwrap();
            let b = check(&mut warm, &history, "original, diverging write").unwrap();
            assert!(a.0 != b.0, "the twins hold different memories");

            // `clear` resets the time to 0: cache a prediction at that very
            // time first, so only `clear` itself can drop it.
            apply(&mut warm, &mut history, Setup::Time(0.0));
            check(&mut warm, &history, "t = 0").unwrap();
            apply(&mut warm, &mut history, Setup::Clear);
            check(&mut warm, &history, "clear").unwrap();
            for k in 0..40 {
                apply(&mut warm, &mut history, Setup::Load(k, jp(199 - k, 0.0)));
            }
            apply(&mut warm, &mut history, Setup::Time(t));
            check(&mut warm, &history, "clear + reload").unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "exceeds chip i-parallelism")]
    fn oversize_block_rejected() {
        let mut chip = Chip::new(ChipConfig::default());
        let regs = vec![HwIParticle::from_host(Vec3::ZERO, Vec3::ZERO, 0.0); 49];
        let exps = vec![ExpSet::DEFAULT; 49];
        let _ = chip.compute_block(&regs, &exps);
    }
}
