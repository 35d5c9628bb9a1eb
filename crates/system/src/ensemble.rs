//! The broadcast / divide / reduce combinator.
//!
//! A processor module is four chips plus a summation FPGA; a board is eight
//! modules plus broadcast and reduction networks; a host port is four boards
//! behind a network board.  Structurally identical (paper §2: "The structure
//! of a processor module is the same as that of the processor board"), so
//! [`Ensemble`] implements the pattern once:
//!
//! * **j-distribution** — global address `a` maps to child `a % k`, local
//!   address `a / k` (round-robin keeps the children's memory streams
//!   balanced, so the critical-path pass time is minimal);
//! * **broadcast** — every child receives the same i-block and system time;
//! * **reduce** — partial forces are merged with the exact block
//!   floating-point adders; a fixed [`Ensemble::reduction_latency`] is added
//!   to the critical path per level, modelling the FPGA adder tree and the
//!   LVDS hop.
//!
//! Children execute concurrently exactly as the hardware does, fanned out
//! over [`nbody_core::fanout`]: child `k`'s partial forces land in slot `k`
//! and are merged in ascending `k` on the caller, so neither the completion
//! order nor the worker count can reach the bits — and the block-FP merge
//! would make the result independent of the order even if they could.

use grape6_arith::blockfp::BlockFpError;
use grape6_chip::kernel::KernelMode;
use grape6_chip::pipeline::{ExpSet, HwIParticle, PartialForce};
use grape6_chip::Neighbours;
use grape6_fault::{ChipFault, ReductionFaultSchedule};
use nbody_core::fanout;
use nbody_core::force::JParticle;

use crate::unit::{GrapeUnit, LoadError};

/// Default reduction-tree latency charged per hierarchy level, in chip
/// clock cycles (FPGA adder pass + serial-link hop).
pub const DEFAULT_REDUCTION_LATENCY: u64 = 32;

/// A homogeneous group of child units acting as one larger unit.
#[derive(Clone, Debug)]
pub struct Ensemble<U> {
    children: Vec<U>,
    /// Which children are in service.  Masked (failed) children take no
    /// j-particles and contribute nothing to forces or the critical path;
    /// the round-robin distribution runs over the survivors only.
    active: Vec<bool>,
    used: usize,
    last_pass: u64,
    total: u64,
    /// Compute passes issued to this ensemble (drives scheduled
    /// reduction glitches).
    passes: u64,
    /// Injected reduction-network fault, if any.
    reduction_fault: Option<ReductionFaultSchedule>,
    /// Walk children through [`fanout`] (`true`, the hardware-faithful
    /// default — all children genuinely run at once, as far as the host
    /// has cores) or strictly in sequence (`false`, the serial baseline).
    /// Bitwise-invisible either way.
    parallel: bool,
    /// Cycles added to the critical path for this level's reduction.
    pub reduction_latency: u64,
    /// Per-child neighbour-list scratch, one buffer per child (masked
    /// children keep theirs as it was).  Handing each child its own buffer
    /// keeps the concurrent walk race-free and makes the steady state of a
    /// comparator [`GrapeUnit::compute_pass`] allocation-free; a plain
    /// pass never touches it.
    nb_scratch: Vec<Vec<Vec<u32>>>,
}

impl<U: GrapeUnit> Ensemble<U> {
    /// Group `children` into one unit.
    pub fn new(children: Vec<U>) -> Self {
        assert!(!children.is_empty(), "an ensemble needs at least one child");
        Self {
            active: vec![true; children.len()],
            nb_scratch: vec![Vec::new(); children.len()],
            children,
            used: 0,
            last_pass: 0,
            total: 0,
            passes: 0,
            reduction_fault: None,
            parallel: true,
            reduction_latency: DEFAULT_REDUCTION_LATENCY,
        }
    }

    /// Whether compute passes walk the children concurrently.
    pub fn is_parallel(&self) -> bool {
        self.parallel
    }

    /// Number of direct children.
    pub fn len(&self) -> usize {
        self.children.len()
    }

    /// Always false (construction requires ≥ 1 child).
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }

    /// Immutable access to the children (tests, inspection).
    pub fn children(&self) -> &[U] {
        &self.children
    }

    /// Mutable access to the children (self-test drives them directly).
    pub fn children_mut(&mut self) -> &mut [U] {
        &mut self.children
    }

    /// Per-child service flags.
    pub fn active(&self) -> &[bool] {
        &self.active
    }

    /// Children currently in service.
    pub fn n_active(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Compute passes issued so far.
    pub fn passes(&self) -> u64 {
        self.passes
    }

    /// True if this pass's reduction result comes back corrupted.
    fn reduction_glitches_now(&self) -> bool {
        match &self.reduction_fault {
            Some(ReductionFaultSchedule::Permanent) => true,
            Some(ReductionFaultSchedule::AtPasses(v)) => v.contains(&self.passes),
            None => false,
        }
    }
}

impl<U: GrapeUnit> GrapeUnit for Ensemble<U> {
    fn capacity(&self) -> usize {
        self.children
            .iter()
            .zip(&self.active)
            .filter(|(_, &a)| a)
            .map(|(c, _)| c.capacity())
            .sum()
    }

    fn n_j(&self) -> usize {
        self.used
    }

    fn set_time(&mut self, t: f64) {
        for c in &mut self.children {
            c.set_time(t);
        }
    }

    fn load_j(&mut self, addr: usize, p: &JParticle) -> Result<(), LoadError> {
        // Round-robin over the in-service children, in order.
        let k = self.n_active();
        if k == 0 {
            return Err(LoadError::NoActiveChildren { addr });
        }
        let child = (0..self.children.len())
            .filter(|&c| self.active[c])
            .nth(addr % k)
            .expect("addr % k indexes the k in-service children");
        // A child error reports the address in *this* level's space — the
        // caller has no view of the round-robin subdivision.
        self.children[child]
            .load_j(addr / k, p)
            .map_err(|e| match e {
                LoadError::NoActiveChildren { .. } => LoadError::NoActiveChildren { addr },
                LoadError::CapacityExceeded { .. } => LoadError::CapacityExceeded {
                    addr,
                    capacity: self.capacity(),
                },
            })?;
        self.used = self.used.max(addr + 1);
        Ok(())
    }

    fn compute_pass(
        &mut self,
        i: &[HwIParticle],
        exps: &[ExpSet],
        nb: Option<Neighbours<'_>>,
    ) -> Result<Vec<PartialForce>, BlockFpError> {
        // The comparator fills one list per i-particle under one radius each.
        assert!(
            nb.as_ref()
                .is_none_or(|(h2, lists)| h2.len() == i.len() && lists.len() == i.len()),
            "one neighbour radius and list per i-particle"
        );
        self.passes += 1;
        let glitch = self.reduction_glitches_now();
        let h2 = nb.as_ref().map(|&(h2, _)| h2);
        // All in-service children run concurrently on the same broadcast
        // i-block (or in sequence for the serial baseline — same bits
        // either way); masked children are never driven.  A comparator
        // pass hands each child its own scratch lists, so the concurrent
        // walk never shares a list and repeat passes reuse the allocations.
        let active = &self.active;
        let walk = |k: usize, (c, buf): (&mut U, &mut Vec<Vec<u32>>)| {
            active[k].then(|| {
                let nb = h2.map(|h2| {
                    buf.resize_with(i.len(), Vec::new);
                    (h2, &mut buf[..])
                });
                c.compute_pass(i, exps, nb)
            })
        };
        let pairs = self.children.iter_mut().zip(&mut self.nb_scratch);
        let partials: Vec<Option<Result<Vec<PartialForce>, BlockFpError>>> = if self.parallel {
            fanout::map(pairs, walk)
        } else {
            pairs.enumerate().map(|(k, pair)| walk(k, pair)).collect()
        };
        // Critical path = slowest in-service child + this level's reduction.
        let slowest = self
            .children
            .iter()
            .zip(&self.active)
            .filter(|(_, &a)| a)
            .map(|(c, _)| c.last_pass_cycles())
            .max()
            .unwrap_or(0);
        self.last_pass = slowest + self.reduction_latency;
        self.total += self.last_pass;
        // Cycles above are charged even when the reduction network corrupts
        // the result — the chips ran; only the sum is unusable.  The error
        // is indistinguishable from a block-exponent parity fault, which is
        // exactly how the host detects it.
        if glitch {
            return Err(BlockFpError::ExponentMismatch { left: 0, right: 1 });
        }
        // Exact reduction over the survivors, in child order.
        let mut acc: Option<Vec<PartialForce>> = None;
        for res in partials.into_iter().flatten() {
            let forces = res?;
            match &mut acc {
                None => acc = Some(forces),
                Some(a) => {
                    for (x, y) in a.iter_mut().zip(&forces) {
                        x.merge(y)?;
                    }
                }
            }
        }
        if let Some((_, lists)) = nb {
            // Translate the survivors' local addresses to this level's
            // space: the inverse of `load_j`'s round-robin, whose child
            // index is the position in the active list.
            let k = self.n_active() as u32;
            lists.iter_mut().for_each(Vec::clear);
            let survivors = self.nb_scratch.iter().zip(&self.active).filter(|(_, &a)| a);
            for (active_pos, (child_lists, _)) in (0u32..).zip(survivors) {
                for (slot, child_nb) in lists.iter_mut().zip(child_lists) {
                    slot.extend(child_nb.iter().map(|&local| local * k + active_pos));
                }
            }
            lists.iter_mut().for_each(|l| l.sort_unstable());
        }
        // A fully-masked ensemble contributes nothing (the caller decides
        // whether an empty machine is an error).
        Ok(acc.unwrap_or_else(|| exps.iter().map(|&e| PartialForce::new(e)).collect()))
    }

    fn last_pass_cycles(&self) -> u64 {
        self.last_pass
    }

    fn total_cycles(&self) -> u64 {
        self.total
    }

    fn total_interactions(&self) -> u64 {
        self.children.iter().map(|c| c.total_interactions()).sum()
    }

    fn clear(&mut self) {
        for c in &mut self.children {
            c.clear();
        }
        self.used = 0;
    }

    fn mask_path(&mut self, path: &[usize]) -> bool {
        let Some(&idx) = path.first() else {
            return false; // an ensemble cannot mask itself from inside
        };
        if idx >= self.children.len() {
            return false;
        }
        if path.len() == 1 {
            let was = self.active[idx];
            self.active[idx] = false;
            was
        } else {
            let r = self.children[idx].mask_path(&path[1..]);
            // Cascade: a child with no surviving capacity is dead weight on
            // the round-robin — mask it at this level too.
            if self.children[idx].capacity() == 0 {
                self.active[idx] = false;
            }
            r
        }
    }

    fn inject_chip_fault(&mut self, path: &[usize], fault: &ChipFault) -> bool {
        match path.first() {
            Some(&idx) if idx < self.children.len() => {
                self.children[idx].inject_chip_fault(&path[1..], fault)
            }
            _ => false,
        }
    }

    fn inject_reduction_fault(&mut self, path: &[usize], sched: &ReductionFaultSchedule) -> bool {
        match path.first() {
            None => {
                self.reduction_fault = Some(sched.clone());
                true
            }
            Some(&idx) if idx < self.children.len() => {
                self.children[idx].inject_reduction_fault(&path[1..], sched)
            }
            _ => false,
        }
    }

    fn alive_chips(&self) -> usize {
        self.children
            .iter()
            .zip(&self.active)
            .filter(|(_, &a)| a)
            .map(|(c, _)| c.alive_chips())
            .sum()
    }

    fn pass_count(&self) -> u64 {
        self.passes
    }

    fn restore_pass_count(&mut self, passes: u64) {
        self.passes = passes;
        for c in &mut self.children {
            c.restore_pass_count(passes);
        }
    }

    fn set_parallel(&mut self, parallel: bool) {
        self.parallel = parallel;
        for c in &mut self.children {
            c.set_parallel(parallel);
        }
    }

    fn set_kernel_mode(&mut self, mode: KernelMode) {
        for c in &mut self.children {
            c.set_kernel_mode(mode);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit::ChipUnit;
    use grape6_chip::chip::{Chip, ChipConfig};
    use nbody_core::Vec3;

    fn chips(n: usize) -> Vec<ChipUnit> {
        (0..n)
            .map(|_| ChipUnit::new(Chip::new(ChipConfig::default())))
            .collect()
    }

    fn particle(k: usize) -> JParticle {
        let a = k as f64 * 0.37;
        JParticle {
            mass: 0.01 + 0.001 * (k % 7) as f64,
            pos: Vec3::new(a.cos(), a.sin(), 0.05 * (k % 11) as f64 - 0.25),
            vel: Vec3::new(-a.sin() * 0.1, a.cos() * 0.1, 0.0),
            ..Default::default()
        }
    }

    #[test]
    fn round_robin_distribution_balances() {
        let mut e = Ensemble::new(chips(4));
        for k in 0..17 {
            e.load_j(k, &particle(k)).unwrap();
        }
        assert_eq!(e.n_j(), 17);
        // 17 over 4 children: 5,4,4,4.
        let counts: Vec<usize> = e.children().iter().map(|c| c.n_j()).collect();
        assert_eq!(counts, vec![5, 4, 4, 4]);
    }

    #[test]
    fn ensemble_matches_single_chip_bitwise() {
        // The same 60 particles through one chip vs a 4-chip ensemble:
        // mantissas identical (§3.4 partition independence, machine level).
        let n = 60;
        let mut single = ChipUnit::new(Chip::new(ChipConfig::default()));
        let mut group = Ensemble::new(chips(4));
        for k in 0..n {
            single.load_j(k, &particle(k)).unwrap();
            group.load_j(k, &particle(k)).unwrap();
        }
        single.set_time(0.0);
        group.set_time(0.0);
        let i: Vec<HwIParticle> = (0..48)
            .map(|k| {
                let p = particle(k + 100);
                HwIParticle::from_host(p.pos, p.vel, 1e-4)
            })
            .collect();
        let exps = vec![ExpSet::from_magnitudes(5.0, 5.0, 5.0); 48];
        let a = single.compute_block(&i, &exps).unwrap();
        let b = group.compute_block(&i, &exps).unwrap();
        for k in 0..48 {
            for c in 0..3 {
                assert_eq!(a[k].acc[c].mant(), b[k].acc[c].mant(), "i={k} c={c}");
                assert_eq!(a[k].jerk[c].mant(), b[k].jerk[c].mant());
            }
            assert_eq!(a[k].pot.mant(), b[k].pot.mant());
        }
    }

    /// Mantissas and windows of every accumulator of a block.
    fn bits(forces: &[PartialForce]) -> Vec<([i64; 7], ExpSet)> {
        forces
            .iter()
            .map(|f| {
                let m = |a: &grape6_arith::blockfp::BlockAccum| a.mant();
                let mants = [
                    m(&f.acc[0]),
                    m(&f.acc[1]),
                    m(&f.acc[2]),
                    m(&f.jerk[0]),
                    m(&f.jerk[1]),
                    m(&f.jerk[2]),
                    m(&f.pot),
                ];
                (mants, f.exps())
            })
            .collect()
    }

    #[test]
    fn serial_walk_matches_parallel_walk_bitwise() {
        // §3.4 on real threads: the fanned-out walk and the strictly
        // sequential walk of the paper's full host — 4 boards × 8 modules
        // × 4 chips, 2 j per chip — produce identical bits, identical
        // neighbour lists, identical errors and identical cycle counts.
        use crate::machine::MachineConfig;
        let cfg = MachineConfig::builder().jmem_capacity(64).build().unwrap();
        let n = 2 * cfg.total_chips();
        let i: Vec<HwIParticle> = (0..48)
            .map(|k| {
                let p = particle(k + 100);
                HwIParticle::from_host(p.pos, p.vel, 1e-4)
            })
            .collect();
        let exps = vec![ExpSet::from_magnitudes(5.0, 5.0, 5.0); 48];
        let h2 = vec![0.36; 48];
        // `degrade`: one module of board 1 masked before loading, and
        // board 2's reduction network glitching on its pass 2.
        for degrade in [false, true] {
            let mut par = cfg.build();
            let mut ser = cfg.build();
            ser.set_parallel(false);
            assert!(par.is_parallel() && !ser.is_parallel());
            assert!(par.children()[3].children()[7].is_parallel());
            for m in [&mut par, &mut ser] {
                if degrade {
                    assert!(m.mask_path(&[1, 3]));
                    let glitch = ReductionFaultSchedule::AtPasses(vec![2]);
                    assert!(m.inject_reduction_fault(&[2], &glitch));
                }
                for k in 0..n {
                    m.load_j(k, &particle(k)).unwrap();
                }
                m.set_time(0.0);
            }
            let (mut nb_par, mut nb_ser) = (vec![Vec::new(); 48], vec![Vec::new(); 48]);
            // What the last plain pass produced and charged: the
            // comparator pass after it must match it.
            let mut plain = None;
            let mut plain_step = (0, 0, 0, 0);
            let mut compared = 0;
            for pass in 1..=4 {
                let before = (par.passes(), par.total_cycles(), par.total_interactions());
                let (a, b) = if pass % 2 == 1 {
                    (par.compute_block(&i, &exps), ser.compute_block(&i, &exps))
                } else {
                    (
                        par.compute_pass(&i, &exps, Some((&h2, &mut nb_par))),
                        ser.compute_pass(&i, &exps, Some((&h2, &mut nb_ser))),
                    )
                };
                assert_eq!(par.last_pass_cycles(), ser.last_pass_cycles());
                assert_eq!(par.total_cycles(), ser.total_cycles());
                assert_eq!(par.total_interactions(), ser.total_interactions());
                assert_eq!((par.passes(), ser.passes()), (pass, pass));
                // One pass on the clock and the same cycles and interactions
                // charged, with the comparators on or off.
                let step = (
                    par.passes() - before.0,
                    par.total_cycles() - before.1,
                    par.total_interactions() - before.2,
                    par.last_pass_cycles(),
                );
                if pass % 2 == 1 {
                    plain_step = step;
                } else {
                    assert_eq!(
                        step,
                        plain_step,
                        "pass {pass} charged like pass {}",
                        pass - 1
                    );
                }
                if degrade && pass == 2 {
                    assert_eq!(a.unwrap_err(), b.unwrap_err(), "same glitch, same error");
                    continue;
                }
                let got = bits(&a.unwrap());
                assert_eq!(got, bits(&b.unwrap()), "pass {pass}");
                if pass % 2 == 1 {
                    plain = Some(got);
                    continue;
                }
                assert_eq!(nb_par, nb_ser);
                assert!(nb_par.iter().any(|l| !l.is_empty()));
                assert!(nb_par.iter().all(|l| l.windows(2).all(|w| w[0] < w[1])));
                let want = plain
                    .take()
                    .expect("a plain pass precedes each comparator pass");
                assert_eq!(
                    got,
                    want,
                    "comparator pass {pass} vs plain pass {}",
                    pass - 1
                );
                compared += 1;
            }
            // The glitch takes pass 2, and with it the first pair.
            assert_eq!(compared, if degrade { 1 } else { 2 });
        }
    }

    #[test]
    fn critical_path_beats_serial_sum() {
        // 4 chips with 100 j each: pass = 30 + 8·100 + reduction, not 4×.
        let mut e = Ensemble::new(chips(4));
        for k in 0..400 {
            e.load_j(k, &particle(k)).unwrap();
        }
        let i = [HwIParticle::from_host(Vec3::ZERO, Vec3::ZERO, 1e-2)];
        let exps = [ExpSet::from_magnitudes(50.0, 50.0, 50.0)];
        e.compute_block(&i, &exps).unwrap();
        assert_eq!(
            e.last_pass_cycles(),
            30 + 8 * 100 + DEFAULT_REDUCTION_LATENCY
        );
        assert_eq!(e.total_interactions(), 400);
    }

    #[test]
    fn nested_ensembles_compose() {
        // A "module" of 2 chips inside a "board" of 2 modules = 4 chips.
        let modules: Vec<Ensemble<ChipUnit>> = (0..2).map(|_| Ensemble::new(chips(2))).collect();
        let mut board = Ensemble::new(modules);
        for k in 0..100 {
            board.load_j(k, &particle(k)).unwrap();
        }
        board.set_time(0.0);
        assert_eq!(board.n_j(), 100);
        assert_eq!(board.capacity(), 4 * 16_384);
        let i = [HwIParticle::from_host(
            Vec3::new(0.5, 0.5, 0.5),
            Vec3::ZERO,
            1e-2,
        )];
        let exps = [ExpSet::from_magnitudes(20.0, 20.0, 20.0)];
        let f = board.compute_block(&i, &exps).unwrap();
        // Compare against one flat chip.
        let mut flat = ChipUnit::new(Chip::new(ChipConfig::default()));
        for k in 0..100 {
            flat.load_j(k, &particle(k)).unwrap();
        }
        flat.set_time(0.0);
        let g = flat.compute_block(&i, &exps).unwrap();
        assert_eq!(f[0].acc[0].mant(), g[0].acc[0].mant());
        assert_eq!(f[0].pot.mant(), g[0].pot.mant());
        // Two reduction levels on the critical path: 25 j on the fullest
        // chip ⇒ 30 + 200 + 2·latency.
        assert_eq!(
            board.last_pass_cycles(),
            30 + 8 * 25 + 2 * DEFAULT_REDUCTION_LATENCY
        );
    }

    #[test]
    fn neighbour_addresses_translate_through_hierarchy() {
        // Load 40 particles into a 3-chip ensemble; the neighbour lists
        // must come back in GLOBAL addresses, matching brute force.
        let n = 40;
        let mut e = Ensemble::new(chips(3));
        for k in 0..n {
            e.load_j(k, &particle(k)).unwrap();
        }
        e.set_time(0.0);
        let probe_src = particle(5);
        let i = [HwIParticle::from_host(probe_src.pos, probe_src.vel, 1e-4)];
        let exps = [ExpSet::from_magnitudes(10.0, 10.0, 10.0)];
        let h2 = 0.36; // h = 0.6
        let mut lists = vec![Vec::new()];
        e.compute_pass(&i, &exps, Some((&[h2], &mut lists)))
            .unwrap();
        let want: Vec<u32> = (0..n)
            .filter(|&j| {
                let d2 = (particle(j).pos - probe_src.pos).norm2();
                d2 > 0.0 && d2 < h2
            })
            .map(|j| j as u32)
            .collect();
        assert_eq!(lists[0], want);
    }

    #[test]
    fn clear_resets_occupancy_not_counters() {
        let mut e = Ensemble::new(chips(2));
        for k in 0..10 {
            e.load_j(k, &particle(k)).unwrap();
        }
        let i = [HwIParticle::from_host(Vec3::ZERO, Vec3::ZERO, 1e-2)];
        let exps = [ExpSet::from_magnitudes(20.0, 20.0, 20.0)];
        e.compute_block(&i, &exps).unwrap();
        let cycles = e.total_cycles();
        assert!(cycles > 0);
        e.clear();
        assert_eq!(e.n_j(), 0);
        assert_eq!(e.total_cycles(), cycles);
    }

    #[test]
    #[should_panic(expected = "at least one child")]
    fn empty_ensemble_rejected() {
        let _ = Ensemble::<ChipUnit>::new(vec![]);
    }

    #[test]
    fn fully_masked_ensemble_load_is_a_typed_error() {
        let mut e = Ensemble::new(chips(2));
        assert!(e.mask_path(&[0]));
        assert!(e.mask_path(&[1]));
        let err = e.load_j(3, &particle(3)).unwrap_err();
        assert_eq!(err, LoadError::NoActiveChildren { addr: 3 });
        assert!(err.to_string().contains("no in-service children"));
    }

    #[test]
    fn overfull_ensemble_reports_its_own_address_space() {
        // 2 chips × 16384: global address 2·16384 overflows; the error must
        // carry the ensemble-level address and capacity, not the child's.
        let mut e = Ensemble::new(chips(2));
        let cap = e.capacity();
        let err = e.load_j(cap, &particle(0)).unwrap_err();
        assert_eq!(
            err,
            LoadError::CapacityExceeded {
                addr: cap,
                capacity: cap
            }
        );
    }

    #[test]
    fn masked_child_is_skipped_and_results_stay_exact() {
        // 4-chip ensemble with one chip masked before loading must agree
        // bitwise with a 3-chip ensemble: the round-robin runs over the
        // survivors, and block FP makes the partition invisible.
        let n = 45;
        let mut degraded = Ensemble::new(chips(4));
        assert!(degraded.mask_path(&[1]));
        assert!(!degraded.mask_path(&[1]), "second mask is a no-op");
        assert_eq!(degraded.n_active(), 3);
        assert_eq!(degraded.capacity(), 3 * 16_384);
        let mut healthy = Ensemble::new(chips(3));
        for k in 0..n {
            degraded.load_j(k, &particle(k)).unwrap();
            healthy.load_j(k, &particle(k)).unwrap();
        }
        degraded.set_time(0.0);
        healthy.set_time(0.0);
        let i: Vec<HwIParticle> = (0..8)
            .map(|k| {
                let p = particle(k + 100);
                HwIParticle::from_host(p.pos, p.vel, 1e-4)
            })
            .collect();
        let exps = vec![ExpSet::from_magnitudes(5.0, 5.0, 5.0); 8];
        let a = degraded.compute_block(&i, &exps).unwrap();
        let b = healthy.compute_block(&i, &exps).unwrap();
        for k in 0..8 {
            assert_eq!(a[k].acc[0].mant(), b[k].acc[0].mant(), "i={k}");
            assert_eq!(a[k].pot.mant(), b[k].pot.mant());
        }
        assert_eq!(degraded.alive_chips(), 3);
    }

    #[test]
    fn masked_child_neighbour_addresses_stay_global() {
        let n = 40;
        let mut e = Ensemble::new(chips(3));
        assert!(e.mask_path(&[2]));
        for k in 0..n {
            e.load_j(k, &particle(k)).unwrap();
        }
        e.set_time(0.0);
        let probe_src = particle(5);
        let i = [HwIParticle::from_host(probe_src.pos, probe_src.vel, 1e-4)];
        let exps = [ExpSet::from_magnitudes(10.0, 10.0, 10.0)];
        let h2 = 0.36;
        let mut lists = vec![Vec::new()];
        e.compute_pass(&i, &exps, Some((&[h2], &mut lists)))
            .unwrap();
        let want: Vec<u32> = (0..n)
            .filter(|&j| {
                let d2 = (particle(j).pos - probe_src.pos).norm2();
                d2 > 0.0 && d2 < h2
            })
            .map(|j| j as u32)
            .collect();
        assert_eq!(lists[0], want);
    }

    #[test]
    fn scheduled_reduction_glitch_fails_exactly_once() {
        let mut e = Ensemble::new(chips(2));
        for k in 0..20 {
            e.load_j(k, &particle(k)).unwrap();
        }
        e.inject_reduction_fault(&[], &ReductionFaultSchedule::AtPasses(vec![2]));
        let i = [HwIParticle::from_host(Vec3::ZERO, Vec3::ZERO, 1e-2)];
        let exps = [ExpSet::from_magnitudes(20.0, 20.0, 20.0)];
        let ok1 = e.compute_block(&i, &exps).unwrap();
        let cycles_after_1 = e.total_cycles();
        let err = e.compute_block(&i, &exps);
        assert!(
            matches!(err, Err(BlockFpError::ExponentMismatch { .. })),
            "pass 2 must come back corrupted"
        );
        // The failed pass still burned cycles (the chips ran).
        assert!(e.total_cycles() > cycles_after_1);
        let ok3 = e.compute_block(&i, &exps).unwrap();
        assert_eq!(ok1[0].pot.mant(), ok3[0].pot.mant(), "recompute is exact");
        assert_eq!(e.passes(), 3);
    }

    #[test]
    fn cascade_masks_exhausted_parents() {
        // Kill both modules of board 0 (via the full path): the board
        // itself must drop out of the board-array round-robin.
        let boards: Vec<Ensemble<Ensemble<ChipUnit>>> = (0..2)
            .map(|_| Ensemble::new((0..2).map(|_| Ensemble::new(chips(2))).collect()))
            .collect();
        let mut array = Ensemble::new(boards);
        assert_eq!(array.alive_chips(), 8);
        assert!(array.mask_path(&[0, 0]));
        assert!(array.mask_path(&[0, 1]));
        assert_eq!(array.active(), &[false, true]);
        assert_eq!(array.alive_chips(), 4);
        assert_eq!(array.capacity(), 4 * 16_384);
        // Loading still works — everything lands on board 1.
        for k in 0..10 {
            array.load_j(k, &particle(k)).unwrap();
        }
        assert_eq!(array.children()[1].n_j(), 10);
    }
}
