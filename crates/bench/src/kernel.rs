//! Kernel benchmark: scalar oracle vs the lane kernel at every level.
//!
//! The simulated pipeline's results are fixed by the bit-exact arithmetic
//! contract, so the only thing a host kernel may change is how fast the
//! host reproduces them.  This module runs the same Plummer integration
//! once per **kernel variant** — the per-interaction scalar oracle, and
//! the lane kernel at each dispatch level the host supports (`portable`
//! always, `simd-avx2`, and `simd-avx512` where detected) — across a
//! matrix of system sizes, and reports per variant:
//!
//! * a **bitwise identity** verdict over the final particle bits (every
//!   kernel performs the same rounded operations in the same order per
//!   (i, j) pair, so any divergence is a bug, and the bin exits
//!   non-zero);
//! * **interactions per second of host wall-clock**, the figure of merit
//!   for how large a functional experiment the workspace can afford.
//!   Speedups are *reported, not asserted* here — `ci.sh` guards the
//!   relational floor (portable ≥ scalar, best SIMD ≥ portable).
//!
//! Lane levels are pinned per run through the dispatch override
//! (`grape6_arith::simd::set_dispatch_override`), which can cap but never
//! raise the detected level — so a `simd-avx2` row on an AVX-512 host
//! really does time the 4-wide lanes.

use std::time::Instant;

use grape6_arith::simd::{active_level, set_dispatch_override, DispatchOverride, SimdLevel};
use grape6_core::engine::Grape6Engine;
use grape6_core::integrator::{HermiteIntegrator, IntegratorConfig};
use grape6_core::KernelMode;
use grape6_system::machine::MachineConfig;
use nbody_core::force::ForceEngine;
use nbody_core::ic::plummer::plummer_model;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::overlap::state_hash;

/// One kernel variant's outcome over the measured blocksteps.
#[derive(Clone, Debug)]
pub struct KernelRunResult {
    /// Variant label (`scalar`, `portable`, `simd-avx2`, `simd-avx512`).
    pub label: String,
    /// Real wall-clock seconds for the measured blocksteps.
    pub wall_seconds: f64,
    /// Pairwise interactions the hardware evaluated.
    pub interactions: u64,
    /// FNV-1a hash over the final particle bits (pos/vel/t/dt/acc/jerk).
    pub state_hash: u64,
}

impl KernelRunResult {
    /// Interactions per second of host wall-clock.
    pub fn interactions_per_sec(&self) -> f64 {
        self.interactions as f64 / self.wall_seconds.max(1e-12)
    }
}

/// All variants at one system size.
#[derive(Clone, Debug)]
pub struct KernelEntry {
    /// System size.
    pub n: usize,
    /// One result per kernel variant, scalar first.
    pub variants: Vec<KernelRunResult>,
}

impl KernelEntry {
    /// Did every variant land on identical particle bits?
    pub fn bitwise_identical(&self) -> bool {
        self.variants
            .windows(2)
            .all(|w| w[0].state_hash == w[1].state_hash)
    }

    /// Look a variant up by label.
    pub fn variant(&self, label: &str) -> Option<&KernelRunResult> {
        self.variants.iter().find(|v| v.label == label)
    }

    /// The fastest `simd-*` variant, if any ran.
    pub fn best_simd(&self) -> Option<&KernelRunResult> {
        self.variants
            .iter()
            .filter(|v| v.label.starts_with("simd"))
            .max_by(|a, b| {
                a.interactions_per_sec()
                    .total_cmp(&b.interactions_per_sec())
            })
    }

    /// Host-throughput speedup of a labelled variant over the oracle.
    pub fn speedup_over_scalar(&self, label: &str) -> Option<f64> {
        let s = self.variant("scalar")?.interactions_per_sec();
        Some(self.variant(label)?.interactions_per_sec() / s.max(1e-12))
    }
}

/// The full kernel comparison matrix.
#[derive(Clone, Debug)]
pub struct KernelReport {
    /// Blocksteps measured per variant.
    pub blocksteps: usize,
    /// Boards in the machine under test.
    pub boards: usize,
    /// One entry per system size.
    pub entries: Vec<KernelEntry>,
}

impl KernelReport {
    /// Did every variant at every size land on identical particle bits?
    pub fn bitwise_identical(&self) -> bool {
        self.entries.iter().all(KernelEntry::bitwise_identical)
    }

    /// Hand-rolled JSON (offline-safe) for `BENCH_kernel.json`.
    pub fn to_json(&self) -> String {
        let run = |r: &KernelRunResult| {
            format!(
                "{{\"label\":\"{}\",\"wall_seconds\":{:e},\"interactions\":{},\
                 \"interactions_per_sec\":{:e},\"state_hash\":{}}}",
                r.label,
                r.wall_seconds,
                r.interactions,
                r.interactions_per_sec(),
                r.state_hash,
            )
        };
        let entries = self
            .entries
            .iter()
            .map(|e| {
                let variants = e.variants.iter().map(run).collect::<Vec<_>>().join(",");
                format!(
                    "{{\"n\":{},\"bitwise_identical\":{},\"variants\":[{}]}}",
                    e.n,
                    e.bitwise_identical(),
                    variants,
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"blocksteps\":{},\"boards\":{},\"bitwise_identical\":{},\
             \"entries\":[{}]}}",
            self.blocksteps,
            self.boards,
            self.bitwise_identical(),
            entries,
        )
    }
}

/// The kernel variants this host can time: the oracle, the lane kernel on
/// the portable instance, and one `simd-*` row per dispatch level the
/// hardware (and environment) actually supports.
pub fn variant_plan() -> Vec<(&'static str, KernelMode, DispatchOverride)> {
    let mut plan = vec![
        ("scalar", KernelMode::Scalar, DispatchOverride::Auto),
        ("portable", KernelMode::Simd, DispatchOverride::ForceScalar),
    ];
    // `active_level()` under Auto = detected hardware ∧ environment; caps
    // below it are honest timings, a row above it would silently run a
    // narrower instance and mislabel itself.
    set_dispatch_override(DispatchOverride::Auto);
    let level = active_level();
    if level.is_some() {
        plan.push(("simd-avx2", KernelMode::Simd, DispatchOverride::CapAvx2));
    }
    if level == Some(SimdLevel::Avx512) {
        plan.push(("simd-avx512", KernelMode::Simd, DispatchOverride::Auto));
    }
    plan
}

/// Run `blocksteps` blocksteps of a seeded Plummer model on one kernel
/// variant and measure it.
fn run_variant(
    machine: &MachineConfig,
    n: usize,
    blocksteps: usize,
    seed: u64,
    label: &str,
    mode: KernelMode,
    level: DispatchOverride,
) -> KernelRunResult {
    set_dispatch_override(level);
    let set = plummer_model(n, &mut StdRng::seed_from_u64(seed));
    let mut engine = Grape6Engine::try_new(machine, n).unwrap();
    engine.set_kernel_mode(mode);
    let mut it = HermiteIntegrator::new(engine, set, IntegratorConfig::default());
    let before = it.engine().interactions();
    let t0 = Instant::now();
    for _ in 0..blocksteps {
        it.try_step_auto().expect("healthy hardware");
    }
    let wall_seconds = t0.elapsed().as_secs_f64();
    set_dispatch_override(DispatchOverride::Auto);
    KernelRunResult {
        label: label.to_string(),
        wall_seconds,
        interactions: it.engine().interactions() - before,
        state_hash: state_hash(it.particles()),
    }
}

/// The full variant × size comparison on `machine` for `blocksteps`
/// steps of seeded Plummer models.
pub fn run_kernel_bench(
    machine: &MachineConfig,
    sizes: &[usize],
    blocksteps: usize,
    seed: u64,
) -> KernelReport {
    let plan = variant_plan();
    let entries = sizes
        .iter()
        .map(|&n| KernelEntry {
            n,
            variants: plan
                .iter()
                .map(|(label, mode, level)| {
                    run_variant(machine, n, blocksteps, seed, label, *mode, *level)
                })
                .collect(),
        })
        .collect();
    KernelReport {
        blocksteps,
        boards: machine.boards,
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The dispatch override is process-global; tests that set or assert
    /// on it serialise here.
    static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn all_variants_are_bitwise_identical_over_whole_blocksteps() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        let machine = MachineConfig::builder()
            .boards(2)
            .modules_per_board(2)
            .chips_per_module(1)
            .jmem_capacity(1024)
            .build()
            .unwrap();
        let report = run_kernel_bench(&machine, &[96], 16, 7);
        assert!(report.bitwise_identical(), "kernels diverged bitwise");
        let entry = &report.entries[0];
        // Scalar and portable always run; SIMD rows depend on the host.
        assert!(entry.variant("scalar").is_some());
        assert!(entry.variant("portable").is_some());
        // Every variant drove the same hardware schedule.
        let inter = entry.variant("scalar").unwrap().interactions;
        assert!(inter > 0);
        for v in &entry.variants {
            assert_eq!(v.interactions, inter, "{}", v.label);
        }
        let json = report.to_json();
        assert!(json.contains("\"bitwise_identical\":true"), "{json}");
        assert!(json.contains("\"portable\""), "{json}");
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_rows_follow_the_detected_level() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        let plan = variant_plan();
        let labels: Vec<&str> = plan.iter().map(|(l, _, _)| *l).collect();
        set_dispatch_override(DispatchOverride::Auto);
        match active_level() {
            Some(SimdLevel::Avx512) => {
                assert!(labels.contains(&"simd-avx2"));
                assert!(labels.contains(&"simd-avx512"));
            }
            Some(SimdLevel::Avx2) => {
                assert!(labels.contains(&"simd-avx2"));
                assert!(!labels.contains(&"simd-avx512"));
            }
            None => {
                assert_eq!(labels, ["scalar", "portable"]);
            }
        }
    }
}
