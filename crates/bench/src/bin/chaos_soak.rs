//! The chaos soak: seeded fault schedules against the full recovery
//! stack, with a nonzero exit if any invariant breaks.
//!
//! Each seed drives the three scenarios of [`grape6_bench::chaos`]:
//! a supervised run on a faulted machine (dead chip, dead pipeline,
//! stuck j-memory bit, a module death mid-run, transient reduction
//! glitches), a crash-to-disk/restore/continue leg, and a corrupted
//! checkpoint that must be refused with a typed error.  Every recovered
//! run must land on **bitwise identical** particle state to the healthy
//! reference (the §3.4 block-FP order-independence property made
//! operational), and energy error must stay at the integrator's healthy
//! level.
//!
//! Usage: `chaos_soak [seeds...]` — defaults to six seeds.

use grape6_bench::chaos::{chaos_run, ChaosConfig};
use grape6_bench::print_table;

fn main() {
    let args: Vec<u64> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("seeds must be integers"))
        .collect();
    let seeds = if args.is_empty() {
        vec![11, 22, 33, 44, 55, 66]
    } else {
        args
    };

    let cfg = ChaosConfig::default();
    let mut rows = Vec::new();
    let mut failures: Vec<(u64, Vec<String>)> = Vec::new();
    for &seed in &seeds {
        let out = chaos_run(seed, &cfg);
        rows.push(vec![
            out.seed.to_string(),
            out.blocksteps.to_string(),
            out.units_masked.to_string(),
            out.checkpoints_taken.to_string(),
            out.crash_at.to_string(),
            format!("{:.2e}", out.energy_error),
            out.corruption_error.clone(),
            if out.ok() { "ok".into() } else { "FAIL".into() },
        ]);
        if !out.ok() {
            failures.push((seed, out.violations));
        }
    }

    print_table(
        &format!(
            "Chaos soak: {} seeded fault schedules (machine 1x8x4, n={})",
            seeds.len(),
            cfg.n
        ),
        &[
            "seed",
            "blocksteps",
            "masked",
            "ckpts",
            "crash@",
            "dE/E",
            "corruption error",
            "verdict",
        ],
        &rows,
    );

    if failures.is_empty() {
        println!(
            "\nall {} seeds survived: bitwise-identical recovery, bounded energy error, \
             every corrupt checkpoint refused",
            seeds.len()
        );
    } else {
        for (seed, violations) in &failures {
            eprintln!("\nseed {seed} violations:");
            for v in violations {
                eprintln!("  - {v}");
            }
        }
        std::process::exit(1);
    }
}
