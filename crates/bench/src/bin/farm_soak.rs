//! The farm soak.
//!
//! Seeded multi-tenant scenarios against the farm service: more jobs
//! than the admission ceiling (typed backpressure must fire), a board
//! that flunks power-on self-test, and a board that dies mid-run
//! (rotation, eviction, and checkpoint-resume must all engage).  Every
//! admitted session must complete with particle bits **identical** to a
//! dedicated single-tenant run — see [`grape6_bench::farm`] for the
//! full invariant list.
//!
//! Usage: `farm_soak [seeds...]` — defaults to three seeds.  Exits
//! nonzero if any invariant breaks (including a scheduler stall, the
//! deadlock signal); the exit code is the verdict.  Output: one table,
//! a row per seed.

use grape6_bench::farm::{farm_soak_run, FarmSoakConfig};
use grape6_bench::print_table;

fn main() {
    let args: Vec<u64> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("seeds must be integers"))
        .collect();
    let seeds = if args.is_empty() {
        vec![17, 29, 43]
    } else {
        args
    };

    let cfg = FarmSoakConfig::default();
    let mut rows = Vec::new();
    let mut failures: Vec<(u64, Vec<String>)> = Vec::new();
    for &seed in &seeds {
        let out = farm_soak_run(seed, &cfg);
        rows.push(vec![
            out.seed.to_string(),
            format!("{}/{}", out.admitted, out.submitted),
            out.completed.to_string(),
            out.rejected_saturated.to_string(),
            out.rejected_queue_full.to_string(),
            out.retry_after_hint.to_string(),
            out.board_rotations.to_string(),
            out.evictions.to_string(),
            out.resumes.to_string(),
            format!("{}/{}", out.bitwise_ok, out.admitted),
            if out.ok() { "ok".into() } else { "FAIL".into() },
        ]);
        if !out.ok() {
            failures.push((seed, out.violations));
        }
    }

    print_table(
        &format!(
            "Farm soak: {} seeded multi-tenant scenarios ({} tenants, n={}, {} boards, 2 injected faults)",
            seeds.len(),
            cfg.tenants,
            cfg.n,
            cfg.boards
        ),
        &[
            "seed",
            "admit/sub",
            "done",
            "saturated",
            "queuefull",
            "retry_bsteps",
            "rotations",
            "evictions",
            "resumes",
            "bitwise",
            "verdict",
        ],
        &rows,
    );

    if !failures.is_empty() {
        for (seed, violations) in &failures {
            eprintln!("\nseed {seed} FAILED:");
            for v in violations {
                eprintln!("  - {v}");
            }
        }
        std::process::exit(1);
    }
    println!("farm soak: every invariant held on every seed");
}
