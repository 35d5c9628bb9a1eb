//! Force-kernel comparison matrix — `BENCH_kernel.json`.
//!
//! Runs the same Plummer integration once per kernel variant — the
//! per-interaction scalar reference oracle, and the lane kernel at each
//! dispatch level the host supports (`portable` always, `simd-avx2`,
//! `simd-avx512` where detected) — across a matrix of system sizes, verifies that every variant lands on
//! bitwise-identical particle state, and reports host wall-clock and
//! interactions per second per variant.
//!
//! The bitwise verdict is **asserted** (exit 1 on divergence): every
//! kernel's whole contract is same bits, less host time.  Speedups are
//! printed and recorded in the JSON; `ci.sh` guards the relational floor
//! (portable ≥ scalar, best SIMD ≥ portable).
//!
//! Usage: `kernel_bench [BLOCKSTEPS] [BOARDS] [N...]`
//! (defaults 24 / 2 / 256 512 — CI-sized; larger N amortises per-pass
//! decode and shows each kernel's steady-state throughput).
//!
//! Output: prints one table per system size and writes
//! `BENCH_kernel.json` to the current directory.

use grape6_bench::kernel::run_kernel_bench;
use grape6_bench::print_table;
use grape6_system::machine::MachineConfig;

fn main() {
    let mut args = std::env::args().skip(1);
    let blocksteps: usize = args
        .next()
        .map(|a| a.parse().expect("BLOCKSTEPS must be an integer"))
        .unwrap_or(24);
    let boards: usize = args
        .next()
        .map(|a| a.parse().expect("BOARDS must be an integer"))
        .unwrap_or(2);
    let mut sizes: Vec<usize> = args
        .map(|a| a.parse().expect("each N must be an integer"))
        .collect();
    if sizes.is_empty() {
        sizes = vec![256, 512];
    }

    // One machine serves every size: j-memory sized for the largest N.
    let n_max = *sizes.iter().max().unwrap();
    let machine = MachineConfig::builder()
        .boards(boards)
        .modules_per_board(2)
        .chips_per_module(2)
        .jmem_capacity((n_max.div_ceil(4 * boards).max(64)).next_power_of_two())
        .build()
        .expect("valid bench machine");

    let report = run_kernel_bench(&machine, &sizes, blocksteps, 2003);

    for entry in &report.entries {
        let rows: Vec<Vec<String>> = entry
            .variants
            .iter()
            .map(|r| {
                vec![
                    r.label.clone(),
                    format!("{:.3}", r.wall_seconds),
                    format!("{}", r.interactions),
                    format!("{:.4e}", r.interactions_per_sec()),
                    format!(
                        "{:.2}x",
                        entry.speedup_over_scalar(&r.label).unwrap_or(f64::NAN)
                    ),
                    format!("{:016x}", r.state_hash),
                ]
            })
            .collect();
        print_table(
            &format!(
                "Kernel bench — N={}, {boards} boards, {blocksteps} blocksteps",
                entry.n
            ),
            &[
                "kernel",
                "wall [s]",
                "interactions",
                "inter/s",
                "vs scalar",
                "state hash",
            ],
            &rows,
        );
        println!("bitwise identical: {}\n", entry.bitwise_identical());
    }

    if !report.bitwise_identical() {
        eprintln!("ERROR: kernels diverged bitwise — every kernel must reproduce the oracle");
        std::process::exit(1);
    }

    std::fs::write("BENCH_kernel.json", report.to_json() + "\n").expect("write BENCH_kernel.json");
    println!("wrote BENCH_kernel.json");
}
