//! Measured time-breakdown report — the simulation-side companion of the
//! fig. 13/17 model curves.
//!
//! Runs real Plummer integrations on the bit-level simulator in the
//! paper's layouts (single host; one cluster; multi-cluster over the
//! discrete-event Ethernet fabric), measures the six-term blockstep
//! breakdown from recorded virtual-time spans, and prints it next to the
//! analytic model's prediction for the same blockstep sequence.
//!
//! Besides the table (also JSON under `GRAPE6_BENCH_JSON`, like every
//! `print_table`) it writes `BENCH_trace.json` — a `chrome://tracing` /
//! Perfetto trace of the multi-cluster run's per-rank span streams.
//!
//! Usage: `perf_report [N] [T_END]` (defaults: 256 particles, 0.125 time
//! units on the `test_small` machine — small enough for CI, large enough
//! that every term is exercised).

use grape6_bench::breakdown::{measure_breakdown, timing_for, BreakdownRun};
use grape6_bench::print_table;
use grape6_model::perf::{MachineLayout, PerfModel};
use grape6_system::machine::MachineConfig;
use grape6_trace::chrome_trace;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args
        .next()
        .map(|a| a.parse().expect("N must be an integer"))
        .unwrap_or(256);
    let t_end: f64 = args
        .next()
        .map(|a| a.parse().expect("T_END must be a number"))
        .unwrap_or(0.125);

    let machine = MachineConfig::test_small();
    let model = PerfModel {
        grape: timing_for(&machine),
        ..PerfModel::default()
    };
    let layouts = [
        MachineLayout::SingleHost,
        MachineLayout::Cluster { hosts: 4 },
        MachineLayout::MultiCluster {
            clusters: 2,
            hosts_per_cluster: 2,
        },
    ];

    let runs: Vec<BreakdownRun> = layouts
        .iter()
        .map(|&layout| measure_breakdown(&model, &machine, layout, n, t_end, 2003))
        .collect();

    let mut rows = Vec::new();
    for run in &runs {
        let m = run.measured;
        let b = run.model;
        for (name, got, want) in [
            ("host", m.host, b.host),
            ("dma", m.dma, b.dma),
            ("interface", m.interface, b.interface),
            ("grape", m.grape, b.grape),
            ("sync", m.sync, b.sync),
            ("exchange", m.exchange, b.exchange),
            ("total", m.total(), b.total()),
        ] {
            let ratio = if want > 0.0 {
                format!("{:.3}", got / want)
            } else {
                "-".into()
            };
            rows.push(vec![
                run.layout.label(),
                name.into(),
                format!("{:.3e}", got),
                format!("{:.3e}", want),
                ratio,
            ]);
        }
    }
    print_table(
        &format!(
            "Measured vs modelled blockstep breakdown (N = {n}, {} blocksteps/run)",
            runs[0].blocksteps
        ),
        &["layout", "term", "measured [s]", "model [s]", "ratio"],
        &rows,
    );

    // The most interesting trace: the last layout (multi-cluster) shows
    // compute, barriers and the recursive-doubling exchange interleaved
    // per rank.
    let trace = chrome_trace(&runs.last().expect("at least one layout").streams);
    std::fs::write("BENCH_trace.json", trace).expect("write BENCH_trace.json");
    println!("\nwrote BENCH_trace.json (load in chrome://tracing or Perfetto)");
}
