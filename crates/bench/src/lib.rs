//! # grape6-bench — the harness that regenerates the paper's evaluation
//!
//! One binary per figure/table (see DESIGN.md §5 for the index):
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig13` | single-node speed vs N, three softenings |
//! | `fig14` | CPU time per particle step + the two model curves |
//! | `fig15` | 1/2/4-node speed, constant-ε and ε=4/N panels |
//! | `fig16` | 4-node time per step + model |
//! | `fig17` | 4/8/16-node (1/2/4-cluster) speed |
//! | `fig18` | 16-node time per step + model |
//! | `fig19` | NS83820+Athlon vs 82540EM+P4 |
//! | `table_apps` | §5 application runs (Kuiper belt, binary BH) |
//! | `table_treecode` | §5 treecode comparison (particle-steps/s) |
//! | `generations` | §3 generation gap, GRAPE-4 vs GRAPE-6 |
//! | `grid_demo` | fig. 12 two-dimensional hardware network |
//! | `calibrate` | re-measures the block statistics the model extrapolates |
//! | `ablation_*` | design-choice studies (see DESIGN.md) |
//! | `perf_report` | measured six-term breakdown next to the model, in virtual seconds (+ a Chrome trace) |
//! | `crossover_bench` | fig. 18 crossover under the three network schedules; exits 1 on a digest divergence |
//!
//! Three more are the processes the multi-process tests and soaks spawn
//! (`cluster_node`, `farm_server`, `farm_client`), and three are soak
//! *scenarios* whose exit code is the verdict (`chaos_soak`, `farm_soak`,
//! `farm_net_soak`; the real-process cluster chaos scenario runs as
//! `tests/transport_procs.rs`).
//!
//! Nothing here times the simulator in host wall-clock or writes a
//! verdict file: how fast the simulator runs is the `BENCHMARK.json`
//! command's question (`benchmark/`, distributions per layer), and the
//! bitwise questions belong to the root package's `tests/`.
//!
//! This library holds what the binaries share: log-spaced sweeps, table
//! printing, and the **measured** block-statistics runner that ties the
//! analytic model to real integrations of the bit-level simulator stack.

pub mod breakdown;
pub mod chaos;
pub mod chaos_cluster;
pub mod farm;
pub mod farm_net;
pub mod wavecheck;

use grape6_core::{HermiteIntegrator, IntegratorConfig};
use grape6_model::BlockStatsModel;
use nbody_core::force::DirectEngine;
use nbody_core::ic::plummer::plummer_model;
use nbody_core::softening::Softening;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Log-spaced particle counts from `min` to `max` (inclusive-ish).
pub fn log_n_sweep(min: usize, max: usize, points_per_decade: usize) -> Vec<usize> {
    assert!(min >= 2 && max > min && points_per_decade >= 1);
    let mut out = Vec::new();
    let lmin = (min as f64).log10();
    let lmax = (max as f64).log10();
    let steps = ((lmax - lmin) * points_per_decade as f64).ceil() as usize;
    for k in 0..=steps {
        let l = lmin + (lmax - lmin) * k as f64 / steps as f64;
        let n = 10f64.powf(l).round() as usize;
        if out.last() != Some(&n) {
            out.push(n);
        }
    }
    out
}

/// Print an aligned table to stdout.
///
/// When the environment variable `GRAPE6_BENCH_JSON` names a directory,
/// the same table is also written there as
/// `<slugified-title>.json` — machine-readable output for plotting
/// pipelines, with zero changes to the figure binaries.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    if let Ok(dir) = std::env::var("GRAPE6_BENCH_JSON") {
        if let Err(e) = write_json_table(&dir, title, headers, rows) {
            eprintln!("warning: could not write JSON table: {e}");
        }
    }
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (k, cell) in row.iter().enumerate() {
            widths[k] = widths[k].max(cell.len());
        }
    }
    let line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(k, h)| format!("{:>w$}", h, w = widths[k]))
        .collect();
    println!("{}", line.join("  "));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
    );
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(k, c)| format!("{:>w$}", c, w = widths[k]))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Serialise one table to `<dir>/<slug>.json`.
// `headers`/`rows` are consumed inside `serde_json::json!`; an offline
// build against a stubbed serde_json can expand the macro to a constant,
// which would otherwise warn that they are unused.
#[allow(unused_variables)]
fn write_json_table(
    dir: &str,
    title: &str,
    headers: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<()> {
    use std::io::Write;
    let slug: String = title
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect::<String>()
        .split('_')
        .filter(|s| !s.is_empty())
        .collect::<Vec<_>>()
        .join("_");
    let payload = serde_json::json!({
        "title": title,
        "headers": headers,
        "rows": rows,
    });
    std::fs::create_dir_all(dir)?;
    let path = std::path::Path::new(dir).join(format!("{slug}.json"));
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{}", serde_json::to_string_pretty(&payload)?)?;
    Ok(())
}

/// Format a speed in the unit the paper's figure uses.
pub fn fmt_flops(s: f64) -> String {
    if s >= 1e12 {
        format!("{:.2} Tflops", s / 1e12)
    } else {
        format!("{:.1} Gflops", s / 1e9)
    }
}

/// Result of measuring block statistics from a real integration.
#[derive(Clone, Copy, Debug)]
pub struct MeasuredStats {
    /// System size.
    pub n: usize,
    /// Particle steps per time unit.
    pub steps_per_unit: f64,
    /// Blocksteps per time unit.
    pub blocks_per_unit: f64,
    /// Mean block size.
    pub mean_block: f64,
}

/// Integrate a Plummer model of size `n` for `duration` time units with
/// the reference engine and measure the blockstep statistics the
/// performance model needs.
pub fn measure_block_stats(n: usize, soft: Softening, duration: f64, seed: u64) -> MeasuredStats {
    let set = plummer_model(n, &mut StdRng::seed_from_u64(seed));
    let cfg = IntegratorConfig {
        softening: soft,
        ..Default::default()
    };
    let mut it = HermiteIntegrator::new(DirectEngine::new(n), set, cfg);
    it.run_until(duration);
    let st = it.stats();
    MeasuredStats {
        n,
        steps_per_unit: st.particle_steps as f64 / duration,
        blocks_per_unit: st.blocksteps as f64 / duration,
        mean_block: st.mean_block(),
    }
}

/// Fit a [`BlockStatsModel`] from real runs at the given sizes.
pub fn fit_block_stats(
    sizes: &[usize],
    soft: Softening,
    duration: f64,
    block_sigma: f64,
) -> (BlockStatsModel, Vec<MeasuredStats>) {
    let measured: Vec<MeasuredStats> = sizes
        .iter()
        .map(|&n| measure_block_stats(n, soft, duration, 1000 + n as u64))
        .collect();
    let samples: Vec<(f64, f64, f64)> = measured
        .iter()
        .map(|m| (m.n as f64, m.steps_per_unit, m.blocks_per_unit))
        .collect();
    (
        BlockStatsModel::fit(&samples, 1024.0, block_sigma),
        measured,
    )
}

/// Sustained speed from a **real** integration: run the actual Hermite
/// block-timestep driver at size `n`, charge the performance model for
/// every blockstep that really occurred (actual sizes, actual count), and
/// return `57·N·steps / T_virtual`.  This is the harness's "measured"
/// datum — the mean-block model curves are validated against it where
/// real runs are affordable.
pub fn measured_speed(
    n: usize,
    soft: Softening,
    duration: f64,
    model: &grape6_model::PerfModel,
    layout: grape6_model::MachineLayout,
    seed: u64,
) -> f64 {
    let set = plummer_model(n, &mut StdRng::seed_from_u64(seed));
    let cfg = IntegratorConfig {
        softening: soft,
        ..Default::default()
    };
    let mut it = HermiteIntegrator::new(DirectEngine::new(n), set, cfg);
    let mut t_virtual = 0.0f64;
    let mut steps = 0u64;
    while it.time() < duration {
        let (_, n_b) = it.step();
        t_virtual += model.block_time(layout, n, n_b).total();
        steps += n_b as u64;
    }
    57.0 * n as f64 * steps as f64 / t_virtual
}

/// The default (pre-fitted) statistics model for a softening policy.
pub fn default_stats(soft: Softening) -> BlockStatsModel {
    match soft {
        Softening::Constant | Softening::Fixed(_) => BlockStatsModel::constant_softening(),
        Softening::InterParticle => BlockStatsModel::inter_particle_softening(),
        Softening::CloseEncounter => BlockStatsModel::close_encounter_softening(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_monotone_and_bounded() {
        let s = log_n_sweep(256, 200_000, 4);
        assert!(s.first() == Some(&256));
        assert!(*s.last().unwrap() >= 190_000);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(s.len() > 8 && s.len() < 20);
    }

    #[test]
    fn measured_stats_sane_for_tiny_system() {
        let m = measure_block_stats(64, Softening::Constant, 0.125, 7);
        assert_eq!(m.n, 64);
        assert!(m.steps_per_unit > 64.0, "steps {}", m.steps_per_unit);
        assert!(m.blocks_per_unit > 8.0);
        assert!(m.mean_block >= 1.0 && m.mean_block <= 64.0);
    }

    #[test]
    fn json_table_export() {
        let dir = std::env::temp_dir().join("grape6_bench_json_test");
        let _ = std::fs::remove_dir_all(&dir);
        write_json_table(
            dir.to_str().unwrap(),
            "Fig. 99 — a test table",
            &["N", "speed"],
            &[vec!["10".into(), "1.5".into()]],
        )
        .unwrap();
        let path = dir.join("fig_99_a_test_table.json");
        let text = std::fs::read_to_string(&path).unwrap();
        let v: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(v["headers"][0], "N");
        assert_eq!(v["rows"][0][1], "1.5");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fmt_flops_units() {
        assert_eq!(fmt_flops(2.5e12), "2.50 Tflops");
        assert_eq!(fmt_flops(3.0e10), "30.0 Gflops");
    }
}
