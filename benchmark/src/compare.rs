//! `compare A.json B.json`: judge results file B (the change) against A
//! (the parent) row by row.
//!
//! Each (end-to-end metric, workload) pair is one row with both medians and
//! the base of the ratio.  A row is *worse* when B's median is worse than
//! A's by more than the metric's bound in `BENCHMARK.json`; *better* when
//! every run of B beats every run of A; *same* when the medians differ by
//! no more than the metric's resolution (the tighter bound issue 11 asked
//! for, `spec::EndToEnd::resolution`) and the run-to-run spread within
//! either file stays inside it too; *unresolved* otherwise, so a shift the
//! machine cannot tell from its own noise is never reported as no change.
//! Every `sim.*` statistic must be exactly equal in all runs of both files.
//! Exit is non-zero on a worse row, a `sim.*` mismatch, or more failed
//! operations in B than in A.  Files whose runs of a workload come from
//! different host fingerprints are refused.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::json::{self, Json};
use crate::spec::{self, Better};
use crate::stats;

/// Values of one metric on one workload across the runs in a file.
type Table = BTreeMap<(String, String), Vec<f64>>;

struct Loaded {
    metrics: Table,
    failed: f64,
    /// Seeds per workload (a `sim.*` statistic only repeats for one seed).
    seeds: BTreeMap<String, Vec<f64>>,
    /// Host fingerprints per workload, one line each (see [`HOST_KEYS`]).
    hosts: BTreeMap<String, Vec<String>>,
}

/// The parts of a result's host fingerprint two runs must share for their
/// numbers to be comparable: everything but the commit and the seed.
const HOST_KEYS: [&str; 11] = [
    "cpu",
    "nproc",
    "simd_level",
    "rayon",
    "rayon_threads",
    "handoff_placement",
    "rustc",
    "seconds",
    "ops",
    "traced",
    "smoke",
];

fn host_line(host: Option<&Json>) -> String {
    HOST_KEYS
        .iter()
        .map(|k| {
            let v = host.and_then(|h| h.get(k));
            format!("{k}={}", v.map_or("?".into(), Json::to_line))
        })
        .collect::<Vec<_>>()
        .join(" ")
}

fn load(path: &str) -> Result<Loaded, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let results = doc
        .get("results")
        .map(Json::items)
        .filter(|r| !r.is_empty())
        .ok_or_else(|| format!("{path}: no \"results\" array"))?;
    let mut out = Loaded {
        metrics: Table::new(),
        failed: 0.0,
        seeds: BTreeMap::new(),
        hosts: BTreeMap::new(),
    };
    for r in results {
        let workload = r
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: a result has no workload"))?;
        out.failed += r.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        if r.get("correct").and_then(Json::as_bool) != Some(true) {
            return Err(format!("{path}: {workload} is not marked correct"));
        }
        let seed = r
            .get("host")
            .and_then(|h| h.get("seed"))
            .and_then(Json::as_f64)
            .unwrap_or(-1.0);
        out.seeds
            .entry(workload.to_string())
            .or_default()
            .push(seed);
        out.hosts
            .entry(workload.to_string())
            .or_default()
            .push(host_line(r.get("host")));
        for (name, m) in r.get("metrics").map(Json::members).unwrap_or(&[]) {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                out.metrics
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Worse,
    Same,
    Unresolved,
    Better,
}

/// Judge one row.  `a` is the parent's runs, `b` the change's.
pub fn judge(
    a: &[f64],
    b: &[f64],
    better: Better,
    bound: f64,
    resolution: f64,
) -> (Verdict, f64, f64, f64) {
    let (ma, mb) = (
        stats::median(&stats::sorted(a)),
        stats::median(&stats::sorted(b)),
    );
    // Positive = B is worse, as a share of A's median (the base).
    let worsening = match better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let all_better =
        a.len() >= 2 && b.len() >= 2 && b.iter().all(|&x| a.iter().all(|&y| beats(x, y)));
    let spread = stats::iqr_over_median(a).max(stats::iqr_over_median(b));
    let verdict = if worsening > bound {
        Verdict::Worse
    } else if all_better {
        Verdict::Better
    } else if worsening.abs() > resolution || spread > resolution {
        Verdict::Unresolved
    } else {
        Verdict::Same
    };
    (verdict, ma, mb, spread)
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = args else {
        return Err("usage: compare A.json B.json".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    for (workload, lines) in &a.hosts {
        let all = lines
            .iter()
            .chain(b.hosts.get(workload).into_iter().flatten());
        let distinct: std::collections::BTreeSet<&String> = all.collect();
        if distinct.len() > 1 {
            let listed: Vec<&str> = distinct.into_iter().map(String::as_str).collect();
            return Err(format!(
                "{workload}: runs with different host fingerprints are not comparable:\n  {}",
                listed.join("\n  ")
            ));
        }
    }
    let mut bad = false;
    println!(
        "{:<16} {:<16} {:>16} {:>16} {:>9} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A median (base)", "B median", "B vs A", "spread", "resol.", "bound"
    );
    for w in &spec::WORKLOADS {
        for m in &spec::END_TO_END {
            let key = (w.name.to_string(), m.name.to_string());
            let (Some(va), Some(vb)) = (a.metrics.get(&key), b.metrics.get(&key)) else {
                continue;
            };
            let (verdict, ma, mb, spread) = judge(va, vb, m.better, m.bound, m.resolution);
            bad |= verdict == Verdict::Worse;
            println!(
                "{:<16} {:<16} {:>16.6} {:>16.6} {:>+8.2}% {:>7.2}% {:>6.0}% {:>6.0}%  {:?} ({} vs {} runs, {})",
                w.name,
                m.name,
                ma,
                mb,
                (mb - ma) / ma * 100.0,
                spread * 100.0,
                m.resolution * 100.0,
                m.bound * 100.0,
                verdict,
                va.len(),
                vb.len(),
                m.unit
            );
        }
    }
    // Simulated-machine statistics: exact, and only comparable per seed.
    for ((workload, name), va) in a.metrics.iter().filter(|((_, n), _)| n.starts_with("sim.")) {
        let Some(vb) = b.metrics.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let one_seed = |l: &Loaded| {
            l.seeds
                .get(workload)
                .and_then(|s| s.iter().all(|x| *x == s[0]).then_some(s[0]))
        };
        match (one_seed(&a), one_seed(&b)) {
            (Some(sa), Some(sb)) if sa == sb => {
                let all: Vec<f64> = va.iter().chain(vb).copied().collect();
                if all.iter().any(|x| x.to_bits() != all[0].to_bits()) {
                    bad = true;
                    println!("{workload:<16} {name:<24} NOT EXACT across runs: {all:?}");
                }
            }
            _ => println!("{workload:<16} {name:<24} skipped: runs use different seeds"),
        }
    }
    println!("sim.* statistics checked for exact equality");
    if b.failed > a.failed {
        bad = true;
        println!("failed operations rose from {} to {}", a.failed, b.failed);
    }
    Ok(if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_the_resolution_and_the_ordering_of_runs() {
        let base = [100.0, 101.0, 99.0];
        let judge = |b: &[f64], better| judge(&base, b, better, 0.25, 0.07);
        // 30 % slower with a 25 % bound: worse.
        let (v, ma, mb, _) = judge(&[130.0, 131.0, 129.5], Better::Lower);
        assert_eq!((v, ma, mb), (Verdict::Worse, 100.0, 130.0));
        // 3 % slower, tight runs: same.
        assert_eq!(
            judge(&[103.0, 103.5, 102.5], Better::Lower).0,
            Verdict::Same
        );
        // 20 % slower: inside the bound, far outside the resolution.
        assert_eq!(
            judge(&[120.0, 121.0, 119.0], Better::Lower).0,
            Verdict::Unresolved
        );
        // Medians close but the change's runs scatter wider than the resolution.
        assert_eq!(
            judge(&[90.0, 101.0, 115.0], Better::Lower).0,
            Verdict::Unresolved
        );
        // Every run of the change beats every run of the parent.
        assert_eq!(judge(&[95.0, 96.0, 94.0], Better::Lower).0, Verdict::Better);
        // Direction flips for throughput.
        assert_eq!(judge(&[72.0, 71.0, 73.0], Better::Higher).0, Verdict::Worse);
        assert_eq!(
            judge(&[105.0, 106.0, 104.0], Better::Higher).0,
            Verdict::Better
        );
        // Single runs can never be better, only worse, same or unresolved.
        assert_eq!(
            super::judge(&[100.0], &[97.0], Better::Lower, 0.25, 0.07).0,
            Verdict::Same
        );
        assert_eq!(
            super::judge(&[100.0], &[80.0], Better::Lower, 0.25, 0.07).0,
            Verdict::Unresolved
        );
    }

    #[test]
    fn host_line_names_every_key_and_marks_missing_ones() {
        let host = Json::obj([("cpu", Json::str("x")), ("nproc", Json::Num(2.0))]);
        let line = host_line(Some(&host));
        assert!(
            line.starts_with("cpu=\"x\" nproc=2 simd_level=? "),
            "{line}"
        );
        assert_eq!(line.split(' ').count(), HOST_KEYS.len());
    }
}
