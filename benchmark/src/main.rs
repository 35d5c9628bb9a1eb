//! The repo benchmark.
//!
//! ```text
//! cargo run --release [--offline --config benchmark/offline/config.toml] \
//!     --manifest-path benchmark/Cargo.toml -- \
//!     run [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--smoke] [--repeat K]
//!     compare A.json B.json
//!     spec
//! ```
//!
//! `--seconds` scales each workload's frozen op count; a run does that
//! much work however long it takes.  `run --workload W` measures one
//! workload in this process and prints,
//! as the last line of stdout, the contract object `{"correct", "attempted",
//! "failed", "metrics"}`.  `run` without `--workload` runs all five, each
//! in a child process of its own, and writes one results file.  See
//! `README.md`.

mod compare;
mod harness;
mod json;
mod probes;
mod spans;
mod spec;
mod stats;
mod timed;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use harness::{Ctx, Outcome};
use json::Json;

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    allow_simd_override: bool,
    /// Times `run` without `--workload` runs the whole set.
    repeat: usize,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: None,
        seed: 2003,
        seconds: None,
        traced: false,
        smoke: false,
        allow_simd_override: false,
        repeat: 1,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => out.workload = Some(value("a workload name")?),
            "--seed" => {
                out.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--repeat" => {
                out.repeat = value("a count")?
                    .parse()
                    .ok()
                    .filter(|n| (1..=100).contains(n))
                    .ok_or("--repeat takes a count from 1 to 100")?
            }
            "--smoke" => out.smoke = true,
            "--allow-simd-override" => out.allow_simd_override = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

/// `benchmark/out`, relative to the working directory when that is the
/// repository root (short enough for a Unix socket path wherever the
/// checkout lives), else next to this package's manifest.
fn out_dir() -> PathBuf {
    if std::path::Path::new("benchmark/Cargo.toml").is_file() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

/// Refuse to measure a configuration whose numbers would not mean what
/// their names say.
fn guard_rails(args: &RunArgs) -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("this is a debug build; measure with --release".into());
    }
    if !args.allow_simd_override {
        for var in ["GRAPE6_FORCE_SCALAR", "GRAPE6_SIMD"] {
            if std::env::var_os(var).is_some() {
                return Err(format!(
                    "{var} is set, which changes the kernel under test; \
                     unset it or pass --allow-simd-override"
                ));
            }
        }
    }
    Ok(())
}

/// The contract line: every end-to-end metric (untraced) or every
/// per-layer metric (traced).  A share or count whose layer this workload
/// never enters reads 0 there (the results file omits it); a measured
/// metric must be present.
fn contract_line(out: &Outcome, traced: bool) -> Json {
    let metric = |name: &str, unit: &str, value: f64| {
        (
            name.to_string(),
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        )
    };
    let metrics: Vec<(String, Json)> = if traced {
        spec::PER_LAYER
            .iter()
            .map(|m| {
                let value = match m.kind {
                    spec::Kind::Measured => out.metrics[m.name],
                    spec::Kind::Share | spec::Kind::Count => {
                        out.metrics.get(m.name).copied().unwrap_or(0.0)
                    }
                };
                metric(m.name, m.unit, value)
            })
            .collect()
    } else {
        spec::END_TO_END
            .iter()
            .map(|m| metric(m.name, m.unit, out.metrics[m.name]))
            .collect()
    };
    Json::obj([
        ("correct", Json::Bool(out.correct())),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn unit_of(name: &str) -> &'static str {
    spec::END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(spec::PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .chain(spec::RESULTS_ONLY)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// Everything one workload run measured, for the results file.
fn result_json(workload: &str, ctx: &Ctx, out: &Outcome) -> Json {
    Json::obj([
        ("workload", Json::str(workload)),
        ("correct", Json::Bool(out.correct())),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("samples", Json::Num(out.samples as f64)),
        (
            "latency_tail",
            out.tail.map_or(Json::Null, |(q, us)| {
                Json::obj([("percentile", Json::Num(q)), ("us", Json::Num(us))])
            }),
        ),
        ("host", harness::fingerprint(ctx)),
        (
            "checks",
            Json::Arr(
                out.checks
                    .iter()
                    .map(|(what, ok)| {
                        Json::obj([("what", Json::str(what)), ("ok", Json::Bool(*ok))])
                    })
                    .collect(),
            ),
        ),
        (
            "metrics",
            Json::Obj(
                out.metrics
                    .iter()
                    .map(|(name, v)| {
                        (
                            name.clone(),
                            Json::obj([
                                ("value", Json::Num(*v)),
                                ("unit", Json::str(unit_of(name))),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

fn print_human(workload: &spec::Workload, ctx: &Ctx, out: &Outcome) {
    println!(
        "== {} (seed {}, {} s = {} ops, {}; op = {}, call = {})",
        workload.name,
        ctx.seed,
        ctx.seconds,
        ctx.ops,
        if ctx.traced {
            "traced: an eighth of the ops untraced, then a quarter traced"
        } else {
            "untraced"
        },
        workload.op,
        workload.call
    );
    for (what, ok) in &out.checks {
        println!("   check {}: {what}", if *ok { "ok  " } else { "FAIL" });
    }
    println!(
        "   attempted {} calls, failed {}, {} latency samples",
        out.attempted, out.failed, out.samples
    );
    match out.tail {
        Some((q, us)) => println!(
            "   highest percentile with 10 samples beyond it: p{} = {us:.3} us",
            q * 100.0
        ),
        None => println!("   fewer than 100 latency samples: p90 has under 10 samples beyond it"),
    }
    for (name, v) in &out.metrics {
        if *v != 0.0 && v.abs() < 1e-3 {
            println!("   {name:<44} {v:>18.6e} {}", unit_of(name));
        } else {
            println!("   {name:<44} {v:>18.6} {}", unit_of(name));
        }
    }
}

/// Measure one workload in this process.
fn run_one(name: &str, args: &RunArgs) -> Result<ExitCode, String> {
    let workload = spec::workload(name).ok_or_else(|| {
        let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; known: {}", known.join(", "))
    })?;
    let out_dir = out_dir();
    let tmp_dir = out_dir.join(format!("tmp-{}", std::process::id()));
    let seconds = args.seconds.unwrap_or(if args.smoke {
        1.0
    } else {
        spec::RUN_SECONDS as f64
    });
    let ctx = Ctx {
        seed: args.seed,
        seconds,
        ops: workload.ops(seconds),
        traced: args.traced,
        smoke: args.smoke,
        out_dir: out_dir.clone(),
        tmp_dir: tmp_dir.clone(),
    };
    std::fs::create_dir_all(&tmp_dir).map_err(|e| format!("{}: {e}", tmp_dir.display()))?;
    harness::pin_rayon();
    let mut out = workloads::run(name, &ctx).expect("workload names come from the table");
    if out.attempted == 0 {
        return Err(format!("{name}: no call was attempted; nothing to report"));
    }
    if !ctx.traced && ctx.seconds >= spec::RUN_SECONDS as f64 {
        out.check(
            format!(
                "{} latency samples are at least {}, so p05 rests on the 10 fastest",
                out.samples,
                spec::MIN_SAMPLES
            ),
            out.samples >= spec::MIN_SAMPLES,
        );
    }
    if ctx.traced {
        let t0 = Instant::now();
        let budget = ctx.seconds * harness::TRACED_PROBE_SHARE;
        out.extend(probes::run_all(&ctx, budget));
        out.set("bench.probes_s", t0.elapsed().as_secs_f64());
        out.set("bench.timer_ns", harness::timer_ns());
    } else {
        out.set("peak_rss_mb", harness::peak_rss_mb());
    }
    let _ = std::fs::remove_dir_all(&tmp_dir);
    print_human(workload, &ctx, &out);
    if out.correct() {
        let file = out_dir.join(result_file_name(name, ctx.seed, ctx.traced));
        std::fs::write(&file, result_json(name, &ctx, &out).to_pretty())
            .map_err(|e| format!("{}: {e}", file.display()))?;
    }
    println!("{}", contract_line(&out, ctx.traced).to_line());
    Ok(if out.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("{name}: an output check failed or an operation failed; no results file written");
        ExitCode::FAILURE
    })
}

/// Run all five workloads `--repeat` times, each run in a child process of
/// its own (which isolates peak RSS and the process-global SIMD dispatch
/// state), and gather the children's results into one file.
fn run_all(args: &RunArgs) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out_dir = out_dir();
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let trace = u8::from(args.traced).to_string();
    let mut child_args = vec![
        "--seed".to_string(),
        args.seed.to_string(),
        "--trace".to_string(),
        trace.clone(),
    ];
    if let Some(s) = args.seconds {
        child_args.extend(["--seconds".to_string(), s.to_string()]);
    }
    if args.smoke {
        child_args.push("--smoke".into());
    }
    if args.allow_simd_override {
        child_args.push("--allow-simd-override".into());
    }
    let mut results = Vec::new();
    for _ in 0..args.repeat {
        for w in &spec::WORKLOADS {
            let status = std::process::Command::new(&exe)
                .args(["run", "--workload", w.name])
                .args(&child_args)
                .status()
                .map_err(|e| format!("spawning {}: {e}", w.name))?;
            if !status.success() {
                eprintln!("{} failed; no combined results file written", w.name);
                return Ok(ExitCode::FAILURE);
            }
            let file = out_dir.join(result_file_name(w.name, args.seed, args.traced));
            let text =
                std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
            results.push(json::parse(&text)?);
        }
    }
    let file = out_dir.join(format!(
        "results-seed{}-trace{trace}-{}.json",
        args.seed,
        std::process::id()
    ));
    let doc = Json::obj([("results", Json::Arr(results))]);
    std::fs::write(&file, doc.to_pretty()).map_err(|e| format!("{}: {e}", file.display()))?;
    println!("results: {}", file.display());
    Ok(ExitCode::SUCCESS)
}

fn result_file_name(workload: &str, seed: u64, traced: bool) -> String {
    format!(
        "result-{workload}-seed{seed}-trace{}.json",
        u8::from(traced)
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("spec") => {
            print!("{}", spec::benchmark_json().to_pretty());
            Ok(ExitCode::SUCCESS)
        }
        Some("run") => parse_run_args(&args[1..]).and_then(|parsed| {
            guard_rails(&parsed)?;
            match &parsed.workload {
                Some(name) => run_one(name, &parsed),
                None => run_all(&parsed),
            }
        }),
        _ => Err(
            "usage: run [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--smoke] \
                  [--repeat K] [--allow-simd-override] | compare A.json B.json | spec"
                .into(),
        ),
    };
    result.unwrap_or_else(|e| {
        eprintln!("grape6-benchmark: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Ctx {
        Ctx {
            seed: 7,
            seconds: 1.5,
            ops: 36_000,
            traced: true,
            smoke: false,
            out_dir: PathBuf::from("out"),
            tmp_dir: PathBuf::from("out/tmp"),
        }
    }

    fn outcome() -> Outcome {
        let mut out = Outcome {
            attempted: 1234,
            samples: 321,
            tail: Some((0.95, 17.25)),
            ..Outcome::default()
        };
        out.check("a \"quoted\" check", true);
        for m in &spec::END_TO_END {
            out.set(m.name, 1.0 + m.bound);
        }
        for m in spec::PER_LAYER
            .iter()
            .filter(|m| m.kind == spec::Kind::Measured)
        {
            out.set(m.name, 2.5);
        }
        out.set("sim.interactions", 95_992_320.0);
        out.set("chip.kernel.simd_ns_per_pair", 26.748_653);
        out
    }

    #[test]
    fn results_file_round_trips_through_the_parser() {
        let doc = result_json("host_n1024", &ctx(), &outcome());
        let back = json::parse(&doc.to_pretty()).expect("own output parses");
        assert_eq!(back, doc);
        let metric = |name: &str| back.get("metrics").and_then(|m| m.get(name)).cloned();
        assert_eq!(
            metric("sim.interactions").and_then(|m| m.get("value")?.as_f64()),
            Some(95_992_320.0)
        );
        assert_eq!(
            metric("chip.kernel.simd_ns_per_pair")
                .and_then(|m| Some(m.get("unit")?.as_str()?.to_string())),
            Some("ns".to_string())
        );
        assert_eq!(
            back.get("host").and_then(|h| h.get("seed")?.as_f64()),
            Some(7.0)
        );
        assert_eq!(back.get("correct").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn contract_line_carries_exactly_the_listed_metrics() {
        let out = outcome();
        for (traced, expected) in [
            (
                false,
                spec::END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>(),
            ),
            (
                true,
                spec::PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>(),
            ),
        ] {
            let line = contract_line(&out, traced);
            let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let names: Vec<&str> = line
                .get("metrics")
                .unwrap()
                .members()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(names, expected);
            assert!(!line.to_line().contains('\n'));
        }
        // A share or count of a layer this workload never entered reads 0.
        let traced = contract_line(&out, true);
        let value = |name: &str| traced.get("metrics")?.get(name)?.get("value")?.as_f64();
        assert_eq!(value("farm.sched.denials"), Some(0.0));
        assert_eq!(value("sim.interactions"), Some(95_992_320.0));
    }

    #[test]
    fn run_arguments_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_run_args(&args(
            "--workload farm_uds --seed 9 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.traced, a.repeat),
            (Some("farm_uds"), 9, Some(2.5), true, 1)
        );
        let d = parse_run_args(&[]).unwrap();
        assert_eq!((d.seed, d.traced, d.smoke), (2003, false, false));
        for bad in [
            "--trace 2",
            "--seconds 0",
            "--seconds nan",
            "--seed x",
            "--repeat 0",
            "--bogus",
            "--seed",
        ] {
            assert!(parse_run_args(&args(bad)).is_err(), "{bad} accepted");
        }
    }
}
