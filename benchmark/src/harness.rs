//! What every workload shares: the run context, the timed-loop
//! bookkeeping, repeated set-ups, output checks and the host fingerprint.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::spans::Recorder;
use crate::stats;

/// Set-ups in a batch, at least.  An untraced run makes two batches, one
/// before its window and one after, and `setup_s` is the fastest set-up of
/// both: the host's states outlast a batch, rarely a run.
pub const SETUPS: usize = 3;

/// A quick set-up is repeated until this much time has gone into the batch
/// (and at most [`MAX_SETUPS`] times).
pub const SETUP_BUDGET: Duration = Duration::from_secs(1);
pub const MAX_SETUPS: usize = 100;

/// A traced run does an eighth of the untraced op count in an untraced
/// reference window (the base of `bench.trace_overhead_frac`), a quarter
/// in the traced window, and spends this share of `--seconds` on the
/// layer probes.
pub const TRACED_REFERENCE_DIVISOR: u64 = 8;
pub const TRACED_WINDOW_DIVISOR: u64 = 4;
pub const TRACED_PROBE_SHARE: f64 = 0.375;

/// Arguments of one workload run.
#[derive(Clone, Debug)]
pub struct Ctx {
    pub seed: u64,
    /// `--seconds`: scales the op count and budgets the probes.
    pub seconds: f64,
    /// Ops the untraced timed window completes (`Workload::ops`): fixed
    /// work, so two commits measure the same thing.
    pub ops: u64,
    pub traced: bool,
    /// One-second counts so everything finishes quickly (CI wiring).
    pub smoke: bool,
    /// `benchmark/out`: results and traces.
    pub out_dir: PathBuf,
    /// Scratch under `out_dir` for sockets, rendezvous files, checkpoints;
    /// removed when the run ends.
    pub tmp_dir: PathBuf,
}

impl Ctx {
    /// A fresh scratch subdirectory.
    pub fn scratch(&self, name: &str) -> PathBuf {
        let dir = self.tmp_dir.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory under benchmark/out");
        dir
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Calls attempted (blocksteps, sweeps, jobs, waves) in the timed window.
    pub attempted: u64,
    /// Calls that failed or were refused.
    pub failed: u64,
    /// Latency samples behind the percentiles.
    pub samples: usize,
    /// The highest tail percentile that still has ten samples beyond it,
    /// and the latency there in microseconds (`None` below 100 samples:
    /// then even p90 rests on fewer than ten).
    pub tail: Option<(f64, f64)>,
    /// Output checks, by name; all must hold for `correct`.
    pub checks: Vec<(String, bool)>,
    /// Metric values by name.  Only metrics the workload measured are
    /// present; the contract line fills the rest of the per-layer list.
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.insert(name.to_string(), value);
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Merge probe results and the like.
    pub fn extend(&mut self, metrics: BTreeMap<String, f64>) {
        for (k, v) in metrics {
            self.set(&k, v);
        }
    }
}

/// Consecutive equal-count groups of calls the window is cut into to see
/// how much its rate drifted (`bench.segment_spread_frac`).
pub const SEGMENTS: usize = 5;

/// Per-call samples of one timed window.
#[derive(Debug, Default)]
pub struct Window {
    /// Wall nanoseconds of each call.
    pub call_ns: Vec<f64>,
    /// Ops each call completed (block size, pairs per sweep, 1).
    pub call_ops: Vec<u64>,
    /// When each call ended, nanoseconds since the window opened.
    pub call_end_ns: Vec<f64>,
    /// Latency samples, when they are not the calls themselves (the host
    /// workloads time a fixed number of particle steps, many blocksteps).
    pub latency_ns: Vec<f64>,
    /// Wall of the window: from its opening to its last counted call's end.
    pub wall_ns: f64,
}

impl Window {
    pub fn with_capacity(n: usize) -> Self {
        Self {
            call_ns: Vec::with_capacity(n),
            call_ops: Vec::with_capacity(n),
            call_end_ns: Vec::with_capacity(n),
            latency_ns: Vec::new(),
            wall_ns: 0.0,
        }
    }

    pub fn push(&mut self, ns: f64, ops: u64, end_ns: f64) {
        self.call_ns.push(ns);
        self.call_ops.push(ops);
        self.call_end_ns.push(end_ns);
    }

    pub fn ops(&self) -> u64 {
        self.call_ops.iter().sum()
    }

    /// Ops per nanosecond of each of up to [`SEGMENTS`] consecutive
    /// equal-count groups of calls.
    fn segment_rates(&self) -> Vec<f64> {
        let n = self.call_ops.len();
        let k = SEGMENTS.min(n);
        let mut opened = 0.0;
        (0..k)
            .filter_map(|s| {
                let (lo, hi) = (s * n / k, (s + 1) * n / k);
                let closed = self.call_end_ns[hi - 1];
                let ops: u64 = self.call_ops[lo..hi].iter().sum();
                let rate = (closed > opened).then(|| ops as f64 / (closed - opened));
                opened = closed;
                rate
            })
            .collect()
    }

    /// Ops completed over the window's wall.  (The median of the segment
    /// rates would shrug off a burst of interference, but `farm_uds`
    /// completes jobs in bursts of four, and any cut into segments turns
    /// that into noise an order of magnitude above its 1 % spread.)
    pub fn ops_per_s(&self) -> f64 {
        self.ops() as f64 / (self.wall_ns * 1e-9)
    }

    /// Wall per op over the whole window, tracing and loop costs included.
    pub fn ns_per_op(&self) -> f64 {
        self.wall_ns / self.ops() as f64
    }

    /// Ascending latency samples.
    pub fn latencies(&self) -> Vec<f64> {
        stats::sorted(if self.latency_ns.is_empty() {
            &self.call_ns
        } else {
            &self.latency_ns
        })
    }

    /// The timing end-to-end metric, and the whole-window numbers that go
    /// with it in the results file.
    pub fn end_to_end(&self, out: &mut Outcome) {
        let sorted = self.latencies();
        out.samples = sorted.len();
        out.set("call_us_p05", stats::percentile(&sorted, 0.05) / 1e3);
        out.set("ops_per_s", self.ops_per_s());
        out.set("latency_us_p50", stats::percentile(&sorted, 0.5) / 1e3);
        out.set("latency_us_p90", stats::percentile(&sorted, 0.9) / 1e3);
        out.tail = stats::highest_supported_tail(sorted.len(), 10)
            .map(|q| (q, stats::percentile(&sorted, q) / 1e3));
    }

    /// (max − min) / median of the segment rates: how much the workload
    /// (or the machine under it) drifted within the run.
    pub fn segment_spread(&self) -> f64 {
        let rates = stats::sorted(&self.segment_rates());
        match (rates.first(), rates.last()) {
            (Some(lo), Some(hi)) => (hi - lo) / stats::median(&rates),
            _ => 0.0,
        }
    }
}

/// What every workload's timed window yields; each workload's own run
/// record carries one and hands it out through `AsRef`.
#[derive(Debug, Default)]
pub struct Measured {
    pub window: Window,
    /// Fastest set-up, seconds.
    pub setup_s: f64,
    /// Calls that failed or came back wrong (they are not in `window`).
    pub failed: u64,
}

/// Measure the way the run was asked to and record what every workload
/// reports.  Untraced: a batch of set-ups, the full op count, and a second
/// batch of set-ups behind a window of one op (one set-up and no second
/// batch in smoke mode).  Traced: a short untraced reference window, then
/// the traced window with a fresh recorder; their ns/op ratio is the
/// tracing overhead.  `measure(ops, setups, recorder)` is the workload: it
/// completes at least `ops` ops and stops at the first call boundary
/// there, so its work depends on the inputs alone.
pub fn measure_as_asked<R: AsRef<Measured>>(
    ctx: &Ctx,
    out: &mut Outcome,
    mut measure: impl FnMut(u64, usize, Option<&mut Recorder>) -> R,
) -> (R, Option<Recorder>) {
    let mut second_batch_s = f64::INFINITY;
    let (primary, rec) = if ctx.traced {
        let reference = measure((ctx.ops / TRACED_REFERENCE_DIVISOR).max(1), 1, None);
        let mut rec = Recorder::new(Instant::now());
        let window_ops = (ctx.ops / TRACED_WINDOW_DIVISOR).max(1);
        let traced = measure(window_ops, 1, Some(&mut rec));
        let (r, t) = (reference.as_ref(), traced.as_ref());
        out.set(
            "bench.trace_overhead_frac",
            t.window.ns_per_op() / r.window.ns_per_op() - 1.0,
        );
        out.set("bench.traced_ns_per_op", t.window.ns_per_op());
        out.failed += r.failed;
        (traced, Some(rec))
    } else {
        let setups = if ctx.smoke { 1 } else { SETUPS };
        let primary = measure(ctx.ops, setups, None);
        if !ctx.smoke {
            let after = measure(1, setups, None);
            out.failed += after.as_ref().failed;
            second_batch_s = after.as_ref().setup_s;
        }
        (primary, None)
    };
    let m = primary.as_ref();
    out.attempted = m.window.call_ns.len() as u64 + m.failed;
    out.failed += m.failed;
    m.window.end_to_end(out);
    out.set("setup_s", m.setup_s.min(second_batch_s));
    out.set("bench.segment_spread_frac", m.window.segment_spread());
    (primary, rec)
}

/// Run `setup` `repeats` times — and, unless that is once, on until
/// [`SETUP_BUDGET`] is spent or [`MAX_SETUPS`] reached — dropping each
/// instance before building the next; then `warm_up` the last instance,
/// untimed.  Returns what `warm_up` returns and the fastest set-up's time in
/// seconds.  (The fastest, not the median, for the reason `call_us_p05` is
/// not a median: a set-up that met the host's slow state took 1.4 to 2
/// times as long, and the medians of two sets of runs of one commit were
/// 34 % apart.  The warm-up ops are not in it because they are the
/// harness's, not the program's, and the same work as the window's: with
/// them, three quarters of `host_tree_n256`'s set-up was blocksteps.)
pub fn repeated_setup<S, W>(
    repeats: usize,
    mut setup: impl FnMut(usize) -> S,
    warm_up: impl FnOnce(S) -> W,
) -> (W, f64) {
    let mut fastest = f64::INFINITY;
    let mut last = None;
    let started = Instant::now();
    let mut k = 0;
    while k < repeats.max(1) || (repeats > 1 && k < MAX_SETUPS && started.elapsed() < SETUP_BUDGET)
    {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup(k));
        fastest = fastest.min(t0.elapsed().as_secs_f64());
        k += 1;
    }
    (warm_up(last.expect("at least one set-up")), fastest)
}

/// Time `work` (which performs `units` units per call) for about `budget`:
/// a calibration call sizes five batches; the result is the median batch's
/// nanoseconds per unit.
pub fn probe(budget: Duration, units: f64, mut work: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    work();
    let once = t0.elapsed().as_secs_f64().max(1e-9);
    let per_batch = ((budget.as_secs_f64() / 6.0 / once) as usize).clamp(1, 1_000_000);
    let mut batches = [0.0f64; 5];
    for b in &mut batches {
        let t = Instant::now();
        for _ in 0..per_batch {
            work();
        }
        *b = t.elapsed().as_nanos() as f64 / (per_batch as f64 * units);
    }
    stats::median(&stats::sorted(&batches))
}

extern "C" {
    /// glibc's wrapper of the `sched_setaffinity` system call.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    /// glibc's wrapper of the `sched_setscheduler` system call; `param`
    /// points at a `struct sched_param`, which is one `int`.
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

const SCHED_BATCH: i32 = 3;

/// What [`place_handoff_thread`] achieved in this process, for the host
/// fingerprint: numbers with different placements are not comparable.
static HANDOFF_PLACEMENT: std::sync::OnceLock<&'static str> = std::sync::OnceLock::new();

/// Placement for two threads that hand work back and forth over a socket
/// (the cluster ranks, the round-trip probe): both on CPU 0 and in the
/// `SCHED_BATCH` class.  Left to the scheduler they sometimes share a core
/// and sometimes do not, and on the 2-vCPU reference VM a wave costs three
/// times as much across cores (two hypervisor-mediated wake-ups) as within
/// one: a spread no regression bound survives.  On one core a woken
/// normal-class thread may or may not preempt its waker, which made the
/// median wave flip between 36 and 55 µs from run to run; a batch thread
/// never preempts on wake-up, so the two switch exactly when one blocks.
///
/// Call it first thing on a thread spawned for the purpose: threads that
/// thread spawns inherit both settings, and nothing has to be undone when
/// it ends.  Both calls are unprivileged; what a sandbox refuses is
/// recorded ([`handoff_placement`]) and the run goes on as the scheduler
/// places it.
pub fn place_handoff_thread() {
    let (cpu0, priority): (u64, i32) = (1, 0);
    // SAFETY: `cpu0` is a live 8-byte CPU set passed with its size, and
    // `priority` a live `int`, which is all of `struct sched_param` on
    // Linux; pid 0 names the calling thread.  Both calls only read them.
    let (pinned, batch) = unsafe {
        (
            sched_setaffinity(0, std::mem::size_of::<u64>(), &cpu0) == 0,
            sched_setscheduler(0, SCHED_BATCH, &priority) == 0,
        )
    };
    let got = match (pinned, batch) {
        (true, true) => "cpu0+batch",
        (true, false) => "cpu0",
        (false, true) => "batch",
        (false, false) => "refused",
    };
    let first = *HANDOFF_PLACEMENT.get_or_init(|| got);
    assert_eq!(first, got, "thread placement changed within one run");
}

/// `"cpu0+batch"` when both settings took, what was left otherwise,
/// `"unused"` for a workload that places no thread.
pub fn handoff_placement() -> &'static str {
    HANDOFF_PLACEMENT.get().copied().unwrap_or("unused")
}

/// CPUs this process may use.  (The main thread is never pinned.)
fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pin rayon's global pool to `min(nproc, 4)` threads.  Call once, before
/// anything uses the pool.
pub fn pin_rayon() {
    rayon::ThreadPoolBuilder::new()
        .num_threads(cpus().min(4))
        .build_global()
        .expect("rayon's global pool is configured once, before first use");
}

/// Whether `rayon` is a thread pool or the sequential stand-in of
/// `offline/config.toml`, told by where a parallel iterator runs: a pool
/// runs it on its workers, never on a calling thread outside the pool.
fn rayon_kind() -> &'static str {
    use rayon::prelude::*;
    let caller = std::thread::current().id();
    if [0u8; 8]
        .par_iter()
        .all(|_| std::thread::current().id() == caller)
    {
        "sequential stand-in"
    } else {
        "thread pool"
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .expect("VmHWM in /proc/self/status")
}

/// Cost of one `Instant::now()` pair, nanoseconds.
pub fn timer_ns() -> f64 {
    probe(Duration::from_millis(20), 1.0, || {
        let t = Instant::now();
        std::hint::black_box(t.elapsed());
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Where the numbers came from: results are only comparable between runs
/// with the same fingerprint.
pub fn fingerprint(ctx: &Ctx) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = cpus();
    Json::obj([
        ("cpu", Json::str(cpu)),
        ("nproc", Json::Num(nproc as f64)),
        (
            "simd_level",
            Json::str(grape6_arith::active_level().map_or("none", |l| l.name())),
        ),
        ("rayon", Json::str(rayon_kind())),
        (
            "rayon_threads",
            Json::Num(rayon::current_num_threads() as f64),
        ),
        ("handoff_placement", Json::str(handoff_placement())),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(ctx.seed as f64)),
        ("seconds", Json::Num(ctx.seconds)),
        ("ops", Json::Num(ctx.ops as f64)),
        ("traced", Json::Bool(ctx.traced)),
        ("smoke", Json::Bool(ctx.smoke)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_metrics_and_segment_spread() {
        let mut w = Window::default();
        // Ten calls of 10 ops; the last two take twice as long.
        let mut t = 0.0;
        for k in 0..10 {
            let ns = if k < 8 { 1000.0 } else { 2000.0 };
            t += ns;
            w.push(ns, 10, t);
        }
        w.wall_ns = t;
        assert_eq!(w.ops(), 100);
        assert!((w.ops_per_s() - 100.0 / 12e-6).abs() < 1e-3);
        assert!((w.ns_per_op() - 120.0).abs() < 1e-9);
        // Five segments of two calls: four at 100 ns/op, one at 200 ns/op.
        assert!((w.segment_spread() - 0.5).abs() < 1e-12);
        let mut out = Outcome::default();
        w.end_to_end(&mut out);
        assert_eq!(out.samples, 10);
        assert_eq!(out.metrics["call_us_p05"], 1.0);
        assert_eq!(out.metrics["latency_us_p50"], 1.0);
        assert_eq!(out.metrics["latency_us_p90"], 2.0);
        assert_eq!(out.tail, None, "ten samples cannot support p90");
    }

    #[test]
    fn outcome_is_correct_only_without_failures_or_failed_checks() {
        let mut o = Outcome::default();
        o.check("a", true);
        assert!(o.correct());
        o.failed = 1;
        assert!(!o.correct());
        o.failed = 0;
        o.check("b", false);
        assert!(!o.correct());
    }

    #[test]
    fn repeated_setup_keeps_the_last_instance() {
        // Instant set-ups never spend the budget, so the cap ends them.
        let mut built = Vec::new();
        let (last, fastest_s) = repeated_setup(
            3,
            |k| {
                built.push(k);
                k * 10
            },
            |last| last + 1,
        );
        assert_eq!(built, (0..MAX_SETUPS).collect::<Vec<_>>());
        assert_eq!(last, (MAX_SETUPS - 1) * 10 + 1);
        assert!(fastest_s >= 0.0 && fastest_s.is_finite());
        // Asked for one (a traced or smoke run), it is one.
        let mut count = 0;
        repeated_setup(1, |_| count += 1, |()| ());
        assert_eq!(count, 1);
    }
}
