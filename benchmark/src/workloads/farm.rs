//! `farm_uds`: jobs through `FarmClient` → Unix socket → `FarmServer` →
//! deficit-WRR scheduler → engine → result, closed loop.
//!
//! One client connection keeps four jobs outstanding against a server
//! thread with two boards, so sessions outnumber boards and checkpoint
//! eviction / `restore_migrate` are on the latency path.
//!
//! op = call = job (`submit` → verified `JobResult` in hand).

use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use grape6_core::{Grape6Engine, HermiteIntegrator, IntegratorConfig};
use grape6_farm::{
    particles_digest, FarmClient, FarmConfig, FarmServer, FarmServerConfig, FarmStats, Job,
    ServeOptions, SessionId, SessionPhase,
};
use grape6_net::StreamKind;
use grape6_system::MachineConfig;
use nbody_core::ic::plummer::plummer_model;
use nbody_core::ParticleSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::harness::{self, Ctx, Measured, Outcome, Window};
use crate::spans::Recorder;
use crate::stats;

pub const JOB_N: usize = 128;
/// Long enough that a job needs several scheduler quanta (and with them
/// evictions and resumes), short enough for over two hundred jobs per run:
/// at the issue's 0.25 the scheduler evicts on every one of a job's ~35
/// grants and the service completes 2 jobs a second.
pub const JOB_T_END: f64 = 1.0 / 32.0;
const OUTSTANDING: usize = 4;
const BOARDS: usize = 2;
/// The client library's default poll interval, restated because the
/// traced run drives the same wait loop itself to put spans around it.
const POLL_INTERVAL: Duration = Duration::from_millis(10);
const RESULT_TIMEOUT: Duration = Duration::from_secs(60);

pub fn board() -> MachineConfig {
    MachineConfig::test_small()
}

/// Initial conditions of job `k` of the stream `seed` draws: every job is
/// its own Plummer realization, taken as it comes.  A realization needs
/// anything from 20 to 100 blocksteps to reach `JOB_T_END` (3 to 13
/// scheduler quanta), so the stream has the spread of job lengths the
/// deficit-WRR scheduler exists for; a run's couple of hundred jobs
/// average it out between seeds.
pub fn job_set(seed: u64, k: u64) -> ParticleSet {
    let ic_seed = seed.wrapping_mul(1 << 20).wrapping_add(k);
    plummer_model(JOB_N, &mut StdRng::seed_from_u64(ic_seed))
}

/// The job on a dedicated healthy board, in-process and uninterrupted.
pub fn dedicated(set: ParticleSet) -> HermiteIntegrator<Grape6Engine> {
    let engine = Grape6Engine::try_new(&board(), JOB_N).expect("one board holds the job");
    let mut it = HermiteIntegrator::new(engine, set, IntegratorConfig::default());
    it.run_until(JOB_T_END);
    it
}

pub fn farm_config() -> FarmConfig {
    FarmConfig::builder(board())
        .boards(BOARDS)
        .max_live_sessions(OUTSTANDING)
        .build()
        .expect("valid farm configuration")
}

/// Jobs `0..count` of the stream.
fn stream(seed: u64, count: u64) -> Vec<Job> {
    (0..count)
        .map(|k| {
            Job::builder(job_set(seed, k))
                .t_end(JOB_T_END)
                .label(format!("bench-{k}"))
                .build()
                .expect("valid job")
        })
        .collect()
}

/// What the server thread hands back when it stops.
struct ServerEnd {
    farm: FarmStats,
    denials: u64,
    /// Spans around `poll` and the idle sleep (traced runs only).
    rec: Option<Recorder>,
}

/// A bound server on its own thread plus one handshaken client.
struct Service {
    client: Option<FarmClient>,
    server: Option<JoinHandle<ServerEnd>>,
    stop: Arc<AtomicBool>,
}

impl Service {
    /// Bind, serve, connect.  Untraced, the thread runs the library's own
    /// `FarmServer::serve`; traced, the harness drives `poll` with the
    /// same 1 ms idle sleep and a span around each call.
    fn start(dir: &Path, trace_epoch: Option<Instant>) -> Self {
        let mut server_cfg = FarmServerConfig::new(dir.to_path_buf());
        server_cfg.kind = StreamKind::Uds;
        let mut server = FarmServer::bind(farm_config(), server_cfg).expect("farm server binds");
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || match trace_epoch {
            None => {
                let report = server.serve(ServeOptions {
                    max_wall: Duration::from_secs(3600),
                    exit_after_idle: Some(Duration::from_millis(20)),
                });
                ServerEnd {
                    farm: report.farm,
                    denials: report.denials,
                    rec: None,
                }
            }
            Some(epoch) => {
                let mut rec = Recorder::new(epoch);
                while !stop_flag.load(Ordering::SeqCst) {
                    // The span's op id carries what the poll did: requests
                    // answered plus grants made, 0 for an idle cycle.
                    let start_ns = rec.now_ns();
                    let activity = server.poll();
                    let end_ns = rec.now_ns();
                    rec.add_closed(
                        "farm.server.poll",
                        "farm",
                        activity as u64,
                        None,
                        start_ns,
                        end_ns,
                    );
                    if activity == 0 {
                        let id = rec.open("farm.server.idle_sleep", "farm", 0);
                        std::thread::sleep(Duration::from_millis(1));
                        rec.close(id);
                    }
                }
                ServerEnd {
                    farm: server.farm().stats().clone(),
                    denials: server.report().denials,
                    rec: Some(rec),
                }
            }
        });
        let client = FarmClient::builder(dir)
            .kind(StreamKind::Uds)
            .connect()
            .expect("client handshake");
        Self {
            client: Some(client),
            server: Some(handle),
            stop,
        }
    }

    fn client(&mut self) -> &mut FarmClient {
        self.client.as_mut().expect("client until shutdown")
    }

    /// Say goodbye, stop the server thread and wait for it.
    fn shutdown(&mut self) -> Option<ServerEnd> {
        if let Some(c) = self.client.take() {
            let _ = c.bye();
        }
        self.stop.store(true, Ordering::SeqCst);
        self.server.take().and_then(|h| h.join().ok())
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

struct FarmRun {
    m: Measured,
    /// Window start on the trace clock (0 when untraced).
    window_start_ns: u64,
    /// (job, `particles_digest` of its result), in completion order.
    results: Vec<(u64, u64)>,
    end: ServerEnd,
}

impl AsRef<Measured> for FarmRun {
    fn as_ref(&self) -> &Measured {
        &self.m
    }
}

/// The client's wait loop, with a span around each step when traced.
/// Untraced this is the library's own `wait_result`.
fn wait_result(
    client: &mut FarmClient,
    sid: SessionId,
    op: u64,
    rec: Option<&mut Recorder>,
) -> Result<grape6_farm::JobResult, grape6_farm::FarmClientError> {
    let Some(rec) = rec else {
        return client.wait_result(sid, RESULT_TIMEOUT);
    };
    let start = Instant::now();
    loop {
        let id = rec.open("farm.client.status", "farm", op);
        let status = client.status(sid);
        rec.close(id);
        if matches!(status?.phase, SessionPhase::Done | SessionPhase::Failed) {
            let id = rec.open("farm.client.fetch", "farm", op);
            let res = client.fetch(sid);
            rec.close(id);
            return res;
        }
        if start.elapsed() > RESULT_TIMEOUT {
            return Err(grape6_farm::FarmClientError::TimedOut { session: sid });
        }
        let id = rec.open("farm.client.sleep", "farm", op);
        std::thread::sleep(POLL_INTERVAL);
        rec.close(id);
    }
}

fn submit(
    client: &mut FarmClient,
    job: &Job,
    op: u64,
    rec: Option<&mut Recorder>,
) -> Result<SessionId, grape6_farm::FarmClientError> {
    let span = rec.map(|r| (r.open("farm.client.submit", "farm", op), r));
    let res = client.submit(job);
    if let Some((id, r)) = span {
        r.close(id);
    }
    res
}

/// Set up (`setups` times: bind, serve, handshake, and the stream's first
/// [`OUTSTANDING`] jobs through the whole path as warm-up), then push the
/// next `ops` jobs through, [`OUTSTANDING`] at a time.
fn measure(
    ctx: &Ctx,
    jobs: &[Job],
    ops: u64,
    setups: usize,
    mut rec: Option<&mut Recorder>,
) -> FarmRun {
    let trace_epoch = rec.as_deref().map(Recorder::epoch);
    let (mut svc, setup_s) = harness::repeated_setup(
        setups,
        |k| Service::start(&ctx.scratch(&format!("farm-{k}")), trace_epoch),
        |mut svc| {
            let sids: Vec<SessionId> = jobs[..OUTSTANDING]
                .iter()
                .map(|j| svc.client().submit(j).expect("warm-up submit"))
                .collect();
            for sid in sids {
                svc.client()
                    .wait_result(sid, RESULT_TIMEOUT)
                    .expect("warm-up result");
            }
            svc
        },
    );
    let mut window = Window::with_capacity(ops as usize);
    let mut results = Vec::with_capacity(ops as usize);
    let mut failed = 0u64;
    let mut in_flight: VecDeque<(SessionId, Instant, u64)> = VecDeque::new();
    let first = OUTSTANDING as u64;
    let mut next_job = first;
    let window_start_ns = rec.as_deref().map_or(0, Recorder::now_ns);
    let t_start = Instant::now();
    loop {
        while failed == 0 && next_job < first + ops && in_flight.len() < OUTSTANDING {
            let t_submit = Instant::now();
            match submit(
                svc.client(),
                &jobs[next_job as usize],
                next_job,
                rec.as_deref_mut(),
            ) {
                Ok(sid) => in_flight.push_back((sid, t_submit, next_job)),
                Err(_) => failed += 1,
            }
            next_job += 1;
        }
        let Some((sid, t_submit, op)) = in_flight.pop_front() else {
            break;
        };
        match wait_result(svc.client(), sid, op, rec.as_deref_mut()) {
            Ok(res) => {
                let now = Instant::now();
                window.push(
                    (now - t_submit).as_nanos() as f64,
                    1,
                    (now - t_start).as_nanos() as f64,
                );
                results.push((op, particles_digest(&res.particles)));
            }
            Err(_) => failed += 1,
        }
    }
    window.wall_ns = t_start.elapsed().as_nanos() as f64;
    let end = svc.shutdown().expect("server thread result");
    FarmRun {
        m: Measured {
            window,
            setup_s,
            failed,
        },
        window_start_ns,
        results,
        end,
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let jobs = stream(ctx.seed, OUTSTANDING as u64 + ctx.ops);
    let (primary, client_rec) = harness::measure_as_asked(ctx, &mut out, |ops, setups, rec| {
        measure(ctx, &jobs, ops, setups, rec)
    });
    let n_jobs = primary.m.window.call_ns.len() as f64;

    // Every job the window completed, once more on a dedicated board.
    let v0 = Instant::now();
    let mut dedicated_ms = Vec::with_capacity(primary.results.len());
    let mut wrong = 0u64;
    for &(k, digest) in &primary.results {
        let t0 = Instant::now();
        let it = dedicated(job_set(ctx.seed, k));
        dedicated_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        wrong += u64::from(particles_digest(it.particles()) != digest);
    }
    out.failed += wrong;
    out.check(
        "every result digest equals the dedicated in-process run of the same job",
        wrong == 0,
    );
    out.check("no request was denied", primary.end.denials == 0);
    out.set("bench.verify_s", v0.elapsed().as_secs_f64());

    let latencies = stats::sorted(&primary.m.window.call_ns);
    let p50_ms = stats::percentile(&latencies, 0.5) / 1e6;
    let dedicated_ms = stats::median(&stats::sorted(&dedicated_ms));
    out.set("farm.job.dedicated_ms", dedicated_ms);
    out.set("farm.job.latency_over_dedicated", p50_ms / dedicated_ms);
    let f = &primary.end.farm;
    out.set(
        "farm.sched.grants_per_job",
        f.grants as f64 / f.completed.max(1) as f64,
    );
    out.set(
        "farm.sched.evictions_per_job",
        f.evictions as f64 / f.completed.max(1) as f64,
    );
    out.set(
        "farm.sched.resumes_per_job",
        f.resumes as f64 / f.completed.max(1) as f64,
    );
    out.set("farm.sched.denials", primary.end.denials as f64);

    if let (Some(rec), Some(server_rec)) = (client_rec, primary.end.rec.as_ref()) {
        let p50 = |name: &str| {
            let d = stats::sorted(&rec.durations(name));
            if d.is_empty() {
                0.0
            } else {
                stats::percentile(&d, 0.5) / 1e6
            }
        };
        out.set("farm.client.submit_ms_p50", p50("farm.client.submit"));
        out.set("farm.client.status_ms_p50", p50("farm.client.status"));
        out.set("farm.client.fetch_ms_p50", p50("farm.client.fetch"));
        let totals = rec.totals();
        let total = |name: &str| totals.get(name).copied().unwrap_or_default();
        out.set(
            "farm.client.polls_per_job",
            total("farm.client.status").calls as f64 / n_jobs,
        );
        let wall = primary.m.window.wall_ns;
        out.set(
            "farm.client.request_wall_share",
            (total("farm.client.submit").total_ns
                + total("farm.client.status").total_ns
                + total("farm.client.fetch").total_ns) as f64
                / wall,
        );
        out.set(
            "farm.client.sleep_wall_share",
            total("farm.client.sleep").total_ns as f64 / wall,
        );
        out.set(
            "farm.client.job_latency_ms_p99",
            stats::percentile(&latencies, 0.99) / 1e6,
        );
        // Server polls inside the window; the op id is the poll's activity.
        let window_end_ns = primary.window_start_ns + primary.m.window.wall_ns as u64;
        let polls = server_rec.spans().iter().filter(|s| {
            s.name == "farm.server.poll"
                && s.start_ns >= primary.window_start_ns
                && s.start_ns < window_end_ns
        });
        let (mut busy_ns, mut idle_polls) = (0u64, 0u64);
        for s in polls {
            if s.op_id > 0 {
                busy_ns += s.end_ns - s.start_ns;
            } else {
                idle_polls += 1;
            }
        }
        out.set("farm.server.poll_busy_wall_share", busy_ns as f64 / wall);
        let window_jobs = primary.m.window.ops() as f64;
        out.set(
            "farm.server.poll_busy_ms_per_job",
            busy_ns as f64 / 1e6 / window_jobs,
        );
        out.set(
            "farm.server.idle_polls_per_job",
            idle_polls as f64 / window_jobs,
        );
        super::write_trace(ctx, "farm_uds", &[("client", &rec), ("server", server_rec)]);
    }
    out
}
