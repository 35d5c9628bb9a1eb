//! The networked farm soak: real OS processes against a real socket.
//!
//! One `farm_server` process serves the shared board pool over TCP or
//! UDS; around it the harness arranges every operational insult the
//! in-process soak knows, plus the ones only a socket can deliver:
//!
//! * **oversubscription** — a victim client parks one session on the
//!   admission ceiling, then two worker clients submit four more jobs
//!   against a ceiling of three, so at least one submit *must* come
//!   back as a typed `Saturated` denial (in wall milliseconds) and
//!   clear through the deterministic backoff ladder;
//! * **two injected board faults** — board 1 flunks power-on self-test
//!   (dead module; a 48-particle job can never fit) and board 2 dies
//!   mid-run (recovery ladder, park, rotation, resume elsewhere);
//! * **one SIGKILLed client** — the victim is killed mid-job with no
//!   `Bye`; the server must notice (EOF or heartbeat-grace), detach its
//!   session onto a checkpoint, and hand the board to the workers;
//! * **wire vandals** — a torn-frame injector that dies mid-frame and a
//!   mid-handshake deserter, both of which the server must classify and
//!   shrug off.
//!
//! The verdict is the same as everywhere else in this repo: every job a
//! worker client fetched over the wire must be **bitwise identical** to
//! the same job run in-process on a dedicated healthy board
//! ([`grape6_farm::particles_digest`] on both sides).  `farm_net_soak`
//! runs this for TCP and UDS and exits 1 on any violation.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use grape6_core::{Grape6Engine, HermiteIntegrator, IntegratorConfig};
use grape6_farm::particles_digest;
use grape6_fault::rng::mix;
use nbody_core::ic::plummer::plummer_model;
use nbody_core::particle::ParticleSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::farm::soak_unit;

/// The initial conditions client `seed` uses for its `j`-th job — the
/// one function both the `farm_client` bin and the dedicated-replay
/// oracle call, so the bits they integrate are the same by construction.
pub fn job_ic(seed: u64, j: u64, n: usize) -> ParticleSet {
    let ic_seed = mix(seed, j, 0xfa57, 7, 1);
    plummer_model(n, &mut StdRng::seed_from_u64(ic_seed))
}

/// The oracle: the same job on a dedicated healthy board, in-process,
/// uninterrupted — the digest the wire result must reproduce exactly.
pub fn dedicated_digest(seed: u64, j: u64, n: usize, t_end: f64) -> u64 {
    let engine = Grape6Engine::try_new(&soak_unit(), n).expect("healthy board fits the job");
    let mut it = HermiteIntegrator::new(engine, job_ic(seed, j, n), IntegratorConfig::default());
    it.run_until(t_end);
    particles_digest(it.particles())
}

/// Scenario shape for one transport kind.
#[derive(Clone, Debug)]
pub struct FarmNetConfig {
    /// Path to the `farm_server` binary.
    pub server_bin: PathBuf,
    /// Path to the `farm_client` binary.
    pub client_bin: PathBuf,
    /// Rendezvous directory (recreated per run).
    pub dir: PathBuf,
    /// `"tcp"` or `"uds"`.
    pub kind: String,
    /// Run nonce (stale-rendezvous guard).
    pub nonce: u64,
    /// Particles per job — 48 so the dead-module board can never help.
    pub n: usize,
    /// Target time per worker job.
    pub t_end: f64,
    /// Jobs per worker client.
    pub jobs_per_client: usize,
    /// Admission ceiling; victim + 2×jobs must exceed it.
    pub max_live: usize,
    /// Scenario seed (client seeds derive from it).
    pub seed: u64,
    /// Wall cap on the whole scenario.
    pub wall_cap: Duration,
}

impl FarmNetConfig {
    /// The acceptance scenario: ceiling 3, five jobs offered, two board
    /// faults, one murdered client.
    pub fn new(server_bin: PathBuf, client_bin: PathBuf, dir: PathBuf, kind: &str) -> Self {
        Self {
            server_bin,
            client_bin,
            dir,
            kind: kind.into(),
            nonce: 0xfa43,
            n: 48,
            t_end: 0.0625,
            jobs_per_client: 2,
            max_live: 3,
            seed: 17,
            wall_cap: Duration::from_secs(180),
        }
    }
}

/// What one networked soak produced.
#[derive(Clone, Debug, Default)]
pub struct FarmNetOutcome {
    /// Transport kind.
    pub kind: String,
    /// Worker jobs fetched over the wire.
    pub jobs_done: u64,
    /// Of those, bitwise identical to the dedicated in-process run.
    pub digests_ok: u64,
    /// Typed `Saturated` denials the workers saw (and retried through).
    pub saturated_denials: u64,
    /// Torn frames the server classified.
    pub torn_frames: u64,
    /// Connections the server declared dead (victim, vandals).
    pub client_deaths: u64,
    /// Sessions detached onto checkpoints (the victim's).
    pub detached: u64,
    /// Sessions the farm completed.
    pub completed: u64,
    /// Boards rotated out (the two injected faults).
    pub board_rotations: u64,
    /// Wall time of the whole scenario.
    pub wall_ms: u64,
    /// Every broken invariant; empty = passed.
    pub violations: Vec<String>,
}

impl FarmNetOutcome {
    /// Did every invariant hold?
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Deliver `sig` to `pid` the way an operator would.
fn signal(pid: u32, sig: &str) -> bool {
    Command::new("kill")
        .arg(format!("-{sig}"))
        .arg(pid.to_string())
        .status()
        .map(|s| s.success())
        .unwrap_or(false)
}

fn spawn(bin: &PathBuf, args: &[String]) -> std::io::Result<Child> {
    Command::new(bin)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
}

/// Read lines from a child's stdout on a thread until one starts with
/// `prefix`; give up after `cap`.
fn await_line(child: &mut Child, prefix: &'static str, cap: Duration) -> Option<String> {
    let stdout = child.stdout.take()?;
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut lines = Vec::new();
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            let hit = line.starts_with(prefix);
            lines.push(line);
            if hit {
                let _ = tx.send(lines);
                return;
            }
        }
        let _ = tx.send(lines);
    });
    let lines = rx.recv_timeout(cap).ok()?;
    lines.into_iter().find(|l| l.starts_with(prefix))
}

/// Reap a child within `cap` (KILL past it); returns (exit-ok, stdout).
fn reap(mut child: Child, cap: Duration) -> (bool, String) {
    let pid = child.id();
    let deadline = Instant::now() + cap;
    let status = loop {
        match child.try_wait() {
            Ok(Some(st)) => break Some(st),
            Ok(None) if Instant::now() > deadline => {
                signal(pid, "KILL");
                let _ = child.wait();
                break None;
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(_) => break None,
        }
    };
    let mut stdout = String::new();
    if let Some(mut s) = child.stdout.take() {
        use std::io::Read;
        let _ = s.read_to_string(&mut stdout);
    }
    (status.map(|s| s.success()).unwrap_or(false), stdout)
}

fn parse_counter(line: &str, key: &str) -> Option<u64> {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
        .and_then(|v| v.parse().ok())
}

/// Run one complete networked scenario; see the module docs for the
/// script and the invariants.
pub fn farm_net_run(cfg: &FarmNetConfig) -> FarmNetOutcome {
    let t0 = Instant::now();
    let mut out = FarmNetOutcome {
        kind: cfg.kind.clone(),
        ..FarmNetOutcome::default()
    };
    let _ = std::fs::remove_dir_all(&cfg.dir);
    if let Err(e) = std::fs::create_dir_all(&cfg.dir) {
        out.violations.push(format!("scratch dir: {e}"));
        return out;
    }

    let common = |extra: &[String]| -> Vec<String> {
        let mut v = vec![
            cfg.dir.display().to_string(),
            cfg.kind.clone(),
            format!("--nonce={}", cfg.nonce),
        ];
        v.extend_from_slice(extra);
        v
    };

    // The server: 3 boards with both injected faults, ceiling 3.
    let server = match spawn(
        &cfg.server_bin,
        &common(&[
            "--boards=3".into(),
            "--faults".into(),
            format!("--max-live={}", cfg.max_live),
            "--idle-exit-ms=1500".into(),
            format!("--max-wall-ms={}", cfg.wall_cap.as_millis()),
        ]),
    ) {
        Ok(c) => c,
        Err(e) => {
            out.violations.push(format!("spawn farm_server: {e}"));
            return out;
        }
    };
    let server_pid = server.id();

    // The victim: submits one long job, then hangs until murdered.  The
    // job must outlast the run-up to the kill on any engine speed (at 16
    // time units it sometimes completed first, leaving nothing to detach);
    // once detached it is never scheduled again, so its length is free.
    let victim_seed = mix(cfg.seed, 0xdead, 0, 0, 0);
    let mut victim = match spawn(
        &cfg.client_bin,
        &common(&[
            "--mode=hang".into(),
            format!("--seed={victim_seed}"),
            format!("--n={}", cfg.n),
            "--t-end=4096.0".into(),
        ]),
    ) {
        Ok(c) => c,
        Err(e) => {
            out.violations.push(format!("spawn victim: {e}"));
            signal(server_pid, "KILL");
            return out;
        }
    };
    if await_line(&mut victim, "submitted", Duration::from_secs(60)).is_none() {
        out.violations.push("victim never submitted".into());
    }

    // The wire vandals: one dies mid-frame, one deserts mid-handshake.
    for mode in ["torn", "midhello"] {
        match spawn(&cfg.client_bin, &common(&[format!("--mode={mode}")])) {
            Ok(c) => {
                let (ok, _) = reap(c, Duration::from_secs(30));
                if !ok {
                    out.violations.push(format!("{mode} injector failed"));
                }
            }
            Err(e) => out.violations.push(format!("spawn {mode}: {e}")),
        }
    }

    // Two workers race four jobs against what is left of the ceiling.
    let workers: Vec<(u64, Child)> = (0..2u64)
        .filter_map(|w| {
            let wseed = mix(cfg.seed, 0x303c + w, 0, 0, 0);
            match spawn(
                &cfg.client_bin,
                &common(&[
                    "--mode=run".into(),
                    format!("--seed={wseed}"),
                    format!("--jobs={}", cfg.jobs_per_client),
                    format!("--n={}", cfg.n),
                    format!("--t-end={}", cfg.t_end),
                    "--max-attempts=64".into(),
                ]),
            ) {
                Ok(c) => Some((wseed, c)),
                Err(e) => {
                    out.violations.push(format!("spawn worker {w}: {e}"));
                    None
                }
            }
        })
        .collect();

    // Let the workers hit the occupied ceiling, then murder the victim:
    // no Bye, no flush — the server must detach and reclaim.
    std::thread::sleep(Duration::from_millis(300));
    if !signal(victim.id(), "KILL") {
        out.violations.push("could not SIGKILL the victim".into());
    }
    let _ = victim.wait();

    // Collect the workers and check every digest against the oracle.
    for (wseed, child) in workers {
        let (ok, stdout) = reap(child, cfg.wall_cap);
        if !ok {
            out.violations
                .push(format!("worker {wseed:#x} exited nonzero:\n{stdout}"));
        }
        for line in stdout.lines() {
            if line.starts_with("saturated ") {
                out.saturated_denials += 1;
            }
            if !line.starts_with("result ") {
                continue;
            }
            let (Some(j), Some(digest)) = (
                parse_counter(line, "job"),
                line.split_whitespace()
                    .find_map(|tok| tok.strip_prefix("digest="))
                    .and_then(|v| u64::from_str_radix(v, 16).ok()),
            ) else {
                out.violations
                    .push(format!("unparsable result line: {line}"));
                continue;
            };
            out.jobs_done += 1;
            if digest == dedicated_digest(wseed, j, cfg.n, cfg.t_end) {
                out.digests_ok += 1;
            } else {
                out.violations.push(format!(
                    "worker {wseed:#x} job {j}: wire digest {digest:016x} diverges from dedicated run"
                ));
            }
        }
    }

    // The server idles out once the workers say Bye; read its counters.
    let (server_ok, server_out) = reap(server, cfg.wall_cap);
    if !server_ok {
        out.violations
            .push(format!("server exited nonzero:\n{server_out}"));
    }
    for line in server_out.lines() {
        if line.starts_with("served ") {
            out.torn_frames += parse_counter(line, "torn").unwrap_or(0);
            out.client_deaths += parse_counter(line, "deaths").unwrap_or(0);
        }
        if line.starts_with("farm ") {
            out.detached += parse_counter(line, "detached").unwrap_or(0);
            out.completed += parse_counter(line, "completed").unwrap_or(0);
            out.board_rotations += parse_counter(line, "rotations").unwrap_or(0);
        }
    }

    // The invariants.
    let expect_jobs = (2 * cfg.jobs_per_client) as u64;
    if out.jobs_done != expect_jobs {
        out.violations.push(format!(
            "{} of {expect_jobs} worker jobs fetched",
            out.jobs_done
        ));
    }
    if out.digests_ok != out.jobs_done {
        out.violations.push(format!(
            "{}/{} digests bitwise",
            out.digests_ok, out.jobs_done
        ));
    }
    if out.saturated_denials == 0 {
        out.violations
            .push("no Saturated denial despite 5 jobs on a ceiling of 3".into());
    }
    if out.torn_frames == 0 {
        out.violations.push("torn frame was not classified".into());
    }
    if out.client_deaths == 0 {
        out.violations.push("victim death went unnoticed".into());
    }
    if out.detached == 0 {
        out.violations
            .push("victim session was not detached onto its checkpoint".into());
    }
    if out.completed < expect_jobs {
        out.violations.push(format!(
            "farm completed {} < {expect_jobs} worker jobs",
            out.completed
        ));
    }
    if out.board_rotations < 2 {
        out.violations.push(format!(
            "expected both faulted boards to rotate, saw {}",
            out.board_rotations
        ));
    }

    let _ = std::fs::remove_dir_all(&cfg.dir);
    out.wall_ms = t0.elapsed().as_millis() as u64;
    out
}
