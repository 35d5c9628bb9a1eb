//! Real-process cluster chaos: kill and stall actual OS ranks mid-run.
//!
//! The virtual-machine chaos soak ([`crate::chaos`]) proves the
//! recovery *algorithms*; this module proves the recovery *deployment*.
//! It spawns `p` copies of the `cluster_node` bin in supervised mode
//! (TCP mesh, heartbeats, deadline reads, coordinated checkpoints),
//! then injects the two real fault shapes the paper's PC-cluster
//! deployment actually suffers, via `kill(1)` so the faults are exactly
//! what an operator or the OOM killer produces:
//!
//! * **SIGKILL** one rank mid-wave — the survivors must detect the
//!   hangup, agree on the dead set, rewind to the last coordinated
//!   checkpoint, and hold the door open while the harness respawns the
//!   rank (`cluster_node --rejoin`), which restores from its on-disk
//!   checkpoint and reconnects at the new generation;
//! * **SIGSTOP** another rank past the read-deadline budget — the
//!   survivors must classify the silence as a stall, *shrink* the
//!   group (a stopped process may wake, so it can never be invited
//!   back), refold the dead rank's share, and continue; when SIGCONT
//!   wakes the process it must discover the manifest and exit
//!   *evicted* (exit code 4), not wedge the survivors.
//!
//! The verdict is the paper's §3.4 reproducibility property in
//! operational form: every rank that finishes must print the **same
//! FNV-1a digest an unfaulted run prints** — computed here from the
//! virtual-time fabric, which the transport gates already pin to the
//! real-socket backends.  Violations are collected, not panicked;
//! `tests/transport_procs.rs` runs the schedule and asserts there are
//! none.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::wavecheck::virtual_wave_digests;

/// Exit code `cluster_node` uses for "woke up shrunk" — the stalled
/// rank's only correct ending.
pub const EXIT_EVICTED: i32 = 4;

/// One seeded kill/stall schedule against a real-process cluster.
#[derive(Clone, Debug)]
pub struct ClusterChaosConfig {
    /// Path to the `cluster_node` binary.
    pub node_bin: PathBuf,
    /// Rendezvous/checkpoint directory (wiped before the run).
    pub dir: PathBuf,
    /// Ranks.
    pub p: usize,
    /// Chained waves per rank.
    pub steps: u64,
    /// Records per rank per wave.
    pub recs: usize,
    /// Run nonce stamped on rendezvous artefacts.
    pub nonce: u64,
    /// Per-step sleep in the node, ms — paces the run so the fault
    /// schedule below lands mid-flight, not after the finish line.
    pub step_delay_ms: u64,
    /// Coordinated checkpoint cadence, steps.
    pub ckpt_every: u64,
    /// Heartbeat cadence, steps.
    pub hb_every: u64,
    /// Base read deadline in the nodes, ms.
    pub read_deadline_ms: u64,
    /// Node-side silence grace before recovery starts, ms.
    pub grace_ms: u64,
    /// Node-side per-round recovery collection window, ms.
    pub recover_window_ms: u64,
    /// Node-side respawn door / manifest-poll deadline, ms.
    pub respawn_wait_ms: u64,
    /// Rank to SIGKILL, and when (ms after the mesh is up).
    pub kill_rank: usize,
    /// Milliseconds after rendezvous at which the SIGKILL lands.
    pub kill_after_ms: u64,
    /// Milliseconds after the kill at which the replacement process is
    /// spawned with `--rejoin`.
    pub respawn_after_ms: u64,
    /// Rank to SIGSTOP (shrunk, then evicted on wake).
    pub stall_rank: usize,
    /// Milliseconds after rendezvous at which the SIGSTOP lands.
    pub stall_after_ms: u64,
    /// Milliseconds after the stop at which SIGCONT wakes the rank.
    pub resume_after_ms: u64,
    /// Hard cap on waiting for any node to finish, ms.
    pub wait_cap_ms: u64,
}

impl ClusterChaosConfig {
    /// The default schedule: 4 ranks, rank 1 killed early (and
    /// respawned), rank 3 stalled later (and evicted on wake).
    pub fn new(node_bin: PathBuf, dir: PathBuf) -> Self {
        Self {
            node_bin,
            dir,
            p: 4,
            steps: 280,
            recs: 3,
            nonce: 0x6_4a11,
            step_delay_ms: 20,
            ckpt_every: 8,
            hb_every: 4,
            read_deadline_ms: 50,
            grace_ms: 400,
            recover_window_ms: 2_000,
            respawn_wait_ms: 10_000,
            kill_rank: 1,
            kill_after_ms: 1_200,
            respawn_after_ms: 700,
            stall_rank: 3,
            stall_after_ms: 3_800,
            // Must outlast stall detection (deadline budget + grace)
            // *plus* the round-1 suspicion window, or the woken rank
            // answers the liveness poll and is acquitted instead of
            // shrunk — a healed run, but not the eviction path this
            // schedule exists to exercise.
            resume_after_ms: 4_200,
            wait_cap_ms: 60_000,
        }
    }
}

/// What one node process produced.
#[derive(Clone, Debug)]
pub struct NodeResult {
    /// Original rank.
    pub orank: usize,
    /// Was this the `--rejoin` replacement process?
    pub respawned: bool,
    /// Exit code; `None` means killed by a signal (the SIGKILLed first
    /// life, or a watchdog kill on timeout).
    pub exit: Option<i32>,
    /// The printed digest, if the node finished cleanly.
    pub digest: Option<u64>,
    /// The parsed `report` key/value line, if printed.
    pub report: BTreeMap<String, String>,
    /// Captured stderr (diagnostics on violation).
    pub stderr: String,
}

/// Everything the schedule produced; `violations` is empty iff every
/// invariant held.
#[derive(Clone, Debug)]
pub struct ClusterChaosReport {
    /// The unfaulted reference digest (virtual fabric, same params).
    pub clean_digest: u64,
    /// Per-process outcomes: ranks `0..p` first lives in order, then
    /// the respawned rank's second life.
    pub nodes: Vec<NodeResult>,
    /// Max recoveries any survivor reported (expect ≥ 2: one kill, one
    /// stall).
    pub recoveries: u64,
    /// Max wall-clock seconds any survivor spent inside recovery —
    /// the real-transport analogue of the six-term breakdown's sync
    /// term (heartbeat + recovery phases fold into `Term::Sync`).
    pub recover_seconds: f64,
    /// Deadline-budget expiries the reporting survivors saw, summed.
    pub recv_timeouts: u64,
    /// Every broken invariant, human-readable; empty = passed.
    pub violations: Vec<String>,
}

impl ClusterChaosReport {
    /// Did every invariant hold?
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Deliver `sig` (e.g. `"KILL"`, `"STOP"`, `"CONT"`) to `pid` via the
/// `kill` shell utility — the fault is injected exactly the way an
/// operator injects it.
fn signal(pid: u32, sig: &str) -> bool {
    Command::new("kill")
        .arg(format!("-{sig}"))
        .arg(pid.to_string())
        .status()
        .map(|s| s.success())
        .unwrap_or(false)
}

fn spawn_node(cfg: &ClusterChaosConfig, rank: usize, rejoin: bool) -> std::io::Result<Child> {
    let mut c = Command::new(&cfg.node_bin);
    c.args([
        rank.to_string(),
        cfg.p.to_string(),
        cfg.dir.display().to_string(),
        "tcp".into(),
        cfg.steps.to_string(),
        cfg.recs.to_string(),
        (if rejoin { "--rejoin" } else { "--supervised" }).into(),
        format!("--nonce={}", cfg.nonce),
        format!("--ckpt-every={}", cfg.ckpt_every),
        format!("--hb-every={}", cfg.hb_every),
        format!("--read-deadline-ms={}", cfg.read_deadline_ms),
        format!("--grace-ms={}", cfg.grace_ms),
        format!("--recover-window-ms={}", cfg.recover_window_ms),
        format!("--respawn-wait-ms={}", cfg.respawn_wait_ms),
        format!("--step-delay-ms={}", cfg.step_delay_ms),
    ])
    .stdout(Stdio::piped())
    .stderr(Stdio::piped());
    c.spawn()
}

/// Reap `child` within `cap`; a node that outlives the cap is KILLed
/// and reported with `exit: None`.
fn reap(child: Child, orank: usize, respawned: bool, cap: Duration) -> NodeResult {
    let pid = child.id();
    let deadline = Instant::now() + cap;
    let mut child = child;
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
    let mut stderr = String::new();
    if let Some(mut s) = child.stdout.take() {
        use std::io::Read;
        let _ = s.read_to_string(&mut stdout);
    }
    if let Some(mut s) = child.stderr.take() {
        use std::io::Read;
        let _ = s.read_to_string(&mut stderr);
    }
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("digest="))
        .and_then(|h| u64::from_str_radix(h.trim(), 16).ok());
    let report = stdout
        .lines()
        .find_map(|l| l.strip_prefix("report "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|kv| kv.split_once('='))
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect()
        })
        .unwrap_or_default();
    NodeResult {
        orank,
        respawned,
        exit: status.and_then(|s| s.code()),
        digest,
        report,
        stderr,
    }
}

/// Parse a `-`-or-CSV rank list from a report value.
fn ranks_of(report: &BTreeMap<String, String>, key: &str) -> Vec<usize> {
    report
        .get(key)
        .map(|v| v.split(',').filter_map(|r| r.parse().ok()).collect())
        .unwrap_or_default()
}

/// Run the schedule and judge the wreckage.
pub fn run_cluster_chaos(cfg: &ClusterChaosConfig) -> ClusterChaosReport {
    let mut violations: Vec<String> = Vec::new();
    assert!(cfg.p >= 3, "need at least one survivor besides the leader");
    assert!(cfg.kill_rank != cfg.stall_rank && cfg.kill_rank < cfg.p && cfg.stall_rank < cfg.p);
    assert!(
        cfg.kill_rank != 0 && cfg.stall_rank != 0,
        "rank 0 anchors the torn-free rendezvous files; fault the others"
    );

    let clean_digest = virtual_wave_digests(cfg.p, cfg.steps, cfg.recs, false)[0];

    let _ = std::fs::remove_dir_all(&cfg.dir);
    let mut children: Vec<Option<Child>> = Vec::new();
    for rank in 0..cfg.p {
        match spawn_node(cfg, rank, false) {
            Ok(c) => children.push(Some(c)),
            Err(e) => {
                violations.push(format!("could not spawn rank {rank}: {e}"));
                children.push(None);
            }
        }
    }

    // Start the fault clock only once the mesh is actually forming:
    // every rank has bound its listener and published its address.
    let t0 = {
        let deadline = Instant::now() + Duration::from_secs(30);
        while (0..cfg.p).any(|r| !cfg.dir.join(format!("rank{r}.addr")).exists()) {
            if Instant::now() > deadline {
                violations.push("rendezvous never published all addresses".into());
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Instant::now()
    };
    let sleep_until = |ms: u64| {
        let at = t0 + Duration::from_millis(ms);
        let now = Instant::now();
        if at > now {
            std::thread::sleep(at - now);
        }
    };

    // Fault 1: SIGKILL mid-wave, then respawn from the checkpoint.
    sleep_until(cfg.kill_after_ms);
    let first_life = children[cfg.kill_rank].take().map(|c| {
        signal(c.id(), "KILL");
        reap(c, cfg.kill_rank, false, Duration::from_secs(10))
    });
    sleep_until(cfg.kill_after_ms + cfg.respawn_after_ms);
    let rejoined_child = match spawn_node(cfg, cfg.kill_rank, true) {
        Ok(c) => Some(c),
        Err(e) => {
            violations.push(format!("could not respawn rank {}: {e}", cfg.kill_rank));
            None
        }
    };

    // Fault 2: SIGSTOP past the deadline budget, SIGCONT after the
    // survivors have shrunk the group.
    sleep_until(cfg.stall_after_ms);
    let stall_pid = children[cfg.stall_rank].as_ref().map(|c| c.id());
    if let Some(pid) = stall_pid {
        if !signal(pid, "STOP") {
            violations.push(format!("SIGSTOP of rank {} failed", cfg.stall_rank));
        }
    }
    sleep_until(cfg.stall_after_ms + cfg.resume_after_ms);
    if let Some(pid) = stall_pid {
        if !signal(pid, "CONT") {
            violations.push(format!("SIGCONT of rank {} failed", cfg.stall_rank));
        }
    }

    // Reap everything.
    let cap = Duration::from_millis(cfg.wait_cap_ms);
    let mut nodes: Vec<NodeResult> = Vec::new();
    for (rank, slot) in children.into_iter().enumerate() {
        if rank == cfg.kill_rank {
            if let Some(r) = first_life.clone() {
                nodes.push(r);
            }
            continue;
        }
        if let Some(c) = slot {
            nodes.push(reap(c, rank, false, cap));
        }
    }
    if let Some(c) = rejoined_child {
        nodes.push(reap(c, cfg.kill_rank, true, cap));
    }

    // Judgement.  The SIGKILLed first life must have died to the
    // signal, not exited.
    if let Some(fl) = nodes
        .iter()
        .find(|n| n.orank == cfg.kill_rank && !n.respawned)
    {
        if fl.exit.is_some() {
            violations.push(format!(
                "rank {} survived its SIGKILL (exit {:?})",
                cfg.kill_rank, fl.exit
            ));
        }
    }
    // Every finisher — the untouched survivors and the respawned rank —
    // must exit 0 with the clean digest.
    let finishers: Vec<&NodeResult> = nodes
        .iter()
        .filter(|n| n.orank != cfg.stall_rank && (n.orank != cfg.kill_rank || n.respawned))
        .collect();
    for n in &finishers {
        let who = format!(
            "rank {}{}",
            n.orank,
            if n.respawned { " (respawned)" } else { "" }
        );
        if n.exit != Some(0) {
            violations.push(format!(
                "{who} exited {:?}, stderr:\n{}",
                n.exit,
                n.stderr.trim()
            ));
        }
        match n.digest {
            Some(d) if d == clean_digest => {}
            Some(d) => violations.push(format!(
                "{who} digest {d:016x} != clean {clean_digest:016x}"
            )),
            None => violations.push(format!("{who} printed no digest")),
        }
    }
    // The stalled rank must wake into eviction — exit 4, no digest.
    match nodes.iter().find(|n| n.orank == cfg.stall_rank) {
        Some(n) if n.exit == Some(EXIT_EVICTED) => {}
        Some(n) => violations.push(format!(
            "stalled rank {} exited {:?}, want {EXIT_EVICTED} (evicted), stderr:\n{}",
            cfg.stall_rank,
            n.exit,
            n.stderr.trim()
        )),
        None => violations.push(format!("stalled rank {} was never reaped", cfg.stall_rank)),
    }
    // Survivors must have recovered twice (kill + stall), rejoined the
    // killed rank, shrunk the stalled one, and spent measurable wall
    // clock inside recovery.
    let num = |n: &NodeResult, k: &str| -> u64 {
        n.report.get(k).and_then(|v| v.parse().ok()).unwrap_or(0)
    };
    let fnum = |n: &NodeResult, k: &str| -> f64 {
        n.report.get(k).and_then(|v| v.parse().ok()).unwrap_or(0.0)
    };
    let survivors: Vec<&&NodeResult> = finishers.iter().filter(|n| !n.respawned).collect();
    let recoveries = survivors
        .iter()
        .map(|n| num(n, "recoveries"))
        .max()
        .unwrap_or(0);
    let recover_seconds = survivors
        .iter()
        .map(|n| fnum(n, "recover_s"))
        .fold(0.0, f64::max);
    let recv_timeouts = survivors.iter().map(|n| num(n, "timeouts")).sum();
    if recoveries < 2 {
        violations.push(format!(
            "survivors report {recoveries} recoveries, want >= 2 (one kill, one stall)"
        ));
    }
    if recover_seconds <= 0.0 {
        violations.push("survivors charged no recovery wall clock".into());
    }
    if recv_timeouts == 0 {
        violations.push("no read ever hit its deadline budget — the stall went undetected".into());
    }
    let want_group: Vec<usize> = (0..cfg.p).filter(|&r| r != cfg.stall_rank).collect();
    for n in &survivors {
        let who = format!("rank {}", n.orank);
        if !ranks_of(&n.report, "rejoined").contains(&cfg.kill_rank) {
            violations.push(format!("{who} never saw rank {} rejoin", cfg.kill_rank));
        }
        if ranks_of(&n.report, "shrunk") != vec![cfg.stall_rank] {
            violations.push(format!(
                "{who} shrunk set {:?}, want [{}]",
                ranks_of(&n.report, "shrunk"),
                cfg.stall_rank
            ));
        }
        if ranks_of(&n.report, "group") != want_group {
            violations.push(format!(
                "{who} final group {:?}, want {want_group:?}",
                ranks_of(&n.report, "group")
            ));
        }
    }

    let _ = std::fs::remove_dir_all(&cfg.dir);
    ClusterChaosReport {
        clean_digest,
        nodes,
        recoveries,
        recover_seconds,
        recv_timeouts,
        violations,
    }
}
