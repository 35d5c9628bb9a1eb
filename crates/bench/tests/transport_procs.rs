//! The real-cluster smoke test: four OS *processes* exchange the chained
//! coalesced waves over TCP and Unix sockets, and every process's state
//! digest must equal the virtual-time fabric's digest for the same
//! parameters — the transport backends differ only in what a message
//! costs, never in what it delivers.
//!
//! On top of the clean-run gate sit the survival gates: a seeded
//! kill/stall schedule against four real supervised rank processes
//! (SIGKILL → respawn-from-checkpoint, SIGSTOP → shrink → eviction,
//! digests bitwise equal to the unfaulted run throughout), and a
//! torn-frame injector that dies mid-`Frame` on a live mesh.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use grape6_bench::chaos_cluster::{run_cluster_chaos, ClusterChaosConfig};
use grape6_bench::wavecheck::virtual_wave_digests;
use grape6_net::transport::{StreamConfig, StreamKind, StreamTransport, TransportError};

const P: usize = 4;
const STEPS: u64 = 8;
const RECS: usize = 3;

fn spawn_rank(rank: usize, dir: &Path, kind: &str) -> Child {
    Command::new(env!("CARGO_BIN_EXE_cluster_node"))
        .args([
            &rank.to_string(),
            &P.to_string(),
            dir.to_str().unwrap(),
            kind,
            &STEPS.to_string(),
            &RECS.to_string(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cluster_node")
}

fn digest_of(out: std::process::Output, rank: usize, kind: &str) -> u64 {
    assert!(
        out.status.success(),
        "{kind} rank {rank} failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("digest="))
        .unwrap_or_else(|| panic!("{kind} rank {rank}: no digest line in {stdout:?}"));
    u64::from_str_radix(line.trim(), 16).expect("hex digest")
}

fn run_cluster(kind: &str) -> Vec<u64> {
    let dir =
        std::env::temp_dir().join(format!("g6-transport-procs-{kind}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let children: Vec<Child> = (0..P).map(|r| spawn_rank(r, &dir, kind)).collect();
    let digests = children
        .into_iter()
        .enumerate()
        .map(|(r, c)| digest_of(c.wait_with_output().expect("wait"), r, kind))
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    digests
}

#[test]
fn four_tcp_processes_match_the_virtual_fabric_bitwise() {
    let want = virtual_wave_digests(P, STEPS, RECS, false);
    let got = run_cluster("tcp");
    assert_eq!(got, want);
}

#[test]
fn four_uds_processes_match_the_virtual_fabric_bitwise() {
    let want = virtual_wave_digests(P, STEPS, RECS, false);
    let got = run_cluster("uds");
    assert_eq!(got, want);
}

/// The acceptance gate of the recovery tentpole: a 4-rank real-process
/// TCP run has one rank SIGKILLed mid-wave (respawned from its
/// coordinated checkpoint) and one rank SIGSTOPped past the read
/// deadline (shrunk, then evicted when SIGCONT wakes it) — and every
/// process that finishes prints the digest an unfaulted run prints.
#[test]
fn chaos_kill_and_stall_recover_bitwise_identical() {
    let dir = std::env::temp_dir().join(format!("g6-proc-chaos-{}", std::process::id()));
    let cfg = ClusterChaosConfig::new(PathBuf::from(env!("CARGO_BIN_EXE_cluster_node")), dir);
    let report = run_cluster_chaos(&cfg);
    assert!(
        report.ok(),
        "chaos violations: {:#?}\nnodes: {:#?}",
        report.violations,
        report
            .nodes
            .iter()
            .map(|n| (n.orank, n.respawned, n.exit, n.stderr.clone()))
            .collect::<Vec<_>>()
    );
    // Both recovery modes ran: the respawned second life finished with
    // the clean digest, and the stalled rank was evicted.
    assert!(report.recoveries >= 2);
    assert!(report
        .nodes
        .iter()
        .any(|n| n.respawned && n.digest == Some(report.clean_digest)));
    assert!(report.recover_seconds > 0.0);
}

/// A peer that dies between two `write(2)` calls of one frame — length
/// prefix promising more than it delivers — must surface as a typed
/// `Down` with the torn frame counted, never a panic or a truncated
/// decode.  The injector is a separate OS process (`cluster_node
/// --torn`), so the tear crosses a real socket.
#[test]
fn torn_frame_from_a_dying_process_is_typed_down() {
    let dir = std::env::temp_dir().join(format!("g6-proc-torn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let nonce = 0x7042;
    let child = Command::new(env!("CARGO_BIN_EXE_cluster_node"))
        .args([
            "1",
            "2",
            dir.to_str().unwrap(),
            "tcp",
            "--torn",
            &format!("--nonce={nonce:}"),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn torn injector");
    let scfg = StreamConfig {
        nonce,
        ..StreamConfig::default()
    };
    let mut tr =
        StreamTransport::connect_with(0, 2, &dir, StreamKind::Tcp, &scfg).expect("rendezvous");
    let err = tr
        .recv_frame_deadline(1, Duration::from_millis(200), 5)
        .expect_err("torn frame must be a typed error");
    assert_eq!(err, TransportError::Down { from: 1, to: 0 });
    assert_eq!(tr.torn_frames(), 1);
    let out = child.wait_with_output().expect("injector exit");
    assert!(
        out.status.success(),
        "injector failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}
