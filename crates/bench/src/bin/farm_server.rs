//! The farm service daemon: serve the shared board pool over a socket.
//!
//! Binds the `grape6_farm::FarmServer` frontend on TCP (loopback,
//! ephemeral port) or UDS, publishes the nonce-stamped address under
//! the rendezvous directory, and serves `farm_client` processes until
//! the idle-exit window or the wall cap.  At exit it prints two
//! machine-parsable counter lines (`served …` and `farm …`) that the
//! `farm_net_soak` harness and the CI guard consume.
//!
//! Usage:
//!
//! ```text
//! farm_server <dir> <tcp|uds> [--nonce=N] [--boards=N] [--faults]
//!             [--max-live=N] [--queue-depth=N] [--grace-ms=N]
//!             [--idle-exit-ms=N] [--max-wall-ms=N]
//! ```
//!
//! `--faults` installs the standard pair of injected board faults on a
//! pool of ≥ 3: board 1 powers on with a dead module (it can never fit
//! a 48-particle job and is rotated out on first contact) and board 2
//! dies mid-run (recovery ladder → park → rotation → resume elsewhere).
//!
//! Exit codes: 0 served and shut down cleanly, 2 bad usage, 3 bind or
//! publish failure.

use std::path::PathBuf;
use std::time::Duration;

use grape6_bench::farm::soak_unit;
use grape6_farm::{FarmConfig, FarmServer, FarmServerConfig, ServeOptions};
use grape6_fault::FaultPlan;
use grape6_net::transport::StreamKind;

fn usage() -> ! {
    eprintln!(
        "usage: farm_server <dir> <tcp|uds> [--nonce=N] [--boards=N] [--faults] \
         [--max-live=N] [--queue-depth=N] [--grace-ms=N] [--idle-exit-ms=N] \
         [--max-wall-ms=N]"
    );
    std::process::exit(2);
}

fn flag(args: &[String], name: &str) -> Option<u64> {
    args.iter()
        .find_map(|a| a.strip_prefix(&format!("--{name}=")))
        .map(|v| {
            let parsed = match v.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => v.parse(),
            };
            parsed.unwrap_or_else(|_| usage())
        })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 {
        usage();
    }
    let dir = PathBuf::from(&args[0]);
    let kind = match args[1].as_str() {
        "tcp" => StreamKind::Tcp,
        "uds" => StreamKind::Uds,
        _ => usage(),
    };
    let boards = flag(&args, "boards").unwrap_or(3) as usize;
    let with_faults = args.iter().any(|a| a == "--faults");

    let mut plans: Vec<Option<FaultPlan>> = vec![None; boards];
    if with_faults && boards > 1 {
        plans[1] = Some(FaultPlan::none().with_dead_module(0, 0));
    }
    if with_faults && boards > 2 {
        plans[2] = Some(FaultPlan::none().with_midrun_death(vec![0, 1], 5));
    }

    let farm_cfg = FarmConfig::builder(soak_unit())
        .boards(boards)
        .board_plans(plans)
        .max_live_sessions(flag(&args, "max-live").unwrap_or(3) as usize)
        .queue_depth(flag(&args, "queue-depth").unwrap_or(4) as usize)
        .quantum(4)
        .ckpt_every(4)
        .build()
        .unwrap_or_else(|e| {
            eprintln!("farm_server: invalid farm config: {e}");
            std::process::exit(2);
        });

    let mut srv_cfg = FarmServerConfig::new(dir);
    srv_cfg.kind = kind;
    srv_cfg.stream.nonce = flag(&args, "nonce").unwrap_or(0);
    srv_cfg.heartbeat_grace = Duration::from_millis(flag(&args, "grace-ms").unwrap_or(2000));

    let mut server = match FarmServer::bind(farm_cfg, srv_cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("farm_server: bind failed: {e}");
            std::process::exit(3);
        }
    };
    println!("listening addr={} kind={}", server.addr(), args[1]);

    let report = server.serve(ServeOptions {
        max_wall: Duration::from_millis(flag(&args, "max-wall-ms").unwrap_or(120_000)),
        exit_after_idle: Some(Duration::from_millis(
            flag(&args, "idle-exit-ms").unwrap_or(1500),
        )),
    });

    println!(
        "served accepted={} handshakes={} denials={} deaths={} torn={} requests={}",
        report.accepted,
        report.handshakes,
        report.denials,
        report.client_deaths,
        report.torn_frames,
        report.requests
    );
    let s = &report.farm;
    println!(
        "farm admitted={} completed={} failed={} detached={} cancelled={} saturated={} \
         rotations={} evictions={} resumes={}",
        s.admitted,
        s.completed,
        s.failed,
        s.detached,
        s.cancelled,
        s.rejected_saturated,
        s.board_rotations,
        s.evictions,
        s.resumes
    );
}
