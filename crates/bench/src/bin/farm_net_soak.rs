//! The networked farm soak.
//!
//! Runs the full multi-process scenario of [`grape6_bench::farm_net`]
//! once over TCP and once over UDS: one `farm_server`, a SIGKILLed
//! victim client, a torn-frame injector, a mid-handshake deserter, and
//! two worker clients racing five jobs against an admission ceiling of
//! three on a pool carrying two injected board faults.  Every job a
//! worker fetches over the wire must be bitwise identical to the same
//! job run in-process on a dedicated healthy board.
//!
//! Usage: `farm_net_soak [seed]` (default 17).  Exits nonzero if any
//! invariant breaks; the exit code is the verdict.

use grape6_bench::farm_net::{farm_net_run, FarmNetConfig};
use grape6_bench::print_table;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("seed must be an integer"))
        .unwrap_or(17);

    let exe = std::env::current_exe().expect("own path");
    let server_bin = exe.with_file_name("farm_server");
    let client_bin = exe.with_file_name("farm_client");
    if !server_bin.exists() || !client_bin.exists() {
        eprintln!("farm_net_soak: sibling binaries farm_server/farm_client not built");
        std::process::exit(2);
    }

    let mut rows = Vec::new();
    let mut outcomes = Vec::new();
    for kind in ["tcp", "uds"] {
        let dir = std::env::temp_dir().join(format!("g6-farm-net-{kind}-{}", std::process::id()));
        let mut cfg = FarmNetConfig::new(server_bin.clone(), client_bin.clone(), dir, kind);
        cfg.seed = seed;
        let out = farm_net_run(&cfg);
        rows.push(vec![
            out.kind.clone(),
            format!("{}/{}", out.digests_ok, out.jobs_done),
            out.saturated_denials.to_string(),
            out.torn_frames.to_string(),
            out.client_deaths.to_string(),
            out.detached.to_string(),
            out.completed.to_string(),
            out.board_rotations.to_string(),
            format!("{:.1}", out.wall_ms as f64 / 1e3),
            if out.ok() { "ok".into() } else { "FAIL".into() },
        ]);
        outcomes.push(out);
    }

    print_table(
        &format!(
            "Farm over the wire: seed {seed}, 5 jobs on a ceiling of 3, 2 board faults, \
             1 murdered client, 2 wire vandals"
        ),
        &[
            "kind",
            "bitwise",
            "saturated",
            "torn",
            "deaths",
            "detached",
            "completed",
            "rotations",
            "wall_s",
            "verdict",
        ],
        &rows,
    );

    if !outcomes.iter().all(|o| o.ok()) {
        for o in outcomes.iter().filter(|o| !o.ok()) {
            eprintln!("\n{} FAILED:", o.kind);
            for v in &o.violations {
                eprintln!("  - {v}");
            }
        }
        std::process::exit(1);
    }
    println!("farm_net_soak: every invariant held on TCP and UDS");
}
