//! The fig. 18 crossover under the three network schedules.
//!
//! The paper's fig. 17/18 analysis pins the multi-host crossover — the N
//! above which adding nodes pays — on per-blockstep network cost: for
//! small N "the main bottleneck is again the synchronization time".  The
//! coalesced wave (one message per partner per stage instead of three
//! collectives) and its split-phase overlapped variant attack exactly
//! that term, so they must move the crossover down.
//!
//! This bin measures it both ways:
//!
//! * **measured sweep** — real replicated Plummer integrations on the
//!   discrete-event fabric, 1→16 nodes × 3 schedules, six-term
//!   breakdowns from recorded virtual-time spans;
//! * **model crossover** — the analytic `speed_net` sweep locating the N
//!   where the 16-node (4-cluster) layout overtakes the 4-node cluster,
//!   per schedule;
//! * **bitwise gate** — the same chained wave sequence digested over the
//!   virtual fabric (back-to-back and split-phase) and over real TCP and
//!   Unix-socket meshes: all digests must be identical bit for bit.
//!
//! Output: the tables on stdout.  Exit 1 if the coalesced+overlapped
//! schedule fails to cut the 4-node network share, or any digest
//! diverges — the exit code is the verdict.
//!
//! Usage: `crossover_bench [N] [T_END]` (defaults 256, 0.0625 on the
//! `test_small` machine).

use grape6_bench::breakdown::{measure_breakdown_net, timing_for, BreakdownRun};
use grape6_bench::wavecheck::{stream_wave_digests, virtual_wave_digests};
use grape6_bench::{default_stats, print_table};
use grape6_model::perf::{MachineLayout, PerfModel};
use grape6_net::transport::StreamKind;
use grape6_system::machine::MachineConfig;
use grape6_trace::NetSchedule;
use nbody_core::softening::Softening;

const SCHEDS: [NetSchedule; 3] = [
    NetSchedule::Sequential,
    NetSchedule::Coalesced,
    NetSchedule::CoalescedOverlapped,
];

fn net_share(r: &BreakdownRun) -> f64 {
    (r.measured.sync + r.measured.exchange) / r.measured.total()
}

/// Analytic N at which the 16-node (4-cluster) layout overtakes the
/// 4-node cluster under `sched` (the fig. 17/18 crossover).
fn model_crossover(sched: NetSchedule) -> Option<usize> {
    let m = PerfModel::default();
    let stats = default_stats(Softening::Constant);
    let four = MachineLayout::Cluster { hosts: 4 };
    let sixteen = MachineLayout::MultiCluster {
        clusters: 4,
        hosts_per_cluster: 4,
    };
    let mut n = 2_000usize;
    while n <= 4 << 20 {
        if m.speed_net(sixteen, n, &stats, sched) > m.speed_net(four, n, &stats, sched) {
            return Some(n);
        }
        n = (n as f64 * 1.1) as usize;
    }
    None
}

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args
        .next()
        .map(|a| a.parse().expect("N must be an integer"))
        .unwrap_or(256);
    let t_end: f64 = args
        .next()
        .map(|a| a.parse().expect("T_END must be a number"))
        .unwrap_or(0.0625);

    let machine = MachineConfig::test_small();
    let model = PerfModel {
        grape: timing_for(&machine),
        ..PerfModel::default()
    };
    let layouts: [(usize, MachineLayout); 5] = [
        (1, MachineLayout::SingleHost),
        (2, MachineLayout::Cluster { hosts: 2 }),
        (4, MachineLayout::Cluster { hosts: 4 }),
        (
            8,
            MachineLayout::MultiCluster {
                clusters: 2,
                hosts_per_cluster: 4,
            },
        ),
        (
            16,
            MachineLayout::MultiCluster {
                clusters: 4,
                hosts_per_cluster: 4,
            },
        ),
    ];

    // Measured sweep: 1→16 nodes × 3 schedules.
    let mut rows = Vec::new();
    let mut four_node = [0.0f64; 3];
    for &(nodes, layout) in &layouts {
        for (si, &sched) in SCHEDS.iter().enumerate() {
            let run = measure_breakdown_net(&model, &machine, layout, n, t_end, 2003, sched);
            let share = net_share(&run);
            let step_us = run.measured.total() / run.particle_steps as f64 * 1e6;
            if nodes == 4 {
                four_node[si] = share;
            }
            rows.push(vec![
                nodes.to_string(),
                sched.name().into(),
                format!("{:.4e}", run.measured.sync),
                format!("{:.4e}", run.measured.exchange),
                format!("{:.4e}", run.measured.total()),
                format!("{:.3}", share),
                format!("{:.2}", step_us),
            ]);
        }
    }
    print_table(
        &format!("Measured network cost, 1→16 nodes × schedule (N = {n})"),
        &[
            "nodes",
            "schedule",
            "sync [s]",
            "exchange [s]",
            "total [s]",
            "net share",
            "µs/step",
        ],
        &rows,
    );

    // Bitwise gate: same chained waves, four backends, one digest.
    let dir = std::env::temp_dir().join(format!("g6-crossover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let d_virtual = virtual_wave_digests(4, 8, 3, false);
    let d_split = virtual_wave_digests(4, 8, 3, true);
    let d_tcp = stream_wave_digests(4, 8, 3, StreamKind::Tcp, &dir.join("tcp"));
    let d_uds = stream_wave_digests(4, 8, 3, StreamKind::Uds, &dir.join("uds"));
    std::fs::remove_dir_all(&dir).ok();
    let reference = d_virtual[0];
    let bitwise_ok = [&d_virtual, &d_split, &d_tcp, &d_uds]
        .iter()
        .all(|d| d.iter().all(|&h| h == reference));

    // Model crossover per schedule.
    let crossings: Vec<Option<usize>> = SCHEDS.iter().map(|&s| model_crossover(s)).collect();

    println!(
        "\n4-node net share: sequential {:.3}, coalesced {:.3}, coalesced+overlapped {:.3}",
        four_node[0], four_node[1], four_node[2]
    );
    println!(
        "model 16-vs-4-node crossover N: sequential {:?}, coalesced {:?}, overlapped {:?}",
        crossings[0], crossings[1], crossings[2]
    );
    println!(
        "bitwise (virtual / split-phase / tcp / uds): {} (digest {:016x})",
        if bitwise_ok { "identical" } else { "DIVERGED" },
        reference
    );

    if !bitwise_ok {
        eprintln!("ERROR: wave digests diverged across schedules/transports");
        std::process::exit(1);
    }
    if four_node[2] >= four_node[0] {
        eprintln!(
            "ERROR: coalesced+overlapped did not cut the 4-node network share \
             ({:.3} vs sequential {:.3})",
            four_node[2], four_node[0]
        );
        std::process::exit(1);
    }
}
