//! Ablation: synchronisation algorithm and NIC, measured on the fabric.
//!
//! §4.4: "synchronization is done through butterfly message exchange using
//! TCP/IP, which is about two times faster than the use of MPI_barrier
//! provided by MPICH/p4" — and the NIC swap cut the round-trip latency
//! 3×.  This study *measures* (in virtual time, on the real message-
//! passing fabric of `grape6-net`) the per-barrier cost of
//!
//! * the butterfly barrier (an empty coalesced wave) vs a central-
//!   coordinator barrier (the MPICH/p4-like shape), frame for frame,
//! * over each of the paper's three NICs,
//!
//! and converts the difference into blocksteps/second at the sync-bound
//! end of fig. 18.  It is a verdict: the binary exits 1 unless the
//! central barrier is slower than the butterfly on every NIC × p row —
//! the paper's ordering.

use grape6_bench::print_table;
use grape6_net::exchange::{central_barrier, coalesced_wave};
use grape6_net::fabric::run_ranks;
use grape6_net::link::LinkProfile;
use grape6_net::transport::VirtualTransport;

fn barrier_cost(p: usize, link: LinkProfile, butterfly: bool) -> f64 {
    // Average over a few repetitions to smooth the pipelined rounds.
    let reps = 8;
    let clocks = run_ranks::<Vec<u8>, f64, _>(p, link, move |mut ep| {
        for step in 0..reps {
            let mut tr = VirtualTransport::new(&mut ep);
            if butterfly {
                coalesced_wave(&mut tr, step, 0.0, Vec::new(), &[])
            } else {
                central_barrier(&mut tr, step)
            }
            .expect("lossless fabric");
        }
        ep.clock()
    });
    clocks.iter().cloned().fold(0.0, f64::max) / reps as f64
}

fn main() {
    let nics = [
        ("NS 83820", LinkProfile::ns83820()),
        ("Tigon 2", LinkProfile::tigon2()),
        ("Intel 82540EM", LinkProfile::intel_82540em()),
    ];
    let mut inverted = Vec::new();
    for p in [4usize, 16] {
        let rows: Vec<Vec<String>> = nics
            .iter()
            .map(|(name, link)| {
                let bf = barrier_cost(p, *link, true);
                let ct = barrier_cost(p, *link, false);
                if ct <= bf {
                    inverted.push(format!("{name} at {p} hosts"));
                }
                vec![
                    (*name).into(),
                    format!("{:.0}", bf * 1e6),
                    format!("{:.0}", ct * 1e6),
                    format!("{:.2}x", ct / bf),
                    format!("{:.0}", 1.0 / bf),
                ]
            })
            .collect();
        print_table(
            &format!("measured barrier cost, {p} hosts"),
            &[
                "NIC",
                "butterfly [µs]",
                "central [µs]",
                "central/butterfly",
                "max blocksteps/s",
            ],
            &rows,
        );
    }
    println!("\npaper anchors: butterfly ≈ 2× faster than MPICH/p4's barrier; NIC swap cuts");
    println!("RTT 200 µs → 67 µs.  In the sync-bound regime of figs. 16/18 the blockstep");
    println!("rate — and hence the speed at small N — scales directly with these numbers.");
    if !inverted.is_empty() {
        eprintln!(
            "REGRESSION: central barrier not slower than the butterfly: {}",
            inverted.join(", ")
        );
        std::process::exit(1);
    }
    println!("verdict: central/butterfly > 1 on every NIC × p row");
}
