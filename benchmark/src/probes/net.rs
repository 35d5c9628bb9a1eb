//! Probes of `net`: the frame codec on the cluster workload's own frames,
//! the raw framed-stream round trip under a wave, the same wave chain with
//! no sockets, and the mesh rendezvous.

use std::hint::black_box;
use std::time::Instant;

use grape6_net::{dial_service, Frame, ServiceListener, StreamConfig, StreamKind, StreamTransport};

use super::Sink;
use crate::harness::Ctx;
use crate::stats;
use crate::workloads::cluster::{self, Chain};

pub fn run(ctx: &Ctx, sink: &mut Sink) {
    // The stage frame rank 0 sends in one `cluster2_tcp` wave.
    let (t_min, records) = Chain::new(0, ctx.seed).inputs();
    let frame = Frame::Stage {
        gen: 0,
        step: 0,
        stage: 0,
        t_min,
        ckpt: 0,
        records,
        pad: 64,
    };
    sink.set(
        "net.wire.encode_ns_per_frame",
        sink.time(1.0, || {
            black_box(black_box(&frame).encode());
        }),
    );
    let bytes = frame.encode();
    sink.set(
        "net.wire.decode_ns_per_frame",
        sink.time(1.0, || {
            black_box(Frame::decode(black_box(&bytes)).expect("own bytes decode"));
        }),
    );

    rtt(ctx, sink);

    // The wave chain on the virtual fabric: rank threads are spawned per
    // call, so chain enough waves to make that vanish.
    const VIRTUAL_WAVES: u64 = 2000;
    sink.set(
        "net.virtual.wave_ns",
        sink.time(VIRTUAL_WAVES as f64, || {
            black_box(cluster::virtual_digests(ctx.seed, VIRTUAL_WAVES));
        }),
    );

    // Mesh rendezvous, rank 0's view, median of three.
    let mut connects = Vec::new();
    for k in 0..3 {
        let dir = ctx.scratch(&format!("connect-probe-{k}"));
        let peer_dir = dir.clone();
        let peer = std::thread::spawn(move || {
            StreamTransport::connect(1, cluster::RANKS, &peer_dir, StreamKind::Tcp)
        });
        let t0 = Instant::now();
        let mine = StreamTransport::connect(0, cluster::RANKS, &dir, StreamKind::Tcp);
        connects.push(t0.elapsed().as_nanos() as f64);
        let theirs = peer.join().expect("rendezvous thread");
        assert!(mine.is_ok() && theirs.is_ok(), "probe rendezvous failed");
    }
    sink.set("net.connect_ns", stats::median(&stats::sorted(&connects)));
}

/// Ping-pong of a 64-byte payload over one loopback TCP `FramedConn`
/// between two threads: the floor under a wave and under a farm request.
fn rtt(ctx: &Ctx, sink: &mut Sink) {
    let cfg = StreamConfig::default();
    let dir = ctx.scratch("rtt-probe");
    let listener = ServiceListener::bind(StreamKind::Tcp, &dir, "rtt").expect("listener binds");
    let addr = listener.addr().to_string();
    let round_trips = ((sink.slice.as_secs_f64() / 25e-6) as usize).clamp(200, 20_000);
    // Same placement as the cluster workload's ranks: the pinging side
    // gets a thread of its own to place and the echo thread inherits it.
    let samples = std::thread::scope(|s| {
        s.spawn(|| ping_pong(listener, &addr, cfg, round_trips))
            .join()
            .expect("ping thread ends without panicking")
    });
    sink.set(
        "net.transport.rtt_us_p50",
        stats::percentile(&stats::sorted(&samples), 0.5) / 1e3,
    );
}

/// Round-trip times of `round_trips` pings, nanoseconds.
fn ping_pong(
    listener: ServiceListener,
    addr: &str,
    cfg: StreamConfig,
    round_trips: usize,
) -> Vec<f64> {
    const PAYLOAD: [u8; 64] = [0x5a; 64];
    crate::harness::place_handoff_thread();
    let echo = std::thread::spawn(move || {
        let deadline = Instant::now() + cfg.rendezvous_timeout;
        let mut conn = loop {
            match listener.try_accept() {
                Ok(Some(c)) => break c,
                Ok(None) if Instant::now() < deadline => std::thread::yield_now(),
                _ => return false,
            }
        };
        for _ in 0..round_trips {
            let Ok(p) = conn.recv_payload_deadline(cfg.read_deadline, cfg.read_attempts) else {
                return false;
            };
            if conn.send_payload(&p).is_err() {
                return false;
            }
        }
        true
    });
    let mut conn = dial_service(addr, StreamKind::Tcp, &cfg).expect("dial the echo thread");
    let mut samples = Vec::with_capacity(round_trips);
    for _ in 0..round_trips {
        let t0 = Instant::now();
        conn.send_payload(&PAYLOAD).expect("ping");
        let pong = conn
            .recv_payload_deadline(cfg.read_deadline, cfg.read_attempts)
            .expect("pong");
        samples.push(t0.elapsed().as_nanos() as f64);
        assert_eq!(pong, PAYLOAD);
    }
    assert!(echo.join().expect("echo thread"), "echo thread failed");
    samples
}
