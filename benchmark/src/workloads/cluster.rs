//! `cluster2_tcp`: a blockstep's worth of inter-node traffic with the
//! compute removed — two ranks chaining `coalesced_wave` calls over
//! loopback TCP.
//!
//! Rank 0 is the one timed; rank 1 runs on a thread rank 0 spawns, and
//! both share one CPU as batch-class threads
//! (`harness::place_handoff_thread` says why, and the host fingerprint
//! says whether it took).  Sharing a core serialises the two ranks' work,
//! so a wave's wall is both ranks' codec and syscall cost plus two context
//! switches: what the program costs, not what the VM's inter-processor
//! interrupts cost.  The chain is stateful (each wave's candidate block
//! time derives from the previous wave's folded minimum, as in the
//! workspace's `wavecheck::run_waves`), so a divergence at any wave
//! reaches every later digest.
//!
//! op = wave, call = [`WAVES_PER_CALL`] chained waves.  On one core the
//! ranks' buffered sends let one rank run a wave ahead, so rank 0's waves
//! alternate between a short one (the partner's frame is already there)
//! and a long one (it is not): single-wave latencies are bimodal with the
//! median on the 50/50 edge.  A short chain has one distribution.

use std::path::Path;
use std::thread::JoinHandle;
use std::time::Instant;

use grape6_net::exchange::{coalesced_wave, Wave, WaveOutcome};
use grape6_net::{
    run_ranks, JRecord, LinkProfile, StreamKind, StreamTransport, TransportError, VirtualTransport,
};

use crate::harness::{self, Ctx, Measured, Outcome, Window};
use crate::spans::Recorder;
use crate::stats;

pub const RANKS: usize = 2;
pub const RECORDS_PER_RANK: usize = 32;
pub const WORDS_PER_RECORD: usize = 14;
/// Waves per latency sample.
const WAVES_PER_CALL: u64 = 8;
/// Synthetic pad (modelled j-volume) per wave stage, as in `wavecheck`.
const STAGE_PADS: [u64; 8] = [64; 8];
/// Both ranks' digests after this many waves must equal the digest of the
/// same chain on the socket-free `VirtualTransport`.
const VERIFY_WAVES: u64 = 2000;
/// Enough waves that the rendezvous (which polls in 5 ms sleeps) is a small
/// part of the set-up time.
const WARMUP_WAVES: u64 = 1500;
/// Rank 0 proposes this block time to end the chain: the wave's min-fold
/// delivers it to every rank in the same wave, so all stop together.
const STOP: f64 = -1.0;

/// One rank's view of the chain: the running digest and the seed of the
/// next candidate block time.
#[derive(Clone, Debug, PartialEq)]
pub struct Chain {
    rank: usize,
    seed: u64,
    pub waves: u64,
    t_seed: f64,
    pub digest: u64,
    /// Digest after `VERIFY_WAVES` waves, once reached.
    pub verify_digest: Option<u64>,
}

impl Chain {
    pub fn new(rank: usize, seed: u64) -> Self {
        Self {
            rank,
            seed,
            waves: 0,
            t_seed: 0.5,
            digest: 0xcbf2_9ce4_8422_2325,
            verify_digest: None,
        }
    }

    /// This rank's inputs to the next wave: candidate block time and
    /// j-records.  Indices are disjoint across ranks; payload words are
    /// functions of (seed, rank, wave, slot, word), so a misrouted or
    /// reordered record changes the digest.
    pub fn inputs(&self) -> (f64, Vec<JRecord>) {
        let t_mine = self.t_seed * (1.0 + self.rank as f64 * 0.125);
        let records = (0..RECORDS_PER_RANK)
            .map(|k| JRecord {
                index: (self.rank * 1024 + k) as u64,
                words: (0..WORDS_PER_RECORD as u64)
                    .map(|w| {
                        (self.seed ^ self.waves.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                            .wrapping_add((self.rank as u64) << 48 | (k as u64) << 8 | w)
                    })
                    .collect(),
            })
            .collect();
        (t_mine, records)
    }

    /// Fold a completed wave's numeric result (not its traffic counters,
    /// which are backend costs) into the digest: FNV-1a over 64-bit words.
    pub fn fold(&mut self, out: &WaveOutcome) {
        let mut h = self.digest;
        let mut eat = |x: u64| h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
        eat(out.t_min.to_bits());
        for r in &out.merged {
            eat(r.index);
            r.words.iter().copied().for_each(&mut eat);
        }
        self.digest = h;
        self.t_seed = out.t_min * 0.75 + 1e-3;
        self.waves += 1;
        if self.waves == VERIFY_WAVES {
            self.verify_digest = Some(h);
        }
    }

    /// The digest the output check compares: after `VERIFY_WAVES` waves,
    /// or at the end of a shorter chain.
    pub fn checked_digest(&self) -> u64 {
        self.verify_digest.unwrap_or(self.digest)
    }
}

/// Rank 1: answer waves until rank 0's stop wave.
fn partner(dir: &Path, seed: u64) -> Result<(Chain, StreamTransport), TransportError> {
    let mut tr = StreamTransport::connect(1, RANKS, dir, StreamKind::Tcp)?;
    let mut chain = Chain::new(1, seed);
    loop {
        let (t_mine, records) = chain.inputs();
        let out = coalesced_wave(&mut tr, chain.waves, t_mine, records, &STAGE_PADS)?;
        if out.t_min < 0.0 {
            return Ok((chain, tr));
        }
        chain.fold(&out);
    }
}

/// The two-rank mesh: rank 0's transport and chain here, rank 1 on its
/// thread.
struct Mesh {
    tr: StreamTransport,
    chain: Chain,
    partner: Option<JoinHandle<Result<(Chain, StreamTransport), TransportError>>>,
}

impl Mesh {
    /// Rendezvous over `dir`.
    fn start(dir: &Path, seed: u64) -> Self {
        let partner_dir = dir.to_path_buf();
        let partner = std::thread::spawn(move || partner(&partner_dir, seed));
        let tr = StreamTransport::connect(0, RANKS, dir, StreamKind::Tcp).expect("mesh rendezvous");
        Self {
            tr,
            chain: Chain::new(0, seed),
            partner: Some(partner),
        }
    }

    fn warm_up(mut self) -> Self {
        for _ in 0..WARMUP_WAVES {
            self.wave(None).expect("warm-up wave");
        }
        self
    }

    /// One wave on rank 0.  Traced, it is driven split-phase (`post_stage`
    /// then `finish_stage`, the same messages in the same order) so the
    /// wait for the partner gets its own span.
    fn wave(&mut self, rec: Option<&mut Recorder>) -> Result<(), TransportError> {
        let (t_mine, records) = self.chain.inputs();
        let step = self.chain.waves;
        let out = match rec {
            None => coalesced_wave(&mut self.tr, step, t_mine, records, &STAGE_PADS)?,
            Some(rec) => {
                let wave_span = rec.open("net.wave", "net", step);
                let mut w = Wave::new(0, RANKS, step, t_mine, records);
                let id = rec.open("net.wave.post", "net", step);
                let posted = w.post_stage(&mut self.tr, STAGE_PADS[0]);
                rec.close(id);
                let id = rec.open("net.wave.finish", "net", step);
                let finished = posted.and_then(|()| w.finish_stage(&mut self.tr));
                rec.close(id);
                let n = w.n_stages();
                let rest = finished.and_then(|()| w.run_stages(&mut self.tr, n, &STAGE_PADS));
                rec.close(wave_span);
                rest?;
                w.outcome()
            }
        };
        self.chain.fold(&out);
        Ok(())
    }

    /// Send the stop wave and collect rank 1's chain and transport.
    fn stop(&mut self) -> Option<(Chain, StreamTransport)> {
        let handle = self.partner.take()?;
        let (_, records) = self.chain.inputs();
        let stopped = coalesced_wave(&mut self.tr, self.chain.waves, STOP, records, &STAGE_PADS);
        if stopped.is_err() {
            // The partner will time out on its own; closing our side of
            // the stream makes that immediate.
            self.tr.close_peer(1);
        }
        handle.join().ok().and_then(Result::ok)
    }
}

impl Drop for Mesh {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The same chain on the virtual fabric: per-rank digests after `waves`.
pub fn virtual_digests(seed: u64, waves: u64) -> Vec<u64> {
    run_ranks::<Vec<u8>, u64, _>(RANKS, LinkProfile::ideal(), move |mut ep| {
        let mut chain = Chain::new(ep.rank(), seed);
        let mut tr = VirtualTransport::new(&mut ep);
        while chain.waves < waves {
            let (t_mine, records) = chain.inputs();
            let out = coalesced_wave(&mut tr, chain.waves, t_mine, records, &STAGE_PADS)
                .expect("lossless fabric");
            chain.fold(&out);
        }
        chain.digest
    })
}

struct ClusterRun {
    m: Measured,
    rank0: Chain,
    rank1: Option<Chain>,
    /// Transport counters over the timed window, rank 0.
    bytes: u64,
    messages: u64,
    recv_timeouts: u64,
    torn_frames: u64,
}

impl AsRef<Measured> for ClusterRun {
    fn as_ref(&self) -> &Measured {
        &self.m
    }
}

fn measure(ctx: &Ctx, ops: u64, setups: usize, mut rec: Option<&mut Recorder>) -> ClusterRun {
    let (mut mesh, setup_s) = harness::repeated_setup(
        setups,
        |k| Mesh::start(&ctx.scratch(&format!("cluster-{k}")), ctx.seed),
        Mesh::warm_up,
    );
    let mut window = Window::with_capacity(ops.div_ceil(WAVES_PER_CALL) as usize);
    let mut failed = 0u64;
    let (bytes0, msgs0) = (mesh.tr.bytes_sent(), mesh.tr.messages_sent());
    let t_start = Instant::now();
    'window: for _ in 0..ops.div_ceil(WAVES_PER_CALL) {
        let c0 = Instant::now();
        for _ in 0..WAVES_PER_CALL {
            if mesh.wave(rec.as_deref_mut()).is_err() {
                failed += 1;
                break 'window;
            }
        }
        let c1 = Instant::now();
        window.push(
            (c1 - c0).as_nanos() as f64,
            WAVES_PER_CALL,
            (c1 - t_start).as_nanos() as f64,
        );
    }
    window.wall_ns = t_start.elapsed().as_nanos() as f64;
    let bytes = mesh.tr.bytes_sent() - bytes0;
    let messages = mesh.tr.messages_sent() - msgs0;
    let partner = mesh.stop();
    ClusterRun {
        m: Measured {
            window,
            setup_s,
            failed,
        },
        rank0: mesh.chain.clone(),
        recv_timeouts: mesh.tr.recv_timeouts()
            + partner.as_ref().map_or(0, |(_, tr)| tr.recv_timeouts()),
        torn_frames: mesh.tr.torn_frames() + partner.as_ref().map_or(0, |(_, tr)| tr.torn_frames()),
        rank1: partner.map(|(chain, _)| chain),
        bytes,
        messages,
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    // Rank 0 gets a thread of its own to place; the rank 1 threads it
    // spawns inherit the placement, and this thread stays as it was.
    let (primary, rec) = std::thread::scope(|s| {
        s.spawn(|| {
            harness::place_handoff_thread();
            harness::measure_as_asked(ctx, &mut out, |ops, setups, rec| {
                measure(ctx, ops, setups, rec)
            })
        })
        .join()
        .expect("rank 0's thread ends without panicking")
    });
    let waves = primary.m.window.ops() as f64;

    let v0 = Instant::now();
    let r0 = &primary.rank0;
    out.check(
        format!(
            "both ranks end on the same chain digest after {} waves",
            r0.waves
        ),
        primary
            .rank1
            .as_ref()
            .is_some_and(|r1| r1.digest == r0.digest && r1.waves == r0.waves),
    );
    let checked = r0.waves.min(VERIFY_WAVES);
    let virt = virtual_digests(ctx.seed, checked);
    out.check(
        format!("the first {checked} waves match the VirtualTransport digest on both ranks"),
        primary
            .rank1
            .as_ref()
            .is_some_and(|r1| virt == [r0.checked_digest(), r1.checked_digest()]),
    );
    out.check(
        "no receive timed out and no frame was torn",
        primary.recv_timeouts == 0 && primary.torn_frames == 0,
    );
    out.set("bench.verify_s", v0.elapsed().as_secs_f64());

    out.set("net.wire.bytes_per_wave", primary.bytes as f64 / waves);
    out.set("net.wire.msgs_per_wave", primary.messages as f64 / waves);
    out.set("net.transport.recv_timeouts", primary.recv_timeouts as f64);
    out.set("net.transport.torn_frames", primary.torn_frames as f64);

    if let Some(rec) = rec {
        let p = |q: f64, name: &str| stats::percentile(&stats::sorted(&rec.durations(name)), q);
        out.set("net.wave.post_ns_p50", p(0.5, "net.wave.post"));
        out.set("net.wave.finish_ns_p50", p(0.5, "net.wave.finish"));
        let totals = rec.totals();
        let wall = primary.m.window.wall_ns;
        out.set(
            "net.wave.post_wall_share",
            totals["net.wave.post"].total_ns as f64 / wall,
        );
        out.set(
            "net.wave.finish_wall_share",
            totals["net.wave.finish"].total_ns as f64 / wall,
        );
        out.set("net.wave.us_p99", p(0.99, "net.wave") / 1e3);
        super::write_trace(ctx, "cluster2_tcp", &[("rank0", &rec)]);
    }
    out
}
