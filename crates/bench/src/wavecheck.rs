//! Bitwise cross-schedule / cross-transport wave checks.
//!
//! The tentpole claim of the coalesced exchange is that the *numeric*
//! result — the all-reduced block time and the merged j-records — is
//! identical bit for bit whatever the schedule (back-to-back or
//! split-phase) and whatever the transport (virtual-time fabric, TCP
//! loopback, Unix sockets, in-process or across OS processes).  This
//! module drives the same chained wave sequence over any
//! [`Transport`] and folds the outcomes into an FNV-1a digest, so every
//! harness (the `crossover_bench` bin, the `cluster_node` per-process
//! rank, the multi-process integration test) compares the same bits.
//!
//! The chain is deliberately stateful: each step's candidate block time
//! derives from the previous step's folded minimum, so a divergence at
//! any step compounds into every later digest instead of washing out.

use std::path::Path;

use grape6_ckpt::wire::{Dec, Enc};
use grape6_ckpt::{fnv1a64_word, FNV_OFFSET};
use grape6_net::cluster::ClusterApp;
use grape6_net::exchange::{coalesced_wave, Wave, WaveOutcome};
use grape6_net::fabric::run_ranks;
use grape6_net::link::LinkProfile;
use grape6_net::transport::{
    StreamKind, StreamTransport, Transport, TransportError, VirtualTransport,
};
use grape6_net::wire::JRecord;

/// Synthetic pad (modelled j-volume) charged per wave stage.
const STAGE_PAD: u64 = 64;

/// Deterministic per-rank j-records for one step: indices are disjoint
/// across ranks, payload words are functions of (rank, step, slot) so a
/// misrouted or reordered record changes the digest.
pub fn synthetic_records(rank: usize, step: u64, count: usize) -> Vec<JRecord> {
    (0..count)
        .map(|k| JRecord {
            index: rank as u64 * 1024 + k as u64,
            words: vec![
                ((step + 1) as f64 * 0.25 + rank as f64 * 1e-3 + k as f64 * 1e-6).to_bits(),
                step.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ rank as u64,
            ],
        })
        .collect()
}

/// Fold one wave outcome's *numeric state* into an FNV-1a digest.  The
/// traffic counters (messages, bytes) are deliberately excluded: they
/// are backend-specific costs, not results.  Public so every harness
/// that chains waves — [`run_waves`], the supervised [`WaveChainApp`],
/// the chaos bin — folds the same bits the same way.
pub fn eat_outcome(h: &mut u64, o: &WaveOutcome) {
    let mut eat = |x: u64| *h = fnv1a64_word(*h, x);
    eat(o.t_min.to_bits());
    for r in &o.merged {
        eat(r.index);
        for &w in &r.words {
            eat(w);
        }
    }
}

/// Run `steps` chained coalesced waves over `tr` and return the folded
/// digest.  `split` drives the wave split-phase (post stage 0, then
/// finish + rest — the overlapped schedule's message order), which must
/// not change a single bit of the digest.
pub fn run_waves(
    tr: &mut impl Transport,
    steps: u64,
    recs_per_rank: usize,
    split: bool,
) -> Result<u64, TransportError> {
    let rank = tr.rank();
    let p = tr.n_ranks();
    let pads = [STAGE_PAD; 8];
    let mut h = FNV_OFFSET;
    let mut t_seed = 0.5f64;
    for step in 0..steps {
        let t_mine = t_seed * (1.0 + rank as f64 * 0.125);
        let recs = synthetic_records(rank, step, recs_per_rank);
        let out = if split && p > 1 {
            let mut w = Wave::new(rank, p, step, t_mine, recs);
            w.post_stage(tr, pads[0])?;
            w.finish_stage(tr)?;
            let n = w.n_stages();
            w.run_stages(tr, n, &pads)?;
            w.outcome()
        } else {
            coalesced_wave(tr, step, t_mine, recs, &pads)?
        };
        eat_outcome(&mut h, &out);
        t_seed = out.t_min * 0.75 + 1e-3;
    }
    Ok(h)
}

/// The chained wave sequence of [`run_waves`] as a [`ClusterApp`], so
/// the fault-tolerant [`grape6_net::cluster::ClusterSupervisor`] can
/// drive it across rank deaths and stalls.
///
/// The digest chain is *identical* to [`run_waves`]: same FNV seed,
/// same [`eat_outcome`] fold, same `t_seed` recurrence, and the same
/// [`synthetic_records`] per original rank — so a supervised run that
/// lost a rank, shrank, rewound and replayed must still print the very
/// digest an unfaulted `run_waves` (or the virtual fabric) prints.
/// That is the whole point: the app's inputs are pure functions of
/// `(orank, step, folded state)`, so survivors reproduce a dead rank's
/// contribution bit for bit.
#[derive(Clone, Debug)]
pub struct WaveChainApp {
    steps: u64,
    recs_per_rank: usize,
    step: u64,
    t_seed: f64,
    h: u64,
}

impl WaveChainApp {
    /// A fresh chain of `steps` waves, `recs_per_rank` records per
    /// original rank per step.
    pub fn new(steps: u64, recs_per_rank: usize) -> Self {
        Self {
            steps,
            recs_per_rank,
            step: 0,
            t_seed: 0.5,
            h: FNV_OFFSET,
        }
    }

    /// The folded digest so far (final state once the run is done).
    pub fn digest(&self) -> u64 {
        self.h
    }
}

impl ClusterApp for WaveChainApp {
    fn step(&self) -> u64 {
        self.step
    }

    fn is_done(&self) -> bool {
        self.step >= self.steps
    }

    fn t_candidate(&self, orank: usize) -> f64 {
        self.t_seed * (1.0 + orank as f64 * 0.125)
    }

    fn records(&self, orank: usize) -> Vec<JRecord> {
        synthetic_records(orank, self.step, self.recs_per_rank)
    }

    fn fold(&mut self, out: &WaveOutcome) {
        eat_outcome(&mut self.h, out);
        self.t_seed = out.t_min * 0.75 + 1e-3;
        self.step += 1;
    }

    fn save(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.step);
        e.u64(self.t_seed.to_bits());
        e.u64(self.h);
        e.into_bytes()
    }

    fn restore(&mut self, payload: &[u8]) -> Result<(), String> {
        let s = |e: grape6_ckpt::wire::WireError| e.to_string();
        let mut d = Dec::new(payload);
        self.step = d.u64().map_err(s)?;
        self.t_seed = f64::from_bits(d.u64().map_err(s)?);
        self.h = d.u64().map_err(s)?;
        d.finish().map_err(s)
    }
}

/// Per-rank digests of the chained waves on the virtual-time fabric.
pub fn virtual_wave_digests(p: usize, steps: u64, recs_per_rank: usize, split: bool) -> Vec<u64> {
    run_ranks::<Vec<u8>, u64, _>(p, LinkProfile::ideal(), move |mut ep| {
        let mut tr = VirtualTransport::new(&mut ep);
        run_waves(&mut tr, steps, recs_per_rank, split).expect("lossless fabric")
    })
}

/// Per-rank digests of the chained waves over real sockets, one OS
/// thread per rank (the per-*process* variant lives in the
/// `cluster_node` bin and `tests/transport_procs.rs`).
pub fn stream_wave_digests(
    p: usize,
    steps: u64,
    recs_per_rank: usize,
    kind: StreamKind,
    dir: &Path,
) -> Vec<u64> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..p)
            .map(|rank| {
                let dir = dir.to_path_buf();
                s.spawn(move || {
                    let mut tr = StreamTransport::connect(rank, p, &dir, kind).expect("rendezvous");
                    run_waves(&mut tr, steps, recs_per_rank, false).expect("stream waves")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_phase_digest_matches_sequential_on_the_fabric() {
        for p in [1usize, 2, 3, 4, 8] {
            let a = virtual_wave_digests(p, 6, 3, false);
            let b = virtual_wave_digests(p, 6, 3, true);
            assert_eq!(a, b, "p={p}");
            // Every rank folds to the same state (it is an all-to-all).
            assert!(a.windows(2).all(|w| w[0] == w[1]), "p={p}");
        }
    }

    #[test]
    fn tcp_threads_digest_matches_the_virtual_fabric() {
        let dir = std::env::temp_dir().join(format!("g6-wavecheck-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let v = virtual_wave_digests(4, 5, 2, false);
        let t = stream_wave_digests(4, 5, 2, StreamKind::Tcp, &dir);
        assert_eq!(v, t);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wave_chain_app_save_restore_roundtrips_bitwise() {
        let mut a = WaveChainApp::new(9, 2);
        // Advance a few steps through fake outcomes so the state is
        // mid-chain, not pristine.
        for step in 0..4u64 {
            let out = WaveOutcome {
                t_min: 0.25 + step as f64 * 1e-3,
                ckpt_min: 0,
                algo: grape6_trace::BarrierAlgo::Dissemination,
                merged: synthetic_records(0, step, 2),
                messages: 0,
                records: 0,
                bytes: 0,
            };
            a.fold(&out);
        }
        let mut b = WaveChainApp::new(9, 2);
        b.restore(&a.save()).expect("restore");
        assert_eq!(b.step(), 4);
        assert_eq!(b.digest(), a.digest());
        assert_eq!(b.t_candidate(3).to_bits(), a.t_candidate(3).to_bits());
        // Truncated payloads are a typed error, never a panic.
        assert!(b.restore(&a.save()[..12]).is_err());
    }

    #[test]
    fn supervised_fault_free_cluster_matches_run_waves_digest() {
        use grape6_net::cluster::{ClusterConfig, ClusterSupervisor};
        use grape6_net::transport::StreamConfig;
        use std::time::Duration;

        let (p, steps, recs) = (3usize, 7u64, 2usize);
        let dir = std::env::temp_dir().join(format!("g6-wavechain-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let scfg = StreamConfig {
            nonce: 31,
            read_deadline: Duration::from_millis(50),
            read_attempts: 3,
            ..StreamConfig::default()
        };
        let want = virtual_wave_digests(p, steps, recs, false);
        let got: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..p)
                .map(|rank| {
                    let (dir, scfg) = (dir.clone(), scfg);
                    s.spawn(move || {
                        let tr =
                            StreamTransport::connect_with(rank, p, &dir, StreamKind::Tcp, &scfg)
                                .expect("rendezvous");
                        let cfg = ClusterConfig::new(&dir);
                        let sup = ClusterSupervisor::new(tr, WaveChainApp::new(steps, recs), cfg);
                        let (app, report) = sup.run().expect("supervised run");
                        assert_eq!(report.recoveries, 0);
                        assert_eq!(report.waves_folded, steps);
                        app.digest()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank"))
                .collect()
        });
        assert_eq!(got, want);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn digest_is_sensitive_to_the_payload() {
        let a = virtual_wave_digests(4, 4, 2, false);
        let b = virtual_wave_digests(4, 4, 3, false);
        let c = virtual_wave_digests(4, 5, 2, false);
        assert_ne!(a[0], b[0]);
        assert_ne!(a[0], c[0]);
    }
}
