//! Measured per-blockstep time breakdowns — the simulation-side twin of
//! the analytic `model::BlockTime`.
//!
//! The paper's figures 13–19 all argue through a six-term decomposition
//! of the blockstep time (host, DMA, interface, GRAPE, sync, exchange).
//! The analytic model predicts those terms from workload statistics; this
//! module *measures* them from the executable stack:
//!
//! * **Single host** — a real [`HermiteIntegrator`] over the bit-level
//!   [`Grape6Engine`] with the engine/integrator span instrumentation
//!   active: every term comes from recorded [`Span`]s (pipeline cycles
//!   from the hardware counters, interface/DMA from the engine timebase,
//!   host phases from calibrated [`HostRates`]).
//! * **Cluster / multi-cluster** — one fabric rank per host.  Every rank
//!   advances a full bit-identical copy of the system (the §3.2 copy
//!   algorithm: identical arithmetic keeps the blockstep schedules
//!   aligned with no data on the wire) and stamps the virtual time the
//!   critical-path host's `⌈n_b/p⌉` share of each block costs, chunked
//!   by the hardware's 48-way i-parallelism, with pipeline passes
//!   charged at the cycles the simulated hardware actually spent.
//!   Synchronisation and the inter-cluster exchange are genuinely
//!   executed over the discrete-event fabric (butterfly barriers;
//!   recursive doubling between cluster pairs with the block's
//!   j-updates striped over the cluster's concurrent streams), one span
//!   per wave stage or exchange hop.
//!
//! Per blockstep the per-rank breakdowns are folded with an elementwise
//! **max** — the paper's breakdown figures plot the slowest host's view —
//! and summed over blocksteps.  `perf_report` dumps the result next to
//! the analytic prediction for the same real block-size sequence.

use grape6_core::engine::Grape6Engine;
use grape6_core::integrator::{HermiteIntegrator, IntegratorConfig};
use grape6_model::calib::{GrapeTiming, NicProfile, BARRIER_SW_OVERHEAD};
use grape6_model::perf::{BlockTime, MachineLayout, PerfModel};
use grape6_net::exchange::{Wave, WaveOutcome};
use grape6_net::fabric::{run_ranks, Endpoint};
use grape6_net::link::LinkProfile;
use grape6_net::transport::VirtualTransport;
use grape6_system::machine::MachineConfig;
use grape6_system::unit::GrapeUnit;
use grape6_trace::{
    BarrierAlgo, HostRates, MeasuredBlockTime, NetSchedule, OverlapMode, Phase, Span, SpanCounters,
    Tracer,
};
use nbody_core::ic::plummer::plummer_model;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The [`GrapeTiming`] describing a simulated [`MachineConfig`]: same
/// chip count and clock, the paper's host-interface constants.  This is
/// the model the measured runs must be compared against — `test_small`
/// has 4 chips, not the real machine's 128.
pub fn timing_for(cfg: &MachineConfig) -> GrapeTiming {
    GrapeTiming {
        chips_per_host: cfg.total_chips(),
        clock_hz: cfg.chip.clock_khz as f64 * 1e3,
        vmp_ways: cfg.chip.vmp_ways,
        i_parallel: cfg.chip.pipelines * cfg.chip.vmp_ways,
        ..GrapeTiming::paper_host()
    }
}

/// The fabric link equivalent of a NIC profile, chosen so one
/// barrier stage (send overhead + one-way latency + recv
/// overhead) costs exactly `rtt + BARRIER_SW_OVERHEAD` — the stage cost
/// the analytic `butterfly_barrier` charges.
pub fn nic_link(nic: &NicProfile) -> LinkProfile {
    LinkProfile {
        latency: nic.rtt / 2.0,
        bandwidth: nic.bandwidth,
        overhead: nic.rtt / 4.0 + BARRIER_SW_OVERHEAD / 2.0,
    }
}

/// One measured-vs-modelled breakdown run.
pub struct BreakdownRun {
    /// The machine layout.
    pub layout: MachineLayout,
    /// Blocksteps executed.
    pub blocksteps: usize,
    /// Particle steps executed.
    pub particle_steps: u64,
    /// Measured terms: per-blockstep max across ranks, summed over steps.
    pub measured: MeasuredBlockTime,
    /// Analytic terms for the same real block-size sequence, summed.
    pub model: BlockTime,
    /// Analytic *wall* for the same sequence — per step
    /// `BlockTime::wall(overlap)`, summed.  Equals `model.total()` under
    /// the sequential schedule; smaller when overlapped.
    pub model_wall: f64,
    /// Per-rank span streams (for Chrome-trace export).
    pub streams: Vec<(String, Vec<Span>)>,
}

/// Elementwise sum of analytic breakdowns (accumulating blocksteps).
fn add_block_time(acc: &mut BlockTime, bt: &BlockTime) {
    acc.host += bt.host;
    acc.dma += bt.dma;
    acc.interface += bt.interface;
    acc.grape += bt.grape;
    acc.sync += bt.sync;
    acc.exchange += bt.exchange;
}

/// Measure the six-term breakdown of a Plummer integration on `machine`
/// hardware in `layout`, against `model`'s analytic prediction for the
/// same blockstep sequence.  `model.grape` must describe `machine` (use
/// [`timing_for`]); host and NIC profiles are taken from `model`.
pub fn measure_breakdown(
    model: &PerfModel,
    machine: &MachineConfig,
    layout: MachineLayout,
    n: usize,
    t_end: f64,
    seed: u64,
) -> BreakdownRun {
    measure_breakdown_net(
        model,
        machine,
        layout,
        n,
        t_end,
        seed,
        NetSchedule::Sequential,
    )
}

/// [`measure_breakdown`] under an explicit network schedule.  Sequential
/// runs the three-collective schedule (agreement barrier / commit
/// barrier / exchange / post barrier, each barrier an empty [`Wave`]);
/// the coalesced schedules run one
/// [`Wave`] per blockstep instead, split-phase when overlapped.  The
/// integrator state is bit-identical across schedules by construction
/// (every rank advances a full replicated copy); only the network terms
/// of the breakdown move.
#[allow(clippy::too_many_arguments)]
pub fn measure_breakdown_net(
    model: &PerfModel,
    machine: &MachineConfig,
    layout: MachineLayout,
    n: usize,
    t_end: f64,
    seed: u64,
    sched: NetSchedule,
) -> BreakdownRun {
    match layout {
        MachineLayout::SingleHost => measure_single_host(model, machine, n, t_end, seed),
        MachineLayout::Cluster { hosts } => {
            measure_ranks(model, machine, layout, 1, hosts, n, t_end, seed, sched)
        }
        MachineLayout::MultiCluster {
            clusters,
            hosts_per_cluster,
        } => measure_ranks(
            model,
            machine,
            layout,
            clusters,
            hosts_per_cluster,
            n,
            t_end,
            seed,
            sched,
        ),
    }
}

/// Single host: the real traced integrator/engine stack end to end.
fn measure_single_host(
    model: &PerfModel,
    machine: &MachineConfig,
    n: usize,
    t_end: f64,
    seed: u64,
) -> BreakdownRun {
    measure_single_host_mode(model, machine, n, t_end, seed, OverlapMode::Sequential)
}

/// Single host with an explicit schedule: the sequential (blocking) or
/// the split-phase overlapped blockstep.  The six term *sums* are
/// schedule-independent — the same spans are recorded either way, only
/// their timeline layout changes — so the model-vs-measured per-term
/// gates apply unchanged; the measured `wall` (and the analytic
/// `model_wall`) is what the overlap shrinks.
pub fn measure_single_host_mode(
    model: &PerfModel,
    machine: &MachineConfig,
    n: usize,
    t_end: f64,
    seed: u64,
    overlap: OverlapMode,
) -> BreakdownRun {
    let layout = MachineLayout::SingleHost;
    let set = plummer_model(n, &mut StdRng::seed_from_u64(seed));
    let engine = Grape6Engine::try_new(machine, n).unwrap();
    let icfg = IntegratorConfig {
        overlap: overlap == OverlapMode::Overlapped,
        ..IntegratorConfig::default()
    };
    let mut it = HermiteIntegrator::new(engine, set, icfg);
    let tb = match overlap {
        OverlapMode::Sequential => model.grape.engine_timebase(),
        OverlapMode::Overlapped => model.grape.engine_timebase_overlapped(),
    };
    it.engine_mut().set_timebase(tb);
    it.engine_mut().set_tracer(Tracer::enabled());
    it.set_tracer(Tracer::enabled());
    it.set_host_rates(HostRates {
        t_block_fixed: model.host.t_block_fixed,
        t_step: model.host.t_step(n as f64),
    });
    let mut measured = MeasuredBlockTime::default();
    let mut model_sum = BlockTime::default();
    let mut model_wall = 0.0f64;
    let mut all_spans = Vec::new();
    let mut blocksteps = 0usize;
    while it.time() < t_end {
        let (_, n_b) = it.try_step().expect("healthy hardware");
        let spans = it.take_spans();
        measured.add(&MeasuredBlockTime::from_spans(&spans));
        all_spans.extend(spans);
        let bt = model.block_time(layout, n, n_b);
        add_block_time(&mut model_sum, &bt);
        model_wall += bt.wall(overlap);
        blocksteps += 1;
    }
    BreakdownRun {
        layout,
        blocksteps,
        particle_steps: it.stats().particle_steps,
        measured,
        model: model_sum,
        model_wall,
        streams: vec![("host".into(), all_spans)],
    }
}

/// Record a span at the rank's virtual-time cursor and advance it.
fn stamp(tracer: &mut Tracer, vt: &mut f64, phase: Phase, dur: f64, items: u64, bytes: u64) {
    let t0 = *vt;
    let t1 = t0 + dur;
    tracer.record(Span {
        phase,
        t0,
        t1,
        track: 0,
        counters: SpanCounters {
            items,
            bytes,
            ..Default::default()
        },
    });
    *vt = t1;
}

/// Run `hop` on the fabric and record it as one `phase` span whose
/// counters carry the frames and bytes this rank sent and the
/// retransmits it saw; `counters` supplies the rest of the tags.
fn traced_hop(
    ep: &mut Endpoint<Vec<u8>>,
    tracer: &mut Tracer,
    phase: Phase,
    counters: SpanCounters,
    hop: impl FnOnce(&mut Endpoint<Vec<u8>>),
) {
    let (t0, s0) = (ep.clock(), ep.stats());
    hop(ep);
    let s1 = ep.stats();
    tracer.record(Span {
        phase,
        t0,
        t1: ep.clock(),
        track: 0,
        counters: SpanCounters {
            items: s1.messages_sent - s0.messages_sent,
            bytes: s1.bytes_sent - s0.bytes_sent,
            retries: s1.retransmits - s0.retransmits,
            ..counters
        },
    });
}

/// The breakdown term of wave stage `k`: stages below `intra` pair hosts
/// inside a cluster (sync), the rest pair clusters (exchange).
fn stage_phase(k: u32, intra: u32) -> Phase {
    if k < intra {
        Phase::Sync
    } else {
        Phase::Exchange
    }
}

/// The span tags of a wave stage: sentinel + min records, and the
/// pattern that ran.
fn stage_counters(algo: BarrierAlgo) -> SpanCounters {
    SpanCounters {
        records: 2,
        algo: Some(algo),
        ..Default::default()
    }
}

/// Run the stages of `w` not yet folded — finishing a posted one first —
/// each recorded as one span of its [`stage_phase`].  `pads[k]` is stage
/// `k`'s synthetic pad.  Both schedules come through here: the coalesced
/// wave, and the sequential schedule's barriers (empty waves, every stage
/// sync).
fn run_wave(
    ep: &mut Endpoint<Vec<u8>>,
    tracer: &mut Tracer,
    mut w: Wave,
    intra: u32,
    pads: &[u64],
    algo: BarrierAlgo,
) -> WaveOutcome {
    while !w.is_complete() {
        let k = w.stages_done();
        traced_hop(
            ep,
            tracer,
            stage_phase(k, intra),
            stage_counters(algo),
            |ep| {
                let mut tr = VirtualTransport::new(ep);
                if w.pending_partner().is_none() {
                    let pad = pads.get(k as usize).copied().unwrap_or(0);
                    w.post_stage(&mut tr, pad).expect("lossless fabric");
                }
                w.finish_stage(&mut tr).expect("lossless fabric");
            },
        );
    }
    w.outcome()
}

/// A barrier: an empty wave, every stage on the sync term.
fn barrier(ep: &mut Endpoint<Vec<u8>>, tracer: &mut Tracer, step: u64, algo: BarrierAlgo) {
    let w = Wave::new(ep.rank(), ep.n_ranks(), step, 0.0, Vec::new());
    run_wave(ep, tracer, w, u32::MAX, &[], algo);
}

/// Recursive-doubling exchange of the block's j-updates between cluster
/// pairs (§4.3's copy algorithm over the Ethernet).  Stage `k` pairs
/// cluster `ci` with `ci XOR 2^k`, one [`Phase::Exchange`] span per stage;
/// the accumulated updates are striped over the cluster's `streams`
/// concurrently-receiving hosts ([`wave_pads`]), so only ranks with
/// in-cluster index below `streams` carry payload.  The others exchange
/// a 1-byte sentinel so every clock rides the same stage pattern (their
/// share of the data reaches them over the cluster's hardware network,
/// not the Ethernet).
fn exchange_blocks(
    ep: &mut Endpoint<Vec<u8>>,
    tracer: &mut Tracer,
    clusters: usize,
    hosts_per_cluster: usize,
    streams: usize,
    block_bytes: f64,
) {
    let ci = ep.rank() / hosts_per_cluster;
    let hi = ep.rank() % hosts_per_cluster;
    let stages = (clusters as f64).log2().ceil() as u32;
    let pads = wave_pads(stages, 0, hi, streams, block_bytes / clusters as f64);
    for (k, pad) in pads.into_iter().enumerate() {
        let partner_cluster = ci ^ (1usize << k);
        if partner_cluster >= clusters {
            continue;
        }
        let partner = partner_cluster * hosts_per_cluster + hi;
        traced_hop(ep, tracer, Phase::Exchange, SpanCounters::default(), |ep| {
            ep.send_lossy(partner, Vec::new(), (pad as usize).max(1));
            ep.recv_checked(partner).expect("lossless fabric");
        });
    }
}

/// The synthetic pad (wire bytes) each wave stage carries: intra-cluster
/// stages are sentinel-only (the hardware network moves the j-data, as in
/// the sequential schedule); each inter-cluster stage `kk` forwards the
/// recursively-doubled accumulation, striped over the cluster's
/// concurrent streams.  The sequential schedule's [`exchange_blocks`]
/// puts the same bytes on the wire as separate messages.
fn wave_pads(n_stages: u32, intra: u32, hi: usize, streams: usize, per_cluster: f64) -> Vec<u64> {
    let mut pads = vec![0u64; n_stages as usize];
    for kk in 0..n_stages.saturating_sub(intra) {
        pads[(intra + kk) as usize] = if hi < streams {
            (per_cluster * (1u64 << kk) as f64 / streams as f64).ceil() as u64
        } else {
            0
        };
    }
    pads
}

/// Cluster / multi-cluster: one fabric rank per host.
#[allow(clippy::too_many_arguments)]
fn measure_ranks(
    model: &PerfModel,
    machine: &MachineConfig,
    layout: MachineLayout,
    clusters: usize,
    hosts_per_cluster: usize,
    n: usize,
    t_end: f64,
    seed: u64,
    sched: NetSchedule,
) -> BreakdownRun {
    let p = clusters * hosts_per_cluster;
    let tb = model.grape.engine_timebase();
    let rates = HostRates {
        t_block_fixed: model.host.t_block_fixed,
        t_step: model.host.t_step(n as f64),
    };
    let streams = (hosts_per_cluster as f64)
        .min(model.nic.concurrency)
        .max(1.0) as usize;
    let i_par = model.grape.i_parallel.max(1);
    let j_bytes = model.grape.j_word_bytes;
    let link = nic_link(&model.nic);
    let algo = if p.is_power_of_two() {
        BarrierAlgo::Butterfly
    } else {
        BarrierAlgo::Dissemination
    };
    // (per-step breakdowns, per-step block sizes, particle steps, spans)
    type RankOut = (Vec<MeasuredBlockTime>, Vec<usize>, u64, Vec<Span>);
    let results = run_ranks::<Vec<u8>, RankOut, _>(p, link, move |mut ep| {
        let rank = ep.rank();
        let hi = rank % hosts_per_cluster;
        // Full bit-identical copy of the system on every rank: identical
        // arithmetic means identical blockstep schedules, so the fabric
        // carries only timing (empty payloads with explicit wire bytes).
        let set = plummer_model(n, &mut StdRng::seed_from_u64(seed));
        let engine = Grape6Engine::try_new(machine, n).unwrap();
        let mut it = HermiteIntegrator::new(engine, set, IntegratorConfig::default());
        ep.set_tracer(Tracer::enabled());
        let mut tracer = Tracer::enabled();
        let mut per_step = Vec::new();
        let mut sizes = Vec::new();
        let mut all_spans = Vec::new();
        let mut stepno = 0u64;
        while it.time() < t_end {
            // Sequential: the block-agreement barrier opens the step.  The
            // coalesced schedules skip it — the previous step's wave
            // already all-reduced the next block time, which *is* the
            // agreement (that is one of the collectives it absorbs).
            if !sched.coalesced() {
                barrier(&mut ep, &mut tracer, stepno, algo);
            }
            let (_, n_b) = it.step();
            let pass_cycles = it.engine().hardware().last_pass_cycles();
            // This rank's share of the block: balanced round-robin over
            // block positions (position k goes to rank k mod p).  Every
            // rank *stamps* the critical-path host's share ⌈n_b/p⌉ — the
            // model's per-host charge — because stamping the rank's own
            // ±1-particle imbalance would skew barrier entries and leak
            // wait time between the sync and exchange terms.  (The
            // replicated integrator makes the share synthetic either way;
            // the counters keep the true ownership.)
            let owned = n_b / p + usize::from(rank < n_b % p);
            let share = n_b.div_ceil(p);
            // Coalesced: one wave replaces commit barrier + agreement
            // all-reduce + j-exchange + post barrier.  Its high stages
            // pair hosts across clusters (the exchange topology is
            // contained in the butterfly), so they are attributed to the
            // exchange term and carry the j-volume as synthetic pad.
            let mut wave = if sched.coalesced() {
                let w = Wave::new(rank, p, stepno, it.time(), Vec::new());
                let x_stages = if clusters > 1 {
                    (clusters as f64).log2().ceil() as u32
                } else {
                    0
                };
                let intra = w.n_stages() - x_stages;
                let pads = wave_pads(
                    w.n_stages(),
                    intra,
                    hi,
                    streams,
                    n_b as f64 * j_bytes / clusters as f64,
                );
                Some((w, intra, pads))
            } else {
                None
            };
            // Split-phase overlap: post the wave's first stage *before*
            // charging the step's compute, so its latency hides behind
            // the force pass — the message sequence (and therefore the
            // folded state) is identical to the back-to-back wave.
            if let Some((w, intra, pads)) = wave.as_mut() {
                if sched.overlapped() && w.n_stages() > 0 {
                    let phase = stage_phase(0, *intra);
                    traced_hop(&mut ep, &mut tracer, phase, stage_counters(algo), |ep| {
                        let mut tr = VirtualTransport::new(ep);
                        w.post_stage(&mut tr, pads[0]).expect("lossless fabric");
                    });
                }
            }
            // Stamp the share's host + hardware time at the fabric clock.
            let mut vt = ep.clock();
            stamp(
                &mut tracer,
                &mut vt,
                Phase::Predict,
                0.5 * rates.t_step * share as f64,
                owned as u64,
                0,
            );
            let mut left = share;
            while left > 0 {
                let chunk = left.min(i_par);
                stamp(
                    &mut tracer,
                    &mut vt,
                    Phase::Dma,
                    tb.dma_call(),
                    chunk as u64,
                    0,
                );
                stamp(
                    &mut tracer,
                    &mut vt,
                    Phase::Interface,
                    tb.if_time(chunk),
                    chunk as u64,
                    (chunk as f64 * (tb.i_word_bytes + tb.f_word_bytes)) as u64,
                );
                // The pass streams the full j-memory whatever the chunk
                // holds; charge the cycles the simulated hardware spent.
                stamp(
                    &mut tracer,
                    &mut vt,
                    Phase::Grape,
                    pass_cycles as f64 * tb.sec_per_cycle,
                    n as u64,
                    0,
                );
                left -= chunk;
            }
            // j writeback over the host interface: a host's own share
            // always crosses it; inside a cluster the rest rides the
            // hardware broadcast network, but the inter-cluster copy
            // algorithm makes every host write the whole block (§4.3).
            let j_items = if clusters > 1 { n_b } else { share };
            stamp(
                &mut tracer,
                &mut vt,
                Phase::Interface,
                j_items as f64 * tb.j_write_time(),
                j_items as u64,
                (j_items as f64 * tb.j_word_bytes) as u64,
            );
            stamp(
                &mut tracer,
                &mut vt,
                Phase::Host,
                rates.t_block_fixed + 0.5 * rates.t_step * share as f64,
                owned as u64,
                0,
            );
            ep.advance_to(vt);
            if let Some((w, intra, pads)) = wave.take() {
                // Finish the posted stage (its frame arrived during the
                // compute) and run the rest.  Replicated copies agree on
                // the next block time: the all-reduced minimum is this
                // rank's own candidate.
                let out = run_wave(&mut ep, &mut tracer, w, intra, &pads, algo);
                debug_assert_eq!(out.t_min, it.time());
            } else {
                // Commit barrier.
                barrier(&mut ep, &mut tracer, stepno, algo);
                if clusters > 1 {
                    let block_bytes = n_b as f64 * j_bytes;
                    exchange_blocks(
                        &mut ep,
                        &mut tracer,
                        clusters,
                        hosts_per_cluster,
                        streams,
                        block_bytes,
                    );
                    // The post-exchange barrier is the extra round the paper
                    // blames for the multi-cluster sync overhead (§4.4).
                    barrier(&mut ep, &mut tracer, stepno, algo);
                }
            }
            stepno += 1;
            let mut spans = tracer.take();
            spans.extend(ep.take_spans());
            per_step.push(MeasuredBlockTime::from_spans(&spans));
            sizes.push(n_b);
            all_spans.extend(spans);
        }
        (per_step, sizes, it.stats().particle_steps, all_spans)
    });
    // Fold: per blockstep the slowest rank's term (the paper's breakdown
    // figures plot the critical path), summed over blocksteps.
    let steps = results[0].0.len();
    let mut measured = MeasuredBlockTime::default();
    for k in 0..steps {
        let mut worst = MeasuredBlockTime::default();
        for r in &results {
            worst = worst.max(&r.0[k]);
        }
        measured.add(&worst);
    }
    let mut model_sum = BlockTime::default();
    let mut model_wall = 0.0f64;
    for &n_b in &results[0].1 {
        let bt = model.block_time_net(layout, n, n_b, sched);
        add_block_time(&mut model_sum, &bt);
        model_wall += bt.wall(OverlapMode::Sequential);
    }
    let streams_out = results
        .iter()
        .enumerate()
        .map(|(r, out)| (format!("rank{r}"), out.3.clone()))
        .collect();
    BreakdownRun {
        layout,
        blocksteps: steps,
        particle_steps: results[0].2,
        measured,
        model: model_sum,
        model_wall,
        streams: streams_out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_model() -> (PerfModel, MachineConfig) {
        let machine = MachineConfig::test_small();
        let model = PerfModel {
            grape: timing_for(&machine),
            ..PerfModel::default()
        };
        (model, machine)
    }

    #[test]
    fn nic_link_round_costs_one_barrier_stage() {
        let nic = NicProfile::intel_82540em();
        let l = nic_link(&nic);
        // send overhead + latency + recv overhead = rtt + sw.
        let round = 2.0 * l.overhead + l.latency;
        assert!((round - (nic.rtt + BARRIER_SW_OVERHEAD)).abs() < 1e-12);
    }

    #[test]
    fn timing_for_matches_test_small_geometry() {
        let t = timing_for(&MachineConfig::test_small());
        assert_eq!(t.chips_per_host, 4);
        assert_eq!(t.i_parallel, 48);
        assert_eq!(t.clock_hz, 90.0e6);
    }

    #[test]
    fn single_host_breakdown_has_no_network_terms() {
        let (model, machine) = small_model();
        let run = measure_breakdown(&model, &machine, MachineLayout::SingleHost, 64, 0.0625, 42);
        assert!(run.blocksteps > 0);
        assert_eq!(run.measured.sync, 0.0);
        assert_eq!(run.measured.exchange, 0.0);
        assert!(run.measured.host > 0.0 && run.measured.grape > 0.0);
        assert!(run.measured.dma > 0.0 && run.measured.interface > 0.0);
        // Host and DMA are charged from the same constants as the model:
        // they must agree essentially exactly.
        assert!((run.measured.host / run.model.host - 1.0).abs() < 1e-9);
        assert!((run.measured.dma / run.model.dma - 1.0).abs() < 1e-9);
    }

    #[test]
    fn coalesced_wave_cuts_network_time_and_keeps_the_run_identical() {
        let (model, machine) = small_model();
        let layout = MachineLayout::MultiCluster {
            clusters: 2,
            hosts_per_cluster: 2,
        };
        let run = |sched| measure_breakdown_net(&model, &machine, layout, 48, 0.0625, 44, sched);
        let seq = run(NetSchedule::Sequential);
        let coa = run(NetSchedule::Coalesced);
        let ovl = run(NetSchedule::CoalescedOverlapped);
        // The integration itself is schedule-independent: same steps, and
        // the stamped compute terms agree to rounding (span durations are
        // differences of absolute clocks, which sit at schedule-dependent
        // offsets).
        let close = |a: f64, b: f64| (a / b - 1.0).abs() < 1e-12;
        for r in [&coa, &ovl] {
            assert_eq!(r.blocksteps, seq.blocksteps);
            assert_eq!(r.particle_steps, seq.particle_steps);
            assert!(close(r.measured.host, seq.measured.host));
            assert!(close(r.measured.dma, seq.measured.dma));
            assert!(close(r.measured.grape, seq.measured.grape));
            assert!(close(r.measured.interface, seq.measured.interface));
        }
        // One wave per step instead of three collectives: the measured
        // network time must drop, and overlap must not cost anything.
        let net = |r: &BreakdownRun| r.measured.sync + r.measured.exchange;
        assert!(
            net(&coa) < 0.6 * net(&seq),
            "coalesced {} vs sequential {}",
            net(&coa),
            net(&seq)
        );
        assert!(
            net(&ovl) <= net(&coa) + 1e-12,
            "{} vs {}",
            net(&ovl),
            net(&coa)
        );
        // Both terms are genuinely exercised (butterfly low stages are
        // sync, high stages carry the exchange volume).
        assert!(coa.measured.sync > 0.0 && coa.measured.exchange > 0.0);
        // The model side follows the same schedule.
        assert!(coa.model.sync < seq.model.sync);
    }

    #[test]
    fn wave_spans_carry_the_algorithm_tag() {
        let (model, machine) = small_model();
        let run = measure_breakdown_net(
            &model,
            &machine,
            MachineLayout::Cluster { hosts: 2 },
            48,
            0.0625,
            45,
            NetSchedule::Coalesced,
        );
        let sync_spans: Vec<&Span> = run
            .streams
            .iter()
            .flat_map(|(_, s)| s.iter())
            .filter(|s| s.phase == Phase::Sync)
            .collect();
        assert!(!sync_spans.is_empty());
        for s in &sync_spans {
            assert_eq!(s.counters.algo, Some(BarrierAlgo::Butterfly));
            assert_eq!(s.counters.records, 2);
            assert!(s.counters.bytes > 0);
        }
    }

    #[test]
    fn barrier_stage_spans_nest_their_send_recv_subspans() {
        // Sequential schedule on 4 hosts: every barrier is an empty wave,
        // recorded one Sync span per butterfly stage — and each stage span
        // holds exactly the one Send and one Recv it is made of.
        let (model, machine) = small_model();
        let layout = MachineLayout::Cluster { hosts: 4 };
        let run = measure_breakdown(&model, &machine, layout, 48, 0.0625, 46);
        for (rank, spans) in &run.streams {
            let syncs: Vec<&Span> = spans.iter().filter(|s| s.phase == Phase::Sync).collect();
            // Two barriers per blockstep, ⌈log₂ 4⌉ = 2 stages each.
            assert_eq!(syncs.len(), 4 * run.blocksteps, "{rank}");
            let inside = |sub: &Span, s: &Span| sub.t0 >= s.t0 - 1e-15 && sub.t1 <= s.t1 + 1e-15;
            for sync in &syncs {
                assert!(sync.dur() > 0.0, "{rank}");
                assert_eq!(sync.counters.items, 1, "{rank}: one frame per stage");
                assert_eq!(sync.counters.algo, Some(BarrierAlgo::Butterfly), "{rank}");
                for phase in [Phase::Send, Phase::Recv] {
                    let n = spans
                        .iter()
                        .filter(|sub| sub.phase == phase && inside(sub, sync))
                        .count();
                    assert_eq!(n, 1, "{rank}: {phase:?} sub-spans in one stage");
                }
            }
            for sub in spans
                .iter()
                .filter(|s| matches!(s.phase, Phase::Send | Phase::Recv))
            {
                assert!(
                    syncs.iter().any(|s| inside(sub, s)),
                    "{rank}: {:?} sub-span outside every stage",
                    sub.phase
                );
            }
        }
    }

    #[test]
    fn cluster_breakdown_pays_sync_but_not_exchange() {
        let (model, machine) = small_model();
        let run = measure_breakdown(
            &model,
            &machine,
            MachineLayout::Cluster { hosts: 2 },
            48,
            0.0625,
            43,
        );
        assert!(run.measured.sync > 0.0);
        assert_eq!(run.measured.exchange, 0.0);
    }
}
