//! The coalesced per-blockstep wave: barrier + all-reduce-min +
//! j-exchange in one butterfly.
//!
//! ## Why one wave
//!
//! The PR 5 sequential schedule pays three collectives per blockstep on a
//! multi-node cluster: a commit barrier, the next-block-time all-reduce,
//! and the inter-cluster j-exchange (plus its post-barrier) — every one a
//! full ⌈log₂ p⌉-stage pattern charging per-message latency and switch
//! overhead.  But the butterfly over `p = c × h` ranks *already contains*
//! the exchange topology: with ranks numbered `ci·h + hi`, the low
//! `log₂ h` stages pair ranks within a cluster and the high `log₂ c`
//! stages pair the same host-index across clusters — exactly the
//! recursive-doubling partners of the j-exchange.  So one wave per
//! blockstep, whose frames coalesce the barrier sentinel, the running
//! min and the j-records ([`Frame::Stage`]), does the work of all three
//! collectives at a third of the message count.
//!
//! A plain barrier is the same wave with nothing in it: an empty
//! [`coalesced_wave`] is the paper's §4.4 butterfly (dissemination for
//! non-power-of-two `p`), ⌈log₂ p⌉ frames per rank, on any
//! [`Transport`].  [`central_barrier`] is the MPICH-shaped comparator
//! it is measured against, on the same backends.
//!
//! ## Split-phase overlap
//!
//! [`Wave`] is a stage-stepped state machine: [`Wave::post_stage`] only
//! *sends* the current stage's frame, [`Wave::finish_stage`] receives
//! and folds it.  Posting stage 0 before the force pass and finishing it
//! after lets the first stage's latency hide behind compute — on the
//! virtual fabric the clock has advanced past the frame's arrival by the
//! time the receive happens, so the wait is absorbed, and on a real
//! socket the kernel buffers the frame meanwhile.  The message sequence
//! is **identical** in all schedules (same frames, same per-peer order),
//! which is the bitwise argument: the folded state can not depend on
//! when the receives were executed.
//!
//! ## Determinism of the fold
//!
//! `t_min` folds through `f64::min` — associative and commutative over
//! the totally-ordered non-NaN floats, so any fold order yields the same
//! bits.  J-records merge by particle index, one per index; each
//! particle is updated by exactly one owner per step, so duplicates
//! (possible under the dissemination fallback, which re-forwards) are
//! bitwise-identical copies and the merged set is order-independent.

use grape6_trace::BarrierAlgo;

use crate::transport::{Transport, TransportError};
use crate::wire::{Frame, JRecord};

/// The folded result of a completed [`Wave`].
#[derive(Clone, Debug, PartialEq)]
pub struct WaveOutcome {
    /// Global minimum of the per-rank inputs (the next block time).
    pub t_min: f64,
    /// Global minimum of the per-rank last-captured checkpoint epochs —
    /// the most recent *coordinated* cut every rank can rewind to.
    pub ckpt_min: u64,
    /// The wave pattern that ran (butterfly, or dissemination fallback
    /// for non-power-of-two rank counts).
    pub algo: BarrierAlgo,
    /// Every rank's j-records, merged, ascending by particle index.
    pub merged: Vec<JRecord>,
    /// Frames this rank sent.
    pub messages: u64,
    /// Logical records coalesced into those frames (sentinel + min +
    /// j-records per frame) — `records / messages` is the coalescing
    /// factor.
    pub records: u64,
    /// Wire bytes this rank sent (encoded + synthetic pad).
    pub bytes: u64,
}

/// One rank's in-flight coalesced wave for one blockstep.
pub struct Wave {
    rank: usize,
    p: usize,
    /// Recovery generation this wave speaks; frames from an older
    /// generation are stale in-flight leftovers and are discarded.
    gen: u32,
    step: u64,
    algo: BarrierAlgo,
    n_stages: u32,
    /// Stages fully folded so far.
    done: u32,
    /// Receive partner of a posted-but-unfinished stage.
    pending_from: Option<usize>,
    t_min: f64,
    /// This rank's last-captured checkpoint epoch, folded via min.
    ckpt: u64,
    /// Records accumulated so far, ascending by particle index, one per
    /// index.
    acc: Vec<JRecord>,
    /// Heartbeat observations skipped over while waiting for stage
    /// frames: `(peer, epoch)` pairs for the liveness monitor.
    beats: Vec<(usize, u64)>,
    messages: u64,
    records: u64,
    bytes: u64,
}

impl Wave {
    /// Start a wave at this rank: `t_min` is the rank's candidate next
    /// block time, `records` its j-updates for this step.  Generation
    /// and checkpoint epoch default to 0 (no recovery machinery).
    pub fn new(rank: usize, p: usize, step: u64, t_min: f64, records: Vec<JRecord>) -> Self {
        Self::with_meta(rank, p, 0, step, t_min, 0, records)
    }

    /// Start a wave carrying recovery metadata: `gen` is the current
    /// recovery generation, `ckpt` this rank's last-captured checkpoint
    /// epoch (folded via min across ranks, so the outcome names the most
    /// recent cut *everyone* holds).
    pub fn with_meta(
        rank: usize,
        p: usize,
        gen: u32,
        step: u64,
        t_min: f64,
        ckpt: u64,
        records: Vec<JRecord>,
    ) -> Self {
        assert!(p >= 1 && rank < p);
        let algo = if p.is_power_of_two() {
            BarrierAlgo::Butterfly
        } else {
            BarrierAlgo::Dissemination
        };
        let n_stages = if p > 1 {
            usize::BITS - (p - 1).leading_zeros()
        } else {
            0
        };
        let mut acc = Vec::new();
        fold_records(&mut acc, records);
        Self {
            rank,
            p,
            gen,
            step,
            algo,
            n_stages,
            done: 0,
            pending_from: None,
            t_min,
            ckpt,
            acc,
            beats: Vec::new(),
            messages: 0,
            records: 0,
            bytes: 0,
        }
    }

    /// Total stages (⌈log₂ p⌉).
    pub fn n_stages(&self) -> u32 {
        self.n_stages
    }

    /// Stages fully folded so far.
    pub fn stages_done(&self) -> u32 {
        self.done
    }

    /// Whether every stage has been folded.
    pub fn is_complete(&self) -> bool {
        self.done == self.n_stages && self.pending_from.is_none()
    }

    /// The partner a posted stage is waiting on, if any — the rank to
    /// attribute a receive failure (timeout, hangup) to.
    pub fn pending_partner(&self) -> Option<usize> {
        self.pending_from
    }

    /// Drain the heartbeat observations skipped while waiting for stage
    /// frames, for the caller's liveness monitor.
    pub fn take_beats(&mut self) -> Vec<(usize, u64)> {
        std::mem::take(&mut self.beats)
    }

    /// (send-to, receive-from) partners of stage `k`.  Butterfly pairs
    /// are symmetric (`me XOR 2^k`); dissemination sends ahead and
    /// receives from behind.
    fn partners(&self, k: u32) -> (usize, usize) {
        let dist = 1usize << k;
        match self.algo {
            BarrierAlgo::Butterfly => {
                let partner = self.rank ^ dist;
                (partner, partner)
            }
            _ => (
                (self.rank + dist) % self.p,
                (self.rank + self.p - dist) % self.p,
            ),
        }
    }

    /// Send the current stage's frame (everything accumulated so far,
    /// coalesced into one message) without waiting for the partner's.
    /// `pad` is the synthetic extra wire volume the virtual link charges
    /// for this stage (models j-payload size without allocating it).
    ///
    /// The accumulated records move into the frame and back, sent or not:
    /// a stage copies no record.
    pub fn post_stage<T: Transport>(&mut self, tr: &mut T, pad: u64) -> Result<(), TransportError> {
        assert!(self.pending_from.is_none(), "stage already posted");
        assert!(self.done < self.n_stages, "wave already complete");
        let (to, from) = self.partners(self.done);
        let frame = Frame::Stage {
            gen: self.gen,
            step: self.step,
            stage: self.done,
            t_min: self.t_min,
            ckpt: self.ckpt,
            records: std::mem::take(&mut self.acc),
            pad,
        };
        self.messages += 1;
        self.records += frame.logical_records();
        self.bytes += frame.wire_len() as u64;
        let sent = tr.send_frame(to, &frame);
        if let Frame::Stage { records, .. } = frame {
            self.acc = records;
        }
        sent?;
        self.pending_from = Some(from);
        Ok(())
    }

    /// Receive and fold the posted stage's frame.
    ///
    /// Three frame kinds can legitimately arrive ahead of the expected
    /// stage: heartbeats (liveness only — recorded for
    /// [`Self::take_beats`] and skipped), stage frames from an *older*
    /// recovery generation (stale in-flight leftovers of a rewound wave
    /// — discarded), and [`Frame::Recover`] (a peer pre-empted the
    /// collective — surfaced as [`TransportError::Interrupted`] so the
    /// cluster layer joins the recovery round).
    pub fn finish_stage<T: Transport>(&mut self, tr: &mut T) -> Result<(), TransportError> {
        let from = self.pending_from.expect("no stage posted");
        loop {
            let frame = tr.recv_frame(from)?;
            let (gen, step, stage, t_min, ckpt, records) = match frame {
                Frame::Heartbeat { epoch, .. } => {
                    self.beats.push((from, epoch));
                    continue;
                }
                f @ Frame::Recover { .. } => {
                    return Err(TransportError::Interrupted {
                        from,
                        frame: Box::new(f),
                    });
                }
                Frame::Stage {
                    gen,
                    step,
                    stage,
                    t_min,
                    ckpt,
                    records,
                    ..
                } => (gen, step, stage, t_min, ckpt, records),
                Frame::Data { .. } => {
                    return Err(TransportError::Protocol("data frame where a stage was due"));
                }
            };
            if gen < self.gen {
                // A stale frame from before the last recovery rewind.
                continue;
            }
            if gen > self.gen {
                return Err(TransportError::Protocol(
                    "stage frame from a future recovery generation",
                ));
            }
            if step != self.step {
                return Err(TransportError::Protocol(
                    "stage frame from a different blockstep",
                ));
            }
            if stage != self.done {
                return Err(TransportError::Protocol("stage frame out of order"));
            }
            self.t_min = self.t_min.min(t_min);
            self.ckpt = self.ckpt.min(ckpt);
            fold_records(&mut self.acc, records);
            self.pending_from = None;
            self.done += 1;
            return Ok(());
        }
    }

    /// Run stages `[stages_done, until)` to completion (post + finish
    /// each).  `pads[k]` is the synthetic pad for absolute stage `k`
    /// (missing entries are 0).
    pub fn run_stages<T: Transport>(
        &mut self,
        tr: &mut T,
        until: u32,
        pads: &[u64],
    ) -> Result<(), TransportError> {
        while self.done < until.min(self.n_stages) {
            let pad = pads.get(self.done as usize).copied().unwrap_or(0);
            self.post_stage(tr, pad)?;
            self.finish_stage(tr)?;
        }
        Ok(())
    }

    /// Fold result.  Panics if the wave is incomplete — completing it is
    /// the caller's schedule's job.
    pub fn outcome(self) -> WaveOutcome {
        assert!(self.is_complete(), "wave has unfinished stages");
        WaveOutcome {
            t_min: self.t_min,
            ckpt_min: self.ckpt,
            algo: self.algo,
            merged: self.acc,
            messages: self.messages,
            records: self.records,
            bytes: self.bytes,
        }
    }
}

/// Fold `incoming` into `acc` (ascending, one record per index), as
/// inserting each into a map keyed by index would: on a shared index the
/// incoming record wins, and the later of two incoming ones.  A peer's
/// stage frame arrives ascending, so this is one linear merge into one
/// allocation.
fn fold_records(acc: &mut Vec<JRecord>, mut incoming: Vec<JRecord>) {
    if incoming.is_empty() {
        return;
    }
    if !incoming.is_sorted_by_key(|r| r.index) {
        // Stable: equal indices keep their arrival order.
        incoming.sort_by_key(|r| r.index);
    }
    let mut out = Vec::with_capacity(acc.len() + incoming.len());
    let mut mine = std::mem::take(acc).into_iter().peekable();
    for r in incoming {
        while let Some(m) = mine.next_if(|m| m.index < r.index) {
            out.push(m);
        }
        // Our copy of this index, if any, gives way to the incoming one.
        mine.next_if(|m| m.index == r.index);
        match out.last_mut() {
            Some(last) if last.index == r.index => *last = r,
            _ => out.push(r),
        }
    }
    out.extend(mine);
    *acc = out;
}

/// The whole wave, sequentially: post + finish every stage back to back.
/// This is the *coalesced* schedule (one collective instead of three);
/// the overlapped schedule drives [`Wave`] directly to hide stage 0
/// behind compute.
pub fn coalesced_wave<T: Transport>(
    tr: &mut T,
    step: u64,
    t_min: f64,
    records: Vec<JRecord>,
    pads: &[u64],
) -> Result<WaveOutcome, TransportError> {
    let mut w = Wave::new(tr.rank(), tr.n_ranks(), step, t_min, records);
    let n = w.n_stages();
    w.run_stages(tr, n, pads)?;
    Ok(w.outcome())
}

/// Point-to-point records: one [`Frame::Data`] to `to` carrying
/// `records` in the wave's record layout ([`JRecord::encode_seq`]).
pub fn send_records<T: Transport>(
    tr: &mut T,
    to: usize,
    records: &[JRecord],
) -> Result<(), TransportError> {
    tr.send_frame(to, &Frame::Data(JRecord::encode_seq(records)))
}

/// Receive what [`send_records`] sent from `from`; any other frame, or
/// a payload that is not a record sequence, is a protocol error.
pub fn recv_records<T: Transport>(tr: &mut T, from: usize) -> Result<Vec<JRecord>, TransportError> {
    match tr.recv_frame(from)? {
        Frame::Data(bytes) => Ok(JRecord::decode_seq(&bytes)?),
        _ => Err(TransportError::Protocol("record frame expected")),
    }
}

/// Central-coordinator barrier over any [`Transport`]: every rank reports
/// to rank 0 with a stage-0 frame, and rank 0 releases everyone with a
/// stage-1 frame once all p − 1 reports are in — 2(p − 1) serialised
/// frames at the coordinator.  This is the shape of MPICH/p4's barrier,
/// which the paper found "about two times" slower than its hand-rolled
/// butterfly (§4.4); it is kept as the comparator for the empty [`Wave`],
/// frame against frame on the same backend.  The outcome is tagged
/// [`BarrierAlgo::Central`] and counts the frames this rank sent.
pub fn central_barrier<T: Transport>(tr: &mut T, step: u64) -> Result<WaveOutcome, TransportError> {
    let mut out = WaveOutcome {
        t_min: 0.0,
        ckpt_min: 0,
        algo: BarrierAlgo::Central,
        merged: Vec::new(),
        messages: 0,
        records: 0,
        bytes: 0,
    };
    let mut send = |tr: &mut T, to: usize, stage: u32| {
        let frame = Frame::Stage {
            gen: 0,
            step,
            stage,
            t_min: 0.0,
            ckpt: 0,
            records: Vec::new(),
            pad: 0,
        };
        out.messages += 1;
        out.records += frame.logical_records();
        out.bytes += frame.wire_len() as u64;
        tr.send_frame(to, &frame)
    };
    let recv = |tr: &mut T, from: usize, stage: u32| match tr.recv_frame(from)? {
        Frame::Stage {
            step: s, stage: k, ..
        } if s == step && k == stage => Ok(()),
        _ => Err(TransportError::Protocol(
            "central barrier: unexpected frame",
        )),
    };
    let p = tr.n_ranks();
    if tr.rank() == 0 {
        for from in 1..p {
            recv(tr, from, 0)?;
        }
        for to in 1..p {
            send(tr, to, 1)?;
        }
    } else {
        send(tr, 0, 0)?;
        recv(tr, 0, 1)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::run_ranks;
    use crate::link::LinkProfile;
    use crate::transport::VirtualTransport;

    /// Wire bytes of an empty stage frame (the encoded header, no pad).
    const EMPTY_STAGE_BYTES: u64 = 52;

    /// A barrier is an empty wave.
    fn barrier<T: Transport>(tr: &mut T) -> WaveOutcome {
        coalesced_wave(tr, 0, 0.0, Vec::new(), &[]).expect("lossless fabric")
    }

    /// Slowest clock across ranks.
    fn slowest(clocks: &[f64]) -> f64 {
        clocks.iter().cloned().fold(0.0, f64::max)
    }

    /// Spread of the clocks across ranks.
    fn spread(clocks: &[f64]) -> f64 {
        slowest(clocks) - clocks.iter().cloned().fold(f64::INFINITY, f64::min)
    }

    fn rec(index: u64, word: f64) -> JRecord {
        JRecord {
            index,
            words: vec![word.to_bits()],
        }
    }

    #[test]
    fn wave_computes_allreduce_min_and_merges_records_any_p() {
        for p in [1usize, 2, 3, 4, 6, 8, 16] {
            let out =
                run_ranks::<Vec<u8>, WaveOutcome, _>(p, LinkProfile::ideal(), move |mut ep| {
                    let r = ep.rank();
                    let mut tr = VirtualTransport::new(&mut ep);
                    coalesced_wave(
                        &mut tr,
                        42,
                        (r as f64 + 1.0) * 0.125,
                        vec![rec(r as u64, r as f64)],
                        &[],
                    )
                    .unwrap()
                });
            let want_algo = if p.is_power_of_two() {
                BarrierAlgo::Butterfly
            } else {
                BarrierAlgo::Dissemination
            };
            for (r, o) in out.iter().enumerate() {
                assert_eq!(o.t_min, 0.125, "p={p} rank {r}");
                assert_eq!(o.algo, want_algo, "p={p} rank {r}");
                // Every rank ends with every rank's record, index-sorted.
                let want: Vec<JRecord> = (0..p as u64).map(|i| rec(i, i as f64)).collect();
                assert_eq!(o.merged, want, "p={p} rank {r}");
                if p > 1 {
                    // One frame per stage, nothing more.
                    assert_eq!(o.messages, u64::from((p - 1).ilog2() + 1), "p={p}");
                }
            }
        }
    }

    #[test]
    fn one_wave_sends_fewer_messages_than_three_collectives() {
        // 4 ranks: the wave is 2 frames/rank; the sequential schedule's
        // commit barrier (2) + allreduce ring (3) + post barrier (2) is 7.
        let out = run_ranks::<Vec<u8>, WaveOutcome, _>(4, LinkProfile::ideal(), |mut ep| {
            let r = ep.rank();
            let mut tr = VirtualTransport::new(&mut ep);
            coalesced_wave(&mut tr, 0, r as f64, vec![rec(r as u64, 0.0)], &[]).unwrap()
        });
        for o in &out {
            assert_eq!(o.messages, 2);
            // Coalescing factor > 1: each frame carries sentinel + min +
            // accumulated j-records.
            assert!(o.records > o.messages, "{o:?}");
        }
    }

    #[test]
    fn split_phase_wave_is_bitwise_identical_to_sequential() {
        let link = LinkProfile {
            latency: 1e-4,
            bandwidth: 1e8,
            overhead: 1e-5,
        };
        let run = |overlap: bool| {
            run_ranks::<Vec<u8>, (WaveOutcome, f64), _>(8, link, move |mut ep| {
                let r = ep.rank();
                let t_mine = 1.0 / (r as f64 + 2.0);
                let recs = vec![rec(r as u64, t_mine)];
                let out = if overlap {
                    let mut w = Wave::new(r, 8, 7, t_mine, recs);
                    {
                        let mut tr = VirtualTransport::new(&mut ep);
                        w.post_stage(&mut tr, 64).unwrap();
                    }
                    // "Compute" while stage 0 is in flight.
                    ep.advance(5e-3);
                    let mut tr = VirtualTransport::new(&mut ep);
                    w.finish_stage(&mut tr).unwrap();
                    w.run_stages(&mut tr, 3, &[64, 64, 64]).unwrap();
                    w.outcome()
                } else {
                    let mut w = Wave::new(r, 8, 7, t_mine, recs);
                    w.run_stages(&mut VirtualTransport::new(&mut ep), 3, &[64, 64, 64])
                        .unwrap();
                    let o = w.outcome();
                    ep.advance(5e-3);
                    o
                };
                (out, ep.clock())
            })
        };
        let seq = run(false);
        let ovl = run(true);
        for (r, (s, o)) in seq.iter().zip(&ovl).enumerate() {
            // Identical folded state, bit for bit.
            assert_eq!(s.0, o.0, "rank {r}");
            // The overlapped schedule hid stage-0 latency behind the
            // compute: its clock is strictly earlier.
            assert!(o.1 < s.1, "rank {r}: {} !< {}", o.1, s.1);
        }
    }

    #[test]
    fn wave_counters_account_pads_and_coalescing() {
        let out = run_ranks::<Vec<u8>, WaveOutcome, _>(2, LinkProfile::ideal(), |mut ep| {
            let r = ep.rank();
            let mut tr = VirtualTransport::new(&mut ep);
            coalesced_wave(&mut tr, 1, 0.5, vec![rec(r as u64, 0.0)], &[1000]).unwrap()
        });
        for o in &out {
            assert_eq!(o.messages, 1);
            assert_eq!(o.records, 3); // sentinel + min + 1 j-record
            assert!(o.bytes > 1000, "pad must be charged: {o:?}");
        }
    }

    #[test]
    fn lossy_fabric_waves_are_bitwise_identical_to_lossless() {
        use crate::fabric::run_ranks_faulty;
        use grape6_fault::NetFaultPlan;
        // 40% drop with a generous retry budget: every message eventually
        // arrives, so both the back-to-back and the split-phase schedule
        // must fold the exact bits of the lossless run — retransmission
        // changes when a frame lands, never what it says.
        let link = LinkProfile {
            latency: 50.0e-6,
            bandwidth: 1.0e8,
            overhead: 10.0e-6,
        };
        let p = 8;
        let chain = move |ep: &mut crate::fabric::Endpoint<Vec<u8>>, split: bool| {
            let r = ep.rank();
            let mut outs = Vec::new();
            let mut t_seed = 0.5f64;
            for step in 0..4u64 {
                let t_mine = t_seed * (1.0 + r as f64 * 0.125);
                let recs = vec![rec(r as u64 * 8 + step, t_mine)];
                let mut tr = VirtualTransport::new(ep);
                let out = if split {
                    let mut w = Wave::new(r, p, step, t_mine, recs);
                    w.post_stage(&mut tr, 64)?;
                    w.finish_stage(&mut tr)?;
                    let n = w.n_stages();
                    w.run_stages(&mut tr, n, &[64; 8])?;
                    w.outcome()
                } else {
                    coalesced_wave(&mut tr, step, t_mine, recs, &[64; 8])?
                };
                t_seed = out.t_min * 0.75 + 1e-3;
                outs.push(out);
            }
            Ok::<_, TransportError>(outs)
        };
        let run = |plan: NetFaultPlan, split: bool| {
            run_ranks_faulty::<Vec<u8>, (Vec<WaveOutcome>, u64), _>(p, link, plan, move |mut ep| {
                let outs = chain(&mut ep, split).expect("recoverable loss");
                let retransmits = ep.stats().retransmits;
                (outs, retransmits)
            })
        };
        let lossy = NetFaultPlan::lossy(5, 400, 32, 1e-4);
        let clean = run(NetFaultPlan::none(), false);
        let lossy_seq = run(lossy, false);
        let lossy_split = run(lossy, true);
        assert!(
            lossy_seq.iter().map(|(_, r)| r).sum::<u64>() > 0,
            "a 40%-lossy fabric must retransmit"
        );
        for (r, ((c, _), ((ls, _), (lo, _)))) in clean
            .iter()
            .zip(lossy_seq.iter().zip(&lossy_split))
            .enumerate()
        {
            assert_eq!(c, ls, "rank {r}: lossy sequential diverged");
            assert_eq!(c, lo, "rank {r}: lossy split-phase diverged");
        }
    }

    #[test]
    fn exhausted_retry_budget_fails_the_wave_with_a_typed_lost_error() {
        use crate::fabric::run_ranks_faulty;
        use grape6_fault::NetFaultPlan;
        // 100% drop, 2-attempt budget: stage 0 times out on both ranks.
        let plan = NetFaultPlan::lossy(9, 1000, 2, 1e-4);
        let errs = run_ranks_faulty::<Vec<u8>, TransportError, _>(
            2,
            LinkProfile::ideal(),
            plan,
            |mut ep| {
                let mut tr = VirtualTransport::new(&mut ep);
                coalesced_wave(&mut tr, 0, 0.5, vec![], &[]).unwrap_err()
            },
        );
        for (r, e) in errs.iter().enumerate() {
            match e {
                TransportError::Lost(le) => {
                    assert_eq!(le.to, r);
                    assert_eq!(le.attempts, 2);
                }
                other => panic!("rank {r}: expected Lost, got {other:?}"),
            }
        }
    }

    #[test]
    fn mid_wave_rank_death_surfaces_as_typed_down_errors() {
        // Rank 3 completes stage 0 of the 4-rank butterfly, then dies.
        // Its stage-0 partner (rank 2) already holds its records, so the
        // fold keeps flowing through the survivors on the 0↔2 edge; only
        // rank 1, whose stage-1 partner is the corpse, observes the death
        // — as a typed Down, never a panic.
        let out = run_ranks::<Vec<u8>, Result<WaveOutcome, TransportError>, _>(
            4,
            LinkProfile::ideal(),
            |mut ep| {
                let r = ep.rank();
                let mut tr = VirtualTransport::new(&mut ep);
                let mut w = Wave::new(r, 4, 0, (r as f64 + 1.0) * 0.125, vec![rec(r as u64, 0.0)]);
                w.post_stage(&mut tr, 0)?;
                w.finish_stage(&mut tr)?;
                if r == 3 {
                    return Err(TransportError::Down { from: 3, to: 3 }); // dies here
                }
                w.run_stages(&mut tr, 2, &[])?;
                Ok(w.outcome())
            },
        );
        for r in [0usize, 2] {
            let o = out[r].as_ref().expect("survivor on the live edge");
            // Global fold still complete: rank 3's input crossed the 2↔3
            // edge in stage 0 and the 0↔2 edge in stage 1.
            assert_eq!(o.t_min, 0.125, "rank {r}");
            assert_eq!(o.merged.len(), 4, "rank {r}");
        }
        assert_eq!(
            out[1],
            Err(TransportError::Down { from: 3, to: 1 }),
            "rank 1's stage-1 partner died"
        );
    }

    #[test]
    fn wave_folds_ckpt_epoch_min_and_skips_heartbeats_and_stale_generations() {
        use crate::wire::Frame;
        let out = run_ranks::<Vec<u8>, (WaveOutcome, Vec<(usize, u64)>), _>(
            2,
            LinkProfile::ideal(),
            |mut ep| {
                let r = ep.rank();
                let mut tr = VirtualTransport::new(&mut ep);
                // Rank 0 front-runs its stage frame with a heartbeat and
                // a stale generation-0 leftover; rank 1 must skip both.
                if r == 0 {
                    tr.send_frame(1, &Frame::Heartbeat { gen: 1, epoch: 41 })
                        .expect("send");
                    tr.send_frame(
                        1,
                        &Frame::Stage {
                            gen: 0,
                            step: 7,
                            stage: 0,
                            t_min: 0.001, // would corrupt the fold if not discarded
                            ckpt: 0,
                            records: vec![],
                            pad: 0,
                        },
                    )
                    .expect("send");
                }
                let ckpt = if r == 0 { 12 } else { 9 };
                let mut w = Wave::with_meta(r, 2, 1, 7, (r as f64 + 1.0) * 0.25, ckpt, vec![]);
                w.post_stage(&mut tr, 0).expect("post");
                w.finish_stage(&mut tr).expect("finish");
                let beats = w.take_beats();
                (w.outcome(), beats)
            },
        );
        for (r, (o, _)) in out.iter().enumerate() {
            // The stale frame's 0.001 must not have leaked into the fold.
            assert_eq!(o.t_min, 0.25, "rank {r}");
            // Checkpoint epoch folds to the *oldest* capture: min(12, 9).
            assert_eq!(o.ckpt_min, 9, "rank {r}");
        }
        assert_eq!(out[1].1, vec![(0, 41)], "rank 1 observed rank 0's beat");
        assert!(out[0].1.is_empty());
    }

    #[test]
    fn recover_frame_interrupts_the_wave_with_the_carried_frame() {
        use crate::wire::Frame;
        let recover = Frame::Recover {
            gen: 1,
            round: 1,
            dead: vec![3],
            ckpt: 5,
        };
        let rec2 = recover.clone();
        let out = run_ranks::<Vec<u8>, Option<TransportError>, _>(
            2,
            LinkProfile::ideal(),
            move |mut ep| {
                let r = ep.rank();
                let mut tr = VirtualTransport::new(&mut ep);
                if r == 0 {
                    tr.send_frame(1, &rec2).expect("send");
                    None
                } else {
                    let mut w = Wave::new(1, 2, 0, 0.5, vec![]);
                    w.post_stage(&mut tr, 0).expect("post");
                    Some(w.finish_stage(&mut tr).expect_err("must interrupt"))
                }
            },
        );
        assert_eq!(
            out[1],
            Some(TransportError::Interrupted {
                from: 0,
                frame: Box::new(recover)
            })
        );
    }

    #[test]
    fn mixed_step_waves_are_a_protocol_error() {
        let errs =
            run_ranks::<Vec<u8>, Option<TransportError>, _>(2, LinkProfile::ideal(), |mut ep| {
                let r = ep.rank();
                let step = if r == 0 { 1 } else { 2 }; // skewed fabric
                let mut tr = VirtualTransport::new(&mut ep);
                coalesced_wave(&mut tr, step, 0.0, vec![], &[]).err()
            });
        for e in errs.iter() {
            assert_eq!(
                *e,
                Some(TransportError::Protocol(
                    "stage frame from a different blockstep"
                ))
            );
        }
    }

    #[test]
    fn point_to_point_records_arrive_bitwise_and_refuse_other_frames() {
        let sent = vec![rec(9, -0.0), rec(3, f64::MAX)];
        let out = run_ranks::<Vec<u8>, _, _>(2, LinkProfile::ideal(), |mut ep| {
            let mut tr = VirtualTransport::new(&mut ep);
            if tr.rank() == 0 {
                send_records(&mut tr, 1, &sent).unwrap();
                let beat = Frame::Heartbeat { gen: 0, epoch: 1 };
                tr.send_frame(1, &beat).unwrap();
                None
            } else {
                let got = recv_records(&mut tr, 0);
                // The peer's next frame is a heartbeat, not records.
                Some((got, recv_records(&mut tr, 0)))
            }
        });
        let (got, beat) = out.into_iter().nth(1).flatten().unwrap();
        assert_eq!(got, Ok(sent));
        assert_eq!(beat, Err(TransportError::Protocol("record frame expected")));
    }

    #[test]
    fn empty_wave_synchronises_clocks_at_logarithmic_cost() {
        let link = LinkProfile {
            latency: 50.0e-6,
            bandwidth: 1.0e8,
            overhead: 10.0e-6,
        };
        for p in [2usize, 3, 4, 7, 8, 16] {
            let out = run_ranks::<Vec<u8>, (WaveOutcome, f64), _>(p, link, |mut ep| {
                // Rank r pretends to compute r milliseconds.
                ep.advance(ep.rank() as f64 * 1e-3);
                let o = barrier(&mut VirtualTransport::new(&mut ep));
                (o, ep.clock())
            });
            let entry = (p - 1) as f64 * 1e-3;
            let stages = (p - 1).ilog2() + 1;
            let budget = entry + 10.0 * f64::from(stages) * (link.latency + link.overhead);
            for (r, (o, c)) in out.iter().enumerate() {
                assert!(
                    *c >= entry,
                    "p={p} rank {r}: clock {c} below the slowest entry"
                );
                assert!(
                    *c <= budget,
                    "p={p} rank {r}: clock {c} over budget {budget}"
                );
                // One empty frame per stage, nothing more.
                assert_eq!(o.messages, u64::from(stages), "p={p} rank {r}");
                assert_eq!(o.bytes, o.messages * EMPTY_STAGE_BYTES, "p={p} rank {r}");
            }
        }
    }

    #[test]
    fn butterfly_wave_aligns_clocks_for_power_of_two() {
        let link = LinkProfile {
            latency: 50.0e-6,
            bandwidth: 1.0e8,
            overhead: 10.0e-6,
        };
        let run = |p: usize, skew: f64| {
            run_ranks::<Vec<u8>, (BarrierAlgo, f64), _>(p, link, move |mut ep| {
                ep.advance(ep.rank() as f64 * skew);
                let o = barrier(&mut VirtualTransport::new(&mut ep));
                (o.algo, ep.clock())
            })
        };
        for p in [2usize, 4, 8, 16] {
            // Aligned entries leave exactly aligned: the two sides of every
            // pair exchange frames and leave the stage at the same time.
            let out = run(p, 0.0);
            let clocks: Vec<f64> = out.iter().map(|o| o.1).collect();
            assert!(out.iter().all(|o| o.0 == BarrierAlgo::Butterfly), "p={p}");
            assert!(
                spread(&clocks) < 1e-12,
                "p={p}: exits spread {}",
                spread(&clocks)
            );
            // Entries skewed by less than a link round leave with no more
            // spread than they came in with (the pairwise exchange permutes
            // the skew instead of chaining it).
            let skew = 1e-6 / p as f64;
            let clocks: Vec<f64> = run(p, skew).iter().map(|o| o.1).collect();
            assert!(
                spread(&clocks) <= 1e-6 + 1e-12,
                "p={p}: butterfly grew the entry spread to {} s",
                spread(&clocks)
            );
        }
        // A non-power-of-two p falls back to dissemination, still
        // synchronises, and reports the fallback.
        for (algo, c) in run(6, 1e-6) {
            assert_eq!(algo, BarrierAlgo::Dissemination);
            assert!(c >= 5e-6);
        }
    }

    #[test]
    fn empty_wave_cost_scales_logarithmically() {
        let link = LinkProfile {
            latency: 100.0e-6,
            bandwidth: f64::INFINITY,
            overhead: 0.0,
        };
        let cost = |p: usize| {
            slowest(&run_ranks::<Vec<u8>, f64, _>(p, link, |mut ep| {
                barrier(&mut VirtualTransport::new(&mut ep));
                ep.clock()
            }))
        };
        let (c2, c16) = (cost(2), cost(16));
        assert!(c2 > 0.0);
        // 16 ranks: 4 stages vs 1 — ratio ≈ 4, certainly < 8.
        assert!(c16 / c2 > 2.0 && c16 / c2 < 8.0, "ratio {}", c16 / c2);
    }

    #[test]
    fn central_barrier_synchronises_but_costs_linear() {
        // A realistic link: the per-message CPU overhead is what makes the
        // coordinator serialise (with a zero-overhead link a 2-hop central
        // barrier would actually win — the butterfly exists precisely
        // because messages cost CPU).
        let link = LinkProfile {
            latency: 100.0e-6,
            bandwidth: 60.0e6,
            overhead: 20.0e-6,
        };
        let p = 16;
        let run = |central: bool| {
            run_ranks::<Vec<u8>, (WaveOutcome, f64), _>(p, link, move |mut ep| {
                ep.advance(ep.rank() as f64 * 1e-6);
                let mut tr = VirtualTransport::new(&mut ep);
                let o = if central {
                    central_barrier(&mut tr, 0).expect("lossless fabric")
                } else {
                    barrier(&mut tr)
                };
                (o, ep.clock())
            })
        };
        let central = run(true);
        for (r, (o, c)) in central.iter().enumerate() {
            assert_eq!(o.algo, BarrierAlgo::Central);
            assert!(
                *c >= (p - 1) as f64 * 1e-6,
                "rank {r} left before the last entry"
            );
            // The root releases p − 1 ranks; everyone else reports once.
            let want = if r == 0 { p as u64 - 1 } else { 1 };
            assert_eq!(o.messages, want, "rank {r}");
        }
        let clocks = |out: &[(WaveOutcome, f64)]| out.iter().map(|o| o.1).collect::<Vec<_>>();
        let c_central = slowest(&clocks(&central));
        let c_butterfly = slowest(&clocks(&run(false)));
        assert!(
            c_central > 1.4 * c_butterfly,
            "central {c_central} vs butterfly {c_butterfly}"
        );
    }

    /// A two-rank transport whose sends keep a copy of each frame, or
    /// fail without sending anything.
    struct Sink {
        sent: Vec<Frame>,
        fail: bool,
    }

    impl Transport for Sink {
        fn rank(&self) -> usize {
            0
        }
        fn n_ranks(&self) -> usize {
            2
        }
        fn send_frame(&mut self, _to: usize, frame: &Frame) -> Result<(), TransportError> {
            if self.fail {
                return Err(TransportError::Protocol("send refused"));
            }
            self.sent.push(frame.clone());
            Ok(())
        }
        fn recv_frame(&mut self, _from: usize) -> Result<Frame, TransportError> {
            Err(TransportError::Protocol("nothing to receive"))
        }
    }

    #[test]
    fn post_stage_moves_the_records_into_the_frame_and_back() {
        let records: Vec<JRecord> = [9u64, 2, 5].map(|i| rec(i, i as f64)).into();
        let mut sorted = records.clone();
        sorted.sort_by_key(|r| r.index);
        let frame = Frame::Stage {
            gen: 0,
            step: 3,
            stage: 0,
            t_min: 0.25,
            ckpt: 0,
            records: sorted.clone(),
            pad: 100,
        };
        let counters = (1, frame.logical_records(), frame.wire_len() as u64);
        for fail in [false, true] {
            let mut tr = Sink {
                sent: Vec::new(),
                fail,
            };
            let mut w = Wave::new(0, 2, 3, 0.25, records.clone());
            let sent = w.post_stage(&mut tr, 100);
            // The records are back before the result is seen, and the
            // counters read what a cloned frame would have left.
            assert_eq!(w.acc, sorted, "fail={fail}");
            assert_eq!((w.messages, w.records, w.bytes), counters, "fail={fail}");
            if fail {
                assert!(matches!(
                    sent,
                    Err(TransportError::Protocol("send refused"))
                ));
                assert_eq!(w.pending_partner(), None);
                assert!(tr.sent.is_empty());
            } else {
                assert!(sent.is_ok());
                assert_eq!(w.pending_partner(), Some(1));
                assert_eq!(tr.sent, vec![frame.clone()]);
            }
        }
    }

    #[test]
    fn folding_records_is_a_map_insert_by_index() {
        use std::collections::BTreeMap;
        let cases: [(&[u64], &[u64]); 6] = [
            (&[], &[3, 1, 2]),
            (&[1, 4, 7], &[]),
            (&[1, 4, 7], &[0, 4, 8]),
            (&[1, 4, 7], &[9, 4, 0, 4]),
            (&[2, 3], &[0, 1]),
            (&[0, 1], &[2, 3, 3]),
        ];
        for (mine, theirs) in cases {
            // The word tells the copies of one index apart.
            let mine: Vec<JRecord> = mine.iter().map(|&i| rec(i, 0.5)).collect();
            let theirs: Vec<JRecord> = theirs
                .iter()
                .enumerate()
                .map(|(k, &i)| rec(i, k as f64))
                .collect();
            let mut map: BTreeMap<u64, JRecord> =
                mine.iter().map(|r| (r.index, r.clone())).collect();
            for r in &theirs {
                map.insert(r.index, r.clone());
            }
            let mut acc = mine.clone();
            fold_records(&mut acc, theirs.clone());
            assert_eq!(
                acc,
                map.into_values().collect::<Vec<_>>(),
                "{mine:?} + {theirs:?}"
            );
        }
    }

    /// A transport that logs the peer of every frame it moves, so two
    /// backends can be compared hop by hop.
    struct Logged<T> {
        inner: T,
        /// `(sent, peer)`: `true` for a send to `peer`, `false` for a
        /// receive from it.
        hops: Vec<(bool, usize)>,
    }

    impl<T: Transport> Transport for Logged<T> {
        fn rank(&self) -> usize {
            self.inner.rank()
        }
        fn n_ranks(&self) -> usize {
            self.inner.n_ranks()
        }
        fn send_frame(&mut self, to: usize, frame: &Frame) -> Result<(), TransportError> {
            self.hops.push((true, to));
            self.inner.send_frame(to, frame)
        }
        fn recv_frame(&mut self, from: usize) -> Result<Frame, TransportError> {
            self.hops.push((false, from));
            self.inner.recv_frame(from)
        }
    }

    /// An empty wave then a central barrier: both outcomes and every hop.
    type BarrierTrace = (WaveOutcome, WaveOutcome, Vec<(bool, usize)>);

    fn both_barriers<T: Transport>(inner: T) -> BarrierTrace {
        let mut tr = Logged {
            inner,
            hops: Vec::new(),
        };
        let wave = barrier(&mut tr);
        let central = central_barrier(&mut tr, 1).expect("central barrier");
        (wave, central, tr.hops)
    }

    #[test]
    fn barriers_send_the_same_frames_over_uds_as_over_the_virtual_fabric() {
        use crate::transport::{StreamKind, StreamTransport};
        let p = 4;
        let virt = run_ranks::<Vec<u8>, BarrierTrace, _>(p, LinkProfile::ideal(), |mut ep| {
            both_barriers(VirtualTransport::new(&mut ep))
        });
        let dir = std::env::temp_dir().join(format!("g6-barrier-uds-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let uds: Vec<BarrierTrace> = (0..p)
            .map(|r| {
                let dir = dir.clone();
                std::thread::spawn(move || {
                    let tr =
                        StreamTransport::connect(r, p, &dir, StreamKind::Uds).expect("rendezvous");
                    both_barriers(tr)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(uds, virt, "same code, same traffic, any backend");
        for (r, (wave, central, _)) in virt.iter().enumerate() {
            assert_eq!(
                (wave.algo, wave.messages),
                (BarrierAlgo::Butterfly, 2),
                "rank {r}"
            );
            assert_eq!(central.algo, BarrierAlgo::Central, "rank {r}");
        }
    }
}
