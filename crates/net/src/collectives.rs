//! Collective operations over the fabric.
//!
//! The paper's parallel codes need exactly four collectives, and §4.4
//! documents the implementation choice this module mirrors: "synchronization
//! is done through butterfly message exchange using TCP/IP, which is about
//! two times faster than the use of MPI_barrier provided by MPICH/p4" — so
//! the barriers here are the dissemination pattern ([`barrier`], any `p`)
//! and the true pairwise butterfly ([`butterfly_barrier`], power-of-two
//! `p`), both ⌈log₂p⌉ rounds, not a central coordinator.
//!
//! All collectives are built from [`Endpoint::send_lossy`] /
//! [`Endpoint::recv_checked`], so their virtual-time cost emerges from the
//! message flow rather than a formula — the analytic model in
//! `grape6-model` is validated against these.  Every failure is a typed
//! [`CollectiveError`]: a link whose retry budget runs out surfaces as
//! [`CollectiveError::Link`], a peer that died mid-collective as
//! [`CollectiveError::Down`], and a malformed call (missing broadcast
//! payload, empty reduction) as its own variant — nothing on the message
//! path panics.  On a lossless fabric with live peers the collectives are
//! infallible and callers may `expect` accordingly.
//!
//! Barriers return the [`BarrierAlgo`] that *actually ran*:
//! [`butterfly_barrier`] falls back to the dissemination pattern for
//! non-power-of-two `p`, and the §4 model validation charges the butterfly
//! stage cost, so a silent substitution would corrupt the sync-term
//! comparison.  [`CollectiveCost::algo`] and the Sync span counters carry
//! the same tag (see [`traced_sync`]).

use grape6_trace::{BarrierAlgo, Phase, Span, SpanCounters};

use crate::fabric::{Endpoint, LinkError, RecvError};

/// A collective operation failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollectiveError {
    /// A point-to-point link under the collective exhausted its retry
    /// budget.
    Link(LinkError),
    /// A peer dropped its endpoint (rank died) mid-collective.
    Down {
        /// The departed peer.
        from: usize,
        /// The rank that observed the departure.
        to: usize,
    },
    /// [`broadcast`] was called with `mine = None` on the root rank.
    MissingRootPayload {
        /// The broadcast root.
        root: usize,
        /// The rank that noticed (always the root itself).
        rank: usize,
    },
    /// The broadcast doubling front never delivered a payload to this
    /// rank — a topology bug surfaced as data instead of a panic.
    MissingPayload {
        /// The rank left without a value.
        rank: usize,
    },
    /// A reduction had no contributions to fold.
    EmptyReduce {
        /// The rank whose fold came up empty.
        rank: usize,
    },
}

impl std::fmt::Display for CollectiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Link(e) => write!(f, "collective failed: {e}"),
            Self::Down { from, to } => {
                write!(f, "collective failed: rank {from} down (observed by {to})")
            }
            Self::MissingRootPayload { root, rank } => {
                write!(f, "broadcast root {root} (rank {rank}) supplied no payload")
            }
            Self::MissingPayload { rank } => {
                write!(f, "broadcast never reached rank {rank}")
            }
            Self::EmptyReduce { rank } => {
                write!(f, "reduction at rank {rank} had nothing to fold")
            }
        }
    }
}

impl std::error::Error for CollectiveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Link(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinkError> for CollectiveError {
    fn from(e: LinkError) -> Self {
        Self::Link(e)
    }
}

impl From<RecvError> for CollectiveError {
    fn from(e: RecvError) -> Self {
        match e {
            RecvError::Lost(le) => Self::Link(le),
            RecvError::Down { from, to } => Self::Down { from, to },
        }
    }
}

/// What one collective operation cost this rank, measured from the
/// endpoint's clock and counters rather than a formula — so retransmits
/// and backoff on a faulty fabric show up here automatically.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CollectiveCost {
    /// Virtual time the operation took on this rank, seconds.
    pub dt: f64,
    /// Messages this rank sent during the operation.
    pub messages: u64,
    /// Payload bytes this rank sent during the operation.
    pub bytes: u64,
    /// Retransmissions behind the messages this rank *received* during the
    /// operation (delta of the endpoint-wide incoming-retransmit counter —
    /// sends are counted at the receiving rank, not here).
    pub retries: u64,
    /// Retransmission backoff charged to this rank's clock, seconds.
    pub backoff_seconds: f64,
    /// The wave pattern that actually ran, where the operation was a
    /// barrier (or barrier-shaped coalesced wave); `None` for data
    /// collectives.  This is how the model validation detects the
    /// dissemination fallback at non-power-of-two `p`.
    pub algo: Option<BarrierAlgo>,
}

/// Run `op` on the endpoint and measure what it cost this rank (clock and
/// counter deltas).  The u64 deltas saturate at zero so a counter that is
/// reset mid-operation degrades to "no traffic observed" instead of a
/// wrap-around to ~2⁶⁴.
pub fn measured<T, R>(
    ep: &mut Endpoint<T>,
    op: impl FnOnce(&mut Endpoint<T>) -> R,
) -> (R, CollectiveCost)
where
    T: Send,
{
    let t0 = ep.clock();
    let s0 = ep.stats();
    let out = op(ep);
    let s1 = ep.stats();
    let cost = CollectiveCost {
        dt: (ep.clock() - t0).max(0.0),
        messages: s1.messages_sent.saturating_sub(s0.messages_sent),
        bytes: s1.bytes_sent.saturating_sub(s0.bytes_sent),
        retries: s1.retransmits.saturating_sub(s0.retransmits),
        backoff_seconds: (s1.backoff_seconds - s0.backoff_seconds).max(0.0),
        algo: None,
    };
    (out, cost)
}

/// Run `op` and record its interval as a [`Span`] of `phase` (typically
/// [`Phase::Sync`] or [`Phase::Exchange`]) at this endpoint's tracer, with
/// the traffic counters filled from the measured cost.  The point-to-point
/// send/recv sub-spans land underneath it on the same timeline.
pub fn traced<T, R>(
    ep: &mut Endpoint<T>,
    phase: Phase,
    op: impl FnOnce(&mut Endpoint<T>) -> R,
) -> (R, CollectiveCost)
where
    T: Send,
{
    let t0 = ep.clock();
    let (out, cost) = measured(ep, op);
    let t1 = ep.clock();
    let span = Span {
        phase,
        t0,
        t1,
        track: 0,
        counters: SpanCounters {
            items: cost.messages,
            bytes: cost.bytes,
            retries: cost.retries,
            ..Default::default()
        },
    };
    ep.tracer_mut().record(span);
    (out, cost)
}

/// Run a barrier-shaped `op` (returning the [`BarrierAlgo`] that ran),
/// measure it, and record a [`Phase::Sync`] span whose counters carry the
/// algorithm tag — so a dissemination fallback is visible in the trace,
/// not just in the return value.  The span is recorded even when the
/// barrier fails (the time was spent either way); `algo` is then absent.
pub fn traced_sync<T, F>(
    ep: &mut Endpoint<T>,
    op: F,
) -> Result<(BarrierAlgo, CollectiveCost), CollectiveError>
where
    T: Send,
    F: FnOnce(&mut Endpoint<T>) -> Result<BarrierAlgo, CollectiveError>,
{
    let t0 = ep.clock();
    let (out, mut cost) = measured(ep, op);
    let t1 = ep.clock();
    cost.algo = out.as_ref().ok().copied();
    ep.tracer_mut().record(Span {
        phase: Phase::Sync,
        t0,
        t1,
        track: 0,
        counters: SpanCounters {
            items: cost.messages,
            bytes: cost.bytes,
            retries: cost.retries,
            algo: cost.algo,
            ..Default::default()
        },
    });
    Ok((out?, cost))
}

/// Dissemination barrier (the paper's butterfly): ⌈log₂ p⌉ rounds; in round
/// `k` rank `r` signals `(r + 2^k) mod p` and waits for `(r − 2^k) mod p`.
///
/// `T` must provide a sentinel payload via `Default`.
pub fn barrier<T: Send + Default>(ep: &mut Endpoint<T>) -> Result<BarrierAlgo, CollectiveError> {
    let p = ep.n_ranks();
    if p == 1 {
        return Ok(BarrierAlgo::Dissemination);
    }
    let me = ep.rank();
    let mut step = 1usize;
    while step < p {
        let to = (me + step) % p;
        let from = (me + p - step) % p;
        ep.send_lossy(to, T::default(), 8);
        ep.recv_checked(from)?;
        step <<= 1;
    }
    Ok(BarrierAlgo::Dissemination)
}

/// True butterfly barrier: for power-of-two `p`, round `k` pairs rank `r`
/// with `r XOR 2^k` — the two sides of every pair exchange messages and
/// leave the round at the *same* virtual time, so after ⌈log₂ p⌉ rounds
/// the barrier has not only synchronised the ranks but aligned their
/// clocks exactly.  (The dissemination variant above costs the same
/// number of rounds but its exits can spread by up to a round, because
/// each rank waits on a different chain of predecessors.)  Falls back to
/// the dissemination barrier when `p` is not a power of two — the return
/// value reports which pattern actually ran, so the fallback can never be
/// silently misattributed as butterfly time.
pub fn butterfly_barrier<T: Send + Default>(
    ep: &mut Endpoint<T>,
) -> Result<BarrierAlgo, CollectiveError> {
    let p = ep.n_ranks();
    if p == 1 {
        return Ok(BarrierAlgo::Butterfly);
    }
    if !p.is_power_of_two() {
        return barrier(ep);
    }
    let me = ep.rank();
    let mut bit = 1usize;
    while bit < p {
        let partner = me ^ bit;
        ep.send_lossy(partner, T::default(), 8);
        ep.recv_checked(partner)?;
        bit <<= 1;
    }
    Ok(BarrierAlgo::Butterfly)
}

/// Central-coordinator barrier: every rank reports to rank 0, rank 0
/// releases everyone.  2(p−1) serialised messages at the coordinator —
/// the shape of a naive implementation (and of MPICH/p4's barrier, which
/// the paper found "about two times" slower than its hand-rolled
/// butterfly).  Kept for the synchronisation ablation study.
pub fn central_barrier<T: Send + Default>(
    ep: &mut Endpoint<T>,
) -> Result<BarrierAlgo, CollectiveError> {
    let p = ep.n_ranks();
    if p == 1 {
        return Ok(BarrierAlgo::Central);
    }
    if ep.rank() == 0 {
        for from in 1..p {
            ep.recv_checked(from)?;
        }
        for to in 1..p {
            ep.send_lossy(to, T::default(), 8);
        }
    } else {
        ep.send_lossy(0, T::default(), 8);
        ep.recv_checked(0)?;
    }
    Ok(BarrierAlgo::Central)
}

/// Binomial-tree broadcast from `root`.  Ranks other than the root pass
/// `None`; every rank returns the payload.  `bytes` is the wire size.
pub fn broadcast<T: Send + Clone>(
    ep: &mut Endpoint<T>,
    root: usize,
    mine: Option<T>,
    bytes: usize,
) -> Result<T, CollectiveError> {
    let p = ep.n_ranks();
    let me = ep.rank();
    // Re-index so the root is rank 0 in tree coordinates.
    let vrank = (me + p - root) % p;
    let mut value = if vrank == 0 {
        match mine {
            Some(v) => Some(v),
            None => return Err(CollectiveError::MissingRootPayload { root, rank: me }),
        }
    } else {
        None
    };
    // Standard ascending binomial: after round k the holders are the ranks
    // with vrank < 2^(k+1); in round k each holder vrank < 2^k sends to
    // vrank + 2^k.
    let mut bit = 1usize;
    while bit < p {
        if vrank < bit {
            let dst = vrank + bit;
            if dst < p {
                let real = (dst + root) % p;
                // Every vrank < bit received (or originated) the value in
                // an earlier round; a hole is a typed error, not a panic.
                let v = value
                    .clone()
                    .ok_or(CollectiveError::MissingPayload { rank: me })?;
                ep.send_lossy(real, v, bytes);
            }
        } else if vrank < 2 * bit {
            let src = vrank - bit;
            let real = (src + root) % p;
            value = Some(ep.recv_checked(real)?);
        }
        bit <<= 1;
    }
    // The doubling front covers every vrank < p; surface a gap as data.
    value.ok_or(CollectiveError::MissingPayload { rank: me })
}

/// Ring all-gather: every rank contributes `mine`; returns the
/// contributions of all ranks, indexed by rank.  `bytes` is the wire size
/// of one contribution.
pub fn allgather<T: Send + Clone>(
    ep: &mut Endpoint<T>,
    mine: T,
    bytes: usize,
) -> Result<Vec<T>, CollectiveError> {
    let p = ep.n_ranks();
    let me = ep.rank();
    if p == 1 {
        return Ok(vec![mine]);
    }
    let right = (me + 1) % p;
    let left = (me + p - 1) % p;
    // p−1 shifts: forward the piece received last round.  Pieces arrive in
    // descending source order (me, me−1, …, me−p+1 mod p); collecting them
    // in that order and then reversing + rotating yields the rank-indexed
    // layout without `Option` holes.
    let mut out: Vec<T> = Vec::with_capacity(p);
    out.push(mine);
    for round in 0..p - 1 {
        ep.send_lossy(right, out[round].clone(), bytes);
        out.push(ep.recv_checked(left)?);
    }
    out.reverse();
    out.rotate_right((me + 1) % p);
    Ok(out)
}

/// All-reduce by all-gather + local fold (payloads are small in this
/// workload — block times, counters).
pub fn allreduce<T, F>(
    ep: &mut Endpoint<T>,
    mine: T,
    bytes: usize,
    fold: F,
) -> Result<T, CollectiveError>
where
    T: Send + Clone,
    F: Fn(T, T) -> T,
{
    let rank = ep.rank();
    let all = allgather(ep, mine, bytes)?;
    // allgather returns one element per rank and the fabric has ≥ 1 rank;
    // an empty fold is a typed error rather than a panic all the same.
    all.into_iter()
        .reduce(fold)
        .ok_or(CollectiveError::EmptyReduce { rank })
}

/// Global minimum of an `f64` across ranks (used for the next block time).
pub fn allreduce_min_f64(ep: &mut Endpoint<f64>, mine: f64) -> Result<f64, CollectiveError> {
    allreduce(ep, mine, 8, f64::min)
}

/// [`barrier`] with a per-rank cost breakdown (algorithm tag included).
pub fn barrier_measured<T: Send + Default>(
    ep: &mut Endpoint<T>,
) -> Result<CollectiveCost, CollectiveError> {
    let (out, mut cost) = measured(ep, barrier);
    cost.algo = Some(out?);
    Ok(cost)
}

/// [`allgather`] with a per-rank cost breakdown.
pub fn allgather_measured<T: Send + Clone>(
    ep: &mut Endpoint<T>,
    mine: T,
    bytes: usize,
) -> Result<(Vec<T>, CollectiveCost), CollectiveError> {
    let (out, cost) = measured(ep, |ep| allgather(ep, mine, bytes));
    out.map(|v| (v, cost))
}

/// [`allreduce_min_f64`] with a per-rank cost breakdown.
pub fn allreduce_min_f64_measured(
    ep: &mut Endpoint<f64>,
    mine: f64,
) -> Result<(f64, CollectiveCost), CollectiveError> {
    let (out, cost) = measured(ep, |ep| allreduce_min_f64(ep, mine));
    out.map(|v| (v, cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::run_ranks;
    use crate::link::LinkProfile;

    #[test]
    fn barrier_synchronises_clocks() {
        let link = LinkProfile {
            latency: 50.0e-6,
            bandwidth: 1.0e8,
            overhead: 10.0e-6,
        };
        for p in [2usize, 3, 4, 7, 8, 16] {
            let clocks = run_ranks::<u8, f64, _>(p, link, |mut ep| {
                // Rank r pretends to compute r milliseconds.
                ep.advance(ep.rank() as f64 * 1e-3);
                barrier(&mut ep).unwrap();
                ep.clock()
            });
            let slowest = (p - 1) as f64 * 1e-3;
            for (r, &c) in clocks.iter().enumerate() {
                assert!(
                    c >= slowest,
                    "p={p} rank {r}: clock {c} below the slowest rank"
                );
                // Barrier cost is logarithmic, not linear.
                let budget =
                    slowest + 10.0 * (p as f64).log2().ceil() * (link.latency + link.overhead);
                assert!(
                    c <= budget,
                    "p={p} rank {r}: clock {c} over budget {budget}"
                );
            }
        }
    }

    #[test]
    fn butterfly_barrier_aligns_clocks_for_power_of_two() {
        let link = LinkProfile {
            latency: 50.0e-6,
            bandwidth: 1.0e8,
            overhead: 10.0e-6,
        };
        for p in [2usize, 4, 8, 16] {
            // Aligned entries leave exactly aligned: every rank walks the
            // same pairwise exchange pattern.
            let clocks = run_ranks::<u8, f64, _>(p, link, |mut ep| {
                assert_eq!(butterfly_barrier(&mut ep).unwrap(), BarrierAlgo::Butterfly);
                ep.clock()
            });
            let lo = clocks.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = clocks.iter().cloned().fold(0.0, f64::max);
            assert!(
                hi - lo < 1e-12,
                "p={p}: butterfly exits spread {} s from aligned entries",
                hi - lo
            );
            // Entries skewed by less than a link round leave with no more
            // spread than they came in with (the pairwise exchange permutes
            // the skew instead of chaining it).
            let spread = 1e-6;
            let clocks = run_ranks::<u8, f64, _>(p, link, |mut ep| {
                ep.advance(ep.rank() as f64 * spread / p as f64);
                butterfly_barrier(&mut ep).unwrap();
                ep.clock()
            });
            let lo = clocks.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = clocks.iter().cloned().fold(0.0, f64::max);
            assert!(
                hi - lo <= spread + 1e-12,
                "p={p}: butterfly grew the entry spread to {} s",
                hi - lo
            );
        }
        // Non-power-of-two sizes fall back to dissemination and still
        // synchronise (everyone past the slowest entry) — and the fallback
        // is *reported*, not silent.
        let clocks = run_ranks::<u8, f64, _>(6, link, |mut ep| {
            ep.advance(ep.rank() as f64 * 1e-6);
            assert_eq!(
                butterfly_barrier(&mut ep).unwrap(),
                BarrierAlgo::Dissemination
            );
            ep.clock()
        });
        for &c in &clocks {
            assert!(c >= 5e-6);
        }
    }

    #[test]
    fn barrier_cost_scales_logarithmically() {
        let link = LinkProfile {
            latency: 100.0e-6,
            bandwidth: f64::INFINITY,
            overhead: 0.0,
        };
        let cost = |p: usize| -> f64 {
            let clocks = run_ranks::<u8, f64, _>(p, link, |mut ep| {
                barrier(&mut ep).unwrap();
                ep.clock()
            });
            clocks.iter().cloned().fold(0.0, f64::max)
        };
        let c2 = cost(2);
        let c16 = cost(16);
        assert!(c2 > 0.0);
        // 16 ranks: 4 rounds vs 1 round — ratio ≈ 4, certainly < 8.
        assert!(c16 / c2 > 2.0 && c16 / c2 < 8.0, "ratio {}", c16 / c2);
    }

    #[test]
    fn central_barrier_synchronises_but_costs_linear() {
        // A realistic link: the per-message CPU overhead is what makes the
        // coordinator serialise (with a zero-overhead link a 2-hop central
        // barrier would actually win — the dissemination pattern exists
        // precisely because messages cost CPU).
        let link = LinkProfile {
            latency: 100.0e-6,
            bandwidth: 60.0e6,
            overhead: 20.0e-6,
        };
        let cost = |p: usize, butterfly_not_central: bool| -> f64 {
            let clocks = run_ranks::<u8, f64, _>(p, link, move |mut ep| {
                if butterfly_not_central {
                    barrier(&mut ep).unwrap();
                } else {
                    central_barrier(&mut ep).unwrap();
                }
                ep.clock()
            });
            clocks.iter().cloned().fold(0.0, f64::max)
        };
        // At p = 16 the dissemination barrier (4 rounds) must clearly beat
        // the central one (serialised at the coordinator).
        let c_butterfly = cost(16, true);
        let c_central = cost(16, false);
        assert!(
            c_central > 1.4 * c_butterfly,
            "central {c_central} vs butterfly {c_butterfly}"
        );
    }

    #[test]
    fn broadcast_from_every_root() {
        for p in [1usize, 2, 3, 5, 8] {
            for root in 0..p {
                let vals = run_ranks::<u64, u64, _>(p, LinkProfile::ideal(), move |mut ep| {
                    let is_root = ep.rank() == root;
                    broadcast(&mut ep, root, is_root.then_some(777), 8).unwrap()
                });
                assert_eq!(vals, vec![777; p], "p={p} root={root}");
            }
        }
    }

    #[test]
    fn broadcast_without_root_payload_is_a_typed_error() {
        // Only the root can detect the omission; the other ranks would
        // deadlock waiting, so probe with p = 1 where the root returns
        // immediately.
        let errs = run_ranks::<u64, CollectiveError, _>(1, LinkProfile::ideal(), |mut ep| {
            broadcast(&mut ep, 0, None, 8).unwrap_err()
        });
        assert_eq!(
            errs[0],
            CollectiveError::MissingRootPayload { root: 0, rank: 0 }
        );
        assert!(errs[0].to_string().contains("no payload"));
    }

    #[test]
    fn allgather_returns_rank_indexed() {
        for p in [1usize, 2, 3, 4, 5, 6, 7, 8] {
            let vals = run_ranks::<usize, Vec<usize>, _>(p, LinkProfile::ideal(), |mut ep| {
                let mine = ep.rank() * 10;
                allgather(&mut ep, mine, 8).unwrap()
            });
            for v in vals {
                assert_eq!(v, (0..p).map(|r| r * 10).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn allreduce_min() {
        let p = 5;
        let vals = run_ranks::<f64, f64, _>(p, LinkProfile::ideal(), |mut ep| {
            let mine = match ep.rank() {
                2 => 0.125,
                r => 1.0 + r as f64,
            };
            allreduce_min_f64(&mut ep, mine).unwrap()
        });
        assert_eq!(vals, vec![0.125; p]);
    }

    #[test]
    fn measured_barrier_reports_traffic_and_time() {
        let link = LinkProfile {
            latency: 50.0e-6,
            bandwidth: 1.0e8,
            overhead: 10.0e-6,
        };
        let p = 8;
        let costs = run_ranks::<u8, CollectiveCost, _>(p, link, |mut ep| {
            barrier_measured(&mut ep).unwrap()
        });
        for (r, c) in costs.iter().enumerate() {
            // Dissemination barrier: ⌈log₂ 8⌉ = 3 rounds, one 8-byte
            // message out per round.
            assert_eq!(c.messages, 3, "rank {r}");
            assert_eq!(c.bytes, 24, "rank {r}");
            assert!(c.dt > 0.0, "rank {r}");
            // Clean fabric: no retries, no backoff.
            assert_eq!(c.retries, 0, "rank {r}");
            assert_eq!(c.backoff_seconds, 0.0, "rank {r}");
            // The cost report carries the pattern that ran.
            assert_eq!(c.algo, Some(BarrierAlgo::Dissemination), "rank {r}");
        }
    }

    #[test]
    fn traced_sync_tags_the_span_with_the_algorithm() {
        // p = 4 runs the true butterfly; p = 6 reports the fallback.
        for (p, want) in [
            (4usize, BarrierAlgo::Butterfly),
            (6, BarrierAlgo::Dissemination),
        ] {
            let out = run_ranks::<u8, (BarrierAlgo, Vec<grape6_trace::Span>), _>(
                p,
                LinkProfile::ideal(),
                move |mut ep| {
                    ep.set_tracer(grape6_trace::Tracer::enabled());
                    let (algo, cost) = traced_sync(&mut ep, butterfly_barrier).unwrap();
                    assert_eq!(cost.algo, Some(algo));
                    (algo, ep.take_spans())
                },
            );
            for (r, (algo, spans)) in out.iter().enumerate() {
                assert_eq!(*algo, want, "p={p} rank {r}");
                let sync = spans
                    .iter()
                    .find(|s| s.phase == Phase::Sync)
                    .unwrap_or_else(|| panic!("p={p} rank {r}: no Sync span"));
                assert_eq!(sync.counters.algo, Some(want), "p={p} rank {r}");
            }
        }
    }

    #[test]
    fn dead_rank_mid_collective_is_a_typed_down_error() {
        // Rank 2 dies before the collectives; the survivors' barrier,
        // butterfly and broadcast (rooted at the dead rank, so every
        // survivor depends on it) must all surface Down — never panic.
        let out =
            run_ranks::<u64, Option<Vec<CollectiveError>>, _>(4, LinkProfile::ideal(), |mut ep| {
                if ep.rank() == 2 {
                    return None; // endpoint drops immediately
                }
                Some(vec![
                    barrier(&mut ep).unwrap_err(),
                    butterfly_barrier(&mut ep).unwrap_err(),
                    broadcast(&mut ep, 2, None, 8).unwrap_err(),
                ])
            });
        for (r, errs) in out.iter().enumerate() {
            let Some(errs) = errs else { continue };
            assert_eq!(errs.len(), 3, "rank {r}");
            for e in errs {
                // The Down may name the dead rank directly or a survivor
                // that exited after erroring itself; either way it is a
                // typed event, observed by this rank.
                match e {
                    CollectiveError::Down { to, .. } => assert_eq!(*to, r),
                    other => panic!("rank {r}: expected Down, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn dead_rank_fails_allreduce_with_down_not_panic() {
        let out =
            run_ranks::<f64, Option<CollectiveError>, _>(3, LinkProfile::ideal(), |mut ep| {
                if ep.rank() == 1 {
                    return None; // dies; the ring through it is severed
                }
                let mine = ep.rank() as f64;
                Some(allreduce_min_f64(&mut ep, mine).unwrap_err())
            });
        for (r, e) in out.iter().enumerate() {
            let Some(e) = e else { continue };
            match e {
                CollectiveError::Down { to, .. } => assert_eq!(*to, r),
                other => panic!("rank {r}: expected Down, got {other:?}"),
            }
            assert!(e.to_string().contains("down"), "{e}");
        }
    }

    #[test]
    fn measured_allgather_and_allreduce_agree_with_plain() {
        let p = 4;
        let out = run_ranks::<f64, (f64, CollectiveCost), _>(p, LinkProfile::ideal(), |mut ep| {
            let mine = 1.0 + ep.rank() as f64;
            allreduce_min_f64_measured(&mut ep, mine).unwrap()
        });
        for (v, c) in &out {
            assert_eq!(*v, 1.0);
            // Ring allgather: p − 1 sends of 8 bytes each.
            assert_eq!(c.messages, (p - 1) as u64);
            assert_eq!(c.bytes, 8 * (p - 1) as u64);
        }
        let gathered =
            run_ranks::<u64, (Vec<u64>, CollectiveCost), _>(p, LinkProfile::ideal(), |mut ep| {
                let me = ep.rank() as u64;
                allgather_measured(&mut ep, me, 8).unwrap()
            });
        for (v, _) in &gathered {
            assert_eq!(*v, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn measured_barrier_counts_retries_on_lossy_fabric() {
        use crate::fabric::run_ranks_faulty;
        use grape6_fault::NetFaultPlan;
        let link = LinkProfile {
            latency: 50.0e-6,
            bandwidth: 1.0e8,
            overhead: 10.0e-6,
        };
        let plan = NetFaultPlan::lossy(5, 400, 32, 1e-4);
        let p = 8;
        let run = || {
            run_ranks_faulty::<u8, CollectiveCost, _>(p, link, plan, |mut ep| {
                // Several barriers so every rank is statistically certain
                // to see at least one retransmitted incoming message.
                let mut total = CollectiveCost::default();
                for _ in 0..10 {
                    let c = barrier_measured(&mut ep).unwrap();
                    total.dt += c.dt;
                    total.messages += c.messages;
                    total.bytes += c.bytes;
                    total.retries += c.retries;
                    total.backoff_seconds += c.backoff_seconds;
                }
                total
            })
        };
        let costs = run();
        let total_retries: u64 = costs.iter().map(|c| c.retries).sum();
        assert!(total_retries > 0, "a 40%-lossy fabric must retransmit");
        for c in &costs {
            assert!(c.backoff_seconds >= 0.0);
        }
        // Deterministic replay: identical costs on every rank.
        assert_eq!(costs, run());
    }

    #[test]
    fn exhausted_retry_budget_fails_the_collective_with_a_typed_error() {
        use crate::fabric::run_ranks_faulty;
        use grape6_fault::NetFaultPlan;
        // 100% drop, 2-attempt budget: the first barrier round times out.
        let plan = NetFaultPlan::lossy(9, 1000, 2, 1e-4);
        let errs =
            run_ranks_faulty::<u8, CollectiveError, _>(2, LinkProfile::ideal(), plan, |mut ep| {
                barrier(&mut ep).unwrap_err()
            });
        for (r, e) in errs.iter().enumerate() {
            match e {
                CollectiveError::Link(le) => assert_eq!(le.to, r),
                other => panic!("rank {r}: expected Link, got {other:?}"),
            }
        }
    }

    #[test]
    fn allgather_charges_bandwidth() {
        // With a slow link, the ring must cost ≥ (p−1)·bytes/bw.
        let link = LinkProfile {
            latency: 0.0,
            bandwidth: 1.0e6,
            overhead: 0.0,
        };
        let p = 4;
        let bytes = 100_000; // 0.1 s per hop
        let clocks = run_ranks::<u8, f64, _>(p, link, move |mut ep| {
            allgather(&mut ep, 0, bytes).unwrap();
            ep.clock()
        });
        for &c in &clocks {
            assert!(c >= 0.3 - 1e-9, "clock {c} below ring lower bound");
            assert!(c < 0.5, "clock {c} above plausible ring cost");
        }
    }

    #[test]
    fn traced_collectives_record_sync_spans_over_send_recv_subspans() {
        let link = LinkProfile {
            latency: 50.0e-6,
            bandwidth: 1.0e8,
            overhead: 10.0e-6,
        };
        let p = 4;
        let spans = run_ranks::<u8, Vec<grape6_trace::Span>, _>(p, link, |mut ep| {
            ep.set_tracer(grape6_trace::Tracer::enabled());
            traced(&mut ep, Phase::Sync, |ep| barrier(ep).unwrap());
            ep.take_spans()
        });
        for (r, s) in spans.iter().enumerate() {
            let syncs: Vec<_> = s.iter().filter(|x| x.phase == Phase::Sync).collect();
            assert_eq!(syncs.len(), 1, "rank {r}");
            let sync = syncs[0];
            assert!(sync.dur() > 0.0, "rank {r}");
            // ⌈log₂ 4⌉ = 2 rounds → 2 sends + 2 recvs nested inside.
            let sends = s.iter().filter(|x| x.phase == Phase::Send).count();
            let recvs = s.iter().filter(|x| x.phase == Phase::Recv).count();
            assert_eq!((sends, recvs), (2, 2), "rank {r}");
            for sub in s.iter().filter(|x| x.phase != Phase::Sync) {
                assert!(
                    sub.t0 >= sync.t0 - 1e-15 && sub.t1 <= sync.t1 + 1e-15,
                    "rank {r}: sub-span outside the collective interval"
                );
            }
            // The collective span carries the traffic counters.
            assert_eq!(sync.counters.items, 2, "rank {r}");
            assert_eq!(sync.counters.bytes, 16, "rank {r}");
        }
    }
}
