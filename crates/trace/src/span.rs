//! Phase-tagged virtual-time intervals.

use serde::{Deserialize, Serialize};

/// The six time terms of the paper's breakdown (figs. 13–19 and §4.1's
/// cost equation) — every [`Phase`] maps into one of these, or into none
/// (sub-spans that only exist for trace visualisation).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Term {
    /// Host computation (predictor polynomial, corrector, bookkeeping).
    Host,
    /// DMA setup overhead of GRAPE calls.
    Dma,
    /// Host↔GRAPE interface transfer (i-particles, forces, j writeback).
    Interface,
    /// GRAPE pipeline time.
    Grape,
    /// Barrier synchronisation between hosts.
    Sync,
    /// Inter-cluster particle exchange.
    Exchange,
}

/// What a span was spent doing.
///
/// Phases are finer-grained than the six breakdown terms: the engine
/// distinguishes first-attempt pipeline passes from exponent-widening
/// retries and sanity recomputes (all pipeline time), and the network
/// layer records raw send/recv/backoff activity underneath the collective
/// operations built from it.  [`Phase::term`] folds a phase into its
/// breakdown term; phases that return `None` are visualisation-only and
/// excluded from [`crate::MeasuredBlockTime`] so nothing double-counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Host-side prediction of the i-particles of a block.
    Predict,
    /// Remaining host work of a blockstep (correct, retime, scheduling).
    Host,
    /// DMA setup for one GRAPE call.
    Dma,
    /// Interface transfer (i upload + force readback, or j writeback).
    Interface,
    /// A pipeline pass that succeeded first time.
    Grape,
    /// A pipeline pass repeated with widened block-FP exponents.
    WidenRetry,
    /// A pipeline pass repeated after a NaN/overflow sanity failure.
    SanityRecompute,
    /// One board's share of a pass (sub-span of Grape on its own track).
    BoardPass,
    /// A barrier or other synchronisation collective.
    Sync,
    /// Inter-cluster exchange traffic.
    Exchange,
    /// An `Endpoint::send` (sub-span of Sync/Exchange).
    Send,
    /// An endpoint receive, including the wait (sub-span of Sync/Exchange).
    Recv,
    /// Congestion backoff charged on a retried delivery.
    Backoff,
    /// A mid-run known-answer self-test pass (recovery ladder rung 2) —
    /// pipeline time spent proving the hardware, not computing forces.
    Selftest,
    /// A full j-memory reload (redistribution after masking, checkpoint
    /// restore) — interface traffic.
    Reload,
    /// Writing or restoring a checkpoint — host-side work.
    Ckpt,
    /// A liveness heartbeat round on the real-transport cluster —
    /// synchronisation traffic, charged like a barrier.
    Heartbeat,
    /// Cluster recovery coordination after a detected rank death or
    /// stall: suspicion broadcast, dead-set agreement, rejoin-or-shrink,
    /// and the rewind to the last coordinated checkpoint.
    Recover,
}

impl Phase {
    /// The breakdown term this phase accumulates into, or `None` for
    /// visualisation-only sub-spans.
    pub fn term(self) -> Option<Term> {
        match self {
            Phase::Predict | Phase::Host => Some(Term::Host),
            Phase::Dma => Some(Term::Dma),
            Phase::Interface => Some(Term::Interface),
            Phase::Grape | Phase::WidenRetry | Phase::SanityRecompute | Phase::Selftest => {
                Some(Term::Grape)
            }
            Phase::Sync | Phase::Heartbeat | Phase::Recover => Some(Term::Sync),
            Phase::Exchange => Some(Term::Exchange),
            Phase::Reload => Some(Term::Interface),
            Phase::Ckpt => Some(Term::Host),
            Phase::BoardPass | Phase::Send | Phase::Recv | Phase::Backoff => None,
        }
    }

    /// Stable display name (used as the Chrome-trace event name).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Predict => "predict",
            Phase::Host => "host",
            Phase::Dma => "dma",
            Phase::Interface => "interface",
            Phase::Grape => "grape",
            Phase::WidenRetry => "widen-retry",
            Phase::SanityRecompute => "sanity-recompute",
            Phase::BoardPass => "board-pass",
            Phase::Sync => "sync",
            Phase::Exchange => "exchange",
            Phase::Send => "send",
            Phase::Recv => "recv",
            Phase::Backoff => "backoff",
            Phase::Selftest => "selftest",
            Phase::Reload => "reload",
            Phase::Ckpt => "ckpt",
            Phase::Heartbeat => "heartbeat",
            Phase::Recover => "recover",
        }
    }
}

/// Which host-side force kernel produced a pipeline span.
///
/// The two kernels are bitwise identical in results and cycle accounting;
/// the tag records which one actually ran so host wall-clock comparisons
/// (the kernel A/B benchmark) can attribute spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelTag {
    /// The per-interaction scalar reference oracle.
    Scalar,
    /// The lane kernel over the batched SoA layout (runtime-dispatched
    /// AVX-512 / AVX2 / portable lanes).
    Simd,
}

impl KernelTag {
    /// Stable display name (exported into Chrome-trace args).
    pub fn name(self) -> &'static str {
        match self {
            KernelTag::Scalar => "scalar",
            KernelTag::Simd => "simd",
        }
    }
}

/// Which barrier/collective wave pattern actually ran behind a Sync or
/// Exchange span.
///
/// `butterfly_barrier` silently falls back to the dissemination pattern
/// for non-power-of-two rank counts; the §4 model validation charges the
/// *butterfly* stage cost, so a misattributed fallback would corrupt the
/// sync-term comparison.  Recording the algorithm that actually ran makes
/// the substitution observable in both [`SpanCounters`] and the
/// collective cost report.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BarrierAlgo {
    /// Pairwise XOR exchange (power-of-two ranks, clock-aligning).
    Butterfly,
    /// Dissemination rounds (any rank count; exits can spread).
    Dissemination,
    /// Central coordinator (the MPICH/p4-like ablation shape).
    Central,
}

impl BarrierAlgo {
    /// Stable display name (exported into Chrome-trace args).
    pub fn name(self) -> &'static str {
        match self {
            BarrierAlgo::Butterfly => "butterfly",
            BarrierAlgo::Dissemination => "dissemination",
            BarrierAlgo::Central => "central",
        }
    }
}

/// Payload counters attached to a span; zero-initialised, fill what
/// applies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanCounters {
    /// Particles (i or j) the span processed — for network spans, the
    /// *wire messages* put on the link.
    pub items: u64,
    /// Bytes moved (interface words, wire bytes).
    pub bytes: u64,
    /// Hardware cycles, where the span is clocked hardware.
    pub cycles: u64,
    /// Retries behind this span (widen attempts, link retransmits).
    pub retries: u64,
    /// The force kernel behind a pipeline-pass span; `None` for spans
    /// that are not force passes.
    #[serde(default)]
    pub kernel: Option<KernelTag>,
    /// Logical records packed into the span's wire messages.  A coalesced
    /// network span has `records > items` — k payloads rode one message;
    /// uncoalesced traffic has `records == items` (or 0 where the
    /// distinction does not apply).  The records-per-message ratio is the
    /// measured coalescing factor.
    #[serde(default)]
    pub records: u64,
    /// The barrier/collective wave pattern behind a Sync/Exchange span;
    /// `None` for spans that are not collectives.
    #[serde(default)]
    pub algo: Option<BarrierAlgo>,
}

/// One interval of virtual time.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// What the time was spent on.
    pub phase: Phase,
    /// Virtual start time, seconds.
    pub t0: f64,
    /// Virtual end time, seconds.
    pub t1: f64,
    /// Display track (0 = the owning component's main track; the engine
    /// uses 1 + board index for per-board sub-spans).
    pub track: u32,
    /// Payload counters.
    pub counters: SpanCounters,
}

impl Span {
    /// A counter-less span.
    pub fn new(phase: Phase, t0: f64, t1: f64) -> Self {
        Self {
            phase,
            t0,
            t1,
            track: 0,
            counters: SpanCounters::default(),
        }
    }

    /// Duration in virtual seconds (clamped at zero).
    pub fn dur(&self) -> f64 {
        (self.t1 - self.t0).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_phase_has_a_name_and_a_term_policy() {
        let all = [
            Phase::Predict,
            Phase::Host,
            Phase::Dma,
            Phase::Interface,
            Phase::Grape,
            Phase::WidenRetry,
            Phase::SanityRecompute,
            Phase::BoardPass,
            Phase::Sync,
            Phase::Exchange,
            Phase::Send,
            Phase::Recv,
            Phase::Backoff,
            Phase::Selftest,
            Phase::Reload,
            Phase::Ckpt,
        ];
        for p in all {
            assert!(!p.name().is_empty());
        }
        // Sub-spans must not reach the breakdown (double counting).
        assert_eq!(Phase::BoardPass.term(), None);
        assert_eq!(Phase::Send.term(), None);
        assert_eq!(Phase::Recv.term(), None);
        assert_eq!(Phase::Backoff.term(), None);
        // Retry flavours are pipeline time.
        assert_eq!(Phase::WidenRetry.term(), Some(Term::Grape));
        assert_eq!(Phase::SanityRecompute.term(), Some(Term::Grape));
        // Recovery work folds into the terms of the hardware it occupies.
        assert_eq!(Phase::Selftest.term(), Some(Term::Grape));
        assert_eq!(Phase::Reload.term(), Some(Term::Interface));
        assert_eq!(Phase::Ckpt.term(), Some(Term::Host));
    }

    #[test]
    fn kernel_tags_have_stable_names() {
        assert_eq!(KernelTag::Scalar.name(), "scalar");
        assert_eq!(KernelTag::Simd.name(), "simd");
        // Untagged is the default so non-pipeline spans need no opt-out.
        assert_eq!(SpanCounters::default().kernel, None);
    }

    #[test]
    fn barrier_algos_have_stable_names_and_default_off() {
        assert_eq!(BarrierAlgo::Butterfly.name(), "butterfly");
        assert_eq!(BarrierAlgo::Dissemination.name(), "dissemination");
        assert_eq!(BarrierAlgo::Central.name(), "central");
        // Non-collective spans carry no algorithm and no record count.
        let c = SpanCounters::default();
        assert_eq!(c.algo, None);
        assert_eq!(c.records, 0);
    }

    #[test]
    fn span_duration_clamps() {
        assert_eq!(Span::new(Phase::Host, 1.0, 3.5).dur(), 2.5);
        assert_eq!(Span::new(Phase::Host, 3.5, 1.0).dur(), 0.0);
    }
}
