//! Aggregating spans into the paper's six-term breakdown.

use serde::{Deserialize, Serialize};

use crate::span::{Span, Term};

/// Measured wall-clock (virtual) breakdown of a blockstep — the same six
/// terms as the analytic `model::BlockTime`, but summed from recorded
/// [`Span`]s instead of predicted from workload statistics.  This is what
/// lets `tests/model_vs_simulation.rs` assert *per-term* agreement.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MeasuredBlockTime {
    /// Host computation, seconds.
    pub host: f64,
    /// DMA setup, seconds.
    pub dma: f64,
    /// Interface transfer, seconds.
    pub interface: f64,
    /// GRAPE pipeline (including widen retries and sanity recomputes).
    pub grape: f64,
    /// Barrier synchronisation, seconds.
    pub sync: f64,
    /// Inter-cluster exchange, seconds.
    pub exchange: f64,
    /// Wall-clock extent of the spans (last end − first start), seconds.
    /// Under the sequential schedule this equals [`MeasuredBlockTime::total`]
    /// (spans tile the timeline); under split-phase overlap host spans run
    /// concurrently with engine spans on the same timeline, so the wall is
    /// *shorter* than the sum of the terms — the measured overlap win.
    #[serde(default)]
    pub wall: f64,
}

impl MeasuredBlockTime {
    /// Sum spans into the six terms; visualisation-only phases
    /// (`Phase::term() == None`) are skipped.  `wall` is the timeline
    /// extent of the term-bearing spans.
    pub fn from_spans(spans: &[Span]) -> Self {
        let mut out = Self::default();
        let mut t0 = f64::INFINITY;
        let mut t1 = f64::NEG_INFINITY;
        for s in spans {
            let Some(term) = s.phase.term() else { continue };
            let d = s.dur();
            t0 = t0.min(s.t0);
            t1 = t1.max(s.t1);
            match term {
                Term::Host => out.host += d,
                Term::Dma => out.dma += d,
                Term::Interface => out.interface += d,
                Term::Grape => out.grape += d,
                Term::Sync => out.sync += d,
                Term::Exchange => out.exchange += d,
            }
        }
        if t1 > t0 {
            out.wall = t1 - t0;
        }
        out
    }

    /// How much of the term time the schedule hid: `total / wall`.
    /// 1.0 means no overlap (sequential); approaching 2.0 means host work
    /// fully hidden behind an equally-long engine side.  Returns 1.0 when
    /// no wall was measured.
    pub fn overlap_gain(&self) -> f64 {
        if self.wall > 0.0 {
            self.total() / self.wall
        } else {
            1.0
        }
    }

    /// Total across terms.
    pub fn total(&self) -> f64 {
        self.host + self.dma + self.interface + self.grape + self.sync + self.exchange
    }

    /// Elementwise sum (accumulating blocksteps).  Walls add too:
    /// consecutive blocksteps occupy disjoint stretches of the timeline.
    pub fn add(&mut self, o: &Self) {
        self.host += o.host;
        self.dma += o.dma;
        self.interface += o.interface;
        self.grape += o.grape;
        self.sync += o.sync;
        self.exchange += o.exchange;
        self.wall += o.wall;
    }

    /// Elementwise maximum — the critical path across ranks, term by term
    /// (the paper's breakdown figures plot the slowest host's view).
    pub fn max(&self, o: &Self) -> Self {
        Self {
            host: self.host.max(o.host),
            dma: self.dma.max(o.dma),
            interface: self.interface.max(o.interface),
            grape: self.grape.max(o.grape),
            sync: self.sync.max(o.sync),
            exchange: self.exchange.max(o.exchange),
            wall: self.wall.max(o.wall),
        }
    }
}

/// Fold spans into one breakdown per track id, in track order.
///
/// Multi-tenant consumers (the farm) tag every span of a grant with the
/// owning tenant's id in [`Span::track`]; this splits a mixed span log
/// back into per-tenant six-term breakdowns.  Tracks appear in ascending
/// id order, so the result is deterministic for a deterministic log.
pub fn per_track(spans: &[Span]) -> Vec<(u32, MeasuredBlockTime)> {
    let mut tracks: Vec<u32> = spans.iter().map(|s| s.track).collect();
    tracks.sort_unstable();
    tracks.dedup();
    tracks
        .into_iter()
        .map(|track| {
            let mine: Vec<Span> = spans.iter().filter(|s| s.track == track).cloned().collect();
            (track, MeasuredBlockTime::from_spans(&mine))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Phase, Span};

    #[test]
    fn per_track_splits_a_mixed_log() {
        let mut a = Span::new(Phase::Grape, 0.0, 1.0);
        a.track = 2;
        let mut b = Span::new(Phase::Host, 1.0, 1.5);
        b.track = 0;
        let mut c = Span::new(Phase::Grape, 2.0, 2.25);
        c.track = 2;
        let folded = per_track(&[a, b, c]);
        assert_eq!(folded.len(), 2);
        assert_eq!(folded[0].0, 0);
        assert!((folded[0].1.host - 0.5).abs() < 1e-12);
        assert_eq!(folded[1].0, 2);
        assert!((folded[1].1.grape - 1.25).abs() < 1e-12);
    }

    #[test]
    fn aggregation_maps_phases_to_terms() {
        let spans = vec![
            Span::new(Phase::Predict, 0.0, 1.0),
            Span::new(Phase::Host, 1.0, 2.0),
            Span::new(Phase::Dma, 2.0, 2.5),
            Span::new(Phase::Interface, 2.5, 3.0),
            Span::new(Phase::Grape, 3.0, 5.0),
            Span::new(Phase::WidenRetry, 5.0, 7.0),
            Span::new(Phase::BoardPass, 3.0, 5.0), // sub-span: ignored
            Span::new(Phase::Sync, 7.0, 7.5),
            Span::new(Phase::Exchange, 7.5, 8.0),
            Span::new(Phase::Recv, 7.0, 7.4), // sub-span: ignored
        ];
        let b = MeasuredBlockTime::from_spans(&spans);
        assert_eq!(b.host, 2.0);
        assert_eq!(b.dma, 0.5);
        assert_eq!(b.interface, 0.5);
        assert_eq!(b.grape, 4.0);
        assert_eq!(b.sync, 0.5);
        assert_eq!(b.exchange, 0.5);
        assert!((b.total() - 8.0).abs() < 1e-12);
        // Sequential spans tile the timeline: wall == total, gain 1.
        assert_eq!(b.wall, 8.0);
        assert!((b.overlap_gain() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overlapped_spans_shrink_the_wall() {
        // A host span hiding entirely behind a pipeline span: the terms
        // still sum both, the wall only spans the timeline once.
        let spans = vec![
            Span::new(Phase::Grape, 0.0, 4.0),
            Span::new(Phase::Host, 0.0, 3.0),
        ];
        let b = MeasuredBlockTime::from_spans(&spans);
        assert_eq!(b.grape, 4.0);
        assert_eq!(b.host, 3.0);
        assert_eq!(b.total(), 7.0);
        assert_eq!(b.wall, 4.0);
        assert!((b.overlap_gain() - 7.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn add_and_max_are_elementwise() {
        let a = MeasuredBlockTime {
            host: 1.0,
            dma: 2.0,
            interface: 3.0,
            grape: 4.0,
            sync: 5.0,
            exchange: 6.0,
            wall: 21.0,
        };
        let b = MeasuredBlockTime {
            host: 6.0,
            dma: 5.0,
            interface: 4.0,
            grape: 3.0,
            sync: 2.0,
            exchange: 1.0,
            wall: 20.0,
        };
        let m = a.max(&b);
        assert_eq!(m.host, 6.0);
        assert_eq!(m.exchange, 6.0);
        assert_eq!(m.grape, 4.0);
        let mut s = a;
        s.add(&b);
        assert_eq!(s.total(), a.total() + b.total());
    }
}
