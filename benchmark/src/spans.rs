//! The harness's own span recorder.
//!
//! Spans are recorded from outside the program under test, around calls
//! into each layer's public functions, kept in memory, and written out as
//! a Chrome trace when the workload ends.  A span's *self time* is its
//! duration minus the part of it that its child spans cover.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Span name, `layer.what` (`core.step`, `farm.client.status`, ...).
    pub name: &'static str,
    /// Layer (workspace crate) the time is charged to.
    pub layer: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Operation (blockstep, job, wave) the span belongs to.
    pub op_id: u64,
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans with this name.
    pub calls: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times.
    pub self_ns: u64,
}

/// In-memory span store of one thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    /// Recorder whose timestamps count from `epoch` (threads of one
    /// workload share an epoch so their traces line up).
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The instant timestamps count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn open(&mut self, name: &'static str, layer: &'static str, op_id: u64) -> u32 {
        let id = self.spans.len() as u32;
        let start = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns: start,
            end_ns: start,
            parent: self.open.last().copied(),
            op_id,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn close(&mut self, id: u32) {
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end;
    }

    /// Record an already-measured interval as a child of `parent` (used
    /// for intervals timed inside a wrapper that cannot reach the
    /// recorder, like [`crate::timed::TimedEngine`]).
    pub fn add_closed(
        &mut self,
        name: &'static str,
        layer: &'static str,
        op_id: u64,
        parent: Option<u32>,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns,
            parent,
            op_id,
        });
    }

    /// All spans, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        totals(&self.spans)
    }

    /// Durations (ns) of every span with this name, in open order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals, each clipped to the parent (children may overlap one
/// another, and a child recorded by another clock read may poke a few
/// nanoseconds outside its parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Totals per span name over any span list.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
    }
    out
}

/// Spans per thread written to a trace file: enough to see the workload's
/// shape in a viewer without producing files of hundreds of megabytes
/// (the metrics always use every span).
pub const TRACE_FILE_SPANS: usize = 100_000;

/// Write the recorders of one workload (one per thread, named) as a Chrome
/// trace (`chrome://tracing`, Perfetto): complete events in microseconds,
/// one `tid` per recorder, layer as category, op id and parent in `args`.
/// Each thread contributes its first [`TRACE_FILE_SPANS`] spans.
pub fn write_chrome_trace(path: &Path, threads: &[(&str, &Recorder)]) -> std::io::Result<()> {
    let mut events = Vec::new();
    for (tid, (thread_name, rec)) in threads.iter().enumerate() {
        events.push(Json::obj([
            ("name", Json::str("thread_name")),
            ("ph", Json::str("M")),
            ("pid", Json::Num(1.0)),
            ("tid", Json::Num(tid as f64)),
            ("args", Json::obj([("name", Json::str(*thread_name))])),
        ]));
        for (idx, s) in rec.spans().iter().take(TRACE_FILE_SPANS).enumerate() {
            events.push(Json::obj([
                ("name", Json::str(s.name)),
                ("cat", Json::str(s.layer)),
                ("ph", Json::str("X")),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(tid as f64)),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Num(idx as f64)),
                        ("op", Json::Num(s.op_id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                    ]),
                ),
            ]));
        }
    }
    let doc = Json::obj([
        ("displayTimeUnit", Json::str("ns")),
        ("traceEvents", Json::Arr(events)),
    ]);
    std::fs::write(path, doc.to_line())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            layer: "test",
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("root", 0, 100, None),
            // Two children overlapping on [30, 40): union covers [10, 60).
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            // A grandchild only reduces its own parent.
            span("a.inner", 15, 25, Some(1)),
            // A child poking past the parent's end is clipped to it.
            span("c", 90, 120, Some(0)),
            // A child fully inside an already-covered stretch adds nothing.
            span("d", 35, 38, Some(0)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 50 - 10, "root: [10,60) and [90,100)");
        assert_eq!(selfs[1], 30 - 10);
        assert_eq!(selfs[2], 30);
        assert_eq!(selfs[3], 10);
        let t = totals(&spans);
        assert_eq!(
            t["root"],
            SpanTotals {
                calls: 1,
                total_ns: 100,
                self_ns: 40
            }
        );
    }

    #[test]
    fn recorder_nests_spans() {
        let mut r = Recorder::new(Instant::now());
        let a = r.open("outer", "bench", 7);
        let b = r.open("inner", "bench", 7);
        r.close(b);
        r.close(a);
        r.add_closed("measured", "core", 7, Some(a), 1, 2);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert_eq!(r.spans()[2].parent, Some(0));
        assert_eq!(r.spans()[0].parent, None);
        assert!(r.spans()[0].end_ns >= r.spans()[1].end_ns);
        assert_eq!(r.durations("measured"), vec![1.0]);
    }
}
