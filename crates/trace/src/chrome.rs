//! Chrome-trace (`chrome://tracing` / Perfetto) export.
//!
//! The produced JSON is the "trace event" format: complete events
//! (`"ph": "X"`) with microsecond timestamps, one process per traced
//! component (a rank, the single-host engine) and one thread per span
//! track.  Load the file at `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! The document is built by direct string formatting: every emitted value
//! is a number or a name from a fixed set, so no JSON library is needed —
//! which also keeps this crate functional in offline builds where the
//! full `serde_json` is unavailable.

use crate::span::Span;

/// Escape a string for inclusion in a JSON document.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Format an `f64` as a JSON number (JSON has no NaN/Infinity).
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// Build a Chrome-trace JSON document from named span streams.
///
/// Each `(name, spans)` pair becomes one process; span tracks become
/// threads within it.  Virtual seconds are exported as microseconds, the
/// unit the viewer expects.
pub fn chrome_trace(streams: &[(String, Vec<Span>)]) -> String {
    let mut events: Vec<String> = Vec::new();
    for (pid, (name, spans)) in streams.iter().enumerate() {
        events.push(format!(
            r#"{{"name":"process_name","ph":"M","pid":{pid},"tid":0,"args":{{"name":"{}"}}}}"#,
            json_escape(name)
        ));
        for s in spans {
            let mut extra = String::new();
            if let Some(k) = s.counters.kernel {
                extra.push_str(&format!(r#","kernel":"{}""#, k.name()));
            }
            if s.counters.records > 0 {
                extra.push_str(&format!(r#","records":{}"#, s.counters.records));
            }
            if let Some(a) = s.counters.algo {
                extra.push_str(&format!(r#","algo":"{}""#, a.name()));
            }
            events.push(format!(
                concat!(
                    r#"{{"name":"{name}","cat":"grape6","ph":"X","pid":{pid},"tid":{tid},"#,
                    r#""ts":{ts},"dur":{dur},"#,
                    r#""args":{{"items":{items},"bytes":{bytes},"cycles":{cycles},"retries":{retries}{extra}}}}}"#
                ),
                name = s.phase.name(),
                pid = pid,
                tid = s.track,
                ts = json_f64(s.t0 * 1e6),
                dur = json_f64(s.dur() * 1e6),
                items = s.counters.items,
                bytes = s.counters.bytes,
                cycles = s.counters.cycles,
                retries = s.counters.retries,
                extra = extra,
            ));
        }
    }
    format!(
        "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}\n",
        events.join(",\n")
    )
}

/// Alias kept for discoverability: the exporter already returns a string.
pub fn chrome_trace_to_string(streams: &[(String, Vec<Span>)]) -> String {
    chrome_trace(streams)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Phase, SpanCounters};

    #[test]
    fn export_has_metadata_and_events() {
        let spans = vec![
            Span::new(Phase::Grape, 1.0e-6, 3.0e-6),
            Span {
                track: 2,
                counters: SpanCounters {
                    bytes: 640,
                    ..Default::default()
                },
                ..Span::new(Phase::Interface, 3.0e-6, 4.0e-6)
            },
        ];
        let doc = chrome_trace(&[("rank0".to_string(), spans)]);
        assert!(doc.contains(r#""traceEvents""#));
        assert!(doc.contains(r#""process_name""#));
        assert!(doc.contains(r#""name":"grape""#));
        assert!(doc.contains(r#""tid":2"#));
        assert!(doc.contains(r#""bytes":640"#));
        // ts of the grape span: 1 µs.
        assert!(doc.contains(r#""ts":1,"#) || doc.contains(r#""ts":0.999"#));
        // Balanced braces (cheap well-formedness check).
        let open = doc.matches('{').count();
        let close = doc.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn escaping_and_nonfinite_numbers() {
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(2.5), "2.5");
    }
}
