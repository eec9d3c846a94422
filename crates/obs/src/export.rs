//! Exporters: chrome-trace JSON and prometheus-style text exposition,
//! plus the schema checker CI's `obs-smoke` step runs over captured
//! traces.
//!
//! Both exporters are plain string builders — no serializer dependency,
//! per the offline-vendored policy — and both are deterministic given the
//! same events/snapshot (metric lines come out in registry name order,
//! trace lines in drain order).

use crate::metrics::{MetricDetail, MetricSnapshot};
use crate::trace::{Phase, TraceEvent};

/// Escapes a string for a JSON literal. Names here are static Rust string
/// literals (dotted lowercase), but escaping keeps the exporter total.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out
}

/// Renders drained events as a chrome-trace JSON document (the
/// `traceEvents` array format), loadable in `chrome://tracing` and
/// Perfetto. Timestamps are microseconds (`ts_nanos / 1000`, fractional);
/// all events share `pid` 1 and keep their recorded dense `tid`.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ph = match e.phase {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Instant => "i",
        };
        let ts_us = e.ts_nanos as f64 / 1000.0;
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"{}\",\"ts\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"span\":{},\"parent\":{}}}",
            json_escape(e.name),
            ph,
            ts_us,
            e.tid,
            e.span,
            e.parent
        ));
        if e.phase == Phase::Instant {
            out.push_str(",\"s\":\"t\"");
        }
        out.push('}');
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

/// Sanitizes a dotted metric name into a prometheus-legal one.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Renders a registry snapshot in prometheus text exposition format.
/// Counters and gauges become single samples; histograms emit cumulative
/// `_bucket{le="2^i"}` samples plus `_sum` and `_count`.
pub fn prometheus_text(snapshot: &[MetricSnapshot]) -> String {
    let mut out = String::new();
    for m in snapshot {
        let name = prom_name(m.name);
        match &m.detail {
            MetricDetail::Counter => {
                out.push_str(&format!("# TYPE {name} counter\n{name} {}\n", m.value));
            }
            MetricDetail::Gauge => {
                out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", m.value));
            }
            MetricDetail::Histogram(h) => {
                out.push_str(&format!("# TYPE {name} histogram\n"));
                let mut cumulative = 0u64;
                for (i, &b) in h.buckets.iter().enumerate() {
                    if b == 0 {
                        continue;
                    }
                    cumulative += b;
                    // Bucket i ≥ 1 holds values < 2^i; bucket 0 holds zeros.
                    let le = if i == 0 { 1u128 } else { 1u128 << i };
                    out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
                }
                out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
                out.push_str(&format!("{name}_sum {}\n", h.sum));
                out.push_str(&format!("{name}_count {}\n", h.count));
            }
        }
    }
    out
}

/// A trace-validation failure (see [`validate_trace`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// A thread's timestamps went backwards.
    NonMonotoneTimestamp {
        /// The offending thread.
        tid: u32,
        /// Event index in the drained slice.
        at: usize,
    },
    /// An `End` arrived for a span that is not the innermost open one on
    /// its thread (or was never opened).
    UnbalancedEnd {
        /// The offending thread.
        tid: u32,
        /// Event index in the drained slice.
        at: usize,
    },
    /// A span was opened and never closed.
    UnclosedSpan {
        /// The offending thread.
        tid: u32,
        /// The dangling span id.
        span: u64,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::NonMonotoneTimestamp { tid, at } => {
                write!(f, "tid {tid}: timestamp decreased at event {at}")
            }
            TraceError::UnbalancedEnd { tid, at } => {
                write!(f, "tid {tid}: unbalanced span end at event {at}")
            }
            TraceError::UnclosedSpan { tid, span } => {
                write!(f, "tid {tid}: span {span} never closed")
            }
        }
    }
}

/// The schema checks CI's `obs-smoke` step enforces on a captured trace:
/// per-thread monotone non-decreasing timestamps, balanced begin/end
/// nesting per thread, and no dangling open spans.
pub fn validate_trace(events: &[TraceEvent]) -> Result<(), TraceError> {
    use std::collections::BTreeMap;
    let mut last_ts: BTreeMap<u32, u64> = BTreeMap::new();
    let mut stacks: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for (at, e) in events.iter().enumerate() {
        if let Some(&prev) = last_ts.get(&e.tid) {
            if e.ts_nanos < prev {
                return Err(TraceError::NonMonotoneTimestamp { tid: e.tid, at });
            }
        }
        last_ts.insert(e.tid, e.ts_nanos);
        let stack = stacks.entry(e.tid).or_default();
        match e.phase {
            Phase::Begin => stack.push(e.span),
            Phase::End => {
                if stack.pop() != Some(e.span) {
                    return Err(TraceError::UnbalancedEnd { tid: e.tid, at });
                }
            }
            Phase::Instant => {}
        }
    }
    for (tid, stack) in stacks {
        if let Some(&span) = stack.first() {
            return Err(TraceError::UnclosedSpan { tid, span });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn ev(name: &'static str, phase: Phase, ts: u64, tid: u32, span: u64) -> TraceEvent {
        TraceEvent {
            name,
            phase,
            ts_nanos: ts,
            tid,
            span,
            parent: 0,
        }
    }

    #[test]
    fn chrome_trace_shape() {
        let events = vec![
            ev("a.b", Phase::Begin, 1_000, 0, 1),
            ev("a.c", Phase::Instant, 1_500, 0, 1),
            ev("a.b", Phase::End, 2_000, 0, 1),
        ];
        let json = chrome_trace_json(&events);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ts\":1.000"));
        assert!(json.contains("\"s\":\"t\""));
        assert!(json.ends_with("}"));
    }

    #[test]
    fn prometheus_shape() {
        let reg = Registry::new();
        let c = reg.counter("x.reqs_total");
        c.add(3);
        let h = reg.histogram("x.lat_nanos");
        h.observe(5);
        h.observe(0);
        let text = prometheus_text(&reg.snapshot());
        assert!(text.contains("# TYPE x_lat_nanos histogram\n"));
        assert!(text.contains("x_lat_nanos_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("x_lat_nanos_bucket{le=\"8\"} 2\n"));
        assert!(text.contains("x_lat_nanos_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("x_lat_nanos_sum 5\n"));
        assert!(text.contains("x_lat_nanos_count 2\n"));
        assert!(text.contains("# TYPE x_reqs_total counter\nx_reqs_total 3\n"));
    }

    #[test]
    fn validator_accepts_balanced_and_rejects_broken() {
        let ok = vec![
            ev("s", Phase::Begin, 1, 0, 1),
            ev("t", Phase::Begin, 2, 0, 2),
            ev("t", Phase::End, 3, 0, 2),
            ev("s", Phase::End, 4, 0, 1),
        ];
        assert_eq!(validate_trace(&ok), Ok(()));

        let backwards = vec![ev("s", Phase::Begin, 5, 0, 1), ev("s", Phase::End, 4, 0, 1)];
        assert!(matches!(
            validate_trace(&backwards),
            Err(TraceError::NonMonotoneTimestamp { .. })
        ));

        let crossed = vec![
            ev("s", Phase::Begin, 1, 0, 1),
            ev("t", Phase::Begin, 2, 0, 2),
            ev("s", Phase::End, 3, 0, 1),
        ];
        assert!(matches!(
            validate_trace(&crossed),
            Err(TraceError::UnbalancedEnd { .. })
        ));

        let dangling = vec![ev("s", Phase::Begin, 1, 0, 1)];
        assert!(matches!(
            validate_trace(&dangling),
            Err(TraceError::UnclosedSpan { .. })
        ));

        // Interleaved threads validate independently.
        let threads = vec![
            ev("a", Phase::Begin, 10, 0, 1),
            ev("b", Phase::Begin, 1, 1, 2),
            ev("a", Phase::End, 11, 0, 1),
            ev("b", Phase::End, 2, 1, 2),
        ];
        assert_eq!(validate_trace(&threads), Ok(()));
    }
}
