//! Exporters: Prometheus text exposition and Chrome trace-event JSON.
//!
//! Both are string renderers over plain-data snapshots — no I/O here.
//! The Chrome output loads in `chrome://tracing` and Perfetto
//! (<https://ui.perfetto.dev>): spans become `ph:"X"` complete events,
//! instants become `ph:"i"`, and parent links ride along in `args`.

use crate::hist::{bucket_bounds_us, HistSnapshot, NUM_BOUNDS};
use crate::span::{AttrValue, EventKind, SpanEvent};

// ---------------------------------------------------------------- prometheus

/// Replace every character outside `[a-zA-Z0-9_:]` with `_`; prefix a
/// digit-leading name with `_`. Prometheus metric-name rules.
#[must_use]
pub fn prom_sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escape a label value per the exposition format: backslash, quote, newline.
#[must_use]
pub fn prom_escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Append `# HELP name help` and `# TYPE name kind` once per metric
/// family (tracked via `last_type_line` so consecutive samples of one
/// family emit the pair once). Exposition conformance requires both
/// lines — [`crate::parse_prometheus`] rejects families missing either.
pub fn prom_type_line(
    buf: &mut String,
    last_type_line: &mut String,
    name: &str,
    kind: &str,
    help: &str,
) {
    let line = format!("# TYPE {name} {kind}");
    if *last_type_line != line {
        buf.push_str("# HELP ");
        buf.push_str(name);
        buf.push(' ');
        // HELP text escaping: backslash and newline only (no quotes).
        for c in help.chars() {
            match c {
                '\\' => buf.push_str("\\\\"),
                '\n' => buf.push_str("\\n"),
                _ => buf.push(c),
            }
        }
        buf.push('\n');
        buf.push_str(&line);
        buf.push('\n');
        last_type_line.clone_from(&line);
    }
}

/// Append one `name{labels} value` sample line. `name` must already be
/// sanitized; label values are escaped here.
pub fn prom_sample(buf: &mut String, name: &str, labels: &[(String, String)], value: f64) {
    buf.push_str(name);
    push_labels(buf, labels, None);
    push_value(buf, value);
}

fn push_labels(buf: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    buf.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            buf.push(',');
        }
        first = false;
        buf.push_str(&prom_sanitize_name(k));
        buf.push_str("=\"");
        buf.push_str(&prom_escape_label(v));
        buf.push('"');
    }
    if let Some((k, v)) = extra {
        if !first {
            buf.push(',');
        }
        buf.push_str(k);
        buf.push_str("=\"");
        buf.push_str(&prom_escape_label(v));
        buf.push('"');
    }
    buf.push('}');
}

fn push_value_bare(buf: &mut String, value: f64) {
    if value == value.trunc() && value.abs() < 1e15 {
        let _ = std::fmt::Write::write_fmt(buf, format_args!("{value:.0}"));
    } else {
        let _ = std::fmt::Write::write_fmt(buf, format_args!("{value}"));
    }
}

fn push_value(buf: &mut String, value: f64) {
    buf.push(' ');
    push_value_bare(buf, value);
    buf.push('\n');
}

/// One histogram exemplar: `(bucket_index, job_id, value_secs)` — the
/// last observation that landed in that bucket, tagged with the job that
/// produced it so a bad percentile links back to a retained trace.
pub type HistExemplar = (usize, u64, f64);

/// Render a histogram snapshot in Prometheus histogram convention
/// (`# HELP`/`# TYPE name histogram`, cumulative `_bucket{le="seconds"}`
/// lines, `_sum`, `_count`) plus `_p50` / `_p90` / `_p99` summary
/// gauges. `name` must be sanitized. Each OpenMetrics-style exemplar
/// `(bucket, job, value)` appends `# {job="<id>"} <value>` to that
/// bucket's sample line, linking the bucket to a retained job trace.
pub fn prom_histogram(
    buf: &mut String,
    name: &str,
    help: &str,
    labels: &[(String, String)],
    s: &HistSnapshot,
    exemplars: &[HistExemplar],
) {
    let bounds = bucket_bounds_us();
    let mut last = String::new();
    prom_type_line(buf, &mut last, name, "histogram", help);
    let mut cumulative = 0u64;
    let mut le = String::new();
    for (i, &c) in s.counts.iter().enumerate() {
        cumulative = cumulative.saturating_add(c);
        le.clear();
        if i < NUM_BOUNDS {
            let _ = std::fmt::Write::write_fmt(&mut le, format_args!("{:.9}", bounds[i] / 1e6));
        } else {
            le.push_str("+Inf");
        }
        buf.push_str(name);
        buf.push_str("_bucket");
        push_labels(buf, labels, Some(("le", &le)));
        buf.push(' ');
        push_value_bare(buf, cumulative as f64);
        if let Some((_, job, value)) = exemplars.iter().find(|(b, _, _)| *b == i) {
            let _ = std::fmt::Write::write_fmt(buf, format_args!(" # {{job=\"{job}\"}} "));
            push_value_bare(buf, *value);
        }
        buf.push('\n');
    }
    buf.push_str(name);
    buf.push_str("_sum");
    push_labels(buf, labels, None);
    push_value(buf, s.sum_ns as f64 / 1e9);
    buf.push_str(name);
    buf.push_str("_count");
    push_labels(buf, labels, None);
    push_value(buf, s.count as f64);
    for (suffix, q, qname) in [
        ("_p50", 0.50, "50th"),
        ("_p90", 0.90, "90th"),
        ("_p99", 0.99, "99th"),
    ] {
        let gauge_name = format!("{name}{suffix}");
        prom_type_line(
            buf,
            &mut last,
            &gauge_name,
            "gauge",
            &format!("{qname} percentile of {name} in seconds"),
        );
        buf.push_str(&gauge_name);
        push_labels(buf, labels, None);
        push_value(buf, s.quantile_secs(q));
    }
}

// -------------------------------------------------------------- chrome trace

/// Append a JSON string literal (with quotes) escaping `"`, `\` and
/// control characters.
pub fn json_string_into(buf: &mut String, s: &str) {
    buf.push('"');
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = std::fmt::Write::write_fmt(buf, format_args!("\\u{:04x}", c as u32));
            }
            c => buf.push(c),
        }
    }
    buf.push('"');
}

fn json_attr_value_into(buf: &mut String, v: &AttrValue) {
    match v {
        AttrValue::Int(n) => {
            let _ = std::fmt::Write::write_fmt(buf, format_args!("{n}"));
        }
        AttrValue::Uint(n) => {
            let _ = std::fmt::Write::write_fmt(buf, format_args!("{n}"));
        }
        AttrValue::Float(n) if n.is_finite() => {
            let _ = std::fmt::Write::write_fmt(buf, format_args!("{n}"));
        }
        AttrValue::Float(n) => {
            json_string_into(buf, &n.to_string());
        }
        AttrValue::Str(s) => json_string_into(buf, s),
    }
}

/// Render finished span events as a Chrome trace-event JSON document:
/// `{"traceEvents":[...]}`, loadable in `chrome://tracing` and Perfetto.
#[must_use]
pub fn chrome_trace(events: &[SpanEvent]) -> String {
    let mut buf = String::with_capacity(64 + events.len() * 128);
    buf.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        buf.push_str("{\"name\":");
        json_string_into(&mut buf, e.name);
        buf.push_str(",\"cat\":\"columba\",\"ph\":");
        match e.kind {
            EventKind::Span => {
                let _ = std::fmt::Write::write_fmt(
                    &mut buf,
                    format_args!("\"X\",\"ts\":{},\"dur\":{}", e.start_us, e.dur_us),
                );
            }
            EventKind::Instant => {
                let _ = std::fmt::Write::write_fmt(
                    &mut buf,
                    format_args!("\"i\",\"s\":\"t\",\"ts\":{}", e.start_us),
                );
            }
        }
        let _ = std::fmt::Write::write_fmt(
            &mut buf,
            format_args!(
                ",\"pid\":1,\"tid\":{},\"args\":{{\"span_id\":{}",
                e.tid, e.id
            ),
        );
        if let Some(parent) = e.parent {
            let _ = std::fmt::Write::write_fmt(&mut buf, format_args!(",\"parent\":{parent}"));
        }
        for (k, v) in &e.attrs {
            buf.push(',');
            json_string_into(&mut buf, k);
            buf.push(':');
            json_attr_value_into(&mut buf, v);
        }
        buf.push_str("}}");
    }
    buf.push_str("]}");
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_and_escape() {
        assert_eq!(prom_sanitize_name("http.req-latency"), "http_req_latency");
        assert_eq!(prom_sanitize_name("9lives"), "_9lives");
        assert_eq!(prom_escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn histogram_render_is_cumulative() {
        let h = crate::hist::Histogram::new();
        h.record(std::time::Duration::from_micros(1));
        h.record(std::time::Duration::from_micros(100));
        let mut out = String::new();
        prom_histogram(
            &mut out,
            "x_seconds",
            "test latency",
            &[],
            &h.snapshot(),
            &[],
        );
        assert!(out.contains("# HELP x_seconds test latency"));
        assert!(out.contains("# TYPE x_seconds histogram"));
        assert!(out.contains("x_seconds_bucket{le=\"0.000001000\"} 1"));
        assert!(out.contains("x_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(out.contains("x_seconds_count 2"));
        assert!(out.contains("# TYPE x_seconds_p50 gauge"));
        assert!(out.contains("x_seconds_p99"));
    }

    #[test]
    fn histogram_exemplars_ride_their_bucket_line() {
        let h = crate::hist::Histogram::new();
        h.record(std::time::Duration::from_micros(100));
        let idx = crate::hist::bucket_index(100.0);
        let mut out = String::new();
        prom_histogram(
            &mut out,
            "x_seconds",
            "test latency",
            &[],
            &h.snapshot(),
            &[(idx, 17, 0.0001)],
        );
        let line = out
            .lines()
            .find(|l| l.contains("# {job=\"17\"}"))
            .expect("exemplar line");
        assert!(line.starts_with("x_seconds_bucket{le="), "{line}");
        assert!(line.ends_with("# {job=\"17\"} 0.0001"), "{line}");
    }

    #[test]
    fn chrome_trace_shape() {
        let events = vec![SpanEvent {
            id: 1,
            parent: None,
            name: "solve",
            start_us: 10,
            dur_us: 500,
            tid: 1,
            attrs: vec![("nodes", AttrValue::Uint(42))],
            kind: EventKind::Span,
        }];
        let json = chrome_trace(&events);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"nodes\":42"));
    }
}
