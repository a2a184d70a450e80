//! Metrics snapshots: named counters, gauges, and histogram digests
//! built on demand from a component's live state and rendered as JSON,
//! Prometheus text exposition, or a human table.
//!
//! Naming scheme: `regless_<component>_<metric>` with counters suffixed
//! `_total` (Prometheus convention), e.g. `regless_serve_submitted_total`.
//! Histograms export as summaries —
//! count, sum, and the p50/p99/max the `Log2Histogram` already answers —
//! because log2 bucket edges are ours, not Prometheus's.

use crate::hist::Log2Histogram;
use regless_json::{Json, ToJson};

/// The value of one metric at snapshot time.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Monotonically non-decreasing count (requests, rejects, reaps).
    Counter(u64),
    /// Point-in-time level (queue depth, in-flight, cache bytes).
    Gauge(f64),
    /// Digest of a [`Log2Histogram`]: count, sum, and key percentiles.
    Summary {
        /// Samples recorded.
        count: u64,
        /// Sum of all samples.
        sum: u64,
        /// Median (upper log2-bucket edge).
        p50: u64,
        /// 99th percentile (upper log2-bucket edge).
        p99: u64,
        /// Largest sample.
        max: u64,
    },
}

impl MetricValue {
    /// Digest a histogram into a [`MetricValue::Summary`].
    pub fn from_hist(h: &Log2Histogram) -> MetricValue {
        MetricValue::Summary {
            count: h.count(),
            sum: h.sum(),
            p50: h.percentile(50.0),
            p99: h.percentile(99.0),
            max: h.max(),
        }
    }
}

/// One named metric with its help text.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Full metric name (`regless_<component>_<metric>[_total]`).
    pub name: String,
    /// One-line description, emitted as the Prometheus `# HELP` line.
    pub help: String,
    /// The sampled value.
    pub value: MetricValue,
}

/// A point-in-time set of metrics from one process, answering the
/// `metrics` protocol request. Ordering is the registration order, which
/// components keep deterministic so text output diffs cleanly.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Process label (`"serve"`), echoed in output.
    pub process: String,
    /// The metrics, in registration order.
    pub metrics: Vec<Metric>,
}

impl MetricsSnapshot {
    /// An empty snapshot for `process`.
    pub fn new(process: impl Into<String>) -> MetricsSnapshot {
        MetricsSnapshot {
            process: process.into(),
            metrics: Vec::new(),
        }
    }

    /// Append a counter.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            value: MetricValue::Counter(value),
        });
    }

    /// Append a gauge.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            value: MetricValue::Gauge(value),
        });
    }

    /// Append a histogram digest.
    pub fn summary(&mut self, name: &str, help: &str, hist: &Log2Histogram) {
        self.metrics.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            value: MetricValue::from_hist(hist),
        });
    }

    /// The flat `stats` view of the metrics named `<prefix><name>`, in
    /// registration order: a counter `<key>_total` becomes `<key>`, a
    /// gauge `<key>` becomes the integer `<key>` (`uptime_seconds` becomes
    /// `uptime_ms`), and the summaries `<kind>_latency_ms` go last, as
    /// `latency.<kind>` objects of `count`, `mean_ms`, `p50_ms`, `p99_ms`
    /// and `max_ms`. The event log's `log_dropped_total` belongs to the
    /// log and is left out, as is every metric outside the prefix.
    pub fn stats_fields(&self, prefix: &str) -> Vec<(String, Json)> {
        let mut fields = Vec::new();
        let mut latency = Vec::new();
        for m in &self.metrics {
            let Some(key) = m.name.strip_prefix(prefix) else {
                continue;
            };
            match &m.value {
                MetricValue::Counter(_) if key == "log_dropped_total" => {}
                MetricValue::Counter(v) => {
                    let key = key.strip_suffix("_total").unwrap_or(key);
                    fields.push((key.to_string(), ToJson::to_json(v)));
                }
                MetricValue::Gauge(v) if key == "uptime_seconds" => {
                    fields.push((
                        "uptime_ms".to_string(),
                        ToJson::to_json(&((v * 1e3) as u64)),
                    ));
                }
                MetricValue::Gauge(v) => {
                    fields.push((key.to_string(), ToJson::to_json(&(*v as u64))));
                }
                MetricValue::Summary {
                    count,
                    sum,
                    p50,
                    p99,
                    max,
                } => {
                    let kind = key.strip_suffix("_latency_ms").unwrap_or(key);
                    let mean = if *count == 0 {
                        0.0
                    } else {
                        *sum as f64 / *count as f64
                    };
                    latency.push((
                        kind.to_string(),
                        Json::Obj(vec![
                            ("count".to_string(), ToJson::to_json(count)),
                            ("mean_ms".to_string(), Json::Float(mean)),
                            ("p50_ms".to_string(), ToJson::to_json(p50)),
                            ("p99_ms".to_string(), ToJson::to_json(p99)),
                            ("max_ms".to_string(), ToJson::to_json(max)),
                        ]),
                    ));
                }
            }
        }
        if !latency.is_empty() {
            fields.push(("latency".to_string(), Json::Obj(latency)));
        }
        fields
    }

    /// Serialize for the `metrics` protocol response.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("name".into(), Json::Str(m.name.clone())),
                    ("help".into(), Json::Str(m.help.clone())),
                ];
                match &m.value {
                    MetricValue::Counter(v) => {
                        fields.push(("type".into(), Json::Str("counter".into())));
                        fields.push(("value".into(), Json::Uint(*v)));
                    }
                    MetricValue::Gauge(v) => {
                        fields.push(("type".into(), Json::Str("gauge".into())));
                        fields.push(("value".into(), Json::Float(*v)));
                    }
                    MetricValue::Summary {
                        count,
                        sum,
                        p50,
                        p99,
                        max,
                    } => {
                        fields.push(("type".into(), Json::Str("summary".into())));
                        fields.push((
                            "value".into(),
                            Json::Obj(vec![
                                ("count".into(), Json::Uint(*count)),
                                ("sum".into(), Json::Uint(*sum)),
                                ("p50".into(), Json::Uint(*p50)),
                                ("p99".into(), Json::Uint(*p99)),
                                ("max".into(), Json::Uint(*max)),
                            ]),
                        ));
                    }
                }
                Json::Obj(fields)
            })
            .collect();
        Json::Obj(vec![
            ("process".into(), Json::Str(self.process.clone())),
            ("metrics".into(), Json::Arr(metrics)),
        ])
    }

    /// Parse a `metrics` response payload back into a snapshot (the CLI
    /// side of the wire). Unknown metric types are skipped, not errors,
    /// so a newer server never breaks an older `regless obs`.
    pub fn from_json(json: &Json) -> Option<MetricsSnapshot> {
        fn u64_of(v: &Json) -> Option<u64> {
            match v {
                Json::Uint(u) => Some(*u),
                Json::Int(i) if *i >= 0 => Some(*i as u64),
                _ => None,
            }
        }
        let process = match json.field("process").ok()? {
            Json::Str(s) => s.clone(),
            _ => return None,
        };
        let Json::Arr(items) = json.field("metrics").ok()? else {
            return None;
        };
        let mut snap = MetricsSnapshot::new(process);
        for item in items {
            let (Ok(Json::Str(name)), Ok(Json::Str(help)), Ok(Json::Str(kind))) =
                (item.field("name"), item.field("help"), item.field("type"))
            else {
                continue;
            };
            let Ok(value) = item.field("value") else {
                continue;
            };
            let parsed = match (kind.as_str(), value) {
                ("counter", v) => u64_of(v).map(MetricValue::Counter),
                ("gauge", Json::Float(f)) => Some(MetricValue::Gauge(*f)),
                ("gauge", v) => u64_of(v).map(|u| MetricValue::Gauge(u as f64)),
                ("summary", obj) => Some(MetricValue::Summary {
                    count: obj.field("count").ok().and_then(u64_of)?,
                    sum: obj.field("sum").ok().and_then(u64_of)?,
                    p50: obj.field("p50").ok().and_then(u64_of)?,
                    p99: obj.field("p99").ok().and_then(u64_of)?,
                    max: obj.field("max").ok().and_then(u64_of)?,
                }),
                _ => None,
            };
            if let Some(value) = parsed {
                snap.metrics.push(Metric {
                    name: name.clone(),
                    help: help.clone(),
                    value,
                });
            }
        }
        Some(snap)
    }

    /// Render in the Prometheus text exposition format (`# HELP` /
    /// `# TYPE` plus one sample line per value; summaries expand to
    /// `{quantile="..."}`-labeled lines with `_sum` / `_count`).
    pub fn render_prom(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!("# HELP {} {}\n", m.name, m.help));
            match &m.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("# TYPE {} counter\n{} {v}\n", m.name, m.name));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("# TYPE {} gauge\n{} {v}\n", m.name, m.name));
                }
                MetricValue::Summary {
                    count,
                    sum,
                    p50,
                    p99,
                    max,
                } => {
                    out.push_str(&format!("# TYPE {} summary\n", m.name));
                    out.push_str(&format!("{}{{quantile=\"0.5\"}} {p50}\n", m.name));
                    out.push_str(&format!("{}{{quantile=\"0.99\"}} {p99}\n", m.name));
                    out.push_str(&format!("{}{{quantile=\"1\"}} {max}\n", m.name));
                    out.push_str(&format!("{}_sum {sum}\n", m.name));
                    out.push_str(&format!("{}_count {count}\n", m.name));
                }
            }
        }
        out
    }

    /// Render as an aligned two-column table for terminals.
    pub fn render_table(&self) -> String {
        let mut rows: Vec<(String, String)> = Vec::new();
        for m in &self.metrics {
            let rendered = match &m.value {
                MetricValue::Counter(v) => v.to_string(),
                MetricValue::Gauge(v) => {
                    if v.fract() == 0.0 && v.abs() < 1e15 {
                        format!("{v:.0}")
                    } else {
                        format!("{v:.3}")
                    }
                }
                MetricValue::Summary {
                    count,
                    p50,
                    p99,
                    max,
                    ..
                } => format!("n={count} p50={p50} p99={p99} max={max}"),
            };
            rows.push((m.name.clone(), rendered));
        }
        let width = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        let mut out = format!("metrics for {}\n", self.process);
        for (name, value) in rows {
            out.push_str(&format!("  {name:<width$}  {value}\n"));
        }
        out
    }
}

/// Validate Prometheus text exposition line-by-line: every non-blank
/// line is either a `#` comment or `name[{labels}] value`, with the
/// metric name matching `[a-zA-Z_:][a-zA-Z0-9_:]*` and the value a
/// finite decimal. Returns the number of sample lines.
///
/// # Errors
///
/// The first offending line, quoted, with its 1-based line number.
pub fn check_prom_format(text: &str) -> Result<usize, String> {
    fn valid_name(name: &str) -> bool {
        let mut bytes = name.bytes();
        let Some(first) = bytes.next() else {
            return false;
        };
        (first.is_ascii_alphabetic() || first == b'_' || first == b':')
            && bytes.all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b':')
    }
    let mut samples = 0;
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |what: &str| Err(format!("line {}: {what}: {line:?}", idx + 1));
        // Split the name (with optional {labels}) from the value. The
        // closing brace is found with a quote-aware scan: label values
        // are quoted strings with `\"` / `\\` escaping, so a `}` (or an
        // escaped quote) inside a value must not end the label block.
        let (name_part, value_part) = match line.find('{') {
            Some(open) => {
                let mut close = None;
                let mut in_quotes = false;
                let mut escaped = false;
                for (i, c) in line[open..].char_indices() {
                    match c {
                        _ if escaped => escaped = false,
                        '\\' if in_quotes => escaped = true,
                        '"' => in_quotes = !in_quotes,
                        '}' if !in_quotes => {
                            close = Some(i);
                            break;
                        }
                        _ => {}
                    }
                }
                let Some(close) = close else {
                    return err("unclosed label braces");
                };
                (&line[..open], line[open + close + 1..].trim_start())
            }
            None => match line.split_once(' ') {
                Some((n, v)) => (n, v.trim_start()),
                None => return err("expected `name value`"),
            },
        };
        if !valid_name(name_part) {
            return err("invalid metric name");
        }
        let value = value_part.split_whitespace().next().unwrap_or("");
        match value.parse::<f64>() {
            Ok(v) if v.is_finite() => {}
            _ => return err("invalid sample value"),
        }
        samples += 1;
    }
    Ok(samples)
}

/// Render a byte count with a unit suited to its magnitude — the one
/// humanized formatter shared by `sweep --stats` and `sweep --gc`, so
/// readers never have to guess whether a number is bytes or MiB.
pub fn format_bytes(bytes: u64) -> String {
    if bytes < 1024 {
        format!("{bytes} B")
    } else if bytes < 1024 * 1024 {
        format!("{:.1} KiB", bytes as f64 / 1024.0)
    } else {
        format!("{:.1} MiB", bytes as f64 / (1024.0 * 1024.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        let mut h = Log2Histogram::new();
        for v in [1u64, 2, 3, 100, 5000] {
            h.record(v);
        }
        let mut snap = MetricsSnapshot::new("serve");
        snap.counter("regless_serve_submitted_total", "Requests admitted", 42);
        snap.gauge("regless_serve_in_flight", "Jobs currently running", 3.0);
        snap.summary("regless_serve_run_latency_us", "run latency", &h);
        snap
    }

    #[test]
    fn snapshot_json_round_trips() {
        let snap = sample();
        let parsed = MetricsSnapshot::from_json(&snap.to_json()).expect("parses");
        assert_eq!(parsed, snap);
    }

    #[test]
    fn stats_fields_project_the_prefixed_metrics() {
        let mut h = Log2Histogram::new();
        for v in [2u64, 4] {
            h.record(v);
        }
        let mut snap = MetricsSnapshot::new("serve");
        snap.counter("regless_serve_submitted_total", "Requests", 42);
        snap.counter("regless_serve_log_dropped_total", "Log drops", 1);
        snap.counter("regless_selfprof_sweep_simulate_calls_total", "Calls", 9);
        snap.gauge("regless_serve_queue_depth", "Queued", 3.0);
        snap.gauge("regless_serve_uptime_seconds", "Uptime", 1.5);
        snap.summary("regless_serve_run_latency_ms", "run latency", &h);
        let fields = Json::Obj(snap.stats_fields("regless_serve_"));
        let text = fields.to_string_compact();
        assert_eq!(
            text,
            "{\"submitted\":42,\"queue_depth\":3,\"uptime_ms\":1500,\
             \"latency\":{\"run\":{\"count\":2,\"mean_ms\":3.0,\"p50_ms\":4,\
             \"p99_ms\":4,\"max_ms\":4}}}"
        );
    }

    #[test]
    fn prom_rendering_passes_the_format_check() {
        let text = sample().render_prom();
        // counter 1 + gauge 1 + summary 5 sample lines.
        assert_eq!(check_prom_format(&text), Ok(7), "{text}");
        assert!(text.contains("# TYPE regless_serve_submitted_total counter"));
        assert!(text.contains("regless_serve_run_latency_us{quantile=\"0.99\"}"));
        assert!(text.contains("regless_serve_run_latency_us_count 5"));
    }

    #[test]
    fn format_check_rejects_malformed_lines() {
        assert!(check_prom_format("9bad_name 1\n").is_err(), "leading digit");
        assert!(
            check_prom_format("name{oops 1\n").is_err(),
            "unclosed brace"
        );
        assert!(check_prom_format("name notanumber\n").is_err());
        assert!(check_prom_format("namewithoutvalue\n").is_err());
        assert_eq!(check_prom_format("# just a comment\n\n"), Ok(0));
        assert_eq!(check_prom_format("ok_name 1.5\nx{a=\"b\"} 2\n"), Ok(2));
    }

    #[test]
    fn table_rendering_lists_every_metric() {
        let text = sample().render_table();
        assert!(text.contains("metrics for serve"), "{text}");
        assert!(text.contains("regless_serve_submitted_total"), "{text}");
        assert!(text.contains("p99="), "{text}");
    }

    #[test]
    fn byte_formatting_scales_units() {
        assert_eq!(format_bytes(0), "0 B");
        assert_eq!(format_bytes(1023), "1023 B");
        assert_eq!(format_bytes(1024), "1.0 KiB");
        assert_eq!(format_bytes(1536), "1.5 KiB");
        assert_eq!(format_bytes(5 * 1024 * 1024), "5.0 MiB");
    }

    #[test]
    fn byte_formatting_boundaries_at_exact_powers_of_1024() {
        // Both sides of each tier edge.
        assert_eq!(format_bytes(1), "1 B");
        assert_eq!(format_bytes(1024 * 1024 - 1), "1024.0 KiB");
        assert_eq!(format_bytes(1024 * 1024), "1.0 MiB");
        // MiB is the top tier: 1024^3 stays in MiB rather than inventing
        // a GiB unit no cache report currently reaches.
        assert_eq!(format_bytes(1024 * 1024 * 1024), "1024.0 MiB");
        assert!(format_bytes(u64::MAX).ends_with(" MiB"), "no overflow");
    }

    #[test]
    fn format_check_handles_names_and_labels_needing_escaping() {
        // Colons are legal anywhere in a metric name; a single colon or
        // underscore is a legal whole name.
        assert_eq!(check_prom_format("ns:sub:metric_total 1\n"), Ok(1));
        assert_eq!(check_prom_format(": 0\n_ 0\n"), Ok(2));
        // Label values may contain Prometheus-escaped quotes and
        // backslashes; neither may end the label block early.
        assert_eq!(check_prom_format("x{msg=\"say \\\"hi\\\"\"} 1\n"), Ok(1));
        assert_eq!(check_prom_format("x{path=\"C:\\\\tmp\"} 2\n"), Ok(1));
        // A close brace inside a quoted value is part of the value, not
        // the end of the labels (the quote-aware scan).
        assert_eq!(check_prom_format("x{expr=\"a}b\"} 3\n"), Ok(1));
        // A brace opened inside a value but never closed outside one is
        // still an error.
        assert!(check_prom_format("x{expr=\"a}b\" 3\n").is_err());
        // Names that need escaping are rejected, not mangled.
        assert!(check_prom_format("bad-name 1\n").is_err(), "dash");
        assert!(check_prom_format("bad.name 1\n").is_err(), "dot");
        assert!(check_prom_format("b\u{e9}zier 1\n").is_err(), "non-ascii");
    }
}
