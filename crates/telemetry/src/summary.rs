//! Aggregate summaries: a JSON-serializable digest of one run's telemetry
//! plus a flat CSV rendering for spreadsheets.

use crate::hist::Log2Histogram;
use crate::recorder::Telemetry;
use regless_json::{Json, ToJson};

/// Digest of one named histogram: the headline statistics without the raw
/// buckets.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSummary {
    /// Histogram name (e.g. `"preload.latency"`).
    pub name: String,
    /// Recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Mean of recorded values.
    pub mean: f64,
    /// Approximate median (bucket upper bound).
    pub p50: u64,
    /// Approximate 99th percentile (bucket upper bound).
    pub p99: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl HistogramSummary {
    fn of(name: &str, h: &Log2Histogram) -> HistogramSummary {
        HistogramSummary {
            name: name.to_string(),
            count: h.count(),
            sum: h.sum(),
            mean: h.mean(),
            p50: h.percentile(50.0),
            p99: h.percentile(99.0),
            max: h.max(),
        }
    }
}

regless_json::impl_json_struct!(HistogramSummary {
    name,
    count,
    sum,
    mean,
    p50,
    p99,
    max
});

/// The run-level digest: counters verbatim, histograms reduced to their
/// headline statistics, plus event-buffer accounting.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct TelemetrySummary {
    /// Structured events kept in the buffer.
    pub events: u64,
    /// Events dropped past the buffer capacity.
    pub dropped: u64,
    /// Monotone counters by name.
    pub counters: Vec<(String, u64)>,
    /// Histogram digests, ordered by name.
    pub histograms: Vec<HistogramSummary>,
}

impl TelemetrySummary {
    /// Summarize a run's telemetry.
    pub fn of(t: &Telemetry) -> TelemetrySummary {
        TelemetrySummary {
            events: t.events.len() as u64,
            dropped: t.dropped,
            counters: t.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            histograms: t
                .histograms
                .iter()
                .map(|(k, v)| HistogramSummary::of(k, v))
                .collect(),
        }
    }

    /// Value of a named counter, if recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }
}

impl ToJson for TelemetrySummary {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("events".into(), self.events.to_json()),
            ("dropped".into(), self.dropped.to_json()),
            (
                "counters".into(),
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            ),
            ("histograms".into(), self.histograms.to_json()),
        ])
    }
}

impl regless_json::FromJson for TelemetrySummary {
    fn from_json(v: &Json) -> Result<Self, regless_json::JsonError> {
        let counters = match v.field("counters")? {
            Json::Obj(fields) => fields
                .iter()
                .map(|(k, v)| Ok((k.clone(), regless_json::FromJson::from_json(v)?)))
                .collect::<Result<Vec<_>, regless_json::JsonError>>()?,
            other => {
                return Err(regless_json::JsonError::new(format!(
                    "expected object for counters, got {}",
                    other.kind()
                )))
            }
        };
        Ok(TelemetrySummary {
            events: regless_json::FromJson::from_json(v.field("events")?)?,
            dropped: regless_json::FromJson::from_json(v.field("dropped")?)?,
            counters,
            histograms: regless_json::FromJson::from_json(v.field("histograms")?)?,
        })
    }
}

fn csv_escape(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Render telemetry as flat CSV: one `counter` row per counter and one
/// `histogram` row per histogram, sharing a single header.
pub fn summary_csv(t: &Telemetry) -> String {
    use std::fmt::Write as _;
    let s = TelemetrySummary::of(t);
    let mut out = String::from("kind,name,count,sum,mean,p50,p99,max\n");
    let _ = writeln!(out, "meta,events,{},,,,,", s.events);
    let _ = writeln!(out, "meta,dropped,{},,,,,", s.dropped);
    for (name, v) in &s.counters {
        let _ = writeln!(out, "counter,{},{v},,,,,", csv_escape(name));
    }
    for h in &s.histograms {
        let _ = writeln!(
            out,
            "histogram,{},{},{},{:.3},{},{},{}",
            csv_escape(&h.name),
            h.count,
            h.sum,
            h.mean,
            h.p50,
            h.p99,
            h.max
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::MemoryRecorder;

    fn sample_telemetry() -> Telemetry {
        let mut r = MemoryRecorder::new(16);
        for v in [3u64, 5, 90, 4096] {
            r.observe("preload.latency", v);
        }
        let mut t = r.into_telemetry();
        t.add_counter("insns", 42);
        t.add_counter("preload.osu_hits", 7);
        t
    }

    #[test]
    fn summary_digests_counters_and_histograms() {
        let s = TelemetrySummary::of(&sample_telemetry());
        assert_eq!(s.counter("insns"), Some(42));
        assert_eq!(s.counter("missing"), None);
        assert_eq!(s.histograms.len(), 1);
        let h = &s.histograms[0];
        assert_eq!((h.count, h.max), (4, 4096));
        assert!(h.p50 <= 8 && h.p99 <= 4096);
    }

    #[test]
    fn summary_json_round_trips() {
        let s = TelemetrySummary::of(&sample_telemetry());
        let json = regless_json::to_string(&s);
        let back: TelemetrySummary = regless_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn csv_has_header_and_one_row_per_entry() {
        let csv = summary_csv(&sample_telemetry());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "kind,name,count,sum,mean,p50,p99,max");
        // header + 2 meta + 2 counters + 1 histogram
        assert_eq!(lines.len(), 6);
        assert!(lines.iter().any(|l| l.starts_with("counter,insns,42")));
        assert!(lines
            .iter()
            .any(|l| l.starts_with("histogram,preload.latency,4,")));
    }
}
