//! The perf-trend observatory: flat metric rows distilled from the
//! `BENCH_profile.json` benchmark artifact and from `regless report
//! --trend` runs into one append-only `results/trends.jsonl`, a
//! rolling-median regression gate, and an HTML trend dashboard.
//!
//! Like [`crate::report`], this module is pure presentation and
//! arithmetic: the `regless trends` verb does the file I/O and timestamp
//! stamping, then calls in here with strings and parsed JSON.

use crate::report::{escape, polyline, Report, STYLE};
use regless_json::Json;

/// One row of `trends.jsonl`: a single metric observation.
#[derive(Clone, Debug, PartialEq)]
pub struct TrendPoint {
    /// Unix epoch seconds when the row was ingested (0 for synthetic
    /// rows whose order alone matters).
    pub ts: u64,
    /// Where the value came from: the benchmark artifact (`profile`) or a
    /// `regless report --trend` run (`report`).
    pub source: String,
    /// Dotted metric name (`profile.regless_mean_ipc`,
    /// `report.nn.regless@512.ipc`).
    pub metric: String,
    /// The observed value.
    pub value: f64,
    /// Display unit (`cycles/s`, `ms`, `x`, …).
    pub unit: String,
}

regless_json::impl_json_struct!(TrendPoint {
    ts,
    source,
    metric,
    value,
    unit
});

impl TrendPoint {
    /// The compact single-line form appended to `trends.jsonl`.
    pub fn to_jsonl_line(&self) -> String {
        regless_json::to_string(self)
    }
}

/// Parse a `trends.jsonl` body into rows, in file order. Malformed
/// lines (hand edits, partial writes) are skipped, not fatal — the same
/// contract as every other JSONL reader here.
pub fn parse_trends(text: &str) -> Vec<TrendPoint> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| regless_json::from_str(l).ok())
        .collect()
}

/// Whether a bigger value of `metric` is better (throughput, IPC,
/// speedup) or worse (latency, cycle counts, wall time). Direction is
/// derived from the name's last dotted segment, so synthetic rows need
/// no extra schema and a kernel name inside a `report` metric cannot
/// flip it.
pub fn higher_is_better(metric: &str) -> bool {
    let leaf = metric.rsplit('.').next().unwrap_or(metric);
    let lower_is_better = ["_ms", "latency", "cycles", "seconds", "wall"];
    !lower_is_better.iter().any(|needle| leaf.contains(needle))
}

fn f64_of(v: &Json) -> Option<f64> {
    match v {
        Json::Float(f) => Some(*f),
        Json::Uint(u) => Some(*u as f64),
        Json::Int(i) => Some(*i as f64),
        _ => None,
    }
}

fn num_field(json: &Json, name: &str) -> Option<f64> {
    f64_of(json.field(name).ok()?)
}

fn point(source: &str, metric: &str, value: f64, unit: &str) -> TrendPoint {
    TrendPoint {
        ts: 0,
        source: source.to_string(),
        metric: metric.to_string(),
        value,
        unit: unit.to_string(),
    }
}

/// The rolling-median window `regless trends` and the run dashboard's
/// trajectory table use unless told otherwise.
pub const DEFAULT_WINDOW: usize = 8;

/// One run's trend rows (source `report`, `ts` left at 0 for the caller
/// to stamp): its cycles and IPC under
/// `report.<kernel>.<design>[@<capacity>]`, the capacity shown for the
/// designs that have one.
pub fn report_points(report: &Report) -> Vec<TrendPoint> {
    let mut name = format!("report.{}.{}", report.kernel, report.design);
    if report.capacity > 0 {
        name = format!("{name}@{}", report.capacity);
    }
    vec![
        point(
            "report",
            &format!("{name}.cycles"),
            report.cycles as f64,
            "cycles",
        ),
        point("report", &format!("{name}.ipc"), report.ipc, "ipc"),
    ]
}

/// Distill the `BENCH_profile.json` artifact into trend rows (source
/// `profile`, `ts` left at 0 for the caller to stamp): mean RegLess IPC
/// and total RegLess cycles over the benchmark suite at the paper's
/// 512-entry design point. Missing fields yield an empty vec rather than
/// an error, so a partial artifact ingests whatever it has.
pub fn ingest(json: &Json) -> Vec<TrendPoint> {
    let Json::Arr(profiles) = json else {
        return Vec::new();
    };
    let (mut ipc_sum, mut cycles, mut n) = (0.0, 0.0, 0u64);
    for p in profiles {
        let Ok(rl) = p.field("regless") else {
            continue;
        };
        let (Some(ipc), Some(c)) = (num_field(rl, "ipc"), num_field(rl, "cycles")) else {
            continue;
        };
        ipc_sum += ipc;
        cycles += c;
        n += 1;
    }
    if n == 0 {
        return Vec::new();
    }
    vec![
        point(
            "profile",
            "profile.regless_mean_ipc",
            ipc_sum / n as f64,
            "ipc",
        ),
        point("profile", "profile.regless_total_cycles", cycles, "cycles"),
    ]
}

/// One detected regression: the newest observation of a metric sits a
/// relative threshold past the rolling median of its recent history.
#[derive(Clone, Debug, PartialEq)]
pub struct Regression {
    /// The regressing metric.
    pub metric: String,
    /// The newest value.
    pub current: f64,
    /// The rolling median it was compared against.
    pub median: f64,
    /// Percent worse than the median (always positive; direction-aware
    /// per [`higher_is_better`]).
    pub pct_worse: f64,
}

impl Regression {
    /// The gate's one-line verdict naming the metric and both values —
    /// the same shape as `regless diff`'s failure output.
    pub fn render(&self, threshold_pct: f64) -> String {
        format!(
            "trend regression: {} is {:.1}% worse than its rolling median \
             (current {}, median {}; threshold {threshold_pct}%)",
            self.metric,
            self.pct_worse,
            trim(self.current),
            trim(self.median)
        )
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The per-metric histories, in first-seen metric order, each history in
/// row order (the append-only file is already chronological).
fn histories(points: &[TrendPoint]) -> Vec<(String, Vec<f64>)> {
    let mut out: Vec<(String, Vec<f64>)> = Vec::new();
    for p in points {
        match out.iter_mut().find(|(m, _)| *m == p.metric) {
            Some((_, vs)) => vs.push(p.value),
            None => out.push((p.metric.clone(), vec![p.value])),
        }
    }
    out
}

/// Compare each metric's newest value against the median of the up-to-
/// `window` observations before it; report those at least
/// `threshold_pct` percent worse (direction-aware). Metrics with fewer
/// than two prior observations have no meaningful median and are
/// skipped.
pub fn detect_regressions(
    points: &[TrendPoint],
    window: usize,
    threshold_pct: f64,
) -> Vec<Regression> {
    let mut out = Vec::new();
    for (metric, values) in histories(points) {
        let Some((&current, prior)) = values.split_last() else {
            continue;
        };
        if prior.len() < 2 {
            continue;
        }
        let mut recent: Vec<f64> = prior[prior.len().saturating_sub(window)..].to_vec();
        let med = median(&mut recent);
        if med == 0.0 {
            continue;
        }
        let pct_worse = if higher_is_better(&metric) {
            (med - current) / med * 100.0
        } else {
            (current - med) / med * 100.0
        };
        if pct_worse >= threshold_pct {
            out.push(Regression {
                metric,
                current,
                median: med,
                pct_worse,
            });
        }
    }
    out
}

/// Compact value rendering: integers for big magnitudes, three decimals
/// otherwise.
fn trim(v: f64) -> String {
    if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

/// Aligned per-metric summary (latest value, rolling median, delta) for
/// the terminal.
pub fn trends_table(points: &[TrendPoint], window: usize) -> String {
    use std::fmt::Write as _;
    let hs = histories(points);
    if hs.is_empty() {
        return "  (no trend history)\n".to_string();
    }
    let unit_of = |metric: &str| {
        points
            .iter()
            .rev()
            .find(|p| p.metric == metric)
            .map_or(String::new(), |p| p.unit.clone())
    };
    let width = hs.iter().map(|(m, _)| m.len()).max().unwrap_or(6).max(6);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  {:<width$} {:>4} {:>14} {:>14} {:>8}  unit",
        "metric", "rows", "latest", "median", "delta"
    );
    for (metric, values) in &hs {
        let current = *values.last().expect("histories are non-empty");
        let prior = &values[..values.len() - 1];
        let (median_s, delta_s) = if prior.len() >= 2 {
            let mut recent: Vec<f64> = prior[prior.len().saturating_sub(window)..].to_vec();
            let med = median(&mut recent);
            let delta = if med == 0.0 {
                0.0
            } else {
                (current - med) / med * 100.0
            };
            (trim(med), format!("{delta:+.1}%"))
        } else {
            ("-".to_string(), "-".to_string())
        };
        let _ = writeln!(
            out,
            "  {:<width$} {:>4} {:>14} {:>14} {:>8}  {}",
            metric,
            values.len(),
            trim(current),
            median_s,
            delta_s,
            unit_of(metric)
        );
    }
    out
}

/// Render the self-contained HTML trend dashboard: one sparkline and
/// history row per metric, same styling as the run dashboard.
pub fn render_trends_html(points: &[TrendPoint], window: usize) -> String {
    use std::fmt::Write as _;
    let mut h = String::new();
    let _ = write!(
        h,
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n\
         <title>regless trends</title>\n"
    );
    h.push_str(STYLE);
    h.push_str("</head><body>\n<h1>regless performance trends</h1>\n");
    let hs = histories(points);
    if hs.is_empty() {
        h.push_str(
            "<p>(no trend history yet: run <code>regless trends</code> \
                    after a bench produces a BENCH_*.json)</p>\n",
        );
    }
    for (metric, values) in &hs {
        let unit = points
            .iter()
            .rev()
            .find(|p| p.metric == *metric)
            .map_or("", |p| p.unit.as_str());
        let _ = writeln!(
            h,
            "<h2>{} <small>({} rows, {})</small></h2>",
            escape(metric),
            values.len(),
            escape(unit)
        );
        // Normalize to the shared 640x120 polyline canvas: values scale
        // into 0..=1000 against the series maximum.
        let ceiling = values.iter().cloned().fold(f64::MIN, f64::max).max(1e-12);
        let scaled: Vec<u64> = values
            .iter()
            .map(|v| ((v / ceiling).clamp(0.0, 1.0) * 1000.0) as u64)
            .collect();
        let _ = writeln!(
            h,
            "<svg viewBox=\"0 0 640 120\" width=\"640\" height=\"120\" \
             xmlns=\"http://www.w3.org/2000/svg\">\n\
             <rect x=\"0\" y=\"0\" width=\"640\" height=\"120\" fill=\"#fafafa\" \
             stroke=\"#ccc\"/>\n{}</svg>",
            polyline(&scaled, 1000, "#2b6cb0", "")
        );
        let _ = writeln!(
            h,
            "<p>latest {}; best-is-{}</p>",
            trim(*values.last().expect("non-empty")),
            if higher_is_better(metric) {
                "high"
            } else {
                "low"
            }
        );
    }
    h.push_str("<h2>Summary</h2>\n");
    let _ = writeln!(h, "<pre>{}</pre>", escape(&trends_table(points, window)));
    h.push_str("</body></html>\n");
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(metric: &str, value: f64) -> TrendPoint {
        point("synthetic", metric, value, "u")
    }

    #[test]
    fn jsonl_round_trips_and_skips_garbage() {
        let p = TrendPoint {
            ts: 1_700_000_000,
            source: "report".into(),
            metric: "report.nn.regless@512.cycles".into(),
            value: 1_234_567.5,
            unit: "cycles".into(),
        };
        let line = p.to_jsonl_line();
        assert!(!line.contains('\n'));
        let rows = parse_trends(&format!("{line}\nnot json\n\n{line}\n"));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], p);
    }

    #[test]
    fn direction_heuristic_separates_throughput_from_latency() {
        assert!(higher_is_better("serve.throughput_rps"));
        assert!(higher_is_better("report.nn.regless@512.ipc"));
        assert!(!higher_is_better("report.nn.regless@512.cycles"));
        assert!(higher_is_better("report.wall_cycles.regless@512.ipc"));
        assert!(higher_is_better("cluster.throughput_units_per_s"));
        assert!(higher_is_better("profile.regless_mean_ipc"));
        assert!(!higher_is_better("serve.p99_ms"));
        assert!(!higher_is_better("profile.regless_total_cycles"));
        assert!(!higher_is_better("serve.run_latency_us"));
    }

    #[test]
    fn gate_trips_on_a_throughput_drop_and_names_both_values() {
        let points = vec![
            row("serve.throughput_rps", 1_000_000.0),
            row("serve.throughput_rps", 1_020_000.0),
            row("serve.throughput_rps", 400_000.0),
        ];
        let regs = detect_regressions(&points, 8, 10.0);
        assert_eq!(regs.len(), 1);
        let r = &regs[0];
        assert_eq!(r.metric, "serve.throughput_rps");
        assert!((r.median - 1_010_000.0).abs() < 1e-6);
        assert!((r.current - 400_000.0).abs() < 1e-6);
        assert!(r.pct_worse > 60.0 && r.pct_worse < 61.0);
        let line = r.render(10.0);
        assert!(line.contains("serve.throughput_rps"), "{line}");
        assert!(line.contains("400000"), "{line}");
        assert!(line.contains("1010000"), "{line}");
    }

    #[test]
    fn gate_is_direction_aware_and_needs_history() {
        // Latency rising trips; latency falling does not.
        let rising = vec![
            row("serve.p99_ms", 2.0),
            row("serve.p99_ms", 2.1),
            row("serve.p99_ms", 3.0),
        ];
        assert_eq!(detect_regressions(&rising, 8, 10.0).len(), 1);
        let falling = vec![
            row("serve.p99_ms", 3.0),
            row("serve.p99_ms", 2.9),
            row("serve.p99_ms", 2.0),
        ];
        assert!(detect_regressions(&falling, 8, 10.0).is_empty());
        // Throughput rising is an improvement, not a regression.
        let up = vec![row("x.rps", 10.0), row("x.rps", 11.0), row("x.rps", 20.0)];
        assert!(detect_regressions(&up, 8, 10.0).is_empty());
        // Under two prior rows: no median, no verdict.
        let thin = vec![row("x.rps", 10.0), row("x.rps", 1.0)];
        assert!(detect_regressions(&thin, 8, 10.0).is_empty());
    }

    #[test]
    fn rolling_window_forgets_ancient_history() {
        // Old fast rows fall outside the window; the recent (slow)
        // plateau is the new normal, so holding it is not a regression.
        let mut points: Vec<TrendPoint> = (0..4).map(|_| row("x.cps", 2000.0)).collect();
        points.extend((0..8).map(|_| row("x.cps", 1000.0)));
        points.push(row("x.cps", 990.0));
        assert!(detect_regressions(&points, 4, 10.0).is_empty());
        // With an unbounded window the old rows would have tripped it.
        assert_eq!(detect_regressions(&points, 100, 10.0).len(), 0);
        // But an actual fresh drop still trips inside the window.
        points.push(row("x.cps", 500.0));
        assert_eq!(detect_regressions(&points, 4, 10.0).len(), 1);
    }

    #[test]
    fn ingest_distills_the_profile_artifact() {
        let profile = Json::parse(
            r#"[{"name":"a","regless":{"ipc":0.5,"cycles":100}},
                {"name":"b","regless":{"ipc":1.5,"cycles":300}}]"#,
        )
        .unwrap();
        let rows = ingest(&profile);
        assert_eq!(rows.len(), 2);
        assert!((rows[0].value - 1.0).abs() < 1e-9, "mean ipc");
        assert!((rows[1].value - 400.0).abs() < 1e-9, "total cycles");

        assert!(ingest(&Json::Null).is_empty());
    }

    #[test]
    fn report_rows_name_the_design_point() {
        let report = Report {
            kernel: "nn".into(),
            design: "regless".into(),
            capacity: 512,
            cycles: 1234,
            ipc: 0.5,
            ..Report::default()
        };
        let rows = report_points(&report);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].metric, "report.nn.regless@512.cycles");
        assert_eq!(rows[0].value, 1234.0);
        assert_eq!(rows[1].metric, "report.nn.regless@512.ipc");
        assert!(rows.iter().all(|r| r.source == "report"));
        let baseline = Report {
            design: "baseline".into(),
            capacity: 0,
            ..report
        };
        assert_eq!(report_points(&baseline)[1].metric, "report.nn.baseline.ipc");
    }

    #[test]
    fn table_and_html_render_the_history() {
        let points = vec![
            row("x.cps", 1000.0),
            row("x.cps", 1100.0),
            row("x.cps", 1050.0),
            row("y.p99_ms", 2.5),
        ];
        let table = trends_table(&points, 8);
        assert!(table.contains("x.cps"), "{table}");
        assert!(table.contains("y.p99_ms"), "{table}");
        assert!(trends_table(&[], 8).contains("no trend history"));
        let html = render_trends_html(&points, 8);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<svg"), "sparkline present");
        assert!(html.contains("x.cps"), "{html}");
        assert!(html.contains("best-is-low"), "direction surfaced");
        let empty = render_trends_html(&[], 8);
        assert!(empty.contains("no trend history"));
    }
}
