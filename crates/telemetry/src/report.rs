//! The unified run dashboard: one self-contained HTML page (and its
//! byte-stable JSON twin) assembling the CPI stack, OSU occupancy
//! timelines, eviction and compressor tables, and histogram digests for a
//! single simulation, plus the compact [`RunSummary`] of its headline
//! numbers. Cross-run trends live in `results/trends.jsonl`
//! ([`crate::trends`]); the dashboard renders a run's rows from there.
//!
//! This module is pure presentation: it knows nothing about the simulator.
//! Callers (the CLI's `regless report` verb and the bench harness)
//! assemble a [`Report`] from their run data and render it here, which
//! keeps the dependency direction `sim -> telemetry` intact.

use crate::cpi::{IssueStack, StallReason};
use crate::evict::EvictionStack;
use crate::summary::TelemetrySummary;
use crate::trends::{trends_table, TrendPoint, DEFAULT_WINDOW};

/// Per-pattern compressor effectiveness for one run.
///
/// The five pattern counters mirror the compressor's closed pattern set
/// (paper §5.4); `incompressible` counts stores no pattern matched, which
/// therefore travelled to L1 uncompressed.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct CompressorReport {
    /// Stores matched by the all-lanes-equal pattern.
    pub constant: u64,
    /// Stores matched by the stride-1 pattern.
    pub stride1: u64,
    /// Stores matched by the stride-4 pattern.
    pub stride4: u64,
    /// Stores matched by the half-warp stride-1 pattern.
    pub half_stride1: u64,
    /// Stores matched by the half-warp stride-4 pattern.
    pub half_stride4: u64,
    /// Stores no pattern matched (written to L1 uncompressed).
    pub incompressible: u64,
    /// Register-line bytes presented to the compressor (128 per store).
    pub bytes_in: u64,
    /// Bytes after compression (payload bytes per store; 128 on a miss).
    pub bytes_out: u64,
    /// L1 store accesses attributable to staging traffic.
    pub l1_stores: u64,
}

regless_json::impl_json_struct!(CompressorReport {
    constant,
    stride1,
    stride4,
    half_stride1,
    half_stride4,
    incompressible,
    bytes_in,
    bytes_out,
    l1_stores
});

impl CompressorReport {
    /// Stores matched by any pattern.
    pub fn hits(&self) -> u64 {
        self.constant + self.stride1 + self.stride4 + self.half_stride1 + self.half_stride4
    }

    /// Total stores presented to the compressor.
    pub fn stores(&self) -> u64 {
        self.hits() + self.incompressible
    }

    /// Fraction of stores matched by a pattern (0 when none).
    pub fn hit_rate(&self) -> f64 {
        let stores = self.stores();
        if stores == 0 {
            0.0
        } else {
            self.hits() as f64 / stores as f64
        }
    }

    /// `(pattern, stores)` rows in display order, `incompressible` last.
    pub fn rows(&self) -> [(&'static str, u64); 6] {
        [
            ("constant", self.constant),
            ("stride1", self.stride1),
            ("stride4", self.stride4),
            ("half_stride1", self.half_stride1),
            ("half_stride4", self.half_stride4),
            ("incompressible", self.incompressible),
        ]
    }
}

/// Sampled OSU occupancy and capacity-manager queue timelines (one sample
/// per completed `WINDOW_CYCLES` window, summed across SMs).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct OccupancyReport {
    /// Sampling window in cycles.
    pub window: u64,
    /// OSU lines holding live values, per window.
    pub live: Vec<u64>,
    /// OSU lines reserved by admitted regions (CM committed), per window.
    pub reserved: Vec<u64>,
    /// OSU lines neither live nor reserved, per window.
    pub free: Vec<u64>,
    /// Warps queued for admission in the CM, per window.
    pub queue_depth: Vec<u64>,
    /// High-water mark of live lines across the occupancy samples.
    pub peak_live: u64,
    /// Total OSU lines (the capacity the timelines are plotted against).
    pub capacity_lines: u64,
}

regless_json::impl_json_struct!(OccupancyReport {
    window,
    live,
    reserved,
    free,
    queue_depth,
    peak_live,
    capacity_lines
});

/// Everything the dashboard shows for one run. Assembled by the caller,
/// rendered here as HTML ([`Report::render_html`]) or byte-stable JSON
/// ([`Report::to_json_string`], golden-tested).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    /// Kernel name (or path) the run simulated.
    pub kernel: String,
    /// Storage design label (`baseline`, `regless`, …).
    pub design: String,
    /// OSU entries per SM for RegLess designs (0 when not applicable).
    pub capacity: usize,
    /// Total cycles.
    pub cycles: u64,
    /// Instructions retired.
    pub insns: u64,
    /// Instructions per cycle (pre-rounded by the collector so the JSON
    /// twin is byte-stable).
    pub ipc: f64,
    /// Whole-GPU CPI stack.
    pub issue_stack: IssueStack,
    /// Whole-GPU eviction stack.
    pub evictions: EvictionStack,
    /// Compressor effectiveness counters.
    pub compressor: CompressorReport,
    /// Occupancy timelines.
    pub occupancy: OccupancyReport,
    /// Counter/histogram digest of the run's recorded telemetry.
    pub telemetry: TelemetrySummary,
}

regless_json::impl_json_struct!(Report {
    kernel,
    design,
    capacity,
    cycles,
    insns,
    ipc,
    issue_stack,
    evictions,
    compressor,
    occupancy,
    telemetry
});

/// The headline numbers of a run, carried by serve's `report` reply.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSummary {
    /// Kernel name.
    pub kernel: String,
    /// Storage design label.
    pub design: String,
    /// OSU entries per SM (0 when not applicable).
    pub capacity: usize,
    /// Total cycles.
    pub cycles: u64,
    /// Instructions per cycle (rounded).
    pub ipc: f64,
    /// Dominant non-issued stall reason.
    pub top_stall: String,
    /// High-water mark of live OSU lines.
    pub osu_peak: u64,
    /// Compressor pattern hit rate (rounded).
    pub compressor_hit_rate: f64,
}

regless_json::impl_json_struct!(RunSummary {
    kernel,
    design,
    capacity,
    cycles,
    ipc,
    top_stall,
    osu_peak,
    compressor_hit_rate
});

impl Report {
    /// The byte-stable JSON twin of the dashboard (pretty-printed, golden
    /// tested). Contains no wall-clock fields, so a deterministic
    /// simulation produces an identical document every run.
    pub fn to_json_string(&self) -> String {
        let mut s = regless_json::to_string_pretty(self);
        s.push('\n');
        s
    }

    /// Parse a document produced by [`Report::to_json_string`].
    ///
    /// # Errors
    ///
    /// Returns the underlying JSON error on malformed input.
    pub fn from_json_str(text: &str) -> Result<Report, regless_json::JsonError> {
        regless_json::from_str(text)
    }

    /// The dominant stall reason excluding `issued` (ties break toward
    /// the lower index, mirroring the profile report).
    pub fn top_stall(&self) -> StallReason {
        let mut best = StallReason::DataHazard;
        for r in StallReason::ALL {
            if r == StallReason::Issued {
                continue;
            }
            if self.issue_stack.get(r) > self.issue_stack.get(best) {
                best = r;
            }
        }
        best
    }

    /// The compact trend row for this run.
    pub fn summary(&self) -> RunSummary {
        RunSummary {
            kernel: self.kernel.clone(),
            design: self.design.clone(),
            capacity: self.capacity,
            cycles: self.cycles,
            ipc: self.ipc,
            top_stall: self.top_stall().name().to_string(),
            osu_peak: self.occupancy.peak_live,
            compressor_hit_rate: round4(self.compressor.hit_rate()),
        }
    }

    /// Render the self-contained HTML dashboard. `trend` rows (typically
    /// the `report` rows of `trends.jsonl`, this run's included) are
    /// rendered as the trajectory section when non-empty. No external
    /// assets: styles are inline and the occupancy timeline is an inline
    /// SVG.
    pub fn render_html(&self, trend: &[TrendPoint]) -> String {
        use std::fmt::Write as _;
        let mut h = String::new();
        let title = format!(
            "regless report: {} ({} cap {})",
            self.kernel, self.design, self.capacity
        );
        let _ = write!(
            h,
            "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n<title>{}</title>\n",
            escape(&title)
        );
        h.push_str(STYLE);
        h.push_str("</head><body>\n");
        let _ = writeln!(h, "<h1>{}</h1>", escape(&title));

        // Headline numbers.
        h.push_str("<table class=\"kv\">\n");
        for (k, v) in [
            ("kernel", escape(&self.kernel)),
            ("design", escape(&self.design)),
            ("osu capacity", format!("{} entries", self.capacity)),
            ("cycles", self.cycles.to_string()),
            ("instructions", self.insns.to_string()),
            ("ipc", format!("{:.4}", self.ipc)),
            ("top stall", self.top_stall().name().to_string()),
        ] {
            let _ = writeln!(h, "<tr><th>{k}</th><td>{v}</td></tr>");
        }
        h.push_str("</table>\n");

        // CPI stack: every reason gets a row even at zero, so the schema
        // check in CI can require all nine.
        h.push_str("<h2>CPI stack</h2>\n<table class=\"data\">\n");
        h.push_str("<tr><th>reason</th><th>slots</th><th>share</th><th></th></tr>\n");
        for (r, slots) in self.issue_stack.entries() {
            let frac = self.issue_stack.fraction(r);
            let _ = writeln!(
                h,
                "<tr class=\"stall-{}\"><td>{}</td><td class=\"n\">{}</td>\
                 <td class=\"n\">{:.2}%</td><td>{}</td></tr>",
                r.name(),
                r.name(),
                slots,
                frac * 100.0,
                bar(frac)
            );
        }
        let _ = writeln!(
            h,
            "<tr class=\"total\"><td>total</td><td class=\"n\">{}</td><td></td><td></td></tr>",
            self.issue_stack.total()
        );
        h.push_str("</table>\n");

        // Eviction taxonomy: all four causes always present.
        h.push_str("<h2>OSU evictions</h2>\n<table class=\"data\">\n");
        h.push_str("<tr><th>cause</th><th>lines</th><th>share</th><th></th></tr>\n");
        for (r, lines) in self.evictions.entries() {
            let frac = self.evictions.fraction(r);
            let _ = writeln!(
                h,
                "<tr class=\"evict-{}\"><td>{}</td><td class=\"n\">{}</td>\
                 <td class=\"n\">{:.2}%</td><td>{}</td></tr>",
                r.name(),
                r.name(),
                lines,
                frac * 100.0,
                bar(frac)
            );
        }
        let _ = writeln!(
            h,
            "<tr class=\"total\"><td>total</td><td class=\"n\">{}</td><td></td><td></td></tr>",
            self.evictions.total()
        );
        h.push_str("</table>\n");

        // Compressor effectiveness.
        h.push_str("<h2>Compressor</h2>\n<table class=\"data\">\n");
        h.push_str("<tr><th>pattern</th><th>stores</th></tr>\n");
        for (name, n) in self.compressor.rows() {
            let _ = writeln!(h, "<tr><td>{name}</td><td class=\"n\">{n}</td></tr>");
        }
        let _ = writeln!(
            h,
            "<tr class=\"total\"><td>hit rate</td><td class=\"n\">{:.1}%</td></tr>",
            self.compressor.hit_rate() * 100.0
        );
        let ratio = if self.compressor.bytes_out == 0 {
            0.0
        } else {
            self.compressor.bytes_in as f64 / self.compressor.bytes_out as f64
        };
        let _ = writeln!(
            h,
            "<tr><td>bytes in / out</td><td class=\"n\">{} / {} ({:.1}x)</td></tr>",
            self.compressor.bytes_in, self.compressor.bytes_out, ratio
        );
        let _ = writeln!(
            h,
            "<tr><td>staging L1 stores</td><td class=\"n\">{}</td></tr>",
            self.compressor.l1_stores
        );
        h.push_str("</table>\n");

        // Occupancy timeline sparkline.
        let _ = writeln!(
            h,
            "<h2>OSU occupancy</h2>\n<p>peak {} of {} lines; window {} cycles; \
             <span class=\"sw live\"></span> live \
             <span class=\"sw reserved\"></span> reserved \
             <span class=\"sw queue\"></span> admission queue</p>",
            self.occupancy.peak_live, self.occupancy.capacity_lines, self.occupancy.window
        );
        h.push_str(&self.occupancy_svg());

        // Histogram digests and raw counters from the recorder.
        h.push_str("<h2>Histograms</h2>\n");
        if self.telemetry.histograms.is_empty() {
            h.push_str("<p>(none recorded)</p>\n");
        } else {
            h.push_str(
                "<table class=\"data\">\n<tr><th>histogram</th><th>count</th><th>mean</th>\
                 <th>p50</th><th>p99</th><th>max</th></tr>\n",
            );
            for hs in &self.telemetry.histograms {
                let _ = writeln!(
                    h,
                    "<tr><td>{}</td><td class=\"n\">{}</td><td class=\"n\">{:.2}</td>\
                     <td class=\"n\">{}</td><td class=\"n\">{}</td><td class=\"n\">{}</td></tr>",
                    escape(&hs.name),
                    hs.count,
                    hs.mean,
                    hs.p50,
                    hs.p99,
                    hs.max
                );
            }
            h.push_str("</table>\n");
        }
        h.push_str("<h2>Counters</h2>\n<table class=\"data\">\n");
        h.push_str("<tr><th>counter</th><th>value</th></tr>\n");
        for (name, v) in &self.telemetry.counters {
            let _ = writeln!(
                h,
                "<tr><td>{}</td><td class=\"n\">{v}</td></tr>",
                escape(name)
            );
        }
        h.push_str("</table>\n");

        // Cross-run trajectory.
        if !trend.is_empty() {
            h.push_str("<h2>Trend</h2>\n");
            let _ = writeln!(
                h,
                "<pre>{}</pre>",
                escape(&trends_table(trend, DEFAULT_WINDOW))
            );
        }

        let _ = writeln!(
            h,
            "<p class=\"foot\">For the cycle-level timeline, export a Chrome trace: \
             <code>regless trace {} --design {} --format chrome --out trace.json</code> \
             and load it in Perfetto.</p>",
            escape(&self.kernel),
            escape(&self.design)
        );
        h.push_str("</body></html>\n");
        h
    }

    /// The inline occupancy SVG: live (solid), reserved (dashed), and
    /// admission-queue depth (dotted, scaled to the same axis).
    fn occupancy_svg(&self) -> String {
        let samples = self.occupancy.live.len();
        if samples == 0 {
            return "<p>(no occupancy samples: run shorter than one window)</p>\n".to_string();
        }
        let ceiling = self
            .occupancy
            .capacity_lines
            .max(self.occupancy.peak_live)
            .max(
                self.occupancy
                    .queue_depth
                    .iter()
                    .copied()
                    .max()
                    .unwrap_or(0),
            )
            .max(1);
        let mut svg = String::from(
            "<svg viewBox=\"0 0 640 120\" width=\"640\" height=\"120\" \
             xmlns=\"http://www.w3.org/2000/svg\">\n\
             <rect x=\"0\" y=\"0\" width=\"640\" height=\"120\" fill=\"#fafafa\" \
             stroke=\"#ccc\"/>\n",
        );
        svg.push_str(&polyline(&self.occupancy.live, ceiling, "#2b6cb0", ""));
        svg.push_str(&polyline(
            &self.occupancy.reserved,
            ceiling,
            "#b08c2b",
            " stroke-dasharray=\"6 3\"",
        ));
        svg.push_str(&polyline(
            &self.occupancy.queue_depth,
            ceiling,
            "#9b2b6c",
            " stroke-dasharray=\"2 3\"",
        ));
        svg.push_str("</svg>\n");
        svg
    }
}

/// Round to 4 decimal places (stable JSON for derived ratios).
pub fn round4(v: f64) -> f64 {
    (v * 1e4).round() / 1e4
}

/// A proportional horizontal bar for stack tables.
fn bar(frac: f64) -> String {
    format!(
        "<div class=\"bar\" style=\"width:{:.1}px\"></div>",
        (frac * 200.0).max(0.0)
    )
}

/// One SVG polyline over the shared 640x120 viewport (shared with the
/// trends dashboard, which plots metric histories on the same canvas).
pub(crate) fn polyline(series: &[u64], ceiling: u64, color: &str, extra: &str) -> String {
    if series.is_empty() {
        return String::new();
    }
    let step = if series.len() > 1 {
        620.0 / (series.len() - 1) as f64
    } else {
        0.0
    };
    let mut points = String::new();
    for (i, &v) in series.iter().enumerate() {
        let x = 10.0 + step * i as f64;
        let y = 110.0 - 100.0 * (v as f64 / ceiling as f64);
        if i > 0 {
            points.push(' ');
        }
        points.push_str(&format!("{x:.1},{y:.1}"));
    }
    format!(
        "<polyline fill=\"none\" stroke=\"{color}\" stroke-width=\"1.5\"{extra} \
         points=\"{points}\"/>\n"
    )
}

/// Minimal HTML escaping for text nodes and attribute values.
pub(crate) fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

pub(crate) const STYLE: &str = "<style>\n\
    body{font-family:system-ui,sans-serif;margin:2em auto;max-width:60em;color:#222}\n\
    h1{font-size:1.3em}h2{font-size:1.1em;margin-top:1.6em}\n\
    table{border-collapse:collapse;margin:0.5em 0}\n\
    th,td{padding:2px 10px;text-align:left;border-bottom:1px solid #eee}\n\
    td.n{text-align:right;font-variant-numeric:tabular-nums}\n\
    tr.total td{border-top:1px solid #999;font-weight:600}\n\
    .kv th{color:#666;font-weight:400}\n\
    .bar{height:10px;background:#2b6cb0;display:inline-block}\n\
    .sw{display:inline-block;width:18px;height:3px;vertical-align:middle;margin:0 2px}\n\
    .sw.live{background:#2b6cb0}.sw.reserved{background:#b08c2b}.sw.queue{background:#9b2b6c}\n\
    pre{background:#f6f6f6;padding:0.6em;overflow-x:auto}\n\
    .foot{color:#666;margin-top:2em}\n\
    </style>\n";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evict::EvictionReason;
    use crate::trends::report_points;

    fn sample_report() -> Report {
        let mut issue_stack = IssueStack::new();
        issue_stack.charge_n(StallReason::Issued, 60);
        issue_stack.charge_n(StallReason::DataHazard, 30);
        issue_stack.charge_n(StallReason::CmPreloadWait, 10);
        let mut evictions = EvictionStack::new();
        evictions.charge_n(EvictionReason::RegionDrain, 8);
        evictions.charge_n(EvictionReason::CompressorSpill, 2);
        Report {
            kernel: "saxpy".to_string(),
            design: "regless".to_string(),
            capacity: 512,
            cycles: 100,
            insns: 60,
            ipc: 0.6,
            issue_stack,
            evictions,
            compressor: CompressorReport {
                constant: 5,
                stride1: 3,
                stride4: 0,
                half_stride1: 0,
                half_stride4: 0,
                incompressible: 2,
                bytes_in: 1280,
                bytes_out: 288,
                l1_stores: 2,
            },
            occupancy: OccupancyReport {
                window: 100,
                live: vec![4, 9, 7],
                reserved: vec![6, 10, 8],
                free: vec![502, 493, 497],
                queue_depth: vec![3, 1, 0],
                peak_live: 11,
                capacity_lines: 512,
            },
            telemetry: TelemetrySummary::default(),
        }
    }

    #[test]
    fn json_round_trips() {
        let r = sample_report();
        let text = r.to_json_string();
        assert!(text.ends_with('\n'));
        let back = Report::from_json_str(&text).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn top_stall_excludes_issued_and_breaks_ties_low() {
        let r = sample_report();
        assert_eq!(r.top_stall(), StallReason::DataHazard);
        let empty = Report {
            issue_stack: IssueStack::new(),
            ..r
        };
        assert_eq!(
            empty.top_stall(),
            StallReason::DataHazard,
            "all-zero ties break to the lowest non-issued index"
        );
    }

    #[test]
    fn summary_carries_the_headline_numbers() {
        let s = sample_report().summary();
        assert_eq!(s.kernel, "saxpy");
        assert_eq!(s.cycles, 100);
        assert_eq!(s.top_stall, "data_hazard");
        assert_eq!(s.osu_peak, 11);
        assert!((s.compressor_hit_rate - 0.8).abs() < 1e-9);
        let back: RunSummary = regless_json::from_str(&regless_json::to_string(&s)).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn html_contains_every_stall_and_eviction_row() {
        let html = sample_report().render_html(&[]);
        assert!(html.starts_with("<!DOCTYPE html>"));
        for r in StallReason::ALL {
            assert!(
                html.contains(&format!("class=\"stall-{}\"", r.name())),
                "missing stall row {}",
                r.name()
            );
        }
        for r in EvictionReason::ALL {
            assert!(
                html.contains(&format!("class=\"evict-{}\"", r.name())),
                "missing eviction row {}",
                r.name()
            );
        }
        assert!(html.contains("<svg"), "occupancy sparkline present");
        assert!(html.contains("regless trace"), "chrome-trace link-out");
        assert!(
            !html.contains("http://") || html.contains("www.w3.org"),
            "self-contained"
        );
    }

    #[test]
    fn html_renders_trend_when_given() {
        let r = sample_report();
        let html = r.render_html(&report_points(&r));
        assert!(html.contains("<h2>Trend</h2>"));
        assert!(html.contains("report.saxpy.regless@512.cycles"), "{html}");
        assert!(html.contains("report.saxpy.regless@512.ipc"), "{html}");
    }

    #[test]
    fn empty_occupancy_degrades_gracefully() {
        let mut r = sample_report();
        r.occupancy.live.clear();
        r.occupancy.reserved.clear();
        r.occupancy.queue_depth.clear();
        let html = r.render_html(&[]);
        assert!(html.contains("no occupancy samples"));
    }
}
