//! Unified observability for the RegLess reproduction.
//!
//! The simulator and the RegLess backend emit *structured events* (warp
//! region lifecycle, OSU traffic, compressor hits, L1-port arbitration),
//! *log2 histograms*, and *time series* into a [`MemoryRecorder`]; the
//! run's *counters* are folded into the merged [`Telemetry`] afterwards.
//! Recording is on by being attached: with no recorder attached every
//! instrumentation site reduces to a branch on an `Option`, and a
//! recorder's presence changes no reported figure — a property the
//! repository's tier-1 tests assert.
//!
//! Collected [`Telemetry`] can be exported three ways:
//!
//! - [`chrome_trace`] — Chrome trace-event JSON, loadable in
//!   `chrome://tracing` or Perfetto, with one track per warp and per
//!   hardware structure;
//! - [`summary_csv`] — flat CSV of counters and histogram digests;
//! - [`TelemetrySummary`] — the same digest as a JSON-serializable value
//!   (embedded in `RunReport` and the sweep engine's outputs).
//!
//! ```
//! use regless_telemetry::{chrome_trace_string, Event, MemoryRecorder, Track};
//!
//! let mut rec = MemoryRecorder::new(1 << 16).with_group(0);
//! rec.record(Event::begin(10, Track::warp(0), "preload").arg("region", 0u32));
//! rec.record(Event::end(14, Track::warp(0), "preload"));
//! rec.observe("preload.latency", 4);
//! let telemetry = rec.into_telemetry();
//! assert!(chrome_trace_string(&telemetry).contains("\"traceEvents\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod cpi;
mod event;
mod evict;
mod hist;
pub mod obs;
mod recorder;
mod report;
mod summary;
mod trends;

pub use chrome::{chrome_spans, chrome_trace, chrome_trace_string};
pub use cpi::{IssueStack, StallReason, NUM_STALL_REASONS};
pub use event::{ArgValue, Event, Lane, Phase, Structure, Track, Ts, STRUCTURE_TID_BASE};
pub use evict::{EvictionReason, EvictionStack, NUM_EVICTION_REASONS};
pub use hist::{Log2Histogram, NUM_BUCKETS};
pub use obs::{
    check_prom_format, epoch_us, format_bytes, format_trace_id, gen_trace_id, parse_trace_id,
    EventLog, LogEvent, LogLevel, Metric, MetricValue, MetricsSnapshot, PhaseGuard, PhaseTotal,
    ProgressMeter, ProgressSnapshot, SelfProfiler, Span, DEFAULT_LOG_CAPACITY,
};
pub use recorder::{MemoryRecorder, Telemetry};
pub use report::{round4, CompressorReport, OccupancyReport, Report, RunSummary};
pub use summary::{summary_csv, HistogramSummary, TelemetrySummary};
pub use trends::{
    detect_regressions, higher_is_better, ingest, parse_trends, render_trends_html, report_points,
    trends_table, Regression, TrendPoint, DEFAULT_WINDOW,
};
