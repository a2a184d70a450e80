//! Service-layer observability: distributed trace spans, a metrics
//! snapshot with Prometheus text exposition, and a bounded structured
//! event log.
//!
//! The simulator core records *cycles* through [`crate::MemoryRecorder`]; the
//! serving layer records *wall time* through these types.
//! The two meet in the Chrome-trace writer: [`crate::chrome_spans`]
//! renders a set of [`Span`]s collected across processes as one Perfetto
//! timeline, joined by `trace_id`.
//!
//! Everything here is deliberately passive: spans and log events are
//! plain data pushed into bounded in-memory stores, and a
//! [`MetricsSnapshot`] is built on demand from whatever counters a
//! component already keeps. No background threads, no global state, and
//! nothing that can perturb a simulation — the byte-identity of
//! `stable_json()` reports with and without tracing is property-tested
//! at the serve layer.

mod log;
mod metrics;
mod progress;
mod selfprof;
mod trace;

pub use self::log::{EventLog, LogEvent, LogLevel, DEFAULT_LOG_CAPACITY};
pub use self::metrics::{check_prom_format, format_bytes, Metric, MetricValue, MetricsSnapshot};
pub use self::progress::{ProgressMeter, ProgressSnapshot};
pub use self::selfprof::{PhaseGuard, PhaseTotal, SelfProfiler};
pub use self::trace::{epoch_us, format_trace_id, gen_trace_id, parse_trace_id, Span};
