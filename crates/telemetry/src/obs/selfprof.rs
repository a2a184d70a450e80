//! Host-time self-profiling: scoped phase timers for the simulator's own
//! wall clock. Where the CPI stacks answer "where did the *simulated*
//! cycles go?", a [`SelfProfiler`] answers "where did the *host's* time
//! go?" — how much of `Machine::run` was the issue loop versus writeback
//! retirement versus the event-calendar jump.
//!
//! A profiler is on by being attached: every instrumentation site holds
//! an `Option<&SelfProfiler>`, and with `None` a [`SelfProfiler::scope`]
//! costs one branch and never reads the monotonic clock. Timers touch
//! only host wall-clock state, never simulated state, which is why
//! `RunReport::stable_json` stays byte-identical with a profiler attached
//! or not.
//!
//! Render with [`SelfProfiler::render_table`], or export a Perfetto
//! timeline through [`SelfProfiler::to_spans`] and [`crate::chrome_spans`].

use super::trace::Span;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Accumulated wall time for one named phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTotal {
    /// Times the phase ran.
    pub calls: u64,
    /// Total nanoseconds spent inside the phase.
    pub nanos: u64,
}

/// Scoped phase timers with per-phase accumulation.
///
/// Phases are keyed by `&'static str` so recording never allocates;
/// totals live behind one mutex.
#[derive(Debug, Default)]
pub struct SelfProfiler {
    phases: Mutex<BTreeMap<&'static str, PhaseTotal>>,
}

impl SelfProfiler {
    /// An empty profiler; every scope on it records.
    pub fn new() -> SelfProfiler {
        SelfProfiler::default()
    }

    /// Start a scoped timer for `phase` on `prof`; the elapsed time is
    /// recorded when the returned guard drops. With no profiler attached
    /// (`None`) the guard is inert and the clock is never read.
    #[inline]
    pub fn scope<'a>(prof: Option<&'a SelfProfiler>, phase: &'static str) -> PhaseGuard<'a> {
        PhaseGuard {
            active: prof.map(|p| (p, phase, Instant::now())),
        }
    }

    /// Record `nanos` of wall time against `phase` directly (for callers
    /// that measured the interval themselves).
    pub fn record(&self, phase: &'static str, nanos: u64) {
        let mut phases = self.phases.lock().expect("self-profiler poisoned");
        let t = phases.entry(phase).or_default();
        t.calls += 1;
        t.nanos += nanos;
    }

    /// The accumulated totals, sorted by phase name (deterministic for
    /// rendering and tests). Empty when nothing was recorded.
    pub fn snapshot(&self) -> Vec<(String, PhaseTotal)> {
        self.phases
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| ((*k).to_string(), *v))
            .collect()
    }

    /// Render an aligned per-phase table (phase, calls, total time,
    /// share) for stderr. Empty string when nothing was recorded.
    pub fn render_table(&self, label: &str) -> String {
        use std::fmt::Write as _;
        let rows = self.snapshot();
        if rows.is_empty() {
            return String::new();
        }
        let total: u64 = rows.iter().map(|(_, t)| t.nanos).sum::<u64>().max(1);
        let width = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0).max(5);
        let mut out = format!("self-profile [{label}]: host time by phase\n");
        let _ = writeln!(
            out,
            "  {:<width$} {:>12} {:>12} {:>7}",
            "phase", "calls", "time", "share"
        );
        for (phase, t) in &rows {
            let _ = writeln!(
                out,
                "  {:<width$} {:>12} {:>11.3}ms {:>6.1}%",
                phase,
                t.calls,
                t.nanos as f64 / 1e6,
                100.0 * t.nanos as f64 / total as f64
            );
        }
        out
    }

    /// Render the totals as one [`Span`] per phase, laid end-to-end on a
    /// single timeline so [`crate::chrome_spans`] draws a proportional
    /// host-time bar per phase. `trace_id` groups the spans on one lane;
    /// `process` labels the Perfetto process track.
    pub fn to_spans(&self, trace_id: u64, process: &str) -> Vec<Span> {
        let mut start_us = 0u64;
        self.snapshot()
            .into_iter()
            .map(|(phase, t)| {
                let dur_us = (t.nanos / 1_000).max(1);
                let span = Span::new(trace_id, phase.as_str(), process, start_us, dur_us)
                    .arg("calls", t.calls.to_string());
                start_us += dur_us;
                span
            })
            .collect()
    }
}

/// RAII timer returned by [`SelfProfiler::scope`]; records the elapsed
/// wall time against its phase on drop. Inert (no clock reads, no lock)
/// when no profiler is attached.
#[must_use = "the scope measures until the guard drops"]
pub struct PhaseGuard<'a> {
    active: Option<(&'a SelfProfiler, &'static str, Instant)>,
}

impl Drop for PhaseGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        if let Some((prof, phase, started)) = self.active.take() {
            prof.record(phase, started.elapsed().as_nanos() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_accumulate_per_phase() {
        let p = SelfProfiler::new();
        for _ in 0..3 {
            let _g = SelfProfiler::scope(Some(&p), "issue");
        }
        p.record("writeback", 2_000_000);
        p.record("writeback", 3_000_000);
        let rows = p.snapshot();
        assert_eq!(rows.len(), 2);
        // BTreeMap ordering: issue < writeback.
        assert_eq!(rows[0].0, "issue");
        assert_eq!(rows[0].1.calls, 3);
        assert_eq!(rows[1].0, "writeback");
        assert_eq!(
            rows[1].1,
            PhaseTotal {
                calls: 2,
                nanos: 5_000_000
            }
        );
        let table = p.render_table("sim");
        assert!(table.contains("issue"), "{table}");
        assert!(table.contains("writeback"), "{table}");
    }

    #[test]
    fn spans_lay_phases_end_to_end() {
        let p = SelfProfiler::new();
        p.record("a_first", 4_000);
        p.record("b_second", 2_000);
        let spans = p.to_spans(0x77, "selfprof:sim");
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].start_us, 0);
        assert_eq!(spans[0].dur_us, 4);
        assert_eq!(spans[1].start_us, 4, "phases tile the timeline");
        assert!(spans.iter().all(|s| s.trace_id == 0x77));
        let doc = crate::chrome_spans(&spans).to_string_compact();
        assert!(doc.contains("selfprof:sim"), "{doc}");
    }
}
