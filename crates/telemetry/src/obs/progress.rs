//! Live progress for long sweeps: a thread-safe meter that turns
//! per-unit completions into a done/total, units-per-second,
//! simulated-cycles-per-second, and ETA line for stderr. Used by
//! `regless sweep --progress`.

use std::sync::Mutex;
use std::time::Instant;

/// A point-in-time view of a [`ProgressMeter`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProgressSnapshot {
    /// Units completed so far.
    pub done: u64,
    /// Units in the whole sweep.
    pub total: u64,
    /// Simulated cycles completed so far (summed over done units).
    pub cycles: u64,
    /// Wall seconds since the meter started.
    pub elapsed_secs: f64,
}

impl ProgressSnapshot {
    /// Completed units per wall second (0 until time passes).
    pub fn units_per_sec(&self) -> f64 {
        if self.elapsed_secs <= 0.0 {
            0.0
        } else {
            self.done as f64 / self.elapsed_secs
        }
    }

    /// Simulated cycles per wall second (0 until time passes).
    pub fn cycles_per_sec(&self) -> f64 {
        if self.elapsed_secs <= 0.0 {
            0.0
        } else {
            self.cycles as f64 / self.elapsed_secs
        }
    }

    /// Estimated wall seconds remaining, extrapolating the observed
    /// unit rate. `None` until at least one unit finished (no rate to
    /// extrapolate) or once the sweep is complete.
    pub fn eta_secs(&self) -> Option<f64> {
        if self.done == 0 || self.done >= self.total {
            return None;
        }
        let rate = self.units_per_sec();
        if rate <= 0.0 {
            return None;
        }
        Some((self.total - self.done) as f64 / rate)
    }

    /// Render the one-line progress report
    /// (`progress 3/32 units | 1.5 units/s | 0.8 Mcycles/s | eta 19s`).
    pub fn render(&self) -> String {
        let mut out = format!(
            "progress {}/{} units | {:.1} units/s | {:.2} Mcycles/s",
            self.done,
            self.total,
            self.units_per_sec(),
            self.cycles_per_sec() / 1e6
        );
        match self.eta_secs() {
            Some(eta) => out.push_str(&format!(" | eta {eta:.0}s")),
            None if self.done >= self.total => {
                out.push_str(&format!(" | done in {:.1}s", self.elapsed_secs));
            }
            None => out.push_str(" | eta --"),
        }
        out
    }
}

/// Thread-safe completion counter for a sweep of `total` units.
///
/// Call [`ProgressMeter::note`] as each unit finishes; it hands back a
/// snapshot so the caller can print without re-locking.
#[derive(Debug)]
pub struct ProgressMeter {
    total: u64,
    started: Instant,
    inner: Mutex<(u64, u64)>, // (done, cycles)
}

impl ProgressMeter {
    /// A meter expecting `total` units, with the clock starting now.
    pub fn new(total: u64) -> ProgressMeter {
        ProgressMeter {
            total,
            started: Instant::now(),
            inner: Mutex::new((0, 0)),
        }
    }

    /// Record one completed unit that simulated `cycles` cycles.
    pub fn note(&self, cycles: u64) -> ProgressSnapshot {
        let mut inner = self.inner.lock().unwrap();
        inner.0 += 1;
        inner.1 += cycles;
        ProgressSnapshot {
            done: inner.0,
            total: self.total,
            cycles: inner.1,
            elapsed_secs: self.started.elapsed().as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(done: u64, total: u64, cycles: u64, elapsed: f64) -> ProgressSnapshot {
        ProgressSnapshot {
            done,
            total,
            cycles,
            elapsed_secs: elapsed,
        }
    }

    #[test]
    fn rates_and_eta_extrapolate_the_observed_pace() {
        let s = snap(4, 16, 8_000_000, 2.0);
        assert!((s.units_per_sec() - 2.0).abs() < 1e-9);
        assert!((s.cycles_per_sec() - 4_000_000.0).abs() < 1e-3);
        assert!((s.eta_secs().unwrap() - 6.0).abs() < 1e-9, "12 left at 2/s");
        let line = s.render();
        assert!(line.contains("4/16 units"), "{line}");
        assert!(line.contains("4.00 Mcycles/s"), "{line}");
        assert!(line.contains("eta 6s"), "{line}");
    }

    #[test]
    fn eta_degrades_gracefully_at_the_edges() {
        assert_eq!(snap(0, 8, 0, 1.0).eta_secs(), None, "no rate yet");
        assert_eq!(snap(8, 8, 100, 1.0).eta_secs(), None, "already done");
        assert_eq!(snap(1, 8, 10, 0.0).units_per_sec(), 0.0, "zero elapsed");
        assert!(snap(0, 8, 0, 1.0).render().contains("eta --"));
        assert!(snap(8, 8, 100, 1.5).render().contains("done in 1.5s"));
    }

    #[test]
    fn meter_accumulates_notes() {
        let m = ProgressMeter::new(4);
        let s = m.note(1_000);
        assert_eq!((s.done, s.total, s.cycles), (1, 4, 1_000));
        let s = m.note(500);
        assert_eq!((s.done, s.total, s.cycles), (2, 4, 1_500));
    }
}
