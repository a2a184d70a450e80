//! Simulator-throughput benchmark: the event-driven fast path vs the
//! stepped reference loop.
//!
//! `bench_sim_speed` runs every `bench_profiles` point (each benchmark
//! under the baseline and the paper's 512-entry RegLess design) twice —
//! once per run-loop mode — asserts the two [`regless_sim::RunReport`]s are
//! byte-identical, and writes `results/BENCH_sim_speed.json` with
//! simulated-cycles-per-second for each mode plus the speedup ratio and
//! its geometric mean. CI uploads the file as an artifact; DESIGN.md §13
//! documents the fast path itself and EXPERIMENTS.md explains how to
//! read the report.

use crate::{eval_gpu, geomean, registry, Attach, DesignKind};
use regless_workloads::rodinia;
use std::time::Instant;

/// One (benchmark, design) point's throughput measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct SimSpeedRow {
    /// Benchmark name.
    pub name: String,
    /// Design label (`baseline` or `regless`).
    pub design: String,
    /// Simulated cycles (identical in both modes by construction).
    pub cycles: u64,
    /// Wall-clock seconds for the stepped reference loop.
    pub stepped_secs: f64,
    /// Wall-clock seconds for the event-driven fast path.
    pub event_secs: f64,
    /// Simulated cycles per second, stepped.
    pub stepped_cps: f64,
    /// Simulated cycles per second, event-driven.
    pub event_cps: f64,
    /// `event_cps / stepped_cps`.
    pub speedup: f64,
    /// Whether the two modes' reports were byte-identical (the bench
    /// aborts when they are not, so a written report always says true).
    pub identical: bool,
}

regless_json::impl_json_struct!(SimSpeedRow {
    name,
    design,
    cycles,
    stepped_secs,
    event_secs,
    stepped_cps,
    event_cps,
    speedup,
    identical,
});

/// The full `results/BENCH_sim_speed.json` payload.
#[derive(Clone, Debug, PartialEq)]
pub struct SimSpeedReport {
    /// One row per (benchmark, design) point.
    pub rows: Vec<SimSpeedRow>,
    /// Geometric mean of the per-row speedups.
    pub geomean_speedup: f64,
}

regless_json::impl_json_struct!(SimSpeedReport {
    rows,
    geomean_speedup,
});

/// Measure one (benchmark, design) point.
///
/// # Panics
///
/// Panics when the two run-loop modes disagree on the report bytes —
/// that is a simulator bug, not a measurement artifact, and a speedup
/// number for a wrong simulation would be meaningless.
pub fn measure_point(name: &str, design: DesignKind) -> SimSpeedRow {
    let design_label = registry::identify(design).0;
    let kernel = rodinia::kernel(name);
    let run = |stepped: bool| {
        let attach = Attach {
            stepped: Some(stepped),
            ..Attach::default()
        };
        let t = Instant::now();
        let report = design
            .execute(&kernel, eval_gpu(), &attach)
            .unwrap_or_else(|e| panic!("{name} under {design_label}: {e}"));
        (report, t.elapsed().as_secs_f64())
    };
    let (stepped, stepped_secs) = run(true);
    let (event, event_secs) = run(false);
    let a = stepped.stable_json().to_string_compact();
    let b = event.stable_json().to_string_compact();
    assert_eq!(
        a, b,
        "stepped and event-driven reports diverged on {name} under {design_label}"
    );
    let cycles = event.cycles;
    let stepped_cps = cycles as f64 / stepped_secs.max(1e-9);
    let event_cps = cycles as f64 / event_secs.max(1e-9);
    SimSpeedRow {
        name: name.to_string(),
        design: design_label.to_string(),
        cycles,
        stepped_secs,
        event_secs,
        stepped_cps,
        event_cps,
        speedup: event_cps / stepped_cps,
        identical: true,
    }
}

/// Run the whole suite (every benchmark, baseline and RegLess designs).
///
/// # Panics
///
/// Panics when any point's reports diverge between the two modes.
pub fn measure_suite() -> SimSpeedReport {
    let mut rows = Vec::new();
    for name in rodinia::NAMES {
        rows.push(measure_point(name, DesignKind::Baseline));
        rows.push(measure_point(name, DesignKind::regless_512()));
    }
    let speedups: Vec<f64> = rows.iter().map(|r| r.speedup).collect();
    SimSpeedReport {
        geomean_speedup: geomean(&speedups),
        rows,
    }
}

/// The JSON text of [`measure_suite`], as written to
/// `results/BENCH_sim_speed.json`.
///
/// # Panics
///
/// Panics when any point's reports diverge between the two modes.
pub fn sim_speed_report() -> String {
    regless_json::to_string_pretty(&measure_suite()) + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One cheap point end-to-end: identical reports, sane numbers.
    #[test]
    fn nn_point_is_identical_and_positive() {
        let row = measure_point("nn", DesignKind::regless_512());
        assert!(row.identical);
        assert!(row.cycles > 0);
        assert!(row.stepped_cps > 0.0 && row.event_cps > 0.0);
    }

    #[test]
    fn report_json_round_trips() {
        let report = SimSpeedReport {
            rows: vec![SimSpeedRow {
                name: "nn".into(),
                design: "regless".into(),
                cycles: 100,
                stepped_secs: 0.5,
                event_secs: 0.1,
                stepped_cps: 200.0,
                event_cps: 1000.0,
                speedup: 5.0,
                identical: true,
            }],
            geomean_speedup: 5.0,
        };
        let text = regless_json::to_string_pretty(&report);
        let back: SimSpeedReport = regless_json::from_str(&text).unwrap();
        assert_eq!(back, report);
    }
}
