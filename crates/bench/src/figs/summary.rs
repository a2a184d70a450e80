//! Machine-readable summary of the reproduction's headline metrics,
//! written as `results/summary.json` by `regless experiments` so downstream
//! tooling (plots, CI thresholds) need not parse the text tables.

use crate::sweep;
use crate::{energy_of, geomean, DesignKind};
use regless_workloads::rodinia;

/// Per-benchmark measurements at the paper's 512-entry design point.
#[derive(Clone, Debug)]
pub struct BenchmarkSummary {
    /// Benchmark name.
    pub name: String,
    /// Baseline cycles.
    pub baseline_cycles: u64,
    /// RegLess cycles.
    pub regless_cycles: u64,
    /// RegLess run time normalized to baseline.
    pub runtime_ratio: f64,
    /// Register-structure energy ratio.
    pub rf_energy_ratio: f64,
    /// Whole-GPU energy ratio.
    pub gpu_energy_ratio: f64,
    /// Fraction of preloads served without touching memory.
    pub preloads_staged_fraction: f64,
    /// RegLess L1 register requests per cycle.
    pub reg_l1_requests_per_cycle: f64,
}

/// The whole reproduction summary.
#[derive(Clone, Debug)]
pub struct Summary {
    /// The design point (OSU entries per SM).
    pub osu_entries_per_sm: usize,
    /// Geomean normalized run time (paper: ~1.00).
    pub runtime_geomean: f64,
    /// Geomean register-structure energy ratio (paper: 0.247).
    pub rf_energy_geomean: f64,
    /// Geomean GPU energy ratio (paper: 0.89).
    pub gpu_energy_geomean: f64,
    /// Per-benchmark detail.
    pub benchmarks: Vec<BenchmarkSummary>,
}

regless_json::impl_json_struct!(BenchmarkSummary {
    name,
    baseline_cycles,
    regless_cycles,
    runtime_ratio,
    rf_energy_ratio,
    gpu_energy_ratio,
    preloads_staged_fraction,
    reg_l1_requests_per_cycle,
});
regless_json::impl_json_struct!(Summary {
    osu_entries_per_sm,
    runtime_geomean,
    rf_energy_geomean,
    gpu_energy_geomean,
    benchmarks,
});

/// Measure everything at the 512-entry design point.
pub fn collect() -> Summary {
    // Warm the cache across all cores before the sequential tabulation.
    sweep::prefetch_headline();
    let mut benchmarks = Vec::new();
    for name in rodinia::NAMES {
        let bench = sweep::rodinia_id(name);
        let base = sweep::design(&bench, DesignKind::Baseline);
        let rl = sweep::design(&bench, DesignKind::regless_512());
        let eb = energy_of(&base, DesignKind::Baseline);
        let er = energy_of(&rl, DesignKind::regless_512());
        let t = rl.total();
        benchmarks.push(BenchmarkSummary {
            name: name.to_string(),
            baseline_cycles: base.cycles,
            regless_cycles: rl.cycles,
            runtime_ratio: rl.cycles as f64 / base.cycles as f64,
            rf_energy_ratio: er.register_structures_pj / eb.register_structures_pj,
            gpu_energy_ratio: er.total_pj() / eb.total_pj(),
            preloads_staged_fraction: (t.preloads_osu + t.preloads_compressor) as f64
                / t.preloads_total().max(1) as f64,
            reg_l1_requests_per_cycle: t.reg_l1_requests() as f64 / rl.cycles.max(1) as f64,
        });
    }
    let geo =
        |f: fn(&BenchmarkSummary) -> f64| geomean(&benchmarks.iter().map(f).collect::<Vec<_>>());
    Summary {
        osu_entries_per_sm: 512,
        runtime_geomean: geo(|b| b.runtime_ratio),
        rf_energy_geomean: geo(|b| b.rf_energy_ratio),
        gpu_energy_geomean: geo(|b| b.gpu_energy_ratio),
        benchmarks,
    }
}

/// The summary as pretty JSON.
pub fn report() -> String {
    let summary = collect();
    regless_json::to_string_pretty(&summary) + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_serializes_and_round_trips_keys() {
        // A cheap structural test: serialize a hand-built summary (no
        // simulation) and check the key fields appear.
        let s = Summary {
            osu_entries_per_sm: 512,
            runtime_geomean: 1.03,
            rf_energy_geomean: 0.28,
            gpu_energy_geomean: 0.87,
            benchmarks: vec![BenchmarkSummary {
                name: "bfs".into(),
                baseline_cycles: 100,
                regless_cycles: 103,
                runtime_ratio: 1.03,
                rf_energy_ratio: 0.28,
                gpu_energy_ratio: 0.87,
                preloads_staged_fraction: 0.9,
                reg_l1_requests_per_cycle: 0.05,
            }],
        };
        let json = regless_json::to_string(&s);
        for key in [
            "osu_entries_per_sm",
            "runtime_geomean",
            "bfs",
            "rf_energy_ratio",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
    }
}
