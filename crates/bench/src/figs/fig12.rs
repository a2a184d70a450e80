//! Figure 12: combined static + average dynamic power for RegLess
//! configurations, normalized to the baseline register file.

use crate::figs::fig11::CAPACITIES;
use crate::{energy_of, format_table, geomean, sweep, DesignKind};
use regless_core::RegLessConfig;
use regless_workloads::rodinia;

/// Regenerate the figure as a text table. Power is measured as register-
/// structure energy per cycle over all 21 benchmarks (geometric mean),
/// normalized to the baseline RF on the same workloads.
pub fn report() -> String {
    let mut baselines = Vec::new();
    let mut per_cap: Vec<Vec<f64>> = vec![Vec::new(); CAPACITIES.len()];
    for name in rodinia::NAMES {
        let bench = sweep::rodinia_id(name);
        let base = sweep::design(&bench, DesignKind::Baseline);
        let pb = energy_of(&base, DesignKind::Baseline).register_structures_pj / base.cycles as f64;
        baselines.push(pb);
        for (i, &entries) in CAPACITIES.iter().enumerate() {
            let design = DesignKind::RegLess(RegLessConfig::with_capacity(entries));
            let r = sweep::design(&bench, design);
            let p = energy_of(&r, design).register_structures_pj / r.cycles as f64;
            per_cap[i].push(p / pb);
        }
    }
    let mut rows = Vec::new();
    for (i, &entries) in CAPACITIES.iter().enumerate() {
        rows.push(vec![
            entries.to_string(),
            format!("{:.3}", geomean(&per_cap[i])),
        ]);
    }
    let mut out = String::from(
        "Figure 12: register-structure power by OSU capacity,\n\
         normalized to baseline RF (geomean over all benchmarks)\n\n",
    );
    out.push_str(&format_table(&["entries/SM", "normalized power"], &rows));
    out
}
