//! Figure 13: run time vs whole-GPU energy for RegLess capacities,
//! normalized to baseline — the Pareto sweep.

use crate::{energy_of, format_table, geomean, sweep, DesignKind};
use regless_core::RegLessConfig;
use regless_workloads::rodinia;

/// Capacities in the paper's Pareto plot (2048 omitted there).
pub const CAPACITIES: [usize; 6] = [128, 192, 256, 384, 512, 1024];

/// Regenerate the figure as a text table.
pub fn report() -> String {
    let mut time: Vec<Vec<f64>> = vec![Vec::new(); CAPACITIES.len()];
    let mut energy: Vec<Vec<f64>> = vec![Vec::new(); CAPACITIES.len()];
    for name in rodinia::NAMES {
        let bench = sweep::rodinia_id(name);
        let base = sweep::design(&bench, DesignKind::Baseline);
        let eb = energy_of(&base, DesignKind::Baseline).total_pj();
        for (i, &entries) in CAPACITIES.iter().enumerate() {
            let d = DesignKind::RegLess(RegLessConfig::with_capacity(entries));
            let r = sweep::design(&bench, d);
            time[i].push(r.cycles as f64 / base.cycles as f64);
            energy[i].push(energy_of(&r, d).total_pj() / eb);
        }
    }
    let mut rows = Vec::new();
    for (i, &entries) in CAPACITIES.iter().enumerate() {
        rows.push(vec![
            entries.to_string(),
            format!("{:.3}", geomean(&time[i])),
            format!("{:.3}", geomean(&energy[i])),
        ]);
    }
    let mut out = String::from(
        "Figure 13: run time vs GPU energy by OSU capacity (geomeans,\n\
         normalized to baseline)\n\n",
    );
    out.push_str(&format_table(
        &["entries/SM", "norm. run time", "norm. GPU energy"],
        &rows,
    ));
    out
}
