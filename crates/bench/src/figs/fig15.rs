//! Figure 15: total GPU energy for the No-RF bound, RFH, RFV, and RegLess,
//! normalized to baseline, per benchmark.

use crate::{energy_of, format_table, geomean, sweep, DesignKind};
use regless_baselines::Throttle;
use regless_energy::{energy, Design};
use regless_workloads::rodinia;

/// Regenerate the figure as a text table.
pub fn report() -> String {
    let gpu = crate::eval_gpu();
    let mut rows = Vec::new();
    let mut geo = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for name in rodinia::NAMES {
        let bench = sweep::rodinia_id(name);
        let base = sweep::design(&bench, DesignKind::Baseline);
        let eb = energy_of(&base, DesignKind::Baseline).total_pj();
        // The No-RF bound: baseline performance with a free register file.
        let norf = energy(&base, Design::NoRf, &gpu).total_pj() / eb;
        geo[0].push(norf);
        let mut row = vec![name.to_string(), format!("{norf:.3}")];
        let designs = [
            DesignKind::Rfh,
            DesignKind::Throttled(Throttle::Rename),
            DesignKind::regless_512(),
        ];
        for (i, &d) in designs.iter().enumerate() {
            let r = sweep::design(&bench, d);
            let ratio = energy_of(&r, d).total_pj() / eb;
            geo[i + 1].push(ratio);
            row.push(format!("{ratio:.3}"));
        }
        rows.push(row);
    }
    rows.push(vec![
        "geomean".into(),
        format!("{:.3}", geomean(&geo[0])),
        format!("{:.3}", geomean(&geo[1])),
        format!("{:.3}", geomean(&geo[2])),
        format!("{:.3}", geomean(&geo[3])),
    ]);
    let mut out = String::from(
        "Figure 15: total GPU energy normalized to baseline (No RF = upper\n\
         bound on savings)\n\n",
    );
    out.push_str(&format_table(
        &["benchmark", "No RF", "RFH", "RFV", "RegLess"],
        &rows,
    ));
    out
}
