//! Figure 14: register-file energy for RFH, RFV, and RegLess, normalized
//! to the baseline register file, per benchmark.

use crate::{bar_chart, energy_of, format_table, geomean, sweep, DesignKind};
use regless_baselines::Throttle;
use regless_workloads::rodinia;

/// Regenerate the figure as a text table.
pub fn report() -> String {
    let mut rows = Vec::new();
    let mut geo = [Vec::new(), Vec::new(), Vec::new()];
    for name in rodinia::NAMES {
        let bench = sweep::rodinia_id(name);
        let base = sweep::design(&bench, DesignKind::Baseline);
        let eb = energy_of(&base, DesignKind::Baseline).register_structures_pj;
        let designs = [
            DesignKind::Rfh,
            DesignKind::Throttled(Throttle::Rename),
            DesignKind::regless_512(),
        ];
        let mut row = vec![name.to_string()];
        for (i, &d) in designs.iter().enumerate() {
            let r = sweep::design(&bench, d);
            let ratio = energy_of(&r, d).register_structures_pj / eb;
            geo[i].push(ratio);
            row.push(format!("{ratio:.3}"));
        }
        rows.push(row);
    }
    rows.push(vec![
        "geomean".into(),
        format!("{:.3}", geomean(&geo[0])),
        format!("{:.3}", geomean(&geo[1])),
        format!("{:.3}", geomean(&geo[2])),
    ]);
    let mut out = String::from("Figure 14: register-file energy normalized to baseline\n\n");
    out.push_str(&format_table(
        &["benchmark", "RFH", "RFV", "RegLess"],
        &rows,
    ));
    let bars: Vec<(String, f64)> = rows
        .iter()
        .filter(|r| r[0] != "geomean")
        .map(|r| (r[0].clone(), r[3].parse().expect("regless column")))
        .collect();
    out.push('\n');
    out.push_str("RegLess column as bars (lower is better):\n");
    out.push_str(&bar_chart(&bars, 48));
    out
}
