//! Figure 16: run time of the 512-register RegLess design, normalized to
//! the baseline, per benchmark; geomean compared against no-compressor,
//! RFV, and RFH.

use crate::{bar_chart, format_table, geomean, sweep, DesignKind};
use regless_baselines::Throttle;
use regless_core::RegLessConfig;
use regless_workloads::rodinia;

/// Regenerate the figure as a text table.
pub fn report() -> String {
    let mut rows = Vec::new();
    let mut bars = Vec::new();
    let mut rl = Vec::new();
    let mut nc = Vec::new();
    let mut rfv = Vec::new();
    let mut rfh = Vec::new();
    for name in rodinia::NAMES {
        let bench = sweep::rodinia_id(name);
        let base = sweep::design(&bench, DesignKind::Baseline).cycles as f64;
        let r = sweep::design(&bench, DesignKind::regless_512()).cycles as f64 / base;
        rl.push(r);
        let no_compressor = DesignKind::RegLess(RegLessConfig {
            compressor_enabled: false,
            ..RegLessConfig::with_capacity(512)
        });
        nc.push(sweep::design(&bench, no_compressor).cycles as f64 / base);
        let rfv_design = DesignKind::Throttled(Throttle::Rename);
        rfv.push(sweep::design(&bench, rfv_design).cycles as f64 / base);
        rfh.push(sweep::design(&bench, DesignKind::Rfh).cycles as f64 / base);
        rows.push(vec![name.to_string(), format!("{r:.3}")]);
        bars.push((name.to_string(), r));
    }
    rows.push(vec!["geomean".into(), format!("{:.3}", geomean(&rl))]);
    let mut out = String::from("Figure 16: run time normalized to baseline (lower is better)\n\n");
    out.push_str(&format_table(&["benchmark", "RegLess 512"], &rows));
    out.push_str(&format!(
        "\ngeomean comparison: RegLess {:.3} | no compressor {:.3} | RFV {:.3} | RFH {:.3}\n",
        geomean(&rl),
        geomean(&nc),
        geomean(&rfv),
        geomean(&rfh)
    ));
    out.push('\n');
    out.push_str(&bar_chart(&bars, 48));
    out
}
