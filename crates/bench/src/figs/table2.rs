//! Table 2: average static instructions per region and average dynamic
//! cycles per region activation.

use crate::sweep;
use crate::{compile_default, format_table, DesignKind};
use regless_workloads::rodinia;

/// Regenerate the table.
pub fn report() -> String {
    let mut rows = Vec::new();
    for name in rodinia::NAMES {
        let kernel = rodinia::kernel(name);
        let insns = compile_default(&kernel).mean_region_len();
        let r = sweep::design(&sweep::rodinia_id(name), DesignKind::regless_512());
        let t = r.total();
        let cycles = t.region_active_cycles as f64 / t.regions_activated.max(1) as f64;
        rows.push(vec![
            name.to_string(),
            format!("{insns:.1}"),
            format!("{cycles:.0}"),
        ]);
    }
    let mut out = String::from(
        "Table 2: static instructions per region and dynamic cycles per\n\
         region activation\n\n",
    );
    out.push_str(&format_table(
        &["benchmark", "insns/region", "cycles/region"],
        &rows,
    ));
    out
}
