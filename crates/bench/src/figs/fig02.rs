//! Figure 2: average register working set in 100-cycle windows, GTO vs
//! two-level warp scheduling, per benchmark.

use crate::{eval_gpu, format_table, sweep, DesignKind};
use regless_sim::{GpuConfig, SchedulerKind};
use regless_workloads::rodinia;

/// Regenerate the figure as a text table (KB per window).
pub fn report() -> String {
    let mut rows = Vec::new();
    for name in rodinia::NAMES {
        let bench = sweep::rodinia_id(name);
        let run = |scheduler| {
            let gpu = GpuConfig {
                scheduler,
                ..eval_gpu()
            };
            sweep::engine().run(&bench, DesignKind::Baseline, gpu)
        };
        let gto = run(SchedulerKind::Gto);
        let two = run(SchedulerKind::TwoLevel {
            active_per_scheduler: 4,
        });
        rows.push(vec![
            name.to_string(),
            format!("{:.1}", gto.sm_stats[0].working_set.mean_kb()),
            format!("{:.1}", two.sm_stats[0].working_set.mean_kb()),
        ]);
    }
    let mut out =
        String::from("Figure 2: register working set per 100-cycle window (KB per SM)\n\n");
    out.push_str(&format_table(&["benchmark", "GTO", "2-Level"], &rows));
    out
}
