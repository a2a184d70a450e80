//! Sweep operand-staging-unit capacities on one benchmark, printing the
//! run-time/energy trade-off (a single-benchmark slice of the paper's
//! Figure 13 Pareto study).
//!
//! ```sh
//! cargo run --release --example capacity_sweep [benchmark]
//! ```

use regless::bench::{Attach, DesignKind};
use regless::core::RegLessConfig;
use regless::energy::energy;
use regless::sim::GpuConfig;
use regless::workloads::rodinia;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "srad_v2".into());
    let kernel = rodinia::kernel(&name);
    let gpu = GpuConfig::gtx980_single_sm();

    let run = |design: DesignKind| design.execute(&kernel, gpu, &Attach::default());
    let baseline = run(DesignKind::Baseline)?;
    let base_energy = energy(&baseline, DesignKind::Baseline.energy_design(), &gpu).total_pj();
    println!(
        "benchmark `{name}`: baseline {} cycles; sweeping OSU capacity\n",
        baseline.cycles
    );
    println!(
        "{:>10} {:>12} {:>12} {:>14}",
        "entries", "% of RF", "run time", "GPU energy"
    );

    for entries in [128, 192, 256, 384, 512, 1024, 2048] {
        let design = DesignKind::RegLess(RegLessConfig::with_capacity(entries));
        let report = run(design)?;
        let e = energy(&report, design.energy_design(), &gpu);
        println!(
            "{:>10} {:>11}% {:>11.3}x {:>13.3}x",
            entries,
            entries * 100 / 2048,
            report.cycles as f64 / baseline.cycles as f64,
            e.total_pj() / base_energy
        );
    }
    Ok(())
}
