//! Compare the four register-storage designs of the paper's evaluation —
//! baseline RF, RF hierarchy (RFH), RF virtualization (RFV), and RegLess —
//! on one benchmark, reporting run time and energy.
//!
//! ```sh
//! cargo run --release --example compare_designs [benchmark]
//! ```

use regless::baselines::Throttle;
use regless::bench::{Attach, DesignKind};
use regless::energy::{energy, Design};
use regless::sim::{GpuConfig, RunReport};
use regless::workloads::rodinia;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "hotspot".into());
    let kernel = rodinia::kernel(&name);
    let gpu = GpuConfig::gtx980_single_sm();

    let run = |design: DesignKind| design.execute(&kernel, gpu, &Attach::default());
    let baseline = run(DesignKind::Baseline)?;
    let rfh = run(DesignKind::Rfh)?;
    let rfv = run(DesignKind::Throttled(Throttle::Rename))?;
    let regless = run(DesignKind::regless_512())?;

    let base_energy = energy(&baseline, Design::Baseline, &gpu).total_pj();
    let row = |label: &str, report: &RunReport, design: Design| {
        let e = energy(report, design, &gpu);
        println!(
            "{label:<10} {:>9} cycles ({:>5.3}x)   RF energy {:>6.3}x   GPU energy {:>6.3}x",
            report.cycles,
            report.cycles as f64 / baseline.cycles as f64,
            e.register_structures_pj
                / energy(&baseline, Design::Baseline, &gpu).register_structures_pj,
            e.total_pj() / base_energy,
        );
    };

    println!("benchmark `{name}` on one GTX 980-class SM\n");
    row("baseline", &baseline, Design::Baseline);
    row("RFH", &rfh, Design::Rfh);
    row("RFV", &rfv, Design::Rfv);
    row(
        "RegLess",
        &regless,
        Design::RegLess {
            osu_entries_per_sm: 512,
        },
    );
    Ok(())
}
