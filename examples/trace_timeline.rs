//! Trace the RegLess region lifecycle of one warp: admission, preloads,
//! activation, instruction issue, and release.
//!
//! ```sh
//! cargo run --release --example trace_timeline [benchmark] [warp]
//! ```

use regless::bench::{Attach, DesignKind};
use regless::sim::telemetry::Lane;
use regless::sim::GpuConfig;
use regless::workloads::rodinia;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "kmeans".into());
    let warp: usize = std::env::args()
        .nth(2)
        .and_then(|w| w.parse().ok())
        .unwrap_or(0);
    let kernel = rodinia::kernel(&name);
    let gpu = GpuConfig::gtx980_single_sm();
    let attach = Attach {
        telemetry: Some(200_000),
        ..Attach::default()
    };
    let report = DesignKind::regless_512().execute(&kernel, gpu, &attach)?;

    let telemetry = report.telemetry.as_ref().expect("telemetry attached");
    println!(
        "benchmark `{name}`, warp {warp} — region lifecycle ({} events total,\n{} dropped past buffer capacity)\n",
        telemetry.events.len(),
        telemetry.dropped
    );
    let timeline = telemetry.timeline(0, Lane::Warp(warp as u16));
    // Print the first chunk of the timeline; full kernels produce thousands
    // of lines.
    for line in timeline.lines().take(80) {
        println!("{line}");
    }
    let total = timeline.lines().count();
    if total > 80 {
        println!("... ({} more lines)", total - 80);
    }
    Ok(())
}
