//! Quickstart: build a kernel, compile it into RegLess regions, and run it
//! on a simulated SM with the register file replaced by an operand staging
//! unit.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use regless::bench::{Attach, DesignKind};
use regless::compiler::compile;
use regless::core::RegLessConfig;
use regless::isa::KernelBuilder;
use regless::sim::GpuConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small SAXPY-like kernel: y[i] = a * x[i] + y0.
    let mut b = KernelBuilder::new("saxpy");
    let i = b.thread_idx();
    let four = b.movi(4);
    let addr = b.imul(i, four);
    let x = b.ld_global(addr);
    let a = b.movi(3);
    let y0 = b.movi(17);
    let y = b.imad(a, x, y0);
    b.st_global(y, addr);
    b.exit();
    let kernel = b.finish()?;

    // The paper's design point: a 512-entry staging unit per SM — 25 % of
    // the baseline register file.
    let gpu = GpuConfig::gtx980_single_sm();
    let osu = RegLessConfig::paper_default();

    // Compile with region limits matched to the staging unit's shape (the
    // run below compiles the same way).
    let compiled = compile(&kernel, &osu.region_config(&gpu))?;
    println!("kernel `{}`:", kernel.name());
    for region in compiled.regions() {
        println!(
            "  {:>8}  {} insns, {} preloads, {} interior regs, peak {} live",
            region.id().to_string(),
            region.len(),
            region.preloads().len(),
            region.interior().len(),
            region.max_concurrent(),
        );
    }

    // Run it.
    let report = DesignKind::RegLess(osu).execute(&kernel, gpu, &Attach::default())?;
    let t = report.total();
    println!(
        "\nran {} instructions in {} cycles (IPC {:.2})",
        t.insns,
        report.cycles,
        report.ipc()
    );
    println!(
        "preloads: {} from OSU, {} from compressor, {} from L1, {} from L2/DRAM",
        t.preloads_osu, t.preloads_compressor, t.preloads_l1, t.preloads_l2_dram
    );
    println!("metadata instructions decoded: {}", t.meta_insns);
    Ok(())
}
