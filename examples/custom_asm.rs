//! Author a kernel in the textual assembly format, compile it into RegLess
//! regions, and run it — the full pipeline from source text to cycles.
//!
//! ```sh
//! cargo run --release --example custom_asm
//! ```

use regless::bench::{Attach, DesignKind};
use regless::compiler::compile;
use regless::core::RegLessConfig;
use regless::isa::text::{format_kernel, parse_kernel};
use regless::sim::GpuConfig;

/// A reduction loop written by hand: each thread sums 16 strided loads.
const SOURCE: &str = "\
kernel strided_sum
bb0:
  r0 = s2r tid            ; global thread index
  r1 = movi 0x4
  r2 = imul r0, r1        ; byte address of this thread's element
  r3 = movi 0             ; accumulator
  r4 = movi 0             ; loop counter
  r5 = movi 16            ; trip count
  jmp bb1
bb1:
  r6 = ld.global [r2]
  r3 = iadd r3, r6
  r7 = movi 0x80
  r2 = iadd r2, r7        ; next stride
  r8 = movi 1
  r4 = iadd r4, r8
  r9 = setlt r4, r5
  bra r9, bb1, bb2
bb2:
  st.global r3, [r2]
  exit
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let kernel = parse_kernel(SOURCE)?;
    println!(
        "parsed `{}` ({} instructions); canonical form:\n",
        kernel.name(),
        kernel.num_insns()
    );
    print!("{}", format_kernel(&kernel));

    let gpu = GpuConfig::gtx980_single_sm();
    let osu = RegLessConfig::paper_default();
    let compiled = compile(&kernel, &osu.region_config(&gpu))?;
    println!("\ncompiled into {} regions:", compiled.regions().len());
    for r in compiled.regions() {
        println!(
            "  {}: {} insns in {}, {} preloads",
            r.id(),
            r.len(),
            r.block(),
            r.preloads().len()
        );
    }

    let report = DesignKind::RegLess(osu).execute(&kernel, gpu, &Attach::default())?;
    print_report(report);
    Ok(())
}

fn print_report(report: regless::sim::RunReport) {
    let t = report.total();
    println!(
        "\nran in {} cycles; {} preloads ({} staged, {} from memory)",
        report.cycles,
        t.preloads_total(),
        t.preloads_osu + t.preloads_compressor,
        t.preloads_l1 + t.preloads_l2_dram,
    );
}
