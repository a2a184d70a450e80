//! The strongest cross-crate check in the repository: every timing model —
//! every registered design, RegLess among them with its staged operand
//! values moving through OSU banks, the compressor, and the memory
//! hierarchy — must leave architectural state **bit-identical** to the
//! timing-free functional interpreter.

use regless::bench::{registry, Attach, DesignKind};
use regless::compiler::{compile, RegionConfig};
use regless::sim::{interpret, run_baseline, GpuConfig, RunReport};
use regless::workloads::rodinia;
use std::sync::Arc;

fn gpu() -> GpuConfig {
    GpuConfig {
        num_sms: 1,
        warps_per_sm: 16,
        ..GpuConfig::gtx980()
    }
}

fn check_against_interpreter(name: &str, report: &RunReport, kernel: &regless::isa::Kernel) {
    for (w, (regs, &insns)) in report.final_regs[0]
        .iter()
        .zip(&report.warp_insns[0])
        .enumerate()
    {
        let reference = interpret(kernel, w, 10_000_000).expect("terminates");
        assert_eq!(
            insns, reference.insns,
            "{name}: warp {w} executed a different dynamic instruction count"
        );
        for (r, (got, want)) in regs.iter().zip(&reference.regs).enumerate() {
            assert_eq!(
                got, want,
                "{name}: warp {w} register r{r} diverged from the interpreter"
            );
        }
    }
}

#[test]
fn baseline_matches_interpreter() {
    for name in ["nn", "bfs", "particle_filter", "lud"] {
        let kernel = rodinia::kernel(name);
        let compiled = Arc::new(compile(&kernel, &RegionConfig::default()).unwrap());
        let report = run_baseline(gpu(), compiled).unwrap();
        check_against_interpreter(name, &report, &kernel);
    }
}

/// RegLess on every benchmark: the interpreter's architectural state, and
/// no staging mismatch anywhere (the staged-operand oracle of DESIGN.md).
#[test]
fn regless_matches_interpreter() {
    for name in rodinia::NAMES {
        let kernel = rodinia::kernel(name);
        let report = DesignKind::regless_512()
            .execute(&kernel, gpu(), &Attach::default())
            .unwrap();
        check_against_interpreter(name, &report, &kernel);
        // And the staged values the OSU handed out matched along the way.
        assert_eq!(
            report.total().staging_mismatches,
            0,
            "{name}: OSU served a stale or missing operand"
        );
    }
}

/// Every registered design at its default parameters, through the one
/// run path the CLI, serve and the sweeps use.
#[test]
fn comparison_designs_match_interpreter() {
    for entry in registry::all() {
        let design = entry.default_design();
        for name in ["backprop", "nn", "hotspot", "lud"] {
            let kernel = rodinia::kernel(name);
            let report = design
                .execute(&kernel, gpu(), &Attach::default())
                .unwrap_or_else(|e| panic!("{name}/{}: {e}", entry.id));
            check_against_interpreter(&format!("{name}/{}", entry.id), &report, &kernel);
        }
    }
}

#[test]
fn microbenchmarks_match_interpreter() {
    use regless::workloads::micro;
    for kernel in micro::all() {
        let report = DesignKind::regless_512()
            .execute(&kernel, gpu(), &Attach::default())
            .unwrap();
        check_against_interpreter(kernel.name(), &report, &kernel);
        assert_eq!(
            report.total().staging_mismatches,
            0,
            "{}: staged-operand oracle",
            kernel.name()
        );
    }
}
