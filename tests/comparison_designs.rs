//! The related-work comparison designs (RFH, RFV, RegDem, compressed RF)
//! each exercise their own mechanism on a small loop kernel, run through
//! `DesignKind::execute` like every other caller, and execute the same
//! instruction stream as the baseline.

use regless::baselines::Throttle;
use regless::bench::{Attach, DesignKind};
use regless::isa::{Kernel, KernelBuilder, Opcode};
use regless::sim::{GpuConfig, RunReport};

fn loop_kernel() -> Kernel {
    let mut b = KernelBuilder::new("loop");
    let body = b.new_block();
    let done = b.new_block();
    let i0 = b.movi(0);
    let n = b.movi(32);
    let tid = b.thread_idx();
    b.jmp(body);
    b.select(body);
    let v = b.ld_global(tid);
    let x = b.iadd(v, tid);
    b.st_global(x, tid);
    let one = b.movi(1);
    b.emit_to(i0, Opcode::IAdd, vec![i0, one]);
    let c = b.setlt(i0, n);
    b.bra(c, body, done);
    b.select(done);
    b.exit();
    b.finish().unwrap()
}

fn run(design: DesignKind, gpu: GpuConfig) -> RunReport {
    design
        .execute(&loop_kernel(), gpu, &Attach::default())
        .unwrap()
}

#[test]
fn rfh_runs_and_filters_accesses() {
    let report = run(DesignKind::Rfh, GpuConfig::test_small());
    let t = report.total();
    assert!(t.insns > 0);
    // Some accesses hit the small levels, some the MRF.
    assert!(t.lrf_reads + t.rfc_reads > 0, "hierarchy must filter reads");
    assert!(t.rf_reads > 0, "cross-block values still hit the MRF");
}

#[test]
fn rfv_runs_and_renames() {
    let report = run(
        DesignKind::Throttled(Throttle::Rename),
        GpuConfig::test_small(),
    );
    let t = report.total();
    assert!(t.insns > 0);
    assert!(t.rename_lookups > 0);
    assert_eq!(t.rename_lookups, t.rf_reads + t.rf_writes);
}

#[test]
fn regdem_runs_and_counts_spills() {
    // Shrink the RF so the loop kernel's registers overflow the
    // per-warp hot budget and some traffic demotes.
    let gpu = GpuConfig {
        rf_bytes_per_sm: 8 * 1024,
        ..GpuConfig::test_small()
    };
    let report = run(DesignKind::Throttled(Throttle::Demote), gpu);
    let t = report.total();
    assert!(t.insns > 0);
    assert!(
        t.spill_fills + t.spill_stores > 0,
        "demoted registers must produce scratch traffic"
    );
    assert!(t.rf_reads > 0, "hot registers still hit the RF");
}

#[test]
fn compress_rf_runs_and_matches_patterns() {
    let report = run(
        DesignKind::Throttled(Throttle::Compress),
        GpuConfig::test_small(),
    );
    let t = report.total();
    assert!(t.insns > 0);
    assert!(
        t.compressor_matches > 0,
        "affine operands must pattern-match"
    );
    assert!(t.rf_reads + t.rf_writes >= t.compressor_matches);
}

#[test]
fn all_designs_execute_same_instruction_count() {
    let gpu = GpuConfig::test_small();
    let base = run(DesignKind::Baseline, gpu).total().insns;
    for design in [
        DesignKind::Rfh,
        DesignKind::Throttled(Throttle::Rename),
        DesignKind::Throttled(Throttle::Demote),
        DesignKind::Throttled(Throttle::Compress),
    ] {
        assert_eq!(run(design, gpu).total().insns, base, "{design:?}");
    }
}
