//! Comparison points for the RegLess evaluation (paper §6.1):
//!
//! * [`RfhBackend`] — the compile-time managed register-file **hierarchy**
//!   of Gebhart et al. (LRF / RFC / MRF levels, two-level scheduler);
//! * [`RfvBackend`] — the register-file **virtualization** of Jeon et al.
//!   (half-size renamed register file, throttling under pressure);
//! * [`RegDemBackend`] — the compiler-directed **register demotion** of
//!   Sakdhnagool et al. (cold registers spilled to a shared-memory
//!   scratch partition);
//! * [`CompressRfBackend`] — the **statically-compressed** register file
//!   of Angerd et al. (affine values stored compressed in a half-size
//!   file).
//!
//! All plug into the same [`regless_sim::Machine`] pipeline as the
//! baseline and RegLess, so run-time and event counts are directly
//! comparable.
//!
//! ```
//! use regless_baselines::{run_rfh, run_rfv};
//! use regless_compiler::{compile, RegionConfig};
//! use regless_isa::KernelBuilder;
//! use regless_sim::GpuConfig;
//!
//! let mut b = KernelBuilder::new("demo");
//! let i = b.thread_idx();
//! let v = b.iadd(i, i);
//! b.st_global(v, i);
//! b.exit();
//! let compiled = compile(&b.finish()?, &RegionConfig::default())?;
//!
//! let rfh = run_rfh(GpuConfig::test_small(), compiled.clone())?;
//! let rfv = run_rfv(GpuConfig::test_small(), compiled)?;
//! assert_eq!(rfh.total().insns, rfv.total().insns);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod comprf;
mod regdem;
mod rfh;
mod rfv;

pub use comprf::CompressRfBackend;
pub use regdem::{RegDemBackend, SCRATCH_BYTES_PER_SM};
pub use rfh::{RfhBackend, RfhLevel, RfhPlacement};
pub use rfv::RfvBackend;

use regless_compiler::CompiledKernel;
use regless_sim::{GpuConfig, Machine, RunReport, SimError};
use std::sync::Arc;

/// Run a kernel under the RFH design (two-level scheduler, hierarchical
/// register file).
///
/// # Errors
///
/// Returns [`SimError`] if the cycle limit is exceeded.
pub fn run_rfh(gpu: GpuConfig, compiled: CompiledKernel) -> Result<RunReport, SimError> {
    let gpu = GpuConfig {
        scheduler: RfhBackend::scheduler(),
        ..gpu
    };
    let compiled = Arc::new(compiled);
    Machine::new(gpu, Arc::clone(&compiled), |_| RfhBackend::new(&compiled)).run()
}

/// Run a kernel under the RFV design (two-level scheduler, half-size
/// renamed register file).
///
/// # Errors
///
/// Returns [`SimError`] if the cycle limit is exceeded.
pub fn run_rfv(gpu: GpuConfig, compiled: CompiledKernel) -> Result<RunReport, SimError> {
    let gpu = GpuConfig {
        scheduler: RfvBackend::scheduler(),
        ..gpu
    };
    let compiled = Arc::new(compiled);
    Machine::new(gpu, Arc::clone(&compiled), |_| {
        RfvBackend::new(&gpu, Arc::clone(&compiled))
    })
    .run()
}

/// Run a kernel under the RegDem design (cold registers demoted to a
/// shared-memory scratch partition; baseline scheduler).
///
/// # Errors
///
/// Returns [`SimError`] if the cycle limit is exceeded.
pub fn run_regdem(gpu: GpuConfig, compiled: CompiledKernel) -> Result<RunReport, SimError> {
    let compiled = Arc::new(compiled);
    Machine::new(gpu, Arc::clone(&compiled), |_| {
        RegDemBackend::new(&gpu, Arc::clone(&compiled))
    })
    .run()
}

/// Run a kernel under the compressed-RF design (two-level scheduler,
/// half-size statically-compressed register file).
///
/// # Errors
///
/// Returns [`SimError`] if the cycle limit is exceeded.
pub fn run_compress_rf(gpu: GpuConfig, compiled: CompiledKernel) -> Result<RunReport, SimError> {
    let gpu = GpuConfig {
        scheduler: CompressRfBackend::scheduler(),
        ..gpu
    };
    let compiled = Arc::new(compiled);
    Machine::new(gpu, Arc::clone(&compiled), |_| {
        CompressRfBackend::new(&gpu, Arc::clone(&compiled))
    })
    .run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use regless_compiler::{compile, RegionConfig};
    use regless_isa::{KernelBuilder, Opcode};

    fn loop_kernel() -> CompiledKernel {
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
        compile(&b.finish().unwrap(), &RegionConfig::default()).unwrap()
    }

    #[test]
    fn rfh_runs_and_filters_accesses() {
        let report = run_rfh(GpuConfig::test_small(), loop_kernel()).unwrap();
        let t = report.total();
        assert!(t.insns > 0);
        // Some accesses hit the small levels, some the MRF.
        assert!(t.lrf_reads + t.rfc_reads > 0, "hierarchy must filter reads");
        assert!(t.rf_reads > 0, "cross-block values still hit the MRF");
    }

    #[test]
    fn rfv_runs_and_renames() {
        let report = run_rfv(GpuConfig::test_small(), loop_kernel()).unwrap();
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
        let report = run_regdem(gpu, loop_kernel()).unwrap();
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
        let report = run_compress_rf(GpuConfig::test_small(), loop_kernel()).unwrap();
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
        let compiled = loop_kernel();
        let base =
            regless_sim::run_baseline(GpuConfig::test_small(), Arc::new(compiled.clone())).unwrap();
        let rfh = run_rfh(GpuConfig::test_small(), compiled.clone()).unwrap();
        let rfv = run_rfv(GpuConfig::test_small(), compiled.clone()).unwrap();
        let regdem = run_regdem(GpuConfig::test_small(), compiled.clone()).unwrap();
        let comprf = run_compress_rf(GpuConfig::test_small(), compiled).unwrap();
        assert_eq!(base.total().insns, rfh.total().insns);
        assert_eq!(base.total().insns, rfv.total().insns);
        assert_eq!(base.total().insns, regdem.total().insns);
        assert_eq!(base.total().insns, comprf.total().insns);
    }
}
