//! RegLess hardware model: just-in-time operand staging replacing the GPU
//! register file (paper §5).
//!
//! Each scheduler shard gets a **capacity manager** ([`CapacityManager`])
//! that admits warps to execution only once their next region's operands
//! are staged, an 8-bank **operand staging unit** ([`Osu`]) a quarter the
//! size of the register file it replaces, and a pattern **compressor**
//! ([`Compressor`]) that shrinks registers spilled through the L1.
//!
//! [`RegLessBackend`] wires these into the `regless-sim` pipeline, one per
//! SM, for a kernel compiled with [`RegLessConfig::region_config`]. To run
//! a kernel under RegLess, call `regless_bench::DesignKind::execute` on
//! `DesignKind::RegLess(config)`: it compiles, builds the machine and
//! attaches telemetry, the self profiler or a cancellation token.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod cm;
mod compressor;
mod config;
mod osu;
mod regmem;

pub use backend::RegLessBackend;
pub use cm::{ActivationOrder, Candidate, CapacityManager, WarpPhase};
pub use compressor::{
    Compressed, CompressedHit, Compressor, PatternKind, PatternSet, StoreOutcome,
    NUM_PATTERN_KINDS, REGS_PER_COMPRESSED_LINE,
};
pub use config::RegLessConfig;
pub use osu::{runtime_bank, EvictedLine, InstallResult, Osu};
pub use regmem::{RegisterBacking, RegisterMemoryMap, REG_LINE_BYTES};

#[cfg(test)]
mod tests {
    use super::*;
    use regless_compiler::{compile, RegionConfig};
    use regless_isa::{Kernel, KernelBuilder, Opcode};
    use regless_sim::{run_baseline, GpuConfig, Machine, OperandBackend, RunReport};
    use std::sync::Arc;

    fn gpu() -> GpuConfig {
        GpuConfig::test_small()
    }

    /// Compile `kernel` for the paper's design point and run it with a
    /// RegLess backend on every SM.
    fn run(kernel: &Kernel) -> RunReport {
        let gpu = gpu();
        let config = RegLessConfig::paper_default();
        let compiled = Arc::new(compile(kernel, &config.region_config(&gpu)).expect("compiles"));
        let machine = Machine::new(gpu, Arc::clone(&compiled), |sm| {
            RegLessBackend::new(sm, &gpu, &config, Arc::clone(&compiled))
        });
        RegLessBackend::run_machine(machine).expect("runs")
    }

    #[test]
    fn straight_line_kernel_completes() {
        let mut b = KernelBuilder::new("s");
        let i = b.thread_idx();
        let x = b.iadd(i, i);
        let y = b.imul(x, i);
        b.st_global(y, i);
        b.exit();
        let k = b.finish().unwrap();
        let report = run(&k);
        let t = report.total();
        assert_eq!(t.insns, 8 * 5);
        assert!(
            t.regions_activated >= 8,
            "each warp activates at least once"
        );
        assert!(t.meta_insns > 0, "metadata bubbles issued");
        assert!(t.osu_reads > 0 && t.osu_writes > 0);
        assert_eq!(t.rf_reads, 0, "no register file remains");
    }

    #[test]
    fn cross_region_value_flows_through_staging() {
        // A load's value is used in a later region: the value must flow
        // OSU -> (eviction?) -> preload correctly.
        let mut b = KernelBuilder::new("flow");
        let i = b.thread_idx();
        let v = b.ld_global(i);
        let w = b.iadd(v, i); // separate region (load/use split)
        b.st_global(w, i);
        b.exit();
        let k = b.finish().unwrap();
        let report = run(&k);
        let t = report.total();
        assert_eq!(t.insns, 8 * 5);
        assert!(t.regions_activated >= 16, "two regions per warp");
        assert!(t.preloads_total() > 0, "second region preloads inputs");
    }

    #[test]
    fn loop_kernel_with_cross_region_values() {
        let mut b = KernelBuilder::new("loop");
        let body = b.new_block();
        let done = b.new_block();
        let i0 = b.movi(0);
        let n = b.movi(32);
        let acc = b.movi(0);
        b.jmp(body);
        b.select(body);
        let one = b.movi(1);
        b.emit_to(acc, Opcode::IAdd, vec![acc, i0]);
        b.emit_to(i0, Opcode::IAdd, vec![i0, one]);
        let c = b.setlt(i0, n);
        b.bra(c, body, done);
        b.select(done);
        b.st_global(acc, acc);
        b.exit();
        let k = b.finish().unwrap();
        let report = run(&k);
        assert_eq!(report.total().insns, 8 * (4 + 32 * 5 + 2));
    }

    #[test]
    fn barrier_kernel_does_not_deadlock() {
        let mut b = KernelBuilder::new("bar");
        let i = b.thread_idx();
        let x = b.iadd(i, i);
        b.bar();
        let y = b.imul(x, x);
        b.st_global(y, i);
        b.exit();
        let k = b.finish().unwrap();
        let report = run(&k);
        assert_eq!(report.total().insns, 8 * 6);
    }

    #[test]
    fn divergent_kernel_completes() {
        let mut b = KernelBuilder::new("div");
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        let lane = b.lane_idx();
        let half = b.movi(16);
        let c = b.setlt(lane, half);
        b.bra(c, t, e);
        b.select(t);
        let a1 = b.iadd(lane, lane);
        b.st_global(a1, lane);
        b.jmp(j);
        b.select(e);
        let a2 = b.imul(lane, lane);
        b.st_global(a2, lane);
        b.jmp(j);
        b.select(j);
        b.exit();
        let k = b.finish().unwrap();
        let report = run(&k);
        assert_eq!(report.total().insns, 8 * 11);
    }

    /// RegLess should be performance-competitive with the baseline on a
    /// modest kernel (the paper reports no average loss).
    #[test]
    fn runtime_close_to_baseline() {
        let mut b = KernelBuilder::new("perf");
        let body = b.new_block();
        let done = b.new_block();
        let i0 = b.movi(0);
        let n = b.movi(64);
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
        let k = b.finish().unwrap();

        let regless = run(&k);
        let compiled_base = Arc::new(compile(&k, &RegionConfig::default()).unwrap());
        let baseline = run_baseline(gpu(), compiled_base).unwrap();
        let ratio = regless.cycles as f64 / baseline.cycles as f64;
        assert!(
            ratio < 1.6,
            "RegLess {} vs baseline {} cycles (ratio {ratio:.2})",
            regless.cycles,
            baseline.cycles
        );
    }

    /// Most preloads should hit in the OSU or compressor, not memory
    /// (Figure 17: 0.9% from L1 on average).
    #[test]
    fn preloads_mostly_hit_staging() {
        let mut b = KernelBuilder::new("hits");
        let body = b.new_block();
        let done = b.new_block();
        let i0 = b.movi(0);
        let n = b.movi(64);
        let acc = b.movi(0);
        b.jmp(body);
        b.select(body);
        let one = b.movi(1);
        b.emit_to(acc, Opcode::IAdd, vec![acc, i0]);
        b.emit_to(i0, Opcode::IAdd, vec![i0, one]);
        let c = b.setlt(i0, n);
        b.bra(c, body, done);
        b.select(done);
        b.st_global(acc, acc);
        b.exit();
        let k = b.finish().unwrap();
        let report = run(&k);
        let t = report.total();
        let total = t.preloads_total() as f64;
        assert!(total > 0.0);
        let staged = (t.preloads_osu + t.preloads_compressor) as f64;
        assert!(staged / total > 0.8, "staged {staged} of {total} preloads");
    }
}
