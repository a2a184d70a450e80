//! RFV: register-file virtualization of Jeon et al. (MICRO 2015), the
//! paper's second comparison point.
//!
//! RFV renames architectural registers onto a **half-size** physical file,
//! exploiting the fact that far fewer values are live than are allocated.
//! When a kernel's live set is too large for the physical file, concurrency
//! must be throttled — the register-pressure slowdowns the original paper
//! reports on `dwt2d` and `hotspot`. We model this by admitting warps only
//! while the sum of their peak live-register counts fits the physical pool,
//! and counting a rename-table lookup per operand access.

use regless_compiler::CompiledKernel;
use regless_isa::{InsnRef, Instruction, LaneVec, Reg};
use regless_sim::{
    BackendCtx, Cycle, GpuConfig, Machine, OperandBackend, RunReport, SchedulerKind, SimError,
    StallMasks, WarpAdmission, WarpMask, WarpState,
};
use std::sync::Arc;

/// The RFV operand backend.
pub struct RfvBackend {
    compiled: Arc<CompiledKernel>,
    /// Warps admitted while their peak live sets fit the physical pool
    /// (half the baseline allocation).
    admission: WarpAdmission,
}

impl RfvBackend {
    /// Build the backend. The physical pool is half of the baseline
    /// register file's entries (a hardware property, per the original
    /// paper's half-size design).
    pub fn new(gpu: &GpuConfig, compiled: Arc<CompiledKernel>) -> Self {
        let baseline_entries = gpu.rf_bytes_per_sm / 128;
        let pool = (baseline_entries / 2).max(1);
        let max_live_per_warp = compiled
            .liveness()
            .live_counts(compiled.kernel())
            .into_iter()
            .map(|(_, n)| n)
            .max()
            .unwrap_or(1)
            .max(1);
        RfvBackend {
            compiled,
            admission: WarpAdmission::new(gpu.warps_per_sm, (pool / max_live_per_warp).max(1)),
        }
    }

    /// The scheduler RFV runs under in the paper's comparison.
    pub fn scheduler() -> SchedulerKind {
        SchedulerKind::TwoLevel {
            active_per_scheduler: 4,
        }
    }

    /// How many warps can hold registers concurrently.
    pub fn concurrent_warps(&self) -> usize {
        self.admission.cap()
    }
}

impl OperandBackend for RfvBackend {
    fn run_machine(machine: Machine<Self>) -> Result<RunReport, SimError> {
        machine.run()
    }

    fn begin_cycle(&mut self, ctx: &mut BackendCtx<'_>) {
        // Admit warps in id order while the live sets fit.
        ctx.stats.rfv_throttled_warp_cycles += self.admission.admit() as u64;
    }

    fn next_wakeup(&self, _now: Cycle) -> Option<Cycle> {
        // Admission only changes when a warp finishes, which is an issue
        // and therefore already forces a real tick; an idle span never
        // needs `begin_cycle` for state. The unconditional throttle
        // counter is bulk-applied in `on_skip` instead.
        None
    }

    fn on_skip(&mut self, from: Cycle, to: Cycle, stats: &mut regless_sim::SmStats) {
        // The stepped loop would have charged the throttled warps once
        // per skipped cycle.
        stats.rfv_throttled_warp_cycles += self.admission.throttled() * (to - from);
    }

    fn eligible(&self, ready: WarpMask, _warps: &[WarpState]) -> WarpMask {
        self.admission.eligible(ready)
    }

    fn stalls(&self, ineligible: WarpMask) -> StallMasks {
        // Throttled: waiting for physical-register pool capacity.
        self.admission.stalls(ineligible)
    }

    fn on_issue(
        &mut self,
        _w: usize,
        _at: InsnRef,
        insn: &Instruction,
        ctx: &mut BackendCtx<'_>,
    ) -> Cycle {
        let reads = insn.srcs().len() as u64;
        ctx.stats.rf_reads += reads;
        ctx.stats.rename_lookups += reads;
        ctx.stats.backing_series.record(ctx.now, reads);
        0
    }

    fn on_writeback(
        &mut self,
        _w: usize,
        _at: InsnRef,
        _reg: Reg,
        _value: LaneVec,
        ctx: &mut BackendCtx<'_>,
    ) {
        ctx.stats.rf_writes += 1;
        ctx.stats.rename_lookups += 1;
        ctx.stats.backing_series.record(ctx.now, 1);
    }

    fn on_warp_finish(&mut self, w: usize, _ctx: &mut BackendCtx<'_>) {
        self.admission.finish(w);
        let _ = &self.compiled;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regless_compiler::{compile, RegionConfig};
    use regless_isa::KernelBuilder;

    fn small_kernel() -> CompiledKernel {
        let mut b = KernelBuilder::new("small");
        let i = b.thread_idx();
        let x = b.iadd(i, i);
        b.st_global(x, i);
        b.exit();
        compile(&b.finish().unwrap(), &RegionConfig::default()).unwrap()
    }

    fn pressured_kernel() -> CompiledKernel {
        // ~24 concurrently live registers out of ~26 allocated.
        let mut b = KernelBuilder::new("pressure");
        let vals: Vec<_> = (0..24).map(|i| b.movi(i)).collect();
        let mut acc = vals[0];
        for &v in &vals[1..] {
            acc = b.iadd(acc, v);
        }
        b.st_global(acc, acc);
        b.exit();
        compile(
            &b.finish().unwrap(),
            &RegionConfig {
                max_regs_per_region: 32,
                ..RegionConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn low_pressure_admits_all_warps() {
        let gpu = GpuConfig::test_small();
        let backend = RfvBackend::new(&gpu, Arc::new(small_kernel()));
        assert!(backend.concurrent_warps() >= gpu.warps_per_sm);
    }

    #[test]
    fn high_pressure_throttles() {
        // With 64 warps and ~25 live registers each, the half-size pool
        // (1024 entries) holds only ~40 warps' live sets.
        let gpu = GpuConfig::gtx980();
        let backend = RfvBackend::new(&gpu, Arc::new(pressured_kernel()));
        assert!(backend.concurrent_warps() < gpu.warps_per_sm);
        assert!(backend.concurrent_warps() >= 1);
    }

    #[test]
    fn counts_rename_lookups() {
        let gpu = GpuConfig::test_small();
        let compiled = Arc::new(small_kernel());
        let mut backend = RfvBackend::new(&gpu, Arc::clone(&compiled));
        let mut mem = regless_sim::MemSystem::new(&gpu);
        let mut stats = regless_sim::SmStats::default();
        let insn = regless_isa::Instruction::new(
            regless_isa::Opcode::IAdd,
            Some(Reg(2)),
            vec![Reg(0), Reg(1)],
        );
        let at = InsnRef {
            block: regless_isa::BlockId(0),
            idx: 0,
        };
        let mut ctx = BackendCtx {
            sm: 0,
            now: 0,
            mem: &mut mem,
            stats: &mut stats,
        };
        backend.begin_cycle(&mut ctx);
        assert_eq!(backend.eligible(0b1, &[]), 0b1);
        backend.on_issue(0, at, &insn, &mut ctx);
        backend.on_writeback(0, at, Reg(2), LaneVec::zero(), &mut ctx);
        assert_eq!(stats.rename_lookups, 3);
        assert_eq!(stats.rf_reads, 2);
    }
}
