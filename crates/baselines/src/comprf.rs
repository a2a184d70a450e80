//! Compress-RF: the statically-compressed register file of Angerd et al.
//! (arXiv 2006.05693), the registry's second related-work entry.
//!
//! Angerd et al. observe that many register values are **affine across
//! lanes** (`base + lane * stride`) and build a register file that stores
//! such values compressed — a quarter of a full entry — so the same SRAM
//! holds more warps' registers. We model the static variant: a dataflow
//! analysis over the kernel classifies each architectural register as
//! compressible (every definition is an affine-closed op over
//! compressible inputs) or not, the physical file is **half** the
//! baseline's, and a warp's footprint charges one quarter-entry per
//! compressible register and four per incompressible one. Warps whose
//! footprints do not fit are throttled like RFV's pool admission, and
//! every compressible access pays a compressor pattern match (counted
//! into the existing `compressor_matches`, which the energy model prices).

use regless_compiler::CompiledKernel;
use regless_isa::{InsnRef, Instruction, LaneVec, Opcode, Reg};
use regless_sim::{
    BackendCtx, Cycle, GpuConfig, Machine, OperandBackend, RunReport, SchedulerKind, SimError,
    StallMasks, WarpAdmission, WarpMask, WarpState,
};
use std::sync::Arc;

/// Quarter-entry units a compressible register occupies.
const COMPRESSED_Q: usize = 1;
/// Quarter-entry units an uncompressed register occupies.
const FULL_Q: usize = 4;

/// Whether `op` preserves lane-affinity when its inputs are affine.
fn affine_closed(op: Opcode) -> bool {
    matches!(
        op,
        Opcode::MovImm(_)
            | Opcode::ReadSpecial(_)
            | Opcode::Mov
            | Opcode::IAdd
            | Opcode::ISub
            | Opcode::IMul
            | Opcode::Shl
    )
}

/// Classify each register: compressible iff **every** definition is an
/// affine-closed op whose sources are all compressible (an optimistic
/// fixpoint, so loop-carried affine registers like induction variables
/// stay compressible). Registers with no definition are incompressible.
fn compressible_regs(compiled: &CompiledKernel) -> Vec<bool> {
    let kernel = compiled.kernel();
    let n = kernel.num_regs() as usize;
    let mut defined = vec![false; n];
    for (_, insn) in kernel.iter_insns() {
        if let Some(d) = insn.dst() {
            defined[d.0 as usize] = true;
        }
    }
    let mut comp: Vec<bool> = defined.clone();
    loop {
        let mut changed = false;
        for (_, insn) in kernel.iter_insns() {
            let Some(d) = insn.dst() else { continue };
            let d = d.0 as usize;
            if !comp[d] {
                continue;
            }
            let ok = affine_closed(insn.op()) && insn.srcs().iter().all(|s| comp[s.0 as usize]);
            if !ok {
                comp[d] = false;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    comp
}

/// The compressed-register-file operand backend.
pub struct CompressRfBackend {
    compiled: Arc<CompiledKernel>,
    /// Per-register compressibility, indexed by register id.
    compressible: Vec<bool>,
    /// Warps admitted while their footprints fit the physical file.
    admission: WarpAdmission,
}

impl CompressRfBackend {
    /// Build the backend: classify registers, then size admission so the
    /// admitted warps' (compressed) footprints fit a half-size physical
    /// file.
    pub fn new(gpu: &GpuConfig, compiled: Arc<CompiledKernel>) -> Self {
        let compressible = compressible_regs(&compiled);
        let footprint_q: usize = compressible
            .iter()
            .map(|&c| if c { COMPRESSED_Q } else { FULL_Q })
            .sum();
        let pool_q = ((gpu.rf_bytes_per_sm / 128) / 2) * FULL_Q;
        let cap = match pool_q.checked_div(footprint_q) {
            None => gpu.warps_per_sm,
            Some(n) => n.max(1),
        };
        CompressRfBackend {
            compiled,
            compressible,
            admission: WarpAdmission::new(gpu.warps_per_sm, cap),
        }
    }

    /// The scheduler the compressed-RF design runs under (same two-level
    /// policy as the other capacity-throttled comparison points).
    pub fn scheduler() -> SchedulerKind {
        SchedulerKind::TwoLevel {
            active_per_scheduler: 4,
        }
    }

    /// Whether `reg` stores compressed.
    pub fn is_compressible(&self, reg: Reg) -> bool {
        self.compressible
            .get(reg.0 as usize)
            .copied()
            .unwrap_or(false)
    }

    /// How many warps' footprints fit the physical file at once.
    pub fn concurrent_warps(&self) -> usize {
        self.admission.cap()
    }
}

impl OperandBackend for CompressRfBackend {
    fn run_machine(machine: Machine<Self>) -> Result<RunReport, SimError> {
        machine.run()
    }

    fn begin_cycle(&mut self, ctx: &mut BackendCtx<'_>) {
        // Admit warps in id order while their footprints fit.
        ctx.stats.comprf_throttled_warp_cycles += self.admission.admit() as u64;
    }

    fn next_wakeup(&self, _now: Cycle) -> Option<Cycle> {
        // Admission only changes when a warp finishes — a real tick; the
        // throttle counter is bulk-applied in `on_skip`.
        None
    }

    fn on_skip(&mut self, from: Cycle, to: Cycle, stats: &mut regless_sim::SmStats) {
        // The stepped loop would have charged the throttled warps once
        // per skipped cycle.
        stats.comprf_throttled_warp_cycles += self.admission.throttled() * (to - from);
    }

    fn eligible(&self, ready: WarpMask, _warps: &[WarpState]) -> WarpMask {
        self.admission.eligible(ready)
    }

    fn stalls(&self, ineligible: WarpMask) -> StallMasks {
        // Throttled: waiting for physical-entry capacity.
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
        for &src in insn.srcs() {
            if self.is_compressible(src) {
                ctx.stats.compressor_matches += 1;
            }
        }
        ctx.stats.backing_series.record(ctx.now, reads);
        0
    }

    fn on_writeback(
        &mut self,
        _w: usize,
        _at: InsnRef,
        reg: Reg,
        _value: LaneVec,
        ctx: &mut BackendCtx<'_>,
    ) {
        ctx.stats.rf_writes += 1;
        if self.is_compressible(reg) {
            ctx.stats.compressor_matches += 1;
        }
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

    fn affine_kernel() -> CompiledKernel {
        // tid and constants flow through iadd: everything stays affine.
        let mut b = KernelBuilder::new("affine");
        let i = b.thread_idx();
        let c = b.movi(7);
        let x = b.iadd(i, c);
        b.st_global(x, i);
        b.exit();
        compile(&b.finish().unwrap(), &RegionConfig::default()).unwrap()
    }

    fn loaded_kernel() -> CompiledKernel {
        // Values loaded from memory are incompressible, and so is
        // arithmetic over them.
        let mut b = KernelBuilder::new("loaded");
        let i = b.thread_idx();
        let v = b.ld_global(i);
        let w = b.iadd(v, i);
        b.st_global(w, i);
        b.exit();
        compile(&b.finish().unwrap(), &RegionConfig::default()).unwrap()
    }

    fn incompressible_pressure_kernel() -> CompiledKernel {
        // Many loaded (incompressible) registers live at once.
        let mut b = KernelBuilder::new("ld_pressure");
        let i = b.thread_idx();
        let vals: Vec<_> = (0..24).map(|_| b.ld_global(i)).collect();
        let mut acc = vals[0];
        for &v in &vals[1..] {
            acc = b.iadd(acc, v);
        }
        b.st_global(acc, i);
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
    fn affine_dataflow_is_compressible() {
        let gpu = GpuConfig::test_small();
        let compiled = Arc::new(affine_kernel());
        let backend = CompressRfBackend::new(&gpu, Arc::clone(&compiled));
        let n = compiled.kernel().num_regs();
        assert!(
            (0..n).all(|r| backend.is_compressible(Reg(r))),
            "pure affine kernel compresses every register"
        );
    }

    #[test]
    fn loads_poison_compressibility() {
        let gpu = GpuConfig::test_small();
        let compiled = Arc::new(loaded_kernel());
        let backend = CompressRfBackend::new(&gpu, Arc::clone(&compiled));
        let n = compiled.kernel().num_regs();
        let comp = (0..n).filter(|&r| backend.is_compressible(Reg(r))).count();
        assert!(comp >= 1, "tid stays compressible");
        assert!(
            comp < n as usize,
            "loaded values and their derivatives do not"
        );
    }

    #[test]
    fn incompressible_pressure_throttles() {
        // 24+ incompressible registers cost 4 quarter-entries each: the
        // half-size file cannot hold all 64 warps' footprints.
        let gpu = GpuConfig::gtx980();
        let backend = CompressRfBackend::new(&gpu, Arc::new(incompressible_pressure_kernel()));
        assert!(backend.concurrent_warps() < gpu.warps_per_sm);
        assert!(backend.concurrent_warps() >= 1);
    }

    #[test]
    fn counts_accesses_and_matches() {
        let gpu = GpuConfig::test_small();
        let compiled = Arc::new(affine_kernel());
        let mut backend = CompressRfBackend::new(&gpu, Arc::clone(&compiled));
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
        assert_eq!(stats.rf_reads, 2);
        assert_eq!(stats.rf_writes, 1);
        // Every operand of the all-affine kernel pattern-matches.
        assert_eq!(stats.compressor_matches, 3);
    }
}
