//! One register store smaller than the allocation, four ways to price it.
//!
//! RFV, RegDem, the statically-compressed RF and the occupancy-limited
//! full RF model the same machine: registers live in a store that cannot
//! hold every warp's allocation, so warps are admitted in id order while
//! their footprints fit, a finishing warp frees its slot for the next, and
//! every operand access has a price. A [`Throttle`] policy says what one
//! warp costs against capacity, what a read or a write costs (counters
//! and extra latency), and which [`SmStats`] throttle counter it charges:
//!
//! * [`Throttle::Occupancy`] — the full register file with occupancy
//!   capped by the kernel's register allocation, the way real GPUs limit
//!   occupancy (paper §7 oversubscription study). Accesses are priced like
//!   [`regless_sim::BaselineRf`]'s, operand-collector conflicts included;
//!   there is no throttle counter.
//! * [`Throttle::Rename`] — RFV, the register-file virtualization of Jeon
//!   et al. (MICRO 2015), the paper's second comparison point (§6.1).
//!   Architectural registers are renamed onto a **half-size** physical
//!   pool, which holds a warp's peak live set; every access pays one
//!   rename-table lookup.
//! * [`Throttle::Demote`] — RegDem, the compiler-directed register
//!   demotion of Sakdhnagool et al. (arXiv 1907.02894). Registers ranked
//!   by static use count are split: the hottest stay in a half-size RF,
//!   the rest live in a shared-memory scratch partition of
//!   [`SCRATCH_BYTES_PER_SM`], which bounds how many warps' cold slabs fit.
//!   An instruction with a cold source pays the shared-memory latency.
//! * [`Throttle::Compress`] — the statically-compressed RF of Angerd et
//!   al. (arXiv 2006.05693). A dataflow analysis classifies registers
//!   whose values are affine across lanes as compressible; the physical
//!   file is half the baseline's, a compressible register takes a quarter
//!   entry and any other a full one, and every compressible access pays a
//!   compressor pattern match (counted into `compressor_matches`, which
//!   the energy model prices).

use crate::RfhBackend;
use regless_compiler::{CompiledKernel, RegionId};
use regless_isa::{InsnRef, Instruction, Kernel, LaneVec, Opcode, Reg};
use regless_sim::{
    collector_conflict_cycles, first_warps, warp_bit, BackendCtx, Cycle, GpuConfig, Machine,
    OperandBackend, RunReport, SchedulerKind, SimError, SmStats, StallMasks, StallReason, WarpMask,
};

/// Shared-memory scratch partition reserved for demoted registers, per
/// SM. `GpuConfig` does not model a shared-memory capacity, so this is a
/// backend constant: half of a Maxwell SM's 96 KB shared memory, matching
/// RegDem's "borrow shared memory the kernel does not use" framing.
pub const SCRATCH_BYTES_PER_SM: usize = 48 * 1024;

/// Quarter-entry units a compressible register occupies.
const COMPRESSED_Q: usize = 1;
/// Quarter-entry units an uncompressed register occupies.
const FULL_Q: usize = 4;

/// How a [`ThrottledRf`] sizes warps and prices operand accesses.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Throttle {
    /// Full register file, occupancy capped by the register allocation.
    Occupancy,
    /// RFV: half-size renamed pool over each warp's peak live set.
    Rename,
    /// RegDem: cold registers demoted to shared memory.
    Demote,
    /// Angerd et al.: quarter-width compressible registers.
    Compress,
}

impl Throttle {
    /// The scheduler the design runs under in the paper's comparison, or
    /// `None` to keep the machine's own. RFV and the compressed RF use
    /// the same two-level policy as RFH.
    pub fn scheduler(self) -> Option<SchedulerKind> {
        match self {
            Throttle::Rename | Throttle::Compress => Some(RfhBackend::scheduler()),
            Throttle::Occupancy | Throttle::Demote => None,
        }
    }
}

/// A [`Throttle`] with the per-register tables its prices read.
#[derive(Clone, Debug)]
enum Policy {
    Occupancy,
    Rename,
    Demote {
        /// Whether each register (by index) stays in the register file.
        hot: Vec<bool>,
        /// Shared-memory latency charged per instruction with a cold source.
        fill_latency: Cycle,
    },
    Compress {
        /// Whether each register (by index) stores compressed.
        compressible: Vec<bool>,
    },
}

/// The register file of the capacity-throttled designs (see the module
/// documentation for the four policies).
#[derive(Clone, Debug)]
pub struct ThrottledRf {
    admission: WarpAdmission,
    policy: Policy,
}

impl ThrottledRf {
    /// Build the backend for `compiled` on `gpu` under `throttle`: derive
    /// the policy's register tables, then admit as many warps as the
    /// store holds footprints of.
    pub fn new(throttle: Throttle, gpu: &GpuConfig, compiled: &CompiledKernel) -> Self {
        let kernel = compiled.kernel();
        let rf_entries = gpu.rf_bytes_per_sm / 128;
        // (store capacity, one warp's footprint), in one unit per policy.
        let (policy, pool, per_warp) = match throttle {
            Throttle::Occupancy => (
                Policy::Occupancy,
                rf_entries,
                (kernel.num_regs() as usize).max(1),
            ),
            Throttle::Rename => {
                let max_live = compiled
                    .liveness()
                    .live_counts(kernel)
                    .into_iter()
                    .map(|(_, n)| n)
                    .max()
                    .unwrap_or(1)
                    .max(1);
                (Policy::Rename, (rf_entries / 2).max(1), max_live)
            }
            Throttle::Demote => {
                // The half-size RF is shared evenly across resident warps.
                let hot = hot_registers(kernel, ((rf_entries / 2) / gpu.warps_per_sm).max(1));
                let cold = hot.iter().filter(|&&h| !h).count();
                let policy = Policy::Demote {
                    hot,
                    fill_latency: gpu.latency.shared_mem,
                };
                (policy, SCRATCH_BYTES_PER_SM / 128, cold)
            }
            Throttle::Compress => {
                let compressible = compressible_regs(kernel);
                let footprint_q = compressible
                    .iter()
                    .map(|&c| if c { COMPRESSED_Q } else { FULL_Q })
                    .sum();
                let policy = Policy::Compress { compressible };
                (policy, (rf_entries / 2) * FULL_Q, footprint_q)
            }
        };
        // A warp with no footprint never waits.
        let cap = pool
            .checked_div(per_warp)
            .map_or(gpu.warps_per_sm, |n| n.clamp(1, gpu.warps_per_sm));
        ThrottledRf {
            admission: WarpAdmission::new(gpu.warps_per_sm, cap),
            policy,
        }
    }

    /// How many warps can hold registers concurrently.
    pub fn concurrent_warps(&self) -> usize {
        self.admission.cap
    }

    /// The [`SmStats`] counter of warp-cycles spent throttled, if the
    /// policy keeps one.
    fn throttle_counter<'s>(&self, stats: &'s mut SmStats) -> Option<&'s mut u64> {
        match self.policy {
            Policy::Occupancy => None,
            Policy::Rename => Some(&mut stats.rfv_throttled_warp_cycles),
            Policy::Demote { .. } => Some(&mut stats.spill_throttled_warp_cycles),
            Policy::Compress { .. } => Some(&mut stats.comprf_throttled_warp_cycles),
        }
    }
}

/// Whether `reg` is set in a per-register table.
fn marked(table: &[bool], reg: Reg) -> bool {
    table.get(reg.index()).copied().unwrap_or(false)
}

/// RegDem's split: rank registers by static use count and keep the
/// `budget` most used; ties break toward the lower register id so the
/// split is deterministic.
fn hot_registers(kernel: &Kernel, budget: usize) -> Vec<bool> {
    let num_regs = kernel.num_regs() as usize;
    let mut uses = vec![0u64; num_regs];
    for (_, insn) in kernel.iter_insns() {
        for &src in insn.srcs() {
            uses[src.index()] += 1;
        }
        if let Some(dst) = insn.dst() {
            uses[dst.index()] += 1;
        }
    }
    let mut ranked: Vec<(u64, usize)> = uses.iter().enumerate().map(|(r, &n)| (n, r)).collect();
    ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut hot = vec![false; num_regs];
    for &(_, r) in ranked.iter().take(budget) {
        hot[r] = true;
    }
    hot
}

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
fn compressible_regs(kernel: &Kernel) -> Vec<bool> {
    let mut comp = vec![false; kernel.num_regs() as usize];
    for (_, insn) in kernel.iter_insns() {
        if let Some(d) = insn.dst() {
            comp[d.index()] = true;
        }
    }
    loop {
        let mut changed = false;
        for (_, insn) in kernel.iter_insns() {
            let Some(d) = insn.dst() else { continue };
            if comp[d.index()]
                && !(affine_closed(insn.op()) && insn.srcs().iter().all(|s| comp[s.index()]))
            {
                comp[d.index()] = false;
                changed = true;
            }
        }
        if !changed {
            return comp;
        }
    }
}

// The hooks are `#[inline]`: with a `match` on the policy they outgrow
// what LLVM inlines into the tick loop unasked, which cost `regless run
// hotspot --design rfv` about 4% wall time.
impl OperandBackend for ThrottledRf {
    fn run_machine(machine: Machine<Self>) -> Result<RunReport, SimError> {
        machine.run()
    }

    #[inline]
    fn begin_cycle(&mut self, ctx: &mut BackendCtx<'_>) {
        // Admit warps in id order while their footprints fit.
        let throttled = self.admission.admit() as u64;
        if let Some(counter) = self.throttle_counter(ctx.stats) {
            *counter += throttled;
        }
    }

    fn next_wakeup(&self, _now: Cycle) -> Option<Cycle> {
        // Admission only changes when a warp finishes, which is an issue
        // and therefore already forces a real tick; an idle span never
        // needs `begin_cycle` for state. The throttle counter is
        // bulk-applied in `on_skip` instead.
        None
    }

    #[inline]
    fn on_skip(&mut self, from: Cycle, to: Cycle, stats: &mut SmStats) {
        // The stepped loop would have charged the throttled warps once
        // per skipped cycle.
        let throttled = self.admission.throttled();
        if let Some(counter) = self.throttle_counter(stats) {
            *counter += throttled * (to - from);
        }
    }

    #[inline]
    fn eligible(&self, ready: WarpMask, _regions: &[Option<RegionId>]) -> WarpMask {
        self.admission.eligible(ready)
    }

    #[inline]
    fn stalls(&self, ineligible: WarpMask) -> StallMasks {
        // Throttled: waiting for register-store capacity.
        self.admission.stalls(ineligible)
    }

    #[inline]
    fn on_issue(
        &mut self,
        w: usize,
        _at: InsnRef,
        insn: &Instruction,
        ctx: &mut BackendCtx<'_>,
    ) -> Cycle {
        let srcs = insn.srcs();
        let reads = srcs.len() as u64;
        let stats = &mut *ctx.stats;
        stats.backing_series.record(ctx.now, reads);
        match &self.policy {
            Policy::Occupancy => {
                stats.rf_reads += reads;
                // Operand collectors gather same-bank sources over extra
                // cycles.
                let conflicts = collector_conflict_cycles(w, srcs);
                stats.rf_bank_conflicts += conflicts;
                conflicts
            }
            Policy::Rename => {
                stats.rf_reads += reads;
                stats.rename_lookups += reads;
                0
            }
            Policy::Demote { hot, fill_latency } => {
                let cold = srcs.iter().filter(|&&s| !marked(hot, s)).count() as u64;
                stats.rf_reads += reads - cold;
                stats.spill_fills += cold;
                // All fills of one instruction pipeline behind one
                // shared-memory access; hot operands are free.
                if cold > 0 {
                    *fill_latency
                } else {
                    0
                }
            }
            Policy::Compress { compressible } => {
                stats.rf_reads += reads;
                stats.compressor_matches +=
                    srcs.iter().filter(|&&s| marked(compressible, s)).count() as u64;
                0
            }
        }
    }

    #[inline]
    fn on_writeback(
        &mut self,
        _w: usize,
        _at: InsnRef,
        reg: Reg,
        _value: LaneVec,
        ctx: &mut BackendCtx<'_>,
    ) {
        let stats = &mut *ctx.stats;
        stats.backing_series.record(ctx.now, 1);
        match &self.policy {
            Policy::Occupancy => stats.rf_writes += 1,
            Policy::Rename => {
                stats.rf_writes += 1;
                stats.rename_lookups += 1;
            }
            Policy::Demote { hot, .. } if !marked(hot, reg) => stats.spill_stores += 1,
            Policy::Demote { .. } => stats.rf_writes += 1,
            Policy::Compress { compressible } => {
                stats.rf_writes += 1;
                stats.compressor_matches += u64::from(marked(compressible, reg));
            }
        }
    }

    fn on_warp_finish(&mut self, w: usize, _ctx: &mut BackendCtx<'_>) {
        self.admission.finish(w);
    }
}

/// Static warp admission: up to `cap` unfinished warps are resident at
/// once, admitted in id order, and a finishing warp frees its slot for the
/// next. The admitted and finished sets are [`WarpMask`]s.
#[derive(Clone, Debug)]
struct WarpAdmission {
    /// Every warp of the SM.
    warps: WarpMask,
    admitted: WarpMask,
    finished: WarpMask,
    cap: usize,
    /// Warps left throttled by the last [`WarpAdmission::admit`].
    throttled: usize,
}

impl WarpAdmission {
    /// Admission over `warps_per_sm` warps, at most `cap` resident.
    fn new(warps_per_sm: usize, cap: usize) -> Self {
        WarpAdmission {
            warps: first_warps(warps_per_sm),
            admitted: 0,
            finished: 0,
            cap,
            throttled: 0,
        }
    }

    /// Admit unfinished warps in id order while below the cap; returns how
    /// many warps are left throttled (neither admitted nor finished).
    fn admit(&mut self) -> usize {
        let mut waiting = self.warps & !self.admitted & !self.finished;
        let mut resident = self.admitted.count_ones() as usize;
        while resident < self.cap && waiting != 0 {
            let lowest = waiting & waiting.wrapping_neg();
            self.admitted |= lowest;
            waiting &= !lowest;
            resident += 1;
        }
        self.throttled = waiting.count_ones() as usize;
        self.throttled
    }

    /// Warps left throttled by the last [`WarpAdmission::admit`]. The sets
    /// change only when a warp finishes, which is an issue, so a skipped
    /// idle span would have throttled this many warps on every cycle.
    fn throttled(&self) -> u64 {
        self.throttled as u64
    }

    /// The resident warps of `ready`.
    fn eligible(&self, ready: WarpMask) -> WarpMask {
        ready & self.admitted
    }

    /// Why the warps of `ineligible` cannot issue: unfinished ones wait for
    /// register capacity; finished ones have no reason.
    fn stalls(&self, ineligible: WarpMask) -> StallMasks {
        let mut groups = StallMasks::default();
        groups.add(StallReason::OsuCapacityWait, ineligible & !self.finished);
        groups
    }

    /// Warp `w` exited: release its slot for good.
    fn finish(&mut self, w: usize) {
        self.admitted &= !warp_bit(w);
        self.finished |= warp_bit(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regless_compiler::{compile, RegionConfig};
    use regless_isa::{BlockId, KernelBuilder};
    use regless_sim::MemSystem;

    const AT: InsnRef = InsnRef {
        block: BlockId(0),
        idx: 0,
    };

    fn compiled(b: KernelBuilder) -> CompiledKernel {
        let config = RegionConfig {
            max_regs_per_region: 32,
            ..RegionConfig::default()
        };
        compile(&b.finish().unwrap(), &config).unwrap()
    }

    /// tid and a constant flow through iadd: every register is affine.
    fn small_kernel() -> CompiledKernel {
        let mut b = KernelBuilder::new("small");
        let i = b.thread_idx();
        let c = b.movi(7);
        let x = b.iadd(i, c);
        b.st_global(x, i);
        b.exit();
        compiled(b)
    }

    /// 24 values summed into one accumulator: ~24 live registers of ~26
    /// allocated, the accumulator used most. With `loaded`, the values
    /// come from memory and so are incompressible.
    fn pressured_kernel(loaded: bool) -> CompiledKernel {
        let mut b = KernelBuilder::new("pressure");
        let i = b.thread_idx();
        let vals: Vec<_> = (0..24)
            .map(|n| if loaded { b.ld_global(i) } else { b.movi(n) })
            .collect();
        let mut acc = vals[0];
        for &v in &vals[1..] {
            acc = b.iadd(acc, v);
        }
        b.st_global(acc, i);
        b.exit();
        compiled(b)
    }

    /// Issue `insn` and write back its destination; returns the issue's
    /// extra latency and the counters.
    fn access(backend: &mut ThrottledRf, gpu: &GpuConfig, insn: &Instruction) -> (Cycle, SmStats) {
        let mut mem = MemSystem::new(gpu);
        let mut stats = SmStats::default();
        let mut ctx = BackendCtx {
            sm: 0,
            now: 0,
            mem: &mut mem,
            stats: &mut stats,
        };
        backend.begin_cycle(&mut ctx);
        assert_eq!(backend.eligible(0b1, &[]), 0b1);
        let extra = backend.on_issue(0, AT, insn, &mut ctx);
        let dst = insn.dst().expect("probe writes a register");
        backend.on_writeback(0, AT, dst, LaneVec::zero(), &mut ctx);
        (extra, stats)
    }

    fn iadd(dst: Reg, a: Reg, b: Reg) -> Instruction {
        Instruction::new(Opcode::IAdd, Some(dst), vec![a, b])
    }

    #[test]
    fn occupancy_admits_bounded_warps_and_finishing_admits_the_next() {
        // Room for 4 warps' registers and a bit: 4 resident of 8 warps.
        let kernel = small_kernel();
        let regs = kernel.kernel().num_regs() as usize;
        let gpu = GpuConfig {
            rf_bytes_per_sm: (4 * regs + 1) * 128,
            ..GpuConfig::test_small()
        };
        let mut backend = ThrottledRf::new(Throttle::Occupancy, &gpu, &kernel);
        assert_eq!(backend.concurrent_warps(), 4);
        let mut mem = MemSystem::new(&gpu);
        let mut stats = SmStats::default();
        let mut ctx = BackendCtx {
            sm: 0,
            now: 0,
            mem: &mut mem,
            stats: &mut stats,
        };
        backend.begin_cycle(&mut ctx);
        let all = first_warps(8);
        assert_eq!(backend.eligible(all, &[]), 0b1111);
        backend.on_warp_finish(0, &mut ctx);
        backend.begin_cycle(&mut ctx);
        assert_eq!(
            backend.eligible(all, &[]),
            0b1_1110,
            "finished warp not re-admitted"
        );
        let stalls = backend.stalls(all & !backend.eligible(all, &[]));
        assert_eq!(stalls.get(StallReason::OsuCapacityWait), 0b1110_0000);
        // No throttle counter, even over a skipped span.
        backend.on_skip(1, 10, ctx.stats);
        let throttled = stats.rfv_throttled_warp_cycles
            + stats.spill_throttled_warp_cycles
            + stats.comprf_throttled_warp_cycles;
        assert_eq!(throttled, 0);
    }

    #[test]
    fn occupancy_prices_accesses_like_the_baseline_rf() {
        let gpu = GpuConfig::test_small();
        let mut backend = ThrottledRf::new(Throttle::Occupancy, &gpu, &small_kernel());
        // Registers 16 apart share a bank: one collector conflict.
        let (extra, stats) = access(&mut backend, &gpu, &iadd(Reg(2), Reg(0), Reg(16)));
        assert_eq!(extra, 1);
        assert_eq!(stats.rf_bank_conflicts, 1);
        assert_eq!((stats.rf_reads, stats.rf_writes), (2, 1));
    }

    #[test]
    fn rename_admits_all_warps_at_low_pressure() {
        let gpu = GpuConfig::test_small();
        let backend = ThrottledRf::new(Throttle::Rename, &gpu, &small_kernel());
        assert_eq!(backend.concurrent_warps(), gpu.warps_per_sm);
    }

    #[test]
    fn rename_throttles_at_high_pressure() {
        // With 64 warps and ~25 live registers each, the half-size pool
        // (1024 entries) holds only ~40 warps' live sets.
        let gpu = GpuConfig::gtx980();
        let backend = ThrottledRf::new(Throttle::Rename, &gpu, &pressured_kernel(false));
        assert!(backend.concurrent_warps() < gpu.warps_per_sm);
        assert!(backend.concurrent_warps() >= 1);
    }

    #[test]
    fn rename_counts_lookups() {
        let gpu = GpuConfig::test_small();
        let mut backend = ThrottledRf::new(Throttle::Rename, &gpu, &small_kernel());
        let (extra, stats) = access(&mut backend, &gpu, &iadd(Reg(2), Reg(0), Reg(1)));
        assert_eq!(extra, 0);
        assert_eq!(stats.rename_lookups, 3);
        assert_eq!((stats.rf_reads, stats.rf_writes), (2, 1));
    }

    #[test]
    fn demote_hot_set_prefers_most_used_registers() {
        // 64 warps share the half-size RF: 16 hot registers per warp, so
        // the ~26-register kernel must demote some.
        let gpu = GpuConfig::gtx980();
        let kernel = pressured_kernel(false);
        let backend = ThrottledRf::new(Throttle::Demote, &gpu, &kernel);
        let Policy::Demote { hot, .. } = &backend.policy else {
            panic!("demote policy");
        };
        let uses = |r: usize| {
            kernel
                .kernel()
                .iter_insns()
                .filter(|(_, insn)| {
                    insn.dst() == Some(Reg(r as u16)) || insn.srcs().contains(&Reg(r as u16))
                })
                .count()
        };
        let hot_count = hot.iter().filter(|&&h| h).count();
        assert_eq!(hot_count, 16, "the budget fills");
        assert!(hot_count < hot.len(), "some registers demote");
        let coldest_hot = (0..hot.len()).filter(|&r| hot[r]).map(uses).min();
        let hottest_cold = (0..hot.len()).filter(|&r| !hot[r]).map(uses).max();
        assert!(
            coldest_hot >= hottest_cold,
            "a cold register is used more than a hot one"
        );
    }

    #[test]
    fn demote_admits_all_warps_without_cold_registers() {
        let gpu = GpuConfig::test_small();
        let backend = ThrottledRf::new(Throttle::Demote, &gpu, &small_kernel());
        assert_eq!(backend.concurrent_warps(), gpu.warps_per_sm);
    }

    #[test]
    fn demote_cold_operand_pays_shared_mem_latency() {
        let gpu = GpuConfig::gtx980();
        let mut backend = ThrottledRf::new(Throttle::Demote, &gpu, &pressured_kernel(false));
        let Policy::Demote { hot, .. } = &backend.policy else {
            panic!("demote policy");
        };
        let hot_reg = Reg(hot.iter().position(|&h| h).unwrap() as u16);
        let cold_reg = Reg(hot.iter().position(|&h| !h).unwrap() as u16);
        let (extra, stats) = access(&mut backend, &gpu, &iadd(cold_reg, hot_reg, cold_reg));
        assert_eq!(extra, gpu.latency.shared_mem, "cold fill pays latency");
        assert_eq!((stats.rf_reads, stats.spill_fills), (1, 1));
        assert_eq!((stats.rf_writes, stats.spill_stores), (0, 1));
        // An all-hot instruction is free.
        let (extra, _) = access(&mut backend, &gpu, &iadd(hot_reg, hot_reg, hot_reg));
        assert_eq!(extra, 0);
    }

    #[test]
    fn compress_classifies_affine_dataflow() {
        let gpu = GpuConfig::test_small();
        let backend = ThrottledRf::new(Throttle::Compress, &gpu, &small_kernel());
        let Policy::Compress { compressible } = &backend.policy else {
            panic!("compress policy");
        };
        assert!(
            compressible.iter().all(|&c| c),
            "pure affine kernel compresses every register"
        );

        // Values loaded from memory are incompressible, and so is
        // arithmetic over them; tid stays compressible.
        let mut b = KernelBuilder::new("loaded");
        let i = b.thread_idx();
        let v = b.ld_global(i);
        let w = b.iadd(v, i);
        b.st_global(w, i);
        b.exit();
        let backend = ThrottledRf::new(Throttle::Compress, &gpu, &compiled(b));
        let Policy::Compress { compressible } = &backend.policy else {
            panic!("compress policy");
        };
        assert_eq!(compressible, &[true, false, false]);
    }

    #[test]
    fn compress_throttles_incompressible_pressure() {
        // 24+ incompressible registers cost 4 quarter-entries each: the
        // half-size file cannot hold all 64 warps' footprints.
        let gpu = GpuConfig::gtx980();
        let backend = ThrottledRf::new(Throttle::Compress, &gpu, &pressured_kernel(true));
        assert!(backend.concurrent_warps() < gpu.warps_per_sm);
        assert!(backend.concurrent_warps() >= 1);
    }

    #[test]
    fn compress_counts_accesses_and_matches() {
        let gpu = GpuConfig::test_small();
        let mut backend = ThrottledRf::new(Throttle::Compress, &gpu, &small_kernel());
        let (extra, stats) = access(&mut backend, &gpu, &iadd(Reg(2), Reg(0), Reg(1)));
        assert_eq!(extra, 0);
        assert_eq!((stats.rf_reads, stats.rf_writes), (2, 1));
        // Every operand of the all-affine kernel pattern-matches.
        assert_eq!(stats.compressor_matches, 3);
    }

    #[test]
    fn each_policy_charges_its_own_throttle_counter() {
        // One warp fits the 1-entry-per-warp store: 7 of 8 are throttled
        // on every cycle, stepped or skipped.
        let gpu = GpuConfig::test_small();
        for (throttle, counter) in [
            (
                Throttle::Rename,
                (|s: &SmStats| s.rfv_throttled_warp_cycles) as fn(&SmStats) -> u64,
            ),
            (Throttle::Demote, |s| s.spill_throttled_warp_cycles),
            (Throttle::Compress, |s| s.comprf_throttled_warp_cycles),
        ] {
            let mut backend = ThrottledRf::new(throttle, &gpu, &small_kernel());
            backend.admission.cap = 1;
            let mut mem = MemSystem::new(&gpu);
            let mut stats = SmStats::default();
            let mut ctx = BackendCtx {
                sm: 0,
                now: 0,
                mem: &mut mem,
                stats: &mut stats,
            };
            backend.begin_cycle(&mut ctx);
            backend.on_skip(1, 4, ctx.stats);
            assert_eq!(counter(&stats), 7 * 4, "{throttle:?}");
            let total = stats.rfv_throttled_warp_cycles
                + stats.spill_throttled_warp_cycles
                + stats.comprf_throttled_warp_cycles;
            assert_eq!(total, 7 * 4, "{throttle:?} charges one counter");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    const WARPS: usize = 12;

    /// The per-warp admission the masks replace: flag vectors walked in id
    /// order, and a per-warp eligibility and stall classification.
    struct Reference {
        admitted: Vec<bool>,
        finished: Vec<bool>,
        cap: usize,
    }

    impl Reference {
        fn admit(&mut self) -> usize {
            for w in 0..WARPS {
                let resident = self.admitted.iter().filter(|&&a| a).count();
                if resident < self.cap && !self.finished[w] && !self.admitted[w] {
                    self.admitted[w] = true;
                }
            }
            (0..WARPS)
                .filter(|&w| !self.admitted[w] && !self.finished[w])
                .count()
        }

        fn classify(&self, ready: WarpMask) -> (WarpMask, WarpMask) {
            let (mut eligible, mut capacity) = (0, 0);
            for w in (0..WARPS).filter(|&w| ready & warp_bit(w) != 0) {
                if self.admitted[w] {
                    eligible |= warp_bit(w);
                } else if !self.finished[w] {
                    capacity |= warp_bit(w);
                }
            }
            (eligible, capacity)
        }
    }

    proptest! {
        /// Under random admit/finish sequences, the mask-based admission
        /// throttles the same count and classifies random ready masks the
        /// same way as the per-warp reference.
        #[test]
        fn admission_masks_match_per_warp_reference(
            cap in 1usize..6,
            ops in proptest::collection::vec((any::<bool>(), 0usize..WARPS, any::<u16>()), 1..80),
        ) {
            let mut masks = WarpAdmission::new(WARPS, cap);
            let mut reference = Reference {
                admitted: vec![false; WARPS],
                finished: vec![false; WARPS],
                cap,
            };
            for (finish, w, ready) in ops {
                if finish {
                    masks.finish(w);
                    reference.admitted[w] = false;
                    reference.finished[w] = true;
                } else {
                    let throttled = reference.admit();
                    prop_assert_eq!(masks.admit(), throttled);
                    prop_assert_eq!(masks.throttled(), throttled as u64);
                }
                let ready = WarpMask::from(ready) & first_warps(WARPS);
                let eligible = masks.eligible(ready);
                let stalls = masks.stalls(ready & !eligible);
                let (want_eligible, want_capacity) = reference.classify(ready);
                prop_assert_eq!(eligible, want_eligible);
                prop_assert_eq!(stalls.get(StallReason::OsuCapacityWait), want_capacity);
                prop_assert_eq!(stalls, {
                    let mut g = StallMasks::default();
                    g.add(StallReason::OsuCapacityWait, want_capacity);
                    g
                });
            }
        }
    }
}
