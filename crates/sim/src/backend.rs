//! Operand-storage backends.
//!
//! The pipeline in [`crate::sm`] is generic over *where operands live*: the
//! baseline's big register file, RegLess's operand staging unit, or the
//! RFH/RFV comparison designs. A backend observes issues and writebacks,
//! gates which warps are eligible (RegLess's capacity manager), injects
//! metadata bubbles, and adds operand-access latency (bank conflicts).

use crate::config::Cycle;
use crate::mask::WarpMask;
use crate::mem::MemSystem;
use crate::sm::{Machine, RunReport, SimError};
use crate::stats::SmStats;
use crate::warp::WarpState;
use regless_compiler::RegionId;
use regless_isa::{InsnRef, Instruction, LaneVec, Reg};
use regless_telemetry::{StallReason, NUM_STALL_REASONS};

/// Mutable context handed to backend hooks.
pub struct BackendCtx<'a> {
    /// This SM's index.
    pub sm: usize,
    /// Current cycle.
    pub now: Cycle,
    /// The shared memory hierarchy.
    pub mem: &'a mut MemSystem,
    /// This SM's counters.
    pub stats: &'a mut SmStats,
}

/// An SM's warps as [`OperandBackend::begin_cycle_with_warps`] sees them.
#[derive(Clone, Copy, Debug)]
pub struct WarpView<'a> {
    /// Architectural state of each warp.
    pub states: &'a [WarpState],
    /// The region at each warp's PC, `None` once the warp exited. The SM
    /// updates a warp's entry when it issues, the only time a PC moves.
    pub regions: &'a [Option<RegionId>],
    /// Warps waiting at a barrier (exactly those with `at_barrier` set).
    pub barrier: WarpMask,
}

/// Warps grouped by the [`StallReason`] that keeps them from issuing: one
/// [`WarpMask`] per reason.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct StallMasks([WarpMask; NUM_STALL_REASONS]);

impl StallMasks {
    /// Add `warps` to the group of `reason`.
    pub fn add(&mut self, reason: StallReason, warps: WarpMask) {
        self.0[reason.index()] |= warps;
    }

    /// The warps grouped under `reason`.
    pub fn get(&self, reason: StallReason) -> WarpMask {
        self.0[reason.index()]
    }
}

/// Storage/scheduling behaviour plugged into the SM pipeline.
pub trait OperandBackend {
    /// Called once per cycle before issue; the RegLess capacity manager
    /// runs its activation and preload pipelines here.
    fn begin_cycle(&mut self, ctx: &mut BackendCtx<'_>) {
        let _ = ctx;
    }

    /// Variant of [`OperandBackend::begin_cycle`] that also sees the warps
    /// (region transitions depend on warp PCs). The default simply
    /// forwards to `begin_cycle`.
    fn begin_cycle_with_warps(&mut self, warps: WarpView<'_>, ctx: &mut BackendCtx<'_>) {
        let _ = warps;
        self.begin_cycle(ctx);
    }

    /// The warps of `ready` the backend lets issue now. `ready` is an
    /// SM-local [`WarpMask`] of one scheduler's warps with no scoreboard
    /// hazard and no barrier wait; `regions` is [`WarpView::regions`].
    /// The baseline lets every ready warp issue; RegLess requires the
    /// region at the warp's PC to be active for the warp.
    fn eligible(&self, ready: WarpMask, regions: &[Option<RegionId>]) -> WarpMask {
        let _ = regions;
        ready
    }

    /// Why the warps of `ineligible` (ready warps that
    /// [`OperandBackend::eligible`] held back) cannot issue, grouped by
    /// [`StallReason`], for the per-cycle issue-slot attribution (CPI
    /// stacks). A warp left out of every group is one the backend has no
    /// stake in; `Issued` and `NoWarp` are not blocking reasons, and the
    /// SM ignores warps grouped under them. RegLess reports
    /// [`StallReason::CmPreloadWait`], [`StallReason::OsuCapacityWait`],
    /// or [`StallReason::Drain`]; occupancy-limited designs report
    /// capacity waits.
    fn stalls(&self, ineligible: WarpMask) -> StallMasks {
        let _ = ineligible;
        StallMasks::default()
    }

    /// If the warp owes metadata bubbles (region-flag instructions), consume
    /// one issue slot and return `true`.
    fn take_bubble(&mut self, w: usize, ctx: &mut BackendCtx<'_>) -> bool {
        let _ = (w, ctx);
        false
    }

    /// A real instruction issued from warp `w`. Returns extra operand-access
    /// latency (e.g. OSU bank conflicts) added to the instruction's
    /// writeback delay.
    fn on_issue(
        &mut self,
        w: usize,
        at: InsnRef,
        insn: &Instruction,
        ctx: &mut BackendCtx<'_>,
    ) -> Cycle;

    /// A destination register's value is written back.
    fn on_writeback(
        &mut self,
        w: usize,
        at: InsnRef,
        reg: Reg,
        value: LaneVec,
        ctx: &mut BackendCtx<'_>,
    );

    /// Warp `w` exited the kernel.
    fn on_warp_finish(&mut self, w: usize, ctx: &mut BackendCtx<'_>) {
        let _ = (w, ctx);
    }

    /// Cross-check the backend's staged values of source registers `srcs`
    /// against the warp's architectural registers `regs` (indexed by
    /// [`Reg::index`]) just before an issue. The pipeline calls this for
    /// every instruction; backends that hold value copies (RegLess's OSU)
    /// compare and count mismatches — a staging-path value bug is
    /// unacceptable, not just a performance artifact.
    fn check_staged_operands(&self, w: usize, srcs: &[Reg], regs: &[LaneVec], stats: &mut SmStats) {
        let _ = (w, srcs, regs, stats);
    }

    /// Whether all backend work has drained (used to let simulations end
    /// only after in-flight evictions finish).
    fn quiesced(&self) -> bool {
        true
    }

    /// Earliest future cycle at which this backend's `begin_cycle` could do
    /// observable work (change state, mutate statistics, or unblock a
    /// warp), given that no warp issues and no writeback retires before
    /// then. `None` means "never — nothing is pending on my side"; the
    /// event-driven fast path then only has to respect the writeback
    /// queue. The conservative default, `Some(now + 1)`, keeps unknown
    /// backends on the cycle-by-cycle path (a skip is never taken past a
    /// backend that cannot vouch for its own quiescence).
    fn next_wakeup(&self, now: Cycle) -> Option<Cycle> {
        Some(now + 1)
    }

    /// The fast path jumped from cycle `from` to cycle `to` (exclusive:
    /// cycles `from..to` were skipped; `to` itself gets a real tick).
    /// Backends that mutate statistics unconditionally in `begin_cycle`
    /// (RFV's throttled-warp-cycle counter) bulk-apply the same mutation
    /// here so the fast path stays byte-identical to the stepped loop. The
    /// default is a no-op, correct for backends whose `begin_cycle` is
    /// stats-silent when idle.
    fn on_skip(&mut self, from: Cycle, to: Cycle, stats: &mut SmStats) {
        let _ = (from, to, stats);
    }

    /// Called exactly once after the run completes, before statistics are
    /// collected: the backend's last chance to fold internal state into
    /// [`SmStats`]. RegLess publishes the OSU's mechanical eviction count
    /// here — the final cycle can evict lines after the last
    /// `begin_cycle`, so a per-cycle sync would undercount.
    fn finish(&mut self, stats: &mut SmStats) {
        let _ = stats;
    }

    /// Run `machine` to completion: every implementation is
    /// `machine.run()`. It is written out in each backend's own crate so
    /// the generic tick loop is compiled next to the backend, whose
    /// methods can then inline into it; a caller in another crate that
    /// calls [`Machine::run`] directly gets a copy without that inlining
    /// (4-9% slower `regless run` on a 2-vCPU AMD EPYC VM). The fat-LTO,
    /// one-codegen-unit release build does not make it redundant: without
    /// it perfbench `sim-matrix` simulated about 4% fewer Mcycles/s on the
    /// same VM.
    ///
    /// # Errors
    ///
    /// As [`Machine::run`].
    fn run_machine(machine: Machine<Self>) -> Result<RunReport, SimError>
    where
        Self: Sized;
}

/// The baseline: a full-size register file. Every operand read/write is an
/// RF bank access; the RF is also the Figure 3 "backing store".
#[derive(Clone, Debug, Default)]
pub struct BaselineRf;

impl BaselineRf {
    /// Create the baseline backend.
    pub fn new() -> Self {
        BaselineRf
    }
}

impl OperandBackend for BaselineRf {
    fn run_machine(machine: Machine<Self>) -> Result<RunReport, SimError> {
        machine.run()
    }

    fn on_issue(
        &mut self,
        w: usize,
        _at: InsnRef,
        insn: &Instruction,
        ctx: &mut BackendCtx<'_>,
    ) -> Cycle {
        let reads = insn.srcs().len() as u64;
        ctx.stats.rf_reads += reads;
        ctx.stats.backing_series.record(ctx.now, reads);
        // Operand collectors gather same-bank sources over extra cycles.
        let conflicts = crate::rf::collector_conflict_cycles(w, insn.srcs());
        ctx.stats.rf_bank_conflicts += conflicts;
        conflicts
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
        ctx.stats.backing_series.record(ctx.now, 1);
    }

    fn next_wakeup(&self, _now: Cycle) -> Option<Cycle> {
        // Stateless: warps unblock only via writebacks (the writeback queue) or
        // barriers (which the SM tracks), never via this backend.
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use regless_isa::Opcode;

    #[test]
    fn baseline_counts_rf_accesses() {
        let mut mem = MemSystem::new(&GpuConfig::test_small());
        let mut stats = SmStats::default();
        let mut b = BaselineRf::new();
        let insn = Instruction::new(Opcode::IAdd, Some(Reg(2)), vec![Reg(0), Reg(1)]);
        let at = InsnRef {
            block: regless_isa::BlockId(0),
            idx: 0,
        };
        {
            let mut ctx = BackendCtx {
                sm: 0,
                now: 0,
                mem: &mut mem,
                stats: &mut stats,
            };
            assert_eq!(b.eligible(0b1, &[]), 0b1);
            assert!(!b.take_bubble(0, &mut ctx));
            let extra = b.on_issue(0, at, &insn, &mut ctx);
            assert_eq!(extra, 0);
            b.on_writeback(0, at, Reg(2), LaneVec::zero(), &mut ctx);
        }
        assert_eq!(stats.rf_reads, 2);
        assert_eq!(stats.rf_writes, 1);
        assert!(b.quiesced());
    }
}
