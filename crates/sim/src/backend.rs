//! Operand-storage backends.
//!
//! The pipeline in [`crate::sm`] is generic over *where operands live*: the
//! baseline's big register file, RegLess's operand staging unit, or the
//! RFH/RFV comparison designs. A backend observes issues and writebacks,
//! gates which warps are eligible (RegLess's capacity manager), injects
//! metadata bubbles, and adds operand-access latency (bank conflicts).

use crate::config::Cycle;
use crate::mem::MemSystem;
use crate::stats::SmStats;
use crate::warp::WarpState;
use regless_isa::{InsnRef, Instruction, LaneVec, Reg};
use regless_telemetry::StallReason;

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

/// Storage/scheduling behaviour plugged into the SM pipeline.
pub trait OperandBackend {
    /// Called once per cycle before issue; the RegLess capacity manager
    /// runs its activation and preload pipelines here.
    fn begin_cycle(&mut self, ctx: &mut BackendCtx<'_>) {
        let _ = ctx;
    }

    /// Variant of [`OperandBackend::begin_cycle`] that also sees the warp
    /// array (region transitions depend on warp PCs). The default simply
    /// forwards to `begin_cycle`.
    fn begin_cycle_with_warps(&mut self, warps: &[WarpState], ctx: &mut BackendCtx<'_>) {
        let _ = warps;
        self.begin_cycle(ctx);
    }

    /// Whether warp `w` (SM-local index) may issue its next instruction at
    /// `pc`. The baseline always says yes; RegLess requires the
    /// instruction's region to be active for the warp.
    fn warp_eligible(&mut self, w: usize, pc: InsnRef) -> bool {
        let _ = (w, pc);
        true
    }

    /// Why warp `w` is ineligible to issue at `pc` right now, for the
    /// per-cycle issue-slot attribution (CPI stacks). Only consulted for
    /// warps whose [`OperandBackend::warp_eligible`] returned `false` this
    /// cycle; `None` means the backend has no stake in the warp (finished,
    /// or the backend never gates it). RegLess reports
    /// [`StallReason::CmPreloadWait`], [`StallReason::OsuCapacityWait`],
    /// or [`StallReason::Drain`]; occupancy-limited baselines report
    /// capacity waits.
    fn issue_stall(&self, w: usize, pc: InsnRef) -> Option<StallReason> {
        let _ = (w, pc);
        None
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

    /// Cross-check the backend's staged operand values against the
    /// architectural register state just before an issue. The pipeline
    /// calls this for every instruction; backends that hold value copies
    /// (RegLess's OSU) compare and count mismatches — a staging-path value
    /// bug is unacceptable, not just a performance artifact.
    fn check_staged_operands(&self, w: usize, operands: &[(Reg, LaneVec)], stats: &mut SmStats) {
        let _ = (w, operands, stats);
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
    /// event-driven fast path then only has to respect the writeback event
    /// heap. The conservative default, `Some(now + 1)`, keeps unknown
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
        // Stateless: warps unblock only via writebacks (the event heap) or
        // barriers (which the SM tracks), never via this backend.
        None
    }
}

/// Static warp admission shared by the capacity-throttled designs: up to
/// `cap` unfinished warps are resident at once, admitted in id order, and
/// a finishing warp frees its slot for the next. The admitted and finished
/// sets are flat per-warp flags with running counts.
#[derive(Clone, Debug)]
pub struct WarpAdmission {
    admitted: Vec<bool>,
    finished: Vec<bool>,
    num_admitted: usize,
    num_finished: usize,
    cap: usize,
    /// Warps left throttled by the last [`WarpAdmission::admit`].
    throttled: usize,
}

impl WarpAdmission {
    /// Admission over `warps_per_sm` warps, at most `cap` resident.
    pub fn new(warps_per_sm: usize, cap: usize) -> Self {
        WarpAdmission {
            admitted: vec![false; warps_per_sm],
            finished: vec![false; warps_per_sm],
            num_admitted: 0,
            num_finished: 0,
            cap,
            throttled: 0,
        }
    }

    /// Warps that may be resident at once.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Admit unfinished warps in id order while below the cap; returns how
    /// many warps are left throttled (neither admitted nor finished).
    pub fn admit(&mut self) -> usize {
        let warps = self.admitted.len();
        if self.num_admitted < self.cap {
            for w in 0..warps {
                if self.num_admitted >= self.cap {
                    break;
                }
                if !self.finished[w] && !self.admitted[w] {
                    self.admitted[w] = true;
                    self.num_admitted += 1;
                }
            }
        }
        self.throttled = warps.saturating_sub(self.num_finished + self.num_admitted);
        self.throttled
    }

    /// Warps left throttled by the last [`WarpAdmission::admit`]. The sets
    /// change only when a warp finishes, which is an issue, so a skipped
    /// idle span would have throttled this many warps on every cycle.
    pub fn throttled(&self) -> u64 {
        self.throttled as u64
    }

    /// Whether warp `w` is resident.
    pub fn is_admitted(&self, w: usize) -> bool {
        self.admitted[w]
    }

    /// Why warp `w` cannot issue when not admitted: nothing once it has
    /// finished, otherwise a wait for register capacity.
    pub fn issue_stall(&self, w: usize) -> Option<StallReason> {
        (!self.finished[w]).then_some(StallReason::OsuCapacityWait)
    }

    /// Warp `w` exited: release its slot for good.
    pub fn finish(&mut self, w: usize) {
        if std::mem::replace(&mut self.admitted[w], false) {
            self.num_admitted -= 1;
        }
        if !std::mem::replace(&mut self.finished[w], true) {
            self.num_finished += 1;
        }
    }
}

/// The baseline register file with **static occupancy limiting**: a warp
/// may only run if the register file has capacity for its full
/// architectural register allocation, the way real GPUs cap occupancy by
/// register count. The plain [`BaselineRf`] ignores this (all evaluated
/// kernels fit); this variant exists for the oversubscription extension
/// study (paper §7: RegLess "would be able to oversubscribe the register
/// file without any design changes", because it only stores live values).
#[derive(Clone, Debug)]
pub struct OccupancyLimitedRf {
    admission: WarpAdmission,
    inner: BaselineRf,
}

impl OccupancyLimitedRf {
    /// Build for a kernel needing `regs_per_warp` registers on a machine
    /// with `rf_entries` register-file entries per SM.
    pub fn new(rf_entries: usize, regs_per_warp: usize, warps_per_sm: usize) -> Self {
        let max_resident = (rf_entries / regs_per_warp.max(1)).max(1);
        OccupancyLimitedRf {
            admission: WarpAdmission::new(warps_per_sm, max_resident),
            inner: BaselineRf::new(),
        }
    }

    /// Warps that can be resident concurrently.
    pub fn max_resident(&self) -> usize {
        self.admission.cap()
    }
}

impl OperandBackend for OccupancyLimitedRf {
    fn begin_cycle(&mut self, _ctx: &mut BackendCtx<'_>) {
        self.admission.admit();
    }

    fn warp_eligible(&mut self, w: usize, _pc: InsnRef) -> bool {
        self.admission.is_admitted(w)
    }

    fn issue_stall(&self, w: usize, _pc: InsnRef) -> Option<StallReason> {
        self.admission.issue_stall(w)
    }

    fn on_issue(
        &mut self,
        w: usize,
        at: InsnRef,
        insn: &Instruction,
        ctx: &mut BackendCtx<'_>,
    ) -> Cycle {
        self.inner.on_issue(w, at, insn, ctx)
    }

    fn on_writeback(
        &mut self,
        w: usize,
        at: InsnRef,
        reg: Reg,
        value: LaneVec,
        ctx: &mut BackendCtx<'_>,
    ) {
        self.inner.on_writeback(w, at, reg, value, ctx);
    }

    fn on_warp_finish(&mut self, w: usize, _ctx: &mut BackendCtx<'_>) {
        self.admission.finish(w);
    }

    fn next_wakeup(&self, _now: Cycle) -> Option<Cycle> {
        // Admission is idempotent and only changes when a warp finishes
        // (an issue-path event), so an idle span never needs a tick here.
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use regless_isa::Opcode;

    #[test]
    fn occupancy_limit_admits_bounded_warps() {
        let mut mem = MemSystem::new(&GpuConfig::test_small());
        let mut stats = SmStats::default();
        // 64 entries, 16 regs/warp -> at most 4 resident warps of 8.
        let mut b = OccupancyLimitedRf::new(64, 16, 8);
        assert_eq!(b.max_resident(), 4);
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
            b.begin_cycle(&mut ctx);
        }
        let eligible = (0..8).filter(|&w| b.warp_eligible(w, at)).count();
        assert_eq!(eligible, 4);
        // Finishing a warp admits the next one.
        {
            let mut ctx = BackendCtx {
                sm: 0,
                now: 1,
                mem: &mut mem,
                stats: &mut stats,
            };
            b.on_warp_finish(0, &mut ctx);
            b.begin_cycle(&mut ctx);
        }
        let eligible = (0..8).filter(|&w| b.warp_eligible(w, at)).count();
        assert_eq!(eligible, 4);
        assert!(!b.warp_eligible(0, at), "finished warp not re-admitted");
    }

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
            assert!(b.warp_eligible(0, at));
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
