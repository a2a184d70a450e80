//! The streaming-multiprocessor pipeline and whole-GPU driver.
//!
//! Each SM steps one cycle at a time: retire due writebacks, let the
//! operand backend run (RegLess's capacity manager lives there), release
//! barriers, then let each warp scheduler issue at most one instruction.
//! Functional execution happens at issue; timing is carried by scoreboard
//! entries that clear at the instruction's writeback time, which for
//! global accesses comes from the shared memory hierarchy.
//!
//! **Event-driven fast path.** Most cycles issue nothing: every warp is
//! blocked on a scoreboard entry, a barrier, or the staging pipeline. When
//! a tick proves that state (nothing issued, no warp was even ready, no
//! barrier is about to release), [`Machine::run`] jumps `now` straight to
//! the earliest cycle anything is due — the writeback queue or the
//! backend's [`OperandBackend::next_wakeup`] — and bulk-charges the skipped
//! issue slots to the same [`StallReason`]s the stepped loop would have
//! picked, preserving the conservation law `Σ reasons == cycles × issue
//! slots` exactly. Jumps are clamped to the next stats-window and
//! cancellation-poll boundaries so window samplers and deadline latency
//! behave identically. `REGLESS_SIM=stepped` (or
//! [`Machine::set_stepped`]) forces the original cycle-by-cycle loop,
//! kept as the differential-testing reference: both paths produce
//! byte-identical [`RunReport::stable_json`] output.

use crate::backend::{BackendCtx, OperandBackend, StallMasks, WarpView};
use crate::config::{Cycle, GpuConfig};
use crate::mask::{warp_bit, warps_in, WarpMask};
use crate::mem::{MemSystem, Traffic};
use crate::sched::Scheduler;
use crate::stats::{MemStats, SmStats};
use crate::warp::{WarpBlock, WarpState};
use crate::wheel::WritebackQueue;
use regless_compiler::{CompiledKernel, RegionId};
use regless_isa::{BlockId, InsnRef, LaneVec, OpClass, Opcode, Reg, WarpId, WARP_WIDTH};
use regless_telemetry::{IssueStack, SelfProfiler, StallReason};
use std::fmt;
use std::sync::Arc;

/// Deterministic per-address contents of simulated global memory.
///
/// Loads return a hash of the address: data-dependent but reproducible,
/// and realistically incompressible (unlike index arithmetic, which stays
/// compressible). Stores are sinks.
pub fn load_value(addr: u32) -> u32 {
    let mut x = addr.wrapping_mul(0x9e37_79b9) ^ 0x85eb_ca6b;
    x ^= x >> 13;
    x = x.wrapping_mul(0xc2b2_ae35);
    x ^ (x >> 16)
}

/// Simulation errors.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SimError {
    /// The cycle limit was reached before all warps finished — a hang or a
    /// configuration far too small for the workload.
    MaxCyclesExceeded {
        /// The limit that was hit.
        limit: Cycle,
        /// Warps still unfinished, per SM.
        unfinished: Vec<usize>,
    },
    /// The run's [`crate::CancelToken`] tripped (an explicit cancel or an
    /// expired deadline); the simulation stopped at a cycle boundary.
    Cancelled {
        /// The cycle at which cancellation was observed.
        at_cycle: Cycle,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MaxCyclesExceeded { limit, unfinished } => write!(
                f,
                "simulation exceeded {limit} cycles with unfinished warps per SM {unfinished:?}"
            ),
            SimError::Cancelled { at_cycle } => {
                write!(f, "simulation cancelled cooperatively at cycle {at_cycle}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// The reasons a blocked warp can hold, in the priority by which an idle
/// issue slot is charged (first wins). Design-specific staging stalls come
/// first — they are what RegLess's CPI stacks exist to expose; a slot is
/// only charged at all when *no* warp could issue, so surfacing the
/// staging bottleneck over the generic hazard is the informative choice.
const STALL_PRIORITY: [StallReason; 7] = [
    StallReason::OsuCapacityWait,
    StallReason::MshrFull,
    StallReason::L1PortBusy,
    StallReason::CmPreloadWait,
    StallReason::Drain,
    StallReason::DataHazard,
    StallReason::Barrier,
];

/// The blocked warp an idle issue slot is charged to: the lowest warp of
/// the first non-empty group in [`STALL_PRIORITY`] order, i.e. the minimum
/// `(priority, warp)`. This is what an ascending per-warp scan that keeps
/// the first strictly higher-priority reason picks.
fn most_urgent(groups: &StallMasks) -> Option<(StallReason, usize)> {
    STALL_PRIORITY.iter().find_map(|&r| {
        let warps = groups.get(r);
        (warps != 0).then(|| (r, warps.trailing_zeros() as usize))
    })
}

/// A pending register writeback, queued in a [`WritebackQueue`] that
/// retires events in `(due, push order)` order. The written value is not
/// carried: it is read from the warp's register at retire, which is exact
/// because [`WarpState::block_reason`] refuses to issue any instruction
/// whose destination is still pending, so nothing can rewrite the register
/// between issue and writeback.
#[derive(Clone, Debug)]
struct Event {
    /// The writing instruction, as its block and index within it.
    block: BlockId,
    idx: u32,
    warp: u16,
    reg: Reg,
}

/// What one [`Sm::tick`] proved about the cycles ahead: whether the SM can
/// be fast-forwarded without simulating each cycle, and the earliest
/// future cycle at which anything on this SM is due.
#[derive(Clone, Copy, Debug)]
struct TickOutcome {
    /// Nothing issued, no warp was ready in any slot, and no barrier is
    /// about to release: until an event fires, every further tick would
    /// repeat this one's idle accounting verbatim.
    skippable: bool,
    /// Earliest due writeback or backend wakeup; `None` when nothing is
    /// pending (the SM is done or hard-blocked on another SM's progress).
    /// Computed only for skippable ticks: otherwise no skip is taken.
    next_wakeup: Option<Cycle>,
}

/// One SM: warps, schedulers, in-flight writebacks, and the operand
/// backend. The kernel it runs belongs to the [`Machine`], which lends it
/// to each tick.
pub struct Sm<B> {
    id: usize,
    config: GpuConfig,
    /// Architectural state of each hardware warp.
    pub warps: Vec<WarpState>,
    /// The region at each warp's PC (`None` once it exited), set at
    /// construction and after each issue, the only time a PC moves. The
    /// per-tick readers (the region CPI stacks, RegLess's eligibility and
    /// region transitions) read it instead of looking the PC up.
    regions: Vec<Option<RegionId>>,
    scheds: Vec<Scheduler>,
    events: WritebackQueue<Event>,
    /// Per-scheduler highest-priority blocked warp from the last tick's
    /// idle slots, reused by [`Sm::skip_to`] to bulk-charge skipped cycles
    /// (the blocked set is frozen while nothing issues and no event fires).
    skip_blocked: Vec<Option<(StallReason, usize)>>,
    /// Each warp's current [`WarpBlock`] as three masks (a finished warp
    /// is in none), kept incrementally: warp state changes only at issue,
    /// writeback retire, and barrier release, so refreshing at those three
    /// points lets each issue slot test a scheduler's warps as one word
    /// instead of re-deriving the scoreboard check per warp per cycle.
    ready: WarpMask,
    scoreboard: WarpMask,
    barrier: WarpMask,
    /// Each scheduler's warps (`w % schedulers == s`).
    sched_warps: Vec<WarpMask>,
    /// Per-region CPI stacks indexed by region id, published into
    /// [`SmStats::region_stacks`] when the run ends.
    region_stacks: Vec<IssueStack>,
    live_warps: usize,
    /// Per thread block: warps waiting at its barrier, and unfinished
    /// warps. A block's barrier releases when some warp waits and every
    /// unfinished warp does ([`Sm::barrier_complete`]).
    block_waiting: Vec<usize>,
    block_live: Vec<usize>,
    /// Bit `b` set: block `b` has a warp at its barrier
    /// (`block_waiting[b] > 0`), so only these blocks can release. A block
    /// index is below its first warp's, so one [`WarpMask`] word holds
    /// them all.
    blocks_waiting: WarpMask,
    /// This SM's statistics.
    pub stats: SmStats,
    /// The operand backend (baseline RF, RegLess, RFH, RFV…).
    pub backend: B,
}

impl<B: OperandBackend> Sm<B> {
    fn new(id: usize, config: &GpuConfig, compiled: &CompiledKernel, backend: B) -> Self {
        let warps: Vec<WarpState> = (0..config.warps_per_sm)
            .map(|_| WarpState::new(compiled.kernel()))
            .collect();
        let live_warps = warps.len();
        let regions = warps
            .iter()
            .map(|w| w.pc().map(|pc| compiled.region_at(pc)))
            .collect();
        let num_scheds = config.schedulers_per_sm;
        let sched_warps: Vec<WarpMask> = (0..num_scheds)
            .map(|s| {
                (s..warps.len())
                    .step_by(num_scheds)
                    .fold(0, |m, w| m | warp_bit(w))
            })
            .collect();
        // Schedulers number warps as the SM does, so a pick needs no
        // translation from SM to scheduler-local indices.
        let scheds: Vec<Scheduler> = sched_warps
            .iter()
            .map(|&mine| Scheduler::new(config.scheduler, mine))
            .collect();
        let stats = SmStats {
            working_set: crate::stats::WorkingSetTracker::with_shape(
                warps.len(),
                compiled.kernel().num_regs() as usize,
            ),
            ..SmStats::default()
        };
        let region_stacks = vec![IssueStack::new(); compiled.regions().len()];
        let block_live: Vec<usize> = warps
            .chunks(config.warps_per_block)
            .map(<[_]>::len)
            .collect();
        let mut sm = Sm {
            id,
            config: *config,
            warps,
            regions,
            scheds,
            events: WritebackQueue::new(),
            skip_blocked: vec![None; num_scheds],
            ready: 0,
            scoreboard: 0,
            barrier: 0,
            sched_warps,
            region_stacks,
            live_warps,
            block_waiting: vec![0; block_live.len()],
            block_live,
            blocks_waiting: 0,
            stats,
            backend,
        };
        for w in 0..sm.warps.len() {
            sm.refresh_block(compiled, w);
        }
        sm
    }

    /// Whether thread block `b`'s barrier can release.
    fn barrier_complete(&self, b: usize) -> bool {
        self.block_waiting[b] > 0 && self.block_waiting[b] == self.block_live[b]
    }

    /// Re-derive one warp's [`WarpBlock`] masks after its state changed.
    fn refresh_block(&mut self, compiled: &CompiledKernel, w: usize) {
        let bit = warp_bit(w);
        self.ready &= !bit;
        self.scoreboard &= !bit;
        self.barrier &= !bit;
        match self.warps[w].block_reason(compiled.kernel()) {
            WarpBlock::Ready => self.ready |= bit,
            WarpBlock::Scoreboard => self.scoreboard |= bit,
            WarpBlock::Barrier => self.barrier |= bit,
            WarpBlock::Finished => {}
        }
    }

    fn all_done(&self) -> bool {
        self.live_warps == 0 && self.events.is_empty() && self.backend.quiesced()
    }

    /// Advance one cycle. `prof` is the machine's host-side self profiler
    /// (`None` when disabled): the phase guards below time host wall
    /// clock only and never touch simulated state, so profiled and
    /// unprofiled runs stay byte-identical.
    fn tick(
        &mut self,
        now: Cycle,
        compiled: &CompiledKernel,
        mem: &mut MemSystem,
        prof: Option<&SelfProfiler>,
    ) -> TickOutcome {
        // 1. Retire writebacks due now. The value is the warp's register
        // as issue left it: a pending destination blocks every later
        // writer, so the register cannot have changed since.
        let wb_guard = SelfProfiler::scope(prof, "writeback");
        while let Some(e) = self.events.pop_due(now) {
            let w = usize::from(e.warp);
            let was_pending = self.warps[w].pending.remove(&e.reg);
            debug_assert!(
                was_pending,
                "warp {w} retired a write to {} that was not pending",
                e.reg
            );
            let value = self.warps[w].regs[e.reg.index()];
            self.refresh_block(compiled, w);
            self.stats.trace_event(
                now,
                crate::TraceEvent::Writeback {
                    warp: w,
                    reg: e.reg,
                },
            );
            let mut ctx = BackendCtx {
                sm: self.id,
                now,
                mem,
                stats: &mut self.stats,
            };
            let at = InsnRef {
                block: e.block,
                idx: e.idx as usize,
            };
            self.backend.on_writeback(w, at, e.reg, value, &mut ctx);
        }

        drop(wb_guard);

        // 2. Backend housekeeping (CM activation, preload pipeline).
        {
            let _g = SelfProfiler::scope(prof, "backend_tick");
            let mut ctx = BackendCtx {
                sm: self.id,
                now,
                mem,
                stats: &mut self.stats,
            };
            let warps = WarpView {
                states: &self.warps,
                regions: &self.regions,
                barrier: self.barrier,
            };
            self.backend.begin_cycle_with_warps(warps, &mut ctx);
        }

        // 3. Barrier release, per thread block: a barrier synchronizes the
        // warps of one block, not the whole SM. A release changes warp
        // state that backends sample in `begin_cycle` (a warp leaving
        // `at_barrier` becomes an admission candidate), so the tick after a
        // release must be real even if this one issues nothing.
        let mut barrier_released = false;
        let bs = self.config.warps_per_block;
        for bi in warps_in(self.blocks_waiting) {
            if self.barrier_complete(bi) {
                for w in bi * bs..(bi + 1) * bs {
                    self.warps[w].at_barrier = false;
                    self.refresh_block(compiled, w);
                }
                self.block_waiting[bi] = 0;
                self.blocks_waiting &= !warp_bit(bi);
                barrier_released = true;
                self.stats
                    .trace_event(now, crate::TraceEvent::BarrierRelease { block: bi });
            }
        }

        // 4. Issue: up to `issue_slots_per_scheduler` instructions per
        // scheduler. Every slot is charged to exactly one [`StallReason`]
        // (the conservation law behind the CPI stacks): `Issued` when an
        // instruction or metadata bubble goes out, otherwise the
        // highest-priority reason among the warps that could not. The
        // masks are re-read per slot: an issue in one slot changes the
        // issuing warp's state before the next. The working-set window
        // rolls once, before any operand of this cycle is recorded.
        let issue_guard = SelfProfiler::scope(prof, "issue");
        self.stats.working_set.roll(now);
        let mut issued_any = false;
        let mut all_ready_empty = true;
        for s in 0..self.scheds.len() {
            let mine = self.sched_warps[s];
            for _slot in 0..self.config.issue_slots_per_scheduler {
                let ready = self.ready & mine;
                let eligible = if ready == 0 {
                    0
                } else {
                    self.backend.eligible(ready, &self.regions)
                };
                // A pick from an empty set declines without touching the
                // scheduler's state, so it is not called.
                let picked = if eligible == 0 {
                    None
                } else {
                    // A pick from a non-empty set may rotate scheduler
                    // state even when it declines, so such a tick cannot
                    // seed a skip (replaying it would not be a no-op).
                    all_ready_empty = false;
                    self.scheds[s].pick_mask(eligible)
                };
                let Some(w) = picked else {
                    let ineligible = ready & !eligible;
                    let mut groups = if ineligible == 0 {
                        StallMasks::default()
                    } else {
                        self.backend.stalls(ineligible)
                    };
                    groups.add(StallReason::DataHazard, self.scoreboard & mine);
                    groups.add(StallReason::Barrier, self.barrier & mine);
                    let blocked = most_urgent(&groups);
                    self.stats.idle_slots += 1;
                    self.skip_blocked[s] = blocked;
                    self.charge_idle_slot(blocked, now, mem);
                    continue;
                };
                issued_any = true;
                let took_bubble = {
                    let mut ctx = BackendCtx {
                        sm: self.id,
                        now,
                        mem,
                        stats: &mut self.stats,
                    };
                    self.backend.take_bubble(w, &mut ctx)
                };
                if took_bubble {
                    self.stats.meta_insns += 1;
                    // The metadata bubble occupied the slot: issued work.
                    self.charge(StallReason::Issued, Some(w), 1);
                    continue;
                }
                self.issue(compiled, w, s, now, mem);
                self.refresh_block(compiled, w);
            }
        }

        drop(issue_guard);

        // 5. Roll statistics windows.
        {
            let _g = SelfProfiler::scope(prof, "stats_windows");
            self.stats.backing_series.roll(now);
            self.stats.osu_occupancy.roll(now);
            self.stats.osu_reserved_series.roll(now);
            self.stats.osu_free_series.roll(now);
            self.stats.cm_queue_series.roll(now);
            self.stats.cycles = now + 1;
        }

        // 6. Prove (or refuse) skippability for the cycles ahead. A barrier
        // about to release would change warp state on the very next tick,
        // so it pins the stepped path; it should be unreachable from a
        // no-issue tick (the releasing issue runs phase 3 next tick), but
        // the check is cheap insurance against charging through a release.
        // The wakeup only matters to a skip, so a tick that cannot seed one
        // does not compute it.
        let barrier_pending = || warps_in(self.blocks_waiting).any(|b| self.barrier_complete(b));
        if issued_any || !all_ready_empty || barrier_pending() {
            return TickOutcome {
                skippable: false,
                next_wakeup: None,
            };
        }
        let mut wakeup = self.backend.next_wakeup(now);
        if let Some(due) = self.events.earliest(now) {
            // Post-retire, every queued event is due strictly after `now`.
            wakeup = Some(wakeup.map_or(due, |w| w.min(due)));
        }
        if barrier_released {
            // The released warps must be re-examined next tick.
            wakeup = Some(wakeup.map_or(now + 1, |w| w.min(now + 1)));
        }
        TickOutcome {
            skippable: true,
            next_wakeup: wakeup,
        }
    }

    /// Bulk-account the idle cycles `from..to` (exclusive of `to`, which
    /// gets a real [`Sm::tick`]) that [`Machine::run`] fast-forwarded over.
    /// Each skipped cycle would have charged every issue slot to the same
    /// reason the last stepped tick found (the blocked set is frozen while
    /// nothing issues and no event fires), so the charge is a multiply —
    /// except the memory-state refinement of `CmPreloadWait`, whose two
    /// probes move monotonically: MSHRs stay full until a fixed completion
    /// cycle and the L1 port backlog drains at a fixed free cycle, so the
    /// span splits into at most three runs charged in order.
    fn skip_to(&mut self, from: Cycle, to: Cycle, mem: &mut MemSystem) {
        debug_assert!(from < to);
        let span = to - from;
        let slots = self.config.issue_slots_per_scheduler as u64;
        for s in 0..self.scheds.len() {
            self.stats.idle_slots += span * slots;
            match self.skip_blocked[s] {
                None => self.charge(StallReason::NoWarp, None, span * slots),
                Some((StallReason::CmPreloadWait, w)) => {
                    // full(t) ⟺ t < c1; backlog(t) > 0 ⟺ t < c2.
                    let c1 = mem.l1_mshr_full_until(self.id).clamp(from, to);
                    let c2 = mem.l1_port_free_cycle(self.id).clamp(c1, to);
                    self.charge(StallReason::MshrFull, Some(w), (c1 - from) * slots);
                    self.charge(StallReason::L1PortBusy, Some(w), (c2 - c1) * slots);
                    let rest = (to - c2) * slots;
                    self.charge(StallReason::CmPreloadWait, Some(w), rest);
                }
                Some((reason, w)) => self.charge(reason, Some(w), span * slots),
            }
        }
        self.stats.cycles = to;
        self.backend.on_skip(from, to, &mut self.stats);
    }

    /// Charge `n` issue slots to `reason`: the SM's stack, and, when a
    /// warp is to blame, that warp's stack and the stack of the region at
    /// its PC.
    fn charge(&mut self, reason: StallReason, warp: Option<usize>, n: u64) {
        self.stats.charge_slots(reason, warp, n);
        if n == 0 {
            return;
        }
        if let Some(region) = warp.and_then(|w| self.regions[w]) {
            self.region_stacks[region.index()].charge_n(reason, n);
        }
    }

    /// Charge an issue slot that went unused. `blocked` carries the
    /// highest-priority reason found among this scheduler's warps (and the
    /// warp it came from); with no candidate at all the slot is `NoWarp`,
    /// which has no warp or region to blame. Staging waits are refined
    /// with the memory system's live state: a full MSHR file or a backed-up
    /// L1 port is the real bottleneck behind a preload that has not landed.
    fn charge_idle_slot(
        &mut self,
        blocked: Option<(StallReason, usize)>,
        now: Cycle,
        mem: &MemSystem,
    ) {
        let Some((mut reason, w)) = blocked else {
            self.charge(StallReason::NoWarp, None, 1);
            return;
        };
        if reason == StallReason::CmPreloadWait {
            if mem.l1_mshrs_full(self.id, now) {
                reason = StallReason::MshrFull;
            } else if mem.l1_port_backlog(self.id, now) > 0 {
                reason = StallReason::L1PortBusy;
            }
        }
        self.charge(reason, Some(w), 1);
    }

    fn issue(
        &mut self,
        compiled: &CompiledKernel,
        w: usize,
        sched: usize,
        now: Cycle,
        mem: &mut MemSystem,
    ) {
        let at = self.warps[w].pc().expect("issuing warp has a pc");
        // Only an issue moves a PC, so the region cached at this warp's
        // last issue must still be the one at its PC: a stale entry is
        // caught here, at the warp's next issue.
        debug_assert_eq!(
            self.regions[w],
            Some(compiled.region_at(at)),
            "warp {w}'s cached region is not the region at its PC"
        );
        let insn = compiled.kernel().insn(at);
        let srcs = insn.srcs();
        let mask = self.warps[w].mask();
        let warp = WarpId(w as u16);

        // Track the operand working set (Figure 2); the tick rolled the
        // window already.
        for &srcr in srcs {
            self.stats.working_set.touch(warp, srcr);
        }
        if let Some(d) = insn.dst() {
            self.stats.working_set.touch(warp, d);
        }

        self.charge(StallReason::Issued, Some(w), 1);
        self.stats
            .trace_event(now, crate::TraceEvent::Issue { warp: w, pc: at });

        // Staged operand values are cross-checked against the
        // architectural state *before* the backend applies its last-use
        // annotations.
        self.backend
            .check_staged_operands(w, srcs, &self.warps[w].regs, &mut self.stats);
        let extra = {
            let mut ctx = BackendCtx {
                sm: self.id,
                now,
                mem,
                stats: &mut self.stats,
            };
            self.backend.on_issue(w, at, insn, &mut ctx)
        };

        // Functional evaluation, timing and memory traffic. Operands are
        // read in place from the warp's registers.
        let regs = &self.warps[w].regs;
        let src = |i: usize| &regs[srcs[i].index()];
        let mut taken_bits = 0;
        let writeback: Option<(Cycle, LaneVec)> = match insn.op() {
            Opcode::LdGlobal => {
                let addrs = src(0);
                let done = coalesced_access(self.id, &mut self.stats, addrs, mask, false, now, mem);
                self.scheds[sched].on_long_latency(w);
                Some((done + extra, addrs.map(load_value)))
            }
            Opcode::StGlobal => {
                coalesced_access(self.id, &mut self.stats, src(1), mask, true, now, mem);
                None
            }
            Opcode::LdShared => {
                let v = src(0).map(|a| load_value(a ^ 0x5f5f_5f5f));
                Some((now + self.config.latency.shared_mem + extra, v))
            }
            Opcode::Bra { .. } => {
                taken_bits = src(0).nonzero_bits();
                None
            }
            Opcode::StShared | Opcode::Jmp { .. } | Opcode::Exit => None,
            Opcode::Bar => {
                self.warps[w].at_barrier = true;
                let b = w / self.config.warps_per_block;
                self.block_waiting[b] += 1;
                self.blocks_waiting |= warp_bit(b);
                None
            }
            _ => {
                let lat = match insn.class() {
                    OpClass::FpAlu => self.config.latency.fp_alu,
                    OpClass::Sfu => self.config.latency.sfu,
                    _ => self.config.latency.int_alu,
                };
                let value = insn
                    .evaluate_regs(regs, self.id * self.config.warps_per_sm + w)
                    .expect("ALU ops produce values");
                Some((now + lat + extra, value))
            }
        };

        // Scoreboard + functional write.
        if let Some(d) = insn.dst() {
            let (due, value) = writeback.expect("dst implies a writeback");
            // Soft definitions merge with inactive lanes' old values.
            let reg = &mut self.warps[w].regs[d.index()];
            *reg = reg.blend(&value, mask);
            self.warps[w].pending.insert(d);
            self.events.push(
                now,
                due,
                Event {
                    block: at.block,
                    idx: u32::try_from(at.idx).expect("block index fits in u32"),
                    warp: w as u16,
                    reg: d,
                },
            );
        }

        // Control state.
        let dom = compiled.dom();
        self.warps[w].advance(compiled.kernel(), taken_bits, |b| {
            dom.immediate_postdominator(b)
        });
        self.regions[w] = self.warps[w].pc().map(|pc| compiled.region_at(pc));
        self.warps[w].insns_issued += 1;
        self.stats.insns += 1;

        if self.warps[w].finished() {
            self.warps[w].finished_at = Some(now);
            self.live_warps -= 1;
            self.block_live[w / self.config.warps_per_block] -= 1;
            self.stats
                .trace_event(now, crate::TraceEvent::WarpFinish { warp: w });
            let mut ctx = BackendCtx {
                sm: self.id,
                now,
                mem,
                stats: &mut self.stats,
            };
            self.backend.on_warp_finish(w, &mut ctx);
        }
    }
}

/// Coalesce a warp's active lane addresses into unique 128-byte lines and
/// issue them to SM `sm`'s memory system in ascending line order; returns
/// the completion cycle.
fn coalesced_access(
    sm: usize,
    stats: &mut SmStats,
    addrs: &LaneVec,
    mask: regless_isa::LaneMask,
    write: bool,
    now: Cycle,
    mem: &mut MemSystem,
) -> Cycle {
    let mut buf = [0u32; WARP_WIDTH];
    let mut n = 0;
    let mut bits = mask.0;
    while bits != 0 {
        buf[n] = addrs.lane(bits.trailing_zeros() as usize) / 128;
        bits &= bits - 1;
        n += 1;
    }
    let lines = &mut buf[..n];
    lines.sort_unstable();
    let mut done = now + 1;
    for (i, &line) in lines.iter().enumerate() {
        if i > 0 && lines[i - 1] == line {
            continue;
        }
        let a = mem.access_line(sm, u64::from(line) * 128, write, Traffic::Data, now);
        done = done.max(a.done);
    }
    stats.observe("mem.data_latency", done.saturating_sub(now));
    done
}

/// Result of a whole-GPU run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Total cycles until the last SM finished.
    pub cycles: Cycle,
    /// Per-SM counters.
    pub sm_stats: Vec<SmStats>,
    /// Memory-hierarchy counters.
    pub mem: MemStats,
    /// Final architectural register values, `final_regs[sm][warp][reg]`,
    /// for checking against the functional interpreter.
    pub final_regs: Vec<Vec<Vec<LaneVec>>>,
    /// Dynamic instructions per warp, `warp_insns[sm][warp]`.
    pub warp_insns: Vec<Vec<u64>>,
    /// Wall-clock seconds the simulation itself took, measured by
    /// [`Machine::run`]. A report served from the sweep-engine cache keeps
    /// the wall time of the run that originally produced it.
    pub wall_seconds: f64,
    /// Merged telemetry across SMs when a recorder was attached via
    /// [`Machine::attach_telemetry`]; `None` otherwise. Like `final_regs`,
    /// this is a debugging payload and is never persisted by the JSON
    /// serializers.
    pub telemetry: Option<Box<regless_telemetry::Telemetry>>,
}

// JSON layout for the sweep-engine result cache. `final_regs` is a
// functional-correctness payload (large, and unused by every figure), so
// it is deliberately *not* persisted: reports loaded from the cache carry
// an empty `final_regs`. Consumers that need architectural state (the
// oracle tests) always run the simulator directly.
impl regless_json::ToJson for RunReport {
    fn to_json(&self) -> regless_json::Json {
        regless_json::Json::Obj(vec![
            ("cycles".into(), regless_json::ToJson::to_json(&self.cycles)),
            (
                "sm_stats".into(),
                regless_json::ToJson::to_json(&self.sm_stats),
            ),
            ("mem".into(), regless_json::ToJson::to_json(&self.mem)),
            (
                "warp_insns".into(),
                regless_json::ToJson::to_json(&self.warp_insns),
            ),
            (
                "wall_seconds".into(),
                regless_json::ToJson::to_json(&self.wall_seconds),
            ),
        ])
    }
}

impl regless_json::FromJson for RunReport {
    fn from_json(v: &regless_json::Json) -> Result<Self, regless_json::JsonError> {
        Ok(RunReport {
            cycles: regless_json::FromJson::from_json(v.field("cycles")?)?,
            sm_stats: regless_json::FromJson::from_json(v.field("sm_stats")?)?,
            mem: regless_json::FromJson::from_json(v.field("mem")?)?,
            final_regs: Vec::new(),
            warp_insns: regless_json::FromJson::from_json(v.field("warp_insns")?)?,
            wall_seconds: regless_json::FromJson::from_json(v.field("wall_seconds")?)?,
            telemetry: None,
        })
    }
}

impl RunReport {
    /// The deterministic JSON view of this report: everything [`ToJson`]
    /// serializes *except* `wall_seconds`, which is wall-clock noise. Two
    /// runs of the same kernel under the same design produce byte-identical
    /// `stable_json` strings, which is what the serving layer returns to
    /// clients and what byte-identity tests compare, whether a run was
    /// simulated directly, coalesced, or replayed from the sweep cache.
    ///
    /// [`ToJson`]: regless_json::ToJson
    pub fn stable_json(&self) -> regless_json::Json {
        regless_json::Json::Obj(vec![
            ("cycles".into(), regless_json::ToJson::to_json(&self.cycles)),
            (
                "sm_stats".into(),
                regless_json::ToJson::to_json(&self.sm_stats),
            ),
            ("mem".into(), regless_json::ToJson::to_json(&self.mem)),
            (
                "warp_insns".into(),
                regless_json::ToJson::to_json(&self.warp_insns),
            ),
        ])
    }

    /// Merged counters across SMs.
    pub fn total(&self) -> SmStats {
        let mut t = SmStats::default();
        for s in &self.sm_stats {
            t.merge(s);
        }
        t
    }

    /// Instructions per cycle across the GPU.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.total().insns as f64 / self.cycles as f64
    }

    /// The whole-GPU CPI stack (all SMs' issue slots merged).
    pub fn issue_stack(&self) -> IssueStack {
        let mut total = IssueStack::new();
        for s in &self.sm_stats {
            total.merge(&s.issue_stack);
        }
        total
    }

    /// The whole-GPU per-cause OSU eviction stack (all SMs merged). Its
    /// total equals [`SmStats::osu_lines_evicted`] summed across SMs —
    /// the eviction-accounting conservation law.
    pub fn eviction_stack(&self) -> regless_telemetry::EvictionStack {
        let mut total = regless_telemetry::EvictionStack::new();
        for s in &self.sm_stats {
            total.merge(&s.eviction_stack);
        }
        total
    }

    /// The `n` regions with the most stalled issue slots, merged across
    /// SMs: `(region id, stack)` sorted by stalled slots descending (ties
    /// by region id, so the order is deterministic).
    pub fn region_hotspots(&self, n: usize) -> Vec<(u32, IssueStack)> {
        let mut merged: std::collections::BTreeMap<u32, IssueStack> =
            std::collections::BTreeMap::new();
        for s in &self.sm_stats {
            for (&region, stack) in &s.region_stacks {
                merged.entry(region).or_default().merge(stack);
            }
        }
        let mut rows: Vec<(u32, IssueStack)> = merged.into_iter().collect();
        rows.sort_by_key(|&(region, ref stack)| (std::cmp::Reverse(stack.stalled()), region));
        rows.truncate(n);
        rows
    }
}

/// A whole GPU: SMs sharing one memory hierarchy, all running the same
/// compiled kernel (the usual SPMD launch).
pub struct Machine<B> {
    mem: MemSystem,
    compiled: Arc<CompiledKernel>,
    sms: Vec<Sm<B>>,
    config: GpuConfig,
    cancel: Option<crate::CancelToken>,
    /// Force the original cycle-by-cycle loop (no skip-ahead). Kept as the
    /// differential-testing reference; both paths produce byte-identical
    /// reports.
    stepped: bool,
    /// Host-side self profiler timing where the simulator's own wall time
    /// goes (issue vs writeback vs backend vs skip-ahead). `None` unless a
    /// caller attached one; purely a host-clock observer, so reports stay
    /// byte-identical either way.
    selfprof: Option<Arc<SelfProfiler>>,
}

impl<B: OperandBackend> Machine<B> {
    /// Build a machine; `make_backend` constructs each SM's backend.
    pub fn new(
        config: GpuConfig,
        compiled: Arc<CompiledKernel>,
        mut make_backend: impl FnMut(usize) -> B,
    ) -> Self {
        config.validate();
        let mem = MemSystem::new(&config);
        let sms = (0..config.num_sms)
            .map(|i| Sm::new(i, &config, &compiled, make_backend(i)))
            .collect();
        Machine {
            mem,
            compiled,
            sms,
            config,
            cancel: None,
            stepped: std::env::var_os("REGLESS_SIM").is_some_and(|v| v == "stepped"),
            selfprof: None,
        }
    }

    /// Attach a shared [`SelfProfiler`]: the run loop records host time
    /// per phase into it, and the caller keeps the handle to render or
    /// export afterwards.
    pub fn attach_profiler(&mut self, prof: Arc<SelfProfiler>) {
        self.selfprof = Some(prof);
    }

    /// Force (`true`) or disable (`false`) the stepped cycle-by-cycle loop,
    /// overriding the `REGLESS_SIM=stepped` environment escape hatch. Tests
    /// use this rather than the env var, which is racy under a parallel
    /// test runner.
    pub fn set_stepped(&mut self, stepped: bool) {
        self.stepped = stepped;
    }

    /// Attach a cooperative [`crate::CancelToken`]: the run loop polls it
    /// every cycle and returns [`SimError::Cancelled`] once it trips, so a
    /// controller (deadline timer, serving layer) can stop a simulation
    /// without orphaning the thread that runs it.
    pub fn set_cancel_token(&mut self, token: crate::CancelToken) {
        self.cancel = Some(token);
    }

    /// Run to completion.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MaxCyclesExceeded`] if the configured cycle
    /// limit is hit first.
    pub fn run(mut self) -> Result<RunReport, SimError> {
        let started = std::time::Instant::now();
        let prof = self.selfprof.clone();
        let mut now: Cycle = 0;
        while !self.sms.iter().all(Sm::all_done) {
            if let Some(token) = &self.cancel {
                if token.should_stop(now) {
                    return Err(SimError::Cancelled { at_cycle: now });
                }
            }
            if now >= self.config.max_cycles {
                return Err(SimError::MaxCyclesExceeded {
                    limit: self.config.max_cycles,
                    unfinished: self
                        .sms
                        .iter()
                        .map(|sm| sm.warps.iter().filter(|w| !w.finished()).count())
                        .collect(),
                });
            }
            // Seed with the fast path enabled; any SM that issued (or might
            // on the next cycle) pins the machine to single-stepping.
            let mut skippable = !self.stepped;
            let mut wakeup: Option<Cycle> = None;
            for sm in &mut self.sms {
                let out = sm.tick(now, &self.compiled, &mut self.mem, prof.as_deref());
                skippable &= out.skippable;
                if let Some(due) = out.next_wakeup {
                    wakeup = Some(wakeup.map_or(due, |w| w.min(due)));
                }
            }
            // A backend can finish draining inside an otherwise idle tick,
            // so re-check completion before committing to a skip.
            if skippable && !self.sms.iter().all(Sm::all_done) {
                // Jump to the earliest due event, clamped to the next
                // stats-window boundary (RegLess's census samples on
                // multiples of WINDOW_CYCLES), the next cancellation-poll
                // boundary (deadline latency stays bounded), and the cycle
                // limit. With no wakeup anywhere, the window clamp alone
                // bounds the jump; progress then depends on another SM,
                // whose events are visible only machine-wide.
                let window = (now / crate::stats::WINDOW_CYCLES + 1) * crate::stats::WINDOW_CYCLES;
                let poll = (now / crate::cancel::DEADLINE_CHECK_CYCLES + 1)
                    * crate::cancel::DEADLINE_CHECK_CYCLES;
                let mut target = window.min(poll).min(self.config.max_cycles);
                if let Some(w) = wakeup {
                    target = target.min(w);
                }
                if target > now + 1 {
                    let _g = SelfProfiler::scope(prof.as_deref(), "event_jump");
                    for sm in &mut self.sms {
                        sm.skip_to(now + 1, target, &mut self.mem);
                    }
                    now = target;
                    continue;
                }
            }
            now += 1;
        }
        let final_regs = self
            .sms
            .iter()
            .map(|sm| sm.warps.iter().map(|w| w.regs.clone()).collect())
            .collect();
        let warp_insns = self
            .sms
            .iter()
            .map(|sm| sm.warps.iter().map(|w| w.insns_issued).collect())
            .collect();
        let mut sm_stats: Vec<SmStats> = self
            .sms
            .into_iter()
            .map(|mut sm| {
                sm.backend.finish(&mut sm.stats);
                sm.stats.region_stacks = sm
                    .region_stacks
                    .iter()
                    .enumerate()
                    .filter(|(_, stack)| !stack.is_empty())
                    .map(|(region, &stack)| (region as u32, stack))
                    .collect();
                sm.stats
            })
            .collect();
        let telemetry = collect_telemetry(&mut sm_stats, &self.mem.stats, now);
        Ok(RunReport {
            cycles: now,
            sm_stats,
            mem: self.mem.stats,
            final_regs,
            warp_insns,
            wall_seconds: started.elapsed().as_secs_f64(),
            telemetry,
        })
    }

    /// The machine's SMs (inspection in tests).
    pub fn sms(&self) -> &[Sm<B>] {
        &self.sms
    }

    /// Attach a telemetry recorder to every SM, each buffering up to
    /// `events_per_sm` structured events (counters, histograms, and time
    /// series are unbounded). The merged telemetry comes back in
    /// [`RunReport::telemetry`].
    pub fn attach_telemetry(&mut self, events_per_sm: usize) {
        for (i, sm) in self.sms.iter_mut().enumerate() {
            sm.stats.recorder = Some(Box::new(
                regless_telemetry::MemoryRecorder::new(events_per_sm).with_group(i as u16),
            ));
        }
    }
}

/// Drain every SM's recorder, merge into one [`regless_telemetry::Telemetry`],
/// and fold the headline run counters into the exported view so summaries
/// are self-contained.
fn collect_telemetry(
    sm_stats: &mut [SmStats],
    mem: &MemStats,
    cycles: Cycle,
) -> Option<Box<regless_telemetry::Telemetry>> {
    let mut merged = regless_telemetry::Telemetry::new();
    let mut any = false;
    for s in sm_stats.iter_mut() {
        if let Some(rec) = s.recorder.take() {
            merged.merge(rec.into_telemetry());
            any = true;
        }
    }
    if !any {
        return None;
    }
    let mut total = SmStats::default();
    for s in sm_stats.iter() {
        total.merge(s);
    }
    merged.add_counter("cycles", cycles);
    merged.add_counter("sm.insns", total.insns);
    merged.add_counter("sm.meta_insns", total.meta_insns);
    merged.add_counter("sm.idle_slots", total.idle_slots);
    // The CPI stack, as `stall.<reason>` counters (summaries stay
    // self-contained without re-deriving the stack from SmStats).
    for (reason, slots) in total.issue_stack.entries() {
        merged.add_counter(reason.counter_name(), slots);
    }
    merged.add_counter("preload.osu", total.preloads_osu);
    merged.add_counter("preload.compressor", total.preloads_compressor);
    merged.add_counter("preload.l1", total.preloads_l1);
    merged.add_counter("preload.l2_dram", total.preloads_l2_dram);
    merged.add_counter("osu.reads", total.osu_reads);
    merged.add_counter("osu.writes", total.osu_writes);
    merged.add_counter("osu.tag_probes", total.osu_tag_probes);
    merged.add_counter("osu.bank_conflicts", total.osu_bank_conflicts);
    merged.add_counter("compressor.matches", total.compressor_matches);
    merged.add_counter("compressor.compressed", total.compressor_compressed);
    // Per-cause evictions as `evict.<reason>` counters, plus the OSU's
    // mechanical total they must sum to.
    merged.add_counter("osu.lines_evicted", total.osu_lines_evicted);
    for (reason, lines) in total.eviction_stack.entries() {
        merged.add_counter(reason.counter_name(), lines);
    }
    // Compressor effectiveness: per-pattern hits and staging byte traffic.
    merged.add_counter("compressor.pattern.constant", total.comp_constant);
    merged.add_counter("compressor.pattern.stride1", total.comp_stride1);
    merged.add_counter("compressor.pattern.stride4", total.comp_stride4);
    merged.add_counter("compressor.pattern.half_stride1", total.comp_half_stride1);
    merged.add_counter("compressor.pattern.half_stride4", total.comp_half_stride4);
    merged.add_counter("compressor.incompressible", total.comp_incompressible);
    merged.add_counter("compressor.bytes_in", total.comp_bytes_in);
    merged.add_counter("compressor.bytes_out", total.comp_bytes_out);
    merged.add_counter("regions.activated", total.regions_activated);
    merged.add_counter("regions.active_cycles", total.region_active_cycles);
    merged.add_counter("reg.stores_l1", total.reg_stores_l1);
    merged.add_counter("reg.invalidate_l1", total.reg_invalidate_l1);
    merged.add_counter("mem.l1_data_accesses", mem.l1_data_accesses);
    merged.add_counter("mem.l1_reg_accesses", mem.l1_reg_accesses);
    merged.add_counter("mem.l1_hits", mem.l1_hits);
    merged.add_counter("mem.l1_misses", mem.l1_misses);
    merged.add_counter("mem.l2_accesses", mem.l2_accesses);
    merged.add_counter("mem.dram_accesses", mem.dram_accesses);
    Some(Box::new(merged))
}

/// Convenience runner for the baseline register-file design.
pub fn run_baseline(
    config: GpuConfig,
    compiled: Arc<CompiledKernel>,
) -> Result<RunReport, SimError> {
    Machine::new(config, compiled, |_| crate::backend::BaselineRf::new()).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use regless_compiler::{compile, RegionConfig};
    use regless_isa::KernelBuilder;

    fn compiled(kernel: regless_isa::Kernel) -> Arc<CompiledKernel> {
        Arc::new(compile(&kernel, &RegionConfig::default()).unwrap())
    }

    fn straight_line() -> Arc<CompiledKernel> {
        let mut b = KernelBuilder::new("s");
        let i = b.thread_idx();
        let x = b.iadd(i, i);
        let y = b.imul(x, i);
        b.st_global(y, i);
        b.exit();
        compiled(b.finish().unwrap())
    }

    #[test]
    fn baseline_runs_to_completion() {
        let report = run_baseline(GpuConfig::test_small(), straight_line()).unwrap();
        let total = report.total();
        // 8 warps x 5 instructions.
        assert_eq!(total.insns, 8 * 5);
        assert!(report.cycles > 0);
        assert!(total.rf_reads > 0 && total.rf_writes > 0);
    }

    #[test]
    fn load_latency_delays_dependents() {
        // Dependent chain through a global load must take at least the
        // L2 latency (data bypasses L1).
        let mut b = KernelBuilder::new("lat");
        let i = b.thread_idx();
        let v = b.ld_global(i);
        let x = b.iadd(v, v);
        b.st_global(x, i);
        b.exit();
        let c = compiled(b.finish().unwrap());
        let config = GpuConfig {
            warps_per_sm: 2,
            warps_per_block: 2,
            schedulers_per_sm: 2,
            ..GpuConfig::test_small()
        };
        let report = run_baseline(config, c).unwrap();
        assert!(
            report.cycles >= GpuConfig::test_small().l2.hit_latency,
            "cycles {} should cover L2 latency",
            report.cycles
        );
    }

    #[test]
    fn divergent_kernel_executes_both_paths() {
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
        let report = run_baseline(GpuConfig::test_small(), compiled(b.finish().unwrap())).unwrap();
        // Both sides execute: 4 + 3 + 3 + 1 instructions per warp.
        assert_eq!(report.total().insns, 8 * 11);
    }

    #[test]
    fn barrier_synchronizes_all_warps() {
        let mut b = KernelBuilder::new("bar");
        let i = b.thread_idx();
        let x = b.iadd(i, i);
        b.bar();
        let y = b.imul(x, x);
        b.st_global(y, i);
        b.exit();
        let report = run_baseline(GpuConfig::test_small(), compiled(b.finish().unwrap())).unwrap();
        assert_eq!(report.total().insns, 8 * 6);
    }

    #[test]
    fn loop_kernel_terminates() {
        let mut b = KernelBuilder::new("loop");
        let body = b.new_block();
        let done = b.new_block();
        let i0 = b.movi(0);
        let n = b.movi(16);
        b.jmp(body);
        b.select(body);
        let one = b.movi(1);
        b.emit_to(i0, Opcode::IAdd, vec![i0, one]);
        let c = b.setlt(i0, n);
        b.bra(c, body, done);
        b.select(done);
        b.exit();
        let report = run_baseline(GpuConfig::test_small(), compiled(b.finish().unwrap())).unwrap();
        // 16 iterations x 4 body insns + 3 prologue + 1 exit per warp.
        assert_eq!(report.total().insns, 8 * (16 * 4 + 4));
    }

    #[test]
    fn pre_cancelled_token_stops_the_run_immediately() {
        let token = crate::CancelToken::new();
        token.cancel();
        let mut machine = Machine::new(GpuConfig::test_small(), straight_line(), |_| {
            crate::backend::BaselineRf::new()
        });
        machine.set_cancel_token(token);
        match machine.run() {
            Err(e) => assert_eq!(e, SimError::Cancelled { at_cycle: 0 }),
            Ok(_) => panic!("pre-cancelled run must not complete"),
        }
    }

    #[test]
    fn cancel_mid_run_reports_the_observed_cycle() {
        // A token cancelled from another thread shortly after the run
        // starts must stop the simulation cooperatively rather than let it
        // finish; a long-looping kernel guarantees the window.
        let mut b = KernelBuilder::new("long");
        let body = b.new_block();
        let done = b.new_block();
        let i0 = b.movi(0);
        let n = b.movi(1_000_000);
        b.jmp(body);
        b.select(body);
        let one = b.movi(1);
        b.emit_to(i0, Opcode::IAdd, vec![i0, one]);
        let c = b.setlt(i0, n);
        b.bra(c, body, done);
        b.select(done);
        b.exit();
        let token = crate::CancelToken::new();
        let canceller = token.clone();
        let mut machine = Machine::new(
            GpuConfig::test_small(),
            compiled(b.finish().unwrap()),
            |_| crate::backend::BaselineRf::new(),
        );
        machine.set_cancel_token(token);
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            canceller.cancel();
        });
        match machine.run() {
            Err(SimError::Cancelled { .. }) => {}
            other => panic!("expected cancellation, got {other:?}"),
        }
        t.join().unwrap();
    }

    #[test]
    fn uncancelled_token_leaves_the_report_byte_identical() {
        let plain = run_baseline(GpuConfig::test_small(), straight_line()).unwrap();
        let mut machine = Machine::new(GpuConfig::test_small(), straight_line(), |_| {
            crate::backend::BaselineRf::new()
        });
        machine.set_cancel_token(crate::CancelToken::new());
        let with_token = machine.run().unwrap();
        assert_eq!(
            plain.stable_json().to_string_compact(),
            with_token.stable_json().to_string_compact()
        );
    }

    #[test]
    fn ipc_bounded_by_schedulers() {
        let report = run_baseline(GpuConfig::test_small(), straight_line()).unwrap();
        assert!(report.ipc() <= GpuConfig::test_small().schedulers_per_sm as f64);
    }

    #[test]
    fn working_set_tracked() {
        let mut b = KernelBuilder::new("ws");
        let body = b.new_block();
        let done = b.new_block();
        let i0 = b.movi(0);
        let n = b.movi(200);
        b.jmp(body);
        b.select(body);
        let one = b.movi(1);
        b.emit_to(i0, Opcode::IAdd, vec![i0, one]);
        let c = b.setlt(i0, n);
        b.bra(c, body, done);
        b.select(done);
        b.exit();
        let report = run_baseline(GpuConfig::test_small(), compiled(b.finish().unwrap())).unwrap();
        assert!(!report.sm_stats[0].working_set.samples().is_empty());
        assert!(report.sm_stats[0].working_set.mean_kb() > 0.0);
    }

    use regless_isa::Opcode;

    #[test]
    fn cached_region_follows_the_pc_through_divergence_and_loops() {
        // Three trips around a loop whose body splits the warp at a
        // half-warp branch and reconverges at the latch.
        let mut b = KernelBuilder::new("div-loop");
        let body = b.new_block();
        let low = b.new_block();
        let high = b.new_block();
        let latch = b.new_block();
        let done = b.new_block();
        let lane = b.lane_idx();
        let i0 = b.movi(0);
        let n = b.movi(3);
        b.jmp(body);
        b.select(body);
        let one = b.movi(1);
        b.emit_to(i0, Opcode::IAdd, vec![i0, one]);
        let half = b.movi(16);
        let c = b.setlt(lane, half);
        b.bra(c, low, high);
        b.select(low);
        let a = b.iadd(lane, lane);
        b.st_global(a, lane);
        b.jmp(latch);
        b.select(high);
        let m = b.imul(lane, lane);
        b.st_global(m, lane);
        b.jmp(latch);
        b.select(latch);
        let again = b.setlt(i0, n);
        b.bra(again, body, done);
        b.select(done);
        b.exit();
        let c = compiled(b.finish().unwrap());
        assert!(c.regions().len() > 1);
        // One scheduler with one slot issues at most one instruction per
        // tick, so checking after every tick checks after every issue.
        let config = GpuConfig {
            schedulers_per_sm: 1,
            issue_slots_per_scheduler: 1,
            ..GpuConfig::test_small()
        };
        let mut mem = MemSystem::new(&config);
        let mut sm = Sm::new(0, &config, &c, crate::backend::BaselineRf::new());
        let mut visited = std::collections::BTreeSet::new();
        let mut now = 0;
        while !sm.all_done() {
            let before = sm.stats.insns;
            sm.tick(now, &c, &mut mem, None);
            assert!(sm.stats.insns <= before + 1);
            for (w, warp) in sm.warps.iter().enumerate() {
                let region = warp.pc().map(|pc| c.region_at(pc));
                assert_eq!(sm.regions[w], region, "warp {w} after cycle {now}");
                visited.extend(region);
            }
            now += 1;
            assert!(now < config.max_cycles, "the kernel hangs");
        }
        // Per warp: 4 entry instructions, 3 trips of the 5-instruction
        // body, both 3-instruction sides and the 2-instruction latch, exit.
        assert_eq!(sm.stats.insns, 8 * (4 + 3 * (5 + 3 + 3 + 2) + 1));
        assert_eq!(visited.len(), c.regions().len(), "every region was entered");
        assert!(sm.regions.iter().all(Option::is_none), "every warp exited");
    }

    #[test]
    fn idle_slot_charges_the_first_priority_then_lowest_warp() {
        let mut groups = StallMasks::default();
        assert_eq!(most_urgent(&groups), None);
        groups.add(StallReason::DataHazard, warp_bit(1) | warp_bit(4));
        groups.add(StallReason::Barrier, warp_bit(0));
        assert_eq!(most_urgent(&groups), Some((StallReason::DataHazard, 1)));
        groups.add(StallReason::Drain, warp_bit(9) | warp_bit(5));
        assert_eq!(most_urgent(&groups), Some((StallReason::Drain, 5)));
        groups.add(StallReason::OsuCapacityWait, warp_bit(63));
        assert_eq!(
            most_urgent(&groups),
            Some((StallReason::OsuCapacityWait, 63))
        );
    }

    proptest::proptest! {
        /// Over random stall groups, the mask pick equals the per-warp scan
        /// it replaced: ascending warps, keeping a reason only when its
        /// priority is strictly better than the best so far.
        #[test]
        fn most_urgent_matches_ascending_strict_scan(
            bits in proptest::collection::vec(proptest::prelude::any::<u16>(), 7),
        ) {
            // Disjoint groups over 16 warps, as the SM and backends build
            // them: each warp has at most one reason.
            let reasons = [
                StallReason::DataHazard,
                StallReason::CmPreloadWait,
                StallReason::OsuCapacityWait,
                StallReason::L1PortBusy,
                StallReason::MshrFull,
                StallReason::Barrier,
                StallReason::Drain,
            ];
            let priority = |r: StallReason| {
                STALL_PRIORITY.iter().position(|&p| p == r).expect("a blocking reason")
            };
            let mut groups = StallMasks::default();
            let mut taken: WarpMask = 0;
            for (&r, &b) in reasons.iter().zip(&bits) {
                let m = WarpMask::from(b) & !taken;
                taken |= m;
                groups.add(r, m);
            }
            let mut blocked: Option<(StallReason, usize)> = None;
            for w in 0..16 {
                let Some(&reason) = reasons.iter().find(|&&r| groups.get(r) & warp_bit(w) != 0) else {
                    continue;
                };
                let best = blocked.map_or(usize::MAX, |(r, _)| priority(r));
                if priority(reason) < best {
                    blocked = Some((reason, w));
                }
            }
            proptest::prop_assert_eq!(most_urgent(&groups), blocked);
        }
    }
}
