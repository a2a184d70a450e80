//! The RegLess operand backend: capacity managers, OSUs, and compressors
//! wired into the SM pipeline (paper §5, Figure 8).

use crate::cm::{Candidate, CapacityManager, WarpPhase};
use crate::compressor::{Compressor, PatternKind, StoreOutcome};
use crate::config::RegLessConfig;
use crate::osu::{runtime_bank, EvictedLine, InstallResult, Osu};
use crate::regmem::{RegisterBacking, RegisterMemoryMap, REG_LINE_BYTES};
use regless_compiler::{CompiledKernel, LastUse, RegionId, NUM_BANKS};
use regless_isa::{InsnRef, Instruction, LaneVec, Reg};
use regless_sim::{
    warp_bit, warps_in, BackendCtx, Cycle, EvictionReason, GpuConfig, Level, Machine,
    OperandBackend, PreloadSource, RunReport, SimError, SmStats, StallMasks, TraceEvent, Traffic,
    WarpMask, WarpView,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

/// A queued preload (one per region input register).
#[derive(Clone, Copy, Debug)]
struct QueuedPreload {
    warp: usize,
    reg: Reg,
    invalidate: bool,
}

/// Compressed-line cache entries per shard compressor (Table 1 lists 48
/// lines per SM, across its four shards).
const COMPRESSOR_LINES_PER_SHARD: usize = 12;

// `Shard::queued_banks` holds one bit per OSU bank.
const _: () = assert!(NUM_BANKS <= u8::BITS as usize);

/// One scheduler shard's RegLess hardware.
struct Shard {
    cm: CapacityManager,
    osu: Osu,
    compressor: Compressor,
    queues: [VecDeque<QueuedPreload>; NUM_BANKS],
    /// Bit `b` set: `queues[b]` is non-empty.
    queued_banks: u8,
    /// (completion cycle, warp) of in-flight preload fetches.
    inflight: BinaryHeap<Reverse<(Cycle, usize)>>,
    /// Cache-invalidation requests awaiting the L1 port.
    invalidations: VecDeque<(usize, Reg)>,
    /// Stacked warps the last admission scan skipped because they waited
    /// at a barrier. Their release is the one change to a scan input that
    /// the CM cannot see (see [`CapacityManager::admission_settled`]): a
    /// bit set here but no longer in [`WarpView::barrier`].
    barrier_skipped: WarpMask,
}

impl Shard {
    fn quiesced(&self) -> bool {
        self.inflight.is_empty() && !self.busy_every_cycle()
    }

    /// Whether the shard must run `begin_cycle` on the very next cycle:
    /// per-bank preload queues and the one-per-cycle invalidation drain
    /// make progress every cycle they are non-empty.
    fn busy_every_cycle(&self) -> bool {
        !self.invalidations.is_empty() || self.queued_banks != 0
    }
}

/// Telemetry series names for the recorder-gated per-bank occupancy
/// samples (the `MemoryRecorder` API wants `&'static str` names).
const BANK_OCCUPANCY_SERIES: [&str; NUM_BANKS] = [
    "osu.bank0.active",
    "osu.bank1.active",
    "osu.bank2.active",
    "osu.bank3.active",
    "osu.bank4.active",
    "osu.bank5.active",
    "osu.bank6.active",
    "osu.bank7.active",
];

/// The [`SmStats`] counter a compressor pattern hit increments.
fn pattern_counter(stats: &mut SmStats, kind: PatternKind) -> &mut u64 {
    match kind {
        PatternKind::Constant => &mut stats.comp_constant,
        PatternKind::Stride1 => &mut stats.comp_stride1,
        PatternKind::Stride4 => &mut stats.comp_stride4,
        PatternKind::HalfStride1 => &mut stats.comp_half_stride1,
        PatternKind::HalfStride4 => &mut stats.comp_half_stride4,
    }
}

/// Rotate the compiler's per-bank usage vector by the warp id: at run time
/// register `r` of warp `w` maps to bank `(w + r) % 8`, so the compile-time
/// vector (indexed by `r % 8`) shifts by `w % 8`.
fn rotated_usage(usage: &[u16; NUM_BANKS], warp: usize) -> [usize; NUM_BANKS] {
    let mut out = [0usize; NUM_BANKS];
    for (r_bank, &count) in usage.iter().enumerate() {
        out[(r_bank + warp) % NUM_BANKS] = count as usize;
    }
    out
}

/// Warp `w`'s admission candidate when its next region is `region`.
fn candidate(compiled: &CompiledKernel, w: usize, region: RegionId) -> Candidate {
    (
        region,
        rotated_usage(compiled.region(region).bank_usage(), w),
    )
}

/// The RegLess [`OperandBackend`]: replaces the register file with operand
/// staging units actively managed from compiler annotations.
pub struct RegLessBackend {
    compiled: Arc<CompiledKernel>,
    shards: Vec<Shard>,
    backing: RegisterBacking,
    regmap: RegisterMemoryMap,
    /// Each warp's shard (its scheduler), so the per-instruction path
    /// indexes a table instead of dividing.
    shard_of_warp: Vec<u8>,
    /// Earliest cycle each warp's region metadata finishes decoding; the
    /// region cannot activate before this (metadata instructions consume
    /// fetch/decode bandwidth, not issue slots — §5.4).
    meta_ready_at: Vec<Cycle>,
    /// Warps whose Exit issued but whose drain has not completed.
    finishing: Vec<bool>,
    /// Cycle each warp's current region activated (for residency stats).
    activated_at: Vec<Cycle>,
    /// Outstanding preloads per warp (queued + in flight), indexed by warp.
    /// Warps are sharded disjointly, so one flat array serves every shard.
    preloads_pending: Vec<usize>,
    /// Warps with no preload outstanding (`preloads_pending[w] == 0`),
    /// kept in step by [`RegLessBackend::preload_done`] and admission: the
    /// only preloading warps that can activate.
    fetched: WarpMask,
    /// Warps that issued since the last `begin_cycle`: the only active
    /// warps whose PC can have left their region.
    issued: WarpMask,
    /// Whether any shard's CM admitted a warp this cycle. Admission is
    /// rate-limited to one warp per shard per cycle, so a success means the
    /// *next* cycle may admit another even with no issue or writeback in
    /// between — the fast path must not skip it.
    admitted_now: bool,
    /// Writebacks in flight per `(warp, register)` — a flat `warp ×
    /// num_regs` count array (the same register can have several writes
    /// outstanding), with a per-warp nonzero-entry count so drain setup
    /// can skip the register walk for warps with nothing in flight.
    inflight_regs: InflightRegs,
}

/// Structure-of-arrays writeback-in-flight bookkeeping: counts laid out
/// `warp-major × num_regs`, replacing a per-warp `HashMap<Reg, u32>`.
struct InflightRegs {
    counts: Vec<u32>,
    /// Registers with a nonzero count, per warp.
    nonzero: Vec<u32>,
    num_regs: usize,
}

impl InflightRegs {
    fn new(warps: usize, num_regs: usize) -> Self {
        InflightRegs {
            counts: vec![0; warps * num_regs.max(1)],
            nonzero: vec![0; warps],
            num_regs: num_regs.max(1),
        }
    }

    fn incr(&mut self, w: usize, reg: Reg) {
        let c = &mut self.counts[w * self.num_regs + reg.index()];
        if *c == 0 {
            self.nonzero[w] += 1;
        }
        *c += 1;
    }

    /// Decrement; returns whether this was the register's last outstanding
    /// writeback (count reached zero). A register with no record is a
    /// no-op returning `false`, matching the old map's `get_mut` miss.
    fn decr(&mut self, w: usize, reg: Reg) -> bool {
        let c = &mut self.counts[w * self.num_regs + reg.index()];
        if *c == 0 {
            return false;
        }
        *c -= 1;
        if *c == 0 {
            self.nonzero[w] -= 1;
            true
        } else {
            false
        }
    }

    /// The warp's per-register counts (indexed by `Reg::index`).
    fn warp(&self, w: usize) -> &[u32] {
        &self.counts[w * self.num_regs..(w + 1) * self.num_regs]
    }

    /// Whether any register of the warp has a writeback in flight.
    fn any(&self, w: usize) -> bool {
        self.nonzero[w] > 0
    }
}

impl RegLessBackend {
    /// Build the backend for SM `sm`.
    ///
    /// # Panics
    ///
    /// Panics if the compiled kernel's region limits exceed the OSU shape
    /// (use [`RegLessConfig::region_config`] when compiling).
    pub fn new(
        sm: usize,
        gpu: &GpuConfig,
        config: &RegLessConfig,
        compiled: Arc<CompiledKernel>,
    ) -> Self {
        let lines_per_bank = config.lines_per_bank(gpu);
        assert!(
            compiled.config().max_regs_per_bank <= lines_per_bank,
            "kernel compiled for {} regs/bank but OSU banks hold {} lines; \
             compile with RegLessConfig::region_config",
            compiled.config().max_regs_per_bank,
            lines_per_bank
        );
        let num_scheds = gpu.schedulers_per_sm;
        let num_regs = compiled.kernel().num_regs() as usize;
        // Every warp starts stacked at the kernel entry.
        let entry = compiled.first_region_of_block(compiled.kernel().entry());
        // Warps are dealt round-robin to the schedulers; `validate` keeps
        // both counts within a warp mask, so a shard index fits a byte.
        let shard_of_warp: Vec<u8> = (0..gpu.warps_per_sm)
            .map(|w| (w % num_scheds) as u8)
            .collect();
        let shards = (0..num_scheds)
            .map(|s| {
                let warps: Vec<usize> = (0..gpu.warps_per_sm)
                    .filter(|&w| usize::from(shard_of_warp[w]) == s)
                    .collect();
                Shard {
                    cm: CapacityManager::with_order(
                        &warps,
                        gpu.warps_per_sm,
                        lines_per_bank,
                        config.activation_order,
                        |w| candidate(&compiled, w, entry),
                    ),
                    osu: Osu::new(lines_per_bank, gpu.warps_per_sm),
                    compressor: Compressor::with_patterns(
                        COMPRESSOR_LINES_PER_SHARD,
                        gpu.warps_per_sm,
                        config.compressor_enabled,
                        config.compressor_patterns,
                    ),
                    queues: std::array::from_fn(|_| VecDeque::new()),
                    queued_banks: 0,
                    inflight: BinaryHeap::new(),
                    invalidations: VecDeque::new(),
                    barrier_skipped: 0,
                }
            })
            .collect();
        RegLessBackend {
            regmap: RegisterMemoryMap::for_sm(
                sm,
                gpu.warps_per_sm,
                compiled.kernel().num_regs() as usize,
            ),
            compiled,
            shards,
            backing: RegisterBacking::new(),
            shard_of_warp,
            meta_ready_at: vec![0; gpu.warps_per_sm],
            finishing: vec![false; gpu.warps_per_sm],
            activated_at: vec![0; gpu.warps_per_sm],
            preloads_pending: vec![0; gpu.warps_per_sm],
            fetched: regless_sim::first_warps(gpu.warps_per_sm),
            issued: 0,
            admitted_now: false,
            inflight_regs: InflightRegs::new(gpu.warps_per_sm, num_regs),
        }
    }

    fn shard_of(&self, w: usize) -> usize {
        usize::from(self.shard_of_warp[w])
    }

    /// The shard supervising `warps`, a non-empty set of one scheduler's
    /// warps.
    fn shard_of_warps(&self, warps: WarpMask) -> &Shard {
        let shard = &self.shards[self.shard_of(warps.trailing_zeros() as usize)];
        debug_assert_eq!(warps & !shard.cm.warps(), 0, "warps of several shards");
        shard
    }

    /// Whether the `fetched` mask agrees with `preloads_pending` for `w`.
    fn fetched_agrees(preloads_pending: &[usize], fetched: WarpMask, w: usize) -> bool {
        (fetched & warp_bit(w) != 0) == (preloads_pending[w] == 0)
    }

    /// One of warp `w`'s preloads completed.
    fn preload_done(preloads_pending: &mut [usize], fetched: &mut WarpMask, w: usize) {
        debug_assert!(Self::fetched_agrees(preloads_pending, *fetched, w));
        preloads_pending[w] -= 1;
        if preloads_pending[w] == 0 {
            *fetched |= warp_bit(w);
        }
    }

    /// Charge one OSU eviction to its cause and trace it: every site that
    /// makes the OSU's internal `lines_evicted` counter tick must call
    /// this exactly once (the eviction-accounting conservation law).
    fn note_eviction(ctx: &mut BackendCtx<'_>, reason: EvictionReason, warp: usize, reg: Reg) {
        ctx.stats.eviction_stack.charge(reason);
        ctx.stats
            .trace_event(ctx.now, TraceEvent::OsuEvict { warp, reg, reason });
    }

    /// Begin draining warp `w`: free everything except lines whose
    /// writebacks are still in flight (paper §5.1). A warp with nothing in
    /// flight skips the per-register walk and keeps no line.
    fn start_drain(shard: &mut Shard, inflight: &InflightRegs, w: usize, ctx: &mut BackendCtx<'_>) {
        let any = inflight.any(w);
        let counts = inflight.warp(w);
        let mut pending = [0usize; NUM_BANKS];
        if any {
            for (r, &count) in counts.iter().enumerate() {
                if count > 0 {
                    pending[runtime_bank(w, Reg(r as u16))] += 1;
                }
            }
        }
        shard.cm.begin_drain(w, pending);
        shard.osu.release_warp_except(
            w,
            |reg| any && counts[reg.index()] > 0,
            |reg| Self::note_eviction(ctx, EvictionReason::RegionDrain, w, reg),
        );
    }

    /// Spill a displaced dirty line through the compressor (or to the L1
    /// uncompressed).
    fn spill(
        shard: &mut Shard,
        backing: &mut RegisterBacking,
        regmap: &RegisterMemoryMap,
        line: EvictedLine,
        ctx: &mut BackendCtx<'_>,
    ) {
        ctx.stats.compressor_matches += 1;
        ctx.stats.comp_bytes_in += REG_LINE_BYTES;
        match shard.compressor.store(line.warp, line.reg, &line.value) {
            StoreOutcome::Compressed { line_miss, kind } => {
                ctx.stats.compressor_compressed += 1;
                ctx.stats.comp_bytes_out += kind.payload_bytes() as u64;
                *pattern_counter(ctx.stats, kind) += 1;
                ctx.stats.trace_event(
                    ctx.now,
                    TraceEvent::CompressorStore {
                        warp: line.warp,
                        reg: line.reg,
                        compressed: true,
                    },
                );
                if line_miss {
                    let addr = regmap.compressed_line_addr(line.warp, line.reg);
                    ctx.mem
                        .access_line(ctx.sm, addr, true, Traffic::Register, ctx.now);
                    ctx.stats.reg_stores_l1 += 1;
                    ctx.stats.backing_series.record(ctx.now, 1);
                }
            }
            StoreOutcome::Incompressible => {
                ctx.stats.comp_incompressible += 1;
                ctx.stats.comp_bytes_out += REG_LINE_BYTES;
                ctx.stats.trace_event(
                    ctx.now,
                    TraceEvent::CompressorStore {
                        warp: line.warp,
                        reg: line.reg,
                        compressed: false,
                    },
                );
                backing.store(line.warp, line.reg, line.value);
                let addr = regmap.line_addr(line.warp, line.reg);
                ctx.mem
                    .access_line(ctx.sm, addr, true, Traffic::Register, ctx.now);
                ctx.stats.reg_stores_l1 += 1;
                ctx.stats.backing_series.record(ctx.now, 1);
            }
        }
    }

    /// Account for an OSU install's fallout: a clean victim dropped is a
    /// capacity preemption, a dirty victim displaced is a compressor
    /// spill, and a failed allocation counts against the reservation
    /// model.
    fn settle_install(
        shard: &mut Shard,
        backing: &mut RegisterBacking,
        regmap: &RegisterMemoryMap,
        result: InstallResult,
        ctx: &mut BackendCtx<'_>,
    ) {
        if let Some((warp, reg)) = result.dropped_clean {
            Self::note_eviction(ctx, EvictionReason::CapacityPreemption, warp, reg);
        }
        if result.failed {
            ctx.stats.reservation_overflows += 1;
        }
        if let Some(victim) = result.spilled {
            Self::note_eviction(
                ctx,
                EvictionReason::CompressorSpill,
                victim.warp,
                victim.reg,
            );
            Self::spill(shard, backing, regmap, victim, ctx);
        }
    }

    /// Process at most one preload per OSU bank (one tag probe per bank per
    /// cycle, §5.2.1).
    fn process_preloads(&mut self, shard_idx: usize, ctx: &mut BackendCtx<'_>) {
        let shard = &mut self.shards[shard_idx];
        let mut banks = shard.queued_banks;
        while banks != 0 {
            let bank = banks.trailing_zeros() as usize;
            banks &= banks - 1;
            let p = shard.queues[bank]
                .pop_front()
                .expect("queued_banks marks non-empty queues");
            if shard.queues[bank].is_empty() {
                shard.queued_banks &= !(1 << bank);
            }
            ctx.stats.osu_tag_probes += 1;
            let done;
            if shard.osu.promote(p.warp, p.reg) {
                ctx.stats.record_preload(PreloadSource::Osu);
                ctx.stats.trace_event(
                    ctx.now,
                    TraceEvent::Preload {
                        warp: p.warp,
                        reg: p.reg,
                        source: PreloadSource::Osu,
                    },
                );
                // A tag hit completes within the probe cycle: retire the
                // preload immediately so the warp can activate this cycle.
                done = ctx.now;
                if p.invalidate {
                    // The incoming value dies here: drop stale memory-side
                    // copies for free (the read carries the invalidation).
                    shard.compressor.invalidate(p.warp, p.reg);
                    self.backing.invalidate(p.warp, p.reg);
                    ctx.mem
                        .l1_drop_line(ctx.sm, self.regmap.line_addr(p.warp, p.reg));
                }
            } else if shard.compressor.is_compressed(p.warp, p.reg) {
                let hit = shard
                    .compressor
                    .load(p.warp, p.reg)
                    .expect("bit vector said so");
                let (source, when) = if hit.line_miss {
                    let addr = self.regmap.compressed_line_addr(p.warp, p.reg);
                    ctx.stats
                        .observe("l1.port_backlog", ctx.mem.l1_port_backlog(ctx.sm, ctx.now));
                    let a = ctx
                        .mem
                        .access_line(ctx.sm, addr, false, Traffic::Register, ctx.now);
                    ctx.stats.backing_series.record(ctx.now, 1);
                    let src = if a.serviced_by == Level::L1 {
                        PreloadSource::L1
                    } else {
                        PreloadSource::L2OrDram
                    };
                    match src {
                        PreloadSource::L1 => ctx.stats.preloads_l1 += 1,
                        _ => ctx.stats.preloads_l2_dram += 1,
                    }
                    ctx.stats.trace_event(
                        ctx.now,
                        TraceEvent::Preload {
                            warp: p.warp,
                            reg: p.reg,
                            source: src,
                        },
                    );
                    (None, a.done + 3)
                } else {
                    (Some(PreloadSource::Compressor), ctx.now + 3)
                };
                if let Some(s) = source {
                    ctx.stats.record_preload(s);
                    ctx.stats.trace_event(
                        ctx.now,
                        TraceEvent::Preload {
                            warp: p.warp,
                            reg: p.reg,
                            source: s,
                        },
                    );
                }
                let result = shard.osu.fill(p.warp, p.reg, hit.value);
                Self::settle_install(shard, &mut self.backing, &self.regmap, result, ctx);
                done = when;
                if p.invalidate {
                    shard.compressor.invalidate(p.warp, p.reg);
                }
            } else {
                let addr = self.regmap.line_addr(p.warp, p.reg);
                ctx.stats
                    .observe("l1.port_backlog", ctx.mem.l1_port_backlog(ctx.sm, ctx.now));
                let a = ctx
                    .mem
                    .access_line(ctx.sm, addr, false, Traffic::Register, ctx.now);
                ctx.stats.backing_series.record(ctx.now, 1);
                let src = if a.serviced_by == Level::L1 {
                    PreloadSource::L1
                } else {
                    PreloadSource::L2OrDram
                };
                ctx.stats.record_preload(src);
                ctx.stats.trace_event(
                    ctx.now,
                    TraceEvent::Preload {
                        warp: p.warp,
                        reg: p.reg,
                        source: src,
                    },
                );
                let value = self.backing.load(p.warp, p.reg);
                let result = shard.osu.fill(p.warp, p.reg, value);
                Self::settle_install(shard, &mut self.backing, &self.regmap, result, ctx);
                // The compressor bit-vector check adds one cycle to
                // non-compressed preloads (§5.3).
                done = a.done + 1;
                if p.invalidate {
                    self.backing.invalidate(p.warp, p.reg);
                    ctx.mem.l1_drop_line(ctx.sm, addr);
                }
            }
            ctx.stats
                .observe("preload.latency", done.saturating_sub(ctx.now));
            if done <= ctx.now {
                Self::preload_done(&mut self.preloads_pending, &mut self.fetched, p.warp);
            } else {
                shard.inflight.push(Reverse((done, p.warp)));
            }
        }
    }
}

impl OperandBackend for RegLessBackend {
    fn run_machine(machine: Machine<Self>) -> Result<RunReport, SimError> {
        machine.run()
    }

    fn begin_cycle_with_warps(&mut self, warps: WarpView<'_>, ctx: &mut BackendCtx<'_>) {
        self.admitted_now = false;
        // Sample the OSU/CM occupancy census once per stats window: live
        // (active) lines, CM-reserved lines, free lines, and the admission
        // queue depth. Always on — the series feed `regless report`'s
        // occupancy timeline whether or not a recorder is attached.
        if ctx.now.is_multiple_of(regless_sim::WINDOW_CYCLES) {
            let active: usize = self.shards.iter().map(|s| s.osu.active_lines()).sum();
            let reserved: usize = self.shards.iter().map(|s| s.cm.committed_total()).sum();
            let free: usize = self.shards.iter().map(|s| s.osu.free_lines()).sum();
            let queued: usize = self.shards.iter().map(|s| s.cm.queue_depth()).sum();
            ctx.stats.osu_occupancy.record(ctx.now, active as u64);
            ctx.stats
                .osu_reserved_series
                .record(ctx.now, reserved as u64);
            ctx.stats.osu_free_series.record(ctx.now, free as u64);
            ctx.stats.cm_queue_series.record(ctx.now, queued as u64);
            ctx.stats.sample("osu.occupancy", ctx.now, active as f64);
            ctx.stats.sample("osu.reserved", ctx.now, reserved as f64);
            ctx.stats.sample("osu.free", ctx.now, free as f64);
            ctx.stats.sample("cm.queue_depth", ctx.now, queued as f64);
            // Per-bank census only when a recorder is listening (it is an
            // 8-way fan-out of the same walk).
            if ctx.stats.telemetry_enabled() {
                for (bank, name) in BANK_OCCUPANCY_SERIES.iter().copied().enumerate() {
                    let live: usize = self.shards.iter().map(|s| s.osu.bank_states(bank).0).sum();
                    ctx.stats.sample(name, ctx.now, live as f64);
                }
            }
        }
        for s in 0..self.shards.len() {
            // 1. Complete in-flight preload fetches.
            {
                let shard = &mut self.shards[s];
                while let Some(&Reverse((done, w))) = shard.inflight.peek() {
                    if done > ctx.now {
                        break;
                    }
                    shard.inflight.pop();
                    Self::preload_done(&mut self.preloads_pending, &mut self.fetched, w);
                }
            }

            // 2. Send one queued cache invalidation to the L1.
            {
                let shard = &mut self.shards[s];
                if let Some((w, reg)) = shard.invalidations.pop_front() {
                    let addr = self.regmap.line_addr(w, reg);
                    ctx.mem.invalidate_l1_line(ctx.sm, addr, ctx.now);
                    shard.compressor.invalidate(w, reg);
                    self.backing.invalidate(w, reg);
                    ctx.stats.reg_invalidate_l1 += 1;
                    ctx.stats.backing_series.record(ctx.now, 1);
                }
            }

            // 3. Process per-bank preload queues.
            self.process_preloads(s, ctx);

            let shard = &mut self.shards[s];

            // 4. Region transitions driven by warp PCs. Only preloading
            // warps with every preload fetched, draining warps with no
            // writeback in flight, and active warps that issued since the
            // last cycle (nothing else moves a PC) can change phase here;
            // a visit to any other warp is a no-op. They are visited in
            // ascending order, as a walk over all of the shard's warps
            // would, so drained warps restack in the same order.
            let watch = (shard.cm.preloading() & self.fetched)
                | (shard.cm.draining() & shard.cm.quiet())
                | (self.issued & shard.cm.warps());
            for w in warps_in(watch) {
                match shard.cm.phase(w) {
                    // The warp's PC left its region (or it exited).
                    WarpPhase::Active(region) if warps.regions[w] != Some(region) => {
                        ctx.stats
                            .trace_event(ctx.now, TraceEvent::RegionDrain { warp: w });
                        Self::start_drain(shard, &self.inflight_regs, w, ctx);
                    }
                    WarpPhase::Preloading(_) if ctx.now >= self.meta_ready_at[w] => {
                        debug_assert_eq!(self.preloads_pending[w], 0, "watched before fetched");
                        let region = shard.cm.activate(w);
                        self.activated_at[w] = ctx.now;
                        ctx.stats.regions_activated += 1;
                        ctx.stats.trace_event(
                            ctx.now,
                            TraceEvent::RegionActivate {
                                warp: w,
                                region: region.0,
                            },
                        );
                    }
                    _ => {}
                }
                if let WarpPhase::Draining(_) = shard.cm.phase(w) {
                    // A warp that did not exit is restacked for the region
                    // at its PC, which stays put until it is admitted.
                    let next = || {
                        (!self.finishing[w]).then(|| {
                            let region = warps.regions[w].expect("a live warp has a pc");
                            candidate(&self.compiled, w, region)
                        })
                    };
                    if shard.cm.try_finish_drain(w, next) {
                        let resident = ctx.now.saturating_sub(self.activated_at[w]);
                        ctx.stats.region_active_cycles += resident;
                        ctx.stats.observe("region.active_cycles", resident);
                        ctx.stats
                            .trace_event(ctx.now, TraceEvent::RegionRelease { warp: w });
                    }
                }
            }

            // 5. Admit the top stack warp if its next region fits. A scan
            // whose inputs are unchanged since one that admitted nothing
            // would repeat it, so it is skipped.
            let released = shard.barrier_skipped & !warps.barrier != 0;
            if shard.cm.admission_settled() && !released {
                continue;
            }
            let compiled = &self.compiled;
            let finishing = &self.finishing;
            let mut barrier_skipped = 0;
            let started = shard.cm.try_start_preload(|w, stored| {
                // Only an active warp issues, so a stacked warp neither
                // exited nor moved its PC since it was stacked.
                debug_assert!(!finishing[w], "stacked warp {w} exited");
                debug_assert_eq!(
                    *stored,
                    candidate(
                        compiled,
                        w,
                        compiled.region_at(warps.states[w].pc().expect("a stacked warp has a pc"))
                    ),
                    "stacked warp {w}'s stored candidate is stale"
                );
                if warps.barrier & warp_bit(w) != 0 {
                    barrier_skipped |= warp_bit(w);
                    return false;
                }
                true
            });
            shard.barrier_skipped = barrier_skipped;
            if let Some((w, region)) = started {
                self.admitted_now = true;
                ctx.stats.trace_event(
                    ctx.now,
                    TraceEvent::RegionPreload {
                        warp: w,
                        region: region.0,
                    },
                );
                let r = compiled.region(region);
                let preloads = r.preloads();
                debug_assert!(Self::fetched_agrees(
                    &self.preloads_pending,
                    self.fetched,
                    w
                ));
                self.preloads_pending[w] = preloads.len();
                if preloads.is_empty() {
                    self.fetched |= warp_bit(w);
                } else {
                    self.fetched &= !warp_bit(w);
                    for p in preloads {
                        let bank = runtime_bank(w, p.reg);
                        shard.queues[bank].push_back(QueuedPreload {
                            warp: w,
                            reg: p.reg,
                            invalidate: p.invalidate,
                        });
                        shard.queued_banks |= 1 << bank;
                    }
                }
                for &reg in compiled.annotations().cache_invalidates(region) {
                    shard.invalidations.push_back((w, reg));
                }
                let meta = compiled.metadata().for_region(region) as u64;
                ctx.stats.meta_insns += meta;
                self.meta_ready_at[w] = ctx.now + meta;
            }
        }
        self.issued = 0;
    }

    /// `ready` holds one scheduler's warps, so one shard supervises them
    /// all. An active warp that has not issued since `begin_cycle` is
    /// still inside its region: step 4 of `begin_cycle` drained every
    /// active warp that issued and left, and only an issue moves a PC. So
    /// only this cycle's issuers (a dual-issue scheduler's first slot)
    /// need their region compared with the active one.
    fn eligible(&self, ready: WarpMask, regions: &[Option<RegionId>]) -> WarpMask {
        let shard = self.shard_of_warps(ready);
        let region_of = |w: usize| regions[w].expect("ready implies a pc");
        let settled = ready & shard.cm.active() & !self.issued;
        debug_assert!(
            warps_in(settled).all(|w| shard.cm.phase(w) == WarpPhase::Active(region_of(w))),
            "an active warp that did not issue left its region"
        );
        settled | shard.cm.eligible(ready & self.issued, region_of)
    }

    fn stalls(&self, ineligible: WarpMask) -> StallMasks {
        let mut groups = StallMasks::default();
        self.shard_of_warps(ineligible)
            .cm
            .stalls(ineligible, &mut groups);
        groups
    }

    fn on_issue(
        &mut self,
        w: usize,
        at: InsnRef,
        insn: &Instruction,
        ctx: &mut BackendCtx<'_>,
    ) -> Cycle {
        let s = self.shard_of(w);
        let shard = &mut self.shards[s];
        ctx.stats.osu_reads += insn.srcs().len() as u64;
        // Each OSU bank ports one access per cycle: same-bank source reads
        // serialize (§5.2).
        let mut banks_seen = [false; NUM_BANKS];
        let mut extra = 0;
        for &srcr in insn.srcs() {
            let b = runtime_bank(w, srcr);
            if banks_seen[b] {
                extra += 1;
                ctx.stats.osu_bank_conflicts += 1;
            }
            banks_seen[b] = true;
        }
        // Apply last-use annotations after the reads.
        if let Some(notes) = self.compiled.annotations().notes(at) {
            for &(reg, kind) in &notes.last_uses {
                match kind {
                    LastUse::Erase => {
                        if shard.osu.erase(w, reg) {
                            Self::note_eviction(ctx, EvictionReason::DeadValueReclaim, w, reg);
                        }
                    }
                    LastUse::Evict => {
                        if shard.osu.release(w, reg) {
                            Self::note_eviction(ctx, EvictionReason::RegionDrain, w, reg);
                        }
                    }
                }
            }
        }
        shard.cm.note_issue(w, insn.dst().is_some());
        self.issued |= warp_bit(w);
        if let Some(d) = insn.dst() {
            self.inflight_regs.incr(w, d);
        }
        // Issuing the region's last instruction starts the drain right away
        // — the CM knows the boundary from the region metadata.
        if let WarpPhase::Active(region) = shard.cm.phase(w) {
            if at.idx + 1 == self.compiled.region(region).end() {
                ctx.stats
                    .trace_event(ctx.now, TraceEvent::RegionDrain { warp: w });
                Self::start_drain(shard, &self.inflight_regs, w, ctx);
            }
        }
        extra
    }

    fn on_writeback(
        &mut self,
        w: usize,
        at: InsnRef,
        reg: Reg,
        value: LaneVec,
        ctx: &mut BackendCtx<'_>,
    ) {
        let s = self.shard_of(w);
        let shard = &mut self.shards[s];
        ctx.stats.osu_writes += 1;
        let result = shard.osu.write(w, reg, value);
        let overflowed = result.failed;
        Self::settle_install(shard, &mut self.backing, &self.regmap, result, ctx);
        if overflowed {
            // Reservation model fell short (should be rare): write through
            // to memory so the value is never lost. This spill is not an
            // OSU eviction — no line was displaced — so it carries no
            // eviction cause.
            Self::spill(
                shard,
                &mut self.backing,
                &self.regmap,
                EvictedLine {
                    warp: w,
                    reg,
                    value,
                },
                ctx,
            );
        }
        let fully_landed = self.inflight_regs.decr(w, reg);
        if let Some(notes) = self.compiled.annotations().notes(at) {
            if notes.erase_on_write {
                if shard.osu.erase(w, reg) {
                    Self::note_eviction(ctx, EvictionReason::DeadValueReclaim, w, reg);
                }
            } else if notes.evict_on_write && shard.osu.release(w, reg) {
                Self::note_eviction(ctx, EvictionReason::RegionDrain, w, reg);
            }
        }
        shard.cm.note_writeback(w);
        // While draining, a landed register's line is released right away
        // and its slice of the reservation returned (paper §5.1).
        if fully_landed {
            if let WarpPhase::Draining(_) = shard.cm.phase(w) {
                if shard.osu.release(w, reg) {
                    Self::note_eviction(ctx, EvictionReason::RegionDrain, w, reg);
                }
                shard.cm.note_drain_release(w, runtime_bank(w, reg));
            }
        }
    }

    fn check_staged_operands(
        &self,
        w: usize,
        srcs: &[Reg],
        regs: &[LaneVec],
        stats: &mut regless_sim::SmStats,
    ) {
        let shard = &self.shards[self.shard_of(w)];
        for &reg in srcs {
            // A read with no staged line violates the capacity-manager
            // guarantee ("instructions have their registers available in
            // the OSU as they execute"); a staged line holding another
            // value is a wrong operand.
            if shard.osu.staged(w, reg) != Some(&regs[reg.index()]) {
                stats.staging_mismatches += 1;
            }
        }
    }

    fn on_warp_finish(&mut self, w: usize, ctx: &mut BackendCtx<'_>) {
        self.finishing[w] = true;
        let s = self.shard_of(w);
        let shard = &mut self.shards[s];
        // `Exit` is its region's last instruction, so on_issue usually
        // started the drain already; only start one if it did not.
        if let WarpPhase::Active(_) = shard.cm.phase(w) {
            ctx.stats
                .trace_event(ctx.now, TraceEvent::RegionDrain { warp: w });
            Self::start_drain(shard, &self.inflight_regs, w, ctx);
        }
    }

    fn quiesced(&self) -> bool {
        self.shards.iter().all(Shard::quiesced)
    }

    fn next_wakeup(&self, now: Cycle) -> Option<Cycle> {
        // Queued preloads and cache invalidations drain one per bank (or
        // one per shard) per cycle, so any backlog demands the next cycle;
        // likewise an admission this cycle means the one-per-cycle
        // admission scan may admit the next stacked warp next cycle.
        if self.admitted_now || self.shards.iter().any(Shard::busy_every_cycle) {
            return Some(now + 1);
        }
        let mut wake: Option<Cycle> = None;
        let mut note = |c: Cycle| {
            let c = c.max(now + 1);
            wake = Some(wake.map_or(c, |w| w.min(c)));
        };
        for shard in &self.shards {
            if let Some(&Reverse((done, _))) = shard.inflight.peek() {
                note(done);
            }
        }
        // A preloading warp with nothing queued or in flight is waiting
        // only on its region metadata decode before it can activate.
        for shard in &self.shards {
            for w in warps_in(shard.cm.preloading() & self.fetched) {
                note(self.meta_ready_at[w]);
            }
        }
        // Draining and inactive warps need no wakeup of their own: drain
        // progress rides the SM's writeback events, and admission inputs
        // only change on issues or writebacks — both real ticks.
        wake
    }

    fn finish(&mut self, stats: &mut SmStats) {
        // Publish the OSU's mechanical eviction count; the final cycle can
        // evict lines after the last `begin_cycle`, so this happens once
        // at run end rather than per cycle.
        stats.osu_lines_evicted = self.shards.iter().map(|s| s.osu.lines_evicted()).sum();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_rotation_shifts_by_warp() {
        let usage = [3, 1, 0, 0, 0, 0, 0, 2];
        let r0 = rotated_usage(&usage, 0);
        assert_eq!(r0, [3, 1, 0, 0, 0, 0, 0, 2]);
        let r1 = rotated_usage(&usage, 1);
        assert_eq!(r1, [2, 3, 1, 0, 0, 0, 0, 0]);
        let r9 = rotated_usage(&usage, 9);
        assert_eq!(r9, r1, "rotation is mod 8");
        // Totals are invariant.
        assert_eq!(r1.iter().sum::<usize>(), usage.iter().sum::<u16>() as usize);
    }
}

#[cfg(test)]
mod backend_tests {
    use super::*;
    use regless_compiler::compile;
    use regless_isa::KernelBuilder;
    use regless_sim::{GpuConfig, MemSystem, SmStats, WarpState};

    /// Every warp of an SM at the kernel entry, and the region at each
    /// one's PC.
    fn entry_warps(
        gpu: &GpuConfig,
        compiled: &CompiledKernel,
    ) -> (Vec<WarpState>, Vec<Option<RegionId>>) {
        let warps: Vec<WarpState> = (0..gpu.warps_per_sm)
            .map(|_| WarpState::new(compiled.kernel()))
            .collect();
        let regions = warps
            .iter()
            .map(|w| w.pc().map(|pc| compiled.region_at(pc)))
            .collect();
        (warps, regions)
    }

    fn view<'a>(warps: &'a [WarpState], regions: &'a [Option<RegionId>]) -> WarpView<'a> {
        WarpView {
            states: warps,
            regions,
            barrier: 0,
        }
    }

    fn setup() -> (GpuConfig, Arc<CompiledKernel>) {
        let gpu = GpuConfig::test_small();
        (gpu, compiled_for(&gpu))
    }

    /// A two-block kernel compiled for `gpu`'s OSU shape.
    fn compiled_for(gpu: &GpuConfig) -> Arc<CompiledKernel> {
        let cfg = RegLessConfig::paper_default();
        let mut b = KernelBuilder::new("unit");
        let next = b.new_block();
        let x = b.movi(1);
        let y = b.movi(2);
        let z = b.iadd(x, y);
        b.jmp(next);
        b.select(next);
        let w = b.imul(z, z);
        b.st_global(w, z);
        b.exit();
        let kernel = b.finish().unwrap();
        Arc::new(compile(&kernel, &cfg.region_config(gpu)).unwrap())
    }

    #[test]
    fn shard_table_names_the_shard_holding_each_warp() {
        let cfg = RegLessConfig::paper_default();
        for schedulers_per_sm in [1, 2, 4] {
            let gpu = GpuConfig {
                schedulers_per_sm,
                ..GpuConfig::test_small()
            };
            let backend = RegLessBackend::new(0, &gpu, &cfg, compiled_for(&gpu));
            assert_eq!(backend.shards.len(), schedulers_per_sm);
            for w in 0..gpu.warps_per_sm {
                let s = backend.shard_of(w);
                assert_ne!(
                    backend.shards[s].cm.warps() & warp_bit(w),
                    0,
                    "{schedulers_per_sm} schedulers: warp {w} is not in shard {s}"
                );
            }
        }
    }

    #[test]
    fn first_region_needs_no_preloads_and_activates() {
        let (gpu, compiled) = setup();
        let cfg = RegLessConfig::paper_default();
        let mut backend = RegLessBackend::new(0, &gpu, &cfg, Arc::clone(&compiled));
        let mut mem = MemSystem::new(&gpu);
        let mut stats = SmStats::default();
        let (warps, regions) = entry_warps(&gpu, &compiled);
        assert_eq!(
            backend.eligible(0b1, &regions),
            0,
            "inactive warp cannot issue"
        );
        // Cycle 0: admission; the entry region has no inputs, so within a
        // couple of cycles the warp activates.
        for now in 0..4 {
            let mut ctx = BackendCtx {
                sm: 0,
                now,
                mem: &mut mem,
                stats: &mut stats,
            };
            backend.begin_cycle_with_warps(view(&warps, &regions), &mut ctx);
        }
        assert_eq!(
            backend.eligible(0b1, &regions),
            0b1,
            "warp should be active"
        );
        assert!(stats.regions_activated >= 1);
    }

    #[test]
    fn writeback_allocates_an_osu_line_with_the_value() {
        let (gpu, compiled) = setup();
        let cfg = RegLessConfig::paper_default();
        let mut backend = RegLessBackend::new(0, &gpu, &cfg, Arc::clone(&compiled));
        let mut mem = MemSystem::new(&gpu);
        let mut stats = SmStats::default();
        let at = regless_isa::InsnRef {
            block: regless_isa::BlockId(0),
            idx: 0,
        };
        // Activate warp 0 first so the write lands in an active region.
        let (warps, regions) = entry_warps(&gpu, &compiled);
        for now in 0..4 {
            let mut ctx = BackendCtx {
                sm: 0,
                now,
                mem: &mut mem,
                stats: &mut stats,
            };
            backend.begin_cycle_with_warps(view(&warps, &regions), &mut ctx);
        }
        let mut ctx = BackendCtx {
            sm: 0,
            now: 5,
            mem: &mut mem,
            stats: &mut stats,
        };
        backend.on_writeback(0, at, Reg(0), LaneVec::splat(77), &mut ctx);
        assert_eq!(stats.osu_writes, 1);
        // The staged-operand oracle sees the value.
        backend.check_staged_operands(0, &[Reg(0)], &[LaneVec::splat(77)], &mut stats);
        assert_eq!(stats.staging_mismatches, 0);
        // A mismatching expectation is caught.
        backend.check_staged_operands(0, &[Reg(0)], &[LaneVec::splat(78)], &mut stats);
        assert_eq!(stats.staging_mismatches, 1);
    }

    #[test]
    fn quiesced_when_no_work_pending() {
        let (gpu, compiled) = setup();
        let cfg = RegLessConfig::paper_default();
        let backend = RegLessBackend::new(0, &gpu, &cfg, compiled);
        assert!(backend.quiesced());
    }
}
