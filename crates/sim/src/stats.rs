//! Event counters and time-series trackers.

use crate::config::Cycle;
use regless_isa::{Reg, WarpId};
use regless_telemetry::{EvictionStack, IssueStack, StallReason};
use std::collections::BTreeMap;

/// Length of the sampling window used by the paper's Figures 2 and 3.
pub const WINDOW_CYCLES: Cycle = 100;

/// Tracks the register working set per 100-cycle window (Figure 2): the
/// number of distinct `(warp, register)` operands touched in each window,
/// reported in kilobytes (128 bytes per register).
///
/// The current window is a flat warp-major bitmap (`regs_per_warp` bits
/// per warp) plus a count of set bits. The SM rolls the window once per
/// cycle, so recording an operand ([`WorkingSetTracker::touch`]) is a bit
/// test and set.
#[derive(Clone, Debug, Default)]
pub struct WorkingSetTracker {
    touched: Vec<u64>,
    warps: usize,
    regs_per_warp: usize,
    /// Set bits in `touched`: the current window's working set.
    current: usize,
    window_start: Cycle,
    samples: Vec<usize>,
}

impl WorkingSetTracker {
    /// New tracker starting at cycle 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// New tracker sized for `warps` × `regs_per_warp` operands, so
    /// recording never has to grow the bitmap.
    pub fn with_shape(warps: usize, regs_per_warp: usize) -> Self {
        WorkingSetTracker {
            touched: vec![0; (warps * regs_per_warp).div_ceil(64)],
            warps,
            regs_per_warp,
            ..Self::default()
        }
    }

    /// Record an operand access in the current window: the caller has
    /// already [rolled](WorkingSetTracker::roll) it to the access cycle.
    #[inline]
    pub fn touch(&mut self, warp: WarpId, reg: Reg) {
        let (w, r) = (warp.0 as usize, reg.index());
        if w >= self.warps || r >= self.regs_per_warp {
            self.grow(w + 1, r + 1);
        }
        let bit = w * self.regs_per_warp + r;
        let word = &mut self.touched[bit / 64];
        let mask = 1u64 << (bit % 64);
        if *word & mask == 0 {
            *word |= mask;
            self.current += 1;
        }
    }

    /// Re-lay the bitmap out for at least `warps` × `regs` operands,
    /// keeping the current window's bits.
    #[cold]
    fn grow(&mut self, warps: usize, regs: usize) {
        let mut grown = Self::with_shape(warps.max(self.warps), regs.max(self.regs_per_warp));
        for w in 0..self.warps {
            for r in 0..self.regs_per_warp {
                let bit = w * self.regs_per_warp + r;
                if self.touched[bit / 64] & (1 << (bit % 64)) != 0 {
                    let to = w * grown.regs_per_warp + r;
                    grown.touched[to / 64] |= 1 << (to % 64);
                }
            }
        }
        self.touched = grown.touched;
        self.warps = grown.warps;
        self.regs_per_warp = grown.regs_per_warp;
    }

    /// Advance the window if `now` has moved past it.
    pub fn roll(&mut self, now: Cycle) {
        while now >= self.window_start + WINDOW_CYCLES {
            self.samples.push(self.current);
            if self.current > 0 {
                self.touched.fill(0);
                self.current = 0;
            }
            self.window_start += WINDOW_CYCLES;
        }
    }

    /// Mean working set over all complete windows, in KB.
    pub fn mean_kb(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let regs: usize = self.samples.iter().sum();
        (regs as f64 * 128.0 / 1024.0) / self.samples.len() as f64
    }

    /// Working-set samples (register count per window).
    pub fn samples(&self) -> &[usize] {
        &self.samples
    }
}

/// Accumulates a per-window count time series (Figure 3's backing-store
/// accesses per 100 cycles).
#[derive(Clone, Debug, Default)]
pub struct WindowSeries {
    current: u64,
    window_start: Cycle,
    samples: Vec<u64>,
}

impl WindowSeries {
    /// New series starting at cycle 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` events at `now`.
    pub fn record(&mut self, now: Cycle, n: u64) {
        self.roll(now);
        self.current += n;
    }

    /// Advance the window if `now` has moved past it.
    pub fn roll(&mut self, now: Cycle) {
        while now >= self.window_start + WINDOW_CYCLES {
            self.samples.push(self.current);
            self.current = 0;
            self.window_start += WINDOW_CYCLES;
        }
    }

    /// Completed window samples.
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }

    /// Mean events per window.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<u64>() as f64 / self.samples.len() as f64
    }
}

/// Where a RegLess preload was satisfied from (Figure 17's categories).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PreloadSource {
    /// The register was still resident in the OSU.
    Osu,
    /// The compressor reproduced the value from a compressed line.
    Compressor,
    /// Fetched from the L1 data cache.
    L1,
    /// Fetched from L2 or DRAM.
    L2OrDram,
}

/// Counters produced by one SM's execution. Baseline runs leave the
/// RegLess-specific counters at zero; the RegLess backend fills them in.
#[derive(Clone, Debug, Default)]
pub struct SmStats {
    /// Cycles this SM ran.
    pub cycles: Cycle,
    /// Real (non-metadata) instructions issued.
    pub insns: u64,
    /// Metadata instructions issued (RegLess only).
    pub meta_insns: u64,
    /// Issue *slots* (not cycles) in which no warp issued. Each scheduler
    /// contributes `issue_slots_per_scheduler` slots per cycle, so this can
    /// legitimately exceed `cycles` on wide configurations; it always equals
    /// `cycles × schedulers × slots − issue_stack.get(Issued)`.
    pub idle_slots: u64,

    /// Baseline register-file reads (per 128-byte operand). For the RFH
    /// baseline these are main-register-file (MRF) accesses; for RFV they
    /// are accesses to the half-size renamed RF.
    pub rf_reads: u64,
    /// Baseline register-file writes.
    pub rf_writes: u64,
    /// RFH last-result-file reads.
    pub lrf_reads: u64,
    /// RFH last-result-file writes.
    pub lrf_writes: u64,
    /// RFH register-file-cache reads.
    pub rfc_reads: u64,
    /// RFH register-file-cache writes.
    pub rfc_writes: u64,
    /// RFV rename-table lookups.
    pub rename_lookups: u64,
    /// RFV cycles in which warps were throttled for physical registers.
    pub rfv_throttled_warp_cycles: u64,
    /// RegDem stores of cold registers into the shared-memory scratch
    /// partition (one per cold destination writeback).
    pub spill_stores: u64,
    /// RegDem fills of cold registers from the shared-memory scratch
    /// partition (one per cold source operand read).
    pub spill_fills: u64,
    /// RegDem warp-cycles throttled for shared-memory scratch capacity.
    pub spill_throttled_warp_cycles: u64,
    /// Compressed-RF warp-cycles throttled for physical-entry capacity.
    pub comprf_throttled_warp_cycles: u64,
    /// Extra operand-collector cycles from baseline RF bank conflicts.
    pub rf_bank_conflicts: u64,

    /// OSU data-array reads.
    pub osu_reads: u64,
    /// OSU data-array writes.
    pub osu_writes: u64,
    /// OSU tag probes (reads, preload checks).
    pub osu_tag_probes: u64,
    /// Extra cycles lost to OSU bank conflicts.
    pub osu_bank_conflicts: u64,

    /// Preloads by satisfying source.
    pub preloads_osu: u64,
    /// Preloads satisfied by the compressor.
    pub preloads_compressor: u64,
    /// Preloads that fetched from L1.
    pub preloads_l1: u64,
    /// Preloads that went to L2 or DRAM.
    pub preloads_l2_dram: u64,
    /// Dirty-register stores to the L1.
    pub reg_stores_l1: u64,
    /// Cache-invalidation requests sent to the L1.
    pub reg_invalidate_l1: u64,
    /// Compressor pattern-match attempts.
    pub compressor_matches: u64,
    /// Registers successfully compressed on eviction.
    pub compressor_compressed: u64,
    /// Regions activated.
    pub regions_activated: u64,
    /// Total cycles warps spent with an active region (activation to drain
    /// completion); `/ regions_activated` gives Table 2's cycles-per-region.
    pub region_active_cycles: u64,
    /// OSU line allocations that exceeded a region's reservation
    /// (model safety valve; should stay tiny).
    pub reservation_overflows: u64,
    /// Staged operand values that disagreed with the architectural register
    /// state at issue — any nonzero count is a staging-path value bug.
    pub staging_mismatches: u64,

    /// Total OSU eviction events counted *mechanically inside the OSU*
    /// (published by the backend at run end). The per-cause
    /// [`eviction_stack`](Self::eviction_stack) must sum to exactly this —
    /// the conservation law that proves the backend's cause classification
    /// covers every eviction site.
    pub osu_lines_evicted: u64,
    /// Spilled lines the compressor matched as a constant pattern.
    pub comp_constant: u64,
    /// Spilled lines matched as stride-1.
    pub comp_stride1: u64,
    /// Spilled lines matched as stride-4.
    pub comp_stride4: u64,
    /// Spilled lines matched as half-width stride-1.
    pub comp_half_stride1: u64,
    /// Spilled lines matched as half-width stride-4.
    pub comp_half_stride4: u64,
    /// Spilled lines no pattern matched (stored uncompressed).
    pub comp_incompressible: u64,
    /// Bytes presented to the compressor (128 per spilled line).
    pub comp_bytes_in: u64,
    /// Bytes the compressor produced (pattern payload, or the full line
    /// when incompressible); `comp_bytes_out / comp_bytes_in` is the
    /// staging-traffic compression ratio.
    pub comp_bytes_out: u64,

    /// Per-cycle issue-slot attribution (the SM's CPI stack): every issue
    /// slot of every cycle is charged to exactly one [`StallReason`], so
    /// `issue_stack.total() == cycles × issue slots` — a conservation law
    /// the tier-1 tests enforce. Always on (it is a handful of array
    /// increments), independent of whether a telemetry recorder is
    /// attached.
    pub issue_stack: IssueStack,
    /// Per-warp CPI stacks (SM-local warp index). [`StallReason::NoWarp`]
    /// slots have no warp to blame, so they are charged to the SM stack
    /// only; for every other reason the per-warp stacks sum to the SM
    /// stack.
    pub warp_stacks: Vec<IssueStack>,
    /// Per-region CPI stacks keyed by region id, for hotspot tables. Like
    /// the warp stacks, `NoWarp` slots carry no region. Filled once, at
    /// run end, from the SM's region-indexed accumulator; only regions
    /// that were charged at least one slot appear.
    pub region_stacks: BTreeMap<u32, IssueStack>,

    /// Optional telemetry recorder (off by default; see
    /// [`crate::Machine::attach_telemetry`]). When absent, every
    /// instrumentation site reduces to one `Option` check.
    pub recorder: Option<Box<regless_telemetry::MemoryRecorder>>,
    /// Register working set per window (Figure 2).
    pub working_set: WorkingSetTracker,
    /// Backing-store accesses per window (Figure 3): baseline RF accesses,
    /// RFH main-RF accesses, or RegLess L1 register traffic.
    pub backing_series: WindowSeries,
    /// Active OSU lines sampled once per window (occupancy over time).
    pub osu_occupancy: WindowSeries,
    /// Per-cause OSU eviction counts (capacity preemption, compressor
    /// spill, region drain, dead-value reclaim). Always on, like the CPI
    /// stack: a handful of array increments per eviction.
    pub eviction_stack: EvictionStack,
    /// CM-reserved (committed) OSU lines sampled once per window.
    pub osu_reserved_series: WindowSeries,
    /// Free (unallocated) OSU lines sampled once per window.
    pub osu_free_series: WindowSeries,
    /// CM admission-queue depth (stacked warps) sampled once per window.
    pub cm_queue_series: WindowSeries,
}

impl SmStats {
    /// Total preloads processed.
    pub fn preloads_total(&self) -> u64 {
        self.preloads_osu + self.preloads_compressor + self.preloads_l1 + self.preloads_l2_dram
    }

    /// Total L1 requests made on behalf of register traffic.
    pub fn reg_l1_requests(&self) -> u64 {
        self.preloads_l1 + self.preloads_l2_dram + self.reg_stores_l1 + self.reg_invalidate_l1
    }

    /// Whether a telemetry recorder is attached; callers doing non-trivial
    /// work to *construct* event data should check first.
    #[inline]
    pub fn telemetry_enabled(&self) -> bool {
        self.recorder.is_some()
    }

    /// Record one structured event if telemetry is enabled.
    ///
    /// This and the other telemetry gates are `#[inline]`, so with no
    /// recorder a call site costs one branch and builds no event; the
    /// recording itself (`trace::emit`, the recorder's methods)
    /// stays out of line.
    #[inline]
    pub fn trace_event(&mut self, cycle: crate::config::Cycle, event: crate::trace::TraceEvent) {
        if let Some(r) = &mut self.recorder {
            crate::trace::emit(r, cycle, &event);
        }
    }

    /// Record a value into a named telemetry histogram if enabled.
    #[inline]
    pub fn observe(&mut self, hist: &'static str, value: u64) {
        if let Some(r) = &mut self.recorder {
            r.observe(hist, value);
        }
    }

    /// Append a point to a named telemetry time series if enabled.
    #[inline]
    pub fn sample(&mut self, series: &'static str, ts: crate::config::Cycle, value: f64) {
        if let Some(r) = &mut self.recorder {
            r.sample(series, ts, value);
        }
    }

    /// Charge `n` issue slots to `reason`, attributed to `warp` (SM-local
    /// index) when the slots have a culprit (everything except
    /// [`StallReason::NoWarp`]). The event-driven fast path charges a
    /// whole skipped span this way; the conservation law (`Σ reasons ==
    /// cycles × issue slots`) holds because it charges exactly `span ×
    /// slots`. Per-region stacks are kept by the SM and published into
    /// [`region_stacks`](Self::region_stacks) when the run ends.
    pub fn charge_slots(&mut self, reason: StallReason, warp: Option<usize>, n: u64) {
        if n == 0 {
            return;
        }
        self.issue_stack.charge_n(reason, n);
        if let Some(w) = warp {
            if self.warp_stacks.len() <= w {
                self.warp_stacks.resize(w + 1, IssueStack::new());
            }
            self.warp_stacks[w].charge_n(reason, n);
        }
    }

    /// Record a preload outcome.
    pub fn record_preload(&mut self, source: PreloadSource) {
        match source {
            PreloadSource::Osu => self.preloads_osu += 1,
            PreloadSource::Compressor => self.preloads_compressor += 1,
            PreloadSource::L1 => self.preloads_l1 += 1,
            PreloadSource::L2OrDram => self.preloads_l2_dram += 1,
        }
    }

    /// Merge another SM's counters into this one (for whole-GPU totals).
    pub fn merge(&mut self, other: &SmStats) {
        self.cycles = self.cycles.max(other.cycles);
        self.insns += other.insns;
        self.meta_insns += other.meta_insns;
        self.idle_slots += other.idle_slots;
        self.rf_reads += other.rf_reads;
        self.rf_writes += other.rf_writes;
        self.lrf_reads += other.lrf_reads;
        self.lrf_writes += other.lrf_writes;
        self.rfc_reads += other.rfc_reads;
        self.rfc_writes += other.rfc_writes;
        self.rename_lookups += other.rename_lookups;
        self.rfv_throttled_warp_cycles += other.rfv_throttled_warp_cycles;
        self.spill_stores += other.spill_stores;
        self.spill_fills += other.spill_fills;
        self.spill_throttled_warp_cycles += other.spill_throttled_warp_cycles;
        self.comprf_throttled_warp_cycles += other.comprf_throttled_warp_cycles;
        self.rf_bank_conflicts += other.rf_bank_conflicts;
        self.osu_reads += other.osu_reads;
        self.osu_writes += other.osu_writes;
        self.osu_tag_probes += other.osu_tag_probes;
        self.osu_bank_conflicts += other.osu_bank_conflicts;
        self.preloads_osu += other.preloads_osu;
        self.preloads_compressor += other.preloads_compressor;
        self.preloads_l1 += other.preloads_l1;
        self.preloads_l2_dram += other.preloads_l2_dram;
        self.reg_stores_l1 += other.reg_stores_l1;
        self.reg_invalidate_l1 += other.reg_invalidate_l1;
        self.compressor_matches += other.compressor_matches;
        self.compressor_compressed += other.compressor_compressed;
        self.regions_activated += other.regions_activated;
        self.region_active_cycles += other.region_active_cycles;
        self.reservation_overflows += other.reservation_overflows;
        self.staging_mismatches += other.staging_mismatches;
        self.osu_lines_evicted += other.osu_lines_evicted;
        self.comp_constant += other.comp_constant;
        self.comp_stride1 += other.comp_stride1;
        self.comp_stride4 += other.comp_stride4;
        self.comp_half_stride1 += other.comp_half_stride1;
        self.comp_half_stride4 += other.comp_half_stride4;
        self.comp_incompressible += other.comp_incompressible;
        self.comp_bytes_in += other.comp_bytes_in;
        self.comp_bytes_out += other.comp_bytes_out;
        self.eviction_stack.merge(&other.eviction_stack);
        self.issue_stack.merge(&other.issue_stack);
        if self.warp_stacks.len() < other.warp_stacks.len() {
            self.warp_stacks
                .resize(other.warp_stacks.len(), IssueStack::new());
        }
        for (mine, theirs) in self.warp_stacks.iter_mut().zip(other.warp_stacks.iter()) {
            mine.merge(theirs);
        }
        for (&region, stack) in &other.region_stacks {
            self.region_stacks.entry(region).or_default().merge(stack);
        }
    }
}

// JSON conversions for the sweep-engine result cache (`results/cache/`).
// The trackers persist only their completed-window samples: the partially
// filled current window is discarded by the mean/sample accessors anyway,
// so a cached report reproduces every derived statistic exactly.

impl regless_json::ToJson for WorkingSetTracker {
    fn to_json(&self) -> regless_json::Json {
        regless_json::Json::Obj(vec![
            (
                "window_start".into(),
                regless_json::ToJson::to_json(&self.window_start),
            ),
            (
                "samples".into(),
                regless_json::ToJson::to_json(&self.samples),
            ),
        ])
    }
}

impl regless_json::FromJson for WorkingSetTracker {
    fn from_json(v: &regless_json::Json) -> Result<Self, regless_json::JsonError> {
        Ok(WorkingSetTracker {
            window_start: regless_json::FromJson::from_json(v.field("window_start")?)?,
            samples: regless_json::FromJson::from_json(v.field("samples")?)?,
            ..WorkingSetTracker::default()
        })
    }
}

impl regless_json::ToJson for WindowSeries {
    fn to_json(&self) -> regless_json::Json {
        regless_json::Json::Obj(vec![
            (
                "window_start".into(),
                regless_json::ToJson::to_json(&self.window_start),
            ),
            (
                "samples".into(),
                regless_json::ToJson::to_json(&self.samples),
            ),
        ])
    }
}

impl regless_json::FromJson for WindowSeries {
    fn from_json(v: &regless_json::Json) -> Result<Self, regless_json::JsonError> {
        Ok(WindowSeries {
            current: 0,
            window_start: regless_json::FromJson::from_json(v.field("window_start")?)?,
            samples: regless_json::FromJson::from_json(v.field("samples")?)?,
        })
    }
}

/// Applies a macro to every plain counter field of [`SmStats`] (everything
/// except the trace handle and the window trackers, which have their own
/// serializers). Keep in sync with the struct definition.
macro_rules! for_each_sm_counter {
    ($m:ident) => {
        $m!(
            cycles,
            insns,
            meta_insns,
            idle_slots,
            rf_reads,
            rf_writes,
            lrf_reads,
            lrf_writes,
            rfc_reads,
            rfc_writes,
            rename_lookups,
            rfv_throttled_warp_cycles,
            spill_stores,
            spill_fills,
            spill_throttled_warp_cycles,
            comprf_throttled_warp_cycles,
            rf_bank_conflicts,
            osu_reads,
            osu_writes,
            osu_tag_probes,
            osu_bank_conflicts,
            preloads_osu,
            preloads_compressor,
            preloads_l1,
            preloads_l2_dram,
            reg_stores_l1,
            reg_invalidate_l1,
            compressor_matches,
            compressor_compressed,
            regions_activated,
            region_active_cycles,
            reservation_overflows,
            staging_mismatches,
            osu_lines_evicted,
            comp_constant,
            comp_stride1,
            comp_stride4,
            comp_half_stride1,
            comp_half_stride4,
            comp_incompressible,
            comp_bytes_in,
            comp_bytes_out
        )
    };
}

impl regless_json::ToJson for SmStats {
    fn to_json(&self) -> regless_json::Json {
        let mut pairs: Vec<(String, regless_json::Json)> = Vec::new();
        macro_rules! put {
            ($($f:ident),+) => {
                $(pairs.push((stringify!($f).to_string(), regless_json::ToJson::to_json(&self.$f)));)+
            };
        }
        for_each_sm_counter!(put);
        // The optional telemetry recorder is a debugging aid, not a
        // result; it is never persisted.
        pairs.push((
            "issue_stack".into(),
            regless_json::ToJson::to_json(&self.issue_stack),
        ));
        pairs.push((
            "warp_stacks".into(),
            regless_json::ToJson::to_json(&self.warp_stacks),
        ));
        // The region map serializes as sorted `[region, stack]` pairs so
        // the cached layout is deterministic.
        pairs.push((
            "region_stacks".into(),
            regless_json::Json::Arr(
                self.region_stacks
                    .iter()
                    .map(|(&region, stack)| {
                        regless_json::Json::Arr(vec![
                            regless_json::ToJson::to_json(&region),
                            regless_json::ToJson::to_json(stack),
                        ])
                    })
                    .collect(),
            ),
        ));
        pairs.push((
            "working_set".into(),
            regless_json::ToJson::to_json(&self.working_set),
        ));
        pairs.push((
            "backing_series".into(),
            regless_json::ToJson::to_json(&self.backing_series),
        ));
        pairs.push((
            "osu_occupancy".into(),
            regless_json::ToJson::to_json(&self.osu_occupancy),
        ));
        pairs.push((
            "eviction_stack".into(),
            regless_json::ToJson::to_json(&self.eviction_stack),
        ));
        pairs.push((
            "osu_reserved_series".into(),
            regless_json::ToJson::to_json(&self.osu_reserved_series),
        ));
        pairs.push((
            "osu_free_series".into(),
            regless_json::ToJson::to_json(&self.osu_free_series),
        ));
        pairs.push((
            "cm_queue_series".into(),
            regless_json::ToJson::to_json(&self.cm_queue_series),
        ));
        regless_json::Json::Obj(pairs)
    }
}

impl regless_json::FromJson for SmStats {
    fn from_json(v: &regless_json::Json) -> Result<Self, regless_json::JsonError> {
        let mut stats = SmStats::default();
        macro_rules! get {
            ($($f:ident),+) => {
                $(stats.$f = regless_json::FromJson::from_json(v.field(stringify!($f))?)?;)+
            };
        }
        for_each_sm_counter!(get);
        stats.issue_stack = regless_json::FromJson::from_json(v.field("issue_stack")?)?;
        stats.warp_stacks = regless_json::FromJson::from_json(v.field("warp_stacks")?)?;
        match v.field("region_stacks")? {
            regless_json::Json::Arr(pairs) => {
                for pair in pairs {
                    let regless_json::Json::Arr(kv) = pair else {
                        return Err(regless_json::JsonError::new(
                            "region_stacks entries must be [region, stack] pairs",
                        ));
                    };
                    if kv.len() != 2 {
                        return Err(regless_json::JsonError::new(
                            "region_stacks entries must be [region, stack] pairs",
                        ));
                    }
                    let region: u32 = regless_json::FromJson::from_json(&kv[0])?;
                    let stack: IssueStack = regless_json::FromJson::from_json(&kv[1])?;
                    stats.region_stacks.insert(region, stack);
                }
            }
            other => {
                return Err(regless_json::JsonError::new(format!(
                    "region_stacks must be an array, got {}",
                    other.kind()
                )))
            }
        }
        stats.working_set = regless_json::FromJson::from_json(v.field("working_set")?)?;
        stats.backing_series = regless_json::FromJson::from_json(v.field("backing_series")?)?;
        stats.osu_occupancy = regless_json::FromJson::from_json(v.field("osu_occupancy")?)?;
        stats.eviction_stack = regless_json::FromJson::from_json(v.field("eviction_stack")?)?;
        stats.osu_reserved_series =
            regless_json::FromJson::from_json(v.field("osu_reserved_series")?)?;
        stats.osu_free_series = regless_json::FromJson::from_json(v.field("osu_free_series")?)?;
        stats.cm_queue_series = regless_json::FromJson::from_json(v.field("cm_queue_series")?)?;
        Ok(stats)
    }
}

/// Memory-hierarchy counters (shared across SMs).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MemStats {
    /// L1 accesses for ordinary data.
    pub l1_data_accesses: u64,
    /// L1 accesses for register traffic (RegLess).
    pub l1_reg_accesses: u64,
    /// L1 hits (all kinds).
    pub l1_hits: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// L2 accesses.
    pub l2_accesses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// DRAM accesses.
    pub dram_accesses: u64,
    /// L2 accesses caused by register traffic only.
    pub l2_reg_accesses: u64,
}

regless_json::impl_json_struct!(MemStats {
    l1_data_accesses,
    l1_reg_accesses,
    l1_hits,
    l1_misses,
    l2_accesses,
    l2_hits,
    dram_accesses,
    l2_reg_accesses,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn working_set_windows() {
        let mut t = WorkingSetTracker::new();
        t.roll(10);
        t.touch(WarpId(0), Reg(0));
        t.touch(WarpId(0), Reg(0)); // duplicate in window
        t.roll(30);
        t.touch(WarpId(1), Reg(0));
        t.roll(250); // complete two windows
        assert_eq!(t.samples(), &[2, 0]);
        // 2 regs in one window, 0 in the next: mean = 1 reg = 0.125 KB
        assert!((t.mean_kb() - 0.125).abs() < 1e-9);
    }

    #[test]
    fn window_series_accumulates() {
        let mut s = WindowSeries::new();
        s.record(0, 5);
        s.record(99, 3);
        s.record(100, 7);
        s.roll(300);
        assert_eq!(s.samples(), &[8, 7, 0]);
        assert!((s.mean() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn preload_sources_counted() {
        let mut s = SmStats::default();
        s.record_preload(PreloadSource::Osu);
        s.record_preload(PreloadSource::Osu);
        s.record_preload(PreloadSource::L1);
        assert_eq!(s.preloads_total(), 3);
        assert_eq!(s.preloads_osu, 2);
        assert_eq!(s.reg_l1_requests(), 1);
    }

    #[test]
    fn merge_sums_and_maxes() {
        let mut a = SmStats {
            cycles: 10,
            insns: 5,
            ..Default::default()
        };
        let b = SmStats {
            cycles: 20,
            insns: 7,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.cycles, 20);
        assert_eq!(a.insns, 12);
    }
}
