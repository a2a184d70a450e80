//! The operand staging unit (paper §5.2).
//!
//! Each scheduler shard owns one OSU of [`NUM_BANKS`] banks. A bank holds
//! 128-byte lines, each staging one (warp, register) value, with a tag
//! store and three allocation lists: **free** (empty), **clean** (evictable,
//! unchanged since last read from memory), and **dirty** (evictable,
//! modified). Allocation takes free lines first, then clean (dropped
//! silently — memory still has the value), then dirty (which must be
//! spilled through the compressor/L1).

use regless_compiler::NUM_BANKS;
use regless_isa::{LaneVec, Reg};

/// Lifecycle state of one OSU line.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum LineState {
    Free,
    /// Held by an active or preloading region; not evictable.
    Active,
    /// Not referenced by any active region; reusable.
    Evictable,
}

#[derive(Clone, Copy, Debug)]
struct Line {
    warp: usize,
    reg: Reg,
    value: LaneVec,
    state: LineState,
    dirty: bool,
    /// Sequence number of the release that made this line evictable; the
    /// clean and dirty lists are FIFO queues (paper Figure 10), so victims
    /// are the *oldest* released lines — recently drained registers stay
    /// staged for their warp's next region.
    released_seq: u64,
}

impl Line {
    fn free() -> Self {
        Line {
            warp: 0,
            reg: Reg(0),
            value: LaneVec::zero(),
            state: LineState::Free,
            dirty: false,
            released_seq: 0,
        }
    }
}

/// A dirty line displaced by an allocation; the caller must spill it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvictedLine {
    /// Owning warp (SM-local index).
    pub warp: usize,
    /// Architectural register.
    pub reg: Reg,
    /// The value to spill.
    pub value: LaneVec,
}

/// The bank a (warp, register) pair maps to: the low bits of their sum
/// (paper §5.2). The warp offset rotates the compiler's per-bank usage
/// vector without changing its shape.
#[inline]
pub fn runtime_bank(warp: usize, reg: Reg) -> usize {
    (warp + reg.index()) % NUM_BANKS
}

#[derive(Clone, Debug)]
struct Bank {
    lines: Vec<Line>,
}

impl Bank {
    fn new(lines: usize) -> Self {
        Bank {
            lines: vec![Line::free(); lines],
        }
    }

    fn find_victim(&self) -> Option<(usize, bool)> {
        // free → oldest clean → oldest dirty.
        if let Some(i) = self.lines.iter().position(|l| l.state == LineState::Free) {
            return Some((i, false));
        }
        let oldest = |dirty: bool| {
            self.lines
                .iter()
                .enumerate()
                .filter(|(_, l)| l.state == LineState::Evictable && l.dirty == dirty)
                .min_by_key(|(_, l)| l.released_seq)
                .map(|(i, _)| i)
        };
        if let Some(i) = oldest(false) {
            return Some((i, false));
        }
        oldest(true).map(|i| (i, true))
    }
}

/// Marks a `(warp, register)` with no resident line in [`Osu`]'s tag table.
const NO_LINE: u32 = u32::MAX;

/// One shard's operand staging unit.
///
/// ```
/// use regless_core::Osu;
/// use regless_isa::{LaneVec, Reg};
///
/// let mut osu = Osu::new(16, 64);
/// osu.write(0, Reg(3), LaneVec::splat(7));        // active line
/// assert_eq!(osu.read(0, Reg(3)), Some(LaneVec::splat(7)));
/// osu.release(0, Reg(3));                          // evictable (dirty)
/// assert!(osu.promote(0, Reg(3)), "preload hit re-activates it");
/// osu.erase(0, Reg(3));                            // dead: line freed
/// assert!(!osu.contains(0, Reg(3)));
/// ```
#[derive(Clone, Debug)]
pub struct Osu {
    banks: Vec<Bank>,
    /// The tag store: the line index (within its bank, which the pair
    /// determines) of every resident `(warp, register)`, laid out
    /// register-major (`reg * warps + warp`) and grown as higher registers
    /// appear; [`NO_LINE`] when not resident.
    tags: Vec<u32>,
    warps: usize,
    lines_per_bank: usize,
    release_seq: u64,
    lines_evicted: u64,
}

/// Outcome of installing a value (write or preload fill).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InstallResult {
    /// Whether a fresh line had to be allocated (vs. updating in place).
    pub allocated: bool,
    /// A displaced dirty line that must be spilled, if any.
    pub spilled: Option<EvictedLine>,
    /// A resident *clean* evictable victim was dropped (no spill needed —
    /// the memory hierarchy still holds its value): the victim's
    /// `(warp, reg)`, so the caller can attribute the eviction to capacity
    /// preemption and trace the displaced line.
    pub dropped_clean: Option<(usize, Reg)>,
    /// The allocation failed: every line in the bank is active. The caller
    /// counts this against the reservation model (it should not happen when
    /// budgets are respected).
    pub failed: bool,
}

impl Osu {
    /// An OSU with `lines_per_bank` lines in each of its banks, staging
    /// registers of SM-local warps `0..warps`.
    ///
    /// # Panics
    ///
    /// Panics if `lines_per_bank` is zero.
    pub fn new(lines_per_bank: usize, warps: usize) -> Self {
        assert!(lines_per_bank > 0, "OSU banks need at least one line");
        Osu {
            banks: (0..NUM_BANKS).map(|_| Bank::new(lines_per_bank)).collect(),
            tags: Vec::new(),
            warps,
            lines_per_bank,
            release_seq: 0,
            lines_evicted: 0,
        }
    }

    /// Lines per bank.
    pub fn lines_per_bank(&self) -> usize {
        self.lines_per_bank
    }

    /// Total line capacity.
    pub fn capacity(&self) -> usize {
        self.lines_per_bank * NUM_BANKS
    }

    /// Monotone count of eviction events the OSU itself observed: region
    /// releases (active → evictable), erases of resident lines, and
    /// resident victims displaced by an allocation. The backend attributes
    /// each of these to one `EvictionReason` cause;
    /// the per-cause counts must sum back to this number (a conservation
    /// law the tier-1 tests enforce).
    pub fn lines_evicted(&self) -> u64 {
        self.lines_evicted
    }

    fn tag_slot(&self, warp: usize, reg: Reg) -> usize {
        assert!(
            warp < self.warps,
            "warp {warp} outside the OSU's {} warps",
            self.warps
        );
        reg.index() * self.warps + warp
    }

    /// The resident line index of a register within its bank.
    fn tag(&self, warp: usize, reg: Reg) -> Option<usize> {
        match self.tags.get(self.tag_slot(warp, reg)) {
            Some(&i) if i != NO_LINE => Some(i as usize),
            _ => None,
        }
    }

    fn set_tag(&mut self, warp: usize, reg: Reg, line: u32) {
        let slot = self.tag_slot(warp, reg);
        if slot >= self.tags.len() {
            self.tags.resize((reg.index() + 1) * self.warps, NO_LINE);
        }
        self.tags[slot] = line;
    }

    /// Drop a register's tag; returns the line it held.
    fn take_tag(&mut self, warp: usize, reg: Reg) -> Option<usize> {
        let line = self.tag(warp, reg)?;
        let slot = self.tag_slot(warp, reg);
        self.tags[slot] = NO_LINE;
        Some(line)
    }

    /// Whether the register is resident (any state but free).
    pub fn contains(&self, warp: usize, reg: Reg) -> bool {
        self.tag(warp, reg).is_some()
    }

    /// Read a staged value (does not change state).
    pub fn read(&self, warp: usize, reg: Reg) -> Option<LaneVec> {
        let b = runtime_bank(warp, reg);
        self.tag(warp, reg).map(|i| self.banks[b].lines[i].value)
    }

    /// Write a value from an executing region: updates in place or
    /// allocates a new **active** line; the line becomes dirty.
    pub fn write(&mut self, warp: usize, reg: Reg, value: LaneVec) -> InstallResult {
        self.install(warp, reg, value, true)
    }

    /// Install a preloaded value: allocates an **active** line marked clean
    /// (the memory hierarchy holds the same value).
    pub fn fill(&mut self, warp: usize, reg: Reg, value: LaneVec) -> InstallResult {
        self.install(warp, reg, value, false)
    }

    fn install(&mut self, warp: usize, reg: Reg, value: LaneVec, dirty: bool) -> InstallResult {
        let b = runtime_bank(warp, reg);
        if let Some(i) = self.tag(warp, reg) {
            let line = &mut self.banks[b].lines[i];
            line.value = value;
            line.dirty |= dirty;
            line.state = LineState::Active;
            return InstallResult {
                allocated: false,
                spilled: None,
                dropped_clean: None,
                failed: false,
            };
        }
        let Some((victim, victim_dirty)) = self.banks[b].find_victim() else {
            return InstallResult {
                allocated: false,
                spilled: None,
                dropped_clean: None,
                failed: true,
            };
        };
        let old = self.banks[b].lines[victim];
        let spilled = victim_dirty.then_some(EvictedLine {
            warp: old.warp,
            reg: old.reg,
            value: old.value,
        });
        let mut dropped_clean = None;
        if old.state != LineState::Free {
            self.take_tag(old.warp, old.reg);
            if !victim_dirty {
                dropped_clean = Some((old.warp, old.reg));
            }
            self.lines_evicted += 1;
        }
        self.banks[b].lines[victim] = Line {
            warp,
            reg,
            value,
            state: LineState::Active,
            dirty,
            released_seq: 0,
        };
        self.set_tag(warp, reg, victim as u32);
        InstallResult {
            allocated: true,
            spilled,
            dropped_clean,
            failed: false,
        }
    }

    /// Promote a resident (evictable) line back to active for a preload
    /// hit. Returns `false` if the register is not resident.
    pub fn promote(&mut self, warp: usize, reg: Reg) -> bool {
        let b = runtime_bank(warp, reg);
        match self.tag(warp, reg) {
            Some(i) => {
                self.banks[b].lines[i].state = LineState::Active;
                true
            }
            None => false,
        }
    }

    /// Free a line outright (erase annotation / invalidating read).
    /// Returns whether a resident line was actually reclaimed.
    pub fn erase(&mut self, warp: usize, reg: Reg) -> bool {
        let b = runtime_bank(warp, reg);
        if let Some(i) = self.take_tag(warp, reg) {
            self.banks[b].lines[i] = Line::free();
            self.lines_evicted += 1;
            true
        } else {
            false
        }
    }

    /// Make a line evictable (region released it); keeps the dirty bit.
    /// Returns whether an *active* line actually transitioned (re-releasing
    /// an already-evictable line is a no-op for eviction accounting).
    pub fn release(&mut self, warp: usize, reg: Reg) -> bool {
        self.release_seq += 1;
        let seq = self.release_seq;
        let b = runtime_bank(warp, reg);
        if let Some(i) = self.tag(warp, reg) {
            let line = &mut self.banks[b].lines[i];
            let transitioned = line.state == LineState::Active;
            line.state = LineState::Evictable;
            line.released_seq = seq;
            if transitioned {
                self.lines_evicted += 1;
            }
            transitioned
        } else {
            false
        }
    }

    /// Release every active line of a warp (drain completion); returns how
    /// many lines were released.
    pub fn release_warp(&mut self, warp: usize) -> usize {
        let mut released = 0;
        self.release_warp_except(warp, |_| false, |_| released += 1);
        released
    }

    /// Release a warp's active lines except those for which `keep` returns
    /// true (lines with writebacks still in flight stay allocated during a
    /// drain), handing each released register to `on_release` in bank,
    /// then line, order.
    pub fn release_warp_except(
        &mut self,
        warp: usize,
        keep: impl Fn(Reg) -> bool,
        mut on_release: impl FnMut(Reg),
    ) {
        self.release_seq += 1;
        let seq = self.release_seq;
        for bank in &mut self.banks {
            for line in &mut bank.lines {
                if line.state == LineState::Active && line.warp == warp && !keep(line.reg) {
                    line.state = LineState::Evictable;
                    line.released_seq = seq;
                    self.lines_evicted += 1;
                    on_release(line.reg);
                }
            }
        }
    }

    /// Number of non-active (allocatable) lines in a bank.
    pub fn allocatable(&self, bank: usize) -> usize {
        self.banks[bank]
            .lines
            .iter()
            .filter(|l| l.state != LineState::Active)
            .count()
    }

    /// Per-bank line-state census: `(active, evictable, free)` counts.
    /// The three always sum to [`Osu::lines_per_bank`].
    pub fn bank_states(&self, bank: usize) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for line in &self.banks[bank].lines {
            match line.state {
                LineState::Active => counts.0 += 1,
                LineState::Evictable => counts.1 += 1,
                LineState::Free => counts.2 += 1,
            }
        }
        counts
    }

    /// Number of lines with a free (unallocated) state across the OSU.
    pub fn free_lines(&self) -> usize {
        self.banks
            .iter()
            .flat_map(|b| &b.lines)
            .filter(|l| l.state == LineState::Free)
            .count()
    }

    /// Number of active lines across the OSU (for tests/diagnostics).
    pub fn active_lines(&self) -> usize {
        self.banks
            .iter()
            .flat_map(|b| &b.lines)
            .filter(|l| l.state == LineState::Active)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read() {
        let mut osu = Osu::new(4, 32);
        let r = osu.write(0, Reg(3), LaneVec::splat(7));
        assert!(r.allocated && r.spilled.is_none() && !r.failed);
        assert_eq!(osu.read(0, Reg(3)), Some(LaneVec::splat(7)));
        assert_eq!(osu.active_lines(), 1);
    }

    #[test]
    fn fill_is_clean_write_is_dirty() {
        let mut osu = Osu::new(1, 32);
        // Fill then displace: clean lines drop silently.
        osu.fill(0, Reg(0), LaneVec::splat(1));
        osu.release(0, Reg(0));
        let r = osu.write(0, Reg(8), LaneVec::splat(2)); // same bank (0+8)%8
        assert!(r.spilled.is_none(), "clean victim needs no spill");
        // Dirty line displaced must be returned.
        osu.release(0, Reg(8));
        let r = osu.write(8, Reg(0), LaneVec::splat(3)); // bank (8+0)%8 = 0
        assert_eq!(
            r.spilled,
            Some(EvictedLine {
                warp: 0,
                reg: Reg(8),
                value: LaneVec::splat(2)
            })
        );
    }

    #[test]
    fn allocation_fails_when_bank_full_of_active() {
        let mut osu = Osu::new(1, 32);
        osu.write(0, Reg(0), LaneVec::zero());
        let r = osu.write(0, Reg(8), LaneVec::zero()); // same bank, both active
        assert!(r.failed);
    }

    #[test]
    fn promote_reactivates() {
        let mut osu = Osu::new(2, 32);
        osu.write(0, Reg(0), LaneVec::splat(5));
        osu.release(0, Reg(0));
        assert_eq!(osu.allocatable(0), 2);
        assert!(osu.promote(0, Reg(0)));
        assert_eq!(osu.allocatable(0), 1);
        assert_eq!(osu.read(0, Reg(0)), Some(LaneVec::splat(5)));
        assert!(!osu.promote(3, Reg(9)));
    }

    #[test]
    fn erase_frees() {
        let mut osu = Osu::new(2, 32);
        osu.write(0, Reg(0), LaneVec::zero());
        osu.erase(0, Reg(0));
        assert!(!osu.contains(0, Reg(0)));
        assert_eq!(osu.active_lines(), 0);
        assert_eq!(osu.allocatable(0), 2);
    }

    #[test]
    fn release_warp_releases_only_that_warp() {
        let mut osu = Osu::new(4, 32);
        osu.write(0, Reg(0), LaneVec::zero());
        osu.write(0, Reg(1), LaneVec::zero());
        osu.write(1, Reg(0), LaneVec::zero());
        assert_eq!(osu.release_warp(0), 2);
        assert_eq!(osu.active_lines(), 1);
    }

    #[test]
    fn free_then_clean_then_dirty_order() {
        let mut osu = Osu::new(3, 32);
        // Bank 0: one clean evictable, one dirty evictable, one free.
        osu.fill(0, Reg(0), LaneVec::splat(1));
        osu.release(0, Reg(0));
        osu.write(0, Reg(8), LaneVec::splat(2));
        osu.release(0, Reg(8));
        // First alloc takes the free line.
        let r1 = osu.write(0, Reg(16), LaneVec::splat(3));
        assert!(r1.spilled.is_none());
        // Second alloc drops the clean line.
        let r2 = osu.write(8, Reg(0), LaneVec::splat(4));
        assert!(r2.spilled.is_none());
        assert!(!osu.contains(0, Reg(0)), "clean line dropped");
        // Third alloc spills the dirty line.
        let r3 = osu.write(8, Reg(8), LaneVec::splat(5));
        assert_eq!(r3.spilled.as_ref().map(|e| e.reg), Some(Reg(8)));
    }

    #[test]
    fn eviction_counter_counts_each_transition_once() {
        let mut osu = Osu::new(2, 32);
        assert_eq!(osu.lines_evicted(), 0);
        osu.write(0, Reg(0), LaneVec::splat(1));
        assert!(osu.release(0, Reg(0)), "drain transition");
        assert_eq!(osu.lines_evicted(), 1);
        assert!(!osu.release(0, Reg(0)), "re-release is a no-op");
        assert_eq!(osu.lines_evicted(), 1);
        osu.promote(0, Reg(0));
        osu.release(0, Reg(0));
        assert_eq!(osu.lines_evicted(), 2, "promote + re-release counts again");
        assert!(osu.erase(0, Reg(0)), "dead-value reclaim");
        assert_eq!(osu.lines_evicted(), 3);
        assert!(!osu.erase(0, Reg(0)), "erase of absent line is a no-op");
        assert_eq!(osu.lines_evicted(), 3);

        // Clean-victim drop counts once and is flagged to the caller.
        osu.fill(0, Reg(0), LaneVec::splat(2));
        osu.release(0, Reg(0)); // 4
        osu.fill(0, Reg(8), LaneVec::splat(3)); // same bank, takes the free line
        let r = osu.write(8, Reg(0), LaneVec::splat(4)); // displaces the clean line
        assert_eq!(r.dropped_clean, Some((0, Reg(0))));
        assert!(r.spilled.is_none());
        assert_eq!(osu.lines_evicted(), 5);

        // Dirty-victim spill counts once and returns the line.
        osu.release(8, Reg(0)); // 6
        let r = osu.write(16, Reg(0), LaneVec::splat(5));
        assert!(r.spilled.is_some() && r.dropped_clean.is_none());
        assert_eq!(osu.lines_evicted(), 7);
    }

    #[test]
    fn bank_states_census_sums_to_capacity() {
        let mut osu = Osu::new(3, 32);
        osu.write(0, Reg(0), LaneVec::splat(1));
        osu.fill(0, Reg(8), LaneVec::splat(2));
        osu.release(0, Reg(8));
        let (active, evictable, free) = osu.bank_states(0);
        assert_eq!((active, evictable, free), (1, 1, 1));
        assert_eq!(osu.free_lines(), 3 * NUM_BANKS - 2);
    }

    #[test]
    fn rewrite_in_place_does_not_allocate() {
        let mut osu = Osu::new(2, 32);
        osu.write(0, Reg(0), LaneVec::splat(1));
        let r = osu.write(0, Reg(0), LaneVec::splat(2));
        assert!(!r.allocated);
        assert_eq!(osu.read(0, Reg(0)), Some(LaneVec::splat(2)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Clone, Debug)]
    enum Op {
        Write(usize, u16),
        Fill(usize, u16),
        Release(usize, u16),
        Erase(usize, u16),
        Promote(usize, u16),
        ReleaseWarp(usize),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        (0usize..4, 0u16..16, 0u8..6).prop_map(|(w, r, k)| match k {
            0 => Op::Write(w, r),
            1 => Op::Fill(w, r),
            2 => Op::Release(w, r),
            3 => Op::Erase(w, r),
            4 => Op::Promote(w, r),
            _ => Op::ReleaseWarp(w),
        })
    }

    proptest! {
        /// The OSU never exceeds capacity and tags always match lines.
        #[test]
        fn invariants_hold(ops in proptest::collection::vec(arb_op(), 1..200)) {
            let mut osu = Osu::new(2, 32);
            for op in ops {
                match op {
                    Op::Write(w, r) => { osu.write(w, Reg(r), LaneVec::splat(r as u32)); }
                    Op::Fill(w, r) => { osu.fill(w, Reg(r), LaneVec::splat(r as u32)); }
                    Op::Release(w, r) => {
                        osu.release(w, Reg(r));
                    }
                    Op::Erase(w, r) => {
                        osu.erase(w, Reg(r));
                    }
                    Op::Promote(w, r) => { osu.promote(w, Reg(r)); }
                    Op::ReleaseWarp(w) => { osu.release_warp(w); }
                }
                prop_assert!(osu.active_lines() <= osu.capacity());
                for b in 0..NUM_BANKS {
                    prop_assert!(osu.allocatable(b) <= osu.lines_per_bank());
                }
            }
        }

        /// A value written and not displaced reads back exactly.
        #[test]
        fn written_values_read_back(w in 0usize..4, r in 0u16..8, v: u32) {
            let mut osu = Osu::new(4, 32);
            osu.write(w, Reg(r), LaneVec::splat(v));
            prop_assert_eq!(osu.read(w, Reg(r)), Some(LaneVec::splat(v)));
        }
    }
}
