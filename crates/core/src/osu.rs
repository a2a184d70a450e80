//! The operand staging unit (paper §5.2).
//!
//! Each scheduler shard owns one OSU of [`NUM_BANKS`] banks. A bank holds
//! 128-byte lines, each staging one (warp, register) value, with a tag
//! store and three allocation lists: **free** (empty), **clean** (evictable,
//! unchanged since last read from memory), and **dirty** (evictable,
//! modified). Allocation takes free lines first, then clean (dropped
//! silently — memory still has the value), then dirty (which must be
//! spilled through the compressor/L1).
//!
//! The lists are the hardware's own structure (paper Figure 10), so every
//! operation is O(1) in the number of lines: the free list is a bitset
//! whose lowest set bit is the victim, and the clean and dirty lists are
//! intrusive FIFO queues whose head is the oldest released line. A release
//! appends at the tail, and a drain releases a warp's lines in bank, then
//! line, order, so each queue stays ordered by (release, line index). Line
//! metadata lives apart from the 128-byte values, so list and census work
//! never touches a value.

use regless_compiler::NUM_BANKS;
use regless_isa::{LaneVec, Reg};

/// Lifecycle state of one OSU line.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum LineState {
    Free,
    /// Held by an active or preloading region; not evictable.
    Active,
    /// Not referenced by any active region; reusable. Queued on its bank's
    /// clean or dirty list.
    Evictable,
}

/// The end of an intrusive list.
const NIL: u32 = u32::MAX;

/// Everything about a line except its value.
#[derive(Clone, Copy, Debug)]
struct LineMeta {
    warp: u32,
    reg: Reg,
    state: LineState,
    dirty: bool,
    /// Neighbours on the clean or dirty list while evictable.
    prev: u32,
    next: u32,
}

impl LineMeta {
    const FREE: LineMeta = LineMeta {
        warp: 0,
        reg: Reg(0),
        state: LineState::Free,
        dirty: false,
        prev: NIL,
        next: NIL,
    };
}

/// A FIFO queue threaded through [`LineMeta`] links: the head is the
/// oldest entry.
#[derive(Clone, Copy, Debug)]
struct Fifo {
    head: u32,
    tail: u32,
}

impl Fifo {
    const EMPTY: Fifo = Fifo {
        head: NIL,
        tail: NIL,
    };
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
    meta: Vec<LineMeta>,
    values: Vec<LaneVec>,
    /// Bit `i` set: line `i` is free.
    free: Vec<u64>,
    /// Evictable lines, oldest release first: `[clean, dirty]`.
    evictable: [Fifo; 2],
    /// Each warp's active lines as a bitset, `words` words per warp.
    active_by_warp: Vec<u64>,
    words: usize,
    active: usize,
    free_count: usize,
}

impl Bank {
    fn new(lines: usize, warps: usize) -> Self {
        let words = lines.div_ceil(64);
        let mut free = vec![u64::MAX; words];
        if !lines.is_multiple_of(64) {
            free[words - 1] = (1 << (lines % 64)) - 1;
        }
        Bank {
            meta: vec![LineMeta::FREE; lines],
            values: vec![LaneVec::zero(); lines],
            free,
            evictable: [Fifo::EMPTY; 2],
            active_by_warp: vec![0; warps * words],
            words,
            active: 0,
            free_count: lines,
        }
    }

    /// The allocation victim — the lowest free line, else the oldest
    /// clean line, else the oldest dirty line — and whether it is dirty.
    fn victim(&self) -> Option<(usize, bool)> {
        if self.free_count > 0 {
            let (word, bits) = self
                .free
                .iter()
                .enumerate()
                .find(|(_, &bits)| bits != 0)
                .expect("free_count counts the free bits");
            return Some((word * 64 + bits.trailing_zeros() as usize, false));
        }
        [false, true].into_iter().find_map(|dirty| {
            let head = self.evictable[usize::from(dirty)].head;
            (head != NIL).then_some((head as usize, dirty))
        })
    }

    /// Queue evictable line `i` at the tail of its clean or dirty list.
    fn push_evictable(&mut self, i: usize) {
        let list = &mut self.evictable[usize::from(self.meta[i].dirty)];
        let tail = list.tail;
        if tail == NIL {
            list.head = i as u32;
        } else {
            self.meta[tail as usize].next = i as u32;
        }
        list.tail = i as u32;
        let m = &mut self.meta[i];
        m.state = LineState::Evictable;
        m.prev = tail;
        m.next = NIL;
    }

    /// Take evictable line `i` off its list.
    fn unlink(&mut self, i: usize) {
        let LineMeta {
            prev, next, dirty, ..
        } = self.meta[i];
        let list = &mut self.evictable[usize::from(dirty)];
        if prev == NIL {
            list.head = next;
        } else {
            self.meta[prev as usize].next = next;
        }
        if next == NIL {
            list.tail = prev;
        } else {
            self.meta[next as usize].prev = prev;
        }
    }

    fn active_bit(&self, warp: usize, i: usize) -> (usize, u64) {
        (warp * self.words + i / 64, 1 << (i % 64))
    }

    /// Mark line `i` active for its owner.
    fn activate(&mut self, i: usize) {
        let (word, bit) = self.active_bit(self.meta[i].warp as usize, i);
        self.active_by_warp[word] |= bit;
        self.meta[i].state = LineState::Active;
        self.active += 1;
    }

    /// Drop active line `i` from its owner's active set.
    fn deactivate(&mut self, i: usize) {
        let (word, bit) = self.active_bit(self.meta[i].warp as usize, i);
        self.active_by_warp[word] &= !bit;
        self.active -= 1;
    }

    /// Make active line `i` evictable.
    fn release(&mut self, i: usize) {
        self.deactivate(i);
        self.push_evictable(i);
    }

    /// Put line `i`, no longer on any list or active set, on the free list.
    fn make_free(&mut self, i: usize) {
        self.free[i / 64] |= 1 << (i % 64);
        self.free_count += 1;
        self.meta[i] = LineMeta::FREE;
    }

    /// Take free line `i` off the free list.
    fn take_free(&mut self, i: usize) {
        self.free[i / 64] &= !(1 << (i % 64));
        self.free_count -= 1;
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
            banks: (0..NUM_BANKS)
                .map(|_| Bank::new(lines_per_bank, warps))
                .collect(),
            tags: Vec::new(),
            warps,
            lines_per_bank,
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

    fn check_warp(&self, warp: usize) {
        assert!(
            warp < self.warps,
            "warp {warp} outside the OSU's {} warps",
            self.warps
        );
    }

    fn tag_slot(&self, warp: usize, reg: Reg) -> usize {
        self.check_warp(warp);
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

    /// The staged value of a register, by reference (does not change
    /// state).
    pub fn staged(&self, warp: usize, reg: Reg) -> Option<&LaneVec> {
        let b = runtime_bank(warp, reg);
        self.tag(warp, reg).map(|i| &self.banks[b].values[i])
    }

    /// Read a staged value (does not change state).
    pub fn read(&self, warp: usize, reg: Reg) -> Option<LaneVec> {
        self.staged(warp, reg).copied()
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
            let bank = &mut self.banks[b];
            if bank.meta[i].state == LineState::Evictable {
                bank.unlink(i);
                bank.activate(i);
            }
            bank.meta[i].dirty |= dirty;
            bank.values[i] = value;
            return InstallResult::default();
        }
        let Some((victim, victim_dirty)) = self.banks[b].victim() else {
            return InstallResult {
                failed: true,
                ..InstallResult::default()
            };
        };
        let old = self.banks[b].meta[victim];
        let mut result = InstallResult {
            allocated: true,
            ..InstallResult::default()
        };
        if old.state == LineState::Free {
            self.banks[b].take_free(victim);
        } else {
            self.banks[b].unlink(victim);
            let old_warp = old.warp as usize;
            self.take_tag(old_warp, old.reg);
            if victim_dirty {
                result.spilled = Some(EvictedLine {
                    warp: old_warp,
                    reg: old.reg,
                    value: self.banks[b].values[victim],
                });
            } else {
                result.dropped_clean = Some((old_warp, old.reg));
            }
            self.lines_evicted += 1;
        }
        let bank = &mut self.banks[b];
        bank.meta[victim] = LineMeta {
            warp: warp as u32,
            reg,
            dirty,
            ..LineMeta::FREE
        };
        bank.activate(victim);
        bank.values[victim] = value;
        self.set_tag(warp, reg, victim as u32);
        result
    }

    /// Promote a resident (evictable) line back to active for a preload
    /// hit. Returns `false` if the register is not resident.
    pub fn promote(&mut self, warp: usize, reg: Reg) -> bool {
        let Some(i) = self.tag(warp, reg) else {
            return false;
        };
        let bank = &mut self.banks[runtime_bank(warp, reg)];
        if bank.meta[i].state == LineState::Evictable {
            bank.unlink(i);
            bank.activate(i);
        }
        true
    }

    /// Free a line outright (erase annotation / invalidating read).
    /// Returns whether a resident line was actually reclaimed.
    pub fn erase(&mut self, warp: usize, reg: Reg) -> bool {
        let Some(i) = self.take_tag(warp, reg) else {
            return false;
        };
        let bank = &mut self.banks[runtime_bank(warp, reg)];
        match bank.meta[i].state {
            LineState::Active => bank.deactivate(i),
            LineState::Evictable => bank.unlink(i),
            LineState::Free => unreachable!("a tagged line is resident"),
        }
        bank.make_free(i);
        self.lines_evicted += 1;
        true
    }

    /// Make a line evictable (region released it); keeps the dirty bit.
    /// Returns whether an *active* line actually transitioned (re-releasing
    /// an already-evictable line is a no-op for eviction accounting, but it
    /// moves the line to the back of its queue, as the newest release).
    pub fn release(&mut self, warp: usize, reg: Reg) -> bool {
        let Some(i) = self.tag(warp, reg) else {
            return false;
        };
        let bank = &mut self.banks[runtime_bank(warp, reg)];
        let transitioned = bank.meta[i].state == LineState::Active;
        if transitioned {
            bank.release(i);
            self.lines_evicted += 1;
        } else {
            bank.unlink(i);
            bank.push_evictable(i);
        }
        transitioned
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
    /// then line, order. Visits only the warp's own active lines.
    pub fn release_warp_except(
        &mut self,
        warp: usize,
        keep: impl Fn(Reg) -> bool,
        mut on_release: impl FnMut(Reg),
    ) {
        self.check_warp(warp);
        for bank in &mut self.banks {
            for word in 0..bank.words {
                let mut bits = bank.active_by_warp[warp * bank.words + word];
                while bits != 0 {
                    let i = word * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let reg = bank.meta[i].reg;
                    if !keep(reg) {
                        bank.release(i);
                        self.lines_evicted += 1;
                        on_release(reg);
                    }
                }
            }
        }
    }

    /// Number of non-active (allocatable) lines in a bank.
    pub fn allocatable(&self, bank: usize) -> usize {
        self.lines_per_bank - self.banks[bank].active
    }

    /// Per-bank line-state census: `(active, evictable, free)` counts.
    /// The three always sum to [`Osu::lines_per_bank`].
    pub fn bank_states(&self, bank: usize) -> (usize, usize, usize) {
        let b = &self.banks[bank];
        (
            b.active,
            self.lines_per_bank - b.active - b.free_count,
            b.free_count,
        )
    }

    /// Number of lines with a free (unallocated) state across the OSU.
    pub fn free_lines(&self) -> usize {
        self.banks.iter().map(|b| b.free_count).sum()
    }

    /// Number of active lines across the OSU (for tests/diagnostics).
    pub fn active_lines(&self) -> usize {
        self.banks.iter().map(|b| b.active).sum()
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

    /// The linear-scan OSU the Figure 10 lists replaced, kept as the
    /// reference model: one array of lines per bank, a victim search of
    /// three passes (free, then oldest clean, then oldest dirty, by release
    /// sequence and then line index), and drains that scan every line.
    mod reference {
        use super::super::{runtime_bank, EvictedLine, InstallResult, NUM_BANKS};
        use regless_isa::{LaneVec, Reg};

        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        enum State {
            Free,
            Active,
            Evictable,
        }

        #[derive(Clone, Copy, Debug)]
        struct Line {
            warp: usize,
            reg: Reg,
            value: LaneVec,
            state: State,
            dirty: bool,
            released_seq: u64,
        }

        fn free() -> Line {
            Line {
                warp: 0,
                reg: Reg(0),
                value: LaneVec::zero(),
                state: State::Free,
                dirty: false,
                released_seq: 0,
            }
        }

        pub struct RefOsu {
            banks: Vec<Vec<Line>>,
            release_seq: u64,
            pub lines_evicted: u64,
        }

        impl RefOsu {
            pub fn new(lines_per_bank: usize) -> Self {
                RefOsu {
                    banks: vec![vec![free(); lines_per_bank]; NUM_BANKS],
                    release_seq: 0,
                    lines_evicted: 0,
                }
            }

            fn find(&self, warp: usize, reg: Reg) -> Option<usize> {
                self.banks[runtime_bank(warp, reg)]
                    .iter()
                    .position(|l| l.state != State::Free && l.warp == warp && l.reg == reg)
            }

            fn find_victim(&self, bank: usize) -> Option<(usize, bool)> {
                let lines = &self.banks[bank];
                if let Some(i) = lines.iter().position(|l| l.state == State::Free) {
                    return Some((i, false));
                }
                let oldest = |dirty: bool| {
                    lines
                        .iter()
                        .enumerate()
                        .filter(|(_, l)| l.state == State::Evictable && l.dirty == dirty)
                        .min_by_key(|(_, l)| l.released_seq)
                        .map(|(i, _)| i)
                };
                if let Some(i) = oldest(false) {
                    return Some((i, false));
                }
                oldest(true).map(|i| (i, true))
            }

            pub fn read(&self, warp: usize, reg: Reg) -> Option<LaneVec> {
                let b = runtime_bank(warp, reg);
                self.find(warp, reg).map(|i| self.banks[b][i].value)
            }

            pub fn install(
                &mut self,
                warp: usize,
                reg: Reg,
                value: LaneVec,
                dirty: bool,
            ) -> InstallResult {
                let b = runtime_bank(warp, reg);
                if let Some(i) = self.find(warp, reg) {
                    let line = &mut self.banks[b][i];
                    line.value = value;
                    line.dirty |= dirty;
                    line.state = State::Active;
                    return InstallResult::default();
                }
                let Some((victim, victim_dirty)) = self.find_victim(b) else {
                    return InstallResult {
                        failed: true,
                        ..InstallResult::default()
                    };
                };
                let old = self.banks[b][victim];
                let spilled = victim_dirty.then_some(EvictedLine {
                    warp: old.warp,
                    reg: old.reg,
                    value: old.value,
                });
                let mut dropped_clean = None;
                if old.state != State::Free {
                    if !victim_dirty {
                        dropped_clean = Some((old.warp, old.reg));
                    }
                    self.lines_evicted += 1;
                }
                self.banks[b][victim] = Line {
                    warp,
                    reg,
                    value,
                    state: State::Active,
                    dirty,
                    released_seq: 0,
                };
                InstallResult {
                    allocated: true,
                    spilled,
                    dropped_clean,
                    failed: false,
                }
            }

            pub fn promote(&mut self, warp: usize, reg: Reg) -> bool {
                let b = runtime_bank(warp, reg);
                match self.find(warp, reg) {
                    Some(i) => {
                        self.banks[b][i].state = State::Active;
                        true
                    }
                    None => false,
                }
            }

            pub fn erase(&mut self, warp: usize, reg: Reg) -> bool {
                let b = runtime_bank(warp, reg);
                match self.find(warp, reg) {
                    Some(i) => {
                        self.banks[b][i] = free();
                        self.lines_evicted += 1;
                        true
                    }
                    None => false,
                }
            }

            pub fn release(&mut self, warp: usize, reg: Reg) -> bool {
                self.release_seq += 1;
                let seq = self.release_seq;
                let b = runtime_bank(warp, reg);
                let Some(i) = self.find(warp, reg) else {
                    return false;
                };
                let line = &mut self.banks[b][i];
                let transitioned = line.state == State::Active;
                line.state = State::Evictable;
                line.released_seq = seq;
                if transitioned {
                    self.lines_evicted += 1;
                }
                transitioned
            }

            pub fn release_warp_except(
                &mut self,
                warp: usize,
                keep: impl Fn(Reg) -> bool,
                mut on_release: impl FnMut(Reg),
            ) {
                self.release_seq += 1;
                let seq = self.release_seq;
                for bank in &mut self.banks {
                    for line in bank.iter_mut() {
                        if line.state == State::Active && line.warp == warp && !keep(line.reg) {
                            line.state = State::Evictable;
                            line.released_seq = seq;
                            self.lines_evicted += 1;
                            on_release(line.reg);
                        }
                    }
                }
            }

            /// `(active, evictable, free)` per bank.
            pub fn bank_states(&self, bank: usize) -> (usize, usize, usize) {
                let mut counts = (0, 0, 0);
                for line in &self.banks[bank] {
                    match line.state {
                        State::Active => counts.0 += 1,
                        State::Evictable => counts.1 += 1,
                        State::Free => counts.2 += 1,
                    }
                }
                counts
            }

            /// Every resident `(warp, reg, value)`.
            pub fn resident(&self) -> impl Iterator<Item = (usize, Reg, LaneVec)> + '_ {
                self.banks
                    .iter()
                    .flatten()
                    .filter(|l| l.state != State::Free)
                    .map(|l| (l.warp, l.reg, l.value))
            }
        }
    }

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

    /// Bank sizes for the reference comparison: 65 lines spans two words
    /// of the free and per-warp bitsets.
    const LINES_PER_BANK: [usize; 5] = [1, 2, 4, 16, 65];

    /// One reference-comparison step: `(kind, warp, slot, bank, keep)`.
    /// The register is chosen so the pair maps to `bank` (one of three),
    /// which packs enough lines into a bank to fill 65-line banks and
    /// force victims.
    type Step = (u8, usize, u16, usize, u16);

    fn arb_step() -> impl Strategy<Value = Step> {
        (0u8..12, 0usize..64, 0u16..12, 0usize..3, any::<u16>())
    }

    /// Run `steps` against both models and require identical observable
    /// behaviour after every one: install results, released-register
    /// sequences, staged values, census numbers and the eviction count.
    fn compare(lines_per_bank: usize, warps: usize, steps: &[Step]) {
        let mut osu = Osu::new(lines_per_bank, warps);
        let mut model = reference::RefOsu::new(lines_per_bank);
        for (n, &(kind, w, slot, bank, keep_bits)) in steps.iter().enumerate() {
            let w = w % warps;
            let reg = Reg(slot * 8 + ((bank + NUM_BANKS - w % NUM_BANKS) % NUM_BANKS) as u16);
            assert_eq!(runtime_bank(w, reg), bank);
            let value = LaneVec::splat((n as u32) << 8 | u32::from(kind));
            let ctx = format!("step {n} kind {kind} w{w} {reg}");
            match kind {
                0..=2 => assert_eq!(
                    osu.write(w, reg, value),
                    model.install(w, reg, value, true),
                    "{ctx}"
                ),
                3..=5 => assert_eq!(
                    osu.fill(w, reg, value),
                    model.install(w, reg, value, false),
                    "{ctx}"
                ),
                6 | 7 => assert_eq!(osu.release(w, reg), model.release(w, reg), "{ctx}"),
                8 => assert_eq!(osu.erase(w, reg), model.erase(w, reg), "{ctx}"),
                9 => assert_eq!(osu.promote(w, reg), model.promote(w, reg), "{ctx}"),
                _ => {
                    // Keep registers whose slot bit is set in `keep_bits`.
                    let keep = |r: Reg| keep_bits >> (r.index() / 8 % 16) & 1 == 1;
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    osu.release_warp_except(w, keep, |r| got.push(r));
                    model.release_warp_except(w, keep, |r| want.push(r));
                    assert_eq!(got, want, "{ctx}");
                }
            }
            assert_eq!(osu.lines_evicted(), model.lines_evicted, "{ctx}");
            let (mut active, mut free) = (0, 0);
            for b in 0..NUM_BANKS {
                let census = model.bank_states(b);
                assert_eq!(osu.bank_states(b), census, "{ctx} bank {b}");
                assert_eq!(osu.allocatable(b), census.1 + census.2, "{ctx} bank {b}");
                active += census.0;
                free += census.2;
            }
            assert_eq!(osu.active_lines(), active, "{ctx}");
            assert_eq!(osu.free_lines(), free, "{ctx}");
            // Every reference-resident register reads back the same value;
            // with equal free counts, no other register is resident.
            for (rw, rr, rv) in model.resident() {
                assert_eq!(osu.read(rw, rr), Some(rv), "{ctx} read w{rw} {rr}");
                assert_eq!(osu.staged(rw, rr), Some(&rv), "{ctx}");
            }
            assert_eq!(osu.read(w, reg), model.read(w, reg), "{ctx}");
        }
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

        /// Under random operation sequences, the Figure 10 OSU behaves
        /// exactly as the linear-scan reference model.
        #[test]
        fn matches_linear_scan_reference(
            size in 0usize..LINES_PER_BANK.len(),
            warps in 1usize..65,
            steps in proptest::collection::vec(arb_step(), 1..400),
        ) {
            compare(LINES_PER_BANK[size], warps, &steps);
        }
    }

    /// Every bank size, at the full 64 warps, with a fixed long sequence.
    #[test]
    fn matches_reference_at_every_size() {
        let mut rng = proptest::TestRng::from_seed(0x05u64);
        let steps: Vec<Step> = (0..3000)
            .map(|_| {
                let mut draw = |n: u64| rng.below(n) as usize;
                (
                    draw(12) as u8,
                    draw(64),
                    draw(12) as u16,
                    draw(3),
                    draw(1 << 16) as u16,
                )
            })
            .collect();
        for lines in LINES_PER_BANK {
            compare(lines, 64, &steps);
        }
    }
}
