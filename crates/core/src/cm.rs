//! The capacity manager (paper §5.1, Figure 9).
//!
//! One CM fronts each warp scheduler. It tracks a per-warp state machine
//! (inactive → preloading → active → draining → inactive), keeps inactive
//! warps on a LIFO **warp stack** (the top warp ran most recently, so its
//! outputs are most likely still staged), and maintains per-bank budget
//! counters so that the regions it admits never need more OSU lines than
//! exist.

use regless_compiler::{RegionId, NUM_BANKS};
use regless_sim::{warp_bit, StallMasks, StallReason, WarpMask, MAX_WARPS_PER_SM};
use std::collections::VecDeque;

/// Order in which drained warps re-enter the activation queue.
///
/// The paper's design is LIFO (a warp stack): the most recently drained
/// warp activates next, so its outputs are most likely still staged. FIFO
/// is provided as the `ablation_warp_order` comparison point.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum ActivationOrder {
    /// Warp stack (paper §5.1).
    #[default]
    Lifo,
    /// Round-robin queue.
    Fifo,
}

regless_json::impl_json_enum!(ActivationOrder { Lifo, Fifo });

/// A stacked warp's admission candidate: the region it enters when
/// admitted, and that region's per-bank line usage rotated to the warp's
/// banks.
pub type Candidate = (RegionId, [usize; NUM_BANKS]);

/// Per-warp scheduling phase.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WarpPhase {
    /// On the warp stack with no OSU allocation.
    Inactive,
    /// Registers being assembled for `region`.
    Preloading(RegionId),
    /// Eligible to issue instructions from `region`.
    Active(RegionId),
    /// Issued its last instruction of `region`; waiting for outstanding
    /// writebacks before releasing the allocation.
    Draining(RegionId),
    /// Exited the kernel.
    Finished,
}

impl WarpPhase {
    /// Index of this phase's mask in [`CapacityManager`]'s phase masks.
    fn slot(self) -> usize {
        match self {
            WarpPhase::Inactive => 0,
            WarpPhase::Preloading(_) => 1,
            WarpPhase::Active(_) => 2,
            WarpPhase::Draining(_) => 3,
            WarpPhase::Finished => 4,
        }
    }
}

/// The capacity manager for one scheduler shard.
///
/// ```
/// use regless_core::{CapacityManager, WarpPhase};
/// use regless_compiler::RegionId;
///
/// // Both warps start stacked, entering a region that needs one line
/// // per bank.
/// let mut cm = CapacityManager::new(&[0, 1], 2, 16, |_| (RegionId(0), [1; 8]));
/// // Admit the top warp; every stacked warp can run.
/// let (w, region) = cm.try_start_preload(|_, _| true).expect("fits");
/// assert_eq!(cm.phase(w), WarpPhase::Preloading(region));
/// cm.activate(w);
/// cm.begin_drain(w, [0; 8]);
/// // The drain finishes and the warp is restacked for its next region.
/// assert!(cm.try_finish_drain(w, || Some((RegionId(1), [2; 8]))));
/// assert_eq!(cm.phase(w), WarpPhase::Inactive);
/// ```
#[derive(Clone, Debug)]
pub struct CapacityManager {
    /// Written only by [`CapacityManager::set_phase`], which keeps
    /// `in_phase` in step.
    phases: Vec<WarpPhase>,
    /// The warps this CM supervises.
    warps: WarpMask,
    /// The supervised warps in each phase, indexed by `WarpPhase::slot`:
    /// they partition `warps`.
    in_phase: [WarpMask; 5],
    /// Inactive warps, back = top of the stack. A deque so both ends are
    /// O(1): LIFO re-activation pushes the drained warp on top
    /// (`push_back`) and FIFO sends it to the bottom (`push_front`).
    stack: VecDeque<usize>,
    /// Budgeted lines per bank across preloading + active + draining warps.
    committed: [usize; NUM_BANKS],
    /// Reservation of each warp's current region, for release.
    reservation: Vec<[usize; NUM_BANKS]>,
    /// Each stacked warp's [`Candidate`], stored when it is stacked
    /// (written only by [`CapacityManager::set_candidate`]). A stacked
    /// warp does not issue, so its PC and hence its candidate stay fixed
    /// until admission.
    candidates: Vec<Candidate>,
    /// Writebacks still in flight per warp.
    outstanding: Vec<usize>,
    /// Supervised warps with no writeback in flight, kept in step with
    /// `outstanding`.
    quiet: WarpMask,
    lines_per_bank: usize,
    order: ActivationOrder,
    /// Whether the most recent [`CapacityManager::try_start_preload`] call
    /// found a candidate warp but denied it for lack of bank capacity
    /// (as opposed to finding no candidate at all). Feeds the issue-slot
    /// attribution: a capacity denial charges `OsuCapacityWait`.
    denied_capacity: bool,
    /// Whether the stack or the budget changed since the last admission
    /// scan that admitted nothing (see
    /// [`CapacityManager::admission_settled`]).
    stack_or_budget_changed: bool,
}

impl CapacityManager {
    /// A CM supervising the given SM-local warp ids, all stacked with
    /// their entry [`Candidate`], `entry(w)`. The lowest id starts on top
    /// of the stack.
    ///
    /// # Panics
    ///
    /// As [`CapacityManager::try_finish_drain`], if an entry region can
    /// never fit.
    pub fn new(
        warps: &[usize],
        num_warps_total: usize,
        lines_per_bank: usize,
        entry: impl Fn(usize) -> Candidate,
    ) -> Self {
        Self::with_order(
            warps,
            num_warps_total,
            lines_per_bank,
            ActivationOrder::Lifo,
            entry,
        )
    }

    /// As [`CapacityManager::new`], selecting the re-activation order.
    pub fn with_order(
        warps: &[usize],
        num_warps_total: usize,
        lines_per_bank: usize,
        order: ActivationOrder,
        entry: impl Fn(usize) -> Candidate,
    ) -> Self {
        assert!(
            num_warps_total <= MAX_WARPS_PER_SM,
            "a capacity manager tracks at most {MAX_WARPS_PER_SM} warps"
        );
        let mut ids: Vec<usize> = warps.to_vec();
        ids.sort_unstable();
        ids.reverse(); // lowest id on top
        let mask = ids.iter().fold(0, |m, &w| m | warp_bit(w));
        let stack: VecDeque<usize> = ids.into();
        let mut cm = CapacityManager {
            phases: vec![WarpPhase::Inactive; num_warps_total],
            warps: mask,
            in_phase: [mask, 0, 0, 0, 0],
            stack,
            committed: [0; NUM_BANKS],
            reservation: vec![[0; NUM_BANKS]; num_warps_total],
            candidates: vec![(RegionId(0), [0; NUM_BANKS]); num_warps_total],
            outstanding: vec![0; num_warps_total],
            quiet: mask,
            lines_per_bank,
            order,
            denied_capacity: false,
            stack_or_budget_changed: true,
        };
        for &w in warps {
            cm.set_candidate(w, entry(w));
        }
        cm
    }

    /// Store stacked warp `w`'s admission candidate.
    ///
    /// # Panics
    ///
    /// Panics if the region can never fit (its usage exceeds the bank
    /// capacity outright) — a compiler/configuration mismatch.
    fn set_candidate(&mut self, w: usize, candidate: Candidate) {
        let (region, usage) = candidate;
        assert!(
            usage.iter().all(|&u| u <= self.lines_per_bank),
            "region {region:?} needs {usage:?} lines but banks hold only {}",
            self.lines_per_bank
        );
        self.candidates[w] = candidate;
    }

    /// The warp's current phase.
    pub fn phase(&self, w: usize) -> WarpPhase {
        self.phases[w]
    }

    /// Move `w` to `phase`, keeping the phase masks in step.
    fn set_phase(&mut self, w: usize, phase: WarpPhase) {
        let bit = warp_bit(w);
        self.in_phase[self.phases[w].slot()] &= !bit;
        self.in_phase[phase.slot()] |= bit;
        self.phases[w] = phase;
    }

    /// The warps this CM supervises.
    pub fn warps(&self) -> WarpMask {
        self.warps
    }

    /// Supervised warps on the stack.
    pub fn inactive(&self) -> WarpMask {
        self.in_phase[0]
    }

    /// Supervised warps assembling a region's inputs.
    pub fn preloading(&self) -> WarpMask {
        self.in_phase[1]
    }

    /// Supervised warps eligible for their active region.
    pub fn active(&self) -> WarpMask {
        self.in_phase[2]
    }

    /// Supervised warps draining a region.
    pub fn draining(&self) -> WarpMask {
        self.in_phase[3]
    }

    /// Supervised warps that exited.
    pub fn finished(&self) -> WarpMask {
        self.in_phase[4]
    }

    /// The warps of `ready` whose next instruction lies in their active
    /// region: `region_of(w)` is the region at warp `w`'s PC.
    pub fn eligible(&self, ready: WarpMask, region_of: impl Fn(usize) -> RegionId) -> WarpMask {
        regless_sim::warps_in(ready & self.active())
            .filter(|&w| self.phases[w] == WarpPhase::Active(region_of(w)))
            .fold(0, |m, w| m | warp_bit(w))
    }

    /// Add the supervised warps of `ineligible` to the stall group their
    /// phase implies: preloading warps wait on staging; stacked warps wait
    /// on OSU capacity if the last admission scan was denied for it, and
    /// on the preload pipeline otherwise; draining warps, and active warps
    /// whose PC left the region, wait on the drain. Finished warps have no
    /// reason.
    pub fn stalls(&self, ineligible: WarpMask, groups: &mut StallMasks) {
        let stacked = if self.denied_capacity {
            StallReason::OsuCapacityWait
        } else {
            StallReason::CmPreloadWait
        };
        groups.add(StallReason::CmPreloadWait, ineligible & self.preloading());
        groups.add(stacked, ineligible & self.inactive());
        groups.add(
            StallReason::Drain,
            ineligible & (self.draining() | self.active()),
        );
    }

    /// Whether neither the stack nor the bank budget changed since the
    /// last [`CapacityManager::try_start_preload`], and that scan admitted
    /// nothing. Stacked warps' candidates are fixed, so a rescan then
    /// repeats the last one unless the caller's `runnable` answer changed
    /// for a warp it skipped (a stacked warp leaving a barrier); callers
    /// may skip the scan otherwise. Drain start, drain release, drain
    /// finish, and admission unsettle it.
    pub fn admission_settled(&self) -> bool {
        !self.stack_or_budget_changed
    }

    /// Whether the most recent [`CapacityManager::try_start_preload`]
    /// denied an otherwise-runnable warp because its region did not fit
    /// the remaining bank budget. Distinguishes "stalled on capacity"
    /// from "no warp wanted to preload" for CPI-stack attribution.
    pub fn admission_capacity_denied(&self) -> bool {
        self.denied_capacity
    }

    /// Whether `usage` fits the remaining budget.
    pub fn fits(&self, usage: &[usize; NUM_BANKS]) -> bool {
        (0..NUM_BANKS).all(|b| self.committed[b] + usage[b] <= self.lines_per_bank)
    }

    /// Try to start preloading for the topmost stack warp that is not
    /// blocked. Returns the chosen warp if one was admitted.
    ///
    /// `runnable(w, candidate)` says whether stacked warp `w`, whose stored
    /// [`Candidate`] is `candidate`, can run now (`false`: at a barrier).
    /// Warps it rejects are skipped but stay stacked; a warp whose
    /// candidate fits is popped and committed.
    pub fn try_start_preload(
        &mut self,
        mut runnable: impl FnMut(usize, &Candidate) -> bool,
    ) -> Option<(usize, RegionId)> {
        self.denied_capacity = false;
        // Settled unless this scan admits; admission sets it again below.
        self.stack_or_budget_changed = false;
        // Scan from the top for the first admissible warp.
        for pos in (0..self.stack.len()).rev() {
            let w = self.stack[pos];
            if !runnable(w, &self.candidates[w]) {
                continue;
            }
            let (region, usage) = self.candidates[w];
            if !self.fits(&usage) {
                // Capacity will free as active warps drain; do not bypass
                // (preserves the stack's locality order).
                self.denied_capacity = true;
                return None;
            }
            self.stack.remove(pos);
            for (c, &u) in self.committed.iter_mut().zip(usage.iter()) {
                *c += u;
            }
            self.reservation[w] = usage;
            self.set_phase(w, WarpPhase::Preloading(region));
            self.stack_or_budget_changed = true;
            return Some((w, region));
        }
        None
    }

    /// All preloads for `w` completed: the warp becomes active.
    ///
    /// # Panics
    ///
    /// Panics if the warp is not preloading.
    pub fn activate(&mut self, w: usize) -> RegionId {
        match self.phases[w] {
            WarpPhase::Preloading(r) => {
                self.set_phase(w, WarpPhase::Active(r));
                r
            }
            other => panic!("activate on warp {w} in phase {other:?}"),
        }
    }

    /// A real instruction issued from `w`; `has_dst` tracks outstanding
    /// writebacks for draining.
    pub fn note_issue(&mut self, w: usize, has_dst: bool) {
        if has_dst {
            self.outstanding[w] += 1;
            self.quiet &= !warp_bit(w);
        }
    }

    /// A writeback for `w` landed.
    pub fn note_writeback(&mut self, w: usize) {
        self.outstanding[w] = self.outstanding[w].saturating_sub(1);
        if self.outstanding[w] == 0 {
            self.quiet |= warp_bit(w) & self.warps;
        }
    }

    /// Writebacks still in flight for `w`.
    pub fn outstanding(&self, w: usize) -> usize {
        self.outstanding[w]
    }

    /// Supervised warps with no writeback in flight: the only draining
    /// warps [`CapacityManager::try_finish_drain`] can finish.
    pub fn quiet(&self) -> WarpMask {
        self.quiet
    }

    /// The warp left its region (PC moved on) — begin draining.
    ///
    /// Most of the region's reservation is released immediately; only
    /// `still_pending` lines per bank (registers with writebacks in
    /// flight) stay budgeted until they land (paper §5.1: "any other
    /// registers that were allocated to that region can be freed for other
    /// warps, but the pending register must stay allocated").
    ///
    /// # Panics
    ///
    /// Panics if the warp is not active, or if `still_pending` exceeds the
    /// region's reservation in some bank.
    pub fn begin_drain(&mut self, w: usize, still_pending: [usize; NUM_BANKS]) {
        match self.phases[w] {
            WarpPhase::Active(r) => self.set_phase(w, WarpPhase::Draining(r)),
            other => panic!("begin_drain on warp {w} in phase {other:?}"),
        }
        self.stack_or_budget_changed = true;
        for (b, &pending) in still_pending.iter().enumerate() {
            // Pending lines can exceed the per-bank reservation only if the
            // reservation model was violated; clamp rather than underflow.
            let keep = pending.min(self.reservation[w][b]);
            self.committed[b] -= self.reservation[w][b] - keep;
            self.reservation[w][b] = keep;
        }
    }

    /// A pending writeback landed while `w` was draining: its line is now
    /// released, shrinking the held reservation.
    pub fn note_drain_release(&mut self, w: usize, bank: usize) {
        if self.reservation[w][bank] > 0 {
            self.reservation[w][bank] -= 1;
            self.committed[bank] -= 1;
            self.stack_or_budget_changed = true;
        }
    }

    /// If `w` is draining with no outstanding writebacks, release its
    /// reservation. `next()`, called only then, gives the warp's
    /// [`Candidate`] to restack it with, or `None` if it exited (it is
    /// then not restacked). Returns whether the drain completed now.
    ///
    /// # Panics
    ///
    /// Panics if the candidate's region can never fit (its usage exceeds
    /// the bank capacity outright) — a compiler/configuration mismatch.
    pub fn try_finish_drain(&mut self, w: usize, next: impl FnOnce() -> Option<Candidate>) -> bool {
        let WarpPhase::Draining(_) = self.phases[w] else {
            return false;
        };
        if self.outstanding[w] > 0 {
            return false;
        }
        for b in 0..NUM_BANKS {
            self.committed[b] -= self.reservation[w][b];
        }
        self.reservation[w] = [0; NUM_BANKS];
        self.stack_or_budget_changed = true;
        if let Some(candidate) = next() {
            self.set_candidate(w, candidate);
            self.set_phase(w, WarpPhase::Inactive);
            match self.order {
                // Most recently run → top: its outputs are still staged.
                ActivationOrder::Lifo => self.stack.push_back(w),
                // Round-robin: go to the back of the line.
                ActivationOrder::Fifo => self.stack.push_front(w),
            }
        } else {
            self.set_phase(w, WarpPhase::Finished);
        }
        true
    }

    /// Lines committed in one bank (diagnostics).
    pub fn committed(&self, bank: usize) -> usize {
        self.committed[bank]
    }

    /// Lines of `bank` currently reserved by warp `w` (diagnostics): the
    /// live remainder of the region reservation made at admission, after
    /// any partial drain releases.
    pub fn reserved(&self, w: usize, bank: usize) -> usize {
        self.reservation[w][bank]
    }

    /// Snapshot of the warps currently stacked, bottom first (top last).
    pub fn stack(&self) -> Vec<usize> {
        self.stack.iter().copied().collect()
    }

    /// Warps queued for admission (the depth the occupancy sampler
    /// records; cheaper than cloning [`CapacityManager::stack`]).
    pub fn queue_depth(&self) -> usize {
        self.stack.len()
    }

    /// Total lines committed across all banks (the "reserved" series of
    /// the occupancy timeline).
    pub fn committed_total(&self) -> usize {
        self.committed.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn usage(n: usize) -> [usize; NUM_BANKS] {
        [n; NUM_BANKS]
    }

    /// A CM over warps 0, 2 and 4 whose entry regions are numbered after
    /// the warp and need `n` lines in every bank.
    fn cm(n: usize) -> CapacityManager {
        CapacityManager::new(&[0, 2, 4], 6, 8, |w| (RegionId(w as u32), usage(n)))
    }

    #[test]
    fn lowest_warp_starts_on_top() {
        let c = cm(1);
        assert_eq!(c.stack(), &[4, 2, 0]);
    }

    #[test]
    fn admission_and_budget() {
        let mut c = cm(5);
        let got = c.try_start_preload(|_, _| true);
        assert_eq!(got, Some((0, RegionId(0))));
        assert_eq!(c.phase(0), WarpPhase::Preloading(RegionId(0)));
        assert_eq!(c.committed(0), 5);
        // Next warp needs 5 more but only 3 remain: denied, stack intact.
        let got = c.try_start_preload(|_, _| true);
        assert_eq!(got, None);
        assert!(c.admission_capacity_denied());
        assert_eq!(c.stack(), &[4, 2]);
    }

    #[test]
    fn blocked_top_is_skipped() {
        let mut c = cm(1);
        // Warp 0 (top) is at a barrier: skip to warp 2.
        let mut seen = Vec::new();
        let got = c.try_start_preload(|w, &candidate| {
            seen.push((w, candidate));
            w != 0
        });
        assert_eq!(got, Some((2, RegionId(2))));
        assert!(c.stack().contains(&0), "blocked warp stays stacked");
        // The scan hands each warp its stored candidate.
        assert_eq!(
            seen,
            [(0, (RegionId(0), usage(1))), (2, (RegionId(2), usage(1)))]
        );
    }

    #[test]
    fn full_lifecycle_releases_budget() {
        let mut c = cm(4);
        let (w, _) = c.try_start_preload(|_, _| true).unwrap();
        c.activate(w);
        assert_eq!(c.phase(w), WarpPhase::Active(RegionId(0)));
        c.note_issue(w, true);
        c.note_issue(w, false);
        // One register (in bank 0) still has a writeback in flight: the
        // rest of the reservation is released at drain start.
        let mut pending = [0; NUM_BANKS];
        pending[0] = 1;
        c.begin_drain(w, pending);
        assert_eq!(
            c.committed(0),
            1,
            "partial release keeps only pending lines"
        );
        assert_eq!(c.committed(1), 0);
        assert!(
            !c.try_finish_drain(w, || unreachable!("asked for a candidate too early")),
            "writeback still pending"
        );
        c.note_writeback(w);
        assert!(c.try_finish_drain(w, || Some((RegionId(7), usage(2)))));
        assert_eq!(c.phase(w), WarpPhase::Inactive);
        assert_eq!(c.committed(0), 0);
        // The drained warp is back on top, and admission commits the
        // candidate it was restacked with.
        assert_eq!(*c.stack().last().unwrap(), w);
        assert_eq!(c.try_start_preload(|_, _| true), Some((w, RegionId(7))));
        assert_eq!(c.committed(0), 2);
    }

    #[test]
    fn finished_warp_not_restacked() {
        let mut c = cm(1);
        let (w, _) = c.try_start_preload(|_, _| true).unwrap();
        c.activate(w);
        c.begin_drain(w, [0; NUM_BANKS]);
        assert!(c.try_finish_drain(w, || None));
        assert_eq!(c.phase(w), WarpPhase::Finished);
        assert!(!c.stack().contains(&w));
    }

    #[test]
    #[should_panic(expected = "needs")]
    fn oversized_entry_region_panics() {
        let _ = cm(99);
    }

    #[test]
    #[should_panic(expected = "needs")]
    fn oversized_next_region_panics() {
        let mut c = cm(1);
        let (w, _) = c.try_start_preload(|_, _| true).unwrap();
        c.activate(w);
        c.begin_drain(w, [0; NUM_BANKS]);
        c.try_finish_drain(w, || Some((RegionId(1), usage(99))));
    }

    #[test]
    fn fifo_restacks_at_the_bottom() {
        let mut c = CapacityManager::with_order(&[0, 2, 4], 6, 8, ActivationOrder::Fifo, |_| {
            (RegionId(0), usage(1))
        });
        let (w, _) = c.try_start_preload(|_, _| true).unwrap();
        c.activate(w);
        c.begin_drain(w, [0; NUM_BANKS]);
        assert!(c.try_finish_drain(w, || Some((RegionId(0), usage(1)))));
        assert_eq!(c.stack(), &[0, 4, 2], "drained warp goes to the bottom");
    }

    #[test]
    fn lifo_order_preserves_recency() {
        let mut c = cm(1);
        let (w0, _) = c.try_start_preload(|_, _| true).unwrap();
        c.activate(w0);
        c.begin_drain(w0, [0; NUM_BANKS]);
        c.try_finish_drain(w0, || Some((RegionId(1), usage(1))));
        // w0 drained last → top of stack again.
        let (again, region) = c.try_start_preload(|_, _| true).unwrap();
        assert_eq!((again, region), (w0, RegionId(1)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use regless_sim::first_warps;

    const WARPS: usize = 4;
    const LINES_PER_BANK: usize = 8;

    /// First warp in a phase matching `pred`, scanning from a rotating
    /// start so the sequence exercises every warp.
    fn pick(cm: &CapacityManager, start: usize, pred: impl Fn(WarpPhase) -> bool) -> Option<usize> {
        (0..WARPS)
            .map(|i| (start + i) % WARPS)
            .find(|&w| pred(cm.phase(w)))
    }

    /// After every operation, the bank budget counters must equal the sum
    /// of the live per-warp reservations — the accounting identity that
    /// `begin_drain`'s clamped partial release and `note_drain_release`'s
    /// underflow guard exist to preserve — the warp stack must hold
    /// exactly the inactive warps, the phase masks must partition the
    /// supervised warps in agreement with `phase(w)`, and the quiet mask
    /// must hold exactly the warps with no writeback outstanding.
    fn check(cm: &CapacityManager) {
        for b in 0..NUM_BANKS {
            let live: usize = (0..WARPS).map(|w| cm.reserved(w, b)).sum();
            assert_eq!(
                cm.committed(b),
                live,
                "bank {b}: committed != live reservations"
            );
            assert!(cm.committed(b) <= LINES_PER_BANK, "bank {b} over budget");
        }
        let mut stacked = cm.stack();
        stacked.sort_unstable();
        let inactive: Vec<usize> = (0..WARPS)
            .filter(|&w| cm.phase(w) == WarpPhase::Inactive)
            .collect();
        assert_eq!(
            stacked, inactive,
            "stack must hold exactly the inactive warps"
        );
        let masks = [
            cm.inactive(),
            cm.preloading(),
            cm.active(),
            cm.draining(),
            cm.finished(),
        ];
        assert_eq!(cm.warps(), first_warps(WARPS));
        assert_eq!(masks.iter().fold(0, |m, &p| m | p), cm.warps());
        assert_eq!(
            masks.iter().map(|p| p.count_ones()).sum::<u32>(),
            cm.warps().count_ones(),
            "phase masks overlap"
        );
        for w in 0..WARPS {
            let want = match cm.phase(w) {
                WarpPhase::Inactive => 0,
                WarpPhase::Preloading(_) => 1,
                WarpPhase::Active(_) => 2,
                WarpPhase::Draining(_) => 3,
                WarpPhase::Finished => 4,
            };
            assert_eq!(masks[want] & warp_bit(w), warp_bit(w), "warp {w} mask");
        }
        let quiet = (0..WARPS)
            .filter(|&w| cm.outstanding(w) == 0)
            .fold(0, |m, w| m | warp_bit(w));
        assert_eq!(cm.quiet(), quiet, "quiet mask");
    }

    /// The per-warp eligibility and stall classification the mask methods
    /// replace, from `phase()` and `admission_capacity_denied()` alone.
    fn classify(
        cm: &CapacityManager,
        ready: WarpMask,
        region_of: impl Fn(usize) -> RegionId,
    ) -> (WarpMask, StallMasks) {
        let mut eligible = 0;
        let mut groups = StallMasks::default();
        for w in (0..WARPS).filter(|&w| ready & warp_bit(w) != 0) {
            let reason = match cm.phase(w) {
                WarpPhase::Active(r) if r == region_of(w) => {
                    eligible |= warp_bit(w);
                    continue;
                }
                WarpPhase::Preloading(_) => StallReason::CmPreloadWait,
                WarpPhase::Inactive if cm.admission_capacity_denied() => {
                    StallReason::OsuCapacityWait
                }
                WarpPhase::Inactive => StallReason::CmPreloadWait,
                WarpPhase::Draining(_) | WarpPhase::Active(_) => StallReason::Drain,
                WarpPhase::Finished => continue,
            };
            groups.add(reason, warp_bit(w));
        }
        (eligible, groups)
    }

    proptest! {
        #[test]
        fn committed_always_sums_live_reservations(
            fifo in any::<bool>(),
            ops in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..250),
        ) {
            run_ops(fifo, &ops, |cm, _| check(cm));
        }

        /// Under random operation sequences, random ready masks, and a
        /// random region at each warp's PC, the mask-based eligibility and
        /// stall groups equal the per-warp classification.
        #[test]
        fn masks_match_per_warp_classification(
            fifo in any::<bool>(),
            ops in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..250),
        ) {
            run_ops(fifo, &ops, |cm, p| {
                let ready = WarpMask::from(p) & cm.warps();
                // Region ids are the admitting warp's id (see run_ops), so
                // odd `p` moves some active warps' PCs out of region.
                let moved = |w: usize| p % 2 == 1 && w.is_multiple_of(2);
                let region_of = |w: usize| RegionId(if moved(w) { 99 } else { w as u32 });
                let eligible = cm.eligible(ready, region_of);
                let mut groups = StallMasks::default();
                cm.stalls(ready & !eligible, &mut groups);
                prop_assert_eq!((eligible, groups), classify(cm, ready, region_of));
            });
        }
    }

    /// The candidate warp `w` is stacked with under parameter `p`: a
    /// per-bank usage pattern that varies by bank (including zero-usage
    /// banks).
    fn candidate(w: usize, p: usize) -> Candidate {
        let mut usage = [0usize; NUM_BANKS];
        for (b, u) in usage.iter_mut().enumerate() {
            *u = (p + b) % 4;
        }
        (RegionId(w as u32), usage)
    }

    /// The admission input of a scan with parameter `p`: a third of the
    /// warps unable to run.
    fn runnable(p: usize) -> impl Fn(usize, &Candidate) -> bool {
        move |w, _| w % 3 != p % 3
    }

    /// Drive a CM over `WARPS` warps through `ops`, calling `after` with
    /// the CM and the op's parameter after each one. Whenever the CM says
    /// admission is settled, rescanning with the last scan's input must
    /// admit nothing and repeat its capacity verdict.
    fn run_ops(fifo: bool, ops: &[(u8, u8)], mut after: impl FnMut(&CapacityManager, u8)) {
        let order = if fifo {
            ActivationOrder::Fifo
        } else {
            ActivationOrder::Lifo
        };
        let warps: Vec<usize> = (0..WARPS).collect();
        let mut cm =
            CapacityManager::with_order(&warps, WARPS, LINES_PER_BANK, order, |w| candidate(w, w));
        let mut last_scan = None;
        for &(op, byte) in ops {
            let p = byte as usize;
            match op % 7 {
                0 => {
                    let _ = cm.try_start_preload(runnable(p));
                    last_scan = Some(p);
                }
                1 => {
                    if let Some(w) = pick(&cm, p, |ph| matches!(ph, WarpPhase::Preloading(_))) {
                        cm.activate(w);
                    }
                }
                2 => {
                    if let Some(w) = pick(&cm, p, |ph| matches!(ph, WarpPhase::Active(_))) {
                        cm.note_issue(w, p.is_multiple_of(2));
                    }
                }
                3 => {
                    if let Some(w) = pick(&cm, p, |ph| {
                        matches!(ph, WarpPhase::Active(_) | WarpPhase::Draining(_))
                    }) {
                        cm.note_writeback(w);
                    }
                }
                4 => {
                    if let Some(w) = pick(&cm, p, |ph| matches!(ph, WarpPhase::Active(_))) {
                        // Pending counts may exceed the reservation in
                        // some banks — begin_drain must clamp, not
                        // underflow.
                        let mut pending = [0usize; NUM_BANKS];
                        for (b, q) in pending.iter_mut().enumerate() {
                            *q = (p + b) % 3;
                        }
                        cm.begin_drain(w, pending);
                    }
                }
                5 => {
                    if let Some(w) = pick(&cm, p, |ph| matches!(ph, WarpPhase::Draining(_))) {
                        // Also poke banks with no reservation left:
                        // the release must be a no-op, not underflow.
                        cm.note_drain_release(w, p % NUM_BANKS);
                    }
                }
                _ => {
                    if let Some(w) = pick(&cm, p, |ph| matches!(ph, WarpPhase::Draining(_))) {
                        let finished = p.is_multiple_of(5);
                        let _ = cm.try_finish_drain(w, || (!finished).then(|| candidate(w, p)));
                    }
                }
            }
            if let (true, Some(lp)) = (cm.admission_settled(), last_scan) {
                let mut again = cm.clone();
                assert_eq!(again.try_start_preload(runnable(lp)), None);
                assert_eq!(
                    again.admission_capacity_denied(),
                    cm.admission_capacity_denied()
                );
            }
            after(&cm, byte);
        }
    }
}
