//! Warp scheduling policies.

use crate::config::SchedulerKind;
use crate::mask::{warp_bit, warps_in, WarpMask};

/// A warp scheduler instance for one scheduling group, over the warps of
/// a [`WarpMask`]. The policies only compare warp indices, so any
/// numbering that keeps the group's order works: the SM uses its own
/// warp indices, the unit tests local ones.
///
/// The interface is deliberately small: each slot the pipeline presents
/// the set of eligible warps as a mask and the policy picks one.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Scheduler {
    /// Greedy-then-oldest: keep issuing the last warp while it stays ready,
    /// otherwise the oldest (lowest-index) ready warp.
    Gto {
        /// Warp issued most recently.
        last: Option<usize>,
    },
    /// Loose round-robin: pick the next ready warp after the last issued
    /// one, wrapping around.
    Lrr {
        /// Warp issued most recently.
        last: Option<usize>,
    },
    /// Two-level: only warps in the active set may issue; a warp that
    /// performs a long-latency operation is demoted and a pending warp
    /// promoted (Gebhart et al. / Narasiman et al.).
    TwoLevel {
        /// The active and pending sets.
        sets: TwoLevelSets,
        /// Capacity of the active set.
        capacity: usize,
        /// Warp issued most recently.
        last: Option<usize>,
    },
}

/// A two-level scheduler's active and pending warps: ordered lists (the
/// promotion and demotion order) with a membership mask beside each, so a
/// pick tests set membership with one word operation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TwoLevelSets {
    /// Current active set, in promotion order.
    active: Vec<usize>,
    /// Pending (inactive) warps, in demotion order.
    pending: Vec<usize>,
    /// The warps of `active`.
    active_mask: WarpMask,
    /// The warps of `pending`.
    pending_mask: WarpMask,
}

impl TwoLevelSets {
    fn push_active(&mut self, w: usize) {
        self.active.push(w);
        self.active_mask |= warp_bit(w);
    }

    fn push_pending(&mut self, w: usize) {
        self.pending.push(w);
        self.pending_mask |= warp_bit(w);
    }

    fn remove_active(&mut self, pos: usize) -> usize {
        let w = self.active.remove(pos);
        self.active_mask &= !warp_bit(w);
        w
    }

    fn remove_pending(&mut self, pos: usize) -> usize {
        let w = self.pending.remove(pos);
        self.pending_mask &= !warp_bit(w);
        w
    }

    /// Promote pending warp `promote` in place of the stalest active one.
    fn swap_in(&mut self, promote: usize) {
        let pos = self
            .pending
            .iter()
            .position(|&w| w == promote)
            .expect("a promoted warp is pending");
        self.remove_pending(pos);
        if !self.active.is_empty() {
            let demoted = self.remove_active(0);
            self.push_pending(demoted);
        }
        self.push_active(promote);
    }
}

/// The lowest warp of `mask`.
fn lowest(mask: WarpMask) -> Option<usize> {
    (mask != 0).then(|| mask.trailing_zeros() as usize)
}

/// The warps above `w`.
fn above(w: usize) -> WarpMask {
    WarpMask::MAX.checked_shl(w as u32 + 1).unwrap_or(0)
}

impl Scheduler {
    /// Create a scheduler of the configured kind over the warps of
    /// `warps`; a two-level scheduler starts with the lowest of them
    /// active.
    pub fn new(kind: SchedulerKind, warps: WarpMask) -> Self {
        match kind {
            SchedulerKind::Gto => Scheduler::Gto { last: None },
            SchedulerKind::Lrr => Scheduler::Lrr { last: None },
            SchedulerKind::TwoLevel {
                active_per_scheduler,
            } => {
                let num_warps = warps.count_ones() as usize;
                let capacity = active_per_scheduler.max(1).min(num_warps.max(1));
                let mut sets = TwoLevelSets {
                    active: Vec::with_capacity(num_warps),
                    pending: Vec::with_capacity(num_warps),
                    active_mask: 0,
                    pending_mask: 0,
                };
                for (i, w) in warps_in(warps).enumerate() {
                    if i < capacity {
                        sets.push_active(w);
                    } else {
                        sets.push_pending(w);
                    }
                }
                Scheduler::TwoLevel {
                    sets,
                    capacity,
                    last: None,
                }
            }
        }
    }

    /// Pick a warp to issue from the warps of `eligible`. A two-level
    /// scheduler with no eligible active warp spends the slot promoting
    /// an eligible pending one and returns `None`.
    pub fn pick_mask(&mut self, eligible: WarpMask) -> Option<usize> {
        match self {
            Scheduler::Gto { last } => {
                let choice = match *last {
                    Some(w) if eligible & warp_bit(w) != 0 => Some(w),
                    _ => lowest(eligible),
                };
                *last = choice.or(*last);
                choice
            }
            Scheduler::Lrr { last } => {
                let choice = match *last {
                    Some(prev) => lowest(eligible & above(prev)).or_else(|| lowest(eligible)),
                    None => lowest(eligible),
                };
                *last = choice.or(*last);
                choice
            }
            Scheduler::TwoLevel { sets, last, .. } => {
                let ready_active = eligible & sets.active_mask;
                let choice = match *last {
                    Some(w) if ready_active & warp_bit(w) != 0 => Some(w),
                    _ => lowest(ready_active),
                };
                if choice.is_none() {
                    // No active warp is ready: swap in a ready pending
                    // warp for the stalest active one. The swap itself
                    // costs the issue slot — the promoted warp starts
                    // issuing next cycle (the reactivation latency that
                    // makes two-level scheduling lose to GTO, §6.4).
                    if let Some(promote) = lowest(eligible & sets.pending_mask) {
                        sets.swap_in(promote);
                    }
                }
                *last = choice.or(*last);
                choice
            }
        }
    }

    /// The slice-based pick that [`Scheduler::pick_mask`] replaced, over
    /// `ready` in ascending order: the reference model its tests compare
    /// against.
    #[cfg(test)]
    pub(crate) fn pick(&mut self, ready: &[usize]) -> Option<usize> {
        match self {
            Scheduler::Gto { last } => {
                let choice = match *last {
                    Some(w) if ready.contains(&w) => Some(w),
                    _ => ready.first().copied(),
                };
                *last = choice.or(*last);
                choice
            }
            Scheduler::Lrr { last } => {
                let choice = match *last {
                    Some(prev) => ready
                        .iter()
                        .copied()
                        .find(|&w| w > prev)
                        .or_else(|| ready.first().copied()),
                    None => ready.first().copied(),
                };
                *last = choice.or(*last);
                choice
            }
            Scheduler::TwoLevel { sets, last, .. } => {
                let choice = match *last {
                    Some(w) if ready.contains(&w) && sets.active.contains(&w) => Some(w),
                    _ => ready.iter().copied().find(|w| sets.active.contains(w)),
                };
                if choice.is_none() {
                    let promote = ready.iter().copied().find(|w| sets.pending.contains(w));
                    if let Some(promote) = promote {
                        sets.swap_in(promote);
                    }
                }
                *last = choice.or(*last);
                choice
            }
        }
    }

    /// Notify the policy that warp `w` began a long-latency operation
    /// (global load): two-level demotes it.
    pub fn on_long_latency(&mut self, w: usize) {
        if let Scheduler::TwoLevel { sets, capacity, .. } = self {
            if sets.active_mask & warp_bit(w) == 0 {
                return;
            }
            let pos = sets
                .active
                .iter()
                .position(|&a| a == w)
                .expect("the active mask mirrors the active list");
            sets.remove_active(pos);
            sets.push_pending(w);
            if sets.active.len() < *capacity {
                // Promote the longest-waiting pending warp.
                let p = sets.remove_pending(0);
                sets.push_active(p);
            }
        }
    }

    /// Warps currently allowed to issue (the active set); `None` for GTO
    /// and LRR (all warps).
    pub fn active_set(&self) -> Option<&[usize]> {
        match self {
            Scheduler::Gto { .. } | Scheduler::Lrr { .. } => None,
            Scheduler::TwoLevel { sets, .. } => Some(&sets.active),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::first_warps;

    #[test]
    fn gto_is_greedy_then_oldest() {
        let mut s = Scheduler::new(SchedulerKind::Gto, first_warps(4));
        assert_eq!(s.pick_mask(0b0111), Some(0));
        assert_eq!(s.pick_mask(0b0111), Some(0), "greedy on same warp");
        assert_eq!(s.pick_mask(0b0110), Some(1), "oldest when last not ready");
        assert_eq!(s.pick_mask(0b0110), Some(1));
        assert_eq!(s.pick_mask(0), None);
    }

    #[test]
    fn lrr_rotates_through_ready_warps() {
        let mut s = Scheduler::new(SchedulerKind::Lrr, first_warps(4));
        assert_eq!(s.pick_mask(0b1011), Some(0));
        assert_eq!(s.pick_mask(0b1011), Some(1));
        assert_eq!(s.pick_mask(0b1011), Some(3));
        assert_eq!(s.pick_mask(0b1011), Some(0), "wraps around");
        assert_eq!(s.pick_mask(0), None);
    }

    #[test]
    fn lrr_wraps_from_the_top_warp() {
        let mut s = Scheduler::new(SchedulerKind::Lrr, first_warps(64));
        assert_eq!(s.pick_mask(warp_bit(63)), Some(63));
        assert_eq!(s.pick_mask(warp_bit(63) | warp_bit(5)), Some(5));
    }

    #[test]
    fn two_level_restricts_to_active() {
        let mut s = Scheduler::new(
            SchedulerKind::TwoLevel {
                active_per_scheduler: 2,
            },
            first_warps(4),
        );
        // Active = {0, 1}. Warp 2 is ready but not active; 1 is ready.
        assert_eq!(s.pick_mask(0b0110), Some(1));
        // Only pending warps ready: the swap consumes this issue slot and
        // the promoted warp issues on the next pick.
        assert_eq!(s.pick_mask(0b1100), None);
        let promoted = s.pick_mask(0b1100).unwrap();
        assert!(promoted == 2 || promoted == 3);
        assert!(s.active_set().unwrap().contains(&promoted));
    }

    #[test]
    fn two_level_demotes_on_long_latency() {
        let mut s = Scheduler::new(
            SchedulerKind::TwoLevel {
                active_per_scheduler: 2,
            },
            first_warps(4),
        );
        s.on_long_latency(0);
        let active = s.active_set().unwrap();
        assert!(!active.contains(&0));
        assert!(active.contains(&2), "pending warp promoted");
    }

    #[test]
    fn two_level_caps_active_size() {
        let s = Scheduler::new(
            SchedulerKind::TwoLevel {
                active_per_scheduler: 8,
            },
            first_warps(4),
        );
        assert_eq!(s.active_set().unwrap().len(), 4);
    }

    #[test]
    fn two_level_over_a_strided_group_starts_with_its_lowest_warps() {
        // Scheduler 1 of 4 on a 16-warp SM: warps 1, 5, 9, 13.
        let group = warp_bit(1) | warp_bit(5) | warp_bit(9) | warp_bit(13);
        let mut s = Scheduler::new(
            SchedulerKind::TwoLevel {
                active_per_scheduler: 2,
            },
            group,
        );
        assert_eq!(s.active_set().unwrap(), &[1, 5]);
        assert_eq!(s.pick_mask(warp_bit(9)), None, "the slot promotes 9");
        assert_eq!(s.active_set().unwrap(), &[5, 9]);
        assert_eq!(s.pick_mask(warp_bit(9) | warp_bit(13)), Some(9));
    }

    proptest::proptest! {
        /// Over random eligible masks interleaved with long-latency
        /// demotions, the mask pick and the slice pick it replaced make
        /// the same choices and leave the same state, for every policy.
        #[test]
        fn pick_mask_matches_the_slice_pick(
            policy in 0usize..4,
            num_warps in 1usize..=64,
            steps in proptest::collection::vec(
                (proptest::prelude::any::<u64>(), 0usize..4, 0usize..64),
                1..60,
            ),
        ) {
            let kind = match policy {
                0 => SchedulerKind::Gto,
                1 => SchedulerKind::Lrr,
                2 => SchedulerKind::TwoLevel { active_per_scheduler: 2 },
                _ => SchedulerKind::TwoLevel { active_per_scheduler: 6 },
            };
            let mut fast = Scheduler::new(kind, first_warps(num_warps));
            let mut reference = fast.clone();
            for (bits, action, warp) in steps {
                if action == 0 {
                    // A long-latency issue from one of the group's warps.
                    let w = warp % num_warps;
                    fast.on_long_latency(w);
                    reference.on_long_latency(w);
                } else {
                    // Sparse and dense masks: `action` thins the bits.
                    let mut eligible = bits & first_warps(num_warps);
                    for _ in 1..action {
                        eligible &= bits.rotate_left(17 * action as u32);
                    }
                    let ready: Vec<usize> = warps_in(eligible).collect();
                    proptest::prop_assert_eq!(fast.pick_mask(eligible), reference.pick(&ready));
                }
                proptest::prop_assert_eq!(&fast, &reference);
            }
        }
    }
}
