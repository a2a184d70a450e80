//! SM-local warp sets as `u64` bitmasks: bit `w` stands for warp `w`.
//!
//! Per-warp scheduling state (ready, blocked on the scoreboard or a
//! barrier, admitted by a capacity-throttled design, in a capacity-manager
//! phase) is kept as masks updated at each state change. The per-cycle
//! issue and backend paths then test whole warp sets with a few word
//! operations instead of scanning every warp. One word bounds an SM to
//! [`MAX_WARPS_PER_SM`] warps, which [`crate::GpuConfig::validate`]
//! enforces.

/// A set of SM-local warps, bit `w` = warp `w`.
pub type WarpMask = u64;

/// The most warps one SM can hold (the width of a [`WarpMask`]).
pub const MAX_WARPS_PER_SM: usize = WarpMask::BITS as usize;

/// The singleton set `{w}`.
pub fn warp_bit(w: usize) -> WarpMask {
    debug_assert!(w < MAX_WARPS_PER_SM, "warp {w} does not fit a WarpMask");
    1 << w
}

/// The set `{0, 1, …, n - 1}`.
pub fn first_warps(n: usize) -> WarpMask {
    if n >= MAX_WARPS_PER_SM {
        WarpMask::MAX
    } else {
        (1 << n) - 1
    }
}

/// The warps of `mask`, in ascending order.
pub fn warps_in(mask: WarpMask) -> WarpsIn {
    WarpsIn(mask)
}

/// Iterator over the warps of a [`WarpMask`], lowest first.
#[derive(Clone, Copy, Debug)]
pub struct WarpsIn(WarpMask);

impl Iterator for WarpsIn {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let w = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(w)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iterates_ascending() {
        let m = warp_bit(63) | warp_bit(0) | warp_bit(17);
        assert_eq!(warps_in(m).collect::<Vec<_>>(), [0, 17, 63]);
        assert_eq!(warps_in(0).count(), 0);
    }

    #[test]
    fn first_warps_covers_the_full_word() {
        assert_eq!(first_warps(0), 0);
        assert_eq!(first_warps(3), 0b111);
        assert_eq!(first_warps(64), u64::MAX);
    }
}
