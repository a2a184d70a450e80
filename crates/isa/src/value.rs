//! Warp-wide register values.

use crate::reg::{LaneMask, WARP_WIDTH};
use std::fmt;

/// The 32-bit values a register holds across every lane of a warp.
///
/// One `LaneVec` is exactly the 128-byte payload that the register file, the
/// operand staging unit, and an L1 cache line move as a unit. Keeping
/// concrete per-lane values (rather than an abstract "register is live" flag)
/// lets the RegLess compressor operate on the real value patterns that arise
/// in kernels: broadcast constants, thread-index strides, and so on.
///
/// ```
/// use regless_isa::LaneVec;
/// let tid = LaneVec::stride(100, 1);
/// assert_eq!(tid.lane(0), 100);
/// assert_eq!(tid.lane(31), 131);
/// assert!(LaneVec::splat(7).is_uniform());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaneVec(pub [u32; WARP_WIDTH]);

impl LaneVec {
    /// All lanes zero.
    #[inline]
    pub fn zero() -> Self {
        LaneVec([0; WARP_WIDTH])
    }

    /// Every lane holds the same value (a broadcast constant).
    #[inline]
    pub fn splat(value: u32) -> Self {
        LaneVec([value; WARP_WIDTH])
    }

    /// Lane `i` holds `base + i * step` (wrapping), the pattern produced by
    /// thread-index computations.
    pub fn stride(base: u32, step: u32) -> Self {
        let mut v = [0; WARP_WIDTH];
        for (i, lane) in v.iter_mut().enumerate() {
            *lane = base.wrapping_add(step.wrapping_mul(i as u32));
        }
        LaneVec(v)
    }

    /// The value held by one lane.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= WARP_WIDTH`.
    #[inline]
    pub fn lane(&self, lane: usize) -> u32 {
        self.0[lane]
    }

    /// Set the value held by one lane.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= WARP_WIDTH`.
    #[inline]
    pub fn set_lane(&mut self, lane: usize, value: u32) {
        self.0[lane] = value;
    }

    /// Whether every lane holds the same value.
    pub fn is_uniform(&self) -> bool {
        self.0.iter().all(|&v| v == self.0[0])
    }

    /// Apply a binary lane-wise operation.
    pub fn zip_map(&self, other: &LaneVec, mut f: impl FnMut(u32, u32) -> u32) -> LaneVec {
        let mut out = [0; WARP_WIDTH];
        for (i, o) in out.iter_mut().enumerate() {
            *o = f(self.0[i], other.0[i]);
        }
        LaneVec(out)
    }

    /// Apply a unary lane-wise operation.
    pub fn map(&self, mut f: impl FnMut(u32) -> u32) -> LaneVec {
        let mut out = [0; WARP_WIDTH];
        for (i, o) in out.iter_mut().enumerate() {
            *o = f(self.0[i]);
        }
        LaneVec(out)
    }

    /// `value` in the lanes of `mask`, `self` in the others: the write of a
    /// partially active warp, which keeps inactive lanes' old values.
    /// Branch-free, so the compiler can vectorize it.
    #[inline]
    pub fn blend(&self, value: &LaneVec, mask: LaneMask) -> LaneVec {
        let mut out = [0; WARP_WIDTH];
        for (i, o) in out.iter_mut().enumerate() {
            let take = 0u32.wrapping_sub((mask.0 >> i) & 1);
            *o = (value.0[i] & take) | (self.0[i] & !take);
        }
        LaneVec(out)
    }

    /// A bitmap with bit `i` set iff lane `i`'s value is non-zero; the form
    /// branch conditions take.
    pub fn nonzero_bits(&self) -> u32 {
        let mut bits = 0u32;
        for (i, &v) in self.0.iter().enumerate() {
            if v != 0 {
                bits |= 1 << i;
            }
        }
        bits
    }
}

impl Default for LaneVec {
    fn default() -> Self {
        LaneVec::zero()
    }
}

impl fmt::Debug for LaneVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_uniform() {
            write!(f, "LaneVec(splat {})", self.0[0])
        } else {
            write!(
                f,
                "LaneVec({}, {}, …, {})",
                self.0[0],
                self.0[1],
                self.0[WARP_WIDTH - 1]
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splat_is_uniform() {
        assert!(LaneVec::splat(42).is_uniform());
        assert!(!LaneVec::stride(0, 3).is_uniform());
        assert!(LaneVec::stride(9, 0).is_uniform());
    }

    #[test]
    fn stride_values() {
        let v = LaneVec::stride(10, 4);
        assert_eq!(v.lane(0), 10);
        assert_eq!(v.lane(5), 30);
    }

    #[test]
    fn stride_wraps() {
        let v = LaneVec::stride(u32::MAX, 1);
        assert_eq!(v.lane(1), 0);
    }

    #[test]
    fn zip_map_adds() {
        let a = LaneVec::stride(0, 1);
        let b = LaneVec::splat(100);
        let c = a.zip_map(&b, |x, y| x + y);
        assert_eq!(c.lane(7), 107);
    }

    /// The per-lane merge `blend` replaces: start from the old value and
    /// overwrite each active lane.
    fn blend_by_lanes(old: &LaneVec, value: &LaneVec, mask: LaneMask) -> LaneVec {
        let mut merged = *old;
        for l in mask.iter() {
            merged.set_lane(l, value.lane(l));
        }
        merged
    }

    #[test]
    fn blend_takes_active_lanes_only() {
        let old = LaneVec::splat(7);
        let new = LaneVec::stride(100, 1);
        assert_eq!(old.blend(&new, LaneMask::none()), old);
        assert_eq!(old.blend(&new, LaneMask::all()), new);
        let half = old.blend(&new, LaneMask(0x0000_ffff));
        assert_eq!(half.lane(0), 100);
        assert_eq!(half.lane(15), 115);
        assert_eq!(half.lane(16), 7);
    }

    proptest::proptest! {
        /// `blend` equals the per-lane loop on random values, for the
        /// empty mask, the full mask and random masks.
        #[test]
        fn blend_matches_the_per_lane_merge(
            old in proptest::collection::vec(proptest::prelude::any::<u32>(), WARP_WIDTH),
            new in proptest::collection::vec(proptest::prelude::any::<u32>(), WARP_WIDTH),
            bits in proptest::prelude::any::<u32>(),
        ) {
            let old = LaneVec(old.try_into().unwrap());
            let new = LaneVec(new.try_into().unwrap());
            for mask in [LaneMask::none(), LaneMask::all(), LaneMask(bits)] {
                proptest::prop_assert_eq!(old.blend(&new, mask), blend_by_lanes(&old, &new, mask));
            }
        }
    }

    #[test]
    fn nonzero_bits_matches_lanes() {
        let mut v = LaneVec::zero();
        v.set_lane(0, 1);
        v.set_lane(31, 5);
        assert_eq!(v.nonzero_bits(), (1 << 0) | (1 << 31));
    }
}
