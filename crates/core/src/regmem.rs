//! Register→memory mapping and the register backing store (paper §5.2.3).
//!
//! Register memory is allocated like any other global buffer (the paper
//! hooks `cudaMalloc`), laid out so that every warp's copy of R0 is
//! sequential, then every copy of R1, and so on — warps touch the same
//! register numbers at about the same time, so this layout minimizes cache
//! set conflicts. Compressed registers map to an adjacent second space.

use regless_isa::{LaneVec, Reg};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Byte size of one register's warp-wide value.
pub const REG_LINE_BYTES: u64 = 128;

/// Address map for one SM's spilled registers.
#[derive(Clone, Copy, Debug)]
pub struct RegisterMemoryMap {
    base: u64,
    compressed_base: u64,
    warps_per_sm: usize,
}

impl RegisterMemoryMap {
    /// Create a map. `base` is the start of the register buffer (placed
    /// far above the data heap so register and data lines never alias);
    /// the compressed space sits immediately after the uncompressed one.
    pub fn new(base: u64, warps_per_sm: usize, num_regs: usize) -> Self {
        let uncompressed_bytes = (warps_per_sm * num_regs) as u64 * REG_LINE_BYTES;
        RegisterMemoryMap {
            base,
            compressed_base: base + uncompressed_bytes,
            warps_per_sm,
        }
    }

    /// Default placement used by the simulator.
    pub fn for_sm(sm: usize, warps_per_sm: usize, num_regs: usize) -> Self {
        // Each SM gets its own 1 GiB-aligned window above 1 TiB.
        Self::new((1 << 40) + (sm as u64) * (1 << 30), warps_per_sm, num_regs)
    }

    /// Line address of one (warp, register) value.
    pub fn line_addr(&self, warp: usize, reg: Reg) -> u64 {
        debug_assert!(warp < self.warps_per_sm);
        self.base + (reg.index() * self.warps_per_sm + warp) as u64 * REG_LINE_BYTES
    }

    /// Line address of the compressed line holding a (warp, register).
    pub fn compressed_line_addr(&self, warp: usize, reg: Reg) -> u64 {
        let idx =
            (reg.index() * self.warps_per_sm + warp) / crate::compressor::REGS_PER_COMPRESSED_LINE;
        self.compressed_base + idx as u64 * REG_LINE_BYTES
    }
}

/// Hasher for [`RegisterBacking`]'s packed `(warp, register)` keys: one
/// multiply by an odd constant. The keys are small dense integers chosen
/// by the simulator, so SipHash's collision resistance buys nothing.
#[derive(Clone, Copy, Debug, Default)]
struct SlotHasher(u64);

impl Hasher for SlotHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Value contents of spilled (uncompressed) registers. Presence/timing in
/// the caches is modelled by the memory hierarchy; this map is the
/// "DRAM contents". It stays sparse: only spilled registers are held, where
/// a dense warp × register table would cost 128 bytes for every pair.
#[derive(Clone, Debug, Default)]
pub struct RegisterBacking {
    values: HashMap<u64, LaneVec, BuildHasherDefault<SlotHasher>>,
}

/// The backing-store key of a `(warp, register)` pair.
fn key(warp: usize, reg: Reg) -> u64 {
    ((warp as u64) << 16) | u64::from(reg.0)
}

impl RegisterBacking {
    /// Empty backing store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store an evicted value.
    pub fn store(&mut self, warp: usize, reg: Reg, value: LaneVec) {
        self.values.insert(key(warp, reg), value);
    }

    /// Read a value back; registers never written spill as zero (reads of
    /// never-defined registers).
    pub fn load(&self, warp: usize, reg: Reg) -> LaneVec {
        self.values
            .get(&key(warp, reg))
            .copied()
            .unwrap_or_else(LaneVec::zero)
    }

    /// Drop a dead value.
    pub fn invalidate(&mut self, warp: usize, reg: Reg) {
        self.values.remove(&key(warp, reg));
    }

    /// Number of resident values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no values are resident.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_groups_by_register_number() {
        let m = RegisterMemoryMap::new(0, 4, 8);
        // All warps' R0 are consecutive lines.
        assert_eq!(m.line_addr(0, Reg(0)), 0);
        assert_eq!(m.line_addr(1, Reg(0)), 128);
        assert_eq!(m.line_addr(3, Reg(0)), 3 * 128);
        // R1 starts after all R0s.
        assert_eq!(m.line_addr(0, Reg(1)), 4 * 128);
    }

    #[test]
    fn compressed_space_is_disjoint() {
        let m = RegisterMemoryMap::new(0, 4, 8);
        let max_uncompressed = m.line_addr(3, Reg(7));
        assert!(m.compressed_line_addr(0, Reg(0)) > max_uncompressed);
    }

    #[test]
    fn per_sm_windows_disjoint() {
        let a = RegisterMemoryMap::for_sm(0, 64, 64);
        let b = RegisterMemoryMap::for_sm(1, 64, 64);
        assert!(b.line_addr(0, Reg(0)) > a.line_addr(63, Reg(63)));
    }

    #[test]
    fn backing_store_roundtrip() {
        let mut b = RegisterBacking::new();
        assert!(b.is_empty());
        b.store(2, Reg(5), LaneVec::splat(9));
        assert_eq!(b.load(2, Reg(5)), LaneVec::splat(9));
        assert_eq!(b.load(2, Reg(6)), LaneVec::zero());
        b.invalidate(2, Reg(5));
        assert_eq!(b.load(2, Reg(5)), LaneVec::zero());
        assert_eq!(b.len(), 0);
    }
}
