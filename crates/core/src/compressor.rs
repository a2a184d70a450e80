//! Register-value compression (paper §5.3).
//!
//! Registers evicted from the OSU are matched against a small set of value
//! patterns — deliberately simpler than general register-file compression:
//! broadcast constants, stride-1 and stride-4 sequences, and half-warp
//! variants of the strides. A compressed register needs 4 bytes (8 for the
//! half-warp forms) plus 3 state bits, so 15 compressed registers fit in
//! one 128-byte cache line. The compressor keeps a small internal cache of
//! compressed lines; lines that fall out of it travel through the L1.

use regless_isa::{LaneVec, Reg, WARP_WIDTH};

/// Which value patterns the compressor matches — the pattern-set ablation
/// of DESIGN.md §4. The paper's design is [`PatternSet::Full`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum PatternSet {
    /// Only broadcast constants.
    ConstantOnly,
    /// Constants plus full-warp stride-1/stride-4.
    FullWarpStrides,
    /// The paper's set: constants, strides, and half-warp strides.
    #[default]
    Full,
}

regless_json::impl_json_enum!(PatternSet {
    ConstantOnly,
    FullWarpStrides,
    Full
});

/// A compressed register representation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Compressed {
    /// Every lane holds `value`.
    Constant(u32),
    /// Lane `i` holds `base + i`.
    Stride1(u32),
    /// Lane `i` holds `base + 4 * i`.
    Stride4(u32),
    /// Each 16-lane half is its own stride-1 sequence.
    HalfStride1(u32, u32),
    /// Each 16-lane half is its own stride-4 sequence.
    HalfStride4(u32, u32),
}

impl Compressed {
    /// Try to compress a register value with the paper's full pattern set.
    pub fn try_compress(v: &LaneVec) -> Option<Compressed> {
        Self::try_compress_with(v, PatternSet::Full)
    }

    /// Try to compress a register value with a restricted pattern set.
    pub fn try_compress_with(v: &LaneVec, patterns: PatternSet) -> Option<Compressed> {
        if v.is_uniform() {
            return Some(Compressed::Constant(v.lane(0)));
        }
        if patterns == PatternSet::ConstantOnly {
            return None;
        }
        let stride = |base: u32, step: u32, lo: usize, hi: usize| {
            (lo..hi).all(|i| v.lane(i) == base.wrapping_add(step.wrapping_mul((i - lo) as u32)))
        };
        if stride(v.lane(0), 1, 0, WARP_WIDTH) {
            return Some(Compressed::Stride1(v.lane(0)));
        }
        if stride(v.lane(0), 4, 0, WARP_WIDTH) {
            return Some(Compressed::Stride4(v.lane(0)));
        }
        if patterns == PatternSet::FullWarpStrides {
            return None;
        }
        let half = WARP_WIDTH / 2;
        if stride(v.lane(0), 1, 0, half) && stride(v.lane(half), 1, half, WARP_WIDTH) {
            return Some(Compressed::HalfStride1(v.lane(0), v.lane(half)));
        }
        if stride(v.lane(0), 4, 0, half) && stride(v.lane(half), 4, half, WARP_WIDTH) {
            return Some(Compressed::HalfStride4(v.lane(0), v.lane(half)));
        }
        None
    }

    /// Reconstruct the full register value.
    pub fn decompress(&self) -> LaneVec {
        let half = WARP_WIDTH / 2;
        match *self {
            Compressed::Constant(v) => LaneVec::splat(v),
            Compressed::Stride1(b) => LaneVec::stride(b, 1),
            Compressed::Stride4(b) => LaneVec::stride(b, 4),
            Compressed::HalfStride1(a, b) => half_stride(a, b, 1, half),
            Compressed::HalfStride4(a, b) => half_stride(a, b, 4, half),
        }
    }

    /// Stored payload size in bytes (excluding the 3 state bits).
    pub fn bytes(&self) -> usize {
        match self {
            Compressed::Constant(_) | Compressed::Stride1(_) | Compressed::Stride4(_) => 4,
            Compressed::HalfStride1(..) | Compressed::HalfStride4(..) => 8,
        }
    }
}

fn half_stride(a: u32, b: u32, step: u32, half: usize) -> LaneVec {
    let mut v = LaneVec::zero();
    for i in 0..half {
        v.set_lane(i, a.wrapping_add(step.wrapping_mul(i as u32)));
    }
    for i in half..WARP_WIDTH {
        v.set_lane(i, b.wrapping_add(step.wrapping_mul((i - half) as u32)));
    }
    v
}

/// Compressed registers per 128-byte line (paper: 15, leaving room for the
/// per-register state bits).
pub const REGS_PER_COMPRESSED_LINE: usize = 15;

/// The pattern a compressed value matched, without its payload: the closed
/// vocabulary the effectiveness counters are keyed by.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PatternKind {
    /// Every lane equal.
    Constant,
    /// Full-warp stride-1.
    Stride1,
    /// Full-warp stride-4.
    Stride4,
    /// Per-half stride-1.
    HalfStride1,
    /// Per-half stride-4.
    HalfStride4,
}

/// Number of [`PatternKind`] variants.
pub const NUM_PATTERN_KINDS: usize = 5;

impl PatternKind {
    /// All kinds, in display (and counter) order.
    pub const ALL: [PatternKind; NUM_PATTERN_KINDS] = [
        PatternKind::Constant,
        PatternKind::Stride1,
        PatternKind::Stride4,
        PatternKind::HalfStride1,
        PatternKind::HalfStride4,
    ];

    /// Dense index in [`PatternKind::ALL`].
    pub fn index(self) -> usize {
        match self {
            PatternKind::Constant => 0,
            PatternKind::Stride1 => 1,
            PatternKind::Stride4 => 2,
            PatternKind::HalfStride1 => 3,
            PatternKind::HalfStride4 => 4,
        }
    }

    /// Stable snake_case name for counters and report rows.
    pub fn name(self) -> &'static str {
        match self {
            PatternKind::Constant => "constant",
            PatternKind::Stride1 => "stride1",
            PatternKind::Stride4 => "stride4",
            PatternKind::HalfStride1 => "half_stride1",
            PatternKind::HalfStride4 => "half_stride4",
        }
    }

    /// Payload bytes of a value stored under this pattern.
    pub fn payload_bytes(self) -> usize {
        match self {
            PatternKind::Constant | PatternKind::Stride1 | PatternKind::Stride4 => 4,
            PatternKind::HalfStride1 | PatternKind::HalfStride4 => 8,
        }
    }
}

impl Compressed {
    /// The pattern this value matched.
    pub fn kind(&self) -> PatternKind {
        match self {
            Compressed::Constant(_) => PatternKind::Constant,
            Compressed::Stride1(_) => PatternKind::Stride1,
            Compressed::Stride4(_) => PatternKind::Stride4,
            Compressed::HalfStride1(..) => PatternKind::HalfStride1,
            Compressed::HalfStride4(..) => PatternKind::HalfStride4,
        }
    }
}

/// What happened when a register was offered to the compressor on eviction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StoreOutcome {
    /// The value matched a pattern and was absorbed; `line_miss` says
    /// whether the compressed line had to be fetched through the L1.
    Compressed {
        /// The internal line cache missed (one L1 access).
        line_miss: bool,
        /// Which pattern matched (for the effectiveness counters).
        kind: PatternKind,
    },
    /// The value matched no pattern; it must go to the L1 uncompressed.
    Incompressible,
}

/// Result of asking the compressor for a register during preload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CompressedHit {
    /// The reconstructed value.
    pub value: LaneVec,
    /// Whether the compressed line had to come through the L1.
    pub line_miss: bool,
}

/// One shard's compressor: the compressed-register bit vector, the value
/// table, and a small LRU cache of compressed lines.
///
/// ```
/// use regless_core::{Compressor, StoreOutcome};
/// use regless_isa::{LaneVec, Reg};
///
/// let mut comp = Compressor::new(12, 64, true);
/// let tid = LaneVec::stride(32, 1); // a thread-index pattern
/// assert!(matches!(
///     comp.store(0, Reg(2), &tid),
///     StoreOutcome::Compressed { .. }
/// ));
/// let hit = comp.load(0, Reg(2)).expect("resident");
/// assert_eq!(hit.value, tid);
/// ```
#[derive(Clone, Debug)]
pub struct Compressor {
    /// Register → compressed value, laid out like register memory
    /// (`reg * warps_per_sm + warp`) and grown as higher registers appear.
    /// Presence here is the paper's "compressed" bit vector.
    table: Vec<Option<Compressed>>,
    /// Internal cache of compressed line ids (LRU).
    cache: Vec<(u64, u64)>,
    capacity: usize,
    warps_per_sm: usize,
    tick: u64,
    enabled: bool,
    patterns: PatternSet,
}

impl Compressor {
    /// A compressor with an internal cache of `cache_lines` compressed
    /// lines. A disabled compressor (the Figure 16 ablation) reports every
    /// value incompressible.
    pub fn new(cache_lines: usize, warps_per_sm: usize, enabled: bool) -> Self {
        Self::with_patterns(cache_lines, warps_per_sm, enabled, PatternSet::Full)
    }

    /// As [`Compressor::new`], restricted to a pattern subset (ablation).
    pub fn with_patterns(
        cache_lines: usize,
        warps_per_sm: usize,
        enabled: bool,
        patterns: PatternSet,
    ) -> Self {
        Compressor {
            table: Vec::new(),
            cache: Vec::new(),
            capacity: cache_lines.max(1),
            warps_per_sm,
            tick: 0,
            enabled,
            patterns,
        }
    }

    /// A register's position in the register→memory layout (all of R0,
    /// then all of R1, …).
    fn slot(&self, warp: usize, reg: Reg) -> usize {
        assert!(
            warp < self.warps_per_sm,
            "warp {warp} outside the compressor's {} warps",
            self.warps_per_sm
        );
        reg.index() * self.warps_per_sm + warp
    }

    /// The compressed line a register belongs to.
    fn line_of(&self, warp: usize, reg: Reg) -> u64 {
        (self.slot(warp, reg) / REGS_PER_COMPRESSED_LINE) as u64
    }

    fn entry(&self, warp: usize, reg: Reg) -> Option<Compressed> {
        self.table.get(self.slot(warp, reg)).copied().flatten()
    }

    /// Set or clear a register's compressed value.
    fn set_entry(&mut self, warp: usize, reg: Reg, value: Option<Compressed>) {
        let slot = self.slot(warp, reg);
        if slot >= self.table.len() {
            if value.is_none() {
                return;
            }
            self.table
                .resize((reg.index() + 1) * self.warps_per_sm, None);
        }
        self.table[slot] = value;
    }

    /// Touch a line in the internal cache; returns whether it missed.
    fn touch_line(&mut self, line: u64) -> bool {
        self.tick += 1;
        if let Some(entry) = self.cache.iter_mut().find(|(l, _)| *l == line) {
            entry.1 = self.tick;
            return false;
        }
        if self.cache.len() >= self.capacity {
            let (idx, _) = self
                .cache
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, t))| *t)
                .expect("cache non-empty");
            self.cache.swap_remove(idx);
        }
        self.cache.push((line, self.tick));
        true
    }

    /// Whether the register is currently stored compressed (the bit-vector
    /// check that precedes any line fetch).
    pub fn is_compressed(&self, warp: usize, reg: Reg) -> bool {
        self.entry(warp, reg).is_some()
    }

    /// Offer an evicted register value.
    pub fn store(&mut self, warp: usize, reg: Reg, value: &LaneVec) -> StoreOutcome {
        if !self.enabled {
            return StoreOutcome::Incompressible;
        }
        match Compressed::try_compress_with(value, self.patterns) {
            Some(c) => {
                let line = self.line_of(warp, reg);
                let line_miss = self.touch_line(line);
                self.set_entry(warp, reg, Some(c));
                StoreOutcome::Compressed {
                    line_miss,
                    kind: c.kind(),
                }
            }
            None => {
                // A stale compressed copy must not shadow the new value.
                self.set_entry(warp, reg, None);
                StoreOutcome::Incompressible
            }
        }
    }

    /// Fetch a compressed register during preload, if present.
    pub fn load(&mut self, warp: usize, reg: Reg) -> Option<CompressedHit> {
        let c = self.entry(warp, reg)?;
        let line = self.line_of(warp, reg);
        let line_miss = self.touch_line(line);
        Some(CompressedHit {
            value: c.decompress(),
            line_miss,
        })
    }

    /// Drop a register (invalidating read or cache-invalidate annotation).
    pub fn invalidate(&mut self, warp: usize, reg: Reg) {
        self.set_entry(warp, reg, None);
    }

    /// Number of registers currently held compressed.
    pub fn resident(&self) -> usize {
        self.table.iter().filter(|e| e.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patterns_compress() {
        assert_eq!(
            Compressed::try_compress(&LaneVec::splat(7)),
            Some(Compressed::Constant(7))
        );
        assert_eq!(
            Compressed::try_compress(&LaneVec::stride(100, 1)),
            Some(Compressed::Stride1(100))
        );
        assert_eq!(
            Compressed::try_compress(&LaneVec::stride(64, 4)),
            Some(Compressed::Stride4(64))
        );
    }

    #[test]
    fn half_warp_patterns() {
        let mut v = LaneVec::zero();
        for i in 0..16 {
            v.set_lane(i, 1000 + i as u32);
        }
        for i in 16..32 {
            v.set_lane(i, 5000 + (i - 16) as u32);
        }
        assert_eq!(
            Compressed::try_compress(&v),
            Some(Compressed::HalfStride1(1000, 5000))
        );
    }

    #[test]
    fn random_values_incompressible() {
        let mut v = LaneVec::zero();
        for i in 0..32 {
            v.set_lane(i, (i as u32).wrapping_mul(0x9e37_79b9));
        }
        assert_eq!(Compressed::try_compress(&v), None);
    }

    #[test]
    fn roundtrip() {
        for v in [
            LaneVec::splat(3),
            LaneVec::stride(7, 1),
            LaneVec::stride(0, 4),
        ] {
            let c = Compressed::try_compress(&v).unwrap();
            assert_eq!(c.decompress(), v);
        }
    }

    #[test]
    fn store_and_load() {
        let mut c = Compressor::new(4, 8, true);
        let v = LaneVec::stride(0, 1);
        assert!(matches!(
            c.store(0, Reg(0), &v),
            StoreOutcome::Compressed { .. }
        ));
        assert!(c.is_compressed(0, Reg(0)));
        let hit = c.load(0, Reg(0)).unwrap();
        assert_eq!(hit.value, v);
        c.invalidate(0, Reg(0));
        assert!(!c.is_compressed(0, Reg(0)));
        assert!(c.load(0, Reg(0)).is_none());
    }

    #[test]
    fn incompressible_clears_stale_entry() {
        let mut c = Compressor::new(4, 8, true);
        c.store(0, Reg(0), &LaneVec::splat(1));
        let mut random = LaneVec::zero();
        for i in 0..32 {
            random.set_lane(i, (i as u32).wrapping_mul(2654435761));
        }
        assert_eq!(c.store(0, Reg(0), &random), StoreOutcome::Incompressible);
        assert!(!c.is_compressed(0, Reg(0)));
    }

    #[test]
    fn restricted_pattern_sets() {
        let stride = LaneVec::stride(5, 1);
        let constant = LaneVec::splat(5);
        assert_eq!(
            Compressed::try_compress_with(&stride, PatternSet::ConstantOnly),
            None
        );
        assert!(Compressed::try_compress_with(&constant, PatternSet::ConstantOnly).is_some());
        let mut half = LaneVec::zero();
        for i in 0..16 {
            half.set_lane(i, 10 + i as u32);
        }
        for i in 16..32 {
            half.set_lane(i, 900 + (i - 16) as u32);
        }
        assert_eq!(
            Compressed::try_compress_with(&half, PatternSet::FullWarpStrides),
            None
        );
        assert!(Compressed::try_compress_with(&half, PatternSet::Full).is_some());
    }

    #[test]
    fn disabled_compressor_rejects_everything() {
        let mut c = Compressor::new(4, 8, false);
        assert_eq!(
            c.store(0, Reg(0), &LaneVec::splat(1)),
            StoreOutcome::Incompressible
        );
    }

    #[test]
    fn line_cache_lru() {
        let mut c = Compressor::new(2, 1, true);
        // Registers far apart map to distinct compressed lines.
        let far = |i: u16| Reg(i * REGS_PER_COMPRESSED_LINE as u16);
        assert!(matches!(
            c.store(0, far(0), &LaneVec::splat(0)),
            StoreOutcome::Compressed {
                line_miss: true,
                ..
            }
        ));
        assert!(matches!(
            c.store(0, far(1), &LaneVec::splat(0)),
            StoreOutcome::Compressed {
                line_miss: true,
                ..
            }
        ));
        // Line 0 still cached.
        assert!(matches!(
            c.store(0, far(0), &LaneVec::splat(1)),
            StoreOutcome::Compressed {
                line_miss: false,
                ..
            }
        ));
        // Adding a third line evicts the LRU (line 1).
        assert!(matches!(
            c.store(0, far(2), &LaneVec::splat(0)),
            StoreOutcome::Compressed {
                line_miss: true,
                ..
            }
        ));
        assert!(matches!(
            c.store(0, far(1), &LaneVec::splat(2)),
            StoreOutcome::Compressed {
                line_miss: true,
                ..
            }
        ));
    }

    #[test]
    fn payload_sizes() {
        assert_eq!(Compressed::Constant(1).bytes(), 4);
        assert_eq!(Compressed::HalfStride1(0, 1).bytes(), 8);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Compression is lossless whenever it succeeds.
        #[test]
        fn compress_roundtrips(base: u32, step in prop_oneof![Just(0u32), Just(1), Just(4)]) {
            let v = LaneVec::stride(base, step);
            let c = Compressed::try_compress(&v).expect("strides compress");
            prop_assert_eq!(c.decompress(), v);
        }

        /// Arbitrary half-warp strides roundtrip.
        #[test]
        fn half_roundtrips(a: u32, b: u32, step in prop_oneof![Just(1u32), Just(4)]) {
            let mut v = LaneVec::zero();
            for i in 0..16 {
                v.set_lane(i, a.wrapping_add(step * i as u32));
            }
            for i in 16..32 {
                v.set_lane(i, b.wrapping_add(step * (i as u32 - 16)));
            }
            let c = Compressed::try_compress(&v).expect("half strides compress");
            prop_assert_eq!(c.decompress(), v);
        }

        /// Decompressing any compression of any value yields the value.
        #[test]
        fn no_false_matches(vals in proptest::collection::vec(any::<u32>(), 32)) {
            let mut v = LaneVec::zero();
            for (i, &x) in vals.iter().enumerate() {
                v.set_lane(i, x);
            }
            if let Some(c) = Compressed::try_compress(&v) {
                prop_assert_eq!(c.decompress(), v);
            }
        }
    }
}
