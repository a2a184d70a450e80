//! Set-associative cache tag model with LRU replacement.

use crate::config::CacheConfig;

/// One cache line's bookkeeping.
#[derive(Clone, Copy, Debug)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    last_used: u64,
}

impl Line {
    fn empty() -> Self {
        Line {
            tag: 0,
            valid: false,
            dirty: false,
            last_used: 0,
        }
    }
}

/// Result of a cache access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AccessResult {
    /// Whether the line was present.
    pub hit: bool,
    /// Whether a dirty line was evicted to make room (write-back traffic).
    pub evicted_dirty: bool,
    /// Address of the displaced dirty line, when one was written back.
    pub evicted_addr: Option<u64>,
}

/// A set-associative write-back cache tag array.
///
/// Only presence is modelled — data contents live with the caller. The
/// RegLess L1 uses write-back, *no fetch on write* for register lines
/// (paper §5.2.3): [`Cache::write_allocate_no_fetch`] installs a dirty line
/// without a fill.
///
/// Line size and set count are powers of two, so an address splits into
/// tag, set and offset with shifts and a mask (no division per access).
#[derive(Clone, Debug)]
pub struct Cache {
    /// Every set's ways, set-major: set `s` is `lines[s * assoc..][..assoc]`.
    lines: Vec<Line>,
    assoc: usize,
    /// `num_sets - 1`.
    set_mask: usize,
    /// `log2(line_bytes)`.
    line_shift: u32,
    /// `log2(num_sets)`.
    set_shift: u32,
    tick: u64,
}

impl Cache {
    /// Build an empty cache with the given shape.
    ///
    /// # Panics
    ///
    /// Panics if the configuration yields zero sets, or if the line size
    /// or set count is not a power of two ([`CacheConfig::check_shape`]).
    pub fn new(config: &CacheConfig) -> Self {
        config.check_shape("cache");
        Cache {
            lines: vec![Line::empty(); config.assoc * config.num_sets()],
            assoc: config.assoc,
            set_mask: config.num_sets() - 1,
            line_shift: config.line_bytes.trailing_zeros(),
            set_shift: config.num_sets().trailing_zeros(),
            tick: 0,
        }
    }

    fn set(&self, set: usize) -> &[Line] {
        &self.lines[set * self.assoc..][..self.assoc]
    }

    fn set_mut(&mut self, set: usize) -> &mut [Line] {
        &mut self.lines[set * self.assoc..][..self.assoc]
    }

    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        ((line as usize) & self.set_mask, line >> self.set_shift)
    }

    /// Probe without modifying state.
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.set(set).iter().any(|l| l.valid && l.tag == tag)
    }

    /// Access `addr`; on a miss, fill the line (evicting LRU). `write`
    /// marks the line dirty.
    pub fn access(&mut self, addr: u64, write: bool) -> AccessResult {
        self.tick += 1;
        let tick = self.tick;
        let (set, tag) = self.set_and_tag(addr);
        let lines = self.set_mut(set);
        if let Some(line) = lines.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.last_used = tick;
            line.dirty |= write;
            return AccessResult {
                hit: true,
                evicted_dirty: false,
                evicted_addr: None,
            };
        }
        let (set_shift, line_shift) = (self.set_shift, self.line_shift);
        let victim = self
            .set_mut(set)
            .iter_mut()
            .min_by_key(|l| if l.valid { l.last_used } else { 0 })
            .expect("associativity > 0");
        let evicted_dirty = victim.valid && victim.dirty;
        let evicted_addr =
            evicted_dirty.then(|| ((victim.tag << set_shift) | set as u64) << line_shift);
        *victim = Line {
            tag,
            valid: true,
            dirty: write,
            last_used: tick,
        };
        AccessResult {
            hit: false,
            evicted_dirty,
            evicted_addr,
        }
    }

    /// Install `addr` as a dirty line without fetching the old contents
    /// (RegLess register stores overwrite whole lines, paper §5.2.3).
    /// Returns whether a dirty victim was displaced.
    pub fn write_allocate_no_fetch(&mut self, addr: u64) -> bool {
        self.access(addr, true).evicted_dirty
    }

    /// Invalidate `addr` if present; returns whether a line was dropped.
    /// The dropped line's dirty state is discarded (register invalidations
    /// delete dead values, so no write-back is needed).
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        for line in self.set_mut(set) {
            if line.valid && line.tag == tag {
                line.valid = false;
                line.dirty = false;
                return true;
            }
        }
        false
    }

    /// Number of valid lines (for occupancy checks in tests).
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 128B = 1 KB
        Cache::new(&CacheConfig {
            bytes: 1024,
            assoc: 2,
            line_bytes: 128,
            hit_latency: 1,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0, false).hit);
        assert!(c.access(0, false).hit);
        assert!(c.access(64, false).hit, "same line");
        assert!(!c.access(128, false).hit, "next line");
    }

    #[test]
    fn lru_eviction() {
        let mut c = tiny();
        // Three lines mapping to the same set (stride = sets * line = 512).
        c.access(0, false);
        c.access(512, false);
        c.access(0, false); // refresh 0
        let r = c.access(1024, false); // evicts 512 (LRU)
        assert!(!r.hit);
        assert!(c.probe(0));
        assert!(!c.probe(512));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = tiny();
        c.access(0, true);
        c.access(512, false);
        let r = c.access(1024, false); // evicts dirty 0
        assert!(r.evicted_dirty);
    }

    #[test]
    fn invalidate_removes() {
        let mut c = tiny();
        c.access(0, true);
        assert!(c.invalidate(0));
        assert!(!c.probe(0));
        assert!(!c.invalidate(0));
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn write_allocate_no_fetch_installs_dirty() {
        let mut c = tiny();
        c.write_allocate_no_fetch(256);
        assert!(c.probe(256));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::config::{CacheConfig, GpuConfig};
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// A reference model: per-set LRU lists.
    #[derive(Default)]
    struct RefCache {
        sets: HashMap<usize, Vec<u64>>, // most-recent last
    }

    impl RefCache {
        /// Access `line`; returns whether it hit and the line evicted to
        /// make room, if any.
        fn access(&mut self, sets: usize, assoc: usize, line: u64) -> (bool, Option<u64>) {
            let set = self.sets.entry((line as usize) % sets).or_default();
            let hit = if let Some(pos) = set.iter().position(|&l| l == line) {
                set.remove(pos);
                true
            } else {
                false
            };
            set.push(line);
            let evicted = (set.len() > assoc).then(|| set.remove(0));
            (hit, evicted)
        }
    }

    proptest! {
        /// Hits, misses and written-back victims match an LRU reference
        /// model exactly, on a tiny shape and on the GTX 980's L1 (64 sets
        /// × 6 ways) and L2-partition (256 sets × 16 ways) shapes. Accesses
        /// hit four sets with up to 24 tags each, so every shape's ways
        /// fill and evict.
        #[test]
        fn matches_lru_reference(
            shape in 0usize..3,
            picks in proptest::collection::vec((0u64..4, 0u64..24), 1..400),
        ) {
            let gtx = GpuConfig::gtx980();
            let tiny = CacheConfig { bytes: 1024, assoc: 2, line_bytes: 128, hit_latency: 1 };
            let config = [tiny, gtx.l1, gtx.l2_partition()][shape];
            let sets = config.num_sets();
            let line_bytes = config.line_bytes as u64;
            let mut cache = Cache::new(&config);
            let mut reference = RefCache::default();
            for &(set, tag) in &picks {
                let line = tag * sets as u64 + set;
                // Writes make every line dirty, so each eviction reports
                // its victim's address.
                let got = cache.access(line * line_bytes, true);
                let (hit, evicted) = reference.access(sets, config.assoc, line);
                prop_assert_eq!(got.hit, hit, "shape {} line {}", shape, line);
                prop_assert_eq!(got.evicted_addr, evicted.map(|l| l * line_bytes));
            }
        }

        /// Occupancy never exceeds capacity, and invalidation removes
        /// exactly the named line.
        #[test]
        fn occupancy_bounded(ops in proptest::collection::vec((0u64..64, any::<bool>()), 1..200)) {
            let config = CacheConfig { bytes: 2048, assoc: 4, line_bytes: 128, hit_latency: 1 };
            let capacity = config.bytes / config.line_bytes;
            let mut cache = Cache::new(&config);
            for &(line, inval) in &ops {
                if inval {
                    cache.invalidate(line * 128);
                    prop_assert!(!cache.probe(line * 128));
                } else {
                    cache.access(line * 128, true);
                    prop_assert!(cache.probe(line * 128));
                }
                prop_assert!(cache.occupancy() <= capacity);
            }
        }
    }
}
