//! The memory hierarchy: per-SM L1s, a shared L2, and DRAM.
//!
//! Timing is compositional: every structure has a port that accepts a
//! bounded number of requests per cycle, tracked with next-free-cycle
//! counters; a request's completion time is the sum of queueing delays and
//! hit latencies along its path. The L1 accepts **one request per cycle per
//! SM** — the scarce resource that shapes the whole RegLess design (§2.2).

use crate::cache::Cache;
use crate::config::{Cycle, GpuConfig};
use crate::stats::MemStats;

/// Which traffic class an access belongs to (for statistics and the
/// bypass policy).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Traffic {
    /// Ordinary global loads/stores from kernel code.
    Data,
    /// RegLess register preloads/evictions/invalidations.
    Register,
}

/// Outcome of a global-memory request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemAccess {
    /// Cycle at which the data is available (loads) or accepted (stores).
    pub done: Cycle,
    /// Deepest level that serviced the request.
    pub serviced_by: Level,
}

/// Memory level that ultimately serviced a request.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Level {
    /// Hit in the SM's L1.
    L1,
    /// Hit in the shared L2.
    L2,
    /// Went to DRAM.
    Dram,
}

/// A multi-port bandwidth regulator: at most `ports` requests may start per
/// cycle; excess requests queue.
#[derive(Clone, Debug)]
struct PortSet {
    ports: Vec<Cycle>,
}

impl PortSet {
    fn new(n: usize) -> Self {
        PortSet { ports: vec![0; n] }
    }

    /// Reserve the earliest slot at or after `now`; returns the start cycle.
    fn reserve(&mut self, now: Cycle) -> Cycle {
        let slot = self
            .ports
            .iter_mut()
            .min_by_key(|c| **c)
            .expect("at least one port");
        let start = now.max(*slot);
        *slot = start + 1;
        start
    }
}

/// Simple MSHR model: at most `n` outstanding misses; a full file delays
/// the next miss until the earliest outstanding one retires.
#[derive(Clone, Debug)]
struct MshrFile {
    completions: Vec<Cycle>,
    capacity: usize,
    /// Reused buffer for [`MshrFile::full_until`]'s selection, so the
    /// query allocates nothing.
    scratch: Vec<Cycle>,
}

impl MshrFile {
    fn new(capacity: usize) -> Self {
        MshrFile {
            completions: Vec::new(),
            capacity,
            scratch: Vec::new(),
        }
    }

    /// Returns the earliest cycle a new miss may start, given `now`.
    fn admit(&mut self, now: Cycle) -> Cycle {
        self.completions.retain(|&c| c > now);
        if self.completions.len() < self.capacity {
            now
        } else {
            let earliest = self.completions.iter().copied().min().unwrap_or(now);
            self.completions.retain(|&c| c > earliest);
            earliest
        }
    }

    fn record(&mut self, completion: Cycle) {
        self.completions.push(completion);
    }

    /// Whether the file is full at `now` (read-only: stale completions are
    /// filtered, not retired, so attribution queries never perturb state).
    fn is_full(&self, now: Cycle) -> bool {
        self.completions.len() >= self.capacity
            && self.completions.iter().filter(|&&c| c > now).count() >= self.capacity
    }

    /// First cycle at which the file is no longer full, assuming no new
    /// misses are admitted: `is_full(t)` holds exactly for `t <
    /// full_until()`. With fewer outstanding misses than capacity this is 0
    /// (never full); otherwise it is the capacity-th largest completion.
    fn full_until(&mut self) -> Cycle {
        if self.completions.len() < self.capacity {
            return 0;
        }
        self.scratch.clear();
        self.scratch.extend_from_slice(&self.completions);
        *self
            .scratch
            .select_nth_unstable_by(self.capacity - 1, |a, b| b.cmp(a))
            .1
    }
}

/// The shared memory system.
#[derive(Clone, Debug)]
pub struct MemSystem {
    config: GpuConfig,
    l1: Vec<Cache>,
    l1_port: Vec<PortSet>,
    /// Per-SM interconnect injection port: bypassed data accesses and L1
    /// misses travel to the L2 through this, not through the L1 array port.
    inject_port: Vec<PortSet>,
    l1_mshrs: Vec<MshrFile>,
    /// Address-interleaved L2 partitions, each with its own tag array
    /// (a power-of-two count, [`GpuConfig::validate`]).
    l2: Vec<Cache>,
    /// `log2` of the L2 line size: a line address's partition is its line
    /// number masked by the partition count.
    l2_line_shift: u32,
    l2_port: PortSet,
    dram_port: PortSet,
    /// Aggregate counters.
    pub stats: MemStats,
}

impl MemSystem {
    /// Build the hierarchy for `config`.
    pub fn new(config: &GpuConfig) -> Self {
        config.validate();
        MemSystem {
            config: *config,
            l1: (0..config.num_sms)
                .map(|_| Cache::new(&config.l1))
                .collect(),
            l1_port: (0..config.num_sms).map(|_| PortSet::new(1)).collect(),
            inject_port: (0..config.num_sms).map(|_| PortSet::new(1)).collect(),
            l1_mshrs: (0..config.num_sms)
                .map(|_| MshrFile::new(config.l1_mshrs))
                .collect(),
            l2: (0..config.l2_partitions)
                .map(|_| Cache::new(&config.l2_partition()))
                .collect(),
            l2_line_shift: config.l2.line_bytes.trailing_zeros(),
            l2_port: PortSet::new(config.l2_ports),
            dram_port: PortSet::new(config.dram_ports),
            stats: MemStats::default(),
        }
    }

    /// The cycle at which SM `sm`'s L1 port could accept a request issued
    /// now (used by the RegLess preload pipeline to prioritize).
    pub fn l1_port_backlog(&self, sm: usize, now: Cycle) -> Cycle {
        self.l1_port[sm]
            .ports
            .iter()
            .copied()
            .min()
            .unwrap_or(0)
            .saturating_sub(now)
    }

    /// Whether SM `sm`'s L1 MSHR file is full at `now` — a new miss would
    /// stall until an outstanding one retires. Used by the issue-slot
    /// attribution to refine staging stalls into
    /// [`regless_telemetry::StallReason::MshrFull`].
    pub fn l1_mshrs_full(&self, sm: usize, now: Cycle) -> bool {
        self.l1_mshrs[sm].is_full(now)
    }

    /// First cycle at which SM `sm`'s MSHR file stops being full, assuming
    /// no further misses: `l1_mshrs_full(sm, t)` ⟺ `t <
    /// l1_mshr_full_until(sm)`. The event-driven fast path uses this to
    /// bulk-charge a skipped span segment-by-segment with exactly the
    /// attribution the per-cycle path would have produced.
    pub fn l1_mshr_full_until(&mut self, sm: usize) -> Cycle {
        self.l1_mshrs[sm].full_until()
    }

    /// First cycle at which SM `sm`'s L1 port has a free slot, assuming no
    /// further reservations: `l1_port_backlog(sm, t) > 0` ⟺ `t <
    /// l1_port_free_cycle(sm)`.
    pub fn l1_port_free_cycle(&self, sm: usize) -> Cycle {
        self.l1_port[sm].ports.iter().copied().min().unwrap_or(0)
    }

    /// Access one 128-byte line of global memory from SM `sm`.
    ///
    /// `traffic` selects the policy: data accesses bypass the L1 when the
    /// configuration says so (Table 1); register accesses always use the L1
    /// with write-back, no-fetch-on-write semantics.
    pub fn access_line(
        &mut self,
        sm: usize,
        line_addr: u64,
        write: bool,
        traffic: Traffic,
        now: Cycle,
    ) -> MemAccess {
        let use_l1 = match traffic {
            Traffic::Register => true,
            Traffic::Data => !self.config.l1_bypass_data,
        };
        if !use_l1 {
            // Bypassed data skips the L1 array: it competes for the SM's
            // interconnect injection port instead (Table 1's one-request-
            // per-cycle L1 bandwidth constrains the cache, which RegLess
            // register traffic uses).
            let start = self.inject_port[sm].reserve(now);
            self.stats.l1_data_accesses += 1;
            return self.access_l2(sm, line_addr, write, traffic, start);
        }
        let start = self.l1_port[sm].reserve(now);
        match traffic {
            Traffic::Data => self.stats.l1_data_accesses += 1,
            Traffic::Register => self.stats.l1_reg_accesses += 1,
        }
        let l1_done = start + self.config.l1.hit_latency;
        let result = if write && traffic == Traffic::Register {
            // Whole-line register store: allocate without fetching.
            let r = self.l1[sm].access(line_addr, true);
            if let Some(victim) = r.evicted_addr {
                // Write the displaced dirty register line back to L2.
                self.access_l2(sm, victim, true, traffic, l1_done);
            }
            self.stats.l1_hits += 1;
            return MemAccess {
                done: l1_done,
                serviced_by: Level::L1,
            };
        } else {
            self.l1[sm].access(line_addr, write)
        };
        if result.hit {
            self.stats.l1_hits += 1;
            return MemAccess {
                done: l1_done,
                serviced_by: Level::L1,
            };
        }
        self.stats.l1_misses += 1;
        if let Some(victim) = result.evicted_addr {
            self.access_l2(sm, victim, true, traffic, l1_done);
        }
        let admit = self.l1_mshrs[sm].admit(start);
        let inject = self.inject_port[sm].reserve(admit + self.config.l1.hit_latency);
        let deeper = self.access_l2(sm, line_addr, write, traffic, inject);
        self.l1_mshrs[sm].record(deeper.done);
        deeper
    }

    fn access_l2(
        &mut self,
        _sm: usize,
        line_addr: u64,
        write: bool,
        traffic: Traffic,
        now: Cycle,
    ) -> MemAccess {
        self.stats.l2_accesses += 1;
        if traffic == Traffic::Register {
            self.stats.l2_reg_accesses += 1;
        }
        let start = self.l2_port.reserve(now);
        // Partition by line address (interleaved across partitions).
        let part = (line_addr >> self.l2_line_shift) as usize & (self.l2.len() - 1);
        let hit = self.l2[part].access(line_addr, write).hit;
        let l2_done = start + self.config.l2.hit_latency;
        if hit {
            self.stats.l2_hits += 1;
            return MemAccess {
                done: l2_done,
                serviced_by: Level::L2,
            };
        }
        self.stats.dram_accesses += 1;
        let dram_start = self.dram_port.reserve(l2_done);
        MemAccess {
            done: dram_start + self.config.dram_latency,
            serviced_by: Level::Dram,
        }
    }

    /// Invalidate a register line in SM `sm`'s L1 (a cache-invalidate
    /// annotation). Consumes the L1 port for one cycle.
    pub fn invalidate_l1_line(&mut self, sm: usize, line_addr: u64, now: Cycle) -> Cycle {
        let start = self.l1_port[sm].reserve(now);
        self.stats.l1_reg_accesses += 1;
        self.l1[sm].invalidate(line_addr);
        start + 1
    }

    /// Drop a register line from SM `sm`'s L1 without consuming the port:
    /// used by *invalidating reads*, where the preload access itself
    /// carries the invalidation (paper §4.3).
    pub fn l1_drop_line(&mut self, sm: usize, line_addr: u64) {
        self.l1[sm].invalidate(line_addr);
    }

    /// Whether a line is present in SM `sm`'s L1 (no state change).
    pub fn l1_probe(&self, sm: usize, line_addr: u64) -> bool {
        self.l1[sm].probe(line_addr)
    }

    /// The configuration this hierarchy was built with.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> MemSystem {
        MemSystem::new(&GpuConfig::test_small())
    }

    #[test]
    fn data_bypasses_l1() {
        let mut m = mem();
        let a = m.access_line(0, 0, false, Traffic::Data, 0);
        assert!(a.serviced_by >= Level::L2, "data must bypass L1");
        assert_eq!(m.stats.l1_hits, 0);
        // Second access hits in L2.
        let b = m.access_line(0, 0, false, Traffic::Data, a.done);
        assert_eq!(b.serviced_by, Level::L2);
    }

    #[test]
    fn register_reads_use_l1() {
        let mut m = mem();
        // Install via a register store (write-allocate).
        let w = m.access_line(0, 4096, true, Traffic::Register, 0);
        assert_eq!(w.serviced_by, Level::L1);
        let r = m.access_line(0, 4096, false, Traffic::Register, w.done);
        assert_eq!(r.serviced_by, Level::L1);
        assert!(m.stats.l1_reg_accesses >= 2);
    }

    #[test]
    fn l1_port_serializes_requests() {
        let mut m = mem();
        let a = m.access_line(0, 0, true, Traffic::Register, 0);
        let b = m.access_line(0, 128, true, Traffic::Register, 0);
        // Both requested at cycle 0 but the port takes one per cycle.
        assert_ne!(a.done, b.done);
        assert_eq!(b.done, a.done + 1);
    }

    #[test]
    fn register_miss_goes_deeper() {
        let mut m = mem();
        let r = m.access_line(0, 1 << 20, false, Traffic::Register, 0);
        assert!(r.serviced_by >= Level::L2);
        assert!(r.done > GpuConfig::test_small().l1.hit_latency);
        assert_eq!(m.stats.l1_misses, 1);
    }

    #[test]
    fn invalidate_consumes_port_and_drops_line() {
        let mut m = mem();
        m.access_line(0, 256, true, Traffic::Register, 0);
        assert!(m.l1_probe(0, 256));
        let done = m.invalidate_l1_line(0, 256, 5);
        assert!(done > 5);
        assert!(!m.l1_probe(0, 256));
    }

    #[test]
    fn mshrs_throttle_misses() {
        // With a 2-MSHR config, a burst of register-line misses must
        // serialize beyond the first two.
        let config = GpuConfig {
            l1_mshrs: 2,
            ..GpuConfig::test_small()
        };
        let mut m = MemSystem::new(&config);
        let mut dones = Vec::new();
        for i in 0..6u64 {
            // distinct lines, all misses
            let a = m.access_line(0, (1 << 30) + i * 128, false, Traffic::Register, 0);
            dones.push(a.done);
        }
        // The completion times must strictly spread out (no 6-wide burst).
        let first_two_max = dones[..2].iter().max().copied().unwrap();
        assert!(
            dones[4] > first_two_max,
            "later misses must wait for MSHRs: {dones:?}"
        );
    }

    #[test]
    fn l2_ports_shared_across_sms() {
        let config = GpuConfig {
            num_sms: 2,
            ..GpuConfig::test_small()
        };
        let mut m = MemSystem::new(&config);
        // Both SMs issue a data access at cycle 0: they contend for the
        // shared L2 ports but not for each other's injection port.
        let a = m.access_line(0, 0, false, Traffic::Data, 0);
        let b = m.access_line(1, 128 << 12, false, Traffic::Data, 0);
        assert!(a.done > 0 && b.done > 0);
        assert_eq!(m.stats.l2_accesses, 2);
    }

    #[test]
    fn dram_latency_applies() {
        let mut m = mem();
        let cfg = *m.config();
        let r = m.access_line(0, 7 << 22, false, Traffic::Data, 0);
        assert_eq!(r.serviced_by, Level::Dram);
        assert!(r.done >= cfg.l2.hit_latency + cfg.dram_latency);
    }
}
