//! Machine configuration (the paper's Table 1).

/// Cycle timestamp type used throughout the simulator.
pub type Cycle = u64;

/// Parameters of one cache level.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub bytes: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Access (hit) latency in cycles.
    pub hit_latency: Cycle,
}

impl CacheConfig {
    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.bytes / (self.assoc * self.line_bytes)
    }

    /// Check that [`crate::cache::Cache`] can index this shape: at least
    /// one set, and a line size and set count that are powers of two, so
    /// an address splits into tag, set and offset with shifts and a mask.
    /// `what` names the cache in the message.
    ///
    /// # Panics
    ///
    /// Panics if the shape breaks either rule.
    pub fn check_shape(&self, what: &str) {
        let sets = self.num_sets();
        assert!(sets > 0, "{what} too small for its associativity");
        assert!(
            self.line_bytes.is_power_of_two(),
            "{what} line size {} is not a power of two",
            self.line_bytes
        );
        assert!(
            sets.is_power_of_two(),
            "{what} set count {sets} is not a power of two"
        );
    }
}

/// Warp-scheduler selection.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SchedulerKind {
    /// Greedy-then-oldest, the baseline policy (and the one RegLess keeps).
    Gto,
    /// Loose round-robin: rotate through ready warps, one issue each.
    Lrr,
    /// Two-level scheduling: only a small active set of warps may issue;
    /// warps are demoted on long-latency events. Used by the RFH and RFV
    /// comparison points.
    TwoLevel {
        /// Active warps per scheduler.
        active_per_scheduler: usize,
    },
}

/// Per-opcode-class issue-to-writeback latencies.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LatencyConfig {
    /// Integer ALU dependent latency.
    pub int_alu: Cycle,
    /// Floating-point pipeline latency.
    pub fp_alu: Cycle,
    /// Special-function-unit latency.
    pub sfu: Cycle,
    /// Shared-memory access latency.
    pub shared_mem: Cycle,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        LatencyConfig {
            int_alu: 6,
            fp_alu: 6,
            sfu: 16,
            shared_mem: 24,
        }
    }
}

/// Full GPU configuration.
///
/// [`GpuConfig::gtx980`] reproduces the paper's Table 1; smaller
/// configurations are provided for tests and quick experiments.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Hardware warps per SM.
    pub warps_per_sm: usize,
    /// Warps per thread block: the scope of a barrier (256-thread blocks
    /// on the GTX 980 → 8 warps).
    pub warps_per_block: usize,
    /// Warp schedulers per SM (each RegLess shard serves one).
    pub schedulers_per_sm: usize,
    /// Instructions each scheduler may issue per cycle (the GTX 980's
    /// schedulers dual-issue; the calibrated evaluation uses 1 and treats
    /// the four schedulers as the throughput model).
    pub issue_slots_per_scheduler: usize,
    /// Baseline register file bytes per SM (256 KB on the GTX 980).
    pub rf_bytes_per_sm: usize,
    /// Warp scheduler policy.
    pub scheduler: SchedulerKind,
    /// L1 data cache.
    pub l1: CacheConfig,
    /// Whether ordinary global data accesses bypass the L1 (Table 1:
    /// "data accesses bypassed"); register traffic always uses the L1.
    pub l1_bypass_data: bool,
    /// L1 MSHR count per SM.
    pub l1_mshrs: usize,
    /// Shared L2 cache (split into [`GpuConfig::l2_partitions`] address-
    /// interleaved partitions).
    pub l2: CacheConfig,
    /// Number of L2 partitions (Table 1: 4 memory partitions).
    pub l2_partitions: usize,
    /// L2 requests accepted per cycle across the GPU (≈ 224 GB/s at 1 GHz
    /// with 128-byte lines).
    pub l2_ports: usize,
    /// DRAM access latency beyond the L2.
    pub dram_latency: Cycle,
    /// DRAM requests accepted per cycle.
    pub dram_ports: usize,
    /// Functional-unit latencies.
    pub latency: LatencyConfig,
    /// Safety limit: simulation aborts after this many cycles.
    pub max_cycles: Cycle,
}

impl GpuConfig {
    /// The paper's simulated machine (Table 1): 16 SMs of 64 warps with 4
    /// GTO schedulers, 48 KB L1 (one request per cycle, data bypassed),
    /// 2 MB L2 across 4 partitions.
    pub fn gtx980() -> Self {
        GpuConfig {
            num_sms: 16,
            warps_per_sm: 64,
            warps_per_block: 8,
            schedulers_per_sm: 4,
            issue_slots_per_scheduler: 1,
            rf_bytes_per_sm: 256 * 1024,
            scheduler: SchedulerKind::Gto,
            l1: CacheConfig {
                bytes: 48 * 1024,
                assoc: 6,
                line_bytes: 128,
                hit_latency: 28,
            },
            l1_bypass_data: true,
            l1_mshrs: 32,
            l2: CacheConfig {
                bytes: 2 * 1024 * 1024,
                assoc: 16,
                line_bytes: 128,
                hit_latency: 130,
            },
            l2_partitions: 4,
            l2_ports: 2,
            dram_latency: 320,
            dram_ports: 1,
            latency: LatencyConfig::default(),
            max_cycles: 50_000_000,
        }
    }

    /// A single-SM configuration with the paper's per-SM parameters:
    /// experiments in this reproduction run per-SM-homogeneous workloads,
    /// for which one SM gives the same normalized results at a fraction of
    /// the wall-clock cost. The L2/DRAM ports are scaled down with the SM
    /// count so per-SM bandwidth pressure matches the full machine.
    pub fn gtx980_single_sm() -> Self {
        GpuConfig {
            num_sms: 1,
            ..Self::gtx980()
        }
    }

    /// Tiny configuration for unit tests: one SM, 8 warps, 2 schedulers.
    pub fn test_small() -> Self {
        GpuConfig {
            num_sms: 1,
            warps_per_sm: 8,
            warps_per_block: 4,
            schedulers_per_sm: 2,
            max_cycles: 2_000_000,
            ..Self::gtx980()
        }
    }

    /// The shape of one L2 partition: the L2 split evenly by
    /// [`GpuConfig::l2_partitions`].
    pub fn l2_partition(&self) -> CacheConfig {
        CacheConfig {
            bytes: self.l2.bytes / self.l2_partitions,
            ..self.l2
        }
    }

    /// Validate internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if warps are not divisible among schedulers, an SM holds
    /// more warps than a [`crate::WarpMask`] has bits, or cache shapes are
    /// degenerate or not powers of two ([`CacheConfig::check_shape`]; the
    /// L2 partition count too) — configuration bugs, not data errors.
    pub fn validate(&self) {
        assert!(self.num_sms > 0 && self.warps_per_sm > 0 && self.schedulers_per_sm > 0);
        assert!(
            self.warps_per_sm <= crate::MAX_WARPS_PER_SM,
            "warps_per_sm {} exceeds the {}-warp limit of a warp mask",
            self.warps_per_sm,
            crate::MAX_WARPS_PER_SM
        );
        assert!(
            self.warps_per_block > 0 && self.warps_per_sm.is_multiple_of(self.warps_per_block),
            "thread blocks must tile the SM's warps"
        );
        assert_eq!(
            self.warps_per_sm % self.schedulers_per_sm,
            0,
            "warps must divide evenly among schedulers"
        );
        self.l1.check_shape("L1");
        assert!(self.l2_ports > 0 && self.dram_ports > 0);
        assert!(
            self.l2_partitions.is_power_of_two()
                && self.l2.bytes.is_multiple_of(self.l2_partitions),
            "L2 must split evenly into a power-of-two number of partitions"
        );
        self.l2_partition().check_shape("L2 partition");
        assert!(self.issue_slots_per_scheduler > 0, "schedulers must issue");
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::gtx980()
    }
}

regless_json::impl_json_struct!(CacheConfig {
    bytes,
    assoc,
    line_bytes,
    hit_latency
});
regless_json::impl_json_struct!(LatencyConfig {
    int_alu,
    fp_alu,
    sfu,
    shared_mem
});
regless_json::impl_json_struct!(GpuConfig {
    num_sms,
    warps_per_sm,
    warps_per_block,
    schedulers_per_sm,
    issue_slots_per_scheduler,
    rf_bytes_per_sm,
    scheduler,
    l1,
    l1_bypass_data,
    l1_mshrs,
    l2,
    l2_partitions,
    l2_ports,
    dram_latency,
    dram_ports,
    latency,
    max_cycles,
});

// SchedulerKind mixes unit and struct variants, so its JSON layout is
// written out by hand (mirroring serde's externally-tagged default:
// `"Gto"` / `{"TwoLevel":{"active_per_scheduler":4}}`).
impl regless_json::ToJson for SchedulerKind {
    fn to_json(&self) -> regless_json::Json {
        use regless_json::Json;
        match *self {
            SchedulerKind::Gto => Json::Str("Gto".into()),
            SchedulerKind::Lrr => Json::Str("Lrr".into()),
            SchedulerKind::TwoLevel {
                active_per_scheduler,
            } => Json::Obj(vec![(
                "TwoLevel".into(),
                Json::Obj(vec![(
                    "active_per_scheduler".into(),
                    regless_json::ToJson::to_json(&active_per_scheduler),
                )]),
            )]),
        }
    }
}

impl regless_json::FromJson for SchedulerKind {
    fn from_json(v: &regless_json::Json) -> Result<Self, regless_json::JsonError> {
        use regless_json::{Json, JsonError};
        match v {
            Json::Str(s) if s == "Gto" => Ok(SchedulerKind::Gto),
            Json::Str(s) if s == "Lrr" => Ok(SchedulerKind::Lrr),
            Json::Obj(_) => {
                let inner = v.field("TwoLevel")?;
                Ok(SchedulerKind::TwoLevel {
                    active_per_scheduler: regless_json::FromJson::from_json(
                        inner.field("active_per_scheduler")?,
                    )?,
                })
            }
            other => Err(JsonError::new(format!("unknown SchedulerKind: {other:?}"))),
        }
    }
}

/// Rows of the paper's Table 1, for the `table1_config` harness.
pub fn table1_rows(config: &GpuConfig) -> Vec<(String, String)> {
    vec![
        (
            "SMs".into(),
            format!(
                "{}, {} warps each, {} schedulers",
                config.num_sms, config.warps_per_sm, config.schedulers_per_sm
            ),
        ),
        (
            "Warp scheduler".into(),
            match config.scheduler {
                SchedulerKind::Gto => "GTO".into(),
                SchedulerKind::Lrr => "LRR".into(),
                SchedulerKind::TwoLevel {
                    active_per_scheduler,
                } => {
                    format!("2-level ({active_per_scheduler} active/scheduler)")
                }
            },
        ),
        (
            "L1 cache".into(),
            format!(
                "{}KB, {}MSHRs, data accesses {}",
                config.l1.bytes / 1024,
                config.l1_mshrs,
                if config.l1_bypass_data {
                    "bypassed"
                } else {
                    "cached"
                }
            ),
        ),
        ("L1 bandwidth".into(), "one request per cycle".into()),
        (
            "Memory system".into(),
            format!(
                "{}MB L2 in {} partitions, {} L2 ports/cycle, DRAM latency {} cycles",
                config.l2.bytes / (1024 * 1024),
                config.l2_partitions,
                config.l2_ports,
                config.dram_latency
            ),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gtx980_matches_table1() {
        let c = GpuConfig::gtx980();
        c.validate();
        assert_eq!(c.num_sms, 16);
        assert_eq!(c.warps_per_sm, 64);
        assert_eq!(c.schedulers_per_sm, 4);
        assert_eq!(c.l1.bytes, 48 * 1024);
        assert_eq!(c.l1_mshrs, 32);
        assert_eq!(c.l2.bytes, 2 * 1024 * 1024);
        assert!(c.l1_bypass_data);
        assert_eq!(
            c.warps_per_sm / c.schedulers_per_sm,
            16,
            "warps per scheduler"
        );
    }

    #[test]
    fn cache_shapes() {
        let c = GpuConfig::gtx980();
        assert_eq!(c.l1.num_sets(), 48 * 1024 / (6 * 128));
        assert_eq!(c.l2.num_sets(), 2 * 1024 * 1024 / (16 * 128));
    }

    #[test]
    fn table1_rows_nonempty() {
        let rows = table1_rows(&GpuConfig::gtx980());
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|(k, v)| !k.is_empty() && !v.is_empty()));
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn invalid_scheduler_split_panics() {
        let c = GpuConfig {
            warps_per_sm: 10,
            warps_per_block: 5,
            schedulers_per_sm: 4,
            ..GpuConfig::gtx980()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "L1 set count 96 is not a power of two")]
    fn non_power_of_two_set_count_panics() {
        let mut c = GpuConfig::gtx980();
        c.l1.assoc = 4; // 48 KiB / (4 ways × 128 B) = 96 sets
        c.validate();
    }

    #[test]
    #[should_panic(expected = "power-of-two number of partitions")]
    fn non_power_of_two_l2_partitions_panics() {
        let c = GpuConfig {
            l2_partitions: 3,
            l2: CacheConfig {
                bytes: 3 * 512 * 1024,
                ..GpuConfig::gtx980().l2
            },
            ..GpuConfig::gtx980()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "warp limit")]
    fn more_than_64_warps_per_sm_panics() {
        let c = GpuConfig {
            warps_per_sm: 65,
            warps_per_block: 5,
            schedulers_per_sm: 5,
            ..GpuConfig::gtx980()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "thread blocks")]
    fn invalid_block_split_panics() {
        let c = GpuConfig {
            warps_per_sm: 10,
            warps_per_block: 4,
            ..GpuConfig::gtx980()
        };
        c.validate();
    }
}
