//! RegLess hardware configuration.

use regless_compiler::{RegionConfig, NUM_BANKS};
use regless_sim::GpuConfig;

/// Fewest lines an OSU bank may hold: a region may need four registers in
/// one bank, the widest single instruction.
const MIN_LINES_PER_BANK: usize = 4;

/// Sizing and policy of the RegLess structures in one SM, and the
/// compiler settings RegLess compiles its kernels with.
///
/// The paper's chosen design point is 512 OSU entries per SM — 25 % of the
/// baseline 2048-entry register file — split across the four scheduler
/// shards into 8-bank OSUs of 16 lines each. The other fields are the
/// paper's choices, which the §6.5 ablations and §5.2's renumbering study
/// vary one at a time.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RegLessConfig {
    /// Total OSU registers (128-byte lines) per SM, across all shards.
    pub osu_entries_per_sm: usize,
    /// Whether the compressor is present (the Figure 16 ablation removes
    /// it).
    pub compressor_enabled: bool,
    /// Re-activation order of drained warps (LIFO in the paper; FIFO is
    /// the `ablation_warp_order` comparison).
    pub activation_order: crate::cm::ActivationOrder,
    /// Pattern subset the compressor matches (ablation).
    pub compressor_patterns: crate::compressor::PatternSet,
    /// Minimum region length in instructions
    /// ([`RegionConfig::min_region_insns`]).
    pub min_region_insns: usize,
    /// Whether a global load and its first use go to separate regions
    /// ([`RegionConfig::split_load_use`]).
    pub split_load_use: bool,
    /// Apply the bank-aware register renumbering pass
    /// ([`regless_compiler::renumber_for_banks`], paper §5.2) before
    /// compiling.
    pub renumber: bool,
}

impl RegLessConfig {
    /// The paper's 512-entry design point.
    pub fn paper_default() -> Self {
        let regions = RegionConfig::default();
        RegLessConfig {
            osu_entries_per_sm: 512,
            compressor_enabled: true,
            activation_order: crate::cm::ActivationOrder::Lifo,
            compressor_patterns: crate::compressor::PatternSet::Full,
            min_region_insns: regions.min_region_insns,
            split_load_use: regions.split_load_use,
            renumber: false,
        }
    }

    /// A design with `entries` OSU registers per SM (the Figure 11–13
    /// capacity sweep uses 128…2048).
    pub fn with_capacity(entries: usize) -> Self {
        RegLessConfig {
            osu_entries_per_sm: entries,
            ..Self::paper_default()
        }
    }

    /// The smallest `osu_entries_per_sm` a GPU shape supports:
    /// `MIN_LINES_PER_BANK` lines in each bank of every scheduler shard.
    fn min_capacity(gpu: &GpuConfig) -> usize {
        gpu.schedulers_per_sm * NUM_BANKS * MIN_LINES_PER_BANK
    }

    /// Check that the OSU capacity fits `gpu`'s shape, for callers that
    /// take the capacity from a user. [`RegLessConfig::lines_per_bank`] and
    /// [`RegLessConfig::region_config`] panic on a configuration this
    /// rejects.
    ///
    /// # Errors
    ///
    /// Returns a message naming the smallest valid capacity when the banks
    /// would hold fewer than four lines each (a region may need four
    /// registers in one bank).
    pub fn check(&self, gpu: &GpuConfig) -> Result<(), String> {
        let min = Self::min_capacity(gpu);
        if self.osu_entries_per_sm >= min {
            return Ok(());
        }
        Err(format!(
            "OSU capacity {} is too small: {} shards of {} banks need at least {} lines \
             per bank, so the smallest valid capacity is {min} entries",
            self.osu_entries_per_sm, gpu.schedulers_per_sm, NUM_BANKS, MIN_LINES_PER_BANK
        ))
    }

    /// Lines per OSU bank for a given GPU shape.
    ///
    /// # Panics
    ///
    /// Panics if the capacity does not divide evenly into at least one
    /// line per bank per shard.
    pub fn lines_per_bank(&self, gpu: &GpuConfig) -> usize {
        let per_shard = self.osu_entries_per_sm / gpu.schedulers_per_sm;
        let lines = per_shard / NUM_BANKS;
        assert!(
            lines > 0,
            "OSU capacity {} too small for {} shards of {} banks",
            self.osu_entries_per_sm,
            gpu.schedulers_per_sm,
            NUM_BANKS
        );
        lines
    }

    /// The region-creation limits matched to this OSU shape: a region may
    /// claim at most half a bank (minimum 4 registers, the widest single
    /// instruction) and at most an eighth of the shard's lines, "so that
    /// one region cannot take up too large a fraction of the OSU and limit
    /// concurrency" (paper §4.2). The minimum region length and load/use
    /// splitting come from this configuration.
    ///
    /// # Panics
    ///
    /// Panics if [`RegLessConfig::check`] rejects the configuration.
    pub fn region_config(&self, gpu: &GpuConfig) -> RegionConfig {
        if let Err(e) = self.check(gpu) {
            panic!("{e}");
        }
        let lines_per_bank = self.lines_per_bank(gpu);
        let per_shard = lines_per_bank * NUM_BANKS;
        RegionConfig {
            max_regs_per_region: (per_shard / 8).clamp(5, 24),
            max_regs_per_bank: (lines_per_bank / 2).clamp(MIN_LINES_PER_BANK, lines_per_bank),
            min_region_insns: self.min_region_insns,
            split_load_use: self.split_load_use,
        }
    }
}

impl Default for RegLessConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

regless_json::impl_json_struct!(RegLessConfig {
    osu_entries_per_sm,
    compressor_enabled,
    activation_order,
    compressor_patterns,
    min_region_insns,
    split_load_use,
    renumber,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_design_point() {
        let c = RegLessConfig::paper_default();
        let gpu = GpuConfig::gtx980();
        // 512 entries / 4 shards / 8 banks = 16 lines per bank.
        assert_eq!(c.lines_per_bank(&gpu), 16);
        let rc = c.region_config(&gpu);
        assert_eq!(rc.max_regs_per_bank, 8);
        assert_eq!(rc.max_regs_per_region, 16);
    }

    #[test]
    fn small_capacity_tightens_regions() {
        let c = RegLessConfig::with_capacity(128);
        let gpu = GpuConfig::gtx980();
        assert_eq!(c.lines_per_bank(&gpu), 4);
        let rc = c.region_config(&gpu);
        assert_eq!(rc.max_regs_per_bank, 4);
        assert_eq!(rc.max_regs_per_region, 5);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn degenerate_capacity_panics() {
        RegLessConfig::with_capacity(16).lines_per_bank(&GpuConfig::gtx980());
    }

    #[test]
    fn check_names_the_smallest_valid_capacity() {
        let gpu = GpuConfig::gtx980();
        assert_eq!(RegLessConfig::min_capacity(&gpu), 128);
        for entries in [0, 16, 64, 127] {
            let err = RegLessConfig::with_capacity(entries)
                .check(&gpu)
                .expect_err("below the minimum");
            assert!(err.contains("smallest valid capacity is 128"), "{err}");
        }
        for entries in [128, 129, 512] {
            let cfg = RegLessConfig::with_capacity(entries);
            assert_eq!(cfg.check(&gpu), Ok(()));
            // Every accepted capacity yields a usable region shape.
            let rc = cfg.region_config(&gpu);
            assert!(rc.max_regs_per_bank <= cfg.lines_per_bank(&gpu));
        }
    }
}
