//! Eviction-accounting contract tests: every line the OSU evicts is
//! classified into exactly one [`EvictionReason`], so the per-reason
//! stack sums to the OSU's own mechanical eviction counter — per SM and
//! whole-GPU — for every kernel × design × capacity, and the accounting
//! is identical with and without a telemetry recorder attached.

use proptest::prelude::*;
use regless::bench::registry;
use regless::bench::{Attach, DesignKind};
use regless::core::RegLessConfig;
use regless::isa::Kernel;
use regless::sim::{EvictionReason, GpuConfig, RunReport};
use regless::workloads::{high_pressure_kernel, micro};

/// The small kernels the property test draws from (the same suite as
/// `tests/cpi_attribution.rs`).
fn test_kernel(idx: usize) -> Kernel {
    match idx % 6 {
        0 => micro::streaming(6),
        1 => micro::pointer_chase(4),
        2 => micro::shared_tile(3),
        3 => micro::reduction_tree(),
        4 => micro::divergence_storm(3),
        _ => micro::nested_divergence(),
    }
}

/// Run `kernel` on the small test machine under `design`.
fn run_small(kernel: &Kernel, design: DesignKind) -> RunReport {
    design
        .execute(kernel, GpuConfig::test_small(), &Attach::default())
        .unwrap_or_else(|e| panic!("{design:?}: {e}"))
}

/// Assert the eviction conservation law on one report: per SM and
/// whole-GPU, Σ per-reason lines == the OSU's mechanical eviction count.
fn assert_eviction_conservation(report: &RunReport) {
    for (i, sm) in report.sm_stats.iter().enumerate() {
        assert_eq!(
            sm.eviction_stack.total(),
            sm.osu_lines_evicted,
            "SM {i}: classified evictions must equal the OSU's own count"
        );
    }
    assert_eq!(
        report.eviction_stack().total(),
        report.total().osu_lines_evicted,
        "whole-GPU: classified evictions must equal the OSU's own count"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Conservation holds for every registered design on every kernel ×
    /// capacity drawn.
    #[test]
    fn per_reason_eviction_counts_sum_to_the_osu_total(
        kernel_idx in 0usize..6,
        capacity_idx in 0usize..3,
    ) {
        let capacity = Some([128usize, 256, 512][capacity_idx]);
        let kernel = test_kernel(kernel_idx);
        for entry in registry::all() {
            let design = registry::parse_with_aliases(entry.id, capacity, None, false).unwrap();
            let report = run_small(&kernel, design);
            assert_eviction_conservation(&report);
            if design.osu_capacity() == 0 {
                // No OSU: both sides of the law are zero.
                prop_assert_eq!(report.total().osu_lines_evicted, 0, "{}", entry.id);
            }
        }
    }
}

/// A regless run actually exercises the taxonomy: the micro suite drains
/// regions and reclaims dead values, and a squeezed OSU preempts or
/// spills, so the law above is not vacuously `0 == 0`.
#[test]
fn the_taxonomy_is_exercised_not_vacuous() {
    let regless = DesignKind::RegLess(RegLessConfig::with_capacity(256));
    let report = run_small(&micro::streaming(6), regless);
    assert!(
        report.total().osu_lines_evicted > 0,
        "streaming under regless must evict lines"
    );
    assert!(
        report.eviction_stack().get(EvictionReason::RegionDrain) > 0
            || report
                .eviction_stack()
                .get(EvictionReason::DeadValueReclaim)
                > 0,
        "drains or dead-value reclaims must appear"
    );

    let squeezed = DesignKind::RegLess(RegLessConfig::with_capacity(128))
        .execute(
            &high_pressure_kernel(),
            GpuConfig::gtx980_single_sm(),
            &Attach::default(),
        )
        .expect("runs");
    assert_eviction_conservation(&squeezed);
    let stack = squeezed.eviction_stack();
    assert!(
        stack.get(EvictionReason::CapacityPreemption) > 0
            || stack.get(EvictionReason::CompressorSpill) > 0,
        "a squeezed OSU must preempt or spill ({stack:?})"
    );
}

/// Attaching a telemetry recorder must not change the eviction
/// accounting (the counters are always-on; the recorder only adds trace
/// events and extra sampled series).
#[test]
fn recorder_attachment_does_not_change_eviction_accounting() {
    let kernel = micro::streaming(6);
    let run = |record: bool| {
        let attach = Attach {
            telemetry: record.then_some(1 << 16),
            ..Attach::default()
        };
        DesignKind::RegLess(RegLessConfig::with_capacity(256))
            .execute(&kernel, GpuConfig::test_small(), &attach)
            .expect("runs")
    };
    let plain = run(false);
    let recorded = run(true);
    assert_eq!(plain.eviction_stack(), recorded.eviction_stack());
    assert_eq!(
        plain.total().osu_lines_evicted,
        recorded.total().osu_lines_evicted
    );
    assert_eviction_conservation(&recorded);
    // The recorder also mirrors the stack into named counters.
    let telemetry = recorded.telemetry.as_ref().expect("attached");
    for (reason, lines) in recorded.eviction_stack().entries() {
        assert_eq!(
            telemetry.counters.get(reason.counter_name()).copied(),
            Some(lines),
            "counter {} must mirror the stack",
            reason.counter_name()
        );
    }
    assert_eq!(
        telemetry.counters.get("osu.lines_evicted").copied(),
        Some(recorded.total().osu_lines_evicted)
    );
}
