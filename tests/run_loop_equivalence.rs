//! Differential contract for the two run loops: the event-driven fast
//! path and the stepped cycle-by-cycle reference must produce
//! **byte-identical** [`RunReport::stable_json`] output — cycles, CPI
//! stacks, window series, eviction taxonomy, everything — on every
//! kernel × design × capacity point. A fast path that drifts by even one
//! stall-slot attribution fails here, not in a downstream figure.

use proptest::prelude::*;
use regless::bench::registry;
use regless::bench::{Attach, DesignKind};
use regless::isa::Kernel;
use regless::sim::{GpuConfig, RunReport, StallReason};
use regless::workloads::{high_pressure_kernel, micro};

/// The kernels the property test draws from — the micro suite covers
/// streaming loads, dependent chains, barriers, divergence, and register
/// pressure, which between them exercise every skippability condition
/// (scoreboard idle, barrier pins, staging waits, drain waits).
fn test_kernel(idx: usize) -> Kernel {
    match idx % 7 {
        0 => micro::streaming(6),
        1 => micro::pointer_chase(4),
        2 => micro::shared_tile(3),
        3 => micro::reduction_tree(),
        4 => micro::divergence_storm(3),
        5 => micro::nested_divergence(),
        _ => high_pressure_kernel(),
    }
}

/// Run one design in the requested loop mode on `gpu`.
fn run_mode(kernel: &Kernel, design: DesignKind, gpu: GpuConfig, stepped: bool) -> RunReport {
    let attach = Attach {
        stepped: Some(stepped),
        ..Attach::default()
    };
    design
        .execute(kernel, gpu, &attach)
        .unwrap_or_else(|e| panic!("{design:?}: {e}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The contract itself: identical bytes for every sampled point of
    /// every registered design.
    #[test]
    fn event_and_stepped_reports_are_byte_identical(
        kernel_idx in 0usize..7,
        design_idx in 0usize..7,
        capacity_idx in 0usize..4,
    ) {
        let capacity = [64usize, 128, 256, 512][capacity_idx];
        let entry = &registry::all()[design_idx % registry::all().len()];
        let design = registry::parse_with_aliases(entry.id, Some(capacity), None, false).unwrap();
        let kernel = test_kernel(kernel_idx);
        let gpu = GpuConfig::test_small();
        let stepped = run_mode(&kernel, design, gpu, true);
        let event = run_mode(&kernel, design, gpu, false);
        prop_assert_eq!(
            stepped.stable_json().to_string_compact(),
            event.stable_json().to_string_compact(),
            "loop modes diverged: kernel {} design {} capacity {}",
            kernel_idx, entry.id, capacity
        );
    }
}

/// The conservation law holds on the fast path (spot check on top of the
/// byte-identity above, so a failure names the broken invariant
/// directly): Σ reasons == cycles × schedulers × issue slots per SM, and
/// `idle_slots` counts exactly the non-issued slots.
#[test]
fn fast_path_preserves_slot_conservation() {
    let gpu = GpuConfig::test_small();
    let kernel = micro::streaming(8);
    let report = run_mode(&kernel, DesignKind::Baseline, gpu, false);
    let slots_per_cycle = (gpu.schedulers_per_sm * gpu.issue_slots_per_scheduler) as u64;
    for sm in &report.sm_stats {
        assert_eq!(sm.issue_stack.total(), report.cycles * slots_per_cycle);
        assert_eq!(
            sm.idle_slots,
            sm.issue_stack.total() - sm.issue_stack.get(StallReason::Issued),
            "idle_slots must count exactly the slots that issued nothing"
        );
    }
}

/// The `idle_cycles` → `idle_slots` regression test: with more than one
/// issue slot per scheduler, an idle cycle burns *slots_per_scheduler*
/// slots per scheduler, not one. The old counter incremented once per
/// idle scheduler-cycle and undercounted dual-issue machines.
#[test]
fn idle_slots_counts_per_slot_under_dual_issue() {
    let gpu = GpuConfig {
        issue_slots_per_scheduler: 2,
        ..GpuConfig::test_small()
    };
    let kernel = micro::pointer_chase(4);
    for stepped in [true, false] {
        let report = run_mode(&kernel, DesignKind::Baseline, gpu, stepped);
        let slots_per_cycle = (gpu.schedulers_per_sm * gpu.issue_slots_per_scheduler) as u64;
        for sm in &report.sm_stats {
            let total = report.cycles * slots_per_cycle;
            assert_eq!(sm.issue_stack.total(), total);
            assert_eq!(
                sm.idle_slots,
                total - sm.issue_stack.get(StallReason::Issued),
                "stepped={stepped}: idle_slots must be per-slot, not per-cycle"
            );
            // A dependent chain cannot dual-issue every cycle, so idle
            // slots must exceed half a cycle's worth somewhere.
            assert!(sm.idle_slots > 0);
        }
    }
}

/// Dual-issue machines produce identical reports in both loop modes too
/// (the multi-slot bulk charge is `span × slots`, not `span`), for every
/// registered design at a small and the default capacity. With two slots
/// per scheduler a warp that issued in the first slot is tested for
/// eligibility again in the second, within the cycle it moved.
#[test]
fn dual_issue_reports_are_byte_identical() {
    let gpu = GpuConfig {
        issue_slots_per_scheduler: 2,
        ..GpuConfig::test_small()
    };
    // Designs without a capacity parameter build the same design twice.
    let mut designs: Vec<(&str, DesignKind)> = registry::all()
        .iter()
        .flat_map(|entry| {
            [128, 512].map(|capacity| {
                let design = registry::parse_with_aliases(entry.id, Some(capacity), None, false);
                (entry.id, design.unwrap())
            })
        })
        .collect();
    designs.dedup();
    for (id, design) in designs {
        for kernel_idx in 0..7 {
            let kernel = test_kernel(kernel_idx);
            let stepped = run_mode(&kernel, design, gpu, true);
            let event = run_mode(&kernel, design, gpu, false);
            assert_eq!(
                stepped.stable_json().to_string_compact(),
                event.stable_json().to_string_compact(),
                "dual-issue loop modes diverged: kernel {kernel_idx} design {id} {design:?}"
            );
        }
    }
}
