//! Cycle-accounting contract tests: every issue slot of every cycle is
//! charged to exactly one [`StallReason`] (conservation), per-warp stacks
//! partition the per-SM stack, the `regless profile` rendering is golden
//! and byte-stable, and the `regless diff` gate moves with OSU capacity.

use proptest::prelude::*;
use regless::bench::profile::{diff, ProfileReport};
use regless::bench::registry;
use regless::bench::{Attach, DesignKind};
use regless::core::RegLessConfig;
use regless::isa::text::parse_kernel;
use regless::isa::Kernel;
use regless::sim::{GpuConfig, IssueStack, RunReport, StallReason};
use regless::workloads::{high_pressure_kernel, micro};

/// The small kernels the property test draws from.
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

/// Assert the conservation law on one report: per SM,
/// Σ per-reason slots == cycles × schedulers × issue slots, and the
/// per-warp stacks sum to the SM stack for every reason except `NoWarp`
/// (which has no warp to blame and stays SM-level).
fn assert_conservation(report: &RunReport, gpu: &GpuConfig) {
    let slots_per_cycle = (gpu.schedulers_per_sm * gpu.issue_slots_per_scheduler) as u64;
    for (i, sm) in report.sm_stats.iter().enumerate() {
        assert_eq!(
            sm.issue_stack.total(),
            report.cycles * slots_per_cycle,
            "SM {i}: Σ reasons must equal cycles × issue slots"
        );
        let mut warp_sum = IssueStack::new();
        for w in &sm.warp_stacks {
            warp_sum.merge(w);
        }
        for reason in StallReason::ALL {
            if reason == StallReason::NoWarp {
                assert_eq!(
                    warp_sum.get(reason),
                    0,
                    "SM {i}: NoWarp is never charged to a warp"
                );
            } else {
                assert_eq!(
                    warp_sum.get(reason),
                    sm.issue_stack.get(reason),
                    "SM {i}: per-warp stacks must partition the SM stack for {reason:?}"
                );
            }
        }
        // Region charges are a subset of warp charges (a blocked warp
        // whose PC is gone cannot name a region).
        let mut region_sum = IssueStack::new();
        for stack in sm.region_stacks.values() {
            region_sum.merge(stack);
        }
        for reason in StallReason::ALL {
            assert!(
                region_sum.get(reason) <= warp_sum.get(reason),
                "SM {i}: region charges cannot exceed warp charges for {reason:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Conservation holds for every registered design on every kernel ×
    /// capacity drawn.
    #[test]
    fn issue_slot_accounting_is_conserved(
        kernel_idx in 0usize..6,
        capacity_idx in 0usize..3,
    ) {
        let capacity = Some([128usize, 256, 512][capacity_idx]);
        let kernel = test_kernel(kernel_idx);
        let gpu = GpuConfig::test_small();
        for entry in registry::all() {
            let design = registry::parse_with_aliases(entry.id, capacity, None, false).unwrap();
            let report = run_small(&kernel, design);
            assert_conservation(&report, &gpu);
            // Issued slots match the instruction + metadata-bubble count
            // the pipeline already reports per SM.
            for sm in &report.sm_stats {
                prop_assert_eq!(sm.issue_stack.get(StallReason::Issued), sm.insns, "{}", entry.id);
            }
        }
    }
}

/// Merging SM stacks (the `RunReport::issue_stack` path) is associative:
/// folding per-SM stacks in any grouping gives the whole-GPU stack.
#[test]
fn stack_merge_is_associative_over_sms() {
    let kernel = micro::streaming(6);
    let regless = DesignKind::RegLess(RegLessConfig::with_capacity(256));
    let report = run_small(&kernel, regless);
    let total = report.issue_stack();
    let mut left_fold = IssueStack::new();
    for sm in &report.sm_stats {
        left_fold.merge(&sm.issue_stack);
    }
    let mut right_fold = IssueStack::new();
    for sm in report.sm_stats.iter().rev() {
        right_fold.merge(&sm.issue_stack);
    }
    assert_eq!(total, left_fold);
    assert_eq!(total, right_fold);
}

/// Profile `kernels/saxpy.asm` exactly as
/// `regless profile kernels/saxpy.asm --design regless` does.
fn saxpy_profile() -> ProfileReport {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/kernels/saxpy.asm"))
        .expect("kernels/saxpy.asm is checked in");
    let kernel = parse_kernel(&text).expect("saxpy parses");
    let report = DesignKind::regless_512()
        .execute(&kernel, GpuConfig::gtx980_single_sm(), &Attach::default())
        .expect("runs");
    ProfileReport::collect(&report, kernel.name(), "regless", 512)
}

/// The profile table for the checked-in saxpy kernel matches the golden
/// file byte-for-byte, and a second run reproduces it exactly.
#[test]
fn saxpy_profile_table_matches_golden_and_is_byte_stable() {
    let profile = saxpy_profile();
    let table = profile.render_table();
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/profile_saxpy_regless.txt"
    ))
    .expect("golden profile is checked in");
    assert_eq!(
        table, golden,
        "profile table drifted from tests/golden/profile_saxpy_regless.txt; \
         regenerate with `regless profile kernels/saxpy.asm --design regless` \
         if the change is intentional"
    );
    // Byte stability: an identical second simulation renders identically.
    let again = saxpy_profile();
    assert_eq!(again.render_table(), table);
    assert_eq!(again.to_json_string(), profile.to_json_string());
    // The JSON form round-trips exactly.
    let back = ProfileReport::from_json_str(&profile.to_json_string()).expect("parses");
    assert_eq!(back, profile);
}

/// Shrinking the OSU from 512 to 128 entries moves issue slots into the
/// staging-side reasons (`CmPreloadWait` + `OsuCapacityWait` and their
/// memory-side refinements), and `regless diff` reports the regression.
#[test]
fn capacity_squeeze_moves_staging_stalls_and_trips_the_diff_gate() {
    let kernel = high_pressure_kernel();
    let gpu = GpuConfig::gtx980_single_sm();
    let run_at = |entries: usize| {
        let report = DesignKind::RegLess(RegLessConfig::with_capacity(entries))
            .execute(&kernel, gpu, &Attach::default())
            .expect("runs");
        ProfileReport::collect(&report, kernel.name(), "regless", entries)
    };
    let big = run_at(512);
    let small = run_at(128);

    let staging = |p: &ProfileReport| {
        p.stack.get(StallReason::CmPreloadWait)
            + p.stack.get(StallReason::OsuCapacityWait)
            + p.stack.get(StallReason::MshrFull)
            + p.stack.get(StallReason::L1PortBusy)
    };
    assert!(
        staging(&small) > staging(&big),
        "128 entries must stage-stall more than 512 ({} vs {})",
        staging(&small),
        staging(&big)
    );
    assert!(small.cycles > big.cycles, "the squeeze must cost cycles");

    // The diff gate sees the slowdown from 512 → 128.
    let d = diff(&big, &small);
    assert!(d.worst_regression_pct > 0.0);
    let row = d
        .rows
        .iter()
        .find(|r| r.name == "cycles")
        .expect("cycles row");
    assert!(row.delta_pct > 0.0);
    // And the reverse direction is an improvement, not a regression.
    let d_rev = diff(&small, &big);
    assert!(!d_rev.exceeds(0.0) || d_rev.worst_regression_pct == 0.0);
}

/// An injected ≥5% IPC regression must trip the CI gate
/// (`regless diff --fail-above 5`), and a sub-threshold wobble must not.
#[test]
fn injected_ipc_regression_trips_the_five_percent_gate() {
    let base = saxpy_profile();
    let mut regressed = base.clone();
    regressed.cycles = base.cycles + base.cycles * 6 / 100; // +6% cycles
    regressed.ipc = base.insns as f64 / regressed.cycles as f64;
    let d = diff(&base, &regressed);
    assert!(
        d.exceeds(5.0),
        "a 6% cycle/IPC regression must fail the 5% gate (worst {:.2}%)",
        d.worst_regression_pct
    );

    let mut wobble = base.clone();
    wobble.cycles = base.cycles + base.cycles * 2 / 100; // +2% cycles
    wobble.ipc = base.insns as f64 / wobble.cycles as f64;
    let d = diff(&base, &wobble);
    assert!(!d.exceeds(5.0), "a 2% wobble must pass the 5% gate");
    assert!(d.exceeds(1.0), "…but still registers as a regression");
}

/// With a recorder attached, the whole CPI stack is folded into the
/// telemetry counters as `stall.<reason>`, and the counters respect the
/// same conservation law.
#[test]
fn telemetry_counters_carry_the_cpi_stack() {
    let kernel = micro::streaming(6);
    let gpu = GpuConfig::test_small();
    let attach = Attach {
        telemetry: Some(1 << 16),
        ..Attach::default()
    };
    let report = DesignKind::RegLess(RegLessConfig::with_capacity(256))
        .execute(&kernel, gpu, &attach)
        .expect("runs");
    let telemetry = report.telemetry.as_ref().expect("telemetry attached");
    let mut total = 0u64;
    for reason in StallReason::ALL {
        let v = telemetry
            .counters
            .get(reason.counter_name())
            .copied()
            .unwrap_or_else(|| panic!("missing counter {}", reason.counter_name()));
        assert_eq!(v, report.issue_stack().get(reason));
        total += v;
    }
    let slots_per_cycle = (gpu.schedulers_per_sm * gpu.issue_slots_per_scheduler) as u64;
    assert_eq!(total, report.cycles * slots_per_cycle * gpu.num_sms as u64);
}
