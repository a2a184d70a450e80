//! Observer-effect contract for the host-side self profiler: attaching a
//! [`regless::telemetry::SelfProfiler`] to a run must leave
//! [`RunReport::stable_json`] **byte-identical** — the profiler times the
//! simulator's own phases on the host wall clock and must never perturb
//! simulated state (cycles, CPI stacks, window series, anything). This is
//! the property that makes `regless run --self-profile` safe to use on
//! any run whose numbers matter. A run with no profiler attached is the
//! proptest's `plain` side.

use proptest::prelude::*;
use regless::bench::registry;
use regless::bench::{Attach, DesignKind};
use regless::core::RegLessConfig;
use regless::isa::Kernel;
use regless::sim::{GpuConfig, RunReport};
use regless::telemetry::SelfProfiler;
use regless::workloads::{high_pressure_kernel, micro};
use std::sync::Arc;

/// Same kernel pool as the run-loop equivalence suite: between them the
/// micro kernels exercise every run-loop phase the profiler scopes
/// (writeback retirement, backend housekeeping, issue, stats windows,
/// and the event-calendar jump).
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

/// Run one design on the small test machine, optionally profiled.
fn run_design(kernel: &Kernel, design: DesignKind, prof: Option<Arc<SelfProfiler>>) -> RunReport {
    let attach = Attach {
        selfprof: prof,
        ..Attach::default()
    };
    design
        .execute(kernel, GpuConfig::test_small(), &attach)
        .unwrap_or_else(|e| panic!("{design:?}: {e}"))
}

/// RegLess with a 256-entry OSU.
fn regless_256() -> DesignKind {
    DesignKind::RegLess(RegLessConfig::with_capacity(256))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The contract, for every registered design: profiled and
    /// unprofiled runs emit identical bytes, and the profiler actually
    /// observed the run it rode along on.
    #[test]
    fn profiled_and_unprofiled_reports_are_byte_identical(
        kernel_idx in 0usize..7,
        capacity_idx in 0usize..4,
    ) {
        let capacity = Some([64usize, 128, 256, 512][capacity_idx]);
        let kernel = test_kernel(kernel_idx);
        for entry in registry::all() {
            let design = registry::parse_with_aliases(entry.id, capacity, None, false).unwrap();
            let plain = run_design(&kernel, design, None);
            let prof = Arc::new(SelfProfiler::new());
            let profiled = run_design(&kernel, design, Some(Arc::clone(&prof)));
            prop_assert_eq!(
                plain.stable_json().to_string_compact(),
                profiled.stable_json().to_string_compact(),
                "self-profiling perturbed the report: kernel {} design {}",
                kernel_idx, registry::render(design)
            );
            prop_assert!(
                !prof.snapshot().is_empty(),
                "the attached profiler observed no phases at all under {}",
                entry.id
            );
        }
    }
}

/// The phase tables of a profiled run name the run-loop phases the
/// instrumentation promises, and the rendered table carries them.
#[test]
fn profiled_run_names_the_run_loop_phases() {
    let kernel = micro::reduction_tree();
    let prof = Arc::new(SelfProfiler::new());
    run_design(&kernel, regless_256(), Some(Arc::clone(&prof)));
    let phases: Vec<String> = prof.snapshot().into_iter().map(|(name, _)| name).collect();
    for expect in ["backend_tick", "issue", "stats_windows", "writeback"] {
        assert!(
            phases.iter().any(|p| p == expect),
            "phase {expect} missing from {phases:?}"
        );
    }
    let table = prof.render_table("sim");
    assert!(table.contains("issue"), "{table}");
}
