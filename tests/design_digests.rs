//! Committed digests of every registered design's model output.
//!
//! For each (kernel, design point) below, the FNV-1a 64 digest of
//! `RunReport::stable_json()` must match `tests/golden/design_digests.txt`.
//! Simulator rewrites are then checked against committed bytes, not only
//! stepped against event-driven runs of the same build. Every point is a
//! design-point text read by `registry::parse`. On an intended model
//! change, the failure message prints the regenerated file.

use regless::bench::sweep::{bench_kernel, SweepEngine, SweepMode};
use regless::bench::{eval_gpu, registry, Attach};
use regless::sim::GpuConfig;

/// The two smallest Rodinia kernels by simulated cycles: every registered
/// design runs on each, then these extra points (golden label, design
/// point).
const KERNELS: [&str; 2] = ["rodinia/nn", "rodinia/pathfinder"];
const ON_EVERY_KERNEL: [(&str, &str); 1] = [("regless@128", "regless:capacity=128")];

/// Single points, in golden-file order: benchmark, golden label, design
/// point, issue slots per scheduler.
const SINGLE: [(&str, &str, &str, usize); 12] = [
    // Small-OSU runs that stall on CM admission and barriers, where a
    // stale admission skip would show.
    ("rodinia/hotspot", "regless@128", "regless:capacity=128", 1),
    ("rodinia/backprop", "regless@256", "regless:capacity=256", 1),
    // A dual-issue machine: a warp that issued in a scheduler's first
    // slot is tested for eligibility again in its second, the one case
    // where RegLess must look up the region at a warp's PC within the
    // cycle it moved.
    (
        "rodinia/hotspot",
        "regless@128x2",
        "regless:capacity=128",
        2,
    ),
    // Capacity-throttled designs on a kernel where their warp admission
    // throttles (on nn and pathfinder every warp fits, so those lines do
    // not pin admission or the charging of skipped cycles).
    ("rodinia/hotspot", "rfv", "rfv", 1),
    ("rodinia/hotspot", "regdem", "regdem", 1),
    ("rodinia/hotspot", "compress-rf", "compress-rf", 1),
    // The full register file with occupancy capped by the kernel's
    // register allocation (the §7 oversubscription study).
    (
        "special/high_pressure",
        "occupancy-limited",
        "baseline:throttle=occupancy",
        1,
    ),
    // RegLess ablation points (paper §6.5, and §5.2's bank-aware
    // renumbering), where each digest differs from the default `regless`
    // line. `patterns=full-warp-strides` is left out: it matches `full`
    // on every small kernel, so it would pin nothing.
    (
        "rodinia/pathfinder",
        "regless+fifo",
        "regless:order=fifo",
        1,
    ),
    (
        "rodinia/pathfinder",
        "regless+const-only",
        "regless:patterns=constant-only",
        1,
    ),
    (
        "rodinia/pathfinder",
        "regless+renumber",
        "regless:renumber=true",
        1,
    ),
    (
        "rodinia/pathfinder",
        "regless+no-split",
        "regless:split_load_use=false",
        1,
    ),
    (
        "rodinia/pathfinder",
        "regless+min-region-1",
        "regless:min_region=1",
        1,
    ),
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The golden line for `point` on `bench` with `issue_slots` per
/// scheduler, run directly rather than through the sweep engine so the
/// test writes no cache.
fn digest_line(bench: &str, label: &str, point: &str, issue_slots: usize) -> String {
    let kernel = bench_kernel(bench).expect("known benchmark");
    let design = registry::parse(point).unwrap_or_else(|e| panic!("{point}: {e}"));
    let gpu = GpuConfig {
        issue_slots_per_scheduler: issue_slots,
        ..eval_gpu()
    };
    let json = design
        .execute(&kernel, gpu, &Attach::default())
        .unwrap_or_else(|e| panic!("{bench} {point}: {e}"))
        .stable_json()
        .to_string_compact();
    format!(
        "{} {label} {:016x}\n",
        kernel.name(),
        fnv1a64(json.as_bytes())
    )
}

#[test]
fn design_digests_match_golden() {
    assert_eq!(eval_gpu().issue_slots_per_scheduler, 1);
    let mut points: Vec<(&str, &str)> = registry::ids().into_iter().map(|id| (id, id)).collect();
    points.extend(ON_EVERY_KERNEL);
    let mut actual =
        String::from("# FNV-1a 64 of RunReport::stable_json() (compact): kernel design digest\n");
    for bench in KERNELS {
        for (label, point) in &points {
            actual.push_str(&digest_line(bench, label, point, 1));
        }
    }
    for (bench, label, point, issue_slots) in SINGLE {
        actual.push_str(&digest_line(bench, label, point, issue_slots));
    }
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/design_digests.txt"
    ))
    .expect("golden design digests are checked in");
    assert_eq!(
        actual, golden,
        "model output drifted from tests/golden/design_digests.txt; if the \
         change is intentional, replace the file with:\n{actual}"
    );
}

/// The local sweep path runs any design point, not only the registered
/// ids: a RegLess ablation point and the §7 occupancy-limited RF, queued
/// together through `SweepEngine::prefetch`'s worker threads, digest to
/// their golden lines.
#[test]
fn prefetched_design_points_match_golden() {
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/design_digests.txt"
    ))
    .expect("golden design digests are checked in");
    let points = [
        ("rodinia/pathfinder", "regless+fifo", "regless:order=fifo"),
        (
            "special/high_pressure",
            "occupancy-limited",
            "baseline:throttle=occupancy",
        ),
    ];
    let jobs: Vec<_> = points
        .iter()
        .map(|(bench, _, point)| {
            let design = registry::parse(point).unwrap_or_else(|e| panic!("{point}: {e}"));
            (bench.to_string(), design, eval_gpu())
        })
        .collect();
    let engine = SweepEngine::with_config(None, SweepMode::Normal);
    engine.prefetch(&jobs);
    for ((bench, label, point), (_, design, gpu)) in points.iter().zip(&jobs) {
        let report = engine
            .lookup(bench, *design, *gpu)
            .unwrap_or_else(|| panic!("{point}: prefetch left no result"));
        let kernel = bench_kernel(bench).expect("known benchmark");
        let json = report.stable_json().to_string_compact();
        let line = format!(
            "{} {label} {:016x}",
            kernel.name(),
            fnv1a64(json.as_bytes())
        );
        assert!(golden.lines().any(|l| l == line), "{point}: {line}");
    }
}
