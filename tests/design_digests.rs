//! Committed digests of every registered design's model output.
//!
//! For each (kernel, design) point below, the FNV-1a 64 digest of
//! `RunReport::stable_json()` must match `tests/golden/design_digests.txt`.
//! Simulator rewrites are then checked against committed bytes, not only
//! stepped against event-driven runs of the same build. On an intended
//! model change, the failure message prints the regenerated file.

use regless::baselines::Throttle;
use regless::bench::registry;
use regless::bench::{eval_gpu, run_design, Attach, DesignKind};
use regless::core::{ActivationOrder, PatternSet, RegLessConfig};
use regless::sim::GpuConfig;
use regless::workloads::{high_pressure_kernel, rodinia};

/// The two smallest Rodinia kernels by simulated cycles.
const KERNELS: [&str; 2] = ["nn", "pathfinder"];

/// Extra single points on kernels whose small-OSU runs stall on CM
/// admission and barriers, where a stale admission skip would show.
const EXTRA: [(&str, usize); 2] = [("hotspot", 128), ("backprop", 256)];

/// RegLess points on a dual-issue machine (two issue slots per
/// scheduler): a warp that issued in a scheduler's first slot is tested
/// for eligibility again in its second, the one case where RegLess must
/// look up the region at a warp's PC within the cycle it moved.
const DUAL_ISSUE: [(&str, usize); 1] = [("hotspot", 128)];

/// Capacity-throttled designs on a kernel where their warp admission
/// throttles (on nn and pathfinder every warp fits, so those lines do
/// not pin admission or the charging of skipped cycles).
const THROTTLED: [(&str, &str); 3] = [
    ("hotspot", "rfv"),
    ("hotspot", "regdem"),
    ("hotspot", "compress-rf"),
];

/// RegLess ablation points (paper §6.5, and §5.2's bank-aware
/// renumbering) on pathfinder, where each digest differs from the default
/// `regless` line. `PatternSet::FullWarpStrides` is left out: it matches
/// `Full` on every small kernel, so it would pin nothing.
fn ablations() -> [(&'static str, RegLessConfig); 5] {
    let cfg = RegLessConfig::paper_default();
    [
        (
            "fifo",
            RegLessConfig {
                activation_order: ActivationOrder::Fifo,
                ..cfg
            },
        ),
        (
            "const-only",
            RegLessConfig {
                compressor_patterns: PatternSet::ConstantOnly,
                ..cfg
            },
        ),
        (
            "renumber",
            RegLessConfig {
                renumber: true,
                ..cfg
            },
        ),
        (
            "no-split",
            RegLessConfig {
                split_load_use: false,
                ..cfg
            },
        ),
        (
            "min-region-1",
            RegLessConfig {
                min_region_insns: 1,
                ..cfg
            },
        ),
    ]
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn design_digests_match_golden() {
    let mut points: Vec<(String, DesignKind)> = registry::all()
        .iter()
        .map(|e| (e.id.to_string(), e.default_design()))
        .collect();
    points.push((
        "regless@128".to_string(),
        DesignKind::RegLess(RegLessConfig::with_capacity(128)),
    ));
    let mut actual =
        String::from("# FNV-1a 64 of RunReport::stable_json() (compact): kernel design digest\n");
    for kernel in KERNELS {
        let k = rodinia::kernel(kernel);
        for (id, design) in &points {
            let json = run_design(&k, *design).stable_json().to_string_compact();
            actual.push_str(&format!(
                "{kernel} {id} {:016x}\n",
                fnv1a64(json.as_bytes())
            ));
        }
    }
    for (kernel, entries) in EXTRA {
        let k = rodinia::kernel(kernel);
        let design = DesignKind::RegLess(RegLessConfig::with_capacity(entries));
        let json = run_design(&k, design).stable_json().to_string_compact();
        actual.push_str(&format!(
            "{kernel} regless@{entries} {:016x}\n",
            fnv1a64(json.as_bytes())
        ));
    }
    for (kernel, entries) in DUAL_ISSUE {
        let k = rodinia::kernel(kernel);
        let gpu = GpuConfig {
            issue_slots_per_scheduler: 2,
            ..eval_gpu()
        };
        let design = DesignKind::RegLess(RegLessConfig::with_capacity(entries));
        let json = design
            .execute(&k, gpu, &Attach::default())
            .unwrap_or_else(|e| panic!("{kernel} dual-issue: {e}"))
            .stable_json()
            .to_string_compact();
        actual.push_str(&format!(
            "{kernel} regless@{entries}x2 {:016x}\n",
            fnv1a64(json.as_bytes())
        ));
    }
    for (kernel, id) in THROTTLED {
        let design = registry::lookup(id).expect("registered").default_design();
        let json = run_design(&rodinia::kernel(kernel), design)
            .stable_json()
            .to_string_compact();
        actual.push_str(&format!(
            "{kernel} {id} {:016x}\n",
            fnv1a64(json.as_bytes())
        ));
    }
    // The full register file with occupancy capped by the kernel's
    // register allocation (the §7 oversubscription study), run directly
    // rather than through the sweep engine so the test writes no cache.
    let occupancy = DesignKind::Throttled(Throttle::Occupancy);
    let json = run_design(&high_pressure_kernel(), occupancy)
        .stable_json()
        .to_string_compact();
    actual.push_str(&format!(
        "high_pressure occupancy-limited {:016x}\n",
        fnv1a64(json.as_bytes())
    ));
    let pathfinder = rodinia::kernel("pathfinder");
    for (id, cfg) in ablations() {
        let json = run_design(&pathfinder, DesignKind::RegLess(cfg))
            .stable_json()
            .to_string_compact();
        actual.push_str(&format!(
            "pathfinder regless+{id} {:016x}\n",
            fnv1a64(json.as_bytes())
        ));
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
