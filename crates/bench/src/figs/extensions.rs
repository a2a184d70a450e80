//! Extension studies beyond the paper's evaluation: the §7 forward-looking
//! claims and finer-grained design sweeps.

use crate::sweep::{self, HIGH_PRESSURE_ID};
use crate::{compile_default, eval_gpu, format_table, geomean, DesignKind};
use regless_baselines::{Throttle, ThrottledRf};
use regless_core::{PatternSet, RegLessConfig};
use regless_sim::{GpuConfig, SchedulerKind};
use regless_workloads::{high_pressure_kernel, micro, rodinia};

/// §7: "RegLess would be able to oversubscribe the register file without
/// any design changes." A conventional register file must throttle
/// occupancy when per-thread register counts are high; RegLess stores only
/// live values, so every warp stays resident.
pub fn oversubscription() -> String {
    let gpu = eval_gpu();

    // Conventional RF: occupancy capped by register allocation.
    let limited = sweep::design(HIGH_PRESSURE_ID, DesignKind::Throttled(Throttle::Occupancy));
    // Idealized RF with no occupancy limit (the paper's baseline).
    let unlimited = sweep::design(HIGH_PRESSURE_ID, DesignKind::Baseline);
    // RegLess at the paper's design point.
    let regless = sweep::design(HIGH_PRESSURE_ID, DesignKind::regless_512());

    let compiled = compile_default(&high_pressure_kernel());
    let regs = compiled.kernel().num_regs();
    let resident = ThrottledRf::new(Throttle::Occupancy, &gpu, &compiled).concurrent_warps();
    let rows = vec![
        vec![
            "RF, occupancy-limited".to_string(),
            format!("{resident}/{}", gpu.warps_per_sm),
            limited.cycles.to_string(),
            format!("{:.3}", limited.cycles as f64 / unlimited.cycles as f64),
        ],
        vec![
            "RF, unlimited (ideal)".to_string(),
            format!("{0}/{0}", gpu.warps_per_sm),
            unlimited.cycles.to_string(),
            "1.000".to_string(),
        ],
        vec![
            "RegLess 512 (oversubscribed)".to_string(),
            format!("{0}/{0}", gpu.warps_per_sm),
            regless.cycles.to_string(),
            format!("{:.3}", regless.cycles as f64 / unlimited.cycles as f64),
        ],
    ];
    let mut out = format!(
        "Extension: register-file oversubscription (paper §7)\n\
         kernel `high_pressure`: {regs} registers/thread; a 2048-entry RF\n\
         holds {resident} of {} warps\n\n",
        gpu.warps_per_sm
    );
    out.push_str(&format_table(
        &["design", "resident warps", "cycles", "vs ideal RF"],
        &rows,
    ));
    out
}

/// Compressor pattern-set sweep: how much of the compressor's benefit
/// comes from each pattern family.
pub fn compressor_patterns() -> String {
    const SUBSET: [&str; 6] = ["bfs", "hotspot", "kmeans", "lud", "pathfinder", "srad_v2"];
    let mut rows = Vec::new();
    for (label, patterns, enabled) in [
        ("none (disabled)", PatternSet::Full, false),
        ("constants only", PatternSet::ConstantOnly, true),
        ("+ full-warp strides", PatternSet::FullWarpStrides, true),
        ("full set (paper)", PatternSet::Full, true),
    ] {
        let mut ratios = Vec::new();
        let mut compressed = 0u64;
        let mut offered = 0u64;
        for name in SUBSET {
            let bench = sweep::rodinia_id(name);
            let base = sweep::design(&bench, DesignKind::Baseline).cycles as f64;
            let cfg = RegLessConfig {
                compressor_enabled: enabled,
                compressor_patterns: patterns,
                ..Default::default()
            };
            let r = sweep::design(&bench, DesignKind::RegLess(cfg));
            ratios.push(r.cycles as f64 / base);
            compressed += r.total().compressor_compressed;
            offered += r.total().compressor_matches;
        }
        rows.push(vec![
            label.to_string(),
            format!("{:.3}", geomean(&ratios)),
            format!("{:.1}%", 100.0 * compressed as f64 / offered.max(1) as f64),
        ]);
    }
    let mut out = String::from("Extension: compressor pattern-set sweep (geomean over subset)\n\n");
    out.push_str(&format_table(
        &["pattern set", "norm. run time", "evictions compressed"],
        &rows,
    ));
    out
}

/// Warp-scheduler study on the baseline design: GTO (the paper's choice),
/// loose round-robin, and two-level at several active-set sizes.
pub fn schedulers() -> String {
    const SUBSET: [&str; 6] = ["bfs", "hotspot", "kmeans", "lud", "pathfinder", "srad_v2"];
    let kinds = [
        ("GTO (paper)", SchedulerKind::Gto),
        ("LRR", SchedulerKind::Lrr),
        (
            "2-level, 2 active",
            SchedulerKind::TwoLevel {
                active_per_scheduler: 2,
            },
        ),
        (
            "2-level, 4 active",
            SchedulerKind::TwoLevel {
                active_per_scheduler: 4,
            },
        ),
        (
            "2-level, 8 active",
            SchedulerKind::TwoLevel {
                active_per_scheduler: 8,
            },
        ),
    ];
    let mut rows = Vec::new();
    for (label, kind) in kinds {
        let mut ratios = Vec::new();
        let mut ws = Vec::new();
        for name in SUBSET {
            let bench = sweep::rodinia_id(name);
            let gto = sweep::design(&bench, DesignKind::Baseline);
            let gpu = GpuConfig {
                scheduler: kind,
                ..eval_gpu()
            };
            let r = sweep::engine().run(&bench, DesignKind::Baseline, gpu);
            ratios.push(r.cycles as f64 / gto.cycles as f64);
            ws.push(r.sm_stats[0].working_set.mean_kb());
        }
        rows.push(vec![
            label.to_string(),
            format!("{:.3}", geomean(&ratios)),
            format!("{:.1}", ws.iter().sum::<f64>() / ws.len() as f64),
        ]);
    }
    let mut out = String::from("Extension: warp-scheduler study (baseline design, subset)\n\n");
    out.push_str(&format_table(
        &["scheduler", "run time vs GTO", "working set (KB)"],
        &rows,
    ));
    out
}

/// The hand-written microbenchmarks under baseline vs RegLess: each kernel
/// isolates one architectural behaviour.
pub fn microbench() -> String {
    let mut rows = Vec::new();
    for kernel in micro::all() {
        let bench = sweep::micro_id(kernel.name());
        let base = sweep::design(&bench, DesignKind::Baseline);
        let rl = sweep::design(&bench, DesignKind::regless_512());
        let t = rl.total();
        let staged = t.preloads_osu + t.preloads_compressor;
        rows.push(vec![
            kernel.name().to_string(),
            base.cycles.to_string(),
            rl.cycles.to_string(),
            format!("{:.3}", rl.cycles as f64 / base.cycles as f64),
            format!(
                "{:.1}%",
                100.0 * staged as f64 / t.preloads_total().max(1) as f64
            ),
        ]);
    }
    let mut out = String::from("Extension: microbenchmarks (one architectural behaviour each)\n\n");
    out.push_str(&format_table(
        &[
            "kernel",
            "baseline cyc",
            "regless cyc",
            "ratio",
            "staged preloads",
        ],
        &rows,
    ));
    out
}

/// Dual-issue study: the GTX 980's schedulers can issue two instructions
/// per cycle; the OSU was sized to serve that rate (§5.2). Does RegLess's
/// story survive at issue width 2?
pub fn dual_issue() -> String {
    const SUBSET: [&str; 6] = ["bfs", "hotspot", "kmeans", "lud", "pathfinder", "srad_v2"];
    let mut rows = Vec::new();
    for width in [1usize, 2] {
        let mut ratios = Vec::new();
        let mut speedups = Vec::new();
        for name in SUBSET {
            let bench = sweep::rodinia_id(name);
            let gpu = GpuConfig {
                issue_slots_per_scheduler: width,
                ..eval_gpu()
            };
            let base = sweep::engine().run(&bench, DesignKind::Baseline, gpu);
            let base1 = sweep::design(&bench, DesignKind::Baseline);
            let rl = sweep::engine().run(&bench, DesignKind::regless_512(), gpu);
            ratios.push(rl.cycles as f64 / base.cycles as f64);
            speedups.push(base1.cycles as f64 / base.cycles as f64);
        }
        rows.push(vec![
            width.to_string(),
            format!("{:.3}", geomean(&speedups)),
            format!("{:.3}", geomean(&ratios)),
        ]);
    }
    let mut out = String::from(
        "Extension: issue width (baseline speedup over single-issue, and\n\
         RegLess run time vs the equal-width baseline)\n\n",
    );
    out.push_str(&format_table(
        &[
            "issue slots/scheduler",
            "baseline speedup",
            "RegLess vs baseline",
        ],
        &rows,
    ));
    out
}

/// OSU occupancy over time: how much of the 512-entry staging unit is
/// actually held by active regions (sampled every 100 cycles).
pub fn osu_occupancy() -> String {
    let mut rows = Vec::new();
    for name in rodinia::NAMES {
        let r = sweep::design(&sweep::rodinia_id(name), DesignKind::regless_512());
        let samples = r.sm_stats[0].osu_occupancy.samples();
        let mean = r.sm_stats[0].osu_occupancy.mean();
        let peak = samples.iter().copied().max().unwrap_or(0);
        rows.push(vec![
            name.to_string(),
            format!("{:.0}", mean),
            peak.to_string(),
            format!("{:.0}%", 100.0 * mean / 512.0),
        ]);
    }
    let mut out = String::from(
        "Extension: OSU occupancy (active lines of 512, sampled per\n\
         100-cycle window)\n\n",
    );
    out.push_str(&format_table(
        &[
            "benchmark",
            "mean active",
            "peak active",
            "mean utilization",
        ],
        &rows,
    ));
    out
}
