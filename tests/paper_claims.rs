//! Integration tests checking the paper's headline claims hold in this
//! reproduction, on a fast subset of the workloads (the full sweeps live in
//! the `regless-bench` binaries).

use regless::bench::{Attach, DesignKind};
use regless::compiler::{compile, RegionConfig};
use regless::core::RegLessConfig;
use regless::energy::{baseline_rf_area, baseline_rf_share, energy, regless_area, Design};
use regless::sim::{run_baseline, GpuConfig, SchedulerKind};
use regless::workloads::rodinia;
use std::sync::Arc;

fn gpu() -> GpuConfig {
    GpuConfig {
        num_sms: 1,
        warps_per_sm: 16,
        ..GpuConfig::gtx980()
    }
}

const SUBSET: [&str; 4] = ["kmeans", "pathfinder", "srad_v2", "nn"];

fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// §1: "replacing the register file with an operand staging unit 25% of
/// the size ... with no average performance loss" — we allow a small
/// tolerance on the subset.
#[test]
fn claim_no_large_performance_loss() {
    let mut ratios = Vec::new();
    for name in SUBSET {
        let kernel = rodinia::kernel(name);
        let base = run_baseline(
            gpu(),
            Arc::new(compile(&kernel, &RegionConfig::default()).unwrap()),
        )
        .unwrap();
        let rl = DesignKind::regless_512()
            .execute(&kernel, gpu(), &Attach::default())
            .unwrap();
        ratios.push(rl.cycles as f64 / base.cycles as f64);
    }
    let geo = geomean(&ratios);
    assert!(
        geo < 1.10,
        "geomean slowdown {geo:.3} too large: {ratios:?}"
    );
}

/// §6.3: RegLess reduces register-structure energy by ~75% and total GPU
/// energy by ~11%.
#[test]
fn claim_energy_savings() {
    let mut rf = Vec::new();
    let mut total = Vec::new();
    for name in SUBSET {
        let kernel = rodinia::kernel(name);
        let base = run_baseline(
            gpu(),
            Arc::new(compile(&kernel, &RegionConfig::default()).unwrap()),
        )
        .unwrap();
        let rl = DesignKind::regless_512()
            .execute(&kernel, gpu(), &Attach::default())
            .unwrap();
        let eb = energy(&base, Design::Baseline, &gpu());
        let er = energy(
            &rl,
            Design::RegLess {
                osu_entries_per_sm: 512,
            },
            &gpu(),
        );
        rf.push(er.register_structures_pj / eb.register_structures_pj);
        total.push(er.total_pj() / eb.total_pj());
    }
    let rf_geo = geomean(&rf);
    let total_geo = geomean(&total);
    assert!(
        (0.18..=0.40).contains(&rf_geo),
        "register-structure energy ratio {rf_geo:.3} out of band (paper: 0.247)"
    );
    assert!(
        (0.80..=0.95).contains(&total_geo),
        "GPU energy ratio {total_geo:.3} out of band (paper: 0.89)"
    );
}

/// §6.1/GPUWattch: the register file is a significant share of GPU energy
/// (~13–17%) — the headroom the whole paper targets.
#[test]
fn claim_rf_share_of_gpu_energy() {
    let kernel = rodinia::kernel("kmeans");
    let base = run_baseline(
        gpu(),
        Arc::new(compile(&kernel, &RegionConfig::default()).unwrap()),
    )
    .unwrap();
    let share = baseline_rf_share(&base, &gpu());
    assert!((0.08..=0.25).contains(&share), "RF share {share:.3}");
}

/// Figure 2: a two-level scheduler shrinks the 100-cycle register working
/// set relative to GTO.
#[test]
fn claim_two_level_shrinks_working_set() {
    // Needs the full 64-warp SM: with 16 warps a 4-per-scheduler active
    // set is no restriction at all.
    let full = GpuConfig::gtx980_single_sm();
    let kernel = rodinia::kernel("srad_v2");
    let compiled = Arc::new(compile(&kernel, &RegionConfig::default()).unwrap());
    let gto = run_baseline(full, Arc::clone(&compiled)).unwrap();
    let two = run_baseline(
        GpuConfig {
            scheduler: SchedulerKind::TwoLevel {
                active_per_scheduler: 4,
            },
            ..full
        },
        compiled,
    )
    .unwrap();
    let g = gto.sm_stats[0].working_set.mean_kb();
    let t = two.sm_stats[0].working_set.mean_kb();
    assert!(t < g, "two-level {t:.1} KB should be below GTO {g:.1} KB");
}

/// Figure 16: removing the compressor degrades performance.
#[test]
fn claim_compressor_matters() {
    // Needs the full 64-warp SM: with few warps everything fits in the
    // OSU and the compressor is never exercised.
    let full = GpuConfig::gtx980_single_sm();
    let kernel = rodinia::kernel("pathfinder");
    let run = |cfg| {
        DesignKind::RegLess(cfg)
            .execute(&kernel, full, &Attach::default())
            .unwrap()
    };
    let with = run(RegLessConfig::paper_default());
    let without = run(RegLessConfig {
        compressor_enabled: false,
        ..RegLessConfig::paper_default()
    });
    assert!(
        without.cycles > with.cycles,
        "no-compressor {} should exceed {}",
        without.cycles,
        with.cycles
    );
}

/// Figure 11: the 512-entry design occupies roughly a quarter to a third
/// of the baseline register file's area.
#[test]
fn claim_area_reduction() {
    let ratio = regless_area(512).total() / baseline_rf_area();
    assert!((0.2..=0.4).contains(&ratio), "area ratio {ratio:.3}");
}

/// Figure 17: the overwhelming majority of preloads are satisfied without
/// touching memory.
#[test]
fn claim_preloads_rarely_touch_memory() {
    let mut staged = 0u64;
    let mut total = 0u64;
    for name in SUBSET {
        let kernel = rodinia::kernel(name);
        let rl = DesignKind::regless_512()
            .execute(&kernel, gpu(), &Attach::default())
            .unwrap();
        let t = rl.total();
        staged += t.preloads_osu + t.preloads_compressor;
        total += t.preloads_total();
    }
    let frac = staged as f64 / total.max(1) as f64;
    assert!(
        frac > 0.85,
        "only {frac:.3} of preloads staged without memory"
    );
}
