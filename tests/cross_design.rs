//! Integration tests spanning crates: the same compiled kernels run under
//! every register-storage design and must agree on the work performed.

use regless::baselines::Throttle;
use regless::bench::{Attach, DesignKind};
use regless::compiler::{compile, RegionConfig};
use regless::core::RegLessConfig;
use regless::isa::Kernel;
use regless::sim::{run_baseline, GpuConfig, RunReport};
use regless::workloads::rodinia;
use std::sync::Arc;

/// A scaled-down machine so the whole matrix stays fast in debug builds.
fn gpu() -> GpuConfig {
    GpuConfig {
        num_sms: 1,
        warps_per_sm: 16,
        ..GpuConfig::gtx980()
    }
}

fn regless_run(kernel: &Kernel, cfg: RegLessConfig) -> RunReport {
    DesignKind::RegLess(cfg)
        .execute(kernel, gpu(), &Attach::default())
        .unwrap()
}

#[test]
fn all_designs_execute_identical_instruction_streams() {
    for name in ["nn", "bfs", "pathfinder"] {
        let kernel = rodinia::kernel(name);
        let compiled = compile(&kernel, &RegionConfig::default()).unwrap();
        let base = run_baseline(gpu(), Arc::new(compiled)).unwrap();
        let run = |design: DesignKind| design.execute(&kernel, gpu(), &Attach::default()).unwrap();
        let rfh = run(DesignKind::Rfh);
        let rfv = run(DesignKind::Throttled(Throttle::Rename));
        let rl = run(DesignKind::regless_512());
        let expect = base.total().insns;
        assert!(expect > 0);
        for (label, got) in [
            ("rfh", rfh.total().insns),
            ("rfv", rfv.total().insns),
            ("regless", rl.total().insns),
        ] {
            assert_eq!(got, expect, "{name}/{label} diverged from baseline");
        }
    }
}

#[test]
fn regless_replaces_rf_accesses_with_osu_accesses() {
    let kernel = rodinia::kernel("kmeans");
    let rl = regless_run(&kernel, RegLessConfig::paper_default());
    // The baseline runs the same compiled kernel, regions and all.
    let rl_regions = RegLessConfig::paper_default().region_config(&gpu());
    let compiled = compile(&kernel, &rl_regions).unwrap();
    let base = run_baseline(gpu(), Arc::new(compiled)).unwrap();
    let (b, r) = (base.total(), rl.total());
    assert_eq!(r.rf_reads, 0, "RegLess has no register file");
    assert_eq!(b.osu_reads, 0, "baseline has no staging unit");
    // Both designs move the same operands, just through different
    // structures.
    assert_eq!(r.osu_reads, b.rf_reads);
    assert_eq!(r.osu_writes, b.rf_writes);
}

#[test]
fn regless_stats_are_internally_consistent() {
    let kernel = rodinia::kernel("backprop");
    let rl = regless_run(&kernel, RegLessConfig::paper_default());
    let t = rl.total();
    // Every region activation preloaded its inputs through the tag ports.
    assert!(t.osu_tag_probes >= t.preloads_total());
    assert!(t.regions_activated > 0);
    assert!(
        t.region_active_cycles >= t.regions_activated,
        "each activation is live for at least a cycle"
    );
    // Compression only happens on spills that were offered to it.
    assert!(t.compressor_compressed <= t.compressor_matches);
    // The reservation model should essentially never be violated.
    assert_eq!(t.reservation_overflows, 0, "reservation overflows detected");
}

#[test]
fn simulations_are_deterministic() {
    let kernel = rodinia::kernel("srad_v2");
    let run = || regless_run(&kernel, RegLessConfig::paper_default());
    let (a, b) = (run(), run());
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.total().insns, b.total().insns);
    assert_eq!(a.total().preloads_total(), b.total().preloads_total());
    assert_eq!(a.mem.l2_accesses, b.mem.l2_accesses);
}

#[test]
fn configs_round_trip_through_json() {
    let gpu = gpu();
    let json = regless_json::to_string(&gpu);
    let back: GpuConfig = regless_json::from_str(&json).unwrap();
    assert_eq!(back, gpu);

    let rl = RegLessConfig::paper_default();
    let json = regless_json::to_string(&rl);
    let back: RegLessConfig = regless_json::from_str(&json).unwrap();
    assert_eq!(back, rl);

    let rc = RegionConfig::default();
    let json = regless_json::to_string(&rc);
    let back: RegionConfig = regless_json::from_str(&json).unwrap();
    assert_eq!(back, rc);
}

#[test]
fn multiple_sms_share_the_l2() {
    // Two SMs run the same kernel concurrently: same per-warp work, shared
    // L2 — both must finish, and total instructions double.
    let kernel = rodinia::kernel("kmeans");
    let one = GpuConfig {
        num_sms: 1,
        ..gpu()
    };
    let two = GpuConfig {
        num_sms: 2,
        ..gpu()
    };
    let compiled = compile(&kernel, &RegionConfig::default()).unwrap();
    let r1 = run_baseline(one, Arc::new(compiled.clone())).unwrap();
    let r2 = run_baseline(two, Arc::new(compiled)).unwrap();
    assert_eq!(r2.total().insns, 2 * r1.total().insns);
    // Contention on the shared L2/DRAM can only slow things down.
    assert!(r2.cycles >= r1.cycles);
    // Each SM's architectural state is internally consistent: warp 0 of
    // both SMs computed from different global warp indices, so their
    // thread-id-derived registers differ.
    assert_ne!(r2.final_regs[0][0], r2.final_regs[1][0]);
}

#[test]
fn shipped_asm_kernels_load_compile_and_run() {
    use regless::isa::text::parse_kernel;
    for entry in std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/kernels")).unwrap() {
        let path = entry.unwrap().path();
        let text = std::fs::read_to_string(&path).unwrap();
        let kernel = parse_kernel(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let report = regless_run(&kernel, RegLessConfig::paper_default());
        assert!(report.total().insns > 0, "{}", path.display());
        assert_eq!(report.total().staging_mismatches, 0, "{}", path.display());
    }
}

#[test]
fn small_capacities_run_correctly() {
    // The 128- and 192-entry design points have the tightest region limits;
    // they must still satisfy both oracles.
    use regless::sim::interpret;
    let kernel = rodinia::kernel("nn");
    for entries in [128usize, 192, 256] {
        let report = regless_run(&kernel, RegLessConfig::with_capacity(entries));
        assert_eq!(report.total().staging_mismatches, 0, "{entries} entries");
        let reference = interpret(&kernel, 0, 10_000_000).unwrap();
        assert_eq!(
            report.warp_insns[0][0], reference.insns,
            "{entries} entries"
        );
    }
}
