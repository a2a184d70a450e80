//! End-to-end throughput of the compiler and the simulators on
//! representative kernels, measured with the in-tree timing harness (the
//! build environment cannot fetch criterion). These measure the
//! *reproduction's* own performance (cycles simulated per second),
//! complementing the `fig*`/`table*` binaries that regenerate the paper's
//! results.

use regless_bench::timing::bench;
use regless_bench::{Attach, DesignKind};
use regless_compiler::{compile, RegionConfig};
use regless_sim::GpuConfig;
use regless_workloads::rodinia;
use std::hint::black_box;

/// A reduced machine so each iteration stays in the millisecond range.
fn bench_gpu() -> GpuConfig {
    GpuConfig {
        num_sms: 1,
        warps_per_sm: 16,
        ..GpuConfig::gtx980()
    }
}

fn main() {
    for name in ["nn", "hotspot", "lud"] {
        let kernel = rodinia::kernel(name);
        bench(&format!("compile/{name}"), || {
            compile(black_box(&kernel), &RegionConfig::default()).unwrap()
        });
    }
    // Each run compiles its kernel too, which is under 1% of its time.
    for (label, design) in [
        ("baseline_sim", DesignKind::Baseline),
        ("regless_sim", DesignKind::regless_512()),
    ] {
        for name in ["nn", "pathfinder"] {
            let kernel = rodinia::kernel(name);
            bench(&format!("{label}/{name}"), || {
                design
                    .execute(&kernel, bench_gpu(), &Attach::default())
                    .unwrap()
            });
        }
    }
}
