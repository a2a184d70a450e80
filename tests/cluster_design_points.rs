//! The sweep cluster runs any design point, not only the registered ids:
//! a RegLess ablation point and the §7 occupancy-limited RF travel from
//! the coordinator to an in-process worker as design-point text, and the
//! merged reports digest to their lines in `tests/golden/design_digests.txt`.

use regless::bench::sweep::{SweepEngine, SweepMode};
use regless::bench::{eval_gpu, registry};
use regless::cluster::{run_worker, Coordinator, CoordinatorConfig, WorkUnit, WorkerConfig};
use std::sync::Arc;
use std::time::Duration;

/// Benchmark, design point, and its line label in the golden file.
const POINTS: [(&str, &str, &str); 2] = [
    (
        "rodinia/pathfinder",
        "regless:order=fifo",
        "pathfinder regless+fifo",
    ),
    (
        "special/high_pressure",
        "baseline:throttle=occupancy",
        "high_pressure occupancy-limited",
    ),
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn golden_digest(label: &str) -> String {
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/design_digests.txt"
    ))
    .expect("golden design digests are checked in");
    golden
        .lines()
        .find_map(|line| line.strip_prefix(&format!("{label} ")))
        .unwrap_or_else(|| panic!("no golden line {label:?}"))
        .to_string()
}

#[test]
fn cluster_runs_ablation_and_occupancy_points() {
    let units: Vec<WorkUnit> = POINTS
        .iter()
        .map(|(bench, point, _)| WorkUnit::new(bench, registry::parse(point).unwrap()))
        .collect();
    let engine = Arc::new(SweepEngine::with_config(None, SweepMode::Normal));
    let handle = Coordinator::start(
        CoordinatorConfig {
            addr: "127.0.0.1:0".to_string(),
            liveness_timeout: Duration::from_secs(60),
            progress: false,
        },
        Arc::clone(&engine),
        units.clone(),
    )
    .expect("start coordinator");
    let addr = handle.addr().to_string();
    let worker = std::thread::spawn(move || {
        let engine = SweepEngine::with_config(None, SweepMode::Normal);
        run_worker(&WorkerConfig::new(&addr, "w0"), &engine)
    });
    let summary = worker
        .join()
        .expect("worker thread")
        .expect("worker runs the sweep");
    assert_eq!(summary.completed, units.len());
    assert!(handle.wait(Duration::from_secs(120)), "sweep completes");
    let cluster = handle.summary();
    handle.stop();
    assert!(cluster.complete(), "{cluster:?}");

    for ((_, point, label), unit) in POINTS.iter().zip(&units) {
        let report = engine
            .lookup(&unit.bench, unit.design, eval_gpu())
            .unwrap_or_else(|| panic!("{point}: no merged result"));
        let digest = fnv1a64(report.stable_json().to_string_compact().as_bytes());
        assert_eq!(format!("{digest:016x}"), golden_digest(label), "{point}");
    }
}
