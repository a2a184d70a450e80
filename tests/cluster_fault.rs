//! Fault-tolerance contract for the sweep cluster.
//!
//! A coordinator with two workers — one of which dies mid-sweep with a
//! unit in flight — must still finish the sweep, and the merged result
//! set must be byte-identical (per `RunReport::stable_json`) to a
//! single-process `SweepEngine` run of the same space. Workers run
//! in-process here (threads, each with its own engine and connections) so
//! the test controls the failure precisely: the flaky worker claims one
//! more unit after its quota and returns without delivering, exactly the
//! footprint of a killed process whose sockets drop.

use regless::bench::sweep::{SweepEngine, SweepMode};
use regless::bench::{eval_gpu, DesignKind};
use regless::cluster::{
    merge, run_worker, units_for, Coordinator, CoordinatorConfig, WorkerConfig,
};
use regless::core::RegLessConfig;
use std::sync::Arc;
use std::time::Duration;

/// Small, fast benchmarks so the sweep finishes in seconds.
fn space() -> Vec<regless::cluster::WorkUnit> {
    units_for(
        &[
            "rodinia/nn".to_string(),
            "rodinia/gaussian".to_string(),
            "rodinia/lud".to_string(),
            "rodinia/backprop".to_string(),
        ],
        &[
            DesignKind::Baseline,
            DesignKind::RegLess(RegLessConfig::with_capacity(256)),
        ],
    )
}

#[test]
fn sweep_survives_a_worker_killed_mid_sweep() {
    let units = space();
    assert_eq!(units.len(), 8);

    // Aggressive liveness so the dead worker is reaped in test time.
    let engine = Arc::new(SweepEngine::with_config(None, SweepMode::Normal));
    let handle = Coordinator::start(
        CoordinatorConfig {
            addr: "127.0.0.1:0".to_string(),
            liveness_timeout: Duration::from_millis(300),
            progress: false,
        },
        Arc::clone(&engine),
        units.clone(),
    )
    .expect("start coordinator");
    let addr = handle.addr().to_string();

    let flaky_summary = std::thread::scope(|scope| {
        // The flaky worker completes one unit, then claims another and
        // "dies" (returns, dropping its sockets, never delivering).
        let flaky = {
            let addr = addr.clone();
            scope.spawn(move || {
                let engine = SweepEngine::with_config(None, SweepMode::Normal);
                let config = WorkerConfig {
                    fail_after: Some(1),
                    ..WorkerConfig::new(&addr, "flaky")
                };
                run_worker(&config, &engine).expect("flaky worker runs until its injected death")
            })
        };
        // The steady worker drains everything else, including the dead
        // worker's reassigned unit.
        let steady = {
            let addr = addr.clone();
            scope.spawn(move || {
                let engine = SweepEngine::with_config(None, SweepMode::Normal);
                let config = WorkerConfig::new(&addr, "steady");
                run_worker(&config, &engine).expect("steady worker finishes the sweep")
            })
        };
        let flaky_summary = flaky.join().expect("flaky thread");
        let steady_summary = steady.join().expect("steady thread");
        assert!(steady_summary.completed > 0);
        flaky_summary
    });
    assert!(flaky_summary.injected_failure, "the chaos hook must fire");
    assert_eq!(flaky_summary.completed, 1);

    assert!(
        handle.wait(Duration::from_secs(120)),
        "sweep completes despite the death"
    );
    let summary = handle.summary();
    handle.stop();
    assert!(summary.complete(), "{summary:?}");
    assert_eq!(summary.units_total, 8);
    assert_eq!(summary.workers_reaped, 1, "{summary:?}");
    assert!(
        summary.reassignments >= 1,
        "the in-flight unit must be reassigned: {summary:?}"
    );

    // Byte-identity: the merged set must digest identically to a fresh
    // single-process run of the same space.
    let cluster_digest = merge::digest_lines(&engine, &units).expect("all units merged");
    let reference = SweepEngine::with_config(None, SweepMode::Normal);
    for unit in &units {
        reference.run(&unit.bench, unit.design, eval_gpu());
    }
    let reference_digest = merge::digest_lines(&reference, &units).expect("reference complete");
    assert_eq!(
        cluster_digest, reference_digest,
        "cluster results must be byte-identical to a single-process sweep"
    );

    // And per-unit: the stable_json bytes themselves agree.
    for unit in &units {
        let merged = engine.lookup(&unit.bench, unit.design, eval_gpu());
        let single = reference.lookup(&unit.bench, unit.design, eval_gpu());
        let (merged, single) = (merged.unwrap(), single.unwrap());
        assert_eq!(
            merged.stable_json().to_string_compact(),
            single.stable_json().to_string_compact(),
            "unit {} diverged",
            unit.slug()
        );
    }
}

#[test]
fn two_healthy_workers_split_the_sweep() {
    let units = space();
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

    let (a, b) = std::thread::scope(|scope| {
        let spawn_worker = |name: &'static str| {
            let addr = addr.clone();
            scope.spawn(move || {
                let engine = SweepEngine::with_config(None, SweepMode::Normal);
                run_worker(&WorkerConfig::new(&addr, name), &engine).expect(name)
            })
        };
        let a = spawn_worker("w0");
        let b = spawn_worker("w1");
        (a.join().expect("w0"), b.join().expect("w1"))
    });
    assert!(
        handle.wait(Duration::from_secs(120)),
        "sweep completes cleanly"
    );
    let summary = handle.summary();
    handle.stop();
    assert!(summary.complete());
    assert_eq!(summary.workers_reaped, 0);
    assert_eq!(summary.duplicate_results, 0);
    assert_eq!(
        (a.completed + b.completed) as u64,
        summary.units_total,
        "every unit done exactly once: {a:?} {b:?}"
    );
    // Consistent hashing should give both workers a share on this space.
    assert!(a.completed > 0 && b.completed > 0, "{a:?} {b:?}");
}
