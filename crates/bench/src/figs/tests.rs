//! Smoke tests for the cheap (compiler-only or model-only) figure modules;
//! the simulation-heavy figures are exercised by `regless experiments`.

use super::*;

#[test]
fn fig05_renders_liveness_profile() {
    let r = fig05::report();
    assert!(r.contains("live registers per static instruction"));
    assert!(r.contains("max live registers"));
    assert!(r.lines().count() > 20);
}

#[test]
fn fig11_covers_all_capacities() {
    let r = fig11::report();
    for entries in fig11::CAPACITIES {
        assert!(r.contains(&entries.to_string()), "missing {entries}");
    }
    assert!(r.contains("compressor"));
}

#[test]
fn fig19_lists_every_benchmark() {
    let r = fig19::report();
    for name in regless_workloads::rodinia::NAMES {
        assert!(r.contains(name), "missing {name}");
    }
}

#[test]
fn table1_matches_paper_parameters() {
    let r = table1::report();
    assert!(r.contains("16, 64 warps each, 4 schedulers"));
    assert!(r.contains("48KB, 32MSHRs, data accesses bypassed"));
    assert!(r.contains("one request per cycle"));
    assert!(r.contains("2MB L2 in 4 partitions"));
}
