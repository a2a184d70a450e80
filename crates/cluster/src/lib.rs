//! `regless-cluster` — a fault-tolerant coordinator/worker sweep cluster.
//!
//! The paper's evaluation is a (kernel × design × capacity) cross-product
//! — 21 Rodinia benchmarks × 4 designs plus capacity and ablation sweeps
//! — and every extra backend multiplies the design axis again. This crate
//! shards exactly that space across N worker processes, composing the two
//! building blocks earlier layers provide: the `crates/serve` JSONL
//! protocol (extended with `claim`/`result`/`heartbeat` request kinds)
//! and the `crates/bench` sweep engine (memoized, fingerprinted, atomic
//! disk cache).
//!
//! The moving pieces (see DESIGN.md §14 for the full contract):
//!
//! - **Coordinator** ([`coordinator`]): enumerates the sweep space as
//!   [`WorkUnit`]s, hands them out on `claim`, collects `RunReport`s on
//!   `result`, and merges them into the *same*
//!   `results/cache/<fingerprint>/` layout every other consumer reads —
//!   `regless sweep`, `regless report --trend`, and the `figs/*` binaries
//!   consume cluster output unchanged.
//! - **Assignment** ([`assignment`]): a consistent-hash ring over worker
//!   names. Each unit prefers the worker its hash lands on, so worker
//!   disk caches stay hot and disjoint; a worker whose partition is
//!   drained steals from whatever remains, so stragglers never idle the
//!   cluster.
//! - **Liveness** ([`liveness`]): every request refreshes the sender's
//!   deadline; a silent worker is reaped and its in-flight units are
//!   reassigned to survivors. Reassignment is idempotent because results
//!   are keyed by the unit's stable hash and cache writes are atomic
//!   (temp file + rename) — a zombie's late duplicate is acknowledged and
//!   discarded.
//! - **Worker** ([`worker`]): claim → simulate (heartbeating on a side
//!   connection) → deliver, with bounded exponential-backoff reconnects
//!   on transient connect errors.
//! - **Merge / digests** ([`merge`]): order-independent digests of
//!   `RunReport::stable_json()` per unit, the byte-identity comparator CI
//!   uses to check cluster output against a single-process sweep.
//! - **Stats** ([`stats`]): the run summary `regless cluster --json`
//!   prints: units, reassignments, duplicates, per-worker counts, wall
//!   clock.
//!
//! Protocol versioning: every cluster request carries
//! [`regless_serve::PROTOCOL_VERSION`]; the coordinator refuses a
//! mismatched worker with a structured `version_mismatch` error, so a
//! rolling restart that mixes binaries fails loudly instead of corrupting
//! a sweep.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assignment;
pub mod coordinator;
pub mod liveness;
pub mod merge;
pub mod stats;
pub mod worker;

pub use coordinator::{Coordinator, CoordinatorConfig, CoordinatorHandle};
pub use stats::{ClusterSummary, MetricKind};
pub use worker::{run_worker, WorkerConfig, WorkerSummary};

use regless_bench::sweep::{unit_hash, unit_slug};
use regless_bench::{eval_gpu, DesignKind};

/// Default coordinator listen address (`regless cluster` / `regless
/// worker` agree on it; one above serve's `7117`).
pub const DEFAULT_CLUSTER_ADDR: &str = "127.0.0.1:7118";

/// One shard of the sweep space: a benchmark × design point on the
/// evaluation machine, identified by the stable hash the coordinator
/// assigns and reassigns by.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WorkUnit {
    /// Stable id: [`unit_hash`] of the `(bench, design, eval_gpu())` key.
    /// Identical across processes, so a reassigned unit and its original
    /// claim name the same result.
    pub id: u64,
    /// Benchmark id (`rodinia/<name>`, `micro/<name>`, …).
    pub bench: String,
    /// The storage design to run.
    pub design: DesignKind,
}

impl WorkUnit {
    /// A unit for `(bench, design)`.
    pub fn new(bench: &str, design: DesignKind) -> WorkUnit {
        WorkUnit {
            id: unit_hash(bench, design, eval_gpu()),
            bench: bench.to_string(),
            design,
        }
    }

    /// The disk-cache entry filename for this unit's result (used by the
    /// merge digests).
    pub fn slug(&self) -> String {
        unit_slug(&self.bench, self.design, eval_gpu())
    }
}

/// Enumerate the (benchmark × design) cross-product as work units.
/// Deterministic order.
pub fn units_for(benches: &[String], designs: &[DesignKind]) -> Vec<WorkUnit> {
    benches
        .iter()
        .flat_map(|bench| designs.iter().map(move |&d| WorkUnit::new(bench, d)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_ids_are_stable_and_distinct() {
        let a = WorkUnit::new("rodinia/nn", DesignKind::Baseline);
        let b = WorkUnit::new("rodinia/nn", DesignKind::Baseline);
        assert_eq!(a.id, b.id, "ids must be stable across constructions");
        let c = WorkUnit::new("rodinia/bfs", DesignKind::Baseline);
        assert_ne!(a.id, c.id);
    }

    #[test]
    fn units_for_covers_every_design() {
        let benches = vec!["rodinia/nn".to_string(), "rodinia/bfs".to_string()];
        let designs = vec![
            DesignKind::Baseline,
            DesignKind::Rfh,
            DesignKind::regless_512(),
        ];
        let units = units_for(&benches, &designs);
        assert_eq!(units.len(), 6, "one unit per bench x design");
        let ids: std::collections::HashSet<u64> = units.iter().map(|u| u.id).collect();
        assert_eq!(ids.len(), 6, "all ids distinct");
    }
}
