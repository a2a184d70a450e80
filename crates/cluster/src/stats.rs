//! Cluster run summaries — what `regless cluster --json` prints and the
//! CLI footer is built from.

use regless_json::{Json, ToJson};

/// Everything a finished (or drained) cluster run reports.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ClusterSummary {
    /// Distinct workers that ever claimed work.
    pub workers_seen: u64,
    /// Workers declared dead by the liveness sweep.
    pub workers_reaped: u64,
    /// Work units in the sweep space.
    pub units_total: u64,
    /// Units with a merged result.
    pub units_done: u64,
    /// `claim` requests answered with a unit.
    pub claims: u64,
    /// `claim` requests answered with a wait hint (nothing pending, sweep
    /// not yet complete).
    pub waits: u64,
    /// `result` requests accepted and merged.
    pub results: u64,
    /// `result` requests for already-done units (a reassigned unit's
    /// original owner finishing late) — acknowledged and discarded.
    pub duplicate_results: u64,
    /// In-flight units moved back to pending after their worker died.
    pub reassignments: u64,
    /// `heartbeat` requests handled.
    pub heartbeats: u64,
    /// Cluster requests refused for a protocol-version mismatch.
    pub version_rejects: u64,
    /// Simulated cycles across merged results (the cluster-wide
    /// simulated-cycles/sec numerator).
    pub cycles_done: u64,
    /// Coordinator wall-clock for the sweep, filled in by the front door.
    pub wall_seconds: f64,
}

/// How the coordinator's `metrics` exports one [`ClusterSummary`] count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone: `regless_coord_<key>_total`.
    Counter,
    /// A level: `regless_coord_<key>`.
    Gauge,
}

impl ClusterSummary {
    /// Whether every unit has a merged result.
    pub fn complete(&self) -> bool {
        self.units_done == self.units_total
    }

    /// Every count, in [`ClusterSummary::to_json`] order, with the help
    /// text and metric type the coordinator's `metrics` exports it under:
    /// the one list `regless cluster --json`, `stats` and `metrics` are
    /// rendered from.
    pub fn counts(&self) -> [(&'static str, &'static str, MetricKind, u64); 12] {
        use MetricKind::{Counter, Gauge};
        [
            (
                "workers_seen",
                "Distinct workers that ever joined",
                Gauge,
                self.workers_seen,
            ),
            (
                "workers_reaped",
                "Workers declared dead after heartbeat silence",
                Counter,
                self.workers_reaped,
            ),
            (
                "units_total",
                "Units in the sweep space",
                Gauge,
                self.units_total,
            ),
            (
                "units_done",
                "Units with a merged result",
                Gauge,
                self.units_done,
            ),
            (
                "claims",
                "Units handed out to workers",
                Counter,
                self.claims,
            ),
            (
                "waits",
                "Claims answered with a wait hint",
                Counter,
                self.waits,
            ),
            (
                "results",
                "Results merged into the sweep cache",
                Counter,
                self.results,
            ),
            (
                "duplicate_results",
                "Late duplicate results acknowledged and discarded",
                Counter,
                self.duplicate_results,
            ),
            (
                "reassignments",
                "Units returned to pending after their worker was reaped",
                Counter,
                self.reassignments,
            ),
            (
                "heartbeats",
                "Standalone heartbeat requests received",
                Counter,
                self.heartbeats,
            ),
            (
                "version_rejects",
                "Requests rejected for a protocol version mismatch",
                Counter,
                self.version_rejects,
            ),
            (
                "cycles_done",
                "Simulated cycles across merged results",
                Counter,
                self.cycles_done,
            ),
        ]
    }

    /// JSON for `regless cluster --json`.
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = self
            .counts()
            .iter()
            .map(|(key, _, _, value)| (key.to_string(), ToJson::to_json(value)))
            .collect();
        fields.push(("wall_seconds".into(), ToJson::to_json(&self.wall_seconds)));
        fields.push(("complete".into(), Json::Bool(self.complete())));
        Json::Obj(fields)
    }

    /// Human-readable footer for the CLI.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "cluster sweep: {}/{} units in {:.2} s ({} workers",
            self.units_done, self.units_total, self.wall_seconds, self.workers_seen
        ));
        if self.workers_reaped > 0 {
            out.push_str(&format!(", {} reaped", self.workers_reaped));
        }
        out.push_str(")\n");
        out.push_str(&format!(
            "  claims {} (+{} waits), results {} (+{} duplicates), reassignments {}, heartbeats {}\n",
            self.claims,
            self.waits,
            self.results,
            self.duplicate_results,
            self.reassignments,
            self.heartbeats
        ));
        if self.version_rejects > 0 {
            out.push_str(&format!(
                "  WARNING: {} requests refused for protocol version mismatch\n",
                self.version_rejects
            ));
        }
        if !self.complete() {
            out.push_str("  WARNING: sweep incomplete (drained early?)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_json_round_trips_and_flags_completion() {
        let s = ClusterSummary {
            workers_seen: 3,
            workers_reaped: 1,
            units_total: 16,
            units_done: 16,
            claims: 17,
            waits: 2,
            results: 16,
            duplicate_results: 1,
            reassignments: 2,
            heartbeats: 40,
            version_rejects: 0,
            cycles_done: 123_456,
            wall_seconds: 1.5,
        };
        assert!(s.complete());
        let parsed = Json::parse(&s.to_json().to_string_compact()).unwrap();
        let done: u64 =
            regless_json::FromJson::from_json(parsed.field("units_done").unwrap()).unwrap();
        assert_eq!(done, 16);
        assert_eq!(parsed.field("complete").unwrap(), &Json::Bool(true));

        let text = s.render();
        assert!(text.contains("16/16 units"), "{text}");
        assert!(text.contains("1 reaped"), "{text}");
        assert!(!text.contains("WARNING"), "{text}");

        let incomplete = ClusterSummary { units_done: 3, ..s };
        assert!(!incomplete.complete());
        assert!(incomplete.render().contains("WARNING"), "incomplete warns");
    }
}
