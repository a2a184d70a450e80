//! CPI-stack profiles and the performance-regression gate.
//!
//! `regless profile` runs one kernel under one design and renders the
//! per-cycle issue-slot attribution (see DESIGN.md §10) as a table, CSV,
//! or JSON; `regless diff` compares two saved JSON profiles and exits
//! non-zero when a gated metric regresses past a threshold. CI keeps a
//! committed baseline profile and runs the diff on every push, so a
//! timing-model change that silently costs cycles fails the build with a
//! per-reason breakdown of where the slots went.

use crate::format_table;
use regless_sim::{IssueStack, RunReport, StallReason};

/// Regions reported in a profile's hotspot list.
pub const HOTSPOT_REGIONS: usize = 8;

/// One region's merged issue stack inside a [`ProfileReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegionProfile {
    /// The compiler-assigned region id.
    pub region: u32,
    /// Issue slots charged to warps executing (or stalled in) the region,
    /// merged across SMs.
    pub stack: IssueStack,
}

regless_json::impl_json_struct!(RegionProfile { region, stack });

/// A run's CPI-stack profile: headline metrics, the whole-GPU issue
/// stack, and the top region hotspots. Serialized to JSON by
/// `regless profile --format json` and consumed by `regless diff`.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileReport {
    /// Kernel name (benchmark name or file stem).
    pub kernel: String,
    /// Design label (`baseline`, `regless`, `rfh`, `rfv`, ...).
    pub design: String,
    /// OSU entries per SM (0 for designs without an OSU).
    pub capacity: usize,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Instructions executed.
    pub insns: u64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Total issue slots accounted (= cycles × schedulers × slots × SMs;
    /// equals `stack.total()` by the conservation invariant).
    pub issue_slots: u64,
    /// The whole-GPU issue stack.
    pub stack: IssueStack,
    /// The [`HOTSPOT_REGIONS`] regions with the most stalled slots.
    pub regions: Vec<RegionProfile>,
}

regless_json::impl_json_struct!(ProfileReport {
    kernel,
    design,
    capacity,
    cycles,
    insns,
    ipc,
    issue_slots,
    stack,
    regions,
});

impl ProfileReport {
    /// Build a profile from a finished run.
    pub fn collect(report: &RunReport, kernel: &str, design: &str, capacity: usize) -> Self {
        let stack = report.issue_stack();
        let regions = report
            .region_hotspots(HOTSPOT_REGIONS)
            .into_iter()
            .map(|(region, stack)| RegionProfile { region, stack })
            .collect();
        ProfileReport {
            kernel: kernel.to_string(),
            design: design.to_string(),
            capacity,
            cycles: report.cycles,
            insns: report.total().insns,
            ipc: report.ipc(),
            issue_slots: stack.total(),
            stack,
            regions,
        }
    }

    /// Render as an aligned plain-text table (the `--format table`
    /// default). The output is deterministic for a deterministic run and
    /// is golden-tested byte-for-byte.
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "profile: kernel `{}` under {} (capacity {})\n\
             cycles {}  insns {}  IPC {:.3}\n\n",
            self.kernel, self.design, self.capacity, self.cycles, self.insns, self.ipc
        );
        out.push_str(&format!(
            "issue-slot breakdown ({} slots):\n",
            self.issue_slots
        ));
        let rows: Vec<Vec<String>> = self
            .stack
            .entries()
            .map(|(reason, slots)| {
                vec![
                    reason.name().to_string(),
                    slots.to_string(),
                    format!("{:.2}%", 100.0 * self.stack.fraction(reason)),
                ]
            })
            .collect();
        out.push_str(&format_table(&["reason", "slots", "share"], &rows));
        if !self.regions.is_empty() {
            out.push_str("\ntop region hotspots (by stalled slots):\n");
            let rows: Vec<Vec<String>> = self
                .regions
                .iter()
                .map(|r| {
                    vec![
                        format!("r{}", r.region),
                        r.stack.get(StallReason::Issued).to_string(),
                        r.stack.stalled().to_string(),
                        dominant_stall(&r.stack)
                            .map_or_else(|| "-".to_string(), |d| d.name().to_string()),
                    ]
                })
                .collect();
            out.push_str(&format_table(
                &["region", "issued", "stalled", "top stall"],
                &rows,
            ));
        }
        out
    }

    /// Render as flat CSV (`kind,name,value` rows): headline metrics,
    /// then per-reason slots, then per-region per-reason slots.
    pub fn render_csv(&self) -> String {
        let mut out = String::from("kind,name,value\n");
        out.push_str(&format!("meta,kernel,{}\n", self.kernel));
        out.push_str(&format!("meta,design,{}\n", self.design));
        out.push_str(&format!("meta,capacity,{}\n", self.capacity));
        out.push_str(&format!("metric,cycles,{}\n", self.cycles));
        out.push_str(&format!("metric,insns,{}\n", self.insns));
        out.push_str(&format!("metric,ipc,{:.6}\n", self.ipc));
        out.push_str(&format!("metric,issue_slots,{}\n", self.issue_slots));
        for (reason, slots) in self.stack.entries() {
            out.push_str(&format!("stall,{},{slots}\n", reason.name()));
        }
        for r in &self.regions {
            for (reason, slots) in r.stack.entries() {
                out.push_str(&format!("region,r{}.{},{slots}\n", r.region, reason.name()));
            }
        }
        out
    }

    /// Serialize to pretty JSON (the `--format json` / saved-baseline
    /// layout `regless diff` reads back).
    pub fn to_json_string(&self) -> String {
        let mut s = regless_json::to_string_pretty(self);
        s.push('\n');
        s
    }

    /// Parse a profile saved by [`ProfileReport::to_json_string`].
    ///
    /// # Errors
    ///
    /// Returns an error when the text is not valid profile JSON.
    pub fn from_json_str(text: &str) -> Result<Self, regless_json::JsonError> {
        regless_json::from_str(text)
    }
}

/// The stall reason with the most slots in a stack (`None` if no slot
/// stalled). Ties break toward the reason with the lowest
/// [`StallReason::index`], making the choice deterministic.
fn dominant_stall(stack: &IssueStack) -> Option<StallReason> {
    StallReason::ALL
        .iter()
        .copied()
        .filter(|&r| r != StallReason::Issued)
        .max_by_key(|&r| (stack.get(r), std::cmp::Reverse(r.index())))
        .filter(|&r| stack.get(r) > 0)
}

/// One compared quantity in a [`ProfileDiff`].
#[derive(Clone, Debug, PartialEq)]
pub struct DiffRow {
    /// Metric name (`cycles`, `ipc`, `stall.<reason>`).
    pub name: String,
    /// Value in the old profile.
    pub a: f64,
    /// Value in the new profile.
    pub b: f64,
    /// Signed relative change in percent (`(b - a) / a × 100`); 0 when
    /// both sides are 0, +∞-clamped to `b × 100` when only `a` is 0.
    pub delta_pct: f64,
    /// How much of the change counts as a *regression* in percent
    /// (0 for improvements and for ungated informational rows).
    pub regression_pct: f64,
}

/// The result of comparing two profiles.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileDiff {
    /// All compared rows, gated metrics first.
    pub rows: Vec<DiffRow>,
    /// The largest `regression_pct` across gated metrics.
    pub worst_regression_pct: f64,
}

/// Signed relative change in percent, defined as 0 when `a == b == 0`.
fn pct_delta(a: f64, b: f64) -> f64 {
    if a == 0.0 {
        if b == 0.0 {
            0.0
        } else {
            100.0 * b
        }
    } else {
        100.0 * (b - a) / a
    }
}

/// Compare two profiles. Exactly two metrics are *gated* (feed
/// `worst_regression_pct`): `cycles`, where an increase is a regression,
/// and `ipc`, where a decrease is one. Per-reason stall slots are
/// informational — they explain *where* the slots went, but their counts
/// move legitimately whenever timing shifts, so they never fail the gate.
pub fn diff(a: &ProfileReport, b: &ProfileReport) -> ProfileDiff {
    let mut rows = Vec::new();
    let cycles_delta = pct_delta(a.cycles as f64, b.cycles as f64);
    rows.push(DiffRow {
        name: "cycles".into(),
        a: a.cycles as f64,
        b: b.cycles as f64,
        delta_pct: cycles_delta,
        regression_pct: cycles_delta.max(0.0),
    });
    let ipc_delta = pct_delta(a.ipc, b.ipc);
    rows.push(DiffRow {
        name: "ipc".into(),
        a: a.ipc,
        b: b.ipc,
        delta_pct: ipc_delta,
        regression_pct: (-ipc_delta).max(0.0),
    });
    for (reason, slots_a) in a.stack.entries() {
        let slots_b = b.stack.get(reason);
        rows.push(DiffRow {
            name: format!("stall.{}", reason.name()),
            a: slots_a as f64,
            b: slots_b as f64,
            delta_pct: pct_delta(slots_a as f64, slots_b as f64),
            regression_pct: 0.0,
        });
    }
    let worst = rows.iter().map(|r| r.regression_pct).fold(0.0f64, f64::max);
    ProfileDiff {
        rows,
        worst_regression_pct: worst,
    }
}

impl ProfileDiff {
    /// Render the comparison as an aligned table plus a summary line;
    /// with a `fail_above` threshold (percent) the line carries the
    /// gate's verdict.
    pub fn render(&self, a_label: &str, b_label: &str, fail_above: Option<f64>) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    trim_float(r.a),
                    trim_float(r.b),
                    format!("{:+.2}%", r.delta_pct),
                    if r.regression_pct > 0.0 {
                        format!("{:.2}%", r.regression_pct)
                    } else {
                        "-".to_string()
                    },
                ]
            })
            .collect();
        let mut out = format_table(&["metric", a_label, b_label, "delta", "regression"], &rows);
        match fail_above {
            // The verdict names both inputs: in CI logs the FAIL line is
            // often all anyone reads, and "which two files?" should never
            // require scrolling up.
            Some(t) => out.push_str(&format!(
                "\nworst gated regression: {:.2}% (threshold {:.2}%) — {}\n",
                self.worst_regression_pct,
                t,
                if self.exceeds(t) {
                    format!("FAIL ({b_label} regressed vs {a_label})")
                } else {
                    format!("ok ({b_label} vs {a_label})")
                }
            )),
            None => out.push_str(&format!(
                "\nworst gated regression: {:.2}%\n",
                self.worst_regression_pct
            )),
        }
        out
    }

    /// Whether the worst gated regression exceeds `fail_above` percent.
    pub fn exceeds(&self, fail_above: f64) -> bool {
        self.worst_regression_pct > fail_above
    }
}

/// One benchmark's baseline-vs-RegLess profile pair inside
/// `results/BENCH_profile.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchProfile {
    /// Benchmark name.
    pub name: String,
    /// Profile under the full-register-file baseline.
    pub baseline: ProfileReport,
    /// Profile under RegLess at the paper's 512-entry design point.
    pub regless: ProfileReport,
}

regless_json::impl_json_struct!(BenchProfile {
    name,
    baseline,
    regless,
});

/// Per-benchmark CPI stacks and IPC at the paper's design point, written
/// as `results/BENCH_profile.json` by `regless experiments` and uploaded as a
/// CI artifact. Runs come from the sweep engine's memoized cache, so the
/// report is nearly free when the figure experiments already ran.
pub fn bench_profiles_report() -> String {
    use crate::sweep;
    use crate::DesignKind;
    sweep::prefetch_headline();
    let mut profiles = Vec::new();
    for name in regless_workloads::rodinia::NAMES {
        let bench = sweep::rodinia_id(name);
        let base = sweep::design(&bench, DesignKind::Baseline);
        let rl = sweep::design(&bench, DesignKind::regless_512());
        profiles.push(BenchProfile {
            name: (*name).to_string(),
            baseline: ProfileReport::collect(&base, name, "baseline", 0),
            regless: ProfileReport::collect(&rl, name, "regless", 512),
        });
    }
    regless_json::to_string_pretty(&profiles) + "\n"
}

/// Integral values print without a fraction; everything else with three
/// decimals (IPC precision).
fn trim_float(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{x:.0}")
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regless_sim::StallReason;

    fn profile(cycles: u64, insns: u64, stalled: u64) -> ProfileReport {
        let mut stack = IssueStack::new();
        stack.charge_n(StallReason::Issued, insns);
        stack.charge_n(StallReason::DataHazard, stalled);
        ProfileReport {
            kernel: "k".into(),
            design: "regless".into(),
            capacity: 512,
            cycles,
            insns,
            ipc: insns as f64 / cycles as f64,
            issue_slots: stack.total(),
            stack,
            regions: vec![RegionProfile { region: 0, stack }],
        }
    }

    #[test]
    fn json_round_trips() {
        let p = profile(100, 50, 30);
        let text = p.to_json_string();
        let back = ProfileReport::from_json_str(&text).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn diff_flags_cycle_regression_only_in_the_bad_direction() {
        let a = profile(100, 50, 30);
        let b = profile(110, 50, 40);
        let d = diff(&a, &b);
        // 10% more cycles and the matching IPC loss are both gated.
        assert!((d.worst_regression_pct - 10.0).abs() < 1e-9);
        assert!(d.exceeds(5.0));
        assert!(!d.exceeds(15.0));
        // The improvement direction gates nothing.
        let d = diff(&b, &a);
        assert!(
            d.rows[0].regression_pct == 0.0,
            "fewer cycles is not a regression"
        );
        assert!(!d.exceeds(5.0));
    }

    #[test]
    fn gate_verdict_names_both_input_files() {
        let a = profile(100, 50, 30);
        let b = profile(110, 50, 40);
        let d = diff(&a, &b);
        let failing = d.render("old.json", "new.json", Some(5.0));
        assert!(
            failing.contains("FAIL (new.json regressed vs old.json)"),
            "{failing}"
        );
        let passing = d.render("old.json", "new.json", Some(15.0));
        assert!(passing.contains("ok (new.json vs old.json)"), "{passing}");
    }

    #[test]
    fn stall_rows_are_informational() {
        let a = profile(100, 50, 10);
        let b = profile(100, 50, 90);
        let d = diff(&a, &b);
        let row = d
            .rows
            .iter()
            .find(|r| r.name == "stall.data_hazard")
            .unwrap();
        assert!(row.delta_pct > 0.0);
        assert_eq!(row.regression_pct, 0.0);
        assert_eq!(d.worst_regression_pct, 0.0);
    }

    #[test]
    fn renderers_are_deterministic_and_cover_all_reasons() {
        let p = profile(100, 50, 30);
        let table = p.render_table();
        assert_eq!(table, p.render_table());
        let csv = p.render_csv();
        for r in StallReason::ALL {
            assert!(table.contains(r.name()), "table missing {}", r.name());
            assert!(csv.contains(&format!("stall,{},", r.name())));
        }
        assert!(csv.contains("metric,cycles,100"));
        assert!(table.contains("top region hotspots"));
    }

    #[test]
    fn dominant_stall_ignores_issued_and_empty() {
        let mut s = IssueStack::new();
        s.charge_n(StallReason::Issued, 100);
        assert_eq!(dominant_stall(&s), None);
        s.charge_n(StallReason::Drain, 5);
        s.charge_n(StallReason::Barrier, 5);
        // Tie: the lower-indexed reason wins deterministically.
        assert_eq!(dominant_stall(&s), Some(StallReason::Barrier));
    }
}
