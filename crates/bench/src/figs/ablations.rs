//! Ablation benches for the design decisions DESIGN.md calls out.

use crate::{format_table, geomean, sweep, DesignKind};
use regless_core::{ActivationOrder, RegLessConfig};

/// Benchmarks used for ablations (a representative, cheap subset).
const SUBSET: [&str; 6] = ["bfs", "hotspot", "kmeans", "lud", "pathfinder", "srad_v2"];

fn geomean_ratio(cfg: RegLessConfig) -> f64 {
    let mut ratios = Vec::new();
    for name in SUBSET {
        let bench = sweep::rodinia_id(name);
        let base = sweep::design(&bench, DesignKind::Baseline).cycles as f64;
        ratios.push(sweep::design(&bench, DesignKind::RegLess(cfg)).cycles as f64 / base);
    }
    geomean(&ratios)
}

/// Compressor ablation: full pattern set vs none (Figure 16's
/// "no compressor" bar).
pub fn compressor() -> String {
    let full = geomean_ratio(RegLessConfig::default());
    let none = geomean_ratio(RegLessConfig {
        compressor_enabled: false,
        ..Default::default()
    });
    let rows = vec![
        vec!["full pattern set".to_string(), format!("{full:.3}")],
        vec!["no compressor".to_string(), format!("{none:.3}")],
    ];
    let mut out = String::from("Ablation: compressor (geomean normalized run time, subset)\n\n");
    out.push_str(&format_table(&["configuration", "norm. run time"], &rows));
    out
}

/// Warp re-activation order: the paper's LIFO stack vs FIFO.
pub fn warp_order() -> String {
    let lifo = geomean_ratio(RegLessConfig::default());
    let fifo = geomean_ratio(RegLessConfig {
        activation_order: ActivationOrder::Fifo,
        ..Default::default()
    });
    let rows = vec![
        vec!["LIFO warp stack (paper)".to_string(), format!("{lifo:.3}")],
        vec!["FIFO queue".to_string(), format!("{fifo:.3}")],
    ];
    let mut out =
        String::from("Ablation: warp re-activation order (geomean normalized run time)\n\n");
    out.push_str(&format_table(&["policy", "norm. run time"], &rows));
    out
}

/// Load/use region splitting (Algorithm 1 line 22) on vs off.
pub fn load_split() -> String {
    let on = geomean_ratio(RegLessConfig::default());
    let off = geomean_ratio(RegLessConfig {
        split_load_use: false,
        ..Default::default()
    });
    let rows = vec![
        vec!["split load/use (paper)".to_string(), format!("{on:.3}")],
        vec![
            "loads and uses share regions".to_string(),
            format!("{off:.3}"),
        ],
    ];
    let mut out = String::from(
        "Ablation: global-load/first-use region splitting (geomean\n\
         normalized run time)\n\n",
    );
    out.push_str(&format_table(&["configuration", "norm. run time"], &rows));
    out
}

/// Bank-aware register renumbering (paper §5.2): same-bank source pairs
/// serialize at the OSU; the pass spreads them.
pub fn renumbering() -> String {
    let mut rows = Vec::new();
    for (label, renumber) in [("as generated", false), ("bank-aware renumbering", true)] {
        let mut ratios = Vec::new();
        let mut conflicts = 0u64;
        for name in SUBSET {
            let bench = sweep::rodinia_id(name);
            let base = sweep::design(&bench, DesignKind::Baseline).cycles as f64;
            let cfg = RegLessConfig {
                renumber,
                ..Default::default()
            };
            let r = sweep::design(&bench, DesignKind::RegLess(cfg));
            ratios.push(r.cycles as f64 / base);
            conflicts += r.total().osu_bank_conflicts;
        }
        rows.push(vec![
            label.to_string(),
            format!("{:.3}", geomean(&ratios)),
            conflicts.to_string(),
        ]);
    }
    let mut out = String::from("Ablation: bank-aware register renumbering (subset)\n\n");
    out.push_str(&format_table(
        &["register numbering", "norm. run time", "OSU bank conflicts"],
        &rows,
    ));
    out
}

/// Minimum region size (the paper's 6-instruction lower bound).
pub fn min_region_size() -> String {
    let mut rows = Vec::new();
    for min in [1usize, 3, 6, 9, 12] {
        let r = geomean_ratio(RegLessConfig {
            min_region_insns: min,
            ..Default::default()
        });
        rows.push(vec![min.to_string(), format!("{r:.3}")]);
    }
    let mut out = String::from(
        "Ablation: minimum region size (geomean normalized run time;\n\
         the paper uses 6)\n\n",
    );
    out.push_str(&format_table(
        &["min insns/region", "norm. run time"],
        &rows,
    ));
    out
}
