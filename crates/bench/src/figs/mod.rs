//! One module per reproduced table/figure; each exposes `report()`
//! returning the rendered text. [`EXPERIMENTS`] lists every report under
//! its results-file id, and [`run`] regenerates any of them: `regless
//! experiments [id ...]` is a thin wrapper around it.

use crate::{format_table, sweep};
use std::error::Error;
use std::fs;
use std::io;
use std::time::Instant;

pub mod ablations;
pub mod extensions;
pub mod fig02;
pub mod fig03;
pub mod fig05;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod summary;

pub mod table1;
pub mod table2;
#[cfg(test)]
mod tests;

/// One experiment: its results-file id and the function regenerating it.
/// An id ending in `.json` or `.html` names the file itself; any other id
/// is a text report written to `results/<id>.txt` and echoed to stdout.
pub type Experiment = (&'static str, fn() -> String);

/// Every reproduced table, figure, ablation and extension study, plus the
/// machine-readable artifacts, in the order [`run`] prints them.
pub const EXPERIMENTS: &[Experiment] = &[
    ("table1_config", table1::report),
    ("table2_region_sizes", table2::report),
    ("fig02_working_set", fig02::report),
    ("fig03_backing_store", fig03::report),
    ("fig05_liveness_seams", fig05::report),
    ("fig11_area", fig11::report),
    ("fig12_power", fig12::report),
    ("fig13_pareto", fig13::report),
    ("fig14_rf_energy", fig14::report),
    ("fig15_gpu_energy", fig15::report),
    ("fig16_runtime", fig16::report),
    ("fig17_preload_location", fig17::report),
    ("fig18_l1_bandwidth", fig18::report),
    ("fig19_region_registers", fig19::report),
    ("ablation_compressor", ablations::compressor),
    ("ablation_warp_order", ablations::warp_order),
    ("ablation_load_split", ablations::load_split),
    ("ablation_min_region_size", ablations::min_region_size),
    ("ablation_renumbering", ablations::renumbering),
    ("ext_oversubscription", extensions::oversubscription),
    ("ext_compressor_patterns", extensions::compressor_patterns),
    ("ext_schedulers", extensions::schedulers),
    ("ext_microbench", extensions::microbench),
    ("ext_dual_issue", extensions::dual_issue),
    ("ext_osu_occupancy", extensions::osu_occupancy),
    ("summary.json", summary::report),
    ("BENCH_profile.json", crate::profile::bench_profiles_report),
    ("BENCH_report.html", crate::report::bench_report_html),
];

/// What one experiment produced: the rendered report or a panic message.
type Outcome = Result<String, String>;

/// Regenerate the experiments named by `ids`, or all of [`EXPERIMENTS`]
/// when `ids` is empty, writing each to `results/`.
///
/// Experiments run concurrently and share the sweep engine's memoized
/// simulation cache, so common runs (the baseline over all benchmarks,
/// the 512-entry design point, …) are simulated once no matter how many
/// reports use them. Each text report goes to `print` in table order,
/// under a `==== id ====` header when more than one experiment runs.
/// Progress, a timing table and the sweep-cache lines go to stderr. A
/// panicking experiment is reported and skipped, the rest still complete,
/// and the result is an error naming every one that failed. An unknown id
/// is an error listing the valid ones, before anything runs.
pub fn run(
    ids: &[String],
    print: &mut dyn FnMut(&str) -> io::Result<()>,
) -> Result<(), Box<dyn Error>> {
    let started = Instant::now();
    if let Some(unknown) = ids
        .iter()
        .find(|id| EXPERIMENTS.iter().all(|(known, _)| known != id))
    {
        let valid: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        return Err(format!(
            "unknown experiment {unknown:?}; valid ids: {}",
            valid.join(", ")
        )
        .into());
    }
    let selected: Vec<Experiment> = EXPERIMENTS
        .iter()
        .filter(|(id, _)| ids.is_empty() || ids.iter().any(|wanted| wanted == id))
        .copied()
        .collect();
    let total = selected.len();
    fs::create_dir_all("results")?;
    // Experiments are independent; run them across available cores. Each
    // runs inside `catch_unwind` so one failure cannot abort the sweep.
    let results: Vec<(&str, f64, Outcome)> = std::thread::scope(|scope| {
        let handles: Vec<_> = selected
            .into_iter()
            .enumerate()
            .map(|(i, (id, report))| {
                scope.spawn(move || {
                    eprintln!("== [{}/{total}] {id} ==", i + 1);
                    let t0 = Instant::now();
                    let outcome = std::panic::catch_unwind(report)
                        .map_err(|payload| panic_message(payload.as_ref()));
                    let secs = t0.elapsed().as_secs_f64();
                    eprintln!(
                        "== [{}/{total}] {id} {} in {secs:.1} s ==",
                        i + 1,
                        if outcome.is_ok() { "done" } else { "FAILED" },
                    );
                    (id, secs, outcome)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("experiment thread itself must not die"))
            .collect()
    });

    let mut failures = Vec::new();
    let mut timing_rows = Vec::new();
    for (id, secs, outcome) in &results {
        match outcome {
            Ok(text) if id.ends_with(".json") || id.ends_with(".html") => {
                fs::write(format!("results/{id}"), text)?;
            }
            Ok(text) => {
                fs::write(format!("results/{id}.txt"), text)?;
                if total > 1 {
                    print(&format!("==== {id} ====\n{text}\n"))?;
                } else {
                    print(text)?;
                }
            }
            Err(msg) => failures.push(format!("  {id}: {msg}")),
        }
        timing_rows.push(vec![
            id.to_string(),
            format!("{secs:.1}"),
            if outcome.is_ok() { "ok" } else { "FAILED" }.to_string(),
        ]);
    }

    eprintln!("\n==== timing summary ====");
    eprintln!(
        "{}",
        format_table(&["experiment", "seconds", "status"], &timing_rows)
    );
    eprintln!("\n==== sweep run log ====");
    eprint!("{}", sweep::engine().timing_table());
    eprintln!("{}", sweep::engine().stats().summary_line());
    eprintln!("{}", sweep::engine().sim_time_line());
    eprintln!("total wall time: {:.1} s", started.elapsed().as_secs_f64());

    if failures.is_empty() {
        return Ok(());
    }
    let failed = failures.len();
    Err(format!(
        "{failed} of {total} experiments FAILED:\n{}",
        failures.join("\n")
    )
    .into())
}

/// Extract a readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
