//! Experiment harness behind `regless experiments`.
//!
//! Each [`figs`] module regenerates one table or figure of the paper (see
//! DESIGN.md §3 for the index), and [`figs::run`] runs any of them; this
//! library also holds the common machinery: the evaluation machine
//! configuration, the one design runner ([`DesignKind::execute`]), and
//! plain-text table formatting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use regless_baselines::{RfhBackend, Throttle, ThrottledRf};
use regless_compiler::{compile, renumber_for_banks, CompileError, CompiledKernel, RegionConfig};
use regless_core::{RegLessBackend, RegLessConfig};
use regless_energy::{energy, Design, EnergyBreakdown};
use regless_isa::Kernel;
use regless_sim::{
    BaselineRf, CancelToken, GpuConfig, Machine, OperandBackend, RunReport, SimError,
};
use regless_telemetry::SelfProfiler;
use regless_workloads::rodinia;
use std::sync::Arc;

pub mod figs;
pub mod profile;
pub mod registry;
pub mod report;
pub mod sweep;
pub mod timing;

/// The machine every experiment runs on: one GTX 980-class SM (the
/// workloads are SM-homogeneous, so one SM yields the same normalized
/// results as sixteen at a sixteenth of the wall-clock cost).
pub fn eval_gpu() -> GpuConfig {
    GpuConfig::gtx980_single_sm()
}

/// A storage design under evaluation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DesignKind {
    /// Full register file, GTO scheduler.
    Baseline,
    /// RegLess under a configuration: the `regless` and `regless-nc`
    /// designs, the capacity sweep and the §6.5 ablations.
    RegLess(RegLessConfig),
    /// Register-file hierarchy baseline.
    Rfh,
    /// A register file throttled by warp admission: RFV
    /// ([`Throttle::Rename`]), RegDem ([`Throttle::Demote`]), the
    /// statically-compressed RF ([`Throttle::Compress`]) and the §7
    /// occupancy-limited full RF ([`Throttle::Occupancy`]).
    Throttled(Throttle),
}

impl DesignKind {
    /// The paper's main RegLess design point.
    pub fn regless_512() -> Self {
        DesignKind::RegLess(RegLessConfig::paper_default())
    }

    /// The matching energy-model design.
    pub fn energy_design(&self) -> Design {
        match *self {
            DesignKind::Baseline => Design::Baseline,
            DesignKind::RegLess(cfg) => Design::RegLess {
                osu_entries_per_sm: cfg.osu_entries_per_sm,
            },
            DesignKind::Rfh => Design::Rfh,
            DesignKind::Throttled(throttle) => match throttle {
                Throttle::Occupancy => Design::Baseline,
                Throttle::Rename => Design::Rfv,
                Throttle::Demote => Design::RegDem,
                Throttle::Compress => Design::CompressRf,
            },
        }
    }

    /// OSU entries per SM, or 0 for designs without an OSU (the capacity
    /// profiles and reports record).
    pub fn osu_capacity(&self) -> usize {
        match *self {
            DesignKind::RegLess(cfg) => cfg.osu_entries_per_sm,
            _ => 0,
        }
    }

    /// Check the design's parameters against `gpu`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the smallest valid capacity when a RegLess
    /// OSU is too small for `gpu`'s shape.
    pub fn check(&self, gpu: &GpuConfig) -> Result<(), String> {
        match *self {
            DesignKind::RegLess(cfg) => cfg.check(gpu),
            _ => Ok(()),
        }
    }

    /// Compile `kernel` for this design (renumbered first when a RegLess
    /// configuration sets `renumber`), build its machine on `gpu` (with
    /// the design's scheduler override), apply `attach` and run. This is
    /// the one place that knows how to run each design.
    ///
    /// ```
    /// use regless_baselines::Throttle;
    /// use regless_bench::{Attach, DesignKind};
    /// use regless_isa::KernelBuilder;
    /// use regless_sim::GpuConfig;
    ///
    /// let mut b = KernelBuilder::new("demo");
    /// let i = b.thread_idx();
    /// let v = b.iadd(i, i);
    /// b.st_global(v, i);
    /// b.exit();
    /// let kernel = b.finish()?;
    ///
    /// let gpu = GpuConfig::test_small();
    /// let rfh = DesignKind::Rfh.execute(&kernel, gpu, &Attach::default())?;
    /// let rfv = DesignKind::Throttled(Throttle::Rename);
    /// let rfv = rfv.execute(&kernel, gpu, &Attach::default())?;
    /// assert_eq!(rfh.total().insns, rfv.total().insns);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`RunError::Params`] when [`DesignKind::check`] rejects the design
    /// on `gpu`, [`RunError::Compile`] for a kernel the compiler rejects,
    /// and [`RunError::Sim`] for a cycle-limit hit or a cancellation.
    pub fn execute(
        self,
        kernel: &Kernel,
        gpu: GpuConfig,
        attach: &Attach,
    ) -> Result<RunReport, RunError> {
        self.check(&gpu).map_err(RunError::Params)?;
        let regions = RegionConfig::default();
        match self {
            DesignKind::Baseline => {
                run_machine(kernel, gpu, &regions, attach, |_, _, _| BaselineRf::new())
            }
            DesignKind::RegLess(cfg) => {
                let renumbered = cfg.renumber.then(|| renumber_for_banks(kernel).0);
                let kernel = renumbered.as_ref().unwrap_or(kernel);
                run_machine(
                    kernel,
                    gpu,
                    &cfg.region_config(&gpu),
                    attach,
                    |sm, gpu, c| RegLessBackend::new(sm, gpu, &cfg, c),
                )
            }
            DesignKind::Rfh => {
                let gpu = GpuConfig {
                    scheduler: RfhBackend::scheduler(),
                    ..gpu
                };
                run_machine(kernel, gpu, &regions, attach, |_, _, c| RfhBackend::new(&c))
            }
            DesignKind::Throttled(throttle) => {
                let gpu = GpuConfig {
                    scheduler: throttle.scheduler().unwrap_or(gpu.scheduler),
                    ..gpu
                };
                run_machine(kernel, gpu, &regions, attach, |_, gpu, c| {
                    ThrottledRf::new(throttle, gpu, &c)
                })
            }
        }
    }
}

/// Optional instrumentation and control for one [`DesignKind::execute`]
/// run. The default attaches nothing and leaves the run-loop mode to
/// `REGLESS_SIM`; none of these changes a simulated number.
#[derive(Clone, Default)]
pub struct Attach {
    /// Record telemetry, buffering up to this many events per SM
    /// ([`Machine::attach_telemetry`]).
    pub telemetry: Option<usize>,
    /// Time the simulator's own phases into this profiler
    /// ([`Machine::attach_profiler`]).
    pub selfprof: Option<Arc<SelfProfiler>>,
    /// Stop the run cooperatively once this token trips
    /// ([`Machine::set_cancel_token`]).
    pub cancel: Option<CancelToken>,
    /// Force (`Some(true)`) or rule out (`Some(false)`) the stepped
    /// reference loop ([`Machine::set_stepped`]); `None` keeps
    /// `REGLESS_SIM`.
    pub stepped: Option<bool>,
}

/// Why [`DesignKind::execute`] returned no report.
#[derive(Debug)]
pub enum RunError {
    /// A design parameter does not fit the machine.
    Params(String),
    /// The compiler rejected the kernel.
    Compile(CompileError),
    /// The simulation stopped early (cycle limit or cancellation).
    Sim(SimError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Params(msg) => f.write_str(msg),
            RunError::Compile(e) => write!(f, "compile: {e}"),
            RunError::Sim(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for RunError {}

/// Compile `kernel` under `regions`, build a machine whose SMs each get
/// `backend(sm, &gpu, compiled)`, apply `attach` and run.
fn run_machine<B: OperandBackend>(
    kernel: &Kernel,
    gpu: GpuConfig,
    regions: &RegionConfig,
    attach: &Attach,
    backend: impl Fn(usize, &GpuConfig, Arc<CompiledKernel>) -> B,
) -> Result<RunReport, RunError> {
    let compiled = Arc::new(compile(kernel, regions).map_err(RunError::Compile)?);
    let mut machine = Machine::new(gpu, Arc::clone(&compiled), |sm| {
        backend(sm, &gpu, Arc::clone(&compiled))
    });
    if let Some(events_per_sm) = attach.telemetry {
        machine.attach_telemetry(events_per_sm);
    }
    if let Some(prof) = &attach.selfprof {
        machine.attach_profiler(Arc::clone(prof));
    }
    if let Some(token) = &attach.cancel {
        machine.set_cancel_token(token.clone());
    }
    if let Some(stepped) = attach.stepped {
        machine.set_stepped(stepped);
    }
    B::run_machine(machine).map_err(RunError::Sim)
}

/// Run one kernel under one design on the evaluation machine.
///
/// # Panics
///
/// Panics on compile errors or simulation timeouts — the harness treats
/// these as fatal experiment failures.
pub fn run_design(kernel: &Kernel, design: DesignKind) -> RunReport {
    design
        .execute(kernel, eval_gpu(), &Attach::default())
        .unwrap_or_else(|e| panic!("{design:?}: {e}"))
}

/// Energy of a report under the matching model.
pub fn energy_of(report: &RunReport, design: DesignKind) -> EnergyBreakdown {
    energy(report, design.energy_design(), &eval_gpu())
}

/// Compile a benchmark with the default (baseline-study) region config.
pub fn compile_default(kernel: &Kernel) -> CompiledKernel {
    compile(kernel, &RegionConfig::default()).expect("compile")
}

/// All benchmark names.
pub fn benchmarks() -> Vec<&'static str> {
    rodinia::NAMES.to_vec()
}

/// Geometric mean.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of empty slice");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Render a horizontal ASCII bar chart (one row per label); bars scale to
/// the maximum value. Used to make the per-benchmark figures visually
/// comparable to the paper's charts.
pub fn bar_chart(rows: &[(String, f64)], width: usize) -> String {
    let max = rows
        .iter()
        .map(|(_, v)| *v)
        .fold(0.0f64, f64::max)
        .max(1e-12);
    let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (label, value) in rows {
        let bar = ((value / max) * width as f64).round() as usize;
        out.push_str(&format!(
            "{label:<label_w$} {value:>7.3} {}
",
            "#".repeat(bar.max(usize::from(*value > 0.0)))
        ));
    }
    out
}

/// Render an aligned plain-text table.
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(0)))
            .collect::<Vec<_>>()
            .join("  ")
            .trim_end()
            .to_string()
    };
    let hdr: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&hdr, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_uniform_is_value() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn table_formatting_aligns() {
        let t = format_table(
            &["bench", "value"],
            &[
                vec!["bfs".into(), "1.0".into()],
                vec!["streamcluster".into(), "0.5".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("bench"));
        assert!(lines[3].starts_with("streamcluster"));
    }

    /// One end-to-end smoke test across every design on the cheapest
    /// benchmark (full runs live in the figure modules).
    #[test]
    fn all_designs_run_one_benchmark() {
        let kernel = rodinia::kernel("nn");
        let base = run_design(&kernel, DesignKind::Baseline);
        for d in [
            DesignKind::regless_512(),
            DesignKind::RegLess(RegLessConfig {
                compressor_enabled: false,
                ..RegLessConfig::paper_default()
            }),
            DesignKind::Rfh,
            DesignKind::Throttled(Throttle::Rename),
            DesignKind::Throttled(Throttle::Demote),
            DesignKind::Throttled(Throttle::Compress),
        ] {
            let r = run_design(&kernel, d);
            assert_eq!(r.total().insns, base.total().insns, "{d:?}");
            let e = energy_of(&r, d);
            assert!(e.total_pj() > 0.0);
        }
    }
}
