//! Memoized, parallel sweep engine for the experiment harness.
//!
//! Every figure and table in this crate is built from a modest set of
//! `(benchmark, run variant)` simulations, and many figures share runs:
//! the baseline over all 21 Rodinia kernels alone is re-simulated by a
//! dozen reports. The engine runs each distinct simulation **once**,
//! memoizes the [`RunReport`] behind a thread-safe cache, and optionally
//! persists results as JSON under `results/cache/` so a second invocation
//! of a figure binary (or of `all_experiments`) replays from disk instead
//! of re-simulating.
//!
//! # Cache key
//!
//! The in-memory key is `(benchmark id, canonical RunVariant)`. Benchmark
//! ids are strings of the form `rodinia/<name>`, `micro/<name>`, or
//! `special/high_pressure`. Variants are canonicalized before lookup so
//! differently-phrased but identical runs share one entry (e.g. default
//! [`ReglessRunOpts`] is the same run as `DesignKind::RegLess { 512 }`,
//! and the GTO scheduler study point is the baseline design).
//!
//! # Invalidation
//!
//! On-disk entries live under `results/cache/<fingerprint>/`, where the
//! fingerprint hashes [`regless_sim::SIM_MODEL_VERSION`], the on-disk
//! format version, and the full evaluation [`GpuConfig`] as JSON. Any
//! change to simulator semantics (bump `SIM_MODEL_VERSION`) or to the
//! evaluation machine moves the directory, so stale entries are never
//! read — they are simply orphaned and can be deleted at leisure.
//!
//! Environment knobs: `REGLESS_SWEEP=off` disables the engine entirely
//! (every call simulates), `REGLESS_SWEEP=cold` ignores existing disk
//! entries but still writes fresh ones (and memoizes in memory), and
//! `REGLESS_SWEEP_DIR` overrides the `results/cache` location.

use crate::{eval_gpu, run_regless_opts, Attach, DesignKind, ReglessRunOpts};
use regless_sim::{
    GpuConfig, Machine, OccupancyLimitedRf, OperandBackend, RunReport, SchedulerKind,
};
use regless_telemetry::{Log2Histogram, ProgressMeter, SelfProfiler};
use regless_workloads::{high_pressure_kernel, micro, rodinia};
use std::collections::HashMap;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Bump when the on-disk JSON layout changes (part of the fingerprint).
/// v2: `SmStats` gained the CPI-stack fields (`issue_stack`,
/// `warp_stacks`, `region_stacks`).
/// v3: `SmStats` gained the eviction taxonomy (`eviction_stack`,
/// `osu_lines_evicted`), the compressor effectiveness counters
/// (`comp_*`), and the occupancy time series (`osu_reserved_series`,
/// `osu_free_series`, `cm_queue_series`).
/// v4: `SmStats::idle_cycles` became `idle_slots` (per-slot counting; the
/// telemetry key renamed with it).
/// v5: `SmStats` gained the RegDem spill counters (`spill_stores`,
/// `spill_fills`, `spill_throttled_warp_cycles`) and the compressed-RF
/// throttle counter (`comprf_throttled_warp_cycles`); design ids are now
/// canonicalized through the registry (`crate::registry`).
const CACHE_FORMAT_VERSION: u32 = 5;

/// One simulation the engine knows how to run and key.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RunVariant {
    /// A storage design on the evaluation machine ([`crate::run_design`]).
    Design(DesignKind),
    /// RegLess with explicit options ([`run_regless_opts`]).
    Opts(ReglessRunOpts),
    /// Baseline under an explicit warp scheduler.
    Scheduler(SchedulerKind),
    /// Conventional RF with occupancy capped by register allocation
    /// (the §7 oversubscription study).
    OccupancyLimited,
    /// Baseline or RegLess-512 at an explicit issue width (the dual-issue
    /// extension study).
    IssueWidth {
        /// Issue slots per scheduler.
        width: usize,
        /// RegLess at the paper design point rather than the baseline.
        regless: bool,
    },
}

impl RunVariant {
    /// Map equivalent phrasings of the same simulation onto one key, so
    /// e.g. the ablations' default-options runs share cache entries with
    /// the figures' `RegLess { 512 }` runs.
    pub fn canonical(self) -> RunVariant {
        let eval = eval_gpu();
        match self {
            RunVariant::Opts(o)
                if o.region_override.is_none()
                    && !o.renumber
                    && o.order == regless_core::ActivationOrder::Lifo
                    && o.patterns == regless_core::PatternSet::Full =>
            {
                RunVariant::Design(if o.compressor {
                    DesignKind::RegLess { entries: o.entries }
                } else {
                    DesignKind::RegLessNoCompressor { entries: o.entries }
                })
            }
            RunVariant::Scheduler(k) if k == eval.scheduler => {
                RunVariant::Design(DesignKind::Baseline)
            }
            RunVariant::IssueWidth { width, regless }
                if width == eval.issue_slots_per_scheduler =>
            {
                RunVariant::Design(if regless {
                    DesignKind::regless_512()
                } else {
                    DesignKind::Baseline
                })
            }
            v => v,
        }
    }
}

/// Benchmark id for a Rodinia kernel name.
pub fn rodinia_id(name: &str) -> String {
    format!("rodinia/{name}")
}

/// Benchmark id for a microbenchmark kernel name.
pub fn micro_id(name: &str) -> String {
    format!("micro/{name}")
}

/// Benchmark id of the §7 high-register-pressure kernel.
pub const HIGH_PRESSURE_ID: &str = "special/high_pressure";

/// Kernel name of [`HIGH_PRESSURE_ID`].
const HIGH_PRESSURE_NAME: &str = "high_pressure";

/// The kernel name a benchmark id (`rodinia/<name>`, `micro/<name>`, or
/// [`HIGH_PRESSURE_ID`]) resolves to, or `None` for an unknown id —
/// without generating the kernel. The serving layer resolves a request
/// with it, probes the cache, and builds the kernel only on a miss.
pub fn bench_kernel_name(bench: &str) -> Option<&'static str> {
    if let Some(name) = bench.strip_prefix("rodinia/") {
        return rodinia::NAMES.iter().copied().find(|n| *n == name);
    }
    if let Some(name) = bench.strip_prefix("micro/") {
        return micro::NAMES.iter().copied().find(|n| *n == name);
    }
    (bench == HIGH_PRESSURE_ID).then_some(HIGH_PRESSURE_NAME)
}

/// Resolve a benchmark id (see [`bench_kernel_name`]) to its kernel, or
/// `None` for an unknown id. This is the lookup external callers (the
/// serving layer) use to decide whether a request is cacheable under the
/// engine's fingerprint.
pub fn bench_kernel(bench: &str) -> Option<regless_isa::Kernel> {
    let name = bench_kernel_name(bench)?;
    if bench.starts_with("micro/") {
        micro::kernel(name)
    } else if bench == HIGH_PRESSURE_ID {
        Some(high_pressure_kernel())
    } else {
        Some(rodinia::kernel(name))
    }
}

/// Resolve a benchmark id to its kernel.
///
/// # Panics
///
/// Panics on an unknown id — experiment code constructs ids from the
/// workload tables, so an unknown id is a harness bug.
fn kernel_for(bench: &str) -> regless_isa::Kernel {
    bench_kernel(bench).unwrap_or_else(|| panic!("unknown benchmark id {bench:?}"))
}

/// Actually run one simulation (a cache miss).
fn simulate(bench: &str, variant: RunVariant) -> RunReport {
    let kernel = kernel_for(bench);
    let eval = eval_gpu();
    let (design, gpu) = match variant {
        RunVariant::Design(d) => (d, eval),
        RunVariant::Scheduler(scheduler) => (DesignKind::Baseline, GpuConfig { scheduler, ..eval }),
        RunVariant::IssueWidth { width, regless } => (
            if regless {
                DesignKind::regless_512()
            } else {
                DesignKind::Baseline
            },
            GpuConfig {
                issue_slots_per_scheduler: width,
                ..eval
            },
        ),
        RunVariant::Opts(o) => return run_regless_opts(&kernel, o),
        RunVariant::OccupancyLimited => {
            // Conventional RF: occupancy capped by per-thread register
            // allocation (ported from the §7 oversubscription study).
            let compiled = Arc::new(
                regless_compiler::compile(&kernel, &regless_compiler::RegionConfig::default())
                    .expect("compile"),
            );
            let regs = kernel.num_regs() as usize;
            let rf_entries = eval.rf_bytes_per_sm / 128;
            // Through the backend's own crate, so the tick loop is
            // instantiated with the backend's methods inlined.
            return OccupancyLimitedRf::run_machine(Machine::new(eval, compiled, |_| {
                OccupancyLimitedRf::new(rf_entries, regs, eval.warps_per_sm)
            }))
            .expect("occupancy-limited run");
        }
    };
    design
        .execute(&kernel, gpu, &Attach::default())
        .unwrap_or_else(|e| panic!("{bench} under {variant:?}: {e}"))
}

/// How the engine treats its caches (from `REGLESS_SWEEP`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SweepMode {
    /// Memoize in memory and read/write the disk cache.
    Normal,
    /// Memoize in memory and write disk entries, but never read them —
    /// forces fresh simulations once per process.
    Cold,
    /// No caching at all; every call simulates.
    Off,
}

/// Counters the engine keeps (all monotone).
#[derive(Default)]
struct Counters {
    memory_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    sim_nanos: AtomicU64,
}

/// Where one [`SweepEngine::run`] call was served from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunSource {
    /// The simulator actually ran.
    Simulated,
    /// Replayed from a persisted JSON entry.
    DiskCache,
    /// Served from the in-memory memo table.
    MemoryCache,
}

/// One entry of the engine's run log (see [`SweepEngine::timing_table`]).
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Benchmark id.
    pub bench: String,
    /// Canonical variant that was run.
    pub variant: RunVariant,
    /// Where the report came from.
    pub source: RunSource,
    /// Wall seconds of the simulation that originally produced the report
    /// — for cached runs this is *historical*, not time spent now, which
    /// is why the timing table prints `(cached)` instead.
    pub wall_seconds: f64,
}

/// What [`SweepEngine::gc_orphans`] removed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Names of the fingerprint directories deleted, sorted.
    pub removed: Vec<String>,
    /// Bytes those directories held.
    pub bytes_freed: u64,
}

/// One orphaned cache fingerprint directory, as reported by the read-only
/// [`SweepEngine::list_orphans`] (`--gc --dry-run`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OrphanEntry {
    /// The fingerprint directory name (16 hex digits).
    pub name: String,
    /// Cache entries (files) it holds.
    pub entries: usize,
    /// Total bytes of those entries.
    pub bytes: u64,
}

/// A point-in-time snapshot of [`SweepEngine`] activity.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SweepStats {
    /// Calls served from the in-memory memo table.
    pub memory_hits: u64,
    /// Calls served by deserializing a persisted report.
    pub disk_hits: u64,
    /// Calls that ran the simulator.
    pub misses: u64,
    /// Total wall-clock seconds spent inside the simulator.
    pub sim_seconds: f64,
}

impl SweepStats {
    /// One-line human summary for experiment footers.
    pub fn summary_line(&self) -> String {
        format!(
            "sweep cache: {} sims ({:.1} s simulated), {} memory hits, {} disk hits",
            self.misses, self.sim_seconds, self.memory_hits, self.disk_hits
        )
    }
}

type Key = (String, RunVariant);

/// One memoized simulation: the report, plus its compact `stable_json()`
/// text, rendered the first time a caller asks for it and shared by every
/// later one. A served `run` reply splices that text instead of
/// rebuilding and re-rendering the report per request. Derefs to the
/// report.
#[derive(Debug)]
pub struct CachedRun {
    report: Arc<RunReport>,
    stable_text: OnceLock<Arc<str>>,
}

impl CachedRun {
    /// Wrap a report; its text is rendered on first use.
    pub fn new(report: Arc<RunReport>) -> CachedRun {
        CachedRun {
            report,
            stable_text: OnceLock::new(),
        }
    }

    /// `self.stable_json().to_string_compact()`, rendered once.
    pub fn stable_text(&self) -> Arc<str> {
        Arc::clone(
            self.stable_text
                .get_or_init(|| self.report.stable_json().to_string_compact().into()),
        )
    }
}

impl Deref for CachedRun {
    type Target = RunReport;

    fn deref(&self) -> &RunReport {
        &self.report
    }
}

type Cell = Arc<OnceLock<Arc<CachedRun>>>;

/// The memoizing simulation runner. Use the process-wide [`engine`] in
/// experiment code; construct directly only in tests.
pub struct SweepEngine {
    cache: Mutex<HashMap<Key, Cell>>,
    counters: Counters,
    /// Every `run` call in order, for the timing table.
    records: Mutex<Vec<RunRecord>>,
    /// Wall time of actual simulations, in milliseconds.
    sim_hist: Mutex<Log2Histogram>,
    /// Directory for persisted reports (`None` disables persistence).
    disk_dir: Option<PathBuf>,
    mode: SweepMode,
    /// Host-side self profiler for the engine's own pipeline phases
    /// (canonicalize, cache probe, simulate, persist). Enabled by
    /// `REGLESS_SELFPROF`; a disabled profiler's scopes never read the
    /// clock, keeping the hot path free.
    selfprof: SelfProfiler,
}

impl SweepEngine {
    /// An engine with explicit cache directory and mode (tests; the
    /// process-wide [`engine`] reads the environment instead).
    pub fn with_config(disk_dir: Option<PathBuf>, mode: SweepMode) -> SweepEngine {
        SweepEngine {
            cache: Mutex::new(HashMap::new()),
            counters: Counters::default(),
            records: Mutex::new(Vec::new()),
            sim_hist: Mutex::new(Log2Histogram::new()),
            disk_dir,
            mode,
            selfprof: SelfProfiler::from_env(),
        }
    }

    /// The engine's host-side self profiler — callers fold it into a
    /// metrics snapshot or render its table after a sweep. Empty (and
    /// free) unless `REGLESS_SELFPROF` is set.
    pub fn self_profiler(&self) -> &SelfProfiler {
        &self.selfprof
    }

    /// An engine configured from the environment (`REGLESS_SWEEP`,
    /// `REGLESS_SWEEP_DIR`; see the module docs). The process-wide
    /// [`engine`] wraps one of these in a static; long-lived owners (the
    /// serving layer) construct their own so its lifetime and statistics
    /// are scoped to them while still sharing the on-disk cache.
    pub fn from_env() -> SweepEngine {
        let mode = match std::env::var("REGLESS_SWEEP").as_deref() {
            Ok("off") => SweepMode::Off,
            Ok("cold") => SweepMode::Cold,
            _ => SweepMode::Normal,
        };
        let dir = match (mode, std::env::var("REGLESS_SWEEP_DIR")) {
            (SweepMode::Off, _) => None,
            (_, Ok(d)) => Some(PathBuf::from(d)),
            _ => Some(PathBuf::from("results/cache")),
        };
        SweepEngine::with_config(dir, mode)
    }

    /// Fingerprint naming the disk subdirectory: any simulator-semantics
    /// or evaluation-machine change moves the directory, orphaning (not
    /// corrupting) old entries.
    pub fn fingerprint() -> String {
        let basis = format!(
            "fmt{}|sim{}|{}",
            CACHE_FORMAT_VERSION,
            regless_sim::SIM_MODEL_VERSION,
            regless_json::to_string(&eval_gpu())
        );
        format!("{:016x}", fnv1a64(basis.as_bytes()))
    }

    /// Run (or recall) one simulation.
    pub fn run(&self, bench: &str, variant: RunVariant) -> Arc<RunReport> {
        let variant = {
            let _g = self.selfprof.scope("canonicalize");
            variant.canonical()
        };
        if self.mode == SweepMode::Off {
            self.counters.misses.fetch_add(1, Ordering::Relaxed);
            let report = {
                let _g = self.selfprof.scope("simulate");
                simulate(bench, variant)
            };
            self.note_sim(&report);
            self.note_run(bench, variant, RunSource::Simulated, report.wall_seconds);
            eprintln!(
                "[sweep] sim   {bench} {variant:?}: {} cycles in {:.2} s",
                report.cycles, report.wall_seconds
            );
            return Arc::new(report);
        }
        let probe_guard = self.selfprof.scope("cache_probe");
        let cell = self.cell(bench, variant);
        if let Some(hit) = cell.get() {
            self.counters.memory_hits.fetch_add(1, Ordering::Relaxed);
            self.note_run(bench, variant, RunSource::MemoryCache, hit.wall_seconds);
            return Arc::clone(&hit.report);
        }
        drop(probe_guard);
        // `get_or_init` blocks concurrent initializers of the same key, so
        // racing threads wait for the one in-flight simulation instead of
        // duplicating it.
        let mut initialized_here = false;
        let cached = cell.get_or_init(|| {
            initialized_here = true;
            Arc::new(CachedRun::new(Arc::new(
                self.load_or_simulate(bench, variant),
            )))
        });
        if !initialized_here {
            self.counters.memory_hits.fetch_add(1, Ordering::Relaxed);
            self.note_run(bench, variant, RunSource::MemoryCache, cached.wall_seconds);
        }
        Arc::clone(&cached.report)
    }

    /// The memo cell of one canonical key, created empty on first use.
    fn cell(&self, bench: &str, variant: RunVariant) -> Cell {
        let mut map = self.cache.lock().expect("sweep cache poisoned");
        Arc::clone(
            map.entry((bench.to_string(), variant))
                .or_insert_with(|| Arc::new(OnceLock::new())),
        )
    }

    /// Cache-only lookup: the memoized run if this process already has
    /// one, else a disk replay, else `None` — the simulator never runs.
    /// Used by callers that run simulations themselves (the serving layer
    /// threads cancellation tokens through its own executor) but still
    /// want to share this engine's memo table and on-disk entries.
    pub fn lookup(&self, bench: &str, variant: RunVariant) -> Option<Arc<CachedRun>> {
        if self.mode == SweepMode::Off {
            return None;
        }
        let variant = variant.canonical();
        let cell = self.cell(bench, variant);
        if let Some(hit) = cell.get() {
            self.counters.memory_hits.fetch_add(1, Ordering::Relaxed);
            return Some(Arc::clone(hit));
        }
        if self.mode != SweepMode::Normal {
            return None;
        }
        let path = self.entry_path(bench, variant)?;
        let report = load_entry(&path, bench, variant)?;
        self.counters.disk_hits.fetch_add(1, Ordering::Relaxed);
        // Memoize the replay; a racing initializer may have won, in which
        // case its (identical) report is the one every caller sees.
        Some(Arc::clone(
            cell.get_or_init(|| Arc::new(CachedRun::new(Arc::new(report)))),
        ))
    }

    /// Memoize and persist a report produced *outside* the engine (the
    /// serving layer's cancellable executor), and return the memoized run
    /// — the one already cached if a racing producer won. The report must
    /// be the deterministic output of `(bench, variant)` on the evaluation
    /// machine — the same contract [`SweepEngine::run`] maintains. In
    /// [`SweepMode::Off`] nothing is kept and the run comes back unshared.
    pub fn insert(
        &self,
        bench: &str,
        variant: RunVariant,
        report: Arc<RunReport>,
    ) -> Arc<CachedRun> {
        if self.mode == SweepMode::Off {
            return Arc::new(CachedRun::new(report));
        }
        let variant = variant.canonical();
        let cached = Arc::clone(
            self.cell(bench, variant)
                .get_or_init(|| Arc::new(CachedRun::new(Arc::clone(&report)))),
        );
        if let Some(path) = self.entry_path(bench, variant) {
            store_entry(&path, bench, variant, &report);
        }
        cached
    }

    fn load_or_simulate(&self, bench: &str, variant: RunVariant) -> RunReport {
        let path = self.entry_path(bench, variant);
        if self.mode == SweepMode::Normal {
            let _g = self.selfprof.scope("cache_probe");
            if let Some(report) = path.as_deref().and_then(|p| load_entry(p, bench, variant)) {
                self.counters.disk_hits.fetch_add(1, Ordering::Relaxed);
                self.note_run(bench, variant, RunSource::DiskCache, report.wall_seconds);
                eprintln!("[sweep] disk  {bench} {variant:?}");
                return report;
            }
        }
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        let report = {
            let _g = self.selfprof.scope("simulate");
            simulate(bench, variant)
        };
        self.note_sim(&report);
        self.note_run(bench, variant, RunSource::Simulated, report.wall_seconds);
        eprintln!(
            "[sweep] sim   {bench} {variant:?}: {} cycles in {:.2} s",
            report.cycles, report.wall_seconds
        );
        if let Some(p) = path {
            let _g = self.selfprof.scope("persist");
            store_entry(&p, bench, variant, &report);
        }
        report
    }

    fn note_sim(&self, report: &RunReport) {
        let nanos = (report.wall_seconds * 1e9) as u64;
        self.counters.sim_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.sim_hist
            .lock()
            .expect("sweep histogram poisoned")
            .record((report.wall_seconds * 1e3) as u64);
    }

    fn note_run(&self, bench: &str, variant: RunVariant, source: RunSource, wall_seconds: f64) {
        self.records
            .lock()
            .expect("sweep run log poisoned")
            .push(RunRecord {
                bench: bench.to_string(),
                variant,
                source,
                wall_seconds,
            });
    }

    /// Snapshot of the run log, in call order.
    pub fn run_log(&self) -> Vec<RunRecord> {
        self.records.lock().expect("sweep run log poisoned").clone()
    }

    /// Histogram of simulated wall times in milliseconds (cache hits are
    /// excluded — no simulator ran).
    pub fn sim_time_histogram(&self) -> Log2Histogram {
        self.sim_hist
            .lock()
            .expect("sweep histogram poisoned")
            .clone()
    }

    /// One-line distribution summary of simulated wall times.
    pub fn sim_time_line(&self) -> String {
        let h = self.sim_time_histogram();
        if h.count() == 0 {
            return "sim wall time: no simulations this process".to_string();
        }
        format!(
            "sim wall time: {} sims, mean {:.0} ms, p50 <= {} ms, p99 <= {} ms, max {} ms",
            h.count(),
            h.mean(),
            h.percentile(50.0),
            h.percentile(99.0),
            h.max()
        )
    }

    /// Render the run log as an aligned two-column table. Rows that
    /// actually simulated show the simulator's wall time; warm memory and
    /// disk hits are labeled `(cached)` — their stored `wall_seconds` is
    /// the *historical* cost of the run that first produced the report,
    /// and printing it made warm reruns look as slow as cold ones.
    pub fn timing_table(&self) -> String {
        let records = self.records.lock().expect("sweep run log poisoned");
        if records.is_empty() {
            return "  (no runs recorded)\n".to_string();
        }
        let rows: Vec<(String, String)> = records
            .iter()
            .map(|r| {
                let label = format!("{} {:?}", r.bench, r.variant);
                let time = match r.source {
                    RunSource::Simulated => crate::timing::format_duration(
                        std::time::Duration::from_secs_f64(r.wall_seconds.max(0.0)),
                    ),
                    RunSource::DiskCache | RunSource::MemoryCache => "(cached)".to_string(),
                };
                (label, time)
            })
            .collect();
        // Pad to the widest label, capped so one verbose Debug string
        // cannot push the time column off-screen for every row.
        let width = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0).min(72);
        let mut out = String::new();
        for (label, time) in &rows {
            out.push_str(&format!("  {label:<width$}  {time}\n"));
        }
        out
    }

    /// Delete fingerprint subdirectories of the cache dir that no longer
    /// match the current [`SweepEngine::fingerprint`] — entries orphaned
    /// by a simulator-semantics or evaluation-machine change. Only
    /// 16-hex-digit directory names are candidates; anything else in the
    /// cache dir is left alone.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error encountered while scanning or removing.
    pub fn gc_orphans(&self) -> std::io::Result<GcReport> {
        let mut gc = GcReport::default();
        for (name, path) in self.orphan_dirs()? {
            gc.bytes_freed += dir_stats(&path).1;
            std::fs::remove_dir_all(&path)?;
            gc.removed.push(name);
        }
        Ok(gc)
    }

    /// List what [`SweepEngine::gc_orphans`] would delete, without deleting
    /// anything (`--gc --dry-run`): one row per orphaned fingerprint
    /// directory with its entry count and size, sorted by name.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error encountered while scanning.
    pub fn list_orphans(&self) -> std::io::Result<Vec<OrphanEntry>> {
        Ok(self
            .orphan_dirs()?
            .into_iter()
            .map(|(name, path)| {
                let (entries, bytes) = dir_stats(&path);
                OrphanEntry {
                    name,
                    entries,
                    bytes,
                }
            })
            .collect())
    }

    /// The orphaned fingerprint directories (name, path), sorted by name —
    /// the scan shared by [`SweepEngine::gc_orphans`] and
    /// [`SweepEngine::list_orphans`].
    fn orphan_dirs(&self) -> std::io::Result<Vec<(String, PathBuf)>> {
        let mut found = Vec::new();
        let Some(dir) = self.disk_dir.as_ref() else {
            return Ok(found);
        };
        let entries = match std::fs::read_dir(dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(found),
            Err(e) => return Err(e),
        };
        let current = Self::fingerprint();
        for entry in entries {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if !is_fingerprint_name(&name) || name == current || !entry.file_type()?.is_dir() {
                continue;
            }
            found.push((name, entry.path()));
        }
        found.sort();
        Ok(found)
    }

    /// Human-readable listing of the disk cache: one line per fingerprint
    /// directory with its entry count and size; the current fingerprint is
    /// marked with `*`, orphans with `-`.
    pub fn cache_dir_report(&self) -> String {
        let Some(dir) = self.disk_dir.as_ref() else {
            return "  disk cache disabled\n".to_string();
        };
        let mut out = format!("  cache dir: {}\n", dir.display());
        let current = Self::fingerprint();
        let mut rows: Vec<(String, usize, u64)> = Vec::new();
        if let Ok(entries) = std::fs::read_dir(dir) {
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if !is_fingerprint_name(&name) {
                    continue;
                }
                let (files, bytes) = dir_stats(&entry.path());
                rows.push((name, files, bytes));
            }
        }
        if rows.is_empty() {
            out.push_str("  (empty)\n");
            return out;
        }
        rows.sort();
        let (mut total_files, mut total_bytes) = (0usize, 0u64);
        for (name, files, bytes) in rows {
            let mark = if name == current { '*' } else { '-' };
            out.push_str(&format!(
                "  {mark} {name}  {files} entries, {}\n",
                format_bytes(bytes)
            ));
            total_files += files;
            total_bytes += bytes;
        }
        out.push_str(&format!(
            "  total: {total_files} entries, {}\n",
            format_bytes(total_bytes)
        ));
        out.push_str("  (* = current fingerprint; - = orphan, prunable with --gc)\n");
        out
    }

    /// Total `(entries, bytes)` across every fingerprint directory in the
    /// disk cache, or `None` when the disk cache is disabled. The cheap
    /// scalar the cluster coordinator's `stats` response reports.
    pub fn cache_dir_totals(&self) -> Option<(u64, u64)> {
        let dir = self.disk_dir.as_ref()?;
        let (mut entries, mut bytes) = (0u64, 0u64);
        if let Ok(listing) = std::fs::read_dir(dir) {
            for entry in listing.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if !is_fingerprint_name(&name) {
                    continue;
                }
                let (files, b) = dir_stats(&entry.path());
                entries += files as u64;
                bytes += b;
            }
        }
        Some((entries, bytes))
    }

    /// Machine-readable twin of [`SweepEngine::cache_dir_report`] plus the
    /// hit/miss counters (`regless sweep --stats --format json`): one row
    /// per fingerprint directory with its entry count, byte size, whether
    /// it is the current fingerprint, and the age in seconds of its newest
    /// entry. Consumed by the serve `stats` response and CI.
    pub fn cache_stats_json(&self) -> regless_json::Json {
        use regless_json::{Json, ToJson};
        let s = self.stats();
        let counters = Json::Obj(vec![
            ("memory_hits".into(), ToJson::to_json(&s.memory_hits)),
            ("disk_hits".into(), ToJson::to_json(&s.disk_hits)),
            ("misses".into(), ToJson::to_json(&s.misses)),
            ("sim_seconds".into(), ToJson::to_json(&s.sim_seconds)),
        ]);
        let mut rows: Vec<(String, usize, u64, Option<u64>)> = Vec::new();
        if let Some(dir) = self.disk_dir.as_ref() {
            if let Ok(entries) = std::fs::read_dir(dir) {
                for entry in entries.flatten() {
                    let name = entry.file_name().to_string_lossy().into_owned();
                    if !is_fingerprint_name(&name) {
                        continue;
                    }
                    let (files, bytes) = dir_stats(&entry.path());
                    rows.push((name, files, bytes, dir_age_seconds(&entry.path())));
                }
            }
        }
        rows.sort();
        let current = Self::fingerprint();
        let (mut total_entries, mut total_bytes) = (0u64, 0u64);
        let fingerprints: Vec<Json> = rows
            .into_iter()
            .map(|(name, files, bytes, age)| {
                total_entries += files as u64;
                total_bytes += bytes;
                Json::Obj(vec![
                    ("name".into(), ToJson::to_json(&name)),
                    ("current".into(), Json::Bool(name == current)),
                    ("entries".into(), ToJson::to_json(&(files as u64))),
                    ("bytes".into(), ToJson::to_json(&bytes)),
                    (
                        "age_seconds".into(),
                        match age {
                            Some(a) => ToJson::to_json(&a),
                            None => Json::Null,
                        },
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            (
                "cache_dir".into(),
                match self.disk_dir.as_ref() {
                    Some(d) => ToJson::to_json(&d.display().to_string()),
                    None => Json::Null,
                },
            ),
            ("fingerprint".into(), ToJson::to_json(&current)),
            ("counters".into(), counters),
            ("fingerprints".into(), Json::Arr(fingerprints)),
            ("total_entries".into(), ToJson::to_json(&total_entries)),
            ("total_bytes".into(), ToJson::to_json(&total_bytes)),
        ])
    }

    fn entry_path(&self, bench: &str, variant: RunVariant) -> Option<PathBuf> {
        let dir = self.disk_dir.as_ref()?;
        Some(
            dir.join(Self::fingerprint())
                .join(entry_slug(bench, variant)),
        )
    }

    /// Snapshot the hit/miss counters.
    pub fn stats(&self) -> SweepStats {
        SweepStats {
            memory_hits: self.counters.memory_hits.load(Ordering::Relaxed),
            disk_hits: self.counters.disk_hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            sim_seconds: self.counters.sim_nanos.load(Ordering::Relaxed) as f64 / 1e9,
        }
    }

    /// Warm the cache for `jobs` using every available core. Cache hits
    /// cost nothing, so callers list everything a report needs without
    /// worrying about overlap with earlier reports.
    pub fn prefetch(&self, jobs: &[(String, RunVariant)]) {
        self.prefetch_with_progress(jobs, None);
    }

    /// [`SweepEngine::prefetch`] with an optional live progress stream:
    /// when a [`ProgressMeter`] is supplied, every completed unit notes
    /// its simulated cycles and prints the meter's one-line snapshot
    /// (done/total, units/s, Mcycles/s, ETA) to stderr — stdout stays
    /// clean for JSON pipelines.
    pub fn prefetch_with_progress(
        &self,
        jobs: &[(String, RunVariant)],
        progress: Option<&ProgressMeter>,
    ) {
        let note = |report: &RunReport| {
            if let Some(meter) = progress {
                meter.note(report.cycles);
                eprintln!("[sweep] {}", meter.snapshot().render());
            }
        };
        let workers = std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get)
            .min(jobs.len().max(1));
        if workers <= 1 {
            for (bench, variant) in jobs {
                note(&self.run(bench, *variant));
            }
            return;
        }
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some((bench, variant)) = jobs.get(i) else {
                        break;
                    };
                    note(&self.run(bench, *variant));
                });
            }
        });
    }
}

/// The process-wide engine (mode and cache directory from the
/// environment; see the module docs).
pub fn engine() -> &'static SweepEngine {
    static ENGINE: OnceLock<SweepEngine> = OnceLock::new();
    ENGINE.get_or_init(SweepEngine::from_env)
}

/// [`engine`]'s memoized [`crate::run_design`].
pub fn design(bench: &str, design: DesignKind) -> Arc<RunReport> {
    engine().run(bench, RunVariant::Design(design))
}

/// [`engine`]'s memoized [`run_regless_opts`].
pub fn regless_opts(bench: &str, opts: ReglessRunOpts) -> Arc<RunReport> {
    engine().run(bench, RunVariant::Opts(opts))
}

/// [`engine`]'s memoized baseline run under an explicit warp scheduler
/// (Figure 2's GTO vs two-level comparison).
pub fn baseline_with_scheduler(bench: &str, kind: SchedulerKind) -> Arc<RunReport> {
    engine().run(bench, RunVariant::Scheduler(kind))
}

/// Stable 64-bit hash of one `(benchmark, variant)` work unit. The
/// cluster coordinator hashes this value onto its consistent-hash ring
/// and uses it as the idempotency key when reassigning in-flight units,
/// so it must be deterministic across processes: it hashes the canonical
/// variant's `Debug` form, the same basis as the cache entry slug.
pub fn unit_hash(bench: &str, variant: RunVariant) -> u64 {
    let variant = variant.canonical();
    fnv1a64(format!("{bench}|{variant:?}").as_bytes())
}

/// Public twin of the disk-cache entry filename for one work unit, so
/// external tooling (cluster result digests, CI comparisons) names
/// results exactly the way the cache does.
pub fn unit_slug(bench: &str, variant: RunVariant) -> String {
    entry_slug(bench, variant.canonical())
}

/// Enumerate the (benchmark × design) cross-product as work units in a
/// deterministic order — the shard space a cluster coordinator hands out.
pub fn sweep_space(benches: &[String], designs: &[DesignKind]) -> Vec<(String, RunVariant)> {
    let mut units = Vec::with_capacity(benches.len() * designs.len());
    for bench in benches {
        for &design in designs {
            units.push((bench.clone(), RunVariant::Design(design).canonical()));
        }
    }
    units
}

/// A cache-fingerprint directory name: exactly 16 lowercase hex digits
/// (the `{:016x}` of [`SweepEngine::fingerprint`]).
fn is_fingerprint_name(name: &str) -> bool {
    name.len() == 16
        && name
            .chars()
            .all(|c| c.is_ascii_digit() || ('a'..='f').contains(&c))
}

/// Entry count and total byte size of a directory's immediate files.
fn dir_stats(path: &Path) -> (usize, u64) {
    let mut files = 0usize;
    let mut bytes = 0u64;
    if let Ok(entries) = std::fs::read_dir(path) {
        for entry in entries.flatten() {
            if let Ok(meta) = entry.metadata() {
                if meta.is_file() {
                    files += 1;
                    bytes += meta.len();
                }
            }
        }
    }
    (files, bytes)
}

/// Age in seconds of the *newest* immediate file in `path` (how recently
/// this fingerprint was written to), or `None` for an empty/unreadable
/// directory or a filesystem without usable mtimes.
fn dir_age_seconds(path: &Path) -> Option<u64> {
    let mut newest: Option<std::time::SystemTime> = None;
    for entry in std::fs::read_dir(path).ok()?.flatten() {
        if let Ok(meta) = entry.metadata() {
            if meta.is_file() {
                if let Ok(m) = meta.modified() {
                    newest = Some(newest.map_or(m, |n| n.max(m)));
                }
            }
        }
    }
    newest?.elapsed().ok().map(|d| d.as_secs())
}

/// Render a byte count with a unit suited to its magnitude. Delegates to
/// the one humanized formatter shared via telemetry so `sweep --stats`,
/// `sweep --gc`, and the cluster coordinator all print identical units.
fn format_bytes(bytes: u64) -> String {
    regless_telemetry::format_bytes(bytes)
}

/// FNV-1a, used for the cache fingerprint and slug collision guards.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Filename for one cache entry: a readable sanitized prefix plus a hash
/// of the exact key (the prefix alone could collide after sanitizing).
fn entry_slug(bench: &str, variant: RunVariant) -> String {
    let exact = format!("{bench}|{variant:?}");
    let mut readable = String::new();
    for c in exact.chars() {
        if c.is_ascii_alphanumeric() {
            readable.push(c);
        } else if !readable.ends_with('-') {
            readable.push('-');
        }
    }
    let readable = readable.trim_matches('-');
    format!(
        "{}_{:016x}.json",
        &readable[..readable.len().min(80)],
        fnv1a64(exact.as_bytes())
    )
}

/// Best-effort read of a persisted report; any failure (missing, corrupt,
/// or a slug collision with a different key) falls back to simulating.
fn load_entry(path: &Path, bench: &str, variant: RunVariant) -> Option<RunReport> {
    let text = std::fs::read_to_string(path).ok()?;
    let json = regless_json::Json::parse(&text).ok()?;
    let stored_bench: String = regless_json::FromJson::from_json(json.field("bench").ok()?).ok()?;
    let stored_variant: String =
        regless_json::FromJson::from_json(json.field("variant").ok()?).ok()?;
    if stored_bench != bench || stored_variant != format!("{variant:?}") {
        return None;
    }
    regless_json::FromJson::from_json(json.field("report").ok()?).ok()
}

/// Best-effort write of a report (cache persistence must never fail an
/// experiment, so I/O errors only warn).
fn store_entry(path: &Path, bench: &str, variant: RunVariant, report: &RunReport) {
    let entry = regless_json::Json::Obj(vec![
        (
            "bench".into(),
            regless_json::ToJson::to_json(&bench.to_string()),
        ),
        (
            "variant".into(),
            regless_json::ToJson::to_json(&format!("{variant:?}")),
        ),
        ("report".into(), regless_json::ToJson::to_json(report)),
    ]);
    let write = || -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        // Write-then-rename so a crash mid-write cannot leave a truncated
        // entry under the final name. The temp name is unique per process
        // *and* per write, so a concurrent server and CLI sweep persisting
        // the same fingerprint never interleave bytes in one temp file;
        // the last rename wins with a complete entry either way.
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = path.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, entry.to_string_compact())?;
        std::fs::rename(&tmp, path)
    };
    if let Err(e) = write() {
        eprintln!("[sweep] warn: could not persist {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalization_merges_equivalent_runs() {
        assert_eq!(
            RunVariant::Opts(ReglessRunOpts::default()).canonical(),
            RunVariant::Design(DesignKind::regless_512())
        );
        assert_eq!(
            RunVariant::Opts(ReglessRunOpts {
                compressor: false,
                ..Default::default()
            })
            .canonical(),
            RunVariant::Design(DesignKind::RegLessNoCompressor { entries: 512 })
        );
        assert_eq!(
            RunVariant::Scheduler(SchedulerKind::Gto).canonical(),
            RunVariant::Design(DesignKind::Baseline)
        );
        assert_eq!(
            RunVariant::IssueWidth {
                width: 1,
                regless: true
            }
            .canonical(),
            RunVariant::Design(DesignKind::regless_512())
        );
        // Non-default options must keep their own key.
        let fifo = RunVariant::Opts(ReglessRunOpts {
            order: regless_core::ActivationOrder::Fifo,
            ..Default::default()
        });
        assert_eq!(fifo.canonical(), fifo);
        assert_eq!(
            RunVariant::IssueWidth {
                width: 2,
                regless: false
            }
            .canonical(),
            RunVariant::IssueWidth {
                width: 2,
                regless: false
            }
        );
    }

    #[test]
    fn slug_is_filename_safe_and_key_exact() {
        let a = entry_slug("rodinia/bfs", RunVariant::Design(DesignKind::regless_512()));
        let b = entry_slug("rodinia/bfs", RunVariant::Design(DesignKind::Baseline));
        assert_ne!(a, b);
        assert!(a.ends_with(".json"));
        assert!(
            a.chars()
                .all(|c| c.is_ascii_alphanumeric() || "-_.".contains(c)),
            "{a}"
        );
    }

    #[test]
    fn memoizes_and_persists_identical_reports() {
        let dir = std::env::temp_dir().join(format!(
            "regless-sweep-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let bench = rodinia_id("nn");
        let variant = RunVariant::Design(DesignKind::Baseline);

        let cold = SweepEngine::with_config(Some(dir.clone()), SweepMode::Normal);
        let first = cold.run(&bench, variant);
        let again = cold.run(&bench, variant);
        assert!(
            Arc::ptr_eq(&first, &again),
            "second call must be the memoized report"
        );
        let s = cold.stats();
        assert_eq!((s.misses, s.memory_hits, s.disk_hits), (1, 1, 0));

        // A fresh engine over the same directory must replay from disk and
        // reproduce the simulated numbers exactly.
        let warm = SweepEngine::with_config(Some(dir.clone()), SweepMode::Normal);
        let replayed = warm.run(&bench, variant);
        let s = warm.stats();
        assert_eq!((s.misses, s.disk_hits), (0, 1));
        assert_eq!(replayed.cycles, first.cycles);
        assert_eq!(replayed.sm_stats[0].rf_reads, first.sm_stats[0].rf_reads);
        assert_eq!(replayed.mem, first.mem);
        assert_eq!(replayed.warp_insns, first.warp_insns);

        // Cold mode ignores the entry and simulates again.
        let forced = SweepEngine::with_config(Some(dir.clone()), SweepMode::Cold);
        let re = forced.run(&bench, variant);
        assert_eq!(forced.stats().misses, 1);
        assert_eq!(re.cycles, first.cycles);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn timing_table_marks_warm_hits_cached() {
        let engine = SweepEngine::with_config(None, SweepMode::Normal);
        let bench = rodinia_id("nn");
        let variant = RunVariant::Design(DesignKind::Baseline);
        engine.run(&bench, variant);
        engine.run(&bench, variant);

        let log = engine.run_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].source, RunSource::Simulated);
        assert_eq!(log[1].source, RunSource::MemoryCache);

        let table = engine.timing_table();
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(
            !lines[0].contains("(cached)"),
            "cold run shows a wall time: {}",
            lines[0]
        );
        assert!(
            lines[1].ends_with("(cached)"),
            "warm hit is labeled: {}",
            lines[1]
        );

        let hist = engine.sim_time_histogram();
        assert_eq!(hist.count(), 1, "only the real simulation is recorded");
        assert!(engine.sim_time_line().starts_with("sim wall time: 1 sims"));
    }

    #[test]
    fn fingerprint_names_are_recognized() {
        assert!(is_fingerprint_name(&SweepEngine::fingerprint()));
        assert!(is_fingerprint_name("0123456789abcdef"));
        assert!(!is_fingerprint_name("0123456789ABCDEF"));
        assert!(!is_fingerprint_name("0123456789abcde"));
        assert!(!is_fingerprint_name("0123456789abcdef0"));
        assert!(!is_fingerprint_name("latest-notes.txt"));
    }

    #[test]
    fn gc_removes_only_orphaned_fingerprint_dirs() {
        let dir = std::env::temp_dir().join(format!(
            "regless-sweep-gc-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let current = dir.join(SweepEngine::fingerprint());
        let orphan = dir.join("00000000deadbeef");
        let keeper = dir.join("notes"); // not a fingerprint: untouched
        for d in [&current, &orphan, &keeper] {
            std::fs::create_dir_all(d).unwrap();
        }
        std::fs::write(current.join("a.json"), "{}").unwrap();
        std::fs::write(orphan.join("b.json"), "stale").unwrap();

        let engine = SweepEngine::with_config(Some(dir.clone()), SweepMode::Normal);
        let report = engine.cache_dir_report();
        assert!(report.contains("00000000deadbeef"), "{report}");
        assert!(report.contains(&SweepEngine::fingerprint()), "{report}");
        // The footer totals across all fingerprints: a.json (2 bytes) +
        // b.json (5 bytes).
        assert!(report.contains("total: 2 entries, 7 B"), "{report}");

        // Dry run: reports the orphan without touching anything.
        let orphans = engine.list_orphans().unwrap();
        assert_eq!(
            orphans,
            vec![OrphanEntry {
                name: "00000000deadbeef".to_string(),
                entries: 1,
                bytes: 5,
            }]
        );
        assert!(orphan.exists(), "dry run must not delete");

        let gc = engine.gc_orphans().unwrap();
        assert_eq!(gc.removed, vec!["00000000deadbeef".to_string()]);
        assert_eq!(gc.bytes_freed, 5);
        assert!(current.join("a.json").exists(), "current entries survive");
        assert!(keeper.exists(), "non-fingerprint dirs survive");
        assert!(!orphan.exists());

        // Idempotent.
        assert_eq!(engine.gc_orphans().unwrap(), GcReport::default());

        // No disk dir: a no-op, not an error.
        let off = SweepEngine::with_config(None, SweepMode::Normal);
        assert_eq!(off.gc_orphans().unwrap(), GcReport::default());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_of_one_fingerprint_leave_one_valid_entry() {
        // Multi-process hardening: N threads persisting the same key at
        // once (a server and a CLI sweep racing on one fingerprint) must
        // end with exactly one complete, parseable entry and no leftover
        // temp files — unique temp names plus atomic rename guarantee no
        // interleaved bytes regardless of which writer wins.
        let dir = std::env::temp_dir().join(format!(
            "regless-sweep-race-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let bench = rodinia_id("nn");
        let variant = RunVariant::Design(DesignKind::Baseline);
        let engine = SweepEngine::with_config(Some(dir.clone()), SweepMode::Normal);
        let report = engine.run(&bench, variant);
        let path = engine.entry_path(&bench, variant).unwrap();

        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| store_entry(&path, &bench, variant, &report));
            }
        });

        let entries: Vec<String> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(entries.len(), 1, "no temp files survive: {entries:?}");
        let replayed = load_entry(&path, &bench, variant).expect("entry parses");
        assert_eq!(replayed.cycles, report.cycles);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lookup_and_insert_share_the_cache_without_simulating() {
        let dir = std::env::temp_dir().join(format!(
            "regless-sweep-li-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let bench = rodinia_id("nn");
        let variant = RunVariant::Design(DesignKind::Baseline);

        let writer = SweepEngine::with_config(Some(dir.clone()), SweepMode::Normal);
        assert!(writer.lookup(&bench, variant).is_none(), "cold cache");
        let report = Arc::new(simulate(&bench, variant));
        writer.insert(&bench, variant, Arc::clone(&report));
        let hit = writer.lookup(&bench, variant).expect("memoized");
        assert!(Arc::ptr_eq(&hit.report, &report));

        // The compact report text is rendered once and shared by every
        // later lookup of the key.
        let text = hit.stable_text();
        assert_eq!(*text, *report.stable_json().to_string_compact());
        let again = writer.lookup(&bench, variant).expect("memoized");
        assert!(Arc::ptr_eq(&again, &hit));
        assert!(Arc::ptr_eq(&again.stable_text(), &text));

        // A fresh engine over the same directory replays the inserted
        // entry from disk; lookup never runs the simulator.
        let reader = SweepEngine::with_config(Some(dir.clone()), SweepMode::Normal);
        let replayed = reader.lookup(&bench, variant).expect("disk replay");
        assert_eq!(replayed.cycles, report.cycles);
        let s = reader.stats();
        assert_eq!((s.misses, s.disk_hits), (0, 1));

        // Off mode: lookup and insert are inert.
        let off = SweepEngine::with_config(Some(dir.clone()), SweepMode::Off);
        assert!(off.lookup(&bench, variant).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_stats_json_lists_fingerprints_and_totals() {
        let dir = std::env::temp_dir().join(format!(
            "regless-sweep-statsjson-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let current = dir.join(SweepEngine::fingerprint());
        let orphan = dir.join("00000000deadbeef");
        std::fs::create_dir_all(&current).unwrap();
        std::fs::create_dir_all(&orphan).unwrap();
        std::fs::write(current.join("a.json"), "{}").unwrap();
        std::fs::write(orphan.join("b.json"), "stale").unwrap();

        let engine = SweepEngine::with_config(Some(dir.clone()), SweepMode::Normal);
        let json = engine.cache_stats_json();
        // Round-trip through the parser: the output must be valid JSON.
        let parsed = regless_json::Json::parse(&json.to_string_compact()).unwrap();
        let fps = match parsed.field("fingerprints").unwrap() {
            regless_json::Json::Arr(rows) => rows.clone(),
            other => panic!("fingerprints should be an array, got {}", other.kind()),
        };
        assert_eq!(fps.len(), 2);
        let names: Vec<String> = fps
            .iter()
            .map(|r| regless_json::FromJson::from_json(r.field("name").unwrap()).unwrap())
            .collect();
        assert!(names.contains(&"00000000deadbeef".to_string()));
        assert!(names.contains(&SweepEngine::fingerprint()));
        for row in &fps {
            let name: String =
                regless_json::FromJson::from_json(row.field("name").unwrap()).unwrap();
            let current_flag = row.field("current").unwrap() == &regless_json::Json::Bool(true);
            assert_eq!(current_flag, name == SweepEngine::fingerprint());
            let age = row.field("age_seconds").unwrap();
            assert_ne!(age, &regless_json::Json::Null, "fresh files have an age");
        }
        let total_entries: u64 =
            regless_json::FromJson::from_json(parsed.field("total_entries").unwrap()).unwrap();
        let total_bytes: u64 =
            regless_json::FromJson::from_json(parsed.field("total_bytes").unwrap()).unwrap();
        assert_eq!(total_entries, 2);
        assert_eq!(total_bytes, 7);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bench_kernel_resolves_known_ids_only() {
        assert!(bench_kernel(&rodinia_id("nn")).is_some());
        assert!(bench_kernel(HIGH_PRESSURE_ID).is_some());
        assert!(bench_kernel("rodinia/not-a-bench").is_none());
        assert!(bench_kernel("micro/not-a-bench").is_none());
        assert!(bench_kernel("nn").is_none(), "bare names need a prefix");
        assert!(bench_kernel_name("nn").is_none());
        assert!(bench_kernel_name("micro/not-a-bench").is_none());
    }

    #[test]
    fn kernel_names_resolve_without_building_and_match_the_built_kernel() {
        let ids = rodinia::NAMES
            .iter()
            .map(|n| rodinia_id(n))
            .chain(micro::NAMES.iter().map(|n| micro_id(n)))
            .chain([HIGH_PRESSURE_ID.to_string()]);
        for id in ids {
            let built = bench_kernel(&id).unwrap_or_else(|| panic!("{id} builds"));
            assert_eq!(bench_kernel_name(&id), Some(built.name()), "{id}");
        }
    }

    #[test]
    fn unit_hash_is_canonical_and_distinct() {
        // Equivalent phrasings hash identically (idempotency across a
        // coordinator that speaks designs and a worker that ran opts).
        assert_eq!(
            unit_hash("rodinia/nn", RunVariant::Opts(ReglessRunOpts::default())),
            unit_hash("rodinia/nn", RunVariant::Design(DesignKind::regless_512()))
        );
        // Distinct units hash apart.
        assert_ne!(
            unit_hash("rodinia/nn", RunVariant::Design(DesignKind::Baseline)),
            unit_hash("rodinia/bfs", RunVariant::Design(DesignKind::Baseline))
        );
        assert_ne!(
            unit_hash("rodinia/nn", RunVariant::Design(DesignKind::Baseline)),
            unit_hash("rodinia/nn", RunVariant::Design(DesignKind::regless_512()))
        );
        // And the public slug matches what the disk cache would use.
        assert_eq!(
            unit_slug("rodinia/nn", RunVariant::Opts(ReglessRunOpts::default())),
            entry_slug("rodinia/nn", RunVariant::Design(DesignKind::regless_512()))
        );
    }

    #[test]
    fn every_registered_design_fingerprints_distinct_and_stable() {
        // Registry satellite: each registry id's default design must key a
        // distinct work unit, and the hash must be stable across calls
        // (it names disk-cache entries and cluster idempotency keys).
        let designs: Vec<(&str, DesignKind)> = crate::registry::all()
            .iter()
            .map(|e| (e.id, e.default_design()))
            .collect();
        let bench = rodinia_id("nn");
        for (i, (id_a, a)) in designs.iter().enumerate() {
            let h = unit_hash(&bench, RunVariant::Design(*a));
            assert_eq!(
                h,
                unit_hash(&bench, RunVariant::Design(*a)),
                "{id_a}: unit_hash must be deterministic"
            );
            for (id_b, b) in &designs[i + 1..] {
                assert_ne!(
                    h,
                    unit_hash(&bench, RunVariant::Design(*b)),
                    "{id_a} and {id_b} must fingerprint apart"
                );
            }
        }
    }

    #[test]
    fn sweep_space_enumerates_the_cross_product_in_order() {
        let benches = vec![rodinia_id("nn"), rodinia_id("bfs")];
        let designs = vec![DesignKind::Baseline, DesignKind::regless_512()];
        let units = sweep_space(&benches, &designs);
        assert_eq!(units.len(), 4);
        assert_eq!(
            units[0],
            (rodinia_id("nn"), RunVariant::Design(DesignKind::Baseline))
        );
        assert_eq!(
            units[3],
            (
                rodinia_id("bfs"),
                RunVariant::Design(DesignKind::regless_512())
            )
        );
        // Deterministic: two enumerations agree element-wise.
        assert_eq!(units, sweep_space(&benches, &designs));
    }

    #[test]
    fn prefetch_covers_all_jobs() {
        let engine = SweepEngine::with_config(None, SweepMode::Normal);
        let jobs = vec![
            (rodinia_id("nn"), RunVariant::Design(DesignKind::Baseline)),
            (rodinia_id("nn"), RunVariant::Design(DesignKind::Baseline)),
        ];
        engine.prefetch(&jobs);
        let s = engine.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.memory_hits + s.disk_hits + s.misses, 2);
    }
}
