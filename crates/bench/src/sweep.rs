//! Memoized, parallel sweep engine for the experiment harness.
//!
//! Every figure and table in this crate is built from a modest set of
//! `(benchmark, design, machine)` simulations, and many figures share runs:
//! the baseline over all 21 Rodinia kernels alone is re-simulated by a
//! dozen reports. The engine runs each distinct simulation **once**,
//! memoizes the [`RunReport`] behind a thread-safe cache, and optionally
//! persists results as JSON under `results/cache/` so a second `regless
//! experiments` run replays from disk instead of re-simulating.
//!
//! # Cache key
//!
//! The in-memory key is exactly what [`DesignKind::execute`] takes besides
//! the kernel: `(benchmark id, DesignKind, GpuConfig)`. Benchmark ids are
//! strings of the form `rodinia/<name>`, `micro/<name>`, or
//! `special/high_pressure`. Runs that are one simulation are one key by
//! structure: the scheduler study's GTO point and the issue-width study's
//! single-issue points run on the evaluation machine itself, so they share
//! the figures' entries. On disk and in logs a key is one line of text,
//! `rodinia/nn|regless:capacity=128|scheduler=Lrr`: the benchmark, the
//! design point as the registry spells it, and the machine fields that
//! differ from the evaluation machine.
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

use crate::{eval_gpu, registry, Attach, DesignKind};
use regless_sim::{GpuConfig, RunReport};
use regless_telemetry::{format_bytes, Log2Histogram};
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
/// throttle counter (`comprf_throttled_warp_cycles`); design ids now
/// resolve through the registry (`crate::registry`).
/// v6: `DesignKind::RegLessNoCompressor` folded into `DesignKind::RegLess`
/// with a `compressor` field, which changes every RegLess variant's
/// `Debug` key.
/// v7: `DesignKind::RegLess` carries a whole `RegLessConfig` (the
/// ablation runs are RegLess designs too), which changes every RegLess
/// variant's `Debug` key again.
/// v8: the key is `(bench, DesignKind, GpuConfig)`, the arguments of
/// `DesignKind::execute`, and an entry stores its exact text under `key`;
/// RFV, RegDem and the compressed RF are `DesignKind::Throttled`. Every
/// slug changes.
/// v9: the key is the run's text ([`run_key`]): the design point as the
/// registry spells it and only the machine fields that differ from
/// `eval_gpu()`, not the `Debug` text of both. Every slug changes.
const CACHE_FORMAT_VERSION: u32 = 9;

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

/// The one text of a run, which logs, the timing table, the cache entry
/// (its slug and stored `key`) use: the benchmark,
/// the design point as [`registry::render`] spells it, then `|field=value`
/// for each field of `gpu` that differs from [`eval_gpu`] (`|scheduler=Lrr`),
/// which the cache fingerprint already hashes.
fn run_key(bench: &str, design: DesignKind, gpu: GpuConfig) -> String {
    let eval = eval_gpu();
    let mut key = format!("{bench}|{}", registry::render(design));
    macro_rules! differing {
        ($($field:ident),*) => {
            // No `..`: a field added to `GpuConfig` must be listed here.
            let GpuConfig { $($field),* } = gpu;
            $(
                if $field != eval.$field {
                    key.push_str(&format!("|{}={:?}", stringify!($field), $field));
                }
            )*
        };
    }
    differing!(
        num_sms,
        warps_per_sm,
        warps_per_block,
        schedulers_per_sm,
        issue_slots_per_scheduler,
        rf_bytes_per_sm,
        scheduler,
        l1,
        l1_bypass_data,
        l1_mshrs,
        l2,
        l2_partitions,
        l2_ports,
        dram_latency,
        dram_ports,
        latency,
        max_cycles
    );
    key
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
}

/// Where one [`SweepEngine::run`] call was served from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum RunSource {
    /// The simulator actually ran.
    Simulated,
    /// Replayed from a persisted JSON entry.
    DiskCache,
    /// Served from the in-memory memo table.
    MemoryCache,
}

/// One entry of the engine's run log (see [`SweepEngine::timing_table`]).
struct RunRecord {
    /// The run's text ([`run_key`]).
    key: String,
    source: RunSource,
    /// Wall seconds of the simulation that originally produced the report
    /// — for cached runs this is *historical*, not time spent now, which
    /// is why the timing table prints `(cached)` instead.
    wall_seconds: f64,
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

/// One simulation: a benchmark id, a design and the machine it runs on —
/// what [`DesignKind::execute`] takes besides the kernel.
pub type Key = (String, DesignKind, GpuConfig);

/// One memoized simulation: the report, its IPC, and its compact
/// `stable_json()` text, rendered the first time a caller asks for it and
/// shared by every later one. A served `run` reply splices that text
/// instead of rebuilding and re-rendering the report per request;
/// `profile` and `report` replies do the same with their payloads. Derefs
/// to the report.
#[derive(Debug)]
pub struct CachedRun {
    report: Arc<RunReport>,
    ipc: f64,
    stable_text: OnceLock<Arc<str>>,
    profile_text: OnceLock<Arc<str>>,
    summary_text: OnceLock<Arc<str>>,
}

impl CachedRun {
    /// Wrap a report; its texts are rendered on first use.
    pub fn new(report: Arc<RunReport>) -> CachedRun {
        CachedRun {
            ipc: report.ipc(),
            report,
            stable_text: OnceLock::new(),
            profile_text: OnceLock::new(),
            summary_text: OnceLock::new(),
        }
    }

    /// [`RunReport::ipc`], computed once when the run was cached (the
    /// report's own method merges every SM's counters per call). Shadows
    /// the report's method for callers holding a `CachedRun`.
    pub fn ipc(&self) -> f64 {
        self.ipc
    }

    /// `self.stable_json().to_string_compact()`, rendered once.
    pub fn stable_text(&self) -> Arc<str> {
        Arc::clone(
            self.stable_text
                .get_or_init(|| self.report.stable_json().to_string_compact().into()),
        )
    }

    /// The compact JSON of [`ProfileReport::collect`] for this run of
    /// `design` on the kernel named `kernel`, labelled with the point as
    /// [`registry::render`] spells it and its OSU capacity. Rendered once:
    /// a cached run is the run of one sweep key, which fixes the kernel
    /// and the design point, so every caller asks for the same labels.
    ///
    /// [`ProfileReport::collect`]: crate::profile::ProfileReport::collect
    pub fn profile_text(&self, kernel: &str, design: DesignKind) -> Arc<str> {
        Self::rendered(&self.profile_text, || {
            let label = registry::render(design);
            let profile = crate::profile::ProfileReport::collect(
                &self.report,
                kernel,
                &label,
                design.osu_capacity(),
            );
            regless_json::ToJson::to_json(&profile)
        })
    }

    /// The compact JSON of the [`crate::report::collect`] summary,
    /// labelled and memoized as [`CachedRun::profile_text`] is.
    pub fn summary_text(&self, kernel: &str, design: DesignKind) -> Arc<str> {
        Self::rendered(&self.summary_text, || {
            let label = registry::render(design);
            let summary =
                crate::report::collect(&self.report, kernel, &label, design.osu_capacity())
                    .summary();
            regless_json::ToJson::to_json(&summary)
        })
    }

    fn rendered(
        memo: &OnceLock<Arc<str>>,
        render: impl FnOnce() -> regless_json::Json,
    ) -> Arc<str> {
        Arc::clone(memo.get_or_init(|| render().to_string_compact().into()))
    }
}

impl Deref for CachedRun {
    type Target = RunReport;

    fn deref(&self) -> &RunReport {
        &self.report
    }
}

type Cell = Arc<OnceLock<Arc<CachedRun>>>;

/// The memo table: benchmark id, then the rest of a [`Key`]. Split in two
/// so a probe borrows the id (`String: Borrow<str>`) and allocates a key
/// only the first time a point is seen.
type MemoTable = HashMap<String, HashMap<(DesignKind, GpuConfig), Cell>>;

/// The memoizing simulation runner. Use the process-wide [`engine`] in
/// experiment code; construct directly only in tests.
pub struct SweepEngine {
    cache: Mutex<MemoTable>,
    counters: Counters,
    /// Every `run` call in order: the timing table, the simulated wall
    /// time and its histogram all read this one log.
    records: Mutex<Vec<RunRecord>>,
    /// Directory for persisted reports (`None` disables persistence).
    disk_dir: Option<PathBuf>,
    mode: SweepMode,
}

impl SweepEngine {
    /// An engine with explicit cache directory and mode (tests; the
    /// process-wide [`engine`] reads the environment instead).
    pub fn with_config(disk_dir: Option<PathBuf>, mode: SweepMode) -> SweepEngine {
        SweepEngine {
            cache: Mutex::new(HashMap::new()),
            counters: Counters::default(),
            records: Mutex::new(Vec::new()),
            disk_dir,
            mode,
        }
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

    /// Run (or recall) `design` on `gpu` for one benchmark.
    pub fn run(&self, bench: &str, design: DesignKind, gpu: GpuConfig) -> Arc<RunReport> {
        if self.mode == SweepMode::Off {
            return Arc::new(self.simulate(bench, design, gpu));
        }
        let cell = self.cell(bench, design, gpu);
        if let Some(hit) = cell.get() {
            self.counters.memory_hits.fetch_add(1, Ordering::Relaxed);
            let key = run_key(bench, design, gpu);
            self.note_run(key, RunSource::MemoryCache, hit.wall_seconds);
            return Arc::clone(&hit.report);
        }
        // `get_or_init` blocks concurrent initializers of the same key, so
        // racing threads wait for the one in-flight simulation instead of
        // duplicating it.
        let mut initialized_here = false;
        let cached = cell.get_or_init(|| {
            initialized_here = true;
            Arc::new(CachedRun::new(Arc::new(
                self.load_or_simulate(bench, design, gpu),
            )))
        });
        if !initialized_here {
            self.counters.memory_hits.fetch_add(1, Ordering::Relaxed);
            let key = run_key(bench, design, gpu);
            self.note_run(key, RunSource::MemoryCache, cached.wall_seconds);
        }
        Arc::clone(&cached.report)
    }

    /// The memo cell of one key, created empty on first use.
    fn cell(&self, bench: &str, design: DesignKind, gpu: GpuConfig) -> Cell {
        let mut map = self.cache.lock().expect("sweep cache poisoned");
        let points = match map.get_mut(bench) {
            Some(points) => points,
            None => map.entry(bench.to_string()).or_default(),
        };
        Arc::clone(points.entry((design, gpu)).or_default())
    }

    /// Cache-only lookup: the memoized run if this process already has
    /// one, else a disk replay, else `None` — the simulator never runs.
    /// Used by callers that run simulations themselves (the serving layer
    /// threads cancellation tokens through its own executor) but still
    /// want to share this engine's memo table and on-disk entries.
    pub fn lookup(
        &self,
        bench: &str,
        design: DesignKind,
        gpu: GpuConfig,
    ) -> Option<Arc<CachedRun>> {
        if self.mode == SweepMode::Off {
            return None;
        }
        let cell = self.cell(bench, design, gpu);
        if let Some(hit) = cell.get() {
            self.counters.memory_hits.fetch_add(1, Ordering::Relaxed);
            return Some(Arc::clone(hit));
        }
        if self.mode != SweepMode::Normal {
            return None;
        }
        let exact = run_key(bench, design, gpu);
        let report = load_entry(&self.entry_path(&exact)?, &exact)?;
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
    /// be the deterministic output of `design` on `gpu` for `bench` — the
    /// same contract [`SweepEngine::run`] maintains. In [`SweepMode::Off`]
    /// nothing is kept and the run comes back unshared.
    pub fn insert(
        &self,
        bench: &str,
        design: DesignKind,
        gpu: GpuConfig,
        report: Arc<RunReport>,
    ) -> Arc<CachedRun> {
        if self.mode == SweepMode::Off {
            return Arc::new(CachedRun::new(report));
        }
        let cached = Arc::clone(
            self.cell(bench, design, gpu)
                .get_or_init(|| Arc::new(CachedRun::new(Arc::clone(&report)))),
        );
        let exact = run_key(bench, design, gpu);
        if let Some(path) = self.entry_path(&exact) {
            store_entry(&path, &exact, &report);
        }
        cached
    }

    fn load_or_simulate(&self, bench: &str, design: DesignKind, gpu: GpuConfig) -> RunReport {
        let exact = run_key(bench, design, gpu);
        let path = self.entry_path(&exact);
        if self.mode == SweepMode::Normal {
            if let Some(report) = path.as_deref().and_then(|p| load_entry(p, &exact)) {
                self.counters.disk_hits.fetch_add(1, Ordering::Relaxed);
                eprintln!("[sweep] disk  {exact}");
                self.note_run(exact, RunSource::DiskCache, report.wall_seconds);
                return report;
            }
        }
        let report = self.simulate(bench, design, gpu);
        if let Some(p) = path {
            store_entry(&p, &exact, &report);
        }
        report
    }

    /// Actually run one simulation (a cache miss) and account for it.
    ///
    /// # Panics
    ///
    /// Panics on an unknown benchmark id or a failed run: experiment code
    /// builds ids from the workload tables, so either is a harness bug.
    fn simulate(&self, bench: &str, design: DesignKind, gpu: GpuConfig) -> RunReport {
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        let key = run_key(bench, design, gpu);
        let kernel =
            bench_kernel(bench).unwrap_or_else(|| panic!("unknown benchmark id {bench:?}"));
        let report = design
            .execute(&kernel, gpu, &Attach::default())
            .unwrap_or_else(|e| panic!("{key}: {e}"));
        eprintln!(
            "[sweep] sim   {key}: {} cycles in {:.2} s",
            report.cycles, report.wall_seconds
        );
        self.note_run(key, RunSource::Simulated, report.wall_seconds);
        report
    }

    fn note_run(&self, key: String, source: RunSource, wall_seconds: f64) {
        self.records
            .lock()
            .expect("sweep run log poisoned")
            .push(RunRecord {
                key,
                source,
                wall_seconds,
            });
    }

    /// Wall seconds of every run this engine simulated, in run order
    /// (cache hits are excluded — no simulator ran).
    fn simulated_seconds(&self) -> Vec<f64> {
        self.records
            .lock()
            .expect("sweep run log poisoned")
            .iter()
            .filter(|r| r.source == RunSource::Simulated)
            .map(|r| r.wall_seconds)
            .collect()
    }

    /// Histogram of simulated wall times in milliseconds (cache hits are
    /// excluded — no simulator ran).
    pub fn sim_time_histogram(&self) -> Log2Histogram {
        let mut h = Log2Histogram::new();
        for secs in self.simulated_seconds() {
            h.record((secs * 1e3) as u64);
        }
        h
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
        let rows: Vec<(&str, String)> = records
            .iter()
            .map(|r| {
                let time = match r.source {
                    RunSource::Simulated => crate::timing::format_duration(
                        std::time::Duration::from_secs_f64(r.wall_seconds.max(0.0)),
                    ),
                    RunSource::DiskCache | RunSource::MemoryCache => "(cached)".to_string(),
                };
                (r.key.as_str(), time)
            })
            .collect();
        // Pad to the widest label, capped so one long machine override
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
        for (name, path, _, bytes) in self.orphan_dirs()? {
            std::fs::remove_dir_all(&path)?;
            gc.bytes_freed += bytes;
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
            .map(|(name, _, entries, bytes)| OrphanEntry {
                name,
                entries,
                bytes,
            })
            .collect())
    }

    fn orphan_dirs(&self) -> std::io::Result<Vec<FingerprintDir>> {
        let current = Self::fingerprint();
        let mut dirs = self.fingerprint_dirs()?;
        dirs.retain(|(name, ..)| *name != current);
        Ok(dirs)
    }

    /// Every fingerprint directory of the disk cache with its entry count
    /// and size, sorted by name: the one walk behind `--stats` and `--gc`.
    /// Empty when the disk cache is disabled or its directory does not
    /// exist yet.
    fn fingerprint_dirs(&self) -> std::io::Result<Vec<FingerprintDir>> {
        let Some(dir) = self.disk_dir.as_ref() else {
            return Ok(Vec::new());
        };
        let listing = match std::fs::read_dir(dir) {
            Ok(listing) => listing,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut found = Vec::new();
        for entry in listing {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if !is_fingerprint_name(&name) || !entry.file_type()?.is_dir() {
                continue;
            }
            let path = entry.path();
            let (files, bytes) = dir_stats(&path);
            found.push((name, path, files, bytes));
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
        let rows = self.fingerprint_dirs().unwrap_or_default();
        if rows.is_empty() {
            out.push_str("  (empty)\n");
            return out;
        }
        let current = Self::fingerprint();
        for (name, _, files, bytes) in &rows {
            let mark = if *name == current { '*' } else { '-' };
            out.push_str(&format!(
                "  {mark} {name}  {files} entries, {}\n",
                format_bytes(*bytes)
            ));
        }
        let (total_files, total_bytes) = totals(&rows);
        out.push_str(&format!(
            "  total: {total_files} entries, {}\n",
            format_bytes(total_bytes)
        ));
        out.push_str("  (* = current fingerprint; - = orphan, prunable with --gc)\n");
        out
    }

    /// Machine-readable twin of [`SweepEngine::cache_dir_report`] plus the
    /// hit/miss counters (`regless sweep --stats --format json`): one row
    /// per fingerprint directory with its entry count, byte size, whether
    /// it is the current fingerprint, and the age in seconds of its newest
    /// entry.
    pub fn cache_stats_json(&self) -> regless_json::Json {
        use regless_json::{Json, ToJson};
        let s = self.stats();
        let counters = Json::Obj(vec![
            ("memory_hits".into(), ToJson::to_json(&s.memory_hits)),
            ("disk_hits".into(), ToJson::to_json(&s.disk_hits)),
            ("misses".into(), ToJson::to_json(&s.misses)),
            ("sim_seconds".into(), ToJson::to_json(&s.sim_seconds)),
        ]);
        let rows = self.fingerprint_dirs().unwrap_or_default();
        let current = Self::fingerprint();
        let fingerprints: Vec<Json> = rows
            .iter()
            .map(|(name, path, files, bytes)| {
                Json::Obj(vec![
                    ("name".into(), ToJson::to_json(name)),
                    ("current".into(), Json::Bool(*name == current)),
                    ("entries".into(), ToJson::to_json(&(*files as u64))),
                    ("bytes".into(), ToJson::to_json(bytes)),
                    (
                        "age_seconds".into(),
                        match dir_age_seconds(path) {
                            Some(a) => ToJson::to_json(&a),
                            None => Json::Null,
                        },
                    ),
                ])
            })
            .collect();
        let (total_entries, total_bytes) = totals(&rows);
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

    fn entry_path(&self, exact: &str) -> Option<PathBuf> {
        let dir = self.disk_dir.as_ref()?;
        Some(dir.join(Self::fingerprint()).join(entry_slug(exact)))
    }

    /// Snapshot the hit/miss counters.
    pub fn stats(&self) -> SweepStats {
        SweepStats {
            memory_hits: self.counters.memory_hits.load(Ordering::Relaxed),
            disk_hits: self.counters.disk_hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            // Not `sum()`: an empty f64 sum is -0.0, printed as `-0.0 s`.
            sim_seconds: self.simulated_seconds().iter().fold(0.0, |a, s| a + s),
        }
    }

    /// Warm the cache for `jobs` using every available core. Cache hits
    /// cost nothing, so callers list everything a report needs without
    /// worrying about overlap with earlier reports.
    pub fn prefetch(&self, jobs: &[Key]) {
        let workers = std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get)
            .min(jobs.len().max(1));
        if workers <= 1 {
            for (bench, design, gpu) in jobs {
                self.run(bench, *design, *gpu);
            }
            return;
        }
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some((bench, design, gpu)) = jobs.get(i) else {
                        break;
                    };
                    self.run(bench, *design, *gpu);
                });
            }
        });
    }
}

/// A cache fingerprint directory: its name and path, and the entry count
/// and byte size of the files it holds.
type FingerprintDir = (String, PathBuf, usize, u64);

/// Total `(entries, bytes)` of `dirs`.
fn totals(dirs: &[FingerprintDir]) -> (u64, u64) {
    dirs.iter()
        .fold((0, 0), |(e, b), d| (e + d.2 as u64, b + d.3))
}

/// The process-wide engine (mode and cache directory from the
/// environment; see the module docs).
pub fn engine() -> &'static SweepEngine {
    static ENGINE: OnceLock<SweepEngine> = OnceLock::new();
    ENGINE.get_or_init(SweepEngine::from_env)
}

/// [`engine`]'s memoized [`crate::run_design`]: `design` on the
/// evaluation machine.
pub fn design(bench: &str, design: DesignKind) -> Arc<RunReport> {
    engine().run(bench, design, eval_gpu())
}

/// Warm [`engine`] with every Rodinia kernel under the baseline and the
/// paper's RegLess design point: the runs the headline summary and the
/// per-benchmark profiles tabulate.
pub fn prefetch_headline() {
    let jobs: Vec<Key> = rodinia::NAMES
        .iter()
        .flat_map(|name| {
            let bench = rodinia_id(name);
            [
                (bench.clone(), DesignKind::Baseline, eval_gpu()),
                (bench, DesignKind::regless_512(), eval_gpu()),
            ]
        })
        .collect();
    engine().prefetch(&jobs);
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
fn entry_slug(exact: &str) -> String {
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
fn load_entry(path: &Path, exact: &str) -> Option<RunReport> {
    let text = std::fs::read_to_string(path).ok()?;
    let json = regless_json::Json::parse(&text).ok()?;
    let stored: String = regless_json::FromJson::from_json(json.field("key").ok()?).ok()?;
    if stored != exact {
        return None;
    }
    regless_json::FromJson::from_json(json.field("report").ok()?).ok()
}

/// Best-effort write of a report (cache persistence must never fail an
/// experiment, so I/O errors only warn).
fn store_entry(path: &Path, exact: &str, report: &RunReport) {
    let entry = regless_json::Json::Obj(vec![
        ("key".into(), regless_json::Json::Str(exact.to_string())),
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
    use regless_baselines::Throttle;
    use regless_sim::SchedulerKind;

    #[test]
    fn equal_runs_are_equal_keys() {
        let engine = SweepEngine::with_config(None, SweepMode::Normal);
        let nn = rodinia_id("nn");
        let eval = eval_gpu();
        engine.run(&nn, DesignKind::Baseline, eval);
        engine.run(&nn, DesignKind::regless_512(), eval);
        // The scheduler study's GTO point and the issue-width study's
        // single-issue point are the evaluation machine itself.
        let gto = GpuConfig {
            scheduler: SchedulerKind::Gto,
            ..eval
        };
        let single = GpuConfig {
            issue_slots_per_scheduler: 1,
            ..eval
        };
        engine.run(&nn, DesignKind::Baseline, gto);
        engine.run(&nn, DesignKind::regless_512(), single);
        let s = engine.stats();
        assert_eq!((s.misses, s.memory_hits), (2, 2));

        // Other machines and the §7 occupancy-limited RF key apart.
        let mut keys = vec![run_key(&nn, DesignKind::Baseline, eval)];
        for (design, gpu) in [
            (
                DesignKind::Baseline,
                GpuConfig {
                    scheduler: SchedulerKind::Lrr,
                    ..eval
                },
            ),
            (
                DesignKind::Baseline,
                GpuConfig {
                    scheduler: SchedulerKind::TwoLevel {
                        active_per_scheduler: 4,
                    },
                    ..eval
                },
            ),
            (
                DesignKind::Baseline,
                GpuConfig {
                    issue_slots_per_scheduler: 2,
                    ..eval
                },
            ),
            (DesignKind::Throttled(Throttle::Occupancy), eval),
        ] {
            assert!(engine.lookup(&nn, design, gpu).is_none(), "{design:?}");
            let key = run_key(&nn, design, gpu);
            assert!(!keys.contains(&key), "{design:?} keys apart");
            keys.push(key);
        }
        assert_eq!(engine.stats().misses, 2);

        // Keys and logs name the machine only when it is not the
        // evaluation one.
        assert_eq!(
            run_key(&nn, DesignKind::Baseline, gto),
            "rodinia/nn|baseline"
        );
        assert_eq!(
            run_key(&nn, DesignKind::Throttled(Throttle::Occupancy), eval),
            "rodinia/nn|baseline:throttle=occupancy"
        );
        let lrr = GpuConfig {
            scheduler: SchedulerKind::Lrr,
            ..eval
        };
        assert_eq!(
            run_key(&nn, DesignKind::Baseline, lrr),
            "rodinia/nn|baseline|scheduler=Lrr"
        );
        let dual_lrr = GpuConfig {
            issue_slots_per_scheduler: 2,
            ..lrr
        };
        assert_eq!(
            run_key(&nn, DesignKind::Baseline, dual_lrr),
            "rodinia/nn|baseline|issue_slots_per_scheduler=2|scheduler=Lrr"
        );
    }

    #[test]
    fn slug_is_filename_safe_and_key_exact() {
        let a = entry_slug(&run_key(
            "rodinia/bfs",
            DesignKind::regless_512(),
            eval_gpu(),
        ));
        let b = entry_slug(&run_key("rodinia/bfs", DesignKind::Baseline, eval_gpu()));
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
        let key = (DesignKind::Baseline, eval_gpu());

        let cold = SweepEngine::with_config(Some(dir.clone()), SweepMode::Normal);
        let first = cold.run(&bench, key.0, key.1);
        let again = cold.run(&bench, key.0, key.1);
        assert!(
            Arc::ptr_eq(&first, &again),
            "second call must be the memoized report"
        );
        let s = cold.stats();
        assert_eq!((s.misses, s.memory_hits, s.disk_hits), (1, 1, 0));
        // The entry is named by its run key's slug.
        let slug = entry_slug(&run_key(&bench, key.0, key.1));
        assert!(dir.join(SweepEngine::fingerprint()).join(slug).exists());

        // A fresh engine over the same directory must replay from disk and
        // reproduce the simulated numbers exactly.
        let warm = SweepEngine::with_config(Some(dir.clone()), SweepMode::Normal);
        let replayed = warm.run(&bench, key.0, key.1);
        let s = warm.stats();
        assert_eq!((s.misses, s.disk_hits), (0, 1));
        assert_eq!(replayed.cycles, first.cycles);
        assert_eq!(replayed.sm_stats[0].rf_reads, first.sm_stats[0].rf_reads);
        assert_eq!(replayed.mem, first.mem);
        assert_eq!(replayed.warp_insns, first.warp_insns);

        // Cold mode ignores the entry and simulates again.
        let forced = SweepEngine::with_config(Some(dir.clone()), SweepMode::Cold);
        let re = forced.run(&bench, key.0, key.1);
        assert_eq!(forced.stats().misses, 1);
        assert_eq!(re.cycles, first.cycles);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn timing_table_marks_warm_hits_cached() {
        let engine = SweepEngine::with_config(None, SweepMode::Normal);
        let bench = rodinia_id("nn");
        engine.run(&bench, DesignKind::Baseline, eval_gpu());
        engine.run(&bench, DesignKind::Baseline, eval_gpu());

        {
            let log = engine.records.lock().unwrap();
            assert_eq!(log.len(), 2);
            assert_eq!(log[0].source, RunSource::Simulated);
            assert_eq!(log[1].source, RunSource::MemoryCache);
        }

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
        let engine = SweepEngine::with_config(Some(dir.clone()), SweepMode::Normal);
        let report = engine.run(&bench, DesignKind::Baseline, eval_gpu());
        let exact = run_key(&bench, DesignKind::Baseline, eval_gpu());
        let path = engine.entry_path(&exact).unwrap();

        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| store_entry(&path, &exact, &report));
            }
        });

        let entries: Vec<String> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(entries.len(), 1, "no temp files survive: {entries:?}");
        let replayed = load_entry(&path, &exact).expect("entry parses");
        assert_eq!(replayed.cycles, report.cycles);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn payload_texts_are_rendered_once_for_their_labels() {
        let report = Arc::new(crate::run_design(
            &bench_kernel(&rodinia_id("nn")).unwrap(),
            DesignKind::regless_512(),
        ));
        let run = CachedRun::new(Arc::clone(&report));
        let profile = |kernel: &str, design: &str, capacity: usize| {
            let p = crate::profile::ProfileReport::collect(&report, kernel, design, capacity);
            regless_json::ToJson::to_json(&p).to_string_compact()
        };
        let summary = |kernel: &str, design: &str, capacity: usize| {
            let s = crate::report::collect(&report, kernel, design, capacity).summary();
            regless_json::ToJson::to_json(&s).to_string_compact()
        };
        // The labels are the rendered point and its capacity.
        let design = DesignKind::regless_512();
        let first = run.profile_text("nn", design);
        assert_eq!(*first, *profile("nn", "regless", 512));
        assert!(Arc::ptr_eq(&run.profile_text("nn", design), &first));

        let first = run.summary_text("nn", design);
        assert_eq!(*first, *summary("nn", "regless", 512));
        assert!(Arc::ptr_eq(&run.summary_text("nn", design), &first));
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
        let (design, gpu) = (DesignKind::Baseline, eval_gpu());

        let writer = SweepEngine::with_config(Some(dir.clone()), SweepMode::Normal);
        assert!(writer.lookup(&bench, design, gpu).is_none(), "cold cache");
        let report = Arc::new(crate::run_design(&bench_kernel(&bench).unwrap(), design));
        writer.insert(&bench, design, gpu, Arc::clone(&report));
        let hit = writer.lookup(&bench, design, gpu).expect("memoized");
        assert!(Arc::ptr_eq(&hit.report, &report));

        // The compact report text is rendered once and shared by every
        // later lookup of the key.
        let text = hit.stable_text();
        assert_eq!(*text, *report.stable_json().to_string_compact());
        let again = writer.lookup(&bench, design, gpu).expect("memoized");
        assert!(Arc::ptr_eq(&again, &hit));
        assert!(Arc::ptr_eq(&again.stable_text(), &text));

        // A fresh engine over the same directory replays the inserted
        // entry from disk; lookup never runs the simulator.
        let reader = SweepEngine::with_config(Some(dir.clone()), SweepMode::Normal);
        let replayed = reader.lookup(&bench, design, gpu).expect("disk replay");
        assert_eq!(replayed.cycles, report.cycles);
        let s = reader.stats();
        assert_eq!((s.misses, s.disk_hits), (0, 1));

        // Off mode: lookup and insert are inert.
        let off = SweepEngine::with_config(Some(dir.clone()), SweepMode::Off);
        assert!(off.lookup(&bench, design, gpu).is_none());
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
    fn prefetch_covers_all_jobs() {
        let engine = SweepEngine::with_config(None, SweepMode::Normal);
        let job = (rodinia_id("nn"), DesignKind::Baseline, eval_gpu());
        engine.prefetch(&[job.clone(), job]);
        let s = engine.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.memory_hits + s.disk_hits + s.misses, 2);
    }
}
