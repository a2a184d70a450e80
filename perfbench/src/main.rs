//! `perfbench`: a host-calibrated benchmark of the `regless` CLI and the
//! `regless serve` JSONL protocol. See `README.md` next to this package
//! for the workloads, the metrics and the calibration method.
//!
//! ```text
//! perfbench --workload <sim-matrix|capacity-sweep|serve-warm> --seed <n>
//!           --seconds <s> --trace <0|1> --regless <path to the regless binary>
//! ```
//!
//! The last line of stdout is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. The traced run also writes a Chrome
//! trace to `.bench_trace/<workload>-seed<n>.json`.

mod calib;
mod cli;
mod inputs;
mod layers;
mod serve;
mod stats;
mod sys;
mod trace;

use calib::{Calibrator, Sample};
use cli::{group_agrees, parse_run_output, Cli, RunOutput};
use inputs::{CliOp, Kind, Plan, Workload, CAPACITIES, DEFAULT_CAPACITY, DESIGNS};
use regless_json::Json;
use serve::{check_reply, request_line, stat, Expected, Server};
use std::collections::BTreeMap;
use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::{Tracer, ROOT};

/// Set-ups per untraced run; `setup_s` is their median. The CLI
/// workloads' set-up takes milliseconds, so it repeats more often than
/// `serve-warm`'s, which simulates every served point.
const SETUP_REPS_CLI: usize = 7;
const SETUP_REPS_SERVE: usize = 3;

/// Serve requests between two calibration slices (about 50 ms of work).
const SERVE_BLOCK: usize = 200;

/// `regless designs` invocations behind `cli.startup_ms`.
const STARTUP_PROBES: usize = 20;

/// `--seconds` of the small serve session the CLI workloads' traced runs
/// use for the serve-layer metrics.
const SERVE_PROBE_SECONDS: f64 = 0.25;

/// Traced serve requests whose spans go into the trace file (the metrics
/// use every request); keeps the file at a few MB.
const SERVE_SPANS_KEPT: usize = 2000;

/// Failures described on stderr before going quiet.
const FAILURES_SHOWN: u64 = 10;

/// End-to-end metrics and their units, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("sim_cycles", "cycles"),
    ("peak_rss_mb", "MiB"),
    ("success_rate", "ratio"),
];

/// Run-loop phases `--self-profile-out` reports.
const PHASES: [&str; 5] = [
    "issue",
    "backend_tick",
    "writeback",
    "stats_windows",
    "event_jump",
];

/// The closed stall taxonomy of `regless report`.
const STALLS: [&str; 9] = [
    "issued",
    "data_hazard",
    "cm_preload_wait",
    "osu_capacity_wait",
    "l1_port_busy",
    "mshr_full",
    "barrier",
    "drain",
    "no_warp",
];

/// The closed eviction taxonomy of `regless report`.
const EVICTIONS: [&str; 4] = [
    "capacity_preemption",
    "compressor_spill",
    "region_drain",
    "dead_value_reclaim",
];

/// Operand preload sources.
const PRELOADS: [&str; 4] = ["osu", "compressor", "l1", "l2_dram"];

/// Server spans returned inline for traced requests.
const SERVE_SPANS: [&str; 4] = ["admission", "cache", "queue", "serialize"];

/// Every per-layer metric and its unit, in `BENCHMARK.json` order.
fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = vec![
        ("host.calib_ms".into(), "ms"),
        ("host.calib_iqr_pct".into(), "%"),
        ("host.raw_wall_s".into(), "s"),
        ("host.trace_overhead_pct".into(), "%"),
        ("cli.startup_ms".into(), "ms"),
    ];
    for (layer, step) in layers::STEPS {
        v.push((format!("{layer}.{step}_us"), "us"));
    }
    v.push(("compiler.regions".into(), "count"));
    for d in DESIGNS {
        v.push((format!("sim.{d}.run_ms"), "ms"));
        v.push((format!("sim.{d}.mcycles_per_s"), "Mcycles/s"));
    }
    for p in PHASES {
        v.push((format!("sim.phase.{p}_pct"), "%"));
    }
    for e in EVICTIONS {
        v.push((format!("core.evict.{e}"), "count"));
    }
    for p in PRELOADS {
        v.push((format!("core.preload.{p}"), "count"));
    }
    v.push(("core.compressor.hit_ratio".into(), "ratio"));
    for s in STALLS {
        v.push((format!("core.stall.{s}_share"), "ratio"));
    }
    v.push(("energy.regless_vs_baseline".into(), "ratio"));
    for k in Kind::ALL {
        v.push((format!("serve.rpc_us.{}", k.as_str()), "us"));
    }
    for s in SERVE_SPANS {
        v.push((format!("serve.span.{s}_us"), "us"));
    }
    for k in Kind::ALL {
        v.push((format!("serve.response_bytes.{}", k.as_str()), "B"));
    }
    v.push(("serve.cache_hit_ratio".into(), "ratio"));
    for c in ["coalesced", "queue_full", "timeouts", "panics"] {
        v.push((format!("serve.{c}"), "count"));
    }
    v.push(("json.parse_us".into(), "us"));
    v
}

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    regless: PathBuf,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" | "--regless" => {
                kv.insert(flag, value);
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    let get = |k: &str| kv.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let workload_name = get("--workload")?.to_string();
    let workload = Workload::parse(&workload_name).ok_or_else(|| {
        format!("unknown workload {workload_name:?} (sim-matrix|capacity-sweep|serve-warm)")
    })?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        workload_name,
        seed,
        seconds,
        trace,
        regless: PathBuf::from(get("--regless")?),
    })
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match Bench::new(args).and_then(Bench::run) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// A scratch directory inside the checkout, removed when dropped.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Succeeds only once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// One CLI op as run: its time, the checked output and, for a traced run
/// of a design that self-profiles, its phase times in µs.
struct CliRecord {
    op: CliOp,
    t: Sample,
    out: Option<RunOutput>,
    phases: Vec<(String, f64)>,
}

/// A request id and its wire line.
type RequestLine = (u64, String);

/// One served request as run.
struct ServeRecord {
    kind: Kind,
    t: Sample,
    bytes: usize,
    cycles: u64,
}

/// What a serve session measured.
#[derive(Default)]
struct ServeSession {
    untraced: Vec<ServeRecord>,
    traced: Vec<ServeRecord>,
    /// Time of each reply parse.
    parse: Vec<Sample>,
    cache_hit_ratio: f64,
    counters: [u64; 4],
    peak_rss_kib: u64,
}

/// Ops attempted and failed. Every timed op goes through `check`, so a
/// failed output check always lowers `success_rate` and clears `correct`.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Count one op whose checked result is `r`; its value if it passed.
    fn check<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(what, &e);
                None
            }
        }
    }

    /// Count a failure of an op already attempted.
    fn fail(&mut self, what: &str, why: &str) {
        self.failed += 1;
        if self.failed <= FAILURES_SHOWN {
            eprintln!("perfbench: FAILED {what}: {why}");
        }
    }

    fn success_rate(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }
}

struct Bench {
    args: Args,
    cli: Cli,
    cal: Calibrator,
    work: WorkDir,
    tracer: Option<Tracer>,
    tally: Tally,
    next_id: u64,
    /// Whether each design accepts `--self-profile-out`.
    self_profiles: BTreeMap<&'static str, bool>,
    /// Durations of every server span seen, by span name.
    span_us: BTreeMap<String, Vec<Sample>>,
}

impl Bench {
    fn new(args: Args) -> Result<Bench, String> {
        if !args.regless.is_file() {
            return Err(format!("no regless binary at {}", args.regless.display()));
        }
        let work = PathBuf::from(".bench_work").join(format!(
            "{}-{}-{}",
            args.workload_name,
            args.seed,
            std::process::id()
        ));
        std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
        let tracer = args.trace.then(|| Tracer::new(&args.workload_name));
        Ok(Bench {
            cli: Cli::new(args.regless.clone()),
            cal: Calibrator::new(),
            work: WorkDir(work),
            tracer,
            tally: Tally::default(),
            next_id: 1,
            self_profiles: BTreeMap::new(),
            span_us: BTreeMap::new(),
            args,
        })
    }

    fn span(
        &mut self,
        parent: u64,
        name: &str,
        layer: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        match self.tracer.as_mut() {
            Some(t) => t.record(parent, name, layer, start, end),
            None => 0,
        }
    }

    fn run(mut self) -> Result<String, String> {
        let (setup_s, plan, files, mut server) = self.setup()?;
        println!("op_digest {:016x}", plan.digest());
        let metrics = if self.args.trace {
            self.traced(&plan, &files, server.as_mut())?
        } else {
            self.untraced(&plan, &files, server.as_mut(), setup_s)?
        };
        if let Some((s, _)) = server {
            s.shutdown()?;
        }
        if let Some(t) = self.tracer.take() {
            let dir = PathBuf::from(".bench_trace");
            std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
            let path = dir.join(format!(
                "{}-seed{}.json",
                self.args.workload_name, self.args.seed
            ));
            std::fs::write(&path, trace::chrome_json(&t.finish()))
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            println!("trace_file {}", path.display());
        }
        Ok(result_line(&self.tally, &metrics))
    }

    /// Generate the inputs, write them, check the registry and, on
    /// `serve-warm`, start a server and prefill every point. Untraced runs
    /// set up several times and keep the last; returns the calibrated
    /// seconds of each.
    #[allow(clippy::type_complexity)]
    fn setup(
        &mut self,
    ) -> Result<
        (
            Vec<f64>,
            Plan,
            Vec<PathBuf>,
            Option<(Server, Vec<Expected>)>,
        ),
        String,
    > {
        let reps = match (self.args.trace, self.args.workload) {
            (true, _) => 1,
            (false, Workload::ServeWarm) => SETUP_REPS_SERVE,
            (false, _) => SETUP_REPS_CLI,
        };
        let mut times = Vec::new();
        let mut kept: Option<(Plan, Vec<PathBuf>, Option<(Server, Vec<Expected>)>)> = None;
        for rep in 0..reps {
            if let Some((_, _, Some((old, _)))) = kept.take() {
                old.shutdown()?;
            }
            let start = Instant::now();
            let (w, seed, seconds) = (self.args.workload, self.args.seed, self.args.seconds);
            let work = self.work.0.clone();
            let cli = &self.cli;
            let b = self.cal.bracket(|| -> Result<_, String> {
                let plan = Plan::build(w, seed, seconds);
                let mut files = Vec::new();
                for k in &plan.kernels {
                    let path = work.join(k.file_name());
                    std::fs::write(&path, &k.asm)
                        .map_err(|e| format!("write {}: {e}", path.display()))?;
                    files.push(path);
                }
                check_registry(cli)?;
                Ok((plan, files))
            });
            let mut elapsed = b.total().cal();
            let (plan, files) = b.value?;
            let server = if w == Workload::ServeWarm {
                let (prefill, server) = self.start_and_prefill(&plan, rep)?;
                elapsed += prefill;
                Some(server)
            } else {
                None
            };
            self.span(ROOT, "setup", "bench", start, Instant::now());
            times.push(elapsed);
            kept = Some((plan, files, server));
        }
        let (plan, files, server) = kept.expect("at least one set-up");
        Ok((times, plan, files, server))
    }

    /// Start a server with a fresh cache and submit every point once; the
    /// replies become the expected results. The start and each prefill
    /// request are bracketed on their own: one bracket around seconds of
    /// simulation let `setup_s` swing by 20% between runs. Returns the
    /// calibrated seconds of the whole.
    fn start_and_prefill(
        &mut self,
        plan: &Plan,
        rep: usize,
    ) -> Result<(f64, (Server, Vec<Expected>)), String> {
        let cache = self.work.0.join(format!("cache-{rep}"));
        let traced = self.tracer.is_some();
        let lines: Vec<(u64, String)> = plan
            .points
            .iter()
            .map(|p| {
                let id = self.fresh_id();
                let tid = traced.then(|| trace_id(self.args.seed, id));
                (
                    id,
                    request_line(id, Kind::Run, &plan.point_kernel_id(p), p.design, tid),
                )
            })
            .collect();
        let cli = &self.cli;
        let b = self.cal.bracket(|| Server::start(cli, &cache));
        let mut elapsed = b.total().cal();
        let mut server = b.value?;
        let mut expected = Vec::new();
        for (id, line) in &lines {
            let start = Instant::now();
            let b = self.cal.bracket(|| server.roundtrip(line));
            let end = start + std::time::Duration::from_secs_f64(b.raw_s);
            elapsed += b.total().cal();
            let reply = b.value?;
            let r = check_reply(&reply, *id, Kind::Run, None).map_err(|e| {
                format!(
                    "prefill of {}: {e}",
                    reply.chars().take(200).collect::<String>()
                )
            })?;
            let span = self.span(ROOT, "prefill", "serve", start, end);
            self.server_spans(Some(span), &r.spans, b.calib_s);
            expected.push(Expected {
                cycles: r.cycles,
                report: r.report.expect("run replies carry a report"),
            });
        }
        Ok((elapsed, (server, expected)))
    }

    fn accepts_self_profile(&self, design: &str) -> bool {
        self.self_profiles.get(design).copied().unwrap_or(false)
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Collect a traced reply's server span durations by name and, with a
    /// `parent`, attach the spans to it in the trace.
    fn server_spans(&mut self, parent: Option<u64>, spans: &[serve::WireSpan], calib_s: f64) {
        for s in spans {
            if let (Some(t), Some(parent)) = (self.tracer.as_mut(), parent) {
                t.record_epoch(parent, &s.name, "serve", s.start_us, s.dur_us);
            }
            let raw_s = s.dur_us as f64 / 1e6;
            self.span_us
                .entry(s.name.clone())
                .or_default()
                .push(Sample { raw_s, calib_s });
        }
    }

    /// The untraced run: end-to-end metrics only.
    fn untraced(
        &mut self,
        plan: &Plan,
        files: &[PathBuf],
        server: Option<&mut (Server, Vec<Expected>)>,
        setup_s: Vec<f64>,
    ) -> Result<Vec<(String, f64, &'static str)>, String> {
        // Per-op cycles in op order (0 for a failed op).
        let (times, per_op, peak_kib): (Vec<Sample>, Vec<u64>, u64) = match server {
            None => {
                let (records, _) = self.run_cli_ops(plan, files, &plan.cli_ops, false)?;
                let cycles = records
                    .iter()
                    .map(|r| r.out.as_ref().map_or(0, |o| o.cycles))
                    .collect();
                (records.iter().map(|r| r.t).collect(), cycles, 0)
            }
            Some((server, expected)) => {
                let s = self.serve_session(server, plan, expected, false)?;
                let times = s.untraced.iter().map(|r| r.t).collect();
                let cycles = s.untraced.iter().map(|r| r.cycles).collect();
                (times, cycles, s.peak_rss_kib)
            }
        };
        // The modelled result is exact: the same seed must print the same
        // digest on any build that does not change the model.
        println!("cycles_digest {:016x}", cycles_digest(&per_op));
        let cycles: u64 = per_op.iter().sum();
        let lats: Vec<f64> = times.iter().map(|&t| t.cal()).collect();
        let wall_s: f64 = lats.iter().sum();
        let raw_wall_s: f64 = times.iter().map(|t| t.raw_s).sum();
        eprintln!(
            "perfbench: raw wall {raw_wall_s:.3} s, calibration slice median {:.2} ms",
            1e3 * stats::median(self.cal.slices())
        );
        let peak_kib = peak_kib.max(sys::children_max_rss_kib().ok_or("getrusage failed")?);
        let values = [
            stats::median(&setup_s),
            wall_s,
            lats.len() as f64 / wall_s,
            1e3 * stats::band_quantile(&lats, 0.5),
            1e3 * stats::band_quantile(&lats, 0.9),
            cycles as f64 / wall_s / 1e6,
            cycles as f64,
            peak_kib as f64 / 1024.0,
            self.tally.success_rate(),
        ];
        Ok(END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name.to_string(), v, unit))
            .collect())
    }

    /// Run CLI ops, each bracketed by calibration slices. With tracing,
    /// each op runs twice back to back: untraced (the comparison for the
    /// trace overhead) and traced (`--self-profile-out` where the design
    /// accepts it). Returns (untraced, traced) records.
    fn run_cli_ops(
        &mut self,
        plan: &Plan,
        files: &[PathBuf],
        ops: &[CliOp],
        traced: bool,
    ) -> Result<(Vec<CliRecord>, Vec<CliRecord>), String> {
        let mut untraced = Vec::new();
        let mut traced_records = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            let file = &files[op.kernel];
            let plain = cli_run_args(file, op, None);
            let profile_out = self.work.0.join(format!("selfprof-{i}.json"));
            let profiled = cli_run_args(
                file,
                op,
                self.accepts_self_profile(op.design)
                    .then_some(profile_out.as_path()),
            );
            let cli = &self.cli;
            let b = self
                .cal
                .bracket(|| timed_pair(i, traced, |t| cli.run(if t { &profiled } else { &plain })));
            let calib_s = b.calib_s;
            let ((u, u_span), traced_run) = b.value;
            let (t0, t1) = u_span;
            let name = plan.kernels[op.kernel].name();
            let what = format!(
                "regless run {name} --design {} --capacity {}",
                op.design,
                op.effective_capacity()
            );
            let out = self.tally.check(
                &what,
                u.and_then(|text| parse_run_output(&text, name, op.design)),
            );
            let (s0, s1) = traced_run
                .as_ref()
                .map_or(u_span, |(_, (a, b))| (t0.min(*a), t1.max(*b)));
            let op_span = self.span(ROOT, &format!("op {name} {}", op.design), "bench", s0, s1);
            if let Some(tr) = self.tracer.as_mut() {
                tr.arg(op_span, "capacity", op.effective_capacity());
            }
            untraced.push(CliRecord {
                op: *op,
                t: Sample {
                    raw_s: (t1 - t0).as_secs_f64(),
                    calib_s,
                },
                out,
                phases: Vec::new(),
            });
            let Some((t, (t1, t2))) = traced_run else {
                continue;
            };
            self.span(op_span, "cli.run untraced", "bench", t0, u_span.1);
            let cli_span = self.span(op_span, "cli.run", "cli", t1, t2);
            let checked = t
                .and_then(|text| parse_run_output(&text, name, op.design))
                .and_then(|o| match &untraced.last().expect("just pushed").out {
                    Some(u) if u.cycles != o.cycles || u.insns != o.insns => {
                        Err("self-profiled run differs from the plain run".to_string())
                    }
                    _ => Ok(o),
                });
            let out = self.tally.check(&format!("{what} (traced)"), checked);
            let phases = if self.accepts_self_profile(op.design) {
                let phases = read_phases(&profile_out);
                let _ = std::fs::remove_file(&profile_out);
                phases
            } else {
                Vec::new()
            };
            if let Some(tr) = self.tracer.as_mut() {
                let mut offset = tr.start_of(cli_span);
                for (phase, us) in &phases {
                    tr.push(cli_span, &format!("sim.{phase}"), "sim", offset, *us);
                    offset += us;
                }
            }
            traced_records.push(CliRecord {
                op: *op,
                t: Sample {
                    raw_s: (t2 - t1).as_secs_f64(),
                    calib_s,
                },
                out,
                phases,
            });
        }
        check_groups(&mut self.tally, plan, &mut untraced);
        Ok((untraced, traced_records))
    }

    /// Send a serve workload's requests over the server's connection in
    /// calibrated blocks. With tracing, each request is sent twice back to
    /// back, untraced and with a `trace_id`.
    fn serve_session(
        &mut self,
        server: &mut Server,
        plan: &Plan,
        expected: &[Expected],
        traced: bool,
    ) -> Result<ServeSession, String> {
        let mut session = ServeSession::default();
        let before = server.stats()?;
        for block in plan.serve_ops.chunks(SERVE_BLOCK) {
            let lines: Vec<(RequestLine, Option<RequestLine>)> = block
                .iter()
                .map(|op| {
                    let p = &plan.points[op.point];
                    let kernel = plan.point_kernel_id(p);
                    let id = self.fresh_id();
                    let plain = request_line(id, op.kind, &kernel, p.design, None);
                    let traced_line = traced.then(|| {
                        let tid = self.fresh_id();
                        (
                            tid,
                            request_line(
                                tid,
                                op.kind,
                                &kernel,
                                p.design,
                                Some(trace_id(self.args.seed, tid)),
                            ),
                        )
                    });
                    ((id, plain), traced_line)
                })
                .collect();
            let b = self.cal.bracket(|| {
                let mut replies = Vec::with_capacity(lines.len());
                for (i, ((_, plain), traced_line)) in lines.iter().enumerate() {
                    replies.push(timed_pair(i, traced, |t| match (t, traced_line) {
                        (true, Some((_, line))) => server.roundtrip(line),
                        _ => server.roundtrip(plain),
                    }));
                }
                replies
            });
            let calib_s = b.calib_s;
            for ((op, ((id, _), traced_line)), ((u, (t0, t1)), traced_reply)) in
                block.iter().zip(&lines).zip(b.value)
            {
                let p = &plan.points[op.point];
                let what = format!(
                    "{} {} {}",
                    op.kind.as_str(),
                    plan.point_kernel_id(p),
                    p.design
                );
                let exp = &expected[op.point];
                let sample = Sample {
                    raw_s: (t1 - t0).as_secs_f64(),
                    calib_s,
                };
                if let Some(r) = check_served(&mut self.tally, &what, u, *id, op.kind, exp, sample)
                {
                    session.untraced.push(r);
                }
                let (Some((t, (t1, t2))), Some((tid, _))) = (traced_reply, traced_line) else {
                    continue;
                };
                let traced_what = format!("{what} (traced)");
                let Some(line) = self.tally.check(&traced_what, t) else {
                    continue;
                };
                // json.parse_us: the harness's parse of a traced reply.
                let p0 = Instant::now();
                std::hint::black_box(Json::parse(&line).ok());
                session.parse.push(Sample {
                    raw_s: p0.elapsed().as_secs_f64(),
                    calib_s,
                });
                match check_reply(&line, *tid, op.kind, Some(exp)) {
                    Ok(r) => {
                        let span = (session.traced.len() < SERVE_SPANS_KEPT)
                            .then(|| self.span(ROOT, &format!("rpc {what}"), "serve", t1, t2));
                        self.server_spans(span, &r.spans, calib_s);
                        session.traced.push(ServeRecord {
                            kind: op.kind,
                            t: Sample {
                                raw_s: (t2 - t1).as_secs_f64(),
                                calib_s,
                            },
                            bytes: line.len(),
                            cycles: r.cycles,
                        });
                    }
                    Err(e) => self.tally.fail(&traced_what, &e),
                }
            }
        }
        let after = server.stats()?;
        let delta = |k: &str| stat(&after, k).saturating_sub(stat(&before, k));
        session.cache_hit_ratio = delta("cache_hits") as f64 / delta("submitted").max(1) as f64;
        session.counters =
            ["coalesce_hits", "rejected_queue_full", "timeouts", "panics"].map(|k| stat(&after, k));
        session.peak_rss_kib = server
            .vm_hwm_kib()
            .ok_or("cannot read the server's VmHWM")?;
        Ok(session)
    }

    /// The traced run: every op untraced and traced, then the layer
    /// probes; per-layer metrics only.
    fn traced(
        &mut self,
        plan: &Plan,
        files: &[PathBuf],
        server: Option<&mut (Server, Vec<Expected>)>,
    ) -> Result<Vec<(String, f64, &'static str)>, String> {
        self.probe_self_profile()?;

        // The workload's own ops, paired.
        let (mut untraced, mut traced, serve) = match server {
            None => {
                let (u, t) = self.run_cli_ops(plan, files, &plan.cli_ops, true)?;
                (u, t, None)
            }
            Some((server, expected)) => {
                let s = self.serve_session(server, plan, expected, true)?;
                (Vec::new(), Vec::new(), Some(s))
            }
        };
        let (pairs_untraced, pairs_traced): (Vec<Sample>, Vec<Sample>) = match &serve {
            None => (
                untraced.iter().map(|r| r.t).collect(),
                traced.iter().map(|r| r.t).collect(),
            ),
            Some(s) => (
                s.untraced.iter().map(|r| r.t).collect(),
                s.traced.iter().map(|r| r.t).collect(),
            ),
        };

        // Designs the workload did not run: one probe each on kernel 0.
        let missing: Vec<CliOp> = DESIGNS
            .iter()
            .filter(|d| !untraced.iter().any(|r| r.op.design == **d))
            .map(|&design| CliOp {
                kernel: 0,
                design,
                capacity: None,
            })
            .collect();
        let (u, t) = self.run_cli_ops(plan, files, &missing, true)?;
        untraced.extend(u);
        traced.extend(t);
        let (layer_times, regions) = self.probe_layers(plan)?;
        let startup = self.probe_startup();
        let mut m = self.probe_core(plan, files);
        let serve = match serve {
            Some(s) => s,
            None => self.probe_serve()?,
        };
        let cal = &self.cal;
        let total = |v: &[Sample]| v.iter().map(|&t| t.cal()).sum::<f64>();
        m.insert(
            "host.raw_wall_s".into(),
            pairs_untraced.iter().map(|t| t.raw_s).sum(),
        );
        m.insert(
            "host.trace_overhead_pct".into(),
            100.0 * (total(&pairs_traced) / total(&pairs_untraced) - 1.0),
        );
        m.insert("host.calib_ms".into(), 1e3 * stats::median(cal.slices()));
        m.insert("host.calib_iqr_pct".into(), stats::iqr_pct(cal.slices()));
        let ms: Vec<f64> = startup.iter().map(|&t| 1e3 * t.cal()).collect();
        m.insert("cli.startup_ms".into(), stats::median(&ms));
        for ((layer, step), times) in layers::STEPS.iter().zip(&layer_times) {
            let us: Vec<f64> = times.iter().map(|&t| 1e6 * t.cal()).collect();
            m.insert(format!("{layer}.{step}_us"), stats::mean(&us));
        }
        m.insert("compiler.regions".into(), regions as f64);
        for d in DESIGNS {
            let ok: Vec<&CliRecord> = untraced
                .iter()
                .filter(|r| r.op.design == d && r.out.is_some())
                .collect();
            let lats: Vec<f64> = ok.iter().map(|r| r.t.cal()).collect();
            let cycles: u64 = ok
                .iter()
                .filter_map(|r| r.out.as_ref())
                .map(|o| o.cycles)
                .sum();
            m.insert(format!("sim.{d}.run_ms"), 1e3 * stats::median(&lats));
            m.insert(
                format!("sim.{d}.mcycles_per_s"),
                cycles as f64 / lats.iter().sum::<f64>() / 1e6,
            );
        }
        let mut phase_us: BTreeMap<&str, f64> = BTreeMap::new();
        for r in &traced {
            for (p, us) in &r.phases {
                *phase_us.entry(p.as_str()).or_default() += us;
            }
        }
        let phase_total: f64 = phase_us.values().sum();
        for p in PHASES {
            let share = phase_us.get(p).copied().unwrap_or(0.0) / phase_total;
            m.insert(format!("sim.phase.{p}_pct"), 100.0 * share);
        }
        m.insert("energy.regless_vs_baseline".into(), energy_ratio(&untraced));
        serve_metrics(&serve, &self.span_us, &mut m);
        per_layer_names()
            .into_iter()
            .map(|(name, unit)| {
                let v = m
                    .remove(&name)
                    .ok_or_else(|| format!("metric {name} was not measured"))?;
                Ok((name, v, unit))
            })
            .collect()
    }

    /// Which designs accept `--self-profile-out`, found by asking each on a
    /// one-iteration kernel.
    fn probe_self_profile(&mut self) -> Result<(), String> {
        let profile = regless_workloads::Profile {
            name: "probe",
            trips: 1,
            width: 2,
            ..Default::default()
        };
        let path = self.work.0.join("probe.asm");
        let asm = regless_isa::text::format_kernel(&regless_workloads::generate(&profile));
        std::fs::write(&path, asm).map_err(|e| format!("write {}: {e}", path.display()))?;
        let out = self.work.0.join("probe-selfprof.json");
        for d in DESIGNS {
            let op = CliOp {
                kernel: 0,
                design: d,
                capacity: None,
            };
            let accepted = self.cli.run(&cli_run_args(&path, &op, Some(&out))).is_ok();
            self.self_profiles.insert(d, accepted);
        }
        let _ = std::fs::remove_file(&out);
        if !self.self_profiles.values().any(|&a| a) {
            return Err("no design accepts --self-profile-out".into());
        }
        Ok(())
    }

    /// Generate, format, parse and compile every kernel of the workload;
    /// returns each step's per-kernel times and the regions formed.
    #[allow(clippy::type_complexity)]
    fn probe_layers(&mut self, plan: &Plan) -> Result<([Vec<Sample>; 9], usize), String> {
        let mut per_step: [Vec<Sample>; 9] = Default::default();
        let mut regions = 0;
        for k in &plan.kernels {
            let start = Instant::now();
            let b = self.cal.bracket(|| layers::time_layers(&k.profile));
            let calib_s = b.calib_s;
            let times = b.value?;
            let parent = self.span(
                ROOT,
                &format!("layers {}", k.name()),
                "bench",
                start,
                Instant::now(),
            );
            for (i, (layer, step)) in layers::STEPS.iter().enumerate() {
                per_step[i].push(Sample {
                    raw_s: times.raw_s[i],
                    calib_s,
                });
                let (s, e) = times.last[i];
                self.span(parent, &format!("{layer}.{step}"), layer_name(layer), s, e);
            }
            regions += times.regions;
        }
        Ok((per_step, regions))
    }

    /// Time a no-op CLI invocation that must still list the registry.
    fn probe_startup(&mut self) -> Vec<Sample> {
        let mut times = Vec::new();
        for _ in 0..STARTUP_PROBES {
            let cli = &self.cli;
            let start = Instant::now();
            let b = self.cal.bracket(|| check_registry(cli));
            let total = b.total();
            if let Some(()) = self.tally.check("regless designs --format json", b.value) {
                times.push(total);
            }
            self.span(
                ROOT,
                "cli.startup",
                "cli",
                start,
                start + std::time::Duration::from_secs_f64(b.raw_s),
            );
        }
        times
    }

    /// `regless report --format json` on kernel 0 at every regless
    /// capacity the workload uses; the core counters are exact.
    fn probe_core(&mut self, plan: &Plan, files: &[PathBuf]) -> BTreeMap<String, f64> {
        let caps: Vec<usize> = if self.args.workload == Workload::CapacitySweep {
            CAPACITIES.to_vec()
        } else {
            vec![DEFAULT_CAPACITY]
        };
        let mut totals: BTreeMap<String, f64> = BTreeMap::new();
        for cap in caps {
            let args: Vec<OsString> = vec![
                "report".into(),
                files[0].clone().into(),
                "--design".into(),
                "regless".into(),
                "--capacity".into(),
                cap.to_string().into(),
                "--format".into(),
                "json".into(),
            ];
            let start = Instant::now();
            let b = self.cal.bracket(|| self.cli.run(&args));
            self.span(
                ROOT,
                &format!("core.report {} {cap}", plan.kernels[0].name()),
                "core",
                start,
                Instant::now(),
            );
            let what = format!("regless report --capacity {cap}");
            if let Some(c) = self
                .tally
                .check(&what, b.value.and_then(|t| core_counters(&t)))
            {
                for (k, v) in c {
                    *totals.entry(k).or_default() += v;
                }
            }
        }
        let get = |k: &str| totals.get(k).copied().unwrap_or(0.0);
        let mut m = BTreeMap::new();
        for e in EVICTIONS {
            m.insert(format!("core.evict.{e}"), get(&format!("evict.{e}")));
        }
        for p in PRELOADS {
            m.insert(format!("core.preload.{p}"), get(&format!("preload.{p}")));
        }
        let hits = get("compressor.hits");
        m.insert(
            "core.compressor.hit_ratio".into(),
            hits / (hits + get("compressor.incompressible")).max(1.0),
        );
        let slots: f64 = STALLS.iter().map(|s| get(&format!("stall.{s}"))).sum();
        for s in STALLS {
            m.insert(
                format!("core.stall.{s}_share"),
                get(&format!("stall.{s}")) / slots.max(1.0),
            );
        }
        m
    }

    /// A small traced serve session for workloads that do not serve.
    fn probe_serve(&mut self) -> Result<ServeSession, String> {
        let plan = Plan::build(Workload::ServeWarm, self.args.seed, SERVE_PROBE_SECONDS);
        let (_, (mut server, expected)) = self.start_and_prefill(&plan, 0)?;
        let session = self.serve_session(&mut server, &plan, &expected, true)?;
        server.shutdown()?;
        Ok(session)
    }
}

/// A result and the interval it took.
type Timed<T> = (T, (Instant, Instant));

/// Run op `i` untraced (`run(false)`) and, when `traced`, traced as well
/// (`run(true)`), each timed. Which goes first alternates with `i`, so the
/// second of a pair, which finds the program's caches warm, is the traced
/// one for half of the pairs only.
fn timed_pair<T>(
    i: usize,
    traced: bool,
    mut run: impl FnMut(bool) -> T,
) -> (Timed<T>, Option<Timed<T>>) {
    let mut timed = |t: bool| {
        let start = Instant::now();
        let v = run(t);
        (v, (start, Instant::now()))
    };
    if !traced {
        return (timed(false), None);
    }
    if i % 2 == 1 {
        let second = timed(true);
        (timed(false), Some(second))
    } else {
        let first = timed(false);
        (first, Some(timed(true)))
    }
}

/// A non-zero 64-bit trace id for request `id`.
fn trace_id(seed: u64, id: u64) -> u64 {
    inputs::splitmix64(seed ^ id.rotate_left(32)) | 1
}

fn layer_name(layer: &str) -> &'static str {
    match layer {
        "workloads" => "workloads",
        "isa" => "isa",
        _ => "compiler",
    }
}

fn cli_run_args(file: &Path, op: &CliOp, profile_out: Option<&Path>) -> Vec<OsString> {
    let mut args: Vec<OsString> = vec![
        "run".into(),
        file.into(),
        "--design".into(),
        op.design.into(),
    ];
    if let Some(c) = op.capacity {
        args.push("--capacity".into());
        args.push(c.to_string().into());
    }
    if let Some(p) = profile_out {
        args.push("--self-profile-out".into());
        args.push(p.into());
    }
    args
}

/// `regless designs --format json` must list every registered design.
fn check_registry(cli: &Cli) -> Result<(), String> {
    let text = cli.run(&["designs", "--format", "json"])?;
    let v = Json::parse(&text).map_err(|e| format!("designs: {}", e.message))?;
    let Ok(Json::Arr(designs)) = v.field("designs") else {
        return Err("designs: no designs array".into());
    };
    let ids: Vec<&Json> = designs.iter().filter_map(|d| d.field("id").ok()).collect();
    for d in DESIGNS {
        if !ids.contains(&&Json::Str(d.to_string())) {
            return Err(format!("designs: {d} is not registered"));
        }
    }
    Ok(())
}

/// Phase durations (µs) from a `--self-profile-out` Chrome trace.
fn read_phases(path: &Path) -> Vec<(String, f64)> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Ok(v) = Json::parse(&text) else {
        return Vec::new();
    };
    let Ok(Json::Arr(events)) = v.field("traceEvents") else {
        return Vec::new();
    };
    events
        .iter()
        .filter(|e| e.field("ph").ok() == Some(&Json::Str("X".into())))
        .filter_map(|e| match (e.field("name"), e.field("dur")) {
            (Ok(Json::Str(n)), Ok(Json::Int(d))) => Some((n.clone(), *d as f64)),
            (Ok(Json::Str(n)), Ok(Json::Float(d))) => Some((n.clone(), *d)),
            _ => None,
        })
        .collect()
}

/// The exact counters of one `regless report --format json`.
fn core_counters(text: &str) -> Result<Vec<(String, f64)>, String> {
    let v = Json::parse(text).map_err(|e| format!("report: {}", e.message))?;
    let num = |j: &Json| match j {
        Json::Int(i) => Some(*i as f64),
        Json::Uint(u) => Some(*u as f64),
        Json::Float(f) => Some(*f),
        _ => None,
    };
    let section = |name: &str| -> Result<Vec<(String, f64)>, String> {
        match v.field(name) {
            Ok(Json::Obj(pairs)) => Ok(pairs
                .iter()
                .filter_map(|(k, j)| Some((k.clone(), num(j)?)))
                .collect()),
            _ => Err(format!("report: no {name} object")),
        }
    };
    let mut out = Vec::new();
    for (k, x) in section("issue_stack")? {
        out.push((format!("stall.{k}"), x));
    }
    for (k, x) in section("evictions")? {
        out.push((format!("evict.{k}"), x));
    }
    let compressor = section("compressor")?;
    let hits: f64 = compressor
        .iter()
        .filter(|(k, _)| {
            !matches!(
                k.as_str(),
                "incompressible" | "bytes_in" | "bytes_out" | "l1_stores"
            )
        })
        .map(|(_, x)| x)
        .sum();
    out.push(("compressor.hits".into(), hits));
    for (k, x) in compressor {
        out.push((format!("compressor.{k}"), x));
    }
    let counters = v
        .field("telemetry")
        .and_then(|t| t.field("counters"))
        .map_err(|_| "report: no telemetry counters".to_string())?;
    if let Json::Obj(pairs) = counters {
        for (k, j) in pairs {
            if k.starts_with("preload.") {
                out.push((k.clone(), num(j).unwrap_or(0.0)));
            }
        }
    }
    Ok(out)
}

/// Geometric mean over kernels of regless (512 entries) over baseline
/// energy, from runs that passed their checks.
fn energy_ratio(records: &[CliRecord]) -> f64 {
    let energy = |design: &str, kernel: usize| {
        records
            .iter()
            .find(|r| {
                r.op.kernel == kernel
                    && r.op.design == design
                    && r.op.effective_capacity() == DEFAULT_CAPACITY
            })
            .and_then(|r| r.out.as_ref())
            .map(|o| o.energy_nj)
    };
    let kernels: std::collections::BTreeSet<usize> = records.iter().map(|r| r.op.kernel).collect();
    let ratios: Vec<f64> = kernels
        .into_iter()
        .filter_map(|k| Some(energy("regless", k)? / energy("baseline", k)?))
        .collect();
    stats::geomean(&ratios)
}

fn serve_metrics(
    s: &ServeSession,
    span_us: &BTreeMap<String, Vec<Sample>>,
    m: &mut BTreeMap<String, f64>,
) {
    let us = |v: &[Sample]| stats::mean(&v.iter().map(|&t| 1e6 * t.cal()).collect::<Vec<f64>>());
    for k in Kind::ALL {
        let of_kind: Vec<&ServeRecord> = s.untraced.iter().filter(|r| r.kind == k).collect();
        let lats: Vec<f64> = of_kind.iter().map(|r| 1e6 * r.t.cal()).collect();
        let bytes: Vec<f64> = of_kind.iter().map(|r| r.bytes as f64).collect();
        m.insert(format!("serve.rpc_us.{}", k.as_str()), stats::median(&lats));
        m.insert(
            format!("serve.response_bytes.{}", k.as_str()),
            stats::mean(&bytes),
        );
    }
    for name in SERVE_SPANS {
        let v = span_us.get(name).map_or(0.0, |v| us(v));
        m.insert(format!("serve.span.{name}_us"), v);
    }
    m.insert("serve.cache_hit_ratio".into(), s.cache_hit_ratio);
    for (name, v) in ["coalesced", "queue_full", "timeouts", "panics"]
        .iter()
        .zip(s.counters)
    {
        m.insert(format!("serve.{name}"), v as f64);
    }
    m.insert("json.parse_us".into(), us(&s.parse));
}

/// Fail every run of a kernel whose runs disagree on the retired
/// instruction count: architectural results must agree across the designs
/// (or capacities) that ran the same kernel.
fn check_groups(tally: &mut Tally, plan: &Plan, records: &mut [CliRecord]) {
    let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, r) in records.iter().enumerate() {
        groups.entry(r.op.kernel).or_default().push(i);
    }
    for (kernel, idx) in groups {
        let ok: Vec<usize> = idx
            .into_iter()
            .filter(|&i| records[i].out.is_some())
            .collect();
        let group: Vec<Option<&RunOutput>> = ok.iter().map(|&i| records[i].out.as_ref()).collect();
        if group.len() > 1 && !group_agrees(&group) {
            let name = plan.kernels[kernel].name();
            for &i in &ok {
                records[i].out = None;
                tally.fail(
                    &format!("kernel {name}"),
                    "retired instruction counts differ across runs",
                );
            }
        }
    }
}

/// FNV-1a digest of per-op simulated cycles, in op order.
fn cycles_digest(per_op: &[u64]) -> u64 {
    let mut h = inputs::Fnv::default();
    for c in per_op {
        h.write(&c.to_le_bytes());
    }
    h.finish()
}

/// Count and check one untraced serve reply; its record if it passed.
fn check_served(
    tally: &mut Tally,
    what: &str,
    reply: Result<String, String>,
    id: u64,
    kind: Kind,
    expected: &Expected,
    t: Sample,
) -> Option<ServeRecord> {
    let checked = reply.and_then(|line| {
        check_reply(&line, id, kind, Some(expected)).map(|r| ServeRecord {
            kind,
            t,
            bytes: line.len(),
            cycles: r.cycles,
        })
    });
    tally.check(what, checked)
}

/// The result line: every value with all its digits.
fn result_line(tally: &Tally, metrics: &[(String, f64, &'static str)]) -> String {
    let (attempted, failed) = (tally.attempted, tally.failed);
    let correct = failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_in(bench: &Json, key: &str) -> Vec<(String, String)> {
        let Ok(Json::Arr(items)) = bench.field(key) else {
            panic!("BENCHMARK.json has no {key} array");
        };
        items
            .iter()
            .map(|i| match (i.field("name"), i.field("unit")) {
                (Ok(Json::Str(n)), Ok(Json::Str(u))) => (n.clone(), u.clone()),
                other => panic!("malformed metric {other:?}"),
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let bench = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names_in(&bench, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer_names()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names_in(&bench, "per_layer"), layers);
    }

    #[test]
    fn result_line_is_json_with_the_four_keys() {
        let tally = Tally {
            attempted: 3,
            failed: 0,
        };
        let line = result_line(
            &tally,
            &[("wall_s".into(), 1.25, "s"), ("x".into(), f64::NAN, "ms")],
        );
        let v = Json::parse(&line).unwrap();
        let Json::Obj(pairs) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            v.field("metrics")
                .unwrap()
                .field("wall_s")
                .unwrap()
                .field("value")
                .unwrap(),
            &Json::Float(1.25)
        );
    }

    /// `regless run` text that passes every check.
    fn run_text(kernel: &str, design: &str, insns: u64) -> String {
        format!(
            "kernel `{kernel}` under {design}:\n  cycles            9120\n  \
             instructions      {insns} (IPC 2.59)\n  \
             energy            20011.2 nJ total (4000.0 nJ register structures)\n"
        )
    }

    fn int_field(v: &Json, name: &str) -> i64 {
        match v.field(name) {
            Ok(Json::Int(n)) => *n,
            other => panic!("{name}: {other:?}"),
        }
    }

    /// Whether the result line says `correct`, and its success_rate.
    fn verdict(tally: &Tally) -> (bool, f64) {
        let metrics = [("success_rate".to_string(), tally.success_rate(), "ratio")];
        let v = Json::parse(&result_line(tally, &metrics)).unwrap();
        assert_eq!(int_field(&v, "attempted"), tally.attempted as i64);
        assert_eq!(int_field(&v, "failed"), tally.failed as i64);
        let correct = match v.field("correct") {
            Ok(Json::Bool(b)) => *b,
            other => panic!("correct: {other:?}"),
        };
        (correct, tally.success_rate())
    }

    #[test]
    fn doctored_cli_outputs_are_counted_as_failed() {
        let plan = Plan::build(Workload::SimMatrix, 5, 30.0);
        let kernel0: Vec<CliOp> = plan
            .cli_ops
            .iter()
            .copied()
            .filter(|o| o.kernel == 0)
            .collect();
        let name = plan.kernels[0].name();
        // Runs the kernel's ops as if `regless run` printed `text(design)`.
        let run = |text: &dyn Fn(&str) -> String| {
            let mut tally = Tally::default();
            let mut records: Vec<CliRecord> = kernel0
                .iter()
                .map(|op| CliRecord {
                    op: *op,
                    t: Sample {
                        raw_s: 0.2,
                        calib_s: 0.03,
                    },
                    out: tally.check("run", parse_run_output(&text(op.design), name, op.design)),
                    phases: Vec::new(),
                })
                .collect();
            check_groups(&mut tally, &plan, &mut records);
            let passed = records.iter().filter(|r| r.out.is_some()).count();
            (tally, passed)
        };

        let (honest, passed) = run(&|d| run_text(name, d, 23616));
        assert_eq!((honest.attempted, honest.failed, passed), (7, 0, 7));
        assert_eq!(verdict(&honest), (true, 1.0));

        // One design retires another instruction count: the whole group fails.
        let (odd, passed) = run(&|d| run_text(name, d, 23616 + u64::from(d == "rfv")));
        assert_eq!((odd.attempted, odd.failed, passed), (7, 7, 0));
        assert_eq!(verdict(&odd), (false, 0.0));

        // One unparsable output fails that op; the rest still agree.
        let (garbled, passed) = run(&|d| match d {
            "regdem" => run_text(name, d, 23616).replace("cycles ", "cycels "),
            _ => run_text(name, d, 23616),
        });
        assert_eq!((garbled.attempted, garbled.failed, passed), (7, 1, 6));
        let (correct, rate) = verdict(&garbled);
        assert!(!correct && rate < 1.0);
    }

    #[test]
    fn doctored_serve_replies_are_counted_as_failed() {
        let expected = Expected {
            cycles: 8696,
            report: r#"{"cycles":8696}"#.to_string(),
        };
        let good = r#"{"id":5,"ok":true,"kind":"run","cycles":8696,"report":{"cycles":8696}}"#;
        let t = Sample {
            raw_s: 0.0002,
            calib_s: 0.03,
        };
        let mut tally = Tally::default();
        let served = |tally: &mut Tally, reply: Result<String, String>| {
            check_served(tally, "run", reply, 5, Kind::Run, &expected, t)
        };
        let r = served(&mut tally, Ok(good.to_string())).expect("an honest reply passes");
        assert_eq!((r.cycles, r.bytes), (8696, good.len()));
        assert_eq!(verdict(&tally), (true, 1.0));

        let doctored = good.replace(r#"{"cycles":8696}}"#, r#"{"cycles":8697}}"#);
        assert!(served(&mut tally, Ok(doctored)).is_none());
        assert!(served(&mut tally, Err("receive: connection reset".into())).is_none());
        assert_eq!((tally.attempted, tally.failed), (3, 2));
        let (correct, rate) = verdict(&tally);
        assert!(!correct && rate < 1.0);
    }

    #[test]
    fn cycles_digest_follows_every_op() {
        let d = cycles_digest(&[9120, 8696]);
        assert_eq!(d, cycles_digest(&[9120, 8696]));
        assert_ne!(d, cycles_digest(&[8696, 9120]));
        assert_ne!(d, cycles_digest(&[9120, 8695]));
        assert_ne!(d, cycles_digest(&[9120]));
    }

    #[test]
    fn core_counters_read_a_report() {
        let text = r#"{"issue_stack":{"issued":10,"no_warp":30},"evictions":{"region_drain":4},
            "compressor":{"constant":2,"stride1":1,"incompressible":1,"bytes_in":9,"bytes_out":3,"l1_stores":1},
            "telemetry":{"counters":{"preload.osu":7,"stall.issued":10}}}"#;
        let c: BTreeMap<String, f64> = core_counters(text).unwrap().into_iter().collect();
        assert_eq!(c["stall.no_warp"], 30.0);
        assert_eq!(c["evict.region_drain"], 4.0);
        assert_eq!(c["compressor.hits"], 3.0);
        assert_eq!(c["preload.osu"], 7.0);
        assert!(core_counters(r#"{"issue_stack":{}}"#).is_err());
    }

    #[test]
    fn arguments_are_checked() {
        let ok = |s: &str| parse_args(&s.split(' ').map(String::from).collect::<Vec<_>>());
        let a = ok("--workload serve-warm --seed 4 --seconds 2.5 --trace 1 --regless bin").unwrap();
        assert_eq!(a.workload, Workload::ServeWarm);
        assert!(a.trace && a.seed == 4 && a.seconds == 2.5);
        assert!(ok("--workload other --seed 4 --seconds 2 --trace 0 --regless b").is_err());
        assert!(ok("--workload sim-matrix --seed 4 --seconds 2 --trace 2 --regless b").is_err());
        assert!(ok("--workload sim-matrix --seed 4 --seconds 0 --trace 0 --regless b").is_err());
        assert!(ok("--workload sim-matrix --seed 4 --trace 0 --regless b").is_err());
    }
}
