//! `regless` — command-line driver for the RegLess reproduction.
//!
//! ```text
//! regless list                         all built-in benchmark kernels
//! regless designs [--format table|json]  the design registry: every storage
//!                                     design id with citation, stability tier,
//!                                     and tunable-parameter defaults
//! regless run <kernel> [options]      simulate a kernel
//!     --design <id>                       storage design (default regless;
//!                                         ids come from `regless designs`)
//!     --capacity <entries>                OSU entries/SM (default 512)
//!     --no-compressor                     disable the compressor
//!     --self-profile                      time the simulator's own phases (host
//!                                         wall clock; results stay byte-identical)
//!     --self-profile-out <path>           also write the phases as a Chrome trace
//! regless inspect <kernel>            regions, annotations, metadata
//! regless asm <kernel>                dump the kernel as assembly text
//! regless sweep <kernel> [--progress] OSU capacity sweep (--progress streams
//!                                     done/total, units/s, Mcycles/s, ETA)
//! regless sweep --stats [--format text|json] | --gc   cache report / pruning
//! regless trace <kernel> [options]    telemetry export for one run
//!     --design <id>                       storage design (default regless)
//!     --capacity <entries>                OSU entries/SM (default 512)
//!     --format chrome|csv                 Chrome trace JSON or CSV summary
//!     --out <path>                        write there instead of stdout
//! regless profile <kernel> [options]  CPI-stack profile for one run
//!     --design <id>                       storage design (default regless)
//!     --capacity <entries>                OSU entries/SM (default 512)
//!     --format table|json|csv             rendering (default table)
//!     --out <path>                        write there instead of stdout
//! regless report <kernel> [options]   unified dashboard for one run
//!     --design <id>                       storage design (default regless)
//!     --capacity <entries>                OSU entries/SM (default 512)
//!     --format html|json                  rendering (default html)
//!     --out <path>                        write there instead of stdout
//!     --trend                             append this run's cycles and IPC to the
//!                                         trend store and render its report rows
//!     --history <path>                    trend store (default results/trends.jsonl)
//! regless diff <a.json> <b.json>      compare two saved profiles
//!     --fail-above <pct>                  exit non-zero past this regression
//! regless trends [options]            perf-trend observatory over BENCH_profile.json
//!     --results <dir>                     artifact directory (default results)
//!     --history <path>                    trend history (default results/trends.jsonl)
//!     --no-ingest                         gate/render only; append nothing
//!     --window <n>                        rolling-median window (default 8)
//!     --fail-above <pct>                  exit non-zero when the newest value is
//!                                         this % worse than its rolling median
//!     --html <path>                       write the trend dashboard there
//! regless serve [options]             long-lived simulation server (JSONL/TCP)
//!     --addr <host:port>                  listen address (default 127.0.0.1:7117; port 0 = ephemeral)
//!     --workers <n>                       worker threads (default cores − 1)
//!     --queue <n>                         admission queue capacity (default 64)
//!     --drain-timeout <secs>              graceful-drain budget (default 30)
//! regless submit <kernel> [options]   submit a request to a running server
//!     --addr <host:port>                  server address (default 127.0.0.1:7117)
//!     --kind run|profile|report           what to ask for (default run)
//!     --design <id>                       storage design (default regless)
//!     --capacity <entries>                OSU entries/SM (default 512)
//!     --no-compressor                     disable the compressor
//!     --timeout-ms <ms>                   per-request deadline
//!     --repeat <n>                        send it n times over one connection and
//!                                         print p50/p99 latency to stderr
//!     --slo-p99-ms <ms>                   exit 1 when client-observed p99 exceeds <ms>
//!     --trace                             stamp a trace id and collect spans
//!     --trace-id <hex>                    use this trace id instead of a fresh one
//!     --trace-out <path>                  write the Chrome trace there
//!                                         (default results/serve-trace.json)
//! regless submit --stats|--shutdown   server statistics / graceful shutdown
//!                                     (submit retries `queue_full` with back-off)
//! regless obs [<addr>] [options]      server metrics / structured log
//!     --format json|prom|table            rendering (default table)
//!     --watch <secs>                      re-poll and re-print every <secs>
//!     --tail                              follow the structured event log
//! regless cluster [options]           coordinator: shard a sweep across workers
//!     --addr <host:port>                  listen address (default 127.0.0.1:7118; port 0 = ephemeral)
//!     --workers <n>                       workers to spawn with --spawn (default 2)
//!     --spawn                             self-spawn local worker processes
//!     --benches <csv>                     benchmark ids (default all rodinia)
//!     --designs <csv>                     designs to sweep (default baseline,regless;
//!                                         any registry id works)
//!     --capacity <entries>                OSU entries/SM for regless designs (default 512)
//!     --liveness-ms <ms>                  worker liveness timeout (default 60000)
//!     --timeout-secs <s>                  overall sweep deadline (default 3600)
//!     --digest <path>                     write the merged-result digest there
//!     --local                             run the same sweep single-process instead
//!     --json                              print the run summary as JSON on stdout
//!     --trace-out <path>                  write claim→result spans as a Chrome trace
//!     --progress                          stream done/total, units/s, cycles/s, ETA
//!                                         to stderr while waiting
//! regless worker [options]            worker: claim and simulate cluster units
//!     --connect <host:port>               coordinator address (default 127.0.0.1:7118)
//!     --name <s>                          worker name on the ring (default w<pid>)
//!     --fail-after <n>                    chaos hook: die with a unit in flight after n units
//! ```
//!
//! `<kernel>` is a built-in benchmark name (see `regless list`) or a path
//! to a `.asm` file in the textual format of [`regless::isa::text`].
//! `--capacity` and `--no-compressor` are rejected for a design that
//! declares no such parameter (see `regless designs`).
//! Chrome traces load in `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! `REGLESS_SIM=stepped` in the environment forces the cycle-by-cycle
//! reference run loop instead of the event-driven fast path. Both loops
//! produce byte-identical reports (CI diffs them); the variable exists
//! for differential debugging and for measuring fast-path speedup.
//!
//! `REGLESS_SELFPROF=1` turns on the simulator's host-side self profiler
//! everywhere (run loop phases, sweep-engine pipeline): tables land on
//! stderr and the phase counters join the serve/cluster metrics surface.
//! Simulated results are byte-identical with it on or off (CI asserts
//! this property); with it off the instrumentation never reads a clock.

use regless::bench::profile::{diff as profile_diff, ProfileReport};
use regless::bench::registry::{self, DesignParams};
use regless::bench::report::collect as report_collect;
use regless::bench::{eval_gpu, Attach, DesignKind};
use regless::compiler::{compile, RegionConfig};
use regless::core::RegLessConfig;
use regless::energy::energy;
use regless::isa::text::{format_kernel, parse_kernel};
use regless::isa::Kernel;
use regless::sim::RunReport;
use regless::telemetry::{
    chrome_trace_string, parse_trends, report_points, summary_csv, trends_table, TrendPoint,
    DEFAULT_WINDOW,
};
use regless::workloads::rodinia;
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("designs") => cmd_designs(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("asm") => cmd_asm(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("trends") => cmd_trends(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("obs") => cmd_obs(&args[1..]),
        Some("cluster") => cmd_cluster(&args[1..]),
        Some("worker") => cmd_worker(&args[1..]),
        Some("help" | "--help" | "-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}; try `regless help`").into()),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

type CmdResult = Result<(), Box<dyn std::error::Error>>;

fn print_usage() {
    println!(
        "regless — just-in-time operand staging for GPUs (MICRO 2017 reproduction)\n\n\
         commands:\n\
         \u{20}  list                      built-in benchmark kernels\n\
         \u{20}  designs [--format table|json]  the design registry (ids, citations, tiers,\n\
         \u{20}                            tunable defaults) — every `--design` value\n\
         \u{20}  run <kernel> [options]    simulate (options: --design <id from `regless designs`>,\n\
         \u{20}                            --capacity <entries>, --no-compressor,\n\
         \u{20}                            --self-profile, --self-profile-out <path>)\n\
         \u{20}  inspect <kernel>          regions, annotations, metadata\n\
         \u{20}  asm <kernel>              dump assembly text\n\
         \u{20}  sweep <kernel> [--progress]  OSU capacity sweep (--progress streams ETA)\n\
         \u{20}  sweep --stats | --gc      sweep-engine cache report / orphan pruning\n\
         \u{20}  sweep --gc --dry-run      list orphaned cache directories without deleting\n\
         \u{20}  trace <kernel> [options]  telemetry export (options: --design <id>,\n\
         \u{20}                            --capacity <entries>, --format chrome|csv, --out <path>)\n\
         \u{20}  profile <kernel> [opts]   CPI-stack profile (options: --design <id>,\n\
         \u{20}                            --capacity <entries>, --format table|json|csv, --out <path>)\n\
         \u{20}  report <kernel> [opts]    unified dashboard (options: --design <id>,\n\
         \u{20}                            --capacity <entries>, --format html|json, --out <path>,\n\
         \u{20}                            --trend, --history <path>)\n\
         \u{20}  diff <a.json> <b.json>    compare two saved profiles (--fail-above <pct> gates)\n\
         \u{20}  trends [options]          perf-trend observatory (options: --results <dir>,\n\
         \u{20}                            --history <path>, --no-ingest, --window <n>,\n\
         \u{20}                            --fail-above <pct>, --html <path>)\n\
         \u{20}  serve [options]           simulation server (options: --addr <host:port>,\n\
         \u{20}                            --workers <n>, --queue <n>, --drain-timeout <secs>)\n\
         \u{20}  submit <kernel> [opts]    send a request (options: --addr <host:port>,\n\
         \u{20}                            --kind run|profile|report, --design <id>,\n\
         \u{20}                            --capacity <entries>, --no-compressor, --timeout-ms <ms>,\n\
         \u{20}                            --repeat <n>, --slo-p99-ms <ms>,\n\
         \u{20}                            --trace, --trace-id <hex>, --trace-out <path>)\n\
         \u{20}  submit --stats|--shutdown server statistics / graceful shutdown\n\
         \u{20}  obs [<addr>] [options]    server metrics / log (options: --format json|prom|table,\n\
         \u{20}                            --watch <secs>, --tail)\n\
         \u{20}  cluster [options]         shard a sweep across workers (options: --addr <host:port>,\n\
         \u{20}                            --workers <n>, --spawn, --benches <csv>, --designs <csv>,\n\
         \u{20}                            --capacity <entries>, --liveness-ms <ms>, --timeout-secs <s>,\n\
         \u{20}                            --digest <path>, --local, --json, --trace-out <path>,\n\
         \u{20}                            --progress)\n\
         \u{20}  worker [options]          cluster worker (options: --connect <host:port>, --name <s>,\n\
         \u{20}                            --fail-after <n>)\n\n\
         <kernel> is a benchmark name or a path to a .asm file\n\
         REGLESS_SIM=stepped forces the cycle-by-cycle reference run loop\n\
         (byte-identical reports; for differential debugging and speed bench)\n\
         REGLESS_SELFPROF=1 times the simulator's own phases everywhere\n\
         (host wall clock only; simulated results stay byte-identical)"
    );
}

/// Write `contents` to `path`, creating missing parent directories first
/// so `--out results/new-dir/file` works on a fresh checkout.
fn write_output(path: &str, contents: &str) -> std::io::Result<()> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, contents)
}

fn load_kernel(spec: &str) -> Result<Kernel, Box<dyn std::error::Error>> {
    if rodinia::NAMES.contains(&spec) {
        return Ok(rodinia::kernel(spec));
    }
    if std::path::Path::new(spec).exists() {
        let text = std::fs::read_to_string(spec)?;
        return Ok(parse_kernel(&text)?);
    }
    Err(format!("{spec:?} is neither a benchmark (see `regless list`) nor a file").into())
}

fn cmd_list() -> CmdResult {
    println!("built-in benchmarks (synthetic Rodinia stand-ins):");
    for name in rodinia::NAMES {
        println!("  {name}");
    }
    Ok(())
}

/// List the design registry (`regless designs`): every storage design the
/// tool can simulate, with citation, stability tier, and tunable-parameter
/// defaults.
fn cmd_designs(args: &[String]) -> CmdResult {
    let mut format = "table".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--format" => format = it.next().ok_or("--format needs a value")?.clone(),
            other => return Err(format!("unknown option {other:?}").into()),
        }
    }
    match format.as_str() {
        "table" => print!("{}", registry::render_table()),
        "json" => println!("{}", registry::render_json().to_string_pretty()),
        other => return Err(format!("unknown format {other:?} (table|json)").into()),
    }
    Ok(())
}

/// The `--design`, `--capacity` and `--no-compressor` choice of one
/// simulation verb.
struct DesignArg {
    id: String,
    capacity: Option<usize>,
    no_compressor: bool,
}

impl DesignArg {
    fn new() -> Self {
        DesignArg {
            id: "regless".to_string(),
            capacity: None,
            no_compressor: false,
        }
    }

    /// Consume `flag` and its value when it is `--design` or `--capacity`;
    /// `false` for any other flag.
    fn parse(
        &mut self,
        flag: &str,
        it: &mut std::slice::Iter<'_, String>,
    ) -> Result<bool, Box<dyn std::error::Error>> {
        match flag {
            "--design" => self.id = it.next().ok_or("--design needs a value")?.clone(),
            "--capacity" => {
                self.capacity = Some(it.next().ok_or("--capacity needs a value")?.parse()?);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Resolve through the registry, rejecting a parameter the user named
    /// that the design does not declare.
    fn resolve(&self) -> Result<DesignKind, String> {
        let entry =
            registry::lookup(&self.id).ok_or_else(|| registry::unknown_design_message(&self.id))?;
        let given = [
            ("capacity", self.capacity.is_some()),
            ("compressor", self.no_compressor),
        ];
        let names: Vec<&str> = given.iter().filter(|g| g.1).map(|g| g.0).collect();
        entry.check_given(&names)?;
        Ok(entry.build(&DesignParams {
            capacity: self.capacity.unwrap_or(DesignParams::default().capacity),
            compressor: !self.no_compressor,
        }))
    }

    /// Simulate `kernel` under this design on the evaluation machine.
    fn execute(
        &self,
        kernel: &Kernel,
        attach: &Attach,
    ) -> Result<(DesignKind, RunReport), Box<dyn std::error::Error>> {
        let design = self.resolve()?;
        Ok((design, design.execute(kernel, eval_gpu(), attach)?))
    }
}

/// Telemetry events buffered per SM by `trace` and `report` before older
/// spans are dropped.
const EVENTS_PER_SM: usize = 1_000_000;

fn cmd_run(args: &[String]) -> CmdResult {
    let spec = args.first().ok_or("run: missing kernel")?;
    let kernel = load_kernel(spec)?;
    let mut design = DesignArg::new();
    let mut self_profile = false;
    let mut self_profile_out: Option<String> = None;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--no-compressor" => design.no_compressor = true,
            "--self-profile" => self_profile = true,
            "--self-profile-out" => {
                self_profile = true;
                self_profile_out =
                    Some(it.next().ok_or("--self-profile-out needs a value")?.clone());
            }
            flag if design.parse(flag, &mut it)? => {}
            other => return Err(format!("unknown option {other:?}").into()),
        }
    }
    // Force-enabled regardless of REGLESS_SELFPROF: the flag is the
    // explicit opt-in. Host wall clock only — the report is byte-identical
    // with or without it.
    let prof = self_profile.then(|| Arc::new(regless::telemetry::SelfProfiler::new(true)));
    let attach = Attach {
        selfprof: prof.clone(),
        ..Attach::default()
    };
    let (kind, report) = design.execute(&kernel, &attach)?;
    if let Some(p) = &prof {
        // The breakdown goes to stderr so stdout stays the run summary.
        eprint!("{}", p.render_table("sim"));
        if let Some(path) = &self_profile_out {
            use regless::telemetry::obs::gen_trace_id;
            let spans = p.to_spans(gen_trace_id(), "sim");
            write_output(
                path,
                &regless::telemetry::chrome_spans(&spans).to_string_compact(),
            )?;
            eprintln!("wrote {} self-profile phase spans to {path}", spans.len());
        }
    }

    let t = report.total();
    let e = energy(&report, kind.energy_design(), &eval_gpu());
    println!("kernel `{}` under {}:", kernel.name(), design.id);
    println!("  cycles            {}", report.cycles);
    println!("  instructions      {} (IPC {:.2})", t.insns, report.ipc());
    if t.preloads_total() > 0 {
        println!(
            "  preloads          {} ({} OSU, {} compressor, {} L1, {} L2/DRAM)",
            t.preloads_total(),
            t.preloads_osu,
            t.preloads_compressor,
            t.preloads_l1,
            t.preloads_l2_dram
        );
        println!("  regions activated {}", t.regions_activated);
        println!("  metadata insns    {}", t.meta_insns);
        println!("  staging oracle    {} mismatches", t.staging_mismatches);
    }
    println!(
        "  energy            {:.1} nJ total ({:.1} nJ register structures)",
        e.total_pj() / 1e3,
        e.register_structures_pj / 1e3
    );
    Ok(())
}

fn cmd_inspect(args: &[String]) -> CmdResult {
    let spec = args.first().ok_or("inspect: missing kernel")?;
    let kernel = load_kernel(spec)?;
    let compiled = compile(&kernel, &RegionConfig::default())?;
    println!(
        "kernel `{}`: {} blocks, {} insns, {} regs, {} regions",
        kernel.name(),
        kernel.num_blocks(),
        kernel.num_insns(),
        kernel.num_regs(),
        compiled.regions().len()
    );
    for r in compiled.regions() {
        println!(
            "  {} [{} {}..{}]: {} insns, in {:?}, out {:?}, {} interior",
            r.id(),
            r.block(),
            r.start(),
            r.end(),
            r.len(),
            r.inputs(),
            r.outputs(),
            r.interior().len()
        );
    }
    let s = compiled.region_register_stats();
    println!(
        "region stats: {:.1} insns avg, {:.1} preloads avg, {:.1}±{:.1} live; metadata {:.1}%",
        compiled.mean_region_len(),
        s.mean_preloads,
        s.mean_live,
        s.std_live,
        100.0 * compiled.metadata().overhead_fraction()
    );
    Ok(())
}

fn cmd_asm(args: &[String]) -> CmdResult {
    let spec = args.first().ok_or("asm: missing kernel")?;
    let kernel = load_kernel(spec)?;
    print!("{}", format_kernel(&kernel));
    Ok(())
}

/// Record a full simulation's telemetry and export it.
fn cmd_trace(args: &[String]) -> CmdResult {
    let spec = args.first().ok_or("trace: missing kernel")?;
    let kernel = load_kernel(spec)?;
    let mut design = DesignArg::new();
    let mut format = "chrome".to_string();
    let mut out: Option<String> = None;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--format" => format = it.next().ok_or("--format needs a value")?.clone(),
            "--out" => out = Some(it.next().ok_or("--out needs a value")?.clone()),
            flag if design.parse(flag, &mut it)? => {}
            other => return Err(format!("unknown option {other:?}").into()),
        }
    }
    let attach = Attach {
        telemetry: Some(EVENTS_PER_SM),
        ..Attach::default()
    };
    let (_, report) = design.execute(&kernel, &attach)?;
    let telemetry = report
        .telemetry
        .as_ref()
        .expect("attach_telemetry was called");
    let rendered = match format.as_str() {
        "chrome" => chrome_trace_string(telemetry),
        "csv" => summary_csv(telemetry),
        other => return Err(format!("unknown format {other:?} (chrome|csv)").into()),
    };
    match out {
        Some(path) => {
            write_output(&path, &rendered)?;
            eprintln!(
                "wrote {} bytes of {format} telemetry for `{}` to {path} \
                 ({} events, {} dropped)",
                rendered.len(),
                kernel.name(),
                telemetry.events.len(),
                telemetry.dropped
            );
        }
        None => println!("{rendered}"),
    }
    Ok(())
}

/// CPI-stack profile for one run (`regless profile`).
fn cmd_profile(args: &[String]) -> CmdResult {
    let spec = args.first().ok_or("profile: missing kernel")?;
    let kernel = load_kernel(spec)?;
    let mut design = DesignArg::new();
    let mut format = "table".to_string();
    let mut out: Option<String> = None;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--format" => format = it.next().ok_or("--format needs a value")?.clone(),
            "--out" => out = Some(it.next().ok_or("--out needs a value")?.clone()),
            flag if design.parse(flag, &mut it)? => {}
            other => return Err(format!("unknown option {other:?}").into()),
        }
    }
    let (kind, report) = design.execute(&kernel, &Attach::default())?;
    let profile = ProfileReport::collect(&report, kernel.name(), &design.id, kind.osu_capacity());
    let rendered = match format.as_str() {
        "table" => profile.render_table(),
        "json" => profile.to_json_string(),
        "csv" => profile.render_csv(),
        other => return Err(format!("unknown format {other:?} (table|json|csv)").into()),
    };
    match out {
        Some(path) => {
            write_output(&path, &rendered)?;
            eprintln!(
                "wrote {format} profile for `{}` under {} to {path}",
                kernel.name(),
                design.id
            );
        }
        None => print!("{rendered}"),
    }
    Ok(())
}

/// Unified dashboard for one run (`regless report`).
fn cmd_report(args: &[String]) -> CmdResult {
    let spec = args.first().ok_or("report: missing kernel")?;
    let kernel = load_kernel(spec)?;
    let mut design = DesignArg::new();
    let mut format = "html".to_string();
    let mut out: Option<String> = None;
    let mut trend = false;
    let mut history_path = TREND_STORE.to_string();
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--format" => format = it.next().ok_or("--format needs a value")?.clone(),
            "--out" => out = Some(it.next().ok_or("--out needs a value")?.clone()),
            "--trend" => trend = true,
            "--history" => history_path = it.next().ok_or("--history needs a value")?.clone(),
            flag if design.parse(flag, &mut it)? => {}
            other => return Err(format!("unknown option {other:?}").into()),
        }
    }
    // Recorded telemetry fills the dashboard's counter and histogram
    // sections.
    let attach = Attach {
        telemetry: Some(EVENTS_PER_SM),
        ..Attach::default()
    };
    let (kind, run) = design.execute(&kernel, &attach)?;
    let report = report_collect(&run, kernel.name(), &design.id, kind.osu_capacity());

    // --trend: append this run's rows to the trend store, then render
    // every `report` row there (this run's included) as the trajectory
    // section.
    let mut history: Vec<TrendPoint> = Vec::new();
    if trend {
        append_trends(&history_path, report_points(&report))?;
        history = parse_trends(&std::fs::read_to_string(&history_path)?);
        history.retain(|p| p.source == "report");
        eprintln!(
            "appended run to {history_path} ({} report rows)",
            history.len()
        );
    }

    let rendered = match format.as_str() {
        "html" => report.render_html(&history),
        "json" => report.to_json_string(),
        other => return Err(format!("unknown format {other:?} (html|json)").into()),
    };
    match &out {
        Some(path) => {
            write_output(path, &rendered)?;
            eprintln!(
                "wrote {format} report for `{}` under {} to {path}",
                kernel.name(),
                design.id
            );
        }
        None => print!("{rendered}"),
    }
    if trend && out.is_some() {
        print!("{}", trends_table(&history, DEFAULT_WINDOW));
    }
    Ok(())
}

/// Compare two saved profiles (`regless diff`).
fn cmd_diff(args: &[String]) -> CmdResult {
    let a_path = args.first().ok_or("diff: missing first profile")?;
    let b_path = args.get(1).ok_or("diff: missing second profile")?;
    let mut fail_above: Option<f64> = None;
    let mut it = args[2..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--fail-above" => {
                fail_above = Some(it.next().ok_or("--fail-above needs a value")?.parse()?);
            }
            other => return Err(format!("unknown option {other:?}").into()),
        }
    }
    let a: ProfileReport = ProfileReport::from_json_str(&std::fs::read_to_string(a_path)?)?;
    let b: ProfileReport = ProfileReport::from_json_str(&std::fs::read_to_string(b_path)?)?;
    let d = profile_diff(&a, &b);
    print!("{}", d.render(a_path, b_path, fail_above));
    if let Some(t) = fail_above {
        if d.exceeds(t) {
            std::process::exit(1);
        }
    }
    Ok(())
}

/// Start the long-lived simulation server (`regless serve`).
fn cmd_serve(args: &[String]) -> CmdResult {
    let mut config = regless::serve::ServeConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => config.addr = it.next().ok_or("--addr needs a value")?.clone(),
            "--workers" => {
                config.workers = it.next().ok_or("--workers needs a value")?.parse()?;
            }
            "--queue" => {
                config.queue_capacity = it.next().ok_or("--queue needs a value")?.parse()?;
            }
            "--drain-timeout" => {
                let secs: u64 = it.next().ok_or("--drain-timeout needs a value")?.parse()?;
                config.drain_timeout = std::time::Duration::from_secs(secs);
            }
            other => return Err(format!("unknown option {other:?}").into()),
        }
    }
    let drain_timeout = config.drain_timeout;
    let engine = Arc::new(regless::bench::sweep::SweepEngine::from_env());
    let handle = regless::serve::Server::start(config, engine)?;
    // Port 0 resolves at bind time; print the actual address so scripts
    // (and the CI smoke test) can discover it.
    println!("regless-serve listening on {}", handle.addr());
    handle.wait_for_shutdown();
    eprintln!("shutdown requested; draining in-flight jobs");
    match handle.drain() {
        Ok(()) => {
            eprintln!("drained cleanly");
            Ok(())
        }
        Err(live) => Err(format!(
            "drain timed out after {drain_timeout:?} with {live} worker(s) still busy"
        )
        .into()),
    }
}

/// Submit a request to a running server (`regless submit`). Each send
/// retries `queue_full` with back-off; `--repeat` sends the request N
/// times over one connection, and `--slo-p99-ms` turns the
/// client-observed p99 latency into a gate.
fn cmd_submit(args: &[String]) -> CmdResult {
    use regless::serve::{Client, Request, RequestKind, RetryPolicy};
    use regless::telemetry::obs::{epoch_us, format_trace_id, gen_trace_id, parse_trace_id, Span};
    use regless::telemetry::Log2Histogram;
    let mut addr = regless::serve::DEFAULT_ADDR.to_string();
    let mut req = Request::control(1, RequestKind::Run);
    let mut repeat: Option<u32> = None;
    let mut slo_p99_ms: Option<f64> = None;
    let mut trace = false;
    let mut trace_id: Option<u64> = None;
    let mut trace_out = "results/serve-trace.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = it.next().ok_or("--addr needs a value")?.clone(),
            "--stats" => req.kind = RequestKind::Stats,
            "--shutdown" => req.kind = RequestKind::Shutdown,
            "--kind" => {
                let k = it.next().ok_or("--kind needs a value")?;
                req.kind = RequestKind::parse(k).ok_or_else(|| format!("unknown kind {k:?}"))?;
            }
            "--design" => req.design = it.next().ok_or("--design needs a value")?.clone(),
            "--capacity" => {
                req.capacity = it.next().ok_or("--capacity needs a value")?.parse()?;
            }
            "--no-compressor" => req.compressor = false,
            "--timeout-ms" => {
                req.timeout_ms = Some(it.next().ok_or("--timeout-ms needs a value")?.parse()?);
            }
            "--repeat" => repeat = Some(it.next().ok_or("--repeat needs a value")?.parse()?),
            "--slo-p99-ms" => {
                slo_p99_ms = Some(it.next().ok_or("--slo-p99-ms needs a value")?.parse()?);
            }
            "--trace" => trace = true,
            "--trace-id" => {
                let raw = it.next().ok_or("--trace-id needs a value")?;
                trace = true;
                trace_id = Some(
                    parse_trace_id(raw)
                        .ok_or_else(|| format!("--trace-id {raw:?} is not 1-16 hex digits"))?,
                );
            }
            "--trace-out" => {
                trace = true;
                trace_out = it.next().ok_or("--trace-out needs a value")?.clone();
            }
            other if !other.starts_with("--") && req.kernel.is_none() => {
                req.kernel = Some(other.to_string());
            }
            other => return Err(format!("unknown option {other:?}").into()),
        }
    }
    if req.kind.is_simulation() && req.kernel.is_none() {
        return Err("submit: missing kernel (or use --stats / --shutdown)".into());
    }
    if repeat == Some(0) {
        return Err("--repeat must be at least 1".into());
    }
    if slo_p99_ms.is_some_and(|bound| bound.is_nan() || bound < 0.0) {
        return Err("--slo-p99-ms must be a non-negative number of ms".into());
    }
    if repeat.is_some() && trace {
        return Err("--repeat cannot be combined with --trace (one trace per request)".into());
    }
    let trace_id = trace_id.unwrap_or_else(gen_trace_id);
    if trace {
        req.trace_id = Some(format_trace_id(trace_id));
    }
    let mut client = Client::connect(&addr)?;
    let policy = RetryPolicy::default();
    let mut latency_us = Log2Histogram::new();
    let mut failed = 0u64;
    let started = std::time::Instant::now();
    let (mut t0, mut rpc_dur) = (0, 0);
    let mut resp = None;
    for _ in 0..repeat.unwrap_or(1) {
        t0 = epoch_us();
        let reply = client.request_with_retry(&req, &policy)?.response;
        rpc_dur = epoch_us().saturating_sub(t0);
        latency_us.record(rpc_dur);
        failed += u64::from(!reply.ok);
        resp = Some(reply);
    }
    let resp = resp.expect("at least one request was sent");
    println!("{}", resp.clone().into_json().to_string_pretty());
    if trace {
        // The client-side rpc span wraps everything the server reported;
        // merging them into one Chrome trace shows the request's whole
        // life across both processes on the trace id's timeline.
        let mut spans = vec![Span::new(trace_id, "rpc", "client", t0, rpc_dur)
            .arg("addr", addr)
            .arg("kind", req.kind.as_str())];
        if let Some(regless_json::Json::Arr(wire)) = resp.payload_field("trace") {
            spans.extend(wire.iter().filter_map(Span::from_json));
        }
        write_output(
            &trace_out,
            &regless::telemetry::chrome_spans(&spans).to_string_compact(),
        )?;
        eprintln!(
            "wrote {} spans for trace {} to {trace_out}",
            spans.len(),
            format_trace_id(trace_id)
        );
    }
    let p99_ms = latency_us.percentile(99.0) as f64 / 1000.0;
    if repeat.is_some() || slo_p99_ms.is_some() {
        eprintln!(
            "{} ok / {failed} err in {:.2} s; p50 {:.2} ms, p99 {p99_ms:.2} ms",
            latency_us.count() - failed,
            started.elapsed().as_secs_f64(),
            latency_us.percentile(50.0) as f64 / 1000.0,
        );
    }
    let slo_fail = slo_p99_ms.filter(|&bound| p99_ms > bound);
    if let Some(bound) = slo_fail {
        eprintln!("SLO FAIL: p99 {p99_ms:.2} ms exceeds {bound} ms");
    }
    if failed > 0 || slo_fail.is_some() {
        std::process::exit(1);
    }
    Ok(())
}

/// Poll a server's metrics and structured log (`regless obs`).
fn cmd_obs(args: &[String]) -> CmdResult {
    use regless::serve::{Client, Request, RequestKind};
    use regless::telemetry::obs::{LogEvent, MetricsSnapshot};
    let mut addr = regless::serve::DEFAULT_ADDR.to_string();
    let mut format = "table".to_string();
    let mut watch: Option<u64> = None;
    let mut tail = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--format" => format = it.next().ok_or("--format needs a value")?.clone(),
            "--watch" => watch = Some(it.next().ok_or("--watch needs a value")?.parse()?),
            "--tail" => tail = true,
            other if !other.starts_with("--") => addr = other.to_string(),
            other => return Err(format!("unknown option {other:?}").into()),
        }
    }
    if !matches!(format.as_str(), "json" | "prom" | "table") {
        return Err(format!("unknown format {format:?} (json|prom|table)").into());
    }
    // --tail follows continuously; --watch re-prints on its cadence; a
    // plain `regless obs` prints once.
    let interval = std::time::Duration::from_secs(watch.unwrap_or(1).max(1));
    let mut client = Client::connect(&addr)?;
    let mut id = 1u64;
    let mut last_seq: Option<u64> = None;
    let mut polls = 0u64;
    loop {
        let resp = match client.request(&Request::control(id, RequestKind::Metrics)) {
            Ok(resp) => resp,
            // Mid-watch hangup after at least one good poll is the normal
            // end of a drain, not a failure: say so and exit clean. A
            // first-poll error still reports (nothing was ever watched).
            Err(e) if polls > 0 && (tail || watch.is_some()) => {
                let _ = e;
                println!("server drained; stopping after {polls} poll(s)");
                return Ok(());
            }
            Err(e) => return Err(e.into()),
        };
        polls += 1;
        id += 1;
        if !resp.ok {
            let detail = resp
                .error
                .map(|e| e.message)
                .unwrap_or_else(|| "metrics request refused".to_string());
            return Err(detail.into());
        }
        if tail {
            if let Some(regless_json::Json::Arr(events)) = resp.payload_field("log") {
                for ev in events.iter().filter_map(LogEvent::from_json) {
                    if last_seq.is_none_or(|s| ev.seq > s) {
                        last_seq = Some(ev.seq);
                        println!("{}", ev.render());
                    }
                }
            }
        } else {
            let snap = resp
                .payload_field("metrics")
                .and_then(MetricsSnapshot::from_json)
                .ok_or("response carries no parseable metrics")?;
            match format.as_str() {
                "json" => println!("{}", resp.payload.to_string_pretty()),
                "prom" => print!("{}", snap.render_prom()),
                _ => print!("{}", snap.render_table()),
            }
        }
        if !tail && watch.is_none() {
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

/// Parse `--benches`/`--designs` into cluster work units.
fn cluster_units(
    benches: &str,
    designs: &str,
    capacity: usize,
) -> Result<Vec<regless::cluster::WorkUnit>, Box<dyn std::error::Error>> {
    let bench_ids: Vec<String> = if benches.is_empty() {
        rodinia::NAMES
            .iter()
            .map(|n| regless::bench::sweep::rodinia_id(n))
            .collect()
    } else {
        benches
            .split(',')
            .map(|b| {
                let b = b.trim();
                if b.contains('/') {
                    b.to_string()
                } else {
                    regless::bench::sweep::rodinia_id(b)
                }
            })
            .collect()
    };
    for b in &bench_ids {
        if regless::bench::sweep::bench_kernel(b).is_none() {
            return Err(format!("unknown benchmark id {b:?}").into());
        }
    }
    let params = DesignParams {
        capacity,
        ..DesignParams::default()
    };
    let mut kinds = Vec::new();
    for id in designs.split(',') {
        let kind = registry::resolve(id.trim(), &params).map_err(|e| format!("cluster: {e}"))?;
        kind.check(&eval_gpu())
            .map_err(|e| format!("cluster: {e}"))?;
        kinds.push(kind);
    }
    Ok(regless::cluster::units_for(&bench_ids, &kinds))
}

/// Coordinator front door (`regless cluster`).
fn cmd_cluster(args: &[String]) -> CmdResult {
    use regless::cluster::{Coordinator, CoordinatorConfig};
    let mut config = CoordinatorConfig::default();
    let mut workers = 2usize;
    let mut spawn = false;
    let mut benches = String::new();
    let mut designs = "baseline,regless".to_string();
    let mut capacity = 512usize;
    let mut timeout_secs = 3_600u64;
    let mut digest_path: Option<String> = None;
    let mut local = false;
    let mut json = false;
    let mut trace_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => config.addr = it.next().ok_or("--addr needs a value")?.clone(),
            "--workers" => workers = it.next().ok_or("--workers needs a value")?.parse()?,
            "--spawn" => spawn = true,
            "--benches" => benches = it.next().ok_or("--benches needs a value")?.clone(),
            "--designs" => designs = it.next().ok_or("--designs needs a value")?.clone(),
            "--capacity" => capacity = it.next().ok_or("--capacity needs a value")?.parse()?,
            "--liveness-ms" => {
                let ms: u64 = it.next().ok_or("--liveness-ms needs a value")?.parse()?;
                config.liveness_timeout = std::time::Duration::from_millis(ms.max(1));
            }
            "--timeout-secs" => {
                timeout_secs = it.next().ok_or("--timeout-secs needs a value")?.parse()?;
            }
            "--digest" => digest_path = Some(it.next().ok_or("--digest needs a value")?.clone()),
            "--local" => local = true,
            "--json" => json = true,
            "--trace-out" => {
                trace_out = Some(it.next().ok_or("--trace-out needs a value")?.clone());
            }
            "--progress" => config.progress = true,
            other => return Err(format!("unknown option {other:?}").into()),
        }
    }
    if local && trace_out.is_some() {
        return Err("--trace-out needs the coordinator (drop --local)".into());
    }
    let units = cluster_units(&benches, &designs, capacity)?;
    if units.is_empty() {
        return Err("cluster: empty sweep space".into());
    }
    let engine = Arc::new(regless::bench::sweep::SweepEngine::from_env());
    let started = std::time::Instant::now();

    if local {
        // The single-process comparison arm: same units, same engine,
        // same digest format — what CI diffs cluster output against.
        let jobs: Vec<regless::bench::sweep::Key> = units
            .iter()
            .map(|u| (u.bench.clone(), u.design, regless::bench::eval_gpu()))
            .collect();
        let meter = config
            .progress
            .then(|| regless::telemetry::ProgressMeter::new(jobs.len() as u64));
        engine.prefetch(&jobs, meter.as_ref());
        let mut summary = regless::cluster::ClusterSummary {
            units_total: units.len() as u64,
            units_done: units.len() as u64,
            ..Default::default()
        };
        summary.wall_seconds = started.elapsed().as_secs_f64();
        finish_cluster(&engine, &units, &summary, digest_path.as_deref(), json)?;
        return Ok(());
    }

    let handle = Coordinator::start(config.clone(), Arc::clone(&engine), units.clone())?;
    eprintln!("regless-cluster coordinating on {}", handle.addr());
    let mut children = Vec::new();
    if spawn {
        let exe = std::env::current_exe()?;
        for i in 0..workers.max(1) {
            let name = format!("w{i}");
            let mut cmd = std::process::Command::new(&exe);
            cmd.arg("worker")
                .arg("--connect")
                .arg(handle.addr().to_string())
                .arg("--name")
                .arg(&name)
                .stdout(std::process::Stdio::null());
            // Disjoint per-worker disk caches: consistent-hash assignment
            // keeps each one hot across runs.
            if let Ok(base) = std::env::var("REGLESS_SWEEP_DIR") {
                cmd.env("REGLESS_SWEEP_DIR", format!("{base}/worker-{name}"));
            }
            children.push(cmd.spawn()?);
        }
    }
    let complete = handle.wait(std::time::Duration::from_secs(timeout_secs));
    // Stop the stopwatch when the sweep completes: the drain handshake and
    // child teardown below are shutdown cost, not sweep wall-clock.
    let wall_seconds = started.elapsed().as_secs_f64();
    handle.drain();
    for mut child in children {
        let _ = child.wait();
    }
    let mut summary = handle.summary();
    summary.wall_seconds = wall_seconds;
    if let Some(path) = &trace_out {
        // One claim→result span per merged unit, every worker process on
        // one timeline — loadable in Perfetto next to a serve trace.
        let spans = handle.spans();
        write_output(
            path,
            &regless::telemetry::chrome_spans(&spans).to_string_compact(),
        )?;
        eprintln!("wrote {} claim\u{2192}result spans to {path}", spans.len());
    }
    handle.stop();
    if !complete {
        eprint!("{}", summary.render());
        return Err(format!(
            "cluster sweep incomplete: {}/{} units after {timeout_secs} s",
            summary.units_done, summary.units_total
        )
        .into());
    }
    finish_cluster(&engine, &units, &summary, digest_path.as_deref(), json)
}

/// Shared tail of `regless cluster` and `regless cluster --local`: write
/// the digest, print the summary.
fn finish_cluster(
    engine: &regless::bench::sweep::SweepEngine,
    units: &[regless::cluster::WorkUnit],
    summary: &regless::cluster::ClusterSummary,
    digest_path: Option<&str>,
    json: bool,
) -> CmdResult {
    if let Some(path) = digest_path {
        let lines = regless::cluster::merge::digest_lines(engine, units)
            .map_err(|missing| format!("digest incomplete; missing {} units", missing.len()))?;
        write_output(path, &regless::cluster::merge::render_digest(&lines))?;
        eprintln!("wrote digest of {} units to {path}", lines.len());
    }
    eprint!("{}", summary.render());
    if json {
        println!("{}", summary.to_json().to_string_pretty());
    }
    Ok(())
}

/// Worker front door (`regless worker`).
fn cmd_worker(args: &[String]) -> CmdResult {
    use regless::cluster::WorkerConfig;
    let mut config = WorkerConfig::new(
        regless::cluster::DEFAULT_CLUSTER_ADDR,
        &format!("w{}", std::process::id()),
    );
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--connect" => {
                config.coordinator = it.next().ok_or("--connect needs a value")?.clone();
            }
            "--name" => config.name = it.next().ok_or("--name needs a value")?.clone(),
            "--fail-after" => {
                config.fail_after = Some(it.next().ok_or("--fail-after needs a value")?.parse()?);
            }
            other => return Err(format!("unknown option {other:?}").into()),
        }
    }
    let engine = regless::bench::sweep::SweepEngine::from_env();
    let summary = regless::cluster::run_worker(&config, &engine)?;
    eprintln!(
        "worker {} done: {} units completed, {} reconnect attempt(s){}",
        summary.name,
        summary.completed,
        summary.reconnects,
        if summary.injected_failure {
            " (injected failure)"
        } else {
            ""
        }
    );
    Ok(())
}

/// Print the sweep engine's cache report (`regless sweep --stats`), as
/// text or machine-readable JSON (`--format json`).
fn cmd_sweep_stats(args: &[String]) -> CmdResult {
    let mut format = "text".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--format" => format = it.next().ok_or("--format needs a value")?.clone(),
            other => return Err(format!("unknown option {other:?}").into()),
        }
    }
    let engine = regless::bench::sweep::engine();
    match format.as_str() {
        "text" => {
            println!("{}", engine.stats().summary_line());
            print!("{}", engine.cache_dir_report());
        }
        "json" => println!("{}", engine.cache_stats_json().to_string_pretty()),
        other => return Err(format!("unknown format {other:?} (text|json)").into()),
    }
    Ok(())
}

/// Prune orphaned fingerprint directories (`regless sweep --gc`), or just
/// list them when `dry_run` (`--gc --dry-run`).
fn cmd_sweep_gc(dry_run: bool) -> CmdResult {
    let engine = regless::bench::sweep::engine();
    if dry_run {
        let orphans = engine.list_orphans()?;
        if orphans.is_empty() {
            println!("no orphaned cache directories");
        } else {
            let mut bytes = 0u64;
            for o in &orphans {
                println!(
                    "would remove orphan {} ({} entries, {})",
                    o.name,
                    o.entries,
                    regless::telemetry::format_bytes(o.bytes)
                );
                bytes += o.bytes;
            }
            println!(
                "dry run: {} directories, {} reclaimable (run `regless sweep --gc` to delete)",
                orphans.len(),
                regless::telemetry::format_bytes(bytes)
            );
        }
        return Ok(());
    }
    let gc = engine.gc_orphans()?;
    if gc.removed.is_empty() {
        println!("no orphaned cache directories");
    } else {
        for name in &gc.removed {
            println!("removed orphan {name}");
        }
        println!(
            "freed {} across {} directories",
            regless::telemetry::format_bytes(gc.bytes_freed),
            gc.removed.len()
        );
    }
    print!("{}", engine.cache_dir_report());
    Ok(())
}

fn cmd_sweep(args: &[String]) -> CmdResult {
    match args.first().map(String::as_str) {
        Some("--stats") => return cmd_sweep_stats(&args[1..]),
        Some("--gc") => {
            return cmd_sweep_gc(args.get(1).map(String::as_str) == Some("--dry-run"));
        }
        _ => {}
    }
    let spec = args
        .first()
        .ok_or("sweep: missing kernel (or --stats/--gc)")?;
    let mut progress = false;
    for a in &args[1..] {
        match a.as_str() {
            "--progress" => progress = true,
            other => return Err(format!("unknown option {other:?}").into()),
        }
    }
    let kernel = load_kernel(spec)?;
    let gpu = eval_gpu();
    // The sweep is 8 units: the baseline plus seven OSU capacities.
    let meter = progress.then(|| regless::telemetry::ProgressMeter::new(8));
    let run = |design: DesignKind| -> Result<RunReport, Box<dyn std::error::Error>> {
        let r = design.execute(&kernel, gpu, &Attach::default())?;
        if let Some(m) = &meter {
            eprintln!("[sweep] {}", m.note(r.cycles).render());
        }
        Ok(r)
    };
    let base = run(DesignKind::Baseline)?;
    println!(
        "kernel `{}`: baseline {} cycles\n{:>10} {:>11} {:>12}",
        kernel.name(),
        base.cycles,
        "entries",
        "run time",
        "GPU energy"
    );
    let base_e = energy(&base, DesignKind::Baseline.energy_design(), &gpu).total_pj();
    for entries in [128, 192, 256, 384, 512, 1024, 2048] {
        let design = DesignKind::RegLess(RegLessConfig::with_capacity(entries));
        let r = run(design)?;
        let e = energy(&r, design.energy_design(), &gpu);
        println!(
            "{:>10} {:>10.3}x {:>11.3}x",
            entries,
            r.cycles as f64 / base.cycles as f64,
            e.total_pj() / base_e
        );
    }
    Ok(())
}

/// The one trend store: `regless trends` ingests the benchmark artifact
/// into it and `regless report --trend` appends run rows to it.
const TREND_STORE: &str = "results/trends.jsonl";

/// Stamp `rows` with the current time and append them to the trend store
/// at `path` (created with its parent directories on first use). No rows,
/// no file.
fn append_trends(path: &str, mut rows: Vec<TrendPoint>) -> std::io::Result<()> {
    use std::io::Write as _;
    if rows.is_empty() {
        return Ok(());
    }
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let mut lines = String::new();
    for row in &mut rows {
        row.ts = ts;
        lines.push_str(&row.to_jsonl_line());
        lines.push('\n');
    }
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?
        .write_all(lines.as_bytes())
}

/// The perf-trend observatory (`regless trends`): distill the benchmark
/// artifact into append-only trend rows, gate on rolling-median
/// regressions, and render the HTML dashboard. The gate runs *after* the
/// dashboard is written so a failing CI job still uploads the artifact
/// that explains the failure.
fn cmd_trends(args: &[String]) -> CmdResult {
    use regless::telemetry::{detect_regressions, ingest, render_trends_html};
    let mut results_dir = "results".to_string();
    let mut history = TREND_STORE.to_string();
    let mut fail_above: Option<f64> = None;
    let mut html_out: Option<String> = None;
    let mut no_ingest = false;
    let mut window = DEFAULT_WINDOW;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--results" => results_dir = it.next().ok_or("--results needs a value")?.clone(),
            "--history" => history = it.next().ok_or("--history needs a value")?.clone(),
            "--fail-above" => {
                fail_above = Some(it.next().ok_or("--fail-above needs a value")?.parse()?);
            }
            "--html" => html_out = Some(it.next().ok_or("--html needs a value")?.clone()),
            "--no-ingest" => no_ingest = true,
            "--window" => {
                window = it.next().ok_or("--window needs a value")?.parse()?;
                if window < 2 {
                    return Err("--window must be at least 2".into());
                }
            }
            other => return Err(format!("unknown option {other:?}").into()),
        }
    }

    if !no_ingest {
        let path = std::path::Path::new(&results_dir).join("BENCH_profile.json");
        let rows = match std::fs::read_to_string(&path) {
            // An absent artifact is normal: there is nothing to ingest.
            Err(_) => Vec::new(),
            Ok(text) => match regless_json::Json::parse(&text) {
                Ok(json) => ingest(&json),
                Err(_) => {
                    eprintln!("warning: {} is not valid JSON; skipped", path.display());
                    Vec::new()
                }
            },
        };
        let appended = rows.len();
        append_trends(&history, rows)?;
        eprintln!("ingested {appended} metric rows into {history}");
    }

    let points = parse_trends(&std::fs::read_to_string(&history).unwrap_or_default());
    print!("{}", trends_table(&points, window));
    if let Some(path) = &html_out {
        write_output(path, &render_trends_html(&points, window))?;
        eprintln!("wrote trend dashboard to {path}");
    }
    if let Some(threshold) = fail_above {
        let regressions = detect_regressions(&points, window, threshold);
        if !regressions.is_empty() {
            for r in &regressions {
                eprintln!("{}", r.render(threshold));
            }
            std::process::exit(1);
        }
        eprintln!("trend gate: no metric is {threshold}% worse than its rolling median");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::write_output;

    #[test]
    fn write_output_creates_missing_parent_dirs() {
        let dir = std::env::temp_dir().join(format!("regless-out-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let nested = dir.join("a/b/c.txt");
        let path = nested.to_str().unwrap();
        write_output(path, "hello").unwrap();
        assert_eq!(std::fs::read_to_string(&nested).unwrap(), "hello");
        // Overwrites in place on the second call.
        write_output(path, "again").unwrap();
        assert_eq!(std::fs::read_to_string(&nested).unwrap(), "again");
        // Bare file names (no parent) also work.
        let cwd_ok = write_output(dir.join("top.txt").to_str().unwrap(), "x");
        assert!(cwd_ok.is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
