//! The server: admission control, request coalescing, a cancellable
//! worker pool, and graceful drain.
//!
//! One thread accepts connections and spawns a thread per client; each
//! client thread parses JSONL requests and either answers inline
//! (`stats`, `shutdown`, cache hits, rejections) or enqueues a job and
//! blocks on its completion. A fixed worker pool pops jobs, runs the
//! simulator under `catch_unwind` with a [`CancelToken`] threaded into
//! the tick loop, and publishes the result to every waiter at once.

use crate::proto::{
    read_json_line, write_json_line, ErrorBody, ErrorCode, Request, RequestKind, Response,
};
use regless_bench::profile::ProfileReport;
use regless_bench::registry::{self, DesignParams};
use regless_bench::report::collect as report_collect;
use regless_bench::sweep::{
    bench_kernel, bench_kernel_name, rodinia_id, CachedRun, RunVariant, SweepEngine,
};
use regless_bench::{eval_gpu, Attach, DesignKind, RunError};
use regless_isa::text::parse_kernel;
use regless_isa::Kernel;
use regless_json::{Json, ToJson};
use regless_sim::{CancelToken, RunReport, SimError};
use regless_telemetry::obs::{
    epoch_us, format_trace_id, parse_trace_id, EventLog, LogLevel, MetricsSnapshot, Span,
    DEFAULT_LOG_CAPACITY,
};
use regless_telemetry::Log2Histogram;
use regless_workloads::rodinia;
use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address; use port 0 for an ephemeral port (tests, CI).
    pub addr: String,
    /// Worker threads; 0 means `available_parallelism() - 1` (min 1).
    pub workers: usize,
    /// Maximum queued (not yet running) jobs before admission control
    /// answers `queue_full`.
    pub queue_capacity: usize,
    /// How long [`ServerHandle::drain`] waits for in-flight jobs before
    /// giving up.
    pub drain_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: crate::DEFAULT_ADDR.to_string(),
            workers: 0,
            queue_capacity: 64,
            drain_timeout: Duration::from_secs(30),
        }
    }
}

/// Resolve a request's design fields through the design registry and
/// check its parameters. Designs ignore the wire's `capacity` and
/// `compressor` fields unless they declare them.
///
/// # Errors
///
/// Returns an `unknown_design` [`ErrorBody`] — naming the id and listing
/// every valid id — for an unregistered id, and a `bad_request` one for a
/// RegLess capacity too small for the OSU shape.
fn resolve_design(req: &Request) -> Result<DesignKind, ErrorBody> {
    let params = DesignParams {
        capacity: req.capacity,
        compressor: req.compressor,
    };
    let design = registry::resolve(&req.design, &params)
        .map_err(|e| ErrorBody::new(ErrorCode::UnknownDesign, e))?;
    design
        .check(&eval_gpu())
        .map_err(|e| ErrorBody::new(ErrorCode::BadRequest, e))?;
    Ok(design)
}

/// What makes two requests "the same simulation": the resolved kernel
/// plus the design point. The request *kind* is deliberately excluded —
/// `run`, `profile`, and `report` all derive from one [`RunReport`], so a
/// profile request coalesces with an in-flight run of the same work.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct JobKey {
    kernel: String,
    design: DesignKind,
}

/// What a request simulates, as resolved from its kernel spec.
enum JobKernel {
    /// A built-in benchmark id and its kernel name. Its result is a
    /// deterministic function of the id, so it is cached under the sweep
    /// engine's fingerprint; the kernel itself is generated only by the
    /// worker that simulates it, never on a cache hit.
    Bench { id: String, name: &'static str },
    /// A parsed `.asm` file: uncached (the cache is keyed by id, not
    /// content).
    File(Kernel),
}

impl JobKernel {
    fn name(&self) -> &str {
        match self {
            JobKernel::Bench { name, .. } => name,
            JobKernel::File(kernel) => kernel.name(),
        }
    }
}

/// One admitted simulation, shared by every coalesced waiter.
struct Job {
    key: JobKey,
    kernel: JobKernel,
    /// Deadline-free token: waiters each enforce their own deadline, and
    /// only the *last* abandoning waiter cancels the simulation (an early
    /// short deadline must not kill work a patient waiter still wants).
    token: CancelToken,
    waiters: AtomicUsize,
    result: Mutex<Option<Result<Arc<CachedRun>, ErrorBody>>>,
    done: Condvar,
    /// Tracing timestamps (epoch µs), written unconditionally — three
    /// relaxed stores per job, never read by the simulation. `enqueued_us`
    /// is set at admission; workers stamp the other two, and traced
    /// waiters turn the three into `queue` and `sim` spans.
    enqueued_us: u64,
    picked_us: AtomicU64,
    sim_done_us: AtomicU64,
}

/// The process label serve's spans and log events carry.
const OBS_PROCESS: &str = "serve";

/// Trace context for one traced request: the parsed id plus the spans
/// collected on its behalf, returned in-band in the success payload.
struct TraceCtx {
    id: u64,
    spans: Vec<Span>,
}

/// Monotone counters exposed by `stats`.
#[derive(Default)]
struct ServeCounters {
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected_queue_full: AtomicU64,
    coalesce_hits: AtomicU64,
    cache_hits: AtomicU64,
    simulations: AtomicU64,
    timeouts: AtomicU64,
    cancelled: AtomicU64,
    panics: AtomicU64,
    sim_errors: AtomicU64,
    /// Gauge: jobs admitted but not yet finished (queued + running).
    in_flight: AtomicU64,
}

/// Request-latency histograms, one per simulation kind (milliseconds).
#[derive(Default)]
struct LatencyHists {
    run: Log2Histogram,
    profile: Log2Histogram,
    report: Log2Histogram,
}

struct QueueState {
    jobs: VecDeque<Arc<Job>>,
    /// Once closed no job is ever pushed again; workers drain what is
    /// left and exit.
    closed: bool,
}

/// State shared by the accept thread, client threads, and workers.
struct Shared {
    config: ServeConfig,
    engine: Arc<SweepEngine>,
    queue: Mutex<QueueState>,
    queue_cv: Condvar,
    /// In-flight jobs by key, for coalescing. A job is removed the moment
    /// its result is published, so late arrivals hit the sweep cache
    /// instead.
    pending: Mutex<HashMap<JobKey, Arc<Job>>>,
    counters: ServeCounters,
    latency: Mutex<LatencyHists>,
    /// Set by a `shutdown` request (or [`ServerHandle::shutdown`]): new
    /// simulation requests are refused; control requests still answer.
    shutdown: AtomicBool,
    stop: Mutex<bool>,
    stop_cv: Condvar,
    /// Set by [`ServerHandle::drain`] right before the wake-up connection:
    /// only then does the accept thread exit. During the drain window
    /// itself, new connections still get structured `shutting_down`
    /// answers instead of a hangup.
    accept_closed: AtomicBool,
    live_workers: Mutex<usize>,
    workers_cv: Condvar,
    /// When the server started, for the `stats` uptime field — cluster
    /// coordinators health-check serve endpoints with it. Monotonic by
    /// construction (`Instant`), so a wall-clock step never yields a
    /// negative or absurd uptime.
    started: Instant,
    /// Bounded structured event log (queue_full, panics, drain), served
    /// by the `metrics` request and tailed by `regless obs --tail`.
    log: EventLog,
}

impl Shared {
    fn stats_json(&self) -> Json {
        let c = &self.counters;
        let load = |a: &AtomicU64| ToJson::to_json(&a.load(Ordering::Relaxed));
        let queue_depth = self.queue.lock().expect("queue poisoned").jobs.len();
        let hist_json = |h: &Log2Histogram| {
            Json::Obj(vec![
                ("count".to_string(), ToJson::to_json(&h.count())),
                ("mean_ms".to_string(), Json::Float(h.mean())),
                ("p50_ms".to_string(), ToJson::to_json(&h.percentile(50.0))),
                ("p99_ms".to_string(), ToJson::to_json(&h.percentile(99.0))),
                ("max_ms".to_string(), ToJson::to_json(&h.max())),
            ])
        };
        let latency = {
            let l = self.latency.lock().expect("latency poisoned");
            Json::Obj(vec![
                ("run".to_string(), hist_json(&l.run)),
                ("profile".to_string(), hist_json(&l.profile)),
                ("report".to_string(), hist_json(&l.report)),
            ])
        };
        let uptime_ms = u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX);
        Json::Obj(vec![
            ("kind".to_string(), Json::Str("stats".to_string())),
            ("uptime_ms".to_string(), ToJson::to_json(&uptime_ms)),
            (
                "protocol_version".to_string(),
                ToJson::to_json(&crate::proto::PROTOCOL_VERSION),
            ),
            ("queue_depth".to_string(), ToJson::to_json(&queue_depth)),
            ("in_flight".to_string(), load(&c.in_flight)),
            (
                "queue_capacity".to_string(),
                ToJson::to_json(&self.config.queue_capacity),
            ),
            ("submitted".to_string(), load(&c.submitted)),
            ("completed".to_string(), load(&c.completed)),
            (
                "rejected_queue_full".to_string(),
                load(&c.rejected_queue_full),
            ),
            ("coalesce_hits".to_string(), load(&c.coalesce_hits)),
            ("cache_hits".to_string(), load(&c.cache_hits)),
            ("simulations".to_string(), load(&c.simulations)),
            ("timeouts".to_string(), load(&c.timeouts)),
            ("cancelled".to_string(), load(&c.cancelled)),
            ("panics".to_string(), load(&c.panics)),
            ("sim_errors".to_string(), load(&c.sim_errors)),
            (
                "draining".to_string(),
                Json::Bool(self.shutdown.load(Ordering::Acquire)),
            ),
            (
                "cache_fingerprint".to_string(),
                Json::Str(SweepEngine::fingerprint()),
            ),
            ("latency".to_string(), latency),
        ])
    }

    /// Retry-after hint for `queue_full`: roughly one mean request
    /// latency, clamped to a sane band; 250 ms before any data exists.
    fn retry_after_ms(&self) -> u64 {
        let l = self.latency.lock().expect("latency poisoned");
        let mut merged = l.run.clone();
        merged.merge(&l.profile);
        merged.merge(&l.report);
        if merged.count() == 0 {
            250
        } else {
            (merged.mean() as u64).clamp(50, 5_000)
        }
    }

    fn request_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::AcqRel) {
            self.log
                .log(LogLevel::Info, OBS_PROCESS, "drain requested", None, &[]);
        }
        let mut stopped = self.stop.lock().expect("stop poisoned");
        *stopped = true;
        self.stop_cv.notify_all();
    }

    /// The `metrics` response payload: a [`MetricsSnapshot`] of every
    /// serve counter/gauge/latency histogram plus the retained event log.
    fn metrics_json(&self) -> Json {
        let c = &self.counters;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let mut snap = MetricsSnapshot::new(OBS_PROCESS);
        snap.counter(
            "regless_serve_submitted_total",
            "Simulation requests received",
            load(&c.submitted),
        );
        snap.counter(
            "regless_serve_completed_total",
            "Simulation requests answered successfully",
            load(&c.completed),
        );
        snap.counter(
            "regless_serve_rejected_queue_full_total",
            "Requests refused by admission control",
            load(&c.rejected_queue_full),
        );
        snap.counter(
            "regless_serve_coalesce_hits_total",
            "Requests coalesced onto an in-flight job",
            load(&c.coalesce_hits),
        );
        snap.counter(
            "regless_serve_cache_hits_total",
            "Requests answered from the sweep cache",
            load(&c.cache_hits),
        );
        snap.counter(
            "regless_serve_simulations_total",
            "Simulations actually executed",
            load(&c.simulations),
        );
        snap.counter(
            "regless_serve_timeouts_total",
            "Requests whose deadline expired",
            load(&c.timeouts),
        );
        snap.counter(
            "regless_serve_cancelled_total",
            "Simulations cancelled cooperatively",
            load(&c.cancelled),
        );
        snap.counter(
            "regless_serve_panics_total",
            "Simulation panics isolated by catch_unwind",
            load(&c.panics),
        );
        snap.counter(
            "regless_serve_sim_errors_total",
            "Simulations that returned an error",
            load(&c.sim_errors),
        );
        snap.gauge(
            "regless_serve_in_flight",
            "Jobs admitted but not yet finished",
            load(&c.in_flight) as f64,
        );
        snap.gauge(
            "regless_serve_queue_depth",
            "Jobs queued and not yet running",
            self.queue.lock().expect("queue poisoned").jobs.len() as f64,
        );
        snap.gauge(
            "regless_serve_queue_capacity",
            "Admission-control queue bound",
            self.config.queue_capacity as f64,
        );
        snap.gauge(
            "regless_serve_uptime_seconds",
            "Seconds since the server started (monotonic clock)",
            self.started.elapsed().as_secs_f64(),
        );
        snap.counter(
            "regless_serve_log_dropped_total",
            "Log events evicted from the bounded ring before export",
            self.log.dropped(),
        );
        // Host-side self-profile of the shared sweep engine (empty, and
        // free, unless REGLESS_SELFPROF is set).
        self.engine.self_profiler().fold_into(&mut snap, "sweep");
        {
            let l = self.latency.lock().expect("latency poisoned");
            snap.summary(
                "regless_serve_run_latency_ms",
                "run request latency in milliseconds",
                &l.run,
            );
            snap.summary(
                "regless_serve_profile_latency_ms",
                "profile request latency in milliseconds",
                &l.profile,
            );
            snap.summary(
                "regless_serve_report_latency_ms",
                "report request latency in milliseconds",
                &l.report,
            );
        }
        let log = self
            .log
            .snapshot_since(None)
            .iter()
            .map(|e| e.to_json())
            .collect();
        Json::Obj(vec![
            ("kind".to_string(), Json::Str("metrics".to_string())),
            ("metrics".to_string(), snap.to_json()),
            ("log".to_string(), Json::Arr(log)),
            ("log_total".to_string(), ToJson::to_json(&self.log.total())),
        ])
    }
}

/// Namespace for [`Server::start`].
pub struct Server;

/// A running server: its bound address plus the handles needed to drain
/// it. Dropping the handle without calling [`ServerHandle::drain`] leaves
/// the threads running for the life of the process.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the worker pool and the accept thread, and return a
    /// handle. The engine is shared so server results land in the same
    /// memo table and disk cache the CLI and experiment binaries use.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the address is unavailable.
    pub fn start(config: ServeConfig, engine: Arc<SweepEngine>) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let workers = if config.workers > 0 {
            config.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get().saturating_sub(1))
                .unwrap_or(1)
                .max(1)
        };
        let shared = Arc::new(Shared {
            config,
            engine,
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            queue_cv: Condvar::new(),
            pending: Mutex::new(HashMap::new()),
            counters: ServeCounters::default(),
            latency: Mutex::new(LatencyHists::default()),
            shutdown: AtomicBool::new(false),
            stop: Mutex::new(false),
            stop_cv: Condvar::new(),
            accept_closed: AtomicBool::new(false),
            live_workers: Mutex::new(workers),
            workers_cv: Condvar::new(),
            started: Instant::now(),
            log: EventLog::new(DEFAULT_LOG_CAPACITY),
        });
        let worker_handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("regless-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("regless-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn accept thread")
        };
        Ok(ServerHandle {
            addr,
            shared,
            accept: Some(accept),
            workers: worker_handles,
        })
    }
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the server statistics (same shape as a `stats`
    /// response payload).
    pub fn stats_json(&self) -> Json {
        self.shared.stats_json()
    }

    /// Ask the server to stop, exactly as a `shutdown` request would.
    pub fn shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Block until a `shutdown` request arrives (or [`Self::shutdown`] is
    /// called from another thread).
    pub fn wait_for_shutdown(&self) {
        let mut stopped = self.shared.stop.lock().expect("stop poisoned");
        while !*stopped {
            stopped = self.shared.stop_cv.wait(stopped).expect("stop cv poisoned");
        }
    }

    /// Drain: refuse new work, let workers finish queued and running
    /// jobs, then join every thread.
    ///
    /// # Errors
    ///
    /// Returns `Err` with the number of still-live workers if they do not
    /// finish within the configured drain timeout — the CI smoke test
    /// turns that into a non-zero exit.
    pub fn drain(mut self) -> Result<(), usize> {
        self.shared.request_shutdown();
        {
            let mut q = self.shared.queue.lock().expect("queue poisoned");
            q.closed = true;
            self.shared.queue_cv.notify_all();
        }
        let deadline = self.shared.config.drain_timeout;
        let (live, timed_out) = {
            let guard = self.shared.live_workers.lock().expect("workers poisoned");
            let (guard, res) = self
                .shared
                .workers_cv
                .wait_timeout_while(guard, deadline, |n| *n > 0)
                .expect("workers cv poisoned");
            (*guard, res.timed_out())
        };
        if timed_out && live > 0 {
            return Err(live);
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // The accept thread is parked in `accept`; a throwaway connection
        // wakes it so it can observe the closed flag and exit.
        self.shared.accept_closed.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        Ok(())
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.accept_closed.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Request-response protocol: Nagle coalescing only adds latency
        // (multi-segment responses stall on the client's delayed ACK).
        let _ = stream.set_nodelay(true);
        let shared = Arc::clone(shared);
        // Connection threads are detached: they die with their client (or
        // with the process after drain).
        let _ = std::thread::Builder::new()
            .name("regless-conn".to_string())
            .spawn(move || connection_loop(stream, &shared));
    }
}

fn connection_loop(stream: TcpStream, shared: &Arc<Shared>) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(write_half);
    loop {
        let json = match read_json_line(&mut reader) {
            Ok(Some(v)) => v,
            Ok(None) | Err(_) => return,
        };
        // Echo the id even when the request itself fails to parse.
        let id = json
            .field_opt("id")
            .ok()
            .flatten()
            .and_then(|v| regless_json::FromJson::from_json(v).ok())
            .unwrap_or(0u64);
        let (response, stop) = match Request::from_json(&json) {
            Ok(req) => (
                handle_request(shared, &req),
                matches!(req.kind, RequestKind::Shutdown),
            ),
            Err(e) => (
                Response::failure(id, ErrorBody::new(ErrorCode::BadRequest, e.message)),
                false,
            ),
        };
        let written = write_json_line(&mut writer, &response.into_json());
        // A `shutdown` is signalled only once its reply is flushed: with
        // nothing in flight the drain returns at once, and the process may
        // exit before a reply written later reaches the socket.
        if stop {
            shared.request_shutdown();
        }
        if written.is_err() {
            return;
        }
    }
}

/// Resolve a request's kernel spec: built-in benchmark ids (cacheable)
/// first, then bare Rodinia names, then `.asm` files (uncacheable — the
/// cache is keyed by id, not content). Benchmark ids resolve by name
/// alone; only files are read and parsed here.
fn resolve_kernel(spec: &str) -> Result<JobKernel, ErrorBody> {
    // A bare Rodinia name aliases its benchmark id.
    let id = if rodinia::NAMES.contains(&spec) {
        rodinia_id(spec)
    } else {
        spec.to_string()
    };
    if let Some(name) = bench_kernel_name(&id) {
        return Ok(JobKernel::Bench { id, name });
    }
    if std::path::Path::new(spec).exists() {
        let text = std::fs::read_to_string(spec)
            .map_err(|e| ErrorBody::new(ErrorCode::BadRequest, format!("read {spec:?}: {e}")))?;
        let kernel = parse_kernel(&text)
            .map_err(|e| ErrorBody::new(ErrorCode::BadRequest, format!("parse {spec:?}: {e}")))?;
        return Ok(JobKernel::File(kernel));
    }
    Err(ErrorBody::new(
        ErrorCode::BadRequest,
        format!("{spec:?} is neither a benchmark id nor a readable .asm file"),
    ))
}

fn handle_request(shared: &Arc<Shared>, req: &Request) -> Response {
    match req.kind {
        RequestKind::Stats => Response::success(req.id, shared.stats_json()),
        RequestKind::Metrics => Response::success(req.id, shared.metrics_json()),
        // The connection loop signals the stop after sending this reply.
        RequestKind::Shutdown => Response::success(
            req.id,
            Json::Obj(vec![("draining".to_string(), Json::Bool(true))]),
        ),
        RequestKind::Run | RequestKind::Profile | RequestKind::Report => {
            handle_simulation(shared, req)
        }
        RequestKind::Claim | RequestKind::Result | RequestKind::Heartbeat => Response::failure(
            req.id,
            ErrorBody::new(
                ErrorCode::BadRequest,
                format!(
                    "{:?} is a cluster RPC; this is a serve endpoint — connect the worker \
                     to a `regless cluster` coordinator instead",
                    req.kind.as_str()
                ),
            ),
        ),
    }
}

fn handle_simulation(shared: &Arc<Shared>, req: &Request) -> Response {
    shared.counters.submitted.fetch_add(1, Ordering::Relaxed);
    if shared.shutdown.load(Ordering::Acquire) {
        return Response::failure(
            req.id,
            ErrorBody::new(ErrorCode::ShuttingDown, "server is draining"),
        );
    }
    let design = match resolve_design(req) {
        Ok(d) => d,
        Err(e) => return Response::failure(req.id, e),
    };
    let Some(spec) = req.kernel.as_deref() else {
        return Response::failure(
            req.id,
            ErrorBody::new(ErrorCode::BadRequest, "missing `kernel`"),
        );
    };
    // Trace context, when the client stamped a parseable trace_id. All
    // span bookkeeping is gated on it: untraced requests take the exact
    // pre-tracing path (and traced ones only ever read wall clocks the
    // simulation never sees).
    let mut trace = req
        .trace_id
        .as_deref()
        .and_then(parse_trace_id)
        .map(|id| TraceCtx {
            id,
            spans: Vec::new(),
        });
    let t_entry = if trace.is_some() { epoch_us() } else { 0 };
    let kernel = match resolve_kernel(spec) {
        Ok(k) => k,
        Err(e) => return Response::failure(req.id, e),
    };
    if let Some(t) = trace.as_mut() {
        t.spans.push(Span::new(
            t.id,
            "admission",
            OBS_PROCESS,
            t_entry,
            epoch_us().saturating_sub(t_entry),
        ));
    }
    let started = Instant::now();

    // Fast path: a benchmark already in the shared cache never queues,
    // and its kernel is never generated.
    if let JobKernel::Bench { id, name } = &kernel {
        let t_cache = if trace.is_some() { epoch_us() } else { 0 };
        let hit = shared.engine.lookup(id, RunVariant::Design(design));
        if let Some(t) = trace.as_mut() {
            t.spans.push(
                Span::new(
                    t.id,
                    "cache",
                    OBS_PROCESS,
                    t_cache,
                    epoch_us().saturating_sub(t_cache),
                )
                .arg("hit", if hit.is_some() { "true" } else { "false" }),
            );
        }
        if let Some(run) = hit {
            shared.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
            return finish_ok(shared, req, design, name, &run, "cache", started, trace);
        }
    }

    let job = match admit(shared, req, design, kernel) {
        Ok(job) => job,
        Err(e) => return Response::failure(req.id, e),
    };
    let coalesced = job.1;
    let source = if coalesced { "coalesced" } else { "simulated" };
    let job = job.0;
    if let Some(t) = trace.as_mut() {
        if coalesced {
            t.spans
                .push(Span::new(t.id, "coalesce", OBS_PROCESS, epoch_us(), 0));
        }
    }

    // Wait for the worker (or an already-published result), enforcing
    // this waiter's own deadline.
    let deadline = req.timeout_ms.map(Duration::from_millis);
    let mut result = job.result.lock().expect("job result poisoned");
    loop {
        if let Some(outcome) = result.as_ref() {
            let outcome = outcome.clone();
            drop(result);
            job.waiters.fetch_sub(1, Ordering::AcqRel);
            if let Some(t) = trace.as_mut() {
                // The job's stamps cover the *shared* simulation this
                // waiter rode, whether it admitted the job or coalesced.
                let picked = job.picked_us.load(Ordering::Acquire);
                let sim_done = job.sim_done_us.load(Ordering::Acquire);
                if picked >= job.enqueued_us && picked > 0 {
                    t.spans.push(Span::new(
                        t.id,
                        "queue",
                        OBS_PROCESS,
                        job.enqueued_us,
                        picked - job.enqueued_us,
                    ));
                }
                if picked > 0 && sim_done >= picked {
                    t.spans.push(
                        Span::new(t.id, "sim", OBS_PROCESS, picked, sim_done - picked)
                            .arg("source", source),
                    );
                }
            }
            return match outcome {
                Ok(run) => finish_ok(
                    shared,
                    req,
                    design,
                    job.kernel.name(),
                    &run,
                    source,
                    started,
                    trace,
                ),
                Err(e) => Response::failure(req.id, e),
            };
        }
        match deadline {
            Some(limit) => {
                let elapsed = started.elapsed();
                if elapsed >= limit {
                    drop(result);
                    return abandon(shared, req, &job, elapsed);
                }
                let (guard, _) = job
                    .done
                    .wait_timeout(result, limit - elapsed)
                    .expect("job cv poisoned");
                result = guard;
            }
            None => {
                result = job.done.wait(result).expect("job cv poisoned");
            }
        }
    }
}

/// Coalesce onto an in-flight job or admit a new one through the bounded
/// queue. The boolean is true when the request coalesced.
#[allow(clippy::type_complexity)]
fn admit(
    shared: &Arc<Shared>,
    req: &Request,
    design: DesignKind,
    kernel: JobKernel,
) -> Result<(Arc<Job>, bool), ErrorBody> {
    let key = JobKey {
        kernel: match &kernel {
            JobKernel::Bench { id, .. } => id.clone(),
            JobKernel::File(_) => req
                .kernel
                .clone()
                .expect("simulation requests have kernels"),
        },
        design,
    };
    let mut pending = shared.pending.lock().expect("pending poisoned");
    if let Some(job) = pending.get(&key) {
        job.waiters.fetch_add(1, Ordering::AcqRel);
        shared
            .counters
            .coalesce_hits
            .fetch_add(1, Ordering::Relaxed);
        return Ok((Arc::clone(job), true));
    }
    // Admission control: the queue bound is checked under the pending
    // lock so coalescing and rejection cannot race each other.
    let mut queue = shared.queue.lock().expect("queue poisoned");
    if queue.closed {
        return Err(ErrorBody::new(
            ErrorCode::ShuttingDown,
            "server is draining",
        ));
    }
    if queue.jobs.len() >= shared.config.queue_capacity {
        shared
            .counters
            .rejected_queue_full
            .fetch_add(1, Ordering::Relaxed);
        shared.log.log(
            LogLevel::Warn,
            OBS_PROCESS,
            "queue_full: request rejected by admission control",
            req.trace_id.as_deref().and_then(parse_trace_id),
            &[
                ("queued", queue.jobs.len().to_string()),
                ("capacity", shared.config.queue_capacity.to_string()),
                ("kernel", key.kernel.clone()),
            ],
        );
        let mut e = ErrorBody::new(
            ErrorCode::QueueFull,
            format!(
                "queue full ({} jobs queued, capacity {})",
                queue.jobs.len(),
                shared.config.queue_capacity
            ),
        );
        e.retry_after_ms = Some(shared.retry_after_ms());
        return Err(e);
    }
    let job = Arc::new(Job {
        key: key.clone(),
        kernel,
        token: CancelToken::new(),
        waiters: AtomicUsize::new(1),
        result: Mutex::new(None),
        done: Condvar::new(),
        enqueued_us: epoch_us(),
        picked_us: AtomicU64::new(0),
        sim_done_us: AtomicU64::new(0),
    });
    queue.jobs.push_back(Arc::clone(&job));
    shared.counters.in_flight.fetch_add(1, Ordering::Relaxed);
    shared.queue_cv.notify_one();
    drop(queue);
    pending.insert(key, Arc::clone(&job));
    Ok((job, false))
}

/// This waiter's deadline expired. The *last* waiter to abandon a job
/// cancels its token, so the simulation stops at the next cycle boundary
/// instead of burning a worker for a result nobody wants.
fn abandon(shared: &Arc<Shared>, req: &Request, job: &Arc<Job>, elapsed: Duration) -> Response {
    shared.counters.timeouts.fetch_add(1, Ordering::Relaxed);
    if job.waiters.fetch_sub(1, Ordering::AcqRel) == 1 {
        job.token.cancel();
    }
    Response::failure(
        req.id,
        ErrorBody::new(
            ErrorCode::Timeout,
            format!(
                "deadline of {} ms exceeded after {} ms; simulation cancelled cooperatively",
                req.timeout_ms.unwrap_or(0),
                elapsed.as_millis()
            ),
        ),
    )
}

/// Render a successful result for the request's kind and record latency.
/// A `run` reply splices the run's compact report text, rendered once per
/// cached run and shared by every later reply. A traced request gets a
/// `serialize` span covering the payload render, then its whole span
/// collection back as the `trace` payload field — appended *after* the
/// report so the report bytes are untouched.
#[allow(clippy::too_many_arguments)]
fn finish_ok(
    shared: &Arc<Shared>,
    req: &Request,
    design: DesignKind,
    kernel: &str,
    run: &CachedRun,
    source: &str,
    started: Instant,
    trace: Option<TraceCtx>,
) -> Response {
    let elapsed_ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
    {
        let mut l = shared.latency.lock().expect("latency poisoned");
        match req.kind {
            RequestKind::Run => l.run.record(elapsed_ms),
            RequestKind::Profile => l.profile.record(elapsed_ms),
            _ => l.report.record(elapsed_ms),
        }
    }
    shared.counters.completed.fetch_add(1, Ordering::Relaxed);
    let t_serialize = if trace.is_some() { epoch_us() } else { 0 };
    let mut payload = vec![
        ("kind".to_string(), Json::Str(req.kind.as_str().to_string())),
        ("kernel".to_string(), Json::Str(kernel.to_string())),
        ("design".to_string(), Json::Str(req.design.clone())),
        ("source".to_string(), Json::Str(source.to_string())),
        ("cycles".to_string(), ToJson::to_json(&run.cycles)),
        ("ipc".to_string(), Json::Float(run.ipc())),
    ];
    match req.kind {
        RequestKind::Run => {
            payload.push(("report".to_string(), Json::Raw(run.stable_text())));
        }
        RequestKind::Profile => {
            let profile = ProfileReport::collect(run, kernel, &req.design, design.osu_capacity());
            payload.push(("profile".to_string(), profile.to_json()));
        }
        _ => {
            let full = report_collect(run, kernel, &req.design, design.osu_capacity());
            payload.push(("summary".to_string(), full.summary().to_json()));
        }
    }
    if let Some(mut t) = trace {
        t.spans.push(Span::new(
            t.id,
            "serialize",
            OBS_PROCESS,
            t_serialize,
            epoch_us().saturating_sub(t_serialize),
        ));
        payload.push(("trace_id".to_string(), Json::Str(format_trace_id(t.id))));
        payload.push((
            "trace".to_string(),
            Json::Arr(t.spans.iter().map(Span::to_json).collect()),
        ));
    }
    Response::success(req.id, Json::Obj(payload))
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("queue poisoned");
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break Some(job);
                }
                if queue.closed {
                    break None;
                }
                queue = shared.queue_cv.wait(queue).expect("queue cv poisoned");
            }
        };
        let Some(job) = job else { break };
        run_job(shared, &job);
    }
    let mut live = shared.live_workers.lock().expect("workers poisoned");
    *live -= 1;
    shared.workers_cv.notify_all();
}

fn run_job(shared: &Arc<Shared>, job: &Arc<Job>) {
    job.picked_us.store(epoch_us(), Ordering::Release);
    // Every waiter already gave up and tripped the token: skip the
    // simulation entirely.
    let outcome = if job.token.is_cancelled() && job.waiters.load(Ordering::Acquire) == 0 {
        shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
        Err(ErrorBody::new(
            ErrorCode::Timeout,
            "cancelled before execution",
        ))
    } else {
        shared.counters.simulations.fetch_add(1, Ordering::Relaxed);
        match catch_unwind(AssertUnwindSafe(|| execute(job))) {
            Ok(Ok(report)) => {
                let report = Arc::new(report);
                Ok(match &job.kernel {
                    JobKernel::Bench { id, .. } => {
                        shared
                            .engine
                            .insert(id, RunVariant::Design(job.key.design), report)
                    }
                    JobKernel::File(_) => Arc::new(CachedRun::new(report)),
                })
            }
            Ok(Err(e)) => {
                match e.code {
                    ErrorCode::Timeout => {
                        shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {
                        shared.counters.sim_errors.fetch_add(1, Ordering::Relaxed);
                        shared.log.log(
                            LogLevel::Error,
                            OBS_PROCESS,
                            format!("simulation failed: {}", e.message),
                            None,
                            &[("kernel", job.key.kernel.clone())],
                        );
                    }
                };
                Err(e)
            }
            Err(panic) => {
                shared.counters.panics.fetch_add(1, Ordering::Relaxed);
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "unknown panic".to_string());
                shared.log.log(
                    LogLevel::Error,
                    OBS_PROCESS,
                    format!("simulation panicked (worker survived): {msg}"),
                    None,
                    &[("kernel", job.key.kernel.clone())],
                );
                Err(ErrorBody::new(
                    ErrorCode::SimPanic,
                    format!("simulation panicked: {msg}"),
                ))
            }
        }
    };
    job.sim_done_us.store(epoch_us(), Ordering::Release);
    // Publish: remove from pending first so new arrivals go through the
    // cache (populated above) rather than coalescing onto a dead job.
    shared
        .pending
        .lock()
        .expect("pending poisoned")
        .remove(&job.key);
    {
        let mut result = job.result.lock().expect("job result poisoned");
        *result = Some(outcome);
        job.done.notify_all();
    }
    shared.counters.in_flight.fetch_sub(1, Ordering::Relaxed);
}

/// Generate (for a benchmark id), compile and run one job's simulation
/// with its token threaded into the tick loop.
fn execute(job: &Arc<Job>) -> Result<RunReport, ErrorBody> {
    let attach = Attach {
        cancel: Some(job.token.clone()),
        ..Attach::default()
    };
    let generated;
    let kernel = match &job.kernel {
        JobKernel::Bench { id, .. } => {
            generated = bench_kernel(id).expect("resolved benchmark ids build");
            &generated
        }
        JobKernel::File(kernel) => kernel,
    };
    job.key
        .design
        .execute(kernel, eval_gpu(), &attach)
        .map_err(|e| match e {
            RunError::Sim(SimError::Cancelled { at_cycle }) => ErrorBody::new(
                ErrorCode::Timeout,
                format!("simulation cancelled cooperatively at cycle {at_cycle}"),
            ),
            other => ErrorBody::new(ErrorCode::SimFailed, other.to_string()),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use regless_bench::sweep::SweepMode;

    fn test_server(workers: usize, queue_capacity: usize) -> ServerHandle {
        let engine = Arc::new(SweepEngine::with_config(None, SweepMode::Normal));
        Server::start(
            ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                workers,
                queue_capacity,
                drain_timeout: Duration::from_secs(20),
            },
            engine,
        )
        .expect("start server")
    }

    #[test]
    fn too_small_capacity_is_a_bad_request() {
        for design in ["regless", "regless-nc"] {
            let mut req = Request::run(1, "rodinia/nn");
            req.design = design.to_string();
            req.capacity = 64;
            let err = resolve_design(&req).expect_err("capacity 64");
            assert_eq!(err.code, ErrorCode::BadRequest);
            assert!(err.message.contains("smallest valid capacity is 128"));
            req.capacity = 128;
            assert!(resolve_design(&req).is_ok());
        }
        // Designs without an OSU ignore the wire's capacity.
        for design in ["baseline", "rfh", "rfv", "regdem", "compress-rf"] {
            let mut req = Request::run(1, "rodinia/nn");
            req.design = design.to_string();
            req.capacity = 64;
            assert!(resolve_design(&req).is_ok(), "{design}");
        }
    }

    #[test]
    fn run_profile_and_report_round_trip_one_simulation() {
        let handle = test_server(2, 8);
        let addr = handle.addr().to_string();
        let mut client = Client::connect(&addr).unwrap();

        let run = client.request(&Request::run(1, "rodinia/nn")).unwrap();
        assert!(run.ok, "{run:?}");
        assert_eq!(
            run.payload_field("source"),
            Some(&Json::Str("simulated".to_string()))
        );
        assert!(run.payload_field("report").is_some());

        // Same work, different kind: served from the shared cache.
        let mut profile_req = Request::run(2, "rodinia/nn");
        profile_req.kind = RequestKind::Profile;
        let profile = client.request(&profile_req).unwrap();
        assert!(profile.ok, "{profile:?}");
        assert_eq!(
            profile.payload_field("source"),
            Some(&Json::Str("cache".to_string()))
        );
        assert!(profile.payload_field("profile").is_some());

        let mut report_req = Request::run(3, "nn"); // bare name aliases the id
        report_req.kind = RequestKind::Report;
        let report = client.request(&report_req).unwrap();
        assert!(report.ok, "{report:?}");
        assert!(report.payload_field("summary").is_some());

        let stats = client
            .request(&Request::control(4, RequestKind::Stats))
            .unwrap();
        assert!(stats.ok);
        assert_eq!(stats.payload_field("simulations"), Some(&Json::Int(1)));
        assert_eq!(stats.payload_field("cache_hits"), Some(&Json::Int(2)));
        assert_eq!(
            stats.payload_field("protocol_version"),
            Some(&Json::Int(i64::from(crate::proto::PROTOCOL_VERSION)))
        );
        assert!(
            matches!(stats.payload_field("uptime_ms"), Some(Json::Int(ms)) if *ms >= 0),
            "{stats:?}"
        );

        let bye = client
            .request(&Request::control(5, RequestKind::Shutdown))
            .unwrap();
        assert!(bye.ok);
        handle.drain().expect("drain");
    }

    #[test]
    fn bad_requests_get_structured_errors() {
        let handle = test_server(1, 4);
        let mut client = Client::connect(&handle.addr().to_string()).unwrap();

        let r = client.request(&Request::run(1, "no/such_bench")).unwrap();
        assert_eq!(r.error_code(), Some("bad_request"), "{r:?}");

        // Unregistered ids get the structured `unknown_design` error that
        // names the offender and lists every valid id.
        let mut bogus = Request::run(5, "rodinia/nn");
        bogus.design = "no-such-design".to_string();
        let r = client.request(&bogus).unwrap();
        assert_eq!(r.error_code(), Some("unknown_design"), "{r:?}");
        let msg = r
            .error
            .as_ref()
            .map(|e| e.message.clone())
            .unwrap_or_default();
        assert!(msg.contains("no-such-design"), "{msg}");
        assert!(
            msg.contains("regdem") && msg.contains("compress-rf"),
            "{msg}"
        );

        let mut no_kernel = Request::control(3, RequestKind::Run);
        no_kernel.kernel = None;
        let r = client.request(&no_kernel).unwrap();
        assert_eq!(r.error_code(), Some("bad_request"), "{r:?}");

        // Cluster RPCs are refused here: this endpoint is not a coordinator.
        let r = client.request(&Request::claim(4, "w0")).unwrap();
        assert_eq!(r.error_code(), Some("bad_request"), "{r:?}");

        handle.shutdown();
        handle.drain().expect("drain");
    }

    #[test]
    fn related_work_designs_are_servable() {
        let handle = test_server(2, 8);
        let mut client = Client::connect(&handle.addr().to_string()).unwrap();
        for (id, design) in [(1u64, "regdem"), (2, "compress-rf"), (3, "rfh"), (4, "rfv")] {
            let mut req = Request::run(id, "rodinia/nn");
            req.design = design.to_string();
            let r = client.request(&req).unwrap();
            assert!(r.ok, "{design}: {r:?}");
            assert_eq!(
                r.payload_field("design"),
                Some(&Json::Str(design.to_string()))
            );
            assert!(r.payload_field("report").is_some(), "{design}");
        }
        handle.shutdown();
        handle.drain().expect("drain");
    }

    /// Every reply names the design id the client sent: `regless-nc`
    /// runs the same simulation as `regless` without the compressor, but
    /// its run, profile and report replies say `regless-nc`.
    #[test]
    fn replies_carry_the_requested_design_id() {
        let handle = test_server(1, 8);
        let mut client = Client::connect(&handle.addr().to_string()).unwrap();
        for (id, kind) in [
            (1u64, RequestKind::Run),
            (2, RequestKind::Profile),
            (3, RequestKind::Report),
        ] {
            let mut req = Request::run(id, "rodinia/nn");
            req.design = "regless-nc".to_string();
            req.kind = kind;
            let r = client.request(&req).unwrap();
            assert!(r.ok, "{kind:?}: {r:?}");
            let nc = Some(Json::Str("regless-nc".to_string()));
            assert_eq!(r.payload_field("design").cloned(), nc, "{kind:?}");
            let nested = match kind {
                RequestKind::Profile => r.payload_field("profile"),
                RequestKind::Report => r.payload_field("summary"),
                _ => None,
            };
            if let Some(body) = nested {
                assert_eq!(body.field("design").ok().cloned(), nc, "{kind:?}: {body:?}");
            }
        }
        handle.shutdown();
        handle.drain().expect("drain");
    }

    /// `rfh` runs on the same cancellable machine as every other design:
    /// a deadline far shorter than the simulation answers `timeout`, and
    /// the abandoned simulation stops through its cancel token.
    #[test]
    fn rfh_honors_a_short_deadline() {
        let handle = test_server(1, 4);
        let addr = handle.addr().to_string();
        let path =
            std::env::temp_dir().join(format!("regless-serve-rfh-{}.asm", std::process::id()));
        std::fs::write(
            &path,
            "kernel slow_rfh\nbb0:\n  r0 = movi 0x0\n  r1 = movi 0xc350\n  jmp bb1\n\
             bb1:\n  r2 = movi 0x1\n  r0 = iadd r0, r2\n  r3 = setlt r0, r1\n  bra r3, bb1, bb2\n\
             bb2:\n  exit\n",
        )
        .unwrap();
        let mut client = Client::connect(&addr).unwrap();
        let mut req = Request::run(1, path.to_str().unwrap());
        req.design = "rfh".to_string();
        req.timeout_ms = Some(20);
        let r = client.request(&req).unwrap();
        assert_eq!(r.error_code(), Some("timeout"), "{r:?}");
        let cancelled = (0..500).any(|_| {
            let stats = client
                .request(&Request::control(2, RequestKind::Stats))
                .unwrap();
            if stats.payload_field("cancelled") == Some(&Json::Int(1)) {
                return true;
            }
            std::thread::sleep(Duration::from_millis(10));
            false
        });
        assert!(cancelled, "the rfh simulation was never cancelled");
        let _ = std::fs::remove_file(&path);
        handle.shutdown();
        handle.drain().expect("drain");
    }

    #[test]
    fn traced_requests_return_spans_and_untraced_reports_are_byte_identical() {
        // Two fresh servers, same kernel: one request traced, one not.
        // The *reports* must be byte-identical — tracing is pure overlay.
        let traced_handle = test_server(1, 4);
        let plain_handle = test_server(1, 4);
        let mut traced_client = Client::connect(&traced_handle.addr().to_string()).unwrap();
        let mut plain_client = Client::connect(&plain_handle.addr().to_string()).unwrap();

        let traced_req = Request::run(1, "rodinia/nn").with_trace_id("00000000000abc12");
        let traced = traced_client.request(&traced_req).unwrap();
        assert!(traced.ok, "{traced:?}");
        let plain = plain_client
            .request(&Request::run(1, "rodinia/nn"))
            .unwrap();
        assert!(plain.ok, "{plain:?}");

        assert_eq!(
            traced.payload_field("report").unwrap().to_string_compact(),
            plain.payload_field("report").unwrap().to_string_compact(),
            "tracing must not perturb the report"
        );

        // The traced response carries spans covering the whole pipeline.
        assert_eq!(
            traced.payload_field("trace_id"),
            Some(&Json::Str("00000000000abc12".to_string()))
        );
        let Some(Json::Arr(spans)) = traced.payload_field("trace") else {
            panic!("traced response carries a trace array: {traced:?}");
        };
        let parsed: Vec<regless_telemetry::Span> = spans
            .iter()
            .map(|s| regless_telemetry::Span::from_json(s).expect("span parses"))
            .collect();
        let names: Vec<&str> = parsed.iter().map(|s| s.name.as_str()).collect();
        for expected in ["admission", "cache", "queue", "sim", "serialize"] {
            assert!(
                names.contains(&expected),
                "missing span {expected}: {names:?}"
            );
        }
        assert!(
            parsed.iter().all(|s| s.trace_id == 0xabc12),
            "one trace id joins every span"
        );
        assert!(
            parsed.iter().all(|s| s.process == "serve"),
            "serve-side spans carry the serve process label"
        );

        // The untraced response has no trace fields at all.
        assert_eq!(plain.payload_field("trace"), None);
        assert_eq!(plain.payload_field("trace_id"), None);

        traced_handle.shutdown();
        plain_handle.shutdown();
        traced_handle.drain().expect("drain");
        plain_handle.drain().expect("drain");
    }

    #[test]
    fn metrics_request_exposes_counters_log_and_valid_prometheus() {
        let handle = test_server(1, 4);
        let mut client = Client::connect(&handle.addr().to_string()).unwrap();
        let run = client.request(&Request::run(1, "rodinia/nn")).unwrap();
        assert!(run.ok, "{run:?}");

        let resp = client
            .request(&Request::control(2, RequestKind::Metrics))
            .unwrap();
        assert!(resp.ok, "{resp:?}");
        let snap = MetricsSnapshot::from_json(resp.payload_field("metrics").unwrap())
            .expect("metrics parse");
        assert_eq!(snap.process, "serve");
        let submitted = snap
            .metrics
            .iter()
            .find(|m| m.name == "regless_serve_submitted_total")
            .expect("submitted counter present");
        assert!(
            matches!(submitted.value, regless_telemetry::MetricValue::Counter(n) if n >= 1),
            "{submitted:?}"
        );

        // The exposition round-trips the line-format validity check.
        let prom = snap.render_prom();
        let samples = regless_telemetry::check_prom_format(&prom).expect("valid prom");
        assert!(samples >= snap.metrics.len(), "{prom}");

        // Drain shows up in the structured log.
        handle.shutdown();
        let resp = client
            .request(&Request::control(3, RequestKind::Metrics))
            .unwrap();
        let Some(Json::Arr(log)) = resp.payload_field("log") else {
            panic!("metrics payload carries a log array: {resp:?}");
        };
        let events: Vec<regless_telemetry::LogEvent> = log
            .iter()
            .map(|e| regless_telemetry::LogEvent::from_json(e).expect("log event parses"))
            .collect();
        assert!(
            events.iter().any(|e| e.message.contains("drain")),
            "{events:?}"
        );
        handle.drain().expect("drain");
    }

    #[test]
    fn drain_refuses_new_simulations_but_answers_stats() {
        let handle = test_server(1, 4);
        let mut client = Client::connect(&handle.addr().to_string()).unwrap();
        handle.shutdown();
        let r = client.request(&Request::run(1, "rodinia/nn")).unwrap();
        assert_eq!(r.error_code(), Some("shutting_down"), "{r:?}");
        let stats = client
            .request(&Request::control(2, RequestKind::Stats))
            .unwrap();
        assert!(stats.ok);
        assert_eq!(stats.payload_field("draining"), Some(&Json::Bool(true)));
        handle.drain().expect("drain");
    }
}
