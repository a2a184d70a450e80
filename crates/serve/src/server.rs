//! The server: admission control, request coalescing, a cancellable
//! worker pool, and graceful drain.
//!
//! One thread accepts connections and spawns a thread per client; each
//! client thread parses JSONL requests and either answers inline
//! (`stats`, `shutdown`, cache hits, rejections) or enqueues a job and
//! blocks on its completion. A fixed worker pool pops jobs, runs the
//! simulator under `catch_unwind` with a [`CancelToken`] threaded into
//! the tick loop, and publishes the result to every waiter at once.

use crate::proto::{read_json_line, ErrorBody, ErrorCode, Reply, Request, RequestKind};
use regless_bench::registry;
use regless_bench::sweep::{bench_kernel, bench_kernel_name, rodinia_id, CachedRun, SweepEngine};
use regless_bench::{eval_gpu, Attach, DesignKind, RunError};
use regless_isa::text::parse_kernel;
use regless_isa::Kernel;
use regless_json::{FromJson, Json, ToJson};
use regless_sim::{CancelToken, RunReport, SimError};
use regless_telemetry::obs::{
    epoch_us, format_trace_id, parse_trace_id, EventLog, LogLevel, MetricsSnapshot, Span,
    DEFAULT_LOG_CAPACITY,
};
use regless_telemetry::Log2Histogram;
use regless_workloads::rodinia;
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, LockResult, Mutex};
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

/// Parse a request's design point through the design registry and check
/// its parameters. Designs ignore the wire's `capacity` and `compressor`
/// aliases unless they declare them.
///
/// # Errors
///
/// Returns an `unknown_design` [`ErrorBody`] — naming the id and listing
/// every valid id — for an unregistered id, and a `bad_request` one for a
/// malformed setting or a RegLess capacity too small for the OSU shape.
fn resolve_design(req: &Request) -> Result<DesignKind, ErrorBody> {
    let design = registry::parse_with_aliases(&req.design, req.capacity, req.compressor, false)
        .map_err(|e| {
            let code = match registry::lookup(registry::id_of(&req.design)) {
                Some(_) => ErrorCode::BadRequest,
                None => ErrorCode::UnknownDesign,
            };
            ErrorBody::new(code, e)
        })?;
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
enum JobKernel<'a> {
    /// A built-in benchmark id and its kernel name. Its result is a
    /// deterministic function of the id, so it is cached under the sweep
    /// engine's fingerprint; the kernel itself is generated only by the
    /// worker that simulates it, never on a cache hit. The id borrows the
    /// request's text when that spells it whole.
    Bench {
        id: Cow<'a, str>,
        name: &'static str,
    },
    /// A parsed `.asm` file: uncached (the cache is keyed by id, not
    /// content).
    File(Kernel),
}

impl JobKernel<'_> {
    fn name(&self) -> &str {
        match self {
            JobKernel::Bench { name, .. } => name,
            JobKernel::File(kernel) => kernel.name(),
        }
    }

    /// This kernel with its id owned, so a job can outlive the request.
    fn into_owned(self) -> JobKernel<'static> {
        match self {
            JobKernel::Bench { id, name } => JobKernel::Bench {
                id: Cow::Owned(id.into_owned()),
                name,
            },
            JobKernel::File(kernel) => JobKernel::File(kernel),
        }
    }
}

/// One admitted simulation, shared by every coalesced waiter.
struct Job {
    key: JobKey,
    kernel: JobKernel<'static>,
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

/// The name prefix of every serve metric (`regless_serve_<key>[_total]`).
const METRIC_PREFIX: &str = "regless_serve_";

/// Trace context for one traced request: the parsed id plus the spans
/// collected on its behalf, returned in-band in the success payload.
struct TraceCtx {
    id: u64,
    spans: Vec<Span>,
}

impl TraceCtx {
    /// Run `f` and, when the request is traced, record its wall time as
    /// the span `name`, returned for annotation. An untraced request runs
    /// `f` alone and never reads the clock.
    fn timed<'a, T>(
        trace: &'a mut Option<TraceCtx>,
        name: &str,
        f: impl FnOnce() -> T,
    ) -> (T, Option<&'a mut Span>) {
        let Some(t) = trace else {
            return (f(), None);
        };
        let start = epoch_us();
        let out = f();
        let dur = epoch_us().saturating_sub(start);
        t.spans.push(Span::new(t.id, name, OBS_PROCESS, start, dur));
        (out, t.spans.last_mut())
    }
}

/// Monotone counters, exported by [`Shared::snapshot`].
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
    /// When the server started, for the `stats` uptime field. Monotonic by
    /// construction (`Instant`), so a wall-clock step never yields a
    /// negative or absurd uptime.
    started: Instant,
    /// Bounded structured event log (queue_full, panics, drain), served
    /// by the `metrics` request and tailed by `regless obs --tail`.
    log: EventLog,
}

/// A lock's guard, or what a condvar wait returns. A poisoned lock means
/// a thread panicked while it held one of serve's locks, outside the
/// `catch_unwind` that isolates simulations: a bug in this file, after
/// which the state the lock guards cannot be trusted.
#[allow(clippy::expect_used)] // poisoning is a server bug, not a client's input
fn unpoisoned<T>(result: LockResult<T>) -> T {
    result.expect("serve lock poisoned")
}

impl Shared {
    /// Close the job queue: no job is pushed again, and idle workers wake
    /// to drain what is left and exit.
    fn close_queue(&self) {
        unpoisoned(self.queue.lock()).closed = true;
        self.queue_cv.notify_all();
    }

    /// The `stats` payload: [`Shared::snapshot`] projected onto flat keys
    /// ([`MetricsSnapshot::stats_fields`]) plus the fields that are not
    /// metrics.
    fn stats_json(&self) -> Json {
        let mut fields = vec![
            ("kind".to_string(), Json::Str("stats".to_string())),
            (
                "protocol_version".to_string(),
                ToJson::to_json(&crate::proto::PROTOCOL_VERSION),
            ),
            (
                "draining".to_string(),
                Json::Bool(self.shutdown.load(Ordering::Acquire)),
            ),
            (
                "cache_fingerprint".to_string(),
                Json::Str(SweepEngine::fingerprint()),
            ),
        ];
        fields.extend(self.snapshot().stats_fields(METRIC_PREFIX));
        Json::Obj(fields)
    }

    /// Retry-after hint for `queue_full`: roughly one mean request
    /// latency, clamped to a sane band; 250 ms before any data exists.
    fn retry_after_ms(&self) -> u64 {
        let l = unpoisoned(self.latency.lock());
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
        let mut stopped = unpoisoned(self.stop.lock());
        *stopped = true;
        self.stop_cv.notify_all();
    }

    /// Every serve counter, gauge and latency histogram: the one source
    /// both `stats` and `metrics` are rendered from.
    fn snapshot(&self) -> MetricsSnapshot {
        let c = &self.counters;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let mut snap = MetricsSnapshot::new(OBS_PROCESS);
        for (key, help, counter) in [
            ("submitted", "Simulation requests received", &c.submitted),
            (
                "completed",
                "Simulation requests answered successfully",
                &c.completed,
            ),
            (
                "rejected_queue_full",
                "Requests refused by admission control",
                &c.rejected_queue_full,
            ),
            (
                "coalesce_hits",
                "Requests coalesced onto an in-flight job",
                &c.coalesce_hits,
            ),
            (
                "cache_hits",
                "Requests answered from the sweep cache",
                &c.cache_hits,
            ),
            (
                "simulations",
                "Simulations actually executed",
                &c.simulations,
            ),
            ("timeouts", "Requests whose deadline expired", &c.timeouts),
            (
                "cancelled",
                "Simulations cancelled cooperatively",
                &c.cancelled,
            ),
            (
                "panics",
                "Simulation panics isolated by catch_unwind",
                &c.panics,
            ),
            (
                "sim_errors",
                "Simulations that returned an error",
                &c.sim_errors,
            ),
        ] {
            snap.counter(&format!("{METRIC_PREFIX}{key}_total"), help, load(counter));
        }
        snap.gauge(
            "regless_serve_in_flight",
            "Jobs admitted but not yet finished",
            load(&c.in_flight) as f64,
        );
        snap.gauge(
            "regless_serve_queue_depth",
            "Jobs queued and not yet running",
            unpoisoned(self.queue.lock()).jobs.len() as f64,
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
        {
            let l = unpoisoned(self.latency.lock());
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
        snap
    }

    /// The `metrics` response payload: [`Shared::snapshot`] plus the
    /// retained event log.
    fn metrics_json(&self) -> Json {
        let log = self
            .log
            .snapshot_since(None)
            .iter()
            .map(|e| e.to_json())
            .collect();
        Json::Obj(vec![
            ("kind".to_string(), Json::Str("metrics".to_string())),
            ("metrics".to_string(), self.snapshot().to_json()),
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
    /// Returns the bind error if the address is unavailable, or the error
    /// of a thread that could not be spawned.
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
        let threads = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("regless-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<std::io::Result<Vec<_>>>()
            .and_then(|workers| {
                let shared = Arc::clone(&shared);
                let accept = std::thread::Builder::new()
                    .name("regless-accept".to_string())
                    .spawn(move || accept_loop(&listener, &shared))?;
                Ok((workers, accept))
            });
        // Workers that did start exit once the queue is closed.
        let (workers, accept) = threads.inspect_err(|_| shared.close_queue())?;
        Ok(ServerHandle {
            addr,
            shared,
            accept: Some(accept),
            workers,
        })
    }
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the server to stop, exactly as a `shutdown` request would.
    pub fn shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Block until a `shutdown` request arrives (or [`Self::shutdown`] is
    /// called from another thread).
    pub fn wait_for_shutdown(&self) {
        let mut stopped = unpoisoned(self.shared.stop.lock());
        while !*stopped {
            stopped = unpoisoned(self.shared.stop_cv.wait(stopped));
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
        self.shared.close_queue();
        let deadline = self.shared.config.drain_timeout;
        let (live, timed_out) = {
            let guard = unpoisoned(self.shared.live_workers.lock());
            let (guard, res) = unpoisoned(self.shared.workers_cv.wait_timeout_while(
                guard,
                deadline,
                |n| *n > 0,
            ));
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
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    // Both buffers live as long as the connection, so a warm request
    // reuses their capacity instead of allocating its own.
    let mut line = String::new();
    let mut reply = Reply::default();
    loop {
        let json = match read_json_line(&mut reader, &mut line) {
            Ok(Some(v)) => v,
            Ok(None) | Err(_) => return,
        };
        // Echo the id even when the request itself fails to parse.
        let id = json
            .field_opt("id")
            .ok()
            .flatten()
            .and_then(|v| u64::from_json(v).ok())
            .unwrap_or(0);
        let stop = match Request::from_json(json) {
            Ok(req) => {
                handle_request(shared, &req, &mut reply);
                matches!(req.kind, RequestKind::Shutdown)
            }
            Err(e) => {
                reply.error(id, &ErrorBody::new(ErrorCode::BadRequest, e.message));
                false
            }
        };
        let written = reply.send(&mut writer);
        // A `shutdown` is signalled only once its reply is written: with
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
fn resolve_kernel(spec: &str) -> Result<JobKernel<'_>, ErrorBody> {
    // A bare Rodinia name aliases its benchmark id.
    let id = if rodinia::NAMES.contains(&spec) {
        Cow::Owned(rodinia_id(spec))
    } else {
        Cow::Borrowed(spec)
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

/// Answer one request into `reply`.
fn handle_request(shared: &Arc<Shared>, req: &Request, reply: &mut Reply) {
    match req.kind {
        RequestKind::Stats => reply.success(req.id, &shared.stats_json()),
        RequestKind::Metrics => reply.success(req.id, &shared.metrics_json()),
        // The connection loop signals the stop after sending this reply.
        RequestKind::Shutdown => {
            reply.begin(req.id, true);
            reply.field("draining", &Json::Bool(true));
        }
        RequestKind::Run | RequestKind::Profile | RequestKind::Report => {
            if let Err(e) = handle_simulation(shared, req, reply) {
                reply.error(req.id, &e);
            }
        }
    }
}

/// Answer a simulation request into `reply`, from the cache, a job it
/// coalesces onto or one it admits; the error is the reply otherwise.
fn handle_simulation(
    shared: &Arc<Shared>,
    req: &Request,
    reply: &mut Reply,
) -> Result<(), ErrorBody> {
    shared.counters.submitted.fetch_add(1, Ordering::Relaxed);
    if shared.shutdown.load(Ordering::Acquire) {
        return Err(ErrorBody::new(
            ErrorCode::ShuttingDown,
            "server is draining",
        ));
    }
    let design = resolve_design(req)?;
    let spec = req
        .kernel
        .as_deref()
        .ok_or_else(|| ErrorBody::new(ErrorCode::BadRequest, "missing `kernel`"))?;
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
    let kernel = TraceCtx::timed(&mut trace, "admission", || resolve_kernel(spec)).0?;
    let started = Instant::now();

    // Fast path: a benchmark already in the shared cache never queues,
    // and its kernel is never generated.
    if let JobKernel::Bench { id, name } = &kernel {
        let (hit, span) = TraceCtx::timed(&mut trace, "cache", || {
            shared.engine.lookup(id, design, eval_gpu())
        });
        if let Some(span) = span {
            span.args
                .push(("hit".to_string(), hit.is_some().to_string()));
        }
        if let Some(run) = hit {
            shared.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
            finish_ok(
                shared, req, design, name, &run, "cache", started, trace, reply,
            );
            return Ok(());
        }
    }

    let (job, coalesced) = admit(shared, req, spec, design, kernel)?;
    let source = if coalesced { "coalesced" } else { "simulated" };
    if let Some(t) = trace.as_mut() {
        if coalesced {
            t.spans
                .push(Span::new(t.id, "coalesce", OBS_PROCESS, epoch_us(), 0));
        }
    }

    // Wait for the worker (or an already-published result), enforcing
    // this waiter's own deadline.
    let deadline = req.timeout_ms.map(Duration::from_millis);
    let mut result = unpoisoned(job.result.lock());
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
            let run = outcome?;
            let kernel = job.kernel.name();
            finish_ok(
                shared, req, design, kernel, &run, source, started, trace, reply,
            );
            return Ok(());
        }
        match deadline {
            Some(limit) => {
                let elapsed = started.elapsed();
                if elapsed >= limit {
                    drop(result);
                    return Err(abandon(shared, req, &job, elapsed));
                }
                let (guard, _) = unpoisoned(job.done.wait_timeout(result, limit - elapsed));
                result = guard;
            }
            None => {
                result = unpoisoned(job.done.wait(result));
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
    spec: &str,
    design: DesignKind,
    kernel: JobKernel<'_>,
) -> Result<(Arc<Job>, bool), ErrorBody> {
    let key = JobKey {
        kernel: match &kernel {
            JobKernel::Bench { id, .. } => id.to_string(),
            JobKernel::File(_) => spec.to_string(),
        },
        design,
    };
    let mut pending = unpoisoned(shared.pending.lock());
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
    let mut queue = unpoisoned(shared.queue.lock());
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
        kernel: kernel.into_owned(),
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
fn abandon(shared: &Arc<Shared>, req: &Request, job: &Arc<Job>, elapsed: Duration) -> ErrorBody {
    shared.counters.timeouts.fetch_add(1, Ordering::Relaxed);
    if job.waiters.fetch_sub(1, Ordering::AcqRel) == 1 {
        job.token.cancel();
    }
    ErrorBody::new(
        ErrorCode::Timeout,
        format!(
            "deadline of {} ms exceeded after {} ms; simulation cancelled cooperatively",
            req.timeout_ms.unwrap_or(0),
            elapsed.as_millis()
        ),
    )
}

/// Write a successful result for the request's kind into `reply` and
/// record latency. The head carries the fields that depend on the request
/// (its id, kind and design text, where the run came from) and the run's
/// memoized cycles and IPC; the body is the text rendered once per cached
/// run and shared by every later reply: the report for `run`, the profile
/// for `profile` and the summary for `report`. The top-level `design`
/// echoes the request; the profile and summary name the point that ran,
/// as `regless profile` and `regless report` do. A traced request gets a
/// `serialize` span covering the head render, then its whole span
/// collection back in the tail as the `trace` field — *after* the body,
/// so the report bytes are untouched.
#[allow(clippy::too_many_arguments)]
fn finish_ok(
    shared: &Arc<Shared>,
    req: &Request,
    design: DesignKind,
    kernel: &str,
    run: &CachedRun,
    source: &str,
    started: Instant,
    mut trace: Option<TraceCtx>,
    reply: &mut Reply,
) {
    let elapsed_ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
    {
        let mut l = unpoisoned(shared.latency.lock());
        match req.kind {
            RequestKind::Run => l.run.record(elapsed_ms),
            RequestKind::Profile => l.profile.record(elapsed_ms),
            _ => l.report.record(elapsed_ms),
        }
    }
    shared.counters.completed.fetch_add(1, Ordering::Relaxed);
    TraceCtx::timed(&mut trace, "serialize", || {
        reply.begin(req.id, true);
        reply.str_field("kind", req.kind.as_str());
        reply.str_field("kernel", kernel);
        reply.str_field("design", &req.design);
        reply.str_field("source", source);
        reply.field("cycles", &run.cycles.to_json());
        reply.field("ipc", &Json::Float(run.ipc()));
        match req.kind {
            RequestKind::Run => reply.body_field("report", run.stable_text()),
            RequestKind::Profile => reply.body_field("profile", run.profile_text(kernel, design)),
            _ => reply.body_field("summary", run.summary_text(kernel, design)),
        }
    });
    if let Some(t) = trace {
        reply.str_field("trace_id", &format_trace_id(t.id));
        let spans = t.spans.iter().map(Span::to_json).collect();
        reply.field("trace", &Json::Arr(spans));
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut queue = unpoisoned(shared.queue.lock());
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break Some(job);
                }
                if queue.closed {
                    break None;
                }
                queue = unpoisoned(shared.queue_cv.wait(queue));
            }
        };
        let Some(job) = job else { break };
        run_job(shared, &job);
    }
    let mut live = unpoisoned(shared.live_workers.lock());
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
                        shared.engine.insert(id, job.key.design, eval_gpu(), report)
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
    unpoisoned(shared.pending.lock()).remove(&job.key);
    // Leave `in_flight` before the result is published: a client that
    // has its reply must not see the finished job in `stats` still.
    shared.counters.in_flight.fetch_sub(1, Ordering::Relaxed);
    {
        let mut result = unpoisoned(job.result.lock());
        *result = Some(outcome);
        job.done.notify_all();
    }
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
            generated = bench_kernel(id).ok_or_else(|| {
                ErrorBody::new(
                    ErrorCode::SimFailed,
                    format!("no kernel for benchmark {id:?}"),
                )
            })?;
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
    use crate::proto::Response;
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
            req.capacity = Some(64);
            let err = resolve_design(&req).expect_err("capacity 64");
            assert_eq!(err.code, ErrorCode::BadRequest);
            assert!(err.message.contains("smallest valid capacity is 128"));
            req.capacity = Some(128);
            assert!(resolve_design(&req).is_ok());
            // The same point spelled in the design text.
            req.capacity = None;
            req.design = format!("{design}:capacity=64");
            let err = resolve_design(&req).expect_err("capacity 64");
            assert!(err.message.contains("smallest valid capacity is 128"));
        }
        // Designs without an OSU ignore the wire's capacity.
        for design in ["baseline", "rfh", "rfv", "regdem", "compress-rf"] {
            let mut req = Request::run(1, "rodinia/nn");
            req.design = design.to_string();
            req.capacity = Some(64);
            assert!(resolve_design(&req).is_ok(), "{design}");
        }
    }

    #[test]
    fn malformed_design_points_are_structured_errors() {
        for (design, code) in [
            ("frobnicate", ErrorCode::UnknownDesign),
            ("frobnicate:capacity=128", ErrorCode::UnknownDesign),
            ("regless:order=sideways", ErrorCode::BadRequest),
            ("baseline:capacity=128", ErrorCode::BadRequest),
            ("regless:capacity", ErrorCode::BadRequest),
        ] {
            let mut req = Request::run(1, "rodinia/nn");
            req.design = design.to_string();
            let err = resolve_design(&req).expect_err(design);
            assert_eq!(err.code, code, "{design}: {}", err.message);
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

        // A kind the protocol does not know (here one a deleted sweep
        // cluster used to send) is a structured error, not a panic.
        let mut raw = TcpStream::connect(handle.addr()).unwrap();
        let line = r#"{"id":4,"kind":"claim","worker":"w0","protocol_version":3}"#;
        std::io::Write::write_all(&mut raw, format!("{line}\n").as_bytes()).unwrap();
        let mut line = String::new();
        let reply = read_json_line(&mut std::io::BufReader::new(&raw), &mut line)
            .unwrap()
            .unwrap();
        let r = Response::from_json(&reply).unwrap();
        assert_eq!(r.id, 4);
        assert_eq!(r.error_code(), Some("bad_request"), "{r:?}");
        let stats = client
            .request(&Request::control(6, RequestKind::Stats))
            .unwrap();
        assert_eq!(stats.payload_field("panics"), Some(&Json::Int(0)));

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

    /// Every reply echoes the design text the client sent, and its
    /// profile or summary names the point that ran: `regless-nc` runs the
    /// same simulation as `regless` without the compressor, but its
    /// replies say `regless-nc`; `regless` with the `capacity` alias at 128
    /// is `regless:capacity=128` inside, as `regless profile --capacity
    /// 128` writes it.
    #[test]
    fn replies_carry_the_requested_design_id() {
        let handle = test_server(1, 8);
        let mut client = Client::connect(&handle.addr().to_string()).unwrap();
        let mut id = 0u64;
        for (design, capacity, ran) in [
            ("regless-nc", None, "regless-nc"),
            ("regless", Some(128), "regless:capacity=128"),
        ] {
            for kind in [RequestKind::Run, RequestKind::Profile, RequestKind::Report] {
                id += 1;
                let mut req = Request::run(id, "rodinia/nn");
                req.design = design.to_string();
                req.capacity = capacity;
                req.kind = kind;
                let r = client.request(&req).unwrap();
                assert!(r.ok, "{kind:?}: {r:?}");
                let sent = Some(Json::Str(design.to_string()));
                assert_eq!(r.payload_field("design").cloned(), sent, "{kind:?}");
                let nested = match kind {
                    RequestKind::Profile => r.payload_field("profile"),
                    RequestKind::Report => r.payload_field("summary"),
                    _ => None,
                };
                if let Some(body) = nested {
                    let ran = Some(Json::Str(ran.to_string()));
                    assert_eq!(
                        body.field("design").ok().cloned(),
                        ran,
                        "{kind:?}: {body:?}"
                    );
                }
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

    /// Send raw request lines on one connection, all in a single write,
    /// and read one raw reply line per request.
    fn raw_replies(addr: SocketAddr, lines: &[&str]) -> Vec<String> {
        use std::io::{BufRead, Write};
        let mut stream = TcpStream::connect(addr).unwrap();
        let batch: String = lines.iter().map(|l| format!("{l}\n")).collect();
        stream.write_all(batch.as_bytes()).unwrap();
        let mut reader = std::io::BufReader::new(stream);
        lines
            .iter()
            .map(|_| {
                let mut reply = String::new();
                reader.read_line(&mut reply).unwrap();
                reply
            })
            .collect()
    }

    /// Requests written back to back in one write are answered in order,
    /// each with the bytes it gets when sent alone.
    #[test]
    fn pipelined_requests_are_answered_in_order_with_the_same_bytes() {
        let handle = test_server(1, 8);
        let lines = [
            r#"{"id":1,"kind":"run","kernel":"rodinia/nn","design":"regless:capacity=256"}"#,
            r#"{"id":2,"kind":"profile","kernel":"nn","design":"regless:capacity=256"}"#,
            r#"{"id":3,"kind":"run","kernel":"rodinia/nn","design":"no-such-design"}"#,
            r#"{"id":4,"kind":"report","kernel":"rodinia/nn","design":"regless","capacity":256}"#,
            r#"{"id":5}"#,
            r#"{"id":6,"kind":"run","kernel":"rodinia/nn","design":"regless:capacity=256"}"#,
        ];
        // Simulate the point once, so every reply below is a cache hit.
        assert!(raw_replies(handle.addr(), &lines[..1])[0].contains(r#""source":"simulated""#));
        let alone: Vec<String> = lines
            .iter()
            .flat_map(|l| raw_replies(handle.addr(), &[l]))
            .collect();
        assert_eq!(raw_replies(handle.addr(), &lines), alone);
        for (line, reply) in lines.iter().zip(&alone) {
            let id = Json::parse(line).unwrap().field("id").unwrap().clone();
            let parsed = Json::parse(reply).unwrap();
            assert_eq!(parsed.field("id").unwrap(), &id, "{reply}");
            assert!(reply.ends_with("}\n"), "{reply}");
        }
        handle.shutdown();
        handle.drain().expect("drain");
    }

    /// Error replies, byte for byte: a malformed request, an unknown kind,
    /// an unknown design whose text needs escaping (its `{:?}` in the
    /// message, escaped again on the wire), an unknown kernel, and
    /// ill-typed fields.
    #[test]
    fn error_replies_keep_their_bytes() {
        let handle = test_server(1, 4);
        let cases = [
            (
                r#"{"id":7}"#,
                r#"{"id":7,"ok":false,"error":{"code":"bad_request","message":"missing field `kind`"}}"#,
            ),
            (
                r#"{"id":8,"kind":"frobnicate"}"#,
                r#"{"id":8,"ok":false,"error":{"code":"bad_request","message":"unknown request kind \"frobnicate\""}}"#,
            ),
            (
                r#"{"id":9,"kind":"run","kernel":"rodinia/nn","design":"frob\"nicate\\\n\u0001é"}"#,
                r#"{"id":9,"ok":false,"error":{"code":"unknown_design","message":"unknown design \"frob\\\"nicate\\\\\\n\\u{1}é\"; valid designs: baseline, regless, regless-nc, rfh, rfv, regdem, compress-rf"}}"#,
            ),
            (
                r#"{"id":10,"kind":"run","kernel":"no/such"}"#,
                r#"{"id":10,"ok":false,"error":{"code":"bad_request","message":"\"no/such\" is neither a benchmark id nor a readable .asm file"}}"#,
            ),
            (
                r#"[1,2]"#,
                r#"{"id":0,"ok":false,"error":{"code":"bad_request","message":"expected object with field `id`, got array"}}"#,
            ),
            (
                r#"{"id":"x","kind":"run"}"#,
                r#"{"id":0,"ok":false,"error":{"code":"bad_request","message":"expected integer, got string"}}"#,
            ),
            (
                r#"{"id":12,"kind":"run","kernel":5}"#,
                r#"{"id":12,"ok":false,"error":{"code":"bad_request","message":"expected string, got integer"}}"#,
            ),
            (
                r#"{"id":13,"kind":"stats","design":null}"#,
                r#"{"id":13,"ok":false,"error":{"code":"bad_request","message":"expected string, got null"}}"#,
            ),
            (
                r#"{"id":14,"kind":"run","kernel":"rodinia/nn","timeout_ms":-1}"#,
                r#"{"id":14,"ok":false,"error":{"code":"bad_request","message":"-1 out of range for u64"}}"#,
            ),
            (
                r#"{"id":15,"kind":"run"}"#,
                r#"{"id":15,"ok":false,"error":{"code":"bad_request","message":"missing `kernel`"}}"#,
            ),
        ];
        let requests: Vec<&str> = cases.iter().map(|c| c.0).collect();
        for (reply, (request, expected)) in raw_replies(handle.addr(), &requests).iter().zip(cases)
        {
            assert_eq!(reply, &format!("{expected}\n"), "{request}");
        }
        handle.shutdown();
        handle.drain().expect("drain");
    }

    /// The reply echoes the design text as decoded from the request: here
    /// spelled with `\u` escapes, echoed as the text they decode to. (A
    /// design that needs escaping on the way out is never a valid point;
    /// `error_replies_keep_their_bytes` and the `Reply` tests cover it.)
    #[test]
    fn the_design_echo_is_the_decoded_request_text() {
        let handle = test_server(1, 4);
        let line = r#"{"id":1,"kind":"report","kernel":"rodinia\/nn","design":"regless\u003acapacity\u003D256"}"#;
        let reply = &raw_replies(handle.addr(), &[line])[0];
        assert!(
            reply.starts_with(
                r#"{"id":1,"ok":true,"kind":"report","kernel":"nn","design":"regless:capacity=256","source":"simulated","cycles":"#
            ),
            "{reply}"
        );
        handle.shutdown();
        handle.drain().expect("drain");
    }
}
