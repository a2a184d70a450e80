//! The cluster coordinator: hands out work units, merges results, and
//! survives worker deaths.
//!
//! One thread accepts connections and spawns a thread per client (the
//! same shape as the serve layer). All scheduling state lives in one
//! mutex-guarded scheduling board; every request handler reaps dead workers
//! before acting, so liveness needs no dedicated timer thread — the
//! surviving workers' claim/heartbeat traffic drives the sweep forward.
//!
//! Fault-tolerance invariants:
//!
//! - A unit is in exactly one of `pending`, `in_flight`, or `done`.
//! - A reaped worker's in-flight units return to the *front* of pending
//!   (they have been waiting longest) and survivors steal them on their
//!   next claim.
//! - A `result` for a unit that is already done is acknowledged
//!   (`accepted: false`) and discarded — reassignment plus a slow
//!   original owner produces duplicates by design, and the sweep cache's
//!   atomic, fingerprint-keyed writes make the merge idempotent.

use crate::assignment::HashRing;
use crate::liveness::Liveness;
use crate::stats::ClusterSummary;
use crate::WorkUnit;
use regless_bench::sweep::SweepEngine;
use regless_json::{FromJson, Json, ToJson};
use regless_serve::proto::{
    check_protocol_version, read_json_line, write_json_line, ErrorBody, ErrorCode, Request,
    RequestKind, Response, PROTOCOL_VERSION,
};
use regless_sim::RunReport;
use regless_telemetry::obs::{
    epoch_us, format_bytes, format_trace_id, gen_trace_id, parse_trace_id, EventLog, LogLevel,
    MetricsSnapshot, ProgressSnapshot, Span, SpanLog, DEFAULT_LOG_CAPACITY,
};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Coordinator tunables.
#[derive(Clone, Debug)]
pub struct CoordinatorConfig {
    /// Listen address (`host:port`; port 0 binds an ephemeral port).
    pub addr: String,
    /// Silence after which a worker is declared dead and its in-flight
    /// units are reassigned.
    pub liveness_timeout: Duration,
    /// Stream a per-wake progress line (done/total, units/s, cycles/s,
    /// ETA) to stderr while [`CoordinatorHandle::wait`] blocks.
    pub progress: bool,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            addr: crate::DEFAULT_CLUSTER_ADDR.to_string(),
            liveness_timeout: Duration::from_secs(60),
            progress: false,
        }
    }
}

impl CoordinatorConfig {
    /// The heartbeat cadence workers are told in claim responses: a third
    /// of the liveness timeout, so two missed beats still keep a worker
    /// alive.
    pub fn heartbeat_ms(&self) -> u64 {
        (self.liveness_timeout.as_millis() as u64 / 3).max(1)
    }

    /// The wait hint for claims that found nothing pending. This is a
    /// poll interval, not a liveness quantity: a claim is one cheap JSONL
    /// exchange, and each one doubles as the traffic that reaps a dead
    /// peer — so idle workers poll at most twice a second and pick up a
    /// reassigned unit (or the final `done`) promptly.
    fn wait_ms(&self) -> u64 {
        (self.liveness_timeout.as_millis() as u64 / 2).clamp(1, 500)
    }
}

/// Component label on the coordinator's log events and metrics.
const OBS_PROCESS: &str = "coordinator";

/// Monotone counters the summary reports. (Reaped workers are counted by
/// [`Liveness::reaped_total`], the table that actually does the reaping.)
#[derive(Default)]
struct Counters {
    claims: u64,
    waits: u64,
    results: u64,
    duplicate_results: u64,
    reassignments: u64,
    heartbeats: u64,
    version_rejects: u64,
    /// Simulated cycles across merged results — the numerator of the
    /// cluster-wide simulated-cycles/sec progress rate.
    cycles_done: u64,
}

/// Book-keeping for one unit currently assigned to a worker: who holds
/// it, when the claim was handed out (epoch µs, for the claim→result
/// span), and the trace id stamped on the claim response so the worker's
/// result — and any spans it produces — join the same timeline.
struct InFlightEntry {
    worker: String,
    claimed_us: u64,
    trace_id: u64,
}

/// All scheduling state, guarded by one mutex.
struct Board {
    /// Every unit of the sweep space, by stable id.
    units: HashMap<u64, WorkUnit>,
    /// Unit ids not yet claimed (front = next handed out).
    pending: VecDeque<u64>,
    /// Unit id → claim book-keeping for the worker simulating it.
    in_flight: HashMap<u64, InFlightEntry>,
    /// Unit ids with a merged result.
    done: HashSet<u64>,
    ring: HashRing,
    live: Liveness,
    workers_seen: HashSet<String>,
    counters: Counters,
    /// Structured events (worker join/reap, drain) for `obs --tail`.
    log: EventLog,
    /// Claim→result spans, one per merged unit, for `--trace-out`.
    spans: SpanLog,
    /// Set by `shutdown`: stop handing out units; claims answer `done`.
    draining: bool,
}

impl Board {
    /// Reap workers whose deadline passed and move their in-flight units
    /// back to pending. Called at the top of every request handler.
    fn reap_dead(&mut self, now: Instant) {
        for worker in self.live.reap(now) {
            self.ring.remove(&worker);
            let orphaned: Vec<u64> = self
                .in_flight
                .iter()
                .filter(|(_, e)| e.worker == worker)
                .map(|(&id, _)| id)
                .collect();
            self.log.log(
                LogLevel::Warn,
                OBS_PROCESS,
                "worker reaped",
                None,
                &[
                    ("worker", worker.clone()),
                    ("orphaned_units", orphaned.len().to_string()),
                ],
            );
            for id in orphaned {
                self.in_flight.remove(&id);
                // Front of the queue: these have been waiting longest.
                self.pending.push_front(id);
                self.counters.reassignments += 1;
            }
        }
    }

    /// Record traffic from `worker` (joins it on first contact).
    fn touch(&mut self, worker: &str, now: Instant) {
        self.live.touch(worker, now);
        self.ring.add(worker);
        if self.workers_seen.insert(worker.to_string()) {
            self.log.log(
                LogLevel::Info,
                OBS_PROCESS,
                "worker joined",
                None,
                &[("worker", worker.to_string())],
            );
        }
    }

    /// Pick the next unit for `worker`: its own consistent-hash partition
    /// first, then steal the oldest pending unit. Each hand-out gets a
    /// fresh trace id, returned so the claim response carries it.
    fn pick(&mut self, worker: &str) -> Option<(WorkUnit, u64)> {
        let own = self
            .pending
            .iter()
            .position(|id| self.ring.assign(*id) == Some(worker));
        let idx = own.unwrap_or(0);
        let id = self.pending.remove(idx)?;
        let trace_id = gen_trace_id();
        self.in_flight.insert(
            id,
            InFlightEntry {
                worker: worker.to_string(),
                claimed_us: epoch_us(),
                trace_id,
            },
        );
        Some((self.units[&id].clone(), trace_id))
    }

    fn complete(&self) -> bool {
        self.done.len() == self.units.len()
    }

    fn summary(&self) -> ClusterSummary {
        ClusterSummary {
            workers_seen: self.workers_seen.len() as u64,
            workers_reaped: self.live.reaped_total(),
            units_total: self.units.len() as u64,
            units_done: self.done.len() as u64,
            claims: self.counters.claims,
            waits: self.counters.waits,
            results: self.counters.results,
            duplicate_results: self.counters.duplicate_results,
            reassignments: self.counters.reassignments,
            heartbeats: self.counters.heartbeats,
            version_rejects: self.counters.version_rejects,
            cycles_done: self.counters.cycles_done,
            wall_seconds: 0.0,
        }
    }

    /// The live progress view over this board, for the `--progress`
    /// stream and the metrics surface.
    fn progress(&self, elapsed_secs: f64) -> ProgressSnapshot {
        ProgressSnapshot {
            done: self.done.len() as u64,
            total: self.units.len() as u64,
            cycles: self.counters.cycles_done,
            elapsed_secs,
        }
    }
}

/// State shared by the accept thread and the connection threads.
struct Shared {
    config: CoordinatorConfig,
    engine: Arc<SweepEngine>,
    board: Mutex<Board>,
    /// Signaled when the sweep completes or a drain begins.
    done_cv: Condvar,
    accept_closed: AtomicBool,
    started: Instant,
}

/// Namespace for [`Coordinator::start`].
pub struct Coordinator;

/// A running coordinator: its bound address plus the handles needed to
/// wait for and stop it.
pub struct CoordinatorHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Coordinator {
    /// Bind, start the accept thread, and return a handle. Results are
    /// merged into `engine` (memo table + its `results/cache/...` disk
    /// layout), so everything that reads the sweep cache consumes cluster
    /// output unchanged.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the address is unavailable.
    pub fn start(
        config: CoordinatorConfig,
        engine: Arc<SweepEngine>,
        units: Vec<WorkUnit>,
    ) -> std::io::Result<CoordinatorHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let mut board = Board {
            units: HashMap::new(),
            pending: VecDeque::new(),
            in_flight: HashMap::new(),
            done: HashSet::new(),
            ring: HashRing::new(),
            live: Liveness::new(config.liveness_timeout),
            workers_seen: HashSet::new(),
            counters: Counters::default(),
            log: EventLog::new(DEFAULT_LOG_CAPACITY),
            spans: SpanLog::new(DEFAULT_LOG_CAPACITY),
            draining: false,
        };
        for unit in units {
            // Deduplicate (canonically equal variants share an id) and
            // skip units already merged — a warm cache means instant done.
            if board.units.contains_key(&unit.id) {
                continue;
            }
            if engine.lookup(&unit.bench, unit.variant()).is_some() {
                board.done.insert(unit.id);
            } else {
                board.pending.push_back(unit.id);
            }
            board.units.insert(unit.id, unit);
        }
        let shared = Arc::new(Shared {
            config,
            engine,
            board: Mutex::new(board),
            done_cv: Condvar::new(),
            accept_closed: AtomicBool::new(false),
            started: Instant::now(),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("regless-coord-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn coordinator accept thread")
        };
        Ok(CoordinatorHandle {
            addr,
            shared,
            accept: Some(accept),
        })
    }
}

impl CoordinatorHandle {
    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until every unit is merged, a drain begins, or `timeout`
    /// passes. Returns whether the sweep is complete.
    pub fn wait(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut board = self.shared.board.lock().expect("board poisoned");
        loop {
            if board.complete() || board.draining {
                return board.complete();
            }
            let now = Instant::now();
            let Some(remaining) = deadline.checked_duration_since(now) else {
                return board.complete();
            };
            // Wake periodically: a fully-dead cluster sends no request to
            // trigger the reap-on-traffic path, and `wait` is where the
            // front door would otherwise hang forever. With `--progress`
            // the wake doubles as the stream cadence, so cap it at 1 s.
            let mut tick = remaining
                .min(self.shared.config.liveness_timeout / 2)
                .max(Duration::from_millis(10));
            if self.shared.config.progress {
                tick = tick.min(Duration::from_secs(1));
            }
            let (guard, _) = self
                .shared
                .done_cv
                .wait_timeout(board, tick)
                .expect("done cv poisoned");
            board = guard;
            board.reap_dead(Instant::now());
            if self.shared.config.progress {
                let snap = board.progress(self.shared.started.elapsed().as_secs_f64());
                eprintln!("[cluster] {}", snap.render());
            }
        }
    }

    /// Snapshot the run summary (wall clock not filled in — the front
    /// door owns the stopwatch).
    pub fn summary(&self) -> ClusterSummary {
        self.shared.board.lock().expect("board poisoned").summary()
    }

    /// Snapshot the claim→result spans recorded so far, one per merged
    /// unit, attributed to the worker that delivered it. The front door's
    /// `--trace-out` writes these through [`regless_telemetry::chrome_spans`].
    pub fn spans(&self) -> Vec<Span> {
        self.shared
            .board
            .lock()
            .expect("board poisoned")
            .spans
            .snapshot()
    }

    /// Begin draining, exactly as a `shutdown` request would: stop
    /// handing out units and tell claiming workers the sweep is over.
    pub fn drain(&self) {
        let mut board = self.shared.board.lock().expect("board poisoned");
        board.draining = true;
        self.shared.done_cv.notify_all();
    }

    /// Stop the accept thread and release the port. Connection threads
    /// die with their clients.
    pub fn stop(mut self) {
        self.shared.accept_closed.store(true, Ordering::Release);
        // The accept thread is parked in `accept`; a throwaway connection
        // wakes it so it can observe the closed flag and exit.
        let _ = TcpStream::connect(self.addr);
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.accept_closed.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Request-response protocol; result requests span TCP segments
        // and would otherwise stall ~40 ms on Nagle + delayed ACK.
        let _ = stream.set_nodelay(true);
        let shared = Arc::clone(shared);
        let _ = std::thread::Builder::new()
            .name("regless-coord-conn".to_string())
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
        let id = json
            .field_opt("id")
            .ok()
            .flatten()
            .and_then(|v| u64::from_json(v).ok())
            .unwrap_or(0);
        let response = match Request::from_json(&json) {
            Ok(req) => handle_request(&req, shared),
            Err(e) => Response::failure(id, ErrorBody::new(ErrorCode::BadRequest, e.message)),
        };
        if write_json_line(&mut writer, &response.into_json()).is_err() {
            return;
        }
    }
}

fn handle_request(req: &Request, shared: &Arc<Shared>) -> Response {
    match req.kind {
        RequestKind::Claim => handle_claim(req, shared),
        RequestKind::Result => handle_result(req, shared),
        RequestKind::Heartbeat => handle_heartbeat(req, shared),
        RequestKind::Stats => handle_stats(req, shared),
        RequestKind::Metrics => handle_metrics(req, shared),
        RequestKind::Shutdown => handle_shutdown(req, shared),
        RequestKind::Run | RequestKind::Profile | RequestKind::Report => Response::failure(
            req.id,
            ErrorBody::new(
                ErrorCode::BadRequest,
                "this is a cluster coordinator; run/profile/report belong to `regless serve`",
            ),
        ),
    }
}

/// Version-check a cluster request and resolve its worker name.
fn admit_worker<'a>(req: &'a Request, shared: &Arc<Shared>) -> Result<&'a str, Response> {
    if let Err(e) = check_protocol_version(req) {
        shared
            .board
            .lock()
            .expect("board poisoned")
            .counters
            .version_rejects += 1;
        return Err(Response::failure(req.id, e));
    }
    match req.worker.as_deref() {
        Some(w) if !w.is_empty() => Ok(w),
        _ => Err(Response::failure(
            req.id,
            ErrorBody::new(ErrorCode::BadRequest, "cluster request names no worker"),
        )),
    }
}

fn handle_claim(req: &Request, shared: &Arc<Shared>) -> Response {
    let worker = match admit_worker(req, shared) {
        Ok(w) => w,
        Err(resp) => return resp,
    };
    let now = Instant::now();
    let mut board = shared.board.lock().expect("board poisoned");
    board.touch(worker, now);
    board.reap_dead(now);
    if board.complete() || board.draining {
        return Response::success(
            req.id,
            Json::Obj(vec![
                ("kind".into(), Json::Str("claim".into())),
                ("done".into(), Json::Bool(true)),
            ]),
        );
    }
    if let Some((unit, trace_id)) = board.pick(worker) {
        board.counters.claims += 1;
        let (design, capacity, compressor) = unit.wire();
        return Response::success(
            req.id,
            Json::Obj(vec![
                ("kind".into(), Json::Str("claim".into())),
                ("unit".into(), ToJson::to_json(&unit.id)),
                ("kernel".into(), Json::Str(unit.bench.clone())),
                ("design".into(), Json::Str(design.to_string())),
                ("capacity".into(), ToJson::to_json(&capacity)),
                ("compressor".into(), Json::Bool(compressor)),
                (
                    "heartbeat_ms".into(),
                    ToJson::to_json(&shared.config.heartbeat_ms()),
                ),
                // The worker echoes this on its result request so the
                // unit's whole life shares one timeline.
                ("trace_id".into(), Json::Str(format_trace_id(trace_id))),
            ]),
        );
    }
    // Nothing pending but the sweep is not complete: everything is in
    // flight on other workers. Tell the claimer to come back — its next
    // claim doubles as the traffic that reaps a dead peer.
    board.counters.waits += 1;
    Response::success(
        req.id,
        Json::Obj(vec![
            ("kind".into(), Json::Str("claim".into())),
            ("wait_ms".into(), ToJson::to_json(&shared.config.wait_ms())),
        ]),
    )
}

fn handle_result(req: &Request, shared: &Arc<Shared>) -> Response {
    let worker = match admit_worker(req, shared) {
        Ok(w) => w,
        Err(resp) => return resp,
    };
    let Some(unit_id) = req.unit else {
        return Response::failure(
            req.id,
            ErrorBody::new(ErrorCode::BadRequest, "result names no unit"),
        );
    };
    let Some(report_json) = req.report.as_ref() else {
        return Response::failure(
            req.id,
            ErrorBody::new(ErrorCode::BadRequest, "result carries no report"),
        );
    };
    let report = match RunReport::from_json(report_json) {
        Ok(r) => Arc::new(r),
        Err(e) => {
            return Response::failure(
                req.id,
                ErrorBody::new(
                    ErrorCode::BadRequest,
                    format!("unparseable report for unit {unit_id:x}: {}", e.message),
                ),
            )
        }
    };
    let now = Instant::now();
    let unit = {
        let mut board = shared.board.lock().expect("board poisoned");
        board.touch(worker, now);
        board.reap_dead(now);
        let Some(unit) = board.units.get(&unit_id).cloned() else {
            return Response::failure(
                req.id,
                ErrorBody::new(
                    ErrorCode::BadRequest,
                    format!("unit {unit_id:x} is not part of this sweep"),
                ),
            );
        };
        if board.done.contains(&unit_id) {
            // A reassigned unit's original owner finished late. The merge
            // is idempotent (fingerprint-keyed, atomic), so acknowledge.
            board.counters.duplicate_results += 1;
            return accepted(req.id, false);
        }
        unit
    };
    // Merge outside the board lock: `insert` writes the cache file to
    // disk, and holding the lock across it would serialize every result
    // delivery (and block claims) cluster-wide. The write is idempotent
    // and atomic, so a concurrent duplicate delivery is harmless.
    let cycles = report.cycles;
    shared.engine.insert(&unit.bench, unit.variant(), report);
    let mut board = shared.board.lock().expect("board poisoned");
    if board.done.contains(&unit_id) {
        // A duplicate raced us between the two lock scopes.
        board.counters.duplicate_results += 1;
        return accepted(req.id, false);
    }
    // The unit may be in flight (normal), or back in pending after a
    // reassignment the slow owner outlived — accept either way.
    let entry = board.in_flight.remove(&unit_id);
    board.pending.retain(|&id| id != unit_id);
    board.done.insert(unit_id);
    board.counters.results += 1;
    board.counters.cycles_done += cycles;
    if let Some(entry) = entry {
        // The claim→result interval as one span, attributed to the
        // delivering worker. A result echoing the claim's trace_id keeps
        // it; otherwise the id generated at hand-out time is used.
        let end = epoch_us();
        let trace_id = req
            .trace_id
            .as_deref()
            .and_then(parse_trace_id)
            .unwrap_or(entry.trace_id);
        board.spans.push(
            Span::new(
                trace_id,
                "unit",
                format!("worker:{worker}"),
                entry.claimed_us,
                end.saturating_sub(entry.claimed_us),
            )
            .arg("unit", format!("{unit_id:x}"))
            .arg("kernel", unit.bench.clone()),
        );
    }
    if board.complete() {
        shared.done_cv.notify_all();
    }
    accepted(req.id, true)
}

fn accepted(id: u64, accepted: bool) -> Response {
    Response::success(
        id,
        Json::Obj(vec![
            ("kind".into(), Json::Str("result".into())),
            ("accepted".into(), Json::Bool(accepted)),
        ]),
    )
}

fn handle_heartbeat(req: &Request, shared: &Arc<Shared>) -> Response {
    let worker = match admit_worker(req, shared) {
        Ok(w) => w,
        Err(resp) => return resp,
    };
    let now = Instant::now();
    let mut board = shared.board.lock().expect("board poisoned");
    board.touch(worker, now);
    board.reap_dead(now);
    board.counters.heartbeats += 1;
    Response::success(
        req.id,
        Json::Obj(vec![
            ("kind".into(), Json::Str("heartbeat".into())),
            ("known".into(), Json::Bool(true)),
        ]),
    )
}

fn handle_stats(req: &Request, shared: &Arc<Shared>) -> Response {
    let mut board = shared.board.lock().expect("board poisoned");
    board.reap_dead(Instant::now());
    let uptime_ms = shared.started.elapsed().as_millis() as u64;
    let mut fields = vec![
        ("kind".into(), Json::Str("stats".into())),
        ("role".into(), Json::Str("coordinator".into())),
        ("uptime_ms".into(), ToJson::to_json(&uptime_ms)),
        (
            "protocol_version".into(),
            Json::Int(i64::from(PROTOCOL_VERSION)),
        ),
        (
            "units_total".into(),
            ToJson::to_json(&(board.units.len() as u64)),
        ),
        (
            "units_done".into(),
            ToJson::to_json(&(board.done.len() as u64)),
        ),
        (
            "units_pending".into(),
            ToJson::to_json(&(board.pending.len() as u64)),
        ),
        (
            "units_in_flight".into(),
            ToJson::to_json(&(board.in_flight.len() as u64)),
        ),
        (
            "workers_alive".into(),
            ToJson::to_json(&(board.live.alive() as u64)),
        ),
        (
            "workers_seen".into(),
            ToJson::to_json(&(board.workers_seen.len() as u64)),
        ),
        (
            "workers_reaped".into(),
            ToJson::to_json(&board.live.reaped_total()),
        ),
        ("claims".into(), ToJson::to_json(&board.counters.claims)),
        ("waits".into(), ToJson::to_json(&board.counters.waits)),
        ("results".into(), ToJson::to_json(&board.counters.results)),
        (
            "cycles_done".into(),
            ToJson::to_json(&board.counters.cycles_done),
        ),
        (
            "duplicate_results".into(),
            ToJson::to_json(&board.counters.duplicate_results),
        ),
        (
            "reassignments".into(),
            ToJson::to_json(&board.counters.reassignments),
        ),
        (
            "heartbeats".into(),
            ToJson::to_json(&board.counters.heartbeats),
        ),
        (
            "version_rejects".into(),
            ToJson::to_json(&board.counters.version_rejects),
        ),
        ("draining".into(), Json::Bool(board.draining)),
    ];
    if let Some((entries, bytes)) = shared.engine.cache_dir_totals() {
        fields.push(("cache_entries".into(), ToJson::to_json(&entries)));
        fields.push(("cache_bytes".into(), ToJson::to_json(&bytes)));
        fields.push(("cache_size".into(), Json::Str(format_bytes(bytes))));
    }
    Response::success(req.id, Json::Obj(fields))
}

fn handle_metrics(req: &Request, shared: &Arc<Shared>) -> Response {
    let mut board = shared.board.lock().expect("board poisoned");
    board.reap_dead(Instant::now());
    let c = &board.counters;
    let mut snap = MetricsSnapshot::new(OBS_PROCESS);
    snap.counter(
        "regless_coord_claims_total",
        "Units handed out to workers",
        c.claims,
    );
    snap.counter(
        "regless_coord_waits_total",
        "Claims answered with a wait hint",
        c.waits,
    );
    snap.counter(
        "regless_coord_results_total",
        "Results merged into the sweep cache",
        c.results,
    );
    snap.counter(
        "regless_coord_duplicate_results_total",
        "Late duplicate results acknowledged and discarded",
        c.duplicate_results,
    );
    snap.counter(
        "regless_coord_reassignments_total",
        "Units returned to pending after their worker was reaped",
        c.reassignments,
    );
    snap.counter(
        "regless_coord_heartbeats_total",
        "Standalone heartbeat requests received",
        c.heartbeats,
    );
    snap.counter(
        "regless_coord_version_rejects_total",
        "Requests rejected for a protocol version mismatch",
        c.version_rejects,
    );
    snap.counter(
        "regless_coord_workers_reaped_total",
        "Workers declared dead after heartbeat silence",
        board.live.reaped_total(),
    );
    snap.counter(
        "regless_coord_cycles_done_total",
        "Simulated cycles across merged results",
        c.cycles_done,
    );
    snap.counter(
        "regless_coord_log_dropped_total",
        "Log events evicted from the bounded ring before export",
        board.log.dropped(),
    );
    snap.gauge(
        "regless_coord_workers_alive",
        "Workers inside their liveness window",
        board.live.alive() as f64,
    );
    snap.gauge(
        "regless_coord_workers_seen",
        "Distinct workers that ever joined",
        board.workers_seen.len() as f64,
    );
    snap.gauge(
        "regless_coord_units_pending",
        "Units waiting to be claimed",
        board.pending.len() as f64,
    );
    snap.gauge(
        "regless_coord_units_in_flight",
        "Units currently claimed by a worker",
        board.in_flight.len() as f64,
    );
    snap.gauge(
        "regless_coord_units_done",
        "Units with a merged result",
        board.done.len() as f64,
    );
    snap.gauge(
        "regless_coord_units_total",
        "Units in the sweep space",
        board.units.len() as f64,
    );
    snap.gauge(
        "regless_coord_uptime_seconds",
        "Seconds since the coordinator started",
        shared.started.elapsed().as_secs_f64(),
    );
    if let Some((_, bytes)) = shared.engine.cache_dir_totals() {
        snap.gauge(
            "regless_coord_cache_bytes",
            "Bytes in the sweep's disk cache",
            bytes as f64,
        );
    }
    // Host-side self-profile of the merge engine's pipeline (empty, and
    // free, unless REGLESS_SELFPROF is set).
    shared.engine.self_profiler().fold_into(&mut snap, "sweep");
    let events: Vec<Json> = board
        .log
        .snapshot_since(None)
        .iter()
        .map(|e| e.to_json())
        .collect();
    let spans: Vec<Json> = board.spans.snapshot().iter().map(|s| s.to_json()).collect();
    let payload = Json::Obj(vec![
        ("kind".into(), Json::Str("metrics".into())),
        ("metrics".into(), snap.to_json()),
        ("log".into(), Json::Arr(events)),
        ("log_total".into(), ToJson::to_json(&board.log.total())),
        ("spans".into(), Json::Arr(spans)),
    ]);
    Response::success(req.id, payload)
}

fn handle_shutdown(req: &Request, shared: &Arc<Shared>) -> Response {
    let mut board = shared.board.lock().expect("board poisoned");
    if !board.draining {
        board
            .log
            .log(LogLevel::Info, OBS_PROCESS, "drain requested", None, &[]);
    }
    board.draining = true;
    shared.done_cv.notify_all();
    Response::success(
        req.id,
        Json::Obj(vec![
            ("kind".into(), Json::Str("shutdown".into())),
            ("draining".into(), Json::Bool(true)),
            (
                "units_done".into(),
                ToJson::to_json(&(board.done.len() as u64)),
            ),
        ]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use regless_bench::sweep::SweepMode;
    use regless_bench::DesignKind;
    use regless_serve::Client;

    fn test_units() -> Vec<WorkUnit> {
        crate::units_for(
            &["rodinia/nn".to_string(), "rodinia/gaussian".to_string()],
            &[DesignKind::Baseline],
        )
    }

    fn start(timeout: Duration) -> (CoordinatorHandle, Arc<SweepEngine>) {
        let engine = Arc::new(SweepEngine::with_config(None, SweepMode::Normal));
        let handle = Coordinator::start(
            CoordinatorConfig {
                addr: "127.0.0.1:0".to_string(),
                liveness_timeout: timeout,
                progress: false,
            },
            Arc::clone(&engine),
            test_units(),
        )
        .expect("start coordinator");
        (handle, engine)
    }

    #[test]
    fn claims_hand_out_each_unit_once_then_wait_then_done() {
        let (handle, engine) = start(Duration::from_secs(60));
        let addr = handle.addr().to_string();
        let mut client = Client::connect(&addr).unwrap();

        // Two units: two claims hand them out.
        let mut claimed = Vec::new();
        for i in 0..2 {
            let resp = client.request(&Request::claim(i, "w0")).unwrap();
            assert!(resp.ok);
            let unit: u64 = u64::from_json(resp.payload_field("unit").unwrap()).unwrap();
            let kernel: String = String::from_json(resp.payload_field("kernel").unwrap()).unwrap();
            assert!(resp.payload_field("heartbeat_ms").is_some());
            // Every hand-out is stamped with a parseable trace id.
            let Some(Json::Str(tid)) = resp.payload_field("trace_id") else {
                panic!("claim carries a trace_id");
            };
            assert!(regless_telemetry::parse_trace_id(tid).is_some());
            claimed.push((unit, kernel));
        }
        assert_ne!(claimed[0].0, claimed[1].0);

        // Third claim: everything is in flight → wait hint.
        let resp = client.request(&Request::claim(2, "w0")).unwrap();
        assert!(resp.ok);
        assert!(resp.payload_field("wait_ms").is_some());

        // Deliver both results; the second completes the sweep. Reports
        // come from a throwaway engine (no disk dir) so tests never write
        // into a real cache directory.
        let sim = SweepEngine::with_config(None, SweepMode::Normal);
        for (i, (unit, kernel)) in claimed.iter().enumerate() {
            let report = sim.run(
                kernel,
                regless_bench::sweep::RunVariant::Design(DesignKind::Baseline),
            );
            let mut req = Request::result(10 + i as u64, "w0", *unit, ToJson::to_json(&*report));
            req.kernel = Some(kernel.clone());
            req.design = "baseline".to_string();
            let resp = client.request(&req).unwrap();
            assert!(resp.ok, "{resp:?}");
            assert_eq!(resp.payload_field("accepted"), Some(&Json::Bool(true)));
        }
        assert!(handle.wait(Duration::from_secs(5)), "sweep completes");
        for (_, kernel) in &claimed {
            assert!(
                engine
                    .lookup(
                        kernel,
                        regless_bench::sweep::RunVariant::Design(DesignKind::Baseline)
                    )
                    .is_some(),
                "{kernel} merged into the coordinator's engine"
            );
        }

        // A claim after completion answers done.
        let resp = client.request(&Request::claim(20, "w0")).unwrap();
        assert_eq!(resp.payload_field("done"), Some(&Json::Bool(true)));

        // Duplicate delivery is acknowledged but not accepted.
        let report = sim.run(
            &claimed[0].1,
            regless_bench::sweep::RunVariant::Design(DesignKind::Baseline),
        );
        let mut dup = Request::result(30, "w1", claimed[0].0, ToJson::to_json(&*report));
        dup.kernel = Some(claimed[0].1.clone());
        dup.design = "baseline".to_string();
        let resp = client.request(&dup).unwrap();
        assert!(resp.ok);
        assert_eq!(resp.payload_field("accepted"), Some(&Json::Bool(false)));

        let summary = handle.summary();
        assert_eq!(summary.units_done, 2);
        assert_eq!(summary.duplicate_results, 1);
        assert!(summary.complete());

        // One claim→result span per merged unit, attributed to w0.
        let spans = handle.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.process == "worker:w0"));

        // The metrics request exposes the counters, the structured log,
        // and the spans; the Prometheus rendering is well formed.
        let resp = client
            .request(&Request::control(40, RequestKind::Metrics))
            .unwrap();
        assert!(resp.ok);
        let snap =
            regless_telemetry::MetricsSnapshot::from_json(resp.payload_field("metrics").unwrap())
                .expect("metrics parse");
        assert_eq!(snap.process, "coordinator");
        let results = snap
            .metrics
            .iter()
            .find(|m| m.name == "regless_coord_results_total")
            .expect("results counter");
        assert_eq!(
            results.value,
            regless_telemetry::MetricValue::Counter(2),
            "{snap:?}"
        );
        assert!(regless_telemetry::check_prom_format(&snap.render_prom()).is_ok());
        let Some(Json::Arr(wire_spans)) = resp.payload_field("spans") else {
            panic!("metrics payload carries spans");
        };
        assert_eq!(wire_spans.len(), 2);
        let Some(Json::Arr(log)) = resp.payload_field("log") else {
            panic!("metrics payload carries the log");
        };
        assert!(
            log.iter().any(|e| {
                matches!(e.field("message"), Ok(Json::Str(m)) if m == "worker joined")
            }),
            "join event logged"
        );
        handle.stop();
    }

    #[test]
    fn dead_workers_are_reaped_and_their_units_reassigned() {
        let (handle, _engine) = start(Duration::from_millis(120));
        let addr = handle.addr().to_string();

        // w0 claims a unit and goes silent (connection kept open — only
        // heartbeats count).
        let mut flaky = Client::connect(&addr).unwrap();
        let resp = flaky.request(&Request::claim(1, "w0")).unwrap();
        let stolen: u64 = u64::from_json(resp.payload_field("unit").unwrap()).unwrap();

        // w1 claims the other unit, then keeps claiming: first it is told
        // to wait, and once w0's deadline passes it steals w0's unit.
        let mut steady = Client::connect(&addr).unwrap();
        let resp = steady.request(&Request::claim(2, "w1")).unwrap();
        let own: u64 = u64::from_json(resp.payload_field("unit").unwrap()).unwrap();
        assert_ne!(own, stolen);

        let deadline = Instant::now() + Duration::from_secs(10);
        let reassigned = loop {
            assert!(Instant::now() < deadline, "reassignment never happened");
            let resp = steady.request(&Request::claim(3, "w1")).unwrap();
            if let Some(u) = resp.payload_field("unit") {
                break u64::from_json(u).unwrap();
            }
            assert!(resp.payload_field("wait_ms").is_some(), "{resp:?}");
            std::thread::sleep(Duration::from_millis(40));
        };
        assert_eq!(reassigned, stolen, "w1 inherits w0's in-flight unit");
        let summary = handle.summary();
        assert_eq!(summary.workers_reaped, 1);
        assert_eq!(summary.reassignments, 1);
        handle.stop();
    }

    #[test]
    fn version_mismatch_and_foreign_requests_are_structured_errors() {
        let (handle, _engine) = start(Duration::from_secs(60));
        let addr = handle.addr().to_string();
        let mut client = Client::connect(&addr).unwrap();

        let mut old = Request::claim(1, "w0");
        old.protocol_version = Some(PROTOCOL_VERSION + 7);
        let resp = client.request(&old).unwrap();
        assert!(!resp.ok);
        assert_eq!(resp.error_code(), Some("version_mismatch"));

        let resp = client.request(&Request::run(2, "rodinia/nn")).unwrap();
        assert!(!resp.ok);
        assert_eq!(resp.error_code(), Some("bad_request"));

        // Stats works without a version (it is not a cluster RPC).
        let resp = client
            .request(&Request::control(3, RequestKind::Stats))
            .unwrap();
        assert!(resp.ok);
        assert_eq!(
            resp.payload_field("role"),
            Some(&Json::Str("coordinator".into()))
        );
        assert_eq!(
            resp.payload_field("protocol_version"),
            Some(&Json::Int(i64::from(PROTOCOL_VERSION)))
        );
        assert_eq!(handle.summary().version_rejects, 1);
        handle.stop();
    }

    #[test]
    fn shutdown_drains_claims() {
        let (handle, _engine) = start(Duration::from_secs(60));
        let addr = handle.addr().to_string();
        let mut client = Client::connect(&addr).unwrap();
        let resp = client
            .request(&Request::control(1, RequestKind::Shutdown))
            .unwrap();
        assert!(resp.ok);
        assert_eq!(resp.payload_field("draining"), Some(&Json::Bool(true)));
        let resp = client.request(&Request::claim(2, "w0")).unwrap();
        assert_eq!(resp.payload_field("done"), Some(&Json::Bool(true)));
        assert!(
            !handle.wait(Duration::from_secs(1)),
            "drained, not complete"
        );
        handle.stop();
    }
}
