//! The cluster worker: claim → simulate → deliver, with heartbeats.
//!
//! A worker is a plain blocking loop on one connection. While a
//! simulation runs, a scoped side-thread heartbeats on its *own*
//! connection at the cadence the claim response dictated, so a long
//! simulation never looks like a death to the coordinator. Transient
//! connect errors back off exponentially (reusing the serve client's
//! retry policy) up to a bound; a coordinator that stays unreachable is a
//! hard error, not a hang.

use crate::WorkUnit;
use regless_bench::sweep::SweepEngine;
use regless_bench::{eval_gpu, registry};
use regless_json::{FromJson, ToJson};
use regless_serve::client::{backoff_delay, RetryPolicy};
use regless_serve::proto::{Request, Response};
use regless_serve::Client;
use regless_telemetry::obs::{epoch_us, LogEvent, LogLevel};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Worker tunables.
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// Coordinator address (`host:port`).
    pub coordinator: String,
    /// This worker's name on the ring (must be unique in the cluster).
    pub name: String,
    /// Backoff policy for reconnecting after transient connect errors.
    pub retry: RetryPolicy,
    /// Test hook: after completing this many units, claim one more and
    /// exit without delivering it — simulating a worker killed mid-sweep
    /// (the claimed unit is left in flight for the liveness sweep to
    /// reassign). `None` in production.
    pub fail_after: Option<usize>,
}

impl WorkerConfig {
    /// A production config for `name` against `coordinator`.
    pub fn new(coordinator: &str, name: &str) -> WorkerConfig {
        WorkerConfig {
            coordinator: coordinator.to_string(),
            name: name.to_string(),
            retry: RetryPolicy::default(),
            fail_after: None,
        }
    }
}

/// What a worker did before exiting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerSummary {
    /// The worker's name.
    pub name: String,
    /// Units simulated and delivered.
    pub completed: usize,
    /// Failed connect attempts over the worker's life (initial connect
    /// and mid-sweep reconnects) — the retries that used to be silent.
    pub reconnects: u64,
    /// Whether the `fail_after` test hook fired (the worker "died" with a
    /// unit in flight).
    pub injected_failure: bool,
}

/// Emit one structured JSONL log line on stderr. Workers have no server
/// to hold an [`regless_telemetry::EventLog`], so their events go
/// straight to the stream the front door already collects.
fn log_worker(level: LogLevel, name: &str, message: &str, fields: &[(&str, String)]) {
    let event = LogEvent {
        seq: 0,
        ts_ms: epoch_us() / 1000,
        level,
        component: format!("worker:{name}"),
        message: message.to_string(),
        trace_id: None,
        fields: fields
            .iter()
            .map(|(k, v)| ((*k).to_string(), v.clone()))
            .collect(),
    };
    eprintln!("{}", event.to_json().to_string_compact());
}

/// Connect with bounded exponential backoff, counting failed attempts
/// into `attempts` and logging each backoff instead of retrying silently.
fn connect_with_backoff(
    addr: &str,
    name: &str,
    policy: &RetryPolicy,
    attempts: &mut u64,
) -> std::io::Result<Client> {
    let seed = crate::assignment::fnv1a64(name.as_bytes());
    let mut attempt = 0u32;
    loop {
        match Client::connect(addr) {
            Ok(c) => return Ok(c),
            Err(e) if attempt >= policy.max_retries => {
                log_worker(
                    LogLevel::Error,
                    name,
                    "coordinator unreachable; giving up",
                    &[("coordinator", addr.to_string()), ("error", e.to_string())],
                );
                return Err(e);
            }
            Err(e) => {
                *attempts += 1;
                let delay = backoff_delay(attempt, None, policy, seed);
                log_worker(
                    LogLevel::Warn,
                    name,
                    "connect failed; backing off",
                    &[
                        ("coordinator", addr.to_string()),
                        ("attempt", (attempt + 1).to_string()),
                        ("backoff_ms", delay.as_millis().to_string()),
                        ("error", e.to_string()),
                    ],
                );
                std::thread::sleep(delay);
                attempt += 1;
            }
        }
    }
}

/// Run the worker loop until the coordinator reports the sweep done (or
/// drained). Simulations run through `engine`, so a worker pointed at its
/// own `REGLESS_SWEEP_DIR` keeps a private disk cache that consistent-hash
/// assignment keeps hot across runs.
///
/// # Errors
///
/// Returns an I/O error when the coordinator is unreachable past the
/// retry bound, hangs up mid-request, or refuses this worker (protocol
/// version mismatch surfaces as `InvalidData`).
pub fn run_worker(config: &WorkerConfig, engine: &SweepEngine) -> std::io::Result<WorkerSummary> {
    let mut reconnects = 0u64;
    let mut client = connect_with_backoff(
        &config.coordinator,
        &config.name,
        &config.retry,
        &mut reconnects,
    )?;
    let mut completed = 0usize;
    let mut next_id = 1u64;
    loop {
        let claim = Request::claim(next_id, &config.name);
        next_id += 1;
        let resp = match client.request(&claim) {
            Ok(r) => r,
            Err(_) => {
                // Transient: reconnect with backoff and re-claim. The
                // coordinator either still has our unit in flight (we had
                // none) or will reassign it — both are safe.
                log_worker(
                    LogLevel::Warn,
                    &config.name,
                    "claim connection lost; reconnecting",
                    &[("coordinator", config.coordinator.clone())],
                );
                reconnects += 1;
                client = connect_with_backoff(
                    &config.coordinator,
                    &config.name,
                    &config.retry,
                    &mut reconnects,
                )?;
                continue;
            }
        };
        if !resp.ok {
            return Err(refusal(&resp));
        }
        if resp.payload_field("done") == Some(&regless_json::Json::Bool(true)) {
            break;
        }
        if let Some(ms) = resp.payload_field("wait_ms") {
            let ms: u64 = FromJson::from_json(ms).map_err(invalid)?;
            std::thread::sleep(Duration::from_millis(ms.min(10_000)));
            continue;
        }
        let unit = parse_claimed_unit(&resp)?;
        if config.fail_after.is_some_and(|n| completed >= n) {
            // Injected death: the unit stays in flight, our socket drops
            // on return, and the heartbeats that would keep us alive stop.
            return Ok(WorkerSummary {
                name: config.name.clone(),
                completed,
                reconnects,
                injected_failure: true,
            });
        }
        let heartbeat_ms: u64 = match resp.payload_field("heartbeat_ms") {
            Some(v) => FromJson::from_json(v).map_err(invalid)?,
            None => 1_000,
        };
        // The claim's trace id (if any) is echoed on the result so the
        // coordinator's claim→result span lands on the same timeline.
        let trace_id = match resp.payload_field("trace_id") {
            Some(regless_json::Json::Str(s)) => Some(s.clone()),
            _ => None,
        };
        let report = simulate_with_heartbeats(config, engine, &unit, heartbeat_ms);

        let mut result = Request::result(next_id, &config.name, unit.id, ToJson::to_json(&*report));
        next_id += 1;
        result.kernel = Some(unit.bench.clone());
        result.design = registry::render(unit.design);
        result.trace_id = trace_id;
        let resp = match client.request(&result) {
            Ok(r) => r,
            Err(_) => {
                // The connection died with the result in hand. Reconnect
                // and resend: delivery is idempotent on the coordinator.
                log_worker(
                    LogLevel::Warn,
                    &config.name,
                    "result connection lost; reconnecting to resend",
                    &[
                        ("coordinator", config.coordinator.clone()),
                        ("unit", format!("{:x}", unit.id)),
                    ],
                );
                reconnects += 1;
                client = connect_with_backoff(
                    &config.coordinator,
                    &config.name,
                    &config.retry,
                    &mut reconnects,
                )?;
                client.request(&result)?
            }
        };
        if !resp.ok {
            return Err(refusal(&resp));
        }
        completed += 1;
    }
    Ok(WorkerSummary {
        name: config.name.clone(),
        completed,
        reconnects,
        injected_failure: false,
    })
}

/// Simulate one unit while a side connection heartbeats at the cadence
/// the coordinator asked for.
fn simulate_with_heartbeats(
    config: &WorkerConfig,
    engine: &SweepEngine,
    unit: &WorkUnit,
    heartbeat_ms: u64,
) -> std::sync::Arc<regless_sim::RunReport> {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            // Best effort: a failed heartbeat connection only means the
            // liveness window has to cover the whole simulation.
            let Ok(mut hb) = Client::connect(&config.coordinator) else {
                log_worker(
                    LogLevel::Warn,
                    &config.name,
                    "heartbeat connection failed; relying on the liveness window",
                    &[("unit", format!("{:x}", unit.id))],
                );
                return;
            };
            let mut id = 1u64 << 32;
            loop {
                // Sleep in fixed 2 ms slices so a finished simulation
                // stops the thread (and the scope join on the worker's
                // critical path) within ~2 ms instead of after a full
                // heartbeat period.
                let slices = heartbeat_ms.clamp(1, 600_000) / 2 + 1;
                for _ in 0..slices {
                    if stop.load(Ordering::Acquire) {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                if stop.load(Ordering::Acquire) {
                    return;
                }
                if hb.request(&Request::heartbeat(id, &config.name)).is_err() {
                    return;
                }
                id += 1;
            }
        });
        let report = engine.run(&unit.bench, unit.design, eval_gpu());
        stop.store(true, Ordering::Release);
        report
    })
}

/// Decode the unit fields of a claim response.
fn parse_claimed_unit(resp: &Response) -> std::io::Result<WorkUnit> {
    let field = |name: &str| {
        resp.payload_field(name)
            .ok_or_else(|| invalid(format!("claim response missing {name:?}")))
    };
    let id: u64 = FromJson::from_json(field("unit")?).map_err(invalid)?;
    let kernel: String = FromJson::from_json(field("kernel")?).map_err(invalid)?;
    let design: String = FromJson::from_json(field("design")?).map_err(invalid)?;
    let design = registry::parse(&design).map_err(|e| invalid(format!("claim: {e}")))?;
    let unit = WorkUnit::new(&kernel, design);
    if unit.id != id {
        return Err(invalid(format!(
            "claim unit id {id:x} does not match coordinates (expected {:x})",
            unit.id
        )));
    }
    Ok(unit)
}

/// Convert a refused response into an I/O error with its code.
fn refusal(resp: &Response) -> std::io::Error {
    let detail = resp
        .error
        .as_ref()
        .map(|e| format!("{}: {}", e.code.as_str(), e.message))
        .unwrap_or_else(|| "coordinator refused the request".to_string());
    std::io::Error::new(std::io::ErrorKind::InvalidData, detail)
}

/// An `InvalidData` error from any displayable detail.
fn invalid(e: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use regless_bench::DesignKind;
    use regless_json::Json;

    #[test]
    fn parse_claimed_unit_checks_ids_and_designs() {
        let payload = |id: u64, bench: &str, design: &str| {
            Response::success(
                1,
                Json::Obj(vec![
                    ("unit".into(), ToJson::to_json(&id)),
                    ("kernel".into(), Json::Str(bench.to_string())),
                    ("design".into(), Json::Str(design.to_string())),
                ]),
            )
        };
        // Every registered point and every point its parameters reach
        // decodes to the unit the coordinator handed out.
        let mut designs: Vec<DesignKind> =
            registry::all().iter().map(|e| e.default_design()).collect();
        for text in [
            "regless-nc:capacity=256",
            "regless:order=fifo",
            "regless:patterns=constant-only:renumber=true",
            "regless:capacity=128:min_region=1:split_load_use=false",
            "baseline:throttle=occupancy",
        ] {
            designs.push(registry::parse(text).unwrap());
        }
        for design in designs {
            let unit = WorkUnit::new("rodinia/nn", design);
            let text = registry::render(design);
            let parsed = parse_claimed_unit(&payload(unit.id, &unit.bench, &text)).unwrap();
            assert_eq!(parsed, unit, "{text}");
            // A mismatched id is a wire corruption, not something to run.
            assert!(parse_claimed_unit(&payload(unit.id ^ 1, &unit.bench, &text)).is_err());
        }
        let unit = WorkUnit::new("rodinia/nn", DesignKind::Baseline);
        let err = parse_claimed_unit(&payload(unit.id, &unit.bench, "frobnicate")).unwrap_err();
        assert!(err.to_string().contains("frobnicate"), "{err}");
    }

    #[test]
    fn connect_backoff_gives_up_with_the_connect_error() {
        // Port 1 on localhost refuses immediately; a tiny retry budget
        // must surface the error quickly rather than hang.
        let policy = RetryPolicy {
            max_retries: 1,
            default_backoff_ms: 1,
            max_backoff_ms: 2,
        };
        let mut attempts = 0u64;
        let err = connect_with_backoff("127.0.0.1:1", "w0", &policy, &mut attempts);
        assert!(err.is_err());
        assert_eq!(attempts, 1, "each backed-off attempt is counted");
    }
}
