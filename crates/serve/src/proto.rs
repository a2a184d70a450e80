//! The JSONL request/response protocol.
//!
//! One JSON object per line in each direction. Requests name a kind plus
//! the simulation coordinates; responses echo the request `id` and carry
//! either a kind-specific payload (`"ok": true`) or a structured error
//! (`"ok": false`). The grammar is documented in DESIGN.md §12; this
//! module is the single encoder/decoder both the server and the clients
//! (CLI `submit` and `obs`, cluster workers, tests) share.

use regless_json::{FromJson, Json, JsonError, ToJson};
use std::io::{BufRead, Write};

/// Version of the JSONL wire protocol. Cluster workers send it with every
/// `claim`/`result`/`heartbeat`, and the coordinator refuses mismatched
/// workers with a structured [`ErrorCode::VersionMismatch`] — a rolling
/// restart that mixes binaries fails loudly instead of corrupting a sweep.
///
/// v2: cluster request kinds (`claim`, `result`, `heartbeat`), the
/// `worker`/`protocol_version`/`unit`/`report` request fields, and the
/// `uptime_ms`/`protocol_version` stats fields.
pub const PROTOCOL_VERSION: u32 = 2;

/// What a request asks the server to do.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RequestKind {
    /// Simulate and return the run's deterministic report.
    Run,
    /// Simulate and return the CPI-stack profile.
    Profile,
    /// Simulate and return the dashboard `RunSummary`.
    Report,
    /// Server statistics (handled inline; never queued).
    Stats,
    /// Observability snapshot: metrics, recent log events, and recent
    /// spans (handled inline; never queued). Answered by both `serve`
    /// and the cluster coordinator; rendered by `regless obs`.
    Metrics,
    /// Drain in-flight jobs and stop the server.
    Shutdown,
    /// Cluster: a worker asks the coordinator for its next work unit.
    Claim,
    /// Cluster: a worker delivers one completed unit's `RunReport`.
    Result,
    /// Cluster: a worker proves liveness while it simulates.
    Heartbeat,
}

impl RequestKind {
    /// The wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            RequestKind::Run => "run",
            RequestKind::Profile => "profile",
            RequestKind::Report => "report",
            RequestKind::Stats => "stats",
            RequestKind::Metrics => "metrics",
            RequestKind::Shutdown => "shutdown",
            RequestKind::Claim => "claim",
            RequestKind::Result => "result",
            RequestKind::Heartbeat => "heartbeat",
        }
    }

    /// Parse a wire name.
    pub fn parse(s: &str) -> Option<RequestKind> {
        Some(match s {
            "run" => RequestKind::Run,
            "profile" => RequestKind::Profile,
            "report" => RequestKind::Report,
            "stats" => RequestKind::Stats,
            "metrics" => RequestKind::Metrics,
            "shutdown" => RequestKind::Shutdown,
            "claim" => RequestKind::Claim,
            "result" => RequestKind::Result,
            "heartbeat" => RequestKind::Heartbeat,
            _ => return None,
        })
    }

    /// Whether this kind runs a simulation (and therefore goes through
    /// admission control); `stats` and `shutdown` are control requests.
    pub fn is_simulation(self) -> bool {
        matches!(
            self,
            RequestKind::Run | RequestKind::Profile | RequestKind::Report
        )
    }

    /// Whether this kind belongs to the cluster coordinator/worker RPC
    /// (`regless cluster` / `regless worker`); a plain `regless serve`
    /// endpoint answers these with a structured `bad_request`.
    pub fn is_cluster(self) -> bool {
        matches!(
            self,
            RequestKind::Claim | RequestKind::Result | RequestKind::Heartbeat
        )
    }
}

/// One client request.
#[derive(Clone, PartialEq, Debug)]
pub struct Request {
    /// Client-chosen id, echoed in the response.
    pub id: u64,
    /// What to do.
    pub kind: RequestKind,
    /// Kernel spec for simulation kinds: a benchmark id
    /// (`rodinia/<name>`, `micro/<name>`, `special/high_pressure`), a bare
    /// Rodinia name, or a path to a `.asm` file readable by the server.
    pub kernel: Option<String>,
    /// Storage design: any `regless designs` id (default `"regless"`).
    pub design: String,
    /// OSU entries per SM for the regless design.
    pub capacity: usize,
    /// Whether the regless design keeps its compressor.
    pub compressor: bool,
    /// Per-request deadline; once it expires the client gets a structured
    /// `timeout` error and the simulation is cooperatively cancelled (when
    /// no other waiter still wants it).
    pub timeout_ms: Option<u64>,
    /// Cluster: the sending worker's name (`claim`/`result`/`heartbeat`).
    pub worker: Option<String>,
    /// Cluster: the sender's [`PROTOCOL_VERSION`]; checked by the
    /// coordinator via [`check_protocol_version`].
    pub protocol_version: Option<u32>,
    /// Cluster: work-unit id a `result` answers (echoed from the `claim`
    /// response that handed the unit out).
    pub unit: Option<u64>,
    /// Cluster: the completed unit's `RunReport` JSON (`result` only).
    pub report: Option<Json>,
    /// Distributed-tracing id (16 hex digits), valid on every kind.
    /// Optional and purely observational: servers that predate it ignore
    /// it, and a traced request's report is byte-identical to an
    /// untraced one (property-tested). Spans recorded under this id come
    /// back in the response's `trace` array.
    pub trace_id: Option<String>,
}

impl Request {
    /// A `run` request for `kernel` with default design options.
    pub fn run(id: u64, kernel: &str) -> Request {
        Request {
            id,
            kind: RequestKind::Run,
            kernel: Some(kernel.to_string()),
            ..Request::control(id, RequestKind::Run)
        }
    }

    /// A bare control request (`stats`, `shutdown`) — also the base for
    /// builders of simulation requests.
    pub fn control(id: u64, kind: RequestKind) -> Request {
        Request {
            id,
            kind,
            kernel: None,
            design: "regless".to_string(),
            capacity: 512,
            compressor: true,
            timeout_ms: None,
            worker: None,
            protocol_version: None,
            unit: None,
            report: None,
            trace_id: None,
        }
    }

    /// A cluster `claim` from `worker`, stamped with this binary's
    /// [`PROTOCOL_VERSION`].
    pub fn claim(id: u64, worker: &str) -> Request {
        Request {
            worker: Some(worker.to_string()),
            protocol_version: Some(PROTOCOL_VERSION),
            ..Request::control(id, RequestKind::Claim)
        }
    }

    /// A cluster `heartbeat` from `worker`.
    pub fn heartbeat(id: u64, worker: &str) -> Request {
        Request {
            kind: RequestKind::Heartbeat,
            ..Request::claim(id, worker)
        }
    }

    /// A cluster `result`: `worker` delivers `report` for work unit
    /// `unit`. The unit's coordinates (kernel/design/capacity/compressor)
    /// are set by the caller from the claim it answers.
    pub fn result(id: u64, worker: &str, unit: u64, report: Json) -> Request {
        Request {
            kind: RequestKind::Result,
            unit: Some(unit),
            report: Some(report),
            ..Request::claim(id, worker)
        }
    }

    /// Serialize to one wire line (no trailing newline).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("id".to_string(), ToJson::to_json(&self.id)),
            (
                "kind".to_string(),
                Json::Str(self.kind.as_str().to_string()),
            ),
        ];
        if let Some(kernel) = &self.kernel {
            fields.push(("kernel".to_string(), Json::Str(kernel.clone())));
        }
        fields.push(("design".to_string(), Json::Str(self.design.clone())));
        fields.push(("capacity".to_string(), ToJson::to_json(&self.capacity)));
        fields.push(("compressor".to_string(), Json::Bool(self.compressor)));
        if let Some(ms) = self.timeout_ms {
            fields.push(("timeout_ms".to_string(), ToJson::to_json(&ms)));
        }
        if let Some(worker) = &self.worker {
            fields.push(("worker".to_string(), Json::Str(worker.clone())));
        }
        if let Some(v) = self.protocol_version {
            fields.push(("protocol_version".to_string(), ToJson::to_json(&v)));
        }
        if let Some(unit) = self.unit {
            fields.push(("unit".to_string(), ToJson::to_json(&unit)));
        }
        if let Some(report) = &self.report {
            fields.push(("report".to_string(), report.clone()));
        }
        if let Some(trace_id) = &self.trace_id {
            fields.push(("trace_id".to_string(), Json::Str(trace_id.clone())));
        }
        Json::Obj(fields)
    }

    /// Parse one wire line. Missing optional fields take their defaults
    /// (`design` regless, `capacity` 512, `compressor` true).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] for malformed JSON, a missing/unknown
    /// `kind`, or ill-typed fields.
    pub fn from_json(v: &Json) -> Result<Request, JsonError> {
        let id: u64 = match v.field_opt("id")? {
            Some(f) => FromJson::from_json(f)?,
            None => 0,
        };
        let kind_str: String = FromJson::from_json(v.field("kind")?)?;
        let kind = RequestKind::parse(&kind_str)
            .ok_or_else(|| JsonError::new(format!("unknown request kind {kind_str:?}")))?;
        let kernel = match v.field_opt("kernel")? {
            Some(f) => Some(FromJson::from_json(f)?),
            None => None,
        };
        let design = match v.field_opt("design")? {
            Some(f) => FromJson::from_json(f)?,
            None => "regless".to_string(),
        };
        let capacity = match v.field_opt("capacity")? {
            Some(f) => FromJson::from_json(f)?,
            None => 512,
        };
        let compressor = match v.field_opt("compressor")? {
            Some(f) => FromJson::from_json(f)?,
            None => true,
        };
        let timeout_ms = match v.field_opt("timeout_ms")? {
            Some(f) => Some(FromJson::from_json(f)?),
            None => None,
        };
        let worker = match v.field_opt("worker")? {
            Some(f) => Some(FromJson::from_json(f)?),
            None => None,
        };
        let protocol_version = match v.field_opt("protocol_version")? {
            Some(f) => Some(FromJson::from_json(f)?),
            None => None,
        };
        let unit = match v.field_opt("unit")? {
            Some(f) => Some(FromJson::from_json(f)?),
            None => None,
        };
        let report = v.field_opt("report")?.cloned();
        let trace_id = match v.field_opt("trace_id")? {
            Some(f) => Some(FromJson::from_json(f)?),
            None => None,
        };
        Ok(Request {
            id,
            kind,
            kernel,
            design,
            capacity,
            compressor,
            timeout_ms,
            worker,
            protocol_version,
            unit,
            report,
            trace_id,
        })
    }

    /// Builder-style tracing: stamp a wire-form trace id onto any
    /// request kind.
    #[must_use]
    pub fn with_trace_id(mut self, trace_id: impl Into<String>) -> Request {
        self.trace_id = Some(trace_id.into());
        self
    }
}

/// Reject a cluster request whose sender speaks a different protocol
/// version (or none at all). Called by the coordinator on every
/// `claim`/`result`/`heartbeat` so a mixed-binary cluster fails with a
/// structured `version_mismatch` instead of silently corrupting a sweep.
///
/// # Errors
///
/// Returns a [`ErrorCode::VersionMismatch`] error body naming both
/// versions when they differ, or a missing-version message when the
/// request carries none.
pub fn check_protocol_version(req: &Request) -> Result<(), ErrorBody> {
    match req.protocol_version {
        Some(v) if v == PROTOCOL_VERSION => Ok(()),
        Some(v) => Err(ErrorBody::new(
            ErrorCode::VersionMismatch,
            format!("peer speaks protocol v{v}, this binary speaks v{PROTOCOL_VERSION}"),
        )),
        None => Err(ErrorBody::new(
            ErrorCode::VersionMismatch,
            format!(
                "cluster request carries no protocol_version (this binary speaks \
                 v{PROTOCOL_VERSION})"
            ),
        )),
    }
}

/// Structured error codes a response can carry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ErrorCode {
    /// Admission control rejected the request: the job queue is full.
    /// The error body carries a `retry_after_ms` hint.
    QueueFull,
    /// The request's deadline expired; the simulation was cooperatively
    /// cancelled (unless another waiter still wants it).
    Timeout,
    /// The request itself is malformed (unknown kernel/kind …).
    BadRequest,
    /// The request names a design id the registry does not know. The
    /// error message names the id and lists every valid id.
    UnknownDesign,
    /// The simulation panicked; the worker survived via `catch_unwind`.
    SimPanic,
    /// The simulation returned an error (cycle limit, compile failure).
    SimFailed,
    /// The server is draining and no longer admits simulation requests.
    ShuttingDown,
    /// A cluster peer speaks a different [`PROTOCOL_VERSION`]; see
    /// [`check_protocol_version`].
    VersionMismatch,
}

impl ErrorCode {
    /// The wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::QueueFull => "queue_full",
            ErrorCode::Timeout => "timeout",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownDesign => "unknown_design",
            ErrorCode::SimPanic => "sim_panic",
            ErrorCode::SimFailed => "sim_failed",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::VersionMismatch => "version_mismatch",
        }
    }
}

/// The error half of a response.
#[derive(Clone, PartialEq, Debug)]
pub struct ErrorBody {
    /// Machine-readable code.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
    /// For `queue_full`: how long the client should wait before retrying.
    pub retry_after_ms: Option<u64>,
}

impl ErrorBody {
    /// An error with no retry hint.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> ErrorBody {
        ErrorBody {
            code,
            message: message.into(),
            retry_after_ms: None,
        }
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            (
                "code".to_string(),
                Json::Str(self.code.as_str().to_string()),
            ),
            ("message".to_string(), Json::Str(self.message.clone())),
        ];
        if let Some(ms) = self.retry_after_ms {
            fields.push(("retry_after_ms".to_string(), ToJson::to_json(&ms)));
        }
        Json::Obj(fields)
    }
}

/// One server response: the request id plus either a payload or an error.
#[derive(Clone, PartialEq, Debug)]
pub struct Response {
    /// Echo of the request id.
    pub id: u64,
    /// Whether the request succeeded.
    pub ok: bool,
    /// Kind-specific payload fields (empty object on errors).
    pub payload: Json,
    /// The error, when `ok` is false.
    pub error: Option<ErrorBody>,
}

impl Response {
    /// A success response wrapping `payload` (must be a JSON object; its
    /// fields are flattened beside `id` and `ok` on the wire).
    pub fn success(id: u64, payload: Json) -> Response {
        Response {
            id,
            ok: true,
            payload,
            error: None,
        }
    }

    /// An error response.
    pub fn failure(id: u64, error: ErrorBody) -> Response {
        Response {
            id,
            ok: false,
            payload: Json::Obj(Vec::new()),
            error: Some(error),
        }
    }

    /// The error code string, if this is an error response.
    pub fn error_code(&self) -> Option<&'static str> {
        self.error.as_ref().map(|e| e.code.as_str())
    }

    /// A payload field (`None` on errors or missing fields).
    pub fn payload_field(&self, name: &str) -> Option<&Json> {
        self.payload.field_opt(name).ok().flatten()
    }

    /// Convert to the wire object, moving the payload's fields (a
    /// pre-rendered report among them) instead of copying them.
    pub fn into_json(self) -> Json {
        let payload = match self.payload {
            Json::Obj(payload) => payload,
            _ => Vec::new(),
        };
        let mut fields = Vec::with_capacity(payload.len() + 3);
        fields.push(("id".to_string(), ToJson::to_json(&self.id)));
        fields.push(("ok".to_string(), Json::Bool(self.ok)));
        fields.extend(payload);
        if let Some(e) = &self.error {
            fields.push(("error".to_string(), e.to_json()));
        }
        Json::Obj(fields)
    }

    /// Parse one wire line back into a response. Unknown payload fields
    /// are preserved in `payload`.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] for malformed JSON or a malformed error
    /// body.
    pub fn from_json(v: &Json) -> Result<Response, JsonError> {
        let id: u64 = match v.field_opt("id")? {
            Some(f) => FromJson::from_json(f)?,
            None => 0,
        };
        let ok: bool = FromJson::from_json(v.field("ok")?)?;
        let mut payload = Vec::new();
        let mut error = None;
        if let Json::Obj(pairs) = v {
            for (k, val) in pairs {
                match k.as_str() {
                    "id" | "ok" => {}
                    "error" => {
                        let code_str: String = FromJson::from_json(val.field("code")?)?;
                        let code = match code_str.as_str() {
                            "queue_full" => ErrorCode::QueueFull,
                            "timeout" => ErrorCode::Timeout,
                            "bad_request" => ErrorCode::BadRequest,
                            "unknown_design" => ErrorCode::UnknownDesign,
                            "sim_panic" => ErrorCode::SimPanic,
                            "sim_failed" => ErrorCode::SimFailed,
                            "shutting_down" => ErrorCode::ShuttingDown,
                            "version_mismatch" => ErrorCode::VersionMismatch,
                            other => {
                                return Err(JsonError::new(format!("unknown error code {other:?}")))
                            }
                        };
                        let message: String = FromJson::from_json(val.field("message")?)?;
                        let retry_after_ms = match val.field_opt("retry_after_ms")? {
                            Some(f) => Some(FromJson::from_json(f)?),
                            None => None,
                        };
                        error = Some(ErrorBody {
                            code,
                            message,
                            retry_after_ms,
                        });
                    }
                    _ => payload.push((k.clone(), val.clone())),
                }
            }
        }
        Ok(Response {
            id,
            ok,
            payload: Json::Obj(payload),
            error,
        })
    }
}

/// Read one JSONL message from `reader`: `Ok(None)` at end-of-stream,
/// otherwise the parsed line. Empty lines are skipped (a tolerant framing
/// for hand-driven `nc` sessions).
///
/// # Errors
///
/// Returns an I/O error from the underlying reader, or `InvalidData` for
/// a line that is not valid JSON.
pub fn read_json_line(reader: &mut impl BufRead) -> std::io::Result<Option<Json>> {
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        if line.trim().is_empty() {
            continue;
        }
        return Json::parse(&line)
            .map(Some)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.message));
    }
}

/// Write one JSONL message (compact JSON + newline) and flush it. The line
/// is rendered whole first, so it leaves in one write.
///
/// # Errors
///
/// Returns any I/O error from the writer.
pub fn write_json_line(writer: &mut impl Write, json: &Json) -> std::io::Result<()> {
    let mut line = json.to_string_compact();
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips_with_defaults() {
        let r = Request::run(7, "rodinia/nn");
        let parsed = Request::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);

        // A minimal wire request takes the documented defaults.
        let minimal = Json::parse(r#"{"kind":"run","kernel":"rodinia/nn"}"#).unwrap();
        let parsed = Request::from_json(&minimal).unwrap();
        assert_eq!(parsed.id, 0);
        assert_eq!(parsed.design, "regless");
        assert_eq!(parsed.capacity, 512);
        assert!(parsed.compressor);
        assert_eq!(parsed.timeout_ms, None);
    }

    #[test]
    fn trace_id_roundtrips_and_stays_off_the_wire_when_absent() {
        // Untraced requests serialize without the field at all — the
        // wire bytes are identical to a pre-tracing binary's.
        let plain = Request::run(7, "rodinia/nn");
        assert!(
            !plain.to_json().to_string_compact().contains("trace_id"),
            "untraced request must not mention trace_id"
        );

        let traced = Request::run(7, "rodinia/nn").with_trace_id("00000000deadbeef");
        let wire = traced.to_json().to_string_compact();
        assert!(wire.contains(r#""trace_id":"00000000deadbeef""#), "{wire}");
        let parsed = Request::from_json(&Json::parse(&wire).unwrap()).unwrap();
        assert_eq!(parsed, traced);
        assert_eq!(parsed.trace_id.as_deref(), Some("00000000deadbeef"));

        // Tracing composes with every builder, cluster kinds included.
        let claim = Request::claim(1, "w0").with_trace_id("ff");
        let parsed = Request::from_json(&claim.to_json()).unwrap();
        assert_eq!(parsed.trace_id.as_deref(), Some("ff"));
    }

    #[test]
    fn unknown_optional_fields_are_ignored_by_older_parsers() {
        // Forward compatibility: a newer client may stamp optional
        // fields this binary has never heard of (as this PR did with
        // `trace_id`). `from_json` must parse the known subset and
        // silently drop the rest — that is why tracing shipped without
        // a PROTOCOL_VERSION bump.
        let futuristic = Json::parse(
            r#"{"id":5,"kind":"run","kernel":"rodinia/nn",
                "trace_id":"abc","span_parent":"0011223344556677",
                "deadline_unix_ms":99,"priority":"high",
                "baggage":{"tenant":"ci"}}"#,
        )
        .unwrap();
        let parsed = Request::from_json(&futuristic).expect("unknown fields ignored");
        assert_eq!(parsed.id, 5);
        assert_eq!(parsed.kind, RequestKind::Run);
        assert_eq!(parsed.kernel.as_deref(), Some("rodinia/nn"));
        // Known optional field is picked up...
        assert_eq!(parsed.trace_id.as_deref(), Some("abc"));
        // ...and re-serializing keeps only the known fields: the parse
        // is a projection, not an error.
        let wire = parsed.to_json().to_string_compact();
        assert!(!wire.contains("span_parent"), "{wire}");
        assert!(!wire.contains("baggage"), "{wire}");
    }

    #[test]
    fn metrics_kind_is_a_control_request() {
        assert_eq!(RequestKind::parse("metrics"), Some(RequestKind::Metrics));
        assert_eq!(RequestKind::Metrics.as_str(), "metrics");
        assert!(!RequestKind::Metrics.is_simulation());
        assert!(!RequestKind::Metrics.is_cluster());
        let req = Request::control(4, RequestKind::Metrics);
        assert_eq!(Request::from_json(&req.to_json()).unwrap(), req);
    }

    #[test]
    fn unknown_kind_is_an_error() {
        let bad = Json::parse(r#"{"kind":"frobnicate"}"#).unwrap();
        assert!(Request::from_json(&bad).is_err());
    }

    #[test]
    fn error_response_roundtrips_with_retry_hint() {
        let r = Response::failure(
            3,
            ErrorBody {
                code: ErrorCode::QueueFull,
                message: "queue full (8 jobs)".to_string(),
                retry_after_ms: Some(250),
            },
        );
        let wire = r.clone().into_json().to_string_compact();
        assert!(wire.contains(r#""code":"queue_full""#), "{wire}");
        assert!(wire.contains(r#""retry_after_ms":250"#), "{wire}");
        let parsed = Response::from_json(&Json::parse(&wire).unwrap()).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(parsed.error_code(), Some("queue_full"));
    }

    #[test]
    fn success_payload_fields_flatten_and_recover() {
        let payload = Json::Obj(vec![
            ("kind".to_string(), Json::Str("run".to_string())),
            ("cycles".to_string(), Json::Int(42)),
        ]);
        let r = Response::success(9, payload);
        let wire = r.into_json().to_string_compact();
        assert!(
            wire.starts_with(r#"{"id":9,"ok":true,"kind":"run""#),
            "{wire}"
        );
        let parsed = Response::from_json(&Json::parse(&wire).unwrap()).unwrap();
        assert_eq!(parsed.payload_field("cycles"), Some(&Json::Int(42)));
        assert_eq!(parsed.error, None);
    }

    #[test]
    fn cluster_requests_roundtrip_with_worker_fields() {
        let claim = Request::claim(11, "w0");
        assert_eq!(claim.kind, RequestKind::Claim);
        assert!(claim.kind.is_cluster());
        assert!(!claim.kind.is_simulation());
        assert_eq!(claim.protocol_version, Some(PROTOCOL_VERSION));
        let parsed = Request::from_json(&claim.to_json()).unwrap();
        assert_eq!(parsed, claim);

        let hb = Request::heartbeat(12, "w0");
        assert_eq!(hb.kind, RequestKind::Heartbeat);
        assert_eq!(Request::from_json(&hb.to_json()).unwrap(), hb);

        let report = Json::Obj(vec![("cycles".to_string(), Json::Int(99))]);
        let mut result = Request::result(13, "w1", 7, report.clone());
        result.kernel = Some("rodinia/nn".to_string());
        result.design = "baseline".to_string();
        let wire = result.to_json().to_string_compact();
        assert!(wire.contains(r#""kind":"result""#), "{wire}");
        assert!(wire.contains(r#""worker":"w1""#), "{wire}");
        assert!(wire.contains(r#""unit":7"#), "{wire}");
        let parsed = Request::from_json(&Json::parse(&wire).unwrap()).unwrap();
        assert_eq!(parsed, result);
        assert_eq!(parsed.report, Some(report));
    }

    #[test]
    fn version_mismatch_is_a_structured_error() {
        // A matching version passes.
        assert!(check_protocol_version(&Request::claim(1, "w")).is_ok());

        // A different version is refused with both versions named.
        let mut old = Request::claim(2, "w");
        old.protocol_version = Some(PROTOCOL_VERSION + 1);
        let err = check_protocol_version(&old).unwrap_err();
        assert_eq!(err.code, ErrorCode::VersionMismatch);
        assert!(err.message.contains(&format!("v{PROTOCOL_VERSION}")));
        assert!(err.message.contains(&format!("v{}", PROTOCOL_VERSION + 1)));

        // A missing version is refused too (pre-cluster binaries).
        let mut missing = Request::claim(3, "w");
        missing.protocol_version = None;
        let err = check_protocol_version(&missing).unwrap_err();
        assert_eq!(err.code, ErrorCode::VersionMismatch);

        // And the error round-trips the wire as `version_mismatch`.
        let resp = Response::failure(3, err);
        let wire = resp.into_json().to_string_compact();
        assert!(wire.contains(r#""code":"version_mismatch""#), "{wire}");
        let parsed = Response::from_json(&Json::parse(&wire).unwrap()).unwrap();
        assert_eq!(parsed.error_code(), Some("version_mismatch"));
    }

    #[test]
    fn unknown_design_is_a_structured_error() {
        // Registry satellite: an unrecognized design id comes back as a
        // structured `unknown_design` error that names the offending id
        // and lists the valid ones — and the code round-trips the wire.
        let err = ErrorBody::new(
            ErrorCode::UnknownDesign,
            "unknown design \"frobnicate\"; valid designs: baseline, regless",
        );
        assert_eq!(ErrorCode::UnknownDesign.as_str(), "unknown_design");
        let resp = Response::failure(21, err);
        let wire = resp.clone().into_json().to_string_compact();
        assert!(wire.contains(r#""code":"unknown_design""#), "{wire}");
        assert!(wire.contains("frobnicate"), "{wire}");
        assert!(wire.contains("valid designs"), "{wire}");
        let parsed = Response::from_json(&Json::parse(&wire).unwrap()).unwrap();
        assert_eq!(parsed.error_code(), Some("unknown_design"));
        assert_eq!(parsed, resp);
    }

    #[test]
    fn jsonl_framing_skips_blank_lines_and_detects_eof() {
        let text = "\n{\"kind\":\"stats\"}\n\n{\"kind\":\"shutdown\"}\n";
        let mut reader = std::io::BufReader::new(text.as_bytes());
        let a = read_json_line(&mut reader).unwrap().unwrap();
        assert_eq!(a.field("kind").unwrap(), &Json::Str("stats".to_string()));
        let b = read_json_line(&mut reader).unwrap().unwrap();
        assert_eq!(b.field("kind").unwrap(), &Json::Str("shutdown".to_string()));
        assert!(read_json_line(&mut reader).unwrap().is_none());
    }
}
