//! The JSONL request/response protocol.
//!
//! One JSON object per line in each direction. Requests name a kind plus
//! the simulation coordinates; responses echo the request `id` and carry
//! either a kind-specific payload (`"ok": true`) or a structured error
//! (`"ok": false`). The grammar is documented in DESIGN.md §12; this
//! module is the single encoder/decoder both the server and the clients
//! (CLI `submit` and `obs`, tests) share.

use regless_json::{write_escaped, FromJson, Json, JsonError, ToJson};
use std::io::{BufRead, IoSlice, Write};
use std::sync::Arc;

/// Version of the JSONL wire protocol, reported by `stats` as
/// `protocol_version`.
///
/// v2 added the `uptime_ms`/`protocol_version` stats fields; v3 named a
/// design point in `design` alone (`regless:order=fifo`).
pub const PROTOCOL_VERSION: u32 = 3;

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
    /// spans (handled inline; never queued); rendered by `regless obs`.
    Metrics,
    /// Drain in-flight jobs and stop the server.
    Shutdown,
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
    /// Storage design point, as `regless designs` ids and their
    /// parameters spell it (`regless:capacity=128:order=fifo`; default
    /// `"regless"`). The reply echoes it as sent.
    pub design: String,
    /// Alias for the design point's `capacity` parameter; ignored by a
    /// design that does not declare it.
    pub capacity: Option<usize>,
    /// Alias for the design point's `compressor` parameter; ignored by a
    /// design that does not declare it.
    pub compressor: Option<bool>,
    /// Per-request deadline; once it expires the client gets a structured
    /// `timeout` error and the simulation is cooperatively cancelled (when
    /// no other waiter still wants it).
    pub timeout_ms: Option<u64>,
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
            capacity: None,
            compressor: None,
            timeout_ms: None,
            trace_id: None,
        }
    }

    /// Serialize to one wire line (no trailing newline).
    pub fn to_json(&self) -> Json {
        let fields = [
            ("id", Some(self.id.to_json())),
            ("kind", Some(self.kind.as_str().to_json())),
            ("kernel", self.kernel.as_ref().map(ToJson::to_json)),
            ("design", Some(self.design.to_json())),
            ("capacity", self.capacity.map(|c| c.to_json())),
            ("compressor", self.compressor.map(Json::Bool)),
            ("timeout_ms", self.timeout_ms.map(|ms| ms.to_json())),
            ("trace_id", self.trace_id.as_ref().map(ToJson::to_json)),
        ];
        // Absent optional fields stay off the wire.
        let present = fields
            .into_iter()
            .filter_map(|(k, v)| Some((k.to_string(), v?)));
        Json::Obj(present.collect())
    }

    /// Decode one parsed wire line, moving its strings out of the tree. A
    /// missing `design` is `regless`; other missing optional fields are
    /// `None`. Where a field appears twice, the first one counts.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] for a non-object, a missing/unknown `kind`,
    /// or ill-typed fields.
    pub fn from_json(v: Json) -> Result<Request, JsonError> {
        let mut fields = match v {
            Json::Obj(fields) => fields,
            other => {
                return Err(JsonError::new(format!(
                    "expected object with field `id`, got {}",
                    other.kind()
                )))
            }
        };
        let f = &mut fields;
        let id = optional(f, "id")?.unwrap_or(0);
        let kind = take(f, "kind")
            .ok_or_else(|| JsonError::new("missing field `kind`"))?
            .into_string()?;
        let kind = RequestKind::parse(&kind)
            .ok_or_else(|| JsonError::new(format!("unknown request kind {kind:?}")))?;
        Ok(Request {
            id,
            kind,
            kernel: take(f, "kernel").map(Json::into_string).transpose()?,
            design: match take(f, "design") {
                Some(design) => design.into_string()?,
                None => "regless".to_string(),
            },
            capacity: optional(f, "capacity")?,
            compressor: optional(f, "compressor")?,
            timeout_ms: optional(f, "timeout_ms")?,
            trace_id: take(f, "trace_id").map(Json::into_string).transpose()?,
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

/// Move the first field `name` out of an object's fields. Each name is
/// taken once, so the `null` left in its place is never read.
fn take(fields: &mut [(String, Json)], name: &str) -> Option<Json> {
    let (_, v) = fields.iter_mut().find(|(k, _)| k == name)?;
    Some(std::mem::replace(v, Json::Null))
}

/// Scalar field `name` of an object's fields, or `None` when it is absent.
fn optional<T: FromJson>(
    fields: &mut [(String, Json)],
    name: &str,
) -> Result<Option<T>, JsonError> {
    take(fields, name).map(|v| T::from_json(&v)).transpose()
}

/// Field `name` of the object `v`, or `None` when it is absent.
fn field<T: FromJson>(v: &Json, name: &str) -> Result<Option<T>, JsonError> {
    v.field_opt(name)?.map(T::from_json).transpose()
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
        let id = field(v, "id")?.unwrap_or(0);
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
                            other => {
                                return Err(JsonError::new(format!("unknown error code {other:?}")))
                            }
                        };
                        let message: String = FromJson::from_json(val.field("message")?)?;
                        error = Some(ErrorBody {
                            code,
                            message,
                            retry_after_ms: field(val, "retry_after_ms")?,
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

/// Read one JSONL message from `reader` into `line`, a buffer the caller
/// keeps from one message to the next: `Ok(None)` at end-of-stream,
/// otherwise the parsed line. Empty lines are skipped (a tolerant framing
/// for hand-driven `nc` sessions).
///
/// # Errors
///
/// Returns an I/O error from the underlying reader, or `InvalidData` for
/// a line that is not valid JSON.
pub fn read_json_line(
    reader: &mut impl BufRead,
    line: &mut String,
) -> std::io::Result<Option<Json>> {
    loop {
        line.clear();
        if reader.read_line(line)? == 0 {
            return Ok(None);
        }
        if line.trim().is_empty() {
            continue;
        }
        return Json::parse(line)
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

/// The writer of every server reply. A reply line goes out in three
/// parts, in one vectored write where the socket takes it whole:
///
/// - the head: `{"id":…,"ok":…` and every field up to the memoized body;
/// - the body: a cached run's memoized text (its report, profile or
///   summary), sent as is, never copied;
/// - the tail: the fields after the body (a traced request's `trace_id`
///   and `trace`), then `}` and the newline.
///
/// A reply without a body (an error or a control request) is all head.
/// The head and tail buffers keep their capacity from one reply to the
/// next, so a connection that reuses its `Reply` renders a warm reply
/// without allocating. The bytes are those of [`Response::into_json`]
/// written compact.
#[derive(Debug, Default)]
pub struct Reply {
    head: String,
    body: Option<Arc<str>>,
    tail: String,
}

impl Reply {
    /// Start the reply to request `id`, dropping whatever the last one
    /// held: `{"id":<id>,"ok":<ok>`.
    pub fn begin(&mut self, id: u64, ok: bool) {
        self.head.clear();
        self.tail.clear();
        self.body = None;
        self.head.push_str("{\"id\":");
        id.to_json().write_compact(&mut self.head);
        self.head
            .push_str(if ok { ",\"ok\":true" } else { ",\"ok\":false" });
    }

    /// Append the field `name` with a rendered value.
    pub fn field(&mut self, name: &str, value: &Json) {
        value.write_compact(self.key(name));
    }

    /// Append the string field `name`, escaped as [`Json::Str`] is.
    pub fn str_field(&mut self, name: &str, value: &str) {
        write_escaped(self.key(name), value);
    }

    /// Append the field `name` whose value is `text`, pre-rendered compact
    /// JSON sent as is. Fields appended after it go to the tail. A reply
    /// has at most one such field.
    pub fn body_field(&mut self, name: &str, text: Arc<str>) {
        debug_assert!(self.body.is_none(), "one body per reply");
        self.key(name);
        self.body = Some(text);
    }

    /// [`Reply::begin`] a failure reply carrying `error`.
    pub fn error(&mut self, id: u64, error: &ErrorBody) {
        self.begin(id, false);
        self.field("error", &error.to_json());
    }

    /// [`Reply::begin`] a success reply whose fields are those of the
    /// object `payload`.
    pub fn success(&mut self, id: u64, payload: &Json) {
        self.begin(id, true);
        if let Json::Obj(fields) = payload {
            for (name, value) in fields {
                self.field(name, value);
            }
        }
    }

    /// Close the line (`}` and a newline) and write head, body and tail
    /// to `writer`, resubmitting whatever a short write left.
    ///
    /// # Errors
    ///
    /// Returns the writer's error, or `WriteZero` when it takes nothing.
    pub fn send(&mut self, writer: &mut impl Write) -> std::io::Result<()> {
        self.part().push_str("}\n");
        let body = self.body.as_deref().unwrap_or_default();
        let mut parts = [
            IoSlice::new(self.head.as_bytes()),
            IoSlice::new(body.as_bytes()),
            IoSlice::new(self.tail.as_bytes()),
        ];
        let mut parts = &mut parts[..];
        IoSlice::advance_slices(&mut parts, 0);
        while !parts.is_empty() {
            match writer.write_vectored(parts) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "failed to write the whole reply",
                    ))
                }
                Ok(n) => IoSlice::advance_slices(&mut parts, n),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        writer.flush()
    }

    /// The buffer fields are appended to: the tail once a body is set.
    fn part(&mut self) -> &mut String {
        if self.body.is_some() {
            &mut self.tail
        } else {
            &mut self.head
        }
    }

    /// Append `,"<name>":` and return the buffer its value goes to.
    fn key(&mut self, name: &str) -> &mut String {
        let out = self.part();
        out.push(',');
        write_escaped(out, name);
        out.push(':');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips_with_defaults() {
        let r = Request::run(7, "rodinia/nn");
        let parsed = Request::from_json(r.to_json()).unwrap();
        assert_eq!(parsed, r);

        // A minimal wire request takes the documented defaults.
        let minimal = Json::parse(r#"{"kind":"run","kernel":"rodinia/nn"}"#).unwrap();
        let parsed = Request::from_json(minimal).unwrap();
        assert_eq!(parsed.id, 0);
        assert_eq!(parsed.design, "regless");
        assert_eq!(parsed.capacity, None);
        assert_eq!(parsed.compressor, None);

        // The aliases round-trip when present.
        let aliased = Request {
            capacity: Some(128),
            compressor: Some(false),
            ..Request::run(8, "rodinia/nn")
        };
        assert_eq!(Request::from_json(aliased.to_json()).unwrap(), aliased);
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
        let parsed = Request::from_json(Json::parse(&wire).unwrap()).unwrap();
        assert_eq!(parsed, traced);
        assert_eq!(parsed.trace_id.as_deref(), Some("00000000deadbeef"));
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
        let parsed = Request::from_json(futuristic).expect("unknown fields ignored");
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
        let req = Request::control(4, RequestKind::Metrics);
        assert_eq!(Request::from_json(req.to_json()).unwrap(), req);
    }

    #[test]
    fn unknown_kind_is_an_error() {
        let bad = Json::parse(r#"{"kind":"frobnicate"}"#).unwrap();
        assert!(Request::from_json(bad).is_err());
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
        let mut line = String::new();
        let a = read_json_line(&mut reader, &mut line).unwrap().unwrap();
        assert_eq!(a.field("kind").unwrap(), &Json::Str("stats".to_string()));
        let b = read_json_line(&mut reader, &mut line).unwrap().unwrap();
        assert_eq!(b.field("kind").unwrap(), &Json::Str("shutdown".to_string()));
        assert!(read_json_line(&mut reader, &mut line).unwrap().is_none());
    }

    /// Accepts at most 7 bytes per call, across slice boundaries, and
    /// fails every third call with `Interrupted`.
    struct Trickle {
        bytes: Vec<u8>,
        calls: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(3) {
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            let before = self.bytes.len();
            for b in bufs {
                let room = 7 - (self.bytes.len() - before);
                self.bytes.extend_from_slice(&b[..b.len().min(room)]);
            }
            Ok(self.bytes.len() - before)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A string that needs every kind of escape, and multi-byte UTF-8.
    const AWKWARD: &str = "a \"quoted\" back\\slash\n\r\t\u{1}\u{1f} ünïcøde 😀";

    /// The three reply shapes: a run with a body and traced tail fields,
    /// an error with a retry hint, and a control payload; each with the
    /// `Response` it must render exactly as.
    fn shapes() -> Vec<(Reply, Response)> {
        let body: Arc<str> = Arc::from(r#"{"cycles":42,"sm_stats":[{"insns":7}]}"#);
        let mut run = Reply::default();
        run.begin(3, true);
        run.str_field("kind", "run");
        run.str_field("design", AWKWARD);
        run.field("cycles", &Json::Int(42));
        run.field("ipc", &Json::Float(0.1 + 0.2));
        run.body_field("report", Arc::clone(&body));
        run.str_field("trace_id", "00000000000abc12");
        run.field("trace", &Json::Arr(vec![Json::Int(1), Json::Null]));
        let run_resp = Response::success(
            3,
            Json::Obj(vec![
                ("kind".to_string(), Json::Str("run".to_string())),
                ("design".to_string(), Json::Str(AWKWARD.to_string())),
                ("cycles".to_string(), Json::Int(42)),
                ("ipc".to_string(), Json::Float(0.1 + 0.2)),
                ("report".to_string(), Json::Raw(body)),
                (
                    "trace_id".to_string(),
                    Json::Str("00000000000abc12".to_string()),
                ),
                (
                    "trace".to_string(),
                    Json::Arr(vec![Json::Int(1), Json::Null]),
                ),
            ]),
        );
        let error = ErrorBody {
            code: ErrorCode::QueueFull,
            message: format!("queue full {AWKWARD}"),
            retry_after_ms: Some(250),
        };
        let mut failure = Reply::default();
        failure.error(u64::MAX, &error);
        let payload = Json::Obj(vec![
            ("kind".to_string(), Json::Str("stats".to_string())),
            ("draining".to_string(), Json::Bool(false)),
        ]);
        let mut control = Reply::default();
        control.success(0, &payload);
        vec![
            (run, run_resp),
            (failure, Response::failure(u64::MAX, error)),
            (control, Response::success(0, payload)),
        ]
    }

    fn wire(resp: Response) -> Vec<u8> {
        let mut line = resp.into_json().to_string_compact();
        line.push('\n');
        line.into_bytes()
    }

    #[test]
    fn replies_render_as_their_responses() {
        for (mut reply, resp) in shapes() {
            let expected = wire(resp.clone());
            let mut sent = Vec::new();
            reply.send(&mut sent).unwrap();
            assert_eq!(
                String::from_utf8(sent).unwrap(),
                String::from_utf8(expected.clone()).unwrap()
            );
            let line = std::str::from_utf8(&expected).unwrap();
            let parsed = Response::from_json(&Json::parse(line).unwrap()).unwrap();
            if resp.payload_field("report").is_none() {
                assert_eq!(parsed, resp, "{line}");
            }
        }
    }

    #[test]
    fn short_and_interrupted_writes_are_resubmitted() {
        for (mut reply, resp) in shapes() {
            let mut trickle = Trickle {
                bytes: Vec::new(),
                calls: 0,
            };
            reply.send(&mut trickle).unwrap();
            let expected = wire(resp);
            assert_eq!(trickle.bytes, expected);
            assert!(trickle.calls > expected.len() / 7, "{}", trickle.calls);
        }
    }

    #[test]
    fn a_writer_that_takes_nothing_is_an_error() {
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let (mut reply, _) = shapes().swap_remove(0);
        let err = reply.send(&mut Full).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WriteZero);
    }

    #[test]
    fn a_reused_reply_carries_nothing_over() {
        let mut shapes = shapes();
        let (_, control) = shapes.pop().unwrap();
        let (_, failure) = shapes.pop().unwrap();
        let (mut reply, _) = shapes.pop().unwrap();
        reply.send(&mut Vec::new()).unwrap();
        // The traced run above left a body and a tail behind.
        let mut sent = Vec::new();
        reply.error(u64::MAX, failure.error.as_ref().unwrap());
        reply.send(&mut sent).unwrap();
        assert_eq!(sent, wire(failure));
        sent.clear();
        reply.success(0, &control.payload);
        reply.send(&mut sent).unwrap();
        assert_eq!(sent, wire(control));
    }

    #[test]
    fn string_fields_are_escaped_as_json_strings() {
        let mut reply = Reply::default();
        reply.begin(1, true);
        reply.str_field("design", AWKWARD);
        let mut sent = Vec::new();
        reply.send(&mut sent).unwrap();
        let line = String::from_utf8(sent).unwrap();
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(
            parsed.field("design").unwrap(),
            &Json::Str(AWKWARD.to_string())
        );
        let echoed = Json::Str(AWKWARD.to_string()).to_string_compact();
        assert!(line.contains(&format!(",\"design\":{echoed}}}")), "{line}");
    }
}
