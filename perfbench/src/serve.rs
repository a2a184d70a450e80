//! The `regless serve` surface: a server process, one closed-loop JSONL
//! connection, and the checks on what comes back.

use crate::cli::Cli;
use crate::inputs::Kind;
use regless_json::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Stdio};
use std::time::{Duration, Instant};

/// A running `regless serve --workers 1` and one connection to it.
pub struct Server {
    child: Child,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Server {
    /// Start a server on an ephemeral port with its sweep cache in
    /// `cache_dir`, and connect to it.
    pub fn start(cli: &Cli, cache_dir: &Path) -> Result<Server, String> {
        let mut child = cli
            .command(&["serve", "--addr", "127.0.0.1:0", "--workers", "1"])
            .env("REGLESS_SWEEP_DIR", cache_dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn regless serve: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let announced = BufReader::new(stdout).read_line(&mut line);
        let addr = match (
            announced,
            line.trim().strip_prefix("regless-serve listening on "),
        ) {
            (Ok(_), Some(addr)) => addr.to_string(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("server did not announce its address: {line:?}"));
            }
        };
        let stream = match TcpStream::connect(&addr) {
            Ok(s) => s,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("connect {addr}: {e}"));
            }
        };
        stream
            .set_nodelay(true)
            .map_err(|e| format!("TCP_NODELAY: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?;
        Ok(Server {
            child,
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Send one request line and read one response line.
    pub fn roundtrip(&mut self, line: &str) -> Result<String, String> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer
            .write_all(&buf)
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(reply),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    /// The server's `stats` payload.
    pub fn stats(&mut self) -> Result<Json, String> {
        let reply = self.roundtrip(r#"{"id":0,"kind":"stats"}"#)?;
        let v = Json::parse(&reply).map_err(|e| format!("stats: {}", e.message))?;
        match v.field("ok") {
            Ok(Json::Bool(true)) => Ok(v),
            _ => Err(format!("stats refused: {}", reply.trim())),
        }
    }

    /// The server's peak resident set (VmHWM) in KiB.
    pub fn vm_hwm_kib(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next()?.parse().ok())
    }

    /// Ask for a graceful drain and wait for the process to exit. The
    /// server can exit before its reply to `shutdown` reaches the socket
    /// (the drain is done as soon as the flag is set on an idle server), so
    /// the reply is not required; a clean exit is.
    pub fn shutdown(mut self) -> Result<(), String> {
        let _ = self.roundtrip(r#"{"id":0,"kind":"shutdown"}"#);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => return Err("server did not drain within 30 s".into()),
                Err(e) => return Err(format!("wait for server: {e}")),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One simulation request line.
pub fn request_line(
    id: u64,
    kind: Kind,
    kernel: &str,
    design: &str,
    trace_id: Option<u64>,
) -> String {
    let mut fields = vec![
        ("id".to_string(), Json::Int(id as i64)),
        ("kind".to_string(), Json::Str(kind.as_str().to_string())),
        ("kernel".to_string(), Json::Str(kernel.to_string())),
        ("design".to_string(), Json::Str(design.to_string())),
    ];
    if let Some(t) = trace_id {
        fields.push(("trace_id".to_string(), Json::Str(format!("{t:016x}"))));
    }
    Json::Obj(fields).to_string_compact()
}

/// What set-up recorded for a point; every later reply must match it.
#[derive(Clone, Debug)]
pub struct Expected {
    /// Simulated cycles.
    pub cycles: u64,
    /// The `run` report, compact-serialised.
    pub report: String,
}

/// A server-side span returned inline for a traced request.
#[derive(Clone, Debug, PartialEq)]
pub struct WireSpan {
    /// Span name (`admission`, `cache`, `queue`, `serialize`, ...).
    pub name: String,
    /// Start, epoch microseconds.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

/// A checked reply.
#[derive(Debug)]
pub struct Reply {
    /// Simulated cycles.
    pub cycles: u64,
    /// The `run` report, compact-serialised (run replies only).
    pub report: Option<String>,
    /// Server spans, for traced requests.
    pub spans: Vec<WireSpan>,
}

/// Parse and check one reply to request `id` of `kind`. With `expected`,
/// the cycles must match and a `run` report must be byte-identical to the
/// one recorded for the point during set-up.
pub fn check_reply(
    line: &str,
    id: u64,
    kind: Kind,
    expected: Option<&Expected>,
) -> Result<Reply, String> {
    let v = Json::parse(line).map_err(|e| format!("unparsable reply: {}", e.message))?;
    let field = |name: &str| v.field_opt(name).ok().flatten();
    if field("id") != Some(&Json::Int(id as i64)) {
        return Err(format!("reply to another request: {:?}", field("id")));
    }
    if field("ok") != Some(&Json::Bool(true)) {
        let err = field("error")
            .map(Json::to_string_compact)
            .unwrap_or_default();
        return Err(format!("error reply: {err}"));
    }
    if field("kind") != Some(&Json::Str(kind.as_str().to_string())) {
        return Err("reply of the wrong kind".into());
    }
    let cycles = match field("cycles") {
        Some(Json::Int(c)) if *c > 0 => *c as u64,
        Some(Json::Uint(c)) => *c,
        _ => return Err("reply without positive cycles".into()),
    };
    let body = match kind {
        Kind::Run => "report",
        Kind::Profile => "profile",
        Kind::Report => "summary",
    };
    let report = match field(body) {
        Some(b @ Json::Obj(_)) => (kind == Kind::Run).then(|| b.to_string_compact()),
        _ => return Err(format!("reply without a {body} object")),
    };
    if let Some(e) = expected {
        if cycles != e.cycles {
            return Err(format!("{cycles} cycles, set-up saw {}", e.cycles));
        }
        if report.as_ref().is_some_and(|r| *r != e.report) {
            return Err("run report differs from the one served during set-up".into());
        }
    }
    let mut spans = Vec::new();
    if let Some(Json::Arr(items)) = field("trace") {
        for s in items {
            let num = |n: &str| match s.field(n) {
                Ok(Json::Int(x)) if *x >= 0 => Some(*x as u64),
                Ok(Json::Uint(x)) => Some(*x),
                _ => None,
            };
            if let (Ok(Json::Str(name)), Some(start_us), Some(dur_us)) =
                (s.field("name"), num("start_us"), num("dur_us"))
            {
                spans.push(WireSpan {
                    name: name.clone(),
                    start_us,
                    dur_us,
                });
            }
        }
    }
    Ok(Reply {
        cycles,
        report,
        spans,
    })
}

/// An unsigned counter from a `stats` payload.
pub fn stat(stats: &Json, name: &str) -> u64 {
    match stats.field(name) {
        Ok(Json::Int(x)) if *x >= 0 => *x as u64,
        Ok(Json::Uint(x)) => *x,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPLY: &str = r#"{"id":5,"ok":true,"kind":"run","kernel":"nn","design":"regless","source":"cache","cycles":8696,"ipc":2.7,"report":{"cycles":8696,"sms":[1,2]},"trace_id":"00000000000abc12","trace":[{"trace_id":"00000000000abc12","name":"admission","process":"serve","start_us":1792220417217670,"dur_us":10}]}"#;

    fn expected() -> Expected {
        Expected {
            cycles: 8696,
            report: r#"{"cycles":8696,"sms":[1,2]}"#.to_string(),
        }
    }

    #[test]
    fn accepts_a_matching_reply_and_reads_its_spans() {
        let r = check_reply(REPLY, 5, Kind::Run, Some(&expected())).unwrap();
        assert_eq!(r.cycles, 8696);
        assert_eq!(r.spans.len(), 1);
        assert_eq!(r.spans[0].name, "admission");
        assert_eq!(r.spans[0].dur_us, 10);
    }

    #[test]
    fn doctored_replies_are_failures() {
        let doctored = [
            REPLY.replace(r#""sms":[1,2]"#, r#""sms":[1,3]"#),
            REPLY.replace(r#""cycles":8696,"ipc""#, r#""cycles":8697,"ipc""#),
            REPLY.replace(r#""ok":true"#, r#""ok":false"#),
            REPLY.replace(r#""id":5"#, r#""id":6"#),
            REPLY.replace(r#""kind":"run""#, r#""kind":"profile""#),
            REPLY.replace(r#""report":{"#, r#""other":{"#),
            REPLY[..REPLY.len() / 2].to_string(),
            r#"{"id":5,"ok":false,"error":{"code":"queue_full","message":"full"}}"#.to_string(),
        ];
        for line in &doctored {
            assert!(
                check_reply(line, 5, Kind::Run, Some(&expected())).is_err(),
                "accepted {line}"
            );
        }
    }

    #[test]
    fn request_lines_carry_an_optional_trace_id() {
        let plain = request_line(3, Kind::Profile, "rodinia/nn", "regdem", None);
        assert_eq!(
            plain,
            r#"{"id":3,"kind":"profile","kernel":"rodinia/nn","design":"regdem"}"#
        );
        let traced = request_line(3, Kind::Run, "rodinia/nn", "regless", Some(0xabc));
        assert!(traced.ends_with(r#""trace_id":"0000000000000abc"}"#));
    }
}
