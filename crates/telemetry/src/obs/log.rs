//! Bounded structured logging: leveled, component-tagged events kept in
//! a fixed-size ring and rendered as JSONL. Replaces the ad-hoc silence
//! around liveness reaping, reconnect/backoff, queue_full rejections,
//! and panic isolation — the events a `regless obs --tail` needs to see.

use super::trace::format_trace_id;
use regless_json::Json;
use std::sync::Mutex;

/// Default ring capacity for servers — enough for minutes of busy-period
/// events, small enough to be free.
pub const DEFAULT_LOG_CAPACITY: usize = 1024;

/// Severity of a [`LogEvent`]. Ordered so callers can filter by level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// High-volume detail (per-request noise), off the wire by default.
    Debug,
    /// Normal lifecycle: startup, worker join, drain.
    Info,
    /// Degraded but recovering: queue_full, reconnect, worker reaped.
    Warn,
    /// Lost work or broken invariants: panic isolated, merge failed.
    Error,
}

impl LogLevel {
    /// Stable lowercase name, used on the wire and in output.
    pub fn as_str(self) -> &'static str {
        match self {
            LogLevel::Debug => "debug",
            LogLevel::Info => "info",
            LogLevel::Warn => "warn",
            LogLevel::Error => "error",
        }
    }

    /// Parse [`LogLevel::as_str`]'s output.
    pub fn parse(s: &str) -> Option<LogLevel> {
        match s {
            "debug" => Some(LogLevel::Debug),
            "info" => Some(LogLevel::Info),
            "warn" => Some(LogLevel::Warn),
            "error" => Some(LogLevel::Error),
            _ => None,
        }
    }
}

/// One structured log event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogEvent {
    /// Monotonic sequence number within the emitting [`EventLog`];
    /// `--tail` resumes from the last seen value.
    pub seq: u64,
    /// Wall-clock milliseconds since the Unix epoch.
    pub ts_ms: u64,
    /// Severity.
    pub level: LogLevel,
    /// Emitting component (`"serve"`).
    pub component: String,
    /// Human-readable one-liner.
    pub message: String,
    /// Trace id, when the event happened on behalf of a traced request.
    pub trace_id: Option<u64>,
    /// Structured key/value context (`"kernel" -> "rodinia/nn"`).
    pub fields: Vec<(String, String)>,
}

impl LogEvent {
    /// Serialize as one JSONL object.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("seq".into(), Json::Uint(self.seq)),
            ("ts_ms".into(), Json::Uint(self.ts_ms)),
            ("level".into(), Json::Str(self.level.as_str().into())),
            ("component".into(), Json::Str(self.component.clone())),
            ("message".into(), Json::Str(self.message.clone())),
        ];
        if let Some(id) = self.trace_id {
            fields.push(("trace_id".into(), Json::Str(format_trace_id(id))));
        }
        if !self.fields.is_empty() {
            fields.push((
                "fields".into(),
                Json::Obj(
                    self.fields
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                ),
            ));
        }
        Json::Obj(fields)
    }

    /// Parse [`LogEvent::to_json`]'s output; `None` on anything
    /// malformed (a dropped log line is cosmetic).
    pub fn from_json(json: &Json) -> Option<LogEvent> {
        fn u64_field(json: &Json, name: &str) -> Option<u64> {
            match json.field(name).ok()? {
                Json::Uint(v) => Some(*v),
                Json::Int(v) if *v >= 0 => Some(*v as u64),
                _ => None,
            }
        }
        fn str_field(json: &Json, name: &str) -> Option<String> {
            match json.field(name).ok()? {
                Json::Str(s) => Some(s.clone()),
                _ => None,
            }
        }
        let trace_id = match json.field_opt("trace_id").ok()? {
            Some(Json::Str(s)) => Some(super::trace::parse_trace_id(s)?),
            Some(_) => return None,
            None => None,
        };
        let mut fields = Vec::new();
        if let Ok(Some(Json::Obj(pairs))) = json.field_opt("fields") {
            for (k, v) in pairs {
                if let Json::Str(s) = v {
                    fields.push((k.clone(), s.clone()));
                }
            }
        }
        Some(LogEvent {
            seq: u64_field(json, "seq")?,
            ts_ms: u64_field(json, "ts_ms")?,
            level: LogLevel::parse(&str_field(json, "level")?)?,
            component: str_field(json, "component")?,
            message: str_field(json, "message")?,
            trace_id,
            fields,
        })
    }

    /// Render as a single human-readable line (`--tail` output).
    pub fn render(&self) -> String {
        let mut out = format!(
            "[{:>5}] {} {}: {}",
            self.level.as_str(),
            self.ts_ms,
            self.component,
            self.message
        );
        if let Some(id) = self.trace_id {
            out.push_str(&format!(" trace={}", format_trace_id(id)));
        }
        for (k, v) in &self.fields {
            out.push_str(&format!(" {k}={v}"));
        }
        out
    }
}

/// A bounded, thread-safe ring of [`LogEvent`]s. Sequence numbers are
/// assigned at push and never reused, so a tailing client can detect
/// both new events (`seq > last_seen`) and gaps (events evicted before
/// it polled).
#[derive(Debug)]
pub struct EventLog {
    capacity: usize,
    inner: Mutex<EventLogInner>,
}

#[derive(Debug, Default)]
struct EventLogInner {
    events: std::collections::VecDeque<LogEvent>,
    next_seq: u64,
}

impl EventLog {
    /// An empty log holding at most `capacity` events.
    pub fn new(capacity: usize) -> EventLog {
        EventLog {
            capacity: capacity.max(1),
            inner: Mutex::new(EventLogInner::default()),
        }
    }

    /// Record an event; returns its sequence number. `fields` keys and
    /// values are borrowed so call sites stay one-liners.
    pub fn log(
        &self,
        level: LogLevel,
        component: &str,
        message: impl Into<String>,
        trace_id: Option<u64>,
        fields: &[(&str, String)],
    ) -> u64 {
        let ts_ms = super::trace::epoch_us() / 1000;
        let mut inner = self.inner.lock().unwrap();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.events.len() >= self.capacity {
            inner.events.pop_front();
        }
        inner.events.push_back(LogEvent {
            seq,
            ts_ms,
            level,
            component: component.to_string(),
            message: message.into(),
            trace_id,
            fields: fields
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect(),
        });
        seq
    }

    /// Every retained event with `seq > after_seq`, oldest first. Pass
    /// `None` for all retained events.
    pub fn snapshot_since(&self, after_seq: Option<u64>) -> Vec<LogEvent> {
        let inner = self.inner.lock().unwrap();
        inner
            .events
            .iter()
            .filter(|e| after_seq.is_none_or(|s| e.seq > s))
            .cloned()
            .collect()
    }

    /// Total events ever logged (retained or evicted).
    pub fn total(&self) -> u64 {
        self.inner.lock().unwrap().next_seq
    }

    /// Events evicted from the ring before anyone read them — the gap a
    /// tailing client sees, exported as a Prometheus counter so silent
    /// log loss is visible on a dashboard.
    pub fn dropped(&self) -> u64 {
        let inner = self.inner.lock().unwrap();
        inner.next_seq - inner.events.len() as u64
    }

    /// Retained event count.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().events.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_round_trip() {
        assert!(LogLevel::Debug < LogLevel::Info);
        assert!(LogLevel::Warn < LogLevel::Error);
        for level in [
            LogLevel::Debug,
            LogLevel::Info,
            LogLevel::Warn,
            LogLevel::Error,
        ] {
            assert_eq!(LogLevel::parse(level.as_str()), Some(level));
        }
        assert_eq!(LogLevel::parse("fatal"), None);
    }

    #[test]
    fn event_json_round_trips_with_and_without_options() {
        let log = EventLog::new(8);
        log.log(
            LogLevel::Warn,
            "serve",
            "queue full",
            Some(0xbeef),
            &[("depth", "32".into())],
        );
        log.log(LogLevel::Info, "serve", "drained", None, &[]);
        for ev in log.snapshot_since(None) {
            let parsed = LogEvent::from_json(&ev.to_json()).expect("round trip");
            assert_eq!(parsed, ev);
        }
        assert_eq!(LogEvent::from_json(&Json::Null), None);
    }

    #[test]
    fn ring_is_bounded_and_seq_exposes_gaps() {
        let log = EventLog::new(3);
        for i in 0..5 {
            log.log(LogLevel::Info, "c", format!("e{i}"), None, &[]);
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.total(), 5);
        assert_eq!(log.dropped(), 2, "two events fell off the ring");
        let seqs: Vec<u64> = log.snapshot_since(None).iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4], "oldest evicted, seqs preserved");
        let since: Vec<u64> = log.snapshot_since(Some(3)).iter().map(|e| e.seq).collect();
        assert_eq!(since, vec![4]);
    }

    #[test]
    fn render_is_single_line_with_context() {
        let log = EventLog::new(2);
        log.log(
            LogLevel::Error,
            "serve",
            "simulation panicked",
            None,
            &[("kernel", "rodinia/nn".into())],
        );
        let text = log.snapshot_since(None)[0].render();
        assert!(text.contains("error"), "{text}");
        assert!(text.contains("kernel=rodinia/nn"), "{text}");
        assert!(!text.contains('\n'));
    }
}
