//! Distributed trace spans: wall-clock intervals tagged with a 64-bit
//! trace id so one request's life can be stitched together across the
//! the client and the serve front door.
//!
//! Timestamps are epoch microseconds ([`epoch_us`]) — a wall clock, not
//! a monotonic one, because spans from different processes must land on
//! one shared timeline. On a single machine (the CI and bench setup)
//! that alignment is exact; across machines it is as good as NTP. The
//! wall clock is never fed into a simulation, so determinism is safe.

use regless_json::Json;
use std::sync::atomic::{AtomicU64, Ordering};

/// Microseconds since the Unix epoch. Saturates at 0 if the system
/// clock is set before 1970 (a non-issue outside of broken VMs).
pub fn epoch_us() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// Generate a fresh trace id: unique per process (counter) and across
/// processes (pid and clock mixed in), never 0 so 0 can mean "untraced".
pub fn gen_trace_id() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let raw = epoch_us() ^ (u64::from(std::process::id()) << 40) ^ n.rotate_left(17);
    let mixed = splitmix64(raw);
    if mixed == 0 {
        1
    } else {
        mixed
    }
}

/// SplitMix64 finalizer — spreads the structured bits of pid/time/counter
/// over the whole word so truncated ids still differ.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Render a trace id as the 16-hex-digit wire form carried in the
/// protocol's optional `trace_id` field.
pub fn format_trace_id(id: u64) -> String {
    format!("{id:016x}")
}

/// Parse a wire-form trace id (1–16 hex digits). Returns `None` for
/// anything else — a malformed id makes the request untraced, never an
/// error, so tracing can't break a client.
pub fn parse_trace_id(s: &str) -> Option<u64> {
    if s.is_empty() || s.len() > 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// One named wall-clock interval in a request's life, attributed to a
/// process (`"serve"`, `"client"`) and joined to
/// the rest of its request by `trace_id`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// Span name from the fixed taxonomy (`admission`, `queue`, `sim`,
    /// `serialize`, `cache`, `coalesce`, `rpc`, ...).
    pub name: String,
    /// Originating process label; becomes the Perfetto process lane.
    pub process: String,
    /// Start time in epoch microseconds.
    pub start_us: u64,
    /// Duration in microseconds (0 renders as an instant).
    pub dur_us: u64,
    /// Free-form annotations (`"hit" -> "true"`).
    pub args: Vec<(String, String)>,
}

impl Span {
    /// Construct a span; annotate with [`Span::arg`].
    pub fn new(
        trace_id: u64,
        name: impl Into<String>,
        process: impl Into<String>,
        start_us: u64,
        dur_us: u64,
    ) -> Span {
        Span {
            trace_id,
            name: name.into(),
            process: process.into(),
            start_us,
            dur_us,
            args: Vec::new(),
        }
    }

    /// Builder-style annotation.
    #[must_use]
    pub fn arg(mut self, key: impl Into<String>, value: impl Into<String>) -> Span {
        self.args.push((key.into(), value.into()));
        self
    }

    /// Serialize for the wire (serve responses return collected spans to
    /// the client so it can write one merged trace file).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("trace_id".into(), Json::Str(format_trace_id(self.trace_id))),
            ("name".into(), Json::Str(self.name.clone())),
            ("process".into(), Json::Str(self.process.clone())),
            ("start_us".into(), Json::Uint(self.start_us)),
            ("dur_us".into(), Json::Uint(self.dur_us)),
        ];
        if !self.args.is_empty() {
            fields.push((
                "args".into(),
                Json::Obj(
                    self.args
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                ),
            ));
        }
        Json::Obj(fields)
    }

    /// Parse a wire-form span; `None` for anything malformed (a dropped
    /// span is cosmetic, so parsing is lenient).
    pub fn from_json(json: &Json) -> Option<Span> {
        fn str_field(json: &Json, name: &str) -> Option<String> {
            match json.field(name).ok()? {
                Json::Str(s) => Some(s.clone()),
                _ => None,
            }
        }
        fn u64_field(json: &Json, name: &str) -> Option<u64> {
            match json.field(name).ok()? {
                Json::Uint(v) => Some(*v),
                Json::Int(v) if *v >= 0 => Some(*v as u64),
                _ => None,
            }
        }
        let trace_id = parse_trace_id(&str_field(json, "trace_id")?)?;
        let name = str_field(json, "name")?;
        let process = str_field(json, "process")?;
        let start_us = u64_field(json, "start_us")?;
        let dur_us = u64_field(json, "dur_us")?;
        let mut args = Vec::new();
        if let Ok(Some(Json::Obj(pairs))) = json.field_opt("args") {
            for (k, v) in pairs {
                if let Json::Str(s) = v {
                    args.push((k.clone(), s.clone()));
                }
            }
        }
        Some(Span {
            trace_id,
            name,
            process,
            start_us,
            dur_us,
            args,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_format_and_parse_round_trip() {
        for id in [1u64, 0xdead_beef, u64::MAX, gen_trace_id()] {
            let wire = format_trace_id(id);
            assert_eq!(wire.len(), 16);
            assert_eq!(parse_trace_id(&wire), Some(id));
        }
        assert_eq!(parse_trace_id(""), None);
        assert_eq!(parse_trace_id("xyz"), None);
        assert_eq!(parse_trace_id("0123456789abcdef0"), None, "17 digits");
        assert_eq!(parse_trace_id("ff"), Some(255), "short ids accepted");
    }

    #[test]
    fn generated_ids_are_distinct_and_nonzero() {
        let ids: Vec<u64> = (0..100).map(|_| gen_trace_id()).collect();
        let mut uniq = ids.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), ids.len(), "collision in 100 ids");
        assert!(ids.iter().all(|&id| id != 0));
    }

    #[test]
    fn span_json_round_trips_including_args() {
        let span = Span::new(0xabc, "sim", "serve", 1_000_000, 250)
            .arg("unit", "saxpy/baseline")
            .arg("cached", "false");
        let parsed = Span::from_json(&span.to_json()).expect("round trip");
        assert_eq!(parsed, span);
        // Malformed spans parse to None, never panic.
        assert_eq!(Span::from_json(&Json::Null), None);
        assert_eq!(Span::from_json(&Json::Obj(vec![])), None);
    }
}
