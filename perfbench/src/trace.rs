//! In-memory spans of the traced run, written out as Chrome trace-event
//! JSON (loadable by Perfetto) when the benchmark ends.
//!
//! Every span carries an id and its parent's id; only the root has no
//! parent. Spans are recorded by the benchmark around its calls into each
//! layer and at the process and wire boundaries; the program's own phase
//! and server spans are attached as children of the call that produced
//! them.

use regless_json::Json;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id (the root is 1).
    pub id: u64,
    /// The causing span; `None` only for the root.
    pub parent: Option<u64>,
    /// Span name.
    pub name: String,
    /// The layer it belongs to (`host`, `cli`, `sim`, `serve`, ...).
    pub layer: &'static str,
    /// Start, microseconds since the root started.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Free-form annotations.
    pub args: Vec<(String, String)>,
}

/// The span store. The root span is open from construction to
/// [`Tracer::finish`].
pub struct Tracer {
    t0: Instant,
    epoch_us_at_t0: f64,
    spans: Vec<Span>,
}

/// The root span's id.
pub const ROOT: u64 = 1;

impl Tracer {
    /// Open the root span `name`.
    pub fn new(name: &str) -> Tracer {
        let epoch_us_at_t0 = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs_f64() * 1e6)
            .unwrap_or(0.0);
        Tracer {
            t0: Instant::now(),
            epoch_us_at_t0,
            spans: vec![Span {
                id: ROOT,
                parent: None,
                name: name.to_string(),
                layer: "bench",
                start_us: 0.0,
                dur_us: 0.0,
                args: Vec::new(),
            }],
        }
    }

    fn us_since_t0(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.t0).as_secs_f64() * 1e6
    }

    /// Record a finished span that ran from `start` to `end`; returns its id.
    pub fn record(
        &mut self,
        parent: u64,
        name: &str,
        layer: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let start_us = self.us_since_t0(start);
        let dur_us = self.us_since_t0(end) - start_us;
        self.push(parent, name, layer, start_us, dur_us)
    }

    /// Record a span reported by the program in epoch microseconds.
    pub fn record_epoch(
        &mut self,
        parent: u64,
        name: &str,
        layer: &'static str,
        start_epoch_us: u64,
        dur_us: u64,
    ) -> u64 {
        let start_us = start_epoch_us as f64 - self.epoch_us_at_t0;
        self.push(parent, name, layer, start_us, dur_us as f64)
    }

    /// Record a span at an offset (µs since the tracer started).
    pub fn push(
        &mut self,
        parent: u64,
        name: &str,
        layer: &'static str,
        start_us: f64,
        dur_us: f64,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent: Some(parent),
            name: name.to_string(),
            layer,
            start_us,
            dur_us: dur_us.max(0.0),
            args: Vec::new(),
        });
        id
    }

    /// Annotate span `id`.
    pub fn arg(&mut self, id: u64, key: &str, value: impl ToString) {
        if let Some(s) = self.spans.get_mut((id - 1) as usize) {
            s.args.push((key.to_string(), value.to_string()));
        }
    }

    /// Start offset of span `id` in µs.
    pub fn start_of(&self, id: u64) -> f64 {
        self.spans[(id - 1) as usize].start_us
    }

    /// Close the root span and hand back every span.
    pub fn finish(mut self) -> Vec<Span> {
        let end = self.us_since_t0(Instant::now());
        self.spans[0].dur_us = end;
        self.spans
    }
}

/// Every span's self time: its duration minus the part of it that its
/// children's intervals cover. Indexed like `spans` (span id - 1).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[(p - 1) as usize].push((s.start_us, s.start_us + s.dur_us));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, kids)| span.dur_us - covered_us(span, kids))
        .collect()
}

/// How much of `span` the union of the `kids` intervals covers.
fn covered_us(span: &Span, mut kids: Vec<(f64, f64)>) -> f64 {
    let (lo, hi) = (span.start_us, span.start_us + span.dur_us);
    kids.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in kids {
        let (a, b) = (a.max(lo), b.min(hi));
        if b <= a {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    covered
}

/// Render spans as Chrome trace-event JSON. The benchmark's own spans go on
/// thread 1, spans reported by the program on thread 2, so that Perfetto's
/// nesting by time containment never mixes the two clocks.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut events = vec![
        meta("process_name", 0, "regless perfbench"),
        meta("thread_name", 1, "benchmark"),
        meta("thread_name", 2, "program"),
    ];
    for (s, self_us) in spans.iter().zip(self_times_us(spans)) {
        let mut args = vec![
            ("id".to_string(), Json::Int(s.id as i64)),
            (
                "parent".to_string(),
                s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
            ),
            ("layer".to_string(), Json::Str(s.layer.to_string())),
            ("self_us".to_string(), Json::Float(self_us)),
        ];
        args.extend(
            s.args
                .iter()
                .map(|(k, v)| (k.clone(), Json::Str(v.clone()))),
        );
        let tid = if matches!(s.layer, "sim" | "serve") {
            2
        } else {
            1
        };
        events.push(Json::Obj(vec![
            ("name".to_string(), Json::Str(s.name.clone())),
            ("cat".to_string(), Json::Str(s.layer.to_string())),
            ("ph".to_string(), Json::Str("X".to_string())),
            ("ts".to_string(), Json::Float(s.start_us)),
            ("dur".to_string(), Json::Float(s.dur_us)),
            ("pid".to_string(), Json::Int(1)),
            ("tid".to_string(), Json::Int(tid)),
            ("args".to_string(), Json::Obj(args)),
        ]));
    }
    Json::Obj(vec![
        ("traceEvents".to_string(), Json::Arr(events)),
        ("displayTimeUnit".to_string(), Json::Str("ms".to_string())),
    ])
    .to_string_compact()
}

fn meta(name: &str, tid: i64, value: &str) -> Json {
    Json::Obj(vec![
        ("name".to_string(), Json::Str(name.to_string())),
        ("ph".to_string(), Json::Str("M".to_string())),
        ("pid".to_string(), Json::Int(1)),
        ("tid".to_string(), Json::Int(tid)),
        (
            "args".to_string(),
            Json::Obj(vec![("name".to_string(), Json::Str(value.to_string()))]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Span> {
        let mut t = Tracer::new("run");
        let op = t.push(ROOT, "op", "bench", 10.0, 100.0);
        t.push(op, "a", "cli", 20.0, 30.0);
        t.push(op, "b", "cli", 40.0, 30.0); // overlaps a
        t.push(op, "c", "cli", 90.0, 50.0); // runs past the parent
        let srv = t.record_epoch(op, "cache", "serve", 0, 1);
        t.arg(srv, "hit", "true");
        t.finish()
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = sample();
        // Children cover [20,70) and [90,110) of [10,110); the epoch span
        // lies outside it.
        let own = self_times_us(&spans);
        assert!((own[1] - 30.0).abs() < 1e-9);
        assert!((own[2] - 30.0).abs() < 1e-9);
    }

    #[test]
    fn self_time_of_disjoint_children() {
        let mut t = Tracer::new("run");
        let op = t.push(ROOT, "op", "bench", 0.0, 100.0);
        t.push(op, "a", "cli", 10.0, 20.0);
        t.push(op, "b", "cli", 20.0, 20.0);
        t.push(op, "c", "cli", 90.0, 50.0);
        let spans = t.finish();
        // Union [10,40) + [90,100) = 40.
        assert!((self_times_us(&spans)[(op - 1) as usize] - 60.0).abs() < 1e-9);
    }

    #[test]
    fn chrome_output_is_valid_and_every_span_but_the_root_has_a_parent() {
        let spans = sample();
        let text = chrome_json(&spans);
        let v = Json::parse(&text).expect("valid JSON");
        let Ok(Json::Arr(events)) = v.field("traceEvents") else {
            panic!("no traceEvents array");
        };
        let complete: Vec<&Json> = events
            .iter()
            .filter(|e| e.field("ph").ok() == Some(&Json::Str("X".into())))
            .collect();
        assert_eq!(complete.len(), spans.len());
        let ids: Vec<i64> = complete
            .iter()
            .map(|e| match e.field("args").and_then(|a| a.field("id")) {
                Ok(Json::Int(i)) => *i,
                other => panic!("span without id: {other:?}"),
            })
            .collect();
        let mut roots = 0;
        for e in &complete {
            for key in ["name", "ts", "dur", "pid", "tid"] {
                assert!(e.field(key).is_ok(), "event lacks {key}");
            }
            match e.field("args").and_then(|a| a.field("parent")) {
                Ok(Json::Null) => roots += 1,
                Ok(Json::Int(p)) => assert!(ids.contains(p), "dangling parent {p}"),
                other => panic!("bad parent {other:?}"),
            }
        }
        assert_eq!(roots, 1, "exactly one root");
    }
}
