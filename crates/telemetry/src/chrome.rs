//! Chrome trace-event export (loadable in `chrome://tracing` / Perfetto).
//!
//! The export follows the JSON-object form of the trace-event format:
//! `{"traceEvents": [...]}` with one Chrome *process* per SM and one
//! *thread* per lane (warps first, then the shared structures), so a run
//! renders as one swim-lane per warp plus per-structure tracks. Cycles are
//! written through as microsecond timestamps — 1 cycle = 1 µs keeps the
//! viewer's zoom arithmetic intuitive.

use crate::event::{ArgValue, Phase};
use crate::recorder::Telemetry;
use regless_json::Json;

fn arg_json(v: &ArgValue) -> Json {
    match v {
        ArgValue::Int(i) => Json::Int(*i),
        ArgValue::Float(f) => Json::Float(*f),
        ArgValue::Str(s) => Json::Str(s.clone()),
    }
}

/// Build the trace-event JSON document for a run's telemetry.
///
/// Events are sorted by `(pid, tid, ts)` with begin-before-end stability at
/// equal timestamps preserved from recording order, so each track's
/// timestamps are monotone — a property the golden tests assert.
pub fn chrome_trace(t: &Telemetry) -> Json {
    let mut records: Vec<Json> = Vec::new();

    // Metadata: name the processes (SMs) and threads (lanes) that appear.
    let mut tracks: Vec<_> = t.events.iter().map(|e| e.track).collect();
    tracks.sort();
    tracks.dedup();
    let mut groups: Vec<u16> = tracks.iter().map(|tr| tr.group).collect();
    groups.dedup();
    for g in groups {
        records.push(Json::Obj(vec![
            ("name".into(), Json::Str("process_name".into())),
            ("ph".into(), Json::Str("M".into())),
            ("pid".into(), Json::Int(i64::from(g))),
            ("tid".into(), Json::Int(0)),
            (
                "args".into(),
                Json::Obj(vec![("name".into(), Json::Str(format!("SM {g}")))]),
            ),
        ]));
    }
    for tr in &tracks {
        records.push(Json::Obj(vec![
            ("name".into(), Json::Str("thread_name".into())),
            ("ph".into(), Json::Str("M".into())),
            ("pid".into(), Json::Int(i64::from(tr.group))),
            ("tid".into(), Json::Int(tr.lane.tid() as i64)),
            (
                "args".into(),
                Json::Obj(vec![("name".into(), Json::Str(tr.lane.label()))]),
            ),
        ]));
    }

    // Real events, sorted per track (stable: preserves begin/end order at
    // equal timestamps).
    let mut order: Vec<usize> = (0..t.events.len()).collect();
    order.sort_by_key(|&i| {
        let e = &t.events[i];
        (e.track.group, e.track.lane.tid(), e.ts)
    });
    for i in order {
        let e = &t.events[i];
        let ph = match e.phase {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Instant => "i",
        };
        let mut fields = vec![
            ("name".into(), Json::Str(e.name.into())),
            ("ph".into(), Json::Str(ph.into())),
            ("ts".into(), Json::Uint(e.ts)),
            ("pid".into(), Json::Int(i64::from(e.track.group))),
            ("tid".into(), Json::Int(e.track.lane.tid() as i64)),
        ];
        if e.phase == Phase::Instant {
            // Thread-scoped instants render as small arrows on the track.
            fields.push(("s".into(), Json::Str("t".into())));
        }
        if !e.args.is_empty() {
            fields.push((
                "args".into(),
                Json::Obj(
                    e.args
                        .iter()
                        .map(|(k, v)| ((*k).to_string(), arg_json(v)))
                        .collect(),
                ),
            ));
        }
        records.push(Json::Obj(fields));
    }

    Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(records)),
        ("displayTimeUnit".into(), Json::Str("ms".into())),
    ])
}

/// [`chrome_trace`] serialized compactly.
pub fn chrome_trace_string(t: &Telemetry) -> String {
    chrome_trace(t).to_string_compact()
}

/// Build a trace-event JSON document from service-layer [`crate::obs::Span`]s —
/// the cross-process companion to [`chrome_trace`]. One Chrome
/// *process* per distinct span `process` label (client, serve) and one
/// *thread* per trace id, so a traced
/// request renders as a single timeline across every process it
/// touched. Timestamps are normalized to the earliest span so the
/// viewer opens at t=0; spans become `ph:"X"` complete events carrying
/// their `trace_id` and annotations as args.
pub fn chrome_spans(spans: &[crate::obs::Span]) -> Json {
    let mut records: Vec<Json> = Vec::new();

    // Deterministic pid assignment: sorted process labels, 1-based.
    let mut processes: Vec<&str> = spans.iter().map(|s| s.process.as_str()).collect();
    processes.sort_unstable();
    processes.dedup();
    let pid_of = |p: &str| processes.iter().position(|q| *q == p).unwrap() as i64 + 1;
    for p in &processes {
        records.push(Json::Obj(vec![
            ("name".into(), Json::Str("process_name".into())),
            ("ph".into(), Json::Str("M".into())),
            ("pid".into(), Json::Int(pid_of(p))),
            ("tid".into(), Json::Int(0)),
            (
                "args".into(),
                Json::Obj(vec![("name".into(), Json::Str((*p).to_string()))]),
            ),
        ]));
    }

    // One thread lane per trace id within each process; the low bits are
    // enough to separate concurrent traces in a viewer.
    let t0 = spans.iter().map(|s| s.start_us).min().unwrap_or(0);
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| {
        let s = &spans[i];
        (pid_of(&s.process), s.trace_id, s.start_us)
    });
    for i in order {
        let s = &spans[i];
        let tid = (s.trace_id % 1_000_000) as i64;
        let mut args = vec![(
            "trace_id".into(),
            Json::Str(crate::obs::format_trace_id(s.trace_id)),
        )];
        args.extend(
            s.args
                .iter()
                .map(|(k, v)| (k.clone(), Json::Str(v.clone()))),
        );
        records.push(Json::Obj(vec![
            ("name".into(), Json::Str(s.name.clone())),
            ("ph".into(), Json::Str("X".into())),
            ("ts".into(), Json::Uint(s.start_us - t0)),
            ("dur".into(), Json::Uint(s.dur_us)),
            ("pid".into(), Json::Int(pid_of(&s.process))),
            ("tid".into(), Json::Int(tid)),
            ("args".into(), Json::Obj(args)),
        ]));
    }

    Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(records)),
        ("displayTimeUnit".into(), Json::Str("ms".into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, Structure, Track};
    use crate::obs::Span;
    use crate::recorder::MemoryRecorder;

    #[test]
    fn span_export_joins_processes_on_one_timeline() {
        let spans = vec![
            Span::new(0xabc, "admission", "serve", 1_000_100, 50),
            Span::new(0xabc, "sim", "worker:w0", 1_000_200, 400).arg("unit", "saxpy"),
            Span::new(0xabc, "rpc", "client", 1_000_000, 900),
        ];
        let doc = chrome_spans(&spans);
        let parsed = Json::parse(&doc.to_string_compact()).expect("valid json");
        let Json::Arr(events) = parsed.field("traceEvents").unwrap() else {
            panic!("traceEvents must be an array");
        };
        // 3 process metadata records + 3 X events.
        assert_eq!(events.len(), 6);
        let xs: Vec<&Json> = events
            .iter()
            .filter(|e| matches!(e.field("ph"), Ok(Json::Str(p)) if p == "X"))
            .collect();
        assert_eq!(xs.len(), 3);
        // Timestamps normalized: the earliest span starts at 0.
        let min_ts = xs
            .iter()
            .map(|e| match e.field("ts").unwrap() {
                Json::Uint(v) => *v,
                Json::Int(v) => *v as u64,
                other => panic!("ts {other:?}"),
            })
            .min()
            .unwrap();
        assert_eq!(min_ts, 0);
        // Every X event carries the joining trace_id.
        for e in &xs {
            let args = e.field("args").unwrap();
            assert_eq!(
                args.field("trace_id").unwrap(),
                &Json::Str("0000000000000abc".into())
            );
        }
        // Distinct processes get distinct pids.
        let mut pids: Vec<i64> = xs
            .iter()
            .map(|e| match e.field("pid").unwrap() {
                Json::Int(v) => *v,
                other => panic!("pid {other:?}"),
            })
            .collect();
        pids.sort_unstable();
        pids.dedup();
        assert_eq!(pids.len(), 3);
    }

    #[test]
    fn span_export_of_nothing_is_still_a_valid_document() {
        let doc = chrome_spans(&[]);
        let Json::Arr(events) = doc.field("traceEvents").unwrap() else {
            panic!("array");
        };
        assert!(events.is_empty());
    }

    #[test]
    fn export_is_valid_json_with_monotone_tracks() {
        let mut r = MemoryRecorder::new(64).with_group(0);
        // Record out of track order on purpose.
        r.record(Event::instant(9, Track::warp(1), "issue"));
        r.record(Event::begin(2, Track::warp(0), "preload").arg("region", 1u32));
        r.record(Event::end(4, Track::warp(0), "preload"));
        r.record(Event::instant(3, Track::structure(Structure::Osu), "evict"));
        let doc = chrome_trace_string(&r.into_telemetry());
        let parsed = Json::parse(&doc).expect("valid json");
        let Json::Arr(events) = parsed.field("traceEvents").unwrap() else {
            panic!("traceEvents must be an array");
        };
        // 1 process + 3 threads metadata + 4 events.
        assert_eq!(events.len(), 8);
        let mut last: std::collections::HashMap<(i64, i64), u64> = Default::default();
        for e in events {
            let Json::Str(ph) = e.field("ph").unwrap() else {
                panic!("ph is a string")
            };
            if ph == "M" {
                continue;
            }
            let pid = match e.field("pid").unwrap() {
                Json::Int(v) => *v,
                other => panic!("pid {other:?}"),
            };
            let tid = match e.field("tid").unwrap() {
                Json::Int(v) => *v,
                other => panic!("tid {other:?}"),
            };
            let ts = match e.field("ts").unwrap() {
                Json::Uint(v) => *v,
                Json::Int(v) => *v as u64,
                other => panic!("ts {other:?}"),
            };
            let prev = last.insert((pid, tid), ts);
            assert!(prev.is_none_or(|p| p <= ts), "ts monotone per track");
        }
    }
}
