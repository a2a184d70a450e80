//! The wire shape of the service counters: serve `stats` / `metrics`.
//! Each key is pinned with its JSON type (object keys flattened to dotted
//! paths, metrics by name with their metric type and value type), so a
//! reshaping of how the payloads are produced cannot drop, rename or
//! retype a field. The values agree too: every serve `stats` counter
//! equals its `metrics` counterpart.

use regless::bench::sweep::{SweepEngine, SweepMode};
use regless::serve::{Client, Request, RequestKind, Response, ServeConfig, Server};
use regless_json::Json;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

fn json_type(v: &Json) -> &'static str {
    match v {
        Json::Null => "null",
        Json::Bool(_) => "bool",
        Json::Int(_) | Json::Uint(_) => "int",
        Json::Float(_) => "float",
        Json::Str(_) => "str",
        Json::Arr(_) => "arr",
        Json::Obj(_) | Json::Raw(_) => "obj",
    }
}

/// Every leaf of a `stats` payload as `dotted.key → type`.
fn flatten(prefix: &str, v: &Json, out: &mut BTreeMap<String, &'static str>) {
    match v {
        Json::Obj(fields) => {
            for (k, child) in fields {
                let key = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten(&key, child, out);
            }
        }
        other => {
            out.insert(prefix.to_string(), json_type(other));
        }
    }
}

fn stats_shape(payload: &Json) -> BTreeMap<String, &'static str> {
    let mut out = BTreeMap::new();
    flatten("", payload, &mut out);
    out
}

/// A `metrics` payload as its top-level keys plus one
/// `metric:<name> → <metric type>/<value type>` entry per metric.
fn metrics_shape(payload: &Json) -> BTreeMap<String, String> {
    let Json::Obj(fields) = payload else {
        panic!("metrics payload is not an object: {payload:?}");
    };
    let mut out: BTreeMap<String, String> = fields
        .iter()
        .map(|(k, v)| (k.clone(), json_type(v).to_string()))
        .collect();
    let snap = payload.field("metrics").expect("metrics snapshot");
    assert!(matches!(snap.field("process"), Ok(Json::Str(_))));
    let Ok(Json::Arr(items)) = snap.field("metrics") else {
        panic!("snapshot without a metrics array: {snap:?}");
    };
    for m in items {
        let Ok(Json::Str(name)) = m.field("name") else {
            panic!("metric without a name: {m:?}");
        };
        assert!(matches!(m.field("help"), Ok(Json::Str(h)) if !h.is_empty()));
        let Ok(Json::Str(kind)) = m.field("type") else {
            panic!("metric without a type: {m:?}");
        };
        let value = m.field("value").expect("metric value");
        let mut shape = format!("{kind}/{}", json_type(value));
        if let Json::Obj(parts) = value {
            let keys: Vec<&str> = parts.iter().map(|(k, _)| k.as_str()).collect();
            shape = format!("{shape}{{{}}}", keys.join(","));
        }
        out.insert(format!("metric:{name}"), shape);
    }
    out
}

fn metric<'a>(payload: &'a Json, name: &str) -> &'a Json {
    let Ok(Json::Arr(items)) = payload.field("metrics").and_then(|s| s.field("metrics")) else {
        panic!("no metrics array");
    };
    items
        .iter()
        .find(|m| m.field("name") == Ok(&Json::Str(name.to_string())))
        .and_then(|m| m.field("value").ok())
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

fn int(v: &Json) -> u64 {
    match v {
        Json::Int(i) => u64::try_from(*i).expect("non-negative"),
        Json::Uint(u) => *u,
        Json::Float(f) if f.fract() == 0.0 => *f as u64,
        other => panic!("not an integer: {other:?}"),
    }
}

fn ask(client: &mut Client, kind: RequestKind) -> Response {
    let resp = client
        .request(&Request::control(0, kind))
        .expect("control request");
    assert!(resp.ok, "{kind:?} failed: {:?}", resp.error);
    resp
}

fn pinned(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
    pairs
        .iter()
        .map(|(k, t)| (k.to_string(), t.to_string()))
        .collect()
}

fn owned(shape: BTreeMap<String, &'static str>) -> BTreeMap<String, String> {
    shape.into_iter().map(|(k, t)| (k, t.to_string())).collect()
}

const SERVE_STATS: &[(&str, &str)] = &[
    ("cache_fingerprint", "str"),
    ("cache_hits", "int"),
    ("cancelled", "int"),
    ("coalesce_hits", "int"),
    ("completed", "int"),
    ("draining", "bool"),
    ("in_flight", "int"),
    ("kind", "str"),
    ("latency.profile.count", "int"),
    ("latency.profile.max_ms", "int"),
    ("latency.profile.mean_ms", "float"),
    ("latency.profile.p50_ms", "int"),
    ("latency.profile.p99_ms", "int"),
    ("latency.report.count", "int"),
    ("latency.report.max_ms", "int"),
    ("latency.report.mean_ms", "float"),
    ("latency.report.p50_ms", "int"),
    ("latency.report.p99_ms", "int"),
    ("latency.run.count", "int"),
    ("latency.run.max_ms", "int"),
    ("latency.run.mean_ms", "float"),
    ("latency.run.p50_ms", "int"),
    ("latency.run.p99_ms", "int"),
    ("panics", "int"),
    ("protocol_version", "int"),
    ("queue_capacity", "int"),
    ("queue_depth", "int"),
    ("rejected_queue_full", "int"),
    ("sim_errors", "int"),
    ("simulations", "int"),
    ("submitted", "int"),
    ("timeouts", "int"),
    ("uptime_ms", "int"),
];

const SUMMARY: &str = "summary/obj{count,sum,p50,p99,max}";

const SERVE_METRICS: &[(&str, &str)] = &[
    ("kind", "str"),
    ("log", "arr"),
    ("log_total", "int"),
    ("metrics", "obj"),
    ("metric:regless_serve_cache_hits_total", "counter/int"),
    ("metric:regless_serve_cancelled_total", "counter/int"),
    ("metric:regless_serve_coalesce_hits_total", "counter/int"),
    ("metric:regless_serve_completed_total", "counter/int"),
    ("metric:regless_serve_in_flight", "gauge/float"),
    ("metric:regless_serve_log_dropped_total", "counter/int"),
    ("metric:regless_serve_panics_total", "counter/int"),
    ("metric:regless_serve_profile_latency_ms", SUMMARY),
    ("metric:regless_serve_queue_capacity", "gauge/float"),
    ("metric:regless_serve_queue_depth", "gauge/float"),
    (
        "metric:regless_serve_rejected_queue_full_total",
        "counter/int",
    ),
    ("metric:regless_serve_report_latency_ms", SUMMARY),
    ("metric:regless_serve_run_latency_ms", SUMMARY),
    ("metric:regless_serve_sim_errors_total", "counter/int"),
    ("metric:regless_serve_simulations_total", "counter/int"),
    ("metric:regless_serve_submitted_total", "counter/int"),
    ("metric:regless_serve_timeouts_total", "counter/int"),
    ("metric:regless_serve_uptime_seconds", "gauge/float"),
];

#[test]
fn serve_stats_and_metrics_keep_their_keys_and_agree() {
    let engine = Arc::new(SweepEngine::with_config(None, SweepMode::Normal));
    let handle = Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_capacity: 8,
            drain_timeout: Duration::from_secs(60),
        },
        engine,
    )
    .expect("start server");
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
    // One simulation, then cache hits of every kind, then a failure.
    for (id, kind) in [
        (1, RequestKind::Run),
        (2, RequestKind::Run),
        (3, RequestKind::Profile),
        (4, RequestKind::Report),
    ] {
        let req = Request {
            kind,
            ..Request::run(id, "rodinia/nn")
        };
        let resp = client.request(&req).expect("simulation request");
        assert!(resp.ok, "{kind:?}: {:?}", resp.error);
    }
    let bad = client
        .request(&Request::run(5, "rodinia/no_such_kernel"))
        .expect("bad request answered");
    assert!(!bad.ok);

    let stats = ask(&mut client, RequestKind::Stats).payload;
    let metrics = ask(&mut client, RequestKind::Metrics).payload;
    handle.drain().expect("drain");

    assert_eq!(owned(stats_shape(&stats)), pinned(SERVE_STATS), "{stats:?}");
    assert_eq!(metrics_shape(&metrics), pinned(SERVE_METRICS));

    let s = |k: &str| int(stats.field(k).unwrap_or_else(|_| panic!("stats.{k}")));
    for key in [
        "submitted",
        "completed",
        "rejected_queue_full",
        "coalesce_hits",
        "cache_hits",
        "simulations",
        "timeouts",
        "cancelled",
        "panics",
        "sim_errors",
    ] {
        let m = int(metric(&metrics, &format!("regless_serve_{key}_total")));
        assert_eq!(s(key), m, "stats.{key} vs its metrics counter");
    }
    for key in ["in_flight", "queue_depth", "queue_capacity"] {
        let m = int(metric(&metrics, &format!("regless_serve_{key}")));
        assert_eq!(s(key), m, "stats.{key} vs its metrics gauge");
    }
    assert_eq!(s("simulations"), 1);
    assert_eq!(s("cache_hits"), 3);
    assert_eq!(s("completed"), 4);
    assert_eq!(s("queue_capacity"), 8);
    for kind in ["run", "profile", "report"] {
        let lat = stats
            .field("latency")
            .and_then(|l| l.field(kind))
            .expect("latency entry");
        let summary = metric(&metrics, &format!("regless_serve_{kind}_latency_ms"));
        let field = |j: &Json, k: &str| int(j.field(k).expect("summary field"));
        let count = field(summary, "count");
        assert_eq!(field(lat, "count"), count, "{kind} count");
        assert_eq!(field(lat, "p50_ms"), field(summary, "p50"), "{kind} p50");
        assert_eq!(field(lat, "p99_ms"), field(summary, "p99"), "{kind} p99");
        assert_eq!(field(lat, "max_ms"), field(summary, "max"), "{kind} max");
        let Ok(Json::Float(mean)) = lat.field("mean_ms") else {
            panic!("{kind} mean_ms is not a float");
        };
        let want = if count == 0 {
            0.0
        } else {
            field(summary, "sum") as f64 / count as f64
        };
        assert_eq!(*mean, want, "{kind} mean");
    }
    assert_eq!(int(lat_count(&stats, "run")), 2);
}

fn lat_count<'a>(stats: &'a Json, kind: &str) -> &'a Json {
    stats
        .field("latency")
        .and_then(|l| l.field(kind))
        .and_then(|k| k.field("count"))
        .expect("latency count")
}
