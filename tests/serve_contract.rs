//! End-to-end contract tests for the serving subsystem (ISSUE 5).
//!
//! These drive a real server over real TCP through the public client and
//! prove the four serving guarantees: coalescing (M identical concurrent
//! submits run one simulation), cooperative cancellation (a short
//! deadline returns a structured timeout within 2x the deadline and the
//! worker survives), admission control (a full queue answers
//! `queue_full` instead of blocking), and byte-identity (a served report
//! equals a CLI-direct one, however it was served).

use regless::bench::profile::ProfileReport;
use regless::bench::registry::{self, DesignParams};
use regless::bench::sweep::{SweepEngine, SweepMode};
use regless::bench::{run_design, DesignKind};
use regless::isa::Kernel;
use regless::serve::{
    Client, ErrorCode, Request, RequestKind, RetryPolicy, ServeConfig, Server, ServerHandle,
};
use regless::workloads::rodinia;
use regless_json::{Json, ToJson};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The JSON writer as it was before replies spliced pre-rendered reports:
/// the reference the wire-level test renders its expected lines with.
#[path = "../crates/json/src/reference.rs"]
mod reference_json;

/// A kernel slow enough (~14M machine cycles, over 6 s in a release
/// build on a 2-vCPU VM) that a request for it reliably occupies a worker
/// for its full deadline in both debug and release builds — the deadline,
/// not the simulation, bounds test time.
const SLOW_TRIPS: u32 = 200_000;

fn write_slow_asm(tag: &str) -> String {
    let path = std::env::temp_dir().join(format!("regless-serve-{}-{tag}.asm", std::process::id()));
    let text = format!(
        "kernel slow_{tag}\nbb0:\n  r0 = movi 0x0\n  r1 = movi {SLOW_TRIPS:#x}\n  jmp bb1\n\
         bb1:\n  r2 = movi 0x1\n  r0 = iadd r0, r2\n  r3 = setlt r0, r1\n  bra r3, bb1, bb2\n\
         bb2:\n  exit\n"
    );
    std::fs::write(&path, text).expect("write slow kernel");
    path.to_str().expect("utf-8 temp path").to_string()
}

fn start_server(workers: usize, queue_capacity: usize) -> ServerHandle {
    // A fresh memory-only engine per test: no cross-test or on-disk state.
    let engine = Arc::new(SweepEngine::with_config(None, SweepMode::Normal));
    Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers,
            queue_capacity,
            drain_timeout: Duration::from_secs(60),
        },
        engine,
    )
    .expect("start server")
}

fn stat(stats: &regless::serve::Response, name: &str) -> i64 {
    match stats.payload_field(name) {
        Some(Json::Int(v)) => *v,
        other => panic!("stats field {name} missing or non-integer: {other:?}"),
    }
}

/// Poll `stats` until `pred` holds (or panic after ~5 s).
fn wait_for_stats(
    addr: &str,
    mut pred: impl FnMut(&regless::serve::Response) -> bool,
) -> regless::serve::Response {
    let mut client = Client::connect(addr).expect("connect for stats");
    for _ in 0..500 {
        let stats = client
            .request(&Request::control(0, RequestKind::Stats))
            .expect("stats request");
        if pred(&stats) {
            return stats;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("server never reached the expected stats state");
}

#[test]
fn concurrent_identical_submits_coalesce_into_one_simulation() {
    const M: usize = 4;
    let handle = start_server(1, 16);
    let addr = handle.addr().to_string();
    let slow = write_slow_asm("blocker");

    // Occupy the single worker with a slow job that cancels itself via
    // its own deadline; while it runs, all M identical submits below must
    // pile onto one pending job.
    let blocker = {
        let addr = addr.clone();
        let slow = slow.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).expect("connect blocker");
            let mut req = Request::run(99, &slow);
            req.timeout_ms = Some(1_500);
            let started = Instant::now();
            let resp = c.request(&req).expect("blocker response");
            (resp, started.elapsed())
        })
    };
    wait_for_stats(&addr, |s| {
        stat(s, "in_flight") == 1 && stat(s, "queue_depth") == 0
    });

    let responses: Vec<regless::serve::Response> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..M)
            .map(|i| {
                let addr = &addr;
                scope.spawn(move || {
                    let mut c = Client::connect(addr).expect("connect submitter");
                    c.request(&Request::run(i as u64, "rodinia/nn"))
                        .expect("submit response")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for r in &responses {
        assert!(r.ok, "{r:?}");
    }
    let mut sources: Vec<String> = responses
        .iter()
        .map(|r| match r.payload_field("source") {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("missing source: {other:?}"),
        })
        .collect();
    sources.sort();
    assert_eq!(sources[0], "coalesced");
    assert_eq!(sources[M - 1], "simulated");
    assert_eq!(
        sources.iter().filter(|s| *s == "coalesced").count(),
        M - 1,
        "exactly one submitter runs the simulation: {sources:?}"
    );

    // The deadline-bounded blocker: structured timeout within 2x the
    // deadline, and the cancelled simulation freed the worker (the nn
    // responses above prove it kept serving).
    let (blocker_resp, blocker_elapsed) = blocker.join().unwrap();
    assert_eq!(
        blocker_resp.error_code(),
        Some("timeout"),
        "{blocker_resp:?}"
    );
    assert!(
        blocker_elapsed < Duration::from_millis(3_000),
        "timeout took {blocker_elapsed:?}, over 2x the 1500 ms deadline"
    );

    let stats = wait_for_stats(&addr, |s| stat(s, "in_flight") == 0);
    assert_eq!(stat(&stats, "coalesce_hits"), (M - 1) as i64);
    assert_eq!(
        stat(&stats, "simulations"),
        2,
        "blocker + one shared nn simulation"
    );
    assert_eq!(stat(&stats, "timeouts"), 1);
    assert_eq!(stat(&stats, "cancelled"), 1);
    assert_eq!(stat(&stats, "panics"), 0);

    let _ = std::fs::remove_file(&slow);
    handle.shutdown();
    handle.drain().expect("drain");
}

#[test]
fn full_queue_answers_queue_full_without_blocking() {
    let handle = start_server(1, 1);
    let addr = handle.addr().to_string();
    let slow_a = write_slow_asm("qa");
    let slow_b = write_slow_asm("qb");

    let submit_slow = |path: String, addr: String| {
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).expect("connect");
            let mut req = Request::run(1, &path);
            req.timeout_ms = Some(1_500);
            c.request(&req).expect("response")
        })
    };
    // A occupies the worker, B fills the queue (capacity 1).
    let a = submit_slow(slow_a.clone(), addr.clone());
    wait_for_stats(&addr, |s| {
        stat(s, "in_flight") == 1 && stat(s, "queue_depth") == 0
    });
    let b = submit_slow(slow_b.clone(), addr.clone());
    wait_for_stats(&addr, |s| stat(s, "queue_depth") == 1);

    // C must be rejected immediately with a structured error + hint.
    let started = Instant::now();
    let mut c = Client::connect(&addr).expect("connect");
    let req_c = Request::run(3, "rodinia/nn");
    let resp = c.request(&req_c).expect("response");
    assert!(
        started.elapsed() < Duration::from_millis(500),
        "queue_full rejection must not block ({:?})",
        started.elapsed()
    );
    assert_eq!(resp.error_code(), Some("queue_full"), "{resp:?}");
    let error = resp.error.as_ref().expect("error body");
    assert_eq!(error.code, ErrorCode::QueueFull);
    assert!(
        error.retry_after_ms.is_some(),
        "queue_full must carry a retry-after hint: {error:?}"
    );

    // Re-sent with retries while the queue is still full, C backs off on
    // `queue_full` until the deadline-bounded occupants resolve on their
    // own, then runs.
    let policy = RetryPolicy {
        max_retries: 100,
        default_backoff_ms: 20,
        max_backoff_ms: 100,
    };
    let outcome = c.request_with_retry(&req_c, &policy).expect("response");
    assert!(outcome.response.ok, "{:?}", outcome.response);
    assert!(
        outcome.retries >= 1,
        "the queue was still full: {outcome:?}"
    );
    assert_eq!(a.join().unwrap().error_code(), Some("timeout"));
    assert_eq!(b.join().unwrap().error_code(), Some("timeout"));
    let stats = wait_for_stats(&addr, |s| stat(s, "in_flight") == 0);
    assert_eq!(
        stat(&stats, "rejected_queue_full"),
        1 + i64::from(outcome.retries)
    );

    for p in [&slow_a, &slow_b] {
        let _ = std::fs::remove_file(p);
    }
    handle.shutdown();
    handle.drain().expect("drain");
}

#[test]
fn served_reports_are_byte_identical_to_cli_direct_runs() {
    let handle = start_server(2, 8);
    let addr = handle.addr().to_string();

    // CLI-direct reference: the exact code path `regless run` uses.
    let direct = run_design(&rodinia::kernel("nn"), DesignKind::regless_512())
        .stable_json()
        .to_string_compact();

    let mut client = Client::connect(&addr).expect("connect");
    let served = client
        .request(&Request::run(1, "rodinia/nn"))
        .expect("served response");
    assert!(served.ok, "{served:?}");
    assert_eq!(
        served.payload_field("source"),
        Some(&Json::Str("simulated".to_string()))
    );
    let served_report = served
        .payload_field("report")
        .expect("run payload carries the report")
        .to_string_compact();
    assert_eq!(
        served_report, direct,
        "served report must be byte-identical to a CLI-direct run"
    );

    // Second request: served from the engine cache, still byte-identical.
    let cached = client
        .request(&Request::run(2, "rodinia/nn"))
        .expect("cached response");
    assert_eq!(
        cached.payload_field("source"),
        Some(&Json::Str("cache".to_string()))
    );
    assert_eq!(
        cached
            .payload_field("report")
            .expect("cached report")
            .to_string_compact(),
        direct
    );

    handle.shutdown();
    handle.drain().expect("drain");
}

/// Cancellation latency under the event-driven fast path: a served
/// request with a deadline still gets its structured timeout within 2x
/// the deadline even though the run loop now jumps over idle spans. The
/// loop clamps every jump at `DEADLINE_CHECK_CYCLES` (1024-cycle)
/// boundaries, so the gap between cancellation polls is bounded by ~1k
/// simulated cycles — a few microseconds of wall clock — regardless of
/// how far the event calendar says it could skip.
#[test]
fn cancellation_latency_is_bounded_with_the_event_fast_path() {
    if std::env::var("REGLESS_SIM").as_deref() == Ok("stepped") {
        // The differential CI job forces the stepped reference loop
        // process-wide; this contract is specifically about the fast
        // path, so there is nothing to test in that configuration.
        eprintln!("skipping: REGLESS_SIM=stepped forces the reference loop");
        return;
    }

    let handle = start_server(1, 4);
    let addr = handle.addr().to_string();
    let slow = write_slow_asm("fastpath");

    let mut client = Client::connect(&addr).expect("connect");
    let mut req = Request::run(7, &slow);
    req.timeout_ms = Some(1_000);
    let started = Instant::now();
    let resp = client.request(&req).expect("response");
    let elapsed = started.elapsed();

    assert_eq!(resp.error_code(), Some("timeout"), "{resp:?}");
    assert!(
        elapsed < Duration::from_millis(2_000),
        "fast-path timeout took {elapsed:?}, over 2x the 1000 ms deadline"
    );

    // The cancelled run was cooperative: the worker is free and keeps
    // serving real work on the same connection.
    let stats = wait_for_stats(&addr, |s| stat(s, "in_flight") == 0);
    assert_eq!(stat(&stats, "timeouts"), 1);
    assert_eq!(stat(&stats, "cancelled"), 1);
    assert_eq!(stat(&stats, "panics"), 0);
    let follow_up = client
        .request(&Request::run(8, "rodinia/nn"))
        .expect("follow-up response");
    assert!(follow_up.ok, "{follow_up:?}");

    let _ = std::fs::remove_file(&slow);
    handle.shutdown();
    handle.drain().expect("drain");
}

#[test]
fn shutdown_request_drains_gracefully() {
    let handle = start_server(2, 8);
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    // One real job in flight, then shutdown: the job still completes.
    let worker = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).expect("connect");
            c.request(&Request::run(1, "rodinia/nn")).expect("response")
        })
    };
    wait_for_stats(&addr, |s| stat(s, "submitted") >= 1);
    let bye = client
        .request(&Request::control(2, RequestKind::Shutdown))
        .expect("shutdown response");
    assert!(bye.ok);
    let after = client
        .request(&Request::run(3, "rodinia/nn"))
        .expect("response");
    assert_eq!(after.error_code(), Some("shutting_down"), "{after:?}");
    let job = worker.join().unwrap();
    assert!(
        job.ok || job.error_code() == Some("shutting_down"),
        "an admitted job must complete (or the submit raced the drain): {job:?}"
    );
    handle.drain().expect("drain within timeout");
}

/// One raw JSONL connection: the test writes request lines and reads
/// reply lines exactly as they came off the socket.
struct RawConn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl RawConn {
    fn connect(addr: &str) -> RawConn {
        let stream = TcpStream::connect(addr).expect("connect raw");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        RawConn { stream, reader }
    }

    fn send(&mut self, line: &str) {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("send request");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read reply");
        assert!(line.ends_with('\n'), "reply line is newline-terminated");
        line.pop();
        line
    }
}

/// One simulation request as raw wire text.
fn raw_request(id: u64, kind: &str, kernel: &str, design: &str, traced: bool) -> String {
    let mut line =
        format!(r#"{{"id":{id},"kind":"{kind}","kernel":"{kernel}","design":"{design}""#);
    if traced {
        line.push_str(&format!(r#","trace_id":"{id:016x}""#));
    }
    line.push('}');
    line
}

/// The reply line a server should send, built the old way: the report
/// tree from a direct `run_design`, a full `Json::Obj`, and the reference
/// writer.
fn reference_reply(id: u64, kind: &str, kernel: &Kernel, design_id: &str, source: &str) -> String {
    let design = registry::resolve(design_id, &DesignParams::default()).expect("known design");
    let report = run_design(kernel, design);
    let name = kernel.name();
    let body = match kind {
        "run" => ("report", report.stable_json()),
        "profile" => (
            "profile",
            ProfileReport::collect(&report, name, design_id, design.osu_capacity()).to_json(),
        ),
        _ => (
            "summary",
            regless::bench::report::collect(&report, name, design_id, design.osu_capacity())
                .summary()
                .to_json(),
        ),
    };
    let reply = Json::Obj(vec![
        ("id".to_string(), ToJson::to_json(&id)),
        ("ok".to_string(), Json::Bool(true)),
        ("kind".to_string(), Json::Str(kind.to_string())),
        ("kernel".to_string(), Json::Str(name.to_string())),
        ("design".to_string(), Json::Str(design_id.to_string())),
        ("source".to_string(), Json::Str(source.to_string())),
        ("cycles".to_string(), ToJson::to_json(&report.cycles)),
        ("ipc".to_string(), Json::Float(report.ipc())),
        (body.0.to_string(), body.1),
    ]);
    reference_json::to_string_compact(&reply)
}

/// Assert a raw reply line equals its reference; a traced reply must
/// equal it up to the `trace_id` field its spans follow.
fn assert_reply(line: &str, reference: &str, traced: bool, what: &str) {
    if traced {
        let cut = line
            .find(r#","trace_id":""#)
            .unwrap_or_else(|| panic!("{what}: traced reply has no trace_id: {line}"));
        assert_eq!(
            &line[..cut],
            &reference[..reference.len() - 1],
            "{what}: traced reply differs before its trace fields"
        );
        assert!(
            line.ends_with("]}"),
            "{what}: traced reply ends with its spans"
        );
    } else {
        assert_eq!(line, reference, "{what}: reply line differs");
    }
}

/// Every reply a client reads off the socket — `run`, `profile` and
/// `report`, each as a miss, a cache hit and coalesced onto an in-flight
/// job, traced and untraced, plus an uncached `.asm` request — is
/// byte-identical to the reply built the old way, whatever path served
/// it.
#[test]
fn reply_lines_are_byte_identical_on_every_path() {
    let handle = start_server(1, 16);
    let addr = handle.addr().to_string();
    let nn = rodinia::kernel("nn");
    let kinds = ["run", "profile", "report"];
    let mut id = 0u64;
    let mut next_id = || {
        id += 1;
        id
    };

    // Misses, then hits of the same keys: each (kind, traced) pair gets a
    // design of its own, so each miss really simulates.
    let designs = ["baseline", "regless", "regless-nc", "rfh", "rfv", "regdem"];
    let mut conn = RawConn::connect(&addr);
    for source in ["simulated", "cache"] {
        for (i, kind) in kinds.iter().enumerate() {
            for traced in [false, true] {
                let design = designs[2 * i + usize::from(traced)];
                let id = next_id();
                conn.send(&raw_request(id, kind, "rodinia/nn", design, traced));
                let reference = reference_reply(id, kind, &nn, design, source);
                let what = format!("{kind} {source} traced={traced}");
                assert_reply(&conn.recv(), &reference, traced, &what);
            }
        }
    }

    // An uncached `.asm` file request simulates every time.
    let asm = concat!(env!("CARGO_MANIFEST_DIR"), "/kernels/saxpy.asm");
    let saxpy = regless::isa::text::parse_kernel(&std::fs::read_to_string(asm).unwrap())
        .expect("saxpy parses");
    for _ in 0..2 {
        let id = next_id();
        conn.send(&raw_request(id, "run", asm, "regless", false));
        let reference = reference_reply(id, "run", &saxpy, "regless", "simulated");
        assert_reply(&conn.recv(), &reference, false, ".asm run");
    }

    // Coalesced: park the single worker on a slow job, queue one
    // `compress-rf` miss, then pile every (kind, traced) pair onto it.
    let slow = write_slow_asm("wire");
    let mut blocker = Client::connect(&addr).expect("connect blocker");
    let blocker = std::thread::spawn(move || {
        let mut req = Request::run(999, &slow);
        req.timeout_ms = Some(1_500);
        let resp = blocker.request(&req).expect("blocker response");
        let _ = std::fs::remove_file(&slow);
        resp
    });
    wait_for_stats(&addr, |s| {
        stat(s, "in_flight") == 1 && stat(s, "queue_depth") == 0
    });
    let admit_id = next_id();
    let mut admitting = RawConn::connect(&addr);
    admitting.send(&raw_request(
        admit_id,
        "run",
        "rodinia/nn",
        "compress-rf",
        false,
    ));
    wait_for_stats(&addr, |s| stat(s, "queue_depth") == 1);
    let mut riders = Vec::new();
    for kind in kinds {
        for traced in [false, true] {
            let id = next_id();
            let mut c = RawConn::connect(&addr);
            c.send(&raw_request(id, kind, "rodinia/nn", "compress-rf", traced));
            riders.push((c, id, kind, traced));
        }
    }
    wait_for_stats(&addr, |s| stat(s, "coalesce_hits") == riders.len() as i64);
    assert_eq!(blocker.join().unwrap().error_code(), Some("timeout"));
    let reference = reference_reply(admit_id, "run", &nn, "compress-rf", "simulated");
    assert_reply(&admitting.recv(), &reference, false, "admitting run");
    for (mut c, id, kind, traced) in riders {
        let reference = reference_reply(id, kind, &nn, "compress-rf", "coalesced");
        let what = format!("{kind} coalesced traced={traced}");
        assert_reply(&c.recv(), &reference, traced, &what);
    }

    handle.shutdown();
    handle.drain().expect("drain");
}
