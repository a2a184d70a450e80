//! Telemetry subsystem contract tests: histogram algebra, Chrome-trace
//! export validity, and that attaching a recorder changes no reported figure.

use proptest::prelude::*;
use regless::bench::{Attach, DesignKind};
use regless::isa::text::parse_kernel;
use regless::sim::GpuConfig;
use regless::telemetry::{chrome_trace, summary_csv, Log2Histogram, TelemetrySummary, NUM_BUCKETS};
use regless::workloads::rodinia;
use regless_json::Json;

fn histogram_of(values: &[u64]) -> Log2Histogram {
    let mut h = Log2Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merging histograms is associative and commutative, and bucket
    /// counts are conserved: merged buckets are the element-wise sum of
    /// the inputs, and recording the concatenated value stream gives the
    /// same histogram as merging per-stream histograms.
    #[test]
    fn histogram_merge_is_assoc_comm_and_conserving(
        xs in proptest::collection::vec(any::<u64>(), 0..20),
        ys in proptest::collection::vec(any::<u64>(), 0..20),
        zs in proptest::collection::vec(any::<u64>(), 0..20),
    ) {
        let (a, b, c) = (histogram_of(&xs), histogram_of(&ys), histogram_of(&zs));

        // Commutative: a+b == b+a.
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);

        // Associative: (a+b)+c == a+(b+c).
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);

        // Conservation: merge == record of the concatenated stream, and
        // every bucket is the sum of the per-input buckets.
        let all: Vec<u64> = xs.iter().chain(&ys).chain(&zs).copied().collect();
        prop_assert_eq!(&ab_c, &histogram_of(&all));
        prop_assert_eq!(ab_c.count(), (all.len() as u64));
        for k in 0..NUM_BUCKETS {
            prop_assert_eq!(
                ab_c.buckets()[k],
                a.buckets()[k] + b.buckets()[k] + c.buckets()[k]
            );
        }
    }
}

/// Record telemetry with room for every event of the runs below.
fn traced() -> Attach {
    Attach {
        telemetry: Some(1_000_000),
        ..Attach::default()
    }
}

/// Run the checked-in saxpy kernel under RegLess with telemetry attached.
fn traced_saxpy() -> regless::telemetry::Telemetry {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/kernels/saxpy.asm"))
        .expect("kernels/saxpy.asm is checked in");
    let kernel = parse_kernel(&text).expect("saxpy parses");
    let report = DesignKind::regless_512()
        .execute(&kernel, GpuConfig::gtx980_single_sm(), &traced())
        .expect("runs");
    *report.telemetry.expect("telemetry attached")
}

/// The Chrome trace for `kernels/saxpy.asm` is valid JSON in the
/// trace-event format, with timestamps monotone within every
/// `(pid, tid)` track.
#[test]
fn chrome_trace_of_saxpy_is_valid_and_monotone() {
    let telemetry = traced_saxpy();
    assert!(telemetry.events.len() > 100, "saxpy produces real traffic");
    assert_eq!(telemetry.dropped, 0);

    let json = chrome_trace(&telemetry);
    let text = json.to_string_compact();
    let parsed = Json::parse(&text).expect("chrome trace is valid JSON");
    let events = match parsed.field("traceEvents").expect("traceEvents field") {
        Json::Arr(events) => events,
        other => panic!("traceEvents must be an array, got {}", other.kind()),
    };
    assert!(!events.is_empty());

    fn num(v: &Json) -> i64 {
        match *v {
            Json::Int(i) => i,
            Json::Uint(u) => i64::try_from(u).expect("fits"),
            ref other => panic!("expected a number, got {}", other.kind()),
        }
    }

    let mut last_ts: std::collections::HashMap<(i64, i64), i64> = std::collections::HashMap::new();
    let mut phases = std::collections::BTreeSet::new();
    for ev in events {
        let ph: String =
            regless_json::FromJson::from_json(ev.field("ph").expect("ph")).expect("ph is a string");
        phases.insert(ph.clone());
        if ph == "M" {
            continue; // metadata events carry no timestamp
        }
        let key = (
            num(ev.field("pid").expect("pid")),
            num(ev.field("tid").expect("tid")),
        );
        let ts = num(ev.field("ts").expect("ts"));
        if let Some(&prev) = last_ts.get(&key) {
            assert!(ts >= prev, "track {key:?} went backwards: {prev} then {ts}");
        }
        last_ts.insert(key, ts);
    }
    for required in ["M", "B", "E", "i"] {
        assert!(phases.contains(required), "missing phase {required:?}");
    }

    // The CSV summary renders the same run without panicking and leads
    // with its header.
    let csv = summary_csv(&telemetry);
    assert!(csv.starts_with("kind,name,count,sum,mean,p50,p99,max\n"));
    let summary = TelemetrySummary::of(&telemetry);
    assert!(summary.counter("cycles").unwrap_or(0) > 0);
}

/// Running with no recorder and with a full recorder must produce
/// byte-identical simulation results — telemetry observes the machine,
/// it never perturbs it.
#[test]
fn null_and_full_recorder_reports_are_byte_identical() {
    let kernel = rodinia::kernel("hotspot");
    let gpu = GpuConfig::gtx980_single_sm();
    let run = |attach: &Attach| DesignKind::regless_512().execute(&kernel, gpu, attach);
    let plain = run(&Attach::default()).expect("plain run");
    let traced = run(&traced()).expect("traced run");

    assert!(plain.telemetry.is_none());
    assert!(traced.telemetry.is_some());
    assert_eq!(plain.final_regs, traced.final_regs, "results must agree");

    // Serialize both reports (telemetry and wall time are not part of the
    // figure-facing JSON; zero the wall clock anyway for determinism) and
    // require byte equality.
    let mut plain = plain;
    let mut traced = traced;
    plain.wall_seconds = 0.0;
    traced.wall_seconds = 0.0;
    assert_eq!(
        regless_json::to_string(&plain),
        regless_json::to_string(&traced),
        "recorder presence must not change any reported figure"
    );
}
