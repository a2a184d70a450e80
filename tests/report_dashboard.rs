//! Dashboard contract tests: `regless report --format json` on the
//! checked-in saxpy kernel is byte-stable and matches the committed
//! golden snapshot, the HTML rendering carries every stall and eviction
//! row (the CI schema-completeness contract), and `regless report
//! --trend` keeps its rows in the one trend store `regless trends` reads.

use regless::bench::report::collect;
use regless::bench::{Attach, DesignKind};
use regless::isa::text::parse_kernel;
use regless::sim::GpuConfig;
use regless::telemetry::{report_points, EvictionReason, Report, StallReason};
use std::process::Command;

/// Build the saxpy dashboard exactly as
/// `regless report kernels/saxpy.asm --design regless --format json`
/// does (telemetry recorded with the CLI's buffer size).
fn saxpy_report() -> Report {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/kernels/saxpy.asm"))
        .expect("kernels/saxpy.asm is checked in");
    let kernel = parse_kernel(&text).expect("saxpy parses");
    let attach = Attach {
        telemetry: Some(1_000_000),
        ..Attach::default()
    };
    let run = DesignKind::regless_512()
        .execute(&kernel, GpuConfig::gtx980_single_sm(), &attach)
        .expect("runs");
    collect(&run, kernel.name(), "regless", 512)
}

/// The JSON twin matches the golden file byte-for-byte, a second
/// simulation reproduces it exactly, and the document round-trips.
#[test]
fn saxpy_report_json_matches_golden_and_is_byte_stable() {
    let report = saxpy_report();
    let json = report.to_json_string();
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/report_saxpy_regless.json"
    ))
    .expect("golden report is checked in");
    assert_eq!(
        json, golden,
        "report JSON drifted from tests/golden/report_saxpy_regless.json; \
         regenerate with `regless report kernels/saxpy.asm --format json \
         --out tests/golden/report_saxpy_regless.json` if the change is \
         intentional"
    );
    let again = saxpy_report();
    assert_eq!(again.to_json_string(), json);
    let back = Report::from_json_str(&json).expect("parses");
    assert_eq!(back, report);
}

/// The HTML dashboard for a real run carries every stall and eviction
/// row, the occupancy sparkline, and the trend section when trend rows
/// are supplied — the same contract CI checks on the generated artifact.
#[test]
fn saxpy_report_html_is_schema_complete() {
    let report = saxpy_report();
    let html = report.render_html(&report_points(&report));
    for r in StallReason::ALL {
        assert!(
            html.contains(&format!("class=\"stall-{}\"", r.name())),
            "missing stall row {}",
            r.name()
        );
    }
    for r in EvictionReason::ALL {
        assert!(
            html.contains(&format!("class=\"evict-{}\"", r.name())),
            "missing eviction row {}",
            r.name()
        );
    }
    assert!(html.contains("<svg"), "occupancy sparkline present");
    assert!(html.contains("<h2>Trend</h2>"), "trend section present");
    // The dashboard on saxpy is not empty: the kernel drains regions and
    // reclaims dead values, and the sampled timelines carry real data.
    assert!(report.evictions.total() > 0);
    assert!(!report.occupancy.live.is_empty());
    assert_eq!(report.occupancy.capacity_lines, 512);
}

fn regless(dir: &std::path::Path, args: &[&str]) -> std::process::Output {
    let out = Command::new(env!("CARGO_BIN_EXE_regless"))
        .args(args)
        .current_dir(dir)
        .env("REGLESS_SWEEP", "off")
        .output()
        .expect("run the regless binary");
    assert!(
        out.status.success(),
        "regless {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// Two `report --trend` runs append their cycles and IPC rows to the
/// trend store, `regless trends` tables them, and nothing writes a
/// second (`history.jsonl`) store.
#[test]
fn report_trend_rows_land_in_the_trend_store() {
    let dir = std::env::temp_dir().join(format!("regless-report-trend-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let saxpy = concat!(env!("CARGO_MANIFEST_DIR"), "/kernels/saxpy.asm");
    let store = dir.join("store/trends.jsonl");
    let store = store.to_str().expect("utf-8 temp path");
    for i in 0..2 {
        let html = dir.join(format!("report-{i}.html"));
        regless(
            &dir,
            &[
                "report",
                saxpy,
                "--design",
                "regless",
                "--out",
                html.to_str().expect("utf-8 temp path"),
                "--trend",
                "--history",
                store,
            ],
        );
        let page = std::fs::read_to_string(&html).expect("dashboard written");
        assert!(page.contains("<h2>Trend</h2>"), "run {i}: no trend section");
        assert!(page.contains("report.saxpy.regless@512.ipc"), "run {i}");
    }
    let rows: Vec<regless_json::Json> = std::fs::read_to_string(store)
        .expect("trend store written")
        .lines()
        .map(|l| regless_json::Json::parse(l).expect("a JSON row"))
        .collect();
    assert_eq!(rows.len(), 4, "two rows per run");
    for row in &rows {
        assert_eq!(
            row.field("source").ok(),
            Some(&regless_json::Json::Str("report".into()))
        );
    }

    let out = regless(&dir, &["trends", "--no-ingest", "--history", store]);
    let table = String::from_utf8_lossy(&out.stdout);
    for metric in [
        "report.saxpy.regless@512.cycles",
        "report.saxpy.regless@512.ipc",
    ] {
        let line = table
            .lines()
            .find(|l| l.split_whitespace().next() == Some(metric))
            .unwrap_or_else(|| panic!("{metric} not tabled:\n{table}"));
        assert_eq!(line.split_whitespace().nth(1), Some("2"), "{line}");
    }

    let mut stack = vec![dir.clone()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).expect("read temp dir") {
            let path = entry.expect("dir entry").path();
            assert_ne!(
                path.file_name().and_then(|n| n.to_str()),
                Some("history.jsonl"),
                "a second trend store was written: {}",
                path.display()
            );
            if path.is_dir() {
                stack.push(path);
            }
        }
    }
    std::fs::remove_dir_all(&dir).expect("clean up");
}
