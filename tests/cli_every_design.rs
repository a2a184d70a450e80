//! Every simulation verb works for every registered design: the CLI runs
//! each one through the registry, so no verb may refuse an id that
//! `regless designs` lists.

use regless::bench::registry;
use regless_json::Json;
use std::process::Command;

/// The phases `regless run --self-profile-out` may name.
const RUN_LOOP_PHASES: [&str; 5] = [
    "writeback",
    "backend_tick",
    "issue",
    "stats_windows",
    "event_jump",
];

/// Runs the binary, asserts it exits 0, and returns (stdout, stderr).
fn regless_out_err(args: &[&str]) -> (String, String) {
    let o = Command::new(env!("CARGO_BIN_EXE_regless"))
        .args(args)
        .env("REGLESS_SWEEP", "off")
        .output()
        .expect("run the regless binary");
    let stderr = String::from_utf8(o.stderr).expect("utf-8 stderr");
    assert_eq!(o.status.code(), Some(0), "{args:?}: {stderr}");
    (String::from_utf8(o.stdout).expect("utf-8 stdout"), stderr)
}

fn regless(args: &[&str]) -> String {
    regless_out_err(args).0
}

#[test]
fn every_verb_runs_every_design() {
    let kernel = "kernels/saxpy.asm";
    for entry in registry::all() {
        let id = entry.id;
        let run = regless(&["run", kernel, "--design", id]);
        assert!(run.contains(&format!("under {id}:")), "{id}: {run}");

        let profile = Json::parse(&regless(&[
            "profile", kernel, "--design", id, "--format", "json",
        ]))
        .unwrap();
        assert_eq!(
            profile.field("design").ok(),
            Some(&Json::Str(id.to_string())),
            "{id}"
        );

        let report = Json::parse(&regless(&[
            "report", kernel, "--design", id, "--format", "json",
        ]))
        .unwrap();
        let counters = report
            .field("telemetry")
            .and_then(|t| t.field("counters"))
            .unwrap_or_else(|e| panic!("{id}: report has no telemetry counters: {e:?}"));
        assert!(
            matches!(counters, Json::Obj(c) if !c.is_empty()),
            "{id}: empty telemetry counters"
        );

        let csv = regless(&["trace", kernel, "--design", id, "--format", "csv"]);
        assert!(csv.lines().count() > 1, "{id}: {csv}");
    }
}

/// For every design, the `--self-profile-out` trace names only run-loop
/// phases and always includes `issue`.
#[test]
fn self_profile_trace_names_only_run_loop_phases() {
    let dir = std::env::temp_dir().join(format!("regless-selfprof-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let kernel = "kernels/saxpy.asm";
    for entry in registry::all() {
        let id = entry.id;
        let spans = dir.join(format!("{id}-selfprof.json"));
        let spans = spans.to_str().unwrap();
        regless(&["run", kernel, "--design", id, "--self-profile-out", spans]);
        let trace = Json::parse(&std::fs::read_to_string(spans).unwrap()).unwrap();
        let Ok(Json::Arr(events)) = trace.field("traceEvents") else {
            panic!("{id}: no traceEvents array: {trace:?}");
        };
        // perfbench's `sim.phase.*_pct` metrics read these names.
        let phases: Vec<&str> = events
            .iter()
            .filter(|e| matches!(e.field("ph"), Ok(Json::Str(p)) if p == "X"))
            .map(|e| match e.field("name") {
                Ok(Json::Str(name)) => name.as_str(),
                other => panic!("{id}: phase span without a name: {other:?}"),
            })
            .collect();
        for phase in &phases {
            assert!(
                RUN_LOOP_PHASES.contains(phase),
                "{id}: unexpected phase {phase:?} in {phases:?}"
            );
        }
        assert!(
            phases.contains(&"issue"),
            "{id}: no issue phase in {phases:?}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The profiler is off by being absent: without `--self-profile` a run
/// writes nothing to stderr, and with it the phase table goes to stderr
/// while stdout stays byte-identical.
#[test]
fn run_prints_a_phase_table_only_when_profiled() {
    let kernel = "kernels/saxpy.asm";
    for entry in registry::all() {
        let id = entry.id;
        let (plain, plain_err) = regless_out_err(&["run", kernel, "--design", id]);
        assert_eq!(plain_err, "", "{id}: unprofiled run wrote to stderr");
        let (profiled, table) = regless_out_err(&["run", kernel, "--design", id, "--self-profile"]);
        assert_eq!(plain, profiled, "{id}: profiling changed stdout");
        assert!(
            table.starts_with("self-profile [sim]: host time by phase"),
            "{id}: {table}"
        );
        assert!(table.contains("issue"), "{id}: {table}");
    }
}

/// `profile` and `report` name the design point that ran as the registry
/// spells it, so `--design regless` with an alias flag is not labelled
/// `regless`.
#[test]
fn profiles_and_reports_name_the_point_that_ran() {
    let kernel = "kernels/saxpy.asm";
    for (flag, label) in [
        (&["--no-compressor"][..], "regless-nc"),
        (&["--capacity", "128"][..], "regless:capacity=128"),
    ] {
        for verb in ["profile", "report"] {
            let mut args = vec![verb, kernel, "--design", "regless", "--format", "json"];
            args.extend(flag);
            let json = Json::parse(&regless(&args)).unwrap();
            assert_eq!(
                json.field("design").ok(),
                Some(&Json::Str(label.to_string())),
                "{args:?}"
            );
        }
    }
}
