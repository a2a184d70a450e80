//! Every simulation verb works for every registered design: the CLI runs
//! each one through the registry, so no verb may refuse an id that
//! `regless designs` lists.

use regless::bench::registry;
use regless_json::Json;
use std::process::Command;

fn regless(args: &[&str]) -> String {
    let o = Command::new(env!("CARGO_BIN_EXE_regless"))
        .args(args)
        .env("REGLESS_SWEEP", "off")
        .output()
        .expect("run the regless binary");
    assert_eq!(
        o.status.code(),
        Some(0),
        "{args:?}: {}",
        String::from_utf8_lossy(&o.stderr)
    );
    String::from_utf8(o.stdout).expect("utf-8 stdout")
}

#[test]
fn every_verb_runs_every_design() {
    let dir = std::env::temp_dir().join(format!("regless-every-design-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let kernel = "kernels/saxpy.asm";
    for entry in registry::all() {
        let id = entry.id;
        let run = regless(&["run", kernel, "--design", id]);
        assert!(run.contains(&format!("under {id}:")), "{id}: {run}");

        let spans = dir.join(format!("{id}-selfprof.json"));
        let spans = spans.to_str().unwrap();
        regless(&["run", kernel, "--design", id, "--self-profile-out", spans]);
        let trace = Json::parse(&std::fs::read_to_string(spans).unwrap()).unwrap();
        assert!(trace.field("traceEvents").is_ok(), "{id}: {trace:?}");

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
    std::fs::remove_dir_all(&dir).unwrap();
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
