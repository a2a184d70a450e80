//! Contract tests for the design registry: the `regless designs` table is
//! golden-snapshotted, the JSON rendering covers every entry, every
//! registered id parses to a runnable [`DesignKind`], and the resolved
//! designs stay pairwise distinct (so sweep fingerprints cannot collide).

use regless::bench::registry;
use regless::bench::{eval_gpu, Attach, DesignKind};
use regless::workloads::micro;
use regless_json::Json;

/// The `regless designs` table matches the golden file byte-for-byte and
/// a second render reproduces it exactly.
#[test]
fn designs_table_matches_golden_and_is_byte_stable() {
    let table = registry::render_table();
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/designs_table.txt"
    ))
    .expect("golden designs table is checked in");
    assert_eq!(
        table, golden,
        "designs table drifted from tests/golden/designs_table.txt; \
         regenerate with `regless designs` if the change is intentional"
    );
    assert_eq!(registry::render_table(), table);
}

/// The JSON rendering parses back, reports the right count, and names
/// every registered id with its citation and stability tier.
#[test]
fn designs_json_covers_every_entry() {
    let json = registry::render_json();
    let parsed = Json::parse(&json.to_string_compact()).expect("render_json emits valid JSON");
    let count: i64 = match parsed.field_opt("count").ok().flatten() {
        Some(Json::Int(n)) => *n,
        other => panic!("count field missing: {other:?}"),
    };
    assert_eq!(count as usize, registry::all().len());
    let Some(Json::Arr(designs)) = parsed.field_opt("designs").ok().flatten() else {
        panic!("designs array missing");
    };
    let mut ids: Vec<String> = Vec::new();
    for d in designs {
        for key in ["id", "display", "citation", "stability", "energy_model"] {
            assert!(
                matches!(d.field_opt(key).ok().flatten(), Some(Json::Str(_))),
                "entry missing string field {key:?}: {d:?}"
            );
        }
        if let Some(Json::Str(id)) = d.field_opt("id").ok().flatten() {
            ids.push(id.clone());
        }
    }
    assert_eq!(ids, registry::ids(), "JSON order matches the registry");
}

/// Every registered id parses to its default point and renders back to
/// the bare id, and the defaults are pairwise distinct design points — a
/// collision here would alias two designs in the sweep cache.
#[test]
fn every_registered_id_resolves_to_a_distinct_design() {
    let mut designs: Vec<DesignKind> = Vec::new();
    for entry in registry::all() {
        let d = registry::parse(entry.id).unwrap_or_else(|e| panic!("{}: {e}", entry.id));
        assert_eq!(d, entry.default_design());
        assert_eq!(registry::render(d), entry.id);
        designs.push(d);
    }
    for (i, a) in designs.iter().enumerate() {
        for b in &designs[i + 1..] {
            assert_ne!(a, b, "two registry entries alias the same design");
        }
    }
    let err = registry::parse("not-a-design").expect_err("unknown ids are rejected");
    assert!(
        err.contains("not-a-design") && err.contains("valid designs"),
        "{err}"
    );
}

/// Every registered design actually executes a kernel end to end on the
/// evaluation machine — the registry cannot list a constructor that
/// [`DesignKind::execute`] does not implement.
#[test]
fn every_registered_design_runs_a_kernel() {
    let kernel = micro::streaming(2);
    for entry in registry::all() {
        let report = entry
            .default_design()
            .execute(&kernel, eval_gpu(), &Attach::default())
            .unwrap_or_else(|e| panic!("{}: {e}", entry.id));
        assert!(
            report.cycles > 0 && report.total().insns > 0,
            "{} produced an empty report",
            entry.id
        );
    }
}
