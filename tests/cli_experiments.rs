//! `regless experiments [id ...]`: one id prints exactly its committed
//! report and writes it under `results/`, an unknown id is a clear error
//! naming the valid ones, and a closed stdout does not fail the run.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

/// A fresh working directory, so the run's `results/` writes land there.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("regless-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    dir
}

fn experiments(dir: &Path, ids: &[&str], stdout: Stdio) -> Output {
    Command::new(env!("CARGO_BIN_EXE_regless"))
        .arg("experiments")
        .args(ids)
        .current_dir(dir)
        .env("REGLESS_SWEEP", "off")
        .stdout(stdout)
        .output()
        .expect("run the regless binary")
}

fn committed_table1() -> String {
    std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/results/table1_config.txt"
    ))
    .expect("results/table1_config.txt is checked in")
}

#[test]
fn one_id_prints_and_writes_its_committed_report() {
    let dir = scratch_dir("experiments-one");
    let out = experiments(&dir, &["table1_config"], Stdio::piped());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let committed = committed_table1();
    assert_eq!(String::from_utf8_lossy(&out.stdout), committed);
    let written = std::fs::read_to_string(dir.join("results/table1_config.txt"))
        .expect("the run writes results/table1_config.txt");
    assert_eq!(written, committed);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_unknown_id_exits_1_naming_the_valid_ids() {
    let dir = scratch_dir("experiments-unknown");
    let out = experiments(&dir, &["no_such_id"], Stdio::piped());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("\"no_such_id\""), "{stderr}");
    for id in ["table1_config", "fig16_runtime", "BENCH_profile.json"] {
        assert!(stderr.contains(id), "{id} missing from: {stderr}");
    }
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty());
    assert!(
        !dir.join("results").exists(),
        "nothing runs before the check"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_closed_stdout_exits_0() {
    let dir = scratch_dir("experiments-closed");
    // A pipe whose reader is closed before the run starts, so every write
    // to it fails.
    let (reader, writer) = std::io::pipe().expect("make a pipe");
    drop(reader);
    let out = experiments(&dir, &["table1_config"], writer.into());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(
        std::fs::read_to_string(dir.join("results/table1_config.txt")).ok(),
        Some(committed_table1())
    );
    std::fs::remove_dir_all(&dir).ok();
}
