//! A reader that closes the CLI's stdout early (`regless list | head -1`)
//! does not make the process panic with "failed printing to stdout": the
//! unread output is dropped and the exit status is the command's own.

use regless::bench::profile::ProfileReport;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn list_into_a_closed_pipe_exits_0() {
    // The race between the reader closing and the CLI's next write goes
    // either way on a given run, so repeat it.
    for run in 0..20 {
        let mut child = Command::new(env!("CARGO_BIN_EXE_regless"))
            .arg("list")
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("run the regless binary");
        {
            let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
            let mut line = String::new();
            reader.read_line(&mut line).expect("read the first line");
            assert!(line.starts_with("built-in benchmarks"), "run {run}: {line}");
        }
        let out = child.wait_with_output().expect("wait for regless");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "run {run}: {stderr}");
        assert!(!stderr.contains("panicked"), "run {run}: {stderr}");
    }
}

/// A closed stdout does not end a command early: `regless diff
/// --fail-above` whose table nobody reads still fails its gate.
#[test]
fn a_failing_gate_into_a_closed_pipe_exits_1() {
    let dir = std::env::temp_dir().join(format!("regless-closed-stdout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    let base = dir.join("base.json");
    let status = Command::new(env!("CARGO_BIN_EXE_regless"))
        .args(["profile", "kernels/saxpy.asm", "--format", "json", "--out"])
        .arg(&base)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .status()
        .expect("run the regless binary");
    assert!(status.success());
    // The same run with 6% more cycles: past a 5% gate.
    let mut slow = ProfileReport::from_json_str(&std::fs::read_to_string(&base).unwrap()).unwrap();
    slow.cycles += slow.cycles * 6 / 100;
    slow.ipc = slow.insns as f64 / slow.cycles as f64;
    let slow_path = dir.join("slow.json");
    std::fs::write(&slow_path, slow.to_json_string()).unwrap();

    // A pipe whose reader is closed before the diff starts, so every
    // write to it fails.
    let (reader, writer) = std::io::pipe().expect("make a pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_regless"))
        .arg("diff")
        .args([&base, &slow_path])
        .args(["--fail-above", "5"])
        .stdout(writer)
        .output()
        .expect("run the regless binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
