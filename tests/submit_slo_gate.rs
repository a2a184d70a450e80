//! `regless submit --repeat N --slo-p99-ms MS` is the serving latency
//! gate: it sends one request N times, reports client-observed p50/p99,
//! and exits 1 when the p99 is above the bound. The gate must pass under
//! a generous bound and trip under an impossible one, and its usage
//! errors must be plain exit-1 errors, not panics.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Output, Stdio};

/// A `regless serve` child, killed if a failed assertion unwinds past it.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Start `regless serve` on an ephemeral port; returns the child and
/// the address from its listening banner.
fn start_server() -> (Server, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_regless"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1"])
        .env("REGLESS_SWEEP", "off")
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn regless serve");
    let mut banner = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut banner)
        .expect("read listening banner");
    let addr = banner
        .trim()
        .rsplit(' ')
        .next()
        .expect("banner ends with the address")
        .to_string();
    (Server(child), addr)
}

fn submit(addr: &str, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_regless"))
        .args(["submit", "rodinia/nn", "--addr", addr])
        .args(extra)
        .output()
        .expect("run regless submit")
}

#[test]
fn submit_slo_gate_passes_trips_and_rejects_bad_usage() {
    let (mut server, addr) = start_server();

    let pass = submit(&addr, &["--repeat", "3", "--slo-p99-ms", "60000"]);
    let stderr = String::from_utf8_lossy(&pass.stderr);
    assert_eq!(pass.status.code(), Some(0), "generous bound: {stderr}");
    assert!(stderr.contains("3 ok / 0 err in "), "{stderr}");
    assert!(stderr.contains("p99 "), "{stderr}");
    let stdout = String::from_utf8_lossy(&pass.stdout);
    assert!(
        stdout.contains("\"ok\": true"),
        "last reply printed: {stdout}"
    );

    let trip = submit(&addr, &["--repeat", "3", "--slo-p99-ms", "0"]);
    let stderr = String::from_utf8_lossy(&trip.stderr);
    assert_eq!(trip.status.code(), Some(1), "impossible bound: {stderr}");
    assert!(stderr.contains("SLO FAIL: p99 "), "{stderr}");

    for bad in [
        &["--repeat", "0"][..],
        &["--repeat", "2", "--trace"][..],
        &["--slo-p99-ms", "NaN"][..],
    ] {
        let out = submit(&addr, bad);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{bad:?}: {stderr}");
        assert!(stderr.starts_with("error: --"), "{bad:?}: {stderr}");
    }

    let shutdown = Command::new(env!("CARGO_BIN_EXE_regless"))
        .args(["submit", "--shutdown", "--addr", &addr])
        .output()
        .expect("run regless submit --shutdown");
    assert!(shutdown.status.success(), "{shutdown:?}");
    let status = server.0.wait().expect("wait for regless serve");
    assert!(status.success(), "regless serve exited {status}");
}
