//! The `regless serve` process answers a `shutdown` request before it
//! exits. The server flushes the reply first and only then signals the
//! drain: with nothing in flight the drain returns at once, so a stop
//! signalled earlier could let the process exit before its reply reached
//! the socket.

use regless::serve::{Client, Request, RequestKind};
use regless_json::Json;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn serve_binary_replies_to_shutdown_then_exits_cleanly() {
    for run in 0..20 {
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
        let reply = Client::connect(&addr)
            .and_then(|mut c| c.request(&Request::control(1, RequestKind::Shutdown)));
        let status = child.wait().expect("wait for regless serve");
        let reply = reply.unwrap_or_else(|e| panic!("run {run}: no reply to shutdown: {e}"));
        assert!(reply.ok, "run {run}: shutdown refused: {reply:?}");
        assert_eq!(
            reply.payload_field("draining"),
            Some(&Json::Bool(true)),
            "run {run}"
        );
        assert!(status.success(), "run {run}: regless serve exited {status}");
    }
}
