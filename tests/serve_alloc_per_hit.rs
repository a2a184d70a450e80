//! A warm `regless serve` hit allocates a fixed, small number of times.
//!
//! A counting global allocator measures N and 8N cache hits sent over one
//! connection to an in-process server. Everything that does not depend on
//! the request is fixed before the first hit: the memoized report,
//! profile and summary texts, the connection's line and reply buffers,
//! the client's buffers below. So the difference between the two runs,
//! divided by the 7N extra hits, is what one hit allocates. What is left
//! is the request's parse: the object's field vector, its four keys and
//! its three string values, of which `kernel` and `design` move into the
//! decoded request.

use regless::bench::sweep::{SweepEngine, SweepMode};
use regless::serve::{ServeConfig, Server};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Counts allocations and reallocations, delegating to the system
/// allocator.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is the only addition.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per warm hit this server reaches; one more is a regression.
const PER_HIT: u64 = 8;

/// One closed-loop raw connection whose buffers are reused.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    reply: Vec<u8>,
}

impl Conn {
    /// Send `line` (newline included) and read its reply line.
    fn roundtrip(&mut self, line: &[u8]) -> &[u8] {
        self.writer.write_all(line).expect("send request");
        self.reply.clear();
        self.reader
            .read_until(b'\n', &mut self.reply)
            .expect("read reply");
        &self.reply
    }

    /// Allocations made while sending `hits` requests, cycling through
    /// `lines`, each answered from the cache.
    fn allocations(&mut self, lines: &[Vec<u8>], hits: usize) -> u64 {
        let hit = br#""source":"cache""#;
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for line in lines.iter().cycle().take(hits) {
            let reply = self.roundtrip(line);
            assert!(
                reply.windows(hit.len()).any(|w| w == hit),
                "not a cache hit: {}",
                String::from_utf8_lossy(reply)
            );
        }
        ALLOCATIONS.load(Ordering::Relaxed) - before
    }
}

#[test]
fn a_warm_hit_allocates_only_for_its_request() {
    let engine = Arc::new(SweepEngine::with_config(None, SweepMode::Normal));
    let handle = Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_capacity: 4,
            drain_timeout: Duration::from_secs(20),
        },
        engine,
    )
    .expect("start server");
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut conn = Conn {
        writer: stream.try_clone().expect("clone stream"),
        reader: BufReader::with_capacity(1 << 16, stream),
        reply: Vec::with_capacity(1 << 16),
    };
    let lines: Vec<Vec<u8>> = ["run", "profile", "report"]
        .iter()
        .enumerate()
        .map(|(id, kind)| {
            format!(
                "{{\"id\":{id},\"kind\":\"{kind}\",\"kernel\":\"rodinia/nn\",\"design\":\"regless\"}}\n"
            )
            .into_bytes()
        })
        .collect();
    // Simulate the point and render each kind's body once.
    conn.roundtrip(&lines[0]);
    conn.allocations(&lines, 30);

    const N: usize = 150;
    let short = conn.allocations(&lines, N);
    let long = conn.allocations(&lines, 8 * N);
    let extra = long.saturating_sub(short);
    assert!(
        extra <= 7 * N as u64 * PER_HIT,
        "{short} allocations over {N} hits grew to {long} over {} hits: {:.2} per hit, \
         above {PER_HIT}",
        8 * N,
        extra as f64 / (7 * N) as f64
    );

    handle.shutdown();
    handle.drain().expect("drain");
}
