//! A minimal blocking client for the JSONL protocol.
//!
//! Used by `regless submit`, `regless obs` and the tests. One request in
//! flight at a time per connection; the server answers in order, so a
//! plain write-then-read suffices.

use crate::proto::{read_json_line, write_json_line, ErrorCode, Request, Response};
use std::io::BufReader;
use std::net::TcpStream;
use std::time::Duration;

/// Bounded backoff-and-retry policy for `queue_full` rejections. The
/// server's `retry_after_ms` hint (its observed mean request latency) is
/// the base delay; each retry doubles it, a deterministic per-attempt
/// jitter de-synchronizes clients that were rejected together, and the
/// delay is capped so a pathological hint cannot stall a client forever.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Retries before giving up and returning the `queue_full` response.
    pub max_retries: u32,
    /// Base delay when the server sent no hint.
    pub default_backoff_ms: u64,
    /// Upper bound on any single delay.
    pub max_backoff_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 5,
            default_backoff_ms: 100,
            max_backoff_ms: 5_000,
        }
    }
}

/// A [`Client::request_with_retry`] outcome: the final response plus how
/// many `queue_full` retries it took (0 = first attempt succeeded).
#[derive(Debug)]
pub struct RetryOutcome {
    /// The last response received (success, or the final rejection once
    /// retries are exhausted).
    pub response: Response,
    /// `queue_full` retries performed.
    pub retries: u32,
}

/// Delay before retry number `attempt` (0-based): exponential backoff on
/// the server's hint with a deterministic jitter derived from `seed`.
/// Pure so the policy is unit-testable without a server.
fn backoff_delay(attempt: u32, hint_ms: Option<u64>, policy: &RetryPolicy, seed: u64) -> Duration {
    let base = hint_ms.unwrap_or(policy.default_backoff_ms).max(1);
    let scaled = base.saturating_mul(1u64 << attempt.min(16));
    // Up to +50% jitter, deterministic in (seed, attempt) so tests can
    // pin it while concurrent clients (distinct seeds) still spread out.
    let jitter = splitmix64(seed ^ u64::from(attempt)) % (scaled / 2 + 1);
    Duration::from_millis(scaled.saturating_add(jitter).min(policy.max_backoff_ms))
}

/// SplitMix64 — a tiny, dependency-free mixer for retry jitter.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One connection to a running server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to `addr` (e.g. [`crate::DEFAULT_ADDR`]).
    ///
    /// # Errors
    ///
    /// Returns the connect error when no server is listening.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Messages that span TCP segments (a `run` reply carries a whole
        // RunReport) otherwise stall ~40 ms per exchange on the
        // Nagle/delayed-ACK interaction; this is a request-response
        // protocol, so coalescing buys nothing.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Send one request and block for its response.
    ///
    /// # Errors
    ///
    /// Returns an I/O error on a broken connection, `UnexpectedEof` when
    /// the server hangs up mid-request, or `InvalidData` for an
    /// unparseable response line.
    pub fn request(&mut self, req: &Request) -> std::io::Result<Response> {
        write_json_line(&mut self.writer, &req.to_json())?;
        let json = read_json_line(&mut self.reader)?.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection before responding",
            )
        })?;
        Response::from_json(&json)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.message))
    }

    /// [`Client::request`], but honoring the server's `retry_after_ms`
    /// hint on `queue_full`: back off (with jitter) and retry up to the
    /// policy's bound instead of surfacing the rejection. Any other
    /// response — success or error — returns immediately.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Client::request`].
    pub fn request_with_retry(
        &mut self,
        req: &Request,
        policy: &RetryPolicy,
    ) -> std::io::Result<RetryOutcome> {
        let seed = req.id ^ u64::from(std::process::id());
        let mut retries = 0u32;
        loop {
            let response = self.request(req)?;
            let queue_full = response
                .error
                .as_ref()
                .is_some_and(|e| e.code == ErrorCode::QueueFull);
            if !queue_full || retries >= policy.max_retries {
                return Ok(RetryOutcome { response, retries });
            }
            let hint = response.error.as_ref().and_then(|e| e.retry_after_ms);
            std::thread::sleep(backoff_delay(retries, hint, policy, seed));
            retries += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_from_the_hint() {
        let policy = RetryPolicy {
            max_retries: 8,
            default_backoff_ms: 100,
            max_backoff_ms: 60_000,
        };
        // With a hint of 10ms, retry n waits at least 10 * 2^n ms.
        for attempt in 0..5 {
            let d = backoff_delay(attempt, Some(10), &policy, 7);
            let floor = 10u64 << attempt;
            assert!(d.as_millis() as u64 >= floor, "attempt {attempt}: {d:?}");
            // Jitter adds at most 50%.
            assert!(d.as_millis() as u64 <= floor + floor / 2);
        }
    }

    #[test]
    fn backoff_uses_default_when_no_hint_and_respects_the_cap() {
        let policy = RetryPolicy {
            max_retries: 8,
            default_backoff_ms: 25,
            max_backoff_ms: 200,
        };
        let d0 = backoff_delay(0, None, &policy, 1);
        assert!(d0.as_millis() as u64 >= 25);
        // A huge attempt number would overflow the cap many times over;
        // the delay must still be clamped.
        let d = backoff_delay(30, None, &policy, 1);
        assert_eq!(d.as_millis() as u64, 200);
    }

    #[test]
    fn backoff_jitter_is_deterministic_per_seed() {
        let policy = RetryPolicy::default();
        let a = backoff_delay(2, Some(50), &policy, 42);
        let b = backoff_delay(2, Some(50), &policy, 42);
        assert_eq!(a, b);
        // Distinct seeds should (for these particular values) spread out.
        let c = backoff_delay(2, Some(50), &policy, 43);
        assert_ne!(a, c, "expected different jitter for different seeds");
    }
}
