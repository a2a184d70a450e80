//! `regless-serve` — a resident simulation service with admission control.
//!
//! Every other entry point in this workspace (the `regless` CLI verbs,
//! `regless experiments`, the sweep engine) is a one-shot process: each caller
//! pays process startup, and nothing bounds concurrent load. This crate is
//! the long-lived serving layer the ROADMAP's "heavy traffic" north star
//! asks for, and it applies the paper's own just-in-time admission idea
//! one level up: exactly as the capacity manager admits a warp only once
//! its operands are staged and capacity is reserved (PAPER.md §4), the
//! server admits a simulation request only while worker and queue capacity
//! exist — a full queue answers a structured `queue_full` error with a
//! retry-after hint instead of hanging the client.
//!
//! The moving pieces (see DESIGN.md §12 for the full contract):
//!
//! - **Protocol** ([`proto`]): JSONL over TCP via `std::net` — one JSON
//!   request object per line, one JSON response object per line, no
//!   external dependencies.
//! - **Admission** ([`server`]): a bounded job queue; rejection is
//!   explicit and structured, never silent blocking.
//! - **Worker pool**: `cores − 1` threads by default, each running jobs
//!   under `catch_unwind` so one malformed kernel cannot take the server
//!   down.
//! - **Coalescing**: identical in-flight requests (same kernel and
//!   design point, however spelled) share one simulation through the sweep
//!   engine's `(bench, design, machine)` keys, and benchmark-id results
//!   persist to the shared on-disk cache so later requests — and
//!   independent CLI sweeps — replay instead of re-simulating.
//! - **Cancellation**: each job carries a [`regless_sim::CancelToken`]
//!   threaded into the simulator's tick loop; when the last waiter's
//!   deadline expires the token trips and the simulation returns at the
//!   next cycle boundary, so timeouts free the worker instead of
//!   orphaning it.
//! - **Shutdown**: a `shutdown` request drains queued jobs, then the
//!   process exits; cache writes are atomic (temp file + rename), so even
//!   an unclean death never leaves a torn cache entry.
//!
//! # Quickstart
//!
//! ```no_run
//! use regless_serve::{Client, Request, ServeConfig, Server};
//! use std::sync::Arc;
//!
//! let engine = Arc::new(regless_bench::sweep::SweepEngine::from_env());
//! let handle = Server::start(ServeConfig::default(), engine)?;
//! let mut client = Client::connect(&handle.addr().to_string())?;
//! let resp = client.request(&Request::run(1, "rodinia/nn"))?;
//! assert!(resp.ok);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The server answers every request with a structured reply instead of
// panicking: a client's input must never take it down. Tests may unwrap.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod client;
pub mod proto;
pub mod server;

pub use client::{Client, RetryOutcome, RetryPolicy};
pub use proto::{ErrorBody, ErrorCode, Reply, Request, RequestKind, Response, PROTOCOL_VERSION};
pub use server::{ServeConfig, Server, ServerHandle};

/// Default listen address when none is given (`regless serve` /
/// `regless submit` agree on it).
pub const DEFAULT_ADDR: &str = "127.0.0.1:7117";
