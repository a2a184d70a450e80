//! Cycle-level SIMT streaming-multiprocessor simulator.
//!
//! This crate is the execution substrate of the RegLess reproduction: a
//! from-scratch GPU core model with warps, a SIMT reconvergence stack, a
//! scoreboard, GTO and two-level warp schedulers, a baseline register file,
//! and an L1/L2/DRAM memory hierarchy whose L1 accepts **one request per
//! cycle** — the bandwidth constraint at the center of the paper's design
//! (§2.2).
//!
//! The pipeline is generic over an [`OperandBackend`], so the same timing
//! model runs the baseline ([`BaselineRf`]), RegLess (`regless-core`), and
//! the RFH/RFV comparison points (`regless-baselines`).
//!
//! ```
//! use regless_sim::{run_baseline, GpuConfig};
//! use regless_compiler::{compile, RegionConfig};
//! use regless_isa::KernelBuilder;
//! use std::sync::Arc;
//!
//! let mut b = KernelBuilder::new("double");
//! let i = b.thread_idx();
//! let v = b.iadd(i, i);
//! b.st_global(v, i);
//! b.exit();
//! let compiled = Arc::new(compile(&b.finish()?, &RegionConfig::default())?);
//!
//! let report = run_baseline(GpuConfig::test_small(), compiled).expect("runs");
//! assert_eq!(report.total().insns, 8 * 4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Version tag for the simulator's *timing model semantics*, folded into the
/// sweep engine's on-disk cache fingerprint. Bump it whenever a change makes
/// previously simulated numbers stale (pipeline timing, scheduler policy,
/// memory-system behaviour, stat accounting) so cached `RunReport`s from
/// older builds are ignored rather than silently reused.
pub const SIM_MODEL_VERSION: u32 = 1;

mod backend;
mod cache;
mod cancel;
mod config;
mod interp;
mod mask;
mod mem;
mod rf;
mod sched;
mod sm;
mod stats;
mod trace;
mod warp;
mod wheel;

pub use backend::{BackendCtx, BaselineRf, OperandBackend, StallMasks, WarpView};
pub use cache::{AccessResult, Cache};
pub use cancel::{CancelToken, DEADLINE_CHECK_CYCLES};
pub use config::{table1_rows, CacheConfig, Cycle, GpuConfig, LatencyConfig, SchedulerKind};
pub use interp::{interpret, InterpError, InterpResult};
pub use mask::{first_warps, warp_bit, warps_in, WarpMask, WarpsIn, MAX_WARPS_PER_SM};
pub use mem::{Level, MemAccess, MemSystem, Traffic};
pub use rf::{collector_conflict_cycles, rf_bank, RF_BANKS};
pub use sched::Scheduler;
pub use sm::{load_value, run_baseline, Machine, RunReport, SimError, Sm};
pub use stats::{MemStats, PreloadSource, SmStats, WindowSeries, WorkingSetTracker, WINDOW_CYCLES};
pub use trace::TraceEvent;

// The telemetry subsystem the structured events feed into; re-exported so
// backend crates and binaries don't need a separate dependency line.
pub use regless_telemetry as telemetry;
// The CPI-stack types appear directly in backend and stats signatures.
pub use regless_telemetry::{
    EvictionReason, EvictionStack, IssueStack, StallReason, NUM_EVICTION_REASONS, NUM_STALL_REASONS,
};
pub use warp::{StackEntry, WarpBlock, WarpState};
