//! # RegLess: just-in-time operand staging for GPUs
//!
//! This crate is the facade for a full reproduction of *RegLess: Just-in-Time
//! Operand Staging for GPUs* (Kloosterman et al., MICRO 2017). RegLess
//! replaces a GPU streaming multiprocessor's register file with a small
//! **operand staging unit (OSU)** that is actively managed at run time using
//! compiler annotations: kernels are sliced into **regions**, a **capacity
//! manager** admits a warp to execution only once its region's operands are
//! staged, and long-lived values spill through a pattern **compressor** into
//! the L1/global memory hierarchy.
//!
//! The reproduction is organized as a workspace; this facade re-exports each
//! subsystem under a stable module name:
//!
//! * [`isa`] — the SIMT instruction set and kernel IR,
//! * [`compiler`] — liveness (with GPU *soft definitions*), region creation,
//!   and annotation generation,
//! * [`sim`] — a cycle-level SM simulator with a baseline register file and
//!   an L1/L2/DRAM memory hierarchy,
//! * [`core`] — the RegLess hardware model (capacity manager, OSU,
//!   compressor),
//! * [`baselines`] — the RFH and RFV comparison points,
//! * [`energy`] — event-based energy, power, and area models,
//! * [`workloads`] — synthetic Rodinia-like benchmark kernels,
//! * [`telemetry`] — structured events, histograms, and Chrome-trace/CSV
//!   export for simulator runs,
//! * [`bench`](mod@bench) — the experiment harness and its memoized sweep
//!   engine,
//! * [`serve`] — a long-lived simulation service with admission control,
//!   request coalescing, and cooperative cancellation
//!   (`regless serve` / `regless submit`).
//!
//! ## Quickstart
//!
//! ```
//! use regless::bench::{Attach, DesignKind};
//! use regless::core::RegLessConfig;
//! use regless::sim::GpuConfig;
//! use regless::workloads::rodinia;
//!
//! // Build a benchmark kernel, compile it into regions sized for the
//! // staging unit, and run it on a RegLess-enabled SM.
//! let kernel = rodinia::pathfinder();
//! let gpu = GpuConfig::test_small();
//! let osu = RegLessConfig::paper_default();
//! let report = DesignKind::RegLess(osu).execute(&kernel, gpu, &Attach::default())?;
//! assert!(report.cycles > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use regless_baselines as baselines;
pub use regless_bench as bench;
pub use regless_compiler as compiler;
pub use regless_core as core;
pub use regless_energy as energy;
pub use regless_isa as isa;
pub use regless_serve as serve;
pub use regless_sim as sim;
pub use regless_telemetry as telemetry;
pub use regless_workloads as workloads;
