//! Comparison points for the RegLess evaluation (paper §6.1):
//!
//! * [`RfhBackend`] — the compile-time managed register-file **hierarchy**
//!   of Gebhart et al. (LRF / RFC / MRF levels, two-level scheduler);
//! * [`RfvBackend`] — the register-file **virtualization** of Jeon et al.
//!   (half-size renamed register file, throttling under pressure);
//! * [`RegDemBackend`] — the compiler-directed **register demotion** of
//!   Sakdhnagool et al. (cold registers spilled to a shared-memory
//!   scratch partition);
//! * [`CompressRfBackend`] — the **statically-compressed** register file
//!   of Angerd et al. (affine values stored compressed in a half-size
//!   file).
//!
//! All plug into the same [`regless_sim::Machine`] pipeline as the
//! baseline and RegLess, so run-time and event counts are directly
//! comparable. `regless_bench::DesignKind::execute` is the one place that
//! runs a design: it compiles the kernel and applies the design's
//! scheduler (the two-level scheduler for RFH, RFV and the compressed RF).
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod comprf;
mod regdem;
mod rfh;
mod rfv;

pub use comprf::CompressRfBackend;
pub use regdem::{RegDemBackend, SCRATCH_BYTES_PER_SM};
pub use rfh::{RfhBackend, RfhLevel, RfhPlacement};
pub use rfv::RfvBackend;
