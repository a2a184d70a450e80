//! Comparison points for the RegLess evaluation (paper §6.1, §7):
//!
//! * [`RfhBackend`] — the compile-time managed register-file **hierarchy**
//!   of Gebhart et al. (LRF / RFC / MRF levels, two-level scheduler);
//! * [`ThrottledRf`] — a register store smaller than the allocation,
//!   with warps admitted while their footprints fit. One [`Throttle`]
//!   policy per design says what a warp costs against capacity and what an
//!   access costs: the occupancy-limited full RF, the register-file
//!   **virtualization** of Jeon et al. (RFV), the **register demotion** of
//!   Sakdhnagool et al. (RegDem) and the **statically-compressed** RF of
//!   Angerd et al.
//!
//! Both plug into the same [`regless_sim::Machine`] pipeline as the
//! baseline and RegLess, so run-time and event counts are directly
//! comparable. `regless_bench::DesignKind::execute` is the one place that
//! runs a design: it compiles the kernel and applies the design's
//! scheduler (the two-level scheduler for RFH, RFV and the compressed RF).
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod rfh;
mod throttled;

pub use rfh::{RfhBackend, RfhLevel, RfhPlacement};
pub use throttled::{Throttle, ThrottledRf, SCRATCH_BYTES_PER_SM};
