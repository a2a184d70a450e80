//! The simulator's steady-state loop does no heap allocation.
//!
//! A counting global allocator measures whole runs of one kernel at two
//! trip counts under every registered design. Set-up (compiling, building
//! the machine) costs the same at both lengths, and the only buffers that
//! grow with run length are the per-window statistics series, which
//! reallocate a logarithmic number of times. So a run with eight times the
//! loop trips may allocate only a small constant more; an allocation per
//! issued instruction or per cycle would add thousands.

use regless::bench::registry;
use regless::bench::{run_design, DesignKind};
use regless::core::RegLessConfig;
use regless::workloads::micro;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

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

/// Allocations made by one run, and the run's simulated cycles.
fn allocations(trips: u32, design: DesignKind) -> (u64, u64) {
    let kernel = micro::streaming(trips);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = run_design(&kernel, design);
    (ALLOCATIONS.load(Ordering::Relaxed) - before, report.cycles)
}

#[test]
fn allocations_do_not_grow_with_run_length() {
    let mut designs: Vec<(String, DesignKind)> = registry::all()
        .iter()
        .map(|e| (e.id.to_string(), e.default_design()))
        .collect();
    designs.push((
        "regless@128".to_string(),
        DesignKind::RegLess(RegLessConfig::with_capacity(128)),
    ));
    for (id, design) in designs {
        let (short_allocs, short_cycles) = allocations(4, design);
        let (long_allocs, long_cycles) = allocations(32, design);
        assert!(
            long_cycles > 4 * short_cycles,
            "{id}: the long run must be much longer ({short_cycles} vs {long_cycles} cycles)"
        );
        assert!(
            long_allocs <= short_allocs + 64,
            "{id}: {short_allocs} allocations over {short_cycles} cycles grew to \
             {long_allocs} over {long_cycles} cycles"
        );
    }
}
