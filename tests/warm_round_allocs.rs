//! Pins the allocation cost of a warm CEGIS round. Each Algorithm 1 query of
//! a run restores the solver's SAT core and tableau from a level-0 image of
//! the base encoding into reused allocations, instead of building both from
//! the whole CNF; this test bounds the heap allocations a query makes, so a
//! change that brings back a per-query build fails here.
//!
//! The counting `#[global_allocator]` below is process-wide, so this file
//! deliberately contains a single `#[test]` (see `tests/alloc_free.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use secure_cps::{PivotSynthesizer, SynthesisConfig};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations per Algorithm 1 query of the run below, counting everything
/// the run allocates (the base encoding, pivots, simulations) over its
/// queries. Building the SAT core and the tableau per query measured
/// 370.1 per query in this test (debug and release builds alike);
/// restoring them from the image measured 172.4.
const MAX_ALLOCATIONS_PER_QUERY: f64 = 250.0;

#[test]
fn warm_rounds_restore_instead_of_rebuilding() {
    let benchmark = cps_models::trajectory_tracking().expect("model builds");
    let config = SynthesisConfig {
        convergence_margin: 0.25,
        ..SynthesisConfig::default()
    };
    let synthesizer = PivotSynthesizer::new(&benchmark, config).with_max_rounds(400);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let report = synthesizer.run().expect("the run completes");
    let allocations = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert!(
        report.converged,
        "margin 0.25 converges on the trajectory plant"
    );
    let queries = report.round_stats.len();
    let per_query = allocations as f64 / queries as f64;
    println!("{allocations} allocations over {queries} queries: {per_query:.1} per query");
    assert!(
        per_query < MAX_ALLOCATIONS_PER_QUERY,
        "{per_query:.1} allocations per query (bound {MAX_ALLOCATIONS_PER_QUERY})"
    );
}
