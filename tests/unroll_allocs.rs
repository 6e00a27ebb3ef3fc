//! Pins the allocation cost of Algorithm 1's symbolic unrolling. Every
//! plant state, estimate, input, measurement and residue of the VSC at its
//! 50-sample horizon is a `LinExpr` over up to 50 attack variables; a
//! `LinExpr` keeps its terms in one sorted vector, so an expression costs
//! one allocation, not one per tree node. This test bounds the heap
//! allocations of the unrolling, so a return to per-node term storage fails
//! here.
//!
//! The counting `#[global_allocator]` below is process-wide, so this file
//! deliberately contains a single `#[test]` (see `tests/alloc_free.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use secure_cps::UnrolledLoop;

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is an atomic add, which
// neither allocates nor unwinds.
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

/// Allocations of `UnrolledLoop::new` on the VSC (T=50), reallocations
/// included. Terms in a `BTreeMap` measured 41,742 in this test; one sorted
/// vector per expression measured 3,411 (debug and release builds alike).
const MAX_ALLOCATIONS: usize = 7_000;

#[test]
fn vsc_unrolling_allocates_per_expression_not_per_term() {
    let benchmark = cps_models::vsc().expect("model builds");
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let unrolled = UnrolledLoop::new(&benchmark);
    let allocations = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(unrolled.horizon(), 50);
    println!("{allocations} allocations to unroll the VSC over T=50");
    assert!(
        allocations < MAX_ALLOCATIONS,
        "{allocations} allocations (bound {MAX_ALLOCATIONS})"
    );
}
