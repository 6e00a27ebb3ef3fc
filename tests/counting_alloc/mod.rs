//! The counting global allocator of the allocation-bound tests: it counts
//! every `alloc` and `realloc` of the process. Because the count is
//! process-wide, each test binary that includes this module holds a single
//! `#[test]`: a second test running concurrently would attribute its
//! allocations to the first. (The test harness itself may allocate on other
//! threads only before/after a measured window; the measured sections run
//! single-threaded.)
//!
//! `crates/smt/tests/propagation_allocs.rs` includes this file by path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// Allocations and reallocations the process has made so far.
pub fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::SeqCst)
}
