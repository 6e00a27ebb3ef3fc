//! The counting global allocator of the allocation-bound tests. It counts
//! the `alloc` and `realloc` calls a thread makes inside a [`count`]
//! window, and only those: allocations of other threads (other tests of the
//! same binary, the test harness) never reach the count, so a binary may
//! hold several tests.
//!
//! `crates/smt/tests/propagation_allocs.rs` includes this file by path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// Whether this thread is inside a [`count`] window.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Allocations this thread made in its current [`count`] window.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Counts one allocation if this thread is inside a [`count`] window. The
/// thread-locals are `const`-initialised and need no destructor, so reading
/// them allocates nothing; `try_with` keeps a thread being torn down from
/// panicking inside the allocator.
fn note_allocation() {
    let _ = COUNTING.try_with(|counting| {
        if counting.get() {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting reads and writes two
// thread-local cells, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` and returns its result with the allocations and reallocations
/// this thread made while it ran. Windows do not nest.
pub fn count<T>(f: impl FnOnce() -> T) -> (T, usize) {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|counting| counting.set(true));
    let result = f();
    COUNTING.with(|counting| counting.set(false));
    (result, ALLOCATIONS.with(Cell::get))
}
