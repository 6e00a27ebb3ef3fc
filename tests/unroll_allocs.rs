//! Pins the allocation cost of Algorithm 1's symbolic unrolling. Every
//! plant state, estimate, input, measurement and residue of the VSC at its
//! 50-sample horizon is a `LinExpr` over up to 50 attack variables; a
//! `LinExpr` keeps its terms in one sorted vector, so an expression costs
//! one allocation, not one per tree node. This test bounds the heap
//! allocations of the unrolling, so a return to per-node term storage fails
//! here.
//!
//! The counting allocator (`tests/counting_alloc/mod.rs`) counts only the
//! allocations of the thread that opened the window.

mod counting_alloc;

use secure_cps::UnrolledLoop;

/// Allocations of `UnrolledLoop::new` on the VSC (T=50), reallocations
/// included. Terms in a `BTreeMap` measured 41,742 in this test; one sorted
/// vector per expression measured 3,411 (debug and release builds alike).
const MAX_ALLOCATIONS: usize = 7_000;

#[test]
fn vsc_unrolling_allocates_per_expression_not_per_term() {
    let benchmark = cps_models::vsc().expect("model builds");
    let (unrolled, allocations) = counting_alloc::count(|| UnrolledLoop::new(&benchmark));
    assert_eq!(unrolled.horizon(), 50);
    println!("{allocations} allocations to unroll the VSC over T=50");
    assert!(
        allocations < MAX_ALLOCATIONS,
        "{allocations} allocations (bound {MAX_ALLOCATIONS})"
    );
}
