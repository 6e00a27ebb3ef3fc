//! Pins the allocation cost of theory propagation. A derived bound records
//! its contributors in the implication graph the bound trail owns, and its
//! explanation is flattened only when something reads it; this test bounds
//! the heap allocations of one propagation call, so a change that brings
//! back an allocation per derived bound fails here.
//!
//! The counting `#[global_allocator]` below is process-wide, so this file
//! deliberately contains a single `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use cps_smt::simplex::Simplex;
use cps_smt::{LinExpr, RelOp, VarPool};

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

/// Variables of the chain below; it has one row fewer.
const VARS: usize = 64;

/// Allocations the warm propagation call below may make. It measured 11
/// (the worklists it regrows); storing each derived bound's explanation
/// measured 75, one per derived bound.
const MAX_ALLOCATIONS: usize = 16;

/// The chain `x_j + x_{j+1} ≤ −1.5 + 0.001·j` over `x ∈ [−1, 1]⁶⁴` bounds
/// every `x_j` above by about −0.5: the row before it gives the tightest
/// bound, so each variable is derived once. After a cold call has grown
/// the engine's buffers, the same derivations made again, after a pop,
/// must not allocate per bound.
#[test]
fn derived_bounds_allocate_nothing_per_bound() {
    let mut pool = VarPool::new();
    let x = pool.fresh_block("x", VARS);
    let mut simplex = Simplex::new(pool.len());
    simplex.set_bound_tracking(true);
    let rows: Vec<usize> = (0..VARS - 1)
        .map(|j| {
            simplex
                .define(&(LinExpr::var(x[j]) + LinExpr::var(x[j + 1])))
                .0
        })
        .collect();
    for (j, var) in x.iter().enumerate() {
        let var = var.index();
        simplex
            .assert_bound(var, 1.0, RelOp::Ge, -1.0, 2 * j)
            .expect("consistent bounds");
        simplex
            .assert_bound(var, 1.0, RelOp::Le, 1.0, 2 * j + 1)
            .expect("consistent bounds");
    }
    let mut implied = Vec::new();
    simplex
        .propagate_bounds(usize::MAX, &mut implied)
        .expect("the box is consistent");
    let mark = simplex.mark();
    let derive = |simplex: &mut Simplex, implied: &mut Vec<_>| {
        for (j, &row) in rows.iter().enumerate() {
            let bound = -1.5 + 0.001 * j as f64;
            simplex
                .assert_bound(row, 1.0, RelOp::Le, bound, 1000 + j)
                .expect("consistent bounds");
        }
        implied.clear();
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        simplex
            .propagate_bounds(usize::MAX, implied)
            .expect("the chain is consistent");
        ALLOCATIONS.load(Ordering::SeqCst) - before
    };

    derive(&mut simplex, &mut implied);
    simplex.pop_to(mark);
    let allocations = derive(&mut simplex, &mut implied);
    println!(
        "{allocations} allocations for {} derived bounds",
        implied.len()
    );
    assert_eq!(implied.len(), VARS, "one upper bound per variable");
    assert!(implied.iter().all(|bound| bound.is_upper));
    assert!(
        allocations <= MAX_ALLOCATIONS,
        "{allocations} allocations (bound {MAX_ALLOCATIONS})"
    );
    // The explanations are still there to read: the row before `x_j`
    // (the first row for `x_0`) and the lower bound of its other variable.
    for bound in &implied {
        let j = x
            .iter()
            .position(|v| v.index() == bound.var)
            .expect("a chain variable");
        let (row, other) = if j == 0 { (0, 1) } else { (j - 1, j - 1) };
        assert_eq!(&*simplex.explanation(bound), &[2 * other, 1000 + row]);
    }
}
