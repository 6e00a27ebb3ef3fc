//! Pins the allocation cost of theory propagation. A derived bound records
//! its contributors in the implication graph the bound trail owns, and its
//! explanation is flattened only when something reads it; this test bounds
//! the heap allocations of one propagation call, so a change that brings
//! back an allocation per derived bound fails here.
//!
//! The counting allocator (`tests/counting_alloc/mod.rs` at the workspace
//! root) counts only the allocations of the thread that opened the window.

#[path = "../../../tests/counting_alloc/mod.rs"]
mod counting_alloc;

use cps_smt::simplex::{Side, Simplex, Tag, Var};
use cps_smt::{LinExpr, RelOp, VarPool};

/// Variables of the chain below; it has one row fewer.
const VARS: usize = 64;

/// Allocations the warm propagation call below may make. It measured 11
/// while each call regrew its wave's row list and each wave its worklist,
/// and 0 since both are reused; storing each derived bound's explanation
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
    let rows: Vec<Var> = (0..VARS - 1)
        .map(|j| {
            simplex
                .define(&(LinExpr::var(x[j]) + LinExpr::var(x[j + 1])))
                .0
        })
        .collect();
    for (j, &var) in x.iter().enumerate() {
        simplex
            .assert_bound(var.into(), 1.0, RelOp::Ge, -1.0, Tag::new(2 * j))
            .expect("consistent bounds");
        simplex
            .assert_bound(var.into(), 1.0, RelOp::Le, 1.0, Tag::new(2 * j + 1))
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
                .assert_bound(row, 1.0, RelOp::Le, bound, Tag::new(1000 + j))
                .expect("consistent bounds");
        }
        implied.clear();
        let (propagated, allocations) =
            counting_alloc::count(|| simplex.propagate_bounds(usize::MAX, implied));
        propagated.expect("the chain is consistent");
        allocations
    };

    derive(&mut simplex, &mut implied);
    simplex.pop_to(mark);
    let allocations = derive(&mut simplex, &mut implied);
    println!(
        "{allocations} allocations for {} derived bounds",
        implied.len()
    );
    assert_eq!(implied.len(), VARS, "one upper bound per variable");
    assert!(implied.iter().all(|bound| bound.side == Side::Upper));
    assert!(
        allocations <= MAX_ALLOCATIONS,
        "{allocations} allocations (bound {MAX_ALLOCATIONS})"
    );
    // The explanations are still there to read: the row before `x_j`
    // (the first row for `x_0`) and the lower bound of its other variable.
    for bound in &implied {
        let j = x
            .iter()
            .position(|&v| Var::from(v) == bound.var)
            .expect("a chain variable");
        let (row, other) = if j == 0 { (0, 1) } else { (j - 1, j - 1) };
        let tags = [Tag::new(2 * other), Tag::new(1000 + row)];
        assert_eq!(&*simplex.explanation(bound), &tags);
    }
}
