//! Differential tests for theory propagation: on randomized Boolean
//! combinations of linear constraints, both corners of
//! [`testutil::grid_configs`] — propagation on, and the propagation-off
//! reference — must return the same SAT/UNSAT verdict, and satisfiable
//! verdicts must come with models satisfying every asserted formula.
//!
//! Half the systems are satisfiable **by construction** (every atom is
//! generated against a random witness point and the Boolean structure keeps
//! at least one all-witness-true branch), making any `Unsat` verdict on them
//! a soundness failure — the class of bug that would silently corrupt the
//! paper's CEGIS certificates.
//!
//! One hand-built case pins what the verdicts cannot see: the content and
//! order of the explanations behind derived bounds.

mod testutil;

use cps_smt::simplex::{ImpliedBound, Side, Simplex, Tag, Var};
use cps_smt::{Formula, LinExpr, RelOp, SmtSolver, VarPool};
use testutil::{env_seed, eval, grid_configs, Gen};

const CASES: u64 = 120;

/// Runs every grid corner on the system; returns the per-corner verdicts and
/// asserts model validity on each SAT verdict.
fn check_all_corners(case: u64, pool: &VarPool, formulas: &[Formula]) -> Vec<bool> {
    grid_configs()
        .iter()
        .map(|(config, label)| {
            let mut solver = SmtSolver::with_config(pool.clone(), *config);
            for f in formulas {
                solver.assert(f.clone());
            }
            match solver.check().expect("budget is ample for tiny systems") {
                cps_smt::CheckResult::Sat(model) => {
                    for f in formulas {
                        assert!(
                            eval(f, model.values()),
                            "case {case} ({label}): model violates {f}"
                        );
                    }
                    true
                }
                cps_smt::CheckResult::Unsat => false,
            }
        })
        .collect()
}

#[test]
fn grid_corners_agree_on_witnessed_systems() {
    let mut gen = Gen::new(env_seed(0x9A7E));
    for case in 0..CASES {
        let (pool, formulas) = gen.formula_system(true);
        let verdicts = check_all_corners(case, &pool, &formulas);
        assert!(
            verdicts.iter().all(|v| *v),
            "case {case}: witness-backed system declared unsat by some corner: {verdicts:?}"
        );
    }
}

#[test]
fn grid_corners_agree_on_arbitrary_systems() {
    let mut gen = Gen::new(env_seed(0xD1CE));
    let mut sat = 0usize;
    let mut unsat = 0usize;
    for case in 0..CASES {
        let (pool, formulas) = gen.formula_system(false);
        let verdicts = check_all_corners(case, &pool, &formulas);
        assert!(
            verdicts.iter().all(|v| *v == verdicts[0]),
            "case {case}: grid corners disagree: {verdicts:?}"
        );
        if verdicts[0] {
            sat += 1;
        } else {
            unsat += 1;
        }
    }
    assert!(sat > 0, "generator never produced a satisfiable system");
    assert!(
        unsat > 0,
        "generator never produced an unsatisfiable system"
    );
}

/// Derives the bounds the asserted ones imply, with no conflict expected.
fn propagate(simplex: &mut Simplex) -> Vec<ImpliedBound> {
    let mut implied = Vec::new();
    simplex
        .propagate_bounds(usize::MAX, &mut implied)
        .expect("no conflict");
    implied
}

/// The tags with the given indices.
fn tags(indices: &[usize]) -> Vec<Tag> {
    indices.iter().map(|&i| Tag::new(i)).collect()
}

/// Checks each derived bound's variable, side, value and explanation.
fn check(
    simplex: &mut Simplex,
    call: &str,
    implied: &[ImpliedBound],
    want: &[(Var, Side, f64, &[usize])],
) {
    assert_eq!(implied.len(), want.len(), "{call}: {implied:?}");
    for (got, &(var, side, value, indices)) in implied.iter().zip(want) {
        assert_eq!((got.var, got.side), (var, side), "{call}: {got:?}");
        assert!((got.value.real - value).abs() < 1e-8, "{call}: {got:?}");
        assert_eq!(&*simplex.explanation(got), tags(indices), "{call}: {got:?}");
    }
}

/// The explanation of every derived bound, checked against tag sets derived
/// by hand on a two-row system: `a = x + y` and `b = x + y + z`.
///
/// - The Eq atom `x = 1` (tag 4) gives both bounds of `x` one tag.
/// - Row `a` derives `y ≤ 2` from `a ≤ 3` (tag 6) and `x ≥ 1` (tag 4).
/// - Row `b`, in the same wave, derives `b ≤ 3.5` from `x ≤ 1` (tag 4),
///   the derived `y ≤ 2` (tags 4 and 6, flattened through) and `z ≤ 0.5`
///   (tag 2): tag 4 reaches that union from two contributors.
/// - After `y ≥ 0.5` (tag 40, past every earlier tag), the second call
///   derives `a ≥ 1.5` from `x ≥ 1` and `y ≥ 0.5`.
/// - After `a ≤ 2.5` (tag 60), the third call derives `y ≤ 1.5` from it and
///   `x ≥ 1`, then `b ≤ 3` from `x ≤ 1`, `y ≤ 1.5` and `z ≤ 0.5`.
/// - Only then are the first call's explanations read. They hold the
///   contributors installed when those bounds were derived: a lookup at
///   read time would find `a ≤ 2.5` and `y ≤ 1.5`, and answer with tag 60.
///   Tag 4 was in every earlier union, so a mark kept from them would
///   drop it.
///
/// Explanations must also be ascending: the DPLL(T) loop builds clauses
/// from them in that order.
#[test]
fn implied_bound_explanations_match_hand_derived_tag_sets() {
    let mut pool = VarPool::new();
    let (x, y, z) = (pool.fresh("x"), pool.fresh("y"), pool.fresh("z"));
    let mut simplex = Simplex::new(pool.len());
    let (a, _) = simplex.define(&(LinExpr::var(x) + LinExpr::var(y)));
    let (b, _) = simplex.define(&(LinExpr::var(x) + LinExpr::var(y) + LinExpr::var(z)));
    let (x, y, z) = (Var::from(x), Var::from(y), Var::from(z));
    let asserts = [
        (x, RelOp::Eq, 1.0, 4),
        (a, RelOp::Le, 3.0, 6),
        (z, RelOp::Le, 0.5, 2),
    ];
    for (var, op, bound, tag) in asserts {
        simplex
            .assert_bound(var, 1.0, op, bound, Tag::new(tag))
            .expect("consistent bounds");
    }

    let first = propagate(&mut simplex);

    simplex
        .assert_bound(y, 1.0, RelOp::Ge, 0.5, Tag::new(40))
        .expect("consistent bounds");
    let second = propagate(&mut simplex);
    check(
        &mut simplex,
        "second call",
        &second,
        &[(a, Side::Lower, 1.5, &[4, 40])],
    );

    simplex
        .assert_bound(a, 1.0, RelOp::Le, 2.5, Tag::new(60))
        .expect("consistent bounds");
    let third = propagate(&mut simplex);
    check(
        &mut simplex,
        "third call",
        &third,
        &[
            (y, Side::Upper, 1.5, &[4, 60]),
            (b, Side::Upper, 3.0, &[2, 4, 60]),
        ],
    );

    check(
        &mut simplex,
        "first call",
        &first,
        &[
            (y, Side::Upper, 2.0, &[4, 6]),
            (b, Side::Upper, 3.5, &[2, 4, 6]),
        ],
    );
}

/// A handle outlives its bound only as long as the bound is installed:
/// after a retraction, even a bound re-derived at the same place must not
/// answer for it.
#[test]
#[should_panic(expected = "explanation asked for a retracted bound")]
fn explanation_of_a_retracted_bound_panics() {
    let mut pool = VarPool::new();
    let (x, y) = (pool.fresh("x"), pool.fresh("y"));
    let mut simplex = Simplex::new(pool.len());
    let (sum, _) = simplex.define(&(LinExpr::var(x) + LinExpr::var(y)));
    let mark = simplex.mark();
    let derive = |simplex: &mut Simplex| {
        simplex
            .assert_bound(sum, 1.0, RelOp::Le, 3.0, Tag::new(6))
            .expect("consistent bounds");
        simplex
            .assert_bound(x.into(), 1.0, RelOp::Ge, 1.0, Tag::new(4))
            .expect("consistent bounds");
        let implied = propagate(simplex);
        assert_eq!(implied.len(), 1, "y ≤ 2: {implied:?}");
        assert_eq!(&*simplex.explanation(&implied[0]), tags(&[4, 6]));
        implied
    };
    let retracted = derive(&mut simplex);
    simplex.pop_to(mark);
    derive(&mut simplex);
    simplex.explanation(&retracted[0]);
}
