//! Property-based tests: the SMT solver's verdicts are cross-checked against
//! direct evaluation of the formula on the produced model, and against a
//! closed form for interval problems with a known answer.
//!
//! `proptest` is not in the sanctioned offline crate set, so each property is
//! checked over a deterministic stream of pseudo-random cases drawn from the
//! workspace's shared [`cps_linalg::SplitMix64`] (seeded per test, so
//! failures reproduce).

mod testutil;

use cps_smt::{Formula, LinExpr, SmtSolver, VarId, VarPool};
use testutil::{env_seed, Gen};

const CASES: usize = 64;

/// A pool of `num_vars` variables `x0..` plus their ids (identical ids for
/// identical `num_vars`, so formulas transfer between equally sized pools).
fn pool_and_ids(num_vars: usize) -> (VarPool, Vec<VarId>) {
    let mut pool = VarPool::new();
    let ids = pool.fresh_block("x", num_vars);
    (pool, ids)
}

fn fresh_pool(num_vars: usize) -> VarPool {
    pool_and_ids(num_vars).0
}

/// Whenever the solver answers SAT, the returned model must actually satisfy
/// the asserted formula.
#[test]
fn sat_models_satisfy_the_formula() {
    let mut g = Gen::new(env_seed(0x5A7));
    let (_, ids) = pool_and_ids(3);
    for _ in 0..CASES {
        let formula = g.bound_formula(&ids, 3);
        let mut solver = SmtSolver::new(fresh_pool(3));
        solver.assert(formula.clone());
        if let Ok(result) = solver.check() {
            if let Some(model) = result.model() {
                assert!(
                    formula.holds(model.values()),
                    "model {:?} does not satisfy {formula}",
                    model.values()
                );
            }
        }
    }
}

/// A formula and its negation can never both be unsatisfiable.
#[test]
fn formula_or_negation_is_sat() {
    let mut g = Gen::new(env_seed(0x9E6));
    let (_, ids) = pool_and_ids(2);
    for _ in 0..CASES {
        let formula = g.bound_formula(&ids, 3);
        let verdict = |f: Formula| {
            let mut solver = SmtSolver::new(fresh_pool(2));
            solver.assert(f);
            solver.check().map(|r| r.is_sat())
        };
        let direct = verdict(formula.clone());
        let negated = verdict(Formula::not(formula));
        if let (Ok(a), Ok(b)) = (direct, negated) {
            assert!(a || b, "both a formula and its negation reported unsat");
        }
    }
}

/// Interval conjunctions have a known feasibility criterion: the largest lower
/// bound must not exceed the smallest upper bound.
#[test]
fn interval_conjunctions_match_closed_form() {
    let mut g = Gen::new(env_seed(0x17E));
    for _ in 0..CASES {
        let lowers: Vec<f64> = (0..1 + g.rng.usize_below(4))
            .map(|_| g.rng.range(-10.0, 10.0))
            .collect();
        let uppers: Vec<f64> = (0..1 + g.rng.usize_below(4))
            .map(|_| g.rng.range(-10.0, 10.0))
            .collect();
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let mut solver = SmtSolver::new(pool);
        for &l in &lowers {
            solver.assert(Formula::atom(LinExpr::var(x).ge(l)));
        }
        for &u in &uppers {
            solver.assert(Formula::atom(LinExpr::var(x).le(u)));
        }
        let max_lower = lowers.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min_upper = uppers.iter().cloned().fold(f64::INFINITY, f64::min);
        let expected = max_lower <= min_upper + 1e-9;
        let got = solver.check().unwrap().is_sat();
        assert_eq!(got, expected, "lowers {lowers:?} uppers {uppers:?}");
    }
}

/// Deterministic regression: a closed-loop-style chain of equalities with a
/// reachability query, small enough to verify by hand, exercised through the
/// full DPLL(T) stack.
#[test]
fn reachability_chain_has_expected_verdicts() {
    // x_{k+1} = 0.5 x_k + u_k, x_0 = 0, |u_k| <= 1, horizon 4.
    // max reachable x_4 = 1 + 0.5 + 0.25 + 0.125 = 1.875.
    let build = |target: f64| {
        let mut pool = VarPool::new();
        let xs = pool.fresh_block("x", 5);
        let us = pool.fresh_block("u", 4);
        let mut solver = SmtSolver::new(pool);
        solver.assert(Formula::atom(LinExpr::var(xs[0]).eq_to(0.0)));
        for k in 0..4 {
            let step = LinExpr::var(xs[k + 1]) - LinExpr::term(xs[k], 0.5) - LinExpr::var(us[k]);
            solver.assert(Formula::atom(step.eq_to(0.0)));
            solver.assert(Formula::atom(LinExpr::var(us[k]).le(1.0)));
            solver.assert(Formula::atom(LinExpr::var(us[k]).ge(-1.0)));
        }
        solver.assert(Formula::atom(LinExpr::var(xs[4]).ge(target)));
        solver.check().unwrap().is_sat()
    };
    assert!(build(1.8), "1.8 is reachable");
    assert!(!build(1.9), "1.9 exceeds the reachable set");
}
