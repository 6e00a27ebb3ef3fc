//! Differential tests for the incremental simplex: on randomized
//! constraint systems, the push/pop incremental path must return the same
//! feasibility verdicts as the one-shot from-scratch `Simplex::check`, and
//! feasible verdicts must come with assignments that satisfy every asserted
//! constraint.
//!
//! Cases are drawn from the workspace's deterministic [`cps_linalg::SplitMix64`]
//! (seeded per test, so failures reproduce). Roughly half the systems are
//! feasible **by construction** (every constraint is generated to hold at a
//! random witness point), which makes any `Infeasible` verdict on them an
//! immediate soundness failure rather than a silent disagreement.

mod testutil;

use cps_linalg::SplitMix64;
use cps_smt::simplex::{Simplex, SimplexResult, Tag, Var};
use cps_smt::Constraint;
use testutil::{env_seed, Gen};

const CASES: u64 = 300;

fn assert_model_satisfies(constraints: &[(Constraint, Tag)], model: &[f64]) {
    for (constraint, tag) in constraints {
        assert!(
            constraint.holds(model),
            "feasible verdict but constraint {tag:?} is violated: {constraint}"
        );
    }
}

/// Replays the constraint set through the incremental API with interleaved
/// marks, retractions and re-assertions, ending in a state equivalent to
/// asserting everything once. Every constraint's expression is defined once
/// up front, so phase 2 bounds the rows phase 1 pivoted, after their bounds
/// were retracted. Returns the final verdict.
fn incremental_verdict(
    rng: &mut SplitMix64,
    num_vars: usize,
    constraints: &[(Constraint, Tag)],
) -> Result<Vec<f64>, ()> {
    let mut simplex = Simplex::new(num_vars);
    let slots: Vec<(Var, f64)> = constraints
        .iter()
        .map(|(constraint, _)| simplex.define(constraint.expr()))
        .collect();
    let bound = |simplex: &mut Simplex, i: usize| {
        let ((constraint, tag), (var, scale)) = (&constraints[i], slots[i]);
        simplex.assert_bound(var, scale, constraint.op(), constraint.bound(), *tag)
    };
    // Phase 1: assert a random prefix, solve, then retract it entirely.
    let mark = simplex.mark();
    let prefix = rng.usize_below(constraints.len() + 1);
    let mut contradicted = false;
    for i in 0..prefix {
        if bound(&mut simplex, i).is_err() {
            contradicted = true;
            break;
        }
    }
    if !contradicted {
        let _ = simplex.solve();
    }
    simplex.pop_to(mark);
    assert!(
        simplex.solve().is_ok(),
        "retracting every bound must restore feasibility"
    );
    // Phase 2: assert everything, solving after random chunks.
    for i in 0..constraints.len() {
        if bound(&mut simplex, i).is_err() {
            return Err(());
        }
        if rng.usize_below(3) == 0 && simplex.solve().is_err() {
            return Err(());
        }
    }
    match simplex.solve() {
        Ok(()) => Ok(simplex.concrete_assignment()),
        Err(_) => Err(()),
    }
}

#[test]
fn incremental_agrees_with_from_scratch_on_feasible_systems() {
    let mut gen = Gen::new(env_seed(0xFEA51B1E));
    for case in 0..CASES {
        let (pool, constraints) = gen.constraint_system(true);
        match Simplex::check(pool.len(), &constraints) {
            SimplexResult::Feasible(model) => assert_model_satisfies(&constraints, &model),
            SimplexResult::Infeasible(tags) => {
                panic!("case {case}: witness-backed system declared infeasible ({tags:?})")
            }
        }
        let mut rng = SplitMix64::new(0xAB + case);
        let model = incremental_verdict(&mut rng, pool.len(), &constraints)
            .unwrap_or_else(|()| panic!("case {case}: incremental path declared infeasible"));
        assert_model_satisfies(&constraints, &model);
    }
}

#[test]
fn incremental_agrees_with_from_scratch_on_arbitrary_systems() {
    let mut gen = Gen::new(env_seed(0xD1FF));
    let mut feasible = 0usize;
    let mut infeasible = 0usize;
    for case in 0..CASES {
        let (pool, constraints) = gen.constraint_system(false);
        let scratch = Simplex::check(pool.len(), &constraints);
        let mut rng = SplitMix64::new(0xCD + case);
        let incremental = incremental_verdict(&mut rng, pool.len(), &constraints);
        match (&scratch, &incremental) {
            (SimplexResult::Feasible(model), Ok(inc_model)) => {
                feasible += 1;
                assert_model_satisfies(&constraints, model);
                assert_model_satisfies(&constraints, inc_model);
            }
            (SimplexResult::Infeasible(_), Err(())) => infeasible += 1,
            other => panic!("case {case}: verdicts disagree: {other:?}"),
        }
    }
    assert!(feasible > 0, "generator never produced a feasible system");
    assert!(
        infeasible > 0,
        "generator never produced an infeasible system"
    );
}

#[test]
fn infeasibility_explanations_are_conflicting_subsets() {
    let mut gen = Gen::new(env_seed(0xE1));
    let mut checked = 0usize;
    for _ in 0..CASES {
        let (pool, constraints) = gen.constraint_system(false);
        if let SimplexResult::Infeasible(tags) = Simplex::check(pool.len(), &constraints) {
            // The explanation must itself be infeasible (it is a conflicting
            // subset, not just a pointer into the input).
            let subset: Vec<(Constraint, Tag)> = constraints
                .iter()
                .filter(|(_, tag)| tags.contains(tag))
                .cloned()
                .collect();
            assert!(
                !Simplex::check(pool.len(), &subset).is_feasible(),
                "explanation {tags:?} is not itself conflicting"
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "no infeasible system generated");
}
