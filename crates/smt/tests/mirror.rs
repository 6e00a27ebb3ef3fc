//! Mirror symmetry of the solver. Negating every real variable — `x ↦ −x`
//! in every atom, which negates each coefficient and keeps each relation
//! and bound — maps every model of a system to a model of its mirror, so
//! the verdict must not change. The simplex writes each bound operation
//! once over a side (lower or upper), and mirroring swaps the sides of the
//! problem variables' bounds while keeping the rows' slack values; on the
//! propagation-off corner the whole search must therefore mirror exactly:
//! every work counter equal and the model negated. One-shot
//! `Simplex::check` must return the same explanation tags.
//!
//! The benchmark's trajectory workloads derive no bound, so this suite is
//! what exercises the two sides of the bound code against each other off
//! the VSC: a call that reads or writes the wrong side breaks the mirror.
//!
//! On the propagation-on corner only the verdicts are compared. Pass 2 of
//! the row propagation reads a term's own bound on its LO side after the HI
//! side of the same term may have tightened it, an asymmetry that moves
//! some derived bounds between a system and its mirror. Once that read uses
//! the pass-1 bound on both sides, this corner can assert the search too.

mod testutil;

use cps_smt::simplex::{Simplex, SimplexResult, Tag};
use cps_smt::{CheckResult, Constraint, Formula, SmtSolver, SolverConfig, SolverStats, VarPool};
use testutil::{env_seed, Gen};

/// Cases per generator family.
const CASES: u64 = 200;

/// `formula` over the negated variables, in the same shape.
fn mirror(formula: &Formula) -> Formula {
    match formula {
        Formula::Atom(c) => Formula::Atom(mirror_constraint(c)),
        Formula::Not(inner) => Formula::Not(Box::new(mirror(inner))),
        Formula::And(parts) => Formula::And(parts.iter().map(mirror).collect()),
        Formula::Or(parts) => Formula::Or(parts.iter().map(mirror).collect()),
        Formula::True | Formula::False | Formula::BoolVar(_) => formula.clone(),
    }
}

/// `constraint` over the negated variables: every coefficient negated.
fn mirror_constraint(constraint: &Constraint) -> Constraint {
    Constraint::new(
        -constraint.expr().clone(),
        constraint.op(),
        constraint.bound(),
    )
}

/// The four generator families of the differential suites: witnessed-SAT,
/// random, staircase-UNSAT and poisoned (witnessed plus a staircase).
fn families(gen: &mut Gen) -> [(&'static str, VarPool, Vec<Formula>); 4] {
    let (pool, formulas) = gen.formula_system(true);
    let witnessed = ("witnessed", pool, formulas);
    let (pool, formulas) = gen.formula_system(false);
    let random = ("random", pool, formulas);
    let (pool, formulas) = gen.staircase_unsat_system();
    let staircase = ("staircase", pool, formulas);
    let (mut pool, mut formulas) = gen.formula_system(true);
    formulas.extend(gen.staircase_unsat_into(&mut pool));
    [witnessed, random, staircase, ("poisoned", pool, formulas)]
}

/// The verdict and statistics of one check of `formulas`.
fn solve(config: SolverConfig, pool: &VarPool, formulas: &[Formula]) -> (CheckResult, SolverStats) {
    let mut solver = SmtSolver::with_config(pool.clone(), config);
    for formula in formulas {
        solver.assert(formula.clone());
    }
    let result = solver
        .check()
        .expect("budget is ample for generated systems");
    // Wall time is the one statistic that is not a work counter.
    let stats = SolverStats {
        simplex_nanos: 0,
        ..solver.stats()
    };
    (result, stats)
}

/// Runs every family on `config`, and `check` on each system's result and
/// its mirror's.
fn for_each_mirrored_pair(
    seed: u64,
    config: SolverConfig,
    mut check: impl FnMut(&str, (CheckResult, SolverStats), (CheckResult, SolverStats)),
) {
    let mut gen = Gen::new(env_seed(seed));
    for case in 0..CASES {
        for (family, pool, formulas) in families(&mut gen) {
            let mirrored: Vec<Formula> = formulas.iter().map(mirror).collect();
            let label = format!("case {case} ({family})");
            check(
                &label,
                solve(config, &pool, &formulas),
                solve(config, &pool, &mirrored),
            );
        }
    }
}

#[test]
fn propagation_off_search_mirrors_exactly() {
    let config = SolverConfig {
        theory_propagation: false,
    };
    let mut sat = 0;
    for_each_mirrored_pair(0x3177_0FF, config, |label, original, mirrored| {
        assert_eq!(original.1, mirrored.1, "{label}: work counters");
        match (original.0, mirrored.0) {
            (CheckResult::Sat(model), CheckResult::Sat(mirror_model)) => {
                sat += 1;
                let negated: Vec<f64> = model.values().iter().map(|v| -v).collect();
                assert_eq!(mirror_model.values(), &negated[..], "{label}: model");
            }
            (CheckResult::Unsat, CheckResult::Unsat) => {}
            verdicts => panic!("{label}: verdicts differ: {verdicts:?}"),
        }
    });
    assert!(sat > 0, "no satisfiable system generated");
}

#[test]
fn propagation_on_verdicts_mirror() {
    let config = SolverConfig {
        theory_propagation: true,
    };
    for_each_mirrored_pair(0x3177_0, config, |label, original, mirrored| {
        assert_eq!(
            original.0.is_sat(),
            mirrored.0.is_sat(),
            "{label}: verdicts differ"
        );
    });
}

#[test]
fn one_shot_checks_mirror_models_and_explanations() {
    let mut gen = Gen::new(env_seed(0x3177_05));
    let (mut feasible, mut infeasible) = (0, 0);
    for case in 0..2 * CASES {
        let (pool, constraints) = gen.constraint_system(case % 2 == 0);
        let mirrored: Vec<(Constraint, Tag)> = constraints
            .iter()
            .map(|(constraint, tag)| (mirror_constraint(constraint), *tag))
            .collect();
        match (
            Simplex::check(pool.len(), &constraints),
            Simplex::check(pool.len(), &mirrored),
        ) {
            (SimplexResult::Feasible(model), SimplexResult::Feasible(mirror_model)) => {
                feasible += 1;
                let negated: Vec<f64> = model.iter().map(|v| -v).collect();
                assert_eq!(mirror_model, negated, "case {case}: model");
            }
            (SimplexResult::Infeasible(tags), SimplexResult::Infeasible(mirror_tags)) => {
                infeasible += 1;
                assert_eq!(mirror_tags, tags, "case {case}: explanation");
            }
            verdicts => panic!("case {case}: verdicts differ: {verdicts:?}"),
        }
    }
    assert!(feasible > 0 && infeasible > 0, "{feasible} {infeasible}");
}
