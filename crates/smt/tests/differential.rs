//! Randomized differential suite for the DPLL(T) solver: systems with
//! verdicts known **by construction** are checked on both configuration
//! corners (theory propagation on and off).
//!
//! Two generator families pin the verdict in advance:
//! - *witnessed-SAT*: every atom holds at a hidden witness point, so any
//!   `Unsat` is a soundness failure;
//! - *staircase-UNSAT*: a descending chain of difference bounds whose total
//!   drop contradicts the closing demand, so any `Sat` is a completeness
//!   failure — and its model would be a fabricated CEGIS counterexample.
//!
//! A third test mixes both families in one query (the staircase poisons the
//! witnessed system), which forces real conflict-clause learning before the
//! `Unsat` verdict.

mod testutil;

use cps_smt::{CheckResult, Formula, SmtSolver, VarPool};
use testutil::{env_seed, eval, grid_configs, Gen};

const CASES: u64 = 80;

fn verdict(config: cps_smt::SolverConfig, pool: &VarPool, formulas: &[Formula]) -> CheckResult {
    let mut solver = SmtSolver::with_config(pool.clone(), config);
    for f in formulas {
        solver.assert(f.clone());
    }
    solver
        .check()
        .expect("budget is ample for generated systems")
}

#[test]
fn witnessed_sat_systems_are_sat_on_every_corner() {
    let mut gen = Gen::new(env_seed(0x5EED_5A7));
    for case in 0..CASES {
        let (pool, formulas) = gen.formula_system(true);
        for (config, label) in grid_configs() {
            match verdict(config, &pool, &formulas) {
                CheckResult::Sat(model) => {
                    for f in &formulas {
                        assert!(
                            eval(f, model.values()),
                            "case {case} ({label}): model violates {f}"
                        );
                    }
                }
                CheckResult::Unsat => {
                    panic!("case {case} ({label}): witness-backed system declared unsat")
                }
            }
        }
    }
}

#[test]
fn staircase_unsat_systems_are_unsat_on_every_corner() {
    let mut gen = Gen::new(env_seed(0x5EED_0115));
    for case in 0..CASES {
        let (pool, formulas) = gen.staircase_unsat_system();
        for (config, label) in grid_configs() {
            assert_eq!(
                verdict(config, &pool, &formulas),
                CheckResult::Unsat,
                "case {case} ({label}): contradictory staircase declared sat"
            );
        }
    }
}

/// Merges a witnessed-SAT system with a staircase-UNSAT system over a shared
/// pool: the conjunction is UNSAT, but the solver has to *search* for the
/// contradiction through the satisfiable clutter, learning conflict clauses
/// on the way.
#[test]
fn poisoned_systems_are_unsat_on_every_corner() {
    let mut gen = Gen::new(env_seed(0x5EED_B0B));
    for case in 0..CASES {
        let (mut pool, mut formulas) = gen.formula_system(true);
        // Append a contradictory staircase over fresh variables of the same
        // pool: the combined conjunction is UNSAT, found only by search.
        formulas.extend(gen.staircase_unsat_into(&mut pool));
        for (config, label) in grid_configs() {
            assert_eq!(
                verdict(config, &pool, &formulas),
                CheckResult::Unsat,
                "case {case} ({label}): poisoned system declared sat"
            );
        }
    }
}
