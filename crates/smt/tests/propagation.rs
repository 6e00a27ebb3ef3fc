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

mod testutil;

use cps_smt::{Formula, SmtSolver, VarPool};
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
