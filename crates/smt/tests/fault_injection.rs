//! Randomized fault-injection suite (compiled only with the `fault-injection`
//! feature): deterministic seeded faults — clock jumps, spurious
//! cancellations, forced theory-verdict divergence, NaN/inf model
//! perturbation — are injected into solver runs over systems whose verdicts
//! are known by construction, on both configuration corners.
//!
//! The invariant under test: a faulted run returns the **correct** verdict or
//! a typed [`SmtError::Interrupted`] — never a wrong `Sat`/`Unsat`, never a
//! panic. Runs under the CI seed matrix via `CPS_SMT_SEED`.
#![cfg(feature = "fault-injection")]

mod testutil;

use std::time::Duration;

use cps_smt::{Budget, CheckResult, FaultPlan, FaultSpec, Formula, SmtError, SmtSolver, VarPool};
use testutil::{env_seed, eval, grid_configs, Gen};

const CASES: u64 = 12;

/// Per-kind plans (one site each, aggressive rates) plus the all-kinds sweep.
/// The boolean marks plans that need a wall-clock deadline armed: the clock
/// fault site is only visited when a deadline is set.
fn plans(seed: u64) -> Vec<(&'static str, FaultPlan, bool)> {
    let spec = FaultSpec::new(0.5, 3);
    let mut clock = FaultPlan::quiet(seed);
    clock.clock_jump = spec;
    let mut cancel = FaultPlan::quiet(seed ^ 1);
    cancel.spurious_cancel = spec;
    let mut diverge = FaultPlan::quiet(seed ^ 2);
    diverge.forced_divergence = spec;
    let mut nan = FaultPlan::quiet(seed ^ 3);
    nan.nan_perturbation = spec;
    vec![
        ("clock-jump", clock, true),
        ("spurious-cancel", cancel, false),
        ("forced-divergence", diverge, false),
        ("nan-perturbation", nan, false),
        ("all-kinds", FaultPlan::all(seed ^ 4, 0.2, 2), false),
    ]
}

/// Runs one faulted check and enforces the soundness invariant. Returns the
/// number of faults that actually fired.
fn check_faulted(
    config: cps_smt::SolverConfig,
    pool: &VarPool,
    formulas: &[Formula],
    plan: FaultPlan,
    with_deadline: bool,
    expect_sat: bool,
    context: &str,
) -> u32 {
    let mut solver = SmtSolver::with_config(pool.clone(), config);
    for f in formulas {
        solver.assert(f.clone());
    }
    solver.install_faults(plan);
    if with_deadline {
        // Generous enough that only an injected clock jump can plausibly
        // trip it — and an early `Deadline` interruption is a legal outcome.
        solver.set_budget(Budget::unlimited().with_timeout(Duration::from_secs(30)));
    }
    match solver.check() {
        Ok(CheckResult::Sat(model)) => {
            assert!(expect_sat, "{context}: contradictory system declared sat");
            for (i, value) in model.values().iter().enumerate() {
                assert!(
                    value.is_finite(),
                    "{context}: non-finite model value {value} at index {i}"
                );
            }
            for f in formulas {
                assert!(eval(f, model.values()), "{context}: model violates {f}");
            }
        }
        Ok(CheckResult::Unsat) => {
            assert!(
                !expect_sat,
                "{context}: witness-backed system declared unsat"
            );
        }
        Err(SmtError::Interrupted { .. }) => {
            // Graceful typed interruption: always legal under faults.
        }
        Err(other) => panic!("{context}: unexpected error {other:?}"),
    }
    solver.fault_fires()
}

fn run_fault_suite(seed: u64, expect_sat: bool) {
    let mut gen = Gen::new(seed);
    let mut total_fires = 0u32;
    for case in 0..CASES {
        let (pool, formulas) = if expect_sat {
            gen.formula_system(true)
        } else {
            gen.staircase_unsat_system()
        };
        for (config, label) in grid_configs() {
            for (kind, plan, with_deadline) in plans(seed ^ (case << 8)) {
                let context = format!("case {case} ({label}, fault {kind})");
                total_fires += check_faulted(
                    config,
                    &pool,
                    &formulas,
                    plan,
                    with_deadline,
                    expect_sat,
                    &context,
                );
            }
        }
    }
    assert!(
        total_fires > 0,
        "the sweep must actually exercise the fault paths"
    );
}

#[test]
fn faulted_runs_never_fabricate_unsat_on_witnessed_sat_systems() {
    run_fault_suite(env_seed(0xFA17_5A7), true);
}

#[test]
fn faulted_runs_never_fabricate_sat_on_staircase_unsat_systems() {
    run_fault_suite(env_seed(0xFA17_0115), false);
}
