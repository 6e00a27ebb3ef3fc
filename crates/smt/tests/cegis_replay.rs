//! Fuzz loop replaying CEGIS-shaped query sequences both *incrementally*
//! (one long-lived solver; each round's constraints passed to
//! `SmtSolver::check_assuming` over the once-asserted base system) and
//! *fresh* (a new solver per round re-asserting base + round). Every
//! round's verdict — and on SAT, the model's exact floating-point values —
//! must be bit-identical between the two replays, on both configuration
//! corners. This is the property that lets the synthesis layer warm-start
//! every round without changing a single synthesized threshold.

mod testutil;

use cps_smt::{CheckResult, Formula, SmtSolver, VarPool};
use testutil::{env_seed, grid_configs, Gen};

const CASES: u64 = 25;
const ROUNDS: usize = 6;

/// One generated CEGIS-shaped workload: a satisfiable base system plus a
/// sequence of per-round constraint sets of varying tightness (some rounds
/// SAT, some UNSAT — mimicking threshold vectors marching toward the final
/// UNSAT certificate).
struct Workload {
    pool: VarPool,
    base: Vec<Formula>,
    rounds: Vec<Vec<Formula>>,
}

fn workload(gen: &mut Gen) -> Workload {
    let n = 2 + gen.rng.usize_below(3);
    let mut pool = VarPool::new();
    let ids = pool.fresh_block("x", n);
    let point: Vec<f64> = (0..n).map(|_| gen.rng.range(-3.0, 3.0)).collect();
    let base = (0..2 + gen.rng.usize_below(3))
        .map(|_| gen.formula(&ids, &point, true, 2))
        .collect();
    let rounds = (0..ROUNDS)
        .map(|round| {
            // Later rounds draw fewer witnessed atoms, drifting toward
            // infeasibility the way tightening thresholds do.
            (0..1 + gen.rng.usize_below(3))
                .map(|_| {
                    let witnessed = gen.rng.usize_below(ROUNDS) > round;
                    gen.formula(&ids, &point, witnessed, 2)
                })
                .collect()
        })
        .collect();
    Workload { pool, base, rounds }
}

#[test]
fn incremental_rounds_replay_identically_to_scratch_rounds() {
    let mut gen = Gen::new(env_seed(0xCE_615));
    for case in 0..CASES {
        let w = workload(&mut gen);
        for (config, label) in grid_configs() {
            // Incremental replay: one warm solver across all rounds.
            let mut warm = SmtSolver::with_config(w.pool.clone(), config);
            for f in &w.base {
                warm.assert(f.clone());
            }
            for (round, constraints) in w.rounds.iter().enumerate() {
                let warm_verdict = warm.check_assuming(constraints).expect("ample budget");

                // From-scratch replay of the same round.
                let mut fresh = SmtSolver::with_config(w.pool.clone(), config);
                for f in w.base.iter().chain(constraints.iter()) {
                    fresh.assert(f.clone());
                }
                let fresh_verdict = fresh.check().expect("ample budget");

                match (&warm_verdict, &fresh_verdict) {
                    (CheckResult::Sat(a), CheckResult::Sat(b)) => assert_eq!(
                        a.values(),
                        b.values(),
                        "case {case} round {round} ({label}): models differ bitwise"
                    ),
                    (CheckResult::Unsat, CheckResult::Unsat) => {}
                    other => {
                        panic!("case {case} round {round} ({label}): verdicts disagree: {other:?}")
                    }
                }
            }
            // After all rounds the warm solver holds only the base system and
            // must still agree with a fresh base-only check.
            let warm_base = warm.check().expect("ample budget");
            let mut fresh = SmtSolver::with_config(w.pool.clone(), config);
            for f in &w.base {
                fresh.assert(f.clone());
            }
            assert_eq!(
                warm_base,
                fresh.check().expect("ample budget"),
                "case {case} ({label}): post-replay base state diverged"
            );
        }
    }
}
