//! Fuzz loop replaying CEGIS-shaped query sequences both *incrementally*
//! (one long-lived solver; each round's constraints passed to
//! `SmtSolver::check_assuming` over the once-asserted base system) and
//! *fresh* (a new solver per round that asserts base + round and runs one
//! `check`). Every round's outcome — the verdict, on SAT the model's exact
//! floating-point values, on an interruption its reason — and every work
//! counter of the search must be bit-identical between the two replays, on
//! both configuration corners. This is the property that lets the synthesis
//! layer warm-start every round without changing a single synthesized
//! threshold.
//!
//! A warm solver restores its engines from a level-0 image of the base
//! encoding, grows the SAT core to the round's variables and adds the
//! round's clauses and atoms; the one-shot reference builds its image from
//! base + round in one go, so the comparison covers all three steps. The
//! replay also runs the sequences that could leave the image or the working
//! engines stale: an `assert` between two rounds, a round interrupted
//! mid-search by a tiny conflict budget, and a round rejected for a
//! non-finite formula (which poisons the one-shot solver at `assert`).

mod testutil;

use cps_smt::{Budget, CheckResult, Formula, LinExpr, SmtError, SmtSolver, SolverStats, VarPool};
use testutil::{env_seed, grid_configs, Gen};

const CASES: u64 = 25;

/// What the replay does next on the warm solver.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    /// `check_assuming` the next round's constraints.
    Round,
    /// `assert` one more (witnessed) base formula.
    Assert,
    /// The next round under a conflict cap of 1.
    Interrupted,
    /// The next round plus a formula with an infinite bound.
    NonFinite,
}

const SCHEDULE: [Step; 10] = [
    Step::Round,
    Step::Round,
    Step::Assert,
    Step::Round,
    Step::Interrupted,
    Step::Round,
    Step::NonFinite,
    Step::Round,
    Step::Round,
    Step::Round,
];

/// One generated CEGIS-shaped workload: a satisfiable base system, one more
/// base formula asserted mid-run, and a sequence of per-round constraint
/// sets of varying tightness (some rounds SAT, some UNSAT — mimicking
/// threshold vectors marching toward the final UNSAT certificate). Like a
/// threshold on a residue, each round bounds one of the base's multi-term
/// expressions again, so round atoms share rows defined in the image.
struct Workload {
    pool: VarPool,
    base: Vec<Formula>,
    late_base: Formula,
    rounds: Vec<Vec<Formula>>,
}

fn workload(gen: &mut Gen) -> Workload {
    let n = 2 + gen.rng.usize_below(3);
    let mut pool = VarPool::new();
    let ids = pool.fresh_block("x", n);
    let point: Vec<f64> = (0..n).map(|_| gen.rng.range(-3.0, 3.0)).collect();
    let residues: Vec<LinExpr> = (0..2)
        .map(|_| LinExpr::from_terms(ids.iter().map(|&v| (v, gen.rng.range(-2.0, 2.0))), 0.0))
        .collect();
    let mut base: Vec<Formula> = residues
        .iter()
        .map(|r| Formula::atom(r.clone().le(r.evaluate(&point) + gen.rng.range(0.5, 2.0))))
        .collect();
    base.extend((0..2 + gen.rng.usize_below(3)).map(|_| gen.formula(&ids, &point, true, 2)));
    let late_base = gen.formula(&ids, &point, true, 2);
    let num_rounds = SCHEDULE.iter().filter(|s| **s != Step::Assert).count();
    let rounds = (0..num_rounds)
        .map(|round| {
            let r = &residues[gen.rng.usize_below(residues.len())];
            let threshold = r.clone().le(r.evaluate(&point) + gen.rng.range(-0.5, 1.0));
            // Later rounds draw fewer witnessed atoms, drifting toward
            // infeasibility the way tightening thresholds do.
            let mut constraints: Vec<Formula> = (0..1 + gen.rng.usize_below(3))
                .map(|_| {
                    let witnessed = gen.rng.usize_below(num_rounds) > round;
                    gen.formula(&ids, &point, witnessed, 2)
                })
                .collect();
            constraints.push(Formula::atom(threshold));
            constraints
        })
        .collect();
    Workload {
        pool,
        base,
        late_base,
        rounds,
    }
}

/// The work counters of a check: every field except the wall-clock
/// `simplex_nanos` and `scopes_reused`, which marks a warm check and so
/// differs between the replays by design.
fn work(stats: SolverStats) -> SolverStats {
    SolverStats {
        simplex_nanos: 0,
        scopes_reused: 0,
        ..stats
    }
}

/// Outcome and work counters of one check, comparable across replays:
/// models by bit pattern, interruptions by reason and counters.
fn observed(outcome: Result<CheckResult, SmtError>, stats: SolverStats) -> String {
    let outcome = match outcome {
        Ok(CheckResult::Sat(model)) => {
            let bits: Vec<u64> = model.values().iter().map(|v| v.to_bits()).collect();
            format!("sat {bits:?}")
        }
        Ok(CheckResult::Unsat) => "unsat".to_owned(),
        Err(SmtError::Interrupted { reason, stats }) => {
            format!("interrupted ({reason}) {:?}", work(stats))
        }
        Err(other) => format!("error {other:?}"),
    };
    format!("{outcome}; {:?}", work(stats))
}

#[test]
fn incremental_rounds_replay_identically_to_scratch_rounds() {
    let mut gen = Gen::new(env_seed(0xCE_615));
    let mut interrupted = 0;
    for case in 0..CASES {
        let w = workload(&mut gen);
        let x = w.pool.iter().next().expect("a variable");
        let non_finite = Formula::or(vec![
            Formula::atom(LinExpr::var(x).le(f64::INFINITY)),
            Formula::atom(LinExpr::var(x).ge(0.0)),
        ]);
        for (config, label) in grid_configs() {
            // Incremental replay: one warm solver across all rounds.
            let mut warm = SmtSolver::with_config(w.pool.clone(), config);
            let mut base = w.base.clone();
            for f in &base {
                warm.assert(f.clone());
            }
            let mut rounds = w.rounds.iter();
            for (step_idx, &step) in SCHEDULE.iter().enumerate() {
                if step == Step::Assert {
                    warm.assert(w.late_base.clone());
                    base.push(w.late_base.clone());
                    continue;
                }
                let mut constraints = rounds.next().expect("one round per step").clone();
                let budget = match step {
                    Step::Interrupted => Budget::unlimited().with_conflict_cap(1),
                    _ => Budget::unlimited(),
                };
                if step == Step::NonFinite {
                    constraints.push(non_finite.clone());
                }
                warm.set_budget(budget);
                let warm_outcome = warm.check_assuming(&constraints);
                if matches!(warm_outcome, Err(SmtError::Interrupted { .. })) {
                    interrupted += 1;
                }
                let warm_seen = observed(warm_outcome, warm.stats());
                warm.set_budget(Budget::unlimited());

                // One-shot replay of the same round.
                let mut fresh = SmtSolver::with_config(w.pool.clone(), config);
                for f in base.iter().chain(&constraints) {
                    fresh.assert(f.clone());
                }
                fresh.set_budget(budget);
                let fresh_outcome = fresh.check();
                let fresh_seen = observed(fresh_outcome, fresh.stats());
                assert_eq!(
                    warm_seen, fresh_seen,
                    "case {case} step {step_idx} {step:?} ({label}): warm and fresh rounds differ"
                );
                if step == Step::NonFinite {
                    assert!(warm_seen.starts_with("error NonFiniteAssertion"));
                }
            }
            // After all rounds the warm solver holds only the base system and
            // must still agree with a fresh base-only check.
            let warm_base = warm.check();
            let warm_seen = observed(warm_base, warm.stats());
            let mut fresh = SmtSolver::with_config(w.pool.clone(), config);
            for f in &base {
                fresh.assert(f.clone());
            }
            let fresh_base = fresh.check();
            assert_eq!(
                warm_seen,
                observed(fresh_base, fresh.stats()),
                "case {case} ({label}): post-replay base state diverged"
            );
        }
    }
    assert!(
        interrupted >= 5,
        "only {interrupted} rounds tripped the conflict cap"
    );
}
