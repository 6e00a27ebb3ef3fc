//! Shared deterministic generators, evaluators and configuration grids for
//! the crate's randomized differential test suites. Every integration-test
//! binary that needs them declares `mod testutil;`, so any single binary
//! uses only a subset of the items — hence the file-level `dead_code` allow.
//!
//! All randomness flows through the workspace's [`cps_linalg::SplitMix64`]
//! with explicit seeds, so failures reproduce exactly. CI runs the suites
//! under a seed matrix via the `CPS_SMT_SEED` environment variable (see
//! [`env_seed`]).
#![allow(dead_code)]

use cps_linalg::SplitMix64;
use cps_smt::simplex::Tag;
use cps_smt::{Constraint, Formula, LinExpr, SolverConfig, VarId, VarPool};

/// Mixes a test's base seed with the `CPS_SMT_SEED` environment variable so
/// CI can sweep a seed matrix without recompiling. Unset, empty or `0` leaves
/// the base seed unchanged (the default local run).
pub fn env_seed(base: u64) -> u64 {
    match std::env::var("CPS_SMT_SEED") {
        Ok(raw) => match raw.trim().parse::<u64>() {
            Ok(0) | Err(_) => base,
            // SplitMix64's odd gamma decorrelates base^1 from base^2 runs.
            Ok(n) => base ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        },
        Err(_) => base,
    }
}

/// The two [`SolverConfig`] corners: theory propagation on (the default) and
/// off (the check-at-leaves reference), each paired with a human-readable
/// label for failure messages.
pub fn grid_configs() -> Vec<(SolverConfig, String)> {
    [true, false]
        .into_iter()
        .map(|propagation| {
            let config = SolverConfig {
                theory_propagation: propagation,
            };
            (config, format!("prop={propagation}"))
        })
        .collect()
}

/// Evaluates a generated formula (no free Boolean variables) at a
/// real-valued model.
pub fn eval(f: &Formula, values: &[f64]) -> bool {
    match f {
        Formula::True => true,
        Formula::False => false,
        Formula::Atom(c) => c.holds(values),
        Formula::Not(inner) => !eval(inner, values),
        Formula::And(parts) => parts.iter().all(|p| eval(p, values)),
        Formula::Or(parts) => parts.iter().any(|p| eval(p, values)),
        Formula::BoolVar(_) => unreachable!("generators produce no free Boolean variables"),
    }
}

/// Deterministic random-system generator shared by the differential suites.
pub struct Gen {
    pub rng: SplitMix64,
}

impl Gen {
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SplitMix64::new(seed),
        }
    }

    /// A random linear atom over up to three of the given variables. With
    /// `witness` set the atom is generated to hold at `point`.
    pub fn atom(&mut self, ids: &[VarId], point: &[f64], witness: bool) -> Formula {
        let terms = 1 + self.rng.usize_below(3);
        let mut expr = LinExpr::zero();
        for _ in 0..terms {
            let v = self.rng.usize_below(ids.len());
            expr.add_term(ids[v], self.rng.range(-2.0, 2.0));
        }
        let center = if witness {
            expr.evaluate(point)
        } else {
            self.rng.range(-4.0, 4.0)
        };
        let slack = self.rng.range(0.05, 1.0);
        let constraint = match self.rng.usize_below(5) {
            0 => expr.le(center + slack),
            1 => expr.lt(center + slack),
            2 => expr.ge(center - slack),
            3 => expr.gt(center - slack),
            _ => expr.eq_to(center),
        };
        Formula::atom(constraint)
    }

    /// A random formula tree. With `witness` set, every atom holds at
    /// `point`, so the whole formula is satisfied by the witness regardless
    /// of shape (conjunctions and disjunctions of true parts stay true).
    pub fn formula(
        &mut self,
        ids: &[VarId],
        point: &[f64],
        witness: bool,
        depth: usize,
    ) -> Formula {
        if depth == 0 || self.rng.usize_below(3) == 0 {
            return self.atom(ids, point, witness);
        }
        let parts: Vec<Formula> = (0..2 + self.rng.usize_below(2))
            .map(|_| self.formula(ids, point, witness, depth - 1))
            .collect();
        if self.rng.usize_below(2) == 0 {
            Formula::and(parts)
        } else {
            Formula::or(parts)
        }
    }

    /// A random formula system. With `witness` set it is satisfiable **by
    /// construction** (every atom holds at a hidden witness point), making
    /// any `Unsat` verdict on it a soundness failure.
    pub fn formula_system(&mut self, witness: bool) -> (VarPool, Vec<Formula>) {
        let n = 2 + self.rng.usize_below(3);
        let mut pool = VarPool::new();
        let ids = pool.fresh_block("x", n);
        let point: Vec<f64> = (0..n).map(|_| self.rng.range(-3.0, 3.0)).collect();
        let m = 2 + self.rng.usize_below(5);
        let formulas = (0..m)
            .map(|_| self.formula(&ids, &point, witness, 2))
            .collect();
        (pool, formulas)
    }

    /// A *staircase-UNSAT* system: a chain `x_{i+1} ≤ x_i − d_i` of strictly
    /// descending steps whose total drop contradicts the closing demand
    /// `x_{n−1} ≥ x_0 − total + gap`, so the conjunction is unsatisfiable
    /// **by construction**. Random links are wrapped in disjunctions whose
    /// alternative branch implies an even steeper descent, so every Boolean
    /// branch preserves the contradiction and no search path escapes it.
    pub fn staircase_unsat_system(&mut self) -> (VarPool, Vec<Formula>) {
        let mut pool = VarPool::new();
        let formulas = self.staircase_unsat_into(&mut pool);
        (pool, formulas)
    }

    /// [`Gen::staircase_unsat_system`] over fresh variables appended to an
    /// existing pool — used to poison an otherwise-satisfiable system.
    pub fn staircase_unsat_into(&mut self, pool: &mut VarPool) -> Vec<Formula> {
        let n = 3 + self.rng.usize_below(4);
        let ids = pool.fresh_block("s", n);
        let mut formulas = Vec::new();
        let mut total_drop = 0.0;
        for i in 0..n - 1 {
            let drop = self.rng.range(0.2, 1.5);
            total_drop += drop;
            let step = (LinExpr::var(ids[i + 1]) - LinExpr::var(ids[i])).le(-drop);
            let link = if self.rng.usize_below(3) == 0 {
                // Either this step, or a strictly steeper one: both descend
                // by at least `drop`, so the staircase stays contradictory.
                let steeper = (LinExpr::var(ids[i + 1]) - LinExpr::var(ids[i])).le(-drop - 1.0);
                Formula::or(vec![Formula::atom(step), Formula::atom(steeper)])
            } else {
                Formula::atom(step)
            };
            formulas.push(link);
        }
        // The closing demand undercuts the guaranteed total descent.
        let gap = self.rng.range(0.01, 0.1);
        let closing = (LinExpr::var(ids[n - 1]) - LinExpr::var(ids[0])).ge(-total_drop + gap);
        formulas.push(Formula::atom(closing));
        formulas
    }

    /// A random raw constraint system (tagged conjunction, no Boolean
    /// structure) for simplex-level differential tests. With `witness` set
    /// the conjunction is feasible by construction.
    pub fn constraint_system(&mut self, witness: bool) -> (VarPool, Vec<(Constraint, Tag)>) {
        let n = 2 + self.rng.usize_below(4);
        let mut pool = VarPool::new();
        let ids: Vec<VarId> = pool.fresh_block("x", n);
        let point: Vec<f64> = (0..n).map(|_| self.rng.range(-3.0, 3.0)).collect();
        let m = 3 + self.rng.usize_below(12);
        let mut constraints = Vec::new();
        for tag in 0..m {
            let terms = 1 + self.rng.usize_below(3);
            let mut expr = LinExpr::zero();
            for _ in 0..terms {
                let v = self.rng.usize_below(n);
                expr.add_term(ids[v], self.rng.range(-2.0, 2.0));
            }
            let center = if witness {
                expr.evaluate(&point)
            } else {
                self.rng.range(-4.0, 4.0)
            };
            let slack = self.rng.range(0.0, 1.0);
            let constraint = match self.rng.usize_below(5) {
                0 => expr.le(center + slack),
                1 => expr.lt(center + slack + 0.001),
                2 => expr.ge(center - slack),
                3 => expr.gt(center - slack - 0.001),
                _ => expr.eq_to(center),
            };
            constraints.push((constraint, Tag::new(tag)));
        }
        (pool, constraints)
    }

    /// A simple single-variable bound atom `±x_i ⋈ c` (the property-test
    /// shape: verdicts have closed forms).
    pub fn bound_atom(&mut self, ids: &[VarId]) -> Formula {
        let var = self.rng.usize_below(ids.len());
        let bound = self.rng.range(-5.0, 5.0);
        let expr = LinExpr::var(ids[var]);
        let constraint = match (self.rng.bool(), self.rng.bool()) {
            (true, false) => expr.le(bound),
            (true, true) => expr.lt(bound),
            (false, false) => expr.ge(bound),
            (false, true) => expr.gt(bound),
        };
        Formula::atom(constraint)
    }

    /// A random conjunction/disjunction/negation tree over bound atoms, with
    /// the given remaining recursion depth.
    pub fn bound_formula(&mut self, ids: &[VarId], depth: usize) -> Formula {
        if depth == 0 {
            return self.bound_atom(ids);
        }
        match self.rng.usize_below(4) {
            0 => {
                let n = 1 + self.rng.usize_below(3);
                Formula::and((0..n).map(|_| self.bound_formula(ids, depth - 1)).collect())
            }
            1 => {
                let n = 1 + self.rng.usize_below(3);
                Formula::or((0..n).map(|_| self.bound_formula(ids, depth - 1)).collect())
            }
            2 => Formula::not(self.bound_formula(ids, depth - 1)),
            _ => self.bound_atom(ids),
        }
    }
}
