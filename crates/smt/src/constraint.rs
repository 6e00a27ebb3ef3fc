use std::fmt;

use crate::LinExpr;

/// Relational operator of an atomic linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelOp {
    /// `expr <= bound`
    Le,
    /// `expr < bound`
    Lt,
    /// `expr >= bound`
    Ge,
    /// `expr > bound`
    Gt,
    /// `expr = bound`
    Eq,
}

impl RelOp {
    /// The operator describing the negation of a constraint with this operator.
    ///
    /// `Eq` has no atomic negation (it becomes a disjunction `< ∨ >`), which is
    /// handled at the formula level; this method therefore panics for `Eq`.
    ///
    /// # Panics
    ///
    /// Panics when called on [`RelOp::Eq`].
    pub fn negated(self) -> RelOp {
        match self {
            RelOp::Le => RelOp::Gt,
            RelOp::Lt => RelOp::Ge,
            RelOp::Ge => RelOp::Lt,
            RelOp::Gt => RelOp::Le,
            RelOp::Eq => panic!("negation of an equality is not an atomic constraint"),
        }
    }
}

impl fmt::Display for RelOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RelOp::Le => "<=",
            RelOp::Lt => "<",
            RelOp::Ge => ">=",
            RelOp::Gt => ">",
            RelOp::Eq => "=",
        };
        f.write_str(s)
    }
}

/// An atomic linear constraint `expr ⋈ bound` over real variables.
///
/// Constraints are produced from [`LinExpr`] via [`LinExpr::le`],
/// [`LinExpr::lt`], [`LinExpr::ge`], [`LinExpr::gt`] and [`LinExpr::eq_to`].
/// The constant part of the expression is folded into the bound so the stored
/// form is canonical (`expr` has a zero constant term).
///
/// # Example
///
/// ```
/// use cps_smt::{LinExpr, RelOp, VarPool};
///
/// let mut pool = VarPool::new();
/// let x = pool.fresh("x");
/// let c = (LinExpr::var(x) + LinExpr::constant(1.0)).le(3.0);
/// assert_eq!(c.op(), RelOp::Le);
/// assert_eq!(c.bound(), 2.0); // constant folded into the bound
/// assert!(c.holds(&[1.5]));
/// assert!(!c.holds(&[2.5]));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    expr: LinExpr,
    op: RelOp,
    bound: f64,
}

/// Slack used by [`Constraint::holds`] to absorb floating-point round-off.
const EVAL_EPS: f64 = 1e-9;

impl Constraint {
    /// Creates a constraint `expr ⋈ bound`, folding the expression's constant
    /// term into the bound.
    pub fn new(expr: LinExpr, op: RelOp, bound: f64) -> Self {
        let constant = expr.constant_term();
        let mut canonical = expr;
        canonical.add_constant(-constant);
        Self {
            expr: canonical,
            op,
            bound: bound - constant,
        }
    }

    /// The (constant-free) linear expression on the left-hand side.
    pub fn expr(&self) -> &LinExpr {
        &self.expr
    }

    /// The relational operator.
    pub fn op(&self) -> RelOp {
        self.op
    }

    /// The right-hand-side bound.
    pub fn bound(&self) -> f64 {
        self.bound
    }

    /// Returns `true` when the left-hand side and the bound are finite
    /// (see [`LinExpr::is_finite`]).
    pub fn is_finite(&self) -> bool {
        self.bound.is_finite() && self.expr.is_finite()
    }

    /// Returns the negation of this constraint as one or two atomic
    /// constraints (an equality negates to a disjunction of two strict
    /// inequalities).
    pub fn negate(&self) -> Vec<Constraint> {
        match self.op {
            RelOp::Eq => vec![
                Constraint {
                    expr: self.expr.clone(),
                    op: RelOp::Lt,
                    bound: self.bound,
                },
                Constraint {
                    expr: self.expr.clone(),
                    op: RelOp::Gt,
                    bound: self.bound,
                },
            ],
            op => vec![Constraint {
                expr: self.expr.clone(),
                op: op.negated(),
                bound: self.bound,
            }],
        }
    }

    /// Evaluates the constraint under a dense assignment.
    ///
    /// Non-strict comparisons and equalities are evaluated with a small
    /// tolerance to absorb floating-point round-off; strict comparisons are
    /// evaluated exactly so that a constraint and its negation never both hold
    /// at the boundary.
    ///
    /// # Panics
    ///
    /// Panics if the assignment is shorter than the largest variable index.
    pub fn holds(&self, assignment: &[f64]) -> bool {
        relation_holds(self.expr.evaluate(assignment), self.op, self.bound)
    }

    /// `true` when some constraint of [`Constraint::negate`] holds under the
    /// assignment, with the same comparisons as [`Constraint::holds`]; the
    /// expression is evaluated once and nothing is allocated.
    pub(crate) fn negation_holds(&self, assignment: &[f64]) -> bool {
        let value = self.expr.evaluate(assignment);
        match self.op {
            RelOp::Eq => {
                relation_holds(value, RelOp::Lt, self.bound)
                    || relation_holds(value, RelOp::Gt, self.bound)
            }
            op => relation_holds(value, op.negated(), self.bound),
        }
    }
}

/// `value ⋈ bound`, as [`Constraint::holds`] evaluates it.
fn relation_holds(value: f64, op: RelOp, bound: f64) -> bool {
    match op {
        RelOp::Le => value <= bound + EVAL_EPS,
        RelOp::Lt => value < bound,
        RelOp::Ge => value >= bound - EVAL_EPS,
        RelOp::Gt => value > bound,
        RelOp::Eq => (value - bound).abs() <= EVAL_EPS,
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {:.6}", self.expr, self.op, self.bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VarPool;

    #[test]
    fn constant_folding_into_bound() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let c = (LinExpr::var(x) + LinExpr::constant(2.5)).ge(1.0);
        assert_eq!(c.bound(), -1.5);
        assert_eq!(c.expr().constant_term(), 0.0);
    }

    #[test]
    fn negation_of_inequalities() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let le = LinExpr::var(x).le(2.0);
        let neg = le.negate();
        assert_eq!(neg.len(), 1);
        assert_eq!(neg[0].op(), RelOp::Gt);
        assert_eq!(neg[0].bound(), 2.0);

        let gt = LinExpr::var(x).gt(0.0);
        assert_eq!(gt.negate()[0].op(), RelOp::Le);
    }

    #[test]
    fn negation_of_equality_splits() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let eq = LinExpr::var(x).eq_to(1.0);
        let neg = eq.negate();
        assert_eq!(neg.len(), 2);
        assert_eq!(neg[0].op(), RelOp::Lt);
        assert_eq!(neg[1].op(), RelOp::Gt);
    }

    #[test]
    fn holds_evaluates_all_operators() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        assert!(LinExpr::var(x).le(1.0).holds(&[0.5]));
        assert!(!LinExpr::var(x).le(1.0).holds(&[1.5]));
        assert!(LinExpr::var(x).ge(1.0).holds(&[1.5]));
        assert!(LinExpr::var(x).lt(1.0).holds(&[0.5]));
        assert!(LinExpr::var(x).gt(1.0).holds(&[1.5]));
        assert!(LinExpr::var(x).eq_to(1.0).holds(&[1.0]));
        assert!(!LinExpr::var(x).eq_to(1.0).holds(&[1.1]));
    }

    #[test]
    fn negation_holds_matches_the_negated_constraints() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let bound = 1.0;
        let values = [
            bound - 1.0,
            bound - EVAL_EPS,
            bound - EVAL_EPS / 2.0,
            bound,
            bound + EVAL_EPS / 2.0,
            bound + EVAL_EPS,
            bound + 1.0,
            f64::NAN,
        ];
        for op in [RelOp::Le, RelOp::Lt, RelOp::Ge, RelOp::Gt, RelOp::Eq] {
            let c = Constraint::new(LinExpr::var(x), op, bound);
            for value in values {
                let expected = c.negate().iter().any(|n| n.holds(&[value]));
                assert_eq!(c.negation_holds(&[value]), expected, "{c} at {value}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "negation of an equality")]
    fn relop_eq_negation_panics() {
        let _ = RelOp::Eq.negated();
    }

    #[test]
    fn display_contains_operator() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let c = LinExpr::var(x).lt(0.5);
        assert!(format!("{c}").contains('<'));
    }
}
