use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

use crate::{Constraint, RelOp};

/// Identifier of a real-valued SMT variable.
///
/// Variables are allocated by a [`VarPool`]; the numeric id indexes the
/// model produced by the solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// Raw index of the variable (dense, starting at zero).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Allocator and name registry for real-valued variables.
///
/// # Example
///
/// ```
/// use cps_smt::VarPool;
///
/// let mut pool = VarPool::new();
/// let a = pool.fresh("attack_0");
/// assert_eq!(pool.name(a), "attack_0");
/// assert_eq!(pool.len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VarPool {
    names: Vec<String>,
}

impl VarPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh variable with the given (purely informational) name.
    pub fn fresh(&mut self, name: impl Into<String>) -> VarId {
        let id = VarId(self.names.len() as u32);
        self.names.push(name.into());
        id
    }

    /// Allocates `count` fresh variables named `prefix_0 .. prefix_{count-1}`.
    pub fn fresh_block(&mut self, prefix: &str, count: usize) -> Vec<VarId> {
        (0..count)
            .map(|i| self.fresh(format!("{prefix}_{i}")))
            .collect()
    }

    /// Number of variables allocated so far.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` when no variable has been allocated.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Name of a variable.
    ///
    /// # Panics
    ///
    /// Panics if the variable does not belong to this pool.
    pub fn name(&self, var: VarId) -> &str {
        &self.names[var.index()]
    }

    /// Iterator over all allocated variables.
    pub fn iter(&self) -> impl Iterator<Item = VarId> + '_ {
        (0..self.names.len()).map(|i| VarId(i as u32))
    }
}

/// A linear expression `Σ cᵢ·xᵢ + constant` over real variables.
///
/// `LinExpr` supports the usual arithmetic operators and is the building
/// block of [`Constraint`]s. Coefficients with magnitude below `1e-12` are
/// dropped on construction to keep expressions canonical.
///
/// # Example
///
/// ```
/// use cps_smt::{LinExpr, VarPool};
///
/// let mut pool = VarPool::new();
/// let x = pool.fresh("x");
/// let y = pool.fresh("y");
/// let e = LinExpr::var(x) * 2.0 + LinExpr::var(y) - LinExpr::constant(1.0);
/// assert_eq!(e.coefficient(x), 2.0);
/// assert_eq!(e.constant_term(), -1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LinExpr {
    /// Map from variable to coefficient; zero coefficients are never stored.
    coeffs: BTreeMap<VarId, f64>,
    constant: f64,
}

/// Coefficients below this magnitude are treated as zero.
const COEFF_EPS: f64 = 1e-12;

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        Self::default()
    }

    /// A constant expression.
    pub fn constant(value: f64) -> Self {
        Self {
            coeffs: BTreeMap::new(),
            constant: value,
        }
    }

    /// The expression consisting of a single variable with coefficient one.
    pub fn var(var: VarId) -> Self {
        Self::term(var, 1.0)
    }

    /// The expression `coeff · var`.
    pub fn term(var: VarId, coeff: f64) -> Self {
        let mut coeffs = BTreeMap::new();
        if coeff.abs() > COEFF_EPS {
            coeffs.insert(var, coeff);
        }
        Self {
            coeffs,
            constant: 0.0,
        }
    }

    /// Builds an expression from `(variable, coefficient)` pairs plus a constant.
    pub fn from_terms(terms: impl IntoIterator<Item = (VarId, f64)>, constant: f64) -> Self {
        let mut expr = LinExpr::constant(constant);
        for (var, coeff) in terms {
            expr.add_term(var, coeff);
        }
        expr
    }

    /// Adds `coeff · var` to the expression in place.
    pub fn add_term(&mut self, var: VarId, coeff: f64) {
        if coeff.abs() <= COEFF_EPS {
            return;
        }
        let entry = self.coeffs.entry(var).or_insert(0.0);
        *entry += coeff;
        if entry.abs() <= COEFF_EPS {
            self.coeffs.remove(&var);
        }
    }

    /// Adds a constant to the expression in place.
    pub fn add_constant(&mut self, value: f64) {
        self.constant += value;
    }

    /// Coefficient of `var` (zero if absent).
    pub fn coefficient(&self, var: VarId) -> f64 {
        self.coeffs.get(&var).copied().unwrap_or(0.0)
    }

    /// The constant term.
    pub fn constant_term(&self) -> f64 {
        self.constant
    }

    /// Iterator over `(variable, coefficient)` pairs with non-zero coefficient.
    pub fn terms(&self) -> impl Iterator<Item = (VarId, f64)> + '_ {
        self.coeffs.iter().map(|(v, c)| (*v, *c))
    }

    /// Number of variables with non-zero coefficient.
    pub fn num_terms(&self) -> usize {
        self.coeffs.len()
    }

    /// Returns `true` when the expression contains no variables.
    pub fn is_constant(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Returns `true` when every coefficient and the constant term are
    /// finite. NaN and ±inf can enter through arithmetic on caller-supplied
    /// data (note that NaN slips past the tiny-coefficient drop, whose
    /// comparison it fails); the solver uses this check to reject non-finite
    /// assertions at its API boundary instead of feeding them to the tableau.
    pub fn is_finite(&self) -> bool {
        self.constant.is_finite() && self.coeffs.values().all(|c| c.is_finite())
    }

    /// Evaluates the expression under the given dense assignment
    /// (`assignment[i]` is the value of variable `i`).
    ///
    /// # Panics
    ///
    /// Panics if the assignment is shorter than the largest variable index
    /// used in the expression.
    pub fn evaluate(&self, assignment: &[f64]) -> f64 {
        self.constant
            + self
                .coeffs
                .iter()
                .map(|(v, c)| c * assignment[v.index()])
                .sum::<f64>()
    }

    /// Multiplies the expression by a scalar.
    pub fn scale(&self, factor: f64) -> LinExpr {
        let mut out = LinExpr::constant(self.constant * factor);
        for (v, c) in &self.coeffs {
            out.add_term(*v, c * factor);
        }
        out
    }

    /// Builds the constraint `self <= bound`.
    pub fn le(self, bound: f64) -> Constraint {
        Constraint::new(self, RelOp::Le, bound)
    }

    /// Builds the constraint `self < bound`.
    pub fn lt(self, bound: f64) -> Constraint {
        Constraint::new(self, RelOp::Lt, bound)
    }

    /// Builds the constraint `self >= bound`.
    pub fn ge(self, bound: f64) -> Constraint {
        Constraint::new(self, RelOp::Ge, bound)
    }

    /// Builds the constraint `self > bound`.
    pub fn gt(self, bound: f64) -> Constraint {
        Constraint::new(self, RelOp::Gt, bound)
    }

    /// Builds the constraint `self = bound`.
    pub fn eq_to(self, bound: f64) -> Constraint {
        Constraint::new(self, RelOp::Eq, bound)
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in &self.coeffs {
            if first {
                write!(f, "{c:.4}*{v}")?;
                first = false;
            } else if *c >= 0.0 {
                write!(f, " + {c:.4}*{v}")?;
            } else {
                write!(f, " - {:.4}*{v}", -c)?;
            }
        }
        if first {
            write!(f, "{:.4}", self.constant)?;
        } else if self.constant != 0.0 {
            if self.constant >= 0.0 {
                write!(f, " + {:.4}", self.constant)?;
            } else {
                write!(f, " - {:.4}", -self.constant)?;
            }
        }
        Ok(())
    }
}

impl Add for LinExpr {
    type Output = LinExpr;

    fn add(self, rhs: LinExpr) -> LinExpr {
        let mut out = self;
        out.constant += rhs.constant;
        for (v, c) in rhs.coeffs {
            out.add_term(v, c);
        }
        out
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;

    fn sub(self, rhs: LinExpr) -> LinExpr {
        self + rhs.neg()
    }
}

impl Mul<f64> for LinExpr {
    type Output = LinExpr;

    fn mul(self, rhs: f64) -> LinExpr {
        self.scale(rhs)
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;

    fn neg(self) -> LinExpr {
        self.scale(-1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_pool_allocates_sequentially() {
        let mut pool = VarPool::new();
        let a = pool.fresh("a");
        let b = pool.fresh("b");
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(pool.name(b), "b");
        assert_eq!(pool.len(), 2);
        assert!(!pool.is_empty());
        assert_eq!(pool.iter().count(), 2);
    }

    #[test]
    fn fresh_block_names_are_indexed() {
        let mut pool = VarPool::new();
        let block = pool.fresh_block("a", 3);
        assert_eq!(block.len(), 3);
        assert_eq!(pool.name(block[2]), "a_2");
    }

    #[test]
    fn expression_arithmetic_and_canonical_form() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        let e = LinExpr::var(x) * 2.0 + LinExpr::term(y, -1.0) + LinExpr::constant(3.0);
        assert_eq!(e.coefficient(x), 2.0);
        assert_eq!(e.coefficient(y), -1.0);
        assert_eq!(e.constant_term(), 3.0);
        assert_eq!(e.num_terms(), 2);

        // Cancelling a coefficient removes the term entirely.
        let cancelled = e.clone() + LinExpr::term(y, 1.0);
        assert_eq!(cancelled.coefficient(y), 0.0);
        assert_eq!(cancelled.num_terms(), 1);
    }

    #[test]
    fn evaluate_under_assignment() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        let e = LinExpr::var(x) * 3.0 - LinExpr::var(y) + LinExpr::constant(0.5);
        assert!((e.evaluate(&[2.0, 1.0]) - 5.5).abs() < 1e-12);
    }

    #[test]
    fn subtraction_and_negation() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let e = LinExpr::var(x) - LinExpr::var(x);
        assert!(e.is_constant());
        let n = -LinExpr::from_terms([(x, 2.0)], 1.0);
        assert_eq!(n.coefficient(x), -2.0);
        assert_eq!(n.constant_term(), -1.0);
    }

    #[test]
    fn tiny_coefficients_are_dropped() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let e = LinExpr::term(x, 1e-15);
        assert!(e.is_constant());
    }

    #[test]
    fn display_is_humane() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let e = LinExpr::var(x) * 2.0 + LinExpr::constant(-1.0);
        let s = format!("{e}");
        assert!(s.contains("2.0000*v0"));
        assert!(s.contains("- 1.0000"));
        assert_eq!(format!("{}", LinExpr::constant(4.0)), "4.0000");
    }
}
