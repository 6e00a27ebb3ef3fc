use std::collections::HashMap;
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
/// block of [`Constraint`]s. Its terms are one vector sorted by variable, so
/// adding two expressions is one merge of their sorted runs. Coefficients of
/// magnitude at most `1e-12` are dropped on construction to keep expressions
/// canonical; a NaN coefficient fails that comparison and is kept, so
/// [`LinExpr::is_finite`] sees it.
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
    /// `(variable, coefficient)` pairs, strictly increasing in the variable;
    /// every coefficient passes [`kept`].
    terms: Vec<(VarId, f64)>,
    constant: f64,
}

/// Coefficients of at most this magnitude are treated as zero.
const COEFF_EPS: f64 = 1e-12;

/// Whether an expression stores the coefficient `c`: `false` exactly when
/// `|c| <= COEFF_EPS`, so a NaN is kept.
fn kept(c: f64) -> bool {
    !(c.abs() <= COEFF_EPS)
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        Self::default()
    }

    /// A constant expression.
    pub fn constant(value: f64) -> Self {
        Self {
            terms: Vec::new(),
            constant: value,
        }
    }

    /// The expression consisting of a single variable with coefficient one.
    pub fn var(var: VarId) -> Self {
        Self::term(var, 1.0)
    }

    /// The expression `coeff · var`.
    pub fn term(var: VarId, coeff: f64) -> Self {
        let terms = if kept(coeff) {
            vec![(var, coeff)]
        } else {
            Vec::new()
        };
        Self {
            terms,
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
        if !kept(coeff) {
            return;
        }
        match self.terms.binary_search_by_key(&var, |&(v, _)| v) {
            Ok(at) => {
                let sum = self.terms[at].1 + coeff;
                if kept(sum) {
                    self.terms[at].1 = sum;
                } else {
                    self.terms.remove(at);
                }
            }
            Err(at) => self.terms.insert(at, (var, coeff)),
        }
    }

    /// Adds a constant to the expression in place.
    pub fn add_constant(&mut self, value: f64) {
        self.constant += value;
    }

    /// Coefficient of `var` (zero if absent).
    pub fn coefficient(&self, var: VarId) -> f64 {
        self.terms
            .binary_search_by_key(&var, |&(v, _)| v)
            .map_or(0.0, |at| self.terms[at].1)
    }

    /// The constant term.
    pub fn constant_term(&self) -> f64 {
        self.constant
    }

    /// Iterator over `(variable, coefficient)` pairs with non-zero
    /// coefficient, in increasing variable order.
    pub fn terms(&self) -> impl Iterator<Item = (VarId, f64)> + '_ {
        self.terms.iter().copied()
    }

    /// Number of variables with non-zero coefficient.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Returns `true` when the expression contains no variables.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// `true` when both expressions have the same terms with bit-identical
    /// coefficients (the constant terms are ignored). This is the identity
    /// under which constraints share a tableau row ([`ExprIndex`]).
    fn same_terms(&self, other: &LinExpr) -> bool {
        self.terms.len() == other.terms.len()
            && self
                .terms
                .iter()
                .zip(&other.terms)
                .all(|(&(va, ca), &(vb, cb))| va == vb && ca.to_bits() == cb.to_bits())
    }

    /// Returns `true` when every coefficient and the constant term are
    /// finite. NaN and ±inf can enter through arithmetic on caller-supplied
    /// data (a NaN coefficient is never dropped as tiny); the solver uses
    /// this check to reject non-finite assertions at its API boundary
    /// instead of feeding them to the tableau.
    pub fn is_finite(&self) -> bool {
        self.constant.is_finite() && self.terms.iter().all(|(_, c)| c.is_finite())
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
                .terms
                .iter()
                .map(|&(v, c)| c * assignment[v.index()])
                .sum::<f64>()
    }

    /// Multiplies the expression by a scalar.
    pub fn scale(&self, factor: f64) -> LinExpr {
        self.clone() * factor
    }

    /// Adds `rhs` into `self.terms` by one merge of the two sorted runs,
    /// back to front inside `self.terms`'s buffer. A variable in both gets
    /// `self + rhs`, dropped unless [`kept`]; any other term is copied.
    fn merge_terms(&mut self, rhs: &[(VarId, f64)]) {
        let mut left = self.terms.len();
        let mut right = rhs.len();
        let mut write = left + right;
        self.terms.resize(write, (VarId(0), 0.0));
        let terms = &mut self.terms;
        // `write >= left + right` throughout, so a write never lands on a
        // left term not yet read.
        while right > 0 {
            let (rv, rc) = rhs[right - 1];
            let merged = match left.checked_sub(1).map(|at| terms[at]) {
                Some((lv, lc)) if lv > rv => {
                    left -= 1;
                    Some((lv, lc))
                }
                Some((lv, lc)) if lv == rv => {
                    left -= 1;
                    right -= 1;
                    let sum = lc + rc;
                    kept(sum).then_some((lv, sum))
                }
                _ => {
                    right -= 1;
                    Some((rv, rc))
                }
            };
            if let Some(term) = merged {
                write -= 1;
                terms[write] = term;
            }
        }
        // The first `left` terms are already in place; close the gap that
        // shared and dropped variables left before the merged run.
        terms.drain(left..write);
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
        for (v, c) in &self.terms {
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

    fn add(mut self, rhs: LinExpr) -> LinExpr {
        self.constant += rhs.constant;
        if self.terms.is_empty() {
            return LinExpr {
                terms: rhs.terms,
                constant: self.constant,
            };
        }
        self.merge_terms(&rhs.terms);
        self
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

    fn mul(mut self, rhs: f64) -> LinExpr {
        self.constant *= rhs;
        self.terms.retain_mut(|(_, c)| {
            *c *= rhs;
            kept(*c)
        });
        self
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;

    fn neg(self) -> LinExpr {
        self * -1.0
    }
}

/// End of an [`ExprIndex`] chain.
const NO_ENTRY: u32 = u32::MAX;

/// Which expression's tableau row each expression uses: the first one
/// recorded over the same terms (see [`LinExpr::same_terms`]). Both the CNF
/// builder and [`Simplex::check`](crate::simplex::Simplex::check) decide row
/// sharing here, so rows are numbered by first appearance either way.
///
/// The index stores hashes and ids only; the caller keeps the expressions
/// and lends them to each lookup.
#[derive(Debug, Clone, Default)]
pub(crate) struct ExprIndex {
    /// Newest entry per terms hash.
    heads: HashMap<u64, u32>,
    /// One entry per distinct expression, in recording order.
    entries: Vec<ExprEntry>,
}

#[derive(Debug, Clone, Copy)]
struct ExprEntry {
    /// The caller's id of the expression.
    id: u32,
    hash: u64,
    /// The next older entry with the same hash, or [`NO_ENTRY`].
    older: u32,
}

impl ExprIndex {
    /// The id of the first recorded expression over the same terms as
    /// `expr`. When there is none, `expr` is recorded under `id`, which
    /// must exceed every id recorded so far, and `id` is returned.
    /// `expr_of(j)` returns the expression recorded under id `j`.
    pub(crate) fn owner<'a>(
        &mut self,
        id: usize,
        expr: &LinExpr,
        expr_of: impl Fn(usize) -> &'a LinExpr,
    ) -> usize {
        let hash = expr
            .terms()
            .fold(0, |h, (v, c)| mix(mix(h, v.index() as u64), c.to_bits()));
        let head = self.heads.get(&hash).copied().unwrap_or(NO_ENTRY);
        let mut at = head;
        while at != NO_ENTRY {
            let entry = self.entries[at as usize];
            if expr_of(entry.id as usize).same_terms(expr) {
                return entry.id as usize;
            }
            at = entry.older;
        }
        debug_assert!(
            !matches!(self.entries.last(), Some(e) if e.id as usize >= id),
            "ids must increase"
        );
        self.heads.insert(hash, self.entries.len() as u32);
        self.entries.push(ExprEntry {
            id: id as u32,
            hash,
            older: head,
        });
        id
    }

    /// Forgets every expression recorded under an id of at least `id`, in
    /// time proportional to their number.
    pub(crate) fn forget_from(&mut self, id: usize) {
        while let Some(entry) = self.entries.last().copied() {
            if (entry.id as usize) < id {
                break;
            }
            self.entries.pop();
            debug_assert_eq!(
                self.heads.get(&entry.hash),
                Some(&(self.entries.len() as u32))
            );
            if entry.older == NO_ENTRY {
                self.heads.remove(&entry.hash);
            } else {
                self.heads.insert(entry.hash, entry.older);
            }
        }
    }
}

/// Folds one word into a hash (the FxHash step).
fn mix(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
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
    fn nan_coefficients_are_kept_by_every_constructor() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        let mut added = LinExpr::var(y);
        added.add_term(x, f64::NAN);
        for e in [
            LinExpr::term(x, f64::NAN),
            LinExpr::from_terms([(x, f64::NAN)], 0.0),
            added.clone(),
            LinExpr::var(x) * f64::NAN,
            LinExpr::var(y) + LinExpr::term(x, f64::NAN),
            LinExpr::term(x, f64::NAN) + added,
        ] {
            assert!(e.coefficient(x).is_nan(), "{e}");
            assert!(!e.is_finite(), "{e}");
        }
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

    #[test]
    fn expr_index_owners_are_first_appearances_by_exact_terms() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        let sum = LinExpr::var(x) + LinExpr::var(y);
        let exprs = [
            sum.clone(),
            LinExpr::var(x) - LinExpr::var(y),
            // Same terms, another constant: shares the row of `sum`.
            sum.clone() + LinExpr::constant(4.0),
            // 0.1 + 0.2 is not 0.3 bit for bit.
            LinExpr::term(x, 0.1 + 0.2) + LinExpr::var(y),
            LinExpr::term(x, 0.3) + LinExpr::var(y),
            LinExpr::var(x),
            LinExpr::var(x),
        ];
        let mut index = ExprIndex::default();
        let owners = |index: &mut ExprIndex, ids: std::ops::Range<usize>| -> Vec<usize> {
            ids.map(|i| index.owner(i, &exprs[i], |j| &exprs[j]))
                .collect()
        };
        assert_eq!(owners(&mut index, 0..7), vec![0, 1, 0, 3, 4, 5, 5]);
        // Forgetting ids 3.. leaves 0 and 1, and the rest is recorded anew.
        index.forget_from(3);
        assert_eq!(index.entries.len(), 2);
        assert_eq!(owners(&mut index, 3..7), vec![3, 4, 5, 5]);
        index.forget_from(0);
        assert!(index.heads.is_empty() && index.entries.is_empty());
    }
}
