use std::fmt;

use crate::Constraint;

/// A Boolean combination of atomic linear constraints.
///
/// `Formula` is the input language of [`SmtSolver`](crate::SmtSolver). It is a
/// plain tree; no sharing or hash-consing is attempted because the formulas
/// produced by unrolling a control loop for a few dozen steps stay small
/// (thousands of nodes).
///
/// # Example
///
/// ```
/// use cps_smt::{Formula, LinExpr, VarPool};
///
/// let mut pool = VarPool::new();
/// let x = pool.fresh("x");
/// let f = Formula::implies(
///     Formula::atom(LinExpr::var(x).ge(0.0)),
///     Formula::atom(LinExpr::var(x).le(10.0)),
/// );
/// assert!(f.holds(&[5.0]));
/// assert!(!f.holds(&[11.0]));
/// assert!(f.holds(&[-1.0])); // antecedent false
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Formula {
    /// The constant `true`.
    True,
    /// The constant `false`.
    False,
    /// An atomic linear constraint.
    Atom(Constraint),
    /// A free propositional variable (allocated from a [`BoolVarPool`]), used
    /// by auxiliary-variable encodings such as the sequential-counter
    /// dead-zone constraint. Purely Boolean: it carries no theory content.
    BoolVar(u32),
    /// Negation.
    Not(Box<Formula>),
    /// Conjunction of zero or more formulas (empty conjunction is `true`).
    And(Vec<Formula>),
    /// Disjunction of zero or more formulas (empty disjunction is `false`).
    Or(Vec<Formula>),
}

/// Allocator of free propositional variables for [`Formula::BoolVar`].
///
/// Use one pool per solver instance so identifiers never collide between
/// independently built sub-encodings.
///
/// # Example
///
/// ```
/// use cps_smt::{BoolVarPool, Formula};
///
/// let mut bools = BoolVarPool::new();
/// let a = bools.fresh();
/// let b = bools.fresh();
/// assert_ne!(a, b);
/// let f = Formula::or(vec![Formula::BoolVar(a), Formula::BoolVar(b)]);
/// assert_eq!(f.atom_count(), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BoolVarPool {
    next: u32,
}

impl BoolVarPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh propositional variable identifier.
    pub fn fresh(&mut self) -> u32 {
        let id = self.next;
        self.next += 1;
        id
    }

    /// Number of identifiers allocated so far.
    pub fn len(&self) -> usize {
        self.next as usize
    }

    /// Returns `true` when no identifier has been allocated.
    pub fn is_empty(&self) -> bool {
        self.next == 0
    }
}

impl Formula {
    /// Wraps an atomic constraint.
    pub fn atom(constraint: Constraint) -> Self {
        Formula::Atom(constraint)
    }

    /// Builds a conjunction, flattening nested conjunctions and dropping
    /// `true` conjuncts. A conjunct of `false` collapses the whole formula.
    pub fn and(parts: Vec<Formula>) -> Self {
        let mut flat = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                Formula::True => {}
                Formula::False => return Formula::False,
                Formula::And(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Formula::True,
            1 => flat.pop().expect("length checked"),
            _ => Formula::And(flat),
        }
    }

    /// Builds a disjunction, flattening nested disjunctions and dropping
    /// `false` disjuncts. A disjunct of `true` collapses the whole formula.
    pub fn or(parts: Vec<Formula>) -> Self {
        let mut flat = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                Formula::False => {}
                Formula::True => return Formula::True,
                Formula::Or(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Formula::False,
            1 => flat.pop().expect("length checked"),
            _ => Formula::Or(flat),
        }
    }

    /// Builds a negation, folding constants and double negations.
    pub fn not(formula: Formula) -> Self {
        match formula {
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            Formula::Not(inner) => *inner,
            other => Formula::Not(Box::new(other)),
        }
    }

    /// Builds the implication `antecedent → consequent`.
    pub fn implies(antecedent: Formula, consequent: Formula) -> Self {
        Formula::or(vec![Formula::not(antecedent), consequent])
    }

    /// Number of atomic constraints in the formula (with multiplicity).
    /// [`Formula::BoolVar`]s carry no theory atom and count zero.
    pub fn atom_count(&self) -> usize {
        match self {
            Formula::True | Formula::False | Formula::BoolVar(_) => 0,
            Formula::Atom(_) => 1,
            Formula::Not(inner) => inner.atom_count(),
            Formula::And(parts) | Formula::Or(parts) => parts.iter().map(Formula::atom_count).sum(),
        }
    }

    /// Evaluates the formula under a dense real-valued assignment.
    ///
    /// # Panics
    ///
    /// Panics if the assignment is shorter than the largest variable index
    /// used by any atom, or if the formula contains a [`Formula::BoolVar`]
    /// (free propositional variables have no value under a real assignment —
    /// decide such formulas with [`SmtSolver`](crate::SmtSolver) instead).
    pub fn holds(&self, assignment: &[f64]) -> bool {
        match self {
            Formula::True => true,
            Formula::False => false,
            Formula::Atom(c) => c.holds(assignment),
            Formula::BoolVar(id) => {
                panic!("free propositional variable b{id} has no value under a real assignment")
            }
            Formula::Not(inner) => !inner.holds(assignment),
            Formula::And(parts) => parts.iter().all(|p| p.holds(assignment)),
            Formula::Or(parts) => parts.iter().any(|p| p.holds(assignment)),
        }
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::True => write!(f, "true"),
            Formula::False => write!(f, "false"),
            Formula::Atom(c) => write!(f, "({c})"),
            Formula::BoolVar(id) => write!(f, "b{id}"),
            Formula::Not(inner) => write!(f, "¬{inner}"),
            Formula::And(parts) => {
                write!(f, "(")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∧ ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Formula::Or(parts) => {
                write!(f, "(")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∨ ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinExpr, VarPool};

    fn xy() -> (VarPool, crate::VarId, crate::VarId) {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        (pool, x, y)
    }

    #[test]
    fn and_or_flattening_and_constant_folding() {
        let (_, x, _) = xy();
        let a = Formula::atom(LinExpr::var(x).le(1.0));
        assert_eq!(Formula::and(vec![]), Formula::True);
        assert_eq!(Formula::or(vec![]), Formula::False);
        assert_eq!(Formula::and(vec![Formula::True, a.clone()]), a);
        assert_eq!(Formula::or(vec![Formula::False, a.clone()]), a);
        assert_eq!(
            Formula::and(vec![Formula::False, a.clone()]),
            Formula::False
        );
        assert_eq!(Formula::or(vec![Formula::True, a.clone()]), Formula::True);

        let nested = Formula::and(vec![Formula::and(vec![a.clone(), a.clone()]), a.clone()]);
        match nested {
            Formula::And(parts) => assert_eq!(parts.len(), 3),
            other => panic!("expected flattened conjunction, got {other}"),
        }
    }

    #[test]
    fn not_folds_double_negation() {
        let (_, x, _) = xy();
        let a = Formula::atom(LinExpr::var(x).le(1.0));
        assert_eq!(Formula::not(Formula::not(a.clone())), a);
        assert_eq!(Formula::not(Formula::True), Formula::False);
        assert_eq!(Formula::not(Formula::False), Formula::True);
    }

    #[test]
    fn implication_and_iff_semantics() {
        let (_, x, y) = xy();
        let antecedent = Formula::atom(LinExpr::var(x).ge(0.0));
        let consequent = Formula::atom(LinExpr::var(y).ge(0.0));
        let imp = Formula::implies(antecedent.clone(), consequent.clone());
        assert!(imp.holds(&[1.0, 1.0]));
        assert!(imp.holds(&[-1.0, -5.0]));
        assert!(!imp.holds(&[1.0, -1.0]));

        let iff = Formula::and(vec![imp, Formula::implies(consequent, antecedent)]);
        assert!(iff.holds(&[1.0, 1.0]));
        assert!(iff.holds(&[-1.0, -1.0]));
        assert!(!iff.holds(&[-1.0, 1.0]));
    }

    #[test]
    fn atom_count_counts_with_multiplicity() {
        let (_, x, y) = xy();
        let f = Formula::and(vec![
            Formula::atom(LinExpr::var(x).le(1.0)),
            Formula::or(vec![
                Formula::atom(LinExpr::var(y).ge(0.0)),
                Formula::not(Formula::atom(LinExpr::var(x).gt(2.0))),
            ]),
        ]);
        assert_eq!(f.atom_count(), 3);
    }

    #[test]
    fn holds_evaluates_nested_structure() {
        let (_, x, y) = xy();
        let f = Formula::or(vec![
            Formula::and(vec![
                Formula::atom(LinExpr::var(x).ge(1.0)),
                Formula::atom(LinExpr::var(y).le(0.0)),
            ]),
            Formula::atom(LinExpr::var(y).ge(10.0)),
        ]);
        assert!(f.holds(&[1.5, -1.0]));
        assert!(f.holds(&[0.0, 12.0]));
        assert!(!f.holds(&[0.0, 5.0]));
    }

    #[test]
    fn display_renders_connectives() {
        let (_, x, _) = xy();
        let f = Formula::and(vec![
            Formula::atom(LinExpr::var(x).le(1.0)),
            Formula::not(Formula::atom(LinExpr::var(x).ge(5.0))),
        ]);
        let s = format!("{f}");
        assert!(s.contains('∧'));
        assert!(s.contains('¬'));
    }
}
