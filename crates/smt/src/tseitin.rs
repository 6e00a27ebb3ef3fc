//! Tseitin conversion of [`Formula`]s into CNF over Boolean variables.
//!
//! Theory atoms (linear constraints) are deduplicated and each mapped to a
//! Boolean variable; auxiliary definition variables are introduced for
//! sub-formulas. Equality atoms are rewritten as a conjunction of the two
//! corresponding non-strict inequalities *before* encoding so that the
//! negation of every remaining theory literal is itself an atomic constraint —
//! a property the theory-solver integration relies on.

use std::mem;
use std::ops::Range;

use crate::constraint::{negation_holds, relation_holds};
use crate::expr::{ExprIndex, FxHashMap};
use crate::sat::Lit;
use crate::{Constraint, Formula, LinExpr, RelOp};

/// [`CnfBuilder::var_atom`] entry of an auxiliary Boolean variable, and
/// [`CnfBuilder::lent`] entry of a leaf that lent no expression.
const NONE: u32 = u32::MAX;

/// Incremental CNF builder shared by all assertions of an
/// [`SmtSolver`](crate::SmtSolver).
#[derive(Debug, Default)]
pub struct CnfBuilder {
    /// Deduplicated theory atoms.
    atoms: Vec<AtomInfo>,
    /// Each atom's expression if the atom is its expression's owner
    /// ([`CnfBuilder::expr_owner`]), else an empty one: atoms over one
    /// expression keep only their owner's terms. An owner's expression is
    /// moved out of the encoded formula, not copied.
    exprs: Vec<LinExpr>,
    /// Atom of each Boolean variable ([`NONE`] for auxiliaries), indexed by
    /// variable.
    var_atom: Vec<u32>,
    /// Expression owners by atom index ([`CnfBuilder::expr_owner`]).
    expr_index: ExprIndex,
    /// Atom per [`AtomInfo::key`]: two constraints are one atom exactly when
    /// their expressions share an owner and their relations and bounds are
    /// equal.
    atom_index: FxHashMap<AtomKey, u32>,
    /// SAT variable backing each free [`Formula::BoolVar`] identifier.
    free_bool_vars: FxHashMap<u32, usize>,
    /// The keys of `free_bool_vars` in insertion order.
    free_bool_ids: Vec<u32>,
    /// The literals of every CNF clause, clause after clause.
    lits: Vec<Lit>,
    /// The end of each clause in `lits`.
    clause_ends: Vec<usize>,
    /// Part literals of the `And`/`Or` nodes being encoded, innermost last.
    parts: Vec<Lit>,
    /// One entry per atom leaf of the formulas lent by
    /// [`CnfBuilder::lend_formula`], in encoding order: the atom that holds
    /// the leaf's expression until [`CnfBuilder::release_to`] returns it, or
    /// [`NONE`].
    lent: Vec<u32>,
    /// Total number of Boolean variables allocated (atoms + auxiliaries).
    num_bool_vars: usize,
    /// Variable reserved for the constant `true`, allocated lazily.
    true_var: Option<usize>,
}

#[derive(Debug, Clone, Copy)]
struct AtomInfo {
    /// Boolean variable representing the atom.
    bool_var: u32,
    /// See [`CnfBuilder::expr_owner`].
    expr_owner: u32,
    op: RelOp,
    bound: f64,
}

/// Identity of an atom: its expression owner, relation and bound bits.
type AtomKey = (u32, RelOp, u64);

impl AtomInfo {
    fn key(&self) -> AtomKey {
        (self.expr_owner, self.op, self.bound.to_bits())
    }
}

/// Snapshot of a [`CnfBuilder`]'s state, taken by [`CnfBuilder::mark`] and
/// restored by [`CnfBuilder::release_to`] — how
/// [`SmtSolver::check_assuming`](crate::SmtSolver::check_assuming) retracts a
/// round's formulas. A mark records how many atoms, clauses, Boolean
/// variables and free Boolean identifiers existed when it was taken;
/// releasing to it removes everything allocated since, including the index
/// entries pointing at the removed objects (so a constraint first seen after
/// the mark is encoded afresh if it reappears later).
#[derive(Debug, Clone, Copy)]
pub struct CnfMark {
    pub(crate) atoms: usize,
    pub(crate) clauses: usize,
    pub(crate) bool_vars: usize,
    lits: usize,
    free_bools: usize,
    lent: usize,
    had_true_var: bool,
}

impl CnfBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The expression of atom `atom_idx`: its owner's
    /// ([`CnfBuilder::expr_owner`]), which has the same terms. Every stored
    /// expression has a zero constant term ([`Constraint::new`] folds it
    /// into the bound).
    ///
    /// # Panics
    ///
    /// Panics if `atom_idx` is out of range.
    pub(crate) fn atom_expr(&self, atom_idx: usize) -> &LinExpr {
        &self.exprs[self.expr_owner(atom_idx)]
    }

    /// The relation and bound of atom `atom_idx`.
    ///
    /// # Panics
    ///
    /// Panics if `atom_idx` is out of range.
    pub(crate) fn atom_relation(&self, atom_idx: usize) -> (RelOp, f64) {
        let info = &self.atoms[atom_idx];
        (info.op, info.bound)
    }

    /// Atom `atom_idx` as a constraint, negated when `positive` is `false`
    /// (an atom is never an equality, so its negation is one constraint).
    ///
    /// # Panics
    ///
    /// Panics if `atom_idx` is out of range.
    pub(crate) fn atom_constraint(&self, atom_idx: usize, positive: bool) -> Constraint {
        let (op, bound) = self.atom_relation(atom_idx);
        let op = if positive { op } else { op.negated() };
        Constraint::new(self.atom_expr(atom_idx).clone(), op, bound)
    }

    /// Whether atom `atom_idx` holds under `values`, or with `positive`
    /// `false` its negation, as [`Constraint::holds`] evaluates it.
    ///
    /// # Panics
    ///
    /// Panics if `atom_idx` is out of range or `values` is shorter than the
    /// largest variable index of the atom.
    pub(crate) fn atom_holds(&self, atom_idx: usize, positive: bool, values: &[f64]) -> bool {
        let value = self.atom_expr(atom_idx).evaluate(values);
        let (op, bound) = self.atom_relation(atom_idx);
        if positive {
            relation_holds(value, op, bound)
        } else {
            negation_holds(value, op, bound)
        }
    }

    /// Boolean variable representing atom `atom_idx`.
    ///
    /// # Panics
    ///
    /// Panics if `atom_idx` is out of range.
    pub fn atom_bool_var(&self, atom_idx: usize) -> usize {
        self.atoms[atom_idx].bool_var as usize
    }

    /// The atom whose tableau row atom `atom_idx` bounds: the first atom over
    /// the same terms (bit-exact coefficients, see [`ExprIndex`]), which may
    /// be `atom_idx` itself. Owners appear in atom order, so defining each
    /// owner's expression in atom order numbers the rows by first
    /// appearance. A single term `c·x` needs no row: the owner and every
    /// sharer bound `x` directly.
    ///
    /// # Panics
    ///
    /// Panics if `atom_idx` is out of range.
    pub(crate) fn expr_owner(&self, atom_idx: usize) -> usize {
        self.atoms[atom_idx].expr_owner as usize
    }

    /// The atom represented by Boolean variable `var`, if any (auxiliary
    /// Tseitin variables return `None`).
    ///
    /// # Panics
    ///
    /// Panics if `var` is not below [`CnfBuilder::num_bool_vars`].
    pub fn atom_of_var(&self, var: usize) -> Option<usize> {
        let atom = self.var_atom[var];
        (atom != NONE).then_some(atom as usize)
    }

    /// The CNF clauses `range` of those produced so far, in order.
    ///
    /// # Panics
    ///
    /// Panics if `range` ends past [`CnfBuilder::num_clauses`].
    pub fn clauses(&self, range: Range<usize>) -> impl Iterator<Item = &[Lit]> + '_ {
        let start = range
            .start
            .checked_sub(1)
            .map_or(0, |i| self.clause_ends[i]);
        self.clause_ends[range]
            .iter()
            .scan(start, move |from, &end| {
                let clause = &self.lits[*from..end];
                *from = end;
                Some(clause)
            })
    }

    /// Number of CNF clauses produced so far.
    pub fn num_clauses(&self) -> usize {
        self.clause_ends.len()
    }

    /// Total number of Boolean variables referenced by the clauses.
    pub fn num_bool_vars(&self) -> usize {
        self.num_bool_vars
    }

    /// Number of theory atoms.
    pub fn num_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// Encodes `formula` and asserts it (adds a unit clause for its root).
    /// The expressions of the atoms that own a row move into the builder.
    pub fn assert_formula(&mut self, mut formula: Formula) {
        let root = self.encode(&mut formula, false);
        self.push_clause(&[root]);
    }

    /// [`CnfBuilder::assert_formula`] on a lent formula: the expressions the
    /// builder keeps are taken out of `formula`'s atoms and stay with the
    /// builder until [`CnfBuilder::release_to`] returns them.
    pub fn lend_formula(&mut self, formula: &mut Formula) {
        let root = self.encode(formula, true);
        self.push_clause(&[root]);
    }

    /// Takes a snapshot of the builder state for a later
    /// [`CnfBuilder::release_to`].
    pub fn mark(&self) -> CnfMark {
        CnfMark {
            atoms: self.atoms.len(),
            clauses: self.clause_ends.len(),
            bool_vars: self.num_bool_vars,
            lits: self.lits.len(),
            free_bools: self.free_bool_ids.len(),
            lent: self.lent.len(),
            had_true_var: self.true_var.is_some(),
        }
    }

    /// Restores the builder to `mark`: every atom, clause and Boolean
    /// variable allocated since the mark is removed, together with its index
    /// entries. `lent` are the formulas lent since the mark, in lending
    /// order; their atoms get their expressions back. The work is
    /// proportional to what was added since the mark. Releasing a mark
    /// invalidates every mark taken after it.
    pub fn release_to(&mut self, mark: CnfMark, lent: &mut [Formula]) {
        debug_assert!(
            mark.atoms <= self.atoms.len()
                && mark.clauses <= self.clause_ends.len()
                && mark.bool_vars <= self.num_bool_vars
                && mark.free_bools <= self.free_bool_ids.len()
                && mark.lent <= self.lent.len(),
            "release_to with a mark younger than the current state"
        );
        let mut next = mark.lent;
        for formula in lent {
            self.return_exprs(formula, &mut next);
        }
        debug_assert_eq!(next, self.lent.len(), "every lent formula is returned");
        self.lent.truncate(mark.lent);
        for info in &self.atoms[mark.atoms..] {
            self.atom_index.remove(&info.key());
        }
        self.expr_index.forget_from(mark.atoms);
        self.atoms.truncate(mark.atoms);
        self.exprs.truncate(mark.atoms);
        self.var_atom.truncate(mark.bool_vars);
        for id in self.free_bool_ids.drain(mark.free_bools..) {
            self.free_bool_vars.remove(&id);
        }
        self.lits.truncate(mark.lits);
        self.clause_ends.truncate(mark.clauses);
        self.num_bool_vars = mark.bool_vars;
        // `true_var`, once allocated, never changes — so if it was absent at
        // the mark, any current one was allocated after it.
        if !mark.had_true_var {
            self.true_var = None;
        }
    }

    /// Gives `formula`'s atoms back the expressions [`CnfBuilder::lent`]
    /// records, walking its leaves in encoding order from entry `*next`.
    fn return_exprs(&mut self, formula: &mut Formula, next: &mut usize) {
        match formula {
            Formula::True | Formula::False | Formula::BoolVar(_) => {}
            Formula::Atom(c) => {
                let atom = self.lent[*next];
                *next += 1;
                if atom != NONE {
                    mem::swap(c.expr_mut(), &mut self.exprs[atom as usize]);
                }
            }
            Formula::Not(inner) => self.return_exprs(inner, next),
            Formula::And(parts) | Formula::Or(parts) => {
                for part in parts {
                    self.return_exprs(part, next);
                }
            }
        }
    }

    fn push_clause(&mut self, clause: &[Lit]) {
        self.lits.extend_from_slice(clause);
        self.clause_ends.push(self.lits.len());
    }

    fn fresh_bool_var(&mut self) -> usize {
        let var = self.num_bool_vars;
        self.num_bool_vars += 1;
        self.var_atom.push(NONE);
        var
    }

    /// The Boolean variable of `constraint`'s atom, allocating the atom if
    /// it is new, and the atom index when the new atom owns its expression,
    /// which is then moved out of `constraint`.
    fn atom_var(&mut self, constraint: &mut Constraint) -> (usize, Option<usize>) {
        let idx = self.atoms.len();
        let exprs = &self.exprs;
        let expr_owner = self.expr_index.owner(idx, constraint.expr(), |j| &exprs[j]) as u32;
        let info = AtomInfo {
            bool_var: 0,
            expr_owner,
            op: constraint.op(),
            bound: constraint.bound(),
        };
        if let Some(&atom) = self.atom_index.get(&info.key()) {
            return (self.atom_bool_var(atom as usize), None);
        }
        let var = self.fresh_bool_var();
        self.var_atom[var] = idx as u32;
        self.atom_index.insert(info.key(), idx as u32);
        self.atoms.push(AtomInfo {
            bool_var: var as u32,
            ..info
        });
        let owns = expr_owner as usize == idx;
        self.exprs.push(if owns {
            mem::take(constraint.expr_mut())
        } else {
            LinExpr::zero()
        });
        (var, owns.then_some(idx))
    }

    fn true_lit(&mut self) -> Lit {
        let var = match self.true_var {
            Some(v) => v,
            None => {
                let v = self.fresh_bool_var();
                self.true_var = Some(v);
                self.push_clause(&[Lit::new(v, true)]);
                v
            }
        };
        Lit::new(var, true)
    }

    /// The literal of `formula`'s root, after adding the clauses that
    /// define it. With `lend`, every atom leaf records in
    /// [`CnfBuilder::lent`] where its expression went.
    fn encode(&mut self, formula: &mut Formula, lend: bool) -> Lit {
        match formula {
            Formula::True => self.true_lit(),
            Formula::False => self.true_lit().negated(),
            Formula::BoolVar(id) => {
                let var = match self.free_bool_vars.get(id) {
                    Some(&var) => var,
                    None => {
                        let var = self.fresh_bool_var();
                        self.free_bool_vars.insert(*id, var);
                        self.free_bool_ids.push(*id);
                        var
                    }
                };
                Lit::new(var, true)
            }
            Formula::Atom(c) if c.op() == RelOp::Eq => {
                if lend {
                    self.lent.push(NONE);
                }
                // x = b  ⇝  (x <= b) ∧ (x >= b)
                let le = Constraint::new(c.expr().clone(), RelOp::Le, c.bound());
                let ge = Constraint::new(c.expr().clone(), RelOp::Ge, c.bound());
                let mut conj = Formula::And(vec![Formula::Atom(le), Formula::Atom(ge)]);
                self.encode(&mut conj, false)
            }
            Formula::Atom(c) => {
                let (var, owner) = self.atom_var(c);
                if lend {
                    self.lent.push(owner.map_or(NONE, |atom| atom as u32));
                }
                Lit::new(var, true)
            }
            Formula::Not(inner) => self.encode(inner, lend).negated(),
            Formula::And(parts) => self.gate(parts, lend, true),
            Formula::Or(parts) => self.gate(parts, lend, false),
        }
    }

    /// Encodes an `And` (`and`) or `Or` node over `parts`.
    fn gate(&mut self, parts: &mut [Formula], lend: bool, and: bool) -> Lit {
        let first = self.parts.len();
        for part in parts {
            let lit = self.encode(part, lend);
            self.parts.push(lit);
        }
        let out = Lit::new(self.fresh_bool_var(), true);
        // And: out → pᵢ for every part, and (p₁ ∧ … ∧ pₙ) → out.
        // Or: pᵢ → out for every part, and out → (p₁ ∨ … ∨ pₙ).
        for i in first..self.parts.len() {
            let p = self.parts[i];
            if and {
                self.push_clause(&[out.negated(), p]);
            } else {
                self.push_clause(&[p.negated(), out]);
            }
        }
        // The long clause: the part literals, closed by `out`'s.
        for i in first..self.parts.len() {
            let p = self.parts[i];
            self.lits.push(if and { p.negated() } else { p });
        }
        self.push_clause(&[if and { out } else { out.negated() }]);
        self.parts.truncate(first);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::SatSolver;
    use crate::{LinExpr, VarPool};

    fn atoms_for_test() -> (VarPool, Constraint, Constraint) {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        let a = LinExpr::var(x).le(1.0);
        let b = LinExpr::var(y).ge(0.0);
        (pool, a, b)
    }

    /// Solves the propositional abstraction, returning the assignment of every
    /// Boolean variable.
    fn propositional_sat(builder: &CnfBuilder) -> Option<Vec<Option<bool>>> {
        let mut solver = SatSolver::new(builder.num_bool_vars());
        for clause in builder.clauses(0..builder.num_clauses()) {
            solver.add_clause(clause);
        }
        if solver.solve() {
            Some(
                (0..builder.num_bool_vars())
                    .map(|v| solver.var_value(v))
                    .collect(),
            )
        } else {
            None
        }
    }

    #[test]
    fn atoms_are_deduplicated() {
        let (_, a, b) = atoms_for_test();
        let f = Formula::and(vec![
            Formula::atom(a.clone()),
            Formula::or(vec![Formula::atom(a.clone()), Formula::atom(b.clone())]),
        ]);
        let mut builder = CnfBuilder::new();
        builder.assert_formula(f);
        assert_eq!(builder.num_atoms(), 2);
        assert!(builder.num_bool_vars() > builder.num_atoms());
        assert_eq!(builder.atom_constraint(0, true), a);
        assert_eq!(builder.atom_constraint(1, true), b);
        let var_of_a = builder.atom_bool_var(0);
        assert_eq!(builder.atom_of_var(var_of_a), Some(0));
    }

    #[test]
    fn release_restores_the_atom_and_row_indexes() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        let sum = LinExpr::var(x) + LinExpr::var(y);
        let mut builder = CnfBuilder::new();
        builder.assert_formula(Formula::atom(sum.clone().le(1.0)));
        let mark = builder.mark();
        // A round: a second bound on the base row, an atom over a new row,
        // a repeat of the base atom and one of its own atoms.
        let round = Formula::and(vec![
            Formula::atom(sum.clone().ge(-1.0)),
            Formula::atom((LinExpr::var(x) - LinExpr::var(y)).le(0.5)),
            Formula::atom(sum.clone().le(1.0)),
            Formula::atom((LinExpr::var(y) - LinExpr::var(x)).ge(-0.5)),
            Formula::atom((LinExpr::var(x) - LinExpr::var(y)).le(0.5)),
        ]);
        let mut lent = [round.clone()];
        let encode_round = |builder: &mut CnfBuilder, lent: &mut Formula| {
            builder.lend_formula(lent);
            let owners: Vec<usize> = (0..builder.num_atoms())
                .map(|i| builder.expr_owner(i))
                .collect();
            let clauses: Vec<Vec<Lit>> = builder
                .clauses(0..builder.num_clauses())
                .map(<[Lit]>::to_vec)
                .collect();
            (
                builder.num_atoms(),
                builder.num_bool_vars(),
                owners,
                clauses,
            )
        };
        let first = encode_round(&mut builder, &mut lent[0]);
        assert_eq!(first.0, 4, "repeated atoms are deduplicated");
        assert_eq!(first.2, vec![0, 0, 2, 3], "one row per distinct expression");
        // The round's two new owners hold their expressions, taken from
        // the lent formula.
        assert_eq!(builder.atom_expr(3), &(LinExpr::var(y) - LinExpr::var(x)));
        assert_ne!(lent[0], round);
        builder.release_to(mark, &mut lent);
        assert_eq!(lent[0], round, "the lent expressions are returned");
        assert_eq!(builder.num_atoms(), 1);
        assert_eq!(builder.expr_owner(0), 0);
        // The released atoms and rows are encoded afresh, identically.
        assert_eq!(encode_round(&mut builder, &mut lent[0]), first);
        for atom in 0..builder.num_atoms() {
            assert_eq!(builder.atom_of_var(builder.atom_bool_var(atom)), Some(atom));
        }
    }

    #[test]
    fn equality_atom_is_split_into_two_inequalities() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let f = Formula::atom(LinExpr::var(x).eq_to(2.0));
        let mut builder = CnfBuilder::new();
        builder.assert_formula(f);
        assert_eq!(builder.num_atoms(), 2);
        let ops: Vec<RelOp> = (0..2).map(|i| builder.atom_relation(i).0).collect();
        assert!(ops.contains(&RelOp::Le));
        assert!(ops.contains(&RelOp::Ge));
    }

    #[test]
    fn conjunction_forces_both_atoms_true() {
        let (_, a, b) = atoms_for_test();
        let f = Formula::and(vec![Formula::atom(a), Formula::atom(b)]);
        let mut builder = CnfBuilder::new();
        builder.assert_formula(f);
        let model = propositional_sat(&builder).expect("satisfiable");
        assert_eq!(model[builder.atom_bool_var(0)], Some(true));
        assert_eq!(model[builder.atom_bool_var(1)], Some(true));
    }

    #[test]
    fn contradiction_is_propositionally_unsat() {
        let (_, a, _) = atoms_for_test();
        let f = Formula::and(vec![
            Formula::atom(a.clone()),
            Formula::not(Formula::atom(a)),
        ]);
        let mut builder = CnfBuilder::new();
        builder.assert_formula(f);
        assert!(propositional_sat(&builder).is_none());
    }

    #[test]
    fn disjunction_allows_either_atom() {
        let (_, a, b) = atoms_for_test();
        let f = Formula::or(vec![Formula::atom(a), Formula::atom(b)]);
        let mut builder = CnfBuilder::new();
        builder.assert_formula(f);
        let model = propositional_sat(&builder).expect("satisfiable");
        let a_true = model[builder.atom_bool_var(0)] == Some(true);
        let b_true = model[builder.atom_bool_var(1)] == Some(true);
        assert!(a_true || b_true);
    }

    #[test]
    fn true_and_false_constants_encode_correctly() {
        let mut builder = CnfBuilder::new();
        builder.assert_formula(Formula::True);
        assert!(propositional_sat(&builder).is_some());

        let mut builder = CnfBuilder::new();
        builder.assert_formula(Formula::False);
        assert!(propositional_sat(&builder).is_none());
    }

    #[test]
    fn multiple_assertions_accumulate() {
        let (_, a, b) = atoms_for_test();
        let mut builder = CnfBuilder::new();
        builder.assert_formula(Formula::atom(a));
        builder.assert_formula(Formula::atom(b));
        let model = propositional_sat(&builder).expect("satisfiable");
        assert_eq!(model[builder.atom_bool_var(0)], Some(true));
        assert_eq!(model[builder.atom_bool_var(1)], Some(true));
    }

    #[test]
    fn nested_negations_and_implications() {
        let (_, a, b) = atoms_for_test();
        // ¬(a ∧ ¬b) asserted together with a forces b.
        let f = Formula::not(Formula::and(vec![
            Formula::atom(a.clone()),
            Formula::not(Formula::atom(b.clone())),
        ]));
        let mut builder = CnfBuilder::new();
        builder.assert_formula(f);
        builder.assert_formula(Formula::atom(a));
        let model = propositional_sat(&builder).expect("satisfiable");
        assert_eq!(model[builder.atom_bool_var(1)], Some(true));
    }
}
