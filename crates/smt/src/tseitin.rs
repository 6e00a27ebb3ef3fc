//! Tseitin conversion of [`Formula`]s into CNF over Boolean variables.
//!
//! Theory atoms (linear constraints) are deduplicated and each mapped to a
//! Boolean variable; auxiliary definition variables are introduced for
//! sub-formulas. Equality atoms are rewritten as a conjunction of the two
//! corresponding non-strict inequalities *before* encoding so that the
//! negation of every remaining theory literal is itself an atomic constraint —
//! a property the theory-solver integration relies on.

use std::collections::HashMap;

use crate::expr::ExprIndex;
use crate::sat::Lit;
use crate::{Constraint, Formula, RelOp};

/// [`CnfBuilder::var_atom`] entry of an auxiliary Boolean variable.
const NONE: u32 = u32::MAX;

/// Incremental CNF builder shared by all assertions of an
/// [`SmtSolver`](crate::SmtSolver).
#[derive(Debug, Default)]
pub struct CnfBuilder {
    /// Deduplicated theory atoms.
    atoms: Vec<Constraint>,
    /// Per-atom bookkeeping, parallel to `atoms`.
    atom_info: Vec<AtomInfo>,
    /// Atom of each Boolean variable ([`NONE`] for auxiliaries), indexed by
    /// variable.
    var_atom: Vec<u32>,
    /// Expression owners by atom index ([`CnfBuilder::expr_owner`]).
    exprs: ExprIndex,
    /// Atom per [`atom_key`]: two constraints are one atom exactly when
    /// their expressions share an owner and their relations and bounds are
    /// equal.
    atom_index: HashMap<AtomKey, u32>,
    /// SAT variable backing each free [`Formula::BoolVar`] identifier.
    free_bool_vars: HashMap<u32, usize>,
    /// The keys of `free_bool_vars` in insertion order.
    free_bool_ids: Vec<u32>,
    /// CNF clauses over Boolean variables.
    clauses: Vec<Vec<Lit>>,
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
}

/// Identity of an atom: its expression owner, relation and bound bits.
type AtomKey = (u32, RelOp, u64);

fn atom_key(expr_owner: u32, constraint: &Constraint) -> AtomKey {
    (expr_owner, constraint.op(), constraint.bound().to_bits())
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
    free_bools: usize,
    had_true_var: bool,
}

impl CnfBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The deduplicated theory atoms.
    pub fn atoms(&self) -> &[Constraint] {
        &self.atoms
    }

    /// Boolean variable representing atom `atom_idx`.
    ///
    /// # Panics
    ///
    /// Panics if `atom_idx` is out of range.
    pub fn atom_bool_var(&self, atom_idx: usize) -> usize {
        self.atom_info[atom_idx].bool_var as usize
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
        self.atom_info[atom_idx].expr_owner as usize
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

    /// The CNF clauses produced so far.
    pub fn clauses(&self) -> &[Vec<Lit>] {
        &self.clauses
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
    pub fn assert_formula(&mut self, formula: &Formula) {
        let root = self.encode_inner(formula);
        self.clauses.push(vec![root]);
    }

    /// Takes a snapshot of the builder state for a later
    /// [`CnfBuilder::release_to`].
    pub fn mark(&self) -> CnfMark {
        CnfMark {
            atoms: self.atoms.len(),
            clauses: self.clauses.len(),
            bool_vars: self.num_bool_vars,
            free_bools: self.free_bool_ids.len(),
            had_true_var: self.true_var.is_some(),
        }
    }

    /// Restores the builder to `mark`: every atom, clause and Boolean
    /// variable allocated since the mark is removed, together with its index
    /// entries. The work is proportional to what was added since the mark.
    /// Releasing a mark invalidates every mark taken after it.
    pub fn release_to(&mut self, mark: CnfMark) {
        debug_assert!(
            mark.atoms <= self.atoms.len()
                && mark.clauses <= self.clauses.len()
                && mark.bool_vars <= self.num_bool_vars
                && mark.free_bools <= self.free_bool_ids.len(),
            "release_to with a mark younger than the current state"
        );
        for (atom, info) in self.atoms[mark.atoms..]
            .iter()
            .zip(&self.atom_info[mark.atoms..])
        {
            self.atom_index.remove(&atom_key(info.expr_owner, atom));
        }
        self.exprs.forget_from(mark.atoms);
        self.atoms.truncate(mark.atoms);
        self.atom_info.truncate(mark.atoms);
        self.var_atom.truncate(mark.bool_vars);
        for id in self.free_bool_ids.drain(mark.free_bools..) {
            self.free_bool_vars.remove(&id);
        }
        self.clauses.truncate(mark.clauses);
        self.num_bool_vars = mark.bool_vars;
        // `true_var`, once allocated, never changes — so if it was absent at
        // the mark, any current one was allocated after it.
        if !mark.had_true_var {
            self.true_var = None;
        }
    }

    fn fresh_bool_var(&mut self) -> usize {
        let var = self.num_bool_vars;
        self.num_bool_vars += 1;
        self.var_atom.push(NONE);
        var
    }

    fn atom_var(&mut self, constraint: &Constraint) -> usize {
        let idx = self.atoms.len();
        let atoms = &self.atoms;
        let expr_owner = self
            .exprs
            .owner(idx, constraint.expr(), |j| atoms[j].expr()) as u32;
        let key = atom_key(expr_owner, constraint);
        if let Some(&atom) = self.atom_index.get(&key) {
            return self.atom_info[atom as usize].bool_var as usize;
        }
        let var = self.fresh_bool_var();
        self.var_atom[var] = idx as u32;
        self.atoms.push(constraint.clone());
        self.atom_info.push(AtomInfo {
            bool_var: var as u32,
            expr_owner,
        });
        self.atom_index.insert(key, idx as u32);
        var
    }

    fn true_lit(&mut self) -> Lit {
        let var = match self.true_var {
            Some(v) => v,
            None => {
                let v = self.fresh_bool_var();
                self.true_var = Some(v);
                self.clauses.push(vec![Lit::new(v, true)]);
                v
            }
        };
        Lit::new(var, true)
    }

    fn encode_inner(&mut self, formula: &Formula) -> Lit {
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
            Formula::Atom(c) => {
                if c.op() == RelOp::Eq {
                    // x = b  ⇝  (x <= b) ∧ (x >= b)
                    let le = Constraint::new(c.expr().clone(), RelOp::Le, c.bound());
                    let ge = Constraint::new(c.expr().clone(), RelOp::Ge, c.bound());
                    let conj = Formula::And(vec![Formula::Atom(le), Formula::Atom(ge)]);
                    self.encode_inner(&conj)
                } else {
                    Lit::new(self.atom_var(c), true)
                }
            }
            Formula::Not(inner) => self.encode_inner(inner).negated(),
            Formula::And(parts) => {
                let part_lits: Vec<Lit> = parts.iter().map(|p| self.encode_inner(p)).collect();
                let out = Lit::new(self.fresh_bool_var(), true);
                // out → pᵢ for every part, and (p₁ ∧ … ∧ pₙ) → out.
                let mut big = Vec::with_capacity(part_lits.len() + 1);
                for &p in &part_lits {
                    self.clauses.push(vec![out.negated(), p]);
                    big.push(p.negated());
                }
                big.push(out);
                self.clauses.push(big);
                out
            }
            Formula::Or(parts) => {
                let part_lits: Vec<Lit> = parts.iter().map(|p| self.encode_inner(p)).collect();
                let out = Lit::new(self.fresh_bool_var(), true);
                // pᵢ → out for every part, and out → (p₁ ∨ … ∨ pₙ).
                let mut big = Vec::with_capacity(part_lits.len() + 1);
                for &p in &part_lits {
                    self.clauses.push(vec![p.negated(), out]);
                    big.push(p);
                }
                big.push(out.negated());
                self.clauses.push(big);
                out
            }
        }
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
        for clause in builder.clauses() {
            solver.add_clause(clause.clone());
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
        builder.assert_formula(&f);
        assert_eq!(builder.num_atoms(), 2);
        assert!(builder.num_bool_vars() > builder.num_atoms());
        assert_eq!(builder.atoms()[0], a);
        assert_eq!(builder.atoms()[1], b);
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
        builder.assert_formula(&Formula::atom(sum.clone().le(1.0)));
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
        let encode_round = |builder: &mut CnfBuilder| {
            builder.assert_formula(&round);
            let owners: Vec<usize> = (0..builder.num_atoms())
                .map(|i| builder.expr_owner(i))
                .collect();
            (builder.num_atoms(), builder.num_bool_vars(), owners)
        };
        let first = encode_round(&mut builder);
        assert_eq!(first.0, 4, "repeated atoms are deduplicated");
        assert_eq!(first.2, vec![0, 0, 2, 3], "one row per distinct expression");
        builder.release_to(mark);
        assert_eq!(builder.num_atoms(), 1);
        assert_eq!(builder.expr_owner(0), 0);
        // The released atoms and rows are encoded afresh, identically.
        assert_eq!(encode_round(&mut builder), first);
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
        builder.assert_formula(&f);
        assert_eq!(builder.num_atoms(), 2);
        let ops: Vec<RelOp> = builder.atoms().iter().map(|a| a.op()).collect();
        assert!(ops.contains(&RelOp::Le));
        assert!(ops.contains(&RelOp::Ge));
    }

    #[test]
    fn conjunction_forces_both_atoms_true() {
        let (_, a, b) = atoms_for_test();
        let f = Formula::and(vec![Formula::atom(a), Formula::atom(b)]);
        let mut builder = CnfBuilder::new();
        builder.assert_formula(&f);
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
        builder.assert_formula(&f);
        assert!(propositional_sat(&builder).is_none());
    }

    #[test]
    fn disjunction_allows_either_atom() {
        let (_, a, b) = atoms_for_test();
        let f = Formula::or(vec![Formula::atom(a), Formula::atom(b)]);
        let mut builder = CnfBuilder::new();
        builder.assert_formula(&f);
        let model = propositional_sat(&builder).expect("satisfiable");
        let a_true = model[builder.atom_bool_var(0)] == Some(true);
        let b_true = model[builder.atom_bool_var(1)] == Some(true);
        assert!(a_true || b_true);
    }

    #[test]
    fn true_and_false_constants_encode_correctly() {
        let mut builder = CnfBuilder::new();
        builder.assert_formula(&Formula::True);
        assert!(propositional_sat(&builder).is_some());

        let mut builder = CnfBuilder::new();
        builder.assert_formula(&Formula::False);
        assert!(propositional_sat(&builder).is_none());
    }

    #[test]
    fn multiple_assertions_accumulate() {
        let (_, a, b) = atoms_for_test();
        let mut builder = CnfBuilder::new();
        builder.assert_formula(&Formula::atom(a));
        builder.assert_formula(&Formula::atom(b));
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
        builder.assert_formula(&f);
        builder.assert_formula(&Formula::atom(a));
        let model = propositional_sat(&builder).expect("satisfiable");
        assert_eq!(model[builder.atom_bool_var(1)], Some(true));
    }
}
