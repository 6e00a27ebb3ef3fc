//! General simplex theory solver for conjunctions of linear constraints.
//!
//! This module implements the *general simplex* algorithm of Dutertre and
//! de Moura ("A Fast Linear-Arithmetic Solver for DPLL(T)", CAV 2006) in its
//! **incremental** form: a [`Simplex`] instance owns a persistent tableau
//! whose rows are built once per constraint expression
//! ([`Simplex::define`]) and never rebuilt. Asserting a constraint only
//! installs a variable bound ([`Simplex::assert_bound`]); retracting is a
//! constant-time pop of a bound trail ([`Simplex::mark`] /
//! [`Simplex::pop_to`]) that leaves the basis and the current assignment in
//! place — exactly the backtracking discipline the lazy DPLL(T) loop in
//! [`SmtSolver`](crate::SmtSolver) needs to stay in lock-step with the SAT
//! trail.
//!
//! # Modules and index types
//!
//! One file per concern: the dense tableau, the basis it encodes and the
//! pivot kernel (`tableau`); variable bounds and their retraction trail
//! (`bounds`); theory propagation with the implication graph (`propagation`);
//! and the repair loop (`solve`). Each index space has its own type —
//! tableau variables ([`Var`]), rows, slots, explanation tags ([`Tag`]) and
//! implication-graph nodes — and a vector indexed by one of them accepts no
//! other, so index conversions happen only inside the index types. Every
//! operation on a bound is written once over a [`Side`].
//!
//! # Dense slot layout
//!
//! Every slack starts basic and every problem variable nonbasic, and a pivot
//! swaps one of each, so exactly as many variables as there are problem
//! variables are nonbasic at any time. The tableau is therefore one flat
//! row-major `Vec<f64>` with one coefficient per nonbasic *slot*: a pivot
//! hands the entering variable's slot to the leaving one, a column is one
//! slot scanned across the rows, and eliminating the entering variable from
//! a row is a branch-free axpy with the rewritten pivot row. A slot list
//! kept sorted by variable index reads any row in variable order (the order
//! Bland's rule and the row sums of bound propagation depend on), and an
//! exact zero (of either sign) is an absent entry.
//!
//! The two dense loops of a pivot, the pivot-row rewrite and the
//! substitution, form one kernel compiled twice: for the baseline target,
//! and with AVX2 enabled, which runs for tableaux of at least 16 columns on
//! a CPU that has it (detected at run time). Every entry's result depends
//! only on its own operands, through IEEE-754 operations that each vector
//! lane applies as scalar code does, so both instances store the same bits
//! and make the same pivots.
//!
//! The layout fits the encodings this workspace produces: an unrolled
//! closed-loop expression at instant `k` mentions the attack variable of
//! every earlier instant, so the rows are lower-triangular over the problem
//! variables. The paper's T=50 VSC query builds a tableau of 246 rows over
//! 100 nonbasic columns that is 51 % dense before the first pivot and up to
//! 84 % dense after pivoting, so sorted-merge sparse rows would spend their
//! index bookkeeping on entries that are almost all present.
//!
//! Strict inequalities are handled with symbolic infinitesimals ([`Delta`]),
//! and infeasibility produces an *explanation* — the tags of the asserted
//! constraints participating in the conflicting bound configuration — which
//! becomes a learned clause in the DPLL(T) loop.
//!
//! [`Simplex::check`] is a thin one-shot wrapper (build + assert + solve)
//! for a single feasibility query.

mod bounds;
mod index;
mod propagation;
mod solve;
mod tableau;

use std::cmp::Ordering;

pub(crate) use bounds::relation_bound;
pub use bounds::Side;
pub use index::{Tag, Var};
pub use propagation::ImpliedBound;
pub(crate) use solve::TinyPivots;

use crate::expr::ExprIndex;
use crate::Constraint;
use bounds::{Bound, TrailEntry};
use index::{IndexVec, Row, Slot};
use propagation::ImplicationGraph;
use tableau::Tableau;

/// Comparison tolerance on the real part of a [`Delta`] value.
const REAL_EPS: f64 = 1e-11;

/// Entries of capacity per tableau variable that the bound trail and the
/// propagation worklist keep across [`Simplex::restore_from`]. A warm
/// search grows both past one entry per variable; this much spares it the
/// reallocations every round, and a large query's high-water mark is still
/// released.
const IDLE_CAPACITY_PER_VAR: usize = 8;

/// A value of the form `real + delta·ε` where `ε` is an arbitrarily small
/// positive infinitesimal, used to represent strict bounds exactly. The
/// default is zero.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Delta {
    /// Real part.
    pub real: f64,
    /// Coefficient of the infinitesimal ε.
    pub delta: f64,
}

impl Delta {
    /// A purely real value.
    #[inline]
    pub fn real(value: f64) -> Self {
        Self::with_delta(value, 0.0)
    }

    /// A value with an explicit infinitesimal component.
    #[inline]
    pub fn with_delta(real: f64, delta: f64) -> Self {
        Self { real, delta }
    }

    /// Addition.
    #[inline]
    pub fn add(self, other: Delta) -> Delta {
        Delta {
            real: self.real + other.real,
            delta: self.delta + other.delta,
        }
    }

    /// Subtraction.
    #[inline]
    pub fn sub(self, other: Delta) -> Delta {
        Delta {
            real: self.real - other.real,
            delta: self.delta - other.delta,
        }
    }

    /// Multiplication by a real scalar.
    #[inline]
    pub fn scale(self, factor: f64) -> Delta {
        Delta {
            real: self.real * factor,
            delta: self.delta * factor,
        }
    }

    /// Lexicographic comparison (real part first, then infinitesimal part),
    /// with a small tolerance on the real part.
    #[inline]
    pub fn cmp_delta(&self, other: &Delta) -> Ordering {
        if (self.real - other.real).abs() <= REAL_EPS {
            if (self.delta - other.delta).abs() <= REAL_EPS {
                Ordering::Equal
            } else if self.delta < other.delta {
                Ordering::Less
            } else {
                Ordering::Greater
            }
        } else if self.real < other.real {
            Ordering::Less
        } else {
            Ordering::Greater
        }
    }

    /// Concretises the value by substituting `epsilon` for ε.
    pub fn concretize(&self, epsilon: f64) -> f64 {
        self.real + self.delta * epsilon
    }
}

/// Result of a feasibility check.
#[derive(Debug, Clone, PartialEq)]
pub enum SimplexResult {
    /// The conjunction is satisfiable; the payload is a satisfying assignment
    /// for the *original* problem variables (concretised to `f64`).
    Feasible(Vec<f64>),
    /// The conjunction is unsatisfiable; the payload lists the tags of the
    /// constraints forming the conflicting configuration, ascending and
    /// duplicate-free (the [explanation contract](Simplex#explanations)).
    Infeasible(Vec<Tag>),
}

impl SimplexResult {
    /// Returns `true` for [`SimplexResult::Feasible`].
    pub fn is_feasible(&self) -> bool {
        matches!(self, SimplexResult::Feasible(_))
    }
}

/// Incremental feasibility engine for conjunctions of linear constraints.
///
/// # One-shot example
///
/// ```
/// use cps_smt::simplex::{Simplex, Tag};
/// use cps_smt::{LinExpr, VarPool};
///
/// let mut pool = VarPool::new();
/// let x = pool.fresh("x");
/// let y = pool.fresh("y");
/// let constraints = vec![
///     ((LinExpr::var(x) + LinExpr::var(y)).le(2.0), Tag::new(0)),
///     (LinExpr::var(x).ge(1.5), Tag::new(1)),
///     (LinExpr::var(y).ge(1.0), Tag::new(2)),
/// ];
/// let result = Simplex::check(pool.len(), &constraints);
/// assert!(!result.is_feasible()); // 1.5 + 1.0 > 2
/// ```
///
/// # Incremental example
///
/// ```
/// use cps_smt::simplex::{Simplex, Tag};
/// use cps_smt::{LinExpr, RelOp, VarPool};
///
/// let mut pool = VarPool::new();
/// let x = pool.fresh("x");
/// let y = pool.fresh("y");
/// let mut simplex = Simplex::new(pool.len());
/// // One row for x + y, bounded as often as needed.
/// let (sum, scale) = simplex.define(&(LinExpr::var(x) + LinExpr::var(y)));
/// simplex.assert_bound(sum, scale, RelOp::Ge, 1.0, Tag::new(0)).unwrap();
/// assert!(simplex.solve().is_ok());
/// let mark = simplex.mark();
/// simplex.assert_bound(sum, scale, RelOp::Le, 0.5, Tag::new(1)).unwrap_err();
/// simplex.pop_to(mark); // retract, x + y >= 1 alone is feasible again
/// assert!(simplex.solve().is_ok());
/// ```
///
/// # Explanations
///
/// An explanation lists the tags of the asserted constraints behind a
/// conflict or a derived bound, in ascending order and without duplicates.
/// That holds for every error of [`Simplex::assert_bound`],
/// [`Simplex::solve`] and [`Simplex::propagate_bounds`], for
/// [`SimplexResult::Infeasible`] and for [`Simplex::explanation`]. The
/// DPLL(T) loop builds clause literals from the tags in that order, so the
/// order is part of a bit-identical search, not only the set.
///
/// A derived bound records only the reasons of the bounds it was computed
/// from; its explanation is flattened from them when it is first read, and
/// is readable until the bound is retracted.
///
/// The default engine has no problem variable.
#[derive(Debug, Default)]
pub struct Simplex {
    /// The coefficients of the basic variables over the nonbasic slots.
    tableau: Tableau,
    row_owner: IndexVec<Row, Var>,
    /// `basic_row[v] = Some(r)` iff variable `v` is basic and owns row `r`.
    basic_row: IndexVec<Var, Option<Row>>,
    /// Tableau slot of each nonbasic variable (`None` when basic).
    slot_of: IndexVec<Var, Option<Slot>>,
    /// The nonbasic variable occupying each slot.
    slot_var: IndexVec<Slot, Var>,
    /// All slots, sorted by the index of the variable occupying them.
    slot_order: Vec<Slot>,
    /// Scratch buffers reused across pivots and propagation calls: one
    /// column as `(row, coefficient)` pairs, the rewritten pivot row, one
    /// row as `(variable, coefficient)` terms, and a propagation wave's
    /// rows, the rows marked for it (all `false` between calls) and the
    /// slots it scans ([`Simplex::wave_rows`]).
    col_buf: Vec<(Row, f64)>,
    pivot_buf: Vec<f64>,
    terms_buf: Vec<(Var, f64)>,
    wave_buf: Vec<Row>,
    row_marks: IndexVec<Row, bool>,
    slot_buf: Vec<Slot>,
    /// The implication graph of the installed derived bounds, which every
    /// explanation is flattened through.
    graph: ImplicationGraph,
    /// Each variable's lower and upper bound, indexed by [`Side`].
    bounds: IndexVec<Var, [Option<Bound>; 2]>,
    /// One value per tableau variable: problem variables first, then the
    /// slacks, so its length is the number of tableau variables.
    assignment: IndexVec<Var, Delta>,
    /// Retraction trail of bound updates ([`Simplex::mark`] /
    /// [`Simplex::pop_to`]).
    trail: Vec<TrailEntry>,
    /// Total pivots performed over the instance's lifetime.
    pivots: u64,
    /// Total leaving-row selections ([`Simplex::select_leaving`]) over the
    /// instance's lifetime.
    queue_pops: u64,
    /// Variables whose bounds tightened since the last
    /// [`Simplex::propagate_bounds`] call — the propagation worklist.
    /// Propagation drains it in breadth-first waves, so installs made while
    /// processing one wave form the next (deeper) wave. Every restore from
    /// an image empties it, so a solver that never propagates only holds
    /// the bounds of its current check there.
    dirty: Vec<Var>,
}

impl Simplex {
    /// Creates an empty engine over `num_problem_vars` problem variables with
    /// no bounds asserted.
    pub fn new(num_problem_vars: usize) -> Self {
        let n = num_problem_vars;
        let slots = || (0..n).map(Slot::new);
        Simplex {
            tableau: Tableau {
                width: n,
                coeffs: Vec::new(),
            },
            basic_row: vec![None; n].into(),
            slot_of: slots().map(Some).collect::<Vec<_>>().into(),
            slot_var: (0..n).map(Var::new).collect::<Vec<_>>().into(),
            slot_order: slots().collect(),
            bounds: vec![[None, None]; n].into(),
            assignment: vec![Delta::real(0.0); n].into(),
            ..Simplex::default()
        }
    }

    /// Checks satisfiability of the conjunction of `constraints` over
    /// `num_problem_vars` problem variables. Each constraint carries an opaque
    /// `tag` that is echoed back in infeasibility explanations.
    ///
    /// One-shot convenience wrapper over the incremental engine. Constraints
    /// over the same terms (bit-exact coefficients) share one tableau row,
    /// defined where the first of them appears.
    pub fn check(num_problem_vars: usize, constraints: &[(Constraint, Tag)]) -> SimplexResult {
        let mut simplex = Simplex::new(num_problem_vars);
        if let Err(explanation) = simplex.assert_all(constraints) {
            return SimplexResult::Infeasible(explanation);
        }
        match simplex.solve() {
            Err(explanation) => SimplexResult::Infeasible(explanation),
            Ok(()) => SimplexResult::Feasible(simplex.concrete_assignment()),
        }
    }

    /// Asserts `constraints` in order, defining one row per distinct
    /// expression: a constraint over the same terms as an earlier one
    /// ([`ExprIndex`], the rule the CNF builder shares rows by) bounds that
    /// constraint's row.
    fn assert_all(&mut self, constraints: &[(Constraint, Tag)]) -> Result<(), Vec<Tag>> {
        let mut exprs = ExprIndex::default();
        let mut defined: Vec<(Var, f64)> = Vec::with_capacity(constraints.len());
        for (i, (constraint, tag)) in constraints.iter().enumerate() {
            let owner = exprs.owner(i, constraint.expr(), |j| constraints[j].0.expr());
            let var = if owner == i {
                self.define(constraint.expr())
            } else {
                defined[owner]
            };
            defined.push(var);
            self.assert_bound(var.0, var.1, constraint.op(), constraint.bound(), *tag)?;
        }
        Ok(())
    }

    /// Restores this engine to `image`'s state, reusing this engine's
    /// allocations: a restore between equally sized states allocates
    /// nothing. Scratch buffers keep their contents (every use clears them
    /// first).
    ///
    /// The implication graph keeps at most one entry of capacity per
    /// tableau variable, and the bound trail and the propagation worklist at
    /// most [`IDLE_CAPACITY_PER_VAR`] entries: a large query grows them far
    /// past that, and an idle engine should not hold its high-water mark.
    pub(crate) fn restore_from(&mut self, image: &Simplex) {
        // Exhaustive: a field added later must be restored or listed here.
        let Simplex {
            tableau,
            row_owner,
            basic_row,
            slot_of,
            slot_var,
            slot_order,
            col_buf: _,
            pivot_buf: _,
            terms_buf: _,
            wave_buf: _,
            row_marks: _,
            slot_buf: _,
            graph,
            bounds,
            assignment,
            trail,
            pivots,
            queue_pops,
            dirty,
        } = image;
        self.tableau.width = tableau.width;
        self.tableau.coeffs.clone_from(&tableau.coeffs);
        self.row_owner.clone_from(row_owner);
        self.basic_row.clone_from(basic_row);
        self.slot_of.clone_from(slot_of);
        self.slot_var.clone_from(slot_var);
        self.slot_order.clone_from(slot_order);
        self.bounds.clone_from(bounds);
        self.assignment.clone_from(assignment);
        self.trail.clone_from(trail);
        let num_vars = assignment.len();
        self.graph.restore_from(graph, num_vars);
        self.pivots = *pivots;
        self.queue_pops = *queue_pops;
        self.dirty.clone_from(dirty);
        self.trail.shrink_to(IDLE_CAPACITY_PER_VAR * num_vars);
        self.dirty.shrink_to(IDLE_CAPACITY_PER_VAR * num_vars);
    }

    /// Total pivots performed since construction.
    pub fn pivots(&self) -> u64 {
        self.pivots
    }

    /// Total leaving-row selections since construction. Each is one scan of
    /// the basic variables: one per pivot, plus one per solve that ends
    /// without a pivot on its last selection (feasible, a conflict row, a
    /// degenerate dead end or an exhausted pivot budget).
    pub fn queue_pops(&self) -> u64 {
        self.queue_pops
    }
}

#[cfg(test)]
mod tests;
