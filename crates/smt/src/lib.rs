//! A quantifier-free linear real arithmetic (QF-LRA) SMT solver.
//!
//! This crate is the workspace's substitute for the Z3 solver used in the
//! paper *Formal Synthesis of Monitoring and Detection Systems for Secure CPS
//! Implementations* (DATE 2020). Every query produced by unrolling an LTI
//! closed loop — threshold bounds on residues, range/gradient/relation
//! monitors, and the negated performance criterion — is a Boolean combination
//! of linear constraints over real variables, which is exactly the QF-LRA
//! fragment implemented here.
//!
//! Paper mapping: discharges the Algorithm 1 attack-vector queries of §III
//! (the paper hands them to Z3).
//!
//! # Architecture
//!
//! - [`LinExpr`] / [`Constraint`] — linear expressions and atomic constraints,
//! - [`Formula`] — Boolean combinations of constraints, plus free
//!   propositional variables ([`Formula::BoolVar`], allocated from a
//!   [`BoolVarPool`]) for auxiliary-variable encodings such as the
//!   sequential-counter dead-zone constraint,
//! - [`tseitin`] — conversion to CNF over fresh Boolean variables,
//! - [`sat`] — a CDCL SAT core (watched literals, first-UIP learning, VSIDS),
//! - [`simplex`] — the **incremental** general simplex theory solver of
//!   Dutertre & de Moura over a dense slot-indexed tableau, with
//!   infinitesimal (δ) handling for strict inequalities and infeasibility
//!   explanations,
//! - [`SmtSolver`] — the lazy DPLL(T) loop tying the pieces together.
//!
//! # Incremental theory integration
//!
//! The theory side follows the incremental discipline of Dutertre & de Moura
//! ("A Fast Linear-Arithmetic Solver for DPLL(T)", CAV 2006):
//!
//! - one persistent [`simplex::Simplex`] per [`SmtSolver::check`] call owns a
//!   tableau whose rows are built **once** per distinct constraint
//!   expression (the first atom over a left-hand side, bit-exact in the
//!   coefficients, owns its slack row and later atoms over it share that
//!   row). As many variables are nonbasic as there are problem variables,
//!   so each row is a flat array with one coefficient per nonbasic slot.
//!   The unrolled closed-loop expressions mention every earlier attack
//!   variable, which makes the rows about half dense before pivoting and
//!   denser after, and a pivot is a branch-free axpy over them;
//! - asserting a theory literal installs a variable *bound*
//!   ([`simplex::Simplex::assert_bound`]); SAT backtracking retracts bounds by
//!   popping a trail ([`simplex::Simplex::pop_to`]) — the basis and the
//!   current assignment stay put, so each re-solve starts warm and typically
//!   needs a handful of pivots;
//! - the solver keeps the simplex in lock-step with the SAT trail via trail
//!   positions and a low-water mark (only literals assigned since the last
//!   check are processed);
//! - the simplex repair loop picks each pivot's leaving row by **one scan of
//!   the basic variables** (largest current infeasibility first, ties to
//!   the smaller variable index; Bland's smallest index after a fixed number
//!   of pivots), and the SAT core picks decisions from an activity-ordered
//!   binary heap with lazy deletion instead of an `O(vars)` scan;
//! - **theory-level bound propagation** interval-propagates the tableau rows
//!   after each consistent partial check: implied variable bounds are
//!   derived into an implication graph owned by the bound trail, each
//!   recording the bounds it was computed from; a bound's explanation (the
//!   asserted atoms it follows from) is flattened only when it is read.
//!   Theory atoms decided by a derived bound are fixed on the SAT trail
//!   with persistent implication clauses, and derived-vs-asserted bound
//!   conflicts surface with generalised (minimal-cut) explanations — the
//!   lever that makes threshold-constrained `UNSAT` certificates tractable
//!   at the paper's 50-sample horizon;
//! - numerical hygiene: pivot arithmetic accumulates float error (there is no
//!   refactorisation), so consistent verdicts are validated against the
//!   original constraint expressions and the tableau is rebuilt from scratch
//!   when a re-solve diverges or the cumulative pivot count grows large;
//!   derived bounds are padded outward and only trusted when they clear an
//!   atom's bound by a robustness margin.
//!
//! [`SolverConfig::theory_propagation`] disables bound propagation. It is the
//! only search switch: every library caller keeps it on, and the
//! differential tests use the off setting as their reference.
//!
//! # Warm CEGIS rounds
//!
//! [`SmtSolver::check_assuming`] decides the base assertions together with a
//! round's extra formulas and retracts the extras before returning, so one
//! solver serves a whole CEGIS run without re-encoding its base. The solver
//! keeps a level-0 image of the base encoding, taken before any search: the
//! SAT core after the base clauses and the tableau after the base atoms'
//! rows. Every check restores its search state from that image, reusing the
//! allocations of the previous check, and adds only the round's clauses and
//! atoms. A fresh solver adds the same clauses and atoms in the same order
//! with no search in between, so a warm round is bit-identical to it.
//!
//! # Example
//!
//! ```
//! use cps_smt::{Formula, LinExpr, SmtSolver, VarPool};
//!
//! let mut vars = VarPool::new();
//! let x = vars.fresh("x");
//! let y = vars.fresh("y");
//!
//! // x + y <= 1  ∧  x >= 0.6  ∧  (y >= 0.5 ∨ y <= -2)
//! let f = Formula::and(vec![
//!     Formula::atom((LinExpr::var(x) + LinExpr::var(y)).le(1.0)),
//!     Formula::atom(LinExpr::var(x).ge(0.6)),
//!     Formula::or(vec![
//!         Formula::atom(LinExpr::var(y).ge(0.5)),
//!         Formula::atom(LinExpr::var(y).le(-2.0)),
//!     ]),
//! ]);
//!
//! let mut solver = SmtSolver::new(vars);
//! solver.assert(f);
//! let model = solver.check().expect("query solved").expect_sat();
//! assert!(model.value(x) >= 0.6 - 1e-9);
//! assert!(model.value(x) + model.value(y) <= 1.0 + 1e-9);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod budget;
mod constraint;
mod expr;
#[cfg(feature = "fault-injection")]
pub mod fault;
mod formula;
pub mod sat;
pub mod simplex;
mod solver;
pub mod tseitin;

pub use budget::{Budget, CancelToken, InterruptReason};
pub use constraint::{Constraint, RelOp};
pub use expr::{LinExpr, VarId, VarPool};
#[cfg(feature = "fault-injection")]
pub use fault::{FaultPlan, FaultSpec};
pub use formula::{BoolVarPool, Formula};
pub use solver::{CheckResult, Model, SmtError, SmtSolver, SolverConfig, SolverStats};
