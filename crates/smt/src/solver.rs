use std::error::Error;
use std::fmt;
use std::time::Instant;

use crate::budget::{Budget, CancelToken, Governor, InterruptReason};
use crate::expr::FxHashMap;
use crate::sat::{Lit, SatSolver};
use crate::simplex::{relation_bound, ImpliedBound, Simplex, Tag, TinyPivots, Var};
use crate::tseitin::{CnfBuilder, CnfMark};
use crate::{Formula, RelOp, VarId, VarPool};

/// Cumulative-pivot threshold after which the incremental tableau is rebuilt
/// from the original constraints as numerical hygiene (see
/// [`SmtSolver::theory_check`]).
const PIVOT_REBUILD_THRESHOLD: u64 = 50_000;

/// Maximum number of propositional + theory conflicts before a check gives
/// up with [`SmtError::Interrupted`] ([`InterruptReason::ConflictBudget`]).
/// It composes with [`Budget::with_conflict_cap`]: the smaller cap trips
/// first. A per-run wall-clock deadline is set separately via
/// [`SmtSolver::set_budget`].
const MAX_CONFLICTS: u64 = 2_000_000;

/// Keys [`SmtSolver::explanation_feasible`]'s memo holds before it is
/// cleared, which bounds its memory on a long run over one base.
const RECHECK_MEMO_CAP: usize = 4096;

/// Configuration of the DPLL(T) search loop.
///
/// There is deliberately one search discipline: an incremental simplex kept
/// in lock-step with the SAT trail, a partial theory check between
/// consecutive decisions, no restarts, no clause deletion, and warm CEGIS
/// rounds ([`SmtSolver::check_assuming`]) that restore the SAT core and the
/// tableau from a level-0 image of the base encoding. On the paper's
/// pipeline restarts and clause-database reduction never fire, and a fresh
/// solver per round was 1.2–1.6× slower than a warm one even before warm
/// rounds restored from the image (`ARCHITECTURE.md` has the measurements).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverConfig {
    /// Enables theory-level bound propagation (`true` by default): after a
    /// consistent partial theory check, bounds implied by the asserted ones
    /// are derived by interval-propagating the tableau rows
    /// ([`Simplex::propagate_bounds`]), and every theory atom decided by a
    /// derived bound is fixed on the SAT trail with a persistent implication
    /// clause whose antecedents come from the bound implication graph.
    /// Conflicts between derived and asserted bounds surface immediately with
    /// generalised explanations instead of waiting for a pivot-level
    /// certificate. `false` disables all of it — the "check-at-leaves"
    /// discipline — which the differential tests use as their reference.
    pub theory_propagation: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            theory_propagation: true,
        }
    }
}

/// Statistics gathered during a [`SmtSolver::check`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Propositional decisions made.
    pub decisions: u64,
    /// Propositional conflicts resolved.
    pub conflicts: u64,
    /// Theory (simplex) feasibility checks performed.
    pub theory_checks: u64,
    /// Theory conflicts that produced learned clauses.
    pub theory_conflicts: u64,
    /// Simplex pivots performed across all theory checks.
    pub pivots: u64,
    /// Times the incremental tableau was rebuilt from the original
    /// constraints (numerical-hygiene refactorisations).
    pub theory_rebuilds: u64,
    /// Wall-clock nanoseconds spent inside the theory solver (bound
    /// synchronisation + simplex).
    pub simplex_nanos: u64,
    /// Bounds derived by theory propagation
    /// ([`SolverConfig::theory_propagation`]).
    pub implied_bounds: u64,
    /// Theory atoms fixed on the SAT trail by a derived bound (each comes
    /// with a persistent implication clause).
    pub propagated_literals: u64,
    /// Total literals across all theory-conflict explanations; divide by
    /// [`SolverStats::theory_conflicts`] for the mean explanation length —
    /// the conflict-generalisation quality metric.
    pub explanation_literals: u64,
    /// Simplex leaving-row selections, one scan of the basic variables each:
    /// one per pivot, plus one per solve that ends on a selection without a
    /// pivot (feasible, a conflict row or a degenerate dead end). It keeps
    /// its heap-era name because the benchmark reports it as
    /// `smt.queue_pops`.
    pub queue_pops: u64,
    /// Search restarts. Always 0: the SAT core never restarts. Kept so
    /// reports that print or aggregate it keep their shape.
    pub restarts: u64,
    /// Learned clauses deleted. Always 0: the SAT core never deletes a
    /// clause. Kept so reports that print or aggregate it keep their shape.
    pub clauses_deleted: u64,
    /// Checks served by a warm solver: one that had already completed an
    /// earlier check, so its base encoding was reused instead of re-encoded
    /// and its engines were restored from the level-0 image of that encoding
    /// (rebuilt only after an [`SmtSolver::assert`]). Aggregated over a CEGIS
    /// run this counts the warm-started rounds.
    pub scopes_reused: u64,
}

impl SolverStats {
    /// Wall-clock time spent inside the theory solver.
    pub fn simplex_time(&self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.simplex_nanos)
    }

    /// Mean theory-conflict explanation length (0 when no conflicts arose).
    pub fn mean_explanation_len(&self) -> f64 {
        if self.theory_conflicts == 0 {
            0.0
        } else {
            self.explanation_literals as f64 / self.theory_conflicts as f64
        }
    }

    /// Adds `other`'s counters into `self` — used to aggregate per-query
    /// statistics over a multi-round CEGIS run.
    pub fn absorb(&mut self, other: &SolverStats) {
        self.decisions += other.decisions;
        self.conflicts += other.conflicts;
        self.theory_checks += other.theory_checks;
        self.theory_conflicts += other.theory_conflicts;
        self.pivots += other.pivots;
        self.theory_rebuilds += other.theory_rebuilds;
        self.simplex_nanos += other.simplex_nanos;
        self.implied_bounds += other.implied_bounds;
        self.propagated_literals += other.propagated_literals;
        self.explanation_literals += other.explanation_literals;
        self.queue_pops += other.queue_pops;
        self.restarts += other.restarts;
        self.clauses_deleted += other.clauses_deleted;
        self.scopes_reused += other.scopes_reused;
    }
}

/// One `key=value` line (space-separated) of every counter plus the theory
/// time, for logs.
impl fmt::Display for SolverStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "decisions={} conflicts={} theory_checks={} theory_conflicts={} pivots={} \
             theory_rebuilds={} implied_bounds={} propagated_literals={} \
             explanation_literals={} queue_pops={} restarts={} clauses_deleted={} \
             scopes_reused={} simplex_time={:?}",
            self.decisions,
            self.conflicts,
            self.theory_checks,
            self.theory_conflicts,
            self.pivots,
            self.theory_rebuilds,
            self.implied_bounds,
            self.propagated_literals,
            self.explanation_literals,
            self.queue_pops,
            self.restarts,
            self.clauses_deleted,
            self.scopes_reused,
            self.simplex_time(),
        )
    }
}

/// Errors returned by [`SmtSolver::check`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SmtError {
    /// The check stopped before deciding its query — "Unknown" as a
    /// first-class verdict. The reason says which resource axis tripped
    /// (wall-clock deadline, cancellation, conflict or pivot budget; see
    /// [`Budget`] and [`CancelToken`]) and the carried statistics attribute
    /// the work done up to the interruption. The solver's assertion store is
    /// untouched: re-running [`SmtSolver::check`] with a larger budget
    /// resumes from the CNF and returns the verdict the uninterrupted run
    /// would have returned, bit-identically.
    Interrupted {
        /// Which budget axis (or cancellation) stopped the run.
        reason: InterruptReason,
        /// Statistics gathered up to the interruption.
        stats: SolverStats,
    },
    /// An assertion containing a NaN or ±inf coefficient or bound was
    /// rejected at the API boundary. Non-finite values would otherwise
    /// propagate silently through the tableau and poison every verdict. A
    /// rejected [`SmtSolver::assert`] fails every later check of that
    /// solver; a rejected [`SmtSolver::check_assuming`] formula fails only
    /// that call.
    NonFiniteAssertion,
}

impl SmtError {
    /// The interrupt reason, when the error is an interruption.
    pub fn interrupt_reason(&self) -> Option<InterruptReason> {
        match self {
            SmtError::Interrupted { reason, .. } => Some(*reason),
            _ => None,
        }
    }
}

impl fmt::Display for SmtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmtError::Interrupted { reason, stats } => write!(
                f,
                "solver interrupted ({reason}) after {} conflicts / {} pivots",
                stats.conflicts, stats.pivots
            ),
            SmtError::NonFiniteAssertion => {
                write!(f, "assertion contains a non-finite coefficient or bound")
            }
        }
    }
}

impl Error for SmtError {}

/// A satisfying assignment for the real-valued variables of a query.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    values: Vec<f64>,
}

impl Model {
    /// Value assigned to `var` (variables never mentioned in the assertions
    /// default to zero).
    pub fn value(&self, var: VarId) -> f64 {
        self.values.get(var.index()).copied().unwrap_or(0.0)
    }

    /// Dense slice of all variable values, indexed by [`VarId::index`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// Result of a satisfiability check.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckResult {
    /// The assertions are satisfiable; a model is provided.
    Sat(Model),
    /// The assertions are unsatisfiable.
    Unsat,
}

impl CheckResult {
    /// Returns `true` for [`CheckResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, CheckResult::Sat(_))
    }

    /// Extracts the model.
    ///
    /// # Panics
    ///
    /// Panics if the result is [`CheckResult::Unsat`].
    pub fn expect_sat(self) -> Model {
        match self {
            CheckResult::Sat(model) => model,
            CheckResult::Unsat => panic!("expected a satisfiable result"),
        }
    }

    /// Returns the model if satisfiable.
    pub fn model(self) -> Option<Model> {
        match self {
            CheckResult::Sat(model) => Some(model),
            CheckResult::Unsat => None,
        }
    }
}

/// Persistent theory state kept in lock-step with the SAT trail.
///
/// Every theory atom's expression is registered in the simplex once (atoms
/// over the same expression share their owner's slack row, see
/// [`CnfBuilder::expr_owner`]); the `stack`
/// mirrors the subsequence of SAT trail literals that are theory atoms,
/// together with the simplex trail mark taken before each literal's bound
/// was asserted. Synchronisation pops the stack back to the longest prefix
/// still present on the SAT trail (backtracking only truncates the trail, so
/// prefix positions stay valid) and pushes bounds for the newly assigned
/// atom literals.
#[derive(Debug, Default)]
struct TheoryContext {
    simplex: Simplex,
    /// Per-atom `(tableau variable, bound scale)` slot from [`Simplex::define`].
    atom_slot: Vec<(Var, f64)>,
    /// Reverse index, by tableau variable: the atoms bounding it, used to
    /// turn derived bounds into SAT-trail literal propagations. Entries past
    /// the defined variables are empty; they keep their capacity for the
    /// next round's rows.
    var_atoms: Vec<Vec<u32>>,
    stack: Vec<SyncedLit>,
}

#[derive(Debug, Clone, Copy)]
struct SyncedLit {
    /// Position of `lit` on the SAT trail when it was synchronised.
    trail_pos: u32,
    lit: Lit,
    /// Simplex trail mark taken before asserting this literal's bound.
    mark: usize,
}

impl TheoryContext {
    /// A context with no atoms defined.
    fn new(num_real_vars: usize) -> Self {
        Self {
            simplex: Simplex::new(num_real_vars),
            ..Self::default()
        }
    }

    /// Defines `cnf`'s atoms from the first undefined one up to `end`, in
    /// order: an expression owner gets its row, every other atom bounds its
    /// owner's.
    fn define_atoms(&mut self, cnf: &CnfBuilder, end: usize) {
        for atom_idx in self.atom_slot.len()..end {
            let owner = cnf.expr_owner(atom_idx);
            let slot = if owner == atom_idx {
                self.simplex.define(cnf.atom_expr(atom_idx))
            } else {
                self.atom_slot[owner]
            };
            self.atom_slot.push(slot);
            let var = slot.0.index();
            if var >= self.var_atoms.len() {
                self.var_atoms.resize_with(var + 1, Vec::new);
            }
            self.var_atoms[var].push(atom_idx as u32);
        }
    }

    /// Restores this context to `image`'s state, reusing its allocations.
    fn restore_from(&mut self, image: &TheoryContext) {
        let TheoryContext {
            simplex,
            atom_slot,
            var_atoms,
            stack,
        } = image;
        self.simplex.restore_from(simplex);
        self.atom_slot.clone_from(atom_slot);
        if self.var_atoms.len() < var_atoms.len() {
            self.var_atoms.resize_with(var_atoms.len(), Vec::new);
        }
        let (defined, rest) = self.var_atoms.split_at_mut(var_atoms.len());
        for (atoms, image_atoms) in defined.iter_mut().zip(var_atoms) {
            atoms.clone_from(image_atoms);
        }
        for atoms in rest {
            atoms.clear();
        }
        self.stack.clone_from(stack);
    }
}

/// The SAT core and theory context one check searches with.
#[derive(Debug)]
struct Engines {
    sat: SatSolver,
    theory: TheoryContext,
}

impl Engines {
    /// The level-0 image of the base encoding, the CNF up to `base`: the SAT
    /// core after the base clauses and the theory context after the base
    /// atoms' rows, before any search. It holds no learned clause, no
    /// implication clause and no asserted bound.
    fn image(cnf: &CnfBuilder, base: CnfMark, num_real_vars: usize) -> Self {
        let mut sat = SatSolver::new(base.bool_vars);
        for clause in cnf.clauses(0..base.clauses) {
            sat.add_clause(clause);
        }
        let mut theory = TheoryContext::new(num_real_vars);
        theory.define_atoms(cnf, base.atoms);
        Self { sat, theory }
    }

    /// Restores both engines to `image`'s state, reusing their allocations.
    fn restore_from(&mut self, image: &Engines) {
        let Engines { sat, theory } = image;
        self.sat.restore_from(sat);
        self.theory.restore_from(theory);
    }
}

/// Lazy DPLL(T) solver for quantifier-free linear real arithmetic.
///
/// Assertions are accumulated with [`SmtSolver::assert`] and the conjunction
/// of all assertions is decided by [`SmtSolver::check`]. The solver is a
/// drop-in substitute for the Z3 queries issued by Algorithm 1 of the paper.
///
/// The theory side is *incremental* (Dutertre–de Moura): one persistent
/// [`Simplex`] per `check` call owns the tableau, theory checks assert only
/// the bounds of literals assigned since the previous check, and SAT
/// backtracking retracts bounds by popping the simplex trail instead of
/// rebuilding.
///
/// The solver keeps a level-0 image of its base encoding (the SAT core after
/// the asserted clauses and the tableau after the asserted atoms' rows) and
/// one working pair of engines. Each check restores the working pair from the
/// image into its own allocations and adds only the round's clauses and
/// atoms; so do the theory rebuilds inside a check.
///
/// See the [crate-level documentation](crate) for a complete example.
#[derive(Debug)]
pub struct SmtSolver {
    vars: VarPool,
    cnf: CnfBuilder,
    config: SolverConfig,
    stats: SolverStats,
    /// Checks ([`SmtSolver::check`] and [`SmtSolver::check_assuming`])
    /// completed on this solver — the basis of the
    /// [`SolverStats::scopes_reused`] warm-round accounting.
    checks_completed: u64,
    /// Resource budget applied to every check ([`SmtSolver::set_budget`]).
    budget: Budget,
    /// Cooperative cancellation flag shared with the caller.
    cancel: CancelToken,
    /// The governor of the current (or last) check, built at its start:
    /// the DPLL(T) loop polls it and lends it to the simplex.
    governor: Governor,
    /// Set once [`SmtSolver::assert`] rejects a non-finite formula: every
    /// later check fails with [`SmtError::NonFiniteAssertion`].
    poisoned: bool,
    /// Level-0 image of the asserted encoding ([`Engines::image`]), built by
    /// the first check after an [`SmtSolver::assert`], which drops it.
    image: Option<Engines>,
    /// The engines checks search with: equal to `image` between checks
    /// (reset right after each one), taken out of the solver during one.
    working: Option<Engines>,
    /// Mini-tableau verdicts of the explanations made of base atoms only
    /// ([`SmtSolver::explanation_feasible`]), keyed by the explanation as
    /// it was passed; dropped with the image.
    recheck_memo: FxHashMap<Vec<Tag>, bool>,
    /// Armed fault injector ([`SmtSolver::install_faults`]); lent to each
    /// check's governor, so fire counts persist across warm rounds.
    #[cfg(feature = "fault-injection")]
    faults: Option<crate::fault::FaultInjector>,
}

/// Minimum number of unassigned theory atoms for bound propagation to be
/// worth attempting. Small SAT-leaning queries (a conjunction plus one thin
/// disjunction) leave only a couple of atoms undecided; interval-propagating
/// the whole tableau to maybe fix them costs more than the entire search.
/// Dead-zone-style encodings leave dozens-to-hundreds of atoms open, which
/// is where propagation collapses the search.
const PROP_MIN_UNASSIGNED_ATOMS: usize = 8;

impl SmtSolver {
    /// Creates a solver over the variables allocated in `vars`.
    pub fn new(vars: VarPool) -> Self {
        Self::with_config(vars, SolverConfig::default())
    }

    /// Creates a solver with an explicit search configuration.
    pub fn with_config(vars: VarPool, config: SolverConfig) -> Self {
        let cancel = CancelToken::new();
        Self {
            vars,
            cnf: CnfBuilder::new(),
            config,
            stats: SolverStats::default(),
            checks_completed: 0,
            budget: Budget::unlimited(),
            governor: Governor::new(Budget::unlimited(), cancel.clone()),
            cancel,
            poisoned: false,
            image: None,
            working: None,
            recheck_memo: FxHashMap::default(),
            #[cfg(feature = "fault-injection")]
            faults: None,
        }
    }

    /// Installs a resource [`Budget`] applied to every subsequent
    /// [`SmtSolver::check`]. The deadline is absolute, so one budget shared
    /// across several checks (warm CEGIS rounds) bounds the whole run.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// A clone of the solver's cancellation token: cancel it from any thread
    /// to make a running check unwind with [`InterruptReason::Cancelled`].
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Replaces the solver's cancellation token, so that one token can
    /// cancel the checks of several solvers.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = token;
    }

    /// Arms a deterministic fault-injection plan (see [`crate::fault`]).
    /// Compiled only with the `fault-injection` feature.
    #[cfg(feature = "fault-injection")]
    pub fn install_faults(&mut self, plan: crate::fault::FaultPlan) {
        self.faults = Some(crate::fault::FaultInjector::new(plan));
    }

    /// Total fault fires so far across the armed plan's kinds (see
    /// [`crate::fault::FaultInjector::total_fires`]); `0` when no plan is
    /// armed.
    #[cfg(feature = "fault-injection")]
    pub fn fault_fires(&self) -> u32 {
        self.faults
            .as_ref()
            .map_or(0, crate::fault::FaultInjector::total_fires)
    }

    /// The variable pool the solver was created with.
    pub fn vars(&self) -> &VarPool {
        &self.vars
    }

    /// Statistics of the most recent [`SmtSolver::check`] call.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Adds an assertion to the conjunction to be checked.
    ///
    /// An assertion containing a non-finite (NaN/±inf) coefficient or bound
    /// is **rejected** instead of encoded: the solver records the poisoning
    /// and every later [`SmtSolver::check`] fails with
    /// [`SmtError::NonFiniteAssertion`]. Keeping `assert` infallible preserves the
    /// builder-style call sites; the typed error surfaces at the
    /// `Result`-returning boundary.
    pub fn assert(&mut self, formula: Formula) {
        if !formula_is_finite(&formula) {
            self.poisoned = true;
            return;
        }
        self.cnf.assert_formula(formula);
        self.image = None;
        self.recheck_memo.clear();
    }

    /// Decides satisfiability of the conjunction of all assertions.
    ///
    /// # Errors
    ///
    /// Returns [`SmtError::Interrupted`] when the installed [`Budget`] (or
    /// the solver's own cap of 2,000,000 conflicts) is exhausted or the
    /// [`CancelToken`] is cancelled before the query is decided, and
    /// [`SmtError::NonFiniteAssertion`] when an earlier `assert` rejected a
    /// non-finite formula. An interruption does not corrupt the assertion
    /// store: a later `check` with a larger budget behaves as if the
    /// interrupted one never ran.
    pub fn check(&mut self) -> Result<CheckResult, SmtError> {
        self.check_assuming(&mut [])
    }

    /// Decides the conjunction of all assertions **and** `extra`, then
    /// retracts `extra` — together with every theory atom and auxiliary
    /// Boolean variable its encoding introduced — before returning, on every
    /// outcome. This is one CEGIS round on a warm solver: the base encoding
    /// stays asserted across calls and only the round's formulas are encoded
    /// per call.
    ///
    /// Each check restores its SAT and theory engines from the level-0 image
    /// of the base assertions, taken before any search, and then adds the
    /// clauses and atoms of `extra`. A fresh solver adds the same clauses and
    /// defines the same atoms in the same order with no search in between,
    /// so the result is bit-identical to a fresh solver holding the base
    /// assertions followed by `extra`, and a later call behaves as if this
    /// one never ran.
    ///
    /// `extra` is lent, not copied: for the call, the solver moves the
    /// expressions it keeps out of `extra`'s atoms, and it moves them back
    /// before returning, so `extra` is unchanged when the call returns. A
    /// caller that bounds the same expressions round after round builds them
    /// once. (If the call panics, those atoms are left with empty
    /// expressions.)
    ///
    /// # Errors
    ///
    /// As [`SmtSolver::check`]; a non-finite formula in `extra` fails this
    /// call with [`SmtError::NonFiniteAssertion`] and leaves the solver
    /// usable.
    pub fn check_assuming(&mut self, extra: &mut [Formula]) -> Result<CheckResult, SmtError> {
        let finite = extra.iter().all(formula_is_finite);
        // A round with a non-finite formula is rejected whole, unencoded.
        let lent: &mut [Formula] = if finite { extra } else { &mut [] };
        let mark = self.cnf.mark();
        for formula in lent.iter_mut() {
            self.cnf.lend_formula(formula);
        }
        let result = if self.poisoned || !finite {
            self.stats = SolverStats::default();
            Err(SmtError::NonFiniteAssertion)
        } else {
            self.check_inner(mark)
        };
        self.checks_completed += 1;
        self.cnf.release_to(mark, lent);
        result
    }

    /// Builds the per-check governor from the installed budget and cancel
    /// token, and lends it the armed fault injector.
    fn make_governor(&mut self) -> Governor {
        // The solver's own conflict cap and the budget's compose: the
        // smaller one trips first.
        let mut budget = self.budget;
        let cap = budget
            .max_conflicts
            .map_or(MAX_CONFLICTS, |b| b.min(MAX_CONFLICTS));
        budget.max_conflicts = Some(cap);
        let governor = Governor::new(budget, self.cancel.clone());
        #[cfg(feature = "fault-injection")]
        governor.faults.replace(self.faults.take());
        governor
    }

    /// Decides the CNF, whose base encoding ends at `base`, on the working
    /// engines, and resets them to the image afterwards on every outcome.
    fn check_inner(&mut self, base: CnfMark) -> Result<CheckResult, SmtError> {
        self.stats = SolverStats::default();
        // A solver that already completed a check serves this one warm: its
        // accumulated base encoding is reused instead of re-encoded.
        if self.checks_completed > 0 {
            self.stats.scopes_reused = 1;
        }
        self.governor = self.make_governor();
        let mut engines = self.take_engines(base);
        let result = self.search(&mut engines, base);
        // Reset right away: between checks the working engines hold no
        // learned clause and no derived bound.
        engines.restore_from(self.image());
        self.working = Some(engines);
        #[cfg(feature = "fault-injection")]
        {
            self.faults = self.governor.faults.take();
        }
        result
    }

    /// The image of the current base encoding.
    fn image(&self) -> &Engines {
        self.image.as_ref().expect("a check builds the image first")
    }

    /// The working engines restored to the image of the base encoding at
    /// `base`, building the image when an assert dropped it.
    fn take_engines(&mut self, base: CnfMark) -> Engines {
        match (&self.image, self.working.take()) {
            // Reset against this image right after the previous check.
            (Some(_), Some(engines)) => engines,
            (_, working) => {
                let image = self
                    .image
                    .get_or_insert_with(|| Engines::image(&self.cnf, base, self.vars.len()));
                let mut engines = working.unwrap_or_else(|| Engines {
                    sat: SatSolver::new(0),
                    theory: TheoryContext::new(0),
                });
                engines.restore_from(image);
                engines
            }
        }
    }

    /// Adds the round's variables, clauses and atoms (the CNF past `base`)
    /// to the restored engines and runs the DPLL(T) loop.
    /// A query with no theory atom runs the same loop: its theory checks
    /// solve an empty tableau, and a full assignment yields the all-zero
    /// model.
    fn search(&mut self, engines: &mut Engines, base: CnfMark) -> Result<CheckResult, SmtError> {
        let Engines { sat, theory } = engines;
        debug_assert_eq!(sat.num_vars(), base.bool_vars, "image of another base");
        sat.grow(self.cnf.num_bool_vars());
        for clause in self.cnf.clauses(base.clauses..self.cnf.num_clauses()) {
            sat.add_clause(clause);
        }
        if sat.is_unsat() {
            return Ok(CheckResult::Unsat);
        }
        theory.define_atoms(&self.cnf, self.cnf.num_atoms());
        // The theory checks every full assignment, and a partial one before
        // a decision whenever at least one decision was made since the
        // previous check. Incremental checks only process the literals
        // assigned since the last one, so this per-decision cadence is cheap.
        let mut decided_since_check = false;
        let verdict = loop {
            // Cooperative checkpoint once per loop iteration — every conflict
            // boundary passes through here.
            if self.governor.check_conflicts(sat.conflicts()).is_some() {
                break None;
            }
            if let Some(conflict) = sat.propagate() {
                if !sat.resolve_conflict(conflict) {
                    break Some(CheckResult::Unsat);
                }
                continue;
            }
            let picked = sat.pick_branch_literal();
            let full = picked.is_none();
            let mut model = Vec::new();
            if full || decided_since_check {
                // A partial check restarts the cadence; a full one leaves it
                // as it is.
                decided_since_check &= full;
                let trail_before = sat.trail().len();
                match self.theory_check(theory, sat, full) {
                    TheoryOutcome::Consistent(values) => model = values,
                    TheoryOutcome::Conflict(tags) => {
                        self.stats.theory_conflicts += 1;
                        self.stats.explanation_literals += tags.len() as u64;
                        // The clause that blocks the conflicting combination.
                        let clause: Vec<Lit> = tags
                            .into_iter()
                            .map(|tag| Lit::from(tag).negated())
                            .collect();
                        if let Some(lit) = picked {
                            sat.requeue_decision(lit.var());
                        }
                        if !sat.resolve_conflict_with(&clause) {
                            break Some(CheckResult::Unsat);
                        }
                        continue;
                    }
                    // Undecided: only a tripped governor stops a check, the
                    // last-resort solve included.
                    TheoryOutcome::Diverged | TheoryOutcome::Interrupted => break None,
                }
                // Theory propagation may have fixed literals (possibly the
                // picked one): return the picked variable to the heap, run
                // unit propagation and re-pick before deciding.
                if let Some(lit) = picked.filter(|_| sat.trail().len() != trail_before) {
                    sat.requeue_decision(lit.var());
                    continue;
                }
            }
            // Full propositional assignment: the theory had the last word.
            let Some(lit) = picked else {
                break Some(CheckResult::Sat(Model { values: model }));
            };
            decided_since_check = true;
            sat.decide(lit);
        };
        self.record(sat, theory);
        verdict.ok_or_else(|| SmtError::Interrupted {
            reason: self
                .governor
                .tripped()
                .unwrap_or(InterruptReason::Cancelled),
            stats: self.stats,
        })
    }

    fn record(&mut self, sat: &SatSolver, theory: &TheoryContext) {
        self.stats.decisions = sat.decisions();
        self.stats.conflicts = sat.conflicts();
        // Rebuilds fold the retired tableau's counters into the running
        // totals; add the live tableau's counts on top.
        self.fold_theory_counters(theory);
    }

    /// Folds a retired tableau's lifetime counters into the stats before the
    /// context is replaced by a rebuild.
    fn fold_theory_counters(&mut self, theory: &TheoryContext) {
        self.stats.pivots += theory.simplex.pivots();
        self.stats.queue_pops += theory.simplex.queue_pops();
    }

    /// Replaces the tableau by a fresh one (numerical hygiene): the theory
    /// context is restored from the image and the round's atoms redefined,
    /// which equals a context built from the whole CNF.
    fn rebuild_theory(&mut self, theory: &mut TheoryContext) {
        self.stats.theory_rebuilds += 1;
        self.fold_theory_counters(theory);
        theory.restore_from(&self.image().theory);
        theory.define_atoms(&self.cnf, self.cnf.num_atoms());
    }

    /// Runs a simplex feasibility check on the theory literals currently
    /// assigned by the SAT core.
    ///
    /// The persistent simplex is synchronised with the SAT trail: bounds of
    /// literals no longer on the trail are popped, bounds of newly assigned
    /// atom literals are asserted, and the warm simplex state is re-solved.
    /// `full` marks the mandatory check at a complete propositional
    /// assignment: only there is a concrete model materialised and validated
    /// (partial checks just prune the search, so their model would be
    /// discarded and a numerically stale "consistent" merely fails to prune).
    fn theory_check(
        &mut self,
        theory: &mut TheoryContext,
        sat: &mut SatSolver,
        full: bool,
    ) -> TheoryOutcome {
        self.stats.theory_checks += 1;
        let started = Instant::now();
        let outcome = self.theory_verdict(theory, sat, full);
        self.stats.simplex_nanos += started.elapsed().as_nanos() as u64;
        outcome
    }

    /// The body of [`SmtSolver::theory_check`], which times it: solve,
    /// propagate, validate and, when the validation fails, repair once.
    fn theory_verdict(
        &mut self,
        theory: &mut TheoryContext,
        sat: &mut SatSolver,
        full: bool,
    ) -> TheoryOutcome {
        // A fresh tableau has no accumulated pivot error; rebuild periodically
        // as numerical hygiene — float error compounds through pivot
        // arithmetic and the tableau has no refactorisation step.
        if theory.simplex.pivots() > PIVOT_REBUILD_THRESHOLD {
            self.rebuild_theory(theory);
        }
        // Solve: bring the simplex up to the trail and re-solve it warm.
        let low_water = sat.trail_low_water();
        sat.reset_trail_low_water();
        let mut outcome = self.sync_and_solve(theory, sat, low_water);
        // Fault site: flip a feasible verdict to "diverged", driving the
        // repair below (bounded by the plan's fire cap).
        #[cfg(feature = "fault-injection")]
        if matches!(outcome, TheoryOutcome::Consistent(_))
            && self
                .governor
                .fault(false, crate::fault::FaultInjector::forced_divergence)
        {
            outcome = TheoryOutcome::Diverged;
        }
        // Propagate: on a consistent *partial* assignment, derive implied
        // bounds, fix decided atoms on the SAT trail and surface
        // derived-bound conflicts with generalised explanations. Skipped at
        // full assignments and whenever every atom is already assigned
        // (conjunction-heavy queries fix all atoms at level zero, leaving
        // only auxiliary Tseitin variables to decide — derived bounds can
        // then fix nothing and the simplex solve already owns conflict
        // detection), and in the repair below (plain solving is complete
        // without it).
        if !full
            && self.config.theory_propagation
            && matches!(outcome, TheoryOutcome::Consistent(_))
            && self.propagation_worthwhile(sat)
        {
            outcome = self.theory_propagate(theory, sat);
        }
        // Validate: verdicts from a long-lived tableau are not trusted
        // blindly. A feasible verdict at a full assignment must satisfy
        // every asserted atom at the concrete model, and a conflict's
        // explanation must itself be an infeasible subset (checked on a
        // fresh mini-tableau over just those atoms — explanations are small,
        // so this is cheap). Divergence and both validation failures signal
        // tableau degradation.
        let needs_repair = match &mut outcome {
            TheoryOutcome::Consistent(values) if full => {
                *values = self.padded_model(theory);
                // Fault site: corrupt model values *before* validation — the
                // NaN/inf must be caught here and repaired below, never
                // escape to the caller.
                #[cfg(feature = "fault-injection")]
                for value in values.iter_mut() {
                    *value = self.governor.fault(*value, |faults| faults.perturb(*value));
                }
                !self.model_consistent(sat, values)
            }
            TheoryOutcome::Conflict(tags) => self.explanation_feasible(tags),
            TheoryOutcome::Diverged => true,
            TheoryOutcome::Consistent(_) | TheoryOutcome::Interrupted => false,
        };
        if !needs_repair {
            return outcome;
        }
        // Repair: one rebuild and a fresh solve. Its verdict skips the
        // validation, so a conflict that the re-check would reject is
        // learned all the same (ARCHITECTURE.md, *Solver design*, has a
        // query where this happens).
        self.rebuild_theory(theory);
        let mut outcome = self.sync_and_solve(theory, sat, 0);
        if matches!(outcome, TheoryOutcome::Diverged) {
            // Freshly rebuilt and still stuck: the last-resort solve takes
            // tiny pivots too, and stops undecided only when the governor
            // trips.
            let governor = Some(&self.governor);
            let solve = theory
                .simplex
                .solve_bounded(u64::MAX, TinyPivots::Take, governor);
            outcome = self.solved(solve);
            debug_assert!(
                !matches!(outcome, TheoryOutcome::Diverged),
                "ungoverned last-resort solve"
            );
        }
        if let (true, TheoryOutcome::Consistent(values)) = (full, &mut outcome) {
            *values = self.padded_model(theory);
        }
        outcome
    }

    /// Returns `true` when a conflict explanation is *not* actually an
    /// infeasible constraint subset — the signature of a numerically
    /// degraded tableau fabricating a certificate.
    ///
    /// The verdict of an explanation whose literals are all base atoms is
    /// remembered until an [`SmtSolver::assert`] changes the base: the
    /// re-check is a deterministic function of the constraint sequence (the
    /// variable count is fixed per solver), and a base atom's literal names
    /// the same constraint for as long as the base stands. A later round
    /// reuses a round atom's literal for another constraint, so an
    /// explanation holding one is solved every time.
    fn explanation_feasible(&mut self, explanation: &[Tag]) -> bool {
        // The image holds exactly the base atoms.
        let base_atoms = self.image().theory.atom_slot.len();
        let base_only = explanation.iter().all(|&tag| {
            let atom = self.cnf.atom_of_var(Lit::from(tag).var());
            atom.is_some_and(|atom_idx| atom_idx < base_atoms)
        });
        let stored = base_only.then(|| self.recheck_memo.get(explanation));
        if let Some(&feasible) = stored.flatten() {
            return feasible;
        }
        let feasible = self.solve_explanation(explanation);
        if base_only {
            if self.recheck_memo.len() >= RECHECK_MEMO_CAP {
                self.recheck_memo.clear();
            }
            self.recheck_memo.insert(explanation.to_vec(), feasible);
        }
        feasible
    }

    /// Solves the constraints of an explanation's literals on a fresh
    /// mini-tableau over every problem variable; `true` when feasible.
    fn solve_explanation(&self, explanation: &[Tag]) -> bool {
        let constraints: Vec<_> = explanation
            .iter()
            .enumerate()
            .map(|(i, &tag)| {
                let lit = Lit::from(tag);
                let atom_idx = self
                    .cnf
                    .atom_of_var(lit.var())
                    .expect("explanation tags are theory literals");
                let constraint = self.cnf.atom_constraint(atom_idx, lit.is_positive());
                (constraint, Tag::new(i))
            })
            .collect();
        Simplex::check(self.vars.len(), &constraints).is_feasible()
    }

    /// Checks the concrete theory model against every atom literal on the
    /// SAT trail (using the original constraint expressions, not the tableau).
    /// Non-finite values fail outright: a NaN/inf slot — pivot blow-up, or an
    /// injected fault — must never reach a returned [`Model`], even on a
    /// variable no asserted atom constrains.
    fn model_consistent(&self, sat: &SatSolver, values: &[f64]) -> bool {
        if values.iter().any(|v| !v.is_finite()) {
            return false;
        }
        sat.trail().iter().all(|lit| {
            self.cnf.atom_of_var(lit.var()).map_or(true, |atom_idx| {
                self.cnf.atom_holds(atom_idx, lit.is_positive(), values)
            })
        })
    }

    fn padded_model(&self, theory: &TheoryContext) -> Vec<f64> {
        let mut values = theory.simplex.concrete_assignment();
        values.resize(self.vars.len(), 0.0);
        values
    }

    /// Synchronises the simplex with the SAT trail, whose entries from
    /// `low_water` on may have changed since the last sync, and re-solves
    /// it within [`SmtSolver::solve_budget`], refusing tiny pivots.
    fn sync_and_solve(
        &self,
        theory: &mut TheoryContext,
        sat: &SatSolver,
        low_water: usize,
    ) -> TheoryOutcome {
        let trail = sat.trail();
        // Pop bounds of every literal whose trail slot was truncated since
        // the previous sync (even if the slot has regrown — possibly with the
        // same literal — it belongs to a new branch and is re-asserted below).
        while let Some(top) = theory.stack.last() {
            if (top.trail_pos as usize) < low_water {
                break;
            }
            theory.simplex.pop_to(top.mark);
            theory.stack.pop();
        }
        debug_assert!(
            theory
                .stack
                .iter()
                .all(|entry| trail.get(entry.trail_pos as usize) == Some(&entry.lit)),
            "theory stack out of sync with the SAT trail"
        );
        // Push bounds for atom literals assigned since the last sync.
        let start = theory
            .stack
            .last()
            .map_or(0, |top| top.trail_pos as usize + 1);
        for (pos, &lit) in trail.iter().enumerate().skip(start) {
            let Some(atom_idx) = self.cnf.atom_of_var(lit.var()) else {
                continue;
            };
            let (op, bound) = self.cnf.atom_relation(atom_idx);
            debug_assert_ne!(
                op,
                RelOp::Eq,
                "equality atoms are split during CNF conversion"
            );
            let op = if lit.is_positive() { op } else { op.negated() };
            let (var, scale) = theory.atom_slot[atom_idx];
            let mark = theory.simplex.mark();
            match theory
                .simplex
                .assert_bound(var, scale, op, bound, Tag::from(lit))
            {
                Ok(()) => theory.stack.push(SyncedLit {
                    trail_pos: pos as u32,
                    lit,
                    mark,
                }),
                Err(explanation) => {
                    theory.simplex.pop_to(mark);
                    return TheoryOutcome::Conflict(explanation);
                }
            }
        }
        let (budget, governor) = (self.solve_budget(), Some(&self.governor));
        let solve = theory
            .simplex
            .solve_bounded(budget, TinyPivots::Diverge, governor);
        self.solved(solve)
    }

    /// The outcome of a simplex solve. A solve that stops undecided was
    /// interrupted when the governor tripped, and diverged otherwise.
    fn solved(&self, solve: Option<Result<(), Vec<Tag>>>) -> TheoryOutcome {
        match solve {
            Some(Ok(())) => TheoryOutcome::Consistent(Vec::new()),
            Some(Err(explanation)) => TheoryOutcome::Conflict(explanation),
            None if self.governor.tripped().is_some() => TheoryOutcome::Interrupted,
            None => TheoryOutcome::Diverged,
        }
    }

    /// Pivot budget for one warm re-solve. Healthy incremental re-solves take
    /// a handful of pivots; blowing this budget signals tableau degradation.
    fn solve_budget(&self) -> u64 {
        200 + 4 * self.cnf.num_atoms() as u64
    }

    /// `true` when at least [`PROP_MIN_UNASSIGNED_ATOMS`] theory atoms are
    /// still unassigned — the only situation where bound propagation can pay
    /// for itself (early-exits once the threshold is reached, so the scan is
    /// cheap exactly when propagation will run anyway).
    fn propagation_worthwhile(&self, sat: &SatSolver) -> bool {
        let mut unassigned = 0usize;
        for i in 0..self.cnf.num_atoms() {
            if sat.var_value(self.cnf.atom_bool_var(i)).is_none() {
                unassigned += 1;
                if unassigned >= PROP_MIN_UNASSIGNED_ATOMS {
                    return true;
                }
            }
        }
        false
    }

    /// Runs theory-level bound propagation and pushes its consequences to the
    /// SAT core (see [`SolverConfig::theory_propagation`]).
    fn theory_propagate(
        &mut self,
        theory: &mut TheoryContext,
        sat: &mut SatSolver,
    ) -> TheoryOutcome {
        let mut implied: Vec<ImpliedBound> = Vec::new();
        let limit = 8 * self.cnf.num_atoms() + 64;
        if let Err(explanation) = theory.simplex.propagate_bounds(limit, &mut implied) {
            return TheoryOutcome::Conflict(explanation);
        }
        self.stats.implied_bounds += implied.len() as u64;
        let mut antecedents: Vec<Lit> = Vec::new();
        for bound in &implied {
            let Some(atom_ids) = theory.var_atoms.get(bound.var.index()) else {
                continue;
            };
            // Read once, at the first atom the bound decides: most bounds
            // decide none, and their explanations are never flattened.
            let mut explanation = None;
            for &atom_idx in atom_ids {
                let atom_idx = atom_idx as usize;
                let bool_var = self.cnf.atom_bool_var(atom_idx);
                if sat.var_value(bool_var).is_some() {
                    continue;
                }
                let (op, atom_bound) = self.cnf.atom_relation(atom_idx);
                let (_, scale) = theory.atom_slot[atom_idx];
                let Some(positive) = implied_polarity(op, atom_bound, scale, bound) else {
                    continue;
                };
                let explanation: &[Tag] =
                    explanation.get_or_insert_with(|| theory.simplex.explanation(bound));
                // A bound derived from the empty antecedent set is a
                // structural fact (constant row); there is no clause to
                // attach for it.
                if explanation.is_empty() {
                    break;
                }
                let lit = Lit::new(bool_var, positive);
                antecedents.clear();
                antecedents.extend(explanation.iter().map(|&tag| Lit::from(tag)));
                // The implication clause about to be attached lives until the
                // check ends, and no validation step sees it, so it gets a
                // conflict's distrust here: re-verify on a fresh mini-tableau
                // (antecedents plus the negated conclusion must be
                // infeasible) before attaching. Propagated literals are few
                // (tens to hundreds per query) so this stays off the hot
                // path; a failed check signals pivot-degraded row data
                // (threshold-constrained VSC queries reach this through
                // propagation's robustness padding) and simply skips the
                // literal, which is always sound.
                let mut refutation = explanation.to_vec();
                refutation.push(Tag::from(lit.negated()));
                if self.explanation_feasible(&refutation) {
                    continue;
                }
                if sat.propagate_theory_literal(lit, &antecedents) {
                    self.stats.propagated_literals += 1;
                } else {
                    // The implied literal is already false on the trail: the
                    // implication clause itself is a theory conflict.
                    return TheoryOutcome::Conflict(refutation);
                }
            }
        }
        TheoryOutcome::Consistent(Vec::new())
    }
}

/// Recursive finiteness walk over a formula's atoms (the
/// [`SmtSolver::assert`] boundary check).
fn formula_is_finite(formula: &Formula) -> bool {
    match formula {
        Formula::True | Formula::False | Formula::BoolVar(_) => true,
        Formula::Atom(constraint) => constraint.is_finite(),
        Formula::Not(inner) => formula_is_finite(inner),
        Formula::And(parts) | Formula::Or(parts) => parts.iter().all(formula_is_finite),
    }
}

/// Decides whether a derived bound on an atom's tableau variable fixes the
/// atom's truth value. `scale · var ⋈ bound` is normalised to variable space
/// by [`relation_bound`], as [`Simplex::assert_bound`] does; only real-part
/// dominance with a robustness clearance is used — at that distance neither
/// the infinitesimal components of strict bounds nor the propagation padding
/// can flip the verdict, so missed borderline propagations are the only
/// cost.
fn implied_polarity(op: RelOp, bound: f64, scale: f64, derived: &ImpliedBound) -> Option<bool> {
    /// Minimum real-part clearance between a derived bound and an atom's
    /// bound before the atom is considered decided.
    const CLEAR: f64 = 1e-9;
    // `None` for an equality atom: they are split during CNF conversion.
    let (atom_side, value) = relation_bound(op, scale, bound)?;
    // A derived bound clearing the atom's bound on its side decides the atom:
    // it holds when both bound the same side, and is violated otherwise.
    let clears = derived
        .side
        .inside_by(derived.value.real, value.real, CLEAR);
    clears.then_some(atom_side == derived.side)
}

/// An explanation tag is the index of the literal that asserted its bound:
/// the one place the two convert.
impl From<Lit> for Tag {
    fn from(lit: Lit) -> Tag {
        Tag::new(lit.index())
    }
}

impl From<Tag> for Lit {
    fn from(tag: Tag) -> Lit {
        Lit::from_index(tag.index())
    }
}

/// The verdict of a theory check, and of each of its steps.
enum TheoryOutcome {
    /// Theory-consistent. The model is only materialised for checks at a
    /// full propositional assignment; partial checks carry an empty vector.
    Consistent(Vec<f64>),
    /// Infeasible with a bound-tag explanation, which the DPLL(T) loop
    /// turns into the clause that blocks it.
    Conflict(Vec<Tag>),
    /// The pivot budget was exhausted or only numerically degenerate pivots
    /// remained: the tableau needs a rebuild.
    Diverged,
    /// The governor tripped (deadline, cancellation or pivot budget) during
    /// the theory check; the check ends with [`SmtError::Interrupted`].
    Interrupted,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Constraint, LinExpr};

    fn pool2() -> (VarPool, VarId, VarId) {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        (pool, x, y)
    }

    /// Expressions, constraints and formulas move and are shared between
    /// threads, and a solver survives a caught panic (the CEGIS run boundary
    /// catches one around each query).
    #[test]
    fn public_types_keep_their_auto_traits() {
        use std::panic::{RefUnwindSafe, UnwindSafe};
        fn shared<T: Send + Sync + Unpin + UnwindSafe + RefUnwindSafe>() {}
        fn unwind_safe<T: Unpin + UnwindSafe>() {}
        shared::<LinExpr>();
        shared::<Constraint>();
        shared::<Formula>();
        unwind_safe::<SmtSolver>();
    }

    #[test]
    fn solver_stats_display_lists_every_counter() {
        let stats = SolverStats {
            decisions: 1,
            conflicts: 2,
            theory_checks: 3,
            theory_conflicts: 4,
            pivots: 5,
            theory_rebuilds: 6,
            simplex_nanos: 7_000_000,
            implied_bounds: 8,
            propagated_literals: 9,
            explanation_literals: 10,
            queue_pops: 11,
            restarts: 12,
            clauses_deleted: 13,
            scopes_reused: 14,
        };
        assert_eq!(
            stats.to_string(),
            "decisions=1 conflicts=2 theory_checks=3 theory_conflicts=4 pivots=5 \
             theory_rebuilds=6 implied_bounds=8 propagated_literals=9 \
             explanation_literals=10 queue_pops=11 restarts=12 clauses_deleted=13 \
             scopes_reused=14 simplex_time=7ms"
        );
    }

    #[test]
    fn pure_conjunction_sat_with_model() {
        let (pool, x, y) = pool2();
        let mut solver = SmtSolver::new(pool);
        solver.assert(Formula::atom((LinExpr::var(x) + LinExpr::var(y)).le(2.0)));
        solver.assert(Formula::atom(LinExpr::var(x).ge(1.0)));
        solver.assert(Formula::atom(LinExpr::var(y).ge(0.5)));
        let model = solver.check().unwrap().expect_sat();
        assert!(model.value(x) >= 1.0 - 1e-9);
        assert!(model.value(y) >= 0.5 - 1e-9);
        assert!(model.value(x) + model.value(y) <= 2.0 + 1e-9);
    }

    #[test]
    fn pure_conjunction_unsat() {
        let (pool, x, y) = pool2();
        let mut solver = SmtSolver::new(pool);
        solver.assert(Formula::atom((LinExpr::var(x) + LinExpr::var(y)).le(1.0)));
        solver.assert(Formula::atom(LinExpr::var(x).ge(1.0)));
        solver.assert(Formula::atom(LinExpr::var(y).ge(0.5)));
        assert_eq!(solver.check().unwrap(), CheckResult::Unsat);
    }

    #[test]
    fn disjunction_requires_theory_reasoning() {
        let (pool, x, y) = pool2();
        let mut solver = SmtSolver::new(pool);
        // x >= 5 ∧ (x <= 1 ∨ y >= 3): the first disjunct is theory-infeasible,
        // so the solver must pick the second.
        solver.assert(Formula::atom(LinExpr::var(x).ge(5.0)));
        solver.assert(Formula::or(vec![
            Formula::atom(LinExpr::var(x).le(1.0)),
            Formula::atom(LinExpr::var(y).ge(3.0)),
        ]));
        let model = solver.check().unwrap().expect_sat();
        assert!(model.value(x) >= 5.0 - 1e-9);
        assert!(model.value(y) >= 3.0 - 1e-9);
    }

    #[test]
    fn negated_atoms_are_handled() {
        let (pool, x, _) = pool2();
        let mut solver = SmtSolver::new(pool);
        // ¬(x <= 1) ∧ x <= 3  ⇒  1 < x <= 3.
        solver.assert(Formula::not(Formula::atom(LinExpr::var(x).le(1.0))));
        solver.assert(Formula::atom(LinExpr::var(x).le(3.0)));
        let model = solver.check().unwrap().expect_sat();
        assert!(model.value(x) > 1.0);
        assert!(model.value(x) <= 3.0 + 1e-9);
    }

    #[test]
    fn strict_inequality_conflict_is_unsat() {
        let (pool, x, _) = pool2();
        let mut solver = SmtSolver::new(pool);
        solver.assert(Formula::atom(LinExpr::var(x).lt(1.0)));
        solver.assert(Formula::atom(LinExpr::var(x).gt(1.0)));
        assert_eq!(solver.check().unwrap(), CheckResult::Unsat);
    }

    #[test]
    fn equality_atoms_work_in_both_polarities() {
        let (pool, x, y) = pool2();
        let mut solver = SmtSolver::new(pool);
        solver.assert(Formula::atom(
            (LinExpr::var(x) + LinExpr::var(y)).eq_to(4.0),
        ));
        solver.assert(Formula::atom(
            (LinExpr::var(x) - LinExpr::var(y)).eq_to(2.0),
        ));
        let model = solver.check().unwrap().expect_sat();
        assert!((model.value(x) - 3.0).abs() < 1e-6);
        assert!((model.value(y) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn negated_equality_is_a_disjunction() {
        let (pool, x, _) = pool2();
        let mut solver = SmtSolver::new(pool);
        solver.assert(Formula::not(Formula::atom(LinExpr::var(x).eq_to(0.0))));
        solver.assert(Formula::atom(LinExpr::var(x).ge(-1.0)));
        solver.assert(Formula::atom(LinExpr::var(x).le(1.0)));
        let model = solver.check().unwrap().expect_sat();
        assert!(model.value(x).abs() > 1e-9, "x must differ from zero");
    }

    #[test]
    fn unsatisfiable_boolean_structure() {
        let (pool, x, _) = pool2();
        let a = Formula::atom(LinExpr::var(x).ge(0.0));
        let mut solver = SmtSolver::new(pool);
        solver.assert(Formula::and(vec![a.clone(), Formula::not(a)]));
        assert_eq!(solver.check().unwrap(), CheckResult::Unsat);
    }

    #[test]
    fn constants_only_query() {
        let pool = VarPool::new();
        let mut solver = SmtSolver::new(pool);
        solver.assert(Formula::True);
        assert!(solver.check().unwrap().is_sat());

        let pool = VarPool::new();
        let mut solver = SmtSolver::new(pool);
        solver.assert(Formula::False);
        assert_eq!(solver.check().unwrap(), CheckResult::Unsat);
    }

    /// Pigeonhole over free propositional variables: every pigeon sits in
    /// some hole, and no two pigeons share one.
    fn pigeonhole(pigeons: usize, holes: usize) -> Vec<Formula> {
        let mut bools = crate::BoolVarPool::new();
        let sits: Vec<Vec<Formula>> = (0..pigeons)
            .map(|_| {
                (0..holes)
                    .map(|_| Formula::BoolVar(bools.fresh()))
                    .collect()
            })
            .collect();
        let mut formulas: Vec<Formula> = sits.iter().cloned().map(Formula::or).collect();
        for hole in 0..holes {
            for i in 0..pigeons {
                for k in i + 1..pigeons {
                    formulas.push(Formula::or(vec![
                        Formula::not(sits[i][hole].clone()),
                        Formula::not(sits[k][hole].clone()),
                    ]));
                }
            }
        }
        formulas
    }

    #[test]
    fn atom_less_queries_run_the_dpllt_loop() {
        let (pool, _, _) = pool2();
        let mut solver = SmtSolver::new(pool);
        solver.assert(Formula::and(pigeonhole(2, 2)));
        let model = solver.check().unwrap().expect_sat();
        assert_eq!(model.values(), &[0.0, 0.0]);

        let (pool, _, _) = pool2();
        let mut solver = SmtSolver::new(pool);
        solver.assert(Formula::and(pigeonhole(3, 2)));
        assert_eq!(solver.check().unwrap(), CheckResult::Unsat);
        let interrupted_by = |solver: &mut SmtSolver, budget: Budget| {
            solver.set_budget(budget);
            solver.check().unwrap_err().interrupt_reason()
        };
        assert_eq!(
            interrupted_by(&mut solver, Budget::unlimited().with_conflict_cap(0)),
            Some(InterruptReason::ConflictBudget)
        );
        assert_eq!(
            interrupted_by(
                &mut solver,
                Budget::unlimited().with_timeout(std::time::Duration::ZERO)
            ),
            Some(InterruptReason::Deadline)
        );
        solver.cancel_token().cancel();
        assert_eq!(
            interrupted_by(&mut solver, Budget::unlimited()),
            Some(InterruptReason::Cancelled)
        );
        solver.cancel_token().reset();
        assert_eq!(solver.check().unwrap(), CheckResult::Unsat);
    }

    #[test]
    fn implication_chain_over_reals() {
        // (x >= 1 → y >= 2) ∧ (y >= 2 → x + y >= 3.5) ∧ x >= 1, with y <= 10.
        let (pool, x, y) = pool2();
        let mut solver = SmtSolver::new(pool);
        solver.assert(Formula::implies(
            Formula::atom(LinExpr::var(x).ge(1.0)),
            Formula::atom(LinExpr::var(y).ge(2.0)),
        ));
        solver.assert(Formula::implies(
            Formula::atom(LinExpr::var(y).ge(2.0)),
            Formula::atom((LinExpr::var(x) + LinExpr::var(y)).ge(3.5)),
        ));
        solver.assert(Formula::atom(LinExpr::var(x).ge(1.0)));
        solver.assert(Formula::atom(LinExpr::var(y).le(10.0)));
        let model = solver.check().unwrap().expect_sat();
        assert!(model.value(y) >= 2.0 - 1e-9);
        assert!(model.value(x) + model.value(y) >= 3.5 - 1e-9);
    }

    #[test]
    fn stats_are_populated() {
        let (pool, x, y) = pool2();
        let mut solver = SmtSolver::new(pool);
        solver.assert(Formula::or(vec![
            Formula::atom(LinExpr::var(x).ge(1.0)),
            Formula::atom(LinExpr::var(y).ge(1.0)),
        ]));
        solver.check().unwrap();
        assert!(solver.stats().theory_checks >= 1);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let (pool, x, y) = pool2();
        let mut solver = SmtSolver::new(pool);
        solver.set_budget(Budget::unlimited().with_conflict_cap(0));
        // Force at least one conflict so the zero budget trips.
        let a = Formula::atom(LinExpr::var(x).ge(1.0));
        let b = Formula::atom(LinExpr::var(y).ge(1.0));
        solver.assert(Formula::or(vec![a.clone(), b.clone()]));
        solver.assert(Formula::or(vec![Formula::not(a), Formula::not(b)]));
        // With a zero conflict budget the check either finishes without any
        // conflict or reports exhaustion; both are acceptable, but it must not
        // loop forever.
        let _ = solver.check();
    }

    #[test]
    fn check_assuming_releases_extra_assertions() {
        let (pool, x, y) = pool2();
        let mut solver = SmtSolver::new(pool);
        solver.assert(Formula::atom(LinExpr::var(x).ge(1.0)));
        assert!(solver.check().unwrap().is_sat());
        // The round's atom owns a new row, so the solver holds its
        // expression during the call and gives it back.
        let lent = || [Formula::atom((LinExpr::var(x) + LinExpr::var(y)).le(0.0))];
        let mut extra = lent();
        assert!(solver.check_assuming(&mut extra).unwrap().is_sat());
        assert_eq!(extra, lent());
        let mut extra = [Formula::atom(LinExpr::var(x).le(0.0))];
        assert_eq!(
            solver.check_assuming(&mut extra).unwrap(),
            CheckResult::Unsat
        );
        let model = solver.check().unwrap().expect_sat();
        assert!(model.value(x) >= 1.0 - 1e-9);
    }

    /// The literal tag of `constraint`'s atom in `solver`'s CNF, of the
    /// given polarity.
    fn tag_of(solver: &SmtSolver, constraint: &Constraint, positive: bool) -> Tag {
        let atom = (0..solver.cnf.num_atoms())
            .position(|i| solver.cnf.atom_constraint(i, true) == *constraint)
            .expect("an encoded atom");
        Tag::from(Lit::new(solver.cnf.atom_bool_var(atom), positive))
    }

    /// A base-atom explanation is solved on first sight, and its verdict,
    /// infeasible or feasible, is the solve's; the next re-check reads the
    /// stored verdict instead of solving (a stored verdict flipped by hand
    /// comes back flipped).
    #[test]
    fn base_explanations_are_solved_once() {
        let (pool, x, y) = pool2();
        let x_ge = LinExpr::var(x).ge(1.0);
        let x_le = LinExpr::var(x).le(0.0);
        let y_ge = LinExpr::var(y).ge(1.0);
        let mut solver = SmtSolver::new(pool);
        solver.assert(Formula::or(vec![
            Formula::atom(x_ge.clone()),
            Formula::atom(y_ge.clone()),
        ]));
        solver.assert(Formula::atom(x_le.clone()));
        assert!(solver.check().unwrap().is_sat());
        let infeasible = [tag_of(&solver, &x_ge, true), tag_of(&solver, &x_le, true)];
        let feasible = [tag_of(&solver, &x_le, true), tag_of(&solver, &y_ge, true)];
        for (tags, verdict) in [(infeasible, false), (feasible, true)] {
            assert_eq!(solver.solve_explanation(&tags), verdict);
            assert_eq!(solver.explanation_feasible(&tags), verdict);
            assert_eq!(solver.recheck_memo.get(&tags[..]), Some(&verdict));
            solver.recheck_memo.insert(tags.to_vec(), !verdict);
            assert_eq!(solver.explanation_feasible(&tags), !verdict);
            solver.recheck_memo.insert(tags.to_vec(), verdict);
        }
    }

    /// The base conflicts a round re-checks recur in every later round with
    /// the same base, and are read from the memo there: the second round
    /// stores no new key and repeats the first one's search, and flipping
    /// the stored verdicts makes the third round rebuild at each conflict,
    /// which a re-solve would not.
    #[test]
    fn repeated_base_conflicts_read_the_memo_across_rounds() {
        let (pool, x, y) = pool2();
        let mut solver = SmtSolver::new(pool);
        solver.assert(Formula::or(vec![
            Formula::atom(LinExpr::var(x).ge(1.0)),
            Formula::atom(LinExpr::var(y).ge(1.0)),
        ]));
        solver.assert(Formula::atom(LinExpr::var(x).le(0.0)));
        solver.assert(Formula::atom(LinExpr::var(y).le(0.0)));
        let mut round = [Formula::atom((LinExpr::var(x) + LinExpr::var(y)).le(5.0))];
        // The work counters of a round's search.
        let search = |stats: SolverStats| SolverStats {
            simplex_nanos: 0,
            scopes_reused: 0,
            ..stats
        };
        assert_eq!(
            solver.check_assuming(&mut round).unwrap(),
            CheckResult::Unsat
        );
        let first = search(solver.stats());
        let keys = solver.recheck_memo.len();
        assert!(keys > 0, "the round re-checked base conflicts");
        assert!(solver.recheck_memo.values().all(|&feasible| !feasible));
        assert_eq!(first.theory_rebuilds, 0);

        assert_eq!(
            solver.check_assuming(&mut round).unwrap(),
            CheckResult::Unsat
        );
        assert_eq!(search(solver.stats()), first);
        assert_eq!(solver.recheck_memo.len(), keys);

        for feasible in solver.recheck_memo.values_mut() {
            *feasible = true;
        }
        assert_eq!(
            solver.check_assuming(&mut round).unwrap(),
            CheckResult::Unsat
        );
        assert_eq!(solver.stats().theory_rebuilds, first.theory_conflicts);
    }

    /// An explanation holding a round atom is solved at every re-check and
    /// never stored: after a release, the next round's atom takes the same
    /// literal for another bound, where the first round's verdict is wrong.
    #[test]
    fn round_atom_explanations_are_solved_every_time() {
        let (pool, x, _) = pool2();
        let x_ge = LinExpr::var(x).ge(1.0);
        let mut solver = SmtSolver::new(pool);
        solver.assert(Formula::atom(x_ge.clone()));
        let mut tight = [Formula::atom(LinExpr::var(x).le(0.5))];
        assert_eq!(
            solver.check_assuming(&mut tight).unwrap(),
            CheckResult::Unsat
        );
        assert_eq!(solver.stats().theory_conflicts, 1);
        assert!(
            solver.recheck_memo.is_empty(),
            "a round conflict is not stored"
        );

        // The same literal for two bounds, as two rounds of
        // `check_assuming` encode and release them.
        let base = tag_of(&solver, &x_ge, true);
        let mut rounds = Vec::new();
        for bound in [0.5, 2.0] {
            let mark = solver.cnf.mark();
            let round = LinExpr::var(x).le(bound);
            solver.cnf.assert_formula(Formula::atom(round.clone()));
            let tags = [base, tag_of(&solver, &round, true)];
            rounds.push((tags, solver.explanation_feasible(&tags)));
            assert!(solver.recheck_memo.is_empty(), "bound {bound}");
            solver.cnf.release_to(mark, &mut []);
        }
        assert_eq!(rounds[0].0, rounds[1].0, "the literal is reused");
        assert_eq!([rounds[0].1, rounds[1].1], [false, true]);
    }

    /// `assert` empties the memo together with the image, and a memo holding
    /// [`RECHECK_MEMO_CAP`] keys is cleared before the next verdict is
    /// stored.
    #[test]
    fn recheck_memo_is_dropped_with_the_base_and_capped() {
        let (pool, x, y) = pool2();
        let x_ge = LinExpr::var(x).ge(1.0);
        let x_le = LinExpr::var(x).le(0.0);
        let mut solver = SmtSolver::new(pool);
        solver.assert(Formula::atom(x_ge.clone()));
        solver.assert(Formula::or(vec![
            Formula::atom(x_le.clone()),
            Formula::atom(LinExpr::var(y).ge(0.0)),
        ]));
        assert!(solver.check().unwrap().is_sat());
        let tags = [tag_of(&solver, &x_ge, true), tag_of(&solver, &x_le, true)];
        assert!(!solver.explanation_feasible(&tags));
        assert!(!solver.recheck_memo.is_empty());
        solver.assert(Formula::atom(LinExpr::var(y).le(3.0)));
        assert!(solver.recheck_memo.is_empty(), "assert drops the memo");

        assert!(solver.check().unwrap().is_sat());
        solver.recheck_memo = (0..RECHECK_MEMO_CAP)
            .map(|i| (vec![Tag::from(Lit::new(i, false))], true))
            .collect();
        assert!(!solver.explanation_feasible(&tags));
        assert_eq!(solver.recheck_memo.len(), 1, "the cap clears the memo");
        assert_eq!(solver.recheck_memo.get(&tags[..]), Some(&false));
    }

    #[test]
    fn warm_checks_report_scope_reuse() {
        let (pool, x, _) = pool2();
        let mut solver = SmtSolver::new(pool);
        solver.assert(Formula::atom(LinExpr::var(x).ge(1.0)));
        solver.check().unwrap();
        assert_eq!(solver.stats().scopes_reused, 0, "first check is cold");
        let mut extra = [Formula::atom(LinExpr::var(x).le(3.0))];
        solver.check_assuming(&mut extra).unwrap();
        assert_eq!(solver.stats().scopes_reused, 1, "second check is warm");
    }

    /// Formulas that must be rejected at the API boundary: a NaN coefficient
    /// (added to an expression, or the single term of one), a +inf bound and
    /// a −inf bound, each buried in Boolean structure.
    fn non_finite_formulas(x: VarId, y: VarId) -> Vec<Formula> {
        let mut nan_coeff = LinExpr::var(y);
        nan_coeff.add_term(x, f64::NAN);
        assert!(!nan_coeff.is_finite());
        vec![
            Formula::or(vec![
                Formula::atom(nan_coeff.le(1.0)),
                Formula::atom(LinExpr::var(y).ge(0.0)),
            ]),
            Formula::and(vec![
                Formula::atom(LinExpr::var(y).ge(0.0)),
                Formula::atom(LinExpr::term(x, f64::NAN).le(1.0)),
            ]),
            Formula::not(Formula::atom(LinExpr::var(x).le(f64::INFINITY))),
            Formula::and(vec![
                Formula::atom(LinExpr::var(x).le(1.0)),
                Formula::atom(LinExpr::var(y).ge(f64::NEG_INFINITY)),
            ]),
        ]
    }

    #[test]
    fn non_finite_assertions_are_rejected_at_the_boundary() {
        let (pool, x, y) = pool2();
        let base = [
            Formula::atom((LinExpr::var(x) + LinExpr::var(y)).le(2.0)),
            Formula::atom(LinExpr::var(x).ge(0.5)),
        ];
        let fresh = || {
            let mut solver = SmtSolver::new(pool.clone());
            for f in &base {
                solver.assert(f.clone());
            }
            solver
        };
        let reference = fresh().check().unwrap();
        for bad in non_finite_formulas(x, y) {
            // Via `assert`: every later check of that solver fails.
            let mut poisoned = fresh();
            poisoned.assert(bad.clone());
            for _ in 0..2 {
                assert_eq!(poisoned.check(), Err(SmtError::NonFiniteAssertion), "{bad}");
            }
            // Via `check_assuming`: only that call fails, and the solver then
            // matches a fresh one.
            let mut warm = fresh();
            let mut extra = [Formula::atom(LinExpr::var(y).ge(0.25)), bad.clone()];
            assert_eq!(
                warm.check_assuming(&mut extra),
                Err(SmtError::NonFiniteAssertion),
                "{bad}"
            );
            assert_eq!(warm.check().unwrap(), reference, "{bad}");
        }
    }

    #[test]
    fn model_values_default_to_zero_for_unconstrained_vars() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let unused = pool.fresh("unused");
        let mut solver = SmtSolver::new(pool);
        solver.assert(Formula::atom(LinExpr::var(x).ge(1.0)));
        let model = solver.check().unwrap().expect_sat();
        assert!(model.value(x) >= 1.0 - 1e-9);
        assert_eq!(model.value(unused), 0.0);
        assert_eq!(model.values().len(), 2);
    }
}
