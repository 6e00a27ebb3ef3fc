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
//! # Dense slot layout
//!
//! Every slack starts basic and every problem variable nonbasic, and a pivot
//! swaps one of each, so exactly `num_problem_vars` variables are nonbasic at
//! any time. The tableau is therefore one flat row-major `Vec<f64>` with one
//! coefficient per nonbasic *slot*: a pivot hands the entering variable's
//! slot to the leaving one, a column is one slot scanned across the rows,
//! and eliminating the entering variable from a row is a branch-free axpy
//! with the rewritten pivot row. A slot list kept sorted by variable index
//! reads any row in variable order (the order Bland's rule and the row sums
//! of bound propagation depend on), and an exact zero (of either sign) is an
//! absent entry.
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

use std::cmp::Ordering;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use crate::budget::Governor;
use crate::expr::ExprIndex;
use crate::{Constraint, LinExpr, RelOp};

/// Comparison tolerance on the real part of a [`Delta`] value.
const REAL_EPS: f64 = 1e-11;

/// Row entries with magnitude at or below this threshold are treated as the
/// cancellation residue of pivot arithmetic and dropped. Trade-off: sitting
/// 10× above [`LinExpr`]'s 1e-12 construction floor filters residue
/// reliably, but a *genuine* merged coefficient landing in (1e-12, 1e-11]
/// is dropped too, perturbing that row by up to ~1e-11·‖x‖ — inside the
/// solver's feasibility tolerances, and the DPLL(T) layer additionally
/// validates models and conflict explanations against the original
/// constraints.
const DROP_EPS: f64 = 1e-11;

/// Minimum magnitude of a pivot element. Pivoting on a smaller coefficient
/// multiplies the row by more than 1e7, amplifying accumulated float error
/// past the feasibility tolerances; such entries are treated as zero when
/// selecting an entering variable.
const PIVOT_EPS: f64 = 1e-7;

/// Minimum real-part improvement a derived bound must make over the
/// installed one before it is worth recording. Without a floor, cascades of
/// marginally-tighter re-derivations (each legal under the 1e-11 comparison
/// tolerance) dominate propagation time while contributing nothing the
/// literal-fixing clearance (1e-9) can use.
const PROP_IMPROVE: f64 = 1e-7;

/// Maximum implication-chain depth per propagation call: bounds derived at
/// this depth still install (and can fix literals) but do not seed further
/// derivations. Depth 0 is an asserted bound; the payoff chain
/// `asserted atom → shared problem vars → implied atoms at other instants`
/// completes at depth 2, and deeper refinement cones grow combinatorially
/// for marginal tightening.
const PROP_MAX_DEPTH: u8 = 3;

/// Outward padding applied to bounds derived by theory propagation
/// ([`Simplex::propagate_bounds`]): a derived upper bound is raised and a
/// derived lower bound lowered by this amount. The interval sums behind a
/// derived bound are computed in `f64`, so without slack a bound could end up
/// infinitesimally tighter than the exact implication and fabricate a
/// conflict; the padding dwarfs the round-off of the short sums involved
/// while staying far below the 1e-6 robustness margins of the CPS encodings.
const PROP_PAD: f64 = 1e-9;

/// Pivots between governor polls in [`Simplex::solve_bounded`]. One poll is
/// two relaxed atomic loads (plus an `Instant::now()` when a deadline is
/// set); batching 64 pivots between polls keeps the measured overhead on the
/// pivot path well under 1% while still bounding the cancellation latency to
/// a few microseconds of pivot work.
const PIVOT_CHECK_BATCH: u64 = 64;

/// A value of the form `real + delta·ε` where `ε` is an arbitrarily small
/// positive infinitesimal, used to represent strict bounds exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delta {
    /// Real part.
    pub real: f64,
    /// Coefficient of the infinitesimal ε.
    pub delta: f64,
}

impl Delta {
    /// A purely real value.
    pub fn real(value: f64) -> Self {
        Self {
            real: value,
            delta: 0.0,
        }
    }

    /// A value with an explicit infinitesimal component.
    pub fn with_delta(real: f64, delta: f64) -> Self {
        Self { real, delta }
    }

    /// Addition.
    pub fn add(self, other: Delta) -> Delta {
        Delta {
            real: self.real + other.real,
            delta: self.delta + other.delta,
        }
    }

    /// Subtraction.
    pub fn sub(self, other: Delta) -> Delta {
        Delta {
            real: self.real - other.real,
            delta: self.delta - other.delta,
        }
    }

    /// Multiplication by a real scalar.
    pub fn scale(self, factor: f64) -> Delta {
        Delta {
            real: self.real * factor,
            delta: self.delta * factor,
        }
    }

    /// Lexicographic comparison (real part first, then infinitesimal part),
    /// with a small tolerance on the real part.
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

    /// `self < other` in the δ-ordering.
    pub fn lt(&self, other: &Delta) -> bool {
        self.cmp_delta(other) == Ordering::Less
    }

    /// `self > other` in the δ-ordering.
    pub fn gt(&self, other: &Delta) -> bool {
        self.cmp_delta(other) == Ordering::Greater
    }

    /// Concretises the value by substituting `epsilon` for ε.
    pub fn concretize(&self, epsilon: f64) -> f64 {
        self.real + self.delta * epsilon
    }
}

impl fmt::Display for Delta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.delta == 0.0 {
            write!(f, "{}", self.real)
        } else {
            write!(f, "{} + {}ε", self.real, self.delta)
        }
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
    Infeasible(Vec<usize>),
}

impl SimplexResult {
    /// Returns `true` for [`SimplexResult::Feasible`].
    pub fn is_feasible(&self) -> bool {
        matches!(self, SimplexResult::Feasible(_))
    }
}

/// Why a bound is installed, in one word: asserted by the caller with an
/// explanation tag, or derived by theory propagation, as the index of its
/// node in the [`ImplicationGraph`].
#[derive(Debug, Clone, Copy)]
enum Reason {
    /// Installed by [`Simplex::assert_bound`] with this explanation tag.
    Asserted(u32),
    /// Derived by [`Simplex::propagate_bounds`]; the index of its node.
    Derived(u32),
}

/// Reused scratch set every explanation is flattened through.
///
/// The reasons behind one derived bound repeat most of their tags (the
/// derived contributors of a row share their own explanations), so each tag
/// is marked once and only the distinct tags are sorted.
#[derive(Debug, Default)]
struct TagSet {
    /// `marked[t]` iff tag `t` is in `tags`.
    marked: Vec<bool>,
    /// The current union's tags, each once.
    tags: Vec<usize>,
}

impl TagSet {
    /// Empties the set.
    fn clear(&mut self) {
        for &tag in &self.tags {
            self.marked[tag] = false;
        }
        self.tags.clear();
    }

    fn insert(&mut self, tag: usize) {
        if tag >= self.marked.len() {
            self.marked.resize(tag + 1, false);
        }
        if !self.marked[tag] {
            self.marked[tag] = true;
            self.tags.push(tag);
        }
    }

    /// The set's tags, ascending.
    fn sorted(&mut self) -> &[usize] {
        self.tags.sort_unstable();
        &self.tags
    }
}

/// Names a node of the [`ImplicationGraph`]: its index, and its serial,
/// which no other node pushed at that index ever shares.
#[derive(Debug, Clone, Copy)]
struct NodeId {
    index: u32,
    serial: u64,
}

/// A derived bound's node in the [`ImplicationGraph`].
#[derive(Debug, Clone)]
struct Node {
    /// Position of the bound's entry on the bound trail.
    trail_pos: u32,
    /// The node's contributors: `contributors[start..end]` of the graph.
    start: u32,
    end: u32,
    /// Distinguishes this node from every other node ever pushed at the
    /// same index, so a retracted bound's handle cannot read a later one.
    serial: u64,
    /// The node's asserted tags, ascending, once flattened.
    memo: Option<Rc<[usize]>>,
}

/// The bound implication graph, owned by the bound trail: one node per
/// installed derived bound, listing the reasons of the bounds it was
/// computed from as they were installed at that moment. Asserted bounds are
/// its leaves and get no node.
///
/// A node's explanation — the asserted tags it was ultimately deduced from —
/// is flattened only when something reads it, and memoised. Nodes are never
/// changed after they are pushed (a tighter bound gets a new node), and a
/// node's contributors sit lower on the trail than the node itself, so
/// retracting the trail down to a mark drops a suffix of the nodes and
/// never a contributor of a surviving one.
#[derive(Debug, Default)]
struct ImplicationGraph {
    nodes: Vec<Node>,
    /// Every node's contributors, in node order.
    contributors: Vec<Reason>,
    /// Serial of the next node pushed; never decreases.
    next_serial: u64,
    /// Flattening scratch: the union being built, the roots of an
    /// explanation, and the nodes awaiting their memo.
    tag_set: TagSet,
    roots: Vec<Reason>,
    stack: Vec<u32>,
}

impl ImplicationGraph {
    /// Pushes the node of a bound about to be installed at trail position
    /// `trail_pos`, whose contributors were pushed onto
    /// [`ImplicationGraph::contributors`] since `start`.
    fn push(&mut self, trail_pos: usize, start: usize) -> NodeId {
        let id = NodeId {
            index: self.nodes.len() as u32,
            serial: self.next_serial,
        };
        self.nodes.push(Node {
            trail_pos: trail_pos as u32,
            start: start as u32,
            end: self.contributors.len() as u32,
            serial: id.serial,
            memo: None,
        });
        self.next_serial += 1;
        id
    }

    /// Drops the nodes of the bounds at or above trail position `mark`, with
    /// their contributors and memos.
    fn truncate(&mut self, mark: usize) {
        let keep = self
            .nodes
            .partition_point(|node| (node.trail_pos as usize) < mark);
        if let Some(first) = self.nodes.get(keep) {
            self.contributors.truncate(first.start as usize);
            self.nodes.truncate(keep);
        }
    }

    /// Restores `image`'s nodes and contributors, keeping at most
    /// `capacity` entries of idle capacity in each and in the flatten
    /// stack. The copied nodes get fresh serials, so no handle made before
    /// the restore names one.
    fn restore_from(&mut self, image: &ImplicationGraph, capacity: usize) {
        let ImplicationGraph {
            nodes,
            contributors,
            next_serial: _,
            tag_set: _,
            roots: _,
            stack: _,
        } = image;
        self.nodes.clone_from(nodes);
        self.contributors.clone_from(contributors);
        for node in &mut self.nodes {
            node.serial = self.next_serial;
            self.next_serial += 1;
        }
        self.nodes.shrink_to(capacity);
        self.contributors.shrink_to(capacity);
        self.stack.shrink_to(capacity);
    }

    /// The asserted tags behind `roots`, ascending and duplicate-free.
    fn explain(&mut self, roots: impl IntoIterator<Item = Reason>) -> Vec<usize> {
        let mut buffer = std::mem::take(&mut self.roots);
        buffer.clear();
        buffer.extend(roots);
        for &root in &buffer {
            if let Reason::Derived(node) = root {
                self.flatten(node);
            }
        }
        Self::union(&mut self.tag_set, &self.nodes, &buffer);
        self.roots = buffer;
        self.tag_set.sorted().to_vec()
    }

    /// The explanation of node `id`.
    ///
    /// # Panics
    ///
    /// Panics if that node was dropped since `id` was made.
    fn explanation(&mut self, id: NodeId) -> Rc<[usize]> {
        assert!(
            self.nodes
                .get(id.index as usize)
                .is_some_and(|node| node.serial == id.serial),
            "explanation asked for a retracted bound"
        );
        self.flatten(id.index);
        let memo = &self.nodes[id.index as usize].memo;
        Rc::clone(memo.as_ref().expect("the node is flattened"))
    }

    /// Fills `tag_set` with the tags of `reasons`, whose derived nodes are
    /// all flattened.
    fn union(tag_set: &mut TagSet, nodes: &[Node], reasons: &[Reason]) {
        tag_set.clear();
        for &reason in reasons {
            match reason {
                Reason::Asserted(tag) => tag_set.insert(tag as usize),
                Reason::Derived(node) => {
                    let memo = nodes[node as usize].memo.as_deref();
                    for &tag in memo.expect("the node is flattened") {
                        tag_set.insert(tag);
                    }
                }
            }
        }
    }

    /// Memoises the tags of `root` and of every node it reaches that has no
    /// memo yet. Iterative, children before parents: derivation chains can
    /// be deeper than the call stack.
    fn flatten(&mut self, root: u32) {
        let mut stack = std::mem::take(&mut self.stack);
        stack.clear();
        stack.push(root);
        while let Some(&node) = stack.last() {
            let Node {
                start,
                end,
                ref memo,
                ..
            } = self.nodes[node as usize];
            if memo.is_some() {
                stack.pop();
                continue;
            }
            let contributors = &self.contributors[start as usize..end as usize];
            let depth = stack.len();
            for &reason in contributors {
                if let Reason::Derived(child) = reason {
                    if self.nodes[child as usize].memo.is_none() {
                        stack.push(child);
                    }
                }
            }
            if stack.len() == depth {
                // Every derived contributor is flattened: take the union.
                stack.pop();
                Self::union(&mut self.tag_set, &self.nodes, contributors);
                self.nodes[node as usize].memo = Some(self.tag_set.sorted().into());
            }
        }
        self.stack = stack;
    }
}

#[derive(Debug, Clone, Copy)]
struct Bound {
    value: Delta,
    /// Provenance of this bound (see [`Reason`]).
    reason: Reason,
}

/// A variable bound derived by theory-level bound propagation
/// ([`Simplex::propagate_bounds`]). Its explanation is read through
/// [`Simplex::explanation`] while the bound is installed.
#[derive(Debug, Clone)]
pub struct ImpliedBound {
    /// Tableau variable the bound applies to.
    pub var: usize,
    /// `true` for an upper bound, `false` for a lower bound.
    pub is_upper: bool,
    /// The derived bound value (already padded outward by the propagation
    /// safety margin, so it is a sound consequence despite float round-off).
    pub value: Delta,
    /// The bound's node in the implication graph.
    node: NodeId,
}

/// [`Simplex::slot_of`] entry of a basic variable.
const NO_SLOT: u32 = u32::MAX;

/// One retractable bound update; popping restores the previous bound slot.
#[derive(Debug, Clone, Copy)]
struct TrailEntry {
    var: u32,
    is_upper: bool,
    previous: Option<Bound>,
}

/// Incremental feasibility engine for conjunctions of linear constraints.
///
/// # One-shot example
///
/// ```
/// use cps_smt::simplex::Simplex;
/// use cps_smt::{LinExpr, VarPool};
///
/// let mut pool = VarPool::new();
/// let x = pool.fresh("x");
/// let y = pool.fresh("y");
/// let constraints = vec![
///     ((LinExpr::var(x) + LinExpr::var(y)).le(2.0), 0),
///     (LinExpr::var(x).ge(1.5), 1),
///     (LinExpr::var(y).ge(1.0), 2),
/// ];
/// let result = Simplex::check(pool.len(), &constraints);
/// assert!(!result.is_feasible()); // 1.5 + 1.0 > 2
/// ```
///
/// # Incremental example
///
/// ```
/// use cps_smt::simplex::Simplex;
/// use cps_smt::{LinExpr, RelOp, VarPool};
///
/// let mut pool = VarPool::new();
/// let x = pool.fresh("x");
/// let y = pool.fresh("y");
/// let mut simplex = Simplex::new(pool.len());
/// // One row for x + y, bounded as often as needed.
/// let (sum, scale) = simplex.define(&(LinExpr::var(x) + LinExpr::var(y)));
/// simplex.assert_bound(sum, scale, RelOp::Ge, 1.0, 0).unwrap();
/// assert!(simplex.solve().is_ok());
/// let mark = simplex.mark();
/// simplex.assert_bound(sum, scale, RelOp::Le, 0.5, 1).unwrap_err();
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
#[derive(Debug)]
pub struct Simplex {
    /// Total number of variables (problem variables first, then slacks).
    num_vars: usize,
    /// Number of original problem variables — also the number of nonbasic
    /// variables, hence the tableau width.
    num_problem_vars: usize,
    /// Row-major tableau: row `r` (`num_problem_vars` coefficients, one per
    /// nonbasic slot) expresses the basic variable `row_owner[r]` as a
    /// linear combination of the nonbasic variables. Zeros are `+0.0`.
    tableau: Vec<f64>,
    row_owner: Vec<usize>,
    /// `basic_row[v] = Some(r)` iff variable `v` is basic and owns row `r`.
    basic_row: Vec<Option<usize>>,
    /// Tableau slot of each nonbasic variable ([`NO_SLOT`] when basic).
    slot_of: Vec<u32>,
    /// The nonbasic variable occupying each slot.
    slot_var: Vec<u32>,
    /// All slots, sorted by the index of the variable occupying them.
    slot_order: Vec<u32>,
    /// Scratch buffers reused across pivots and propagation calls: one
    /// column as `(row, coefficient)` pairs, the rewritten pivot row, and
    /// one row as `(variable, coefficient)` terms.
    col_buf: Vec<(u32, f64)>,
    pivot_buf: Vec<f64>,
    terms_buf: Vec<(u32, f64)>,
    /// The implication graph of the installed derived bounds, which every
    /// explanation is flattened through.
    graph: ImplicationGraph,
    lower: Vec<Option<Bound>>,
    upper: Vec<Option<Bound>>,
    assignment: Vec<Delta>,
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
    /// processing one wave form the next (deeper) wave.
    dirty: Vec<u32>,
    /// Whether bound installs feed the worklist (see
    /// [`Simplex::set_bound_tracking`]).
    track_implied: bool,
    /// Budget/cancellation governor installed by the DPLL(T) driver. Polled
    /// every [`PIVOT_CHECK_BATCH`] pivots inside the solve loop; `None` (the
    /// default, and always the case for [`Simplex::check`]) costs one branch
    /// per batch boundary.
    governor: Option<Arc<Governor>>,
}

impl Simplex {
    /// Creates an empty engine over `num_problem_vars` problem variables with
    /// no bounds asserted.
    pub fn new(num_problem_vars: usize) -> Self {
        let slots: Vec<u32> = (0..num_problem_vars as u32).collect();
        Simplex {
            num_vars: num_problem_vars,
            num_problem_vars,
            tableau: Vec::new(),
            row_owner: Vec::new(),
            basic_row: vec![None; num_problem_vars],
            slot_of: slots.clone(),
            slot_var: slots.clone(),
            slot_order: slots,
            col_buf: Vec::new(),
            pivot_buf: Vec::new(),
            terms_buf: Vec::new(),
            graph: ImplicationGraph::default(),
            lower: vec![None; num_problem_vars],
            upper: vec![None; num_problem_vars],
            assignment: vec![Delta::real(0.0); num_problem_vars],
            trail: Vec::new(),
            pivots: 0,
            queue_pops: 0,
            dirty: Vec::new(),
            track_implied: false,
            governor: None,
        }
    }

    /// Installs the budget/cancellation governor polled during the solve
    /// loop. Pivot counts are reported to it in amortised batches.
    pub(crate) fn set_governor(&mut self, governor: Arc<Governor>) {
        self.governor = Some(governor);
    }

    /// Enables or disables the propagation worklist (disabled by default —
    /// only callers that actually drain it via [`Simplex::propagate_bounds`]
    /// should enable it, otherwise every tighter bound install appends a
    /// worklist entry that nothing drains).
    pub fn set_bound_tracking(&mut self, enabled: bool) {
        self.track_implied = enabled;
        if !enabled {
            self.dirty.clear();
        }
    }

    /// Checks satisfiability of the conjunction of `constraints` over
    /// `num_problem_vars` problem variables. Each constraint carries an opaque
    /// `tag` that is echoed back in infeasibility explanations.
    ///
    /// One-shot convenience wrapper over the incremental engine. Constraints
    /// over the same terms (bit-exact coefficients) share one tableau row,
    /// defined where the first of them appears.
    pub fn check(num_problem_vars: usize, constraints: &[(Constraint, usize)]) -> SimplexResult {
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
    fn assert_all(&mut self, constraints: &[(Constraint, usize)]) -> Result<(), Vec<usize>> {
        let mut exprs = ExprIndex::default();
        let mut slots: Vec<(usize, f64)> = Vec::with_capacity(constraints.len());
        for (i, (constraint, tag)) in constraints.iter().enumerate() {
            let owner = exprs.owner(i, constraint.expr(), |j| constraints[j].0.expr());
            let slot = if owner == i {
                self.define(constraint.expr())
            } else {
                slots[owner]
            };
            slots.push(slot);
            self.assert_bound(slot.0, slot.1, constraint.op(), constraint.bound(), *tag)?;
        }
        Ok(())
    }

    /// Restores this engine to `image`'s state, reusing this engine's
    /// allocations: a restore between equally sized states allocates
    /// nothing. Scratch buffers keep their contents (every use clears them
    /// first) and the governor is cleared.
    ///
    /// The bound trail, the implication graph and the propagation worklist
    /// keep at most one entry of capacity per tableau variable: a large
    /// query grows them far past that, and an idle engine should not hold
    /// its high-water mark.
    pub(crate) fn restore_from(&mut self, image: &Simplex) {
        // Exhaustive: a field added later must be restored or listed here.
        let Simplex {
            num_vars,
            num_problem_vars,
            tableau,
            row_owner,
            basic_row,
            slot_of,
            slot_var,
            slot_order,
            col_buf: _,
            pivot_buf: _,
            terms_buf: _,
            graph,
            lower,
            upper,
            assignment,
            trail,
            pivots,
            queue_pops,
            dirty,
            track_implied,
            governor: _,
        } = image;
        self.num_vars = *num_vars;
        self.num_problem_vars = *num_problem_vars;
        self.tableau.clone_from(tableau);
        self.row_owner.clone_from(row_owner);
        self.basic_row.clone_from(basic_row);
        self.slot_of.clone_from(slot_of);
        self.slot_var.clone_from(slot_var);
        self.slot_order.clone_from(slot_order);
        self.lower.clone_from(lower);
        self.upper.clone_from(upper);
        self.assignment.clone_from(assignment);
        self.trail.clone_from(trail);
        self.graph.restore_from(graph, *num_vars);
        self.pivots = *pivots;
        self.queue_pops = *queue_pops;
        self.dirty.clone_from(dirty);
        self.track_implied = *track_implied;
        self.governor = None;
        self.trail.shrink_to(self.num_vars);
        self.dirty.shrink_to(self.num_vars);
    }

    /// Total pivots performed since construction.
    pub fn pivots(&self) -> u64 {
        self.pivots
    }

    /// Total leaving-row selections since construction. Each is one scan of
    /// the basic variables: one per pivot, plus one per solve that ends
    /// without a pivot on its last selection (feasible, a conflict row or a
    /// degenerate dead end).
    pub fn queue_pops(&self) -> u64 {
        self.queue_pops
    }

    /// Registers the left-hand side of a constraint and returns the tableau
    /// variable (and the scale to apply to bounds) representing it.
    ///
    /// Single-variable expressions `c·x` map directly to `(x, c)`; every
    /// other expression gets a new slack variable `s = expr` backed by a new
    /// tableau row, on every call. The engine keeps no expression index: a
    /// caller bounding one expression several times defines it once and
    /// passes the returned slot to [`Simplex::assert_bound`] each time. The
    /// [`SmtSolver`](crate::SmtSolver) and [`Simplex::check`] share rows
    /// between constraints over the same terms (bit-exact coefficients).
    pub fn define(&mut self, expr: &LinExpr) -> (usize, f64) {
        if let Some((var, coeff)) = Self::single_var(expr) {
            return (var, coeff);
        }
        // Express the new row over *nonbasic* variables: substitute the
        // definition of any variable that has already become basic. Adding a
        // zero entry of a substituted row changes nothing, and `0.0 + c` is
        // `c`, so the row equals the sum over the expression's terms.
        let row_idx = self.row_owner.len();
        let width = self.num_problem_vars;
        let start = row_idx * width;
        self.tableau.resize(start + width, 0.0);
        let (rows, new_row) = self.tableau.split_at_mut(start);
        for (v, c) in expr.terms() {
            match self.basic_row[v.index()] {
                None => new_row[self.slot_of[v.index()] as usize] += c,
                Some(r) => {
                    let basic_row = &rows[r * width..(r + 1) * width];
                    for (sum, &rc) in new_row.iter_mut().zip(basic_row) {
                        *sum += c * rc;
                    }
                }
            }
        }
        let slack = self.num_vars;
        self.num_vars += 1;
        self.row_owner.push(slack);
        self.basic_row.push(Some(row_idx));
        self.slot_of.push(NO_SLOT);
        self.lower.push(None);
        self.upper.push(None);
        self.assignment.push(Delta::real(0.0));
        self.assignment[slack] = self.row_value(row_idx);
        (slack, 1.0)
    }

    /// Installs the bound `scale · var ⋈ bound` (as produced by
    /// [`Simplex::define`]) with the given explanation tag, which is echoed
    /// back in infeasibility explanations.
    ///
    /// # Errors
    ///
    /// Returns the asserted tags behind the conflicting bound pair when the
    /// new bound contradicts the currently installed opposite bound of `var`,
    /// ascending and duplicate-free (the
    /// [explanation contract](Simplex#explanations)). `RelOp::Eq` installs
    /// two bounds; on conflict the first may remain installed — callers that
    /// need atomic retraction should [`Simplex::mark`] first and
    /// [`Simplex::pop_to`] on error.
    ///
    /// # Panics
    ///
    /// Panics if `tag` does not fit in 32 bits.
    pub fn assert_bound(
        &mut self,
        var: usize,
        scale: f64,
        op: RelOp,
        bound: f64,
        tag: usize,
    ) -> Result<(), Vec<usize>> {
        let tag = u32::try_from(tag).expect("explanation tags fit in 32 bits");
        // `scale · var ⋈ bound` — dividing by a negative coefficient flips
        // the comparison direction.
        let value = bound / scale;
        let flip = scale < 0.0;
        let (is_upper, value) = match (op, flip) {
            (RelOp::Le, false) | (RelOp::Ge, true) => (true, Delta::real(value)),
            (RelOp::Lt, false) | (RelOp::Gt, true) => (true, Delta::with_delta(value, -1.0)),
            (RelOp::Ge, false) | (RelOp::Le, true) => (false, Delta::real(value)),
            (RelOp::Gt, false) | (RelOp::Lt, true) => (false, Delta::with_delta(value, 1.0)),
            (RelOp::Eq, _) => {
                self.assert_upper(var, Delta::real(value), tag)?;
                return self.assert_lower(var, Delta::real(value), tag);
            }
        };
        if is_upper {
            self.assert_upper(var, value, tag)
        } else {
            self.assert_lower(var, value, tag)
        }
    }

    /// Current length of the retraction trail; pass to [`Simplex::pop_to`] to
    /// retract every bound asserted after this point.
    pub fn mark(&self) -> usize {
        self.trail.len()
    }

    /// Retracts all bounds asserted after `mark`, restoring the previous
    /// bound records. The basis and the current assignment are left in place:
    /// retracting only *loosens* bounds, so every nonbasic variable still
    /// satisfies its bounds and the next [`Simplex::solve`] call starts from
    /// a warm, near-feasible state.
    pub fn pop_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let entry = self.trail.pop().expect("trail length checked");
            let var = entry.var as usize;
            if entry.is_upper {
                self.upper[var] = entry.previous;
            } else {
                self.lower[var] = entry.previous;
            }
        }
        self.graph.truncate(mark);
    }

    /// If the expression is exactly `c · x` for a single variable, returns
    /// `(x, c)`.
    fn single_var(expr: &LinExpr) -> Option<(usize, f64)> {
        if expr.num_terms() == 1 {
            let (var, coeff) = expr.terms().next().expect("one term present");
            Some((var.index(), coeff))
        } else {
            None
        }
    }

    /// The nonzero `(variable, coefficient)` entries of row `row` in
    /// variable order.
    fn row_entries(&self, row: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let width = self.num_problem_vars;
        let coeffs = &self.tableau[row * width..(row + 1) * width];
        self.slot_order.iter().filter_map(move |&slot| {
            let coeff = coeffs[slot as usize];
            (coeff != 0.0).then(|| (self.slot_var[slot as usize] as usize, coeff))
        })
    }

    /// The nonzero `(row, coefficient)` entries of the column of the
    /// nonbasic variable `var`, in ascending row order.
    fn column(&self, var: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let slot = self.slot_of[var] as usize;
        let width = self.num_problem_vars;
        (0..self.row_owner.len()).filter_map(move |r| {
            let coeff = self.tableau[r * width + slot];
            (coeff != 0.0).then_some((r, coeff))
        })
    }

    fn row_value(&self, row: usize) -> Delta {
        let mut value = Delta::real(0.0);
        for (v, coeff) in self.row_entries(row) {
            value = value.add(self.assignment[v].scale(coeff));
        }
        value
    }

    fn assert_upper(&mut self, var: usize, value: Delta, tag: u32) -> Result<(), Vec<usize>> {
        self.set_upper(var, value, Reason::Asserted(tag))
            .map(|_| ())
    }

    fn assert_lower(&mut self, var: usize, value: Delta, tag: u32) -> Result<(), Vec<usize>> {
        self.set_lower(var, value, Reason::Asserted(tag))
            .map(|_| ())
    }

    /// Installs an upper bound with an explicit provenance. Returns whether
    /// the bound was actually tighter than the existing one (and therefore
    /// installed).
    ///
    /// # Errors
    ///
    /// Returns the asserted tags of the conflicting bound pair when the new
    /// bound contradicts the currently installed lower bound.
    fn set_upper(&mut self, var: usize, value: Delta, reason: Reason) -> Result<bool, Vec<usize>> {
        if let Some(lower) = &self.lower[var] {
            if value.lt(&lower.value) {
                return Err(self.graph.explain([reason, lower.reason]));
            }
        }
        let tighter = match &self.upper[var] {
            Some(existing) => value.lt(&existing.value),
            None => true,
        };
        if tighter {
            self.trail.push(TrailEntry {
                var: var as u32,
                is_upper: true,
                previous: self.upper[var].take(),
            });
            self.upper[var] = Some(Bound { value, reason });
            if self.track_implied {
                self.dirty.push(var as u32);
            }
            if self.basic_row[var].is_none() && self.assignment[var].gt(&value) {
                self.update_nonbasic(var, value);
            }
        }
        Ok(tighter)
    }

    /// Lower-bound counterpart of [`Simplex::set_upper`].
    fn set_lower(&mut self, var: usize, value: Delta, reason: Reason) -> Result<bool, Vec<usize>> {
        if let Some(upper) = &self.upper[var] {
            if value.gt(&upper.value) {
                return Err(self.graph.explain([reason, upper.reason]));
            }
        }
        let tighter = match &self.lower[var] {
            Some(existing) => value.gt(&existing.value),
            None => true,
        };
        if tighter {
            self.trail.push(TrailEntry {
                var: var as u32,
                is_upper: false,
                previous: self.lower[var].take(),
            });
            self.lower[var] = Some(Bound { value, reason });
            if self.track_implied {
                self.dirty.push(var as u32);
            }
            if self.basic_row[var].is_none() && self.assignment[var].lt(&value) {
                self.update_nonbasic(var, value);
            }
        }
        Ok(tighter)
    }

    /// The bound violation of `var` under the current assignment, if any:
    /// `(needs_increase, magnitude)`.
    fn violation_of(&self, var: usize) -> Option<(bool, f64)> {
        if let Some(lower) = &self.lower[var] {
            if self.assignment[var].lt(&lower.value) {
                return Some((true, lower.value.sub(self.assignment[var]).real.abs()));
            }
        }
        if let Some(upper) = &self.upper[var] {
            if self.assignment[var].gt(&upper.value) {
                return Some((false, self.assignment[var].sub(upper.value).real.abs()));
            }
        }
        None
    }

    /// Sets a nonbasic variable to `value` and propagates the change to the
    /// basic variables (only rows with a nonzero `var` entry). Basic
    /// variables the move pushes outside their bounds are left for the next
    /// solve to repair.
    fn update_nonbasic(&mut self, var: usize, value: Delta) {
        let diff = value.sub(self.assignment[var]);
        let col = self.take_column(var);
        for &(r, coeff) in &col {
            let owner = self.row_owner[r as usize];
            self.assignment[owner] = self.assignment[owner].add(diff.scale(coeff));
        }
        self.col_buf = col;
        self.assignment[var] = value;
    }

    /// [`Simplex::column`] of `var` collected into the reused column
    /// buffer; hand the buffer back with `self.col_buf = col` when done.
    fn take_column(&mut self, var: usize) -> Vec<(u32, f64)> {
        let mut col = std::mem::take(&mut self.col_buf);
        col.clear();
        col.extend(self.column(var).map(|(r, coeff)| (r as u32, coeff)));
        col
    }

    /// Main simplex loop: repair basic variables that violate their bounds.
    ///
    /// Each pivot's leaving row is picked by one scan of the basic
    /// variables: the largest current violation first, falling back to
    /// Bland's rule (smallest violating index) after a fixed number of
    /// pivots to guarantee termination despite degeneracy.
    ///
    /// Succeeds (possibly after pivoting) or returns an infeasibility
    /// explanation; in both cases the engine remains usable — further bounds
    /// can be asserted or retracted and `solve` called again.
    ///
    /// # Errors
    ///
    /// Returns the tags of a conflicting bound configuration when the
    /// asserted conjunction is infeasible, ascending and duplicate-free (the
    /// [explanation contract](Simplex#explanations)).
    ///
    /// # Panics
    ///
    /// Panics if a governor installed via `set_governor` trips mid-solve;
    /// governed callers use `solve_interruptible` instead. Ungoverned callers
    /// such as [`Simplex::check`] can never hit this.
    pub fn solve(&mut self) -> Result<(), Vec<usize>> {
        self.solve_interruptible()
            .expect("unbounded solve completes unless a governor trips")
    }

    /// [`Simplex::solve`] for governed callers: identical to the unbounded
    /// solve (tiny pivots are permitted, so numerical degradation is never
    /// reported), except that a governor trip — deadline, cancellation or
    /// pivot budget — surfaces as `None` instead of a panic. The engine
    /// remains usable after an interruption: a later solve scans the basic
    /// variables again and resumes the repair.
    pub(crate) fn solve_interruptible(&mut self) -> Option<Result<(), Vec<usize>>> {
        self.solve_bounded(u64::MAX)
    }

    /// [`Simplex::solve`] with a pivot budget: returns `None` when the budget
    /// is exhausted — or when the only pivots that could make progress are
    /// numerically degenerate (below `PIVOT_EPS`) — before feasibility is
    /// decided.
    ///
    /// A warm re-solve after an incremental bound change normally takes a
    /// handful of pivots; a budget blow-up or a degenerate-pivot dead end
    /// signals numerical degradation of the long-lived tableau (float error
    /// accumulates through pivot arithmetic and there is no
    /// refactorisation), and the caller should rebuild from the original
    /// constraints instead of grinding on. The unbounded [`Simplex::solve`]
    /// never reports divergence: it pivots through degenerate entries as a
    /// last resort, which is the correct behaviour on a freshly built
    /// tableau whose tiny coefficients are genuine constraint data.
    pub fn solve_bounded(&mut self, max_pivots: u64) -> Option<Result<(), Vec<usize>>> {
        self.solve_loop(max_pivots, 50 * (self.num_vars as u64 + 1))
    }

    /// The loop of [`Simplex::solve_bounded`]: takes the largest violation
    /// for the first `bland_switch` pivots, then picks rows by Bland's rule
    /// until the solve returns.
    fn solve_loop(&mut self, max_pivots: u64, bland_switch: u64) -> Option<Result<(), Vec<usize>>> {
        let mut local_pivots = 0u64;
        loop {
            if local_pivots >= max_pivots {
                return None;
            }
            // Amortised governor poll: report the completed batch and check
            // deadline/cancellation/pivot-cap once per PIVOT_CHECK_BATCH
            // pivots. Returning here is safe: the engine keeps no selection
            // state, so a resume scans the basic variables afresh.
            if local_pivots % PIVOT_CHECK_BATCH == 0 {
                if let Some(governor) = &self.governor {
                    let batch = if local_pivots == 0 {
                        0
                    } else {
                        PIVOT_CHECK_BATCH
                    };
                    if governor.note_pivots(batch).is_some() {
                        return None;
                    }
                }
            }
            let use_bland = local_pivots >= bland_switch;
            local_pivots += 1;
            let Some((row, needs_increase)) = self.select_leaving(use_bland) else {
                return Some(Ok(()));
            };
            let basic = self.row_owner[row];
            // `violation_of` compares against an installed bound. On the
            // pivot path a broken invariant is reported as divergence — the
            // caller rebuilds from the original constraints — rather than a
            // panic inside the solve loop.
            let violated = if needs_increase {
                self.lower[basic].as_ref()
            } else {
                self.upper[basic].as_ref()
            };
            let Some(violated) = violated else {
                debug_assert!(false, "violated bound is not installed");
                return None;
            };

            // Find a nonbasic variable that can absorb the change (Bland's
            // rule: row entries are read in variable order). Numerically
            // tiny coefficients are avoided — dividing by them blows the row
            // up past the feasibility tolerances — but a helpful tiny
            // coefficient must not yield an infeasibility certificate either
            // (concluding UNSAT while an unblocked direction exists would be
            // unsound). Resolution: a *bounded* solve reports divergence so
            // the caller rebuilds the tableau — on a long-lived tableau a
            // tiny entry is almost always cancellation residue that survived
            // `DROP_EPS`, and pivoting on it fabricates garbage rows (and,
            // worse, garbage conflict explanations). An *unbounded* solve
            // runs on a fresh or last-resort tableau, where tiny entries are
            // genuine constraint data (e.g. geometrically decayed dynamics);
            // there we pivot on the largest-magnitude helpful one.
            let allow_tiny = max_pivots == u64::MAX;
            let mut pivot: Option<usize> = None;
            let mut tiny_pivot: Option<(usize, f64)> = None;
            let mut degraded = false;
            for (var, coeff) in self.row_entries(row) {
                let can_help = if needs_increase {
                    (coeff > 0.0 && self.can_increase(var))
                        || (coeff < 0.0 && self.can_decrease(var))
                } else {
                    (coeff > 0.0 && self.can_decrease(var))
                        || (coeff < 0.0 && self.can_increase(var))
                };
                if !can_help {
                    continue;
                }
                if use_bland {
                    // Bland's termination theorem requires the *smallest-index*
                    // helpful variable, tiny or not: in unbounded mode take it
                    // (termination beats conditioning on the last-resort
                    // path); in bounded mode a tiny first choice is reported
                    // as degradation instead.
                    if coeff.abs() >= PIVOT_EPS || allow_tiny {
                        pivot = Some(var);
                    } else {
                        degraded = true;
                    }
                    break;
                }
                if coeff.abs() >= PIVOT_EPS {
                    pivot = Some(var);
                    break;
                }
                let better = match tiny_pivot {
                    Some((_, best)) => coeff.abs() > best,
                    None => true,
                };
                if better {
                    tiny_pivot = Some((var, coeff.abs()));
                }
            }
            if pivot.is_none() {
                if let Some((var, _)) = tiny_pivot {
                    if allow_tiny {
                        pivot = Some(var);
                    } else {
                        degraded = true;
                    }
                }
            }
            if degraded && pivot.is_none() {
                // Numerical degradation, not infeasibility: ask the caller to
                // rebuild from the original constraints.
                return None;
            }
            let Some(entering) = pivot else {
                // No variable can move: the row is a certificate of
                // infeasibility, explained by the violated bound and the bound
                // blocking each row entry.
                let mut graph = std::mem::take(&mut self.graph);
                let blocking = self.row_entries(row).filter_map(|(var, coeff)| {
                    let bound = if needs_increase {
                        if coeff > 0.0 {
                            &self.upper[var]
                        } else {
                            &self.lower[var]
                        }
                    } else if coeff > 0.0 {
                        &self.lower[var]
                    } else {
                        &self.upper[var]
                    };
                    bound.as_ref().map(|b| b.reason)
                });
                let explanation = graph.explain(std::iter::once(violated.reason).chain(blocking));
                self.graph = graph;
                return Some(Err(explanation));
            };
            self.pivot_and_update(basic, entering, violated.value);
        }
    }

    fn can_increase(&self, var: usize) -> bool {
        match &self.upper[var] {
            Some(bound) => self.assignment[var].lt(&bound.value),
            None => true,
        }
    }

    fn can_decrease(&self, var: usize) -> bool {
        match &self.lower[var] {
            Some(bound) => self.assignment[var].gt(&bound.value),
            None => true,
        }
    }

    /// The row whose basic variable leaves the basis next, and whether that
    /// variable must increase: the largest current bound violation, ties
    /// going to the smaller variable index, or in Bland mode the smallest
    /// violating variable index. One scan of the basic variables; `None`
    /// when all of them are within their bounds.
    ///
    /// Repairing the largest violation first is the numerically gentlest
    /// order; the smallest index is Bland's anti-cycling rule.
    fn select_leaving(&mut self, bland: bool) -> Option<(usize, bool)> {
        self.queue_pops += 1;
        let mut best: Option<(usize, usize, bool, f64)> = None;
        for (row, &var) in self.row_owner.iter().enumerate() {
            let Some((needs_increase, magnitude)) = self.violation_of(var) else {
                continue;
            };
            let better = match best {
                None => true,
                Some((_, best_var, _, _)) if bland => var < best_var,
                Some((_, best_var, _, best_magnitude)) => magnitude
                    .total_cmp(&best_magnitude)
                    .then_with(|| best_var.cmp(&var))
                    .is_gt(),
            };
            if better {
                best = Some((row, var, needs_increase, magnitude));
            }
        }
        best.map(|(row, _, needs_increase, _)| (row, needs_increase))
    }

    /// Theory-level bound propagation (Dutertre–de Moura bound refinement,
    /// both row directions): derives implied bounds from the asserted ones by
    /// interval-propagating each tableau row `y = Σ aⱼ·xⱼ`, seeded by the
    /// variables whose bounds tightened since the last call and chased to a
    /// fixpoint through a worklist (a bound derived on one variable can
    /// enable derivations in every row sharing it).
    ///
    /// Every derived bound is installed like an asserted bound (trail entry,
    /// assignment repair) but carries a node of the bound implication graph
    /// that lists the reasons of the bounds it was computed from; its
    /// explanation, the *asserted* tags it follows from, is flattened from
    /// them when [`Simplex::explanation`] reads it. Derived bounds are padded
    /// outward by a small margin so float round-off in the interval sums
    /// cannot make them unsound, and appended to `out` so the DPLL(T) loop
    /// can fix the truth value of theory atoms decided by them.
    ///
    /// At most `limit` bounds are derived per call; the worklist is dropped
    /// when the cap is reached (propagation is a pruning heuristic — dropping
    /// work is always sound).
    ///
    /// # Errors
    ///
    /// Returns a conflict explanation (asserted tags only) when a derived
    /// bound contradicts an installed bound of the opposite kind — a theory
    /// conflict discovered without a single pivot. Its tags are ascending and
    /// duplicate-free (the [explanation contract](Simplex#explanations)).
    pub fn propagate_bounds(
        &mut self,
        limit: usize,
        out: &mut Vec<ImpliedBound>,
    ) -> Result<(), Vec<usize>> {
        let mut rows: Vec<u32> = Vec::new();
        for _wave in 0..PROP_MAX_DEPTH {
            // One breadth-first wave: every row touched by the bounds
            // tightened in the previous wave (or, at depth 0, since the last
            // call), each scanned once per wave no matter how many of its
            // members went dirty.
            let frontier = std::mem::take(&mut self.dirty);
            if frontier.is_empty() {
                return Ok(());
            }
            rows.clear();
            for var in frontier {
                let v = var as usize;
                match self.basic_row[v] {
                    // A basic variable's bound constrains its own defining row.
                    Some(row) => rows.push(row as u32),
                    // A nonbasic variable's bound feeds every row mentioning it.
                    None => rows.extend(self.column(v).map(|(r, _)| r as u32)),
                }
            }
            rows.sort_unstable();
            rows.dedup();
            for i in 0..rows.len() {
                if out.len() >= limit {
                    self.dirty.clear();
                    return Ok(());
                }
                if let Err(conflict) = self.propagate_row(rows[i] as usize, out) {
                    self.dirty.clear();
                    return Err(conflict);
                }
            }
        }
        // Bounds installed by the deepest wave stay on the worklist for the
        // next call rather than seeding further work now.
        Ok(())
    }

    /// Maximum of the contribution `coeff · var` under the installed bounds,
    /// with the bound that attains it.
    fn max_contribution(&self, var: usize, coeff: f64) -> Option<&Bound> {
        if coeff > 0.0 {
            self.upper[var].as_ref()
        } else {
            self.lower[var].as_ref()
        }
    }

    /// Minimum counterpart of [`Simplex::max_contribution`].
    fn min_contribution(&self, var: usize, coeff: f64) -> Option<&Bound> {
        if coeff > 0.0 {
            self.lower[var].as_ref()
        } else {
            self.upper[var].as_ref()
        }
    }

    /// Interval-propagates one row (see [`Simplex::propagate_bounds`]).
    ///
    /// The row `y = Σ aⱼ·xⱼ` is treated as the relation `0 = Σᵢ cᵢ·vᵢ` with
    /// the owner `y` carrying coefficient −1. From the interval sums
    /// `HI = Σ max(cᵢ·vᵢ)` and `LO = Σ min(cᵢ·vᵢ)`, every term with all
    /// *other* terms bounded on the relevant side gets
    /// `cₜ·vₜ ≥ −(HI − max(cₜ·vₜ))` and `cₜ·vₜ ≤ −(LO − min(cₜ·vₜ))`.
    fn propagate_row(&mut self, r: usize, out: &mut Vec<ImpliedBound>) -> Result<(), Vec<usize>> {
        // The relation's terms — the owner first, then the row entries in
        // variable order — gathered once into the reused term buffer, which
        // both passes and the explanation gathering read, so they can never
        // disagree on the owner convention.
        let mut terms = std::mem::take(&mut self.terms_buf);
        terms.clear();
        // Pass 1: interval sums over all terms, tracking how many terms miss
        // the needed bound (two missing on both sides ⇒ nothing derivable).
        let mut hi = Delta::real(0.0);
        let mut hi_missing = 0usize;
        let mut hi_missing_var = usize::MAX;
        let mut lo = Delta::real(0.0);
        let mut lo_missing = 0usize;
        let mut lo_missing_var = usize::MAX;
        let owner = (self.row_owner[r], -1.0);
        for (v, c) in std::iter::once(owner).chain(self.row_entries(r)) {
            terms.push((v as u32, c));
            match self.max_contribution(v, c) {
                Some(bound) => hi = hi.add(bound.value.scale(c)),
                None => {
                    hi_missing += 1;
                    hi_missing_var = v;
                }
            }
            match self.min_contribution(v, c) {
                Some(bound) => lo = lo.add(bound.value.scale(c)),
                None => {
                    lo_missing += 1;
                    lo_missing_var = v;
                }
            }
            if hi_missing > 1 && lo_missing > 1 {
                break;
            }
        }
        if hi_missing > 1 && lo_missing > 1 {
            self.terms_buf = terms;
            return Ok(());
        }
        // Pass 2: derive a bound for every term the sums cover.
        let mut derived = Ok(());
        for &(v, c) in &terms {
            let v = v as usize;
            if hi_missing == 0 || (hi_missing == 1 && hi_missing_var == v) {
                let rest = if hi_missing == 1 {
                    hi
                } else {
                    // Invariant: `hi_missing == 0` means pass 1 saw a
                    // max-contribution for every term, and bounds are only
                    // tightened (never removed) between the passes.
                    let own = self
                        .max_contribution(v, c)
                        .expect("no bound missing on the HI side")
                        .value
                        .scale(c);
                    hi.sub(own)
                };
                // c·v ≥ −rest: a lower bound for c > 0, an upper bound for c < 0.
                let is_lower = c > 0.0;
                if let Some(value) = self.improved_bound(v, is_lower, rest.scale(-1.0 / c)) {
                    derived = self.install_implied(&terms, v, is_lower, value, false, out);
                    if derived.is_err() {
                        break;
                    }
                }
            }
            if lo_missing == 0 || (lo_missing == 1 && lo_missing_var == v) {
                let rest = if lo_missing == 1 {
                    lo
                } else {
                    // Invariant: mirror of the HI-side case above.
                    let own = self
                        .min_contribution(v, c)
                        .expect("no bound missing on the LO side")
                        .value
                        .scale(c);
                    lo.sub(own)
                };
                // c·v ≤ −rest: an upper bound for c > 0, a lower bound for c < 0.
                let is_lower = c <= 0.0;
                if let Some(value) = self.improved_bound(v, is_lower, rest.scale(-1.0 / c)) {
                    derived = self.install_implied(&terms, v, is_lower, value, true, out);
                    if derived.is_err() {
                        break;
                    }
                }
            }
        }
        self.terms_buf = terms;
        derived
    }

    /// The bound on `var` derived as `value`, padded outward, if it is worth
    /// installing: the one test every candidate of [`Simplex::propagate_row`]
    /// passes before [`Simplex::install_implied`].
    fn improved_bound(&self, var: usize, is_lower: bool, value: Delta) -> Option<Delta> {
        // Pad outward before the improvement test so borderline derivations
        // are dropped rather than installed as zero-information bounds.
        let value = if is_lower {
            Delta::with_delta(value.real - PROP_PAD, value.delta)
        } else {
            Delta::with_delta(value.real + PROP_PAD, value.delta)
        };
        // Worthwhile-improvement test: a fresh bound always is; an existing
        // one must be beaten by at least `PROP_IMPROVE` in the real part
        // (delta-only improvements are below the literal-fixing clearance
        // and only feed re-derivation churn).
        let tighter = if is_lower {
            match &self.lower[var] {
                Some(existing) => value.real > existing.value.real + PROP_IMPROVE,
                None => true,
            }
        } else {
            match &self.upper[var] {
                Some(existing) => value.real < existing.value.real - PROP_IMPROVE,
                None => true,
            }
        };
        tighter.then_some(value)
    }

    /// Installs one derived bound that passed [`Simplex::improved_bound`]:
    /// pushes its implication-graph node, whose contributors are the reasons
    /// of the contributing bounds of the row's other `terms` (the `lo_side`
    /// flag selects which bound of each contributed), and records the bound
    /// in `out`.
    fn install_implied(
        &mut self,
        terms: &[(u32, f64)],
        var: usize,
        is_lower: bool,
        value: Delta,
        lo_side: bool,
        out: &mut Vec<ImpliedBound>,
    ) -> Result<(), Vec<usize>> {
        // Contributors: the bound of every *other* term that fed the interval
        // sum. They are read here, over the bounds installed now, because an
        // earlier term of the same pass may just have tightened one of them.
        let mut contributors = std::mem::take(&mut self.graph.contributors);
        let start = contributors.len();
        contributors.extend(
            terms
                .iter()
                .filter(|&&(u, _)| u as usize != var)
                .map(|&(u, cu)| {
                    let u = u as usize;
                    let contribution = if lo_side {
                        self.min_contribution(u, cu)
                    } else {
                        self.max_contribution(u, cu)
                    };
                    // Invariant: a derivation for `var` only exists when every
                    // other term contributed to the interval sum (the
                    // missing-term accounting in `propagate_row`), so its
                    // bound is installed.
                    contribution.expect("contributing term is bounded").reason
                }),
        );
        self.graph.contributors = contributors;
        let node = self.graph.push(self.trail.len(), start);
        let reason = Reason::Derived(node.index);
        let installed = if is_lower {
            self.set_lower(var, value, reason)
        } else {
            self.set_upper(var, value, reason)
        };
        if let Ok(true) = installed {
            out.push(ImpliedBound {
                var,
                is_upper: !is_lower,
                value,
                node,
            });
        } else {
            // No trail entry was pushed, so the node goes too.
            self.graph.truncate(self.trail.len());
        }
        installed.map(drop)
    }

    /// The explanation of a bound derived by [`Simplex::propagate_bounds`]:
    /// the tags of the asserted bounds it was deduced from (the [explanation
    /// contract](Simplex#explanations)). Flattened from the implication
    /// graph on the first request and memoised until the bound is retracted.
    ///
    /// # Panics
    ///
    /// Panics if the bound has been retracted since it was derived
    /// ([`Simplex::pop_to`] below it).
    pub fn explanation(&mut self, bound: &ImpliedBound) -> Rc<[usize]> {
        self.graph.explanation(bound.node)
    }

    /// Pivots `basic` (leaving) with `entering` (nonbasic) and sets the
    /// leaving variable's assignment to `target` (the bound it violated).
    fn pivot_and_update(&mut self, basic: usize, entering: usize, target: Delta) {
        self.pivots += 1;
        // Invariant: the solve loop resolved `basic`'s row (with a defensive
        // divergence fallback) before selecting `entering` from it.
        let row = self.basic_row[basic].expect("leaving variable is basic");
        let width = self.num_problem_vars;
        let slot = self.slot_of[entering] as usize;
        let coeff = self.tableau[row * width + slot];
        // Sub-PIVOT_EPS pivots are legal (the solve loop falls back to them
        // when nothing better can help) — only exact zero is a logic error.
        debug_assert!(coeff != 0.0, "pivot coefficient must be non-zero");

        // The entering variable's column outside the pivot row: exactly the
        // rows whose assignment and coefficients the pivot touches.
        let mut col = self.take_column(entering);
        col.retain(|&(r, _)| r as usize != row);

        // Assignment update (using the *old* tableau rows): move the entering
        // variable by θ so that the leaving variable lands exactly on `target`,
        // and propagate the move to every other basic variable.
        let theta = target.sub(self.assignment[basic]).scale(1.0 / coeff);
        self.assignment[basic] = target;
        self.assignment[entering] = self.assignment[entering].add(theta);
        for &(r, c) in &col {
            let owner = self.row_owner[r as usize];
            self.assignment[owner] = self.assignment[owner].add(theta.scale(c));
        }

        // Rewrite the pivot row to express `entering` in terms of the others:
        // basic = Σ a_j x_j  ⇒  entering = (basic − Σ_{j≠entering} a_j x_j) / a_entering.
        // The leaving variable takes over the entering variable's slot.
        // Adding +0.0 turns the −0.0 of a negated zero entry into +0.0 and
        // leaves every other value unchanged.
        let pivot_row = &mut self.tableau[row * width..(row + 1) * width];
        for entry in pivot_row.iter_mut() {
            *entry = -*entry / coeff + 0.0;
        }
        pivot_row[slot] = 1.0 / coeff;
        let mut pivot = std::mem::take(&mut self.pivot_buf);
        pivot.clear();
        pivot.extend_from_slice(pivot_row);
        self.row_owner[row] = entering;
        self.basic_row[entering] = Some(row);
        self.basic_row[basic] = None;
        self.move_slot(slot, entering, basic);

        // Substitute the new definition of `entering` into the other rows:
        // row_r ← row_r − factor·e_slot + factor·pivot. Cancellation happens
        // only where both the row and the pivot row had an entry: a result
        // at or below DROP_EPS there is residue, dropped instead of stored as
        // a tiny garbage coefficient a later pivot could divide by. Fill-in
        // (the row lacked the entry) is kept at any nonzero magnitude. The
        // multiply and the add round separately (no `mul_add`): the pivot
        // sequence pinned by `tests/end_to_end.rs` depends on that rounding.
        for &(r, factor) in &col {
            let r = r as usize;
            let coeffs = &mut self.tableau[r * width..(r + 1) * width];
            coeffs[slot] = 0.0;
            for (entry, &p) in coeffs.iter_mut().zip(&pivot) {
                let old = *entry;
                let merged = old + factor * p;
                let residue = old != 0.0 && p != 0.0 && merged.abs() <= DROP_EPS;
                *entry = if residue { 0.0 } else { merged };
            }
        }
        self.pivot_buf = pivot;
        self.col_buf = col;
        #[cfg(debug_assertions)]
        self.audit("after pivot");
    }

    /// Hands `slot` from the variable `from` (entering the basis) to `to`
    /// (leaving it), keeping [`Simplex::slot_order`] sorted by variable.
    fn move_slot(&mut self, slot: usize, from: usize, to: usize) {
        let slot_var = &mut self.slot_var;
        let at = self
            .slot_order
            .binary_search_by_key(&(from as u32), |&s| slot_var[s as usize])
            .expect("the entering variable occupies a slot");
        self.slot_order.remove(at);
        slot_var[slot] = to as u32;
        let at = self
            .slot_order
            .partition_point(|&s| slot_var[s as usize] < to as u32);
        self.slot_order.insert(at, slot as u32);
        self.slot_of[from] = NO_SLOT;
        self.slot_of[to] = slot as u32;
    }

    /// Debug-build invariant audit: the slot maps agree and list every
    /// nonbasic variable once in variable order, no coefficient is −0.0,
    /// every basic variable's assignment equals its row value, and every
    /// nonbasic variable sits within its bounds.
    #[cfg(debug_assertions)]
    #[allow(dead_code)]
    fn audit(&self, context: &str) {
        for (slot, &var) in self.slot_var.iter().enumerate() {
            let var = var as usize;
            assert!(
                self.basic_row[var].is_none(),
                "{context}: slot {slot} holds basic variable {var}"
            );
            assert_eq!(
                self.slot_of[var] as usize, slot,
                "{context}: slot maps disagree"
            );
        }
        assert!(
            self.slot_order
                .windows(2)
                .all(|w| self.slot_var[w[0] as usize] < self.slot_var[w[1] as usize]),
            "{context}: slot order is not sorted by variable"
        );
        assert!(
            self.tableau
                .iter()
                .all(|c| c.to_bits() != (-0.0f64).to_bits()),
            "{context}: stored −0.0 coefficient"
        );
        for (r, &owner) in self.row_owner.iter().enumerate() {
            assert_eq!(self.basic_row[owner], Some(r), "{context}: owner not basic");
            let value = self.row_value(r);
            let drift = (value.real - self.assignment[owner].real).abs()
                + (value.delta - self.assignment[owner].delta).abs();
            // Loose tolerance relative to the row's term magnitudes: pivot
            // arithmetic legitimately accumulates float error at the scale of
            // *historical* intermediate rows (sub-PIVOT_EPS fallback pivots
            // amplify by up to ~1/coeff before later pivots shrink the row
            // back), which the current magnitude cannot bound tightly; the
            // caller's validation + rebuild machinery owns numerical
            // correctness. The audit exists to catch *logic* bugs — e.g.
            // double-counted column updates — which drift by whole terms,
            // orders of magnitude beyond this bound. (Half the magnitude
            // rather than a tenth: the largest-violation pivot order reaches
            // amplified-row states, with relative drift observed up to ~13%
            // on the T=50 VSC queries.)
            let magnitude: f64 = self
                .row_entries(r)
                .map(|(v, c)| {
                    c.abs() * (self.assignment[v].real.abs() + self.assignment[v].delta.abs())
                })
                .sum();
            assert!(
                drift <= 0.5 * (1.0 + magnitude),
                "{context}: basic {owner} drifted from its row by {drift} (magnitude {magnitude})"
            );
        }
        for v in 0..self.num_vars {
            if self.basic_row[v].is_some() {
                continue;
            }
            if let Some(b) = &self.lower[v] {
                assert!(
                    !self.assignment[v].lt(&b.value),
                    "{context}: nonbasic {v} below lower bound"
                );
            }
            if let Some(b) = &self.upper[v] {
                assert!(
                    !self.assignment[v].gt(&b.value),
                    "{context}: nonbasic {v} above upper bound"
                );
            }
        }
    }

    /// Concretises the δ-assignment of the problem variables into plain `f64`
    /// values by substituting a positive ε small enough to preserve every
    /// strict bound.
    pub fn concrete_assignment(&self) -> Vec<f64> {
        let mut epsilon: f64 = 1e-6;
        for var in 0..self.num_vars {
            let value = self.assignment[var];
            if let Some(lower) = &self.lower[var] {
                // value ≥ lower in δ-arithmetic; find ε keeping that true in ℝ.
                let dr = value.real - lower.value.real;
                let dd = lower.value.delta - value.delta;
                if dd > 0.0 && dr > 0.0 {
                    epsilon = epsilon.min(dr / dd);
                }
            }
            if let Some(upper) = &self.upper[var] {
                let dr = upper.value.real - value.real;
                let dd = value.delta - upper.value.delta;
                if dd > 0.0 && dr > 0.0 {
                    epsilon = epsilon.min(dr / dd);
                }
            }
        }
        (0..self.num_problem_vars)
            .map(|v| self.assignment[v].concretize(epsilon))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VarPool;

    fn vars(n: usize) -> (VarPool, Vec<crate::VarId>) {
        let mut pool = VarPool::new();
        let ids = pool.fresh_block("x", n);
        (pool, ids)
    }

    /// An implication graph next to the eager flattening it replaced: each
    /// node's explanation computed when the node is pushed, by pushing
    /// every contributor's tags, then sorting and deduplicating.
    #[derive(Default)]
    struct EagerGraph {
        graph: ImplicationGraph,
        ids: Vec<NodeId>,
        trail_pos: Vec<usize>,
        tags: Vec<Vec<usize>>,
        /// Length of the simulated bound trail.
        trail: usize,
    }

    impl EagerGraph {
        /// The eager explanation of `reasons`.
        fn reference(&self, reasons: &[Reason]) -> Vec<usize> {
            let mut tags = Vec::new();
            for &reason in reasons {
                match reason {
                    Reason::Asserted(tag) => tags.push(tag as usize),
                    Reason::Derived(node) => tags.extend_from_slice(&self.tags[node as usize]),
                }
            }
            tags.sort_unstable();
            tags.dedup();
            tags
        }

        /// Installs a derived bound over `contributors`, after `asserted`
        /// asserted bounds, which take trail entries but no node.
        fn derive(&mut self, asserted: usize, contributors: &[Reason]) -> Reason {
            self.trail += asserted;
            let start = self.graph.contributors.len();
            self.graph.contributors.extend_from_slice(contributors);
            let id = self.graph.push(self.trail, start);
            self.tags.push(self.reference(contributors));
            self.ids.push(id);
            self.trail_pos.push(self.trail);
            self.trail += 1;
            Reason::Derived(id.index)
        }

        /// Retracts the trail down to `mark`.
        fn pop_to(&mut self, mark: usize) {
            self.graph.truncate(mark);
            let keep = self.trail_pos.iter().filter(|&&pos| pos < mark).count();
            self.ids.truncate(keep);
            self.trail_pos.truncate(keep);
            self.tags.truncate(keep);
            self.trail = mark;
        }

        fn check(&mut self, node: usize) {
            let on_demand = self.graph.explanation(self.ids[node]);
            assert_eq!(&*on_demand, &self.tags[node][..], "node {node}");
        }
    }

    /// On-demand flattening returns the eager explanation of every node, on
    /// random graphs whose derived nodes share sub-derivations, across
    /// retractions that re-derive other bounds at the same node indices,
    /// and on a chain deeper than a recursive flatten could walk.
    #[test]
    fn on_demand_flattening_matches_eager_push_sort_and_dedup() {
        let mut rng = cps_linalg::SplitMix64::new(0x7A65);
        let mut eager = EagerGraph::default();
        for round in 0..4 {
            // Tags a round asserts are its own, so a node re-derived at an
            // index the previous round used cannot share its explanation.
            let tag_base = 1000 * round;
            for _ in 0..1500 {
                let nodes = eager.ids.len();
                let mut contributors =
                    vec![Reason::Asserted((tag_base + rng.usize_below(300)) as u32)];
                for _ in 0..rng.usize_below(8) {
                    contributors.push(if nodes > 0 && rng.bool() {
                        Reason::Derived(rng.usize_below(nodes) as u32)
                    } else {
                        Reason::Asserted((tag_base + rng.usize_below(300)) as u32)
                    });
                }
                eager.derive(rng.usize_below(3), &contributors);
            }
            // Read half the nodes in random order, then unions of random
            // roots, some of them asserted.
            let nodes = eager.ids.len();
            for _ in 0..nodes / 2 {
                eager.check(rng.usize_below(nodes));
            }
            for _ in 0..50 {
                let roots: Vec<Reason> = (0..1 + rng.usize_below(6))
                    .map(|_| {
                        if rng.bool() {
                            Reason::Derived(rng.usize_below(nodes) as u32)
                        } else {
                            Reason::Asserted(rng.usize_below(4000) as u32)
                        }
                    })
                    .collect();
                assert_eq!(eager.graph.explain(roots.clone()), eager.reference(&roots));
            }
            // Retract below many memoised nodes.
            let mark = eager.trail / 4 + rng.usize_below(eager.trail / 2);
            eager.pop_to(mark);
            assert!(eager.graph.nodes.len() < nodes);
            for node in 0..eager.ids.len() {
                eager.check(node);
            }
        }
        let (nodes, start) = (eager.ids.len(), eager.trail);
        for _ in 0..500 {
            let contributors = [
                Reason::Asserted(5000),
                Reason::Derived(rng.usize_below(nodes) as u32),
            ];
            eager.derive(0, &contributors);
        }
        for node in nodes..eager.ids.len() {
            eager.check(node);
        }

        // A chain 100,000 bounds deep, read from its far end first.
        eager.pop_to(start);
        let mut previous = eager.derive(1, &[Reason::Asserted(7)]);
        for i in 1..100_000u32 {
            previous = eager.derive(0, &[previous, Reason::Asserted(i % 5)]);
        }
        let top = eager.ids.len() - 1;
        eager.check(top);
        eager.check(nodes + 50_000);
        assert_eq!(eager.tags[top], vec![0, 1, 2, 3, 4, 7]);
    }

    #[test]
    fn delta_arithmetic_and_ordering() {
        let a = Delta::real(1.0);
        let b = Delta::with_delta(1.0, -1.0);
        assert!(b.lt(&a));
        assert!(a.gt(&b));
        assert_eq!(a.add(b), Delta::with_delta(2.0, -1.0));
        assert_eq!(a.sub(b), Delta::with_delta(0.0, 1.0));
        assert_eq!(b.scale(2.0), Delta::with_delta(2.0, -2.0));
        assert!((b.concretize(0.001) - 0.999).abs() < 1e-12);
    }

    #[test]
    fn feasible_single_variable_bounds() {
        let (pool, v) = vars(1);
        let constraints = vec![
            (LinExpr::var(v[0]).ge(1.0), 0),
            (LinExpr::var(v[0]).le(2.0), 1),
        ];
        match Simplex::check(pool.len(), &constraints) {
            SimplexResult::Feasible(model) => {
                assert!(model[0] >= 1.0 - 1e-9 && model[0] <= 2.0 + 1e-9);
            }
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    #[test]
    fn infeasible_single_variable_bounds_explained() {
        let (pool, v) = vars(1);
        let constraints = vec![
            (LinExpr::var(v[0]).ge(3.0), 7),
            (LinExpr::var(v[0]).le(2.0), 9),
        ];
        match Simplex::check(pool.len(), &constraints) {
            SimplexResult::Infeasible(mut tags) => {
                tags.sort_unstable();
                assert_eq!(tags, vec![7, 9]);
            }
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn feasible_system_with_rows() {
        let (pool, v) = vars(2);
        let constraints = vec![
            ((LinExpr::var(v[0]) + LinExpr::var(v[1])).le(4.0), 0),
            ((LinExpr::var(v[0]) - LinExpr::var(v[1])).ge(-1.0), 1),
            (LinExpr::var(v[0]).ge(0.5), 2),
            (LinExpr::var(v[1]).ge(1.0), 3),
        ];
        match Simplex::check(pool.len(), &constraints) {
            SimplexResult::Feasible(model) => {
                for (c, _) in &constraints {
                    assert!(c.holds(&model), "violated: {c} by {model:?}");
                }
            }
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    #[test]
    fn infeasible_system_with_rows_has_small_explanation() {
        let (pool, v) = vars(2);
        let constraints = vec![
            ((LinExpr::var(v[0]) + LinExpr::var(v[1])).le(2.0), 0),
            (LinExpr::var(v[0]).ge(1.5), 1),
            (LinExpr::var(v[1]).ge(1.0), 2),
            (LinExpr::var(v[0]).le(100.0), 3), // irrelevant
        ];
        match Simplex::check(pool.len(), &constraints) {
            SimplexResult::Infeasible(tags) => {
                assert!(tags.contains(&0));
                assert!(!tags.contains(&3), "irrelevant constraint in explanation");
            }
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn strict_inequalities_are_respected() {
        let (pool, v) = vars(1);
        // x < 1 ∧ x > 0.999999: feasible only strictly between the bounds.
        let constraints = vec![
            (LinExpr::var(v[0]).lt(1.0), 0),
            (LinExpr::var(v[0]).gt(0.999_999), 1),
        ];
        match Simplex::check(pool.len(), &constraints) {
            SimplexResult::Feasible(model) => {
                assert!(model[0] < 1.0);
                assert!(model[0] > 0.999_999);
            }
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    #[test]
    fn contradictory_strict_inequalities_are_infeasible() {
        let (pool, v) = vars(1);
        let constraints = vec![
            (LinExpr::var(v[0]).lt(1.0), 0),
            (LinExpr::var(v[0]).gt(1.0), 1),
        ];
        assert!(!Simplex::check(pool.len(), &constraints).is_feasible());
        // x <= 1 && x >= 1 is feasible (x = 1).
        let weak = vec![
            (LinExpr::var(v[0]).le(1.0), 0),
            (LinExpr::var(v[0]).ge(1.0), 1),
        ];
        assert!(Simplex::check(pool.len(), &weak).is_feasible());
    }

    #[test]
    fn equality_constraints() {
        let (pool, v) = vars(2);
        let constraints = vec![
            ((LinExpr::var(v[0]) + LinExpr::var(v[1])).eq_to(3.0), 0),
            ((LinExpr::var(v[0]) - LinExpr::var(v[1])).eq_to(1.0), 1),
        ];
        match Simplex::check(pool.len(), &constraints) {
            SimplexResult::Feasible(model) => {
                assert!((model[0] - 2.0).abs() < 1e-6);
                assert!((model[1] - 1.0).abs() < 1e-6);
            }
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    #[test]
    fn negative_coefficient_single_variable_constraint() {
        let (pool, v) = vars(1);
        // -2x <= -4  ⇔  x >= 2.
        let constraints = vec![
            (LinExpr::term(v[0], -2.0).le(-4.0), 0),
            (LinExpr::var(v[0]).le(5.0), 1),
        ];
        match Simplex::check(pool.len(), &constraints) {
            SimplexResult::Feasible(model) => assert!(model[0] >= 2.0 - 1e-9),
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    #[test]
    fn larger_chain_of_constraints_is_feasible() {
        // x_{k+1} = 0.9 x_k + u_k encoded as equalities, with bounded u and a
        // reachability-style requirement on the final state.
        let mut pool = VarPool::new();
        let xs = pool.fresh_block("x", 6);
        let us = pool.fresh_block("u", 5);
        let mut constraints = Vec::new();
        let mut tag = 0;
        constraints.push((LinExpr::var(xs[0]).eq_to(0.0), tag));
        for k in 0..5 {
            tag += 1;
            let expr = LinExpr::var(xs[k + 1]) - LinExpr::term(xs[k], 0.9) - LinExpr::var(us[k]);
            constraints.push((expr.eq_to(0.0), tag));
            tag += 1;
            constraints.push((LinExpr::var(us[k]).le(1.0), tag));
            tag += 1;
            constraints.push((LinExpr::var(us[k]).ge(-1.0), tag));
        }
        tag += 1;
        constraints.push((LinExpr::var(xs[5]).ge(3.0), tag));
        match Simplex::check(pool.len(), &constraints) {
            SimplexResult::Feasible(model) => {
                for (c, _) in &constraints {
                    assert!(c.holds(&model), "violated {c}");
                }
            }
            other => panic!("expected feasible, got {other:?}"),
        }
        // Requiring the final state to exceed the reachable maximum (≈ 4.1)
        // makes the system infeasible.
        let mut impossible = constraints.clone();
        impossible.push((LinExpr::var(xs[5]).ge(10.0), tag + 1));
        assert!(!Simplex::check(pool.len(), &impossible).is_feasible());
    }

    #[test]
    fn push_pop_retracts_bounds() {
        let (pool, v) = vars(2);
        let mut simplex = Simplex::new(pool.len());
        let sum = LinExpr::var(v[0]) + LinExpr::var(v[1]);
        simplex
            .assert_all(&[(sum.clone().le(2.0), 0), (LinExpr::var(v[0]).ge(0.5), 1)])
            .unwrap();
        assert!(simplex.solve().is_ok());
        let mark = simplex.mark();
        // Push bounds that make the system infeasible.
        simplex
            .assert_all(&[(LinExpr::var(v[1]).ge(1.9), 2)])
            .unwrap();
        assert!(simplex.solve().is_err());
        // Pop back: feasibility is restored without rebuilding anything.
        simplex.pop_to(mark);
        assert!(simplex.solve().is_ok());
        let model = simplex.concrete_assignment();
        assert!(model[0] >= 0.5 - 1e-9);
        assert!(model[0] + model[1] <= 2.0 + 1e-9);
        // The retracted bound no longer constrains the system.
        simplex
            .assert_all(&[(LinExpr::var(v[1]).le(0.0), 3)])
            .unwrap();
        assert!(simplex.solve().is_ok());
    }

    #[test]
    fn slack_rows_are_shared_between_constraints_on_the_same_expr() {
        let (pool, v) = vars(2);
        let mut simplex = Simplex::new(pool.len());
        let sum = LinExpr::var(v[0]) + LinExpr::var(v[1]);
        let diff = LinExpr::var(v[0]) - LinExpr::var(v[1]);
        let constraints = [
            (sum.clone().le(2.0), 0),
            (diff.clone().le(1.0), 1),
            (sum.ge(-2.0), 2),
        ];
        simplex.assert_all(&constraints).expect("consistent bounds");
        assert_eq!(
            simplex.row_owner.len(),
            2,
            "same expression must share one slack row"
        );
        let s_sum = pool.len();
        assert!(simplex.lower[s_sum].is_some() && simplex.upper[s_sum].is_some());
        // `define` keeps no index: callers reuse the slot it returned.
        let (s_diff, _) = simplex.define(&diff);
        assert_eq!(s_diff, pool.len() + 2, "a second define adds a row");
    }

    /// The leaving row is the largest current violation, ties going to the
    /// smaller variable index; Bland mode takes the smallest violating
    /// index instead. A conflict in Bland mode leaves violations behind
    /// that a later solve must still find.
    #[test]
    fn leaving_row_is_the_largest_violation_ties_to_the_smaller_variable() {
        // Four rows over disjoint variable pairs, so repairing one leaves
        // the others' violations as they are. From the all-zero start the
        // lower bounds violate them by 1, 3, 2 and 3, the two 3s
        // bit-identical: the largest violation is not in the first
        // violated row, the tie must go to the smaller slack, and Bland's
        // rule picks a row the largest-violation rule does not.
        let (pool, v) = vars(8);
        let targets = [1.0, 3.0, 2.0, 3.0];
        let build = || {
            let mut simplex = Simplex::new(pool.len());
            for (r, &target) in targets.iter().enumerate() {
                let (slack, scale) =
                    simplex.define(&(LinExpr::var(v[2 * r]) + LinExpr::var(v[2 * r + 1])));
                simplex
                    .assert_bound(slack, scale, RelOp::Ge, target, r)
                    .expect("no upper bound in the way");
            }
            simplex
        };
        let slack = |r: usize| pool.len() + r;
        // One pivot per call; the slack that left the basis is the one that
        // was selected.
        let leaving = |simplex: &mut Simplex, bland_switch: u64| {
            let basic: Vec<usize> = simplex.row_owner.clone();
            assert_eq!(simplex.solve_loop(1, bland_switch), None);
            let left: Vec<usize> = basic
                .into_iter()
                .filter(|&var| simplex.basic_row[var].is_none())
                .collect();
            assert_eq!(left.len(), 1, "one pivot moves one variable out");
            left[0]
        };

        let mut simplex = build();
        let order: Vec<usize> = (0..targets.len())
            .map(|_| leaving(&mut simplex, u64::MAX))
            .collect();
        assert_eq!(order, vec![slack(1), slack(3), slack(2), slack(0)]);
        assert_eq!(simplex.select_leaving(false), None);
        assert_eq!(simplex.queue_pops(), targets.len() as u64 + 1);

        let mut simplex = build();
        assert_eq!(leaving(&mut simplex, 0), slack(0), "Bland's rule");

        // Dense rows over boxed variables, each row bounded around zero (the
        // first from below only): the all-zero start is feasible, and
        // pushing the first row up moves the others out of their bounds.
        let (pool, v) = vars(6);
        let mut constraints = Vec::new();
        for (j, &x) in v.iter().enumerate() {
            constraints.push((LinExpr::var(x).le(1.0), 2 * j));
            constraints.push((LinExpr::var(x).ge(-1.0), 2 * j + 1));
        }
        let mut rows = Vec::new();
        for r in 0..10 {
            let coeff = |j: usize| ((3 * r + 5 * j) % 7) as f64 - 3.0 + 0.25 * (r + 1) as f64;
            let expr = LinExpr::from_terms(v.iter().enumerate().map(|(j, &x)| (x, coeff(j))), 0.0);
            if r > 0 {
                constraints.push((expr.clone().le(0.5), 100 + 2 * r));
            }
            constraints.push((expr.clone().ge(-0.5), 101 + 2 * r));
            rows.push(expr);
        }
        let mut simplex = Simplex::new(pool.len());
        simplex.assert_all(&constraints).expect("consistent bounds");
        assert_eq!(simplex.row_owner.len(), rows.len());

        // Bland mode from the first pivot, into a conflict: the first row
        // cannot exceed its largest value over the box.
        let mark = simplex.mark();
        let reach: f64 = rows[0].terms().map(|(_, c)| c.abs()).sum();
        simplex
            .assert_bound(pool.len(), 1.0, RelOp::Ge, reach + 1.0, 200)
            .expect("no upper bound in the way");
        let verdict = simplex.solve_loop(u64::MAX, 0);
        assert!(matches!(verdict, Some(Err(_))), "{verdict:?}");
        assert!(simplex.pivots() >= 3, "too few pivots");
        let violating = simplex
            .row_owner
            .iter()
            .filter(|&&var| simplex.violation_of(var).is_some())
            .count();
        assert!(violating >= 2, "the conflict left {violating} violated");

        // Retract the unreachable bound: the re-solve repairs them all.
        simplex.pop_to(mark);
        assert_eq!(simplex.solve_bounded(u64::MAX), Some(Ok(())));
        let model = simplex.concrete_assignment();
        for (constraint, tag) in &constraints {
            assert!(
                constraint.holds(&model),
                "constraint {tag} violated: {constraint}"
            );
        }
    }

    #[test]
    fn pivot_counter_advances() {
        let (pool, v) = vars(2);
        let mut simplex = Simplex::new(pool.len());
        let sum = LinExpr::var(v[0]) + LinExpr::var(v[1]);
        let constraints = [
            (sum.ge(3.0), 0),
            (LinExpr::var(v[0]).le(1.0), 1),
            (LinExpr::var(v[1]).le(4.0), 2),
        ];
        simplex.assert_all(&constraints).unwrap();
        assert!(simplex.solve().is_ok());
        assert!(simplex.pivots() > 0, "repairing the slack requires a pivot");
    }

    #[test]
    fn pivot_drops_cancellation_residue_but_keeps_tiny_fill_in() {
        // Pivoting x0 into the basis through s_a = x0 + x1 substitutes
        // x0 = s_a − x1 into s_b = x0 + (1 + 5e-12)·x1, whose x1 entry
        // cancels to residue at or below DROP_EPS. The same magnitude
        // arriving as fill-in (s_c has no x1 entry) is genuine data.
        let residue = (1.0 + 5e-12) - 1.0;
        assert!(residue != 0.0 && residue <= DROP_EPS);
        let (pool, v) = vars(3);
        let (x0, x1, x2) = (v[0].index(), v[1].index(), v[2].index());
        let mut simplex = Simplex::new(pool.len());
        let (s_a, _) = simplex.define(&(LinExpr::var(v[0]) + LinExpr::var(v[1])));
        let (s_b, _) = simplex.define(&(LinExpr::var(v[0]) + LinExpr::term(v[1], 1.0 + 5e-12)));
        let (s_c, _) = simplex.define(&(LinExpr::term(v[0], residue) + LinExpr::var(v[2])));
        simplex.pivot_and_update(s_a, x0, Delta::real(0.0));
        let entries = |basic: usize| -> Vec<(usize, f64)> {
            simplex
                .row_entries(simplex.basic_row[basic].expect("basic"))
                .collect()
        };
        assert_eq!(entries(x0), vec![(x1, -1.0), (s_a, 1.0)]);
        assert_eq!(entries(s_b), vec![(s_a, 1.0)], "residue must be dropped");
        assert_eq!(
            entries(s_c),
            vec![(x1, -residue), (x2, 1.0), (s_a, residue)],
            "fill-in must be kept"
        );
        assert!(
            simplex
                .tableau
                .iter()
                .all(|c| !(*c == 0.0 && c.is_sign_negative())),
            "no coefficient may be −0.0"
        );
    }

    #[test]
    fn define_after_pivoting_substitutes_basic_variables() {
        let (pool, v) = vars(2);
        let mut simplex = Simplex::new(pool.len());
        let sum = LinExpr::var(v[0]) + LinExpr::var(v[1]);
        simplex
            .assert_all(&[(sum.ge(3.0), 0), (LinExpr::var(v[0]).le(1.0), 1)])
            .unwrap();
        assert!(simplex.solve().is_ok());
        // A new expression mentioning a (possibly now-basic) variable must
        // still evaluate consistently.
        let diff = LinExpr::var(v[0]) - LinExpr::var(v[1]);
        simplex.assert_all(&[(diff.le(-1.0), 2)]).unwrap();
        assert!(simplex.solve().is_ok());
        let model = simplex.concrete_assignment();
        assert!(model[0] + model[1] >= 3.0 - 1e-9);
        assert!(model[0] <= 1.0 + 1e-9);
        assert!(model[0] - model[1] <= -1.0 + 1e-9);
    }

    #[test]
    fn tiny_coefficients_do_not_fabricate_infeasibility() {
        // Coefficients below PIVOT_EPS but above LinExpr's 1e-12 floor are
        // genuine (e.g. geometrically decayed dynamics entries): the only
        // helpful direction being tiny must not yield a bogus UNSAT.
        let (pool, v) = vars(2);
        let expr = LinExpr::term(v[0], 1e-8) + LinExpr::term(v[1], 1e-8);
        let constraints = vec![(expr.ge(1.0), 0)];
        match Simplex::check(pool.len(), &constraints) {
            SimplexResult::Feasible(model) => {
                assert!(1e-8 * (model[0] + model[1]) >= 1.0 - 1e-6);
            }
            other => panic!("feasible system declared {other:?}"),
        }
        // The genuinely blocked variant still explains correctly.
        let expr = LinExpr::term(v[0], 1e-8);
        let blocked = vec![(expr.ge(1.0), 0), (LinExpr::var(v[0]).le(0.0), 1)];
        match Simplex::check(pool.len(), &blocked) {
            SimplexResult::Infeasible(mut tags) => {
                tags.sort_unstable();
                assert_eq!(tags, vec![0, 1]);
            }
            other => panic!("blocked system declared {other:?}"),
        }
    }

    #[test]
    fn constant_expression_constraints_are_decided() {
        // `0 <= -1` (after constant folding) is infeasible on its own.
        let (pool, _) = vars(1);
        let infeasible = vec![(LinExpr::constant(3.0).le(1.0), 5)];
        match Simplex::check(pool.len(), &infeasible) {
            SimplexResult::Infeasible(tags) => assert_eq!(tags, vec![5]),
            other => panic!("expected infeasible, got {other:?}"),
        }
        let feasible = vec![(LinExpr::constant(1.0).le(3.0), 0)];
        assert!(Simplex::check(pool.len(), &feasible).is_feasible());
    }
}
