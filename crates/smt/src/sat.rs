//! A CDCL SAT core used as the propositional engine of the DPLL(T) loop.
//!
//! The solver implements the standard ingredients — two-watched-literal
//! propagation, first-UIP conflict analysis with clause learning, VSIDS-style
//! activity-based decisions and phase saving — in a deliberately compact form.
//! It is driven externally by [`SmtSolver`](crate::SmtSolver), which
//! interleaves theory checks between propositional decisions, so the public
//! surface exposes the individual steps (propagate / decide / conflict
//! handling) rather than a single monolithic `solve`.
//!
//! The search never restarts and never deletes a clause: problem clauses,
//! learned clauses and theory implication clauses all live until the solver
//! is restored or dropped. The DPLL(T) loop restores its `SatSolver` from a
//! level-0 image of the base clauses for every check, and the heaviest check
//! of the paper's pipeline resolves 158 conflicts, below the point where a
//! Luby restart (256 conflicts) or a clause-database reduction would first
//! fire.

use std::fmt;

/// A propositional literal: a Boolean variable together with a polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Lit(u32);

impl Lit {
    /// Creates a literal for `var` with the given polarity.
    pub fn new(var: usize, positive: bool) -> Self {
        Lit((var as u32) << 1 | u32::from(!positive))
    }

    /// Reconstructs a literal from its dense [`Lit::index`] encoding.
    pub fn from_index(index: usize) -> Self {
        Lit(index as u32)
    }

    /// The variable index of the literal.
    pub fn var(self) -> usize {
        (self.0 >> 1) as usize
    }

    /// `true` for a positive (non-negated) literal.
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// The literal with the opposite polarity.
    pub fn negated(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    /// Dense index usable for watch lists (`2·var + sign`).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "b{}", self.var())
        } else {
            write!(f, "¬b{}", self.var())
        }
    }
}

/// Truth value of a literal under the current partial assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LitValue {
    /// The literal evaluates to true.
    True,
    /// The literal evaluates to false.
    False,
    /// The literal's variable is unassigned.
    Unassigned,
}

/// Indexed binary max-heap over variables ordered by VSIDS activity
/// (ties break towards the smaller variable index, matching the linear-scan
/// selection it replaces). Assigned variables are *lazily deleted*: they stay
/// in the heap until they surface at the root during a pop, and are
/// re-inserted when backtracking unassigns them.
#[derive(Debug, Default)]
struct VarOrder {
    /// Heap array of variable indices.
    heap: Vec<u32>,
    /// `pos[var]` is the index of `var` in `heap`, or `ABSENT`.
    pos: Vec<u32>,
}

const ABSENT: u32 = u32::MAX;

impl VarOrder {
    /// `true` when `a` should sit above `b` in the heap.
    fn precedes(activity: &[f64], a: u32, b: u32) -> bool {
        let (aa, ab) = (activity[a as usize], activity[b as usize]);
        aa > ab || (aa == ab && a < b)
    }

    fn contains(&self, var: usize) -> bool {
        self.pos[var] != ABSENT
    }

    fn insert(&mut self, var: usize, activity: &[f64]) {
        if self.contains(var) {
            return;
        }
        self.pos[var] = self.heap.len() as u32;
        self.heap.push(var as u32);
        self.sift_up(self.heap.len() - 1, activity);
    }

    /// Restores the heap property after `var`'s activity increased.
    fn bumped(&mut self, var: usize, activity: &[f64]) {
        let i = self.pos[var];
        if i != ABSENT {
            self.sift_up(i as usize, activity);
        }
    }

    fn pop(&mut self, activity: &[f64]) -> Option<usize> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("heap is non-empty");
        self.pos[top as usize] = ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0, activity);
        }
        Some(top as usize)
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if Self::precedes(activity, self.heap[i], self.heap[parent]) {
                self.heap.swap(i, parent);
                self.pos[self.heap[i] as usize] = i as u32;
                self.pos[self.heap[parent] as usize] = parent as u32;
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let mut child = left;
            if right < self.heap.len()
                && Self::precedes(activity, self.heap[right], self.heap[left])
            {
                child = right;
            }
            if Self::precedes(activity, self.heap[child], self.heap[i]) {
                self.heap.swap(i, child);
                self.pos[self.heap[i] as usize] = i as u32;
                self.pos[self.heap[child] as usize] = child as u32;
                i = child;
            } else {
                break;
            }
        }
    }
}

/// A conflict-driven clause-learning SAT solver.
#[derive(Debug)]
pub struct SatSolver {
    num_vars: usize,
    /// Every stored clause (problem, learned and theory implication alike);
    /// watch lists and reasons index into this arena.
    clauses: Vec<Vec<Lit>>,
    watches: Vec<Vec<usize>>,
    /// Scratch buffer [`SatSolver::add_clause`] reduces a clause in.
    clause_buf: Vec<Lit>,
    assign: Vec<Option<bool>>,
    level: Vec<usize>,
    reason: Vec<Option<usize>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    /// Minimum trail length reached since the last
    /// [`SatSolver::reset_trail_low_water`]: everything at or above this
    /// index was truncated at some point, even if the trail has regrown past
    /// it since.
    trail_low_water: usize,
    propagate_head: usize,
    activity: Vec<f64>,
    activity_inc: f64,
    /// Activity-ordered decision heap (see [`VarOrder`]).
    order: VarOrder,
    phase: Vec<bool>,
    unsat: bool,
    conflicts: u64,
    decisions: u64,
}

impl SatSolver {
    /// Creates a solver over `num_vars` Boolean variables: unassigned, with
    /// zero activity and a negative saved phase, in the identity decision
    /// order.
    pub fn new(num_vars: usize) -> Self {
        let mut solver = Self {
            num_vars: 0,
            clauses: Vec::new(),
            watches: Vec::new(),
            clause_buf: Vec::new(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            trail_low_water: 0,
            propagate_head: 0,
            activity: Vec::new(),
            activity_inc: 1.0,
            order: VarOrder::default(),
            phase: Vec::new(),
            unsat: false,
            conflicts: 0,
            decisions: 0,
        };
        solver.grow(num_vars);
        solver
    }

    /// Restores this solver to `image`'s state, reusing this solver's
    /// allocations (the clause and watch lists are overwritten in place).
    pub(crate) fn restore_from(&mut self, image: &SatSolver) {
        // Exhaustive: a field added later must be restored or listed here.
        let SatSolver {
            num_vars,
            clauses,
            watches,
            clause_buf: _,
            assign,
            level,
            reason,
            trail,
            trail_lim,
            trail_low_water,
            propagate_head,
            activity,
            activity_inc,
            order: VarOrder { heap, pos },
            phase,
            unsat,
            conflicts,
            decisions,
        } = image;
        self.num_vars = *num_vars;
        self.clauses.clone_from(clauses);
        self.watches.clone_from(watches);
        self.assign.clone_from(assign);
        self.level.clone_from(level);
        self.reason.clone_from(reason);
        self.trail.clone_from(trail);
        self.trail_lim.clone_from(trail_lim);
        self.trail_low_water = *trail_low_water;
        self.propagate_head = *propagate_head;
        self.activity.clone_from(activity);
        self.activity_inc = *activity_inc;
        self.order.heap.clone_from(heap);
        self.order.pos.clone_from(pos);
        self.phase.clone_from(phase);
        self.unsat = *unsat;
        self.conflicts = *conflicts;
        self.decisions = *decisions;
    }

    /// Adds variables up to `num_vars` in total: unassigned, at level 0,
    /// with no reason, zero activity, a negative saved phase and two empty
    /// watch lists, appended at the end of the decision heap. This is the
    /// one place a variable's initial state is defined: growing a solver
    /// that has not searched yet equals [`SatSolver::new`] over all the
    /// variables followed by the same clauses.
    ///
    /// # Panics
    ///
    /// Debug builds assert that `num_vars` does not shrink the solver.
    pub(crate) fn grow(&mut self, num_vars: usize) {
        debug_assert!(num_vars >= self.num_vars, "grow cannot remove variables");
        // A zero-activity variable with a larger index than every existing
        // one never precedes its parent, so appending keeps the heap valid.
        for var in self.num_vars..num_vars {
            self.order.pos.push(self.order.heap.len() as u32);
            self.order.heap.push(var as u32);
        }
        self.watches.resize_with(2 * num_vars, Vec::new);
        self.assign.resize(num_vars, None);
        self.level.resize(num_vars, 0);
        self.reason.resize(num_vars, None);
        self.activity.resize(num_vars, 0.0);
        self.phase.resize(num_vars, false);
        self.num_vars = num_vars;
    }

    /// Number of Boolean variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of conflicts encountered so far.
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Number of decisions made so far.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Current decision level.
    pub fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    /// Returns `true` once the clause database is known to be unsatisfiable.
    pub fn is_unsat(&self) -> bool {
        self.unsat
    }

    /// Truth value of a literal.
    pub fn value(&self, lit: Lit) -> LitValue {
        match self.assign[lit.var()] {
            None => LitValue::Unassigned,
            Some(v) => {
                if v == lit.is_positive() {
                    LitValue::True
                } else {
                    LitValue::False
                }
            }
        }
    }

    /// Boolean value of a variable, if assigned.
    pub fn var_value(&self, var: usize) -> Option<bool> {
        self.assign[var]
    }

    /// The assignment trail in chronological order. Backtracking only ever
    /// truncates the trail, so a prefix that matched earlier still matches —
    /// the property the incremental theory synchronisation relies on.
    pub fn trail(&self) -> &[Lit] {
        &self.trail
    }

    /// Smallest trail length reached since the last
    /// [`SatSolver::reset_trail_low_water`] call. Trail entries below this
    /// index are guaranteed unchanged since then; entries at or above it may
    /// have been truncated and regrown (possibly with identical literals), so
    /// an incremental theory must re-process them.
    pub fn trail_low_water(&self) -> usize {
        self.trail_low_water
    }

    /// Marks the current trail as fully observed: the low-water mark restarts
    /// at the current trail length.
    pub fn reset_trail_low_water(&mut self) {
        self.trail_low_water = self.trail.len();
    }

    /// Adds a clause at decision level zero. Duplicate literals are removed;
    /// tautologies are ignored. A clause that is empty or falsified at level
    /// zero makes the instance unsatisfiable ([`SatSolver::is_unsat`]).
    ///
    /// The clause is reduced in a reused buffer: only a clause that is
    /// stored (two or more literals left) allocates, for its own copy.
    pub fn add_clause(&mut self, clause: &[Lit]) {
        if self.unsat {
            return;
        }
        debug_assert_eq!(
            self.decision_level(),
            0,
            "problem clauses must be added at decision level zero"
        );
        let mut lits = std::mem::take(&mut self.clause_buf);
        lits.clear();
        lits.extend_from_slice(clause);
        lits.sort_unstable_by_key(|l| l.index());
        lits.dedup();
        // A tautology (a literal and its negation in the same clause) or a
        // literal true at level zero satisfies the clause; otherwise drop the
        // literals already false at level zero.
        let satisfied = lits.windows(2).any(|pair| pair[0].var() == pair[1].var())
            || lits.iter().any(|&lit| self.value(lit) == LitValue::True);
        if !satisfied {
            lits.retain(|&lit| self.value(lit) == LitValue::Unassigned);
            match lits.len() {
                0 => self.unsat = true,
                1 => {
                    self.enqueue(lits[0], None);
                    self.unsat = self.propagate().is_some();
                }
                _ => {
                    self.attach_clause(lits.clone());
                }
            }
        }
        self.clause_buf = lits;
    }

    /// Stores a clause of at least two literals, watching its first two.
    fn attach_clause(&mut self, lits: Vec<Lit>) -> usize {
        let idx = self.clauses.len();
        self.watches[lits[0].index()].push(idx);
        self.watches[lits[1].index()].push(idx);
        self.clauses.push(lits);
        idx
    }

    fn enqueue(&mut self, lit: Lit, reason: Option<usize>) {
        debug_assert!(self.value(lit) == LitValue::Unassigned);
        self.assign[lit.var()] = Some(lit.is_positive());
        self.level[lit.var()] = self.decision_level();
        self.reason[lit.var()] = reason;
        self.phase[lit.var()] = lit.is_positive();
        self.trail.push(lit);
    }

    /// Runs unit propagation to a fixpoint. Returns the index of a conflicting
    /// clause, if any.
    ///
    /// The falsified literal's watch list is compacted in place: the entries
    /// it keeps move to its front in their order, and a clause that found a
    /// replacement watch is pushed onto that literal's list instead (never
    /// this one: the replacement is not false).
    pub fn propagate(&mut self) -> Option<usize> {
        while self.propagate_head < self.trail.len() {
            let lit = self.trail[self.propagate_head];
            self.propagate_head += 1;
            let falsified = lit.negated();
            let mut watch_list = std::mem::take(&mut self.watches[falsified.index()]);
            let mut kept = 0;
            let mut next = 0;
            let mut conflict = None;
            while next < watch_list.len() {
                let clause_idx = watch_list[next];
                next += 1;
                // Normalise so the falsified literal sits at position 1.
                let clause_len = self.clauses[clause_idx].len();
                if self.clauses[clause_idx][0] == falsified {
                    self.clauses[clause_idx].swap(0, 1);
                }
                let first = self.clauses[clause_idx][0];
                if self.value(first) == LitValue::True {
                    watch_list[kept] = clause_idx;
                    kept += 1;
                    continue;
                }
                // Look for a replacement watch.
                let mut replaced = false;
                for k in 2..clause_len {
                    let candidate = self.clauses[clause_idx][k];
                    if self.value(candidate) != LitValue::False {
                        self.clauses[clause_idx].swap(1, k);
                        self.watches[candidate.index()].push(clause_idx);
                        replaced = true;
                        break;
                    }
                }
                if replaced {
                    continue;
                }
                // No replacement: the clause is unit or conflicting.
                watch_list[kept] = clause_idx;
                kept += 1;
                match self.value(first) {
                    LitValue::Unassigned => self.enqueue(first, Some(clause_idx)),
                    LitValue::False => {
                        conflict = Some(clause_idx);
                        break;
                    }
                    LitValue::True => unreachable!("handled above"),
                }
            }
            // A conflict leaves the entries after it unvisited, and kept.
            watch_list.copy_within(next.., kept);
            watch_list.truncate(kept + watch_list.len() - next);
            self.watches[falsified.index()] = watch_list;
            if conflict.is_some() {
                self.propagate_head = self.trail.len();
                return conflict;
            }
        }
        None
    }

    /// Starts a new decision level and assumes `lit`.
    pub fn decide(&mut self, lit: Lit) {
        debug_assert!(self.value(lit) == LitValue::Unassigned);
        self.decisions += 1;
        self.trail_lim.push(self.trail.len());
        self.enqueue(lit, None);
    }

    /// Picks the next decision literal: the unassigned variable with the
    /// highest activity (popped from the activity-ordered heap; assigned
    /// entries surfacing at the root are lazily discarded), using the saved
    /// phase. Returns `None` when all variables are assigned.
    pub fn pick_branch_literal(&mut self) -> Option<Lit> {
        while let Some(var) = self.order.pop(&self.activity) {
            if self.assign[var].is_none() {
                return Some(Lit::new(var, self.phase[var]));
            }
        }
        None
    }

    /// Returns a variable obtained from [`SatSolver::pick_branch_literal`]
    /// to the decision heap without deciding it — used by the DPLL(T) driver
    /// when a theory check intervenes between picking and deciding.
    pub fn requeue_decision(&mut self, var: usize) {
        self.order.insert(var, &self.activity);
    }

    /// Backtracks to the given decision level (keeping assignments made at or
    /// below that level).
    pub fn backtrack(&mut self, target_level: usize) {
        if self.decision_level() <= target_level {
            return;
        }
        let new_len = self.trail_lim[target_level];
        for i in new_len..self.trail.len() {
            let var = self.trail[i].var();
            self.assign[var] = None;
            self.reason[var] = None;
            self.order.insert(var, &self.activity);
        }
        self.trail.truncate(new_len);
        self.trail_lim.truncate(target_level);
        self.trail_low_water = self.trail_low_water.min(self.trail.len());
        self.propagate_head = self.trail.len();
    }

    fn bump_activity(&mut self, var: usize) {
        self.activity[var] += self.activity_inc;
        self.order.bumped(var, &self.activity);
        if self.activity[var] > 1e100 {
            // Uniform rescale: relative order is untouched, so the heap needs
            // no repair.
            for act in &mut self.activity {
                *act *= 1e-100;
            }
            self.activity_inc *= 1e-100;
        }
    }

    fn decay_activities(&mut self) {
        self.activity_inc /= 0.95;
    }

    /// Analyses a conflict expressed as a set of currently-false literals,
    /// learns a first-UIP clause, backjumps and asserts the learned literal.
    /// A clause learned from a theory conflict goes through here too: it
    /// negates literals on the trail, so it is always such a conflict.
    ///
    /// Returns `false` when the conflict proves unsatisfiability (conflict at
    /// decision level zero).
    ///
    /// # Panics
    ///
    /// Debug builds assert that every literal is false.
    pub fn resolve_conflict_with(&mut self, conflict_lits: &[Lit]) -> bool {
        self.conflicts += 1;
        debug_assert!(
            conflict_lits
                .iter()
                .all(|l| self.value(*l) == LitValue::False),
            "a conflict negates literals on the trail"
        );

        // The analysis below requires at least one conflict literal at the
        // current decision level. Theory conflicts may only involve literals
        // assigned earlier; backtrack to the deepest level they mention first.
        let max_level = conflict_lits
            .iter()
            .map(|l| self.level[l.var()])
            .max()
            .unwrap_or(0);
        if max_level == 0 || self.decision_level() == 0 {
            self.unsat = true;
            return false;
        }
        if max_level < self.decision_level() {
            self.backtrack(max_level);
        }

        let current_level = self.decision_level();
        let mut seen = vec![false; self.num_vars];
        let mut learnt: Vec<Lit> = Vec::new();
        let mut counter = 0usize;
        let mut trail_idx = self.trail.len();
        let mut current_reason: Vec<Lit> = conflict_lits.to_vec();
        let mut asserting_lit: Option<Lit> = None;

        loop {
            for &lit in &current_reason {
                if Some(lit) == asserting_lit.map(Lit::negated) {
                    continue;
                }
                let var = lit.var();
                if !seen[var] && self.level[var] > 0 {
                    seen[var] = true;
                    self.bump_activity(var);
                    if self.level[var] >= current_level {
                        counter += 1;
                    } else {
                        learnt.push(lit);
                    }
                }
            }
            // Walk the trail backwards to the next seen literal.
            loop {
                trail_idx -= 1;
                if seen[self.trail[trail_idx].var()] {
                    break;
                }
            }
            let p = self.trail[trail_idx];
            seen[p.var()] = false;
            counter -= 1;
            if counter == 0 {
                asserting_lit = Some(p);
                break;
            }
            let reason_idx = self.reason[p.var()]
                .expect("non-decision literal at the current level has a reason");
            current_reason = self.clauses[reason_idx]
                .iter()
                .copied()
                .filter(|l| *l != p)
                .collect();
            asserting_lit = Some(p);
        }

        let asserting = asserting_lit.expect("conflict analysis produces an asserting literal");
        let asserted = asserting.negated();
        // Backjump level: highest level among the remaining learned literals.
        let backjump = learnt
            .iter()
            .map(|l| self.level[l.var()])
            .max()
            .unwrap_or(0);

        let mut clause = Vec::with_capacity(learnt.len() + 1);
        clause.push(asserted);
        clause.extend(learnt);

        self.decay_activities();
        self.backtrack(backjump);

        if clause.len() == 1 {
            self.enqueue(asserted, None);
        } else {
            // Watch the asserted literal and one literal from the backjump level.
            let mut second = 1;
            for (i, lit) in clause.iter().enumerate().skip(1) {
                if self.level[lit.var()] == backjump {
                    second = i;
                    break;
                }
            }
            clause.swap(1, second);
            let idx = self.attach_clause(clause);
            self.enqueue(asserted, Some(idx));
        }
        true
    }

    /// Resolves a conflict identified by a stored clause index.
    ///
    /// Returns `false` when the instance is proved unsatisfiable.
    pub fn resolve_conflict(&mut self, clause_idx: usize) -> bool {
        let lits = self.clauses[clause_idx].clone();
        self.resolve_conflict_with(&lits)
    }

    /// Enqueues `lit` as a *theory-propagated* literal: the theory solver has
    /// derived `(a₁ ∧ … ∧ aₙ) → lit` from the currently-true antecedent
    /// literals `aᵢ`. The implication clause `lit ∨ ¬a₁ ∨ … ∨ ¬aₙ` is
    /// attached eagerly (watching `lit` and the deepest-level antecedent, the
    /// same discipline as learned clauses) so it both serves as the reason
    /// for conflict analysis and persists as a theory lemma.
    ///
    /// Returns `false` when `lit` is already false — the implication is then
    /// a theory conflict and the caller should raise it as one. Already-true
    /// literals are a no-op.
    ///
    /// # Panics
    ///
    /// Debug builds assert that `antecedents` is non-empty and all currently
    /// true.
    pub fn propagate_theory_literal(&mut self, lit: Lit, antecedents: &[Lit]) -> bool {
        debug_assert!(!antecedents.is_empty(), "implication needs antecedents");
        debug_assert!(antecedents.iter().all(|a| self.value(*a) == LitValue::True));
        match self.value(lit) {
            LitValue::True => true,
            LitValue::False => false,
            LitValue::Unassigned => {
                let mut clause = Vec::with_capacity(antecedents.len() + 1);
                clause.push(lit);
                clause.extend(antecedents.iter().map(|a| a.negated()));
                let mut deepest = 1;
                for (i, l) in clause.iter().enumerate().skip(2) {
                    if self.level[l.var()] > self.level[clause[deepest].var()] {
                        deepest = i;
                    }
                }
                clause.swap(1, deepest);
                let idx = self.attach_clause(clause);
                self.enqueue(lit, Some(idx));
                true
            }
        }
    }

    /// Propositional solve loop with no theory and no governor, for the
    /// unit tests; returns `true` when satisfiable.
    #[cfg(test)]
    pub(crate) fn solve(&mut self) -> bool {
        if self.unsat {
            return false;
        }
        loop {
            if let Some(conflict) = self.propagate() {
                if !self.resolve_conflict(conflict) {
                    return false;
                }
                continue;
            }
            match self.pick_branch_literal() {
                None => return true,
                Some(lit) => self.decide(lit),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(var: usize, positive: bool) -> Lit {
        Lit::new(var, positive)
    }

    #[test]
    fn literal_encoding_round_trip() {
        let l = lit(7, true);
        assert_eq!(l.var(), 7);
        assert!(l.is_positive());
        assert!(!l.negated().is_positive());
        assert_eq!(l.negated().negated(), l);
        assert_eq!(l.index(), 14);
        assert_eq!(l.negated().index(), 15);
    }

    #[test]
    fn empty_problem_is_sat() {
        let mut solver = SatSolver::new(3);
        assert!(solver.solve());
    }

    #[test]
    fn unit_clauses_propagate() {
        let mut solver = SatSolver::new(2);
        solver.add_clause(&[lit(0, true)]);
        solver.add_clause(&[lit(0, false), lit(1, true)]);
        assert!(solver.solve());
        assert_eq!(solver.var_value(0), Some(true));
        assert_eq!(solver.var_value(1), Some(true));
    }

    #[test]
    fn contradictory_units_are_unsat() {
        let mut solver = SatSolver::new(1);
        solver.add_clause(&[lit(0, true)]);
        solver.add_clause(&[lit(0, false)]);
        assert!(solver.is_unsat());
        assert!(!solver.solve());
    }

    #[test]
    fn simple_unsat_instance() {
        // All four clauses over two variables: unsatisfiable.
        let mut solver = SatSolver::new(2);
        solver.add_clause(&[lit(0, true), lit(1, true)]);
        solver.add_clause(&[lit(0, true), lit(1, false)]);
        solver.add_clause(&[lit(0, false), lit(1, true)]);
        solver.add_clause(&[lit(0, false), lit(1, false)]);
        assert!(!solver.solve());
    }

    #[test]
    fn satisfiable_three_sat_instance() {
        let mut solver = SatSolver::new(4);
        solver.add_clause(&[lit(0, true), lit(1, true), lit(2, false)]);
        solver.add_clause(&[lit(1, false), lit(2, true), lit(3, true)]);
        solver.add_clause(&[lit(0, false), lit(3, false), lit(2, true)]);
        solver.add_clause(&[lit(0, false), lit(1, false), lit(3, true)]);
        assert!(solver.solve());
        // Verify the model satisfies every clause.
        for clause in &solver.clauses {
            assert!(clause.iter().any(|l| solver.value(*l) == LitValue::True));
        }
    }

    #[test]
    fn pigeonhole_three_pigeons_two_holes_is_unsat() {
        // Variables p_{i,j} = pigeon i in hole j, i in 0..3, j in 0..2.
        let var = |i: usize, j: usize| i * 2 + j;
        let mut solver = SatSolver::new(6);
        // Every pigeon is in some hole.
        for i in 0..3 {
            solver.add_clause(&[lit(var(i, 0), true), lit(var(i, 1), true)]);
        }
        // No two pigeons share a hole.
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    solver.add_clause(&[lit(var(i1, j), false), lit(var(i2, j), false)]);
                }
            }
        }
        assert!(!solver.solve());
    }

    #[test]
    fn tautological_clause_is_ignored() {
        let mut solver = SatSolver::new(1);
        solver.add_clause(&[lit(0, true), lit(0, false)]);
        assert!(!solver.is_unsat());
        assert!(solver.solve());
    }

    #[test]
    fn duplicate_literals_are_merged() {
        let mut solver = SatSolver::new(2);
        solver.add_clause(&[lit(0, true), lit(0, true), lit(1, false)]);
        assert!(solver.solve());
    }

    #[test]
    fn externally_learned_clause_is_respected() {
        let mut solver = SatSolver::new(2);
        solver.add_clause(&[lit(0, true), lit(1, true)]);
        assert!(solver.solve());
        // Forbid the found model repeatedly; the instance stays satisfiable
        // until all three satisfying assignments are excluded.
        let mut excluded = 0;
        loop {
            let model: Vec<Lit> = (0..2)
                .map(|v| Lit::new(v, solver.var_value(v).unwrap_or(false)))
                .collect();
            let blocking: Vec<Lit> = model.iter().map(|l| l.negated()).collect();
            if !solver.resolve_conflict_with(&blocking) {
                break;
            }
            if !solver.solve() {
                break;
            }
            excluded += 1;
            assert!(excluded <= 3, "more models than possible");
        }
        assert_eq!(excluded, 2, "three satisfying assignments expected");
    }

    #[test]
    fn statistics_are_tracked() {
        let mut solver = SatSolver::new(3);
        solver.add_clause(&[lit(0, true), lit(1, true), lit(2, true)]);
        solver.add_clause(&[lit(0, false), lit(1, false)]);
        assert!(solver.solve());
        assert!(solver.decisions() > 0);
    }

    #[test]
    fn backtrack_restores_unassigned_state() {
        let mut solver = SatSolver::new(2);
        solver.add_clause(&[lit(0, true), lit(1, true)]);
        solver.decide(lit(0, false));
        assert!(solver.propagate().is_none());
        assert_eq!(solver.var_value(1), Some(true));
        solver.backtrack(0);
        assert_eq!(solver.var_value(0), None);
        assert_eq!(solver.var_value(1), None);
    }
}
