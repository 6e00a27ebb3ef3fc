//! Theory-level bound propagation and the implication graph that keeps the
//! reasons of every derived bound.

use std::rc::Rc;

use super::bounds::{Bound, Reason, Side};
use super::index::{IndexVec, Node, Row, Tag, Var};
use super::{Delta, Simplex};

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

/// A variable bound derived by theory-level bound propagation
/// ([`Simplex::propagate_bounds`]). Its explanation is read through
/// [`Simplex::explanation`] while the bound is installed.
#[derive(Debug, Clone)]
pub struct ImpliedBound {
    /// Tableau variable the bound applies to.
    pub var: Var,
    /// Which of the variable's bounds it is.
    pub side: Side,
    /// The derived bound value (already padded outward by the propagation
    /// safety margin, so it is a sound consequence despite float round-off).
    pub value: Delta,
    /// The bound's node in the implication graph.
    handle: Handle,
}

/// Reused scratch set every explanation is flattened through.
///
/// The reasons behind one derived bound repeat most of their tags (the
/// derived contributors of a row share their own explanations), so each tag
/// is marked once and only the distinct tags are sorted.
#[derive(Debug, Default)]
struct TagSet {
    /// `marked[t]` iff tag `t` is in `tags`.
    marked: IndexVec<Tag, bool>,
    /// The current union's tags, each once.
    tags: Vec<Tag>,
}

impl TagSet {
    /// Empties the set.
    fn clear(&mut self) {
        for &tag in &self.tags {
            self.marked[tag] = false;
        }
        self.tags.clear();
    }

    fn insert(&mut self, tag: Tag) {
        if tag.index() >= self.marked.len() {
            self.marked.resize(tag.index() + 1, false);
        }
        if !self.marked[tag] {
            self.marked[tag] = true;
            self.tags.push(tag);
        }
    }

    /// The set's tags, ascending.
    fn sorted(&mut self) -> &[Tag] {
        self.tags.sort_unstable();
        &self.tags
    }
}

/// Names a node of the [`ImplicationGraph`]: its index, and its serial,
/// which no other node pushed at that index ever shares.
#[derive(Debug, Clone, Copy)]
pub(super) struct Handle {
    pub(super) node: Node,
    serial: u64,
}

/// A derived bound's node in the [`ImplicationGraph`].
#[derive(Debug, Clone)]
pub(super) struct Derivation {
    /// Position of the bound's entry on the bound trail.
    trail_pos: usize,
    /// The node's contributors: `contributors[start..end]` of the graph.
    start: usize,
    end: usize,
    /// Distinguishes this node from every other node ever pushed at the
    /// same index, so a retracted bound's handle cannot read a later one.
    serial: u64,
    /// The node's asserted tags, ascending, once flattened.
    memo: Option<Rc<[Tag]>>,
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
pub(super) struct ImplicationGraph {
    pub(super) nodes: IndexVec<Node, Derivation>,
    /// Every node's contributors, in node order.
    pub(super) contributors: Vec<Reason>,
    /// Serial of the next node pushed; never decreases.
    next_serial: u64,
    /// Flattening scratch: the union being built, the roots of an
    /// explanation, and the nodes awaiting their memo.
    tag_set: TagSet,
    roots: Vec<Reason>,
    stack: Vec<Node>,
}

impl ImplicationGraph {
    /// Pushes the node of a bound about to be installed at trail position
    /// `trail_pos`, whose contributors were pushed onto
    /// [`ImplicationGraph::contributors`] since `start`.
    pub(super) fn push(&mut self, trail_pos: usize, start: usize) -> Handle {
        let handle = Handle {
            node: Node::new(self.nodes.len()),
            serial: self.next_serial,
        };
        self.nodes.push(Derivation {
            trail_pos,
            start,
            end: self.contributors.len(),
            serial: handle.serial,
            memo: None,
        });
        self.next_serial += 1;
        handle
    }

    /// Drops the nodes of the bounds at or above trail position `mark`, with
    /// their contributors and memos.
    pub(super) fn truncate(&mut self, mark: usize) {
        let keep = self.nodes.partition_point(|node| node.trail_pos < mark);
        if let Some(first) = self.nodes.get(keep) {
            self.contributors.truncate(first.start);
            self.nodes.truncate(keep);
        }
    }

    /// Restores `image`'s nodes and contributors, keeping at most
    /// `capacity` entries of idle capacity in each and in the flatten
    /// stack. The copied nodes get fresh serials, so no handle made before
    /// the restore names one.
    pub(super) fn restore_from(&mut self, image: &ImplicationGraph, capacity: usize) {
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
        for node in self.nodes.iter_mut() {
            node.serial = self.next_serial;
            self.next_serial += 1;
        }
        self.nodes.shrink_to(capacity);
        self.contributors.shrink_to(capacity);
        self.stack.shrink_to(capacity);
    }

    /// The asserted tags behind `roots`, ascending and duplicate-free.
    pub(super) fn explain(&mut self, roots: impl IntoIterator<Item = Reason>) -> Vec<Tag> {
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

    /// The explanation of the node `handle` names.
    ///
    /// # Panics
    ///
    /// Panics if that node was dropped since `handle` was made.
    pub(super) fn explanation(&mut self, handle: Handle) -> Rc<[Tag]> {
        assert!(
            self.nodes
                .get(handle.node.index())
                .is_some_and(|node| node.serial == handle.serial),
            "explanation asked for a retracted bound"
        );
        self.flatten(handle.node);
        let memo = &self.nodes[handle.node].memo;
        Rc::clone(memo.as_ref().expect("the node is flattened"))
    }

    /// Fills `tag_set` with the tags of `reasons`, whose derived nodes are
    /// all flattened.
    fn union(tag_set: &mut TagSet, nodes: &IndexVec<Node, Derivation>, reasons: &[Reason]) {
        tag_set.clear();
        for &reason in reasons {
            match reason {
                Reason::Asserted(tag) => tag_set.insert(tag),
                Reason::Derived(node) => {
                    let memo = nodes[node].memo.as_deref();
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
    fn flatten(&mut self, root: Node) {
        let mut stack = std::mem::take(&mut self.stack);
        stack.clear();
        stack.push(root);
        while let Some(&node) = stack.last() {
            let Derivation {
                start,
                end,
                ref memo,
                ..
            } = self.nodes[node];
            if memo.is_some() {
                stack.pop();
                continue;
            }
            let contributors = &self.contributors[start..end];
            let depth = stack.len();
            for &reason in contributors {
                if let Reason::Derived(child) = reason {
                    if self.nodes[child].memo.is_none() {
                        stack.push(child);
                    }
                }
            }
            if stack.len() == depth {
                // Every derived contributor is flattened: take the union.
                stack.pop();
                Self::union(&mut self.tag_set, &self.nodes, contributors);
                self.nodes[node].memo = Some(self.tag_set.sorted().into());
            }
        }
        self.stack = stack;
    }
}

/// One interval sum of [`Simplex::propagate_row`]'s pass 1: the sum over
/// the terms of their extreme on one side, the number of terms without a
/// bound on that side, and the last of them.
#[derive(Debug, Clone, Copy, Default)]
struct IntervalSum {
    value: Delta,
    missing: usize,
    missing_var: Option<Var>,
}

impl IntervalSum {
    /// Adds the extreme of the term `c·v`, attained at `bound`, or counts
    /// the term as missing.
    fn add(&mut self, bound: Option<&Bound>, (v, c): (Var, f64)) {
        match bound {
            Some(bound) => self.value = self.value.add(bound.value.scale(c)),
            None => {
                self.missing += 1;
                self.missing_var = Some(v);
            }
        }
    }
}

impl Simplex {
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
    ) -> Result<(), Vec<Tag>> {
        let mut rows = std::mem::take(&mut self.wave_buf);
        let mut result = Ok(());
        'waves: for _wave in 0..PROP_MAX_DEPTH {
            // One breadth-first wave: every row touched by the bounds
            // tightened in the previous wave (or, at depth 0, since the last
            // call), each scanned once per wave no matter how many of its
            // members went dirty. `wave_rows` empties the worklist, so the
            // bounds this wave's rows install form the next wave.
            if self.dirty.is_empty() {
                break;
            }
            self.wave_rows(&mut rows);
            for &row in &rows {
                if out.len() >= limit {
                    self.dirty.clear();
                    break 'waves;
                }
                if let Err(conflict) = self.propagate_row(row, out) {
                    self.dirty.clear();
                    result = Err(conflict);
                    break 'waves;
                }
            }
        }
        // Bounds installed by the deepest wave stay on the worklist for the
        // next call rather than seeding further work now.
        self.wave_buf = rows;
        result
    }

    /// Replaces `rows` by the rows of the propagation wave seeded by the
    /// worklist, in ascending order and each once, and empties the
    /// worklist. A row belongs to the wave when a listed basic variable owns
    /// it (its bound constrains its own defining row) or when it has a
    /// nonzero in the slot of a listed nonbasic variable (its bound feeds
    /// every row mentioning it).
    ///
    /// One row-major pass over the tableau: a row is kept at its mark or at
    /// the first listed slot it has a nonzero in, so a dense row costs about
    /// one read.
    pub(super) fn wave_rows(&mut self, rows: &mut Vec<Row>) {
        self.row_marks.resize(self.row_owner.len(), false);
        self.slot_buf.clear();
        for &var in &self.dirty {
            match self.basic_row[var] {
                Some(row) => self.row_marks[row] = true,
                None => self.slot_buf.push(self.slot(var)),
            }
        }
        self.dirty.clear();
        self.slot_buf.sort_unstable();
        self.slot_buf.dedup();
        rows.clear();
        for (row, marked) in self.row_marks.iter_mut().enumerate() {
            let row = Row::new(row);
            let coeffs = self.tableau.row(row);
            if std::mem::take(marked) || self.slot_buf.iter().any(|s| coeffs[s.index()] != 0.0) {
                rows.push(row);
            }
        }
    }

    /// The bound of `var` that bounds the term `coeff · var` on `side`:
    /// the one its maximum is attained at for the upper side, its minimum
    /// for the lower.
    fn contribution(&self, var: Var, coeff: f64, side: Side) -> Option<&Bound> {
        self.bound(var, side.of_term(coeff))
    }

    /// Interval-propagates one row (see [`Simplex::propagate_bounds`]).
    ///
    /// The row `y = Σ aⱼ·xⱼ` is treated as the relation `0 = Σᵢ cᵢ·vᵢ` with
    /// the owner `y` carrying coefficient −1. From the interval sums
    /// `HI = Σ max(cᵢ·vᵢ)` (the upper side) and `LO = Σ min(cᵢ·vᵢ)` (the
    /// lower side), every term with all *other* terms bounded on the relevant
    /// side gets `cₜ·vₜ ≥ −(HI − max(cₜ·vₜ))` and `cₜ·vₜ ≤ −(LO − min(cₜ·vₜ))`.
    fn propagate_row(&mut self, row: Row, out: &mut Vec<ImpliedBound>) -> Result<(), Vec<Tag>> {
        // The relation's terms — the owner first, then the row entries in
        // variable order — gathered once into the reused term buffer, which
        // both passes and the explanation gathering read, so they can never
        // disagree on the owner convention.
        let mut terms = std::mem::take(&mut self.terms_buf);
        terms.clear();
        // Pass 1: interval sums over all terms, tracking how many terms miss
        // the needed bound (two missing on both sides ⇒ nothing derivable).
        // One call per side, each with a constant side (see
        // `Side::specialize`).
        let (mut hi, mut lo) = (IntervalSum::default(), IntervalSum::default());
        let owner = (self.row_owner[row], -1.0);
        for (v, c) in std::iter::once(owner).chain(self.row_entries(row)) {
            terms.push((v, c));
            hi.add(self.contribution(v, c, Side::Upper), (v, c));
            lo.add(self.contribution(v, c, Side::Lower), (v, c));
            if hi.missing > 1 && lo.missing > 1 {
                break;
            }
        }
        if hi.missing > 1 && lo.missing > 1 {
            self.terms_buf = terms;
            return Ok(());
        }
        // Pass 2: derive a bound for every term the sums cover, HI before LO.
        // The LO side of a term reads its own bound as installed now, which
        // the HI side of the same term may just have tightened.
        let mut derived = Ok(());
        for &term in &terms {
            derived = self
                .derive_from_sum(&terms, term, hi, Side::Upper, out)
                .and_then(|()| self.derive_from_sum(&terms, term, lo, Side::Lower, out));
            if derived.is_err() {
                break;
            }
        }
        self.terms_buf = terms;
        derived
    }

    /// Pass 2 of [`Simplex::propagate_row`] for the term `c·v` and the
    /// interval sum on `side` (HI on the upper side, LO on the lower):
    /// `c·v ≥ −(HI − max(c·v))` or `c·v ≤ −(LO − min(c·v))`, installed
    /// when the sum covers the term and the bound improves.
    #[inline(always)]
    fn derive_from_sum(
        &mut self,
        terms: &[(Var, f64)],
        (v, c): (Var, f64),
        sum: IntervalSum,
        side: Side,
        out: &mut Vec<ImpliedBound>,
    ) -> Result<(), Vec<Tag>> {
        // The sum covers the term when every other term has a bound on
        // this side.
        if !(sum.missing == 0 || (sum.missing == 1 && sum.missing_var == Some(v))) {
            return Ok(());
        }
        let rest = if sum.missing == 1 {
            sum.value
        } else {
            // Invariant: `missing == 0` means pass 1 saw a bound on this side
            // for every term, and bounds are only tightened (never removed)
            // between the passes.
            let own = self
                .contribution(v, c, side)
                .expect("no bound missing on this side")
                .value
                .scale(c);
            sum.value.sub(own)
        };
        // A bound on the other side of v than the sum's for c > 0, on the
        // same side for c < 0.
        let bound_side = (!side).of_term(c);
        let value = rest.scale(-1.0 / c);
        match bound_side.specialize(|bound_side| self.improved_bound(v, bound_side, value)) {
            Some(bound) => self.install_implied(terms, v, bound_side, bound, side, out),
            None => Ok(()),
        }
    }

    /// The bound on `var` derived as `value`, padded outward, if it is worth
    /// installing: the one test every candidate of [`Simplex::propagate_row`]
    /// passes before [`Simplex::install_implied`].
    #[inline(always)]
    fn improved_bound(&self, var: Var, side: Side, value: Delta) -> Option<Delta> {
        // Pad outward before the improvement test so borderline derivations
        // are dropped rather than installed as zero-information bounds.
        let padded = match side {
            Side::Lower => value.real - PROP_PAD,
            Side::Upper => value.real + PROP_PAD,
        };
        let value = Delta::with_delta(padded, value.delta);
        // Worthwhile-improvement test: a fresh bound always is; an existing
        // one must be beaten by at least `PROP_IMPROVE` in the real part
        // (delta-only improvements are below the literal-fixing clearance
        // and only feed re-derivation churn).
        let tighter = self.bound(var, side).map_or(true, |existing| {
            side.inside_by(value.real, existing.value.real, PROP_IMPROVE)
        });
        tighter.then_some(value)
    }

    /// Installs one derived bound that passed [`Simplex::improved_bound`]:
    /// pushes its implication-graph node, whose contributors are the reasons
    /// of the bounds the row's other `terms` contributed to the interval sum
    /// on `sum_side`, and records the bound in `out`.
    fn install_implied(
        &mut self,
        terms: &[(Var, f64)],
        var: Var,
        side: Side,
        value: Delta,
        sum_side: Side,
        out: &mut Vec<ImpliedBound>,
    ) -> Result<(), Vec<Tag>> {
        // Contributors: the bound of every *other* term that fed the interval
        // sum. They are read here, over the bounds installed now, because an
        // earlier term of the same pass may just have tightened one of them.
        let mut contributors = std::mem::take(&mut self.graph.contributors);
        let start = contributors.len();
        contributors.extend(terms.iter().filter(|&&(u, _)| u != var).map(|&(u, cu)| {
            // Invariant: a derivation for `var` only exists when every
            // other term contributed to the interval sum (the missing-term
            // accounting in `propagate_row`), so its bound is installed.
            let contribution = self.contribution(u, cu, sum_side);
            contribution.expect("contributing term is bounded").reason
        }));
        self.graph.contributors = contributors;
        let handle = self.graph.push(self.trail.len(), start);
        let installed = self.set_bound(var, side, value, Reason::Derived(handle.node));
        if let Ok(true) = installed {
            out.push(ImpliedBound {
                var,
                side,
                value,
                handle,
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
    pub fn explanation(&mut self, bound: &ImpliedBound) -> Rc<[Tag]> {
        self.graph.explanation(bound.handle)
    }
}
