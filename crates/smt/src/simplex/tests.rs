use super::bounds::Reason;
use super::index::Node;
use super::propagation::{Handle, ImplicationGraph};
use super::tableau::{substitute_pivot, substitute_pivot_kernel, DROP_EPS};
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
use super::tableau::{substitutes_at_avx2, AVX2_MIN_COLUMNS};
use super::*;
use crate::{LinExpr, RelOp, VarPool};

fn vars(n: usize) -> (VarPool, Vec<crate::VarId>) {
    let mut pool = VarPool::new();
    let ids = pool.fresh_block("x", n);
    (pool, ids)
}

/// `constraints` with their tags as [`Tag`]s.
fn tagged(constraints: &[(Constraint, usize)]) -> Vec<(Constraint, Tag)> {
    let tag = |&(ref constraint, tag): &(Constraint, usize)| (constraint.clone(), Tag::new(tag));
    constraints.iter().map(tag).collect()
}

/// [`Simplex::check`] of `constraints` with their tags as [`Tag`]s.
fn check(num_problem_vars: usize, constraints: &[(Constraint, usize)]) -> SimplexResult {
    Simplex::check(num_problem_vars, &tagged(constraints))
}

/// The tags with the given indices.
fn tags(indices: &[usize]) -> Vec<Tag> {
    indices.iter().map(|&i| Tag::new(i)).collect()
}

/// An implication graph next to the eager flattening it replaced: each
/// node's explanation computed when the node is pushed, by pushing
/// every contributor's tags, then sorting and deduplicating.
#[derive(Default)]
struct EagerGraph {
    graph: ImplicationGraph,
    ids: Vec<Handle>,
    trail_pos: Vec<usize>,
    tags: Vec<Vec<Tag>>,
    /// Length of the simulated bound trail.
    trail: usize,
}

impl EagerGraph {
    /// The eager explanation of `reasons`.
    fn reference(&self, reasons: &[Reason]) -> Vec<Tag> {
        let mut tags = Vec::new();
        for &reason in reasons {
            match reason {
                Reason::Asserted(tag) => tags.push(tag),
                Reason::Derived(node) => tags.extend_from_slice(&self.tags[node.index()]),
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
        Reason::Derived(id.node)
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
                vec![Reason::Asserted(Tag::new(tag_base + rng.usize_below(300)))];
            for _ in 0..rng.usize_below(8) {
                contributors.push(if nodes > 0 && rng.bool() {
                    Reason::Derived(Node::new(rng.usize_below(nodes)))
                } else {
                    Reason::Asserted(Tag::new(tag_base + rng.usize_below(300)))
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
                        Reason::Derived(Node::new(rng.usize_below(nodes)))
                    } else {
                        Reason::Asserted(Tag::new(rng.usize_below(4000)))
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
            Reason::Asserted(Tag::new(5000)),
            Reason::Derived(Node::new(rng.usize_below(nodes))),
        ];
        eager.derive(0, &contributors);
    }
    for node in nodes..eager.ids.len() {
        eager.check(node);
    }

    // A chain 100,000 bounds deep, read from its far end first.
    eager.pop_to(start);
    let mut previous = eager.derive(1, &[Reason::Asserted(Tag::new(7))]);
    for i in 1..100_000 {
        previous = eager.derive(0, &[previous, Reason::Asserted(Tag::new(i % 5))]);
    }
    let top = eager.ids.len() - 1;
    eager.check(top);
    eager.check(nodes + 50_000);
    assert_eq!(eager.tags[top], tags(&[0, 1, 2, 3, 4, 7]));
}

#[test]
fn delta_arithmetic_and_ordering() {
    let a = Delta::real(1.0);
    let b = Delta::with_delta(1.0, -1.0);
    assert_eq!(b.cmp_delta(&a), Ordering::Less);
    assert_eq!(a.cmp_delta(&b), Ordering::Greater);
    assert!(Side::Upper.beyond(&a, &b) && Side::Lower.beyond(&b, &a));
    assert!(!Side::Upper.beyond(&b, &a) && !Side::Lower.beyond(&a, &b));
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
    match check(pool.len(), &constraints) {
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
    match check(pool.len(), &constraints) {
        SimplexResult::Infeasible(mut tags) => {
            tags.sort_unstable();
            assert_eq!(tags, self::tags(&[7, 9]));
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
    match check(pool.len(), &constraints) {
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
    match check(pool.len(), &constraints) {
        SimplexResult::Infeasible(tags) => {
            assert!(tags.contains(&Tag::new(0)));
            assert!(
                !tags.contains(&Tag::new(3)),
                "irrelevant constraint in explanation"
            );
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
    match check(pool.len(), &constraints) {
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
    assert!(!check(pool.len(), &constraints).is_feasible());
    // x <= 1 && x >= 1 is feasible (x = 1).
    let weak = vec![
        (LinExpr::var(v[0]).le(1.0), 0),
        (LinExpr::var(v[0]).ge(1.0), 1),
    ];
    assert!(check(pool.len(), &weak).is_feasible());
}

#[test]
fn equality_constraints() {
    let (pool, v) = vars(2);
    let constraints = vec![
        ((LinExpr::var(v[0]) + LinExpr::var(v[1])).eq_to(3.0), 0),
        ((LinExpr::var(v[0]) - LinExpr::var(v[1])).eq_to(1.0), 1),
    ];
    match check(pool.len(), &constraints) {
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
    match check(pool.len(), &constraints) {
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
    match check(pool.len(), &constraints) {
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
    assert!(!check(pool.len(), &impossible).is_feasible());
}

#[test]
fn push_pop_retracts_bounds() {
    let (pool, v) = vars(2);
    let mut simplex = Simplex::new(pool.len());
    let sum = LinExpr::var(v[0]) + LinExpr::var(v[1]);
    simplex
        .assert_all(&tagged(&[
            (sum.clone().le(2.0), 0),
            (LinExpr::var(v[0]).ge(0.5), 1),
        ]))
        .unwrap();
    assert!(simplex.solve().is_ok());
    let mark = simplex.mark();
    // Push bounds that make the system infeasible.
    simplex
        .assert_all(&tagged(&[(LinExpr::var(v[1]).ge(1.9), 2)]))
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
        .assert_all(&tagged(&[(LinExpr::var(v[1]).le(0.0), 3)]))
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
    simplex
        .assert_all(&tagged(&constraints))
        .expect("consistent bounds");
    assert_eq!(
        simplex.row_owner.len(),
        2,
        "same expression must share one slack row"
    );
    let s_sum = Var::new(pool.len());
    assert!(simplex.bounds[s_sum].iter().all(Option::is_some));
    // `define` keeps no index: callers reuse the variable it returned.
    let (s_diff, _) = simplex.define(&diff);
    assert_eq!(
        s_diff,
        Var::new(pool.len() + 2),
        "a second define adds a row"
    );
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
                .assert_bound(slack, scale, RelOp::Ge, target, Tag::new(r))
                .expect("no upper bound in the way");
        }
        simplex
    };
    let slack = |r: usize| Var::new(pool.len() + r);
    // One pivot per call; the slack that left the basis is the one that
    // was selected. The call scans once more after its pivot, and decides
    // the solve when that pivot repaired the last violation.
    let leaving = |simplex: &mut Simplex, bland_switch: u64| {
        let basic: Vec<Var> = simplex.row_owner.to_vec();
        let verdict = simplex.solve_loop(1, bland_switch, TinyPivots::Diverge, None);
        let feasible = simplex
            .row_owner
            .iter()
            .all(|&var| simplex.violation_of(var).is_none());
        assert_eq!(verdict, feasible.then_some(Ok(())));
        let left: Vec<Var> = basic
            .into_iter()
            .filter(|&var| simplex.basic_row[var].is_none())
            .collect();
        assert_eq!(left.len(), 1, "one pivot moves one variable out");
        left[0]
    };

    let mut simplex = build();
    let order: Vec<Var> = (0..targets.len())
        .map(|_| leaving(&mut simplex, u64::MAX))
        .collect();
    assert_eq!(order, vec![slack(1), slack(3), slack(2), slack(0)]);
    assert_eq!(simplex.select_leaving(false), None);
    assert_eq!(simplex.queue_pops(), 2 * targets.len() as u64 + 1);

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
    simplex
        .assert_all(&tagged(&constraints))
        .expect("consistent bounds");
    assert_eq!(simplex.row_owner.len(), rows.len());

    // Bland mode from the first pivot, into a conflict: the first row
    // cannot exceed its largest value over the box.
    let mark = simplex.mark();
    let reach: f64 = rows[0].terms().map(|(_, c)| c.abs()).sum();
    simplex
        .assert_bound(
            Var::new(pool.len()),
            1.0,
            RelOp::Ge,
            reach + 1.0,
            Tag::new(200),
        )
        .expect("no upper bound in the way");
    let verdict = simplex.solve_loop(u64::MAX, 0, TinyPivots::Take, None);
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
    assert_eq!(
        simplex.solve_bounded(u64::MAX, TinyPivots::Take, None),
        Some(Ok(()))
    );
    let model = simplex.concrete_assignment();
    for (constraint, tag) in &constraints {
        assert!(
            constraint.holds(&model),
            "constraint {tag} violated: {constraint}"
        );
    }
}

/// The rows of a propagation wave, read in one row-major pass, are the
/// rows the column-scan rule gathers: the row of each listed basic
/// variable plus every row with a nonzero in the column of a listed
/// nonbasic variable, sorted and deduplicated. Sparse and dense
/// tableaux, before and after pivots, with variables listed twice.
#[test]
fn wave_rows_match_the_column_scan_rule() {
    let column_scan = |simplex: &Simplex, frontier: &[Var]| {
        let mut rows: Vec<Row> = Vec::new();
        for &var in frontier {
            match simplex.basic_row[var] {
                Some(row) => rows.push(row),
                None => rows.extend(simplex.column(var).map(|(r, _)| r)),
            }
        }
        rows.sort_unstable();
        rows.dedup();
        rows
    };
    let mut rng = cps_linalg::SplitMix64::new(0x3A7E);
    let mut rows = Vec::new();
    // Waves holding a row that only its owner's mark puts there, and
    // waves holding the last row.
    let (mut owner_only, mut last_row) = (0, 0);
    for case in 0..60 {
        let width = 2 + rng.usize_below(12);
        let density = if case % 2 == 0 { 0.15 } else { 0.9 };
        let (pool, v) = vars(width);
        let mut simplex = Simplex::new(pool.len());
        for _ in 0..1 + rng.usize_below(16) {
            let mut terms = Vec::new();
            for &x in &v {
                if rng.next_f64() < density {
                    terms.push((x, rng.range(-2.0, 2.0)));
                }
            }
            if terms.len() < 2 {
                let first = rng.usize_below(width);
                terms = vec![(v[first], 1.0), (v[(first + 1) % width], -0.5)];
            }
            simplex.define(&LinExpr::from_terms(terms, 0.0));
        }
        for pivots in [0, 1 + rng.usize_below(4)] {
            for _ in 0..pivots {
                let row = Row::new(rng.usize_below(simplex.row_owner.len()));
                let coeffs = simplex.tableau.row(row);
                let slots: Vec<usize> = (0..width).filter(|&s| coeffs[s] != 0.0).collect();
                let entering = simplex.slot_var[Slot::new(slots[rng.usize_below(slots.len())])];
                let basic = simplex.row_owner[row];
                simplex.pivot_and_update(basic, entering, Delta::real(0.0));
            }
            for _ in 0..20 {
                let mut frontier = Vec::new();
                for _ in 0..1 + rng.usize_below(5) {
                    let var = Var::new(rng.usize_below(simplex.assignment.len()));
                    frontier.push(var);
                    if rng.usize_below(4) == 0 {
                        frontier.push(var);
                    }
                }
                let expected = column_scan(&simplex, &frontier);
                let last = Row::new(simplex.row_owner.len() - 1);
                last_row += usize::from(expected.last() == Some(&last));
                let nonbasic: Vec<Var> = frontier
                    .iter()
                    .copied()
                    .filter(|&var| simplex.basic_row[var].is_none())
                    .collect();
                owner_only += usize::from(expected.len() > column_scan(&simplex, &nonbasic).len());
                simplex.dirty.clone_from(&frontier);
                simplex.wave_rows(&mut rows);
                assert_eq!(rows, expected, "case {case}, frontier {frontier:?}");
                assert!(simplex.dirty.is_empty(), "the worklist is consumed");
                assert!(simplex.row_marks.iter().all(|&m| !m), "marks are cleared");
            }
        }
    }
    assert!(owner_only > 0 && last_row > 0, "{owner_only} {last_row}");
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
    simplex.assert_all(&tagged(&constraints)).unwrap();
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
    let (x0, x1, x2) = (Var::from(v[0]), Var::from(v[1]), Var::from(v[2]));
    let mut simplex = Simplex::new(pool.len());
    let (s_a, _) = simplex.define(&(LinExpr::var(v[0]) + LinExpr::var(v[1])));
    let (s_b, _) = simplex.define(&(LinExpr::var(v[0]) + LinExpr::term(v[1], 1.0 + 5e-12)));
    let (s_c, _) = simplex.define(&(LinExpr::term(v[0], residue) + LinExpr::var(v[2])));
    simplex.pivot_and_update(s_a, x0, Delta::real(0.0));
    let entries = |basic: Var| -> Vec<(Var, f64)> {
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
            .coeffs
            .iter()
            .all(|c| !(*c == 0.0 && c.is_sign_negative())),
        "no coefficient may be −0.0"
    );
}

#[test]
fn substitution_instances_match_the_scalar_rule_bit_for_bit() {
    // Each compiled instance of the substitution kernel against the
    // rule written out per entry, on widths that are not all multiples
    // of the vector width. The inline instance is called directly; the
    // dispatch runs the AVX2 instance on a host that has it (all these
    // widths pass the column gate).
    let mut rng = cps_linalg::SplitMix64::new(0x5AB5);
    let sign = |rng: &mut cps_linalg::SplitMix64| if rng.bool() { 1.0 } else { -1.0 };
    // Outcomes the rule distinguishes: a near-cancellation dropped, one
    // kept just above DROP_EPS, an exact cancellation, a sub-DROP_EPS
    // coefficient kept beside a zero pivot entry, and tiny fill-in kept.
    let mut seen = [0usize; 5];
    let rows = 12;
    for width in [16, 17, 19, 28, 100] {
        for _ in 0..20 {
            let row = rng.usize_below(rows);
            let slot = rng.usize_below(width);
            let coeff = sign(&mut rng) * rng.range(0.5, 2.0);
            let mut tableau = vec![0.0; rows * width];
            for entry in &mut tableau[row * width..(row + 1) * width] {
                *entry = match rng.usize_below(4) {
                    0 => 0.0,
                    1 => rng.range(-1e-12, 1e-12),
                    _ => rng.range(-2.0, 2.0),
                };
            }
            tableau[row * width + slot] = coeff;
            let pivot: Vec<f64> = (0..width)
                .map(|j| {
                    if j == slot {
                        1.0 / coeff
                    } else {
                        -tableau[row * width + j] / coeff + 0.0
                    }
                })
                .collect();
            let mut col = Vec::new();
            for r in (0..rows).filter(|&r| r != row) {
                let factor = match rng.usize_below(4) {
                    0 => 0.0,
                    _ => rng.range(-2.0, 2.0),
                };
                for j in 0..width {
                    let cancel = -(factor * pivot[j]);
                    tableau[r * width + j] = match rng.usize_below(6) {
                        0 => 0.0,
                        1 => 5.5e-12,
                        2 => cancel + 0.0,
                        3 => cancel + sign(&mut rng) * DROP_EPS * rng.range(0.99, 1.01),
                        _ => rng.range(-2.0, 2.0),
                    };
                }
                tableau[r * width + slot] = factor;
                if factor != 0.0 {
                    col.push((Row::new(r), factor));
                }
            }

            let mut expected = tableau.clone();
            expected[row * width..(row + 1) * width].copy_from_slice(&pivot);
            for &(r, factor) in &col {
                for (j, &p) in pivot.iter().enumerate() {
                    let at = r.index() * width + j;
                    let old = if j == slot { 0.0 } else { tableau[at] };
                    let merged = old + factor * p;
                    let residue = old != 0.0 && p != 0.0 && merged.abs() <= DROP_EPS;
                    expected[at] = if residue { 0.0 } else { merged };
                    let tiny = merged != 0.0 && merged.abs() <= DROP_EPS;
                    seen[0] += usize::from(residue && merged != 0.0);
                    seen[1] += usize::from(
                        old != 0.0
                            && p != 0.0
                            && merged.abs() > DROP_EPS
                            && merged.abs() < 2.0 * DROP_EPS,
                    );
                    seen[2] += usize::from(old != 0.0 && merged == 0.0);
                    seen[3] += usize::from(old != 0.0 && p == 0.0 && tiny);
                    seen[4] += usize::from(old == 0.0 && tiny);
                }
            }

            let check = |instance: &str, result: &[f64], copied: &[f64]| {
                let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(copied),
                    bits(&pivot),
                    "{instance}, width {width}: pivot copy"
                );
                if let Some(at) =
                    (0..expected.len()).find(|&at| result[at].to_bits() != expected[at].to_bits())
                {
                    panic!(
                        "{instance}, width {width}: row {} column {} stored {:e}, the rule gives {:e}",
                        at / width,
                        at % width,
                        result[at],
                        expected[at]
                    );
                }
                assert!(
                    result.iter().all(|c| c.to_bits() != (-0.0f64).to_bits()),
                    "{instance}, width {width}: stored −0.0"
                );
            };
            let (row, slot) = (Row::new(row), Slot::new(slot));
            let mut copied = Vec::new();
            let mut inline = Tableau {
                width,
                coeffs: tableau.clone(),
            };
            substitute_pivot_kernel(&mut inline, row, slot, coeff, &col, &mut copied);
            check("inline instance", &inline.coeffs, &copied);
            let mut dispatched = Tableau {
                width,
                coeffs: tableau.clone(),
            };
            substitute_pivot(&mut dispatched, row, slot, coeff, &col, &mut copied);
            check("dispatched instance", &dispatched.coeffs, &copied);
        }
    }
    assert!(
        seen.iter().all(|&n| n > 0),
        "every outcome of the rule is exercised: {seen:?}"
    );
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[test]
fn avx2_substitution_needs_the_cpu_feature_and_16_columns() {
    assert!(!substitutes_at_avx2(10), "10-column tableaux stay inline");
    assert!(!substitutes_at_avx2(AVX2_MIN_COLUMNS - 1));
    let avx2 = is_x86_feature_detected!("avx2");
    for width in [AVX2_MIN_COLUMNS, 28, 100] {
        assert_eq!(substitutes_at_avx2(width), avx2, "{width} columns");
    }
}

#[test]
fn define_after_pivoting_substitutes_basic_variables() {
    let (pool, v) = vars(2);
    let mut simplex = Simplex::new(pool.len());
    let sum = LinExpr::var(v[0]) + LinExpr::var(v[1]);
    simplex
        .assert_all(&tagged(&[
            (sum.ge(3.0), 0),
            (LinExpr::var(v[0]).le(1.0), 1),
        ]))
        .unwrap();
    assert!(simplex.solve().is_ok());
    // A new expression mentioning a (possibly now-basic) variable must
    // still evaluate consistently.
    let diff = LinExpr::var(v[0]) - LinExpr::var(v[1]);
    simplex.assert_all(&tagged(&[(diff.le(-1.0), 2)])).unwrap();
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
    let constraints = vec![(expr.clone().ge(1.0), 0)];
    match check(pool.len(), &constraints) {
        SimplexResult::Feasible(model) => {
            assert!(1e-8 * (model[0] + model[1]) >= 1.0 - 1e-6);
        }
        other => panic!("feasible system declared {other:?}"),
    }
    // The mode, not the pivot budget, decides: refusing tiny pivots
    // reports divergence under any budget, and the last resort decides
    // under any budget of one or more (its one pivot, then the scan that
    // finds the tableau feasible).
    for budget in [1, 2, 1000, u64::MAX - 1, u64::MAX] {
        for (tiny, verdict) in [
            (TinyPivots::Diverge, None),
            (TinyPivots::Take, Some(Ok(()))),
        ] {
            let mut simplex = Simplex::new(pool.len());
            let (slack, scale) = simplex.define(&expr);
            simplex
                .assert_bound(slack, scale, RelOp::Ge, 1.0, Tag::new(0))
                .expect("no upper bound in the way");
            assert_eq!(
                simplex.solve_bounded(budget, tiny, None),
                verdict,
                "{tiny:?} with a budget of {budget} pivots"
            );
        }
    }
    // The genuinely blocked variant still explains correctly.
    let expr = LinExpr::term(v[0], 1e-8);
    let blocked = vec![(expr.ge(1.0), 0), (LinExpr::var(v[0]).le(0.0), 1)];
    match check(pool.len(), &blocked) {
        SimplexResult::Infeasible(mut tags) => {
            tags.sort_unstable();
            assert_eq!(tags, self::tags(&[0, 1]));
        }
        other => panic!("blocked system declared {other:?}"),
    }
}

#[test]
fn constant_expression_constraints_are_decided() {
    // `0 <= -1` (after constant folding) is infeasible on its own.
    let (pool, _) = vars(1);
    let infeasible = vec![(LinExpr::constant(3.0).le(1.0), 5)];
    match check(pool.len(), &infeasible) {
        SimplexResult::Infeasible(found) => assert_eq!(found, tags(&[5])),
        other => panic!("expected infeasible, got {other:?}"),
    }
    let feasible = vec![(LinExpr::constant(1.0).le(3.0), 0)];
    assert!(check(pool.len(), &feasible).is_feasible());
}
