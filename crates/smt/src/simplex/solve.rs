//! The repair loop: pivots the basic variables back within their bounds,
//! or finds a row that proves the bounds infeasible.

use super::bounds::Side;
use super::index::{Row, Tag, Var};
use super::Simplex;
use crate::budget::Governor;

/// Minimum magnitude of a pivot element. Pivoting on a smaller coefficient
/// multiplies the row by more than 1e7, amplifying accumulated float error
/// past the feasibility tolerances; such entries are treated as zero when
/// selecting an entering variable.
const PIVOT_EPS: f64 = 1e-7;

/// What a solve does when the only pivots that would make progress are below
/// `PIVOT_EPS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TinyPivots {
    /// Report divergence: on a long-lived tableau a tiny entry is almost
    /// always cancellation residue, and the caller rebuilds the tableau.
    Diverge,
    /// Pivot on the largest helpful one: the last resort, on a fresh
    /// tableau whose tiny entries are constraint data.
    Take,
}

/// Pivots between governor polls in [`Simplex::solve_bounded`]. One poll
/// reads the governor's latch and cancel flag (plus an `Instant::now()` when
/// a deadline is set); batching 64 pivots between polls keeps the measured
/// overhead on the pivot path well under 1% while still bounding the
/// cancellation latency to a few microseconds of pivot work.
const PIVOT_CHECK_BATCH: u64 = 64;

impl Simplex {
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
    pub fn solve(&mut self) -> Result<(), Vec<Tag>> {
        self.solve_bounded(u64::MAX, TinyPivots::Take, None)
            .expect("an unbounded solve without a governor always decides")
    }

    /// [`Simplex::solve`] with a pivot budget, a rule for tiny pivots and
    /// the check's governor: returns `None` when the budget is exhausted —
    /// or, under [`TinyPivots::Diverge`], when the only pivots that could
    /// make progress are numerically degenerate (below `PIVOT_EPS`) —
    /// before feasibility is decided, or when `governor` trips (deadline,
    /// cancellation or pivot cap; polled every [`PIVOT_CHECK_BATCH`]
    /// pivots). The engine remains usable after an interruption: a later
    /// solve scans the basic variables again and resumes the repair.
    ///
    /// A warm re-solve after an incremental bound change normally takes a
    /// handful of pivots; a budget blow-up or a degenerate-pivot dead end
    /// signals numerical degradation of the long-lived tableau (float error
    /// accumulates through pivot arithmetic and there is no
    /// refactorisation), and the caller should rebuild from the original
    /// constraints instead of grinding on. Under [`TinyPivots::Take`] a
    /// solve never reports divergence: it pivots through degenerate entries
    /// as a last resort, which is the correct behaviour on a freshly built
    /// tableau whose tiny coefficients are genuine constraint data. The
    /// unbounded [`Simplex::solve`] is that last resort.
    pub(crate) fn solve_bounded(
        &mut self,
        max_pivots: u64,
        tiny: TinyPivots,
        governor: Option<&Governor>,
    ) -> Option<Result<(), Vec<Tag>>> {
        let bland_switch = 50 * (self.assignment.len() as u64 + 1);
        self.solve_loop(max_pivots, bland_switch, tiny, governor)
    }

    /// The loop of [`Simplex::solve_bounded`]: takes the largest violation
    /// for the first `bland_switch` pivots, then picks rows by Bland's rule
    /// until the solve returns.
    pub(super) fn solve_loop(
        &mut self,
        max_pivots: u64,
        bland_switch: u64,
        tiny: TinyPivots,
        governor: Option<&Governor>,
    ) -> Option<Result<(), Vec<Tag>>> {
        let mut local_pivots = 0u64;
        loop {
            let exhausted = local_pivots >= max_pivots;
            // Amortised governor poll: report the completed batch and check
            // deadline/cancellation/pivot-cap once per PIVOT_CHECK_BATCH
            // pivots. Returning here is safe: the engine keeps no selection
            // state, so a resume scans the basic variables afresh.
            if !exhausted && local_pivots % PIVOT_CHECK_BATCH == 0 {
                if let Some(governor) = governor {
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
            let Some((row, violated)) = self.select_leaving(use_bland) else {
                return Some(Ok(()));
            };
            // The budget is tested after the scan, so a budget of n pivots
            // decides a solve that needs exactly n.
            if exhausted {
                return None;
            }
            local_pivots += 1;
            let basic = self.row_owner[row];
            // `violation_of` compares against an installed bound. On the
            // pivot path a broken invariant is reported as divergence — the
            // caller rebuilds from the original constraints — rather than a
            // panic inside the solve loop.
            let Some(target) = self.bounds[basic][violated] else {
                debug_assert!(false, "violated bound is not installed");
                return None;
            };

            // Find a nonbasic variable that can absorb the change (Bland's
            // rule: row entries are read in variable order): the basic
            // variable moves back toward its violated bound when a term
            // `coeff·var` moves away from that side, so `var` must have room
            // toward the side of its bounds that bounds the term on the other
            // side. Numerically tiny coefficients are avoided — dividing by
            // them blows the row up past the feasibility tolerances — but a
            // helpful tiny coefficient must not yield an infeasibility
            // certificate either (concluding UNSAT while an unblocked
            // direction exists would be unsound). Resolution: under
            // `TinyPivots::Diverge` the solve reports divergence so the
            // caller rebuilds the tableau — on a long-lived tableau a tiny
            // entry is almost always cancellation residue that survived
            // `DROP_EPS`, and pivoting on it fabricates garbage rows (and,
            // worse, garbage conflict explanations). Under `TinyPivots::Take`
            // the solve is the last resort on a fresh tableau, where tiny
            // entries are genuine constraint data (e.g. geometrically decayed
            // dynamics); there we pivot on the largest-magnitude helpful one.
            let allow_tiny = tiny == TinyPivots::Take;
            let mut pivot: Option<Var> = None;
            let mut tiny_pivot: Option<(Var, f64)> = None;
            let mut degraded = false;
            for (var, coeff) in self.row_entries(row) {
                if !self.has_room(var, (!violated).of_term(coeff)) {
                    continue;
                }
                if use_bland {
                    // Bland's termination theorem requires the *smallest-index*
                    // helpful variable, tiny or not: on the last resort take
                    // it (termination beats conditioning there); otherwise a
                    // tiny first choice is reported as degradation instead.
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
                    let bound = self.bound(var, (!violated).of_term(coeff));
                    bound.map(|bound| bound.reason)
                });
                let explanation = graph.explain(std::iter::once(target.reason).chain(blocking));
                self.graph = graph;
                return Some(Err(explanation));
            };
            self.pivot_and_update(basic, entering, target.value);
        }
    }

    /// The row whose basic variable leaves the basis next, and the side of
    /// the bound that variable violates: the largest current bound
    /// violation, ties going to the smaller variable index, or in Bland mode
    /// the smallest violating variable index. One scan of the basic
    /// variables; `None` when all of them are within their bounds.
    ///
    /// Repairing the largest violation first is the numerically gentlest
    /// order; the smallest index is Bland's anti-cycling rule.
    pub(super) fn select_leaving(&mut self, bland: bool) -> Option<(Row, Side)> {
        self.queue_pops += 1;
        let mut best: Option<(usize, Var, Side, f64)> = None;
        for (row, &var) in self.row_owner.iter().enumerate() {
            let Some((side, magnitude)) = self.violation_of(var) else {
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
                best = Some((row, var, side, magnitude));
            }
        }
        best.map(|(row, _, side, _)| (Row::new(row), side))
    }

    /// The bound `var` violates under the current assignment, if any, and
    /// by how much.
    pub(super) fn violation_of(&self, var: Var) -> Option<(Side, f64)> {
        let value = self.assignment[var];
        let violation = |side: Side| {
            let bound = self.bound(var, side)?;
            let magnitude = || (side, value.sub(bound.value).real.abs());
            side.beyond(&value, &bound.value).then(magnitude)
        };
        violation(Side::Lower).or_else(|| violation(Side::Upper))
    }

    /// Whether `var` can move toward `side` without leaving its bounds.
    fn has_room(&self, var: Var, side: Side) -> bool {
        self.bound(var, side).map_or(true, |bound| {
            (!side).beyond(&self.assignment[var], &bound.value)
        })
    }
}
