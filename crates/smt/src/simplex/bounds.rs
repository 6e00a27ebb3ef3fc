//! Variable bounds and the trail that retracts them.
//!
//! Each variable has a lower and an upper bound, and every operation on
//! bounds is written once, over a [`Side`]: installing a bound, testing
//! whether a value lies beyond or inside one, and picking the bound of a
//! term. The repair loop and propagation build on these.

use std::cmp::Ordering;
use std::ops::Not;

use super::index::{Node, Tag, Var};
use super::{Delta, Simplex};
use crate::RelOp;

/// Which of a variable's two bounds: the lower or the upper one. A pair
/// `[lower, upper]` is indexed by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The lower bound.
    Lower,
    /// The upper bound.
    Upper,
}

impl Side {
    /// Whether `value` lies beyond `bound` on this side: below a lower
    /// bound, or above an upper one.
    #[inline]
    pub(crate) fn beyond(self, value: &Delta, bound: &Delta) -> bool {
        let outside = match self {
            Side::Lower => Ordering::Less,
            Side::Upper => Ordering::Greater,
        };
        value.cmp_delta(bound) == outside
    }

    /// The side of `var`'s bounds that bounds `coeff · var` on this side:
    /// the same side for a positive coefficient, the other one otherwise.
    #[inline]
    pub(crate) fn of_term(self, coeff: f64) -> Side {
        if coeff > 0.0 {
            self
        } else {
            !self
        }
    }

    /// `f(self)`, compiled once per side: each arm calls `f` with a constant
    /// side, so that code `f` inlines branches on no run-time side. Pass 2
    /// of `propagate_row` tests every candidate bound this way; with the side
    /// a run-time value it ran ~12 % slower on the VSC.
    #[inline(always)]
    pub(crate) fn specialize<T>(self, f: impl FnOnce(Side) -> T) -> T {
        match self {
            Side::Lower => f(Side::Lower),
            Side::Upper => f(Side::Upper),
        }
    }

    /// Whether `value` lies inside `bound` by more than `margin`: below an
    /// upper bound, or above a lower one.
    #[inline]
    pub(crate) fn inside_by(self, value: f64, bound: f64, margin: f64) -> bool {
        match self {
            Side::Lower => value > bound + margin,
            Side::Upper => value < bound - margin,
        }
    }
}

impl Not for Side {
    type Output = Side;
    #[inline]
    fn not(self) -> Side {
        match self {
            Side::Lower => Side::Upper,
            Side::Upper => Side::Lower,
        }
    }
}

/// The bound `scale · var ⋈ bound` puts on `var`, as its side and value;
/// `None` for an equality, which puts `bound / scale` on both sides.
/// Dividing by a negative scale flips the comparison.
pub(crate) fn relation_bound(op: RelOp, scale: f64, bound: f64) -> Option<(Side, Delta)> {
    let (side, delta) = match (op, scale < 0.0) {
        (RelOp::Le, false) | (RelOp::Ge, true) => (Side::Upper, 0.0),
        (RelOp::Lt, false) | (RelOp::Gt, true) => (Side::Upper, -1.0),
        (RelOp::Ge, false) | (RelOp::Le, true) => (Side::Lower, 0.0),
        (RelOp::Gt, false) | (RelOp::Lt, true) => (Side::Lower, 1.0),
        (RelOp::Eq, _) => return None,
    };
    Some((side, Delta::with_delta(bound / scale, delta)))
}

/// Why a bound is installed, in one word: asserted by the caller with an
/// explanation tag, or derived by theory propagation, as its node in the
/// implication graph.
#[derive(Debug, Clone, Copy)]
pub(super) enum Reason {
    /// Installed by [`Simplex::assert_bound`] with this explanation tag.
    Asserted(Tag),
    /// Derived by [`Simplex::propagate_bounds`].
    Derived(Node),
}

#[derive(Debug, Clone, Copy)]
pub(super) struct Bound {
    pub(super) value: Delta,
    /// Provenance of this bound (see [`Reason`]).
    pub(super) reason: Reason,
}

/// One retractable bound update; popping restores the previous bound.
#[derive(Debug, Clone, Copy)]
pub(super) struct TrailEntry {
    var: Var,
    side: Side,
    previous: Option<Bound>,
}

impl Simplex {
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
    pub fn assert_bound(
        &mut self,
        var: Var,
        scale: f64,
        op: RelOp,
        bound: f64,
        tag: Tag,
    ) -> Result<(), Vec<Tag>> {
        let reason = Reason::Asserted(tag);
        let installed = match relation_bound(op, scale, bound) {
            Some((side, value)) => self.set_bound(var, side, value, reason),
            None => {
                let value = Delta::real(bound / scale);
                self.set_bound(var, Side::Upper, value, reason)?;
                self.set_bound(var, Side::Lower, value, reason)
            }
        };
        installed.map(drop)
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
            self.bounds[entry.var][entry.side] = entry.previous;
        }
        self.graph.truncate(mark);
    }

    /// The installed bound of `var` on `side`.
    #[inline]
    pub(super) fn bound(&self, var: Var, side: Side) -> Option<&Bound> {
        self.bounds[var][side].as_ref()
    }

    /// Installs a bound with an explicit provenance, and puts `var` on the
    /// propagation worklist. Returns whether the bound was tighter than the
    /// installed one, and therefore installed.
    ///
    /// # Errors
    ///
    /// Returns the asserted tags of the conflicting bound pair when the new
    /// bound lies beyond the installed bound of the other side.
    pub(super) fn set_bound(
        &mut self,
        var: Var,
        side: Side,
        value: Delta,
        reason: Reason,
    ) -> Result<bool, Vec<Tag>> {
        if let Some(opposite) = self.bounds[var][!side] {
            if (!side).beyond(&value, &opposite.value) {
                return Err(self.graph.explain([reason, opposite.reason]));
            }
        }
        let tighter = self
            .bound(var, side)
            .map_or(true, |existing| (!side).beyond(&value, &existing.value));
        if tighter {
            let previous = self.bounds[var][side].replace(Bound { value, reason });
            self.trail.push(TrailEntry {
                var,
                side,
                previous,
            });
            self.dirty.push(var);
            if self.basic_row[var].is_none() && side.beyond(&self.assignment[var], &value) {
                self.update_nonbasic(var, value);
            }
        }
        Ok(tighter)
    }

    /// Concretises the δ-assignment of the problem variables into plain `f64`
    /// values by substituting a positive ε small enough to preserve every
    /// strict bound.
    pub fn concrete_assignment(&self) -> Vec<f64> {
        let mut epsilon: f64 = 1e-6;
        for (value, bounds) in self.assignment.iter().zip(self.bounds.iter()) {
            for side in [Side::Lower, Side::Upper] {
                if let Some(bound) = &bounds[side] {
                    // `value` is within `bound` in δ-arithmetic; find ε
                    // keeping it within in ℝ, where `below` ≤ `above`.
                    let (below, above) = match side {
                        Side::Lower => (&bound.value, value),
                        Side::Upper => (value, &bound.value),
                    };
                    let dr = above.real - below.real;
                    let dd = below.delta - above.delta;
                    if dd > 0.0 && dr > 0.0 {
                        epsilon = epsilon.min(dr / dd);
                    }
                }
            }
        }
        let problem_vars = self.assignment.iter().take(self.tableau.width);
        problem_vars
            .map(|value| value.concretize(epsilon))
            .collect()
    }
}
