//! The dense tableau, the basis it encodes, and the pivot with its
//! substitution kernel.

use super::index::{Row, Slot, Var};
use super::{Delta, Simplex};
use crate::LinExpr;

/// Row entries with magnitude at or below this threshold are treated as the
/// cancellation residue of pivot arithmetic and dropped. Trade-off: sitting
/// 10× above [`LinExpr`]'s 1e-12 construction floor filters residue
/// reliably, but a *genuine* merged coefficient landing in (1e-12, 1e-11]
/// is dropped too, perturbing that row by up to ~1e-11·‖x‖ — inside the
/// solver's feasibility tolerances, and the DPLL(T) layer additionally
/// validates models and conflict explanations against the original
/// constraints.
pub(super) const DROP_EPS: f64 = 1e-11;

/// The tableau: one row per basic variable, `width` coefficients per row,
/// one per nonbasic slot, row-major in one flat vector. Row `r` expresses
/// the basic variable owning it as a linear combination of the nonbasic
/// variables. Zeros are `+0.0`.
#[derive(Debug, Default)]
pub(super) struct Tableau {
    /// The number of slots, which is the number of problem variables.
    pub(super) width: usize,
    pub(super) coeffs: Vec<f64>,
}

impl Tableau {
    /// The coefficients of `row`, one per slot.
    #[inline]
    pub(super) fn row(&self, row: Row) -> &[f64] {
        &self.coeffs[row.index() * self.width..][..self.width]
    }

    fn row_mut(&mut self, row: Row) -> &mut [f64] {
        &mut self.coeffs[row.index() * self.width..][..self.width]
    }
}

impl Simplex {
    /// Registers the left-hand side of a constraint and returns the tableau
    /// variable (and the scale to apply to bounds) representing it.
    ///
    /// Single-variable expressions `c·x` map directly to `(x, c)`; every
    /// other expression gets a new slack variable `s = expr` backed by a new
    /// tableau row, on every call. The engine keeps no expression index: a
    /// caller bounding one expression several times defines it once and
    /// passes the returned variable to [`Simplex::assert_bound`] each time.
    /// The [`SmtSolver`](crate::SmtSolver) and [`Simplex::check`] share rows
    /// between constraints over the same terms (bit-exact coefficients).
    pub fn define(&mut self, expr: &LinExpr) -> (Var, f64) {
        if expr.num_terms() == 1 {
            let (var, coeff) = expr.terms().next().expect("one term present");
            return (var.into(), coeff);
        }
        // Express the new row over *nonbasic* variables: substitute the
        // definition of any variable that has already become basic. Adding a
        // zero entry of a substituted row changes nothing, and `0.0 + c` is
        // `c`, so the row equals the sum over the expression's terms.
        let row = Row::new(self.row_owner.len());
        let width = self.tableau.width;
        let start = self.tableau.coeffs.len();
        self.tableau.coeffs.resize(start + width, 0.0);
        let (rows, new_row) = self.tableau.coeffs.split_at_mut(start);
        for (v, c) in expr.terms() {
            let v = Var::from(v);
            match self.basic_row[v] {
                None => {
                    let slot = self.slot_of[v].expect("a nonbasic variable has a slot");
                    new_row[slot.index()] += c;
                }
                Some(r) => {
                    let basic_row = &rows[r.index() * width..][..width];
                    for (sum, &rc) in new_row.iter_mut().zip(basic_row) {
                        *sum += c * rc;
                    }
                }
            }
        }
        let slack = Var::new(self.assignment.len());
        self.row_owner.push(slack);
        self.basic_row.push(Some(row));
        self.slot_of.push(None);
        self.bounds.push([None, None]);
        let value = self.row_value(row);
        self.assignment.push(value);
        (slack, 1.0)
    }

    /// The slot of the nonbasic variable `var`.
    pub(super) fn slot(&self, var: Var) -> Slot {
        self.slot_of[var].expect("a nonbasic variable has a slot")
    }

    /// The nonzero `(variable, coefficient)` entries of `row` in variable
    /// order.
    #[inline]
    pub(super) fn row_entries(&self, row: Row) -> impl Iterator<Item = (Var, f64)> + '_ {
        let coeffs = self.tableau.row(row);
        self.slot_order.iter().filter_map(move |&slot| {
            let coeff = coeffs[slot.index()];
            (coeff != 0.0).then(|| (self.slot_var[slot], coeff))
        })
    }

    /// The nonzero `(row, coefficient)` entries of the column of the
    /// nonbasic variable `var`, in ascending row order.
    pub(super) fn column(&self, var: Var) -> impl Iterator<Item = (Row, f64)> + '_ {
        // A nonbasic variable has a slot, so the tableau has a column.
        let slot = self.slot(var).index();
        let rows = self.tableau.coeffs.chunks_exact(self.tableau.width);
        rows.enumerate().filter_map(move |(row, coeffs)| {
            (coeffs[slot] != 0.0).then(|| (Row::new(row), coeffs[slot]))
        })
    }

    fn row_value(&self, row: Row) -> Delta {
        self.row_entries(row)
            .fold(Delta::real(0.0), |value, (v, coeff)| {
                value.add(self.assignment[v].scale(coeff))
            })
    }

    /// Sets a nonbasic variable to `value` and propagates the change to the
    /// basic variables (only rows with a nonzero `var` entry). Basic
    /// variables the move pushes outside their bounds are left for the next
    /// solve to repair.
    pub(super) fn update_nonbasic(&mut self, var: Var, value: Delta) {
        let diff = value.sub(self.assignment[var]);
        let col = self.take_column(var);
        for &(row, coeff) in &col {
            let owner = self.row_owner[row];
            self.assignment[owner] = self.assignment[owner].add(diff.scale(coeff));
        }
        self.col_buf = col;
        self.assignment[var] = value;
    }

    /// [`Simplex::column`] of `var` collected into the reused column
    /// buffer; hand the buffer back with `self.col_buf = col` when done.
    fn take_column(&mut self, var: Var) -> Vec<(Row, f64)> {
        let mut col = std::mem::take(&mut self.col_buf);
        col.clear();
        col.extend(self.column(var));
        col
    }

    /// Pivots `basic` (leaving) with `entering` (nonbasic) and sets the
    /// leaving variable's assignment to `target` (the bound it violated).
    pub(super) fn pivot_and_update(&mut self, basic: Var, entering: Var, target: Delta) {
        self.pivots += 1;
        // Invariant: the solve loop resolved `basic`'s row (with a defensive
        // divergence fallback) before selecting `entering` from it.
        let row = self.basic_row[basic].expect("leaving variable is basic");
        let slot = self.slot(entering);
        let coeff = self.tableau.row(row)[slot.index()];
        // Sub-PIVOT_EPS pivots are legal (the solve loop falls back to them
        // when nothing better can help) — only exact zero is a logic error.
        debug_assert!(coeff != 0.0, "pivot coefficient must be non-zero");

        // The entering variable's column outside the pivot row: exactly the
        // rows whose assignment and coefficients the pivot touches.
        let mut col = self.take_column(entering);
        col.retain(|&(r, _)| r != row);

        // Assignment update (using the *old* tableau rows): move the entering
        // variable by θ so that the leaving variable lands exactly on `target`,
        // and propagate the move to every other basic variable.
        let theta = target.sub(self.assignment[basic]).scale(1.0 / coeff);
        self.assignment[basic] = target;
        self.assignment[entering] = self.assignment[entering].add(theta);
        for &(r, c) in &col {
            let owner = self.row_owner[r];
            self.assignment[owner] = self.assignment[owner].add(theta.scale(c));
        }

        // Rewrite the pivot row and substitute it into the other rows of
        // `col`; the leaving variable takes over the entering variable's slot.
        let mut pivot = std::mem::take(&mut self.pivot_buf);
        substitute_pivot(&mut self.tableau, row, slot, coeff, &col, &mut pivot);
        self.row_owner[row] = entering;
        self.basic_row[entering] = Some(row);
        self.basic_row[basic] = None;
        self.move_slot(slot, entering, basic);
        self.pivot_buf = pivot;
        self.col_buf = col;
        #[cfg(debug_assertions)]
        self.audit("after pivot");
    }

    /// Hands `slot` from the variable `from` (entering the basis) to `to`
    /// (leaving it), keeping [`Simplex::slot_order`] sorted by variable.
    fn move_slot(&mut self, slot: Slot, from: Var, to: Var) {
        let slot_var = &mut self.slot_var;
        let at = self
            .slot_order
            .binary_search_by_key(&from, |&s| slot_var[s])
            .expect("the entering variable occupies a slot");
        self.slot_order.remove(at);
        slot_var[slot] = to;
        let at = self.slot_order.partition_point(|&s| slot_var[s] < to);
        self.slot_order.insert(at, slot);
        self.slot_of[from] = None;
        self.slot_of[to] = Some(slot);
    }

    /// Debug-build invariant audit: the slot maps agree and list every
    /// nonbasic variable once in variable order, no coefficient is −0.0,
    /// every basic variable's assignment equals its row value, and every
    /// nonbasic variable sits within its bounds.
    #[cfg(debug_assertions)]
    fn audit(&self, context: &str) {
        for (slot, &var) in self.slot_var.iter().enumerate() {
            assert!(
                self.basic_row[var].is_none(),
                "{context}: slot {slot} holds basic variable {var:?}"
            );
            assert_eq!(
                self.slot_of[var],
                Some(Slot::new(slot)),
                "{context}: slot maps disagree"
            );
        }
        assert!(
            self.slot_order
                .windows(2)
                .all(|w| self.slot_var[w[0]] < self.slot_var[w[1]]),
            "{context}: slot order is not sorted by variable"
        );
        assert!(
            self.tableau
                .coeffs
                .iter()
                .all(|c| c.to_bits() != (-0.0f64).to_bits()),
            "{context}: stored −0.0 coefficient"
        );
        for (row, &owner) in self.row_owner.iter().enumerate() {
            let row = Row::new(row);
            assert_eq!(
                self.basic_row[owner],
                Some(row),
                "{context}: owner not basic"
            );
            let value = self.row_value(row);
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
                .row_entries(row)
                .map(|(v, c)| {
                    c.abs() * (self.assignment[v].real.abs() + self.assignment[v].delta.abs())
                })
                .sum();
            assert!(
                drift <= 0.5 * (1.0 + magnitude),
                "{context}: basic {owner:?} drifted from its row by {drift} (magnitude {magnitude})"
            );
        }
        let nonbasic = self.assignment.iter().zip(self.bounds.iter());
        for (var, (value, bounds)) in nonbasic.enumerate() {
            for side in [super::Side::Lower, super::Side::Upper] {
                if let Some(bound) = &bounds[side] {
                    assert!(
                        self.basic_row[Var::new(var)].is_some()
                            || !side.beyond(value, &bound.value),
                        "{context}: nonbasic {var} beyond its {side:?} bound"
                    );
                }
            }
        }
    }
}

/// Narrowest tableau, in columns, whose pivots run [`substitute_pivot_avx2`].
/// On narrower rows the out-of-line call costs more than the wider lanes
/// save: ungated, the 10-column trajectory tableaux ran Algorithm 2 up to
/// 2 % slower.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
pub(super) const AVX2_MIN_COLUMNS: usize = 16;

/// Whether pivots on a tableau `width` columns wide run the AVX2 instance
/// of [`substitute_pivot_kernel`]: the tableau has at least
/// [`AVX2_MIN_COLUMNS`] columns and the CPU supports AVX2 (std caches the
/// detection after its first call).
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
pub(super) fn substitutes_at_avx2(width: usize) -> bool {
    width >= AVX2_MIN_COLUMNS && is_x86_feature_detected!("avx2")
}

/// The dense part of a pivot: [`substitute_pivot_kernel`] in the widest
/// instance the CPU and the tableau width allow. Both instances store the
/// same bits.
pub(super) fn substitute_pivot(
    tableau: &mut Tableau,
    row: Row,
    slot: Slot,
    coeff: f64,
    col: &[(Row, f64)],
    pivot: &mut Vec<f64>,
) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if substitutes_at_avx2(tableau.width) {
        // SAFETY: `substitutes_at_avx2` holds only where
        // `is_x86_feature_detected!("avx2")` reported AVX2 on this CPU,
        // which is all `substitute_pivot_avx2` requires.
        unsafe { substitute_pivot_avx2(tableau, row, slot, coeff, col, pivot) };
        return;
    }
    substitute_pivot_kernel(tableau, row, slot, coeff, col, pivot);
}

/// [`substitute_pivot_kernel`] compiled with AVX2, so that its loops run
/// four `f64` lanes wide instead of SSE2's two. FMA stays off: Rust never
/// contracts `a + b * c`, so it would buy nothing.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn substitute_pivot_avx2(
    tableau: &mut Tableau,
    row: Row,
    slot: Slot,
    coeff: f64,
    col: &[(Row, f64)],
    pivot: &mut Vec<f64>,
) {
    substitute_pivot_kernel(tableau, row, slot, coeff, col, pivot);
}

/// Rewrites `row` of `tableau` to define the entering variable, whose
/// `slot` holds the pivot element `coeff`, copies the rewritten row into
/// `pivot`, and substitutes it into every row `r` of the entering
/// variable's column `col` (its coefficient there is `factor`):
/// `row_r ← row_r − factor·e_slot + factor·pivot`.
///
/// Cancellation happens only where both the row and the pivot row had an
/// entry: a result at or below `DROP_EPS` there is residue, dropped
/// instead of stored as a tiny garbage coefficient a later pivot could
/// divide by. Fill-in (the row lacked the entry) is kept at any nonzero
/// magnitude. The multiply and the add round separately (no `mul_add`):
/// the pivot sequence pinned by `tests/end_to_end.rs` depends on that
/// rounding. Each stored value depends only on its own entry's operands,
/// through IEEE-754 operations that every vector width applies lane by
/// lane, so every compiled instance stores the same bits.
#[inline(always)]
pub(super) fn substitute_pivot_kernel(
    tableau: &mut Tableau,
    row: Row,
    slot: Slot,
    coeff: f64,
    col: &[(Row, f64)],
    pivot: &mut Vec<f64>,
) {
    // basic = Σ a_j x_j  ⇒  entering = (basic − Σ_{j≠entering} a_j x_j) / a_entering.
    // Adding +0.0 turns the −0.0 of a negated zero entry into +0.0 and
    // leaves every other value unchanged.
    let pivot_row = tableau.row_mut(row);
    for entry in pivot_row.iter_mut() {
        *entry = -*entry / coeff + 0.0;
    }
    pivot_row[slot.index()] = 1.0 / coeff;
    pivot.clear();
    pivot.extend_from_slice(pivot_row);
    for &(r, factor) in col {
        let coeffs = tableau.row_mut(r);
        coeffs[slot.index()] = 0.0;
        for (entry, &p) in coeffs.iter_mut().zip(pivot.iter()) {
            let old = *entry;
            let merged = old + factor * p;
            let residue = old != 0.0 && p != 0.0 && merged.abs() <= DROP_EPS;
            *entry = if residue { 0.0 } else { merged };
        }
    }
}
