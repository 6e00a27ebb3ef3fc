use crate::{LinalgError, Matrix};

/// Maximum number of fixed-point iterations of [`solve_dare`].
const MAX_ITERATIONS: usize = 10_000;

/// Convergence tolerance of [`solve_dare`] on the Frobenius norm of
/// successive iterates.
const TOLERANCE: f64 = 1e-12;

/// Solves the discrete algebraic Riccati equation (DARE)
///
/// ```text
/// P = Aᵀ P A − Aᵀ P B (R + Bᵀ P B)⁻¹ Bᵀ P A + Q
/// ```
///
/// by fixed-point iteration starting from `P = Q`. The solution is used both
/// for LQR gain design (with `A`, `B` the plant matrices) and for the
/// steady-state Kalman filter (with `Aᵀ`, `Cᵀ` in place of `A`, `B`).
///
/// # Errors
///
/// - [`LinalgError::NotSquare`] / [`LinalgError::ShapeMismatch`] when the
///   matrix dimensions are inconsistent,
/// - [`LinalgError::Singular`] when `R + Bᵀ P B` cannot be inverted,
/// - [`LinalgError::NoConvergence`] when the iteration budget is exhausted
///   (e.g. for an unstabilisable pair).
///
/// # Example
///
/// ```
/// use cps_linalg::{solve_dare, Matrix};
///
/// # fn main() -> Result<(), cps_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[1.0, 0.1], &[0.0, 1.0]])?;
/// let b = Matrix::from_rows(&[&[0.0], &[0.1]])?;
/// let q = Matrix::identity(2);
/// let r = Matrix::from_diag(&[1.0]);
/// let p = solve_dare(&a, &b, &q, &r)?;
/// assert!(p.is_finite());
/// # Ok(())
/// # }
/// ```
pub fn solve_dare(a: &Matrix, b: &Matrix, q: &Matrix, r: &Matrix) -> Result<Matrix, LinalgError> {
    let n = a.rows();
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    if b.rows() != n {
        return Err(LinalgError::ShapeMismatch {
            op: "DARE input map",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let m = b.cols();
    if q.shape() != (n, n) {
        return Err(LinalgError::ShapeMismatch {
            op: "DARE state cost",
            lhs: a.shape(),
            rhs: q.shape(),
        });
    }
    if r.shape() != (m, m) {
        return Err(LinalgError::ShapeMismatch {
            op: "DARE input cost",
            lhs: (m, m),
            rhs: r.shape(),
        });
    }

    let a_t = a.transpose();
    let b_t = b.transpose();
    let mut p = q.clone();
    for iteration in 0..MAX_ITERATIONS {
        // P_{k+1} = Aᵀ P A − Aᵀ P B (R + Bᵀ P B)⁻¹ Bᵀ P A + Q
        let pa = p.matmul(a)?;
        let pb = p.matmul(b)?;
        let atpa = a_t.matmul(&pa)?;
        let atpb = a_t.matmul(&pb)?;
        let btpb = b_t.matmul(&pb)?;
        let gram = &btpb + r;
        let btpa = b_t.matmul(&pa)?;
        let correction = atpb.matmul(&gram.lu()?.solve_matrix(&btpa)?)?;
        let next = &(&atpa - &correction) + q;
        let delta = (&next - &p).norm_fro();
        p = next;
        if !p.is_finite() {
            return Err(LinalgError::NoConvergence {
                iterations: iteration + 1,
                residual: f64::INFINITY,
            });
        }
        if delta <= TOLERANCE {
            return Ok(p);
        }
    }
    Err(LinalgError::NoConvergence {
        iterations: MAX_ITERATIONS,
        residual: f64::NAN,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn scalar_dare_matches_closed_form() {
        // Scalar case: a = 0.9, b = 1, q = 1, r = 1.
        // P = a²P − a²P²/(1+P) + q  has a positive root we can verify numerically.
        let a = Matrix::from_diag(&[0.9]);
        let b = Matrix::from_diag(&[1.0]);
        let q = Matrix::from_diag(&[1.0]);
        let r = Matrix::from_diag(&[1.0]);
        let p = solve_dare(&a, &b, &q, &r).unwrap();
        let p00 = p[(0, 0)];
        let rhs = 0.81 * p00 - 0.81 * p00 * p00 / (1.0 + p00) + 1.0;
        assert!(
            approx_eq(p00, rhs, 1e-8),
            "fixed point violated: {p00} vs {rhs}"
        );
        assert!(p00 > 0.0);
    }

    #[test]
    fn dare_solution_satisfies_equation_for_two_states() {
        let a = Matrix::from_rows(&[&[1.0, 0.1], &[0.0, 1.0]]).unwrap();
        let b = Matrix::from_rows(&[&[0.005], &[0.1]]).unwrap();
        let q = Matrix::identity(2);
        let r = Matrix::from_diag(&[0.5]);
        let p = solve_dare(&a, &b, &q, &r).unwrap();

        let a_t = a.transpose();
        let b_t = b.transpose();
        let pa = p.matmul(&a).unwrap();
        let pb = p.matmul(&b).unwrap();
        let gram = &b_t.matmul(&pb).unwrap() + &r;
        let correction = a_t
            .matmul(&pb)
            .unwrap()
            .matmul(
                &gram
                    .lu()
                    .unwrap()
                    .solve_matrix(&b_t.matmul(&pa).unwrap())
                    .unwrap(),
            )
            .unwrap();
        let rhs = &(&a_t.matmul(&pa).unwrap() - &correction) + &q;
        assert!((rhs - p).norm_fro() < 1e-6);
    }

    #[test]
    fn dare_rejects_shape_mismatches() {
        let a = Matrix::identity(2);
        let b = Matrix::zeros(3, 1);
        let q = Matrix::identity(2);
        let r = Matrix::identity(1);
        assert!(solve_dare(&a, &b, &q, &r).is_err());
        assert!(solve_dare(&Matrix::zeros(2, 3), &b, &q, &r).is_err());
    }
}
