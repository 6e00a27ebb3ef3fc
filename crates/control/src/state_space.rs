use cps_linalg::{expm, Matrix, Vector};

use crate::ControlError;

/// A discrete-time linear time-invariant plant
/// `x_{k+1} = A·x_k + B·u_k`, `y_k = C·x_k + D·u_k`.
///
/// # Example
///
/// ```
/// use cps_control::StateSpace;
/// use cps_linalg::{Matrix, Vector};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sys = StateSpace::new(
///     Matrix::from_diag(&[0.9]),
///     Matrix::from_diag(&[1.0]),
///     Matrix::from_diag(&[1.0]),
///     Matrix::zeros(1, 1),
/// )?;
/// let next = sys.step(&Vector::from_slice(&[2.0]), &Vector::from_slice(&[0.5]));
/// assert!((next[0] - 2.3).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StateSpace {
    a: Matrix,
    b: Matrix,
    c: Matrix,
    d: Matrix,
}

impl StateSpace {
    /// Creates a discrete-time plant from its four matrices.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::DimensionMismatch`] if the matrices are not
    /// conformable (`A` must be `n×n`, `B` `n×m`, `C` `p×n`, `D` `p×m`) and
    /// [`ControlError::NonFinite`] if any entry is NaN or infinite.
    pub fn new(a: Matrix, b: Matrix, c: Matrix, d: Matrix) -> Result<Self, ControlError> {
        for (name, m) in [("A", &a), ("B", &b), ("C", &c), ("D", &d)] {
            crate::require_finite(name, m)?;
        }
        if !a.is_square() {
            return Err(ControlError::DimensionMismatch(format!(
                "A must be square, got {}x{}",
                a.rows(),
                a.cols()
            )));
        }
        let n = a.rows();
        if b.rows() != n {
            return Err(ControlError::DimensionMismatch(format!(
                "B must have {n} rows, got {}",
                b.rows()
            )));
        }
        if c.cols() != n {
            return Err(ControlError::DimensionMismatch(format!(
                "C must have {n} columns, got {}",
                c.cols()
            )));
        }
        if d.rows() != c.rows() || d.cols() != b.cols() {
            return Err(ControlError::DimensionMismatch(format!(
                "D must be {}x{}, got {}x{}",
                c.rows(),
                b.cols(),
                d.rows(),
                d.cols()
            )));
        }
        Ok(Self { a, b, c, d })
    }

    /// Number of state variables.
    pub fn num_states(&self) -> usize {
        self.a.rows()
    }

    /// Number of control inputs.
    pub fn num_inputs(&self) -> usize {
        self.b.cols()
    }

    /// Number of measured outputs.
    pub fn num_outputs(&self) -> usize {
        self.c.rows()
    }

    /// State transition matrix `A`.
    pub fn a(&self) -> &Matrix {
        &self.a
    }

    /// Input map `B`.
    pub fn b(&self) -> &Matrix {
        &self.b
    }

    /// Output map `C`.
    pub fn c(&self) -> &Matrix {
        &self.c
    }

    /// Feed-through matrix `D`.
    pub fn d(&self) -> &Matrix {
        &self.d
    }

    /// One noiseless state update `A·x + B·u`.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `u` have the wrong length.
    pub fn step(&self, x: &Vector, u: &Vector) -> Vector {
        &self.a.mul_vec(x) + &self.b.mul_vec(u)
    }

    /// Noiseless output `C·x + D·u`.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `u` have the wrong length.
    pub fn output(&self, x: &Vector, u: &Vector) -> Vector {
        &self.c.mul_vec(x) + &self.d.mul_vec(u)
    }

    /// Estimated spectral radius of `A` (power iteration); values below one
    /// indicate an open-loop stable plant.
    pub fn spectral_radius(&self) -> f64 {
        self.a
            .spectral_radius_estimate(200)
            .expect("A is square by construction")
    }
}

/// A continuous-time LTI plant `ẋ = A·x + B·u`, `y = C·x + D·u`, convertible
/// to a discrete [`StateSpace`] by zero-order-hold sampling.
#[derive(Debug, Clone, PartialEq)]
pub struct ContinuousStateSpace {
    a: Matrix,
    b: Matrix,
    c: Matrix,
    d: Matrix,
}

impl ContinuousStateSpace {
    /// Creates a continuous-time plant (same dimension rules as
    /// [`StateSpace::new`]).
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::DimensionMismatch`] for non-conformable inputs.
    pub fn new(a: Matrix, b: Matrix, c: Matrix, d: Matrix) -> Result<Self, ControlError> {
        // Reuse the discrete constructor's validation.
        let checked = StateSpace::new(a, b, c, d)?;
        Ok(Self {
            a: checked.a,
            b: checked.b,
            c: checked.c,
            d: checked.d,
        })
    }

    /// Continuous-time state matrix `A`.
    pub fn a(&self) -> &Matrix {
        &self.a
    }

    /// Continuous-time input map `B`.
    pub fn b(&self) -> &Matrix {
        &self.b
    }

    /// Output map `C` (unchanged by discretisation).
    pub fn c(&self) -> &Matrix {
        &self.c
    }

    /// Feed-through matrix `D` (unchanged by discretisation).
    pub fn d(&self) -> &Matrix {
        &self.d
    }

    /// Discretises the plant with a zero-order hold at sampling period `ts`
    /// seconds using the standard augmented-matrix exponential
    /// `exp([[A, B], [0, 0]]·ts) = [[A_d, B_d], [0, I]]`.
    ///
    /// # Errors
    ///
    /// Propagates numerical failures from the matrix exponential.
    pub fn discretize(&self, ts: f64) -> Result<StateSpace, ControlError> {
        let n = self.a.rows();
        let m = self.b.cols();
        let top = self.a.hstack(&self.b)?;
        let bottom = Matrix::zeros(m, n + m);
        let augmented = top.vstack(&bottom)?.scale(ts);
        let phi = expm(&augmented)?;
        let mut a_d = Matrix::zeros(n, n);
        let mut b_d = Matrix::zeros(n, m);
        for i in 0..n {
            for j in 0..n {
                a_d[(i, j)] = phi[(i, j)];
            }
            for j in 0..m {
                b_d[(i, j)] = phi[(i, n + j)];
            }
        }
        Ok(StateSpace {
            a: a_d,
            b: b_d,
            c: self.c.clone(),
            d: self.d.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_linalg::approx_eq;

    #[test]
    fn constructor_validates_dimensions() {
        let a = Matrix::identity(2);
        let b = Matrix::zeros(2, 1);
        let c = Matrix::zeros(1, 2);
        let d = Matrix::zeros(1, 1);
        assert!(StateSpace::new(a.clone(), b.clone(), c.clone(), d.clone()).is_ok());
        assert!(StateSpace::new(Matrix::zeros(2, 3), b.clone(), c.clone(), d.clone()).is_err());
        assert!(StateSpace::new(a.clone(), Matrix::zeros(3, 1), c.clone(), d.clone()).is_err());
        assert!(StateSpace::new(a.clone(), b.clone(), Matrix::zeros(1, 3), d.clone()).is_err());
        assert!(StateSpace::new(a, b, c, Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn constructor_rejects_non_finite_entries() {
        let b = Matrix::zeros(2, 1);
        let c = Matrix::zeros(1, 2);
        let d = Matrix::zeros(1, 1);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let a = Matrix::from_diag(&[1.0, bad]);
            assert!(matches!(
                StateSpace::new(a, b.clone(), c.clone(), d.clone()),
                Err(ControlError::NonFinite(_))
            ));
        }
    }

    #[test]
    fn dimensions_are_reported() {
        let sys = StateSpace::new(
            Matrix::identity(3),
            Matrix::zeros(3, 2),
            Matrix::zeros(4, 3),
            Matrix::zeros(4, 2),
        )
        .unwrap();
        assert_eq!(sys.num_states(), 3);
        assert_eq!(sys.num_inputs(), 2);
        assert_eq!(sys.num_outputs(), 4);
    }

    #[test]
    fn step_and_output_match_hand_computation() {
        let sys = StateSpace::new(
            Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]).unwrap(),
            Matrix::from_rows(&[&[0.5], &[1.0]]).unwrap(),
            Matrix::from_rows(&[&[1.0, 0.0]]).unwrap(),
            Matrix::from_diag(&[0.1]),
        )
        .unwrap();
        let x = Vector::from_slice(&[1.0, 2.0]);
        let u = Vector::from_slice(&[2.0]);
        assert_eq!(sys.step(&x, &u).as_slice(), &[4.0, 4.0]);
        let y = sys.output(&x, &u);
        assert!(approx_eq(y[0], 1.2, 1e-12));
    }

    #[test]
    fn discretization_of_integrator_matches_analytic_form() {
        // Continuous double integrator: A = [[0,1],[0,0]], B = [[0],[1]].
        // ZOH with period T: A_d = [[1,T],[0,1]], B_d = [[T²/2],[T]].
        let cont = ContinuousStateSpace::new(
            Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]).unwrap(),
            Matrix::from_rows(&[&[0.0], &[1.0]]).unwrap(),
            Matrix::from_rows(&[&[1.0, 0.0]]).unwrap(),
            Matrix::zeros(1, 1),
        )
        .unwrap();
        let ts = 0.1;
        let disc = cont.discretize(ts).unwrap();
        assert!(approx_eq(disc.a()[(0, 1)], ts, 1e-9));
        assert!(approx_eq(disc.b()[(0, 0)], ts * ts / 2.0, 1e-9));
        assert!(approx_eq(disc.b()[(1, 0)], ts, 1e-9));
        assert_eq!(disc.c(), cont.c());
    }

    #[test]
    fn discretization_of_stable_scalar_plant() {
        // ẋ = -x + u sampled at T: A_d = e^{-T}, B_d = 1 - e^{-T}.
        let cont = ContinuousStateSpace::new(
            Matrix::from_diag(&[-1.0]),
            Matrix::from_diag(&[1.0]),
            Matrix::from_diag(&[1.0]),
            Matrix::zeros(1, 1),
        )
        .unwrap();
        let ts = 0.5;
        let disc = cont.discretize(ts).unwrap();
        assert!(approx_eq(disc.a()[(0, 0)], (-ts).exp(), 1e-9));
        assert!(approx_eq(disc.b()[(0, 0)], 1.0 - (-ts).exp(), 1e-9));
    }

    #[test]
    fn spectral_radius_reflects_stability() {
        let stable = StateSpace::new(
            Matrix::from_diag(&[0.5, 0.8]),
            Matrix::zeros(2, 1),
            Matrix::zeros(1, 2),
            Matrix::zeros(1, 1),
        )
        .unwrap();
        assert!(stable.spectral_radius() < 1.0);
        let unstable = StateSpace::new(
            Matrix::from_diag(&[1.2, 0.3]),
            Matrix::zeros(2, 1),
            Matrix::zeros(1, 2),
            Matrix::zeros(1, 1),
        )
        .unwrap();
        assert!(unstable.spectral_radius() > 1.0);
    }
}
