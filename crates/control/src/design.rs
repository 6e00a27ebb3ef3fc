use cps_linalg::{solve_dare, Matrix};

use crate::{ControlError, StateSpace};

/// Designs the infinite-horizon discrete LQR gain `K` for the plant, i.e. the
/// gain minimising `Σ xᵀQx + uᵀRu` under `u_k = −K·x_k`.
///
/// # Errors
///
/// Returns [`ControlError::DimensionMismatch`] for non-conformable weights and
/// propagates Riccati-solver failures (e.g. unstabilisable plants) as
/// [`ControlError::Numerical`].
///
/// # Example
///
/// ```
/// use cps_control::{lqr_gain, StateSpace};
/// use cps_linalg::Matrix;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let plant = StateSpace::new(
///     Matrix::from_diag(&[1.1]),
///     Matrix::from_diag(&[1.0]),
///     Matrix::from_diag(&[1.0]),
///     Matrix::zeros(1, 1),
/// )?;
/// let k = lqr_gain(&plant, &Matrix::identity(1), &Matrix::identity(1))?;
/// // The closed loop A − B·K must be stable even though A is not.
/// assert!((plant.a()[(0, 0)] - k[(0, 0)]).abs() < 1.0);
/// # Ok(())
/// # }
/// ```
pub fn lqr_gain(plant: &StateSpace, q: &Matrix, r: &Matrix) -> Result<Matrix, ControlError> {
    let n = plant.num_states();
    let m = plant.num_inputs();
    if q.shape() != (n, n) {
        return Err(ControlError::DimensionMismatch(format!(
            "state cost Q must be {n}x{n}, got {}x{}",
            q.rows(),
            q.cols()
        )));
    }
    if r.shape() != (m, m) {
        return Err(ControlError::DimensionMismatch(format!(
            "input cost R must be {m}x{m}, got {}x{}",
            r.rows(),
            r.cols()
        )));
    }
    let p = solve_dare(plant.a(), plant.b(), q, r)?;
    // K = (R + BᵀPB)⁻¹ BᵀPA
    let bt = plant.b().transpose();
    let btpb = bt.matmul(&p.matmul(plant.b())?)?;
    let btpa = bt.matmul(&p.matmul(plant.a())?)?;
    let gram = &btpb + r;
    Ok(gram.lu()?.solve_matrix(&btpa)?)
}

/// Designs the steady-state Kalman (predictor) gain `L` for the plant, where
/// `Q` is the process-noise covariance and `R` the measurement-noise
/// covariance. The estimator update is `x̂_{k+1} = A·x̂_k + B·u_k + L·z_k`.
///
/// # Errors
///
/// Returns [`ControlError::DimensionMismatch`] for non-conformable covariances
/// and propagates Riccati-solver failures as [`ControlError::Numerical`].
pub fn kalman_gain(plant: &StateSpace, q: &Matrix, r: &Matrix) -> Result<Matrix, ControlError> {
    let n = plant.num_states();
    let p_out = plant.num_outputs();
    if q.shape() != (n, n) {
        return Err(ControlError::DimensionMismatch(format!(
            "process noise covariance must be {n}x{n}, got {}x{}",
            q.rows(),
            q.cols()
        )));
    }
    if r.shape() != (p_out, p_out) {
        return Err(ControlError::DimensionMismatch(format!(
            "measurement noise covariance must be {p_out}x{p_out}, got {}x{}",
            r.rows(),
            r.cols()
        )));
    }
    // Duality: the estimation Riccati equation is the control DARE on (Aᵀ, Cᵀ).
    let p = solve_dare(&plant.a().transpose(), &plant.c().transpose(), q, r)?;
    // L = A·P·Cᵀ (C·P·Cᵀ + R)⁻¹
    let pct = p.matmul(&plant.c().transpose())?;
    let innovation = &plant.c().matmul(&pct)? + r;
    let apct = plant.a().matmul(&pct)?;
    // Solve (C P Cᵀ + R)ᵀ Xᵀ = (A P Cᵀ)ᵀ, i.e. X = A P Cᵀ (C P Cᵀ + R)⁻¹.
    let solved = innovation
        .transpose()
        .lu()?
        .solve_matrix(&apct.transpose())?;
    Ok(solved.transpose())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_linalg::Vector;

    fn double_integrator() -> StateSpace {
        StateSpace::new(
            Matrix::from_rows(&[&[1.0, 0.1], &[0.0, 1.0]]).unwrap(),
            Matrix::from_rows(&[&[0.005], &[0.1]]).unwrap(),
            Matrix::from_rows(&[&[1.0, 0.0]]).unwrap(),
            Matrix::zeros(1, 1),
        )
        .unwrap()
    }

    #[test]
    fn lqr_stabilizes_double_integrator() {
        let plant = double_integrator();
        let k = lqr_gain(&plant, &Matrix::identity(2), &Matrix::from_diag(&[1.0])).unwrap();
        assert_eq!(k.shape(), (1, 2));
        let closed = plant.a() - &plant.b().matmul(&k).unwrap();
        assert!(
            closed.spectral_radius_estimate(500).unwrap() < 1.0,
            "closed loop must be stable"
        );
    }

    #[test]
    fn lqr_rejects_bad_weight_shapes() {
        let plant = double_integrator();
        assert!(lqr_gain(&plant, &Matrix::identity(3), &Matrix::identity(1)).is_err());
        assert!(lqr_gain(&plant, &Matrix::identity(2), &Matrix::identity(2)).is_err());
    }

    #[test]
    fn kalman_gain_produces_stable_estimator() {
        let plant = double_integrator();
        let l = kalman_gain(
            &plant,
            &Matrix::identity(2).scale(1e-3),
            &Matrix::from_diag(&[1e-2]),
        )
        .unwrap();
        assert_eq!(l.shape(), (2, 1));
        // Estimator error dynamics A − L·C must be stable.
        let error_dyn = plant.a() - &l.matmul(plant.c()).unwrap();
        assert!(error_dyn.spectral_radius_estimate(500).unwrap() < 1.0);
    }

    #[test]
    fn kalman_rejects_bad_covariance_shapes() {
        let plant = double_integrator();
        assert!(kalman_gain(&plant, &Matrix::identity(1), &Matrix::identity(1)).is_err());
        assert!(kalman_gain(&plant, &Matrix::identity(2), &Matrix::identity(2)).is_err());
    }

    #[test]
    fn estimator_converges_to_true_state_without_noise() {
        let plant = double_integrator();
        let l = kalman_gain(
            &plant,
            &Matrix::identity(2).scale(1e-3),
            &Matrix::from_diag(&[1e-2]),
        )
        .unwrap();
        // Run plant and estimator side by side with zero input and no noise.
        let mut x = Vector::from_slice(&[1.0, -0.5]);
        let mut xhat = Vector::zeros(2);
        let u = Vector::zeros(1);
        for _ in 0..300 {
            let y = plant.output(&x, &u);
            let yhat = plant.output(&xhat, &u);
            let z = &y - &yhat;
            xhat = &plant.step(&xhat, &u) + &l.mul_vec(&z);
            x = plant.step(&x, &u);
        }
        let error = (&x - &xhat).norm_l2();
        assert!(error < 1e-3, "estimator error {error} too large");
    }
}
