//! Dense linear algebra substrate for the `secure-cps` workspace.
//!
//! The crate provides the small set of numerical building blocks needed by an
//! LTI control loop and its formal analysis:
//!
//! - [`Matrix`] and [`Vector`] — dense, row-major, `f64` containers with the
//!   usual arithmetic operators,
//! - [`LuDecomposition`] — LU factorisation with partial pivoting, used for
//!   linear solves, inversion and determinants,
//! - [`expm`] — matrix exponential (scaling-and-squaring with a Padé
//!   approximant), used for zero-order-hold discretisation,
//! - [`solve_dare`] — fixed-point solver for the discrete algebraic Riccati
//!   equation, used to design the steady-state Kalman filter and the LQR
//!   controller.
//!
//! Paper mapping: no section of *Koley et al. (DATE 2020)* is about linear
//! algebra itself, but everything in §II (plant, estimator and controller
//! design) and the affine unrolling behind §III's SMT queries is computed with
//! the primitives in this crate.
//!
//! # Example
//!
//! ```
//! use cps_linalg::{Matrix, Vector};
//!
//! # fn main() -> Result<(), cps_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let b = Vector::from_slice(&[1.0, 2.0]);
//! let x = a.solve(&b)?;
//! let residual = (&a * &x - &b).norm_inf();
//! assert!(residual < 1e-12);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod expm;
mod lu;
mod matrix;
mod riccati;
mod rng;
mod vector;

pub use error::LinalgError;
pub use expm::expm;
pub use lu::LuDecomposition;
pub use matrix::Matrix;
pub use riccati::solve_dare;
pub use rng::SplitMix64;
pub use vector::{dot, Vector, INLINE_CAP};

/// Default absolute tolerance used by iterative solvers and approximate
/// comparisons throughout the workspace.
pub const DEFAULT_TOL: f64 = 1e-9;

/// Returns `true` when `a` and `b` are within `tol` of each other.
///
/// Intended for test assertions and iterative-solver convergence checks; both
/// `NaN` inputs and infinite differences compare as *not* close.
///
/// # Example
///
/// ```
/// assert!(cps_linalg::approx_eq(1.0, 1.0 + 1e-12, 1e-9));
/// assert!(!cps_linalg::approx_eq(1.0, 1.1, 1e-9));
/// ```
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol
}
