use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

use crate::{dot, LinalgError, LuDecomposition, Vector};

/// A dense, row-major matrix of `f64` values.
///
/// `Matrix` is deliberately small and predictable: it stores its elements in a
/// single `Vec<f64>`, implements the usual arithmetic operators for references
/// and values, and defers factorisation-based operations (solve, inverse,
/// determinant) to [`LuDecomposition`].
///
/// # Example
///
/// ```
/// use cps_linalg::Matrix;
///
/// # fn main() -> Result<(), cps_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let b = Matrix::identity(2);
/// let c = &a * &b;
/// assert_eq!(c, a);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a square matrix with `diag` on its main diagonal.
    pub fn from_diag(diag: &[f64]) -> Self {
        let mut m = Self::zeros(diag.len(), diag.len());
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidInput`] if the rows are ragged or the
    /// input is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, LinalgError> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(LinalgError::InvalidInput(
                "matrix must have at least one row and one column".to_string(),
            ));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != cols {
                return Err(LinalgError::InvalidInput(format!(
                    "row {i} has {} entries, expected {cols}",
                    row.len()
                )));
            }
            data.extend_from_slice(row);
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a matrix from a closure evaluated at every `(row, col)` index.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns `true` when the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows the underlying row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns row `i` as a vector.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> Vector {
        assert!(i < self.rows, "row index {i} out of bounds");
        Vector::from_slice(&self.data[i * self.cols..(i + 1) * self.cols])
    }

    /// Returns column `j` as a vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn col(&self, j: usize) -> Vector {
        assert!(j < self.cols, "column index {j} out of bounds");
        Vector::from_fn(self.rows, |i| self[(i, j)])
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Sum of diagonal entries.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Frobenius norm (square root of the sum of squared entries).
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Induced infinity norm (maximum absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        (0..self.rows)
            .map(|i| {
                self.data[i * self.cols..(i + 1) * self.cols]
                    .iter()
                    .map(|x| x.abs())
                    .sum::<f64>()
            })
            .fold(0.0, f64::max)
    }

    /// Element-wise map producing a new matrix.
    pub fn map(&self, f: impl FnMut(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().copied().map(f).collect(),
        }
    }

    /// Scales every entry by `factor`.
    pub fn scale(&self, factor: f64) -> Matrix {
        self.map(|x| x * factor)
    }

    /// Returns `true` when every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &Vector) -> Vector {
        let mut out = Vector::zeros(self.rows);
        self.mul_vec_into(v, &mut out);
        out
    }

    /// Matrix-vector product `self * v` written into `out`, resizing `out`
    /// to `self.rows()` if needed. Allocation-free once `out` has the right
    /// length. Each entry is one [`dot`](crate::dot) of a row with `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec_into(&self, v: &Vector, out: &mut Vector) {
        assert_eq!(
            self.cols,
            v.len(),
            "matrix-vector product dimension mismatch"
        );
        out.resize_zeroed(self.rows);
        for (i, slot) in out.as_mut_slice().iter_mut().enumerate() {
            *slot = dot(&self.data[i * self.cols..(i + 1) * self.cols], v.as_slice());
        }
    }

    /// Matrix-matrix product `self * other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when the inner dimensions differ.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matrix multiplication",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += aik * other[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Horizontally concatenates `self` and `other` (`[self | other]`).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the row counts differ.
    pub fn hstack(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.rows != other.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "horizontal concatenation",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        Ok(Matrix::from_fn(
            self.rows,
            self.cols + other.cols,
            |i, j| {
                if j < self.cols {
                    self[(i, j)]
                } else {
                    other[(i, j - self.cols)]
                }
            },
        ))
    }

    /// Vertically concatenates `self` on top of `other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the column counts differ.
    pub fn vstack(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != other.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "vertical concatenation",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        Ok(Matrix::from_fn(
            self.rows + other.rows,
            self.cols,
            |i, j| {
                if i < self.rows {
                    self[(i, j)]
                } else {
                    other[(i - self.rows, j)]
                }
            },
        ))
    }

    /// Computes the LU decomposition with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for rectangular matrices and
    /// [`LinalgError::Singular`] when a zero pivot is encountered.
    pub fn lu(&self) -> Result<LuDecomposition, LinalgError> {
        LuDecomposition::new(self)
    }

    /// Solves `self * x = b` for `x`.
    ///
    /// # Errors
    ///
    /// Propagates factorisation errors and shape mismatches from
    /// [`LuDecomposition`].
    pub fn solve(&self, b: &Vector) -> Result<Vector, LinalgError> {
        self.lu()?.solve(b)
    }

    /// Computes the matrix inverse.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] for singular matrices and
    /// [`LinalgError::NotSquare`] for rectangular ones.
    pub fn inverse(&self) -> Result<Matrix, LinalgError> {
        self.lu()?.inverse()
    }

    /// Computes the determinant via LU decomposition.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for rectangular matrices. A singular
    /// matrix returns `Ok(0.0)`.
    pub fn determinant(&self) -> Result<f64, LinalgError> {
        match self.lu() {
            Ok(lu) => Ok(lu.determinant()),
            Err(LinalgError::Singular) => Ok(0.0),
            Err(e) => Err(e),
        }
    }

    /// Largest absolute eigenvalue estimated by power iteration on
    /// `self^T * self` (i.e. the spectral radius upper bound via the largest
    /// singular value). Used for stability heuristics and scaling decisions.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for rectangular matrices.
    pub fn spectral_radius_estimate(&self, iterations: usize) -> Result<f64, LinalgError> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        if self.rows == 0 {
            return Ok(0.0);
        }
        let mut v = Vector::filled(self.rows, 1.0 / (self.rows as f64).sqrt());
        let mut estimate = 0.0;
        for _ in 0..iterations.max(1) {
            let w = self.mul_vec(&v);
            let norm = w.norm_l2();
            if norm < 1e-300 {
                return Ok(0.0);
            }
            estimate = norm;
            v = w.scale(1.0 / norm);
        }
        Ok(estimate)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.6}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix addition shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Add for Matrix {
    type Output = Matrix;

    fn add(self, rhs: Matrix) -> Matrix {
        &self + &rhs
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "matrix subtraction shape mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Sub for Matrix {
    type Output = Matrix;

    fn sub(self, rhs: Matrix) -> Matrix {
        &self - &rhs
    }
}

impl Mul for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs)
            .expect("matrix multiplication dimension mismatch")
    }
}

impl Mul for Matrix {
    type Output = Matrix;

    fn mul(self, rhs: Matrix) -> Matrix {
        &self * &rhs
    }
}

impl Mul<&Vector> for &Matrix {
    type Output = Vector;

    fn mul(self, rhs: &Vector) -> Vector {
        self.mul_vec(rhs)
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: f64) -> Matrix {
        self.scale(rhs)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.scale(-1.0)
    }
}

impl Neg for Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.scale(-1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap()
    }

    #[test]
    fn zeros_identity_diag() {
        assert_eq!(Matrix::zeros(2, 3).shape(), (2, 3));
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        let d = Matrix::from_diag(&[2.0, 5.0]);
        assert_eq!(d[(1, 1)], 5.0);
        assert_eq!(d[(1, 0)], 0.0);
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::InvalidInput(_)));
        assert!(Matrix::from_rows(&[]).is_err());
    }

    #[test]
    fn transpose_and_trace() {
        let a = sample();
        let t = a.transpose();
        assert_eq!(t[(0, 1)], 3.0);
        assert_eq!(a.trace(), 5.0);
    }

    #[test]
    fn row_and_col_access() {
        let a = sample();
        assert_eq!(a.row(1).as_slice(), &[3.0, 4.0]);
        assert_eq!(a.col(0).as_slice(), &[1.0, 3.0]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = sample();
        let b = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[2.0, 1.0], &[4.0, 3.0]]).unwrap());
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn mul_vec_matches_hand_computation() {
        let a = sample();
        let v = Vector::from_slice(&[1.0, 1.0]);
        assert_eq!(a.mul_vec(&v).as_slice(), &[3.0, 7.0]);
    }

    #[test]
    fn hstack_vstack() {
        let a = sample();
        let i = Matrix::identity(2);
        let h = a.hstack(&i).unwrap();
        assert_eq!(h.shape(), (2, 4));
        assert_eq!(h[(0, 2)], 1.0);
        let v = a.vstack(&i).unwrap();
        assert_eq!(v.shape(), (4, 2));
        assert_eq!(v[(2, 0)], 1.0);
        assert!(a.hstack(&Matrix::zeros(3, 1)).is_err());
        assert!(a.vstack(&Matrix::zeros(1, 3)).is_err());
    }

    #[test]
    fn norms() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]).unwrap();
        assert_eq!(a.norm_fro(), 5.0);
        assert_eq!(a.norm_inf(), 4.0);
    }

    #[test]
    fn determinant_and_inverse() {
        let a = sample();
        assert!(approx_eq(a.determinant().unwrap(), -2.0, 1e-12));
        let inv = a.inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        assert!((prod - Matrix::identity(2)).norm_fro() < 1e-12);
    }

    #[test]
    fn determinant_of_singular_is_zero() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(approx_eq(a.determinant().unwrap(), 0.0, 1e-12));
    }

    #[test]
    fn spectral_radius_estimate_of_diagonal() {
        let a = Matrix::from_diag(&[0.5, 0.9]);
        let r = a.spectral_radius_estimate(200).unwrap();
        assert!(approx_eq(r, 0.9, 1e-6), "estimate {r}");
    }

    #[test]
    fn operators_on_values_and_refs_agree() {
        let a = sample();
        let b = Matrix::identity(2);
        assert_eq!(&a + &b, a.clone() + b.clone());
        assert_eq!(&a - &b, a.clone() - b.clone());
        assert_eq!(&a * &b, a.clone() * b.clone());
        assert_eq!(-&a, -a.clone());
    }

    #[test]
    fn is_finite_detects_inf() {
        let mut a = sample();
        assert!(a.is_finite());
        a[(0, 0)] = f64::INFINITY;
        assert!(!a.is_finite());
    }
}
