//! Property-based tests for the linear-algebra substrate.
//!
//! `proptest` is not in the sanctioned offline crate set, so each property is
//! checked over a deterministic stream of pseudo-random cases drawn from the
//! crate's own [`SplitMix64`] (seeded per test, so failures reproduce).

use cps_linalg::{expm, Matrix, SplitMix64, Vector};

const CASES: usize = 64;

/// Deterministic case generator over the crate's own [`SplitMix64`].
struct Gen {
    rng: SplitMix64,
}

impl Gen {
    fn new(seed: u64) -> Self {
        Self {
            rng: SplitMix64::new(seed),
        }
    }

    /// Uniform sample in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        self.rng.range(lo, hi)
    }

    /// Small, well-scaled square matrix with entries in `[-5, 5)`.
    fn square_matrix(&mut self, n: usize) -> Matrix {
        let data: Vec<f64> = (0..n * n).map(|_| self.range(-5.0, 5.0)).collect();
        Matrix::from_fn(n, n, |i, j| data[i * n + j])
    }

    /// Diagonally dominant (hence invertible) matrix.
    fn invertible_matrix(&mut self, n: usize) -> Matrix {
        let mut out = self.square_matrix(n);
        for i in 0..n {
            let row_sum: f64 = (0..n).map(|j| out[(i, j)].abs()).sum();
            out[(i, i)] = row_sum + 1.0;
        }
        out
    }

    fn vector(&mut self, n: usize) -> Vector {
        Vector::from((0..n).map(|_| self.range(-10.0, 10.0)).collect::<Vec<_>>())
    }
}

#[test]
fn transpose_is_involution() {
    let mut g = Gen::new(0xA11CE);
    for _ in 0..CASES {
        let m = g.square_matrix(3);
        assert_eq!(m.transpose().transpose(), m);
    }
}

#[test]
fn identity_is_multiplicative_neutral() {
    let mut g = Gen::new(0xB0B);
    let i = Matrix::identity(3);
    for _ in 0..CASES {
        let m = g.square_matrix(3);
        assert!((m.matmul(&i).unwrap() - m.clone()).norm_fro() < 1e-12);
        assert!((i.matmul(&m).unwrap() - m).norm_fro() < 1e-12);
    }
}

#[test]
fn addition_commutes() {
    let mut g = Gen::new(0xC0FFEE);
    for _ in 0..CASES {
        let (a, b) = (g.square_matrix(3), g.square_matrix(3));
        assert!(((&a + &b) - (&b + &a)).norm_fro() < 1e-12);
    }
}

#[test]
fn matmul_distributes_over_addition() {
    let mut g = Gen::new(0xD15C0);
    for _ in 0..CASES {
        let (a, b, c) = (g.square_matrix(3), g.square_matrix(3), g.square_matrix(3));
        let lhs = a.matmul(&(&b + &c)).unwrap();
        let rhs = &a.matmul(&b).unwrap() + &a.matmul(&c).unwrap();
        assert!((lhs - rhs).norm_fro() < 1e-9);
    }
}

#[test]
fn transpose_of_product_reverses() {
    let mut g = Gen::new(0xE66);
    for _ in 0..CASES {
        let (a, b) = (g.square_matrix(3), g.square_matrix(3));
        let lhs = a.matmul(&b).unwrap().transpose();
        let rhs = b.transpose().matmul(&a.transpose()).unwrap();
        assert!((lhs - rhs).norm_fro() < 1e-9);
    }
}

#[test]
fn lu_solve_produces_small_residual() {
    let mut g = Gen::new(0xF00D);
    for _ in 0..CASES {
        let a = g.invertible_matrix(4);
        let b = g.vector(4);
        let x = a.solve(&b).unwrap();
        let residual = (&a.mul_vec(&x) - &b).norm_inf();
        assert!(residual < 1e-7, "residual {residual}");
    }
}

#[test]
fn inverse_round_trip() {
    let mut g = Gen::new(0x1DEA);
    for _ in 0..CASES {
        let a = g.invertible_matrix(3);
        let inv = a.inverse().unwrap();
        let eye = a.matmul(&inv).unwrap();
        assert!((eye - Matrix::identity(3)).norm_fro() < 1e-7);
    }
}

#[test]
fn determinant_of_product_is_product_of_determinants() {
    let mut g = Gen::new(0x2B);
    for _ in 0..CASES {
        let (a, b) = (g.invertible_matrix(3), g.invertible_matrix(3));
        let da = a.determinant().unwrap();
        let db = b.determinant().unwrap();
        let dab = a.matmul(&b).unwrap().determinant().unwrap();
        // Relative comparison: determinants of diagonally dominant matrices can be large.
        assert!((dab - da * db).abs() <= 1e-6 * da.abs().max(1.0) * db.abs().max(1.0));
    }
}

#[test]
fn vector_norm_triangle_inequality() {
    let mut g = Gen::new(0x3A6);
    for _ in 0..CASES {
        let (a, b) = (g.vector(5), g.vector(5));
        assert!((&a + &b).norm_l2() <= a.norm_l2() + b.norm_l2() + 1e-12);
        assert!((&a + &b).norm_l1() <= a.norm_l1() + b.norm_l1() + 1e-12);
        assert!((&a + &b).norm_inf() <= a.norm_inf() + b.norm_inf() + 1e-12);
    }
}

#[test]
fn norm_ordering_holds() {
    let mut g = Gen::new(0x4C4);
    for _ in 0..CASES {
        let a = g.vector(5);
        // ‖a‖∞ ≤ ‖a‖₂ ≤ ‖a‖₁ for every vector.
        assert!(a.norm_inf() <= a.norm_l2() + 1e-12);
        assert!(a.norm_l2() <= a.norm_l1() + 1e-12);
    }
}

#[test]
fn dot_product_is_symmetric() {
    let mut g = Gen::new(0x5D5);
    for _ in 0..CASES {
        let (a, b) = (g.vector(4), g.vector(4));
        assert!((a.dot(&b) - b.dot(&a)).abs() < 1e-12);
    }
}

#[test]
fn expm_of_negated_matrix_is_inverse() {
    let mut g = Gen::new(0x6E6);
    for _ in 0..CASES {
        // e^A · e^{-A} = I for every square A.
        let scaled = g.square_matrix(2).scale(0.2); // keep the norm modest for numerical accuracy
        let e = expm(&scaled).unwrap();
        let e_neg = expm(&scaled.scale(-1.0)).unwrap();
        let prod = e.matmul(&e_neg).unwrap();
        assert!((prod - Matrix::identity(2)).norm_fro() < 1e-7);
    }
}

/// Every operation must be bit-identical between an inline vector and its
/// heap-backed twin — the core guarantee behind the small-vector fast path.
#[test]
fn inline_and_heap_backends_are_bit_identical() {
    let mut g = Gen::new(0x8E8);
    for n in 1..=6 {
        for _ in 0..CASES {
            let a = g.vector(n);
            let b = g.vector(n);
            let m = g.square_matrix(n);
            let ah = Vector::heap_backed(a.as_slice().to_vec());
            let bh = Vector::heap_backed(b.as_slice().to_vec());
            assert!(a.is_inline() && !ah.is_inline());

            assert_eq!(&a + &b, &ah + &bh);
            assert_eq!(&a - &b, &ah - &bh);
            assert_eq!(a.dot(&b).to_bits(), ah.dot(&bh).to_bits());
            assert_eq!(a.norm_l1().to_bits(), ah.norm_l1().to_bits());
            assert_eq!(a.norm_l2().to_bits(), ah.norm_l2().to_bits());
            assert_eq!(a.norm_inf().to_bits(), ah.norm_inf().to_bits());
            assert_eq!(a.scale(1.7), ah.scale(1.7));
            assert_eq!(m.mul_vec(&a), m.mul_vec(&ah));

            let mut out_i = Vector::zeros(n);
            let mut out_h = Vector::heap_backed(vec![0.0; n]);
            m.mul_vec_into(&a, &mut out_i);
            m.mul_vec_into(&ah, &mut out_h);
            assert_eq!(out_i, m.mul_vec(&a));
            assert_eq!(out_i, out_h);
        }
    }
}
