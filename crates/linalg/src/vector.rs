use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// Entries stored inline (on the stack) before a [`Vector`] spills to the
/// heap. Every benchmark plant in the workspace has at most four states, so
/// its rollout buffers never leave the inline representation.
pub const INLINE_CAP: usize = 8;

/// Backing storage of a [`Vector`]: a fixed `[f64; INLINE_CAP]` buffer for
/// short vectors, a `Vec<f64>` beyond that. The variant is an internal detail
/// — all observable behaviour (equality, arithmetic, iteration, Display) goes
/// through `as_slice`, so an inline vector and a heap vector with the same
/// entries are indistinguishable except via [`Vector::is_inline`].
#[derive(Debug, Clone)]
enum Storage {
    Inline { len: u8, data: [f64; INLINE_CAP] },
    Heap(Vec<f64>),
}

/// A dense column vector of `f64` values.
///
/// `Vector` is the value type exchanged between the plant, estimator and
/// controller models in the workspace: states, measurements, control inputs,
/// residues and attack injections are all `Vector`s.
///
/// Vectors of up to [`INLINE_CAP`] entries are stored inline without heap
/// allocation; longer vectors transparently spill to a `Vec<f64>`.
/// [`Vector::copy_from`], [`Vector::resize_zeroed`] and
/// [`crate::Matrix::mul_vec_into`] reuse existing storage.
///
/// # Example
///
/// ```
/// use cps_linalg::Vector;
///
/// let v = Vector::from_slice(&[3.0, 4.0]);
/// assert_eq!(v.len(), 2);
/// assert!(v.is_inline());
/// assert!((v.norm_l2() - 5.0).abs() < 1e-12);
/// ```
#[derive(Clone)]
pub struct Vector {
    storage: Storage,
}

impl Vector {
    /// Creates a vector of `len` zeros.
    pub fn zeros(len: usize) -> Self {
        if len <= INLINE_CAP {
            Self {
                storage: Storage::Inline {
                    len: len as u8,
                    data: [0.0; INLINE_CAP],
                },
            }
        } else {
            Self {
                storage: Storage::Heap(vec![0.0; len]),
            }
        }
    }

    /// Creates a vector filled with `value`.
    pub fn filled(len: usize, value: f64) -> Self {
        let mut v = Self::zeros(len);
        v.as_mut_slice().fill(value);
        v
    }

    /// Creates a vector by copying the given slice.
    pub fn from_slice(values: &[f64]) -> Self {
        let mut v = Self::zeros(values.len());
        v.as_mut_slice().copy_from_slice(values);
        v
    }

    /// Creates a vector from a closure evaluated at each index.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> f64) -> Self {
        let mut v = Self::zeros(len);
        for (i, slot) in v.as_mut_slice().iter_mut().enumerate() {
            *slot = f(i);
        }
        v
    }

    /// Creates a heap-backed vector even when `values` would fit inline.
    ///
    /// This is the differential-test hook for the small-vector optimisation:
    /// every operation must produce bit-identical results on a heap-backed
    /// vector and its inline twin.
    pub fn heap_backed(values: Vec<f64>) -> Self {
        Self {
            storage: Storage::Heap(values),
        }
    }

    /// Returns `true` when the entries live in the inline `[f64; INLINE_CAP]`
    /// buffer rather than on the heap.
    pub fn is_inline(&self) -> bool {
        matches!(self.storage, Storage::Inline { .. })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        match &self.storage {
            Storage::Inline { len, .. } => *len as usize,
            Storage::Heap(v) => v.len(),
        }
    }

    /// Returns `true` when the vector has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrows the underlying storage as a slice.
    pub fn as_slice(&self) -> &[f64] {
        match &self.storage {
            Storage::Inline { len, data } => &data[..*len as usize],
            Storage::Heap(v) => v,
        }
    }

    /// Mutably borrows the underlying storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        match &mut self.storage {
            Storage::Inline { len, data } => &mut data[..*len as usize],
            Storage::Heap(v) => v,
        }
    }

    /// Consumes the vector and returns its entries as a `Vec<f64>` (copies
    /// when the vector is inline).
    pub fn into_vec(self) -> Vec<f64> {
        match self.storage {
            Storage::Inline { len, data } => data[..len as usize].to_vec(),
            Storage::Heap(v) => v,
        }
    }

    /// Resizes to `len` in place. Entries up to `min(old, new)` keep their
    /// values; newly created entries are zero. Stays inline for
    /// `len ≤ INLINE_CAP` unless already heap-backed at a larger capacity.
    pub fn resize_zeroed(&mut self, new_len: usize) {
        let old_len = self.len();
        if old_len == new_len {
            return;
        }
        match (&mut self.storage, new_len <= INLINE_CAP) {
            (Storage::Heap(v), false) => v.resize(new_len, 0.0),
            (Storage::Inline { len, data }, true) => {
                if new_len > *len as usize {
                    data[*len as usize..new_len].fill(0.0);
                }
                *len = new_len as u8;
            }
            _ => {
                let mut next = Vector::zeros(new_len);
                let keep = old_len.min(new_len);
                next.as_mut_slice()[..keep].copy_from_slice(&self.as_slice()[..keep]);
                *self = next;
            }
        }
    }

    /// Overwrites `self` with the entries of `src`, resizing if necessary.
    /// Allocation-free when the lengths already match (or `src` fits inline).
    pub fn copy_from(&mut self, src: &Vector) {
        self.resize_zeroed(src.len());
        self.as_mut_slice().copy_from_slice(src.as_slice());
    }

    /// Returns an iterator over the entries.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.as_slice().iter()
    }

    /// Dot (inner) product with another vector.
    ///
    /// # Panics
    ///
    /// Panics if the two vectors have different lengths.
    pub fn dot(&self, other: &Vector) -> f64 {
        assert_eq!(
            self.len(),
            other.len(),
            "dot product requires equal lengths"
        );
        dot(self.as_slice(), other.as_slice())
    }

    /// Sum of absolute values (L1 norm).
    pub fn norm_l1(&self) -> f64 {
        self.iter().map(|x| x.abs()).sum()
    }

    /// Euclidean (L2) norm.
    pub fn norm_l2(&self) -> f64 {
        self.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry (L∞ norm). Returns `0.0` for an empty vector.
    pub fn norm_inf(&self) -> f64 {
        self.iter().fold(0.0, |acc, x| acc.max(x.abs()))
    }

    /// Element-wise map producing a new vector.
    pub fn map(&self, mut f: impl FnMut(f64) -> f64) -> Vector {
        Vector::from_fn(self.len(), |i| f(self.as_slice()[i]))
    }

    /// Scales every entry by `factor`.
    pub fn scale(&self, factor: f64) -> Vector {
        self.map(|x| x * factor)
    }

    /// Returns a sub-vector with the entries at `indices` (in that order).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select(&self, indices: &[usize]) -> Vector {
        Vector::from_fn(indices.len(), |i| self.as_slice()[indices[i]])
    }

    /// Returns `true` when every entry is finite (no NaN / infinity).
    pub fn is_finite(&self) -> bool {
        self.iter().all(|x| x.is_finite())
    }
}

impl fmt::Debug for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Vector").field(&self.as_slice()).finish()
    }
}

impl Default for Vector {
    fn default() -> Self {
        Self::zeros(0)
    }
}

impl PartialEq for Vector {
    fn eq(&self, other: &Self) -> bool {
        // Storage variant is invisible: inline and heap vectors with the same
        // entries compare equal.
        self.as_slice() == other.as_slice()
    }
}

impl fmt::Display for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, x) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x:.6}")?;
        }
        write!(f, "]")
    }
}

impl Index<usize> for Vector {
    type Output = f64;

    fn index(&self, index: usize) -> &f64 {
        &self.as_slice()[index]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, index: usize) -> &mut f64 {
        &mut self.as_mut_slice()[index]
    }
}

impl From<Vec<f64>> for Vector {
    fn from(data: Vec<f64>) -> Self {
        if data.len() <= INLINE_CAP {
            Self::from_slice(&data)
        } else {
            Self {
                storage: Storage::Heap(data),
            }
        }
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut data = [0.0; INLINE_CAP];
        let mut len = 0usize;
        let mut it = iter.into_iter();
        while len < INLINE_CAP {
            match it.next() {
                Some(x) => {
                    data[len] = x;
                    len += 1;
                }
                None => {
                    return Self {
                        storage: Storage::Inline {
                            len: len as u8,
                            data,
                        },
                    }
                }
            }
        }
        match it.next() {
            None => Self {
                storage: Storage::Inline {
                    len: len as u8,
                    data,
                },
            },
            Some(x) => {
                let mut v = data.to_vec();
                v.push(x);
                v.extend(it);
                Self {
                    storage: Storage::Heap(v),
                }
            }
        }
    }
}

impl IntoIterator for Vector {
    type Item = f64;
    type IntoIter = std::vec::IntoIter<f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.into_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Vector {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// The dot product of two equally long slices: the products summed left to
/// right by `f64`'s `Sum`. It is the one reduction behind [`Vector::dot`],
/// [`crate::Matrix::mul_vec`] and every kernel that must round as they do.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot product requires equal lengths");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn binary_op(lhs: &Vector, rhs: &Vector, op: impl Fn(f64, f64) -> f64, name: &str) -> Vector {
    assert_eq!(lhs.len(), rhs.len(), "{name} requires equal lengths");
    Vector::from_fn(lhs.len(), |i| op(lhs.as_slice()[i], rhs.as_slice()[i]))
}

impl Add for &Vector {
    type Output = Vector;

    fn add(self, rhs: &Vector) -> Vector {
        binary_op(self, rhs, |a, b| a + b, "vector addition")
    }
}

impl Add for Vector {
    type Output = Vector;

    fn add(self, rhs: Vector) -> Vector {
        &self + &rhs
    }
}

impl Sub for &Vector {
    type Output = Vector;

    fn sub(self, rhs: &Vector) -> Vector {
        binary_op(self, rhs, |a, b| a - b, "vector subtraction")
    }
}

impl Sub for Vector {
    type Output = Vector;

    fn sub(self, rhs: Vector) -> Vector {
        &self - &rhs
    }
}

impl Add<&Vector> for Vector {
    type Output = Vector;

    fn add(self, rhs: &Vector) -> Vector {
        &self + rhs
    }
}

impl Sub<&Vector> for Vector {
    type Output = Vector;

    fn sub(self, rhs: &Vector) -> Vector {
        &self - rhs
    }
}

impl AddAssign<&Vector> for Vector {
    fn add_assign(&mut self, rhs: &Vector) {
        assert_eq!(
            self.len(),
            rhs.len(),
            "vector addition requires equal lengths"
        );
        for (a, b) in self.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
            *a += b;
        }
    }
}

impl SubAssign<&Vector> for Vector {
    fn sub_assign(&mut self, rhs: &Vector) {
        assert_eq!(
            self.len(),
            rhs.len(),
            "vector subtraction requires equal lengths"
        );
        for (a, b) in self.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
            *a -= b;
        }
    }
}

impl Mul<f64> for &Vector {
    type Output = Vector;

    fn mul(self, rhs: f64) -> Vector {
        self.scale(rhs)
    }
}

impl Mul<f64> for Vector {
    type Output = Vector;

    fn mul(self, rhs: f64) -> Vector {
        self.scale(rhs)
    }
}

impl Neg for &Vector {
    type Output = Vector;

    fn neg(self) -> Vector {
        self.scale(-1.0)
    }
}

impl Neg for Vector {
    type Output = Vector;

    fn neg(self) -> Vector {
        self.scale(-1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_len() {
        let v = Vector::zeros(4);
        assert_eq!(v.len(), 4);
        assert!(!v.is_empty());
        assert_eq!(v.norm_l1(), 0.0);
    }

    #[test]
    fn from_fn_builds_expected_entries() {
        let v = Vector::from_fn(3, |i| (i as f64) * 2.0);
        assert_eq!(v.as_slice(), &[0.0, 2.0, 4.0]);
    }

    #[test]
    fn dot_product() {
        let a = Vector::from_slice(&[1.0, 2.0, 3.0]);
        let b = Vector::from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(a.dot(&b), 32.0);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn dot_product_length_mismatch_panics() {
        let a = Vector::from_slice(&[1.0]);
        let b = Vector::from_slice(&[1.0, 2.0]);
        let _ = a.dot(&b);
    }

    #[test]
    fn norms() {
        let v = Vector::from_slice(&[3.0, -4.0]);
        assert_eq!(v.norm_l1(), 7.0);
        assert_eq!(v.norm_l2(), 5.0);
        assert_eq!(v.norm_inf(), 4.0);
    }

    #[test]
    fn norm_inf_of_empty_is_zero() {
        assert_eq!(Vector::zeros(0).norm_inf(), 0.0);
        assert!(Vector::zeros(0).is_empty());
    }

    #[test]
    fn arithmetic_ops() {
        let a = Vector::from_slice(&[1.0, 2.0]);
        let b = Vector::from_slice(&[3.0, 5.0]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 7.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 3.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
    }

    #[test]
    fn add_assign_and_sub_assign() {
        let mut a = Vector::from_slice(&[1.0, 1.0]);
        a += &Vector::from_slice(&[2.0, 3.0]);
        assert_eq!(a.as_slice(), &[3.0, 4.0]);
        a -= &Vector::from_slice(&[1.0, 1.0]);
        assert_eq!(a.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn select_reorders_entries() {
        let v = Vector::from_slice(&[10.0, 20.0, 30.0]);
        assert_eq!(v.select(&[2, 0]).as_slice(), &[30.0, 10.0]);
    }

    #[test]
    fn is_finite_detects_nan() {
        let v = Vector::from_slice(&[1.0, f64::NAN]);
        assert!(!v.is_finite());
        assert!(Vector::from_slice(&[1.0, 2.0]).is_finite());
    }

    #[test]
    fn display_formats_entries() {
        let v = Vector::from_slice(&[1.0, -2.5]);
        let s = format!("{v}");
        assert!(s.starts_with('[') && s.ends_with(']'));
        assert!(s.contains("1.000000"));
    }

    #[test]
    fn collect_from_iterator() {
        let v: Vector = (0..3).map(|i| i as f64).collect();
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn small_vectors_stay_inline_and_large_ones_spill() {
        assert!(Vector::zeros(0).is_inline());
        assert!(Vector::zeros(INLINE_CAP).is_inline());
        assert!(!Vector::zeros(INLINE_CAP + 1).is_inline());
        assert!(Vector::from_fn(INLINE_CAP, |i| i as f64).is_inline());
        assert!(!Vector::from_fn(INLINE_CAP + 1, |i| i as f64).is_inline());
        let collected: Vector = (0..INLINE_CAP).map(|i| i as f64).collect();
        assert!(collected.is_inline());
        let spilled: Vector = (0..INLINE_CAP + 1).map(|i| i as f64).collect();
        assert!(!spilled.is_inline());
        assert_eq!(spilled.len(), INLINE_CAP + 1);
        assert_eq!(spilled[INLINE_CAP], INLINE_CAP as f64);
    }

    #[test]
    fn inline_and_heap_vectors_compare_equal() {
        let inline = Vector::from_slice(&[1.0, 2.0, 3.0]);
        let heap = Vector::heap_backed(vec![1.0, 2.0, 3.0]);
        assert!(inline.is_inline());
        assert!(!heap.is_inline());
        assert_eq!(inline, heap);
        assert_eq!(format!("{inline}"), format!("{heap}"));
        assert_eq!(format!("{inline:?}"), format!("{heap:?}"));
    }

    #[test]
    fn resize_zeroed_preserves_prefix_across_representations() {
        // inline → inline (grow and shrink)
        let mut v = Vector::from_slice(&[1.0, 2.0]);
        v.resize_zeroed(4);
        assert_eq!(v.as_slice(), &[1.0, 2.0, 0.0, 0.0]);
        v.resize_zeroed(1);
        assert_eq!(v.as_slice(), &[1.0]);
        // regrow must re-zero previously used slots
        v.resize_zeroed(3);
        assert_eq!(v.as_slice(), &[1.0, 0.0, 0.0]);

        // inline → heap
        let mut v = Vector::from_slice(&[1.0, 2.0]);
        v.resize_zeroed(INLINE_CAP + 2);
        assert!(!v.is_inline());
        assert_eq!(v[0], 1.0);
        assert_eq!(v[1], 2.0);
        assert_eq!(v[INLINE_CAP + 1], 0.0);

        // heap → inline
        v.resize_zeroed(2);
        assert!(v.is_inline());
        assert_eq!(v.as_slice(), &[1.0, 2.0]);

        // heap stays heap when shrinking above the inline cap
        let mut w = Vector::zeros(INLINE_CAP + 4);
        w.resize_zeroed(INLINE_CAP + 1);
        assert!(!w.is_inline());
        assert_eq!(w.len(), INLINE_CAP + 1);
    }

    #[test]
    fn copy_from_resizes_and_overwrites() {
        let a = Vector::from_slice(&[1.0, -2.0, 3.5]);
        let b = Vector::from_slice(&[0.25, 4.0]);

        let mut out = Vector::zeros(0);
        out.copy_from(&a);
        assert_eq!(out, a);
        out.copy_from(&b);
        assert_eq!(out, b);
        let long = Vector::from_fn(INLINE_CAP + 2, |i| i as f64);
        out.copy_from(&long);
        assert_eq!(out, long);
    }

    #[test]
    fn into_vec_round_trips_both_representations() {
        let inline = Vector::from_slice(&[1.0, 2.0]);
        assert_eq!(inline.clone().into_vec(), vec![1.0, 2.0]);
        let heap = Vector::heap_backed(vec![1.0, 2.0]);
        assert_eq!(heap.into_vec(), vec![1.0, 2.0]);
        let big: Vec<f64> = (0..INLINE_CAP + 3).map(|i| i as f64).collect();
        let v: Vector = big.clone().into();
        assert!(!v.is_inline());
        assert_eq!(v.into_vec(), big);
    }
}
