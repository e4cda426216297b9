//! Dense row-major `f32` matrix used throughout the crate.
//!
//! The printed-MLP workloads are tiny (tens of neurons, thousands of samples),
//! so a straightforward dense implementation with bounds-checked accessors and
//! explicit error reporting is preferred over an external BLAS dependency.

use crate::error::NnError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A dense row-major matrix of `f32` values.
///
/// # Example
///
/// ```
/// use pmlp_nn::Matrix;
///
/// # fn main() -> Result<(), pmlp_nn::NnError> {
/// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])?;
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b)?;
/// assert_eq!(c, a);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.clone(),
        }
    }

    /// Reuses the existing allocation when the capacities allow — hot
    /// training loops `clone_from` into persistent buffers every batch.
    fn clone_from(&mut self, source: &Self) {
        self.rows = source.rows;
        self.cols = source.cols;
        self.data.clone_from(&source.data);
    }
}

impl Matrix {
    /// Creates a matrix of `rows x cols` filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows.checked_mul(cols).expect("matrix size overflow")],
        }
    }

    /// Creates a matrix of `rows x cols` filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates an identity matrix of size `n x n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from a slice of equally-long rows.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidDimension`] if `rows` is empty or the rows do
    /// not all have the same length.
    pub fn from_rows(rows: &[Vec<f32>]) -> Result<Self, NnError> {
        if rows.is_empty() {
            return Err(NnError::InvalidDimension {
                context: "from_rows: no rows".into(),
            });
        }
        let cols = rows[0].len();
        if cols == 0 {
            return Err(NnError::InvalidDimension {
                context: "from_rows: zero columns".into(),
            });
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != cols {
                return Err(NnError::InvalidDimension {
                    context: format!(
                        "from_rows: row {i} has {} columns, expected {cols}",
                        row.len()
                    ),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidDimension`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, NnError> {
        if data.len() != rows * cols {
            return Err(NnError::InvalidDimension {
                context: format!(
                    "from_vec: expected {} elements, got {}",
                    rows * cols,
                    data.len()
                ),
            });
        }
        Ok(Matrix { rows, cols, data })
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

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, value: f32) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.data[r * self.cols + c] = value;
    }

    /// Borrowed view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(
            r < self.rows,
            "row {r} out of bounds for {} rows",
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(
            r < self.rows,
            "row {r} out of bounds for {} rows",
            self.rows
        );
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns column `c` as an owned vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols`.
    pub fn column(&self, c: usize) -> Vec<f32> {
        self.column_iter(c).collect()
    }

    /// Strided, allocation-free iterator over column `c` (top to bottom) —
    /// the hot-path counterpart of [`Matrix::column`], which allocates a
    /// fresh `Vec` per call.
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols`.
    pub fn column_iter(&self, c: usize) -> impl Iterator<Item = f32> + '_ {
        assert!(
            c < self.cols,
            "column {c} out of bounds for {} columns",
            self.cols
        );
        self.data.iter().skip(c).step_by(self.cols).copied()
    }

    /// Iterates over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks(self.cols)
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.transpose_into(&mut out);
        out
    }

    /// Transposes into a caller-owned matrix, reusing its allocation — the
    /// backprop hot path re-transposes the weight matrix every batch, so
    /// avoiding the per-call allocation matters.
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.rows = self.cols;
        out.cols = self.rows;
        out.data.clear();
        out.data.reserve(self.rows * self.cols);
        for c in 0..self.cols {
            out.data
                .extend(self.data.iter().skip(c).step_by(self.cols.max(1)));
        }
    }

    /// Matrix product `self * other`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, NnError> {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(other, &mut out)?;
        Ok(out)
    }

    /// Matrix product `self * other` written into a caller-owned matrix,
    /// reusing its allocation.
    ///
    /// This is the training hot kernel: a dense `ikj` loop blocked over `k`
    /// for cache locality (iteration order — and therefore every f32
    /// rounding — is identical to the naive kernel), with no per-element
    /// zero test on the left operand. It runs serially: parallelism lives
    /// above it, over candidates and datasets.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `self.cols() != other.rows()`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) -> Result<(), NnError> {
        if self.cols != other.rows {
            return Err(NnError::ShapeMismatch {
                context: "matmul".into(),
                left: self.shape(),
                right: other.shape(),
            });
        }
        out.rows = self.rows;
        out.cols = other.cols;
        out.data.clear();
        out.data.resize(self.rows * other.cols, 0.0);
        matmul_rows(
            &self.data,
            self.cols,
            &other.data,
            other.cols,
            &mut out.data,
        );
        Ok(())
    }

    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when shapes differ.
    pub fn add_elem(&self, other: &Matrix) -> Result<Matrix, NnError> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Element-wise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when shapes differ.
    pub fn sub_elem(&self, other: &Matrix) -> Result<Matrix, NnError> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when shapes differ.
    pub fn hadamard(&self, other: &Matrix) -> Result<Matrix, NnError> {
        self.zip_with(other, "hadamard", |a, b| a * b)
    }

    fn zip_with(
        &self,
        other: &Matrix,
        context: &str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Matrix, NnError> {
        if self.shape() != other.shape() {
            return Err(NnError::ShapeMismatch {
                context: context.into(),
                left: self.shape(),
                right: other.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Returns a new matrix with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|x| x * s)
    }

    /// Adds a row vector (broadcast over rows), used for bias addition.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `bias.len() != self.cols()`.
    pub fn add_row_broadcast(&self, bias: &[f32]) -> Result<Matrix, NnError> {
        if bias.len() != self.cols {
            return Err(NnError::ShapeMismatch {
                context: "add_row_broadcast".into(),
                left: self.shape(),
                right: (1, bias.len()),
            });
        }
        let mut out = self.clone();
        out.add_row_broadcast_inplace(bias)?;
        Ok(out)
    }

    /// Adds a row vector to every row in place (allocation-free counterpart
    /// of [`Matrix::add_row_broadcast`], used in the batched inference path).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `bias.len() != self.cols()`.
    pub fn add_row_broadcast_inplace(&mut self, bias: &[f32]) -> Result<(), NnError> {
        if bias.len() != self.cols {
            return Err(NnError::ShapeMismatch {
                context: "add_row_broadcast_inplace".into(),
                left: self.shape(),
                right: (1, bias.len()),
            });
        }
        for row in self.data.chunks_mut(self.cols) {
            for (v, b) in row.iter_mut().zip(bias.iter()) {
                *v += b;
            }
        }
        Ok(())
    }

    /// Overwrites this matrix with the selected rows of `src`, reusing the
    /// existing allocation (the allocation-free counterpart of
    /// [`Matrix::select_rows`], used by the mini-batch gather path).
    ///
    /// # Panics
    ///
    /// Panics when the column counts differ, `indices.len() != self.rows()`,
    /// or any index is out of bounds for `src`.
    pub fn copy_rows_from(&mut self, src: &Matrix, indices: &[usize]) {
        assert_eq!(self.cols, src.cols, "copy_rows_from: column mismatch");
        assert_eq!(
            self.rows,
            indices.len(),
            "copy_rows_from: row-count mismatch"
        );
        for (dst, &src_row) in indices.iter().enumerate() {
            let start = dst * self.cols;
            self.data[start..start + self.cols].copy_from_slice(src.row(src_row));
        }
    }

    /// Sums over rows, producing a vector of length `cols`.
    pub fn sum_rows(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.cols];
        for row in self.iter_rows() {
            for (acc, &v) in out.iter_mut().zip(row.iter()) {
                *acc += v;
            }
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements; `0.0` for an empty matrix.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum absolute value; `0.0` for an empty matrix.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0_f32, |m, &x| m.max(x.abs()))
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Number of elements equal to exactly zero.
    pub fn count_zeros(&self) -> usize {
        self.data.iter().filter(|&&x| x == 0.0).count()
    }

    /// Selects the given rows into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Matrix {
            rows: indices.len(),
            cols: self.cols,
            data,
        }
    }

    /// Index of the maximum value in each row (argmax), ties resolved to the
    /// lowest index.
    pub fn argmax_rows(&self) -> Vec<usize> {
        self.iter_rows()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .fold((0usize, f32::NEG_INFINITY), |(bi, bv), (i, &v)| {
                        if v > bv {
                            (i, v)
                        } else {
                            (bi, bv)
                        }
                    })
                    .0
            })
            .collect()
    }
}

/// Dense row-major product kernel shared by the sequential and row-parallel
/// paths of [`Matrix::matmul_into`]: `out` holds one or more complete result
/// rows, `a` points at the first corresponding row of the left operand.
///
/// Blocked over output columns so the live `out` stripe stays cache-resident
/// across the whole `k` sweep. Per output element the accumulation order is
/// `k` ascending — identical to the naive kernel, so results are bit-for-bit
/// unchanged — and the dense inner loop carries no per-element zero test, so
/// it vectorizes.
///
/// Kept out of line: inlined into `matmul_into`, its only caller, it made
/// full-effort baseline training and GA runs 10-15% slower (release build,
/// 2-core x86-64 VM).
#[inline(never)]
fn matmul_rows(a: &[f32], a_cols: usize, b: &[f32], b_cols: usize, out: &mut [f32]) {
    const J_BLOCK: usize = 512;
    if b_cols == 0 || a_cols == 0 {
        return;
    }
    for (i, out_row) in out.chunks_mut(b_cols).enumerate() {
        let a_row = &a[i * a_cols..(i + 1) * a_cols];
        let mut j0 = 0;
        while j0 < b_cols {
            let j1 = (j0 + J_BLOCK).min(b_cols);
            let out_chunk = &mut out_row[j0..j1];
            let width = j1 - j0;
            // Register-block four `k` steps per sweep: the accumulator stays
            // live across four multiply-adds instead of being re-read and
            // re-written per step, quartering the `out` traffic. Per element
            // the adds still happen in ascending-`k` order.
            let mut k = 0;
            while k + 4 <= a_cols {
                let (a0, a1, a2, a3) = (a_row[k], a_row[k + 1], a_row[k + 2], a_row[k + 3]);
                let b0 = &b[k * b_cols + j0..k * b_cols + j0 + width];
                let b1 = &b[(k + 1) * b_cols + j0..(k + 1) * b_cols + j0 + width];
                let b2 = &b[(k + 2) * b_cols + j0..(k + 2) * b_cols + j0 + width];
                let b3 = &b[(k + 3) * b_cols + j0..(k + 3) * b_cols + j0 + width];
                for ((((o, &v0), &v1), &v2), &v3) in
                    out_chunk.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3)
                {
                    let mut acc = *o;
                    acc += a0 * v0;
                    acc += a1 * v1;
                    acc += a2 * v2;
                    acc += a3 * v3;
                    *o = acc;
                }
                k += 4;
            }
            for (k, &av) in a_row.iter().enumerate().skip(k) {
                let b_chunk = &b[k * b_cols + j0..k * b_cols + j1];
                for (o, &bv) in out_chunk.iter_mut().zip(b_chunk) {
                    *o += av * bv;
                }
            }
            j0 = j1;
        }
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{}", self.rows, self.cols)?;
        for row in self.iter_rows() {
            let cells: Vec<String> = row.iter().map(|x| format!("{x:>9.4}")).collect();
            writeln!(f, "[{}]", cells.join(", "))?;
        }
        Ok(())
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    /// # Panics
    ///
    /// Panics if shapes differ; use [`Matrix::add_elem`] for a fallible version.
    fn add(self, rhs: &Matrix) -> Matrix {
        self.add_elem(rhs).expect("matrix addition shape mismatch")
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    /// # Panics
    ///
    /// Panics if shapes differ; use [`Matrix::sub_elem`] for a fallible version.
    fn sub(self, rhs: &Matrix) -> Matrix {
        self.sub_elem(rhs)
            .expect("matrix subtraction shape mismatch")
    }
}

impl Mul<f32> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: f32) -> Matrix {
        self.scale(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_expected_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let i = Matrix::identity(3);
        assert_eq!(a.matmul(&i).unwrap(), a);
    }

    #[test]
    fn matmul_known_result() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(
            c,
            Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]).unwrap()
        );
    }

    #[test]
    fn matmul_shape_mismatch_is_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(a.matmul(&b), Err(NnError::ShapeMismatch { .. })));
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).unwrap_err();
        assert!(matches!(err, NnError::InvalidDimension { .. }));
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn add_row_broadcast_adds_bias_to_each_row() {
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0]]).unwrap();
        let out = a.add_row_broadcast(&[10.0, 20.0]).unwrap();
        assert_eq!(out.row(0), &[11.0, 21.0]);
        assert_eq!(out.row(1), &[12.0, 22.0]);
    }

    #[test]
    fn argmax_rows_resolves_ties_to_lowest_index() {
        let a = Matrix::from_rows(&[vec![0.5, 0.5], vec![0.1, 0.9]]).unwrap();
        assert_eq!(a.argmax_rows(), vec![0, 1]);
    }

    #[test]
    fn sum_rows_and_mean() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(a.sum_rows(), vec![4.0, 6.0]);
        assert!((a.mean() - 2.5).abs() < 1e-6);
    }

    #[test]
    fn count_zeros_counts_exact_zeros() {
        let a = Matrix::from_rows(&[vec![0.0, 2.0], vec![0.0, 0.0]]).unwrap();
        assert_eq!(a.count_zeros(), 3);
    }

    #[test]
    fn add_row_broadcast_inplace_matches_allocating_version() {
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0]]).unwrap();
        let mut b = a.clone();
        b.add_row_broadcast_inplace(&[10.0, 20.0]).unwrap();
        assert_eq!(b, a.add_row_broadcast(&[10.0, 20.0]).unwrap());
        assert!(b.add_row_broadcast_inplace(&[1.0]).is_err());
    }

    #[test]
    fn copy_rows_from_matches_select_rows() {
        let src = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let mut dst = Matrix::zeros(2, 2);
        dst.copy_rows_from(&src, &[2, 0]);
        assert_eq!(dst, src.select_rows(&[2, 0]));
    }

    #[test]
    #[should_panic(expected = "row-count mismatch")]
    fn copy_rows_from_rejects_wrong_row_count() {
        let src = Matrix::zeros(3, 2);
        let mut dst = Matrix::zeros(1, 2);
        dst.copy_rows_from(&src, &[0, 1]);
    }

    #[test]
    fn select_rows_picks_rows_in_order() {
        let a = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let sel = a.select_rows(&[2, 0]);
        assert_eq!(sel.row(0), &[3.0]);
        assert_eq!(sel.row(1), &[1.0]);
    }

    #[test]
    fn matmul_into_reuses_buffer_and_matches_matmul() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, -3.0], vec![0.5, -1.5, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![2.0, 0.0], vec![-1.0, 3.0], vec![0.5, 1.0]]).unwrap();
        let expected = a.matmul(&b).unwrap();
        // Start from a buffer of the wrong shape and stale contents.
        let mut out = Matrix::filled(5, 7, 9.0);
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out, expected);
        // Repeated calls into the same buffer stay correct.
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out, expected);
        // Shape mismatch is still reported.
        assert!(b.matmul_into(&b, &mut out).is_err());
    }

    #[test]
    fn matmul_has_no_zero_skip_semantics_change() {
        // Rows/operands full of zeros still produce exact results.
        let a = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 0.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![3.0, -2.0], vec![7.0, 5.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.row(0), &[0.0, 0.0]);
        assert_eq!(c.row(1), &[3.0, -2.0]);
    }

    #[test]
    fn transpose_into_matches_transpose() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let mut out = Matrix::filled(1, 1, 42.0);
        a.transpose_into(&mut out);
        assert_eq!(out, a.transpose());
        // And again, reusing the now-correctly-sized buffer.
        a.transpose_into(&mut out);
        assert_eq!(out, a.transpose());
    }

    #[test]
    fn column_iter_matches_column() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        for c in 0..2 {
            assert_eq!(a.column_iter(c).collect::<Vec<_>>(), a.column(c));
        }
        assert_eq!(a.column_iter(1).sum::<f32>(), 12.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn column_iter_panics_out_of_bounds() {
        let a = Matrix::zeros(2, 2);
        let _ = a.column_iter(2);
    }

    #[test]
    fn clone_from_reuses_allocation_and_copies_exactly() {
        let src = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let mut dst = Matrix::zeros(7, 3);
        dst.clone_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.shape(), (2, 2));
    }

    #[test]
    fn operators_match_methods() {
        let a = Matrix::filled(2, 2, 3.0);
        let b = Matrix::filled(2, 2, 1.0);
        assert_eq!(&a + &b, Matrix::filled(2, 2, 4.0));
        assert_eq!(&a - &b, Matrix::filled(2, 2, 2.0));
        assert_eq!(&a * 2.0, Matrix::filled(2, 2, 6.0));
    }

    #[test]
    fn display_contains_dimensions() {
        let a = Matrix::zeros(1, 2);
        let s = format!("{a}");
        assert!(s.contains("1x2"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn small_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
        proptest::collection::vec(-10.0f32..10.0, rows * cols)
            .prop_map(move |v| Matrix::from_vec(rows, cols, v).unwrap())
    }

    proptest! {
        #[test]
        fn transpose_is_involution(m in small_matrix(4, 3)) {
            prop_assert_eq!(m.transpose().transpose(), m);
        }

        #[test]
        fn matmul_identity_left_and_right(m in small_matrix(3, 3)) {
            let i = Matrix::identity(3);
            let left = i.matmul(&m).unwrap();
            let right = m.matmul(&i).unwrap();
            for (a, b) in left.as_slice().iter().zip(m.as_slice()) {
                prop_assert!((a - b).abs() < 1e-5);
            }
            for (a, b) in right.as_slice().iter().zip(m.as_slice()) {
                prop_assert!((a - b).abs() < 1e-5);
            }
        }

        #[test]
        fn addition_commutes(a in small_matrix(3, 4), b in small_matrix(3, 4)) {
            let ab = a.add_elem(&b).unwrap();
            let ba = b.add_elem(&a).unwrap();
            for (x, y) in ab.as_slice().iter().zip(ba.as_slice()) {
                prop_assert!((x - y).abs() < 1e-6);
            }
        }

        #[test]
        fn scale_by_zero_gives_zero_matrix(a in small_matrix(2, 5)) {
            let z = a.scale(0.0);
            prop_assert_eq!(z.count_zeros(), z.len());
        }

        #[test]
        fn frobenius_norm_non_negative_and_zero_only_for_zero(a in small_matrix(3, 3)) {
            let n = a.frobenius_norm();
            prop_assert!(n >= 0.0);
            if a.as_slice().iter().all(|&x| x == 0.0) {
                prop_assert!(n == 0.0);
            }
        }
    }
}
