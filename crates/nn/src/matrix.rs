//! Dense row-major `f32` matrix used throughout the crate.
//!
//! The printed-MLP workloads are tiny (tens of neurons, thousands of samples),
//! so a straightforward dense implementation with bounds-checked accessors and
//! explicit error reporting is preferred over an external BLAS dependency.

use crate::error::NnError;
use crate::kernel::{self, Build, Left, Right, Stored, Transposed};
use serde::json::{Error, Value};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense row-major matrix of `f32` values.
///
/// # Example
///
/// ```
/// use pmlp_nn::Matrix;
///
/// # fn main() -> Result<(), pmlp_nn::NnError> {
/// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])?;
/// let b = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]])?;
/// let c = a.matmul(&b)?;
/// assert_eq!(c, Matrix::from_rows(&[vec![2.0, 1.0], vec![4.0, 3.0]])?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, PartialEq, Serialize)]
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

/// The empty `0 x 0` matrix: a buffer that the first `*_into` call sizes.
impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl Deserialize for Matrix {
    /// Goes through [`Matrix::from_vec`], so a document whose `data` length
    /// is not `rows * cols` is rejected instead of building a matrix that
    /// panics on first use.
    fn deserialize_value(value: &Value) -> Result<Self, Error> {
        let rows = usize::deserialize_value(value.field("rows")?)?;
        let cols = usize::deserialize_value(value.field("cols")?)?;
        let data = Vec::<f32>::deserialize_value(value.field("data")?)?;
        Matrix::from_vec(rows, cols, data).map_err(|e| Error::custom(e.to_string()))
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
            data: vec![0.0; element_count(rows, cols)],
        }
    }

    /// Creates a matrix of `rows x cols` filled with `value`.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; element_count(rows, cols)],
        }
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
    /// Returns [`NnError::InvalidDimension`] if `data.len() != rows * cols`
    /// or `rows * cols` overflows `usize`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, NnError> {
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(NnError::InvalidDimension {
                context: format!(
                    "from_vec: a {rows}x{cols} matrix cannot hold {} elements",
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
    /// This is the training hot kernel: it sweeps `other` in 8-wide column
    /// panels, four rows of `self` at a time, with the partial sums in
    /// registers. Every element is still the sum of its products in
    /// ascending inner index, started from `+0.0`, so the result is
    /// bit-for-bit that of the textbook triple loop. It runs serially:
    /// parallelism lives above it, over candidates and datasets. On an
    /// x86-64 CPU with AVX it runs the kernel's AVX build, which gives the
    /// same bits.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `self.cols() != other.rows()`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) -> Result<(), NnError> {
        product_into(
            Build::detected(),
            self.stored(),
            other.stored(),
            out,
            "matmul",
        )
    }

    /// The product `selfᵀ * other` written into a caller-owned matrix,
    /// reusing its allocation: the same kernel as
    /// [`Matrix::matmul_into`], reading `self` column by column where it
    /// lies instead of a transposed copy. The bits are those of
    /// transposing `self` and then multiplying.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `self.rows() != other.rows()`.
    pub fn transpose_matmul_into(&self, other: &Matrix, out: &mut Matrix) -> Result<(), NnError> {
        product_into(
            Build::detected(),
            self.transposed(),
            other.stored(),
            out,
            "transpose_matmul",
        )
    }

    /// The product `self * otherᵀ` into a caller-owned matrix, reusing its
    /// allocation: the kernel packs each 8-wide panel of `otherᵀ` from
    /// the rows of `other`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `self.cols() != other.cols()`.
    pub(crate) fn matmul_transpose_into(
        &self,
        other: &Matrix,
        out: &mut Matrix,
    ) -> Result<(), NnError> {
        product_into(
            Build::detected(),
            self.stored(),
            other.transposed(),
            out,
            "matmul_transpose",
        )
    }

    /// This matrix as a product operand, read as stored.
    fn stored(&self) -> Stored<'_> {
        Stored {
            data: &self.data,
            rows: self.rows,
            cols: self.cols,
        }
    }

    /// This matrix as a product operand, read transposed in place.
    fn transposed(&self) -> Transposed<'_> {
        Transposed {
            data: &self.data,
            rows: self.rows,
            cols: self.cols,
        }
    }

    /// Gives the matrix the shape `rows x cols`, reusing the allocation. The
    /// elements keep whatever values the buffer held; callers overwrite
    /// every one of them.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub(crate) fn resize(&mut self, rows: usize, cols: usize) {
        self.data.resize(element_count(rows, cols), 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Adds a row vector to every row in place (the bias of a dense layer).
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

    /// Writes the column sums into `out` (length `cols`): each starts at
    /// `+0.0` and adds the rows top to bottom.
    ///
    /// # Panics
    ///
    /// Panics when `out.len() != self.cols()`.
    pub(crate) fn sum_rows_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.cols, "sum_rows_into: length mismatch");
        out.fill(0.0);
        for row in self.iter_rows() {
            for (acc, &v) in out.iter_mut().zip(row.iter()) {
                *acc += v;
            }
        }
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

    /// Maximum absolute value; `0.0` for an empty matrix.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0_f32, |m, &x| m.max(x.abs()))
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
        self.iter_rows().map(argmax).collect()
    }
}

/// The element count `rows * cols` of a matrix.
///
/// # Panics
///
/// Panics with "matrix size overflow" if the product overflows `usize`.
fn element_count(rows: usize, cols: usize) -> usize {
    rows.checked_mul(cols).expect("matrix size overflow")
}

/// Index of the maximum of `row`, ties resolved to the lowest index; `0` for
/// an empty or all-NaN row.
pub(crate) fn argmax(row: &[f32]) -> usize {
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
}

/// The product of operands `a` and `b` into `out`, reusing its allocation,
/// by the kernel build `build`.
///
/// # Errors
///
/// Returns [`NnError::ShapeMismatch`], naming `context`, when the operands'
/// inner dimensions differ.
fn product_into<'a, A: Left, B: Right<'a>>(
    build: Build,
    a: A,
    b: B,
    out: &mut Matrix,
    context: &str,
) -> Result<(), NnError> {
    let ((rows, depth), (inner, cols)) = (a.shape(), b.shape());
    if depth != inner {
        return Err(NnError::ShapeMismatch {
            context: context.into(),
            left: a.shape(),
            right: b.shape(),
        });
    }
    // The kernel writes every element, so a reused buffer keeps its stale
    // values until then instead of being zeroed first.
    out.resize(rows, cols);
    kernel::product(build, a, b, depth, &mut out.data, cols);
    Ok(())
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

    /// The `n x n` identity matrix.
    pub(super) fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(a.matmul(&identity(3)).unwrap(), a);
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
        let mut out = Matrix::default();
        let tall = Matrix::zeros(3, 2);
        assert!(matches!(
            a.transpose_matmul_into(&tall, &mut out),
            Err(NnError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            a.matmul_transpose_into(&tall, &mut out),
            Err(NnError::ShapeMismatch { .. })
        ));
        a.transpose_matmul_into(&b, &mut out).unwrap();
        assert_eq!(out.shape(), (3, 3));
        a.matmul_transpose_into(&b, &mut out).unwrap();
        assert_eq!(out.shape(), (2, 2));
    }

    #[test]
    #[should_panic(expected = "matrix size overflow")]
    fn filled_rejects_an_overflowing_size() {
        // `rows * cols` wraps to 0 in `usize`; that is not an empty matrix.
        let _ = Matrix::filled(1 << 32, 1 << 32, 1.0);
    }

    #[test]
    #[should_panic(expected = "matrix size overflow")]
    fn resize_rejects_an_overflowing_size() {
        Matrix::default().resize(1 << 32, 1 << 32);
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
        // `rows * cols` wraps to 0 in `usize`; that is not an empty matrix.
        assert!(Matrix::from_vec(1 << 32, 1 << 32, Vec::new()).is_err());
    }

    #[test]
    fn deserialization_rejects_a_data_length_that_does_not_fit_the_shape() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let json = serde_json::to_string(&m).unwrap();
        assert_eq!(serde_json::from_str::<Matrix>(&json).unwrap(), m);
        let short = json.replace(",4]", "]");
        assert_ne!(short, json);
        assert!(serde_json::from_str::<Matrix>(&short).is_err());
    }

    #[test]
    fn add_row_broadcast_adds_bias_to_each_row() {
        let mut a = Matrix::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0]]).unwrap();
        a.add_row_broadcast_inplace(&[10.0, 20.0]).unwrap();
        assert_eq!(a.row(0), &[11.0, 21.0]);
        assert_eq!(a.row(1), &[12.0, 22.0]);
    }

    #[test]
    fn add_row_broadcast_inplace_matches_allocating_version() {
        let a = Matrix::from_rows(&[vec![1.5, -0.0, 3.0], vec![-2.0, 0.25, 0.0]]).unwrap();
        let bias = [10.0, -0.0, -3.0];
        // The allocating reference: a fresh matrix with `bias` added to
        // each element of every row.
        let expected: Vec<f32> = a
            .iter_rows()
            .flat_map(|row| row.iter().zip(&bias).map(|(v, b)| v + b))
            .collect();
        let mut b = a.clone();
        b.add_row_broadcast_inplace(&bias).unwrap();
        assert_eq!(b, Matrix::from_vec(2, 3, expected).unwrap());
        assert!(b.add_row_broadcast_inplace(&[1.0]).is_err());
    }

    #[test]
    fn argmax_rows_resolves_ties_to_lowest_index() {
        let a = Matrix::from_rows(&[vec![0.5, 0.5], vec![0.1, 0.9]]).unwrap();
        assert_eq!(a.argmax_rows(), vec![0, 1]);
    }

    #[test]
    fn sum_rows_into_overwrites_with_column_sums() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let mut sums = vec![9.0; 2];
        a.sum_rows_into(&mut sums);
        assert_eq!(sums, vec![4.0, 6.0]);
    }

    #[test]
    fn count_zeros_counts_exact_zeros() {
        let a = Matrix::from_rows(&[vec![0.0, 2.0], vec![0.0, 0.0]]).unwrap();
        assert_eq!(a.count_zeros(), 3);
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

    /// A `rows x cols` matrix of values in `[-10, 10)`, a fifth of them
    /// signed zeros, drawn from a generator seeded with `seed`.
    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data = (0..rows * cols)
            .map(|_| match rng.gen_range(0..10) {
                0 => -0.0,
                1 => 0.0,
                _ => rng.gen_range(-10.0f32..10.0),
            })
            .collect();
        Matrix::from_vec(rows, cols, data).unwrap()
    }

    /// The products the training step runs.
    #[derive(Debug, Clone, Copy)]
    enum Product {
        /// `a * b`: the forward pass, through [`Matrix::matmul_into`].
        Plain,
        /// `aᵀ * b`: the weight gradient `xᵀ·δ`, through
        /// [`Matrix::transpose_matmul_into`].
        TransposeLeft,
        /// `a * bᵀ`: the input gradient `δ·Wᵀ`, through
        /// [`Matrix::matmul_transpose_into`].
        TransposeRight,
    }

    impl Product {
        /// Random stored operands of a `rows x inner` by `inner x cols`
        /// product.
        fn operands(self, rows: usize, inner: usize, cols: usize, seed: u64) -> (Matrix, Matrix) {
            let ((a_rows, a_cols), (b_rows, b_cols)) = match self {
                Product::Plain => ((rows, inner), (inner, cols)),
                Product::TransposeLeft => ((inner, rows), (inner, cols)),
                Product::TransposeRight => ((rows, inner), (cols, inner)),
            };
            (
                random_matrix(a_rows, a_cols, seed),
                random_matrix(b_rows, b_cols, !seed),
            )
        }

        /// The product through its public entry point, which picks the
        /// build.
        fn dispatched(self, a: &Matrix, b: &Matrix, out: &mut Matrix) -> Result<(), NnError> {
            match self {
                Product::Plain => a.matmul_into(b, out),
                Product::TransposeLeft => a.transpose_matmul_into(b, out),
                Product::TransposeRight => a.matmul_transpose_into(b, out),
            }
        }

        /// The product by `build`, called directly.
        fn by(self, build: Build, a: &Matrix, b: &Matrix, out: &mut Matrix) -> Result<(), NnError> {
            match self {
                Product::Plain => product_into(build, a.stored(), b.stored(), out, "test"),
                Product::TransposeLeft => {
                    product_into(build, a.transposed(), b.stored(), out, "test")
                }
                Product::TransposeRight => {
                    product_into(build, a.stored(), b.transposed(), out, "test")
                }
            }
        }

        /// The textbook triple loop over the operands as the product reads
        /// them: each sum starts at `+0.0` and adds every product, rounded
        /// on its own, in ascending inner index.
        fn naive(self, a: &Matrix, b: &Matrix) -> Matrix {
            let left = |i, k| match self {
                Product::TransposeLeft => a.get(k, i),
                _ => a.get(i, k),
            };
            let right = |k, j| match self {
                Product::TransposeRight => b.get(j, k),
                _ => b.get(k, j),
            };
            let (rows, inner) = match self {
                Product::TransposeLeft => (a.cols(), a.rows()),
                _ => a.shape(),
            };
            let cols = match self {
                Product::TransposeRight => b.rows(),
                _ => b.cols(),
            };
            let mut out = Matrix::zeros(rows, cols);
            for i in 0..rows {
                for j in 0..cols {
                    let mut sum = 0.0_f32;
                    for k in 0..inner {
                        let product = left(i, k) * right(k, j);
                        sum += product;
                    }
                    out.set(i, j, sum);
                }
            }
            out
        }

        /// Runs the product of random operands of the given shape through
        /// the dispatched entry point and through every build this CPU
        /// has, called directly, each into a copy of `stale`, and asserts
        /// that all give the naive triple loop's bits.
        fn assert_bit_identical(
            self,
            (rows, inner, cols): (usize, usize, usize),
            seed: u64,
            stale: &Matrix,
        ) {
            let (a, b) = self.operands(rows, inner, cols, seed);
            let expected = bits(&self.naive(&a, &b));
            let mut out = stale.clone();
            self.dispatched(&a, &b, &mut out).unwrap();
            assert_eq!(out.shape(), (rows, cols), "{self:?} {rows}x{inner}x{cols}");
            assert_eq!(bits(&out), expected, "{self:?} {rows}x{inner}x{cols}");
            for &build in builds() {
                let mut out = stale.clone();
                self.by(build, &a, &b, &mut out).unwrap();
                assert_eq!(out.shape(), (rows, cols), "{self:?} {rows}x{inner}x{cols}");
                assert_eq!(
                    bits(&out),
                    expected,
                    "{self:?} {build:?} {rows}x{inner}x{cols}"
                );
            }
        }
    }

    /// Every build of the kernel that this CPU runs, each made by
    /// [`Build::new`] after its own feature check. A build the CPU lacks
    /// is left out with a note on standard error, written past the test
    /// harness's capture so that a passing run shows it too: an untested
    /// build never counts as a pass.
    fn builds() -> &'static [Build] {
        static BUILDS: std::sync::OnceLock<Vec<Build>> = std::sync::OnceLock::new();
        BUILDS.get_or_init(|| {
            use std::io::Write;
            crate::kernel::Isa::ALL
                .into_iter()
                .filter_map(|isa| {
                    let build = Build::new(isa);
                    if build.is_none() {
                        let _ = writeln!(
                            std::io::stderr(),
                            "note: skipped the {isa:?} build of the matrix kernel: \
                             this CPU lacks its features"
                        );
                    }
                    build
                })
                .collect()
        })
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #[test]
        fn matmul_identity_left_and_right(m in small_matrix(3, 3)) {
            let i = super::tests::identity(3);
            for (a, b) in [(&i, &m), (&m, &i)] {
                for (x, y) in a.matmul(b).unwrap().as_slice().iter().zip(m.as_slice()) {
                    prop_assert!((x - y).abs() < 1e-5);
                }
                let expected = bits(&Product::Plain.naive(a, b));
                for &build in builds() {
                    let mut out = Matrix::default();
                    Product::Plain.by(build, a, b, &mut out).unwrap();
                    prop_assert_eq!(bits(&out), expected.clone(), "{:?}", build);
                }
            }
        }

        #[test]
        fn matmul_into_is_bit_identical_to_the_naive_triple_loop(
            rows in 0usize..=40,
            inner in 0usize..=70,
            cols in 1usize..=40,
            seed in 0u64..u64::MAX,
            stale in 0usize..3,
        ) {
            // A reused buffer of any earlier shape and contents.
            let stale = Matrix::filled(stale * 7, stale * 3, f32::NAN);
            Product::Plain.assert_bit_identical((rows, inner, cols), seed, &stale);
        }

        #[test]
        fn transpose_matmul_into_is_bit_identical_to_the_naive_triple_loop(
            rows in 0usize..=40,
            inner in 0usize..=70,
            cols in 1usize..=40,
            seed in 0u64..u64::MAX,
            stale in 0usize..3,
        ) {
            let stale = Matrix::filled(stale * 7, stale * 3, f32::NAN);
            Product::TransposeLeft.assert_bit_identical((rows, inner, cols), seed, &stale);
        }

        #[test]
        fn matmul_transpose_into_is_bit_identical_to_the_naive_triple_loop(
            rows in 0usize..=40,
            inner in 0usize..=70,
            cols in 1usize..=40,
            seed in 0u64..u64::MAX,
            stale in 0usize..3,
        ) {
            let stale = Matrix::filled(stale * 7, stale * 3, f32::NAN);
            Product::TransposeRight.assert_bit_identical((rows, inner, cols), seed, &stale);
        }
    }

    /// Explicit shapes around the kernel's edges: row counts on either side
    /// of a multiple of its 4-row block; column counts of one or two
    /// panels 8 or 16 wide and every remainder after them (widths 1-17 and
    /// 24-33, read in place and packed); and inner dimensions on either
    /// side of one and two fills of the packed panel's 32-deep stack
    /// buffer.
    fn assert_bit_identical_on_the_kernel_edges(product: Product) {
        // A reused buffer holding stale values at every index.
        let stale = Matrix::filled(33, 33, f32::NAN);
        let mut seed = 0;
        for rows in [0usize, 1, 3, 4, 5, 7, 8, 9, 32, 33] {
            for inner in [0usize, 1, 5, 11, 25, 31, 32, 33, 40, 64, 65] {
                for cols in (1usize..=17).chain(24..=33) {
                    seed += 2;
                    product.assert_bit_identical((rows, inner, cols), seed, &stale);
                }
            }
        }
    }

    #[test]
    fn matmul_into_is_bit_identical_on_the_kernel_edges() {
        assert_bit_identical_on_the_kernel_edges(Product::Plain);
    }

    #[test]
    fn transposed_products_are_bit_identical_on_the_kernel_edges() {
        assert_bit_identical_on_the_kernel_edges(Product::TransposeLeft);
        assert_bit_identical_on_the_kernel_edges(Product::TransposeRight);
    }

    /// Every product of a training step at batch 32 of the 11 -> 25 -> 5
    /// (WhiteWine) and 16 -> 30 -> 10 (Pendigits) models, and the forward
    /// products of a 374-row and a 500-row validation pass, give the same
    /// bits from every build this CPU runs as from the baseline build.
    #[test]
    fn the_two_builds_agree_on_the_training_shapes() {
        let mut shapes = Vec::new();
        for [inputs, hidden, outputs] in [[11, 25, 5], [16, 30, 10]] {
            for (fan_in, fan_out) in [(inputs, hidden), (hidden, outputs)] {
                for rows in [32, 374, 500] {
                    shapes.push((Product::Plain, (rows, fan_in, fan_out)));
                }
                shapes.push((Product::TransposeLeft, (fan_in, 32, fan_out)));
            }
            shapes.push((Product::TransposeRight, (32, outputs, hidden)));
        }
        for (seed, (product, (rows, inner, cols))) in (0u64..).zip(shapes) {
            let (a, b) = product.operands(rows, inner, cols, seed);
            let mut baseline = Matrix::default();
            product.by(Build::BASELINE, &a, &b, &mut baseline).unwrap();
            for &build in builds() {
                let mut out = Matrix::default();
                product.by(build, &a, &b, &mut out).unwrap();
                assert_eq!(out.shape(), (rows, cols));
                assert_eq!(
                    bits(&out),
                    bits(&baseline),
                    "{product:?} {build:?} {rows}x{inner}x{cols}"
                );
            }
        }
    }
}
