//! Dense row-major `f32` matrix used throughout the crate.
//!
//! The printed-MLP workloads are tiny (tens of neurons, thousands of samples),
//! so a straightforward dense implementation with bounds-checked accessors and
//! explicit error reporting is preferred over an external BLAS dependency.

use crate::error::NnError;
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
    /// This is the training hot kernel: it sweeps `other` in 8-wide column
    /// panels, four rows of `self` at a time, with the partial sums in
    /// registers. Every element is still the sum of its products in
    /// ascending inner index, started from `+0.0`, so the result is
    /// bit-for-bit that of the textbook triple loop. It runs serially:
    /// parallelism lives above it, over candidates and datasets.
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
        // The kernel writes every element, so a reused buffer keeps its
        // stale values until then instead of being zeroed first.
        out.resize(self.rows, other.cols);
        matmul_rows(
            &self.data,
            self.cols,
            &other.data,
            other.cols,
            &mut out.data,
        );
        Ok(())
    }

    /// Gives the matrix the shape `rows x cols`, reusing the allocation. The
    /// elements keep whatever values the buffer held; callers overwrite
    /// every one of them.
    pub(crate) fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
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

/// Width of a column panel of the right operand: two SSE2 vectors.
const PANEL: usize = 8;

/// Left-operand rows per register block. Four rows by one panel is eight
/// vector accumulators, which fit in the sixteen SSE2 registers next to the
/// panel row and the broadcast left value.
const BLOCK_ROWS: usize = 4;

/// Inner-index depth of the zero-padded tail panel, which lives on the
/// stack. Every product of the training step is shallower; a deeper one
/// packs and sweeps the tail panel in slices of this depth.
const TAIL_DEPTH: usize = 32;

/// Dense row-major product kernel of [`Matrix::matmul_into`]: writes every
/// element of the `m x b_cols` product `out`, where `a` holds `m` rows of
/// `a_cols` elements and `b` holds `a_cols` rows of `b_cols` elements.
///
/// The right operand is swept in column panels of [`PANEL`] (Goto & van de
/// Geijn, "Anatomy of High-Performance Matrix Multiplication", ACM TOMS
/// 2008). A full panel is read where it lies in `b`; only the last,
/// narrower panel is copied into a zero-padded stack buffer. Against each
/// panel, [`BLOCK_ROWS`] rows of `a` at a time accumulate a `rows x PANEL`
/// block in registers over the whole inner index, so every output is
/// written once, and the 5-wide output layer still runs on full vectors.
///
/// Per output element the sum starts at `+0.0` and adds each `a * b` in
/// ascending inner index, with the multiply and the add rounded separately:
/// the result is bit-for-bit the textbook triple loop's, for every shape.
///
/// Kept out of line, as the row-sweep kernel before it was: inlined into
/// `matmul_into`, its only caller, that kernel made full-effort baseline
/// training and GA runs 10-15% slower (release build, 2-core x86-64 VM).
/// This one has not been measured inlined.
#[inline(never)]
fn matmul_rows(a: &[f32], a_cols: usize, b: &[f32], b_cols: usize, out: &mut [f32]) {
    if b_cols == 0 {
        return;
    }
    if a_cols == 0 {
        out.fill(0.0);
        return;
    }
    let full = b_cols - b_cols % PANEL;
    for j0 in (0..full).step_by(PANEL) {
        let panel = Panel {
            data: &b[j0..],
            stride: b_cols,
            col: j0,
            width: PANEL,
        };
        panel.multiply(a, a_cols, 0..a_cols, out, b_cols);
    }
    if full < b_cols {
        let width = b_cols - full;
        // Lanes past `width` stay zero: only the first `width` of each row
        // are ever written.
        let mut tail = [0.0_f32; PANEL * TAIL_DEPTH];
        for k0 in (0..a_cols).step_by(TAIL_DEPTH) {
            let k1 = (k0 + TAIL_DEPTH).min(a_cols);
            for (dst, src) in tail
                .chunks_exact_mut(PANEL)
                .zip(b[k0 * b_cols..k1 * b_cols].chunks_exact(b_cols))
            {
                dst[..width].copy_from_slice(&src[full..]);
            }
            let panel = Panel {
                data: &tail,
                stride: PANEL,
                col: full,
                width,
            };
            panel.multiply(a, a_cols, k0..k1, out, b_cols);
        }
    }
}

/// One column panel of the right operand: row `k` of the panel is
/// `data[k * stride..][..PANEL]`, counted from the first inner index the
/// panel holds. It feeds output columns `col..col + width`.
struct Panel<'a> {
    data: &'a [f32],
    stride: usize,
    col: usize,
    width: usize,
}

impl Panel<'_> {
    /// Accumulates `a[.., inner] * panel` into the panel's columns of every
    /// output row, [`BLOCK_ROWS`] rows at a time. When `inner` does not
    /// start at 0, each sum resumes from the partial sum already in `out`.
    #[inline(always)]
    fn multiply(
        &self,
        a: &[f32],
        a_cols: usize,
        inner: std::ops::Range<usize>,
        out: &mut [f32],
        out_cols: usize,
    ) {
        let rows = out.len() / out_cols;
        let mut i = 0;
        while i + BLOCK_ROWS <= rows {
            self.block::<BLOCK_ROWS>(a, a_cols, i, inner.clone(), out, out_cols);
            i += BLOCK_ROWS;
        }
        match rows - i {
            1 => self.block::<1>(a, a_cols, i, inner, out, out_cols),
            2 => self.block::<2>(a, a_cols, i, inner, out, out_cols),
            3 => self.block::<3>(a, a_cols, i, inner, out, out_cols),
            _ => {}
        }
    }

    /// The register block: output rows `i..i + R` against this panel.
    #[inline(always)]
    fn block<const R: usize>(
        &self,
        a: &[f32],
        a_cols: usize,
        i: usize,
        inner: std::ops::Range<usize>,
        out: &mut [f32],
        out_cols: usize,
    ) {
        let depth = inner.len();
        let mut acc = [[0.0_f32; PANEL]; R];
        if inner.start > 0 {
            for (r, acc_row) in acc.iter_mut().enumerate() {
                acc_row[..self.width]
                    .copy_from_slice(&out[(i + r) * out_cols + self.col..][..self.width]);
            }
        }
        let a_rows: [&[f32]; R] =
            std::array::from_fn(|r| &a[(i + r) * a_cols + inner.start..][..depth]);
        for k in 0..depth {
            let b_row: &[f32; PANEL] = self.data[k * self.stride..][..PANEL]
                .try_into()
                .expect("a panel row is PANEL wide");
            for (acc_row, a_row) in acc.iter_mut().zip(a_rows) {
                let av = a_row[k];
                for (o, &bv) in acc_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
        for (r, acc_row) in acc.iter().enumerate() {
            out[(i + r) * out_cols + self.col..][..self.width]
                .copy_from_slice(&acc_row[..self.width]);
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

    /// The textbook triple loop: each sum starts at `+0.0` and adds every
    /// product, rounded on its own, in ascending inner index.
    fn naive_product(a: &Matrix, b: &Matrix) -> Vec<u32> {
        let mut out = Vec::with_capacity(a.rows() * b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut sum = 0.0_f32;
                for k in 0..a.cols() {
                    let product = a.get(i, k) * b.get(k, j);
                    sum += product;
                }
                out.push(sum.to_bits());
            }
        }
        out
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #[test]
        fn transpose_is_involution(m in small_matrix(4, 3)) {
            prop_assert_eq!(m.transpose().transpose(), m);
        }

        #[test]
        fn matmul_identity_left_and_right(m in small_matrix(3, 3)) {
            let i = super::tests::identity(3);
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
        fn matmul_into_is_bit_identical_to_the_naive_triple_loop(
            rows in 0usize..=40,
            inner in 0usize..=40,
            cols in 1usize..=40,
            seed in 0u64..u64::MAX,
            stale in 0usize..3,
        ) {
            let a = random_matrix(rows, inner, seed);
            let b = random_matrix(inner, cols, !seed);
            // A reused buffer of any earlier shape and contents.
            let mut out = Matrix::filled(stale * 7, stale * 3, f32::NAN);
            a.matmul_into(&b, &mut out).unwrap();
            prop_assert_eq!(out.shape(), (rows, cols));
            prop_assert_eq!(bits(&out), naive_product(&a, &b));
        }
    }

    /// Explicit shapes around the kernel's edges: row counts on either side
    /// of a multiple of its 4-row block, column counts on either side of
    /// one to four 8-wide panels, and inner dimensions on either side of
    /// the tail panel's 32-deep stack buffer.
    #[test]
    fn matmul_into_is_bit_identical_on_the_kernel_edges() {
        let mut seed = 0;
        for rows in [0usize, 1, 3, 4, 5, 7, 8, 9, 32, 33] {
            for inner in [0usize, 1, 5, 11, 25, 31, 32, 33, 40] {
                for cols in (1usize..=9).chain([15, 16, 17, 24, 25, 26, 30, 31, 32, 33]) {
                    seed += 2;
                    let a = random_matrix(rows, inner, seed);
                    let b = random_matrix(inner, cols, seed + 1);
                    // A reused buffer holding stale values at every index.
                    let mut out = Matrix::filled(33, 33, f32::NAN);
                    a.matmul_into(&b, &mut out).unwrap();
                    assert_eq!(bits(&out), naive_product(&a, &b), "{rows}x{inner}x{cols}");
                }
            }
        }
    }
}
