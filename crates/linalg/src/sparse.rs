//! Compressed sparse row (CSR) matrices for structured constraint
//! Jacobians.
//!
//! The MPC inequality Jacobian has a fixed sparsity pattern (a handful of
//! entries per constraint row) that a dense [`Matrix`](crate::Matrix)
//! wastes both memory and flops on. [`SparseMatrix`] stores only the
//! nonzeros in CSR form and exposes an allocation-reusing row-by-row
//! builder so a hot loop can rewrite the same pattern every iteration
//! without touching the allocator.

use crate::{LinalgError, Matrix};

/// A sparse matrix in compressed sparse row (CSR) format.
///
/// Rows are appended through [`SparseMatrix::reset`] /
/// [`SparseMatrix::push`] / [`SparseMatrix::finish_row`]; rebuilding an
/// existing instance reuses its buffers, so steady-state refills are
/// allocation-free.
///
/// # Examples
///
/// ```
/// use ev_linalg::SparseMatrix;
///
/// // [ 2 0 1 ]
/// // [ 0 3 0 ]
/// let mut a = SparseMatrix::new();
/// a.reset(3);
/// a.push(0, 2.0);
/// a.push(2, 1.0);
/// a.finish_row();
/// a.push(1, 3.0);
/// a.finish_row();
///
/// let mut y = [0.0; 2];
/// a.matvec(&[1.0, 1.0, 1.0], &mut y).unwrap();
/// assert_eq!(y, [3.0, 3.0]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseMatrix {
    cols: usize,
    /// `row_ptr[r]..row_ptr[r+1]` bounds row `r` in `col_idx`/`values`.
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl SparseMatrix {
    /// Creates an empty `0 × 0` matrix ready for [`SparseMatrix::reset`].
    #[must_use]
    pub fn new() -> Self {
        Self {
            cols: 0,
            row_ptr: vec![0],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Clears the matrix to zero rows of width `cols`, keeping buffer
    /// capacity so the rebuild does not allocate.
    pub fn reset(&mut self, cols: usize) {
        self.cols = cols;
        self.row_ptr.clear();
        self.row_ptr.push(0);
        self.col_idx.clear();
        self.values.clear();
    }

    /// Appends an entry to the row currently being built.
    ///
    /// Columns must be pushed in strictly ascending order within a row
    /// (checked in debug builds); zeros may be pushed and are kept.
    #[inline]
    pub fn push(&mut self, col: usize, value: f64) {
        debug_assert!(col < self.cols, "column {col} out of bounds {}", self.cols);
        debug_assert!(
            self.col_idx.len() == *self.row_ptr.last().expect("row_ptr non-empty")
                || *self.col_idx.last().expect("non-empty") < col,
            "columns must be strictly ascending within a row"
        );
        self.col_idx.push(col);
        self.values.push(value);
    }

    /// Closes the row currently being built (possibly empty).
    #[inline]
    pub fn finish_row(&mut self) {
        self.row_ptr.push(self.col_idx.len());
    }

    /// Number of (finished) rows.
    #[inline]
    #[must_use]
    pub fn rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of columns.
    #[inline]
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    #[inline]
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Column indices and values of row `r`, as parallel slices.
    #[inline]
    #[must_use]
    pub fn row(&self, r: usize) -> (&[usize], &[f64]) {
        let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Entry `(r, c)` by linear scan of row `r` (zero if not stored).
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let (cols, vals) = self.row(r);
        match cols.binary_search(&c) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// Largest absolute stored entry (zero for an empty matrix).
    #[must_use]
    pub fn norm_max(&self) -> f64 {
        self.values.iter().fold(0.0, |m, v| m.max(v.abs()))
    }

    /// Computes `out = A·x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != cols()`
    /// or `out.len() != rows()`.
    pub fn matvec(&self, x: &[f64], out: &mut [f64]) -> Result<(), LinalgError> {
        if x.len() != self.cols || out.len() != self.rows() {
            return Err(LinalgError::DimensionMismatch {
                expected: (self.rows(), self.cols),
                actual: (out.len(), x.len()),
            });
        }
        for r in 0..self.rows() {
            let (cols, vals) = self.row(r);
            let mut sum = 0.0;
            for (c, v) in cols.iter().zip(vals) {
                sum += v * x[*c];
            }
            out[r] = sum;
        }
        Ok(())
    }

    /// Computes `out = Aᵀ·x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != rows()`
    /// or `out.len() != cols()`.
    pub fn matvec_transposed(&self, x: &[f64], out: &mut [f64]) -> Result<(), LinalgError> {
        if x.len() != self.rows() || out.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                expected: (self.cols, self.rows()),
                actual: (out.len(), x.len()),
            });
        }
        out.fill(0.0);
        for r in 0..self.rows() {
            let (cols, vals) = self.row(r);
            let xr = x[r];
            if xr == 0.0 {
                continue;
            }
            for (c, v) in cols.iter().zip(vals) {
                out[*c] += v * xr;
            }
        }
        Ok(())
    }

    /// Densifies into a row-major [`Matrix`].
    #[must_use]
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows(), self.cols.max(1));
        for r in 0..self.rows() {
            let (cols, vals) = self.row(r);
            for (c, v) in cols.iter().zip(vals) {
                m.set(r, *c, *v);
            }
        }
        m
    }

    /// Builds a CSR copy of `a`, keeping every entry that is not ±0.0.
    #[must_use]
    pub fn from_dense(a: &Matrix) -> Self {
        let mut s = Self::new();
        s.reset(a.cols());
        for r in 0..a.rows() {
            for (c, &v) in a.row(r).iter().enumerate() {
                if v != 0.0 {
                    s.push(c, v);
                }
            }
            s.finish_row();
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> SparseMatrix {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 0 3 4 ]
        let mut a = SparseMatrix::new();
        a.reset(3);
        a.push(0, 1.0);
        a.push(2, 2.0);
        a.finish_row();
        a.finish_row();
        a.push(1, 3.0);
        a.push(2, 4.0);
        a.finish_row();
        a
    }

    #[test]
    fn shape_and_access() {
        let a = example();
        assert_eq!((a.rows(), a.cols(), a.nnz()), (3, 3, 4));
        assert_eq!(a.get(0, 2), 2.0);
        assert_eq!(a.get(1, 1), 0.0);
        assert_eq!(a.get(2, 1), 3.0);
        assert_eq!(a.norm_max(), 4.0);
        let (cols, vals) = a.row(2);
        assert_eq!(cols, &[1, 2]);
        assert_eq!(vals, &[3.0, 4.0]);
    }

    #[test]
    fn matvec_and_transpose_match_dense() {
        let a = example();
        let d = a.to_dense();
        let x = [1.0, -2.0, 0.5];
        let mut y = [0.0; 3];
        a.matvec(&x, &mut y).unwrap();
        assert_eq!(y.to_vec(), d.matvec(&x).unwrap());

        let mut yt = [0.0; 3];
        a.matvec_transposed(&x, &mut yt).unwrap();
        assert_eq!(yt.to_vec(), d.matvec_transposed(&x).unwrap());
    }

    #[test]
    fn from_dense_round_trips() {
        let mut d = example().to_dense();
        assert_eq!(SparseMatrix::from_dense(&d), example());
        // Only ±0.0 is dropped: a negative zero goes, a tiny entry stays.
        d.set(1, 0, -0.0);
        d.set(1, 2, 1e-300);
        let s = SparseMatrix::from_dense(&d);
        assert_eq!(s.row(1), (&[2][..], &[1e-300][..]));
        assert_eq!(s.nnz(), 5);
    }

    #[test]
    fn reset_reuses_buffers() {
        let mut a = example();
        let cap = (a.col_idx.capacity(), a.values.capacity());
        a.reset(3);
        a.push(1, 9.0);
        a.finish_row();
        assert_eq!((a.rows(), a.nnz()), (1, 1));
        assert_eq!(cap, (a.col_idx.capacity(), a.values.capacity()));
    }

    #[test]
    fn dimension_errors() {
        let a = example();
        let mut out = [0.0; 3];
        assert!(a.matvec(&[1.0, 2.0], &mut out).is_err());
        assert!(a.matvec_transposed(&[1.0, 2.0], &mut out).is_err());
    }
}
