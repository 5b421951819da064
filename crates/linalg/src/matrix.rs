//! Row-major dense matrix.

use crate::LinalgError;

/// A dense, row-major matrix of `f64` values.
///
/// `Matrix` is the workhorse container of the evclimate optimizer. It keeps
/// its storage in a flat `Vec<f64>` indexed as `data[r * cols + c]` and
/// offers the operations a dense interior-point QP / SQP solver needs:
/// products, transpose, slicing of rows, norms and elementwise arithmetic.
///
/// # Examples
///
/// ```
/// use ev_linalg::Matrix;
///
/// # fn main() -> Result<(), ev_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b)?;
/// assert_eq!(c, a);
/// assert_eq!(a.matvec(&[1.0, 1.0])?, vec![3.0, 7.0]);
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
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates an `n × n` diagonal matrix from the given diagonal entries.
    #[must_use]
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Self::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m.set(i, i, d);
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::RaggedRows`] if the rows have different
    /// lengths and [`LinalgError::Empty`] if no rows or zero-length rows
    /// are supplied.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, LinalgError> {
        let nrows = rows.len();
        if nrows == 0 {
            return Err(LinalgError::Empty);
        }
        let ncols = rows[0].len();
        if ncols == 0 {
            return Err(LinalgError::Empty);
        }
        let mut data = Vec::with_capacity(nrows * ncols);
        for row in rows {
            if row.len() != ncols {
                return Err(LinalgError::RaggedRows);
            }
            data.extend_from_slice(row);
        }
        Ok(Self {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Creates a matrix by evaluating `f(r, c)` at every position.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, f(r, c));
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    #[inline]
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns `true` if the matrix is square.
    #[inline]
    #[must_use]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Element access.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[inline]
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Adds `v` to the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn add_at(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c] += v;
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    #[must_use]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index out of bounds");
        let cols = self.cols;
        &mut self.data[r * cols..(r + 1) * cols]
    }

    /// Borrows the underlying row-major storage.
    #[inline]
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the underlying row-major storage, for kernels that
    /// walk whole rows with `chunks_exact_mut(cols)` instead of paying a
    /// bounds check per element.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Returns the transpose.
    #[must_use]
    pub fn transpose(&self) -> Self {
        let mut t = Self::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.set(c, r, self.get(r, c));
            }
        }
        t
    }

    /// Matrix–matrix product `self · other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if
    /// `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Self) -> Result<Self, LinalgError> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                expected: (self.cols, other.cols),
                actual: (other.rows, other.cols),
            });
        }
        let mut out = Self::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(r, k);
                if a == 0.0 {
                    continue;
                }
                for c in 0..other.cols {
                    out.add_at(r, c, a * other.get(k, c));
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product `self · x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                expected: (self.cols, 1),
                actual: (x.len(), 1),
            });
        }
        let mut out = vec![0.0; self.rows];
        for (r, o) in out.iter_mut().enumerate() {
            let row = self.row(r);
            *o = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        Ok(out)
    }

    /// Transposed matrix–vector product `selfᵀ · x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != rows`.
    pub fn matvec_transposed(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                expected: (self.rows, 1),
                actual: (x.len(), 1),
            });
        }
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            let xr = x[r];
            if xr == 0.0 {
                continue;
            }
            let row = self.row(r);
            for (o, &a) in out.iter_mut().zip(row) {
                *o += a * xr;
            }
        }
        Ok(out)
    }

    /// Elementwise difference `self − other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if shapes differ.
    pub fn sub(&self, other: &Self) -> Result<Self, LinalgError> {
        if self.shape() != other.shape() {
            return Err(LinalgError::DimensionMismatch {
                expected: self.shape(),
                actual: other.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Ok(Self {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Adds `s · I` to a square matrix in place (Levenberg regularization).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn add_diag(&mut self, s: f64) {
        assert!(self.is_square(), "add_diag requires a square matrix");
        for i in 0..self.rows {
            self.add_at(i, i, s);
        }
    }

    /// Maximum absolute entry (∞-norm of the flattened matrix).
    #[must_use]
    pub fn norm_max(&self) -> f64 {
        self.data.iter().fold(0.0, |m, v| m.max(v.abs()))
    }

    /// Returns `true` if the matrix is symmetric within `tol`.
    #[must_use]
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for r in 0..self.rows {
            for c in (r + 1)..self.cols {
                if (self.get(r, c) - self.get(c, r)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

impl core::fmt::Display for Matrix {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        for r in 0..self.rows {
            write!(f, "[")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:10.4}", self.get(r, c))?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn construction_and_access() {
        let m = sample();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.get(1, 0), 4.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert_eq!(err, LinalgError::RaggedRows);
        assert_eq!(Matrix::from_rows(&[]).unwrap_err(), LinalgError::Empty);
        let empty_row: &[f64] = &[];
        assert_eq!(
            Matrix::from_rows(&[empty_row]).unwrap_err(),
            LinalgError::Empty
        );
    }

    #[test]
    fn identity_and_diag() {
        let i = Matrix::identity(3);
        assert_eq!(i.get(0, 0), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
        let d = Matrix::from_diag(&[2.0, 5.0]);
        assert_eq!(d.get(1, 1), 5.0);
        assert_eq!(d.get(0, 1), 0.0);
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().shape(), (3, 2));
        assert_eq!(m.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn matmul_known_product() {
        let a = sample();
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[4.0, 5.0], &[10.0, 11.0]]).unwrap());
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let a = sample();
        assert!(a.matmul(&sample()).is_err());
    }

    #[test]
    fn matvec_and_transposed() {
        let a = sample();
        assert_eq!(a.matvec(&[1.0, 0.0, -1.0]).unwrap(), vec![-2.0, -2.0]);
        assert_eq!(
            a.matvec_transposed(&[1.0, 1.0]).unwrap(),
            vec![5.0, 7.0, 9.0]
        );
        assert!(a.matvec(&[1.0]).is_err());
        assert!(a.matvec_transposed(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn sub_elementwise() {
        let a = sample();
        assert_eq!(a.sub(&a).unwrap().norm_max(), 0.0);
        let d = a.sub(&Matrix::zeros(2, 3)).unwrap();
        assert_eq!(d, a);
        assert!(a.sub(&a.transpose()).is_err());
    }

    #[test]
    fn add_diag_regularizes() {
        let mut m = Matrix::zeros(2, 2);
        m.add_diag(0.5);
        assert_eq!(m, Matrix::from_diag(&[0.5, 0.5]));
    }

    #[test]
    #[should_panic(expected = "square")]
    fn add_diag_panics_on_rect() {
        let mut m = Matrix::zeros(2, 3);
        m.add_diag(1.0);
    }

    #[test]
    fn norms() {
        let m = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, -4.0]]).unwrap();
        assert_eq!(m.norm_max(), 4.0);
    }

    #[test]
    fn symmetry_check() {
        let s = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        assert!(s.is_symmetric(0.0));
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[0.0, 3.0]]).unwrap();
        assert!(!a.is_symmetric(1e-9));
        assert!(!sample().is_symmetric(1.0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let _ = sample().get(2, 0);
    }

    #[test]
    fn display_is_nonempty() {
        let s = format!("{}", Matrix::identity(2));
        assert!(s.contains("1.0000"));
    }
}
