//! A pluggable factorization backend for square symmetric systems.
//!
//! The interior-point QP solver refactors the same-shaped KKT matrix every
//! iteration and only ever needs `factor` + `solve`. [`Factorization`]
//! captures that contract so LU (indefinite-safe oracle), dense Cholesky
//! (SPD fast path) and banded LDLᵀ (horizon-structured fast path) are
//! interchangeable behind one interface, each reusing its workspace across
//! refactors.

use crate::{BandedCholesky, BandedMatrix, Cholesky, LinalgError, Lu, Matrix};

/// A reusable factor-then-solve backend over a square matrix.
///
/// Implementations keep their factor storage between calls so repeated
/// [`Factorization::refactor`] / [`Factorization::solve_in_place`] cycles
/// on same-shaped matrices stay cheap. After a `refactor` error the
/// backend is empty again and solving returns an error until the next
/// successful refactor.
///
/// # Examples
///
/// ```
/// use ev_linalg::{CholeskyFactor, Factorization, Matrix};
///
/// let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
/// let mut backend = CholeskyFactor::new();
/// backend.refactor(&a).unwrap();
/// let mut x = [1.0, 2.0];
/// backend.solve_in_place(&mut x).unwrap();
/// assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
/// ```
pub trait Factorization {
    /// Factors `a`, replacing any previous factorization.
    ///
    /// # Errors
    ///
    /// Backend-specific: singularity, indefiniteness, or shape errors.
    fn refactor(&mut self, a: &Matrix) -> Result<(), LinalgError>;

    /// Solves `A·x = b` in place using the latest factorization.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] before the first successful
    /// [`Factorization::refactor`], or a dimension error on a
    /// wrong-length right-hand side.
    fn solve_in_place(&mut self, b: &mut [f64]) -> Result<(), LinalgError>;

    /// Dimension of the factored matrix (zero when empty).
    fn dim(&self) -> usize;
}

/// [`Lu`]-backed [`Factorization`]: partial pivoting, handles any
/// nonsingular symmetric system. The slowest backend but the correctness
/// oracle for the others. Same-shaped refactors and solves reuse the
/// factor and a solve buffer, so steady-state use allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct LuFactor {
    inner: Option<Lu>,
    factored: bool,
    scratch: Vec<f64>,
}

impl LuFactor {
    /// Creates an empty backend.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Factorization for LuFactor {
    fn refactor(&mut self, a: &Matrix) -> Result<(), LinalgError> {
        self.factored = false;
        match self.inner.as_mut() {
            Some(lu) if a.is_square() && lu.dim() == a.rows() => lu.refactor(a)?,
            _ => {
                self.inner = None;
                self.inner = Some(Lu::factor(a)?);
            }
        }
        self.factored = true;
        Ok(())
    }

    fn solve_in_place(&mut self, b: &mut [f64]) -> Result<(), LinalgError> {
        let lu = self
            .inner
            .as_ref()
            .filter(|_| self.factored)
            .ok_or(LinalgError::Empty)?;
        self.scratch.resize(lu.dim(), 0.0);
        lu.solve_into(b, &mut self.scratch)?;
        b.copy_from_slice(&self.scratch);
        Ok(())
    }

    fn dim(&self) -> usize {
        match &self.inner {
            Some(lu) if self.factored => lu.dim(),
            _ => 0,
        }
    }
}

/// Dense [`Cholesky`]-backed [`Factorization`] for symmetric
/// positive-definite systems; roughly twice as fast as LU and reuses its
/// factor storage across refactors.
#[derive(Debug, Clone, Default)]
pub struct CholeskyFactor {
    inner: Option<Cholesky>,
}

impl CholeskyFactor {
    /// Creates an empty backend.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Factorization for CholeskyFactor {
    fn refactor(&mut self, a: &Matrix) -> Result<(), LinalgError> {
        match self.inner.as_mut() {
            Some(c) if c.dim() == a.rows() && a.is_square() => {
                if let Err(e) = c.refactor(a) {
                    self.inner = None;
                    return Err(e);
                }
                Ok(())
            }
            _ => {
                self.inner = None;
                self.inner = Some(Cholesky::factor(a)?);
                Ok(())
            }
        }
    }

    fn solve_in_place(&mut self, b: &mut [f64]) -> Result<(), LinalgError> {
        self.inner
            .as_ref()
            .ok_or(LinalgError::Empty)?
            .solve_in_place(b)
    }

    fn dim(&self) -> usize {
        self.inner.as_ref().map_or(0, Cholesky::dim)
    }
}

/// [`BandedCholesky`]-backed [`Factorization`] for symmetric banded
/// (possibly quasidefinite) systems.
///
/// Through this dense-matrix interface the bandwidth is detected by
/// scanning for the farthest off-diagonal nonzero, which costs `O(n²)` —
/// fine for tests and oracles. Hot paths should assemble a
/// [`BandedMatrix`] directly and call [`BandedCholesky::factor`].
#[derive(Debug, Clone, Default)]
pub struct BandedFactor {
    band: BandedMatrix,
    factor: BandedCholesky,
    factored: bool,
}

impl BandedFactor {
    /// Creates an empty backend.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Factorization for BandedFactor {
    fn refactor(&mut self, a: &Matrix) -> Result<(), LinalgError> {
        self.factored = false;
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mut w = 0usize;
        for i in 0..n {
            for j in 0..i {
                if a.get(i, j) != 0.0 || a.get(j, i) != 0.0 {
                    w = w.max(i - j);
                    break; // Row-leading nonzero bounds this row's reach.
                }
            }
        }
        self.band.reset(n, w);
        for j in 0..n {
            for i in j..(j + w + 1).min(n) {
                self.band.set(i, j, a.get(i, j));
            }
        }
        self.factor.factor(&self.band)?;
        self.factored = true;
        Ok(())
    }

    fn solve_in_place(&mut self, b: &mut [f64]) -> Result<(), LinalgError> {
        if !self.factored {
            return Err(LinalgError::Empty);
        }
        self.factor.solve_in_place(b)
    }

    fn dim(&self) -> usize {
        if self.factored {
            self.factor.dim()
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd_banded(n: usize) -> Matrix {
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            a.set(i, i, 4.0 + (i % 2) as f64);
            if i + 1 < n {
                a.set(i + 1, i, -1.0);
                a.set(i, i + 1, -1.0);
            }
        }
        a
    }

    fn backends() -> Vec<Box<dyn Factorization>> {
        vec![
            Box::new(LuFactor::new()),
            Box::new(CholeskyFactor::new()),
            Box::new(BandedFactor::new()),
        ]
    }

    #[test]
    fn all_backends_agree() {
        let a = spd_banded(9);
        let b: Vec<f64> = (0..9).map(|i| (i as f64 - 4.0) * 0.3).collect();
        let reference = Lu::factor(&a).unwrap().solve(&b).unwrap();
        for mut backend in backends() {
            backend.refactor(&a).unwrap();
            assert_eq!(backend.dim(), 9);
            let mut x = b.clone();
            backend.solve_in_place(&mut x).unwrap();
            for (xi, ri) in x.iter().zip(&reference) {
                assert!((xi - ri).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn solve_before_refactor_errors() {
        for mut backend in backends() {
            let mut b = [1.0];
            assert_eq!(backend.dim(), 0);
            assert_eq!(
                backend.solve_in_place(&mut b).unwrap_err(),
                LinalgError::Empty
            );
        }
    }

    #[test]
    fn failed_refactor_empties_backend() {
        let a = spd_banded(4);
        let singular = Matrix::zeros(4, 4);
        for mut backend in backends() {
            backend.refactor(&a).unwrap();
            assert!(backend.refactor(&singular).is_err());
            let mut b = [0.0; 4];
            assert_eq!(
                backend.solve_in_place(&mut b).unwrap_err(),
                LinalgError::Empty
            );
        }
    }

    #[test]
    fn lu_backend_refactor_matches_fresh_factor_bitwise() {
        let mut backend = LuFactor::new();
        backend.refactor(&spd_banded(7)).unwrap();
        let mut a = spd_banded(7);
        a.set(0, 6, 2.5);
        a.set(3, 1, -1.5);
        backend.refactor(&a).unwrap();
        let b: Vec<f64> = (0..7).map(|i| 0.7 * i as f64 - 1.0).collect();
        let expected = Lu::factor(&a).unwrap().solve(&b).unwrap();
        let mut x = b.clone();
        backend.solve_in_place(&mut x).unwrap();
        assert_eq!(
            x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            expected.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        // A shape change falls back to a fresh factorization.
        backend.refactor(&spd_banded(3)).unwrap();
        assert_eq!(backend.dim(), 3);
    }

    #[test]
    fn refactor_same_shape_reuses_state() {
        let mut backend = CholeskyFactor::new();
        backend.refactor(&spd_banded(6)).unwrap();
        let mut a2 = spd_banded(6);
        a2.set(0, 0, 9.0);
        backend.refactor(&a2).unwrap();
        let mut x = vec![1.0; 6];
        backend.solve_in_place(&mut x).unwrap();
        let r = a2.matvec(&x).unwrap();
        for ri in &r {
            assert!((ri - 1.0).abs() < 1e-12);
        }
    }
}
