//! LU factorization with partial pivoting.

use crate::{LinalgError, Matrix};

/// LU factorization of a square matrix with partial (row) pivoting.
///
/// Factors `P·A = L·U` and solves `A·x = b` by forward/back substitution.
/// The interior-point QP solver uses it for reduced KKT systems with an
/// equality block, which are symmetric but indefinite, and as the fallback
/// when [`crate::Cholesky`] rejects a pivot of an SPD one. Its singularity
/// test compares every pivot with the largest entry of the whole matrix,
/// so a well-posed system whose rows differ in scale by more than ~1e13
/// is reported [`LinalgError::Singular`].
///
/// The elimination and both substitutions walk whole row slices rather
/// than indexing element by element, but keep the textbook per-element
/// operation order: every entry sees the same multiplies and adds, in the
/// same sequence, as the scalar `get`/`set` formulation, so results are
/// bit-identical to it. [`Lu::refactor`] and [`Lu::solve_into`] reuse the
/// factor storage and allocate nothing, for callers that refactor a
/// same-shaped matrix every iteration.
///
/// # Examples
///
/// ```
/// use ev_linalg::{Lu, Matrix};
///
/// # fn main() -> Result<(), ev_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[0.0, 2.0], &[1.0, 1.0]])?; // needs pivoting
/// let lu = Lu::factor(&a)?;
/// let x = lu.solve(&[2.0, 2.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    /// Combined L (strict lower, unit diagonal implied) and U (upper).
    lu: Matrix,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
    /// Sign of the permutation, for the determinant.
    perm_sign: f64,
}

impl Lu {
    /// Pivot threshold below which the matrix is declared singular.
    const SINGULAR_TOL: f64 = 1e-13;

    /// Factors the matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for rectangular input and
    /// [`LinalgError::Singular`] if a pivot falls below a tolerance scaled
    /// by the matrix magnitude.
    pub fn factor(a: &Matrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        let mut lu = Self {
            lu: a.clone(),
            perm: (0..n).collect(),
            perm_sign: 1.0,
        };
        lu.eliminate(a.norm_max().max(1.0))?;
        Ok(lu)
    }

    /// Refactors a matrix of the same dimension in place, reusing the
    /// existing factor and permutation storage (no allocation).
    ///
    /// # Errors
    ///
    /// As [`Lu::factor`], plus [`LinalgError::DimensionMismatch`] if `a`
    /// does not have the shape of the matrix factored before. On error
    /// the factor contents are unspecified; refactor again before
    /// solving.
    pub fn refactor(&mut self, a: &Matrix) -> Result<(), LinalgError> {
        if a.shape() != self.lu.shape() {
            return Err(LinalgError::DimensionMismatch {
                expected: self.lu.shape(),
                actual: a.shape(),
            });
        }
        self.lu.as_mut_slice().copy_from_slice(a.as_slice());
        for (i, p) in self.perm.iter_mut().enumerate() {
            *p = i;
        }
        self.perm_sign = 1.0;
        self.eliminate(a.norm_max().max(1.0))
    }

    /// Gaussian elimination with partial pivoting on `self.lu`, in place.
    /// `perm` must hold the identity and `perm_sign` 1 on entry.
    fn eliminate(&mut self, scale: f64) -> Result<(), LinalgError> {
        let n = self.lu.rows();
        let lu = self.lu.as_mut_slice();
        for k in 0..n {
            // Find pivot row: the first row holding the largest magnitude
            // in column k, scanning down from the diagonal.
            let mut pivot_row = k;
            let mut pivot_val = lu[k * n + k].abs();
            for (r, v) in lu[k * n + k..].iter().step_by(n).enumerate().skip(1) {
                let v = v.abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = k + r;
                }
            }
            if pivot_val <= Self::SINGULAR_TOL * scale {
                return Err(LinalgError::Singular);
            }
            if pivot_row != k {
                let (upper, lower) = lu.split_at_mut(pivot_row * n);
                upper[k * n..(k + 1) * n].swap_with_slice(&mut lower[..n]);
                self.perm.swap(k, pivot_row);
                self.perm_sign = -self.perm_sign;
            }
            let (upper, lower) = lu.split_at_mut((k + 1) * n);
            let (pivot, u_row) = upper[k * n + k..]
                .split_first()
                .expect("row k has a diagonal entry");
            for row in lower.chunks_exact_mut(n) {
                let (l, rest) = row[k..]
                    .split_first_mut()
                    .expect("row r has a column k entry");
                let factor = *l / pivot;
                *l = factor;
                for (x, u) in rest.iter_mut().zip(u_row) {
                    *x += -factor * u;
                }
            }
        }
        Ok(())
    }

    /// Dimension of the factored matrix.
    #[inline]
    #[must_use]
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut x = vec![0.0; self.dim()];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A·x = b` into the caller's buffer `x` (no allocation).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b` or `x` does not
    /// have length `dim()`.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) -> Result<(), LinalgError> {
        let n = self.dim();
        for len in [b.len(), x.len()] {
            if len != n {
                return Err(LinalgError::DimensionMismatch {
                    expected: (n, 1),
                    actual: (len, 1),
                });
            }
        }
        // Apply permutation, then forward substitution with unit-lower L.
        for (xi, &p) in x.iter_mut().zip(&self.perm) {
            *xi = b[p];
        }
        let rows = self.lu.as_slice().chunks_exact(n);
        for (r, row) in rows.clone().enumerate().skip(1) {
            let (solved, rest) = x.split_at_mut(r);
            let mut sum = rest[0];
            for (l, xc) in row[..r].iter().zip(solved.iter()) {
                sum -= l * xc;
            }
            rest[0] = sum;
        }
        // Back substitution with U.
        for (r, row) in rows.enumerate().rev() {
            let (head, solved) = x.split_at_mut(r + 1);
            let mut sum = head[r];
            for (u, xc) in row[r + 1..].iter().zip(solved.iter()) {
                sum -= u * xc;
            }
            head[r] = sum / row[r];
        }
        Ok(())
    }

    /// Determinant of the factored matrix.
    #[must_use]
    pub fn det(&self) -> f64 {
        let mut d = self.perm_sign;
        for i in 0..self.dim() {
            d *= self.lu.get(i, i);
        }
        d
    }

    /// Computes the inverse of the factored matrix column by column.
    ///
    /// # Errors
    ///
    /// Propagates solve errors (cannot occur once factoring succeeded, but
    /// the signature is kept fallible for uniformity).
    pub fn inverse(&self) -> Result<Matrix, LinalgError> {
        let n = self.dim();
        let mut inv = Matrix::zeros(n, n);
        let mut e = vec![0.0; n];
        let mut col = vec![0.0; n];
        for c in 0..n {
            e[c] = 1.0;
            self.solve_into(&e, &mut col)?;
            for (r, v) in col.iter().enumerate() {
                inv.set(r, c, *v);
            }
            e[c] = 0.0;
        }
        Ok(inv)
    }
}

/// Convenience one-shot solve of `A·x = b` via LU.
///
/// # Errors
///
/// Returns any error from [`Lu::factor`] or [`Lu::solve`].
///
/// # Examples
///
/// ```
/// use ev_linalg::{Matrix, solve};
///
/// # fn main() -> Result<(), ev_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]])?;
/// assert_eq!(solve(&a, &[2.0, 8.0])?, vec![1.0, 2.0]);
/// # Ok(())
/// # }
/// ```
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    Lu::factor(a)?.solve(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_known_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, 1.0], &[1.0, 3.0, 2.0], &[1.0, 0.0, 0.0]]).unwrap();
        let x = solve(&a, &[4.0, 5.0, 6.0]).unwrap();
        // x = [6, 15, -23]: check residual.
        let r = a.matvec(&x).unwrap();
        for (ri, bi) in r.iter().zip(&[4.0, 5.0, 6.0]) {
            assert!((ri - bi).abs() < 1e-10);
        }
    }

    #[test]
    fn requires_pivoting() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = solve(&a, &[3.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 3.0]);
    }

    #[test]
    fn detects_singular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert_eq!(Lu::factor(&a).unwrap_err(), LinalgError::Singular);
    }

    #[test]
    fn rejects_rectangular() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Lu::factor(&a).unwrap_err(),
            LinalgError::NotSquare { rows: 2, cols: 3 }
        ));
    }

    #[test]
    fn determinant_with_pivot_sign() {
        let a = Matrix::from_rows(&[&[0.0, 2.0], &[3.0, 0.0]]).unwrap();
        let lu = Lu::factor(&a).unwrap();
        assert!((lu.det() - (-6.0)).abs() < 1e-12);
        let i = Lu::factor(&Matrix::identity(4)).unwrap();
        assert!((i.det() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = Matrix::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]).unwrap();
        let inv = Lu::factor(&a).unwrap().inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        let err = prod.sub(&Matrix::identity(2)).unwrap().norm_max();
        assert!(err < 1e-12);
    }

    #[test]
    fn solve_rejects_wrong_rhs_len() {
        let lu = Lu::factor(&Matrix::identity(3)).unwrap();
        assert!(lu.solve(&[1.0, 2.0]).is_err());
    }

    /// The scalar `get`/`set` LU the slice kernels replaced, kept as the
    /// bitwise oracle: returns (combined L\U, permutation, sign).
    fn oracle_factor(a: &Matrix) -> Result<(Matrix, Vec<usize>, f64), LinalgError> {
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut perm_sign = 1.0;
        let scale = a.norm_max().max(1.0);
        for k in 0..n {
            let mut pivot_row = k;
            let mut pivot_val = lu.get(k, k).abs();
            for r in (k + 1)..n {
                let v = lu.get(r, k).abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val <= Lu::SINGULAR_TOL * scale {
                return Err(LinalgError::Singular);
            }
            if pivot_row != k {
                for c in 0..n {
                    let tmp = lu.get(k, c);
                    lu.set(k, c, lu.get(pivot_row, c));
                    lu.set(pivot_row, c, tmp);
                }
                perm.swap(k, pivot_row);
                perm_sign = -perm_sign;
            }
            let pivot = lu.get(k, k);
            for r in (k + 1)..n {
                let factor = lu.get(r, k) / pivot;
                lu.set(r, k, factor);
                for c in (k + 1)..n {
                    lu.add_at(r, c, -factor * lu.get(k, c));
                }
            }
        }
        Ok((lu, perm, perm_sign))
    }

    /// The scalar substitution the slice kernel replaced.
    fn oracle_solve(lu: &Matrix, perm: &[usize], b: &[f64]) -> Vec<f64> {
        let n = lu.rows();
        let mut x: Vec<f64> = perm.iter().map(|&p| b[p]).collect();
        for r in 1..n {
            let mut sum = x[r];
            for c in 0..r {
                sum -= lu.get(r, c) * x[c];
            }
            x[r] = sum;
        }
        for r in (0..n).rev() {
            let mut sum = x[r];
            for c in (r + 1)..n {
                sum -= lu.get(r, c) * x[c];
            }
            x[r] = sum / lu.get(r, r);
        }
        x
    }

    /// Deterministic uniform draws in [-1, 1) (splitmix64).
    fn uniform(seed: &mut u64) -> f64 {
        *seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }

    fn random_matrix(n: usize, seed: &mut u64) -> Matrix {
        Matrix::from_fn(n, n, |_, _| uniform(seed))
    }

    /// Tiny diagonal under large anti-diagonal entries: every elimination
    /// step has to swap rows.
    fn pivot_heavy(n: usize, seed: &mut u64) -> Matrix {
        Matrix::from_fn(n, n, |r, c| {
            let v = uniform(seed);
            if r + c == n - 1 {
                100.0 + v
            } else if r == c {
                1e-9 * v
            } else {
                v
            }
        })
    }

    /// Last row is the sum of the others plus a small perturbation.
    fn near_singular(n: usize, seed: &mut u64, eps: f64) -> Matrix {
        let mut a = random_matrix(n, seed);
        for c in 0..n {
            let s: f64 = (0..n - 1).map(|r| a.get(r, c)).sum();
            a.set(n - 1, c, s + eps * uniform(seed));
        }
        a
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Factor, refactor and both solves agree with the scalar oracle bit
    /// for bit (or fail the same way).
    fn assert_matches_oracle(a: &Matrix, seed: &mut u64) {
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|_| uniform(seed)).collect();
        let oracle = oracle_factor(a);
        let fresh = Lu::factor(a);
        // Refactor over a different same-shaped factorization, so stale
        // permutation or factor state would show.
        let mut reused = Lu::factor(&Matrix::identity(n)).unwrap();
        let refactored = reused.refactor(a);
        match oracle {
            Err(e) => {
                assert_eq!(fresh.unwrap_err(), e);
                assert_eq!(refactored.unwrap_err(), e);
            }
            Ok((lu, perm, sign)) => {
                let expected = oracle_solve(&lu, &perm, &b);
                refactored.unwrap();
                for got in [fresh.unwrap(), reused] {
                    assert_eq!(bits(got.lu.as_slice()), bits(lu.as_slice()));
                    assert_eq!(got.perm, perm);
                    assert_eq!(got.perm_sign, sign);
                    let mut x = vec![f64::NAN; n];
                    got.solve_into(&b, &mut x).unwrap();
                    assert_eq!(bits(&x), bits(&expected));
                    assert_eq!(bits(&got.solve(&b).unwrap()), bits(&expected));
                }
            }
        }
    }

    #[test]
    fn slice_kernels_match_scalar_oracle_bitwise() {
        let mut seed = 7u64;
        for n in [32, 136] {
            for _ in 0..3 {
                let random = random_matrix(n, &mut seed);
                assert_matches_oracle(&random, &mut seed);
                let pivots = pivot_heavy(n, &mut seed);
                assert_matches_oracle(&pivots, &mut seed);
                // Barely factorable, and exactly dependent (singular).
                let nearly = near_singular(n, &mut seed, 1e-9);
                assert!(Lu::factor(&nearly).is_ok());
                assert_matches_oracle(&nearly, &mut seed);
                let dependent = near_singular(n, &mut seed, 0.0);
                assert_matches_oracle(&dependent, &mut seed);
            }
        }
    }

    #[test]
    fn pivot_heavy_matrices_swap_every_step() {
        let mut seed = 3u64;
        let a = pivot_heavy(32, &mut seed);
        let lu = Lu::factor(&a).unwrap();
        assert!(lu.perm.iter().enumerate().filter(|(i, p)| i != *p).count() >= 30);
    }

    #[test]
    fn refactor_rejects_shape_mismatch() {
        let mut lu = Lu::factor(&Matrix::identity(3)).unwrap();
        assert!(matches!(
            lu.refactor(&Matrix::identity(4)).unwrap_err(),
            LinalgError::DimensionMismatch {
                expected: (3, 3),
                actual: (4, 4),
            }
        ));
        assert!(lu.refactor(&Matrix::zeros(3, 2)).is_err());
        // A matching shape still refactors after the rejections.
        let a = Matrix::from_rows(&[&[0.0, 1.0, 0.0], &[2.0, 0.0, 0.0], &[0.0, 0.0, 4.0]]).unwrap();
        lu.refactor(&a).unwrap();
        assert_eq!(lu.solve(&[1.0, 2.0, 4.0]).unwrap(), vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn solve_into_rejects_wrong_output_len() {
        let lu = Lu::factor(&Matrix::identity(3)).unwrap();
        let mut x = [0.0; 2];
        assert!(lu.solve_into(&[1.0, 2.0, 3.0], &mut x).is_err());
    }

    #[test]
    fn well_scaled_tiny_pivots_still_solve() {
        // A tiny but well-conditioned matrix: scaling in the singularity
        // test keeps it factorable.
        let a = Matrix::from_rows(&[&[1e-8, 0.0], &[0.0, 1e-8]]).unwrap();
        let x = solve(&a, &[1e-8, 2e-8]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-6);
        assert!((x[1] - 2.0).abs() < 1e-6);
    }
}
