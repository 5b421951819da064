//! LU factorization with partial pivoting.

use crate::{LinalgError, Matrix};

/// LU factorization of a square matrix with partial (row) pivoting.
///
/// Factors `P·A = L·U` and solves `A·x = b` by forward/back substitution,
/// the textbook elimination entry by entry. The interior-point QP solver
/// uses it for reduced KKT systems with an equality block, which are
/// symmetric but indefinite, and as the fallback when [`crate::Cholesky`]
/// rejects a pivot of an SPD one. Its singularity test compares every
/// pivot with the largest entry of the whole matrix, so a well-posed
/// system whose rows differ in scale by more than ~1e13 is reported
/// [`LinalgError::Singular`].
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
}

impl Lu {
    /// Pivot threshold below which the matrix is declared singular.
    const SINGULAR_TOL: f64 = 1e-13;

    /// Factors the matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for rectangular input,
    /// [`LinalgError::Empty`] for a 0 × 0 one and [`LinalgError::Singular`]
    /// if a pivot falls below a tolerance scaled by the matrix magnitude.
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
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let scale = a.norm_max().max(1.0);
        for k in 0..n {
            // Pivot row: the first row holding the largest magnitude in
            // column k, scanning down from the diagonal.
            let mut pivot_row = k;
            let mut pivot_val = lu.get(k, k).abs();
            for r in (k + 1)..n {
                let v = lu.get(r, k).abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val <= Self::SINGULAR_TOL * scale {
                return Err(LinalgError::Singular);
            }
            if pivot_row != k {
                for c in 0..n {
                    let tmp = lu.get(k, c);
                    lu.set(k, c, lu.get(pivot_row, c));
                    lu.set(pivot_row, c, tmp);
                }
                perm.swap(k, pivot_row);
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
        Ok(Self { lu, perm })
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b` does not have
    /// the factored matrix's dimension.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.perm.len();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: (n, 1),
                actual: (b.len(), 1),
            });
        }
        // Apply the permutation, then forward substitution with
        // unit-lower L and back substitution with U.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        for r in 1..n {
            let mut sum = x[r];
            for c in 0..r {
                sum -= self.lu.get(r, c) * x[c];
            }
            x[r] = sum;
        }
        for r in (0..n).rev() {
            let mut sum = x[r];
            for c in (r + 1)..n {
                sum -= self.lu.get(r, c) * x[c];
            }
            x[r] = sum / self.lu.get(r, r);
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vecops;

    #[test]
    fn solves_known_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, 1.0], &[1.0, 3.0, 2.0], &[1.0, 0.0, 0.0]]).unwrap();
        let x = Lu::factor(&a).unwrap().solve(&[4.0, 5.0, 6.0]).unwrap();
        // x = [6, 15, -23]: check residual.
        let r = a.matvec(&x).unwrap();
        for (ri, bi) in r.iter().zip(&[4.0, 5.0, 6.0]) {
            assert!((ri - bi).abs() < 1e-10);
        }
    }

    #[test]
    fn requires_pivoting() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = Lu::factor(&a).unwrap().solve(&[3.0, 7.0]).unwrap();
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
    fn solve_rejects_wrong_rhs_len() {
        let lu = Lu::factor(&Matrix::identity(3)).unwrap();
        assert!(lu.solve(&[1.0, 2.0]).is_err());
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

    /// Solves `A·x = b` for a random `b` and checks the residual against
    /// the backward-error scale of partial pivoting,
    /// `‖A·x − b‖∞ ≤ 64·n·ε·‖A‖max·‖x‖∞`.
    fn assert_solves(a: &Matrix, seed: &mut u64) {
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|_| uniform(seed)).collect();
        let x = Lu::factor(a).unwrap().solve(&b).unwrap();
        let r = vecops::sub(&a.matvec(&x).unwrap(), &b);
        let bound = 64.0 * n as f64 * f64::EPSILON * a.norm_max() * vecops::norm_inf(&x);
        assert!(
            vecops::norm_inf(&r) <= bound,
            "{n}×{n}: residual {:e} above {bound:e}",
            vecops::norm_inf(&r)
        );
    }

    #[test]
    fn every_matrix_family_solves_or_reports_singular() {
        let mut seed = 7u64;
        for n in [32, 136] {
            for _ in 0..3 {
                assert_solves(&random_matrix(n, &mut seed), &mut seed);
                assert_solves(&pivot_heavy(n, &mut seed), &mut seed);
                // Barely factorable, and exactly dependent (singular).
                assert_solves(&near_singular(n, &mut seed, 1e-9), &mut seed);
                assert_eq!(
                    Lu::factor(&near_singular(n, &mut seed, 0.0)).unwrap_err(),
                    LinalgError::Singular
                );
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
    fn well_scaled_tiny_pivots_still_solve() {
        // A tiny but well-conditioned matrix: scaling in the singularity
        // test keeps it factorable.
        let a = Matrix::from_rows(&[&[1e-8, 0.0], &[0.0, 1e-8]]).unwrap();
        let x = Lu::factor(&a).unwrap().solve(&[1e-8, 2e-8]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-6);
        assert!((x[1] - 2.0).abs() < 1e-6);
    }
}
