//! Cholesky factorization for symmetric positive-definite systems.

use crate::{LinalgError, Matrix};

/// Cholesky factorization `A = L·Lᵀ` of a symmetric positive-definite
/// matrix.
///
/// Factors the SPD reduced KKT systems of the interior-point QP (no
/// equality block) about twice as cheaply as LU, and *certifies*
/// positive definiteness: [`Cholesky::factor`] failing with
/// [`LinalgError::NotPositiveDefinite`] tells the caller to fall back to
/// a pivoted factorization.
///
/// The factor is stored as `U = Lᵀ` (upper triangle, row-major), so that
/// both the right-looking elimination and the triangular solves walk
/// whole row slices. Every entry still receives the textbook column-by-
/// column (left-looking) sequence of subtractions, in the same order, so
/// results are bit-identical to the scalar `get`/`set` formulation; only
/// the order in which *different* entries are updated changes, which
/// breaks the one serial dependency chain per entry into independent
/// row updates.
///
/// # Examples
///
/// ```
/// use ev_linalg::{Cholesky, Matrix};
///
/// # fn main() -> Result<(), ev_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
/// let ch = Cholesky::factor(&a)?;
/// let x = ch.solve(&[8.0, 7.0])?;
/// assert!((x[0] - 1.25).abs() < 1e-12);
/// assert!((x[1] - 1.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Upper-triangular factor `U = Lᵀ`, stored dense with a zero strict
    /// lower triangle.
    u: Matrix,
}

impl Cholesky {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; symmetry of the upper
    /// triangle is the caller's responsibility (checked loosely in debug
    /// builds). Callers that fill only the lower triangle use
    /// [`Cholesky::factor_lower`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for rectangular input and
    /// [`LinalgError::NotPositiveDefinite`] if a diagonal pivot is not
    /// strictly positive.
    pub fn factor(a: &Matrix) -> Result<Self, LinalgError> {
        debug_assert_symmetric(a);
        Self::factor_lower(a)
    }

    /// Factors the symmetric positive-definite matrix whose lower
    /// triangle (diagonal included) is that of `a`. The strict upper
    /// triangle is never read and may hold anything, so this makes no
    /// symmetry check.
    ///
    /// # Errors
    ///
    /// As [`Cholesky::factor`].
    pub fn factor_lower(a: &Matrix) -> Result<Self, LinalgError> {
        let mut u = Matrix::zeros(a.rows().max(1), a.cols().max(1));
        factor_into(a, &mut u)?;
        Ok(Self { u })
    }

    /// Refactors a matrix of the same dimension in place, reusing the
    /// existing factor storage (no allocation).
    ///
    /// # Errors
    ///
    /// As [`Cholesky::factor`], plus [`LinalgError::DimensionMismatch`]
    /// if `a` does not match the current [`Cholesky::dim`]. On error the
    /// factor contents are unspecified; discard this instance.
    pub fn refactor(&mut self, a: &Matrix) -> Result<(), LinalgError> {
        debug_assert_symmetric(a);
        self.refactor_lower(a)
    }

    /// [`Cholesky::refactor`] reading only the lower triangle of `a`, as
    /// [`Cholesky::factor_lower`] does.
    ///
    /// # Errors
    ///
    /// As [`Cholesky::refactor`].
    pub fn refactor_lower(&mut self, a: &Matrix) -> Result<(), LinalgError> {
        if a.shape() != self.u.shape() {
            return Err(LinalgError::DimensionMismatch {
                expected: self.u.shape(),
                actual: a.shape(),
            });
        }
        factor_into(a, &mut self.u)
    }

    /// Dimension of the factored matrix.
    #[inline]
    #[must_use]
    pub fn dim(&self) -> usize {
        self.u.rows()
    }

    /// The lower-triangular factor `L` (a transposed copy of the stored
    /// `Lᵀ`).
    #[must_use]
    pub fn l(&self) -> Matrix {
        self.u.transpose()
    }

    /// Solves `A·x = b` via the two triangular solves.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x)?;
        Ok(x)
    }

    /// Solves `A·x = b` in place (no allocation).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve_in_place(&self, b: &mut [f64]) -> Result<(), LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: (n, 1),
                actual: (b.len(), 1),
            });
        }
        let rows = self.u.as_slice().chunks_exact(n);
        // Forward, L·y = b, column by column: once y_k is final, row k of
        // Lᵀ subtracts its multiples from the entries below, so each y_r
        // still receives `− l_rk·y_k` for k = 0, 1, … in order.
        for (k, row) in rows.clone().enumerate() {
            let (head, below) = b.split_at_mut(k + 1);
            let yk = head[k] / row[k];
            head[k] = yk;
            for (x, u) in below.iter_mut().zip(&row[k + 1..]) {
                *x -= u * yk;
            }
        }
        // Backward, Lᵀ·x = y: a row-slice dot in ascending column order.
        for (r, row) in rows.enumerate().rev() {
            let (head, solved) = b.split_at_mut(r + 1);
            let mut sum = head[r];
            for (u, xc) in row[r + 1..].iter().zip(solved.iter()) {
                sum -= u * xc;
            }
            head[r] = sum / row[r];
        }
        Ok(())
    }

    /// Determinant of the factored matrix (product of squared pivots).
    #[must_use]
    pub fn det(&self) -> f64 {
        let mut d = 1.0;
        for i in 0..self.dim() {
            let l = self.u.get(i, i);
            d *= l * l;
        }
        d
    }
}

/// Loose symmetry check for the full-matrix entry points (debug builds
/// only); shape errors are left to the factorization to report.
fn debug_assert_symmetric(a: &Matrix) {
    debug_assert!(
        !a.is_square() || a.is_symmetric(1e-8 * a.norm_max().max(1.0)),
        "Cholesky::factor called with an asymmetric matrix"
    );
}

/// Rows finished together before their products update the trailing
/// rows (the trailing update below is written out for four).
const PANEL: usize = 4;

/// Writes the factor `U = Lᵀ` of `a`'s lower triangle into `u` (same
/// shape).
///
/// Right-looking in panels of [`PANEL`] rows. Inside a panel, row `k` of
/// `U` is finished from its fully updated entries, then every later row
/// `r` of the panel subtracts `u_kr · u_k[r..]` from its own slice. Once
/// the panel is finished, every trailing entry `(r, c)` subtracts the
/// panel's four products `l_rk·l_ck` in ascending `k`, with one load and
/// one store. Either way entry `(r, c)` receives `− l_rk·l_ck` for
/// k = 0, 1, …, r − 1 in order, exactly the sequence of the left-looking
/// scalar recurrence, and IEEE multiplication commutes.
fn factor_into(a: &Matrix, u: &mut Matrix) -> Result<(), LinalgError> {
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
    // Row r of U starts as column r of A's lower triangle. The strict
    // lower triangle of U is never written: it keeps the zeros `u` was
    // created with.
    let src = a.as_slice();
    for (r, row) in u.as_mut_slice().chunks_exact_mut(n).enumerate() {
        for (c, v) in row[r..].iter_mut().enumerate() {
            *v = src[(r + c) * n + r];
        }
    }
    // Every row update below walks equal-length slices by index, so the
    // loops compile without bounds checks.
    let data = u.as_mut_slice();
    for k0 in (0..n).step_by(PANEL) {
        let k1 = (k0 + PANEL).min(n);
        for k in k0..k1 {
            let (done, rest) = data.split_at_mut((k + 1) * n);
            let row_k = &mut done[k * n..];
            let d = row_k[k];
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::NotPositiveDefinite);
            }
            let dk = d.sqrt();
            row_k[k] = dk;
            for v in &mut row_k[k + 1..] {
                *v /= dk;
            }
            let row_k = &*row_k;
            for (r, row) in (k + 1..k1).zip(rest.chunks_exact_mut(n)) {
                let l_rk = row_k[r];
                let v = &mut row[r..];
                let l_c = &row_k[r..][..v.len()];
                for j in 0..v.len() {
                    v[j] -= l_rk * l_c[j];
                }
            }
        }
        if k1 == n {
            break;
        }
        // A panel that ends before n is full.
        let (panel, trailing) = data.split_at_mut(k1 * n);
        let (p0, rest) = panel[k0 * n..].split_at(n);
        let (p1, rest) = rest.split_at(n);
        let (p2, p3) = rest.split_at(n);
        for (r, row) in (k1..n).zip(trailing.chunks_exact_mut(n)) {
            let (l0, l1, l2, l3) = (p0[r], p1[r], p2[r], p3[r]);
            let v = &mut row[r..];
            let len = v.len();
            let (c0, c1, c2, c3) = (
                &p0[r..][..len],
                &p1[r..][..len],
                &p2[r..][..len],
                &p3[r..][..len],
            );
            for j in 0..len {
                v[j] = v[j] - l0 * c0[j] - l1 * c1[j] - l2 * c2[j] - l3 * c3[j];
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_known_spd() {
        let a = Matrix::from_rows(&[&[25.0, 15.0, -5.0], &[15.0, 18.0, 0.0], &[-5.0, 0.0, 11.0]])
            .unwrap();
        let ch = Cholesky::factor(&a).unwrap();
        let expected =
            Matrix::from_rows(&[&[5.0, 0.0, 0.0], &[3.0, 3.0, 0.0], &[-1.0, 1.0, 3.0]]).unwrap();
        assert!(ch.l().sub(&expected).unwrap().norm_max() < 1e-12);
        assert!((ch.det() - 2025.0).abs() < 1e-9);
    }

    #[test]
    fn solve_matches_lu() {
        let a = Matrix::from_rows(&[&[6.0, 2.0], &[2.0, 5.0]]).unwrap();
        let x = Cholesky::factor(&a).unwrap().solve(&[8.0, 7.0]).unwrap();
        let r = a.matvec(&x).unwrap();
        assert!((r[0] - 8.0).abs() < 1e-12);
        assert!((r[1] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap(); // eigenvalues 3, -1
        assert_eq!(
            Cholesky::factor(&a).unwrap_err(),
            LinalgError::NotPositiveDefinite
        );
    }

    #[test]
    fn rejects_semidefinite() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap(); // rank 1
        assert_eq!(
            Cholesky::factor(&a).unwrap_err(),
            LinalgError::NotPositiveDefinite
        );
    }

    #[test]
    fn rejects_rectangular_and_empty() {
        assert!(matches!(
            Cholesky::factor(&Matrix::zeros(2, 3)).unwrap_err(),
            LinalgError::NotSquare { .. }
        ));
    }

    #[test]
    fn solve_rejects_wrong_rhs() {
        let ch = Cholesky::factor(&Matrix::identity(3)).unwrap();
        assert!(ch.solve(&[1.0]).is_err());
    }

    /// The scalar left-looking `get`/`set` factorization the panel
    /// kernel replaced, kept as the bitwise oracle: the lower factor `L`,
    /// or the index of the first non-positive pivot.
    fn oracle_factor(a: &Matrix) -> Result<Matrix, usize> {
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            let mut d = a.get(j, j);
            for k in 0..j {
                let ljk = l.get(j, k);
                d -= ljk * ljk;
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(j);
            }
            let dj = d.sqrt();
            l.set(j, j, dj);
            for i in (j + 1)..n {
                let mut s = a.get(i, j);
                for k in 0..j {
                    s -= l.get(i, k) * l.get(j, k);
                }
                l.set(i, j, s / dj);
            }
        }
        Ok(l)
    }

    /// The scalar substitutions the slice kernels replaced.
    fn oracle_solve(l: &Matrix, b: &[f64]) -> Vec<f64> {
        let n = l.rows();
        let mut x = b.to_vec();
        for r in 0..n {
            let mut sum = x[r];
            for c in 0..r {
                sum -= l.get(r, c) * x[c];
            }
            x[r] = sum / l.get(r, r);
        }
        for r in (0..n).rev() {
            let mut sum = x[r];
            for c in (r + 1)..n {
                sum -= l.get(c, r) * x[c];
            }
            x[r] = sum / l.get(r, r);
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

    /// `B·Bᵀ + shift·I` for a random `n × rank` matrix `B`, filled
    /// symmetrically so the upper triangle mirrors the lower exactly.
    fn gram(n: usize, rank: usize, shift: f64, seed: &mut u64) -> Matrix {
        let b: Vec<f64> = (0..n * rank).map(|_| uniform(seed)).collect();
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut s = if i == j { shift } else { 0.0 };
                for k in 0..rank {
                    s += b[i * rank + k] * b[j * rank + k];
                }
                a.set(i, j, s);
                a.set(j, i, s);
            }
        }
        a
    }

    /// `S·A·S` with `S = diag(10^(4i/(n−1)))`: diagonal entries spread
    /// over eight orders of magnitude, like the λ/s weights of an
    /// interior-point iterate near its active set.
    fn spread(a: &Matrix) -> Matrix {
        let n = a.rows();
        let s: Vec<f64> = (0..n)
            .map(|i| 10f64.powf(4.0 * i as f64 / (n.max(2) - 1) as f64))
            .collect();
        Matrix::from_fn(n, n, |r, c| s[r] * a.get(r, c) * s[c])
    }

    /// `a` with its strict upper triangle overwritten by garbage, which
    /// the lower-triangle entry points must never read.
    fn lower_only(a: &Matrix) -> Matrix {
        Matrix::from_fn(a.rows(), a.cols(), |r, c| {
            if c > r {
                f64::NAN
            } else {
                a.get(r, c)
            }
        })
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Factor, refactor and solve agree with the scalar oracle bit for
    /// bit, or reject the same leading pivot; so do the lower-triangle
    /// entry points on a copy whose upper triangle is garbage.
    fn assert_matches_oracle(a: &Matrix, seed: &mut u64) {
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|_| uniform(seed)).collect();
        let lower = lower_only(a);
        let fresh = Cholesky::factor(a);
        let fresh_lower = Cholesky::factor_lower(&lower);
        // Refactor over a different same-shaped factor, so stale state
        // would show.
        let mut reused = Cholesky::factor(&gram(n, n, 1.0, seed)).unwrap();
        let refactored = reused.refactor(a);
        let mut reused_lower = Cholesky::factor(&gram(n, n, 1.0, seed)).unwrap();
        let refactored_lower = reused_lower.refactor_lower(&lower);
        match oracle_factor(a) {
            Err(pivot) => {
                for result in [
                    fresh.map(drop),
                    fresh_lower.map(drop),
                    refactored,
                    refactored_lower,
                ] {
                    assert_eq!(result.unwrap_err(), LinalgError::NotPositiveDefinite);
                }
                // Same pivot: the leading block up to it factors (bit for
                // bit), the one that includes it does not.
                if pivot > 0 {
                    let lead = Matrix::from_fn(pivot, pivot, |r, c| a.get(r, c));
                    let ok = Cholesky::factor(&lead).unwrap();
                    let expected = oracle_factor(&lead).unwrap();
                    assert_eq!(bits(ok.l().as_slice()), bits(expected.as_slice()));
                }
                let with = Matrix::from_fn(pivot + 1, pivot + 1, |r, c| a.get(r, c));
                assert_eq!(
                    Cholesky::factor(&with).unwrap_err(),
                    LinalgError::NotPositiveDefinite
                );
            }
            Ok(l) => {
                let expected = oracle_solve(&l, &b);
                refactored.unwrap();
                refactored_lower.unwrap();
                for got in [fresh.unwrap(), fresh_lower.unwrap(), reused, reused_lower] {
                    assert_eq!(bits(got.l().as_slice()), bits(l.as_slice()));
                    assert_eq!(bits(&got.solve(&b).unwrap()), bits(&expected));
                    let mut x = b.clone();
                    got.solve_in_place(&mut x).unwrap();
                    assert_eq!(bits(&x), bits(&expected));
                }
            }
        }
    }

    /// Sizes below, at and around multiples of the four-row panel.
    const SIZES: [usize; 9] = [1, 2, 3, 4, 5, 31, 32, 33, 128];

    #[test]
    fn slice_kernels_match_scalar_oracle_bitwise() {
        let mut seed = 11u64;
        for n in SIZES {
            for _ in 0..3 {
                let random = gram(n, n, 0.1, &mut seed);
                assert_matches_oracle(&random, &mut seed);
                let spread_out = spread(&gram(n, n, 1.0, &mut seed));
                if n > 1 {
                    assert!(spread_out.get(n - 1, n - 1) / spread_out.get(0, 0) > 1e7);
                }
                assert_matches_oracle(&spread_out, &mut seed);
                // Rank n − 1 plus a whisper of shift: barely definite.
                let nearly = gram(n, n - 1, 1e-9, &mut seed);
                assert!(Cholesky::factor(&nearly).is_ok());
                assert_matches_oracle(&nearly, &mut seed);
                // Only the lower triangle is read.
                let mut skewed = gram(n, n, 0.1, &mut seed);
                skewed.set(0, n - 1, skewed.get(0, n - 1) * (1.0 + 1e-12));
                assert_matches_oracle(&skewed, &mut seed);
            }
        }
    }

    #[test]
    fn rejects_the_same_pivot_as_the_scalar_oracle() {
        let mut seed = 5u64;
        for n in SIZES {
            // Exactly rank-deficient (from pivot ⌈n/2⌉ on) ...
            let deficient = gram(n, n / 2, 0.0, &mut seed);
            assert!(oracle_factor(&deficient).is_err());
            assert_matches_oracle(&deficient, &mut seed);
            // ... and indefinite at pivot p, in and across panels.
            for p in [0, n / 2, (n / 2 + 1).min(n - 1), n - 1] {
                let mut indefinite = gram(n, n, 0.5, &mut seed);
                indefinite.set(p, p, -1.0);
                assert_eq!(oracle_factor(&indefinite).unwrap_err(), p);
                assert_matches_oracle(&indefinite, &mut seed);
            }
        }
    }

    #[test]
    fn refactor_rejects_shape_mismatch() {
        let mut ch = Cholesky::factor(&Matrix::identity(3)).unwrap();
        assert!(matches!(
            ch.refactor(&Matrix::identity(4)).unwrap_err(),
            LinalgError::DimensionMismatch {
                expected: (3, 3),
                actual: (4, 4),
            }
        ));
        let a = Matrix::from_diag(&[4.0, 9.0, 16.0]);
        ch.refactor(&a).unwrap();
        assert_eq!(ch.solve(&[4.0, 9.0, 16.0]).unwrap(), vec![1.0, 1.0, 1.0]);
    }
}
