//! Property tests pinning the banded LDLᵀ backend to the dense LU oracle
//! on randomized block-tridiagonal systems, the structure produced by
//! horizon-coupled MPC KKT matrices.

use ev_linalg::{vecops, BandedCholesky, BandedMatrix, Lu};
use proptest::prelude::*;

/// Relative agreement required between the banded solve and the LU oracle.
const REL_TOL: f64 = 1e-10;

/// Strategy: a diagonally dominant symmetric block-tridiagonal matrix with
/// `nb` blocks of size `bs` (bandwidth `2·bs − 1`), plus a sign vector
/// that optionally flips block diagonals to make the matrix
/// quasidefinite (KKT-style) instead of positive definite.
fn block_tridiagonal(
    nb: usize,
    bs: usize,
    quasidefinite: bool,
) -> impl Strategy<Value = BandedMatrix> {
    let n = nb * bs;
    let w = 2 * bs - 1;
    let entries = proptest::collection::vec(-1.0f64..1.0, n * (w + 1));
    let signs = proptest::collection::vec(0.0f64..1.0, nb);
    (entries, signs).prop_map(move |(data, signs)| {
        let mut a = BandedMatrix::zeros(n, w);
        for j in 0..n {
            for i in (j + 1)..(j + w + 1).min(n) {
                // Couple only within a block or to the adjacent block.
                if i / bs <= j / bs + 1 {
                    a.set(i, j, data[(i - j) * n + j]);
                }
            }
        }
        // Strong diagonal so the unpivoted factorization is stable; a
        // negated block diagonal keeps |pivots| large but indefinite.
        for j in 0..n {
            let dom = 2.0 * (w as f64) + 2.0 + data[j].abs();
            let sign = if quasidefinite && signs[j / bs] > 0.5 {
                -1.0
            } else {
                1.0
            };
            a.set(j, j, sign * dom);
        }
        a
    })
}

/// `x` and `reference` must agree to `REL_TOL` relative to the solution
/// magnitude.
fn assert_close(x: &[f64], reference: &[f64]) -> Result<(), TestCaseError> {
    let scale = vecops::norm_inf(reference).max(1.0);
    for (xi, ri) in x.iter().zip(reference) {
        prop_assert!(
            (xi - ri).abs() <= REL_TOL * scale,
            "banded {xi} vs dense-LU {ri} (scale {scale})"
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn banded_matches_dense_lu_on_spd_block_tridiagonal(
        a in block_tridiagonal(5, 3, false),
        b in proptest::collection::vec(-10.0f64..10.0, 15),
    ) {
        let mut f = BandedCholesky::new();
        f.factor(&a).expect("dominant SPD factors");
        let x = f.solve(&b).expect("dims");
        let reference = Lu::factor(&a.to_dense()).expect("nonsingular")
            .solve(&b).expect("dims");
        assert_close(&x, &reference)?;
    }

    #[test]
    fn banded_matches_dense_lu_on_quasidefinite_kkt(
        a in block_tridiagonal(4, 4, true),
        b in proptest::collection::vec(-10.0f64..10.0, 16),
    ) {
        let mut f = BandedCholesky::new();
        f.factor(&a).expect("dominant quasidefinite factors unpivoted");
        let x = f.solve(&b).expect("dims");
        let reference = Lu::factor(&a.to_dense()).expect("nonsingular")
            .solve(&b).expect("dims");
        assert_close(&x, &reference)?;
    }
}
