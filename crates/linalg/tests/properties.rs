//! Property-based tests for the dense linear-algebra kernel: residuals,
//! factorization invariants and error behavior on random matrices.

use ev_linalg::{vecops, Cholesky, Lu, Matrix};
use proptest::prelude::*;

/// Strategy: a well-conditioned square matrix built as D + small noise,
/// with a strongly dominant diagonal so LU never hits the singularity
/// guard.
fn dominant_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-1.0f64..1.0, n * n).prop_map(move |data| {
        Matrix::from_fn(n, n, |r, c| {
            let v = data[r * n + c];
            if r == c {
                (n as f64) + 2.0 + v
            } else {
                v
            }
        })
    })
}

/// Strategy: a random right-hand side.
fn rhs(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-10.0f64..10.0, n)
}

proptest! {
    #[test]
    fn lu_solve_residual_is_small(
        a in dominant_matrix(6),
        b in rhs(6),
    ) {
        let x = Lu::factor(&a)
            .expect("diagonally dominant matrices factor")
            .solve(&b)
            .expect("dims");
        let r = a.matvec(&x).expect("dims");
        let err = vecops::norm_inf(&vecops::sub(&r, &b));
        prop_assert!(err < 1e-8, "residual {err}");
    }

    #[test]
    fn cholesky_solves_gram_systems(
        m in dominant_matrix(5),
        b in rhs(5),
    ) {
        // AᵀA + I is SPD for any A.
        let mut spd = m.transpose().matmul(&m).expect("dims");
        spd.add_diag(1.0);
        let ch = Cholesky::factor(&spd).expect("spd");
        let x = ch.solve(&b).expect("solves");
        let r = spd.matvec(&x).expect("dims");
        prop_assert!(vecops::norm_inf(&vecops::sub(&r, &b)) < 1e-7);
        // L·Lᵀ reproduces the matrix.
        let l = ch.l();
        let llt = l.matmul(&l.transpose()).expect("dims");
        prop_assert!(llt.sub(&spd).expect("dims").norm_max() < 1e-8);
    }

    #[test]
    fn matvec_agrees_with_matmul(
        a in dominant_matrix(4),
        x in rhs(4),
    ) {
        // A·x via matvec equals A·X (X a column matrix) via matmul.
        let col_refs: Vec<&[f64]> = x.chunks(1).collect();
        let xm = Matrix::from_rows(&col_refs).expect("column");
        let via_mm = a.matmul(&xm).expect("dims");
        let via_mv = a.matvec(&x).expect("dims");
        for (r, v) in via_mv.iter().enumerate() {
            prop_assert!((via_mm.get(r, 0) - v).abs() < 1e-12);
        }
    }

    #[test]
    fn vecops_axpy_matches_definition(
        x in rhs(7),
        y in rhs(7),
        alpha in -3.0f64..3.0,
    ) {
        let mut out = y.clone();
        vecops::axpy(alpha, &x, &mut out);
        for k in 0..7 {
            prop_assert!((out[k] - (y[k] + alpha * x[k])).abs() < 1e-12);
        }
    }

    #[test]
    fn cauchy_schwarz(x in rhs(6), y in rhs(6)) {
        let lhs = vecops::dot(&x, &y).abs();
        let rhs_value = vecops::norm2(&x) * vecops::norm2(&y);
        prop_assert!(lhs <= rhs_value + 1e-9);
    }
}

#[test]
fn singular_matrix_is_detected_not_garbage() {
    // Deterministic companion to the random suite: a rank-1 matrix.
    let a = Matrix::from_fn(4, 4, |r, c| ((r + 1) * (c + 1)) as f64);
    assert!(Lu::factor(&a).is_err());
}
