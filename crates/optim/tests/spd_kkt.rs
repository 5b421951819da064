//! The reduced KKT system of an inequality-only QP, `H + CᵀWC + δI` with
//! `W = Λ/S`, is symmetric positive definite however widely the barrier
//! weights spread. Pivoted LU judges singularity against the largest
//! entry of the whole matrix, so near an active set, where one row's
//! `λ/s` is huge and a lightly curved direction's pivot is small, it
//! misreads such a system as singular; the SQP then abandons a perfectly
//! consistent subproblem for elastic mode. Cholesky factors these systems
//! and is the default for them.

use ev_linalg::{vecops, Cholesky, LinalgError, Lu, Matrix, SparseMatrix};
use ev_optim::{
    verify_kkt, NlpProblem, QpKktBackend, QpSolver, QpSubproblemStatus, QpView, SqpSolver,
    SqpStatus, SqpTraceObserver,
};

/// Box rows `±e_j` for `n` variables.
fn box_rows(n: usize) -> Matrix {
    Matrix::from_fn(2 * n, n, |r, c| {
        if r / 2 != c {
            0.0
        } else if r % 2 == 0 {
            1.0
        } else {
            -1.0
        }
    })
}

#[test]
fn lu_rejects_an_spd_kkt_that_cholesky_factors() {
    // Four scaled MPC inputs, one of them (the recirculation damper)
    // nearly free of curvature, under their box rows. The upper bound of
    // input 0 is active (λ = 1, s = 1e-8); every other row is inactive
    // (λ = 1e-8, s = 1).
    let h = Matrix::from_diag(&[2.0, 1.0, 1e-6, 0.5]);
    let c = box_rows(4);
    let mut w = [1e-8; 8];
    w[0] = 1e8;
    let mut k = h.clone();
    for (i, wi) in w.iter().enumerate() {
        for r in 0..4 {
            for col in 0..4 {
                k.add_at(r, col, wi * c.get(i, r) * c.get(i, col));
            }
        }
    }
    k.add_diag(1e-10);

    assert_eq!(Lu::factor(&k).unwrap_err(), LinalgError::Singular);
    let ch = Cholesky::factor(&k).expect("the reduced KKT matrix is SPD");
    let b = [1.0, -2.0, 0.5, 3.0];
    let x = ch.solve(&b).unwrap();
    let r = vecops::sub(&k.matvec(&x).unwrap(), &b);
    assert!(vecops::norm_inf(&r) <= 1e-12 * k.norm_max() * vecops::norm_inf(&x));
}

#[test]
fn widely_scaled_qp_solves_by_cholesky() {
    // `min ½(z₀² + 1e-6·z₁²) − 10·z₀ + 3e-7·z₁` over the box `[−1, 1]²`:
    // the upper bound of `z₀` is active with multiplier ≈ 9 and `z₁` is
    // barely curved, so the last iterations' reduced KKT matrices are of
    // the kind above (pivoted LU rejects them).
    let h = Matrix::from_diag(&[1.0, 1e-6]);
    let a = SparseMatrix::from_dense(&box_rows(2));
    let p = QpView::new(&h, &[-10.0, 3e-7])
        .unwrap()
        .with_inequalities(&a, &[1.0; 4])
        .unwrap();
    let sol = QpSolver::default().solve_view(&p).unwrap();
    assert_eq!(sol.kkt_backend, QpKktBackend::DenseCholesky);
    verify_kkt(&p, &sol.z, &sol.y_eq, &sol.lambda_in, 1e-6).unwrap();
    assert!((sol.z[0] - 1.0).abs() < 1e-6);
    assert!((sol.lambda_in[0] - 9.0).abs() < 1e-5);
}

/// `max 1e3·z₀` and `min ½·1e-3·(z₁ − 0.3)²` over the box `[−1, 1]²`:
/// every linearization is consistent, so no subproblem needs elastic
/// mode. Once the BFGS model has learned the 1e-3 curvature, it sits in
/// the reduced KKT matrix beside the active bound's barrier weight, which
/// pivoted LU misreads as singular.
struct PushedAgainstTheBox;

impl NlpProblem for PushedAgainstTheBox {
    fn num_vars(&self) -> usize {
        2
    }
    fn objective(&self, z: &[f64]) -> f64 {
        -1e3 * z[0] + 0.5e-3 * (z[1] - 0.3).powi(2)
    }
    fn num_ineq(&self) -> usize {
        4
    }
    fn ineq_constraints(&self, z: &[f64], out: &mut [f64]) {
        out[0] = z[0] - 1.0;
        out[1] = -z[0] - 1.0;
        out[2] = z[1] - 1.0;
        out[3] = -z[1] - 1.0;
    }
}

#[test]
fn sqp_solves_consistent_subproblems_without_elastic_mode() {
    let mut trace = SqpTraceObserver::default();
    let r = SqpSolver::default()
        .solve_observed(&PushedAgainstTheBox, &[0.0, 0.0], &mut trace)
        .unwrap();
    assert_eq!(r.status, SqpStatus::Converged);
    assert!((r.z[0] - 1.0).abs() < 1e-9 && (r.z[1] - 0.3).abs() < 1e-3);
    assert!(trace
        .records
        .iter()
        .all(|rec| rec.qp_status == QpSubproblemStatus::Nominal));
}
