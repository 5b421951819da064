#![allow(clippy::needless_range_loop)] // parallel-array indexing in assertions

//! Property-based tests for the QP and SQP solvers: KKT conditions,
//! feasibility and invariance properties on random problems.

use ev_linalg::{vecops, Lu, Matrix, SparseMatrix};
use ev_optim::{NlpProblem, QpSolver, QpView, SqpSolver};
use proptest::prelude::*;

/// The box `−bound ≤ z ≤ bound` over `n` variables as `2n` CSR rows,
/// upper bound first.
fn box_rows(n: usize) -> SparseMatrix {
    SparseMatrix::from_dense(&Matrix::from_fn(2 * n, n, |r, c| {
        match (r / 2 == c, r % 2) {
            (true, 0) => 1.0,
            (true, _) => -1.0,
            _ => 0.0,
        }
    }))
}

/// Strategy: an SPD Hessian H = AᵀA + I of side `n`.
fn spd(n: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-1.0f64..1.0, n * n).prop_map(move |data| {
        let a = Matrix::from_fn(n, n, |r, c| data[r * n + c]);
        let mut h = a.transpose().matmul(&a).expect("dims");
        h.add_diag(1.0);
        h
    })
}

fn linear(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-5.0f64..5.0, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn unconstrained_qp_matches_linear_solve(
        h in spd(4),
        g in linear(4),
    ) {
        // min ½zᵀHz + gᵀz ⇒ Hz* = −g.
        let p = QpView::new(&h, &g).expect("valid");
        let sol = QpSolver::default().solve_view(&p).expect("solves");
        let direct = Lu::factor(&h)
            .expect("spd")
            .solve(&vecops::scale(-1.0, &g))
            .expect("dims");
        for k in 0..4 {
            prop_assert!((sol.z[k] - direct[k]).abs() < 1e-5,
                "ipm {} vs direct {}", sol.z[k], direct[k]);
        }
    }

    #[test]
    fn box_constrained_qp_satisfies_kkt(
        h in spd(3),
        g in linear(3),
        bound in 0.2f64..3.0,
    ) {
        // Box −bound ≤ z ≤ bound as 6 inequalities.
        let a = box_rows(3);
        let rhs = [bound; 6];
        let p = QpView::new(&h, &g)
            .expect("valid")
            .with_inequalities(&a, &rhs)
            .expect("valid");
        let sol = QpSolver::default().solve_view(&p).expect("solves");

        // Primal feasibility.
        let mut az = [0.0; 6];
        a.matvec(&sol.z, &mut az).expect("dims");
        for i in 0..6 {
            prop_assert!(az[i] <= rhs[i] + 1e-6, "constraint {i} violated");
            // Dual feasibility.
            prop_assert!(sol.lambda_in[i] >= -1e-8);
            // Complementary slackness.
            prop_assert!(sol.lambda_in[i] * (rhs[i] - az[i]) < 1e-4);
        }
        // Stationarity: Hz + g + Aᵀλ ≈ 0.
        let hz = h.matvec(&sol.z).expect("dims");
        let mut atl = [0.0; 3];
        a.matvec_transposed(&sol.lambda_in, &mut atl).expect("dims");
        for k in 0..3 {
            prop_assert!((hz[k] + g[k] + atl[k]).abs() < 1e-4,
                "stationarity residual at {k}");
        }
    }

    #[test]
    fn qp_objective_no_worse_than_feasible_probes(
        h in spd(3),
        g in linear(3),
        probe in proptest::collection::vec(-1.0f64..1.0, 3),
    ) {
        // Unit box; any feasible probe must not beat the solver.
        let a = box_rows(3);
        let p = QpView::new(&h, &g)
            .expect("valid")
            .with_inequalities(&a, &[1.0; 6])
            .expect("valid");
        let sol = QpSolver::default().solve_view(&p).expect("solves");
        prop_assert!(sol.objective <= p.objective(&probe) + 1e-6);
    }

    #[test]
    fn equality_constrained_qp_stays_on_plane(
        h in spd(4),
        g in linear(4),
        target in -2.0f64..2.0,
    ) {
        let a_eq = SparseMatrix::from_dense(
            &Matrix::from_rows(&[&[1.0, 1.0, 1.0, 1.0]]).expect("row"),
        );
        let b_eq = [target];
        let p = QpView::new(&h, &g)
            .expect("valid")
            .with_equalities(&a_eq, &b_eq)
            .expect("valid");
        let sol = QpSolver::default().solve_view(&p).expect("solves");
        let sum: f64 = sol.z.iter().sum();
        prop_assert!((sum - target).abs() < 1e-6, "sum {sum} target {target}");
    }

    #[test]
    fn sqp_quadratic_with_box_converges_to_projection(
        center in proptest::collection::vec(-3.0f64..3.0, 2),
    ) {
        // min ‖z − c‖² over the unit box = clamped c.
        struct Proj {
            c: Vec<f64>,
        }
        impl NlpProblem for Proj {
            fn num_vars(&self) -> usize {
                2
            }
            fn objective(&self, z: &[f64]) -> f64 {
                (z[0] - self.c[0]).powi(2) + (z[1] - self.c[1]).powi(2)
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
        let r = SqpSolver::default()
            .solve(&Proj { c: center.clone() }, &[0.0, 0.0])
            .expect("solves");
        for k in 0..2 {
            let expected = center[k].clamp(-1.0, 1.0);
            prop_assert!((r.z[k] - expected).abs() < 1e-3,
                "z[{k}] = {} expected {expected} ({:?})", r.z[k], r.status);
        }
    }

    #[test]
    fn sqp_result_is_feasible_even_from_infeasible_start(
        start in proptest::collection::vec(-20.0f64..20.0, 2),
    ) {
        struct Box2;
        impl NlpProblem for Box2 {
            fn num_vars(&self) -> usize {
                2
            }
            fn objective(&self, z: &[f64]) -> f64 {
                z[0] * z[0] + 0.5 * z[1] * z[1] + z[0] * 0.3
            }
            fn num_ineq(&self) -> usize {
                4
            }
            fn ineq_constraints(&self, z: &[f64], out: &mut [f64]) {
                out[0] = z[0] - 2.0;
                out[1] = -z[0] - 2.0;
                out[2] = z[1] - 2.0;
                out[3] = -z[1] - 2.0;
            }
        }
        let r = SqpSolver::default().solve(&Box2, &start).expect("solves");
        prop_assert!(r.constraint_violation < 1e-3,
            "violation {} from start {start:?} ({:?})", r.constraint_violation, r.status);
    }
}
