//! The nonlinear-program interface consumed by the SQP solver.

use ev_linalg::{Matrix, SparseMatrix};

use crate::{finite_diff, QpStructure};

/// A smooth nonlinear program
///
/// ```text
/// minimize    f(z)
/// subject to  c_eq(z) = 0
///             c_in(z) ≤ 0
/// ```
///
/// Implementors must provide the objective and constraint values. The
/// gradient defaults to central finite differences ([`crate::finite_diff`]),
/// which is accurate enough for the smooth, well-scaled MPC problems in
/// this workspace. A problem with exact Jacobians supplies them once, in
/// the CSR form the SQP uses
/// ([`ineq_jacobian_sparse_into`](NlpProblem::ineq_jacobian_sparse_into),
/// [`eq_jacobian_sparse_into`](NlpProblem::eq_jacobian_sparse_into)); the
/// dense [`ineq_jacobian`](NlpProblem::ineq_jacobian) and
/// [`eq_jacobian`](NlpProblem::eq_jacobian) then default to that form
/// densified, and to central differences for a problem without it.
///
/// # Examples
///
/// A one-dimensional problem: minimize `(z−2)²` subject to `z ≤ 1`.
///
/// ```
/// use ev_optim::NlpProblem;
///
/// struct Bounded;
/// impl NlpProblem for Bounded {
///     fn num_vars(&self) -> usize { 1 }
///     fn objective(&self, z: &[f64]) -> f64 { (z[0] - 2.0).powi(2) }
///     fn num_ineq(&self) -> usize { 1 }
///     fn ineq_constraints(&self, z: &[f64], out: &mut [f64]) {
///         out[0] = z[0] - 1.0;
///     }
/// }
/// ```
pub trait NlpProblem {
    /// Number of decision variables.
    fn num_vars(&self) -> usize;

    /// Objective value `f(z)`.
    fn objective(&self, z: &[f64]) -> f64;

    /// Whether this problem supplies exact (analytic) derivatives.
    ///
    /// Returns `false` for implementations relying on the central
    /// differences of the default [`gradient`](Self::gradient) and dense
    /// Jacobians — the documented fallback path. Implementations
    /// supplying an exact gradient and exact CSR Jacobians should
    /// override this to `true` so harnesses (benchmarks, derivative
    /// cross-checks) can tell the two apart.
    fn has_exact_derivatives(&self) -> bool {
        false
    }

    /// Gradient of the objective. Defaults to central differences.
    fn gradient(&self, z: &[f64], grad: &mut [f64]) {
        let g = finite_diff::gradient(&|p: &[f64]| self.objective(p), z);
        grad.copy_from_slice(&g);
    }

    /// Number of equality constraints. Defaults to zero.
    fn num_eq(&self) -> usize {
        0
    }

    /// Evaluates `c_eq(z)` into `out` (length [`NlpProblem::num_eq`]).
    ///
    /// The default implementation panics if `num_eq() > 0` without an
    /// override, and is a no-op otherwise.
    fn eq_constraints(&self, _z: &[f64], out: &mut [f64]) {
        assert!(
            out.is_empty(),
            "NlpProblem::eq_constraints must be overridden when num_eq() > 0"
        );
    }

    /// Jacobian of the equality constraints (`num_eq × num_vars`).
    /// Defaults to the CSR Jacobian of
    /// [`eq_jacobian_sparse_into`](Self::eq_jacobian_sparse_into)
    /// densified when that returns `true`, and to central differences
    /// otherwise. So `eq_jacobian_sparse_into` must not be built on this
    /// method: the two defaults would call each other forever. The SQP
    /// calls it only when `eq_jacobian_sparse_into` returns `false` (or
    /// there are no equality rows), and converts the result to the CSR
    /// form its QP subproblems take, dropping only ±0.0 entries.
    fn eq_jacobian(&self, z: &[f64]) -> Matrix {
        let mut csr = SparseMatrix::new();
        if self.eq_jacobian_sparse_into(z, &mut csr) {
            return csr.to_dense();
        }
        jacobian_matrix(
            &|p: &[f64], out: &mut [f64]| self.eq_constraints(p, out),
            z,
            self.num_eq(),
            self.num_vars(),
        )
    }

    /// Number of inequality constraints. Defaults to zero.
    fn num_ineq(&self) -> usize {
        0
    }

    /// Evaluates `c_in(z)` into `out` (length [`NlpProblem::num_ineq`]).
    ///
    /// The default implementation panics if `num_ineq() > 0` without an
    /// override, and is a no-op otherwise.
    fn ineq_constraints(&self, _z: &[f64], out: &mut [f64]) {
        assert!(
            out.is_empty(),
            "NlpProblem::ineq_constraints must be overridden when num_ineq() > 0"
        );
    }

    /// Jacobian of the inequality constraints (`num_ineq × num_vars`),
    /// the CSR Jacobian of
    /// [`ineq_jacobian_sparse_into`](Self::ineq_jacobian_sparse_into)
    /// densified or central differences, like
    /// [`eq_jacobian`](Self::eq_jacobian), and under the same rule:
    /// `ineq_jacobian_sparse_into` must not be built on this method.
    fn ineq_jacobian(&self, z: &[f64]) -> Matrix {
        let mut csr = SparseMatrix::new();
        if self.ineq_jacobian_sparse_into(z, &mut csr) {
            return csr.to_dense();
        }
        jacobian_matrix(
            &|p: &[f64], out: &mut [f64]| self.ineq_constraints(p, out),
            z,
            self.num_ineq(),
            self.num_vars(),
        )
    }

    /// Fills `out` with the inequality Jacobian in CSR form and returns
    /// `true`, or returns `false` (the default) when this problem has no
    /// CSR form. Implementations must reuse `out`'s storage
    /// ([`SparseMatrix::reset`]) so the SQP loop stays allocation-free
    /// after warm-up.
    fn ineq_jacobian_sparse_into(&self, _z: &[f64], _out: &mut SparseMatrix) -> bool {
        false
    }

    /// Fills `out` with the equality Jacobian in CSR form and returns
    /// `true`, or returns `false` (the default) when this problem has no
    /// CSR form.
    fn eq_jacobian_sparse_into(&self, _z: &[f64], _out: &mut SparseMatrix) -> bool {
        false
    }

    /// The block-banded horizon structure of this problem's QP
    /// subproblems, if it has one (see [`QpStructure`]). Declaring a
    /// structure routes the SQP's KKT solves to the banded backend;
    /// `None` (the default) keeps the dense path.
    fn qp_structure(&self) -> Option<QpStructure> {
        None
    }
}

/// Builds an `m × n` [`Matrix`] Jacobian via finite differences.
fn jacobian_matrix(f: &dyn Fn(&[f64], &mut [f64]), z: &[f64], m: usize, n: usize) -> Matrix {
    if m == 0 {
        return Matrix::zeros(0, n.max(1));
    }
    let rows = finite_diff::jacobian(f, z, m);
    let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
    Matrix::from_rows(&refs).expect("finite-difference jacobian is rectangular")
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Rosenbrock;
    impl NlpProblem for Rosenbrock {
        fn num_vars(&self) -> usize {
            2
        }
        fn objective(&self, z: &[f64]) -> f64 {
            (1.0 - z[0]).powi(2) + 100.0 * (z[1] - z[0] * z[0]).powi(2)
        }
    }

    struct Circle;
    impl NlpProblem for Circle {
        fn num_vars(&self) -> usize {
            2
        }
        fn objective(&self, z: &[f64]) -> f64 {
            z[0] + z[1]
        }
        fn num_eq(&self) -> usize {
            1
        }
        fn eq_constraints(&self, z: &[f64], out: &mut [f64]) {
            out[0] = z[0] * z[0] + z[1] * z[1] - 2.0;
        }
    }

    #[test]
    fn default_gradient_matches_analytic() {
        let z = [0.5, 0.5];
        let mut g = [0.0; 2];
        Rosenbrock.gradient(&z, &mut g);
        // Analytic: dx = -2(1-x) - 400 x (y - x²); dy = 200 (y - x²).
        let gx = -2.0 * 0.5 - 400.0 * 0.5 * 0.25;
        let gy = 200.0 * 0.25;
        assert!((g[0] - gx).abs() < 1e-4);
        assert!((g[1] - gy).abs() < 1e-4);
    }

    #[test]
    fn default_eq_jacobian() {
        let j = Circle.eq_jacobian(&[1.0, -1.0]);
        assert_eq!(j.shape(), (1, 2));
        assert!((j.get(0, 0) - 2.0).abs() < 1e-6);
        assert!((j.get(0, 1) + 2.0).abs() < 1e-6);
    }

    #[test]
    fn exact_derivative_flag_defaults_to_false() {
        assert!(!Rosenbrock.has_exact_derivatives());
        struct Exact;
        impl NlpProblem for Exact {
            fn num_vars(&self) -> usize {
                1
            }
            fn objective(&self, z: &[f64]) -> f64 {
                z[0] * z[0]
            }
            fn gradient(&self, z: &[f64], grad: &mut [f64]) {
                grad[0] = 2.0 * z[0];
            }
            fn has_exact_derivatives(&self) -> bool {
                true
            }
        }
        assert!(Exact.has_exact_derivatives());
    }

    #[test]
    fn dense_jacobian_defaults_densify_the_csr_form() {
        // CSR Jacobians that are not the constraints' derivatives, so only
        // densifying them gives these matrices.
        struct Csr;
        impl NlpProblem for Csr {
            fn num_vars(&self) -> usize {
                2
            }
            fn objective(&self, z: &[f64]) -> f64 {
                z[0]
            }
            fn num_eq(&self) -> usize {
                1
            }
            fn eq_constraints(&self, z: &[f64], out: &mut [f64]) {
                out[0] = z[0] + z[1];
            }
            fn eq_jacobian_sparse_into(&self, _z: &[f64], out: &mut SparseMatrix) -> bool {
                out.reset(2);
                out.push(1, 3.0);
                out.finish_row();
                true
            }
            fn num_ineq(&self) -> usize {
                1
            }
            fn ineq_constraints(&self, z: &[f64], out: &mut [f64]) {
                out[0] = z[0];
            }
            fn ineq_jacobian_sparse_into(&self, _z: &[f64], out: &mut SparseMatrix) -> bool {
                out.reset(2);
                out.push(0, -0.5);
                out.finish_row();
                true
            }
        }
        let z = [1.0, 2.0];
        assert_eq!(
            Csr.eq_jacobian(&z),
            Matrix::from_rows(&[&[0.0, 3.0]]).unwrap()
        );
        assert_eq!(
            Csr.ineq_jacobian(&z),
            Matrix::from_rows(&[&[-0.5, 0.0]]).unwrap()
        );
    }

    #[test]
    fn zero_constraint_defaults_are_noops() {
        let mut out: [f64; 0] = [];
        Rosenbrock.eq_constraints(&[0.0, 0.0], &mut out);
        Rosenbrock.ineq_constraints(&[0.0, 0.0], &mut out);
        assert_eq!(Rosenbrock.num_eq(), 0);
        assert_eq!(Rosenbrock.num_ineq(), 0);
        assert_eq!(Rosenbrock.eq_jacobian(&[0.0, 0.0]).rows(), 0);
    }
}
