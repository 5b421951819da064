//! Error type for the optimization crate.

use ev_linalg::LinalgError;

/// Errors returned by the QP and SQP solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum OptimError {
    /// Problem data has inconsistent dimensions.
    DimensionMismatch {
        /// Human-readable description of which operand mismatched.
        what: &'static str,
    },
    /// The Hessian is not symmetric (within tolerance).
    AsymmetricHessian,
    /// The interior-point iteration limit was exceeded before the KKT
    /// residuals met tolerance; the problem may be infeasible or unbounded.
    QpMaxIterations {
        /// Final complementarity measure μ.
        mu: f64,
        /// Final primal residual norm.
        primal_residual: f64,
        /// Final dual residual norm.
        dual_residual: f64,
    },
    /// The QP's constraints admit no feasible point: the interior-point
    /// method exhausted its budget with the complementarity measure
    /// converged but the primal residual stuck far from zero, the
    /// signature of an inconsistent constraint set.
    QpInfeasible {
        /// Final primal residual norm (the irreducible constraint gap).
        primal_residual: f64,
    },
    /// The QP's objective decreases without bound over the feasible set:
    /// the iterates diverged while staying (near-)feasible. Typical for
    /// an LP (zero Hessian) missing a bound in the descent direction.
    QpUnbounded {
        /// Iterate magnitude at which divergence was declared.
        z_norm: f64,
    },
    /// A candidate solution failed independent KKT verification (see
    /// [`crate::verify_kkt`]).
    KktViolation {
        /// Worst KKT residual of the candidate point.
        residual: f64,
        /// Problem-data scale the residual is judged relative to.
        scale: f64,
    },
    /// A linear system inside the solver failed to factor.
    Linalg(LinalgError),
    /// Problem data contains NaN or infinity.
    NonFiniteData,
}

impl core::fmt::Display for OptimError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::DimensionMismatch { what } => {
                write!(f, "dimension mismatch in problem data: {what}")
            }
            Self::AsymmetricHessian => write!(f, "hessian matrix must be symmetric"),
            Self::QpMaxIterations {
                mu,
                primal_residual,
                dual_residual,
            } => write!(
                f,
                "qp did not converge: mu={mu:.2e}, primal={primal_residual:.2e}, dual={dual_residual:.2e}"
            ),
            Self::QpInfeasible { primal_residual } => write!(
                f,
                "qp constraints are infeasible: primal residual stuck at {primal_residual:.2e}"
            ),
            Self::QpUnbounded { z_norm } => write!(
                f,
                "qp objective is unbounded below: iterates diverged to ‖z‖={z_norm:.2e}"
            ),
            Self::KktViolation { residual, scale } => write!(
                f,
                "candidate point violates the KKT conditions: residual {residual:.2e} (data scale {scale:.2e})"
            ),
            Self::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            Self::NonFiniteData => write!(f, "problem data contains non-finite values"),
        }
    }
}

impl std::error::Error for OptimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for OptimError {
    fn from(e: LinalgError) -> Self {
        Self::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = OptimError::DimensionMismatch { what: "g vs H" };
        assert!(e.to_string().contains("g vs H"));
        assert!(OptimError::AsymmetricHessian
            .to_string()
            .contains("symmetric"));
        let q = OptimError::QpMaxIterations {
            mu: 1e-3,
            primal_residual: 1e-2,
            dual_residual: 1e-4,
        };
        assert!(q.to_string().contains("did not converge"));
    }

    #[test]
    fn linalg_error_is_source() {
        use std::error::Error;
        let e = OptimError::from(LinalgError::Singular);
        assert!(e.source().is_some());
    }
}
