//! Constrained optimization for model predictive control.
//!
//! The DAC 2015 climate-control paper solves its MPC step with Sequential
//! Quadratic Programming (its Section III, citing Kelman & Borrelli). This
//! crate provides that machinery from scratch:
//!
//! * [`QpSolver`] — a convex quadratic program solver
//!   (minimize ½ zᵀHz + gᵀz subject to linear equalities and inequalities)
//!   implemented as an infeasible-start primal-dual interior-point method.
//!   A QP is posed as a [`QpView`]: a dense Hessian and constraint rows in
//!   CSR form. No Phase-I is needed, which makes it robust as the inner
//!   engine of an SQP loop.
//! * [`SqpSolver`] — sequential quadratic programming for smooth nonlinear
//!   programs expressed through the [`NlpProblem`] trait, with damped-BFGS
//!   Hessian approximation, an L1 merit line search, and elastic-mode
//!   recovery when a subproblem is infeasible. Constraint Jacobians reach
//!   its QP subproblems as CSR rows; a problem that only has dense ones
//!   has them converted.
//! * [`finite_diff`] — central-difference gradients and Jacobians used as
//!   the default derivatives for problems that do not provide analytic
//!   ones.
//!
//! # Examples
//!
//! Minimize `(z₀−1)² + (z₁−2)²` subject to `z₀ + z₁ = 2` and `z₀ ≤ 0.25`:
//!
//! ```
//! use ev_optim::{QpSolver, QpView};
//! use ev_linalg::{Matrix, SparseMatrix};
//!
//! # fn main() -> Result<(), ev_optim::OptimError> {
//! let h = Matrix::from_diag(&[2.0, 2.0]);
//! let g = [-2.0, -4.0];
//! let a_eq = SparseMatrix::from_dense(&Matrix::from_rows(&[&[1.0, 1.0]]).unwrap());
//! let a_in = SparseMatrix::from_dense(&Matrix::from_rows(&[&[1.0, 0.0]]).unwrap());
//! let view = QpView::new(&h, &g)?
//!     .with_equalities(&a_eq, &[2.0])?
//!     .with_inequalities(&a_in, &[0.25])?;
//! let sol = QpSolver::default().solve_view(&view)?;
//! assert!((sol.z[0] - 0.25).abs() < 1e-5);
//! assert!((sol.z[1] - 1.75).abs() < 1e-5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Indexed loops over multiple parallel arrays are clearer than iterator
// chains in the dense numeric kernels below.
#![allow(clippy::needless_range_loop)]

mod error;
pub mod finite_diff;
mod nlp;
mod observer;
mod qp;
mod sqp;
mod verify;

pub use error::OptimError;
pub use nlp::NlpProblem;
pub use observer::{
    NoopSqpObserver, QpSubproblemStatus, SqpIterationRecord, SqpObserver, SqpTraceObserver,
};
pub use qp::{
    QpKktBackend, QpSolution, QpSolver, QpSolverOptions, QpStructure, QpView, QpWarmStart,
};
pub use sqp::{SqpOptions, SqpResult, SqpSolver, SqpStatus};
pub use verify::{kkt_report, verify_kkt, KktReport};
