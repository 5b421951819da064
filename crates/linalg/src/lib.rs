//! Dense linear algebra sized for embedded MPC problems.
//!
//! This crate provides the small, dependency-free linear-algebra kernel the
//! evclimate optimizer ([`ev-optim`]) is built on: a row-major dense
//! [`Matrix`], LU factorization with partial pivoting ([`Lu`]) and Cholesky
//! factorization for symmetric positive-definite systems ([`Cholesky`]).
//!
//! The model-predictive-control problems solved in this workspace involve a
//! few hundred variables at most, so straightforward `O(n³)` dense
//! algorithms are the right tool: simple, cache-friendly and easy to verify.
//!
//! For horizon-structured MPC systems the crate additionally provides a CSR
//! [`SparseMatrix`] for constraint Jacobians and a symmetric
//! [`BandedMatrix`] with an `O(n·w²)` LDLᵀ factorization
//! ([`BandedCholesky`]) for the block-banded KKT matrices those Jacobians
//! induce.
//!
//! [`ev-optim`]: https://docs.rs/ev-optim
//!
//! # Examples
//!
//! ```
//! use ev_linalg::{Matrix, Lu};
//!
//! # fn main() -> Result<(), ev_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let lu = Lu::factor(&a)?;
//! let x = lu.solve(&[1.0, 2.0])?;
//! assert!((4.0 * x[0] + 1.0 * x[1] - 1.0).abs() < 1e-12);
//! assert!((1.0 * x[0] + 3.0 * x[1] - 2.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Indexed loops over multiple parallel arrays are clearer than iterator
// chains in the dense numeric kernels below.
#![allow(clippy::needless_range_loop)]

mod banded;
mod cholesky;
mod error;
mod lu;
mod matrix;
mod sparse;
pub mod vecops;

pub use banded::{BandedCholesky, BandedMatrix};
pub use cholesky::Cholesky;
pub use error::LinalgError;
pub use lu::{solve, Lu};
pub use matrix::Matrix;
pub use sparse::SparseMatrix;
