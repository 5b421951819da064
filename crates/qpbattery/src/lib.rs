//! Solver proving ground for the `ev-optim` SQP/interior-point stack.
//!
//! The paper's controller leans entirely on one numerical engine — the
//! convex-QP interior-point solver inside the SQP loop — so this crate
//! exists to pressure-test that engine against problems *other people
//! wrote*, not just the fixtures that grew alongside the solver:
//!
//! * [`mps`] — a reader/writer for the MPS/QPS interchange format
//!   (fixed and free layout, `RANGES`/`BOUNDS` sections, `QUADOBJ`
//!   quadratic terms), lowering to CSR rows posed as an
//!   [`ev_optim::QpView`].
//! * [`battery`] — a vendored, fully offline battery of classic small
//!   QPs and LPs (Hock–Schittkowski, Maros–Mészáros-style cases, plus
//!   hand-written degenerate/rank-deficient/infeasible instances) with
//!   reference objective values committed next to the fixtures.
//! * [`differential`] — a differential-oracle harness that solves
//!   seeded generated instances ([`ev_testkit::qpgen`]) through every
//!   factorization backend (dense LU, dense Cholesky, banded LDLᵀ) and
//!   cross-checks primal solutions, KKT residuals, and declared vs
//!   measured bandwidth, dumping an MPS reproducer on disagreement.
//!
//! The crate ships no binary: it is consumed by its own tests, by
//! `ev-optim`'s `battery` integration suite, and by the CI
//! `solver-battery` job.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod battery;
pub mod differential;
pub mod mps;

pub use battery::{BatteryCase, Expected, CASES};
pub use differential::{differential_solve, fuzz, BackendRun, DifferentialReport};
pub use mps::{parse_mps, write_mps, LoadedQp, MpsError, MpsFormat};
