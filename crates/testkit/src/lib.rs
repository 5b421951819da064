//! Test harness for the evclimate simulator: physics-invariant checkers
//! over step-level traces and a golden-trace snapshot harness.
//!
//! The crate is consumed from integration tests only (it sits *above*
//! [`ev_core`], whose [`StepObserver`](ev_core::StepObserver) hook it
//! builds on):
//!
//! * [`invariants`] — [`InvariantObserver`] checks, at every simulated
//!   step, the statements that must hold for any correct run: SoC stays
//!   bounded and only rises under regeneration, the BMS-metered power
//!   decomposes into motor + HVAC + accessories, ∫power dt matches the
//!   metered energy, the cabin stays inside the actuator-reachable
//!   envelope and the HVAC respects the paper's C1–C10 caps.
//! * [`golden`] — [`GoldenTrace`] snapshots pin a downsampled trace per
//!   (cycle × controller) cell to `tests/golden/`; drift is reported as
//!   the first diverging step, and `UPDATE_GOLDEN=1` re-baselines.
//! * [`run`] — [`run_checked`], the one-call runner that wires the
//!   observers into a simulation.
//!
//! # Examples
//!
//! ```
//! use ev_core::{ControllerKind, EvParams};
//! use ev_core::experiments::profile_at;
//! use ev_drive::DriveCycle;
//! use ev_testkit::run_checked;
//!
//! let params = EvParams::nissan_leaf_like();
//! let profile = profile_at(&DriveCycle::ece15(), 35.0);
//! let (result, trace, report) = run_checked(&params, profile, ControllerKind::OnOff);
//! assert_eq!(trace.records().len(), result.series.t.len());
//! report.assert_clean();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod golden;
pub mod invariants;
pub mod qpgen;
pub mod run;

pub use golden::{
    golden_filename, verify_or_update, verify_or_update_text, GoldenStep, GoldenTolerance,
    GoldenTrace,
};
pub use invariants::{
    check_trace, InvariantConfig, InvariantObserver, InvariantReport, InvariantViolation,
};
pub use qpgen::{GeneratedQp, QpAsNlp, QpFamily};
pub use run::run_checked;
