//! Property tests pinning the MPC's exact derivatives, in both of its
//! transcriptions, at random cabin/ambient/SoC states and random decision
//! vectors.
//!
//! Each NLP supplies an adjoint objective gradient and CSR constraint
//! Jacobians (`NlpProblem::ineq_jacobian_sparse_into` /
//! `eq_jacobian_sparse_into`), the form the SQP takes; the solver's
//! documented fallback, [`ev_optim::finite_diff`], is the oracle. Three
//! things must hold, or the SQP iterates are steered somewhere else:
//!
//! 1. The gradient and every CSR Jacobian agree with central differences
//!    to ≤1e-5 relative.
//! 2. Every multiple-shooting CSR row respects the one-step-lookback
//!    locality the NLP declares via `qp_structure()`. That declaration is
//!    what lets the QP solver pick the banded factorization, so an
//!    out-of-block entry would be silently dropped from the KKT matrix.
//! 3. The dense `eq_jacobian` / `ineq_jacobian` views are the CSR
//!    Jacobians densified, bit for bit: an exact Jacobian exists once.

use ev_control::{ControlContext, MpcController, PreviewSample};
use ev_hvac::{CabinParams, Hvac, HvacLimits, HvacState};
use ev_linalg::SparseMatrix;
use ev_optim::NlpProblem;
use ev_units::{Celsius, Percent, Seconds, Watts};
use proptest::prelude::*;

const HORIZON: usize = 6;
const INEQ_PER_STEP: usize = 13;
/// The C4 row (`tc − tm`), used to recover `tm` from constraint values.
const C4_ROW: usize = 5;
/// The coil floor of the default HVAC parameters (°C). The floor
/// constraint `min(min_coil, tm) − tc` has a kink at `tm = min_coil`
/// where central differences straddle two branches; samples near it are
/// rejected rather than asserted on.
const MIN_COIL_C: f64 = 4.0;

fn controller(multiple_shooting: bool) -> MpcController {
    MpcController::builder(
        Hvac::new(CabinParams::default(), ev_hvac::HvacParams::default()),
        HvacLimits::default(),
    )
    .horizon(HORIZON)
    .prediction_dt(Seconds::new(4.0))
    .recompute_every(1)
    .multiple_shooting(multiple_shooting)
    .build()
    .expect("valid mpc config")
}

fn preview(motor_kw: f64, to: f64) -> Vec<PreviewSample> {
    (0..HORIZON * 4)
        .map(|i| PreviewSample {
            // Saw-tooth motor power so SoC couplings differ per step.
            motor_power: Watts::new(motor_kw * 1000.0 * (1.0 + 0.5 * ((i % 5) as f64 - 2.0) / 2.0)),
            ambient: Celsius::new(to),
            solar: Watts::new(350.0),
        })
        .collect()
}

fn ctx_at<'a>(tz: f64, to: f64, soc: f64, samples: &'a [PreviewSample]) -> ControlContext<'a> {
    ControlContext {
        state: HvacState::new(Celsius::new(tz)),
        ambient: Celsius::new(to),
        solar: Watts::new(350.0),
        soc: Percent::new(soc),
        soc_avg: soc + 1.5,
        dt: Seconds::new(1.0),
        elapsed: Seconds::ZERO,
        preview: samples,
    }
}

/// `|analytic − fd|` must be ≤ `1e-5·max(|fd|, 1)`.
fn close(analytic: f64, fd: f64) -> bool {
    (analytic - fd).abs() <= 1e-5 * fd.abs().max(1.0)
}

/// Checks the equality (`eq`) or the inequality rows of `nlp` at `z`:
/// the CSR Jacobian against central differences, the dense view against
/// the CSR Jacobian densified, bit for bit, and, when the NLP declares a
/// block structure, every CSR row against the declared lookback.
fn check_jacobian(nlp: &dyn NlpProblem, z: &[f64], eq: bool) -> Result<(), TestCaseError> {
    let (what, rows, rows_per_step) = if eq {
        ("eq", nlp.num_eq(), nlp.num_eq() / HORIZON)
    } else {
        ("ineq", nlp.num_ineq(), INEQ_PER_STEP)
    };
    let values = |p: &[f64], out: &mut [f64]| {
        if eq {
            nlp.eq_constraints(p, out);
        } else {
            nlp.ineq_constraints(p, out);
        }
    };
    let mut csr = SparseMatrix::new();
    let has_csr = if eq {
        nlp.eq_jacobian_sparse_into(z, &mut csr)
    } else {
        nlp.ineq_jacobian_sparse_into(z, &mut csr)
    };
    prop_assert!(has_csr, "{} has a CSR Jacobian", what);
    prop_assert_eq!(csr.rows(), rows);
    let dense = if eq {
        nlp.eq_jacobian(z)
    } else {
        nlp.ineq_jacobian(z)
    };
    let densified = csr.to_dense();
    prop_assert_eq!(dense.shape(), densified.shape());
    for r in 0..rows {
        for col in 0..nlp.num_vars() {
            let (d, c) = (dense.get(r, col), densified.get(r, col));
            prop_assert!(
                d.to_bits() == c.to_bits(),
                "{}[{},{}]: dense view {:e} vs densified CSR {:e}",
                what,
                r,
                col,
                d,
                c
            );
        }
    }
    if let Some(st) = nlp.qp_structure() {
        let vb = st.vars_per_block;
        for r in 0..rows {
            let k = r / rows_per_step;
            let (lo, hi) = (k.saturating_sub(st.lookback) * vb, (k + 1) * vb);
            for &col in csr.row(r).0 {
                prop_assert!(
                    (lo..hi).contains(&col),
                    "{} row {} (step {}) touches column {} outside the declared \
                     lookback-{} block range {}..{}",
                    what,
                    r,
                    k,
                    col,
                    st.lookback,
                    lo,
                    hi
                );
            }
        }
    }
    let fd = ev_optim::finite_diff::jacobian(&values, z, rows);
    for (r, fd_row) in fd.iter().enumerate() {
        for (col, &f) in fd_row.iter().enumerate() {
            prop_assert!(
                close(densified.get(r, col), f),
                "{}[{},{}]: analytic {} vs central-difference {}",
                what,
                r,
                col,
                densified.get(r, col),
                f
            );
        }
    }
    Ok(())
}

/// Every derivative check of this suite on the NLP the controller solves,
/// at `z`. Samples near the coil-floor kink are rejected.
fn check_derivatives(nlp: &dyn NlpProblem, z: &[f64]) -> Result<(), TestCaseError> {
    prop_assert!(nlp.has_exact_derivatives());
    let n = nlp.num_vars();
    prop_assert_eq!(n, z.len());
    let vars_per_step = n / HORIZON;
    let (me, m) = (nlp.num_eq(), nlp.num_ineq());

    let mut cons = vec![0.0; m];
    nlp.ineq_constraints(z, &mut cons);
    for k in 0..HORIZON {
        let tc_phys = z[k * vars_per_step + 1] * 10.0;
        let tm = tc_phys - cons[k * INEQ_PER_STEP + C4_ROW];
        prop_assume!((tm - MIN_COIL_C).abs() > 0.05);
    }

    let mut grad = vec![0.0; n];
    nlp.gradient(z, &mut grad);
    let fd_grad = ev_optim::finite_diff::gradient(&|p: &[f64]| nlp.objective(p), z);
    for i in 0..n {
        prop_assert!(
            close(grad[i], fd_grad[i]),
            "grad[{}]: analytic {} vs central-difference {}",
            i,
            grad[i],
            fd_grad[i]
        );
    }

    check_jacobian(nlp, z, false)?;
    if me > 0 {
        check_jacobian(nlp, z, true)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The condensed (production) transcription: four scaled inputs per
    /// step, the cabin and SoC trajectories rolled out inside.
    #[test]
    fn condensed_derivatives_are_exact(
        tz in 12.0f64..40.0,
        to in -15.0f64..45.0,
        soc in 25.0f64..95.0,
        motor_kw in 0.0f64..60.0,
        steps in proptest::collection::vec(
            (1.0f64..4.5, 0.8f64..4.2, 0.0f64..0.7, 0.3f64..2.4),
            HORIZON,
        ),
    ) {
        let c = controller(false);
        let samples = preview(motor_kw, to);
        let context = ctx_at(tz, to, soc, &samples);
        let z: Vec<f64> = steps.iter().flat_map(|&(ts, tc, dr, mz)| [ts, tc, dr, mz]).collect();
        c.with_active_nlp(&context, |nlp| {
            prop_assert_eq!(nlp.num_eq(), 0);
            check_derivatives(nlp, &z)
        })?;
    }

    /// The multiple-shooting transcription: a free cabin variable per
    /// step, tied to the dynamics by one equality row each.
    #[test]
    fn multiple_shooting_derivatives_are_exact(
        tz in 12.0f64..40.0,
        to in -15.0f64..45.0,
        soc in 25.0f64..95.0,
        motor_kw in 0.0f64..60.0,
        steps in proptest::collection::vec(
            (1.0f64..4.5, 0.8f64..4.2, 0.0f64..0.7, 0.3f64..2.4, 1.2f64..4.0),
            HORIZON,
        ),
    ) {
        let c = controller(true);
        let samples = preview(motor_kw, to);
        let context = ctx_at(tz, to, soc, &samples);
        let z: Vec<f64> = steps
            .iter()
            .flat_map(|&(ts, tc, dr, mz, tzv)| [ts, tc, dr, mz, tzv])
            .collect();
        c.with_active_nlp(&context, |nlp| {
            let st = nlp.qp_structure().expect("multiple shooting declares structure");
            prop_assert_eq!(nlp.num_vars(), HORIZON * st.vars_per_block);
            prop_assert_eq!(nlp.num_eq(), HORIZON * st.eq_per_block);
            check_derivatives(nlp, &z)
        })?;
    }
}
