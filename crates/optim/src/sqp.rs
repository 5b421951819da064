//! Sequential quadratic programming.

use ev_linalg::{vecops, Matrix, SparseMatrix};

use crate::observer::{NoopSqpObserver, QpSubproblemStatus, SqpIterationRecord, SqpObserver};
use crate::qp::{IpmWorkspace, WARM_FLOOR};
use crate::{NlpProblem, OptimError, QpSolver, QpSolverOptions, QpStructure, QpView, QpWarmStart};

/// Evaluates the equality Jacobian at `z` into `out`, the CSR form every
/// QP subproblem takes. A problem without a CSR form has its dense
/// Jacobian converted here, which drops only its ±0.0 entries. A problem
/// without equality rows is asked for its (empty) dense Jacobian.
fn eval_eq_jacobian<P: NlpProblem + ?Sized>(problem: &P, z: &[f64], out: &mut SparseMatrix) {
    if !(problem.num_eq() > 0 && problem.eq_jacobian_sparse_into(z, out)) {
        *out = SparseMatrix::from_dense(&problem.eq_jacobian(z));
    }
}

/// Evaluates the inequality Jacobian at `z` into `out`, like
/// [`eval_eq_jacobian`].
fn eval_ineq_jacobian<P: NlpProblem + ?Sized>(problem: &P, z: &[f64], out: &mut SparseMatrix) {
    if !(problem.num_ineq() > 0 && problem.ineq_jacobian_sparse_into(z, out)) {
        *out = SparseMatrix::from_dense(&problem.ineq_jacobian(z));
    }
}

/// Options for the SQP solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SqpOptions {
    /// Convergence tolerance on step size and constraint violation.
    pub tolerance: f64,
    /// Maximum major (SQP) iterations.
    pub max_iterations: usize,
    /// Maximum backtracking steps per line search.
    pub max_line_search: usize,
    /// Initial L1 merit penalty.
    pub initial_penalty: f64,
    /// Options forwarded to the inner QP solver.
    pub qp: QpSolverOptions,
}

impl Default for SqpOptions {
    fn default() -> Self {
        Self {
            tolerance: 1e-6,
            max_iterations: 60,
            max_line_search: 25,
            initial_penalty: 10.0,
            qp: QpSolverOptions::default(),
        }
    }
}

/// Why the SQP loop stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SqpStatus {
    /// Step size and constraint violation met tolerance.
    Converged,
    /// The iteration budget ran out; the best iterate found is returned.
    MaxIterations,
    /// The merit line search could not make progress; the best iterate
    /// found is returned (often already near-optimal on flat problems).
    LineSearchStalled,
}

/// Result of an SQP run.
#[derive(Debug, Clone)]
pub struct SqpResult {
    /// The final iterate.
    pub z: Vec<f64>,
    /// Objective value at `z`.
    pub objective: f64,
    /// Termination status.
    pub status: SqpStatus,
    /// Major iterations performed.
    pub iterations: usize,
    /// Maximum constraint violation at `z` (0 when unconstrained).
    pub constraint_violation: f64,
}

impl SqpResult {
    /// Returns `true` if the solver reached its convergence tolerance.
    #[must_use]
    pub fn is_converged(&self) -> bool {
        self.status == SqpStatus::Converged
    }
}

/// Sequential quadratic programming solver with damped-BFGS Hessian
/// approximation and an L1-merit backtracking line search.
///
/// Each major iteration linearizes the constraints, builds a convex QP with
/// the current Hessian approximation and solves it with [`QpSolver`],
/// warm-starting its interior-point method from the previous subproblem's
/// multipliers, lifted to a floor scaled to the previous step (the first
/// subproblem of a solve starts cold). If the
/// linearized constraints are inconsistent, the subproblem is retried in
/// *elastic mode* (slack variables with a linear penalty), which always
/// has a solution.
///
/// This is the optimizer the paper's MPC runs every control step
/// (Section III, "the best option might be to apply Sequential Quadratic
/// Programming").
///
/// # Examples
///
/// ```
/// use ev_optim::{NlpProblem, SqpSolver};
///
/// /// min (z0−2)² + z1², s.t. z0 ≤ 1.
/// struct P;
/// impl NlpProblem for P {
///     fn num_vars(&self) -> usize { 2 }
///     fn objective(&self, z: &[f64]) -> f64 { (z[0] - 2.0).powi(2) + z[1] * z[1] }
///     fn num_ineq(&self) -> usize { 1 }
///     fn ineq_constraints(&self, z: &[f64], out: &mut [f64]) { out[0] = z[0] - 1.0; }
/// }
///
/// # fn main() -> Result<(), ev_optim::OptimError> {
/// let result = SqpSolver::default().solve(&P, &[0.0, 0.5])?;
/// assert!(result.is_converged());
/// assert!((result.z[0] - 1.0).abs() < 1e-5);
/// assert!(result.z[1].abs() < 1e-5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct SqpSolver {
    options: SqpOptions,
}

impl SqpSolver {
    /// Creates a solver with the given options.
    #[must_use]
    pub fn new(options: SqpOptions) -> Self {
        Self { options }
    }

    /// Borrows the solver options.
    #[must_use]
    pub fn options(&self) -> &SqpOptions {
        &self.options
    }

    /// Solves the nonlinear program starting from `z0`.
    ///
    /// # Errors
    ///
    /// Returns [`OptimError::DimensionMismatch`] if `z0.len()` does not
    /// match the problem, [`OptimError::NonFiniteData`] if the objective or
    /// constraints return non-finite values at `z0`, and propagates
    /// structural QP failures.
    pub fn solve<P: NlpProblem + ?Sized>(
        &self,
        problem: &P,
        z0: &[f64],
    ) -> Result<SqpResult, OptimError> {
        self.solve_observed(problem, z0, NoopSqpObserver)
    }

    /// Solves the nonlinear program starting from `z0`, reporting one
    /// [`SqpIterationRecord`] per major iteration to `observer`.
    ///
    /// Observation is read-only: the iterate path is bit-identical to
    /// [`SqpSolver::solve`]. When [`SqpObserver::active`] is `false`
    /// (as for [`NoopSqpObserver`]) no record is assembled and no clock
    /// is read, so the hook costs nothing.
    ///
    /// Each QP subproblem after the first starts from the previous one's
    /// multipliers; nothing carries over from earlier calls, so a solve
    /// depends only on its problem, start point and options.
    ///
    /// # Errors
    ///
    /// Same contract as [`SqpSolver::solve`].
    pub fn solve_observed<P: NlpProblem + ?Sized, O: SqpObserver>(
        &self,
        problem: &P,
        z0: &[f64],
        observer: O,
    ) -> Result<SqpResult, OptimError> {
        self.solve_cached(problem, z0, &mut QpWarmStart::new(), observer)
    }

    /// Solves the nonlinear program like [`SqpSolver::solve_observed`],
    /// but seeds the first QP subproblem from the multipliers left in
    /// `warm` by an earlier solve, and leaves the last subproblem's
    /// multipliers there for the next one (see
    /// [`QpSolver::solve_view_warm`]). With a fresh [`QpWarmStart`] this
    /// is exactly [`SqpSolver::solve_observed`].
    ///
    /// The cache changes only where the QP starts, never its convergence
    /// tolerance — but because the iterate *path* then depends on the
    /// previous solve, callers that re-solve a problem in isolation and
    /// compare bit for bit should use [`SqpSolver::solve_observed`].
    ///
    /// # Errors
    ///
    /// Same contract as [`SqpSolver::solve`].
    pub fn solve_cached<P: NlpProblem + ?Sized, O: SqpObserver>(
        &self,
        problem: &P,
        z0: &[f64],
        warm: &mut QpWarmStart,
        mut observer: O,
    ) -> Result<SqpResult, OptimError> {
        let observing = observer.active();
        let n = problem.num_vars();
        if z0.len() != n {
            return Err(OptimError::DimensionMismatch {
                what: "z0 vs problem",
            });
        }
        let me = problem.num_eq();
        let mi = problem.num_ineq();
        let opts = &self.options;
        let qp_solver = QpSolver::new(opts.qp);

        let mut z = z0.to_vec();
        let mut f = problem.objective(&z);
        if !f.is_finite() {
            return Err(OptimError::NonFiniteData);
        }
        let mut grad = vec![0.0; n];
        problem.gradient(&z, &mut grad);
        let mut c_eq = vec![0.0; me];
        let mut c_in = vec![0.0; mi];
        problem.eq_constraints(&z, &mut c_eq);
        problem.ineq_constraints(&z, &mut c_in);
        if c_eq.iter().chain(&c_in).any(|v| !v.is_finite()) || grad.iter().any(|v| !v.is_finite()) {
            return Err(OptimError::NonFiniteData);
        }

        let mut b = Matrix::identity(n);
        let mut penalty = opts.initial_penalty;
        let mut best = (z.clone(), f, violation(&c_eq, &c_in));
        let mut merit_window: Vec<f64> = Vec::with_capacity(5);

        // Workspace buffers reused across major iterations and every
        // line-search trial. The QP subproblem borrows `b`/`grad`/Jacobians
        // through a [`QpView`] instead of cloning them, and every QP of the
        // solve runs in `ipm`; only its solution vectors are allocated per
        // major iteration.
        let mut z_trial = vec![0.0; n];
        let mut c_eq_trial = vec![0.0; me];
        let mut c_in_trial = vec![0.0; mi];
        let mut trial_d = vec![0.0; n];
        let mut grad_new = vec![0.0; n];
        let mut gl_old = vec![0.0; n];
        let mut gl_new = vec![0.0; n];
        let mut step_s = vec![0.0; n];
        let mut yv = vec![0.0; n];
        let mut neg_c_eq = vec![0.0; me];
        let mut neg_c_in = vec![0.0; mi];
        let mut jt_buf = vec![0.0; n];
        let mut bfgs_bs = vec![0.0; n];
        let mut bfgs_r = vec![0.0; n];
        let mut ipm = IpmWorkspace::default();
        // The Jacobians at `z`. After an accepted step the Lagrangian BFGS
        // update evaluates them at the trial point into `*_new`, and the
        // buffers swap along with `z`, so each iterate's Jacobians are
        // evaluated once.
        let mut j_eq = SparseMatrix::new();
        let mut j_in = SparseMatrix::new();
        let mut j_eq_new = SparseMatrix::new();
        let mut j_in_new = SparseMatrix::new();
        eval_eq_jacobian(problem, &z, &mut j_eq);
        eval_ineq_jacobian(problem, &z, &mut j_in);
        let structure = problem.qp_structure();
        // The first subproblem of a solve has no step to scale by.
        let mut warm_floor = WARM_FLOOR;

        for iter in 0..opts.max_iterations {
            // QP subproblem in the step d (right-hand sides are the
            // negated constraint values).
            for (o, v) in neg_c_eq.iter_mut().zip(&c_eq) {
                *o = -v;
            }
            for (o, v) in neg_c_in.iter_mut().zip(&c_in) {
                *o = -v;
            }
            let qp_t0 = if observing {
                Some(std::time::Instant::now())
            } else {
                None
            };
            let mut qp_warm_restart = None;
            let (d, mult_eq, mult_in, qp_status, qp_iterations) = match self.solve_subproblem(
                &qp_solver,
                &b,
                &grad,
                &j_eq,
                &neg_c_eq,
                &j_in,
                &neg_c_in,
                penalty,
                structure,
                warm,
                warm_floor,
                &mut qp_warm_restart,
                &mut ipm,
            ) {
                Ok((d, y_eq, lambda_in, status, qp_iters)) => {
                    let mult = vecops::norm_inf(&y_eq).max(vecops::norm_inf(&lambda_in));
                    penalty = penalty.max(1.5 * mult + 1.0);
                    (d, y_eq, lambda_in, status, qp_iters)
                }
                Err(_) => {
                    // The subproblem failed numerically (singular KKT from
                    // a degenerate constraint Jacobian, or an elastic
                    // breakdown): take a plain gradient-descent fallback
                    // step rather than aborting — a degenerate linearization
                    // is a problem state, not a structural error.
                    let d = vecops::scale(-1.0 / (1.0 + vecops::norm2(&grad)), &grad);
                    (
                        d,
                        vec![0.0; me],
                        vec![0.0; mi],
                        QpSubproblemStatus::GradientFallback,
                        0,
                    )
                }
            };
            let qp_seconds = qp_t0.map_or(0.0, |t| t.elapsed().as_secs_f64());
            warm_floor = warm_floor_after(&d);

            let viol = violation(&c_eq, &c_in);
            let step_small = vecops::norm_inf(&d) <= opts.tolerance * (1.0 + vecops::norm_inf(&z));
            if step_small && viol <= opts.tolerance {
                if observing {
                    let active_set = if observer.wants_active_set() {
                        active_set_indices(&mult_in)
                    } else {
                        Vec::new()
                    };
                    observer.on_iteration(&SqpIterationRecord {
                        iteration: iter,
                        objective: f,
                        merit: f + penalty * viol,
                        constraint_violation: viol,
                        step_norm: vecops::norm_inf(&d),
                        step_length: 0.0,
                        accepted: true,
                        line_search_steps: 0,
                        qp_status,
                        qp_iterations,
                        qp_warm_restart,
                        qp_seconds,
                        active_set_size: active_set_size(&mult_in),
                        active_set,
                    });
                }
                return Ok(SqpResult {
                    objective: f,
                    constraint_violation: viol,
                    z,
                    status: SqpStatus::Converged,
                    iterations: iter,
                });
            }

            // L1-merit backtracking line search with a second-order
            // correction (Maratos remedy) tried after the first rejection
            // of the full step, and a mild non-monotone (watchdog)
            // acceptance window.
            let merit0 = f + penalty * viol;
            merit_window.push(merit0);
            if merit_window.len() > 4 {
                merit_window.remove(0);
            }
            let merit_ref = merit_window.iter().copied().fold(merit0, f64::max);
            // Directional derivative estimate of the merit function.
            let ddir = vecops::dot(&grad, &d) - penalty * viol;
            let mut alpha = 1.0;
            let mut accepted = false;
            let mut soc_tried = false;
            let mut f_new = f;
            let mut line_search_steps = 0usize;
            trial_d.copy_from_slice(&d);
            for _ in 0..opts.max_line_search {
                line_search_steps += 1;
                z_trial.copy_from_slice(&z);
                vecops::axpy(alpha, &trial_d, &mut z_trial);
                f_new = problem.objective(&z_trial);
                problem.eq_constraints(&z_trial, &mut c_eq_trial);
                problem.ineq_constraints(&z_trial, &mut c_in_trial);
                if f_new.is_finite() {
                    let merit_new = f_new + penalty * violation(&c_eq_trial, &c_in_trial);
                    if merit_new <= merit_ref + 1e-4 * alpha * ddir.min(0.0)
                        || merit_new < merit0 - 1e-12 * merit0.abs()
                    {
                        accepted = true;
                        break;
                    }
                    if !soc_tried && alpha == 1.0 && me > 0 {
                        // Second-order correction: shift the step to cancel
                        // the constraint curvature revealed at z + d
                        // (trial_d still equals d on this first trial).
                        soc_tried = true;
                        if let Some(correction) = second_order_correction(&j_eq, &c_eq_trial) {
                            vecops::axpy(1.0, &correction, &mut trial_d);
                            continue; // retry at alpha = 1 with the SOC step
                        }
                    }
                    // Fall back to the plain step when backtracking.
                    trial_d.copy_from_slice(&d);
                }
                alpha *= 0.5;
            }
            if observing {
                let active_set = if observer.wants_active_set() {
                    active_set_indices(&mult_in)
                } else {
                    Vec::new()
                };
                observer.on_iteration(&SqpIterationRecord {
                    iteration: iter,
                    objective: f,
                    merit: merit0,
                    constraint_violation: viol,
                    step_norm: vecops::norm_inf(&d),
                    step_length: if accepted { alpha } else { 0.0 },
                    accepted,
                    line_search_steps,
                    qp_status,
                    qp_iterations,
                    qp_warm_restart,
                    qp_seconds,
                    active_set_size: active_set_size(&mult_in),
                    active_set,
                });
            }
            if !accepted {
                let (bz, bf, bv) = best;
                return Ok(SqpResult {
                    z: bz,
                    objective: bf,
                    status: SqpStatus::LineSearchStalled,
                    iterations: iter,
                    constraint_violation: bv,
                });
            }

            // Damped BFGS update on the *Lagrangian* gradient difference
            // (the objective alone carries no curvature information when it
            // is linear; the multipliers supply the constraint curvature).
            problem.gradient(&z_trial, &mut grad_new);
            for i in 0..n {
                step_s[i] = z_trial[i] - z[i];
            }
            gl_old.copy_from_slice(&grad);
            gl_new.copy_from_slice(&grad_new);
            if me > 0 {
                j_eq.matvec_transposed(&mult_eq, &mut jt_buf)?;
                vecops::axpy(1.0, &jt_buf, &mut gl_old);
                eval_eq_jacobian(problem, &z_trial, &mut j_eq_new);
                j_eq_new.matvec_transposed(&mult_eq, &mut jt_buf)?;
                vecops::axpy(1.0, &jt_buf, &mut gl_new);
            }
            if mi > 0 {
                j_in.matvec_transposed(&mult_in, &mut jt_buf)?;
                vecops::axpy(1.0, &jt_buf, &mut gl_old);
                eval_ineq_jacobian(problem, &z_trial, &mut j_in_new);
                j_in_new.matvec_transposed(&mult_in, &mut jt_buf)?;
                vecops::axpy(1.0, &jt_buf, &mut gl_new);
            }
            for i in 0..n {
                yv[i] = gl_new[i] - gl_old[i];
            }
            match structure {
                // A declared horizon structure promises the QP a
                // block-diagonal Hessian: update each variable block
                // independently so BFGS fill-in never couples blocks and
                // the banded KKT assembly stays exact.
                Some(st) if st.vars_per_block > 0 && n.is_multiple_of(st.vars_per_block) => {
                    let vb = st.vars_per_block;
                    for k in 0..n / vb {
                        let r = k * vb..(k + 1) * vb;
                        bfgs_update_block(
                            &mut b,
                            &step_s[r.clone()],
                            &yv[r.clone()],
                            r.start,
                            &mut bfgs_bs[r.clone()],
                            &mut bfgs_r[r],
                        );
                    }
                }
                _ => bfgs_update_block(&mut b, &step_s, &yv, 0, &mut bfgs_bs, &mut bfgs_r),
            }

            // Adopt the accepted trial point by swapping buffers; the
            // trial buffers are fully overwritten on the next use. A
            // Jacobian without rows was not re-evaluated and need not be.
            std::mem::swap(&mut z, &mut z_trial);
            f = f_new;
            std::mem::swap(&mut grad, &mut grad_new);
            std::mem::swap(&mut c_eq, &mut c_eq_trial);
            std::mem::swap(&mut c_in, &mut c_in_trial);
            if me > 0 {
                std::mem::swap(&mut j_eq, &mut j_eq_new);
            }
            if mi > 0 {
                std::mem::swap(&mut j_in, &mut j_in_new);
            }
            let v = violation(&c_eq, &c_in);
            if v < best.2 || (v <= best.2 + opts.tolerance && f < best.1) {
                best.0.copy_from_slice(&z);
                best.1 = f;
                best.2 = v;
            }
        }

        let (bz, bf, bv) = best;
        Ok(SqpResult {
            z: bz,
            objective: bf,
            status: SqpStatus::MaxIterations,
            iterations: opts.max_iterations,
            constraint_violation: bv,
        })
    }

    /// Builds and solves one QP subproblem; returns the step, the
    /// equality/inequality multipliers (used for penalty updates and the
    /// Lagrangian BFGS update), which path solved it, and the inner QP
    /// iteration count. The nominal path borrows all problem data
    /// through a [`QpView`] (no clones) and declares the problem's
    /// horizon structure so the QP can pick the banded KKT backend. It
    /// starts from the multipliers in `warm` when they fit, with slacks
    /// and duals lifted to `warm_floor`; a warm attempt that fails is
    /// re-solved cold at nominal regularization, its iterations reported
    /// through `warm_restart`, and the outcome of that cold solve is
    /// what counts from here on. A numerically
    /// failed nominal solve (singular KKT mid-IPM) is retried with
    /// heavily boosted Hessian regularization — a degenerate active-set
    /// guess usually just needs a better-conditioned system — before
    /// falling back to elastic mode on the same view
    /// ([`QpSolver::solve_view_elastic`]). `warm` ends up holding this
    /// subproblem's multipliers when a nominal solve succeeded, and
    /// empty otherwise.
    #[allow(clippy::too_many_arguments, clippy::type_complexity)]
    fn solve_subproblem(
        &self,
        qp_solver: &QpSolver,
        b: &Matrix,
        grad: &[f64],
        j_eq: &SparseMatrix,
        neg_c_eq: &[f64],
        j_in: &SparseMatrix,
        neg_c_in: &[f64],
        penalty: f64,
        structure: Option<QpStructure>,
        warm: &mut QpWarmStart,
        warm_floor: f64,
        warm_restart: &mut Option<usize>,
        ipm: &mut IpmWorkspace,
    ) -> Result<(Vec<f64>, Vec<f64>, Vec<f64>, QpSubproblemStatus, usize), OptimError> {
        let n = grad.len();
        let me = neg_c_eq.len();
        let mi = neg_c_in.len();

        let mut qp = QpView::new(b, grad)?;
        if me > 0 {
            qp = qp.with_equalities(j_eq, neg_c_eq)?;
        }
        if mi > 0 {
            qp = qp.with_inequalities(j_in, neg_c_in)?;
        }
        if let Some(st) = structure {
            qp = qp.with_structure(st);
        }
        let origin = vec![0.0; n];
        let (nominal, restart) = qp_solver.solve_view_seeded(&qp, &origin, warm, warm_floor, ipm);
        *warm_restart = restart;
        let first = match nominal {
            Ok(sol) => {
                return Ok((
                    sol.z,
                    sol.y_eq,
                    sol.lambda_in,
                    QpSubproblemStatus::Nominal,
                    sol.iterations,
                ))
            }
            Err(
                e @ (OptimError::QpMaxIterations { .. }
                | OptimError::QpInfeasible { .. }
                | OptimError::QpUnbounded { .. }
                | OptimError::Linalg(_)),
            ) => {
                // Singular/ill-conditioned KKT mid-IPM: retry once with
                // boosted regularization before declaring the subproblem
                // inconsistent.
                let mut boosted = *qp_solver.options();
                boosted.regularization = boosted.regularization.max(1e-12) * 1e6;
                if let Ok(sol) = QpSolver::new(boosted).solve_view_in(&qp, &origin, ipm) {
                    warm.store(&sol.lambda_in);
                    return Ok((
                        sol.z,
                        sol.y_eq,
                        sol.lambda_in,
                        QpSubproblemStatus::RegularizationRetry,
                        sol.iterations,
                    ));
                }
                e
            }
            Err(e) => return Err(e),
        };
        match first {
            OptimError::QpMaxIterations { .. }
            | OptimError::QpInfeasible { .. }
            | OptimError::QpUnbounded { .. }
            | OptimError::Linalg(_) => {
                // Elastic mode: a slack t ≥ 0 on every constraint,
                // penalized linearly. Always feasible (t large enough).
                let sol = qp_solver.solve_view_elastic_in(&qp, 10.0 * penalty, ipm)?;
                // Map the multipliers of the elasticized rows back to the
                // original constraints: the first 2·me rows correspond to
                // the ±equality pair, the next mi to the inequalities.
                let mut y_eq = vec![0.0; me];
                for (r, y) in y_eq.iter_mut().enumerate() {
                    *y = sol.lambda_in[2 * r] - sol.lambda_in[2 * r + 1];
                }
                let lambda_in = sol.lambda_in[2 * me..2 * me + mi].to_vec();
                Ok((
                    sol.z[..n].to_vec(),
                    y_eq,
                    lambda_in,
                    QpSubproblemStatus::Elastic,
                    sol.iterations,
                ))
            }
            e => Err(e),
        }
    }
}

/// The warm floor of the subproblem that follows the step `d`:
/// `1e-3·‖d‖∞`, kept within `[1e-5, WARM_FLOOR]`. As the iterates settle
/// the steps shrink, and so do the slacks of the rows that turn active;
/// a floor at the step's scale keeps them small instead of lifting them
/// to 1e-3 (DESIGN.md, "In-solve warm start").
fn warm_floor_after(d: &[f64]) -> f64 {
    (1e-3 * vecops::norm_inf(d)).clamp(1e-5, WARM_FLOOR)
}

/// Second-order correction step: the minimum-norm solution of
/// `J_eq · d̂ = −c_eq(z + d)`, i.e. `d̂ = −J_eqᵀ (J_eq J_eqᵀ)⁻¹ c_eq(z+d)`.
/// Returns `None` when `J_eq J_eqᵀ` is singular.
fn second_order_correction(j_eq: &SparseMatrix, c_at_trial: &[f64]) -> Option<Vec<f64>> {
    let j_eq = j_eq.to_dense();
    let jjt = j_eq.matmul(&j_eq.transpose()).ok()?;
    let w = ev_linalg::Lu::factor(&jjt).ok()?.solve(c_at_trial).ok()?;
    let mut d_hat = j_eq.matvec_transposed(&w).ok()?;
    for v in &mut d_hat {
        *v = -*v;
    }
    Some(d_hat)
}

/// Multiplier magnitude above which an inequality row counts as active.
const ACTIVE_MULT_TOL: f64 = 1e-8;

/// Number of inequality multipliers meaningfully away from zero — the
/// size of the QP active set at the subproblem solution. Allocation-free;
/// the index list is only assembled for observers that ask
/// ([`SqpObserver::wants_active_set`]).
fn active_set_size(mult_in: &[f64]) -> usize {
    mult_in.iter().filter(|l| l.abs() > ACTIVE_MULT_TOL).count()
}

/// Indices of inequality multipliers meaningfully away from zero — the
/// QP active set at the subproblem solution, in row order.
fn active_set_indices(mult_in: &[f64]) -> Vec<usize> {
    mult_in
        .iter()
        .enumerate()
        .filter(|(_, l)| l.abs() > ACTIVE_MULT_TOL)
        .map(|(i, _)| i)
        .collect()
}

/// L1 constraint violation: `Σ|c_eq| + Σ max(0, c_in)`.
fn violation(c_eq: &[f64], c_in: &[f64]) -> f64 {
    c_eq.iter().map(|v| v.abs()).sum::<f64>() + c_in.iter().map(|v| v.max(0.0)).sum::<f64>()
}

/// Damped BFGS (Powell damping) on the `s.len() × s.len()` diagonal
/// sub-block of `b` starting at row/column `lo`, using the matching
/// slices of the step and gradient-difference vectors and `bs`, `r` (the
/// same length) as scratch. With `lo = 0` and full-length slices this is
/// the classic full-matrix update; structured problems call it once per
/// variable block so the approximation stays block-diagonal.
fn bfgs_update_block(
    b: &mut Matrix,
    s: &[f64],
    y: &[f64],
    lo: usize,
    bs: &mut [f64],
    r: &mut [f64],
) {
    let block = lo..lo + s.len();
    for (i, bsi) in bs.iter_mut().enumerate() {
        *bsi = vecops::dot(&b.row(lo + i)[block.clone()], s);
    }
    let sbs = vecops::dot(s, bs);
    if sbs <= 1e-14 || vecops::norm2(s) < 1e-14 {
        return;
    }
    let sy = vecops::dot(s, y);
    // Powell damping: blend y with Bs to keep the update positive definite.
    let theta = if sy >= 0.2 * sbs {
        1.0
    } else {
        0.8 * sbs / (sbs - sy)
    };
    for ((ri, yi), bsi) in r.iter_mut().zip(y).zip(&*bs) {
        *ri = theta * yi + (1.0 - theta) * bsi;
    }
    let sr = vecops::dot(s, r);
    if sr <= 1e-14 {
        return;
    }
    // B ← B − (Bs)(Bs)ᵀ/sᵀBs + r rᵀ/sᵀr
    for (i, (bsi, ri)) in bs.iter().zip(&*r).enumerate() {
        let row = &mut b.row_mut(lo + i)[block.clone()];
        for ((v, bsj), rj) in row.iter_mut().zip(&*bs).zip(&*r) {
            *v += -bsi * bsj / sbs + ri * rj / sr;
        }
    }
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

    struct CircleMin;
    impl NlpProblem for CircleMin {
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

    struct BoxedQuadratic;
    impl NlpProblem for BoxedQuadratic {
        fn num_vars(&self) -> usize {
            2
        }
        fn objective(&self, z: &[f64]) -> f64 {
            (z[0] - 3.0).powi(2) + (z[1] + 2.0).powi(2)
        }
        fn num_ineq(&self) -> usize {
            4
        }
        fn ineq_constraints(&self, z: &[f64], out: &mut [f64]) {
            out[0] = z[0] - 1.0; // z0 ≤ 1
            out[1] = -z[0] - 1.0; // z0 ≥ −1
            out[2] = z[1] - 1.0; // z1 ≤ 1
            out[3] = -z[1] - 1.0; // z1 ≥ −1
        }
    }

    /// Bilinear objective/constraints like the HVAC MPC subproblem.
    struct BilinearHvacLike;
    impl NlpProblem for BilinearHvacLike {
        fn num_vars(&self) -> usize {
            2 // (flow, temperature-delta)
        }
        fn objective(&self, z: &[f64]) -> f64 {
            // Power ∝ flow · Δtemp, plus quadratic comfort penalty.
            let power = z[0] * z[1];
            power + 4.0 * (z[0] * z[1] - 1.0).powi(2)
        }
        fn num_ineq(&self) -> usize {
            4
        }
        fn ineq_constraints(&self, z: &[f64], out: &mut [f64]) {
            out[0] = 0.05 - z[0]; // flow ≥ 0.05
            out[1] = z[0] - 0.5; // flow ≤ 0.5
            out[2] = -z[1]; // Δtemp ≥ 0
            out[3] = z[1] - 30.0; // Δtemp ≤ 30
        }
    }

    #[test]
    fn unconstrained_rosenbrock() {
        let opts = SqpOptions {
            max_iterations: 300,
            tolerance: 1e-8,
            ..SqpOptions::default()
        };
        let r = SqpSolver::new(opts)
            .solve(&Rosenbrock, &[-1.2, 1.0])
            .unwrap();
        assert!(
            (r.z[0] - 1.0).abs() < 1e-3 && (r.z[1] - 1.0).abs() < 1e-3,
            "{:?} {:?}",
            r.z,
            r.status
        );
    }

    #[test]
    fn equality_constrained_circle() {
        // min z0+z1 on circle radius √2 → (−1, −1).
        let r = SqpSolver::default().solve(&CircleMin, &[1.0, 0.5]).unwrap();
        assert!((r.z[0] + 1.0).abs() < 1e-4, "{:?} {:?}", r.z, r.status);
        assert!((r.z[1] + 1.0).abs() < 1e-4);
        assert!(r.constraint_violation < 1e-5);
    }

    #[test]
    fn box_constrained_quadratic() {
        let r = SqpSolver::default()
            .solve(&BoxedQuadratic, &[0.0, 0.0])
            .unwrap();
        assert!(r.is_converged(), "{:?}", r.status);
        assert!((r.z[0] - 1.0).abs() < 1e-5);
        assert!((r.z[1] + 1.0).abs() < 1e-5);
    }

    #[test]
    fn bilinear_problem_stays_feasible() {
        let r = SqpSolver::default()
            .solve(&BilinearHvacLike, &[0.1, 5.0])
            .unwrap();
        assert!(r.z[0] >= 0.05 - 1e-6 && r.z[0] <= 0.5 + 1e-6, "{:?}", r.z);
        assert!(r.z[1] >= -1e-6 && r.z[1] <= 30.0 + 1e-6);
        // Optimum trades power (flow·Δt) against the (flow·Δt − 1)² pull:
        // product should settle near 1 − 1/8.
        let product = r.z[0] * r.z[1];
        assert!((product - 0.875).abs() < 1e-2, "product {product}");
    }

    #[test]
    fn infeasible_start_recovers() {
        // Start far outside the box; elastic/merit machinery must pull in.
        let r = SqpSolver::default()
            .solve(&BoxedQuadratic, &[50.0, -50.0])
            .unwrap();
        assert!((r.z[0] - 1.0).abs() < 1e-4, "{:?} {:?}", r.z, r.status);
        assert!((r.z[1] + 1.0).abs() < 1e-4);
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let err = SqpSolver::default().solve(&Rosenbrock, &[0.0]).unwrap_err();
        assert!(matches!(err, OptimError::DimensionMismatch { .. }));
    }

    #[test]
    fn non_finite_start_is_reported() {
        let err = SqpSolver::default()
            .solve(&Rosenbrock, &[f64::NAN, 0.0])
            .unwrap_err();
        assert!(matches!(err, OptimError::NonFiniteData));
    }

    #[test]
    fn already_optimal_converges_immediately() {
        let r = SqpSolver::default()
            .solve(&BoxedQuadratic, &[1.0, -1.0])
            .unwrap();
        assert!(r.is_converged());
        assert!(r.iterations <= 2, "iterations {}", r.iterations);
    }

    /// An NLP whose equality constraint is unsatisfiable: c(z) = z² + 1.
    struct Impossible;
    impl NlpProblem for Impossible {
        fn num_vars(&self) -> usize {
            1
        }
        fn objective(&self, z: &[f64]) -> f64 {
            z[0] * z[0]
        }
        fn num_eq(&self) -> usize {
            1
        }
        fn eq_constraints(&self, z: &[f64], out: &mut [f64]) {
            out[0] = z[0] * z[0] + 1.0;
        }
    }

    #[test]
    fn infeasible_equalities_return_best_effort_not_panic() {
        // The elastic subproblem always has a solution; the solver must
        // terminate with a finite iterate and report the residual
        // violation instead of diverging or panicking.
        let r = SqpSolver::default().solve(&Impossible, &[3.0]).unwrap();
        assert!(r.z[0].is_finite());
        assert!(
            r.constraint_violation >= 1.0 - 1e-6,
            "violation cannot drop below 1: {}",
            r.constraint_violation
        );
        assert!(!r.is_converged());
        // Best effort: the unconstrained pull toward 0 shows through.
        assert!(r.z[0].abs() < 3.0 + 1e-9);
    }

    #[test]
    fn starved_line_search_stalls_gracefully() {
        let opts = SqpOptions {
            max_line_search: 1,
            max_iterations: 5,
            ..SqpOptions::default()
        };
        // Rosenbrock from the classic hard start: with one backtracking
        // step per iteration the solver may stall — it must still return
        // a finite result with an honest status.
        let r = SqpSolver::new(opts)
            .solve(&Rosenbrock, &[-1.2, 1.0])
            .unwrap();
        assert!(r.z.iter().all(|v| v.is_finite()));
        assert!(matches!(
            r.status,
            SqpStatus::Converged | SqpStatus::MaxIterations | SqpStatus::LineSearchStalled
        ));
    }

    #[test]
    fn observer_sees_every_iteration_and_does_not_perturb() {
        use crate::SqpTraceObserver;
        let solver = SqpSolver::default();
        let plain = solver.solve(&BoxedQuadratic, &[0.0, 0.0]).unwrap();
        let mut trace = SqpTraceObserver::default();
        let observed = solver
            .solve_observed(&BoxedQuadratic, &[0.0, 0.0], &mut trace)
            .unwrap();
        // Observation must not change the iterate path at all.
        assert_eq!(plain.z, observed.z);
        assert_eq!(plain.iterations, observed.iterations);
        assert_eq!(plain.status, observed.status);
        // One record per major iteration, including the converging one.
        assert_eq!(trace.records.len(), observed.iterations + 1);
        let last = trace.records.last().unwrap();
        assert!(last.accepted);
        assert!(last.step_norm <= 1e-5 || last.constraint_violation <= 1e-5);
        assert!(trace
            .records
            .iter()
            .all(|r| r.qp_status == QpSubproblemStatus::Nominal));
        // Both box constraints are active at the optimum, and the index
        // list names them in row order and agrees with the size.
        assert_eq!(last.active_set_size, 2);
        assert_eq!(last.active_set.len(), last.active_set_size);
        assert!(last.active_set.windows(2).all(|w| w[0] < w[1]));
        // Accepted full steps report α = 1.
        assert!(trace
            .records
            .iter()
            .filter(|r| r.accepted && r.line_search_steps == 1)
            .all(|r| r.step_length == 1.0));
    }

    #[test]
    fn count_only_observer_gets_size_without_index_list() {
        // A metrics-style observer that does not opt into the index list
        // must still see the active-set size, but receive an empty (and
        // therefore unallocated) `active_set`.
        struct CountOnly {
            sizes: Vec<usize>,
            index_lists_seen: usize,
        }
        impl SqpObserver for CountOnly {
            fn on_iteration(&mut self, record: &SqpIterationRecord) {
                self.sizes.push(record.active_set_size);
                self.index_lists_seen += usize::from(!record.active_set.is_empty());
            }
        }
        let solver = SqpSolver::default();
        let mut count_only = CountOnly {
            sizes: Vec::new(),
            index_lists_seen: 0,
        };
        let r = solver
            .solve_observed(&BoxedQuadratic, &[0.0, 0.0], &mut count_only)
            .unwrap();
        assert!(r.is_converged());
        // Both box constraints are active at the optimum.
        assert_eq!(*count_only.sizes.last().unwrap(), 2);
        assert_eq!(count_only.index_lists_seen, 0);
    }

    /// Everything a solve reports, as bits.
    fn result_bits(r: &SqpResult) -> (Vec<u64>, u64, SqpStatus, usize, u64) {
        (
            r.z.iter().map(|v| v.to_bits()).collect(),
            r.objective.to_bits(),
            r.status,
            r.iterations,
            r.constraint_violation.to_bits(),
        )
    }

    #[test]
    fn solve_is_solve_cached_from_a_fresh_cache() {
        let solver = SqpSolver::default();
        let cases: [(&dyn NlpProblem, &[f64]); 4] = [
            (&BoxedQuadratic, &[50.0, -50.0]),
            (&BilinearHvacLike, &[0.1, 5.0]),
            (&CircleMin, &[1.0, 0.5]),
            (&Impossible, &[3.0]),
        ];
        for (p, z0) in cases {
            let plain = solver.solve(p, z0).unwrap();
            let mut warm = QpWarmStart::new();
            let cached = solver
                .solve_cached(p, z0, &mut warm, NoopSqpObserver)
                .unwrap();
            assert_eq!(result_bits(&plain), result_bits(&cached));
        }
    }

    #[test]
    fn subproblems_after_the_first_start_warm() {
        let mut trace = crate::SqpTraceObserver::default();
        SqpSolver::default()
            .solve_observed(&BilinearHvacLike, &[0.1, 5.0], &mut trace)
            .unwrap();
        let iters: Vec<usize> = trace.records.iter().map(|r| r.qp_iterations).collect();
        assert!(iters.len() > 2, "{iters:?}");
        // Converged subproblems re-seed the next one, which then needs
        // fewer interior-point iterations than the cold first one.
        assert!(iters[1..].iter().all(|&k| k < iters[0]), "{iters:?}");
        assert!(trace.records.iter().all(|r| r.qp_warm_restart.is_none()));
    }

    #[test]
    fn failed_warm_attempt_is_solved_cold_and_reported() {
        // A cache no converged solve could leave: the warm attempt breaks
        // down at once and the subproblem is solved cold, so the whole
        // solve is the one a fresh cache gives.
        let solver = SqpSolver::default();
        let plain = solver.solve(&BoxedQuadratic, &[50.0, -50.0]).unwrap();
        let mut poisoned = QpWarmStart::new();
        poisoned.store(&[f64::INFINITY; 4]);
        let mut trace = crate::SqpTraceObserver::default();
        let cached = solver
            .solve_cached(&BoxedQuadratic, &[50.0, -50.0], &mut poisoned, &mut trace)
            .unwrap();
        assert_eq!(result_bits(&plain), result_bits(&cached));
        let first = &trace.records[0];
        let spent = first.qp_warm_restart.expect("the warm attempt failed");
        assert!(spent < solver.options().qp.max_iterations, "{spent}");
        assert_eq!(first.qp_status, QpSubproblemStatus::Nominal);
        assert!(trace.records[1..]
            .iter()
            .all(|r| r.qp_warm_restart.is_none()));
        // The cache now holds the last subproblem's multipliers.
        assert!(poisoned.is_warm());
    }

    /// Forwards to an NLP and logs the point of every gradient and
    /// Jacobian evaluation, as bits.
    struct Logged<'a> {
        inner: &'a dyn NlpProblem,
        log: std::cell::RefCell<Vec<(&'static str, Vec<u64>)>>,
    }

    impl Logged<'_> {
        fn note(&self, what: &'static str, z: &[f64]) {
            let bits = z.iter().map(|v| v.to_bits()).collect();
            self.log.borrow_mut().push((what, bits));
        }

        fn points(&self, what: &str) -> Vec<Vec<u64>> {
            let log = self.log.borrow();
            log.iter()
                .filter(|(w, _)| *w == what)
                .map(|(_, z)| z.clone())
                .collect()
        }
    }

    impl NlpProblem for Logged<'_> {
        fn num_vars(&self) -> usize {
            self.inner.num_vars()
        }
        fn objective(&self, z: &[f64]) -> f64 {
            self.inner.objective(z)
        }
        fn gradient(&self, z: &[f64], grad: &mut [f64]) {
            self.note("gradient", z);
            self.inner.gradient(z, grad);
        }
        fn num_eq(&self) -> usize {
            self.inner.num_eq()
        }
        fn eq_constraints(&self, z: &[f64], out: &mut [f64]) {
            self.inner.eq_constraints(z, out);
        }
        fn eq_jacobian(&self, z: &[f64]) -> Matrix {
            self.note("eq_jacobian", z);
            self.inner.eq_jacobian(z)
        }
        fn num_ineq(&self) -> usize {
            self.inner.num_ineq()
        }
        fn ineq_constraints(&self, z: &[f64], out: &mut [f64]) {
            self.inner.ineq_constraints(z, out);
        }
        fn ineq_jacobian(&self, z: &[f64]) -> Matrix {
            self.note("ineq_jacobian", z);
            self.inner.ineq_jacobian(z)
        }
    }

    #[test]
    fn jacobian_reuse_matches_the_recompute_path() {
        // Result bits of `SqpSolver::solve` from the implementation that
        // re-evaluated both Jacobians at the top of every major iteration,
        // run with the step-scaled warm floor: (z, objective, iterations,
        // status, violation).
        let h = f64::from_bits;
        let rosenbrock = SqpSolver::new(SqpOptions {
            max_iterations: 300,
            tolerance: 1e-8,
            ..SqpOptions::default()
        });
        let default = SqpSolver::default();
        #[allow(clippy::type_complexity)]
        let recompute: [(
            &SqpSolver,
            &dyn NlpProblem,
            &[f64],
            &[f64],
            f64,
            usize,
            SqpStatus,
            f64,
        ); 6] = [
            (
                &rosenbrock,
                &Rosenbrock,
                &[-1.2, 1.0],
                &[h(0x3fef_ffff_ff88_2668), h(0x3fef_ffff_ff00_20ab)],
                h(0x3c43_c8d9_7fa0_2080),
                46,
                SqpStatus::Converged,
                -0.0,
            ),
            (
                &default,
                &CircleMin,
                &[1.0, 0.5],
                &[h(0xbfef_ffff_f00d_b92e), h(0xbff0_0000_0801_ba2d)],
                h(0xc000_0000_0004_4b62),
                14,
                SqpStatus::Converged,
                h(0x3df1_2d90_0000_0000),
            ),
            (
                &default,
                &BoxedQuadratic,
                &[50.0, -50.0],
                &[h(0x3fef_ffff_ff79_7486), h(0xbfef_ffff_ffb3_780a)],
                h(0x4014_0000_0056_67ba),
                2,
                SqpStatus::Converged,
                0.0,
            ),
            (
                &default,
                &BilinearHvacLike,
                &[0.1, 5.0],
                &[h(0x3fc6_aa6e_ace4_72f0), h(0x4013_c3fb_b55d_455e)],
                h(0x3fee_0000_0003_4e97),
                4,
                SqpStatus::Converged,
                0.0,
            ),
            (
                &default,
                &Impossible,
                &[3.0],
                &[h(0xbd9e_2259_3030_b4f9)],
                h(0x3b4c_608c_18da_4f2b),
                22,
                SqpStatus::LineSearchStalled,
                1.0,
            ),
            (
                &default,
                &BoxedQuadratic,
                &[0.0, 0.0],
                &[h(0x3fef_ffff_f949_a242), h(0xbfef_ffff_f8a5_6852)],
                h(0x4014_0000_0531_d4cc),
                1,
                SqpStatus::Converged,
                0.0,
            ),
        ];
        for (solver, p, z0, z, objective, iterations, status, violation) in recompute {
            let logged = Logged {
                inner: p,
                log: std::cell::RefCell::default(),
            };
            let r = solver.solve(&logged, z0).unwrap();
            let expected = SqpResult {
                z: z.to_vec(),
                objective,
                status,
                iterations,
                constraint_violation: violation,
            };
            assert_eq!(result_bits(&r), result_bits(&expected));
            // The gradient is evaluated at the start point and at every
            // accepted trial point; each Jacobian with rows is evaluated
            // exactly there too, once per iterate.
            let iterates = logged.points("gradient");
            assert!(iterates.len() > 1);
            for (jacobian, rows) in [("eq_jacobian", p.num_eq()), ("ineq_jacobian", p.num_ineq())] {
                let evaluated = logged.points(jacobian);
                if rows > 0 {
                    assert_eq!(evaluated, iterates, "{jacobian}");
                } else {
                    assert_eq!(evaluated, iterates[..1], "{jacobian}");
                }
            }
        }
    }

    #[test]
    fn bfgs_update_keeps_descent_usable() {
        let mut b = Matrix::identity(2);
        let (mut bs, mut r) = ([0.0; 2], [0.0; 2]);
        bfgs_update_block(&mut b, &[1.0, 0.0], &[2.0, 0.0], 0, &mut bs, &mut r);
        // Curvature along s doubled.
        assert!((b.get(0, 0) - 2.0).abs() < 1e-12);
        // Degenerate inputs are no-ops.
        let before = b.clone();
        bfgs_update_block(&mut b, &[0.0, 0.0], &[1.0, 1.0], 0, &mut bs, &mut r);
        assert_eq!(b, before);
    }
}
