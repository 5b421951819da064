//! Convex quadratic programming by an infeasible-start primal-dual
//! interior-point method (Mehrotra predictor–corrector).
//!
//! A QP is posed as a [`QpView`]: a dense Hessian and constraint rows in
//! CSR form ([`SparseMatrix`]). The reduced KKT system
//! `[H + CᵀWC, A_eqᵀ; A_eq, −δI]` is assembled from those rows and
//! factored by one of three interchangeable backends: dense Cholesky (the
//! default whenever there is no equality block, so the reduced matrix is
//! SPD), dense LU (for equality blocks, and the fallback when Cholesky
//! rejects a pivot), or — when the problem declares its horizon structure
//! via [`QpStructure`] — a banded LDLᵀ under a stage-interleaved
//! permutation, making each interior-point iteration `O(N)` in the
//! horizon length. The SQP's elastic retries
//! ([`QpSolver::solve_view_elastic`]) pose their slack relaxation as one
//! more view, so the interior point and its KKT workspace serve a single
//! kind of QP.

use ev_linalg::{vecops, BandedCholesky, BandedMatrix, Cholesky, Lu, Matrix, SparseMatrix};

use crate::OptimError;

/// Declares the block-banded horizon structure of a QP.
///
/// Decision variables are grouped into consecutive stage blocks of
/// [`vars_per_block`](Self::vars_per_block); equality constraints into
/// consecutive blocks of [`eq_per_block`](Self::eq_per_block), one block
/// per stage. A constraint row (equality or inequality) may reference
/// variables of its own stage and of at most [`lookback`](Self::lookback)
/// preceding stages.
///
/// Under the stage-interleaved unknown ordering `[z₀, ν₀, z₁, ν₁, …]` the
/// reduced KKT matrix then has bandwidth
/// `(lookback + 1)·(vars_per_block + eq_per_block) − 1`, which the solver
/// factors with [`ev_linalg::BandedCholesky`] in time linear in the number
/// of stages. Structure is advisory: if the declared shape does not match
/// the supplied Jacobians the solver silently falls back to the dense
/// path, which remains the correctness oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QpStructure {
    /// Decision variables per stage block.
    pub vars_per_block: usize,
    /// Equality constraints per stage block (zero for purely
    /// inequality-constrained stages).
    pub eq_per_block: usize,
    /// How many preceding stage blocks a constraint row may reference.
    pub lookback: usize,
}

impl QpStructure {
    /// Bandwidth of the stage-interleaved reduced KKT matrix.
    #[must_use]
    pub fn bandwidth(&self) -> usize {
        (self.lookback + 1) * (self.vars_per_block + self.eq_per_block) - 1
    }
}

/// Which factorization backend produced a [`QpSolution`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QpKktBackend {
    /// Dense LU with partial pivoting: systems with an equality block,
    /// and the fallback when Cholesky rejects a pivot.
    DenseLu,
    /// Dense Cholesky on the SPD reduced system (no equality block).
    DenseCholesky,
    /// Banded LDLᵀ under the stage-interleaved permutation declared by
    /// [`QpStructure`].
    Banded,
}

/// `out += coeff · row_i` of CSR rows (`out` has one entry per column).
pub(crate) fn add_scaled_row(a: &SparseMatrix, i: usize, coeff: f64, out: &mut [f64]) {
    let (cols, vals) = a.row(i);
    for (c, v) in cols.iter().zip(vals) {
        out[*c] += coeff * v;
    }
}

/// `out = A·x` for CSR rows whose shape the view checked.
pub(crate) fn rows_matvec(a: &SparseMatrix, x: &[f64], out: &mut [f64]) {
    a.matvec(x, out).expect("dimensions checked at view build");
}

/// Curvature `δ` the elastic relaxation puts on every slack, keeping its
/// Hessian positive definite.
const ELASTIC_CURVATURE: f64 = 1e-8;

/// The floor a warm start lifts its slacks and duals to: the value
/// [`QpSolver::solve_view_warm`] uses, and the largest one the SQP passes
/// [`QpSolver::solve_view_seeded`] (DESIGN.md, "In-solve warm start").
pub(crate) const WARM_FLOOR: f64 = 1e-3;

/// A convex quadratic program
///
/// ```text
/// minimize    ½ zᵀ H z + gᵀ z
/// subject to  A_eq z = b_eq
///             A_in z ≤ b_in
/// ```
///
/// posed over borrowed data: a dense Hessian `H` and constraint rows in
/// CSR form. Owners of QP data keep it and build a view to solve it; the
/// SQP solver builds one per major iteration over its Hessian
/// approximation and Jacobians, so nothing is cloned.
///
/// `H` must be symmetric positive semidefinite; the solver adds a tiny
/// Levenberg regularization so semidefinite Hessians (common in MPC, where
/// some inputs do not enter the cost) are handled without special cases.
///
/// # Examples
///
/// ```
/// use ev_optim::{QpSolver, QpView};
/// use ev_linalg::{Matrix, SparseMatrix};
///
/// # fn main() -> Result<(), ev_optim::OptimError> {
/// // min (z-3)² s.t. z ≤ 1.
/// let h = Matrix::from_diag(&[2.0]);
/// let g = [-6.0];
/// let a = SparseMatrix::from_dense(&Matrix::from_diag(&[1.0]));
/// let b = [1.0];
/// let view = QpView::new(&h, &g)?.with_inequalities(&a, &b)?;
/// let sol = QpSolver::default().solve_view(&view)?;
/// assert!((sol.z[0] - 1.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct QpView<'a> {
    h: &'a Matrix,
    g: &'a [f64],
    a_eq: Option<&'a SparseMatrix>,
    b_eq: &'a [f64],
    a_in: Option<&'a SparseMatrix>,
    b_in: &'a [f64],
    structure: Option<QpStructure>,
}

impl<'a> QpView<'a> {
    /// Symmetry tolerance for the Hessian check, relative to its magnitude.
    const SYM_TOL: f64 = 1e-8;

    /// Creates an unconstrained view from the Hessian `h` and linear
    /// term `g`.
    ///
    /// # Errors
    ///
    /// Returns [`OptimError::DimensionMismatch`] if `h` is not square with
    /// side `g.len()`, [`OptimError::AsymmetricHessian`] if `h` is not
    /// symmetric, and [`OptimError::NonFiniteData`] on NaN/∞ entries.
    pub fn new(h: &'a Matrix, g: &'a [f64]) -> Result<Self, OptimError> {
        if !h.is_square() || h.rows() != g.len() {
            return Err(OptimError::DimensionMismatch { what: "H vs g" });
        }
        if !h.is_symmetric(Self::SYM_TOL * h.norm_max().max(1.0)) {
            return Err(OptimError::AsymmetricHessian);
        }
        if h.as_slice().iter().any(|v| !v.is_finite()) || g.iter().any(|v| !v.is_finite()) {
            return Err(OptimError::NonFiniteData);
        }
        Ok(Self {
            h,
            g,
            a_eq: None,
            b_eq: &[],
            a_in: None,
            b_in: &[],
            structure: None,
        })
    }

    /// Adds the equality constraints `a_eq · z = b_eq`; together with
    /// [`QpView::with_structure`] they can take the banded KKT backend.
    ///
    /// # Errors
    ///
    /// Returns [`OptimError::DimensionMismatch`] if shapes are inconsistent
    /// and [`OptimError::NonFiniteData`] on NaN/∞ entries.
    pub fn with_equalities(
        mut self,
        a_eq: &'a SparseMatrix,
        b_eq: &'a [f64],
    ) -> Result<Self, OptimError> {
        check_rows(a_eq, b_eq, self.num_vars(), "A_eq vs b_eq")?;
        self.a_eq = Some(a_eq);
        self.b_eq = b_eq;
        Ok(self)
    }

    /// Adds the inequality constraints `a_in · z ≤ b_in`.
    ///
    /// # Errors
    ///
    /// Returns [`OptimError::DimensionMismatch`] if shapes are inconsistent
    /// and [`OptimError::NonFiniteData`] on NaN/∞ entries.
    pub fn with_inequalities(
        mut self,
        a_in: &'a SparseMatrix,
        b_in: &'a [f64],
    ) -> Result<Self, OptimError> {
        check_rows(a_in, b_in, self.num_vars(), "A_in vs b_in")?;
        self.a_in = Some(a_in);
        self.b_in = b_in;
        Ok(self)
    }

    /// Declares the block-banded horizon structure of this problem (see
    /// [`QpStructure`]).
    #[must_use]
    pub fn with_structure(mut self, structure: QpStructure) -> Self {
        self.structure = Some(structure);
        self
    }

    /// The declared horizon structure, if any.
    #[inline]
    #[must_use]
    pub fn structure(&self) -> Option<QpStructure> {
        self.structure
    }

    /// Number of decision variables.
    #[inline]
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.g.len()
    }

    /// Number of equality constraints.
    #[inline]
    #[must_use]
    pub fn num_eq(&self) -> usize {
        self.b_eq.len()
    }

    /// Number of inequality constraints.
    #[inline]
    #[must_use]
    pub fn num_ineq(&self) -> usize {
        self.b_in.len()
    }

    /// Evaluates the objective `½ zᵀHz + gᵀz`.
    ///
    /// # Panics
    ///
    /// Panics if `z.len() != num_vars()`.
    #[must_use]
    pub fn objective(&self, z: &[f64]) -> f64 {
        let hz = self.h.matvec(z).expect("dimension checked at construction");
        0.5 * vecops::dot(z, &hz) + vecops::dot(self.g, z)
    }

    /// The Hessian (crate-internal, for the KKT verifier).
    pub(crate) fn h(&self) -> &Matrix {
        self.h
    }

    /// The linear term (crate-internal, for the KKT verifier).
    pub(crate) fn g(&self) -> &[f64] {
        self.g
    }

    /// The equality rows, if any were added (crate-internal).
    pub(crate) fn a_eq(&self) -> Option<&'a SparseMatrix> {
        self.a_eq
    }

    /// The equality right-hand side (crate-internal).
    pub(crate) fn b_eq(&self) -> &[f64] {
        self.b_eq
    }

    /// The inequality rows, if any were added (crate-internal).
    pub(crate) fn a_in(&self) -> Option<&'a SparseMatrix> {
        self.a_in
    }

    /// The inequality right-hand side (crate-internal).
    pub(crate) fn b_in(&self) -> &[f64] {
        self.b_in
    }

    /// The bandwidth the banded KKT backend would actually factor at for
    /// this problem, or `None` when the declared structure is missing or
    /// inconsistent with the supplied Jacobians (the dense path would be
    /// used).
    ///
    /// This is the *measured* bandwidth — the widest coupling the
    /// Jacobians and Hessian really contain under the stage-interleaved
    /// ordering — which is at most [`QpStructure::bandwidth`], the
    /// declared worst case. The solver battery cross-checks the two to
    /// catch structure declarations that silently disable the banded
    /// backend.
    #[must_use]
    pub fn planned_bandwidth(&self) -> Option<usize> {
        banded_plan(self).map(|(_, w)| w)
    }
}

/// Checks a constraint block against `n` variables: `a` has `n` columns
/// and one row per entry of `b`, and every stored entry and right-hand
/// side is finite. Every entry is tested: a NaN passes a max-norm test.
fn check_rows(a: &SparseMatrix, b: &[f64], n: usize, what: &'static str) -> Result<(), OptimError> {
    if a.cols() != n || a.rows() != b.len() {
        return Err(OptimError::DimensionMismatch { what });
    }
    let finite = (0..a.rows()).all(|r| a.row(r).1.iter().all(|v| v.is_finite()));
    if !finite || b.iter().any(|v| !v.is_finite()) {
        return Err(OptimError::NonFiniteData);
    }
    Ok(())
}

/// Solution of a QP: the minimizer and its Lagrange multipliers.
#[derive(Debug, Clone)]
pub struct QpSolution {
    /// The primal minimizer.
    pub z: Vec<f64>,
    /// Multipliers of the equality constraints.
    pub y_eq: Vec<f64>,
    /// Multipliers of the inequality constraints (non-negative).
    pub lambda_in: Vec<f64>,
    /// Objective value at `z`.
    pub objective: f64,
    /// Interior-point iterations used.
    pub iterations: usize,
    /// Which KKT factorization backend produced the final iterate.
    pub kkt_backend: QpKktBackend,
}

/// Reusable interior-point warm-start state for
/// [`QpSolver::solve_view_warm`].
///
/// Holds the inequality multipliers of the last successful solve, so the
/// next QP restarts near its active set: [`crate::SqpSolver`] threads one
/// through the subproblems of every solve. The cache is purely an
/// accelerator: solves that fail leave it empty (the next solve is cold),
/// and a dimension mismatch is ignored.
#[derive(Debug, Clone, Default)]
pub struct QpWarmStart {
    lam: Vec<f64>,
}

impl QpWarmStart {
    /// An empty cache; the first solve through it starts cold.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops the cached multipliers so the next solve starts cold.
    pub fn clear(&mut self) {
        self.lam.clear();
    }

    /// Whether a previous solve has deposited multipliers.
    #[must_use]
    pub fn is_warm(&self) -> bool {
        !self.lam.is_empty()
    }

    /// Replaces the cached multipliers with `lam`.
    pub(crate) fn store(&mut self, lam: &[f64]) {
        self.lam.clear();
        self.lam.extend_from_slice(lam);
    }
}

/// Options for the interior-point QP solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QpSolverOptions {
    /// Convergence tolerance on the complementarity measure and residuals.
    pub tolerance: f64,
    /// Maximum interior-point iterations.
    pub max_iterations: usize,
    /// Levenberg regularization added to the Hessian diagonal.
    pub regularization: f64,
    /// Factor a reduced KKT matrix without an equality block (then SPD)
    /// by dense Cholesky, falling back to LU only when Cholesky rejects a
    /// pivot. On by default: it costs half of LU, and LU's global pivot
    /// test misreads the well-posed but widely scaled systems of an
    /// iterate near its active set as singular. `false` makes dense LU
    /// factor every system, the reference the solver battery
    /// (`ev-qpbattery`) compares the other backends against.
    pub prefer_dense_cholesky: bool,
}

impl Default for QpSolverOptions {
    fn default() -> Self {
        Self {
            tolerance: 1e-8,
            max_iterations: 100,
            regularization: 1e-10,
            prefer_dense_cholesky: true,
        }
    }
}

/// Infeasible-start primal-dual interior-point solver for convex QPs.
///
/// Implements the Mehrotra predictor–corrector scheme with one
/// factorization of the reduced KKT system per iteration, shared by the
/// predictor and corrector solves. Designed as the subproblem engine of
/// [`crate::SqpSolver`] but fully usable on its own.
///
/// # Examples
///
/// ```
/// use ev_optim::{QpSolver, QpView};
/// use ev_linalg::{Matrix, SparseMatrix};
///
/// # fn main() -> Result<(), ev_optim::OptimError> {
/// // Projection of (2, 0) onto the unit box [−1, 1]².
/// let h = Matrix::from_diag(&[2.0, 2.0]);
/// let g = [-4.0, 0.0];
/// let a = SparseMatrix::from_dense(&Matrix::from_rows(&[
///     &[1.0, 0.0], &[-1.0, 0.0], &[0.0, 1.0], &[0.0, -1.0],
/// ]).unwrap());
/// let b = [1.0; 4];
/// let view = QpView::new(&h, &g)?.with_inequalities(&a, &b)?;
/// let sol = QpSolver::default().solve_view(&view)?;
/// assert!((sol.z[0] - 1.0).abs() < 1e-6);
/// assert!(sol.z[1].abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct QpSolver {
    options: QpSolverOptions,
}

impl QpSolver {
    /// Creates a solver with the given options.
    #[must_use]
    pub fn new(options: QpSolverOptions) -> Self {
        Self { options }
    }

    /// Borrows the solver options.
    #[must_use]
    pub fn options(&self) -> &QpSolverOptions {
        &self.options
    }

    /// Solves the QP starting from the origin.
    ///
    /// # Errors
    ///
    /// Returns [`OptimError::QpMaxIterations`] when the KKT residuals do
    /// not meet tolerance within the iteration budget (typically an
    /// infeasible or unbounded problem) and propagates factorization
    /// failures as [`OptimError::Linalg`].
    pub fn solve_view(&self, view: &QpView<'_>) -> Result<QpSolution, OptimError> {
        let z0 = vec![0.0; view.num_vars()];
        self.solve_view_in(view, &z0, &mut IpmWorkspace::default())
    }

    /// Solves a borrowed-view QP from the primal point `z0` in a
    /// caller-owned workspace.
    pub(crate) fn solve_view_in(
        &self,
        problem: &QpView<'_>,
        z0: &[f64],
        ws: &mut IpmWorkspace,
    ) -> Result<QpSolution, OptimError> {
        self.solve_view_inner(problem, z0, None, &mut 0, ws)
    }

    /// Solves a borrowed-view QP from a warm-start primal point `z0`,
    /// seeding the interior-point duals from `warm` and depositing the
    /// converged multipliers back into it on success.
    ///
    /// Successive QP subproblems of an SQP solve share their active set
    /// almost verbatim, so restarting the interior-point method from the
    /// previous multipliers instead of the cold
    /// `(s, λ) = (max(b − Cz, 1), 1)` point typically halves the iteration
    /// count. The warm data is only an initial guess: a warm attempt that
    /// fails, or whose iterates stall, is abandoned and the QP re-solved
    /// cold with the full iteration budget, so a stale cache costs
    /// iterations, never the answer or its error class (a cache whose
    /// dimension does not match `num_ineq` is ignored entirely).
    ///
    /// # Errors
    ///
    /// Same as [`QpSolver::solve_view`]; additionally returns
    /// [`OptimError::DimensionMismatch`] if `z0.len() != num_vars()`.
    pub fn solve_view_warm(
        &self,
        problem: &QpView<'_>,
        z0: &[f64],
        warm: &mut QpWarmStart,
    ) -> Result<QpSolution, OptimError> {
        self.solve_view_seeded(problem, z0, warm, WARM_FLOOR, &mut IpmWorkspace::default())
            .0
    }

    /// [`QpSolver::solve_view_warm`] in a caller-owned workspace, with
    /// the warm start's slacks and duals lifted to at least `floor`
    /// (cold starts keep theirs), also reporting the interior-point
    /// iterations of a warm attempt that failed and was retried cold
    /// (`None` when the solve started cold or the warm attempt
    /// converged).
    pub(crate) fn solve_view_seeded(
        &self,
        problem: &QpView<'_>,
        z0: &[f64],
        warm: &mut QpWarmStart,
        floor: f64,
        ws: &mut IpmWorkspace,
    ) -> (Result<QpSolution, OptimError>, Option<usize>) {
        let mut restart = None;
        if warm.is_warm() && warm.lam.len() == problem.num_ineq() {
            let mut spent = 0;
            match self.solve_view_inner(problem, z0, Some((&warm.lam, floor)), &mut spent, ws) {
                Ok(sol) => {
                    warm.store(&sol.lambda_in);
                    return (Ok(sol), None);
                }
                Err(_) => restart = Some(spent),
            }
        }
        let cold = self.solve_view_in(problem, z0, ws);
        match &cold {
            Ok(sol) => warm.store(&sol.lambda_in),
            Err(_) => warm.clear(),
        }
        (cold, restart)
    }

    /// Solves the *elastic relaxation* of a borrowed-view QP: every
    /// constraint row gets a slack `t ≥ 0` priced linearly at
    /// `slack_weight`,
    ///
    /// ```text
    /// minimize    ½ dᵀHd + gᵀd + ½ δ‖t‖² + slack_weight · Σ t
    /// subject to  ±(A_eq d − b_eq)ᵣ ≤ tᵣ     (both signs share tᵣ)
    ///             (A_in d − b_in)ᵣ ≤ t_{me+r}
    ///             t ≥ 0
    /// ```
    ///
    /// with `δ = 1e-8`. The relaxation is feasible whatever the nominal
    /// rows are, which makes it the recovery path for inconsistent SQP
    /// linearizations.
    ///
    /// It is posed as an ordinary [`QpView`] over the `n + me + mi`
    /// unknowns `z = (d, t)` and solved like any other: Hessian
    /// `diag(H, δI)`, linear term `(g, slack_weight·1)` and no equality
    /// rows, the `3·me + 2·mi` inequality rows in the order above (the
    /// pair for equality `r` at `2r`, `2r + 1`, inequality `r` at
    /// `2·me + r`, then the slack bounds `−t ≤ 0`). It starts cold from
    /// `z = 0`; the view's structure declaration and any warm-start cache
    /// are not used. The returned solution is that QP's: `z` has
    /// `n + me + mi` entries, `y_eq` is empty and `lambda_in` holds the
    /// row multipliers in that order. A view with no constraints is
    /// solved as is.
    ///
    /// # Errors
    ///
    /// [`OptimError::NonFiniteData`] for a non-finite `slack_weight`;
    /// otherwise as [`QpSolver::solve_view`].
    pub fn solve_view_elastic(
        &self,
        problem: &QpView<'_>,
        slack_weight: f64,
    ) -> Result<QpSolution, OptimError> {
        self.solve_view_elastic_in(problem, slack_weight, &mut IpmWorkspace::default())
    }

    /// [`QpSolver::solve_view_elastic`] in a caller-owned workspace.
    pub(crate) fn solve_view_elastic_in(
        &self,
        problem: &QpView<'_>,
        slack_weight: f64,
        ws: &mut IpmWorkspace,
    ) -> Result<QpSolution, OptimError> {
        if !slack_weight.is_finite() {
            return Err(OptimError::NonFiniteData);
        }
        let (n, me, mi) = (problem.num_vars(), problem.num_eq(), problem.num_ineq());
        let nv = n + me + mi;
        let mut h = Matrix::zeros(nv, nv);
        for r in 0..n {
            h.row_mut(r)[..n].copy_from_slice(problem.h.row(r));
        }
        for k in n..nv {
            h.set(k, k, ELASTIC_CURVATURE);
        }
        let mut g = vec![slack_weight; nv];
        g[..n].copy_from_slice(problem.g);
        let mut a = SparseMatrix::new();
        a.reset(nv);
        let mut b = Vec::with_capacity(3 * me + 2 * mi);
        let mut push_row = |row: (&[usize], &[f64]), sign: f64, slack: usize, rhs: f64| {
            for (&c, &v) in row.0.iter().zip(row.1) {
                a.push(c, sign * v);
            }
            a.push(n + slack, -1.0);
            a.finish_row();
            b.push(sign * rhs);
        };
        for r in 0..me {
            let row = problem.a_eq.expect("me > 0 implies A_eq").row(r);
            push_row(row, 1.0, r, problem.b_eq[r]);
            push_row(row, -1.0, r, problem.b_eq[r]);
        }
        for r in 0..mi {
            let row = problem.a_in.expect("mi > 0 implies A_in").row(r);
            push_row(row, 1.0, me + r, problem.b_in[r]);
        }
        for k in 0..me + mi {
            push_row((&[], &[]), 1.0, k, 0.0);
        }
        let relaxed = QpView::new(&h, &g)?.with_inequalities(&a, &b)?;
        self.solve_view_in(&relaxed, &vec![0.0; nv], ws)
    }

    /// Solves from `z0`, cold or (with `warm`'s multipliers and floor)
    /// warm; `spent` receives the interior-point iterations performed.
    fn solve_view_inner(
        &self,
        problem: &QpView<'_>,
        z0: &[f64],
        warm: Option<(&[f64], f64)>,
        spent: &mut usize,
        ws: &mut IpmWorkspace,
    ) -> Result<QpSolution, OptimError> {
        if z0.len() != problem.num_vars() {
            return Err(OptimError::DimensionMismatch { what: "z0 vs H" });
        }
        // No inequalities: the KKT conditions are a single linear system.
        let Some(a_in) = problem.a_in.filter(|_| problem.num_ineq() > 0) else {
            return self.solve_equality_only(problem, problem.num_eq());
        };
        self.interior_point(problem, a_in, z0, warm, spent, ws)
    }

    /// The Mehrotra predictor–corrector loop over the view's inequality
    /// rows `a_in`, from the primal point `z0` and, when `warm` is given,
    /// the duals of a previous solve with the slack/dual floor to lift
    /// them to. A warm start gives up as soon as its iterates stall (see
    /// [`Stall`]) or Cholesky rejects a pivot of its KKT matrix; a cold
    /// one runs the full budget and falls back to LU. `spent` receives
    /// the iterations performed, whatever the outcome. Everything the
    /// loop touches lives in `ws`, resized to this solve and overwritten
    /// before it is read.
    fn interior_point(
        &self,
        problem: &QpView<'_>,
        a_in: &SparseMatrix,
        z0: &[f64],
        warm: Option<(&[f64], f64)>,
        spent: &mut usize,
        ws: &mut IpmWorkspace,
    ) -> Result<QpSolution, OptimError> {
        let n = problem.num_vars();
        let me = problem.num_eq();
        let mi = problem.num_ineq();
        let (g, a_eq, b_eq, b_in) = (problem.g, problem.a_eq, problem.b_eq, problem.b_in);
        ws.resize(n, me, mi);
        let IpmWorkspace {
            kkt,
            z,
            y,
            s,
            lam,
            hz,
            rd,
            rp,
            cz,
            rc,
            wvec,
            r_slam,
            rhs,
            dz,
            dy,
            ds,
            dlam,
            ds_aff,
            dlam_aff,
            cdz,
            jt,
            coeff,
            columns,
        } = ws;
        // Plain slices from here on: their pointers and lengths stay in
        // registers, where a `&mut Vec` would be re-read after every store.
        let [z, y, s, lam, hz, rd, rp, cz, rc, wvec, r_slam, rhs, dz, dy, ds, dlam, ds_aff, dlam_aff, cdz, jt, coeff] =
            [
                z, y, s, lam, hz, rd, rp, cz, rc, wvec, r_slam, rhs, dz, dy, ds, dlam, ds_aff,
                dlam_aff, cdz, jt, coeff,
            ]
            .map(Vec::as_mut_slice);
        kkt.prepare(problem, self.options.prefer_dense_cholesky, warm.is_none());
        columns.fill(a_in);
        let columns = &*columns;
        z.copy_from_slice(z0);
        y.fill(0.0);

        // Strictly positive slack/dual initialization: from the previous
        // solve's multipliers when warm (slacks re-derived from the
        // *current* constraint values so an infeasible start still yields
        // s > 0), both lifted to the warm floor, cold (s ≥ 1, λ = 1)
        // otherwise.
        rows_matvec(a_in, z, cz);
        let mut stall = warm.map(|_| Stall::default());
        let floor = warm.map_or(1.0, |(_, floor)| floor);
        for ((si, b), c) in s.iter_mut().zip(b_in).zip(cz.iter()) {
            *si = (b - c).max(floor);
        }
        match warm {
            Some((prev, _)) => {
                for (l, p) in lam.iter_mut().zip(prev) {
                    *l = p.max(floor);
                }
            }
            None => lam.fill(1.0),
        }

        // When the declared horizon structure comes with a truly
        // block-diagonal Hessian (the SQP's partitioned BFGS maintains
        // one), H·z shrinks from O(n²) to O(n·vb). Hand-built structured
        // problems may still couple adjacent blocks inside the band, so
        // the in-band below-block entries are checked once per solve;
        // entries beyond the declared band are already promised zero.
        // Structure-less problems keep the dense matvec with its
        // historical summation order.
        let h_block = problem.structure.and_then(|st| {
            let vb = st.vars_per_block;
            if vb == 0 || !n.is_multiple_of(vb) {
                return None;
            }
            let w_max = st.bandwidth();
            let stride = vb + st.eq_per_block;
            let var_pos = |j: usize| (j / vb) * stride + (j % vb);
            let block_diag = (0..n).all(|j| {
                let block_start = (j / vb) * vb;
                (0..block_start)
                    .rev()
                    .take_while(|&j2| var_pos(j) - var_pos(j2) <= w_max)
                    .all(|j2| problem.h.get(j, j2) == 0.0)
            });
            block_diag.then_some(vb)
        });

        // For a verified block-diagonal H the off-block entries are zero,
        // so scanning only the diagonal blocks yields the same max-norm as
        // the full O(n²) sweep.
        let h_norm = match h_block {
            Some(vb) => {
                let mut m = 0.0f64;
                for b in (0..n).step_by(vb) {
                    for r in b..b + vb {
                        for c in b..b + vb {
                            let v = problem.h.get(r, c).abs();
                            if v > m {
                                m = v;
                            }
                        }
                    }
                }
                m
            }
            None => problem.h.norm_max(),
        };
        let data_scale = 1.0
            + h_norm
            + vecops::norm_inf(g)
            + a_eq.map_or(0.0, |a| a.norm_max())
            + a_in.norm_max();

        let reg = self.options.regularization.max(1e-12);
        let tol = self.options.tolerance;
        // Scale against which iterate divergence and irreducible primal
        // residuals are judged: the constraint right-hand sides bound the
        // geometry of the feasible set the same way the matrix norms in
        // `data_scale` bound the operator magnitudes.
        let geom_scale = data_scale + vecops::norm_inf(b_in) + vecops::norm_inf(b_eq);
        // Residual threshold separating "still converging" from "stuck":
        // √tol sits orders of magnitude above the convergence tolerance
        // yet far below any genuine constraint gap.
        let stuck_tol = tol.max(f64::EPSILON).sqrt();

        *spent = 0;
        for iter in 0..self.options.max_iterations {
            // Residuals: rd = Hz + g + A_eqᵀy + A_inᵀλ, rp = A_eq·z − b_eq,
            // rc = A_in·z + s − b_in.
            hess_matvec(problem.h, h_block, z, hz);
            for r in 0..n {
                rd[r] = hz[r] + g[r];
            }
            // Each transposed product accumulates in its own buffer and is
            // added to rd as one elementwise pass — the exact summation
            // order of a standalone matvec_transposed, so iterates stay
            // bit-identical to the historical dense path.
            if let Some(a_eq) = a_eq {
                jt.fill(0.0);
                for r in 0..me {
                    add_scaled_row(a_eq, r, y[r], jt);
                }
                for r in 0..n {
                    rd[r] += jt[r];
                }
            }
            jt.fill(0.0);
            columns.add_transposed(lam, jt);
            for r in 0..n {
                rd[r] += jt[r];
            }
            if let Some(a_eq) = a_eq {
                rows_matvec(a_eq, z, rp);
                for r in 0..me {
                    rp[r] -= b_eq[r];
                }
            }
            rows_matvec(a_in, z, cz);
            for i in 0..mi {
                rc[i] = cz[i] + s[i] - b_in[i];
            }
            let mu = vecops::dot(s, lam) / mi as f64;

            let converged = mu <= tol * data_scale
                && vecops::norm_inf(rd) <= tol * data_scale
                && vecops::norm_inf(rp) <= tol * data_scale
                && vecops::norm_inf(rc) <= tol * data_scale;
            if converged {
                // `hz` still holds H·z for this very iterate.
                let objective = 0.5 * vecops::dot(z, hz) + vecops::dot(g, z);
                return Ok(QpSolution {
                    objective,
                    z: z.to_vec(),
                    y_eq: y.to_vec(),
                    lambda_in: lam.to_vec(),
                    iterations: iter,
                    kkt_backend: kkt.backend,
                });
            }
            if let Some(stall) = stall.as_mut() {
                let error = mu
                    .max(vecops::norm_inf(rd))
                    .max(vecops::norm_inf(rp))
                    .max(vecops::norm_inf(rc));
                if stall.stalled(error) {
                    break;
                }
            }

            // Reduced KKT matrix: [H + CᵀWC  A_eqᵀ; A_eq  −δI], W = Λ/S.
            for i in 0..mi {
                wvec[i] = lam[i] / s[i];
            }
            kkt.factor(problem, wvec, reg)?;

            // Affine (predictor) direction: target σ = 0.
            for i in 0..mi {
                r_slam[i] = s[i] * lam[i];
            }
            newton_step(
                kkt, a_in, columns, rd, rp, rc, s, lam, r_slam, coeff, rhs, dz, dy, ds_aff,
                dlam_aff, cdz,
            )?;
            let alpha_aff = step_length(s, ds_aff, lam, dlam_aff);
            let mu_aff = {
                let mut acc = 0.0;
                for i in 0..mi {
                    acc += (s[i] + alpha_aff * ds_aff[i]) * (lam[i] + alpha_aff * dlam_aff[i]);
                }
                acc / mi as f64
            };
            let sigma = (mu_aff / mu).powi(3).clamp(0.0, 1.0);

            // Corrector direction with centering + Mehrotra correction.
            for i in 0..mi {
                r_slam[i] = s[i] * lam[i] + ds_aff[i] * dlam_aff[i] - sigma * mu;
            }
            newton_step(
                kkt, a_in, columns, rd, rp, rc, s, lam, r_slam, coeff, rhs, dz, dy, ds, dlam, cdz,
            )?;

            let alpha = 0.995 * step_length(s, ds, lam, dlam);
            let alpha = alpha.min(1.0);
            vecops::axpy(alpha, dz, z);
            vecops::axpy(alpha, dy, y);
            vecops::axpy(alpha, ds, s);
            vecops::axpy(alpha, dlam, lam);

            // Divergence guard: the iterates of a solvable QP stay within
            // a bounded multiple of the problem geometry, so a primal
            // point ten orders of magnitude beyond it will never come
            // back. Near-feasible divergence is an unbounded objective
            // (an LP ray the constraints fail to cap); divergence with an
            // irreducible primal residual is the dual ray of an
            // infeasible constraint set.
            let z_norm = vecops::norm_inf(z);
            if z_norm > 1e10 * geom_scale {
                // Judged relative to the diverged iterate: along a feasible
                // ray the residual stays bounded while ‖z‖ explodes
                // (unbounded objective); if the residual grew with the
                // iterate, no feasible ray exists (infeasible constraints).
                let primal = vecops::norm_inf(rp).max(vecops::norm_inf(rc));
                return Err(if primal <= stuck_tol * z_norm {
                    OptimError::QpUnbounded { z_norm }
                } else {
                    OptimError::QpInfeasible {
                        primal_residual: primal,
                    }
                });
            }
            *spent = iter + 1;
        }

        // Re-evaluate residuals for the error report.
        hess_matvec(problem.h, None, z, hz);
        for r in 0..n {
            rd[r] = hz[r] + g[r];
        }
        if let Some(a_eq) = a_eq {
            rows_matvec(a_eq, z, rp);
            for r in 0..me {
                rp[r] -= b_eq[r];
            }
        }
        rows_matvec(a_in, z, cz);
        for i in 0..mi {
            rc[i] = cz[i] + s[i] - b_in[i];
        }
        let primal_residual = vecops::norm_inf(rp).max(vecops::norm_inf(rc));
        // A primal residual stuck far above the convergence scale after a
        // full iteration budget is the signature of inconsistent
        // constraints: route it as infeasibility so callers (SQP elastic
        // mode, the battery harness) can react to the cause rather than
        // the symptom. Slow-but-feasible problems keep the generic
        // max-iterations report.
        if primal_residual > stuck_tol * geom_scale {
            return Err(OptimError::QpInfeasible { primal_residual });
        }
        Err(OptimError::QpMaxIterations {
            mu: vecops::dot(s, lam) / mi as f64,
            primal_residual,
            dual_residual: vecops::norm_inf(rd),
        })
    }

    /// Direct KKT solve when the problem has no inequality constraints.
    fn solve_equality_only(
        &self,
        problem: &QpView<'_>,
        me: usize,
    ) -> Result<QpSolution, OptimError> {
        let n = problem.num_vars();
        let dim = n + me;
        let delta = self.options.regularization.max(1e-12);
        let mut kkt = Matrix::zeros(dim, dim);
        for r in 0..n {
            for c in 0..n {
                kkt.set(r, c, problem.h.get(r, c));
            }
            kkt.add_at(r, r, delta);
        }
        if let Some(a_eq) = problem.a_eq {
            for r in 0..me {
                let (cols, vals) = a_eq.row(r);
                for (c, v) in cols.iter().zip(vals) {
                    kkt.set(n + r, *c, *v);
                    kkt.set(*c, n + r, *v);
                }
            }
        }
        // Quasi-definite −δ block: keeps the factorization nonsingular
        // when equality rows are linearly dependent (duplicated or
        // rescaled rows), at an O(δ·‖y‖) perturbation of the solution.
        for r in 0..me {
            kkt.add_at(n + r, n + r, -delta);
        }
        let mut rhs = vec![0.0; dim];
        for i in 0..n {
            rhs[i] = -problem.g[i];
        }
        rhs[n..(me + n)].copy_from_slice(&problem.b_eq[..me]);
        let sol = Lu::factor(&kkt)?.solve(&rhs)?;
        let z = sol[..n].to_vec();
        let y_eq = sol[n..].to_vec();
        // The regularized system always has an answer, even when the
        // equalities contradict each other; only the residual tells an
        // inconsistent system from a consistent rank-deficient one.
        if me > 0 {
            let mut az = vec![0.0; me];
            if let Some(a_eq) = problem.a_eq {
                rows_matvec(a_eq, &z, &mut az);
            }
            let mut primal_residual = 0.0f64;
            for r in 0..me {
                primal_residual = primal_residual.max((az[r] - problem.b_eq[r]).abs());
            }
            let scale = 1.0
                + problem.h.norm_max()
                + vecops::norm_inf(problem.g)
                + vecops::norm_inf(problem.b_eq)
                + problem.a_eq.map_or(0.0, SparseMatrix::norm_max);
            let stuck_tol = self.options.tolerance.max(f64::EPSILON).sqrt();
            if !primal_residual.is_finite() || primal_residual > stuck_tol * scale {
                return Err(OptimError::QpInfeasible { primal_residual });
            }
        }
        Ok(QpSolution {
            objective: problem.objective(&z),
            z,
            y_eq,
            lambda_in: Vec::new(),
            iterations: 1,
            kkt_backend: QpKktBackend::DenseLu,
        })
    }
}

/// The stall test of a warm-started interior-point attempt.
///
/// A warm start can land where the Mehrotra steps stop making progress:
/// on the condensed MPC, the warm attempts that fail do not crawl but
/// circle, their KKT error repeating a short cycle above tolerance until
/// the budget runs out, while the same QP solves cold in 5–11
/// iterations. So a warm attempt must keep lowering its KKT error
/// `max(μ, ‖r_d‖∞, ‖r_p‖∞, ‖r_c‖∞)`: once [`Stall::PATIENCE`] iterations
/// in a row fail to set a new low, the attempt is abandoned and the QP is
/// solved cold. A slow but steady descent is left to run. A cold solve
/// never consults this.
#[derive(Debug)]
struct Stall {
    /// The lowest error seen so far.
    best: f64,
    /// Iterations since `best` last fell.
    since: usize,
}

impl Default for Stall {
    fn default() -> Self {
        Self {
            best: f64::INFINITY,
            since: 0,
        }
    }
}

impl Stall {
    const PATIENCE: usize = 4;

    /// Records this iteration's error; `true` once `PATIENCE` errors in a
    /// row (NaN included) have not been below every earlier one.
    fn stalled(&mut self, error: f64) -> bool {
        if error < self.best {
            self.best = error;
            self.since = 0;
        } else {
            self.since += 1;
        }
        self.since >= Self::PATIENCE
    }
}

/// `out = M·x` for a dense matrix without allocating, bit-identical to
/// `out[r] = vecops::dot(M.row(r), x)`.
fn matvec_into(m: &Matrix, x: &[f64], out: &mut [f64]) {
    dot_rows(|r| m.row(r), x, &mut out[..m.rows()]);
}

/// `out[r] = vecops::dot(row(r), x)` for every `r < out.len()`, bit for
/// bit.
///
/// Four rows at a time share each load of `x`, but every row keeps its
/// own accumulator, started from the value `f64`'s `Sum` starts from and
/// fed its products left to right, so each entry is the same sequence of
/// IEEE operations as the iterator sum.
///
/// # Panics
///
/// Panics if a row's length differs from `x.len()`, as `vecops::dot`
/// does.
pub(crate) fn dot_rows<'a>(row: impl Fn(usize) -> &'a [f64], x: &[f64], out: &mut [f64]) {
    let start: f64 = std::iter::empty::<f64>().sum();
    let quads = out.len() - out.len() % 4;
    for (r, o) in (0..quads).step_by(4).zip(out.chunks_exact_mut(4)) {
        let (r0, r1, r2, r3) = (row(r), row(r + 1), row(r + 2), row(r + 3));
        assert!(
            [r0.len(), r1.len(), r2.len(), r3.len()] == [x.len(); 4],
            "dot_rows: length mismatch"
        );
        let (mut s0, mut s1, mut s2, mut s3) = (start, start, start, start);
        for ((((xc, a0), a1), a2), a3) in x.iter().zip(r0).zip(r1).zip(r2).zip(r3) {
            s0 += a0 * xc;
            s1 += a1 * xc;
            s2 += a2 * xc;
            s3 += a3 * xc;
        }
        o.copy_from_slice(&[s0, s1, s2, s3]);
    }
    for (r, o) in out.iter_mut().enumerate().skip(quads) {
        *o = vecops::dot(row(r), x);
    }
}

/// `out = M·x` for a block-diagonal matrix with `vb × vb` blocks, reading
/// only the in-block entries. Every off-block entry is structurally zero
/// under a declared [`QpStructure`], so this matches the dense matvec up
/// to the sign of exact zeros.
fn block_diag_matvec(m: &Matrix, vb: usize, x: &[f64], out: &mut [f64]) {
    for (k, chunk) in out.chunks_mut(vb).enumerate() {
        let lo = k * vb;
        let xb = &x[lo..lo + vb];
        for (i, o) in chunk.iter_mut().enumerate() {
            *o = vecops::dot(&m.row(lo + i)[lo..lo + vb], xb);
        }
    }
}

/// `out = H·x`, reading only the diagonal blocks of a verified
/// block-diagonal `H` (`h_block` is their size).
fn hess_matvec(h: &Matrix, h_block: Option<usize>, x: &[f64], out: &mut [f64]) {
    match h_block {
        Some(vb) => block_diag_matvec(h, vb, x, out),
        None => matvec_into(h, x, out),
    }
}

/// Everything an interior-point solve works in: the reduced-KKT
/// workspace (matrix and factors) and the iterate, residual and direction
/// vectors.
///
/// [`crate::SqpSolver`] keeps one for a whole solve and hands it to every
/// QP it solves there (warm attempts, cold retries, boosted-regularization
/// and elastic retries), so the subproblems of a solve allocate none of
/// it. Each QP solve resizes it to its own dimensions and overwrites every
/// entry before reading it, so a reused workspace yields exactly the bits
/// of a fresh one.
#[derive(Debug, Default)]
pub(crate) struct IpmWorkspace {
    kkt: KktWorkspace,
    z: Vec<f64>,
    y: Vec<f64>,
    s: Vec<f64>,
    lam: Vec<f64>,
    hz: Vec<f64>,
    rd: Vec<f64>,
    rp: Vec<f64>,
    cz: Vec<f64>,
    rc: Vec<f64>,
    wvec: Vec<f64>,
    r_slam: Vec<f64>,
    rhs: Vec<f64>,
    dz: Vec<f64>,
    dy: Vec<f64>,
    ds: Vec<f64>,
    dlam: Vec<f64>,
    ds_aff: Vec<f64>,
    dlam_aff: Vec<f64>,
    cdz: Vec<f64>,
    jt: Vec<f64>,
    /// Newton right-hand-side coefficients, one per inequality row.
    coeff: Vec<f64>,
    columns: Columns,
}

impl IpmWorkspace {
    /// Sizes the vectors for `n` unknowns, `me` equality and `mi`
    /// inequality rows.
    fn resize(&mut self, n: usize, me: usize, mi: usize) {
        for (v, len) in [
            (&mut self.z, n),
            (&mut self.hz, n),
            (&mut self.rd, n),
            (&mut self.dz, n),
            (&mut self.jt, n),
            (&mut self.rhs, n + me),
            (&mut self.y, me),
            (&mut self.rp, me),
            (&mut self.dy, me),
            (&mut self.s, mi),
            (&mut self.lam, mi),
            (&mut self.cz, mi),
            (&mut self.rc, mi),
            (&mut self.wvec, mi),
            (&mut self.r_slam, mi),
            (&mut self.ds, mi),
            (&mut self.dlam, mi),
            (&mut self.ds_aff, mi),
            (&mut self.dlam_aff, mi),
            (&mut self.cdz, mi),
            (&mut self.coeff, mi),
        ] {
            v.resize(len, 0.0);
        }
    }
}

/// A CSR inequality Jacobian regrouped by column, each column's entries
/// in ascending row order. Rebuilt at the start of every solve, it
/// turns the loop's `out += Aᵀx` products from a row-by-row scatter into
/// one running sum per `out[c]` that receives the same terms `x_i·a_ic`
/// in the same order.
#[derive(Debug, Default)]
struct Columns {
    /// Column `c` spans `start[c]..start[c + 1]` of `row`/`val`.
    start: Vec<usize>,
    row: Vec<usize>,
    val: Vec<f64>,
}

impl Columns {
    fn fill(&mut self, a: &SparseMatrix) {
        let n = a.cols();
        self.start.clear();
        self.start.resize(n + 1, 0);
        self.row.resize(a.nnz(), 0);
        self.val.resize(a.nnz(), 0.0);
        let (start, row, val) = (&mut self.start[..], &mut self.row[..], &mut self.val[..]);
        // Count each column into the slot after it and sum, so start[c]
        // is the column's first slot; then fill the rows in order, using
        // start[c] as the column's cursor, which leaves it at the next
        // column's start; shifting back restores it.
        for r in 0..a.rows() {
            for &c in a.row(r).0 {
                start[c + 1] += 1;
            }
        }
        for c in 0..n {
            start[c + 1] += start[c];
        }
        for r in 0..a.rows() {
            let (cols, vals) = a.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                let slot = start[c];
                row[slot] = r;
                val[slot] = v;
                start[c] = slot + 1;
            }
        }
        start.copy_within(..n, 1);
        start[0] = 0;
    }

    /// `out += Aᵀx`.
    fn add_transposed(&self, x: &[f64], out: &mut [f64]) {
        for (o, span) in out.iter_mut().zip(self.start.windows(2)) {
            let (rows, vals) = (&self.row[span[0]..span[1]], &self.val[span[0]..span[1]]);
            let mut acc = *o;
            for (&i, &v) in rows.iter().zip(vals) {
                acc += x[i] * v;
            }
            *o = acc;
        }
    }
}

/// Solves one Newton system given the factored KKT workspace and the
/// complementarity right-hand side `r_slam` (entries `sᵢλᵢ − target`),
/// writing the directions into the provided buffers.
#[allow(clippy::too_many_arguments)]
fn newton_step(
    ws: &mut KktWorkspace,
    a_in: &SparseMatrix,
    columns: &Columns,
    rd: &[f64],
    rp: &[f64],
    rc: &[f64],
    s: &[f64],
    lam: &[f64],
    r_slam: &[f64],
    coeff: &mut [f64],
    rhs: &mut [f64],
    dz: &mut [f64],
    dy: &mut [f64],
    ds: &mut [f64],
    dlam: &mut [f64],
    cdz: &mut [f64],
) -> Result<(), OptimError> {
    let n = dz.len();
    let me = dy.len();
    let mi = s.len();

    // rhs1 = −rd + Σᵢ cᵢ · (r_slamᵢ − λᵢ·rcᵢ)/sᵢ
    for r in 0..n {
        rhs[r] = -rd[r];
    }
    for i in 0..mi {
        coeff[i] = (r_slam[i] - lam[i] * rc[i]) / s[i];
    }
    columns.add_transposed(coeff, &mut rhs[..n]);
    for r in 0..me {
        rhs[n + r] = -rp[r];
    }
    ws.solve_in_place(rhs)?;
    dz.copy_from_slice(&rhs[..n]);
    dy.copy_from_slice(&rhs[n..]);

    rows_matvec(a_in, dz, cdz);
    for i in 0..mi {
        ds[i] = -rc[i] - cdz[i];
        dlam[i] = -(r_slam[i] + lam[i] * ds[i]) / s[i];
    }
    Ok(())
}

/// Scratch for assembling and factoring the reduced KKT matrix
/// `[H + CᵀWC, A_eqᵀ; A_eq, −δI]` with whichever backend fits the problem:
/// banded LDLᵀ when a valid [`QpStructure`] plan exists, dense Cholesky
/// when the reduced system is SPD (no equalities), dense LU otherwise.
/// Backends degrade monotonically within one solve: a banded or Cholesky
/// factorization failure permanently drops to the next denser backend, so
/// pivoted LU is always the last resort, except in a warm attempt, which
/// returns a Cholesky rejection at once: in measured traffic the LU never
/// succeeded there, and the cold retry that follows converged. One dense
/// matrix and one factor per backend serve every iteration of a solve,
/// and every later solve through the same [`IpmWorkspace`].
#[derive(Debug)]
struct KktWorkspace {
    n: usize,
    me: usize,
    /// Stage-interleaved position of each unknown (vars then eq
    /// multipliers); empty when no banded plan is active.
    pos: Vec<usize>,
    bandwidth: usize,
    banded: bool,
    band: BandedMatrix,
    band_factor: BandedCholesky,
    perm_rhs: Vec<f64>,
    /// The reduced matrix. Assembly writes only its lower triangle, all
    /// that Cholesky reads; the LU path mirrors it into the upper one.
    dense: Matrix,
    cholesky: Option<Cholesky>,
    use_cholesky: bool,
    /// Whether a rejected Cholesky pivot drops to LU (cold solves) or
    /// ends the solve (warm attempts).
    lu_fallback: bool,
    lu: Option<Lu>,
    backend: QpKktBackend,
}

impl Default for KktWorkspace {
    fn default() -> Self {
        Self {
            n: 0,
            me: 0,
            pos: Vec::new(),
            bandwidth: 0,
            banded: false,
            band: BandedMatrix::default(),
            band_factor: BandedCholesky::new(),
            perm_rhs: Vec::new(),
            dense: Matrix::zeros(0, 0),
            cholesky: None,
            use_cholesky: false,
            lu_fallback: true,
            lu: None,
            backend: QpKktBackend::DenseLu,
        }
    }
}

impl KktWorkspace {
    /// Sets the workspace up for one QP solve, keeping its storage.
    fn prepare(&mut self, problem: &QpView<'_>, prefer_dense_cholesky: bool, lu_fallback: bool) {
        let (n, me) = (problem.num_vars(), problem.num_eq());
        match banded_plan(problem) {
            Some((pos, w)) => {
                self.pos = pos;
                self.bandwidth = w;
                self.banded = true;
            }
            None => {
                self.pos.clear();
                self.bandwidth = 0;
                self.banded = false;
            }
        }
        self.n = n;
        self.me = me;
        self.perm_rhs.resize(n + me, 0.0);
        // With no equality block the reduced KKT matrix is SPD.
        self.use_cholesky = prefer_dense_cholesky && me == 0;
        self.lu_fallback = lu_fallback;
        self.backend = QpKktBackend::DenseLu;
    }

    /// Assembles and factors the KKT matrix for the current weights
    /// `wvec = λ/s`, degrading to a denser backend on factorization
    /// failure.
    fn factor(&mut self, problem: &QpView<'_>, wvec: &[f64], reg: f64) -> Result<(), OptimError> {
        if self.banded {
            match self.factor_banded(problem, wvec, reg) {
                Ok(()) => {
                    self.backend = QpKktBackend::Banded;
                    return Ok(());
                }
                // E.g. a pivot collapsed under extreme complementarity
                // weights: fall back to the dense oracle for the rest of
                // this solve.
                Err(_) => self.banded = false,
            }
        }
        self.factor_dense(problem, wvec, reg)
    }

    fn factor_banded(
        &mut self,
        problem: &QpView<'_>,
        wvec: &[f64],
        reg: f64,
    ) -> Result<(), OptimError> {
        let (n, me) = (self.n, self.me);
        self.band.reset(n + me, self.bandwidth);
        let w = self.band.bandwidth();

        // Hessian block: positions are increasing in the variable index,
        // so a sliding window bounds the in-band column range. Entries
        // outside the band must be structurally zero (the structure
        // declaration promises a block-diagonal Hessian).
        let h = problem.h;
        let mut jmin = 0usize;
        for j in 0..n {
            while self.pos[j] - self.pos[jmin] > w {
                jmin += 1;
            }
            for j2 in jmin..=j {
                let v = h.get(j, j2);
                if v != 0.0 {
                    self.band.set(self.pos[j], self.pos[j2], v);
                }
            }
            self.band.add_at(self.pos[j], self.pos[j], reg);
        }
        debug_assert!(
            (0..n).all(|j| (0..j.saturating_sub(w)).all(|j2| h.get(j, j2) == 0.0)),
            "Hessian has couplings outside the declared block structure"
        );

        // CᵀWC from the inequality rows (guaranteed by the plan).
        let a_in = problem.a_in.expect("banded plan requires inequality rows");
        for i in 0..a_in.rows() {
            let wi = wvec[i];
            if wi == 0.0 {
                continue;
            }
            let (cols, vals) = a_in.row(i);
            for a in 0..cols.len() {
                let pa = self.pos[cols[a]];
                let va = wi * vals[a];
                for b in 0..=a {
                    self.band.add_at(pa, self.pos[cols[b]], va * vals[b]);
                }
            }
        }

        // Equality rows and the −δ regularized equality diagonal.
        if let Some(a_eq) = problem.a_eq {
            for r in 0..me {
                let (cols, vals) = a_eq.row(r);
                let pr = self.pos[n + r];
                for (c, v) in cols.iter().zip(vals) {
                    self.band.set(pr, self.pos[*c], *v);
                }
                self.band.set(pr, pr, -1e-12);
            }
        }
        self.band_factor.factor(&self.band)?;
        Ok(())
    }

    /// Assembles the lower triangle of
    /// `[H + CᵀWC + δ_reg·I, A_eqᵀ; A_eq, −δI]` over row slices and
    /// factors it.
    fn factor_dense(
        &mut self,
        problem: &QpView<'_>,
        wvec: &[f64],
        reg: f64,
    ) -> Result<(), OptimError> {
        let (n, me) = (self.n, self.me);
        let dim = n + me;
        if self.dense.rows() != dim {
            self.dense = Matrix::zeros(dim, dim);
        }
        let data = self.dense.as_mut_slice();

        // Every lower-triangle entry is rewritten from scratch on each
        // call; the strict upper triangle is left as it is.
        for (r, row) in data.chunks_exact_mut(dim).take(n).enumerate() {
            row[..=r].copy_from_slice(&problem.h.row(r)[..=r]);
        }
        let a_in = problem.a_in.expect("interior point implies A_in");
        add_weighted_gram_lower(data, dim, a_in, wvec);
        for r in 0..n {
            data[r * dim + r] += reg;
        }
        if me > 0 {
            let a_eq = problem.a_eq.expect("me > 0 implies A_eq");
            for r in 0..me {
                let pr = n + r;
                let row = &mut data[pr * dim..=pr * dim + pr];
                row.fill(0.0);
                let (cols, vals) = a_eq.row(r);
                for (c, v) in cols.iter().zip(vals) {
                    row[*c] = *v;
                }
                row[pr] = -1e-12;
            }
        }

        if self.use_cholesky {
            let kkt = &self.dense;
            let factored = match self.cholesky.as_mut() {
                Some(c) if c.dim() == dim => c.refactor_lower(kkt),
                _ => Cholesky::factor_lower(kkt).map(|c| self.cholesky = Some(c)),
            };
            match factored {
                Ok(()) => {
                    self.backend = QpKktBackend::DenseCholesky;
                    return Ok(());
                }
                // Numerically indefinite despite SPD theory (extreme W):
                // a warm attempt gives up, a cold solve uses the LU
                // oracle for the rest of this solve.
                Err(e) => {
                    self.cholesky = None;
                    if !self.lu_fallback {
                        return Err(e.into());
                    }
                    self.use_cholesky = false;
                }
            }
        }
        // LU reads the whole matrix: mirror the lower triangle.
        let data = self.dense.as_mut_slice();
        for r in 1..dim {
            for c in 0..r {
                data[c * dim + r] = data[r * dim + c];
            }
        }
        let kkt = &self.dense;
        match self.lu.as_mut() {
            Some(lu) if lu.dim() == dim => {
                if let Err(e) = lu.refactor(kkt) {
                    self.lu = None;
                    return Err(e.into());
                }
            }
            _ => self.lu = Some(Lu::factor(kkt)?),
        }
        self.backend = QpKktBackend::DenseLu;
        Ok(())
    }

    /// Solves the factored KKT system in place, permuting through the
    /// stage-interleaved ordering for the banded backend.
    fn solve_in_place(&mut self, x: &mut [f64]) -> Result<(), OptimError> {
        match self.backend {
            QpKktBackend::Banded => {
                for (i, &p) in self.pos.iter().enumerate() {
                    self.perm_rhs[p] = x[i];
                }
                self.band_factor.solve_in_place(&mut self.perm_rhs)?;
                for (i, &p) in self.pos.iter().enumerate() {
                    x[i] = self.perm_rhs[p];
                }
            }
            QpKktBackend::DenseCholesky => {
                self.cholesky
                    .as_ref()
                    .expect("backend implies factor")
                    .solve_in_place(x)?;
            }
            QpKktBackend::DenseLu => {
                self.lu
                    .as_ref()
                    .expect("backend implies factor")
                    .solve_into(x, &mut self.perm_rhs)?;
                x.copy_from_slice(&self.perm_rhs);
            }
        }
        Ok(())
    }
}

/// `K[..n, ..n] += Cᵀ·diag(w)·C` on the lower triangle (column ≤ row) of
/// the row-major `dim`-wide storage, row slice by row slice. Lower entry
/// `(r, k)` receives `(wᵢ·c_ir)·c_ik` in row order `i` of `C`, exactly the
/// terms and order an element-by-element accumulation of the full matrix
/// gives it, so the triangle is bit-identical to that one's. CSR columns
/// ascend within a row, so the pairs `b ≤ a` of a row's entries are its
/// lower-triangle ones.
fn add_weighted_gram_lower(data: &mut [f64], dim: usize, c: &SparseMatrix, w: &[f64]) {
    for (i, &wi) in w.iter().enumerate() {
        let (cols, vals) = c.row(i);
        for (a, (&ca, &va)) in cols.iter().zip(vals).enumerate() {
            let va = wi * va;
            let row = &mut data[ca * dim..=ca * dim + ca];
            for (&cb, &vb) in cols[..=a].iter().zip(&vals[..=a]) {
                row[cb] += va * vb;
            }
        }
    }
}

/// Validates a declared [`QpStructure`] against the problem's Jacobians
/// and, if consistent, returns the stage-interleaved position of every
/// unknown plus the KKT bandwidth.
fn banded_plan(problem: &QpView<'_>) -> Option<(Vec<usize>, usize)> {
    let st = problem.structure?;
    let n = problem.num_vars();
    let me = problem.num_eq();
    let (vb, eb) = (st.vars_per_block, st.eq_per_block);
    if vb == 0 || n == 0 || !n.is_multiple_of(vb) {
        return None;
    }
    let blocks = n / vb;
    if me != blocks * eb {
        return None;
    }
    let a_in = problem.a_in?;
    // Stage-interleaved position of variable `j` / equality multiplier `r`;
    // strictly increasing in the column index, so a row's in-band width is
    // the position distance between its first and last column.
    let stride = vb + eb;
    let var_pos = |j: usize| (j / vb) * stride + (j % vb);
    let eq_pos = |r: usize| (r / eb) * stride + vb + (r % eb);

    // Validate the declared structure and, as the same pass, measure the
    // bandwidth this problem *actually* needs. The declaration's
    // `st.bandwidth()` is the worst case (every variable of the previous
    // block coupled); real horizon problems touch only a suffix of it, and
    // the LDLᵀ factor cost scales with the square of the bandwidth.
    let mut w_req = vb.saturating_sub(1).max(eb.saturating_sub(1));
    for r in 0..a_in.rows() {
        let (cols, _) = a_in.row(r);
        if let (Some(&first), Some(&last)) = (cols.first(), cols.last()) {
            if last / vb > first / vb + st.lookback {
                return None;
            }
            w_req = w_req.max(var_pos(last) - var_pos(first));
        }
    }
    if let Some(a_eq) = problem.a_eq {
        for r in 0..a_eq.rows() {
            let kr = r / eb;
            let (cols, _) = a_eq.row(r);
            let pr = eq_pos(r);
            for &c in cols {
                let kc = c / vb;
                if kc > kr || kc + st.lookback < kr {
                    return None;
                }
                w_req = w_req.max(pr.abs_diff(var_pos(c)));
            }
        }
    }
    // The Hessian may couple variables across blocks anywhere inside the
    // declared band (the SQP's partitioned BFGS keeps it block-diagonal,
    // but hand-built problems need not) — measure its real couplings too.
    let w_max = st.bandwidth();
    for j in 0..n {
        let pj = var_pos(j);
        for j2 in (0..j).rev() {
            let d = pj - var_pos(j2);
            if d > w_max {
                break;
            }
            if d > w_req && problem.h.get(j, j2) != 0.0 {
                w_req = d;
            }
        }
    }
    let mut pos = vec![0usize; n + me];
    for (j, p) in pos.iter_mut().take(n).enumerate() {
        *p = var_pos(j);
    }
    for r in 0..me {
        pos[n + r] = eq_pos(r);
    }
    Some((pos, w_req.min(w_max)))
}

/// Largest α ∈ (0, 1] keeping `s + α·ds > 0` and `λ + α·dλ > 0`.
fn step_length(s: &[f64], ds: &[f64], lam: &[f64], dlam: &[f64]) -> f64 {
    let mut alpha: f64 = 1.0;
    for i in 0..s.len() {
        if ds[i] < 0.0 {
            alpha = alpha.min(-s[i] / ds[i]);
        }
        if dlam[i] < 0.0 {
            alpha = alpha.min(-lam[i] / dlam[i]);
        }
    }
    alpha.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(view: &QpView<'_>) -> QpSolution {
        QpSolver::default()
            .solve_view(view)
            .expect("qp should solve")
    }

    /// CSR rows from dense ones.
    fn csr(rows: &[&[f64]]) -> SparseMatrix {
        SparseMatrix::from_dense(&Matrix::from_rows(rows).unwrap())
    }

    /// The rows `±e_j` of a box over `n` variables, upper bound first.
    fn box_rows(n: usize) -> SparseMatrix {
        SparseMatrix::from_dense(&Matrix::from_fn(2 * n, n, |r, c| {
            match (r / 2 == c, r % 2) {
                (true, 0) => 1.0,
                (true, _) => -1.0,
                _ => 0.0,
            }
        }))
    }

    #[test]
    fn unconstrained_quadratic() {
        // min (z0-1)² + (z1+2)²
        let h = Matrix::from_diag(&[2.0, 2.0]);
        let sol = solve(&QpView::new(&h, &[-2.0, 4.0]).unwrap());
        assert!((sol.z[0] - 1.0).abs() < 1e-7);
        assert!((sol.z[1] + 2.0).abs() < 1e-7);
    }

    #[test]
    fn equality_constrained() {
        // min z0² + z1² s.t. z0 + z1 = 2 → (1, 1).
        let h = Matrix::from_diag(&[2.0, 2.0]);
        let a = csr(&[&[1.0, 1.0]]);
        let view = QpView::new(&h, &[0.0, 0.0])
            .unwrap()
            .with_equalities(&a, &[2.0])
            .unwrap();
        let sol = solve(&view);
        assert!((sol.z[0] - 1.0).abs() < 1e-7);
        assert!((sol.z[1] - 1.0).abs() < 1e-7);
        // Multiplier: ∇f + Aᵀy = 0 → 2·1 + y = 0 → y = −2.
        assert!((sol.y_eq[0] + 2.0).abs() < 1e-6);
    }

    #[test]
    fn active_inequality() {
        // min (z-3)² s.t. z ≤ 1 → z = 1, λ = 4.
        let h = Matrix::from_diag(&[2.0]);
        let a = csr(&[&[1.0]]);
        let view = QpView::new(&h, &[-6.0])
            .unwrap()
            .with_inequalities(&a, &[1.0])
            .unwrap();
        let sol = solve(&view);
        assert!((sol.z[0] - 1.0).abs() < 1e-6);
        assert!((sol.lambda_in[0] - 4.0).abs() < 1e-5);
    }

    #[test]
    fn inactive_inequality() {
        // min (z-3)² s.t. z ≤ 10 → unconstrained optimum 3, λ = 0.
        let h = Matrix::from_diag(&[2.0]);
        let a = csr(&[&[1.0]]);
        let view = QpView::new(&h, &[-6.0])
            .unwrap()
            .with_inequalities(&a, &[10.0])
            .unwrap();
        let sol = solve(&view);
        assert!((sol.z[0] - 3.0).abs() < 1e-6);
        assert!(sol.lambda_in[0].abs() < 1e-5);
    }

    #[test]
    fn box_constrained_projection() {
        // Project (5, -5) onto [0,1]².
        let h = Matrix::from_diag(&[2.0, 2.0]);
        let a = box_rows(2);
        let view = QpView::new(&h, &[-10.0, 10.0])
            .unwrap()
            .with_inequalities(&a, &[1.0, 0.0, 1.0, 0.0])
            .unwrap();
        let sol = solve(&view);
        assert!((sol.z[0] - 1.0).abs() < 1e-6);
        assert!(sol.z[1].abs() < 1e-6);
    }

    #[test]
    fn mixed_equality_inequality() {
        // min ½‖z‖² s.t. z0 + z1 + z2 = 3, z0 ≤ 0.5.
        // Without the bound → (1,1,1); with it, z0 = 0.5, z1 = z2 = 1.25.
        let h = Matrix::identity(3);
        let a_eq = csr(&[&[1.0, 1.0, 1.0]]);
        let a_in = csr(&[&[1.0, 0.0, 0.0]]);
        let view = QpView::new(&h, &[0.0; 3])
            .unwrap()
            .with_equalities(&a_eq, &[3.0])
            .unwrap()
            .with_inequalities(&a_in, &[0.5])
            .unwrap();
        let sol = solve(&view);
        assert!((sol.z[0] - 0.5).abs() < 1e-6, "{:?}", sol.z);
        assert!((sol.z[1] - 1.25).abs() < 1e-6);
        assert!((sol.z[2] - 1.25).abs() < 1e-6);
    }

    #[test]
    fn semidefinite_hessian() {
        // H has a zero eigenvalue along z1; inequality pins z1.
        let h = Matrix::from_diag(&[2.0, 0.0]);
        let a = csr(&[&[0.0, 1.0], &[0.0, -1.0]]);
        let view = QpView::new(&h, &[-2.0, 1.0])
            .unwrap()
            .with_inequalities(&a, &[5.0, 5.0])
            .unwrap();
        let sol = solve(&view);
        // z0 = 1 from the curvature; z1 driven to its lower bound −5 by g1 = 1.
        assert!((sol.z[0] - 1.0).abs() < 1e-5);
        assert!((sol.z[1] + 5.0).abs() < 1e-4);
    }

    #[test]
    fn kkt_conditions_hold() {
        let h = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 2.0]]).unwrap();
        let g = [1.0, 1.0];
        let a_in = csr(&[&[1.0, 1.0], &[-1.0, 2.0], &[2.0, -1.0]]);
        let b_in = [2.0, 2.0, 3.0];
        let view = QpView::new(&h, &g)
            .unwrap()
            .with_inequalities(&a_in, &b_in)
            .unwrap();
        let sol = solve(&view);
        // Stationarity: Hz + g + Cᵀλ ≈ 0.
        let hz = h.matvec(&sol.z).unwrap();
        let mut ctl = [0.0; 2];
        a_in.matvec_transposed(&sol.lambda_in, &mut ctl).unwrap();
        for i in 0..2 {
            assert!((hz[i] + g[i] + ctl[i]).abs() < 1e-5);
        }
        // Primal feasibility and dual non-negativity.
        let mut cz = [0.0; 3];
        a_in.matvec(&sol.z, &mut cz).unwrap();
        for i in 0..3 {
            assert!(cz[i] <= b_in[i] + 1e-6);
            assert!(sol.lambda_in[i] >= -1e-9);
            // Complementary slackness.
            assert!(sol.lambda_in[i] * (b_in[i] - cz[i]) < 1e-4);
        }
    }

    #[test]
    fn infeasible_problem_errors() {
        // z ≤ 0 and −z ≤ −1 (z ≥ 1) cannot both hold.
        let h = Matrix::from_diag(&[2.0]);
        let a = csr(&[&[1.0], &[-1.0]]);
        let view = QpView::new(&h, &[0.0])
            .unwrap()
            .with_inequalities(&a, &[0.0, -1.0])
            .unwrap();
        let err = QpSolver::default().solve_view(&view).unwrap_err();
        assert!(
            matches!(
                err,
                OptimError::QpInfeasible { .. } | OptimError::QpMaxIterations { .. }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn unbounded_lp_is_classified() {
        // min −z with only z ≥ 0: the objective decreases along the
        // feasible ray z → ∞.
        let h = Matrix::from_diag(&[0.0]);
        let a = csr(&[&[-1.0]]);
        let view = QpView::new(&h, &[-1.0])
            .unwrap()
            .with_inequalities(&a, &[0.0])
            .unwrap();
        let err = QpSolver::default().solve_view(&view).unwrap_err();
        assert!(
            matches!(
                err,
                OptimError::QpUnbounded { .. } | OptimError::QpMaxIterations { .. }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn construction_errors() {
        let wide = Matrix::zeros(2, 3);
        assert!(matches!(
            QpView::new(&wide, &[0.0; 3]),
            Err(OptimError::DimensionMismatch { .. })
        ));
        let asym = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]).unwrap();
        assert!(matches!(
            QpView::new(&asym, &[0.0; 2]),
            Err(OptimError::AsymmetricHessian)
        ));
        let nan = Matrix::from_diag(&[f64::NAN]);
        assert!(matches!(
            QpView::new(&nan, &[0.0]),
            Err(OptimError::NonFiniteData)
        ));
        let h = Matrix::identity(2);
        let view = QpView::new(&h, &[0.0; 2]).unwrap();
        let three_wide = csr(&[&[0.0; 3]]);
        assert!(view.with_equalities(&three_wide, &[0.0]).is_err());
        // A NaN row entry is caught, though a max-norm would skip it.
        for bad in [f64::NAN, f64::INFINITY] {
            let a = csr(&[&[1.0, bad]]);
            assert!(matches!(
                view.with_inequalities(&a, &[0.0]),
                Err(OptimError::NonFiniteData)
            ));
            assert!(matches!(
                view.with_equalities(&a, &[0.0]),
                Err(OptimError::NonFiniteData)
            ));
        }
    }

    #[test]
    fn warm_start_path() {
        let h = Matrix::from_diag(&[2.0]);
        let a = csr(&[&[1.0]]);
        let view = QpView::new(&h, &[-6.0])
            .unwrap()
            .with_inequalities(&a, &[1.0])
            .unwrap();
        let solver = QpSolver::default();
        let mut warm = QpWarmStart::default();
        let sol = solver.solve_view_warm(&view, &[0.9], &mut warm).unwrap();
        assert!((sol.z[0] - 1.0).abs() < 1e-6);
        assert!(matches!(
            solver.solve_view_warm(&view, &[0.0, 0.0], &mut warm),
            Err(OptimError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn loose_tolerance_converges_in_fewer_iterations() {
        let h = Matrix::from_diag(&[2.0, 2.0]);
        let a = box_rows(2);
        let view = QpView::new(&h, &[-10.0, 3.0])
            .unwrap()
            .with_inequalities(&a, &[1.0; 4])
            .unwrap();
        let tight = QpSolver::new(QpSolverOptions {
            tolerance: 1e-10,
            ..QpSolverOptions::default()
        })
        .solve_view(&view)
        .unwrap();
        let loose = QpSolver::new(QpSolverOptions {
            tolerance: 1e-4,
            ..QpSolverOptions::default()
        })
        .solve_view(&view)
        .unwrap();
        assert!(loose.iterations <= tight.iterations);
        // Both still land on the right active set.
        assert!((loose.z[0] - 1.0).abs() < 1e-2);
    }

    #[test]
    fn zero_hessian_lp_is_handled_by_regularization() {
        // A pure LP (H = 0) on a box: the regularized KKT system stays
        // factorable and the solution hits the right vertex.
        let h = Matrix::from_diag(&[0.0, 0.0]);
        let a = box_rows(2);
        let view = QpView::new(&h, &[1.0, -2.0])
            .unwrap()
            .with_inequalities(&a, &[1.0; 4])
            .unwrap();
        let sol = solve(&view);
        // min z0 − 2 z1 over [−1,1]² → (−1, 1).
        assert!((sol.z[0] + 1.0).abs() < 1e-4, "{:?}", sol.z);
        assert!((sol.z[1] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn larger_random_spd_problem() {
        // A 30-variable strongly convex QP with box constraints: verify
        // feasibility and stationarity rather than a closed form.
        let n = 30;
        let mut h = Matrix::identity(n);
        for i in 0..n {
            h.set(i, i, 1.0 + (i as f64) * 0.1);
        }
        let g: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let a = box_rows(n);
        let b = vec![2.0; 2 * n];
        let view = QpView::new(&h, &g)
            .unwrap()
            .with_inequalities(&a, &b)
            .unwrap();
        let sol = solve(&view);
        for (i, &zi) in sol.z.iter().enumerate() {
            assert!((-2.0 - 1e-6..=2.0 + 1e-6).contains(&zi), "z[{i}] = {zi}");
        }
        assert!(sol.iterations < 50);
    }

    /// A horizon-structured box QP: `nb` blocks of `vb` variables, block
    /// tridiagonal Hessian, per-variable bounds (CSR), optional coupling
    /// equality per block. Returns (h, g, a_in CSR, b_in, a_eq CSR, b_eq).
    #[allow(clippy::type_complexity)]
    fn structured_problem(
        nb: usize,
        vb: usize,
        with_eq: bool,
    ) -> (
        Matrix,
        Vec<f64>,
        SparseMatrix,
        Vec<f64>,
        SparseMatrix,
        Vec<f64>,
    ) {
        let n = nb * vb;
        let mut h = Matrix::zeros(n, n);
        for i in 0..n {
            h.set(i, i, 2.0 + (i % 3) as f64 * 0.5);
            if i + 1 < n && (i + 1) / vb <= i / vb + 1 {
                h.set(i + 1, i, -0.3);
                h.set(i, i + 1, -0.3);
            }
        }
        let g: Vec<f64> = (0..n).map(|i| ((i * 5 % 11) as f64) * 0.4 - 2.0).collect();
        let mut a_in = SparseMatrix::new();
        a_in.reset(n);
        let mut b_in = Vec::new();
        for i in 0..n {
            a_in.push(i, 1.0);
            a_in.finish_row();
            b_in.push(1.5);
            a_in.push(i, -1.0);
            a_in.finish_row();
            b_in.push(1.5);
        }
        let mut a_eq = SparseMatrix::new();
        a_eq.reset(n);
        let mut b_eq = Vec::new();
        if with_eq {
            // One equality per block summing the block's variables, with a
            // one-step lookback coupling to the previous block's first var.
            for k in 0..nb {
                if k > 0 {
                    a_eq.push((k - 1) * vb, 0.5);
                }
                for j in 0..vb {
                    a_eq.push(k * vb + j, 1.0);
                }
                a_eq.finish_row();
                b_eq.push(0.3 * (k as f64) - 0.2);
            }
        }
        (h, g, a_in, b_in, a_eq, b_eq)
    }

    #[test]
    fn banded_backend_matches_dense_oracle() {
        for with_eq in [false, true] {
            let (h, g, a_in, b_in, a_eq, b_eq) = structured_problem(5, 3, with_eq);
            let structure = QpStructure {
                vars_per_block: 3,
                eq_per_block: usize::from(with_eq),
                lookback: 1,
            };

            let mut oracle = QpView::new(&h, &g)
                .unwrap()
                .with_inequalities(&a_in, &b_in)
                .unwrap();
            if with_eq {
                oracle = oracle.with_equalities(&a_eq, &b_eq).unwrap();
            }
            let banded_sol = QpSolver::default()
                .solve_view(&oracle.with_structure(structure))
                .unwrap();
            let oracle_sol = solve(&oracle);
            assert_eq!(banded_sol.kkt_backend, QpKktBackend::Banded);
            // The dense oracle factors by Cholesky unless an equality
            // block makes its reduced system indefinite.
            let dense_backend = if with_eq {
                QpKktBackend::DenseLu
            } else {
                QpKktBackend::DenseCholesky
            };
            assert_eq!(oracle_sol.kkt_backend, dense_backend);
            for (zb, zo) in banded_sol.z.iter().zip(&oracle_sol.z) {
                assert!(
                    (zb - zo).abs() < 1e-7,
                    "with_eq={with_eq}: banded {zb} vs dense {zo}"
                );
            }
            for (lb, lo) in banded_sol.lambda_in.iter().zip(&oracle_sol.lambda_in) {
                assert!((lb - lo).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn inconsistent_structure_falls_back_to_dense() {
        // Declared blocks don't divide n → the plan is rejected and the
        // dense path solves the problem correctly anyway.
        let (h, g, a_in, b_in, _, _) = structured_problem(4, 3, false);
        let view = QpView::new(&h, &g)
            .unwrap()
            .with_inequalities(&a_in, &b_in)
            .unwrap()
            .with_structure(QpStructure {
                vars_per_block: 5,
                eq_per_block: 0,
                lookback: 1,
            });
        let sol = QpSolver::default().solve_view(&view).unwrap();
        assert_ne!(sol.kkt_backend, QpKktBackend::Banded);
        for (i, &zi) in sol.z.iter().enumerate() {
            assert!((-1.5 - 1e-6..=1.5 + 1e-6).contains(&zi), "z[{i}] = {zi}");
        }
    }

    #[test]
    fn wide_jacobian_rows_reject_banded_plan() {
        // An inequality row coupling the first and last block violates the
        // declared lookback; the solver must notice and fall back.
        let (h, g, _, _, _, _) = structured_problem(4, 2, false);
        let n = 8;
        let mut a_in = SparseMatrix::new();
        a_in.reset(n);
        a_in.push(0, 1.0);
        a_in.push(n - 1, 1.0);
        a_in.finish_row();
        let b_in = vec![10.0];
        let view = QpView::new(&h, &g)
            .unwrap()
            .with_inequalities(&a_in, &b_in)
            .unwrap()
            .with_structure(QpStructure {
                vars_per_block: 2,
                eq_per_block: 0,
                lookback: 1,
            });
        let sol = QpSolver::default().solve_view(&view).unwrap();
        assert_ne!(sol.kkt_backend, QpKktBackend::Banded);
    }

    #[test]
    fn stall_watch_flags_cycles_but_not_progress() {
        // A warm attempt of the condensed MPC that never converged: its
        // KKT error circles through four values just above tolerance.
        let cycle = [1.49e-8, 5.45e-8, 2.90e-8, 6.99e-8];
        let mut stall = Stall::default();
        let head = [
            1.0e-3, 1.0e-3, 1.7e-4, 1.7e-4, 3.6e-6, 2.3e-6, 7.6e-7, 6.2e-7,
        ];
        assert!(head.iter().all(|&e| !stall.stalled(e)));
        let flagged = (0..12).position(|i| stall.stalled(cycle[i % 4])).unwrap();
        assert_eq!(flagged, Stall::PATIENCE);
        // A crawl that keeps setting new lows, however slowly, runs on;
        // NaN never does.
        let mut slow = Stall::default();
        assert!((0..100).all(|i| !slow.stalled(0.999f64.powi(i))));
        assert!((0..Stall::PATIENCE).any(|_| slow.stalled(f64::NAN)));
    }

    /// Deterministic uniform draws in [-1, 1) (splitmix64).
    fn uniform(seed: &mut u64) -> f64 {
        *seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// An `m × n` CSR matrix mixing the row shapes of the condensed MPC
    /// Jacobian: empty rows, single entries, dense prefixes and scattered
    /// subsets, with stored `+0.0` and `−0.0` among the values.
    fn mixed_csr(m: usize, n: usize, seed: &mut u64) -> SparseMatrix {
        let mut a = SparseMatrix::new();
        a.reset(n);
        for i in 0..m {
            let cols: Vec<usize> = match i % 4 {
                0 => Vec::new(),
                1 => vec![i % n.max(1)],
                2 => (0..=(i % n.max(1))).collect(),
                _ => (0..n).filter(|_| uniform(seed) > 0.0).collect(),
            };
            for c in cols.into_iter().filter(|&c| c < n) {
                let v = match c % 7 {
                    3 => 0.0,
                    5 => -0.0,
                    _ => uniform(seed) * 10f64.powi((c % 5) as i32 - 2),
                };
                a.push(c, v);
            }
            a.finish_row();
        }
        a
    }

    /// Barrier weights spread over sixteen orders of magnitude, with
    /// zeros of both signs.
    fn weights(m: usize, seed: &mut u64) -> Vec<f64> {
        (0..m)
            .map(|i| match i % 9 {
                4 => 0.0,
                7 => -0.0,
                _ => 10f64.powf(8.0 * uniform(seed)),
            })
            .collect()
    }

    /// The full-matrix gram the triangle-only assembly replaced, kept as
    /// its oracle: `K[..n, ..n] += Cᵀ·diag(w)·C` on the row-major
    /// `dim`-wide storage, every entry receiving its terms in row order of
    /// `C`.
    fn full_gram(data: &mut [f64], dim: usize, n: usize, c: &SparseMatrix, w: &[f64]) {
        for (i, &wi) in w.iter().enumerate() {
            let (cols, vals) = c.row(i);
            for (&ca, &va) in cols.iter().zip(vals) {
                let va = wi * va;
                let row = &mut data[ca * dim..ca * dim + n];
                for (&cb, &vb) in cols.iter().zip(vals) {
                    row[cb] += va * vb;
                }
            }
        }
    }

    /// The triangle-only gram of `c` with weights `w` leaves exactly the
    /// lower triangle of the full gram and touches nothing else.
    fn assert_gram_is_lower_triangle(c: &SparseMatrix, n: usize, w: &[f64], seed: &mut u64) {
        // Room for an equality block the gram must not touch.
        let dim = n + 2;
        let start: Vec<f64> = (0..dim * dim).map(|_| uniform(seed)).collect();
        let mut full = start.clone();
        full_gram(&mut full, dim, n, c, w);
        let mut lower = start.clone();
        add_weighted_gram_lower(&mut lower, dim, c, w);
        for r in 0..dim {
            for k in 0..dim {
                let idx = r * dim + k;
                let want = if k <= r { full[idx] } else { start[idx] };
                assert_eq!(lower[idx].to_bits(), want.to_bits(), "entry ({r}, {k})");
            }
        }
    }

    #[test]
    fn triangle_gram_matches_the_full_gram_bitwise() {
        let mut seed = 3u64;
        for (m, n) in [(0, 3), (5, 1), (40, 9), (104, 32)] {
            let a = mixed_csr(m, n, &mut seed);
            let w = weights(m, &mut seed);
            assert_gram_is_lower_triangle(&a, n, &w, &mut seed);
        }
    }

    #[test]
    fn interleaved_matvec_matches_row_dots_bitwise() {
        let mut seed = 9u64;
        for rows in [0, 1, 3, 4, 5, 7, 8, 9, 13, 32] {
            for cols in [0, 1, 2, 5, 32] {
                let mut m = Matrix::from_fn(rows, cols, |_, _| uniform(&mut seed));
                // An all-zero row, a row of negative zeros (which sums to
                // the start value of `f64`'s `Sum`) and a stray −0.0.
                if rows > 1 {
                    m.row_mut(1).fill(0.0);
                }
                if rows > 2 {
                    m.row_mut(2).fill(-0.0);
                }
                if rows > 4 && cols > 0 {
                    m.set(4, 0, -0.0);
                }
                let x: Vec<f64> = (0..cols)
                    .map(|j| {
                        if j % 4 == 3 {
                            -0.0
                        } else {
                            uniform(&mut seed).abs()
                        }
                    })
                    .collect();
                let mut out = vec![f64::NAN; rows];
                matvec_into(&m, &x, &mut out);
                for (r, got) in out.iter().enumerate() {
                    let want = vecops::dot(m.row(r), &x);
                    assert_eq!(got.to_bits(), want.to_bits(), "{rows}×{cols}, row {r}");
                }
            }
        }
    }

    #[test]
    fn column_copy_transposed_products_match_the_row_scatter_bitwise() {
        let mut seed = 21u64;
        let mut columns = Columns::default();
        // Refilled from larger to smaller and back, as a reused workspace
        // is.
        for (m, n) in [(104, 32), (7, 3), (0, 4), (40, 9)] {
            let a = mixed_csr(m, n, &mut seed);
            columns.fill(&a);
            let x: Vec<f64> = (0..m)
                .map(|i| if i % 5 == 2 { -0.0 } else { uniform(&mut seed) })
                .collect();
            let start: Vec<f64> = (0..n)
                .map(|j| if j % 3 == 0 { 0.0 } else { uniform(&mut seed) })
                .collect();
            let mut scattered = start.clone();
            for (i, &xi) in x.iter().enumerate() {
                add_scaled_row(&a, i, xi, &mut scattered);
            }
            let mut gathered = start;
            columns.add_transposed(&x, &mut gathered);
            assert_eq!(bits(&gathered), bits(&scattered), "{m}×{n}");
        }
    }

    /// Two solve outcomes agree bit for bit.
    fn assert_same(a: &Result<QpSolution, OptimError>, b: &Result<QpSolution, OptimError>) {
        match (a, b) {
            (Ok(a), Ok(b)) => {
                assert_eq!(bits(&a.z), bits(&b.z));
                assert_eq!(bits(&a.y_eq), bits(&b.y_eq));
                assert_eq!(bits(&a.lambda_in), bits(&b.lambda_in));
                assert_eq!(a.objective.to_bits(), b.objective.to_bits());
                assert_eq!(a.iterations, b.iterations);
                assert_eq!(a.kkt_backend, b.kkt_backend);
            }
            (Err(a), Err(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}")),
            _ => panic!("outcomes differ: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn a_reused_workspace_solves_exactly_like_a_fresh_one() {
        let (h, g, a_in, b_in, a_eq, b_eq) = structured_problem(5, 3, true);
        let ineq = QpView::new(&h, &g)
            .unwrap()
            .with_inequalities(&a_in, &b_in)
            .unwrap();
        let eq = ineq.with_equalities(&a_eq, &b_eq).unwrap();
        // The same equality rows without their lookback entries: a
        // different pattern in a KKT matrix of the same size.
        let mut a_eq_local = SparseMatrix::new();
        a_eq_local.reset(a_eq.cols());
        for r in 0..a_eq.rows() {
            let (cols, vals) = a_eq.row(r);
            for (c, v) in cols.iter().zip(vals).filter(|(&c, _)| c >= 3 * r) {
                a_eq_local.push(*c, *v);
            }
            a_eq_local.finish_row();
        }
        let eq_local = ineq.with_equalities(&a_eq_local, &b_eq).unwrap();
        let banded = eq.with_structure(QpStructure {
            vars_per_block: 3,
            eq_per_block: 1,
            lookback: 1,
        });
        // A problem of another size, and an infeasible one.
        let box_h = Matrix::from_diag(&[2.0, 3.0, 1.0, 4.0]);
        let box_g = [-10.0, 3.0, 1.0, -2.0];
        let box_a = box_rows(4);
        let box_b = [1.0; 8];
        let boxed = QpView::new(&box_h, &box_g)
            .unwrap()
            .with_inequalities(&box_a, &box_b)
            .unwrap();
        let one = Matrix::from_diag(&[2.0]);
        let contradictory = csr(&[&[1.0], &[-1.0]]);
        let infeasible = QpView::new(&one, &[0.0])
            .unwrap()
            .with_inequalities(&contradictory, &[0.0, -1.0])
            .unwrap();
        // No rows at all: the elastic relaxation is the view itself.
        let free = QpView::new(&box_h, &box_g).unwrap();

        let solver = QpSolver::default();
        let boosted = QpSolver::new(QpSolverOptions {
            regularization: 1e-4,
            ..QpSolverOptions::default()
        });
        let mut ws = IpmWorkspace::default();
        for _ in 0..2 {
            let views = [&ineq, &eq, &eq_local, &banded, &boxed, &infeasible, &free];
            for view in views {
                let z0 = vec![0.0; view.num_vars()];
                for s in [&solver, &boosted] {
                    assert_same(&s.solve_view_in(view, &z0, &mut ws), &s.solve_view(view));
                }
            }
            for view in views {
                assert_same(
                    &solver.solve_view_elastic_in(view, 10.0, &mut ws),
                    &solver.solve_view_elastic(view, 10.0),
                );
            }
            assert_same(
                &solver.solve_view_elastic_in(&free, 10.0, &mut ws),
                &solver.solve_view(&free),
            );
            // A warm attempt that breaks down and is re-solved cold ...
            let z0 = vec![0.0; ineq.num_vars()];
            let mut poisoned = QpWarmStart::new();
            poisoned.store(&vec![f64::INFINITY; ineq.num_ineq()]);
            let mut fresh_cache = poisoned.clone();
            let (reused, restart) =
                solver.solve_view_seeded(&ineq, &z0, &mut poisoned, WARM_FLOOR, &mut ws);
            let (fresh, fresh_restart) = solver.solve_view_seeded(
                &ineq,
                &z0,
                &mut fresh_cache,
                WARM_FLOOR,
                &mut IpmWorkspace::default(),
            );
            assert!(restart.is_some());
            assert_eq!(restart, fresh_restart);
            assert_same(&reused, &fresh);
            assert_same(&reused, &solver.solve_view(&ineq));
            // ... and a warm start that converges.
            assert_same(
                &solver
                    .solve_view_seeded(&ineq, &z0, &mut poisoned, WARM_FLOOR, &mut ws)
                    .0,
                &solver.solve_view_warm(&ineq, &z0, &mut fresh_cache),
            );
        }
    }

    #[test]
    fn a_warm_attempt_stops_where_cholesky_rejects_a_pivot() {
        // z ≤ 0 and z ≥ 1 cannot both hold. Cold, the iterates diverge
        // until their weights break a Cholesky pivot and LU carries on;
        // warm from multipliers that overflow the weights, the first KKT
        // matrix already has such a pivot.
        let h = Matrix::from_diag(&[2.0]);
        let a = csr(&[&[1.0], &[-1.0]]);
        let view = QpView::new(&h, &[0.0])
            .unwrap()
            .with_inequalities(&a, &[0.0, -1.0])
            .unwrap();
        let solver = QpSolver::default();
        let mut ws = IpmWorkspace::default();
        let mut spent = 1;
        let overflowing = [f64::MAX; 2];
        let warm = solver.solve_view_inner(
            &view,
            &[0.0],
            Some((&overflowing, WARM_FLOOR)),
            &mut spent,
            &mut ws,
        );
        assert!(
            matches!(
                warm,
                Err(OptimError::Linalg(
                    ev_linalg::LinalgError::NotPositiveDefinite
                ))
            ),
            "{warm:?}"
        );
        assert_eq!(spent, 0);
        assert!(ws.kkt.lu.is_none(), "the warm attempt factored an LU");
        let cold = solver.solve_view_inner(&view, &[0.0], None, &mut spent, &mut ws);
        assert!(
            matches!(
                cold,
                Err(OptimError::QpInfeasible { .. } | OptimError::QpMaxIterations { .. })
            ),
            "{cold:?}"
        );
        assert!(ws.kkt.lu.is_some(), "the cold solve fell back to LU");
    }

    /// A generated instance as a view of this crate. ev-testkit links its
    /// own build of ev-optim, so its views are not this crate's; the view
    /// is rebuilt from the instance's parts.
    fn generated_view(qp: &ev_testkit::qpgen::GeneratedQp) -> QpView<'_> {
        let mut view = QpView::new(&qp.h, &qp.g).unwrap();
        if !qp.b_eq.is_empty() {
            view = view.with_equalities(&qp.a_eq, &qp.b_eq).unwrap();
        }
        if !qp.b_in.is_empty() {
            view = view.with_inequalities(&qp.a_in, &qp.b_in).unwrap();
        }
        match qp.structure {
            Some(st) => view.with_structure(QpStructure {
                vars_per_block: st.vars_per_block,
                eq_per_block: st.eq_per_block,
                lookback: st.lookback,
            }),
            None => view,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Warm starts at the SQP's smallest and largest floors end where
        /// a cold solve ends: at a point `verify_kkt` certifies, or in an
        /// error of the same variant. Instances come from every
        /// ev-testkit generator family, warm multipliers from 1e-7 to 10.
        #[test]
        fn warm_starts_at_either_floor_end_like_a_cold_solve(seed in 0u64..10_000) {
            use rand::{Rng, SeedableRng};
            let solver = QpSolver::default();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            for family in ev_testkit::qpgen::QpFamily::ALL {
                let qp = ev_testkit::qpgen::generate_family(seed, family);
                let view = generated_view(&qp);
                let z0 = vec![0.0; view.num_vars()];
                let cold = solver.solve_view(&view);
                let lam: Vec<f64> = (0..view.num_ineq())
                    .map(|_| 10f64.powf(rng.gen_range(-7.0..1.0)))
                    .collect();
                for floor in [1e-5, WARM_FLOOR] {
                    let mut cache = QpWarmStart::new();
                    cache.store(&lam);
                    let ws = &mut IpmWorkspace::default();
                    let (warm, _) = solver.solve_view_seeded(&view, &z0, &mut cache, floor, ws);
                    let name = format!("{family:?} seed {seed}, floor {floor:e}");
                    match (&warm, &cold) {
                        (Ok(sol), Ok(_)) => {
                            let certified =
                                crate::verify_kkt(&view, &sol.z, &sol.y_eq, &sol.lambda_in, 1e-6);
                            proptest::prop_assert!(certified.is_ok(), "{name}: {certified:?}");
                        }
                        (Err(w), Err(c)) => proptest::prop_assert_eq!(
                            std::mem::discriminant(w),
                            std::mem::discriminant(c),
                            "{}: warm {} vs cold {}",
                            name,
                            w,
                            c
                        ),
                        _ => proptest::prop_assert!(false, "{name}: warm {warm:?} vs cold {cold:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn structure_bandwidth_formula() {
        let st = QpStructure {
            vars_per_block: 4,
            eq_per_block: 1,
            lookback: 1,
        };
        assert_eq!(st.bandwidth(), 9);
        let local = QpStructure {
            vars_per_block: 5,
            eq_per_block: 1,
            lookback: 1,
        };
        assert_eq!(local.bandwidth(), 11);
    }
}
