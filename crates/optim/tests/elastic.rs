//! Elastic-mode oracle: [`QpSolver::solve_view_elastic`] eliminates the
//! slack block of the relaxation and factors only an `n × n` system; the
//! explicit formulation below — the (n + me + mi)-variable QP with one
//! row per relaxed constraint — is the reference it must match.
//!
//! Every case is an *inconsistent* linearization, the only kind the SQP
//! ever relaxes: the nominal QP must fail, the relaxation must solve, and
//! both formulations must agree in objective, step, slacks and row
//! multipliers, with [`verify_kkt`] certifying the explicit formulation at
//! the recovered `(d, t)`.

use ev_linalg::{Matrix, SparseMatrix};
use ev_optim::{
    verify_kkt, NlpProblem, QpSolution, QpSolver, QpSubproblemStatus, QpView, SqpOptions,
    SqpSolver, SqpTraceObserver,
};
use ev_testkit::qpgen::{generate_family, QpFamily};

/// Curvature the relaxation puts on each slack.
const DELTA: f64 = 1e-8;

/// The explicit elastic relaxation of `min ½dᵀHd + gᵀd s.t. A_eq d = b_eq,
/// A_in d ≤ b_in`: unknowns `(d, t)`, rows `±(A_eq d − b_eq) − t ≤ 0`
/// (one slack per equality pair), `A_in d − b_in − t ≤ 0`, `−t ≤ 0`.
fn explicit_elastic(sub: &Subproblem, slack_weight: f64) -> Subproblem {
    let (h, g, b_eq, b_in) = (&sub.h, &sub.g, &sub.b_eq, &sub.b_in);
    let (a_eq, a_in) = (sub.a_eq.to_dense(), sub.a_in.to_dense());
    let n = g.len();
    let (me, mi) = (b_eq.len(), b_in.len());
    let nt = n + me + mi;
    let mut hh = Matrix::zeros(nt, nt);
    for r in 0..n {
        for c in 0..n {
            hh.set(r, c, h.get(r, c));
        }
    }
    for i in n..nt {
        hh.set(i, i, DELTA);
    }
    let mut gg = vec![slack_weight; nt];
    gg[..n].copy_from_slice(g);
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut rhs = Vec::new();
    for r in 0..me {
        for sign in [1.0, -1.0] {
            let mut row = vec![0.0; nt];
            for (x, v) in row.iter_mut().zip(a_eq.row(r)) {
                *x = sign * v;
            }
            row[n + r] = -1.0;
            rows.push(row);
            rhs.push(sign * b_eq[r]);
        }
    }
    for r in 0..mi {
        let mut row = vec![0.0; nt];
        row[..n].copy_from_slice(a_in.row(r));
        row[n + me + r] = -1.0;
        rows.push(row);
        rhs.push(b_in[r]);
    }
    for k in 0..me + mi {
        let mut row = vec![0.0; nt];
        row[n + k] = -1.0;
        rows.push(row);
        rhs.push(0.0);
    }
    Subproblem {
        h: hh,
        g: gg,
        a_eq: csr(nt, &[]),
        b_eq: Vec::new(),
        a_in: csr(nt, &rows),
        b_in: rhs,
    }
}

/// One QP subproblem with its Jacobians in CSR form (as the MPC
/// transcriptions emit them): an inconsistent linearization, or the
/// explicit elastic relaxation of one.
struct Subproblem {
    h: Matrix,
    g: Vec<f64>,
    a_eq: SparseMatrix,
    b_eq: Vec<f64>,
    a_in: SparseMatrix,
    b_in: Vec<f64>,
}

impl Subproblem {
    fn view(&self) -> QpView<'_> {
        let mut view = QpView::new(&self.h, &self.g).unwrap();
        if !self.b_eq.is_empty() {
            view = view.with_equalities(&self.a_eq, &self.b_eq).unwrap();
        }
        if !self.b_in.is_empty() {
            view = view.with_inequalities(&self.a_in, &self.b_in).unwrap();
        }
        view
    }
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

/// SPD `L·Lᵀ + I`, like a BFGS approximation.
fn spd(n: usize, seed: &mut u64) -> Matrix {
    let l = Matrix::from_fn(n, n, |r, c| if c <= r { uniform(seed) } else { 0.0 });
    let mut h = l.matmul(&l.transpose()).unwrap();
    for i in 0..n {
        h.add_at(i, i, 1.0);
    }
    // Exact symmetry, as the QP's Hessian check wants.
    Matrix::from_fn(n, n, |r, c| 0.5 * (h.get(r, c) + h.get(c, r)))
}

fn csr(n: usize, rows: &[Vec<f64>]) -> SparseMatrix {
    let mut a = SparseMatrix::new();
    a.reset(n);
    for row in rows {
        for (c, &v) in row.iter().enumerate() {
            if v != 0.0 {
                a.push(c, v);
            }
        }
        a.finish_row();
    }
    a
}

/// `mi` random rows over `n` variables with `pairs` contradictory pairs
/// (`a·d ≤ b` and `−a·d ≤ −b − gap`) and a sparsity pattern like the
/// condensed MPC's prefix-coupled rows.
fn inconsistent_inequalities(
    n: usize,
    mi: usize,
    pairs: usize,
    seed: &mut u64,
) -> (SparseMatrix, Vec<f64>) {
    let mut rows = Vec::new();
    let mut b = Vec::new();
    for r in 0..mi - 2 * pairs {
        let reach = 1 + r % n;
        rows.push(
            (0..n)
                .map(|c| if c < reach { uniform(seed) } else { 0.0 })
                .collect::<Vec<_>>(),
        );
        b.push(0.5 + uniform(seed));
    }
    for _ in 0..pairs {
        let a: Vec<f64> = (0..n).map(|_| uniform(seed)).collect();
        let lo = uniform(seed);
        let gap = 0.5 + uniform(seed).abs();
        b.push(lo);
        rows.push(a.clone());
        b.push(-lo - gap);
        rows.push(a.iter().map(|v| -v).collect());
    }
    (csr(n, &rows), b)
}

fn inequality_only(n: usize, mi: usize, seed: u64) -> Subproblem {
    let mut seed = seed;
    let h = spd(n, &mut seed);
    let g = (0..n).map(|_| uniform(&mut seed)).collect();
    let (a_in, b_in) = inconsistent_inequalities(n, mi, 2, &mut seed);
    Subproblem {
        h,
        g,
        a_eq: csr(n, &[]),
        b_eq: Vec::new(),
        a_in,
        b_in,
    }
}

/// Equalities that contradict each other (a duplicated row with another
/// right-hand side) next to a consistent set of inequalities.
fn with_equalities(n: usize, seed: u64) -> Subproblem {
    let mut seed = seed;
    let h = spd(n, &mut seed);
    let g = (0..n).map(|_| uniform(&mut seed)).collect();
    let a: Vec<f64> = (0..n).map(|_| uniform(&mut seed)).collect();
    let other: Vec<f64> = (0..n).map(|_| uniform(&mut seed)).collect();
    let a_eq = csr(n, &[a.clone(), other, a]);
    let b_eq = vec![0.3, -0.2, 1.1];
    let box_rows: Vec<Vec<f64>> = (0..n)
        .flat_map(|i| {
            let mut up = vec![0.0; n];
            up[i] = 1.0;
            let mut lo = vec![0.0; n];
            lo[i] = -1.0;
            [up, lo]
        })
        .collect();
    let b_in = vec![2.0; 2 * n];
    Subproblem {
        h,
        g,
        a_eq,
        b_eq,
        a_in: csr(n, &box_rows),
        b_in,
    }
}

fn qpgen_infeasible(seed: u64) -> Subproblem {
    let qp = generate_family(seed, QpFamily::Infeasible);
    Subproblem {
        h: qp.h,
        g: qp.g,
        a_eq: qp.a_eq,
        b_eq: qp.b_eq,
        a_in: qp.a_in,
        b_in: qp.b_in,
    }
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// The relaxation solved both ways agrees, and the slack-eliminated
/// answer is a certified KKT point of the explicit formulation. Where the
/// explicit formulation exhausts its iteration budget the reduced one
/// must fail the same way. Returns whether the relaxation solved.
fn assert_matches_explicit(name: &str, sub: &Subproblem, slack_weight: f64) -> bool {
    let solver = QpSolver::default();
    let view = sub.view();
    assert!(
        solver.solve_view(&view).is_err(),
        "{name}: the nominal subproblem must be inconsistent"
    );
    let explicit_qp = explicit_elastic(sub, slack_weight);
    let explicit_view = explicit_qp.view();
    let (reduced, explicit): (QpSolution, QpSolution) = match (
        solver.solve_view_elastic(&view, slack_weight),
        solver.solve_view(&explicit_view),
    ) {
        (Ok(r), Ok(e)) => (r, e),
        (Err(r), Err(e)) => {
            assert_eq!(
                std::mem::discriminant(&r),
                std::mem::discriminant(&e),
                "{name}: reduced {r} vs explicit {e}"
            );
            return false;
        }
        (r, e) => panic!("{name}: reduced {r:?} vs explicit {e:?}"),
    };

    let (n, me, mi) = (view.num_vars(), view.num_eq(), view.num_ineq());
    assert_eq!(reduced.z.len(), n + me + mi, "{name}: (d, t) layout");
    assert_eq!(
        reduced.lambda_in.len(),
        3 * me + 2 * mi,
        "{name}: row layout"
    );
    assert!(reduced.y_eq.is_empty());
    assert_eq!(reduced.iterations, explicit.iterations, "{name}: IPM path");

    let rel = (reduced.objective - explicit.objective).abs() / explicit.objective.abs().max(1.0);
    assert!(
        rel <= 1e-8,
        "{name}: objective {} vs explicit {} (rel {rel:e})",
        reduced.objective,
        explicit.objective
    );
    // Step and slacks, then row multipliers, to the solver tolerance
    // scaled by the slack price (the multipliers' upper bound).
    let tol = QpSolver::default().options().tolerance;
    let dz = max_abs_diff(&reduced.z, &explicit.z);
    assert!(
        dz <= tol * (1.0 + slack_weight),
        "{name}: (d, t) off by {dz:e}"
    );
    let dl = max_abs_diff(&reduced.lambda_in, &explicit.lambda_in);
    assert!(
        dl <= tol * (1.0 + slack_weight),
        "{name}: multipliers off by {dl:e}"
    );

    // The battery's acceptance bound: the interior-point stopping test
    // bounds the *mean* complementarity, the verifier the largest.
    verify_kkt(
        &explicit_view,
        &reduced.z,
        &reduced.y_eq,
        &reduced.lambda_in,
        1e-6,
    )
    .unwrap_or_else(|e| panic!("{name}: explicit formulation not certified: {e}"));
    true
}

#[test]
fn inequality_only_relaxation_matches_explicit() {
    for (seed, n, mi) in [(1, 4, 8), (2, 8, 20), (3, 32, 104)] {
        let sub = inequality_only(n, mi, seed);
        assert!(assert_matches_explicit(
            &format!("ineq n={n} mi={mi}"),
            &sub,
            100.0
        ));
    }
}

#[test]
fn relaxation_with_equalities_matches_explicit() {
    for (seed, n) in [(4, 3), (5, 6), (6, 12)] {
        let sub = with_equalities(n, seed);
        assert!(assert_matches_explicit(&format!("eq n={n}"), &sub, 50.0));
    }
}

#[test]
fn qpgen_infeasible_family_relaxation_matches_explicit() {
    let mut solved = 0;
    for seed in 0..25 {
        let sub = qpgen_infeasible(seed);
        for weight in [10.0, 30.0] {
            let name = format!("qpgen infeasible s{seed} weight {weight}");
            solved += usize::from(assert_matches_explicit(&name, &sub, weight));
        }
    }
    assert!(solved >= 40, "only {solved} of 50 relaxations solved");
}

#[test]
fn relaxation_rejects_non_finite_slack_weight() {
    let sub = inequality_only(4, 8, 11);
    assert!(QpSolver::default()
        .solve_view_elastic(&sub.view(), f64::NAN)
        .is_err());
}

/// `min (z₀ − 2)² + z₁²` subject to linear inequalities that contradict
/// each other (`z₀ ≤ −1`, `z₀ ≥ 1`): every linearization is inconsistent,
/// so every major iteration must take exactly one elastic retry.
struct AlwaysInconsistent;

impl NlpProblem for AlwaysInconsistent {
    fn num_vars(&self) -> usize {
        2
    }
    fn objective(&self, z: &[f64]) -> f64 {
        (z[0] - 2.0).powi(2) + z[1] * z[1]
    }
    fn num_ineq(&self) -> usize {
        3
    }
    fn ineq_constraints(&self, z: &[f64], out: &mut [f64]) {
        out[0] = z[0] + 1.0;
        out[1] = 1.0 - z[0];
        out[2] = z[1] - 5.0;
    }
}

#[test]
fn every_inconsistent_iteration_reports_one_elastic_retry() {
    // Each retry raises the merit penalty to about 15× the slack price of
    // the last relaxation, so after a few rounds the relaxation itself
    // breaks down; three major iterations stay clear of that.
    let solver = SqpSolver::new(SqpOptions {
        max_iterations: 3,
        ..SqpOptions::default()
    });
    let mut trace = SqpTraceObserver::default();
    let result = solver
        .solve_observed(&AlwaysInconsistent, &[0.5, 0.5], &mut trace)
        .unwrap();
    // One record, hence one `sqp_qp_elastic_total` increment, per major
    // iteration: each relaxed subproblem is counted once.
    assert_eq!(trace.records.len(), 3);
    for record in &trace.records {
        assert_eq!(record.qp_status, QpSubproblemStatus::Elastic);
        assert!(record.qp_iterations > 0);
    }
    // The relaxed steps head for the least-violation point z₀ ∈ [−1, 1]
    // between the two contradictory bounds.
    assert!(result.z.iter().all(|v| v.is_finite()));
    assert!(result.z[0].abs() <= 1.0 + 1e-3, "{:?}", result.z);
}
