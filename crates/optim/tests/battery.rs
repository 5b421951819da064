//! The solver proving ground: runs the vendored MPS battery through the
//! interior-point QP solver and checks every answer against committed
//! reference objectives and the exported KKT verifier, then pins the
//! error-routing and warm-start-invalidation contracts with
//! generator-driven property tests.
//!
//! These problems come from the literature (Hock–Schittkowski, CUTE,
//! Maros–Mészáros-style cases) and from hand-written degenerate
//! constructions — none of them were designed around this solver, which
//! is the point.

use ev_optim::{
    verify_kkt, NoopSqpObserver, OptimError, QpSolver, QpSolverOptions, QpWarmStart, SqpSolver,
};
use ev_qpbattery::battery::{self, Expected};
use ev_testkit::qpgen::{generate_family, QpAsNlp, QpFamily};
use proptest::prelude::*;

/// Tight solve so the 1e-6 acceptance bounds have headroom; the battery
/// checks optimality via [`verify_kkt`], not via solver-internal status.
fn battery_solver() -> QpSolver {
    QpSolver::new(QpSolverOptions {
        tolerance: 1e-10,
        max_iterations: 200,
        ..QpSolverOptions::default()
    })
}

/// Tentpole acceptance: every vendored problem loads through the MPS
/// reader, solvable cases reach KKT residual ≤ 1e-6 with objectives
/// matching the committed references to ≤ 1e-6 relative, and
/// infeasible/unbounded cases come back as routable errors.
#[test]
fn vendored_battery_matches_references() {
    let solver = battery_solver();
    assert!(battery::CASES.len() >= 20);
    for case in battery::CASES {
        let qp = case
            .load()
            .unwrap_or_else(|e| panic!("{}: load failed: {e}", case.name));
        let problem = qp
            .view()
            .unwrap_or_else(|e| panic!("{}: build failed: {e}", case.name));
        match case.expected {
            Expected::Objective(reference) => {
                let sol = solver
                    .solve_view(&problem)
                    .unwrap_or_else(|e| panic!("{}: solve failed: {e}", case.name));
                // Optimality certified independently of solver internals:
                // for a convex problem a KKT point is a global optimum.
                verify_kkt(&problem, &sol.z, &sol.y_eq, &sol.lambda_in, 1e-6)
                    .unwrap_or_else(|e| panic!("{}: KKT certification failed: {e}", case.name));
                let objective = qp.objective_value(&sol.z);
                let rel = (objective - reference).abs() / reference.abs().max(1.0);
                assert!(
                    rel <= 1e-6,
                    "{}: objective {objective:.12e} vs reference {reference:.12e} (rel {rel:.3e})",
                    case.name
                );
            }
            Expected::Infeasible => match solver.solve_view(&problem) {
                Err(
                    OptimError::QpInfeasible { .. }
                    | OptimError::QpMaxIterations { .. }
                    | OptimError::Linalg(_),
                ) => {}
                Err(e) => panic!("{}: unexpected error kind: {e}", case.name),
                Ok(sol) => panic!(
                    "{}: accepted an infeasible problem (objective {:.6e})",
                    case.name, sol.objective
                ),
            },
            Expected::Unbounded => match solver.solve_view(&problem) {
                Err(OptimError::QpUnbounded { .. } | OptimError::QpMaxIterations { .. }) => {}
                Err(e) => panic!("{}: unexpected error kind: {e}", case.name),
                Ok(sol) => panic!(
                    "{}: accepted an unbounded problem (objective {:.6e})",
                    case.name, sol.objective
                ),
            },
        }
    }
}

/// The verifier is a real check, not a rubber stamp: feasible but
/// suboptimal points (and fabricated multipliers) must be rejected.
#[test]
fn verifier_rejects_suboptimal_battery_points() {
    let case = battery::find("hs35").expect("hs35 is vendored");
    let qp = case.load().expect("load");
    let problem = qp.view().expect("build");
    // x = 0 is feasible for HS35 (0 + 0 + 0 <= 3, x >= 0) but not
    // optimal; with zero multipliers stationarity fails by ‖g‖.
    let z = vec![0.0; qp.num_vars()];
    let lambda = vec![0.0; qp.b_in.len()];
    let err = verify_kkt(&problem, &z, &[], &lambda, 1e-6)
        .expect_err("suboptimal point must not certify");
    assert!(matches!(err, OptimError::KktViolation { .. }), "got {err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Satellite: pathological instances — infeasible, unbounded, and
    /// zero-variable — always produce routable `Err` values. No panic,
    /// no hang: the solve returns, and when it reports iterations it
    /// respected `max_iterations`.
    #[test]
    fn pathological_instances_error_routably(seed in 0u64..10_000) {
        let options = QpSolverOptions { max_iterations: 80, ..QpSolverOptions::default() };
        let solver = QpSolver::new(options);
        for family in [QpFamily::Infeasible, QpFamily::Unbounded, QpFamily::ZeroVariable] {
            let qp = generate_family(seed, family);
            let problem = qp.view().expect("construction is always well-formed");
            match solver.solve_view(&problem) {
                Err(e) => {
                    // Routable: a value the SQP recovery arms can match on,
                    // with a human-readable rendering.
                    prop_assert!(!e.to_string().is_empty());
                }
                Ok(sol) => {
                    prop_assert!(
                        false,
                        "{:?} instance (seed {seed}) accepted as solved: objective {:.6e} in {} iterations",
                        family, sol.objective, sol.iterations
                    );
                }
            }
        }
    }

    /// Satellite: a dimension-mismatched IPM warm-start cache must be
    /// ignored, not partially applied. Solving problem B with a cache
    /// warmed on differently-sized problem A must reproduce the cold
    /// solve bit for bit.
    #[test]
    fn stale_warm_start_is_invalidated_across_dimension_change(seed in 0u64..2_000) {
        let small = generate_family(seed, QpFamily::Banded);
        let big = generate_family(seed.wrapping_add(1), QpFamily::Banded);
        prop_assume!(small.num_vars() != big.num_vars()
            || small.b_in.len() != big.b_in.len());

        let solver = QpSolver::default();
        let small_view = small.view().expect("view");
        let big_view = big.view().expect("view");

        let mut warm = QpWarmStart::new();
        let z0_small = vec![0.0; small.num_vars()];
        solver
            .solve_view_warm(&small_view, &z0_small, &mut warm)
            .expect("small instance solves");

        // `warm` now holds multipliers sized for `small`; reusing it on
        // `big` must be identical to a cold solve.
        let z0_big = vec![0.0; big.num_vars()];
        let stale = solver
            .solve_view_warm(&big_view, &z0_big, &mut warm)
            .expect("big instance solves with stale cache");
        let cold = solver.solve_view(&big_view).expect("big instance solves cold");
        prop_assert_eq!(&stale.z, &cold.z, "stale cache leaked into the solve");
        prop_assert_eq!(stale.iterations, cold.iterations);
    }
}

/// Satellite (deterministic end-to-end variant): `SqpSolver::solve_cached`
/// across two different-dimension NLP instances with one shared cache
/// matches the cold result exactly.
#[test]
fn sqp_solve_cached_survives_dimension_change() {
    let small = generate_family(3, QpFamily::Banded);
    let big = generate_family(5, QpFamily::Banded);
    assert_ne!(
        (small.num_vars(), small.b_in.len()),
        (big.num_vars(), big.b_in.len()),
        "pick seeds that generate different shapes"
    );
    let sqp = SqpSolver::default();
    let z0_small = vec![0.0; small.num_vars()];
    let z0_big = vec![0.0; big.num_vars()];
    let nlp_small = QpAsNlp::new(small);
    let nlp_big = QpAsNlp::new(big);

    let mut warm = QpWarmStart::new();
    sqp.solve_cached(&nlp_small, &z0_small, &mut warm, NoopSqpObserver)
        .expect("small NLP solves");
    let stale = sqp
        .solve_cached(&nlp_big, &z0_big, &mut warm, NoopSqpObserver)
        .expect("big NLP solves with a cache warmed on the small one");

    let mut fresh = QpWarmStart::new();
    let cold = sqp
        .solve_cached(&nlp_big, &z0_big, &mut fresh, NoopSqpObserver)
        .expect("big NLP solves cold");
    assert_eq!(
        stale.z, cold.z,
        "stale multipliers leaked across dimensions"
    );
    assert_eq!(stale.iterations, cold.iterations);
    assert!(stale.is_converged());
}
