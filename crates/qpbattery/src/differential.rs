//! Differential-oracle harness: one generated instance, every
//! factorization backend, cross-checked answers.
//!
//! The interior-point solver can factor its reduced KKT system three
//! ways (dense LU, dense Cholesky, banded LDLᵀ). They must agree — the
//! LU path doubles as the correctness oracle for the others.
//! For each [`GeneratedQp`] this module solves:
//!
//! 1. the dense problem with `prefer_dense_cholesky` switched off
//!    (**dense LU** oracle),
//! 2. the dense problem with default options (**dense Cholesky** where
//!    eligible, i.e. no equality rows),
//! 3. the sparse-Jacobian view with its declared [`ev_optim::QpStructure`]
//!    (**banded LDLᵀ** for structured instances),
//!
//! then checks that every backend's solution satisfies the KKT
//! conditions independently, that primal solutions agree pairwise to
//! the family's tolerance, that objectives agree, and — for banded
//! instances — that the banded backend actually engaged and the
//! *measured* bandwidth does not exceed the *declared* one. Unsolvable
//! families (infeasible/unbounded/zero-variable) must come back as
//! routable `Err` values from every backend, never a panic or an
//! accepted "solution".
//!
//! Any violation is recorded on the report together with a
//! self-contained free-format MPS reproducer ([`crate::mps::write_mps`])
//! so a failure found by fuzzing five layers deep becomes a battery
//! fixture candidate.

use ev_optim::{kkt_report, OptimError, QpKktBackend, QpSolution, QpSolver, QpSolverOptions};
use ev_testkit::qpgen::{generate, GeneratedQp, QpFamily};

use crate::mps::write_mps;

/// Interior-point tolerance used for every backend run; tighter than
/// the cross-check tolerances below so agreement failures indicate
/// backend bugs, not slack convergence.
const SOLVE_TOL: f64 = 1e-10;
/// Relative KKT-residual bound each backend's answer must satisfy.
const KKT_TOL: f64 = 1e-6;
/// Relative objective agreement between backends.
const OBJECTIVE_TOL: f64 = 1e-8;

/// Outcome of one backend on one instance.
#[derive(Debug, Clone)]
pub struct BackendRun {
    /// Which configuration produced this run.
    pub label: &'static str,
    /// The solver's verdict.
    pub outcome: Result<QpSolution, OptimError>,
}

/// Everything the harness learned about one instance.
#[derive(Debug, Clone)]
pub struct DifferentialReport {
    /// Instance name (from the generator).
    pub name: String,
    /// Generator family of the instance.
    pub family: QpFamily,
    /// Per-backend outcomes, oracle first.
    pub runs: Vec<BackendRun>,
    /// Human-readable cross-check violations (empty when clean).
    pub failures: Vec<String>,
    /// Free-format MPS reproducer, present iff `failures` is non-empty.
    pub reproducer: Option<String>,
}

impl DifferentialReport {
    /// True when every cross-check passed.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Formats the failures and reproducer for a test assertion message.
    #[must_use]
    pub fn describe(&self) -> String {
        let mut s = format!("instance {} ({:?}):\n", self.name, self.family);
        for f in &self.failures {
            s.push_str("  - ");
            s.push_str(f);
            s.push('\n');
        }
        if let Some(mps) = &self.reproducer {
            s.push_str("reproducer (save as .mps and add to the battery):\n");
            s.push_str(mps);
        }
        s
    }
}

/// `prefer_dense_cholesky: false` is the LU reference.
fn solver(prefer_dense_cholesky: bool) -> QpSolver {
    QpSolver::new(QpSolverOptions {
        tolerance: SOLVE_TOL,
        max_iterations: 200,
        prefer_dense_cholesky,
        ..QpSolverOptions::default()
    })
}

/// Runs one instance through all backends and cross-checks the answers.
#[must_use]
pub fn differential_solve(qp: &GeneratedQp) -> DifferentialReport {
    let mut failures: Vec<String> = Vec::new();
    let mut runs: Vec<BackendRun> = Vec::new();

    // Backend 1 & 2: dense matrices, LU oracle and (where eligible)
    // dense Cholesky.
    match qp.to_problem() {
        Ok(problem) => {
            runs.push(BackendRun {
                label: "dense-lu",
                outcome: solver(false).solve(&problem),
            });
            runs.push(BackendRun {
                label: "dense-cholesky",
                outcome: solver(true).solve(&problem),
            });
        }
        Err(e) => {
            if qp.family.is_solvable() {
                failures.push(format!("building the dense problem failed: {e}"));
            } else {
                runs.push(BackendRun {
                    label: "dense-lu",
                    outcome: Err(e),
                });
            }
        }
    }

    // Backend 3: sparse-Jacobian view with the declared structure; this
    // is the only path that can take the banded LDLᵀ factorization.
    match qp.view() {
        Ok(view) => {
            runs.push(BackendRun {
                label: "banded-view",
                outcome: solver(false).solve_view(&view),
            });
            if qp.family == QpFamily::Banded {
                let declared = qp
                    .structure
                    .as_ref()
                    .expect("banded instances declare structure")
                    .bandwidth();
                match view.planned_bandwidth() {
                    Some(measured) if measured <= declared => {}
                    Some(measured) => failures.push(format!(
                        "measured bandwidth {measured} exceeds declared {declared}"
                    )),
                    None => {
                        failures.push("banded instance did not produce a banded plan".to_owned())
                    }
                }
            }
        }
        Err(e) => {
            if qp.family.is_solvable() {
                failures.push(format!("building the sparse view failed: {e}"));
            }
        }
    }

    if qp.family.is_solvable() {
        cross_check_solvable(qp, &runs, &mut failures);
    } else {
        // Unsolvable families: a routable error is the correct answer.
        // (Reaching this line at all means no backend panicked or hung.)
        for run in &runs {
            if let Ok(sol) = &run.outcome {
                failures.push(format!(
                    "{} accepted a {:?} instance as solved (objective {:.6e})",
                    run.label, qp.family, sol.objective
                ));
            }
        }
    }

    let reproducer = (!failures.is_empty()).then(|| {
        write_mps(
            &qp.name, &qp.h, &qp.g, &qp.a_eq, &qp.b_eq, &qp.a_in, &qp.b_in,
        )
    });
    DifferentialReport {
        name: qp.name.clone(),
        family: qp.family,
        runs,
        failures,
        reproducer,
    }
}

fn cross_check_solvable(qp: &GeneratedQp, runs: &[BackendRun], failures: &mut Vec<String>) {
    // Every backend must solve, and every solution must independently
    // satisfy the KKT conditions of the *dense* problem statement.
    let dense = match qp.to_problem() {
        Ok(p) => p,
        Err(_) => return, // already recorded above
    };
    let view = dense.as_view();
    let mut solved: Vec<(&'static str, &QpSolution)> = Vec::new();
    for run in runs {
        match &run.outcome {
            Ok(sol) => {
                match kkt_report(&view, &sol.z, &sol.y_eq, &sol.lambda_in) {
                    Ok(report) if report.satisfied(KKT_TOL) => {}
                    Ok(report) => failures.push(format!(
                        "{}: KKT residual {:.3e} exceeds {:.1e} x scale {:.3e}",
                        run.label,
                        report.max_residual(),
                        KKT_TOL,
                        report.scale
                    )),
                    Err(e) => failures.push(format!("{}: KKT report failed: {e}", run.label)),
                }
                solved.push((run.label, sol));
            }
            Err(e) => failures.push(format!(
                "{} failed on a solvable {:?} instance: {e}",
                run.label, qp.family
            )),
        }
    }
    if qp.family == QpFamily::Banded {
        if let Some((_, sol)) = solved.iter().find(|(l, _)| *l == "banded-view") {
            if sol.kkt_backend != QpKktBackend::Banded {
                failures.push(format!(
                    "banded-view run used {:?} instead of the banded backend",
                    sol.kkt_backend
                ));
            }
        }
    }

    // Pairwise agreement against the first successful run (the oracle).
    let tol = qp.family.primal_agreement_tol();
    if let Some(&(oracle_label, oracle)) = solved.first() {
        for &(label, sol) in &solved[1..] {
            let mut max_diff = 0.0f64;
            let mut max_mag = 0.0f64;
            for (a, b) in oracle.z.iter().zip(&sol.z) {
                max_diff = max_diff.max((a - b).abs());
                max_mag = max_mag.max(a.abs().max(b.abs()));
            }
            let rel = max_diff / (1.0 + max_mag);
            if rel > tol {
                failures.push(format!(
                    "primal disagreement {oracle_label} vs {label}: {rel:.3e} > {tol:.1e}"
                ));
            }
            let obj_rel = (oracle.objective - sol.objective).abs() / (1.0 + oracle.objective.abs());
            if obj_rel > OBJECTIVE_TOL {
                failures.push(format!(
                    "objective disagreement {oracle_label} vs {label}: {obj_rel:.3e}"
                ));
            }
        }
    }
}

/// Runs `count` seeded instances (deterministic: same `seed` and
/// `count` always produce the same instances and verdicts) and returns
/// every report. Callers assert `all(is_clean)` and print
/// [`DifferentialReport::describe`] for the dirty ones.
#[must_use]
pub fn fuzz(seed: u64, count: usize) -> Vec<DifferentialReport> {
    (0..count)
        .map(|i| differential_solve(&generate(seed, i)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_testkit::qpgen::generate_family;

    #[test]
    fn clean_on_each_family_smoke() {
        for family in QpFamily::ALL {
            let qp = generate_family(7, family);
            let report = differential_solve(&qp);
            assert!(report.is_clean(), "{}", report.describe());
            assert!(!report.runs.is_empty());
        }
    }

    #[test]
    fn reproducer_is_parseable_mps() {
        // Force a "failure" by checking a deliberately broken manifest:
        // fabricate a report through the public path instead — generate
        // an instance, dump its reproducer manually, and reparse it.
        let qp = generate_family(11, QpFamily::WellConditioned);
        let mps = write_mps(
            &qp.name, &qp.h, &qp.g, &qp.a_eq, &qp.b_eq, &qp.a_in, &qp.b_in,
        );
        let reloaded = crate::mps::parse_mps(&mps, crate::mps::MpsFormat::Free)
            .expect("reproducer must reparse");
        assert_eq!(reloaded.num_vars(), qp.num_vars());
        assert_eq!(reloaded.b_in.len(), qp.b_in.len());
        assert_eq!(reloaded.b_eq.len(), qp.b_eq.len());
    }

    #[test]
    fn fuzz_is_deterministic() {
        let a = fuzz(42, 14);
        let b = fuzz(42, 14);
        assert_eq!(a.len(), b.len());
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.name, rb.name);
            assert_eq!(ra.failures, rb.failures);
            assert_eq!(ra.runs.len(), rb.runs.len());
            for (xa, xb) in ra.runs.iter().zip(&rb.runs) {
                match (&xa.outcome, &xb.outcome) {
                    (Ok(sa), Ok(sb)) => assert_eq!(sa.z, sb.z, "{} not bitwise stable", ra.name),
                    (Err(_), Err(_)) => {}
                    _ => panic!("{}: outcome flipped between runs", ra.name),
                }
            }
        }
    }
}
