//! Pins the SQP's dense-to-CSR Jacobian conversion.
//!
//! Every QP subproblem takes its constraint rows in CSR form. A problem
//! that has no CSR Jacobians (`*_jacobian_sparse_into` returns `false`,
//! as for the finite-difference default) has its dense ones converted at
//! the NLP boundary, which drops only their ±0.0 entries. A problem seen
//! through [`DenseOnly`] hides its CSR Jacobians and hands the SQP its
//! dense views instead, which are those CSR Jacobians densified. So it
//! must solve to the same bits: the condensed MPC at production settings,
//! and every solvable generated QP family, banded structure and equality
//! rows included.
//!
//! The same production solves also pin how many interior-point
//! iterations they take, so a change to where a warm QP starts shows.

use ev_control::{ControlContext, MpcController, PreviewSample};
use ev_core::EvParams;
use ev_hvac::HvacState;
use ev_linalg::Matrix;
use ev_optim::{
    NlpProblem, QpStructure, SqpIterationRecord, SqpObserver, SqpOptions, SqpResult, SqpSolver,
};
use ev_testkit::qpgen::{generate_family, QpAsNlp, QpFamily};
use ev_units::{Celsius, Percent, Seconds, Watts};

/// Forwards every [`NlpProblem`] method to the inner problem except the
/// two CSR Jacobians, which it does not have, so the SQP converts the
/// dense ones.
struct DenseOnly<'a>(&'a dyn NlpProblem);

impl NlpProblem for DenseOnly<'_> {
    fn num_vars(&self) -> usize {
        self.0.num_vars()
    }
    fn objective(&self, z: &[f64]) -> f64 {
        self.0.objective(z)
    }
    fn has_exact_derivatives(&self) -> bool {
        self.0.has_exact_derivatives()
    }
    fn gradient(&self, z: &[f64], grad: &mut [f64]) {
        self.0.gradient(z, grad);
    }
    fn num_eq(&self) -> usize {
        self.0.num_eq()
    }
    fn eq_constraints(&self, z: &[f64], out: &mut [f64]) {
        self.0.eq_constraints(z, out);
    }
    fn eq_jacobian(&self, z: &[f64]) -> Matrix {
        self.0.eq_jacobian(z)
    }
    fn num_ineq(&self) -> usize {
        self.0.num_ineq()
    }
    fn ineq_constraints(&self, z: &[f64], out: &mut [f64]) {
        self.0.ineq_constraints(z, out);
    }
    fn ineq_jacobian(&self, z: &[f64]) -> Matrix {
        self.0.ineq_jacobian(z)
    }
    fn qp_structure(&self) -> Option<QpStructure> {
        self.0.qp_structure()
    }
}

/// Solves `problem` from `z0` as is and through [`DenseOnly`], requires
/// the same `z`, objective and violation bits, iteration count and
/// status, and returns the CSR run's result.
fn assert_same_solve(
    name: &str,
    solver: &SqpSolver,
    problem: &dyn NlpProblem,
    z0: &[f64],
) -> SqpResult {
    let csr = solver.solve(problem, z0).expect("the CSR run solves");
    let dense = solver
        .solve(&DenseOnly(problem), z0)
        .expect("the dense run solves");
    let outcome = |r: &SqpResult| {
        let z: Vec<u64> = r.z.iter().map(|v| v.to_bits()).collect();
        let (f, viol) = (r.objective.to_bits(), r.constraint_violation.to_bits());
        (z, f, viol, r.iterations, r.status)
    };
    assert_eq!(outcome(&dense), outcome(&csr), "{name}");
    csr
}

/// The SQP options `MpcBuilder::build` gives the production controller.
fn production_sqp() -> SqpSolver {
    SqpSolver::new(SqpOptions {
        tolerance: 1e-4,
        max_iterations: 25,
        max_line_search: 15,
        initial_penalty: 10.0,
        ..SqpOptions::default()
    })
}

/// A saw-tooth motor preview around `motor_kw`, at 1 s per sample.
fn preview(motor_kw: f64, ambient: f64) -> Vec<PreviewSample> {
    (0..64)
        .map(|i| PreviewSample {
            motor_power: Watts::new(motor_kw * 1000.0 * (1.0 + 0.5 * ((i % 5) as f64 - 2.0) / 2.0)),
            ambient: Celsius::new(ambient),
            solar: Watts::new(350.0),
        })
        .collect()
}

/// The controller's cold guess (scaled variables, four per step):
/// passive coils at the mix temperature, 70 % recirculation, mid-range
/// flow.
fn cold_start(params: &EvParams, horizon: usize, ambient: f64, cabin: f64) -> Vec<f64> {
    let hvac = params.hvac_model();
    let mid_flow = 0.5 * (hvac.params().min_flow.value() + hvac.params().max_flow.value());
    let tm = 0.3 * ambient + 0.7 * cabin;
    (0..horizon)
        .flat_map(|_| [tm / 10.0, tm / 10.0, 0.7, mid_flow / 0.1])
        .collect()
}

/// `z` shifted one step forward, its last step repeated: the start of
/// the next receding-horizon solve.
fn shifted(z: &[f64]) -> Vec<f64> {
    let mut next = z[4..].to_vec();
    next.extend_from_slice(&z[z.len() - 4..]);
    next
}

/// (ambient, cabin, motor kW): hot and cold soaks and cabins near the
/// target, under low and high motor power.
const CONTEXTS: [(f64, f64, f64); 4] = [
    (38.0, 38.0, 3.0),
    (38.0, 26.0, 55.0),
    (-8.0, -8.0, 55.0),
    (-8.0, 22.0, 3.0),
];

/// A control step at `ambient` with the cabin at `cabin`, one minute into
/// a drive.
fn context(ambient: f64, cabin: f64, samples: &[PreviewSample]) -> ControlContext<'_> {
    ControlContext {
        state: HvacState::new(Celsius::new(cabin)),
        ambient: Celsius::new(ambient),
        solar: Watts::new(350.0),
        soc: Percent::new(80.0),
        soc_avg: 81.5,
        dt: Seconds::new(1.0),
        elapsed: Seconds::new(60.0),
        preview: samples,
    }
}

#[test]
fn condensed_mpc_solves_alike_from_dense_jacobians() {
    let params = EvParams::nissan_leaf_like();
    let mpc: MpcController = params.mpc_builder().build().expect("valid mpc config");
    assert_eq!(mpc.horizon(), 8);
    let solver = production_sqp();
    for &(ambient, cabin, motor_kw) in &CONTEXTS {
        let samples = preview(motor_kw, ambient);
        let ctx = context(ambient, cabin, &samples);
        let nlp = mpc.nlp(&ctx);
        assert_eq!(nlp.num_eq(), 0);
        let name = format!("ambient {ambient}, cabin {cabin}, motor {motor_kw} kW");
        let z0 = cold_start(&params, mpc.horizon(), ambient, cabin);
        let cold = assert_same_solve(&format!("{name}, cold"), &solver, &nlp, &z0);
        let warm = shifted(&cold.z);
        assert_same_solve(&format!("{name}, shifted"), &solver, &nlp, &warm);
    }
}

/// A solve's interior-point iterations: each subproblem's reported
/// count plus those of a warm attempt that was abandoned and re-solved
/// cold.
#[derive(Default)]
struct IpmIterations(usize);

impl SqpObserver for IpmIterations {
    fn on_iteration(&mut self, record: &SqpIterationRecord) {
        self.0 += record.qp_iterations + record.qp_warm_restart.unwrap_or(0);
    }
}

#[test]
fn production_solves_take_a_pinned_number_of_ipm_iterations() {
    // A warm subproblem after the first of a solve lifts its slacks and
    // duals to a floor scaled to the previous SQP step (DESIGN.md,
    // "In-solve warm start"). With the fixed 1e-3 floor it replaced,
    // these eight solves took 381 iterations.
    let params = EvParams::nissan_leaf_like();
    let mpc: MpcController = params.mpc_builder().build().expect("valid mpc config");
    let solver = production_sqp();
    let mut iterations = IpmIterations::default();
    for &(ambient, cabin, motor_kw) in &CONTEXTS {
        let samples = preview(motor_kw, ambient);
        let ctx = context(ambient, cabin, &samples);
        let nlp = mpc.nlp(&ctx);
        let z0 = cold_start(&params, mpc.horizon(), ambient, cabin);
        let cold = solver
            .solve_observed(&nlp, &z0, &mut iterations)
            .expect("the cold start solves");
        solver
            .solve_observed(&nlp, &shifted(&cold.z), &mut iterations)
            .expect("the shifted start solves");
    }
    assert_eq!(iterations.0, 363);
}

#[test]
fn generated_qps_solve_alike_from_dense_jacobians() {
    let solver = SqpSolver::default();
    for family in QpFamily::ALL.into_iter().filter(|f| f.is_solvable()) {
        for seed in 0..12 {
            let nlp = QpAsNlp::new(generate_family(seed, family));
            let z0 = vec![0.0; nlp.num_vars()];
            let name = format!("{family:?} seed {seed}");
            assert_same_solve(&name, &solver, &nlp, &z0);
        }
    }
}
