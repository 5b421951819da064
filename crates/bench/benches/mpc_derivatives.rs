//! MPC solve benchmarks.
//!
//! The MPC NLP supplies an adjoint objective gradient and a
//! forward-sensitivity inequality Jacobian in CSR form. `derivative_eval_*`
//! times them against central differencing (2·n extra rollouts per
//! gradient, another 2·n per Jacobian), the oracle the derivative tests
//! compare against. The other arms time the production MPC at the granularities
//! that matter: one QP subproblem, one `MpcController::control` solve
//! (with and without observability attached, and at long horizons) and a
//! whole evaluation-sweep cell, also under the rule-based baselines, whose
//! fuzzy inference is also timed on its own.
//! `BENCH_mpc.json` at the repository root records the baseline medians.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use ev_bench::{bench_context, bench_preview, run_cell};
use ev_control::ClimateController;
use ev_core::{ControllerKind, EvParams};
use ev_drive::DriveCycle;
use ev_hvac::HvacState;
use ev_linalg::{Matrix, SparseMatrix};
use ev_optim::{NlpProblem, QpSolver, QpView};
use ev_units::Celsius;

/// One gradient + inequality-Jacobian evaluation of the paper MPC's NLP
/// (32 variables, 104 constraints): the analytic adjoint/sensitivity
/// sweeps, the Jacobian written into one reused CSR matrix as the SQP
/// evaluates it, against the central-difference fallback the solver would
/// otherwise use. This is where the exact-derivative speedup lives —
/// end-to-end solves dilute it with QP time.
fn bench_derivative_eval(c: &mut Criterion) {
    let params = EvParams::nissan_leaf_like();
    let mpc = params.mpc_builder().build().expect("valid config");
    let preview = bench_preview(64);
    let ctx = bench_context(&preview);
    let nlp = mpc.nlp(&ctx);
    let n = nlp.num_vars();
    let m = nlp.num_ineq();
    let base: Vec<f64> = (0..n)
        .map(|i| [2.0, 1.8, 0.5, 1.2][i % 4] + 0.01 * (i % 3) as f64)
        .collect();

    let mut group = c.benchmark_group("mpc_derivatives");
    group.sample_size(20);
    group.bench_function("derivative_eval_csr", |b| {
        let mut z = base.clone();
        let mut grad = vec![0.0; n];
        let mut jac = SparseMatrix::new();
        b.iter(|| {
            // Nudge the iterate so the shared-rollout cache cannot hide
            // the forward pass.
            z[0] += 1e-9;
            nlp.gradient(black_box(&z), &mut grad);
            black_box(nlp.ineq_jacobian_sparse_into(black_box(&z), &mut jac));
            black_box(grad[0])
        })
    });
    group.bench_function("derivative_eval_finite_diff", |b| {
        let mut z = base.clone();
        b.iter(|| {
            z[0] += 1e-9;
            let g = ev_optim::finite_diff::gradient(&|p: &[f64]| nlp.objective(p), &z);
            let j = ev_optim::finite_diff::jacobian(
                &|p: &[f64], out: &mut [f64]| nlp.ineq_constraints(p, out),
                &z,
                m,
            );
            black_box((g[0], j[0][0]))
        })
    });
    group.finish();
}

/// One cold interior-point solve of a production QP subproblem, the
/// layer that dominates an h8 control step: the paper MPC's condensed
/// NLP on a soaked pull-down context (cabin at the 35 °C ambient),
/// linearized at the controller's cold start, with the identity as
/// Hessian — the first subproblem of a cold SQP solve, before any BFGS
/// update. 32 variables, 104 CSR inequality rows.
fn bench_qp_subproblem(c: &mut Criterion) {
    let params = EvParams::nissan_leaf_like();
    let mpc = params.mpc_builder().build().expect("valid config");
    let preview = bench_preview(64);
    let ctx = ev_control::ControlContext {
        state: HvacState::new(Celsius::new(35.0)),
        ..bench_context(&preview)
    };
    let nlp = mpc.nlp(&ctx);
    let n = nlp.num_vars();
    // The cold start for a soaked cabin: supply and coil at the 35 °C
    // mix temperature, 70 % recirculation, mid-range flow (scaled
    // variables, four per step).
    let hvac = params.hvac_model();
    let mid_flow = 0.5 * (hvac.params().min_flow.value() + hvac.params().max_flow.value());
    let z: Vec<f64> = (0..n)
        .map(|i| [3.5, 3.5, 0.7, mid_flow / 0.1][i % 4])
        .collect();
    let mut g = vec![0.0; n];
    nlp.gradient(&z, &mut g);
    let mut b_in = vec![0.0; nlp.num_ineq()];
    nlp.ineq_constraints(&z, &mut b_in);
    for v in &mut b_in {
        *v = -*v;
    }
    let mut a_in = SparseMatrix::new();
    assert!(nlp.ineq_jacobian_sparse_into(&z, &mut a_in));
    let h = Matrix::identity(n);
    let view = QpView::new(&h, &g)
        .and_then(|v| v.with_inequalities(&a_in, &b_in))
        .expect("well-formed subproblem");
    let solver = QpSolver::default();
    solver.solve_view(&view).expect("the subproblem solves");

    let mut group = c.benchmark_group("mpc_derivatives");
    group.sample_size(20);
    group.bench_function("qp_subproblem_h8", |b| {
        b.iter(|| black_box(solver.solve_view(black_box(&view)).map(|s| s.iterations)))
    });
    group.finish();
}

/// One full MPC solve (horizon 8, re-solve every call) on a hot-day
/// context, plus a variant with a live telemetry registry attached and
/// one with an explicitly attached — but disabled — flight recorder. The
/// observability acceptance bar is that `control_step_analytic` and
/// `control_step_flight_recorder_disabled` stay at the
/// `control_step_analytic` baseline in `BENCH_mpc.json` (both inert
/// paths must cost nothing); `control_step_telemetry` pins what enabling
/// the registry costs.
fn bench_control_step(c: &mut Criterion) {
    let preview = bench_preview(64);
    let mut group = c.benchmark_group("mpc_derivatives");
    group.sample_size(15);
    for (label, telemetry) in [
        ("control_step_analytic", false),
        ("control_step_telemetry", true),
        ("control_step_flight_recorder_disabled", false),
    ] {
        group.bench_function(label, |b| {
            let params = EvParams::nissan_leaf_like();
            let registry = ev_telemetry::Registry::with_enabled(telemetry);
            let recorder = ev_telemetry::FlightRecorder::disabled();
            let mut builder = params.mpc_builder().recompute_every(1).telemetry(&registry);
            if label == "control_step_flight_recorder_disabled" {
                builder = builder.flight_recorder(&recorder);
            }
            let mut mpc = builder.build().expect("valid config");
            let ctx = bench_context(&preview);
            b.iter(|| black_box(mpc.control(black_box(&ctx))))
        });
    }
    group.finish();
}

/// The observability tax of the labeled fleet instrumentation: the same
/// telemetry-enabled control step as `control_step_telemetry`, but paid
/// the way one fleet loadgen step pays it — the registry is
/// shard-scoped (every MPC series carries a `shard` label, so each
/// counter/histogram lookup went through the labeled series map at mint
/// time), a live trace ring records an `mpc_solve` span per solve, and
/// the step runs under the shard worker's per-command latency span.
/// Acceptance bar: within 5% of the `control_step_telemetry` baseline
/// in `BENCH_mpc.json`.
fn bench_fleet_step_labeled_metrics(c: &mut Criterion) {
    let preview = bench_preview(64);
    let mut group = c.benchmark_group("mpc_derivatives");
    group.sample_size(15);
    group.bench_function("fleet_step_labeled_metrics", |b| {
        let params = EvParams::nissan_leaf_like();
        let registry = ev_telemetry::Registry::enabled().scoped(&[("shard", "3")]);
        let trace = ev_telemetry::TraceRing::enabled(4096).scoped(3, 42);
        let step_latency = registry.histogram_with(
            "fleet_cmd_seconds",
            ev_telemetry::HistogramSpec::latency_seconds(),
            &[("cmd", "step")],
        );
        let mut mpc = params
            .mpc_builder()
            .recompute_every(1)
            .telemetry(&registry)
            .trace(&trace)
            .build()
            .expect("valid config");
        let ctx = bench_context(&preview);
        b.iter(|| {
            let span = step_latency.start_span();
            let out = black_box(mpc.control(black_box(&ctx)));
            drop(span);
            out
        })
    });
    group.finish();
}

/// The exemplar tax on top of the labeled path: identical to
/// `fleet_step_labeled_metrics` except the per-step latency span is
/// stamped with the trace span id the way the fleet engine stamps it
/// (`finish_with_exemplar`), so every observation also races the
/// seqlocked per-bucket exemplar slot. Acceptance bar: within 5% of
/// the `fleet_step_labeled_metrics` baseline in `BENCH_mpc.json`.
fn bench_fleet_step_exemplar_metrics(c: &mut Criterion) {
    let preview = bench_preview(64);
    let mut group = c.benchmark_group("mpc_derivatives");
    group.sample_size(15);
    group.bench_function("fleet_step_exemplar_metrics", |b| {
        let params = EvParams::nissan_leaf_like();
        let registry = ev_telemetry::Registry::enabled().scoped(&[("shard", "3")]);
        let trace = ev_telemetry::TraceRing::enabled(4096).scoped(3, 42);
        let step_id = trace.intern("step");
        let step_latency = registry.histogram_with(
            "fleet_cmd_seconds",
            ev_telemetry::HistogramSpec::latency_seconds(),
            &[("cmd", "step")],
        );
        let mut mpc = params
            .mpc_builder()
            .recompute_every(1)
            .telemetry(&registry)
            .trace(&trace)
            .build()
            .expect("valid config");
        let ctx = bench_context(&preview);
        b.iter(|| {
            let span = step_latency.start_span();
            let trace_span = trace.span(step_id);
            let out = black_box(mpc.control(black_box(&ctx)));
            span.finish_with_exemplar(trace_span.finish_id());
            out
        })
    });
    group.finish();
}

/// Horizon-scaling arms for the structure-exploiting KKT path: the same
/// hot-day control step at horizons 32/64/128, condensed-dense versus
/// multiple-shooting banded (`.multiple_shooting(true)` declares the
/// per-stage `QpStructure`, routing the interior-point KKT solves through
/// the block-banded LDLᵀ with the stage-interleaved ordering and the
/// cross-step multiplier warm start). The controller is settled into
/// receding-horizon steady state before timing, as in deployment, so the
/// warm-start cache is live. The dense arm stops at horizon 32 — the
/// O((5N)³) factorization already costs milliseconds there, which is the
/// point of the comparison — while the banded arms extend to 128 to pin
/// the near-linear scaling claim in `BENCH_mpc.json`.
fn bench_horizon_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("mpc_derivatives");
    group.sample_size(10);
    for (label, horizon, ms) in [
        ("control_step_h32_dense", 32usize, false),
        ("control_step_h32_banded", 32, true),
        ("control_step_h64_banded", 64, true),
        ("control_step_h128_banded", 128, true),
    ] {
        group.bench_function(label, |b| {
            let params = EvParams::nissan_leaf_like();
            let preview = bench_preview(horizon.max(64));
            let mut mpc = params
                .mpc_builder()
                .horizon(horizon)
                .recompute_every(1)
                .multiple_shooting(ms)
                .build()
                .expect("valid config");
            let ctx = bench_context(&preview);
            for _ in 0..5 {
                mpc.control(&ctx);
            }
            b.iter(|| black_box(mpc.control(black_box(&ctx))))
        });
    }
    group.finish();
}

/// One whole ECE-15 evaluation-sweep cell (the granularity
/// `evaluation_sweep_run` parallelizes over), under the MPC and under
/// the fuzzy baseline, and one UDDS cell under On/Off. The fuzzy cell is
/// rule inference and plant steps only, so it holds the centroid-table
/// inference and the precomputed plant inputs to their speed. The UDDS
/// cell's 1,370 steps, seven times ECE-15's, are mostly plant work, so
/// it holds a plant step's cost flat in how far into its drive it is.
fn bench_sweep_cell(c: &mut Criterion) {
    let mut group = c.benchmark_group("mpc_derivatives");
    group.sample_size(2);
    group.bench_function("sweep_cell_ece15_analytic", |b| {
        b.iter(|| black_box(run_cell(&DriveCycle::ece15(), 35.0, ControllerKind::Mpc)))
    });
    group.sample_size(20);
    group.bench_function("sweep_cell_ece15_fuzzy", |b| {
        b.iter(|| black_box(run_cell(&DriveCycle::ece15(), 35.0, ControllerKind::Fuzzy)))
    });
    group.bench_function("sweep_cell_udds_onoff", |b| {
        b.iter(|| black_box(run_cell(&DriveCycle::udds(), 35.0, ControllerKind::OnOff)))
    });
    group.finish();
}

/// Fuzzy commands for scaled (error, rate) pairs on a 21 × 21 grid over
/// `[−1.5, 1.5]²`: the paper engine's inference and the duty-to-input map,
/// with no plant step and no cell set-up, so it holds inference to its
/// speed where the sweep cell's plant and set-up would hide a slowdown.
/// Each pair takes two commands one second apart: the second sets the
/// error and, against the first, the rate. Eight of the 21 values on each
/// axis lie past the ±1 clamp, where most of a soaked fleet's fuzzy
/// steps sit.
fn bench_fuzzy_infer(c: &mut Criterion) {
    let params = EvParams::nissan_leaf_like();
    let mut controller = ControllerKind::Fuzzy
        .instantiate(&params)
        .expect("fuzzy controller instantiates");
    // The controller scales the error by 2 K and its rate by 0.05 K/s.
    let target = params.target.value();
    let axis: Vec<f64> = (0..21).map(|k| -1.5 + 0.15 * f64::from(k)).collect();
    let cabin: Vec<f64> = axis
        .iter()
        .flat_map(|&error| {
            axis.iter().flat_map(move |&rate| {
                let tz = target + 2.0 * error;
                [tz - 0.05 * rate, tz]
            })
        })
        .collect();
    let mut ctx = bench_context(&[]);
    let mut group = c.benchmark_group("mpc_derivatives");
    group.bench_function("fuzzy_infer", |b| {
        b.iter(|| {
            controller.reset_session();
            for &tz in &cabin {
                ctx.state = HvacState::new(Celsius::new(tz));
                black_box(controller.control(&ctx));
            }
        })
    });
    group.finish();
}

criterion_group!(
    mpc_derivatives,
    bench_derivative_eval,
    bench_qp_subproblem,
    bench_control_step,
    bench_fleet_step_labeled_metrics,
    bench_fleet_step_exemplar_metrics,
    bench_horizon_scaling,
    bench_sweep_cell,
    bench_fuzzy_infer
);
criterion_main!(mpc_derivatives);
