//! Golden-trace snapshot suite: pins the step-level behavior of every
//! (cycle × controller) cell of the paper's urban/mixed comparison to
//! baselines checked into `tests/golden/`.
//!
//! A failure names the first diverging step and channel — the cheapest
//! possible bisect of a behavioral change. After an *intentional* model
//! change, re-baseline with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_traces
//! ```

use std::path::PathBuf;

use ev_testkit::{golden_filename, run_checked, verify_or_update, GoldenTrace};
use evclimate::core::experiments::{experiment_params, profile_at};
use evclimate::core::{ControllerKind, ControllerSetup};
use evclimate::prelude::*;

/// The snapshotted matrix: both ECE cycles × the paper's three
/// methodologies.
const CYCLES: [fn() -> DriveCycle; 2] = [DriveCycle::ece15, DriveCycle::ece_eudc];
const CONTROLLERS: [ControllerKind; 3] = [
    ControllerKind::OnOff,
    ControllerKind::Fuzzy,
    ControllerKind::Mpc,
];
const AMBIENT_C: f64 = 35.0;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

fn snapshot(cycle: &DriveCycle, kind: ControllerKind) -> GoldenTrace {
    let mut params = experiment_params();
    params.initial_cabin = Some(params.target);
    let profile = profile_at(cycle, AMBIENT_C);
    let (result, trace, report) = run_checked(&params, profile, kind);
    // The golden baselines must only ever pin physically valid traces.
    report.assert_clean();
    GoldenTrace::from_records(
        trace.profile(),
        trace.controller(),
        result.dt,
        trace.records(),
    )
}

#[test]
fn golden_traces_match_baselines() {
    let dir = golden_dir();
    let mut failures = Vec::new();
    for cycle in CYCLES.map(|c| c()) {
        for kind in CONTROLLERS {
            let actual = snapshot(&cycle, kind);
            let path = dir.join(golden_filename(&actual.profile, &actual.controller));
            if let Err(e) = verify_or_update(&path, &actual) {
                failures.push(e);
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn mpc_goldens_solve_every_qp_subproblem_nominally() {
    // The pinned MPC runs never need the SQP's recovery paths: with the
    // SPD reduced KKT systems factored by Cholesky, no subproblem is
    // misread as singular, so none goes elastic or falls back to a
    // gradient step. The registry only observes, so these are the
    // counters of the golden runs themselves.
    let mut params = experiment_params();
    params.initial_cabin = Some(params.target);
    for cycle in CYCLES.map(|c| c()) {
        let setup = ControllerSetup {
            telemetry: Registry::enabled(),
            ..ControllerSetup::default()
        };
        let mut controller = ControllerKind::Mpc
            .instantiate_configured(&params, &setup)
            .expect("controller instantiates");
        Simulation::new(params.clone(), profile_at(&cycle, AMBIENT_C))
            .expect("profile non-empty")
            .run(controller.as_mut())
            .expect("simulation runs");
        let snapshot = setup.telemetry.snapshot();
        assert!(snapshot.counter("mpc_solves_total").unwrap_or(0) > 0);
        for name in ["sqp_qp_elastic_total", "sqp_qp_fallback_total"] {
            assert_eq!(snapshot.counter(name), Some(0), "{}: {name}", cycle.name());
        }
    }
}

#[test]
fn traces_are_bit_identical_across_runs() {
    // Determinism at full step-level resolution: two independent runs of
    // the same cell must produce byte-for-byte identical traces.
    let params = {
        let mut p = experiment_params();
        p.initial_cabin = Some(p.target);
        p
    };
    for kind in CONTROLLERS {
        let profile = || profile_at(&DriveCycle::ece15(), AMBIENT_C);
        let (_, first, _) = ev_testkit::run_checked(&params, profile(), kind);
        let (_, second, _) = ev_testkit::run_checked(&params, profile(), kind);
        assert_eq!(
            first.records(),
            second.records(),
            "{kind:?}: traces must be bit-identical"
        );
    }
}

#[test]
fn baselines_cover_the_whole_matrix() {
    // Every cell the suite claims to pin actually has a checked-in file.
    let dir = golden_dir();
    for cycle in CYCLES.map(|c| c()) {
        for kind in CONTROLLERS {
            let params = experiment_params();
            let name = kind
                .instantiate(&params)
                .expect("controller instantiates")
                .name()
                .to_owned();
            let path = dir.join(golden_filename(cycle.name(), &name));
            assert!(
                path.exists(),
                "missing golden baseline {} — run UPDATE_GOLDEN=1 cargo test --test golden_traces",
                path.display()
            );
        }
    }
}
