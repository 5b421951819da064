//! Convenience runners that wire observers into a simulation.

use std::path::{Path, PathBuf};

use ev_core::{
    ControllerKind, ControllerSetup, EvParams, FlightRecorderObserver, SimulationResult,
    StepObserver, TraceRecorder,
};
use ev_drive::DriveProfile;
use ev_telemetry::FlightRecorder;

use crate::invariants::{InvariantObserver, InvariantReport};

/// Runs one cell with both a trace recorder and an invariant observer
/// attached, returning the result, the trace and the invariant report.
/// The harness behind the golden-trace suite.
///
/// # Panics
///
/// Panics if the profile is empty or the controller cannot be
/// instantiated for `params` (cannot happen for the built-in cycles and
/// parameter sets).
#[must_use]
pub fn run_checked(
    params: &EvParams,
    profile: DriveProfile,
    kind: ControllerKind,
) -> (SimulationResult, TraceRecorder, InvariantReport) {
    let sim = ev_core::Simulation::new(params.clone(), profile).expect("profile non-empty");
    let mut controller = kind.instantiate(params).expect("controller instantiates");
    let mut observers = (TraceRecorder::new(), InvariantObserver::for_params(params));
    let result = sim
        .run_observed(controller.as_mut(), &mut observers)
        .expect("simulation runs");
    let (recorder, invariants) = observers;
    (result, recorder, invariants.into_report())
}

/// Runs one cell with a flight recorder and the invariant observer
/// attached. If any invariant is violated, the recorder's window — the
/// MPC's decision records interleaved with the realized plant steps — is
/// dumped to `dump_path` (readable with `evsim explain`), naming the
/// first offending step in the dump reason. A clean run writes nothing.
///
/// # Panics
///
/// Panics as [`run_checked`] does, or if a due post-mortem dump cannot be
/// written.
#[must_use]
pub fn run_recorded(
    params: &EvParams,
    profile: DriveProfile,
    kind: ControllerKind,
    dump_path: &Path,
) -> (SimulationResult, InvariantReport, Option<PathBuf>) {
    let sim = ev_core::Simulation::new(params.clone(), profile).expect("profile non-empty");
    let recorder = FlightRecorder::enabled(FlightRecorder::DEFAULT_CAPACITY);
    let setup = ControllerSetup {
        recorder: recorder.clone(),
        ..ControllerSetup::default()
    };
    let mut controller = kind
        .instantiate_configured(params, &setup)
        .expect("controller instantiates");
    let mut observers = (
        FlightRecorderObserver::new(&recorder),
        InvariantObserver::for_params(params),
    );
    let result = sim
        .run_observed(controller.as_mut(), &mut observers)
        .expect("simulation runs");
    let (_, invariants) = observers;
    let report = invariants.into_report();
    let dump = dump_on_violation(&recorder, &report, dump_path);
    (result, report, dump)
}

/// Dumps the recorder's window to `path` when `report` carries any
/// violation, with a dump reason naming the first offending step (or
/// the whole-trace check that tripped). Returns the written path, or
/// `None` for a clean report.
///
/// # Panics
///
/// Panics if the dump cannot be written.
#[must_use]
pub fn dump_on_violation(
    recorder: &FlightRecorder,
    report: &InvariantReport,
    path: &Path,
) -> Option<PathBuf> {
    // A clean report records nothing; the first violation is always in
    // `recorded` (drops only start past MAX_RECORDED).
    let first = report.recorded.first()?;
    let at = first
        .step()
        .map_or_else(|| "whole-trace check".to_owned(), |s| format!("step {s}"));
    let reason = format!(
        "{} invariant violation(s), first at {at}: {first}",
        report.total
    );
    recorder
        .dump_to(path, &reason)
        .expect("invariant post-mortem dump written");
    Some(path.to_owned())
}

/// Drives an arbitrary observer over one cell; returns result + observer.
///
/// # Panics
///
/// Panics as [`run_checked`] does.
#[must_use]
pub fn run_with<O: StepObserver>(
    params: &EvParams,
    profile: DriveProfile,
    kind: ControllerKind,
    mut observer: O,
) -> (SimulationResult, O) {
    let sim = ev_core::Simulation::new(params.clone(), profile).expect("profile non-empty");
    let mut controller = kind.instantiate(params).expect("controller instantiates");
    let result = sim
        .run_observed(controller.as_mut(), &mut observer)
        .expect("simulation runs");
    (result, observer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_core::experiments::profile_at;
    use ev_drive::DriveCycle;

    #[test]
    fn run_checked_is_clean_on_the_builtin_cell() {
        let params = EvParams::nissan_leaf_like();
        let profile = profile_at(&DriveCycle::ece15(), 35.0);
        let (result, trace, report) = run_checked(&params, profile, ControllerKind::OnOff);
        assert_eq!(trace.records().len(), result.series.t.len());
        report.assert_clean();
    }

    #[test]
    fn recorded_run_writes_nothing_when_clean() {
        let dir = std::env::temp_dir().join(format!(
            "ev-testkit-recorded-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let params = EvParams::nissan_leaf_like();
        let profile = profile_at(&DriveCycle::ece15(), 35.0);
        let dump_path = dir.join("violation.jsonl");
        let (result, report, dump) =
            run_recorded(&params, profile, ControllerKind::Mpc, &dump_path);
        assert!(!result.series.t.is_empty());
        report.assert_clean();
        assert!(dump.is_none());
        assert!(!dump_path.exists());
    }

    #[test]
    fn violations_trigger_a_dump_naming_the_offending_step() {
        use crate::invariants::InvariantViolation;

        let dir = std::env::temp_dir().join(format!(
            "ev-testkit-dump-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let recorder = FlightRecorder::enabled(8);
        recorder.note("test", "synthetic trace");
        let report = InvariantReport {
            profile: "ECE-15".to_owned(),
            controller: "MPC".to_owned(),
            steps: 100,
            total: 2,
            recorded: vec![
                InvariantViolation::SocOutOfBounds {
                    step: 7,
                    soc: 120.0,
                },
                InvariantViolation::EnergyBookkeeping {
                    metered_j: 1.0,
                    expected_j: 2.0,
                },
            ],
        };
        let path = dir.join("nested").join("violation.jsonl");
        let written = dump_on_violation(&recorder, &report, &path).expect("dump written");
        assert_eq!(written, path);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("2 invariant violation(s), first at step 7"));
        assert!(text.contains("\"kind\":\"note\""));
        // Clean reports are inert.
        assert!(dump_on_violation(&recorder, &InvariantReport::default(), &path).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn violation_steps_are_exposed() {
        use crate::invariants::InvariantViolation;

        let v = InvariantViolation::CabinUnreachable {
            step: 42,
            cabin: 60.0,
            lo: 10.0,
            hi: 50.0,
        };
        assert_eq!(v.step(), Some(42));
        let whole_trace = InvariantViolation::ResultMismatch {
            what: "energy".to_owned(),
            result: 1.0,
            observed: 2.0,
        };
        assert_eq!(whole_trace.step(), None);
    }
}
