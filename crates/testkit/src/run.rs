//! A convenience runner that wires observers into a simulation.

use ev_core::{ControllerKind, EvParams, SimulationResult, TraceRecorder};
use ev_drive::DriveProfile;

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
    let result = sim.run_observed(controller.as_mut(), &mut observers);
    let (recorder, invariants) = observers;
    (result, recorder, invariants.into_report())
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
}
