//! Property: the plant-side metrics [`TelemetryObserver`] folds into a
//! registry agree exactly with the same counts and power statistics
//! recomputed from the full [`TraceRecorder`] trace, on randomized
//! synthetic routes and any controller of the paper lineup. Both
//! observers ride the same simulation, so a disagreement can only come
//! from the streaming fold itself (a missed step, a wrong channel, a
//! mode counted under the wrong name).

use ev_core::{
    ControllerKind, ControllerMode, EvParams, Simulation, StepRecord, TelemetryObserver,
    TraceRecorder,
};
use ev_drive::synthetic::RouteConfig;
use ev_telemetry::{Registry, Snapshot};
use ev_units::{Celsius, Watts};
use proptest::prelude::*;

/// `(count, sum, min, max)` of one power channel, folded in step order
/// as the histogram folds its samples.
fn fold(records: &[StepRecord], power: fn(&StepRecord) -> f64) -> (u64, f64, f64, f64) {
    records.iter().map(power).fold(
        (0, 0.0, f64::INFINITY, f64::NEG_INFINITY),
        |(count, sum, min, max), w| (count + 1, sum + w, min.min(w), max.max(w)),
    )
}

/// The histogram `name` in `snapshot` holds exactly `expected`.
fn assert_histogram(
    snapshot: &Snapshot,
    name: &str,
    expected: (u64, f64, f64, f64),
) -> Result<(), TestCaseError> {
    let h = snapshot
        .histogram(name)
        .ok_or_else(|| TestCaseError::fail(format!("{name} missing")))?;
    prop_assert_eq!((h.count, h.sum, h.min, h.max), expected, "{}", name);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn telemetry_matches_trace_recomputation(
        seed in 0u64..10_000,
        urban_minutes in 1.0f64..4.0,
        hilliness in 0.0f64..6.0,
        ambient in 20.0f64..42.0,
        controller_idx in 0usize..3,
    ) {
        let profile = RouteConfig::new(seed)
            .urban_minutes(urban_minutes)
            .highway_minutes(0.0)
            .hilliness(hilliness)
            .ambient(Celsius::new(ambient))
            .solar(Watts::new(400.0))
            .generate();
        let params = EvParams::nissan_leaf_like();
        let kind = ControllerKind::paper_lineup()[controller_idx];
        let sim = Simulation::new(params.clone(), profile).expect("profile non-empty");
        let mut controller = kind.instantiate(&params).expect("controller instantiates");
        let registry = Registry::enabled();
        let mut observers = (TraceRecorder::new(), TelemetryObserver::new(&registry));
        let result = sim
            .run_observed(controller.as_mut(), &mut observers);
        let records = observers.0.records();
        prop_assert_eq!(records.len(), result.series.t.len());

        let snapshot = registry.snapshot();
        let in_mode = |mode| records.iter().filter(|r| r.mode == mode).count() as u64;
        for (name, steps) in [
            ("sim_steps_total", records.len() as u64),
            ("sim_mode_heating_steps_total", in_mode(ControllerMode::Heating)),
            ("sim_mode_cooling_steps_total", in_mode(ControllerMode::Cooling)),
            ("sim_mode_vent_steps_total", in_mode(ControllerMode::Vent)),
            ("sim_mode_idle_steps_total", in_mode(ControllerMode::Idle)),
        ] {
            prop_assert_eq!(snapshot.counter(name), Some(steps), "{}", name);
        }
        // Exact equality, not tolerance: both sides fold the same f64
        // stream in the same order.
        assert_histogram(&snapshot, "sim_hvac_power_watts", fold(records, StepRecord::hvac_power))?;
        assert_histogram(
            &snapshot,
            "sim_battery_power_watts",
            fold(records, |r| r.battery_power),
        )?;
    }
}
