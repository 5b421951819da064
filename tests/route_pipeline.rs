//! Integration: navigation-style routes (the paper's §II-A input) driven
//! end-to-end through the full simulator stack.

use ev_testkit::InvariantObserver;
use evclimate::core::ControllerKind;
use evclimate::drive::{Route, RouteSegment};
use evclimate::prelude::*;
use evclimate::units::KilometersPerHour;

fn kmh(v: f64) -> MetersPerSecond {
    KilometersPerHour::new(v).to_meters_per_second()
}

/// A small-town commute: residential streets, an arterial with lights,
/// a rural climb, and a descent home.
fn commute() -> Route {
    Route::new(vec![
        RouteSegment::new(600.0, kmh(30.0), 0.0, 1.0),
        RouteSegment::new(2_500.0, kmh(60.0), 0.5, 0.8),
        RouteSegment::new(4_000.0, kmh(80.0), 4.0, 1.0), // the climb
        RouteSegment::new(4_000.0, kmh(80.0), -4.0, 1.0), // the descent
        RouteSegment::new(1_000.0, kmh(50.0), 0.0, 0.9),
    ])
    .with_stop_after(0, Seconds::new(12.0))
    .with_stop_after(1, Seconds::new(25.0))
}

#[test]
fn route_drives_through_the_full_stack() {
    let profile = commute().to_profile(
        AmbientConditions::constant(Celsius::new(32.0)),
        Seconds::new(1.0),
    );
    let mut params = EvParams::nissan_leaf_like();
    params.initial_cabin = Some(params.target);
    let sim = Simulation::new(params.clone(), profile).expect("profile non-empty");
    let mut mpc = ControllerKind::Mpc
        .instantiate(&params)
        .expect("instantiates");
    let mut invariants = InvariantObserver::for_params(&params);
    let r = sim.run_observed(mpc.as_mut(), &mut invariants);
    invariants.report().assert_clean();
    let m = r.metrics();
    // ~12.1 km route.
    assert!((m.distance.value() - commute().length().value()).abs() < 0.7);
    assert!(m.energy.value() > 0.5, "{m:?}");
    assert!(m.delta_soh_milli_percent > 0.0);
}

#[test]
fn climb_consumes_descent_regenerates() {
    let profile = commute().to_profile(
        AmbientConditions::constant(Celsius::new(20.0)),
        Seconds::new(1.0),
    );
    let params = EvParams::nissan_leaf_like();
    let sim = Simulation::new(params.clone(), profile).expect("profile non-empty");
    // The precomputed motor-power vector must show both heavy draw on the
    // climb and regeneration on the descent.
    let max = sim.motor_power().iter().copied().fold(f64::MIN, f64::max);
    let min = sim.motor_power().iter().copied().fold(f64::MAX, f64::min);
    assert!(max > 25_000.0, "climb draw {max}");
    assert!(min < -5_000.0, "descent regen {min}");
}

#[test]
fn traffic_factor_slows_and_cheapens_the_drive() {
    let free = Route::new(vec![RouteSegment::new(5_000.0, kmh(100.0), 0.0, 1.0)]);
    let jammed = Route::new(vec![RouteSegment::new(5_000.0, kmh(100.0), 0.0, 0.5)]);
    let params = EvParams::nissan_leaf_like();
    let run = |route: &Route| {
        let profile = route.to_profile(
            AmbientConditions::constant(Celsius::new(20.0)),
            Seconds::new(1.0),
        );
        let sim = Simulation::new(params.clone(), profile).expect("non-empty");
        let mut c = ControllerKind::Fuzzy.instantiate(&params).expect("ok");
        let mut invariants = InvariantObserver::for_params(&params);
        let result = sim.run_observed(c.as_mut(), &mut invariants);
        invariants.report().assert_clean();
        result
    };
    let fast = run(&free);
    let slow = run(&jammed);
    // Same distance, longer duration, lower aero losses per km.
    assert!(slow.series.t.len() > fast.series.t.len());
    assert!(
        slow.metrics().kwh_per_100km < fast.metrics().kwh_per_100km,
        "jammed {} vs free {}",
        slow.metrics().kwh_per_100km,
        fast.metrics().kwh_per_100km
    );
}
