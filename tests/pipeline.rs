//! End-to-end pipeline tests spanning every crate: drive-profile
//! generation → power train → controller → HVAC → battery → metrics.

use ev_testkit::InvariantObserver;
use evclimate::core::ControllerKind;
use evclimate::drive::synthetic::RouteConfig;
use evclimate::prelude::*;

/// Runs one cell with the `ev-testkit` physics invariants checked at
/// every simulated step.
fn run(kind: ControllerKind, profile: DriveProfile) -> SimulationResult {
    let mut params = EvParams::nissan_leaf_like();
    params.initial_cabin = Some(params.target);
    let sim = Simulation::new(params.clone(), profile).expect("profile non-empty");
    let mut controller = kind.instantiate(&params).expect("instantiates");
    let mut invariants = InvariantObserver::for_params(&params);
    let result = sim.run_observed(controller.as_mut(), &mut invariants);
    invariants.report().assert_clean();
    result
}

fn synthetic_profile() -> DriveProfile {
    RouteConfig::new(42)
        .urban_minutes(3.0)
        .highway_minutes(3.0)
        .hilliness(3.0)
        .ambient(Celsius::new(33.0))
        .generate()
}

#[test]
fn synthetic_route_full_pipeline() {
    for kind in ControllerKind::paper_lineup() {
        let r = run(kind, synthetic_profile());
        let m = r.metrics();
        assert!(m.distance.value() > 2.0, "{kind:?}: {m:?}");
        assert!(m.energy.value() > 0.0);
        assert!(
            m.kwh_per_100km > 5.0 && m.kwh_per_100km < 40.0,
            "{kind:?}: {}",
            m.kwh_per_100km
        );
        assert!(m.final_soc < 95.0 && m.final_soc > 80.0);
        assert!(m.delta_soh_milli_percent > 0.0);
        assert!(m.cycles_to_eol.is_finite() && m.cycles_to_eol > 100.0);
    }
}

#[test]
fn runs_are_deterministic() {
    let a = run(ControllerKind::Mpc, synthetic_profile());
    let b = run(ControllerKind::Mpc, synthetic_profile());
    assert_eq!(a, b, "two identical MPC runs must agree bit-for-bit");
}

#[test]
fn result_serde_round_trip() {
    let r = run(ControllerKind::Fuzzy, synthetic_profile());
    let json = serde_json::to_string(&r).expect("serializes");
    let back: SimulationResult = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(back.profile, r.profile);
    assert_eq!(back.series.t.len(), r.series.t.len());
    assert!(
        (back.metrics().avg_hvac_power.value() - r.metrics().avg_hvac_power.value()).abs() < 1e-9
    );
}

#[test]
fn energy_accounting_is_consistent() {
    // The battery energy must equal the integral of the positive battery
    // power (the metric definition), and the power series must decompose
    // into motor + HVAC + accessories wherever the BMS did not clamp.
    let r = run(ControllerKind::OnOff, synthetic_profile());
    let dt = r.dt;
    let integral: f64 = r
        .series
        .battery_power
        .iter()
        .map(|p| p.max(0.0) * dt)
        .sum::<f64>()
        / 3.6e6;
    assert!((integral - r.metrics().energy.value()).abs() < 1e-9);
    for k in 0..r.series.t.len() {
        let total = r.series.motor_power[k] + r.series.hvac_power[k] + 300.0;
        let clamped = total.clamp(-50_000.0, 90_000.0);
        assert!(
            (r.series.battery_power[k] - clamped).abs() < 1e-6,
            "sample {k}: battery {} vs decomposition {clamped}",
            r.series.battery_power[k]
        );
    }
}

#[test]
fn hvac_power_split_sums_to_total() {
    let r = run(ControllerKind::Fuzzy, synthetic_profile());
    for k in 0..r.series.t.len() {
        let sum = r.series.heating_power[k] + r.series.cooling_power[k] + r.series.fan_power[k];
        assert!(
            (sum - r.series.hvac_power[k]).abs() < 1e-9,
            "sample {k}: {sum} vs {}",
            r.series.hvac_power[k]
        );
    }
}

#[test]
fn diurnal_climate_drives_varying_ambient() {
    use evclimate::drive::synthetic::DiurnalClimate;
    use evclimate::drive::{DriveCycle as DC, DriveProfile as DP};
    let climate = DiurnalClimate::new(Celsius::new(18.0), Celsius::new(36.0));
    let cond = climate.conditions_for_drive(13.0, Seconds::new(1200.0));
    let profile = DP::from_cycle(&DC::nedc(), cond, Seconds::new(1.0));
    // Ambient actually varies along the drive.
    let first = profile.sample(0).ambient.value();
    let last = profile.sample(profile.len() - 1).ambient.value();
    assert!((first - last).abs() > 0.05, "ambient {first} → {last}");
    let r = run(ControllerKind::Fuzzy, profile);
    assert!(r.metrics().avg_hvac_power.value() > 0.0);
}
