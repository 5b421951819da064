//! A realistic commute on a hot afternoon: synthetic urban + highway
//! route with hills, generated the way the paper builds drive profiles
//! from navigation and climate databases (its Section II-A), then driven
//! with all three controllers.
//!
//! ```text
//! cargo run --release --example commute_hot_day
//! ```

use evclimate::core::ControllerKind;
use evclimate::drive::synthetic::{DiurnalClimate, RouteConfig};
use evclimate::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A July afternoon: 22 °C overnight low, 39 °C peak; leaving at 17:00.
    let climate = DiurnalClimate::new(Celsius::new(22.0), Celsius::new(39.0));
    let departure_ambient = climate.temperature_at_hour(17.0);

    // The route: 8 urban minutes, 12 highway minutes, rolling hills.
    let profile = RouteConfig::new(2024)
        .urban_minutes(8.0)
        .highway_minutes(12.0)
        .hilliness(4.0)
        .ambient(departure_ambient)
        .solar(Watts::new(600.0)) // low western sun through the glass
        .generate();

    let mut params = EvParams::nissan_leaf_like();
    params.initial_cabin = Some(params.target); // pre-cooled while plugged in
    let sim = Simulation::new(params.clone(), profile)?;

    println!(
        "commute: {:.1} km in {:.0} min at {:.1} ambient",
        sim.profile().distance().value(),
        sim.profile().duration().value() / 60.0,
        departure_ambient,
    );
    println!();
    println!(
        "{:<28} {:>9} {:>12} {:>11} {:>10}",
        "controller", "HVAC kW", "ΔSoH (m%)", "mean |ΔT|", "final SoC"
    );
    let mut onoff_soh = None;
    for kind in ControllerKind::paper_lineup() {
        let mut controller = kind.instantiate(&params)?;
        let result = sim.run(controller.as_mut());
        let m = result.metrics();
        if kind == ControllerKind::OnOff {
            onoff_soh = Some(m.delta_soh_milli_percent);
        }
        println!(
            "{:<28} {:>9.3} {:>12.3} {:>10.2}K {:>9.2}%",
            kind.label(),
            m.avg_hvac_power.value(),
            m.delta_soh_milli_percent,
            m.mean_temp_error,
            m.final_soc,
        );
        if kind == ControllerKind::Mpc {
            if let Some(base) = onoff_soh {
                println!(
                    "\nbattery-lifetime gain vs On/Off: {:.1} % less degradation per commute",
                    100.0 * (base - m.delta_soh_milli_percent) / base
                );
            }
        }
    }
    Ok(())
}
