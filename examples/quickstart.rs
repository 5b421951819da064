//! Quickstart: drive a Leaf-like EV through the NEDC on a hot day with
//! each of the three climate controllers and compare the paper's figures
//! of merit.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use evclimate::core::ControllerKind;
use evclimate::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The drive: the New European Driving Cycle at 35 °C ambient, cabin
    // preconditioned to the 24 °C target.
    let profile = DriveProfile::from_cycle(
        &DriveCycle::nedc(),
        AmbientConditions::constant(Celsius::new(35.0)),
        Seconds::new(1.0),
    );
    let mut params = EvParams::nissan_leaf_like();
    params.initial_cabin = Some(params.target);
    let sim = Simulation::new(params.clone(), profile)?;

    println!(
        "NEDC @ 35 °C — {:.1} km, {:.0} s",
        sim.profile().distance().value(),
        sim.profile().duration().value()
    );
    println!(
        "{:<28} {:>9} {:>12} {:>10} {:>12} {:>10}",
        "controller", "HVAC kW", "ΔSoH (m%)", "SoC dev", "kWh/100km", "lifetime"
    );
    for kind in ControllerKind::paper_lineup() {
        let mut controller = kind.instantiate(&params)?;
        let result = sim.run(controller.as_mut());
        let m = result.metrics();
        println!(
            "{:<28} {:>9.3} {:>12.3} {:>10.3} {:>12.2} {:>9.0}c",
            kind.label(),
            m.avg_hvac_power.value(),
            m.delta_soh_milli_percent,
            m.soc_stats.dev,
            m.kwh_per_100km,
            m.cycles_to_eol,
        );
    }
    Ok(())
}
