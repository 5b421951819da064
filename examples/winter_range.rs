//! Winter range anxiety: how much driving range cabin heating costs at
//! different ambient temperatures, and how much of it the battery
//! lifetime-aware MPC recovers.
//!
//! The paper motivates its work with the observation that the HVAC "may
//! consume upto 6KW and reduce the driving range upto 50%" (Section I);
//! this example quantifies that trade on our calibrated Leaf-like EV.
//!
//! ```text
//! cargo run --release --example winter_range
//! ```

use evclimate::core::ControllerKind;
use evclimate::prelude::*;

fn range_km(kind: ControllerKind, ambient_c: f64) -> Result<f64, Box<dyn std::error::Error>> {
    let profile = DriveProfile::from_cycle(
        &DriveCycle::ece_eudc(),
        AmbientConditions::constant(Celsius::new(ambient_c)),
        Seconds::new(1.0),
    );
    let mut params = EvParams::nissan_leaf_like();
    params.initial_cabin = Some(params.target);
    let sim = Simulation::new(params.clone(), profile)?;
    let mut controller = kind.instantiate(&params)?;
    let result = sim.run(controller.as_mut());
    // 21 kWh usable from the 24 kWh pack.
    Ok(result.range_estimate(KilowattHours::new(21.0)).value())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("driving range on the ECE_EUDC mixed cycle (21 kWh usable)\n");
    println!(
        "{:>12} {:>14} {:>14} {:>14} {:>12}",
        "ambient °C", "On/Off km", "Fuzzy km", "MPC km", "MPC vs O/O"
    );
    let mut mild_range = None;
    for ambient in [20.0, 10.0, 0.0, -10.0] {
        let onoff = range_km(ControllerKind::OnOff, ambient)?;
        let fuzzy = range_km(ControllerKind::Fuzzy, ambient)?;
        let mpc = range_km(ControllerKind::Mpc, ambient)?;
        if ambient == 20.0 {
            mild_range = Some(onoff);
        }
        println!(
            "{:>12.0} {:>14.1} {:>14.1} {:>14.1} {:>11.1}%",
            ambient,
            onoff,
            fuzzy,
            mpc,
            100.0 * (mpc - onoff) / onoff
        );
    }
    if let Some(mild) = mild_range {
        let cold = range_km(ControllerKind::OnOff, -10.0)?;
        println!(
            "\nOn/Off heating at −10 °C costs {:.0} % of the mild-weather range",
            100.0 * (mild - cold) / mild
        );
    }
    Ok(())
}
