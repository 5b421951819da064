//! Software vs hardware SoC flattening: the paper's MPC schedules the
//! HVAC to smooth the battery load; a hybrid energy storage system
//! (battery + ultracapacitor, the paper's HESS context [3]) smooths it in
//! hardware. This example puts both — and their combination — on the same
//! aggressive US06 drive.
//!
//! ```text
//! cargo run --release --example hess_comparison
//! ```

use evclimate::battery::{Hess, SocStats, SohModel, SplitPolicy, Ultracapacitor};
use evclimate::core::ControllerKind;
use evclimate::prelude::*;

/// Replays a simulation's total battery-power trace through a HESS and
/// returns the battery-side SoC statistics and ΔSoH.
fn replay_through_hess(result: &SimulationResult, policy: SplitPolicy) -> (SocStats, f64) {
    let mut hess = Hess::new(
        BatteryParams::leaf_24kwh(),
        Ultracapacitor::transit_bank(),
        policy,
    );
    let dt = Seconds::new(result.dt);
    let mut trace = vec![hess.battery().soc().value()];
    for &p in &result.series.battery_power {
        hess.apply_load(Watts::new(p), dt);
        trace.push(hess.battery().soc().value());
    }
    let stats = SocStats::from_trace(&trace);
    let soh = SohModel::default().degradation(stats);
    (stats, soh)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let profile = DriveProfile::from_cycle(
        &DriveCycle::us06(),
        AmbientConditions::constant(Celsius::new(35.0)),
        Seconds::new(1.0),
    );
    let mut params = EvParams::nissan_leaf_like();
    params.initial_cabin = Some(params.target);
    let sim = Simulation::new(params.clone(), profile)?;

    // The two power traces: reactive On/Off and the lifetime-aware MPC.
    let mut onoff = ControllerKind::OnOff.instantiate(&params)?;
    let onoff_run = sim.run(onoff.as_mut());
    let mut mpc = ControllerKind::Mpc.instantiate(&params)?;
    let mpc_run = sim.run(mpc.as_mut());

    let shave = SplitPolicy::PeakShave {
        battery_ceiling_w: 30_000.0,
    };
    println!("US06 @ 35 °C — SoC flattening, software vs hardware\n");
    println!(
        "{:<42} {:>10} {:>12}",
        "configuration", "SoC dev %", "ΔSoH (m%)"
    );
    for (label, run, policy) in [
        ("On/Off, battery only", &onoff_run, SplitPolicy::BatteryOnly),
        ("On/Off + ultracap peak-shave (hardware)", &onoff_run, shave),
        (
            "Lifetime-aware MPC, battery only (software)",
            &mpc_run,
            SplitPolicy::BatteryOnly,
        ),
        ("Lifetime-aware MPC + ultracap (both)", &mpc_run, shave),
    ] {
        let (stats, soh) = replay_through_hess(run, policy);
        println!("{label:<42} {:>10.3} {:>12.3}", stats.dev, soh * 1000.0);
    }
    println!(
        "\nThe two mechanisms compose: scheduling shifts HVAC energy away from\n\
         motor peaks, the ultracapacitor absorbs what scheduling cannot move."
    );
    Ok(())
}
