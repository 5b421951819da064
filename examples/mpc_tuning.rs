//! Tuning the battery lifetime-aware MPC: sweep the Eq. 21 weights and
//! watch the comfort ↔ power ↔ lifetime trade-off move.
//!
//! `w1` prices HVAC power, `w2` prices SoC deviation (the battery term),
//! `w3` prices temperature error. The paper fixes one operating point;
//! this example shows the whole dial.
//!
//! ```text
//! cargo run --release --example mpc_tuning
//! ```

use evclimate::control::MpcWeights;
use evclimate::core::experiments::ascii_chart;
use evclimate::prelude::*;

fn run_weights(
    params: &EvParams,
    sim: &Simulation,
    weights: MpcWeights,
) -> Result<(f64, f64, f64), Box<dyn std::error::Error>> {
    let mut mpc = params.mpc_builder().weights(weights).build()?;
    let r = sim.run(&mut mpc);
    let m = r.metrics();
    Ok((
        m.delta_soh_milli_percent,
        m.avg_hvac_power.value(),
        m.mean_temp_error,
    ))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let profile = DriveProfile::from_cycle(
        &DriveCycle::ece_eudc(),
        AmbientConditions::constant(Celsius::new(35.0)),
        Seconds::new(1.0),
    );
    let mut params = EvParams::nissan_leaf_like();
    params.initial_cabin = Some(params.target);
    let sim = Simulation::new(params.clone(), profile)?;

    println!("ECE_EUDC @ 35 °C — sweeping the lifetime weight w2\n");
    println!(
        "{:>10} {:>12} {:>10} {:>14}",
        "w2", "ΔSoH (m%)", "HVAC kW", "mean |ΔT| (K)"
    );
    let base = MpcWeights::default();
    let sweep = [0.0, 5.0, 20.0, 60.0, 150.0];
    let mut soh_curve = Vec::new();
    let mut comfort_curve = Vec::new();
    for &w2 in &sweep {
        let (soh, kw, terr) = run_weights(&params, &sim, MpcWeights { w2, ..base })?;
        println!("{w2:>10.0} {soh:>12.3} {kw:>10.3} {terr:>14.2}");
        soh_curve.push(soh);
        comfort_curve.push(terr);
    }
    println!("\nthe trade-off (x = sweep index over w2 ∈ {sweep:?}):");
    print!(
        "{}",
        ascii_chart(
            &[("ΔSoH m%", &soh_curve), ("mean |ΔT| K", &comfort_curve)],
            40,
            10,
        )
    );
    println!("\nraising w2 buys battery life with cabin-temperature slack —");
    println!("exactly the dial the paper's Eq. 21 exposes.");
    Ok(())
}
