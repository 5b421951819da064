//! A year of commuting: accumulate per-cycle SoH degradation (Eq. 15)
//! over 250 working days under each climate controller and extrapolate
//! the pack's service life.
//!
//! This is the paper's battery-lifetime story told in calendar terms: a
//! 14 % smaller ΔSoH per cycle is roughly 14 % more years until the pack
//! hits the 80 % end-of-life threshold.
//!
//! ```text
//! cargo run --release --example battery_aging
//! ```

use evclimate::battery::SohModel;
use evclimate::core::ControllerKind;
use evclimate::drive::synthetic::DiurnalClimate;
use evclimate::prelude::*;

/// Seasonal commute scenarios: (label, share of the year, ambient °C).
const SEASONS: [(&str, f64, f64); 4] = [
    ("winter", 0.25, 0.0),
    ("spring", 0.25, 15.0),
    ("summer", 0.25, 33.0),
    ("autumn", 0.25, 12.0),
];

const WORKDAYS_PER_YEAR: f64 = 250.0;
/// Two commutes (there and back) per working day.
const CYCLES_PER_YEAR: f64 = 2.0 * WORKDAYS_PER_YEAR;

fn per_cycle_soh(kind: ControllerKind, ambient_c: f64) -> Result<f64, Box<dyn std::error::Error>> {
    let profile = DriveProfile::from_cycle(
        &DriveCycle::udds(),
        AmbientConditions::constant(Celsius::new(ambient_c)),
        Seconds::new(1.0),
    );
    let mut params = EvParams::nissan_leaf_like();
    params.initial_cabin = Some(params.target);
    let sim = Simulation::new(params.clone(), profile)?;
    let mut controller = kind.instantiate(&params)?;
    Ok(sim
        .run(controller.as_mut())
        .metrics()
        .delta_soh_milli_percent
        / 1000.0)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Show the seasonal context.
    let climate = DiurnalClimate::new(Celsius::new(-4.0), Celsius::new(6.0));
    println!(
        "(for reference, a winter morning commute at 08:00 sees {:.1})",
        climate.temperature_at_hour(8.0)
    );
    println!("\nUDDS city commute, 500 cycles/year, seasonal ambient mix\n");
    println!(
        "{:<28} {:>16} {:>14} {:>12}",
        "controller", "ΔSoH %/year", "years to 80 %", "vs On/Off"
    );
    let mut baseline_years = None;
    for kind in ControllerKind::paper_lineup() {
        // Season-weighted annual degradation.
        let mut annual = 0.0;
        for (_, share, ambient) in SEASONS {
            annual += share * CYCLES_PER_YEAR * per_cycle_soh(kind, ambient)?;
        }
        let years = SohModel::EOL_FADE_PERCENT / annual;
        let vs = match baseline_years {
            None => {
                baseline_years = Some(years);
                "—".to_owned()
            }
            Some(base) => format!("{:+.1}%", 100.0 * (years - base) / base),
        };
        println!(
            "{:<28} {:>15.3}% {:>13.1}y {:>12}",
            kind.label(),
            annual,
            years,
            vs
        );
    }
    Ok(())
}
