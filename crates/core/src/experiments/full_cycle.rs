//! Full discharge/charge cycle: testing the paper's constant-charge
//! assumption.
//!
//! The paper evaluates ΔSoH over the *drive* only, arguing that "the
//! charging part of the cycle is assumed to have fixed pattern and
//! duration and the effect of it on SoC_dev and SoC_avg are modeled as
//! constants" (Section II-D). With the CC-CV charger extension
//! ([`ev_battery::charge_to`]) we can close the cycle and verify that the
//! controller comparison survives: the charge half is (nearly) identical
//! across controllers, so the *ranking* is unchanged even though the
//! absolute statistics shift.

use ev_battery::{charge_to, Battery, Charger, SocStats, SohModel};
use ev_drive::DriveCycle;
use ev_units::{Percent, Seconds};

use crate::{ControllerKind, Simulation};

use super::{experiment_params, format_table, profile_at, COMPARISON_AMBIENT_C};

/// One controller's drive-only vs full-cycle ΔSoH.
#[derive(Debug, Clone, PartialEq)]
pub struct FullCycleRow {
    /// The controller.
    pub controller: ControllerKind,
    /// ΔSoH computed over the drive only, the paper's method (m%).
    pub drive_only_milli_pct: f64,
    /// ΔSoH computed over drive + CC-CV recharge (m%).
    pub full_cycle_milli_pct: f64,
    /// Wall-clock recharge duration (h).
    pub recharge_hours: f64,
}

/// Runs the full-cycle experiment: ECE_EUDC drive at the comparison
/// ambient, then a Level-2 recharge back to the starting SoC; ΔSoH from
/// the concatenated SoC trace.
///
/// # Panics
///
/// Panics only if built-in configurations fail to construct (they do
/// not).
#[must_use]
pub fn full_cycle() -> Vec<FullCycleRow> {
    let mut params = experiment_params();
    params.initial_cabin = Some(params.target);
    let profile = profile_at(&DriveCycle::ece_eudc(), COMPARISON_AMBIENT_C);
    let sim = Simulation::new(params.clone(), profile).expect("profile non-empty");
    let soh = SohModel::try_new(params.soh).expect("experiment soh params are valid");

    ControllerKind::paper_lineup()
        .into_iter()
        .map(|kind| {
            let mut controller = kind.instantiate(&params).expect("instantiates");
            let result = sim.run(controller.as_mut());
            let drive_trace = result.series.soc.clone();
            let drive_only = soh.degradation(SocStats::from_trace(&drive_trace)) * 1000.0;

            // Recharge from the final drive SoC back to the initial SoC.
            let mut battery = Battery::new(params.battery.clone());
            battery.reset_soc(Percent::new(*drive_trace.last().expect("non-empty")));
            let session = charge_to(
                &mut battery,
                &Charger::level2_6kw(),
                params.battery.initial_soc,
                Seconds::new(10.0),
            );
            let mut full_trace = drive_trace;
            full_trace.extend_from_slice(&session.soc_trace);
            let full = soh.degradation(SocStats::from_trace(&full_trace)) * 1000.0;

            FullCycleRow {
                controller: kind,
                drive_only_milli_pct: drive_only,
                full_cycle_milli_pct: full,
                recharge_hours: session.duration.value() / 3600.0,
            }
        })
        .collect()
}

/// Formats the full-cycle rows.
#[must_use]
pub fn render_full_cycle(rows: &[FullCycleRow]) -> String {
    let header: Vec<String> = [
        "controller",
        "drive-only ΔSoH (m%)",
        "full-cycle ΔSoH (m%)",
        "recharge (h)",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.controller.label().to_owned(),
                format!("{:.3}", r.drive_only_milli_pct),
                format!("{:.3}", r.full_cycle_milli_pct),
                format!("{:.2}", r.recharge_hours),
            ]
        })
        .collect();
    format!(
        "Full cycle — drive + CC-CV recharge (validates the paper's constant-charge assumption)\n{}",
        format_table(&header, &body)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controller_ranking_survives_the_charge_half() {
        let rows = full_cycle();
        assert_eq!(rows.len(), 3);
        let get = |kind: ControllerKind| {
            rows.iter()
                .find(|r| r.controller == kind)
                .expect("present")
                .clone()
        };
        let onoff = get(ControllerKind::OnOff);
        let mpc = get(ControllerKind::Mpc);
        // The paper's drive-only ranking…
        assert!(mpc.drive_only_milli_pct < onoff.drive_only_milli_pct);
        // …survives closing the cycle with the (identical) recharge.
        assert!(
            mpc.full_cycle_milli_pct < onoff.full_cycle_milli_pct,
            "mpc {} vs onoff {}",
            mpc.full_cycle_milli_pct,
            onoff.full_cycle_milli_pct
        );
        // The recharge durations differ only by the energy each
        // controller consumed (tens of minutes at most).
        assert!((mpc.recharge_hours - onoff.recharge_hours).abs() < 1.0);
    }
}
