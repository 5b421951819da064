//! Bridges the simulation's [`StepObserver`] stream into an
//! [`ev_telemetry::FlightRecorder`].
//!
//! [`FlightRecorderObserver`] is the plant-side half of the flight
//! recorder: the MPC pushes one `DecisionRecord` per solve on its own,
//! and this observer interleaves a compact [`StepSummary`] per realized
//! plant step, so a post-mortem dump shows what the controller *planned*
//! next to what the plant actually *did*. Against a disabled recorder
//! `on_step` is a single branch.

use ev_telemetry::{FlightRecorder, StepSummary};

use crate::observe::{StepObserver, StepRecord};

/// A [`StepObserver`] that records each simulated step into a flight
/// recorder's ring buffer.
///
/// # Examples
///
/// ```
/// use ev_core::{FlightRecorderObserver, Simulation};
/// use ev_telemetry::FlightRecorder;
/// # use ev_core::{ControllerKind, EvParams};
/// # use ev_drive::{AmbientConditions, DriveCycle, DriveProfile};
/// # use ev_units::{Celsius, Seconds};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let recorder = FlightRecorder::enabled(128);
/// let params = EvParams::nissan_leaf_like();
/// let profile = DriveProfile::from_cycle(
///     &DriveCycle::ece15(),
///     AmbientConditions::constant(Celsius::new(35.0)),
///     Seconds::new(1.0),
/// );
/// let sim = Simulation::new(params.clone(), profile)?;
/// let mut controller = ControllerKind::OnOff.instantiate(&params)?;
/// let mut observer = FlightRecorderObserver::new(&recorder);
/// sim.run_observed(controller.as_mut(), &mut observer);
/// assert!(!recorder.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FlightRecorderObserver {
    recorder: FlightRecorder,
}

impl FlightRecorderObserver {
    /// Wraps a recorder handle (clones are cheap and share the ring).
    #[must_use]
    pub fn new(recorder: &FlightRecorder) -> Self {
        Self {
            recorder: recorder.clone(),
        }
    }
}

impl StepObserver for FlightRecorderObserver {
    fn on_step(&mut self, record: &StepRecord) {
        if !self.recorder.is_enabled() {
            return;
        }
        self.recorder.record_step(StepSummary {
            step: record.step as u64,
            t_s: record.t,
            motor_power_w: record.motor_power,
            hvac_power_w: record.hvac_power(),
            battery_power_w: record.battery_power,
            soc_pct: record.soc,
            cabin_c: record.cabin_temp,
            ambient_c: record.ambient,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::ControllerMode;
    use ev_telemetry::FlightRecord;

    fn record(step: usize) -> StepRecord {
        StepRecord {
            step,
            t: step as f64,
            dt: 1.0,
            motor_power: 4_000.0,
            heating_power: 0.0,
            cooling_power: 1_500.0,
            fan_power: 60.0,
            accessory_power: 300.0,
            battery_power: 5_860.0,
            soc: 90.0,
            cabin_temp: 24.5,
            pack_temp: 30.0,
            ambient: 35.0,
            solar: 400.0,
            supply_temp: 12.0,
            coil_temp: 12.0,
            recirculation: 0.9,
            flow: 0.1,
            mode: ControllerMode::Cooling,
        }
    }

    #[test]
    fn steps_land_in_the_ring() {
        let recorder = FlightRecorder::enabled(8);
        let mut obs = FlightRecorderObserver::new(&recorder);
        obs.on_step(&record(0));
        obs.on_step(&record(1));
        let records = recorder.records();
        assert_eq!(records.len(), 2);
        match &records[1] {
            FlightRecord::Step(s) => {
                assert_eq!(s.step, 1);
                assert_eq!(s.hvac_power_w, 1_560.0);
                assert_eq!(s.cabin_c, 24.5);
            }
            other => panic!("expected step record, got {other:?}"),
        }
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let recorder = FlightRecorder::disabled();
        let mut obs = FlightRecorderObserver::new(&recorder);
        obs.on_step(&record(0));
        assert!(recorder.is_empty());
    }
}
