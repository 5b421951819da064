//! Bridges the simulation's [`StepObserver`] stream into an
//! [`ev_telemetry::Registry`].
//!
//! [`TelemetryObserver`] is the experiment-level half of the telemetry
//! story: the controller records solver metrics (`mpc_*`, `sqp_*`) on its
//! own, and this observer adds the plant-side view — step counts, mode
//! occupancy and power distributions — so a single registry snapshot
//! describes a whole run. Against a disabled registry every handle is
//! inert and `on_step` is a handful of branches.

use ev_telemetry::{Counter, Histogram, HistogramSpec, Registry};

use crate::observe::{ControllerMode, StepObserver, StepRecord};

/// A [`StepObserver`] that folds each simulated step into telemetry
/// metrics.
///
/// Metrics recorded (all prefixed `sim_`):
///
/// * `sim_steps_total` — plant steps simulated;
/// * `sim_mode_{heating,cooling,vent,idle}_steps_total` — controller-mode
///   occupancy;
/// * `sim_hvac_power_watts` — total HVAC power distribution;
/// * `sim_battery_power_watts` — battery power distribution (regeneration
///   is negative and lands in the first bucket; `min`/`max` stay exact).
///
/// # Examples
///
/// ```
/// use ev_core::{Simulation, TelemetryObserver};
/// use ev_telemetry::Registry;
/// # use ev_core::{ControllerKind, EvParams};
/// # use ev_drive::{AmbientConditions, DriveCycle, DriveProfile};
/// # use ev_units::{Celsius, Seconds};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let registry = Registry::enabled();
/// let params = EvParams::nissan_leaf_like();
/// let profile = DriveProfile::from_cycle(
///     &DriveCycle::ece15(),
///     AmbientConditions::constant(Celsius::new(35.0)),
///     Seconds::new(1.0),
/// );
/// let sim = Simulation::new(params.clone(), profile)?;
/// let mut controller = ControllerKind::OnOff.instantiate(&params)?;
/// let mut observer = TelemetryObserver::new(&registry);
/// sim.run_observed(controller.as_mut(), &mut observer);
/// let snapshot = registry.snapshot();
/// assert!(snapshot.counter("sim_steps_total").unwrap() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TelemetryObserver {
    steps: Counter,
    heating: Counter,
    cooling: Counter,
    vent: Counter,
    idle: Counter,
    hvac_power: Histogram,
    battery_power: Histogram,
}

impl TelemetryObserver {
    /// Binds the observer's metrics in `registry` (no-op handles when the
    /// registry is disabled).
    #[must_use]
    pub fn new(registry: &Registry) -> Self {
        Self {
            steps: registry.counter("sim_steps_total"),
            heating: registry.counter("sim_mode_heating_steps_total"),
            cooling: registry.counter("sim_mode_cooling_steps_total"),
            vent: registry.counter("sim_mode_vent_steps_total"),
            idle: registry.counter("sim_mode_idle_steps_total"),
            hvac_power: registry.histogram("sim_hvac_power_watts", HistogramSpec::power_watts()),
            battery_power: registry
                .histogram("sim_battery_power_watts", HistogramSpec::power_watts()),
        }
    }
}

impl StepObserver for TelemetryObserver {
    fn on_step(&mut self, record: &StepRecord) {
        self.steps.inc();
        match record.mode {
            ControllerMode::Heating => self.heating.inc(),
            ControllerMode::Cooling => self.cooling.inc(),
            ControllerMode::Vent => self.vent.inc(),
            ControllerMode::Idle => self.idle.inc(),
        }
        self.hvac_power.record(record.hvac_power());
        self.battery_power.record(record.battery_power);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(mode: ControllerMode, hvac_w: f64, battery_w: f64) -> StepRecord {
        StepRecord {
            step: 0,
            t: 0.0,
            dt: 1.0,
            motor_power: 0.0,
            heating_power: 0.0,
            cooling_power: hvac_w,
            fan_power: 0.0,
            accessory_power: 0.0,
            battery_power: battery_w,
            soc: 90.0,
            cabin_temp: 24.0,
            pack_temp: 30.0,
            ambient: 35.0,
            solar: 400.0,
            supply_temp: 12.0,
            coil_temp: 12.0,
            recirculation: 0.9,
            flow: 0.1,
            mode,
        }
    }

    #[test]
    fn steps_and_modes_are_counted() {
        let registry = Registry::enabled();
        let mut obs = TelemetryObserver::new(&registry);
        obs.on_step(&record(ControllerMode::Cooling, 2_000.0, 5_000.0));
        obs.on_step(&record(ControllerMode::Cooling, 1_500.0, 4_000.0));
        obs.on_step(&record(ControllerMode::Idle, 0.0, -1_200.0));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("sim_steps_total").unwrap(), 3);
        assert_eq!(snap.counter("sim_mode_cooling_steps_total").unwrap(), 2);
        assert_eq!(snap.counter("sim_mode_idle_steps_total").unwrap(), 1);
        let hvac = snap.histogram("sim_hvac_power_watts").unwrap();
        assert_eq!(hvac.count, 3);
        assert_eq!(hvac.max, 2_000.0);
        // Regenerated battery power is negative: kept exactly in min.
        let batt = snap.histogram("sim_battery_power_watts").unwrap();
        assert_eq!(batt.min, -1_200.0);
        assert_eq!(batt.max, 5_000.0);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let registry = Registry::disabled();
        let mut obs = TelemetryObserver::new(&registry);
        obs.on_step(&record(ControllerMode::Vent, 100.0, 200.0));
        assert!(registry.snapshot().is_empty());
    }
}
