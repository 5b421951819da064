//! The physical plant: power train + HVAC + battery behind the BMS.

use ev_battery::{Bms, PackThermal, SohModel};
use ev_drive::DriveSample;
use ev_hvac::{Hvac, HvacInput, HvacPower, HvacState};
use ev_powertrain::PowerTrain;
use ev_units::{Celsius, Percent, Seconds, Watts};

use crate::EvParams;

/// What one plant step produced: the power breakdown and the new states.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlantStep {
    /// Electric-motor power (negative = regeneration).
    pub motor_power: Watts,
    /// HVAC component powers.
    pub hvac_power: HvacPower,
    /// Accessory power.
    pub accessory_power: Watts,
    /// Total power metered into the battery (after BMS clamping).
    pub battery_power: Watts,
    /// Cabin temperature after the step.
    pub cabin: Celsius,
    /// Battery-pack temperature after the step.
    pub pack_temp: Celsius,
    /// State of charge after the step.
    pub soc: Percent,
}

/// The simulated electric vehicle: the "physical plant" of the paper's
/// co-simulation (modeled in AMESim there, in pure Rust here).
///
/// Owns the power train, the HVAC and the battery-with-BMS, and advances
/// them one sample period at a time under a controller-chosen HVAC input
/// and a drive-profile operating point.
///
/// # Examples
///
/// ```
/// use ev_core::{ElectricVehicle, EvParams};
/// use ev_drive::DriveSample;
/// use ev_hvac::HvacInput;
/// use ev_units::{Celsius, MetersPerSecond, Seconds, Watts};
///
/// let params = EvParams::nissan_leaf_like();
/// let mut ev = ElectricVehicle::new(&params, Celsius::new(30.0));
/// let sample = DriveSample {
///     t: Seconds::ZERO,
///     v: MetersPerSecond::new(15.0),
///     a: 0.5,
///     slope_percent: 0.0,
///     ambient: Celsius::new(35.0),
///     solar: Watts::new(400.0),
/// };
/// let input = HvacInput::idle(&params.hvac, Celsius::new(30.0));
/// let step = ev.step(&input, &sample, Seconds::new(1.0));
/// assert!(step.motor_power.value() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct ElectricVehicle {
    power_train: PowerTrain,
    hvac: Hvac,
    bms: Bms,
    pack: PackThermal,
    accessory_power: Watts,
    cabin: HvacState,
}

impl ElectricVehicle {
    /// Creates the plant with the given initial cabin temperature. The
    /// battery pack starts soaked to the same temperature; override with
    /// [`ElectricVehicle::with_pack_temperature`].
    ///
    /// # Panics
    ///
    /// Panics if `params.soh` or `params.battery` fail validation;
    /// [`crate::Simulation::new`] pre-validates and returns a routable
    /// error instead.
    #[must_use]
    pub fn new(params: &EvParams, initial_cabin: Celsius) -> Self {
        Self {
            power_train: PowerTrain::new(params.vehicle.clone()),
            hvac: params.hvac_model(),
            bms: Bms::new(
                params.battery.clone().validated(),
                SohModel::new(params.soh),
            ),
            pack: PackThermal::new(params.pack_thermal, initial_cabin),
            accessory_power: params.accessory_power,
            cabin: HvacState::new(initial_cabin),
        }
    }

    /// Overrides the initial battery-pack temperature (a parked vehicle
    /// soaks to ambient even when the cabin is preconditioned).
    #[must_use]
    pub fn with_pack_temperature(mut self, initial: Celsius) -> Self {
        self.pack = PackThermal::new(*self.pack.params(), initial);
        self
    }

    /// The current cabin temperature.
    #[must_use]
    pub fn cabin(&self) -> Celsius {
        self.cabin.tz
    }

    /// The current cabin state (for controllers).
    #[must_use]
    pub fn cabin_state(&self) -> HvacState {
        self.cabin
    }

    /// Borrows the BMS (SoC, trace, cycle statistics).
    #[must_use]
    pub fn bms(&self) -> &Bms {
        &self.bms
    }

    /// Borrows the power train (for precomputing motor power).
    #[must_use]
    pub fn power_train(&self) -> &PowerTrain {
        &self.power_train
    }

    /// Borrows the HVAC model.
    #[must_use]
    pub fn hvac(&self) -> &Hvac {
        &self.hvac
    }

    /// The constant accessory power.
    #[must_use]
    pub fn accessory_power(&self) -> Watts {
        self.accessory_power
    }

    /// Advances the whole plant one sample period: motor power from the
    /// drive sample, HVAC thermal step under `input`, total power metered
    /// into the battery by the BMS.
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0`.
    pub fn step(&mut self, input: &HvacInput, sample: &DriveSample, dt: Seconds) -> PlantStep {
        let motor_power = self
            .power_train
            .power(sample.v, sample.a, sample.slope_percent);
        self.step_at(input, motor_power, sample.ambient, sample.solar, dt)
    }

    /// [`step`](Self::step) with the motor power already computed from
    /// the drive sample, e.g. precomputed by [`crate::Simulation`].
    pub(crate) fn step_at(
        &mut self,
        input: &HvacInput,
        motor_power: Watts,
        ambient: Celsius,
        solar: Watts,
        dt: Seconds,
    ) -> PlantStep {
        let (next_cabin, hvac_power) = self.hvac.step(self.cabin, input, ambient, solar, dt);
        self.cabin = next_cabin;
        let total = motor_power + hvac_power.total() + self.accessory_power;
        let battery_power = self.bms.apply_load(total, dt);
        // The pack heats with I²R losses of the metered current and cools
        // toward ambient.
        let current = self.bms.battery().current_for_power(battery_power);
        let pack_temp = self.pack.step(current, ambient, dt);
        PlantStep {
            motor_power,
            hvac_power,
            accessory_power: self.accessory_power,
            battery_power,
            cabin: self.cabin.tz,
            pack_temp,
            soc: self.bms.soc(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_units::MetersPerSecond;

    fn sample(v: f64, a: f64, to: f64) -> DriveSample {
        DriveSample {
            t: Seconds::ZERO,
            v: MetersPerSecond::new(v),
            a,
            slope_percent: 0.0,
            ambient: Celsius::new(to),
            solar: Watts::new(400.0),
        }
    }

    #[test]
    fn step_discharges_battery() {
        let params = EvParams::nissan_leaf_like();
        let mut ev = ElectricVehicle::new(&params, Celsius::new(30.0));
        let input = HvacInput::idle(&params.hvac, Celsius::new(30.0));
        let soc0 = ev.bms().soc().value();
        for _ in 0..60 {
            ev.step(&input, &sample(20.0, 0.0, 35.0), Seconds::new(1.0));
        }
        assert!(ev.bms().soc().value() < soc0);
    }

    #[test]
    fn regen_during_braking_reduces_drain() {
        let params = EvParams::nissan_leaf_like();
        let input = HvacInput::idle(&params.hvac, Celsius::new(24.0));
        let mut cruising = ElectricVehicle::new(&params, Celsius::new(24.0));
        let mut braking = ElectricVehicle::new(&params, Celsius::new(24.0));
        for _ in 0..60 {
            cruising.step(&input, &sample(20.0, 0.0, 24.0), Seconds::new(1.0));
            braking.step(&input, &sample(20.0, -2.0, 24.0), Seconds::new(1.0));
        }
        assert!(braking.bms().soc().value() > cruising.bms().soc().value());
    }

    #[test]
    fn accessories_always_drain() {
        let params = EvParams::nissan_leaf_like();
        let mut ev = ElectricVehicle::new(&params, Celsius::new(24.0));
        let input = HvacInput::idle(&params.hvac, Celsius::new(24.0));
        let step = ev.step(&input, &sample(0.0, 0.0, 24.0), Seconds::new(1.0));
        assert_eq!(step.motor_power.value(), 0.0);
        assert!(step.battery_power.value() >= 300.0);
    }

    #[test]
    fn cabin_follows_hvac_input() {
        let params = EvParams::nissan_leaf_like();
        let mut ev = ElectricVehicle::new(&params, Celsius::new(35.0));
        let cold = HvacInput {
            ts: Celsius::new(10.0),
            tc: Celsius::new(10.0),
            dr: 0.5,
            mz: params.hvac.max_flow,
        };
        for _ in 0..120 {
            ev.step(&cold, &sample(15.0, 0.0, 35.0), Seconds::new(1.0));
        }
        assert!(ev.cabin().value() < 32.0, "cabin {}", ev.cabin());
    }
}
