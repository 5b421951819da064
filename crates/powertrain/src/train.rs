//! The electric power train: tractive force → electrical power.

use ev_units::{MetersPerSecond, Watts};

use crate::{RoadLoad, VehicleParams};

/// The EV power train: converts a kinematic operating point
/// `(v, a, slope)` into electrical power at the battery terminals
/// (the paper's Eq. 6, including the generator quadrant).
///
/// Positive power is drawn from the battery; negative power is
/// regenerative braking fed back into it, capped by
/// [`VehicleParams::max_regen_power`] and disabled below the regen cutoff
/// speed (friction brakes take over, as in the real vehicle).
///
/// # Examples
///
/// ```
/// use ev_powertrain::{PowerTrain, VehicleParams};
/// use ev_units::MetersPerSecond;
///
/// let pt = PowerTrain::new(VehicleParams::nissan_leaf());
/// // Hard braking from 80 km/h regenerates (negative power).
/// let p = pt.power(MetersPerSecond::new(22.2), -2.0, 0.0);
/// assert!(p.value() < 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PowerTrain {
    params: VehicleParams,
}

impl PowerTrain {
    /// Creates a power train from vehicle parameters.
    #[must_use]
    pub fn new(params: VehicleParams) -> Self {
        Self { params }
    }

    /// Borrows the vehicle parameters.
    #[must_use]
    pub fn params(&self) -> &VehicleParams {
        &self.params
    }

    /// Electrical power at the battery terminals for the operating point.
    ///
    /// `a` is the acceleration in m/s² and `slope_percent` the road grade
    /// (100 % = 45°). Returns positive draw or negative regeneration.
    /// Tractive demand beyond the motor's torque/power envelope saturates
    /// at the envelope (the real vehicle simply falls behind the cycle).
    #[must_use]
    pub fn power(&self, v: MetersPerSecond, a: f64, slope_percent: f64) -> Watts {
        let load = RoadLoad::at(&self.params, v, a, slope_percent);
        let mut f_tr = load.tractive().value();
        // Motor capability envelope: torque-limited at low speed,
        // power-limited above base speed.
        let f_torque_max =
            self.params.max_motor_torque * self.params.gear_ratio / self.params.wheel_radius;
        let f_power_max = if v.value() > 0.1 {
            self.params.max_motor_power.to_watts().value() / v.value()
        } else {
            f_torque_max
        };
        let f_cap = f_torque_max.min(f_power_max);
        f_tr = f_tr.clamp(-f_cap, f_cap);
        let mech = f_tr * v.value(); // mechanical power at the wheels

        // Motor operating point for the efficiency lookup.
        let omega = v.value() / self.params.wheel_radius * self.params.gear_ratio;
        let tau = f_tr * self.params.wheel_radius / self.params.gear_ratio;
        let eta = self.params.efficiency.efficiency(omega, tau);

        if mech >= 0.0 {
            // Motor quadrant: battery supplies mech / η.
            Watts::new(mech / eta)
        } else if v < self.params.regen_cutoff_speed {
            // Friction braking only.
            Watts::ZERO
        } else {
            // Generator quadrant: battery receives mech · η, capped.
            let regen = (mech * eta).max(-self.params.max_regen_power.to_watts().value());
            Watts::new(regen)
        }
    }

    /// The force decomposition at an operating point (exposed so callers
    /// can analyze where the power goes, per C-INTERMEDIATE).
    #[must_use]
    pub fn road_load(&self, v: MetersPerSecond, a: f64, slope_percent: f64) -> RoadLoad {
        RoadLoad::at(&self.params, v, a, slope_percent)
    }

    /// Convenience: energy consumption in kWh per 100 km at a steady
    /// cruise speed on a flat road.
    #[must_use]
    pub fn cruise_consumption_kwh_per_100km(&self, v: MetersPerSecond) -> f64 {
        if v.value() <= 0.0 {
            return 0.0;
        }
        let p_kw = self.power(v, 0.0, 0.0).to_kilowatts().value();
        let hours_per_100km = 100.0 / v.to_kilometers_per_hour().value();
        p_kw * hours_per_100km
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EfficiencyMap;
    use ev_units::Kilowatts;

    fn pt() -> PowerTrain {
        PowerTrain::new(VehicleParams::nissan_leaf())
    }

    #[test]
    fn standstill_draws_nothing() {
        assert_eq!(pt().power(MetersPerSecond::ZERO, 0.0, 0.0).value(), 0.0);
    }

    #[test]
    fn cruise_power_matches_hand_calculation_with_constant_eta() {
        let params = VehicleParams {
            efficiency: EfficiencyMap::constant(0.9),
            ..VehicleParams::nissan_leaf()
        };
        let pt = PowerTrain::new(params);
        let v = 25.0;
        let aero = 0.5 * 1.2041 * 0.28 * 2.27 * v * v;
        let roll = 1625.0 * crate::GRAVITY * (0.01 + 1.2e-6 * v * v);
        let expected = (aero + roll) * v / 0.9;
        let p = pt.power(MetersPerSecond::new(v), 0.0, 0.0).value();
        assert!((p - expected).abs() < 1e-6, "p {p} vs {expected}");
    }

    #[test]
    fn leaf_consumption_is_realistic() {
        // Published Leaf figures: roughly 12–20 kWh/100 km depending on
        // speed. Check 100 km/h sits in a plausible band.
        let c = pt().cruise_consumption_kwh_per_100km(MetersPerSecond::new(27.78));
        assert!(c > 10.0 && c < 22.0, "consumption {c} kWh/100km");
        // And 50 km/h should be meaningfully cheaper.
        let c50 = pt().cruise_consumption_kwh_per_100km(MetersPerSecond::new(13.89));
        assert!(c50 < c, "c50 {c50} < c {c}");
    }

    #[test]
    fn acceleration_dominates_cruise() {
        let cruise = pt().power(MetersPerSecond::new(15.0), 0.0, 0.0).value();
        let accel = pt().power(MetersPerSecond::new(15.0), 2.0, 0.0).value();
        assert!(accel > 3.0 * cruise, "accel {accel} cruise {cruise}");
    }

    #[test]
    fn uphill_costs_more_than_flat() {
        let flat = pt().power(MetersPerSecond::new(20.0), 0.0, 0.0).value();
        let hill = pt().power(MetersPerSecond::new(20.0), 0.0, 6.0).value();
        assert!(hill > 2.0 * flat);
    }

    #[test]
    fn downhill_braking_regenerates_and_is_capped() {
        let p = pt().power(MetersPerSecond::new(25.0), -3.0, -5.0);
        assert!(p.value() < 0.0);
        assert!(p.value() >= -30_000.0, "regen cap violated: {p}");
    }

    #[test]
    fn no_regen_below_cutoff_speed() {
        let p = pt().power(MetersPerSecond::new(1.0), -2.0, 0.0);
        assert_eq!(p.value(), 0.0);
    }

    #[test]
    fn regen_recovers_less_than_mech_energy() {
        // Moderate braking below the cap: battery receives mech · η < mech.
        let params = VehicleParams {
            efficiency: EfficiencyMap::constant(0.9),
            max_regen_power: Kilowatts::new(1000.0),
            ..VehicleParams::nissan_leaf()
        };
        let pt = PowerTrain::new(params);
        let v = MetersPerSecond::new(20.0);
        let load = pt.road_load(v, -1.0, 0.0);
        let mech = load.tractive().value() * v.value();
        assert!(mech < 0.0);
        let p = pt.power(v, -1.0, 0.0).value();
        assert!((p - mech * 0.9).abs() < 1e-9);
    }

    #[test]
    fn motor_envelope_saturates_extreme_demands() {
        let p = pt();
        // Launch at 5 m/s with absurd acceleration: force capped by torque.
        let f_cap = 280.0 * 7.94 / 0.3156;
        let load = p.road_load(MetersPerSecond::new(5.0), 50.0, 0.0);
        assert!(load.tractive().value() > f_cap, "demand must exceed cap");
        let power = p.power(MetersPerSecond::new(5.0), 50.0, 0.0).value();
        // Capped mechanical power = f_cap · v; electrical adds η division.
        assert!(power < f_cap * 5.0 / 0.6 + 1.0, "power {power}");
        // At high speed the 80 kW power limit binds instead.
        let hp = p.power(MetersPerSecond::new(30.0), 10.0, 0.0).value();
        assert!(hp < 80_000.0 / 0.6, "power-limited: {hp}");
    }

    #[test]
    fn normal_driving_is_unaffected_by_envelope() {
        let p = pt();
        // A 1.5 m/s² launch at 10 m/s sits well inside the envelope.
        let load = p.road_load(MetersPerSecond::new(10.0), 1.5, 0.0);
        let f_cap = 280.0 * 7.94 / 0.3156;
        assert!(load.tractive().value() < f_cap);
    }

    #[test]
    fn efficiency_map_affects_power() {
        let with_eta = |eta| {
            PowerTrain::new(VehicleParams {
                efficiency: EfficiencyMap::constant(eta),
                ..VehicleParams::nissan_leaf()
            })
        };
        let (good, bad) = (with_eta(0.95), with_eta(0.70));
        let v = MetersPerSecond::new(20.0);
        assert!(bad.power(v, 0.5, 0.0).value() > good.power(v, 0.5, 0.0).value());
    }
}
