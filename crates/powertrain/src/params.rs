//! Vehicle parameters with a builder and Nissan Leaf defaults.

use ev_units::{Kilograms, Kilowatts, MetersPerSecond};
use serde::{Deserialize, Serialize};

use crate::EfficiencyMap;

/// Physical parameters of the EV power train (the paper's Eq. 1–6
/// constants).
///
/// Defaults come from the public Nissan Leaf specification, the vehicle
/// the paper verifies its power-train model against.
///
/// # Examples
///
/// ```
/// use ev_powertrain::VehicleParams;
///
/// let leaf = VehicleParams::nissan_leaf();
/// assert!((leaf.mass.value() - 1625.0).abs() < 1.0);
///
/// let heavier = VehicleParams::builder()
///     .mass_kg(1900.0)
///     .drag_coefficient(0.30)
///     .build();
/// assert_eq!(heavier.mass.value(), 1900.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VehicleParams {
    /// Total vehicle mass including payload.
    pub mass: Kilograms,
    /// Aerodynamic drag coefficient `Cx`.
    pub drag_coefficient: f64,
    /// Effective frontal area `A` (m²).
    pub frontal_area: f64,
    /// Air density `ρ` (kg/m³).
    pub air_density: f64,
    /// Head-wind speed `v_wind` (positive = opposing the vehicle).
    pub wind_speed: MetersPerSecond,
    /// Rolling-resistance constant `c0`.
    pub rolling_c0: f64,
    /// Speed-squared rolling-resistance coefficient `c1` (s²/m²).
    pub rolling_c1: f64,
    /// Motor/generator efficiency map.
    pub efficiency: EfficiencyMap,
    /// Wheel radius (m), used to translate wheel force into motor torque.
    pub wheel_radius: f64,
    /// Single-speed reduction gear ratio.
    pub gear_ratio: f64,
    /// Maximum motor mechanical output power (saturates cycle-following).
    pub max_motor_power: Kilowatts,
    /// Maximum motor torque (Nm), limiting low-speed tractive force.
    pub max_motor_torque: f64,
    /// Maximum regenerative braking power the drivetrain can absorb.
    pub max_regen_power: Kilowatts,
    /// Speed below which regeneration is replaced by friction braking.
    pub regen_cutoff_speed: MetersPerSecond,
}

impl VehicleParams {
    /// Parameters of a Nissan Leaf (2013, 24 kWh) with one passenger:
    /// curb mass 1521 kg + 104 kg payload, Cd 0.28, frontal area 2.27 m².
    #[must_use]
    pub fn nissan_leaf() -> Self {
        Self {
            mass: Kilograms::new(1625.0),
            drag_coefficient: 0.28,
            frontal_area: 2.27,
            air_density: 1.2041,
            wind_speed: MetersPerSecond::ZERO,
            rolling_c0: 0.01,
            rolling_c1: 1.2e-6,
            efficiency: EfficiencyMap::leaf_like(),
            wheel_radius: 0.3156,
            gear_ratio: 7.94,
            max_motor_power: Kilowatts::new(80.0),
            max_motor_torque: 280.0,
            max_regen_power: Kilowatts::new(30.0),
            regen_cutoff_speed: MetersPerSecond::new(1.5),
        }
    }

    /// Starts a builder initialized with the Leaf defaults.
    #[must_use]
    pub fn builder() -> VehicleParamsBuilder {
        VehicleParamsBuilder {
            params: Self::nissan_leaf(),
        }
    }
}

impl Default for VehicleParams {
    fn default() -> Self {
        Self::nissan_leaf()
    }
}

/// Builder for [`VehicleParams`], seeded with the Leaf defaults.
#[derive(Debug, Clone)]
pub struct VehicleParamsBuilder {
    params: VehicleParams,
}

impl VehicleParamsBuilder {
    /// Sets the total mass in kilograms.
    ///
    /// # Panics
    ///
    /// Panics if `mass <= 0`.
    #[must_use]
    pub fn mass_kg(mut self, mass: f64) -> Self {
        assert!(mass > 0.0, "vehicle mass must be positive");
        self.params.mass = Kilograms::new(mass);
        self
    }

    /// Sets the aerodynamic drag coefficient.
    ///
    /// # Panics
    ///
    /// Panics if `cx <= 0`.
    #[must_use]
    pub fn drag_coefficient(mut self, cx: f64) -> Self {
        assert!(cx > 0.0, "drag coefficient must be positive");
        self.params.drag_coefficient = cx;
        self
    }

    /// Sets the effective frontal area in m².
    ///
    /// # Panics
    ///
    /// Panics if `a <= 0`.
    #[must_use]
    pub fn frontal_area_m2(mut self, a: f64) -> Self {
        assert!(a > 0.0, "frontal area must be positive");
        self.params.frontal_area = a;
        self
    }

    /// Finishes the builder.
    #[must_use]
    pub fn build(self) -> VehicleParams {
        self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_defaults() {
        let p = VehicleParams::nissan_leaf();
        assert_eq!(p.drag_coefficient, 0.28);
        assert_eq!(p.frontal_area, 2.27);
        assert_eq!(p.gear_ratio, 7.94);
        assert_eq!(VehicleParams::default(), p);
    }

    #[test]
    fn builder_overrides() {
        let p = VehicleParams::builder()
            .mass_kg(2000.0)
            .drag_coefficient(0.35)
            .frontal_area_m2(2.5)
            .build();
        assert_eq!(p.mass.value(), 2000.0);
        assert_eq!(p.drag_coefficient, 0.35);
        assert_eq!(p.frontal_area, 2.5);
    }

    #[test]
    #[should_panic(expected = "mass must be positive")]
    fn rejects_zero_mass() {
        let _ = VehicleParams::builder().mass_kg(0.0);
    }
}
