//! Road-load force decomposition (the paper's Eq. 1–5).

use ev_units::{MetersPerSecond, Newtons};
use serde::{Deserialize, Serialize};

use crate::{VehicleParams, GRAVITY};

/// The decomposed longitudinal forces acting on the vehicle at one
/// operating point.
///
/// # Examples
///
/// ```
/// use ev_powertrain::{RoadLoad, VehicleParams};
/// use ev_units::MetersPerSecond;
///
/// let params = VehicleParams::nissan_leaf();
/// let load = RoadLoad::at(&params, MetersPerSecond::new(25.0), 0.0, 0.0);
/// // At highway speed, aero drag dominates rolling resistance.
/// assert!(load.aero.value() > load.rolling.value());
/// assert_eq!(load.grade.value(), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoadLoad {
    /// Aerodynamic drag `F_aero` (Eq. 2).
    pub aero: Newtons,
    /// Gravitational (grade) force `F_gr` (Eq. 3); negative downhill.
    pub grade: Newtons,
    /// Rolling resistance `F_roll` (Eq. 4).
    pub rolling: Newtons,
    /// Inertial force `m·a` (the acceleration term of Eq. 5).
    pub inertial: Newtons,
}

impl RoadLoad {
    /// Evaluates all force components at speed `v`, acceleration `a`
    /// (m/s²) and road grade `slope_percent` (100 % = 45°).
    #[must_use]
    pub fn at(params: &VehicleParams, v: MetersPerSecond, a: f64, slope_percent: f64) -> Self {
        let m = params.mass.value();
        let v_air = v.value() + params.wind_speed.value();
        let aero = 0.5
            * params.air_density
            * params.drag_coefficient
            * params.frontal_area
            * v_air
            * v_air
            * v_air.signum();
        let grade = m * GRAVITY * (slope_percent / 100.0).atan().sin();
        // Rolling resistance opposes motion and vanishes at standstill.
        let rolling = if v.value() > 0.0 {
            m * GRAVITY * (params.rolling_c0 + params.rolling_c1 * v.value() * v.value())
        } else {
            0.0
        };
        Self {
            aero: Newtons::new(aero),
            grade: Newtons::new(grade),
            rolling: Newtons::new(rolling),
            inertial: Newtons::new(m * a),
        }
    }

    /// The road load `F_rd = F_gr + F_aero + F_roll` (Eq. 1).
    #[must_use]
    pub fn road(&self) -> Newtons {
        self.aero + self.grade + self.rolling
    }

    /// The tractive force `F_tr = F_rd + m·a` (Eq. 5) the motor must
    /// provide (negative = braking).
    #[must_use]
    pub fn tractive(&self) -> Newtons {
        self.road() + self.inertial
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf() -> VehicleParams {
        VehicleParams::nissan_leaf()
    }

    #[test]
    fn aero_drag_hand_calculation() {
        // ½·1.2041·0.28·2.27·25² = 239.2 N
        let load = RoadLoad::at(&leaf(), MetersPerSecond::new(25.0), 0.0, 0.0);
        let expected = 0.5 * 1.2041 * 0.28 * 2.27 * 625.0;
        assert!((load.aero.value() - expected).abs() < 1e-9);
    }

    #[test]
    fn aero_drag_includes_head_wind() {
        let params = VehicleParams {
            wind_speed: MetersPerSecond::new(5.0),
            ..leaf()
        };
        let with_wind = RoadLoad::at(&params, MetersPerSecond::new(20.0), 0.0, 0.0);
        let calm = RoadLoad::at(&leaf(), MetersPerSecond::new(20.0), 0.0, 0.0);
        assert!(with_wind.aero.value() > calm.aero.value());
        // (25/20)² ratio.
        assert!((with_wind.aero.value() / calm.aero.value() - 625.0 / 400.0).abs() < 1e-9);
    }

    #[test]
    fn grade_force_hand_calculation() {
        // 5 % grade: sin(atan(0.05)) ≈ 0.049938.
        let load = RoadLoad::at(&leaf(), MetersPerSecond::new(10.0), 0.0, 5.0);
        let expected = 1625.0 * GRAVITY * (0.05f64).atan().sin();
        assert!((load.grade.value() - expected).abs() < 1e-9);
        // Downhill is negative.
        let down = RoadLoad::at(&leaf(), MetersPerSecond::new(10.0), 0.0, -5.0);
        assert!((down.grade.value() + expected).abs() < 1e-9);
    }

    #[test]
    fn hundred_percent_grade_is_45_degrees() {
        let load = RoadLoad::at(&leaf(), MetersPerSecond::new(1.0), 0.0, 100.0);
        let expected = 1625.0 * GRAVITY * (std::f64::consts::FRAC_PI_4).sin();
        assert!((load.grade.value() - expected).abs() < 1e-6);
    }

    #[test]
    fn rolling_resistance_vanishes_at_standstill() {
        let load = RoadLoad::at(&leaf(), MetersPerSecond::ZERO, 0.0, 0.0);
        assert_eq!(load.rolling.value(), 0.0);
        assert_eq!(load.road().value(), 0.0);
    }

    #[test]
    fn rolling_resistance_grows_with_speed_squared() {
        let slow = RoadLoad::at(&leaf(), MetersPerSecond::new(10.0), 0.0, 0.0);
        let fast = RoadLoad::at(&leaf(), MetersPerSecond::new(30.0), 0.0, 0.0);
        let c0 = 0.01;
        let c1 = 1.2e-6;
        let ratio = (c0 + c1 * 900.0) / (c0 + c1 * 100.0);
        assert!((fast.rolling.value() / slow.rolling.value() - ratio).abs() < 1e-9);
    }

    #[test]
    fn tractive_combines_all_terms() {
        let load = RoadLoad::at(&leaf(), MetersPerSecond::new(15.0), 1.0, 2.0);
        let sum = load.aero + load.grade + load.rolling + load.inertial;
        assert_eq!(load.tractive(), sum);
        assert!((load.inertial.value() - 1625.0).abs() < 1e-9);
    }

    #[test]
    fn braking_can_make_tractive_negative() {
        let load = RoadLoad::at(&leaf(), MetersPerSecond::new(15.0), -2.5, 0.0);
        assert!(load.tractive().value() < 0.0);
    }
}
