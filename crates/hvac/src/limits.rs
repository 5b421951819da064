//! The constraint set C1–C10 of the paper's Section III-A.

use ev_units::Celsius;
use serde::{Deserialize, Serialize};

use crate::{Hvac, HvacInput, HvacState};

/// A violated HVAC constraint, labelled with the paper's numbering.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ConstraintViolation {
    /// C1: supply air flow outside `[ṁ̲z, ṁ̄z]`.
    C1FlowRange {
        /// The offending flow (kg/s).
        mz: f64,
    },
    /// C2: cabin temperature outside the comfort zone.
    C2ComfortZone {
        /// The offending cabin temperature (°C).
        tz: f64,
    },
    /// C3: heater would decrease temperature (`Ts < Tc`).
    C3HeaterDirection,
    /// C4: cooler would increase temperature (`Tc > Tm`).
    C4CoolerDirection,
    /// C5: cooling-coil outlet below its minimum.
    C5CoilTooCold {
        /// The offending coil temperature (°C).
        tc: f64,
    },
    /// C6: supply temperature above the heater maximum.
    C6SupplyTooHot {
        /// The offending supply temperature (°C).
        ts: f64,
    },
    /// C7: recirculation fraction outside `[0, d̄r]`.
    C7Recirculation {
        /// The offending fraction.
        dr: f64,
    },
    /// C8: heating power above its cap.
    C8HeatingPower {
        /// The offending power (W).
        ph: f64,
    },
    /// C9: cooling power above its cap.
    C9CoolingPower {
        /// The offending power (W).
        pc: f64,
    },
    /// C10: fan power above its cap.
    C10FanPower {
        /// The offending power (W).
        pf: f64,
    },
}

impl core::fmt::Display for ConstraintViolation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::C1FlowRange { mz } => write!(f, "c1: supply flow {mz} kg/s out of range"),
            Self::C2ComfortZone { tz } => {
                write!(f, "c2: cabin temperature {tz} °C outside comfort zone")
            }
            Self::C3HeaterDirection => write!(f, "c3: heater commanded to cool (ts < tc)"),
            Self::C4CoolerDirection => write!(f, "c4: cooler commanded to heat (tc > tm)"),
            Self::C5CoilTooCold { tc } => write!(f, "c5: coil outlet {tc} °C below minimum"),
            Self::C6SupplyTooHot { ts } => write!(f, "c6: supply {ts} °C above heater maximum"),
            Self::C7Recirculation { dr } => {
                write!(f, "c7: recirculation fraction {dr} out of range")
            }
            Self::C8HeatingPower { ph } => write!(f, "c8: heating power {ph} W above cap"),
            Self::C9CoolingPower { pc } => write!(f, "c9: cooling power {pc} W above cap"),
            Self::C10FanPower { pf } => write!(f, "c10: fan power {pf} W above cap"),
        }
    }
}

impl std::error::Error for ConstraintViolation {}

/// The full constraint set, parameterized by the comfort zone.
///
/// # Examples
///
/// ```
/// use ev_hvac::{CabinParams, Hvac, HvacInput, HvacLimits, HvacParams, HvacState};
/// use ev_units::Celsius;
///
/// let hvac = Hvac::new(CabinParams::default(), HvacParams::default());
/// let limits = HvacLimits::comfort_band(Celsius::new(24.0), 3.0);
/// let state = HvacState::new(Celsius::new(24.0));
/// let input = HvacInput::idle(hvac.params(), Celsius::new(24.0));
/// assert!(limits.validate(&hvac, &input, state, Celsius::new(24.0)).is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HvacLimits {
    /// Comfort-zone lower bound `T̲z` (C2).
    pub comfort_min: Celsius,
    /// Comfort-zone upper bound `T̄z` (C2).
    pub comfort_max: Celsius,
}

impl HvacLimits {
    /// Builds limits from a target temperature and a symmetric band
    /// half-width in kelvins.
    ///
    /// # Panics
    ///
    /// Panics if `half_width < 0`.
    #[must_use]
    pub fn comfort_band(target: Celsius, half_width: f64) -> Self {
        assert!(half_width >= 0.0, "comfort half-width must be non-negative");
        Self {
            comfort_min: target.offset(-half_width),
            comfort_max: target.offset(half_width),
        }
    }

    /// Checks every constraint; returns the first violation found, in the
    /// paper's C1…C10 order.
    ///
    /// # Errors
    ///
    /// Returns the violated constraint with its offending value.
    pub fn validate(
        &self,
        hvac: &Hvac,
        input: &HvacInput,
        state: HvacState,
        to: Celsius,
    ) -> Result<(), ConstraintViolation> {
        let p = hvac.params();
        const EPS: f64 = 1e-9;
        // C1 flow range.
        if input.mz.value() < p.min_flow.value() - EPS
            || input.mz.value() > p.max_flow.value() + EPS
        {
            return Err(ConstraintViolation::C1FlowRange {
                mz: input.mz.value(),
            });
        }
        // C2 comfort zone.
        if state.tz < self.comfort_min.offset(-EPS) || state.tz > self.comfort_max.offset(EPS) {
            return Err(ConstraintViolation::C2ComfortZone {
                tz: state.tz.value(),
            });
        }
        // C3 heater direction.
        if input.ts < input.tc.offset(-EPS) {
            return Err(ConstraintViolation::C3HeaterDirection);
        }
        // C4 cooler direction.
        let tm = hvac.mixed_air(input, state.tz, to);
        if input.tc > tm.offset(EPS) {
            return Err(ConstraintViolation::C4CoolerDirection);
        }
        // C5 coil minimum. The evaporator floor protects against icing
        // while *actively cooling*; a passive coil tracking a cold air
        // mix (heating mode in winter) is not a violation.
        if input.tc < p.min_coil_temp.offset(-EPS) && input.tc < tm.offset(-EPS) {
            return Err(ConstraintViolation::C5CoilTooCold {
                tc: input.tc.value(),
            });
        }
        // C6 supply maximum.
        if input.ts > p.max_supply_temp.offset(EPS) {
            return Err(ConstraintViolation::C6SupplyTooHot {
                ts: input.ts.value(),
            });
        }
        // C7 recirculation.
        if input.dr < -EPS || input.dr > p.max_recirculation + EPS {
            return Err(ConstraintViolation::C7Recirculation { dr: input.dr });
        }
        // C8–C10 power caps.
        let power = hvac.power(input, state, to);
        if power.heating.value() > p.max_heating_power.value() + EPS {
            return Err(ConstraintViolation::C8HeatingPower {
                ph: power.heating.value(),
            });
        }
        if power.cooling.value() > p.max_cooling_power.value() + EPS {
            return Err(ConstraintViolation::C9CoolingPower {
                pc: power.cooling.value(),
            });
        }
        if power.fan.value() > p.max_fan_power.value() + EPS {
            return Err(ConstraintViolation::C10FanPower {
                pf: power.fan.value(),
            });
        }
        Ok(())
    }

    /// Clamps a raw input into the statically checkable constraint box
    /// (C1, C5–C7 and the coil-direction orderings). Power caps (C8–C10)
    /// and the comfort zone (C2) are dynamic and remain the controller's
    /// responsibility.
    #[must_use]
    pub fn clamp_input(
        &self,
        hvac: &Hvac,
        input: HvacInput,
        state: HvacState,
        to: Celsius,
    ) -> HvacInput {
        let p = hvac.params();
        let mz = input.mz.clamp(p.min_flow, p.max_flow);
        let dr = input.dr.clamp(0.0, p.max_recirculation);
        let mut clamped = HvacInput {
            ts: input.ts,
            tc: input.tc,
            dr,
            mz,
        };
        let tm = hvac.mixed_air(&clamped, state.tz, to);
        // Active cooling may not go below the coil floor; a passive coil
        // may track an air mix colder than the floor (winter heating).
        // The coil may not exceed the supply maximum either, or an air
        // mix hotter than it (extreme ambient) would leave the supply
        // range `[tc, max_supply_temp]` empty.
        let tc_floor = p.min_coil_temp.min(tm);
        clamped.tc = clamped
            .tc
            .clamp(tc_floor, tm.max(tc_floor).min(p.max_supply_temp));
        clamped.ts = clamped.ts.clamp(clamped.tc, p.max_supply_temp);
        clamped
    }
}

impl Default for HvacLimits {
    /// The paper's experimental comfort zone: 24 °C ± 3 K.
    fn default() -> Self {
        Self::comfort_band(Celsius::new(24.0), 3.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CabinParams, HvacParams};
    use ev_units::KgPerSecond;

    fn hvac() -> Hvac {
        Hvac::new(CabinParams::default(), HvacParams::default())
    }

    fn ok_input() -> HvacInput {
        HvacInput {
            ts: Celsius::new(14.0),
            tc: Celsius::new(14.0),
            dr: 0.5,
            mz: KgPerSecond::new(0.15),
        }
    }

    fn state() -> HvacState {
        HvacState::new(Celsius::new(24.0))
    }

    fn limits() -> HvacLimits {
        HvacLimits::default()
    }

    #[test]
    fn valid_input_passes() {
        assert!(limits()
            .validate(&hvac(), &ok_input(), state(), Celsius::new(35.0))
            .is_ok());
    }

    #[test]
    fn each_constraint_fires() {
        let h = hvac();
        let to = Celsius::new(35.0);
        let l = limits();

        let mut i = ok_input();
        i.mz = KgPerSecond::new(0.5);
        assert!(matches!(
            l.validate(&h, &i, state(), to),
            Err(ConstraintViolation::C1FlowRange { .. })
        ));

        assert!(matches!(
            l.validate(&h, &ok_input(), HvacState::new(Celsius::new(30.0)), to),
            Err(ConstraintViolation::C2ComfortZone { .. })
        ));

        let mut i = ok_input();
        i.ts = Celsius::new(10.0); // below tc = 14
        assert!(matches!(
            l.validate(&h, &i, state(), to),
            Err(ConstraintViolation::C3HeaterDirection)
        ));

        let mut i = ok_input();
        i.tc = Celsius::new(33.0); // above tm = 29.5
        i.ts = Celsius::new(40.0);
        assert!(matches!(
            l.validate(&h, &i, state(), to),
            Err(ConstraintViolation::C4CoolerDirection)
        ));

        let mut i = ok_input();
        i.tc = Celsius::new(1.0);
        i.ts = Celsius::new(10.0);
        assert!(matches!(
            l.validate(&h, &i, state(), to),
            Err(ConstraintViolation::C5CoilTooCold { .. })
        ));

        let mut i = ok_input();
        i.ts = Celsius::new(70.0);
        assert!(matches!(
            l.validate(&h, &i, state(), to),
            Err(ConstraintViolation::C6SupplyTooHot { .. })
        ));

        let mut i = ok_input();
        i.dr = 0.85;
        assert!(matches!(
            l.validate(&h, &i, state(), to),
            Err(ConstraintViolation::C7Recirculation { .. })
        ));
    }

    #[test]
    fn power_caps_fire() {
        let h = hvac();
        let l = limits();
        // Huge heating: ts − tc = 55 K at max flow ⇒ Ph ≈ 15 kW > 6 kW.
        let i = HvacInput {
            ts: Celsius::new(60.0),
            tc: Celsius::new(5.0),
            dr: 0.7,
            mz: KgPerSecond::new(0.25),
        };
        assert!(matches!(
            l.validate(
                &h,
                &i,
                HvacState::new(Celsius::new(22.0)),
                Celsius::new(-10.0)
            ),
            Err(ConstraintViolation::C8HeatingPower { .. })
        ));
        // Huge cooling at 43 °C with no recirculation.
        let i = HvacInput {
            ts: Celsius::new(5.0),
            tc: Celsius::new(5.0),
            dr: 0.0,
            mz: KgPerSecond::new(0.25),
        };
        assert!(matches!(
            l.validate(
                &h,
                &i,
                HvacState::new(Celsius::new(26.0)),
                Celsius::new(43.0)
            ),
            Err(ConstraintViolation::C9CoolingPower { .. })
        ));
    }

    #[test]
    fn clamp_produces_valid_box_values() {
        let h = hvac();
        let l = limits();
        let wild = HvacInput {
            ts: Celsius::new(200.0),
            tc: Celsius::new(-40.0),
            dr: 2.0,
            mz: KgPerSecond::new(9.0),
        };
        let c = l.clamp_input(&h, wild, state(), Celsius::new(35.0));
        assert!(c.mz.value() <= 0.25 && c.mz.value() >= 0.02);
        assert!(c.dr >= 0.0 && c.dr <= 0.9);
        assert!(c.tc >= h.params().min_coil_temp);
        assert!(c.ts <= h.params().max_supply_temp);
        assert!(c.ts >= c.tc);
    }

    #[test]
    fn comfort_band_constructor() {
        let l = HvacLimits::comfort_band(Celsius::new(22.0), 2.0);
        assert_eq!(l.comfort_min, Celsius::new(20.0));
        assert_eq!(l.comfort_max, Celsius::new(24.0));
    }

    #[test]
    fn violation_messages_are_labelled() {
        let v = ConstraintViolation::C9CoolingPower { pc: 9000.0 };
        assert!(v.to_string().starts_with("c9"));
    }
}
