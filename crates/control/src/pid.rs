//! PID temperature controller — the building block the fuzzy baseline
//! modulates, usable standalone.

use ev_hvac::{Hvac, HvacInput, HvacLimits};
use ev_units::Celsius;

use crate::{duty_to_input, ClimateController, ControlContext};

/// A classical PID controller on the cabin-temperature error, mapped onto
/// the HVAC actuators through a signed *duty* (−1 = full heating,
/// +1 = full cooling).
///
/// The paper notes that production automotive climate control is "mostly
/// done using switching On/Off … or fuzzy-based methodologies implemented
/// on PID controllers" (its Section I); this type is that PID layer.
///
/// # Examples
///
/// ```
/// use ev_control::{ClimateController, ControlContext, PidController};
/// use ev_hvac::{CabinParams, Hvac, HvacLimits, HvacParams, HvacState};
/// use ev_units::{Celsius, Percent, Seconds, Watts};
///
/// let hvac = Hvac::new(CabinParams::default(), HvacParams::default());
/// let mut pid = PidController::new(hvac, HvacLimits::default(), Celsius::new(24.0));
/// let ctx = ControlContext {
///     state: HvacState::new(Celsius::new(26.0)),
///     ambient: Celsius::new(35.0),
///     solar: Watts::new(400.0),
///     soc: Percent::new(90.0),
///     soc_avg: 92.0,
///     dt: Seconds::new(1.0),
///     elapsed: Seconds::ZERO,
///     preview: &[],
/// };
/// let input = pid.control(&ctx);
/// assert!(input.tc < ctx.state.tz); // cooling engaged
/// ```
#[derive(Debug, Clone)]
pub struct PidController {
    hvac: Hvac,
    limits: HvacLimits,
    target: Celsius,
    /// Proportional gain (duty per kelvin).
    pub kp: f64,
    /// Integral gain (duty per kelvin-second).
    pub ki: f64,
    /// Derivative gain (duty per kelvin/second).
    pub kd: f64,
    integral: f64,
    prev_error: Option<f64>,
}

impl PidController {
    /// Anti-windup bound on the integral term (in duty units).
    const INTEGRAL_LIMIT: f64 = 1.0;

    /// Creates a PID controller with gains tuned for the default cabin.
    #[must_use]
    pub fn new(hvac: Hvac, limits: HvacLimits, target: Celsius) -> Self {
        Self {
            hvac,
            limits,
            target,
            kp: 0.8,
            ki: 0.004,
            kd: 4.0,
            integral: 0.0,
            prev_error: None,
        }
    }

    /// The temperature target.
    #[must_use]
    pub fn target(&self) -> Celsius {
        self.target
    }

    /// Resets the internal state (integral, derivative memory).
    pub fn reset(&mut self) {
        self.integral = 0.0;
        self.prev_error = None;
    }
}

impl ClimateController for PidController {
    fn name(&self) -> &'static str {
        "pid"
    }

    fn reset_session(&mut self) {
        self.reset();
    }

    fn control(&mut self, ctx: &ControlContext<'_>) -> HvacInput {
        let dt = ctx.dt.value();
        // Positive error = too hot = cooling duty.
        let error = ctx.state.tz.diff(self.target);
        self.integral = (self.integral + self.ki * error * dt)
            .clamp(-Self::INTEGRAL_LIMIT, Self::INTEGRAL_LIMIT);
        let derivative = match self.prev_error {
            Some(prev) => (error - prev) / dt,
            None => 0.0,
        };
        self.prev_error = Some(error);
        let duty = (self.kp * error + self.integral + self.kd * derivative).clamp(-1.0, 1.0);
        duty_to_input(&self.hvac, &self.limits, ctx, duty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_hvac::{CabinParams, HvacParams, HvacState};
    use ev_units::{Percent, Seconds, Watts};

    fn pid() -> PidController {
        PidController::new(
            Hvac::new(CabinParams::default(), HvacParams::default()),
            HvacLimits::default(),
            Celsius::new(24.0),
        )
    }

    fn ctx_at(tz: f64, to: f64) -> ControlContext<'static> {
        ControlContext {
            state: HvacState::new(Celsius::new(tz)),
            ambient: Celsius::new(to),
            solar: Watts::new(400.0),
            soc: Percent::new(90.0),
            soc_avg: 92.0,
            dt: Seconds::new(1.0),
            elapsed: Seconds::ZERO,
            preview: &[],
        }
    }

    #[test]
    fn cooling_engages_when_hot() {
        let mut c = pid();
        let input = c.control(&ctx_at(27.0, 35.0));
        assert!(input.tc.value() < 27.0);
        assert!(input.mz.value() > 0.02);
    }

    #[test]
    fn heating_engages_when_cold() {
        let mut c = pid();
        let input = c.control(&ctx_at(20.0, 0.0));
        assert!(input.ts > input.tc, "heater must be active");
    }

    #[test]
    fn integral_is_bounded() {
        let mut c = pid();
        for _ in 0..10_000 {
            let _ = c.control(&ctx_at(30.0, 40.0));
        }
        assert!(c.integral.abs() <= PidController::INTEGRAL_LIMIT + 1e-12);
    }

    #[test]
    fn closed_loop_settles_near_target() {
        let hvac = Hvac::new(CabinParams::default(), HvacParams::default());
        let mut c = pid();
        let mut state = HvacState::new(Celsius::new(32.0));
        for _ in 0..2000 {
            let ctx = ControlContext {
                state,
                ..ctx_at(state.tz.value(), 35.0)
            };
            let input = c.control(&ctx);
            state = hvac
                .step(
                    state,
                    &input,
                    Celsius::new(35.0),
                    Watts::new(400.0),
                    Seconds::new(1.0),
                )
                .0;
        }
        assert!(
            (state.tz.value() - 24.0).abs() < 0.8,
            "settled at {}",
            state.tz
        );
    }

    #[test]
    fn reset_clears_memory() {
        let mut c = pid();
        let _ = c.control(&ctx_at(30.0, 35.0));
        c.reset();
        assert_eq!(c.integral, 0.0);
        assert!(c.prev_error.is_none());
    }
}
