//! HVAC dynamics and power model.

use ev_ode::trapezoidal;
use ev_units::{Celsius, KgPerSecond, Seconds, Watts};
use serde::{Deserialize, Serialize};

use crate::{CabinParams, HvacParams};

/// The HVAC control input vector `[Ts, Tc, dr, ṁz]` of the paper's
/// Section III-A.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HvacInput {
    /// Supply (heater outlet) air temperature `Ts`.
    pub ts: Celsius,
    /// Cooling-coil outlet temperature `Tc`.
    pub tc: Celsius,
    /// Recirculated-air fraction `dr` ∈ [0, 1].
    pub dr: f64,
    /// Supply air mass flow `ṁz`.
    pub mz: KgPerSecond,
}

impl HvacInput {
    /// An "off" input: minimum flow, passive coil temperatures equal to
    /// the given cabin temperature (no heating or cooling energy moved).
    #[must_use]
    pub fn idle(params: &HvacParams, cabin: Celsius) -> Self {
        Self {
            ts: cabin,
            tc: cabin,
            dr: params.max_recirculation,
            mz: params.min_flow,
        }
    }
}

/// The HVAC state: cabin (zone) temperature `Tz`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HvacState {
    /// Cabin temperature.
    pub tz: Celsius,
}

impl HvacState {
    /// Creates a state from the cabin temperature.
    #[must_use]
    pub fn new(tz: Celsius) -> Self {
        Self { tz }
    }
}

/// Instantaneous HVAC power consumption, split by component
/// (Eq. 10–12).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct HvacPower {
    /// Heating-coil power `Ph`.
    pub heating: Watts,
    /// Cooling-coil power `Pc`.
    pub cooling: Watts,
    /// Fan power `Pf`.
    pub fan: Watts,
}

impl HvacPower {
    /// Total electrical power `Pf + Pc + Ph`.
    #[must_use]
    pub fn total(&self) -> Watts {
        self.heating + self.cooling + self.fan
    }
}

/// The single-zone VAV HVAC model: mixer, coils, fan and cabin thermal
/// dynamics (the paper's Eq. 7–12), with the trapezoidal one-step update
/// of Eq. 18–19.
///
/// # Examples
///
/// ```
/// use ev_hvac::{CabinParams, Hvac, HvacInput, HvacParams, HvacState};
/// use ev_units::{Celsius, KgPerSecond, Watts};
///
/// let hvac = Hvac::new(CabinParams::default(), HvacParams::default());
/// let input = HvacInput {
///     ts: Celsius::new(40.0), // heating
///     tc: Celsius::new(10.0),
///     dr: 0.8,
///     mz: KgPerSecond::new(0.1),
/// };
/// let p = hvac.power(&input, HvacState::new(Celsius::new(18.0)), Celsius::new(0.0));
/// assert!(p.heating.value() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Hvac {
    cabin: CabinParams,
    params: HvacParams,
}

impl Hvac {
    /// Creates the model.
    #[must_use]
    pub fn new(cabin: CabinParams, params: HvacParams) -> Self {
        Self { cabin, params }
    }

    /// Borrows the cabin parameters.
    #[must_use]
    pub fn cabin(&self) -> &CabinParams {
        &self.cabin
    }

    /// Borrows the HVAC machine parameters.
    #[must_use]
    pub fn params(&self) -> &HvacParams {
        &self.params
    }

    /// Mixed (system inlet) air temperature `Tm` (Eq. 9).
    #[must_use]
    pub fn mixed_air(&self, input: &HvacInput, tz: Celsius, to: Celsius) -> Celsius {
        Celsius::new((1.0 - input.dr) * to.value() + input.dr * tz.value())
    }

    /// Component power consumption at an operating point (Eq. 10–12).
    ///
    /// Coil powers are clamped at zero from below: a coil commanded in its
    /// passive direction (e.g. `Ts < Tc`) moves no energy rather than
    /// generating negative power. The constraint set (C3/C4) forbids such
    /// commands; the clamp keeps the *plant* physical even for raw inputs.
    #[must_use]
    pub fn power(&self, input: &HvacInput, state: HvacState, to: Celsius) -> HvacPower {
        let cp = self.cabin.air_heat_capacity.value();
        let mz = input.mz.value();
        let tm = self.mixed_air(input, state.tz, to);
        let heating = (cp / self.params.heater_efficiency * mz * input.ts.diff(input.tc)).max(0.0);
        let cooling = (cp / self.params.cooler_efficiency * mz * tm.diff(input.tc)).max(0.0);
        let fan = self.params.fan_coefficient * mz * mz;
        HvacPower {
            heating: Watts::new(heating),
            cooling: Watts::new(cooling),
            fan: Watts::new(fan),
        }
    }

    /// Continuous-time cabin temperature derivative `dTz/dt` (Eq. 7–8).
    #[must_use]
    pub fn cabin_rate(
        &self,
        input: &HvacInput,
        state: HvacState,
        to: Celsius,
        solar: Watts,
    ) -> f64 {
        let cp = self.cabin.air_heat_capacity.value();
        let q = solar.value() + self.cabin.shell_conductance.value() * to.diff(state.tz);
        let supply = input.mz.value() * cp * input.ts.diff(state.tz);
        (q + supply) / self.cabin.thermal_capacitance.value()
    }

    /// One trapezoidal step of the cabin dynamics (the discretization of
    /// Eq. 18–19): returns the next state and the power drawn over the
    /// step.
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0`.
    #[must_use]
    pub fn step(
        &self,
        state: HvacState,
        input: &HvacInput,
        to: Celsius,
        solar: Watts,
        dt: Seconds,
    ) -> (HvacState, HvacPower) {
        assert!(dt.value() > 0.0, "hvac step must be positive");
        let cp = self.cabin.air_heat_capacity.value();
        let mc = self.cabin.thermal_capacitance.value();
        let cx = self.cabin.shell_conductance.value();
        let mz = input.mz.value();
        // Mc·(Tz⁺ − Tz)/Δt = a − b·(Tz⁺ + Tz)/2 with
        //   a = Q_solar + cx·Ax·To + ṁz·cp·Ts,  b = cx·Ax + ṁz·cp.
        let a = solar.value() + cx * to.value() + mz * cp * input.ts.value();
        let b = cx + mz * cp;
        let tz_next = trapezoidal(state.tz.value(), mc, a, b, dt.value());
        let next = HvacState::new(Celsius::new(tz_next));
        let power = self.power(input, state, to);
        (next, power)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hvac() -> Hvac {
        Hvac::new(CabinParams::default(), HvacParams::default())
    }

    fn cooling_input() -> HvacInput {
        HvacInput {
            ts: Celsius::new(12.0),
            tc: Celsius::new(12.0),
            dr: 0.5,
            mz: KgPerSecond::new(0.15),
        }
    }

    #[test]
    fn mixer_blends_linearly() {
        let h = hvac();
        let mut input = cooling_input();
        input.dr = 0.25;
        let tm = h.mixed_air(&input, Celsius::new(24.0), Celsius::new(40.0));
        assert!((tm.value() - (0.75 * 40.0 + 0.25 * 24.0)).abs() < 1e-12);
    }

    #[test]
    fn cooling_power_hand_calculation() {
        // Tm = 0.5·35 + 0.5·25 = 30; Pc = 1006/0.85·0.15·(30−12) = 3195 W.
        let h = hvac();
        let p = h.power(
            &cooling_input(),
            HvacState::new(Celsius::new(25.0)),
            Celsius::new(35.0),
        );
        let expected = 1006.0 / 0.85 * 0.15 * 18.0;
        assert!((p.cooling.value() - expected).abs() < 1e-9);
        // Ts = Tc: no reheat.
        assert_eq!(p.heating.value(), 0.0);
        // Fan: 4800·0.15² = 108 W.
        assert!((p.fan.value() - 108.0).abs() < 1e-9);
        assert!((p.total().value() - expected - 108.0).abs() < 1e-9);
    }

    #[test]
    fn heating_power_hand_calculation() {
        let h = hvac();
        let input = HvacInput {
            ts: Celsius::new(45.0),
            tc: Celsius::new(10.0),
            dr: 0.9,
            mz: KgPerSecond::new(0.1),
        };
        let p = h.power(
            &input,
            HvacState::new(Celsius::new(15.0)),
            Celsius::new(0.0),
        );
        let expected = 1006.0 / 0.90 * 0.1 * 35.0;
        assert!((p.heating.value() - expected).abs() < 1e-9);
    }

    #[test]
    fn passive_coil_commands_move_no_energy() {
        let h = hvac();
        // Tc above Tm: the cooler cannot heat; clamped to zero.
        let input = HvacInput {
            ts: Celsius::new(20.0),
            tc: Celsius::new(50.0),
            dr: 0.0,
            mz: KgPerSecond::new(0.1),
        };
        let p = h.power(
            &input,
            HvacState::new(Celsius::new(24.0)),
            Celsius::new(20.0),
        );
        assert_eq!(p.cooling.value(), 0.0);
        assert_eq!(p.heating.value(), 0.0); // Ts < Tc likewise clamped
    }

    #[test]
    fn hot_cabin_cools_under_cooling_input() {
        let h = hvac();
        let mut state = HvacState::new(Celsius::new(40.0));
        for _ in 0..300 {
            let (next, _) = h.step(
                state,
                &cooling_input(),
                Celsius::new(35.0),
                Watts::new(400.0),
                Seconds::new(1.0),
            );
            assert!(next.tz.value() < state.tz.value() + 1e-12);
            state = next;
        }
        assert!(state.tz.value() < 30.0, "tz {}", state.tz);
    }

    #[test]
    fn equilibrium_matches_analytic_balance() {
        // Steady state: Q + ṁz·cp·(Ts − Tz) = 0
        //   ⇒ Tz = (Q_solar + cx·To + ṁ·cp·Ts)/(cx + ṁ·cp).
        let h = hvac();
        let input = cooling_input();
        let to = Celsius::new(35.0);
        let solar = Watts::new(400.0);
        let mut state = HvacState::new(Celsius::new(35.0));
        for _ in 0..20_000 {
            state = h.step(state, &input, to, solar, Seconds::new(1.0)).0;
        }
        let cp = 1006.0;
        let cx = 55.0;
        let expected = (400.0 + cx * 35.0 + 0.15 * cp * 12.0) / (cx + 0.15 * cp);
        assert!(
            (state.tz.value() - expected).abs() < 1e-6,
            "tz {}",
            state.tz
        );
    }

    #[test]
    fn trapezoidal_step_matches_rate_for_small_dt() {
        let h = hvac();
        let state = HvacState::new(Celsius::new(28.0));
        let input = cooling_input();
        let to = Celsius::new(35.0);
        let solar = Watts::new(400.0);
        let rate = h.cabin_rate(&input, state, to, solar);
        let (next, _) = h.step(state, &input, to, solar, Seconds::new(1e-3));
        let numeric = (next.tz.value() - state.tz.value()) / 1e-3;
        assert!((numeric - rate).abs() < 1e-6, "{numeric} vs {rate}");
    }

    #[test]
    fn solar_load_warms_the_cabin() {
        let h = hvac();
        let state = HvacState::new(Celsius::new(24.0));
        let input = HvacInput::idle(h.params(), Celsius::new(24.0));
        let sunny = h.cabin_rate(&input, state, Celsius::new(24.0), Watts::new(800.0));
        let dark = h.cabin_rate(&input, state, Celsius::new(24.0), Watts::ZERO);
        assert!(sunny > dark);
        assert!(dark.abs() < 1e-9, "no drivers, no drift");
    }

    #[test]
    fn idle_input_moves_no_coil_energy() {
        let h = hvac();
        let cab = Celsius::new(22.0);
        let p = h.power(
            &HvacInput::idle(h.params(), cab),
            HvacState::new(cab),
            Celsius::new(22.0),
        );
        assert_eq!(p.heating.value(), 0.0);
        assert_eq!(p.cooling.value(), 0.0);
        assert!(p.fan.value() > 0.0); // minimum ventilation flow
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn step_rejects_zero_dt() {
        let h = hvac();
        let _ = h.step(
            HvacState::new(Celsius::new(24.0)),
            &cooling_input(),
            Celsius::new(30.0),
            Watts::ZERO,
            Seconds::ZERO,
        );
    }
}
