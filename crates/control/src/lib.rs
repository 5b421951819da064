//! Automotive climate controllers: the paper's two state-of-the-art
//! baselines and its battery lifetime-aware MPC.
//!
//! All controllers implement [`ClimateController`]: at each control
//! instant they observe a [`ControlContext`] (measured cabin temperature,
//! ambient conditions, BMS feedback and — for the MPC — a preview of the
//! drive ahead) and command an [`ev_hvac::HvacInput`].
//!
//! | Controller | Strategy | Paper role |
//! |---|---|---|
//! | [`OnOffController`] | bang-bang thermostat at full capacity | baseline \[8, 9\] |
//! | [`FuzzyController`] | Mamdani fuzzy logic on (error, error rate) | baseline \[10\] |
//! | [`MpcController`] | receding-horizon SQP over the drive preview | the contribution |
//!
//! # Examples
//!
//! ```
//! use ev_control::{ClimateController, ControlContext, OnOffController};
//! use ev_hvac::{CabinParams, Hvac, HvacLimits, HvacParams, HvacState};
//! use ev_units::{Celsius, Percent, Seconds, Watts};
//!
//! let hvac = Hvac::new(CabinParams::default(), HvacParams::default());
//! let mut controller =
//!     OnOffController::new(hvac, HvacLimits::default(), Celsius::new(24.0), 1.5);
//! let ctx = ControlContext {
//!     state: HvacState::new(Celsius::new(27.5)),
//!     ambient: Celsius::new(35.0),
//!     solar: Watts::new(400.0),
//!     soc: Percent::new(88.0),
//!     soc_avg: 90.0,
//!     dt: Seconds::new(1.0),
//!     elapsed: Seconds::ZERO,
//!     preview: &[],
//! };
//! let input = controller.control(&ctx);
//! assert!(input.mz.value() > 0.2); // full-capacity cooling
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod context;
mod diagnostics;
pub mod fuzzy;
mod mpc;
mod onoff;

pub use context::{ControlContext, PreviewSample};
pub use diagnostics::MpcDiagnostics;
pub use fuzzy::FuzzyController;
pub use mpc::{
    MpcBatteryModel, MpcBuilder, MpcConfigError, MpcController, MpcWeights, CONSTRAINT_ROW_LABELS,
};
pub use onoff::OnOffController;

use ev_hvac::{Hvac, HvacInput, HvacLimits};
use ev_units::{Celsius, KgPerSecond};

/// A climate controller: maps the observed context to HVAC inputs once
/// per control period.
///
/// Implementations are stateful (`&mut self`): thermostats track their
/// switch state, the MPC its warm start.
pub trait ClimateController {
    /// A short, stable identifier (used in experiment tables).
    fn name(&self) -> &'static str;

    /// Computes the HVAC input for the current step.
    fn control(&mut self, ctx: &ControlContext<'_>) -> HvacInput;

    /// Cumulative solver diagnostics, for controllers backed by an
    /// optimizer. The default (rule-based controllers) is `None`.
    fn solver_diagnostics(&self) -> Option<MpcDiagnostics> {
        None
    }

    /// Clears all per-drive state so the controller can be handed to a
    /// *new vehicle session* without re-instantiation: thermostat switch
    /// state, the fuzzy controller's error memory and — critically — the
    /// MPC's warm start and interior-point multiplier cache, which
    /// anchor the solver to the previous vehicle's trajectory and must
    /// never leak across vehicle ids. Cumulative observability
    /// (diagnostics counters, telemetry) survives the reset: a session
    /// slot is reused, the metrics stream is not.
    ///
    /// After `reset_session` the controller must behave bitwise
    /// identically to a freshly instantiated one. The default is a no-op,
    /// correct only for stateless controllers.
    fn reset_session(&mut self) {}
}

/// Maps a signed actuation duty (−1 = full heating, +1 = full cooling)
/// onto a feasible [`HvacInput`], the fuzzy controller's actuation map.
///
/// The duty scales the fan flow between its limits and drives the active
/// coil up to the span its power cap allows at that flow.
///
/// # Examples
///
/// ```
/// use ev_control::{duty_to_input, ControlContext};
/// use ev_hvac::{CabinParams, Hvac, HvacLimits, HvacParams, HvacState};
/// use ev_units::{Celsius, Percent, Seconds, Watts};
///
/// let hvac = Hvac::new(CabinParams::default(), HvacParams::default());
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
/// let cooling = duty_to_input(&hvac, &HvacLimits::default(), &ctx, 0.8);
/// assert!(cooling.tc < ctx.state.tz);
/// ```
#[must_use]
pub fn duty_to_input(
    hvac: &Hvac,
    limits: &HvacLimits,
    ctx: &ControlContext<'_>,
    duty: f64,
) -> HvacInput {
    let p = hvac.params();
    let duty = duty.clamp(-1.0, 1.0);
    let magnitude = duty.abs();
    if magnitude < 0.02 {
        return limits.clamp_input(
            hvac,
            HvacInput::idle(p, ctx.state.tz),
            ctx.state,
            ctx.ambient,
        );
    }
    let cp = hvac.cabin().air_heat_capacity.value();
    let mz = KgPerSecond::new(
        p.min_flow.value() + magnitude * (p.max_flow.value() - p.min_flow.value()),
    );
    // Modern automatic climate control recirculates aggressively while
    // conditioning; use the system limit.
    let dr = p.max_recirculation;
    let probe = HvacInput {
        ts: ctx.state.tz,
        tc: ctx.state.tz,
        dr,
        mz,
    };
    let tm = hvac.mixed_air(&probe, ctx.state.tz, ctx.ambient);
    // Full duty commands a fixed coil span (DT_FULL_SPAN kelvins), but
    // never beyond what the coil power cap allows at this flow — without
    // the fixed scale, tiny duties at low flow would command full-depth
    // coils (the cap permits a huge ΔT when ṁz is small).
    const DT_FULL_SPAN: f64 = 25.0;
    let input = if duty > 0.0 {
        // Cooling: drive the coil below the mix.
        let span_cap = p.max_cooling_power.value() * p.cooler_efficiency / (cp * mz.value());
        let tc = Celsius::new(tm.value() - magnitude * DT_FULL_SPAN.min(span_cap));
        HvacInput { ts: tc, tc, dr, mz }
    } else {
        // Heating from a passive coil at the mix temperature.
        let span_cap = p.max_heating_power.value() * p.heater_efficiency / (cp * mz.value());
        let ts = Celsius::new(tm.value() + magnitude * DT_FULL_SPAN.min(span_cap));
        HvacInput { ts, tc: tm, dr, mz }
    };
    limits.clamp_input(hvac, input, ctx.state, ctx.ambient)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_hvac::{CabinParams, HvacParams, HvacState};
    use ev_units::{Percent, Seconds, Watts};

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

    fn hvac() -> Hvac {
        Hvac::new(CabinParams::default(), HvacParams::default())
    }

    #[test]
    fn zero_duty_is_idle() {
        let input = duty_to_input(&hvac(), &HvacLimits::default(), &ctx_at(24.0, 30.0), 0.0);
        assert_eq!(input.mz.value(), 0.02);
    }

    #[test]
    fn full_cooling_duty_respects_power_cap() {
        let h = hvac();
        let ctx = ctx_at(27.0, 43.0);
        let input = duty_to_input(&h, &HvacLimits::default(), &ctx, 1.0);
        let power = h.power(&input, ctx.state, ctx.ambient);
        assert!(power.cooling.value() <= 6000.0 + 1.0, "{power:?}");
        assert!(
            power.cooling.value() > 4000.0,
            "should be near cap: {power:?}"
        );
    }

    #[test]
    fn full_heating_duty_respects_power_cap() {
        let h = hvac();
        let ctx = ctx_at(18.0, -10.0);
        let input = duty_to_input(&h, &HvacLimits::default(), &ctx, -1.0);
        let power = h.power(&input, ctx.state, ctx.ambient);
        assert!(power.heating.value() <= 6000.0 + 1.0, "{power:?}");
        assert!(power.heating.value() > 4000.0, "{power:?}");
    }

    #[test]
    fn duty_scales_flow_monotonically() {
        let h = hvac();
        let l = HvacLimits::default();
        let ctx = ctx_at(27.0, 35.0);
        let lo = duty_to_input(&h, &l, &ctx, 0.3);
        let hi = duty_to_input(&h, &l, &ctx, 0.9);
        assert!(hi.mz.value() > lo.mz.value());
    }

    #[test]
    fn duty_is_clamped() {
        let h = hvac();
        let l = HvacLimits::default();
        let ctx = ctx_at(27.0, 35.0);
        let over = duty_to_input(&h, &l, &ctx, 5.0);
        let full = duty_to_input(&h, &l, &ctx, 1.0);
        assert_eq!(over, full);
    }
}
