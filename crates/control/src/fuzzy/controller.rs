//! The fuzzy-based climate controller baseline (the paper's ref [10]).

use std::sync::OnceLock;

use ev_hvac::{Hvac, HvacInput, HvacLimits};
use ev_units::Celsius;

use super::engine::{FuzzyEngine, MembershipFunction, Rule, Term};
use crate::{duty_to_input, ClimateController, ControlContext};

/// The fuzzy-based temperature controller the paper compares against
/// (Ibrahim et al., its ref \[10\]): a Mamdani system on the temperature
/// error and its rate of change, producing a signed actuation duty that
/// modulates fan flow and coil temperatures.
///
/// Compared with the On/Off baseline it stabilizes the cabin temperature
/// tightly (the paper's Fig. 5) and consumes less power (its Fig. 8),
/// but — like every reactive scheme — it knows nothing about the battery
/// or the road ahead.
///
/// # Examples
///
/// ```
/// use ev_control::{ClimateController, ControlContext, FuzzyController};
/// use ev_hvac::{CabinParams, Hvac, HvacLimits, HvacParams, HvacState};
/// use ev_units::{Celsius, Percent, Seconds, Watts};
///
/// let hvac = Hvac::new(CabinParams::default(), HvacParams::default());
/// let mut ctrl = FuzzyController::new(hvac, HvacLimits::default(), Celsius::new(24.0));
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
/// let input = ctrl.control(&ctx);
/// assert!(input.tc < ctx.state.tz); // cooling
/// ```
#[derive(Debug, Clone)]
pub struct FuzzyController {
    hvac: Hvac,
    limits: HvacLimits,
    target: Celsius,
    engine: &'static FuzzyEngine,
    prev_error: Option<f64>,
}

impl FuzzyController {
    /// Error universe half-width (K): errors beyond ±2 K saturate.
    const ERROR_SPAN: f64 = 2.0;
    /// Error-rate universe half-width (K/s).
    const RATE_SPAN: f64 = 0.05;

    /// Creates the controller with the standard 5×3 rule base.
    #[must_use]
    pub fn new(hvac: Hvac, limits: HvacLimits, target: Celsius) -> Self {
        Self {
            hvac,
            limits,
            target,
            engine: Self::paper_engine(),
            prev_error: None,
        }
    }

    /// The standard 5×3 Mamdani system, built once per process and shared
    /// by every controller: it is immutable, and building it tabulates
    /// every output term.
    pub(crate) fn paper_engine() -> &'static FuzzyEngine {
        static ENGINE: OnceLock<FuzzyEngine> = OnceLock::new();
        ENGINE.get_or_init(Self::build_engine)
    }

    /// The temperature target.
    #[must_use]
    pub fn target(&self) -> Celsius {
        self.target
    }

    /// Resets the derivative memory.
    pub fn reset(&mut self) {
        self.prev_error = None;
    }

    /// Builds the Mamdani system: error {NL, NS, ZE, PS, PL} ×
    /// rate {N, Z, P} → duty {strong-heat … strong-cool} on [−1, 1].
    fn build_engine() -> FuzzyEngine {
        let tri = |a: f64, b: f64, c: f64| MembershipFunction::Triangle { a, b, c };
        let error_terms = vec![
            Term {
                label: "NL",
                mf: tri(-1.0, -1.0, -0.4),
            },
            Term {
                label: "NS",
                mf: tri(-0.8, -0.35, 0.0),
            },
            Term {
                label: "ZE",
                mf: tri(-0.15, 0.0, 0.15),
            },
            Term {
                label: "PS",
                mf: tri(0.0, 0.35, 0.8),
            },
            Term {
                label: "PL",
                mf: tri(0.4, 1.0, 1.0),
            },
        ];
        let rate_terms = vec![
            Term {
                label: "N",
                mf: tri(-1.0, -1.0, 0.0),
            },
            Term {
                label: "Z",
                mf: tri(-0.4, 0.0, 0.4),
            },
            Term {
                label: "P",
                mf: tri(0.0, 1.0, 1.0),
            },
        ];
        let duty_terms = vec![
            Term {
                label: "heat-strong",
                mf: tri(-1.0, -1.0, -0.5),
            },
            Term {
                label: "heat-weak",
                mf: tri(-0.8, -0.4, 0.0),
            },
            Term {
                label: "rest",
                mf: tri(-0.15, 0.0, 0.15),
            },
            Term {
                label: "cool-weak",
                mf: tri(0.0, 0.4, 0.8),
            },
            Term {
                label: "cool-strong",
                mf: tri(0.5, 1.0, 1.0),
            },
        ];
        // Rule matrix: rows = error term, columns = rate term.
        // Rates reinforce or soften the action (classic PD-like table).
        #[rustfmt::skip]
        let matrix: [[usize; 3]; 5] = [
            // rate:  N  Z  P        error:
            [0, 0, 1], // NL (much too cold)   → strong heat
            [0, 1, 2], // NS                  → heat, ease off if warming
            [1, 2, 3], // ZE                  → rest, lean against drift
            [2, 3, 4], // PS                  → cool, ease off if cooling
            [3, 4, 4], // PL (much too hot)   → strong cool
        ];
        let mut rules = Vec::with_capacity(15);
        for (ei, row) in matrix.iter().enumerate() {
            for (ri, &out) in row.iter().enumerate() {
                rules.push(Rule {
                    antecedents: vec![Some(ei), Some(ri)],
                    consequent: out,
                });
            }
        }
        FuzzyEngine::new(
            vec![error_terms, rate_terms],
            duty_terms,
            (-1.0, 1.0),
            rules,
        )
    }
}

impl ClimateController for FuzzyController {
    fn name(&self) -> &'static str {
        "fuzzy"
    }

    fn reset_session(&mut self) {
        self.prev_error = None;
    }

    fn control(&mut self, ctx: &ControlContext<'_>) -> HvacInput {
        let error = ctx.state.tz.diff(self.target); // + = too hot
        let rate = match self.prev_error {
            Some(prev) => (error - prev) / ctx.dt.value(),
            None => 0.0,
        };
        self.prev_error = Some(error);
        let duty = self.engine.infer(&[
            (error / Self::ERROR_SPAN).clamp(-1.0, 1.0),
            (rate / Self::RATE_SPAN).clamp(-1.0, 1.0),
        ]);
        duty_to_input(&self.hvac, &self.limits, ctx, duty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_hvac::{CabinParams, HvacParams, HvacState};
    use ev_units::{Percent, Seconds, Watts};

    fn fuzzy() -> FuzzyController {
        FuzzyController::new(
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
    fn hot_cabin_gets_cooling() {
        let mut c = fuzzy();
        let input = c.control(&ctx_at(29.0, 35.0));
        assert!(input.tc.value() < 24.0, "{input:?}");
        assert!(input.mz.value() > 0.1);
    }

    #[test]
    fn cold_cabin_gets_heating() {
        let mut c = fuzzy();
        let input = c.control(&ctx_at(19.0, -5.0));
        assert!(input.ts > input.tc);
    }

    #[test]
    fn near_target_rests() {
        let mut c = fuzzy();
        let input = c.control(&ctx_at(24.05, 30.0));
        // Minimal flow, near-passive coils.
        assert!(input.mz.value() < 0.05, "{input:?}");
    }

    #[test]
    fn closed_loop_stabilizes_tighter_than_onoff() {
        let hvac = Hvac::new(CabinParams::default(), HvacParams::default());
        let mut c = fuzzy();
        let mut state = HvacState::new(Celsius::new(30.0));
        let mut min_tz: f64 = f64::MAX;
        let mut max_tz: f64 = f64::MIN;
        for k in 0..2500 {
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
            if k > 1200 {
                min_tz = min_tz.min(state.tz.value());
                max_tz = max_tz.max(state.tz.value());
            }
        }
        // Fuzzy control: settled band well under a kelvin (paper Fig. 5).
        assert!(max_tz - min_tz < 1.0, "band {}", max_tz - min_tz);
        assert!((0.5 * (max_tz + min_tz) - 24.0).abs() < 1.5, "center off");
    }

    #[test]
    fn duty_direction_is_monotone_in_error() {
        let mut c = fuzzy();
        // Hotter cabin → stronger actuation → more fan flow.
        let mild = c.control(&ctx_at(25.0, 35.0));
        c.reset();
        let hot = c.control(&ctx_at(29.0, 35.0));
        assert!(hot.mz.value() >= mild.mz.value() - 1e-9);
    }
}
